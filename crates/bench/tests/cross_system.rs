//! Cross-crate integration tests: Captive and the QEMU-style baseline must be
//! *functionally* indistinguishable to the guest (same architectural results)
//! while differing in the performance characteristics the paper measures.
//!
//! Every run goes through `bench::run`, and every comparison of two runs is
//! `bench::Run::differs` (registers, NZCV, the guest's memory digests and the
//! `Architectural` counters): `bench::assert_agree` over engine names, or a
//! pair of runs when a test contrasts a Captive setting no name spells (an
//! unroll factor, chaining off with region formation on, a three-region
//! code cache).

use bench::{assert_agree, by_name, Guest, Run, DATA_WINDOW, EQUIVALENT};
use captive::{Captive, CaptiveConfig, REGION_THRESHOLD};
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::regs::esr_class;
use guest_aarch64::SysReg;
use proptest::prelude::*;
use workloads::Scale;

/// Captive as shipped with `edit` applied: a contrast no engine name spells.
fn captive(edit: impl FnOnce(&mut CaptiveConfig)) -> CaptiveConfig {
    let mut cfg = CaptiveConfig::default();
    edit(&mut cfg);
    cfg
}

/// The code segments `code`, entered at 0x1000; the outcome digests the
/// data window.
fn guest(name: &str, code: Vec<(u64, Vec<u32>)>) -> Guest {
    Guest {
        code,
        ..Guest::program(name, Vec::new())
    }
}

#[test]
fn helper_cost_tables_hold_the_values_the_cycle_baselines_were_taken_with() {
    // The shared helper arms are priced per engine; these are the literals
    // the arms carried before they moved into the guest-system core, so a
    // drifted cycle shows up here and not as an unexplained figures diff.
    // (Captive's `vec_op` is new with the shared soft-FP lowering: two of
    // its scalar bodies, one per lane.)
    use guest_aarch64::sys::HelperCosts;
    assert_eq!(
        captive::runtime::HELPER_COSTS,
        HelperCosts {
            putchar: 120,
            exit: 50,
            exception: 300,
            msr_notify: 200,
            fcmp: 20,
            eret: 260,
            hlt: 20,
            soft_fp: 90,
            soft_sqrt: 90,
            vec_op: 180,
        }
    );
    assert_eq!(
        qemu_ref::HELPER_COSTS,
        HelperCosts {
            putchar: 150,
            exit: 50,
            exception: 350,
            msr_notify: 200,
            fcmp: 60,
            eret: 300,
            hlt: 20,
            soft_fp: 110,
            soft_sqrt: 160,
            vec_op: 260,
        }
    );
}

#[test]
fn spec_int_results_match_across_systems() {
    for w in workloads::spec_int(Scale(1)).into_iter().take(4) {
        assert_agree(&(&w).into(), &["qemu", "default"]);
    }
}

#[test]
fn fp_results_match_between_hardware_and_software_modes() {
    // The fix-up machinery means Captive's hardware-FP path must be
    // bit-identical to the softfloat path for the workload mix.
    assert_agree(
        &(&workloads::fp_micro(Scale(1))).into(),
        &["default", "softfp"],
    );
}

#[test]
fn fmadd_rounds_once_on_every_engine() {
    // (1 + 2^-27)(1 - 2^-27) = 1 - 2^-54 rounds to 1.0 as a product of its
    // own, so multiply-then-add yields 0 where the fused result is -2^-54.
    let eps = f64::powi(2.0, -27);
    let mut a = Assembler::new();
    for (v, x) in [1.0 + eps, 1.0 - eps, -1.0].into_iter().enumerate() {
        a.mov_imm64(1, x.to_bits());
        a.push(asm::fmov_from_gpr(v as u32, 1));
    }
    a.push(asm::fmadd(3, 0, 1, 2));
    a.push(asm::fmov_to_gpr(5, 3));
    a.push(asm::hlt());
    let fused = (-f64::powi(2.0, -54)).to_bits();
    // QemuRef's softfloat helper, Captive's host FMA and Captive's softfloat
    // helper agree, on the fused result.
    let runs = assert_agree(
        &Guest::program("fmadd", a.finish()),
        &["qemu", "default", "softfp"],
    );
    assert_eq!(runs[0].1.regs[5], fused);
}

#[test]
fn software_fp_runs_every_fp_instruction_through_softfloat() {
    // Both software-FP engines run one lowering, so an error in it is
    // common to both and their agreement proves nothing: every result is
    // held to bits computed by hand for an Arm guest in default-NaN mode,
    // where every NaN result is the positive default NaN.  v0 = [a, b] and
    // v1 = [b, b]; the scalar ops read the low lanes, the `.2d` ops both,
    // and their lanes are stored with `str q` and read back.
    const NAN: u64 = 0x7FF8_0000_0000_0000;
    const INF: u64 = 0x7FF0_0000_0000_0000;
    const NEG_INF: u64 = 0xFFF0_0000_0000_0000;
    // A signalling NaN with the sign set and a payload.
    const SIGNED_PAYLOAD_NAN: u64 = 0xFFF0_0000_0000_1234;
    struct Case {
        a: u64,
        b: u64,
        // fadd, fsub, fmul, fdiv a, b; fsqrt b; fmadd a * b + a.
        scalar: [u64; 6],
        // fadd .2d lanes [a + b, b + b], then fmul .2d [a * b, b * b].
        vector: [u64; 4],
    }
    let cases = [
        Case {
            // 2.25 and 0.25: 2.5, 2.0, 0.5625, 9.0; 0.5; 2.8125.
            a: 0x4002_0000_0000_0000,
            b: 0x3FD0_0000_0000_0000,
            scalar: [
                0x4004_0000_0000_0000,
                0x4000_0000_0000_0000,
                0x3FE2_0000_0000_0000,
                0x4022_0000_0000_0000,
                0x3FE0_0000_0000_0000,
                0x4006_8000_0000_0000,
            ],
            // 2.5, 0.5; 0.5625, 0.0625.
            vector: [
                0x4004_0000_0000_0000,
                0x3FE0_0000_0000_0000,
                0x3FE2_0000_0000_0000,
                0x3FB0_0000_0000_0000,
            ],
        },
        Case {
            // inf + −inf and inf / −inf are invalid; so are sqrt(−inf) and
            // −inf + inf inside the fused multiply-add.
            a: INF,
            b: NEG_INF,
            scalar: [NAN, INF, NEG_INF, NAN, NAN, NAN],
            vector: [NAN, NEG_INF, NEG_INF, INF],
        },
        Case {
            // 0 × inf is invalid, in `fmul` and inside `fmadd`.
            a: 0,
            b: INF,
            scalar: [INF, NEG_INF, NAN, 0, INF, NAN],
            vector: [INF, INF, NAN, INF],
        },
        Case {
            // 0 / 0 is the one invalid operation on two zeros.
            a: 0,
            b: 0,
            scalar: [0, 0, 0, NAN, 0, 0],
            vector: [0, 0, 0, 0],
        },
        Case {
            // A NaN operand never reaches the result: its sign and payload
            // are dropped for the default NaN.
            a: 0x3FF0_0000_0000_0000,
            b: SIGNED_PAYLOAD_NAN,
            scalar: [NAN; 6],
            vector: [NAN; 4],
        },
    ];
    for Case {
        a,
        b,
        scalar,
        vector,
    } in cases
    {
        let mut p = Assembler::new();
        p.mov_imm64(1, DATA_WINDOW.0);
        p.push(asm::ldr_q(0, 1, 0));
        p.push(asm::ldr_q(1, 1, 16));
        let ops = [asm::fadd, asm::fsub, asm::fmul, asm::fdiv];
        for (k, op) in ops.into_iter().enumerate() {
            p.push(op(2, 0, 1));
            p.push(asm::fmov_to_gpr(2 + k as u32, 2));
        }
        p.push(asm::fsqrt(2, 1));
        p.push(asm::fmov_to_gpr(6, 2));
        p.push(asm::fmadd(2, 0, 1, 0));
        p.push(asm::fmov_to_gpr(7, 2));
        p.push(asm::vadd2d(2, 0, 1));
        p.push(asm::str_q(2, 1, 32));
        p.push(asm::vmul2d(3, 0, 1));
        p.push(asm::str_q(3, 1, 48));
        for k in 0..4 {
            p.push(asm::ldr(8 + k, 1, 32 + 8 * k));
        }
        p.push(asm::hlt());
        let g = Guest {
            words: vec![
                (DATA_WINDOW.0, a),
                (DATA_WINDOW.0 + 8, b),
                (DATA_WINDOW.0 + 16, b),
                (DATA_WINDOW.0 + 24, b),
            ],
            ..Guest::program("soft_fp", p.finish())
        };
        for engine in ["qemu", "softfp"] {
            let regs = bench::run(&g, engine).regs;
            assert_eq!(regs[2..8], scalar, "{engine}: a {a:#x}, b {b:#x}");
            assert_eq!(regs[8..12], vector, "{engine}: .2d, a {a:#x}, b {b:#x}");
        }
    }
}

/// The equivalence roster plus Captive's software-FP mode, whose scalar FP
/// takes the softfloat helper path.
fn fp_engines() -> Vec<&'static str> {
    EQUIVALENT.iter().copied().chain(["softfp"]).collect()
}

#[test]
fn fcvtzs_truncates_toward_zero_on_every_engine() {
    // FCVTZS rounds toward zero, saturates out of range and maps NaN to 0.
    let cases = [
        (2.7, 2),
        (-2.7, -2),
        (3.5, 3),
        (2.5, 2),
        (-0.5, 0),
        (f64::NAN, 0),
        (1e19, i64::MAX),
        (-1e19, i64::MIN),
    ];
    let mut a = Assembler::new();
    for (k, (x, _)) in cases.iter().enumerate() {
        a.mov_imm64(1, x.to_bits());
        a.push(asm::fmov_from_gpr(0, 1));
        a.push(asm::fcvtzs(2 + k as u32, 0));
    }
    a.push(asm::hlt());
    let runs = assert_agree(&Guest::program("fcvtzs", a.finish()), &fp_engines());
    for (k, (x, want)) in cases.into_iter().enumerate() {
        assert_eq!(runs[0].1.regs[2 + k] as i64, want, "fcvtzs {x}");
    }
}

#[test]
fn fcmp_scvtf_asrv_and_strh_mean_what_arm_says_on_every_engine() {
    // FCMP: less, equal, greater, unordered.
    for (x, y, nzcv) in [
        (1.0, 2.0, 0b1000),
        (2.0, 2.0, 0b0110),
        (3.0, 2.0, 0b0010),
        (f64::NAN, 2.0, 0b0011),
    ] {
        let mut a = Assembler::new();
        for (v, value) in [x, y].into_iter().enumerate() {
            a.mov_imm64(1, f64::to_bits(value));
            a.push(asm::fmov_from_gpr(v as u32, 1));
        }
        a.push(asm::fcmp(0, 1));
        a.push(asm::hlt());
        let runs = assert_agree(&Guest::program("fcmp", a.finish()), &fp_engines());
        assert_eq!(runs[0].1.nzcv, nzcv, "fcmp {x}, {y}");
    }

    let mut a = Assembler::new();
    // SCVTF into x2..x5: 2^53 + 1 and 2^53 + 3 tie and go to the even
    // neighbour, 2^53 and 2^53 + 4.
    let scvtf = [
        ((1u64 << 53) + 1, 0x4340_0000_0000_0000),
        ((1 << 53) + 3, 0x4340_0000_0000_0002),
        (i64::MIN as u64, 0xC3E0_0000_0000_0000),
        (-1i64 as u64, 0xBFF0_0000_0000_0000),
    ];
    for (k, (n, _)) in scvtf.iter().enumerate() {
        a.mov_imm64(1, *n);
        a.push(asm::scvtf(0, 1));
        a.push(asm::fmov_to_gpr(2 + k as u32, 0));
    }
    // ASRV into x6..x9: the shift amount is taken mod 64.
    let asrv = [
        (0, 0x8000_0000_0000_0000),
        (63, u64::MAX),
        (64, 0x8000_0000_0000_0000),
        (65, 0xC000_0000_0000_0000),
    ];
    a.mov_imm64(20, 0x8000_0000_0000_0000);
    for (k, (by, _)) in asrv.iter().enumerate() {
        a.mov_imm64(1, *by);
        a.push(asm::asrv(6 + k as u32, 20, 1));
    }
    // STRH writes bytes 6..8 and 10..12 of two preloaded words, which are
    // read back into x10 and x11.
    a.mov_imm64(1, DATA_WINDOW.0);
    a.mov_imm64(21, 0xFFFF_FFFF_FFFF_ABCD);
    a.push(asm::strh(21, 1, 6));
    a.push(asm::strh(21, 1, 10));
    a.push(asm::ldr(10, 1, 0));
    a.push(asm::ldr(11, 1, 8));
    a.push(asm::hlt());
    let g = Guest {
        words: vec![
            (DATA_WINDOW.0, 0x1122_3344_5566_7788),
            (DATA_WINDOW.0 + 8, 0x99AA_BBCC_DDEE_FF00),
        ],
        ..Guest::program("scvtf_asrv_strh", a.finish())
    };
    let runs = assert_agree(&g, &fp_engines());
    let regs = &runs[0].1.regs;
    for (k, (n, bits)) in scvtf.into_iter().enumerate() {
        assert_eq!(regs[2 + k], bits, "scvtf {}", n as i64);
    }
    for (k, (by, want)) in asrv.into_iter().enumerate() {
        assert_eq!(regs[6 + k], want, "asrv by {by}");
    }
    assert_eq!(regs[10], 0xABCD_3344_5566_7788);
    assert_eq!(regs[11], 0x99AA_BBCC_ABCD_FF00);
}

#[test]
fn multiply_high_halves_are_the_wide_products_on_every_engine() {
    // `umulh` and `smulh` of every pair of edge operands: the high halves
    // of the 128-bit products, unsigned and signed, which differ wherever
    // an operand has its top bit set.
    let edges = [
        i64::MIN as u64,
        -1i64 as u64,
        i64::MAX as u64,
        0,
        1,
        u64::MAX,
    ];
    for a in edges {
        let mut p = Assembler::new();
        p.mov_imm64(0, a);
        for (k, b) in edges.into_iter().enumerate() {
            let k = k as u32;
            p.mov_imm64(1, b);
            p.push(asm::umulh(2 + 2 * k, 0, 1));
            p.push(asm::smulh(3 + 2 * k, 0, 1));
        }
        p.push(asm::hlt());
        let runs = assert_agree(&Guest::program("mulh", p.finish()), &["qemu", "default"]);
        let regs = &runs[0].1.regs;
        for (k, b) in edges.into_iter().enumerate() {
            let unsigned = ((a as u128 * b as u128) >> 64) as u64;
            let signed = ((a as i64 as i128 * b as i64 as i128) >> 64) as u64;
            assert_eq!(regs[2 + 2 * k], unsigned, "umulh {a:#x}, {b:#x}");
            assert_eq!(regs[3 + 2 * k], signed, "smulh {a:#x}, {b:#x}");
        }
    }
}

#[test]
fn an_svc_hands_its_whole_16_bit_immediate_to_the_handler_on_every_engine() {
    // ESR's ISS of a supervisor call is the instruction's 16-bit immediate:
    // the handler reads it back with every bit set.
    let mut a = Assembler::new();
    a.mov_imm64(9, 0x3000);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.push(asm::svc(0xFFFF));
    a.push(asm::hlt());
    let handler = vec![asm::mrs(10, SysReg::Esr as u32), asm::hlt()];
    let g = guest("svc", vec![(0x1000, a.finish()), (0x3000, handler)]);
    let runs = assert_agree(&g, &["qemu", "default"]);
    assert_eq!(runs[0].1.regs[10], esr_class::SVC << 26 | 0xFFFF, "ESR");
}

#[test]
fn chaining_on_and_off_are_architecturally_identical() {
    // The chained dispatcher must be invisible to the guest: every SimBench
    // micro (including the MMU-on and TLB-flushing ones) and a SPEC subset
    // produce the same outcome with chaining on, chaining off, and under the
    // QEMU-style baseline.
    let mut programs: Vec<Guest> = simbench::suite()
        .iter()
        .map(|b| (&bench::micro_workload(b)).into())
        .collect();
    programs.extend(
        workloads::spec_int(Scale(1))
            .iter()
            .take(2)
            .map(Guest::from),
    );
    for g in &programs {
        let runs = assert_agree(g, &["qemu", "default"]);
        let off = bench::run(g, captive(|c| c.chaining = false));
        assert_eq!(off.differs(&runs[0].1), None, "{}: chaining off", g.name);
    }
}

#[test]
fn chaining_speeds_up_a_dispatch_bound_loop() {
    // The acceptance bar for the chaining engine: a cache-hot loop runs in
    // measurably fewer simulated cycles with chaining, and the gap is the
    // counted chained transfers' saved dispatch cost — not a credit.
    let w = bench::micro_workload(&simbench::same_page_direct(10_000));
    let runs = assert_agree(&(&w).into(), &["chain-only", "nochain"]);
    let (on, off) = (&runs[0].1.stats, &runs[1].1.stats);
    assert!(on.chained_transfers > 20_000, "direct branches must chain");
    assert_eq!(off.chained_transfers, 0);
    assert!(
        on.cycles < off.cycles,
        "chaining on ({}) must beat chaining off ({})",
        on.cycles,
        off.cycles
    );
    let model = hvm::CostModel::default();
    assert_eq!(
        off.cycles - on.cycles,
        on.chained_transfers * (model.dispatch - model.chain),
        "the whole gap is accounted to chained transfers"
    );
}

#[test]
fn scaled_workloads_agree_across_all_engines() {
    // Architectural equivalence at scale factors beyond Scale(1): the
    // QEMU-style baseline, Captive with chaining alone, and Captive with
    // regions must all retire the same outcome.  Scale(4) exercises iteration counts high enough that every
    // hot loop crosses the region threshold many times over.
    for scale in [Scale(2), Scale(4)] {
        let suite = workloads::spec_int(scale);
        // 401.bzip2 (streaming) and 429.mcf (pointer chasing)
        for w in [&suite[1], &suite[3]] {
            let g = Guest {
                name: format!("{}@x{}", w.name, scale.0),
                ..w.into()
            };
            let runs = assert_agree(&g, &["chain-only", "default", "qemu"]);
            assert!(
                runs[1].1.stats.cycles <= runs[0].1.stats.cycles,
                "{}: regions may not cost cycles",
                g.name
            );
        }
    }
}

#[test]
fn regions_cut_interpreter_entries_on_dispatch_bound_loop() {
    // The acceptance bar for the region former: on the dispatch-bound
    // hot loop, regions execute measurably fewer interpreter entries
    // (tracked by the region_transfers counter) at no cycle cost over
    // chaining alone, and the baseline chains the same-page loop too.
    let w = bench::micro_workload(&simbench::same_page_direct(10_000));
    let runs = assert_agree(&(&w).into(), &["chain-only", "sync", "qemu"]);
    let [chain, sb, q] = [0, 1, 2].map(|i| &runs[i].1.stats);
    assert!(sb.regions_formed >= 1);
    assert!(
        sb.region_transfers > 10_000,
        "stitched transfers must carry the loop: {}",
        sb.region_transfers
    );
    assert!(
        sb.blocks + sb.region_transfers + sb.backedge_transfers >= chain.blocks,
        "stitched and back-edge transfers account for the missing \
         interpreter entries: {} + {} + {} vs {}",
        sb.blocks,
        sb.region_transfers,
        sb.backedge_transfers,
        chain.blocks
    );
    assert!(
        sb.blocks < chain.blocks / 2,
        "interpreter entries must drop: {} vs {}",
        sb.blocks,
        chain.blocks
    );
    assert!(
        sb.loop_regions_formed >= 1 && sb.backedge_transfers > 1_000,
        "the hot loop must close as a looping region and trip internally: \
         formed {}, backedges {}",
        sb.loop_regions_formed,
        sb.backedge_transfers
    );
    assert!(
        sb.cycles <= chain.cycles,
        "regions must not regress cycles: {} vs {}",
        sb.cycles,
        chain.cycles
    );
    assert!(q.chained_transfers > 10_000, "qemu chains within the page");
}

#[test]
fn optimizer_on_off_and_baseline_agree_on_flag_heavy_kernels() {
    // The LIR optimizer must be architecturally invisible: the flag-heavy
    // SPEC kernels (data-dependent branches over NZCV) retire the same
    // register file *and* flags with the optimizer on, off, and under the
    // QEMU-style baseline.
    for w in workloads::spec_int(Scale(1)).into_iter().take(8) {
        let runs = assert_agree(&(&w).into(), &["qemu", "default", "noopt"]);
        assert!(
            runs[1].1.stats.cycles <= runs[2].1.stats.cycles,
            "{}: optimizer may not cost cycles",
            w.name
        );
    }
}

#[test]
fn optimizer_preserves_region_side_exit_state() {
    // Flag-heavy two-block loop whose conditional leg gets stitched: the
    // side-exit stub must still deliver an exact register file with the
    // optimizer eliminating stores around it.
    let mut a = Assembler::new();
    a.push(asm::movz(1, 500, 0));
    a.push(asm::movz(9, 0, 0));
    a.push(asm::movz(2, 1, 0));
    a.label("loop");
    a.push(asm::adds(9, 9, 2)); // flag-setting; NZCV dead (overwritten below)
    a.push(asm::subis(1, 1, 1)); // flag-setting; NZCV read by the branch
    a.bcond_to(Cond::Eq, "done"); // cold leg → side exit
    a.b_to("loop");
    a.label("done");
    a.push(asm::hlt());
    let runs = assert_agree(
        &Guest::program("side-exit", a.finish()),
        &["default", "noopt"],
    );
    let (on, off) = (&runs[0].1, &runs[1].1.stats);
    assert_eq!(on.regs[9], 500);
    assert_eq!(on.regs[1], 0);
    assert!(
        on.stats.regions_formed >= 1,
        "the loop must get hot enough to stitch"
    );
    assert!(
        on.stats.jit.opt_dead_stores >= 1,
        "the adds NZCV store is dead and must be eliminated"
    );
    assert!(on.stats.cycles <= off.cycles);
}

/// A striding store loop from 16 MiB with a 64 KiB stride — 256 iterations
/// to the end of guest RAM — and a handler at 0x2000 that reads ELR and FAR
/// into x10 / x11 (and whatever `handler_tail` adds) and halts.  `loop_body`
/// closes the loop after the store and the stride; returns the guest and
/// the faulting store's PC.
fn striding_store_fault(
    name: &str,
    loop_body: impl FnOnce(&mut Assembler),
    handler_tail: &[u32],
) -> (Guest, u64) {
    let mut a = Assembler::new();
    a.mov_imm64(9, 0x2000);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.mov_imm64(1, 0x100_0000); // 16 MiB
    a.mov_imm64(2, 0xBEEF); // invariant store value (hoisted)
    a.mov_imm64(3, 0x1_0000); // invariant stride (hoisted)
    a.label("loop");
    let fault_pc = 0x1000 + a.here() as u64 * 4;
    a.push(asm::str(2, 1, 0));
    a.push(asm::add(1, 1, 3));
    loop_body(&mut a);
    let mut handler = vec![
        asm::mrs(10, SysReg::Elr as u32),
        asm::mrs(11, SysReg::Far as u32),
    ];
    handler.extend(handler_tail);
    handler.push(asm::hlt());
    let g = guest(name, vec![(0x1000, a.finish()), (0x2000, handler)]);
    (g, fault_pc)
}

#[test]
fn unrolled_region_fault_mid_iteration_delivers_exact_elr() {
    // A single-block self-loop (store, stride, unconditional loop-back)
    // marches out of guest RAM: the fault lands *inside* an unrolled region
    // — possibly in a peeled iteration past a trace edge — and must still
    // deliver the exact faulting PC into ELR and the first OOB address into
    // FAR.
    let (g, fault_pc) = striding_store_fault(
        "self-loop",
        |a| {
            a.b_to("loop");
        },
        &[],
    );
    let c = bench::run(&g, "default");
    assert_eq!(c.regs[10], fault_pc, "ELR is the faulting PC");
    assert_eq!(c.regs[11], 0x200_0000, "FAR is the first OOB address");
    assert!(
        c.stats.regions_unrolled >= 1,
        "the self-loop must have unrolled before faulting"
    );
    assert!(
        c.stats.region_transfers > 100,
        "peeled iterations were executed"
    );
}

#[test]
fn smc_on_the_looping_page_retires_the_unrolled_region() {
    // A callable self-loop kernel gets hot enough to unroll; the guest then
    // rewrites the kernel's first instruction and re-runs it.  The write
    // must retire the unrolled region (and every plain region on the page),
    // and the second phase must execute the new code — identically with
    // unrolling on and off.
    let mut main = Assembler::new();
    main.push(asm::movz(6, 2, 0)); // two phases
    main.mov_imm64(3, 0x2000); // kernel address
    main.mov_imm64(4, asm::movz(7, 2, 0) as u64); // patched first insn
    main.label("phase");
    main.push(asm::movz(5, 300, 0));
    let bl_idx = main.here();
    main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
    main.push(asm::strw(4, 3, 0)); // SMC: rewrite `movz x7, #1`
    main.push(asm::subi(6, 6, 1));
    main.cbnz_to(6, "phase");
    main.push(asm::hlt());

    let mut kern = Assembler::new();
    kern.push(asm::movz(7, 1, 0)); // patched to `movz x7, #2`
    kern.label("loop");
    kern.push(asm::addi(9, 9, 1));
    kern.push(asm::subi(5, 5, 1));
    kern.cbnz_to(5, "loop");
    kern.push(asm::ret());
    let g = guest(
        "smc-unroll",
        vec![(0x1000, main.finish()), (0x2000, kern.finish())],
    );

    let mut c = Captive::new(CaptiveConfig::default());
    let on = bench::drive(&g, &mut c);
    let off = bench::run(&g, captive(|c| c.unroll_loops = 1));
    assert_eq!(on.differs(&off), None, "unrolled against not unrolled");
    assert_eq!(on.regs[7], 2, "phase 2 must run the rewritten kernel");
    assert_eq!(on.regs[9], 600, "both phases looped fully");
    assert!(
        on.stats.regions_unrolled >= 1,
        "phase 1 must unroll the kernel loop"
    );
    assert!(
        c.cache.stats().invalidated_page >= 1,
        "the code-page write must invalidate the looping page"
    );
}

/// The loop that patches an instruction of itself from inside: `ITERS` trips
/// of `x9 += x7` (x7 set by `movz x7, #1` at the loop head) split across two
/// blocks, whose store hits the loop's own code page — turning the head into
/// `movz x7, #2` — on the trip the countdown x1 reaches `PATCH_AT`, and
/// plain data on every other trip.
const ITERS: u64 = 120;
const PATCH_AT: u64 = 20;

fn self_patching_loop() -> Guest {
    let mut a = Assembler::new();
    a.push(asm::movz(1, ITERS as u32, 0)); // countdown (dirty carrier)
    a.push(asm::movz(9, 0, 0)); // accumulator (dirty carrier)
    a.push(asm::movz(8, PATCH_AT as u32, 0));
    a.mov_imm64(10, 0x8000); // scratch store target (plain data)
    a.mov_imm64(4, asm::movz(7, 2, 0) as u64); // the patched word
    let target_ref = a.here();
    a.mov_imm64(3, 0); // placeholder: patch-target address (fixed below)
    a.label("loop");
    let patch_idx = a.here();
    a.push(asm::movz(7, 1, 0)); // <- patch target: becomes `movz x7, #2`
    a.push(asm::add(9, 9, 7));
    a.b_to("cont"); // split the body: the loop is multi-block
    a.label("cont");
    a.push(asm::cmp(1, 8));
    a.push(asm::csel(5, 3, 10, Cond::Eq));
    a.push(asm::strw(4, 5, 0)); // hits the code page only on the patch trip
    a.push(asm::subi(1, 1, 1));
    a.cbnz_to(1, "loop");
    a.push(asm::hlt());
    let mut words = a.finish();
    // Fix up the placeholder mov_imm64 to carry the patch target's address.
    let mut fixup = Assembler::new();
    fixup.mov_imm64(3, 0x1000 + patch_idx as u64 * 4);
    for (i, w) in fixup.finish().into_iter().enumerate() {
        words[target_ref + i] = w;
    }
    Guest::program("self-patching loop", words)
}

/// What `x9` ends at: trips with the countdown at `ITERS..=PATCH_AT` ran the
/// original `movz x7,#1` (the patch lands mid-trip at `PATCH_AT`, after that
/// trip's add); `PATCH_AT - 1..=1` must run the rewritten `movz x7,#2`.
const PATCHED_SUM: u64 = (ITERS - PATCH_AT + 1) + 2 * (PATCH_AT - 1);

#[test]
fn smc_on_a_loop_page_mid_iteration_takes_effect_next_iteration() {
    // The guest patches an instruction of its own running loop from *inside*
    // the looping region: on the patch iteration the store hits the loop's
    // code page, and the back-edge's pending-event poll must turn the
    // loop-back into a dispatcher exit — so the stale translation executes
    // for at most the remainder of the current iteration, and the very next
    // iteration runs the rewritten code.  unroll_loops=1 closes the
    // back-edge after a single body copy, making the staleness bound exactly
    // one iteration and the final accumulator value deterministic.
    let mut c = Captive::new(captive(|c| c.unroll_loops = 1));
    let run = bench::drive(&self_patching_loop(), &mut c);
    assert_eq!(
        run.regs[9], PATCHED_SUM,
        "the patched loop body must take effect on the iteration after the \
         write — no unbounded stale execution inside the looping region"
    );
    assert!(
        run.stats.loop_regions_formed >= 1,
        "the loop must have closed as a looping region before the patch"
    );
    assert!(
        run.stats.backedge_transfers > 5,
        "iterations tripped internally"
    );
    assert!(
        c.cache.stats().invalidated_page >= 1,
        "the code-page write invalidated the looping region"
    );
}

#[test]
fn fault_mid_looping_region_delivers_exact_elr() {
    // A two-block striding store loop closed as a looping region marches out
    // of guest RAM: the data abort lands inside an internal loop trip and
    // must still deliver the exact faulting PC into ELR (the per-insn PC
    // tracking plus the back-edge's folded PC update keep state precise at
    // every point of the loop).
    let two_blocks = |a: &mut Assembler| {
        a.b_to("m");
        a.label("m");
        a.b_to("loop");
    };
    let (g, fault_pc) = striding_store_fault("two-block loop", two_blocks, &[]);
    let c = bench::run(&g, "default");
    assert_eq!(c.regs[10], fault_pc, "ELR is the faulting PC");
    assert_eq!(c.regs[11], 0x200_0000, "FAR is the first OOB address");
    assert!(
        c.stats.loop_regions_formed >= 1,
        "the loop closed internally before faulting"
    );
    assert!(
        c.stats.backedge_transfers > 50,
        "iterations tripped inside the region (4 per trip at the default \
         unroll): {}",
        c.stats.backedge_transfers
    );
}

/// Bound on the random trip count of the looping-region properties: far
/// past [`REGION_THRESHOLD`], so most draws loop inside a formed region.
const MAX_TRIPS: u32 = 64 * REGION_THRESHOLD as u32;

/// The trip counts a looping-region property runs its kernel for: the 0- and
/// 1-trip edges, exactly [`REGION_THRESHOLD`] (formation at the last trips)
/// and the random draw.
fn trips_around_the_threshold(random_trips: u32) -> [u32; 4] {
    [0, 1, REGION_THRESHOLD as u32, random_trips]
}

/// The runs of `g` with a mechanism (`on`), without it (`off`) and on the
/// QEMU-style baseline, after asserting that both Captive runs agree with the
/// baseline.
fn on_off_and_baseline(g: &Guest, on: CaptiveConfig, off: CaptiveConfig) -> Run {
    let q = bench::run(g, "qemu");
    let (on, off) = (bench::run(g, on), bench::run(g, off));
    assert_eq!(on.differs(&off), None, "on against off");
    assert_eq!(on.differs(&q), None, "on against the baseline");
    on
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Looping regions are architecturally invisible on multi-block loop
    /// bodies with a nested conditional: for the trip counts of
    /// [`trips_around_the_threshold`], and unroll factors 1–4, the kernel
    /// retires an identical outcome with looping regions, with chaining
    /// alone (no region formation), and under the QEMU-style baseline.  Trip
    /// counts past the threshold form the region, so the nested side exits,
    /// the peeled copies and the loop-exit leg all get exercised.
    #[test]
    fn looping_regions_agree_across_engines_on_nested_bodies(
        random_trips in 2..MAX_TRIPS,
        unroll in 1usize..5,
        cond_idx in 0usize..4,
    ) {
        let conds = [Cond::Eq, Cond::Ne, Cond::Hi, Cond::Lt];
        for trips in trips_around_the_threshold(random_trips) {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0));
            a.push(asm::movz(9, 0, 0));
            a.push(asm::movz(2, 3, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::adds(9, 9, 2)); // flag-setting accumulate
            a.bcond_to(conds[cond_idx], "other"); // nested conditional
            a.push(asm::addi(9, 9, 1));
            a.b_to("join");
            a.label("other");
            a.push(asm::addi(9, 9, 2));
            a.label("join");
            a.push(asm::subis(1, 1, 1)); // flag-setting loop counter
            a.bcond_to(Cond::Ne, "loop");
            a.label("done");
            a.push(asm::hlt());
            let on = on_off_and_baseline(
                &Guest::program("nested", a.finish()),
                captive(|c| c.unroll_loops = unroll),
                captive(|c| {
                    c.form_regions = false;
                    c.unroll_loops = 1;
                }),
            );
            if trips > 4 * REGION_THRESHOLD as u32 {
                prop_assert!(
                    on.stats.loop_regions_formed >= 1,
                    "trip count {} past the threshold must close a loop",
                    trips
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unrolled self-loop regions are architecturally invisible: for the
    /// trip counts of [`trips_around_the_threshold`], and a random unroll
    /// factor 2–4, the self-loop kernel retires an identical outcome under
    /// Captive-with-unrolling, Captive-without, and the QEMU-style baseline.
    /// Trip counts past the threshold form the region, so side exits from
    /// every peel position get hit.
    #[test]
    fn unrolled_self_loops_agree_across_engines(
        random_trips in 2..MAX_TRIPS,
        unroll in 2usize..5,
    ) {
        for trips in trips_around_the_threshold(random_trips) {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0));
            a.push(asm::movz(9, 0, 0));
            a.push(asm::movz(2, 3, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::add(9, 9, 2));
            a.push(asm::subis(1, 1, 1)); // flag-setting loop counter
            a.bcond_to(Cond::Ne, "loop");
            a.label("done");
            a.push(asm::hlt());
            let on = on_off_and_baseline(
                &Guest::program("self-loop", a.finish()),
                captive(|c| c.unroll_loops = unroll),
                captive(|c| c.unroll_loops = 1),
            );
            if trips > 2 * REGION_THRESHOLD as u32 {
                prop_assert!(
                    on.stats.regions_unrolled >= 1,
                    "trip count {} past the threshold must unroll",
                    trips
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Loop-carried register promotion is architecturally invisible: a
    /// memory-marching kernel whose loop carries a dirty index and
    /// accumulator past a loop-invariant base and mask — the exact shape
    /// promotion and hoisting feed on — retires an identical outcome with
    /// promotion on, promotion off, and under the QEMU-style baseline, for
    /// the trip counts of [`trips_around_the_threshold`] crossed with unroll
    /// factors 1–4.
    #[test]
    fn promoted_loops_agree_across_engines(
        random_trips in 2..MAX_TRIPS,
        unroll in 1usize..5,
    ) {
        for trips in trips_around_the_threshold(random_trips) {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0)); // countdown (dirty carrier)
            a.push(asm::movz(9, 0, 0)); // accumulator (dirty carrier)
            a.mov_imm64(2, 0x10_0000); // data base (invariant, hoisted)
            a.push(asm::movz(3, 0, 0)); // index (dirty carrier)
            a.push(asm::movz(4, 7, 0)); // mask (invariant, hoisted)
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::lsli(5, 3, 3));
            a.push(asm::add(5, 5, 2));
            a.push(asm::str(3, 5, 0)); // arr[i] = i (may-fault store in span)
            a.push(asm::ldr(6, 5, 0));
            a.push(asm::ands(7, 3, 4)); // flag-setting guard
            a.bcond_to(Cond::Eq, "skip");
            a.push(asm::addi(6, 6, 1));
            a.label("skip");
            a.push(asm::add(9, 9, 6));
            a.push(asm::addi(3, 3, 1));
            a.push(asm::subis(1, 1, 1)); // flag-setting loop counter
            a.bcond_to(Cond::Ne, "loop");
            a.label("done");
            a.push(asm::hlt());
            let on = on_off_and_baseline(
                &Guest::program("promoted", a.finish()),
                captive(|c| c.unroll_loops = unroll),
                captive(|c| {
                    c.promote = false;
                    c.unroll_loops = unroll;
                }),
            );
            if trips > 4 * REGION_THRESHOLD as u32 {
                prop_assert!(
                    on.stats.loop_regions_formed >= 1,
                    "trip count {} past the threshold must close a loop",
                    trips
                );
                prop_assert!(
                    on.stats.jit.opt_promoted_slots >= 1,
                    "the dirty index/accumulator slots must promote \
                     (trips {}, unroll {})",
                    trips,
                    unroll
                );
            }
        }
    }
}

#[test]
fn fault_mid_promoted_loop_reconciles_exact_state() {
    // The two-block striding-store loop from above, with promotion left on:
    // the marching address x1 is a *dirty promoted carrier* (loaded and
    // stored every iteration), so when the store finally walks off the end
    // of guest RAM the fault-time materialization path — not a regfile
    // store in the loop body — must surface its exact architectural value.
    // The vector handler reads ELR, FAR *and* x1 itself; a promote-off run
    // must be identical, proving promotion never leaks into fault delivery.
    let two_blocks = |a: &mut Assembler| {
        a.b_to("m");
        a.label("m");
        a.b_to("loop");
    };
    // Capture the promoted slot's value at the fault.
    let (g, fault_pc) = striding_store_fault("promoted fault", two_blocks, &[asm::orr(12, 1, 1)]);
    let runs = assert_agree(&g, &["default", "nopromote"]);
    let on = &runs[0].1;
    assert_eq!(on.regs[10], fault_pc, "ELR is the faulting PC");
    assert_eq!(on.regs[11], 0x200_0000, "FAR is the first OOB address");
    assert_eq!(
        on.regs[12], 0x200_0000,
        "the dirty promoted address slot must read its exact value at fault"
    );
    let s = &on.stats;
    assert!(
        s.jit.opt_promoted_slots >= 1,
        "the marching address must have promoted"
    );
    assert!(
        s.jit.opt_hoisted_loads >= 1,
        "the invariant value/stride loads must have hoisted"
    );
    assert!(s.backedge_transfers > 50, "iterations tripped in-region");
}

#[test]
fn fault_on_a_written_through_carrier_load_matches_the_baseline() {
    // A promoted pointer chase, `x1 = [x1]; x2 += x1; x3 -= 1`, MMU on: all
    // three slots are dirty carriers and carrier write-through computes
    // straight into them — the chase load is `C1 = load [C1]` with no copy
    // left.  The ring is `NODES` nodes on one page and one on a second; the
    // program chases two full rounds, unmaps the second page (leaf PTE
    // write + `tlbi`) and chases again, so `NODES` trips later the load
    // faults inside the re-formed region.  The data-abort handler copies
    // x1–x3 out: they are materialised from the written-through host
    // registers and must equal what the QEMU-style baseline — which keeps
    // every guest register in memory — shows its handler.
    use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
    const NODES: u64 = 400;
    const RING: u64 = 0x20_0000;
    const FAR_NODE: u64 = RING + 0x1000 + 0x40;
    const PT_POOL: u64 = 0x80_0000;
    const TRIPS: u32 = 2 * (NODES as u32 + 1);

    let mut data: Vec<(u64, u64)> = (0..NODES)
        .map(|i| (RING + i * 8, RING + (i + 1) * 8))
        .collect();
    data[NODES as usize - 1].1 = FAR_NODE;
    data.push((FAR_NODE, RING));

    let mut tables = GuestTableImage::new(PT_POOL, PT_POOL + 0x10_0000);
    for page in [0x1000, 0x2000, RING, RING + 0x1000] {
        tables.identity(page, 0x1000, GuestPageFlags::kernel_rw());
    }
    tables.identity(PT_POOL, 0x8000, GuestPageFlags::kernel_rw());
    let far_pte = tables.entry_addr(FAR_NODE, 1);
    assert!(
        far_pte < PT_POOL + 0x8000,
        "the guest can reach its own PTE"
    );
    data.extend(tables.words());

    let mut a = Assembler::new();
    a.mov_imm64(9, 0x2000);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.mov_imm64(0, PT_POOL);
    a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
    a.push(asm::movz(0, 1, 0));
    a.push(asm::msr(SysReg::Sctlr as u32, 0));
    a.push(asm::movz(2, 0, 0));
    a.push(asm::movz(20, 2, 0));
    a.label("phase");
    a.mov_imm64(1, RING);
    a.push(asm::movz(3, TRIPS, 0));
    a.label("loop");
    let fault_idx = a.here();
    a.push(asm::ldr(1, 1, 0));
    a.push(asm::add(2, 2, 1));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::subi(20, 20, 1));
    a.cbz_to(20, "done");
    a.mov_imm64(5, far_pte);
    a.push(asm::movz(6, 0, 0));
    a.push(asm::str(6, 5, 0));
    a.push(asm::tlbi());
    a.b_to("phase");
    a.label("done");
    a.push(asm::hlt());
    let main = a.finish();
    let fault_pc = 0x1000 + fault_idx as u64 * 4;

    let mut v = Assembler::new();
    v.push(asm::mrs(10, SysReg::Elr as u32));
    v.push(asm::mrs(11, SysReg::Far as u32));
    v.push(asm::orr(12, 1, 1));
    v.push(asm::orr(13, 2, 2));
    v.push(asm::orr(14, 3, 3));
    v.push(asm::hlt());
    let handler = v.finish();

    let g = Guest {
        words: data,
        ..guest("chase", vec![(0x1000, main), (0x2000, handler)])
    };
    let q = bench::run(&g, "qemu");
    let c = bench::run(&g, captive(|c| c.unroll_loops = 1));
    assert_eq!(c.differs(&q), None, "against the baseline");
    assert_eq!(c.regs[10], fault_pc, "ELR is the chase load");
    assert_eq!(c.regs[11], FAR_NODE, "FAR is the unmapped node");
    assert_eq!(
        c.regs[12], FAR_NODE,
        "the faulting load must not have written its carrier"
    );
    assert_eq!(
        c.regs[14],
        (TRIPS as u64) - NODES,
        "trips left at the fault"
    );
    let s = &c.stats;
    assert!(s.jit.opt_promoted_slots >= 3, "x1, x2 and x3 promote");
    assert!(
        s.backedge_transfers > TRIPS as u64,
        "the second chase ran inside a region again: {} back-edge transfers",
        s.backedge_transfers
    );
}

#[test]
fn smc_mid_promoted_loop_reconciles_carriers() {
    // The mid-iteration self-patch kernel, promote on vs off: the patch
    // store hits the loop's own code page from *inside* the looping region,
    // the back-edge poll yields, and the reconcile compensation block must
    // write every dirty carrier (countdown x1, accumulator x9, patched-in
    // x7) back to the regfile before the dispatcher retranslates — any
    // stale carrier shows up as a wrong final accumulator.
    let g = self_patching_loop();
    let mut c = Captive::new(captive(|c| c.unroll_loops = 1));
    let on = bench::drive(&g, &mut c);
    let off = bench::run(
        &g,
        captive(|c| {
            c.promote = false;
            c.unroll_loops = 1;
        }),
    );
    assert_eq!(on.differs(&off), None, "promotion on against off");
    assert_eq!(
        on.regs[9], PATCHED_SUM,
        "carriers must reconcile at the SMC yield: the patched body takes \
         effect exactly one iteration after the write"
    );
    assert!(
        on.stats.jit.opt_promoted_slots >= 1,
        "the countdown/accumulator must have promoted"
    );
    assert!(
        c.cache.stats().invalidated_page >= 1,
        "the code-page write invalidated the looping region"
    );
}

#[test]
fn simbench_programs_terminate_on_both_systems() {
    for b in simbench::suite() {
        let runs = assert_agree(&(&bench::micro_workload(&b)).into(), &["default", "qemu"]);
        assert!(runs.iter().all(|(_, r)| r.stats.cycles > 0), "{}", b.name);
    }
}

#[test]
fn captive_wins_where_the_paper_says_it_should() {
    // Memory-system micro-benchmarks: Captive's host-MMU path wins big.
    let hot = (&bench::micro_workload(&simbench::mem_hot(20_000))).into();
    let runs = assert_agree(&hot, &["default", "qemu"]);
    let speedup = runs[1].1.stats.cycles as f64 / runs[0].1.stats.cycles as f64;
    assert!(speedup > 2.0, "Mem-Hot speedup {speedup}");

    // Translation-speed micro-benchmarks: the paper reports Captive 65–85 %
    // slower on Small/Large-Blocks, where translation work dominates.
    // Simulated cycles do not price the JIT yet (ROADMAP item 10), so that
    // loss cannot show: `figures -- fig19` prints Captive ahead on both
    // (Small-Blocks 1.04×, Large-Blocks 3.70×).  All that is asserted here
    // is that every one of Small-Blocks' 800 blocks is translated.
    let blocks = (&bench::micro_workload(&simbench::small_blocks(800))).into();
    assert!(
        bench::run(&blocks, "default").stats.translations >= 800,
        "every block translated once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random straight-line integer programs produce an identical outcome
    /// under Captive and the QEMU-style baseline.
    #[test]
    fn random_programs_agree(ops in proptest::collection::vec((0u8..7, 0u32..8, 0u32..8, 0u32..8, 0u32..4096), 1..40)) {
        let mut a = Assembler::new();
        // Seed registers deterministically.
        for r in 0..8u32 {
            a.mov_imm64(r, 0x1111_1111u64.wrapping_mul(r as u64 + 1));
        }
        for (kind, rd, rn, rm, imm) in ops {
            let w = match kind {
                0 => asm::add(rd, rn, rm),
                1 => asm::sub(rd, rn, rm),
                2 => asm::and(rd, rn, rm),
                3 => asm::orr(rd, rn, rm),
                4 => asm::eor(rd, rn, rm),
                5 => asm::addi(rd, rn, imm),
                _ => asm::mul(rd, rn, rm),
            };
            a.push(w);
        }
        a.push(asm::hlt());
        assert_agree(&Guest::program("random", a.finish()), &["qemu", "default"]);
    }

    /// Random ALU/flag/branch sequences retire an identical outcome (flags
    /// included) with the LIR optimizer on and off.  Conditional branches
    /// always skip exactly one instruction forward, so every program
    /// terminates; the mix of flag-setting ALU ops, compares, conditional
    /// selects and branches exercises dead-flag elimination, NZCV forwarding
    /// and the iterative DCE sweep.
    #[test]
    fn random_flag_programs_agree_with_optimizer_on_and_off(
        ops in proptest::collection::vec((0u8..8, 0u32..8, 0u32..8, 0u32..8, 0u8..4), 1..60)
    ) {
        let conds = [Cond::Eq, Cond::Ne, Cond::Hi, Cond::Lt];
        let mut a = Assembler::new();
        for r in 0..8u32 {
            a.mov_imm64(r, 0x0123_4567_89AB_CDEFu64.wrapping_mul(r as u64 + 3));
        }
        for (kind, rd, rn, rm, c) in ops {
            let cond = conds[c as usize];
            let w = match kind {
                0 => asm::adds(rd, rn, rm),
                1 => asm::subs(rd, rn, rm),
                2 => asm::ands(rd, rn, rm),
                3 => asm::cmp(rn, rm),
                4 => asm::csel(rd, rn, rm, cond),
                5 => asm::add(rd, rn, rm),
                6 => asm::eor(rd, rn, rm),
                // Forward conditional branch over exactly one instruction:
                // both legs rejoin, so termination is structural.
                _ => asm::bcond(cond, 8),
            };
            a.push(w);
        }
        // Two HLTs: a trailing branch may skip the first one.
        a.push(asm::hlt());
        a.push(asm::hlt());
        assert_agree(&Guest::program("random flags", a.finish()), &["default", "noopt"]);
    }
}

/// What IRQ pressure may not do to Captive, on either event-source kernel:
/// stop it forming and tripping its translation units, or push a trace into
/// quarantine.
fn assert_regions_survive_irq_pressure(name: &str, cs: &bench::RunStats) {
    assert!(
        cs.regions_formed + cs.loop_regions_formed > 0,
        "{name}: no region formed under IRQ pressure"
    );
    assert!(
        cs.backedge_transfers + cs.region_transfers > 0,
        "{name}: regions formed but never tripped"
    );
    assert_eq!(
        cs.regions_quarantined, 0,
        "{name}: IRQ preemption must not quarantine traces"
    );
}

/// The interrupt storm must deliver its exact IRQ count on every engine —
/// Captive preempting hot looping regions at back-edge boundaries, the
/// baseline at block boundaries — and leave identical architectural state.
#[test]
fn interrupt_storm_agrees_across_engines_and_preempts_regions() {
    for (irqs, period) in [(25, 3_000), (40, 2_500)] {
        let w = workloads::interrupt_storm(irqs, period);
        let irqs = u64::from(irqs);
        let runs = assert_agree(&(&w).into(), &["qemu", "default"]);
        let c = &runs[1].1;
        assert_eq!(c.regs[20], irqs, "handler counted every delivery");
        assert_eq!(c.stats.irqs_delivered, irqs);
        assert_eq!(
            c.stats.timer_irqs, irqs,
            "all storm IRQs come from the timer"
        );
        // The spin loop is hot enough to become a region all the same.
        assert_regions_survive_irq_pressure(w.name, &c.stats);
    }
}

/// A trace head whose formation forms nothing is tried once and then
/// quarantined, however hot its link gets again.  The loop `addi x1, x1, 1;
/// b head` chains into `head: b #0x1FF_FFFC`, the furthest forward `b`,
/// past the 32 MiB of RAM: every trip takes an instruction abort, so the
/// trace from `head` closes at one block.  The handler counts entries, runs
/// `tlbi` every 32nd one (which re-links the chain, so its link heat climbs
/// to the formation threshold again), returns to the loop and halts after
/// 100 entries.  The threshold is reached in three of the four windows; only
/// the first may try to form.
#[test]
fn a_head_whose_formation_fails_is_formed_once() {
    const VBAR: u64 = 0x3000;
    const ENTRIES: u32 = 100;
    let mut a = Assembler::new();
    a.mov_imm64(9, VBAR);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    let loop_pc = 0x1000 + 4 * a.here() as u64;
    a.push(asm::addi(1, 1, 1));
    a.b_to("head");
    a.label("head");
    a.push(asm::b(0x1FF_FFFC));
    let main = a.finish();

    let mut v = Assembler::new();
    v.push(asm::addi(20, 20, 1));
    v.push(asm::cmpi(20, ENTRIES));
    v.bcond_to(Cond::Eq, "done");
    // x20 % 32 == 0: every 32nd entry re-links the chain.
    v.push(asm::lsli(21, 20, 59));
    v.cbnz_to(21, "back");
    v.push(asm::tlbi());
    v.label("back");
    v.mov_imm64(9, loop_pc);
    v.push(asm::msr(SysReg::Elr as u32, 9));
    v.push(asm::eret());
    v.label("done");
    v.push(asm::hlt());
    let handler = v.finish();

    let g = guest("failed head", vec![(0x1000, main), (VBAR, handler)]);
    let runs = assert_agree(&g, &["qemu", "default", "sync"]);
    let q = &runs[0].1;
    assert_eq!(q.regs[20], u64::from(ENTRIES), "handler entries");
    assert_eq!(q.regs[1], u64::from(ENTRIES), "loop trips");
    for name in ["default", "sync"] {
        let s = &by_name(&runs, name).stats;
        assert_eq!(s.regions_quarantined, 1, "{name}: one attempt, once");
    }
}

/// A one-shot timer tick must preempt the countdown loop at a precise PC:
/// the handler's captured ELR is exactly the loop header, even when the
/// loop is running inside a closed looping region.
#[test]
fn timer_tick_preempts_a_hot_loop_at_a_precise_pc() {
    let w = workloads::timer_tick(20_000, 200_000);
    let runs = assert_agree(&(&w).into(), &["qemu", "default"]);
    let c = &runs[1].1;
    assert_eq!(c.regs[20], 1, "exactly one tick");
    assert_eq!(
        c.regs[10],
        workloads::timer_tick_loop_va(20_000, 200_000),
        "ELR must be the loop header, not some mid-region PC"
    );
    assert_eq!(c.regs[1], 0, "the countdown still ran to completion");
    let cs = &c.stats;
    assert!(
        cs.loop_regions_formed > 0,
        "the countdown loop should close as a looping region"
    );
    assert_eq!((cs.timer_irqs, cs.irqs_delivered), (1, 1));
    assert_regions_survive_irq_pressure(w.name, cs);
}

/// With the code cache bounded far below the working set, eviction churn
/// must degrade performance only — every integer kernel still produces the
/// baseline's architectural results, and the bound demonstrably bites.
#[test]
fn bounded_cache_preserves_equivalence_on_all_integer_kernels() {
    let mut total_evictions = 0;
    for w in workloads::spec_int(Scale(1)) {
        let g = Guest::from(&w);
        let c = bench::run(&g, captive(|c| c.cache_capacity_regions = Some(3)));
        assert_eq!(c.differs(&bench::run(&g, "qemu")), None, "{}", w.name);
        assert!(
            c.stats.regions_live <= 3,
            "{}: occupancy {} exceeds the bound",
            w.name,
            c.stats.regions_live
        );
        total_evictions += c.stats.capacity_evictions;
    }
    assert!(
        total_evictions > 0,
        "a 3-region cache must evict somewhere across the integer suite"
    );
}

#[test]
fn a_branch_to_a_misaligned_pc_takes_a_pc_alignment_fault_on_every_engine() {
    // `br` to 0x1FFE, where the bytes straddling two aligned words decode to
    // `subi x1, x1, #1; cbnz x1, -4; hlt`.  Real AArch64 takes a PC-alignment
    // fault there.  Decoding those bytes instead made the loop hot, and the
    // tier workers then read a word past the end of a captured page and
    // panicked.  Every engine must fault before fetching (ESR class 0x22,
    // FAR = ELR = the target), and the tier workers must still be there for
    // the hot loop the handler runs afterwards.
    const TARGET: u64 = 0x1FFE;
    let straddled = [asm::subi(1, 1, 1), asm::cbnz(1, -4), asm::hlt()];
    // Aligned words whose byte stream, read from TARGET, is `straddled`.
    let mut bytes = vec![0u8, 0];
    bytes.extend(straddled.iter().flat_map(|w| w.to_le_bytes()));
    bytes.extend([0, 0]);
    let aligned: Vec<u32> = bytes
        .chunks(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();

    let mut a = Assembler::new();
    a.mov_imm64(9, 0x3000);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.push(asm::movz(1, 5_000, 0));
    a.mov_imm64(2, TARGET);
    a.push(asm::br(2));
    let main = a.finish();

    let mut v = Assembler::new();
    v.push(asm::mrs(10, SysReg::Esr as u32));
    v.push(asm::mrs(11, SysReg::Far as u32));
    v.push(asm::mrs(12, SysReg::Elr as u32));
    v.push(asm::movz(3, 20_000, 0));
    v.label("hot");
    v.push(asm::add(4, 4, 3));
    v.push(asm::subi(3, 3, 1));
    v.cbnz_to(3, "hot");
    v.push(asm::hlt());
    let handler = v.finish();

    let code = vec![(0x1000, main), (TARGET & !3, aligned), (0x3000, handler)];
    let runs = assert_agree(&guest("misaligned", code), &EQUIVALENT);
    let q = &runs[0].1;
    assert_eq!(q.regs[10], esr_class::PC_ALIGN << 26, "ESR");
    assert_eq!((q.regs[11], q.regs[12]), (TARGET, TARGET), "FAR, ELR");
    assert_eq!(q.regs[1], 5_000, "the straddling loop never ran");
    assert_eq!(q.stats.guest_exceptions, 1, "one fault, delivered once");
    assert!(
        by_name(&runs, "default").stats.regions_installed_async >= 1,
        "the tier workers outlived the misaligned branch and formed the hot loop"
    );
}

#[test]
fn a_data_abort_after_a_split_in_an_unrolled_address_loop_matches_the_baseline() {
    // The `hot.addr` shape: two tables, a stride and a mask, seven values
    // carried around a 13-instruction body and four temporaries inside it,
    // so an unrolled region of it runs the GPR pool out and the allocator
    // splits ranges in its later copies.  Table 1 is cut off by the end of
    // guest RAM at half its entries, and table 0 is built so the second
    // lookup stays below the cut on every trip but trip `fault_trip`: that
    // load takes a data abort inside the region.  The handler sees every
    // register as the fault left it; ELR, FAR and the register file must be
    // what the QEMU-style baseline (every guest register in memory) shows,
    // and what a host mirror of the kernel computes.
    //
    // The region is entered at a fixed trip `e` (formation depends only on
    // what ran before), so trip `t` runs in copy `(t - e) % 4 + 1`: four
    // consecutive fault trips put the abort in every copy, the third
    // included.
    const ENTRIES: u64 = 1024;
    const MASK: u64 = ENTRIES - 1;
    const STRIDE: u64 = 293;
    const T0: u64 = 0x10_0000;
    let ram = bench::guest_ram();
    let cut = ENTRIES / 2;
    let t1 = ram - cut * 8;

    let mut a = Assembler::new();
    a.mov_imm64(11, 0x3000);
    a.push(asm::msr(SysReg::Vbar as u32, 11));
    a.mov_imm64(1, T0);
    a.mov_imm64(2, t1);
    a.mov_imm64(9, MASK);
    a.mov_imm64(10, STRIDE);
    a.mov_imm64(3, 100_000);
    a.push(asm::movz(8, 0, 0));
    a.push(asm::movz(19, 0, 0));
    a.label("loop");
    a.push(asm::add(8, 8, 10));
    a.push(asm::and(4, 8, 9));
    a.push(asm::lsli(5, 4, 3));
    a.push(asm::add(6, 1, 5));
    a.push(asm::ldr(7, 6, 0));
    a.push(asm::add(19, 19, 7));
    a.push(asm::eor(4, 4, 7));
    a.push(asm::and(4, 4, 9));
    a.push(asm::lsli(5, 4, 3));
    let fault_pc = 0x1000 + a.here() as u64 * 4;
    a.push(asm::ldr_reg(7, 2, 5));
    a.push(asm::add(19, 19, 7));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());
    let handler = vec![
        asm::mrs(20, SysReg::Elr as u32),
        asm::mrs(21, SysReg::Far as u32),
        asm::mrs(22, SysReg::Esr as u32),
        asm::hlt(),
    ];
    let code = vec![(0x1000, a.finish()), (0x3000, handler)];

    for fault_trip in 700..704u64 {
        // Entry i0 of table 0 keeps bit 9 of `i0 ^ t0[i0]` clear (below the
        // cut) except at the fault trip's index; the stride is odd, so no
        // earlier trip (there are fewer than 1 024) reads that entry.
        let i0_at = |trip: u64| (trip * STRIDE) & MASK;
        let mut data = Vec::new();
        for i0 in 0..ENTRIES {
            let noise = i0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) >> 4;
            let below = (noise & !0x200) | (i0 & 0x200);
            let v0 = if i0 == i0_at(fault_trip) {
                below ^ 0x200
            } else {
                below
            };
            data.push((T0 + i0 * 8, v0));
        }
        for i in 0..cut {
            data.push((t1 + i * 8, i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 5));
        }
        // Host mirror up to the faulting load.
        let (mut sum, mut far) = (0u64, 0);
        for trip in 1..=fault_trip {
            let i0 = i0_at(trip);
            let v0 = data[i0 as usize].1;
            sum = sum.wrapping_add(v0);
            let i1 = (i0 ^ v0) & MASK;
            if trip == fault_trip {
                assert!(i1 >= cut);
                far = t1 + i1 * 8;
            } else {
                assert!(i1 < cut);
                sum = sum.wrapping_add(data[(ENTRIES + i1) as usize].1);
            }
        }

        let g = Guest {
            words: data,
            ..guest(&format!("fault on trip {fault_trip}"), code.clone())
        };
        let runs = assert_agree(&g, &EQUIVALENT);
        let q = &runs[0].1;
        assert_eq!((q.regs[20], q.regs[21]), (fault_pc, far), "ELR, FAR");
        assert_eq!(q.regs[19], sum, "the sum the mirror computes");
        assert_eq!(q.regs[3], 100_000 - (fault_trip - 1), "trips left");
        for (name, c) in runs.iter().filter(|(name, _)| *name != "qemu") {
            let s = &c.stats;
            assert!(
                s.backedge_transfers > 100,
                "{name}: the loop ran in a region"
            );
            // Without the optimiser every guest register round-trips
            // through memory, and the pool never runs out.
            assert_eq!(
                s.jit.regalloc_splits > 0,
                *name != "noopt",
                "{name}: the allocator split ranges"
            );
        }
    }
}

#[test]
fn a_data_abort_mid_a_promoted_fp_loop_hands_the_handler_its_dirty_v_registers() {
    // A packed and a scalar accumulator around a load that walks off the
    // end of guest RAM: `v1 = [x1] * v9; v2 += v1; d4 = d0 * d10; d5 += d4`.
    // v0, v1, v2, d4 and d5 are dirty vector carriers (d4 and d5 written as
    // scalars, so their upper halves are zero), v9 and d10 clean ones, x1
    // and x3 general-purpose ones; the promoted loop keeps all of them in
    // host registers.  Trip `TRIPS + 1` loads from the first address past
    // RAM, and the handler stores v1, v2 and v5 — both lanes — to memory
    // and reads them back into x10–x15.  Fault-time materialisation must
    // hand it exactly what the QEMU-style baseline, which keeps every guest
    // register in memory, and a host mirror of the kernel compute.
    const TRIPS: u64 = 3_000;
    const OUT: u64 = 0x20_0000;
    let ram = bench::guest_ram();
    let xs = ram - TRIPS * 16;
    let (s, c) = (0.999_f64, 0.5_f64);
    let x = |i: u64| 1.0 + (i * 37 % 101) as f64 / 128.0;

    let mut a = Assembler::new();
    a.mov_imm64(11, 0x3000);
    a.push(asm::msr(SysReg::Vbar as u32, 11));
    a.mov_imm64(1, xs);
    a.mov_imm64(2, OUT);
    a.mov_imm64(5, s.to_bits());
    a.push(asm::dup2d(9, 5));
    a.mov_imm64(6, c.to_bits());
    a.push(asm::fmov_from_gpr(10, 6));
    a.push(asm::dup2d(2, 31));
    a.push(asm::fmov_from_gpr(5, 31));
    a.mov_imm64(3, TRIPS + 10);
    a.label("loop");
    let fault_pc = 0x1000 + a.here() as u64 * 4;
    a.push(asm::ldr_q(0, 1, 0));
    a.push(asm::vmul2d(1, 0, 9));
    a.push(asm::vadd2d(2, 2, 1));
    a.push(asm::fmul(4, 0, 10));
    a.push(asm::fadd(5, 5, 4));
    a.push(asm::addi(1, 1, 16));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());
    let main = a.finish();

    let mut v = Assembler::new();
    v.push(asm::mrs(20, SysReg::Elr as u32));
    v.push(asm::mrs(21, SysReg::Far as u32));
    for (k, reg) in [1, 2, 5].into_iter().enumerate() {
        v.push(asm::str_q(reg, 2, k as u32 * 16));
    }
    for k in 0..6 {
        v.push(asm::ldr(10 + k, 2, k * 8));
    }
    v.push(asm::hlt());

    let data: Vec<(u64, u64)> = (0..TRIPS * 2)
        .map(|i| (xs + i * 8, x(i).to_bits()))
        .collect();
    // Host mirror: TRIPS whole trips, then the load of trip TRIPS + 1 faults.
    let (mut v1, mut v2, mut d5) = ([0.0f64; 2], [0.0f64; 2], 0.0f64);
    for t in 0..TRIPS {
        let v0 = [x(2 * t), x(2 * t + 1)];
        v1 = [v0[0] * s, v0[1] * s];
        v2 = [v2[0] + v1[0], v2[1] + v1[1]];
        d5 += v0[0] * c;
    }
    let want = [
        v1[0].to_bits(),
        v1[1].to_bits(),
        v2[0].to_bits(),
        v2[1].to_bits(),
        d5.to_bits(),
        0,
    ];

    let g = Guest {
        words: data,
        ..guest(
            "promoted fp loop",
            vec![(0x1000, main), (0x3000, v.finish())],
        )
    };
    // The reference is QemuRef, which promotes nothing: its handler reads
    // the register file the guest wrote, and every Captive configuration
    // must hand its handler the same.
    let runs = assert_agree(&g, &EQUIVALENT);
    let q = &runs[0].1;
    assert_eq!((q.regs[20], q.regs[21]), (fault_pc, ram), "ELR, FAR");
    assert_eq!(
        q.regs[10..16],
        want,
        "v1, v2, v5 as the mirror computes them"
    );
    assert_eq!(q.regs[3], 10, "trips left");
    for (name, c) in runs.iter().filter(|(name, _)| *name != "qemu") {
        let s = &c.stats;
        assert!(
            s.backedge_transfers > 100,
            "{name}: the loop ran in a region"
        );
        if !["noopt", "nopromote"].contains(name) {
            assert!(
                s.jit.opt_promoted_slots >= 9,
                "{name}: seven vector slots and two general-purpose ones promoted, {}",
                s.jit.opt_promoted_slots
            );
        }
    }
}
