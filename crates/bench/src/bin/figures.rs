//! Regenerates the paper's tables and figures on the simulated substrate.
//!
//! Usage: `cargo run --release -p bench --bin figures -- [all|fig17|fig18|fig19|fig20|jitstats|fig21|fig22|table2|fp_modes|chaining|regions|loops|promote|json|scale|opt|idioms|storm|tiers|io]`
//!
//! (The usage line is [`usage`] over [`SECTIONS`], the table `main`
//! dispatches on; a test holds this comment to it.)  An unknown section is an
//! error: usage on standard error, exit code 2.
//!
//! The `chaining`, `regions`, `loops`, `promote`, `scale`, `opt`, `idioms`
//! and `storm` sections double as CI smoke checks: they assert the counter
//! invariants the dispatcher and optimiser guarantee (chained gaps accounted
//! exactly, regions no slower than chaining with strictly fewer interpreter
//! entries, every loop kernel closing and tripping a back-edge region,
//! cycles growing monotonically with workload scale, optimised translations
//! no slower than unoptimised with nonzero elimination counters on
//! flag-heavy workloads, every shipped idiom rule firing somewhere on the
//! idiom kernels at a cycle win, and — under an interrupt storm — regions
//! still forming and tripping with every IRQ delivered on both engines) and
//! panic on regression.

use bench::{
    captive_config, geomean, native_model, run_both_raw, run_captive, run_captive_cfg,
    run_captive_idioms_mined, run_qemu, run_qemu_chaining, run_qemu_goto_tb, RunStats,
};
use dbt::RuleKind;
use workloads::{Scale, Workload};

/// One section: its name(s) on the command line and the function that
/// prints it.
type Section = (&'static [&'static str], fn());

/// Every section, in `all` order.
const SECTIONS: &[Section] = &[
    (&["fig17"], fig17),
    (&["fig18"], fig18),
    (&["fig19"], fig19),
    (&["fig20", "jitstats"], fig20_and_jitstats),
    (&["fig21"], fig21),
    (&["fig22"], fig22),
    (&["table2"], table2),
    (&["fp_modes"], fp_modes),
    (&["chaining"], chaining),
    (&["regions"], regions),
    (&["loops"], loops),
    (&["promote"], promote),
    (&["json"], json),
    (&["scale"], scale),
    (&["opt"], opt),
    (&["idioms"], idioms),
    (&["storm"], storm),
    (&["tiers"], tiers),
    (&["io"], io),
];

/// The usage line, generated from [`SECTIONS`].
fn usage() -> String {
    let names: Vec<&str> = SECTIONS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .collect();
    format!(
        "cargo run --release -p bench --bin figures -- [all|{}]",
        names.join("|")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = match args.as_slice() {
        [] => "all",
        [one] => one.as_str(),
        _ => "",
    };
    let chosen: Vec<fn()> = SECTIONS
        .iter()
        .filter(|(names, _)| arg == "all" || names.contains(&arg))
        .map(|&(_, section)| section)
        .collect();
    if chosen.is_empty() {
        eprintln!("usage: {}", usage());
        std::process::exit(2);
    }
    for section in chosen {
        section();
    }
}

/// `w` under the named Captive configuration of [`bench::CAPTIVE_CONFIGS`].
fn captive(w: &Workload, config: &str) -> RunStats {
    run_captive_cfg(w, captive_config(config))
}

fn io() {
    println!("== Virtio-blk I/O: DMA kernels, fault injection, device-originated SMC ==");
    println!(
        "{:<14} {:<10} {:>12} {:>6} {:>9} {:>7} {:>7} {:>10}",
        "kernel", "engine", "cycles", "compl", "dma-bytes", "faults", "io-err", "ext-inval"
    );
    let vcfg = workloads::vblk_config();
    let row = |kernel: &str, engine: &str, m: &RunStats| {
        println!(
            "{:<14} {:<10} {:>12} {:>6} {:>9} {:>7} {:>7} {:>10}",
            kernel,
            engine,
            m.cycles,
            m.virtio_completions,
            m.virtio_dma_bytes,
            m.virtio_fault_injections,
            m.virtio_io_errors,
            m.external_invalidations,
        );
    };
    // Clean-disk kernels: both engines must retire every request with no
    // errors and move the same DMA byte count.
    for w in workloads::io_kernels() {
        let c = bench::run_captive_io(&w, vcfg.clone(), captive::CaptiveConfig::default());
        let q = bench::run_qemu_io(&w, vcfg.clone());
        row(w.name, "captive", &c);
        row(w.name, "qemu", &q);
        assert!(c.virtio_completions > 0, "{}: device did no work", w.name);
        assert_eq!(
            (c.virtio_completions, c.virtio_dma_bytes, c.virtio_io_errors),
            (q.virtio_completions, q.virtio_dma_bytes, q.virtio_io_errors),
            "{}: completions, DMA bytes or I/O errors diverged across engines",
            w.name
        );
        assert_eq!(c.virtio_io_errors, 0, "{}: clean disk", w.name);
    }
    // Fault-injection leg: a seed chosen (deterministically) to bite inside
    // the first three of io.read's four requests.  Faults must surface as
    // typed statuses — the run still halts — and identically on both engines.
    let fault_seed = (1u64..)
        .find(|&s| {
            let plan = hvm::FaultPlan::seeded(s, 3);
            (0..3).any(|q| plan.decide(q, false) != hvm::FaultKind::None)
        })
        .unwrap();
    let faulty = hvm::VirtioBlkConfig {
        fault_seed: Some(fault_seed),
        exempt_after: 3,
        ..workloads::vblk_config()
    };
    let w = workloads::vblk_read(4);
    let c = bench::run_captive_io(&w, faulty.clone(), captive::CaptiveConfig::default());
    let q = bench::run_qemu_io(&w, faulty);
    row("io.read+fault", "captive", &c);
    row("io.read+fault", "qemu", &q);
    assert!(
        c.virtio_fault_injections > 0,
        "the chosen fault seed must inject"
    );
    assert_eq!(c.virtio_fault_injections, q.virtio_fault_injections);
    assert_eq!(c.virtio_io_errors, q.virtio_io_errors);
    // Device-originated SMC: the io.smc kernel's completion DMAs over its
    // own (live, looping) spin page, so both engines must walk their
    // external-invalidation path to terminate.
    let (w, sector0) = workloads::vblk_smc();
    let smc_cfg = workloads::vblk_smc_config(sector0);
    let c = bench::run_captive_io(&w, smc_cfg.clone(), captive::CaptiveConfig::default());
    let q = bench::run_qemu_io(&w, smc_cfg);
    row(w.name, "captive", &c);
    row(w.name, "qemu", &q);
    assert!(
        c.external_invalidations > 0 && q.external_invalidations > 0,
        "device DMA onto translated code must invalidate on both engines"
    );
    assert!(
        c.loop_regions_formed > 0,
        "the spin must be a formed looping region when the DMA lands"
    );
    // Idle-device parity: attaching the device without touching it must not
    // move the modeled cycle count of a non-I/O workload.
    let w = workloads::loop_flood(4, 8, 20);
    let idle = bench::run_captive_io(&w, vcfg, captive::CaptiveConfig::default());
    let bare = bench::run_captive(&w);
    assert_eq!(idle.virtio_kicks, 0);
    assert_eq!(
        idle.cycles, bare.cycles,
        "an idle attached device must be cycle-free"
    );
    println!(
        "   idle-device parity: {} cycles with and without the device\n",
        bare.cycles
    );
}

fn fig17() {
    println!("== Figure 17: SPEC CPU2006 integer — Captive vs QEMU-style baseline ==");
    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "benchmark", "qemu cycles", "captive cycles", "speedup"
    );
    let mut speedups = Vec::new();
    for w in workloads::spec_int(Scale(1)) {
        let c = run_captive(&w);
        let q = run_qemu(&w);
        let s = q.cycles as f64 / c.cycles as f64;
        speedups.push(s);
        println!(
            "{:<18} {:>14} {:>14} {:>8.2}x",
            w.name, q.cycles, c.cycles, s
        );
    }
    println!(
        "{:<18} {:>38.2}x  (paper: 2.21x)\n",
        "geo. mean",
        geomean(&speedups)
    );
}

fn fig18() {
    println!("== Figure 18: SPEC CPU2006 FP — Captive vs QEMU-style baseline ==");
    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "benchmark", "qemu cycles", "captive cycles", "speedup"
    );
    let mut speedups = Vec::new();
    for w in workloads::spec_fp(Scale(1)) {
        let c = run_captive(&w);
        let q = run_qemu(&w);
        let s = q.cycles as f64 / c.cycles as f64;
        speedups.push(s);
        println!(
            "{:<18} {:>14} {:>14} {:>8.2}x",
            w.name, q.cycles, c.cycles, s
        );
    }
    println!(
        "{:<18} {:>38.2}x  (paper: 6.49x)\n",
        "geo. mean",
        geomean(&speedups)
    );
}

fn fig19() {
    println!("== Figure 19: SimBench micro-benchmarks — speedup of Captive over QEMU ==");
    let mut tlb_rows = Vec::new();
    for b in simbench::suite() {
        let (c, q) = run_both_raw(b.name, &b.words, b.entry);
        println!("{:<22} {:>8.2}x", b.name, q.cycles as f64 / c.cycles as f64);
        if b.name.starts_with("TLB-") {
            tlb_rows.extend([(b.name, "captive", c), (b.name, "qemu", q)]);
        }
    }
    // The bypass check for the guest-walk caches' revalidation rule: both
    // TLB kernels run with the guest MMU off, where there is no walk to keep
    // and no table to dirty, so the counters read 0 and the two ratios above
    // are what they were before the rule existed.
    println!("guest walks kept across a TLBI (MMU off: none to keep)");
    println!(
        "{:<12} {:<8} {:>17} {:>17} {:>20}",
        "", "", "itlb_revalidated", "gtlb_revalidated", "table_pages_dirtied"
    );
    for (kernel, engine, m) in tlb_rows {
        println!(
            "{kernel:<12} {engine:<8} {:>17} {:>17} {:>20}",
            m.itlb_revalidated, m.gtlb_revalidated, m.table_pages_dirtied
        );
        assert_eq!(
            (
                m.itlb_revalidated,
                m.gtlb_revalidated,
                m.table_pages_dirtied
            ),
            (0, 0, 0),
            "{kernel} on {engine}: an MMU-off kernel went through the revalidation rule"
        );
    }
    println!();
}

/// Wall-clock per JIT phase (decode, translate, regalloc, encode), in ns.
fn jit_phases(m: &RunStats) -> [u64; 4] {
    [
        m.jit_decode_ns,
        m.jit_translate_ns,
        m.jit_regalloc_ns,
        m.jit_encode_ns,
    ]
}

/// Wall-clock in the JIT, all phases, in ns.
fn jit_ns(m: &RunStats) -> u64 {
    jit_phases(m).iter().sum()
}

fn fig20_and_jitstats() {
    println!("== Figure 20 / Section 3.4: JIT compilation statistics ==");
    // Translate-heavy run: every SPEC-int workload once (cold caches).
    let mut cap_frac = [0.0; 4];
    let mut cap_time = 0.0;
    let mut qemu_time = 0.0;
    let mut cap_bytes = 0u64;
    let mut cap_insns = 0u64;
    let mut qemu_bytes = 0u64;
    let mut qemu_insns = 0u64;
    for w in workloads::spec_int(Scale(1)) {
        let c = run_captive(&w);
        let q = run_qemu(&w);
        cap_frac = jit_phases(&c).map(|ns| ns as f64 / jit_ns(&c).max(1) as f64);
        cap_time += jit_ns(&c) as f64 / 1e9;
        qemu_time += jit_ns(&q) as f64 / 1e9;
        if w.name == "429.mcf" {
            cap_bytes = c.code_bytes;
            cap_insns = c.translations;
            qemu_bytes = q.code_bytes;
            qemu_insns = q.translations;
        }
    }
    println!(
        "Captive phase breakdown: decode {:.1}%  translate {:.1}%  regalloc {:.1}%  encode {:.1}%",
        cap_frac[0] * 100.0,
        cap_frac[1] * 100.0,
        cap_frac[2] * 100.0,
        cap_frac[3] * 100.0
    );
    println!("  (paper: decode 2.8%, translate 54.5%, regalloc 25.6%, encode 17.1%)");
    println!(
        "Translation wall-clock: captive {:.3} ms vs qemu-style {:.3} ms ({:.2}x slower; paper: 2.6x)",
        cap_time * 1e3,
        qemu_time * 1e3,
        cap_time / qemu_time.max(1e-12)
    );
    println!(
        "429.mcf code size: captive {} bytes over {} translations, qemu {} bytes over {} translations",
        cap_bytes, cap_insns, qemu_bytes, qemu_insns
    );
    println!("  (paper: 67.53 vs 40.26 bytes per guest instruction)\n");
}

fn fig21() {
    println!("== Figure 21: per-block code quality on 429.mcf (chaining comparable) ==");
    let w = &workloads::spec_int(Scale(1))[3];
    let c = captive(w, "profiled");
    let q = run_qemu(w);
    println!(
        "captive: {} cycles over {} guest insns;  qemu: {} cycles",
        c.cycles, c.guest_insns, q.cycles
    );
    println!(
        "aggregate per-guest-instruction cycle ratio (qemu/captive): {:.2}x (paper block-level: 3.44x)\n",
        (q.cycles as f64 / q.guest_insns.max(1) as f64)
            / (c.cycles as f64 / c.guest_insns.max(1) as f64)
    );
}

fn fig22() {
    println!("== Figure 22: Captive vs native Arm hardware (IPC models) ==");
    let mut ratios_a53 = Vec::new();
    let mut ratios_a57 = Vec::new();
    for w in workloads::spec_int(Scale(1)) {
        let c = run_captive(&w);
        let a53 = native_model::cortex_a53_cycles(c.guest_insns);
        let a57 = native_model::cortex_a57_cycles(c.guest_insns);
        ratios_a53.push(a53 as f64 / c.cycles as f64);
        ratios_a57.push(a57 as f64 / c.cycles as f64);
    }
    println!(
        "Captive vs Cortex-A53 (1.2GHz): {:.2}x the A53's speed   (paper: ~2x)",
        geomean(&ratios_a53)
    );
    println!(
        "Captive vs Cortex-A57 (2.0GHz): {:.2}x the A57's speed   (paper: ~0.4x)\n",
        geomean(&ratios_a57)
    );
}

fn table2() {
    println!("== Table 2: x86 SQRTSD vs Arm FSQRT special cases ==");
    let inputs = [
        ("0.0", 0.0f64),
        ("-0.0", -0.0),
        ("inf", f64::INFINITY),
        ("-inf", f64::NEG_INFINITY),
        ("0.5", 0.5),
        ("-0.5", -0.5),
        ("NaN", f64::from_bits(0x7FF8_0000_0000_0000)),
        ("-NaN", f64::from_bits(0xFFF8_0000_0000_0000)),
    ];
    let mut env = softfloat::FpEnv::new();
    println!(
        "{:<8} {:>20} {:>20} {:>12}",
        "input", "x86 (SQRTSD)", "Arm (FSQRT)", "difference"
    );
    for (name, v) in inputs {
        let x86 = softfloat::f64_sqrt_x86(v.to_bits(), &mut env);
        let arm = softfloat::f64_sqrt_arm(v.to_bits(), &mut env);
        let diff = if x86 == arm {
            "-"
        } else if (x86 ^ arm) == 1 << 63 || (x86 >> 63) != (arm >> 63) {
            "sign bit"
        } else {
            "payload"
        };
        println!(
            "{:<8} {:>20} {:>20} {:>12}",
            name,
            format!("{:#018x}", x86),
            format!("{:#018x}", arm),
            diff
        );
    }
    println!();
}

fn chaining() {
    println!("== Section 2.6/2.7: direct block chaining and the fetch iTLB ==");
    println!("   (both baselines reported: plain QEMU and QEMU with same-page chaining)");
    println!(
        "{:<18} {:>9} {:>14} {:>14} {:>14} {:>14} {:>9} {:>8} {:>8} {:>9}",
        "workload",
        "speedup",
        "cycles (on)",
        "cycles (off)",
        "qemu",
        "qemu+chain",
        "chained",
        "patches",
        "slowdsp",
        "itlb hit"
    );
    let mut hot = workloads::spec_int(Scale(1));
    hot.truncate(4);
    hot.push(bench::micro_workload(&simbench::same_page_direct(10_000)));
    for w in &hot {
        let on = captive(w, "chain-only");
        let off = captive(w, "nochain");
        let q = run_qemu(w);
        let qc = run_qemu_chaining(w, true);
        // 1.0 when there were no fetches, like `hvm::PerfCounters::tlb_hit_rate`.
        let itlb_rate = match on.itlb_hits + on.itlb_misses {
            0 => 1.0,
            fetches => on.itlb_hits as f64 / fetches as f64,
        };
        assert!(
            on.cycles <= off.cycles,
            "{}: chaining regressed ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
        assert!(
            qc.cycles <= q.cycles,
            "{}: qemu chaining regressed ({} > {})",
            w.name,
            qc.cycles,
            q.cycles
        );
        println!(
            "{:<18} {:>8.3}x {:>14} {:>14} {:>14} {:>14} {:>9} {:>8} {:>8} {:>8.1}%",
            w.name,
            off.cycles as f64 / on.cycles as f64,
            on.cycles,
            off.cycles,
            q.cycles,
            qc.cycles,
            on.chained_transfers,
            on.chain_patches,
            on.slow_dispatches,
            itlb_rate * 100.0
        );
    }
    println!();
}

fn regions() {
    println!("== Region formation over hot chain paths ==");
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>9} {:>9} {:>8} {:>12} {:>12}",
        "workload",
        "chain cycles",
        "super cycles",
        "speedup",
        "formed",
        "sb-xfers",
        "entries",
        "(chain-only)",
        "dtlb hits"
    );
    let mut hot = workloads::spec_int(Scale(1));
    hot.truncate(4);
    let hot_loop = bench::micro_workload(&simbench::same_page_direct(10_000));
    let hot_loop_name = hot_loop.name;
    hot.push(hot_loop);
    let mut hot_loop_sb = None;
    for w in &hot {
        let chain = captive(w, "chain-only");
        let sb = captive(w, "sync");
        // CI smoke invariants: regions must never cost cycles over chaining
        // alone, and wherever a region formed it must have absorbed
        // interpreter entries.
        assert!(
            sb.cycles <= chain.cycles,
            "{}: regions regressed cycles ({} > {})",
            w.name,
            sb.cycles,
            chain.cycles
        );
        if sb.regions_formed > 0 {
            assert!(
                sb.region_transfers > 0,
                "{}: regions formed but no stitched transfers",
                w.name
            );
            assert!(
                sb.blocks < chain.blocks,
                "{}: regions did not reduce interpreter entries ({} vs {})",
                w.name,
                sb.blocks,
                chain.blocks
            );
        }
        println!(
            "{:<18} {:>14} {:>14} {:>8.3}x {:>9} {:>9} {:>8} {:>12} {:>12}",
            w.name,
            chain.cycles,
            sb.cycles,
            chain.cycles as f64 / sb.cycles as f64,
            sb.regions_formed,
            sb.region_transfers,
            sb.blocks,
            chain.blocks,
            sb.dtlb_hits
        );
        if w.name == hot_loop_name {
            hot_loop_sb = Some(sb);
        }
    }
    let sb = hot_loop_sb.expect("the hot-loop micro is in the workload list");
    assert!(
        sb.regions_formed >= 1 && sb.region_transfers > 10_000,
        "hot loop must form and exercise a region (formed {}, transfers {})",
        sb.regions_formed,
        sb.region_transfers
    );
    println!();
}

fn loops() {
    println!("== Looping regions: region-internal back-edges on loop-heavy kernels ==");
    println!("   (chain = chaining alone, no region formation)");
    println!(
        "{:<18} {:>13} {:>13} {:>8} {:>10} {:>9} {:>9}",
        "workload", "cycles (on)", "chain-only", "vs chain", "backedges", "entries", "(chain)"
    );
    let mut ws = workloads::loop_kernels(Scale(1));
    // The dispatch-bound multi-block loop: the shape whose per-iteration
    // cost is dominated by the machinery back-edges remove.
    let micro = bench::micro_workload(&simbench::same_page_direct(10_000));
    let micro_name = micro.name;
    ws.push(micro);
    let mut micro_gain = 0.0f64;
    for w in &ws {
        // Promotion is pinned off so the delta isolates the back-edge
        // machinery; the `promote` section measures what it adds on top.
        let on = captive(w, "nopromote+sync");
        let chain = captive(w, "chain-only");
        // CI smoke invariants: every loop-heavy kernel must close at least
        // one back-edge region, trip it internally, and never cost modeled
        // cycles over chaining alone; wherever the loop closes the
        // dispatcher entries per trip collapse.
        assert!(
            on.loop_regions_formed >= 1,
            "{}: no back-edge region formed",
            w.name
        );
        assert!(
            on.backedge_transfers > 0,
            "{}: back-edge regions formed but never tripped",
            w.name
        );
        assert!(
            on.cycles <= chain.cycles,
            "{}: looping regions regressed cycles ({} > {})",
            w.name,
            on.cycles,
            chain.cycles
        );
        assert!(
            on.blocks < chain.blocks,
            "{}: dispatcher entries per trip must drop ({} vs {})",
            w.name,
            on.blocks,
            chain.blocks
        );
        let vs_chain = chain.cycles as f64 / on.cycles as f64;
        if w.name == micro_name {
            micro_gain = vs_chain;
        }
        println!(
            "{:<18} {:>13} {:>13} {:>7.3}x {:>10} {:>9} {:>9}",
            w.name,
            on.cycles,
            chain.cycles,
            vs_chain,
            on.backedge_transfers,
            on.blocks,
            chain.blocks
        );
    }
    println!();
    // The acceptance bar: on the dispatch-bound multi-block loop workload,
    // looping regions must pay for themselves by a wide margin over
    // chaining alone (measured 1.964x when the gate was set).
    assert!(
        micro_gain >= 1.5,
        "the multi-block-loop workload must run >= 1.5x fewer modeled \
         cycles with looping regions than with chaining alone (got {micro_gain:.3}x)"
    );
}

fn promote() {
    println!("== Loop-carried register promotion and invariant hoisting ==");
    println!("   (off = looping regions without promotion; qemu+gtb = goto_tb baseline)");
    println!(
        "{:<18} {:>13} {:>13} {:>13} {:>8} {:>9} {:>9} {:>7} {:>9}",
        "workload",
        "cycles (on)",
        "cycles (off)",
        "qemu+gtb",
        "vs off",
        "promoted",
        "hoisted",
        "fpfwd",
        "gtb-xfers"
    );
    let mut stream_gain = 0.0f64;
    for w in workloads::loop_kernels(Scale(1)) {
        let on = captive(&w, "sync");
        let off = captive(&w, "nopromote+sync");
        let gtb = run_qemu_goto_tb(&w);
        // CI smoke invariants: every loop kernel must promote at least one
        // slot and hoist at least one invariant load, promotion must never
        // cost modeled cycles, and the honest baseline comparison stays
        // honest — the goto_tb-enabled QEMU must itself beat the plain
        // dispatcher on these loop-dominated kernels.
        assert!(
            on.jit.opt_promoted_slots >= 1,
            "{}: no regfile slot promoted to a loop carrier",
            w.name
        );
        assert!(
            on.jit.opt_hoisted_loads >= 1,
            "{}: no loop-invariant regfile load hoisted",
            w.name
        );
        assert!(
            on.cycles <= off.cycles,
            "{}: promotion regressed cycles ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
        assert!(
            gtb.cycles <= run_qemu_chaining(&w, true).cycles,
            "{}: goto_tb regressed the chained baseline",
            w.name
        );
        let vs_off = off.cycles as f64 / on.cycles as f64;
        if w.name == "stream.guarded" {
            stream_gain = vs_off;
        }
        println!(
            "{:<18} {:>13} {:>13} {:>13} {:>7.3}x {:>9} {:>9} {:>7} {:>9}",
            w.name,
            on.cycles,
            off.cycles,
            gtb.cycles,
            vs_off,
            on.jit.opt_promoted_slots,
            on.jit.opt_hoisted_loads,
            on.jit.opt_fp_forwarded,
            gtb.goto_tb_transfers
        );
    }
    // The loop kernels are single-page, so same-page chaining already links
    // every transfer and goto_tb is quiescent there; the cross-page
    // direct-branch micro is the shape only goto_tb can link, and keeps the
    // baseline honest about it.
    let cross = bench::micro_workload(&simbench::inter_page_direct(5_000));
    let gtb = run_qemu_goto_tb(&cross);
    let plain = run_qemu_chaining(&cross, true);
    assert!(
        gtb.goto_tb_transfers > 1_000,
        "the cross-page loop must take goto_tb links (got {})",
        gtb.goto_tb_transfers
    );
    assert!(
        gtb.cycles < plain.cycles,
        "goto_tb must beat same-page chaining on the cross-page loop \
         ({} vs {})",
        gtb.cycles,
        plain.cycles
    );
    println!(
        "{:<18} {:>13} {:>13} {:>13} {:>8} {:>9} {:>9} {:>7} {:>9}",
        cross.name, "-", "-", gtb.cycles, "-", "-", "-", "-", gtb.goto_tb_transfers
    );
    // The no-regression rider: on the branchy integer kernels — where trial
    // allocation should veto most candidates — promotion must never cost
    // modeled cycles.
    for w in workloads::spec_int(Scale(1)).into_iter().take(4) {
        let on = captive(&w, "sync");
        let off = captive(&w, "nopromote+sync");
        assert!(
            on.cycles <= off.cycles,
            "{}: promotion regressed a non-loop kernel ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
    }
    println!();
    // The acceptance bar: on the guarded stream kernel — a fat loop body
    // whose regfile traffic dominates once the dispatch layer is gone —
    // promotion must cut >= 1.15x modeled cycles over looping regions alone.
    assert!(
        stream_gain >= 1.15,
        "stream.guarded must run >= 1.15x fewer modeled cycles with \
         promotion on vs off (got {stream_gain:.3}x)"
    );
}

/// One JSON record per (kernel, engine): the two labels, the modeled MIPS
/// and then every counter of the [`RunStats`] walk under its declared name —
/// the table is the key list.
fn json_record(kernel: &str, engine: &str, m: &RunStats) -> String {
    let mips = if m.cycles == 0 {
        0.0
    } else {
        m.guest_insns as f64 / (m.cycles as f64 / 3.5e9) / 1e6
    };
    // Names are declared identifiers ([a-z0-9._] only), so no JSON string
    // escaping is needed.
    let counters: String = m
        .walk()
        .iter()
        .map(|c| format!(", \"{}\": {}", c.name, c.value))
        .collect();
    format!(
        "    {{\"kernel\": \"{kernel}\", \"engine\": \"{engine}\", \"mips\": {mips:.1}{counters}}}"
    )
}

fn json() {
    println!("== BENCH_figures.json: machine-readable per-kernel results ==");
    let mut records: Vec<String> = Vec::new();
    let mut push =
        |kernel: &str, engine: &str, m: &RunStats| records.push(json_record(kernel, engine, m));
    for w in workloads::spec_int(Scale(1)) {
        push(w.name, "captive", &run_captive(&w));
        push(w.name, "qemu", &run_qemu(&w));
        push(w.name, "qemu+chain", &run_qemu_chaining(&w, true));
    }
    for w in workloads::spec_fp(Scale(1)) {
        push(w.name, "captive", &run_captive(&w));
        push(w.name, "qemu", &run_qemu(&w));
    }
    for w in workloads::loop_kernels(Scale(1)) {
        push(w.name, "captive", &captive(&w, "nopromote+sync"));
        push(w.name, "captive-promote", &captive(&w, "sync"));
        push(w.name, "qemu+goto_tb", &run_qemu_goto_tb(&w));
        // The tier trajectory: cold run publishes+installs asynchronously,
        // the warm run resurrects regions from the shared reuse cache.
        let reuse = std::sync::Arc::new(dbt::ReuseCache::new());
        push(
            w.name,
            "captive-tiered-cold",
            &bench::run_captive_tiered_reuse(&w, &reuse),
        );
        push(
            w.name,
            "captive-tiered-warm",
            &bench::run_captive_tiered_reuse(&w, &reuse),
        );
    }
    for w in [
        workloads::interrupt_storm(40, 2_500),
        workloads::timer_tick(20_000, 200_000),
    ] {
        push(w.name, "captive", &run_captive(&w));
        push(w.name, "qemu", &run_qemu(&w));
    }
    // The guest-idiom trajectory (the per-rule `idiom_hits.<rule>` and
    // `idiom_candidates.<rule>` counters).
    for w in workloads::idiom_kernels(Scale(1)) {
        push(w.name, "captive-idiom", &captive(&w, "sync"));
        push(w.name, "captive-noidiom", &captive(&w, "noidiom+sync"));
        push(w.name, "qemu", &run_qemu(&w));
    }
    // The virtio-blk I/O kernels, including the device-originated-SMC case
    // (the `virtio_*` counters).
    let vcfg = workloads::vblk_config();
    for w in workloads::io_kernels() {
        push(
            w.name,
            "captive",
            &bench::run_captive_io(&w, vcfg.clone(), captive::CaptiveConfig::default()),
        );
        push(w.name, "qemu", &bench::run_qemu_io(&w, vcfg.clone()));
    }
    let (smc, sector0) = workloads::vblk_smc();
    let smc_cfg = workloads::vblk_smc_config(sector0);
    push(
        smc.name,
        "captive",
        &bench::run_captive_io(&smc, smc_cfg.clone(), captive::CaptiveConfig::default()),
    );
    push(smc.name, "qemu", &bench::run_qemu_io(&smc, smc_cfg));
    // A deliberately starved code cache, so the eviction counters have a
    // tracked non-zero baseline.
    let mcf = workloads::spec_int(Scale(1)).remove(3);
    push(
        "429.mcf",
        "captive-tinycache",
        &bench::run_captive_cfg(
            &mcf,
            captive::CaptiveConfig {
                cache_capacity_regions: Some(3),
                ..captive::CaptiveConfig::default()
            },
        ),
    );
    let body = format!(
        "{{\n  \"schema\": \"bench-figures-v2\",\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    std::fs::write("BENCH_figures.json", &body).expect("write BENCH_figures.json");
    println!(
        "wrote BENCH_figures.json ({} records, {} bytes)\n",
        records.len(),
        body.len()
    );
}

fn scale() {
    println!("== Workload scaling: cycles and MIPS trends per engine ==");
    println!(
        "{:<18} {:>6} {:>14} {:>9} {:>14} {:>9} {:>14} {:>9}",
        "workload", "scale", "captive cyc", "MIPS", "qemu cyc", "MIPS", "qemu+chain", "MIPS"
    );
    // Modeled MIPS: guest instructions retired per simulated second in the
    // 3.5 GHz-equivalent cycle domain the cost model is calibrated to.
    let mips = |guest_insns: u64, cycles: u64| guest_insns as f64 / (cycles as f64 / 3.5e9) / 1e6;
    // One workload per kernel character: streaming, pointer chasing, and
    // the branchy integer mix.
    for name in ["401.bzip2", "429.mcf", "456.hmmer"] {
        let mut prev: Option<(u64, u64, u64)> = None;
        for sc in [1u32, 2, 4] {
            let w = workloads::spec_int(Scale(sc))
                .into_iter()
                .find(|w| w.name == name)
                .expect("workload exists at every scale");
            let c = run_captive(&w);
            let q = run_qemu(&w);
            let qc = run_qemu_chaining(&w, true);
            // CI smoke invariants: work must grow strictly with scale on
            // every engine, and the engine ordering must hold at every
            // scale (captive < qemu+chain <= qemu on these kernels).
            if let Some((pc, pq, pqc)) = prev {
                assert!(
                    c.cycles > pc && q.cycles > pq && qc.cycles > pqc,
                    "{name}@x{sc}: cycles must grow with scale"
                );
            }
            assert!(
                c.cycles < qc.cycles && qc.cycles <= q.cycles,
                "{name}@x{sc}: engine ordering violated ({} vs {} vs {})",
                c.cycles,
                qc.cycles,
                q.cycles
            );
            prev = Some((c.cycles, q.cycles, qc.cycles));
            println!(
                "{:<18} {:>5}x {:>14} {:>9.1} {:>14} {:>9.1} {:>14} {:>9.1}",
                name,
                sc,
                c.cycles,
                mips(c.guest_insns, c.cycles),
                q.cycles,
                mips(q.guest_insns, q.cycles),
                qc.cycles,
                mips(qc.guest_insns, qc.cycles)
            );
        }
    }
    println!();
}

fn opt() {
    println!("== Block-scoped LIR optimizer: dead-flag elimination, forwarding, iterative DCE ==");
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6} {:>7} {:>9} {:>14} {:>12}",
        "workload",
        "cycles (on)",
        "cycles (off)",
        "saved",
        "deadst",
        "fwd",
        "pfwd",
        "pccoal",
        "dce",
        "dyn-elided",
        "cyc saved"
    );
    // The flag-heavy integer kernels are where dead-flag elimination and
    // NZCV forwarding pay; a streaming and an FP workload ride along to
    // check the no-regression invariant off the happy path too.
    let mut ws = workloads::spec_int(Scale(1));
    ws.truncate(8);
    let flag_heavy = ws.len();
    ws.push(workloads::fp_micro(Scale(1)));
    let mut total_dead = 0u64;
    let mut total_saved = 0u64;
    for (i, w) in ws.iter().enumerate() {
        let on = captive(w, "sync");
        let off = captive(w, "noopt+sync");
        // CI smoke invariants: the optimiser must never cost modeled cycles,
        // and on the flag-heavy integer kernels it must actually eliminate
        // work (the FP rider is only held to the no-regression bar).
        assert!(
            on.cycles <= off.cycles,
            "{}: optimizer regressed cycles ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
        assert!(
            i >= flag_heavy || (on.jit.opt_forwarded_loads > 0 && on.jit.opt_dce_insns > 0),
            "{}: optimizer reported no work (fwd {}, dce {})",
            w.name,
            on.jit.opt_forwarded_loads,
            on.jit.opt_dce_insns
        );
        println!(
            "{:<18} {:>14} {:>14} {:>8.3}x {:>9} {:>9} {:>6} {:>7} {:>9} {:>14} {:>12}",
            w.name,
            on.cycles,
            off.cycles,
            off.cycles as f64 / on.cycles as f64,
            on.jit.opt_dead_stores,
            on.jit.opt_forwarded_loads,
            on.jit.opt_partial_forwarded,
            on.jit.opt_pc_coalesced,
            on.jit.opt_dce_insns,
            on.elided_dyn_insns,
            off.cycles - on.cycles
        );
        total_dead += on.jit.opt_dead_stores;
        total_saved += off.cycles - on.cycles;
    }
    // Across the set as a whole, dead-store elimination must have fired and
    // a measurable modeled-cycle reduction must exist.
    assert!(total_dead > 0, "dead-store elimination never fired");
    assert!(
        total_saved > 0,
        "no modeled-cycle reduction across the suite"
    );
    println!(
        "totals: {} dead stores, {} cycles saved across the set\n",
        total_dead, total_saved
    );
}

fn idioms() {
    println!("== Guest-idiom layer: fusion, address folding and bulk rewriting ==");
    println!(
        "{:<14} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "workload",
        "cycles (on)",
        "cycles (off)",
        "vs off",
        "fused",
        "cmpbr",
        "tstbr",
        "cbz",
        "bulk"
    );
    let kernels = workloads::idiom_kernels(Scale(1));
    let mut per_rule = [0u64; dbt::RULE_COUNT];
    let mut total_fused = 0u64;
    let mut branch_gain = 0.0f64;
    for w in &kernels {
        let on = captive(w, "sync");
        let off = captive(w, "noidiom+sync");
        // CI smoke invariants: the idiom layer must never cost modeled
        // cycles, it must actually rewrite something on its own kernels, and
        // with the layer off its counters must stay exactly zero.
        assert!(
            on.cycles <= off.cycles,
            "{}: idiom layer regressed cycles ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
        assert!(
            on.jit.opt_idioms_fused > 0,
            "{}: no idiom fused on an idiom kernel",
            w.name
        );
        assert_eq!(
            off.jit.opt_idioms_fused, 0,
            "{}: idioms fused with the layer disabled",
            w.name
        );
        for (total, hits) in per_rule.iter_mut().zip(on.jit.idiom_hits) {
            *total += hits;
        }
        total_fused += on.jit.opt_idioms_fused;
        let vs_off = off.cycles as f64 / on.cycles as f64;
        if w.name == "idiom.branch" {
            branch_gain = vs_off;
        }
        println!(
            "{:<14} {:>13} {:>13} {:>7.3}x {:>7} {:>7} {:>6} {:>6} {:>6}",
            w.name,
            on.cycles,
            off.cycles,
            vs_off,
            on.jit.opt_idioms_fused,
            on.jit.idiom_hits[RuleKind::FuseCmpBr.index()],
            on.jit.idiom_hits[RuleKind::FuseTstBr.index()],
            on.jit.idiom_hits[RuleKind::FuseCbz.index()],
            on.jit.idiom_hits[RuleKind::BulkMemset.index()],
        );
    }
    // Every shipped rule must pay its way: at least one hit somewhere on the
    // idiom kernels, and a nonzero grand total.
    for kind in RuleKind::ALL {
        assert!(
            per_rule[kind.index()] > 0,
            "rule {} never fired on any idiom kernel",
            kind.name()
        );
    }
    assert!(total_fused > 0, "no idiom fused across the kernel set");
    // The no-regression rider: on the general workloads the layer must be
    // free or better.
    for w in workloads::spec_int(Scale(1))
        .into_iter()
        .take(4)
        .chain(workloads::loop_kernels(Scale(1)))
    {
        let on = captive(&w, "sync");
        let off = captive(&w, "noidiom+sync");
        assert!(
            on.cycles <= off.cycles,
            "{}: idiom layer regressed a non-idiom kernel ({} > {})",
            w.name,
            on.cycles,
            off.cycles
        );
    }
    // The mining flow: observe-only candidates on the branch kernel must
    // mine a table that keeps the branch-fusion rules enabled, and running
    // under the mined table must match the hand-enabled full table.
    let branch = &kernels[0];
    assert_eq!(branch.name, "idiom.branch");
    let (observe, mined, table) = run_captive_idioms_mined(branch);
    assert_eq!(
        observe.jit.opt_idioms_fused, 0,
        "observe-only mode must not rewrite anything"
    );
    assert!(
        observe.jit.idiom_candidates[RuleKind::FuseCmpBr.index()] > 0,
        "observe-only mode must still count candidates"
    );
    for kind in [RuleKind::FuseCmpBr, RuleKind::FuseTstBr, RuleKind::FuseCbz] {
        assert!(
            table.enabled(kind) && table.weight(kind) > 0,
            "mined table dropped {} despite hot candidates",
            kind.name()
        );
    }
    assert!(
        mined.jit.opt_idioms_fused > 0 && mined.cycles <= observe.cycles,
        "mined table must fuse and win on the kernel it was mined from \
         ({} fused, {} vs {} cycles)",
        mined.jit.opt_idioms_fused,
        mined.cycles,
        observe.cycles
    );
    println!(
        "mined from idiom.branch: {} (mined run {} cycles, observe {} cycles)",
        table.serialize().replace('\n', " "),
        mined.cycles,
        observe.cycles
    );
    println!();
    // The acceptance bar: on the flag-heavy branch kernel the NZCV-free
    // fusion path must cut >= 1.10x modeled cycles over the layer being off.
    assert!(
        branch_gain >= 1.10,
        "idiom.branch must run >= 1.10x fewer modeled cycles with the idiom \
         layer on vs off (got {branch_gain:.3}x)"
    );
}

fn storm() {
    println!("== Event sources: interrupt storm and timer preemption ==");
    println!(
        "{:<18} {:>14} {:>14} {:>8} {:>8} {:>9} {:>10} {:>9}",
        "workload", "captive cyc", "qemu cyc", "irqs", "timer", "regions", "backedges", "quarant"
    );
    let storm = workloads::interrupt_storm(40, 2_500);
    let tick = workloads::timer_tick(20_000, 200_000);
    for w in [&storm, &tick] {
        let c = run_captive(w);
        let q = run_qemu(w);
        // CI smoke invariants: every engine delivers the same IRQ count
        // (the storm's handler stops the run only after its target), and
        // IRQ pressure must not stop Captive from forming and tripping its
        // translation units, nor push any trace into quarantine.
        assert_eq!(
            c.irqs_delivered, q.irqs_delivered,
            "{}: engines disagree on deliveries",
            w.name
        );
        assert!(c.irqs_delivered > 0, "{}: no IRQs delivered", w.name);
        assert!(
            c.regions_formed + c.loop_regions_formed > 0,
            "{}: no region formed under IRQ pressure",
            w.name
        );
        assert!(
            c.backedge_transfers + c.region_transfers > 0,
            "{}: regions formed but never tripped",
            w.name
        );
        assert_eq!(
            c.regions_quarantined, 0,
            "{}: IRQ preemption must not quarantine traces",
            w.name
        );
        println!(
            "{:<18} {:>14} {:>14} {:>8} {:>8} {:>9} {:>10} {:>9}",
            w.name,
            c.cycles,
            q.cycles,
            c.irqs_delivered,
            c.timer_irqs,
            c.regions_formed + c.loop_regions_formed,
            c.backedge_transfers,
            c.regions_quarantined
        );
    }
    println!();
}

fn tiers() {
    println!("== Tiered translation: background formation + content-keyed reuse ==");
    println!("   (cold = first tiered run, warm = second run against the shared reuse cache)");
    println!(
        "{:<18} {:>13} {:>10} {:>10} {:>10} {:>7} {:>7} {:>6} {:>10}",
        "workload",
        "cycles",
        "sync-wall",
        "cold-wall",
        "warm-wall",
        "async",
        "stale",
        "reuse",
        "first-inst"
    );
    let us = |ns: u64| ns as f64 / 1e3;
    let mut warm_wall = 0u64;
    let mut sync_wall = 0u64;
    let mut async_installs = 0u64;
    for w in workloads::loop_kernels(Scale(1)) {
        // Both tiered runs share one content-keyed reuse cache, modelling the
        // same kernel image booted twice on one hypervisor instance.
        let reuse = std::sync::Arc::new(dbt::ReuseCache::new());
        let cold = bench::run_captive_tiered_reuse(&w, &reuse);
        let warm = bench::run_captive_tiered_reuse(&w, &reuse);
        let sync = captive(&w, "sync");
        // CI smoke invariants: regions are installed at the same guest
        // progress point in both modes, so the modeled cost is mode- and
        // warmth-blind on these single-trace kernels; the background path
        // must actually install asynchronously on the cold run; the warm
        // run must resurrect at least one region from the reuse cache; and
        // time-to-first-install must have been recorded.
        assert_eq!(
            cold.cycles, sync.cycles,
            "{}: tiered modeled cost diverged from synchronous",
            w.name
        );
        assert_eq!(
            warm.cycles, sync.cycles,
            "{}: reuse-warm modeled cost diverged from synchronous",
            w.name
        );
        assert!(
            cold.tier1_requests >= 1 && cold.regions_installed_async >= 1,
            "{}: the background tier never installed (requests {}, installs {})",
            w.name,
            cold.tier1_requests,
            cold.regions_installed_async
        );
        assert!(
            warm.reuse_hits >= 1,
            "{}: second run of the same image must hit the reuse cache",
            w.name
        );
        assert!(
            cold.first_region_install_ns > 0,
            "{}: time-to-first-install not recorded",
            w.name
        );
        warm_wall += warm.jit_wall_ns;
        sync_wall += sync.jit_wall_ns;
        async_installs += cold.regions_installed_async;
        println!(
            "{:<18} {:>13} {:>9.0}u {:>9.0}u {:>9.0}u {:>7} {:>7} {:>6} {:>9.0}u",
            w.name,
            sync.cycles,
            us(sync.jit_wall_ns),
            us(cold.jit_wall_ns),
            us(warm.jit_wall_ns),
            cold.regions_installed_async,
            cold.stale_discards,
            warm.reuse_hits,
            us(cold.first_region_install_ns)
        );
    }
    // The acceptance bar: once the reuse cache is warm the run thread never
    // re-forms a region, so its translation wall-clock must land strictly
    // below the synchronous former's across the loop-kernel suite.
    assert!(async_installs >= 1, "no asynchronous install in the sweep");
    assert!(
        warm_wall < sync_wall,
        "warm tiered run-thread JIT wall must undercut the synchronous \
         former ({warm_wall} ns vs {sync_wall} ns)"
    );
    println!(
        "run-thread JIT wall across the suite: sync {:.0}us vs reuse-warm tiered {:.0}us \
         ({:.0}us of translation stall eliminated)\n",
        us(sync_wall),
        us(warm_wall),
        us(sync_wall - warm_wall)
    );
}

fn fp_modes() {
    println!("== Section 3.6.2: hardware vs software FP in Captive ==");
    let w = workloads::fp_micro(Scale(1));
    let hw = run_captive(&w);
    let sw = captive(&w, "softfp");
    let q = run_qemu(&w);
    println!(
        "captive hw-fp: {} cycles; captive soft-fp: {} cycles; qemu: {} cycles",
        hw.cycles, sw.cycles, q.cycles
    );
    println!(
        "speedup over qemu: hw {:.2}x (paper 2.17x), soft {:.2}x (paper 1.68x); hw-vs-soft {:.2}x (paper 1.3x)\n",
        q.cycles as f64 / hw.cycles as f64,
        q.cycles as f64 / sw.cycles as f64,
        sw.cycles as f64 / hw.cycles as f64
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_json_record_is_the_two_labels_the_mips_and_the_walk() {
        let m = bench::RunStats {
            cycles: 3_500,
            guest_insns: 7,
            ..Default::default()
        };
        let record = super::json_record("k", "e", &m);
        let body = record
            .trim()
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .expect("one JSON object");
        // No value holds a comma or a colon, so the members split apart.
        let members: Vec<(&str, &str)> = body
            .split(", ")
            .map(|member| member.split_once(": ").expect("key: value"))
            .collect();
        let keys: Vec<String> = members
            .iter()
            .map(|(k, _)| k.trim_matches('"').into())
            .collect();
        let walked = m.walk();
        let want: Vec<String> = ["kernel", "engine", "mips"]
            .into_iter()
            .map(String::from)
            .chain(walked.iter().map(|c| c.name.clone()))
            .collect();
        assert_eq!(keys, want, "the keys are exactly the labels plus the walk");
        assert_eq!(
            members[..3],
            [
                ("\"kernel\"", "\"k\""),
                ("\"engine\"", "\"e\""),
                ("\"mips\"", "7.0")
            ]
        );
        for ((_, value), counter) in members[3..].iter().zip(&walked) {
            assert_eq!(*value, counter.value.to_string(), "{}", counter.name);
        }
    }

    #[test]
    fn usage_doc_comment_matches_the_section_table() {
        let doc = format!("//! Usage: `{}`", super::usage());
        assert!(
            include_str!("figures.rs").lines().any(|l| l == doc),
            "module docs must carry the generated usage line:\n{doc}"
        );
    }
}
