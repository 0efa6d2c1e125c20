//! Guest-idiom layer equivalence tests: every shipped rewrite rule must be
//! architecturally invisible.  Per rule, a kernel shaped to trigger exactly
//! that rule retires identical registers, NZCV *and* guest memory with the
//! idiom layer on, off, and under the QEMU-style baseline — across trip
//! counts 0 and 1, random trip counts, every fusible condition code, and the
//! promoted-looping-region configurations the rewrites compose with.  The
//! negative tests pin the soundness gates: shapes whose operands are
//! clobbered between compare and branch, or whose flags escape the fusion
//! window, must not fuse.

use bench::{assert_agree, Guest, Run};
use captive::CaptiveConfig;
use dbt::RuleKind;
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use proptest::prelude::*;
use workloads::DATA_BASE;

/// Per-rule fusion count from a finished run.
fn hits(run: &Run, rule: RuleKind) -> u64 {
    run.stats.jit.idiom_hits[rule.index()]
}

/// Runs `words` with the idiom layer on, off and on the QEMU-style baseline,
/// asserts one outcome (registers, NZCV, the data window and the
/// `Architectural` counters) and returns the on and off runs.
fn assert_idioms_invisible(words: Vec<u32>, label: &str) -> (Run, Run) {
    let mut runs = assert_agree(
        &Guest::program(label, words),
        &["default", "noidiom", "qemu"],
    );
    let off = runs.remove(1).1;
    (runs.remove(0).1, off)
}

/// The conditions the subtract-producer consumer tables cover.
const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Hi,
    Cond::Ls,
    Cond::Ge,
    Cond::Lt,
    Cond::Gt,
    Cond::Le,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// fuse.cmpbr: a hot loop whose body compares a moving value against a
    /// bound and conditionally branches on it — the flags die at the branch,
    /// so the NZCV materialisation is bypassed — retires identical state for
    /// trip counts 0, 1 and a random count across every condition code.
    #[test]
    fn cmpbr_fusion_agrees_across_engines(
        random_trips in 2u32..300,
        cond_idx in 0usize..CONDS.len(),
        av in 0u32..0x100,
        bv in 0u32..0x100,
    ) {
        for trips in [0u32, 1, random_trips] {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0));
            a.push(asm::movz(2, av, 0));
            a.push(asm::movz(3, bv, 0));
            a.push(asm::movz(9, 0, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::add(2, 2, 1)); // moving compare operand
            a.push(asm::cmp(2, 3));
            a.bcond_to(CONDS[cond_idx], "skip");
            a.push(asm::addi(9, 9, 1));
            a.label("skip");
            a.push(asm::subi(1, 1, 1));
            a.cbnz_to(1, "loop");
            a.label("done");
            a.push(asm::hlt());
            let (on, off) = assert_idioms_invisible(a.finish(), "cmpbr");
            if trips > 16 {
                prop_assert!(
                    hits(&on, RuleKind::FuseCmpBr) >= 1,
                    "hot cmp+b.{:?} loop must fuse",
                    CONDS[cond_idx]
                );
            }
            prop_assert_eq!(hits(&off, RuleKind::FuseCmpBr), 0);
        }
    }

    /// fuse.tstbr: the logic-producer variant — `ands` feeding a
    /// conditional branch (only Eq/Ne classify against the
    /// carry/overflow-free nibble).
    #[test]
    fn tstbr_fusion_agrees_across_engines(
        random_trips in 2u32..300,
        eq_bit in 0u32..2,
        mask in 1u32..0x100,
    ) {
        for trips in [0u32, 1, random_trips] {
            let cond = if eq_bit == 0 { Cond::Eq } else { Cond::Ne };
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0));
            a.push(asm::movz(3, mask, 0));
            a.push(asm::movz(9, 0, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::ands(6, 1, 3)); // flag-setting test of the counter
            a.bcond_to(cond, "skip");
            a.push(asm::addi(9, 9, 1));
            a.label("skip");
            a.push(asm::subi(1, 1, 1));
            a.cbnz_to(1, "loop");
            a.label("done");
            a.push(asm::hlt());
            let (on, off) = assert_idioms_invisible(a.finish(), "tstbr");
            if trips > 16 {
                prop_assert!(
                    hits(&on, RuleKind::FuseTstBr) >= 1,
                    "hot ands+b.{cond:?} loop must fuse"
                );
            }
            prop_assert_eq!(hits(&off, RuleKind::FuseTstBr), 0);
        }
    }

    /// fuse.cbz: counted loops closed by `cbnz`/`cbz` — the materialised
    /// zero-test boolean collapses into a direct compare-and-branch.
    #[test]
    fn cbz_fusion_agrees_across_engines(
        random_trips in 2u32..300,
        stride in 1u32..5,
    ) {
        for trips in [0u32, 1, random_trips] {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips * stride, 0));
            a.push(asm::movz(9, 0, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::add(9, 9, 1));
            a.push(asm::subi(1, 1, stride));
            a.cbnz_to(1, "loop");
            a.label("done");
            a.push(asm::hlt());
            let (on, off) = assert_idioms_invisible(a.finish(), "cbz");
            if trips > 16 {
                prop_assert!(
                    hits(&on, RuleKind::FuseCbz) >= 1,
                    "hot cbnz loop must fuse its back-edge test"
                );
            }
            prop_assert_eq!(hits(&off, RuleKind::FuseCbz), 0);
        }
    }

    /// addr.fold: shift/add address chains feeding loads and stores fold
    /// into scaled-index operands for any shift amount the encoder scales.
    #[test]
    fn addr_fold_agrees_across_engines(
        random_trips in 2u32..300,
        mask in 1u32..0x40,
    ) {
        for trips in [0u32, 1, random_trips] {
            let mut a = Assembler::new();
            a.push(asm::movz(1, trips, 0));
            a.mov_imm64(2, DATA_BASE);
            a.push(asm::movz(4, 0, 0)); // index source
            a.push(asm::movz(7, mask, 0));
            a.push(asm::movz(9, 0, 0));
            a.cbz_to(1, "done");
            a.label("loop");
            a.push(asm::and(5, 4, 7)); // bounded index
            a.push(asm::lsli(6, 5, 3)); // scale by 8
            a.push(asm::add(6, 6, 2)); // base + scaled index
            a.push(asm::ldr(8, 6, 0));
            a.push(asm::add(8, 8, 4));
            a.push(asm::str(8, 6, 0));
            a.push(asm::add(9, 9, 8));
            a.push(asm::addi(4, 4, 1));
            a.push(asm::subi(1, 1, 1));
            a.cbnz_to(1, "loop");
            a.label("done");
            a.push(asm::hlt());
            let (on, off) = assert_idioms_invisible(a.finish(), "addr");
            if trips > 16 {
                prop_assert!(
                    hits(&on, RuleKind::AddrFold) >= 1,
                    "hot scaled-index loop must fold its address chain"
                );
            }
            prop_assert_eq!(hits(&off, RuleKind::AddrFold), 0);
        }
    }

    /// Byte-fill (memset) loops of every length — including the 0- and
    /// 1-trip edges and bodies running inside promoted looping regions (the
    /// default config) — leave identical memory, registers and flags with
    /// the idiom layer on, off, and on QemuRef.
    #[test]
    fn bulk_memset_agrees_across_engines(
        random_bytes in 2u32..2_000,
        fill in 0u32..0x100,
        offset in 0u32..16,
    ) {
        for bytes in [0u32, 1, 7, random_bytes] {
            let mut a = Assembler::new();
            a.mov_imm64(1, DATA_BASE + offset as u64);
            a.push(asm::movz(3, fill, 0));
            a.push(asm::movz(5, bytes, 0));
            a.push(asm::movz(4, 0, 0));
            a.push(asm::orr(4, 1, 1)); // cur = base
            a.cbz_to(5, "done");
            a.label("fill");
            a.push(asm::strb(3, 4, 0));
            a.push(asm::addi(4, 4, 1));
            a.push(asm::subi(5, 5, 1));
            a.cbnz_to(5, "fill");
            a.label("done");
            a.push(asm::ldr(6, 1, 0)); // read back through the fill
            a.push(asm::hlt());
            assert_idioms_invisible(a.finish(), "memset");
        }
    }
}

/// Negative: a carry-reading condition (`Hi`) on a logic producer cannot
/// classify — `ands` packs only Z and N into the nibble, so no host
/// condition of the re-materialised test reproduces the guest predicate.
/// The site must not fuse, and must not even count as a candidate.
#[test]
fn carry_condition_on_logic_producer_suppresses_fusion() {
    let mut a = Assembler::new();
    a.push(asm::movz(1, 300, 0));
    a.push(asm::movz(2, 5, 0));
    a.push(asm::movz(3, 9, 0));
    a.push(asm::movz(9, 0, 0));
    a.label("loop");
    a.push(asm::ands(6, 2, 3)); // logic producer: C and V always clear
    a.bcond_to(Cond::Hi, "skip"); // Hi reads C — unclassifiable
    a.push(asm::addi(9, 9, 1));
    a.label("skip");
    a.push(asm::add(2, 2, 9));
    a.push(asm::subi(1, 1, 1));
    a.cbnz_to(1, "loop");
    a.push(asm::hlt());
    let (on, _) = assert_idioms_invisible(a.finish(), "hi-on-ands");
    for rule in [RuleKind::FuseCmpBr, RuleKind::FuseTstBr] {
        assert_eq!(
            hits(&on, rule),
            0,
            "{}: an ands+b.hi site must refuse fusion",
            rule.name()
        );
    }
}

/// Region-boundary soundness: the loop's conditional exit leg leaves the
/// region as a side exit with the compare's NZCV still architecturally
/// live — a `csel` beyond the exit reads it with no intervening flag
/// write.  Whatever the layer does to the branch itself, the flags read
/// outside the region must be the compare's exact result on every trip
/// count parity.
#[test]
fn flags_read_across_side_exit_stay_exact() {
    for trips in [1u32, 2, 37, 200] {
        let mut a = Assembler::new();
        a.push(asm::movz(1, trips, 0));
        a.push(asm::movz(3, 7, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.push(asm::cmpi(1, 0));
        a.bcond_to(Cond::Eq, "done"); // cold side exit carries live flags
        a.b_to("loop");
        a.label("done");
        // Reads the loop-exit compare's flags with no flag write between:
        // Z is set on exit, so the Eq select must pick x9.
        a.push(asm::csel(4, 9, 3, Cond::Eq));
        a.push(asm::hlt());
        let (on, _) = assert_idioms_invisible(a.finish(), "side-exit flags");
        assert_eq!(
            on.regs[4], trips as u64,
            "the side-exit csel must see the compare's Z flag"
        );
    }
}

/// Ret-boundary soundness: a fused compare+branch at the end of a called
/// kernel, with the caller reading NZCV right after the `ret` — the flags
/// must survive the region's return boundary.
#[test]
fn flags_read_across_ret_stay_exact() {
    let mut main = Assembler::new();
    main.push(asm::movz(6, 120, 0)); // calls
    main.push(asm::movz(9, 0, 0));
    main.mov_imm64(3, 0x2000);
    main.label("again");
    main.push(asm::blr(3));
    // x5's flags come from the kernel's final subtract-compare, across ret.
    main.push(asm::csel(5, 9, 6, Cond::Eq));
    main.push(asm::add(9, 9, 5));
    main.push(asm::subi(6, 6, 1));
    main.cbnz_to(6, "again");
    main.push(asm::hlt());

    let mut kern = Assembler::new();
    kern.push(asm::movz(10, 8, 0));
    kern.label("k");
    kern.push(asm::subi(10, 10, 1));
    kern.push(asm::cmpi(10, 0));
    kern.bcond_to(Cond::Ne, "k");
    kern.push(asm::ret());
    let g = Guest {
        code: vec![(0x1000, main.finish()), (0x2000, kern.finish())],
        ..Guest::program("flags across ret", Vec::new())
    };
    assert_agree(&g, &["default", "noidiom"]);
}

/// The idiom layer composes with loop promotion and peeling: a byte-fill
/// loop leaves the same registers, flags and memory under every combination
/// of the three knobs.
#[test]
fn memset_loop_agrees_under_every_knob_combination() {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.push(asm::movz(3, 0xA5, 0));
    a.push(asm::movz(5, 1000, 0));
    a.push(asm::orr(4, 1, 1));
    a.label("fill");
    a.push(asm::strb(3, 4, 0));
    a.push(asm::addi(4, 4, 1));
    a.push(asm::subi(5, 5, 1));
    a.cbnz_to(5, "fill");
    a.push(asm::hlt());
    let g = Guest::program("memset", a.finish());

    let mut reference: Option<Run> = None;
    for promote in [false, true] {
        for unroll in [1usize, 4] {
            for idioms in [false, true] {
                let run = bench::run(
                    &g,
                    CaptiveConfig {
                        idioms,
                        promote,
                        unroll_loops: unroll,
                        ..CaptiveConfig::default()
                    },
                );
                match &reference {
                    None => reference = Some(run),
                    Some(first) => assert_eq!(
                        run.differs(first),
                        None,
                        "promote={promote} unroll={unroll} idioms={idioms} diverged"
                    ),
                }
            }
        }
    }
}
