//! Golden counters of the dispatcher slow path: a small threaded-code
//! program — a jump table walked over 96 code pages (more than the 64-entry
//! fetch iTLB covers), `br`/`blr`/`ret`, guest MMU on, one bare `TLBI` and one
//! self-modifying store (followed by the `TLBI` that is its instruction-cache
//! maintenance) — run on Captive and on the QEMU-style baseline.
//!
//! Simulated cycles alone would not say *which* layer drifted; this pins the
//! dispatcher's own bookkeeping — slow dispatches, chained transfers, fetch
//! iTLB and code-cache hits and misses, invalidations, the stale-region
//! sweep — plus the final register file.  The constants were recorded on the
//! commit *before* the code cache lost its shard locks, so a change to the
//! index, the key hash or the run loops that alters a lookup, an eviction or
//! a counter visit shows up here by name.  A deliberate change to the
//! dispatch policy re-records them (the failure prints the new values).
//!
//! PR 19 re-recorded `cycles` and `cache.bytes_live` on both engines and
//! nothing else: the shared allocator's copy hand-over shortens the
//! generated blocks (Captive 250 321 → 243 805 cycles, 8 848 → 8 239 bytes;
//! QemuRef 438 379 → 428 950 cycles, 14 055 → 13 134 bytes) while every
//! dispatch, lookup, invalidation and sweep counter stays where it was.
//!
//! PR 21 re-recorded three Captive values and nothing else: cached guest
//! walks now outlive a `TLBI` that dirtied none of their table pages, so the
//! two `TLBI`s cost 104 fewer fetch walks and 4 fewer data-fault walks —
//! `itlb_hits` 2 899 → 3 003, `itlb_misses` 1 208 → 1 104, `cycles` 243 805
//! → 235 165 (104 × 60 + 4 × 600 = 8 640).  QemuRef is untouched.
//!
//! Predicted indirect links re-recorded seven Captive values and added one:
//! every `br` / `blr` / `ret` exit now chains to the first target it resolved
//! while its link holds, so 1 431 transfers (`predicted_transfers`, new) skip
//! the slow path — `slow_dispatches` 4 107 → 2 676, `chained_transfers` 20 →
//! 1 451, `chain_patches` 16 → 379, `itlb_hits` 3 003 → 2 092, `itlb_misses`
//! 1 104 → 584, `cache.hits` 3 974 → 2 543, `cycles` 235 165 → 189 655.
//! QemuRef refuses indirect links, and its constants stay as they were.
//!
//! QemuRef's one link policy (direct exits link across pages, like TCG's
//! `goto_tb`) re-recorded four QemuRef values and nothing else: the pin ran
//! the baseline without links before.  201 direct exits now follow a link,
//! and each skips one slow dispatch's soft-TLB fetch hit and cache lookup —
//! `chained_transfers` 0 → 201, `soft_tlb_hits` 8 143 → 7 942, `cache.hits`
//! 3 928 → 3 727, `cycles` 428 950 → 426 739 (201 × (dispatch 12 − chain 1)
//! = 2 211).  `blocks`, translations, flushes and the register file stay.
//!
//! QemuRef's blocks are cut by Captive's block translator since the two
//! engines share one, and it fetches every word after a block's first by
//! offset arithmetic within the page, as TCG's translator does.  QemuRef's
//! own loop probed the soft TLB for each of them, uncharged and always a
//! hit: `soft_tlb_hits` 7 942 → 7 064, the 1 258 translated instructions
//! less the 380 block entries.  Every other value, `cycles` 426 739
//! included, stays.

use bench::{Guest, Run};
use captive::Captive;
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
use guest_aarch64::sys::Engine;
use guest_aarch64::SysReg;
use qemu_ref::QemuRef;

const CODE_BASE: u64 = 0x1000;
const HANDLERS: usize = 80;
const LEAVES: usize = 16;
const HANDLER_BASE: u64 = 0x10_0000;
const TABLE_BASE: u64 = 0x40_0000;
const LEAF_TABLE_BASE: u64 = 0x42_0000;
const PT_POOL: u64 = 0x80_0000;
const SEQ_LEN: usize = 400;
const PASSES: u64 = 6;
/// Trips of the warm-up loop: enough to form a looping region, which the
/// `TLBI` then strands in a stale generation for the sweep to evict.
const WARM_TRIPS: u32 = 200;

/// A fixed pseudo-random stream (the program must not depend on a seed).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// The guest image (address, words) plus the x19 the guest must end with.
/// The program, and the sum its x19 must end at.
fn image() -> (Guest, u64) {
    let mut r = Lcg(15);
    let mut code = Vec::new();
    let (mut leaf_addr, mut leaf_k) = (Vec::new(), Vec::new());
    for i in 0..LEAVES {
        let at = HANDLER_BASE + ((HANDLERS + i) as u64) * 0x1000 + r.below(900) * 4;
        let k = 1 + r.below(4000);
        code.push((at, vec![asm::addi(19, 19, k as u32), asm::ret()]));
        leaf_addr.push(at);
        leaf_k.push(k);
    }
    let (mut handler_addr, mut handler_k, mut handler_leaf) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..HANDLERS {
        let at = HANDLER_BASE + (i as u64) * 0x1000 + r.below(900) * 4;
        let k = 1 + r.below(4000);
        let leaf = (i % 3 == 0).then(|| r.below(LEAVES as u64) as usize);
        let mut w = vec![asm::addi(19, 19, k as u32)];
        if let Some(leaf) = leaf {
            w.push(asm::ldr(2, 22, (leaf * 8) as u32));
            w.push(asm::blr(2));
        }
        w.extend([asm::ldr(1, 21, 0), asm::addi(21, 21, 8), asm::br(1)]);
        code.push((at, w));
        handler_addr.push(at);
        handler_k.push(k);
        handler_leaf.push(leaf);
    }
    let seq: Vec<usize> = (0..SEQ_LEN)
        .map(|_| r.below(HANDLERS as u64) as usize)
        .collect();
    // The self-modifying store rewrites the first instruction of the
    // handler the sequence visits first.
    let patched = seq[0];
    let patched_k = 1 + r.below(4000);

    let mut a = Assembler::new();
    a.mov_imm64(0, PT_POOL);
    a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
    a.push(asm::movz(0, 1, 0));
    a.push(asm::msr(SysReg::Sctlr as u32, 0));
    a.push(asm::movz(19, 0, 0));
    a.push(asm::movz(3, WARM_TRIPS, 0));
    a.label("warm");
    a.push(asm::addi(19, 19, 1));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "warm");
    a.mov_imm64(22, LEAF_TABLE_BASE);
    a.mov_imm64(24, PASSES);
    a.b_to("restart");
    // The table's last entry points here.
    a.label("again");
    let again = CODE_BASE + a.here() as u64 * 4;
    a.push(asm::subi(24, 24, 1));
    a.cbz_to(24, "done");
    a.push(asm::cmpi(24, 3));
    a.bcond_to(Cond::Ne, "no_tlbi");
    a.push(asm::tlbi());
    a.label("no_tlbi");
    a.push(asm::cmpi(24, 2));
    a.bcond_to(Cond::Ne, "restart");
    a.mov_imm64(5, handler_addr[patched]);
    a.mov_imm64(6, asm::addi(19, 19, patched_k as u32) as u64);
    a.push(asm::strw(6, 5, 0));
    // The guest's instruction-cache maintenance: the QEMU-style baseline
    // drops stale translations only on a translation-state change.
    a.push(asm::tlbi());
    a.label("restart");
    a.mov_imm64(21, TABLE_BASE);
    a.push(asm::ldr(1, 21, 0));
    a.push(asm::addi(21, 21, 8));
    a.push(asm::br(1));
    a.label("done");
    a.push(asm::hlt());
    code.push((CODE_BASE, a.finish()));

    let mut data: Vec<(u64, u64)> = seq
        .iter()
        .map(|&h| handler_addr[h])
        .chain([again])
        .enumerate()
        .map(|(i, target)| (TABLE_BASE + i as u64 * 8, target))
        .collect();
    data.extend(
        leaf_addr
            .iter()
            .enumerate()
            .map(|(i, &at)| (LEAF_TABLE_BASE + i as u64 * 8, at)),
    );

    // Identity page tables over everything the guest touches, loaded as
    // data.
    let rw = GuestPageFlags::kernel_rw();
    let mut tables = GuestTableImage::new(PT_POOL, PT_POOL + 0x10_0000);
    tables.identity(CODE_BASE, 0x1000, rw);
    tables.identity(HANDLER_BASE, ((HANDLERS + LEAVES) as u64) * 0x1000, rw);
    tables.identity(TABLE_BASE, (SEQ_LEN as u64 + 1) * 8, rw);
    tables.identity(LEAF_TABLE_BASE, LEAVES as u64 * 8, rw);
    data.extend(tables.words());

    // Passes run with x24 = PASSES down to 1; the store lands when the
    // counter reaches 2, so only the last two passes see the new constant.
    let pass_sum = |k_patched: u64| -> u64 {
        seq.iter()
            .map(|&h| {
                let k = if h == patched {
                    k_patched
                } else {
                    handler_k[h]
                };
                k + handler_leaf[h].map_or(0, |leaf| leaf_k[leaf])
            })
            .sum()
    };
    let expect_x19 =
        WARM_TRIPS as u64 + (PASSES - 2) * pass_sum(handler_k[patched]) + 2 * pass_sum(patched_k);
    let guest = Guest {
        name: "threaded code".into(),
        code,
        words: data,
        entry: CODE_BASE,
        ..Guest::default()
    };
    (guest, expect_x19)
}

/// Runs the program on `engine` to its clean halt and checks the sum.
fn run<E: Engine>(mut engine: E) -> (E, Run) {
    let (guest, expect_x19) = image();
    let run = bench::drive(&guest, &mut engine);
    assert_eq!(run.halt, 0);
    assert_eq!(run.regs[19], expect_x19, "the program's sum");
    (engine, run)
}

/// The final register file both engines must agree on.
const GOLDEN_REGS: [u64; 31] = [
    1, 4152, 1383076, 0, 0, 1132272, 169660019, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6940360, 0,
    4197512, 4325376, 0, 0, 0, 0, 0, 0, 0, 1196364,
];

/// (name, value) pairs, compared as one list so a failure prints them all.
type Counters = Vec<(&'static str, u64)>;

#[test]
fn captive_dispatch_counters_match_the_recorded_run() {
    let (c, run) = run(Captive::new(bench::captive_config("sync")));
    let (s, cs) = (run.stats, c.cache.stats());
    let got: Counters = vec![
        ("cycles", s.cycles),
        ("blocks", s.blocks),
        ("translations", s.translations),
        ("slow_dispatches", s.slow_dispatches),
        ("chained_transfers", s.chained_transfers),
        ("predicted_transfers", s.predicted_transfers),
        ("chain_patches", s.chain_patches),
        ("itlb_hits", s.itlb_hits),
        ("itlb_misses", s.itlb_misses),
        ("cache.hits", cs.hits),
        ("cache.misses", cs.misses),
        ("cache.invalidated_page", cs.invalidated_page),
        ("cache.evicted_stale_regions", cs.evicted_stale_regions),
        ("cache.regions_live", cs.regions_live),
        ("cache.bytes_live", cs.bytes_live),
        ("cache.epoch", c.cache.epoch()),
    ];
    let golden: Counters = vec![
        ("cycles", 189131),
        ("blocks", 4127),
        ("translations", 133),
        ("slow_dispatches", 2676),
        ("chained_transfers", 1451),
        ("predicted_transfers", 1431),
        ("chain_patches", 379),
        ("itlb_hits", 2092),
        ("itlb_misses", 584),
        ("cache.hits", 2543),
        ("cache.misses", 133),
        ("cache.invalidated_page", 1),
        ("cache.evicted_stale_regions", 1),
        ("cache.regions_live", 131),
        ("cache.bytes_live", 8205),
        ("cache.epoch", 1),
    ];
    assert_eq!(got, golden);
    assert_eq!(run.regs, GOLDEN_REGS);
}

#[test]
fn qemu_ref_dispatch_counters_match_the_recorded_run() {
    let (q, run) = run(QemuRef::with_goto_tb(bench::guest_ram()));
    let (s, cs) = (run.stats, q.cache.stats());
    let got: Counters = vec![
        ("cycles", s.cycles),
        ("blocks", s.blocks),
        ("translations", s.translations),
        ("chained_transfers", s.chained_transfers),
        ("soft_tlb_hits", q.runtime.soft_tlb_hits),
        ("soft_tlb_misses", q.runtime.soft_tlb_misses),
        ("cache.hits", cs.hits),
        ("cache.misses", cs.misses),
        ("cache.invalidated_full", cs.invalidated_full),
        ("cache.regions_live", cs.regions_live),
        ("cache.bytes_live", cs.bytes_live),
        ("cache.epoch", q.cache.epoch()),
    ];
    let golden: Counters = vec![
        ("cycles", 426739),
        ("blocks", 4308),
        ("translations", 380),
        ("chained_transfers", 201),
        ("soft_tlb_hits", 7064),
        ("soft_tlb_misses", 290),
        ("cache.hits", 3727),
        ("cache.misses", 380),
        ("cache.invalidated_full", 255),
        ("cache.regions_live", 125),
        ("cache.bytes_live", 13134),
        ("cache.epoch", 4),
    ];
    assert_eq!(got, golden);
    assert_eq!(run.regs, GOLDEN_REGS);
}
