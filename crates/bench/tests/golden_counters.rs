//! Counter pins for the metrics registry (PR 20), recorded on its *parent*
//! commit: every deterministic `bench::Measurement` field and side-map entry
//! of five fixed runs, as literal `(name, value)` lists.  The refactor that
//! replaced `Measurement` with the one `RunStats` table kept every value;
//! only the harness below the lists changed with it (it used to spell the
//! parent's fields out; now it looks each name up in the walk).
//!
//! Name map from the parent's spellings, stated once: a `Measurement` field
//! keeps its name; the side map's `virtio.<x>` is `virtio_<x>`, except
//! `virtio.external_invalidations`, which is `external_invalidations`;
//! `idiom.hit.<rule>` is `idiom_hits.<rule>`.  A side-map entry the parent
//! only recorded when the device was used is pinned only for the runs that
//! recorded it.  The parent's `idiom.cand.<rule>` entries are no longer
//! pinned: the counter went with the swappable rule table, and under the
//! one built-in rule set every recognised site is rewritten, so each of
//! them equalled its `idiom_hits.<rule>` pin.
//!
//! Added since: the allocator's `regalloc_spill_slots` / `regalloc_splits`
//! lines, pinned at 0 on all six lists (none of those runs spills or splits),
//! and a sixth run that does split, `idiom.branch` under `sync`, pinned on
//! the commit that introduced splitting — its cycles and promotion counts are
//! the ones the unsplit allocator gave.
//!
//! Re-recorded since by dropping the back-edge's trip weight, whose four
//! encoded bytes every resident `BackEdge` carried: `code_bytes` and
//! `bytes_live` 2067 → 2059 (`429.mcf`, two back-edges), 6517 → 6501
//! (`stream.guarded`, four), 4786 → 4778 (`io.read` with a fault, two) and
//! 30347 → 30247 (`loop_flood`, 25).  The same change dropped the
//! partial-forwarding line and the `bulk.memset` rule's hit line, 0 in
//! every list, with the counter and the rule.
//!
//! Re-recorded since by QemuRef's one link policy (direct exits link across
//! pages, like TCG's `goto_tb`; the `qemu` pins ran the baseline without
//! links before).  Every change is on the two QemuRef lists, and no
//! `Architectural` line moved.  `429.mcf`: `chained_transfers` 0 → 121 018,
//! `chain_patches` 0 → 6, `slow_dispatches` 121 025 → 7 and `cycles`
//! 16 288 835 → 14 957 637 (121 018 × (dispatch 12 − chain 1)).  `io.read`
//! with a fault: `chained_transfers` 0 → 264, `chain_patches` 0 → 10,
//! `slow_dispatches` 276 → 13 and `cycles` 47 147 → 44 382; cheaper trips
//! let the guest's wait for the device's completion spin one block longer,
//! so `blocks` 276 → 277, `guest_insns` 1 500 → 1 503 and `host_insns`
//! 8 806 → 8 846.
//!
//! The dynamic instructions-saved line went from all six lists with its
//! counter: it was a pro-rated estimate of the optimiser's saving, which the
//! waterfall measures exactly as the cycle difference between configurations.

const MCF_CAPTIVE: &[(&str, u64)] = &[
    ("cycles", 1090223),
    ("host_insns", 677973),
    ("guest_insns", 495407),
    ("translations", 5),
    ("code_bytes", 2059),
    ("chained_transfers", 38),
    ("chain_patches", 7),
    ("slow_dispatches", 8),
    ("itlb_hits", 7),
    ("itlb_misses", 1),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 90740),
    ("regions_formed", 2),
    ("regions_unrolled", 2),
    ("loop_regions_formed", 2),
    ("backedge_transfers", 30239),
    ("blocks", 46),
    ("opt_dead_stores", 16),
    ("opt_forwarded_loads", 65),
    ("opt_copies_folded", 172),
    ("opt_dce_insns", 173),
    ("opt_promoted_slots", 8),
    ("opt_hoisted_loads", 92),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 14),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 2059),
    ("regions_live", 5),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 2),
    ("regions_installed_async", 2),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 2),
    ("idiom_hits.fuse.cmpbr", 6),
    ("idiom_hits.fuse.tstbr", 0),
    ("idiom_hits.fuse.cbz", 6),
    ("idiom_hits.addr.fold", 2),
];
const MCF_QEMU: &[(&str, u64)] = &[
    ("cycles", 14957637),
    ("host_insns", 3095256),
    ("guest_insns", 495369),
    ("translations", 5),
    ("code_bytes", 1598),
    ("chained_transfers", 121018),
    ("chain_patches", 6),
    ("slow_dispatches", 7),
    ("itlb_hits", 0),
    ("itlb_misses", 0),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 0),
    ("regions_formed", 0),
    ("regions_unrolled", 0),
    ("loop_regions_formed", 0),
    ("backedge_transfers", 0),
    ("blocks", 121025),
    ("opt_dead_stores", 0),
    ("opt_forwarded_loads", 0),
    ("opt_copies_folded", 0),
    ("opt_dce_insns", 3),
    ("opt_promoted_slots", 0),
    ("opt_hoisted_loads", 0),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 0),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 0),
    ("regions_live", 0),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 0),
    ("regions_installed_async", 0),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 0),
];
const GUARDED_SYNC: &[(&str, u64)] = &[
    ("cycles", 5169019),
    ("host_insns", 3933794),
    ("guest_insns", 902080),
    ("translations", 7),
    ("code_bytes", 6501),
    ("chained_transfers", 141),
    ("chain_patches", 10),
    ("slow_dispatches", 28),
    ("itlb_hits", 27),
    ("itlb_misses", 1),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 143276),
    ("regions_formed", 4),
    ("regions_unrolled", 4),
    ("loop_regions_formed", 4),
    ("backedge_transfers", 20436),
    ("blocks", 169),
    ("opt_dead_stores", 7),
    ("opt_forwarded_loads", 26),
    ("opt_copies_folded", 389),
    ("opt_dce_insns", 461),
    ("opt_promoted_slots", 20),
    ("opt_hoisted_loads", 224),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 45),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 6501),
    ("regions_live", 7),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 0),
    ("regions_installed_async", 0),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 0),
    ("idiom_hits.fuse.cmpbr", 19),
    ("idiom_hits.fuse.tstbr", 21),
    ("idiom_hits.fuse.cbz", 2),
    ("idiom_hits.addr.fold", 3),
];
const VBLK_FAULT_CAPTIVE: &[(&str, u64)] = &[
    ("cycles", 8707),
    ("host_insns", 3256),
    ("guest_insns", 1597),
    ("translations", 9),
    ("code_bytes", 4778),
    ("chained_transfers", 33),
    ("chain_patches", 10),
    ("slow_dispatches", 13),
    ("itlb_hits", 12),
    ("itlb_misses", 1),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 193),
    ("regions_formed", 2),
    ("regions_unrolled", 2),
    ("loop_regions_formed", 2),
    ("backedge_transfers", 63),
    ("blocks", 46),
    ("opt_dead_stores", 21),
    ("opt_forwarded_loads", 107),
    ("opt_copies_folded", 90),
    ("opt_dce_insns", 102),
    ("opt_promoted_slots", 7),
    ("opt_hoisted_loads", 36),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 13),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 4778),
    ("regions_live", 9),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 2),
    ("regions_installed_async", 2),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 2),
    ("idiom_hits.fuse.cmpbr", 5),
    ("idiom_hits.fuse.tstbr", 0),
    ("idiom_hits.fuse.cbz", 8),
    ("idiom_hits.addr.fold", 0),
    ("virtio_kicks", 1),
    ("virtio_submissions", 4),
    ("virtio_completions", 4),
    ("virtio_irqs", 0),
    ("virtio_fault_injections", 1),
    ("virtio_dma_bytes", 1920),
    ("virtio_io_errors", 0),
    ("external_invalidations", 0),
];
const VBLK_FAULT_QEMU: &[(&str, u64)] = &[
    ("cycles", 44382),
    ("host_insns", 8846),
    ("guest_insns", 1503),
    ("translations", 10),
    ("code_bytes", 1108),
    ("chained_transfers", 264),
    ("chain_patches", 10),
    ("slow_dispatches", 13),
    ("itlb_hits", 0),
    ("itlb_misses", 0),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 0),
    ("regions_formed", 0),
    ("regions_unrolled", 0),
    ("loop_regions_formed", 0),
    ("backedge_transfers", 0),
    ("blocks", 277),
    ("opt_dead_stores", 0),
    ("opt_forwarded_loads", 0),
    ("opt_copies_folded", 0),
    ("opt_dce_insns", 67),
    ("opt_promoted_slots", 0),
    ("opt_hoisted_loads", 0),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 0),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 0),
    ("regions_live", 0),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 0),
    ("regions_installed_async", 0),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 0),
    ("virtio_kicks", 1),
    ("virtio_submissions", 4),
    ("virtio_completions", 4),
    ("virtio_irqs", 0),
    ("virtio_fault_injections", 1),
    ("virtio_dma_bytes", 1920),
    ("virtio_io_errors", 0),
    ("external_invalidations", 1),
];
const FLOOD_ONE_WORKER: &[(&str, u64)] = &[
    ("cycles", 40109),
    ("host_insns", 20683),
    ("guest_insns", 25757),
    ("translations", 27),
    ("code_bytes", 30247),
    ("chained_transfers", 735),
    ("chain_patches", 62),
    ("slow_dispatches", 209),
    ("itlb_hits", 208),
    ("itlb_misses", 1),
    ("dtlb_hits", 0),
    ("dtlb_misses", 0),
    ("region_transfers", 1991),
    ("regions_formed", 25),
    ("regions_unrolled", 25),
    ("loop_regions_formed", 25),
    ("backedge_transfers", 336),
    ("blocks", 944),
    ("opt_dead_stores", 62),
    ("opt_forwarded_loads", 40),
    ("opt_copies_folded", 1401),
    ("opt_dce_insns", 1402),
    ("opt_promoted_slots", 63),
    ("opt_hoisted_loads", 1106),
    ("opt_fp_forwarded", 0),
    ("opt_idioms_fused", 490),
    ("goto_tb_transfers", 0),
    ("irqs_delivered", 0),
    ("timer_irqs", 0),
    ("capacity_evictions", 0),
    ("bytes_live", 30247),
    ("regions_live", 27),
    ("regions_evicted", 0),
    ("regions_quarantined", 0),
    ("lower_bailouts", 0),
    ("regalloc_spill_slots", 0),
    ("regalloc_splits", 0),
    ("tier1_requests", 25),
    ("regions_installed_async", 25),
    ("stale_discards", 0),
    ("reuse_hits", 0),
    ("reuse_misses", 25),
    ("idiom_hits.fuse.cmpbr", 0),
    ("idiom_hits.fuse.tstbr", 0),
    ("idiom_hits.fuse.cbz", 490),
    ("idiom_hits.addr.fold", 0),
];

const BRANCH_SYNC: &[(&str, u64)] = &[
    ("cycles", 8122091),
    ("host_insns", 3825442),
    ("regions_formed", 4),
    ("loop_regions_formed", 4),
    ("backedge_transfers", 1018),
    ("region_entries", 89699),
    ("opt_promoted_slots", 13),
    ("opt_hoisted_loads", 144),
    ("regalloc_spill_slots", 11),
    ("regalloc_splits", 11),
];

use bench::{Guest, RunStats};
use captive::CaptiveConfig;
use workloads::Workload;

/// The counters of `w` run on `engine`.
fn run(w: &Workload, engine: impl Into<bench::EngineConfig>) -> RunStats {
    bench::run(&w.into(), engine).stats
}

/// Every pinned `(name, value)` of `golden` must be what `m` reports.
fn check(run: &str, golden: &[(&str, u64)], m: &RunStats) {
    let walk = m.walk();
    for &(name, want) in golden {
        let got = walk
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{run}: counter {name} is gone"));
        assert_eq!(got.value, want, "{run}: {name}");
    }
}

/// The fault seed of the faulty-disk run: the first that bites inside the
/// first three of `io.read`'s four requests.
fn io_fault_config() -> hvm::VirtioBlkConfig {
    let fault_seed = (1u64..)
        .find(|&s| {
            let plan = hvm::FaultPlan::seeded(s, 3);
            (0..3).any(|q| plan.decide(q, false) != hvm::FaultKind::None)
        })
        .expect("some seed bites");
    hvm::VirtioBlkConfig {
        fault_seed: Some(fault_seed),
        exempt_after: 3,
        ..workloads::vblk_config()
    }
}

#[test]
fn mcf_on_both_engines() {
    let mcf = &workloads::spec_int(workloads::Scale(1))[3];
    assert_eq!(mcf.name, "429.mcf");
    check("429.mcf captive", MCF_CAPTIVE, &run(mcf, "default"));
    check("429.mcf qemu", MCF_QEMU, &run(mcf, "qemu"));
}

#[test]
fn guarded_stream_under_sync() {
    let guarded = workloads::loop_kernels(workloads::Scale(1))
        .into_iter()
        .find(|w| w.name == "stream.guarded")
        .expect("stream.guarded is a loop kernel");
    check("stream.guarded sync", GUARDED_SYNC, &run(&guarded, "sync"));
}

#[test]
fn faulty_disk_read_on_both_engines() {
    let g = Guest {
        virtio: Some(io_fault_config()),
        ..(&workloads::vblk_read(4)).into()
    };
    let c = bench::run(&g, "default").stats;
    check("io.read+fault captive", VBLK_FAULT_CAPTIVE, &c);
    let q = bench::run(&g, "qemu").stats;
    check("io.read+fault qemu", VBLK_FAULT_QEMU, &q);
}

#[test]
fn loop_flood_through_one_tier_worker() {
    let flood = workloads::loop_flood(12, 9, 30);
    let cfg = CaptiveConfig {
        tier_workers: Some(1),
        ..CaptiveConfig::default()
    };
    check("loop_flood one worker", FLOOD_ONE_WORKER, &run(&flood, cfg));
}

#[test]
fn branch_idioms_under_sync_split_instead_of_spilling() {
    let branch = workloads::idiom_kernels(workloads::Scale(1))
        .into_iter()
        .find(|w| w.name == "idiom.branch")
        .expect("idiom.branch is an idiom kernel");
    check("idiom.branch sync", BRANCH_SYNC, &run(&branch, "sync"));
}
