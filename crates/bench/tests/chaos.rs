//! Deterministic chaos tests: the same fault-injection seed must produce
//! byte-identical final architectural state on every engine of
//! `bench::EQUIVALENT`, and repeated runs of one engine must reproduce every
//! counter.
//!
//! The pinned seeds below run in CI on every push; the proptest widens the
//! seed space locally.

use bench::chaos::chaos_plan;
use bench::{assert_agree, RunStats, EQUIVALENT};
use proptest::prelude::*;

/// Seeds pinned in CI: chosen arbitrarily, then frozen so a regression on
/// any of them reproduces on every machine.
const PINNED_SEEDS: [u64; 4] = [0x5EED_0001, 0xDEAD_BEEF, 0xCAFE_F00D, 42];

/// The dispatcher's entry partition: every executed block was entered either
/// through a link or through the slow path, never both and never neither.
fn assert_entries_partition(stats: &RunStats, what: &str) {
    assert_eq!(
        stats.blocks,
        stats.chained_transfers + stats.slow_dispatches,
        "{what}: blocks vs chained transfers + slow dispatches"
    );
}

/// Runs one seed on every engine of the equivalence roster and asserts a
/// single architectural outcome.
fn assert_one_outcome(seed: u64) {
    let plan = chaos_plan(seed);
    let runs = assert_agree(&plan.guest, &EQUIVALENT);
    let (state, stats) = (&runs[0].1, &runs[0].1.stats);
    // The guest's own books must balance: x20 counted one IRQ per delivery
    // (the scheduled lines plus exactly one one-shot timer fire plus one per
    // virtio completion), and x21 counted one synchronous exception per
    // injected faulting op.
    assert_eq!(
        state.regs[20],
        plan.guest.irqs.len() as u64 + 1 + plan.virtio_submits,
        "seed {seed:#x}: IRQ deliveries"
    );
    assert_eq!(state.regs[20], stats.irqs_delivered);
    assert_eq!(
        state.regs[21], plan.sync_ops as u64,
        "seed {seed:#x}: synchronous exceptions"
    );
    assert_eq!(
        stats.virtio_completions, plan.virtio_submits,
        "seed {seed:#x}: every submitted request retires"
    );
    for (name, run) in &runs {
        assert_entries_partition(&run.stats, &format!("seed {seed:#x}: {name}"));
        // The forced final identity read DMAs over the live used.idx wait
        // loop, so every Captive configuration with the full code cache must
        // have walked its external invalidation path (the tiny cache may
        // legitimately have evicted the page's translations first).
        if !name.starts_with("qemu") && *name != "tinycache" {
            assert!(
                run.stats.external_invalidations > 0,
                "seed {seed:#x}: {name}: device DMA onto live code must invalidate"
            );
        }
    }
}

#[test]
fn pinned_seed_0() {
    assert_one_outcome(PINNED_SEEDS[0]);
}

#[test]
fn pinned_seed_1() {
    assert_one_outcome(PINNED_SEEDS[1]);
}

#[test]
fn pinned_seed_2() {
    assert_one_outcome(PINNED_SEEDS[2]);
}

#[test]
fn pinned_seed_3() {
    assert_one_outcome(PINNED_SEEDS[3]);
}

#[test]
fn same_seed_reproduces_every_counter() {
    let plan = chaos_plan(PINNED_SEEDS[0]);
    for name in EQUIVALENT {
        let (a, b) = (bench::run(&plan.guest, name), bench::run(&plan.guest, name));
        let differs = a
            .differs(&b)
            .or_else(|| a.stats.differs_across_reruns(&b.stats));
        assert_eq!(differs, None, "{name}");
    }
}

#[test]
fn worker_queue_flood_is_deterministic_and_mode_blind() {
    // Many loop heads publish tier-1 requests in the same outer pass and all
    // hit their install points in the next: with a single worker the queue
    // backs up and results arrive out of order (the parked-result path).
    // Architectural state and modeled cycles must match the synchronous
    // engine exactly, and a tiered rerun must reproduce every counter.
    let flood = bench::Guest::from(&workloads::loop_flood(12, 9, 30));
    let run = |tier_workers: Option<usize>| {
        let run = bench::run(
            &flood,
            captive::CaptiveConfig {
                tier_workers,
                ..captive::CaptiveConfig::default()
            },
        );
        // Every engine must count all 12 loops x 9 trips x 30 passes.
        assert_eq!(run.regs[9], 12 * 9 * 30, "flood increment count");
        run
    };
    let flooded_run = run(Some(1));
    let flooded_again = run(Some(1)).stats;
    let sync_run = run(None);
    assert_eq!(flooded_run.differs(&sync_run), None, "tiered against sync");
    let (flooded, sync) = (flooded_run.stats, sync_run.stats);
    assert!(
        flooded.tier1_requests >= 12,
        "every loop head publishes: {} requests",
        flooded.tier1_requests
    );
    assert!(
        flooded.regions_installed_async >= 10,
        "the flood drains through the worker: {} async installs",
        flooded.regions_installed_async
    );
    // Workers trace from branch heats frozen at publish time while the
    // synchronous former sees live heats at fire time, so in a dense
    // multi-head program the chosen region shapes (and therefore modeled
    // cost) may differ slightly — loop promotion widens the stakes, since a
    // differently-shaped region also promotes a different carrier set — but
    // never by more than a few percent, and the architectural result (x9
    // above) is identical in every mode.  The bound is relative to a total
    // that PR 19's move coalescing shrank by 19 % while the shape gap stayed
    // where it was: 1 438 of 57 371 cycles (2.5 %) before, 1 494 of 46 383
    // (3.2 %) after — hence 4 %, not 3 %; `regions_formed` equality below is
    // the part that says the two modes still build the same regions.
    assert!(
        flooded.cycles <= sync.cycles + sync.cycles * 4 / 100,
        "tiered cost stays within 4% of synchronous: {} vs {}",
        flooded.cycles,
        sync.cycles
    );
    assert_eq!(flooded.regions_formed, sync.regions_formed);
    assert_eq!(
        flooded.differs_across_reruns(&flooded_again),
        None,
        "a tiered rerun reproduces every counter"
    );
}

#[test]
fn tiny_cache_evicts_but_still_agrees() {
    // The tiny-cache configuration is only a meaningful degradation test if
    // the bound actually bites during the chaos run.
    let plan = chaos_plan(PINNED_SEEDS[1]);
    assert!(
        bench::run(&plan.guest, "tinycache")
            .stats
            .capacity_evictions
            > 0,
        "a 4-region cache must evict under the chaos working set"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adversarial-schedule sweep: any seed's injected SMC stores, faults
    /// and interrupt schedule must leave all engines in one final state.
    #[test]
    fn random_seeds_agree_across_engines(seed in 0u64..u64::MAX) {
        assert_agree(&chaos_plan(seed).guest, &EQUIVALENT);
    }
}
