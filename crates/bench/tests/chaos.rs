//! Deterministic chaos tests: the same fault-injection seed must produce
//! byte-identical final architectural state on every engine configuration,
//! and repeated runs of one configuration must reproduce every counter.
//!
//! The pinned seeds below run in CI on every push; the proptest widens the
//! seed space locally.

use bench::chaos::{
    chaos_captive, chaos_captive_configs, chaos_plan, chaos_qemu, run_chaos, ChaosOutcome,
};
use bench::RunStats;
use proptest::prelude::*;
use qemu_ref::QemuRef;

/// Seeds pinned in CI: chosen arbitrarily, then frozen so a regression on
/// any of them reproduces on every machine.
const PINNED_SEEDS: [u64; 4] = [0x5EED_0001, 0xDEAD_BEEF, 0xCAFE_F00D, 42];

/// One run of a plan: the final state and the counters.
type Run = (ChaosOutcome, RunStats);

/// What separates two runs of one plan: the final state, or else the first
/// counter `compare` (a `RunStats::differs_across_*`) names.
fn difference(
    a: &Run,
    b: &Run,
    compare: fn(&RunStats, &RunStats) -> Option<String>,
) -> Option<String> {
    if a.0 != b.0 {
        return Some(format!("state {:?} vs {:?}", a.0, b.0));
    }
    compare(&a.1, &b.1)
}

/// The dispatcher's entry partition: every executed block was entered either
/// through a link or through the slow path, never both and never neither.
fn assert_entries_partition(stats: &RunStats, what: &str) {
    assert_eq!(
        stats.blocks,
        stats.chained_transfers + stats.slow_dispatches,
        "{what}: blocks vs chained transfers + slow dispatches"
    );
}

/// Runs one seed on every Captive configuration plus the QEMU baseline and
/// asserts a single architectural outcome.
fn assert_one_outcome(seed: u64) {
    let plan = chaos_plan(seed);
    let reference = run_chaos(&plan, chaos_qemu(&plan));
    let (state, stats) = &reference;
    assert_entries_partition(stats, &format!("seed {seed:#x}: the QEMU baseline"));
    // The guest's own books must balance: x20 counted one IRQ per delivery
    // (the scheduled lines plus exactly one one-shot timer fire plus one per
    // virtio completion), and x21 counted one synchronous exception per
    // injected faulting op.
    assert_eq!(
        state.regs[20],
        plan.schedule.len() as u64 + 1 + plan.virtio_submits,
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
    // The benchmark's baseline links across pages, through the same IRQs,
    // SMC, TLBIs, DMA and remaps.
    let mut linked = QemuRef::with_goto_tb(bench::guest_ram());
    linked.attach_virtio(plan.virtio.clone());
    let linked = run_chaos(&plan, linked);
    assert_entries_partition(&linked.1, &format!("seed {seed:#x}: QemuRef::with_goto_tb"));
    assert_eq!(
        difference(&linked, &reference, RunStats::differs_across_engines),
        None,
        "seed {seed:#x}: QemuRef::with_goto_tb diverged from the QEMU baseline"
    );
    for (name, cfg) in chaos_captive_configs() {
        let ours = run_chaos(&plan, chaos_captive(&plan, cfg));
        assert_entries_partition(&ours.1, &format!("seed {seed:#x}: {name}"));
        assert_eq!(
            difference(&ours, &reference, RunStats::differs_across_engines),
            None,
            "seed {seed:#x}: {name} diverged from the QEMU baseline"
        );
        // The forced final identity read DMAs over the live used.idx wait
        // loop, so the default engine must have walked its external
        // invalidation path (the tiny cache may legitimately have evicted
        // the page's translations first, so only the full-cache configs are
        // held to it).
        if name == "default" {
            assert!(
                ours.1.external_invalidations > 0,
                "seed {seed:#x}: device DMA onto live code must invalidate"
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
    for (name, cfg) in chaos_captive_configs() {
        let a = run_chaos(&plan, chaos_captive(&plan, cfg.clone()));
        let b = run_chaos(&plan, chaos_captive(&plan, cfg));
        assert_eq!(
            difference(&a, &b, RunStats::differs_across_reruns),
            None,
            "{name}"
        );
    }
    let qa = run_chaos(&plan, chaos_qemu(&plan));
    let qb = run_chaos(&plan, chaos_qemu(&plan));
    assert_eq!(
        difference(&qa, &qb, RunStats::differs_across_reruns),
        None,
        "qemu"
    );
}

#[test]
fn worker_queue_flood_is_deterministic_and_mode_blind() {
    // Many loop heads publish tier-1 requests in the same outer pass and all
    // hit their install points in the next: with a single worker the queue
    // backs up and results arrive out of order (the parked-result path).
    // Architectural state and modeled cycles must match the synchronous
    // engine exactly, and a tiered rerun must reproduce every counter.
    let w = workloads::loop_flood(12, 9, 30);
    let run = |tier_workers: Option<usize>| {
        let mut c = captive::Captive::new(captive::CaptiveConfig {
            tier_workers,
            ..captive::CaptiveConfig::default()
        });
        c.load_program(workloads::CODE_BASE, &w.words);
        c.set_entry(w.entry);
        let exit = c.run(bench::BLOCK_BUDGET);
        assert!(
            matches!(exit, captive::RunExit::GuestHalted { .. }),
            "flood: unexpected exit {exit:?}"
        );
        // Every engine must count all 12 loops x 9 trips x 30 passes.
        assert_eq!(c.guest_reg(9), 12 * 9 * 30, "flood increment count");
        c.stats()
    };
    let flooded = run(Some(1));
    let flooded_again = run(Some(1));
    let sync = run(None);
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
    let (_, stats) = run_chaos(
        &plan,
        chaos_captive(&plan, bench::captive_config("tinycache")),
    );
    assert!(
        stats.capacity_evictions > 0,
        "a 4-region cache must evict under the chaos working set"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adversarial-schedule sweep: any seed's injected SMC stores, faults
    /// and interrupt schedule must leave all engines in one final state.
    #[test]
    fn random_seeds_agree_across_engines(seed in 0u64..u64::MAX) {
        let plan = chaos_plan(seed);
        let reference = run_chaos(&plan, chaos_qemu(&plan));
        for (name, cfg) in chaos_captive_configs() {
            let ours = run_chaos(&plan, chaos_captive(&plan, cfg));
            prop_assert_eq!(
                difference(&ours, &reference, RunStats::differs_across_engines),
                None,
                "seed {:#x}: {} diverged",
                seed,
                name
            );
        }
    }
}
