//! What `figures` used to assert from six hand-rolled sections (`chaining`,
//! `regions`, `loops`, `promote`, `opt`, `idioms`), as table-driven cases
//! under the tier-1 gate: same kernels, same configuration pairs, same
//! bounds.  A case is an [`Ablation`] — a kernel set, the configuration with
//! a mechanism and the one without it — and running it holds the invariant
//! all six shared: the mechanism never costs modeled cycles, so a case whose
//! pair is swapped fails.  Each test then adds what its own mechanism must
//! show, per kernel and across the set.  `figures -- waterfall` prints the
//! same kernels under the same configurations.
//!
//! The rest of the former sections is held elsewhere: the idiom rules'
//! architectural invisibility in `idioms.rs`, the hot loop's region bar
//! (> 10 000 stitched transfers) in `cross_system.rs`, which also holds the
//! interrupt-storm and timer-tick kernels; the virtio kernels are
//! `virtio.rs`'s.

use bench::RunStats;
use dbt::RuleKind;
use workloads::{Scale, Workload};

/// One ablation: the kernels, and the two Captive configurations (names of
/// `bench::CAPTIVE_CONFIGS` joined with `+`) that differ by the mechanism.
struct Ablation {
    mechanism: &'static str,
    kernels: Vec<Workload>,
    with: &'static str,
    without: &'static str,
}

/// One kernel's two runs.
struct Pair {
    kernel: &'static str,
    with: RunStats,
    without: RunStats,
}

impl Pair {
    /// How many times fewer modeled cycles the mechanism leaves.
    fn gain(&self) -> f64 {
        self.without.cycles as f64 / self.with.cycles as f64
    }
}

impl Ablation {
    /// Runs every kernel both ways; the mechanism may not change the
    /// outcome ([`bench::assert_agree`]) or cost cycles on any.
    fn run(&self) -> Vec<Pair> {
        let pair = |w: &Workload| {
            let runs = bench::assert_agree(&w.into(), &[self.with, self.without]);
            let p = Pair {
                kernel: w.name,
                with: runs[0].1.stats,
                without: runs[1].1.stats,
            };
            assert!(
                p.with.cycles <= p.without.cycles,
                "{}: {} regressed cycles: {} under {} > {} under {}",
                p.kernel,
                self.mechanism,
                p.with.cycles,
                self.with,
                p.without.cycles,
                self.without
            );
            p
        };
        self.kernels.iter().map(pair).collect()
    }
}

/// The pair of the kernel called `name`.
fn of<'a>(pairs: &'a [Pair], name: &str) -> &'a Pair {
    let found = pairs.iter().find(|p| p.kernel == name);
    found.unwrap_or_else(|| panic!("{name} is not in the kernel set"))
}

/// The counters of `w` on the engine named `engine`.
fn run(w: &Workload, engine: &str) -> RunStats {
    bench::run(&w.into(), engine).stats
}

fn spec_int(first: usize) -> Vec<Workload> {
    let mut ws = workloads::spec_int(Scale(1));
    ws.truncate(first);
    ws
}

/// The dispatch-bound multi-block loop: the shape whose per-iteration cost
/// is dominated by the machinery chaining and back-edges remove.
fn hot_loop() -> Workload {
    bench::micro_workload(&simbench::same_page_direct(10_000))
}

fn with_hot_loop(mut kernels: Vec<Workload>) -> Vec<Workload> {
    kernels.push(hot_loop());
    kernels
}

#[test]
fn chaining_never_costs_cycles_on_either_engine() {
    let chaining = Ablation {
        mechanism: "chaining",
        kernels: with_hot_loop(spec_int(4)),
        with: "chain-only",
        without: "nochain",
    };
    chaining.run();
    for w in &chaining.kernels {
        let runs = bench::assert_agree(&w.into(), &["qemu", "qemu+chain"]);
        let (q, qc) = (&runs[0].1.stats, &runs[1].1.stats);
        assert!(
            qc.cycles <= q.cycles,
            "{}: qemu chaining regressed ({} > {})",
            w.name,
            qc.cycles,
            q.cycles
        );
    }
}

#[test]
fn regions_never_cost_cycles_and_absorb_interpreter_entries() {
    let regions = Ablation {
        mechanism: "regions",
        kernels: with_hot_loop(spec_int(4)),
        with: "sync",
        without: "chain-only",
    };
    for p in regions.run() {
        let (sb, chain) = (&p.with, &p.without);
        if sb.regions_formed > 0 {
            assert!(
                sb.region_transfers > 0,
                "{}: regions formed but no stitched transfers",
                p.kernel
            );
            assert!(
                sb.blocks < chain.blocks,
                "{}: regions did not reduce interpreter entries ({} vs {})",
                p.kernel,
                sb.blocks,
                chain.blocks
            );
        }
    }
}

#[test]
fn looping_regions_close_trip_and_pay_on_the_multi_block_loop() {
    // Promotion is pinned off so the delta isolates the back-edge machinery;
    // the promotion case measures what it adds on top.
    let loops = Ablation {
        mechanism: "looping regions",
        kernels: with_hot_loop(workloads::loop_kernels(Scale(1))),
        with: "nopromote+sync",
        without: "chain-only",
    };
    let pairs = loops.run();
    for p in &pairs {
        let (on, chain) = (&p.with, &p.without);
        assert!(
            on.loop_regions_formed >= 1,
            "{}: no back-edge region formed",
            p.kernel
        );
        assert!(
            on.backedge_transfers > 0,
            "{}: back-edge regions formed but never tripped",
            p.kernel
        );
        assert!(
            on.blocks < chain.blocks,
            "{}: dispatcher entries per trip must drop ({} vs {})",
            p.kernel,
            on.blocks,
            chain.blocks
        );
    }
    // The acceptance bar (measured 1.964x when the gate was set, 2.029x now).
    let gain = of(&pairs, hot_loop().name).gain();
    assert!(
        gain >= 1.5,
        "the multi-block-loop workload must run >= 1.5x fewer modeled cycles \
         with looping regions than with chaining alone (got {gain:.3}x)"
    );
}

#[test]
fn promotion_promotes_hoists_and_pays_on_the_guarded_stream() {
    let promotion = |kernels| Ablation {
        mechanism: "promotion",
        kernels,
        with: "sync",
        without: "nopromote+sync",
    };
    let pairs = promotion(workloads::loop_kernels(Scale(1))).run();
    for p in &pairs {
        assert!(
            p.with.jit.opt_promoted_slots >= 1,
            "{}: no regfile slot promoted to a loop carrier",
            p.kernel
        );
        assert!(
            p.with.jit.opt_hoisted_loads >= 1,
            "{}: no loop-invariant regfile load hoisted",
            p.kernel
        );
    }
    // The acceptance bar: a fat loop body whose regfile traffic dominates
    // once the dispatch layer is gone.
    let gain = of(&pairs, "stream.guarded").gain();
    assert!(
        gain >= 1.15,
        "stream.guarded must run >= 1.15x fewer modeled cycles with promotion \
         on vs off (got {gain:.3}x)"
    );
    // The no-regression rider: the branchy integer kernels, where trial
    // allocation should veto most candidates.
    promotion(spec_int(4)).run();
}

#[test]
fn the_goto_tb_baseline_is_honest() {
    // The goto_tb-enabled QEMU the loop kernels are compared with must
    // itself be no slower than same-page chaining on them ...
    for w in workloads::loop_kernels(Scale(1)) {
        assert!(
            run(&w, "qemu+goto_tb").cycles <= run(&w, "qemu+chain").cycles,
            "{}: goto_tb regressed the chained baseline",
            w.name
        );
    }
    // ... where it is quiescent: they are single-page, so same-page chaining
    // already links every transfer.  The cross-page direct-branch micro is
    // the shape only goto_tb can link.
    let cross = bench::micro_workload(&simbench::inter_page_direct(5_000));
    let gtb = run(&cross, "qemu+goto_tb");
    let plain = run(&cross, "qemu+chain");
    assert!(
        gtb.goto_tb_transfers > 1_000,
        "the cross-page loop must take goto_tb links (got {})",
        gtb.goto_tb_transfers
    );
    assert!(
        gtb.cycles < plain.cycles,
        "goto_tb must beat same-page chaining on the cross-page loop ({} vs {})",
        gtb.cycles,
        plain.cycles
    );
}

#[test]
fn the_optimiser_eliminates_work_on_the_flag_heavy_kernels() {
    // The flag-heavy integer kernels are where dead-flag elimination and
    // NZCV forwarding pay; the FP rider is held to the no-regression bar only.
    let flag_heavy = spec_int(8);
    let riders_from = flag_heavy.len();
    let mut kernels = flag_heavy;
    kernels.push(workloads::fp_micro(Scale(1)));
    let optimiser = Ablation {
        mechanism: "the optimiser",
        kernels,
        with: "sync",
        without: "noopt+sync",
    };
    let pairs = optimiser.run();
    for p in &pairs[..riders_from] {
        let jit = &p.with.jit;
        assert!(
            jit.opt_forwarded_loads > 0 && jit.opt_dce_insns > 0,
            "{}: optimizer reported no work (fwd {}, dce {})",
            p.kernel,
            jit.opt_forwarded_loads,
            jit.opt_dce_insns
        );
    }
    let dead_stores: u64 = pairs.iter().map(|p| p.with.jit.opt_dead_stores).sum();
    let saved: u64 = pairs.iter().map(|p| p.without.cycles - p.with.cycles).sum();
    assert!(dead_stores > 0, "dead-store elimination never fired");
    assert!(saved > 0, "no modeled-cycle reduction across the suite");
}

#[test]
fn every_idiom_rule_fires_and_the_branch_kernel_pays() {
    let idioms = |kernels| Ablation {
        mechanism: "the idiom layer",
        kernels,
        with: "sync",
        without: "noidiom+sync",
    };
    let pairs = idioms(workloads::idiom_kernels(Scale(1))).run();
    let mut per_rule = [0u64; dbt::RULE_COUNT];
    for p in &pairs {
        assert!(
            p.with.jit.opt_idioms_fused > 0,
            "{}: no idiom fused on an idiom kernel",
            p.kernel
        );
        assert_eq!(
            p.without.jit.opt_idioms_fused, 0,
            "{}: idioms fused with the layer disabled",
            p.kernel
        );
        // A rewrite changes host code, never the guest work it stands for.
        assert_eq!(
            (p.with.guest_insns, p.with.backedge_transfers),
            (p.without.guest_insns, p.without.backedge_transfers),
            "{}: (guest instructions, back-edges) differ with the layer on",
            p.kernel
        );
        for (total, hits) in per_rule.iter_mut().zip(p.with.jit.idiom_hits) {
            *total += hits;
        }
    }
    // Every shipped rule must pay its way: at least one hit somewhere on the
    // idiom kernels.
    for kind in RuleKind::ALL {
        assert!(
            per_rule[kind.index()] > 0,
            "rule {} never fired on any idiom kernel",
            kind.name()
        );
    }
    // The acceptance bar: the NZCV-free fusion path on the flag-heavy branch
    // kernel.
    let gain = of(&pairs, "idiom.branch").gain();
    assert!(
        gain >= 1.10,
        "idiom.branch must run >= 1.10x fewer modeled cycles with the idiom \
         layer on vs off (got {gain:.3}x)"
    );
    // The no-regression rider: on the general workloads the layer must be
    // free or better.
    let mut general = spec_int(4);
    general.extend(workloads::loop_kernels(Scale(1)));
    idioms(general).run();
}
