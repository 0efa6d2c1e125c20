//! Harness shared by the `figures` binary, the integration tests and the
//! examples: loads a guest program into Captive or the QEMU-style baseline,
//! runs it to completion, and returns the engine's [`RunStats`] — the one
//! counter table of `guest_aarch64::sys`.  (Wall-clock benchmarking lives in
//! the standalone `benchmark/` package.)

use captive::{Captive, CaptiveConfig, FpMode, RunExit};
use guest_aarch64::sys::Engine;
pub use guest_aarch64::sys::RunStats;
use qemu_ref::QemuRef;
use workloads::Workload;

pub mod chaos;

/// Maximum dispatched blocks per run (safety net against guest hangs).
pub const BLOCK_BUDGET: u64 = 200_000_000;

/// One named Captive configuration: the name and the edit it makes to
/// [`CaptiveConfig::default`].
pub type NamedConfig = (&'static str, fn(&mut CaptiveConfig));

/// Every Captive configuration the figures, the chaos harness and the
/// integration tests run, by name; build one with [`captive_config`].
///
/// Each entry turns one knob, so the chaos and virtio legs run an ablation
/// on the shipped (tiered) path.  The figures join an ablation to `sync`
/// (`"noopt+sync"`): their cycle comparisons want region formation on the
/// run thread, where the moment a region forms does not depend on a
/// background worker's wall-clock speed.
pub const CAPTIVE_CONFIGS: &[NamedConfig] = &[
    ("default", |_| {}),
    // Synchronous region formation on the run thread.
    ("sync", |c| c.tier_workers = None),
    ("noopt", |c| c.opt = false),
    // Looping regions without loop-carried register promotion.
    ("nopromote", |c| c.promote = false),
    ("noidiom", |c| c.idioms = false),
    // Chaining alone, no region formation: the chaining-gap equality checks
    // pin chain-only cycle accounting against this and `nochain`.  With no
    // regions there is no tier service, so no reuse store
    // (`CaptiveConfig::reuse_cache`) and no patched-page revival either.
    ("chain-only", |c| c.form_regions = false),
    ("nochain", |c| {
        c.chaining = false;
        c.form_regions = false;
    }),
    // A deliberately starved code cache.
    ("tinycache", |c| c.cache_capacity_regions = Some(4)),
    ("softfp", |c| c.fp_mode = FpMode::Software),
];

/// Builds a configuration from [`CAPTIVE_CONFIGS`]: one name, or several
/// joined with `+` whose edits apply left to right (`"noopt+sync"`); panics
/// on a name the table does not hold.
pub fn captive_config(names: &str) -> CaptiveConfig {
    let mut cfg = CaptiveConfig::default();
    for name in names.split('+') {
        let (_, edit) = CAPTIVE_CONFIGS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no Captive configuration named {name:?}"));
        edit(&mut cfg);
    }
    cfg
}

/// Loads `w` into an already constructed engine (so callers can attach a
/// device first), runs it to the halt and samples the engine's counters.
pub fn drive<E: Engine>(w: &Workload, e: &mut E) -> RunStats {
    e.load_program(workloads::CODE_BASE, &w.words);
    e.set_entry(w.entry);
    let exit = e.run(BLOCK_BUDGET);
    assert!(
        matches!(exit, RunExit::GuestHalted { .. }),
        "{}: unexpected exit {exit:?}",
        w.name
    );
    e.stats()
}

/// Runs a workload under Captive as shipped (`CaptiveConfig::default()`).
pub fn run_captive(w: &Workload) -> RunStats {
    run_captive_cfg(w, CaptiveConfig::default())
}

/// Runs a workload under Captive with an explicit configuration — usually a
/// named one, `run_captive_cfg(w, captive_config("noopt+sync"))`.
pub fn run_captive_cfg(w: &Workload, cfg: CaptiveConfig) -> RunStats {
    drive(w, &mut Captive::new(cfg))
}

/// Runs a workload under Captive with a virtio-blk device attached on top
/// of an arbitrary engine configuration.
pub fn run_captive_io(w: &Workload, vcfg: hvm::VirtioBlkConfig, cfg: CaptiveConfig) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            virtio: Some(vcfg),
            ..cfg
        },
    )
}

/// Runs a workload under default Captive with a shared content-keyed reuse
/// cache, for repeated-image sweeps where later runs should hit templates
/// published by earlier ones.
pub fn run_captive_tiered_reuse(w: &Workload, reuse: &std::sync::Arc<dbt::ReuseCache>) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            reuse_cache: Some(std::sync::Arc::clone(reuse)),
            ..CaptiveConfig::default()
        },
    )
}

/// Guest RAM for a QEMU-style baseline: whatever the Captive it is compared
/// with gets, so the two engines cannot be sized apart.
pub fn guest_ram() -> u64 {
    CaptiveConfig::default().guest_ram
}

/// Runs a workload under the QEMU-style baseline (no chaining).
pub fn run_qemu(w: &Workload) -> RunStats {
    run_qemu_chaining(w, false)
}

/// Runs a workload under the QEMU-style baseline with same-page chaining
/// configured explicitly (the tightened baseline of real QEMU).
pub fn run_qemu_chaining(w: &Workload, chaining: bool) -> RunStats {
    drive(w, &mut QemuRef::with_chaining(guest_ram(), chaining))
}

/// Runs a workload under the strongest honest baseline: same-page chaining
/// plus TCG-style `goto_tb` cross-page linking (the `qemu+goto_tb` rows of
/// `figures -- json`; `bench/tests/ablation.rs` keeps it honest).
pub fn run_qemu_goto_tb(w: &Workload) -> RunStats {
    drive(w, &mut QemuRef::with_goto_tb(guest_ram()))
}

/// Runs a workload under the QEMU-style baseline with a virtio-blk device
/// attached (plain non-chaining configuration, like [`run_qemu`]).
pub fn run_qemu_io(w: &Workload, vcfg: hvm::VirtioBlkConfig) -> RunStats {
    let mut q = QemuRef::new(guest_ram());
    q.attach_virtio(vcfg);
    drive(w, &mut q)
}

/// Wraps a SimBench micro-benchmark as a [`Workload`] so it can go through
/// the same measurement entry points as the SPEC-shaped workloads.
pub fn micro_workload(b: &simbench::MicroBench) -> Workload {
    Workload {
        name: b.name,
        suite: workloads::Suite::Int,
        words: b.words.clone(),
        entry: b.entry,
    }
}

/// Runs a raw instruction-word program (SimBench) on both systems, returning
/// (Captive's counters, QemuRef's).
pub fn run_both_raw(name: &'static str, words: &[u32], entry: u64) -> (RunStats, RunStats) {
    let w = Workload {
        name,
        suite: workloads::Suite::Int,
        words: words.to_vec(),
        entry,
    };
    (run_captive(&w), run_qemu(&w))
}

/// Geometric mean of a sequence of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Simple calibrated IPC models for the two native Arm machines of Fig. 22,
/// used only to place Captive's performance between them as the paper does.
pub mod native_model {
    /// Estimated cycles a Cortex-A53 (1.2 GHz, in-order) needs for a workload
    /// that executes `guest_insns` instructions: IPC ≈ 0.8, scaled to the
    /// host simulator's 3.5 GHz-equivalent cycle domain.
    pub fn cortex_a53_cycles(guest_insns: u64) -> u64 {
        let cycles_native = guest_insns as f64 / 0.8;
        (cycles_native * (3.5 / 1.2)) as u64
    }

    /// Estimated cycles for a Cortex-A57 (2.0 GHz, out-of-order): IPC ≈ 1.9.
    pub fn cortex_a57_cycles(guest_insns: u64) -> u64 {
        let cycles_native = guest_insns as f64 / 1.9;
        (cycles_native * (3.5 / 2.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn captive_and_qemu_agree_on_results_and_captive_is_faster_on_mcf() {
        let w = &workloads::spec_int(workloads::Scale(1))[3]; // 429.mcf
        assert_eq!(w.name, "429.mcf");
        let c = run_captive(w);
        let q = run_qemu(w);
        assert!(c.cycles > 0 && q.cycles > 0);
        assert!(
            c.cycles < q.cycles,
            "captive {} should beat qemu {} on mcf",
            c.cycles,
            q.cycles
        );
    }

    #[test]
    fn fp_workload_speedup_exceeds_integer_speedup() {
        // The paper's statement is suite-level (Fig. 17 against Fig. 18), so
        // the suites' geometric means are what is asserted.  This used to
        // compare one hand-picked pair, hmmer against sphinx3, which PR 19's
        // move coalescing flipped (hmmer 6.41 -> 8.00, sphinx3 7.20 -> 7.47:
        // integer kernels lose a quarter of their cycles, FP units keep
        // their vector shuffles) while the suites stayed far apart
        // (SPEC-int 5.55 -> 7.21, SPEC-fp 11.19 -> 11.59).
        let suite_speedup = |suite: Vec<Workload>| {
            let ratios: Vec<f64> = suite
                .iter()
                .map(|w| run_qemu(w).cycles as f64 / run_captive(w).cycles as f64)
                .collect();
            geomean(&ratios)
        };
        let int_speedup = suite_speedup(workloads::spec_int(workloads::Scale(1)));
        let fp_speedup = suite_speedup(workloads::spec_fp(workloads::Scale(1)));
        assert!(
            fp_speedup > int_speedup,
            "fp {fp_speedup:.2} vs int {int_speedup:.2}"
        );
    }
}
