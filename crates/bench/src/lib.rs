//! Harness shared by the `figures` binary and the integration tests.  A
//! guest is one [`Guest`]; an engine is a name ([`engine`]: `qemu`, the
//! QEMU-style baseline, or a Captive configuration); [`run`] loads the guest
//! into the engine, runs it to the halt and returns one [`Run`] — the final
//! registers, NZCV and the guest's declared memory digests, with the
//! engine's [`RunStats`], the one counter table of `guest_aarch64::sys`.
//! [`Run::differs`] is the one comparison of two runs and [`assert_agree`]
//! holds a set of engines to it.  (Wall-clock benchmarking lives in the
//! standalone `benchmark/` package.)

use captive::{Captive, CaptiveConfig, FpMode, RunExit};
use guest_aarch64::sys::Engine;
pub use guest_aarch64::sys::RunStats;
use hvm::VirtioBlkConfig;
use qemu_ref::QemuRef;
use workloads::{Workload, CODE_BASE, DATA_BASE};

pub mod chaos;

/// Maximum dispatched blocks per run (safety net against guest hangs).
pub const BLOCK_BUDGET: u64 = 200_000_000;

/// The code image a guest's outcome usually digests (it covers
/// self-modified words).
pub const CODE_WINDOW: (u64, u64) = (CODE_BASE, 16 * 1024);
/// The data window a guest's outcome usually digests.
pub const DATA_WINDOW: (u64, u64) = (DATA_BASE, 64 * 1024);

/// A guest as every engine loads it.
#[derive(Debug, Clone, Default)]
pub struct Guest {
    /// Names the guest in failure messages.
    pub name: String,
    /// Code segments: guest physical address and instruction words.
    pub code: Vec<(u64, Vec<u32>)>,
    /// `(guest physical address, 8-byte word)` stores made after the code
    /// is loaded: page tables, data, device structures.
    pub words: Vec<(u64, u64)>,
    /// Where the guest starts.
    pub entry: u64,
    /// A virtio-blk device to attach.
    pub virtio: Option<VirtioBlkConfig>,
    /// `(cycle, line)` interrupts raised on the engine's latch before the
    /// run ([`hvm::InterruptLatch::raise_at`]).
    pub irqs: Vec<(u64, u32)>,
    /// `(start, len)` guest physical ranges whose digests the outcome holds.
    pub digests: Vec<(u64, u64)>,
    /// After the first halt: stores the host makes, and where the guest
    /// resumes for a second run to the halt.
    pub resume: Option<(Vec<(u64, u64)>, u64)>,
}

impl Guest {
    /// `words` at [`CODE_BASE`], entered at its first word; the outcome
    /// digests [`DATA_WINDOW`].
    pub fn program(name: &str, words: Vec<u32>) -> Guest {
        Guest {
            name: name.to_string(),
            code: vec![(CODE_BASE, words)],
            entry: CODE_BASE,
            digests: vec![DATA_WINDOW],
            ..Guest::default()
        }
    }
}

impl From<&Workload> for Guest {
    fn from(w: &Workload) -> Guest {
        Guest {
            entry: w.entry,
            ..Guest::program(w.name, w.words.clone())
        }
    }
}

/// One named Captive configuration: the name and the edit it makes to
/// [`CaptiveConfig::default`].
pub type NamedConfig = (&'static str, fn(&mut CaptiveConfig));

/// The Captive engine names [`engine`] resolves (the one other name is
/// `qemu`); build one with [`captive_config`].
///
/// Each entry turns one knob, so the equivalence suites ([`EQUIVALENT`])
/// run an ablation on the shipped (tiered) path.  The figures join an
/// ablation to `sync` (`"noopt+sync"`): their cycle comparisons want region
/// formation on the run thread, where the moment a region forms does not
/// depend on a background worker's wall-clock speed.
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

/// The engines every equivalence suite (chaos, virtio, `table_writes`,
/// `cross_system`'s fault tests) holds to one outcome: the QemuRef every
/// figure and the benchmark divide by, and every Captive configuration that
/// turns a translation knob on the tiered path.  The first is the reference
/// [`assert_agree`] compares with.
pub const EQUIVALENT: [&str; 7] = [
    "qemu",
    "default",
    "noopt",
    "nopromote",
    "noidiom",
    "tinycache",
    "sync",
];

/// An engine a guest runs on.
#[derive(Debug, Clone)]
pub enum EngineConfig {
    /// Captive under a configuration.
    Captive(CaptiveConfig),
    /// The QEMU-style baseline.
    Qemu,
}

/// The engine named `name`: `qemu`, or a Captive configuration
/// [`captive_config`] builds.
pub fn engine(name: &str) -> EngineConfig {
    match name {
        "qemu" => EngineConfig::Qemu,
        _ => EngineConfig::Captive(captive_config(name)),
    }
}

impl From<&str> for EngineConfig {
    fn from(name: &str) -> Self {
        engine(name)
    }
}

impl From<CaptiveConfig> for EngineConfig {
    fn from(cfg: CaptiveConfig) -> Self {
        EngineConfig::Captive(cfg)
    }
}

/// Guest RAM for a QEMU-style baseline: whatever the Captive it is compared
/// with gets, so the two engines cannot be sized apart.
pub fn guest_ram() -> u64 {
    CaptiveConfig::default().guest_ram
}

/// One run of a guest to its halt: what the guest can see of the final
/// state, and the engine's counters.
#[derive(Debug, Clone)]
pub struct Run {
    /// The halt code.
    pub halt: u64,
    /// x0..x30.
    pub regs: [u64; 31],
    /// The NZCV flags nibble.
    pub nzcv: u64,
    /// One FNV digest per range of [`Guest::digests`], in its order.
    pub digests: Vec<u64>,
    /// Every counter of the run.
    pub stats: RunStats,
}

impl Run {
    /// Against a run of the same guest on another engine: the first field
    /// of the outcome, or else the first `Architectural` counter
    /// ([`RunStats::differs_across_engines`]), the two differ on.
    pub fn differs(&self, other: &Run) -> Option<String> {
        let names = ["halt code".to_string()]
            .into_iter()
            .chain((0..31).map(|r| format!("x{r}")))
            .chain(["NZCV".to_string()])
            .chain((0..self.digests.len()).map(|i| format!("memory digest {i}")));
        names
            .zip(self.outcome().zip(other.outcome()))
            .find(|(_, (a, b))| a != b)
            .map(|(name, (a, b))| format!("{name}: {a:#x} vs {b:#x}"))
            .or_else(|| self.stats.differs_across_engines(&other.stats))
    }

    /// The outcome's fields in [`Run::differs`]' order.
    fn outcome(&self) -> impl Iterator<Item = u64> + '_ {
        [self.halt]
            .into_iter()
            .chain(self.regs)
            .chain([self.nzcv])
            .chain(self.digests.iter().copied())
    }
}

/// Loads `guest` into `e` (built with the guest's device attached), runs it
/// to the halt — and through its resume leg — and samples the outcome.
/// [`run`] builds the engine; a test that reads engine state beyond
/// [`RunStats`] builds its own and calls this.
pub fn drive<E: Engine>(guest: &Guest, e: &mut E) -> Run {
    for (at, words) in &guest.code {
        e.load_program(*at, words);
    }
    for &(at, word) in &guest.words {
        e.write_guest_phys(at, word, 8);
    }
    e.set_entry(guest.entry);
    for &(cycle, line) in &guest.irqs {
        e.parts_mut().0.events.latch.raise_at(cycle, line);
    }
    let mut halt = to_halt(guest, e);
    if let Some((words, resume)) = &guest.resume {
        for &(at, word) in words {
            e.write_guest_phys(at, word, 8);
        }
        e.parts_mut().0.exit_code = None;
        e.set_entry(*resume);
        halt = to_halt(guest, e);
    }
    Run {
        halt,
        regs: std::array::from_fn(|i| e.guest_reg(i as u32)),
        nzcv: e.guest_nzcv(),
        digests: guest
            .digests
            .iter()
            .map(|&(start, len)| e.guest_mem_digest(start, len))
            .collect(),
        stats: e.stats(),
    }
}

fn to_halt<E: Engine>(guest: &Guest, e: &mut E) -> u64 {
    match e.run(BLOCK_BUDGET) {
        RunExit::GuestHalted { code } => code,
        exit => panic!("{}: unexpected exit {exit:?}", guest.name),
    }
}

/// The one runner: builds `engine` (a name of [`engine`], or a Captive
/// configuration) with the guest's device attached and [`drive`]s `guest`
/// on it.
pub fn run(guest: &Guest, engine: impl Into<EngineConfig>) -> Run {
    match engine.into() {
        EngineConfig::Captive(cfg) => drive(
            guest,
            &mut Captive::new(CaptiveConfig {
                virtio: guest.virtio.clone(),
                ..cfg
            }),
        ),
        EngineConfig::Qemu => {
            let mut q = QemuRef::with_goto_tb(guest_ram());
            if let Some(cfg) = &guest.virtio {
                q.attach_virtio(cfg.clone());
            }
            drive(guest, &mut q)
        }
    }
}

/// Runs `guest` on every engine of `engines` and panics naming the first
/// engine, and its first field or `Architectural` counter ([`Run::differs`]),
/// that differs from the first engine's run.  Returns the runs by name in
/// `engines` order, the reference first.
pub fn assert_agree<'a>(guest: &Guest, engines: &[&'a str]) -> Vec<(&'a str, Run)> {
    let runs: Vec<(&str, Run)> = engines.iter().map(|&e| (e, run(guest, e))).collect();
    let (reference, first) = &runs[0];
    for (name, other) in &runs[1..] {
        if let Some(diff) = other.differs(first) {
            panic!("{}: {name} against {reference}: {diff}", guest.name);
        }
    }
    runs
}

/// The run of the engine called `name` among runs [`assert_agree`] returned.
pub fn by_name<'a>(runs: &'a [(&str, Run)], name: &str) -> &'a Run {
    let found = runs.iter().find(|(n, _)| *n == name);
    &found.unwrap_or_else(|| panic!("no run of {name:?}")).1
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
        let runs = assert_agree(&w.into(), &["qemu", "default"]);
        let (q, c) = (&runs[0].1.stats, &runs[1].1.stats);
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
                .map(|w| {
                    let cycles = |engine| run(&w.into(), engine).stats.cycles as f64;
                    cycles("qemu") / cycles("default")
                })
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
