//! One workload, measured: the untraced mode (end-to-end metrics) and the
//! traced mode (per-layer metrics, spans, workload-validity assertions).

use crate::calibrate::{calibrate, to_reference, CALIBRATION_REF_S};
use crate::engine::{self, Engine, Exit, FinalState, Op, BLOCK_BUDGET};
use crate::json::{obj, Value};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::program::Program;
use crate::provenance;
use crate::replay::{self, Totals};
use crate::stats::{summarize, Summary};
use crate::trace::Recorder;
use crate::workloads;
use captive::Captive;
use qemu_ref::QemuRef;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest timed samples a run reports on, whatever `--seconds` says.
pub const MIN_SAMPLES: usize = 9;
/// Most timed samples (bounds a run on a very fast machine).
pub const MAX_SAMPLES: usize = 64;
/// Set-up-only repetitions after every sample (so `setup_s` is a median of
/// at least 27 measurements).
const SETUPS_PER_SAMPLE: usize = 3;
/// Untraced reference samples the traced mode takes to price its overhead.
const TRACE_REFERENCE_SAMPLES: usize = 3;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory result and trace files go to.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    /// The full result (provenance, raw samples, every metric).
    pub result: Value,
    /// The one-line object the CI driver reads.
    pub line: Value,
    /// Failed ops plus failed validity assertions.
    pub correct: bool,
}

/// Bookkeeping of ops and why any failed.
#[derive(Default)]
struct Ledger {
    total: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Ledger {
    fn record(&mut self, op: &Op, extra: Option<String>) {
        self.total += 1;
        let mut why = op.failures.clone();
        why.extend(extra);
        if !why.is_empty() {
            self.failed += 1;
            for w in why {
                self.reasons
                    .push(format!("{} on {}: {w}", op.program, op.engine));
            }
        }
    }
}

/// One Captive op per program; checks cycles against the first sample's.
fn sample(programs: &[Program], reference: &mut Vec<u64>, ledger: &mut Ledger) -> Vec<Op> {
    let ops: Vec<Op> = programs.iter().map(engine::op_captive).collect();
    if reference.is_empty() {
        *reference = ops.iter().map(|o| o.cycles).collect();
    }
    for (op, &expect) in ops.iter().zip(reference.iter()) {
        let drift = (op.cycles != expect).then(|| {
            format!(
                "sim_cycles {} differs from the first sample's {expect}",
                op.cycles
            )
        });
        ledger.record(op, drift);
    }
    ops
}

/// The QemuRef pass; each op also fails when its final state differs from
/// Captive's.
fn qemu_pass(programs: &[Program], captive: &[FinalState], ledger: &mut Ledger) -> Vec<Op> {
    programs
        .iter()
        .zip(captive)
        .map(|(p, state)| {
            let op = engine::op_qemu(p);
            let differs = (op.state != *state).then(|| {
                "final registers, flags or memory window differ from Captive's".to_string()
            });
            ledger.record(&op, differs);
            op
        })
        .collect()
}

fn images_json(programs: &[Program]) -> Value {
    Value::Arr(
        programs
            .iter()
            .map(|p| {
                obj(vec![
                    ("program", p.name.into()),
                    ("fnv", format!("{:016x}", p.image_hash()).into()),
                    ("work_insns", p.work_insns.into()),
                    ("code_insns", (p.code_insns() as u64).into()),
                ])
            })
            .collect(),
    )
}

fn print_header(opts: &Options, programs: &[Program]) {
    println!(
        "workload {}  seed {}  mode {}",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for p in programs {
        println!(
            "  image {:<18} fnv {:016x}  work_insns {:>10}  code_insns {:>7}",
            p.name,
            p.image_hash(),
            p.work_insns,
            p.code_insns()
        );
    }
}

fn summary_json(s: &Summary) -> Vec<(&'static str, Value)> {
    vec![
        ("median", s.median.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("min", s.min.into()),
        ("max", s.max.into()),
        ("n", (s.n as u64).into()),
    ]
}

fn metric_value(v: f64, exact: bool) -> Value {
    if exact && v.fract() == 0.0 && v >= 0.0 {
        Value::U64(v as u64)
    } else {
        Value::F64(v)
    }
}

/// The driver line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn driver_line(correct: bool, ledger: &Ledger, metrics: Vec<(String, Value)>) -> Value {
    obj(vec![
        ("correct", correct.into()),
        ("attempted", ledger.total.into()),
        ("failed", ledger.failed.into()),
        ("metrics", Value::Obj(metrics)),
    ])
}

pub fn run_workload(opts: &Options) -> Result<Outcome, String> {
    let mut provenance = provenance::capture();
    let programs = workloads::generate(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    print_header(opts, &programs);
    let (mut result, line, ledger, correct) = if opts.trace {
        traced(opts, &programs)?
    } else {
        untraced(opts, &programs)
    };
    if let Value::Obj(m) = &mut provenance {
        m.push(("load_avg_end".into(), provenance::load_average().into()));
    }
    if let Value::Obj(m) = &mut result {
        m.insert(0, ("provenance".into(), provenance));
        m.insert(0, ("seed".into(), opts.seed.into()));
        m.insert(0, ("name".into(), opts.workload.as_str().into()));
    }
    for r in &ledger.reasons {
        println!("  FAILED {r}");
    }
    println!("  ops_total {}  ops_failed {}", ledger.total, ledger.failed);
    Ok(Outcome {
        result,
        line,
        correct,
    })
}

// ---------------------------------------------------------------------------
// Untraced mode: the five end-to-end metrics.
// ---------------------------------------------------------------------------

fn untraced(opts: &Options, programs: &[Program]) -> (Value, Value, Ledger, bool) {
    let mut ledger = Ledger::default();
    let mut reference = Vec::new();
    let work: u64 = programs.iter().map(|p| p.work_insns).sum();

    // One discarded warm-up (page cache, allocator, CPU clocks), then timed
    // samples until both the sample floor and the time window are met.
    // Host-speed calibrations bracket every sample (`calib_s[i]` before
    // sample i, `calib_s[i + 1]` after it and its set-up repetitions);
    // times are scaled by the pair to reference host speed (see
    // `calibrate`).
    let warm = sample(programs, &mut reference, &mut ledger);
    let window = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let mut samples: Vec<Vec<Op>> = Vec::new();
    let mut setup_raw_s: Vec<f64> = Vec::new();
    let mut calib_s = vec![calibrate()];
    while samples.len() < MAX_SAMPLES && (samples.len() < MIN_SAMPLES || started.elapsed() < window)
    {
        samples.push(sample(programs, &mut reference, &mut ledger));
        // Set-up is short, so its median needs more measurements than
        // there are samples: a few set-up-only repetitions per sample.
        for _ in 0..SETUPS_PER_SAMPLE {
            setup_raw_s.push(programs.iter().map(engine::setup_only).sum::<u64>() as f64 / 1e9);
        }
        calib_s.push(calibrate());
    }

    let factors: Vec<f64> = calib_s
        .windows(2)
        .map(|c| to_reference(c[0], c[1]))
        .collect();
    let run_raw_s: Vec<f64> = samples
        .iter()
        .map(|ops| ops.iter().map(|o| o.run_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    let run_s: Vec<f64> = run_raw_s.iter().zip(&factors).map(|(t, f)| t * f).collect();
    let setup_s: Vec<f64> = setup_raw_s
        .iter()
        .enumerate()
        .map(|(i, t)| t * factors[i / SETUPS_PER_SAMPLE])
        .collect();

    let states: Vec<FinalState> = warm.iter().map(|o| o.state.clone()).collect();
    let qemu = qemu_pass(programs, &states, &mut ledger);

    let run = summarize(&run_s);
    let mips: Vec<f64> = run_s.iter().map(|s| work as f64 / s / 1e6).collect();
    let mips_summary = summarize(&mips);
    let setup = summarize(&setup_s);
    let cycles: u64 = reference.iter().sum();
    let qemu_cycles: u64 = qemu.iter().map(|o| o.cycles).sum();
    let values = [
        work as f64 / run.median / 1e6,
        setup.median,
        cycles as f64,
        qemu_cycles as f64 / cycles as f64,
        provenance::peak_rss_mib(),
    ];

    let raw = summarize(&run_raw_s);
    let calib = summarize(&calib_s);
    println!(
        "  samples {} (+1 warm-up)  run_s at reference speed: median {:.4} q1 {:.4} q3 {:.4} min {:.4}",
        run.n, run.median, run.q1, run.q3, run.min
    );
    println!(
        "  raw wall-clock run_s median {:.4} ({:.4} Minsn/s)  calibration median {:.4} s (reference {CALIBRATION_REF_S} s)",
        raw.median,
        work as f64 / raw.median / 1e6,
        calib.median
    );
    let mut metrics_json = Vec::new();
    let mut line_metrics = Vec::new();
    for (m, &v) in END_TO_END.iter().zip(&values) {
        print_end_to_end(m, v, qemu_cycles);
        let mut fields = vec![
            ("value", metric_value(v, m.exact)),
            ("unit", m.unit.into()),
            ("better", m.better.as_str().into()),
            ("bound", m.bound.into()),
            ("exact", m.exact.into()),
        ];
        match m.name {
            "guest_mips" => fields.extend(summary_json(&mips_summary)),
            "setup_s" => fields.extend(summary_json(&setup)),
            _ => {}
        }
        metrics_json.push((m.name.to_string(), obj(fields)));
        line_metrics.push((
            m.name.to_string(),
            obj(vec![
                ("value", metric_value(v, m.exact)),
                ("unit", m.unit.into()),
            ]),
        ));
    }

    let correct = ledger.failed == 0;
    let result = obj(vec![
        ("mode", "untraced".into()),
        ("images", images_json(programs)),
        ("work_insns", work.into()),
        ("samples", (run.n as u64).into()),
        ("ops_total", ledger.total.into()),
        ("ops_failed", ledger.failed.into()),
        ("correct", correct.into()),
        (
            "baseline",
            obj(vec![
                ("engine", "QemuRef::with_goto_tb".into()),
                ("sim_cycles", qemu_cycles.into()),
                (
                    "run_s",
                    (qemu.iter().map(|o| o.run_ns).sum::<u64>() as f64 / 1e9).into(),
                ),
            ]),
        ),
        (
            "raw",
            obj(vec![
                ("run_s", run_s.clone().into()),
                ("run_raw_s", run_raw_s.clone().into()),
                ("calibration_s", calib_s.clone().into()),
                ("calibration_ref_s", CALIBRATION_REF_S.into()),
                ("setup_s", setup_s.clone().into()),
                ("setup_raw_s", setup_raw_s.clone().into()),
                (
                    "sample_setup_raw_s",
                    samples
                        .iter()
                        .map(|ops| ops.iter().map(|o| o.setup_ns).sum::<u64>() as f64 / 1e9)
                        .collect::<Vec<f64>>()
                        .into(),
                ),
                (
                    "program_run_s",
                    Value::Obj(
                        programs
                            .iter()
                            .enumerate()
                            .map(|(i, p)| {
                                let per: Vec<f64> = samples
                                    .iter()
                                    .map(|ops| ops[i].run_ns as f64 / 1e9)
                                    .collect();
                                (p.name.to_string(), per.into())
                            })
                            .collect(),
                    ),
                ),
                (
                    "program_sim_cycles",
                    Value::Obj(
                        programs
                            .iter()
                            .zip(&reference)
                            .map(|(p, &c)| (p.name.to_string(), c.into()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("metrics", Value::Obj(metrics_json)),
    ]);
    let line = driver_line(correct, &ledger, line_metrics);
    (result, line, ledger, correct)
}

fn print_end_to_end(m: &EndToEnd, v: f64, qemu_cycles: u64) {
    let note = match m.name {
        "sim_speedup" => format!("  (base: QemuRef::with_goto_tb, {qemu_cycles} cycles)"),
        "sim_cycles" => "  (model output; no hardware reference)".to_string(),
        _ => String::new(),
    };
    let shown = if m.exact && v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    };
    println!(
        "  {:<13} {:>16} {:<8} better {:<6} bound {:<5}{}{}",
        m.name,
        shown,
        m.unit,
        m.better.as_str(),
        m.bound,
        if m.exact { " exact" } else { "" },
        note
    );
}

// ---------------------------------------------------------------------------
// Traced mode: per-layer metrics.
// ---------------------------------------------------------------------------

/// Public counters of a Captive run, summed over a workload's programs.
#[derive(Debug, Clone, Default)]
struct CaptiveTotals {
    run_ns: f64,
    jit_ns: f64,
    decode_ms: f64,
    translate_ms: f64,
    regalloc_ms: f64,
    encode_ms: f64,
    worker_ms: f64,
    first_install_ms: f64,
    requests: f64,
    installed: f64,
    stale: f64,
    reuse_hits: f64,
    reuse_misses: f64,
    host_insns: f64,
    cycles: f64,
    mem_accesses: f64,
    helper_calls: f64,
    page_faults: f64,
    tlb_hits: f64,
    tlb_misses: f64,
    tlb_flushes: f64,
    blocks: f64,
    slow: f64,
    chained: f64,
    translations: f64,
    regions: f64,
    loop_regions: f64,
    backedges: f64,
    cache_hits: f64,
    cache_misses: f64,
    guest_insns: f64,
    code_bytes: f64,
    itlb_hits: f64,
    itlb_misses: f64,
    dtlb_hits: f64,
    dtlb_misses: f64,
    slices: f64,
    /// Engine-side event counts, in `Events` field order.
    events: crate::program::Events,
}

/// Slice-boundary snapshot of Captive's public counters.
struct CaptiveSnap {
    translations: u64,
    jit_ns: u64,
    phase_ns: [u64; 4],
    slow: u64,
    blocks: u64,
    exceptions: u64,
    cycles: u64,
    host_insns: u64,
    regions: u64,
}

fn captive_snap(c: &Captive) -> CaptiveSnap {
    let s = c.stats();
    CaptiveSnap {
        translations: s.translations,
        jit_ns: s.jit_wall_ns,
        phase_ns: [
            c.timers.decode.as_nanos() as u64,
            c.timers.translate.as_nanos() as u64,
            c.timers.regalloc.as_nanos() as u64,
            c.timers.encode.as_nanos() as u64,
        ],
        slow: s.slow_dispatches,
        blocks: s.blocks,
        exceptions: s.guest_exceptions,
        cycles: s.cycles,
        host_insns: s.host_insns,
        regions: s.regions_formed,
    }
}

/// Runs `e` to its halt in slices of doubling block budget (256 … 2^20),
/// one `engine.run_slice[i]` span each, so warm-up and steady state
/// separate.  `counters` yields the public-counter deltas of a slice.
fn run_sliced<E: Engine, S>(
    rec: &mut Recorder,
    run_span: u64,
    program: usize,
    e: &mut E,
    snap: impl Fn(&E) -> S,
    deltas: impl Fn(&S, &S) -> Vec<(&'static str, f64)>,
) -> (Exit, u64) {
    let mut budget = 256u64;
    let mut slices = 0u64;
    let mut total = 0u64;
    loop {
        let before = snap(e);
        let id = rec.start(
            format!("engine.run_slice[{slices}]"),
            Some(run_span),
            Some(program),
        );
        let exit = e.run_blocks(budget);
        rec.end(id);
        let after = snap(e);
        for (k, v) in deltas(&before, &after) {
            rec.counter(id, k, v);
        }
        slices += 1;
        total += budget;
        if exit != Exit::Budget || total >= BLOCK_BUDGET {
            return (exit, slices);
        }
        budget = (budget * 2).min(1 << 20);
    }
}

type Traced = (Value, Value, Ledger, bool);

fn traced(opts: &Options, programs: &[Program]) -> Result<Traced, String> {
    let mut ledger = Ledger::default();
    let mut rec = Recorder::new();
    let root = rec.start("workload", None, None);
    let work: f64 = programs.iter().map(|p| p.work_insns as f64).sum();

    // Untraced reference: what the same run costs with nobody watching.
    let mut reference = Vec::new();
    let ref_span = rec.start("untraced.reference", Some(root), None);
    let ref_runs: Vec<f64> = (0..TRACE_REFERENCE_SAMPLES)
        .map(|_| {
            sample(programs, &mut reference, &mut ledger)
                .iter()
                .map(|o| o.run_ns)
                .sum::<u64>() as f64
        })
        .collect();
    rec.end(ref_span);
    let untraced_run_ns = summarize(&ref_runs).median;
    let untraced_cycles: u64 = reference.iter().sum();

    let mut cap = CaptiveTotals::default();
    let mut replayed = Totals::default();
    let mut expected = crate::program::Events::default();
    let (mut q_run_ns, mut q_jit_ns, mut q_cycles, mut q_host, mut q_blocks) =
        (0f64, 0f64, 0f64, 0f64, 0f64);
    let mut invalid: Vec<String> = Vec::new();

    for (i, p) in programs.iter().enumerate() {
        let ps = rec.start(format!("program {}", p.name), Some(root), Some(i));
        expected.add(&p.events);

        // Captive, traced.
        let es = rec.start("captive", Some(ps), Some(i));
        let (mut c, _) = rec.scope("engine.new", Some(es), Some(i), || engine::new_captive(p));
        rec.scope("engine.load", Some(es), Some(i), || engine::load(p, &mut c));
        let run_span = rec.start("engine.run", Some(es), Some(i));
        let (exit, slices) = run_sliced(&mut rec, run_span, i, &mut c, captive_snap, |a, b| {
            let jit = (b.jit_ns - a.jit_ns) as f64;
            vec![
                ("translations", (b.translations - a.translations) as f64),
                ("jit_wall_ns", jit),
                ("decode_ns", (b.phase_ns[0] - a.phase_ns[0]) as f64),
                ("translate_ns", (b.phase_ns[1] - a.phase_ns[1]) as f64),
                ("regalloc_ns", (b.phase_ns[2] - a.phase_ns[2]) as f64),
                ("encode_ns", (b.phase_ns[3] - a.phase_ns[3]) as f64),
                ("slow_dispatches", (b.slow - a.slow) as f64),
                ("blocks", (b.blocks - a.blocks) as f64),
                ("guest_exceptions", (b.exceptions - a.exceptions) as f64),
                ("sim_cycles", (b.cycles - a.cycles) as f64),
                ("host_insns", (b.host_insns - a.host_insns) as f64),
                ("regions_formed", (b.regions - a.regions) as f64),
            ]
        });
        let run_ns = rec.end(run_span);
        let (state, failures) = engine::verify(p, &mut c, &exit);
        let s = c.stats();
        // `engine.run` self time is its wall minus the JIT it waited on.
        rec.counter(run_span, "jit_wall_ns", s.jit_wall_ns as f64);
        rec.counter(
            run_span,
            "self_ns",
            run_ns.saturating_sub(s.jit_wall_ns) as f64,
        );
        ledger.record(
            &Op {
                program: p.name,
                engine: "captive(traced)",
                run_ns,
                setup_ns: 0,
                cycles: s.cycles,
                state: state.clone(),
                failures,
            },
            None,
        );
        let perf = c.machine.perf;
        let cs = c.cache.stats();
        let engine_events = crate::program::Events {
            sync_exceptions: if p.events.sync_exceptions > 0 {
                c.guest_reg(20)
            } else {
                0
            },
            exceptions: s.guest_exceptions,
            irqs: s.irqs_delivered,
            ctx_gen_bumps: c.runtime.context_generation(),
            smc_invalidations: cs.invalidated_page,
            page_faults: perf.page_faults,
            virtio_completions: s.virtio_completions,
            virtio_dma_bytes: s.virtio_dma_bytes,
            virtio_fault_injections: s.virtio_fault_injections,
        };
        // By-construction counts must match what the engine counted.  A
        // zero `page_faults` expectation means "not fixed by construction".
        let mut want = p.events;
        if want.page_faults == 0 {
            want.page_faults = engine_events.page_faults;
        }
        if want != engine_events {
            invalid.push(format!(
                "{}: engine event counts {engine_events:?} differ from by-construction {:?}",
                p.name, p.events
            ));
        }
        if p.name == "hot.stream" && perf.tlb_hit_rate() >= 1.0 {
            invalid.push(
                "hot.stream: host TLB never missed (footprint no longer exceeds its reach)".into(),
            );
        }
        cap.run_ns += run_ns as f64;
        cap.jit_ns += s.jit_wall_ns as f64;
        cap.decode_ms += c.timers.decode.as_secs_f64() * 1e3;
        cap.translate_ms += c.timers.translate.as_secs_f64() * 1e3;
        cap.regalloc_ms += c.timers.regalloc.as_secs_f64() * 1e3;
        cap.encode_ms += c.timers.encode.as_secs_f64() * 1e3;
        cap.worker_ms += s.tier_worker_wall_ns as f64 / 1e6;
        let first = s.first_region_install_ns as f64 / 1e6;
        if first > 0.0 && (cap.first_install_ms == 0.0 || first < cap.first_install_ms) {
            cap.first_install_ms = first;
        }
        cap.requests += s.tier1_requests as f64;
        cap.installed += s.regions_installed_async as f64;
        cap.stale += s.stale_discards as f64;
        cap.reuse_hits += s.reuse_hits as f64;
        cap.reuse_misses += s.reuse_misses as f64;
        cap.host_insns += perf.insns as f64;
        cap.cycles += perf.cycles as f64;
        cap.mem_accesses += perf.mem_accesses as f64;
        cap.helper_calls += perf.helper_calls as f64;
        cap.page_faults += perf.page_faults as f64;
        cap.tlb_hits += perf.tlb_hits as f64;
        cap.tlb_misses += perf.tlb_misses as f64;
        cap.tlb_flushes += perf.tlb_flushes as f64;
        cap.blocks += s.blocks as f64;
        cap.slow += s.slow_dispatches as f64;
        cap.chained += s.chained_transfers as f64;
        cap.translations += s.translations as f64;
        cap.regions += s.regions_formed as f64;
        cap.loop_regions += s.loop_regions_formed as f64;
        cap.backedges += s.backedge_transfers as f64;
        cap.cache_hits += cs.hits as f64;
        cap.cache_misses += cs.misses as f64;
        cap.guest_insns += s.guest_insns as f64;
        cap.code_bytes += s.code_bytes as f64;
        cap.itlb_hits += s.itlb_hits as f64;
        cap.itlb_misses += s.itlb_misses as f64;
        cap.dtlb_hits += s.dtlb_hits as f64;
        cap.dtlb_misses += s.dtlb_misses as f64;
        cap.slices += slices as f64;
        cap.events.add(&engine_events);
        replay::replay_memory(&mut rec, ps, i, p, &mut c, &mut replayed);
        drop(c);
        rec.end(es);

        // QemuRef, traced the same way.
        let qs = rec.start("qemu_ref", Some(ps), Some(i));
        let (mut q, _) = rec.scope("engine.new", Some(qs), Some(i), || engine::new_qemu(p));
        rec.scope("engine.load", Some(qs), Some(i), || engine::load(p, &mut q));
        let run_span = rec.start("engine.run", Some(qs), Some(i));
        let snap = |q: &QemuRef| {
            let s = q.stats();
            [
                s.translations,
                q.timers.total().as_nanos() as u64,
                s.blocks,
                s.guest_exceptions,
                s.cycles,
                s.host_insns,
            ]
        };
        let (exit, _) = run_sliced(&mut rec, run_span, i, &mut q, snap, |a, b| {
            [
                "translations",
                "jit_ns",
                "blocks",
                "guest_exceptions",
                "sim_cycles",
                "host_insns",
            ]
            .into_iter()
            .zip(a.iter().zip(b))
            .map(|(k, (a, b))| (k, (b - a) as f64))
            .collect()
        });
        let run_ns = rec.end(run_span);
        let (q_state, mut failures) = engine::verify(p, &mut q, &exit);
        if q_state != state {
            failures.push("final registers, flags or memory window differ from Captive's".into());
        }
        let qstats = q.stats();
        rec.counter(run_span, "jit_ns", q.timers.total().as_nanos() as f64);
        ledger.record(
            &Op {
                program: p.name,
                engine: "qemu_ref(traced)",
                run_ns,
                setup_ns: 0,
                cycles: qstats.cycles,
                state: q_state,
                failures,
            },
            None,
        );
        q_run_ns += run_ns as f64;
        q_jit_ns += q.timers.total().as_nanos() as f64;
        q_cycles += qstats.cycles as f64;
        q_host += qstats.host_insns as f64;
        q_blocks += qstats.blocks as f64;
        drop(q);
        rec.end(qs);

        // The layers, replayed from outside on a freshly loaded machine.
        let mut fresh = engine::new_captive(p);
        engine::load(p, &mut fresh);
        replay::replay_code(&mut rec, ps, i, p, &mut fresh, &mut replayed);
        drop(fresh);
        rec.end(ps);
    }
    rec.end(root);

    let exec_ns = (cap.run_ns - cap.jit_ns).max(0.0);
    let r = &replayed;
    let parts_ns = r.opt_ns + r.regalloc_ns + r.lower_ns + r.encode_ns;
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let rate = |hits: f64, misses: f64| div(hits, hits + misses);
    // Each value carries its metric name; the names must be the table's,
    // in the table's order, so a reordering cannot mislabel a number.
    let named: Vec<(&str, f64)> = vec![
        ("isa.decode_ns_per_insn", div(r.decode_ns, r.guest_insns)),
        ("isa.decode_insns", r.guest_insns),
        ("gen.emit_ns_per_insn", div(r.emit_ns, r.guest_insns)),
        ("gen.lir_per_guest_insn", div(r.lir_raw, r.guest_insns)),
        ("idiom.ns_per_lir", div(r.idiom_ns, r.lir_raw)),
        ("idiom.rewrites", r.idiom_rewrites),
        ("opt.ns_per_lir", div(r.opt_ns, r.lir_raw)),
        (
            "opt.lir_removed_share",
            div(r.lir_raw - r.lir_opt, r.lir_raw),
        ),
        ("regalloc.ns_per_lir", div(r.regalloc_ns, r.lir_opt)),
        (
            "regalloc.ns_per_lir_len64",
            div(r.regalloc_long_ns, r.lir_opt_long),
        ),
        ("regalloc.dead_share", div(r.dead, r.lir_opt)),
        ("lower.ns_per_lir", div(r.lower_ns, r.lir_opt)),
        ("encode.ns_per_host_insn", div(r.encode_ns, r.host_insns)),
        (
            "encode.bytes_per_guest_insn",
            div(r.encoded_bytes, r.guest_insns),
        ),
        ("dbt.finish_ns_per_insn", div(r.finish_ns, r.guest_insns)),
        (
            "dbt.finish_gap_share",
            div(r.finish_ns - parts_ns, r.finish_ns),
        ),
        (
            "translator.block_ns_per_insn",
            div(r.translator_ns, r.guest_insns),
        ),
        ("cache.insert_ns", div(r.cache_insert_ns, r.cache_ops)),
        ("cache.get_hit_ns", div(r.cache_hit_ns, r.cache_ops)),
        ("cache.get_miss_ns", div(r.cache_miss_ns, r.cache_ops)),
        (
            "cache.invalidate_page_ns",
            div(r.cache_inval_ns, r.cache_pages),
        ),
        ("itlb.lookup_hit_ns", div(r.itlb_hit_ns, r.itlb_ops)),
        ("itlb.lookup_miss_ns", div(r.itlb_miss_ns, r.itlb_ops)),
        ("paging.walk_ns", div(r.walk_ns, r.mem_ops)),
        ("tlb.lookup_ns", div(r.tlb_ns, r.mem_ops)),
        ("mem.read_ns", div(r.read_ns, r.mem_ops)),
        ("mem.write_ns", div(r.write_ns, r.mem_ops)),
        ("jit.decode_ms", cap.decode_ms),
        ("jit.translate_ms", cap.translate_ms),
        ("jit.regalloc_ms", cap.regalloc_ms),
        ("jit.encode_ms", cap.encode_ms),
        ("captive.jit_share", div(cap.jit_ns, cap.run_ns)),
        ("tier.stall_ms", cap.jit_ns / 1e6),
        ("tier.worker_ms", cap.worker_ms),
        ("tier.first_install_ms", cap.first_install_ms),
        ("tier.requests", cap.requests),
        ("tier.installed", cap.installed),
        ("tier.stale_discards", cap.stale),
        ("tier.reuse_hits", cap.reuse_hits),
        ("tier.reuse_misses", cap.reuse_misses),
        ("machine.ns_per_host_insn", div(exec_ns, cap.host_insns)),
        (
            "machine.host_insns_per_guest_insn",
            div(cap.host_insns, work),
        ),
        ("machine.cycles_per_guest_insn", div(cap.cycles, work)),
        (
            "machine.mem_access_share",
            div(cap.mem_accesses, cap.host_insns),
        ),
        ("machine.helper_calls", cap.helper_calls),
        ("machine.page_faults", cap.page_faults),
        ("machine.page_faults.expected", expected.page_faults as f64),
        ("machine.tlb_hit_rate", rate(cap.tlb_hits, cap.tlb_misses)),
        ("machine.tlb_flushes", cap.tlb_flushes),
        ("captive.exec_ns_per_block", div(exec_ns, cap.blocks)),
        ("captive.slow_dispatch_share", div(cap.slow, cap.blocks)),
        ("captive.chain_share", div(cap.chained, cap.blocks)),
        ("captive.translations", cap.translations),
        ("captive.regions_formed", cap.regions),
        ("captive.loop_regions", cap.loop_regions),
        ("captive.backedge_transfers", cap.backedges),
        (
            "captive.cache_hit_rate",
            rate(cap.cache_hits, cap.cache_misses),
        ),
        ("captive.insn_count_ratio", div(cap.guest_insns, work)),
        ("captive.code_bytes", cap.code_bytes),
        ("runtime.sync_exceptions", cap.events.sync_exceptions as f64),
        (
            "runtime.sync_exceptions.expected",
            expected.sync_exceptions as f64,
        ),
        ("runtime.exceptions", cap.events.exceptions as f64),
        ("runtime.exceptions.expected", expected.exceptions as f64),
        ("runtime.irqs", cap.events.irqs as f64),
        ("runtime.irqs.expected", expected.irqs as f64),
        ("runtime.ctx_gen_bumps", cap.events.ctx_gen_bumps as f64),
        (
            "runtime.ctx_gen_bumps.expected",
            expected.ctx_gen_bumps as f64,
        ),
        (
            "runtime.smc_invalidations",
            cap.events.smc_invalidations as f64,
        ),
        (
            "runtime.smc_invalidations.expected",
            expected.smc_invalidations as f64,
        ),
        (
            "runtime.itlb_hit_rate",
            rate(cap.itlb_hits, cap.itlb_misses),
        ),
        (
            "runtime.dtlb_hit_rate",
            rate(cap.dtlb_hits, cap.dtlb_misses),
        ),
        ("virtio.completions", cap.events.virtio_completions as f64),
        (
            "virtio.completions.expected",
            expected.virtio_completions as f64,
        ),
        ("virtio.dma_bytes", cap.events.virtio_dma_bytes as f64),
        (
            "virtio.dma_bytes.expected",
            expected.virtio_dma_bytes as f64,
        ),
        (
            "virtio.fault_injections",
            cap.events.virtio_fault_injections as f64,
        ),
        (
            "virtio.fault_injections.expected",
            expected.virtio_fault_injections as f64,
        ),
        ("qemu_ref.guest_mips", div(work, q_run_ns) * 1e3),
        ("qemu_ref.sim_cycles", q_cycles),
        ("qemu_ref.jit_share", div(q_jit_ns, q_run_ns)),
        (
            "qemu_ref.ns_per_host_insn",
            div(q_run_ns - q_jit_ns, q_host),
        ),
        (
            "qemu_ref.exec_ns_per_block",
            div(q_run_ns - q_jit_ns, q_blocks),
        ),
        (
            "trace.overhead_share",
            div(cap.run_ns - untraced_run_ns, untraced_run_ns),
        ),
        (
            "trace.sim_cycles_delta",
            cap.cycles - untraced_cycles as f64,
        ),
        ("trace.slices", cap.slices),
        ("trace.spans", rec.len() as f64),
    ];
    assert!(
        named
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|m| m.0)),
        "traced values must follow the PER_LAYER table"
    );
    let values: Vec<f64> = named.iter().map(|(_, v)| *v).collect();
    let get = |name: &str| -> f64 {
        named
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is in the table")
            .1
    };

    // Workload-validity assertions: a workload that stops stressing the
    // layer it is named for must fail loudly, not drift quietly.
    match opts.workload.as_str() {
        "hot_loops" if get("captive.jit_share") > 0.02 => invalid.push(format!(
            "hot_loops: captive.jit_share {:.4} > 0.02 (no longer execute-bound)",
            get("captive.jit_share")
        )),
        "cold_code" => {
            if get("captive.jit_share") < 0.60 {
                invalid.push(format!(
                    "cold_code: captive.jit_share {:.4} < 0.60 (no longer JIT-bound)",
                    get("captive.jit_share")
                ));
            }
            if get("tier.installed") == 0.0 {
                invalid.push("cold_code: no tier-1 region was installed".into());
            }
        }
        "indirect_dispatch" if get("captive.slow_dispatch_share") < 0.5 => invalid.push(format!(
            "indirect_dispatch: captive.slow_dispatch_share {:.4} < 0.5",
            get("captive.slow_dispatch_share")
        )),
        "sys_events" => {
            let e = &cap.events;
            for (what, n) in [
                ("sync_exceptions", e.sync_exceptions),
                ("exceptions", e.exceptions),
                ("irqs", e.irqs),
                ("ctx_gen_bumps", e.ctx_gen_bumps),
                ("smc_invalidations", e.smc_invalidations),
                ("page_faults", expected.page_faults),
                ("virtio_completions", e.virtio_completions),
                ("virtio_dma_bytes", e.virtio_dma_bytes),
                ("virtio_fault_injections", e.virtio_fault_injections),
            ] {
                if n == 0 {
                    invalid.push(format!("sys_events: event class {what} never fired"));
                }
            }
        }
        _ => {}
    }

    println!(
        "  traced run {:.4} s  untraced median {:.4} s ({} samples)  sim_cycles delta {}",
        cap.run_ns / 1e9,
        untraced_run_ns / 1e9,
        TRACE_REFERENCE_SAMPLES,
        cap.cycles - untraced_cycles as f64
    );
    let mut metrics_json = Vec::new();
    let mut line_metrics = Vec::new();
    for ((name, unit, better), &v) in PER_LAYER.iter().zip(&values) {
        println!(
            "  {name:<36} {v:>18.6} {unit:<8} better {}",
            better.as_str()
        );
        metrics_json.push((
            name.to_string(),
            obj(vec![
                ("value", v.into()),
                ("unit", (*unit).into()),
                ("better", better.as_str().into()),
            ]),
        ));
        line_metrics.push((
            name.to_string(),
            obj(vec![("value", v.into()), ("unit", (*unit).into())]),
        ));
    }
    for why in &invalid {
        println!("  INVALID {why}");
    }

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let trace_path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    std::fs::write(
        &trace_path,
        rec.to_json(&opts.workload, opts.seed, &names).to_pretty(),
    )
    .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("  spans {} -> {}", rec.len(), trace_path.display());

    let correct = ledger.failed == 0 && invalid.is_empty();
    let result = obj(vec![
        ("mode", "traced".into()),
        ("images", images_json(programs)),
        ("ops_total", ledger.total.into()),
        ("ops_failed", ledger.failed.into()),
        ("correct", correct.into()),
        (
            "validity_failures",
            Value::Arr(invalid.iter().map(|s| s.as_str().into()).collect()),
        ),
        ("metrics", Value::Obj(metrics_json)),
    ]);
    let line = driver_line(correct, &ledger, line_metrics);
    Ok((result, line, ledger, correct))
}
