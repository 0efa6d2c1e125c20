//! Regenerates the paper's tables and figures on the simulated substrate.
//!
//! Usage: `cargo run --release -p bench --bin figures -- [all|fig17|fig18|fig19|fig20|jitstats|fig21|fig22|table2|fp_modes|waterfall|json|scale|tiers]`
//!
//! (The usage line is [`usage`] over [`SECTIONS`], the table `main`
//! dispatches on; a test holds this comment to it.)  An unknown section is an
//! error: usage on standard error, exit code 2.
//!
//! `figures` prints, tests assert: an assertion lives in `bench/tests` unless
//! it needs a wall clock or more than a few seconds of debug-build run time.
//! That leaves two sections asserting here, each saying why at its `assert!`:
//! `tiers` (its bar is a wall-clock comparison) and `scale` (its Scale(4)
//! sweep takes ~24 s in the debug build `cargo test` uses).  What the former
//! `chaining` / `regions` / `loops` / `promote` / `opt` / `idioms` sections
//! asserted is `bench/tests/ablation.rs`; their tables are the one
//! [`waterfall`].

use bench::{geomean, native_model, EngineConfig, Guest, RunStats};
use captive::CaptiveConfig;
use workloads::{Scale, Workload};

/// One section: its name(s) on the command line and the function that
/// prints it.
type Section = (&'static [&'static str], fn());

/// Every section, in `all` order.
const SECTIONS: &[Section] = &[
    (&["fig17"], || {
        spec_figure("Figure 17: SPEC CPU2006 integer", workloads::spec_int, 2.21)
    }),
    (&["fig18"], || {
        spec_figure("Figure 18: SPEC CPU2006 FP", workloads::spec_fp, 6.49)
    }),
    (&["fig19"], fig19),
    (&["fig20", "jitstats"], fig20_and_jitstats),
    (&["fig21"], fig21),
    (&["fig22"], fig22),
    (&["table2"], table2),
    (&["fp_modes"], fp_modes),
    (&["waterfall"], waterfall),
    (&["json"], json),
    (&["scale"], scale),
    (&["tiers"], tiers),
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

/// The counters of `w` run on `engine` (a name `bench::engine` resolves,
/// or a Captive configuration).
fn run(w: &Workload, engine: impl Into<EngineConfig>) -> RunStats {
    bench::run(&w.into(), engine).stats
}

/// Captive as shipped with a content-keyed reuse cache shared across runs,
/// for repeated-image sweeps where later runs hit templates earlier ones
/// published.
fn tiered_reuse(w: &Workload, reuse: &std::sync::Arc<dbt::ReuseCache>) -> RunStats {
    let cfg = CaptiveConfig {
        reuse_cache: Some(std::sync::Arc::clone(reuse)),
        ..CaptiveConfig::default()
    };
    run(w, cfg)
}

/// The counters of `w` run on `engine` with a virtio-blk device attached.
fn run_io(w: &Workload, device: &hvm::VirtioBlkConfig, engine: &str) -> RunStats {
    let guest = Guest {
        virtio: Some(device.clone()),
        ..w.into()
    };
    bench::run(&guest, engine).stats
}

/// Figures 17 and 18: one SPEC suite, Captive against the QEMU-style
/// baseline, by default and in the paper's configuration.
fn spec_figure(title: &str, suite: fn(Scale) -> Vec<Workload>, paper: f64) {
    println!("== {title} — Captive vs QEMU-style baseline ==");
    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "benchmark", "qemu cycles", "captive cycles", "speedup"
    );
    let suite = suite(Scale(1));
    let mut speedups = Vec::new();
    let mut as_in_paper = Vec::new();
    for w in &suite {
        let c = run(w, "default");
        let q = run(w, "qemu");
        let s = q.cycles as f64 / c.cycles as f64;
        speedups.push(s);
        as_in_paper.push(q.cycles as f64 / run(w, "chain-only+sync").cycles as f64);
        println!(
            "{:<18} {:>14} {:>14} {:>8.2}x",
            w.name, q.cycles, c.cycles, s
        );
    }
    println!(
        "{:<18} {:>38.2}x  (paper: {paper:.2}x)",
        "geo. mean",
        geomean(&speedups)
    );
    println!(
        "{:<18} {:>38.2}x  (chain-only+sync, the paper's configuration: block-level translation plus chaining)",
        "geo. mean",
        geomean(&as_in_paper)
    );
    // Rows that are one program under several names, by their SPEC numbers.
    let number = |w: &Workload| w.name.split('.').next().unwrap_or(w.name);
    let mut shared = Vec::new();
    for (i, w) in suite.iter().enumerate() {
        let same: Vec<&str> = suite
            .iter()
            .filter(|o| o.words == w.words)
            .map(number)
            .collect();
        if same.len() > 1 && suite[..i].iter().all(|earlier| earlier.words != w.words) {
            shared.push(same.join(" / "));
        }
    }
    println!(
        "rows are proxy kernels, not SPEC CPU2006 itself; {} are one program each\n",
        shared.join(" and ")
    );
}

fn fig19() {
    println!("== Figure 19: SimBench micro-benchmarks — speedup of Captive over QEMU ==");
    let mut tlb_rows = Vec::new();
    for b in simbench::suite() {
        let w = bench::micro_workload(&b);
        let (c, q) = (run(&w, "default"), run(&w, "qemu"));
        println!("{:<22} {:>8.2}x", b.name, q.cycles as f64 / c.cycles as f64);
        if b.name.starts_with("TLB-") {
            tlb_rows.extend([(b.name, "captive", c), (b.name, "qemu", q)]);
        }
    }
    // The bypass of the guest-walk caches' revalidation rule: both TLB
    // kernels run with the guest MMU off, where there is no walk to keep and
    // no table to dirty, so the counters read 0 (held by
    // `bench/tests/table_writes.rs`) and the two ratios above are what they
    // were before the rule existed.
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
    let mut cap_phases = [0u64; 4];
    let mut cap_opt = 0u64;
    let mut qemu_time = 0.0;
    let mut cap_bytes = 0u64;
    let mut cap_insns = 0u64;
    let mut qemu_bytes = 0u64;
    let mut qemu_insns = 0u64;
    for w in workloads::spec_int(Scale(1)) {
        let c = run(&w, "default");
        let q = run(&w, "qemu");
        // Summed over the kernels and divided once, like the translation
        // time printed beside it.
        for (total, ns) in cap_phases.iter_mut().zip(jit_phases(&c)) {
            *total += ns;
        }
        cap_opt += c.jit_opt_ns;
        qemu_time += jit_ns(&q) as f64 / 1e9;
        if w.name == "429.mcf" {
            cap_bytes = c.code_bytes;
            cap_insns = c.translations;
            qemu_bytes = q.code_bytes;
            qemu_insns = q.translations;
        }
    }
    let cap_ns: u64 = cap_phases.iter().sum();
    let cap_time = cap_ns as f64 / 1e9;
    let percent = |ns: u64| ns as f64 * 100.0 / cap_ns.max(1) as f64;
    println!(
        "Captive phase breakdown: decode {:.1}%  translate {:.1}%  regalloc {:.1}% (of which optimiser {:.1}%)  encode {:.1}%",
        percent(cap_phases[0]),
        percent(cap_phases[1]),
        percent(cap_phases[2]),
        percent(cap_opt),
        percent(cap_phases[3])
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
    println!(
        "== Figure 21: whole-run cycles per guest instruction on 429.mcf \
         (Captive as shipped vs the unchained QEMU-style baseline) =="
    );
    let w = &workloads::spec_int(Scale(1))[3];
    let c = run(w, "default");
    let q = run(w, "qemu");
    println!(
        "captive: {} cycles over {} guest insns;  qemu: {} cycles",
        c.cycles, c.guest_insns, q.cycles
    );
    println!(
        "whole-run per-guest-instruction cycle ratio (qemu/captive): {:.2}x \
         (paper: 3.44x per block, a different measure)\n",
        (q.cycles as f64 / q.guest_insns.max(1) as f64)
            / (c.cycles as f64 / c.guest_insns.max(1) as f64)
    );
}

fn fig22() {
    println!("== Figure 22: Captive vs native Arm hardware (IPC models) ==");
    let mut ratios_a53 = Vec::new();
    let mut ratios_a57 = Vec::new();
    for w in workloads::spec_int(Scale(1)) {
        let c = run(&w, "default");
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
    println!(
        "{:<8} {:>20} {:>20} {:>12}",
        "input", "x86 (SQRTSD)", "Arm (FSQRT)", "difference"
    );
    for (name, v) in inputs {
        let x86 = softfloat::f64_sqrt_x86(v.to_bits());
        let arm = softfloat::f64_sqrt_arm(v.to_bits());
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

/// One waterfall step: its configuration (names of `bench::CAPTIVE_CONFIGS`
/// joined with `+`), the heading of the counter column that shows the step's
/// mechanism at work, and that counter read from the step's run.
type Step = (&'static str, &'static str, fn(&RunStats) -> String);

/// The ablation waterfall, left to right: the dispatcher alone, chaining,
/// region formation (looping regions with it: no knob forms regions without
/// back-edges) with every optimiser pass off — `nochain` and `chain-only`,
/// the chaining pair, keep the optimiser on their blocks — then the LIR
/// optimiser, loop-carried promotion and the guest-idiom layer put back one
/// at a time.  `sync` ends it: the shipped engine with formation on the run
/// thread, so no column depends on a worker's wall-clock speed.
const WATERFALL: &[Step] = &[
    ("nochain", "dispatched", |m| m.slow_dispatches.to_string()),
    ("chain-only", "chained", |m| m.chained_transfers.to_string()),
    ("noopt+sync", "formed/backedges", |m| {
        format!("{}/{}", m.regions_formed, m.backedge_transfers)
    }),
    ("nopromote+noidiom+sync", "deadst+fwd", |m| {
        (m.jit.opt_dead_stores + m.jit.opt_forwarded_loads).to_string()
    }),
    ("noidiom+sync", "promoted/hoisted", |m| {
        format!("{}/{}", m.jit.opt_promoted_slots, m.jit.opt_hoisted_loads)
    }),
    ("sync", "fused", |m| m.jit.opt_idioms_fused.to_string()),
];

/// The kernels of the waterfall: the union of what the six ablation sections
/// it replaces ran, each once.
fn waterfall_kernels() -> Vec<Workload> {
    let mut ws = workloads::spec_int(Scale(1));
    ws.truncate(8);
    ws.push(workloads::fp_micro(Scale(1)));
    ws.extend(workloads::loop_kernels(Scale(1)));
    ws.extend(workloads::idiom_kernels(Scale(1)));
    ws.push(bench::micro_workload(&simbench::same_page_direct(10_000)));
    // 401.bzip2 and 462.libquantum are loop kernels too.
    let mut seen = Vec::new();
    ws.retain(|w| {
        let first = !seen.contains(&w.name);
        seen.push(w.name);
        first
    });
    ws
}

/// `w` once per step of [`WATERFALL`], in step order.
fn waterfall_row(w: &Workload) -> Vec<RunStats> {
    WATERFALL.iter().map(|&(cfg, ..)| run(w, cfg)).collect()
}

fn waterfall() {
    println!("== Ablation waterfall: nochain -> chain-only -> regions -> optimiser -> promotion -> idioms ==");
    println!(
        "   per step: modeled cycles, the gain over the step on its left, and the counter showing"
    );
    println!("   the step's mechanism at work, all from the one run.  `nochain` and `chain-only` keep the");
    println!("   optimiser on their blocks; `noopt+sync` forms regions with every optimiser pass off, so");
    println!(
        "   its gain is regions minus block-level optimisation, and the steps after it put the"
    );
    println!("   optimiser back a layer at a time.");
    let counter_width = |heading: &str| heading.len().max(7);
    print!("{:<16}", "");
    for (cfg, heading, _) in WATERFALL {
        print!(" | {cfg:<w$}", w = 9 + 1 + 6 + 1 + counter_width(heading));
    }
    print!("\n{:<16}", "kernel");
    for (_, heading, _) in WATERFALL {
        let w = counter_width(heading);
        print!(" | {:>9} {:>6} {heading:>w$}", "cycles", "gain");
    }
    println!();
    for w in waterfall_kernels() {
        print!("{:<16}", w.name);
        let mut previous = None;
        for (m, (_, heading, counter)) in waterfall_row(&w).iter().zip(WATERFALL) {
            let gain = previous.map_or(String::new(), |p: u64| {
                format!("{:.3}x", p as f64 / m.cycles as f64)
            });
            let w = counter_width(heading);
            print!(" | {:>9} {gain:>6} {:>w$}", m.cycles, counter(m));
            previous = Some(m.cycles);
        }
        println!();
    }
    println!();
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
        push(w.name, "captive", &run(&w, "default"));
        push(w.name, "qemu", &run(&w, "qemu"));
        push(w.name, "qemu+chain", &run(&w, "qemu+chain"));
    }
    for w in workloads::spec_fp(Scale(1)) {
        push(w.name, "captive", &run(&w, "default"));
        push(w.name, "qemu", &run(&w, "qemu"));
    }
    for w in workloads::loop_kernels(Scale(1)) {
        push(w.name, "captive", &run(&w, "nopromote+sync"));
        push(w.name, "captive-promote", &run(&w, "sync"));
        push(w.name, "qemu+goto_tb", &run(&w, "qemu+goto_tb"));
        // The tier trajectory: cold run publishes+installs asynchronously,
        // the warm run resurrects regions from the shared reuse cache.
        let reuse = std::sync::Arc::new(dbt::ReuseCache::new());
        push(w.name, "captive-tiered-cold", &tiered_reuse(&w, &reuse));
        push(w.name, "captive-tiered-warm", &tiered_reuse(&w, &reuse));
    }
    for w in [
        workloads::interrupt_storm(40, 2_500),
        workloads::timer_tick(20_000, 200_000),
    ] {
        push(w.name, "captive", &run(&w, "default"));
        push(w.name, "qemu", &run(&w, "qemu"));
    }
    // The guest-idiom trajectory (the per-rule `idiom_hits.<rule>`
    // counters).
    for w in workloads::idiom_kernels(Scale(1)) {
        push(w.name, "captive-idiom", &run(&w, "sync"));
        push(w.name, "captive-noidiom", &run(&w, "noidiom+sync"));
        push(w.name, "qemu", &run(&w, "qemu"));
    }
    // The virtio-blk I/O kernels, including the device-originated-SMC case
    // (the `virtio_*` counters).
    let vcfg = workloads::vblk_config();
    for w in workloads::io_kernels() {
        push(w.name, "captive", &run_io(&w, &vcfg, "default"));
        push(w.name, "qemu", &run_io(&w, &vcfg, "qemu"));
    }
    let (smc, sector0) = workloads::vblk_smc();
    let smc_cfg = workloads::vblk_smc_config(sector0);
    push(smc.name, "captive", &run_io(&smc, &smc_cfg, "default"));
    push(smc.name, "qemu", &run_io(&smc, &smc_cfg, "qemu"));
    // A deliberately starved code cache, so the eviction counters have a
    // tracked non-zero baseline.
    let mcf = workloads::spec_int(Scale(1)).remove(3);
    push(
        "429.mcf",
        "captive-tinycache",
        &run(
            &mcf,
            CaptiveConfig {
                cache_capacity_regions: Some(3),
                ..CaptiveConfig::default()
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
            let c = run(&w, "default");
            let q = run(&w, "qemu");
            let qc = run(&w, "qemu+chain");
            // CI smoke invariants: work must grow strictly with scale on
            // every engine, and the engine ordering must hold at every
            // scale (captive < qemu+chain <= qemu on these kernels).
            // Asserted here and not in `bench/tests`: the sweep to Scale(4)
            // on three engines takes ~24 s in a debug build.
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
        let cold = tiered_reuse(&w, &reuse);
        let warm = tiered_reuse(&w, &reuse);
        let sync = run(&w, "sync");
        // CI smoke invariants, asserted here and not in `bench/tests`
        // because they make the runs of the wall-clock bar below worth
        // timing (`captive`'s own tier tests hold the same on one loop):
        // regions are installed at the same guest progress point in both
        // modes, so the modeled cost is mode- and warmth-blind on these
        // single-trace kernels; the background path must actually install
        // asynchronously on the cold run; the warm run must resurrect at
        // least one region from the reuse cache; and time-to-first-install
        // must have been recorded.
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
    // below the synchronous former's across the loop-kernel suite.  A
    // wall-clock comparison: it belongs to a release build on a quiet
    // runner, not to `cargo test`.
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
    let hw = run(&w, "default");
    let sw = run(&w, "softfp");
    let q = run(&w, "qemu");
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
    fn every_waterfall_step_is_a_named_configuration_ending_in_sync() {
        use super::{waterfall_kernels, waterfall_row, WATERFALL};
        for (cfg, ..) in WATERFALL {
            // Panics on a name `bench::CAPTIVE_CONFIGS` does not hold.
            bench::captive_config(cfg);
        }
        assert_eq!(WATERFALL.last().unwrap().0, "sync");
        let kernels = waterfall_kernels();
        let mut names: Vec<&str> = kernels.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!((kernels.len(), names.len()), (15, 15), "each kernel once");
        // The cheapest kernel of each family, to keep the debug-build run short.
        for name in ["fp-micro", "idiom.memset", "Same-Page-Direct"] {
            let w = kernels.iter().find(|w| w.name == name).expect(name);
            let row = waterfall_row(w);
            assert_eq!(row.len(), WATERFALL.len());
            assert_eq!(
                row.last().unwrap().cycles,
                super::run(w, "sync").cycles,
                "{name}: the sync column is the sync configuration run on its own"
            );
        }
    }

    #[test]
    fn usage_doc_comment_matches_the_section_table() {
        assert_eq!(super::SECTIONS.len(), 12);
        let doc = format!("//! Usage: `{}`", super::usage());
        assert!(
            include_str!("figures.rs").lines().any(|l| l == doc),
            "module docs must carry the generated usage line:\n{doc}"
        );
    }
}
