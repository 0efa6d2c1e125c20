//! Criterion benches: wall-clock cost of running representative workloads
//! under Captive and the QEMU-style baseline, plus JIT translation latency.
//!
//! The paper's headline numbers are simulated-cycle ratios (regenerated by
//! `cargo run -p bench --bin figures`); these Criterion benches measure the
//! reproduction's own wall-clock behaviour so regressions in the DBT
//! pipeline itself are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use workloads::Scale;

fn bench_spec_subset(c: &mut Criterion) {
    let mcf = workloads::spec_int(Scale(1)).into_iter().nth(3).unwrap();
    let sphinx = workloads::spec_fp(Scale(1)).into_iter().next().unwrap();

    let mut group = c.benchmark_group("fig17_fig18_runtime");
    group.sample_size(10);
    group.bench_function("captive/429.mcf", |b| b.iter(|| bench::run_captive(&mcf)));
    group.bench_function("qemu/429.mcf", |b| b.iter(|| bench::run_qemu(&mcf)));
    group.bench_function("captive/482.sphinx3", |b| {
        b.iter(|| bench::run_captive(&sphinx))
    });
    group.bench_function("qemu/482.sphinx3", |b| b.iter(|| bench::run_qemu(&sphinx)));
    group.finish();
}

fn bench_simbench(c: &mut Criterion) {
    let mem_hot = simbench::mem_hot(5_000);
    let mut group = c.benchmark_group("fig19_simbench");
    group.sample_size(10);
    group.bench_function("captive/mem-hot", |b| {
        b.iter(|| bench::run_both_raw(mem_hot.name, &mem_hot.words, mem_hot.entry).0)
    });
    group.bench_function("qemu/mem-hot", |b| {
        b.iter(|| bench::run_both_raw(mem_hot.name, &mem_hot.words, mem_hot.entry).1)
    });
    group.finish();
}

fn bench_dispatch_hot_loop(c: &mut Criterion) {
    // Section 2.6/2.7: a dispatch-bound direct-branch loop, without
    // chaining, with chaining, and with region formation on top.  The
    // chained run must do strictly less work per transfer (no page walk, no
    // cache lookup, no EL read); the region run must additionally enter
    // the interpreter strictly less often (counted by the
    // `region_transfers` counter in `figures -- regions`).
    let w = bench::micro_workload(&simbench::same_page_direct(10_000));
    let mut group = c.benchmark_group("dispatch_hot_loop");
    group.sample_size(10);
    for (label, config) in [
        ("chaining_on", "chain-only"),
        ("chaining_off", "nochain"),
        ("regions_on", "sync"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| bench::run_captive_cfg(&w, bench::captive_config(config)).cycles)
        });
    }
    group.finish();
}

fn bench_translation_latency(c: &mut Criterion) {
    // Fig. 20 / Section 3.4: time to translate a fresh block set.
    let blocks = simbench::large_blocks(40);
    let mut group = c.benchmark_group("fig20_translation_latency");
    group.sample_size(10);
    group.bench_function("captive/translate-large-blocks", |b| {
        b.iter(|| bench::run_both_raw(blocks.name, &blocks.words, blocks.entry).0)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spec_subset,
    bench_simbench,
    bench_dispatch_hot_loop,
    bench_translation_latency
);
criterion_main!(benches);
