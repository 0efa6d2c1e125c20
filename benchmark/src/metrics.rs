//! The benchmark's metric tables: one place that names every metric, its
//! unit and its direction, so the printed results, the result files,
//! `compare` and `BENCHMARK.json` cannot drift apart (a unit test checks
//! the JSON against these tables).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Deterministic for a given seed: two runs must agree bit-for-bit.
    pub exact: bool,
}

/// The five end-to-end metrics, reported per workload.
///
/// Every bound is at least three times the widest run-to-run spread
/// (interquartile range ÷ median over ten runs with ten seeds) measured on
/// the reference box, a shared 2-core VM whose speed drifts by tens of
/// percent; README.md has the measurements.
///
/// `sim_cycles` and `sim_speedup` are exact for a given seed (the harness
/// fails a run whose samples disagree, and `compare` uses `==`), but the CI
/// driver measures run-to-run spread *across seeds*, where the images
/// differ; their bounds clear that cross-seed spread and are not zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "guest_mips",
        unit: "Minsn/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.03,
        exact: true,
    },
    EndToEnd {
        name: "sim_speedup",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
];

/// A per-layer metric: `(name, unit, better)`.  No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric the traced mode prints, in print order.  The name
/// prefix is the module (layer) it measures.
pub const PER_LAYER: [PerLayer; 86] = [
    // Replayed from outside: public calls timed per block.
    ("isa.decode_ns_per_insn", "ns", L),
    ("isa.decode_insns", "count", L),
    ("gen.emit_ns_per_insn", "ns", L),
    ("gen.lir_per_guest_insn", "ratio", L),
    ("idiom.ns_per_lir", "ns", L),
    ("idiom.rewrites", "count", H),
    ("opt.ns_per_lir", "ns", L),
    ("opt.lir_removed_share", "ratio", H),
    ("regalloc.ns_per_lir", "ns", L),
    ("regalloc.ns_per_lir_len64", "ns", L),
    ("regalloc.dead_share", "ratio", H),
    ("lower.ns_per_lir", "ns", L),
    ("encode.ns_per_host_insn", "ns", L),
    ("encode.bytes_per_guest_insn", "bytes", L),
    ("dbt.finish_ns_per_insn", "ns", L),
    ("dbt.finish_gap_share", "ratio", L),
    ("translator.block_ns_per_insn", "ns", L),
    ("cache.insert_ns", "ns", L),
    ("cache.get_hit_ns", "ns", L),
    ("cache.get_miss_ns", "ns", L),
    ("cache.invalidate_page_ns", "ns", L),
    ("itlb.lookup_hit_ns", "ns", L),
    ("itlb.lookup_miss_ns", "ns", L),
    ("paging.walk_ns", "ns", L),
    ("tlb.lookup_ns", "ns", L),
    ("mem.read_ns", "ns", L),
    ("mem.write_ns", "ns", L),
    // Read from the engine's public counters after the traced run.
    ("jit.decode_ms", "ms", L),
    ("jit.translate_ms", "ms", L),
    ("jit.regalloc_ms", "ms", L),
    ("jit.encode_ms", "ms", L),
    ("captive.jit_share", "ratio", L),
    ("tier.stall_ms", "ms", L),
    ("tier.worker_ms", "ms", L),
    ("tier.first_install_ms", "ms", L),
    ("tier.requests", "count", L),
    ("tier.installed", "count", H),
    ("tier.stale_discards", "count", L),
    ("tier.reuse_hits", "count", H),
    ("tier.reuse_misses", "count", L),
    ("machine.ns_per_host_insn", "ns", L),
    ("machine.host_insns_per_guest_insn", "ratio", L),
    ("machine.cycles_per_guest_insn", "ratio", L),
    ("machine.mem_access_share", "ratio", L),
    ("machine.helper_calls", "count", L),
    ("machine.page_faults", "count", L),
    ("machine.page_faults.expected", "count", L),
    ("machine.tlb_hit_rate", "ratio", H),
    ("machine.tlb_flushes", "count", L),
    ("captive.exec_ns_per_block", "ns", L),
    ("captive.slow_dispatch_share", "ratio", L),
    ("captive.chain_share", "ratio", H),
    ("captive.translations", "count", L),
    ("captive.regions_formed", "count", H),
    ("captive.loop_regions", "count", H),
    ("captive.backedge_transfers", "count", H),
    ("captive.cache_hit_rate", "ratio", H),
    ("captive.insn_count_ratio", "ratio", L),
    ("captive.code_bytes", "bytes", L),
    ("runtime.sync_exceptions", "count", L),
    ("runtime.sync_exceptions.expected", "count", L),
    ("runtime.exceptions", "count", L),
    ("runtime.exceptions.expected", "count", L),
    ("runtime.irqs", "count", L),
    ("runtime.irqs.expected", "count", L),
    ("runtime.ctx_gen_bumps", "count", L),
    ("runtime.ctx_gen_bumps.expected", "count", L),
    ("runtime.smc_invalidations", "count", L),
    ("runtime.smc_invalidations.expected", "count", L),
    ("runtime.itlb_hit_rate", "ratio", H),
    ("runtime.dtlb_hit_rate", "ratio", H),
    ("virtio.completions", "count", L),
    ("virtio.completions.expected", "count", L),
    ("virtio.dma_bytes", "bytes", L),
    ("virtio.dma_bytes.expected", "bytes", L),
    ("virtio.fault_injections", "count", L),
    ("virtio.fault_injections.expected", "count", L),
    // The one baseline pass (not gated: baseline host speed is not the
    // product).
    ("qemu_ref.guest_mips", "Minsn/s", H),
    ("qemu_ref.sim_cycles", "cycles", L),
    ("qemu_ref.jit_share", "ratio", L),
    ("qemu_ref.ns_per_host_insn", "ns", L),
    ("qemu_ref.exec_ns_per_block", "ns", L),
    // What tracing itself cost and changed.
    ("trace.overhead_share", "ratio", L),
    ("trace.sim_cycles_delta", "cycles", L),
    ("trace.slices", "count", L),
    ("trace.spans", "count", L),
];

/// Per-layer metrics that are deterministic for a given seed: two traced
/// runs of one commit must print them bit-identically, and a change meant
/// only to speed the host must leave every one of them untouched.
pub const EXACT_PER_LAYER: [&str; 42] = [
    "isa.decode_insns",
    "gen.lir_per_guest_insn",
    "idiom.rewrites",
    "opt.lir_removed_share",
    "regalloc.dead_share",
    "encode.bytes_per_guest_insn",
    "tier.requests",
    "tier.installed",
    "tier.stale_discards",
    "tier.reuse_hits",
    "tier.reuse_misses",
    "machine.host_insns_per_guest_insn",
    "machine.cycles_per_guest_insn",
    "machine.mem_access_share",
    "machine.helper_calls",
    "machine.page_faults",
    "machine.page_faults.expected",
    "machine.tlb_hit_rate",
    "machine.tlb_flushes",
    "captive.slow_dispatch_share",
    "captive.chain_share",
    "captive.translations",
    "captive.regions_formed",
    "captive.loop_regions",
    "captive.backedge_transfers",
    "captive.cache_hit_rate",
    "captive.insn_count_ratio",
    "captive.code_bytes",
    "runtime.sync_exceptions",
    "runtime.exceptions",
    "runtime.irqs",
    "runtime.ctx_gen_bumps",
    "runtime.smc_invalidations",
    "runtime.itlb_hit_rate",
    "runtime.dtlb_hit_rate",
    "virtio.completions",
    "virtio.dma_bytes",
    "virtio.fault_injections",
    "qemu_ref.sim_cycles",
    "trace.sim_cycles_delta",
    "trace.slices",
    "trace.spans",
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Measuring window used when `--seconds` is not given (the value
/// `BENCHMARK.json` hands the CI driver).
pub const DEFAULT_SECONDS: u64 = 10;
