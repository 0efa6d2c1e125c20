//! Per-layer replay: the traced mode walks the generator's own block list
//! and times each layer's *public* function per block, on cloned inputs,
//! from outside the engines.
//!
//! Every stage runs [`PASSES`] passes; a pass times the whole (sampled)
//! block list in one go, so timer overhead is amortised over thousands of
//! calls.  Inputs are cloned before the clock starts.  The value reported
//! is the median pass (the minimum is kept in the span counters).
//!
//! Large images are sampled: at most [`INSN_CAP`] guest instructions per
//! program, every k-th block of the static block list — deterministic, and
//! it keeps the block-length mix.  Tiny block lists are repeated inside a
//! pass until a pass covers [`MIN_PASS_INSNS`] instructions.

use crate::program::{Block, Program};
use crate::stats::summarize;
use crate::trace::Recorder;
use captive::itlb::FetchTlb;
use captive::translator::translate_block;
use captive::{layout, Captive, FpMode};
use dbt::lir::LirInsn;
use dbt::regalloc::Allocation;
use dbt::{CacheIndex, CodeCache, Emitter, GuestIsa, PhaseTimers, Region, RegionKey, RuleTable};
use guest_aarch64::gen::Decoded;
use guest_aarch64::Aarch64Isa;
use hvm::MachInsn;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per stage.
pub const PASSES: usize = 5;
/// Most guest instructions replayed per program.
pub const INSN_CAP: usize = 24_000;
/// Fewest guest instructions one pass covers.
pub const MIN_PASS_INSNS: usize = 12_000;
/// Blocks at least this long feed `regalloc.ns_per_lir_len64`.
pub const LONG_BLOCK: usize = 48;

/// Sums over every replayed program of a workload: a stage's median-pass
/// nanoseconds and the unit counts that normalise them.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub guest_insns: f64,
    pub decode_ns: f64,
    pub emit_ns: f64,
    pub lir_raw: f64,
    pub idiom_ns: f64,
    pub idiom_rewrites: f64,
    pub opt_ns: f64,
    pub lir_opt: f64,
    pub regalloc_ns: f64,
    pub regalloc_long_ns: f64,
    pub lir_opt_long: f64,
    pub dead: f64,
    pub lower_ns: f64,
    pub encode_ns: f64,
    pub host_insns: f64,
    pub encoded_bytes: f64,
    pub finish_ns: f64,
    pub translator_ns: f64,
    pub cache_insert_ns: f64,
    pub cache_hit_ns: f64,
    pub cache_miss_ns: f64,
    pub cache_inval_ns: f64,
    pub cache_ops: f64,
    pub cache_pages: f64,
    pub itlb_hit_ns: f64,
    pub itlb_miss_ns: f64,
    pub itlb_ops: f64,
    pub walk_ns: f64,
    pub tlb_ns: f64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub mem_ops: f64,
}

/// The static pipeline products of one block, computed once, untimed.
struct Golden {
    va: u64,
    decoded: Vec<Decoded>,
    lir_raw: Vec<LirInsn>,
    lir_opt: Vec<LirInsn>,
    alloc: Allocation,
    code: Vec<MachInsn>,
}

fn emit(isa: &Aarch64Isa, decoded: &[Decoded]) -> Vec<LirInsn> {
    let mut e = Emitter::new();
    for d in decoded {
        if !isa.generate(d, &mut e) {
            e.inc_pc(4);
        }
    }
    e.finish()
}

/// `translate_block` as Captive's dispatcher calls it by default (64-insn
/// cap, hardware FP, optimiser, promotion and the full idiom table), at an
/// identity-mapped address.
fn translate(machine: &mut hvm::Machine, timers: &mut PhaseTimers, va: u64) -> Region {
    translate_block(
        &Aarch64Isa,
        machine,
        timers,
        va,
        va,
        64,
        FpMode::Hardware,
        true,
        true,
        Some(RuleTable::builtin()),
    )
}

/// Every k-th block so the replay covers at most `INSN_CAP` instructions.
fn sample(blocks: Vec<Block>) -> Vec<Block> {
    let total: usize = blocks.iter().map(|b| b.words.len()).sum();
    let stride = total.div_ceil(INSN_CAP).max(1);
    blocks.into_iter().step_by(stride).collect()
}

/// Runs `pass` [`PASSES`] times; `pass` returns the nanoseconds it timed.
/// Records a `replay.<stage>` span and returns the median pass.
fn stage(
    rec: &mut Recorder,
    parent: u64,
    program: usize,
    name: &str,
    mut pass: impl FnMut() -> u64,
) -> f64 {
    let id = rec.start(format!("replay.{name}"), Some(parent), Some(program));
    let ns: Vec<f64> = (0..PASSES).map(|_| pass() as f64).collect();
    rec.end(id);
    let s = summarize(&ns);
    rec.counter(id, "pass_min_ns", s.min);
    rec.counter(id, "pass_median_ns", s.median);
    rec.counter(id, "passes", PASSES as f64);
    s.median
}

/// Replays the JIT pipeline, the code cache and the fetch iTLB over
/// program `index`'s block list, adding to `t`.  `engine` is a freshly
/// loaded Captive (its machine holds the image for `translate_block`).
pub fn replay_code(
    rec: &mut Recorder,
    parent: u64,
    index: usize,
    p: &Program,
    engine: &mut Captive,
    t: &mut Totals,
) {
    let isa = Aarch64Isa;
    let table = RuleTable::builtin();
    let blocks = sample(p.blocks());
    let insns: usize = blocks.iter().map(|b| b.words.len()).sum();
    if insns == 0 {
        return;
    }
    let reps = MIN_PASS_INSNS.div_ceil(insns).max(1);
    let scale = 1.0 / reps as f64;

    // Golden products, untimed.  Undefined words decode to nothing (the
    // translator raises UNDEF there); blocks whose lowering bails out are
    // left out of the later stages, as the engine would leave them out.
    let golden: Vec<Golden> = blocks
        .iter()
        .filter_map(|b| {
            let decoded: Vec<Decoded> = b
                .words
                .iter()
                .enumerate()
                .filter_map(|(i, &w)| isa.decode(w, b.va + i as u64 * 4))
                .collect();
            let lir_raw = emit(&isa, &decoded);
            let mut lir_opt = lir_raw.clone();
            dbt::opt::optimize(&mut lir_opt, true, Some(table));
            let alloc = dbt::regalloc::allocate(&lir_opt);
            let code = dbt::lower::lower(&lir_opt, &alloc).ok()?;
            Some(Golden {
                va: b.va,
                decoded,
                lir_raw,
                lir_opt,
                alloc,
                code,
            })
        })
        .collect();

    // Exact counts (per single pass over the list).
    t.guest_insns += insns as f64;
    for g in &golden {
        t.lir_raw += g.lir_raw.len() as f64;
        t.lir_opt += g.lir_opt.len() as f64;
        t.dead += g.alloc.dead.iter().filter(|d| **d).count() as f64;
        t.host_insns += g.code.len() as f64;
        t.encoded_bytes += hvm::encode::encode_block(&g.code).len() as f64;
        if g.decoded.len() >= LONG_BLOCK {
            t.lir_opt_long += g.lir_opt.len() as f64;
        }
        let mut lir = g.lir_raw.clone();
        let mut stats = dbt::IdiomStats::default();
        dbt::idiom::apply_early(&mut lir, table, &mut stats);
        dbt::idiom::fold_addressing(&mut lir, table, &mut stats);
        t.idiom_rewrites += stats.total_fused() as f64;
    }

    t.decode_ns += scale
        * stage(rec, parent, index, "isa.decode", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for b in &blocks {
                    for &w in &b.words {
                        black_box(guest_aarch64::decode(black_box(w)));
                    }
                }
            }
            t0.elapsed().as_nanos() as u64
        });
    t.emit_ns += scale
        * stage(rec, parent, index, "gen.emit", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for g in &golden {
                    black_box(emit(&isa, &g.decoded));
                }
            }
            t0.elapsed().as_nanos() as u64
        });

    // Stages that consume their input get one clone per call, made before
    // the clock starts.
    let clones = |pick: fn(&Golden) -> &Vec<LirInsn>| -> Vec<Vec<LirInsn>> {
        (0..reps)
            .flat_map(|_| golden.iter().map(move |g| pick(g).clone()))
            .collect()
    };
    t.idiom_ns += scale
        * stage(rec, parent, index, "idiom.apply", || {
            let mut inputs = clones(|g| &g.lir_raw);
            let t0 = Instant::now();
            for lir in &mut inputs {
                let mut stats = dbt::IdiomStats::default();
                dbt::idiom::apply_early(lir, table, &mut stats);
                dbt::idiom::fold_addressing(lir, table, &mut stats);
                black_box(&stats);
            }
            t0.elapsed().as_nanos() as u64
        });
    t.opt_ns += scale
        * stage(rec, parent, index, "opt.optimize", || {
            let mut inputs = clones(|g| &g.lir_raw);
            let t0 = Instant::now();
            for lir in &mut inputs {
                black_box(dbt::opt::optimize(lir, true, Some(table)));
            }
            t0.elapsed().as_nanos() as u64
        });
    // Register allocation, with the long blocks timed on their own clock
    // as well (the cost is superlinear in block length).
    let mut long_ns = Vec::with_capacity(PASSES);
    t.regalloc_ns += scale
        * stage(rec, parent, index, "regalloc.allocate", || {
            let mut long = 0u64;
            let t0 = Instant::now();
            for _ in 0..reps {
                for g in &golden {
                    if g.decoded.len() >= LONG_BLOCK {
                        let t1 = Instant::now();
                        black_box(dbt::regalloc::allocate(&g.lir_opt));
                        long += t1.elapsed().as_nanos() as u64;
                    } else {
                        black_box(dbt::regalloc::allocate(&g.lir_opt));
                    }
                }
            }
            long_ns.push(long as f64);
            t0.elapsed().as_nanos() as u64
        });
    t.regalloc_long_ns += scale * summarize(&long_ns).median;
    t.lower_ns += scale
        * stage(rec, parent, index, "lower.lower", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for g in &golden {
                    let _ = black_box(dbt::lower::lower(&g.lir_opt, &g.alloc));
                }
            }
            t0.elapsed().as_nanos() as u64
        });
    t.encode_ns += scale
        * stage(rec, parent, index, "encode.encode_block", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for g in &golden {
                    black_box(hvm::encode::encode_block(&g.code));
                }
            }
            t0.elapsed().as_nanos() as u64
        });
    t.finish_ns += scale
        * stage(rec, parent, index, "dbt.finish_translation", || {
            let inputs = clones(|g| &g.lir_raw);
            let mut timers = PhaseTimers::default();
            let t0 = Instant::now();
            for lir in inputs {
                let _ = black_box(dbt::finish_translation(
                    &mut timers,
                    lir,
                    true,
                    true,
                    Some(table),
                ));
            }
            t0.elapsed().as_nanos() as u64
        });

    // The whole per-block translator on the loaded machine.
    t.translator_ns += scale
        * stage(rec, parent, index, "translator.translate_block", || {
            let mut timers = PhaseTimers::default();
            let t0 = Instant::now();
            for _ in 0..reps {
                for g in &golden {
                    black_box(translate(&mut engine.machine, &mut timers, g.va));
                }
            }
            t0.elapsed().as_nanos() as u64
        });

    // Code cache: insert every region, look every key up (hits), look up
    // absent keys (misses), then invalidate page by page.
    let keys: Vec<RegionKey> = golden
        .iter()
        .map(|g| RegionKey {
            phys: g.va,
            virt: g.va,
        })
        .collect();
    let mut pages: Vec<u64> = keys.iter().map(|k| k.phys & !0xFFF).collect();
    pages.sort_unstable();
    pages.dedup();
    let lookups = (MIN_PASS_INSNS / keys.len().max(1)).max(1);
    let (mut ins, mut hit, mut miss, mut inval) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cache_span = rec.start("replay.cache", Some(parent), Some(index));
    for _ in 0..PASSES {
        let fresh: Vec<Region> = golden
            .iter()
            .map(|g| translate(&mut engine.machine, &mut PhaseTimers::default(), g.va))
            .collect();
        let cache = CodeCache::new(CacheIndex::GuestPhysical);
        let t0 = Instant::now();
        for r in fresh {
            black_box(cache.insert(r));
        }
        ins.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
        let t0 = Instant::now();
        for _ in 0..lookups {
            for k in &keys {
                black_box(cache.get(*k, 0));
            }
        }
        hit.push(t0.elapsed().as_nanos() as f64 / (lookups * keys.len()) as f64);
        let t0 = Instant::now();
        for _ in 0..lookups {
            for k in &keys {
                black_box(cache.get(
                    RegionKey {
                        phys: k.phys + 2,
                        virt: k.virt + 2,
                    },
                    0,
                ));
            }
        }
        miss.push(t0.elapsed().as_nanos() as f64 / (lookups * keys.len()) as f64);
        let t0 = Instant::now();
        for &page in &pages {
            cache.invalidate_phys_page(page);
        }
        inval.push(t0.elapsed().as_nanos() as f64 / pages.len() as f64);
        assert!(
            cache.is_empty(),
            "every replayed region sits on a listed page"
        );
    }
    rec.end(cache_span);
    // Weighted by operation count so workload totals divide back to ns/op.
    let n = keys.len() as f64;
    t.cache_insert_ns += summarize(&ins).median * n;
    t.cache_hit_ns += summarize(&hit).median * n;
    t.cache_miss_ns += summarize(&miss).median * n;
    t.cache_ops += n;
    t.cache_inval_ns += summarize(&inval).median * pages.len() as f64;
    t.cache_pages += pages.len() as f64;

    // Fetch iTLB over the image's page set: fill (up to its 64 entries,
    // one page per slot), then time current-generation lookups (hits) and
    // stale-generation lookups (misses).
    let mut slots = std::collections::BTreeMap::new();
    for &page in &pages {
        slots.entry((page >> 12) % 64).or_insert(page);
    }
    let resident: Vec<u64> = slots.into_values().collect();
    let rounds = (MIN_PASS_INSNS * 4 / resident.len()).max(1);
    let (mut ihit, mut imiss) = (Vec::new(), Vec::new());
    let itlb_span = rec.start("replay.itlb", Some(parent), Some(index));
    for _ in 0..PASSES {
        let mut tlb = FetchTlb::new();
        for &page in &resident {
            tlb.insert(page, page, 1);
        }
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &page in &resident {
                black_box(tlb.lookup(black_box(page + 0x40), 1));
            }
        }
        ihit.push(t0.elapsed().as_nanos() as f64 / (rounds * resident.len()) as f64);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &page in &resident {
                black_box(tlb.lookup(black_box(page + 0x40), 2));
            }
        }
        imiss.push(t0.elapsed().as_nanos() as f64 / (rounds * resident.len()) as f64);
        assert_eq!(tlb.hits, tlb.misses, "hit pass hits, stale pass misses");
    }
    rec.end(itlb_span);
    let n = resident.len() as f64;
    t.itlb_hit_ns += summarize(&ihit).median * n;
    t.itlb_miss_ns += summarize(&imiss).median * n;
    t.itlb_ops += n;
}

/// Replays the memory path over the program's data addresses on the
/// machine the traced run just finished on (its host page tables hold the
/// mappings the run built): host page walk, host TLB lookup, physical read
/// and write.
pub fn replay_memory(
    rec: &mut Recorder,
    parent: u64,
    index: usize,
    p: &Program,
    engine: &mut Captive,
    t: &mut Totals,
) {
    if p.data_addrs.is_empty() {
        return;
    }
    let addrs = &p.data_addrs;
    let rounds = (MIN_PASS_INSNS * 2 / addrs.len()).max(1);
    let ops = (rounds * addrs.len()) as f64;
    let m = &mut engine.machine;
    let (root, pcid) = (m.pt_root(), m.pcid());
    let (mut walk, mut tlb, mut read, mut write) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let span = rec.start("replay.memory", Some(parent), Some(index));
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &a in addrs {
                let _ = black_box(hvm::paging::walk(&m.mem, root, black_box(a)));
            }
        }
        walk.push(t0.elapsed().as_nanos() as f64 / ops);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &a in addrs {
                black_box(m.tlb.lookup(black_box(a), pcid));
            }
        }
        tlb.push(t0.elapsed().as_nanos() as f64 / ops);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &a in addrs {
                let _ = black_box(m.mem.read_uint(layout::GUEST_PHYS_BASE + (a & !7), 8));
            }
        }
        read.push(t0.elapsed().as_nanos() as f64 / ops);
        // The run is over and already verified; the writes land in an
        // engine that is about to be dropped.
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &a in addrs {
                let _ = black_box(m.mem.write_uint(layout::GUEST_PHYS_BASE + (a & !7), a, 8));
            }
        }
        write.push(t0.elapsed().as_nanos() as f64 / ops);
    }
    rec.end(span);
    let n = addrs.len() as f64;
    t.walk_ns += summarize(&walk).median * n;
    t.tlb_ns += summarize(&tlb).median * n;
    t.read_ns += summarize(&read).median * n;
    t.write_ns += summarize(&write).median * n;
    t.mem_ops += n;
}
