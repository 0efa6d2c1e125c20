//! Seeded, engine-blind generation: what the harness feeds the engines is a
//! pure function of `--seed`, and the amount of work does not depend on it.

use benchmark::json;
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::program::{Program, SegKind};
use benchmark::workloads::{self, NAMES};
use guest_aarch64::isa::decode;

fn generate(name: &str, seed: u64) -> Vec<Program> {
    workloads::generate(name, seed).expect("known workload")
}

fn work(programs: &[Program]) -> u64 {
    programs.iter().map(|p| p.work_insns).sum()
}

#[test]
fn same_seed_gives_identical_images_and_work() {
    for name in NAMES {
        let (a, b) = (generate(name, 7), generate(name, 7));
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.image_hash(), pb.image_hash(), "{}", pa.name);
            assert_eq!(pa.work_insns, pb.work_insns, "{}", pa.name);
            assert_eq!(pa.events, pb.events, "{}", pa.name);
            assert_eq!(pa.blocks(), pb.blocks(), "{}", pa.name);
        }
    }
}

#[test]
fn different_seeds_give_different_images_and_nearly_equal_work() {
    for name in NAMES {
        let (a, b) = (generate(name, 1), generate(name, 2));
        for (pa, pb) in a.iter().zip(&b) {
            assert_ne!(pa.image_hash(), pb.image_hash(), "{}", pa.name);
        }
        let (wa, wb) = (work(&a) as f64, work(&b) as f64);
        assert!(
            (wa - wb).abs() / wa < 0.05,
            "{name}: work_insns {wa} vs {wb} differ by more than 5 %"
        );
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(workloads::generate("hot-loops", 1).is_none());
}

#[test]
fn every_code_word_decodes_except_the_deliberate_undef() {
    for name in NAMES {
        for p in generate(name, 3) {
            let undefined = p
                .segments
                .iter()
                .filter(|s| s.kind == SegKind::Code)
                .flat_map(|s| &s.words)
                .filter(|&&w| decode(w).is_none())
                .count();
            let expect = usize::from(p.name == "sys.undef");
            assert_eq!(undefined, expect, "{}", p.name);
        }
    }
}

#[test]
fn static_blocks_are_cut_the_way_the_translator_cuts() {
    for name in NAMES {
        for p in generate(name, 4) {
            let blocks = p.blocks();
            assert!(!blocks.is_empty(), "{}", p.name);
            for b in &blocks {
                assert!((1..=64).contains(&b.words.len()), "{} {:#x}", p.name, b.va);
                let last = b.va + (b.words.len() as u64 - 1) * 4;
                assert_eq!(
                    b.va & !0xFFF,
                    last & !0xFFF,
                    "{} block crosses a page",
                    p.name
                );
                // Only the last instruction may end a block.
                for &w in &b.words[..b.words.len() - 1] {
                    assert!(decode(w).is_some_and(|i| !i.ends_block()));
                }
            }
            // The entry point is a leader.
            assert!(blocks.iter().any(|b| b.va == p.entry), "{}", p.name);
        }
    }
}

#[test]
fn cold_code_holds_long_blocks_loops_and_copies() {
    let p = &generate("cold_code", 5)[0];
    let blocks = p.blocks();
    assert!(
        blocks.iter().any(|b| b.words.len() >= 48),
        "long blocks feed regalloc.*_len64"
    );
    assert!(
        blocks.iter().any(|b| b.words.len() <= 3),
        "short blocks exist too"
    );
    assert!(
        p.code_insns() > 100_000,
        "image is large: {}",
        p.code_insns()
    );
    assert!(p.work_insns as usize > p.code_insns(), "some blocks loop");
}

#[test]
fn indirect_dispatch_spans_more_pages_than_the_fetch_itlb_holds() {
    let p = &generate("indirect_dispatch", 6)[0];
    let pages: std::collections::BTreeSet<u64> = p.blocks().iter().map(|b| b.va >> 12).collect();
    assert!(pages.len() > 64, "{} code pages", pages.len());
}

#[test]
fn sys_events_declares_every_event_class() {
    let mut total = benchmark::program::Events::default();
    for p in generate("sys_events", 8) {
        total.add(&p.events);
    }
    for (what, n) in [
        ("sync_exceptions", total.sync_exceptions),
        ("exceptions", total.exceptions),
        ("irqs", total.irqs),
        ("ctx_gen_bumps", total.ctx_gen_bumps),
        ("smc_invalidations", total.smc_invalidations),
        ("page_faults", total.page_faults),
        ("virtio_completions", total.virtio_completions),
        ("virtio_dma_bytes", total.virtio_dma_bytes),
        ("virtio_fault_injections", total.virtio_fault_injections),
    ] {
        assert!(n > 0, "no program produces {what}");
    }
}

/// `BENCHMARK.json` is the CI driver's view of this package; it must name
/// exactly the workloads and metrics the harness prints.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads"), NAMES);
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    for (entry, m) in doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(
            entry.get("unit").unwrap().as_str(),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
        assert_eq!(
            entry.get("bound").unwrap().as_f64(),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    for (entry, m) in doc
        .get("per_layer")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.1), "{}", m.0);
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(m.2.as_str()),
            "{}",
            m.0
        );
    }
    assert_eq!(doc.get("paths").unwrap().as_arr().unwrap().len(), 1);
    assert_eq!(
        doc.get("run_seconds").unwrap().as_u64(),
        Some(benchmark::metrics::DEFAULT_SECONDS)
    );
}
