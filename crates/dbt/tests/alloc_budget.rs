//! The back half of the pipeline works in one per-thread scratch
//! (`dbt::finish_translation`'s docs): once a thread has translated a unit,
//! translating another allocates what it *returns* — the host code, its
//! encoding, the promoted-carrier list — and nothing else.  This test counts.
//!
//! The corpus is built with the public [`Emitter`] the way a guest model
//! would: register-file arithmetic, guest-memory loads through scaled-index
//! addresses, flag-setting compares, and a conditional branch with its
//! side-exit stub at the end — two to sixty-four guest instructions a unit.

use dbt::emitter::BinOp;
use dbt::{Emitter, PhaseTimers, RuleTable, ValueType};
use hvm::Cond;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (and reallocations) this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, whose contract is
// the one this trait states; the counter is a plain thread-local cell with a
// constant initialiser, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Unit `k` of the corpus: `2 + (k * 7) % 63` guest-like instructions.
fn emit_unit(k: u64) -> Vec<dbt::LirInsn> {
    let x = |n: u64| (n % 31) as i32 * 8;
    let mut e = Emitter::new();
    let insns = 2 + (k * 7) % 63;
    for i in 0..insns {
        let s = k * 131 + i * 17;
        let a = e.load_register(x(s), ValueType::U64);
        let b = e.load_register(x(s / 3 + 1), ValueType::U64);
        match s % 5 {
            // x[d] = x[a] op x[b]
            0 | 1 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Mul][(s % 4) as usize];
                let r = e.binary(op, a, b);
                e.store_register(x(s / 7 + 2), r);
            }
            // x[d] = [x[a] + (x[b] << 3)]
            2 => {
                let three = e.const_u64(3);
                let scaled = e.binary(BinOp::Shl, b, three);
                let addr = e.add(a, scaled);
                let v = e.load_memory(addr, ValueType::U64, false);
                e.store_register(x(s / 7 + 2), v);
            }
            // [x[a]] = x[b]
            3 => e.store_memory(a, b, ValueType::U64),
            // flags = x[a] < x[b], unread unless it is the last one
            _ => {
                let lt = e.compare(Cond::Lt, a, b);
                e.store_register(256, lt);
            }
        }
        e.inc_pc(4);
    }
    let flags = e.load_register(256, ValueType::U64);
    let zero = e.const_u64(0);
    let taken = e.compare(Cond::Ne, flags, zero);
    e.branch_cond(taken, 0x4000 + k * 64, 0x8000 + k * 64);
    e.finish()
}

#[test]
fn a_warm_finish_translation_allocates_only_what_it_returns() {
    let table = RuleTable::full();
    let mut timers = PhaseTimers::default();
    let corpus: Vec<Vec<dbt::LirInsn>> = (0..200).map(emit_unit).collect();
    let longest = corpus.iter().max_by_key(|lir| lir.len()).unwrap();
    assert!(longest.len() > 300, "the corpus reaches block-cap units");

    // One warm-up unit: the longest, so that no table has to grow later.
    dbt::finish_translation(&mut timers, longest.clone(), true, true, Some(&table))
        .expect("the corpus lowers");
    let mut worst = 0;
    for (k, lir) in corpus.iter().enumerate() {
        let lir = lir.clone();
        let before = allocations();
        let done = dbt::finish_translation(&mut timers, lir, true, true, Some(&table));
        let spent = allocations() - before;
        let done = done.expect("the corpus lowers");
        assert!(
            spent <= 6,
            "unit {k}: {spent} allocations for {} host instructions",
            done.code.len()
        );
        worst = worst.max(spent);
    }
    // The unoptimised path the baseline takes shares the scratch.
    let before = allocations();
    dbt::finish_translation(&mut timers, longest.clone(), false, false, None)
        .expect("the corpus lowers");
    assert!(allocations() - before <= 6);
    assert!(worst >= 2, "`code` and `encoded` are allocations");
    assert!(timers.jit.opt_forwarded_loads > 1_000 && timers.jit.opt_idioms_fused > 100);
}

#[test]
fn a_warm_emitter_builds_a_unit_in_the_vectors_the_last_one_left() {
    let table = RuleTable::full();
    let mut timers = PhaseTimers::default();
    // Emission borrows the DAG vectors from the scratch and gets the LIR
    // vector back from `finish_translation`: warm, a unit no longer than
    // the longest before it is emitted without touching the heap.
    let translate = |k: u64, timers: &mut PhaseTimers| {
        let before = allocations();
        let lir = emit_unit(k);
        let spent = allocations() - before;
        dbt::finish_translation(timers, lir, true, true, Some(&table)).expect("lowers");
        spent
    };
    let longest = (0..200).max_by_key(|&k| emit_unit(k).len()).unwrap();
    translate(longest, &mut timers);
    translate(longest, &mut timers);
    for k in 0..200 {
        assert_eq!(translate(k, &mut timers), 0, "unit {k}");
    }
}
