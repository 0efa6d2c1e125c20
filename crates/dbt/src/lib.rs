//! The online DBT pipeline shared by Captive and the QEMU-style baseline.
//!
//! The paper's online stage (Section 2.3) has four phases, reproduced here as
//! four modules:
//!
//! 1. **Instruction decoding** — performed by the guest model behind the
//!    [`GuestIsa`] trait (the decoder is generated offline in the paper; here
//!    the guest crates provide it).
//! 2. **Translation** ([`emitter`]) — generator functions call into an
//!    invocation-DAG builder; nodes with run-time side effects collapse the
//!    DAG and emit low-level IR ([`lir`]) immediately (Fig. 9).  The LIR
//!    keeps the guest register-file slot metadata (offset + width) the
//!    collapse produced, so later passes can reason about slot liveness.
//! 3. **Optimisation** ([`opt`]) — optional block-scoped passes over the
//!    finished LIR: store-to-load forwarding through register-file slots and
//!    dead regfile-store elimination (the dead-flag case), run by engines
//!    that opt in (Captive does; the QEMU-style baseline does not).
//! 4. **Register allocation** ([`regalloc`]) — a fast live-range allocator
//!    with iterative dead-code marking that sweeps the value chains feeding
//!    eliminated stores.
//! 5. **Instruction encoding** ([`lower`]) — the allocated IR is lowered to
//!    HVM64 machine instructions (dead instructions skipped), relative jumps
//!    are patched, and the block is byte-encoded for the code-size
//!    statistics.
//!
//! Every translation is a [`cache::Region`] — 1..N guest basic blocks in one
//! host-code unit — kept in a [`cache::CodeCache`] keyed by (entry physical
//! address, entry virtual class).  Captive leans on the physical component
//! so translations survive guest page-table changes (the paper's
//! translation-reuse argument, Section 2.6); the QEMU-style baseline uses
//! the same structure but flushes it wholesale on translation-state changes.
//! Wall-clock time spent in each phase is accumulated in
//! [`timing::PhaseTimers`] for the Fig. 20 experiment.

pub mod cache;
pub mod counters;
pub mod emitter;
pub mod idiom;
pub mod lir;
pub mod lower;
pub mod opt;
#[doc(hidden)]
pub mod probe;
pub mod regalloc;
pub mod reuse;
pub mod timing;
#[cfg(test)]
mod units;

pub use cache::{
    fnv1a, BlockExit, CacheIndex, CacheStats, Carrier, ChainLinks, CodeCache, KeyMap, Link, Region,
    RegionKey,
};
pub use counters::{CounterField, JitCounters};
pub use emitter::{Emitter, Node, NodeId, ValueType};
pub use idiom::{IdiomStats, RuleKind, RuleTable, RULE_COUNT};
pub use lir::{LirInsn, RegFileAccess, Vreg, VregClass};
pub use lower::LowerError;
pub use opt::OptStats;
pub use reuse::{pack_knobs, Evidence, MadeFrom, ReuseCache, ReuseKey};
pub use timing::{Phase, PhaseClock, PhaseTimers, TierTimers};

use hvm::MachInsn;
use std::cell::RefCell;

/// Every table the back half of the pipeline works in — the optimiser's
/// fact maps, the allocator's liveness state and range lists, `lower`'s
/// label table, the emitter's DAG vectors — owned once per thread (the run
/// thread, each tier worker and the baseline alike), created by the thread's
/// first translation and never reallocated once warm.
///
/// **The scratch holds capacity, never facts**: each user resizes and
/// re-zeroes the tables it needs to the unit at hand before reading them, so
/// a translation's output cannot depend on what the thread translated
/// before, in which order, or whether the scratch is fresh.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) opt: opt::OptScratch,
    pub(crate) regalloc: regalloc::AllocScratch,
    /// The allocation of the unit in hand (see [`regalloc::allocate_into`]).
    pub(crate) allocation: regalloc::Allocation,
    pub(crate) lower: lower::LowerScratch,
    pub(crate) emitter: emitter::EmitterScratch,
}

/// Empties `v` and refills it with `n` copies of `value`, keeping its
/// capacity: how every scratch table is made ready for a unit.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's [`Scratch`].  The public entry points borrow
/// it once and hand `&mut` down; a nested borrow gets a fresh scratch rather
/// than a panic — only speed depends on which scratch a unit goes through.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// Runs the shared back half of the pipeline on finished LIR: the optional
/// block-scoped optimiser ([`opt`], when `run_opt`; loop-carried register
/// promotion additionally gated on `promote`), register allocation with
/// iterative DCE, and lowering/encoding.  Both engines call this — Captive
/// with `run_opt`/`promote` from its config, the QEMU-style baseline always
/// without — so the phase and elimination accounting can never desync.
///
/// Fails with a [`LowerError`] when lowering finds a live virtual register
/// with no assignment or a jump to an unbound label, or when a promoted
/// carrier missed the register pool; the engines respond by discarding the
/// translation and degrading (UNDEF fallback for a plain block, bailout for a formed
/// region), counted in [`JitCounters::lower_bailouts`] by the caller.
pub fn finish_translation(
    timers: &mut PhaseTimers,
    mut lir: Vec<LirInsn>,
    run_opt: bool,
    promote: bool,
    idioms: Option<&idiom::RuleTable>,
) -> Result<FinishedTranslation, LowerError> {
    with_scratch(|s| {
        // One clock read per phase boundary; what sits between two phases
        // (merging counters, resolving carriers) counts with the next.
        let mut clock = PhaseClock::start();
        let mut dirty_carriers: Vec<(i32, Vreg)> = Vec::new();
        if run_opt {
            // The optimiser sits between emission and register allocation;
            // its wall-clock cost is accounted to the regalloc phase budget
            // (and, as a share of it, to `PhaseTimers::opt`).
            let stats = opt::optimize_in(s, &mut lir, promote.then_some(opt::CAPS), idioms);
            let before = timers.regalloc;
            clock.close(timers, Phase::RegAlloc);
            timers.opt += timers.regalloc - before;
            timers.jit.add(&stats.jit);
            timers.jit.opt_idioms_fused += stats.idioms.total_fused() as u64;
            for i in 0..idiom::RULE_COUNT {
                timers.jit.idiom_hits[i] += stats.idioms.fused[i] as u64;
            }
            dirty_carriers = stats.promoted;
        }
        regalloc::allocate_into(
            &mut s.regalloc,
            &lir,
            &mut s.allocation,
            regalloc::Scan::Split,
        );
        clock.close(timers, Phase::RegAlloc);
        let allocation = &s.allocation;
        let dce = allocation.dead.iter().filter(|d| **d).count();
        timers.jit.opt_dce_insns += dce as u64;
        timers.jit.regalloc_spill_slots += allocation.spill_slots as u64;
        timers.jit.regalloc_splits += allocation.splits.len() as u64;
        let lowered = resolve_carriers(&dirty_carriers, allocation).and_then(|promoted| {
            let code = lower::lower_in(&mut s.lower, &lir, allocation)?;
            let encoded_len = hvm::encode::encoded_len(&code);
            Ok((promoted, code, encoded_len))
        });
        clock.close(timers, Phase::Encode);
        let (promoted, code, encoded_len) = lowered?;
        // The unit's LIR vector goes back to the emitter that will build
        // the next one.
        s.emitter.lir = lir;
        Ok(FinishedTranslation {
            code,
            encoded_len,
            promoted,
        })
    })
}

/// Resolves the dirty promoted carriers to the host registers the allocator
/// gave them, of either class.  Carriers are defined at unit entry, so the
/// linear scan hands them pool registers before anything else can claim one,
/// and they are loop-carried, so it never splits one; a spilled or split
/// carrier would make fault-time materialisation impossible and can only
/// mean a broken invariant — the translation is refused, not the host.
fn resolve_carriers(
    dirty_carriers: &[(i32, Vreg)],
    allocation: &regalloc::Allocation,
) -> Result<Vec<(i32, Carrier)>, LowerError> {
    dirty_carriers
        .iter()
        .map(|&(off, v)| match allocation.assignment.get(v.id) {
            Some(regalloc::Assignment::Gpr(g))
                if !allocation.splits.iter().any(|s| s.vreg == v.id) =>
            {
                Ok((off, Carrier::Gpr(g)))
            }
            Some(regalloc::Assignment::Xmm(x)) => Ok((off, Carrier::Xmm(x))),
            _ => Err(LowerError::CarrierNotInRegister { vreg: v.id }),
        })
        .collect()
}

/// The back half of the pipeline's output (see [`finish_translation`]).
#[derive(Debug, Clone)]
pub struct FinishedTranslation {
    /// Final host instructions (physical registers, jumps resolved).
    pub code: Vec<MachInsn>,
    /// Length of `code`'s byte encoding ([`hvm::encode::encoded_len`], for
    /// size statistics).
    pub encoded_len: usize,
    /// Dirty promoted slots: (regfile byte offset, host register holding the
    /// loop-carried value).  On a fault exit — the one path that bypasses the
    /// in-code compensation stores — the engine stores each register back to
    /// its slot before delivering the event, restoring the precise register
    /// file the promotion contract promises (see [`opt`]'s module docs).
    pub promoted: Vec<(i32, Carrier)>,
}

/// A guest instruction-set architecture plugged into the DBT.
///
/// In the paper both the decoder and the generator functions for a guest are
/// produced offline from the ADL description; the runtime only sees these two
/// entry points.  The guest crates implement this trait (either with
/// hand-materialised generator functions equivalent to the offline tool's
/// output, or by interpreting ADL-derived generator programs).
pub trait GuestIsa {
    /// A decoded guest instruction.
    type Insn: Clone + std::fmt::Debug;

    /// Decodes the instruction word found at `pc`.  Returns `None` for
    /// undefined encodings (translated with [`GuestIsa::generate_undefined`]).
    fn decode(&self, word: u32, pc: u64) -> Option<Self::Insn>;

    /// Invokes the generator function for `insn`, emitting IR through the
    /// DAG builder.  Returns `true` if the instruction ends the basic block
    /// (branches, exception-raising instructions, ...).
    fn generate(&self, insn: &Self::Insn, emitter: &mut Emitter) -> bool;

    /// Emits what an undefined encoding at `pc` does — the guest's UNDEF
    /// exception — and ends the block.  Must lower without virtual
    /// registers: it is also the stub a defective translation degrades to.
    fn generate_undefined(&self, pc: u64, emitter: &mut Emitter);

    /// Size of one instruction word in bytes (fixed-width ISAs only).
    fn insn_size(&self) -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LirMem, VregClass, GPR_POOL};
    use hvm::MemSize;

    #[test]
    fn a_spilled_carrier_is_a_typed_error_not_a_host_panic() {
        // Saturate the GPR pool, then define one more long-lived value: it
        // spills.  Claiming it as a promoted carrier must refuse the
        // translation (the engines degrade), where it used to `panic!`.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let n = GPR_POOL.len() as u32;
        let mut lir: Vec<LirInsn> = (0..=n)
            .map(|i| LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            })
            .collect();
        lir.extend((0..=n).map(|i| LirInsn::Store {
            src: v(i),
            addr: LirMem::regfile(i as i32 * 8),
            size: MemSize::U64,
        }));
        lir.push(LirInsn::Ret);
        let allocation = regalloc::allocate(&lir);
        assert!(matches!(
            allocation.assignment[n],
            regalloc::Assignment::Spill(_)
        ));
        assert_eq!(
            resolve_carriers(&[(0, v(0))], &allocation).map(|p| p.len()),
            Ok(1),
            "a carrier in a pool register resolves"
        );
        let err = resolve_carriers(&[(0, v(0)), (8, v(n))], &allocation).unwrap_err();
        assert_eq!(err, LowerError::CarrierNotInRegister { vreg: n });
        assert!(err.to_string().contains(&format!("v{n}")));
        // A carrier the allocator never saw is the same defect.
        assert_eq!(
            resolve_carriers(&[(0, v(999))], &allocation),
            Err(LowerError::CarrierNotInRegister { vreg: 999 })
        );
    }

    #[test]
    fn the_scratch_carries_capacity_from_unit_to_unit_and_nothing_else() {
        // A unit with sparse ids (vregs from 1 000, labels around 5 000: big
        // tables) and a three-instruction one, each translated after the
        // other on one thread, against each on a thread of its own.
        let table = RuleTable::builtin();
        let sparse = crate::units::unit(0x5EED, 5, 40, 100);
        assert!(sparse
            .iter()
            .any(|i| i.def().is_some_and(|d| d.id >= 1_000)));
        let v0 = Vreg {
            id: 0,
            class: VregClass::Gpr,
        };
        let small = vec![
            LirInsn::MovImm { dst: v0, imm: 7 },
            LirInsn::Store {
                src: v0,
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let translate = |lir: &[LirInsn], table: &RuleTable| {
            let mut timers = PhaseTimers::default();
            finish_translation(&mut timers, lir.to_vec(), true, true, Some(table))
                .map(|t| (hvm::encode::encode_block(&t.code), t.promoted))
        };
        let alone = |lir: &[LirInsn]| {
            let lir = lir.to_vec();
            std::thread::spawn(move || translate(&lir, table))
                .join()
                .expect("translation does not panic")
        };
        let (sparse_alone, small_alone) = (alone(&sparse), alone(&small));
        assert!(sparse_alone.is_ok() && small_alone.is_ok());
        for _ in 0..2 {
            assert_eq!(translate(&sparse, table), sparse_alone);
            assert_eq!(translate(&small, table), small_alone);
        }
        // And the small one first, on a thread that has seen nothing else.
        let in_turn =
            std::thread::spawn(move || (translate(&small, table), translate(&sparse, table)));
        let in_turn = in_turn.join().expect("translation does not panic");
        assert_eq!(in_turn, (small_alone, sparse_alone));
    }
}
