//! Block-scoped LIR optimisation: the explicit phase between emission and
//! register allocation.
//!
//! The invocation-DAG builder collapses eagerly at every side effect
//! (Fig. 9), so the raw LIR materialises guest state far more often than the
//! program can observe: every flag-setting guest instruction stores NZCV even
//! when the next one overwrites it unread, and values round-trip through the
//! register file (`%rbp`) between adjacent guest instructions.  This module
//! runs the *generic* passes over the finished LIR of one translation unit
//! (a region: a plain basic block, a stitched trace, or a looping region),
//! the slot-aware ones using the regfile-slot metadata classified by
//! [`LirInsn::regfile_store`]/[`LirInsn::regfile_load`], and brackets them
//! with the *idiom layer* ([`crate::idiom`]) when the engine supplies a
//! rule table — the fixed built-in pattern rewrites rather than
//! shape-preserving cleanups.  The full [`optimize`] order:
//!
//! * **Idiom fusion** ([`crate::idiom::apply_early`]) runs *first*, on the
//!   emitter's pristine LIR: compare+branch fusion matches the exact
//!   instruction shapes the frontend generators emit, so it must see the
//!   unit before anything reorders it.
//! * **PC on demand** ([`observed`]) runs right after promotion: the
//!   guest PC as a translation-time constant, written only before an
//!   instruction that can observe it.  After promotion, so promotion's
//!   admission and carriers are what they would be without it; before the
//!   value passes, so they do not walk the PC writes it deletes.
//! * The generic passes below (1–3).
//! * **Address-mode folding** ([`crate::idiom::fold_addressing`]) runs
//!   *between* copy propagation and dead-store elimination: it needs
//!   forwarding and copy propagation to have connected register-file
//!   round-trips into visible `shift/add → memory operand` chains, and the
//!   arithmetic it strands is then swept with everything else.
//! * **Carrier write-through** runs after them, and only when promotion
//!   produced carriers (looping tier-1 regions; a plain block never pays
//!   for the scan): it wants the copies the other passes could not fold.
//! * The other two [`observed`] rewrites run last: in a looping unit,
//!   register-file stores only side exits read moved into those exits, and
//!   host-flag reuse for `Cmp v, 0` / `Test v, v`.
//!
//! The generic passes:
//!
//! 1. **Store-to-load forwarding and redundant-load reuse** (forward
//!    pass): a regfile load whose slot value is already available — from an
//!    earlier store *or* an earlier load — is rewritten to reuse the
//!    virtual register (or immediate), cutting the round-trip through the
//!    register file.  Forwarding tracks the widths the translators
//!    access the register file at: 64-bit and 128-bit slots (see
//!    "What forwards" below).
//! 2. **Copy propagation** (forward pass): pure-source uses of a copy's
//!    destination — a `MovReg`, or a `MovXmm` (a 64-bit one only where the
//!    use reads the low lane alone) — are rewritten to the copy's origin, so
//!    the moves pass 1 and promotion just produced (and the emitter's own
//!    copy chains) become dead and the allocator's iterative DCE sweeps them
//!    away entirely.
//! 3. **Dead regfile-store elimination** (backward pass): a regfile store
//!    dies when a later store fully covers the same slot bytes before
//!    anything can observe them.  This deletes the NZCV materialisation
//!    chains the `set_nzcv_*` generators emit (the value chains feeding the
//!    dead stores are then swept by the register allocator's iterative DCE).
//!
//! 4. **Carrier write-through** (destination propagation, the mirror image
//!    of pass 2): promotion turns every in-loop store of a promoted slot
//!    into `C = mov X`, and every load into `X = mov C`, so a promoted
//!    `x1 += 1` runs as `mov X, C; add X, 1; mov C, X` — copy propagation
//!    cannot fold a copy *keyed* by a carrier (see [`CopyMap::step`]).
//!    This pass renames the value's definition chain to compute in the
//!    carrier directly; see "Writing promoted carriers through" below.
//!
//! # Two walks, one scratch
//!
//! Each pass above is specified — and tested — as a whole-unit pass, but a
//! unit is not walked once per pass.  Every forward value pass is a
//! per-instruction **step** on its own state ([`SlotFacts`], [`CopyMap`],
//! the idiom layer's [`DefTable`]), and [`optimize`] pushes an instruction
//! through all of them before it looks at the next: **one forward walk**
//! (forwarding, copy propagation and address folding) and **one backward
//! walk** for dead-store elimination.  That is the passes run one after the other by
//! construction, because a step **reads its own earlier outputs and indices
//! below the cursor**, and rewrites nothing but the instruction at the
//! cursor: what pass N sees at index `i` is what passes 1..N-1 left there,
//! whether or not they have gone on to `i + 1`.  A pass that cannot keep to
//! that (promotion rewrites the whole unit) runs between walks.  Each pass
//! has one implementation — the whole-unit loops the unit tests drive are
//! the same steps — and its tables live in the crate's per-thread scratch
//! ([`crate::with_scratch`]: *capacity, never facts*; a pass's `reset` is
//! what makes its table valid).
//!
//! # Safety conditions — what counts as an observer of a regfile slot
//!
//! The dead-store pass resets its state at every instruction for which
//! [`LirInsn::observes_regfile`] holds, and the value-tracking passes at
//! every [`LirInsn::invalidates_regfile_values`] instruction (a strict
//! subset: an instruction that can only *fault* — a guest-memory load —
//! pins live stores for fault precision but cannot rewrite a slot, so
//! known values survive it).  The observers:
//!
//! * **guest-memory accesses** (loads included) — they can fault, and fault
//!   delivery must see a precise register file;
//! * **helper calls** — the one hypervisor round-trip generated code makes;
//!   helpers read and write the register file;
//! * **`Ret`, `Jmp`, `Jcc`, `Label`** — block exits and intra-block control
//!   flow.  A mid-block `Ret` is a superblock *side-exit stub*; treating it
//!   as an observer is what keeps every slot conservatively live at side-exit
//!   boundaries (an equivalence-test invariant).  The passes are
//!   deliberately straight-line and do not reason across joins;
//! * **address escapes** — `Lea` of a regfile slot or an indexed regfile
//!   operand make aliasing untrackable.
//!
//! [`LirInsn::TraceEdge`] is *not* an observer: it marks the boundary between
//! stitched constituents inside one superblock, and the cross-constituent
//! NZCV death across it is the main superblock payoff.
//!
//! # Loop soundness: pinning, promotion and reconciliation
//!
//! A looping region closes its loop with a [`LirInsn::BackEdge`] to a
//! `Label` bound at the loop header.  Both are observers, so by default the
//! slot passes *pin* every slot architecturally current across the
//! back-edge: forwarding facts and coverage intervals meet the loop with
//! empty state, which is the sound meet of "first entry" (nothing known)
//! and "around the loop" (whatever iteration N left).  Pinning keeps
//! straight-line precision inside the body while staying exact at every
//! iteration boundary, fault point and side exit — but it also re-loads and
//! re-stores every hot slot once per iteration.
//!
//! The **loop-carried promotion pass** (run when the engine enables it)
//! lifts the hottest slots out of that round-trip under an explicit
//! *carrier-invariant* contract:
//!
//! * Each promoted slot gets a fresh **carrier** virtual register, loaded
//!   from the slot in a *preheader* at the very start of the unit (which is
//!   also what hoists loop-invariant loads above the header: a slot only
//!   read inside the loop costs one entry load instead of one per
//!   iteration).  Entry-position definition gives carriers first claim on
//!   the allocator's linear scan, so they live in host registers for the
//!   whole unit.
//! * Inside the loop span, loads of a promoted slot become register moves
//!   of the carrier and stores become moves *into* the carrier (deferred
//!   stores).  Outside the span, stores are kept and additionally refresh
//!   the carrier.  The invariant: **at every instruction boundary the
//!   carrier equals the slot's architectural value**, while the slot's
//!   memory may lag for *dirty* slots (those stored inside the loop).
//! * **Reconciliation** restores memory wherever the dispatcher can look:
//!   compensation stores (carrier → slot) are inserted before *every*
//!   `Ret` in the unit — side-exit stubs and the loop-exit path alike —
//!   and the `BackEdge` is flagged `reconcile`, which makes a loop-exit
//!   poll (IRQ preemption, SMC discard, trip-limit yield) fall through
//!   into those stores instead of returning directly.  Fault delivery
//!   cannot run a stub, so the engine also records the dirty
//!   (slot, carrier) pairs per region and materialises them from the
//!   host registers before delivering a data abort — the carrier
//!   invariant makes that write-back exact at any faulting instruction.
//! * Promotion refuses units containing helper calls, dynamic regfile
//!   addressing or regfile address escapes (those channels read or write
//!   slots directly), and slots touched by any access that is not one of
//!   their class's shapes at the slot's own offset.  A general-purpose
//!   slot is 8 bytes: 64-bit loads and stores.  A **vector slot** is 16
//!   bytes, carried in a vector register: 64- and 128-bit vector loads,
//!   128-bit vector stores, and the *scalar write* — a 64-bit vector store
//!   followed by a zero store over the upper half, how a guest clears the
//!   rest of a register its scalar FP result lands in — which promotion
//!   treats as one write of
//!   the zero-extended value (`C = movq X`, a 64-bit `MovXmm`).  So a V
//!   register has one shape, and its upper half never gets a carrier of its
//!   own.  The two classes draw on separate pools and have separate caps.
//!   A guest-memory *store* through a computed address is deliberately
//!   **not** a barrier: the register file is
//!   host-mapped, and a guest store that aliases it is non-architectural
//!   by contract — the relaxed observer rule that makes deferral useful.
//! * A candidate slot is admitted only if a **trial allocation** of the
//!   unit with its carrier added needs no more spill slots than the unit
//!   without carriers.  The trial runs the allocator's *unsplit* scan (a
//!   newcomer the pool cannot hold spills), not the scan that splits ranges
//!   at the conflict point: priced on the splitting scan, a carrier looks
//!   cheaper wherever a split would absorb its pressure, more carriers pass,
//!   and a register held across the whole loop is then paid for on every
//!   entry of a region that leaves through an early side exit (see
//!   `trial_spills`).  Carriers are loop-carried, so the splitting scan
//!   never splits one.
//!
//! ## Writing promoted carriers through
//!
//! For `C = mov X` with `C` a carrier, the pass walks back from the copy
//! over `X`'s *definition chain* inside the straight-line segment: a head
//! `X = def(..)` that does not read `X`, followed by zero or more
//! two-address links `X = op X, y`.  It renames `X` to `C` throughout,
//! deletes the copy, and deletes the head too when it was `X = mov C`:
//! `X = mov C; X = op X, y; C = mov X` becomes `C = op C, y`, and
//! `X = load [g]; C = mov X` becomes `C = load [g]`.  The rewrite makes `C`
//! take its new value at the head instead of at the copy, so it is refused
//! whenever anything could tell:
//!
//! * an instruction strictly between head and copy, outside the chain, that
//!   reads or writes `C` or reads `X`, is an observer
//!   ([`LirInsn::observes_regfile`]) or is a `TraceEdge` — so the walk never
//!   leaves the segment, which also bounds its cost;
//! * a link that is an observer itself;
//! * a link that reads `C` through its other operand, unless it is the
//!   first link after a head `X = mov C` (there `X` still equals `C`:
//!   `X=C; X+=C; C=X` is `C+=C`, but `X=C; X+=1; X+=C; C=X` is not
//!   `C+=1; C+=C`), and any link reading `C` under any other head;
//! * `X` occurring anywhere outside the window — read again after the copy
//!   (an out-of-span store keeps its `Store X` next to the carrier refresh,
//!   which refuses those), or before the head around a loop;
//! * for a 64-bit vector copy (`C = movq X`, which zeroes the upper lane),
//!   any link, or a head whose result is not zero-extended already (a
//!   64-bit vector load or move, a GPR-to-vector transfer).  A 128-bit
//!   vector copy is pure, like `MovReg`.
//!
//! Why that is enough: the carrier invariant — carrier == architectural
//! slot value at every instruction boundary — is only *observable* at
//! observers (a fault materialises dirty carriers from the host registers,
//! control flow reaches compensation stores or the next iteration), and
//! none sits inside a rewritten window.  The head itself may be an
//! observer: a faulting `C = load [g]` leaves `C` unwritten, so fault-time
//! materialisation still stores the old value, exactly as when the load
//! targeted `X`.  The head may also read `C` (`C = load [C]`, the pointer
//! chase): an instruction reads its operands before it writes.
//!
//! # What forwards
//!
//! Forwarding requires value identity.  A fact is a slot offset, a width
//! and the register (or immediate) holding that many bytes of the slot; it
//! comes from a 64-bit general-purpose store or load, a 64- or 128-bit
//! vector store or load, or a 64-bit immediate store.  A load at the fact's
//! offset is rewritten when the fact covers it:
//!
//! * a 64-bit general-purpose load from a 64-bit general-purpose fact
//!   becomes `MovReg`, from an immediate fact `MovImm`;
//! * a 64-bit vector load from a 64- or 128-bit vector fact, or a 128-bit
//!   one from a 128-bit fact, becomes a `MovXmm` of the load's width;
//! * across the files, a 64-bit general-purpose load from a vector fact
//!   (its low lane) becomes `XmmToGpr`, and a 64-bit vector load from a
//!   general-purpose fact becomes `GprToXmm`.
//!
//! Anything else is left a load, and a load that is not rewritten becomes
//! the slot's fact in place of the one it could not use.  No translator
//! accesses a general-purpose slot narrower than 64 bits; such an access is
//! never forwarded, a narrow store kills every fact it overlaps, and either
//! keeps its slot out of promotion.
//!
//! A slot entry dies when an overlapping store rewrites any of its bytes,
//! and an entry whose forwarded virtual register is later redefined
//! (two-address mutation) is dropped.  Forwarding never removes the store
//! itself, so a fault between the store and a forwarded consumer still
//! finds the slot architecturally current.  Whether a killed *store* is
//! safe is purely a question for pass 3's observer analysis: a store is
//! only deleted when its covering store lands before any possible fault
//! point, so no execution can observe the gap.

use crate::counters::JitCounters;
use crate::idiom::{DefTable, RuleTable};
use crate::lir::{vreg_id_bound, LirBase, LirInsn, LirMem, RegFileAccess, Vreg, VregClass};
use crate::regalloc::Scan;
use crate::{refill, Scratch};
use hvm::MemSize;

mod observed;
pub use observed::without_observed_state_rewrites;

/// Maximum general-purpose slots promoted to loop-carried host registers per
/// unit.  This is only an upper bound on ambition: the actual carrier count
/// is settled by *trial allocation* — promotion is retried with fewer
/// carriers until the real register allocator reports no more spills than
/// the unpromoted unit (see [`promote_loop_slots`]), so a fat loop body that
/// already saturates the pool simply gets no carriers instead of a spill
/// storm.
const MAX_PROMOTED_SLOTS: usize = 6;

/// Maximum *dirty* promoted general-purpose slots (stored inside the loop,
/// so they need compensation stores on every exit path and fault-time
/// materialisation).
const MAX_DIRTY_SLOTS: usize = 4;

/// The same two caps for vector slots, which take carriers from the
/// 13-register vector pool: an FP loop body's temporaries leave most of it
/// free, so the caps are wider (trial allocation still has the last word).
const MAX_PROMOTED_V_SLOTS: usize = 10;
const MAX_DIRTY_V_SLOTS: usize = 6;

/// Promotion's ambition per register class: (slots, dirty slots).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Caps {
    pub(crate) gpr: (usize, usize),
    pub(crate) xmm: (usize, usize),
}

impl Caps {
    fn of(&self, class: VregClass) -> (usize, usize) {
        match class {
            VregClass::Gpr => self.gpr,
            VregClass::Xmm => self.xmm,
        }
    }
}

/// The caps translations are promoted under.
pub(crate) const CAPS: Caps = Caps {
    gpr: (MAX_PROMOTED_SLOTS, MAX_DIRTY_SLOTS),
    xmm: (MAX_PROMOTED_V_SLOTS, MAX_DIRTY_V_SLOTS),
};

/// What the optimiser did to one translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// The optimiser's share of the JIT's static counters (the `opt_*`
    /// fields, bar `opt_dce_insns` — the allocator's — and
    /// `opt_idioms_fused`, summed from `idioms` below).
    pub jit: JitCounters,
    /// Dirty promoted slots: (regfile byte offset, carrier vreg).  The
    /// engine resolves the carriers to host registers after allocation and
    /// materialises them before fault delivery.
    pub promoted: Vec<(i32, Vreg)>,
    /// Per-rule idiom rewrites (see [`crate::idiom`]), zero when no rule
    /// table was supplied.
    pub idioms: crate::idiom::IdiomStats,
}

/// The optimiser's tables (see [`crate::with_scratch`]).
#[derive(Default)]
pub(crate) struct OptScratch {
    slots: SlotFacts,
    copies: CopyMap,
    pub(crate) defs: DefTable,
    /// Dead-store elimination's covered byte intervals.
    covered: Vec<(i32, i32)>,
    /// Per-instruction deletion marks (dead stores; fused-branch leftovers).
    pub(crate) marks: Vec<bool>,
    /// Branch-fusion sites found in the unit, applied once the scan is over.
    pub(crate) fuse_sites: Vec<crate::idiom::FuseSite>,
    /// The tables of the rewrites that run last ([`observed`]).
    observed: observed::ObservedScratch,
}

/// Runs the block-scoped passes over one translation unit, in order: the
/// idiom layer's branch fusion first (when an `idioms` table is supplied —
/// it matches the emitter's pristine LIR shapes, so it must see the unit
/// before anything reorders it), then
/// loop-carried slot promotion (when `promote`, so the
/// carrier moves it plants feed the later passes), [`observed`]'s PC on
/// demand, store-to-load forwarding
/// (so forwarded loads no longer pin the stores they used to read), copy
/// propagation (folding the `MovReg`s promotion and forwarding just
/// produced), the idiom layer's address-mode folding (which needs
/// forwarding and copy propagation to have connected register-file
/// round-trips into visible register chains), dead-store elimination, —
/// only when promotion produced carriers — carrier write-through, and last
/// the other two [`observed`] rewrites.  The forward value passes share one walk
/// ("Two walks" in the module docs).
pub fn optimize(lir: &mut Vec<LirInsn>, promote: bool, idioms: Option<&RuleTable>) -> OptStats {
    crate::with_scratch(|s| optimize_in(s, lir, promote.then_some(CAPS), idioms))
}

/// [`optimize`] in the caller's scratch, promoting under `caps` (`None`:
/// no promotion).
pub(crate) fn optimize_in(
    s: &mut Scratch,
    lir: &mut Vec<LirInsn>,
    caps: Option<Caps>,
    idioms: Option<&RuleTable>,
) -> OptStats {
    let mut stats = OptStats::default();
    let raw_len = lir.len();
    if let Some(table) = idioms {
        crate::idiom::fuse_branches(&mut s.opt, lir, table, &mut stats.idioms);
    }
    let caps = caps.filter(|_| lir.iter().any(|i| matches!(i, LirInsn::BackEdge { .. })));
    let mut carriers = Vec::new();
    if let Some(caps) = caps {
        carriers = promote_loop_slots(s, lir, &mut stats, caps);
    }
    let rewrite = observed::enabled();
    if rewrite {
        s.opt.reserve_observed(raw_len);
        stats.jit.opt_pc_elided += observed::pc_on_demand(&mut s.opt.observed, lir);
    }
    // Sized as for the unit before PC on demand shortened it, so that warm
    // tables do not grow with how many PC writes a unit keeps.
    s.opt.reset_values(lir.len().max(raw_len));
    for at in 0..lir.len() {
        s.opt
            .value_step(lir, at, &carriers, idioms.is_some(), &mut stats);
    }
    eliminate_dead_stores(&mut s.opt, lir, &mut stats);
    if !carriers.is_empty() {
        write_through_carriers(lir, &carriers);
    }
    if rewrite {
        if caps.is_some() {
            stats.jit.opt_stores_sunk += observed::sink_exit_only_stores(s, lir);
        }
        stats.jit.opt_flags_reused += observed::reuse_flags(&mut s.opt, lir);
    }
    stats
}

impl OptScratch {
    /// Sizes the last rewrites' per-instruction tables for a unit that
    /// came in `raw_len` long, so that a unit the passes before made longer
    /// or shorter draws on the same capacity.
    fn reserve_observed(&mut self, raw_len: usize) {
        self.marks.clear();
        self.marks.reserve(raw_len);
        self.observed.reserve(raw_len);
    }

    /// Readies the value passes' tables for a unit of at most `len`
    /// instructions.
    fn reset_values(&mut self, len: usize) {
        self.slots.reset(len);
        self.copies.reset(len);
        self.defs.reset(len);
    }

    /// Pushes `lir[at]` through the value passes of the forward walk —
    /// store-to-load forwarding, copy propagation and, when `fold` (the idiom
    /// layer runs), address-mode folding — in that order (the module docs' "Two walks"
    /// has the contract that makes this the passes run one after the other).
    fn value_step(
        &mut self,
        lir: &mut [LirInsn],
        at: usize,
        pinned: &[Vreg],
        fold: bool,
        stats: &mut OptStats,
    ) {
        // None of the three rewrites what an instruction defines, so the
        // walk classifies that once for all of them.
        let def = lir[at].def();
        self.slots.step(&mut lir[at], def, &mut stats.jit);
        self.copies.step(&mut lir[at], def, pinned, &mut stats.jit);
        if fold {
            self.defs.step(lir, at, def, &mut stats.idioms);
        }
    }
}

/// A candidate slot's access profile, collected over the whole unit.
#[derive(Debug, Clone, Copy, Default)]
struct SlotProfile {
    /// Accesses inside the loop span (the promotion payoff).
    loop_accesses: u32,
    /// Loads inside the loop span.  A loaded slot's carrier *substitutes*
    /// for the body register the load would have produced, so it adds almost
    /// no register pressure; a store-only slot's carrier (the flags-register
    /// shape) is a register held live across the whole loop purely for
    /// deferral, so it ranks behind every loaded slot.
    loop_loads: u32,
    /// Stored inside the loop span — needs compensation + fault sync.
    dirty: bool,
    /// Disqualified: an access touched the slot's bytes in a shape other
    /// than its class's own ones at the slot's offset (see [`slot_access`]).
    disqualified: bool,
}

/// Bytes of a promoted slot of `class`: a general-purpose register's eight,
/// a vector register's sixteen.
fn slot_extent(offset: i32, class: VregClass) -> RegFileAccess {
    let size = match class {
        VregClass::Gpr => MemSize::U64,
        VregClass::Xmm => MemSize::U128,
    };
    RegFileAccess { offset, size }
}

/// Whether `lir[i]` is a *scalar write* of a vector slot: a 64-bit vector
/// store whose next instruction stores zero over the slot's upper half — how
/// a guest's scalar FP write clears the rest of its vector register.
/// Promotion treats the pair as one write of the zero-extended value.
fn scalar_write(lir: &[LirInsn], i: usize) -> bool {
    let LirInsn::StoreXmm {
        addr,
        size: MemSize::U64,
        ..
    } = lir[i]
    else {
        return false;
    };
    matches!(
        lir.get(i + 1),
        Some(LirInsn::StoreImm { imm: 0, addr: upper, size: MemSize::U64 })
            if LirInsn::fixed_regfile_slot(upper, MemSize::U64).is_some()
                && LirInsn::fixed_regfile_slot(&addr, MemSize::U64).is_some()
                && upper.disp == addr.disp + 8
    )
}

/// How the fixed-slot register-file access at `lir[i]` looks to promotion:
/// the bytes it touches, whether it stores, and the class of slot it is a
/// shape of — `Some(Gpr)` for a general-purpose load or store, `Some(Xmm)`
/// for a vector slot's own shapes (a 64- or 128-bit vector load, a 128-bit
/// vector store, a [`scalar_write`], which covers 16 bytes), `None` for any
/// other vector access.  A general-purpose slot is a candidate when a 64-bit
/// access of that shape sits at its offset, a vector slot when any access of
/// its shape does; either is disqualified by an access of any other shape or
/// offset that overlaps it, and a general-purpose slot also by a narrow
/// access (a store would merge bytes, a load would need an extension).
fn slot_access(lir: &[LirInsn], i: usize) -> Option<(RegFileAccess, bool, Option<VregClass>)> {
    let insn = &lir[i];
    let (acc, store) = match (insn.regfile_store(), insn.regfile_load()) {
        (Some(acc), _) => (acc, true),
        (None, Some(acc)) => (acc, false),
        (None, None) => return None,
    };
    let shape = match insn {
        LirInsn::LoadXmm {
            size: MemSize::U64 | MemSize::U128,
            ..
        }
        | LirInsn::StoreXmm {
            size: MemSize::U128,
            ..
        } => Some(VregClass::Xmm),
        LirInsn::LoadXmm { .. } | LirInsn::StoreXmm { .. } if !scalar_write(lir, i) => None,
        LirInsn::StoreXmm { .. } => {
            return Some((
                slot_extent(acc.offset, VregClass::Xmm),
                true,
                Some(VregClass::Xmm),
            ))
        }
        _ => Some(VregClass::Gpr),
    };
    Some((acc, store, shape))
}

/// Loop-carried register promotion and invariant hoisting (see the module
/// docs for the contract).  Rewrites the unit in place; records the dirty
/// (slot, carrier) pairs in [`OptStats::promoted`] for the engine's
/// fault-time materialisation, and returns every carrier vreg so the later
/// copy-propagation pass can keep its hands off them.
///
/// Carrier count is settled by trial allocation, per class under `caps`:
/// the most ambitious promotion whose post-pass unit the real allocator can
/// hold without more spill slots than the unpromoted unit wins.  A spilled
/// carrier is never merely slow — every deferred store it absorbed becomes a
/// spill-slot round-trip — so the pass prices each candidate set against
/// [`crate::regalloc::allocate`] rather than guessing from instruction
/// counts.
fn promote_loop_slots(
    s: &mut Scratch,
    lir: &mut Vec<LirInsn>,
    stats: &mut OptStats,
    caps: Caps,
) -> Vec<Vreg> {
    // Locate the loop: exactly one back-edge whose header label precedes it.
    let mut back_edge = None;
    for (i, insn) in lir.iter().enumerate() {
        if let LirInsn::BackEdge { label, .. } = insn {
            if back_edge.is_some() {
                return Vec::new(); // multiple loops in one unit: stay pinned
            }
            back_edge = Some((i, *label));
        }
    }
    let Some((be, header_label)) = back_edge else {
        return Vec::new();
    };
    let Some(header) = lir
        .iter()
        .position(|i| matches!(i, LirInsn::Label { id } if *id == header_label))
    else {
        return Vec::new();
    };
    if header >= be {
        return Vec::new();
    }

    // Unit-wide disqualifiers: channels that read or write the register
    // file outside classified fixed-slot accesses.  A guest-memory *store*
    // is deliberately absent — the relaxed observer rule (module docs).
    let dynamic_regfile = |m: &LirMem| matches!(m.base, LirBase::RegFile) && m.index.is_some();
    for insn in lir.iter() {
        match insn {
            LirInsn::CallHelper { .. } => return Vec::new(),
            LirInsn::Lea { addr, .. } if matches!(addr.base, LirBase::RegFile) => {
                return Vec::new()
            }
            LirInsn::Load { addr, .. }
            | LirInsn::LoadSx { addr, .. }
            | LirInsn::LoadXmm { addr, .. }
            | LirInsn::Store { addr, .. }
            | LirInsn::StoreImm { addr, .. }
            | LirInsn::StoreXmm { addr, .. }
                if dynamic_regfile(addr) =>
            {
                return Vec::new()
            }
            _ => {}
        }
    }

    // Collect every fixed regfile access (a scalar write's two stores are
    // one) and profile candidate slots, keyed by offset and class.
    let mut profiles: Vec<(i32, VregClass, SlotProfile)> = Vec::new();
    let mut accesses: Vec<(RegFileAccess, bool, Option<VregClass>, bool)> = Vec::new(); // (acc, store, shape, in_span)
    let mut i = 0;
    while i < lir.len() {
        if let Some((acc, store, shape)) = slot_access(lir, i) {
            accesses.push((acc, store, shape, i > header && i < be));
        }
        // A scalar write's upper-half store is part of it.
        i += 1 + scalar_write(lir, i) as usize;
    }
    for &(acc, _, shape, _) in &accesses {
        let Some(class) = shape else { continue };
        let seeds = class == VregClass::Xmm || acc.size == MemSize::U64;
        if seeds
            && !profiles
                .iter()
                .any(|&(off, c, _)| off == acc.offset && c == class)
        {
            profiles.push((acc.offset, class, SlotProfile::default()));
        }
    }
    for &(acc, store, shape, in_span) in &accesses {
        for (off, class, p) in &mut profiles {
            if !acc.overlaps(&slot_extent(*off, *class)) {
                continue;
            }
            let narrow = *class == VregClass::Gpr && acc.size != MemSize::U64;
            if shape != Some(*class) || acc.offset != *off || narrow {
                p.disqualified = true;
                continue;
            }
            if in_span {
                p.loop_accesses += 1;
                if store {
                    p.dirty = true;
                } else {
                    p.loop_loads += 1;
                }
            }
        }
    }

    // Select the hottest candidates, deterministically: slots *loaded* in
    // the span first (their carriers take over the body ranges the loads
    // fed, costing almost nothing), then by access count, then offset.
    // Store-only slots rank last — a deferral-only carrier is a register
    // held hostage for the whole loop.
    let mut candidates: Vec<(i32, VregClass, SlotProfile)> = profiles
        .into_iter()
        .filter(|(_, _, p)| !p.disqualified && p.loop_accesses > 0)
        .collect();
    candidates.sort_by(|a, b| {
        (b.2.loop_loads > 0)
            .cmp(&(a.2.loop_loads > 0))
            .then(b.2.loop_accesses.cmp(&a.2.loop_accesses))
            .then(a.0.cmp(&b.0))
    });
    if candidates.is_empty() {
        return Vec::new();
    }
    let next_id = vreg_id_bound(lir);
    // Price the unpromoted unit once, then grow the carrier set greedily:
    // each candidate (in priority order) is kept only if the allocator can
    // hold the unit with it added at no more spill slots than the
    // unpromoted unit (usually zero), so promotion never *introduces*
    // spills, while a unit that spills regardless is not denied carriers
    // that fit.  Per-candidate trials matter because pressure is local: a
    // hot slot whose carrier would be live through the body's worst window
    // can fail while a cooler slot whose loads already span that window
    // substitutes for free.  The two classes draw on separate pools and caps.
    let base_spills = trial_spills(s, lir.clone(), &[]);
    let mut promoted: Vec<(i32, Vreg, bool)> = Vec::new(); // (offset, carrier, dirty)
    let mut taken = [(0usize, 0usize); 2]; // (slots, dirty) per class
    let mut id = next_id;
    for &(off, class, p) in &candidates {
        let (max, max_dirty) = caps.of(class);
        let taken = &mut taken[class as usize];
        if taken.0 >= max || (p.dirty && taken.1 >= max_dirty) {
            continue;
        }
        promoted.push((off, Vreg { id, class }, p.dirty));
        id += 1;
        let mut rewritten = lir.clone();
        let mut trial = OptStats::default();
        apply_promotion(&mut rewritten, &promoted, header, be, &mut trial);
        let carriers: Vec<Vreg> = promoted.iter().map(|p| p.1).collect();
        if trial_spills(s, rewritten, &carriers) > base_spills {
            promoted.pop();
        } else {
            taken.0 += 1;
            taken.1 += p.dirty as usize;
        }
    }
    if promoted.is_empty() {
        return Vec::new();
    }
    apply_promotion(lir, &promoted, header, be, stats);
    promoted.iter().map(|p| p.1).collect()
}

/// Runs the scalar cleanup passes and the real allocator over a throwaway
/// copy of the unit and reports how many spill slots it needs — the cost
/// model behind promotion's trial allocation.  Translation-time cost is a
/// handful of extra linear passes per *looping* unit, which region
/// formation already makes rare.
///
/// The trial runs the **unsplit** scan ([`Scan::Unsplit`]: a newcomer the
/// pool cannot hold spills), not the splitting one the unit is finally
/// allocated with.  Priced on the splitting scan, a carrier costs less
/// wherever a split absorbs the pressure it adds, so more carriers pass —
/// and each holds a register across the whole loop, which is what a loop
/// region leaving through a side exit in its first copy pays for on every
/// entry: measured, `idiom.branch`'s promoted slots / hoisted loads went
/// 13 / 144 → 20 / 224 and its `sync` cycles 10 230 962 → 11 127 982, for
/// `hot_loops` 234.2 M simulated cycles against 239.7 M.  The unsplit price
/// keeps admission exactly what it was.
fn trial_spills(s: &mut Scratch, mut lir: Vec<LirInsn>, carriers: &[Vreg]) -> u32 {
    let mut discarded = OptStats::default();
    s.opt.reset_values(lir.len());
    for at in 0..lir.len() {
        s.opt
            .value_step(&mut lir, at, carriers, false, &mut discarded);
    }
    eliminate_dead_stores(&mut s.opt, &mut lir, &mut discarded);
    crate::regalloc::allocate_into(&mut s.regalloc, &lir, &mut s.allocation, Scan::Unsplit);
    s.allocation.spill_slots
}

/// The promotion rewrite for one settled carrier set: preheader entry
/// loads, in-span deferral, out-of-span carrier refresh, compensation
/// stores before every dispatcher return.  `header`/`be` are the loop-span
/// indices in the *incoming* unit.  A vector carrier holds its whole
/// 16-byte slot: it is loaded and stored at 128 bits, a 64-bit read of the
/// slot becomes a low-lane move of it, and a scalar write (store plus
/// upper-half zero) a zero-extending move into it.
fn apply_promotion(
    lir: &mut Vec<LirInsn>,
    promoted: &[(i32, Vreg, bool)],
    header: usize,
    be: usize,
    stats: &mut OptStats,
) {
    // The carrier of the promoted slot of `class` at `addr`, if any.
    let carrier = |addr: &LirMem, class: VregClass| -> Option<Vreg> {
        if !matches!(addr.base, LirBase::RegFile) || addr.index.is_some() {
            return None;
        }
        promoted
            .iter()
            .find(|&&(off, c, _)| off == addr.disp && c.class == class)
            .map(|p| p.1)
    };
    let slot_move = |off: i32, c: Vreg, store: bool| match (c.class, store) {
        (VregClass::Gpr, false) => LirInsn::Load {
            dst: c,
            addr: LirMem::regfile(off),
            size: MemSize::U64,
        },
        (VregClass::Gpr, true) => LirInsn::Store {
            src: c,
            addr: LirMem::regfile(off),
            size: MemSize::U64,
        },
        (VregClass::Xmm, false) => LirInsn::LoadXmm {
            dst: c,
            addr: LirMem::regfile(off),
            size: MemSize::U128,
        },
        (VregClass::Xmm, true) => LirInsn::StoreXmm {
            src: c,
            addr: LirMem::regfile(off),
            size: MemSize::U128,
        },
    };
    let compensation: Vec<LirInsn> = promoted
        .iter()
        .filter(|&&(_, _, dirty)| dirty)
        .map(|&(off, c, _)| slot_move(off, c, true))
        .collect();
    let reconcile = !compensation.is_empty();
    let mut out = Vec::with_capacity(lir.len() + promoted.len() * 3);
    for &(off, c, _) in promoted {
        out.push(slot_move(off, c, false));
    }
    // Set when a scalar write was rewritten: its upper-half store goes too.
    let mut upper_half = false;
    for (i, &insn) in lir.iter().enumerate() {
        if std::mem::take(&mut upper_half) {
            continue;
        }
        let in_span = i > header && i < be;
        match insn {
            LirInsn::Load { dst, addr, size } | LirInsn::LoadSx { dst, addr, size }
                if carrier(&addr, VregClass::Gpr).is_some() =>
            {
                debug_assert_eq!(size, MemSize::U64);
                let c = carrier(&addr, VregClass::Gpr).unwrap();
                out.push(LirInsn::MovReg { dst, src: c });
                stats.jit.opt_hoisted_loads += in_span as u64;
            }
            LirInsn::Store { src, addr, size } if carrier(&addr, VregClass::Gpr).is_some() => {
                debug_assert_eq!(size, MemSize::U64);
                if !in_span {
                    out.push(insn);
                }
                let dst = carrier(&addr, VregClass::Gpr).unwrap();
                out.push(LirInsn::MovReg { dst, src });
            }
            LirInsn::StoreImm { imm, addr, size } if carrier(&addr, VregClass::Gpr).is_some() => {
                debug_assert_eq!(size, MemSize::U64);
                if !in_span {
                    out.push(insn);
                }
                let dst = carrier(&addr, VregClass::Gpr).unwrap();
                out.push(LirInsn::MovImm { dst, imm });
            }
            // A vector slot is qualified only when every access is one of
            // its shapes: 64- or 128-bit loads, 128-bit stores, and 64-bit
            // stores that open a scalar write.
            LirInsn::LoadXmm { dst, addr, size } if carrier(&addr, VregClass::Xmm).is_some() => {
                let src = carrier(&addr, VregClass::Xmm).unwrap();
                out.push(LirInsn::MovXmm { dst, src, size });
                stats.jit.opt_hoisted_loads += in_span as u64;
            }
            LirInsn::StoreXmm { src, addr, size } if carrier(&addr, VregClass::Xmm).is_some() => {
                let c = carrier(&addr, VregClass::Xmm).unwrap();
                upper_half = size == MemSize::U64;
                out.push(LirInsn::MovXmm { dst: c, src, size });
                if !in_span {
                    out.push(slot_move(addr.disp, c, true));
                }
            }
            LirInsn::BackEdge { pc, label, .. } => {
                out.push(LirInsn::BackEdge {
                    pc,
                    label,
                    reconcile,
                });
                // The machine's reconcile path *falls through* the yielding
                // back-edge, so the reconcile block must sit directly after
                // it — side-exit stubs (which follow the back-edge in a
                // formed region) are only ever entered by explicit jumps.
                if reconcile {
                    out.extend(compensation.iter().copied());
                    out.push(LirInsn::Ret);
                }
            }
            LirInsn::Ret => {
                out.extend(compensation.iter().copied());
                out.push(LirInsn::Ret);
            }
            other => out.push(other),
        }
    }
    stats.jit.opt_promoted_slots += promoted.len() as u64;
    stats
        .promoted
        .extend(promoted.iter().filter(|p| p.2).map(|&(off, c, _)| (off, c)));
    *lir = out;
}

/// Carrier write-through (pass 4; the module docs hold the refusal list and
/// the invariant argument): for every `C = mov X` with `C` a carrier, walks
/// back over `X`'s definition chain — a pure definition followed by
/// two-address updates — and, when nothing in between can tell the
/// difference, renames the chain to compute in `C` directly and deletes the
/// copy (and a chain head `X = mov C` with it).  Each walk stops at the
/// first observer, so the scan is bounded by the straight-line segment.
fn write_through_carriers(lir: &mut Vec<LirInsn>, carriers: &[Vreg]) {
    // Occurrences (uses and definitions) of every vreg over the whole unit:
    // a chain is only renamed when the window holds all of `X`'s.
    let mut occurrences = vec![0u32; lir.len()];
    let mut scratch = Vec::with_capacity(4);
    for insn in lir.iter() {
        scratch.clear();
        insn.uses(&mut scratch);
        scratch.extend(insn.def());
        for v in &scratch {
            count_up(&mut occurrences, v.id);
        }
    }
    let mut deleted = vec![false; lir.len()];
    for at in 0..lir.len() {
        let (c, x, zero_extends) = match lir[at] {
            LirInsn::MovReg { dst, src } => (dst, src, false),
            LirInsn::MovXmm { dst, src, size } => (dst, src, size != MemSize::U128),
            _ => continue,
        };
        // A carrier source has occurrences no window can hold (its
        // preheader load), and renames keep changing how many.
        if !carriers.contains(&c) || carriers.contains(&x) || x.class != c.class {
            continue;
        }
        let Some((head, in_window, links)) = chain_head(lir, &deleted, at, c, x, &mut scratch)
        else {
            continue;
        };
        if in_window != occurrences[x.id as usize] {
            continue; // `X` is read (or redefined) outside the window
        }
        // A 64-bit vector copy zeroes the upper lane: it folds only into a
        // lone head that zeroes it too.
        if zero_extends && (links > 0 || !zeroes_upper_lane(&lir[head])) {
            continue;
        }
        for insn in &mut lir[head..at] {
            // Instructions outside the chain mention neither register.
            if insn.def() == Some(x) {
                insn.map_pure_uses(&mut |v| (v == x).then_some(c));
                *insn.def_mut().expect("def_mut lists the variants def does") = c;
            }
        }
        deleted[at] = true;
        deleted[head] = is_copy(&lir[head], c, c);
    }
    remove_marked(lir, &deleted);
}

/// Whether `insn` is the pure copy `dst = mov src` of either class (a
/// 64-bit vector move is not one: it zeroes the upper lane).
fn is_copy(insn: &LirInsn, dst: Vreg, src: Vreg) -> bool {
    *insn == LirInsn::MovReg { dst, src }
        || *insn
            == LirInsn::MovXmm {
                dst,
                src,
                size: MemSize::U128,
            }
}

/// Whether `insn` writes a zero upper lane whatever its operands hold: its
/// result equals a 64-bit vector move of itself.
fn zeroes_upper_lane(insn: &LirInsn) -> bool {
    matches!(
        insn,
        LirInsn::LoadXmm {
            size: MemSize::U64,
            ..
        } | LirInsn::MovXmm {
            size: MemSize::U64,
            ..
        } | LirInsn::GprToXmm { .. }
    )
}

/// Drops every instruction whose index `marked` selects.
pub(crate) fn remove_marked(lir: &mut Vec<LirInsn>, marked: &[bool]) {
    let mut idx = 0;
    lir.retain(|_| {
        idx += 1;
        !marked[idx - 1]
    });
}

/// Finds the head of `x`'s definition chain feeding the copy `c = mov x` at
/// `at`: returns its index, how many times `x` occurs in the window (the
/// copy's read included) and how many links follow the head, or `None` when
/// a refusal applies.
fn chain_head(
    lir: &[LirInsn],
    deleted: &[bool],
    at: usize,
    c: Vreg,
    x: Vreg,
    uses: &mut Vec<Vreg>,
) -> Option<(usize, u32, u32)> {
    let mut in_window = 1u32;
    let mut links = 0u32;
    // Links that read `c` through another operand, and whether the link
    // nearest the head is one of them.
    let mut c_readers = 0u32;
    let mut nearest_reads_c = false;
    for j in (0..at).rev() {
        if deleted[j] {
            continue;
        }
        let insn = &lir[j];
        uses.clear();
        insn.uses(uses);
        let reads_c = uses.contains(&c);
        let reads_x = uses.iter().filter(|u| **u == x).count() as u32;
        if insn.def() == Some(x) {
            in_window += 1 + reads_x;
            if reads_x == 0 {
                // The head, a pure definition.  It may be an observer (a
                // faulting load leaves `c` unwritten) and may read `c` (an
                // instruction reads before it writes); a link may read `c`
                // only as the first update of a copy of `c` itself.
                let copies_c = is_copy(insn, x, c);
                let sound = c_readers == 0 || (copies_c && c_readers == 1 && nearest_reads_c);
                return sound.then_some((j, in_window, links));
            }
            if insn.observes_regfile() {
                return None;
            }
            links += 1;
            nearest_reads_c = reads_c;
            c_readers += reads_c as u32;
        } else if insn.observes_regfile()
            || matches!(insn, LirInsn::TraceEdge)
            || reads_c
            || reads_x > 0
            || insn.def() == Some(c)
        {
            return None;
        }
    }
    None
}

/// The value a tracked slot holds over its entry's width.
#[derive(Debug, Clone, Copy)]
enum Stored {
    Reg(Vreg),
    Imm(u64),
}

/// Bumps `counts[id]`, growing the table to reach it (the tables below start
/// at the unit's length — the emitter defines every virtual register with an
/// instruction of its own, so growth is the hand-written-ids case).
fn count_up(counts: &mut Vec<u32>, id: u32) {
    let id = id as usize;
    if id >= counts.len() {
        counts.resize(id + 1, 0);
    }
    counts[id] += 1;
}

/// The forwarding pass's knowledge: what each tracked register-file slot
/// currently holds.  A unit touches a handful of slots between barriers, so
/// the facts are a short list searched by offset; what has to be cheap is
/// the invalidation that runs on *every* definition, and `held` makes that
/// one indexed load unless the redefined register really is some fact's
/// value.
#[derive(Default)]
struct SlotFacts {
    /// (offset, width, value): `value` describes the slot's content over
    /// `width` bytes, per the [`Stored`] semantics.  At most one per offset.
    facts: Vec<(i32, MemSize, Stored)>,
    /// `held[id]`: how many facts' value is a register with this vreg id.
    held: Vec<u32>,
}

impl SlotFacts {
    /// Forgets everything, ready for a unit of `len` instructions.
    fn reset(&mut self, len: usize) {
        self.facts.clear();
        refill(&mut self.held, len, 0);
    }

    fn get(&self, offset: i32) -> Option<(MemSize, Stored)> {
        self.facts
            .iter()
            .find(|f| f.0 == offset)
            .map(|&(_, width, value)| (width, value))
    }

    /// Drops every fact `dies` selects.  (No two facts share an offset and
    /// every query is by offset, byte range or value, so their order in the
    /// list means nothing.)
    fn retain_not(&mut self, dies: impl Fn(&(i32, MemSize, Stored)) -> bool) {
        let mut at = 0;
        while at < self.facts.len() {
            if dies(&self.facts[at]) {
                if let Stored::Reg(v) = self.facts.swap_remove(at).2 {
                    self.held[v.id as usize] -= 1;
                }
            } else {
                at += 1;
            }
        }
    }

    fn clear(&mut self) {
        self.retain_not(|_| true);
    }

    /// A store rewrites the bytes of `acc`: facts sharing any of them die.
    fn kill_overlapping(&mut self, acc: &RegFileAccess) {
        self.retain_not(|&(offset, size, _)| acc.overlaps(&RegFileAccess { offset, size }));
    }

    /// Register `d` is redefined: facts whose value it was die.
    fn kill_value(&mut self, d: Vreg) {
        if self.held.get(d.id as usize).is_some_and(|n| *n > 0) {
            self.retain_not(|f| matches!(f.2, Stored::Reg(v) if v == d));
        }
    }

    /// Installs the fact for `offset`, which holds none (the caller's store
    /// just killed every fact it overlaps, or its lookup found nothing).
    fn install(&mut self, offset: i32, width: MemSize, value: Stored) {
        if let Stored::Reg(v) = value {
            count_up(&mut self.held, v.id);
        }
        self.facts.push((offset, width, value));
    }

    /// A load that could not be forwarded defines `dst` from the slot at
    /// `offset`: facts `dst` was the value of die with the definition, then
    /// the load itself makes the slot's value available to later readers,
    /// in place of the narrower fact `stale` says the slot still had.
    fn loaded(&mut self, dst: Vreg, offset: i32, width: MemSize, stale: bool) {
        self.kill_value(dst);
        if stale {
            self.retain_not(|f| f.0 == offset);
        }
        self.install(offset, width, Stored::Reg(dst));
    }

    /// A store of `value` (when the width is one forwarding tracks) through
    /// `addr`: a fixed slot's overlapping facts die and the new one is
    /// installed; a computed address could alias any slot.
    fn store(&mut self, addr: &LirMem, size: MemSize, value: Option<Stored>) {
        let Some(acc) = LirInsn::fixed_regfile_slot(addr, size) else {
            return self.clear();
        };
        self.kill_overlapping(&acc);
        if let Some(value) = value {
            self.install(acc.offset, size, value);
        }
    }

    /// Store-to-load forwarding and redundant-load reuse (pass 1), one
    /// instruction: rewrites a regfile load whose slot value is still
    /// available in a virtual register (or as an immediate).  Values become
    /// available from *stores* (classic store-to-load forwarding) and from
    /// earlier *loads* (redundant-load reuse -- the workhorse inside
    /// stitched and looping regions, where the same guest register is
    /// otherwise re-loaded in every constituent).  Facts die at
    /// [`LirInsn::invalidates_regfile_values`] instructions; in particular
    /// a guest-memory *load* (which can fault but cannot rewrite a slot)
    /// keeps them alive, which is what lets forwarding survive the guest
    /// loads inside a hot loop body.
    fn step(&mut self, insn: &mut LirInsn, def: Option<Vreg>, jit: &mut JitCounters) {
        match *insn {
            LirInsn::Load {
                dst,
                addr,
                size: MemSize::U64,
            } if LirInsn::fixed_regfile_slot(&addr, MemSize::U64).is_some() => {
                // Rewrite first: the load observes slot state from *before*
                // it executes.
                let known = self.get(addr.disp);
                match known {
                    Some((MemSize::U64, Stored::Reg(v))) if v.class == VregClass::Gpr => {
                        *insn = LirInsn::MovReg { dst, src: v };
                        jit.opt_forwarded_loads += 1;
                    }
                    // Cross-file forward: the slot's 64-bit value lives in a
                    // vector register's low lane (a U64 entry, or the first
                    // eight little-endian bytes of a U128 entry).
                    Some((MemSize::U64 | MemSize::U128, Stored::Reg(v)))
                        if v.class == VregClass::Xmm =>
                    {
                        *insn = LirInsn::XmmToGpr { dst, src: v };
                        jit.opt_fp_forwarded += 1;
                    }
                    Some((MemSize::U64, Stored::Imm(imm))) => {
                        *insn = LirInsn::MovImm { dst, imm };
                        jit.opt_forwarded_loads += 1;
                    }
                    _ => return self.loaded(dst, addr.disp, MemSize::U64, known.is_some()),
                }
                self.kill_value(dst);
            }
            // Vector loads forward the same way: a matching vector entry
            // becomes a register move (the U64 form of `MovXmm` zeroes the
            // upper lane, exactly like the load it replaces), and a 64-bit
            // GPR entry crosses the file with a `movq`-style transfer.
            LirInsn::LoadXmm { dst, addr, size }
                if LirInsn::fixed_regfile_slot(&addr, size).is_some() =>
            {
                let known = self.get(addr.disp);
                match (known, size) {
                    // A U128 entry covers any load width at the slot; a U64
                    // entry only a U64 load (its upper lane is unspecified).
                    (
                        Some((MemSize::U128, Stored::Reg(v))),
                        sz @ (MemSize::U64 | MemSize::U128),
                    )
                    | (Some((MemSize::U64, Stored::Reg(v))), sz @ MemSize::U64)
                        if v.class == VregClass::Xmm =>
                    {
                        *insn = LirInsn::MovXmm {
                            dst,
                            src: v,
                            size: sz,
                        };
                        jit.opt_fp_forwarded += 1;
                    }
                    (Some((MemSize::U64, Stored::Reg(v))), MemSize::U64)
                        if v.class == VregClass::Gpr =>
                    {
                        *insn = LirInsn::GprToXmm { dst, src: v };
                        jit.opt_fp_forwarded += 1;
                    }
                    _ if matches!(size, MemSize::U64 | MemSize::U128) => {
                        return self.loaded(dst, addr.disp, size, known.is_some());
                    }
                    _ => {}
                }
                self.kill_value(dst);
            }
            // A narrower store only invalidates.
            LirInsn::Store { src, addr, size } => {
                let tracked = size == MemSize::U64;
                self.store(&addr, size, tracked.then_some(Stored::Reg(src)));
            }
            LirInsn::StoreImm { imm, addr, size } => {
                let tracked = size == MemSize::U64;
                self.store(&addr, size, tracked.then_some(Stored::Imm(imm)));
            }
            // A vector store leaves the slot's value in the source vector
            // register: U128 covers the whole entry, U64 just the low lane.
            LirInsn::StoreXmm { src, addr, size } => {
                let tracked = matches!(size, MemSize::U64 | MemSize::U128);
                self.store(&addr, size, tracked.then_some(Stored::Reg(src)));
            }
            _ => {
                if insn.invalidates_regfile_values() {
                    self.clear();
                }
                // A redefined virtual register no longer holds the stored
                // value (two-address ALU/vector operations mutate in place).
                if let Some(d) = def {
                    self.kill_value(d);
                }
            }
        }
    }
}

/// Copy propagation's `copy -> origin` map over register copies — `MovReg`,
/// and `MovXmm` at either width — indexed by the copy's vreg id.  Every
/// definition must drop the entries the redefined register keys *or* feeds;
/// `feeds` counts the latter per register so that the common definition — of
/// a register nothing was copied from — costs two indexed loads instead of a
/// sweep.
#[derive(Default)]
struct CopyMap {
    /// `origin[id]`: `None` while `id` is not in `keys`; `Some(None)` for a
    /// listed id whose entry was dropped; `Some(Some(o))` when vreg `id`
    /// currently is a copy of `o` (of the same class).
    origin: Vec<Option<Option<Vreg>>>,
    /// `low[id]`: the entry of `id` is a 64-bit vector copy, equal to its
    /// origin in the low lane only.
    low: Vec<bool>,
    /// Whether a `low` entry was recorded since the last clear (only those
    /// give the low-lane rewrite anything to do).
    any_low: bool,
    /// `feeds[id]`: how many entries have vreg `id` as their origin.
    feeds: Vec<u32>,
    /// Ids recorded since the last clear, each once; a sweep drops the ones
    /// whose entry is gone, so it visits entries, not history.
    keys: Vec<u32>,
    /// Number of entries.
    live: usize,
}

impl CopyMap {
    /// Forgets everything, ready for a unit of `len` instructions.
    fn reset(&mut self, len: usize) {
        refill(&mut self.origin, len, None);
        refill(&mut self.low, len, false);
        refill(&mut self.feeds, len, 0);
        self.keys.clear();
        self.live = 0;
        self.any_low = false;
    }

    /// What `v` may be replaced by where an operand reads all of it.
    fn get(&self, v: Vreg) -> Option<Vreg> {
        self.get_low(v).filter(|_| !self.low[v.id as usize])
    }

    /// What `v` may be replaced by where an operand reads its low 64 bits
    /// only ([`LirInsn::map_low_lane_uses`]).
    fn get_low(&self, v: Vreg) -> Option<Vreg> {
        let origin = self.origin.get(v.id as usize).copied().flatten().flatten();
        origin.filter(|o| o.class == v.class)
    }

    /// Records `dst` as a copy of `src`, of the low lane only when `low`
    /// (one class; `dst` holds no entry — its definition was just
    /// [`CopyMap::kill`]ed).
    fn insert(&mut self, dst: Vreg, src: Vreg, low: bool) {
        let at = dst.id as usize;
        if at >= self.origin.len() {
            self.origin.resize(at + 1, None);
            self.low.resize(at + 1, false);
        }
        if self.origin[at].is_none() {
            self.keys.push(dst.id);
        }
        self.origin[at] = Some(Some(src));
        self.low[at] = low;
        self.any_low |= low;
        count_up(&mut self.feeds, src.id);
        self.live += 1;
    }

    /// Register `d` is redefined: drops the entry it keys and every entry
    /// it feeds.
    fn kill(&mut self, d: Vreg) {
        if let Some(slot) = self.origin.get_mut(d.id as usize) {
            if let Some(Some(o)) = *slot {
                self.feeds[o.id as usize] -= 1;
                *slot = Some(None);
                self.live -= 1;
            }
        }
        if self.feeds.get(d.id as usize).is_some_and(|n| *n > 0) {
            let (origin, live) = (&mut self.origin, &mut self.live);
            // Entries fed by `d` die; they and the ids whose entry was
            // dropped earlier leave the list.
            self.keys.retain(|&k| {
                let slot = &mut origin[k as usize];
                if *slot == Some(Some(d)) {
                    *live -= 1;
                    *slot = Some(None);
                }
                if *slot == Some(None) {
                    *slot = None;
                }
                slot.is_some()
            });
            self.feeds[d.id as usize] = 0;
        }
    }

    fn clear(&mut self) {
        for k in self.keys.drain(..) {
            if let Some(Some(o)) = self.origin[k as usize].take() {
                self.feeds[o.id as usize] = 0;
            }
        }
        self.live = 0;
        self.any_low = false;
    }

    /// Straight-line copy propagation (pass 2), one instruction: rewrites
    /// pure-source uses of a copy's destination to the copy's origin, so
    /// the forwarding pass's moves (and the emitter's own copy chains)
    /// become dead and the allocator's iterative DCE can sweep them.  A
    /// 64-bit vector copy zeroes the upper lane, so it stands in for its
    /// origin only where an operand reads the low lane alone
    /// ([`LirInsn::map_low_lane_uses`]: a scalar FP operand, a 64-bit store
    /// of a register read as a scalar).
    ///
    /// The copy map is invalidated conservatively:
    ///
    /// * any definition of a register drops entries it keys *or* feeds (a
    ///   redefined origin no longer holds the copied value; two-address ALU
    ///   mutation is a definition);
    /// * `Label` clears the map — the passes are straight-line and do not
    ///   reason across join points (a forward `Jcc`/`Jmp` leaves the
    ///   fall-through state intact; its target label is where states merge
    ///   and reset);
    /// * only copies are tracked — `MovReg` and `MovXmm` — and chains are
    ///   collapsed at record time (`dst -> root(src)`), so a rewrite never
    ///   exposes a new map key; a 128-bit copy of a 64-bit copy is not
    ///   recorded (its source is a key no full-width operand may bypass).
    ///
    /// Destination operands of read-modify-write instructions are never
    /// rewritten ([`LirInsn::map_pure_uses`] skips them by construction).
    ///
    /// `pinned` holds the promotion pass's carrier registers: a copy *keyed*
    /// by a carrier is never recorded.  Folding one would rewrite the
    /// carrier's readers — above all the compensation stores — to the
    /// copied value, leaving the carrier's own update dead; DCE would then
    /// sweep it and fault-time materialisation would write a stale register
    /// back to the slot.  The carrier invariant (carrier == architectural
    /// slot value at every instruction boundary) must survive every later
    /// pass.
    fn step(
        &mut self,
        insn: &mut LirInsn,
        def: Option<Vreg>,
        pinned: &[Vreg],
        jit: &mut JitCounters,
    ) {
        // Rewrite first: the instruction reads register state from *before*
        // it executes.  One traversal substitutes every pending copy (the
        // map is flat, so a single lookup per operand suffices).
        if self.live > 0 {
            jit.opt_copies_folded += insn.map_pure_uses(&mut |v| self.get(v)) as u64;
            if self.any_low {
                jit.opt_copies_folded += insn.map_low_lane_uses(&mut |v| self.get_low(v)) as u64;
            }
        }
        if matches!(insn, LirInsn::Label { .. }) {
            return self.clear();
        }
        if let Some(d) = def {
            self.kill(d);
        }
        let (dst, src, low) = match *insn {
            LirInsn::MovReg { dst, src } => (dst, src, false),
            LirInsn::MovXmm { dst, src, size } => (dst, src, size != MemSize::U128),
            _ => return,
        };
        // `src` was already rewritten to its root above (a 64-bit copy's in
        // both passes), so the map stays flat: no value is ever another
        // entry's key.
        if dst.class == src.class
            && dst != src
            && !pinned.contains(&dst)
            && self.get_low(src).is_none()
        {
            self.insert(dst, src, low);
        }
    }
}

/// Dead regfile-store elimination (pass 3), the backward walk: deletes
/// regfile stores whose every byte is rewritten by later stores before any
/// observer or load can see them.
fn eliminate_dead_stores(s: &mut OptScratch, lir: &mut Vec<LirInsn>, stats: &mut OptStats) {
    // Disjoint, sorted byte intervals of the regfile that are fully
    // overwritten later in the unit with no intervening observer.
    let covered = &mut s.covered;
    covered.clear();
    refill(&mut s.marks, lir.len(), false);
    let before = stats.jit.opt_dead_stores;
    for (i, insn) in lir.iter().enumerate().rev() {
        // One classification per instruction: a fixed-slot load, a
        // fixed-slot store, an observer (a computed-address access among
        // them) or none of these.
        match insn {
            LirInsn::Load { addr, size, .. }
            | LirInsn::LoadSx { addr, size, .. }
            | LirInsn::LoadXmm { addr, size, .. } => {
                match LirInsn::fixed_regfile_slot(addr, *size) {
                    Some(acc) => subtract_interval(covered, acc.start(), acc.end()),
                    None => covered.clear(),
                }
            }
            LirInsn::Store { addr, size, .. }
            | LirInsn::StoreImm { addr, size, .. }
            | LirInsn::StoreXmm { addr, size, .. } => {
                match LirInsn::fixed_regfile_slot(addr, *size) {
                    Some(acc) if is_covered(covered, acc.start(), acc.end()) => {
                        s.marks[i] = true;
                        stats.jit.opt_dead_stores += 1;
                    }
                    Some(acc) => add_interval(covered, acc.start(), acc.end()),
                    None => covered.clear(),
                }
            }
            _ if insn.observes_regfile() => covered.clear(),
            _ => {}
        }
    }
    if stats.jit.opt_dead_stores > before {
        remove_marked(lir, &s.marks);
    }
}

/// True when `[start, end)` lies entirely inside the covered set (the set is
/// disjoint and sorted, so containment means containment in one interval).
fn is_covered(covered: &[(i32, i32)], start: i32, end: i32) -> bool {
    covered.iter().any(|&(s, e)| s <= start && end <= e)
}

/// Adds `[start, end)` to the covered set, merging adjacent intervals.
fn add_interval(covered: &mut Vec<(i32, i32)>, start: i32, end: i32) {
    let mut new_s = start;
    let mut new_e = end;
    covered.retain(|&(s, e)| {
        if s <= new_e && new_s <= e {
            new_s = new_s.min(s);
            new_e = new_e.max(e);
            false
        } else {
            true
        }
    });
    let pos = covered.partition_point(|&(s, _)| s < new_s);
    covered.insert(pos, (new_s, new_e));
}

/// Removes `[start, end)` from the covered set (a load punches a hole: those
/// bytes are observed before any later covering store).  The set is
/// disjoint and sorted, so at most one interval straddles the hole with a
/// piece to keep on each side; every other interval is kept, trimmed or
/// dropped where it stands.
fn subtract_interval(covered: &mut Vec<(i32, i32)>, start: i32, end: i32) {
    if let Some(at) = covered.iter().position(|&(s, e)| s < start && end < e) {
        let right = (end, covered[at].1);
        covered[at].1 = start;
        return covered.insert(at + 1, right);
    }
    covered.retain_mut(|(s, e)| {
        if *e <= start || end <= *s {
            return true;
        }
        if *s < start {
            *e = start;
        } else if end < *e {
            *s = end;
        } else {
            return false;
        }
        true
    });
}

/// The forward passes one at a time, each its step under a loop of its own:
/// what the unit tests drive, and what [`optimize`]'s one walk is held to.
#[cfg(test)]
mod single_pass {
    use super::*;

    pub(super) fn forward_stores_to_loads(lir: &mut [LirInsn], stats: &mut OptStats) {
        let mut slots = SlotFacts::default();
        slots.reset(lir.len());
        for insn in lir.iter_mut() {
            slots.step(insn, insn.def(), &mut stats.jit);
        }
    }

    pub(super) fn propagate_copies(lir: &mut [LirInsn], stats: &mut OptStats, pinned: &[Vreg]) {
        let mut copies = CopyMap::default();
        copies.reset(lir.len());
        for insn in lir.iter_mut() {
            copies.step(insn, insn.def(), pinned, &mut stats.jit);
        }
    }

    pub(super) fn eliminate_dead_stores(lir: &mut Vec<LirInsn>, stats: &mut OptStats) {
        super::eliminate_dead_stores(&mut OptScratch::default(), lir, stats);
    }

    /// The three rewrites that run last, in their order; the exit-only
    /// stores only in a `looping` unit.
    pub(super) fn observed_rewrites(lir: &mut Vec<LirInsn>, stats: &mut OptStats, looping: bool) {
        let mut s = Scratch::default();
        stats.jit.opt_pc_elided += observed::pc_on_demand(&mut s.opt.observed, lir);
        if looping {
            stats.jit.opt_stores_sunk += observed::sink_exit_only_stores(&mut s, lir);
        }
        stats.jit.opt_flags_reused += observed::reuse_flags(&mut s.opt, lir);
    }
}

#[cfg(test)]
mod tests {
    use super::single_pass::{
        eliminate_dead_stores, forward_stores_to_loads, observed_rewrites, propagate_copies,
    };
    use super::*;
    use crate::counters::CounterField;
    use crate::lir::{LirMem, LirOperand, VregClass};
    use hvm::{AluOp, Cond, FpOp, VecOp};

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    fn store(src: u32, disp: i32) -> LirInsn {
        LirInsn::Store {
            src: v(src),
            addr: LirMem::regfile(disp),
            size: MemSize::U64,
        }
    }

    fn load(dst: u32, disp: i32) -> LirInsn {
        LirInsn::Load {
            dst: v(dst),
            addr: LirMem::regfile(disp),
            size: MemSize::U64,
        }
    }

    const NZCV: i32 = 256;

    #[test]
    fn covered_store_is_deleted() {
        // Two NZCV stores with only pure data flow between: the first dies.
        let mut lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 4 },
            store(0, NZCV),
            LirInsn::MovImm { dst: v(1), imm: 8 },
            store(1, NZCV),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_dead_stores, 1);
        let stores: Vec<_> = lir
            .iter()
            .filter(|i| matches!(i, LirInsn::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 1, "only the final NZCV store survives");
        assert!(matches!(stores[0], LirInsn::Store { src, .. } if *src == v(1)));
    }

    #[test]
    fn load_between_stores_keeps_the_first_alive() {
        let mut lir = vec![store(0, NZCV), load(1, NZCV), store(2, NZCV), LirInsn::Ret];
        let stats = optimize(&mut lir, false, None);
        // The load is forwarded (it reads v0), but the *observing* effect of
        // the original read no longer exists once forwarded — and then the
        // first store is indeed covered.  Use an unforwardable offset to pin
        // the unforwarded case instead:
        assert_eq!(stats.jit.opt_forwarded_loads, 1);
        // An unforwardable load (a 32-bit read of the stored slot's high
        // half) must keep the store alive.
        let mut lir2 = vec![
            store(0, NZCV),
            LirInsn::Load {
                dst: v(1),
                addr: LirMem::regfile(NZCV + 4),
                size: MemSize::U32,
            },
            store(2, NZCV),
            LirInsn::Ret,
        ];
        let stats2 = optimize(&mut lir2, false, None);
        assert_eq!(stats2.jit.opt_forwarded_loads, 0);
        assert_eq!(
            stats2.jit.opt_dead_stores, 0,
            "an observed store must survive"
        );
    }

    #[test]
    fn narrow_loads_of_a_wide_store_stay_loads() {
        // Only 64-bit general-purpose loads forward: a 32-bit load of a slot
        // a 64-bit store (or immediate store) just wrote stays a load.
        let narrow = |dst: u32, disp: i32| LirInsn::Load {
            dst: v(dst),
            addr: LirMem::regfile(disp),
            size: MemSize::U32,
        };
        let mut lir0 = vec![
            store(0, 8),
            narrow(1, 8),
            LirInsn::StoreImm {
                imm: 0xAAAA_BBBB_CCCC_DDDD,
                addr: LirMem::regfile(16),
                size: MemSize::U64,
            },
            narrow(2, 16),
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir0, false, None).jit.opt_forwarded_loads, 0);
        let narrow_loads = lir0.iter().filter(|i| {
            matches!(
                i,
                LirInsn::Load {
                    size: MemSize::U32,
                    ..
                }
            )
        });
        assert_eq!(narrow_loads.count(), 2);
    }

    #[test]
    fn partial_forwarding_respects_width_and_offset_limits() {
        // A 32-bit store does not satisfy a 64-bit load, and entries die at
        // observers.
        let mut lir = vec![
            LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(8),
                size: MemSize::U32,
            },
            load(1, 8),
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir, false, None).jit.opt_forwarded_loads, 0);

        let mut lir2 = vec![
            store(0, 8),
            LirInsn::CallHelper { helper: 1 },
            LirInsn::Load {
                dst: v(1),
                addr: LirMem::regfile(8),
                size: MemSize::U32,
            },
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir2, false, None).jit.opt_forwarded_loads, 0);
    }

    #[test]
    fn back_edges_pin_slots_like_any_observer() {
        // Loop soundness: the BackEdge (and the loop-header label) are
        // observers — a store before the back-edge survives even though the
        // next iteration's store would cover it, and forwarding state never
        // crosses the loop boundary.
        let mut lir = vec![
            LirInsn::Label { id: 0 },
            load(1, NZCV),
            store(0, NZCV),
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
            },
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_dead_stores, 0, "the back-edge pins the store");
        assert_eq!(
            stats.jit.opt_forwarded_loads, 0,
            "forwarding facts must not survive the loop boundary"
        );
    }

    #[test]
    fn observers_pin_earlier_stores() {
        let observers = [
            LirInsn::CallHelper { helper: 1 },
            LirInsn::Ret,
            LirInsn::Label { id: 0 },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 0,
            },
            LirInsn::Store {
                src: v(9),
                addr: LirMem::vreg(v(8), 0),
                size: MemSize::U64,
            },
            LirInsn::Load {
                dst: v(9),
                addr: LirMem::vreg(v(8), 0),
                size: MemSize::U64,
            },
        ];
        for obs in observers {
            let mut lir = vec![store(0, NZCV), obs, store(1, NZCV), LirInsn::Ret];
            let stats = optimize(&mut lir, false, None);
            assert_eq!(stats.jit.opt_dead_stores, 0, "{obs:?} must pin the store");
        }
    }

    #[test]
    fn pc_updates_batch_to_the_next_observer_and_die_at_an_absolute_write() {
        // The PC is written once before the faulting load, as one `lea`;
        // the stitch's `SetPcImm` and the two increments after it reach the
        // `Ret` as one absolute write, and the `TraceEdge` observes nothing.
        let inc = LirInsn::IncPc { imm: 4 };
        let fault = LirInsn::Load {
            dst: v(1),
            addr: LirMem::vreg(v(0), 0),
            size: MemSize::U64,
        };
        let mut lir = vec![
            inc,
            inc,
            inc,
            fault,
            inc,
            LirInsn::SetPcImm { imm: 0x2000 },
            LirInsn::TraceEdge,
            inc,
            inc,
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(
            lir,
            vec![
                LirInsn::IncPc { imm: 12 },
                fault,
                LirInsn::TraceEdge,
                LirInsn::SetPcImm { imm: 0x2008 },
                LirInsn::Ret,
            ]
        );
        // Seven writes in, two out.
        assert_eq!(stats.jit.opt_pc_elided, 5);
    }

    #[test]
    fn trace_edge_is_transparent_for_cross_constituent_death() {
        // A stitched superblock boundary: the NZCV store of constituent A is
        // covered by constituent B's store — the big superblock win.
        let mut lir = vec![
            store(0, NZCV),
            LirInsn::SetPcImm { imm: 0x2000 },
            LirInsn::TraceEdge,
            LirInsn::IncPc { imm: 4 },
            store(1, NZCV),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_dead_stores, 1);
    }

    #[test]
    fn side_exit_stub_keeps_all_slots_live() {
        // The exact stitched-conditional shape the emitter produces: the Ret
        // side exit (and its Jcc/Label) must pin every earlier slot.
        let mut lir = vec![
            store(0, NZCV),
            LirInsn::Test {
                a: v(1),
                b: LirOperand::Vreg(v(1)),
            },
            LirInsn::SetPcImm { imm: 0x3000 },
            LirInsn::Jcc {
                cond: Cond::Ne,
                label: 0,
            },
            LirInsn::Ret,
            LirInsn::Label { id: 0 },
            LirInsn::SetPcImm { imm: 0x2000 },
            LirInsn::TraceEdge,
            store(2, NZCV),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(
            stats.jit.opt_dead_stores, 0,
            "slots must stay live across a side-exit stub"
        );
    }

    #[test]
    fn partial_overlap_is_not_coverage() {
        // A U64 store at offset 8 does not cover a U128 store at 0.
        let mut lir = vec![
            LirInsn::StoreXmm {
                src: v(0),
                addr: LirMem::regfile(0),
                size: MemSize::U128,
            },
            store(1, 8),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_dead_stores, 0);
        // But two U64 stores at 0 and 8 together cover the U128 store.
        let mut lir2 = vec![
            LirInsn::StoreXmm {
                src: v(0),
                addr: LirMem::regfile(0),
                size: MemSize::U128,
            },
            store(1, 0),
            store(2, 8),
            LirInsn::Ret,
        ];
        let stats2 = optimize(&mut lir2, false, None);
        assert_eq!(
            stats2.jit.opt_dead_stores, 1,
            "merged intervals cover the vector"
        );
        assert!(!lir2.iter().any(|i| matches!(i, LirInsn::StoreXmm { .. })));
    }

    #[test]
    fn forwarding_rewrites_loads_to_moves() {
        let mut lir = vec![
            store(0, 8),
            LirInsn::StoreImm {
                imm: 42,
                addr: LirMem::regfile(16),
                size: MemSize::U64,
            },
            load(1, 8),
            load(2, 16),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_forwarded_loads, 2);
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::MovReg { dst, src } if *dst == v(1) && *src == v(0))));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::MovImm { dst, imm: 42 } if *dst == v(2))));
        assert!(!lir.iter().any(|i| matches!(i, LirInsn::Load { .. })));
    }

    #[test]
    fn forwarding_state_dies_at_observers_and_redefinitions() {
        // Helper call clears the map.
        let mut lir = vec![
            store(0, 8),
            LirInsn::CallHelper { helper: 1 },
            load(1, 8),
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir, false, None).jit.opt_forwarded_loads, 0);

        // Redefining the stored vreg (two-address mutation) drops the entry.
        let mut lir2 = vec![
            store(0, 8),
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(0),
                src: LirOperand::Imm(1),
            },
            load(1, 8),
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir2, false, None).jit.opt_forwarded_loads, 0);

        // An overlapping store of another width invalidates without
        // replacing.
        let mut lir3 = vec![
            store(0, 8),
            LirInsn::StoreImm {
                imm: 7,
                addr: LirMem::regfile(12),
                size: MemSize::U32,
            },
            load(1, 8),
            LirInsn::Ret,
        ];
        assert_eq!(optimize(&mut lir3, false, None).jit.opt_forwarded_loads, 0);
    }

    #[test]
    fn forwarding_enables_dead_store_elimination() {
        // The canonical chained-ALU shape: store x1, (loads of x1 forwarded),
        // store x1 again — the first store then dies.
        let mut lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 5 },
            store(0, 8), // x1 <- v0
            load(1, 8),  // forwarded to v0
            LirInsn::MovReg {
                dst: v(2),
                src: v(1),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(2),
                src: LirOperand::Imm(3),
            },
            store(2, 8), // x1 <- v2: covers the first store
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_forwarded_loads, 1);
        assert_eq!(stats.jit.opt_dead_stores, 1);
    }

    #[test]
    fn copy_chains_collapse_to_their_origin() {
        let mut lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 5 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::MovReg {
                dst: v(2),
                src: v(1),
            },
            store(2, 8),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert!(stats.jit.opt_copies_folded >= 2, "both copy uses fold");
        assert!(
            lir.iter()
                .any(|i| matches!(i, LirInsn::Store { src, .. } if *src == v(0))),
            "the store reads the origin, not the copy chain"
        );
        // The second copy's source collapsed to the root, keeping the map flat.
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::MovReg { dst, src } if *dst == v(2) && *src == v(0))));
    }

    #[test]
    fn copy_propagation_stops_at_redefinitions() {
        // Redefining the *origin* kills the entry: the copy holds the old
        // value.
        let mut lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 5 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(0),
                src: LirOperand::Imm(1),
            },
            store(1, 8),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_copies_folded, 0);
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Store { src, .. } if *src == v(1))));

        // Redefining the *copy* (two-address mutation) kills it too, and the
        // mutated destination is never rewritten.
        let mut lir2 = vec![
            LirInsn::MovImm { dst: v(0), imm: 5 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(1),
                src: LirOperand::Imm(3),
            },
            store(1, 8),
            LirInsn::Ret,
        ];
        let stats2 = optimize(&mut lir2, false, None);
        assert_eq!(stats2.jit.opt_copies_folded, 0);
        assert!(lir2
            .iter()
            .any(|i| matches!(i, LirInsn::Alu { dst, .. } if *dst == v(1))));
        assert!(lir2
            .iter()
            .any(|i| matches!(i, LirInsn::Store { src, .. } if *src == v(1))));
    }

    #[test]
    fn copy_propagation_resets_at_labels() {
        // Straight-line only: a label is a join point where copy facts die.
        let mut lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 5 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Label { id: 0 },
            store(1, 8),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_copies_folded, 0);
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Store { src, .. } if *src == v(1))));
    }

    #[test]
    fn forwarded_moves_are_folded_into_their_consumers() {
        // The satellite's target shape: forwarding produces a MovReg, copy
        // propagation folds its use, and the MovReg is left dead for DCE.
        let mut lir = vec![
            store(0, 8),  // x1 <- v0
            load(1, 8),   // forwarded: MovReg v1 <- v0
            store(1, 16), // x2 <- v1, folded to v0
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_forwarded_loads, 1);
        assert!(stats.jit.opt_copies_folded >= 1);
        assert!(
            lir.iter().any(|i| matches!(
                i,
                LirInsn::Store { src, addr, .. } if *src == v(0) && addr.disp == 16
            )),
            "the consumer reads the forwarded origin directly"
        );
    }

    #[test]
    fn interval_helpers() {
        let mut c = Vec::new();
        add_interval(&mut c, 0, 8);
        add_interval(&mut c, 16, 24);
        assert_eq!(c, vec![(0, 8), (16, 24)]);
        add_interval(&mut c, 8, 16); // bridges the gap
        assert_eq!(c, vec![(0, 24)]);
        assert!(is_covered(&c, 4, 20));
        assert!(!is_covered(&c, 4, 32));
        subtract_interval(&mut c, 8, 16);
        assert_eq!(c, vec![(0, 8), (16, 24)]);
        assert!(!is_covered(&c, 4, 12));
        assert!(is_covered(&c, 16, 24));
        // One hole that trims both neighbours and swallows what lies between.
        let mut c = vec![(0, 8), (10, 12), (16, 24)];
        subtract_interval(&mut c, 4, 20);
        assert_eq!(c, vec![(0, 4), (20, 24)]);
        subtract_interval(&mut c, 30, 40);
        assert_eq!(c, vec![(0, 4), (20, 24)], "nothing covered there");
    }

    fn xv(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Xmm,
        }
    }

    /// A minimal looping unit: `Label 0; <body>; BackEdge; Ret`.
    fn loop_unit(body: Vec<LirInsn>) -> Vec<LirInsn> {
        let mut lir = vec![LirInsn::Label { id: 0 }];
        lir.extend(body);
        lir.push(LirInsn::BackEdge {
            pc: 0x1000,
            label: 0,
            reconcile: false,
        });
        lir.push(LirInsn::Ret);
        lir
    }

    fn backedge_pos(lir: &[LirInsn]) -> usize {
        lir.iter()
            .position(|i| matches!(i, LirInsn::BackEdge { .. }))
            .expect("unit keeps its back-edge")
    }

    #[test]
    fn promotion_hoists_loads_and_defers_stores() {
        // x1 += 1 each trip: the slot is promoted dirty — the in-loop
        // load/store round-trip disappears, the back-edge reconciles, and a
        // compensation store precedes the dispatcher return.
        let mut lir = loop_unit(vec![
            load(1, 8),
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(1),
                src: LirOperand::Imm(1),
            },
            store(1, 8),
        ]);
        let stats = optimize(&mut lir, true, None);
        assert_eq!(stats.jit.opt_promoted_slots, 1);
        assert_eq!(stats.jit.opt_hoisted_loads, 1);
        assert_eq!(stats.promoted.len(), 1, "one dirty slot to materialise");
        assert_eq!(stats.promoted[0].0, 8);
        assert!(
            matches!(lir[0], LirInsn::Load { addr, size: MemSize::U64, .. } if addr.disp == 8),
            "the carrier is loaded in the preheader: {:?}",
            lir[0]
        );
        let be = backedge_pos(&lir);
        assert!(
            matches!(
                lir[be],
                LirInsn::BackEdge {
                    reconcile: true,
                    ..
                }
            ),
            "a dirty promotion must reconcile at the back-edge"
        );
        let header = lir
            .iter()
            .position(|i| matches!(i, LirInsn::Label { .. }))
            .unwrap();
        assert!(
            !lir[header..be].iter().any(|i| {
                matches!(i, LirInsn::Load { addr, .. } | LirInsn::Store { addr, .. } if addr.disp == 8)
            }),
            "no regfile round-trip survives inside the loop"
        );
        assert!(
            lir[be..].iter().any(
                |i| matches!(i, LirInsn::Store { addr, size: MemSize::U64, .. } if addr.disp == 8)
            ),
            "the compensation store materialises the slot before Ret"
        );
    }

    #[test]
    fn clean_promotion_skips_reconciliation() {
        // A loop-invariant operand: promoted clean, so the back-edge yield
        // path stays the cheap one and nothing is materialised anywhere.
        let mut lir = loop_unit(vec![
            load(1, 8),
            load(2, 8),
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(2),
                src: LirOperand::Vreg(v(1)),
            },
        ]);
        let stats = optimize(&mut lir, true, None);
        assert_eq!(stats.jit.opt_promoted_slots, 1);
        assert_eq!(stats.jit.opt_hoisted_loads, 2);
        assert!(stats.promoted.is_empty(), "clean slots need no fault map");
        let be = backedge_pos(&lir);
        assert!(matches!(
            lir[be],
            LirInsn::BackEdge {
                reconcile: false,
                ..
            }
        ));
        assert!(
            !lir.iter()
                .any(|i| matches!(i, LirInsn::Store { addr, .. } if addr.disp == 8)),
            "a never-written slot gets no compensation store"
        );
    }

    #[test]
    fn narrow_loads_disqualify_their_slot() {
        // A 32-bit read (zero- or sign-extending) of a slot sees only part
        // of it, so the slot stays in memory rather than in a carrier.
        for narrow in [
            LirInsn::Load {
                dst: v(2),
                addr: LirMem::regfile(8),
                size: MemSize::U32,
            },
            LirInsn::LoadSx {
                dst: v(2),
                addr: LirMem::regfile(8),
                size: MemSize::U32,
            },
        ] {
            let mut lir = loop_unit(vec![load(1, 8), narrow, store(1, 8)]);
            assert_eq!(
                optimize(&mut lir, true, None).jit.opt_promoted_slots,
                0,
                "{narrow:?}"
            );
        }
    }

    #[test]
    fn promotion_disqualifiers() {
        // A helper call anywhere in the unit pins every slot.
        let mut lir = loop_unit(vec![
            load(1, 8),
            LirInsn::CallHelper { helper: 1 },
            store(1, 8),
        ]);
        assert_eq!(optimize(&mut lir, true, None).jit.opt_promoted_slots, 0);

        // Dynamically-indexed regfile access pins every slot.
        let mut lir2 = loop_unit(vec![
            load(1, 8),
            LirInsn::Load {
                dst: v(2),
                addr: LirMem {
                    base: LirBase::RegFile,
                    index: Some((v(1), 3)),
                    disp: 0,
                },
                size: MemSize::U64,
            },
            store(1, 8),
        ]);
        assert_eq!(optimize(&mut lir2, true, None).jit.opt_promoted_slots, 0);

        // An XMM access overlapping one slot pins only that slot.
        let mut lir3 = loop_unit(vec![
            load(1, 8),
            LirInsn::StoreXmm {
                src: xv(9),
                addr: LirMem::regfile(8),
                size: MemSize::U128,
            },
            load(2, 64),
            store(2, 64),
        ]);
        let stats3 = optimize(&mut lir3, true, None);
        assert_eq!(
            stats3.jit.opt_promoted_slots, 1,
            "only the GPR-pure slot promotes"
        );
        assert_eq!(stats3.promoted[0].0, 64);

        // A narrow store merges bytes into the slot: disqualified.
        let mut lir4 = loop_unit(vec![
            load(1, 8),
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(8),
                size: MemSize::U32,
            },
        ]);
        assert_eq!(optimize(&mut lir4, true, None).jit.opt_promoted_slots, 0);

        // With the pass gated off nothing is rewritten.
        let mut lir5 = loop_unit(vec![load(1, 8), store(1, 8)]);
        let stats5 = optimize(&mut lir5, false, None);
        assert_eq!(stats5.jit.opt_promoted_slots, 0);
        assert_eq!(stats5.jit.opt_hoisted_loads, 0);
        assert!(matches!(
            lir5[backedge_pos(&lir5)],
            LirInsn::BackEdge {
                reconcile: false,
                ..
            }
        ));
    }

    #[test]
    fn promotion_respects_slot_and_dirty_caps() {
        // Five dirty candidates (two accesses each) and two clean ones (one
        // access): the dirty cap admits four, then the slot cap fills with
        // the clean slots.  The bodies are tiny, so trial allocation never
        // vetoes — the caps alone decide.
        let mut body = Vec::new();
        for off in [0, 8, 16, 24, 32] {
            body.push(load(1, off));
            body.push(store(1, off));
        }
        body.push(load(2, 40));
        body.push(load(3, 48));
        let mut lir = loop_unit(body);
        let stats = optimize(&mut lir, true, None);
        assert_eq!(stats.jit.opt_promoted_slots, MAX_PROMOTED_SLOTS as u64);
        assert_eq!(stats.promoted.len(), MAX_DIRTY_SLOTS);
        let dirty: Vec<i32> = stats.promoted.iter().map(|p| p.0).collect();
        assert_eq!(dirty, vec![0, 8, 16, 24], "hottest-first, offset tie-break");
    }

    // Carrier write-through: v(90) plays the carrier `C`, v(1) the body
    // register `X`, v(2) a bystander.
    const C: u32 = 90;

    fn mov(dst: u32, src: u32) -> LirInsn {
        LirInsn::MovReg {
            dst: v(dst),
            src: v(src),
        }
    }

    fn add(dst: u32, src: LirOperand) -> LirInsn {
        LirInsn::Alu {
            op: AluOp::Add,
            dst: v(dst),
            src,
        }
    }

    fn guest_load(dst: u32, base: u32) -> LirInsn {
        LirInsn::Load {
            dst: v(dst),
            addr: LirMem::vreg(v(base), 0),
            size: MemSize::U64,
        }
    }

    /// Runs the pass over `body` with `C` as the only carrier.
    fn written_through(body: &[LirInsn]) -> Vec<LirInsn> {
        let mut lir = body.to_vec();
        write_through_carriers(&mut lir, &[v(C)]);
        lir
    }

    #[test]
    fn write_through_accepts_the_three_promoted_shapes() {
        // A loaded value stored to a promoted slot: the load lands in the
        // carrier.  The head may fault — `C` is then still unwritten — and
        // may read `C` itself (the pointer chase `x1 = [x1]`).
        assert_eq!(
            written_through(&[guest_load(1, 2), mov(C, 1)]),
            [guest_load(C, 2)]
        );
        assert_eq!(
            written_through(&[guest_load(1, C), mov(C, 1)]),
            [guest_load(C, C)]
        );
        // The mov/op/mov round trip promotion plants for every promoted
        // load/store pair becomes the op on the carrier.
        assert_eq!(
            written_through(&[
                mov(1, C),
                add(1, LirOperand::Imm(1)),
                LirInsn::Neg { dst: v(1) },
                add(1, LirOperand::Vreg(v(2))),
                mov(C, 1),
            ]),
            [
                add(C, LirOperand::Imm(1)),
                LirInsn::Neg { dst: v(C) },
                add(C, LirOperand::Vreg(v(2))),
            ]
        );
        // The first update of a copy of `C` may read `C` (`x1 += x1`): `X`
        // still equals it there.  So may its own destination operand twice.
        assert_eq!(
            written_through(&[mov(1, C), add(1, LirOperand::Vreg(v(C))), mov(C, 1)]),
            [add(C, LirOperand::Vreg(v(C)))]
        );
        assert_eq!(
            written_through(&[
                mov(1, C),
                add(1, LirOperand::Vreg(v(1))),
                add(1, LirOperand::Vreg(v(1))),
                mov(C, 1),
            ]),
            [
                add(C, LirOperand::Vreg(v(C))),
                add(C, LirOperand::Vreg(v(C)))
            ]
        );
        // A chain under any other pure definition keeps its head, renamed;
        // bystanders in the window that mention neither register stay put.
        assert_eq!(
            written_through(&[
                mov(1, 2),
                LirInsn::MovImm { dst: v(3), imm: 9 },
                add(1, LirOperand::Imm(1)),
                LirInsn::SetPcImm { imm: 0x2000 },
                mov(C, 1),
            ]),
            [
                mov(C, 2),
                LirInsn::MovImm { dst: v(3), imm: 9 },
                add(C, LirOperand::Imm(1)),
                LirInsn::SetPcImm { imm: 0x2000 },
            ]
        );
        // Two round trips in one segment are rewritten one after the other.
        assert_eq!(
            written_through(&[
                mov(1, C),
                add(1, LirOperand::Imm(1)),
                mov(C, 1),
                mov(3, C),
                add(3, LirOperand::Imm(2)),
                mov(C, 3),
            ]),
            [add(C, LirOperand::Imm(1)), add(C, LirOperand::Imm(2))]
        );
    }

    #[test]
    fn write_through_refuses_a_window_something_else_can_see_into() {
        let imm1 = LirOperand::Imm(1);
        // One intruder at a time between `X = C; X += 1` and `C = X`: each
        // would observe (or destroy) the carrier's early update.
        let intruders = [
            // reads C / writes C / reads X
            store(C, 8),
            mov(2, C),
            LirInsn::MovImm { dst: v(C), imm: 0 },
            mov(2, 1),
            LirInsn::Cmp {
                a: v(1),
                b: LirOperand::Imm(0),
            },
            // observers: the carrier invariant is visible there (a fault
            // materialises dirty carriers; control flow leaves the segment)
            guest_load(2, 3),
            LirInsn::Store {
                src: v(2),
                addr: LirMem::vreg(v(3), 0),
                size: MemSize::U64,
            },
            LirInsn::CallHelper { helper: 1 },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 0,
            },
            LirInsn::Jmp { label: 0 },
            LirInsn::Label { id: 0 },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: true,
            },
            LirInsn::Ret,
            // a stitched constituent boundary
            LirInsn::TraceEdge,
        ];
        for intruder in intruders {
            let unit = [mov(1, C), add(1, imm1), intruder, mov(C, 1)];
            assert_eq!(written_through(&unit), unit, "{intruder:?}");
            // ...and the same between the head and the first link.
            let unit = [mov(1, C), intruder, add(1, imm1), mov(C, 1)];
            assert_eq!(written_through(&unit), unit, "{intruder:?}");
        }
    }

    #[test]
    fn write_through_refuses_links_that_read_a_carrier_already_updated() {
        let c = LirOperand::Vreg(v(C));
        // X=C; X+=1; X+=C; C=X is 2C+1 — C+=1; C+=C would be 2C+2.
        let unit = [mov(1, C), add(1, LirOperand::Imm(1)), add(1, c), mov(C, 1)];
        assert_eq!(written_through(&unit), unit);
        // Two readers, the first link among them.
        let unit = [mov(1, C), add(1, c), add(1, c), mov(C, 1)];
        assert_eq!(written_through(&unit), unit);
        // Under a head that is not a copy of C no link may read it at all:
        // X=[g]; X+=C; C=X must not become C=[g]; C+=C.
        let unit = [guest_load(1, 2), add(1, c), mov(C, 1)];
        assert_eq!(written_through(&unit), unit);
        let unit = [mov(1, 2), add(1, c), mov(C, 1)];
        assert_eq!(written_through(&unit), unit);
    }

    #[test]
    fn write_through_refuses_values_that_live_on_and_other_classes() {
        // X is read again after the copy (an out-of-span store follows its
        // carrier refresh the other way round; either order refuses).
        let unit = [
            mov(1, C),
            add(1, LirOperand::Imm(1)),
            mov(C, 1),
            store(1, 8),
        ];
        assert_eq!(written_through(&unit), unit);
        let unit = [
            mov(1, C),
            add(1, LirOperand::Imm(1)),
            store(1, 8),
            mov(C, 1),
        ];
        assert_eq!(written_through(&unit), unit);
        // ...or before the head, around a loop.
        let unit = [
            LirInsn::Label { id: 0 },
            store(1, 16),
            mov(1, C),
            add(1, LirOperand::Imm(1)),
            mov(C, 1),
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: true,
            },
        ];
        assert_eq!(written_through(&unit), unit);
        // No chain head inside the segment (X is defined across a label).
        let unit = [
            guest_load(1, 2),
            LirInsn::Label { id: 0 },
            add(1, LirOperand::Imm(1)),
            mov(C, 1),
        ];
        assert_eq!(written_through(&unit), unit);
        // A link that is itself an observer: X=C; X+=8; X=[X]; C=X would
        // fault with C already advanced.
        let unit = [
            mov(1, C),
            add(1, LirOperand::Imm(8)),
            guest_load(1, 1),
            mov(C, 1),
        ];
        assert_eq!(written_through(&unit), unit);
        // Copies into anything but a carrier, and from the vector class,
        // are none of this pass's business.
        let unit = [mov(1, C), add(1, LirOperand::Imm(1)), mov(2, 1)];
        assert_eq!(written_through(&unit), unit);
        let unit = [
            LirInsn::LoadXmm {
                dst: xv(1),
                addr: LirMem::regfile(64),
                size: MemSize::U64,
            },
            LirInsn::MovReg {
                dst: v(C),
                src: xv(1),
            },
        ];
        assert_eq!(written_through(&unit), unit);
    }

    fn xload(dst: u32, disp: i32, size: MemSize) -> LirInsn {
        LirInsn::LoadXmm {
            dst: xv(dst),
            addr: LirMem::regfile(disp),
            size,
        }
    }

    fn xstore(src: u32, disp: i32, size: MemSize) -> LirInsn {
        LirInsn::StoreXmm {
            src: xv(src),
            addr: LirMem::regfile(disp),
            size,
        }
    }

    fn xmov(dst: u32, src: u32, size: MemSize) -> LirInsn {
        LirInsn::MovXmm {
            dst: xv(dst),
            src: xv(src),
            size,
        }
    }

    /// `StoreXmm U64` of `src` to the slot at `disp` and zero over its upper
    /// half: a guest's scalar FP write.
    fn scalar_write(src: u32, disp: i32) -> [LirInsn; 2] {
        [
            xstore(src, disp, MemSize::U64),
            LirInsn::StoreImm {
                imm: 0,
                addr: LirMem::regfile(disp + 8),
                size: MemSize::U64,
            },
        ]
    }

    #[test]
    fn vector_slots_promote_whole_into_vector_carriers() {
        // d0 += d1 (scalar: read low lanes, write zero-extended) and
        // v2 = v2 * v3 (packed) in a loop: the four 16-byte slots get vector
        // carriers, the two written ones dirty; the upper half of d0 gets no
        // carrier of its own; the carriers are loaded and stored whole.
        let mut body = vec![
            xload(1, 0x100, MemSize::U64),
            xload(2, 0x110, MemSize::U64),
            xmov(3, 1, MemSize::U128),
            LirInsn::Fp {
                op: FpOp::AddD,
                dst: xv(3),
                src: xv(2),
            },
        ];
        body.extend(scalar_write(3, 0x100));
        body.extend([
            xload(4, 0x120, MemSize::U128),
            xload(5, 0x130, MemSize::U128),
            xmov(6, 4, MemSize::U128),
            LirInsn::Vec {
                op: VecOp::MulPd,
                dst: xv(6),
                src: xv(5),
            },
            xstore(6, 0x120, MemSize::U128),
        ]);
        let mut lir = loop_unit(body);
        let stats = optimize(&mut lir, true, None);
        assert_eq!(stats.jit.opt_promoted_slots, 4);
        let dirty: Vec<(i32, VregClass)> =
            stats.promoted.iter().map(|p| (p.0, p.1.class)).collect();
        assert_eq!(dirty, [(0x100, VregClass::Xmm), (0x120, VregClass::Xmm)]);
        let header = lir
            .iter()
            .position(|i| matches!(i, LirInsn::Label { .. }))
            .unwrap();
        let be = backedge_pos(&lir);
        assert!(
            lir[..header].iter().all(|i| matches!(
                i,
                LirInsn::LoadXmm {
                    size: MemSize::U128,
                    ..
                }
            )),
            "four whole-slot preheader loads: {:?}",
            &lir[..header]
        );
        assert!(
            !lir[header..be]
                .iter()
                .any(|i| i.regfile_load().is_some() || i.regfile_store().is_some()),
            "no register-file access is left in the loop: {lir:?}"
        );
        // The scalar write became one zero-extending move into the carrier,
        // the packed update one operation on it.
        assert!(lir[header..be].iter().any(|i| matches!(
            i,
            LirInsn::MovXmm {
                size: MemSize::U64,
                dst,
                ..
            } if *dst == stats.promoted[0].1
        )));
        assert!(lir[header..be].iter().any(|i| matches!(
            i,
            LirInsn::Vec { dst, src, .. } if *dst == stats.promoted[1].1 && src.class == VregClass::Xmm
        )));
        let stores: Vec<(i32, MemSize)> = lir[be..]
            .iter()
            .filter_map(|i| match i {
                LirInsn::StoreXmm { addr, size, .. } => Some((addr.disp, *size)),
                LirInsn::Store { addr, size, .. } | LirInsn::StoreImm { addr, size, .. } => {
                    Some((addr.disp, *size))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            stores,
            [
                (0x100, MemSize::U128),
                (0x120, MemSize::U128),
                (0x100, MemSize::U128),
                (0x120, MemSize::U128)
            ],
            "whole-slot compensation at the reconcile exit and before Ret"
        );
    }

    #[test]
    fn a_vector_slot_in_another_shape_stays_in_memory() {
        // Each access below touches a 16-byte slot in a shape other than its
        // own: the slot keeps no carrier (the general-purpose one beside it
        // still promotes).
        let intruders = [
            // a 64-bit store whose upper half is left alone
            vec![xstore(1, 0x100, MemSize::U64)],
            // the upper half read as a general-purpose value
            vec![load(2, 0x108)],
            // a vector access at the slot's upper half
            vec![xload(1, 0x108, MemSize::U64)],
            // a 32-bit vector load
            vec![xload(1, 0x100, MemSize::U32)],
        ];
        for intruder in intruders {
            let mut body = vec![xload(3, 0x100, MemSize::U64), load(4, 8)];
            body.extend(intruder.iter().copied());
            body.push(store(4, 8));
            let mut lir = loop_unit(body);
            let stats = optimize(&mut lir, true, None);
            assert!(
                lir.contains(&xload(3, 0x100, MemSize::U64)),
                "{intruder:?}: {lir:?}"
            );
            assert_eq!(stats.promoted.len(), 1, "{intruder:?}");
            assert_eq!(stats.promoted[0].0, 8, "{intruder:?}");
        }
    }

    #[test]
    fn write_through_of_vector_carriers() {
        let c = |size| xmov(C, 1, size);
        let wt = |body: &[LirInsn]| {
            let mut lir = body.to_vec();
            write_through_carriers(&mut lir, &[xv(C)]);
            lir
        };
        // A 128-bit copy is pure: the packed round trip runs on the carrier.
        let packed = LirInsn::Vec {
            op: VecOp::AddPd,
            dst: xv(1),
            src: xv(2),
        };
        assert_eq!(
            wt(&[xmov(1, C, MemSize::U128), packed, c(MemSize::U128)]),
            [LirInsn::Vec {
                op: VecOp::AddPd,
                dst: xv(C),
                src: xv(2),
            }]
        );
        // A 64-bit copy zeroes the upper lane: it folds into a lone head that
        // zeroes it too...
        let guest = |size| LirInsn::LoadXmm {
            dst: xv(1),
            addr: LirMem::vreg(v(2), 0),
            size,
        };
        let mut landed = guest(MemSize::U64);
        *landed.def_mut().unwrap() = xv(C);
        assert_eq!(wt(&[guest(MemSize::U64), c(MemSize::U64)]), [landed]);
        let transfer = LirInsn::GprToXmm {
            dst: xv(1),
            src: v(2),
        };
        assert_eq!(
            wt(&[transfer, c(MemSize::U64)]),
            [LirInsn::GprToXmm {
                dst: xv(C),
                src: v(2),
            }]
        );
        // ...and into nothing else: a 128-bit load leaves its upper lane,
        // and a scalar link keeps whatever the head left there.
        let unit = [guest(MemSize::U128), c(MemSize::U64)];
        assert_eq!(wt(&unit), unit);
        let scalar = LirInsn::Fp {
            op: FpOp::MulD,
            dst: xv(1),
            src: xv(2),
        };
        let unit = [guest(MemSize::U64), scalar, c(MemSize::U64)];
        assert_eq!(wt(&unit), unit);
    }

    #[test]
    fn write_through_runs_only_when_promotion_produced_carriers() {
        // The promoted counter loop end to end: the body is one add on the
        // carrier, with no move left.
        let mut lir = loop_unit(vec![load(1, 8), add(1, LirOperand::Imm(1)), store(1, 8)]);
        let stats = optimize(&mut lir, true, None);
        assert_eq!(stats.promoted.len(), 1);
        let carrier = stats.promoted[0].1;
        let header = lir
            .iter()
            .position(|i| matches!(i, LirInsn::Label { .. }))
            .unwrap();
        assert_eq!(
            lir[header + 1..backedge_pos(&lir)],
            [LirInsn::Alu {
                op: AluOp::Add,
                dst: carrier,
                src: LirOperand::Imm(1)
            }]
        );
        // A unit without carriers — promotion off, or nothing to promote —
        // is returned exactly as the passes before left it, round trips
        // through ordinary registers included.
        let earlier_passes = |mut lir: Vec<LirInsn>| {
            let mut stats = OptStats::default();
            forward_stores_to_loads(&mut lir, &mut stats);
            propagate_copies(&mut lir, &mut stats, &[]);
            eliminate_dead_stores(&mut lir, &mut stats);
            observed_rewrites(&mut lir, &mut stats, false);
            lir
        };
        let body = vec![
            mov(1, 2),
            add(1, LirOperand::Imm(1)),
            mov(3, 1),
            store(3, 8),
        ];
        let mut unpromoted = loop_unit(body.clone());
        let expected = earlier_passes(unpromoted.clone());
        optimize(&mut unpromoted, false, None);
        assert_eq!(unpromoted, expected);
        let mut straight = body;
        straight.push(LirInsn::Ret);
        let expected = earlier_passes(straight.clone());
        assert_eq!(
            optimize(&mut straight, true, None).jit.opt_promoted_slots,
            0
        );
        assert_eq!(straight, expected);
    }

    #[test]
    fn xmm_stores_forward_to_xmm_loads() {
        // Full-width and low-lane vector reuse; a narrower vector load must
        // NOT forward (MovXmm's write shape would widen it).
        let mut lir = vec![
            LirInsn::StoreXmm {
                src: xv(0),
                addr: LirMem::regfile(64),
                size: MemSize::U128,
            },
            LirInsn::LoadXmm {
                dst: xv(1),
                addr: LirMem::regfile(64),
                size: MemSize::U128,
            },
            LirInsn::LoadXmm {
                dst: xv(2),
                addr: LirMem::regfile(64),
                size: MemSize::U64,
            },
            LirInsn::LoadXmm {
                dst: xv(3),
                addr: LirMem::regfile(64),
                size: MemSize::U32,
            },
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_fp_forwarded, 2);
        assert_eq!(
            stats.jit.opt_forwarded_loads, 0,
            "vector reuse is counted apart"
        );
        assert!(lir.iter().any(|i| matches!(
            i,
            LirInsn::MovXmm { dst, src, size: MemSize::U128 } if *dst == xv(1) && *src == xv(0)
        )));
        assert!(lir.iter().any(|i| matches!(
            i,
            LirInsn::MovXmm { dst, src, size: MemSize::U64 } if *dst == xv(2) && *src == xv(0)
        )));
        assert!(
            lir.iter()
                .any(|i| matches!(i, LirInsn::LoadXmm { dst, .. } if *dst == xv(3))),
            "narrow vector loads keep the memory access"
        );
    }

    #[test]
    fn cross_file_forwarding_uses_transfer_moves() {
        // GPR store feeding a vector load (FMOV D<n>, X<n> idiom) and a
        // vector store feeding a GPR load both forward through explicit
        // cross-file transfers.
        let mut lir = vec![
            store(0, 64),
            LirInsn::LoadXmm {
                dst: xv(1),
                addr: LirMem::regfile(64),
                size: MemSize::U64,
            },
            LirInsn::StoreXmm {
                src: xv(2),
                addr: LirMem::regfile(80),
                size: MemSize::U64,
            },
            load(3, 80),
            LirInsn::Ret,
        ];
        let stats = optimize(&mut lir, false, None);
        assert_eq!(stats.jit.opt_fp_forwarded, 2);
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::GprToXmm { dst, src } if *dst == xv(1) && *src == v(0))));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::XmmToGpr { dst, src } if *dst == v(3) && *src == xv(2))));
    }

    #[test]
    fn a_sweep_unlists_the_copies_it_and_earlier_kills_dropped() {
        // A long straight line that keeps recording a copy and redefining
        // its origin: every redefinition sweeps the key list, so the list
        // must hold the live entries, not every copy ever recorded.
        let mut copies = CopyMap::default();
        copies.reset(8);
        let mut jit = JitCounters::default();
        let mut step = |copies: &mut CopyMap, mut insn: LirInsn| {
            let def = insn.def();
            copies.step(&mut insn, def, &[], &mut jit);
        };
        step(&mut copies, mov(7, 6)); // stays live throughout
        for round in 0..1_000u32 {
            let dst = 2 + round % 3;
            step(&mut copies, mov(dst, 1));
            assert_eq!(copies.get(v(dst)), Some(v(1)));
            step(&mut copies, LirInsn::MovImm { dst: v(1), imm: 0 });
            assert_eq!(copies.get(v(dst)), None);
            assert_eq!((copies.live, copies.keys.len()), (1, 1), "round {round}");
        }
        assert_eq!(copies.get(v(7)), Some(v(6)));
        // A key redefined without a sweep stays listed once, however often
        // it is recorded again.
        for _ in 0..10 {
            step(&mut copies, mov(5, 6));
        }
        assert_eq!((copies.live, copies.keys.len()), (2, 2));
    }

    /// `optimize`'s route through the passes, one whole-unit pass at a time.
    fn optimize_pass_by_pass(
        lir: &mut Vec<LirInsn>,
        promote: bool,
        idioms: Option<&RuleTable>,
    ) -> OptStats {
        let mut stats = OptStats::default();
        if let Some(table) = idioms {
            crate::idiom::apply_early(lir, table, &mut stats.idioms);
        }
        let looping = promote && lir.iter().any(|i| matches!(i, LirInsn::BackEdge { .. }));
        let carriers = if looping {
            crate::with_scratch(|s| promote_loop_slots(s, lir, &mut stats, CAPS))
        } else {
            Vec::new()
        };
        forward_stores_to_loads(lir, &mut stats);
        propagate_copies(lir, &mut stats, &carriers);
        if let Some(table) = idioms {
            crate::idiom::fold_addressing(lir, table, &mut stats.idioms);
        }
        eliminate_dead_stores(lir, &mut stats);
        if !carriers.is_empty() {
            write_through_carriers(lir, &carriers);
        }
        observed_rewrites(lir, &mut stats, looping);
        stats
    }

    #[test]
    fn the_forward_walk_is_the_passes_run_one_after_the_other() {
        // A test of the *driver*: each pass has one body, its step, and the
        // loops above run the same steps a pass at a time.
        let table = RuleTable::builtin();
        // An address chain for the folding step, ahead of every unit.
        let chain = [
            load(900, 0),
            load(901, 8),
            mov(902, 900),
            add(902, LirOperand::Vreg(v(901))),
            guest_load(903, 902),
            store(903, 16),
        ];
        let mut fired = OptStats::default();
        let mut promoted = 0;
        for seed in 1..150u64 {
            for shape in 0..6 {
                let mut unit = chain.to_vec();
                unit.extend(crate::regalloc_reference::tests::unit(
                    seed * 0x9E37_79B9,
                    shape,
                    3 + seed % 45,
                    20 + seed % 100,
                ));
                for (promote, idioms) in [
                    (false, None),
                    (false, Some(table)),
                    (true, Some(table)),
                    (true, None),
                ] {
                    let mut walked = unit.clone();
                    let stats = optimize(&mut walked, promote, idioms);
                    let mut stepped = unit.clone();
                    let expected = optimize_pass_by_pass(&mut stepped, promote, idioms);
                    assert_eq!(walked, stepped, "shape {shape}, seed {seed}, {promote}");
                    assert_eq!(stats, expected, "shape {shape}, seed {seed}, {promote}");
                    fired.jit.add(&stats.jit);
                    fired.idioms.merge(&stats.idioms);
                    promoted += stats.promoted.len();
                }
            }
        }
        // Every step had something to do, on both of `optimize`'s routes.
        let jit = fired.jit;
        assert!(jit.opt_pc_elided > 100 && jit.opt_forwarded_loads > 100);
        assert!(jit.opt_copies_folded > 100 && jit.opt_dead_stores > 100);
        assert!(fired.idioms.fused[crate::idiom::RuleKind::AddrFold.index()] > 100);
        assert!(jit.opt_promoted_slots > 10 && promoted > 0, "{jit:?}");
    }
}
