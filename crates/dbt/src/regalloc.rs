//! Register allocation over the low-level IR.
//!
//! As in the paper (Section 2.3.3): a dead-code pass marks instructions
//! whose results cannot be observed and, in the same walk, discovers the
//! live ranges of the surviving ones, and a linear scan assigns host
//! registers (splitting a range to a spill slot, or spilling the newcomer,
//! when the pool is exhausted).  The algorithm favours speed over
//! optimality — it is part of the JIT-latency budget measured in Fig. 20.
//!
//! Dead-code marking is *iterative*: backward liveness over virtual
//! registers and host flags, run to a **fixpoint** over the unit's control
//! flow.  Each backward pass records the live set and flag demand at every
//! `Label`; jumps (`Jmp`, `Jcc`, and the looping regions' `BackEdge`) merge
//! their target label's recorded state into their own live-out.  For the
//! forward-only units plain blocks and stitched traces produce, one pass
//! suffices (every jump reads a label state this same pass already
//! recorded, so a second pass could only recompute it); for *looping* units
//! (a region whose loop closed as an internal back-edge) the passes repeat
//! until the label states stop growing, so DCE
//! and flag-demand tracking fire inside loops exactly as they do in
//! straight-line code — a flag writer at the bottom of a loop body whose
//! only reader sits at the top of the next iteration is kept, and an unused
//! chain inside the body is swept whole.  When a consumer dies its producers
//! die with it, so the chains feeding regfile stores deleted by
//! [`crate::opt`] are removed too.  The states grow monotonically from
//! bottom (nothing live, no demand), so the iteration converges to the
//! least fixpoint — sound liveness for arbitrary intra-unit control flow.
//!
//! Loops also bend the *live ranges* the linear scan consumes: a virtual
//! register defined before a loop header and read inside the loop is live
//! across the back-edge on every iteration, so its range is extended to the
//! back-edge's position — otherwise the scan could hand its register to a
//! loop-local value whose linear range looks disjoint.
//!
//! # Register sharing: `end < start`, and the one exception
//!
//! A range's occurrences note uses and definitions at the same index, so a
//! def-after-use instruction keeps every operand live *through* that index,
//! and the scan only reuses a register for a range that starts strictly
//! after another ends (`end < start`, not `end <= start`): no two operands
//! of one instruction ever share a register, whatever order lowering
//! resolves them in.
//!
//! The one exception is the **copy hand-over**.  When the range being
//! assigned starts at a surviving pure copy — `MovReg { dst, src }`, or a
//! 128-bit `MovXmm`, the move the emitter puts before every two-address FP
//! or vector operation — `src`'s final (loop-extended) range ends at that
//! same index and `src` holds a host register, `dst` takes that register
//! over: the active entry stays and its end becomes `dst`'s.  The only thing
//! that then shares a register across an instruction is a pure copy and its
//! dead source, and `mov r, r` is a no-op whatever follows — [`crate::lower`]
//! emits nothing for it.  A still-live, spilled or loop-carried source, a
//! non-copy definition (`Lea`, `MovZx`, the two-address forms) and a 64-bit
//! `MovXmm` (it zeroes the upper lane, so it is not a copy) all keep the
//! `end < start` rule.  The paper's allocator trades optimality for
//! latency (Section 2.3.3); the two-address shuffles that leaves are paid on
//! every execution, and this O(1)-per-range step removes the ones that cost
//! nothing to remove.
//!
//! # Splitting at the conflict point
//!
//! When the GPR pool is empty at the start of a range `r` and no copy
//! hand-over applies, the scan looks at the active ranges it may split and
//! takes the one whose next occurrence is furthest away.  If that occurrence
//! comes after `r`'s own next one, the range is **split at `r.start`**: it
//! keeps its register before that index, [`crate::lower`] stores the
//! register to a fresh spill slot immediately before it and uses the slot
//! from there on ([`Split`], [`Allocation::location`]), and `r` takes the
//! register.  Otherwise `r` spills whole, as a newcomer always used to.  In
//! an unrolled loop region whose long-lived values hold the whole pool, that
//! used to send every temporary of the later copies through memory.
//!
//! A range may be split only where the store runs on every path into the
//! rest of it:
//!
//! * **never a loop-carried range** — one defined before a loop header and
//!   live at it.  Every promoted carrier is one, so carriers keep the
//!   register fault-time materialisation reads;
//! * **never at an index `k` a jump can bypass**: no jump from below `k` may
//!   land on a label in `[k, end]` (a backward jump into that span makes the
//!   range loop-carried);
//! * **GPR class only**: the 13-register vector pool does not run out on the
//!   workloads, and a vector newcomer still spills.
//!
//! The next-occurrence table (`SplitTables`) is built the first time a unit
//! runs out of registers and never for the others, so a unit whose
//! allocation needs no spill slot is allocated exactly as before, and a unit
//! that splits is allocated as before up to its first split index.
//!
//! **Why not evict whole ranges** (Poletto–Sarkar: spill the active range
//! that ends last, for all of its life)?  Eviction moves spill code
//! *earlier* in the unit, and a looping region that mostly leaves through a
//! side exit in its first copy pays for it on every entry.  `idiom.branch`
//! is one (under `sync`, 89 699 region entries against 1 018 back-edges):
//! its newcomer spills sat in copies that never run, and eviction puts them
//! into copy 1.  Measured with eviction of non-loop-carried ranges in place
//! of splitting: `idiom.branch` under `nopromote+noidiom+sync` went
//! 10 557 030 → 11 930 054 simulated cycles and under `sync` 10 230 962 →
//! 10 469 794, while `hot_loops` reached 241.8 M against splitting's 239.7 M
//! (256.8 M before either).  A split changes nothing before the conflict
//! that caused it: every figure kernel keeps its cycles.
//!
//! Promotion's trial allocations price carriers on the unsplit scan
//! (`Scan::Unsplit`; see [`crate::opt`]).
//!
//! # Two walks, one scratch
//!
//! [`allocate`] walks the unit twice.  **Forward** once
//! (`AllocScratch::scan`): both id bounds, where every label sits and
//! which jumps go backward — labels and jumps are never dead, so none of it
//! waits for liveness.  **Backward** once per fixpoint pass
//! (`AllocScratch::mark_dead`): the dead marks and, in the same visit of
//! each kept instruction, every vreg's first and last occurrence — reset at
//! the top of every pass, so what the table holds at the end was recorded
//! under the very decisions the marks record.  Everything after works on
//! live ranges, not instructions.  Every table involved lives in the crate's
//! per-thread scratch (`crate::with_scratch`: *capacity, never facts*),
//! resized and re-zeroed to the unit at hand.
//!
//! # Id-indexed bookkeeping
//!
//! Every per-operand lookup here is an index, not a hash: the emitter hands
//! out virtual-register and label ids densely from zero, so live sets are
//! bitsets over vreg ids, label states and positions are label-indexed
//! tables, and first/last occurrences and the final [`AssignmentMap`] are
//! vreg-indexed `Vec`s.  Density is an assumption about *cost* only, never
//! about correctness: the table sizes come from one scan of the unit itself
//! (`IdBounds`: largest id mentioned, plus one), not from the emitter's
//! counters, so hand-written units with sparse or large ids allocate
//! correctly and merely pay for the gap.

use crate::lir::{LirInsn, Vreg, VregClass, GPR_POOL};
use crate::refill;
use hvm::{Cond, Gpr, MemSize, Xmm};

/// Vector registers available to the allocator (the top three are reserved
/// as spill scratch — `FpFma` can need reloads for all three of its
/// operands).
pub const XMM_POOL: [u8; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// Where a virtual register ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// A general-purpose host register.
    Gpr(Gpr),
    /// A vector host register.
    Xmm(Xmm),
    /// A spill slot (index into the per-block spill area addressed off the
    /// register-file base pointer).
    Spill(u32),
}

/// Assignment per virtual register, indexed by vreg id (see the module
/// docs).  Registers touched only by dead instructions have no entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssignmentMap {
    slots: Vec<Option<Assignment>>,
}

impl AssignmentMap {
    /// Where vreg `id` ended up; `None` when the allocator never saw it in
    /// a surviving instruction.
    pub fn get(&self, id: u32) -> Option<Assignment> {
        self.slots.get(id as usize).copied().flatten()
    }

    /// Every assigned virtual register with its assignment, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Assignment)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, a)| a.map(|a| (id as u32, a)))
    }

    /// Forgets vreg `id`'s assignment (tests hand-break allocations to
    /// exercise the lowering error paths).
    #[cfg(test)]
    pub(crate) fn remove(&mut self, id: u32) -> Option<Assignment> {
        self.slots.get_mut(id as usize).and_then(Option::take)
    }

    /// Puts vreg `id` in `a` (tests build allocations by hand).
    #[cfg(test)]
    pub(crate) fn insert(&mut self, id: u32, a: Assignment) {
        if self.slots.len() <= id as usize {
            self.slots.resize(id as usize + 1, None);
        }
        self.slots[id as usize] = Some(a);
    }
}

impl std::ops::Index<u32> for AssignmentMap {
    type Output = Assignment;

    /// Panics when vreg `id` holds no assignment.
    fn index(&self, id: u32) -> &Assignment {
        self.slots
            .get(id as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("v{id} holds no assignment"))
    }
}

/// A GPR range the scan split at the conflict point (see the module docs):
/// `vreg` holds its assigned register before instruction `at`, lowering
/// stores that register to spill slot `slot` immediately before `at`, and
/// every occurrence from `at` on uses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Id of the split virtual register.
    pub vreg: u32,
    /// The instruction index from which it lives in `slot`.
    pub at: u32,
    /// Its spill slot.
    pub slot: u32,
}

/// The result of register allocation for one block.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Assignment per virtual register id (for a split vreg: where it is
    /// before its split index).
    pub assignment: AssignmentMap,
    /// `dead[i]` is true if LIR instruction `i` can be skipped by the encoder.
    pub dead: Vec<bool>,
    /// Number of spill slots used (GPR and XMM slots share the numbering;
    /// split slots included).
    pub spill_slots: u32,
    /// The ranges the scan split, in ascending `at` order (each vreg at most
    /// once).
    pub splits: Vec<Split>,
}

impl Allocation {
    /// Where vreg `id` lives at instruction `at`: its assignment, or — from
    /// its split index on — its split slot.
    pub fn location(&self, id: u32, at: u32) -> Option<Assignment> {
        match self.splits.iter().find(|s| s.vreg == id) {
            Some(s) if at >= s.at => Some(Assignment::Spill(s.slot)),
            _ => self.assignment.get(id),
        }
    }
}

/// What the linear scan does when the GPR pool is empty at a range's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// Split an active range at the conflict point when the module docs'
    /// rules allow it; spill the newcomer otherwise.
    Split,
    /// Always spill the newcomer: the scan promotion prices carriers on.
    Unsplit,
}

/// Live range of one virtual register (instruction indices, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    vreg: Vreg,
    start: u32,
    end: u32,
}

/// What `AllocScratch::gpr_holder` holds for a register no range has held
/// yet (never read: only registers in `active_gpr` are looked up).
impl Default for Range {
    fn default() -> Self {
        Range {
            vreg: Vreg {
                id: 0,
                class: VregClass::Gpr,
            },
            start: 0,
            end: 0,
        }
    }
}

/// The label a control-flow instruction targets.
fn jump_target(insn: &LirInsn) -> Option<u32> {
    match insn {
        LirInsn::Jmp { label } | LirInsn::Jcc { label, .. } | LirInsn::BackEdge { label, .. } => {
            Some(*label)
        }
        _ => None,
    }
}

/// Table sizes for one unit: one past the largest virtual-register id and
/// one past the largest label id it mentions (see the module docs).
struct IdBounds {
    vregs: usize,
    labels: usize,
}

/// `dst |= src`, word-wise; true when any word of `dst` changed.
fn union_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let merged = *d | *s;
        grew |= merged != *d;
        *d = merged;
    }
    grew
}

/// The liveness state recorded at every label, indexed by label id: a
/// bitset of the virtual registers live at the label (`words` words per
/// label, one flat table) plus whether the host flags are demanded there.
/// Grows monotonically across fixpoint passes; a label no pass has reached
/// reads as bottom (nothing live, no demand).
#[derive(Default)]
struct LabelStates {
    words: usize,
    live: Vec<u64>,
    flags: Vec<bool>,
    /// The fixpoint pass that last recorded each label (0 = never): a jump
    /// that reads a label the *current* pass has not recorded yet is a
    /// backward jump, the only thing that makes another pass necessary.
    recorded_in: Vec<u32>,
}

impl LabelStates {
    fn reset(&mut self, bounds: &IdBounds) {
        self.words = bounds.vregs.div_ceil(64);
        refill(&mut self.live, bounds.labels * self.words, 0);
        refill(&mut self.flags, bounds.labels, false);
        refill(&mut self.recorded_in, bounds.labels, 0);
    }

    fn live(&self, label: u32) -> &[u64] {
        let at = label as usize * self.words;
        &self.live[at..at + self.words]
    }

    /// Grow-only merge of (`live`, `flags`) into `label`'s state, stamped
    /// with `pass`; true when the state grew.
    fn record(&mut self, label: u32, live: &[u64], flags: bool, pass: u32) -> bool {
        let l = label as usize;
        self.recorded_in[l] = pass;
        let at = l * self.words;
        let mut grew = union_into(&mut self.live[at..at + self.words], live);
        if flags && !self.flags[l] {
            self.flags[l] = true;
            grew = true;
        }
        grew
    }
}

/// Every table [`allocate`] works in (see [`crate::with_scratch`]).
#[derive(Default)]
pub(crate) struct AllocScratch {
    labels: LabelStates,
    live: Vec<u64>,
    /// First and last surviving occurrence per vreg id.
    occurrences: Vec<Option<Range>>,
    /// Position per label id.
    label_pos: Vec<Option<u32>>,
    /// (header position, jump position) of every backward jump.
    back_jumps: Vec<(u32, u32)>,
    ranges: Vec<Range>,
    /// (end, register) of every range holding a register.
    active_gpr: Vec<(u32, Gpr)>,
    active_xmm: Vec<(u32, Xmm)>,
    /// The range each GPR holds while it is active, by register number (a
    /// copy hand-over puts the heir's range there): what a split needs.
    gpr_holder: [Range; 16],
    free_gpr: Vec<Gpr>,
    free_xmm: Vec<Xmm>,
    split: SplitTables,
}

/// What the scan needs to split a range (see the module docs), built the
/// first time a unit runs out of GPRs and kept for the rest of that unit.
#[derive(Default)]
struct SplitTables {
    built: bool,
    /// Kept occurrences of vreg `v`, ascending: `at[first[v]..first[v + 1]]`.
    first: Vec<u32>,
    at: Vec<u32>,
    /// (jump position, label position) of every forward jump.
    forward: Vec<(u32, u32)>,
}

impl SplitTables {
    fn build(&mut self, lir: &[LirInsn], dead: &[bool], vregs: usize, label_pos: &[Option<u32>]) {
        self.built = true;
        // Count each vreg's occurrences into its own cell, sum them up to
        // where its block ends, then fill backward: the cell ends at where
        // the block starts, and each block comes out ascending.
        refill(&mut self.first, vregs + 1, 0);
        for (_, insn) in lir.iter().enumerate().filter(|&(i, _)| !dead[i]) {
            insn.visit_uses(|u| self.first[u.id as usize] += 1);
            if let Some(d) = insn.def() {
                self.first[d.id as usize] += 1;
            }
        }
        let mut total = 0;
        for cell in &mut self.first {
            total += *cell;
            *cell = total;
        }
        refill(&mut self.at, total as usize, 0);
        for (i, insn) in lir.iter().enumerate().rev().filter(|&(i, _)| !dead[i]) {
            let mut place = |v: Vreg| {
                let cell = &mut self.first[v.id as usize];
                *cell -= 1;
                self.at[*cell as usize] = i as u32;
            };
            insn.visit_uses(&mut place);
            if let Some(d) = insn.def() {
                place(d);
            }
        }
        self.forward.clear();
        for (i, insn) in lir.iter().enumerate() {
            let target =
                jump_target(insn).and_then(|l| label_pos.get(l as usize).copied().flatten());
            if let Some(to) = target.filter(|&to| to > i as u32) {
                self.forward.push((i as u32, to));
            }
        }
    }

    /// The first kept occurrence of `vreg` at or after index `from`.
    fn next_occurrence(&self, vreg: Vreg, from: u32) -> Option<u32> {
        let v = vreg.id as usize;
        let block = &self.at[self.first[v] as usize..self.first[v + 1] as usize];
        block.get(block.partition_point(|&i| i < from)).copied()
    }

    /// The first label at or after `k` that a jump from below `k` lands on
    /// (`u32::MAX` when none does).
    fn first_landing(&self, k: u32) -> u32 {
        let landings = self
            .forward
            .iter()
            .filter(|&&(from, to)| from < k && to >= k);
        landings.map(|&(_, to)| to).min().unwrap_or(u32::MAX)
    }
}

impl AllocScratch {
    /// The forward walk: both id bounds, where every label sits and which
    /// jumps go backward (to a label already bound: each is bound once).
    /// Labels and jumps are never dead, so none of this waits for
    /// [`AllocScratch::mark_dead`].
    fn scan(&mut self, lir: &[LirInsn]) -> IdBounds {
        let mut vregs = 0u32;
        let mut labels = 0usize;
        self.label_pos.clear();
        self.back_jumps.clear();
        for (i, insn) in lir.iter().enumerate() {
            insn.visit_uses(|v| vregs = vregs.max(v.id + 1));
            if let Some(d) = insn.def() {
                vregs = vregs.max(d.id + 1);
            }
            if let LirInsn::Label { id } = insn {
                let id = *id as usize;
                if id >= self.label_pos.len() {
                    self.label_pos.resize(id + 1, None);
                }
                self.label_pos[id] = Some(i as u32);
            } else if let Some(label) = jump_target(insn) {
                labels = labels.max(label as usize + 1);
                if let Some(p) = self.label_pos.get(label as usize).copied().flatten() {
                    self.back_jumps.push((p, i as u32));
                }
            }
        }
        IdBounds {
            vregs: vregs as usize,
            labels: labels.max(self.label_pos.len()),
        }
    }

    /// Iterative dead-code marking: backward liveness over virtual registers
    /// and host flags, repeated to a fixpoint over the unit's labels (see
    /// the module docs for the rules).  Returns how many passes it took.
    ///
    /// The same walk notes every vreg's first and last occurrence in a
    /// *kept* instruction, uses and defs at the same index: a def-after-use
    /// instruction (the two-address forms) therefore keeps every operand
    /// live *through* that index, and the linear scan only reuses a register
    /// for a range starting strictly after another ends (`end < start`, not
    /// `end <= start`) — the copy hand-over is the one exception.
    fn mark_dead(&mut self, lir: &[LirInsn], bounds: &IdBounds, dead: &mut Vec<bool>) -> u32 {
        let AllocScratch {
            labels,
            live,
            occurrences,
            ..
        } = self;
        labels.reset(bounds);
        refill(live, labels.words, 0);
        refill(dead, lir.len(), false);
        let mut pass = 0u32;
        loop {
            pass += 1;
            let mut changed = false;
            let mut backward_jump = false;
            live.fill(0);
            refill(occurrences, bounds.vregs, None);
            // Whether some later kept instruction reads the host flags
            // before a kept writer overwrites them.
            let mut flags_demanded = false;
            for (i, insn) in lir.iter().enumerate().rev() {
                // Successor merge: control flow replaces or widens the
                // linear state.  Forward targets were recorded earlier in
                // this pass; backward targets (loop back-edges) carry the
                // previous pass's state, which is what the outer fixpoint
                // loop converges.
                match insn {
                    LirInsn::Jmp { label } => {
                        // The label is the sole successor.
                        backward_jump |= labels.recorded_in[*label as usize] != pass;
                        live.copy_from_slice(labels.live(*label));
                        flags_demanded = labels.flags[*label as usize];
                    }
                    LirInsn::BackEdge {
                        label, reconcile, ..
                    } => {
                        // The machine *falls through* a yielding back-edge
                        // when `reconcile` is set (into the compensation
                        // block the promotion pass placed right after it),
                        // so that path is a second successor and its state —
                        // the carriers the compensation stores read — must
                        // stay live.
                        backward_jump |= labels.recorded_in[*label as usize] != pass;
                        if *reconcile {
                            union_into(live, labels.live(*label));
                            flags_demanded |= labels.flags[*label as usize];
                        } else {
                            live.copy_from_slice(labels.live(*label));
                            flags_demanded = labels.flags[*label as usize];
                        }
                    }
                    LirInsn::Jcc { label, .. } => {
                        // Successors: the fallthrough (current state) and
                        // the label.
                        backward_jump |= labels.recorded_in[*label as usize] != pass;
                        union_into(live, labels.live(*label));
                        flags_demanded |= labels.flags[*label as usize];
                    }
                    LirInsn::Ret => {
                        // Nothing in this unit executes after a return to
                        // the dispatcher; host flags are not guest state.
                        live.fill(0);
                        flags_demanded = false;
                    }
                    _ => {}
                }
                let def = insn.def();
                let writes_flags = insn.writes_host_flags();
                let needed = match insn {
                    // Unconditional effects: memory, PC, control flow, calls
                    // and their argument setup, block structure.
                    LirInsn::Store { .. }
                    | LirInsn::StoreImm { .. }
                    | LirInsn::StoreXmm { .. }
                    | LirInsn::SetPcImm { .. }
                    | LirInsn::SetPcReg { .. }
                    | LirInsn::IncPc { .. }
                    | LirInsn::SetArg { .. }
                    | LirInsn::CallHelper { .. }
                    | LirInsn::TraceEdge
                    | LirInsn::BackEdge { .. }
                    | LirInsn::Ret
                    | LirInsn::Jmp { .. }
                    | LirInsn::Jcc { .. }
                    | LirInsn::Label { .. } => true,
                    // Everything else lives only through its destination
                    // (or, for flag writers, through an outstanding flag
                    // demand) — except that a guest-memory *load* can fault,
                    // and the data abort is guest-visible even when the
                    // loaded value is dead.
                    _ => {
                        def.is_some_and(|d| live[d.id as usize / 64] >> (d.id % 64) & 1 != 0)
                            || insn.may_fault()
                            || (writes_flags && flags_demanded)
                    }
                };
                if needed {
                    // The walk runs backward, so a later sighting is an
                    // earlier index; within one instruction the first
                    // operand visited keeps the entry.
                    let at = i as u32;
                    let mut occurs = |vreg: Vreg| {
                        let seen = Range {
                            vreg,
                            start: at,
                            end: at,
                        };
                        let r = occurrences[vreg.id as usize].get_or_insert(seen);
                        if r.start != at {
                            (r.start, r.vreg) = (at, vreg);
                        }
                    };
                    insn.visit_uses(|u| {
                        live[u.id as usize / 64] |= 1 << (u.id % 64);
                        occurs(u);
                    });
                    if let Some(d) = def {
                        occurs(d);
                    }
                    // Backward flag bookkeeping: a kept writer satisfies
                    // later demand; a kept reader creates demand for earlier
                    // writers.
                    if writes_flags {
                        flags_demanded = false;
                    }
                    if insn.reads_host_flags() {
                        flags_demanded = true;
                    }
                }
                dead[i] = !needed;
                if let LirInsn::Label { id } = insn {
                    // Record the live-in of the label (grow-only merge);
                    // growth means a backward jump somewhere may see a wider
                    // state and another pass is required.
                    changed |= labels.record(*id, live, flags_demanded, pass);
                }
            }
            if !(changed && backward_jump) {
                return pass;
            }
        }
    }
}

/// Conservative host-flag liveness for the idiom recognizer: `out[i]` is
/// `true` when some instruction that may execute after instruction `i`
/// reads the host flags (`SetCc`/`CmovCc`/`Jcc`) before any instruction
/// overwrites them.  The bookkeeping mirrors `AllocScratch::mark_dead`'s flag demand
/// exactly — `Jmp` replaces the linear state with its target label's,
/// `BackEdge` does too (unioning when `reconcile` falls through into a
/// compensation block), `Jcc` unions, `Ret` clears — but every instruction
/// is treated as *kept*, so the answer is sound against any subsequent
/// dead-code outcome: a fusion site where `out[jcc]` is `false` can
/// clobber the flags freely, no matter what the allocator later sweeps.
pub fn host_flags_live_after(lir: &[LirInsn]) -> Vec<bool> {
    let (mut out, mut labels) = (Vec::new(), Vec::new());
    host_flags_demand_into(lir, &mut out, &mut labels);
    // Collected in place: a demand byte becomes a `bool` in its own slot.
    out.into_iter().map(|d| d != 0).collect()
}

/// A flag reader of the zero or sign flag (see [`host_flags_demand_into`]).
pub(crate) const FLAGS_ZN: u8 = 1;
/// A flag reader of the carry or overflow flag.
pub(crate) const FLAGS_CV: u8 = 2;

/// Which host flags `cond` reads, as [`FLAGS_ZN`] / [`FLAGS_CV`] bits.
pub(crate) fn cond_reads(cond: Cond) -> u8 {
    match cond {
        Cond::Eq | Cond::Ne | Cond::Mi | Cond::Pl => FLAGS_ZN,
        Cond::Lt | Cond::Ge | Cond::Vs | Cond::Vc => FLAGS_CV,
        Cond::Le | Cond::Gt | Cond::SLt | Cond::SLe | Cond::SGe | Cond::SGt => FLAGS_ZN | FLAGS_CV,
    }
}

/// [`host_flags_live_after`] by flag class, in the caller's tables: `out[i]`
/// holds the [`cond_reads`] bits of every reader that may see the flags as
/// they are after instruction `i` — zero where nothing reads them before
/// they are overwritten.  `labels` is the per-label demand the fixpoint
/// grows (capacity only, like every scratch table).
pub(crate) fn host_flags_demand_into(lir: &[LirInsn], out: &mut Vec<u8>, labels: &mut Vec<u8>) {
    let bound = lir
        .iter()
        .filter_map(|i| match i {
            LirInsn::Label { id } => Some(*id),
            _ => jump_target(i),
        })
        .max()
        .map_or(0, |l| l as usize + 1);
    refill(labels, bound, 0);
    refill(out, lir.len(), 0);
    loop {
        let mut changed = false;
        let mut flags = 0u8;
        for (i, insn) in lir.iter().enumerate().rev() {
            match insn {
                LirInsn::Jmp { label } => flags = labels[*label as usize],
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    let s = labels[*label as usize];
                    if *reconcile {
                        flags |= s;
                    } else {
                        flags = s;
                    }
                }
                LirInsn::Jcc { label, .. } => flags |= labels[*label as usize],
                LirInsn::Ret => flags = 0,
                _ => {}
            }
            out[i] = flags;
            if insn.writes_host_flags() {
                flags = 0;
            }
            if let LirInsn::SetCc { cond, .. }
            | LirInsn::CmovCc { cond, .. }
            | LirInsn::Jcc { cond, .. } = insn
            {
                flags |= cond_reads(*cond);
            }
            if let LirInsn::Label { id } = insn {
                let e = &mut labels[*id as usize];
                if flags & !*e != 0 {
                    *e |= flags;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// [`host_flags_live_after`]`(lir)[at]`, from `lir[at..]` alone when every
/// jump in that tail goes forward to a label inside it (each label being
/// bound once): what follows a point then decides the demand there, and the
/// tail — a block's closing branch and its side-exit stubs, where branch
/// fusion asks — is a few instructions, not the unit.
pub(crate) fn host_flags_live_after_at(lir: &[LirInsn], at: usize) -> Option<bool> {
    let tail = &lir[at..];
    if tail.len() > 32 {
        return None; // no shorter than the unit's own fixpoint, computed once
    }
    let bound_after = |i: usize, label| {
        let binds = |insn: &LirInsn| matches!(insn, LirInsn::Label { id } if *id == label);
        tail[i + 1..].iter().any(binds)
    };
    let closed = (0..tail.len()).all(|i| jump_target(&tail[i]).is_none_or(|l| bound_after(i, l)));
    closed.then(|| host_flags_live_after(tail)[0])
}

/// The copy hand-over (see the module docs): when range `r` starts at a
/// surviving pure copy into `r.vreg` — a `MovReg`, or a `U128` `MovXmm` —
/// that is also the last index of its source's final range, and the source
/// holds a host register of `r`'s class (`held` picks it out of the
/// source's assignment), `r.vreg` inherits it: the active entry stays and
/// its end becomes `r`'s.  Returns the inherited register.
fn inherit_copy_source<R: Copy + PartialEq>(
    lir: &[LirInsn],
    r: &Range,
    assignment: &AssignmentMap,
    active: &mut [(u32, R)],
    held: impl Fn(Assignment) -> Option<R>,
) -> Option<R> {
    let src = match lir[r.start as usize] {
        LirInsn::MovReg { dst, src }
        | LirInsn::MovXmm {
            dst,
            src,
            size: MemSize::U128,
        } if dst == r.vreg => src,
        _ => return None,
    };
    // `src` occurs at `r.start`, so if it holds a register its own entry is
    // still active and nothing else can hold that register.  (A split `src`
    // still names its register, but gave it to a range that does not occur
    // at `r.start` — only `src` and `r` do — so no entry ends there.)
    let reg = held(assignment.get(src.id)?)?;
    let entry = active
        .iter_mut()
        .find(|(end, h)| *h == reg && *end == r.start)?;
    entry.0 = r.end;
    Some(reg)
}

/// Returns to `free` the registers of the `active` ranges that ended
/// strictly before `start` (a range ending *at* `start` may be a
/// same-instruction operand of a def-after-use form and must keep its
/// register).
fn expire<R: Copy>(active: &mut Vec<(u32, R)>, free: &mut Vec<R>, start: u32) {
    if active.iter().any(|&(end, _)| end < start) {
        active.retain(|&(end, reg)| {
            if end < start {
                free.push(reg);
            }
            end >= start
        });
    }
}

/// The active entry whose range to split at `r.start` so that `r` can take
/// its register (see the module docs), or `None` when `r` should spill.
/// Among the entries the rules allow, the one whose next occurrence is
/// furthest away (the first of equals), provided it comes after `r`'s own
/// next occurrence.
fn split_victim(
    tables: &SplitTables,
    back_jumps: &[(u32, u32)],
    active: &[(u32, Gpr)],
    gpr_holder: &[Range; 16],
    r: &Range,
) -> Option<usize> {
    let landing = tables.first_landing(r.start);
    let loop_carried = |c: &Range| back_jumps.iter().any(|&(p, _)| c.start < p && p <= c.end);
    let mut victim: Option<(usize, u32)> = None;
    for (at, &(_, reg)) in active.iter().enumerate() {
        let c = &gpr_holder[reg as usize];
        if landing <= c.end || loop_carried(c) {
            continue;
        }
        let Some(next) = tables.next_occurrence(c.vreg, r.start) else {
            continue;
        };
        if victim.is_none_or(|(_, furthest)| next > furthest) {
            victim = Some((at, next));
        }
    }
    let own = tables
        .next_occurrence(r.vreg, r.start + 1)
        .unwrap_or(u32::MAX);
    victim.filter(|&(_, next)| next > own).map(|(at, _)| at)
}

/// Runs liveness analysis, dead-code marking and linear-scan assignment,
/// splitting ranges at the conflict point (see the module docs).
///
/// Two walks over the unit: `AllocScratch::scan` forward (id bounds, label
/// positions, backward jumps) and `AllocScratch::mark_dead` backward (dead
/// marks and every vreg's first and last surviving occurrence, once per
/// fixpoint pass); what follows works on live ranges, not instructions.
pub fn allocate(lir: &[LirInsn]) -> Allocation {
    let mut allocation = Allocation::default();
    crate::with_scratch(|s| allocate_into(&mut s.regalloc, lir, &mut allocation, Scan::Split));
    allocation
}

/// [`allocate`] with the [`Scan::Unsplit`] scan, on a fresh scratch.
#[cfg(test)]
pub(crate) fn allocate_unsplit(lir: &[LirInsn]) -> Allocation {
    let mut allocation = Allocation::default();
    allocate_into(
        &mut AllocScratch::default(),
        lir,
        &mut allocation,
        Scan::Unsplit,
    );
    allocation
}

/// The dead marks [`allocate_into`] leaves in its allocation, without the
/// linear scan.
pub(crate) fn mark_dead_into(s: &mut AllocScratch, lir: &[LirInsn], dead: &mut Vec<bool>) {
    let bounds = s.scan(lir);
    s.mark_dead(lir, &bounds, dead);
}

/// [`allocate`] in the caller's scratch, with the caller's [`Scan`],
/// overwriting `out` (whose vectors keep their capacity).
pub(crate) fn allocate_into(
    s: &mut AllocScratch,
    lir: &[LirInsn],
    out: &mut Allocation,
    scan: Scan,
) {
    let bounds = s.scan(lir);
    s.mark_dead(lir, &bounds, &mut out.dead);

    // Loop-carried ranges: a vreg defined before a backward jump's target
    // label and still read at or after it is re-read on *every* iteration,
    // so its range must cover the whole loop — otherwise the linear scan
    // could hand its register to a loop-local value whose (linear) range
    // looks disjoint, clobbering the loop-carried value between iterations.
    // Extension can cascade through nested loops; iterate until stable.
    let mut extended = !s.back_jumps.is_empty();
    while extended {
        extended = false;
        for &(p, j) in &s.back_jumps {
            for r in s.occurrences.iter_mut().flatten() {
                if r.start < p && r.end >= p && r.end < j {
                    r.end = j;
                    extended = true;
                }
            }
        }
    }

    // Build live ranges (vregs touched only by dead instructions have no
    // occurrences and get no range).
    s.ranges.clear();
    s.ranges.extend(s.occurrences.iter().flatten());
    s.ranges.sort_unstable_by_key(|r| (r.start, r.vreg.id));

    // Linear scan, one pool per register class.
    let assignment = &mut out.assignment;
    refill(&mut assignment.slots, bounds.vregs, None);
    out.splits.clear();
    s.split.built = false;
    s.active_gpr.clear();
    s.active_xmm.clear();
    s.free_gpr.clear();
    s.free_gpr.extend(GPR_POOL);
    s.free_xmm.clear();
    s.free_xmm.extend(XMM_POOL.iter().rev().map(|&i| Xmm(i)));
    let mut spill_slots = 0u32;

    for r in &s.ranges {
        expire(&mut s.active_gpr, &mut s.free_gpr, r.start);
        expire(&mut s.active_xmm, &mut s.free_xmm, r.start);
        let assigned = match r.vreg.class {
            VregClass::Gpr => {
                let gpr = |a| match a {
                    Assignment::Gpr(g) => Some(g),
                    _ => None,
                };
                inherit_copy_source(lir, r, assignment, &mut s.active_gpr, gpr)
                    .inspect(|&reg| s.gpr_holder[reg as usize] = *r)
                    .or_else(|| {
                        let reg = s.free_gpr.pop()?;
                        s.active_gpr.push((r.end, reg));
                        s.gpr_holder[reg as usize] = *r;
                        Some(reg)
                    })
                    .or_else(|| {
                        if scan == Scan::Unsplit {
                            return None;
                        }
                        if !s.split.built {
                            s.split.build(lir, &out.dead, bounds.vregs, &s.label_pos);
                        }
                        let holders = &mut s.gpr_holder;
                        let at = split_victim(&s.split, &s.back_jumps, &s.active_gpr, holders, r)?;
                        let reg = s.active_gpr[at].1;
                        let victim = std::mem::replace(&mut holders[reg as usize], *r);
                        s.active_gpr[at].0 = r.end;
                        out.splits.push(Split {
                            vreg: victim.vreg.id,
                            at: r.start,
                            slot: spill_slots,
                        });
                        spill_slots += 1;
                        Some(reg)
                    })
                    .map(Assignment::Gpr)
            }
            VregClass::Xmm => {
                let xmm = |a| match a {
                    Assignment::Xmm(x) => Some(x),
                    _ => None,
                };
                inherit_copy_source(lir, r, assignment, &mut s.active_xmm, xmm)
                    .or_else(|| {
                        let reg = s.free_xmm.pop()?;
                        s.active_xmm.push((r.end, reg));
                        Some(reg)
                    })
                    .map(Assignment::Xmm)
            }
        };
        assignment.slots[r.vreg.id as usize] = Some(assigned.unwrap_or_else(|| {
            let slot = spill_slots;
            spill_slots += 1;
            Assignment::Spill(slot)
        }));
    }

    out.spill_slots = spill_slots;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LirMem, LirOperand};
    use crate::units::unit;
    use hvm::{AluOp, Cond, MemSize};
    use proptest::prelude::*;

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    #[test]
    fn faulting_loads_survive_dce_with_dead_destinations() {
        // The exact shape `dbt::opt` produces after dead-store elimination:
        // a guest-memory load whose destination is never read (the regfile
        // store of it died under a covering store).  The load can still
        // fault — deleting it would elide a guest-visible data abort.
        let lir = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::vreg(v(1), 0), // computed address: can fault
                size: MemSize::U64,
            },
            LirInsn::StoreImm {
                imm: 5,
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(
            !alloc.dead[0],
            "a guest-memory load with a dead destination must survive"
        );
        // A fixed regfile load with a dead destination is still removable.
        let lir2 = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(16),
                size: MemSize::U64,
            },
            LirInsn::StoreImm {
                imm: 5,
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc2 = allocate(&lir2);
        assert!(alloc2.dead[0], "regfile loads cannot fault and may die");
    }

    #[test]
    fn simple_block_gets_registers_without_spills() {
        let lir = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Load {
                dst: v(1),
                addr: LirMem::regfile(0x108),
                size: MemSize::U64,
            },
            LirInsn::MovReg {
                dst: v(2),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(2),
                src: LirOperand::Vreg(v(1)),
            },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0);
        for id in 0..3 {
            assert!(matches!(alloc.assignment[id], Assignment::Gpr(_)));
        }
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn unused_pure_results_are_marked_dead() {
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovImm { dst: v(1), imm: 2 },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead[0], "v0 is never used, the MovImm is dead");
        assert!(!alloc.dead[1]);
        assert!(!alloc.dead[2]);
    }

    #[test]
    fn iterative_dce_sweeps_whole_value_chains() {
        // v0 feeds v1 feeds nothing: the chain dies from consumer to
        // producer, including the flag-writing ALU op (no reader demands the
        // flags before the return).
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(1),
                src: LirOperand::Imm(3),
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(alloc.dead, vec![true, true, true, false]);
        assert_eq!(
            alloc.assignment.iter().count(),
            0,
            "dead chains claim no registers"
        );
    }

    #[test]
    fn nzcv_chain_dies_when_its_store_was_eliminated() {
        // The shape set_nzcv_logic leaves behind once dbt::opt has deleted
        // the covered store: compare + setcc + shift/or chain with no
        // consumer.  Everything must be swept.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(1),
            },
            LirInsn::MovReg {
                dst: v(2),
                src: v(1),
            },
            LirInsn::Alu {
                op: AluOp::Shl,
                dst: v(2),
                src: LirOperand::Imm(2),
            },
            LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(!alloc.dead[0], "v0 still feeds the store");
        assert!(alloc.dead[1], "unread Cmp dies");
        assert!(alloc.dead[2], "SetCc with a dead destination dies");
        assert!(alloc.dead[3] && alloc.dead[4], "the shift chain dies");
        assert!(!alloc.dead[5] && !alloc.dead[6]);
    }

    #[test]
    fn demanded_flags_keep_their_writer_alive() {
        // The Cmp's destination-free flags are read by a Jcc: it must stay,
        // and so must its operand chain.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 0,
            },
            LirInsn::SetPcImm { imm: 0x1000 },
            LirInsn::Label { id: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn flag_demand_is_conservative_at_labels() {
        // A flag writer just before a label join: a reader could be reached
        // through the join, so the writer must survive even with no linear
        // reader between.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Label { id: 0 },
            LirInsn::SetCc {
                cond: Cond::Ne,
                dst: v(1),
            },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn backward_jumps_get_fixpoint_dce() {
        // A looping unit (backward Jmp) no longer falls back to one-shot
        // marking: the whole dead chain is swept, including the chain head
        // whose only "use" sits in another dead instruction (one-shot
        // marking counted that use and kept it).
        let lir = vec![
            LirInsn::Label { id: 0 },
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::MovImm { dst: v(2), imm: 2 },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Jmp { label: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(
            alloc.dead,
            vec![false, true, true, false, false, false, false],
            "DCE fires inside looping units and sweeps whole chains"
        );
        assert!(alloc.assignment.get(0).is_none());
        assert!(alloc.assignment.get(1).is_none());
    }

    #[test]
    fn flag_demand_crosses_the_back_edge() {
        // A flag writer at the bottom of a loop body whose only reader sits
        // at the *top* of the next iteration: the demand flows through the
        // BackEdge to the loop-header label, so the Cmp must survive.
        let lir = vec![
            LirInsn::Label { id: 0 },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(1),
            },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::MovImm { dst: v(0), imm: 3 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(
            alloc.dead.iter().all(|d| !d),
            "the cross-iteration flag chain must stay alive: {:?}",
            alloc.dead
        );

        // Same loop, but nothing ever reads the flags: the Cmp (and its
        // operand chain) dies even in a looping unit.
        let lir2 = vec![
            LirInsn::Label { id: 0 },
            LirInsn::MovImm { dst: v(2), imm: 7 },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::MovImm { dst: v(0), imm: 3 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
            },
            LirInsn::Ret,
        ];
        let alloc2 = allocate(&lir2);
        assert!(alloc2.dead[4], "an unread Cmp dies inside a loop");
        assert!(alloc2.dead[3], "its operand chain dies with it");
    }

    #[test]
    fn loop_carried_ranges_extend_across_the_back_edge() {
        // v0 is defined before the loop and read inside it on every
        // iteration; the loop-local v1 is defined and stored after v0's last
        // (linear) use.  Without range extension the scan would let v1 steal
        // v0's register and clobber it between iterations.
        let n = GPR_POOL.len() as u32;
        let mut lir = Vec::new();
        lir.push(LirInsn::MovImm { dst: v(0), imm: 7 });
        lir.push(LirInsn::Label { id: 0 });
        lir.push(LirInsn::Store {
            src: v(0),
            addr: LirMem::regfile(0),
            size: MemSize::U64,
        });
        // Saturate the pool inside the loop so reuse pressure is real.
        for i in 1..=n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::BackEdge {
            pc: 0x1000,
            label: 0,
            reconcile: false,
        });
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        let a0 = alloc.assignment[0];
        for i in 1..=n {
            assert_ne!(
                alloc.assignment[i], a0,
                "loop-local v{i} must not reuse the loop-carried register"
            );
        }
    }

    /// `n` pool-saturating `MovImm`s, `def` (which defines `v(n)` from
    /// `v(0)` at `v(0)`'s last index), then stores keeping `v(1)..=v(n)`
    /// live to the end.
    fn saturated_pool_then(def: LirInsn) -> Vec<LirInsn> {
        let n = GPR_POOL.len() as u32;
        let mut lir: Vec<LirInsn> = (0..n)
            .map(|i| LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            })
            .collect();
        lir.push(def);
        lir.extend((1..=n).map(|i| LirInsn::Store {
            src: v(i),
            addr: LirMem::regfile((i * 8) as i32),
            size: MemSize::U64,
        }));
        lir.push(LirInsn::Ret);
        lir
    }

    #[test]
    fn def_after_use_at_range_boundaries_never_shares_registers() {
        // Audit for the first/last-occurrence maps: saturate the GPR pool,
        // then define a new vreg from a source whose live range ends at that
        // same index.  Treating the source's range as open at its end
        // (`end <= start` expiry) would hand the destination the source's
        // register, and lowering resolves operands independently — a spilled
        // reload, an address computation, a two-address form reading another
        // operand after the destination was written would see a clobbered
        // value.  Re-anchored from a `MovReg` (which PR 19's copy hand-over
        // now *does* coalesce, see the next test — the old reasoning about
        // following two-address forms does not apply to a pure copy of a
        // dead source) onto the non-copy defs the rule still has to protect:
        // the allocator keeps them apart (here: the newcomer spills, since
        // the pool is full).
        let n = GPR_POOL.len() as u32;
        for def in [
            LirInsn::Lea {
                dst: v(n),
                addr: LirMem::vreg(v(0), 8),
            },
            LirInsn::MovZx {
                dst: v(n),
                src: v(0),
                size: MemSize::U32,
            },
        ] {
            let alloc = allocate(&saturated_pool_then(def));
            assert_ne!(
                alloc.assignment[n], alloc.assignment[0],
                "{def:?} at its source's last index must not steal the register"
            );
            assert!(matches!(alloc.assignment[n], Assignment::Spill(_)));
        }
    }

    #[test]
    fn a_copy_of_a_dying_source_takes_over_its_register() {
        // The one exception to `end < start`: `v(n) = mov v(0)` at v(0)'s
        // last index.  `mov r, r` is a no-op whatever follows, so the copy
        // inherits the register — with the pool saturated it no longer
        // spills — and lowering emits nothing for it.
        let n = GPR_POOL.len() as u32;
        let lir = saturated_pool_then(LirInsn::MovReg {
            dst: v(n),
            src: v(0),
        });
        let alloc = allocate(&lir);
        assert!(matches!(alloc.assignment[0], Assignment::Gpr(_)));
        assert_eq!(alloc.assignment[n], alloc.assignment[0]);
        assert_eq!(alloc.spill_slots, 0);
        // The inherited register stays taken for the heir's whole range: no
        // other value may share it.
        for i in 1..n {
            assert_ne!(alloc.assignment[i], alloc.assignment[n], "v{i}");
        }
        let code = crate::lower::lower(&lir, &alloc).expect("assignments are complete");
        assert!(
            !code
                .iter()
                .any(|i| matches!(i, hvm::MachInsn::MovReg { .. })),
            "the coalesced copy must not be executed"
        );
    }

    #[test]
    fn copies_that_must_not_share_keep_their_own_registers() {
        let copy = |dst, src| LirInsn::MovReg {
            dst: v(dst),
            src: v(src),
        };
        let keep = |src: u32| LirInsn::Store {
            src: v(src),
            addr: LirMem::regfile((src * 8) as i32),
            size: MemSize::U64,
        };
        // A still-live source: v0 is read again after the copy.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            copy(1, 0),
            keep(0),
            keep(1),
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_ne!(alloc.assignment[1], alloc.assignment[0], "live source");

        // A spilled source has no register to hand over: the pool is full
        // when v(n) is defined and every pool value is read again before
        // v(n)'s next use (no range is worth splitting for it), so it
        // spills; its copy waits for a register of its own (v0's, freed by
        // then) and the move stays.
        let n = GPR_POOL.len() as u32;
        let mut lir: Vec<LirInsn> = (0..=n)
            .map(|i| LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            })
            .collect();
        lir.extend((0..n).map(keep));
        lir.push(copy(n + 1, n));
        lir.extend((1..n).map(keep));
        lir.push(keep(n + 1));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(matches!(alloc.assignment[n], Assignment::Spill(_)));
        assert_eq!(alloc.assignment[n + 1], alloc.assignment[0]);
        let code = crate::lower::lower(&lir, &alloc).expect("assignments are complete");
        assert!(
            code.iter()
                .any(|i| matches!(i, hvm::MachInsn::MovReg { .. })),
            "a reload into a scratch register still has to be moved"
        );

        // A source whose range a back-edge extended: v0 is defined before
        // the loop and copied inside it, so the next iteration reads it
        // again — its register must survive the copy.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Label { id: 0 },
            copy(1, 0),
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(1),
                src: LirOperand::Imm(1),
            },
            keep(1),
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_ne!(alloc.assignment[1], alloc.assignment[0], "loop-carried");
    }

    #[test]
    fn a_u128_copy_of_a_dying_source_hands_its_register_over_a_u64_copy_does_not() {
        // The vector pool saturated, then `x(n) = movxmm x(0)` at x(0)'s
        // last index: a 128-bit copy is pure, inherits x(0)'s register and
        // lowers to nothing; a 64-bit one zeroes the upper lane, so it is an
        // operation, gets a register of its own (here: none left, a spill)
        // and runs.
        let xv = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let n = XMM_POOL.len() as u32;
        let unit = |size| {
            let mut lir: Vec<LirInsn> = (0..n)
                .map(|i| LirInsn::LoadXmm {
                    dst: xv(i),
                    addr: LirMem::regfile(i as i32 * 16),
                    size: MemSize::U128,
                })
                .collect();
            lir.push(LirInsn::MovXmm {
                dst: xv(n),
                src: xv(0),
                size,
            });
            lir.extend((1..=n).map(|i| LirInsn::StoreXmm {
                src: xv(i),
                addr: LirMem::regfile(i as i32 * 16),
                size: MemSize::U128,
            }));
            lir.push(LirInsn::Ret);
            lir
        };
        let lir = unit(MemSize::U128);
        let alloc = allocate(&lir);
        assert!(matches!(alloc.assignment[0], Assignment::Xmm(_)));
        assert_eq!(alloc.assignment[n], alloc.assignment[0]);
        assert_eq!(alloc.spill_slots, 0);
        for i in 1..n {
            assert_ne!(alloc.assignment[i], alloc.assignment[n], "x{i}");
        }
        let code = crate::lower::lower(&lir, &alloc).expect("assignments are complete");
        assert!(
            !code
                .iter()
                .any(|i| matches!(i, hvm::MachInsn::MovXmm { .. })),
            "the coalesced vector copy must not be executed"
        );

        let lir = unit(MemSize::U64);
        let alloc = allocate(&lir);
        assert_ne!(alloc.assignment[n], alloc.assignment[0], "U64 copy");
        assert!(matches!(alloc.assignment[n], Assignment::Spill(_)));
        let code = crate::lower::lower(&lir, &alloc).expect("assignments are complete");
        assert!(code.iter().any(|i| matches!(
            i,
            hvm::MachInsn::MovXmm {
                size: MemSize::U64,
                ..
            }
        )));
    }

    /// `Store v(i)` to its own register-file slot.
    fn keep(i: u32) -> LirInsn {
        LirInsn::Store {
            src: v(i),
            addr: LirMem::regfile((i * 8) as i32),
            size: MemSize::U64,
        }
    }

    /// `MovImm v(i), i`.
    fn def(i: u32) -> LirInsn {
        LirInsn::MovImm {
            dst: v(i),
            imm: i as u64,
        }
    }

    #[test]
    fn a_full_pool_splits_the_range_used_furthest_away() {
        // v0..v7 fill the pool; v8 starts at #8 and is read at #9.  The
        // active ranges are next read at #10.. in the order v2, v0, v1, v3,
        // v4, v5, v6 (v7 twice as late): v7 is split at #8 and v8 takes its
        // register.  A newcomer read after every active range spills whole.
        let n = GPR_POOL.len() as u32;
        let mut lir: Vec<LirInsn> = (0..=n).map(def).collect();
        lir.push(keep(n));
        lir.extend([2, 0, 1, 3, 4, 5, 6].map(keep));
        lir.push(keep(n - 1));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(
            alloc.splits,
            [Split {
                vreg: n - 1,
                at: n,
                slot: 0
            }]
        );
        assert_eq!(alloc.assignment[n], alloc.assignment[n - 1]);
        assert_eq!(alloc.location(n - 1, n - 1), Some(alloc.assignment[n - 1]));
        assert_eq!(alloc.location(n - 1, n), Some(Assignment::Spill(0)));
        assert_eq!(alloc.spill_slots, 1);
        // The unsplit scan, promotion's price, spills the newcomer.
        let unsplit = allocate_unsplit(&lir);
        assert!(unsplit.splits.is_empty());
        assert_eq!(unsplit.assignment[n], Assignment::Spill(0));

        // v8 read last: nothing is worth moving out of a register for it.
        let mut lir: Vec<LirInsn> = (0..=n).map(def).collect();
        lir.extend((0..=n).map(keep));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(alloc.splits.is_empty());
        assert_eq!(alloc.assignment[n], Assignment::Spill(0));
    }

    #[test]
    fn a_loop_carried_range_is_never_split() {
        // v0 is defined before the loop header and read at the bottom of
        // the body, so it is live across the back-edge: splitting it inside
        // the loop would leave its register to v8 on every later trip.  Its
        // next read is the furthest of the full pool's, so the scan passes
        // it over for v7, the furthest of the rest.
        let n = GPR_POOL.len() as u32;
        let back_edge = LirInsn::BackEdge {
            pc: 0x1000,
            label: 0,
            reconcile: false,
        };
        let mut lir = vec![def(0), LirInsn::Label { id: 0 }];
        lir.extend((1..=n).map(def));
        lir.push(keep(n));
        lir.extend((1..n).map(keep));
        lir.push(keep(0));
        lir.extend([back_edge, LirInsn::Ret]);
        let alloc = allocate(&lir);
        let at = n + 1; // v8's definition, one past the label
        assert_eq!(
            alloc.splits,
            [Split {
                vreg: n - 1,
                at,
                slot: 0
            }]
        );
        assert!(matches!(alloc.assignment[0], Assignment::Gpr(_)));
        // With every in-loop value read before v8 is, v0 is the only range
        // worth splitting — and v8 spills instead.
        let mut lir = vec![def(0), LirInsn::Label { id: 0 }];
        lir.extend((1..=n).map(def));
        lir.extend((1..n).map(keep));
        lir.push(keep(n));
        lir.push(keep(0));
        lir.extend([back_edge, LirInsn::Ret]);
        let alloc = allocate(&lir);
        assert!(alloc.splits.is_empty(), "{:?}", alloc.splits);
        assert_eq!(alloc.assignment[n], Assignment::Spill(0));
    }

    #[test]
    fn a_range_a_jump_enters_past_the_split_index_is_never_split() {
        // A conditional jump from #9 lands on label 0 at #13, past v8's
        // definition at #10: a split there would skip its store on the
        // jump's path.  v7 is read furthest away but after the label, so it
        // stays; v6, whose range ends before the label, is split instead.
        let n = GPR_POOL.len() as u32;
        let mut lir: Vec<LirInsn> = (0..n).map(def).collect();
        lir.push(LirInsn::Test {
            a: v(0),
            b: LirOperand::Vreg(v(0)),
        });
        lir.push(LirInsn::Jcc {
            cond: Cond::Eq,
            label: 0,
        });
        lir.extend([def(n), keep(n), keep(n - 2), LirInsn::Label { id: 0 }]);
        lir.extend((0..n - 2).chain([n - 1]).map(keep));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(
            alloc.splits,
            [Split {
                vreg: n - 2,
                at: n + 2,
                slot: 0
            }]
        );
        // Without v6's early end every active range reaches past the label,
        // and v8 spills.
        lir.remove(n as usize + 4);
        lir.insert(lir.len() - 1, keep(n - 2));
        let alloc = allocate(&lir);
        assert!(alloc.splits.is_empty(), "{:?}", alloc.splits);
        assert_eq!(alloc.assignment[n], Assignment::Spill(0));
    }

    #[test]
    fn a_full_vector_pool_still_spills_the_newcomer() {
        // Splitting is for the GPR class only: the 14th of fourteen live
        // vector values spills whole, even though it is read first.
        let xv = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let n = XMM_POOL.len() as u32;
        let load = |i: u32| LirInsn::LoadXmm {
            dst: xv(i),
            addr: LirMem::regfile((i * 8) as i32),
            size: MemSize::U64,
        };
        let store = |i: u32| LirInsn::StoreXmm {
            src: xv(i),
            addr: LirMem::regfile((i * 8 + 0x100) as i32),
            size: MemSize::U64,
        };
        let mut lir: Vec<LirInsn> = (0..=n).map(load).collect();
        lir.extend((0..=n).rev().map(store));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(alloc.splits.is_empty());
        assert_eq!(alloc.assignment[n], Assignment::Spill(0));
    }

    #[test]
    fn register_reuse_after_range_ends() {
        // Many short-lived vregs must fit in the pool by reuse.
        let mut lir = Vec::new();
        for i in 0..50u32 {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0, "short ranges should all fit");
    }

    #[test]
    fn long_overlapping_ranges_spill() {
        // More simultaneously-live vregs than the pool size forces spills.
        let n = GPR_POOL.len() as u32 + 4;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(alloc.spill_slots >= 4);
        let spilled = alloc
            .assignment
            .iter()
            .filter(|(_, a)| matches!(a, Assignment::Spill(_)))
            .count();
        assert_eq!(spilled as u32, alloc.spill_slots);
    }

    #[test]
    fn dead_chains_free_registers_for_live_ranges() {
        // Pool-sized dead chain plus a pool-sized live set: with iterative
        // DCE the dead vregs claim no registers, so nothing spills.
        let n = GPR_POOL.len() as u32;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(n + i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::Store {
                src: v(n + i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0, "dead ranges must not cause spills");
        for i in 0..n {
            assert!(alloc.dead[i as usize]);
            assert!(alloc.assignment.get(i).is_none());
        }
    }

    #[test]
    fn xmm_class_uses_vector_registers() {
        let xv = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let lir = vec![
            LirInsn::LoadXmm {
                dst: xv(0),
                addr: LirMem::regfile(0x110),
                size: MemSize::U64,
            },
            LirInsn::StoreXmm {
                src: xv(0),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(matches!(alloc.assignment[0], Assignment::Xmm(_)));
    }

    /// What `AllocScratch::mark_dead` leaves in the occurrence table for
    /// `lir`, next to a forward recount over the dead marks it returned
    /// (the walk the two used to be), and how many fixpoint passes it took.
    fn occurrences_and_recount(lir: &[LirInsn]) -> (Vec<Option<Range>>, Vec<Option<Range>>, u32) {
        let mut s = AllocScratch::default();
        let bounds = s.scan(lir);
        let mut dead = Vec::new();
        let passes = s.mark_dead(lir, &bounds, &mut dead);
        let mut recount: Vec<Option<Range>> = vec![None; bounds.vregs];
        let mut operands = Vec::new();
        for (i, insn) in lir.iter().enumerate().filter(|(i, _)| !dead[*i]) {
            operands.clear();
            insn.uses(&mut operands);
            operands.extend(insn.def());
            for v in &operands {
                match &mut recount[v.id as usize] {
                    Some(r) => r.end = i as u32,
                    first @ None => {
                        *first = Some(Range {
                            vreg: *v,
                            start: i as u32,
                            end: i as u32,
                        })
                    }
                }
            }
        }
        (s.occurrences, recount, passes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn occurrences_recorded_in_the_liveness_walk_equal_a_forward_recount(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            nv in 3u64..48,
            len in 1u64..120,
        ) {
            let lir = unit(seed, shape, nv, len);
            let (recorded, recount, _) = occurrences_and_recount(&lir);
            prop_assert_eq!(recorded, recount, "shape {}: {:?}", shape, lir);
        }
    }

    #[test]
    fn looping_units_reset_the_occurrences_between_fixpoint_passes() {
        // The recount property only bites on the reset if some unit takes a
        // second pass *and* kills in it something the first pass kept (or
        // keeps what the first killed): make sure the generator gets there.
        let (mut repeated, mut straight) = (0, 0);
        for seed in 1..200u64 {
            for shape in 0..6 {
                let lir = unit(seed * 0x9E37_79B9, shape, 3 + seed % 45, 20 + seed % 100);
                let (recorded, recount, passes) = occurrences_and_recount(&lir);
                assert_eq!(recorded, recount, "shape {shape}");
                if passes > 1 {
                    assert!(shape >= 2, "only a backward jump asks for another pass");
                    repeated += 1;
                } else {
                    straight += 1;
                }
            }
        }
        assert!(repeated > 50 && straight > 50, "{repeated} / {straight}");
    }
}
