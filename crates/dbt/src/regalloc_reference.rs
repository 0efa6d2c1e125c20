//! Test-only reference for [`crate::regalloc`]: the hash-map allocator the
//! id-indexed one replaced, kept verbatim (`HashSet` live sets, `HashMap`
//! label states, occurrences and assignment) so a differential property test
//! can hold the two to identical `dead`, `spill_slots`, splits and per-vreg
//! assignment on random units — plus the historical one-shot dead-code
//! marking, whose kill set the fixpoint's must contain.  Two rules were
//! added since, each restated by hand rather than shared: the copy
//! hand-over (over the `last` map rather than the active list; a `MovReg`
//! or a 128-bit `MovXmm`, never a 64-bit one) and splitting at the conflict
//! point (next occurrences by forward search, the
//! jump rule by scanning the jumps below the split).  Because both
//! allocators share those rules, the tests also hold the result to two
//! properties that know nothing of ranges: textbook per-instruction
//! liveness over the unit's control flow, and — in [`crate::lower`]'s tests
//! — executing the lowered unit.

use crate::lir::{LirInsn, Vreg, VregClass, GPR_POOL};
use crate::regalloc::{Assignment, Split, XMM_POOL};
use hvm::{Gpr, MemSize, Xmm};
use std::collections::{HashMap, HashSet};

/// What the reference allocator returns (the shape `Allocation` had while
/// its assignment was a hash map).
pub(crate) struct RefAllocation {
    pub assignment: HashMap<u32, Assignment>,
    pub dead: Vec<bool>,
    pub spill_slots: u32,
    pub splits: Vec<Split>,
}

/// Live range of one virtual register (instruction indices, inclusive).
#[derive(Debug, Clone, Copy)]
struct Range {
    vreg: Vreg,
    start: usize,
    end: usize,
}

/// The liveness state recorded at a label: virtual registers live at the
/// label plus whether the host flags are demanded there.  Grows
/// monotonically across fixpoint passes.
#[derive(Debug, Clone, Default)]
struct LabelState {
    live: HashSet<u32>,
    flags: bool,
}

/// Iterative dead-code marking: backward liveness over virtual registers and
/// host flags, repeated to a fixpoint over the unit's labels.  See the
/// module docs for the rules.
fn mark_dead(lir: &[LirInsn]) -> Vec<bool> {
    let mut label_state: HashMap<u32, LabelState> = HashMap::new();
    let mut dead = vec![false; lir.len()];
    let mut scratch = Vec::with_capacity(4);
    loop {
        let mut changed = false;
        let mut live: HashSet<u32> = HashSet::new();
        // Whether some later kept instruction reads the host flags before a
        // kept writer overwrites them.
        let mut flags_demanded = false;
        for (i, insn) in lir.iter().enumerate().rev() {
            // Successor merge: control flow replaces or widens the linear
            // state.  Forward targets were recorded earlier in this pass;
            // backward targets (loop back-edges) carry the previous pass's
            // state, which is what the outer fixpoint loop converges.
            match insn {
                LirInsn::Jmp { label } => {
                    // The label is the sole successor.
                    let s = label_state.get(label).cloned().unwrap_or_default();
                    live = s.live;
                    flags_demanded = s.flags;
                }
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    // The machine *falls through* a yielding back-edge when
                    // `reconcile` is set (into the compensation block the
                    // promotion pass placed right after it), so that path is
                    // a second successor and its state — the carriers the
                    // compensation stores read — must stay live.
                    let s = label_state.get(label).cloned().unwrap_or_default();
                    if *reconcile {
                        live.extend(s.live.iter().copied());
                        flags_demanded |= s.flags;
                    } else {
                        live = s.live;
                        flags_demanded = s.flags;
                    }
                }
                LirInsn::Jcc { label, .. } => {
                    // Successors: the fallthrough (current state) and the
                    // label.
                    if let Some(s) = label_state.get(label) {
                        live.extend(s.live.iter().copied());
                        flags_demanded |= s.flags;
                    }
                }
                LirInsn::Ret => {
                    // Nothing in this unit executes after a return to the
                    // dispatcher; host flags are not guest state.
                    live.clear();
                    flags_demanded = false;
                }
                _ => {}
            }
            let needed = match insn {
                // Unconditional effects: memory, PC, control flow, calls and
                // their argument setup, block structure.
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
                // Everything else lives only through its destination (or, for
                // flag writers, through an outstanding flag demand) — except
                // that a guest-memory *load* can fault, and the data abort is
                // guest-visible even when the loaded value is dead.
                _ => {
                    let def_live = insn.def().is_some_and(|d| live.contains(&d.id));
                    def_live || insn.may_fault() || (insn.writes_host_flags() && flags_demanded)
                }
            };
            if needed {
                scratch.clear();
                insn.uses(&mut scratch);
                for u in &scratch {
                    live.insert(u.id);
                }
                // Backward flag bookkeeping: a kept writer satisfies later
                // demand; a kept reader creates demand for earlier writers.
                if insn.writes_host_flags() {
                    flags_demanded = false;
                }
                if insn.reads_host_flags() {
                    flags_demanded = true;
                }
            }
            dead[i] = !needed;
            if let LirInsn::Label { id } = insn {
                // Record the live-in of the label (grow-only merge); any
                // growth means a jump somewhere may see a wider state and
                // another pass is required.
                let entry = label_state.entry(*id).or_default();
                for v in &live {
                    if entry.live.insert(*v) {
                        changed = true;
                    }
                }
                if flags_demanded && !entry.flags {
                    entry.flags = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dead
}

/// Conservative host-flag liveness for the idiom recognizer: `out[i]` is
/// `true` when some instruction that may execute after instruction `i`
/// reads the host flags (`SetCc`/`CmovCc`/`Jcc`) before any instruction
/// overwrites them.  The bookkeeping mirrors [`mark_dead`]'s flag demand
/// exactly — `Jmp` replaces the linear state with its target label's,
/// `BackEdge` does too (unioning when `reconcile` falls through into a
/// compensation block), `Jcc` unions, `Ret` clears — but every instruction
/// is treated as *kept*, so the answer is sound against any subsequent
/// dead-code outcome: a fusion site where `out[jcc]` is `false` can
/// clobber the flags freely, no matter what the allocator later sweeps.
pub(crate) fn host_flags_live_after(lir: &[LirInsn]) -> Vec<bool> {
    let mut label_flags: HashMap<u32, bool> = HashMap::new();
    let mut out = vec![false; lir.len()];
    loop {
        let mut changed = false;
        let mut flags = false;
        for (i, insn) in lir.iter().enumerate().rev() {
            match insn {
                LirInsn::Jmp { label } => {
                    flags = label_flags.get(label).copied().unwrap_or(false);
                }
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    let s = label_flags.get(label).copied().unwrap_or(false);
                    if *reconcile {
                        flags |= s;
                    } else {
                        flags = s;
                    }
                }
                LirInsn::Jcc { label, .. } => {
                    flags |= label_flags.get(label).copied().unwrap_or(false);
                }
                LirInsn::Ret => flags = false,
                _ => {}
            }
            out[i] = flags;
            if insn.writes_host_flags() {
                flags = false;
            }
            if insn.reads_host_flags() {
                flags = true;
            }
            if let LirInsn::Label { id } = insn {
                let e = label_flags.entry(*id).or_default();
                if flags && !*e {
                    *e = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

/// The original one-shot marking: pure instructions whose destination is
/// never read anywhere in the unit.  Its kill set must be a subset of the
/// fixpoint's.
fn mark_dead_one_shot(lir: &[LirInsn]) -> Vec<bool> {
    let mut use_count: HashMap<u32, u32> = HashMap::new();
    let mut scratch = Vec::with_capacity(4);
    for insn in lir {
        scratch.clear();
        insn.uses(&mut scratch);
        for v in &scratch {
            *use_count.entry(v.id).or_default() += 1;
        }
    }
    let mut dead = vec![false; lir.len()];
    for (i, insn) in lir.iter().enumerate() {
        if insn.has_side_effect() {
            continue;
        }
        if let Some(d) = insn.def() {
            if use_count.get(&d.id).copied().unwrap_or(0) == 0 {
                dead[i] = true;
            }
        }
    }
    dead
}

/// Runs liveness analysis, dead-code marking and linear-scan assignment —
/// splitting at the conflict point when `split`, spilling every newcomer
/// the pool cannot hold otherwise.
pub(crate) fn allocate(lir: &[LirInsn], split: bool) -> RefAllocation {
    let dead = mark_dead(lir);

    // Forward pass over the *surviving* instructions: first and last
    // occurrence of every vreg.  Occurrence maps note both uses and defs at
    // the same index; a def-after-use instruction (the two-address forms,
    // where `dst` is read and written by one instruction) therefore keeps
    // every operand live *through* that index, and the linear scan below
    // only reuses a register for a range starting strictly after another
    // ends (`end < start`, not `end <= start`) — so the operands of a
    // def-after-use instruction can never share a register.
    let mut first: HashMap<u32, (Vreg, usize)> = HashMap::new();
    let mut last: HashMap<u32, usize> = HashMap::new();
    let mut scratch = Vec::with_capacity(4);
    for (i, insn) in lir.iter().enumerate() {
        if dead[i] {
            continue;
        }
        scratch.clear();
        insn.uses(&mut scratch);
        for v in &scratch {
            first.entry(v.id).or_insert((*v, i));
            last.insert(v.id, i);
        }
        if let Some(d) = insn.def() {
            first.entry(d.id).or_insert((d, i));
            last.insert(d.id, i);
        }
    }

    // Loop-carried ranges: a vreg defined before a backward jump's target
    // label and still read at or after it is re-read on *every* iteration,
    // so its range must cover the whole loop — otherwise the linear scan
    // could hand its register to a loop-local value whose (linear) range
    // looks disjoint, clobbering the loop-carried value between iterations.
    let mut label_pos: HashMap<u32, usize> = HashMap::new();
    for (i, insn) in lir.iter().enumerate() {
        if dead[i] {
            continue;
        }
        if let LirInsn::Label { id } = insn {
            label_pos.insert(*id, i);
        }
    }
    let mut back_jumps: Vec<(usize, usize)> = Vec::new(); // (header pos, jump pos)
    for (j, insn) in lir.iter().enumerate() {
        if dead[j] {
            continue;
        }
        let label = match insn {
            LirInsn::Jmp { label } | LirInsn::Jcc { label, .. } => *label,
            LirInsn::BackEdge { label, .. } => *label,
            _ => continue,
        };
        if let Some(&p) = label_pos.get(&label) {
            if p <= j {
                back_jumps.push((p, j));
            }
        }
    }
    // Extension can cascade through nested loops; iterate until stable.
    let mut extended = true;
    while extended {
        extended = false;
        for &(p, j) in &back_jumps {
            for (id, &(_, start)) in &first {
                if start < p {
                    if let Some(end) = last.get_mut(id) {
                        if *end >= p && *end < j {
                            *end = j;
                            extended = true;
                        }
                    }
                }
            }
        }
    }

    // Build live ranges (vregs touched only by dead instructions have no
    // occurrences and get no range).
    let mut ranges: Vec<Range> = first
        .iter()
        .map(|(&id, &(vreg, start))| Range {
            vreg,
            start,
            end: last[&id],
        })
        .collect();
    ranges.sort_by_key(|r| (r.start, r.vreg.id));

    // Whether `v` occurs in kept instruction `i`.
    let occurs = |i: usize, v: u32| {
        let mut operands = Vec::new();
        lir[i].uses(&mut operands);
        !dead[i] && (operands.iter().any(|u| u.id == v) || lir[i].def().is_some_and(|d| d.id == v))
    };
    let next_occurrence = |v: u32, from: usize| (from..lir.len()).find(|&i| occurs(i, v));
    // Where the label a jump at `i` targets is bound, if it is a jump.
    let jump_lands = |i: usize| match &lir[i] {
        LirInsn::Jmp { label } | LirInsn::Jcc { label, .. } | LirInsn::BackEdge { label, .. } => {
            label_pos.get(label).copied()
        }
        _ => None,
    };

    // Linear scan, one pool per register class.
    let mut assignment = HashMap::new();
    let mut active_gpr: Vec<(Range, Gpr)> = Vec::new();
    let mut active_xmm: Vec<(Range, Xmm)> = Vec::new();
    let mut free_gpr: Vec<Gpr> = GPR_POOL.to_vec();
    let mut free_xmm: Vec<Xmm> = XMM_POOL.iter().rev().map(|&i| Xmm(i)).collect();
    let mut spill_slots = 0u32;
    let mut splits: Vec<Split> = Vec::new();

    for r in &ranges {
        // Expire ranges that ended strictly before this one starts (a range
        // ending *at* this index may be a same-instruction operand of a
        // def-after-use form and must keep its register).
        active_gpr.retain(|&(held, reg)| {
            if held.end < r.start {
                free_gpr.push(reg);
                false
            } else {
                true
            }
        });
        active_xmm.retain(|&(held, reg)| {
            if held.end < r.start {
                free_xmm.push(reg);
                false
            } else {
                true
            }
        });
        // Copy hand-over: a pure copy — a `MovReg`, or a 128-bit `MovXmm`
        // (the 64-bit one zeroes the upper lane) — defined where its
        // register-held, unsplit source's final range ends inherits the
        // register.
        let source = match lir[r.start] {
            LirInsn::MovReg { dst, src }
            | LirInsn::MovXmm {
                dst,
                src,
                size: MemSize::U128,
            } if dst == r.vreg
                && last[&src.id] == r.start
                && !splits.iter().any(|s| s.vreg == src.id) =>
            {
                assignment.get(&src.id).copied()
            }
            _ => None,
        };
        let inherited = match source {
            Some(Assignment::Gpr(reg)) => Some(reg),
            _ => None,
        };
        let inherited_xmm = match source {
            Some(Assignment::Xmm(reg)) => Some(reg),
            _ => None,
        };
        match r.vreg.class {
            VregClass::Gpr => {
                if let Some(reg) = inherited {
                    assignment.insert(r.vreg.id, Assignment::Gpr(reg));
                    for entry in active_gpr.iter_mut().filter(|e| e.1 == reg) {
                        entry.0 = *r;
                    }
                } else if let Some(reg) = free_gpr.pop() {
                    assignment.insert(r.vreg.id, Assignment::Gpr(reg));
                    active_gpr.push((*r, reg));
                } else {
                    // Split at r.start: the active range whose next
                    // occurrence is furthest (first of equals), if that is
                    // after r's own next one, and only a range no back-edge
                    // re-enters and no jump from below r.start lands inside.
                    let k = r.start;
                    let mut victim: Option<(usize, usize)> = None;
                    for (at, (c, _)) in active_gpr.iter().enumerate() {
                        let loop_carried =
                            back_jumps.iter().any(|&(p, _)| c.start < p && p <= c.end);
                        let bypassed =
                            (0..k).any(|i| jump_lands(i).is_some_and(|t| k <= t && t <= c.end));
                        if !split || loop_carried || bypassed {
                            continue;
                        }
                        if let Some(next) = next_occurrence(c.vreg.id, k) {
                            if victim.is_none_or(|(_, far)| next > far) {
                                victim = Some((at, next));
                            }
                        }
                    }
                    let own = next_occurrence(r.vreg.id, k + 1);
                    match victim.filter(|&(_, far)| own.is_some_and(|o| far > o)) {
                        Some((at, _)) => {
                            let (c, reg) = active_gpr[at];
                            splits.push(Split {
                                vreg: c.vreg.id,
                                at: k as u32,
                                slot: spill_slots,
                            });
                            spill_slots += 1;
                            active_gpr[at] = (*r, reg);
                            assignment.insert(r.vreg.id, Assignment::Gpr(reg));
                        }
                        None => {
                            assignment.insert(r.vreg.id, Assignment::Spill(spill_slots));
                            spill_slots += 1;
                        }
                    }
                }
            }
            VregClass::Xmm => {
                if let Some(reg) = inherited_xmm {
                    assignment.insert(r.vreg.id, Assignment::Xmm(reg));
                    for entry in active_xmm.iter_mut().filter(|e| e.1 == reg) {
                        entry.0 = *r;
                    }
                } else if let Some(reg) = free_xmm.pop() {
                    assignment.insert(r.vreg.id, Assignment::Xmm(reg));
                    active_xmm.push((*r, reg));
                } else {
                    assignment.insert(r.vreg.id, Assignment::Spill(spill_slots));
                    spill_slots += 1;
                }
            }
        }
    }

    RefAllocation {
        assignment,
        dead,
        spill_slots,
        splits,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lir::{LirMem, LirOperand};
    use hvm::{AluOp, Cond, FpOp, MemSize, VecOp};
    use proptest::prelude::*;

    /// xorshift64* stream over one generated seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random unit builder.  Vreg `k` of the pool is GPR-class unless
    /// `k % 4 == 3`; ids and labels go through `vid`/`lid` so one shape can
    /// make them sparse.
    struct Gen {
        rng: Rng,
        nv: u64,
        sparse: bool,
        lir: Vec<LirInsn>,
        next_label: u32,
        /// Side-exit stubs to append after the final `Ret`.
        stubs: Vec<u32>,
    }

    impl Gen {
        fn vid(&self, k: u64) -> u32 {
            if self.sparse {
                1_000 + k as u32 * 97
            } else {
                k as u32
            }
        }

        fn lid(&self, k: u32) -> u32 {
            if self.sparse {
                5_000 - k * 41
            } else {
                k
            }
        }

        fn gpr(&mut self) -> Vreg {
            let k = loop {
                let k = self.rng.below(self.nv);
                if k % 4 != 3 {
                    break k;
                }
            };
            Vreg {
                id: self.vid(k),
                class: VregClass::Gpr,
            }
        }

        fn xmm(&mut self) -> Vreg {
            let k = self.rng.below(self.nv.div_ceil(4)) * 4 + 3;
            Vreg {
                id: self.vid(k),
                class: VregClass::Xmm,
            }
        }

        fn operand(&mut self) -> LirOperand {
            if self.rng.below(3) == 0 {
                LirOperand::Imm(self.rng.below(100))
            } else {
                LirOperand::Vreg(self.gpr())
            }
        }

        fn mem(&mut self) -> LirMem {
            match self.rng.below(4) {
                0 => LirMem::vreg(self.gpr(), 8),
                _ => LirMem::regfile(self.rng.below(32) as i32 * 8),
            }
        }

        fn label(&mut self) -> u32 {
            self.next_label += 1;
            self.lid(self.next_label - 1)
        }

        /// One random data-flow (or PC / helper-call) instruction.
        fn insn(&mut self) {
            let i = match self.rng.below(22) {
                0 | 1 => LirInsn::MovImm {
                    dst: self.gpr(),
                    imm: self.rng.below(1000),
                },
                2 | 3 => LirInsn::MovReg {
                    dst: self.gpr(),
                    src: self.gpr(),
                },
                4 | 5 => LirInsn::Alu {
                    op: [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Shl]
                        [self.rng.below(4) as usize],
                    dst: self.gpr(),
                    src: self.operand(),
                },
                6 => LirInsn::Cmp {
                    a: self.gpr(),
                    b: self.operand(),
                },
                7 => LirInsn::SetCc {
                    cond: Cond::Ne,
                    dst: self.gpr(),
                },
                8 => LirInsn::CmovCc {
                    cond: Cond::Eq,
                    dst: self.gpr(),
                    src: self.gpr(),
                },
                9 | 10 => LirInsn::Load {
                    dst: self.gpr(),
                    addr: self.mem(),
                    size: MemSize::U64,
                },
                11..=13 => LirInsn::Store {
                    src: self.gpr(),
                    addr: self.mem(),
                    size: MemSize::U64,
                },
                14 => LirInsn::LoadXmm {
                    dst: self.xmm(),
                    addr: self.mem(),
                    size: MemSize::U64,
                },
                15 => LirInsn::StoreXmm {
                    src: self.xmm(),
                    addr: self.mem(),
                    size: MemSize::U64,
                },
                // Half of these are vector copies, both widths, picked by
                // the ids already drawn (one more draw would move every
                // later unit of the stream).
                16 => {
                    let (dst, src) = (self.xmm(), self.xmm());
                    match (dst.id / 4 + src.id / 4) % 4 {
                        0 => LirInsn::MovXmm {
                            dst,
                            src,
                            size: MemSize::U128,
                        },
                        1 => LirInsn::MovXmm {
                            dst,
                            src,
                            size: MemSize::U64,
                        },
                        _ => LirInsn::Fp {
                            op: FpOp::AddD,
                            dst,
                            src,
                        },
                    }
                }
                17 => LirInsn::FpFma {
                    dst: self.xmm(),
                    a: self.xmm(),
                    b: self.xmm(),
                },
                18 => LirInsn::GprToXmm {
                    dst: self.xmm(),
                    src: self.gpr(),
                },
                19 => LirInsn::XmmToGpr {
                    dst: self.gpr(),
                    src: self.xmm(),
                },
                20 => LirInsn::IncPc { imm: 4 },
                _ => {
                    let src = self.operand();
                    self.lir.push(LirInsn::SetArg { index: 0, src });
                    self.lir.push(LirInsn::CallHelper { helper: 1 });
                    LirInsn::ReadRet { dst: self.gpr() }
                }
            };
            self.lir.push(i);
        }

        /// `n` instructions, sprinkled with forward diamonds, forward jumps
        /// over dead code and side-exit branches.
        fn body(&mut self, n: u64) {
            let mut open: Vec<u32> = Vec::new(); // forward labels to bind
            for _ in 0..n {
                match self.rng.below(14) {
                    0 => {
                        let l = self.label();
                        let a = self.gpr();
                        self.lir.push(LirInsn::Test {
                            a,
                            b: LirOperand::Imm(1),
                        });
                        self.lir.push(LirInsn::Jcc {
                            cond: Cond::Eq,
                            label: l,
                        });
                        open.push(l);
                    }
                    1 => {
                        let l = self.label();
                        self.lir.push(LirInsn::Jmp { label: l });
                        open.push(l);
                    }
                    2 => {
                        let l = self.label();
                        self.lir.push(LirInsn::Jcc {
                            cond: Cond::Ne,
                            label: l,
                        });
                        self.stubs.push(l);
                    }
                    3 | 4 if !open.is_empty() => {
                        let at = self.rng.below(open.len() as u64) as usize;
                        let l = open.swap_remove(at);
                        self.lir.push(LirInsn::Label { id: l });
                    }
                    5 => self.lir.push(LirInsn::TraceEdge),
                    _ => self.insn(),
                }
            }
            for l in open {
                self.lir.push(LirInsn::Label { id: l });
            }
        }

        fn finish(mut self) -> Vec<LirInsn> {
            self.lir.push(LirInsn::Ret);
            for l in std::mem::take(&mut self.stubs) {
                self.lir.push(LirInsn::Label { id: l });
                self.lir.push(LirInsn::SetPcImm { imm: 0x4000 });
                self.lir.push(LirInsn::Ret);
            }
            self.lir
        }
    }

    /// Shapes: 0 straight-line, 1 forward diamonds, 2 one `BackEdge` loop,
    /// 3 the same loop with `reconcile` and a compensation block, 4 a
    /// backward `Jcc` loop, 5 shape 3 with sparse ids.  `nv` beyond the
    /// pool sizes (8 GPRs, 13 XMMs) forces spills.
    pub(crate) fn unit(seed: u64, shape: usize, nv: u64, len: u64) -> Vec<LirInsn> {
        let mut g = Gen {
            rng: Rng(seed | 1),
            nv,
            sparse: shape == 5,
            lir: Vec::new(),
            next_label: 0,
            stubs: Vec::new(),
        };
        match shape {
            0 => {
                for _ in 0..len {
                    g.insn();
                }
            }
            1 => g.body(len),
            4 => {
                g.body(len / 3);
                let header = g.label();
                g.lir.push(LirInsn::Label { id: header });
                g.body(len / 2);
                let a = g.gpr();
                g.lir.push(LirInsn::Cmp {
                    a,
                    b: LirOperand::Imm(0),
                });
                g.lir.push(LirInsn::Jcc {
                    cond: Cond::Ne,
                    label: header,
                });
                g.body(len / 4);
            }
            _ => {
                g.body(len / 3);
                let header = g.label();
                g.lir.push(LirInsn::Label { id: header });
                g.body(len / 2);
                let reconcile = shape != 2;
                g.lir.push(LirInsn::BackEdge {
                    pc: 0x1000,
                    label: header,
                    reconcile,
                });
                if reconcile {
                    for slot in 0..2 {
                        let src = g.gpr();
                        g.lir.push(LirInsn::Store {
                            src,
                            addr: LirMem::regfile(slot * 8),
                            size: MemSize::U64,
                        });
                    }
                }
            }
        }
        g.finish()
    }

    /// Control-flow successors of instruction `i` (label ids resolved
    /// through `label_pos`; a jump to an unbound label has none).
    fn successors(lir: &[LirInsn], label_pos: &HashMap<u32, usize>, i: usize) -> Vec<usize> {
        let target = |l: &u32| label_pos.get(l).copied();
        let next = (i + 1 < lir.len()).then_some(i + 1);
        match &lir[i] {
            LirInsn::Ret => vec![],
            LirInsn::Jmp { label } => target(label).into_iter().collect(),
            LirInsn::BackEdge {
                label, reconcile, ..
            } => target(label)
                .into_iter()
                .chain(next.filter(|_| *reconcile))
                .collect(),
            LirInsn::Jcc { label, .. } => target(label).into_iter().chain(next).collect(),
            _ => next.into_iter().collect(),
        }
    }

    /// Textbook liveness over `lir`'s control flow — `in = uses ∪ (out −
    /// def)`, `out = ∪ in[succ]`, to a fixpoint, the instructions `dead`
    /// marks contributing nothing: (live-in, live-out, successors) per
    /// instruction.
    #[allow(clippy::type_complexity)]
    fn liveness(
        lir: &[LirInsn],
        dead: &[bool],
    ) -> (Vec<HashSet<u32>>, Vec<HashSet<u32>>, Vec<Vec<usize>>) {
        let label_pos: HashMap<u32, usize> = lir
            .iter()
            .enumerate()
            .filter_map(|(i, insn)| match insn {
                LirInsn::Label { id } => Some((*id, i)),
                _ => None,
            })
            .collect();
        let succ: Vec<Vec<usize>> = (0..lir.len())
            .map(|i| successors(lir, &label_pos, i))
            .collect();
        let mut live_in: Vec<HashSet<u32>> = vec![HashSet::new(); lir.len()];
        let mut live_out: Vec<HashSet<u32>> = vec![HashSet::new(); lir.len()];
        let mut uses = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..lir.len()).rev() {
                let out: HashSet<u32> = succ[i]
                    .iter()
                    .flat_map(|&s| live_in[s].iter().copied())
                    .collect();
                let mut inn = out.clone();
                if !dead[i] {
                    if let Some(d) = lir[i].def() {
                        inn.remove(&d.id);
                    }
                    uses.clear();
                    lir[i].uses(&mut uses);
                    inn.extend(uses.iter().map(|u| u.id));
                }
                changed |= inn != live_in[i] || out != live_out[i];
                live_in[i] = inn;
                live_out[i] = out;
            }
        }
        (live_in, live_out, succ)
    }

    /// A unit of [`unit`]'s shapes that runs on a machine and computes
    /// something no allocation can change: guest-memory operands become
    /// register-file slots, and every vreg some path reads before defining
    /// it is defined first (a GPR from an immediate, a vector register from
    /// a slot).  Side exits are taken on overflow only, so that loops go
    /// around and values carried across their back-edges are read again.
    pub(crate) fn runnable_unit(seed: u64, shape: usize, nv: u64, len: u64) -> Vec<LirInsn> {
        let mut lir = unit(seed, shape, nv, len);
        for insn in &mut lir {
            if let LirInsn::Load { addr, .. }
            | LirInsn::Store { addr, .. }
            | LirInsn::LoadXmm { addr, .. }
            | LirInsn::StoreXmm { addr, .. } = insn
            {
                if let crate::lir::LirBase::Vreg(v) = addr.base {
                    *addr = LirMem::regfile((v.id % 32) as i32 * 8);
                }
            }
        }
        let first_ret = lir
            .iter()
            .position(|i| matches!(i, LirInsn::Ret))
            .unwrap_or(lir.len());
        let stubs: HashSet<u32> = lir[first_ret..]
            .iter()
            .filter_map(|i| match i {
                LirInsn::Label { id } => Some(*id),
                _ => None,
            })
            .collect();
        for insn in &mut lir {
            if let LirInsn::Jcc { cond, label } = insn {
                if stubs.contains(label) {
                    *cond = Cond::Vs;
                }
            }
        }
        define_before_use(&mut lir);
        lir
    }

    /// Puts a definition of every vreg some path through `lir` reads before
    /// defining it in front of the unit: a GPR from an immediate, a vector
    /// register from a slot.
    fn define_before_use(lir: &mut Vec<LirInsn>) {
        let (live_in, _, _) = liveness(lir, &vec![false; lir.len()]);
        let mut undefined: Vec<u32> = live_in.first().into_iter().flatten().copied().collect();
        undefined.sort_unstable();
        let class = |id: u32| {
            let mut class = VregClass::Gpr;
            for insn in lir.iter() {
                insn.visit_uses(|u| {
                    if u.id == id {
                        class = u.class;
                    }
                });
            }
            class
        };
        let prologue: Vec<LirInsn> = undefined
            .into_iter()
            .map(|id| match class(id) {
                VregClass::Gpr => LirInsn::MovImm {
                    dst: Vreg {
                        id,
                        class: VregClass::Gpr,
                    },
                    imm: id as u64 * 1_000 + 7,
                },
                VregClass::Xmm => LirInsn::LoadXmm {
                    dst: Vreg {
                        id,
                        class: VregClass::Xmm,
                    },
                    addr: LirMem::regfile((id % 32) as i32 * 8),
                    size: MemSize::U64,
                },
            })
            .collect();
        lir.splice(0..0, prologue);
    }

    /// Where [`fp_loop_unit`]'s vector register-file slots start: six of
    /// them, above the general-purpose slots [`unit`] draws from.
    const V_SLOTS: i32 = 0x100;

    /// The guest memory [`fp_loop_unit`] loads and stores: eight 16-byte
    /// lines from here, through one base register nothing redefines.
    pub(crate) const FP_DATA: u64 = 0x9000;

    impl Gen {
        fn vslot(&mut self) -> LirMem {
            LirMem::regfile(V_SLOTS + self.rng.below(6) as i32 * 16)
        }

        fn width(&mut self) -> MemSize {
            [MemSize::U64, MemSize::U128][self.rng.below(2) as usize]
        }

        /// One instruction of a looping FP / vector unit: the shapes a guest
        /// generator gives vector register-file slots (scalar and 128-bit
        /// reads, scalar writes that zero the upper half, 128-bit writes),
        /// scalar, fused and packed arithmetic, both widths of vector copy,
        /// cross-file moves, guest memory through `base`, and some
        /// general-purpose slot traffic.
        fn fp_insn(&mut self, base: Vreg) {
            let i = match self.rng.below(16) {
                0 | 1 => LirInsn::LoadXmm {
                    dst: self.xmm(),
                    addr: self.vslot(),
                    size: MemSize::U64,
                },
                2 => LirInsn::LoadXmm {
                    dst: self.xmm(),
                    addr: self.vslot(),
                    size: MemSize::U128,
                },
                3 | 4 => {
                    let (src, addr) = (self.xmm(), self.vslot());
                    self.lir.push(LirInsn::StoreXmm {
                        src,
                        addr,
                        size: MemSize::U64,
                    });
                    LirInsn::StoreImm {
                        imm: 0,
                        addr: LirMem::regfile(addr.disp + 8),
                        size: MemSize::U64,
                    }
                }
                5 => LirInsn::StoreXmm {
                    src: self.xmm(),
                    addr: self.vslot(),
                    size: MemSize::U128,
                },
                6 => LirInsn::MovXmm {
                    dst: self.xmm(),
                    src: self.xmm(),
                    size: self.width(),
                },
                7 | 8 => LirInsn::Fp {
                    op: [FpOp::AddD, FpOp::MulD, FpOp::SubD][self.rng.below(3) as usize],
                    dst: self.xmm(),
                    src: self.xmm(),
                },
                9 => LirInsn::Vec {
                    op: [VecOp::AddPd, VecOp::MulPd][self.rng.below(2) as usize],
                    dst: self.xmm(),
                    src: self.xmm(),
                },
                10 => LirInsn::FpFma {
                    dst: self.xmm(),
                    a: self.xmm(),
                    b: self.xmm(),
                },
                11 => LirInsn::LoadXmm {
                    dst: self.xmm(),
                    addr: LirMem::vreg(base, self.rng.below(8) as i32 * 16),
                    size: self.width(),
                },
                12 => LirInsn::StoreXmm {
                    src: self.xmm(),
                    addr: LirMem::vreg(base, self.rng.below(8) as i32 * 16),
                    size: self.width(),
                },
                13 => match self.rng.below(2) {
                    0 => LirInsn::GprToXmm {
                        dst: self.xmm(),
                        src: self.gpr(),
                    },
                    _ => LirInsn::XmmToGpr {
                        dst: self.gpr(),
                        src: self.xmm(),
                    },
                },
                14 => match self.rng.below(3) {
                    0 => LirInsn::Load {
                        dst: self.gpr(),
                        addr: LirMem::regfile(self.rng.below(32) as i32 * 8),
                        size: MemSize::U64,
                    },
                    1 => LirInsn::Store {
                        src: self.gpr(),
                        addr: LirMem::regfile(self.rng.below(32) as i32 * 8),
                        size: MemSize::U64,
                    },
                    _ => LirInsn::Alu {
                        op: AluOp::Add,
                        dst: self.gpr(),
                        src: self.operand(),
                    },
                },
                _ => LirInsn::IncPc { imm: 4 },
            };
            self.lir.push(i);
        }
    }

    /// A looping unit that runs on a machine and can be promoted: FP and
    /// vector work over vector register-file slots and guest memory at
    /// [`FP_DATA`] (no helper call or other promotion barrier), a body
    /// before the loop header and one inside the loop, side exits taken when
    /// a register's low bit is set, every vreg defined before it is read.
    pub(crate) fn fp_loop_unit(seed: u64, nv: u64, len: u64) -> Vec<LirInsn> {
        let mut g = Gen {
            rng: Rng(seed | 1),
            nv,
            sparse: false,
            lir: Vec::new(),
            next_label: 0,
            stubs: Vec::new(),
        };
        let base = Vreg {
            id: 10_000,
            class: VregClass::Gpr,
        };
        g.lir.push(LirInsn::MovImm {
            dst: base,
            imm: FP_DATA,
        });
        for _ in 0..len / 3 {
            g.fp_insn(base);
        }
        let header = g.label();
        g.lir.push(LirInsn::Label { id: header });
        for _ in 0..len / 2 {
            match g.rng.below(16) {
                0 => {
                    let (l, a) = (g.label(), g.gpr());
                    g.lir.push(LirInsn::Test {
                        a,
                        b: LirOperand::Imm(1),
                    });
                    g.lir.push(LirInsn::Jcc {
                        cond: Cond::Ne,
                        label: l,
                    });
                    g.stubs.push(l);
                }
                1 => g.lir.push(LirInsn::TraceEdge),
                _ => g.fp_insn(base),
            }
        }
        g.lir.push(LirInsn::BackEdge {
            pc: 0x1000,
            label: header,
            reconcile: false,
        });
        let mut lir = g.finish();
        define_before_use(&mut lir);
        lir
    }

    /// Checks an allocation against liveness computed the textbook way —
    /// `in = uses ∪ (out − def)`, `out = ∪ in[succ]`, to a fixpoint over the
    /// kept instructions — with no notion of ranges: at every reachable kept
    /// instruction, the vregs live out of it plus the one it defines must
    /// hold pairwise different registers / spill slots *where they are at
    /// that instruction* — a split vreg holds its register only before its
    /// split index and its split slot from there on.  Vregs live into the
    /// unit's entry are read before any definition on some path (the
    /// generator draws operands at random); their content is garbage, the
    /// allocator owes them nothing, and they are left out.
    fn shared_register(lir: &[LirInsn], alloc: &crate::regalloc::Allocation) -> Option<String> {
        let (live_in, live_out, succ) = liveness(lir, &alloc.dead);
        let mut reachable = vec![false; lir.len()];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            if !std::mem::replace(&mut reachable[i], true) {
                work.extend(&succ[i]);
            }
        }
        let garbage = live_in[0].clone();
        for i in (0..lir.len()).filter(|&i| reachable[i] && !alloc.dead[i]) {
            let mut held: Vec<u32> = live_out[i]
                .iter()
                .copied()
                .chain(lir[i].def().map(|d| d.id))
                .filter(|id| !garbage.contains(id))
                .collect();
            held.sort_unstable();
            held.dedup();
            let at = |v: u32| alloc.location(v, i as u32);
            for (k, a) in held.iter().enumerate() {
                for b in &held[k + 1..] {
                    if at(*a) == at(*b) {
                        return Some(format!(
                            "v{a} and v{b} are both live across #{i} {:?} in {:?}",
                            lir[i],
                            at(*a)
                        ));
                    }
                }
            }
        }
        None
    }

    /// True when the allocator coalesced at least one kept copy of `class`.
    fn hands_over(lir: &[LirInsn], alloc: &crate::regalloc::Allocation, class: VregClass) -> bool {
        lir.iter().enumerate().any(|(i, insn)| match insn {
            LirInsn::MovReg { dst, src } | LirInsn::MovXmm { dst, src, .. }
                if !alloc.dead[i] && dst != src && dst.class == class =>
            {
                matches!(
                    alloc.assignment[dst.id],
                    Assignment::Gpr(_) | Assignment::Xmm(_)
                ) && alloc.assignment[dst.id] == alloc.assignment[src.id]
            }
            _ => false,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn no_two_simultaneously_live_vregs_share_a_register(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            nv in 3u64..48,
            len in 1u64..120,
        ) {
            let lir = unit(seed, shape, nv, len);
            let alloc = crate::regalloc::allocate(&lir);
            prop_assert_eq!(shared_register(&lir, &alloc), None, "shape {}: {:?}", shape, lir);
        }

        #[test]
        fn dense_allocator_matches_the_hash_map_reference(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            nv in 3u64..48,
            len in 1u64..120,
        ) {
            let lir = unit(seed, shape, nv, len);
            // Both scans: the splitting one every translation is allocated
            // with, the unsplit one promotion prices carriers on.
            let scans = [
                (crate::regalloc::allocate(&lir), allocate(&lir, true)),
                (crate::regalloc::allocate_unsplit(&lir), allocate(&lir, false)),
            ];
            for (new, old) in &scans {
                prop_assert_eq!(&new.dead, &old.dead, "dead marks, shape {shape}: {lir:?}");
                prop_assert_eq!(new.spill_slots, old.spill_slots, "spill slots, shape {shape}");
                prop_assert_eq!(&new.splits, &old.splits, "splits, shape {shape}: {lir:?}");
                for id in 0..crate::lir::vreg_id_bound(&lir) {
                    prop_assert_eq!(
                        new.assignment.get(id),
                        old.assignment.get(&id).copied(),
                        "assignment of v{id}, shape {shape}: {lir:?}"
                    );
                }
                prop_assert_eq!(new.assignment.iter().count(), old.assignment.len());
            }
            prop_assert!(scans[1].0.splits.is_empty(), "the unsplit scan never splits");
            let flags_live = crate::regalloc::host_flags_live_after(&lir);
            prop_assert_eq!(
                &flags_live,
                &host_flags_live_after(&lir),
                "host-flag liveness, shape {}", shape
            );
            // The walk of a tail alone either declines or agrees with the
            // whole unit's fixpoint.
            let mut settled = 0;
            for (at, live) in flags_live.iter().enumerate() {
                if let Some(tail) = crate::regalloc::host_flags_live_after_at(&lir, at) {
                    prop_assert_eq!(tail, *live, "tail at {}, shape {}: {:?}", at, shape, lir);
                    settled += 1;
                }
            }
            prop_assert!(shape != 0 || settled == lir.len().min(32), "a straight line's short tails settle");
        }

        #[test]
        fn fixpoint_kills_everything_one_shot_marking_kills(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            nv in 3u64..48,
            len in 1u64..120,
        ) {
            let lir = unit(seed, shape, nv, len);
            let fixpoint = crate::regalloc::allocate(&lir).dead;
            for (i, one_shot) in mark_dead_one_shot(&lir).into_iter().enumerate() {
                prop_assert!(
                    !one_shot || fixpoint[i],
                    "fixpoint liveness kept an instruction one-shot marking kills: {:?}",
                    lir[i]
                );
            }
        }
    }

    #[test]
    fn generated_units_cover_spills_loops_and_both_classes() {
        // The differential test is only as good as its inputs: make sure the
        // generator reaches the regimes it is meant to.
        let (mut spilled, mut looped, mut xmm, mut swept, mut coalesced) = (0, 0, 0, 0, 0);
        let (mut split, mut coalesced_xmm) = (0, 0);
        for seed in 1..200u64 {
            for shape in 0..6 {
                let lir = unit(seed * 0x9E37_79B9, shape, 3 + seed % 45, 20 + seed % 100);
                let dense = crate::regalloc::allocate(&lir);
                coalesced += hands_over(&lir, &dense, VregClass::Gpr) as u32;
                coalesced_xmm += hands_over(&lir, &dense, VregClass::Xmm) as u32;
                let a = allocate(&lir, true);
                spilled += (a.spill_slots > 0) as u32;
                split += !a.splits.is_empty() as u32;
                swept += a.dead.iter().any(|d| *d) as u32;
                looped += lir.iter().any(|i| matches!(i, LirInsn::BackEdge { .. })) as u32;
                xmm += a
                    .assignment
                    .values()
                    .any(|a| matches!(a, Assignment::Xmm(_))) as u32;
            }
        }
        assert!(spilled > 50 && looped > 50 && xmm > 50 && swept > 50);
        assert!(
            coalesced > 50 && coalesced_xmm > 5,
            "the copy hand-over fired on {coalesced} units, on a vector copy in {coalesced_xmm}"
        );
        assert!(split > 50, "the scan split a range in {split} units");
    }
}
