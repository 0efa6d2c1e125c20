//! Guest state materialised only where it is observed: three rewrites
//! [`super::optimize`] runs after promotion — PC on demand right after it,
//! before the value passes, the other two last — so promotion's admission
//! and carriers are exactly what they would be without them.
//!
//! The contract is the one the slot passes keep: *every observer sees the
//! state the unrewritten unit would show it*.  The observers of the guest
//! PC (host `R15`) are the instructions that can hand it to someone else —
//! a faulting guest-memory access (its data abort reports the PC), a helper
//! call, and `Ret` (the dispatcher resumes there).  The observers of a
//! register-file slot are [`LirInsn::observes_regfile`]'s.
//!
//! 1. **PC on demand** ([`pc_on_demand`]) replaces the emitter's dense PC
//!    writes with a translation-time constant: it tracks the PC each
//!    instruction would leave behind (`IncPc` adds, `SetPcImm` sets) and
//!    what `R15` actually holds, and writes `R15` once, just before an
//!    observer, only when the two differ — as a `lea` from the held value
//!    when they share a base, so code does not grow.  A `Jcc` into a
//!    side-exit stub is not an observer: the stub's own `Ret` is, so the
//!    stub gets the exact PC and the hot path writes none.  At a label the
//!    meet of its predecessors decides (see [`LabelPc`]).
//! 2. **Flag reuse** ([`reuse_flags`]) drops a `Cmp v, 0` / `Test v, v`
//!    when the last host-flag writer on the straight-line path already set
//!    the flags it would: an `And` / `Or` / `Xor` into `v` sets all four
//!    exactly as the test does; an `Add` / `Sub` into `v` sets the zero and
//!    sign flags as it does, so it stands in only where every reader up to
//!    the next writer tests those alone (`Eq`, `Ne`, `Mi`, `Pl`, per
//!    [`crate::regalloc::host_flags_demand_into`]).
//! 3. **Exit-only stores** ([`sink_exit_only_stores`]): in a looping unit, a
//!    register-file store that the straight-line path overwrites before any
//!    observer but the side exits it passes is moved into those side exits'
//!    stubs (and into the reconcile block when the covering store lies
//!    around the back-edge), together with the computation only it uses.
//!    The NZCV slot is the main case: a flag-setting guest instruction
//!    materialises NZCV every trip, and only a loop exit ever reads it.
//!    The move is priced with promotion's trial allocation and kept only
//!    when the unit needs no more spill slots, on the unsplit scan that
//!    prices carriers nor on the splitting scan it is allocated with.  The
//!    unit is indexed once per version ([`SinkIndex`]), and its own price
//!    is taken only once a store worth moving turns up.

use super::{remove_marked, OptScratch};
use crate::lir::{vreg_id_bound, LirBase, LirInsn, LirOperand, Vreg, VregClass};
use crate::regalloc::{host_flags_demand_into, Scan, FLAGS_CV};
use crate::{refill, Scratch};
use hvm::AluOp;
use std::cell::Cell;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether [`super::optimize`] runs the three rewrites on this thread.
pub(super) fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` with the three rewrites switched off on this thread: the
/// reference side of the equivalence tests, which hold the rewritten units
/// to the same state at every observer as the unrewritten ones.
#[doc(hidden)]
pub fn without_observed_state_rewrites<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.with(|e| e.replace(false));
    let r = f();
    ENABLED.with(|e| e.set(was));
    r
}

/// The rewrites' tables (see [`crate::with_scratch`]).
#[derive(Default)]
pub(crate) struct ObservedScratch {
    labels: Vec<LabelPc>,
    /// The rewritten unit, before it is copied back.
    out: Vec<LirInsn>,
    /// Host-flag demand after each instruction, and per label.
    demand: Vec<u8>,
    label_demand: Vec<u8>,
    sink_index: SinkIndex,
}

impl ObservedScratch {
    /// See [`OptScratch::reserve_observed`].
    pub(super) fn reserve(&mut self, len: usize) {
        self.out.clear();
        self.out.reserve(len);
        self.demand.clear();
        self.demand.reserve(len);
    }
}

// ---------------------------------------------------------------------------
// 1. PC on demand
// ---------------------------------------------------------------------------

/// A guest PC known at translation time: `sym + off`.  Symbol 0 is the
/// absolute origin; every other symbol names whatever `R15` held at a point
/// the pass cannot see through — the unit's entry, a join of different
/// values, a `SetPcReg`, a hypervisor round trip — which is exactly what the
/// emitter's relative `IncPc`s were added to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pc {
    sym: u32,
    off: u64,
}

impl Pc {
    const fn absolute(pc: u64) -> Pc {
        Pc { sym: 0, off: pc }
    }
}

/// What the pass knows at a label.  An edge into a label with one
/// predecessor carries its (wanted, held) pair across unmaterialised — the
/// side-exit stub case.  Every edge into a label with several predecessors,
/// or one a jump reaches from below, writes `R15` first, so all of them
/// arrive exact: if they agree on the value it is kept, otherwise a fresh
/// symbol (`R15` is exact there, whichever edge came in) stands for it.
#[derive(Debug, Clone, Copy)]
struct LabelPc {
    /// Index the label is bound at in the input (`usize::MAX`: unbound).
    at: usize,
    /// Edges into it: jumps plus the fall-through.
    preds: u32,
    /// A jump reaches it from below, so its state is not known yet when
    /// the walk gets there.
    backward: bool,
    /// The (wanted, held) pair every edge seen so far agrees on.
    state: Option<(Pc, Pc)>,
    /// Two edges disagreed.
    mixed: bool,
}

impl LabelPc {
    const UNBOUND: LabelPc = LabelPc {
        at: usize::MAX,
        preds: 0,
        backward: false,
        state: None,
        mixed: false,
    };

    /// Whether every edge into the label must arrive with `R15` exact.
    fn joins(&self) -> bool {
        self.preds > 1 || self.backward
    }

    fn meet(&mut self, edge: (Pc, Pc)) {
        match self.state {
            None => self.state = Some(edge),
            Some(s) if s != edge => self.mixed = true,
            Some(_) => {}
        }
    }
}

/// Whether control can fall from `lir[i - 1]` into `lir[i]` (the unit's
/// entry falls into its first instruction).
fn falls_into(lir: &[LirInsn], i: usize) -> bool {
    i == 0
        || !matches!(
            lir[i - 1],
            LirInsn::Ret
                | LirInsn::Jmp { .. }
                | LirInsn::BackEdge {
                    reconcile: false,
                    ..
                }
        )
}

fn jump_target(insn: &LirInsn) -> Option<u32> {
    match insn {
        LirInsn::Jmp { label } | LirInsn::Jcc { label, .. } | LirInsn::BackEdge { label, .. } => {
            Some(*label)
        }
        _ => None,
    }
}

/// Instructions that can hand the guest PC to someone else.
fn observes_pc(insn: &LirInsn) -> bool {
    leaves_for_the_hypervisor(insn) || matches!(insn, LirInsn::Ret) || insn.may_fault()
}

/// Round trips through the hypervisor, which may leave any `R15` behind (as
/// the emitter's relative updates after them always assumed).
fn leaves_for_the_hypervisor(insn: &LirInsn) -> bool {
    matches!(insn, LirInsn::CallHelper { .. })
}

/// Writes `R15` so that it holds `want`, if it does not already: a `lea`
/// from the held value when both share a base, else the absolute value.
/// Returns how many instructions it emitted.
fn materialise(want: Pc, held: &mut Pc, out: &mut Vec<LirInsn>) -> u64 {
    if *held == want {
        return 0;
    }
    let delta = want.off.wrapping_sub(held.off);
    let fits = delta as i64 == delta as i64 as i32 as i64;
    out.push(if want.sym == held.sym && (fits || want.sym != 0) {
        LirInsn::IncPc { imm: delta }
    } else {
        // A symbol is only ever wanted where `R15` holds it (entry, join,
        // `SetPcReg`, round trip) plus increments.
        debug_assert_eq!(want.sym, 0, "a symbolic PC off its own base");
        LirInsn::SetPcImm { imm: want.off }
    });
    *held = want;
    1
}

/// PC on demand (rewrite 1, module docs).  Returns how many guest-PC writes
/// (`IncPc` / `SetPcImm`) the unit lost, net of the ones it gained.
pub(super) fn pc_on_demand(s: &mut ObservedScratch, lir: &mut Vec<LirInsn>) -> u64 {
    let labels = &mut s.labels;
    labels.clear();
    for (i, insn) in lir.iter().enumerate() {
        let (id, jump) = match *insn {
            LirInsn::Label { id } => (id as usize, false),
            _ => match jump_target(insn) {
                Some(id) => (id as usize, true),
                None => continue,
            },
        };
        if id >= labels.len() {
            labels.resize(id + 1, LabelPc::UNBOUND);
        }
        let l = &mut labels[id];
        if jump {
            // Bound already: the jump goes backward.
            l.preds += 1;
            l.backward |= l.at != usize::MAX;
        } else {
            l.at = i;
            l.preds += falls_into(lir, i) as u32;
        }
    }

    let out = &mut s.out;
    out.clear();
    let mut fresh = 1;
    let mut next_sym = || {
        fresh += 1;
        Pc { sym: fresh, off: 0 }
    };
    let (mut want, mut held) = (Pc { sym: 1, off: 0 }, Pc { sym: 1, off: 0 });
    let (mut dropped, mut written) = (0u64, 0u64);
    for i in 0..lir.len() {
        let insn = lir[i];
        match insn {
            LirInsn::IncPc { imm } => {
                want.off = want.off.wrapping_add(imm);
                dropped += 1;
                continue;
            }
            LirInsn::SetPcImm { imm } => {
                want = Pc::absolute(imm);
                dropped += 1;
                continue;
            }
            LirInsn::Label { id } => {
                let l = &mut labels[id as usize];
                if falls_into(lir, i) {
                    if l.joins() {
                        written += materialise(want, &mut held, out);
                    }
                    l.meet((want, held));
                }
                (want, held) = match l.state {
                    Some(edge) if !l.mixed && !l.backward => edge,
                    _ => {
                        let sym = next_sym();
                        (sym, sym)
                    }
                };
            }
            LirInsn::Jcc { label, .. } | LirInsn::Jmp { label } => {
                let l = &mut labels[label as usize];
                if l.joins() {
                    written += materialise(want, &mut held, out);
                }
                l.meet((want, held));
            }
            LirInsn::BackEdge { pc, .. } => {
                // It writes `R15` itself, for the taken jump and for the
                // poll's exit alike.
                out.push(insn);
                (want, held) = (Pc::absolute(pc), Pc::absolute(pc));
                continue;
            }
            LirInsn::SetPcReg { .. } => {
                out.push(insn);
                let sym = next_sym();
                (want, held) = (sym, sym);
                continue;
            }
            _ if observes_pc(&insn) => written += materialise(want, &mut held, out),
            _ => {}
        }
        out.push(insn);
        if leaves_for_the_hypervisor(&insn) {
            let sym = next_sym();
            (want, held) = (sym, sym);
        }
    }
    // Copied back rather than swapped: the unit's vector goes on to the next
    // emitter with its capacity, the scratch keeps its own.
    lir.clear();
    lir.extend_from_slice(out);
    dropped.saturating_sub(written)
}

// ---------------------------------------------------------------------------
// 2. Flag reuse
// ---------------------------------------------------------------------------

/// Flag reuse (rewrite 2, module docs).  Returns how many tests it dropped.
pub(super) fn reuse_flags(s: &mut OptScratch, lir: &mut Vec<LirInsn>) -> u64 {
    let o = &mut s.observed;
    // The demand analysis runs only once an arithmetic writer's test needs
    // it; most units have none.
    let mut demand_known = false;
    let mut dropped = 0;
    // The last flag writer on the straight-line path, when it set the flags
    // a test of `v` would: (v, whether the carry and overflow flags match
    // too).
    let mut last: Option<(Vreg, bool)> = None;
    for (i, insn) in lir.iter().enumerate() {
        let tested = match *insn {
            LirInsn::Cmp {
                a,
                b: LirOperand::Imm(0),
            } => Some(a),
            LirInsn::Test {
                a,
                b: LirOperand::Vreg(b),
            } if a == b => Some(a),
            _ => None,
        };
        if let Some(v) = tested {
            let reused = match last {
                Some((w, all)) if w == v => {
                    if !all && !demand_known {
                        host_flags_demand_into(lir, &mut o.demand, &mut o.label_demand);
                        demand_known = true;
                    }
                    all || o.demand[i] & FLAGS_CV == 0
                }
                _ => false,
            };
            if reused {
                if dropped == 0 {
                    refill(&mut s.marks, lir.len(), false);
                }
                s.marks[i] = true;
                dropped += 1;
            } else {
                last = Some((v, true));
            }
            continue;
        }
        match *insn {
            LirInsn::Alu {
                op: op @ (AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Add | AluOp::Sub),
                dst,
                ..
            } => {
                last = Some((dst, matches!(op, AluOp::And | AluOp::Or | AluOp::Xor)));
                continue;
            }
            LirInsn::Label { .. } => last = None,
            _ if insn.writes_host_flags() || leaves_for_the_hypervisor(insn) => last = None,
            _ => {}
        }
        if insn.def().is_some() && insn.def() == last.map(|l| l.0) {
            last = None;
        }
    }
    if dropped > 0 {
        remove_marked(lir, &s.marks);
    }
    dropped
}

// ---------------------------------------------------------------------------
// 3. Exit-only stores in loops
// ---------------------------------------------------------------------------

/// Whether `insn` may move into a side exit with the store it feeds: it
/// computes a general-purpose value (or flags) from registers and nothing
/// else, so where it runs changes nothing but when.
fn movable(insn: &LirInsn) -> bool {
    let gpr = insn.def().is_none_or(|d| d.class == VregClass::Gpr);
    gpr && match insn {
        LirInsn::MovImm { .. }
        | LirInsn::MovReg { .. }
        | LirInsn::Alu { .. }
        | LirInsn::Cmp { .. }
        | LirInsn::Test { .. }
        | LirInsn::Neg { .. }
        | LirInsn::Not { .. }
        | LirInsn::MovZx { .. }
        | LirInsn::MovSx { .. }
        | LirInsn::SetCc { .. }
        | LirInsn::CmovCc { .. } => true,
        LirInsn::Lea { addr, .. } => !matches!(addr.base, LirBase::RegFile),
        _ => false,
    }
}

/// One store that can leave the loop's straight-line path: where it and
/// its computation are, and where copies of them go.
struct Sink {
    /// The store, then the computation only it uses, highest index first.
    moved: Vec<usize>,
    /// Where the copies go, by index of the instruction they attach to.
    exits: Vec<Exit>,
}

/// Where one copy of a sunk store goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// The `Jcc` at this index leaves for a side-exit stub: it becomes a
    /// branch around an exit block — the copy, then a jump to the stub — so
    /// the copy sits next to the values it reads instead of at the unit's
    /// far end, where their live ranges would span everything between.
    Branch(usize),
    /// Before the `Jmp` at this index, which ends an exit block an earlier
    /// sink made.
    Block(usize),
    /// After the back-edge at this index, at the top of the reconcile block
    /// its poll falls into.
    Reconcile(usize),
}

/// The loop of a looping unit.
#[derive(Debug, Clone, Copy)]
struct Loop {
    /// Index of the header label.
    header: usize,
    /// Index of the back-edge.
    be: usize,
    /// Whether the back-edge falls through into a reconcile block.
    reconcile: bool,
}

/// What planning reads for every candidate store, computed once per
/// version of the unit (it changes only when a store moves).
#[derive(Default)]
pub(super) struct SinkIndex {
    /// Where each label is bound (`usize::MAX`: unbound).
    label_at: Vec<usize>,
    /// How many jumps name each label.
    jumps_to: Vec<u32>,
    /// Where each register is first and last mentioned by what the
    /// allocator keeps.
    span_of: Vec<(usize, usize)>,
}

impl SinkIndex {
    /// Indexes `lir` (`dead`: what the allocator would sweep) and returns
    /// its loop, when it has exactly one.
    fn build(&mut self, lir: &[LirInsn], dead: &[bool]) -> Option<Loop> {
        let labels = lir
            .iter()
            .filter_map(|i| match *i {
                LirInsn::Label { id } => Some(id),
                _ => jump_target(i),
            })
            .max()
            .map_or(0, |l| l as usize + 1);
        refill(&mut self.label_at, labels, usize::MAX);
        refill(&mut self.jumps_to, labels, 0);
        refill(
            &mut self.span_of,
            vreg_id_bound(lir) as usize,
            (usize::MAX, 0),
        );
        for (i, insn) in lir.iter().enumerate() {
            if let LirInsn::Label { id } = *insn {
                self.label_at[id as usize] = i;
            } else if let Some(label) = jump_target(insn) {
                self.jumps_to[label as usize] += 1;
            }
            if !dead[i] {
                let mut note = |v: Vreg| {
                    let e = &mut self.span_of[v.id as usize];
                    *e = (e.0.min(i), e.1.max(i));
                };
                insn.visit_uses(&mut note);
                insn.def().map(note);
            }
        }
        let mut found = None;
        for (be, insn) in lir.iter().enumerate() {
            if let LirInsn::BackEdge {
                label, reconcile, ..
            } = *insn
            {
                if found.is_some() {
                    return None;
                }
                let header = self.label(label)?;
                found = (header < be).then_some(Loop {
                    header,
                    be,
                    reconcile,
                });
            }
        }
        found
    }

    /// Where `label` is bound.
    fn label(&self, label: u32) -> Option<usize> {
        let at = *self.label_at.get(label as usize)?;
        (at != usize::MAX).then_some(at)
    }

    /// The index of `label` when it is a side-exit stub: bound below the
    /// back-edge `be`, entered by one jump, fallen into by nothing.
    fn stub(&self, lir: &[LirInsn], be: usize, label: u32) -> Option<usize> {
        let at = self.label(label)?;
        let jumps = self.jumps_to[label as usize];
        (at > be && jumps == 1 && !falls_into(lir, at)).then_some(at)
    }

    /// When the `Jcc` at `q` branches around an exit block an earlier sink
    /// made (`Jcc !c, skip; ...; Jmp stub; skip:`), the indices of its
    /// `Jmp` and of `skip`.
    fn exit_block(&self, lir: &[LirInsn], be: usize, q: usize) -> Option<(usize, usize)> {
        let LirInsn::Jcc { label, .. } = lir[q] else {
            return None;
        };
        let skip = self.label(label).filter(|&k| q < k && k < be)?;
        let LirInsn::Jmp { label: to } = lir[skip - 1] else {
            return None;
        };
        let inside = &lir[q + 1..skip - 1];
        let plain = inside
            .iter()
            .all(|i| !matches!(i, LirInsn::Label { .. }) && jump_target(i).is_none());
        (plain && self.stub(lir, be, to).is_some()).then_some((skip - 1, skip))
    }
}

/// Whether the store at `p` can be sunk, and how: the walk from `p` along
/// the straight-line path to the store that covers its slot, the side exits
/// it passes on the way, and the computation only the store uses.
fn plan_sink(lir: &[LirInsn], dead: &[bool], ix: &SinkIndex, lp: Loop, p: usize) -> Option<Sink> {
    let Loop {
        header,
        be,
        reconcile,
    } = lp;
    let acc = lir[p].regfile_store()?;
    if !matches!(lir[p], LirInsn::Store { .. } | LirInsn::StoreImm { .. }) {
        return None;
    }
    // The walk: every index the path visits up to the last exit.
    let mut exits = Vec::new();
    let mut path = Vec::new();
    let mut last_exit = 0;
    let (mut q, mut wrapped) = (p + 1, false);
    loop {
        if q == be {
            // Around the back-edge: its poll's exit must be a block a copy
            // can go into, and the next trip's exits are also the first
            // trip's, which this store never reached.
            if !reconcile || wrapped {
                return None;
            }
            path.push(q);
            exits.push(Exit::Reconcile(be));
            last_exit = path.len();
            (q, wrapped) = (header + 1, true);
            continue;
        }
        if wrapped && q > p {
            return None;
        }
        let insn = &lir[q];
        if dead[q] {
            q += 1;
            continue;
        }
        if let Some(st) = insn.regfile_store() {
            if st.covers(&acc) {
                break;
            }
            if st.overlaps(&acc) {
                return None;
            }
        }
        if insn.regfile_load().is_some_and(|l| l.overlaps(&acc)) {
            return None;
        }
        path.push(q);
        match *insn {
            LirInsn::Jcc { .. } if !wrapped => {
                if let Some((jmp, skip)) = ix.exit_block(lir, be, q) {
                    exits.push(Exit::Block(jmp));
                    last_exit = path.len();
                    q = skip + 1;
                    continue;
                }
                let LirInsn::Jcc { label, .. } = *insn else {
                    unreachable!()
                };
                ix.stub(lir, be, label)?;
                exits.push(Exit::Branch(q));
                last_exit = path.len();
            }
            _ if insn.observes_regfile() => return None,
            _ => {}
        }
        q += 1;
    }
    if exits.is_empty() {
        return None; // a dead store: not this rewrite's to delete
    }
    path.truncate(last_exit);
    let moved = moved_with(lir, dead, ix, lp, p, &path, true)
        .or_else(|| moved_with(lir, dead, ix, lp, p, &path, false))?;
    Some(Sink { moved, exits })
}

/// The store at `p` and, when `chain`, the computation only it uses —
/// walking back from it inside the trip, a movable definition of a value
/// it needs, or a flag writer whose flags it needs — highest index first;
/// `None` when something could tell the difference.  `path` is what runs
/// between the store and its last exit; what the allocator would sweep
/// (`dead`) reads nothing.
fn moved_with(
    lir: &[LirInsn],
    dead: &[bool],
    ix: &SinkIndex,
    Loop { header, be, .. }: Loop,
    p: usize,
    path: &[usize],
    chain: bool,
) -> Option<Vec<usize>> {
    let mut moved = vec![p];
    let mut need: Vec<Vreg> = Vec::new();
    lir[p].visit_uses(|u| need.push(u));
    let mut need_flags = false;
    // A value mentioned above the trip or below the store stays where it
    // is.
    let span_of = &ix.span_of;
    for k in (header + 1..p).rev().take_while(|_| chain) {
        let insn = &lir[k];
        if dead[k] {
            continue;
        }
        if matches!(insn, LirInsn::Label { .. }) || insn.observes_regfile() {
            break;
        }
        let def = insn.def();
        // A value something after it reads outside the chain stays where
        // it is, as an input.
        let wanted = def.is_some_and(|d| {
            let (first, last) = span_of[d.id as usize];
            need.contains(&d) && first > header && last <= p
        }) || (def.is_none() && need_flags && insn.writes_host_flags());
        if wanted && movable(insn) {
            moved.push(k);
            need.retain(|&v| Some(v) != def);
            if insn.writes_host_flags() {
                need_flags = false;
            }
            need_flags |= insn.reads_host_flags();
            insn.visit_uses(|u| {
                if !need.contains(&u) {
                    need.push(u);
                }
            });
        } else if need_flags && insn.writes_host_flags() {
            return None; // flags the chain reads come from the main path
        } else if let Some(d) = def.filter(|d| need.contains(d)) {
            need.retain(|&v| v != d); // an input from here on
            if !is_input_stable(lir, d, k + 1, p, &moved, path) {
                return None;
            }
        }
    }
    if need_flags {
        return None;
    }
    let first = *moved.last().expect("the store itself");
    // What the moved instructions define, nothing else may read or write.
    for &k in &moved[1..] {
        let Some(d) = lir[k].def() else {
            continue;
        };
        let (first, last) = span_of[d.id as usize];
        let outside =
            (first..=last).any(|i| !dead[i] && !moved.contains(&i) && mentions(&lir[i], d));
        if outside {
            return None;
        }
    }
    // Inputs still needed at the top hold the same value at every exit.
    if !need
        .iter()
        .all(|&v| is_input_stable(lir, v, first, p, &moved, path))
    {
        return None;
    }
    // The main path's flag readers keep their writers, around the back-edge
    // too.
    let span = header + 1..be;
    let mut last_moved = span
        .clone()
        .rev()
        .find(|&k| lir[k].writes_host_flags())
        .is_some_and(|k| moved.contains(&k));
    let mut k = span.start;
    while k < span.end {
        let insn = &lir[k];
        if moved.contains(&k) {
            last_moved |= insn.writes_host_flags();
        } else {
            if insn.reads_host_flags() && last_moved {
                return None;
            }
            if insn.writes_host_flags() {
                last_moved = false;
            }
        }
        // An exit block is off the main path (and reads no flags it did not
        // write itself).
        k = ix.exit_block(lir, be, k).map_or(k, |(_, skip)| skip) + 1;
    }
    Some(moved)
}

/// Whether `insn` reads or writes `v`.
fn mentions(insn: &LirInsn, v: Vreg) -> bool {
    let mut seen = insn.def() == Some(v);
    insn.visit_uses(|u| seen |= u == v);
    seen
}

/// Whether `v`, read by the moved computation, keeps the value it had at
/// `from` all the way to the last exit: nothing outside the computation
/// writes it between `from` and the store at `p`, or on the exits' path.
fn is_input_stable(
    lir: &[LirInsn],
    v: Vreg,
    from: usize,
    p: usize,
    moved: &[usize],
    path: &[usize],
) -> bool {
    let writes = |k: usize| !moved.contains(&k) && lir[k].def() == Some(v);
    !(from..p).any(writes) && !path.iter().any(|&k| writes(k))
}

/// Applies `sink` to `lir`, into `out`: the store and its computation leave
/// the loop, and each exit gets a copy, with fresh names for what the
/// computation defines.
fn apply_sink(lir: &[LirInsn], ix: &SinkIndex, sink: &Sink, out: &mut Vec<LirInsn>) {
    let mut next_vreg = ix.span_of.len() as u32;
    let mut next_label = ix.label_at.len() as u32;
    let chain: Vec<LirInsn> = sink.moved.iter().rev().map(|&k| lir[k]).collect();
    let mut copy = |out: &mut Vec<LirInsn>| {
        let mut renamed: Vec<(Vreg, Vreg)> = Vec::new();
        for insn in &chain {
            let mut c = *insn;
            c.map_pure_uses(&mut |v| renamed.iter().find(|r| r.0 == v).map(|r| r.1));
            if let Some(d) = c.def_mut() {
                match renamed.iter().find(|r| r.0 == *d) {
                    Some(r) => *d = r.1,
                    None => {
                        let fresh = Vreg {
                            id: next_vreg,
                            class: d.class,
                        };
                        next_vreg += 1;
                        renamed.push((*d, fresh));
                        *d = fresh;
                    }
                }
            }
            out.push(c);
        }
    };
    out.clear();
    for (i, &insn) in lir.iter().enumerate() {
        if sink.moved.contains(&i) {
            continue;
        }
        if sink.exits.contains(&Exit::Block(i)) {
            copy(out);
        }
        match insn {
            LirInsn::Jcc { cond, label } if sink.exits.contains(&Exit::Branch(i)) => {
                let skip = next_label;
                next_label += 1;
                out.push(LirInsn::Jcc {
                    cond: cond.invert(),
                    label: skip,
                });
                copy(out);
                out.push(LirInsn::Jmp { label });
                out.push(LirInsn::Label { id: skip });
            }
            _ => out.push(insn),
        }
        if sink.exits.contains(&Exit::Reconcile(i)) {
            copy(out);
        }
    }
}

/// The spill slots `lir` needs under `scan`: the unsplit scan promotion
/// prices carriers on, or the splitting one the unit is allocated with
/// (whose allocation, dead marks included, stays in the scratch).
fn spill_slots(s: &mut Scratch, lir: &[LirInsn], scan: Scan) -> u32 {
    crate::regalloc::allocate_into(&mut s.regalloc, lir, &mut s.allocation, scan);
    s.allocation.spill_slots
}

/// Exit-only stores (rewrite 3, module docs).  Returns how many stores it
/// moved out of the loop's straight-line path.
pub(super) fn sink_exit_only_stores(s: &mut Scratch, lir: &mut Vec<LirInsn>) -> u64 {
    // What the allocator would sweep: a dead copy of a value is not a reader
    // that pins its computation in place.  The unit's own price, on both
    // scans, waits for a store worth pricing.
    let mut dead = Vec::new();
    crate::regalloc::mark_dead_into(&mut s.regalloc, lir, &mut dead);
    let mut ix = std::mem::take(&mut s.opt.observed.sink_index);
    let mut base = None;
    let mut sunk = 0;
    let mut p = 0;
    let mut rewritten = Vec::new();
    'unit: while let Some(lp) = ix.build(lir, &dead) {
        p = p.max(lp.header + 1);
        while p < lp.be {
            // A store that would move alone saves one store per trip and
            // keeps its value live to every exit: not worth two trial
            // allocations.
            let Some(sink) = plan_sink(lir, &dead, &ix, lp, p).filter(|sink| sink.moved.len() > 1)
            else {
                p += 1;
                continue;
            };
            apply_sink(lir, &ix, &sink, &mut rewritten);
            let (unsplit_base, split_base) = *base.get_or_insert_with(|| {
                (
                    spill_slots(s, lir, Scan::Unsplit),
                    spill_slots(s, lir, Scan::Split),
                )
            });
            if spill_slots(s, &rewritten, Scan::Unsplit) > unsplit_base
                || spill_slots(s, &rewritten, Scan::Split) > split_base
            {
                p += 1;
                continue;
            }
            std::mem::swap(lir, &mut rewritten);
            dead.clone_from(&s.allocation.dead);
            p -= sink.moved.len() - 1;
            sunk += 1;
            continue 'unit;
        }
        break;
    }
    s.opt.observed.sink_index = ix;
    sunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::LirMem;
    use crate::probe::{unit_rig, Rig};
    use crate::regalloc_reference::tests::{fp_loop_unit, runnable_unit};
    use crate::{finish_translation, CounterField, JitCounters, PhaseTimers};
    use hvm::{Cond, MemSize};

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    /// `lir` optimised, allocated and lowered with the three rewrites and
    /// without them, held to the same state at every observer.
    fn same_at_every_observer(rig: &mut Rig, lir: &[LirInsn]) -> Result<JitCounters, String> {
        let translate = |lir: Vec<LirInsn>| {
            let mut timers = PhaseTimers::default();
            let t =
                finish_translation(&mut timers, lir, true, true, None).expect("the corpus lowers");
            (t, timers.jit)
        };
        let (got, jit) = translate(lir.to_vec());
        let (want, _) = super::without_observed_state_rewrites(|| translate(lir.to_vec()));
        rig.compare((&got.code, &got.promoted), (&want.code, &want.promoted), 6)?;
        Ok(jit)
    }

    /// `lir` allocated and lowered with its exit-only stores sunk and as
    /// it is, nothing else run, held to the same state at every observer;
    /// returns how many stores moved.  In the full pipeline promotion
    /// takes the slots of these small loops first, which leaves rewrite 3
    /// nothing to move.
    fn sinking_keeps_every_observer(rig: &mut Rig, lir: &[LirInsn]) -> Result<u64, String> {
        let mut sunk = lir.to_vec();
        let moved = sink_exit_only_stores(&mut Scratch::default(), &mut sunk);
        let lowered = |lir: &[LirInsn]| {
            let alloc = crate::regalloc::allocate(lir);
            crate::lower::lower(lir, &alloc).expect("the corpus lowers")
        };
        rig.compare((&lowered(&sunk), &[]), (&lowered(lir), &[]), 6)?;
        Ok(moved)
    }

    #[test]
    fn the_rewrites_leave_every_observer_the_state_it_saw() {
        // Every generated unit — the allocator corpus's runnable shapes and
        // the looping FP units with guest memory — ends the same way with
        // the same register file (NZCV slot included), guest memory and
        // guest PC with the rewrites as without them, and shows a data
        // abort at each of its first guest accesses the same register file
        // and PC.  The oracle knows no rewrite: a stub left without its PC,
        // a test dropped before a reader of the carry or overflow flag, or
        // a store moved past a faulting access reads as a different state.
        // Rewrite 3 is also held alone to the unit it rewrote.
        let mut rig = unit_rig();
        let mut fired = JitCounters::default();
        let mut sunk = 0;
        for seed in 1..200u64 {
            let fp = fp_loop_unit(seed * 0x9E37_79B9, 8 + seed % 40, 20 + seed % 100);
            let units = (0..6)
                .map(|shape| {
                    let (nv, len) = (3 + seed % 45, 20 + seed % 100);
                    (
                        format!("shape {shape}"),
                        runnable_unit(seed * 0x9E37_79B9, shape, nv, len),
                    )
                })
                .chain([("fp".to_string(), fp)]);
            for (name, lir) in units {
                let jit = same_at_every_observer(&mut rig, &lir)
                    .unwrap_or_else(|e| panic!("seed {seed} {name}: {e}: {lir:?}"));
                fired.add(&jit);
                sunk += sinking_keeps_every_observer(&mut rig, &lir)
                    .unwrap_or_else(|e| panic!("seed {seed} {name}, sunk: {e}: {lir:?}"));
            }
        }
        // A flag writer, a test of its result and a reader of every
        // condition, over operands that carry, overflow or neither.
        let conds = [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Ge,
            Cond::Gt,
            Cond::SLt,
            Cond::SLe,
            Cond::SGe,
            Cond::SGt,
            Cond::Mi,
            Cond::Pl,
            Cond::Vs,
            Cond::Vc,
        ];
        for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Xor] {
            for imm in [1, 0x8000_0000_0000_0000, u64::MAX, 0x7FFF_FFFF_FFFF_FFF0] {
                for (t, &cond) in conds.iter().enumerate() {
                    let test = if t % 2 == 0 {
                        LirInsn::Cmp {
                            a: v(0),
                            b: LirOperand::Imm(0),
                        }
                    } else {
                        LirInsn::Test {
                            a: v(0),
                            b: LirOperand::Vreg(v(0)),
                        }
                    };
                    let mut lir = vec![LirInsn::Load {
                        dst: v(0),
                        addr: LirMem::regfile(8 * t as i32),
                        size: MemSize::U64,
                    }];
                    lir.extend(flag_unit(op, test, cond));
                    lir.insert(
                        lir.len() - 1,
                        LirInsn::Store {
                            src: v(1),
                            addr: LirMem::regfile(0x100),
                            size: MemSize::U64,
                        },
                    );
                    if let LirInsn::Alu { src, .. } = &mut lir[1] {
                        *src = LirOperand::Imm(imm);
                    }
                    let jit = same_at_every_observer(&mut rig, &lir)
                        .unwrap_or_else(|e| panic!("{op:?} {imm:#x} {cond:?}: {e}: {lir:?}"));
                    fired.add(&jit);
                }
            }
        }
        for between in [None, Some(guest_load(5, 0))] {
            let lir = nzcv_loop(between);
            let jit =
                same_at_every_observer(&mut rig, &lir).unwrap_or_else(|e| panic!("{e}: {lir:?}"));
            fired.add(&jit);
            sunk += sinking_keeps_every_observer(&mut rig, &lir)
                .unwrap_or_else(|e| panic!("sunk: {e}: {lir:?}"));
        }
        assert!(fired.opt_pc_elided > 300, "{fired:?}");
        assert!(fired.opt_flags_reused > 100, "{fired:?}");
        assert!(sunk > 0, "no store moved");
    }

    fn guest_load(dst: u32, base: u32) -> LirInsn {
        LirInsn::Load {
            dst: v(dst),
            addr: LirMem::vreg(v(base), 0),
            size: MemSize::U64,
        }
    }

    fn pc_writes(lir: &[LirInsn]) -> usize {
        lir.iter()
            .filter(|i| matches!(i, LirInsn::IncPc { .. } | LirInsn::SetPcImm { .. }))
            .count()
    }

    #[test]
    fn a_side_exit_stub_gets_the_exact_pc_and_the_hot_path_none() {
        let inc = LirInsn::IncPc { imm: 4 };
        let mut lir = vec![
            inc,
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Jcc {
                cond: Cond::Ne,
                label: 7,
            },
            inc,
            LirInsn::SetPcImm { imm: 0x2000 },
            LirInsn::TraceEdge,
            inc,
            guest_load(1, 0),
            LirInsn::Ret,
            LirInsn::Label { id: 7 },
            LirInsn::Ret,
        ];
        let mut s = ObservedScratch::default();
        assert_eq!(pc_on_demand(&mut s, &mut lir), 2);
        assert_eq!(
            lir,
            vec![
                LirInsn::Test {
                    a: v(0),
                    b: LirOperand::Vreg(v(0)),
                },
                LirInsn::Jcc {
                    cond: Cond::Ne,
                    label: 7,
                },
                LirInsn::TraceEdge,
                LirInsn::SetPcImm { imm: 0x2004 },
                guest_load(1, 0),
                LirInsn::Ret,
                LirInsn::Label { id: 7 },
                // The stub's only observer gets what the `Jcc` carried.
                LirInsn::IncPc { imm: 4 },
                LirInsn::Ret,
            ]
        );
    }

    #[test]
    fn every_edge_into_a_join_arrives_exact() {
        // The emitter's unstitched conditional: both legs write an absolute
        // PC and meet at one label; each edge writes its own before it
        // leaves, and what follows the join adds to a fresh base.
        let mut lir = vec![
            LirInsn::SetPcImm { imm: 0x10 },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 1,
            },
            LirInsn::SetPcImm { imm: 0x20 },
            LirInsn::Label { id: 1 },
            LirInsn::IncPc { imm: 4 },
            LirInsn::CallHelper { helper: 1 },
            LirInsn::Ret,
        ];
        let mut s = ObservedScratch::default();
        pc_on_demand(&mut s, &mut lir);
        assert_eq!(pc_writes(&lir), 3, "{lir:?}");
        assert_eq!(lir[0], LirInsn::SetPcImm { imm: 0x10 });
        // A `lea` from the value the other edge left.
        assert_eq!(lir[2], LirInsn::IncPc { imm: 0x10 });
        assert_eq!(lir[4], LirInsn::IncPc { imm: 4 });
    }

    #[test]
    fn a_hypervisor_round_trip_leaves_the_pc_unknown() {
        // After a helper `R15` is whatever the helper left, so the next
        // observer adds to it, as the emitter's relative updates did.
        let inc = LirInsn::IncPc { imm: 4 };
        let mut lir = vec![inc, LirInsn::CallHelper { helper: 1 }, inc, LirInsn::Ret];
        let mut s = ObservedScratch::default();
        pc_on_demand(&mut s, &mut lir);
        assert_eq!(
            lir,
            vec![inc, LirInsn::CallHelper { helper: 1 }, inc, LirInsn::Ret]
        );
    }

    fn flag_unit(writer: AluOp, test: LirInsn, reader: Cond) -> Vec<LirInsn> {
        vec![
            LirInsn::Alu {
                op: writer,
                dst: v(0),
                src: LirOperand::Imm(1),
            },
            test,
            LirInsn::SetCc {
                cond: reader,
                dst: v(1),
            },
            LirInsn::Ret,
        ]
    }

    #[test]
    fn a_test_goes_only_where_its_flags_are_already_set() {
        let cmp = LirInsn::Cmp {
            a: v(0),
            b: LirOperand::Imm(0),
        };
        let test = LirInsn::Test {
            a: v(0),
            b: LirOperand::Vreg(v(0)),
        };
        let reused = |writer, t, reader| {
            let mut lir = flag_unit(writer, t, reader);
            reuse_flags(&mut OptScratch::default(), &mut lir)
        };
        // A logical operation sets all four flags as the test would.
        for reader in [Cond::Eq, Cond::SLt, Cond::Lt, Cond::Vs] {
            assert_eq!(reused(AluOp::And, cmp, reader), 1, "{reader:?}");
            assert_eq!(reused(AluOp::Xor, test, reader), 1, "{reader:?}");
        }
        // An arithmetic one only the zero and sign flags.
        for reader in [Cond::Eq, Cond::Ne, Cond::Mi, Cond::Pl] {
            assert_eq!(reused(AluOp::Sub, cmp, reader), 1, "{reader:?}");
        }
        for reader in [Cond::SLt, Cond::Lt, Cond::Gt, Cond::Vc] {
            assert_eq!(reused(AluOp::Sub, cmp, reader), 0, "{reader:?}");
            assert_eq!(reused(AluOp::Add, test, reader), 0, "{reader:?}");
        }
        // Another register's test, a shift (no flags) or a redefinition in
        // between keeps the test.
        let other = LirInsn::Cmp {
            a: v(2),
            b: LirOperand::Imm(0),
        };
        assert_eq!(reused(AluOp::And, other, Cond::Eq), 0);
        assert_eq!(reused(AluOp::Shl, cmp, Cond::Eq), 0);
        let mut lir = flag_unit(AluOp::And, cmp, Cond::Eq);
        lir.insert(1, LirInsn::MovImm { dst: v(0), imm: 5 });
        assert_eq!(reuse_flags(&mut OptScratch::default(), &mut lir), 0);
    }

    /// A loop whose body stores a value computed from flags into the NZCV
    /// slot, leaves through a side exit and overwrites the slot next trip.
    fn nzcv_loop(between: Option<LirInsn>) -> Vec<LirInsn> {
        let nzcv = LirMem::regfile(256);
        let mut body = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Label { id: 0 },
            LirInsn::Alu {
                op: AluOp::Sub,
                dst: v(0),
                src: LirOperand::Imm(1),
            },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(2),
            },
            LirInsn::Alu {
                op: AluOp::Shl,
                dst: v(2),
                src: LirOperand::Imm(30),
            },
            LirInsn::Store {
                src: v(2),
                addr: nzcv,
                size: MemSize::U64,
            },
        ];
        body.extend(between);
        body.extend([
            LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 1,
            },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: true,
            },
            LirInsn::Ret,
            LirInsn::Label { id: 1 },
            LirInsn::SetPcImm { imm: 0x1010 },
            LirInsn::Ret,
        ]);
        body
    }

    #[test]
    fn an_exit_only_store_moves_into_the_side_exit_with_its_computation() {
        let sunk = |mut lir: Vec<LirInsn>| {
            let n = sink_exit_only_stores(&mut Scratch::default(), &mut lir);
            (n, lir)
        };
        // Both stores of the body are read only if the loop leaves; the one
        // with a computation to take along moves.
        let (n, lir) = sunk(nzcv_loop(None));
        assert_eq!(n, 1, "{lir:?}");
        // The main path no longer computes NZCV: the exit block the branch
        // now jumps around does, and so does the reconcile block.
        let header = lir
            .iter()
            .position(|i| *i == LirInsn::Label { id: 0 })
            .unwrap();
        let jcc = lir
            .iter()
            .position(|i| matches!(i, LirInsn::Jcc { .. }))
            .expect("the exit branch");
        let nzcv = |i: &LirInsn| i.regfile_store().is_some_and(|s| s.offset == 256);
        assert!(lir[header..jcc]
            .iter()
            .all(|i| !matches!(i, LirInsn::SetCc { .. }) && !nzcv(i)));
        assert_eq!(lir[jcc..].iter().filter(|i| nzcv(i)).count(), 2, "{lir:?}");
        // A faulting load between the store and its exit pins it.
        let (n, lir) = sunk(nzcv_loop(Some(guest_load(5, 0))));
        assert_eq!(n, 0, "{lir:?}");
    }
}
