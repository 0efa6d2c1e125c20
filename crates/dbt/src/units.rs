//! Test-only support for the JIT back half's property tests: random LIR
//! units and the analyses they are checked against, none of which shares
//! code with what it checks.
//!
//! * [`unit`] makes units of six shapes (straight line, forward diamonds,
//!   three kinds of loop, sparse ids); [`runnable_unit`] and
//!   [`fp_loop_unit`] make ones that run on [`crate::probe::unit_rig`].
//! * [`liveness`] is textbook per-instruction vreg liveness and
//!   [`host_flags_live_after`] textbook host-flag liveness, both over the
//!   unit's control flow, with no notion of ranges or labels' states.
//! * [`mark_dead_one_shot`] is the historical dead-code marking the
//!   allocator's fixpoint must kill at least as much as.
//! * [`every_vreg_in_its_own_slot`] is the allocation nothing can get wrong,
//!   the oracle executed allocations are held to.

use crate::lir::{LirInsn, LirMem, LirOperand, Vreg, VregClass};
use crate::regalloc::{Allocation, Assignment};
use hvm::{AluOp, Cond, FpOp, MemSize, VecOp};
use std::collections::{HashMap, HashSet};

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
                op: [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Shl][self.rng.below(4) as usize],
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

/// Control-flow successors of every instruction of `lir` (a jump to an
/// unbound label has none from its target).
fn successors(lir: &[LirInsn]) -> Vec<Vec<usize>> {
    let label_pos: HashMap<u32, usize> = lir
        .iter()
        .enumerate()
        .filter_map(|(i, insn)| match insn {
            LirInsn::Label { id } => Some((*id, i)),
            _ => None,
        })
        .collect();
    let target = |l: &u32| label_pos.get(l).copied();
    (0..lir.len())
        .map(|i| {
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
        })
        .collect()
}

/// Textbook liveness over `lir`'s control flow `succ` — `in = uses ∪ (out −
/// def)`, `out = ∪ in[succ]`, to a fixpoint, the instructions `dead` marks
/// contributing nothing: (live-in, live-out) per instruction, each the
/// ascending ids of its vregs.
fn liveness(lir: &[LirInsn], succ: &[Vec<usize>], dead: &[bool]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    // The unit's vregs, numbered densely: a set is one bit per vreg.
    let mut ids = Vec::new();
    for insn in lir {
        insn.visit_uses(|u| ids.push(u.id));
        ids.extend(insn.def().map(|d| d.id));
    }
    ids.sort_unstable();
    ids.dedup();
    assert!(ids.len() <= 128, "{} vregs do not fit a set", ids.len());
    let bit = |id: u32| 1u128 << ids.binary_search(&id).expect("a vreg of the unit");
    let (mut live_in, mut live_out) = (vec![0u128; lir.len()], vec![0u128; lir.len()]);
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..lir.len()).rev() {
            let out = succ[i].iter().fold(0, |set, &s| set | live_in[s]);
            let mut inn = out;
            if !dead[i] {
                if let Some(d) = lir[i].def() {
                    inn &= !bit(d.id);
                }
                lir[i].visit_uses(|u| inn |= bit(u.id));
            }
            changed |= inn != live_in[i] || out != live_out[i];
            live_in[i] = inn;
            live_out[i] = out;
        }
    }
    let members = |set: u128| -> Vec<u32> {
        (0..ids.len())
            .filter(|k| set >> k & 1 != 0)
            .map(|k| ids[k])
            .collect()
    };
    (
        live_in.into_iter().map(members).collect(),
        live_out.into_iter().map(members).collect(),
    )
}

/// Textbook host-flag liveness over `lir`'s control flow, every instruction
/// kept: `out[i]` is whether some path from instruction `i` reads the host
/// flags before an instruction overwrites them — `in = reads ∨ (out ∧
/// ¬writes)`, `out = ∨ in[succ]`, to a fixpoint.
fn host_flags_live_after(lir: &[LirInsn]) -> Vec<bool> {
    let succ = successors(lir);
    let mut live_in = vec![false; lir.len()];
    let mut out = vec![false; lir.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..lir.len()).rev() {
            out[i] = succ[i].iter().any(|&s| live_in[s]);
            let inn = lir[i].reads_host_flags() || (out[i] && !lir[i].writes_host_flags());
            changed |= inn != live_in[i];
            live_in[i] = inn;
        }
    }
    out
}

/// The original one-shot dead-code marking: pure instructions whose
/// destination is never read anywhere in the unit.  Its kill set must be a
/// subset of the allocator's fixpoint's.
fn mark_dead_one_shot(lir: &[LirInsn]) -> Vec<bool> {
    let mut read: HashSet<u32> = HashSet::new();
    for insn in lir {
        insn.visit_uses(|v| {
            read.insert(v.id);
        });
    }
    lir.iter()
        .map(|insn| !insn.has_side_effect() && insn.def().is_some_and(|d| !read.contains(&d.id)))
        .collect()
}

/// The allocation nothing can get wrong: every vreg `lir` mentions in a
/// spill slot of its own, numbered densely in order of first appearance (the
/// generators' ids reach 10 000; the spill area holds 256 slots), nothing
/// dead and nothing split.
pub(crate) fn every_vreg_in_its_own_slot(lir: &[LirInsn]) -> Allocation {
    let mut alloc = Allocation {
        dead: vec![false; lir.len()],
        ..Allocation::default()
    };
    let mut operands = Vec::new();
    for insn in lir {
        operands.clear();
        insn.uses(&mut operands);
        operands.extend(insn.def());
        for v in &operands {
            if alloc.assignment.get(v.id).is_none() {
                alloc
                    .assignment
                    .insert(v.id, Assignment::Spill(alloc.spill_slots));
                alloc.spill_slots += 1;
            }
        }
    }
    alloc
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
    let (live_in, _) = liveness(lir, &successors(lir), &vec![false; lir.len()]);
    let undefined = live_in.first().cloned().unwrap_or_default();
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
#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::{allocate, allocate_unsplit, host_flags_live_after_at};
    use proptest::prelude::*;

    /// Checks an allocation against [`liveness`] — no notion of ranges: at
    /// every reachable kept instruction, the vregs live out of it plus the
    /// one it defines must hold pairwise different registers / spill slots
    /// *where they are at that instruction* — a split vreg holds its
    /// register only before its split index and its split slot from there
    /// on.  Vregs live into the unit's entry are read before any definition
    /// on some path (the generator draws operands at random); their content
    /// is garbage, the allocator owes them nothing, and they are left out.
    fn shared_register(lir: &[LirInsn], alloc: &Allocation) -> Option<String> {
        let succ = successors(lir);
        let (live_in, live_out) = liveness(lir, &succ, &alloc.dead);
        let mut reachable = vec![false; lir.len()];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            if !std::mem::replace(&mut reachable[i], true) {
                work.extend(&succ[i]);
            }
        }
        let garbage = &live_in[0];
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
    fn hands_over(lir: &[LirInsn], alloc: &Allocation, class: VregClass) -> bool {
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
            let alloc = allocate(&lir);
            prop_assert_eq!(shared_register(&lir, &alloc), None, "shape {}: {:?}", shape, lir);
            let unsplit = allocate_unsplit(&lir);
            prop_assert!(unsplit.splits.is_empty(), "shape {}: {:?}", shape, lir);
            prop_assert_eq!(shared_register(&lir, &unsplit), None, "unsplit, shape {}: {:?}", shape, lir);
        }

        #[test]
        fn host_flag_liveness_is_the_textbook_fixpoints(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            nv in 3u64..48,
            len in 1u64..120,
        ) {
            let lir = unit(seed, shape, nv, len);
            let flags_live = crate::regalloc::host_flags_live_after(&lir);
            prop_assert_eq!(&flags_live, &host_flags_live_after(&lir), "shape {}: {:?}", shape, lir);
            // The walk of a tail alone either declines or agrees with the
            // whole unit's fixpoint.
            let mut settled = 0;
            for (at, live) in flags_live.iter().enumerate() {
                if let Some(tail) = host_flags_live_after_at(&lir, at) {
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
            let fixpoint = allocate(&lir).dead;
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
        // The property tests are only as good as their inputs: make sure the
        // generator reaches the regimes it is meant to.
        let (mut spilled, mut looped, mut xmm, mut swept, mut coalesced) = (0, 0, 0, 0, 0);
        let (mut split, mut coalesced_xmm) = (0, 0);
        for seed in 1..200u64 {
            for shape in 0..6 {
                let lir = unit(seed * 0x9E37_79B9, shape, 3 + seed % 45, 20 + seed % 100);
                let a = allocate(&lir);
                coalesced += hands_over(&lir, &a, VregClass::Gpr) as u32;
                coalesced_xmm += hands_over(&lir, &a, VregClass::Xmm) as u32;
                spilled += (a.spill_slots > 0) as u32;
                split += !a.splits.is_empty() as u32;
                swept += a.dead.contains(&true) as u32;
                looped += lir.iter().any(|i| matches!(i, LirInsn::BackEdge { .. })) as u32;
                xmm += a
                    .assignment
                    .iter()
                    .any(|(_, a)| matches!(a, Assignment::Xmm(_))) as u32;
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
