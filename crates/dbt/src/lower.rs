//! Lowering of register-allocated LIR to HVM64 machine instructions.
//!
//! This is the paper's final "instruction encoding" phase: dead instructions
//! marked by the allocator are skipped, virtual registers are replaced by
//! their physical assignments (with scratch-register reloads for spilled
//! values), labels disappear and relative jump targets are patched once all
//! instruction positions are known (Section 2.3.4).
//!
//! Where a virtual register lives depends on the instruction index: a range
//! the allocator split at the conflict point ([`crate::regalloc::Split`])
//! is in its register before the split index and in its spill slot from
//! there on ([`Allocation::location`]).  Immediately before the instruction
//! at that index — before anything it lowers to, on the path every
//! execution of the rest of the range takes (the allocator's split rules
//! guarantee it) — lowering emits the one store that moves the value from
//! the register to the slot.
//!
//! Lowering is fallible: a virtual register that reaches encoding with
//! neither a physical assignment nor a spill slot, or a jump to a label the
//! unit never binds, is an allocator/emitter defect, and silently
//! substituting a default register (or a target one past the end of the
//! block) would corrupt guest state at run time.  [`lower`] reports it as a
//! [`LowerError`] instead; the engines respond by bailing out of the translation (a plain block falls
//! back to raising a guest UNDEF exception, a region formation is abandoned
//! in favour of the constituent blocks), so a lowering defect degrades to
//! slower or fault-raising execution rather than wrong answers.

use crate::lir::{LirBase, LirInsn, LirMem, LirOperand, Vreg, ARG_GPRS, SCRATCH_GPRS};
use crate::regalloc::{Allocation, Assignment};
use hvm::{Gpr, MachInsn, MemRef, MemSize, Operand, Xmm};

/// Byte offset (relative to the register-file base pointer) of the spill
/// area.  The hypervisor reserves this scratch region just below the guest
/// register file.
pub const SPILL_AREA_OFFSET: i32 = -4096;

/// Scratch vector registers used for spilled XMM values (three, so an
/// `FpFma` whose operands all spilled still gets distinct reloads).
const XMM_SCRATCH: [Xmm; 3] = [Xmm(13), Xmm(14), Xmm(15)];

/// A defect that makes a unit impossible to encode faithfully.  Emitting
/// code anyway would read or clobber an arbitrary host register or jump to
/// an arbitrary place, so the translation must be abandoned instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerError {
    /// Virtual register `vreg` reached encoding with neither a physical
    /// assignment nor a spill slot.
    UnassignedVreg {
        /// Id of the unassigned virtual register.
        vreg: u32,
    },
    /// A `Jmp`/`Jcc`/`BackEdge` targets a label no surviving `Label`
    /// instruction binds.
    UnboundLabel {
        /// Id of the unbound label.
        label: u32,
    },
    /// A promoted loop carrier (see [`crate::opt`]) did not land in a host
    /// register of its class, so a fault exit could not write it back to
    /// its register-file slot.
    CarrierNotInRegister {
        /// Id of the carrier virtual register.
        vreg: u32,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnassignedVreg { vreg } => write!(
                f,
                "virtual register v{vreg} reached lowering without an assignment"
            ),
            LowerError::UnboundLabel { label } => {
                write!(f, "jump to label {label}, which the unit never binds")
            }
            LowerError::CarrierNotInRegister { vreg } => write!(
                f,
                "promoted carrier v{vreg} was not allocated a host register"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// The two tables lowering fills besides its output, kept per thread by the
/// crate's scratch (see [`crate::with_scratch`]).
#[derive(Default)]
pub(crate) struct LowerScratch {
    /// Machine instruction index per label id (`None` until bound; grown
    /// to the largest label id bound so far).
    label_pos: Vec<Option<usize>>,
    /// (machine index of Jmp/Jcc, label id) pairs to patch.
    fixups: Vec<(usize, u32)>,
}

/// Lowers one unit; `SPLITS` is whether its allocation split any range, so
/// a unit the pool held (nearly all of them) resolves every operand exactly
/// as before splitting existed, without looking for splits.
struct Lowerer<'a, const SPLITS: bool> {
    alloc: &'a Allocation,
    out: Vec<MachInsn>,
    tables: &'a mut LowerScratch,
    /// How many of the allocation's splits (ascending by index) have had
    /// their store emitted: the vregs that live in their split slot now.
    splits_done: usize,
    /// Scratch registers consumed so far for the current LIR instruction.
    scratch_used: usize,
    xmm_scratch_used: usize,
    /// First unassigned-vreg defect observed (checked after the pass; the
    /// helpers return a placeholder register so lowering can continue far
    /// enough to surface one error instead of panicking mid-instruction).
    error: Option<LowerError>,
}

impl<'a, const SPLITS: bool> Lowerer<'a, SPLITS> {
    fn new(alloc: &'a Allocation, lir_len: usize, tables: &'a mut LowerScratch) -> Self {
        tables.label_pos.clear();
        tables.fixups.clear();
        Lowerer {
            alloc,
            out: Vec::with_capacity(lir_len),
            tables,
            splits_done: 0,
            scratch_used: 0,
            xmm_scratch_used: 0,
            error: None,
        }
    }

    /// Records an unassigned-vreg defect (first one wins).
    fn fail(&mut self, vreg: u32) {
        if self.error.is_none() {
            self.error = Some(LowerError::UnassignedVreg { vreg });
        }
    }

    fn spill_slot_addr(slot: u32) -> MemRef {
        MemRef::base_disp(Gpr::Rbp, SPILL_AREA_OFFSET + (slot as i32) * 16)
    }

    /// Where `v` lives at the instruction being lowered
    /// ([`Allocation::location`]).
    #[inline]
    fn location(&self, v: Vreg) -> Option<Assignment> {
        if SPLITS {
            let moved = &self.alloc.splits[..self.splits_done];
            if let Some(s) = moved.iter().find(|s| s.vreg == v.id) {
                return Some(Assignment::Spill(s.slot));
            }
        }
        self.alloc.assignment.get(v.id)
    }

    /// Lowers LIR instruction `i`: first the stores of the ranges split
    /// there, then — unless it is dead — the instruction itself.
    fn step(&mut self, i: usize, insn: &LirInsn) {
        let alloc = self.alloc;
        while let Some(split) = alloc
            .splits
            .get(self.splits_done)
            .filter(|s| SPLITS && s.at as usize <= i)
        {
            self.splits_done += 1;
            match alloc.assignment.get(split.vreg) {
                Some(Assignment::Gpr(src)) => self.out.push(MachInsn::Store {
                    src,
                    addr: Self::spill_slot_addr(split.slot),
                    size: MemSize::U64,
                }),
                _ => self.fail(split.vreg),
            }
        }
        if !alloc.dead.get(i).copied().unwrap_or(false) {
            self.lower_insn(insn);
        }
    }

    /// Resolves a GPR-class vreg for *reading*, reloading from its spill slot
    /// into a scratch register if necessary.
    fn use_gpr(&mut self, v: Vreg) -> Gpr {
        match self.location(v) {
            Some(Assignment::Gpr(r)) => r,
            Some(Assignment::Spill(slot)) => {
                let scratch = SCRATCH_GPRS[self.scratch_used % SCRATCH_GPRS.len()];
                self.scratch_used += 1;
                self.out.push(MachInsn::Load {
                    dst: scratch,
                    addr: Self::spill_slot_addr(slot),
                    size: MemSize::U64,
                });
                scratch
            }
            _ => {
                self.fail(v.id);
                Gpr::Rax
            }
        }
    }

    /// Resolves a GPR-class vreg for *writing*.  Returns the register to
    /// write plus an optional store-back to the spill slot.
    fn def_gpr(&mut self, v: Vreg) -> (Gpr, Option<MachInsn>) {
        match self.location(v) {
            Some(Assignment::Gpr(r)) => (r, None),
            Some(Assignment::Spill(slot)) => {
                let scratch = SCRATCH_GPRS[self.scratch_used % SCRATCH_GPRS.len()];
                self.scratch_used += 1;
                (
                    scratch,
                    Some(MachInsn::Store {
                        src: scratch,
                        addr: Self::spill_slot_addr(slot),
                        size: MemSize::U64,
                    }),
                )
            }
            _ => {
                self.fail(v.id);
                (Gpr::Rax, None)
            }
        }
    }

    fn use_xmm(&mut self, v: Vreg) -> Xmm {
        match self.location(v) {
            Some(Assignment::Xmm(x)) => x,
            Some(Assignment::Spill(slot)) => {
                let scratch = XMM_SCRATCH[self.xmm_scratch_used % XMM_SCRATCH.len()];
                self.xmm_scratch_used += 1;
                self.out.push(MachInsn::LoadXmm {
                    dst: scratch,
                    addr: Self::spill_slot_addr(slot),
                    size: MemSize::U128,
                });
                scratch
            }
            _ => {
                self.fail(v.id);
                Xmm(0)
            }
        }
    }

    fn def_xmm(&mut self, v: Vreg) -> (Xmm, Option<MachInsn>) {
        match self.location(v) {
            Some(Assignment::Xmm(x)) => (x, None),
            Some(Assignment::Spill(slot)) => {
                let scratch = XMM_SCRATCH[self.xmm_scratch_used % XMM_SCRATCH.len()];
                self.xmm_scratch_used += 1;
                (
                    scratch,
                    Some(MachInsn::StoreXmm {
                        src: scratch,
                        addr: Self::spill_slot_addr(slot),
                        size: MemSize::U128,
                    }),
                )
            }
            _ => {
                self.fail(v.id);
                (Xmm(0), None)
            }
        }
    }

    /// Resolves a GPR-class vreg used as a *two-address destination*: the
    /// old value is reloaded from the spill slot if necessary (the
    /// instruction reads it), and the modified value is stored back after.
    fn rmw_gpr(&mut self, v: Vreg) -> (Gpr, Option<MachInsn>) {
        let reg = self.use_gpr(v);
        let store_back = match self.location(v) {
            Some(Assignment::Spill(slot)) => Some(MachInsn::Store {
                src: reg,
                addr: Self::spill_slot_addr(slot),
                size: MemSize::U64,
            }),
            _ => None,
        };
        (reg, store_back)
    }

    /// XMM-class equivalent of [`Lowerer::rmw_gpr`].
    fn rmw_xmm(&mut self, v: Vreg) -> (Xmm, Option<MachInsn>) {
        let reg = self.use_xmm(v);
        let store_back = match self.location(v) {
            Some(Assignment::Spill(slot)) => Some(MachInsn::StoreXmm {
                src: reg,
                addr: Self::spill_slot_addr(slot),
                size: MemSize::U128,
            }),
            _ => None,
        };
        (reg, store_back)
    }

    fn mem(&mut self, m: &LirMem) -> MemRef {
        let base = match m.base {
            LirBase::RegFile => Gpr::Rbp,
            LirBase::Vreg(v) => self.use_gpr(v),
        };
        let index = m.index.map(|(v, scale)| (self.use_gpr(v), scale));
        MemRef {
            base,
            index,
            disp: m.disp,
        }
    }

    fn operand(&mut self, o: &LirOperand) -> Operand {
        match o {
            LirOperand::Vreg(v) => Operand::Reg(self.use_gpr(*v)),
            LirOperand::Imm(i) => Operand::Imm(*i),
        }
    }

    fn push(&mut self, insn: MachInsn, store_back: Option<MachInsn>) {
        self.out.push(insn);
        if let Some(sb) = store_back {
            self.out.push(sb);
        }
    }

    fn lower_insn(&mut self, insn: &LirInsn) {
        self.scratch_used = 0;
        self.xmm_scratch_used = 0;
        match insn {
            LirInsn::Label { id } => {
                let id = *id as usize;
                if id >= self.tables.label_pos.len() {
                    self.tables.label_pos.resize(id + 1, None);
                }
                self.tables.label_pos[id] = Some(self.out.len());
            }
            LirInsn::MovImm { dst, imm } => {
                let (d, sb) = self.def_gpr(*dst);
                self.push(MachInsn::MovImm { dst: d, imm: *imm }, sb);
            }
            LirInsn::MovReg { dst, src } => {
                let s = self.use_gpr(*src);
                let (d, sb) = self.def_gpr(*dst);
                // Scratch registers are distinct per instruction, so `d == s`
                // means both operands live in one pool register (the
                // allocator's copy hand-over): no spill traffic, nothing to
                // execute.
                if d != s {
                    self.push(MachInsn::MovReg { dst: d, src: s }, sb);
                }
            }
            LirInsn::Load { dst, addr, size } => {
                let a = self.mem(addr);
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::Load {
                        dst: d,
                        addr: a,
                        size: *size,
                    },
                    sb,
                );
            }
            LirInsn::LoadSx { dst, addr, size } => {
                let a = self.mem(addr);
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::LoadSx {
                        dst: d,
                        addr: a,
                        size: *size,
                    },
                    sb,
                );
            }
            LirInsn::Store { src, addr, size } => {
                let s = self.use_gpr(*src);
                let a = self.mem(addr);
                self.out.push(MachInsn::Store {
                    src: s,
                    addr: a,
                    size: *size,
                });
            }
            LirInsn::StoreImm { imm, addr, size } => {
                let a = self.mem(addr);
                self.out.push(MachInsn::StoreImm {
                    imm: *imm,
                    addr: a,
                    size: *size,
                });
            }
            LirInsn::Lea { dst, addr } => {
                let a = self.mem(addr);
                let (d, sb) = self.def_gpr(*dst);
                self.push(MachInsn::Lea { dst: d, addr: a }, sb);
            }
            LirInsn::Alu { op, dst, src } => {
                let s = self.operand(src);
                // Two-address: the destination is also a source.
                let (d, sb) = self.rmw_gpr(*dst);
                self.push(
                    MachInsn::Alu {
                        op: *op,
                        dst: d,
                        src: s,
                    },
                    sb,
                );
            }
            LirInsn::Cmp { a, b } => {
                let av = self.use_gpr(*a);
                let bv = self.operand(b);
                self.out.push(MachInsn::Cmp { a: av, b: bv });
            }
            LirInsn::Test { a, b } => {
                let av = self.use_gpr(*a);
                let bv = self.operand(b);
                self.out.push(MachInsn::Test { a: av, b: bv });
            }
            LirInsn::Neg { dst } => {
                let (d, sb) = self.rmw_gpr(*dst);
                self.push(MachInsn::Neg { dst: d }, sb);
            }
            LirInsn::Not { dst } => {
                let (d, sb) = self.rmw_gpr(*dst);
                self.push(MachInsn::Not { dst: d }, sb);
            }
            LirInsn::MovZx { dst, src, size } => {
                let s = self.use_gpr(*src);
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::MovZx {
                        dst: d,
                        src: s,
                        size: *size,
                    },
                    sb,
                );
            }
            LirInsn::MovSx { dst, src, size } => {
                let s = self.use_gpr(*src);
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::MovSx {
                        dst: d,
                        src: s,
                        size: *size,
                    },
                    sb,
                );
            }
            LirInsn::SetCc { cond, dst } => {
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::SetCc {
                        cond: *cond,
                        dst: d,
                    },
                    sb,
                );
            }
            LirInsn::CmovCc { cond, dst, src } => {
                let s = self.use_gpr(*src);
                // Read-modify-write: a spilled destination must be stored
                // back even when the move is not taken (the reload into the
                // scratch register preserved the old value).
                let (d, sb) = self.rmw_gpr(*dst);
                self.push(
                    MachInsn::CmovCc {
                        cond: *cond,
                        dst: d,
                        src: s,
                    },
                    sb,
                );
            }
            LirInsn::Jmp { label } => {
                self.tables.fixups.push((self.out.len(), *label));
                self.out.push(MachInsn::Jmp { target: 0 });
            }
            LirInsn::Jcc { cond, label } => {
                self.tables.fixups.push((self.out.len(), *label));
                self.out.push(MachInsn::Jcc {
                    cond: *cond,
                    target: 0,
                });
            }
            LirInsn::SetPcImm { imm } => {
                self.out.push(MachInsn::MovImm {
                    dst: Gpr::R15,
                    imm: *imm,
                });
            }
            LirInsn::SetPcReg { src } => {
                let s = self.use_gpr(*src);
                self.out.push(MachInsn::MovReg {
                    dst: Gpr::R15,
                    src: s,
                });
            }
            LirInsn::IncPc { imm } => {
                // Flag-preserving PC advance: `lea imm(%r15), %r15` rather
                // than an `add`, so a (possibly coalesced) PC update can sit
                // between a flag writer and its reader without clobbering
                // the host flags.
                self.out.push(MachInsn::Lea {
                    dst: Gpr::R15,
                    addr: MemRef::base_disp(Gpr::R15, *imm as i32),
                });
            }
            LirInsn::SetArg { index, src } => {
                let dst = ARG_GPRS[*index as usize];
                match self.operand(src) {
                    Operand::Reg(r) => self.out.push(MachInsn::MovReg { dst, src: r }),
                    Operand::Imm(i) => self.out.push(MachInsn::MovImm { dst, imm: i }),
                }
            }
            LirInsn::CallHelper { helper } => {
                self.out.push(MachInsn::CallHelper { helper: *helper });
            }
            LirInsn::ReadRet { dst } => {
                let (d, sb) = self.def_gpr(*dst);
                self.push(
                    MachInsn::MovReg {
                        dst: d,
                        src: Gpr::Rax,
                    },
                    sb,
                );
            }
            LirInsn::Ret => self.out.push(MachInsn::Ret),
            LirInsn::LoadXmm { dst, addr, size } => {
                let a = self.mem(addr);
                let (d, sb) = self.def_xmm(*dst);
                self.push(
                    MachInsn::LoadXmm {
                        dst: d,
                        addr: a,
                        size: *size,
                    },
                    sb,
                );
            }
            LirInsn::StoreXmm { src, addr, size } => {
                let s = self.use_xmm(*src);
                let a = self.mem(addr);
                self.out.push(MachInsn::StoreXmm {
                    src: s,
                    addr: a,
                    size: *size,
                });
            }
            LirInsn::GprToXmm { dst, src } => {
                let s = self.use_gpr(*src);
                let (d, sb) = self.def_xmm(*dst);
                self.push(MachInsn::MovGprToXmm { dst: d, src: s }, sb);
            }
            LirInsn::XmmToGpr { dst, src } => {
                let s = self.use_xmm(*src);
                let (d, sb) = self.def_gpr(*dst);
                self.push(MachInsn::MovXmmToGpr { dst: d, src: s }, sb);
            }
            LirInsn::Fp { op, dst, src } => {
                let s = self.use_xmm(*src);
                let (d, sb) = self.rmw_xmm(*dst);
                self.push(
                    MachInsn::Fp {
                        op: *op,
                        dst: d,
                        src: s,
                    },
                    sb,
                );
            }
            LirInsn::FpFma { dst, a, b } => {
                let av = self.use_xmm(*a);
                let bv = self.use_xmm(*b);
                let (d, sb) = self.rmw_xmm(*dst);
                self.push(
                    MachInsn::FpFma {
                        dst: d,
                        a: av,
                        b: bv,
                    },
                    sb,
                );
            }
            LirInsn::FpCmp { a, b } => {
                let av = self.use_xmm(*a);
                let bv = self.use_xmm(*b);
                self.out.push(MachInsn::FpCmp { a: av, b: bv });
            }
            LirInsn::CvtI2D { dst, src } => {
                let s = self.use_gpr(*src);
                let (d, sb) = self.def_xmm(*dst);
                self.push(MachInsn::CvtI2D { dst: d, src: s }, sb);
            }
            LirInsn::CvtD2I { dst, src } => {
                let s = self.use_xmm(*src);
                let (d, sb) = self.def_gpr(*dst);
                self.push(MachInsn::CvtD2I { dst: d, src: s }, sb);
            }
            LirInsn::Vec { op, dst, src } => {
                let s = self.use_xmm(*src);
                let (d, sb) = self.rmw_xmm(*dst);
                self.push(
                    MachInsn::Vec {
                        op: *op,
                        dst: d,
                        src: s,
                    },
                    sb,
                );
            }
            LirInsn::TraceEdge => self.out.push(MachInsn::TraceEdge),
            LirInsn::BackEdge {
                pc,
                label,
                reconcile,
            } => {
                self.tables.fixups.push((self.out.len(), *label));
                self.out.push(MachInsn::BackEdge {
                    pc: *pc,
                    target: 0,
                    reconcile: *reconcile,
                });
            }
            LirInsn::MovXmm { dst, src, size } => {
                let s = self.use_xmm(*src);
                let (d, sb) = self.def_xmm(*dst);
                // As for `MovReg`: one register for both is the hand-over of
                // a pure 128-bit copy.  A 64-bit move zeroes the upper lane,
                // so it runs even onto itself.
                if d == s && *size == MemSize::U128 {
                    return;
                }
                self.push(
                    MachInsn::MovXmm {
                        dst: d,
                        src: s,
                        size: *size,
                    },
                    sb,
                );
            }
        }
    }
}

/// Lowers allocated LIR to machine instructions, skipping dead instructions
/// and patching relative jumps.  Fails with a [`LowerError`] if any live
/// virtual register has no assignment or any jump targets an unbound label
/// — the caller must discard the translation and fall back (see the module
/// docs).
pub fn lower(lir: &[LirInsn], alloc: &Allocation) -> Result<Vec<MachInsn>, LowerError> {
    crate::with_scratch(|s| lower_in(&mut s.lower, lir, alloc))
}

/// [`lower`] in the caller's scratch.
pub(crate) fn lower_in(
    tables: &mut LowerScratch,
    lir: &[LirInsn],
    alloc: &Allocation,
) -> Result<Vec<MachInsn>, LowerError> {
    if alloc.splits.is_empty() {
        lower_with::<false>(tables, lir, alloc)
    } else {
        lower_with::<true>(tables, lir, alloc)
    }
}

/// [`lower_in`] for a unit whose allocation split ranges or (`SPLITS`
/// false) did not.
fn lower_with<const SPLITS: bool>(
    tables: &mut LowerScratch,
    lir: &[LirInsn],
    alloc: &Allocation,
) -> Result<Vec<MachInsn>, LowerError> {
    let mut l = Lowerer::<SPLITS>::new(alloc, lir.len(), tables);
    for (i, insn) in lir.iter().enumerate() {
        l.step(i, insn);
    }
    if let Some(err) = l.error {
        return Err(err);
    }
    // Patch jumps: targets are relative to the jump's own index.
    for &(pos, label) in &l.tables.fixups {
        let Some(target_pos) = l.tables.label_pos.get(label as usize).copied().flatten() else {
            return Err(LowerError::UnboundLabel { label });
        };
        let rel = target_pos as i32 - pos as i32;
        match &mut l.out[pos] {
            MachInsn::Jmp { target } => *target = rel,
            MachInsn::Jcc { target, .. } => *target = rel,
            MachInsn::BackEdge { target, .. } => *target = rel,
            _ => {}
        }
    }
    Ok(l.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LirMem, Vreg, VregClass};
    use crate::opt::{optimize_in, Caps, CAPS};
    use crate::probe::{probed, unit_rig};
    use crate::regalloc::allocate;
    use crate::units::{every_vreg_in_its_own_slot, fp_loop_unit, runnable_unit, unit};

    #[test]
    fn lowers_the_add_example_to_machine_code() {
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
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
                op: hvm::AluOp::Add,
                dst: v(2),
                src: LirOperand::Vreg(v(1)),
            },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::IncPc { imm: 4 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        assert!(matches!(code.last(), Some(MachInsn::Ret)));
        // The PC increment lowers onto %r15 directly, flag-preserving.
        assert!(code.iter().any(|i| matches!(
            i,
            MachInsn::Lea {
                dst: Gpr::R15,
                addr: MemRef {
                    base: Gpr::R15,
                    index: None,
                    disp: 4,
                },
            }
        )));
        // Register-file accesses use %rbp as base.
        assert!(code.iter().any(|i| matches!(
            i,
            MachInsn::Load { addr, .. } if addr.base == Gpr::Rbp && addr.disp == 0x108
        )));
    }

    #[test]
    fn an_unassigned_vreg_is_a_typed_error_not_silent_code() {
        // Hand-build an allocation that forgot v(1): the old behaviour
        // silently substituted %rax; now the translation must be refused so
        // the engine can fall back.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let mut alloc = allocate(&lir);
        alloc.assignment.remove(1);
        let err = lower(&lir, &alloc).unwrap_err();
        assert_eq!(err, LowerError::UnassignedVreg { vreg: 1 });
        assert!(err.to_string().contains("v1"));
    }

    #[test]
    fn a_jump_to_an_unbound_label_is_a_typed_error_not_a_jump_past_the_end() {
        // Label 3 is never bound: the old resolution silently aimed the Jcc
        // one past the end of the block.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        for jump in [
            LirInsn::Jcc {
                cond: hvm::Cond::Eq,
                label: 3,
            },
            LirInsn::Jmp { label: 3 },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 3,
                reconcile: false,
            },
        ] {
            let lir = vec![
                LirInsn::MovImm { dst: v(0), imm: 1 },
                LirInsn::Test {
                    a: v(0),
                    b: LirOperand::Vreg(v(0)),
                },
                jump,
                LirInsn::Label { id: 0 },
                LirInsn::Ret,
            ];
            let alloc = allocate(&lir);
            let err = lower(&lir, &alloc).unwrap_err();
            assert_eq!(err, LowerError::UnboundLabel { label: 3 }, "{jump:?}");
            assert!(err.to_string().contains("label 3"));
        }
    }

    #[test]
    fn sparse_vreg_and_label_ids_allocate_and_lower() {
        // Ids are table indices now, but their bound comes from the unit,
        // not from the emitter's counters: non-contiguous, large ids work.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let lir = vec![
            LirInsn::MovImm {
                dst: v(1_000),
                imm: 7,
            },
            LirInsn::MovImm {
                dst: v(5_000),
                imm: 9,
            },
            LirInsn::Label { id: 5_000 },
            LirInsn::Alu {
                op: hvm::AluOp::Sub,
                dst: v(5_000),
                src: LirOperand::Imm(1),
            },
            LirInsn::Jcc {
                cond: hvm::Cond::Eq,
                label: 1_000,
            },
            LirInsn::Store {
                src: v(1_000),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Jmp { label: 5_000 },
            LirInsn::Label { id: 1_000 },
            LirInsn::Store {
                src: v(5_000),
                addr: LirMem::regfile(16),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead.iter().all(|d| !d));
        let (a, b) = (alloc.assignment[1_000], alloc.assignment[5_000]);
        assert!(matches!(a, crate::regalloc::Assignment::Gpr(_)));
        assert!(matches!(b, crate::regalloc::Assignment::Gpr(_)));
        assert_ne!(a, b, "both values are live across the loop");
        assert_eq!(alloc.assignment.iter().count(), 2);
        let code = lower(&lir, &alloc).expect("sparse ids lower");
        // MovImm, MovImm, Sub, Jcc, Store, Jmp, Store, Ret: the labels
        // vanish and both jumps land on the instruction after their label.
        assert_eq!(code.len(), 8);
        let target = |at: usize| match code[at] {
            MachInsn::Jcc { target, .. } | MachInsn::Jmp { target } => {
                (at as i32 + target) as usize
            }
            ref other => panic!("not a jump: {other:?}"),
        };
        assert!(matches!(code[target(3)], MachInsn::Store { addr, .. } if addr.disp == 16));
        assert!(matches!(code[target(5)], MachInsn::Alu { .. }));
    }

    #[test]
    fn dead_instructions_are_skipped() {
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let lir = vec![LirInsn::MovImm { dst: v(0), imm: 7 }, LirInsn::Ret];
        let alloc = allocate(&lir);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        assert_eq!(code.len(), 1, "only the Ret survives");
    }

    #[test]
    fn labels_resolve_to_relative_targets() {
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Jcc {
                cond: hvm::Cond::Eq,
                label: 0,
            },
            LirInsn::SetPcImm { imm: 0x1000 },
            LirInsn::Label { id: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        let jcc_pos = code
            .iter()
            .position(|i| matches!(i, MachInsn::Jcc { .. }))
            .unwrap();
        if let MachInsn::Jcc { target, .. } = code[jcc_pos] {
            let dest = (jcc_pos as i32 + target) as usize;
            assert!(matches!(code[dest], MachInsn::Ret));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn a_coalesced_copy_between_a_jump_and_its_label_disappears() {
        // v1 = mov v0 at v0's last index: the allocator hands v0's register
        // over and the move lowers to nothing.  It sits between the Jcc and
        // its Label, so the jump's relative target shrinks with it and must
        // still land on the instruction after the label.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Jcc {
                cond: hvm::Cond::Eq,
                label: 0,
            },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Label { id: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(alloc.assignment[1], alloc.assignment[0]);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        // MovImm, Test, Jcc, Store, Ret.
        assert_eq!(code.len(), 5, "{code:?}");
        assert!(!code.iter().any(|i| matches!(i, MachInsn::MovReg { .. })));
        let MachInsn::Jcc { target, .. } = code[2] else {
            panic!("not a jump: {:?}", code[2]);
        };
        assert!(matches!(code[(2 + target) as usize], MachInsn::Ret));
    }

    #[test]
    fn spilled_two_address_destinations_are_stored_back() {
        // Regression: a CmovCc (or any read-modify-write form) whose
        // destination spilled must write the scratch register back to the
        // spill slot — including when the conditional move is not taken,
        // since the reload preserved the old value.  Saturate the pool so
        // the late-defined destination spills: every pool value is read
        // again before the destination's next use, so no range is worth
        // splitting for it.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let n = crate::lir::GPR_POOL.len() as u32;
        let store = |i: u32| LirInsn::Store {
            src: v(i),
            addr: LirMem::regfile((i * 8) as i32),
            size: MemSize::U64,
        };
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        lir.push(LirInsn::MovImm { dst: v(n), imm: 99 });
        lir.extend((0..n).map(store));
        lir.push(LirInsn::Test {
            a: v(0),
            b: LirOperand::Vreg(v(0)),
        });
        lir.push(LirInsn::CmovCc {
            cond: hvm::Cond::Ne,
            dst: v(n),
            src: v(1),
        });
        lir.extend((0..=n).map(store));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(
            matches!(alloc.assignment[n], crate::regalloc::Assignment::Spill(_)),
            "the CmovCc destination must have spilled for this regression"
        );
        let code = lower(&lir, &alloc).expect("assignments are complete");
        let cmov_pos = code
            .iter()
            .position(|i| matches!(i, MachInsn::CmovCc { .. }))
            .unwrap();
        assert!(
            matches!(
                code[cmov_pos + 1],
                MachInsn::Store { addr, .. } if addr.base == Gpr::Rbp && addr.disp < 0
            ),
            "the spilled CmovCc result must be stored back, got {:?}",
            &code[cmov_pos..cmov_pos + 2]
        );
    }

    #[test]
    fn spilled_values_roundtrip_through_the_spill_area() {
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        // Create enough overlapping live ranges to force spilling, then make
        // sure every value still reaches its store.
        let n = crate::lir::GPR_POOL.len() as u32 + 3;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: 100 + i as u64,
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
        assert!(alloc.spill_slots > 0);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        // Spill stores target the spill area below the register file.
        assert!(code.iter().any(|i| matches!(
            i,
            MachInsn::Store { addr, .. } if addr.base == Gpr::Rbp && addr.disp < 0
        )));
    }

    /// Holds `got` to `want` on [`unit_rig`]: the same exit, register
    /// file, guest memory and guest PC.  `false` when both ran out of fuel
    /// (a random loop that never ends).
    fn runs_like(got: &[MachInsn], want: &[MachInsn]) -> Result<bool, String> {
        unit_rig(20_000).compare((got, &[]), (want, &[]), 0)
    }

    /// Random units of every shape from seeds `1..seeds`: (seed, shape,
    /// vreg count, length).
    fn corpus(seeds: u64) -> impl Iterator<Item = (u64, usize, u64, u64)> {
        (1..seeds).flat_map(|seed| {
            (0..6).map(move |shape| (seed * 0x9E37_79B9, shape, 3 + seed % 45, 20 + seed % 100))
        })
    }

    /// What lowering emits for `lir[..end]` (jumps not yet patched).
    fn lowered_prefix(lir: &[LirInsn], alloc: &Allocation, end: usize) -> Vec<MachInsn> {
        let mut tables = LowerScratch::default();
        let mut l = Lowerer::<true>::new(alloc, lir.len(), &mut tables);
        for (i, insn) in lir[..end].iter().enumerate() {
            l.step(i, insn);
        }
        l.out
    }

    #[test]
    fn every_allocation_runs_like_every_vreg_in_its_own_slot() {
        // The oracle is the allocation nothing can get wrong: every vreg in
        // a spill slot of its own, nothing dead, nothing split.  Every
        // runnable unit and looping FP / vector unit, lowered with the
        // splitting scan and with the unsplit one, ends the same way with
        // the same register file, guest memory and guest PC as lowered with
        // the oracle.  The oracle shares no rule with the allocator, so a
        // rule broken shows as a different end state: a range that ends too
        // early, a loop-carried value's register handed to a loop-local
        // one, a copy hand-over from a source still live, a split store left
        // out or bypassed by a jump, a split of a loop-carried range.
        // Reloading and storing back every operand, the oracle executes up
        // to a few times the host instructions, so the rig gives each run
        // five times the 20 000 of the other tests' rig.  A unit whose
        // oracle runs out of them is not compared (a random loop that never
        // ends); an allocation that runs out where the oracle did not fails.
        let mut rig = unit_rig(100_000);
        let (mut compared, mut split, mut split_loops, mut swept) = (0, 0, 0, 0);
        let runnable = corpus(450)
            .map(|(seed, shape, nv, len)| ((seed, shape), runnable_unit(seed, shape, nv, len)));
        let fp = (1..300u64).map(|seed| {
            let lir = fp_loop_unit(seed * 0x9E37_79B9, 8 + seed % 40, 20 + seed % 100);
            ((seed, 6), lir) // "shape 6": the looping FP unit of `seed`
        });
        for ((seed, shape), lir) in runnable.chain(fp) {
            let own_slots = every_vreg_in_its_own_slot(&lir);
            let want = lower(&lir, &own_slots).expect("every vreg has a slot");
            if rig.run(&probed(&want), &[], None).is_none() {
                continue;
            }
            for alloc in [allocate(&lir), crate::regalloc::allocate_unsplit(&lir)] {
                let code = lower(&lir, &alloc).expect("assignments are complete");
                rig.compare((&code, &[]), (&want, &[]), 0)
                    .unwrap_or_else(|e| panic!("seed {seed:#x} shape {shape}: {e}: {lir:?}"));
                compared += 1;
                if !alloc.splits.is_empty() {
                    split += 1;
                    split_loops += (shape >= 2) as u32;
                }
                swept += alloc.dead.contains(&true) as u32;
            }
        }
        assert!(
            compared >= 5_000 && split >= 250 && split_loops >= 100 && swept >= 2_500,
            "{compared} runs compared, {split} of them split ({split_loops} in a loop), \
             {swept} with dead instructions"
        );
    }

    #[test]
    fn xmm_carriers_run_like_the_vector_slots_they_replace() {
        // Promotion moves vector register-file slots into host vector
        // registers, never what a unit computes: every looping FP / vector
        // unit, optimised with vector carriers, with general-purpose carriers
        // only and without promotion, ends the same way with the same
        // register file — general-purpose and vector slots — guest memory and
        // guest PC.  The oracle knows nothing of carriers: a compensation
        // store left out, a scalar write whose upper half is not zeroed, a
        // 64-bit copy folded as a full one or a carrier written through past
        // an observer reads the wrong bytes.
        let (mut promoted, mut dirty) = (0, 0);
        for seed in 1..300u64 {
            let lir = fp_loop_unit(seed * 0x9E37_79B9, 8 + seed % 40, 20 + seed % 100);
            let lowered = |caps| {
                let mut lir = lir.clone();
                let stats = crate::with_scratch(|s| optimize_in(s, &mut lir, caps, None));
                let code = lower(&lir, &allocate(&lir)).expect("assignments are complete");
                (stats, code)
            };
            let (with, code) = lowered(Some(CAPS));
            let gpr_only = Caps {
                xmm: (0, 0),
                ..CAPS
            };
            let (without, gpr_code) = lowered(Some(gpr_only));
            let (_, unpromoted) = lowered(None);
            let ran = [gpr_code, unpromoted].map(|want| {
                runs_like(&code, &want).unwrap_or_else(|e| panic!("seed {seed}: {e}: {lir:?}"))
            });
            if ran != [true; 2] {
                continue;
            }
            promoted += (with.jit.opt_promoted_slots > without.jit.opt_promoted_slots) as u32;
            dirty += with.promoted.iter().any(|p| p.1.class == VregClass::Xmm) as u32;
        }
        assert!(
            promoted > 250 && dirty > 250,
            "vector carriers in {promoted} units, dirty ones in {dirty}"
        );
    }

    #[test]
    fn a_unit_whose_unsplit_allocation_spills_nothing_lowers_byte_identically() {
        // A split happens only where the pool has run out, so a unit the
        // unsplit scan holds in registers is allocated and lowered exactly
        // as before splitting existed.
        let mut fits = 0;
        for (seed, shape, nv, len) in corpus(250) {
            let lir = unit(seed, shape, nv, len);
            let unsplit = crate::regalloc::allocate_unsplit(&lir);
            if unsplit.spill_slots > 0 {
                continue;
            }
            fits += 1;
            let alloc = allocate(&lir);
            assert!(alloc.splits.is_empty());
            assert_eq!(
                lower(&lir, &alloc),
                lower(&lir, &unsplit),
                "seed {seed:#x} shape {shape}"
            );
        }
        assert!(fits > 200, "{fits} units fit the pool");
    }

    #[test]
    fn host_code_before_the_first_split_index_is_the_unsplit_scans() {
        // Up to the first split the two scans made the same decisions, so
        // everything lowered for the instructions before that index — jump
        // displacements aside, which depend on what follows — is the same.
        let mut compared = 0;
        for (seed, shape, nv, len) in corpus(250) {
            let lir = unit(seed, shape, nv, len);
            let alloc = allocate(&lir);
            let Some(first) = alloc.splits.first() else {
                continue;
            };
            let unsplit = crate::regalloc::allocate_unsplit(&lir);
            let at = first.at as usize;
            assert_eq!(
                lowered_prefix(&lir, &alloc, at),
                lowered_prefix(&lir, &unsplit, at),
                "seed {seed:#x} shape {shape}, first split at #{at}"
            );
            // ... and the split's store is the first thing that differs.
            let with_store = lowered_prefix(&lir, &alloc, at + 1);
            let MachInsn::Store { addr, .. } = with_store[lowered_prefix(&lir, &alloc, at).len()]
            else {
                panic!("seed {seed:#x} shape {shape}: no split store at #{at}");
            };
            assert_eq!(addr, Lowerer::<true>::spill_slot_addr(first.slot));
            compared += 1;
        }
        assert!(compared > 100, "{compared} units split");
    }

    #[test]
    fn a_split_stores_its_register_right_before_the_split_index() {
        // v0..v7 fill the pool; v8 is read right after its definition, v7
        // only at the very end, so v7 is split where v8 starts: v8 takes its
        // register, and v7 is stored to a slot first and read from it after.
        let v = |id| Vreg {
            id,
            class: VregClass::Gpr,
        };
        let n = crate::lir::GPR_POOL.len() as u32;
        let store = |i: u32| LirInsn::Store {
            src: v(i),
            addr: LirMem::regfile((i * 8) as i32),
            size: MemSize::U64,
        };
        let mut lir: Vec<LirInsn> = (0..=n)
            .map(|i| LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            })
            .collect();
        lir.extend((0..n - 1).chain([n, n - 1]).map(store));
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        let split = crate::regalloc::Split {
            vreg: n - 1,
            at: n,
            slot: 0,
        };
        assert_eq!(alloc.splits, [split]);
        assert_eq!(alloc.spill_slots, 1);
        assert_eq!(alloc.assignment[n], alloc.assignment[n - 1]);
        let Assignment::Gpr(reg) = alloc.assignment[n - 1] else {
            panic!("v{} holds a register before the split", n - 1);
        };
        let slot = Lowerer::<true>::spill_slot_addr(0);
        let code = lower(&lir, &alloc).expect("assignments are complete");
        // n MovImms, the split store, v8's MovImm; then the stores, the
        // last of them through a reload of the slot.
        assert_eq!(
            code[n as usize],
            MachInsn::Store {
                src: reg,
                addr: slot,
                size: MemSize::U64
            }
        );
        assert!(
            matches!(code[n as usize + 1], MachInsn::MovImm { dst, imm } if dst == reg && imm == n as u64)
        );
        let reload = code.len() - 3;
        assert!(matches!(code[reload], MachInsn::Load { addr, .. } if addr == slot));
        let unsplit = lower(&lir, &crate::regalloc::allocate_unsplit(&lir)).unwrap();
        assert_eq!(runs_like(&code, &unsplit), Ok(true));
    }
}
