//! The cycle cost model used for all simulated-time results.
//!
//! The paper reports wall-clock time on real hardware.  This reproduction
//! replaces the hardware with the HVM64 simulator, so "time" becomes the sum
//! of per-event costs defined here.  The constants are loosely calibrated to
//! a modern out-of-order x86 core (latencies, not throughput) — what matters
//! for reproducing the paper's *shape* is the relative cost of a plain memory
//! access vs. an inline software-TLB lookup vs. a helper call vs. a page
//! walk, because those are the mechanisms Captive and QEMU differ on.

use crate::insn::{AluOp, FpOp, MachInsn};

/// Per-event cycle costs.  All simulated-time figures derive from one
/// instance of this structure so experiments stay comparable.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Simple register-to-register ALU operation.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// L1-hit memory access (load or store), excluding translation costs.
    pub mem: u64,
    /// Scalar floating-point add/sub/mul.
    pub fp: u64,
    /// Scalar floating-point divide or square root.
    pub fp_div: u64,
    /// Packed (SIMD) operation.
    pub vec: u64,
    /// Taken or not-taken direct branch.
    pub branch: u64,
    /// Indirect branch through a register.
    pub branch_indirect: u64,
    /// Fixed overhead of calling a runtime helper (register save/restore,
    /// call/ret, argument marshalling) — the cost QEMU pays on every softfloat
    /// or softmmu slow-path invocation.
    pub helper_call: u64,
    /// Hardware TLB hit (added to `mem`).
    pub tlb_hit: u64,
    /// Hardware TLB miss: page-walk cost per level touched.
    pub page_walk_per_level: u64,
    /// Per-block dispatch overhead in the execution engine (looking up the
    /// next translation and jumping to it).
    pub dispatch: u64,
    /// Entering a block through a patched direct chain link: a single jump
    /// between translations, with no dispatcher involvement (Section 2.6).
    pub chain: u64,
    /// Passing from one stitched constituent of a region to the next:
    /// internal fallthrough inside one translation — at most as cheap as a
    /// chained transfer, since not even an inter-translation jump is needed.
    pub region_transfer: u64,
    /// A region-internal backward transfer (the loop-back edge of a looping
    /// region): a single predicted-taken branch inside one translation, with
    /// the guest PC update folded into the jump.  At most as expensive as a
    /// chained transfer — the whole point of keeping the loop inside one
    /// region is that not even an inter-translation jump is paid.
    pub backedge: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 3,
            div: 24,
            mem: 4,
            fp: 4,
            fp_div: 20,
            vec: 2,
            branch: 1,
            branch_indirect: 4,
            helper_call: 40,
            tlb_hit: 0,
            page_walk_per_level: 20,
            dispatch: 12,
            chain: 1,
            region_transfer: 1,
            backedge: 1,
        }
    }
}

impl CostModel {
    /// Base execution cost of one machine instruction, excluding memory
    /// translation penalties (TLB misses, faults) and helper bodies, which
    /// are accounted separately by the machine.
    #[inline(always)]
    pub fn insn_cost(&self, insn: &MachInsn) -> u64 {
        match insn {
            MachInsn::MovImm { .. } | MachInsn::MovReg { .. } | MachInsn::Lea { .. } => self.alu,
            MachInsn::Load { .. }
            | MachInsn::LoadSx { .. }
            | MachInsn::Store { .. }
            | MachInsn::StoreImm { .. }
            | MachInsn::LoadXmm { .. }
            | MachInsn::StoreXmm { .. } => self.mem,
            MachInsn::Alu { op, .. } => match op {
                AluOp::Mul | AluOp::MulHiS | AluOp::MulHiU => self.mul,
                AluOp::DivS | AluOp::DivU => self.div,
                _ => self.alu,
            },
            MachInsn::Cmp { .. }
            | MachInsn::Test { .. }
            | MachInsn::Neg { .. }
            | MachInsn::Not { .. }
            | MachInsn::MovZx { .. }
            | MachInsn::MovSx { .. }
            | MachInsn::SetCc { .. }
            | MachInsn::CmovCc { .. } => self.alu,
            MachInsn::Jmp { .. } | MachInsn::Jcc { .. } => self.branch,
            MachInsn::Ret => self.branch_indirect,
            MachInsn::CallHelper { .. } => self.helper_call,
            MachInsn::MovGprToXmm { .. } | MachInsn::MovXmmToGpr { .. } => self.alu,
            MachInsn::MovXmm { .. } => self.alu,
            MachInsn::Fp { op, .. } => match op {
                FpOp::DivD | FpOp::SqrtD => self.fp_div,
                _ => self.fp,
            },
            MachInsn::FpFma { .. } => self.fp,
            MachInsn::FpCmp { .. } => self.fp,
            MachInsn::CvtI2D { .. } | MachInsn::CvtD2I { .. } => self.fp,
            MachInsn::Vec { .. } => self.vec,
            MachInsn::TraceEdge => self.region_transfer,
            MachInsn::BackEdge { .. } => self.backedge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Gpr, MemRef, MemSize};

    #[test]
    fn relative_costs_are_sane() {
        let c = CostModel::default();
        assert!(
            c.helper_call > c.mem,
            "helper calls must dominate plain loads"
        );
        assert!(c.div > c.mul && c.mul >= c.alu);
        assert!(c.page_walk_per_level > c.mem);
        assert!(
            c.chain < c.dispatch,
            "chained transfers must be cheaper than dispatches"
        );
        assert!(
            c.region_transfer <= c.chain,
            "intra-region transfers must not exceed the chain cost"
        );
        assert!(
            c.backedge <= c.chain,
            "region-internal back-edges must not exceed the chain cost"
        );
    }

    #[test]
    fn insn_cost_uses_the_right_categories() {
        let c = CostModel::default();
        let load = MachInsn::Load {
            dst: Gpr::Rax,
            addr: MemRef::base(Gpr::Rbp),
            size: MemSize::U64,
        };
        assert_eq!(c.insn_cost(&load), c.mem);
        assert_eq!(
            c.insn_cost(&MachInsn::CallHelper { helper: 0 }),
            c.helper_call
        );
        assert_eq!(
            c.insn_cost(&MachInsn::Alu {
                op: AluOp::DivU,
                dst: Gpr::Rax,
                src: crate::insn::Operand::imm(3)
            }),
            c.div
        );
        assert_eq!(
            c.insn_cost(&MachInsn::Fp {
                op: FpOp::SqrtD,
                dst: crate::insn::Xmm(0),
                src: crate::insn::Xmm(1)
            }),
            c.fp_div
        );
    }
}
