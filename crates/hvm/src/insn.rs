//! The HVM64 instruction set.
//!
//! These are the instructions the DBT back-ends emit.  The shapes follow
//! x86-64 closely enough that the paper's code examples (Figs. 10, 12, 13)
//! map one-to-one: a guest-register-file base pointer lives in [`Gpr::Rbp`],
//! the emulated guest program counter in [`Gpr::R15`], memory operands use
//! base + scaled-index + displacement addressing, and scalar / packed
//! floating-point work happens in [`Xmm`] registers.
//!
//! # Sixteen bytes an instruction
//!
//! The code cache holds translations as the [`MachInsn`] values the
//! machine runs, so the size of one `MachInsn` is the size of resident
//! translated code.  It is 16 bytes (a `const` assertion holds it): a tag
//! byte and at most 15 bytes of fields.  Two operand types are packed to
//! get there:
//!
//! - [`Operand`] is 12 bytes: its immediate is an [`Imm64`] at 4-byte
//!   alignment, so `Alu` / `Cmp` / `Test` are tag, op and register in the
//!   first four bytes and the operand in the other twelve.
//! - [`MemRef`] is 6 bytes at 2-byte alignment (index and scale share one
//!   byte), so `StoreImm` is tag, size and address in the first eight bytes
//!   and its 64-bit immediate in the other eight.
//!
//! Immediates keep all 64 bits.  On the benchmark's `cold_code` image
//! (seed 1) Captive's code carries 3 307 `StoreImm` values and 7 609
//! `Alu` / `Cmp` / `Test` immediates that a sign-extended imm32 cannot
//! hold, and the QEMU-style baseline's 3 863 and 8 462; narrowing them
//! would change the generated code.  At 24 bytes the 920 051 instructions
//! Captive keeps resident there took 21.1 MiB, 3.4 times the 6.1 MiB their
//! encoding measures, and the baseline's 1 537 433 took 35.2 MiB of its
//! 41.1 MiB live heap.

use std::fmt;
use std::num::NonZeroU8;

/// General-purpose host registers (x86-64 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Gpr {
    /// Return / scratch register.
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    /// Host stack pointer (reserved by the execution engine).
    Rsp = 4,
    /// Guest register-file base pointer (reserved by both DBT back-ends).
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    /// Emulated guest program counter (reserved by both DBT back-ends).
    R15 = 15,
}

impl Gpr {
    /// All sixteen registers in encoding order.
    pub const ALL: [Gpr; 16] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsp,
        Gpr::Rbp,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// Registers available to the register allocator (everything except the
    /// reserved stack pointer, guest register file base and guest PC).
    pub const ALLOCATABLE: [Gpr; 13] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
    ];

    /// Encoding index of the register.
    pub fn index(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        write!(f, "%{}", names[*self as usize])
    }
}

/// Vector (SSE-like) host registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xmm(pub u8);

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%xmm{}", self.0)
    }
}

/// Width of a memory access or sub-register operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 8 bits.
    U8,
    /// 16 bits.
    U16,
    /// 32 bits.
    U32,
    /// 64 bits.
    U64,
    /// 128 bits (vector only).
    U128,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::U8 => 1,
            MemSize::U16 => 2,
            MemSize::U32 => 4,
            MemSize::U64 => 8,
            MemSize::U128 => 16,
        }
    }

    /// Mask selecting the low `bytes()` bytes of a 64-bit value.
    pub fn mask(self) -> u64 {
        match self {
            MemSize::U8 => 0xFF,
            MemSize::U16 => 0xFFFF,
            MemSize::U32 => 0xFFFF_FFFF,
            MemSize::U64 | MemSize::U128 => u64::MAX,
        }
    }
}

/// A memory operand: `disp + base + index * scale`.
///
/// Six bytes at 2-byte alignment: the base register, the index register and
/// scale packed into one byte (`index | log2(scale) << 6`, as the encoder
/// writes them, plus a presence bit so that "no index" is the zero byte and
/// the `Option` costs nothing), and the displacement.  Build one with
/// [`MemRef::base_disp`] / [`MemRef::base_index`]; read the packed fields
/// through [`MemRef::index`] and [`MemRef::disp`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(2))]
pub struct MemRef {
    /// Base register.
    pub base: Gpr,
    index: Option<NonZeroU8>,
    disp: i32,
}

/// The bit of a packed index byte that says an index is present (the
/// register takes bits 0..4, log2 of the scale bits 6..8).
const INDEX_PRESENT: u8 = 0x10;

impl MemRef {
    /// A base-plus-displacement reference.
    pub fn base_disp(base: Gpr, disp: i32) -> Self {
        MemRef {
            base,
            index: None,
            disp,
        }
    }

    /// A reference to `[base]`.
    pub fn base(base: Gpr) -> Self {
        Self::base_disp(base, 0)
    }

    /// A base + index*scale + disp reference.  `scale` is 1, 2, 4 or 8.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> Self {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "scale {scale} is not 1, 2, 4 or 8"
        );
        let packed = index.index() | INDEX_PRESENT | (scale.trailing_zeros() as u8) << 6;
        MemRef {
            base,
            index: NonZeroU8::new(packed),
            disp,
        }
    }

    /// The scaled index register and its scale, if any.
    pub fn index(&self) -> Option<(Gpr, u8)> {
        let packed = self.index?.get();
        Some((Gpr::ALL[(packed & 0xF) as usize], 1 << (packed >> 6)))
    }

    /// The signed displacement.
    pub fn disp(&self) -> i32 {
        self.disp
    }
}

impl fmt::Debug for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemRef")
            .field("base", &self.base)
            .field("index", &self.index())
            .field("disp", &self.disp())
            .finish()
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (base, disp) = (self.base, self.disp());
        match self.index() {
            Some((idx, scale)) => write!(f, "{disp:#x}({base},{idx},{scale})"),
            None => write!(f, "{disp:#x}({base})"),
        }
    }
}

/// A 64-bit immediate stored at 4-byte alignment, so that an [`Operand`] is
/// 12 bytes and fits beside an opcode and a register in a 16-byte
/// [`MachInsn`].  All 64 bits are kept: nothing narrows it to x86's imm32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(4))]
pub struct Imm64(u64);

impl Imm64 {
    /// The immediate's value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A register-or-immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Gpr),
    /// A 64-bit immediate.
    Imm(Imm64),
}

impl Operand {
    /// The immediate operand `v`.
    pub fn imm(v: u64) -> Self {
        Operand::Imm(Imm64(v))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "${:#x}", v.get()),
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Signed multiply (low 64 bits).
    Mul,
    /// Unsigned multiply returning the high 64 bits.
    MulHiU,
    /// Signed multiply returning the high 64 bits.
    MulHiS,
    /// Unsigned divide.
    DivU,
    /// Signed divide.
    DivS,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

/// Condition codes for `Jcc`, `SetCc` and `CmovCc`, mirroring the x86 set the
/// back-ends need for AArch64 condition fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF).
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned lower (CF).
    Lt,
    /// Unsigned lower or equal.
    Le,
    /// Unsigned higher or same.
    Ge,
    /// Unsigned higher.
    Gt,
    /// Signed less than.
    SLt,
    /// Signed less or equal.
    SLe,
    /// Signed greater or equal.
    SGe,
    /// Signed greater.
    SGt,
    /// Negative (SF).
    Mi,
    /// Non-negative.
    Pl,
    /// Overflow set.
    Vs,
    /// Overflow clear.
    Vc,
}

impl Cond {
    /// The condition that is true exactly when `self` is false.
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Ge => Cond::Lt,
            Cond::Gt => Cond::Le,
            Cond::SLt => Cond::SGe,
            Cond::SLe => Cond::SGt,
            Cond::SGe => Cond::SLt,
            Cond::SGt => Cond::SLe,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
        }
    }
}

/// Scalar floating-point operations on vector registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Scalar double add (`addsd`).
    AddD,
    SubD,
    MulD,
    DivD,
    SqrtD,
}

/// Packed (SIMD) float operations, two 64-bit lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// Packed double-precision add.
    AddPd,
    /// Packed double-precision multiply.
    MulPd,
    /// Broadcast the low 64 bits to both lanes.
    Dup64,
}

/// One HVM64 machine instruction.
///
/// Register operands here are *physical* registers; the DBT's low-level IR
/// uses the same opcodes with virtual registers and is lowered onto this type
/// by register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachInsn {
    /// `dst <- imm`.
    MovImm { dst: Gpr, imm: u64 },
    /// `dst <- src`.
    MovReg { dst: Gpr, src: Gpr },
    /// Zero-extending load from virtual memory.
    Load {
        dst: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Sign-extending load from virtual memory.
    LoadSx {
        dst: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Store to virtual memory.
    Store {
        src: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Store an immediate to virtual memory.
    StoreImm {
        imm: u64,
        addr: MemRef,
        size: MemSize,
    },
    /// Address computation without memory access.
    Lea { dst: Gpr, addr: MemRef },
    /// ALU operation `dst <- dst op src` (also sets flags for Add/Sub/And/Or/Xor).
    Alu { op: AluOp, dst: Gpr, src: Operand },
    /// Compare: sets flags from `a - b` without writing a register.
    Cmp { a: Gpr, b: Operand },
    /// Test: sets flags from `a & b`.
    Test { a: Gpr, b: Operand },
    /// Two's complement negate.
    Neg { dst: Gpr },
    /// Bitwise not.
    Not { dst: Gpr },
    /// Zero-extend the low `size` bits of `src` into `dst`.
    MovZx { dst: Gpr, src: Gpr, size: MemSize },
    /// Sign-extend the low `size` bits of `src` into `dst`.
    MovSx { dst: Gpr, src: Gpr, size: MemSize },
    /// Set `dst` to 1 if the condition holds, else 0.
    SetCc { cond: Cond, dst: Gpr },
    /// Conditional move.
    CmovCc { cond: Cond, dst: Gpr, src: Gpr },
    /// Unconditional relative jump (offset in instructions within the block).
    Jmp { target: i32 },
    /// Conditional relative jump.
    Jcc { cond: Cond, target: i32 },
    /// Call a registered runtime helper.  Arguments/results use the standard
    /// registers (`rdi`, `rsi`, `rdx`, `rcx` in; `rax` out).
    CallHelper { helper: u16 },
    /// Return from the translated block to the execution engine.
    Ret,
    /// Load into a vector register.
    LoadXmm {
        dst: Xmm,
        addr: MemRef,
        size: MemSize,
    },
    /// Store from a vector register.
    StoreXmm {
        src: Xmm,
        addr: MemRef,
        size: MemSize,
    },
    /// Move GPR to the low 64 bits of a vector register.
    MovGprToXmm { dst: Xmm, src: Gpr },
    /// Move the low 64 bits of a vector register to a GPR.
    MovXmmToGpr { dst: Gpr, src: Xmm },
    /// Scalar FP operation `dst <- dst op src`.
    Fp { op: FpOp, dst: Xmm, src: Xmm },
    /// Fused multiply-add `dst <- a * b + dst` (double precision, rounded
    /// once, like `vfmadd231sd dst, a, b`); NaN bits as the FMA unit gives
    /// them, like `Fp` and `Vec`.
    FpFma { dst: Xmm, a: Xmm, b: Xmm },
    /// Scalar double compare: sets integer flags (like `ucomisd`).
    FpCmp { a: Xmm, b: Xmm },
    /// Convert signed 64-bit integer in GPR to double in XMM.
    CvtI2D { dst: Xmm, src: Gpr },
    /// Convert double in XMM to signed 64-bit integer in GPR, truncating
    /// toward zero (`cvttsd2si`).  Out-of-range values saturate and NaN
    /// converts to 0, as the guest's `FCVTZS` requires.
    CvtD2I { dst: Gpr, src: Xmm },
    /// Packed vector operation `dst <- dst op src`.
    Vec { op: VecOp, dst: Xmm, src: Xmm },
    /// Pseudo-instruction marking an intra-region constituent boundary:
    /// control passed from one stitched guest basic block to the next without
    /// returning to the dispatcher.  Costs [`crate::CostModel::region_transfer`]
    /// and bumps [`crate::PerfCounters::region_transfers`].
    TraceEdge,
    /// A region-internal backward transfer: sets the guest PC (`%r15`) to
    /// `pc` and jumps `target` instructions backward within the same
    /// translation — the loop-back edge of a looping region.  On real
    /// hardware this is a single taken branch (the guest PC is implicit in
    /// the branch target), so it costs [`crate::CostModel::backedge`] and
    /// bumps [`crate::PerfCounters::backedge_transfers`].  Before taking the
    /// jump the interpreter polls [`crate::Runtime::loop_exit_pending`]; a
    /// pending event (self-modifying code on a constituent page, a queued
    /// guest event) turns the transfer into a dispatcher exit with the PC
    /// already precise at the loop header.
    BackEdge {
        /// Guest virtual address of the loop header (the value `%r15` takes).
        pc: u64,
        /// Relative jump distance (negative: backward within the block).
        target: i32,
        /// Loop-exit discipline.  `false`: a pending-event poll (or the trip
        /// limit) returns straight to the dispatcher — every slot was pinned
        /// architecturally current by the optimiser, so nothing remains to
        /// do.  `true`: the region holds *promoted* loop-carried slots in
        /// host registers, and a loop exit must instead fall through to the
        /// reconcile block that follows this instruction (compensation
        /// stores materialising the promoted slots, then `Ret`).
        reconcile: bool,
    },
    /// Register-to-register vector move.  `U64` copies the low lane and
    /// zeroes the upper (the same write shape as a `U64` [`MachInsn::LoadXmm`]);
    /// `U128` copies both lanes.
    MovXmm { dst: Xmm, src: Xmm, size: MemSize },
}

// Sixteen bytes a host instruction: see the module docs.
const _: () = assert!(size_of::<MachInsn>() == 16 && size_of::<MemRef>() == 6);

impl fmt::Display for MachInsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachInsn::MovImm { dst, imm } => write!(f, "mov ${imm:#x}, {dst}"),
            MachInsn::MovReg { dst, src } => write!(f, "mov {src}, {dst}"),
            MachInsn::Load { dst, addr, size } => write!(f, "mov{:?} {addr}, {dst}", size),
            MachInsn::LoadSx { dst, addr, size } => write!(f, "movsx{:?} {addr}, {dst}", size),
            MachInsn::Store { src, addr, size } => write!(f, "mov{:?} {src}, {addr}", size),
            MachInsn::StoreImm { imm, addr, size } => write!(f, "mov{:?} ${imm:#x}, {addr}", size),
            MachInsn::Lea { dst, addr } => write!(f, "lea {addr}, {dst}"),
            MachInsn::Alu { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::Cmp { a, b } => write!(f, "cmp {b}, {a}"),
            MachInsn::Test { a, b } => write!(f, "test {b}, {a}"),
            MachInsn::Neg { dst } => write!(f, "neg {dst}"),
            MachInsn::Not { dst } => write!(f, "not {dst}"),
            MachInsn::MovZx { dst, src, size } => write!(f, "movzx{:?} {src}, {dst}", size),
            MachInsn::MovSx { dst, src, size } => write!(f, "movsx{:?} {src}, {dst}", size),
            MachInsn::SetCc { cond, dst } => write!(f, "set{cond:?} {dst}"),
            MachInsn::CmovCc { cond, dst, src } => write!(f, "cmov{cond:?} {src}, {dst}"),
            MachInsn::Jmp { target } => write!(f, "jmp {target:+}"),
            MachInsn::Jcc { cond, target } => write!(f, "j{cond:?} {target:+}"),
            MachInsn::CallHelper { helper } => write!(f, "call helper#{helper}"),
            MachInsn::Ret => write!(f, "ret"),
            MachInsn::LoadXmm { dst, addr, .. } => write!(f, "movq {addr}, {dst}"),
            MachInsn::StoreXmm { src, addr, .. } => write!(f, "movq {src}, {addr}"),
            MachInsn::MovGprToXmm { dst, src } => write!(f, "movq {src}, {dst}"),
            MachInsn::MovXmmToGpr { dst, src } => write!(f, "movq {src}, {dst}"),
            MachInsn::Fp { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::FpFma { dst, a, b } => write!(f, "vfmadd {a}, {b}, {dst}"),
            MachInsn::FpCmp { a, b } => write!(f, "ucomisd {b}, {a}"),
            MachInsn::CvtI2D { dst, src } => write!(f, "cvtsi2sd {src}, {dst}"),
            MachInsn::CvtD2I { dst, src } => write!(f, "cvttsd2si {src}, {dst}"),
            MachInsn::Vec { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::TraceEdge => write!(f, "trace-edge"),
            MachInsn::BackEdge {
                pc,
                target,
                reconcile,
            } => {
                if *reconcile {
                    write!(f, "back-edge.r {pc:#x}, {target}")
                } else {
                    write!(f, "back-edge {pc:#x}, {target}")
                }
            }
            MachInsn::MovXmm { dst, src, size } => match size {
                MemSize::U128 => write!(f, "movdqa {src}, {dst}"),
                _ => write!(f, "movq {src}, {dst}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_indices_roundtrip() {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(r.index() as usize, i);
            assert_eq!(Gpr::ALL[r.index() as usize], *r);
        }
    }

    #[test]
    fn allocatable_excludes_reserved() {
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::Rsp));
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::Rbp));
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::R15));
        assert_eq!(Gpr::ALLOCATABLE.len(), 13);
    }

    #[test]
    fn cond_inversion_is_involutive() {
        let all = [
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
        for c in all {
            assert_eq!(c.invert().invert(), c);
            assert_ne!(c.invert(), c);
        }
    }

    #[test]
    fn mem_size_bytes_and_masks() {
        assert_eq!(MemSize::U8.bytes(), 1);
        assert_eq!(MemSize::U64.bytes(), 8);
        assert_eq!(MemSize::U128.bytes(), 16);
        assert_eq!(MemSize::U16.mask(), 0xFFFF);
        assert_eq!(MemSize::U32.mask(), 0xFFFF_FFFF);
    }

    #[test]
    fn display_formats_are_readable() {
        let insn = MachInsn::Load {
            dst: Gpr::Rax,
            addr: MemRef::base_disp(Gpr::Rbp, 0x100),
            size: MemSize::U64,
        };
        assert!(format!("{insn}").contains("rbp"));
        assert!(format!("{}", Gpr::R15).contains("r15"));
        assert!(format!("{}", Xmm(3)).contains("xmm3"));
    }
}
