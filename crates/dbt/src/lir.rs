//! Low-level IR: host instructions over virtual registers.
//!
//! This is the paper's "low-level IR \[that\] is effectively x86 machine
//! instructions, but with virtual register operands in place of physical
//! registers" (Fig. 10).  A handful of reserved physical registers appear
//! implicitly: the guest register-file base pointer (`%rbp`) and the guest
//! program counter (`%r15`), exactly as in the paper's examples.

use hvm::{AluOp, Cond, FpOp, Gpr, MemSize, VecOp};

/// Register class of a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VregClass {
    /// General-purpose (64-bit integer).
    Gpr,
    /// Vector / floating-point (128-bit).
    Xmm,
}

/// A virtual register produced by the DAG builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vreg {
    /// Dense id assigned by the emitter.
    pub id: u32,
    /// Register class.
    pub class: VregClass,
}

impl std::fmt::Display for Vreg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            VregClass::Gpr => write!(f, "%v{}", self.id),
            VregClass::Xmm => write!(f, "%vx{}", self.id),
        }
    }
}

/// Base of a LIR memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LirBase {
    /// The guest register file base pointer (physical `%rbp`).
    RegFile,
    /// A computed address held in a virtual register.
    Vreg(Vreg),
}

/// A LIR memory operand: `disp + base (+ index * scale)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LirMem {
    /// Base.
    pub base: LirBase,
    /// Optional scaled index.
    pub index: Option<(Vreg, u8)>,
    /// Displacement.
    pub disp: i32,
}

impl LirMem {
    /// A reference into the guest register file at byte offset `disp`.
    pub fn regfile(disp: i32) -> Self {
        LirMem {
            base: LirBase::RegFile,
            index: None,
            disp,
        }
    }

    /// A reference through a computed virtual-register base.
    pub fn vreg(base: Vreg, disp: i32) -> Self {
        LirMem {
            base: LirBase::Vreg(base),
            index: None,
            disp,
        }
    }
}

/// A classified fixed-offset access to the guest register file: the byte
/// offset (off the register-file base pointer) and the access width.  This is
/// the slot metadata the emitter records at DAG-collapse time; the
/// [`crate::opt`] passes reason about slot liveness through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileAccess {
    /// Byte offset of the slot relative to the register-file base.
    pub offset: i32,
    /// Access width.
    pub size: MemSize,
}

impl RegFileAccess {
    /// First byte touched.
    pub fn start(&self) -> i32 {
        self.offset
    }

    /// One past the last byte touched.
    pub fn end(&self) -> i32 {
        self.offset + self.size.bytes() as i32
    }

    /// True if this access writes every byte `other` touches.
    pub fn covers(&self, other: &RegFileAccess) -> bool {
        self.start() <= other.start() && self.end() >= other.end()
    }

    /// True if the two accesses share at least one byte.
    pub fn overlaps(&self, other: &RegFileAccess) -> bool {
        self.start() < other.end() && other.start() < self.end()
    }
}

/// A register-or-immediate LIR operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LirOperand {
    /// Virtual register.
    Vreg(Vreg),
    /// Immediate.
    Imm(u64),
}

/// One low-level IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LirInsn {
    /// Pseudo-instruction marking a branch target within the block.
    Label { id: u32 },
    /// `dst <- imm`.
    MovImm { dst: Vreg, imm: u64 },
    /// `dst <- src`.
    MovReg { dst: Vreg, src: Vreg },
    /// Zero-extending load.
    Load {
        dst: Vreg,
        addr: LirMem,
        size: MemSize,
    },
    /// Sign-extending load.
    LoadSx {
        dst: Vreg,
        addr: LirMem,
        size: MemSize,
    },
    /// Store a register.
    Store {
        src: Vreg,
        addr: LirMem,
        size: MemSize,
    },
    /// Store an immediate.
    StoreImm {
        imm: u64,
        addr: LirMem,
        size: MemSize,
    },
    /// Address computation.
    Lea { dst: Vreg, addr: LirMem },
    /// Two-address ALU operation.
    Alu {
        op: AluOp,
        dst: Vreg,
        src: LirOperand,
    },
    /// Flag-setting compare.
    Cmp { a: Vreg, b: LirOperand },
    /// Flag-setting bit test.
    Test { a: Vreg, b: LirOperand },
    /// Negate in place.
    Neg { dst: Vreg },
    /// Complement in place.
    Not { dst: Vreg },
    /// Zero-extend the low bits of `src` into `dst`.
    MovZx { dst: Vreg, src: Vreg, size: MemSize },
    /// Sign-extend the low bits of `src` into `dst`.
    MovSx { dst: Vreg, src: Vreg, size: MemSize },
    /// Materialise a condition as 0/1.
    SetCc { cond: Cond, dst: Vreg },
    /// Conditional move.
    CmovCc { cond: Cond, dst: Vreg, src: Vreg },
    /// Unconditional jump to a label.
    Jmp { label: u32 },
    /// Conditional jump to a label.
    Jcc { cond: Cond, label: u32 },
    /// Set the guest PC from an immediate.
    SetPcImm { imm: u64 },
    /// Set the guest PC from a virtual register.
    SetPcReg { src: Vreg },
    /// Advance the guest PC by a constant (the Fig. 9 node (d) specialisation).
    IncPc { imm: u64 },
    /// Move a value into a helper argument slot (0 = rdi, 1 = rsi, 2 = rdx, 3 = rcx).
    SetArg { index: u8, src: LirOperand },
    /// Call a runtime helper.
    CallHelper { helper: u16 },
    /// Read a helper's return value (rax) into a virtual register.
    ReadRet { dst: Vreg },
    /// Return to the dispatcher.
    Ret,
    /// Vector/FP load.
    LoadXmm {
        dst: Vreg,
        addr: LirMem,
        size: MemSize,
    },
    /// Vector/FP store.
    StoreXmm {
        src: Vreg,
        addr: LirMem,
        size: MemSize,
    },
    /// GPR to XMM move.
    GprToXmm { dst: Vreg, src: Vreg },
    /// XMM to GPR move.
    XmmToGpr { dst: Vreg, src: Vreg },
    /// Scalar FP operation (two-address).
    Fp { op: FpOp, dst: Vreg, src: Vreg },
    /// Fused multiply-add `dst <- a * b + dst`.
    FpFma { dst: Vreg, a: Vreg, b: Vreg },
    /// Scalar FP compare setting integer flags.
    FpCmp { a: Vreg, b: Vreg },
    /// Signed integer to double conversion.
    CvtI2D { dst: Vreg, src: Vreg },
    /// Double to signed integer conversion.
    CvtD2I { dst: Vreg, src: Vreg },
    /// Packed vector operation (two-address).
    Vec { op: VecOp, dst: Vreg, src: Vreg },
    /// Intra-superblock constituent boundary (stitched block transition).
    TraceEdge,
    /// Region-internal backward transfer: sets the guest PC to `pc` and
    /// jumps back to `label` (bound at the loop header's first constituent).
    /// The loop-back edge of a looping region; lowers to
    /// [`hvm::MachInsn::BackEdge`].  `reconcile` marks a promoted loop: a
    /// loop exit falls through into the compensation stores that follow
    /// instead of returning to the dispatcher directly (see
    /// [`crate::opt`]'s promotion pass, which sets it).  One taken transfer
    /// is one guest loop trip: the machine counts it once in
    /// `backedge_transfers` and against the trip limit.
    BackEdge {
        pc: u64,
        label: u32,
        reconcile: bool,
    },
    /// XMM-to-XMM register move.  `U64` copies the low lane and zeroes the
    /// upper lane (the write shape of a `U64` [`LirInsn::LoadXmm`]); `U128`
    /// copies both lanes.  The emitter's copy of a two-address FP or vector
    /// operation's left operand (`U128`), XMM store-to-load forwarding and
    /// vector-slot promotion in [`crate::opt`] produce it.
    MovXmm { dst: Vreg, src: Vreg, size: MemSize },
}

/// Scratch registers reserved for spill handling and special lowering;
/// excluded from the allocatable pool.
pub const SCRATCH_GPRS: [Gpr; 3] = [Gpr::Rax, Gpr::Rdx, Gpr::Rsi];

/// Helper argument registers, in argument order.
pub const ARG_GPRS: [Gpr; 4] = [Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::Rcx];

/// The pool of general-purpose registers available to the allocator.
/// Excludes the reserved stack pointer / register-file base / guest PC and
/// the scratch + argument registers clobbered around helper calls.
pub const GPR_POOL: [Gpr; 8] = [
    Gpr::Rbx,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::R12,
    Gpr::R13,
    Gpr::R14,
];

/// One past the largest virtual-register id `lir` reads or writes (0 when
/// it mentions none): the size of a vreg-indexed table for the unit, and
/// the first id free for a pass that needs fresh registers.
pub fn vreg_id_bound(lir: &[LirInsn]) -> u32 {
    let mut bound = 0;
    for insn in lir {
        insn.visit_uses(|v| bound = bound.max(v.id + 1));
        if let Some(d) = insn.def() {
            bound = bound.max(d.id + 1);
        }
    }
    bound
}

impl LirInsn {
    /// Virtual registers read by this instruction, appended to `out`.
    pub fn uses(&self, out: &mut Vec<Vreg>) {
        self.visit_uses(|v| out.push(v));
    }

    /// Calls `f` on every virtual register this instruction reads, in
    /// operand order (a register read twice is visited twice).  The walks of
    /// the back half go through this, not through a scratch `Vec`.
    #[inline]
    pub fn visit_uses(&self, mut f: impl FnMut(Vreg)) {
        fn mem(m: &LirMem, f: &mut impl FnMut(Vreg)) {
            if let LirBase::Vreg(v) = m.base {
                f(v);
            }
            if let Some((v, _)) = m.index {
                f(v);
            }
        }
        fn op(o: &LirOperand, f: &mut impl FnMut(Vreg)) {
            if let LirOperand::Vreg(v) = o {
                f(*v);
            }
        }
        match self {
            LirInsn::MovReg { src, .. } => f(*src),
            LirInsn::Load { addr, .. }
            | LirInsn::LoadSx { addr, .. }
            | LirInsn::Lea { addr, .. } => mem(addr, &mut f),
            LirInsn::Store { src, addr, .. } => {
                f(*src);
                mem(addr, &mut f);
            }
            LirInsn::StoreImm { addr, .. } => mem(addr, &mut f),
            LirInsn::Alu { dst, src, .. } => {
                f(*dst);
                op(src, &mut f);
            }
            LirInsn::Cmp { a, b } | LirInsn::Test { a, b } => {
                f(*a);
                op(b, &mut f);
            }
            LirInsn::Neg { dst } | LirInsn::Not { dst } => f(*dst),
            LirInsn::MovZx { src, .. } | LirInsn::MovSx { src, .. } => f(*src),
            LirInsn::CmovCc { dst, src, .. } => {
                f(*dst);
                f(*src);
            }
            LirInsn::SetPcReg { src } => f(*src),
            LirInsn::SetArg { src, .. } => op(src, &mut f),
            LirInsn::LoadXmm { addr, .. } => mem(addr, &mut f),
            LirInsn::StoreXmm { src, addr, .. } => {
                f(*src);
                mem(addr, &mut f);
            }
            LirInsn::GprToXmm { src, .. }
            | LirInsn::XmmToGpr { src, .. }
            | LirInsn::MovXmm { src, .. } => f(*src),
            LirInsn::Fp { dst, src, .. } | LirInsn::Vec { dst, src, .. } => {
                f(*dst);
                f(*src);
            }
            LirInsn::FpFma { dst, a, b } => {
                f(*dst);
                f(*a);
                f(*b);
            }
            LirInsn::FpCmp { a, b } => {
                f(*a);
                f(*b);
            }
            LirInsn::CvtI2D { src, .. } | LirInsn::CvtD2I { src, .. } => f(*src),
            _ => {}
        }
    }

    /// Virtual register written by this instruction, if any.
    pub fn def(&self) -> Option<Vreg> {
        match self {
            LirInsn::MovImm { dst, .. }
            | LirInsn::MovReg { dst, .. }
            | LirInsn::Load { dst, .. }
            | LirInsn::LoadSx { dst, .. }
            | LirInsn::Lea { dst, .. }
            | LirInsn::Alu { dst, .. }
            | LirInsn::Neg { dst }
            | LirInsn::Not { dst }
            | LirInsn::MovZx { dst, .. }
            | LirInsn::MovSx { dst, .. }
            | LirInsn::SetCc { dst, .. }
            | LirInsn::CmovCc { dst, .. }
            | LirInsn::ReadRet { dst }
            | LirInsn::LoadXmm { dst, .. }
            | LirInsn::GprToXmm { dst, .. }
            | LirInsn::XmmToGpr { dst, .. }
            | LirInsn::MovXmm { dst, .. }
            | LirInsn::Fp { dst, .. }
            | LirInsn::FpFma { dst, .. }
            | LirInsn::CvtI2D { dst, .. }
            | LirInsn::CvtD2I { dst, .. }
            | LirInsn::Vec { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The destination operand of [`LirInsn::def`], for passes that rename
    /// a definition (two-address forms read it too).  Lists the same
    /// variants as `def`.
    pub fn def_mut(&mut self) -> Option<&mut Vreg> {
        match self {
            LirInsn::MovImm { dst, .. }
            | LirInsn::MovReg { dst, .. }
            | LirInsn::Load { dst, .. }
            | LirInsn::LoadSx { dst, .. }
            | LirInsn::Lea { dst, .. }
            | LirInsn::Alu { dst, .. }
            | LirInsn::Neg { dst }
            | LirInsn::Not { dst }
            | LirInsn::MovZx { dst, .. }
            | LirInsn::MovSx { dst, .. }
            | LirInsn::SetCc { dst, .. }
            | LirInsn::CmovCc { dst, .. }
            | LirInsn::ReadRet { dst }
            | LirInsn::LoadXmm { dst, .. }
            | LirInsn::GprToXmm { dst, .. }
            | LirInsn::XmmToGpr { dst, .. }
            | LirInsn::MovXmm { dst, .. }
            | LirInsn::Fp { dst, .. }
            | LirInsn::FpFma { dst, .. }
            | LirInsn::CvtI2D { dst, .. }
            | LirInsn::CvtD2I { dst, .. }
            | LirInsn::Vec { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Rewrites every *pure source* register occurrence `v` — an operand
    /// position that only reads the register — to `f(v)` where `f` returns a
    /// replacement (one traversal of the instruction, however many
    /// substitutions are pending — the shape copy propagation needs).
    /// Two-address destinations (`Alu`, `CmovCc`, `Fp`, `Vec`, `FpFma` and
    /// friends) both read and write `dst`, so `dst` fields are deliberately
    /// never touched — the copy-propagation pass in [`crate::opt`] relies on
    /// this distinction.  Returns how many occurrences were rewritten.
    pub fn map_pure_uses(&mut self, f: &mut impl FnMut(Vreg) -> Option<Vreg>) -> u32 {
        fn reg(v: &mut Vreg, f: &mut impl FnMut(Vreg) -> Option<Vreg>, n: &mut u32) {
            if let Some(to) = f(*v) {
                *v = to;
                *n += 1;
            }
        }
        fn mem(m: &mut LirMem, f: &mut impl FnMut(Vreg) -> Option<Vreg>, n: &mut u32) {
            if let LirBase::Vreg(v) = &mut m.base {
                reg(v, f, n);
            }
            if let Some((v, _)) = &mut m.index {
                reg(v, f, n);
            }
        }
        fn op(o: &mut LirOperand, f: &mut impl FnMut(Vreg) -> Option<Vreg>, n: &mut u32) {
            if let LirOperand::Vreg(v) = o {
                reg(v, f, n);
            }
        }
        let mut n = 0u32;
        match self {
            LirInsn::MovReg { src, .. } => reg(src, f, &mut n),
            LirInsn::Load { addr, .. }
            | LirInsn::LoadSx { addr, .. }
            | LirInsn::Lea { addr, .. }
            | LirInsn::StoreImm { addr, .. }
            | LirInsn::LoadXmm { addr, .. } => mem(addr, f, &mut n),
            LirInsn::Store { src, addr, .. } | LirInsn::StoreXmm { src, addr, .. } => {
                reg(src, f, &mut n);
                mem(addr, f, &mut n);
            }
            LirInsn::Alu { src, .. } => op(src, f, &mut n),
            LirInsn::Cmp { a, b } | LirInsn::Test { a, b } => {
                reg(a, f, &mut n);
                op(b, f, &mut n);
            }
            LirInsn::MovZx { src, .. } | LirInsn::MovSx { src, .. } => reg(src, f, &mut n),
            LirInsn::CmovCc { src, .. } => reg(src, f, &mut n),
            LirInsn::SetPcReg { src } => reg(src, f, &mut n),
            LirInsn::SetArg { src, .. } => op(src, f, &mut n),
            LirInsn::GprToXmm { src, .. }
            | LirInsn::XmmToGpr { src, .. }
            | LirInsn::MovXmm { src, .. } => reg(src, f, &mut n),
            LirInsn::Fp { src, .. } | LirInsn::Vec { src, .. } => reg(src, f, &mut n),
            LirInsn::FpFma { a, b, .. } => {
                reg(a, f, &mut n);
                reg(b, f, &mut n);
            }
            LirInsn::FpCmp { a, b } => {
                reg(a, f, &mut n);
                reg(b, f, &mut n);
            }
            LirInsn::CvtI2D { src, .. } | LirInsn::CvtD2I { src, .. } => reg(src, f, &mut n),
            _ => {}
        }
        n
    }

    /// Rewrites every operand position that reads only the low 64 bits of a
    /// vector register — a scalar FP operand, a conversion or transfer
    /// source, the source of a 64-bit (or narrower) vector store or of a
    /// 64-bit vector move — to `f(v)` where `f` returns a replacement: the
    /// positions where a 64-bit `MovXmm` copy, which zeroes the upper lane,
    /// may stand in for its source.  Returns how many occurrences were
    /// rewritten.
    pub fn map_low_lane_uses(&mut self, f: &mut impl FnMut(Vreg) -> Option<Vreg>) -> u32 {
        let mut n = 0u32;
        let mut reg = |v: &mut Vreg| {
            if let Some(to) = f(*v) {
                *v = to;
                n += 1;
            }
        };
        match self {
            LirInsn::Fp { src, .. }
            | LirInsn::XmmToGpr { src, .. }
            | LirInsn::CvtD2I { src, .. }
            | LirInsn::StoreXmm {
                src,
                size: MemSize::U8 | MemSize::U16 | MemSize::U32 | MemSize::U64,
                ..
            }
            | LirInsn::MovXmm {
                src,
                size: MemSize::U64,
                ..
            } => reg(src),
            LirInsn::FpFma { a, b, .. } | LirInsn::FpCmp { a, b } => {
                reg(a);
                reg(b);
            }
            _ => {}
        }
        n
    }

    /// The register-file slot this instruction stores to, when the
    /// destination is a fixed offset off the register-file base (no index).
    /// Dynamic regfile addressing (an index component) is deliberately not
    /// classified — it shows up as [`LirInsn::observes_regfile`] instead.
    pub fn regfile_store(&self) -> Option<RegFileAccess> {
        match self {
            LirInsn::Store { addr, size, .. }
            | LirInsn::StoreImm { addr, size, .. }
            | LirInsn::StoreXmm { addr, size, .. } => Self::fixed_regfile_slot(addr, *size),
            _ => None,
        }
    }

    /// The register-file slot this instruction loads from, when the source is
    /// a fixed offset off the register-file base (no index).
    pub fn regfile_load(&self) -> Option<RegFileAccess> {
        match self {
            LirInsn::Load { addr, size, .. }
            | LirInsn::LoadSx { addr, size, .. }
            | LirInsn::LoadXmm { addr, size, .. } => Self::fixed_regfile_slot(addr, *size),
            _ => None,
        }
    }

    pub(crate) fn fixed_regfile_slot(addr: &LirMem, size: MemSize) -> Option<RegFileAccess> {
        match (addr.base, addr.index) {
            (LirBase::RegFile, None) => Some(RegFileAccess {
                offset: addr.disp,
                size,
            }),
            _ => None,
        }
    }

    /// True when the instruction can observe (or mutate) guest register-file
    /// state through a channel other than a classified fixed-slot load/store.
    /// These are the *observers* the [`crate::opt`] passes must respect: a
    /// regfile store is only dead if a covering store lands before any
    /// observer, and store-to-load forwarding state dies at every observer.
    ///
    /// The observer set, and why each member is in it:
    ///
    /// * **Guest-memory accesses** (any memory operand not a fixed regfile
    ///   slot, loads included): they can fault, and fault delivery hands the
    ///   guest's exception path a precise register file.
    /// * **Helper calls**: helpers read and write the register file directly
    ///   (exception delivery, `ERET`, system-register notification).
    /// * **Block exits and intra-block control flow** (`Ret`, `Jmp`, `Jcc`,
    ///   `Label`, `BackEdge`): a `Ret` mid-block is a superblock side-exit
    ///   stub, and the side-exit invariant requires every slot to be
    ///   architecturally current there; labels/jumps are join points the
    ///   block-scoped passes do not trace through.  A `BackEdge` is the
    ///   loop-back of a looping region: treating it (and the loop-header
    ///   `Label`) as an observer is what makes the slot passes *loop-sound*
    ///   — every slot is pinned architecturally current across the
    ///   back-edge, so iteration N's state is exact when iteration N+1 (or a
    ///   side exit) reads it.  [`LirInsn::TraceEdge`] is deliberately *not*
    ///   an observer — it marks a stitched constituent boundary inside one
    ///   superblock, which is exactly where cross-block elimination pays.
    /// * **`Lea` of a regfile address / indexed regfile operands**: the slot
    ///   offset escapes into a register, so later accesses may alias any
    ///   slot.
    pub fn observes_regfile(&self) -> bool {
        let mem_observes = |m: &LirMem| matches!(m.base, LirBase::Vreg(_)) || m.index.is_some();
        match self {
            LirInsn::Load { addr, .. }
            | LirInsn::LoadSx { addr, .. }
            | LirInsn::Store { addr, .. }
            | LirInsn::StoreImm { addr, .. }
            | LirInsn::LoadXmm { addr, .. }
            | LirInsn::StoreXmm { addr, .. } => mem_observes(addr),
            // A regfile Lea leaks a slot address; conservatively a barrier
            // even though the emitter never produces one today.
            LirInsn::Lea { addr, .. } => matches!(addr.base, LirBase::RegFile),
            LirInsn::CallHelper { .. }
            | LirInsn::Ret
            | LirInsn::Jmp { .. }
            | LirInsn::Jcc { .. }
            | LirInsn::Label { .. }
            | LirInsn::BackEdge { .. } => true,
            _ => false,
        }
    }

    /// True when this instruction can *change* guest register-file state (or
    /// make register/slot contents untrackable) — the invalidation set for
    /// value-tracking passes (store-to-load forwarding, redundant-load
    /// reuse).  Strictly smaller than [`LirInsn::observes_regfile`]: an
    /// instruction that can only *fault* (a guest-memory load) pins live
    /// stores for fault precision, but it cannot rewrite a slot, so a value
    /// already known to be in a register is still that value afterwards.
    ///
    /// The invalidators:
    ///
    /// * **helper calls** — the hypervisor may write the register file;
    /// * **guest-memory stores** (computed address): in this model the
    ///   register file is host-mapped, so an arbitrary store could alias a
    ///   slot;
    /// * **indexed regfile stores and `Lea` of a regfile address** —
    ///   dynamic slot addressing / address escapes;
    /// * **`Label`** — a join point: another incoming path may leave
    ///   different register/slot state; conversely `Jcc`/`Jmp`/`BackEdge`
    ///   and `TraceEdge` change no state, so facts survive onto the
    ///   fall-through path;
    /// * **`Ret`** — conservative hygiene at side exits (the following stub
    ///   label would clear anyway).
    pub fn invalidates_regfile_values(&self) -> bool {
        match self {
            LirInsn::Store { addr, .. }
            | LirInsn::StoreImm { addr, .. }
            | LirInsn::StoreXmm { addr, .. } => {
                matches!(addr.base, LirBase::Vreg(_)) || addr.index.is_some()
            }
            LirInsn::Lea { addr, .. } => matches!(addr.base, LirBase::RegFile),
            LirInsn::CallHelper { .. } | LirInsn::Ret | LirInsn::Label { .. } => true,
            _ => false,
        }
    }

    /// True when this instruction accesses guest memory through a computed
    /// address (anything but a fixed register-file slot) and can therefore
    /// raise a guest data abort.  A possible fault is an architectural
    /// effect in its own right: the access must survive dead-code
    /// elimination even when the value it produces is never read, or the
    /// guest would miss an exception it is owed.
    pub fn may_fault(&self) -> bool {
        let guest_mem = |m: &LirMem| matches!(m.base, LirBase::Vreg(_)) || m.index.is_some();
        match self {
            LirInsn::Load { addr, .. }
            | LirInsn::LoadSx { addr, .. }
            | LirInsn::LoadXmm { addr, .. }
            | LirInsn::Store { addr, .. }
            | LirInsn::StoreImm { addr, .. }
            | LirInsn::StoreXmm { addr, .. } => guest_mem(addr),
            _ => false,
        }
    }

    /// True when executing this instruction updates the host arithmetic
    /// flags.  Mirrors the HVM interpreter exactly: `Cmp`, `Test`, `FpCmp`
    /// and the flag-setting subset of ALU operations (`Add`, `Sub`, `And`,
    /// `Or`, `Xor`); multiplies, divides, shifts, `Neg` and `Not` leave the
    /// flags alone in the machine model.
    pub fn writes_host_flags(&self) -> bool {
        match self {
            LirInsn::Cmp { .. } | LirInsn::Test { .. } | LirInsn::FpCmp { .. } => true,
            LirInsn::Alu { op, .. } => matches!(
                op,
                AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor
            ),
            _ => false,
        }
    }

    /// True when this instruction's behaviour depends on the host flags.
    pub fn reads_host_flags(&self) -> bool {
        matches!(
            self,
            LirInsn::SetCc { .. } | LirInsn::CmovCc { .. } | LirInsn::Jcc { .. }
        )
    }

    /// True if the instruction has an effect beyond writing its destination
    /// virtual register (memory, PC, flags consumed later, control flow, ...).
    /// A conservative classification (every flag writer counts as
    /// effectful): the one-shot dead-code marking the allocator's fixpoint
    /// is tested against removes only instructions for which this returns
    /// `false`.
    #[cfg(test)]
    pub(crate) fn has_side_effect(&self) -> bool {
        match self {
            // A load can still fault: a guest-memory load is effectful even
            // with a dead destination (the data abort is guest-visible).
            LirInsn::Load { .. } | LirInsn::LoadSx { .. } | LirInsn::LoadXmm { .. } => {
                self.may_fault()
            }
            LirInsn::MovImm { .. }
            | LirInsn::MovReg { .. }
            | LirInsn::Lea { .. }
            | LirInsn::MovZx { .. }
            | LirInsn::MovSx { .. }
            | LirInsn::SetCc { .. }
            | LirInsn::GprToXmm { .. }
            | LirInsn::XmmToGpr { .. }
            | LirInsn::MovXmm { .. }
            | LirInsn::CvtI2D { .. } => false,
            // ALU writes flags a later Jcc/SetCc might read; treating it as
            // effectful keeps the fast allocator conservative and correct.
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::MemSize;

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    #[test]
    fn regfile_accesses_carry_offset_and_width() {
        let st = LirInsn::Store {
            src: v(0),
            addr: LirMem::regfile(256),
            size: MemSize::U64,
        };
        assert_eq!(
            st.regfile_store(),
            Some(RegFileAccess {
                offset: 256,
                size: MemSize::U64
            })
        );
        assert_eq!(st.regfile_load(), None);

        let ld = LirInsn::Load {
            dst: v(1),
            addr: LirMem::regfile(8),
            size: MemSize::U64,
        };
        assert_eq!(
            ld.regfile_load(),
            Some(RegFileAccess {
                offset: 8,
                size: MemSize::U64
            })
        );

        // Guest-memory operands are not classified as regfile slots.
        let guest = LirInsn::Store {
            src: v(0),
            addr: LirMem::vreg(v(2), 0),
            size: MemSize::U64,
        };
        assert_eq!(guest.regfile_store(), None);
        assert!(guest.observes_regfile(), "guest stores can fault");
    }

    #[test]
    fn access_geometry() {
        let a = RegFileAccess {
            offset: 0,
            size: MemSize::U128,
        };
        let b = RegFileAccess {
            offset: 8,
            size: MemSize::U64,
        };
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.overlaps(&b));
        let c = RegFileAccess {
            offset: 16,
            size: MemSize::U64,
        };
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn observer_audit_over_every_variant() {
        // Observers: anything that can reach guest regfile state outside a
        // classified slot access.
        let observer = [
            LirInsn::CallHelper { helper: 1 },
            LirInsn::Ret,
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
            },
            LirInsn::Jmp { label: 0 },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 0,
            },
            LirInsn::Label { id: 0 },
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::vreg(v(1), 0),
                size: MemSize::U64,
            },
            LirInsn::Lea {
                dst: v(0),
                addr: LirMem::regfile(8),
            },
        ];
        for i in &observer {
            assert!(i.observes_regfile(), "{i:?} must be an observer");
        }
        // Non-observers: pure data flow, PC updates, fixed-slot accesses and
        // crucially the TraceEdge constituent boundary (cross-block
        // elimination inside superblocks depends on it being transparent).
        let transparent = [
            LirInsn::TraceEdge,
            LirInsn::SetPcImm { imm: 0x1000 },
            LirInsn::IncPc { imm: 4 },
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::SetArg {
                index: 0,
                src: LirOperand::Imm(1),
            },
        ];
        for i in &transparent {
            assert!(!i.observes_regfile(), "{i:?} must not be an observer");
        }
        // An indexed regfile operand is a dynamic slot: observer.
        let indexed = LirInsn::Load {
            dst: v(0),
            addr: LirMem {
                base: LirBase::RegFile,
                index: Some((v(1), 8)),
                disp: 0,
            },
            size: MemSize::U64,
        };
        assert!(indexed.observes_regfile());
        assert_eq!(indexed.regfile_load(), None);
    }

    #[test]
    fn map_pure_uses_spares_two_address_destinations() {
        fn replace(insn: &mut LirInsn, from: Vreg, to: Vreg) -> u32 {
            insn.map_pure_uses(&mut |v| (v == from).then_some(to))
        }
        // `Alu` reads and writes dst: only the source operand may be
        // rewritten.
        let mut alu = LirInsn::Alu {
            op: AluOp::Add,
            dst: v(1),
            src: LirOperand::Vreg(v(1)),
        };
        assert_eq!(replace(&mut alu, v(1), v(2)), 1);
        assert!(
            matches!(alu, LirInsn::Alu { dst, src: LirOperand::Vreg(s), .. } if dst == v(1) && s == v(2))
        );

        let mut cmov = LirInsn::CmovCc {
            cond: Cond::Ne,
            dst: v(1),
            src: v(1),
        };
        assert_eq!(replace(&mut cmov, v(1), v(3)), 1);
        assert!(matches!(cmov, LirInsn::CmovCc { dst, src, .. } if dst == v(1) && src == v(3)));

        // Memory operands rewrite base and index.
        let mut st = LirInsn::Store {
            src: v(1),
            addr: LirMem {
                base: LirBase::Vreg(v(1)),
                index: Some((v(1), 8)),
                disp: 4,
            },
            size: MemSize::U64,
        };
        assert_eq!(replace(&mut st, v(1), v(4)), 3);

        // Pure moves rewrite the source only.
        let mut mv = LirInsn::MovReg {
            dst: v(5),
            src: v(1),
        };
        assert_eq!(replace(&mut mv, v(1), v(4)), 1);
        assert!(matches!(mv, LirInsn::MovReg { dst, src } if dst == v(5) && src == v(4)));
    }

    #[test]
    fn def_mut_names_the_operand_def_reports() {
        let x = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let m = LirMem::regfile(0);
        let size = MemSize::U64;
        let defining = [
            LirInsn::MovImm { dst: v(7), imm: 1 },
            LirInsn::MovReg {
                dst: v(7),
                src: v(1),
            },
            LirInsn::Load {
                dst: v(7),
                addr: m,
                size,
            },
            LirInsn::LoadSx {
                dst: v(7),
                addr: m,
                size,
            },
            LirInsn::Lea { dst: v(7), addr: m },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(7),
                src: LirOperand::Imm(1),
            },
            LirInsn::Neg { dst: v(7) },
            LirInsn::Not { dst: v(7) },
            LirInsn::MovZx {
                dst: v(7),
                src: v(1),
                size,
            },
            LirInsn::MovSx {
                dst: v(7),
                src: v(1),
                size,
            },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(7),
            },
            LirInsn::CmovCc {
                cond: Cond::Eq,
                dst: v(7),
                src: v(1),
            },
            LirInsn::ReadRet { dst: v(7) },
            LirInsn::LoadXmm {
                dst: x(7),
                addr: m,
                size,
            },
            LirInsn::GprToXmm {
                dst: x(7),
                src: v(1),
            },
            LirInsn::XmmToGpr {
                dst: v(7),
                src: x(1),
            },
            LirInsn::MovXmm {
                dst: x(7),
                src: x(1),
                size,
            },
            LirInsn::Fp {
                op: FpOp::AddD,
                dst: x(7),
                src: x(1),
            },
            LirInsn::FpFma {
                dst: x(7),
                a: x(1),
                b: x(2),
            },
            LirInsn::CvtI2D {
                dst: x(7),
                src: v(1),
            },
            LirInsn::CvtD2I {
                dst: v(7),
                src: x(1),
            },
            LirInsn::Vec {
                op: VecOp::AddPd,
                dst: x(7),
                src: x(1),
            },
        ];
        for mut insn in defining {
            let def = insn.def().unwrap_or_else(|| panic!("{insn:?} defines"));
            assert_eq!(def.id, 7);
            let dst = insn.def_mut().expect("def_mut lists what def lists");
            assert_eq!(*dst, def);
            dst.id = 8;
            assert_eq!(insn.def().map(|d| d.id), Some(8), "{insn:?}");
        }
        for mut insn in [
            LirInsn::Store {
                src: v(7),
                addr: m,
                size,
            },
            LirInsn::Cmp {
                a: v(7),
                b: LirOperand::Imm(0),
            },
            LirInsn::SetPcReg { src: v(7) },
            LirInsn::Ret,
        ] {
            assert_eq!(insn.def(), None);
            assert!(insn.def_mut().is_none());
        }
    }

    #[test]
    fn faulting_accesses_are_classified_and_effectful() {
        // Guest-memory accesses (computed address) can raise a data abort:
        // they must read as may_fault and, for loads, as side-effecting so
        // dead-code elimination keeps them alive with a dead destination.
        let guest_load = LirInsn::Load {
            dst: v(0),
            addr: LirMem::vreg(v(1), 0),
            size: MemSize::U64,
        };
        assert!(guest_load.may_fault());
        assert!(
            guest_load.has_side_effect(),
            "a faulting load is effectful even if its value is dead"
        );
        let indexed = LirInsn::LoadXmm {
            dst: v(0),
            addr: LirMem {
                base: LirBase::RegFile,
                index: Some((v(1), 8)),
                disp: 0,
            },
            size: MemSize::U64,
        };
        assert!(indexed.may_fault());
        assert!(indexed.has_side_effect());
        // Fixed regfile slots cannot fault: still freely removable.
        let regfile_load = LirInsn::Load {
            dst: v(0),
            addr: LirMem::regfile(8),
            size: MemSize::U64,
        };
        assert!(!regfile_load.may_fault());
        assert!(!regfile_load.has_side_effect());
        let guest_store = LirInsn::Store {
            src: v(0),
            addr: LirMem::vreg(v(1), 0),
            size: MemSize::U64,
        };
        assert!(guest_store.may_fault());
        assert!(!LirInsn::StoreImm {
            imm: 0,
            addr: LirMem::regfile(0),
            size: MemSize::U64,
        }
        .may_fault());
    }

    #[test]
    fn flag_classification_matches_the_machine_model() {
        // Writers per the HVM interpreter.
        for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor] {
            assert!(LirInsn::Alu {
                op,
                dst: v(0),
                src: LirOperand::Imm(1)
            }
            .writes_host_flags());
        }
        for op in [AluOp::Mul, AluOp::Shl, AluOp::Shr, AluOp::DivU, AluOp::Sar] {
            assert!(!LirInsn::Alu {
                op,
                dst: v(0),
                src: LirOperand::Imm(1)
            }
            .writes_host_flags());
        }
        assert!(LirInsn::Cmp {
            a: v(0),
            b: LirOperand::Imm(0)
        }
        .writes_host_flags());
        assert!(LirInsn::Test {
            a: v(0),
            b: LirOperand::Imm(0)
        }
        .writes_host_flags());
        assert!(LirInsn::FpCmp { a: v(0), b: v(1) }.writes_host_flags());
        // Neg/Not leave flags alone in the machine model.
        assert!(!LirInsn::Neg { dst: v(0) }.writes_host_flags());
        assert!(!LirInsn::Not { dst: v(0) }.writes_host_flags());
        // Readers.
        assert!(LirInsn::SetCc {
            cond: Cond::Eq,
            dst: v(0)
        }
        .reads_host_flags());
        assert!(LirInsn::CmovCc {
            cond: Cond::Ne,
            dst: v(0),
            src: v(1)
        }
        .reads_host_flags());
        assert!(LirInsn::Jcc {
            cond: Cond::Eq,
            label: 0
        }
        .reads_host_flags());
        assert!(!LirInsn::Jmp { label: 0 }.reads_host_flags());
    }
}
