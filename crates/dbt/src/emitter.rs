//! The invocation-DAG builder (translation phase).
//!
//! Generator functions call methods on [`Emitter`] to describe an
//! instruction's data flow (Fig. 7 of the paper).  Pure operations become
//! nodes in a DAG; operations with run-time side effects (stores to the guest
//! register file, memory writes, PC updates, helper calls, branches) collapse
//! the DAG at that point: the trees feeding the effect are evaluated into
//! virtual registers, emitting low-level IR immediately (Figs. 9 and 10).
//!
//! Evaluation is memoised per node, constants are folded as nodes are built,
//! and a few tree patterns are specialised at collapse time (e.g. a PC store
//! of `PC + imm` becomes a single `add $imm, %r15`) — the "weak form of tree
//! pattern matching on demand" described in Section 2.3.2.
//!
//! Collapse does not discard the register-file slot information it is given:
//! every regfile load/store keeps its byte offset and access width in the
//! emitted [`LirInsn`] (classified by [`LirInsn::regfile_load`] /
//! [`LirInsn::regfile_store`]), which is what lets the [`crate::opt`] passes
//! reason about slot liveness over the finished LIR.

use crate::cache::BlockExit;
use crate::lir::{LirInsn, LirMem, LirOperand, Vreg, VregClass};
use hvm::{AluOp, Cond, FpOp, MemSize, VecOp};

/// Identifier of a DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

/// Value types carried on DAG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Unsigned integers of various widths (held in 64-bit registers).
    U8,
    U16,
    U32,
    U64,
    /// Single-precision float (held in a vector register).
    F32,
    /// Double-precision float (held in a vector register).
    F64,
    /// A full 128-bit vector.
    V128,
}

impl ValueType {
    /// Memory access size corresponding to this type.
    pub fn mem_size(self) -> MemSize {
        match self {
            ValueType::U8 => MemSize::U8,
            ValueType::U16 => MemSize::U16,
            ValueType::U32 | ValueType::F32 => MemSize::U32,
            ValueType::U64 | ValueType::F64 => MemSize::U64,
            ValueType::V128 => MemSize::U128,
        }
    }

    /// Whether values of this type live in vector registers.
    pub fn is_fp(self) -> bool {
        matches!(self, ValueType::F32 | ValueType::F64 | ValueType::V128)
    }
}

/// Integer binary operators available on DAG nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Mul,
    MulHiU,
    MulHiS,
    DivU,
    DivS,
    RemU,
    RemS,
    Shl,
    Shr,
    Sar,
    Ror,
}

impl BinOp {
    fn to_alu(self) -> AluOp {
        match self {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Mul => AluOp::Mul,
            BinOp::MulHiU => AluOp::MulHiU,
            BinOp::MulHiS => AluOp::MulHiS,
            BinOp::DivU => AluOp::DivU,
            BinOp::DivS => AluOp::DivS,
            BinOp::RemU => AluOp::RemU,
            BinOp::RemS => AluOp::RemS,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Shr,
            BinOp::Sar => AluOp::Sar,
            BinOp::Ror => AluOp::Ror,
        }
    }

    fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulHiU => ((a as u128 * b as u128) >> 64) as u64,
            BinOp::MulHiS => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            BinOp::DivU => a.checked_div(b).unwrap_or(0),
            BinOp::DivS => {
                if b == 0 {
                    0
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            BinOp::RemU => a.checked_rem(b).unwrap_or(0),
            BinOp::RemS => {
                if b == 0 {
                    0
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            BinOp::Ror => a.rotate_right((b & 63) as u32),
        }
    }
}

/// Floating-point binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// One DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// A constant value known at translation time (a *fixed* value in the
    /// paper's fixed/dynamic terminology).
    Const { value: u64, ty: ValueType },
    /// A read of the guest register file at a fixed byte offset.
    ReadReg { offset: i32, ty: ValueType },
    /// Integer binary operation.
    Binary { op: BinOp, a: NodeId, b: NodeId },
    /// Sign-extension from `from` bits.
    Sext { a: NodeId, from: ValueType },
    /// Comparison producing 0 or 1.
    Compare { cond: Cond, a: NodeId, b: NodeId },
    /// Conditional select `cond ? t : f` (cond is a 0/1 node).
    Select { cond: NodeId, t: NodeId, f: NodeId },
    /// Guest memory load at a virtual address.
    LoadMem {
        addr: NodeId,
        ty: ValueType,
        sext: bool,
    },
    /// Floating-point binary operation.
    FpBinary {
        op: FpBinOp,
        a: NodeId,
        b: NodeId,
        ty: ValueType,
    },
    /// Floating-point square root.
    FpSqrt { a: NodeId, ty: ValueType },
    /// Fused multiply-add `a * b + c`.
    FpMulAdd { a: NodeId, b: NodeId, c: NodeId },
    /// Signed 64-bit integer to double.
    IntToFp { a: NodeId },
    /// Double to signed 64-bit integer.
    FpToInt { a: NodeId },
    /// Move an integer value into a vector register (bit pattern reinterpretation).
    GprToFp { a: NodeId },
    /// Move a vector register's low 64 bits into an integer value.
    FpToGpr { a: NodeId },
    /// Packed vector operation.
    VecBinary { op: VecOp, a: NodeId, b: NodeId },
    /// A 128-bit guest register-file read.
    ReadVec { offset: i32 },
    /// Return value of the most recent helper call.
    HelperResult { seq: u32 },
}

/// Evaluated location of a node (constants are re-materialised from the DAG
/// rather than memoised, so only register locations are recorded).
#[derive(Debug, Clone, Copy)]
enum Loc {
    Gpr(Vreg),
    Xmm(Vreg),
}

/// Statistics the emitter reports for a finished block.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitStats {
    /// Nodes created in the invocation DAG.
    pub nodes: u32,
    /// Nodes folded to constants at translation time (fixed evaluation).
    pub folded: u32,
    /// LIR instructions emitted.
    pub lir_insns: u32,
}

/// The vectors an [`Emitter`] takes from the crate's per-thread scratch
/// ([`crate::with_scratch`]): [`Emitter::finish`] hands the DAG's two back,
/// [`crate::finish_translation`] the LIR one when it is done with the unit.
#[derive(Default)]
pub(crate) struct EmitterScratch {
    nodes: Vec<Node>,
    evaluated: Vec<Option<Loc>>,
    pub(crate) lir: Vec<LirInsn>,
}

/// The invocation-DAG builder and LIR emitter.
pub struct Emitter {
    nodes: Vec<Node>,
    lir: Vec<LirInsn>,
    /// Memoised evaluation results, indexed by node id (one slot per entry
    /// of `nodes`; `None` until the node is first evaluated).
    evaluated: Vec<Option<Loc>>,
    next_vreg: u32,
    next_label: u32,
    helper_seq: u32,
    /// Set when the block must not fall through (a branch set the PC).
    end_of_block: bool,
    /// Terminator metadata recorded by the PC-setting effects; `None` while
    /// no terminator has been emitted (the translator turns that into
    /// [`BlockExit::Fallthrough`] when the block ends at a limit).
    exit: Option<BlockExit>,
    /// Trace-stitching mode (superblock formation): when the next direct
    /// terminator targets this VA, the emitter keeps the block open — the
    /// on-trace leg sets the PC and falls through (plus a
    /// [`LirInsn::TraceEdge`] marker), the off-trace leg of a conditional
    /// becomes a side-exit stub that sets the PC and returns.
    trace_next: Option<u64>,
    /// Set when the last terminator was stitched instead of ending the block.
    stitched: bool,
    /// Back-edge stitching mode (looping regions): when the next direct
    /// terminator targets this VA, the loop closes *inside* the region — the
    /// loop leg becomes a [`LirInsn::BackEdge`] to the label bound at the
    /// target's first constituent, the exit leg of a conditional becomes a
    /// side-exit stub.
    trace_back: Option<(u64, u32)>,
    /// Set when the last terminator closed as a region-internal back-edge.
    stitched_back: bool,
    /// Out-of-line side-exit stubs accumulated by stitched conditionals:
    /// (label, off-trace PC).  Emitted after the main stream by
    /// [`Emitter::finish`] so the hot path pays only the guarding `Jcc`.
    pending_stubs: Vec<(u32, u64)>,
    stats: EmitStats,
}

impl Default for Emitter {
    fn default() -> Self {
        Self::new()
    }
}

impl Emitter {
    /// Creates an empty emitter for one guest basic block.
    pub fn new() -> Self {
        let EmitterScratch {
            mut nodes,
            mut evaluated,
            mut lir,
        } = crate::with_scratch(|s| std::mem::take(&mut s.emitter));
        nodes.clear();
        evaluated.clear();
        lir.clear();
        lir.reserve(64);
        Emitter {
            nodes,
            lir,
            evaluated,
            next_vreg: 0,
            next_label: 0,
            helper_seq: 0,
            end_of_block: false,
            exit: None,
            trace_next: None,
            stitched: false,
            trace_back: None,
            stitched_back: false,
            pending_stubs: Vec::new(),
            stats: EmitStats::default(),
        }
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        self.stats.nodes += 1;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.evaluated.push(None);
        id
    }

    fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }

    fn new_vreg(&mut self, class: VregClass) -> Vreg {
        let v = Vreg {
            id: self.next_vreg,
            class,
        };
        self.next_vreg += 1;
        v
    }

    fn emit(&mut self, insn: LirInsn) {
        self.stats.lir_insns += 1;
        self.lir.push(insn);
    }

    /// Marks the current guest instruction as ending the basic block.  When
    /// no PC-setting effect recorded a successor (exception entry, `ERET`,
    /// system-register writes), the terminator is opaque and never links.
    pub fn set_end_of_block(&mut self) {
        self.end_of_block = true;
        if self.exit.is_none() {
            self.exit = Some(BlockExit::Opaque);
        }
    }

    /// Whether a branch-type effect already terminated the block.
    pub fn end_of_block(&self) -> bool {
        self.end_of_block
    }

    /// Terminator metadata recorded so far (`None` if no terminator was
    /// emitted, i.e. the block falls through at a translation limit).
    pub fn exit_hint(&self) -> Option<BlockExit> {
        self.exit
    }

    /// Emission statistics for the block so far.
    pub fn stats(&self) -> EmitStats {
        self.stats
    }

    // -- trace stitching (superblock formation) ------------------------------

    /// Arms trace-stitching for the next generated instruction: a direct
    /// terminator whose on-trace target is `va` will fall through into the
    /// next constituent instead of ending the block.
    pub fn set_trace_next(&mut self, va: u64) {
        self.trace_next = Some(va);
        self.stitched = false;
    }

    /// Disarms stitching and reports whether the last terminator was
    /// stitched (fell through) rather than ending the block.
    pub fn take_stitched(&mut self) -> bool {
        self.trace_next = None;
        self.stitched
    }

    /// Emits an intra-superblock constituent-boundary marker (used directly
    /// by the superblock former for page-crossing fallthrough edges).
    pub fn trace_edge(&mut self) {
        self.emit(LirInsn::TraceEdge);
    }

    // -- back-edge stitching (looping regions) -------------------------------

    /// Arms back-edge stitching for the next generated instruction: a direct
    /// terminator whose loop-side target is `va` closes the loop inside the
    /// region with a [`LirInsn::BackEdge`] to `label` instead of ending the
    /// trace.
    pub fn set_trace_back(&mut self, va: u64, label: u32) {
        self.trace_back = Some((va, label));
        self.stitched_back = false;
    }

    /// Disarms back-edge stitching and reports whether the last terminator
    /// closed as a region-internal back-edge.
    pub fn take_stitched_back(&mut self) -> bool {
        self.trace_back = None;
        self.stitched_back
    }

    /// Retroactively binds a fresh label at LIR position `pos` (the start of
    /// an already-emitted constituent), returning its id.  The region former
    /// calls this when a trace closes a back-edge: the loop header is only
    /// known to *be* a loop header once the back-edge is reached, so the
    /// label is inserted after the fact.  Positions recorded after `pos`
    /// shift by one; the former closes the trace immediately after, so no
    /// stale positions survive.
    pub fn insert_label_at(&mut self, pos: usize) -> u32 {
        let id = self.new_label();
        debug_assert!(pos <= self.lir.len());
        self.lir.insert(pos, LirInsn::Label { id });
        self.stats.lir_insns += 1;
        id
    }

    /// Current length of the emitted LIR stream (used by the region former
    /// to record constituent start positions for back-edge labels).
    pub fn lir_pos(&self) -> usize {
        self.lir.len()
    }

    /// Closes a loop: emits the combined PC-update-and-backward-jump to the
    /// armed back-edge label and ends the block (the trace cannot continue
    /// past a closed loop — the loop now iterates inside the region and only
    /// leaves through side exits).
    fn close_back_edge(&mut self, pc: u64, label: u32) {
        self.emit(LirInsn::BackEdge {
            pc,
            label,
            reconcile: false,
            weight: 1,
        });
        self.stitched_back = true;
        self.trace_back = None;
        self.end_of_block = true;
    }

    /// Stitches a direct transfer to `target`: the PC is updated for precise
    /// state, a trace-edge marker is recorded, and the block stays open.
    fn stitch_to(&mut self, target: u64) {
        self.emit(LirInsn::SetPcImm { imm: target });
        self.emit(LirInsn::TraceEdge);
        self.stitched = true;
        self.trace_next = None;
    }

    // -- constants -----------------------------------------------------------

    /// A 64-bit constant node (fixed value).
    pub fn const_u64(&mut self, value: u64) -> NodeId {
        self.push_node(Node::Const {
            value,
            ty: ValueType::U64,
        })
    }

    /// A double-precision constant node (bit pattern).
    pub fn const_f64_bits(&mut self, bits: u64) -> NodeId {
        self.push_node(Node::Const {
            value: bits,
            ty: ValueType::F64,
        })
    }

    /// Returns the constant value of a node if it is fixed.
    pub fn as_const(&self, id: NodeId) -> Option<u64> {
        match self.node(id) {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    // -- guest state reads (dynamic values) ----------------------------------

    /// Reads the guest register file at a fixed byte offset.
    pub fn load_register(&mut self, offset: i32, ty: ValueType) -> NodeId {
        if ty == ValueType::V128 {
            return self.push_node(Node::ReadVec { offset });
        }
        self.push_node(Node::ReadReg { offset, ty })
    }

    /// Loads from guest memory at the virtual address given by `addr`.
    pub fn load_memory(&mut self, addr: NodeId, ty: ValueType, sext: bool) -> NodeId {
        self.push_node(Node::LoadMem { addr, ty, sext })
    }

    // -- pure operators ------------------------------------------------------

    /// Integer binary operation node; folds when both operands are fixed.
    pub fn binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            self.stats.folded += 1;
            return self.const_u64(op.fold(x, y));
        }
        self.push_node(Node::Binary { op, a, b })
    }

    /// Shorthand for `binary(BinOp::Add, ..)`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Add, a, b)
    }

    /// Shorthand for `binary(BinOp::Sub, ..)`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Sub, a, b)
    }

    /// Sign-extension from the low bits of `from`.
    pub fn sext(&mut self, a: NodeId, from: ValueType) -> NodeId {
        if let Some(v) = self.as_const(a) {
            let bits = from.mem_size().bytes() * 8;
            let shift = 64 - bits;
            return self.const_u64((((v << shift) as i64) >> shift) as u64);
        }
        self.push_node(Node::Sext { a, from })
    }

    /// Comparison node producing 0/1.
    pub fn compare(&mut self, cond: Cond, a: NodeId, b: NodeId) -> NodeId {
        self.push_node(Node::Compare { cond, a, b })
    }

    /// Conditional select node.
    pub fn select(&mut self, cond: NodeId, t: NodeId, f: NodeId) -> NodeId {
        if let Some(c) = self.as_const(cond) {
            return if c != 0 { t } else { f };
        }
        self.push_node(Node::Select { cond, t, f })
    }

    /// Floating-point binary operation node.
    pub fn fp_binary(&mut self, op: FpBinOp, a: NodeId, b: NodeId, ty: ValueType) -> NodeId {
        self.push_node(Node::FpBinary { op, a, b, ty })
    }

    /// Floating-point square root node.
    pub fn fp_sqrt(&mut self, a: NodeId, ty: ValueType) -> NodeId {
        self.push_node(Node::FpSqrt { a, ty })
    }

    /// Fused multiply-add node (`a * b + c`).
    pub fn fp_mul_add(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        self.push_node(Node::FpMulAdd { a, b, c })
    }

    /// Conversion nodes.
    pub fn int_to_fp(&mut self, a: NodeId) -> NodeId {
        self.push_node(Node::IntToFp { a })
    }

    /// Double to signed 64-bit integer.
    pub fn fp_to_int(&mut self, a: NodeId) -> NodeId {
        self.push_node(Node::FpToInt { a })
    }

    /// Reinterpret an integer value as a vector-register value.
    pub fn gpr_to_fp(&mut self, a: NodeId) -> NodeId {
        self.push_node(Node::GprToFp { a })
    }

    /// Reinterpret a vector-register value as an integer value.
    pub fn fp_to_gpr(&mut self, a: NodeId) -> NodeId {
        self.push_node(Node::FpToGpr { a })
    }

    /// Packed vector operation node.
    pub fn vec_binary(&mut self, op: VecOp, a: NodeId, b: NodeId) -> NodeId {
        self.push_node(Node::VecBinary { op, a, b })
    }

    // -- evaluation ("collapse") ---------------------------------------------

    fn eval_to_operand(&mut self, id: NodeId) -> LirOperand {
        match self.node(id) {
            Node::Const { value, .. } => LirOperand::Imm(value),
            _ => LirOperand::Vreg(self.eval_to_gpr(id)),
        }
    }

    /// Evaluates a node into a general-purpose virtual register.
    pub fn eval_to_gpr(&mut self, id: NodeId) -> Vreg {
        if let Some(loc) = self.evaluated[id.0 as usize] {
            match loc {
                Loc::Gpr(v) => return v,
                Loc::Xmm(x) => {
                    let dst = self.new_vreg(VregClass::Gpr);
                    self.emit(LirInsn::XmmToGpr { dst, src: x });
                    self.evaluated[id.0 as usize] = Some(Loc::Gpr(dst));
                    return dst;
                }
            }
        }
        let node = self.node(id);
        let dst = match node {
            Node::Const { value, .. } => {
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::MovImm { dst, imm: value });
                dst
            }
            Node::ReadReg { offset, ty } => {
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::Load {
                    dst,
                    addr: LirMem::regfile(offset),
                    size: ty.mem_size(),
                });
                dst
            }
            Node::Binary { op, a, b } => {
                let av = self.eval_to_gpr(a);
                let bo = self.eval_to_operand(b);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::MovReg { dst, src: av });
                self.emit(LirInsn::Alu {
                    op: op.to_alu(),
                    dst,
                    src: bo,
                });
                dst
            }
            Node::Sext { a, from } => {
                let av = self.eval_to_gpr(a);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::MovSx {
                    dst,
                    src: av,
                    size: from.mem_size(),
                });
                dst
            }
            Node::Compare { cond, a, b } => {
                let av = self.eval_to_gpr(a);
                let bo = self.eval_to_operand(b);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::Cmp { a: av, b: bo });
                self.emit(LirInsn::SetCc { cond, dst });
                dst
            }
            Node::Select { cond, t, f } => {
                let cv = self.eval_to_gpr(cond);
                let tv = self.eval_to_gpr(t);
                let fv = self.eval_to_gpr(f);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::MovReg { dst, src: fv });
                self.emit(LirInsn::Test {
                    a: cv,
                    b: LirOperand::Vreg(cv),
                });
                self.emit(LirInsn::CmovCc {
                    cond: Cond::Ne,
                    dst,
                    src: tv,
                });
                dst
            }
            Node::LoadMem { addr, ty, sext } => {
                let mem = self.address_operand(addr);
                let dst = self.new_vreg(VregClass::Gpr);
                if sext {
                    self.emit(LirInsn::LoadSx {
                        dst,
                        addr: mem,
                        size: ty.mem_size(),
                    });
                } else {
                    self.emit(LirInsn::Load {
                        dst,
                        addr: mem,
                        size: ty.mem_size(),
                    });
                }
                dst
            }
            Node::FpToGpr { a } => {
                let x = self.eval_to_xmm(a);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::XmmToGpr { dst, src: x });
                dst
            }
            Node::FpToInt { a } => {
                let x = self.eval_to_xmm(a);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::CvtD2I { dst, src: x });
                dst
            }
            Node::HelperResult { .. } => {
                // Helper results are captured eagerly at call time; reaching
                // this point means the result node was re-used after another
                // call, which the memoisation above prevents.
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::ReadRet { dst });
                dst
            }
            // Floating-point-valued nodes evaluated into a GPR: go through
            // a vector register then move across.
            _ => {
                let x = self.eval_to_xmm(id);
                let dst = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::XmmToGpr { dst, src: x });
                dst
            }
        };
        self.evaluated[id.0 as usize] = Some(Loc::Gpr(dst));
        dst
    }

    /// Evaluates a node into a vector (floating-point) virtual register.
    pub fn eval_to_xmm(&mut self, id: NodeId) -> Vreg {
        if let Some(Loc::Xmm(v)) = self.evaluated[id.0 as usize] {
            return v;
        }
        let node = self.node(id);
        let dst = match node {
            Node::Const { value, .. } => {
                let g = self.new_vreg(VregClass::Gpr);
                self.emit(LirInsn::MovImm { dst: g, imm: value });
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::GprToXmm { dst, src: g });
                dst
            }
            Node::ReadReg { offset, ty } => {
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::LoadXmm {
                    dst,
                    addr: LirMem::regfile(offset),
                    size: ty.mem_size(),
                });
                dst
            }
            Node::ReadVec { offset } => {
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::LoadXmm {
                    dst,
                    addr: LirMem::regfile(offset),
                    size: MemSize::U128,
                });
                dst
            }
            Node::LoadMem { addr, ty, .. } => {
                let mem = self.address_operand(addr);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::LoadXmm {
                    dst,
                    addr: mem,
                    size: ty.mem_size(),
                });
                dst
            }
            Node::FpBinary { op, a, b, ty } => {
                let av = self.eval_to_xmm(a);
                let bv = self.eval_to_xmm(b);
                let dst = self.new_vreg(VregClass::Xmm);
                // Two-address form: copy the left operand, then operate in
                // place so `a` stays available for other uses.
                self.emit_fp_copy(dst, av);
                let fop = match (op, ty) {
                    (FpBinOp::Add, ValueType::F32) => FpOp::AddS,
                    (FpBinOp::Sub, ValueType::F32) => FpOp::SubS,
                    (FpBinOp::Mul, ValueType::F32) => FpOp::MulS,
                    (FpBinOp::Div, ValueType::F32) => FpOp::DivS,
                    (FpBinOp::Add, _) => FpOp::AddD,
                    (FpBinOp::Sub, _) => FpOp::SubD,
                    (FpBinOp::Mul, _) => FpOp::MulD,
                    (FpBinOp::Div, _) => FpOp::DivD,
                    (FpBinOp::Min, _) => FpOp::MinD,
                    (FpBinOp::Max, _) => FpOp::MaxD,
                };
                self.emit(LirInsn::Fp {
                    op: fop,
                    dst,
                    src: bv,
                });
                dst
            }
            Node::FpSqrt { a, ty } => {
                let av = self.eval_to_xmm(a);
                let dst = self.new_vreg(VregClass::Xmm);
                let op = if ty == ValueType::F32 {
                    FpOp::SqrtS
                } else {
                    FpOp::SqrtD
                };
                self.emit(LirInsn::Fp { op, dst, src: av });
                dst
            }
            Node::FpMulAdd { a, b, c } => {
                let av = self.eval_to_xmm(a);
                let bv = self.eval_to_xmm(b);
                let cv = self.eval_to_xmm(c);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit_fp_copy(dst, cv);
                self.emit(LirInsn::FpFma { dst, a: av, b: bv });
                dst
            }
            Node::IntToFp { a } => {
                let av = self.eval_to_gpr(a);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::CvtI2D { dst, src: av });
                dst
            }
            Node::GprToFp { a } => {
                let av = self.eval_to_gpr(a);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::GprToXmm { dst, src: av });
                dst
            }
            Node::VecBinary { op, a, b } => {
                let av = self.eval_to_xmm(a);
                let bv = self.eval_to_xmm(b);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit_fp_copy(dst, av);
                self.emit(LirInsn::Vec { op, dst, src: bv });
                dst
            }
            // Integer-valued node required in a vector register.
            _ => {
                let g = self.eval_to_gpr(id);
                let dst = self.new_vreg(VregClass::Xmm);
                self.emit(LirInsn::GprToXmm { dst, src: g });
                dst
            }
        };
        self.evaluated[id.0 as usize] = Some(Loc::Xmm(dst));
        dst
    }

    fn emit_fp_copy(&mut self, dst: Vreg, src: Vreg) {
        // The LIR (like SSE before AVX) has no three-operand forms, so
        // two-address FP operations copy their left operand first: one pure
        // 128-bit register move, which the allocator's copy hand-over makes
        // free when the operand dies there.
        self.emit(LirInsn::MovXmm {
            dst,
            src,
            size: MemSize::U128,
        });
    }

    /// Builds a memory operand for an address node, folding `base + const`
    /// patterns into displacements (address-mode pattern matching).
    fn address_operand(&mut self, addr: NodeId) -> LirMem {
        if let Node::Binary {
            op: BinOp::Add,
            a,
            b,
        } = self.node(addr)
        {
            if let Some(c) = self.as_const(b) {
                if let Ok(disp) = i32::try_from(c as i64) {
                    let base = self.eval_to_gpr(a);
                    return LirMem::vreg(base, disp);
                }
            }
            if let Some(c) = self.as_const(a) {
                if let Ok(disp) = i32::try_from(c as i64) {
                    let base = self.eval_to_gpr(b);
                    return LirMem::vreg(base, disp);
                }
            }
        }
        let base = self.eval_to_gpr(addr);
        LirMem::vreg(base, 0)
    }

    // -- side effects (DAG collapse points) -----------------------------------

    /// Stores a value to the guest register file at a fixed byte offset.
    pub fn store_register(&mut self, offset: i32, value: NodeId) {
        let ty = self.value_type(value);
        if ty.is_fp() {
            let v = self.eval_to_xmm(value);
            self.emit(LirInsn::StoreXmm {
                src: v,
                addr: LirMem::regfile(offset),
                size: ty.mem_size(),
            });
            return;
        }
        match self.eval_to_operand(value) {
            LirOperand::Imm(imm) => self.emit(LirInsn::StoreImm {
                imm,
                addr: LirMem::regfile(offset),
                size: MemSize::U64,
            }),
            LirOperand::Vreg(v) => self.emit(LirInsn::Store {
                src: v,
                addr: LirMem::regfile(offset),
                size: MemSize::U64,
            }),
        }
    }

    /// Stores a value to the guest register file with an explicit width.
    pub fn store_register_sized(&mut self, offset: i32, value: NodeId, size: MemSize) {
        if size == MemSize::U128 {
            let v = self.eval_to_xmm(value);
            self.emit(LirInsn::StoreXmm {
                src: v,
                addr: LirMem::regfile(offset),
                size,
            });
            return;
        }
        match self.eval_to_operand(value) {
            LirOperand::Imm(imm) => self.emit(LirInsn::StoreImm {
                imm,
                addr: LirMem::regfile(offset),
                size,
            }),
            LirOperand::Vreg(v) => self.emit(LirInsn::Store {
                src: v,
                addr: LirMem::regfile(offset),
                size,
            }),
        }
    }

    /// Stores to guest memory at a virtual address.
    pub fn store_memory(&mut self, addr: NodeId, value: NodeId, ty: ValueType) {
        let mem = self.address_operand(addr);
        if ty.is_fp() {
            let v = self.eval_to_xmm(value);
            self.emit(LirInsn::StoreXmm {
                src: v,
                addr: mem,
                size: ty.mem_size(),
            });
            return;
        }
        match self.eval_to_operand(value) {
            LirOperand::Imm(imm) => self.emit(LirInsn::StoreImm {
                imm,
                addr: mem,
                size: ty.mem_size(),
            }),
            LirOperand::Vreg(v) => self.emit(LirInsn::Store {
                src: v,
                addr: mem,
                size: ty.mem_size(),
            }),
        }
    }

    /// Advances the guest PC by a constant — collapses to a single host add
    /// on `%r15` (the specialisation highlighted in Fig. 9/10).
    pub fn inc_pc(&mut self, bytes: u64) {
        self.emit(LirInsn::IncPc { imm: bytes });
    }

    /// Sets the guest PC to a value: a fixed value is a direct jump, a
    /// dynamic one a register-indirect branch (one predicted link).
    pub fn store_pc(&mut self, value: NodeId) {
        if let Some(c) = self.as_const(value) {
            if let Some((back_va, label)) = self.trace_back {
                if back_va == c {
                    // Unconditional loop-back: the region iterates internally
                    // from here on.  The Jump exit metadata still lets a
                    // coincident side exit to the header chain.
                    if self.exit.is_none() {
                        self.exit = Some(BlockExit::Jump { target: c });
                    }
                    self.close_back_edge(c, label);
                    return;
                }
            }
            if self.trace_next == Some(c) {
                self.stitch_to(c);
                return;
            }
            self.emit(LirInsn::SetPcImm { imm: c });
            if self.exit.is_none() {
                self.exit = Some(BlockExit::Jump { target: c });
            }
        } else {
            let v = self.eval_to_gpr(value);
            self.emit(LirInsn::SetPcReg { src: v });
            if self.exit.is_none() {
                self.exit = Some(BlockExit::Indirect);
            }
        }
        self.set_end_of_block();
    }

    /// Sets the guest PC to `taken` if `cond` (a 0/1 node) is non-zero, and
    /// to `fallthrough` otherwise; ends the block.
    pub fn branch_cond(&mut self, cond: NodeId, taken: u64, fallthrough: u64) {
        if let Some(c) = self.as_const(cond) {
            let target = if c != 0 { taken } else { fallthrough };
            if let Some((back_va, label)) = self.trace_back {
                if back_va == target {
                    if self.exit.is_none() {
                        self.exit = Some(BlockExit::Jump { target });
                    }
                    self.close_back_edge(target, label);
                    return;
                }
            }
            if self.trace_next == Some(target) {
                self.stitch_to(target);
                return;
            }
            self.emit(LirInsn::SetPcImm { imm: target });
            if self.exit.is_none() {
                self.exit = Some(BlockExit::Jump { target });
            }
            self.set_end_of_block();
            return;
        }
        if let Some((back_va, label)) = self.trace_back {
            if back_va == taken || back_va == fallthrough {
                // Loop-closing conditional: the loop leg becomes the
                // region-internal back-edge, the exit leg an out-of-line
                // side-exit stub — the hot path per iteration is just the
                // test, the not-taken guard and the back-edge itself.  The
                // Branch exit metadata lets the dispatcher chain the loop
                // exit like any other conditional leg.
                let (off, leave_cond) = if back_va == taken {
                    (fallthrough, Cond::Eq)
                } else {
                    (taken, Cond::Ne)
                };
                if self.exit.is_none() {
                    self.exit = Some(BlockExit::Branch { taken, fallthrough });
                }
                let cv = self.eval_to_gpr(cond);
                let stub = self.new_label();
                self.emit(LirInsn::Test {
                    a: cv,
                    b: LirOperand::Vreg(cv),
                });
                self.emit(LirInsn::Jcc {
                    cond: leave_cond,
                    label: stub,
                });
                self.pending_stubs.push((stub, off));
                self.close_back_edge(back_va, label);
                return;
            }
        }
        if let Some(next) = self.trace_next {
            if next == taken || next == fallthrough {
                // Stitched conditional: the on-trace leg falls through to the
                // next constituent; the off-trace leg jumps to an out-of-line
                // side-exit stub (PC set to the off-trace target, then a
                // return to the dispatcher with precise guest state), so the
                // hot path never executes the stub's PC materialisation.
                let (off, leave_cond) = if next == taken {
                    (fallthrough, Cond::Eq)
                } else {
                    (taken, Cond::Ne)
                };
                let cv = self.eval_to_gpr(cond);
                let stub = self.new_label();
                self.emit(LirInsn::Test {
                    a: cv,
                    b: LirOperand::Vreg(cv),
                });
                self.emit(LirInsn::Jcc {
                    cond: leave_cond,
                    label: stub,
                });
                self.pending_stubs.push((stub, off));
                self.stitch_to(next);
                return;
            }
        }
        if self.exit.is_none() {
            self.exit = Some(BlockExit::Branch { taken, fallthrough });
        }
        let cv = self.eval_to_gpr(cond);
        let label = self.new_label();
        self.emit(LirInsn::Test {
            a: cv,
            b: LirOperand::Vreg(cv),
        });
        self.emit(LirInsn::SetPcImm { imm: fallthrough });
        self.emit(LirInsn::Jcc {
            cond: Cond::Eq,
            label,
        });
        self.emit(LirInsn::SetPcImm { imm: taken });
        self.bind_label(label);
        self.set_end_of_block();
    }

    /// Allocates an intra-block label for generator-internal control flow.
    pub fn new_label(&mut self) -> u32 {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    /// Binds a label at the current position.
    pub fn bind_label(&mut self, label: u32) {
        self.emit(LirInsn::Label { id: label });
    }

    /// Emits an unconditional jump to a label.
    pub fn jump(&mut self, label: u32) {
        self.emit(LirInsn::Jmp { label });
    }

    /// Calls a runtime helper with up to four arguments, returning a node for
    /// its result.  The result is captured into a virtual register
    /// immediately (the call itself is a side effect).
    pub fn call_helper(&mut self, helper: u16, args: &[NodeId]) -> NodeId {
        assert!(args.len() <= 4, "at most four helper arguments supported");
        for (i, &a) in args.iter().enumerate() {
            let op = self.eval_to_operand(a);
            self.emit(LirInsn::SetArg {
                index: i as u8,
                src: op,
            });
        }
        self.emit(LirInsn::CallHelper { helper });
        self.helper_seq += 1;
        let node = self.push_node(Node::HelperResult {
            seq: self.helper_seq,
        });
        let dst = self.new_vreg(VregClass::Gpr);
        self.emit(LirInsn::ReadRet { dst });
        self.evaluated[node.0 as usize] = Some(Loc::Gpr(dst));
        node
    }

    /// Emits a port write of a value node.
    pub fn port_out(&mut self, port: u16, value: NodeId) {
        let v = self.eval_to_gpr(value);
        self.emit(LirInsn::Out { port, src: v });
    }

    fn value_type(&self, id: NodeId) -> ValueType {
        match self.node(id) {
            Node::Const { ty, .. } => ty,
            Node::ReadReg { ty, .. } => ty,
            Node::LoadMem { ty, .. } => ty,
            Node::FpBinary { ty, .. } => ty,
            Node::FpSqrt { ty, .. } => ty,
            Node::FpMulAdd { .. } | Node::IntToFp { .. } => ValueType::F64,
            Node::GprToFp { .. } => ValueType::F64,
            Node::VecBinary { .. } | Node::ReadVec { .. } => ValueType::V128,
            _ => ValueType::U64,
        }
    }

    /// Finishes the block: appends the dispatcher return, then the
    /// out-of-line side-exit stubs accumulated by stitched conditionals
    /// (each a label, the off-trace PC materialisation and a return), and
    /// hands back the accumulated low-level IR.
    pub fn finish(mut self) -> Vec<LirInsn> {
        self.lir.push(LirInsn::Ret);
        for (label, off) in std::mem::take(&mut self.pending_stubs) {
            self.lir.push(LirInsn::Label { id: label });
            self.lir.push(LirInsn::SetPcImm { imm: off });
            self.lir.push(LirInsn::Ret);
        }
        crate::with_scratch(|s| {
            s.emitter.nodes = self.nodes;
            s.emitter.evaluated = self.evaluated;
        });
        self.lir
    }

    /// Number of LIR instructions emitted so far (excluding the final `Ret`).
    pub fn lir_len(&self) -> usize {
        self.lir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::LirBase;

    #[test]
    fn constant_folding_is_applied() {
        let mut e = Emitter::new();
        let a = e.const_u64(40);
        let b = e.const_u64(2);
        let c = e.add(a, b);
        assert_eq!(e.as_const(c), Some(42));
        assert_eq!(e.stats().folded, 1);
    }

    #[test]
    fn register_add_emits_load_alu_store() {
        // The running "add" example of the paper: rd = rn + rm.
        let mut e = Emitter::new();
        let rn = e.load_register(0x100, ValueType::U64);
        let rm = e.load_register(0x108, ValueType::U64);
        let sum = e.add(rn, rm);
        e.store_register(0x100, sum);
        e.inc_pc(4);
        let lir = e.finish();
        // Two loads, a copy+add, a store, the PC increment and the return.
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Load { addr, .. } if addr.disp == 0x108)));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::Alu { .. })));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::Store { .. })));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::IncPc { imm: 4 })));
        assert!(matches!(lir.last(), Some(LirInsn::Ret)));
    }

    #[test]
    fn store_of_constant_uses_store_imm() {
        let mut e = Emitter::new();
        let c = e.const_u64(123);
        e.store_register(0x10, c);
        let lir = e.finish();
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::StoreImm { imm: 123, .. })));
    }

    #[test]
    fn shared_nodes_are_evaluated_once() {
        let mut e = Emitter::new();
        let rn = e.load_register(0x20, ValueType::U64);
        let doubled = e.add(rn, rn);
        e.store_register(0x20, doubled);
        e.store_register(0x28, doubled);
        let lir = e.finish();
        let loads = lir
            .iter()
            .filter(|i| matches!(i, LirInsn::Load { .. }))
            .count();
        assert_eq!(loads, 1, "the shared ReadReg node must be evaluated once");
    }

    #[test]
    fn memory_address_folding() {
        let mut e = Emitter::new();
        let base = e.load_register(0x40, ValueType::U64);
        let off = e.const_u64(16);
        let addr = e.add(base, off);
        let val = e.load_memory(addr, ValueType::U64, false);
        e.store_register(0x48, val);
        let lir = e.finish();
        assert!(
            lir.iter().any(|i| matches!(
                i,
                LirInsn::Load { addr, .. } if matches!(addr.base, LirBase::Vreg(_)) && addr.disp == 16
            )),
            "constant offset should fold into the displacement"
        );
    }

    #[test]
    fn branch_cond_sets_both_targets() {
        let mut e = Emitter::new();
        let flag = e.load_register(0x200, ValueType::U64);
        let zero = e.const_u64(0);
        let cond = e.compare(Cond::Ne, flag, zero);
        e.branch_cond(cond, 0x2000, 0x1004);
        assert!(e.end_of_block());
        let lir = e.finish();
        let pc_sets = lir
            .iter()
            .filter(|i| matches!(i, LirInsn::SetPcImm { .. }))
            .count();
        assert_eq!(pc_sets, 2);
        assert!(lir.iter().any(|i| matches!(i, LirInsn::Jcc { .. })));
    }

    #[test]
    fn constant_condition_branch_folds_to_single_pc_set() {
        let mut e = Emitter::new();
        let one = e.const_u64(1);
        e.branch_cond(one, 0x3000, 0x1004);
        let lir = e.finish();
        let pc_sets: Vec<_> = lir
            .iter()
            .filter(|i| matches!(i, LirInsn::SetPcImm { .. }))
            .collect();
        assert_eq!(pc_sets.len(), 1);
        assert!(matches!(pc_sets[0], LirInsn::SetPcImm { imm: 0x3000 }));
    }

    #[test]
    fn fp_multiply_goes_through_xmm_registers() {
        // The Fig. 11/13 example: fmul d0, d1, d2 becomes a load, mulsd, store.
        let mut e = Emitter::new();
        let d1 = e.load_register(0x110, ValueType::F64);
        let d2 = e.load_register(0x120, ValueType::F64);
        let prod = e.fp_binary(FpBinOp::Mul, d1, d2, ValueType::F64);
        e.store_register(0x100, prod);
        e.inc_pc(4);
        let lir = e.finish();
        assert!(lir.iter().any(|i| matches!(i, LirInsn::LoadXmm { .. })));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Fp { op: FpOp::MulD, .. })));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::StoreXmm { .. })));
        // Crucially there is no helper call, unlike the QEMU output in Fig. 12.
        assert!(!lir.iter().any(|i| matches!(i, LirInsn::CallHelper { .. })));
    }

    #[test]
    fn helper_calls_capture_results() {
        let mut e = Emitter::new();
        let a = e.const_u64(1);
        let b = e.const_u64(2);
        let r = e.call_helper(9, &[a, b]);
        e.store_register(0, r);
        let lir = e.finish();
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::SetArg { index: 0, .. })));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::SetArg { index: 1, .. })));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::CallHelper { helper: 9 })));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::ReadRet { .. })));
    }
}
