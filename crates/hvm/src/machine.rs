//! The HVM64 machine: register state, MMU, interpreter and runtime hooks.
//!
//! The machine executes blocks of [`MachInsn`] produced by a DBT back-end.
//! All interaction with the outside world goes through a [`Runtime`]
//! implementation supplied by the hypervisor layer: helper calls, page-fault
//! handling and the loop-exit poll.  This mirrors the paper's
//! split between the generated code (running inside the host VM) and the
//! execution engine / hypervisor servicing its exits.
//!
//! # The memory-access path
//!
//! A guest load or store is *one* host memory instruction behind the host
//! MMU (Section 2.7 of the paper), so all six memory-op variants (`Load`,
//! `LoadSx`, `Store`, `StoreImm`, `LoadXmm`, `StoreXmm`) go through one
//! function, `Machine::mem_access`, inlined into the interpreter loop:
//!
//! * **Hit path** (inline): paging off, or a TLB entry for the page under
//!   the current PCID that permits the access (`writable` for a store,
//!   `user` in ring 3).  [`Machine::translate`] charges `tlb_hits` and
//!   `cost.tlb_hit` (nothing with paging off), `mem_access` charges
//!   `mem_accesses`, and the access is one width-matched [`PhysMem`] read or
//!   write.  The instruction's own `cost.mem` was charged by the loop before
//!   the access started, like every other instruction's base cost.
//! * **Slow path** (out of line): a TLB miss *or an entry that does not
//!   permit the access* charges `tlb_misses` and walks the page tables
//!   afresh, so a PTE the runtime changed is observed; a successful walk
//!   charges `page_walk_per_level` per level and fills the TLB.  A failed
//!   walk or permission check charges `page_faults` and calls
//!   [`Runtime::page_fault`] — with `perf.cycles` exactly as accumulated up
//!   to that point — then adds the handler's cost; `Retry` repeats the
//!   translation once, anything else ends the block with
//!   [`ExitReason::MemFault`].
//! * **Malformed access**: a translated address past the end of RAM, or a
//!   128-bit width on a general-purpose operand, is counted in
//!   `mem_accesses`, refused whole by [`PhysMem`], and ends the block with
//!   [`ExitReason::Error`].

use crate::cost::CostModel;
use crate::insn::{AluOp, Cond, FpOp, Gpr, MachInsn, MemRef, MemSize, Operand, VecOp, Xmm};
use crate::mem::PhysMem;
use crate::paging::{self, WalkError, PAGE_SIZE};
use crate::perf::PerfCounters;
use crate::tlb::{Tlb, TlbEntry};

/// x86-style protection rings.  Captive runs guest system code in ring 0 and
/// guest user code in ring 3 of the host VM (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ring {
    /// Most privileged.
    Ring0 = 0,
    /// Least privileged (user mode).
    Ring3 = 3,
}

/// Arithmetic flags produced by ALU / compare instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagsReg {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

/// Why [`Machine::run_block`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The block executed `Ret`: return to the dispatcher.
    BlockEnd,
    /// A helper requested that the whole machine stop.
    Halted,
    /// A helper requested an early return to the dispatcher.
    HelperExit,
    /// A memory access faulted and the runtime asked for it to be propagated
    /// (e.g. a genuine guest page fault).
    MemFault {
        /// Faulting virtual address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The per-run fuel limit was exhausted (runaway block).
    FuelExhausted,
    /// The block was malformed (jump out of range, bad operands, ...).
    Error(String),
}

/// Result returned by runtime helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperResult {
    /// Continue executing the block; the helper body consumed `cost` cycles.
    Continue {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
    /// Stop executing the block and return to the dispatcher.
    Exit {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
    /// Halt the machine entirely (e.g. guest powered off).
    Halt {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
}

/// What to do after the runtime has seen a page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The runtime repaired the mapping (host PTE installed); retry the
    /// access.  `cost` is the handler's cycle cost.
    Retry {
        /// Simulated cycles spent in the fault handler.
        cost: u64,
    },
    /// The fault is guest-visible; abort the block and report it.
    Propagate {
        /// Simulated cycles spent in the fault handler.
        cost: u64,
    },
}

/// Hooks through which generated code reaches runtime services.
///
/// The hypervisor layer (Captive or the QEMU-style baseline) implements this
/// trait; the machine calls into it while interpreting.
pub trait Runtime {
    /// A `CallHelper` instruction was executed.  Arguments are in `rdi`,
    /// `rsi`, `rdx`, `rcx`; the result goes in `rax`.
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult;

    /// A memory access through the MMU faulted (missing mapping or
    /// permission violation).
    fn page_fault(&mut self, vaddr: u64, write: bool, machine: &mut Machine) -> FaultAction {
        let _ = (vaddr, write, machine);
        FaultAction::Propagate { cost: 0 }
    }

    /// Polled at every [`MachInsn::BackEdge`] before the loop-back jump is
    /// taken, with the machine's current simulated cycle count.  Returning
    /// `true` turns the transfer into a dispatcher exit (the guest PC is
    /// already precise at the loop header), which is how the hypervisor
    /// bounds the staleness of a looping translation: a self-modifying
    /// write to a constituent page, a queued guest event, or an expired
    /// [`crate::event::Timer`] deadline takes effect at the next iteration
    /// boundary instead of waiting for the loop to exit on its own.
    fn loop_exit_pending(&mut self, cycles: u64) -> bool {
        let _ = cycles;
        false
    }
}

/// A runtime that provides no services; useful for tests of pure code.
#[derive(Debug, Default)]
pub struct NullRuntime;

impl Runtime for NullRuntime {
    fn helper(&mut self, _id: u16, _machine: &mut Machine) -> HelperResult {
        HelperResult::Continue { cost: 0 }
    }
}

/// Configuration for a new machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Bytes of host physical memory.
    pub phys_mem: u64,
    /// Number of TLB entries.
    pub tlb_entries: usize,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_mem: 256 * 1024 * 1024,
            tlb_entries: 512,
            cost: CostModel::default(),
        }
    }
}

/// The complete architectural state of the host virtual machine.
pub struct Machine {
    /// General-purpose registers.
    pub gpr: [u64; 16],
    /// Vector registers (low, high 64-bit lanes).
    pub xmm: [[u64; 2]; 16],
    /// ALU flags.
    pub flags: FlagsReg,
    /// Current protection ring.
    pub ring: Ring,
    /// CR3: page-table root (bits 12+) and PCID (bits 0..12).
    pub cr3: u64,
    /// Whether paging is enabled (otherwise virtual == physical).
    pub paging: bool,
    /// Physical memory.
    pub mem: PhysMem,
    /// Hardware TLB.
    pub tlb: Tlb,
    /// Cost model in effect.
    pub cost: CostModel,
    /// Performance counters.
    pub perf: PerfCounters,
    /// Maximum instructions interpreted per `run_block` call.
    pub fuel_per_block: u64,
    /// Maximum [`MachInsn::BackEdge`] transfers taken per `run_block` call.
    /// A looping region otherwise runs its whole loop in one entry, which
    /// would starve the dispatcher's block budget and trip the fuel limit
    /// on long (or infinite) guest loops; at the cap the loop *yields* —
    /// the entry returns with the PC precise at the loop header and the
    /// dispatcher chains straight back in, so the cost is one chained
    /// transfer per `loop_trip_limit` iterations.
    pub loop_trip_limit: u64,
}

/// Sign-extends the low `size` bytes of `v` to 64 bits (identity from 64 bits
/// up).
fn sign_extend(v: u64, size: MemSize) -> u64 {
    match size {
        MemSize::U8 => v as i8 as u64,
        MemSize::U16 => v as i16 as u64,
        MemSize::U32 => v as i32 as u64,
        MemSize::U64 | MemSize::U128 => v,
    }
}

impl Machine {
    /// Creates a machine with the given configuration, paging disabled and
    /// all registers zeroed.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            gpr: [0; 16],
            xmm: [[0; 2]; 16],
            flags: FlagsReg::default(),
            ring: Ring::Ring0,
            cr3: 0,
            paging: false,
            mem: PhysMem::new(config.phys_mem),
            tlb: Tlb::new(config.tlb_entries),
            cost: config.cost,
            perf: PerfCounters::default(),
            fuel_per_block: 10_000_000,
            loop_trip_limit: 4096,
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Gpr) -> u64 {
        self.gpr[r.index() as usize]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Gpr, v: u64) {
        self.gpr[r.index() as usize] = v;
    }

    /// Reads a vector register; `None` for one past the file (`Xmm` wraps
    /// any `u8`, and a caller's operand is no more trusted than generated
    /// code's — see the interpreter's `xmm!`).
    pub fn xmm_reg(&self, x: Xmm) -> Option<[u64; 2]> {
        self.xmm.get(x.0 as usize).copied()
    }

    /// Writes a vector register; a register past the file is ignored.
    pub fn set_xmm(&mut self, x: Xmm, v: [u64; 2]) {
        if let Some(slot) = self.xmm.get_mut(x.0 as usize) {
            *slot = v;
        }
    }

    /// Enables paging with the given table root and PCID.
    pub fn enable_paging(&mut self, root: u64, pcid: u16) {
        self.cr3 = (root & !0xFFF) | pcid as u64;
        self.paging = true;
    }

    /// Current PCID from CR3.
    pub fn pcid(&self) -> u16 {
        (self.cr3 & 0xFFF) as u16
    }

    /// Current page-table root from CR3.
    pub fn pt_root(&self) -> u64 {
        self.cr3 & !0xFFF
    }

    /// Translates a virtual address for an access of the given kind,
    /// consulting and filling the TLB.  Does not invoke the runtime.
    #[inline]
    pub fn translate(&mut self, vaddr: u64, write: bool, user: bool) -> Result<u64, WalkError> {
        if !self.paging {
            return Ok(vaddr);
        }
        if let Some(entry) = self.tlb.lookup(vaddr, self.pcid()) {
            if (!write || entry.flags.writable) && (!user || entry.flags.user) {
                self.perf.tlb_hits += 1;
                self.perf.cycles += self.cost.tlb_hit;
                return Ok(entry.frame | (vaddr & (PAGE_SIZE - 1)));
            }
            // Permission upgrade required: walk afresh so a runtime-managed
            // PTE change is observed.
        }
        self.walk_and_fill(vaddr, write, user)
    }

    /// The miss half of [`Machine::translate`]: page walk, permission check,
    /// TLB fill.
    #[cold]
    fn walk_and_fill(&mut self, vaddr: u64, write: bool, user: bool) -> Result<u64, WalkError> {
        self.perf.tlb_misses += 1;
        let walk = paging::walk(&self.mem, self.pt_root(), vaddr)?;
        self.perf.cycles += self.cost.page_walk_per_level * walk.levels as u64;
        if write && !walk.flags.writable {
            return Err(WalkError::NotPresent { level: 1 });
        }
        if user && !walk.flags.user {
            return Err(WalkError::NotPresent { level: 1 });
        }
        self.tlb.insert(TlbEntry {
            vpn: vaddr / PAGE_SIZE,
            frame: walk.frame,
            flags: walk.flags,
            pcid: self.pcid(),
        });
        Ok(walk.frame | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Computes the effective address of a memory operand.
    pub fn effective_address(&self, m: &MemRef) -> u64 {
        let mut a = self.reg(m.base).wrapping_add(m.disp() as i64 as u64);
        if let Some((idx, scale)) = m.index() {
            a = a.wrapping_add(self.reg(idx).wrapping_mul(scale as u64));
        }
        a
    }

    fn operand_value(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v.get(),
        }
    }

    fn set_flags_logic(&mut self, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = false;
        self.flags.of = false;
    }

    fn set_flags_add(&mut self, a: u64, b: u64, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = result < a;
        self.flags.of = ((a ^ result) & (b ^ result)) >> 63 != 0;
    }

    fn set_flags_sub(&mut self, a: u64, b: u64, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = a < b;
        self.flags.of = ((a ^ b) & (a ^ result)) >> 63 != 0;
    }

    /// Evaluates a condition against the current flags.
    pub fn cond(&self, c: Cond) -> bool {
        let f = self.flags;
        match c {
            Cond::Eq => f.zf,
            Cond::Ne => !f.zf,
            Cond::Lt => f.cf,
            Cond::Le => f.cf || f.zf,
            Cond::Ge => !f.cf,
            Cond::Gt => !f.cf && !f.zf,
            Cond::SLt => f.sf != f.of,
            Cond::SLe => f.zf || (f.sf != f.of),
            Cond::SGe => f.sf == f.of,
            Cond::SGt => !f.zf && (f.sf == f.of),
            Cond::Mi => f.sf,
            Cond::Pl => !f.sf,
            Cond::Vs => f.of,
            Cond::Vc => !f.of,
        }
    }

    fn alu(&mut self, op: AluOp, dst: u64, src: u64) -> u64 {
        match op {
            AluOp::Add => {
                let r = dst.wrapping_add(src);
                self.set_flags_add(dst, src, r);
                r
            }
            AluOp::Sub => {
                let r = dst.wrapping_sub(src);
                self.set_flags_sub(dst, src, r);
                r
            }
            AluOp::And => {
                let r = dst & src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Or => {
                let r = dst | src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Xor => {
                let r = dst ^ src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Mul => dst.wrapping_mul(src),
            AluOp::MulHiU => ((dst as u128 * src as u128) >> 64) as u64,
            AluOp::MulHiS => (((dst as i64 as i128) * (src as i64 as i128)) >> 64) as u64,
            AluOp::DivU => dst.checked_div(src).unwrap_or(0),
            AluOp::DivS => {
                if src == 0 {
                    0
                } else {
                    ((dst as i64).wrapping_div(src as i64)) as u64
                }
            }
            AluOp::Shl => dst.wrapping_shl((src & 63) as u32),
            AluOp::Shr => dst.wrapping_shr((src & 63) as u32),
            AluOp::Sar => ((dst as i64).wrapping_shr((src & 63) as u32)) as u64,
        }
    }

    fn fp_scalar(&mut self, op: FpOp, dst: [u64; 2], src: [u64; 2]) -> [u64; 2] {
        let (d, s) = (dst[0], src[0]);
        let low = match op {
            FpOp::AddD => sse_binary(d, s, |a, b| a + b),
            FpOp::SubD => sse_binary(d, s, |a, b| a - b),
            FpOp::MulD => sse_binary(d, s, |a, b| a * b),
            FpOp::DivD => sse_binary(d, s, |a, b| a / b),
            FpOp::SqrtD => {
                // Model the x86 SQRTSD corner case deterministically: the
                // square root of a negative (non-zero) operand is a
                // *negative* quiet NaN (Table 2 of the paper).
                let s = f64::from_bits(s);
                if s < 0.0 {
                    SSE_DEFAULT_NAN
                } else if s.is_nan() {
                    src[0] | SSE_QUIET
                } else {
                    s.sqrt().to_bits()
                }
            }
        };
        [low, dst[1]]
    }

    fn vec_op(&mut self, op: VecOp, dst: [u64; 2], src: [u64; 2]) -> [u64; 2] {
        match op {
            VecOp::AddPd => [
                sse_binary(dst[0], src[0], |a, b| a + b),
                sse_binary(dst[1], src[1], |a, b| a + b),
            ],
            VecOp::MulPd => [
                sse_binary(dst[0], src[0], |a, b| a * b),
                sse_binary(dst[1], src[1], |a, b| a * b),
            ],
            VecOp::Dup64 => [src[0], src[0]],
        }
    }

    /// The memory access of a translated-code instruction (see the module
    /// docs): a load (`store` is `None`) yields `[value, 0]`, a store writes
    /// the low `size` bytes of lane 0; a `U128` access through an `xmm`
    /// operand moves both lanes.  A fault goes to the runtime once and the
    /// access is retried if the runtime repaired the mapping.
    #[inline]
    fn mem_access(
        &mut self,
        rt: &mut dyn Runtime,
        addr: &MemRef,
        size: MemSize,
        xmm: bool,
        store: Option<[u64; 2]>,
    ) -> Result<[u64; 2], ExitReason> {
        let vaddr = self.effective_address(addr);
        let write = store.is_some();
        let mut retried = false;
        loop {
            let user = self.ring == Ring::Ring3;
            match self.translate(vaddr, write, user) {
                Ok(pa) => {
                    self.perf.mem_accesses += 1;
                    let done = match (store, xmm && size == MemSize::U128) {
                        (None, true) => self.mem.read_u128(pa),
                        (None, false) => self.mem.read_uint(pa, size.bytes()).map(|v| [v, 0]),
                        (Some(v), true) => self.mem.write_u128(pa, v).map(|()| v),
                        (Some(v), false) => self
                            .mem
                            .write_uint(pa, v[0] & size.mask(), size.bytes())
                            .map(|()| v),
                    };
                    // Past the end of RAM, or a 128-bit access through a
                    // general-purpose operand: a malformed block.
                    return done.map_err(|e| ExitReason::Error(e.to_string()));
                }
                Err(_) if !retried => {
                    retried = true;
                    if !self.page_fault(rt, vaddr, write) {
                        return Err(ExitReason::MemFault { vaddr, write });
                    }
                }
                // The runtime claimed the retry would succeed but the
                // mapping still faults (e.g. a hostile guest unmapped the
                // page from its own handler).  Degrade to a guest-visible
                // data abort instead of killing the engine.
                Err(_) => return Err(ExitReason::MemFault { vaddr, write }),
            }
        }
    }

    /// Hands a faulting access to the runtime and charges the handler's
    /// cost; `true` if the runtime repaired the mapping and wants a retry.
    #[cold]
    fn page_fault(&mut self, rt: &mut dyn Runtime, vaddr: u64, write: bool) -> bool {
        self.perf.page_faults += 1;
        let action = rt.page_fault(vaddr, write, self);
        let (FaultAction::Retry { cost } | FaultAction::Propagate { cost }) = action;
        self.perf.cycles += cost;
        matches!(action, FaultAction::Retry { .. })
    }

    /// Executes one translated block entered through the dispatcher.  `code`
    /// is the block's instruction sequence; jumps are relative indices within
    /// the block.
    pub fn run_block(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        self.perf.cycles += self.cost.dispatch;
        self.run_block_body(code, rt)
    }

    /// Executes one translated block entered through a patched direct chain
    /// link: charges the (near-zero) chain cost instead of the dispatch cost.
    pub fn run_block_chained(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        self.perf.cycles += self.cost.chain;
        self.run_block_body(code, rt)
    }

    fn run_block_body(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        let mut pc: i64 = 0;
        let mut fuel = self.fuel_per_block;
        let mut backedges_taken = 0u64;
        loop {
            if fuel == 0 {
                return ExitReason::FuelExhausted;
            }
            fuel -= 1;
            let Some(insn) = code.get(pc as usize) else {
                // Running off the end of a block behaves like a return.
                return ExitReason::BlockEnd;
            };
            self.perf.insns += 1;
            pc += 1;
            // The base cost is charged inside each arm, where the variant is
            // statically known and `insn_cost` folds to one field load; up
            // front it is a second jump table ahead of the `match`'s own.
            // Still first in the arm: a runtime call made by the arm (a page
            // fault, a helper) sees the instruction already paid for.
            macro_rules! charge {
                () => {
                    self.perf.cycles += self.cost.insn_cost(insn)
                };
            }
            // `Xmm` wraps any `u8` and these operands come from generated
            // code, so a vector register past the file ends the block like
            // every other malformed operand instead of panicking the host on
            // the index (whose bounds check is paid either way).
            macro_rules! xmm {
                ($x:expr) => {
                    match self.xmm.get($x.0 as usize) {
                        Some(value) => *value,
                        None => return bad_xmm($x),
                    }
                };
            }
            macro_rules! set_xmm {
                ($x:expr, $value:expr) => {{
                    let value = $value;
                    match self.xmm.get_mut($x.0 as usize) {
                        Some(slot) => *slot = value,
                        None => return bad_xmm($x),
                    }
                }};
            }
            match *insn {
                MachInsn::MovImm { dst, imm } => {
                    charge!();
                    self.set_reg(dst, imm)
                }
                MachInsn::MovReg { dst, src } => {
                    charge!();
                    self.set_reg(dst, self.reg(src))
                }
                MachInsn::Load {
                    dst,
                    ref addr,
                    size,
                } => {
                    charge!();
                    match self.mem_access(rt, addr, size, false, None) {
                        Ok(v) => self.set_reg(dst, v[0]),
                        Err(exit) => return exit,
                    }
                }
                MachInsn::LoadSx {
                    dst,
                    ref addr,
                    size,
                } => {
                    charge!();
                    match self.mem_access(rt, addr, size, false, None) {
                        Ok(v) => self.set_reg(dst, sign_extend(v[0], size)),
                        Err(exit) => return exit,
                    }
                }
                MachInsn::Store {
                    src,
                    ref addr,
                    size,
                } => {
                    charge!();
                    let v = [self.reg(src), 0];
                    if let Err(exit) = self.mem_access(rt, addr, size, false, Some(v)) {
                        return exit;
                    }
                }
                MachInsn::StoreImm {
                    imm,
                    ref addr,
                    size,
                } => {
                    charge!();
                    if let Err(exit) = self.mem_access(rt, addr, size, false, Some([imm, 0])) {
                        return exit;
                    }
                }
                MachInsn::Lea { dst, ref addr } => {
                    charge!();
                    let va = self.effective_address(addr);
                    self.set_reg(dst, va);
                }
                MachInsn::Alu { op, dst, src } => {
                    charge!();
                    let a = self.reg(dst);
                    let b = self.operand_value(src);
                    let r = self.alu(op, a, b);
                    self.set_reg(dst, r);
                }
                MachInsn::Cmp { a, b } => {
                    charge!();
                    let av = self.reg(a);
                    let bv = self.operand_value(b);
                    let r = av.wrapping_sub(bv);
                    self.set_flags_sub(av, bv, r);
                }
                MachInsn::Test { a, b } => {
                    charge!();
                    let r = self.reg(a) & self.operand_value(b);
                    self.set_flags_logic(r);
                }
                MachInsn::Neg { dst } => {
                    charge!();
                    let v = self.reg(dst).wrapping_neg();
                    self.set_reg(dst, v);
                }
                MachInsn::Not { dst } => {
                    charge!();
                    let v = !self.reg(dst);
                    self.set_reg(dst, v);
                }
                MachInsn::MovZx { dst, src, size } => {
                    charge!();
                    self.set_reg(dst, self.reg(src) & size.mask());
                }
                MachInsn::MovSx { dst, src, size } => {
                    charge!();
                    if size == MemSize::U128 {
                        return ExitReason::Error("movsx from a 128-bit source".into());
                    }
                    self.set_reg(dst, sign_extend(self.reg(src), size));
                }
                MachInsn::SetCc { cond, dst } => {
                    charge!();
                    let v = self.cond(cond) as u64;
                    self.set_reg(dst, v);
                }
                MachInsn::CmovCc { cond, dst, src } => {
                    charge!();
                    if self.cond(cond) {
                        self.set_reg(dst, self.reg(src));
                    }
                }
                MachInsn::Jmp { target } => {
                    charge!();
                    pc = pc - 1 + target as i64;
                    if pc < 0 || pc as usize > code.len() {
                        return ExitReason::Error(format!("jump out of range to {pc}"));
                    }
                }
                MachInsn::Jcc { cond, target } => {
                    charge!();
                    if self.cond(cond) {
                        pc = pc - 1 + target as i64;
                        if pc < 0 || pc as usize > code.len() {
                            return ExitReason::Error(format!("jump out of range to {pc}"));
                        }
                    }
                }
                MachInsn::CallHelper { helper } => {
                    charge!();
                    self.perf.helper_calls += 1;
                    match rt.helper(helper, self) {
                        HelperResult::Continue { cost } => self.perf.cycles += cost,
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::Ret => {
                    charge!();
                    return ExitReason::BlockEnd;
                }
                // A narrow vector load zeroes the upper lane; a narrow vector
                // store writes the low lane only.
                MachInsn::LoadXmm {
                    dst,
                    ref addr,
                    size,
                } => {
                    charge!();
                    // Refused before the access has any effect.
                    xmm!(dst);
                    match self.mem_access(rt, addr, size, true, None) {
                        Ok(v) => set_xmm!(dst, v),
                        Err(exit) => return exit,
                    }
                }
                MachInsn::StoreXmm {
                    src,
                    ref addr,
                    size,
                } => {
                    charge!();
                    let v = xmm!(src);
                    if let Err(exit) = self.mem_access(rt, addr, size, true, Some(v)) {
                        return exit;
                    }
                }
                MachInsn::MovGprToXmm { dst, src } => {
                    charge!();
                    let v = self.reg(src);
                    set_xmm!(dst, [v, 0]);
                }
                MachInsn::MovXmm { dst, src, size } => {
                    charge!();
                    let v = xmm!(src);
                    match size {
                        MemSize::U128 => set_xmm!(dst, v),
                        // Low-lane move zeroes the upper lane, mirroring a
                        // U64 LoadXmm.
                        _ => set_xmm!(dst, [v[0], 0]),
                    }
                }
                MachInsn::MovXmmToGpr { dst, src } => {
                    charge!();
                    let v = xmm!(src)[0];
                    self.set_reg(dst, v);
                }
                MachInsn::Fp { op, dst, src } => {
                    charge!();
                    let d = xmm!(dst);
                    let s = xmm!(src);
                    let r = self.fp_scalar(op, d, s);
                    set_xmm!(dst, r);
                }
                MachInsn::FpFma { dst, a, b } => {
                    charge!();
                    let [acc, hi] = xmm!(dst);
                    let r = sse_fma(acc, xmm!(a)[0], xmm!(b)[0]);
                    set_xmm!(dst, [r, hi]);
                }
                MachInsn::FpCmp { a, b } => {
                    charge!();
                    let x = f64::from_bits(xmm!(a)[0]);
                    let y = f64::from_bits(xmm!(b)[0]);
                    // ucomisd semantics: ZF/CF encode the outcome, OF/SF cleared.
                    self.flags.of = false;
                    self.flags.sf = false;
                    if x.is_nan() || y.is_nan() {
                        self.flags.zf = true;
                        self.flags.cf = true;
                    } else if x < y {
                        self.flags.zf = false;
                        self.flags.cf = true;
                    } else if x > y {
                        self.flags.zf = false;
                        self.flags.cf = false;
                    } else {
                        self.flags.zf = true;
                        self.flags.cf = false;
                    }
                }
                MachInsn::CvtI2D { dst, src } => {
                    charge!();
                    let v = self.reg(src) as i64 as f64;
                    let hi = xmm!(dst)[1];
                    set_xmm!(dst, [v.to_bits(), hi]);
                }
                MachInsn::CvtD2I { dst, src } => {
                    charge!();
                    // Truncation toward zero, saturating, NaN to 0.
                    let r = f64::from_bits(xmm!(src)[0]) as i64;
                    self.set_reg(dst, r as u64);
                }
                MachInsn::Vec { op, dst, src } => {
                    charge!();
                    let d = xmm!(dst);
                    let s = xmm!(src);
                    let r = self.vec_op(op, d, s);
                    set_xmm!(dst, r);
                }
                MachInsn::TraceEdge => {
                    charge!();
                    self.perf.region_transfers += 1;
                }
                MachInsn::BackEdge {
                    pc: header,
                    target,
                    reconcile,
                } => {
                    charge!();
                    // The PC update is folded into the transfer: state is
                    // precise at the loop header whether the jump is taken or
                    // the pending-event poll exits to the dispatcher.
                    self.set_reg(Gpr::R15, header);
                    if rt.loop_exit_pending(self.perf.cycles)
                        || backedges_taken >= self.loop_trip_limit
                    {
                        if !reconcile {
                            return ExitReason::BlockEnd;
                        }
                        // Promoted region: fall through into the reconcile
                        // block (compensation stores + Ret) so the promoted
                        // slots are materialised before the dispatcher sees
                        // the register file.
                    } else {
                        backedges_taken += 1;
                        self.perf.backedge_transfers += 1;
                        pc = pc - 1 + target as i64;
                        if pc < 0 || pc as usize > code.len() {
                            return ExitReason::Error(format!("back-edge out of range to {pc}"));
                        }
                    }
                }
            }
        }
    }
}

/// The NaN an invalid SSE operation returns: negative, quiet, no payload.
const SSE_DEFAULT_NAN: u64 = 0xFFF8_0000_0000_0000;
/// The quiet bit of a binary64 NaN.
const SSE_QUIET: u64 = 1 << 51;

/// One lane of `addsd` / `subsd` / `mulsd` / `divsd` / `addpd` / `mulpd`
/// with the destination `d` as first source, NaN bits as SSE gives them
/// rather than as the host's `f64` arithmetic leaves them: a NaN operand
/// comes back quieted with its sign and payload (the first source when both
/// are NaNs), and an invalid operation gives [`SSE_DEFAULT_NAN`].  Only
/// those two cases have a NaN result.
#[inline]
fn sse_binary(d: u64, s: u64, op: impl Fn(f64, f64) -> f64) -> u64 {
    let (a, b) = (f64::from_bits(d), f64::from_bits(s));
    let r = op(a, b);
    if !r.is_nan() {
        r.to_bits()
    } else if a.is_nan() {
        d | SSE_QUIET
    } else if b.is_nan() {
        s | SSE_QUIET
    } else {
        SSE_DEFAULT_NAN
    }
}

/// `vfmadd231sd acc, a, b` on the low lane, `a * b + acc` rounded once,
/// with NaN bits as the FMA unit gives them ([`sse_fma_nan`]).
#[inline]
fn sse_fma(acc: u64, a: u64, b: u64) -> u64 {
    let r = f64::from_bits(a).mul_add(f64::from_bits(b), f64::from_bits(acc));
    if r.is_nan() {
        sse_fma_nan(acc, a, b)
    } else {
        r.to_bits()
    }
}

/// The NaN `vfmadd231sd acc, a, b` returns: the first NaN among `a`, `b`
/// and `acc`, quieted with its sign and payload, and with no NaN operand
/// (an invalid operation) [`SSE_DEFAULT_NAN`].
#[cold]
fn sse_fma_nan(acc: u64, a: u64, b: u64) -> u64 {
    [a, b, acc]
        .into_iter()
        .find(|&x| f64::from_bits(x).is_nan())
        .map_or(SSE_DEFAULT_NAN, |x| x | SSE_QUIET)
}

#[cold]
fn bad_xmm(x: Xmm) -> ExitReason {
    ExitReason::Error(format!("vector register {} out of range", x.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_page, FrameAlloc, PageFlags};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            phys_mem: 8 * 1024 * 1024,
            ..Default::default()
        })
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 40,
            },
            MachInsn::Alu {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Operand::imm(2),
            },
            MachInsn::Cmp {
                a: Gpr::Rax,
                b: Operand::imm(42),
            },
            MachInsn::SetCc {
                cond: Cond::Eq,
                dst: Gpr::Rbx,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 42);
        assert_eq!(m.reg(Gpr::Rbx), 1);
        assert_eq!(m.perf.insns, 5);
        assert!(m.perf.cycles > 0);
    }

    #[test]
    fn flat_memory_access_without_paging() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x2000,
            },
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 0xDEAD_BEEF,
            },
            MachInsn::Store {
                src: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Load {
                dst: Gpr::Rbx,
                addr: MemRef::base_disp(Gpr::Rsi, 0),
                size: MemSize::U32,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rbx), 0xDEAD_BEEF);
        assert_eq!(m.mem.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn loops_with_conditional_jumps() {
        let mut m = machine();
        let mut rt = NullRuntime;
        // Sum 1..=10 in rax using rcx as the counter.
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 0,
            },
            MachInsn::MovImm {
                dst: Gpr::Rcx,
                imm: 10,
            },
            // loop:
            MachInsn::Alu {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            MachInsn::Alu {
                op: AluOp::Sub,
                dst: Gpr::Rcx,
                src: Operand::imm(1),
            },
            MachInsn::Jcc {
                cond: Cond::Ne,
                target: -2,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 55);
    }

    #[test]
    fn paging_translates_and_counts_tlb() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        assert!(map_page(
            &mut m.mem,
            root,
            0x4000_0000,
            0x3000,
            PageFlags::kernel_rw(),
            &mut alloc
        ));
        m.enable_paging(root, 0);
        m.mem.write_u64(0x3008, 0x1234).unwrap();

        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x4000_0008,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Load {
                dst: Gpr::Rbx,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 0x1234);
        assert_eq!(m.perf.tlb_misses, 1, "first access walks");
        assert_eq!(m.perf.tlb_hits, 1, "second access hits the TLB");
    }

    #[test]
    fn unmapped_access_propagates_fault() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        m.enable_paging(root, 0);
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x7777_0000,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(
            m.run_block(&code, &mut rt),
            ExitReason::MemFault {
                vaddr: 0x7777_0000,
                write: false
            }
        );
        assert_eq!(m.perf.page_faults, 1);
    }

    #[test]
    fn user_mode_cannot_touch_kernel_pages() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        assert!(map_page(
            &mut m.mem,
            root,
            0x5000,
            0x6000,
            PageFlags::kernel_rw(),
            &mut alloc
        ));
        m.enable_paging(root, 0);
        m.ring = Ring::Ring3;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x5000,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert!(matches!(
            m.run_block(&code, &mut rt),
            ExitReason::MemFault { .. }
        ));
    }

    #[test]
    fn fp_and_vector_ops() {
        let mut m = machine();
        let mut rt = NullRuntime;
        m.set_xmm(Xmm(0), [2.0f64.to_bits(), 0]);
        m.set_xmm(Xmm(1), [3.5f64.to_bits(), 0]);
        m.set_xmm(Xmm(2), [1.0f64.to_bits(), 10.0f64.to_bits()]);
        m.set_xmm(Xmm(3), [4.0f64.to_bits(), 0.5f64.to_bits()]);
        let code = [
            MachInsn::Fp {
                op: FpOp::MulD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::Vec {
                op: VecOp::AddPd,
                dst: Xmm(2),
                src: Xmm(3),
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(0)).unwrap()[0]), 7.0);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(2)).unwrap()[0]), 5.0);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(2)).unwrap()[1]), 10.5);
    }

    #[test]
    fn sqrt_of_negative_matches_x86_sign_behaviour() {
        let mut m = machine();
        let mut rt = NullRuntime;
        m.set_xmm(Xmm(1), [(-0.5f64).to_bits(), 0]);
        let code = [
            MachInsn::Fp {
                op: FpOp::SqrtD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::Ret,
        ];
        m.run_block(&code, &mut rt);
        let bits = m.xmm_reg(Xmm(0)).unwrap()[0];
        assert!(f64::from_bits(bits).is_nan());
        assert_eq!(
            bits >> 63,
            1,
            "host (x86-style) sqrt returns a negative NaN"
        );
    }

    #[test]
    fn helper_calls_reach_the_runtime() {
        struct CountingRt {
            calls: u32,
        }
        impl Runtime for CountingRt {
            fn helper(&mut self, id: u16, m: &mut Machine) -> HelperResult {
                self.calls += 1;
                let arg = m.reg(Gpr::Rdi);
                m.set_reg(Gpr::Rax, arg * 2 + id as u64);
                HelperResult::Continue { cost: 100 }
            }
        }
        let mut m = machine();
        let mut rt = CountingRt { calls: 0 };
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rdi,
                imm: 21,
            },
            MachInsn::CallHelper { helper: 7 },
            MachInsn::Ret,
        ];
        let before = m.perf.cycles;
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(rt.calls, 1);
        assert_eq!(m.reg(Gpr::Rax), 49);
        assert!(m.perf.cycles - before >= 100 + m.cost.helper_call);
    }

    #[test]
    fn fuel_limit_stops_runaway_blocks() {
        let mut m = machine();
        m.fuel_per_block = 100;
        let mut rt = NullRuntime;
        let code = [MachInsn::Jmp { target: 0 }];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::FuelExhausted);
    }

    #[test]
    fn fault_handler_can_repair_and_retry() {
        struct FixerRt {
            root: u64,
            alloc: FrameAlloc,
            fixed: u32,
        }
        impl Runtime for FixerRt {
            fn helper(&mut self, _id: u16, _m: &mut Machine) -> HelperResult {
                HelperResult::Continue { cost: 0 }
            }
            fn page_fault(&mut self, vaddr: u64, _write: bool, m: &mut Machine) -> FaultAction {
                self.fixed += 1;
                let page = vaddr & !(PAGE_SIZE - 1);
                map_page(
                    &mut m.mem,
                    self.root,
                    page,
                    0x3000,
                    PageFlags::kernel_rw(),
                    &mut self.alloc,
                );
                FaultAction::Retry { cost: 500 }
            }
        }
        let mut m = machine();
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        m.enable_paging(root, 0);
        m.mem.write_u64(0x3010, 77).unwrap();
        let mut rt = FixerRt {
            root,
            alloc,
            fixed: 0,
        };
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x9000_0010,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(rt.fixed, 1, "handler ran once");
        assert_eq!(m.reg(Gpr::Rax), 77, "access succeeded after repair");
    }

    #[test]
    fn a_mem_ref_reads_back_what_it_was_built_from_and_addresses_the_wrapping_sum() {
        let mut m = machine();
        for (i, r) in Gpr::ALL.into_iter().enumerate() {
            m.set_reg(r, 0x0123_4567_89AB_CDEF_u64.wrapping_mul(i as u64 + 1));
        }
        for base in Gpr::ALL {
            for disp in [i32::MIN, -129, -1, 0, 127, 128, i32::MAX] {
                let plain = MemRef::base_disp(base, disp);
                assert_eq!(
                    (plain.base, plain.index(), plain.disp()),
                    (base, None, disp)
                );
                let at = m.reg(base).wrapping_add(disp as i64 as u64);
                assert_eq!(m.effective_address(&plain), at, "{plain}");
                for index in Gpr::ALL {
                    for scale in [1u8, 2, 4, 8] {
                        let mem = MemRef::base_index(base, index, scale, disp);
                        let read = (mem.base, mem.index(), mem.disp());
                        assert_eq!(read, (base, Some((index, scale)), disp));
                        let scaled = m.reg(index).wrapping_mul(scale as u64);
                        assert_eq!(m.effective_address(&mem), at.wrapping_add(scaled), "{mem}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_immediate_past_imm32_keeps_all_64_bits() {
        let x = 0x0F0F_1234_8765_F0F0_u64;
        for imm in [0xFFFF_0000_FFFF_0000, 0x8000_0000, u64::MAX] {
            let mut m = machine();
            let mut rt = NullRuntime;
            let at = MemRef::base(Gpr::Rsi);
            let set = |cond, dst| MachInsn::SetCc { cond, dst };
            let code = [
                MachInsn::MovImm { dst: Gpr::Rax, imm },
                MachInsn::MovImm {
                    dst: Gpr::Rbx,
                    imm: x,
                },
                MachInsn::MovImm {
                    dst: Gpr::Rcx,
                    imm: x,
                },
                MachInsn::MovImm {
                    dst: Gpr::Rsi,
                    imm: 0x3000,
                },
                MachInsn::Alu {
                    op: AluOp::And,
                    dst: Gpr::Rbx,
                    src: Operand::imm(imm),
                },
                MachInsn::Alu {
                    op: AluOp::Add,
                    dst: Gpr::Rcx,
                    src: Operand::imm(imm),
                },
                MachInsn::StoreImm {
                    imm,
                    addr: at,
                    size: MemSize::U64,
                },
                MachInsn::Cmp {
                    a: Gpr::Rbx,
                    b: Operand::imm(imm),
                },
                set(Cond::Eq, Gpr::R8),
                set(Cond::Lt, Gpr::R9),
                set(Cond::Mi, Gpr::R10),
                set(Cond::Vs, Gpr::R11),
                MachInsn::Test {
                    a: Gpr::Rax,
                    b: Operand::imm(imm),
                },
                set(Cond::Eq, Gpr::R12),
                set(Cond::Mi, Gpr::R13),
                MachInsn::Ret,
            ];
            assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
            let and = x & imm;
            let diff = and.wrapping_sub(imm);
            let want = [
                (Gpr::Rax, imm),
                (Gpr::Rbx, and),
                (Gpr::Rcx, x.wrapping_add(imm)),
                (Gpr::R8, (and == imm) as u64),
                (Gpr::R9, (and < imm) as u64),
                (Gpr::R10, diff >> 63),
                (Gpr::R11, ((and ^ imm) & (and ^ diff)) >> 63),
                (Gpr::R12, 0),
                (Gpr::R13, imm >> 63),
            ];
            for (r, v) in want {
                assert_eq!(m.reg(r), v, "{r} with imm {imm:#x}");
            }
            assert_eq!(m.mem.read_u64(0x3000).unwrap(), imm, "stored {imm:#x}");
        }
    }

    /// `xmm0 <- xmm0 op xmm1` for each SSE arithmetic operation, scalar
    /// then packed.
    const FP_OPS: [MachInsn; 6] = {
        let (dst, src) = (Xmm(0), Xmm(1));
        [
            MachInsn::Fp {
                op: FpOp::AddD,
                dst,
                src,
            },
            MachInsn::Fp {
                op: FpOp::SubD,
                dst,
                src,
            },
            MachInsn::Fp {
                op: FpOp::MulD,
                dst,
                src,
            },
            MachInsn::Fp {
                op: FpOp::DivD,
                dst,
                src,
            },
            MachInsn::Vec {
                op: VecOp::AddPd,
                dst,
                src,
            },
            MachInsn::Vec {
                op: VecOp::MulPd,
                dst,
                src,
            },
        ]
    };

    /// Runs one of [`FP_OPS`] through the machine.
    fn fp_pair(m: &mut Machine, insn: MachInsn, dst: [u64; 2], src: [u64; 2]) -> [u64; 2] {
        m.set_xmm(Xmm(0), dst);
        m.set_xmm(Xmm(1), src);
        let code = [insn, MachInsn::Ret];
        assert_eq!(m.run_block(&code, &mut NullRuntime), ExitReason::BlockEnd);
        m.xmm_reg(Xmm(0)).unwrap()
    }

    #[test]
    fn sse_arithmetic_gives_sse_nan_bits() {
        const INF: u64 = 0x7FF0_0000_0000_0000;
        const NEG_INF: u64 = 0xFFF0_0000_0000_0000;
        const ONE: u64 = 0x3FF0_0000_0000_0000;
        let mut m = machine();
        // An invalid operation gives the negative default NaN; a scalar
        // operation keeps the destination's upper lane.
        for (k, a, b) in [
            (0, INF, NEG_INF),
            (1, INF, INF),
            (2, 0, INF),
            (3, 0, 0),
            (3, NEG_INF, INF),
        ] {
            let r = fp_pair(&mut m, FP_OPS[k], [a, 7], [b, 9]);
            assert_eq!(
                r,
                [0xFFF8_0000_0000_0000, 7],
                "{:?} {a:#x}, {b:#x}",
                FP_OPS[k]
            );
        }
        // A NaN operand comes back quieted with its sign and payload; of
        // two, the first source's.
        let cases = [
            (0x7FF8_0000_0000_0001, ONE, 0x7FF8_0000_0000_0001),
            (ONE, 0xFFF0_0000_0000_1234, 0xFFF8_0000_0000_1234),
            (
                0x7FF0_0000_0000_0005,
                0xFFF8_0000_0000_0009,
                0x7FF8_0000_0000_0005,
            ),
            (INF, 0x7FF4_0000_0000_0000, 0x7FFC_0000_0000_0000),
        ];
        for (a, b, want) in cases {
            for insn in &FP_OPS[..4] {
                let r = fp_pair(&mut m, *insn, [a, 0], [b, 0]);
                assert_eq!(r[0], want, "{insn:?} {a:#x}, {b:#x}");
            }
        }
        // The packed pair applies the rules lane by lane: 1.5 + 0.25 and
        // −inf + inf; 0 × −inf and a signalling NaN times 2.
        let add = fp_pair(
            &mut m,
            FP_OPS[4],
            [0x3FF8_0000_0000_0000, NEG_INF],
            [0x3FD0_0000_0000_0000, INF],
        );
        assert_eq!(add, [0x3FFC_0000_0000_0000, 0xFFF8_0000_0000_0000]);
        let mul = fp_pair(
            &mut m,
            FP_OPS[5],
            [0, 0x7FF0_0000_0000_00AB],
            [NEG_INF, 0x4000_0000_0000_0000],
        );
        assert_eq!(mul, [0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_00AB]);
        // The fused multiply-add `acc + a × b`: of NaN operands, the first
        // of `a`, `b`, `acc`, quieted, even beside an invalid product; with
        // none, an invalid operation gives the default NaN.  The upper lane
        // is the accumulator's.
        let (nan1, nan2, nan3) = (
            0x7FF8_0000_0000_0001,
            0xFFF8_0000_0000_0002,
            0x7FF8_0000_0000_0003,
        );
        let snan4 = 0x7FF0_0000_0000_0004;
        let fma_cases = [
            (nan1, nan2, nan3, nan2),
            (ONE, snan4, nan3, 0x7FF8_0000_0000_0004),
            (nan1, 0, INF, nan1),
            (ONE, 0, INF, 0xFFF8_0000_0000_0000),
            (NEG_INF, INF, ONE, 0xFFF8_0000_0000_0000),
        ];
        for (acc, a, b, want) in fma_cases {
            m.set_xmm(Xmm(0), [acc, 7]);
            m.set_xmm(Xmm(1), [a, 0]);
            m.set_xmm(Xmm(2), [b, 0]);
            let fma = MachInsn::FpFma {
                dst: Xmm(0),
                a: Xmm(1),
                b: Xmm(2),
            };
            let code = [fma, MachInsn::Ret];
            assert_eq!(m.run_block(&code, &mut NullRuntime), ExitReason::BlockEnd);
            let r = m.xmm_reg(Xmm(0)).unwrap();
            assert_eq!(r, [want, 7], "fma {acc:#x} + {a:#x} × {b:#x}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse_arithmetic_is_the_hosts_on_seeded_edge_patterns() {
        use std::arch::asm;
        use std::arch::x86_64::__m128d;
        // What this host's SSE unit gives, operand order pinned by `asm!`.
        fn host(k: usize, d: [u64; 2], s: [u64; 2]) -> [u64; 2] {
            // SAFETY: SSE2 is baseline on x86-64; the instructions touch
            // only the two named registers.
            unsafe {
                let mut a: __m128d = std::mem::transmute(d);
                let b: __m128d = std::mem::transmute(s);
                match k {
                    0 => asm!("addsd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                    1 => asm!("subsd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                    2 => asm!("mulsd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                    3 => asm!("divsd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                    4 => asm!("addpd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                    _ => asm!("mulpd {a}, {b}", a = inout(xmm_reg) a, b = in(xmm_reg) b),
                }
                std::mem::transmute::<__m128d, [u64; 2]>(a)
            }
        }
        // splitmix64 patterns biased to zeros, subnormals, extremes,
        // infinities and NaNs of both kinds and signs.
        let mut state = 0x55E5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut pattern = move || {
            let r = next();
            let sign = r & (1 << 63);
            let frac = next() & ((1 << 52) - 1);
            let exp: u64 = match r % 8 {
                0 => return sign,
                1 => 0,
                2 => 1,
                3 => 0x7FE,
                4 => return sign | 0x7FF0_0000_0000_0000,
                5 => return sign | 0x7FF0_0000_0000_0000 | frac.max(1),
                6 => 0x3FC + (r >> 8) % 8,
                _ => 1 + (r >> 8) % 0x7FE,
            };
            sign | exp << 52 | frac
        };
        let mut m = machine();
        for _ in 0..20_000 {
            let (d, s) = ([pattern(), pattern()], [pattern(), pattern()]);
            for (k, insn) in FP_OPS.into_iter().enumerate() {
                let got = fp_pair(&mut m, insn, d, s);
                assert_eq!(got, host(k, d, s), "{insn:?} {d:x?}, {s:x?}");
            }
        }
    }
}
