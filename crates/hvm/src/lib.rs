//! HVM64 — a simulated bare-metal host virtual machine.
//!
//! The paper's Captive runs its generated code inside a KVM virtual machine
//! on a real x86-64 processor, which gives the DBT direct control over host
//! page tables, protection rings and PCIDs.  None of that hardware is
//! available (or appropriate) for a deterministic reproduction, so this crate
//! provides the substitute substrate: a software model of an x86-64-like
//! machine ("HVM64") that is rich enough for every host feature the paper
//! exploits to be exercised as a real code path:
//!
//! * 16 general-purpose registers, 16 vector registers, condition flags;
//! * a load/store instruction set — exactly what the translators emit — with
//!   a compact binary encoding ([`encode`]) so generated-code *size* can be
//!   measured: a size model only, since the machine runs the instructions
//!   and nothing decodes the bytes;
//! * 4-level hierarchical page tables walked by a hardware-model MMU
//!   ([`paging`]) and a PCID-tagged TLB ([`tlb`]);
//! * the two protection rings Captive uses — ring 0 for guest system code,
//!   ring 3 for guest user code — with user/supervisor page checks;
//! * a helper-call interface through which runtime services (soft-MMU,
//!   softfloat, device emulation, page-fault handling) are reached; the
//!   hypervisor drives host paging, rings and TLBs through [`Machine`]'s
//!   Rust API, never through generated code;
//! * a deterministic cycle cost model ([`cost`]) and performance counters
//!   ([`perf`]).
//!
//! Both Captive and the QEMU-style baseline generate HVM64 code and run it on
//! this machine, so their measured difference is exactly the difference in
//! the code they generate and the runtime services they lean on — the same
//! variable the paper isolates.

pub mod cost;
pub mod encode;
pub mod event;
pub mod insn;
pub mod machine;
pub mod mem;
pub mod paging;
pub mod perf;
pub mod tlb;
pub mod virtio;

pub use cost::CostModel;
pub use event::{EventSources, InterruptLatch, Timer, TIMER_LINE};
pub use insn::{AluOp, Cond, FpOp, Gpr, Imm64, MachInsn, MemRef, MemSize, Operand, VecOp, Xmm};
pub use machine::{
    ExitReason, FaultAction, FlagsReg, HelperResult, Machine, MachineConfig, NullRuntime, Ring,
    Runtime,
};
pub use mem::PhysMem;
pub use paging::{PageFlags, PageWalk, WalkError, PAGE_SIZE};
pub use perf::PerfCounters;
pub use tlb::{Tlb, TlbEntry};
pub use virtio::{FaultKind, FaultPlan, VirtioBlk, VirtioBlkConfig, VirtioStats, VBLK_LINE};
