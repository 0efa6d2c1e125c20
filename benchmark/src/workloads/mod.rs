//! The four workloads.  Each is a pure function of the seed: it returns
//! guest programs (words only) together with host-computed expectations.
//!
//! Why these four (one sentence each; README.md has the full reasoning):
//!
//! * `hot_loops` — tiny-footprint kernels with millions of trips, so
//!   translated-code *execution* does the work and the JIT almost none.
//! * `cold_code` — a large image most of whose blocks run once, so the JIT
//!   pipeline (decode → emit → opt → regalloc → lower → cache insert) does
//!   the work and execution almost none.
//! * `indirect_dispatch` — millions of short blocks ending in indirect
//!   branches over more pages than the fetch iTLB covers, so the dispatcher
//!   slow path (iTLB, cache lookup, block entry) does the work.
//! * `sys_events` — exceptions, TLB maintenance, demand paging, timer IRQs,
//!   self-modifying code and block-device DMA: the system-level surface.

pub mod cold_code;
pub mod hot_loops;
pub mod indirect_dispatch;
pub mod sys_events;

use crate::program::Program;
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::SysReg;

/// Workload names, in the order `run` without `--workload` executes them.
pub const NAMES: [&str; 4] = ["hot_loops", "cold_code", "indirect_dispatch", "sys_events"];

/// Generates the programs of workload `name` from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Vec<Program>> {
    Some(match name {
        "hot_loops" => hot_loops::generate(seed),
        "cold_code" => cold_code::generate(seed),
        "indirect_dispatch" => indirect_dispatch::generate(seed),
        "sys_events" => sys_events::generate(seed),
        _ => return None,
    })
}

/// Emits `msr ttbr0, root; msr sctlr, 1` (guest MMU on).  Clobbers x0.
pub(crate) fn emit_mmu_on(a: &mut Assembler, root: u64) {
    a.mov_imm64(0, root);
    a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
    a.push(asm::movz(0, 1, 0));
    a.push(asm::msr(SysReg::Sctlr as u32, 0));
}

/// Emits `msr vbar, base`.  Clobbers x9.
pub(crate) fn emit_set_vbar(a: &mut Assembler, base: u64) {
    a.mov_imm64(9, base);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
}
