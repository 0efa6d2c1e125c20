//! Running a generated program on an engine and checking what came out.
//!
//! An *op* is one program run on one engine.  It fails on a non-halt exit,
//! a wrong checked register / memory digest / disk digest, or (decided by
//! the caller) a disagreement between the two engines or between samples.

use crate::program::{fnv1a, Check, Program};
use captive::{Captive, CaptiveConfig};
use qemu_ref::QemuRef;
use std::time::Instant;

/// Block budget handed to `run`: effectively unbounded, so a run ends at
/// the guest's `hlt` or not at all.
pub const BLOCK_BUDGET: u64 = 1 << 40;

/// How a `run` call ended, engine-neutral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    Halted(u64),
    Budget,
    Error(String),
}

/// The public surface both engines share, as the harness uses it.
pub trait Engine {
    fn load_program(&mut self, gpa: u64, words: &[u32]);
    fn set_entry(&mut self, pc: u64);
    fn run_blocks(&mut self, max_blocks: u64) -> Exit;
    fn reg(&mut self, index: u32) -> u64;
    fn nzcv(&mut self) -> u64;
    fn mem_digest(&self, start: u64, len: u64) -> u64;
    fn disk(&self) -> Option<&[u8]>;
    fn cycles(&self) -> u64;
}

impl Engine for Captive {
    fn load_program(&mut self, gpa: u64, words: &[u32]) {
        Captive::load_program(self, gpa, words)
    }
    fn set_entry(&mut self, pc: u64) {
        Captive::set_entry(self, pc)
    }
    fn run_blocks(&mut self, max_blocks: u64) -> Exit {
        match self.run(max_blocks) {
            captive::RunExit::GuestHalted { code } => Exit::Halted(code),
            captive::RunExit::BudgetExhausted => Exit::Budget,
            captive::RunExit::Error(e) => Exit::Error(e),
        }
    }
    fn reg(&mut self, index: u32) -> u64 {
        self.guest_reg(index)
    }
    fn nzcv(&mut self) -> u64 {
        self.guest_nzcv()
    }
    fn mem_digest(&self, start: u64, len: u64) -> u64 {
        self.guest_mem_digest(start, len)
    }
    fn disk(&self) -> Option<&[u8]> {
        self.runtime.virtio.as_ref().map(|d| d.disk())
    }
    fn cycles(&self) -> u64 {
        self.machine.perf.cycles
    }
}

impl Engine for QemuRef {
    fn load_program(&mut self, gpa: u64, words: &[u32]) {
        QemuRef::load_program(self, gpa, words)
    }
    fn set_entry(&mut self, pc: u64) {
        QemuRef::set_entry(self, pc)
    }
    fn run_blocks(&mut self, max_blocks: u64) -> Exit {
        match self.run(max_blocks) {
            qemu_ref::RunExit::GuestHalted { code } => Exit::Halted(code),
            qemu_ref::RunExit::BudgetExhausted => Exit::Budget,
            qemu_ref::RunExit::Error(e) => Exit::Error(e),
        }
    }
    fn reg(&mut self, index: u32) -> u64 {
        self.guest_reg(index)
    }
    fn nzcv(&mut self) -> u64 {
        self.guest_nzcv()
    }
    fn mem_digest(&self, start: u64, len: u64) -> u64 {
        self.guest_mem_digest(start, len)
    }
    fn disk(&self) -> Option<&[u8]> {
        self.runtime.virtio.as_ref().map(|d| d.disk())
    }
    fn cycles(&self) -> u64 {
        self.machine.perf.cycles
    }
}

/// Captive exactly as shipped (`CaptiveConfig::default()`); the block
/// device is attached only for the program that drives it.
pub fn new_captive(p: &Program) -> Captive {
    Captive::new(CaptiveConfig {
        virtio: p.virtio.clone(),
        ..CaptiveConfig::default()
    })
}

/// The strongest honest baseline: `QemuRef::with_goto_tb`, same RAM size.
pub fn new_qemu(p: &Program) -> QemuRef {
    let mut q = QemuRef::with_goto_tb(CaptiveConfig::default().guest_ram);
    if let Some(cfg) = &p.virtio {
        q.attach_virtio(cfg.clone());
    }
    q
}

/// Loads every segment and sets the entry point.
pub fn load(p: &Program, e: &mut impl Engine) {
    for s in &p.segments {
        e.load_program(s.gpa, &s.words);
    }
    e.set_entry(p.entry);
}

/// Architectural state both engines must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    pub regs: [u64; 31],
    pub nzcv: u64,
    pub window: u64,
}

/// Outcome of one op.
#[derive(Debug, Clone)]
pub struct Op {
    pub program: &'static str,
    pub engine: &'static str,
    /// Wall time inside `run`, to the guest's halt.
    pub run_ns: u64,
    /// Wall time of construction + load + set_entry + drop.
    pub setup_ns: u64,
    pub cycles: u64,
    pub state: FinalState,
    /// Why the op failed; empty when it passed.
    pub failures: Vec<String>,
}

/// Checks a finished run against the generator's expectations and captures
/// the cross-engine state.  Not timed.
pub fn verify(p: &Program, e: &mut impl Engine, exit: &Exit) -> (FinalState, Vec<String>) {
    let mut failures = Vec::new();
    if !matches!(exit, Exit::Halted(_)) {
        failures.push(format!("exit {exit:?}, expected a guest halt"));
    }
    for c in &p.checks {
        match *c {
            Check::Reg { index, expect } => {
                let got = e.reg(index);
                if got != expect {
                    failures.push(format!("x{index} = {got:#x}, expected {expect:#x}"));
                }
            }
            Check::Mem { start, len, expect } => {
                let got = e.mem_digest(start, len);
                if got != expect {
                    failures.push(format!(
                        "memory [{start:#x}+{len:#x}] digest {got:#x}, expected {expect:#x}"
                    ));
                }
            }
            Check::Disk { expect } => match e.disk().map(|d| fnv1a(d.iter().copied())) {
                Some(got) if got == expect => {}
                got => failures.push(format!("disk digest {got:x?}, expected {expect:#x}")),
            },
        }
    }
    let mut regs = [0u64; 31];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = e.reg(i as u32);
    }
    let state = FinalState {
        regs,
        nzcv: e.nzcv(),
        window: e.mem_digest(p.window.0, p.window.1),
    };
    (state, failures)
}

/// One untraced op: fresh engine, load, run to halt, verify, drop.  The
/// drop is timed into set-up (Captive joins its tier workers there).
fn op<E: Engine>(p: &Program, engine: &'static str, new: impl FnOnce(&Program) -> E) -> Op {
    let t0 = Instant::now();
    let mut e = new(p);
    load(p, &mut e);
    let t1 = Instant::now();
    let exit = e.run_blocks(BLOCK_BUDGET);
    let run_ns = t1.elapsed().as_nanos() as u64;
    let (state, failures) = verify(p, &mut e, &exit);
    let cycles = e.cycles();
    let t2 = Instant::now();
    drop(e);
    let setup_ns = (t1 - t0).as_nanos() as u64 + t2.elapsed().as_nanos() as u64;
    Op {
        program: p.name,
        engine,
        run_ns,
        setup_ns,
        cycles,
        state,
        failures,
    }
}

pub fn op_captive(p: &Program) -> Op {
    op(p, "captive", new_captive)
}

pub fn op_qemu(p: &Program) -> Op {
    op(p, "qemu_ref", new_qemu)
}

/// Set-up alone (construct, load, set entry, drop), for the extra set-up
/// repetitions that steady `setup_s`.
pub fn setup_only(p: &Program) -> u64 {
    let t0 = Instant::now();
    let mut e = new_captive(p);
    load(p, &mut e);
    drop(e);
    t0.elapsed().as_nanos() as u64
}
