//! Synthetic SPEC CPU2006-like guest workloads.
//!
//! Real SPEC sources and reference inputs cannot be redistributed or executed
//! in this environment, so each benchmark is replaced by a small guest
//! program whose dominant kernel matches the real benchmark's character
//! (pointer chasing for `429.mcf`, streaming array updates for
//! `462.libquantum`, dynamic-programming inner loops for `456.hmmer`,
//! floating-point stencils for the FP suite, and so on).  The Captive-vs-QEMU
//! gap the paper reports is driven by memory-translation and FP-helper
//! overhead, which these kernels exercise in the same proportions.
//!
//! Every workload is deterministic: data is initialised by the guest program
//! itself from fixed seeds.

use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use hvm::virtio::{DESC_F_NEXT, DESC_F_WRITE, REQ_READ, REQ_WRITE, SECTOR_SIZE};

/// Base guest physical address where workload code is loaded.
pub const CODE_BASE: u64 = 0x1000;
/// Base guest physical address of workload data.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC CPU2006 integer.
    Int,
    /// SPEC CPU2006 C++ floating point.
    Fp,
}

/// A ready-to-run guest program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (SPEC-style).
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// Instruction words to load at [`CODE_BASE`].
    pub words: Vec<u32>,
    /// Entry point.
    pub entry: u64,
}

/// Scale factor applied to all iteration counts (1 = quick, larger = longer).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u32);

impl Default for Scale {
    fn default() -> Self {
        Scale(1)
    }
}

fn finish(name: &'static str, suite: Suite, a: Assembler) -> Workload {
    Workload {
        name,
        suite,
        words: a.finish(),
        entry: CODE_BASE,
    }
}

/// Pointer-chasing kernel (linked-list traversal): `429.mcf`, `471.omnetpp`,
/// `473.astar`, `483.xalancbmk`.
fn pointer_chase(name: &'static str, nodes: u32, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    let stride = 64u32; // one "node" per cache line
                        // Build a circular linked list: node[i].next = &node[(i*7+1) % nodes]
    a.mov_imm64(1, DATA_BASE);
    a.push(asm::movz(2, 0, 0)); // i
    a.push(asm::movz(3, nodes & 0xFFFF, 0)); // node count
    a.label("build");
    //   idx = (i*7 + 1) % nodes
    a.push(asm::movz(4, 7, 0));
    a.push(asm::mul(4, 2, 4));
    a.push(asm::addi(4, 4, 1));
    a.push(asm::udiv(5, 4, 3));
    a.push(asm::mul(5, 5, 3));
    a.push(asm::sub(5, 4, 5)); // idx
    a.push(asm::movz(6, stride, 0));
    a.push(asm::mul(5, 5, 6));
    a.push(asm::add(5, 5, 1)); // &node[idx]
    a.push(asm::mul(7, 2, 6));
    a.push(asm::add(7, 7, 1)); // &node[i]
    a.push(asm::str(5, 7, 0));
    a.push(asm::addi(2, 2, 1));
    a.push(asm::cmp(2, 3));
    a.bcond_to(Cond::Ne, "build");
    // Chase the list.
    a.mov_imm64(2, (iters * scale.0) as u64);
    a.push(asm::orr(4, 1, 1)); // cursor = head
    a.push(asm::movz(9, 0, 0)); // checksum
    a.label("chase");
    a.push(asm::ldr(4, 4, 0));
    a.push(asm::add(9, 9, 4));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "chase");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Streaming array update: `462.libquantum`, `401.bzip2`.
fn stream(name: &'static str, elems: u32, passes: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(10, (passes * scale.0) as u64);
    a.label("pass");
    a.push(asm::movz(2, 0, 0));
    a.push(asm::movz(3, elems & 0xFFFF, 0));
    a.label("elem");
    a.push(asm::lsli(4, 2, 3)); // offset = i * 8
    a.push(asm::add(4, 4, 1));
    a.push(asm::ldr(5, 4, 0));
    a.push(asm::eor(5, 5, 2));
    a.push(asm::addi(5, 5, 3));
    a.push(asm::str(5, 4, 0));
    a.push(asm::addi(2, 2, 1));
    a.push(asm::cmp(2, 3));
    a.bcond_to(Cond::Ne, "elem");
    a.push(asm::subi(10, 10, 1));
    a.cbnz_to(10, "pass");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Integer dynamic-programming / hashing inner loop with data-dependent
/// branches: `400.perlbench`, `403.gcc`, `445.gobmk`, `456.hmmer`,
/// `458.sjeng`, `464.h264ref`.
fn int_mix(name: &'static str, iters: u32, branchy: bool, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(0, 0x9E37_79B9_7F4A_7C15);
    a.push(asm::movz(1, 0x1234, 0));
    a.mov_imm64(2, (iters * scale.0) as u64);
    a.mov_imm64(3, DATA_BASE);
    a.push(asm::movz(9, 0, 0));
    a.label("loop");
    a.push(asm::mul(4, 1, 0));
    a.push(asm::eor(1, 1, 4));
    a.push(asm::lsri(5, 1, 29));
    a.push(asm::add(1, 1, 5));
    if branchy {
        a.push(asm::ands(6, 1, 0));
        a.bcond_to(Cond::Eq, "skip");
        a.push(asm::addi(9, 9, 1));
        a.label("skip");
    }
    // A table access keyed by the hash (exercises the memory path).
    a.push(asm::movz(7, 0xFFF8, 0));
    a.push(asm::and(7, 1, 7));
    a.push(asm::add(7, 7, 3));
    a.push(asm::ldr(8, 7, 0));
    a.push(asm::add(8, 8, 1));
    a.push(asm::str(8, 7, 0));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Scalar floating-point stencil: `482.sphinx3`, `444.namd`, `435.gromacs`.
fn fp_stencil(name: &'static str, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.push(asm::fmov_imm(0, 0x78)); // 1.5
    a.push(asm::fmov_imm(1, 0x70)); // 1.0
    a.push(asm::fmov_imm(2, 0x60)); // 0.5
    a.mov_imm64(1, (iters * scale.0) as u64);
    a.mov_imm64(3, DATA_BASE);
    a.label("loop");
    a.push(asm::fmul(3, 0, 2));
    a.push(asm::fadd(4, 3, 1));
    a.push(asm::fmadd(5, 3, 4, 2));
    a.push(asm::fdiv(6, 5, 0));
    a.push(asm::fsqrt(7, 6));
    a.push(asm::str_d(7, 3, 0));
    a.push(asm::ldr_d(0, 3, 0));
    a.push(asm::subi(1, 1, 1));
    a.cbnz_to(1, "loop");
    a.push(asm::hlt());
    Workload {
        name,
        suite: Suite::Fp,
        words: a.finish(),
        entry: CODE_BASE,
    }
}

/// Vector (packed double) kernel: `433.milc`, `470.lbm`.
fn fp_vector(name: &'static str, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, (iters * scale.0) as u64);
    // Seed two vector registers from scalars.
    a.push(asm::fmov_imm(0, 0x78));
    a.push(asm::fmov_to_gpr(3, 0));
    a.push(asm::dup2d(1, 3));
    a.push(asm::fmov_imm(0, 0x70));
    a.push(asm::fmov_to_gpr(3, 0));
    a.push(asm::dup2d(2, 3));
    a.label("loop");
    a.push(asm::vmul2d(3, 1, 2));
    a.push(asm::vadd2d(4, 3, 2));
    a.push(asm::str_q(4, 1, 0));
    a.push(asm::ldr_q(1, 1, 0));
    a.push(asm::vadd2d(1, 1, 2));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    Workload {
        name,
        suite: Suite::Fp,
        words: a.finish(),
        entry: CODE_BASE,
    }
}

/// The FP micro-benchmark used for the hardware-vs-software FP ablation
/// (Section 3.6.2): a tight mix of common FP operations.
pub fn fp_micro(scale: Scale) -> Workload {
    fp_stencil("fp-micro", 20_000, scale)
}

/// Streaming array update whose inner loop carries a data-dependent guard —
/// the bounds-check-in-the-hot-loop shape real stream code has.  The body is
/// *multi-block* (guard leg + rejoin), so before looping regions the trace
/// closed after one trip and every iteration re-entered through the chain
/// machinery.
fn stream_guarded(name: &'static str, elems: u32, passes: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(10, (passes * scale.0) as u64);
    a.push(asm::movz(7, 0xFFF, 0)); // guard mask
    a.label("pass");
    a.push(asm::movz(2, 0, 0));
    a.push(asm::movz(3, elems & 0xFFFF, 0));
    a.label("elem");
    a.push(asm::lsli(4, 2, 3)); // offset = i * 8
    a.push(asm::add(4, 4, 1));
    a.push(asm::ldr(5, 4, 0));
    a.push(asm::ands(6, 2, 7)); // index guard: cold leg once per pass
    a.bcond_to(Cond::Eq, "skip");
    a.push(asm::addi(5, 5, 1)); // guarded update
    a.label("skip");
    a.push(asm::eor(5, 5, 2));
    a.push(asm::str(5, 4, 0));
    a.push(asm::addi(2, 2, 1));
    a.push(asm::cmp(2, 3));
    a.bcond_to(Cond::Ne, "elem");
    a.push(asm::subi(10, 10, 1));
    a.cbnz_to(10, "pass");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Dynamic-programming inner loop whose body spans three blocks (a nested
/// conditional plus the rejoined table update) — the multi-block loop shape
/// the region former could not keep inside one translation before
/// back-edges closed internally.
fn loop_nest(name: &'static str, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(0, 0x9E37_79B9_7F4A_7C15);
    a.push(asm::movz(1, 0x1234, 0));
    a.mov_imm64(2, (iters * scale.0) as u64);
    a.mov_imm64(3, DATA_BASE);
    a.push(asm::movz(9, 0, 0));
    a.label("loop");
    a.push(asm::mul(4, 1, 0));
    a.push(asm::eor(1, 1, 4));
    a.push(asm::lsri(5, 1, 29));
    a.push(asm::add(1, 1, 5));
    a.push(asm::ands(6, 1, 0));
    a.bcond_to(Cond::Eq, "skip");
    a.push(asm::addi(9, 9, 1));
    a.label("skip");
    a.push(asm::movz(7, 0xFFF8, 0));
    a.push(asm::and(7, 1, 7));
    a.push(asm::add(7, 7, 3));
    a.push(asm::ldr(8, 7, 0));
    a.push(asm::add(8, 8, 1));
    a.push(asm::str(8, 7, 0));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Word offset (within the workload image) where the event workloads place
/// their exception vector, so tests can compute the handler's address.
pub const EVENT_HANDLER_WORD: usize = 0x80;

/// Guest virtual/physical address of the event workloads' exception vector.
pub const EVENT_HANDLER_VA: u64 = CODE_BASE + (EVENT_HANDLER_WORD as u64) * 4;

fn pad_to(a: &mut Assembler, word: usize) {
    assert!(
        a.here() <= word,
        "host bug: workload overran its vector pad"
    );
    while a.here() < word {
        a.push(asm::nop());
    }
}

/// Interrupt-storm workload: the guest arms a periodic timer via
/// `MSR CNT_CTL` and spins on an idempotent memory kernel until its handler
/// has observed `irqs` deliveries.  Engines retire different cycle counts,
/// so IRQs preempt each engine at different guest points — every
/// architectural side effect here is **count-driven, not cycle-driven**:
/// the spin body writes the same values every iteration, the handler only
/// increments the delivery counter (x20), and the handler itself cancels
/// the timer on the final delivery (while IRQs are masked, so no stray
/// delivery can race the cancellation).  Final registers, flags and memory
/// are therefore identical on every engine and configuration.
pub fn interrupt_storm(irqs: u32, period: u32) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(9, EVENT_HANDLER_VA);
    a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
    a.push(asm::movz(20, 0, 0)); // delivery count
    a.mov_imm64(21, irqs as u64); // target count
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, period as u64);
    a.push(asm::msr(guest_aarch64::SysReg::CntCtl as u32, 2)); // periodic
    a.label("spin");
    // Idempotent body: every iteration recomputes the same values from
    // constants, so the iteration count (which differs per engine) leaves
    // no architectural trace.
    a.push(asm::ldr(5, 1, 0));
    a.push(asm::eor(6, 5, 2));
    a.push(asm::str(6, 1, 8));
    a.push(asm::cmp(20, 21));
    a.bcond_to(Cond::Ne, "spin");
    a.push(asm::hlt());
    pad_to(&mut a, EVENT_HANDLER_WORD);
    // Vector: count the delivery; after the final one, cancel the timer
    // before unmasking so the count can never overshoot.
    a.push(asm::addi(20, 20, 1));
    a.push(asm::cmp(20, 21));
    a.bcond_to(Cond::Ne, "resume");
    a.push(asm::movz(22, 0, 0));
    a.push(asm::msr(guest_aarch64::SysReg::CntCtl as u32, 22)); // cancel
    a.label("resume");
    a.push(asm::eret());
    finish("interrupt.storm", Suite::Int, a)
}

/// Timer-tick workload: the guest arms a **one-shot** timer via
/// `MSR CNT_TVAL` and runs a long countdown loop; the tick preempts the
/// loop mid-flight and the handler captures ELR into x10 before resuming.
/// The loop is a single basic block, so on every engine the precise
/// preemption PC — and hence the captured ELR — is the loop header, even
/// when the loop is executing inside an unrolled looping region.  The loop
/// then runs to completion, so final state is engine-independent.
pub fn timer_tick(delay: u32, iters: u32) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(9, EVENT_HANDLER_VA);
    a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
    a.push(asm::movz(20, 0, 0)); // tick count
    a.mov_imm64(2, delay as u64);
    a.push(asm::msr(guest_aarch64::SysReg::CntTval as u32, 2)); // one-shot
    a.mov_imm64(1, iters as u64);
    a.label("loop");
    a.push(asm::subi(1, 1, 1));
    a.cbnz_to(1, "loop");
    a.push(asm::hlt());
    pad_to(&mut a, EVENT_HANDLER_WORD);
    a.push(asm::addi(20, 20, 1));
    a.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
    a.push(asm::eret());
    finish("timer.tick", Suite::Int, a)
}

/// Guest virtual address of the `timer_tick(delay, iters)` countdown loop
/// header.  Takes the same arguments as [`timer_tick`] because the prologue
/// width depends on them (`mov_imm64` emits only the non-zero halfwords).
pub fn timer_tick_loop_va(delay: u32, iters: u32) -> u64 {
    // Recover it structurally instead of hard-coding: the loop header is
    // the first `subi x1, x1, #1` in the image.
    let w = timer_tick(delay, iters);
    let target = asm::subi(1, 1, 1);
    let idx = w
        .words
        .iter()
        .position(|&x| x == target)
        .expect("timer_tick contains its countdown loop");
    CODE_BASE + idx as u64 * 4
}

/// The loop-heavy kernel set of `figures -- waterfall` / `tiers` and the
/// looping-region and promotion cases of `bench/tests/ablation.rs`: the two SPEC
/// stream kernels plus the dedicated multi-block-loop shapes whose inner
/// loops only stay inside one region once back-edges close internally.
pub fn loop_kernels(scale: Scale) -> Vec<Workload> {
    vec![
        stream("401.bzip2", 2048, 60, scale),
        stream("462.libquantum", 4096, 40, scale),
        stream_guarded("stream.guarded", 2048, 40, scale),
        loop_nest("loop.nest", 60_000, scale),
    ]
}

/// A queue-flood kernel for the tiered translation service: `loops`
/// independent self-loops visited round-robin for `passes` outer passes.
/// With the default formation threshold (16) and `trips` around 9, every
/// loop head crosses the publish heat during the first outer pass and the
/// install heat during the second — so many formation requests are in
/// flight simultaneously, stressing the worker queue and the parked-result
/// path.  Final x9 = loops × trips × passes.
pub fn loop_flood(loops: u32, trips: u32, passes: u32) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, passes as u64);
    a.push(asm::movz(9, 0, 0));
    a.label("outer");
    for i in 0..loops {
        let label = format!("self{i}");
        a.push(asm::movz(2, trips & 0xFFFF, 0));
        a.label(&label);
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(2, 2, 1));
        a.cbnz_to(2, &label);
    }
    a.push(asm::subi(1, 1, 1));
    a.cbnz_to(1, "outer");
    a.push(asm::hlt());
    Workload {
        name: "tier.flood",
        suite: Suite::Int,
        words: a.finish(),
        entry: CODE_BASE,
    }
}

/// Flag-heavy branch kernel for the guest-idiom layer: every iteration
/// hashes, then takes three data-dependent branches — an *unsigned*
/// compare (`b.hi`), a *signed* compare (`b.ge`) and a logic test
/// (`ands`+`b.eq`) — plus the `subi`+`cbnz` back-edge.  Four fusible
/// compare+branch pairs per trip and zero other work, so NZCV
/// materialisation dominates and the `fuse.*` rules carry the kernel.
fn branch_mix(name: &'static str, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(0, 0x9E37_79B9_7F4A_7C15);
    a.push(asm::movz(1, 0x1234, 0));
    a.mov_imm64(2, (iters * scale.0) as u64);
    a.mov_imm64(12, 0x8000_0000_0000_0000);
    a.push(asm::movz(9, 0, 0));
    a.push(asm::movz(10, 0, 0));
    a.push(asm::movz(11, 0, 0));
    a.label("loop");
    a.push(asm::mul(4, 1, 0));
    a.push(asm::eor(1, 1, 4));
    a.push(asm::lsri(5, 1, 17));
    a.push(asm::add(1, 1, 5));
    // Unsigned compare + branch (C|Z path through the flags).
    a.push(asm::cmp(1, 12));
    a.bcond_to(Cond::Hi, "hi_skip");
    a.push(asm::addi(9, 9, 1));
    a.label("hi_skip");
    // Signed compare + branch (N^V path).
    a.push(asm::cmp(1, 12));
    a.bcond_to(Cond::Ge, "ge_skip");
    a.push(asm::addi(10, 10, 1));
    a.label("ge_skip");
    // Logic test + branch (Z-only path, C=V=0).
    a.push(asm::ands(6, 1, 12));
    a.bcond_to(Cond::Eq, "eq_skip");
    a.push(asm::addi(11, 11, 1));
    a.label("eq_skip");
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Byte-wise memset kernel (`strb` do-while over a page, repeated): a plain
/// byte loop, one store per trip on every engine.  Its `cbnz` exits are
/// what the idiom layer fuses.  The pass loop re-reads the buffer head so
/// the stores stay architecturally observable.
fn memset_loop(name: &'static str, bytes: u32, passes: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(10, (passes * scale.0) as u64);
    a.push(asm::movz(3, 0xAB, 0)); // fill value
    a.push(asm::movz(9, 0, 0)); // checksum
    a.label("pass");
    a.push(asm::orr(4, 1, 1)); // cur = base
    a.push(asm::movz(5, bytes & 0xFFFF, 0)); // count
    a.label("ms");
    a.push(asm::strb(3, 4, 0));
    a.push(asm::addi(4, 4, 1));
    a.push(asm::subi(5, 5, 1));
    a.cbnz_to(5, "ms");
    a.push(asm::ldr(6, 1, 0));
    a.push(asm::add(9, 9, 6));
    a.push(asm::subi(10, 10, 1));
    a.cbnz_to(10, "pass");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// Scaled-index address-generation kernel: `lsl` + register-offset
/// load/store in the hot loop — the guest idiom the `addr.fold` rule turns
/// into one x86 scaled-index memory operand.
fn addr_gen(name: &'static str, iters: u32, scale: Scale) -> Workload {
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, (iters * scale.0) as u64);
    a.push(asm::movz(4, 0, 0)); // i
    a.push(asm::movz(7, 1023, 0)); // index mask
    a.label("loop");
    a.push(asm::and(5, 4, 7)); // idx = i & 1023
    a.push(asm::lsli(6, 5, 3)); // off = idx * 8
    a.push(asm::ldr_reg(8, 1, 6));
    a.push(asm::addi(8, 8, 1));
    a.push(asm::str_reg(8, 1, 6));
    a.push(asm::addi(4, 4, 1));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    finish(name, Suite::Int, a)
}

/// The guest-idiom kernel set of `figures -- waterfall` and the idiom case
/// of `bench/tests/ablation.rs`: one kernel
/// per idiom shape (flag-setting compare+branch fusion, `cbnz` fusion in a
/// byte-fill loop, address mode folding), kept out of the pinned SPEC
/// suites.
pub fn idiom_kernels(scale: Scale) -> Vec<Workload> {
    vec![
        branch_mix("idiom.branch", 60_000, scale),
        memset_loop("idiom.memset", 4096, 20, scale),
        addr_gen("idiom.addr", 60_000, scale),
    ]
}

// ---------------------------------------------------------------------------
// Virtio-blk I/O kernels.
//
// Guest-side drivers for the `hvm::virtio` block device: each kernel builds
// its descriptor chains and rings in the data region, kicks the queue with
// `msr VblkNotify`, and synchronizes on *counts* (spinning on `used.idx`),
// never on cycle timing — so both execution engines, which retire different
// cycle totals, end byte-identical.  All device structures live inside the
// chaos harness's 64 KiB data-digest window so any cross-engine divergence
// in DMA behaviour is caught byte-for-byte.
// ---------------------------------------------------------------------------

/// Guest-physical base of the virtio-mmio register window the I/O kernels
/// program (inside the data region, so small-RAM configurations work).
pub const VBLK_MMIO_BASE: u64 = DATA_BASE + 0x8000;
/// Guest-physical address of the descriptor table.
pub const VBLK_DESC: u64 = DATA_BASE + 0x9000;
/// Guest-physical address of the available ring.
pub const VBLK_AVAIL: u64 = DATA_BASE + 0xA000;
/// Guest-physical address of the used ring.
pub const VBLK_USED: u64 = DATA_BASE + 0xB000;
/// Guest-physical base of the kernels' DMA data buffers.
pub const VBLK_BUF: u64 = DATA_BASE + 0xC000;
/// Guest-physical base of the request header blocks (16 bytes per request).
pub const VBLK_HDR: u64 = VBLK_BUF + 0x2000;
/// Guest-physical base of the status words (8 bytes per request).
pub const VBLK_STATUS: u64 = VBLK_BUF + 0x2800;
/// Minimum guest RAM for the I/O kernels (covers the data region).
pub const VBLK_MIN_RAM: u64 = DATA_BASE + 0x10000;

/// Attach-time device configuration matching the I/O kernels' ring layout.
/// Both engines must be handed the same configuration.
pub fn vblk_config() -> hvm::VirtioBlkConfig {
    hvm::VirtioBlkConfig {
        mmio_base: VBLK_MMIO_BASE,
        completion_latency: 2_000,
        ..Default::default()
    }
}

/// Emits the device-register prologue: x1..x4 = MMIO/desc/avail/used bases,
/// queue addresses programmed, IRQs off (the kernels poll `used.idx`).
fn vblk_prologue(a: &mut Assembler) {
    a.mov_imm64(1, VBLK_MMIO_BASE);
    a.mov_imm64(2, VBLK_DESC);
    a.mov_imm64(3, VBLK_AVAIL);
    a.mov_imm64(4, VBLK_USED);
    a.push(asm::str(2, 1, 0x28)); // QUEUE_DESC
    a.push(asm::str(3, 1, 0x30)); // QUEUE_AVAIL
    a.push(asm::str(4, 1, 0x38)); // QUEUE_USED
    a.push(asm::movz(17, 0, 0));
    a.push(asm::str(17, 1, 0x40)); // IRQ_ENABLE = 0 (polling)
}

/// Emits stores filling descriptor `idx` (`{addr, len, flags, next}`).
fn emit_desc(a: &mut Assembler, idx: u64, addr: u64, len: u64, flags: u64, next: u64) {
    let off = (idx * 32) as u32;
    for (field, value) in [(0, addr), (8, len), (16, flags), (24, next)] {
        a.mov_imm64(17, value);
        a.push(asm::str(17, 2, off + field));
    }
}

/// Emits one full request chain at descriptor slots `first_desc ..`:
/// header desc → one data desc per `(gpa, len)` segment → status desc,
/// plus the header block itself.  Data segments are device-writable for
/// reads.  Returns the number of descriptors consumed.
fn emit_chain(
    a: &mut Assembler,
    req: u64,
    first_desc: u64,
    req_type: u64,
    sector: u64,
    data: &[(u64, u64)],
) -> u64 {
    let hdr = VBLK_HDR + req * 16;
    let status = VBLK_STATUS + req * 8;
    a.mov_imm64(16, hdr);
    a.mov_imm64(17, req_type);
    a.push(asm::str(17, 16, 0));
    a.mov_imm64(17, sector);
    a.push(asm::str(17, 16, 8));
    let n = data.len() as u64;
    emit_desc(a, first_desc, hdr, 16, DESC_F_NEXT, first_desc + 1);
    for (k, &(gpa, len)) in data.iter().enumerate() {
        let k = k as u64;
        let flags = DESC_F_NEXT
            | if req_type == REQ_READ {
                DESC_F_WRITE
            } else {
                0
            };
        emit_desc(a, first_desc + 1 + k, gpa, len, flags, first_desc + 2 + k);
    }
    emit_desc(a, first_desc + 1 + n, status, 8, DESC_F_WRITE, 0);
    n + 2
}

/// Emits the available-ring entry for `slot` pointing at head `head`.
fn emit_avail(a: &mut Assembler, slot: u64, head: u64) {
    a.mov_imm64(17, head);
    a.push(asm::str(17, 3, (8 + slot * 8) as u32));
}

/// Publishes `avail.idx = idx` and kicks the queue (`msr VblkNotify`).
fn emit_publish_and_kick(a: &mut Assembler, idx: u64) {
    a.mov_imm64(17, idx);
    a.push(asm::str(17, 3, 0));
    a.push(asm::msr(guest_aarch64::SysReg::VblkNotify as u32, 17));
}

/// Emits a spin on `used.idx == target` (count-driven synchronization).
fn emit_wait_used(a: &mut Assembler, label: &str, target: u64) {
    a.label(label);
    a.push(asm::ldr(7, 4, 0));
    a.push(asm::cmpi(7, target as u32));
    a.bcond_to(Cond::Ne, label);
}

/// Emits a checksum loop accumulating `words` 64-bit words at `gpa` into x9.
fn emit_checksum(a: &mut Assembler, label: &str, gpa: u64, words: u64) {
    a.mov_imm64(10, gpa);
    a.mov_imm64(11, words);
    a.label(label);
    a.push(asm::ldr(12, 10, 0));
    a.push(asm::add(9, 9, 12));
    a.push(asm::addi(10, 10, 8));
    a.push(asm::subi(11, 11, 1));
    a.cbnz_to(11, label);
}

/// Sequential-read kernel: `n` one-sector read requests submitted as one
/// batch and kicked once; the guest spins on `used.idx == n`, then
/// checksums the DMA'd data and the status words into x9.
pub fn vblk_read(n: u32) -> Workload {
    assert!(n >= 1 && (n as u64) * 3 <= 64, "descriptor table overflow");
    let mut a = Assembler::new();
    vblk_prologue(&mut a);
    for i in 0..n as u64 {
        emit_chain(
            &mut a,
            i,
            i * 3,
            REQ_READ,
            i,
            &[(VBLK_BUF + i * SECTOR_SIZE, SECTOR_SIZE)],
        );
        emit_avail(&mut a, i, i * 3);
    }
    emit_publish_and_kick(&mut a, n as u64);
    emit_wait_used(&mut a, "wait", n as u64);
    a.push(asm::movz(9, 0, 0));
    emit_checksum(&mut a, "sum", VBLK_BUF, n as u64 * (SECTOR_SIZE / 8));
    emit_checksum(&mut a, "sumst", VBLK_STATUS, n as u64);
    a.push(asm::hlt());
    finish("io.read", Suite::Int, a)
}

/// Write-then-read-back kernel: fills a two-sector buffer with a computed
/// pattern, writes it to disk, waits for the completion, reads it back into
/// a second buffer, and checksums the round-trip plus both status words.
pub fn vblk_write_read() -> Workload {
    let mut a = Assembler::new();
    vblk_prologue(&mut a);
    a.mov_imm64(10, VBLK_BUF);
    a.mov_imm64(11, 2 * (SECTOR_SIZE / 8));
    a.mov_imm64(12, 0x0101_0203_0405_0607);
    a.label("fill");
    a.push(asm::str(12, 10, 0));
    a.push(asm::addi(12, 12, 1));
    a.push(asm::addi(10, 10, 8));
    a.push(asm::subi(11, 11, 1));
    a.cbnz_to(11, "fill");
    emit_chain(&mut a, 0, 0, REQ_WRITE, 4, &[(VBLK_BUF, 2 * SECTOR_SIZE)]);
    emit_avail(&mut a, 0, 0);
    emit_publish_and_kick(&mut a, 1);
    emit_wait_used(&mut a, "wait_w", 1);
    emit_chain(
        &mut a,
        1,
        3,
        REQ_READ,
        4,
        &[(VBLK_BUF + 0x1000, 2 * SECTOR_SIZE)],
    );
    emit_avail(&mut a, 1, 3);
    emit_publish_and_kick(&mut a, 2);
    emit_wait_used(&mut a, "wait_r", 2);
    a.push(asm::movz(9, 0, 0));
    emit_checksum(&mut a, "sum", VBLK_BUF + 0x1000, 2 * (SECTOR_SIZE / 8));
    emit_checksum(&mut a, "sumst", VBLK_STATUS, 2);
    a.push(asm::hlt());
    finish("io.writeread", Suite::Int, a)
}

/// Scatter-gather kernel: one read request whose two disk sectors land in
/// four non-contiguous 256-byte guest buffers via a 6-descriptor chain.
pub fn vblk_scatter() -> Workload {
    let mut a = Assembler::new();
    vblk_prologue(&mut a);
    let segs: Vec<(u64, u64)> = (0..4).map(|k| (VBLK_BUF + k * 0x400, 256)).collect();
    emit_chain(&mut a, 0, 0, REQ_READ, 8, &segs);
    emit_avail(&mut a, 0, 0);
    emit_publish_and_kick(&mut a, 1);
    emit_wait_used(&mut a, "wait", 1);
    a.push(asm::movz(9, 0, 0));
    for (k, &(gpa, len)) in segs.iter().enumerate() {
        emit_checksum(&mut a, &format!("sum{k}"), gpa, len / 8);
    }
    emit_checksum(&mut a, "sumst", VBLK_STATUS, 1);
    a.push(asm::hlt());
    finish("io.scatter", Suite::Int, a)
}

/// Word offset of the `vblk_smc` spin loop (the DMA patch target).
pub const VBLK_SMC_LOOP_WORD: usize = 0x100;

/// Guest-physical address the `vblk_smc` completion DMA-writes: the page
/// holding the guest's own spin loop.
pub const VBLK_SMC_PATCH_GPA: u64 = CODE_BASE + (VBLK_SMC_LOOP_WORD as u64) * 4;

/// DMA-onto-executed-page kernel: the guest submits a one-sector read whose
/// target is **its own spin loop**, then spins in a hot, idempotent,
/// always-taken loop with no architectural exit.  Disk sector 0 (returned
/// as the disk image to attach) holds a byte-identical copy of those 512
/// code bytes with the loop's back-edge replaced by NOP — so the only way
/// out of the loop is the device's completion DMA landing on the executing
/// page: asynchronous external self-modifying code.  Engines retire
/// different cycle counts, so the patch lands after a different number of
/// trips on each — the loop body is idempotent (x6/x22 recompute the same
/// values every trip) precisely so the trip count leaves no architectural
/// trace and final state stays byte-identical.
///
/// Attach with [`vblk_smc_config`]; the completion latency is generous so
/// every engine configuration (including tiered background formation) has
/// promoted the spin loop into a live looping region before the patch hits.
pub fn vblk_smc() -> (Workload, Vec<u8>) {
    let mut a = Assembler::new();
    vblk_prologue(&mut a);
    emit_chain(
        &mut a,
        0,
        0,
        REQ_READ,
        0,
        &[(VBLK_SMC_PATCH_GPA, SECTOR_SIZE)],
    );
    emit_avail(&mut a, 0, 0);
    a.mov_imm64(7, 0x55AA);
    a.mov_imm64(8, 0x0F0F);
    a.push(asm::movz(6, 0, 0));
    a.push(asm::movz(22, 0, 0));
    emit_publish_and_kick(&mut a, 1);
    pad_to(&mut a, VBLK_SMC_LOOP_WORD);
    a.label("spin");
    a.push(asm::add(6, 7, 8)); // idempotent body: same values every trip
    a.push(asm::orr(22, 6, 7));
    a.cbnz_to(7, "spin"); // always taken (x7 = 0x55AA) — exit is the patch
    a.push(asm::movz(9, 0, 0));
    emit_checksum(&mut a, "sum", VBLK_SMC_PATCH_GPA, SECTOR_SIZE / 8);
    emit_checksum(&mut a, "sumst", VBLK_STATUS, 1);
    a.push(asm::hlt());
    pad_to(&mut a, VBLK_SMC_LOOP_WORD + (SECTOR_SIZE as usize) / 4);
    let w = finish("io.smc", Suite::Int, a);
    let start = VBLK_SMC_LOOP_WORD;
    let mut sector: Vec<u8> = w.words[start..start + (SECTOR_SIZE as usize) / 4]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let back_edge = asm::cbnz(7, -8); // two words back to "spin"
    let at = w.words[start..start + (SECTOR_SIZE as usize) / 4]
        .iter()
        .position(|&x| x == back_edge)
        .expect("vblk_smc contains its spin back-edge");
    sector[at * 4..at * 4 + 4].copy_from_slice(&asm::nop().to_le_bytes());
    (w, sector)
}

/// Device configuration for [`vblk_smc`]: the patched sector as the disk
/// image and a completion latency long enough for the spin loop to get hot
/// (region-formed and promoted) on every engine configuration first.
pub fn vblk_smc_config(disk_sector0: Vec<u8>) -> hvm::VirtioBlkConfig {
    hvm::VirtioBlkConfig {
        mmio_base: VBLK_MMIO_BASE,
        completion_latency: 60_000,
        disk_image: Some(disk_sector0),
        ..Default::default()
    }
}

/// The clean I/O kernel set exercised by `figures -- io` (the `io.smc`
/// kernel is separate because it carries its own disk image).
pub fn io_kernels() -> Vec<Workload> {
    vec![vblk_read(4), vblk_write_read(), vblk_scatter()]
}

/// The twelve SPEC CPU2006 integer workloads (Fig. 17).
pub fn spec_int(scale: Scale) -> Vec<Workload> {
    vec![
        int_mix("400.perlbench", 40_000, true, scale),
        stream("401.bzip2", 2048, 60, scale),
        int_mix("403.gcc", 40_000, true, scale),
        pointer_chase("429.mcf", 1024, 120_000, scale),
        int_mix("445.gobmk", 40_000, true, scale),
        int_mix("456.hmmer", 60_000, false, scale),
        int_mix("458.sjeng", 40_000, true, scale),
        stream("462.libquantum", 4096, 40, scale),
        int_mix("464.h264ref", 60_000, false, scale),
        pointer_chase("471.omnetpp", 2048, 80_000, scale),
        pointer_chase("473.astar", 512, 100_000, scale),
        pointer_chase("483.xalancbmk", 4096, 60_000, scale),
    ]
}

/// The five C++ floating-point workloads (Fig. 18).
pub fn spec_fp(scale: Scale) -> Vec<Workload> {
    vec![
        fp_stencil("482.sphinx3", 40_000, scale),
        fp_vector("433.milc", 30_000, scale),
        fp_stencil("435.gromacs", 40_000, scale),
        fp_stencil("444.namd", 50_000, scale),
        fp_vector("470.lbm", 40_000, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_kernels_assemble_and_decode() {
        for w in loop_kernels(Scale(1)) {
            assert!(!w.words.is_empty(), "{}", w.name);
            assert!(w.words.contains(&guest_aarch64::asm::hlt()), "{}", w.name);
            for (i, word) in w.words.iter().enumerate() {
                assert!(
                    guest_aarch64::decode(*word).is_some(),
                    "{} word {} ({word:#010x}) does not decode",
                    w.name,
                    i
                );
            }
        }
    }

    #[test]
    fn loop_flood_assembles_and_decodes() {
        let w = loop_flood(12, 9, 30);
        assert!(w.words.contains(&guest_aarch64::asm::hlt()));
        for (i, word) in w.words.iter().enumerate() {
            assert!(
                guest_aarch64::decode(*word).is_some(),
                "{} word {} ({word:#010x}) does not decode",
                w.name,
                i
            );
        }
    }

    #[test]
    fn idiom_kernels_assemble_and_decode() {
        let kernels = idiom_kernels(Scale(1));
        assert_eq!(kernels.len(), 3);
        for w in kernels {
            assert!(w.words.contains(&guest_aarch64::asm::hlt()), "{}", w.name);
            for (i, word) in w.words.iter().enumerate() {
                assert!(
                    guest_aarch64::decode(*word).is_some(),
                    "{} word {} ({word:#010x}) does not decode",
                    w.name,
                    i
                );
            }
        }
    }

    #[test]
    fn io_kernels_assemble_and_decode() {
        let (smc, _) = vblk_smc();
        for w in io_kernels().into_iter().chain([smc]) {
            assert!(w.words.contains(&guest_aarch64::asm::hlt()), "{}", w.name);
            for (i, word) in w.words.iter().enumerate() {
                assert!(
                    guest_aarch64::decode(*word).is_some(),
                    "{} word {} ({word:#010x}) does not decode",
                    w.name,
                    i
                );
            }
        }
    }

    #[test]
    fn vblk_smc_sector_patches_exactly_the_back_edge() {
        let (w, sector) = vblk_smc();
        assert_eq!(sector.len(), SECTOR_SIZE as usize);
        let code: Vec<u8> = w.words
            [VBLK_SMC_LOOP_WORD..VBLK_SMC_LOOP_WORD + (SECTOR_SIZE as usize) / 4]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let diffs: Vec<usize> = (0..sector.len())
            .filter(|&i| sector[i] != code[i])
            .collect();
        assert!(!diffs.is_empty(), "sector must differ from the live code");
        assert!(
            diffs.iter().all(|&i| i / 4 == diffs[0] / 4),
            "only one word may differ"
        );
        let at = (diffs[0] / 4) * 4;
        assert_eq!(
            u32::from_le_bytes(sector[at..at + 4].try_into().unwrap()),
            asm::nop(),
            "the patched word must be a NOP"
        );
    }

    #[test]
    fn all_workloads_assemble() {
        for w in spec_int(Scale(1)).into_iter().chain(spec_fp(Scale(1))) {
            assert!(!w.words.is_empty(), "{}", w.name);
            assert!(w.words.len() < 4096, "{} too large", w.name);
            // Every program must end with a HLT so runs terminate.
            assert!(w.words.contains(&guest_aarch64::asm::hlt()), "{}", w.name);
        }
    }

    #[test]
    fn suites_have_the_paper_counts() {
        assert_eq!(spec_int(Scale(1)).len(), 12);
        assert_eq!(spec_fp(Scale(1)).len(), 5);
    }

    #[test]
    fn workloads_decode_cleanly() {
        for w in spec_int(Scale(1)).into_iter().chain(spec_fp(Scale(1))) {
            for (i, word) in w.words.iter().enumerate() {
                assert!(
                    guest_aarch64::decode(*word).is_some(),
                    "{} word {} ({word:#010x}) does not decode",
                    w.name,
                    i
                );
            }
        }
    }
}
