//! QEMU/TCG-style baseline system-level DBT.
//!
//! This crate reproduces the design decisions the paper attributes QEMU's
//! performance characteristics to, over the same guest model and host
//! machine as Captive, so the two systems differ only in the ways the paper
//! compares them:
//!
//! * it runs as a "user process": host paging is left off and every guest
//!   memory access goes through a **software MMU** helper that looks up a
//!   software TLB and falls back to a guest page-table walk (Section 2.7.2);
//! * guest floating-point instructions call **softfloat helpers** instead of
//!   host FP instructions (Section 2.5): `SOFT_FP` (add, sub, mul, div and
//!   fused multiply-add), `SOFT_SQRT` and, lane by lane, `VEC_OP` call the
//!   pure binary64 functions of the `softfloat` crate, which compute what
//!   an Arm guest sees in default-NaN mode, rounding to nearest even;
//! * translations are cached by guest **virtual** address and the whole cache
//!   is invalidated whenever the guest changes its translation state
//!   (Section 2.6);
//! * vector instructions are implemented with helper calls rather than host
//!   SIMD;
//! * translated blocks link to their direct successors across pages, like
//!   TCG's `goto_tb` between translation blocks (the chaining-policy hook of
//!   the shared run loop, [`guest_aarch64::dispatch`]).  An indirect exit is
//!   QEMU's `lookup_and_goto_ptr`, a jump-cache lookup, so it takes the slow
//!   path and never links; so does a block that requested a cache flush
//!   (`TLBI`, a translation-state `MSR`), whose exit is opaque.  The
//!   epoch-stamped links die with every full-cache flush, so the stitching
//!   stays architecturally invisible.  This one policy is the baseline every
//!   figure, test and the benchmark (`benchmark/`'s `sim_speedup`) divides
//!   by.

use captive::layout;
use captive::translator::MAX_BLOCK_INSNS;
use dbt::emitter::ValueType;
use dbt::{
    BlockExit, CacheIndex, CodeCache, Emitter, GuestIsa, Phase, PhaseClock, PhaseTimers, Region,
    RegionKey,
};
use guest_aarch64::dispatch::{self, Dispatch};
use guest_aarch64::gen::helpers;
use guest_aarch64::isa::{AccessSize, FpKind, Insn};
use guest_aarch64::sys::{Engine, GuestEvent, GuestSys, HelperCosts};
use guest_aarch64::{v_off, x_off, Aarch64Isa};
use hvm::{ExitReason, FaultAction, Gpr, HelperResult, Machine, MachineConfig, MemSize, Runtime};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

pub use guest_aarch64::sys::{RunExit, RunStats};

/// Helper ids specific to the QEMU-style runtime.
pub mod qhelpers {
    /// Softmmu load: args (vaddr, size in bytes); returns the value
    /// zero-extended (the translator sign-extends after the call where the
    /// load asks for it).
    pub const MMU_READ: u16 = 40;
    /// Softmmu store: args (vaddr, value, size in bytes).
    pub const MMU_WRITE: u16 = 41;
    /// Softfloat op: args (op, a, b) where op 0–3 selects add/sub/mul/div,
    /// or (4, a, b, c) for the fused `a * b + c` of `fmadd`, rounded once.
    pub const SOFT_FP: u16 = 42;
    /// Softfloat square root: arg (a).
    pub const SOFT_SQRT: u16 = 43;
    /// Vector helper (packed f64 add/mul element by element through memory).
    pub const VEC_OP: u16 = 44;
}

/// What the shared helper arms cost in a user-process emulator: every helper
/// call saves and restores the translated code's register state around a C
/// function, which the unikernel's in-ring-0 calls avoid.
pub const HELPER_COSTS: HelperCosts = HelperCosts {
    putchar: 150,
    exit: 50,
    exception: 350,
    msr_notify: 200,
    fcmp: 60,
    eret: 300,
    hlt: 20,
};

/// Cycle cost of the softmmu slow path's guest page-table walk: several
/// dependent memory accesses plus permission evaluation, in software (what
/// Captive pays for the same walk is priced in `captive::runtime`).
const SOFT_WALK_COST: u64 = 420;

/// The QEMU-style runtime — the half the paper compares against Captive:
/// the software TLB and the softfloat helpers.  Everything a guest observes
/// identically on any engine is the embedded [`GuestSys`].
pub struct QemuRuntime {
    /// The engine-independent guest-system core (exceptions, hypercalls,
    /// event sources, devices); also reachable through `Deref`.
    pub sys: GuestSys,
    /// Software TLB: guest virtual page -> (guest physical page, writable, user).
    soft_tlb: HashMap<u64, (u64, bool, bool)>,
    /// Set when the guest changed translation state; the dispatcher must
    /// flush the (virtually-indexed) code cache.
    pub flush_requested: bool,
    /// Software TLB statistics.
    pub soft_tlb_hits: u64,
    /// Software TLB misses (guest page walks).
    pub soft_tlb_misses: u64,
}

impl Deref for QemuRuntime {
    type Target = GuestSys;
    fn deref(&self) -> &GuestSys {
        &self.sys
    }
}

impl DerefMut for QemuRuntime {
    fn deref_mut(&mut self) -> &mut GuestSys {
        &mut self.sys
    }
}

impl QemuRuntime {
    fn new(machine: &mut Machine, guest_ram: u64) -> Self {
        QemuRuntime {
            sys: GuestSys::new(
                machine,
                layout::REGFILE_PHYS,
                layout::GUEST_PHYS_BASE,
                guest_ram,
                HELPER_COSTS,
            ),
            soft_tlb: HashMap::new(),
            flush_requested: false,
            soft_tlb_hits: 0,
            soft_tlb_misses: 0,
        }
    }

    /// Software translation of a guest virtual address, maintaining the
    /// software TLB (the QEMU fast-path/slow-path structure).
    fn soft_translate(
        &mut self,
        machine: &Machine,
        va: u64,
        write: bool,
    ) -> Result<(u64, u64), GuestEvent> {
        if !self.sys.mmu_enabled(machine) {
            if va >= self.sys.guest_ram {
                return Err(GuestEvent::DataAbort { vaddr: va, write });
            }
            // Even with the guest MMU off, QEMU funnels accesses through its
            // software TLB; a miss takes the slow path that refills it.
            let vpn = va >> 12;
            if self.soft_tlb.contains_key(&vpn) {
                self.soft_tlb_hits += 1;
                return Ok((va, 30));
            }
            self.soft_tlb_misses += 1;
            self.soft_tlb.insert(vpn, (va & !0xFFF, true, true));
            return Ok((va, 350));
        }
        let vpn = va >> 12;
        if let Some(&(frame, writable, _user)) = self.soft_tlb.get(&vpn) {
            if !write || writable {
                self.soft_tlb_hits += 1;
                return Ok((frame | (va & 0xFFF), 30));
            }
        }
        self.soft_tlb_misses += 1;
        let walk = self
            .sys
            .walk(machine, va)
            .map_err(|_| GuestEvent::DataAbort { vaddr: va, write })?;
        if write && !walk.flags.writable {
            return Err(GuestEvent::DataAbort { vaddr: va, write });
        }
        self.soft_tlb
            .insert(vpn, (walk.frame, walk.flags.writable, walk.flags.user));
        Ok((walk.frame | (va & 0xFFF), SOFT_WALK_COST))
    }
}

impl Runtime for QemuRuntime {
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult {
        match id {
            qhelpers::MMU_READ => {
                let va = machine.reg(Gpr::Rdi);
                let size = machine.reg(Gpr::Rsi);
                match self.soft_translate(machine, va, false) {
                    Ok((pa, cost)) => {
                        let v = machine
                            .mem
                            .read_uint(layout::GUEST_PHYS_BASE + pa, size.clamp(1, 8))
                            .unwrap_or(0);
                        machine.set_reg(Gpr::Rax, v);
                        HelperResult::Continue { cost }
                    }
                    Err(ev) => {
                        self.sys.pending = Some(ev);
                        HelperResult::Exit { cost: 200 }
                    }
                }
            }
            qhelpers::MMU_WRITE => {
                let va = machine.reg(Gpr::Rdi);
                let value = machine.reg(Gpr::Rsi);
                let size = machine.reg(Gpr::Rdx);
                match self.soft_translate(machine, va, true) {
                    Ok((pa, cost)) => {
                        let _ = machine.mem.write_uint(
                            layout::GUEST_PHYS_BASE + pa,
                            value,
                            size.clamp(1, 8),
                        );
                        HelperResult::Continue { cost }
                    }
                    Err(ev) => {
                        self.sys.pending = Some(ev);
                        HelperResult::Exit { cost: 200 }
                    }
                }
            }
            qhelpers::SOFT_FP => {
                let op = machine.reg(Gpr::Rdi);
                let a = machine.reg(Gpr::Rsi);
                let b = machine.reg(Gpr::Rdx);
                let r = match op {
                    0 => softfloat::f64_add(a, b),
                    1 => softfloat::f64_sub(a, b),
                    2 => softfloat::f64_mul(a, b),
                    3 => softfloat::f64_div(a, b),
                    // Fused `a * b + c`: one rounding, as the guest's FMADD.
                    _ => softfloat::f64_fma(a, b, machine.reg(Gpr::Rcx)),
                };
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue { cost: 110 }
            }
            qhelpers::SOFT_SQRT => {
                let a = machine.reg(Gpr::Rdi);
                let r = softfloat::f64_sqrt_arm(a);
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue { cost: 160 }
            }
            qhelpers::VEC_OP => {
                // args: (op, vd offset, vn offset, vm offset) — element-wise
                // double-precision op performed lane by lane in the helper.
                let op = machine.reg(Gpr::Rdi);
                let vd = machine.reg(Gpr::Rsi);
                let vn = machine.reg(Gpr::Rdx);
                let vm = machine.reg(Gpr::Rcx);
                for lane in 0..2u64 {
                    let a = machine
                        .mem
                        .read_u64(self.sys.regfile_phys + vn + lane * 8)
                        .unwrap_or(0);
                    let b = machine
                        .mem
                        .read_u64(self.sys.regfile_phys + vm + lane * 8)
                        .unwrap_or(0);
                    let r = if op == 0 {
                        softfloat::f64_add(a, b)
                    } else {
                        softfloat::f64_mul(a, b)
                    };
                    let _ = machine
                        .mem
                        .write_u64(self.sys.regfile_phys + vd + lane * 8, r);
                }
                HelperResult::Continue { cost: 260 }
            }
            helpers::TLBI => {
                self.soft_tlb.clear();
                self.flush_requested = true;
                HelperResult::Continue { cost: 300 }
            }
            helpers::MSR_NOTIFY => {
                let (translation_changed, result) = self.sys.msr_notify(machine);
                if translation_changed {
                    self.soft_tlb.clear();
                    self.flush_requested = true;
                }
                result
            }
            _ => self.sys.helper(id, machine),
        }
    }

    fn page_fault(&mut self, _vaddr: u64, _write: bool, _machine: &mut Machine) -> FaultAction {
        // Host paging is off for the QEMU-style baseline, so no host faults
        // should occur; propagate defensively if one does.
        FaultAction::Propagate { cost: 100 }
    }
}

/// The QEMU-style baseline system emulator.
pub struct QemuRef {
    /// Host machine (paging disabled — the "user process" configuration).
    pub machine: Machine,
    /// Runtime services.
    pub runtime: QemuRuntime,
    /// Virtually-indexed code cache.
    pub cache: CodeCache,
    /// JIT phase timers.
    pub timers: PhaseTimers,
    isa: Aarch64Isa,
    stats: RunStats,
}

impl QemuRef {
    /// Creates the baseline emulator with the given guest RAM size: the one
    /// link policy of the crate docs, named for TCG's `goto_tb`.
    pub fn with_goto_tb(guest_ram: u64) -> Self {
        let mut machine = Machine::new(MachineConfig::default());
        // The register file is addressed physically (flat memory).
        machine.set_reg(Gpr::Rbp, layout::REGFILE_PHYS);
        let runtime = QemuRuntime::new(&mut machine, guest_ram);
        QemuRef {
            machine,
            runtime,
            cache: CodeCache::new(CacheIndex::GuestVirtual),
            timers: PhaseTimers::default(),
            isa: Aarch64Isa,
            stats: RunStats::default(),
        }
    }

    /// Attaches a virtio-mmio block device (identical model to Captive's,
    /// so cross-engine runs stay byte-identical under injected faults).
    pub fn attach_virtio(&mut self, cfg: hvm::VirtioBlkConfig) {
        self.runtime.sys.attach_virtio(&mut self.machine, cfg);
    }

    /// Translates one block in the TCG style: memory accesses and FP go
    /// through helpers, everything else reuses the generator functions.
    fn translate(&mut self, pc: u64, pa: u64) -> Region {
        let mut e = Emitter::new();
        let mut guest_insns = 0usize;
        let mut va = pc;
        // One clock read per phase boundary (fetch + decode | generate).
        let mut clock = PhaseClock::start();
        loop {
            if guest_insns > 0 && (va & !0xFFF) != (pc & !0xFFF) {
                break;
            }
            let pa_i = if guest_insns == 0 {
                pa
            } else {
                match self.runtime.soft_translate(&self.machine, va, false) {
                    Ok((p, _)) => p,
                    Err(_) => break,
                }
            };
            let word = self
                .machine
                .mem
                .read_uint(layout::GUEST_PHYS_BASE + pa_i, 4)
                .unwrap_or(0) as u32;
            let decoded = self.isa.decode(word, va);
            clock.close(&mut self.timers, Phase::Decode);
            let end = match decoded {
                None => {
                    self.isa.generate_undefined(va, &mut e);
                    true
                }
                Some(d) => {
                    let end = qemu_generate(&d, &mut e, &self.isa);
                    if !end {
                        e.inc_pc(4);
                    }
                    end
                }
            };
            clock.close(&mut self.timers, Phase::Translate);
            guest_insns += 1;
            va += 4;
            if end || guest_insns >= MAX_BLOCK_INSNS {
                break;
            }
        }
        // The terminator metadata the shared dispatcher links by.
        let exit = e.exit_hint().unwrap_or(BlockExit::Fallthrough { next: va });
        let lir = e.finish();
        // The baseline deliberately skips the `dbt::opt` phase (TCG-style
        // translation quality); it still benefits from the allocator's
        // iterative dead-code marking, which is part of the shared pipeline.
        let t = match dbt::finish_translation(&mut self.timers, lir, false, false, None) {
            Ok(t) => t,
            Err(_) => {
                // Same degradation as Captive: discard the defective
                // translation and raise a guest UNDEF at the entry instead
                // of executing corrupt host code.
                self.timers.jit.lower_bailouts += 1;
                return captive::translator::undef_fallback_region(
                    &self.isa,
                    &mut self.timers,
                    pc,
                    pa,
                );
            }
        };
        self.timers.jit.translated_units += 1;
        self.timers.jit.translated_guest_insns += guest_insns as u64;
        Region::block(pa, pc, guest_insns, exit, t)
    }
}

impl Engine for QemuRef {
    fn parts(&self) -> (&GuestSys, &Machine) {
        (&self.runtime.sys, &self.machine)
    }
    fn parts_mut(&mut self) -> (&mut GuestSys, &mut Machine) {
        (&mut self.runtime.sys, &mut self.machine)
    }
    fn run(&mut self, max_blocks: u64) -> RunExit {
        dispatch::run(self, max_blocks)
    }
    /// Statistics so far.  Everything only Captive has (regions, the iTLB
    /// and gTLB, the tier service) stays zero; `external_invalidations`
    /// counts the full-cache flushes forced by device DMA landing behind
    /// the translator's back — the virtually-indexed analogue of Captive's
    /// per-page external invalidations.
    fn stats(&self) -> RunStats {
        let mut s = self.stats;
        self.runtime.sample(&mut s);
        s.cycles = self.machine.perf.cycles;
        s.host_insns = self.machine.perf.insns;
        s.code_bytes = self.cache.total_encoded_bytes() as u64;
        s.sample_jit(&self.timers);
        s
    }
}

/// The baseline's side of each axis: the softmmu, a virtually indexed cache
/// that every translation-state change empties (the flush *is* its context
/// generation bump: the epoch stamp retires every link), and direct-only
/// links.
impl Dispatch for QemuRef {
    fn settle(&mut self) -> bool {
        // Device DMA landed behind the translator's back, and a virtually
        // indexed cache has no per-physical-page index to drop it through:
        // it gets the full flush a translation-state change gets, on this
        // very iteration.
        let touched = self.runtime.sys.poll_virtio(&mut self.machine);
        if touched.is_some_and(|pages| !pages.is_empty()) {
            self.runtime.flush_requested = true;
            self.runtime.external_invalidations += 1;
        }
        if !self.runtime.flush_requested {
            return false;
        }
        self.cache.invalidate_all();
        self.runtime.flush_requested = false;
        true
    }

    fn resolve(&mut self, pc: u64) -> Result<u64, GuestEvent> {
        // A PC that is not a multiple of four faults before anything is
        // fetched.
        if pc & 3 != 0 {
            return Err(GuestEvent::PcAlign { vaddr: pc });
        }
        self.runtime
            .soft_translate(&self.machine, pc, false)
            .map(|(pa, _)| pa)
            .map_err(|_| GuestEvent::InstrAbort { vaddr: pc })
    }

    fn lookup(&mut self, key: RegionKey) -> Arc<Region> {
        self.cache.get(key, 0).unwrap_or_else(|| {
            self.stats.translations += 1;
            let b = self.translate(key.virt, key.phys);
            self.cache.insert(b)
        })
    }

    fn link_stamp(&self) -> (u64, u64) {
        (0, self.cache.epoch())
    }

    fn may_chain(&self, from: &Region) -> bool {
        // TCG's `goto_tb` is direct-only: an indirect exit is QEMU's
        // `lookup_and_goto_ptr`, a helper call into its jump cache, not a
        // link.  A pending flush needs no test here: only `TLBI` and `MSR`
        // request one, both end their block with an opaque exit, which has no
        // link slot, and the slow path's `settle` empties the cache before any
        // other block runs.
        debug_assert!(!self.runtime.flush_requested || from.exit == BlockExit::Opaque);
        from.exit != BlockExit::Indirect
    }

    fn chained(&mut self, from: &Arc<Region>, _: usize, next: Arc<Region>) -> Arc<Region> {
        if !same_page(from.guest_virt, next.guest_virt) {
            self.stats.goto_tb_transfers += 1;
        }
        next
    }

    fn execute(&mut self, region: &Region, chained: bool) -> ExitReason {
        if chained {
            self.machine
                .run_block_chained(&region.code, &mut self.runtime)
        } else {
            self.machine.run_block(&region.code, &mut self.runtime)
        }
    }

    fn counters(&mut self) -> &mut RunStats {
        &mut self.stats
    }
}

/// Whether two guest virtual addresses lie on one page.
fn same_page(a: u64, b: u64) -> bool {
    a & !0xFFF == b & !0xFFF
}

guest_aarch64::inherent_facade!(QemuRef);

/// TCG-style per-instruction emission: memory and FP through helpers; other
/// instructions fall back to the shared generator functions.
fn qemu_generate(d: &guest_aarch64::gen::Decoded, e: &mut Emitter, isa: &Aarch64Isa) -> bool {
    let load_via_helper =
        |e: &mut Emitter, rn: u32, off_node: dbt::NodeId, size: AccessSize| -> dbt::NodeId {
            let base = e.load_register(x_off(rn), ValueType::U64);
            let addr = e.add(base, off_node);
            let sz = e.const_u64(size.bytes());
            e.call_helper(qhelpers::MMU_READ, &[addr, sz])
        };
    let store_via_helper =
        |e: &mut Emitter, rn: u32, off_node: dbt::NodeId, value: dbt::NodeId, size: AccessSize| {
            let base = e.load_register(x_off(rn), ValueType::U64);
            let addr = e.add(base, off_node);
            let sz = e.const_u64(size.bytes());
            e.call_helper(qhelpers::MMU_WRITE, &[addr, value, sz]);
        };
    match d.insn {
        Insn::Load {
            rt,
            rn,
            imm,
            size,
            sext,
        } => {
            let off = e.const_u64(imm as u64);
            let v = load_via_helper(e, rn, off, size);
            let v = if sext { e.sext(v, ValueType::U32) } else { v };
            if rt != 31 {
                e.store_register(x_off(rt), v);
            }
            false
        }
        Insn::Store { rt, rn, imm, size } => {
            let off = e.const_u64(imm as u64);
            let v = if rt == 31 {
                e.const_u64(0)
            } else {
                e.load_register(x_off(rt), ValueType::U64)
            };
            store_via_helper(e, rn, off, v, size);
            false
        }
        Insn::LoadReg { rt, rn, rm } => {
            let off = e.load_register(x_off(rm), ValueType::U64);
            let v = load_via_helper(e, rn, off, AccessSize::Double);
            if rt != 31 {
                e.store_register(x_off(rt), v);
            }
            false
        }
        Insn::StoreReg { rt, rn, rm } => {
            let off = e.load_register(x_off(rm), ValueType::U64);
            let v = e.load_register(x_off(rt), ValueType::U64);
            store_via_helper(e, rn, off, v, AccessSize::Double);
            false
        }
        Insn::Ldp { rt, rt2, rn, imm } => {
            let off1 = e.const_u64(imm as i64 as u64);
            let v1 = load_via_helper(e, rn, off1, AccessSize::Double);
            e.store_register(x_off(rt), v1);
            let off2 = e.const_u64((imm + 8) as i64 as u64);
            let v2 = load_via_helper(e, rn, off2, AccessSize::Double);
            e.store_register(x_off(rt2), v2);
            false
        }
        Insn::Stp { rt, rt2, rn, imm } => {
            let v1 = e.load_register(x_off(rt), ValueType::U64);
            let off1 = e.const_u64(imm as i64 as u64);
            store_via_helper(e, rn, off1, v1, AccessSize::Double);
            let v2 = e.load_register(x_off(rt2), ValueType::U64);
            let off2 = e.const_u64((imm + 8) as i64 as u64);
            store_via_helper(e, rn, off2, v2, AccessSize::Double);
            false
        }
        Insn::LoadFp { vt, rn, imm, size } => {
            let off = e.const_u64(imm as u64);
            let v = load_via_helper(e, rn, off, AccessSize::Double);
            e.store_register(v_off(vt), v);
            if size == AccessSize::Quad {
                let off2 = e.const_u64(imm as u64 + 8);
                let v2 = load_via_helper(e, rn, off2, AccessSize::Double);
                e.store_register_sized(v_off(vt) + 8, v2, MemSize::U64);
            } else {
                let zero = e.const_u64(0);
                e.store_register_sized(v_off(vt) + 8, zero, MemSize::U64);
            }
            false
        }
        Insn::StoreFp { vt, rn, imm, size } => {
            let v = e.load_register(v_off(vt), ValueType::U64);
            let off = e.const_u64(imm as u64);
            store_via_helper(e, rn, off, v, AccessSize::Double);
            if size == AccessSize::Quad {
                let v2 = e.load_register(v_off(vt) + 8, ValueType::U64);
                let off2 = e.const_u64(imm as u64 + 8);
                store_via_helper(e, rn, off2, v2, AccessSize::Double);
            }
            false
        }
        Insn::FpReg { kind, vd, vn, vm } => {
            let op = e.const_u64(match kind {
                FpKind::Add => 0,
                FpKind::Sub => 1,
                FpKind::Mul => 2,
                FpKind::Div => 3,
            });
            let a = e.load_register(v_off(vn), ValueType::U64);
            let b = e.load_register(v_off(vm), ValueType::U64);
            let r = e.call_helper(qhelpers::SOFT_FP, &[op, a, b]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::Fsqrt { vd, vn } => {
            let a = e.load_register(v_off(vn), ValueType::U64);
            let r = e.call_helper(qhelpers::SOFT_SQRT, &[a]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::Fmadd { vd, vn, vm, va } => {
            let fma = e.const_u64(4);
            let a = e.load_register(v_off(vn), ValueType::U64);
            let b = e.load_register(v_off(vm), ValueType::U64);
            let c = e.load_register(v_off(va), ValueType::U64);
            let r = e.call_helper(qhelpers::SOFT_FP, &[fma, a, b, c]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::VAdd2D { vd, vn, vm } | Insn::VMul2D { vd, vn, vm } => {
            let op = e.const_u64(if matches!(d.insn, Insn::VAdd2D { .. }) {
                0
            } else {
                1
            });
            let vd_off = e.const_u64(v_off(vd) as u64);
            let vn_off = e.const_u64(v_off(vn) as u64);
            let vm_off = e.const_u64(v_off(vm) as u64);
            e.call_helper(qhelpers::VEC_OP, &[op, vd_off, vn_off, vm_off]);
            false
        }
        _ => isa.generate(d, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::asm;

    fn boot(words: &[u32]) -> (QemuRef, RunExit) {
        let mut q = QemuRef::with_goto_tb(32 * 1024 * 1024);
        q.load_program(0x1000, words);
        q.set_entry(0x1000);
        let exit = q.run(200_000);
        (q, exit)
    }

    #[test]
    fn runs_arithmetic_and_loops() {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 100, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(0), 5050);
    }

    #[test]
    fn memory_goes_through_softmmu_helpers() {
        let mut a = asm::Assembler::new();
        a.mov_imm64(1, 0x10000);
        a.mov_imm64(2, 0xABCD);
        a.push(asm::str(2, 1, 8));
        a.push(asm::ldr(3, 1, 8));
        a.push(asm::hlt());
        let (q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(3), 0xABCD);
        assert!(
            q.machine.perf.helper_calls >= 2,
            "loads and stores call the softmmu helper"
        );
        assert_eq!(q.machine.perf.page_faults, 0, "no host paging involved");
    }

    #[test]
    fn fp_goes_through_softfloat_helpers() {
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0x78)); // 1.5
        a.push(asm::fmul(1, 0, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(f64::from_bits(q.guest_reg(0)), 2.25);
        assert!(q.machine.perf.helper_calls >= 1, "softfloat helper used");
    }

    #[test]
    fn goto_tb_chains_across_pages_and_stays_invisible() {
        // The loop bounces between two guest pages through direct branches:
        // they must link across the page and leave guest state as the
        // program defines it.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(0, 0, 0)); // 0x1000
        main.push(asm::movz(1, 500, 0));
        // loop head at 0x1008 branches to 0x2000.
        main.push(asm::b(0x2000 - 0x1008));
        let mut far = asm::Assembler::new();
        far.push(asm::add(0, 0, 1)); // 0x2000
        far.push(asm::subi(1, 1, 1));
        far.push(asm::cbnz(1, 0x1008 - 0x2008)); // back to the loop head
        far.push(asm::hlt());

        let mut q = QemuRef::with_goto_tb(32 * 1024 * 1024);
        q.load_program(0x1000, &main.finish());
        q.load_program(0x2000, &far.finish());
        q.set_entry(0x1000);
        assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(0), 500 * 501 / 2, "x0 sums 500 down to 1");
        assert_eq!(q.guest_reg(1), 0);
        let s = q.stats();
        assert!(
            s.goto_tb_transfers > 500,
            "direct branches must chain across pages: {}",
            s.goto_tb_transfers
        );
    }

    #[test]
    fn indirect_exits_never_link_even_under_goto_tb() {
        // TCG's `goto_tb` is direct-only: the baseline must not price a
        // `blr` or `ret` as a link.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 300, 0));
        a.adr_to(2, "leaf");
        a.label("loop");
        a.push(asm::blr(2));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        a.label("leaf");
        a.push(asm::ret());
        let mut q = QemuRef::with_goto_tb(32 * 1024 * 1024);
        q.load_program(0x1000, &a.finish());
        q.set_entry(0x1000);
        assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
        let s = q.stats();
        assert_eq!(s.predicted_transfers, 0);
        assert!(
            s.chained_transfers >= 298,
            "the direct legs still chain: {}",
            s.chained_transfers
        );
    }

    #[test]
    fn chaining_survives_cache_flushes() {
        // TLBI inside the loop forces the full-cache invalidation of the
        // virtually-indexed design; epoch-stamped links must die with it and
        // execution must stay correct.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 50, 0));
        a.label("loop");
        a.b_to("body");
        a.label("body");
        a.push(asm::addi(0, 0, 1));
        a.push(asm::tlbi());
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let mut q = QemuRef::with_goto_tb(32 * 1024 * 1024);
        q.load_program(0x1000, &a.finish());
        q.set_entry(0x1000);
        assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(0), 50);
        assert!(
            q.cache.stats().invalidated_full > 0,
            "TLBI must flush the virtually-indexed cache"
        );
    }

    #[test]
    fn results_match_captive_on_the_same_program() {
        // A hot loop over memory: x2 accumulates loads of what x0 stores.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 7, 0));
        a.push(asm::movz(1, 1000, 0));
        a.push(asm::movz(2, 0, 0));
        a.mov_imm64(3, 0x20000);
        a.label("loop");
        a.push(asm::str(0, 3, 0));
        a.push(asm::ldr(4, 3, 0));
        a.push(asm::add(2, 2, 4));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let words = a.finish();

        let (q, qe) = boot(&words);
        let mut c = captive::Captive::new(captive::CaptiveConfig::default());
        c.load_program(0x1000, &words);
        c.set_entry(0x1000);
        let ce = c.run(100_000);
        assert_eq!(qe, RunExit::GuestHalted { code: 0 });
        assert_eq!(ce, captive::RunExit::GuestHalted { code: 0 });
        for r in 0..5 {
            assert_eq!(q.guest_reg(r), c.guest_reg(r), "x{r} diverged");
        }
        // On a hot memory loop Captive's direct host loads beat the softmmu
        // helper path once the one-off demand-mapping cost is amortised.
        assert!(
            c.stats().cycles < q.stats().cycles,
            "captive {} vs qemu {}",
            c.stats().cycles,
            q.stats().cycles
        );
    }
}
