//! The guest-system core: AArch64 *system* semantics over an
//! [`hvm::Machine`], shared by every execution engine.
//!
//! Captive and the QEMU-style baseline are compared on exactly four axes,
//! each carried by hooks of the one run loop ([`crate::dispatch`]): host
//! paging vs softmmu (`resolve` for fetches, the engine's `hvm::Runtime` for
//! data), host FP vs softfloat (what `lookup` translates on a miss), physical
//! vs virtual cache index (`lookup`'s key, and what `settle` and
//! `after_block` drop: a page or the whole cache) and chaining policy
//! (`may_chain`, `link_stamp`, `chained`).  Everything else a system-level
//! guest observes is stated once — the loop in [`crate::dispatch::run`], the
//! rest here, embedded by both engines as [`GuestSys`]:
//!
//! * the register-file accessors and the guest façade (`load_program`,
//!   `guest_reg`, `guest_mem_digest`, … — the provided methods of
//!   [`Engine`]);
//! * exception entry ([`GuestSys::take_exception`]) and the
//!   event → (class, ISS, FAR) mapping ([`GuestEvent::syndrome`]), which
//!   masks IRQs until `ERET` so a handler is never preempted mid-flight;
//! * the helper arms whose *semantics* are engine-independent — the
//!   console/exit hypercalls, `ERET`, `FCMP`, `HLT`, the softfloat
//!   arithmetic of the soft-FP lowering (`SOFT_FP`, `SOFT_SQRT`, `VEC_OP`)
//!   and the timer and virtio `MSR` side effects — priced from the
//!   embedding engine's [`HelperCosts`] table, which is where the engines'
//!   cost difference lives;
//! * the event sources and the virtio-blk device, with retirement
//!   ([`GuestSys::poll_virtio`]) handing the touched pages back to the
//!   engine, because what a device store does to translated code *is* a
//!   cache-index policy;
//! * the one table of counters an engine reports ([`RunStats`], below) and
//!   the one [`RunExit`].
//!
//! The obligations this module is the single place to check (cf. Dahlin et
//! al.): IRQs are masked at every exception entry and unmasked only by
//! `ERET`; SPSR carries the interrupted NZCV and EL; an exception with no
//! vector installed ends the run with [`NO_VECTOR_EXIT`] instead of spinning
//! through the zero page; timer deadlines saturate instead of wrapping.
//!
//! # Counters
//!
//! Everything either engine counts about a run is a field of [`RunStats`],
//! declared once — name, doc and [`Kind`] on one line of the
//! `dbt::counter_table!` invocation below — and read through
//! [`Engine::stats`].  A new counter is that line plus the increment (or the
//! sample in the engine's `stats()`); the figures JSON and every comparison
//! walk the table ([`RunStats::walk`], the two `differs_across_*` methods)
//! and pick it up unasked.  The JIT's static counters are the nested
//! [`dbt::JitCounters`] table, declared in `dbt::counters` because
//! `finish_translation` fills it.  An engine leaves what it does not have at
//! zero (QemuRef forms no regions and has no iTLB).
//!
//! What a kind promises, and who holds a counter to it:
//!
//! * [`Kind::Architectural`] — guest-visible, so equal on every engine and
//!   configuration running the same guest.  `bench`'s chaos and virtio tests
//!   hold QemuRef and each Captive configuration to
//!   [`RunStats::differs_across_engines`]` == None`.
//! * [`Kind::Deterministic`] — a function of the guest and one engine
//!   configuration (simulated cycles, dispatch and cache behaviour, static
//!   JIT counts), whatever the host scheduler does to the tier workers.
//!   `same_seed_reproduces_every_counter`, the worker-queue flood test and
//!   `captive::spec`'s tiered / settled / sync comparison go through
//!   [`RunStats::differs_across_reruns`], which compares every counter that
//!   is not `Wall`; `bench/tests/golden_counters.rs` pins five runs.
//! * [`Kind::Wall`] — host time; excluded from every comparison.
//!
//! `RunStats`' own test keeps the table honest: names unique, and the
//! struct exactly as large as its walk, so a field cannot be declared
//! beside the table.
//!
//! # Retargetability audit
//!
//! What still names `guest_aarch64::` outside this crate, i.e. what a
//! second guest ISA would have to supply:
//!
//! * `captive`: `Aarch64Isa` (the `dbt::GuestIsa` impl: decode, generate,
//!   and the UNDEF stub), `gen::{Decoded, generate_soft_fp,
//!   helpers::{TLBI, MSR_NOTIFY}}` (the soft-FP ablation runs the one
//!   soft-FP lowering, which names `isa::FpKind` for both engines),
//!   `isa::Insn` (the region former classifies direct branches),
//!   `CURRENT_EL_OFF` (host-ring tracking, in its `Dispatch::lookup`),
//!   `mmu::{walk_guest, GUEST_LEVELS}` (tier-1 snapshot walks, fetch-walk
//!   pricing), this module (`GuestSys`, `GuestEvent`, `Engine`,
//!   `HelperCosts`, `RunExit`, `RunStats`) and [`crate::dispatch`], which
//!   names no register, encoding or exception model of its own.  Its tests
//!   add `asm`, `SysReg` and `mmu::GuestTableImage` to write guest programs.
//! * `qemu-ref`: the same `Aarch64Isa`/`gen` set, `isa::{Insn, AccessSize}`
//!   and `x_off`/`v_off` (memory instructions are re-emitted through the
//!   softmmu helpers; blocks are cut by Captive's block translator), this
//!   module and `dispatch`.
//! * `bench`: `asm`, `isa::Cond`, `SysReg`, `esr_class::IRQ` and the `SVC_*`
//!   hypercall numbers — guest *programs* (the chaos generator, tests,
//!   examples) — plus [`Engine`] for the generic drivers.
//!
//! So beyond a `GuestIsa` impl and workload files, a second ISA owes: a
//! `sys` module of this shape (register-file layout, exception model, helper
//! ids), a soft-FP lowering beside its generator functions, a branch
//! classifier for the region former (today `isa::Insn` matched directly in
//! `captive::translator`), and its own softmmu re-emission for the
//! baseline.

use crate::gen::helpers;
use crate::mmu::{self, GuestWalk, GuestWalkError};
use crate::regs::{
    esr_class, x_off, SysReg, CNT_CTL_OFF, CNT_TVAL_OFF, CURRENT_EL_OFF, ELR_OFF, ESR_OFF, FAR_OFF,
    NZCV_OFF, SCTLR_OFF, SPSR_OFF, TTBR0_OFF, VBAR_OFF,
};
use hvm::{EventSources, Gpr, HelperResult, Machine, VirtioBlk, VirtioBlkConfig};

/// SVC immediate used as the hypervisor console hypercall (putchar of X0).
pub const SVC_PUTCHAR: u32 = 0xFF0;
/// SVC immediate used as the hypervisor exit hypercall (exit code in X0).
pub const SVC_EXIT: u32 = 0xFF1;
/// Exit code of a run whose guest took an exception with `VBAR == 0`.
pub const NO_VECTOR_EXIT: u64 = 0xDEAD;

/// A guest-visible event an engine's dispatcher must deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestEvent {
    /// Data abort at a guest virtual address.
    DataAbort {
        /// Faulting address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// Instruction fetch abort.
    InstrAbort {
        /// Faulting address.
        vaddr: u64,
    },
    /// PC alignment fault: the dispatcher was asked to fetch from a PC that
    /// is not a multiple of four (a `BR`, `RET` or `ERET` to such a target).
    /// Raised before any fetch, so no engine decodes words that straddle an
    /// instruction boundary.
    PcAlign {
        /// The misaligned PC (reported in FAR, and in ELR as the PC of the
        /// fetch that faulted).
        vaddr: u64,
    },
    /// Asynchronous interrupt from an event source (timer or latch).
    Irq {
        /// Interrupt line, delivered in the ESR ISS field.
        line: u32,
    },
}

impl GuestEvent {
    /// The (ESR class, ISS, FAR) this event is reported with.
    pub fn syndrome(self) -> (u64, u64, Option<u64>) {
        match self {
            GuestEvent::DataAbort { vaddr, write } => {
                (esr_class::DATA_ABORT, write as u64, Some(vaddr))
            }
            GuestEvent::InstrAbort { vaddr } => (esr_class::INSTR_ABORT, 0, Some(vaddr)),
            GuestEvent::PcAlign { vaddr } => (esr_class::PC_ALIGN, 0, Some(vaddr)),
            GuestEvent::Irq { line } => (esr_class::IRQ, line as u64, None),
        }
    }
}

/// Why an engine's `run` stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// The guest executed `HLT` or the exit hypercall.
    GuestHalted {
        /// Exit code passed by the guest (0 if halted without one).
        code: u64,
    },
    /// The block budget given to `run` was exhausted.
    BudgetExhausted,
    /// Something went wrong in the execution engine.
    Error(String),
}

/// Simulated-cycle cost of each shared helper arm.  The arms' semantics are
/// common; what an engine pays to reach them (a unikernel-internal call vs a
/// user-process helper with its state save/restore) is not, so each engine
/// hands [`GuestSys::new`] its own `const` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelperCosts {
    /// Console hypercall (`svc #SVC_PUTCHAR`).
    pub putchar: u64,
    /// Exit hypercall (`svc #SVC_EXIT`).
    pub exit: u64,
    /// Synchronous exception entry through `TAKE_EXCEPTION`.
    pub exception: u64,
    /// `MSR_NOTIFY` (any system register).
    pub msr_notify: u64,
    /// `FCMP`.
    pub fcmp: u64,
    /// `ERET`.
    pub eret: u64,
    /// `HLT`.
    pub hlt: u64,
    /// A scalar softfloat operation (`SOFT_FP`: add, sub, mul, div, fmadd).
    pub soft_fp: u64,
    /// A softfloat square root (`SOFT_SQRT`).
    pub soft_sqrt: u64,
    /// A packed softfloat add or multiply (`VEC_OP`), both lanes.
    pub vec_op: u64,
}

pub use dbt::counters::{Counter, Kind};

dbt::counter_table! {
    /// Everything an engine counts about a run (module docs, *Counters*).
    ///
    /// Concurrency audit: every field is owned and written by the run thread
    /// only — tier-1 workers report through messages and never touch shared
    /// counters — so plain `u64`s are sound.  Counters that live elsewhere
    /// (the machine's `PerfCounters`, the code cache, the fetch and data
    /// TLBs, the phase timers, the device) are *sampled* by the engine's
    /// `stats()`, never kept twice: what the run loop counts itself (blocks,
    /// chained transfers, region entries) is counted here and nowhere else.
    pub struct RunStats {
        /// Guest exceptions delivered by the dispatcher (aborts and IRQs;
        /// SVC and UNDEF enter through translated code and are not counted).
        Architectural guest_exceptions: u64,
        /// Asynchronous IRQs delivered (subset of `guest_exceptions`).
        Architectural irqs_delivered: u64,
        /// Timer-originated IRQs delivered (subset of `irqs_delivered`).
        Architectural timer_irqs: u64,
        /// Virtio queue notifications (`msr VblkNotify`) the device received.
        Architectural virtio_kicks: u64,
        /// Virtio requests accepted off the available ring.
        Architectural virtio_submissions: u64,
        /// Virtio completions retired to the used ring.
        Architectural virtio_completions: u64,
        /// Completion interrupts the device raised.
        Architectural virtio_irqs: u64,
        /// Faults the seeded plan injected.
        Architectural virtio_fault_injections: u64,
        /// Bytes moved by device DMA (both directions).
        Architectural virtio_dma_bytes: u64,
        /// Requests completed with a non-OK status.
        Architectural virtio_io_errors: u64,
        /// Device DMA stores that forced the engine to drop translated code
        /// (per-page invalidations on a physically-indexed cache, full
        /// flushes on a virtually-indexed one).
        Deterministic external_invalidations: u64,
        /// Simulated host cycles consumed by guest execution.
        Deterministic cycles: u64,
        /// Host instructions executed.
        Deterministic host_insns: u64,
        /// Guest instructions attributed (blocks entered × block length, so
        /// not yet comparable across engines).
        Deterministic guest_insns: u64,
        /// Blocks executed (chained and dispatched).
        Deterministic blocks: u64,
        /// Translations performed on the dispatcher's miss path.
        Deterministic translations: u64,
        /// Bytes of host code generated.
        Deterministic code_bytes: u64,
        /// Blocks entered through the dispatcher slow path (page resolution
        /// + cache lookup + EL read).
        Deterministic slow_dispatches: u64,
        /// Control transfers that followed a patched chain link, bypassing
        /// the dispatcher.
        Deterministic chained_transfers: u64,
        /// Cross-page chained transfers (subset of `chained_transfers`;
        /// QemuRef only).
        Deterministic goto_tb_transfers: u64,
        /// Chained transfers through a predicted (register-indirect) link
        /// (subset of `chained_transfers`; Captive only).
        Deterministic predicted_transfers: u64,
        /// Successor links patched (lazy chain resolutions).
        Deterministic chain_patches: u64,
        /// Fetch-side iTLB hits (instruction fetches resolved without a
        /// guest page-table walk; Captive only, like every counter below).
        Deterministic itlb_hits: u64,
        /// Fetch-side iTLB misses.
        Deterministic itlb_misses: u64,
        /// Data-side gTLB hits (host data faults whose guest walk was
        /// answered from the cache).
        Deterministic dtlb_hits: u64,
        /// Data-side gTLB misses (host data faults that walked guest tables).
        Deterministic dtlb_misses: u64,
        /// Fetch-side iTLB hits that kept a cached walk across a `TLBI`
        /// because no table page it read had been written (subset of
        /// `itlb_hits`; each is one fetch walk not charged).
        Deterministic itlb_revalidated: u64,
        /// Data-side gTLB hits that kept a cached walk across a `TLBI` the
        /// same way (subset of `dtlb_hits`; each is one software walk not
        /// charged).
        Deterministic gtlb_revalidated: u64,
        /// Translation-table pages a `TLBI` found written while a cached
        /// walk depended on them: what makes the two counters above miss.
        Deterministic table_pages_dirtied: u64,
        /// Intra-region constituent transfers: stitched block boundaries
        /// crossed without an interpreter entry (each would have been a
        /// chained transfer under chaining alone).
        Deterministic region_transfers: u64,
        /// Multi-constituent regions formed from hot chain paths.
        Deterministic regions_formed: u64,
        /// Regions formed by unrolling a loop body — single- or multi-block
        /// (subset of `regions_formed`).
        Deterministic regions_unrolled: u64,
        /// Regions whose loop closed as a region-internal back-edge (subset
        /// of `regions_formed`): these iterate inside translated code.
        Deterministic loop_regions_formed: u64,
        /// Back-edge transfers taken: loop trips that stayed inside one
        /// region (each would have been at least a chained transfer,
        /// usually several, without looping regions).
        Deterministic backedge_transfers: u64,
        /// Interpreter entries that executed a multi-constituent region
        /// (subset of `blocks`).
        Deterministic region_entries: u64,
        /// Stale-generation regions evicted by the context-generation sweep.
        Deterministic regions_evicted: u64,
        /// Regions evicted because the cache hit its capacity bound.
        Deterministic capacity_evictions: u64,
        /// Encoded bytes resident in the code cache when sampled.
        Deterministic bytes_live: u64,
        /// Regions resident in the code cache when sampled.
        Deterministic regions_live: u64,
        /// Trace heads whose one formation attempt produced no
        /// multi-constituent region (trace too short, or translation bailed
        /// out): they are never published or formed again.
        Deterministic regions_quarantined: u64,
        /// Tier-1 formation requests published to the background service.
        /// (The tier counters are deterministic because requests publish at
        /// fixed link heats and results are consumed at the blocking
        /// install point.)
        Deterministic tier1_requests: u64,
        /// Regions formed by a background worker and installed after
        /// revalidation (subset of `regions_formed`).
        Deterministic regions_installed_async: u64,
        /// Worker-formed regions discarded at the install gate: formed
        /// against a stale context generation or a since-patched page.
        Deterministic stale_discards: u64,
        /// Regions installed from the content-keyed reuse cache without any
        /// formation work (subset of `regions_formed`).
        Deterministic reuse_hits: u64,
        /// Reuse-cache lookups that found no validated template.
        Deterministic reuse_misses: u64,
        /// The JIT's static counters, summed over every installed
        /// translation (the engine's [`dbt::PhaseTimers::jit`]; a nested
        /// table, walked under its own names and kinds).
        Deterministic jit: dbt::JitCounters,
        /// Wall-clock in the JIT's decode phase, in nanoseconds (this and
        /// the next three: the engine's [`dbt::PhaseTimers`]; Fig. 20).
        Wall jit_decode_ns: u64,
        /// Wall-clock in LIR emission, in nanoseconds.
        Wall jit_translate_ns: u64,
        /// Wall-clock in the optimiser and register allocation, in
        /// nanoseconds.
        Wall jit_regalloc_ns: u64,
        /// The optimiser's share of `jit_regalloc_ns`.
        Wall jit_opt_ns: u64,
        /// Wall-clock in lowering and encoding, in nanoseconds.
        Wall jit_encode_ns: u64,
        /// JIT wall-clock the run thread blocked on, in nanoseconds: tier-0
        /// translation, snapshot capture, waits for in-flight results, and
        /// every formation on the run thread, claimed or synchronous.
        Wall jit_wall_ns: u64,
        /// Wall-clock spent inside tier workers, in nanoseconds (runs hidden
        /// behind tier-0 execution); 0 when no worker serves the engine.
        Wall tier_worker_wall_ns: u64,
        /// Nanoseconds from engine construction to the first gated-region
        /// install (0 when none was installed).
        Wall first_region_install_ns: u64,
    }
}

impl RunStats {
    /// Against another engine or configuration running the same guest: the
    /// first `Architectural` counter the two differ on, as `name: ours vs
    /// theirs`.
    pub fn differs_across_engines(&self, other: &RunStats) -> Option<String> {
        self.diff(other, |kind| kind == Kind::Architectural)
    }

    /// Against a rerun of the same configuration: the first counter that is
    /// not `Wall` the two differ on.
    pub fn differs_across_reruns(&self, other: &RunStats) -> Option<String> {
        self.diff(other, |kind| kind != Kind::Wall)
    }

    /// The one comparison behind both: the walks side by side.
    fn diff(&self, other: &RunStats, compared: fn(Kind) -> bool) -> Option<String> {
        self.walk()
            .into_iter()
            .zip(other.walk())
            .find(|(a, b)| compared(a.kind) && a.value != b.value)
            .map(|(a, b)| format!("{}: {} vs {}", a.name, a.value, b.value))
    }

    /// Samples an engine's JIT timers: the static counters, the four phase
    /// clocks and the optimiser's share of the third.
    pub fn sample_jit(&mut self, timers: &dbt::PhaseTimers) {
        self.jit = timers.jit;
        self.jit_decode_ns = timers.decode.as_nanos() as u64;
        self.jit_translate_ns = timers.translate.as_nanos() as u64;
        self.jit_regalloc_ns = timers.regalloc.as_nanos() as u64;
        self.jit_opt_ns = timers.opt.as_nanos() as u64;
        self.jit_encode_ns = timers.encode.as_nanos() as u64;
    }
}

/// Guest-system state and semantics shared by every engine.
pub struct GuestSys {
    /// Host physical address of the guest register file.
    pub regfile_phys: u64,
    /// Host physical address guest physical address 0 is backed at.
    pub guest_phys_base: u64,
    /// Guest RAM size in bytes.
    pub guest_ram: u64,
    /// The embedding engine's helper prices.
    pub costs: HelperCosts,
    /// Console output captured from the guest.
    pub uart_output: Vec<u8>,
    /// Set when the run must end: the exit hypercall's X0, 0 for `HLT`, or
    /// [`NO_VECTOR_EXIT`].
    pub exit_code: Option<u64>,
    /// A guest event a helper raised mid-block, for the dispatcher to take
    /// and deliver once the block has exited.
    pub pending: Option<GuestEvent>,
    /// Deterministic event sources (programmable timer + interrupt latch).
    pub events: EventSources,
    /// Attached virtio-blk device, if any.
    pub virtio: Option<VirtioBlk>,
    /// See [`RunStats::external_invalidations`]; bumped by the engine.
    pub external_invalidations: u64,
    guest_exceptions: u64,
    /// The block the last [`crate::dispatch::run`] call ran out of budget
    /// after, its exit not yet examined (`dispatch` docs, *Sliced runs*).
    pub(crate) resume: Option<std::sync::Arc<dbt::Region>>,
}

impl GuestSys {
    /// Creates the core over `machine`, whose memory holds the register
    /// file at `regfile_phys` and guest RAM at `guest_phys_base`, and boots
    /// the guest in EL1.
    pub fn new(
        machine: &mut Machine,
        regfile_phys: u64,
        guest_phys_base: u64,
        guest_ram: u64,
        costs: HelperCosts,
    ) -> Self {
        machine
            .mem
            .write_u64(regfile_phys + CURRENT_EL_OFF as u64, 1)
            .expect("register file is inside host RAM");
        GuestSys {
            regfile_phys,
            guest_phys_base,
            guest_ram,
            costs,
            uart_output: Vec::new(),
            exit_code: None,
            pending: None,
            events: EventSources::default(),
            virtio: None,
            external_invalidations: 0,
            guest_exceptions: 0,
            resume: None,
        }
    }

    /// Reads the register-file slot at byte `offset`.
    #[inline]
    pub fn read_gregfile(&self, machine: &Machine, offset: i32) -> u64 {
        machine
            .mem
            .read_u64(self.regfile_phys + offset as u64)
            .unwrap_or(0)
    }

    /// Writes the register-file slot at byte `offset`.
    #[inline]
    pub fn write_gregfile(&self, machine: &mut Machine, offset: i32, value: u64) {
        let _ = machine
            .mem
            .write_u64(self.regfile_phys + offset as u64, value);
    }

    /// Whether the guest MMU is enabled (SCTLR bit 0).
    #[inline]
    pub fn mmu_enabled(&self, machine: &Machine) -> bool {
        self.read_gregfile(machine, SCTLR_OFF) & 1 != 0
    }

    /// Current guest `TTBR0`.
    #[inline]
    pub fn ttbr0(&self, machine: &Machine) -> u64 {
        self.read_gregfile(machine, TTBR0_OFF)
    }

    /// Walks the guest page tables for `va`.  Table reads are confined to
    /// guest RAM (the checked add keeps addresses near `u64::MAX` from
    /// wrapping past the bound).
    #[inline]
    pub fn walk(&self, machine: &Machine, va: u64) -> Result<GuestWalk, GuestWalkError> {
        mmu::walk_guest(
            |gpa| match gpa.checked_add(8) {
                Some(end) if end <= self.guest_ram => {
                    machine.mem.read_u64(self.guest_phys_base + gpa).ok()
                }
                _ => None,
            },
            self.ttbr0(machine),
            va,
        )
    }

    /// Exception entry: masks IRQs, saves the interrupted context to
    /// ESR/FAR/ELR/SPSR, switches to EL1 and redirects the guest PC to the
    /// vector base.
    #[inline]
    pub fn take_exception(
        &mut self,
        machine: &mut Machine,
        class: u64,
        iss: u64,
        return_pc: u64,
        far: Option<u64>,
    ) {
        // The PSTATE.I analogue: a pending IRQ must never preempt a handler
        // mid-flight and clobber ELR/ESR under it.  `ERET` unmasks.
        self.events.set_masked(true);
        let el = self.read_gregfile(machine, CURRENT_EL_OFF);
        let nzcv = self.read_gregfile(machine, NZCV_OFF);
        self.write_gregfile(machine, ESR_OFF, (class << 26) | (iss & 0xFFFF));
        if let Some(far) = far {
            self.write_gregfile(machine, FAR_OFF, far);
        }
        self.write_gregfile(machine, ELR_OFF, return_pc);
        // SPSR saves the interrupted context's flags alongside the EL so a
        // handler arriving at an arbitrary preemption point (e.g. a timer
        // IRQ mid-loop) may clobber NZCV freely; `ERET` restores both.
        self.write_gregfile(machine, SPSR_OFF, ((nzcv & 0xF) << 28) | (el & 1));
        self.write_gregfile(machine, CURRENT_EL_OFF, 1);
        let vbar = self.read_gregfile(machine, VBAR_OFF);
        if vbar == 0 {
            // No vector installed: the guest cannot handle this exception.
            // A fatal guest error, not a spin through the zero page.
            self.exit_code = Some(NO_VECTOR_EXIT);
        }
        machine.set_reg(Gpr::R15, vbar);
    }

    /// Delivers `event` from the dispatcher, with `pc` the precise guest PC
    /// it interrupts (the faulting instruction for aborts).
    #[inline]
    pub fn deliver(&mut self, machine: &mut Machine, event: GuestEvent, pc: u64) {
        self.guest_exceptions += 1;
        let (class, iss, far) = event.syndrome();
        self.take_exception(machine, class, iss, pc, far);
    }

    /// True when a looping region must leave at its next back-edge for a
    /// reason the core knows: a queued event, a requested exit, a due event
    /// source, or a device completion ready to retire.
    #[inline]
    pub fn loop_exit_pending(&self, cycles: u64) -> bool {
        self.pending.is_some()
            || self.exit_code.is_some()
            || self.events.due(cycles)
            || self.virtio_due(cycles)
    }

    /// The `MSR_NOTIFY` side effects every engine shares (the MSR already
    /// stored the value into the register's slot): timer programming and the
    /// virtio doorbell.  Returns the helper's result, charged from the cost
    /// table like every other shared arm, and `true` for the registers whose
    /// write changes translation state (`TTBR0`, `SCTLR`) — the engine
    /// answers those with its own teardown before handing the result back.
    #[inline]
    pub fn msr_notify(&mut self, machine: &mut Machine) -> (bool, HelperResult) {
        let now = machine.perf.cycles;
        let mut translation_changed = false;
        match SysReg::from_id(machine.reg(Gpr::Rdi) as u32) {
            Some(SysReg::Ttbr0) | Some(SysReg::Sctlr) => translation_changed = true,
            // Deadlines saturate: a guest programming a near-`u64::MAX`
            // delta must disarm-at-infinity, not wrap into the past.
            Some(SysReg::CntTval) => {
                let delta = self.read_gregfile(machine, CNT_TVAL_OFF);
                self.events.timer.arm_oneshot(now.saturating_add(delta));
            }
            Some(SysReg::CntCtl) => {
                let period = self.read_gregfile(machine, CNT_CTL_OFF);
                if period == 0 {
                    self.events.timer.cancel();
                } else {
                    self.events
                        .timer
                        .arm_periodic(now.saturating_add(period), period);
                }
            }
            // Queue notification: consume newly-published available-ring
            // entries at this precise program point.
            Some(SysReg::VblkNotify) => {
                if let Some(dev) = self.virtio.as_mut() {
                    dev.kick(&mut machine.mem, now);
                }
            }
            _ => {}
        }
        let result = HelperResult::Continue {
            cost: self.costs.msr_notify,
        };
        (translation_changed, result)
    }

    /// The helper arms with engine-independent semantics; an engine's
    /// `Runtime::helper` falls through to this after its own ids.
    #[inline]
    pub fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult {
        let costs = self.costs;
        match id {
            helpers::TAKE_EXCEPTION => {
                let class = machine.reg(Gpr::Rdi);
                let iss = machine.reg(Gpr::Rsi);
                let ret_pc = machine.reg(Gpr::Rdx);
                if class == esr_class::SVC && iss == SVC_PUTCHAR as u64 {
                    let ch = self.read_gregfile(machine, x_off(0)) as u8;
                    self.uart_output.push(ch);
                    machine.set_reg(Gpr::R15, ret_pc);
                    return HelperResult::Exit {
                        cost: costs.putchar,
                    };
                }
                if class == esr_class::SVC && iss == SVC_EXIT as u64 {
                    self.exit_code = Some(self.read_gregfile(machine, x_off(0)));
                    return HelperResult::Halt { cost: costs.exit };
                }
                self.take_exception(machine, class, iss, ret_pc, None);
                HelperResult::Exit {
                    cost: costs.exception,
                }
            }
            helpers::FCMP => {
                let a = f64::from_bits(machine.reg(Gpr::Rdi));
                let b = f64::from_bits(machine.reg(Gpr::Rsi));
                // Arm FCMP NZCV: unordered 0011, less 1000, equal 0110,
                // greater 0010.
                let nzcv: u64 = if a.is_nan() || b.is_nan() {
                    0b0011
                } else if a < b {
                    0b1000
                } else if a == b {
                    0b0110
                } else {
                    0b0010
                };
                machine.set_reg(Gpr::Rax, nzcv);
                HelperResult::Continue { cost: costs.fcmp }
            }
            helpers::ERET => {
                let elr = self.read_gregfile(machine, ELR_OFF);
                let spsr = self.read_gregfile(machine, SPSR_OFF);
                self.write_gregfile(machine, CURRENT_EL_OFF, spsr & 1);
                self.write_gregfile(machine, NZCV_OFF, (spsr >> 28) & 0xF);
                // Returning from the handler re-enables IRQ delivery.
                self.events.set_masked(false);
                machine.set_reg(Gpr::R15, elr);
                HelperResult::Exit { cost: costs.eret }
            }
            helpers::HLT => {
                self.exit_code.get_or_insert(0);
                HelperResult::Halt { cost: costs.hlt }
            }
            helpers::SOFT_FP => {
                let a = machine.reg(Gpr::Rsi);
                let b = machine.reg(Gpr::Rdx);
                let r = match machine.reg(Gpr::Rdi) {
                    0 => softfloat::f64_add(a, b),
                    1 => softfloat::f64_sub(a, b),
                    2 => softfloat::f64_mul(a, b),
                    3 => softfloat::f64_div(a, b),
                    // Fused `a * b + c`: one rounding, as the guest's FMADD.
                    _ => softfloat::f64_fma(a, b, machine.reg(Gpr::Rcx)),
                };
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue {
                    cost: costs.soft_fp,
                }
            }
            helpers::SOFT_SQRT => {
                let r = softfloat::f64_sqrt_arm(machine.reg(Gpr::Rdi));
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue {
                    cost: costs.soft_sqrt,
                }
            }
            helpers::VEC_OP => {
                let op = machine.reg(Gpr::Rdi);
                let [vd, vn, vm] = [Gpr::Rsi, Gpr::Rdx, Gpr::Rcx].map(|r| machine.reg(r) as i32);
                for lane in 0..2 {
                    let a = self.read_gregfile(machine, vn + lane * 8);
                    let b = self.read_gregfile(machine, vm + lane * 8);
                    let r = if op == 0 {
                        softfloat::f64_add(a, b)
                    } else {
                        softfloat::f64_mul(a, b)
                    };
                    self.write_gregfile(machine, vd + lane * 8, r);
                }
                HelperResult::Continue { cost: costs.vec_op }
            }
            _ => HelperResult::Continue { cost: 10 },
        }
    }

    /// Attaches a virtio-mmio block device backed by guest RAM.
    pub fn attach_virtio(&mut self, machine: &mut Machine, cfg: VirtioBlkConfig) {
        let dev = VirtioBlk::new(cfg, self.guest_phys_base, self.guest_ram);
        dev.init_mmio(&mut machine.mem)
            .expect("virtio MMIO window must lie inside guest RAM");
        self.virtio = Some(dev);
    }

    /// True when the attached device's queue head may retire at `cycles`:
    /// dispatch loops and looping regions must yield so the completion is
    /// not starved by chained translated code.
    #[inline]
    pub fn virtio_due(&self, cycles: u64) -> bool {
        self.virtio
            .as_ref()
            .is_some_and(|d| d.due(cycles, &self.events.latch))
    }

    /// Retires due virtio completions.  `Some(pages)` when anything retired:
    /// the guest physical pages the device's DMA stored to, behind the
    /// translator's back — the engine must drop any code translated from
    /// them before translated code runs again.
    #[inline]
    pub fn poll_virtio(&mut self, machine: &mut Machine) -> Option<Vec<u64>> {
        let dev = self.virtio.as_mut()?;
        let retired = dev.poll(
            &mut machine.mem,
            machine.perf.cycles,
            &mut self.events.latch,
        );
        retired.then(|| dev.take_touched_pages())
    }

    /// Samples the counters the core owns into `s`: exceptions, IRQs, the
    /// device's, and the engine-bumped `external_invalidations`.
    pub fn sample(&self, s: &mut RunStats) {
        s.guest_exceptions = self.guest_exceptions;
        s.irqs_delivered = self.events.delivered;
        s.timer_irqs = self.events.timer_delivered;
        s.external_invalidations = self.external_invalidations;
        if let Some(dev) = &self.virtio {
            s.virtio_kicks = dev.stats.kicks;
            s.virtio_submissions = dev.stats.submissions;
            s.virtio_completions = dev.stats.completions;
            s.virtio_irqs = dev.stats.irqs_raised;
            s.virtio_fault_injections = dev.stats.fault_injections;
            s.virtio_dma_bytes = dev.stats.dma_bytes;
            s.virtio_io_errors = dev.stats.io_errors;
        }
    }
}

/// What every engine is to its user: a machine, the guest-system core, and a
/// `run` loop.  The provided methods are the guest façade, written once;
/// generic drivers (`bench`, the chaos harness) take `E: Engine`.
pub trait Engine {
    /// The core and the machine it operates on.
    fn parts(&self) -> (&GuestSys, &Machine);
    /// Mutable access to the core and the machine.
    fn parts_mut(&mut self) -> (&mut GuestSys, &mut Machine);
    /// Runs the guest for at most `max_blocks` executed blocks.
    fn run(&mut self, max_blocks: u64) -> RunExit;
    /// Every counter of the run so far (sampled; never on a per-block path).
    fn stats(&self) -> RunStats;

    /// Writes `size` bytes of `value` at a guest physical address; panics
    /// on a write past the machine's memory (a mis-built image, not a guest
    /// behaviour).
    fn write_guest_phys(&mut self, guest_phys: u64, value: u64, size: u64) {
        self.note_host_write(guest_phys, size);
        let (sys, machine) = self.parts_mut();
        machine
            .mem
            .write_uint(sys.guest_phys_base + guest_phys, value, size)
            .expect("guest physical write within RAM");
    }

    /// Hears of every façade write before it lands: `len` bytes at
    /// `guest_phys`.  An engine that caches something derived from the
    /// *contents* of guest memory and learns of guest and device stores some
    /// other way (Captive's cached page-table walks) overrides this; the
    /// default does nothing.
    fn note_host_write(&mut self, _guest_phys: u64, _len: u64) {}

    /// Loads a guest program (little-endian instruction words) at a guest
    /// physical address; panics like [`Engine::write_guest_phys`].
    fn load_program(&mut self, guest_phys: u64, words: &[u32]) {
        let len = words.len() as u64 * 4;
        self.note_host_write(guest_phys, len);
        let (sys, machine) = self.parts_mut();
        let image = machine
            .mem
            .slice_mut(sys.guest_phys_base + guest_phys, len)
            .expect("guest physical write within RAM");
        for (bytes, word) in image.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Sets the guest entry point.
    fn set_entry(&mut self, pc: u64) {
        self.parts_mut().1.set_reg(Gpr::R15, pc);
    }

    /// Reads a guest general-purpose register.
    fn guest_reg(&self, index: u32) -> u64 {
        let (sys, machine) = self.parts();
        sys.read_gregfile(machine, x_off(index))
    }

    /// Reads the guest's NZCV flags nibble.
    fn guest_nzcv(&self) -> u64 {
        let (sys, machine) = self.parts();
        sys.read_gregfile(machine, NZCV_OFF)
    }

    /// FNV-1a digest of `len` bytes of guest physical memory starting at
    /// `start` (byte-exact final-state comparison across engines).
    fn guest_mem_digest(&self, start: u64, len: u64) -> u64 {
        let (sys, machine) = self.parts();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in start..start.saturating_add(len) {
            let b = machine
                .mem
                .read_uint(sys.guest_phys_base + a, 1)
                .unwrap_or(0) as u8;
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Console output accumulated from the guest.
    fn console(&self) -> &[u8] {
        &self.parts().0.uart_output
    }
}

/// Stamps the [`Engine`] façade onto an engine type as *inherent* methods
/// with the signatures callers have always used (`Captive::load_program(..)`
/// works without importing a trait, which the out-of-workspace benchmark
/// package relies on).
#[macro_export]
macro_rules! inherent_facade {
    ($engine:ty) => {
        impl $engine {
            /// Loads a guest program (little-endian instruction words) at a
            /// guest physical address.
            pub fn load_program(&mut self, guest_phys: u64, words: &[u32]) {
                $crate::sys::Engine::load_program(self, guest_phys, words)
            }
            /// Writes guest physical memory.
            pub fn write_guest_phys(&mut self, guest_phys: u64, value: u64, size: u64) {
                $crate::sys::Engine::write_guest_phys(self, guest_phys, value, size)
            }
            /// Sets the guest entry point.
            pub fn set_entry(&mut self, pc: u64) {
                $crate::sys::Engine::set_entry(self, pc)
            }
            /// Reads a guest general-purpose register.
            pub fn guest_reg(&self, index: u32) -> u64 {
                $crate::sys::Engine::guest_reg(self, index)
            }
            /// Reads the guest's NZCV flags nibble.
            pub fn guest_nzcv(&self) -> u64 {
                $crate::sys::Engine::guest_nzcv(self)
            }
            /// FNV-1a digest of a guest physical memory range.
            pub fn guest_mem_digest(&self, start: u64, len: u64) -> u64 {
                $crate::sys::Engine::guest_mem_digest(self, start, len)
            }
            /// Console output accumulated from the guest.
            pub fn console(&self) -> &[u8] {
                $crate::sys::Engine::console(self)
            }
            /// Runs the guest for at most `max_blocks` executed blocks.
            pub fn run(&mut self, max_blocks: u64) -> $crate::sys::RunExit {
                $crate::sys::Engine::run(self, max_blocks)
            }
            /// Every counter of the run so far.
            pub fn stats(&self) -> $crate::sys::RunStats {
                $crate::sys::Engine::stats(self)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::MachineConfig;

    const REGFILE: u64 = 0x1000;
    const VECTOR: u64 = 0x2000;
    /// Distinct prices, so a test sees which table entry an arm charged.
    const COSTS: HelperCosts = HelperCosts {
        putchar: 1,
        exit: 2,
        exception: 3,
        msr_notify: 4,
        fcmp: 5,
        eret: 6,
        hlt: 7,
        soft_fp: 8,
        soft_sqrt: 9,
        vec_op: 10,
    };

    /// A bare machine and core — no engine, no translated code — with a
    /// vector installed and an EL0 context (flags N and C set) to interrupt.
    fn bare() -> (Machine, GuestSys) {
        let mut machine = Machine::new(MachineConfig {
            phys_mem: 1 << 20,
            ..MachineConfig::default()
        });
        let sys = GuestSys::new(&mut machine, REGFILE, 0x1_0000, 0x1_0000, COSTS);
        sys.write_gregfile(&mut machine, VBAR_OFF, VECTOR);
        sys.write_gregfile(&mut machine, CURRENT_EL_OFF, 0);
        sys.write_gregfile(&mut machine, NZCV_OFF, 0b1010);
        sys.write_gregfile(&mut machine, FAR_OFF, 0x5EED);
        (machine, sys)
    }

    fn sampled(sys: &GuestSys) -> RunStats {
        let mut s = RunStats::default();
        sys.sample(&mut s);
        s
    }

    #[test]
    fn the_table_is_the_only_list_of_counters() {
        let mut probe = RunStats {
            cycles: 7,
            ..RunStats::default()
        };
        probe.jit.idiom_hits[dbt::RuleKind::AddrFold.index()] = 9;
        let walk = probe.walk();
        // Every field is a `u64`, an array of them or a nested table, so a
        // counter declared beside the table instead of in it would make the
        // struct larger than its walk.
        assert_eq!(std::mem::size_of::<RunStats>(), 8 * walk.len());
        let mut names: Vec<&str> = walk.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a counter name is walked twice");
        let value = |name: &str| walk.iter().find(|c| c.name == name).map(|c| c.value);
        assert_eq!(value("cycles"), Some(7));
        assert_eq!(
            value("idiom_hits.addr.fold"),
            Some(9),
            "the nested table is walked"
        );
        for kind in [Kind::Architectural, Kind::Deterministic, Kind::Wall] {
            assert!(walk.iter().any(|c| c.kind == kind), "no {kind:?} counter");
        }
    }

    #[test]
    fn the_comparisons_name_the_first_differing_counter_of_a_compared_kind() {
        let a = RunStats::default();
        let b = RunStats {
            virtio_kicks: 2,
            cycles: 5,
            jit_wall_ns: 99,
            ..a
        };
        assert_eq!(a.differs_across_engines(&a), None);
        assert_eq!(
            a.differs_across_engines(&b).as_deref(),
            Some("virtio_kicks: 0 vs 2")
        );
        let cycles_only = RunStats { cycles: 5, ..a };
        assert_eq!(a.differs_across_engines(&cycles_only), None);
        assert_eq!(
            cycles_only.differs_across_reruns(&a).as_deref(),
            Some("cycles: 5 vs 0")
        );
        let wall_only = RunStats {
            jit_wall_ns: 1,
            ..a
        };
        assert_eq!(a.differs_across_reruns(&wall_only), None);
    }

    fn call(sys: &mut GuestSys, machine: &mut Machine, id: u16, args: [u64; 3]) -> HelperResult {
        machine.set_reg(Gpr::Rdi, args[0]);
        machine.set_reg(Gpr::Rsi, args[1]);
        machine.set_reg(Gpr::Rdx, args[2]);
        sys.helper(id, machine)
    }

    #[test]
    fn every_exception_kind_enters_with_the_architected_state() {
        enum Via {
            Dispatcher(GuestEvent),
            Helper { class: u64, iss: u64 },
        }
        // (how it is raised, ESR class, ISS, FAR written)
        let table = [
            (
                Via::Dispatcher(GuestEvent::DataAbort {
                    vaddr: 0xA000,
                    write: true,
                }),
                esr_class::DATA_ABORT,
                1,
                Some(0xA000),
            ),
            (
                Via::Dispatcher(GuestEvent::DataAbort {
                    vaddr: 0xB008,
                    write: false,
                }),
                esr_class::DATA_ABORT,
                0,
                Some(0xB008),
            ),
            (
                Via::Dispatcher(GuestEvent::InstrAbort { vaddr: 0xC000 }),
                esr_class::INSTR_ABORT,
                0,
                Some(0xC000),
            ),
            (
                Via::Dispatcher(GuestEvent::PcAlign { vaddr: 0xC002 }),
                esr_class::PC_ALIGN,
                0,
                Some(0xC002),
            ),
            (
                Via::Dispatcher(GuestEvent::Irq { line: 5 }),
                esr_class::IRQ,
                5,
                None,
            ),
            (
                Via::Helper {
                    class: esr_class::SVC,
                    iss: 3,
                },
                esr_class::SVC,
                3,
                None,
            ),
            (
                Via::Helper {
                    class: esr_class::UNDEFINED,
                    iss: 0,
                },
                esr_class::UNDEFINED,
                0,
                None,
            ),
        ];
        const PC: u64 = 0x1234;
        for (via, class, iss, far) in table {
            let (mut m, mut sys) = bare();
            let counted = match via {
                Via::Dispatcher(event) => {
                    sys.deliver(&mut m, event, PC);
                    1
                }
                Via::Helper { class, iss } => {
                    let r = call(&mut sys, &mut m, helpers::TAKE_EXCEPTION, [class, iss, PC]);
                    assert_eq!(r, HelperResult::Exit { cost: 3 });
                    0
                }
            };
            let reg = |off| sys.read_gregfile(&m, off);
            assert_eq!(reg(ESR_OFF), (class << 26) | iss, "ESR, class {class:#x}");
            assert_eq!(reg(ELR_OFF), PC, "ELR, class {class:#x}");
            assert_eq!(reg(SPSR_OFF), 0b1010 << 28, "SPSR = NZCV ‖ EL0");
            assert_eq!(reg(FAR_OFF), far.unwrap_or(0x5EED), "FAR, class {class:#x}");
            assert_eq!(reg(CURRENT_EL_OFF), 1, "handlers run in EL1");
            assert_eq!(m.reg(Gpr::R15), VECTOR, "PC is redirected to VBAR");
            assert!(sys.events.masked(), "entry masks IRQs, class {class:#x}");
            assert_eq!(sys.exit_code, None);
            assert_eq!(sampled(&sys).guest_exceptions, counted);
        }
    }

    #[test]
    fn an_exception_with_no_vector_installed_is_a_fatal_exit() {
        let (mut m, mut sys) = bare();
        sys.write_gregfile(&mut m, VBAR_OFF, 0);
        sys.deliver(&mut m, GuestEvent::InstrAbort { vaddr: 0 }, 0x1000);
        assert_eq!(sys.exit_code, Some(NO_VECTOR_EXIT));
        assert_eq!(NO_VECTOR_EXIT, 0xDEAD);
        assert!(sys.loop_exit_pending(0), "a looping region must leave too");
    }

    #[test]
    fn an_irq_latched_inside_a_handler_stays_pending_until_eret() {
        let (mut m, mut sys) = bare();
        sys.deliver(&mut m, GuestEvent::Irq { line: 5 }, 0x1234);
        // The handler clobbers the flags, then a device raises a line.
        sys.write_gregfile(&mut m, NZCV_OFF, 0b0100);
        sys.events.latch.raise(7);
        assert!(!sys.events.due(0) && !sys.loop_exit_pending(0));
        assert_eq!(sys.events.take(0), None, "masked: held, not lost");

        let r = call(&mut sys, &mut m, helpers::ERET, [0; 3]);
        assert_eq!(r, HelperResult::Exit { cost: 6 });
        assert_eq!(m.reg(Gpr::R15), 0x1234, "PC = ELR");
        assert_eq!(sys.read_gregfile(&m, CURRENT_EL_OFF), 0, "EL restored");
        assert_eq!(sys.read_gregfile(&m, NZCV_OFF), 0b1010, "NZCV restored");
        assert!(sys.loop_exit_pending(0), "ERET unmasks");
        assert_eq!(sys.events.take(0), Some(7));
        assert_eq!(sampled(&sys).irqs_delivered, 1);
    }

    #[test]
    fn timer_deadlines_saturate_instead_of_wrapping() {
        for (reg, slot) in [
            (SysReg::CntTval, CNT_TVAL_OFF),
            (SysReg::CntCtl, CNT_CTL_OFF),
        ] {
            let (mut m, mut sys) = bare();
            m.perf.cycles = 1_000;
            sys.write_gregfile(&mut m, slot, u64::MAX - 5);
            m.set_reg(Gpr::Rdi, reg as u64);
            let (translation_changed, result) = sys.msr_notify(&mut m);
            assert!(!translation_changed, "{reg:?} is not translation state");
            assert_eq!(result, HelperResult::Continue { cost: 4 });
            // A wrapped deadline (994) would already be due.
            assert!(!sys.events.timer.due(u64::MAX - 1), "{reg:?} wrapped");
            assert!(sys.events.timer.due(u64::MAX), "{reg:?} armed at infinity");
        }
        let (mut m, mut sys) = bare();
        for reg in [SysReg::Ttbr0, SysReg::Sctlr] {
            m.set_reg(Gpr::Rdi, reg as u64);
            let (translation_changed, result) = sys.msr_notify(&mut m);
            assert!(translation_changed, "{reg:?} is the engine's to answer");
            assert_eq!(result, HelperResult::Continue { cost: 4 });
        }
    }

    #[test]
    fn hypercalls_fcmp_and_hlt_charge_their_own_table_entry() {
        let (mut m, mut sys) = bare();
        sys.write_gregfile(&mut m, x_off(0), b'k' as u64);
        let svc = |imm: u32| [esr_class::SVC, imm as u64, 0x1238];
        let r = call(&mut sys, &mut m, helpers::TAKE_EXCEPTION, svc(SVC_PUTCHAR));
        assert_eq!(r, HelperResult::Exit { cost: 1 });
        assert_eq!(sys.uart_output, b"k");
        assert_eq!(m.reg(Gpr::R15), 0x1238, "the console call just returns");
        assert!(!sys.events.masked(), "a hypercall is not an exception");

        let nan = f64::NAN.to_bits();
        let (one, two) = (1f64.to_bits(), 2f64.to_bits());
        for (a, b, nzcv) in [
            (one, two, 0b1000),
            (one, one, 0b0110),
            (two, one, 0b0010),
            (nan, one, 0b0011),
        ] {
            let r = call(&mut sys, &mut m, helpers::FCMP, [a, b, 0]);
            assert_eq!(r, HelperResult::Continue { cost: 5 });
            assert_eq!(m.reg(Gpr::Rax), nzcv);
        }

        let r = call(&mut sys, &mut m, helpers::TAKE_EXCEPTION, svc(SVC_EXIT));
        assert_eq!(r, HelperResult::Halt { cost: 2 });
        assert_eq!(sys.exit_code, Some(b'k' as u64));
        let r = call(&mut sys, &mut m, helpers::HLT, [0; 3]);
        assert_eq!(r, HelperResult::Halt { cost: 7 });
        assert_eq!(sys.exit_code, Some(b'k' as u64), "HLT keeps an exit code");
    }
}
