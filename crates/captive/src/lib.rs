//! Captive: the retargetable system-level DBT hypervisor.
//!
//! This crate ties the substrates together into the system the paper
//! describes: a KVM-style hypervisor ([`Captive`]) that owns a bare-metal
//! host virtual machine (`hvm`), runs the DBT execution engine inside it,
//! translates guest (ARMv8-lite) basic blocks through the shared `dbt`
//! pipeline using the guest model's generator functions, and exploits the
//! host machine's system features directly:
//!
//! * guest virtual memory is mapped on demand into the lower half of the
//!   host virtual address space by handling host page faults and walking the
//!   *guest* page tables (Section 2.7.3);
//! * guest TLB flushes are intercepted and implemented by clearing the
//!   low-half top-level host page-table entries (Section 2.7.4);
//! * translated code is cached by guest *physical* address and only
//!   invalidated when self-modifying code is detected via write protection
//!   (Section 2.6);
//! * translated-to-translated control transfers are **chained** (Sections
//!   2.6–2.7): blocks ending in direct branches carry lazily patched
//!   successor links, and the dispatcher's inner loop follows them without a
//!   page walk, cache lookup, or exception-level read (the rules are the
//!   shared run loop's, [`guest_aarch64::dispatch`]);
//! * guest FP/SIMD instructions map to host FP/SIMD instructions with inline
//!   bit-accuracy fix-ups, or optionally to softfloat helper calls for the
//!   ablation of Section 3.6.2;
//! * the guest's exception level is tracked and guest user code runs in host
//!   ring 3, guest system code in ring 0 (Fig. 2).

pub mod formation;
pub mod itlb;
pub mod layout;
pub mod runtime;
pub mod spec;
pub mod tier;
pub mod translator;

use dbt::{
    BlockExit, CacheIndex, CodeCache, Evidence, KeyMap, MadeFrom, PhaseTimers, Region, RegionKey,
    ReuseCache, TierTimers,
};
use formation::FormationBackoff;
use guest_aarch64::dispatch::{self, Dispatch};
use guest_aarch64::sys::{Engine, GuestEvent, GuestSys};
use guest_aarch64::{Aarch64Isa, CURRENT_EL_OFF};
use hvm::{ExitReason, Gpr, Machine, MachineConfig, Ring};
use runtime::CaptiveRuntime;
use std::sync::Arc;
use std::time::Instant;
use tier::{FormationResult, TierService};
use translator::{generate, live_code_word, translate_block_from, MAX_BLOCK_INSNS};

/// How guest floating-point instructions are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FpMode {
    /// Map guest FP to host FP instructions with inline fix-ups (Captive's
    /// contribution).
    #[default]
    Hardware,
    /// Call softfloat helpers for every FP arithmetic instruction, scalar
    /// and `.2d` vector alike (the QEMU approach, used for the Section
    /// 3.6.2 ablation): the one soft-FP lowering both engines run,
    /// `guest_aarch64::gen::generate_soft_fp`.
    Software,
}

/// Chain-link transfer count at which the link's target becomes a region
/// trace head.  Tiered formation publishes its request at half of it
/// ([`formation`]).
pub const REGION_THRESHOLD: u64 = 16;

/// Hypervisor configuration: twelve settings, each set by a figure, the
/// benchmark or a test (`bench::CAPTIVE_CONFIGS` names the ablations).  The
/// formation threshold is no setting: it is [`REGION_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct CaptiveConfig {
    /// Guest RAM size in bytes.
    pub guest_ram: u64,
    /// Guest FP implementation strategy.
    pub fp_mode: FpMode,
    /// Enable direct block chaining (patched successor links let hot paths
    /// bypass the dispatcher entirely).
    pub chaining: bool,
    /// Enable profile-guided formation of multi-constituent regions over hot
    /// chain paths (requires `chaining`, which provides the link-heat
    /// profile).
    pub form_regions: bool,
    /// Enable the block-scoped LIR optimiser (`dbt::opt`): store-to-load
    /// forwarding through register-file slots, copy propagation, and dead
    /// regfile-store elimination, with the allocator's iterative DCE
    /// sweeping the value chains feeding eliminated stores.
    pub opt: bool,
    /// Enable the guest-idiom rewrite layer (`dbt::idiom`, requires `opt`):
    /// NZCV-free compare+branch fusion and address-mode folding, each
    /// built-in rule rewriting wherever it matches
    /// ([`dbt::RuleTable::builtin`]).  The setting joins the reuse key, so
    /// engines with the layer on and off never share templates.
    pub idioms: bool,
    /// Copies of a hot loop body stitched into one region before its
    /// back-edge closes (2–4 amortises the loop-back overhead; 0 or 1
    /// disables peeling).  The closed loop iterates entirely in translated
    /// code — zero chain transfers and zero dispatcher entries per trip,
    /// side-exit stubs with precise PC on every cold leg and on loop exit.
    pub unroll_loops: usize,
    /// Loop-carried register promotion (requires `opt`): in a looping
    /// region the hottest register-file slots live in host registers across
    /// the back-edge, invariant loads are hoisted to the unit entry, and
    /// every exit path reconciles the promoted slots — in-code compensation
    /// stores before each dispatcher return, and fault-time materialisation
    /// from [`dbt::Region::promoted`] — so the guest always observes a
    /// precise register file.
    pub promote: bool,
    /// Code-cache capacity in resident regions (`None` = unbounded).  When
    /// the bound is hit the cache evicts clock-style; a churn-heavy guest
    /// degrades to re-translation, never to unbounded growth.
    pub cache_capacity_regions: Option<usize>,
    /// Who forms regions.  `Some(n)` is two-tier translation: formation runs
    /// on at most `n` workers at once, against immutable snapshots, while
    /// the run thread keeps executing tier-0 code, with generation/epoch/
    /// SMC-gated installs.  The workers are the process's one tier-worker
    /// pool ([`tier`], *The worker pool*), shared with every other engine
    /// and grown to the largest `n` asked for; an engine starts and joins
    /// no thread of its own.  `Some(0)` is *pump mode* — requests queue and
    /// are processed inline at the drain point (identical outcomes, fully
    /// deterministic interleaving — used by the SMC-race tests).  `None`
    /// forms every region synchronously on the run thread: the
    /// single-threaded behaviour, kept as the comparable baseline (`sync` in
    /// `bench::CAPTIVE_CONFIGS`).
    pub tier_workers: Option<usize>,
    /// Content-keyed translation-reuse store shared with other engine
    /// instances (the N-guests-one-image story): templates only — formed
    /// regions and patched-page blocks, each with the evidence it was made
    /// from — never a record of a formation that failed.  `None` gives this
    /// instance a private store.  Only consulted when `tier_workers` is
    /// `Some` *and* `form_regions` is on: with regions off there is no tier
    /// service and no store, so `chain-only` revives no patched-page
    /// blocks.
    pub reuse_cache: Option<Arc<ReuseCache>>,
    /// Attach a virtio-blk DMA device ([`hvm::virtio`]) with this
    /// configuration.  `None` (the default) runs with no device and zero
    /// dispatcher overhead.
    pub virtio: Option<hvm::VirtioBlkConfig>,
}

impl Default for CaptiveConfig {
    fn default() -> Self {
        CaptiveConfig {
            guest_ram: 32 * 1024 * 1024,
            fp_mode: FpMode::Hardware,
            chaining: true,
            form_regions: true,
            opt: true,
            idioms: true,
            unroll_loops: 4,
            promote: true,
            cache_capacity_regions: None,
            tier_workers: Some(2),
            reuse_cache: None,
            virtio: None,
        }
    }
}

pub use guest_aarch64::sys::{RunExit, RunStats};

/// The hypervisor.
pub struct Captive {
    /// The simulated host virtual machine.
    pub machine: Machine,
    /// Runtime services (helpers, fault handling, devices).
    pub runtime: CaptiveRuntime,
    /// Translated-code cache (guest-physical indexed).
    pub cache: CodeCache,
    /// JIT phase timers.
    pub timers: PhaseTimers,
    isa: Aarch64Isa,
    config: CaptiveConfig,
    stats: RunStats,
    /// Context generation the cache was last swept under; stale
    /// multi-constituent regions are evicted the first time the dispatcher
    /// runs after a generation bump.
    swept_region_gen: u64,
    /// Region-formation backoff state per trace head: a failed formation
    /// doubles the link heat required before the next attempt instead of
    /// retrying on every hot transfer, and repeated failures quarantine the
    /// head permanently.  Probed on every chained transfer.
    quarantine: KeyMap<FormationBackoff>,
    /// The tier-1 formation service (`None` when `tier_workers` is `None`
    /// or regions are disabled entirely).
    tier: Option<TierService>,
    /// Trace heads with a formation request in flight, mapped to the
    /// sequence number of the live request; results carrying any other
    /// sequence are superseded and dropped.
    inflight: KeyMap<u64>,
    /// Results drained from the service while waiting for a *different*
    /// key, parked until their own key reaches the install point.
    parked_results: KeyMap<FormationResult>,
    /// Next formation-request sequence number.
    next_seq: u64,
    /// Content-keyed translation reuse (tiered mode only): shared across
    /// instances when the config supplies one, private otherwise.
    reuse: Option<Arc<ReuseCache>>,
    /// Tier-level wall-clock accounting (run-thread stall vs worker time).
    tier_timers: TierTimers,
    /// The codegen knobs every translation is made under, fixed at `new`
    /// and shared by `Arc` with the tier workers.
    knobs: Arc<spec::Knobs>,
    /// Run-thread speculation counters.
    spec_stats: spec::SpecStats,
    /// Construction time, the zero point for time-to-first-region-install.
    launch: Instant,
}

impl Captive {
    /// Creates a hypervisor with a fresh host VM and boots the "unikernel":
    /// host page tables for the Captive area are built and paging is enabled.
    pub fn new(config: CaptiveConfig) -> Self {
        let mut machine = Machine::new(MachineConfig::default());
        let mut runtime = CaptiveRuntime::new(&mut machine, config.guest_ram);
        if let Some(vcfg) = &config.virtio {
            runtime.sys.attach_virtio(&mut machine, vcfg.clone());
        }
        // The register-file base pointer lives in %rbp for the whole run.
        machine.set_reg(Gpr::Rbp, layout::REGFILE_VA);
        let cache = CodeCache::new(CacheIndex::GuestPhysical);
        cache.set_capacity(config.cache_capacity_regions);
        let tier = config
            .tier_workers
            .filter(|_| config.form_regions)
            .map(TierService::new);
        let reuse = tier.is_some().then(|| {
            config
                .reuse_cache
                .clone()
                .unwrap_or_else(|| Arc::new(ReuseCache::new()))
        });
        let knobs = spec::Knobs::new(&config);
        Captive {
            machine,
            runtime,
            cache,
            timers: PhaseTimers::default(),
            isa: Aarch64Isa,
            knobs,
            spec_stats: spec::SpecStats::default(),
            config,
            stats: RunStats::default(),
            swept_region_gen: 0,
            quarantine: KeyMap::default(),
            tier,
            inflight: KeyMap::default(),
            parked_results: KeyMap::default(),
            next_seq: 0,
            reuse,
            tier_timers: TierTimers::default(),
            launch: Instant::now(),
        }
    }

    /// The tier-0 miss path: obtains the one-constituent translation of the
    /// block at `key` and installs it.  The guest needs this code *now*, so
    /// whatever the run thread spends getting it is what it visibly stalls
    /// on: on a patched page, the look in the reuse store ([`spec`]); the
    /// look in the speculative ready pool; and, when neither has anything
    /// valid, the synchronous translation (which on a patched page carries
    /// what it was made from).  Either way the region is the same bytes,
    /// installed at the same point.
    fn install_block(&mut self, key: RegionKey) -> Arc<Region> {
        self.stats.translations += 1;
        let t0 = Instant::now();
        let patched = self.reuse.is_some() && self.runtime.is_patched(key.phys & !0xFFF);
        let revived = patched.then(|| self.revived_block(key)).flatten();
        let region = match revived.or_else(|| self.speculated_block(key)) {
            Some(region) => region,
            None => {
                let machine = &self.machine;
                let fp_mode = self.knobs.fp_mode;
                let mut evidence = Evidence::default();
                let mut own = PhaseTimers::default();
                let mut region = translate_block_from(
                    &self.isa,
                    |d, e| generate(fp_mode, d, e),
                    |pa| live_code_word(machine, pa),
                    patched.then_some(&mut evidence),
                    &mut own,
                    key.virt,
                    key.phys,
                    MAX_BLOCK_INSNS,
                    &self.knobs,
                );
                self.timers.merge(&own);
                if patched {
                    region.made_from = Some(Box::new(MadeFrom {
                        key: self.reuse_key_for(key, false),
                        evidence,
                        counters: own.jit,
                    }));
                }
                region
            }
        };
        self.tier_timers.run_thread_stall += t0.elapsed();
        self.runtime
            .note_code_page(&mut self.machine, key.phys & !0xFFF);
        let block = self.cache.insert(region);
        self.speculate_beyond(&block);
        block
    }
}

impl Engine for Captive {
    fn parts(&self) -> (&GuestSys, &Machine) {
        (&self.runtime.sys, &self.machine)
    }
    fn parts_mut(&mut self) -> (&mut GuestSys, &mut Machine) {
        (&mut self.runtime.sys, &mut self.machine)
    }
    fn run(&mut self, max_blocks: u64) -> RunExit {
        dispatch::run(self, max_blocks)
    }
    /// Statistics of the run so far: the counters the run loop keeps, plus
    /// one sample each of the machine, the TLBs, the cache, the timers and
    /// the guest-system core.
    fn stats(&self) -> RunStats {
        let mut s = self.stats;
        self.runtime.sample(&mut s);
        let perf = &self.machine.perf;
        s.cycles = perf.cycles;
        s.host_insns = perf.insns;
        s.region_transfers = perf.region_transfers;
        s.backedge_transfers = perf.backedge_transfers;
        s.itlb_hits = self.runtime.fetch_tlb.hits;
        s.itlb_misses = self.runtime.fetch_tlb.misses;
        s.dtlb_hits = self.runtime.data_tlb.hits;
        s.dtlb_misses = self.runtime.data_tlb.misses;
        s.itlb_revalidated = self.runtime.fetch_tlb.revalidated;
        s.gtlb_revalidated = self.runtime.data_tlb.revalidated;
        s.table_pages_dirtied = self.runtime.table_watch.table_pages_dirtied;
        s.code_bytes = self.cache.total_encoded_bytes() as u64;
        let cs = self.cache.stats();
        s.regions_evicted = cs.evicted_stale_regions;
        s.capacity_evictions = cs.capacity_evictions;
        s.bytes_live = cs.bytes_live;
        s.regions_live = cs.regions_live;
        s.sample_jit(&self.timers);
        s.jit_wall_ns = self.tier_timers.run_thread_stall.as_nanos() as u64;
        s.tier_worker_wall_ns = self.tier_timers.worker_wall.as_nanos() as u64;
        s.first_region_install_ns = self
            .tier_timers
            .first_install
            .map_or(0, |d| d.as_nanos() as u64);
        s
    }
    fn note_host_write(&mut self, guest_phys: u64, len: u64) {
        self.runtime.note_host_write(guest_phys, len);
    }
}

/// Captive's side of each axis: host paging (the fetch iTLB), a physically
/// indexed cache dropped page by page, and links under the context
/// generation.
impl Dispatch for Captive {
    fn settle(&mut self) -> bool {
        self.runtime.poll_virtio(&mut self.machine);
        self.invalidate_dirty_pages();
        false
    }

    fn resolve(&mut self, pc: u64) -> Result<u64, GuestEvent> {
        self.runtime.fetch_va_to_pa(&mut self.machine, pc)
    }

    fn lookup(&mut self, key: RegionKey) -> Arc<Region> {
        let gen = self.runtime.context_generation();
        // First dispatch after a context-generation bump: sweep the cache,
        // evicting every stale-generation multi-constituent region (they can
        // never be dispatched again and would otherwise linger until
        // replaced — unbounded on TLBI-heavy guests).
        if self.config.form_regions && gen != self.swept_region_gen {
            self.cache.evict_stale_regions(gen);
            self.swept_region_gen = gen;
        }
        let block = self
            .cache
            .get(key, gen)
            .unwrap_or_else(|| self.install_block(key));
        // Track the guest's exception level in the host protection ring
        // (guest user code runs in ring 3, guest system code in ring 0).  The
        // ring stays cached across chained transfers: only blocks with
        // opaque exits (exceptions, ERET, sysreg writes) can change the EL,
        // and those always return to the slow path.
        let el = self.runtime.read_gregfile(&self.machine, CURRENT_EL_OFF);
        self.machine.ring = if el == 0 { Ring::Ring3 } else { Ring::Ring0 };
        block
    }

    fn after_block(&mut self) {
        // Drop translations of code pages the guest wrote (bumps the cache
        // epoch, so stale chain links die with them).
        self.invalidate_dirty_pages();
    }

    fn link_stamp(&self) -> (u64, u64) {
        (self.runtime.context_generation(), self.cache.epoch())
    }

    fn may_chain(&self, _: &Region) -> bool {
        self.config.chaining
    }

    fn chained(&mut self, from: &Arc<Region>, slot: usize, next: Arc<Region>) -> Arc<Region> {
        // With region formation a direct transfer also feeds the link-heat
        // profile and may widen the target into a multi-constituent region;
        // a predicted one is no path the former could stitch.
        if self.config.form_regions && from.exit != BlockExit::Indirect {
            self.maybe_form_region(from, slot, next)
        } else {
            next
        }
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

guest_aarch64::inherent_facade!(Captive);

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::asm;

    fn boot(words: &[u32]) -> (Captive, RunExit) {
        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, words);
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        (c, exit)
    }

    #[test]
    fn runs_a_simple_arithmetic_program() {
        // x0 = 40 + 2, then exit with code x0 via the exit hypercall.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 40, 0));
        a.push(asm::addi(0, 0, 2));
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), 42);
    }

    #[test]
    fn loops_and_flags_work() {
        // Sum 1..=100 into x0.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 100, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), 5050);
    }

    #[test]
    fn memory_access_with_mmu_off_maps_on_demand() {
        // Store then load back through guest "physical" addresses.
        let mut a = asm::Assembler::new();
        a.mov_imm64(1, 0x10000);
        a.mov_imm64(2, 0xABCD);
        a.push(asm::str(2, 1, 8));
        a.push(asm::ldr(3, 1, 8));
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(3), 0xABCD);
        assert!(
            c.machine.perf.page_faults > 0,
            "demand mapping faulted once"
        );
    }

    #[test]
    fn floating_point_uses_host_fpu() {
        // d0 = 1.5; d1 = d0 * d0; x0 = bits(d1)
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0x78)); // 1.5
        a.push(asm::fmul(1, 0, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(f64::from_bits(c.guest_reg(0)), 2.25);
        assert!(
            c.machine.perf.helper_calls <= 1,
            "no FP helper calls (only the final halt hypercall)"
        );
    }

    #[test]
    fn fsqrt_fixup_is_bit_accurate_with_arm() {
        // sqrt(-0.5) must be the positive default NaN, not the host's -NaN.
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0xE0)); // -0.5
        a.push(asm::fsqrt(1, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), softfloat::f64_sqrt_arm((-0.5f64).to_bits()));
    }

    #[test]
    fn svc_takes_an_exception_to_el1() {
        // Install a vector that moves 99 into x5 then halts; cause an SVC from
        // the main flow.
        let mut a = asm::Assembler::new();
        // Vector code is placed at 0x2000 (VBAR).
        a.mov_imm64(1, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 1));
        a.push(asm::svc(3));
        a.push(asm::hlt()); // not reached: the vector halts first
        let main = a.finish();
        let mut v = asm::Assembler::new();
        v.push(asm::movz(5, 99, 0));
        v.push(asm::mrs(6, guest_aarch64::SysReg::Esr as u32));
        v.push(asm::hlt());
        let vector = v.finish();
        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &vector);
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 99);
        let esr = c.guest_reg(6);
        assert_eq!(esr >> 26, guest_aarch64::esr_class::SVC, "ESR class is SVC");
        assert_eq!(esr & 0xFFFF, 3, "ESR carries the SVC immediate");
    }

    #[test]
    fn console_hypercall_collects_output() {
        let mut a = asm::Assembler::new();
        for ch in b"hi" {
            a.push(asm::movz(0, *ch as u32, 0));
            a.push(asm::svc(guest_aarch64::sys::SVC_PUTCHAR));
        }
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.console(), b"hi");
    }

    #[test]
    fn hot_loop_dispatches_through_chain_links() {
        // A tight countdown loop: after the first two trips (translate, then
        // patch), every iteration must flow through the chain link without
        // re-entering the dispatcher slow path.  Region formation is pinned
        // off — this test measures the chain machinery alone (with it on,
        // the self-loop unrolls and interpreter entries drop fourfold).
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 2000, 0));
        a.label("loop");
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let mut c = Captive::new(CaptiveConfig {
            form_regions: false,
            ..CaptiveConfig::default()
        });
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let stats = c.stats();
        assert!(
            stats.chained_transfers > 1900,
            "loop iterations must chain: {} chained of {} blocks",
            stats.chained_transfers,
            stats.blocks
        );
        assert!(
            stats.slow_dispatches < 20,
            "slow path must be cold: {} slow dispatches",
            stats.slow_dispatches
        );
        assert!(stats.chain_patches >= 1, "links are patched lazily");
        assert_eq!(
            stats.blocks,
            stats.chained_transfers + stats.slow_dispatches,
            "every executed block is either chained or dispatched"
        );
    }

    #[test]
    fn self_modifying_code_unlinks_stale_translations() {
        // The guest rewrites a subroutine between two calls; the second call
        // must execute the new code, never a stale translation reached
        // through a chain link.
        let patched_pair = asm::movz(5, 2, 0) as u64 | (asm::ret() as u64) << 32;
        let mut a = asm::Assembler::new();
        a.push(asm::movz(6, 2, 0));
        a.adr_to(3, "target");
        a.mov_imm64(4, patched_pair);
        a.label("loop");
        a.bl_to("target");
        a.push(asm::str(4, 3, 0));
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        a.label("target");
        a.push(asm::movz(5, 1, 0));
        a.push(asm::ret());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 2, "second call must observe the new code");
        assert!(
            c.cache.stats().invalidated_page >= 1,
            "the write-protected code page invalidated its translations"
        );
    }

    #[test]
    fn translation_state_writes_retire_chain_links() {
        // TTBR0 writes bump the context generation, so links patched in an
        // earlier context are never followed, and execution stays correct.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 50, 0));
        a.push(asm::movz(2, 0, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 2));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), (1..=50).sum::<u64>());
        assert!(
            c.runtime.context_generation() >= 50,
            "every TTBR0 write must bump the generation"
        );
        assert_eq!(
            c.stats().chained_transfers,
            0,
            "per-iteration generation bumps must keep links stale"
        );
    }

    #[test]
    fn tlbi_retires_chain_links_and_stays_correct() {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 20, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::tlbi());
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), (1..=20).sum::<u64>());
        assert!(c.runtime.context_generation() >= 20);
        assert_eq!(c.stats().chained_transfers, 0);
    }

    #[test]
    fn host_tables_rebuilt_after_a_tlbi_never_alias_guest_memory() {
        // A teardown hands every lower-half host table frame back to the
        // allocator, so nothing may still name one.  A PML4 entry that kept
        // its frame number made the next PDPT and the next page directory
        // one frame, whose slot 5 was both "the 10 MiB region's page table"
        // and "the leaf for guest page 5": the second store below then went
        // through a table pointer as if it were a mapping and landed in a
        // host page table instead of guest memory.
        const STORES: [(u64, u32); 4] = [
            (0x5000, 0x11), // so there is a subtree to tear down
            (0xA0_1000, 0x22),
            (0x5000, 0x33),
            (0xA0_2000, 0x44),
        ];
        let mut a = asm::Assembler::new();
        for (i, (addr, value)) in STORES.into_iter().enumerate() {
            a.mov_imm64(1, addr);
            a.push(asm::movz(2, value, 0));
            a.push(asm::str(2, 1, 0));
            if i == 0 {
                a.push(asm::tlbi());
            }
        }
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let word = |gpa: u64| {
            c.machine
                .mem
                .read_u64(layout::GUEST_PHYS_BASE + gpa)
                .unwrap()
        };
        for (addr, value) in &STORES[1..] {
            assert_eq!(word(*addr), *value as u64, "the store to {addr:#x}");
        }
    }

    #[test]
    fn exception_mid_chain_delivers_with_correct_elr() {
        // A chained store loop marches past the end of guest RAM; the data
        // abort must carry the exact faulting PC into ELR even though it was
        // raised in a block entered through a chain link.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(1, 0x1C0_0000); // 28 MiB, 4 strides below the 32 MiB limit
        a.mov_imm64(2, 0xDEAD);
        a.mov_imm64(3, 0x10_0000); // 1 MiB stride
        a.label("loop");
        let fault_idx = a.here();
        a.push(asm::str(2, 1, 0));
        a.push(asm::add(1, 1, 3));
        a.b_to("loop");
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting PC");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the first OOB address");
        assert!(
            c.stats().chained_transfers >= 1,
            "the fault happened while chain-looping"
        );
    }

    fn region_config() -> CaptiveConfig {
        CaptiveConfig {
            form_regions: true,
            ..CaptiveConfig::default()
        }
    }

    /// A multi-block same-page loop (two unconditional jumps plus the
    /// counted conditional), hot enough to cross the formation threshold.
    fn multi_block_loop(iters: u32) -> Vec<u32> {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, iters, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.b_to("a");
        a.label("a");
        a.b_to("b");
        a.label("b");
        a.push(asm::add(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        a.finish()
    }

    #[test]
    fn regions_fuse_hot_chain_paths() {
        let words = multi_block_loop(3000);
        let run = |form_regions: bool| {
            let mut c = Captive::new(CaptiveConfig {
                form_regions,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let on = run(true);
        let off = run(false);
        for r in 0..31 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert!(son.regions_formed >= 1, "hot loop must form a superblock");
        assert!(
            son.region_transfers > 2_000,
            "stitched transfers absorb the loop: {}",
            son.region_transfers
        );
        assert!(
            son.blocks < soff.blocks / 2,
            "superblocks must cut interpreter entries: {} vs {}",
            son.blocks,
            soff.blocks
        );
        assert!(
            son.cycles <= soff.cycles,
            "superblocks must not cost cycles over chaining: {} vs {}",
            son.cycles,
            soff.cycles
        );
        // Each guest block the chained run enters through the run loop is,
        // with regions, entered through the run loop, crossed into inside a
        // region (the machine counts each `TraceEdge`) or re-entered by a
        // loop trip (each `BackEdge` taken): the run loop's count on one
        // side, the machine's on the other.
        assert_eq!(
            son.blocks + son.region_transfers + son.backedge_transfers,
            soff.blocks,
            "run-loop entries plus in-region transfers are the guest blocks executed"
        );
    }

    #[test]
    fn region_side_exit_leaves_with_exact_state() {
        // The loop's conditional is stitched into the superblock with its
        // exit leg (the CBZ taken to "done") as a side-exit stub; when the
        // counter reaches zero the side exit must deliver execution to the
        // exit path with the accumulator architecturally exact.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 500, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbz_to(1, "done");
        a.b_to("loop");
        a.label("done");
        a.push(asm::hlt());
        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 500, "side exit preserved the accumulator");
        assert_eq!(c.guest_reg(1), 0);
        let s = c.stats();
        assert!(s.regions_formed >= 1);
        assert!(s.region_transfers > 400, "the backward jump was stitched");
    }

    #[test]
    fn smc_on_interior_region_page_invalidates_it() {
        // A hot call loop whose callee lives on the next page: the formed
        // superblock spans both pages with the callee page interior.  A
        // guest write to the callee must kill the superblock so the second
        // call phase executes the new code.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 100, 0));
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        main.cbnz_to(6, "loop");
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.push(asm::strw(4, 3, 0)); // self-modifying write to the callee
        let bl2_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl2_idx as i64 * 4)));
        main.push(asm::hlt());
        let mut sub = asm::Assembler::new();
        sub.push(asm::movz(5, 1, 0));
        sub.push(asm::ret());

        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &main.finish());
        c.load_program(0x2000, &sub.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the call loop must get hot");
        assert!(
            s.region_transfers > 50,
            "calls flow through the stitched BL"
        );
        assert_eq!(
            c.guest_reg(5),
            2,
            "the post-SMC call must run the rewritten callee"
        );
        assert_eq!(
            c.cache.multi_region_count(),
            0,
            "writing an interior page must discard the superblock"
        );
        assert!(c.cache.stats().invalidated_page >= 1);
    }

    #[test]
    fn region_indirect_exit_chains_through_its_predicted_link() {
        // The superblock covering [bl → callee..ret] ends at the RET
        // (indirect): its predicted link carries every later exit back to
        // the return site — and every interpreter entry is still either
        // chained or dispatched.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(6, 200, 0));
        a.label("loop");
        a.bl_to("sub");
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        a.label("sub");
        a.push(asm::movz(5, 1, 0));
        a.push(asm::ret());
        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 1);
        assert_eq!(c.guest_reg(6), 0);
        let s = c.stats();
        assert!(s.regions_formed >= 1);
        assert!(
            s.region_entries > 100,
            "the superblock is re-entered every iteration: {}",
            s.region_entries
        );
        assert!(
            s.predicted_transfers > 100,
            "the RET's link is followed every iteration: {}",
            s.predicted_transfers
        );
        assert_eq!(
            s.blocks,
            s.chained_transfers + s.slow_dispatches,
            "every entry is chained or dispatched, superblocks included"
        );
    }

    /// `blr` to a leaf that `ret`s to a `br` back to the `blr`: every
    /// transfer of the ring is register-indirect and always goes where it
    /// went first.
    fn indirect_ring() -> Vec<u32> {
        let mut a = asm::Assembler::new();
        a.adr_to(2, "leaf");
        a.adr_to(4, "call");
        a.label("call");
        a.push(asm::blr(2));
        a.push(asm::br(4));
        a.label("leaf");
        a.push(asm::addi(19, 19, 1));
        a.push(asm::ret());
        a.finish()
    }

    #[test]
    fn predicted_transfers_feed_no_link_heat_and_request_no_formation() {
        // Regions and the tier service are on, and the ring runs far past
        // the formation threshold: a predicted transfer is no path the former
        // could stitch, so none may heat a link or publish a request.
        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &indirect_ring());
        c.set_entry(0x1000);
        assert_eq!(c.run(3_000), RunExit::BudgetExhausted);
        let s = c.stats();
        assert!(
            s.predicted_transfers > 2_900,
            "the ring runs on its predicted links: {}",
            s.predicted_transfers
        );
        assert_eq!(s.chained_transfers, s.predicted_transfers);
        assert_eq!((s.tier1_requests, s.regions_formed), (0, 0));
        for pc in [0x1008, 0x100C, 0x1010] {
            let block = c.cache.peek(RegionKey { phys: pc, virt: pc });
            assert_eq!(block.expect("translated").link_heat(0), 0, "{pc:#x}");
        }
    }

    #[test]
    fn an_msr_that_returns_to_translated_code_never_links() {
        // `msr vbar` ends its block through a `Continue` helper, so its next
        // PC is fixed; a system-register write is still an opaque exit, and
        // every trip re-enters through the slow path while the loop's own
        // direct branch chains.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 500, 0));
        a.push(asm::movz(9, 0x2000, 0));
        a.label("loop");
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let mut c = Captive::new(CaptiveConfig {
            form_regions: false,
            ..CaptiveConfig::default()
        });
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        assert!(
            s.slow_dispatches >= 500,
            "one per trip: {}",
            s.slow_dispatches
        );
        assert!(
            s.chained_transfers >= 498,
            "the cbnz chains: {}",
            s.chained_transfers
        );
        assert_eq!(s.predicted_transfers, 0);
    }

    #[test]
    fn region_fault_mid_trace_delivers_exact_elr() {
        // A striding store loop split into two blocks so a superblock forms;
        // the eventual out-of-bounds store faults *inside* the superblock
        // and must still deliver the exact faulting PC into ELR.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(1, 0x100_0000); // 16 MiB
        a.mov_imm64(2, 0xDEAD);
        a.mov_imm64(3, 0x1_0000); // 64 KiB stride → 256 iterations to 32 MiB
        a.label("loop");
        let fault_idx = a.here();
        a.push(asm::str(2, 1, 0));
        a.push(asm::add(1, 1, 3));
        a.b_to("m");
        a.label("m");
        a.b_to("loop");
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting PC");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the first OOB address");
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the loop got hot before faulting");
        assert!(s.region_transfers > 100);
    }

    #[test]
    fn a_formed_loop_region_absorbs_the_hot_loop() {
        let words = multi_block_loop(1000);
        let mut c = Captive::new(CaptiveConfig {
            form_regions: true,
            ..CaptiveConfig::default()
        });
        c.load_program(0x1000, &words);
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        assert_eq!(
            s.blocks,
            s.chained_transfers + s.slow_dispatches,
            "every block is entered through a link or the slow path"
        );
        assert!(
            s.region_entries >= 1,
            "the formed region is entered: {}",
            s.region_entries
        );
        assert!(
            s.blocks < 100,
            "the looping region absorbs the hot loop into a handful of \
             interpreter entries: {}",
            s.blocks
        );
        assert!(s.chained_transfers > 0, "the loop chained before formation");
    }

    #[test]
    fn data_gtlb_caches_guest_walks_across_repeated_faults() {
        // MMU-on guest: a store loop hammers a read-only page, taking a data
        // abort per iteration whose handler skips the store.  Every host
        // fault needs the guest walk result; only the first may actually
        // walk — the rest must hit the data-side gTLB (no TLBI intervenes).
        use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
        // The code and vector pages identity-mapped, the target page
        // read-only.
        let mut tables = GuestTableImage::new(0x10_0000, 0x18_0000);
        tables.identity(0x1000, 0x2000, GuestPageFlags::kernel_rw());
        tables.map(0x40_0000, 0x5000, GuestPageFlags::user_ro());
        let mut c = Captive::new(CaptiveConfig::default());
        for (a, v) in tables.words() {
            c.write_guest_phys(a, v, 8);
        }
        let root = tables.root();

        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(0, root);
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
        a.push(asm::movz(0, 1, 0));
        a.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0)); // MMU on
        a.mov_imm64(1, 0x40_0000);
        a.push(asm::movz(6, 50, 0));
        a.label("loop");
        a.push(asm::str(2, 1, 0)); // write to the RO page: data abort
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::addi(10, 10, 4));
        v.push(asm::msr(guest_aarch64::SysReg::Elr as u32, 10));
        v.push(asm::eret());

        c.load_program(0x1000, &a.finish());
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(6), 0, "all 50 aborts were handled");
        let s = c.stats();
        assert_eq!(s.guest_exceptions, 50);
        assert!(
            s.dtlb_hits >= 49,
            "repeated faults on the same VA must hit the gTLB: {} hits / {} misses",
            s.dtlb_hits,
            s.dtlb_misses
        );
        assert!(
            s.dtlb_misses <= 4,
            "only first-touch faults may walk: {} misses",
            s.dtlb_misses
        );
    }

    #[test]
    fn context_generation_bump_sweeps_stale_regions() {
        // A hot multi-block loop forms a superblock; the TLBI afterwards
        // bumps the context generation, and the next slow dispatch must
        // evict the now-unreachable stale-generation superblock instead of
        // letting it linger until replaced.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 3000, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.b_to("a");
        a.label("a");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::tlbi());
        a.push(asm::movz(5, 7, 0));
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 3000);
        assert_eq!(c.guest_reg(5), 7);
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the loop must get hot");
        assert_eq!(
            c.cache.multi_region_count(),
            0,
            "the generation bump must sweep the stale superblock"
        );
        assert!(s.regions_evicted >= 1, "the sweep is recorded in the stats");
    }

    #[test]
    fn optimizer_reports_eliminated_work_and_saves_cycles() {
        // Back-to-back flag setters: the first NZCV store is dead, the
        // loads of x9/x1 forward, and the run must be architecturally
        // identical but cheaper than with the optimizer off.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 1000, 0));
        a.push(asm::movz(9, 0, 0));
        a.push(asm::movz(2, 1, 0));
        a.label("loop");
        a.push(asm::adds(9, 9, 2)); // NZCV overwritten unread
        a.push(asm::subis(1, 1, 1)); // NZCV read by the branch
        a.bcond_to(guest_aarch64::isa::Cond::Ne, "loop");
        a.push(asm::hlt());
        let words = a.finish();
        let run = |opt: bool| {
            let mut c = Captive::new(CaptiveConfig {
                opt,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let on = run(true);
        let off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert!(son.jit.opt_dead_stores >= 1, "the adds NZCV store is dead");
        assert!(son.jit.opt_forwarded_loads >= 1, "regfile loads forward");
        assert!(
            soff.host_insns - son.host_insns >= 1000,
            "every loop trip executes fewer host instructions: {} vs {}",
            son.host_insns,
            soff.host_insns
        );
        assert_eq!(soff.jit.opt_dead_stores, 0);
        assert_eq!(soff.jit.opt_forwarded_loads, 0);
        assert!(
            son.cycles < soff.cycles,
            "the optimizer must save modeled cycles ({} vs {})",
            son.cycles,
            soff.cycles
        );
    }

    #[test]
    fn faulting_load_with_dead_destination_still_delivers_the_abort() {
        // The optimiser's dead-store elimination leaves the guest-memory
        // load below with an unread destination (x1 is immediately
        // overwritten); the load must nevertheless execute and deliver its
        // data abort — the fault is architectural state the guest is owed.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(2, 0x200_0000); // beyond the 32 MiB of guest RAM
        let fault_idx = a.here();
        a.push(asm::ldr(1, 2, 0)); // faulting load, value never read
        a.push(asm::movz(1, 5, 0)); // overwrites x1: the load's value is dead
        a.push(asm::hlt());
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.stats().guest_exceptions, 1, "the abort was delivered");
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting load");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the bad address");
        assert_ne!(c.guest_reg(1), 5, "the vector halted before the movz");
    }

    #[test]
    fn self_loop_becomes_a_looping_region_and_saves_cycles() {
        // The pointer-chase shape: a single-block self-loop.  With region
        // formation the body is peeled fourfold AND the final copy's
        // loop-back closes as a region-internal back-edge, so the whole
        // countdown runs inside one region entry; with chaining alone every
        // iteration re-enters through a chain link.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 4000, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("chase");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "chase");
        a.push(asm::hlt());
        let words = a.finish();
        let run = |form_regions: bool| {
            let mut c = Captive::new(CaptiveConfig {
                form_regions,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let on = run(true);
        let off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        assert_eq!(on.guest_reg(9), 4000);
        let son = on.stats();
        let soff = off.stats();
        assert_eq!(soff.regions_formed, 0, "chaining alone forms nothing");
        assert!(
            son.regions_unrolled >= 1 && son.loop_regions_formed >= 1,
            "the self-loop must form an unrolled looping region"
        );
        assert!(
            son.backedge_transfers > 900,
            "trips stay inside the region: {}",
            son.backedge_transfers
        );
        assert!(
            son.region_transfers > 2_000,
            "peeled iterations cross trace edges, not chain links: {}",
            son.region_transfers
        );
        assert!(
            son.blocks < soff.blocks / 10,
            "the looping region absorbs nearly every interpreter entry: {} vs {}",
            son.blocks,
            soff.blocks
        );
        assert!(
            son.cycles < soff.cycles,
            "looping regions must run strictly fewer modeled cycles: {} vs {}",
            son.cycles,
            soff.cycles
        );
        assert_eq!(
            son.blocks,
            son.chained_transfers + son.slow_dispatches,
            "every entry is still chained or dispatched"
        );
        assert!(
            son.guest_insns >= soff.guest_insns && son.guest_insns - soff.guest_insns < 100,
            "per-trip attribution keeps guest-instruction counts within one \
             region entry of exact: {} vs {}",
            son.guest_insns,
            soff.guest_insns
        );
    }

    #[test]
    fn virtual_aliases_of_a_hot_entry_each_get_a_live_region() {
        // Two virtual pages map the same physical page holding a hot
        // self-loop kernel; both entries must end up with their own live
        // unrolled region (the old per-physical superblock slot made the
        // aliases evict each other).
        use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
        let mut tables = GuestTableImage::new(0x10_0000, 0x18_0000);
        for (va, pa) in [
            (0x1000, 0x1000), // main code, identity
            (0x3000, 0x3000), // kernel, identity
            (0x8000, 0x3000), // kernel alias
        ] {
            tables.map(va, pa, GuestPageFlags::kernel_rw());
        }
        let mut c = Captive::new(CaptiveConfig::default());
        for (a, v) in tables.words() {
            c.write_guest_phys(a, v, 8);
        }

        // Kernel at PA 0x3000: a single-block self-loop, then return.
        let mut k = asm::Assembler::new();
        k.label("chase");
        k.push(asm::addi(9, 9, 1));
        k.push(asm::subi(5, 5, 1));
        k.cbnz_to(5, "chase");
        k.push(asm::ret());

        let mut a = asm::Assembler::new();
        a.mov_imm64(0, tables.root());
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
        a.push(asm::movz(0, 1, 0));
        a.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0)); // MMU on
        a.push(asm::movz(9, 0, 0));
        a.push(asm::movz(5, 200, 0));
        let bl1 = a.here();
        a.push(asm::bl(0x3000 - (0x1000 + bl1 as i64 * 4)));
        a.push(asm::movz(5, 200, 0));
        let bl2 = a.here();
        a.push(asm::bl(0x8000 - (0x1000 + bl2 as i64 * 4)));
        a.push(asm::hlt());

        c.load_program(0x1000, &a.finish());
        c.load_program(0x3000, &k.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 400, "both alias phases ran the kernel");
        let s = c.stats();
        assert!(
            s.regions_unrolled >= 2,
            "each alias must unroll its own region: {}",
            s.regions_unrolled
        );
        assert_eq!(
            c.cache.multi_region_count(),
            2,
            "both aliases hold a live region — no slot contention"
        );
    }

    #[test]
    fn translations_are_cached_and_reused() {
        let (c, exit) = boot(&{
            let mut a = asm::Assembler::new();
            a.push(asm::movz(1, 1000, 0));
            a.label("loop");
            a.push(asm::subi(1, 1, 1));
            a.cbnz_to(1, "loop");
            a.push(asm::hlt());
            a.finish()
        });
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let stats = c.stats();
        assert!(stats.translations <= 4, "loop body translated once");
        assert!(
            stats.guest_insns > 1900,
            "loop body re-executed from the cache (the unrolled region packs \
             several iterations per entry): {} guest insns over {} entries",
            stats.guest_insns,
            stats.blocks
        );
    }

    #[test]
    fn tiered_and_sync_modes_are_architecturally_identical() {
        // The tiered service must be invisible to the guest: same registers,
        // same modeled cycles, same regions formed — the only difference is
        // *who* formed them.  The one tier field has three values: threaded
        // (the default, so the real worker path is exercised), pump mode and
        // formation on the run thread.
        let words = multi_block_loop(3000);
        let run = |tier_workers: Option<usize>| {
            let mut c = Captive::new(CaptiveConfig {
                tier_workers,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            (
                c.tier.as_ref().map(|t| t.is_pump()),
                c.guest_reg(9),
                c.stats(),
            )
        };
        assert_eq!(CaptiveConfig::default().tier_workers, Some(2));
        let (sync_mode, x9_sync, sync) = run(None);
        assert_eq!(sync_mode, None, "no service at all");
        assert_eq!(x9_sync, 4_501_500, "sum of the 3000-step countdown");
        assert_eq!(sync.tier1_requests, 0, "sync mode never publishes");
        assert_eq!(sync.regions_installed_async, 0);
        for (workers, pump) in [(2, false), (0, true)] {
            let (mode, x9_tiered, tiered) = run(Some(workers));
            assert_eq!(mode, Some(pump), "{workers} workers");
            assert_eq!(x9_tiered, x9_sync);
            assert_eq!(tiered.cycles, sync.cycles, "modeled cost is mode-blind");
            assert_eq!(tiered.regions_formed, sync.regions_formed);
            assert_eq!(tiered.guest_insns, sync.guest_insns);
            assert!(tiered.tier1_requests >= 1, "the hot head was published");
            assert!(
                tiered.regions_installed_async >= 1,
                "at least one region came through the service"
            );
            assert_eq!(tiered.stale_discards, 0, "nothing changed under it");
        }
    }

    #[test]
    fn engines_alive_at_once_share_the_pool_and_end_like_sync() {
        // Six default engines on three threads, all alive at once, are
        // served by one pool of as many threads as the largest
        // `tier_workers` asked for — two: no engine in this crate asks for
        // more — and each ends exactly like the run-thread-only engine, in
        // every register and every architectural counter.
        let words = multi_block_loop(3000);
        let outcome = |c: &mut Captive| {
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            let regs: Vec<u64> = (0..31).map(|r| c.guest_reg(r)).collect();
            (regs, c.guest_nzcv(), c.stats())
        };
        let (sync_regs, sync_nzcv, sync) = outcome(&mut Captive::new(CaptiveConfig {
            tier_workers: None,
            ..CaptiveConfig::default()
        }));
        let alive = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut engines = [(); 2].map(|_| Captive::new(CaptiveConfig::default()));
                    alive.wait();
                    assert_eq!(tier::pool_threads(), 2, "six engines, two threads");
                    for c in &mut engines {
                        let (regs, nzcv, stats) = outcome(c);
                        assert_eq!((regs, nzcv), (sync_regs.clone(), sync_nzcv));
                        assert_eq!(stats.differs_across_engines(&sync), None);
                        assert!(stats.regions_installed_async >= 1, "the pool formed");
                    }
                    alive.wait();
                });
            }
        });
    }

    #[test]
    fn smc_between_snapshot_and_install_discards_stale_region() {
        // A two-page call loop rewrites its callee *after* the formation
        // request is published (link heat 8) but *before* the install point
        // (heat 16).  The worker's region was formed from the stale
        // snapshot: the install gate must discard it — never install it —
        // and `form_now` re-forms from a snapshot of the rewritten code.
        // Pump mode keeps the interleaving deterministic.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 60, 0));
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::add(8, 8, 5));
        main.push(asm::subi(6, 6, 1));
        // One-shot self-modifying write when the countdown hits 47 —
        // between the publish and install heats of the loop head.
        main.push(asm::subi(7, 6, 47));
        main.cbnz_to(7, "skip");
        main.push(asm::strw(4, 3, 0));
        main.label("skip");
        main.cbnz_to(6, "loop");
        let bl2_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl2_idx as i64 * 4)));
        main.push(asm::hlt());
        let mut sub = asm::Assembler::new();
        sub.push(asm::movz(5, 1, 0));
        sub.push(asm::ret());

        let mut c = Captive::new(CaptiveConfig {
            tier_workers: Some(0),
            ..region_config()
        });
        c.load_program(0x1000, &main.finish());
        c.load_program(0x2000, &sub.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        // x8 sums what every call in the loop returned: the first 13 trips
        // (the 13th writes the callee after its call) ran the old callee,
        // the other 47 must run the rewritten one.
        assert_eq!(c.guest_reg(8), 13 + 47 * 2, "every post-SMC call");
        assert_eq!(c.guest_reg(5), 2, "and the call after the loop");
        assert!(s.tier1_requests >= 1, "the loop head was published");
        assert!(
            s.stale_discards >= 1,
            "the stale worker region was discarded at the install gate"
        );
        assert!(
            s.regions_formed >= 1,
            "form_now re-formed from the rewritten code"
        );
    }

    #[test]
    fn a_region_formed_now_walks_table_pages_refilled_from_live_memory() {
        // A loop straddling two virtual pages that the guest maps to
        // unrelated frames: its trace walks the guest tables at the page
        // crossing.  A fresh engine knows no code page, so its first
        // snapshot holds nothing — not the code, not the table pages — and
        // `form_now` must refill each from live memory before the region
        // forms.
        use crate::translator::FormOutcome;
        use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
        let mut tables = GuestTableImage::new(0x10_0000, 0x18_0000);
        tables.map(0x40_0000, 0x3000, GuestPageFlags::kernel_rw());
        tables.map(0x40_1000, 0x8000, GuestPageFlags::kernel_rw());
        let (addi, subi, cbnz) = (asm::addi(9, 9, 1), asm::subi(1, 1, 1), asm::cbnz(1, -8));
        let mut c = Captive::new(CaptiveConfig {
            tier_workers: None,
            ..region_config()
        });
        c.load_program(0x3FF8, &[addi, subi]);
        c.load_program(0x8000, &[cbnz, asm::hlt()]);
        for (a, v) in tables.words() {
            c.write_guest_phys(a, v, 8);
        }
        c.runtime
            .write_gregfile(&mut c.machine, guest_aarch64::TTBR0_OFF, tables.root());
        c.runtime
            .write_gregfile(&mut c.machine, guest_aarch64::SCTLR_OFF, 1);
        let outcome = c.form_now(RegionKey {
            phys: 0x3FF8,
            virt: 0x40_0FF8,
        });
        let FormOutcome::Formed { region, evidence } = outcome else {
            panic!("the loop must form: {outcome:?}");
        };
        assert_eq!(region.back_edges, 1, "the loop closes inside the region");
        assert_eq!(region.pages, [0x3000, 0x8000]);
        assert_eq!(
            evidence.translations,
            [(0x40_0000, 0x3000), (0x40_1000, 0x8000)],
            "the entry's page and the crossing, as the live tables map them"
        );
        assert_eq!(
            evidence.words,
            [(0x3FF8, addi), (0x3FFC, subi), (0x8000, cbnz)],
            "the loop's three words, read where the tables put them"
        );
    }

    #[test]
    fn snapshots_share_code_page_copies_until_the_page_is_written() {
        // A call loop whose callee page is rewritten by the guest halfway
        // through.  Snapshots taken while a page is unchanged share one copy
        // of it; the write drops the callee page's copy, so the next snapshot
        // re-reads it from live memory, while the untouched caller page keeps
        // sharing.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 40, 0));
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        main.push(asm::subi(7, 6, 20));
        main.cbnz_to(7, "skip");
        main.push(asm::strw(4, 3, 0));
        main.label("skip");
        main.cbnz_to(6, "loop");
        main.push(asm::hlt());
        let mut sub = asm::Assembler::new();
        sub.push(asm::movz(5, 1, 0));
        sub.push(asm::ret());

        let mut c = Captive::new(CaptiveConfig {
            tier_workers: Some(0),
            ..region_config()
        });
        c.load_program(0x1000, &main.finish());
        c.load_program(0x2000, &sub.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(24), RunExit::BudgetExhausted);
        assert_eq!(c.guest_reg(5), 1, "stopped before the rewrite");
        let live = |c: &Captive, page: u64| formation::read_live_page(&c.machine, page);

        let first = c.capture_snapshot();
        let second = c.capture_snapshot();
        for page in [0x1000u64, 0x2000] {
            assert!(
                Arc::ptr_eq(&first.pages[&page], &second.pages[&page]),
                "page {page:#x} is copied once while unchanged"
            );
            assert_eq!(&first.pages[&page][..], &live(&c, page)[..]);
        }

        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 2, "the rewritten callee ran");
        let after = c.capture_snapshot();
        assert!(
            !Arc::ptr_eq(&first.pages[&0x2000], &after.pages[&0x2000]),
            "the guest's write dropped the callee page's shared copy"
        );
        assert_eq!(&after.pages[&0x2000][..], &live(&c, 0x2000)[..]);
        assert_ne!(&after.pages[&0x2000][..], &first.pages[&0x2000][..]);
        assert!(
            Arc::ptr_eq(&first.pages[&0x1000], &after.pages[&0x1000]),
            "the untouched caller page still shares"
        );
    }

    #[test]
    fn content_keyed_reuse_skips_reformation_across_instances() {
        // Engine instances share a reuse cache and run the same kernel
        // image — a call loop whose callee is on the next page, so the hot
        // region has an interior page: the second instance must obtain it
        // by content instead of re-forming it, with identical guest results
        // and modeled cycles.
        use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
        let reuse = Arc::new(ReuseCache::new());
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 3000, 0));
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        main.cbnz_to(6, "loop");
        main.push(asm::hlt());
        let main = main.finish();
        let callee = |step: u32| [asm::addi(9, 9, step), asm::ret()];
        // Every instance holds the loop at 0x1000, its callee at 0x2000 and
        // a second callee, twice the step, at 0x5000.
        let instance = |idioms: bool| {
            let mut c = Captive::new(CaptiveConfig {
                tier_workers: Some(0),
                reuse_cache: Some(Arc::clone(&reuse)),
                idioms,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &main);
            c.load_program(0x2000, &callee(1));
            c.load_program(0x5000, &callee(2));
            c.set_entry(0x1000);
            c
        };
        let finish = |mut c: Captive| {
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            (c.guest_reg(9), c.stats())
        };
        let (x9_first, first) = finish(instance(true));
        let (x9_second, second) = finish(instance(true));
        assert_eq!(x9_first, 3000, "one step per call");
        assert_eq!(x9_first, x9_second);
        assert_eq!(first.reuse_hits, 0, "cold cache on the first run");
        assert!(first.reuse_misses >= 1);
        assert!(
            second.reuse_hits >= 1,
            "the second run must hit the shared template"
        );
        assert_eq!(first.cycles, second.cycles, "reuse is cost-invisible");
        assert_eq!(first.guest_insns, second.guest_insns);
        assert_eq!(
            first.regions_formed, second.regions_formed,
            "a reused install still counts as a formed region"
        );

        // A third instance holds the same bytes in the same frames — every
        // word of the published template's evidence matches — but turns its
        // MMU on with the callee's *virtual* page mapped to the other
        // callee.  The template's evidence does not hold there: it must
        // miss and re-form, not run the first two guests' callee.
        let mut tables = GuestTableImage::new(0x10_0000, 0x18_0000);
        tables.identity(0x1000, 0x1000, GuestPageFlags::kernel_rw());
        tables.identity(0x3000, 0x1000, GuestPageFlags::kernel_rw());
        tables.map(0x2000, 0x5000, GuestPageFlags::kernel_rw());
        let mut boot = asm::Assembler::new();
        boot.mov_imm64(0, tables.root());
        boot.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
        boot.push(asm::movz(0, 1, 0));
        boot.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0)); // MMU on
        let b_idx = boot.here();
        boot.push(asm::b(0x1000 - (0x3000 + b_idx as i64 * 4)));
        let mut c = instance(true);
        c.load_program(0x3000, &boot.finish());
        c.set_entry(0x3000);
        for (a, v) in tables.words() {
            c.write_guest_phys(a, v, 8);
        }
        let (x9_third, third) = finish(c);
        assert_eq!(x9_third, 6000, "the callee this guest mapped, two a call");
        assert_eq!(third.reuse_hits, 0, "evidence from another mapping");
        assert_eq!(third.regions_formed, first.regions_formed, "re-formed");

        // A fourth instance runs the first guest with the idiom layer off.
        // Its templates are other code, and the one knob is all that tells
        // its reuse key from the first two instances': it must miss and
        // re-form, then end where they did.
        let (x9_fourth, fourth) = finish(instance(false));
        assert_eq!(x9_fourth, x9_first);
        assert_eq!(fourth.reuse_hits, 0, "templates made with the idiom layer");
        assert!(fourth.reuse_misses >= 1);
        assert_eq!(fourth.regions_formed, first.regions_formed, "re-formed");
    }
}
