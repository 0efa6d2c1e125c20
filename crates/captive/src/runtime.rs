//! Runtime services of the Captive unikernel — the half of the runtime the
//! paper compares against QEMU: host page-fault handling (the accelerated
//! virtual memory system), the fetch iTLB / data gTLB, the context
//! generation, and self-modifying-code tracking by physical page.
//! Everything a guest observes identically on any engine (exception entry,
//! `ERET`, hypercalls, timer, virtio) is the embedded
//! [`guest_aarch64::sys::GuestSys`].
//!
//! # Cached guest walks and the writers of guest RAM
//!
//! The obligation the two guest-walk caches are held to ([`crate::itlb`] has
//! the rule itself): **no cached guest walk is served once any table entry
//! it read may differ from memory** — where "may differ" is judged at the
//! points the architecture makes a table edit visible, the context-generation
//! bumps.  Every bump still tears down the whole lower half of the host page
//! tables (`teardown_guest_mappings`), so the cached walks are what keeps the
//! re-faulting that follows cheap.  Holding the obligation
//! means hearing of every store that could land in a translation table.
//! Guest RAM has three writers, and each reaches
//! [`TableWatch::note_written`](crate::itlb::TableWatch::note_written):
//!
//! * **translated code, through host mappings** — after a teardown no guest
//!   page is mapped, so the first store to a page faults; both arms of
//!   [`Runtime::page_fault`] note every page they map *writable* (a page
//!   mapped read-only faults again before it is written);
//! * **device DMA** — [`CaptiveRuntime::poll_virtio`] notes every page a
//!   retirement touched, data buffers, status bytes and the used ring alike;
//! * **the host, through the [`Engine`](guest_aarch64::sys::Engine) façade**
//!   (`load_program`, `write_guest_phys`) — [`CaptiveRuntime::note_host_write`],
//!   which `Captive` calls from the façade's write hook.
//!
//! A bare `TLBI` then dirties the noted pages that are table pages of some
//! cached walk; a `TTBR0` or `SCTLR` write invalidates wholesale.  Code that
//! writes guest memory through `machine.mem` directly is outside the
//! contract, as it always was for translated code.
//!
//! The first two writers also reach translated code (`page_fault`'s
//! self-modifying-code arm, `poll_virtio`'s touched list): both queue the
//! page for invalidation and mark it *patched* for good
//! ([`CaptiveRuntime::is_patched`], `crate::spec`, *Patched pages*).

use crate::itlb::{DataTlb, FetchTlb, TableWatch};
use crate::layout;
use guest_aarch64::gen::helpers;
use guest_aarch64::mmu;
use guest_aarch64::sys::{GuestEvent, GuestSys, HelperCosts};
use hvm::paging::{self, FrameAlloc, PageFlags};
use hvm::{CostModel, FaultAction, HelperResult, Machine, Ring, Runtime};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Cycle cost of taking a data-side host fault and evaluating guest
/// permissions (ring transition, ESR decode, bookkeeping).
const DFAULT_BASE: u64 = 300;
/// Cycle cost of a software-assisted guest page-table walk (several
/// dependent guest memory reads) — charged only on real data-gTLB misses.
const DWALK_COST: u64 = 600;
/// Cycle cost of installing the host PTE mirroring a resolved guest mapping.
const DMAP_COST: u64 = 200;
/// Cycle cost of the walk behind a fetch-iTLB miss.  One
/// [`GuestSys::walk`] has three prices, for who performs it: here the
/// dispatcher resolves a block entry the way the host's hardware walker
/// would (three dependent reads at the machine's per-level price, 60 by
/// default); [`DWALK_COST`] is the same walk done in software inside the
/// host page-fault handler, guest table reads through the direct map with
/// permission evaluation; QemuRef's softmmu slow path does it in a user
/// process without either and charges 420 (`qemu_ref`'s `SOFT_WALK_COST`).
fn fetch_walk_cost(cost: &CostModel) -> u64 {
    cost.page_walk_per_level * mmu::GUEST_LEVELS as u64
}

/// What the shared helper arms cost inside the unikernel: a direct call in
/// ring 0, no user-process state save/restore.  The softfloat arms
/// ([`crate::FpMode::Software`]) charge the body on top of the call overhead
/// the machine already charged: 90 cycles for one scalar operation or square
/// root, and for `vec_op` two scalar bodies, one per lane, 180.
pub const HELPER_COSTS: HelperCosts = HelperCosts {
    putchar: 120,
    exit: 50,
    exception: 300,
    msr_notify: 200,
    fcmp: 20,
    eret: 260,
    hlt: 20,
    soft_fp: 90,
    soft_sqrt: 90,
    vec_op: 2 * 90,
};

/// The unikernel runtime: the guest-system core plus the host page tables
/// and translation-tracking state Captive builds on top of it.
pub struct CaptiveRuntime {
    /// The engine-independent guest-system core (exceptions, hypercalls,
    /// event sources, devices); also reachable through `Deref`.
    pub sys: GuestSys,
    /// Root of the host page tables Captive owns.
    pub host_pt_root: u64,
    /// Frame allocator for host page tables.
    frame_alloc: FrameAlloc,
    /// Allocator position right after boot: everything above it holds
    /// lower-half (guest) page-table subtrees, reclaimed wholesale on guest
    /// TLB flushes.
    pt_boot_mark: u64,
    /// Guest physical pages that contain translated code (for self-modifying
    /// code detection via write protection), each with the copy of its bytes
    /// that formation snapshots share once one has been taken (see
    /// [`CaptiveRuntime::code_page_copies`]).  The copy lives *in* the entry,
    /// so every path that learns of a write to a code page — the two
    /// write-protection arms of `page_fault` and `poll_virtio` — drops it
    /// by removing the entry; nothing else writes guest memory while the
    /// engine runs.
    code_pages: HashMap<u64, Option<Arc<[u8]>>>,
    /// Code pages that were written and whose translations must be dropped.
    smc_dirty: Vec<u64>,
    /// Every page ever pushed onto `smc_dirty` (module docs).
    patched: HashSet<u64>,
    /// Counts the events at which a guest table edit may take effect: `TLBI`
    /// and `TTBR0`/`SCTLR` writes.  Chain links and gated regions are stamped
    /// with it and die on any mismatch; cached guest walks are stamped with
    /// it too, but a stale one is re-checked against `table_watch` before it
    /// is given up (module docs).
    context_generation: u64,
    /// Fetch-side instruction TLB (VPN→PFN for instruction fetches).
    pub fetch_tlb: FetchTlb,
    /// Data-side guest TLB: guest walk results for the host page-fault
    /// handler, which re-faults every page after each generation bump and
    /// would otherwise re-walk for each.
    pub data_tlb: DataTlb,
    /// Which guest pages a store may have reached this generation, and which
    /// table pages that has dirtied — what decides whether a stale-stamped
    /// entry of either TLB is still good.
    pub table_watch: TableWatch,
}

impl Deref for CaptiveRuntime {
    type Target = GuestSys;
    fn deref(&self) -> &GuestSys {
        &self.sys
    }
}

impl DerefMut for CaptiveRuntime {
    fn deref_mut(&mut self) -> &mut GuestSys {
        &mut self.sys
    }
}

impl CaptiveRuntime {
    /// Builds the runtime and the initial host page tables (Captive area
    /// only: register file and spill page), then enables host paging.
    pub fn new(machine: &mut Machine, guest_ram: u64) -> Self {
        let mut frame_alloc = FrameAlloc::new(layout::HOST_PT_POOL_START, layout::HOST_PT_POOL_END);
        let root = frame_alloc
            .alloc(&mut machine.mem)
            .expect("host page-table pool");
        // Captive area: register file and spill page, accessible from the
        // ring the guest code runs in.
        assert!(paging::map_page(
            &mut machine.mem,
            root,
            layout::REGFILE_VA,
            layout::REGFILE_PHYS,
            PageFlags::user_rw(),
            &mut frame_alloc,
        ));
        assert!(paging::map_page(
            &mut machine.mem,
            root,
            layout::REGFILE_VA - 4096,
            layout::SPILL_PHYS,
            PageFlags::user_rw(),
            &mut frame_alloc,
        ));
        machine.enable_paging(root, 0);
        let pt_boot_mark = frame_alloc.mark();
        CaptiveRuntime {
            sys: GuestSys::new(
                machine,
                layout::REGFILE_PHYS,
                layout::GUEST_PHYS_BASE,
                guest_ram,
                HELPER_COSTS,
            ),
            host_pt_root: root,
            frame_alloc,
            pt_boot_mark,
            code_pages: HashMap::new(),
            smc_dirty: Vec::new(),
            patched: HashSet::new(),
            context_generation: 0,
            fetch_tlb: FetchTlb::new(),
            data_tlb: DataTlb::new(),
            table_watch: TableWatch::new(guest_ram),
        }
    }

    /// Retires due virtio completions.  A physically-indexed cache can
    /// answer device DMA page by page: any touched page holding translated
    /// code is queued for invalidation exactly like a trapped self-modifying
    /// store — except no write-protection fault announces it, so this *must*
    /// run before translated code is re-entered (the dispatcher then drains
    /// `take_smc_dirty`).
    pub fn poll_virtio(&mut self, machine: &mut Machine) {
        for page in self.sys.poll_virtio(machine).unwrap_or_default() {
            self.table_watch.note_written(page);
            if self.code_pages.remove(&page).is_some() {
                self.smc_dirty.push(page);
                self.patched.insert(page);
                self.sys.external_invalidations += 1;
            }
        }
    }

    /// Whether a guest store or a DMA has ever dropped translations on
    /// guest physical page `page`.
    pub fn is_patched(&self, page: u64) -> bool {
        self.patched.contains(&page)
    }

    /// Current translation-context generation.
    pub fn context_generation(&self) -> u64 {
        self.context_generation
    }

    /// The host is writing `len` bytes of guest physical memory at
    /// `guest_phys` behind the guest's back (the `Engine` façade's write
    /// hook).
    pub fn note_host_write(&mut self, guest_phys: u64, len: u64) {
        let last = guest_phys.saturating_add(len.saturating_sub(1));
        for page in (guest_phys >> 12)..=(last >> 12).min(self.sys.guest_ram >> 12) {
            self.table_watch.note_written(page << 12);
        }
    }

    /// The bytes of every page currently holding translated code — the page
    /// set a tier-1 formation snapshot is seeded with.  A page is copied
    /// (with `read_page`, from live memory) by the first snapshot taken after
    /// it became a code page; later snapshots share that copy until a write
    /// to the page removes its `code_pages` entry, so a capture costs one
    /// reference-count bump per unchanged page instead of 4 KiB.  Should a
    /// copy ever be stale regardless (a host-side write behind the engine's
    /// back), the install gate's live word compare still discards whatever
    /// was formed from it.
    pub fn code_page_copies(
        &mut self,
        mut read_page: impl FnMut(u64) -> Vec<u8>,
    ) -> HashMap<u64, Arc<[u8]>> {
        self.code_pages
            .iter_mut()
            .map(|(&page, copy)| {
                let bytes = copy.get_or_insert_with(|| read_page(page).into());
                (page, Arc::clone(bytes))
            })
            .collect()
    }

    /// The shared copy of one code page (made with `read_page` if no
    /// snapshot or speculation has taken it yet — see
    /// [`CaptiveRuntime::code_page_copies`]); `None` when `page` holds no
    /// translated code, and is therefore not write-protected.
    pub fn code_page_copy(
        &mut self,
        page: u64,
        read_page: impl FnOnce(u64) -> Vec<u8>,
    ) -> Option<Arc<[u8]>> {
        let copy = self.code_pages.get_mut(&page)?;
        Some(Arc::clone(
            copy.get_or_insert_with(|| read_page(page).into()),
        ))
    }

    /// Translates a guest virtual address to a guest physical address using
    /// the guest's translation state (used by the translator when it follows
    /// a trace; uncached and uncharged).
    pub fn guest_va_to_pa(
        &self,
        machine: &Machine,
        va: u64,
        write: bool,
    ) -> Result<u64, GuestEvent> {
        if !self.sys.mmu_enabled(machine) {
            if va < self.sys.guest_ram {
                return Ok(va);
            }
            return Err(GuestEvent::InstrAbort { vaddr: va });
        }
        let walk = self
            .sys
            .walk(machine, va)
            .map_err(|_| GuestEvent::InstrAbort { vaddr: va })?;
        if write && !walk.flags.writable {
            return Err(GuestEvent::DataAbort { vaddr: va, write });
        }
        Ok(walk.frame | (va & 0xFFF))
    }

    /// Translates an instruction-fetch virtual address through the fetch
    /// TLB: one compare when the entry carries the current generation.  A
    /// PC that is not a multiple of four faults before anything is fetched.
    #[inline]
    pub fn fetch_va_to_pa(&mut self, machine: &mut Machine, va: u64) -> Result<u64, GuestEvent> {
        if va & 3 != 0 {
            return Err(GuestEvent::PcAlign { vaddr: va });
        }
        let ctx_gen = self.context_generation;
        match self
            .fetch_tlb
            .lookup_or_revalidate(va, ctx_gen, &self.table_watch)
        {
            Some(e) => Ok(e.page_pa | (va & 0xFFF)),
            None => self.fetch_miss(machine, va),
        }
    }

    /// A fetch the iTLB could not answer: resolve it (through the guest
    /// page-table walker, charged at the hardware walk cost, when the guest
    /// MMU is on) and cache the result.
    fn fetch_miss(&mut self, machine: &mut Machine, va: u64) -> Result<u64, GuestEvent> {
        let ctx_gen = self.context_generation;
        if !self.sys.mmu_enabled(machine) {
            if va >= self.sys.guest_ram {
                return Err(GuestEvent::InstrAbort { vaddr: va });
            }
            self.fetch_tlb.insert(va, va, ctx_gen);
            return Ok(va);
        }
        let walk = self
            .sys
            .walk(machine, va)
            .map_err(|_| GuestEvent::InstrAbort { vaddr: va })?;
        machine.perf.cycles += fetch_walk_cost(&machine.cost);
        self.fetch_tlb
            .insert_walk(va, &walk, ctx_gen, &mut self.table_watch);
        Ok(walk.frame | (va & 0xFFF))
    }

    /// Records that a guest physical page now contains translated code and
    /// write-protects its identity mapping so self-modifying writes fault.
    pub fn note_code_page(&mut self, machine: &mut Machine, guest_phys_page: u64) {
        if let Entry::Vacant(entry) = self.code_pages.entry(guest_phys_page) {
            entry.insert(None);
            // While the guest MMU is off the page is identity mapped; revoke
            // write permission so a later store to it traps for invalidation.
            if paging::write_protect_page(&mut machine.mem, self.host_pt_root, guest_phys_page) {
                machine.tlb.flush_page(guest_phys_page);
            }
        }
    }

    /// Returns and clears the list of code pages invalidated by guest writes.
    pub fn take_smc_dirty(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.smc_dirty)
    }

    /// Tears down the lower-half (guest) mappings and flushes the host TLB —
    /// the intercepted-TLB-flush mechanism of Section 2.7.4 — and begins a
    /// new context generation, which retires every chain link and gated
    /// region.  Cached guest walks outlive a bare `TLBI` unless a table page
    /// they read was written; a `regime_changed` teardown (`TTBR0`, `SCTLR`)
    /// spares none.
    fn teardown_guest_mappings(&mut self, machine: &mut Machine, regime_changed: bool) {
        paging::clear_top_level_entries(
            &mut machine.mem,
            self.host_pt_root,
            layout::LOWER_HALF_PML4_ENTRIES,
        );
        // The cleared entries orphan every lower-half page-table subtree;
        // reclaim their frames so repeated guest TLB flushes cannot exhaust
        // the pool.  This is safe because every post-boot allocation belongs
        // to a lower-half subtree: `page_fault` rejects faults at or above
        // LOWER_HALF_LIMIT before mapping, so the only upper-half tables
        // (register file + spill page, PML4 entry 256) were built at boot,
        // below the mark — and every entry since came from `map_page`, as
        // the reset (which clears what `map_page` noted) requires.
        self.frame_alloc
            .reset_to(&mut machine.mem, self.pt_boot_mark);
        machine.tlb.flush_all();
        machine.perf.tlb_flushes += 1;
        self.context_generation += 1;
        if regime_changed {
            self.table_watch.wholesale(self.context_generation);
        } else {
            self.table_watch.tlbi(self.context_generation);
        }
    }
}

impl Runtime for CaptiveRuntime {
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult {
        match id {
            helpers::TLBI => {
                self.teardown_guest_mappings(machine, false);
                HelperResult::Continue { cost: 450 }
            }
            helpers::MSR_NOTIFY => {
                let (translation_changed, result) = self.sys.msr_notify(machine);
                if translation_changed {
                    self.teardown_guest_mappings(machine, true);
                }
                result
            }
            _ => self.sys.helper(id, machine),
        }
    }

    /// A looping region polls this at every back-edge: a self-modifying
    /// write to a code page, a queued guest event, a due event-source
    /// deadline or a requested exit turn the loop-back into a dispatcher
    /// exit with the PC precise at the loop header, so invalidation and
    /// delivery latency is bounded by one iteration instead of the loop's
    /// (unbounded) trip count.
    fn loop_exit_pending(&mut self, cycles: u64) -> bool {
        !self.smc_dirty.is_empty() || self.sys.loop_exit_pending(cycles)
    }

    fn page_fault(&mut self, vaddr: u64, write: bool, machine: &mut Machine) -> FaultAction {
        if vaddr >= layout::LOWER_HALF_LIMIT {
            // Faults in the Captive area are fatal configuration errors; the
            // guest should never see them.
            return FaultAction::Propagate { cost: 100 };
        }
        let page = vaddr & !0xFFF;
        // What the guest's own translation says about the page, and what
        // finding that out and mirroring it costs.
        let (gpage, g_writable, g_user, cost) = if !self.sys.mmu_enabled(machine) {
            // Guest MMU off: guest virtual == guest physical; identity-map on
            // demand into the lower half.
            if vaddr >= self.sys.guest_ram {
                return FaultAction::Propagate { cost: 200 };
            }
            (page, true, true, 350)
        } else {
            // Guest MMU on: resolve the guest translation — through the
            // data-side gTLB when it holds a walk of the page that is still
            // good, walking the guest page tables (and caching the result)
            // only on a real miss — then mirror it into the host page tables
            // (Section 2.7.3).  The walk portion of the handler cost is
            // charged only when a walk actually happened.
            let ctx_gen = self.context_generation;
            let cached = self
                .data_tlb
                .lookup_or_revalidate(vaddr, ctx_gen, &self.table_watch);
            let (gpage, g_writable, g_user, walk_cost) = match cached {
                Some(e) => (e.page_pa, e.writable, e.user, 0),
                None => match self.sys.walk(machine, vaddr) {
                    Ok(w) => {
                        self.data_tlb
                            .insert_walk(vaddr, &w, ctx_gen, &mut self.table_watch);
                        (w.frame & !0xFFF, w.flags.writable, w.flags.user, DWALK_COST)
                    }
                    Err(_) => {
                        return FaultAction::Propagate {
                            cost: DFAULT_BASE + DWALK_COST,
                        }
                    }
                },
            };
            let user_access = machine.ring == Ring::Ring3;
            if (write && !g_writable) || (user_access && !g_user) {
                return FaultAction::Propagate {
                    cost: DFAULT_BASE + walk_cost,
                };
            }
            let cost = DFAULT_BASE + DMAP_COST + walk_cost;
            (gpage, g_writable, g_user, cost)
        };
        let is_code = self.code_pages.contains_key(&gpage);
        if write && is_code {
            // Self-modifying code: drop translations for the page and remap
            // it writable.
            self.code_pages.remove(&gpage);
            self.smc_dirty.push(gpage);
            self.patched.insert(gpage);
        }
        // A page holding translated code stays read-only until written.
        let flags = PageFlags {
            present: true,
            writable: g_writable && (write || !is_code),
            user: g_user,
        };
        if flags.writable {
            self.table_watch.note_written(gpage);
        }
        let ok = paging::map_page(
            &mut machine.mem,
            self.host_pt_root,
            page,
            layout::GUEST_PHYS_BASE + gpage,
            flags,
            &mut self.frame_alloc,
        );
        machine.tlb.flush_page(vaddr);
        if ok {
            FaultAction::Retry { cost }
        } else {
            FaultAction::Propagate { cost }
        }
    }
}
