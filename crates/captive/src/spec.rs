//! Who translates a tier-0 block, besides the run thread itself: the
//! speculative frontier and its ready pool, and — on pages the guest patches
//! — the reuse store.  The overview — both job kinds, the validation rule
//! and where every policy bound came from — is in the [`crate::tier`] module
//! docs; the worker loop that drains the frontier lives there too.
//!
//! Everything here changes *who* runs the block translator, never what it
//! produces or when the product is installed: the ready pool is visible to
//! the miss path's `Captive::speculated_block` and nothing else.  A parked
//! result is a region and the [`dbt::Evidence`] the block translator
//! recorded for it, like a block kept on a patched page; that method hands
//! it back only when the one gate (`Captive::evidence_holds`) admits its
//! evidence.
//!
//! # Why the pool is not the reuse store
//!
//! Both hold translations with their evidence, but the pool stays a pool:
//!
//! * A pool result is consumed once and bounded — at most [`POOL_MAX`] (128)
//!   parked or in flight, evicted after `POOL_AGE` (512) installs unasked.
//!   A template persists and is served again and again.
//! * Installed speculative code is re-homed into the run thread's
//!   allocations (`Ready::rehome`; +20 % peak RSS over ten engines
//!   without).  A template shares its code `Arc` with every instantiation,
//!   so it cannot be re-homed.
//! * A store keeps every installed block's evidence, which is off the table:
//!   only a patched page needs it, and a prototype keeping words and counters
//!   for all `cold_code` blocks took `peak_rss_mib` 49.5–49.8 → 57.8–58.2.
//!
//! # Patched pages
//!
//! A page whose translations a guest store or a DMA has dropped
//! (`CaptiveRuntime::is_patched`) is never speculated on again; memory of
//! its past encodings serves it instead.  A block translated there carries
//! its words and static counters ([`dbt::Region::made_from`]), is published
//! to the reuse store ([`dbt::reuse`]) when `invalidate_dirty_pages` drops
//! it, and the next tier-0 miss on the page asks the store, through the one
//! gate (`Captive::evidence_holds`), first.  A hit merges the template's
//! counters — `RunStats::jit` reads as if the block had been translated —
//! and counts in `translations` like any install.  `sync` has no store.

use crate::formation::read_live_page;
use crate::runtime::CaptiveRuntime;
use crate::tier::{TierService, PAGE_BYTES};
use crate::translator::{live_code_word, resumes_after, translate_block_from, MAX_BLOCK_INSNS};
use crate::{Captive, CaptiveConfig, FpMode};
use dbt::{BlockExit, CounterField, Evidence, PhaseTimers, Region, RegionKey};
use guest_aarch64::Aarch64Isa;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on parked-plus-in-flight speculative translations.  A full pool
/// *parks* the frontier (jobs stay queued) until the run thread has drained
/// it to half.
pub const POOL_MAX: usize = 128;
/// Bound on queued jobs.  The queue only grows while the frontier is parked
/// behind a full pool and the run thread keeps installing blocks of its own;
/// the oldest job — the one furthest behind the run thread by then — makes
/// room for the newest.
const QUEUE_MAX: usize = 4 * POOL_MAX;
/// A parked translation the run thread has not asked for within this many
/// tier-0 installs is on a path the guest did not take; it is evicted once
/// the pool is at least half full so dead legs cannot park the frontier
/// for good.
const POOL_AGE: u64 = 4 * POOL_MAX as u64;

/// The codegen knobs every translation of one engine is made under: what the
/// translators take besides addresses, what a tier-1 request carries and
/// what the reuse key packs.  One `Arc` per engine, made in `Captive::new`
/// and never changed after it.
#[derive(Debug)]
pub struct Knobs {
    /// FP implementation strategy.
    pub fp_mode: FpMode,
    /// Run the LIR optimiser.
    pub run_opt: bool,
    /// Run loop-carried register promotion (only meaningful with `run_opt`).
    pub promote: bool,
    /// Run the idiom layer, with the built-in rule set
    /// ([`dbt::RuleTable::builtin`]).
    pub idioms: bool,
    /// Loop-unroll factor of formed regions.
    pub unroll: usize,
}

impl Knobs {
    /// The knobs an engine configured by `config` translates under.
    pub fn new(config: &CaptiveConfig) -> Arc<Self> {
        Arc::new(Knobs {
            fp_mode: config.fp_mode,
            run_opt: config.opt,
            promote: config.promote,
            idioms: config.idioms,
            unroll: config.unroll_loops,
        })
    }

    /// The knobs as the `knobs` word of a [`dbt::ReuseKey`]: a formed
    /// region's, which also packs the unroll factor, or (`formed` false) a
    /// block's.
    pub(crate) fn packed(&self, formed: bool) -> u64 {
        dbt::pack_knobs(
            self.fp_mode == FpMode::Software,
            self.run_opt,
            self.promote,
            self.idioms,
            if formed { self.unroll.max(1) } else { 0 },
        )
    }
}

/// One queued speculative translation: a block entry and the page copy to
/// read it from.
#[derive(Debug)]
pub(crate) struct Job {
    pc: u64,
    pa: u64,
    page: Arc<[u8]>,
    /// The guest MMU was off when the chain this job belongs to was seeded:
    /// a cross-page successor's physical address is its virtual address.
    identity: bool,
    knobs: Arc<Knobs>,
}

/// A finished speculative translation, parked until the run thread
/// dispatches its key (or it ages out): like every translation waiting to
/// be installed, a region and the [`Evidence`] it was made from.
#[derive(Debug)]
pub(crate) struct Ready {
    /// `None` only on the way back to a worker ([`Ready::rehome`]).
    region: Option<Region>,
    /// Every word the translator was served from the page copy: what the
    /// one gate must find in live memory for the region to be installed.
    evidence: Evidence,
    /// The translation's own phase timers and static counters — merged into
    /// the engine's exactly once, at install; dropped with a discarded
    /// result.
    timers: PhaseTimers,
    wall: Duration,
    /// Tier-0 install count when the result was parked (for [`POOL_AGE`]).
    parked_at: u64,
}

/// What is left of an installed [`Ready`]: the allocations a worker made,
/// on their way back to a worker to be freed there — the region's code,
/// page list and promoted slots, and in the shell the box itself with its
/// evidence words.  Freeing any of them on the run thread would take the
/// worker's arena lock on every install, serialising the two threads on the
/// allocator.
#[derive(Debug)]
pub(crate) struct Spent {
    _shell: Box<Ready>,
    _code: Arc<[hvm::MachInsn]>,
    _pages: Vec<u64>,
    _promoted: Vec<(i32, dbt::Carrier)>,
}

impl Ready {
    /// Moves the region into the run thread's own allocations (left in a
    /// worker's arena, the cache's code pinned that arena at full size after
    /// the engine was gone: peak RSS +20 % over ten engines in a row) and
    /// sends the originals back to a worker ([`Spent`]).
    fn rehome(mut self: Box<Self>) -> (Region, Spent) {
        let mut region = self
            .region
            .take()
            .expect("a parked result holds its region");
        let code = Arc::from(&region.code[..]);
        let pages = region.pages.clone();
        let promoted = region.promoted.clone();
        let spent = Spent {
            _code: std::mem::replace(&mut region.code, code),
            _pages: std::mem::replace(&mut region.pages, pages),
            _promoted: std::mem::replace(&mut region.promoted, promoted),
            _shell: self,
        };
        (region, spent)
    }
}

#[derive(Debug)]
enum Live {
    Queued,
    InFlight,
    Ready(Box<Ready>),
}

/// The copy of a guest physical page speculation reads.
#[derive(Debug)]
pub(crate) enum PageCopy {
    /// Copied before the page held translated code: nothing write-protects
    /// it, so the copy may be stale by the time it is used (the JIT/loader
    /// shape) — the gate at install is what catches that.
    Early(Arc<[u8]>),
    /// The copy in the page's `code_pages` entry, shared with formation
    /// snapshots; any guest or device write to the page poisons it here.
    Code(Arc<[u8]>),
    /// A translation on this page was invalidated, or a parked result
    /// failed validation: never speculated on again.
    Poisoned,
}

#[derive(Debug)]
struct Page {
    copy: PageCopy,
    /// One bit per word of the page: a block entry there was already
    /// requested, or installed by the run thread.
    seen: [u64; PAGE_BYTES / 4 / 64],
}

impl Page {
    fn new(copy: PageCopy) -> Self {
        Page {
            copy,
            seen: [0; PAGE_BYTES / 4 / 64],
        }
    }

    /// Marks the entry at `pa` seen; true when it was not before.
    fn mark(&mut self, pa: u64) -> bool {
        let word = (pa as usize & (PAGE_BYTES - 1)) / 4;
        let fresh = self.seen[word / 64] & (1 << (word % 64)) == 0;
        self.seen[word / 64] |= 1 << (word % 64);
        fresh
    }
}

/// Who translated, for tests and ledgers — mostly a matter of worker
/// scheduling, so deliberately *not* `RunStats` fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Tier-0 installs served from the ready pool.
    pub installed: u64,
    /// Parked results the miss path found but refused: their recorded words
    /// no longer matched.
    pub stale: u64,
    /// Blocks translated speculatively (installed, stale, still parked,
    /// cancelled by a synchronous translation, or aged out).
    pub translated: u64,
    /// Tier-0 installs on a patched page served by reviving a block
    /// template from the reuse store.
    pub revived: u64,
}

/// The state shared between the run thread and the tier workers (inside the
/// service's one mutex): the job queue, every live key's state, and the
/// page copies with their seen bitmaps.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    /// Queued jobs in discovery order — breadth-first from what the run
    /// thread installed, which tracks execution order closely enough to
    /// stay ahead of it.  A full pool parks them here; none is dropped short
    /// of [`QUEUE_MAX`] (losing a job loses everything reachable from it).
    queue: VecDeque<Job>,
    live: HashMap<RegionKey, Live>,
    pages: HashMap<u64, Page>,
    /// `Live::Ready` entries.
    ready: usize,
    /// `Live::InFlight` entries.
    running: usize,
    /// Workers allowed to speculate at once (0 = speculation off).
    slots: usize,
    /// Tier-0 installs so far (the [`POOL_AGE`] clock).
    installs: u64,
    last_aged: u64,
    translated: u64,
    /// Installed results' worker-side allocations, waiting for a worker to
    /// free them ([`Ready::rehome`]).
    spent: Vec<Spent>,
}

impl Frontier {
    /// A frontier at most `slots` workers drain concurrently.
    pub(crate) fn new(slots: usize) -> Self {
        Frontier {
            slots,
            ..Frontier::default()
        }
    }

    /// Blocks translated speculatively so far ([`SpecStats::translated`]).
    pub(crate) fn translated(&self) -> u64 {
        self.translated
    }

    /// Hands a worker the spent allocations to drop (outside the lock) in
    /// exchange for its `emptied` vector, so the list's own buffer is never
    /// freed across threads either.
    pub(crate) fn swap_spent(&mut self, emptied: &mut Vec<Spent>) {
        debug_assert!(emptied.is_empty());
        std::mem::swap(&mut self.spent, emptied);
    }

    /// True when a worker could claim a job right now.
    pub(crate) fn can_start(&self) -> bool {
        self.running < self.slots && self.ready + self.running < POOL_MAX && !self.queue.is_empty()
    }

    /// True when a sleeping worker should be woken: there is a job it could
    /// claim and the pool has drained to half (the hysteresis keeps a full
    /// pool from costing one wake-up per install).
    pub(crate) fn worth_waking(&self) -> bool {
        self.can_start() && self.ready + self.running <= POOL_MAX / 2
    }

    /// Claims the next runnable job, skipping jobs the run thread overtook
    /// with a synchronous translation.
    pub(crate) fn next_job(&mut self) -> Option<Job> {
        while self.can_start() {
            let job = self.queue.pop_front()?;
            if let Some(state @ Live::Queued) = self.live.get_mut(&job.key()) {
                *state = Live::InFlight;
                self.running += 1;
                return Some(job);
            }
        }
        None
    }

    /// Books a claimed job's outcome: parks the result (unless the run
    /// thread overtook it meanwhile) and queues the block's own successors.
    pub(crate) fn finish(&mut self, job: &Job, outcome: Option<Box<Ready>>) {
        self.running -= 1;
        let overtaken = !matches!(self.live.get(&job.key()), Some(Live::InFlight));
        let Some(mut ready) = outcome else {
            if !overtaken {
                self.live.remove(&job.key());
            }
            return;
        };
        self.translated += 1;
        if overtaken {
            return;
        }
        let page_va = job.pc & !0xFFF;
        // (A lowering bail-out leaves a one-instruction stub behind however
        // many words were fetched; its successors are the stub's.)
        let region = ready
            .region
            .as_ref()
            .expect("a fresh result holds its region");
        let last_word = job.word_at(job.pa + 4 * (region.guest_insns as u64 - 1));
        for va in successors(region, last_word) {
            let pa = if va & !0xFFF == page_va {
                (job.pa & !0xFFF) | (va & 0xFFF)
            } else if job.identity {
                va
            } else {
                continue;
            };
            self.request(va, pa, job.identity, &job.knobs);
        }
        ready.parked_at = self.installs;
        self.live.insert(job.key(), Live::Ready(ready));
        self.ready += 1;
    }

    /// Queues the block at (`pc`, `pa`) unless its page has no usable copy
    /// or the entry was already requested or installed.
    pub(crate) fn request(&mut self, pc: u64, pa: u64, identity: bool, knobs: &Arc<Knobs>) {
        let Some(page) = self.pages.get_mut(&(pa & !0xFFF)) else {
            return;
        };
        let (PageCopy::Early(bytes) | PageCopy::Code(bytes)) = &page.copy else {
            return;
        };
        let bytes = Arc::clone(bytes);
        if pc & 3 != 0 || !page.mark(pa) {
            return;
        }
        let job = Job {
            pc,
            pa,
            page: bytes,
            identity,
            knobs: Arc::clone(knobs),
        };
        if self.queue.len() >= QUEUE_MAX {
            if let Some(oldest) = self.queue.pop_front() {
                if let Some(Live::Queued) = self.live.get(&oldest.key()) {
                    self.live.remove(&oldest.key());
                }
            }
        }
        self.live.insert(job.key(), Live::Queued);
        self.queue.push_back(job);
    }

    /// The run thread is about to install a tier-0 translation at `key`:
    /// hands over the parked result if there is one, and retires whatever
    /// else was known about the key (a queued job is skipped, an in-flight
    /// one dropped when it finishes).
    fn take(&mut self, key: RegionKey) -> Option<Box<Ready>> {
        self.installs += 1;
        if let Some(page) = self.pages.get_mut(&(key.phys & !0xFFF)) {
            page.mark(key.phys);
        }
        if let Some(Live::Ready(ready)) = self.live.remove(&key) {
            self.ready -= 1;
            return Some(ready);
        }
        if self.ready >= POOL_MAX / 2 && self.installs - self.last_aged >= POOL_MAX as u64 {
            self.last_aged = self.installs;
            let horizon = self.installs - POOL_AGE.min(self.installs);
            let before = self.live.len();
            self.live
                .retain(|_, state| !matches!(state, Live::Ready(r) if r.parked_at < horizon));
            self.ready -= before - self.live.len();
        }
        None
    }

    /// Never speculate on `page` again.
    fn poison(&mut self, page: u64) {
        self.pages
            .entry(page)
            .or_insert_with(|| Page::new(PageCopy::Poisoned))
            .copy = PageCopy::Poisoned;
    }

    /// Makes sure `page` has an entry, copying it through `copy` if not;
    /// `upgrade` re-copies an [`PageCopy::Early`] entry too (the caller
    /// knows the page is write-protected by now).
    pub(crate) fn ensure_page(
        &mut self,
        page: u64,
        upgrade: bool,
        copy: impl FnOnce() -> PageCopy,
    ) {
        match self.pages.get_mut(&page) {
            Some(known) if upgrade && matches!(known.copy, PageCopy::Early(_)) => {
                known.copy = copy()
            }
            Some(_) => {}
            None => {
                self.pages.insert(page, Page::new(copy()));
            }
        }
    }
}

impl Job {
    fn key(&self) -> RegionKey {
        RegionKey {
            phys: self.pa,
            virt: self.pc,
        }
    }

    /// Runs the block translator over the job's page copy.  `None` when the
    /// entry word is zero or undefined: that is padding or data, not code,
    /// and the chain stops there (a real branch into such a word is left to
    /// the synchronous path).
    pub(crate) fn translate(&self) -> Option<Box<Ready>> {
        let start = Instant::now();
        let entry = self.word_at(self.pa);
        if entry == 0 || guest_aarch64::isa::decode(entry).is_none() {
            return None;
        }
        let mut evidence = Evidence::default();
        let mut timers = PhaseTimers::default();
        let region = translate_block_from(
            &Aarch64Isa,
            |pa| self.word_at(pa),
            Some(&mut evidence),
            &mut timers,
            self.pc,
            self.pa,
            MAX_BLOCK_INSNS,
            &self.knobs,
        );
        Some(Box::new(Ready {
            region: Some(region),
            evidence,
            timers,
            wall: start.elapsed(),
            parked_at: 0,
        }))
    }

    /// The word of the job's page copy at physical address `pa`.  The block
    /// translator fetches at `page | (va & 0xFFF)` with `va` word-aligned
    /// ([`Frontier::request`] refuses other entries), so every fetch lies
    /// inside the copy.
    fn word_at(&self, pa: u64) -> u32 {
        let at = pa as usize & (PAGE_BYTES - 1);
        u32::from_le_bytes(self.page[at..at + 4].try_into().expect("four bytes"))
    }
}

/// Where control goes after `block`, as far as its words tell: the
/// terminator's direct targets, then the address right after the block when
/// `last_word` hands control back there ([`resumes_after`]).  In execution
/// order for a call: callee first, return address second.
fn successors(block: &Region, last_word: u32) -> impl Iterator<Item = u64> {
    let (a, b) = match block.exit {
        BlockExit::Opaque | BlockExit::Indirect => (None, None),
        BlockExit::Jump { target } => (Some(target), None),
        BlockExit::Branch { taken, fallthrough } => (Some(taken), Some(fallthrough)),
        BlockExit::Fallthrough { next } => (Some(next), None),
    };
    let end = block.guest_virt + 4 * block.guest_insns as u64;
    let past = (a != Some(end) && b != Some(end) && resumes_after(last_word)).then_some(end);
    [a, b, past].into_iter().flatten()
}

/// Copies `page` for speculation: the shared `code_pages` copy when the page
/// already holds translated code (and is therefore write-protected), a
/// private copy of live memory otherwise.
fn copy_page(runtime: &mut CaptiveRuntime, machine: &hvm::Machine, page: u64) -> PageCopy {
    match runtime.code_page_copy(page, |p| read_live_page(machine, p)) {
        Some(bytes) => PageCopy::Code(bytes),
        None => PageCopy::Early(read_live_page(machine, page).into()),
    }
}

/// The engine's tier service, if it translates tier-0 blocks speculatively.
/// (A function of the field, not a method, so callers keep their borrows of
/// the engine's other fields.)
fn speculating(tier: &Option<TierService>) -> Option<&TierService> {
    tier.as_ref().filter(|tier| tier.speculates())
}

/// The run thread's half of the protocol.
impl Captive {
    /// Speculation counters (scheduling-dependent; see [`SpecStats`]).
    pub fn speculation(&self) -> SpecStats {
        let mut stats = self.spec_stats;
        if let Some(tier) = speculating(&self.tier) {
            stats.translated = tier.with_frontier(|f| f.translated());
        }
        stats
    }

    /// The miss path's pool look-up: a parked translation of the block at
    /// `key`, if there is one and it is exactly what `translate_block` would
    /// produce now — made from evidence the one gate admits.  Its timers
    /// join the engine's here, once; a refused result drops them and poisons
    /// the page (a copy that went stale once will again).
    pub(crate) fn speculated_block(&mut self, key: RegionKey) -> Option<Region> {
        let tier = speculating(&self.tier)?;
        let ready = tier.with_frontier(|f| f.take(key))?;
        if !self.evidence_holds(&ready.evidence) {
            self.spec_stats.stale += 1;
            tier.with_frontier(|f| f.poison(key.phys & !0xFFF));
            return None;
        }
        self.spec_stats.installed += 1;
        self.timers.merge(&ready.timers);
        self.tier_timers.worker_wall += ready.wall;
        let (region, spent) = ready.rehome();
        tier.with_frontier(|f| f.spent.push(spent));
        Some(region)
    }

    /// Hands the workers the static successors of the tier-0 block the run
    /// thread just installed, with the page copies to read them from.  The
    /// block's own page is write-protected by now, so its copy is the
    /// `code_pages` entry's (shared with formation snapshots); a successor
    /// on a page speculation has not seen yet gets a fresh — unprotected —
    /// copy of that page.  With the guest MMU on, cross-page successors are
    /// resolved through the uncharged walker.  Pump mode translates the
    /// whole reachable frontier inline before returning.
    pub(crate) fn speculate_beyond(&mut self, block: &Region) {
        let Some(tier) = speculating(&self.tier) else {
            return;
        };
        if block.guest_virt & 3 != 0 {
            return;
        }
        let t0 = Instant::now();
        let (pc, pa) = (block.guest_virt, block.guest_phys);
        let own_page = pa & !0xFFF;
        let (machine, runtime) = (&self.machine, &mut self.runtime);
        let identity = !runtime.mmu_enabled(machine);
        let last_va = pc + 4 * (block.guest_insns as u64 - 1);
        let last_word = live_code_word(machine, own_page | (last_va & 0xFFF));
        let knobs = &self.knobs;
        tier.with_frontier(|f| {
            f.ensure_page(own_page, true, || copy_page(runtime, machine, own_page));
            if let Some(own) = f.pages.get_mut(&own_page) {
                own.mark(pa);
            }
            for va in successors(block, last_word) {
                let target = if va & !0xFFF == pc & !0xFFF {
                    own_page | (va & 0xFFF)
                } else {
                    match runtime.guest_va_to_pa(machine, va, false) {
                        Ok(target) if (target | 0xFFF) < runtime.guest_ram => target,
                        _ => continue,
                    }
                };
                let page = target & !0xFFF;
                f.ensure_page(page, false, || copy_page(runtime, machine, page));
                f.request(va, target, identity, knobs);
            }
        });
        if tier.is_pump() {
            tier.pump_speculation();
        }
        self.tier_timers.run_thread_stall += t0.elapsed();
    }

    /// The miss path's look in the reuse store, on a patched page: a block
    /// template at `key` made from words memory holds again, instantiated,
    /// with its static counters merged as if it had just been translated.
    pub(crate) fn revived_block(&mut self, key: RegionKey) -> Option<Region> {
        let reuse = self.reuse.as_ref()?;
        let (region, counters) = reuse.lookup(self.reuse_key_for(key, false), 0, |e| {
            self.evidence_holds(e)
        })?;
        self.timers.jit.add(&counters);
        self.spec_stats.revived += 1;
        Some(region)
    }

    /// Drops the translations of every code page the guest (or a device)
    /// wrote since the last call, publishing the blocks among them that
    /// carry what they were made from, and takes those pages out of
    /// speculation for good — a page that is patched once is patched again,
    /// and every patch would re-queue it.
    pub(crate) fn invalidate_dirty_pages(&mut self) {
        for page in self.runtime.take_smc_dirty() {
            for dropped in self.cache.discard_phys_page(page) {
                if let (Some(reuse), Some(made_from)) = (&self.reuse, &dropped.made_from) {
                    reuse.publish(&dropped, (**made_from).clone());
                }
            }
            if let Some(tier) = speculating(&self.tier) {
                tier.with_frontier(|f| f.poison(page));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaptiveConfig, RunExit};
    use guest_aarch64::asm;

    fn pump() -> CaptiveConfig {
        CaptiveConfig {
            tier_workers: Some(0),
            ..CaptiveConfig::default()
        }
    }

    fn boot(config: CaptiveConfig, segments: &[(u64, Vec<u32>)]) -> Captive {
        let mut c = Captive::new(config);
        for (at, words) in segments {
            c.load_program(*at, words);
        }
        c.set_entry(segments[0].0);
        c
    }

    /// `blocks` one-instruction-plus-branch blocks in a row, each adding its
    /// own constant to x0, then a halt.
    fn straight_line(blocks: u32) -> Vec<u32> {
        let mut a = asm::Assembler::new();
        for i in 0..blocks {
            a.push(asm::addi(0, 0, i % 7 + 1));
            a.push(if i % 3 == 0 {
                asm::cbz(28, 4)
            } else {
                asm::b(4)
            });
        }
        a.push(asm::hlt());
        a.finish()
    }

    #[test]
    fn a_stale_speculative_translation_is_discarded_for_the_new_bytes() {
        // The loader shape: the callee's page holds no translated code yet
        // (nothing write-protects it) when the calling block is installed
        // and the callee pre-translated — pump mode drains the frontier
        // right there — and the calling block then patches the callee.
        let mut main = asm::Assembler::new();
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.push(asm::strw(4, 3, 0));
        let at = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + at as i64 * 4)));
        main.push(asm::hlt());
        let callee = vec![asm::movz(5, 1, 0), asm::ret()];
        let mut c = boot(pump(), &[(0x1000, main.finish()), (0x2000, callee)]);

        assert_eq!(c.run(1), RunExit::BudgetExhausted, "the patching block ran");
        let before = c.speculation();
        assert!(before.translated >= 1, "the callee was translated ahead");
        assert_eq!((before.installed, before.stale), (0, 0));

        assert_eq!(c.run(100), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 2, "the patched callee ran, not the copy");
        let after = c.speculation();
        assert_eq!(after.stale, 1, "the parked callee failed validation");
        // The return address was translated ahead too, and is still good.
        assert_eq!(after.installed, 1);
    }

    #[test]
    fn speculation_changes_who_translates_and_nothing_else() {
        // Tiered (two workers), pump and sync runs of one straight-line
        // guest.  Every run is cut at the same point so the threaded one can
        // wait for its worker to park something — the pool hit is then
        // forced, not hoped for.
        const BLOCKS: u32 = 240;
        let words = straight_line(BLOCKS);
        let run = |config: CaptiveConfig| {
            let mut c = boot(config, &[(0x1000, words.clone())]);
            assert_eq!(c.run(1), RunExit::BudgetExhausted);
            let threaded = c
                .tier
                .as_ref()
                .is_some_and(|t| t.speculates() && !t.is_pump());
            while threaded && c.speculation().translated == 0 {
                std::thread::yield_now();
            }
            assert_eq!(c.run(10_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let tiered = run(CaptiveConfig::default());
        let pumped = run(pump());
        let sync = run(CaptiveConfig {
            tier_workers: None,
            ..CaptiveConfig::default()
        });

        for other in [&tiered, &pumped] {
            for r in 0..31 {
                assert_eq!(other.guest_reg(r), sync.guest_reg(r), "x{r}");
            }
            assert_eq!(
                other.stats().differs_across_reruns(&sync.stats()),
                None,
                "a counter depends on who translated"
            );
            assert_eq!(other.cache.len(), sync.cache.len());
            for i in 0..=BLOCKS as u64 {
                let at = 0x1000 + 8 * i;
                let key = RegionKey { phys: at, virt: at };
                let (ours, theirs) = (other.cache.peek(key), sync.cache.peek(key));
                let (ours, theirs) = (ours.expect("cached"), theirs.expect("cached"));
                assert_eq!(ours.code, theirs.code, "block at {at:#x}");
                assert_eq!(ours.exit, theirs.exit);
            }
        }
        assert_eq!(sync.speculation(), SpecStats::default());
        assert_eq!(
            pumped.speculation().installed,
            BLOCKS as u64,
            "every block after the first came from the pool"
        );
        if tiered.tier.as_ref().is_some_and(|t| t.speculates()) {
            assert!(tiered.speculation().installed > 0);
        }
    }

    #[test]
    fn legs_the_guest_never_takes_age_out_of_the_pool() {
        // Every eighth block of a long chain ends in a conditional whose
        // taken leg — a block of its own further up the image — never runs.
        // A dead leg translated ahead is never asked for; if parked results
        // did not age out, the pool would hold nothing else after eight
        // pools' worth of blocks and everything after be translated
        // synchronously.
        const BLOCKS: u32 = 3000;
        let mut a = asm::Assembler::new();
        a.push(asm::movz(28, 1, 0));
        for i in 0..BLOCKS {
            a.push(asm::addi(0, 0, 1));
            let here = 0x1000 + 4 * a.here() as i64;
            a.push(if i % 8 == 0 {
                asm::cbz(28, 0x10000 + i as i64 - here)
            } else {
                asm::b(4)
            });
        }
        a.push(asm::hlt());
        let dead: Vec<u32> = (0..BLOCKS / 8 + 1)
            .flat_map(|_| [asm::addi(1, 1, 1), asm::hlt()])
            .collect();
        let mut c = boot(pump(), &[(0x1000, a.finish()), (0x10000, dead)]);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!((c.guest_reg(0), c.guest_reg(1)), (BLOCKS as u64, 0));
        let stats = c.speculation();
        assert!(
            8 * POOL_MAX < BLOCKS as usize / 2 && stats.installed > BLOCKS as u64 * 9 / 10,
            "the pool was still serving at the end: {stats:?}"
        );
    }

    #[test]
    fn patched_and_mostly_empty_code_pages_bound_the_speculation() {
        // A loop that patches its callee before every call: the first
        // invalidation takes the callee's page out of speculation for good.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 200, 0));
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.label("loop");
        main.push(asm::strw(4, 3, 0));
        main.push(asm::addi(4, 4, 1 << 5));
        let at = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + at as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        main.cbnz_to(6, "loop");
        main.push(asm::hlt());
        let callee = vec![asm::movz(5, 1, 0), asm::ret()];
        let mut c = boot(pump(), &[(0x1000, main.finish()), (0x2000, callee)]);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert!(c.cache.stats().invalidated_page >= 100, "it did patch");
        let smc = c.speculation();
        assert!(
            smc.translated <= 8 && smc.installed + smc.stale <= 8,
            "{smc:?}"
        );

        // Sixteen pages holding one two-instruction block each, zero words
        // everywhere else: a sweep past each block stops at the first word.
        let segments: Vec<(u64, Vec<u32>)> = (0..16u64)
            .map(|i| {
                let last = i == 15;
                let next = if last { asm::hlt() } else { asm::b(0x1000 - 4) };
                (0x1000 + 0x1000 * i, vec![asm::addi(0, 0, 1), next])
            })
            .collect();
        let mut c = boot(pump(), &segments);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), 16);
        let sparse = c.speculation();
        assert!(
            sparse.translated <= 16 && sparse.installed <= 16,
            "{sparse:?}"
        );
    }

    /// Where the toggled function lives, and a word on its page it never
    /// reads.
    const SITE: u64 = 0x3000;
    const BESIDE: u64 = SITE + 0x800;

    /// A guest that calls `addi x19, x19, #0 ; ret` at [`SITE`] once, then
    /// `trips` times stores `addi x19, x19, #5` over its first word and calls
    /// it, stores `#9` and calls it — with a `tlbi` after each store if
    /// `tlbi`, the trip count into [`BESIDE`] before each call if `beside`,
    /// and with the MMU on if `mmu` (identity tables) — and finally stores
    /// `#100` and calls it once more.  Returns the engine maker.
    fn toggle(
        trips: u32,
        mmu: bool,
        tlbi: bool,
        beside: bool,
    ) -> impl Fn(CaptiveConfig) -> Captive {
        use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
        let mut tables = GuestTableImage::new(0x10_0000, 0x18_0000);
        tables.identity(0x1000, 0x3000, GuestPageFlags::kernel_rw());
        let mut a = asm::Assembler::new();
        let call = |a: &mut asm::Assembler| {
            let at = 0x1000 + 4 * a.here() as i64;
            a.push(asm::bl(SITE as i64 - at));
        };
        if mmu {
            a.mov_imm64(0, tables.root());
            a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
            a.push(asm::movz(0, 1, 0));
            a.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0));
        }
        a.mov_imm64(12, SITE);
        a.mov_imm64(13, BESIDE);
        a.mov_imm64(3, trips as u64);
        a.push(asm::movz(19, 0, 0));
        call(&mut a);
        a.label("loop");
        for k in [5, 9, 100] {
            a.mov_imm64(11, asm::addi(19, 19, k) as u64);
            a.push(asm::strw(11, 12, 0));
            if tlbi {
                a.push(asm::tlbi());
            }
            if beside {
                a.push(asm::str(3, 13, 0));
            }
            call(&mut a);
            if k == 9 {
                a.push(asm::subi(3, 3, 1));
                a.cbnz_to(3, "loop");
            }
        }
        a.push(asm::hlt());
        let main = a.finish();
        move |config| {
            let site = vec![asm::addi(19, 19, 0), asm::ret()];
            let mut c = boot(config, &[(0x1000, main.clone()), (SITE, site)]);
            if mmu {
                for (at, v) in tables.words() {
                    c.write_guest_phys(at, v, 8);
                }
            }
            c
        }
    }

    #[test]
    fn revival_changes_who_translates_and_nothing_else() {
        // 2 x TRIPS calls on a patched page: the first two translate (the
        // reuse store is empty, then holds only the other encoding), every
        // later one revives the block the store kept for the word in place —
        // and the run is the sync run, counter for counter, byte for byte.
        const TRIPS: u32 = 40;
        const CALLS: u64 = 2 * TRIPS as u64;
        for mmu in [false, true] {
            for tlbi in [false, true] {
                let guest = toggle(TRIPS, mmu, tlbi, false);
                let run = |tier_workers| {
                    let mut c = guest(CaptiveConfig {
                        tier_workers,
                        ..CaptiveConfig::default()
                    });
                    assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
                    c
                };
                let (tiered, sync) = (run(Some(2)), run(None));
                let case = format!("mmu {mmu}, tlbi {tlbi}");
                assert_eq!(tiered.guest_reg(19), 14 * TRIPS as u64 + 100, "{case}");
                for r in 0..31 {
                    assert_eq!(tiered.guest_reg(r), sync.guest_reg(r), "x{r}, {case}");
                }
                assert_eq!(
                    tiered.stats().differs_across_reruns(&sync.stats()),
                    None,
                    "{case}"
                );
                let site = RegionKey {
                    phys: SITE,
                    virt: SITE,
                };
                let (ours, theirs) = (tiered.cache.peek(site), sync.cache.peek(site));
                let (ours, theirs) = (ours.expect("cached"), theirs.expect("cached"));
                assert_eq!(
                    (&ours.code, ours.exit),
                    (&theirs.code, theirs.exit),
                    "{case}"
                );
                assert_eq!(tiered.cache.len(), sync.cache.len(), "{case}");
                let revived = tiered.speculation().revived;
                assert!(revived >= CALLS - 2, "{case}: {revived} of {CALLS}");
                assert_eq!(sync.speculation().revived, 0, "sync has no store");
            }
        }
    }

    #[test]
    fn words_beside_the_function_do_not_matter_words_it_read_do() {
        // Every trip also stores the trip count beside the function on its
        // page, so the page's bytes never repeat: the function's own words
        // still do, and that is all a revival asks.  The last call runs a
        // third encoding no template was made from — it must translate, not
        // revive anything (100, not 5 or 9).
        const TRIPS: u32 = 30;
        let mut c = toggle(TRIPS, false, false, true)(CaptiveConfig::default());
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(19), 14 * TRIPS as u64 + 100);
        assert_eq!(c.speculation().revived, 2 * TRIPS as u64 - 2);
    }

    #[test]
    fn a_region_that_replaced_a_kept_block_is_never_revived_as_one() {
        // A loop on a patched page: its head block keeps its words, then a
        // formed region replaces it at the same key, and a store beside the
        // loop drops the region.  The block's words still hold, but what was
        // dropped is not the block — publishing it under them would hand the
        // next tier-0 miss a looping region where `sync` runs a block.
        let mut main = asm::Assembler::new();
        main.mov_imm64(12, BESIDE);
        for trips in [1, 200, 3] {
            main.push(asm::movz(6, trips, 0));
            let at = 0x1000 + 4 * main.here() as i64;
            main.push(asm::bl(SITE as i64 - at));
            main.push(asm::str(6, 12, 0));
        }
        main.push(asm::hlt());
        let mut kernel = asm::Assembler::new();
        kernel.label("loop");
        kernel.push(asm::addi(19, 19, 1));
        kernel.push(asm::subi(6, 6, 1));
        kernel.cbnz_to(6, "loop");
        kernel.push(asm::ret());
        let segments = [(0x1000, main.finish()), (SITE, kernel.finish())];
        let run = |tier_workers| {
            let mut c = boot(
                CaptiveConfig {
                    tier_workers,
                    ..CaptiveConfig::default()
                },
                &segments,
            );
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            (c.guest_reg(19), c.stats())
        };
        let ((x19, tiered), (x19_sync, sync)) = (run(Some(2)), run(None));
        assert_eq!((x19, x19_sync), (204, 204));
        assert!(tiered.regions_formed >= 1, "the loop formed a region");
        assert_eq!(tiered.regions_formed, sync.regions_formed);
        assert_eq!(tiered.region_entries, sync.region_entries);
        assert_eq!(tiered.cycles, sync.cycles);
    }
}
