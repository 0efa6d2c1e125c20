//! Region formation, the run thread's half: when a chain link gets hot, where
//! the region for its target comes from, and what is checked before any of
//! them is installed.
//!
//! A region reaches `Captive::install_formed` from one of three places: the
//! run thread forming it right now ([`Captive::form_now`]), a tier-1 worker
//! that formed it a while ago ([`crate::tier`]), or the content-keyed reuse
//! store ([`dbt::reuse`]), which holds what either of them formed earlier —
//! in this engine before a context-generation bump, or in another engine
//! running the same image.  The first two run one former, `tier::process`,
//! over one input, a [`FormationSnapshot`]; the run thread's is taken at the
//! install point.  The last two were not made from the machine as it is now,
//! so each carries the [`Evidence`] the tracer assembled
//! ([`crate::translator`]) and **one gate**, `Captive::evidence_holds`, is
//! the only place evidence is compared with the live machine: the tier-1
//! install (beside its context-generation compare), the template lookup,
//! the publish point's `covers`, the tier-0 revival and the speculative
//! pool's install ([`crate::spec`], which gates on evidence alone) call it,
//! and serve nothing it refuses.
//!
//! A trace head gets one formation attempt, when its link heat reaches
//! [`REGION_THRESHOLD`], and one record ([`Head`]) from its tier-1 publish on.
//! A head whose attempt forms nothing is quarantined; a head whose block
//! exits indirectly or opaquely is never tried, since its trace would stop
//! where its block stops.

use crate::tier::{self, FormationRequest, FormationResult, FormationSnapshot, PAGE_BYTES};
use crate::translator::{live_code_word, FormOutcome};
use crate::{layout, Captive, REGION_THRESHOLD};
use dbt::{BlockExit, Evidence, JitCounters, MadeFrom, Region, RegionKey, ReuseKey};
use hvm::Machine;
use std::sync::Arc;
use std::time::Instant;

/// What the run thread knows of a trace head it has published or tried: one
/// record per head, from its tier-1 publish to its install or quarantine.
pub(crate) enum Head {
    /// A tier-1 request for the head is out under this sequence number.
    Published(u64),
    /// The worker's answer to the head's live request, taken off the channel
    /// while the run thread waited for another head.
    Answered(Box<FormationResult>),
    /// The head's one formation attempt formed nothing: it is never
    /// published or formed again.
    Quarantined,
}

/// Link heat at which a head's tier-1 request is published: halfway to
/// [`REGION_THRESHOLD`], so the worker has the other half of the warm-up to
/// finish before the install point.
const PUBLISH_POINT: u64 = REGION_THRESHOLD / 2;

impl Captive {
    /// Profiles a chained transfer into `next` and, when its link heat
    /// crosses the hot threshold, obtains a multi-constituent region for the
    /// chained path starting at `next` and installs it.  Returns the
    /// translation to execute: the (possibly just-formed) region, otherwise
    /// `next` unchanged.
    ///
    /// **Tiered mode** splits the work across two points so formation runs
    /// hidden behind execution: at *half* the threshold a head with no
    /// record ([`Head`]) has its request (snapshot + frozen profile)
    /// published to the background service; at the threshold — the same
    /// guest-progress point where the synchronous mode forms, so modeled
    /// cycles are mode-independent — the region is obtained from the
    /// content-keyed reuse store, else from the worker's answer (both
    /// through the gate, discarded if their evidence no longer holds), else
    /// formed now ([`Captive::form_now`]).  That is the head's one attempt:
    /// if nothing forms, the head is quarantined and never tried again.  A
    /// head whose block exits indirectly or opaquely is never tried at all:
    /// its trace would end where its block ends.
    pub(crate) fn maybe_form_region(
        &mut self,
        prev: &Arc<Region>,
        slot: usize,
        next: Arc<Region>,
    ) -> Arc<Region> {
        if next.gated() {
            return next;
        }
        let heat = prev.heat_up(slot);
        if heat == 1 {
            self.cache.note_heated(prev.key());
        }
        let gen = self.runtime.context_generation();
        // Another predecessor may already have widened this entry: the
        // dispatcher-held `next` then outlives its replaced cache slot, and
        // the link just needs re-pointing (a stat-free peek — this is the
        // former's own bookkeeping, not a dispatch lookup — that takes a
        // reference only when it re-points).
        let widened = self.cache.peek_with(next.key(), |r| {
            r.gated().then(|| (r.ctx_gen == gen).then(|| Arc::clone(r)))
        });
        match widened.flatten() {
            Some(Some(r)) => {
                prev.set_link(slot, gen, self.cache.epoch(), &r);
                return r;
            }
            Some(None) => return next,
            None => {}
        }
        // The tracer stops at the terminator the block translator stopped
        // at, on the same page: such a head forms a one-constituent trace.
        if matches!(next.exit, BlockExit::Indirect | BlockExit::Opaque) {
            return next;
        }
        let key = next.key();
        // Tier-1 publish point: a head with no record halfway to the
        // threshold gets its request snapshotted and queued.
        if self.tier.is_some() && heat == PUBLISH_POINT && !self.heads.contains_key(&key) {
            // A template that holds here already makes a worker round-trip
            // pointless: the install point will hit the reuse store.
            let covered = self.reuse.as_ref().is_some_and(|r| {
                r.covers(self.reuse_key_for(key, true), |e| self.evidence_holds(e))
            });
            if !covered {
                self.publish_formation(key);
            }
        }
        if heat != REGION_THRESHOLD || matches!(self.heads.get(&key), Some(Head::Quarantined)) {
            return next;
        }
        if self.tier.is_some() {
            if let Some(region) = self.obtain_reuse(key, gen) {
                return self.install_formed(region, None, prev, slot, gen);
            }
            if let Some((region, evidence)) = self.obtain_async(key, gen) {
                return self.install_formed(region, Some(evidence), prev, slot, gen);
            }
        }
        match self.form_now(key) {
            FormOutcome::Formed { region, evidence } => {
                self.install_formed(*region, Some(evidence), prev, slot, gen)
            }
            _ => {
                // Nothing worth keeping came out (one-constituent trace, or
                // the translation bailed out).
                self.stats.regions_quarantined += 1;
                self.heads.insert(key, Head::Quarantined);
                next
            }
        }
    }

    /// Forms the region at `key` on the run thread, now: takes a snapshot,
    /// runs the one former (`tier::process`) on it inline, and refills from
    /// live memory whatever pages it was missing until it answers.  A
    /// snapshot taken now holds the words, translations, context generation
    /// and branch heats the machine holds now, so what forms needs no gate.
    /// The former's JIT timers join the engine's; all of its wall clock is
    /// run-thread stall.  Never [`FormOutcome::NeedPages`].
    pub fn form_now(&mut self, key: RegionKey) -> FormOutcome {
        let t0 = Instant::now();
        let request = self.request_now(key);
        let result = self.refilled(tier::process(&self.isa, request));
        self.timers.merge(&result.timers);
        self.tier_timers.run_thread_stall += t0.elapsed();
        result.outcome
    }

    /// The one refill loop: while the former answered `result` with the
    /// pages its snapshot was missing, adds their live bytes and forms
    /// again, on the run thread.  Never [`FormOutcome::NeedPages`].
    fn refilled(&self, mut result: FormationResult) -> FormationResult {
        while let FormOutcome::NeedPages(pages) = result.outcome {
            let mut request = result.request;
            self.refill(&mut request.snapshot, pages);
            result = tier::process(&self.isa, request);
        }
        result
    }

    /// Installs a formed (or reused) region: write-protects its pages,
    /// publishes it for content-keyed reuse with the `evidence` it was
    /// formed from (`None` for a region that just *came from* the reuse
    /// cache), inserts it at its key and re-points the triggering chain
    /// link.  Shared by the synchronous, asynchronous and reuse paths so the
    /// bookkeeping cannot diverge.
    fn install_formed(
        &mut self,
        region: Region,
        evidence: Option<Evidence>,
        prev: &Arc<Region>,
        slot: usize,
        gen: u64,
    ) -> Arc<Region> {
        // Write-protect every constituent page so self-modifying code on any
        // of them invalidates the region.
        for page in &region.pages {
            self.runtime.note_code_page(&mut self.machine, *page);
        }
        if region.unroll > 1 {
            self.stats.regions_unrolled += 1;
        }
        if region.back_edges > 0 {
            self.stats.loop_regions_formed += 1;
        }
        if let (Some(reuse), Some(evidence)) = (&self.reuse, evidence) {
            let made_from = MadeFrom {
                key: self.reuse_key_for(region.key(), true),
                evidence,
                counters: JitCounters::default(),
            };
            reuse.publish(&region, made_from);
        }
        let region = self.cache.insert(region);
        self.stats.regions_formed += 1;
        self.tier_timers.record_install(self.launch.elapsed());
        prev.set_link(slot, gen, self.cache.epoch(), &region);
        region
    }

    /// Captures a formation snapshot of the current translation state: the
    /// bytes of every known code page, the MMU/translation registers, and
    /// the frozen branch-heat profile.
    pub(crate) fn capture_snapshot(&mut self) -> FormationSnapshot {
        let machine = &self.machine;
        FormationSnapshot {
            ctx_gen: self.runtime.context_generation(),
            mmu_enabled: self.runtime.mmu_enabled(machine),
            ttbr0: self.runtime.ttbr0(machine),
            guest_ram: self.config.guest_ram,
            pages: self
                .runtime
                .code_page_copies(|page| read_live_page(machine, page)),
            heats: self.cache.branch_profiles(),
        }
    }

    /// A formation request for `key` over a snapshot taken now, under the
    /// engine's knobs (its sequence number is stamped at publish).
    fn request_now(&mut self, key: RegionKey) -> FormationRequest {
        FormationRequest {
            seq: 0,
            key,
            snapshot: self.capture_snapshot(),
            knobs: Arc::clone(&self.knobs),
        }
    }

    /// Publishes a tier-1 formation request for `key` under a fresh
    /// sequence number and records that number as the head's live request.
    fn publish_formation(&mut self, key: RegionKey) {
        let t0 = Instant::now();
        let mut request = self.request_now(key);
        // Only the snapshot capture counts as run-thread translation stall:
        // the hand-off below wakes a sleeping worker, and the host scheduler
        // frequently deschedules the sender at that wake point — a
        // scheduling artefact, none of it translation work.  The capture
        // itself shares the code pages instead of copying them and freezes
        // the heats of the blocks that ever chained, not of the whole cache
        // (that walk was ~0.4 ms per request with `cold_code`'s ~15 k cached
        // blocks, 88 % of which ran once).
        self.tier_timers.run_thread_stall += t0.elapsed();
        request.seq = self.next_seq;
        self.next_seq += 1;
        self.heads.insert(key, Head::Published(request.seq));
        self.tier.as_mut().expect("tiered mode").submit(request);
        self.stats.tier1_requests += 1;
    }

    /// Looks `key` up in the content-keyed reuse store, every candidate
    /// through the gate.  A hit supersedes the head's record: its request's
    /// answer, when it comes, is dropped.
    fn obtain_reuse(&mut self, key: RegionKey, gen: u64) -> Option<Region> {
        let t0 = Instant::now();
        let reuse = self.reuse.as_ref()?;
        let hit = reuse.lookup(self.reuse_key_for(key, true), gen, |e| {
            self.evidence_holds(e)
        });
        if hit.is_some() {
            self.stats.reuse_hits += 1;
            self.heads.remove(&key);
        } else {
            self.stats.reuse_misses += 1;
        }
        self.tier_timers.run_thread_stall += t0.elapsed();
        hit.map(|(region, _)| region)
    }

    /// Takes the head's record and, for a published head, the tier-1 answer
    /// to its request — already parked in the record, else formed on the run
    /// thread if no worker has claimed it yet, else waited for — and returns
    /// the region to install with the evidence to publish it under.  `None`
    /// means there is no record or the answer cannot be used — the trace
    /// closed too short, the region went stale between snapshot and install
    /// (counted as a discard, never installed), or the service is gone — and
    /// the caller forms now.
    fn obtain_async(&mut self, key: RegionKey, gen: u64) -> Option<(Region, Evidence)> {
        let t0 = Instant::now();
        let answer = match self.heads.remove(&key)? {
            Head::Answered(result) => Some(*result),
            Head::Published(expected) => loop {
                let tier = self.tier.as_mut().expect("tiered mode");
                // `None`: a job of this engine panicked and its others are
                // booked, so there is nothing to wait for.
                let Some(result) = tier.recv(key, expected) else {
                    break None;
                };
                let (for_key, seq) = (result.request.key, result.request.seq);
                if (for_key, seq) == (key, expected) {
                    break Some(result);
                }
                // The answer to another head's live request is parked in its
                // record until that head reaches its own install point;
                // superseded or abandoned answers are dropped on the floor —
                // their timers too, so no counter depends on worker
                // scheduling.
                if let Some(head) = self.heads.get_mut(&for_key) {
                    if matches!(head, Head::Published(live) if *live == seq) {
                        *head = Head::Answered(Box::new(result));
                    }
                }
            },
            Head::Quarantined => unreachable!("a quarantined head is never formed again"),
        };
        // Pages the snapshot lacked are refilled and formed right here; the
        // gate checks whatever comes out regardless.
        let answer = answer.map(|result| self.refilled(result));
        self.tier_timers.run_thread_stall += t0.elapsed();
        let result = answer?;
        self.timers.merge(&result.timers);
        self.tier_timers.worker_wall += result.wall;
        match result.outcome {
            // The install gate: the region must have been formed under the
            // current context generation AND from what the live machine still
            // holds.
            FormOutcome::Formed { region, evidence }
                if region.ctx_gen == gen && self.evidence_holds(&evidence) =>
            {
                self.stats.regions_installed_async += 1;
                Some((*region, evidence))
            }
            FormOutcome::Formed { .. } => {
                self.stats.stale_discards += 1;
                None
            }
            // The trace closed too short, or lowering bailed out: the caller
            // forms now, from what the machine holds now.
            _ => None,
        }
    }

    /// Adds to `snapshot` the live bytes of `pages`, which a former found
    /// missing from it.
    fn refill(&self, snapshot: &mut FormationSnapshot, pages: Vec<u64>) {
        for page in pages {
            snapshot.insert_page(page, read_live_page(&self.machine, page));
        }
    }

    /// The reuse-store key of a translation entered at `key` under the
    /// engine's knobs: a formed region's, or (`formed` false) a block's.
    pub(crate) fn reuse_key_for(&self, key: RegionKey, formed: bool) -> ReuseKey {
        ReuseKey {
            phys: key.phys,
            virt: key.virt,
            knobs: self.knobs.packed(formed),
        }
    }

    /// **The gate.**  Whether everything a translation was made from is still
    /// true of the live machine: every recorded virtual page resolves *now* to
    /// the recorded physical page, and every word it decoded is, word for
    /// word, what memory holds (read as the translator fetches it).
    /// Translations go through the uncharged walker — never the fetch iTLB,
    /// whose counters belong to the dispatcher — so asking costs no
    /// simulated cycle and moves no counter.
    pub(crate) fn evidence_holds(&self, evidence: &Evidence) -> bool {
        let resolves = |&(va, pa): &(u64, u64)| {
            self.runtime.guest_va_to_pa(&self.machine, va, false).ok() == Some(pa)
        };
        let unchanged = |&(pa, word): &(u64, u32)| live_code_word(&self.machine, pa) == word;
        evidence.translations.iter().all(resolves) && evidence.words.iter().all(unchanged)
    }
}

/// A copy of one live guest physical page, for a snapshot refill or a
/// speculation copy to own: zeros past the end of backed memory.
pub(crate) fn read_live_page(machine: &Machine, page_base: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; PAGE_BYTES];
    let base = layout::GUEST_PHYS_BASE + page_base;
    if machine.mem.read(base, &mut bytes).is_err() {
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = machine.mem.read_uint(base + i as u64, 1).unwrap_or(0) as u8;
        }
    }
    bytes
}
