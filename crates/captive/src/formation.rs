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

use crate::tier::{self, FormationRequest, FormationResult, FormationSnapshot, PAGE_BYTES};
use crate::translator::{live_code_word, FormOutcome};
use crate::{layout, Captive, REGION_THRESHOLD};
use dbt::{Evidence, JitCounters, MadeFrom, Region, RegionKey, ReuseKey};
use hvm::Machine;
use std::sync::Arc;
use std::time::Instant;

/// Retry-backoff record for a trace head whose region formation failed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FormationBackoff {
    /// Consecutive failed formation attempts.
    failures: u32,
    /// Link heat at which the next attempt may run.
    next_retry_heat: u64,
    /// Set after [`QUARANTINE_AFTER`] failures: never attempt again.
    quarantined: bool,
}

/// Failed formation attempts after which a trace head is quarantined.
const QUARANTINE_AFTER: u32 = 4;

/// Link heat at which a fresh head's tier-1 request is published: halfway to
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
    /// hidden behind execution: at *half* the threshold a fresh head's
    /// request (snapshot + frozen profile) is published to the background
    /// service; at the threshold — the same guest-progress point where the
    /// synchronous mode forms, so modeled cycles are mode-independent — the
    /// region is obtained from the content-keyed reuse store, else from the
    /// in-flight worker result (both through the gate, discarded if their
    /// evidence no longer holds), else formed now ([`Captive::form_now`]).
    /// A head with a failure history goes straight to `form_now`: it is not
    /// published again, and the store keeps no record of a failure.
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
        let key = next.key();
        // Tier-1 publish point: a fresh head halfway to the threshold gets
        // its request snapshotted and queued.  Heads already in flight are
        // not re-published, and heads with a failure history retry
        // synchronously (their traces close too short either way).
        if self.tier.is_some()
            && heat == PUBLISH_POINT
            && !self.inflight.contains_key(&key)
            && !self.quarantine.contains_key(&key)
        {
            // A template that holds here already makes a worker round-trip
            // pointless: the install point will hit the reuse store.
            let covered = self.reuse.as_ref().is_some_and(|r| {
                r.covers(self.reuse_key_for(key, true), |e| self.evidence_holds(e))
            });
            if !covered {
                self.publish_formation(key);
            }
        }
        // Formation trigger with retry backoff: a head with no failure
        // history fires exactly at `REGION_THRESHOLD`; a failed head
        // waits for its (doubled) retry heat; a quarantined head never
        // fires again.
        let fresh = match self.quarantine.get(&key) {
            Some(q) if q.quarantined => return next,
            Some(q) => {
                if heat < q.next_retry_heat {
                    return next;
                }
                false
            }
            None => {
                if heat != REGION_THRESHOLD {
                    return next;
                }
                true
            }
        };
        if self.tier.is_some() && fresh {
            if let Some(region) = self.obtain_reuse(key, gen) {
                return self.install_formed(region, None, prev, slot, gen);
            }
            if self.inflight.contains_key(&key) {
                if let Some((region, evidence)) = self.obtain_async(key, gen) {
                    return self.install_formed(region, Some(evidence), prev, slot, gen);
                }
            }
        }
        match self.form_now(key) {
            FormOutcome::Formed { region, evidence } => {
                self.install_formed(*region, Some(evidence), prev, slot, gen)
            }
            _ => {
                // Nothing worth keeping came out (one-constituent trace, or
                // the translation bailed out).  Record the failure and back
                // off: the next attempt requires twice the heat, and
                // repeated failures quarantine the head for good.
                self.record_formation_failure(key, heat);
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
        self.quarantine.remove(&region.key());
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

    /// Records a failed formation attempt for `key` at link heat `heat` and
    /// applies the doubling backoff / quarantine policy.
    fn record_formation_failure(&mut self, key: RegionKey, heat: u64) {
        self.stats.formation_failures += 1;
        let q = self.quarantine.entry(key).or_insert(FormationBackoff {
            failures: 0,
            next_retry_heat: 0,
            quarantined: false,
        });
        q.failures += 1;
        q.next_retry_heat = heat.saturating_mul(2).max(1);
        if q.failures >= QUARANTINE_AFTER && !q.quarantined {
            q.quarantined = true;
            self.stats.regions_quarantined += 1;
        }
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
    /// sequence number and registers that number as the key's live request.
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
        self.inflight.insert(key, request.seq);
        self.tier.as_mut().expect("tiered mode").submit(request);
        self.stats.tier1_requests += 1;
    }

    /// Looks `key` up in the content-keyed reuse store, every candidate
    /// through the gate.  A hit supersedes any in-flight formation request
    /// for the key.
    fn obtain_reuse(&mut self, key: RegionKey, gen: u64) -> Option<Region> {
        let t0 = Instant::now();
        let reuse = self.reuse.as_ref()?;
        let hit = reuse.lookup(self.reuse_key_for(key, true), gen, |e| {
            self.evidence_holds(e)
        });
        if hit.is_some() {
            self.stats.reuse_hits += 1;
            self.inflight.remove(&key);
        } else {
            self.stats.reuse_misses += 1;
        }
        self.tier_timers.run_thread_stall += t0.elapsed();
        hit.map(|(region, _)| region)
    }

    /// Takes the in-flight tier-1 result for `key` — forming it on the run
    /// thread if no worker has claimed it yet, else waiting for it — and
    /// returns the region to install with the evidence to publish it under.
    /// `None` means the answer cannot be used — the trace closed too short,
    /// the region went stale between snapshot and install (counted as a
    /// discard, never installed), or the service is gone — and the caller
    /// forms now.
    fn obtain_async(&mut self, key: RegionKey, gen: u64) -> Option<(Region, Evidence)> {
        let expected = self.inflight.remove(&key)?;
        let t0 = Instant::now();
        let answer = loop {
            let result = match self.parked_results.remove(&key) {
                Some(r) => r,
                None => match self.tier.as_mut().expect("tiered mode").recv(key, expected) {
                    Some(r) => r,
                    // A job of this engine panicked and its others are
                    // booked: there is nothing to wait for.
                    None => break None,
                },
            };
            let (for_key, seq) = (result.request.key, result.request.seq);
            if (for_key, seq) == (key, expected) {
                // Pages the snapshot lacked are refilled and formed right
                // here; the gate checks whatever comes out regardless.
                break Some(self.refilled(result));
            }
            // A live result for a different key is parked until that key
            // reaches its own install point; superseded or abandoned results
            // are dropped on the floor — their timers too, so no counter
            // depends on worker scheduling.
            if self.inflight.get(&for_key) == Some(&seq) {
                self.parked_results.insert(for_key, result);
            }
        };
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
