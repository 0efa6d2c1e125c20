//! The tier workers: one pool of background threads with two kinds of job.
//!
//! # Tier-1 formation
//!
//! Tracing, unrolling, loop closure, the LIR optimiser and register
//! allocation over a hot chained path are expensive, and this module moves
//! them off the run thread:
//!
//! * When a chain link is *halfway* to the formation threshold the run
//!   thread captures a [`FormationSnapshot`] — context generation,
//!   translation state, the bytes of every code page, and a frozen
//!   branch-heat profile — and publishes a [`FormationRequest`] to the
//!   [`TierService`].
//! * A worker thread traces and translates the region **entirely from the
//!   snapshot** via [`SnapshotSource`] (never touching live guest state),
//!   and hands back what the run thread's own former would: a
//!   [`FormOutcome`], the formed region (or the refusal) with the
//!   [`dbt::Evidence`] it was made from — every word it decoded as the
//!   snapshot held it, every translation the snapshot's tables gave.
//! * When the link finally crosses the threshold, the run thread drains the
//!   result and installs it through the ordinary replace-at-key mechanism —
//!   but only if it was formed under the current context generation and
//!   its evidence still holds on the live machine
//!   (`Captive::evidence_holds`, the one gate, in [`crate::formation`]).  A
//!   region formed against a stale generation, a since-patched page or a
//!   since-moved mapping is *discarded*, never installed.
//!
//! A snapshot is seeded with the pages already known to hold translated code;
//! anything else the trace needs (page-table pages on an MMU-on guest, a
//! straight-line fall-through onto a fresh page) surfaces as
//! [`FormOutcome::NeedPages`], and the run thread refills the snapshot from
//! live memory and resubmits — keeping snapshot capture cheap without
//! guessing the reachable set up front.  The table pages a snapshot walk
//! read are *not* evidence: what the region depends on is where the walk
//! ended, which the gate re-resolves, not which of a table page's 512
//! entries hold what.
//!
//! # Speculative tier-0 translation
//!
//! The guest needs a block's translation the moment it first dispatches it,
//! so tier 0 is on the run thread's critical path — on a guest that runs
//! most blocks once it *is* the critical path (`cold_code`: 245 ms of a
//! 380 ms run in 15 751 `translate_block` calls) while the workers above
//! sleep.  So a worker with nothing to form translates **ahead of the
//! guest**: whenever the run thread installs a tier-0 block it hands over
//! that block's static successors ([`crate::spec`]: the terminator's direct
//! targets, and the address after a call, exception or system instruction)
//! with a copy of the page each lies on; a worker runs the *same*
//! [`crate::translator::translate_block_from`] over the copy, parks the
//! result in a bounded ready pool, and keeps following the result's own
//! successors — same-page ones by offset arithmetic, cross-page ones when
//! the chain was seeded with the guest MMU off (physical = virtual) and the
//! run thread has already copied that page.  Formation requests always come
//! first: the run thread blocks on those.
//!
//! **What must not change, and why it cannot.**  Speculation decides *who*
//! runs the translator, never what it produces or when the product is
//! installed.  A block translation is a pure function of its addresses, the
//! codegen knobs (fixed when the engine is made) and the words the
//! translator fetched.  The tier-0 miss path asks the pool for `(pa, pc)`;
//! a parked result is used only if the one gate (`Captive::evidence_holds`)
//! finds every word it was made from in live memory *now*.  Then the miss path does what it always did:
//! `note_code_page`, `cache.insert`, `translations += 1`, and the result's
//! own [`dbt::PhaseTimers`] (wall clocks and static counters alike) merged
//! once.  Anything else — nothing parked, still queued or in flight, a
//! mismatch — is the synchronous `translate_block`, and whatever a worker
//! finishes for that key afterwards is dropped with its timers.  Nothing but
//! the miss path can see the pool; speculation never looks a block up in the
//! code cache, touches `code_pages`' key set or write protection, or writes
//! a `RunStats` field, so simulated cycles and every deterministic counter
//! are those of the `sync` configuration, run after run.  How many installs
//! the pool served depends on host scheduling; it is reported by
//! [`crate::Captive::speculation`] for tests and ledgers and deliberately
//! kept out of `RunStats`.
//!
//! **Policy bounds**, each set by a measurement (`cold_code`, seed 1,
//! reference box: 2 cores):
//!
//! * *Speculation needs a core of its own.*  It is off when the host offers
//!   one thread, and occupies at most `available_parallelism() - 1` workers
//!   (two speculating workers on two cores: noisier, no faster).
//! * *Order is breadth-first from what the run thread installed,* which for
//!   call-structured code tracks execution order (caller, callee blocks,
//!   return address …).  Following only in-page successors and waiting for
//!   the run thread to seed every callee starved: 2–5 % of translations
//!   served, the callees queued behind a main-line chain 500 blocks ahead.
//! * *No page sweeps.*  The address after a `ret`/`b`/`br` is followed only
//!   if something branches there.  Taking it up when idle translated ≈ 1 050
//!   such blocks per run and aged ≈ 1 700 results out unused (17 % of worker
//!   translations): code next in the image is not code next in time.
//! * *A chain stops at a zero or undefined entry word* — padding, not code
//!   (`indirect_dispatch`'s 256 code pages are > 95 % zero words, and zero
//!   decodes as `nop` here: 64-instruction blocks of nothing).
//! * *A page whose translations were ever invalidated, or that served a
//!   stale result, is never speculated on again.*  A patch loop re-queued
//!   the page on every trip otherwise (`sys.smc` 175 → 430 ms).  What serves
//!   a patched page instead is the reuse store: blocks translated there keep
//!   their words and come back as templates when the guest writes the same
//!   words back ([`crate::spec`], *Patched pages*).
//! * *Nothing is queued twice:* one seen bit per word of every page
//!   speculation knows, set when an entry is queued and when the run thread
//!   installs one.
//! * *The pool is bounded* ([`crate::spec::POOL_MAX`] parked or in flight);
//!   a full pool **parks** the frontier rather than dropping it (dropping
//!   loses the frontier for good — an erratic 3–26 % served) and a sleeping
//!   worker is woken when the pool has drained to half.  128 serves as many
//!   installs as 512 did and keeps `peak_rss_mib` within 2 % of the parent;
//!   parked results older than four pools' worth of installs are evicted so
//!   legs the guest never takes cannot park the frontier forever.
//! * *One copy per page.*  A code page's copy is the one in its `code_pages`
//!   entry, shared with formation snapshots; only a cross-page target that
//!   holds no translated code yet gets a private (unprotected) copy — the
//!   case the gate at install exists for.
//! * *Installed code lives in the run thread's allocations.*  The run thread
//!   copies a pool result's code and sends the original back to be freed by
//!   a worker: left in a worker's malloc arena the code pinned that arena
//!   after the engine was gone (+20 % peak RSS over ten engines in a row);
//!   freed by the run thread it took the arena lock against the translating
//!   worker on every install (≈ 730 futex sleeps per run, ≈ 35 ms).
//!
//! With `tier_workers: Some(0)` the service runs in *pump mode*: formation
//! requests queue locally and are processed inline (on the run thread) at
//! the drain point, and speculative jobs are translated inline — frontier
//! and all — right where the run thread queues them.  Outcomes are identical
//! to the threaded service; pump mode exists so tests can interleave guest
//! stores between publish and drain, or between a speculative translation
//! and its install, fully deterministically.

use crate::spec::{Frontier, Knobs};
use crate::translator::{form_region_from, FormOutcome, SourceRead, TraceSource};
use dbt::{PhaseTimers, RegionKey};
use guest_aarch64::{mmu, Aarch64Isa};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Guest page size (the snapshot's unit of capture and validation).
pub const PAGE_BYTES: usize = 4096;

/// An immutable view of everything region formation reads: captured on the
/// run thread at publish time, consumed by a worker.  Workers never touch
/// the live machine.
#[derive(Debug, Clone)]
pub struct FormationSnapshot {
    /// Context generation the snapshot (and any region formed from it) is
    /// stamped with.
    pub ctx_gen: u64,
    /// Guest MMU state at capture.
    pub mmu_enabled: bool,
    /// Guest translation root at capture (only consulted when the MMU is on).
    pub ttbr0: u64,
    /// Guest RAM size (bounds for identity mapping and walk reads).
    pub guest_ram: u64,
    /// Captured page bytes, keyed by guest physical page base (code pages
    /// are shared with later snapshots, see
    /// [`crate::runtime::CaptiveRuntime::code_page_copies`]).
    pub pages: HashMap<u64, Arc<[u8]>>,
    /// Frozen branch-link profile: (taken, fallthrough) heats per cached
    /// conditional block, used by the tracer's leg selection.  Sorted by
    /// key, as [`dbt::CodeCache::branch_profiles`] returns it; looked up by
    /// binary search.
    pub heats: Vec<(RegionKey, (u64, u64))>,
}

impl FormationSnapshot {
    /// Adds (or replaces) a captured page.
    pub fn insert_page(&mut self, page_base: u64, bytes: Vec<u8>) {
        debug_assert_eq!(bytes.len(), PAGE_BYTES);
        self.pages.insert(page_base & !0xFFF, bytes.into());
    }
}

/// One queued tier-1 formation job: the hot region key plus the snapshot and
/// codegen knobs to form it with.
#[derive(Debug, Clone)]
pub struct FormationRequest {
    /// Submission sequence number; a result is only honoured while its
    /// sequence is still the key's registered in-flight request.
    pub seq: u64,
    /// The trace head to form a region at.
    pub key: RegionKey,
    /// The immutable state to form against.
    pub snapshot: FormationSnapshot,
    /// The codegen knobs to form it under: the engine's own `Arc`, so the
    /// run thread and every worker translate alike.
    pub knobs: Arc<Knobs>,
}

/// A worker's reply, routed back to the run thread.
#[derive(Debug)]
pub struct FormationResult {
    /// The request this answers, handed back whole: its `seq` and `key`
    /// route the reply, and a [`FormOutcome::NeedPages`] reply is answered by
    /// refilling its snapshot and submitting it again.
    pub request: FormationRequest,
    /// What the former made of it — exactly what it would have returned on
    /// the run thread.
    pub outcome: FormOutcome,
    /// JIT phase timers accumulated by this formation.
    pub timers: PhaseTimers,
    /// Worker wall-clock spent on this request.
    pub wall: Duration,
}

/// [`TraceSource`] over a [`FormationSnapshot`]: every read the region
/// former performs resolves against captured bytes, never the live machine.
pub struct SnapshotSource<'a> {
    snapshot: &'a FormationSnapshot,
    /// Pages a failed walk found absent from the snapshot (scratch, drained
    /// into [`SourceRead::Missing`] by `va_to_pa`).
    walk_missing: Vec<u64>,
}

impl<'a> SnapshotSource<'a> {
    /// Creates a source over `snapshot`.
    pub fn new(snapshot: &'a FormationSnapshot) -> Self {
        SnapshotSource {
            snapshot,
            walk_missing: Vec::new(),
        }
    }

    /// Reads a 64-bit little-endian word of captured guest physical memory
    /// for the page-table walker, recording absent pages in `walk_missing`.
    fn read_walk_u64(&mut self, gpa: u64) -> Option<u64> {
        // Same bounds rule as the live runtime's walk reads.
        match gpa.checked_add(8) {
            Some(end) if end <= self.snapshot.guest_ram => {}
            _ => return None,
        }
        let mut value = 0u64;
        for i in 0..8 {
            let addr = gpa + i;
            let page = addr & !0xFFF;
            match self.snapshot.pages.get(&page) {
                Some(bytes) => value |= (bytes[(addr & 0xFFF) as usize] as u64) << (8 * i),
                None => {
                    self.walk_missing.push(page);
                    return None;
                }
            }
        }
        Some(value)
    }
}

impl TraceSource for SnapshotSource<'_> {
    fn ctx_gen(&self) -> u64 {
        self.snapshot.ctx_gen
    }

    fn va_to_pa(&mut self, va: u64) -> SourceRead<u64> {
        if !self.snapshot.mmu_enabled {
            return if va < self.snapshot.guest_ram {
                SourceRead::Ok(va)
            } else {
                SourceRead::Fault
            };
        }
        self.walk_missing.clear();
        let ttbr0 = self.snapshot.ttbr0;
        match mmu::walk_guest(|a| self.read_walk_u64(a), ttbr0, va) {
            Ok(walk) => SourceRead::Ok(walk.frame | (va & 0xFFF)),
            Err(_) => match self.walk_missing.first() {
                // The walk only failed because a table page was not captured:
                // ask for it rather than reporting a (wrong) guest fault.
                Some(&page) => SourceRead::Missing(page),
                None => SourceRead::Fault,
            },
        }
    }

    fn read_code_word(&mut self, pa: u64) -> SourceRead<u32> {
        // Both dispatchers fault a misaligned PC before any fetch, and every
        // PC a formation walks to from an aligned entry is aligned, so a
        // word never straddles the end of a captured page.
        debug_assert!(pa & 3 == 0, "code fetch from misaligned {pa:#x}");
        let page = pa & !0xFFF;
        match self.snapshot.pages.get(&page) {
            Some(bytes) => {
                let off = (pa & 0xFFF) as usize;
                SourceRead::Ok(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()))
            }
            // Out-of-RAM fetches degrade to 0 (an UNDEF), matching the live
            // source; a refill could never provide these pages.
            None if pa.saturating_add(4) > self.snapshot.guest_ram => SourceRead::Ok(0),
            None => SourceRead::Missing(page),
        }
    }

    fn branch_heats(&self, key: RegionKey) -> Option<(u64, u64)> {
        let heats = &self.snapshot.heats;
        let at = heats.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(heats[at].1)
    }
}

/// Forms one request against its snapshot.  Pure: reads only the request,
/// so the same request always produces the same result — tier-1 outcomes
/// are a deterministic function of what the run thread published.
fn process(isa: &Aarch64Isa, request: FormationRequest) -> FormationResult {
    let start = Instant::now();
    let mut timers = PhaseTimers::default();
    let outcome = form_region_from(
        isa,
        &mut SnapshotSource::new(&request.snapshot),
        &mut timers,
        request.key.virt,
        request.key.phys,
        &request.knobs,
    );
    FormationResult {
        request,
        outcome,
        timers,
        wall: start.elapsed(),
    }
}

/// What the run thread and the workers share: the formation queue, the
/// speculation frontier, and the bookkeeping the wake-up rule needs.
struct Queues {
    formations: VecDeque<FormationRequest>,
    frontier: Frontier,
    /// Workers asleep on [`Shared::wake`].  `Condvar::notify_one` is a
    /// system call whether or not anyone waits, and the run thread would
    /// otherwise pay it on every tier-0 install.
    idle: usize,
    shutdown: bool,
}

struct Shared {
    queues: Mutex<Queues>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues
            .lock()
            .expect("a tier worker panicked holding the queue lock")
    }
}

/// The worker pool.  `submit` never blocks; `recv` blocks until *some*
/// formation result is available (the caller routes results it was not
/// waiting for).  Speculative tier-0 jobs travel through the crate-internal
/// `with_frontier` in both directions.  Dropping the service
/// raises the shutdown flag and joins every worker; a worker looks at the
/// flag between jobs, so the drop waits for at most one job per worker.
pub struct TierService {
    shared: Arc<Shared>,
    /// Formation results from the workers (never fed in pump mode).
    results: Receiver<FormationResult>,
    /// Empty in pump mode.
    handles: Vec<JoinHandle<()>>,
    /// Workers that may speculate at once (the frontier's slot count).
    spec_slots: usize,
    isa: Aarch64Isa,
}

/// One worker: formation requests first (the run thread blocks on those),
/// then one speculative block at a time, asleep when there is neither.
fn worker(shared: &Shared, results: &Sender<FormationResult>) {
    let isa = Aarch64Isa;
    let mut spent = Vec::new();
    let mut queues = shared.lock();
    while !queues.shutdown {
        if let Some(request) = queues.formations.pop_front() {
            drop(queues);
            if results.send(process(&isa, request)).is_err() {
                return;
            }
            queues = shared.lock();
        } else if let Some(job) = queues.frontier.next_job() {
            // More runnable work than this worker just claimed: share it.
            if queues.idle > 0 && queues.frontier.can_start() {
                shared.wake.notify_one();
            }
            queues.frontier.swap_spent(&mut spent);
            drop(queues);
            spent.clear();
            let outcome = job.translate();
            queues = shared.lock();
            queues.frontier.finish(&job, outcome);
        } else {
            queues.idle += 1;
            queues = shared
                .wake
                .wait(queues)
                .expect("a tier worker panicked holding the queue lock");
            queues.idle -= 1;
        }
    }
}

/// Host threads this process may run on, looked up once (the probe reads
/// the affinity mask and cgroup files — too slow for every engine).
fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl TierService {
    /// Creates the service with `workers` background threads (0 = pump mode).
    pub fn new(workers: usize) -> Self {
        // Speculation wants a core of its own: with one host thread it is
        // off (the workers would only take time from the run thread), and
        // it never occupies more workers than there are spare cores.  Pump
        // mode runs it inline, deterministically, whatever the host.
        let spec_slots = if workers == 0 {
            1
        } else {
            workers.min(host_parallelism() - 1)
        };
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                formations: VecDeque::new(),
                frontier: Frontier::new(spec_slots),
                idle: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        // `res_tx` clones live only in the workers, so `recv` unblocks (with
        // an error) if every worker exits.
        let (res_tx, results) = channel::<FormationResult>();
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx = res_tx.clone();
                std::thread::spawn(move || worker(&shared, &tx))
            })
            .collect();
        TierService {
            shared,
            results,
            handles,
            spec_slots,
            isa: Aarch64Isa,
        }
    }

    /// True when running in pump (inline) mode.
    pub fn is_pump(&self) -> bool {
        self.handles.is_empty()
    }

    /// True when tier-0 blocks are translated speculatively.
    pub fn speculates(&self) -> bool {
        self.spec_slots > 0
    }

    /// Queues a formation request.
    pub fn submit(&mut self, req: FormationRequest) {
        let mut queues = self.shared.lock();
        queues.formations.push_back(req);
        if queues.idle > 0 {
            self.shared.wake.notify_one();
        }
    }

    /// Blocks until one result is available and returns it; `None` when no
    /// result can ever arrive (pump queue empty, or all workers gone).
    pub fn recv(&mut self) -> Option<FormationResult> {
        if self.is_pump() {
            let req = self.shared.lock().formations.pop_front()?;
            Some(process(&self.isa, req))
        } else {
            self.results.recv().ok()
        }
    }

    /// Runs `f` on the speculation frontier under the queue lock, then
    /// wakes a sleeping worker if `f` left it something to do.
    pub(crate) fn with_frontier<R>(&self, f: impl FnOnce(&mut Frontier) -> R) -> R {
        let mut queues = self.shared.lock();
        let result = f(&mut queues.frontier);
        if queues.idle > 0 && queues.frontier.worth_waking() {
            self.shared.wake.notify_one();
        }
        result
    }

    /// Pump mode's deterministic drain point: translates queued speculative
    /// jobs inline, successors included, until the frontier is empty or the
    /// pool full.
    pub(crate) fn pump_speculation(&self) {
        loop {
            let mut queues = self.shared.lock();
            let mut spent = Vec::new();
            queues.frontier.swap_spent(&mut spent);
            let Some(job) = queues.frontier.next_job() else {
                return;
            };
            drop(queues);
            drop(spent);
            let outcome = job.translate();
            self.shared.lock().frontier.finish(&job, outcome);
        }
    }
}

impl Drop for TierService {
    fn drop(&mut self) {
        // Must not panic, and a poisoned lock still guards a valid flag.
        self.shared
            .queues
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::asm;

    fn snapshot_with_code(words: &[u32], base: u64) -> FormationSnapshot {
        let mut page = vec![0u8; PAGE_BYTES];
        for (i, w) in words.iter().enumerate() {
            let off = (base & 0xFFF) as usize + i * 4;
            // Words past the page boundary belong to the next page — the
            // caller decides whether that page is in the snapshot.
            if off + 4 <= PAGE_BYTES {
                page[off..off + 4].copy_from_slice(&w.to_le_bytes());
            }
        }
        let mut pages = HashMap::new();
        pages.insert(base & !0xFFF, page.into());
        FormationSnapshot {
            ctx_gen: 0,
            mmu_enabled: false,
            ttbr0: 0,
            guest_ram: 32 * 1024 * 1024,
            pages,
            heats: Vec::new(),
        }
    }

    fn self_loop_words() -> Vec<u32> {
        let mut a = asm::Assembler::new();
        a.label("loop");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        a.finish()
    }

    fn request(snapshot: FormationSnapshot, entry: u64) -> FormationRequest {
        FormationRequest {
            seq: 1,
            key: RegionKey {
                phys: entry,
                virt: entry,
            },
            snapshot,
            knobs: Knobs::new(&crate::CaptiveConfig::default()),
        }
    }

    #[test]
    fn worker_forms_a_looping_region_from_a_snapshot() {
        let mut service = TierService::new(1);
        service.submit(request(
            snapshot_with_code(&self_loop_words(), 0x1000),
            0x1000,
        ));
        let result = service.recv().expect("one result");
        assert_eq!(result.request.seq, 1);
        match result.outcome {
            FormOutcome::Formed { region, evidence } => {
                assert!(region.back_edges > 0, "the self-loop closes internally");
                assert!(region.unroll > 1, "the body is peeled");
                let words = &self_loop_words()[..3];
                let decoded: Vec<(u64, u32)> =
                    (0x1000..).step_by(4).zip(words.iter().copied()).collect();
                assert_eq!(evidence.words, decoded, "the loop's three words, once each");
                assert_eq!(evidence.translations, [(0x1000, 0x1000)], "MMU off");
            }
            other => panic!("expected a formed region, got {other:?}"),
        }
    }

    #[test]
    fn pump_mode_produces_identical_outcomes_inline() {
        let mut threaded = TierService::new(2);
        let mut pump = TierService::new(0);
        assert!(pump.is_pump() && !threaded.is_pump());
        let words = self_loop_words();
        threaded.submit(request(snapshot_with_code(&words, 0x1000), 0x1000));
        pump.submit(request(snapshot_with_code(&words, 0x1000), 0x1000));
        let a = threaded.recv().expect("threaded result");
        let b = pump.recv().expect("pump result");
        match (&a.outcome, &b.outcome) {
            (
                FormOutcome::Formed {
                    region: ra,
                    evidence: ea,
                },
                FormOutcome::Formed {
                    region: rb,
                    evidence: eb,
                },
            ) => {
                assert_eq!(ra.code, rb.code, "identical host code");
                assert_eq!(ra.constituents, rb.constituents);
                assert_eq!(ea, eb, "identical evidence");
            }
            other => panic!("both must form: {other:?}"),
        }
        assert!(pump.recv().is_none(), "pump queue is drained");
    }

    #[test]
    fn missing_page_round_trips_through_need_pages() {
        // Code that falls through onto an uncaptured page: the worker must
        // ask for the page, and the refilled request must then form.
        let mut a = asm::Assembler::new();
        // A hot two-block loop whose second block sits on the next page.
        a.push(asm::movz(1, 100, 0));
        a.label("loop");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let words = a.finish();
        // Entry near the end of the page so the trace crosses into the next.
        let entry = 0x2000 - 8;
        let mut snapshot = snapshot_with_code(&words, entry);
        let mut service = TierService::new(0);
        service.submit(request(snapshot.clone(), entry));
        let result = service.recv().expect("first pass");
        let (req, pages) = match result.outcome {
            FormOutcome::NeedPages(pages) => (result.request, pages),
            other => panic!("expected NeedPages, got {other:?}"),
        };
        assert_eq!(pages, vec![0x2000], "the next page is requested");
        // Refill: copy the overflowing words onto the requested page.
        let mut next = vec![0u8; PAGE_BYTES];
        for (i, w) in words.iter().enumerate() {
            let addr = entry + i as u64 * 4;
            if addr >= 0x2000 {
                let off = (addr - 0x2000) as usize;
                next[off..off + 4].copy_from_slice(&w.to_le_bytes());
            }
        }
        snapshot.insert_page(0x2000, next.clone());
        let mut refilled = req;
        refilled.snapshot.insert_page(0x2000, next);
        refilled.seq = 2;
        service.submit(refilled);
        let result = service.recv().expect("second pass");
        assert_eq!(result.request.seq, 2);
        match result.outcome {
            FormOutcome::Formed { evidence, .. } => {
                let decoded: Vec<(u64, u32)> = (entry..)
                    .step_by(4)
                    .zip(words[..4].iter().copied())
                    .collect();
                assert_eq!(evidence.words, decoded, "the loop's words on both pages");
                assert_eq!(
                    evidence.translations,
                    [(0x1000, 0x1000), (0x2000, 0x2000)],
                    "the entry and the crossing"
                );
            }
            other => panic!("refilled request must form, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_heats_answer_like_the_live_cache_did_at_publish_time() {
        use dbt::{BlockExit, CacheIndex, ChainLinks, CodeCache, Region};
        let block = |phys: u64, exit: BlockExit| Region {
            guest_phys: phys,
            guest_virt: phys,
            guest_insns: 1,
            code: Arc::new([]),
            encoded_bytes: 0,
            lir_insns: 0,
            elided_insns: 0,
            exit,
            links: ChainLinks::default(),
            constituents: 1,
            pages: vec![phys & !0xFFF],
            ctx_gen: 0,
            unroll: 1,
            back_edges: 0,
            loop_guest_insns: 0,
            loop_elided_insns: 0,
            promoted: Vec::new(),
            made_from: None,
        };
        let key = |phys: u64| RegionKey { phys, virt: phys };
        // Conditional blocks inserted in descending key order (the snapshot
        // must come back sorted), with distinct heats per leg; two blocks that
        // are cached but not conditional; two keys that are not cached.
        let cache = CodeCache::new(CacheIndex::GuestPhysical);
        let conditional: Vec<u64> = (0..40).rev().map(|i| 0x1000 + i * 0x40).collect();
        for (n, &phys) in conditional.iter().enumerate() {
            let r = cache.insert(block(
                phys,
                BlockExit::Branch {
                    taken: phys + 0x20,
                    fallthrough: phys + 4,
                },
            ));
            // Heat lives on patched links; where they point is immaterial.
            r.set_link(0, 0, cache.epoch(), &r);
            r.set_link(1, 0, cache.epoch(), &r);
            // Heat the way the dispatcher does: the first transfer over a
            // link is reported to the cache.
            let heat = |slot: usize, times: usize| {
                for _ in 0..times {
                    if r.heat_up(slot) == 1 {
                        cache.note_heated(r.key());
                    }
                }
            };
            heat(0, n);
            heat(1, (n * 3) % 7);
        }
        let unconditional = [0x9000u64, 0x9040];
        cache.insert(block(unconditional[0], BlockExit::Jump { target: 0x1000 }));
        cache.insert(block(unconditional[1], BlockExit::Indirect));
        let absent = [0x0u64, 0xA000];

        // What the run thread's own tracer answers from the live cache.
        let live = |phys: u64| {
            let b = cache.peek(key(phys))?;
            matches!(b.exit, BlockExit::Branch { .. }).then(|| (b.link_heat(0), b.link_heat(1)))
        };
        let mut snapshot = snapshot_with_code(&[], 0x1000);
        snapshot.heats = cache.branch_profiles();
        let at_publish: Vec<(u64, Option<(u64, u64)>)> = conditional
            .iter()
            .chain(&unconditional)
            .chain(&absent)
            .map(|&phys| (phys, live(phys)))
            .collect();
        // The profile keeps moving after the publish; the snapshot must not.
        cache.peek(key(conditional[3])).unwrap().heat_up(0);

        // `choose_leg` follows the hotter leg and treats a tie exactly like
        // a missing profile, so that is all a snapshot has to preserve — and
        // what lets it skip every block that never chained.
        let distinguishable = |heats: Option<(u64, u64)>| heats.filter(|(t, f)| t != f);
        let source = SnapshotSource::new(&snapshot);
        for (phys, expected) in at_publish {
            assert_eq!(
                distinguishable(source.branch_heats(key(phys))),
                distinguishable(expected),
                "{phys:#x}"
            );
        }
        assert!(
            snapshot.heats.len() < conditional.len(),
            "a block whose links never left zero is not walked"
        );
        assert!(snapshot.heats.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(source.branch_heats(key(absent[0])), None);
        assert!(source.branch_heats(key(conditional[5])).is_some());
        assert_ne!(
            source.branch_heats(key(conditional[3])),
            live(conditional[3]),
            "frozen at publish"
        );
        // A same-address key under another virtual class is a different key.
        let alias = RegionKey {
            phys: conditional[5],
            virt: conditional[5] + 0x10_0000,
        };
        assert_eq!(source.branch_heats(alias), None);
    }

    #[test]
    fn a_dropped_service_leaves_queued_speculation_untranslated() {
        use crate::spec::PageCopy;
        // Workers look at the shutdown flag before claiming a job, so a drop
        // waits for the jobs in flight and never for the queue.  The flag is
        // raised under the same lock hold that fills the queue — no worker
        // can have claimed anything — and the drop then has nothing to wait
        // for: every job is still queued afterwards.
        let service = TierService::new(2);
        let shared = Arc::clone(&service.shared);
        let knobs = Knobs::new(&crate::CaptiveConfig::default());
        let mut page = Vec::new();
        for _ in 0..PAGE_BYTES / 8 {
            page.extend_from_slice(&asm::addi(0, 0, 1).to_le_bytes());
            page.extend_from_slice(&asm::ret().to_le_bytes());
        }
        {
            let mut queues = shared.lock();
            let frontier = &mut queues.frontier;
            frontier.ensure_page(0x1000, false, || PageCopy::Early(page.into()));
            for entry in (0x1000..0x2000).step_by(8) {
                frontier.request(entry, entry, true, &knobs);
            }
            assert!(!service.speculates() || frontier.can_start());
            queues.shutdown = true;
        }
        drop(service);
        let queues = shared.lock();
        assert_eq!(queues.frontier.translated(), 0);
        assert_eq!(Arc::strong_count(&shared), 1, "every worker was joined");
    }
}
