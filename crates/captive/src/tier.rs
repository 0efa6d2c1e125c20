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
//!   and hands back a [`FormOutcome`]: the formed region with the
//!   [`dbt::Evidence`] it was made from — every word it decoded as the
//!   snapshot held it, every translation the snapshot's tables gave — or
//!   why none formed.
//! * When the link finally crosses the threshold, the run thread takes the
//!   result ([`TierService::recv`], *One wait path* below) and installs it
//!   through the ordinary replace-at-key mechanism — but only if it was
//!   formed under the current context generation and its evidence still
//!   holds on the live machine (`Captive::evidence_holds`, the one gate, in
//!   [`crate::formation`]).  A region formed against a stale generation, a
//!   since-patched page or a since-moved mapping is *discarded*, never
//!   installed.
//! * Where no usable result is at hand — `sync` mode, a head never
//!   published, a stale discard, a worker's `TooShort` — the run thread forms
//!   synchronously (`Captive::form_now`) with the **same** `process`: it
//!   takes a snapshot right then and runs the former inline.  There is one
//!   former over one input type; a region formed now is the region a worker
//!   would form from a snapshot taken now.
//!
//! A snapshot is seeded with the pages already known to hold translated code;
//! anything else the trace needs (page-table pages on an MMU-on guest, a
//! straight-line fall-through onto a fresh page) surfaces as
//! [`FormOutcome::NeedPages`], and the run thread refills the snapshot from
//! live memory and forms again itself, in the one refill loop
//! `Captive::form_now` runs — keeping snapshot capture cheap without
//! guessing the reachable set up front.  The table
//! pages a snapshot walk read are *not* evidence: what the region depends on
//! is where the walk ended, which the gate re-resolves, not which of a table
//! page's 512 entries hold what.
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
//!   one thread, and occupies at most `available_parallelism() - 1` of an
//!   engine's workers (two speculating workers on two cores: noisier, no
//!   faster).
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
//!   loses the frontier for good — an erratic 3–26 % served) and a parked
//!   worker is woken when the ready pool has drained to half.  128 serves as many
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
//! # The worker pool
//!
//! The workers belong to the host, not to an engine: one process-wide pool
//! of threads serves every engine whose service is threaded.  It starts
//! threads only when an engine allows more workers than it has — so it
//! holds as many as the largest `tier_workers` any engine asked for — and
//! never stops one; once it has them, making and dropping an engine starts
//! and joins no thread.  (Two spawns and two joins per engine were ≈ 58 %
//! of what `hot_loops`' `setup_s` measured.)
//!
//! * [`TierService::new`] enrols the engine: its queues and the sender its
//!   formation results travel on.  `tier_workers: Some(n)` lets at most `n`
//!   workers serve the engine at once; other engines' jobs take the rest.
//! * A worker takes any engine's formation request before any speculative
//!   block, engines taking turns.  It tries engine locks under the pool's
//!   lock and never waits for one, so a busy engine holds up neither the
//!   pool nor another engine's withdrawal.  With nothing to claim it parks
//!   on the pool's condition variable, counted parked *before* its last
//!   look, so a run thread that queues work after that look sees the count
//!   and wakes it.
//! * A claimed job keeps the engine's queues and a clone of its result
//!   sender until the job is booked, and lets go of the sender last.
//! * **Drop.**  Dropping the service withdraws the engine — no worker
//!   claims its jobs again — and drains its result channel until the
//!   channel disconnects: it waits for the engine's jobs in flight (at most
//!   `n`), never for its queue and never for a thread.  When the drop
//!   returns no worker holds anything of the engine's.
//! * A job that panics withdraws its engine; the engine's `recv` returns
//!   `None` once its other jobs are booked, so its run thread forms now,
//!   and the worker lives on.
//!
//! **Who frees what.**  A formation result is freed by the run thread that
//! receives it, the ones a drop drains included.  An installed speculative
//! result's worker-side allocations go back to the pool and are freed by
//! the next worker that claims one of the engine's blocks.  Whatever is
//! left in the engine's queues at the drop — queued requests and jobs,
//! parked results, spent allocations — is freed by the run thread that
//! drops the service.  A pool thread keeps its JIT scratch
//! (`dbt::with_scratch`: capacity, never facts) from one engine to the
//! next.
//!
//! **One wait path.**  At the install point the run thread asks
//! [`TierService::recv`] for the answer to the request it published.  Under
//! the engine's queue lock — the lock workers claim with — it looks for that
//! request: still queued, it takes it off the queue and forms it itself,
//! from the snapshot taken at publish time; already claimed by a worker, it
//! waits on the engine's result channel.  Either way the result goes through
//! the same match and the same gate (`Captive::obtain_async`), and a
//! formation the run thread claimed is run-thread stall, never worker time.
//! So `tier_workers: Some(0)` has no code of its own: no worker serves the
//! engine, the run thread forms each published request at its install point
//! from the publish-time snapshot, and nothing is speculated.  Tests that
//! want a deterministic window between snapshot and install run on it.

use crate::spec::{Frontier, Job, Knobs, Spent};
use crate::translator::{form_region_from, FormOutcome, SourceRead};
use dbt::{PhaseTimers, RegionKey};
use guest_aarch64::{mmu, Aarch64Isa};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
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
    /// Pool-worker wall clock spent on this request, booked by the worker
    /// that ran it; zero for a request the run thread formed, whose time is
    /// run-thread stall.
    pub wall: Duration,
}

/// What the region former reads while tracing — guest address resolution,
/// code words and branch-leg profiles — answered from a
/// [`FormationSnapshot`]: every read resolves against captured bytes, never
/// the live machine, so a formed region is a pure function of the snapshot.
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

    /// Context generation the formation is stamped with.
    pub fn ctx_gen(&self) -> u64 {
        self.snapshot.ctx_gen
    }

    /// Resolves a guest virtual address to a physical address for tracing,
    /// walking the snapshot's copy of the guest tables when the MMU was on.
    pub fn va_to_pa(&mut self, va: u64) -> SourceRead {
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

    /// Reads the guest code word at physical address `pa` (what the trace's
    /// [`dbt::Evidence`] then records for it); `Err` carries the base of a
    /// page the snapshot does not hold.
    pub fn read_code_word(&mut self, pa: u64) -> Result<u32, u64> {
        // Both dispatchers fault a misaligned PC before any fetch, and every
        // PC a formation walks to from an aligned entry is aligned, so a
        // word never straddles the end of a captured page.
        debug_assert!(pa & 3 == 0, "code fetch from misaligned {pa:#x}");
        let page = pa & !0xFFF;
        match self.snapshot.pages.get(&page) {
            Some(bytes) => {
                let off = (pa & 0xFFF) as usize;
                Ok(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()))
            }
            // Out-of-RAM fetches degrade to 0 (an UNDEF), as the block
            // translator's live fetch does; a refill could never provide
            // these pages.
            None if pa.saturating_add(4) > self.snapshot.guest_ram => Ok(0),
            None => Err(page),
        }
    }

    /// Taken/fallthrough link heats of the conditional block at `key` as
    /// the snapshot froze them, when a profile exists (`None` falls back to
    /// the static backward-taken heuristic).
    pub fn branch_heats(&self, key: RegionKey) -> Option<(u64, u64)> {
        let heats = &self.snapshot.heats;
        let at = heats.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(heats[at].1)
    }
}

/// Forms one request against its snapshot: the one way a region is formed,
/// on a worker for a published request and on the run thread for
/// `Captive::form_now`.  Pure: reads only the request, so the same request
/// always produces the same result — a formed region is a deterministic
/// function of the snapshot, whoever took it and whenever.
pub(crate) fn process(isa: &Aarch64Isa, request: FormationRequest) -> FormationResult {
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
        wall: Duration::ZERO,
    }
}

/// One engine's side of the pool: what its run thread and the pool workers
/// serving it share, under the engine's own lock.
struct Queues {
    formations: VecDeque<FormationRequest>,
    frontier: Frontier,
    /// Pool workers running one of this engine's jobs right now.
    busy: usize,
    /// At most this many at once: the engine's `tier_workers` (0: no worker
    /// serves it).
    limit: usize,
}

impl Queues {
    /// True when a worker could take one of this engine's jobs now.
    fn claimable(&self) -> bool {
        self.busy < self.limit && (!self.formations.is_empty() || self.frontier.can_start())
    }

    /// Takes a formation request, or else (`formation` false) a speculative
    /// block, handing the worker the spent allocations to free with it.
    fn claim(&mut self, formation: bool, spent: &mut Vec<Spent>) -> Option<Work> {
        if self.busy >= self.limit {
            return None;
        }
        let work = if formation {
            Work::Form(self.formations.pop_front()?)
        } else {
            let job = self.frontier.next_job()?;
            self.frontier.swap_spent(spent);
            Work::Speculate(job)
        };
        self.busy += 1;
        Some(work)
    }

    /// Takes the request `(key, seq)` off the queue, if no worker has
    /// claimed it yet: the run thread's claim of the formation it is about
    /// to wait for.
    fn claim_request(&mut self, key: RegionKey, seq: u64) -> Option<FormationRequest> {
        let at = self
            .formations
            .iter()
            .position(|r| (r.key, r.seq) == (key, seq))?;
        self.formations.remove(at)
    }
}

struct Shared {
    queues: Mutex<Queues>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues
            .lock()
            .expect("a tier worker panicked holding the queue lock")
    }
}

enum Work {
    Form(FormationRequest),
    Speculate(Job),
}

/// A job a worker took from one engine, with what it needs to book it.
struct Claim {
    shared: Arc<Shared>,
    work: Work,
    results: Sender<FormationResult>,
}

impl Claim {
    /// Runs the job and books it: a formation result goes to the engine's
    /// channel, a speculative block to its frontier.  Then it lets go of the
    /// engine — its queues first and the result sender last, because the
    /// engine's drop waits for the last sender to go.
    fn run(self, isa: &Aarch64Isa) {
        let Claim {
            shared,
            work,
            results,
        } = self;
        match work {
            Work::Form(request) => {
                let start = Instant::now();
                if let Some(mut result) = or_withdraw(&shared, || process(isa, request)) {
                    result.wall = start.elapsed();
                    // A dropped engine's receiver is gone; the result with it.
                    let _ = results.send(result);
                    shared.lock().busy -= 1;
                }
            }
            Work::Speculate(job) => {
                if let Some(outcome) = or_withdraw(&shared, || job.translate()) {
                    let mut queues = shared.lock();
                    queues.frontier.finish(&job, outcome);
                    queues.busy -= 1;
                }
            }
        }
        drop(shared);
        drop(results);
    }
}

/// Runs `job`; if it panics, withdraws the engine from the pool, so that no
/// worker serves it again and its run thread's `recv` returns `None` once its
/// other jobs are booked — the engine forms on the run thread instead of
/// waiting for a result that will never come.  The worker itself lives on.
fn or_withdraw<T>(shared: &Arc<Shared>, job: impl FnOnce() -> T) -> Option<T> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(job));
    if outcome.is_err() {
        POOL.withdraw(shared);
    }
    outcome.ok()
}

/// The host's tier workers, shared by every engine in the process.
struct Pool {
    registry: Mutex<Registry>,
    /// Parked workers wait here.
    wake: Condvar,
    /// Workers parked on `wake`, or looking for work under the pool's lock
    /// (a look that finds none ends in parking).  Read without the lock:
    /// `Condvar::notify_one` is a system call whether or not anyone waits,
    /// and the run thread would otherwise pay it on every tier-0 install.
    parked: AtomicUsize,
}

struct Registry {
    /// Threads started; never shrinks.
    threads: usize,
    /// Every engine with a threaded service, and the sender its formation
    /// results travel on.
    engines: Vec<(Arc<Shared>, Sender<FormationResult>)>,
    /// Where the next look for work starts, so that engines take turns.
    next: usize,
}

static POOL: Pool = Pool {
    registry: Mutex::new(Registry {
        threads: 0,
        engines: Vec::new(),
        next: 0,
    }),
    wake: Condvar::new(),
    parked: AtomicUsize::new(0),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        // Nothing a worker runs under this lock may panic; if something did,
        // the registry is still whole.
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an engine that at most `workers` threads serve at once,
    /// starting threads until the pool has that many.  A pool thread lives
    /// as long as the process and is never joined: a job's panic is caught
    /// ([`or_withdraw`]), so nothing ends one earlier.
    fn enrol(&self, shared: &Arc<Shared>, results: Sender<FormationResult>, workers: usize) {
        let mut registry = self.lock();
        registry.engines.push((Arc::clone(shared), results));
        while registry.threads < workers {
            std::thread::spawn(|| POOL.serve());
            registry.threads += 1;
        }
    }

    /// Takes an engine out of the pool: no worker claims its jobs again.
    fn withdraw(&self, shared: &Arc<Shared>) {
        self.lock()
            .engines
            .retain(|(enrolled, _)| !Arc::ptr_eq(enrolled, shared));
    }

    /// Wakes a parked worker, if there is one.
    fn wake_one(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _registry = self.lock();
            self.wake.notify_one();
        }
    }

    /// One worker's life: every engine's formation requests first (a run
    /// thread blocks on those), then one speculative block at a time, parked
    /// when there is neither.
    fn serve(&self) {
        let isa = Aarch64Isa;
        let mut spent = Vec::new();
        let mut registry = self.lock();
        loop {
            // Counted as parked *before* the look: a run thread that queues
            // work after this worker looked at its engine sees the count,
            // and its wake-up waits for this lock, which is held until the
            // worker sleeps.
            self.parked.fetch_add(1, Ordering::SeqCst);
            let (claim, more) = match registry.look(&mut spent) {
                Look::Job(claim, more) => (claim, more),
                Look::Nothing => {
                    registry = self
                        .wake
                        .wait(registry)
                        .unwrap_or_else(PoisonError::into_inner);
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                Look::Contended => {
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    drop(registry);
                    std::thread::yield_now();
                    registry = self.lock();
                    continue;
                }
            };
            if self.parked.fetch_sub(1, Ordering::SeqCst) > 1 && more {
                // More runnable work than this worker just claimed: share it.
                self.wake.notify_one();
            }
            drop(registry);
            spent.clear();
            claim.run(&isa);
            registry = self.lock();
        }
    }
}

/// What a worker's look through the registry found.
enum Look {
    /// A job, and whether its engine has more for another worker.
    Job(Claim, bool),
    /// Nothing it could claim, but an engine's lock was held by someone
    /// else: look again rather than park, or work queued under that lock
    /// could wait for a wake-up that was never sent.
    Contended,
    Nothing,
}

impl Registry {
    /// Claims the next job, engines in turn: any engine's formation request
    /// before any speculative block.  An engine's lock is only ever tried
    /// under the pool's, never waited for, so a held engine lock cannot
    /// hold up the pool — nor an engine's withdrawal.
    fn look(&mut self, spent: &mut Vec<Spent>) -> Look {
        let n = self.engines.len();
        let mut contended = false;
        for formation in [true, false] {
            for i in 0..n {
                let at = (self.next + i) % n;
                let (shared, results) = &self.engines[at];
                let mut queues = match shared.queues.try_lock() {
                    Ok(queues) => queues,
                    Err(TryLockError::WouldBlock) => {
                        contended = true;
                        continue;
                    }
                    // A worker panicked booking a job: the run thread finds
                    // out at its next look at the queues.
                    Err(TryLockError::Poisoned(_)) => continue,
                };
                if let Some(work) = queues.claim(formation, spent) {
                    let more = queues.claimable();
                    drop(queues);
                    self.next = (at + 1) % n;
                    let claim = Claim {
                        shared: Arc::clone(shared),
                        work,
                        results: results.clone(),
                    };
                    return Look::Job(claim, more);
                }
            }
        }
        if contended {
            Look::Contended
        } else {
            Look::Nothing
        }
    }
}

/// The engine's handle on the pool.  `submit` never blocks; `recv` forms the
/// awaited request itself if it is still queued, else blocks until *some*
/// formation result is available (the caller routes results it was not
/// waiting for).  Speculative tier-0 jobs travel through the
/// crate-internal `with_frontier` in both directions.  Dropping the service
/// withdraws the engine from the pool and waits for its jobs in flight —
/// never for its queue, and never for a thread.
pub struct TierService {
    shared: Arc<Shared>,
    /// Formation results from the pool.
    results: Receiver<FormationResult>,
    /// Workers that may speculate at once (the frontier's slot count).
    spec_slots: usize,
    isa: Aarch64Isa,
}

/// Host threads this process may run on, looked up once (the probe reads
/// the affinity mask and cgroup files — too slow for every engine).
fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl TierService {
    /// Creates the service: served by at most `workers` pool threads at
    /// once (none when `workers` is 0: the run thread then forms every
    /// request it waits for).
    pub fn new(workers: usize) -> Self {
        // Speculation wants a core of its own: with one host thread it is
        // off (the workers would only take time from the run thread), and
        // it never occupies more workers than there are spare cores.
        let spec_slots = workers.min(host_parallelism() - 1);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                formations: VecDeque::new(),
                frontier: Frontier::new(spec_slots),
                busy: 0,
                limit: workers,
            }),
        });
        // The pool holds the only sender and every claimed job a clone, so
        // `recv` returns `None` once the engine is withdrawn and its jobs
        // are booked.
        let (sender, results) = channel::<FormationResult>();
        POOL.enrol(&shared, sender, workers);
        TierService {
            shared,
            results,
            spec_slots,
            isa: Aarch64Isa,
        }
    }

    /// True when tier-0 blocks are translated speculatively.
    pub fn speculates(&self) -> bool {
        self.spec_slots > 0
    }

    /// Queues a formation request.
    pub fn submit(&mut self, req: FormationRequest) {
        let mut queues = self.shared.lock();
        queues.formations.push_back(req);
        let wake = queues.claimable();
        drop(queues);
        if wake {
            POOL.wake_one();
        }
    }

    /// The answer to request `(key, seq)`, or to another one: while the
    /// request is still queued the run thread claims it and forms it here,
    /// from its publish-time snapshot; otherwise this blocks until some
    /// worker's result arrives.  `None` when none can ever arrive (a job of
    /// this engine panicked and its others are booked).
    pub fn recv(&mut self, key: RegionKey, seq: u64) -> Option<FormationResult> {
        let claimed = self.shared.lock().claim_request(key, seq);
        match claimed {
            Some(request) => Some(process(&self.isa, request)),
            None => self.results.recv().ok(),
        }
    }

    /// Runs `f` on the speculation frontier under the queue lock, then
    /// wakes a parked worker if `f` left it something to do.
    pub(crate) fn with_frontier<R>(&self, f: impl FnOnce(&mut Frontier) -> R) -> R {
        let mut queues = self.shared.lock();
        let result = f(&mut queues.frontier);
        let wake = queues.busy < queues.limit && queues.frontier.worth_waking();
        drop(queues);
        if wake {
            POOL.wake_one();
        }
        result
    }
}

impl Drop for TierService {
    fn drop(&mut self) {
        POOL.withdraw(&self.shared);
        // Every job in flight holds a clone of the result sender and lets go
        // of it last: the channel disconnects once they are all booked.
        while self.results.recv().is_ok() {}
    }
}

/// Threads the pool has started.
#[cfg(test)]
pub(crate) fn pool_threads() -> usize {
    POOL.lock().threads
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

    fn key(entry: u64) -> RegionKey {
        RegionKey {
            phys: entry,
            virt: entry,
        }
    }

    fn request(snapshot: FormationSnapshot, entry: u64) -> FormationRequest {
        FormationRequest {
            seq: 1,
            key: key(entry),
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
        let result = service
            .results
            .recv_timeout(Duration::from_secs(60))
            .expect("a worker's result");
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
    fn a_claimed_request_forms_what_a_worker_forms() {
        // No worker serves the second service: the caller's `recv` takes the
        // request off the queue and forms it, and must get what a worker
        // made of the same request on the first.
        let mut threaded = TierService::new(2);
        let mut unserved = TierService::new(0);
        let words = self_loop_words();
        threaded.submit(request(snapshot_with_code(&words, 0x1000), 0x1000));
        unserved.submit(request(snapshot_with_code(&words, 0x1000), 0x1000));
        let a = threaded
            .results
            .recv_timeout(Duration::from_secs(60))
            .expect("a worker's result");
        let b = unserved.recv(key(0x1000), 1).expect("the claimed request");
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
        assert!(unserved.shared.lock().formations.is_empty(), "claimed");
        assert_eq!(b.wall, Duration::ZERO, "no worker's time");
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
        let result = service.recv(key(entry), 1).expect("first pass");
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
        let result = service.recv(key(entry), 2).expect("second pass");
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
            exit,
            links: ChainLinks::default(),
            constituents: 1,
            pages: vec![phys & !0xFFF],
            ctx_gen: 0,
            unroll: 1,
            back_edges: 0,
            loop_guest_insns: 0,
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

        // What a read of the live cache answers.
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

    /// A page of `add x0, x0, #1; ret` pairs: a speculative job at every
    /// other word.
    fn speculation_page() -> Arc<[u8]> {
        let mut page = Vec::new();
        for _ in 0..PAGE_BYTES / 8 {
            page.extend_from_slice(&asm::addi(0, 0, 1).to_le_bytes());
            page.extend_from_slice(&asm::ret().to_le_bytes());
        }
        page.into()
    }

    /// Waits until every pool thread is parked (other tests' engines come
    /// and go on the same pool).
    fn until_the_pool_is_parked() {
        let start = Instant::now();
        loop {
            // Under the pool's lock no worker is looking for work, so the
            // parked count is the workers asleep.
            let registry = POOL.lock();
            if POOL.parked.load(Ordering::SeqCst) == registry.threads {
                return;
            }
            drop(registry);
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "the pool never parked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_dropped_service_leaves_queued_speculation_untranslated() {
        use crate::spec::PageCopy;
        // The drop withdraws the engine from the pool and waits for its jobs
        // in flight, never for its queue.  The one worker this engine allows
        // is caught mid-formation: it cannot book the job while the test
        // holds the engine's lock, so the drop must still be waiting when
        // the test lets go, and once it returns no worker may hold the
        // queues.  The speculation queued under that lock is never claimed:
        // the engine is at its limit until the drop has withdrawn it.
        let mut service = TierService::new(1);
        let shared = Arc::clone(&service.shared);
        let knobs = Knobs::new(&crate::CaptiveConfig::default());
        let mut queues = 'caught: loop {
            service.submit(request(
                snapshot_with_code(&self_loop_words(), 0x1000),
                0x1000,
            ));
            loop {
                let queues = shared.lock();
                if queues.busy == 1 {
                    break 'caught queues;
                }
                if queues.formations.is_empty() {
                    // Booked before the test looked: try again.
                    break;
                }
            }
        };
        let frontier = &mut queues.frontier;
        frontier.ensure_page(0x1000, false, || PageCopy::Early(speculation_page()));
        for entry in (0x1000..0x2000).step_by(8) {
            frontier.request(entry, entry, true, &knobs);
        }
        assert!(!service.speculates() || frontier.can_start());
        let withdrawn = || {
            !POOL
                .lock()
                .engines
                .iter()
                .any(|(enrolled, _)| Arc::ptr_eq(enrolled, &shared))
        };
        std::thread::scope(|s| {
            let dropping = s.spawn(move || drop(service));
            let start = Instant::now();
            while !withdrawn() {
                assert!(start.elapsed() < Duration::from_secs(60), "never withdrawn");
                std::thread::sleep(Duration::from_millis(1));
            }
            let start = Instant::now();
            while !dropping.is_finished() && start.elapsed() < Duration::from_millis(100) {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                !dropping.is_finished(),
                "the drop returned with a job in flight"
            );
            drop(queues);
            dropping.join().expect("the drop does not panic");
        });
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "no pool worker holds the engine's queues"
        );
        assert_eq!(shared.lock().frontier.translated(), 0);
    }

    #[test]
    fn a_job_that_panics_leaves_its_engine_to_form_on_the_run_thread() {
        // A snapshot page too short to hold the entry word makes the former
        // index out of bounds on a pool worker.  The engine's `recv` must
        // return `None` — its run thread then forms now — instead of
        // waiting forever, and the worker must live on: after more panics
        // than the pool has threads, another engine is still served.
        for _ in 0..=pool_threads().max(2) {
            let mut service = TierService::new(2);
            let mut snapshot = snapshot_with_code(&self_loop_words(), 0x1000);
            snapshot.pages.insert(0x1000, Arc::from(&[0u8; 2][..]));
            service.submit(request(snapshot, 0x1000));
            // A request still queued would be formed by the caller itself.
            let start = Instant::now();
            while !service.shared.lock().formations.is_empty() {
                assert!(start.elapsed() < Duration::from_secs(60), "never claimed");
                std::thread::yield_now();
            }
            assert!(service.recv(key(0x1000), 1).is_none(), "no result can come");
        }
        assert!(pool_threads() <= 2);
        let mut service = TierService::new(2);
        service.submit(request(
            snapshot_with_code(&self_loop_words(), 0x1000),
            0x1000,
        ));
        let result = service
            .results
            .recv_timeout(Duration::from_secs(60))
            .expect("a pool worker is still there");
        assert!(matches!(result.outcome, FormOutcome::Formed { .. }));
    }

    #[test]
    fn jobs_queued_while_every_worker_is_parked_still_run() {
        // A worker counts itself parked before its last look for work, and
        // a run thread that queues work wakes one under the pool's lock:
        // neither a formation request nor a speculative block queued while
        // the whole pool sleeps may wait for some other engine's wake-up.
        use crate::spec::PageCopy;
        let mut service = TierService::new(2);
        until_the_pool_is_parked();
        service.submit(request(
            snapshot_with_code(&self_loop_words(), 0x1000),
            0x1000,
        ));
        let result = service
            .results
            .recv_timeout(Duration::from_secs(60))
            .expect("a parked worker was woken for the request");
        assert!(matches!(result.outcome, FormOutcome::Formed { .. }));
        if !service.speculates() {
            return;
        }
        let knobs = Knobs::new(&crate::CaptiveConfig::default());
        until_the_pool_is_parked();
        service.with_frontier(|f| {
            f.ensure_page(0x1000, false, || PageCopy::Early(speculation_page()));
            f.request(0x1000, 0x1000, true, &knobs);
        });
        let start = Instant::now();
        while service.with_frontier(|f| f.translated()) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "a parked worker was woken for the speculative block"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
