//! Translated-code cache over one kind of translation unit: the **region**.
//!
//! Every translation this cache holds is a [`Region`] — a single host-code
//! unit covering 1..N guest basic blocks (its *constituents*).  A plain
//! basic-block translation is simply a one-constituent region; a trace
//! stitched over a hot chain path (what earlier revisions called a
//! "superblock") is an N-constituent one, possibly with a single-block
//! self-loop *unrolled* several times.  There is one index, one insertion
//! path, one invalidation story and one chain-link mechanism for all of
//! them; nothing in this module special-cases the multi-constituent shape
//! beyond the generation gate described below.
//!
//! # Indexing and sharding
//!
//! Regions are keyed by [`RegionKey`]: the guest *physical* address of the
//! entry instruction plus its guest *virtual* entry class.  The physical
//! component is what lets Captive's translations survive guest page-table
//! changes (Section 2.6 of the paper); the virtual component exists because
//! generated code embeds virtual addresses (branch targets, the PC), so a
//! translation is only reusable at the exact virtual entry it was made for.
//! Two virtual aliases of one hot physical entry therefore each get their
//! own live region instead of contending for a single per-physical slot.
//! The QEMU-style baseline stores its virtually-indexed translations in the
//! same structure ([`CacheIndex::GuestVirtual`]) and simply flushes
//! everything on guest translation-state changes.
//!
//! The index is **shard-locked**: keys hash onto [`SHARD_COUNT`]
//! `RwLock`-protected maps, so the run thread's dispatch lookups and the
//! tier-1 formation workers' profile peeks proceed without a global lock,
//! and two threads only contend when their keys collide on a shard.  All
//! statistics (and the invalidation epoch) are atomics, so every method
//! takes `&self` and the cache is `Send + Sync` — the property the tiered
//! translation service (`captive::tier`) is built on.
//!
//! **Lock order.**  The capacity ring and the shards are the only two lock
//! classes.  The rule is: a thread may acquire shard locks *while holding*
//! the ring lock (the eviction sweep does), but must never acquire the ring
//! lock while holding a shard lock ([`CodeCache::insert`] releases the
//! shard before touching the ring), and never holds two shard locks at
//! once.  That total order makes deadlock impossible.
//!
//! # Direct block chaining
//!
//! Each region carries terminator metadata ([`BlockExit`]) computed at
//! translation time, plus up to two lazily patched successor links (slot 0 =
//! the jump/taken/sequential target, slot 1 = the conditional fallthrough).
//! A link records:
//!
//! * a [`Weak`] reference to the successor region — invalidating (or
//!   replacing) a region drops the cache's strong reference, so every chain
//!   link pointing at it dies automatically, with no scan over predecessors;
//! * the *context generation* (owned by the hypervisor, bumped on guest
//!   TLBI / `TTBR0` / `SCTLR` writes — anything that can change the VA→PA
//!   mapping a link's target address was resolved under);
//! * the *cache epoch* (owned by this cache, bumped whenever an invalidation
//!   removes regions — this catches the case where the dispatcher still
//!   holds a strong reference to an invalidated region, so the `Weak` alone
//!   would keep a stale self-link alive).
//!
//! A link is only followed while both stamps match the current values; a
//! stale link simply falls back to the dispatcher slow path, which
//! re-resolves and re-patches it.  Links also carry a *heat* counter — the
//! profile input that drives multi-constituent region formation in the
//! dispatcher.  Link slots are mutex-protected so a formation worker can
//! read a profile snapshot while the run thread keeps heating the links.
//!
//! # Multi-constituent and looping regions
//!
//! The region former (see `captive::translator`) re-decodes a hot chained
//! path as one translation: direct jumps and fallthroughs become internal
//! [`hvm::MachInsn::TraceEdge`] transfers, and the off-trace leg of an
//! interior conditional becomes a side-exit stub restoring precise guest PC
//! state.  A back edge to an already-traced constituent closes as a
//! **region-internal backward transfer** ([`hvm::MachInsn::BackEdge`] to a
//! label bound at the target's first constituent), making the region
//! *looping*: a hot loop — single- or multi-block body, with up to
//! `unroll` peeled copies — iterates entirely inside translated code, and
//! only cold legs and the loop exit return to the dispatcher.  The
//! resulting region is inserted through the ordinary [`CodeCache::insert`],
//! replacing the plain one-constituent region at the same key — chain links
//! into the replaced region die with its `Arc`, and the next transfer
//! re-resolves to the richer translation.  Under the tiered service the
//! region may have been *formed on a background worker* against an
//! immutable snapshot; the replace-at-key install is identical, and the
//! same generation/epoch/SMC gates decide whether the formed region is
//! still installable at all.
//!
//! **Back-edge rules.** The back-edge is a *virtual* control transfer
//! decided at formation time, so a looping region obeys three invariants:
//! its loop label corresponds to a real constituent entry (the back-edge's
//! folded PC update makes guest state precise at every iteration
//! boundary); the interpreter polls the runtime at each back-edge so
//! pending events (self-modifying code, queued guest events) bound the
//! stale-execution window to the current iteration; and trips per entry
//! are capped (`hvm::Machine::loop_trip_limit`), the loop *yielding* to
//! the dispatcher with precise PC so block budgets still progress on
//! long-running or infinite guest loops.
//!
//! **Generation gate.** A multi-constituent or looping region embeds
//! virtual control-flow decisions ([`Region::gated`]), so it is only
//! returned by [`CodeCache::get`] while the current context generation
//! matches its formation stamp; a plain one-constituent region is valid in
//! every generation (its key already pins the physical entry).  Stale
//! gated regions are counted as lookup misses and are swept wholesale by
//! [`CodeCache::evict_stale_regions`] the first time the dispatcher runs
//! after a generation bump.
//!
//! **Invalidation.** Every region records the guest physical pages its
//! constituents occupy; self-modifying code on *any* of them discards the
//! region via [`CodeCache::invalidate_phys_page`], which also bumps the
//! epoch so dispatcher-held references die.  There is no separate path for
//! multi-constituent or looping regions — the page list is simply longer,
//! and a write landing *while the loop is executing* takes effect at the
//! next back-edge poll rather than waiting for the loop to drain.
//!
//! # Capacity and eviction
//!
//! The cache is unbounded by default; [`CodeCache::set_capacity`] installs an
//! optional byte bound (encoded host-code bytes resident) and/or a region
//! bound.  When an [`CodeCache::insert`] pushes the cache over either bound,
//! a **clock (second-chance)** sweep evicts translations until the cache fits
//! again: regions sit in an insertion-order ring, every dispatch-path hit
//! ([`CodeCache::get`]) sets the region's reference bit, and the sweep hand
//! clears the bit and re-queues referenced regions but discards unreferenced
//! ones.  Hot translations therefore survive churn while cold ones pay for
//! it; a guest that thrashes the cache (an interrupt storm re-translating
//! handler paths, self-modifying code defeating reuse) degrades to more
//! re-translation — never to unbounded host memory growth.  The freshly
//! inserted region is exempt from its own insertion's sweep, so a single
//! oversized region is admitted rather than looping.  Capacity evictions bump
//! the epoch exactly like invalidations do: chain links into — and
//! dispatcher-held links out of — an evicted region die immediately, so a
//! capacity-bounded run is architecturally indistinguishable from an
//! unbounded one (only slower).  [`CacheStats`] reports the eviction count
//! plus live occupancy (`bytes_live`, `regions_live`).
//!
//! # Content-keyed translation reuse
//!
//! Forming a region is expensive; forming the *same* region twice because
//! two runs (or, eventually, two guests) execute the same kernel image is
//! pure waste.  The [`ReuseCache`] is a second, content-addressed layer:
//! a formed region is published as a [`ReuseTemplate`] under a
//! [`ReuseKey`] — entry physical/virtual address, the codegen knobs it was
//! formed under, and an FNV hash of the entry page's bytes — together with
//! the content hash of *every* constituent page.  A later run (sharing the
//! cache via `Arc`) revalidates each candidate template by hashing its
//! live pages; only a template whose every page still matches is
//! instantiated, as a fresh [`Region`] with fresh links and the current
//! context generation.  Self-modified or simply different code therefore
//! can never be reused by accident: the key and the validation are both
//! functions of page *content*, not addresses alone.
//!
//! # Lookup statistics
//!
//! [`CodeCache::get`] is the *only* dispatch-path lookup and it feeds the
//! atomic hit/miss counters unconditionally (a stale-generation region
//! counts as a miss: the dispatcher must translate), so
//! [`CacheStats::hit_rate`] is faithful on region-heavy runs and sound
//! under concurrent lookups.  [`CodeCache::peek`] is reserved for the
//! region former's profile consultation and deliberately leaves the
//! statistics alone (it neither counts nor marks the region referenced).

use hvm::{Gpr, MachInsn};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// How regions are keyed in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheIndex {
    /// The physical component of the key is authoritative: translations
    /// survive guest page-table changes (Captive's policy).
    GuestPhysical,
    /// The cache is conceptually virtual-indexed and must be flushed
    /// wholesale whenever the guest changes translation state (the
    /// QEMU-style policy; the key's physical component is then only as
    /// durable as the flush discipline makes it).
    GuestVirtual,
}

/// The cache key of a region: guest physical entry address plus the virtual
/// entry class the code was generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey {
    /// Guest physical address of the entry instruction.
    pub phys: u64,
    /// Guest virtual address the entry was translated at (generated code
    /// embeds virtual branch targets, so this is part of the identity).
    pub virt: u64,
}

/// Where control goes when a translated region exits — terminator metadata
/// recorded at translation time and consumed by the chaining dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockExit {
    /// Successor unknown at translation time: register-indirect branch,
    /// exception, `ERET`, or a system-register write that may change
    /// translation state.  Never chained.
    #[default]
    Indirect,
    /// Unconditional direct branch to a fixed guest virtual address.
    Jump {
        /// Branch target.
        target: u64,
    },
    /// Conditional direct branch with both destinations fixed.
    Branch {
        /// Taken target.
        taken: u64,
        /// Fall-through address.
        fallthrough: u64,
    },
    /// The region ended at the instruction limit or a page boundary and
    /// falls through sequentially.
    Fallthrough {
        /// Address of the next sequential instruction.
        next: u64,
    },
}

/// A resolved successor link: valid while both stamps match the current
/// translation context and the target region is still cached.
#[derive(Debug, Clone)]
struct ChainLink {
    ctx_gen: u64,
    cache_epoch: u64,
    /// Transfers that followed this link (profile input for region
    /// formation; reset whenever the link is re-patched).
    heat: u64,
    to: Weak<Region>,
}

/// The lazily patched successor links of a region.  Slots are mutexed so
/// the run thread can patch and heat links while tier-1 workers read the
/// profile; contention is per-slot and the critical sections are a few
/// loads, so the locks are effectively free.
#[derive(Debug, Default)]
pub struct ChainLinks {
    slots: [Mutex<Option<ChainLink>>; 2],
}

/// How the dispatcher entered a region (per-region profile attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryMode {
    /// Slow path: page resolution + cache lookup + exception-level read.
    Dispatched = 0,
    /// A patched chain link, bypassing the dispatcher.
    Chained = 1,
}

/// Per-region execution record (the code-quality scatter plot, Fig. 21),
/// with cycles and executions attributed per [`EntryMode`].  A region's
/// shape is carried alongside (`guest_insns`, `constituents`), so consumers
/// can distinguish multi-constituent entries without a third attribution
/// axis: "superblock executions" are simply entries of a region whose
/// `constituents > 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionProfile {
    /// Guest instructions covered by the region.
    pub guest_insns: u64,
    /// Constituent basic blocks in the region (1 = plain block).
    pub constituents: u64,
    /// Back-edge transfers taken inside this region's entries (loop trips
    /// that never touched the dispatcher; 0 for non-looping regions).
    pub backedge_trips: u64,
    cycles: [u64; 2],
    executions: [u64; 2],
}

impl RegionProfile {
    /// Records one entry of the region under `mode`, spending `cycles`.
    pub fn record(&mut self, mode: EntryMode, cycles: u64) {
        self.cycles[mode as usize] += cycles;
        self.executions[mode as usize] += 1;
    }

    /// Cycles accumulated by entries of the given mode.
    pub fn cycles(&self, mode: EntryMode) -> u64 {
        self.cycles[mode as usize]
    }

    /// Entries of the given mode.
    pub fn executions(&self, mode: EntryMode) -> u64 {
        self.executions[mode as usize]
    }

    /// Cycles over all entry modes.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Entries over all modes.
    pub fn total_executions(&self) -> u64 {
        self.executions.iter().sum()
    }
}

/// One translation unit: host code covering 1..N guest basic blocks.
#[derive(Debug)]
pub struct Region {
    /// Guest physical address of the entry instruction.
    pub guest_phys: u64,
    /// Guest virtual address of the entry instruction.
    pub guest_virt: u64,
    /// Number of guest instructions translated (all constituents).
    pub guest_insns: usize,
    /// Host code (interpreted by the HVM64 machine).
    pub code: Arc<Vec<MachInsn>>,
    /// Size of the byte-encoded host code.
    pub encoded_bytes: usize,
    /// Host instructions before dead-code elimination (diagnostic).
    pub lir_insns: usize,
    /// LIR instructions eliminated before encoding (optimiser deletions plus
    /// allocator dead-marks); multiplied by executions it yields the dynamic
    /// instructions-saved counters.
    pub elided_insns: usize,
    /// Terminator metadata for direct chaining.
    pub exit: BlockExit,
    /// Successor links, patched lazily by the dispatcher.
    pub links: ChainLinks,
    /// Constituent basic blocks stitched into this region (1 = plain block).
    pub constituents: usize,
    /// Guest physical pages the constituents occupy; self-modifying code on
    /// any of them kills the region.
    pub pages: Vec<u64>,
    /// Context generation the region was formed under.  Multi-constituent
    /// regions stitch a virtual control-flow path and are only dispatched
    /// while this matches; one-constituent regions ignore it.
    pub ctx_gen: u64,
    /// Copies of the loop body stitched by unrolling (1 = not unrolled;
    /// 2..=N for a peeled loop — single- or multi-block).
    pub unroll: usize,
    /// Region-internal back-edges closed by the former (0 or 1).  A looping
    /// region iterates entirely inside translated code: the loop-back is a
    /// [`hvm::MachInsn::BackEdge`] to an internal label, and only cold legs
    /// and the loop exit return to the dispatcher (through side-exit stubs
    /// with precise PC).
    pub back_edges: usize,
    /// Guest instructions in the looping portion (the constituents from the
    /// loop header's first copy through the closing branch): the guest
    /// retires this many *additional* instructions per back-edge transfer
    /// taken, on top of the per-entry `guest_insns`.
    pub loop_guest_insns: usize,
    /// Eliminated-LIR share of the looping portion (pro-rated from
    /// `elided_insns` by guest-instruction weight): credited once per
    /// back-edge transfer by the dynamic instructions-saved accounting.
    pub loop_elided_insns: usize,
    /// Dirty loop-promoted register-file slots: (regfile byte offset, host
    /// register carrying the loop-resident value).  Every in-code exit path
    /// reconciles these itself; the engine consults this list only on a
    /// *fault* exit, storing each host register back to its slot before
    /// delivering the event so the guest observes a precise register file.
    /// Empty for unpromoted translations.
    pub promoted: Vec<(i32, Gpr)>,
    /// Per-rule idiom-recogniser candidate counts from this region's
    /// translation (see [`crate::idiom::IdiomStats::candidates`]).  The rule
    /// miner weighs these by the region's profiled executions to rank rules
    /// by dynamic relevance.
    pub idiom_candidates: [u32; crate::idiom::RULE_COUNT],
}

impl Region {
    /// The cache key identifying this region.
    pub fn key(&self) -> RegionKey {
        RegionKey {
            phys: self.guest_phys,
            virt: self.guest_virt,
        }
    }

    /// True when the region stitches more than one guest basic block.
    pub fn is_multi(&self) -> bool {
        self.constituents > 1
    }

    /// True when the region embeds a *virtual* control-flow decision made at
    /// formation time — a stitched multi-constituent path or a loop closed
    /// by an internal back-edge — and is therefore subject to the
    /// context-generation gate in [`CodeCache::get`].
    pub fn gated(&self) -> bool {
        self.is_multi() || self.back_edges > 0
    }

    /// Guest physical pages covered by a straight-line span of `insns`
    /// fixed 4-byte instructions starting at `phys` (the page list of a
    /// one-constituent region).
    pub fn span_pages(phys: u64, insns: usize) -> Vec<u64> {
        let start = phys & !0xFFF;
        let end = phys + insns as u64 * 4;
        (start..end.max(start + 1))
            .step_by(4096)
            .map(|p| p & !0xFFF)
            .collect()
    }

    /// Index of the chain slot whose guest target is `next_va`, if the
    /// terminator makes that successor a chaining candidate.
    pub fn chain_slot(&self, next_va: u64) -> Option<usize> {
        match self.exit {
            BlockExit::Jump { target } if next_va == target => Some(0),
            BlockExit::Fallthrough { next } if next_va == next => Some(0),
            BlockExit::Branch { taken, .. } if next_va == taken => Some(0),
            BlockExit::Branch { fallthrough, .. } if next_va == fallthrough => Some(1),
            _ => None,
        }
    }

    /// Follows the link in `slot` if it was patched under the current
    /// context generation and cache epoch and its target is still cached.
    pub fn follow_link(&self, slot: usize, ctx_gen: u64, cache_epoch: u64) -> Option<Arc<Region>> {
        let guard = self.links.slots[slot].lock().unwrap();
        let link = guard.as_ref()?;
        if link.ctx_gen == ctx_gen && link.cache_epoch == cache_epoch {
            link.to.upgrade()
        } else {
            None
        }
    }

    /// Patches the link in `slot` to point at `to`, stamped with the context
    /// generation and cache epoch it was resolved under.  Resets the link's
    /// heat: the profile restarts for the new target.
    pub fn set_link(&self, slot: usize, ctx_gen: u64, cache_epoch: u64, to: &Arc<Region>) {
        *self.links.slots[slot].lock().unwrap() = Some(ChainLink {
            ctx_gen,
            cache_epoch,
            heat: 0,
            to: Arc::downgrade(to),
        });
    }

    /// Bumps the transfer counter of the link in `slot`, returning the new
    /// heat (0 when the slot holds no link).
    pub fn heat_up(&self, slot: usize) -> u64 {
        match self.links.slots[slot].lock().unwrap().as_mut() {
            Some(link) => {
                link.heat += 1;
                link.heat
            }
            None => 0,
        }
    }

    /// Current heat of the link in `slot` (0 when unpatched).
    pub fn link_heat(&self, slot: usize) -> u64 {
        self.links.slots[slot]
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |l| l.heat)
    }
}

/// Statistics kept by the cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that found a dispatchable region.
    pub hits: u64,
    /// Lookups that missed — no region at the key, or only a region whose
    /// generation gate refuses dispatch (a translation is required).
    pub misses: u64,
    /// Regions discarded by full invalidations.
    pub invalidated_full: u64,
    /// Regions discarded by per-page invalidations (self-modifying code).
    pub invalidated_page: u64,
    /// Stale-generation regions evicted by the context-generation sweep.
    pub evicted_stale_regions: u64,
    /// Regions evicted by the clock sweep to satisfy a capacity bound.
    pub capacity_evictions: u64,
    /// Encoded host-code bytes currently resident.
    pub bytes_live: u64,
    /// Regions currently resident.
    pub regions_live: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit, in [0, 1]; 1.0 when there were none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached region plus its clock reference bit (set on dispatch-path hits,
/// cleared when the eviction hand sweeps past).
#[derive(Debug)]
struct Slot {
    region: Arc<Region>,
    referenced: AtomicBool,
}

impl Slot {
    fn new(region: Arc<Region>) -> Self {
        Slot {
            region,
            referenced: AtomicBool::new(false),
        }
    }
}

/// Number of index shards; a power of two so shard selection is a mask.
pub const SHARD_COUNT: usize = 16;

/// Sentinel meaning "no capacity bound" in the atomic capacity fields.
const UNBOUNDED: usize = usize::MAX;

/// FNV-1a over a byte slice — the content hash used by the reuse layer
/// (page bytes → template identity) and by shard selection.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn shard_index(key: RegionKey) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in [key.phys, key.virt] {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Fold the high bits in: consecutive page-aligned keys otherwise cluster.
    ((h ^ (h >> 32)) as usize) & (SHARD_COUNT - 1)
}

/// The translation cache: one sharded index over every region.  All methods
/// take `&self`; the cache is `Send + Sync` and safe to share between the
/// run thread and tier-1 formation workers.
#[derive(Debug)]
pub struct CodeCache {
    index: CacheIndex,
    shards: [RwLock<HashMap<RegionKey, Slot>>; SHARD_COUNT],
    /// Insertion-order ring swept by the clock hand on capacity eviction.
    /// May hold keys already removed by invalidation; the sweep skips them.
    ring: Mutex<VecDeque<RegionKey>>,
    /// Bound on resident encoded host-code bytes ([`UNBOUNDED`] = none).
    capacity_bytes: AtomicUsize,
    /// Bound on resident region count ([`UNBOUNDED`] = none).
    capacity_regions: AtomicUsize,
    /// Bumped whenever an invalidation removes regions; chain links stamped
    /// with an older epoch are dead.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated_full: AtomicU64,
    invalidated_page: AtomicU64,
    evicted_stale_regions: AtomicU64,
    capacity_evictions: AtomicU64,
}

impl CodeCache {
    /// Creates an empty, unbounded cache with the given indexing policy.
    pub fn new(index: CacheIndex) -> Self {
        CodeCache {
            index,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            ring: Mutex::new(VecDeque::new()),
            capacity_bytes: AtomicUsize::new(UNBOUNDED),
            capacity_regions: AtomicUsize::new(UNBOUNDED),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated_full: AtomicU64::new(0),
            invalidated_page: AtomicU64::new(0),
            evicted_stale_regions: AtomicU64::new(0),
            capacity_evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: RegionKey) -> &RwLock<HashMap<RegionKey, Slot>> {
        &self.shards[shard_index(key)]
    }

    /// Installs (or lifts, with `None`) the capacity bounds, evicting
    /// immediately if the cache is already over a new bound.
    pub fn set_capacity(&self, bytes: Option<usize>, regions: Option<usize>) {
        self.capacity_bytes
            .store(bytes.unwrap_or(UNBOUNDED), Ordering::Relaxed);
        self.capacity_regions
            .store(regions.unwrap_or(UNBOUNDED), Ordering::Relaxed);
        self.enforce_capacity(None);
    }

    /// The indexing policy in force.
    pub fn index_kind(&self) -> CacheIndex {
        self.index
    }

    /// Current invalidation epoch (stamped into chain links at patch time).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Looks up the region dispatchable at `key` under the current context
    /// generation.  A multi-constituent region whose formation generation
    /// does not match is *not* dispatchable and counts as a miss.  Hit/miss
    /// accounting is atomic and fed by every lookup, region-shaped or not.
    pub fn get(&self, key: RegionKey, ctx_gen: u64) -> Option<Arc<Region>> {
        let shard = self.shard(key).read().unwrap();
        let found = shard
            .get(&key)
            .filter(|s| !s.region.gated() || s.region.ctx_gen == ctx_gen);
        match found {
            Some(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.referenced.store(true, Ordering::Relaxed);
                Some(Arc::clone(&slot.region))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up a region without the generation gate or the hit/miss
    /// statistics (used by the region former to consult link heats and to
    /// avoid re-forming an existing multi-constituent region).
    pub fn peek(&self, key: RegionKey) -> Option<Arc<Region>> {
        self.shard(key)
            .read()
            .unwrap()
            .get(&key)
            .map(|s| Arc::clone(&s.region))
    }

    /// Inserts a region under its key, replacing any previous region there
    /// (e.g. the plain one-constituent region a freshly formed trace
    /// supersedes).  Dropping the replaced `Arc` kills chain links into it;
    /// no epoch bump is needed because the replacement is reachable through
    /// the same key, so the slow path re-resolves naturally.  If the insert
    /// pushes the cache over a capacity bound, the clock sweep evicts other
    /// regions until it fits (the new region itself is exempt from this
    /// insert's sweep).
    pub fn insert(&self, region: Region) -> Arc<Region> {
        let arc = Arc::new(region);
        let key = arc.key();
        let replaced = {
            let mut shard = self.shard(key).write().unwrap();
            shard.insert(key, Slot::new(Arc::clone(&arc)))
        };
        // Shard lock released before touching the ring (see the lock-order
        // rule in the module docs).
        if replaced.is_none() {
            self.ring.lock().unwrap().push_back(key);
        }
        self.enforce_capacity(Some(key));
        arc
    }

    /// True while a capacity bound is exceeded.
    fn over_capacity(&self) -> bool {
        let byte_bound = self.capacity_bytes.load(Ordering::Relaxed);
        if byte_bound != UNBOUNDED && self.bytes_live() > byte_bound {
            return true;
        }
        let region_bound = self.capacity_regions.load(Ordering::Relaxed);
        region_bound != UNBOUNDED && self.len() > region_bound
    }

    /// Clock (second-chance) sweep: evicts regions from the insertion-order
    /// ring until the cache is within its capacity bounds.  A referenced
    /// region gets its bit cleared and one more trip around the ring; the
    /// region at `keep` (the one just inserted) is never evicted by this
    /// sweep.  Evictions bump the epoch so dispatcher-held chain links die.
    /// Holds the ring lock for the whole sweep (acquiring shard locks
    /// inside it — the permitted order), so concurrent inserts serialize
    /// their sweeps rather than double-evicting.
    fn enforce_capacity(&self, keep: Option<RegionKey>) {
        let mut ring = self.ring.lock().unwrap();
        let mut evicted = 0u64;
        let mut spared_keep = false;
        while self.over_capacity() {
            let Some(key) = ring.pop_front() else {
                break;
            };
            if Some(key) == keep {
                if spared_keep {
                    // Only the protected region is left to sweep: admit it
                    // even though it exceeds the bound on its own.
                    ring.push_front(key);
                    break;
                }
                spared_keep = true;
                ring.push_back(key);
                continue;
            }
            let mut shard = self.shard(key).write().unwrap();
            let Some(slot) = shard.get(&key) else {
                continue; // already invalidated; drop the stale ring entry
            };
            if slot.referenced.swap(false, Ordering::Relaxed) {
                drop(shard);
                ring.push_back(key);
                spared_keep = false; // bit cleared: the next lap can evict
                continue;
            }
            shard.remove(&key);
            drop(shard);
            evicted += 1;
            spared_keep = false;
        }
        if evicted > 0 {
            self.capacity_evictions
                .fetch_add(evicted, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops ring entries whose region an invalidation already removed.
    fn prune_ring(&self) {
        let mut ring = self.ring.lock().unwrap();
        ring.retain(|&k| self.shard(k).read().unwrap().contains_key(&k));
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// True if no regions are cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().unwrap().is_empty())
    }

    /// Number of cached multi-constituent regions (stale-generation ones
    /// included until they are replaced, invalidated or swept).
    pub fn multi_region_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .filter(|slot| slot.region.is_multi())
                    .count()
            })
            .sum()
    }

    /// Snapshot of the branch-link profile: every cached conditional block's
    /// (taken, fallthrough) link heats, sorted by region key (keys are
    /// unique, so a binary search by key finds a block's entry).  A tier-1
    /// formation request freezes this at publish time so workers choose
    /// continuation legs without touching the live cache.
    pub fn branch_profiles(&self) -> Vec<(RegionKey, (u64, u64))> {
        let mut heats = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.read().unwrap().iter() {
                if matches!(slot.region.exit, BlockExit::Branch { .. }) {
                    heats.push((*key, (slot.region.link_heat(0), slot.region.link_heat(1))));
                }
            }
        }
        heats.sort_unstable_by_key(|&(key, _)| key);
        heats
    }

    /// Evicts every multi-constituent region whose formation context
    /// generation is not `ctx_gen`, returning how many were dropped.  The
    /// dispatcher calls this once per observed generation bump: stale
    /// regions can never be dispatched again (the generation gate in
    /// [`CodeCache::get`] refuses them), so keeping them only leaks memory
    /// on TLBI-heavy guests.  Dropping the `Arc`s also kills chain links
    /// into them; no epoch bump is needed because generation-stamped links
    /// are already dead.
    pub fn evict_stale_regions(&self, ctx_gen: u64) -> usize {
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap();
            let before = shard.len();
            shard.retain(|_, s| !s.region.gated() || s.region.ctx_gen == ctx_gen);
            removed += before - shard.len();
        }
        self.evicted_stale_regions
            .fetch_add(removed as u64, Ordering::Relaxed);
        if removed > 0 {
            self.prune_ring();
        }
        removed
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated_full: self.invalidated_full.load(Ordering::Relaxed),
            invalidated_page: self.invalidated_page.load(Ordering::Relaxed),
            evicted_stale_regions: self.evicted_stale_regions.load(Ordering::Relaxed),
            capacity_evictions: self.capacity_evictions.load(Ordering::Relaxed),
            bytes_live: self.bytes_live() as u64,
            regions_live: self.len() as u64,
        }
    }

    /// Discards every translation (the QEMU-style response to a guest
    /// page-table change when indexing by virtual address).
    pub fn invalidate_all(&self) {
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap();
            removed += shard.len() as u64;
            shard.clear();
        }
        self.invalidated_full.fetch_add(removed, Ordering::Relaxed);
        self.ring.lock().unwrap().clear();
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Discards regions any of whose constituent guest code pages is
    /// `page_base` (Captive's response to a detected self-modifying write).
    /// One rule covers every region shape: a plain block dies when its span
    /// touches the page, a stitched trace when *any* constituent page does.
    /// Dropping the cache's `Arc`s kills chain links into the page; the
    /// epoch bump additionally kills links *from* regions the dispatcher
    /// still holds.
    pub fn invalidate_phys_page(&self, page_base: u64) {
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap();
            let before = shard.len();
            shard.retain(|_, s| !s.region.pages.contains(&page_base));
            removed += (before - shard.len()) as u64;
        }
        if removed > 0 {
            self.invalidated_page.fetch_add(removed, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Relaxed);
            self.prune_ring();
        }
    }

    /// Total bytes of encoded host code currently cached.
    pub fn total_encoded_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .map(|slot| slot.region.encoded_bytes)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Alias of [`CodeCache::total_encoded_bytes`] used by the capacity
    /// check and occupancy statistics.
    fn bytes_live(&self) -> usize {
        self.total_encoded_bytes()
    }

    /// Total guest instructions covered by cached regions.
    pub fn total_guest_insns(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .map(|slot| slot.region.guest_insns)
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Packs the codegen knobs a region was formed under into one word for the
/// [`ReuseKey`]: a template formed with different optimisation, unrolling
/// or tracing limits is a different translation and must never be reused
/// across configurations.  `idiom_table` is [`crate::idiom::RuleTable::hash`]
/// of the active idiom rule set (0 when the idiom layer is off): its low 32
/// bits join the key, so code generated under one mined rule set is never
/// instantiated under another.
pub fn pack_knobs(
    soft_fp: bool,
    opt: bool,
    promote: bool,
    idioms: bool,
    unroll: usize,
    max_insns: usize,
    idiom_table: u64,
) -> u64 {
    let table = if idioms { idiom_table } else { 0 };
    (soft_fp as u64)
        | ((opt as u64) << 1)
        | ((promote as u64) << 3)
        | ((idioms as u64) << 4)
        | (((unroll as u64) & 0xFF) << 8)
        | (((max_insns as u64) & 0xFFFF) << 16)
        | ((table & 0xFFFF_FFFF) << 32)
}

/// Identity of a reusable translation: where it enters, the knobs it was
/// formed under, and what the entry page's bytes hashed to at formation
/// time.  Two images whose entry pages differ can never collide; images
/// that share an entry page but diverge on an interior page are separated
/// by per-template validation of every constituent page hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseKey {
    /// Guest physical entry address.
    pub phys: u64,
    /// Guest virtual entry address (generated code embeds virtual PCs).
    pub virt: u64,
    /// Codegen knobs, packed by [`pack_knobs`].
    pub knobs: u64,
    /// FNV-1a hash of the entry page's bytes at formation time.
    pub entry_page_hash: u64,
}

/// A formed region published for content-keyed reuse: everything needed to
/// re-instantiate the region in another run, plus the content hash of every
/// constituent page for validation.  The host code is shared by `Arc` — a
/// thousand guests running one kernel image hold one copy.
#[derive(Debug, Clone)]
pub struct ReuseTemplate {
    /// Guest instructions covered (all constituents).
    pub guest_insns: usize,
    /// The formed host code, shared between all instantiations.
    pub code: Arc<Vec<MachInsn>>,
    /// Encoded host-code size in bytes.
    pub encoded_bytes: usize,
    /// Host instructions before dead-code elimination.
    pub lir_insns: usize,
    /// LIR instructions eliminated before encoding.
    pub elided_insns: usize,
    /// Terminator metadata.
    pub exit: BlockExit,
    /// Constituent basic blocks.
    pub constituents: usize,
    /// Every constituent page with the FNV-1a hash of its bytes at
    /// formation time; a candidate is only instantiated after *all* of
    /// these revalidate against live memory.
    pub pages: Vec<(u64, u64)>,
    /// Loop-body copies stitched by unrolling.
    pub unroll: usize,
    /// Region-internal back-edges closed.
    pub back_edges: usize,
    /// Guest instructions in the looping portion.
    pub loop_guest_insns: usize,
    /// Eliminated-LIR share of the looping portion.
    pub loop_elided_insns: usize,
    /// Dirty loop-promoted slots (see [`Region::promoted`]); part of the
    /// translation's identity, so instantiations reconcile faults exactly
    /// like the original.
    pub promoted: Vec<(i32, Gpr)>,
    /// Per-rule idiom candidate counts of the original translation, carried
    /// so instantiated regions feed the rule miner like freshly-formed ones.
    pub idiom_candidates: [u32; crate::idiom::RULE_COUNT],
}

impl ReuseTemplate {
    /// Captures a formed region as a template.  `page_hashes` must cover
    /// exactly the region's constituent pages (base → content hash of the
    /// bytes the region was formed against).
    pub fn from_region(region: &Region, page_hashes: &[(u64, u64)]) -> Self {
        debug_assert_eq!(page_hashes.len(), region.pages.len());
        ReuseTemplate {
            guest_insns: region.guest_insns,
            code: Arc::clone(&region.code),
            encoded_bytes: region.encoded_bytes,
            lir_insns: region.lir_insns,
            elided_insns: region.elided_insns,
            exit: region.exit,
            constituents: region.constituents,
            pages: page_hashes.to_vec(),
            unroll: region.unroll,
            back_edges: region.back_edges,
            loop_guest_insns: region.loop_guest_insns,
            loop_elided_insns: region.loop_elided_insns,
            promoted: region.promoted.clone(),
            idiom_candidates: region.idiom_candidates,
        }
    }

    /// Instantiates the template as a fresh [`Region`] at the given entry,
    /// stamped with the current context generation and carrying fresh
    /// (unpatched) chain links.  The host code `Arc` is shared, not cloned.
    pub fn instantiate(&self, phys: u64, virt: u64, ctx_gen: u64) -> Region {
        Region {
            guest_phys: phys,
            guest_virt: virt,
            guest_insns: self.guest_insns,
            code: Arc::clone(&self.code),
            encoded_bytes: self.encoded_bytes,
            lir_insns: self.lir_insns,
            elided_insns: self.elided_insns,
            exit: self.exit,
            links: ChainLinks::default(),
            constituents: self.constituents,
            pages: self.pages.iter().map(|&(base, _)| base).collect(),
            ctx_gen,
            unroll: self.unroll,
            back_edges: self.back_edges,
            loop_guest_insns: self.loop_guest_insns,
            loop_elided_insns: self.loop_elided_insns,
            promoted: self.promoted.clone(),
            idiom_candidates: self.idiom_candidates,
        }
    }
}

/// One recorded refusal: the (page base, content hash) set a formation
/// attempt consumed while proving no region forms there.
type RefusalPages = Vec<(u64, u64)>;

/// Content-keyed translation reuse: formed machine code indexed by what it
/// was formed *from* (entry + knobs + page-content hashes), shareable
/// between runs via `Arc` so repeated executions of one kernel image pay
/// for region formation once.
#[derive(Debug, Default)]
pub struct ReuseCache {
    entries: RwLock<HashMap<ReuseKey, Vec<ReuseTemplate>>>,
    /// Negative knowledge: consumed page-hash sets a formation attempt
    /// proved to yield *no* region (trace too short, lowering bailed).  A
    /// validated refusal lets later runs of the same content skip the
    /// formation round-trip entirely — the outcome is already known.
    refusals: RwLock<HashMap<ReuseKey, Vec<RefusalPages>>>,
}

impl ReuseCache {
    /// Creates an empty reuse cache.
    pub fn new() -> Self {
        ReuseCache::default()
    }

    /// Publishes a template under `key`.  A template whose page set and
    /// hashes exactly match an existing candidate is dropped (the existing
    /// one already serves every image this one could).
    pub fn publish(&self, key: ReuseKey, template: ReuseTemplate) {
        let mut entries = self.entries.write().unwrap();
        let candidates = entries.entry(key).or_default();
        if candidates.iter().any(|c| c.pages == template.pages) {
            return;
        }
        candidates.push(template);
    }

    /// Records that forming at `key` against content whose consumed pages
    /// hashed to `pages` produced no region.  Identical page sets dedupe.
    pub fn publish_refusal(&self, key: ReuseKey, pages: Vec<(u64, u64)>) {
        let mut refusals = self.refusals.write().unwrap();
        let sets = refusals.entry(key).or_default();
        if sets.contains(&pages) {
            return;
        }
        sets.push(pages);
    }

    /// Whether a prior formation attempt at `key` is recorded to have
    /// refused on content that still matches — validated page by page with
    /// `page_matches(page_base, formation_hash)`.
    pub fn known_refusal(
        &self,
        key: ReuseKey,
        mut page_matches: impl FnMut(u64, u64) -> bool,
    ) -> bool {
        let refusals = self.refusals.read().unwrap();
        let Some(sets) = refusals.get(&key) else {
            return false;
        };
        sets.iter()
            .any(|s| s.iter().all(|&(base, hash)| page_matches(base, hash)))
    }

    /// Whether anything — a template or a recorded refusal — is published
    /// under `key`.  A cheap precheck (no page validation) used to skip
    /// redundant formation publishes when the outcome is likely already
    /// known at the install point.
    pub fn covers(&self, key: ReuseKey) -> bool {
        self.entries
            .read()
            .unwrap()
            .get(&key)
            .is_some_and(|c| !c.is_empty())
            || self
                .refusals
                .read()
                .unwrap()
                .get(&key)
                .is_some_and(|s| !s.is_empty())
    }

    /// Looks up a reusable template for `key`, validating candidates with
    /// `page_matches(page_base, formation_hash)` — which must hash the live
    /// bytes of `page_base` and compare.  The first fully validated
    /// candidate (in publication order, so lookups are deterministic) is
    /// returned as a clone.
    pub fn lookup(
        &self,
        key: ReuseKey,
        mut page_matches: impl FnMut(u64, u64) -> bool,
    ) -> Option<ReuseTemplate> {
        let entries = self.entries.read().unwrap();
        let candidates = entries.get(&key)?;
        candidates
            .iter()
            .find(|c| c.pages.iter().all(|&(base, hash)| page_matches(base, hash)))
            .cloned()
    }

    /// Number of distinct reuse keys published.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.read().unwrap().is_empty()
    }
}

// The tiered translation service shares regions, the code cache and the
// reuse cache across threads; keep the compiler holding that door open.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Region>();
    assert_send_sync::<CodeCache>();
    assert_send_sync::<ReuseCache>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn key(phys: u64, virt: u64) -> RegionKey {
        RegionKey { phys, virt }
    }

    fn block(at: u64, insns: usize) -> Region {
        block_with_exit(at, insns, BlockExit::Indirect)
    }

    fn block_with_exit(at: u64, insns: usize, exit: BlockExit) -> Region {
        Region {
            guest_phys: at,
            guest_virt: at,
            guest_insns: insns,
            code: Arc::new(vec![MachInsn::Ret]),
            encoded_bytes: insns * 40,
            lir_insns: insns * 12,
            elided_insns: 0,
            exit,
            links: ChainLinks::default(),
            constituents: 1,
            pages: Region::span_pages(at, insns),
            ctx_gen: 0,
            unroll: 1,
            back_edges: 0,
            loop_guest_insns: 0,
            loop_elided_insns: 0,
            promoted: Vec::new(),
            idiom_candidates: [0; crate::idiom::RULE_COUNT],
        }
    }

    fn multi(entry: u64, insns: usize, pages: Vec<u64>, ctx_gen: u64) -> Region {
        Region {
            constituents: pages.len().max(2),
            pages,
            ctx_gen,
            ..block_with_exit(entry, insns, BlockExit::Jump { target: entry })
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        assert!(c.get(key(0x1000, 0x1000), 0).is_none());
        c.insert(block(0x1000, 3));
        assert!(c.get(key(0x1000, 0x1000), 0).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn stale_generation_lookups_count_as_misses() {
        // The old `get_super` path bypassed the statistics entirely; the
        // unified lookup must record both the refusal and the later hit.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(multi(0x1000, 8, vec![0x1000, 0x2000], 5));
        assert!(c.get(key(0x1000, 0x1000), 6).is_none(), "stale generation");
        assert_eq!(c.stats().misses, 1);
        assert!(c.get(key(0x1000, 0x1000), 5).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn hit_rate_with_no_lookups_is_one() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn full_invalidation_clears_everything() {
        let c = CodeCache::new(CacheIndex::GuestVirtual);
        c.insert(block(0x1000, 3));
        c.insert(block(0x2000, 5));
        c.insert(multi(0x3000, 8, vec![0x3000], 0));
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidated_full, 3);
    }

    #[test]
    fn page_invalidation_only_hits_overlapping_regions() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(block(0x1000, 4));
        c.insert(block(0x1FF8, 4)); // straddles into 0x2000 page
        c.insert(block(0x3000, 4));
        c.invalidate_phys_page(0x2000);
        assert!(c.get(key(0x1000, 0x1000), 0).is_some());
        assert!(
            c.get(key(0x1FF8, 0x1FF8), 0).is_none(),
            "straddling region invalidated"
        );
        assert!(c.get(key(0x3000, 0x3000), 0).is_some());
        assert_eq!(c.stats().invalidated_page, 1);
    }

    #[test]
    fn span_pages_cover_the_straddle() {
        assert_eq!(Region::span_pages(0x1FF8, 4), vec![0x1000, 0x2000]);
        assert_eq!(Region::span_pages(0x1000, 4), vec![0x1000]);
        assert_eq!(Region::span_pages(0x1000, 0), vec![0x1000]);
    }

    #[test]
    fn aggregate_statistics() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(block(0x1000, 2));
        c.insert(block(0x2000, 3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_guest_insns(), 5);
        assert_eq!(c.total_encoded_bytes(), 200);
    }

    #[test]
    fn chain_slots_match_terminator_targets() {
        let jump = block_with_exit(0x1000, 1, BlockExit::Jump { target: 0x2000 });
        assert_eq!(jump.chain_slot(0x2000), Some(0));
        assert_eq!(jump.chain_slot(0x3000), None);

        let branch = block_with_exit(
            0x1000,
            1,
            BlockExit::Branch {
                taken: 0x2000,
                fallthrough: 0x1004,
            },
        );
        assert_eq!(branch.chain_slot(0x2000), Some(0));
        assert_eq!(branch.chain_slot(0x1004), Some(1));
        assert_eq!(branch.chain_slot(0x5000), None);

        let seq = block_with_exit(0x1000, 2, BlockExit::Fallthrough { next: 0x1008 });
        assert_eq!(seq.chain_slot(0x1008), Some(0));

        let ind = block_with_exit(0x1000, 1, BlockExit::Indirect);
        assert_eq!(ind.chain_slot(0x1004), None);
    }

    #[test]
    fn links_follow_only_under_matching_stamps() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x2000 },
        ));
        let b = c.insert(block(0x2000, 1));
        a.set_link(0, 7, c.epoch(), &b);
        assert!(a.follow_link(0, 7, c.epoch()).is_some());
        assert!(a.follow_link(0, 8, c.epoch()).is_none(), "stale generation");
        assert!(a.follow_link(0, 7, c.epoch() + 1).is_none(), "stale epoch");
    }

    #[test]
    fn invalidating_the_target_kills_links_into_it() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x2000 },
        ));
        let b = c.insert(block(0x2000, 1));
        a.set_link(0, 0, c.epoch(), &b);
        drop(b);
        c.invalidate_phys_page(0x2000);
        // Both the weak upgrade and the epoch stamp now refuse the link.
        assert!(a.follow_link(0, 0, c.epoch()).is_none());
    }

    #[test]
    fn replacing_a_region_kills_links_into_the_old_one() {
        // Promotion path: a formed multi-constituent region replaces the
        // plain region at the same key; a link still pointing at the old
        // `Arc` dies with it, with no epoch bump required.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x2000 },
        ));
        let old = c.insert(block(0x2000, 1));
        a.set_link(0, 0, c.epoch(), &old);
        drop(old);
        let epoch_before = c.epoch();
        c.insert(multi(0x2000, 6, vec![0x2000], 0));
        assert_eq!(c.epoch(), epoch_before, "replacement is not invalidation");
        assert!(
            a.follow_link(0, 0, c.epoch()).is_none(),
            "the link into the replaced region must die"
        );
    }

    #[test]
    fn link_heat_accumulates_and_resets_on_repatch() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x2000 },
        ));
        let b = c.insert(block(0x2000, 1));
        assert_eq!(a.heat_up(0), 0, "no link, no heat");
        a.set_link(0, 0, c.epoch(), &b);
        assert_eq!(a.heat_up(0), 1);
        assert_eq!(a.heat_up(0), 2);
        assert_eq!(a.link_heat(0), 2);
        a.set_link(0, 0, c.epoch(), &b);
        assert_eq!(a.link_heat(0), 0, "re-patching restarts the profile");
    }

    #[test]
    fn multi_regions_are_gated_on_generation_and_keyed_by_entry() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(multi(0x1000, 8, vec![0x1000, 0x2000], 5));
        assert!(c.get(key(0x1000, 0x1000), 5).is_some());
        assert!(c.get(key(0x1000, 0x1000), 6).is_none(), "stale generation");
        assert!(
            c.get(key(0x2000, 0x2000), 5).is_none(),
            "interior page is not a key"
        );
        assert_eq!(c.multi_region_count(), 1);
    }

    #[test]
    fn virtual_aliases_of_one_entry_hold_separate_live_regions() {
        // Regression for the per-physical single slot: two virtual aliases
        // of one hot physical entry must not evict each other.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = Region {
            guest_virt: 0x4000,
            ..multi(0x1000, 8, vec![0x1000], 3)
        };
        let b = Region {
            guest_virt: 0x8000,
            ..multi(0x1000, 8, vec![0x1000], 3)
        };
        c.insert(a);
        c.insert(b);
        assert_eq!(c.multi_region_count(), 2);
        assert!(c.get(key(0x1000, 0x4000), 3).is_some());
        assert!(c.get(key(0x1000, 0x8000), 3).is_some());
        // SMC on the shared physical page still kills both.
        c.invalidate_phys_page(0x1000);
        assert_eq!(c.multi_region_count(), 0);
    }

    #[test]
    fn stale_generation_sweep_evicts_only_old_multi_regions() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(block(0x9000, 2)); // plain regions are generation-immune
        c.insert(multi(0x1000, 8, vec![0x1000], 1));
        c.insert(multi(0x3000, 8, vec![0x3000], 2));
        c.insert(multi(0x5000, 8, vec![0x5000], 2));
        assert_eq!(c.multi_region_count(), 3);
        let epoch_before = c.epoch();
        let removed = c.evict_stale_regions(2);
        assert_eq!(removed, 1, "only the generation-1 region is stale");
        assert_eq!(c.multi_region_count(), 2);
        assert_eq!(c.len(), 3);
        assert!(c.get(key(0x3000, 0x3000), 2).is_some());
        assert!(c.get(key(0x1000, 0x1000), 1).is_none(), "evicted");
        assert!(
            c.get(key(0x9000, 0x9000), 2).is_some(),
            "plain regions survive the sweep"
        );
        assert_eq!(c.stats().evicted_stale_regions, 1);
        assert_eq!(
            c.epoch(),
            epoch_before,
            "sweeping stale regions must not retire current links"
        );
        // Sweeping again with the same generation is a no-op.
        assert_eq!(c.evict_stale_regions(2), 0);
    }

    #[test]
    fn looping_regions_are_gated_even_with_one_constituent() {
        // A self-loop closed at unroll 1 has a single constituent but still
        // embeds a virtual control-flow decision (the back-edge targets the
        // entry's virtual address): it must be generation-gated and swept
        // like any stitched trace.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let looping = Region {
            back_edges: 1,
            loop_guest_insns: 3,
            ctx_gen: 4,
            ..block_with_exit(0x1000, 3, BlockExit::Jump { target: 0x1000 })
        };
        assert!(looping.gated());
        c.insert(looping);
        assert!(c.get(key(0x1000, 0x1000), 4).is_some());
        assert!(c.get(key(0x1000, 0x1000), 5).is_none(), "stale generation");
        assert_eq!(c.evict_stale_regions(5), 1, "stale looping region swept");
    }

    #[test]
    fn smc_on_any_constituent_page_kills_the_region() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.insert(multi(0x1000, 8, vec![0x1000, 0x2000], 0));
        let epoch_before = c.epoch();
        c.invalidate_phys_page(0x2000); // interior page, not the entry page
        assert_eq!(c.multi_region_count(), 0);
        assert!(c.epoch() > epoch_before, "epoch bump retires held links");
        assert_eq!(c.stats().invalidated_page, 1);
    }

    #[test]
    fn region_profile_attributes_per_entry_mode() {
        let mut p = RegionProfile {
            guest_insns: 4,
            constituents: 2,
            ..RegionProfile::default()
        };
        p.record(EntryMode::Dispatched, 10);
        p.record(EntryMode::Chained, 3);
        p.record(EntryMode::Chained, 3);
        assert_eq!(p.executions(EntryMode::Dispatched), 1);
        assert_eq!(p.executions(EntryMode::Chained), 2);
        assert_eq!(p.cycles(EntryMode::Dispatched), 10);
        assert_eq!(p.cycles(EntryMode::Chained), 6);
        assert_eq!(p.total_executions(), 3);
        assert_eq!(p.total_cycles(), 16);
    }

    #[test]
    fn capacity_bound_evicts_oldest_unreferenced_region() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(None, Some(2));
        c.insert(block(0x1000, 1));
        c.insert(block(0x2000, 1));
        let epoch_before = c.epoch();
        c.insert(block(0x3000, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().capacity_evictions, 1);
        assert_eq!(c.stats().regions_live, 2);
        assert!(c.epoch() > epoch_before, "eviction retires held links");
        // FIFO among unreferenced regions: the oldest insert went first.
        assert!(c.peek(key(0x1000, 0x1000)).is_none(), "oldest evicted");
        assert!(c.peek(key(0x2000, 0x2000)).is_some());
        assert!(c.peek(key(0x3000, 0x3000)).is_some(), "new region admitted");
    }

    #[test]
    fn clock_sweep_gives_referenced_regions_a_second_chance() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(None, Some(2));
        c.insert(block(0x1000, 1));
        c.insert(block(0x2000, 1));
        // A dispatch-path hit marks 0x1000 referenced; 0x2000 stays cold.
        assert!(c.get(key(0x1000, 0x1000), 0).is_some());
        c.insert(block(0x3000, 1));
        assert!(c.peek(key(0x1000, 0x1000)).is_some(), "hot region survives");
        assert!(c.peek(key(0x2000, 0x2000)).is_none(), "cold region evicted");
        assert_eq!(c.stats().capacity_evictions, 1);
    }

    #[test]
    fn byte_capacity_bound_is_enforced() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        // block() gives each region insns * 40 encoded bytes.
        c.set_capacity(Some(100), None);
        c.insert(block(0x1000, 1)); // 40 bytes
        c.insert(block(0x2000, 1)); // 80 bytes
        c.insert(block(0x3000, 1)); // 120 bytes: over, evict one
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().bytes_live, 80);
        assert_eq!(c.stats().capacity_evictions, 1);
    }

    #[test]
    fn an_oversized_region_is_still_admitted() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(Some(50), None);
        c.insert(block(0x1000, 4)); // 160 bytes, alone over the bound
        assert_eq!(c.len(), 1, "sole region is exempt from its own sweep");
        assert!(c.peek(key(0x1000, 0x1000)).is_some());
        c.insert(block(0x2000, 1));
        // The oversized one is now evictable in favour of the newcomer.
        assert!(c.peek(key(0x1000, 0x1000)).is_none());
        assert!(c.peek(key(0x2000, 0x2000)).is_some());
    }

    #[test]
    fn invalidation_leaves_no_stale_ring_entries_to_evict() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(None, Some(2));
        c.insert(block(0x1000, 1));
        c.insert(block(0x2000, 1));
        c.invalidate_phys_page(0x1000);
        assert_eq!(c.len(), 1);
        c.insert(block(0x3000, 1));
        // Within the bound again: nothing must be charged as evicted.
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().capacity_evictions, 0);
    }

    #[test]
    fn unbounded_cache_never_capacity_evicts() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        for i in 0..64 {
            c.insert(block(0x1000 + i * 0x100, 1));
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.stats().capacity_evictions, 0);
        assert_eq!(c.stats().regions_live, 64);
    }

    #[test]
    fn epoch_bumps_kill_self_links_held_by_the_dispatcher() {
        // A region chained to itself stays strongly referenced by the
        // dispatcher across its own invalidation; the epoch stamp is what
        // breaks the loop.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x1000 },
        ));
        let epoch_at_patch = c.epoch();
        a.set_link(0, 0, epoch_at_patch, &a);
        assert!(a.follow_link(0, 0, epoch_at_patch).is_some());
        c.invalidate_phys_page(0x1000);
        assert!(
            a.follow_link(0, 0, c.epoch()).is_none(),
            "self-link must die on invalidation even though the Arc lives"
        );
    }

    #[test]
    fn concurrent_mutation_is_sound() {
        // Hammer the sharded index from several threads at once: inserts,
        // dispatch-path lookups, page invalidations and a capacity bound
        // tight enough to keep the clock hand sweeping.  The assertions are
        // (a) no deadlock/panic, (b) the books still balance at the end.
        use std::sync::atomic::AtomicU64 as Counter;
        let c = Arc::new(CodeCache::new(CacheIndex::GuestPhysical));
        c.set_capacity(None, Some(32));
        let inserted = Arc::new(Counter::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            let inserted = Arc::clone(&inserted);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let at = 0x1000 + ((t * 200 + i) % 96) * 0x100;
                    c.insert(block(at, 1));
                    inserted.fetch_add(1, Ordering::Relaxed);
                    c.get(key(at, at), 0);
                    if i % 16 == 0 {
                        c.invalidate_phys_page(at & !0xFFF);
                    }
                    if i % 32 == 0 {
                        c.evict_stale_regions(0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(inserted.load(Ordering::Relaxed), 800);
        assert!(c.len() <= 33, "bound holds modulo one in-flight oversize");
        assert_eq!(s.regions_live, c.len() as u64);
        assert!(s.hits + s.misses == 800, "every lookup was counted");
    }

    #[test]
    fn reuse_template_round_trips_through_content_validation() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 3);
        let hashes = [(0x1000u64, 0xAAAAu64), (0x2000, 0xBBBB)];
        let knobs = pack_knobs(false, true, true, true, 4, 256, 0);
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs,
            entry_page_hash: 0xAAAA,
        };
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        assert_eq!(reuse.len(), 1);
        // All pages validate: the template is served.
        let got = reuse
            .lookup(key, |base, hash| {
                hashes.iter().any(|&(b, h)| b == base && h == hash)
            })
            .expect("content-valid template");
        let inst = got.instantiate(0x1000, 0x1000, 7);
        assert_eq!(inst.ctx_gen, 7);
        assert_eq!(inst.pages, vec![0x1000, 0x2000]);
        assert_eq!(inst.constituents, region.constituents);
        assert!(Arc::ptr_eq(&inst.code, &region.code), "code is shared");
        // A modified interior page defeats reuse.
        assert!(
            reuse
                .lookup(key, |base, hash| base == 0x1000 && hash == 0xAAAA)
                .is_none(),
            "a stale interior page must invalidate the candidate"
        );
        // A different knob set is a different key entirely.
        let other = ReuseKey {
            knobs: pack_knobs(false, false, true, true, 4, 256, 0),
            ..key
        };
        assert!(reuse.lookup(other, |_, _| true).is_none());
    }

    #[test]
    fn reuse_publish_dedupes_identical_page_sets() {
        let reuse = ReuseCache::new();
        let region = block(0x1000, 2);
        let hashes = [(0x1000u64, 0x1234u64)];
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs: 0,
            entry_page_hash: 0x1234,
        };
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        let entries = reuse.entries.read().unwrap();
        assert_eq!(entries.get(&key).unwrap().len(), 1, "deduped");
    }

    #[test]
    fn reuse_refusals_validate_content_and_dedupe() {
        let reuse = ReuseCache::new();
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs: 0,
            entry_page_hash: 0x1234,
        };
        assert!(!reuse.covers(key));
        let pages = vec![(0x1000u64, 0x1234u64), (0x2000, 0x5678)];
        reuse.publish_refusal(key, pages.clone());
        reuse.publish_refusal(key, pages.clone());
        assert_eq!(reuse.refusals.read().unwrap()[&key].len(), 1, "deduped");
        // The refusal covers the key (publish precheck) and validates only
        // while every recorded page still hashes the same.
        assert!(reuse.covers(key));
        assert!(reuse.known_refusal(key, |base, hash| {
            pages.iter().any(|&(b, h)| b == base && h == hash)
        }));
        assert!(
            !reuse.known_refusal(key, |base, hash| base == 0x1000 && hash == 0x1234),
            "a changed interior page must void the refusal"
        );
        // Refusals never surface as installable templates.
        assert!(reuse.lookup(key, |_, _| true).is_none());
    }

    #[test]
    fn knob_packing_distinguishes_every_field() {
        let base = pack_knobs(false, true, true, true, 4, 256, 0);
        assert_ne!(base, pack_knobs(true, true, true, true, 4, 256, 0));
        assert_ne!(base, pack_knobs(false, false, true, true, 4, 256, 0));
        assert_ne!(base, pack_knobs(false, true, false, true, 4, 256, 0));
        assert_ne!(base, pack_knobs(false, true, true, true, 8, 256, 0));
        assert_ne!(base, pack_knobs(false, true, true, true, 4, 128, 0));
        assert_ne!(base, pack_knobs(false, true, true, false, 4, 256, 0));
    }

    #[test]
    fn knob_packing_keys_on_idiom_table_only_when_idioms_run() {
        let with = |idioms: bool, table: u64| pack_knobs(false, true, true, idioms, 4, 256, table);
        // Different rule tables generate different code, so they must land
        // in different reuse keys...
        assert_ne!(with(true, 0xDEAD_BEEF), with(true, 0x1234_5678));
        assert_eq!(with(true, 0xDEAD_BEEF) >> 32, 0xDEAD_BEEF);
        // ...but with the idiom layer off the table is inert, and every
        // table value must collapse onto the same key so idiom-off
        // translations stay shareable.
        assert_eq!(with(false, 0xDEAD_BEEF), with(false, 0x1234_5678));
        assert_eq!(with(false, 0xDEAD_BEEF), with(false, 0));
    }

    #[test]
    fn fnv_hash_is_content_sensitive() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
