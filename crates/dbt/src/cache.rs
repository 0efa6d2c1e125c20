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
//!
//! # Indexing and ownership
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
//! The cache has **one owner**: it is a by-value field of an engine, and
//! only that engine's run thread — the dispatcher, the synchronous region
//! former, the install point of tier-1 results — ever touches it.  Tier-1
//! formation workers do not: a formation request carries a frozen copy of
//! the link heats ([`CodeCache::branch_profiles`]) and shared copies of the
//! code pages, and the worker's product comes back over a channel to be
//! inserted by the run thread.  So the index is one plain hash map, the
//! eviction ring one deque and every statistic a plain integer, behind a
//! `RefCell` only so that lookups and inserts keep taking `&self`; the
//! cache is `Send` (an engine may move between threads) and not `Sync`.
//!
//! A [`RegionKey`] is two words handed out by the guest's page tables, not
//! attacker-chosen bytes, so the map hashes it with two multiplies
//! (`KeyHasher`) instead of SipHash; the high half of the product is
//! folded down so page-aligned entries at one in-page offset still spread
//! over the low bits the table indexes buckets with.
//!
//! # Block chaining
//!
//! Each region carries terminator metadata ([`BlockExit`]) computed at
//! translation time, plus up to two lazily patched successor links.  There
//! are three kinds of link, by exit:
//!
//! * a **direct** exit (jump, taken leg, sequential fallthrough) links its
//!   one target in slot 0, a conditional's fallthrough leg in slot 1;
//! * a **register-indirect** exit (`br` / `blr` / `ret`) links, in slot 0,
//!   the first target it resolved — a *predicted* link;
//! * an **opaque** exit (exception entry, `ERET`, a system-register write)
//!   never links.
//!
//! One rule covers all of them: a link is followed only if its target's
//! virtual entry is the exit PC ([`Region::follow_link`]).  For a direct
//! slot this holds by construction; for a predicted one it is the one
//! compare that makes the link sound.  Under an unchanged context
//! generation VA→PA is unchanged, so the region entered at that virtual PC
//! is the one at `(pa(pc), pc)`, the key the slow path would look up.  A
//! live link whose target is entered elsewhere is left alone, never
//! re-pointed: the first target sticks.
//!
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
//! dispatcher (direct links only: a predicted transfer is no path the
//! former can stitch).  Regions themselves *do* cross threads (a worker
//! forms one and sends it back, and the reuse layer shares their code), so
//! link slots sit behind uncontended mutexes, which keeps [`Region`]
//! `Send + Sync`.
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
//! optional bound on the number of resident regions (Captive's
//! `cache_capacity_regions`).  When an [`CodeCache::insert`] pushes the cache
//! over it, a **clock (second-chance)** sweep evicts translations until the
//! cache fits again: regions sit in an insertion-order ring, every dispatch-path hit
//! ([`CodeCache::get`]) sets the region's reference bit, and the sweep hand
//! clears the bit and re-queues referenced regions but discards unreferenced
//! ones.  Hot translations therefore survive churn while cold ones pay for
//! it; a guest that thrashes the cache (an interrupt storm re-translating
//! handler paths, self-modifying code defeating reuse) degrades to more
//! re-translation — never to unbounded host memory growth.  The freshly
//! inserted region is exempt from its own insertion's sweep, so even a bound
//! of zero admits it rather than looping.  Capacity evictions bump
//! the epoch exactly like invalidations do: chain links into — and
//! dispatcher-held links out of — an evicted region die immediately, so a
//! capacity-bounded run is architecturally indistinguishable from an
//! unbounded one (only slower).  [`CacheStats`] reports the eviction count
//! plus live occupancy (`bytes_live`, `regions_live`).
//!
//! # Lookup statistics
//!
//! [`CodeCache::get`] is the *only* dispatch-path lookup and it feeds the
//! hit/miss counters unconditionally (a stale-generation region counts as a
//! miss: the dispatcher must translate), so [`CacheStats::hit_rate`] is
//! faithful on region-heavy runs.  [`CodeCache::peek`] is reserved for the
//! region former's profile consultation and deliberately leaves the
//! statistics alone (it neither counts nor marks the region referenced).
//! Live occupancy (`bytes_live`, `regions_live`) is kept as running counters
//! at insert/replace/remove, so a capacity check is O(1) per eviction step.
//!
//! Content-keyed reuse of formed regions across engine instances is a
//! separate, genuinely shared layer: see [`crate::reuse`].

use crate::reuse::MadeFrom;
use hvm::{Gpr, MachInsn, Xmm};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

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

/// The host register a loop-promoted register-file slot lives in (see
/// [`Region::promoted`]): a general-purpose register holds an 8-byte slot,
/// a vector register a 16-byte one, both lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    Gpr(Gpr),
    Xmm(Xmm),
}

/// Where control goes when a translated region exits — terminator metadata
/// recorded at translation time and consumed by the chaining dispatcher.
/// Which link each kind gets is the module docs' *Block chaining*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockExit {
    /// Exception entry, `ERET`, a system-register write or the UNDEF stub:
    /// the exit may change the exception level or translation state, so it
    /// always returns to the slow path.  Never linked.
    #[default]
    Opaque,
    /// A register-indirect branch (`br` / `blr` / `ret`): successor unknown
    /// at translation time.  Slot 0 holds a predicted link, the first target
    /// it resolved.
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
    /// `to`'s virtual entry, compared without touching its reference count.
    virt: u64,
}

/// The lazily patched successor links of a region.  Only the run thread
/// patches, heats and follows them (tier-1 workers read the frozen
/// [`CodeCache::branch_profiles`] copy instead), but a region is formed on a
/// worker and sent back, and `Arc<Region>` must stay `Send + Sync` for that
/// channel — so the slots sit behind mutexes that are never contended.
#[derive(Debug, Default)]
pub struct ChainLinks {
    slots: [Mutex<Option<ChainLink>>; 2],
}

impl ChainLinks {
    /// The link in `slot`, poisoned or not: every update is one whole
    /// assignment or increment, so a holder that panicked left a valid link.
    fn slot(&self, slot: usize) -> MutexGuard<'_, Option<ChainLink>> {
        self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a link slot says about one exit ([`Region::follow_link`]).
#[derive(Debug)]
pub enum Link {
    /// Live, and its target is entered at the exit PC: transfer there.
    Follow(Arc<Region>),
    /// Live, into another PC: the slow path, leaving the link as it is.
    Elsewhere,
    /// Never patched, or retired: the slow path, which patches it.
    Vacant,
}

/// One translation unit: host code covering 1..N guest basic blocks.
///
/// Every field has a reader: the dispatcher, the code cache and its
/// statistics, the region former or the reuse store.  What the back half did
/// to produce the unit is counted once, statically, in the translating
/// thread's [`crate::JitCounters`].
#[derive(Debug)]
pub struct Region {
    /// Guest physical address of the entry instruction.
    pub guest_phys: u64,
    /// Guest virtual address of the entry instruction.
    pub guest_virt: u64,
    /// Number of guest instructions translated (all constituents).
    pub guest_insns: usize,
    /// Host code (interpreted by the HVM64 machine).
    pub code: Arc<[MachInsn]>,
    /// Size of the byte-encoded host code.
    pub encoded_bytes: usize,
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
    /// Dirty loop-promoted register-file slots: (regfile byte offset, host
    /// register carrying the loop-resident value).  Every in-code exit path
    /// reconciles these itself; the engine consults this list only on a
    /// *fault* exit, storing each host register back to its slot — 8 bytes
    /// from a general-purpose carrier, 16 from a vector one — before
    /// delivering the event so the guest observes a precise register file.
    /// Empty for unpromoted translations.
    pub promoted: Vec<(i32, Carrier)>,
    /// What a block translated on a page the guest patches was made from,
    /// for the reuse store to have once a code write drops the block
    /// ([`crate::reuse`]); `None` everywhere else.
    pub made_from: Option<Box<MadeFrom>>,
}

impl Region {
    /// A one-constituent region — a plain block — entered at `phys` / `virt`:
    /// `guest_insns` straight-line guest instructions ending in `exit`, with
    /// the back half's output `t`.  The region former starts from this and
    /// overrides the trace fields.
    pub fn block(
        phys: u64,
        virt: u64,
        guest_insns: usize,
        exit: BlockExit,
        t: crate::FinishedTranslation,
    ) -> Region {
        Region {
            guest_phys: phys,
            guest_virt: virt,
            guest_insns,
            encoded_bytes: t.encoded_len,
            code: t.code.into(),
            exit,
            links: ChainLinks::default(),
            constituents: 1,
            pages: Region::span_pages(phys, guest_insns),
            ctx_gen: 0,
            unroll: 1,
            back_edges: 0,
            loop_guest_insns: 0,
            promoted: t.promoted,
            made_from: None,
        }
    }

    /// This translation again, entered at `key` under context generation
    /// `ctx_gen`: the same host code (shared, not copied) and the same
    /// shape, with links of its own that nothing has patched yet.  How the
    /// reuse layer ([`crate::reuse`]) turns a published prototype into the
    /// region an engine installs.
    pub fn instantiate(&self, key: RegionKey, ctx_gen: u64) -> Region {
        Region {
            guest_phys: key.phys,
            guest_virt: key.virt,
            ctx_gen,
            links: ChainLinks::default(),
            code: Arc::clone(&self.code),
            pages: self.pages.clone(),
            promoted: self.promoted.clone(),
            made_from: None,
            ..*self
        }
    }

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

    /// Index of the link slot for this region's exit to `next_va`: a direct
    /// target's own slot, slot 0 for any target of a register-indirect exit,
    /// none for an opaque exit or a PC the terminator does not lead to.
    pub fn chain_slot(&self, next_va: u64) -> Option<usize> {
        match self.exit {
            BlockExit::Jump { target } if next_va == target => Some(0),
            BlockExit::Fallthrough { next } if next_va == next => Some(0),
            BlockExit::Branch { taken, .. } if next_va == taken => Some(0),
            BlockExit::Branch { fallthrough, .. } if next_va == fallthrough => Some(1),
            BlockExit::Indirect => Some(0),
            _ => None,
        }
    }

    /// What the link in `slot` says about this region's exit to `next_pc`
    /// under the current stamps: the one link rule of the module docs.
    pub fn follow_link(&self, slot: usize, next_pc: u64, ctx_gen: u64, cache_epoch: u64) -> Link {
        let guard = self.links.slot(slot);
        let Some(link) = guard.as_ref().filter(|l| {
            l.ctx_gen == ctx_gen && l.cache_epoch == cache_epoch && l.to.strong_count() > 0
        }) else {
            return Link::Vacant;
        };
        if link.virt != next_pc {
            return Link::Elsewhere;
        }
        link.to.upgrade().map_or(Link::Vacant, Link::Follow)
    }

    /// Patches the link in `slot` to point at `to`, stamped with the context
    /// generation and cache epoch it was resolved under.  Resets the link's
    /// heat: the profile restarts for the new target.
    pub fn set_link(&self, slot: usize, ctx_gen: u64, cache_epoch: u64, to: &Arc<Region>) {
        *self.links.slot(slot) = Some(ChainLink {
            ctx_gen,
            cache_epoch,
            heat: 0,
            to: Arc::downgrade(to),
            virt: to.guest_virt,
        });
    }

    /// Bumps the transfer counter of the link in `slot`, returning the new
    /// heat (0 when the slot holds no link).
    pub fn heat_up(&self, slot: usize) -> u64 {
        match self.links.slot(slot).as_mut() {
            Some(link) => {
                link.heat += 1;
                link.heat
            }
            None => 0,
        }
    }

    /// Current heat of the link in `slot` (0 when unpatched).
    pub fn link_heat(&self, slot: usize) -> u64 {
        self.links.slot(slot).as_ref().map_or(0, |l| l.heat)
    }
}

/// Statistics kept by the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    referenced: bool,
}

/// FNV-1a over a byte slice — the digest the golden pipeline pins and the
/// benchmark's disk checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The index's hasher: one multiply per key word (the derived
/// `Hash for RegionKey` feeds exactly two `write_u64`s), high half folded
/// down at the end.  A multiply pushes entropy *up*, and page-aligned keys
/// at one in-page offset differ only above bit 12, so without the fold the
/// low bits hashbrown picks a bucket with would barely vary.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("RegionKey hashes as two u64 words");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by [`RegionKey`] under the cache's own [`KeyHasher`]: what
/// an engine's other per-key tables use on paths every chained transfer
/// takes.
pub type KeyMap<V> = HashMap<RegionKey, V, BuildHasherDefault<KeyHasher>>;

/// Everything the cache mutates, behind the one `RefCell`.
#[derive(Debug, Default)]
struct State {
    map: KeyMap<Slot>,
    /// Insertion-order ring swept by the clock hand on capacity eviction;
    /// holds exactly the keys of `map` (invalidations prune it).
    ring: VecDeque<RegionKey>,
    /// Keys of cached regions one of whose links has carried a transfer
    /// ([`CodeCache::note_heated`]): the only regions a branch-profile
    /// snapshot has anything to say about.  Pruned with the ring.
    heated: BTreeSet<RegionKey>,
    /// Bound on resident region count.
    capacity_regions: Option<usize>,
    /// Bumped whenever an invalidation removes regions; chain links stamped
    /// with an older epoch are dead.
    epoch: u64,
    /// `bytes_live`/`regions_live` are running sums over `map`.
    stats: CacheStats,
}

impl State {
    /// Books a region leaving the map.
    fn note_removed(&mut self, region: &Region) {
        self.stats.bytes_live -= region.encoded_bytes as u64;
        self.stats.regions_live -= 1;
    }

    /// Removes every region `doomed` selects, returning them.
    fn remove_where(&mut self, doomed: impl Fn(&Region) -> bool) -> Vec<Arc<Region>> {
        let mut removed = Vec::new();
        let bytes_live = &mut self.stats.bytes_live;
        self.map.retain(|_, slot| {
            let goes = doomed(&slot.region);
            if goes {
                *bytes_live -= slot.region.encoded_bytes as u64;
                removed.push(Arc::clone(&slot.region));
            }
            !goes
        });
        self.stats.regions_live -= removed.len() as u64;
        if !removed.is_empty() {
            let map = &self.map;
            self.ring.retain(|key| map.contains_key(key));
            self.heated.retain(|key| map.contains_key(key));
        }
        self.check_occupancy();
        removed
    }

    /// True while the capacity bound is exceeded.
    fn over_capacity(&self) -> bool {
        self.capacity_regions
            .is_some_and(|bound| self.stats.regions_live > bound as u64)
    }

    /// Clock (second-chance) sweep: evicts regions from the insertion-order
    /// ring until the cache is within its capacity bound.  A referenced
    /// region gets its bit cleared and one more trip around the ring; the
    /// region at `keep` (the one just inserted) is never evicted by this
    /// sweep.  Evictions bump the epoch so dispatcher-held chain links die.
    fn enforce_capacity(&mut self, keep: Option<RegionKey>) {
        let mut evicted = 0u64;
        let mut spared_keep = false;
        while self.over_capacity() {
            let Some(key) = self.ring.pop_front() else {
                break;
            };
            if Some(key) == keep {
                if spared_keep {
                    // Only the protected region is left to sweep: admit it
                    // even though it exceeds the bound on its own.
                    self.ring.push_front(key);
                    break;
                }
                spared_keep = true;
                self.ring.push_back(key);
                continue;
            }
            spared_keep = false;
            let Entry::Occupied(mut slot) = self.map.entry(key) else {
                unreachable!("ring keys are live");
            };
            if std::mem::take(&mut slot.get_mut().referenced) {
                // Bit cleared: the next lap can evict.
                self.ring.push_back(key);
                continue;
            }
            let slot = slot.remove();
            self.note_removed(&slot.region);
            self.heated.remove(&key);
            evicted += 1;
        }
        if evicted > 0 {
            self.stats.capacity_evictions += evicted;
            self.epoch += 1;
        }
    }

    /// The running occupancy counters must equal the sums they stand for.
    fn check_occupancy(&self) {
        debug_assert_eq!(self.stats.regions_live, self.map.len() as u64);
        debug_assert_eq!(self.ring.len(), self.map.len());
        debug_assert!(self.heated.iter().all(|key| self.map.contains_key(key)));
        debug_assert_eq!(
            self.stats.bytes_live,
            self.map
                .values()
                .map(|s| s.region.encoded_bytes as u64)
                .sum::<u64>()
        );
    }
}

/// The translation cache: one index over every region, owned by one engine
/// and touched only by its run thread (see the module docs).  Methods take
/// `&self` through a `RefCell`; the cache is `Send` but not `Sync`.
#[derive(Debug)]
pub struct CodeCache {
    state: RefCell<State>,
}

impl CodeCache {
    /// Creates an empty, unbounded cache for an engine keeping the given
    /// indexing policy.  The cache stores both alike: the policy is the
    /// owner's flush discipline (module docs).
    pub fn new(_index: CacheIndex) -> Self {
        CodeCache {
            state: RefCell::default(),
        }
    }

    /// Installs (or lifts, with `None`) the bound on resident regions,
    /// evicting immediately if the cache is already over the new bound.
    pub fn set_capacity(&self, regions: Option<usize>) {
        let mut state = self.state.borrow_mut();
        state.capacity_regions = regions;
        state.enforce_capacity(None);
    }

    /// Current invalidation epoch (stamped into chain links at patch time).
    pub fn epoch(&self) -> u64 {
        self.state.borrow().epoch
    }

    /// Looks up the region dispatchable at `key` under the current context
    /// generation.  A multi-constituent region whose formation generation
    /// does not match is *not* dispatchable and counts as a miss.  Every
    /// lookup, region-shaped or not, feeds the hit/miss accounting.
    pub fn get(&self, key: RegionKey, ctx_gen: u64) -> Option<Arc<Region>> {
        let state = &mut *self.state.borrow_mut();
        let found = state
            .map
            .get_mut(&key)
            .filter(|s| !s.region.gated() || s.region.ctx_gen == ctx_gen);
        match found {
            Some(slot) => {
                state.stats.hits += 1;
                slot.referenced = true;
                Some(Arc::clone(&slot.region))
            }
            None => {
                state.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a region without the generation gate or the hit/miss
    /// statistics (used by the region former to consult link heats and to
    /// avoid re-forming an existing multi-constituent region).
    pub fn peek(&self, key: RegionKey) -> Option<Arc<Region>> {
        self.peek_with(key, Arc::clone)
    }

    /// [`Self::peek`] without taking a reference: `f` looks at the region in
    /// place (and clones the `Arc` only if it needs one) — for a question
    /// asked on every chained transfer.
    pub fn peek_with<R>(&self, key: RegionKey, f: impl FnOnce(&Arc<Region>) -> R) -> Option<R> {
        self.state.borrow().map.get(&key).map(|s| f(&s.region))
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
        let mut state = self.state.borrow_mut();
        state.stats.bytes_live += arc.encoded_bytes as u64;
        state.stats.regions_live += 1;
        let slot = Slot {
            region: Arc::clone(&arc),
            referenced: false,
        };
        match state.map.insert(key, slot) {
            Some(replaced) => state.note_removed(&replaced.region),
            None => state.ring.push_back(key),
        }
        state.enforce_capacity(Some(key));
        arc
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.state.borrow().stats.regions_live as usize
    }

    /// True if no regions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached multi-constituent regions (stale-generation ones
    /// included until they are replaced, invalidated or swept).
    pub fn multi_region_count(&self) -> usize {
        let state = self.state.borrow();
        state.map.values().filter(|s| s.region.is_multi()).count()
    }

    /// Records that a link of the cached region at `key` has carried its
    /// first transfer.  [`Region::heat_up`]'s caller sees that 0 → 1 step
    /// and reports it here, which is what lets [`Self::branch_profiles`]
    /// visit the few regions that ever chained instead of the whole cache.
    pub fn note_heated(&self, key: RegionKey) {
        let mut state = self.state.borrow_mut();
        if state.map.contains_key(&key) {
            state.heated.insert(key);
        }
    }

    /// Snapshot of the branch-link profile: the (taken, fallthrough) link
    /// heats of every cached conditional block one of whose links ever left
    /// zero ([`Self::note_heated`]), sorted by region key (keys are unique,
    /// so a binary search by key finds a block's entry).  A block that never
    /// chained is absent; its heats would read (0, 0), a tie, and the
    /// tracer's leg selection treats a tied profile exactly like a missing
    /// one.  A tier-1 formation request freezes this at publish time so
    /// workers choose continuation legs without touching the live cache.
    pub fn branch_profiles(&self) -> Vec<(RegionKey, (u64, u64))> {
        let state = self.state.borrow();
        state
            .heated
            .iter()
            .filter_map(|key| {
                let region = &state.map[key].region;
                matches!(region.exit, BlockExit::Branch { .. })
                    .then(|| (*key, (region.link_heat(0), region.link_heat(1))))
            })
            .collect()
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
        let mut state = self.state.borrow_mut();
        let removed = state
            .remove_where(|r| r.gated() && r.ctx_gen != ctx_gen)
            .len();
        state.stats.evicted_stale_regions += removed as u64;
        removed
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.borrow();
        state.check_occupancy();
        state.stats
    }

    /// Discards every translation (the QEMU-style response to a guest
    /// page-table change when indexing by virtual address).
    pub fn invalidate_all(&self) {
        let mut state = self.state.borrow_mut();
        state.stats.invalidated_full += state.stats.regions_live;
        state.stats.bytes_live = 0;
        state.stats.regions_live = 0;
        state.map.clear();
        state.ring.clear();
        state.heated.clear();
        state.epoch += 1;
    }

    /// Discards regions any of whose constituent guest code pages is
    /// `page_base` (Captive's response to a detected self-modifying write).
    /// One rule covers every region shape: a plain block dies when its span
    /// touches the page, a stitched trace when *any* constituent page does.
    /// Dropping the cache's `Arc`s kills chain links into the page; the
    /// epoch bump additionally kills links *from* regions the dispatcher
    /// still holds.
    pub fn invalidate_phys_page(&self, page_base: u64) {
        self.discard_phys_page(page_base);
    }

    /// [`Self::invalidate_phys_page`], handing back the regions it
    /// discarded (for the engine to publish what is worth reviving).
    pub fn discard_phys_page(&self, page_base: u64) -> Vec<Arc<Region>> {
        let mut state = self.state.borrow_mut();
        let removed = state.remove_where(|r| r.pages.contains(&page_base));
        if !removed.is_empty() {
            state.stats.invalidated_page += removed.len() as u64;
            state.epoch += 1;
        }
        removed
    }

    /// Total bytes of encoded host code currently cached.
    pub fn total_encoded_bytes(&self) -> usize {
        self.state.borrow().stats.bytes_live as usize
    }
}

// Formed regions travel from tier-1 workers to the run thread and engines
// move between threads; keep the compiler holding those doors open.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Region>();
    assert_send::<CodeCache>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn key(phys: u64, virt: u64) -> RegionKey {
        RegionKey { phys, virt }
    }

    pub(crate) fn block(at: u64, insns: usize) -> Region {
        block_with_exit(at, insns, BlockExit::Indirect)
    }

    fn block_with_exit(at: u64, insns: usize, exit: BlockExit) -> Region {
        Region {
            guest_phys: at,
            guest_virt: at,
            guest_insns: insns,
            code: Arc::new([MachInsn::Ret]),
            encoded_bytes: insns * 40,
            exit,
            links: ChainLinks::default(),
            constituents: 1,
            pages: Region::span_pages(at, insns),
            ctx_gen: 0,
            unroll: 1,
            back_edges: 0,
            loop_guest_insns: 0,
            promoted: Vec::new(),
            made_from: None,
        }
    }

    pub(crate) fn multi(entry: u64, insns: usize, pages: Vec<u64>, ctx_gen: u64) -> Region {
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
        assert_eq!(
            ind.chain_slot(0x1004),
            Some(0),
            "any target: the link decides"
        );
        let opaque = block_with_exit(0x1000, 1, BlockExit::Opaque);
        assert_eq!(
            opaque.chain_slot(0x1004),
            None,
            "an opaque exit never links"
        );
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
        let follow = |gen, epoch| a.follow_link(0, 0x2000, gen, epoch);
        assert!(matches!(follow(7, c.epoch()), Link::Follow(_)));
        assert!(
            matches!(follow(8, c.epoch()), Link::Vacant),
            "stale generation"
        );
        assert!(
            matches!(follow(7, c.epoch() + 1), Link::Vacant),
            "stale epoch"
        );
    }

    #[test]
    fn a_link_is_followed_only_into_its_targets_virtual_entry() {
        // A predicted link is live under its stamps, but it carries only the
        // exit that went where its target is entered.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(0x1000, 1, BlockExit::Indirect));
        let b = c.insert(block(0x2000, 1));
        a.set_link(0, 0, c.epoch(), &b);
        assert!(matches!(
            a.follow_link(0, 0x2000, 0, c.epoch()),
            Link::Follow(to) if Arc::ptr_eq(&to, &b)
        ));
        assert!(matches!(
            a.follow_link(0, 0x3000, 0, c.epoch()),
            Link::Elsewhere
        ));
        assert!(
            matches!(a.follow_link(0, 0x3000, 1, c.epoch()), Link::Vacant),
            "a retired link is vacant wherever it points"
        );
    }

    #[test]
    fn a_poisoned_link_slot_still_links() {
        // A holder that panics with the slot locked poisons it; the
        // dispatcher keeps patching, following and heating through it.
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        let a = c.insert(block_with_exit(
            0x1000,
            1,
            BlockExit::Jump { target: 0x2000 },
        ));
        let b = c.insert(block(0x2000, 1));
        let holder = Arc::clone(&a);
        let died = std::thread::spawn(move || {
            let _slot = holder.links.slots[0].lock();
            panic!("the slot's holder dies");
        })
        .join();
        assert!(died.is_err() && a.links.slots[0].is_poisoned());
        assert!(matches!(
            a.follow_link(0, 0x2000, 0, c.epoch()),
            Link::Vacant
        ));
        a.set_link(0, 0, c.epoch(), &b);
        assert!(matches!(
            a.follow_link(0, 0x2000, 0, c.epoch()),
            Link::Follow(_)
        ));
        assert_eq!(a.heat_up(0), 1);
        assert_eq!(a.link_heat(0), 1);
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
        assert!(matches!(
            a.follow_link(0, 0x2000, 0, c.epoch()),
            Link::Vacant
        ));
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
            matches!(a.follow_link(0, 0x2000, 0, c.epoch()), Link::Vacant),
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
    fn capacity_bound_evicts_oldest_unreferenced_region() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(Some(2));
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
        c.set_capacity(Some(2));
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
    fn an_oversized_region_is_still_admitted() {
        let c = CodeCache::new(CacheIndex::GuestPhysical);
        c.set_capacity(Some(0));
        c.insert(block(0x1000, 4)); // alone over the bound
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
        c.set_capacity(Some(2));
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
        assert!(matches!(
            a.follow_link(0, 0x1000, 0, epoch_at_patch),
            Link::Follow(_)
        ));
        c.invalidate_phys_page(0x1000);
        assert!(
            matches!(a.follow_link(0, 0x1000, 0, c.epoch()), Link::Vacant),
            "self-link must die on invalidation even though the Arc lives"
        );
    }

    #[test]
    fn page_aligned_keys_spread_over_the_low_hash_bits() {
        // 4 096 identity-mapped entries, one per page, all at the same
        // in-page offset — the shape a jump table over handler pages has —
        // must occupy about as many of 4 096 low-bit buckets as random keys.
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let buckets = |keys: &mut dyn Iterator<Item = RegionKey>| {
            keys.map(|k| hasher.hash_one(k) & 0xFFF)
                .collect::<HashSet<_>>()
                .len()
        };
        let aligned = buckets(&mut (0..4096u64).map(|i| {
            let at = 0x10_0000 + i * 0x1000 + 0x1A4;
            key(at, at)
        }));
        let mut rng = proptest::TestRng::deterministic();
        let random = buckets(&mut (0..4096).map(|_| key(rng.next_u64(), rng.next_u64())));
        assert!(
            aligned * 10 >= random * 9,
            "{aligned} buckets for page-aligned keys against {random} for random ones"
        );
    }

    /// One region of the naive model: what the cache must remember about it.
    #[derive(Debug, Clone)]
    struct ModelRegion {
        key: RegionKey,
        /// Unique per insert (carried in the real region's `guest_insns`), so a
        /// replaced region is told from its replacement.
        id: usize,
        bytes: u64,
        pages: Vec<u64>,
        /// `Some(generation)` for a gated region.
        gated: Option<u64>,
        referenced: bool,
    }

    /// The cache as a flat list in ring (insertion) order: every operation
    /// is a linear scan, with nothing indexed and no running sums.
    #[derive(Debug, Default)]
    struct Model {
        regions: Vec<ModelRegion>,
        capacity_regions: Option<u64>,
        epoch: u64,
        stats: CacheStats,
    }

    impl Model {
        fn at(&self, key: RegionKey) -> Option<&ModelRegion> {
            self.regions.iter().find(|r| r.key == key)
        }

        fn over_capacity(&self) -> bool {
            self.capacity_regions
                .is_some_and(|b| self.regions.len() as u64 > b)
        }

        fn enforce_capacity(&mut self, keep: Option<RegionKey>) {
            let mut evicted = 0;
            let mut spared_keep = false;
            while self.over_capacity() {
                let mut head = self.regions.remove(0);
                if Some(head.key) == keep {
                    if spared_keep {
                        self.regions.insert(0, head);
                        break;
                    }
                    spared_keep = true;
                    self.regions.push(head);
                    continue;
                }
                spared_keep = false;
                if head.referenced {
                    head.referenced = false;
                    self.regions.push(head);
                } else {
                    evicted += 1;
                }
            }
            if evicted > 0 {
                self.stats.capacity_evictions += evicted;
                self.epoch += 1;
            }
        }

        fn insert(&mut self, region: ModelRegion) {
            let key = region.key;
            match self.regions.iter_mut().find(|r| r.key == key) {
                Some(slot) => *slot = region,
                None => self.regions.push(region),
            }
            self.enforce_capacity(Some(key));
        }

        fn get(&mut self, key: RegionKey, ctx_gen: u64) -> Option<usize> {
            let found = self
                .regions
                .iter_mut()
                .find(|r| r.key == key && r.gated.is_none_or(|g| g == ctx_gen));
            match found {
                Some(r) => {
                    self.stats.hits += 1;
                    r.referenced = true;
                    Some(r.id)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn remove_where(&mut self, doomed: impl Fn(&ModelRegion) -> bool) -> u64 {
            let before = self.regions.len();
            self.regions.retain(|r| !doomed(r));
            (before - self.regions.len()) as u64
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                bytes_live: self.regions.iter().map(|r| r.bytes).sum(),
                regions_live: self.regions.len() as u64,
                ..self.stats
            }
        }
    }

    /// The twelve keys the property test draws from: three entries on each
    /// of four pages, the last of each page close enough to its end that a
    /// long block straddles into the next.
    fn model_key(n: u64) -> RegionKey {
        let at = 0x1_0000 + (n % 4) * 0x1000 + [0x100, 0x800, 0xFF8][(n / 4 % 3) as usize];
        key(at, at)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        #[test]
        fn random_operation_sequences_match_the_naive_model(
            ops in proptest::collection::vec((0u8..14, 0u64..12, 0u64..3, 1usize..5), 1..80)
        ) {
            let cache = CodeCache::new(CacheIndex::GuestPhysical);
            let mut model = Model::default();
            // Chain links patched along the way: (holder, target id, epoch
            // at patch time).  Holders are dispatcher-held regions outside
            // the cache; everything is patched under generation 0.
            let mut links: Vec<(Arc<Region>, usize, u64, u64)> = Vec::new();
            for (id, (op, n, gen, insns)) in ops.into_iter().enumerate() {
                let k = model_key(n);
                match op {
                    // Insert (or replace at key) a plain block or a gated
                    // two-page region.
                    0..=4 => {
                        let gated = (op == 4).then_some(gen);
                        let real = match gated {
                            Some(gen) => multi(k.phys, insns, vec![k.phys & !0xFFF, 0x4000], gen),
                            None => block(k.phys, insns),
                        };
                        model.insert(ModelRegion {
                            key: k,
                            id,
                            bytes: real.encoded_bytes as u64,
                            pages: real.pages.clone(),
                            gated,
                            referenced: false,
                        });
                        cache.insert(Region { guest_insns: id, ..real });
                    }
                    5..=7 => {
                        let got = cache.get(k, gen).map(|r| r.guest_insns);
                        proptest::prop_assert_eq!(got, model.get(k, gen), "get {:?}", k);
                    }
                    8 => {
                        if let Some(target) = cache.peek(k) {
                            let holder = Arc::new(block(0x9000, 1));
                            holder.set_link(0, 0, cache.epoch(), &target);
                            links.push((holder, target.guest_insns, k.virt, cache.epoch()));
                        }
                    }
                    9 | 10 => {
                        let page = k.phys & !0xFFF;
                        cache.invalidate_phys_page(page);
                        let removed = model.remove_where(|r| r.pages.contains(&page));
                        if removed > 0 {
                            model.stats.invalidated_page += removed;
                            model.epoch += 1;
                        }
                    }
                    11 => {
                        cache.evict_stale_regions(gen);
                        model.stats.evicted_stale_regions +=
                            model.remove_where(|r| r.gated.is_some_and(|g| g != gen));
                    }
                    12 => {
                        // n < 12: small bounds that bite, or none at all.
                        let regions = (n % 4 != 0).then_some(n as usize / 2);
                        cache.set_capacity(regions);
                        model.capacity_regions = regions.map(|r| r as u64);
                        model.enforce_capacity(None);
                    }
                    _ => {
                        cache.invalidate_all();
                        model.stats.invalidated_full += model.remove_where(|_| true);
                        model.epoch += 1;
                    }
                }
                proptest::prop_assert_eq!(cache.stats(), model.stats(), "after op {}", op);
                proptest::prop_assert_eq!(cache.epoch(), model.epoch, "after op {}", op);
                proptest::prop_assert_eq!(cache.len(), model.regions.len());
                for n in 0..12 {
                    let k = model_key(n);
                    proptest::prop_assert_eq!(
                        cache.peek(k).map(|r| r.guest_insns),
                        model.at(k).map(|r| r.id),
                        "survivor at {:?} after op {}", k, op
                    );
                }
                for (holder, target, virt, patched_at) in &links {
                    let live = model.regions.iter().any(|r| r.id == *target);
                    proptest::prop_assert_eq!(
                        matches!(
                            holder.follow_link(0, *virt, 0, cache.epoch()),
                            Link::Follow(_)
                        ),
                        live && *patched_at == model.epoch,
                        "link to region {} after op {}", target, op
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_hash_is_content_sensitive() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
