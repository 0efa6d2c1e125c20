//! The guest-walk caches: the fetch-side iTLB and the data-side gTLB.
//!
//! Both are a [`WalkTlb`] — a direct-mapped cache of guest page-table walk
//! results (VA page → guest physical frame and permissions).  The fetch side
//! ([`FetchTlb`], 64 entries) spares the dispatcher slow path a walk per
//! block entry; the data side ([`DataTlb`], 2 048 entries) spares the host
//! page-fault handler its software walk.  The data side sits *behind* the
//! 512-entry host TLB and the host page tables, so it is sized to out-reach
//! them: 8 MiB against 2 MiB.
//!
//! # The validity rule
//!
//! The obligation (stated the way Dahlin et al. state theirs, so it can be
//! tested directly): **no cached guest walk is served once any table entry
//! it read may differ from memory.**
//!
//! An entry is stamped with the *context generation* it was filled under and
//! records the (at most `GUEST_LEVELS`) guest-physical table pages its walk
//! read.  The generation counts every guest `TLBI`, `TTBR0` write and `SCTLR`
//! write — the only points at which the architecture lets a table edit take
//! effect.  A lookup is then decided in two steps:
//!
//! 1. *Stamp equals generation* — nothing has happened since the fill (or
//!    since the entry was last checked): hit.  This is the whole hot path,
//!    one compare, and all there is to [`WalkTlb::lookup`].
//! 2. *Stale stamp* (out of line; [`WalkTlb::lookup_or_revalidate`] is both
//!    steps) — the entry is still good if no event since its stamp could
//!    have changed what its walk read: no wholesale invalidation (`TTBR0`,
//!    `SCTLR`: a different root, or no walk at all), and none of its table
//!    pages marked dirty.  It is then re-stamped with the current generation
//!    and served as a hit; otherwise the lookup misses and the caller walks,
//!    as it always did.
//!
//! Which table pages are dirty is [`TableWatch`]'s business, and it needs
//! neither a reverse map nor write protection of table pages: the runtime
//! tears down *every* host mapping of guest memory at every generation bump,
//! so a guest store can only have reached a page the runtime has mapped
//! writable since — a list it appends to in the fault handler.  Device DMA
//! and host-side writes through the `Engine` façade join the same list.  A
//! `TLBI` marks dirty the listed pages that some cached walk has read as a
//! table, and forgets the list.  "Mapped writable this epoch" over-approximates
//! "written this epoch", which is the safe direction.
//!
//! Self-modifying code does *not* bump the generation — it changes what is
//! cached for a physical address, not how a virtual address maps to it.
//! Chain links and gated regions keep the plain generation compare: they are
//! re-made through the dispatcher, whose fetch lookup is what this rule
//! makes cheap.

use guest_aarch64::mmu::{GuestWalk, GUEST_LEVELS};

/// The table pages one walk read, as guest page numbers; [`NO_TABLE`] in the
/// slots of an identity entry, which read none.
type WalkDeps = [u32; GUEST_LEVELS as usize];

/// A dependency slot that names no page.
const NO_TABLE: u32 = u32::MAX;

/// What the guest-walk caches need to know about writes to guest memory.
/// The two per-page arrays are allocated when the first walk is cached: a
/// guest that never turns its MMU on never pays for them.
#[derive(Debug)]
pub struct TableWatch {
    /// Guest pages watched (pages past guest RAM never hold a table).
    pages: u64,
    /// One bit per guest page: a cached walk has read the page as a
    /// translation table since the last wholesale invalidation.  A bitmap,
    /// because it is written on every fill — the fetch-miss path of a
    /// dispatch-bound guest — where hashing was measured at 20 % of
    /// `indirect_dispatch`'s guest MIPS.
    is_table: Vec<u64>,
    /// Per guest page, the generation that began with the `TLBI` that found
    /// the page written while some cached walk depended on it (0: never).
    dirtied_at: Vec<u64>,
    /// Guest pages a store may have reached since the last generation bump.
    written: Vec<u32>,
    /// The generation that began with the last wholesale invalidation: no
    /// older stamp revalidates.
    wholesale_at: u64,
    /// Table pages marked dirty by a `TLBI`, over the run.
    pub table_pages_dirtied: u64,
}

impl TableWatch {
    /// A watch over `guest_ram` bytes of guest physical memory.
    pub fn new(guest_ram: u64) -> Self {
        TableWatch {
            pages: guest_ram.div_ceil(4096),
            is_table: Vec::new(),
            dirtied_at: Vec::new(),
            written: Vec::new(),
            wholesale_at: 0,
            table_pages_dirtied: 0,
        }
    }

    /// Records that a store may reach (or has reached) the guest physical
    /// page at `page_pa`.  Pages past guest RAM are ignored: a walk never
    /// reads one.
    #[inline]
    pub fn note_written(&mut self, page_pa: u64) {
        let page = page_pa >> 12;
        if page < self.pages && self.written.last() != Some(&(page as u32)) {
            self.written.push(page as u32);
        }
    }

    /// A bare `TLBI` began generation `new_gen`: every written page that a
    /// cached walk has read as a table is dirty from now on.  The runtime
    /// has just dropped every host mapping, so the written list starts over.
    pub fn tlbi(&mut self, new_gen: u64) {
        for page in self.written.drain(..) {
            let page = page as usize;
            let is_table = self.is_table.get(page / 64).copied().unwrap_or(0) >> (page % 64) & 1;
            if is_table != 0 && self.dirtied_at[page] != new_gen {
                self.dirtied_at[page] = new_gen;
                self.table_pages_dirtied += 1;
            }
        }
    }

    /// The translation regime itself changed (`TTBR0`, `SCTLR`) and began
    /// generation `new_gen`: nothing cached before survives, so nothing is a
    /// table page any more either.
    pub fn wholesale(&mut self, new_gen: u64) {
        self.wholesale_at = new_gen;
        self.is_table.fill(0);
        self.written.clear();
    }

    /// Whether a walk stamped `stamp` that read `deps` still describes
    /// memory.
    fn clean_since(&self, stamp: u64, deps: &WalkDeps) -> bool {
        stamp >= self.wholesale_at
            && deps
                .iter()
                .all(|&page| page == NO_TABLE || self.dirtied_at[page as usize] <= stamp)
    }

    /// Registers the table pages of a walk about to be cached.  The walker
    /// confines table reads to guest RAM, so the pages are in range.
    fn note_tables(&mut self, walk: &GuestWalk) -> WalkDeps {
        if self.dirtied_at.is_empty() {
            self.is_table = vec![0; self.pages.div_ceil(64) as usize];
            self.dirtied_at = vec![0; self.pages as usize];
        }
        walk.tables.map(|table| {
            let page = (table >> 12) as usize;
            self.is_table[page / 64] |= 1 << (page % 64);
            page as u32
        })
    }
}

/// One cached walk result, including the guest PTE permissions, so a
/// permission check on a hit reproduces the walk's decision exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkEntry {
    valid: bool,
    /// Guest-writable (restrictive AND across walk levels).
    pub writable: bool,
    /// EL0-accessible.
    pub user: bool,
    vpn: u64,
    /// Guest physical page frame.
    pub page_pa: u64,
    ctx_gen: u64,
}

/// A direct-mapped cache of `N` guest walks (module docs: the validity
/// rule).  The dependencies live in an array of their own so the hit path
/// touches one 32-byte entry and nothing else; both arrays (88 KiB on the
/// data side) are allocated by the first fill, so building an engine does
/// not pay for a cache its guest may never use.
#[derive(Debug)]
pub struct WalkTlb<const N: usize> {
    entries: Vec<WalkEntry>,
    deps: Vec<WalkDeps>,
    /// Lookups answered without a guest page-table walk.
    pub hits: u64,
    /// Lookups that fell through to the guest walker.
    pub misses: u64,
    /// Hits that kept a cached walk across a generation bump (subset of
    /// `hits`; each is one walk charge not paid).  Identity entries have no
    /// walk to keep and are not counted.
    pub revalidated: u64,
}

/// Fetch-side instruction TLB.
pub type FetchTlb = WalkTlb<64>;
/// Data-side guest TLB, consulted by the host page-fault handler.
pub type DataTlb = WalkTlb<2048>;

impl<const N: usize> Default for WalkTlb<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> WalkTlb<N> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        WalkTlb {
            entries: Vec::new(),
            deps: Vec::new(),
            hits: 0,
            misses: 0,
            revalidated: 0,
        }
    }

    /// Step 1 alone, counted as a hit or a miss — the rule this cache had
    /// before it learned step 2, kept public because the benchmark package
    /// times exactly this path (`itlb.lookup_hit_ns` / `lookup_miss_ns`).
    #[inline]
    pub fn lookup(&mut self, va: u64, ctx_gen: u64) -> Option<WalkEntry> {
        let vpn = va >> 12;
        match self.entries.get((vpn as usize) % N) {
            Some(e) if e.valid && e.vpn == vpn && e.ctx_gen == ctx_gen => {
                self.hits += 1;
                Some(*e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// The whole rule: the walk cached for `va`'s page if it is still good
    /// under `watch`.  Counts a hit or a miss.  Only an entry *for this page*
    /// with a stale stamp leaves the inline path.
    #[inline]
    pub fn lookup_or_revalidate(
        &mut self,
        va: u64,
        ctx_gen: u64,
        watch: &TableWatch,
    ) -> Option<WalkEntry> {
        let vpn = va >> 12;
        let slot = (vpn as usize) % N;
        match self.entries.get(slot).copied() {
            Some(e)
                if e.valid
                    && e.vpn == vpn
                    && (e.ctx_gen == ctx_gen || self.restamp(slot, ctx_gen, watch)) =>
            {
                self.hits += 1;
                Some(e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Step 2, out of line: the stale-stamped entry in `slot` is good again
    /// (and carries the current generation) if nothing it read has been
    /// marked since its stamp.
    #[inline(never)]
    fn restamp(&mut self, slot: usize, ctx_gen: u64, watch: &TableWatch) -> bool {
        let (e, deps) = (&mut self.entries[slot], &self.deps[slot]);
        let clean = watch.clean_since(e.ctx_gen, deps);
        if clean {
            e.ctx_gen = ctx_gen;
            self.revalidated += (deps[0] != NO_TABLE) as u64;
        }
        clean
    }

    /// Records an identity translation of `va`'s page (guest MMU off): no
    /// walk, so no dependencies and no permission bits to restrict.
    pub fn insert(&mut self, va: u64, pa: u64, ctx_gen: u64) {
        self.fill(
            va,
            pa,
            true,
            true,
            [NO_TABLE; GUEST_LEVELS as usize],
            ctx_gen,
        );
    }

    /// Records `walk`, the result of walking `va` under `ctx_gen`, and tells
    /// `watch` which pages it read.
    pub fn insert_walk(&mut self, va: u64, walk: &GuestWalk, ctx_gen: u64, watch: &mut TableWatch) {
        let deps = watch.note_tables(walk);
        let flags = walk.flags;
        self.fill(va, walk.frame, flags.writable, flags.user, deps, ctx_gen);
    }

    fn fill(&mut self, va: u64, pa: u64, writable: bool, user: bool, deps: WalkDeps, ctx_gen: u64) {
        if self.entries.is_empty() {
            self.entries = vec![WalkEntry::default(); N];
            self.deps = vec![[NO_TABLE; GUEST_LEVELS as usize]; N];
        }
        let vpn = va >> 12;
        let slot = (vpn as usize) % N;
        self.entries[slot] = WalkEntry {
            valid: true,
            writable,
            user,
            vpn,
            page_pa: pa & !0xFFF,
            ctx_gen,
        };
        self.deps[slot] = deps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::mmu::GuestPageFlags;
    use proptest::prelude::*;

    const RAM: u64 = 64 * 4096;

    fn walk(frame: u64, tables: [u64; 3]) -> GuestWalk {
        GuestWalk {
            frame,
            flags: GuestPageFlags::kernel_rw(),
            tables,
        }
    }

    #[test]
    fn data_tlb_caches_flags_and_respects_generation() {
        let mut watch = TableWatch::new(RAM);
        let mut t = DataTlb::new();
        assert!(t.lookup(0x5123, 0).is_none());
        t.insert_walk(
            0x5123,
            &walk(0x9000, [0x1000, 0x2000, 0x3000]),
            0,
            &mut watch,
        );
        let e = t.lookup(0x5FFF, 0).expect("same page hits");
        assert_eq!(e.page_pa, 0x9000);
        assert!(e.writable && !e.user);
        assert!(
            t.lookup(0x5000, 1).is_none(),
            "the fast path alone never crosses a generation"
        );
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn hits_only_within_the_stamped_generation() {
        let mut t = FetchTlb::new();
        assert!(t.lookup(0x1234, 0).is_none());
        t.insert(0x1234, 0x9000 | 0x234, 0);
        let e = t.lookup(0x1238, 0).expect("same page, new offset");
        assert_eq!(e.page_pa, 0x9000);
        assert!(t.lookup(0x1238, 1).is_none(), "stale stamp: not this half");
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn distinct_pages_conflict_only_on_matching_sets() {
        let mut t = FetchTlb::new();
        t.insert(0x1000, 0x9000, 0);
        // Same set (vpn differs by the entry count): evicts.
        t.insert(0x1000 + 64 * 4096, 0xA000, 0);
        assert!(t.lookup(0x1000, 0).is_none());
        let e = t.lookup(0x1000 + 64 * 4096, 0).expect("the evictor");
        assert_eq!(e.page_pa, 0xA000);
    }

    #[test]
    fn a_stale_entry_revalidates_until_one_of_its_tables_is_written() {
        let mut watch = TableWatch::new(RAM);
        let mut t = DataTlb::new();
        t.insert_walk(
            0x5000,
            &walk(0x9000, [0x1000, 0x2000, 0x3000]),
            0,
            &mut watch,
        );
        // A data page and a table page of some *other* walk are written.
        watch.note_written(0x9000);
        watch.note_written(0x4000);
        watch.tlbi(1);
        assert_eq!(watch.table_pages_dirtied, 0);
        let e = t
            .lookup_or_revalidate(0x5000, 1, &watch)
            .expect("nothing it read");
        assert_eq!(e.page_pa, 0x9000);
        assert_eq!((t.hits, t.misses, t.revalidated), (1, 0, 1));
        assert!(t.lookup(0x5000, 1).is_some(), "re-stamped: the fast path");
        assert_eq!((t.hits, t.revalidated), (2, 1));
        // Each level in turn is enough to refuse.
        for (i, table) in [0x1000u64, 0x2000, 0x3000].into_iter().enumerate() {
            let gen = 2 + 2 * i as u64;
            watch.note_written(table);
            watch.tlbi(gen);
            assert!(
                t.lookup_or_revalidate(0x5000, gen, &watch).is_none(),
                "level {i}"
            );
            t.insert_walk(
                0x5000,
                &walk(0x9000, [0x1000, 0x2000, 0x3000]),
                gen,
                &mut watch,
            );
            watch.tlbi(gen + 1);
            assert!(
                t.lookup_or_revalidate(0x5000, gen + 1, &watch).is_some(),
                "level {i}"
            );
        }
        assert_eq!(watch.table_pages_dirtied, 3);
    }

    #[test]
    fn a_page_written_before_it_is_first_used_as_a_table_is_still_caught() {
        let mut watch = TableWatch::new(RAM);
        let mut t = DataTlb::new();
        // Written (so mapped writable for the rest of the epoch), then walked
        // through, then — with no further fault to announce it — written
        // again: the mark is decided at the `TLBI`, not at the write.
        watch.note_written(0x3000);
        t.insert_walk(
            0x5000,
            &walk(0x9000, [0x1000, 0x2000, 0x3000]),
            0,
            &mut watch,
        );
        watch.tlbi(1);
        assert!(t.lookup_or_revalidate(0x5000, 1, &watch).is_none());
    }

    #[test]
    fn wholesale_invalidation_spares_nothing_older() {
        let mut watch = TableWatch::new(RAM);
        let mut t = FetchTlb::new();
        t.insert_walk(
            0x5000,
            &walk(0x9000, [0x1000, 0x2000, 0x3000]),
            0,
            &mut watch,
        );
        t.insert(0x6000, 0x6000, 0);
        watch.tlbi(1);
        assert!(t.lookup_or_revalidate(0x6000, 1, &watch).is_some());
        assert_eq!(t.revalidated, 0, "an identity entry has no walk to keep");
        watch.wholesale(2);
        assert!(t.lookup_or_revalidate(0x5000, 2, &watch).is_none());
        assert!(t.lookup_or_revalidate(0x6000, 2, &watch).is_none());
        t.insert(0x6000, 0x6000, 2);
        watch.tlbi(3);
        assert!(
            t.lookup_or_revalidate(0x6000, 3, &watch).is_some(),
            "filled after it"
        );
    }

    #[test]
    fn pages_past_guest_ram_are_never_watched() {
        let mut watch = TableWatch::new(RAM - 1);
        watch.note_written(RAM - 4096);
        watch.note_written(RAM);
        watch.note_written(!0xFFF);
        assert_eq!(watch.written, vec![63], "the last, partial page only");
        let mut t = FetchTlb::new();
        let last = RAM - 4096;
        t.insert_walk(0x5000, &walk(0x9000, [last, last, last]), 0, &mut watch);
        watch.tlbi(1);
        assert_eq!(watch.table_pages_dirtied, 1);
    }

    /// One step of the model test.
    #[derive(Debug)]
    enum Op {
        Fill { vpn: u64, tables: [u64; 3] },
        Write { page: u64 },
        Tlbi,
        Wholesale,
        Lookup { vpn: u64 },
    }

    /// Decodes one drawn tuple.  The three levels draw from ranges of two,
    /// two and four pages, so walks share upper tables and differ in leaves;
    /// writes land on those eight pages.
    fn op((kind, vpn, tables, page): (u8, u64, u64, u64)) -> Op {
        match kind {
            0..=2 => Op::Fill {
                vpn,
                tables: [tables & 1, 2 + (tables >> 1 & 1), 4 + (tables >> 2)].map(|t| t << 12),
            },
            3 | 4 => Op::Write { page: page << 12 },
            5 | 6 => Op::Tlbi,
            7 => Op::Wholesale,
            _ => Op::Lookup { vpn },
        }
    }

    /// What the model remembers of the walk cached for one slot.
    #[derive(Clone, Copy)]
    struct Cached {
        vpn: u64,
        frame: u64,
        tables: [u64; 3],
        /// No generation bump since the fill: the replaced rule would hit.
        fresh: bool,
        /// A table it read was written since the fill or the last `TLBI`.
        written: bool,
        /// A `TLBI` followed such a write, or the regime changed: serving it
        /// now would break the obligation.
        stale: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Against the rule this one replaced — forget everything at every
        /// generation bump: the new rule answers whenever the old one did,
        /// always with the walk that was filled, and answers *more* only
        /// while no table page that walk read has been written and then
        /// `TLBI`ed (tracked here by brute force, not by generation stamps).
        #[test]
        fn revalidation_hits_only_where_no_dependency_was_written(
            raw in collection::vec((0u8..10, 0u64..6, 0u64..16, 0u64..8), 1..80)
        ) {
            let mut watch = TableWatch::new(RAM);
            let mut t = WalkTlb::<4>::new();
            let mut gen = 0u64;
            let mut model: [Option<Cached>; 4] = [None; 4];
            let mut frame = 0x10_0000u64;
            let mut lookups = 0;
            for op in raw.into_iter().map(op) {
                match op {
                    Op::Fill { vpn, tables } => {
                        frame += 0x1000;
                        t.insert_walk(vpn << 12, &walk(frame, tables), gen, &mut watch);
                        model[(vpn % 4) as usize] = Some(Cached {
                            vpn,
                            frame,
                            tables,
                            fresh: true,
                            written: false,
                            stale: false,
                        });
                    }
                    Op::Write { page } => {
                        watch.note_written(page);
                        for m in model.iter_mut().flatten() {
                            m.written |= m.tables.contains(&page);
                        }
                    }
                    Op::Tlbi | Op::Wholesale => {
                        gen += 1;
                        let wholesale = matches!(op, Op::Wholesale);
                        if wholesale {
                            watch.wholesale(gen);
                        } else {
                            watch.tlbi(gen);
                        }
                        for m in model.iter_mut().flatten() {
                            m.fresh = false;
                            m.stale |= m.written || wholesale;
                            m.written = false;
                        }
                    }
                    Op::Lookup { vpn } => {
                        lookups += 1;
                        let va = vpn << 12 | 0x10;
                        let got = t.lookup_or_revalidate(va, gen, &watch);
                        let m = model[(vpn % 4) as usize].filter(|m| m.vpn == vpn);
                        match (got, m) {
                            (Some(_), None) => prop_assert!(false, "hit on a page never filled"),
                            (Some(e), Some(m)) => {
                                prop_assert_eq!(e.page_pa, m.frame);
                                prop_assert!(!m.stale, "served after a table it read changed");
                            }
                            (None, Some(m)) => {
                                prop_assert!(!m.fresh, "missed where the old rule hit")
                            }
                            (None, None) => {}
                        }
                    }
                }
            }
            prop_assert_eq!(t.hits + t.misses, lookups);
        }
    }
}
