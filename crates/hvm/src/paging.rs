//! Four-level hierarchical page tables and the hardware page-walker model.
//!
//! The layout mirrors x86-64 long mode: CR3 holds the physical base of the
//! top-level table (PML4) plus a PCID in its low 12 bits; each level holds
//! 512 eight-byte entries; virtual addresses are 48 bits split 9/9/9/9/12.
//! Captive builds and mutates these tables directly (it owns the "bare
//! metal"), which is the mechanism behind the paper's accelerated virtual
//! memory system (Section 2.7).

use crate::mem::PhysMem;

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;
/// Number of entries per table level.
pub const ENTRIES_PER_TABLE: u64 = 512;
/// Number of levels walked (PML4, PDPT, PD, PT).
pub const LEVELS: u32 = 4;

/// Access permissions and attributes of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags {
    /// Mapping exists.
    pub present: bool,
    /// Writes allowed.
    pub writable: bool,
    /// Ring-3 access allowed.
    pub user: bool,
}

impl PageFlags {
    /// Read/write supervisor-only mapping.
    pub const fn kernel_rw() -> Self {
        PageFlags {
            present: true,
            writable: true,
            user: false,
        }
    }

    /// Read/write user-accessible mapping.
    pub const fn user_rw() -> Self {
        PageFlags {
            present: true,
            writable: true,
            user: true,
        }
    }

    /// Read-only user-accessible mapping.
    pub const fn user_ro() -> Self {
        PageFlags {
            present: true,
            writable: false,
            user: true,
        }
    }

    /// Encodes the flags into the low bits of a page-table entry.
    pub fn encode(self) -> u64 {
        (self.present as u64) | (self.writable as u64) << 1 | (self.user as u64) << 2
    }

    /// Decodes flags from a page-table entry.
    pub fn decode(pte: u64) -> Self {
        PageFlags {
            present: pte & 1 != 0,
            writable: pte & 2 != 0,
            user: pte & 4 != 0,
        }
    }
}

/// Successful translation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWalk {
    /// Physical address of the page frame (page-aligned).
    pub frame: u64,
    /// Effective flags of the final mapping (AND of intermediate user/write
    /// permissions, as on real hardware).
    pub flags: PageFlags,
    /// Number of levels the walker touched (for cost accounting).
    pub levels: u32,
}

/// Translation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// A table entry at the given level (4 = PML4 .. 1 = PT) was not present.
    NotPresent {
        /// Level at which the walk stopped.
        level: u32,
    },
    /// A table pointer referenced physical memory outside RAM.
    BadPhysAddr,
}

/// Extracts the table index for `level` (4 = PML4 .. 1 = PT).
pub fn table_index(vaddr: u64, level: u32) -> u64 {
    (vaddr >> (12 + 9 * (level - 1))) & 0x1FF
}

/// Physical frame number of a canonical page-table entry.
fn pte_frame(pte: u64) -> u64 {
    pte & 0x000F_FFFF_FFFF_F000
}

/// Walks the page tables rooted at `root` (a physical, page-aligned address)
/// translating `vaddr`.  Does not consult or fill any TLB; that is the
/// machine's job.
pub fn walk(mem: &PhysMem, root: u64, vaddr: u64) -> Result<PageWalk, WalkError> {
    let mut table = root & !0xFFF;
    let mut flags = PageFlags {
        present: true,
        writable: true,
        user: true,
    };
    // Descend through the pointer levels (4..2), then read the leaf entry
    // outside the loop so every path has an explicit result.
    for level in (2..=LEVELS).rev() {
        let idx = table_index(vaddr, level);
        let pte_addr = table + idx * 8;
        let pte = mem.read_u64(pte_addr).map_err(|_| WalkError::BadPhysAddr)?;
        let entry_flags = PageFlags::decode(pte);
        if !entry_flags.present {
            return Err(WalkError::NotPresent { level });
        }
        // Permissions accumulate restrictively down the hierarchy.
        flags.writable &= entry_flags.writable;
        flags.user &= entry_flags.user;
        table = pte_frame(pte);
    }
    let idx = table_index(vaddr, 1);
    let pte = mem
        .read_u64(table + idx * 8)
        .map_err(|_| WalkError::BadPhysAddr)?;
    let entry_flags = PageFlags::decode(pte);
    if !entry_flags.present {
        return Err(WalkError::NotPresent { level: 1 });
    }
    flags.writable &= entry_flags.writable;
    flags.user &= entry_flags.user;
    Ok(PageWalk {
        frame: pte_frame(pte),
        flags: PageFlags {
            present: true,
            ..flags
        },
        levels: LEVELS,
    })
}

/// A bump allocator handing out physical page frames for page tables.
///
/// The hypervisor carves a region of host physical memory out for page
/// tables; this mirrors Captive's unikernel-internal frame allocator.
///
/// [`FrameAlloc::reset_to`] reclaims every frame handed out since a
/// [`FrameAlloc::mark`] at once (Captive: on every guest TLB flush), and a
/// frame must be all zero when it is handed out again.  Re-zeroing 4 KiB
/// per frame for the handful of entries each held was about a quarter of the
/// wall clock of a guest that remaps and flushes every trip; so [`map_page`]
/// notes each entry it makes non-zero in a frame handed out after the mark,
/// `reset_to` clears exactly those, and `alloc` zeroes only frames never
/// handed out before (checking, under `debug_assertions`, that a recycled one
/// is zero).  The contract: after the mark, only [`map_page`] with this
/// allocator creates entries in its frames (write-protecting or unmapping an
/// entry it made is fine).
#[derive(Debug, Clone)]
pub struct FrameAlloc {
    next: u64,
    end: u64,
    /// End of the frames ever handed out (those below it are recycled).
    fresh: u64,
    /// The last mark: entries in frames at or above it are noted.
    watched: u64,
    /// Entries [`map_page`] made non-zero in watched frames, to clear.
    written: Vec<u64>,
}

impl FrameAlloc {
    /// Creates an allocator over `[start, end)`; both must be page-aligned.
    pub fn new(start: u64, end: u64) -> Self {
        assert_eq!(start % PAGE_SIZE, 0, "host bug: start must be page aligned");
        assert_eq!(end % PAGE_SIZE, 0, "host bug: end must be page aligned");
        FrameAlloc {
            next: start,
            end,
            fresh: start,
            watched: start,
            written: Vec::new(),
        }
    }

    /// Allocates one zeroed frame, returning its physical address.
    pub fn alloc(&mut self, mem: &mut PhysMem) -> Option<u64> {
        if self.next >= self.end {
            return None;
        }
        let frame = self.next;
        self.next += PAGE_SIZE;
        if frame < self.fresh {
            debug_assert!(
                mem.slice_mut(frame, PAGE_SIZE)
                    .is_ok_and(|f| f.iter().all(|&b| b == 0)),
                "host bug: recycled page-table frame {frame:#x} is not zero"
            );
        } else {
            mem.fill(frame, PAGE_SIZE, 0).ok()?;
            self.fresh = self.next;
        }
        Some(frame)
    }

    /// Number of frames still available.
    pub fn remaining(&self) -> u64 {
        (self.end - self.next) / PAGE_SIZE
    }

    /// Current allocation position, for later bulk reclamation with
    /// [`FrameAlloc::reset_to`]; entries written into frames handed out from
    /// here on are noted.
    pub fn mark(&mut self) -> u64 {
        self.watched = self.next;
        self.written.clear();
        self.next
    }

    /// Reclaims every frame allocated since the last [`FrameAlloc::mark`]
    /// (which returned `mark`), clearing the entries [`map_page`] wrote into
    /// them.  The caller must guarantee nothing reachable still references
    /// those frames.
    pub fn reset_to(&mut self, mem: &mut PhysMem, mark: u64) {
        assert_eq!(mark, self.watched, "host bug: not the last mark");
        for entry in self.written.drain(..) {
            let _ = mem.write_u64(entry, 0);
        }
        self.next = mark;
    }

    /// Notes the entry at `entry`, which held `old`, as about to be written.
    fn note(&mut self, entry: u64, old: u64) {
        if old == 0 && (self.watched..self.fresh).contains(&entry) {
            self.written.push(entry);
        }
    }
}

/// Installs a 4 KiB mapping `vaddr -> paddr` in the table rooted at `root`,
/// allocating intermediate tables from `alloc` as needed.
///
/// Returns `false` if the frame allocator is exhausted.
pub fn map_page(
    mem: &mut PhysMem,
    root: u64,
    vaddr: u64,
    paddr: u64,
    flags: PageFlags,
    alloc: &mut FrameAlloc,
) -> bool {
    let mut table = root & !0xFFF;
    for level in (2..=LEVELS).rev() {
        let idx = table_index(vaddr, level);
        let pte_addr = table + idx * 8;
        let pte = mem.read_u64(pte_addr).unwrap_or(0);
        if pte & 1 == 0 {
            let Some(new_table) = alloc.alloc(mem) else {
                return false;
            };
            // Intermediate entries grant full access; the leaf restricts.
            let entry = new_table | PageFlags::user_rw().encode();
            alloc.note(pte_addr, pte);
            if mem.write_u64(pte_addr, entry).is_err() {
                return false;
            }
            table = new_table;
        } else {
            table = pte_frame(pte);
        }
    }
    let idx = table_index(vaddr, 1);
    let pte_addr = table + idx * 8;
    alloc.note(pte_addr, mem.read_u64(pte_addr).unwrap_or(0));
    mem.write_u64(pte_addr, (paddr & !0xFFF) | flags.encode())
        .is_ok()
}

/// Removes the mapping for `vaddr` (clears the leaf entry's present bit).
/// Returns `true` if a present mapping existed.
pub fn unmap_page(mem: &mut PhysMem, root: u64, vaddr: u64) -> bool {
    let mut table = root & !0xFFF;
    for level in (2..=LEVELS).rev() {
        let idx = table_index(vaddr, level);
        let pte = match mem.read_u64(table + idx * 8) {
            Ok(v) => v,
            Err(_) => return false,
        };
        if pte & 1 == 0 {
            return false;
        }
        table = pte_frame(pte);
    }
    let pte_addr = table + table_index(vaddr, 1) * 8;
    match mem.read_u64(pte_addr) {
        Ok(pte) if pte & 1 != 0 => {
            let _ = mem.write_u64(pte_addr, pte & !1);
            true
        }
        _ => false,
    }
}

/// Clears the first `n` top-level (PML4) entries.
///
/// This is exactly the operation the paper describes for intercepted guest
/// TLB flushes: invalidating the 256 low-half PML4 entries tears down the
/// entire guest mapping without touching lower-level tables (Section 2.7.4).
/// The whole entry goes, not just its present bit: the subtrees are orphaned,
/// so the caller may hand their frames back to its allocator
/// ([`FrameAlloc::reset_to`]) — a stale frame number left behind would be
/// one table reachable from two places once the frame is allocated again.
pub fn clear_top_level_entries(mem: &mut PhysMem, root: u64, n: u64) {
    let root = root & !0xFFF;
    // Entries that lie inside physical memory (all of them, for any root a
    // walk could have used), through one borrow: this runs on every
    // intercepted guest TLB flush.
    let n = n
        .min(ENTRIES_PER_TABLE)
        .min(mem.size().saturating_sub(root) / 8);
    if let Ok(table) = mem.slice_mut(root, n * 8) {
        table.fill(0);
    }
}

/// Marks the leaf mapping of `vaddr` read-only (used for self-modifying-code
/// detection via write protection).  Returns true if a mapping was present.
pub fn write_protect_page(mem: &mut PhysMem, root: u64, vaddr: u64) -> bool {
    set_leaf_writable(mem, root, vaddr, false)
}

/// Restores write permission on the leaf mapping of `vaddr`.
pub fn write_unprotect_page(mem: &mut PhysMem, root: u64, vaddr: u64) -> bool {
    set_leaf_writable(mem, root, vaddr, true)
}

fn set_leaf_writable(mem: &mut PhysMem, root: u64, vaddr: u64, writable: bool) -> bool {
    let mut table = root & !0xFFF;
    for level in (2..=LEVELS).rev() {
        let idx = table_index(vaddr, level);
        let pte = match mem.read_u64(table + idx * 8) {
            Ok(v) => v,
            Err(_) => return false,
        };
        if pte & 1 == 0 {
            return false;
        }
        table = pte_frame(pte);
    }
    let pte_addr = table + table_index(vaddr, 1) * 8;
    match mem.read_u64(pte_addr) {
        Ok(pte) if pte & 1 != 0 => {
            let new = if writable { pte | 2 } else { pte & !2 };
            let _ = mem.write_u64(pte_addr, new);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAlloc, u64) {
        let mut mem = PhysMem::new(4 * 1024 * 1024);
        let mut alloc = FrameAlloc::new(0x10000, 0x200000);
        let root = alloc.alloc(&mut mem).unwrap();
        (mem, alloc, root)
    }

    #[test]
    fn map_then_walk_translates() {
        let (mut mem, mut alloc, root) = setup();
        assert!(map_page(
            &mut mem,
            root,
            0x7000_1000,
            0x42000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        let w = walk(&mem, root, 0x7000_1234).unwrap();
        assert_eq!(w.frame, 0x42000);
        assert!(w.flags.user && w.flags.writable);
        assert_eq!(w.levels, 4);
    }

    #[test]
    fn missing_mapping_reports_level() {
        let (mem, _alloc, root) = setup();
        match walk(&mem, root, 0x1234_5000) {
            Err(WalkError::NotPresent { level }) => assert_eq!(level, 4),
            other => panic!("expected NotPresent, got {other:?}"),
        }
    }

    #[test]
    fn leaf_permissions_are_restrictive() {
        let (mut mem, mut alloc, root) = setup();
        assert!(map_page(
            &mut mem,
            root,
            0x8000,
            0x9000,
            PageFlags::user_ro(),
            &mut alloc
        ));
        let w = walk(&mem, root, 0x8000).unwrap();
        assert!(!w.flags.writable && w.flags.user);

        assert!(map_page(
            &mut mem,
            root,
            0x9000,
            0xA000,
            PageFlags::kernel_rw(),
            &mut alloc
        ));
        let w = walk(&mem, root, 0x9000).unwrap();
        assert!(w.flags.writable && !w.flags.user);
    }

    #[test]
    fn unmap_and_clear_top_level() {
        let (mut mem, mut alloc, root) = setup();
        assert!(map_page(
            &mut mem,
            root,
            0x5000,
            0x6000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        assert!(unmap_page(&mut mem, root, 0x5000));
        assert!(walk(&mem, root, 0x5000).is_err());
        assert!(!unmap_page(&mut mem, root, 0x5000), "already unmapped");

        assert!(map_page(
            &mut mem,
            root,
            0x7000,
            0x8000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        clear_top_level_entries(&mut mem, root, 256);
        assert!(walk(&mem, root, 0x7000).is_err());

        // The whole entry goes, only in the first `n` entries, and a table
        // hanging off the end of memory is cleared as far as it exists
        // instead of faulting the host.
        let mut mem = PhysMem::new(2 * 4096 + 16);
        for i in 0..ENTRIES_PER_TABLE {
            mem.write_u64(4096 + i * 8, 0xABCD_E007).unwrap();
        }
        clear_top_level_entries(&mut mem, 4096, 256);
        assert_eq!(mem.read_u64(4096 + 255 * 8).unwrap(), 0);
        assert_eq!(mem.read_u64(4096 + 256 * 8).unwrap(), 0xABCD_E007);
        mem.write_u64(2 * 4096, 0x1007).unwrap();
        mem.write_u64(2 * 4096 + 8, 0x2007).unwrap();
        clear_top_level_entries(&mut mem, 2 * 4096, 256);
        assert_eq!(mem.read_u64(2 * 4096).unwrap(), 0);
        assert_eq!(mem.read_u64(2 * 4096 + 8).unwrap(), 0);
        clear_top_level_entries(&mut mem, 8 * 4096, 256);
    }

    #[test]
    fn write_protection_toggles() {
        let (mut mem, mut alloc, root) = setup();
        assert!(map_page(
            &mut mem,
            root,
            0xA000,
            0xB000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        assert!(write_protect_page(&mut mem, root, 0xA000));
        assert!(!walk(&mem, root, 0xA000).unwrap().flags.writable);
        assert!(write_unprotect_page(&mut mem, root, 0xA000));
        assert!(walk(&mem, root, 0xA000).unwrap().flags.writable);
    }

    #[test]
    fn different_vaddrs_same_top_entry_share_tables() {
        let (mut mem, mut alloc, root) = setup();
        let before = alloc.remaining();
        assert!(map_page(
            &mut mem,
            root,
            0x1000,
            0x2000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        let used_first = before - alloc.remaining();
        assert!(map_page(
            &mut mem,
            root,
            0x3000,
            0x4000,
            PageFlags::user_rw(),
            &mut alloc
        ));
        let used_second = before - used_first - alloc.remaining();
        assert_eq!(used_first, 3, "first mapping allocates PDPT+PD+PT");
        assert_eq!(used_second, 0, "second mapping in same region reuses them");
    }

    #[test]
    fn table_index_extracts_nine_bit_fields() {
        let v = 0x0000_7F3A_1B2C_3D4E;
        for level in 1..=4 {
            let idx = table_index(v, level);
            assert!(idx < 512);
        }
        assert_eq!(table_index(0x1000, 1), 1);
        assert_eq!(table_index(0x0020_0000, 2), 1);
        assert_eq!(table_index(0x4000_0000, 3), 1);
        assert_eq!(table_index(0x0080_0000_0000, 4), 1);
    }

    /// A lower-half virtual page for index `i`: four PML4 slots, four PDPT
    /// slots, two page directories, two pages each — so the sequences below
    /// build, share and tear down tables at every level.
    fn spread(i: u64) -> u64 {
        (i % 4) << 39 | (i / 4 % 4) << 30 | (i / 16 % 2) << 21 | (i / 32 % 2) << 12
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn resets_hand_back_zero_frames_and_forget_every_mapping_made_since_the_mark(
            ops in proptest::collection::vec((0u8..8, 0u64..64, 1u64..512), 1..160),
        ) {
            let mut mem = PhysMem::new(4 * 1024 * 1024);
            let mut alloc = FrameAlloc::new(0x10000, 0x100000);
            let root = alloc.alloc(&mut mem).unwrap();
            // Made before the mark, as Captive's own area is: every reset
            // keeps it.
            const KEPT: u64 = 0xFFFF_8000_0000_0000;
            assert!(map_page(&mut mem, root, KEPT, 0x7000, PageFlags::kernel_rw(), &mut alloc));
            let mark = alloc.mark();
            let mut live = std::collections::HashMap::new();
            for (op, page, frame) in ops {
                let va = spread(page);
                match op {
                    0..=3 => {
                        let flags = if op == 0 { PageFlags::user_ro() } else { PageFlags::user_rw() };
                        proptest::prop_assert!(map_page(&mut mem, root, va, frame << 12, flags, &mut alloc));
                        live.insert(va, frame << 12);
                    }
                    4 => {
                        write_protect_page(&mut mem, root, va);
                    }
                    5 => {
                        unmap_page(&mut mem, root, va);
                        live.remove(&va);
                    }
                    _ => {
                        // The teardown: drop the lower half, reclaim its frames.
                        clear_top_level_entries(&mut mem, root, 256);
                        alloc.reset_to(&mut mem, mark);
                        live.clear();
                        for frame in (mark..alloc.fresh).step_by(PAGE_SIZE as usize) {
                            let bytes = mem.slice_mut(frame, PAGE_SIZE).unwrap();
                            proptest::prop_assert!(
                                bytes.iter().all(|&b| b == 0),
                                "frame {frame:#x} is handed out again holding entries"
                            );
                        }
                    }
                }
            }
            for i in 0..64 {
                let va = spread(i);
                let walked = walk(&mem, root, va).ok().map(|w| w.frame);
                proptest::prop_assert_eq!(walked, live.get(&va).copied(), "va {:#x}", va);
            }
            proptest::prop_assert_eq!(walk(&mem, root, KEPT).map(|w| w.frame), Ok(0x7000));
        }
    }
}
