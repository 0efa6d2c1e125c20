//! Guest MMU model: a 3-level, 4 KiB-page translation table walker.
//!
//! The walker is generic over a guest-physical-memory reader so both Captive
//! (walking on a host page fault to populate host page tables) and the
//! QEMU-style baseline (walking in its softmmu slow path) use exactly the
//! same guest architecture behaviour.
//!
//! Guest page-table entry format (one u64 per entry):
//!   bit 0: valid, bit 1: writable, bit 2: user-accessible (EL0),
//!   bits 12..48: next-level table or final page frame address.

/// Guest page size in bytes.
pub const GUEST_PAGE_SIZE: u64 = 4096;
/// Levels in the guest translation table (L3 → L1).
pub const GUEST_LEVELS: u32 = 3;

/// Permissions attached to a guest mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestPageFlags {
    /// Entry is valid.
    pub valid: bool,
    /// Writable.
    pub writable: bool,
    /// Accessible from EL0 (user mode).
    pub user: bool,
}

impl GuestPageFlags {
    /// Encodes into the low bits of a PTE.
    pub fn encode(self) -> u64 {
        (self.valid as u64) | (self.writable as u64) << 1 | (self.user as u64) << 2
    }

    /// Decodes from a PTE.
    pub fn decode(pte: u64) -> Self {
        GuestPageFlags {
            valid: pte & 1 != 0,
            writable: pte & 2 != 0,
            user: pte & 4 != 0,
        }
    }

    /// Kernel read/write mapping.
    pub const fn kernel_rw() -> Self {
        GuestPageFlags {
            valid: true,
            writable: true,
            user: false,
        }
    }

    /// User read/write mapping.
    pub const fn user_rw() -> Self {
        GuestPageFlags {
            valid: true,
            writable: true,
            user: true,
        }
    }

    /// User read-only mapping.
    pub const fn user_ro() -> Self {
        GuestPageFlags {
            valid: true,
            writable: false,
            user: true,
        }
    }
}

/// Guest translation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestWalkError {
    /// No valid entry at the given level (3 = top).
    NotMapped {
        /// Level at which the walk stopped.
        level: u32,
    },
    /// A table pointer referenced guest physical memory that could not be read.
    BadAddress,
}

/// Result of a successful guest walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestWalk {
    /// Guest physical page frame.
    pub frame: u64,
    /// Effective permissions (restrictive AND across levels).
    pub flags: GuestPageFlags,
    /// Guest physical address of the table read at each level, top first:
    /// everything the result depends on besides `TTBR0` itself, for a cache
    /// of walks that wants to know when one may have gone stale.
    pub tables: [u64; GUEST_LEVELS as usize],
}

/// Index into the table at `level` (3 = top) for a virtual address.
pub fn guest_table_index(vaddr: u64, level: u32) -> u64 {
    (vaddr >> (12 + 9 * (level - 1))) & 0x1FF
}

/// Walks the guest translation tables rooted at `ttbr0`, reading guest
/// physical memory through `read_phys`.
pub fn walk_guest(
    mut read_phys: impl FnMut(u64) -> Option<u64>,
    ttbr0: u64,
    vaddr: u64,
) -> Result<GuestWalk, GuestWalkError> {
    let mut table = ttbr0 & !0xFFF;
    let mut flags = GuestPageFlags {
        valid: true,
        writable: true,
        user: true,
    };
    let mut tables = [0; GUEST_LEVELS as usize];
    for level in (1..=GUEST_LEVELS).rev() {
        tables[(GUEST_LEVELS - level) as usize] = table;
        let idx = guest_table_index(vaddr, level);
        let pte = read_phys(table + idx * 8).ok_or(GuestWalkError::BadAddress)?;
        let f = GuestPageFlags::decode(pte);
        if !f.valid {
            return Err(GuestWalkError::NotMapped { level });
        }
        flags.writable &= f.writable;
        flags.user &= f.user;
        if level == 1 {
            return Ok(GuestWalk {
                frame: pte & 0x0000_FFFF_FFFF_F000,
                flags: GuestPageFlags {
                    valid: true,
                    ..flags
                },
                tables,
            });
        }
        table = pte & 0x0000_FFFF_FFFF_F000;
    }
    unreachable!()
}

/// A helper for building guest page tables directly in guest physical memory
/// (the job a guest OS's early boot code would do).
#[derive(Debug)]
pub struct GuestPageTableBuilder {
    /// Physical address of the root (L3) table.
    pub root: u64,
    next_table: u64,
    end: u64,
}

impl GuestPageTableBuilder {
    /// Creates a builder that allocates tables from `[pool_start, pool_end)`
    /// in guest physical memory; the first frame becomes the root table.
    pub fn new(pool_start: u64, pool_end: u64) -> Self {
        assert!(pool_end >= pool_start + GUEST_PAGE_SIZE);
        GuestPageTableBuilder {
            root: pool_start,
            next_table: pool_start + GUEST_PAGE_SIZE,
            end: pool_end,
        }
    }

    /// Maps `vaddr -> paddr` with `flags`, writing PTEs through `write_phys`
    /// and reading existing entries through `read_phys`.  Returns false if
    /// the table pool is exhausted.
    pub fn map(
        &mut self,
        mut read_phys: impl FnMut(u64) -> Option<u64>,
        mut write_phys: impl FnMut(u64, u64),
        vaddr: u64,
        paddr: u64,
        flags: GuestPageFlags,
    ) -> bool {
        let mut table = self.root;
        for level in (2..=GUEST_LEVELS).rev() {
            let idx = guest_table_index(vaddr, level);
            let pte_addr = table + idx * 8;
            let pte = read_phys(pte_addr).unwrap_or(0);
            if pte & 1 == 0 {
                if self.next_table >= self.end {
                    return false;
                }
                let new_table = self.next_table;
                self.next_table += GUEST_PAGE_SIZE;
                // Zero the new table.
                for i in 0..512 {
                    write_phys(new_table + i * 8, 0);
                }
                write_phys(pte_addr, new_table | GuestPageFlags::user_rw().encode());
                table = new_table;
            } else {
                table = pte & 0x0000_FFFF_FFFF_F000;
            }
        }
        let idx = guest_table_index(vaddr, 1);
        write_phys(table + idx * 8, (paddr & !0xFFF) | flags.encode());
        true
    }
}

/// Guest page tables built on the host side, as the guest-physical words
/// they occupy: what a test or a generated program loads as data where a
/// guest OS would have run boot code.  Knows where each entry lives, so a
/// program that edits its own tables can be told the address to store to.
#[derive(Debug)]
pub struct GuestTableImage {
    builder: GuestPageTableBuilder,
    words: std::collections::BTreeMap<u64, u64>,
}

impl GuestTableImage {
    /// An empty root table at `pool_start`; further tables are taken from
    /// the pool in the order mappings need them.
    pub fn new(pool_start: u64, pool_end: u64) -> Self {
        GuestTableImage {
            builder: GuestPageTableBuilder::new(pool_start, pool_end),
            words: Default::default(),
        }
    }

    /// Physical address of the root table (the `TTBR0` value).
    pub fn root(&self) -> u64 {
        self.builder.root
    }

    /// Maps `vaddr -> paddr`; panics when the pool is exhausted.
    pub fn map(&mut self, vaddr: u64, paddr: u64, flags: GuestPageFlags) {
        let words = std::cell::RefCell::new(&mut self.words);
        let mapped = self.builder.map(
            |a| Some(words.borrow().get(&a).copied().unwrap_or(0)),
            |a, v| {
                words.borrow_mut().insert(a, v);
            },
            vaddr,
            paddr,
            flags,
        );
        assert!(mapped, "guest page-table pool exhausted");
    }

    /// Identity-maps every page overlapping `[start, start + len)`.
    pub fn identity(&mut self, start: u64, len: u64, flags: GuestPageFlags) {
        for page in (start & !0xFFF..start + len).step_by(GUEST_PAGE_SIZE as usize) {
            self.map(page, page, flags);
        }
    }

    /// Guest-physical address of the entry that translates `vaddr` at
    /// `level` (3 = the root table's entry, 1 = the leaf PTE); panics if the
    /// tables above it are not there.
    pub fn entry_addr(&self, vaddr: u64, level: u32) -> u64 {
        let mut table = self.builder.root;
        for above in (level + 1..=GUEST_LEVELS).rev() {
            let pte = self.words[&(table + guest_table_index(vaddr, above) * 8)];
            assert!(pte & 1 != 0, "no level-{above} entry for {vaddr:#x}");
            table = pte & 0x0000_FFFF_FFFF_F000;
        }
        table + guest_table_index(vaddr, level) * 8
    }

    /// Every (guest-physical address, 64-bit word) of the tables.
    pub fn words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct FakeMem(std::cell::RefCell<HashMap<u64, u64>>);

    impl FakeMem {
        fn new() -> Self {
            FakeMem(std::cell::RefCell::new(HashMap::new()))
        }
        fn read(&self, addr: u64) -> Option<u64> {
            Some(*self.0.borrow().get(&addr).unwrap_or(&0))
        }
        fn write(&self, addr: u64, v: u64) {
            self.0.borrow_mut().insert(addr, v);
        }
    }

    #[test]
    fn map_then_walk() {
        let mem = FakeMem::new();
        let mut b = GuestPageTableBuilder::new(0x8000, 0x20000);
        assert!(b.map(
            |a| mem.read(a),
            |a, v| mem.write(a, v),
            0x40_0000,
            0x9_C000,
            GuestPageFlags::user_rw()
        ));
        let w = walk_guest(|a| mem.read(a), b.root, 0x40_0123).unwrap();
        assert_eq!(w.frame, 0x9_C000);
        assert!(w.flags.user && w.flags.writable);
        assert_eq!(
            w.tables,
            [0x8000, 0x9000, 0xA000],
            "root, then in pool order"
        );
    }

    #[test]
    fn unmapped_reports_level() {
        let mem = FakeMem::new();
        match walk_guest(|a| mem.read(a), 0x8000, 0x1234_5000) {
            Err(GuestWalkError::NotMapped { level: 3 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn permissions_intersect_across_levels() {
        let mem = FakeMem::new();
        let mut b = GuestPageTableBuilder::new(0x8000, 0x20000);
        assert!(b.map(
            |a| mem.read(a),
            |a, v| mem.write(a, v),
            0x9000,
            0xA000,
            GuestPageFlags::user_ro()
        ));
        let w = walk_guest(|a| mem.read(a), b.root, 0x9000).unwrap();
        assert!(!w.flags.writable);

        assert!(b.map(
            |a| mem.read(a),
            |a, v| mem.write(a, v),
            0xB000,
            0xC000,
            GuestPageFlags::kernel_rw()
        ));
        let w = walk_guest(|a| mem.read(a), b.root, 0xB000).unwrap();
        assert!(!w.flags.user && w.flags.writable);
    }

    #[test]
    fn a_table_image_walks_like_the_tables_it_holds() {
        let mut t = GuestTableImage::new(0x8000, 0x20000);
        t.identity(0x1800, 0x1000, GuestPageFlags::kernel_rw());
        t.map(0x4000_0000, 0x5000, GuestPageFlags::user_ro());
        let words: HashMap<u64, u64> = t.words().collect();
        let read = |a: u64| Some(*words.get(&a).unwrap_or(&0));
        for va in [0x1000, 0x2FFF] {
            assert_eq!(walk_guest(read, t.root(), va).unwrap().frame, va & !0xFFF);
        }
        let w = walk_guest(read, t.root(), 0x4000_0008).unwrap();
        assert_eq!(w.frame, 0x5000);
        assert_eq!(t.entry_addr(0x4000_0000, 3), w.tables[0] + 8);
        assert_eq!(t.entry_addr(0x4000_0000, 2), w.tables[1]);
        assert_eq!(t.entry_addr(0x4000_0000, 1), w.tables[2]);
        assert_eq!(
            words[&w.tables[2]],
            0x5000 | GuestPageFlags::user_ro().encode()
        );
    }

    #[test]
    fn table_indices_are_nine_bits() {
        assert_eq!(guest_table_index(0x1000, 1), 1);
        assert_eq!(guest_table_index(0x20_0000, 2), 1);
        assert_eq!(guest_table_index(0x4000_0000, 3), 1);
        assert!(guest_table_index(u64::MAX, 3) < 512);
    }
}
