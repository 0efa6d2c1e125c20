//! A PCID-tagged translation lookaside buffer.
//!
//! The paper exploits Process Context Identifiers to avoid full TLB flushes
//! when Captive switches between the lower-half (guest) and upper-half
//! (hypervisor / 64-bit overflow) address-space mappings (Section 2.7.5).
//! The model here is a direct-mapped TLB indexed by virtual page number,
//! with each entry tagged by the PCID it was filled under.

use crate::paging::{PageFlags, PAGE_SIZE};

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (vaddr >> 12).
    pub vpn: u64,
    /// Physical frame base address.
    pub frame: u64,
    /// Mapping permissions.
    pub flags: PageFlags,
    /// PCID the entry belongs to.
    pub pcid: u16,
}

/// Direct-mapped, PCID-tagged TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Direct-mapped slots; the length is a power of two.
    entries: Vec<Option<TlbEntry>>,
    /// Slots filled since the last [`Tlb::flush_all`] (repeats included),
    /// so a flush clears what a guest actually filled instead of every
    /// slot.  Every occupied slot is listed, unless the list has outgrown a
    /// quarter of the capacity — then it stops growing and the next flush
    /// sweeps the whole table, which is as cheap by that point.
    filled: Vec<u32>,
    /// Fills since creation (diagnostic).
    pub fills: u64,
    /// Evictions of a valid entry by a conflicting fill (diagnostic).
    pub evictions: u64,
}

impl Tlb {
    /// Creates a TLB with `size` entries (rounded up to a power of two).
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(1);
        Tlb {
            entries: vec![None; size],
            filled: Vec::with_capacity(size / 4 + 1),
            fills: 0,
            evictions: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn slot(&self, vpn: u64) -> usize {
        // Masking with the slice's own length lets the index's bounds check
        // fold away in the inlined memory path.
        (vpn as usize) & (self.entries.len() - 1)
    }

    /// Looks up a translation for `vaddr` under `pcid`.
    #[inline]
    pub fn lookup(&self, vaddr: u64, pcid: u16) -> Option<TlbEntry> {
        let vpn = vaddr / PAGE_SIZE;
        let e = self.entries[self.slot(vpn)]?;
        (e.vpn == vpn && e.pcid == pcid).then_some(e)
    }

    /// Inserts a translation, evicting whatever conflicts.
    pub fn insert(&mut self, entry: TlbEntry) {
        let slot = self.slot(entry.vpn);
        if self.entries[slot].is_some() {
            self.evictions += 1;
        }
        self.fills += 1;
        self.entries[slot] = Some(entry);
        if self.filled.len() <= self.entries.len() / 4 {
            self.filled.push(slot as u32);
        }
    }

    /// Drops every entry regardless of PCID.
    pub fn flush_all(&mut self) {
        if self.filled.len() > self.entries.len() / 4 {
            self.entries.iter_mut().for_each(|e| *e = None);
        } else {
            for &slot in &self.filled {
                self.entries[slot as usize] = None;
            }
        }
        self.filled.clear();
    }

    /// Drops any entry for the page containing `vaddr` (all PCIDs).
    pub fn flush_page(&mut self, vaddr: u64) {
        let vpn = vaddr / PAGE_SIZE;
        let slot = self.slot(vpn);
        if matches!(self.entries[slot], Some(e) if e.vpn == vpn) {
            self.entries[slot] = None;
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64, pcid: u16) -> TlbEntry {
        TlbEntry {
            vpn,
            frame: vpn * PAGE_SIZE + 0x1000_0000,
            flags: PageFlags::user_rw(),
            pcid,
        }
    }

    #[test]
    fn hit_requires_matching_vpn_and_pcid() {
        let mut tlb = Tlb::new(64);
        tlb.insert(entry(5, 1));
        assert!(tlb.lookup(5 * PAGE_SIZE + 123, 1).is_some());
        assert!(
            tlb.lookup(5 * PAGE_SIZE, 2).is_none(),
            "other PCID must miss"
        );
        assert!(tlb.lookup(6 * PAGE_SIZE, 1).is_none());
    }

    #[test]
    fn conflicting_fill_evicts() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 0));
        tlb.insert(entry(5, 0)); // same slot in a 4-entry TLB
        assert!(tlb.lookup(PAGE_SIZE, 0).is_none());
        assert!(tlb.lookup(5 * PAGE_SIZE, 0).is_some());
        assert_eq!(tlb.evictions, 1);
    }

    #[test]
    fn flush_all_empties_the_table_however_many_slots_were_filled() {
        // `flush_all` clears the slots filled since the last one; past a
        // quarter of the capacity it sweeps the table.  Either way nothing
        // survives, selective flushes in between cannot hide an entry, and
        // the bookkeeping starts over after each flush.
        let mut tlb = Tlb::new(64);
        for fills in [0u64, 1, 3, 16, 17, 40, 64, 200, 2] {
            for vpn in 0..fills {
                tlb.insert(entry(vpn * 7, (vpn % 3) as u16));
            }
            tlb.flush_page(7 * PAGE_SIZE);
            tlb.insert(entry(1000 + fills, 0));
            assert!(tlb.lookup((1000 + fills) * PAGE_SIZE, 0).is_some());
            tlb.flush_all();
            assert_eq!(tlb.occupancy(), 0, "after {fills} fills");
            assert!(tlb.lookup((1000 + fills) * PAGE_SIZE, 0).is_none());
        }
        assert_eq!(tlb.fills, 343 + 9, "flushing does not touch the counters");
    }

    #[test]
    fn page_flush_only_affects_that_page() {
        let mut tlb = Tlb::new(64);
        tlb.insert(entry(7, 0));
        tlb.insert(entry(8, 0));
        tlb.flush_page(7 * PAGE_SIZE + 42);
        assert!(tlb.lookup(7 * PAGE_SIZE, 0).is_none());
        assert!(tlb.lookup(8 * PAGE_SIZE, 0).is_some());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Tlb::new(100).capacity(), 128);
        assert_eq!(Tlb::new(1).capacity(), 1);
    }
}
