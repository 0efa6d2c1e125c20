//! Physical memory of the host virtual machine.
//!
//! Modelled as a single flat RAM region (as KVM presents to a guest that
//! requested one memory slot) with bounds-checked byte/word accessors.  Both
//! the page walker and the interpreter go through this type, and the
//! hypervisor layer uses it directly to load the unikernel image and the
//! emulated guest physical memory (Fig. 15 of the paper).

/// Flat physical memory for the host VM.
#[derive(Debug)]
pub struct PhysMem {
    bytes: Vec<u8>,
}

/// Error returned for physical accesses that are out of range or (for the
/// integer accessors) of a width other than 1, 2, 4 or 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysAccessError {
    /// The faulting physical address.
    pub addr: u64,
    /// The access size in bytes.
    pub size: u64,
}

impl std::fmt::Display for PhysAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "physical access out of range or of unsupported width: {:#x} (+{})",
            self.addr, self.size
        )
    }
}

impl std::error::Error for PhysAccessError {}

impl PhysMem {
    /// Allocates `size` bytes of zeroed physical memory.
    pub fn new(size: u64) -> Self {
        PhysMem {
            bytes: vec![0; size as usize],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    #[inline]
    fn check(&self, addr: u64, size: u64) -> Result<usize, PhysAccessError> {
        let end = addr
            .checked_add(size)
            .ok_or(PhysAccessError { addr, size })?;
        if end > self.bytes.len() as u64 {
            return Err(PhysAccessError { addr, size });
        }
        Ok(addr as usize)
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PhysAccessError> {
        let a = self.check(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.bytes[a..a + buf.len()]);
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), PhysAccessError> {
        let a = self.check(addr, buf.len() as u64)?;
        self.bytes[a..a + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// The `N` bytes at `addr`, bounds-checked once.
    #[inline]
    fn array<const N: usize>(&self, addr: u64) -> Result<[u8; N], PhysAccessError> {
        let a = self.check(addr, N as u64)?;
        let mut out = [0; N];
        out.copy_from_slice(&self.bytes[a..a + N]);
        Ok(out)
    }

    /// Reads an unsigned little-endian value of `size` bytes (1, 2, 4 or 8);
    /// any other width is refused with the typed error.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> Result<u64, PhysAccessError> {
        Ok(match size {
            1 => u8::from_le_bytes(self.array(addr)?) as u64,
            2 => u16::from_le_bytes(self.array(addr)?) as u64,
            4 => u32::from_le_bytes(self.array(addr)?) as u64,
            8 => u64::from_le_bytes(self.array(addr)?),
            _ => return Err(PhysAccessError { addr, size }),
        })
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value`, little-endian;
    /// any other width is refused with the typed error and writes nothing.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, value: u64, size: u64) -> Result<(), PhysAccessError> {
        match size {
            1 => self.write(addr, &(value as u8).to_le_bytes()),
            2 => self.write(addr, &(value as u16).to_le_bytes()),
            4 => self.write(addr, &(value as u32).to_le_bytes()),
            8 => self.write(addr, &value.to_le_bytes()),
            _ => Err(PhysAccessError { addr, size }),
        }
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> Result<u64, PhysAccessError> {
        self.read_uint(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), PhysAccessError> {
        self.write_uint(addr, value, 8)
    }

    /// Reads a 128-bit value as a `[u64; 2]` (low, high).
    #[inline]
    pub fn read_u128(&self, addr: u64) -> Result<[u64; 2], PhysAccessError> {
        let v = u128::from_le_bytes(self.array(addr)?);
        Ok([v as u64, (v >> 64) as u64])
    }

    /// Writes a 128-bit value from a `[u64; 2]` (low, high).
    #[inline]
    pub fn write_u128(&mut self, addr: u64, value: [u64; 2]) -> Result<(), PhysAccessError> {
        let v = (value[1] as u128) << 64 | value[0] as u128;
        self.write(addr, &v.to_le_bytes())
    }

    /// `[addr, addr+len)` as one mutable borrow, bounds-checked once — for
    /// scans that would otherwise pay the check on every word.
    pub fn slice_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], PhysAccessError> {
        let a = self.check(addr, len)?;
        Ok(&mut self.bytes[a..a + len as usize])
    }

    /// Fills `[addr, addr+len)` with a byte value.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) -> Result<(), PhysAccessError> {
        let a = self.check(addr, len)?;
        self.bytes[a..a + len as usize].fill(value);
        Ok(())
    }

    /// Device-originated ("external") store: writes `buf` at `addr` and
    /// records the 4 KiB page base of every page the write touched in
    /// `touched_pages` (deduplicated against its current tail).
    ///
    /// This is the DMA path: stores that land in memory from *outside* the
    /// vCPU, behind the translator's back.  The caller (the execution
    /// engine's runtime) intersects the touched pages with its set of
    /// translated-code pages to invalidate stale translations — the same
    /// self-modifying-code discipline guest stores get from write-protected
    /// host mappings, which external stores bypass.  A failed bounds check
    /// writes nothing and touches nothing.
    pub fn write_external(
        &mut self,
        addr: u64,
        buf: &[u8],
        touched_pages: &mut Vec<u64>,
    ) -> Result<(), PhysAccessError> {
        const PAGE: u64 = crate::paging::PAGE_SIZE;
        self.write(addr, buf)?;
        if buf.is_empty() {
            return Ok(());
        }
        let mut page = addr & !(PAGE - 1);
        let last = (addr + buf.len() as u64 - 1) & !(PAGE - 1);
        loop {
            if touched_pages.last() != Some(&page) {
                touched_pages.push(page);
            }
            if page == last {
                break;
            }
            page += PAGE;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMem::new(4096);
        m.write_u64(0x100, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(0x100).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x100, 1).unwrap(), 0x88);
        assert_eq!(m.read_uint(0x100, 2).unwrap(), 0x7788);
        assert_eq!(m.read_uint(0x104, 4).unwrap(), 0x1122_3344);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut m = PhysMem::new(64);
        assert!(m.read_u64(60).is_err());
        assert!(m.write_u64(u64::MAX - 3, 0).is_err());
        assert!(m.read_u64(56).is_ok());
    }

    #[test]
    fn u128_near_end_of_memory_is_an_error_not_a_wrap() {
        let mut m = PhysMem::new(64);
        assert!(m.read_u128(56).is_err());
        assert!(m.write_u128(u64::MAX - 7, [1, 2]).is_err());
        assert!(m.read_u128(48).is_ok());
    }

    #[test]
    fn external_store_reports_touched_pages() {
        let mut m = PhysMem::new(4 * 4096);
        let mut pages = Vec::new();
        // Spans the page boundary at 0x1000: both pages reported once.
        m.write_external(0xFF0, &[0xAA; 0x20], &mut pages).unwrap();
        assert_eq!(pages, vec![0x0000, 0x1000]);
        // Same-page follow-up write does not duplicate the tail entry.
        m.write_external(0x1800, &[1, 2, 3], &mut pages).unwrap();
        assert_eq!(pages, vec![0x0000, 0x1000]);
        assert_eq!(m.read_uint(0xFF0, 1).unwrap(), 0xAA);
        assert_eq!(m.read_uint(0x1800, 1).unwrap(), 1);
        // Out-of-range external store fails typed and touches nothing.
        let before = pages.clone();
        assert!(m.write_external(4 * 4096 - 2, &[0; 8], &mut pages).is_err());
        assert_eq!(pages, before);
        // Empty write is a no-op.
        m.write_external(0x2000, &[], &mut pages).unwrap();
        assert_eq!(pages, before);
    }

    #[test]
    fn u128_roundtrip_and_fill() {
        let mut m = PhysMem::new(256);
        m.write_u128(16, [1, 2]).unwrap();
        assert_eq!(m.read_u128(16).unwrap(), [1, 2]);
        m.fill(0, 16, 0xAB).unwrap();
        assert_eq!(m.read_uint(15, 1).unwrap(), 0xAB);
        assert_eq!(m.read_uint(16, 1).unwrap(), 1);
    }
}
