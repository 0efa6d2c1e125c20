//! What a workload generator hands the harness: guest images plus
//! everything the harness needs to check a run *without asking an engine*.
//!
//! An engine receives only [`Segment`] words, an entry point and (for the
//! block-device program) a device configuration.  The expected results, the
//! retired-instruction count and the by-construction event counts all come
//! from the generator.

use guest_aarch64::isa::{decode, Insn};
use guest_aarch64::mmu::{GuestPageFlags, GuestPageTableBuilder};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Guest-physical address every program's entry code is loaded at.
pub const CODE_BASE: u64 = 0x1000;
/// Guest-physical address of the exception vector page.
pub const VECTOR_BASE: u64 = 0x0060_0000;
/// Guest-physical base of the page-table pool of MMU-on programs.
pub const PT_POOL: u64 = 0x0070_0000;
/// End of the page-table pool.
pub const PT_POOL_END: u64 = 0x0080_0000;
/// Guest-physical base of program data (16 MiB; RAM is 32 MiB).
pub const DATA_BASE: u64 = 0x0100_0000;

/// What a segment holds; only code segments are scanned for blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    Code,
    Data,
}

/// A run of 32-bit words loaded at a guest-physical address.
#[derive(Debug, Clone)]
pub struct Segment {
    pub gpa: u64,
    pub kind: SegKind,
    pub words: Vec<u32>,
}

impl Segment {
    pub fn code(gpa: u64, words: Vec<u32>) -> Self {
        Segment {
            gpa,
            kind: SegKind::Code,
            words,
        }
    }

    /// A data segment of 64-bit little-endian values.
    pub fn data_u64(gpa: u64, values: &[u64]) -> Self {
        Segment {
            gpa,
            kind: SegKind::Data,
            words: values
                .iter()
                .flat_map(|v| [*v as u32, (*v >> 32) as u32])
                .collect(),
        }
    }

    /// A data segment of raw bytes (length must be a multiple of 4).
    pub fn data_bytes(gpa: u64, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len() % 4, 0);
        Segment {
            gpa,
            kind: SegKind::Data,
            words: bytes
                .chunks(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        }
    }
}

/// One post-run check against a generator-computed value.
#[derive(Debug, Clone)]
pub enum Check {
    /// Guest register `index` must hold `expect`.
    Reg { index: u32, expect: u64 },
    /// FNV-1a of guest memory `[start, start+len)` must equal `expect`.
    Mem { start: u64, len: u64, expect: u64 },
    /// FNV-1a of the block device's disk image must equal `expect`.
    Disk { expect: u64 },
}

/// Event counts a program produces *by construction* (0 = the program does
/// not produce that event).  The traced run compares them with what the
/// engine counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Events {
    /// Synchronous exceptions the guest takes itself (SVC, UNDEF).  The
    /// engines keep no public count of these; the guest's own handler
    /// counts them in x20, and that register is the engine-side value.
    pub sync_exceptions: u64,
    /// Exceptions the dispatcher delivers (IRQs and aborts).
    pub exceptions: u64,
    /// Asynchronous IRQs delivered (subset of `exceptions`).
    pub irqs: u64,
    /// Translation-context generation bumps (TLBI, TTBR0/SCTLR writes).
    pub ctx_gen_bumps: u64,
    /// Translations discarded because the guest wrote their code page.
    pub smc_invalidations: u64,
    /// Host page faults taken for guest data accesses.
    pub page_faults: u64,
    /// Block-device completions retired.
    pub virtio_completions: u64,
    /// Bytes the block device stored into guest memory.
    pub virtio_dma_bytes: u64,
    /// Block-device requests the seeded fault plan hit.
    pub virtio_fault_injections: u64,
}

impl Events {
    pub fn add(&mut self, o: &Events) {
        self.sync_exceptions += o.sync_exceptions;
        self.exceptions += o.exceptions;
        self.irqs += o.irqs;
        self.ctx_gen_bumps += o.ctx_gen_bumps;
        self.smc_invalidations += o.smc_invalidations;
        self.page_faults += o.page_faults;
        self.virtio_completions += o.virtio_completions;
        self.virtio_dma_bytes += o.virtio_dma_bytes;
        self.virtio_fault_injections += o.virtio_fault_injections;
    }
}

/// A static guest basic block as the translator would cut it when entered
/// at `va`: it runs to the first block-ending instruction, the 64-insn cap
/// or the end of its page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub va: u64,
    pub words: Vec<u32>,
}

/// One generated guest program.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: &'static str,
    pub segments: Vec<Segment>,
    pub entry: u64,
    /// Guest instructions the program retires, closed-form from trip counts
    /// and block lengths; wait-loop spins are not counted.
    pub work_insns: u64,
    pub checks: Vec<Check>,
    /// Guest memory window whose digest must agree between the two engines.
    pub window: (u64, u64),
    /// Block-device configuration (both engines get the same one).
    pub virtio: Option<hvm::VirtioBlkConfig>,
    pub events: Events,
    /// A sample of the data addresses the program touches, for the memory
    /// path replay.
    pub data_addrs: Vec<u64>,
}

/// FNV-1a over bytes (`dbt::fnv1a`, the digest `guest_mem_digest`
/// computes), taking any byte iterator.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    dbt::fnv1a(&bytes.into_iter().collect::<Vec<u8>>())
}

impl Program {
    /// FNV-1a over every segment (address, then words): the image identity
    /// printed with each result.
    pub fn image_hash(&self) -> u64 {
        fnv1a(self.segments.iter().flat_map(|s| {
            s.gpa
                .to_le_bytes()
                .into_iter()
                .chain(s.words.iter().flat_map(|w| w.to_le_bytes()))
        }))
    }

    /// Static instruction count of the code segments.
    pub fn code_insns(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.kind == SegKind::Code)
            .map(|s| s.words.len())
            .sum()
    }

    /// The program's static block list: one block per *leader* (segment
    /// start, direct-branch target, instruction after a block-ending one),
    /// each cut the way the translator cuts (terminator, 64 instructions,
    /// page end).  Derived from the generated words alone.
    pub fn blocks(&self) -> Vec<Block> {
        let mut out = Vec::new();
        for seg in self.segments.iter().filter(|s| s.kind == SegKind::Code) {
            let n = seg.words.len();
            let mut leaders = BTreeSet::new();
            leaders.insert(0usize);
            for (i, &w) in seg.words.iter().enumerate() {
                let Some(insn) = decode(w) else {
                    // The translator ends a block at an undefined word.
                    if i + 1 < n {
                        leaders.insert(i + 1);
                    }
                    continue;
                };
                let target = match insn {
                    Insn::B { offset }
                    | Insn::Bl { offset }
                    | Insn::BCond { offset, .. }
                    | Insn::Cbz { offset, .. }
                    | Insn::Cbnz { offset, .. } => Some(i as i64 + offset / 4),
                    _ => None,
                };
                if let Some(t) = target {
                    if t >= 0 && (t as usize) < n {
                        leaders.insert(t as usize);
                    }
                }
                if insn.ends_block() && i + 1 < n {
                    leaders.insert(i + 1);
                }
            }
            for &l in &leaders {
                let va = seg.gpa + l as u64 * 4;
                let mut words = Vec::new();
                for (k, &w) in seg.words[l..].iter().enumerate() {
                    let a = va + k as u64 * 4;
                    if k > 0 && (a & !0xFFF) != (va & !0xFFF) {
                        break;
                    }
                    words.push(w);
                    let ends = decode(w).is_none_or(|i| i.ends_block());
                    if ends || words.len() >= 64 {
                        break;
                    }
                }
                out.push(Block { va, words });
            }
        }
        out
    }
}

/// Builds identity-mapping guest page tables on the host and returns them
/// as data segments plus the root address (for `TTBR0`).
pub struct PageTables {
    mem: RefCell<BTreeMap<u64, u64>>,
    builder: GuestPageTableBuilder,
}

impl Default for PageTables {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTables {
    pub fn new() -> Self {
        PageTables {
            mem: RefCell::new(BTreeMap::new()),
            builder: GuestPageTableBuilder::new(PT_POOL, PT_POOL_END),
        }
    }

    /// Root table address.
    pub fn root(&self) -> u64 {
        self.builder.root
    }

    /// Maps one page `va -> pa`, kernel read/write.
    pub fn map(&mut self, va: u64, pa: u64) {
        let mem = &self.mem;
        let ok = self.builder.map(
            |a| Some(*mem.borrow().get(&a).unwrap_or(&0)),
            |a, v| {
                mem.borrow_mut().insert(a, v);
            },
            va,
            pa,
            GuestPageFlags::kernel_rw(),
        );
        assert!(ok, "page-table pool exhausted");
    }

    /// Identity-maps `[start, start+len)`.
    pub fn identity(&mut self, start: u64, len: u64) {
        let mut a = start & !0xFFF;
        while a < start + len {
            self.map(a, a);
            a += 0x1000;
        }
    }

    /// Guest-physical address of the leaf entry translating `va` (which
    /// must already be mapped) — for programs that rewrite their own
    /// tables.
    pub fn leaf_entry_addr(&self, va: u64) -> u64 {
        let mem = self.mem.borrow();
        let mut table = self.builder.root;
        for level in (2..=3).rev() {
            let idx = guest_aarch64::mmu::guest_table_index(va, level);
            let pte = mem[&(table + idx * 8)];
            assert!(pte & 1 != 0, "va {va:#x} is not mapped");
            table = pte & 0x0000_FFFF_FFFF_F000;
        }
        table + guest_aarch64::mmu::guest_table_index(va, 1) * 8
    }

    /// The tables as data segments (one per touched table page).
    pub fn segments(&self) -> Vec<Segment> {
        let mem = self.mem.borrow();
        let mut pages: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&a, &v) in mem.iter() {
            let page = pages.entry(a & !0xFFF).or_insert_with(|| vec![0; 512]);
            page[((a & 0xFFF) / 8) as usize] = v;
        }
        pages
            .into_iter()
            .map(|(base, vals)| Segment::data_u64(base, &vals))
            .collect()
    }
}
