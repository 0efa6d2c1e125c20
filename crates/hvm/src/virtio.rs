//! A virtio-mmio block device with DMA completion, cycle-scheduled latency
//! and a deterministic fault-injection backend.
//!
//! This is the DMA half of the paper's device story: a block device whose
//! completions land in guest physical memory from *outside* the vCPU, behind
//! the translator's back.  The event/IRQ half (PR 6) gave the engines timers
//! and latched interrupt lines; this module gives them a device that walks
//! descriptor rings in guest memory, serves requests from an in-memory disk
//! image, and retires completions on a simulated-cycle deadline — the one
//! invalidation source a physically-indexed code cache has never faced.
//!
//! # Queue layout
//!
//! The ring layout follows the virtio split-virtqueue shape, widened to
//! 64-bit little-endian fields throughout so every field is one guest
//! `str`/`ldr` (the reproduction's guest ISA is 64-bit-centric; the layout
//! is a modelling choice, not an ISA restriction):
//!
//! * **Descriptor table** (`QUEUE_DESC`): `queue_size` entries of 32 bytes —
//!   `{ addr, len, flags, next }`.  `flags` bit 0 ([`DESC_F_NEXT`]) chains to
//!   `next`; bit 1 ([`DESC_F_WRITE`]) marks device-writable buffers.
//! * **Available ring** (`QUEUE_AVAIL`): `{ idx }` at +0, then
//!   `queue_size` slots of 8 bytes at +8: head descriptor indices, written
//!   by the guest at `idx % queue_size` before incrementing `idx`.
//! * **Used ring** (`QUEUE_USED`): `{ idx }` at +0, then `queue_size` slots
//!   of 16 bytes at +8: `{ id, len }`, written by the device in retirement
//!   order.  `idx` is incremented *after* the entry and all request data are
//!   visible, so a guest polling `used.idx` observes completed DMA.
//!
//! A request chain is `header desc → zero or more data descs → status desc`.
//! The header is 16 bytes: `{ type, sector }` with type [`REQ_READ`] or
//! [`REQ_WRITE`]; the final descriptor receives an 8-byte status word
//! ([`STATUS_OK`] / [`STATUS_IOERR`] / [`STATUS_UNSUPP`]).
//!
//! The device registers live in ordinary guest RAM at `mmio_base` (the
//! hypervisor pre-populates the identification words at attach time; the
//! guest writes the queue addresses and `IRQ_ENABLE`).  The queue kick is
//! the guest's `msr VblkNotify, xN` system register write, which reaches the
//! engines through the same `MSR_NOTIFY` helper as the timer registers.
//!
//! # Completion and determinism
//!
//! The two execution engines retire very different cycle counts for the
//! same guest instructions, so nothing architectural may depend on *when*
//! (in cycles) a completion lands — only on program order and counts:
//!
//! * Completion **order** is fixed at kick time: submission order, permuted
//!   only by the seeded [`FaultKind::Reordered`] swap (which is gated on the
//!   *next submission*, a program-order event, never on queue state).
//! * Cycle deadlines only gate when the queue head *may* retire; retirement
//!   is strictly in queue order.
//! * Write payloads are snapshotted from guest memory at kick (a precise
//!   program point — the kick is an `msr` that ends its block); the disk is
//!   mutated at retirement, in retirement order.  Read payloads are
//!   materialized from the disk at retirement, after every earlier write.
//! * An IRQ-raising completion holds back its successors until its latch
//!   line has actually been taken by the guest
//!   ([`InterruptLatch::is_pending`]), so deliveries never collapse and the
//!   per-run IRQ count equals the completion count exactly.
//!
//! Guests therefore synchronize on *counts* (spin on `used.idx`, count IRQ
//! deliveries), never on cycle timing, and both engines end byte-identical.
//!
//! # Fault-injection contract
//!
//! [`FaultPlan`] derives a per-request [`FaultKind`] from a seed and the
//! submission sequence number — pure, engine-independent, replayable.
//! Every injected fault is delivered to the guest as typed device state
//! (status word, short `used.len`, delayed or swapped completion); a fault
//! is **never** a host panic, and every submitted request retires exactly
//! one used-ring entry, so count-driven guests always terminate.  A
//! [`FaultKind::Reordered`] request waits for the next submission before it
//! may retire; programs that stop submitting must fence the tail of the
//! schedule with `FaultPlan::exempt_after` (the chaos harness exempts its
//! final, forced request this way).  Malformed descriptor chains — loops,
//! out-of-range indices, unreadable headers — are salvaged into an
//! [`STATUS_IOERR`] completion and counted in [`VirtioStats::desc_errors`].
//!
//! # External-invalidation path
//!
//! All retirement-time stores (data, status, used ring) go through
//! [`crate::PhysMem::write_external`], which reports every touched physical
//! page.  The engine runtime drains [`VirtioBlk::take_touched_pages`] and
//! intersects them with its translated-code page set: a DMA store that lands
//! on a page holding translations must invalidate them
//! (`CodeCache::invalidate_phys_page`; the reuse store's gate then refuses
//! templates made from the old bytes) and raise `loop_exit_pending` so a
//! hot looping region reconciles promoted carriers and exits at its next
//! back-edge with a precise register file — asynchronous external
//! self-modifying code, with none of the write-protection machinery that
//! catches vCPU stores.

use std::collections::VecDeque;

use crate::event::InterruptLatch;
use crate::mem::{PhysAccessError, PhysMem};

/// Interrupt line the block device asserts (distinct from the timer's
/// [`crate::TIMER_LINE`] = 30 and the chaos harness's spurious lines 1..16).
pub const VBLK_LINE: u32 = 29;

/// Bytes per disk sector.
pub const SECTOR_SIZE: u64 = 512;

/// Default guest-physical address of the device register window.
pub const DEFAULT_MMIO_BASE: u64 = 0x0080_0000;

/// Device register offsets from `mmio_base` (one 64-bit word each).
pub mod mmio {
    /// Identification magic, pre-populated by the hypervisor ("virt").
    pub const MAGIC: u64 = 0x00;
    /// Device model version.
    pub const VERSION: u64 = 0x08;
    /// Virtio device id (2 = block).
    pub const DEVICE_ID: u64 = 0x10;
    /// Disk capacity in sectors.
    pub const CAPACITY: u64 = 0x18;
    /// Queue size (number of descriptors).
    pub const QUEUE_NUM: u64 = 0x20;
    /// Guest writes: descriptor table guest-physical address.
    pub const QUEUE_DESC: u64 = 0x28;
    /// Guest writes: available ring guest-physical address.
    pub const QUEUE_AVAIL: u64 = 0x30;
    /// Guest writes: used ring guest-physical address.
    pub const QUEUE_USED: u64 = 0x38;
    /// Guest writes: nonzero = raise the IRQ line per completion.
    pub const IRQ_ENABLE: u64 = 0x40;
}

/// Value of the [`mmio::MAGIC`] register: "virt" in LE bytes.
pub const MMIO_MAGIC: u64 = 0x7472_6976;
/// Value of the [`mmio::VERSION`] register.
pub const MMIO_VERSION: u64 = 2;
/// Value of the [`mmio::DEVICE_ID`] register (block device).
pub const MMIO_DEVICE_ID: u64 = 2;

/// Descriptor flag: chain continues at `next`.
pub const DESC_F_NEXT: u64 = 1;
/// Descriptor flag: buffer is device-writable.
pub const DESC_F_WRITE: u64 = 2;

/// Request header `type`: read sectors from disk into guest memory.
pub const REQ_READ: u64 = 0;
/// Request header `type`: write guest memory to disk sectors.
pub const REQ_WRITE: u64 = 1;

/// Status word: success.
pub const STATUS_OK: u64 = 0;
/// Status word: I/O error (bad address, injected write fault, bad chain).
pub const STATUS_IOERR: u64 = 1;
/// Status word: unsupported request (unknown type, corrupted chain walk).
pub const STATUS_UNSUPP: u64 = 2;

/// Longest descriptor chain the device will walk before declaring the
/// chain corrupt (bounds hostile `next` loops).
const MAX_CHAIN: usize = 32;

/// Attach-time configuration, shared verbatim by both execution engines so
/// their device models are identical.
#[derive(Debug, Clone)]
pub struct VirtioBlkConfig {
    /// Guest-physical base of the register window.
    pub mmio_base: u64,
    /// Latch line asserted per completion (when the guest enables IRQs).
    pub irq_line: u32,
    /// Number of descriptors in the queue.
    pub queue_size: u64,
    /// Simulated cycles between kick and completion eligibility.
    pub completion_latency: u64,
    /// Disk capacity in sectors.
    pub disk_sectors: u64,
    /// Seed for the procedurally-filled disk image.
    pub disk_seed: u64,
    /// Explicit disk image; overlaid on the seeded pattern from byte 0.
    pub disk_image: Option<Vec<u8>>,
    /// Seed for the fault-injection backend; `None` = fault-free.
    pub fault_seed: Option<u64>,
    /// Requests with sequence number `>= exempt_after` are never faulted
    /// (see the fault-injection contract in the module docs).
    pub exempt_after: u64,
}

impl Default for VirtioBlkConfig {
    fn default() -> Self {
        VirtioBlkConfig {
            mmio_base: DEFAULT_MMIO_BASE,
            irq_line: VBLK_LINE,
            queue_size: 64,
            completion_latency: 20_000,
            disk_sectors: 64,
            disk_seed: 1,
            disk_image: None,
            fault_seed: None,
            exempt_after: u64::MAX,
        }
    }
}

/// Per-request fault decision (see the module-level contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault: normal request semantics.
    None,
    /// Read transfers only half the requested bytes (`used.len` reports the
    /// short count, status stays [`STATUS_OK`]).
    ShortRead,
    /// Write reaches no disk sector; status [`STATUS_IOERR`].
    WriteError,
    /// Multi-sector write applies only its first sector — a torn DMA write;
    /// status [`STATUS_IOERR`].
    TornWrite,
    /// Completion deadline stretched to 5x the configured latency.
    DelayedCompletion,
    /// Completion retires after the *next submitted* request instead of in
    /// submission order.
    Reordered,
    /// Device misparses the chain: no data transfer, status
    /// [`STATUS_UNSUPP`].
    CorruptChain,
}

fn xorshift64star(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Seeded, replayable fault schedule: a pure function of
/// `(seed, sequence number, request direction)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    exempt_after: u64,
}

impl FaultPlan {
    /// Builds a plan from a seed; `exempt_after` fences the schedule tail.
    pub fn seeded(seed: u64, exempt_after: u64) -> Self {
        FaultPlan {
            seed: seed | 1,
            exempt_after,
        }
    }

    /// The fault decision for submission `seq` of the given direction.
    pub fn decide(&self, seq: u64, is_write: bool) -> FaultKind {
        if seq >= self.exempt_after {
            return FaultKind::None;
        }
        // Top four bits of the mix: the multiply's low bits correlate
        // across adjacent sequence numbers, the high bits do not.
        let h = xorshift64star(self.seed ^ (seq + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 60;
        match (h, is_write) {
            (8, false) => FaultKind::ShortRead,
            (8, true) => FaultKind::TornWrite,
            (9, true) => FaultKind::WriteError,
            (10, _) => FaultKind::DelayedCompletion,
            (11, _) => FaultKind::Reordered,
            (12, _) => FaultKind::CorruptChain,
            _ => FaultKind::None,
        }
    }
}

/// Device counters; sampled into the engines' `RunStats`.
#[derive(Debug, Clone, Default)]
pub struct VirtioStats {
    /// Queue notifications received (`msr VblkNotify`).
    pub kicks: u64,
    /// Requests submitted (available-ring entries consumed).
    pub submissions: u64,
    /// Completions retired (used-ring entries written).
    pub completions: u64,
    /// IRQ raises on the device line.
    pub irqs_raised: u64,
    /// Requests whose fault decision was not [`FaultKind::None`].
    pub fault_injections: u64,
    /// Bytes stored into guest memory through the external-store path.
    pub dma_bytes: u64,
    /// Completions retired with a non-[`STATUS_OK`] status.
    pub io_errors: u64,
    /// Malformed descriptor chains salvaged into error completions.
    pub desc_errors: u64,
}

/// One in-flight request, fully decided at kick time.
#[derive(Debug)]
struct Completion {
    seq: u64,
    head: u64,
    deadline: u64,
    raise_irq: bool,
    used_gpa: u64,
    status: u64,
    status_gpa: Option<u64>,
    used_len: u64,
    /// `(guest gpa, disk offset, len)` copies materialized at retirement.
    reads: Vec<(u64, u64, u64)>,
    /// `(disk offset, bytes)` snapshot applied to the disk at retirement.
    write: Option<(u64, Vec<u8>)>,
    /// Gated until the next request has been submitted (Reordered swap).
    wait_next_submit: bool,
}

/// The virtio-mmio block device.  One instance per engine run; both engines
/// construct it from the same [`VirtioBlkConfig`], so device state evolves
/// identically under identical guest programs.
#[derive(Debug)]
pub struct VirtioBlk {
    cfg: VirtioBlkConfig,
    /// Host-physical address of guest-physical 0.
    guest_base: u64,
    /// Guest RAM size in bytes; DMA beyond this is a typed error.
    guest_ram: u64,
    disk: Vec<u8>,
    fault: Option<FaultPlan>,
    /// Next available-ring index to consume.
    last_avail: u64,
    /// Used-ring entries written so far (device-side `used.idx`).
    used_count: u64,
    pending: VecDeque<Completion>,
    /// Guest-physical page bases touched by retirement DMA, drained by the
    /// engine runtime for code invalidation.
    touched: Vec<u64>,
    /// Device counters.
    pub stats: VirtioStats,
}

impl VirtioBlk {
    /// Builds the device.  `guest_base` is the host-physical address where
    /// guest-physical 0 is mapped; `guest_ram` bounds DMA.
    pub fn new(cfg: VirtioBlkConfig, guest_base: u64, guest_ram: u64) -> Self {
        assert_eq!(guest_base % crate::paging::PAGE_SIZE, 0);
        let len = (cfg.disk_sectors * SECTOR_SIZE) as usize;
        let mut disk = vec![0u8; len];
        for (w, chunk) in disk.chunks_mut(8).enumerate() {
            let v = xorshift64star(cfg.disk_seed.wrapping_add(0x5EC7 + w as u64));
            chunk.copy_from_slice(&v.to_le_bytes()[..chunk.len()]);
        }
        if let Some(image) = &cfg.disk_image {
            let n = image.len().min(len);
            disk[..n].copy_from_slice(&image[..n]);
        }
        let fault = cfg
            .fault_seed
            .map(|s| FaultPlan::seeded(s, cfg.exempt_after));
        VirtioBlk {
            cfg,
            guest_base,
            guest_ram,
            disk,
            fault,
            last_avail: 0,
            used_count: 0,
            pending: VecDeque::new(),
            touched: Vec::new(),
            stats: VirtioStats::default(),
        }
    }

    /// Pre-populates the identification registers in guest RAM.  Called once
    /// at attach time, before the guest runs.
    pub fn init_mmio(&self, mem: &mut PhysMem) -> Result<(), PhysAccessError> {
        let base = self.guest_base + self.cfg.mmio_base;
        mem.write_u64(base + mmio::MAGIC, MMIO_MAGIC)?;
        mem.write_u64(base + mmio::VERSION, MMIO_VERSION)?;
        mem.write_u64(base + mmio::DEVICE_ID, MMIO_DEVICE_ID)?;
        mem.write_u64(base + mmio::CAPACITY, self.cfg.disk_sectors)?;
        mem.write_u64(base + mmio::QUEUE_NUM, self.cfg.queue_size)?;
        Ok(())
    }

    /// The attach-time configuration.
    pub fn config(&self) -> &VirtioBlkConfig {
        &self.cfg
    }

    /// A view of the disk image (tests inspect write retirement).
    pub fn disk(&self) -> &[u8] {
        &self.disk
    }

    fn reg(&self, mem: &PhysMem, off: u64) -> Option<u64> {
        mem.read_u64(self.guest_base + self.cfg.mmio_base + off)
            .ok()
    }

    /// Queue notification: consumes new available-ring entries and enqueues
    /// their completions.  Called from the engines' `MSR_NOTIFY` helper, so
    /// it executes at a precise guest program point on every engine.
    pub fn kick(&mut self, mem: &mut PhysMem, now: u64) {
        self.stats.kicks += 1;
        let (Some(desc), Some(avail), Some(used), Some(irq_en)) = (
            self.reg(mem, mmio::QUEUE_DESC),
            self.reg(mem, mmio::QUEUE_AVAIL),
            self.reg(mem, mmio::QUEUE_USED),
            self.reg(mem, mmio::IRQ_ENABLE),
        ) else {
            self.stats.desc_errors += 1;
            return;
        };
        let Ok(avail_idx) = mem.read_u64(self.guest_base + avail) else {
            self.stats.desc_errors += 1;
            return;
        };
        // A garbage avail.idx consumes at most one queue's worth of heads:
        // deterministic junk, never an unbounded walk.
        let n = avail_idx
            .wrapping_sub(self.last_avail)
            .min(self.cfg.queue_size);
        for _ in 0..n {
            let slot = self.last_avail % self.cfg.queue_size;
            let head = mem
                .read_u64(self.guest_base + avail + 8 + slot * 8)
                .unwrap_or(u64::MAX);
            self.last_avail += 1;
            self.submit(mem, desc, used, head, irq_en != 0, now);
        }
    }

    /// Reads descriptor `idx`, if it is in range and readable.
    fn desc(&self, mem: &PhysMem, table: u64, idx: u64) -> Option<[u64; 4]> {
        if idx >= self.cfg.queue_size {
            return None;
        }
        let base = self.guest_base + table + idx * 32;
        Some([
            mem.read_u64(base).ok()?,
            mem.read_u64(base + 8).ok()?,
            mem.read_u64(base + 16).ok()?,
            mem.read_u64(base + 24).ok()?,
        ])
    }

    /// True when `[gpa, gpa+len)` lies inside guest RAM.
    fn in_ram(&self, gpa: u64, len: u64) -> bool {
        gpa.checked_add(len)
            .is_some_and(|end| end <= self.guest_ram)
    }

    fn enqueue(&mut self, c: Completion) {
        // A Reordered predecessor is still pending here by construction (it
        // is gated on *this* submission), so "insert before it" is a
        // deterministic, program-order operation.
        let at = self
            .pending
            .iter()
            .position(|p| p.wait_next_submit && p.seq + 1 == c.seq)
            .unwrap_or(self.pending.len());
        self.pending.insert(at, c);
    }

    /// Parses and enqueues one request chain.  Every path — including every
    /// malformed one — produces exactly one completion, so `used.idx`
    /// eventually reaches the submission count and count-driven guests
    /// always terminate.
    fn submit(&mut self, mem: &mut PhysMem, table: u64, used: u64, head: u64, irq: bool, now: u64) {
        let seq = self.stats.submissions;
        self.stats.submissions += 1;
        let deadline = now.saturating_add(self.cfg.completion_latency);
        let mut c = Completion {
            seq,
            head,
            deadline,
            raise_irq: irq,
            used_gpa: used,
            status: STATUS_IOERR,
            status_gpa: None,
            used_len: 0,
            reads: Vec::new(),
            write: None,
            wait_next_submit: false,
        };

        // Walk the chain, bounded against hostile `next` loops.
        let mut chain = Vec::new();
        let mut idx = head;
        loop {
            let Some(d) = self.desc(mem, table, idx) else {
                self.stats.desc_errors += 1;
                self.enqueue(c);
                return;
            };
            chain.push(d);
            if d[2] & DESC_F_NEXT == 0 {
                break;
            }
            if chain.len() >= MAX_CHAIN {
                self.stats.desc_errors += 1;
                self.enqueue(c);
                return;
            }
            idx = d[3];
        }
        // Salvage the status address as early as possible so even malformed
        // requests report a typed error to the guest.
        let last = chain[chain.len() - 1];
        if last[2] & DESC_F_WRITE != 0 && last[1] >= 8 && self.in_ram(last[0], 8) {
            c.status_gpa = Some(last[0]);
        }
        if chain.len() < 2 || chain[0][1] < 16 || !self.in_ram(chain[0][0], 16) {
            self.stats.desc_errors += 1;
            self.enqueue(c);
            return;
        }
        let hdr = self.guest_base + chain[0][0];
        let (Ok(req_type), Ok(sector)) = (mem.read_u64(hdr), mem.read_u64(hdr + 8)) else {
            self.stats.desc_errors += 1;
            self.enqueue(c);
            return;
        };
        let is_write = req_type == REQ_WRITE;
        if !is_write && req_type != REQ_READ {
            c.status = STATUS_UNSUPP;
            self.enqueue(c);
            return;
        }

        let fault = self
            .fault
            .as_ref()
            .map_or(FaultKind::None, |f| f.decide(seq, is_write));
        if fault != FaultKind::None {
            self.stats.fault_injections += 1;
        }
        match fault {
            FaultKind::CorruptChain => {
                c.status = STATUS_UNSUPP;
                self.enqueue(c);
                return;
            }
            FaultKind::DelayedCompletion => {
                c.deadline = now.saturating_add(self.cfg.completion_latency.saturating_mul(5));
            }
            FaultKind::Reordered => c.wait_next_submit = true,
            _ => {}
        }

        // Validate the data segments and the disk range up front so
        // retirement cannot fail: a bad request is a typed IOERR now.
        let segs: Vec<(u64, u64)> = chain[1..chain.len() - 1]
            .iter()
            .map(|d| (d[0], d[1]))
            .collect();
        let total: u64 = segs.iter().map(|&(_, l)| l).sum();
        let disk_off = sector.checked_mul(SECTOR_SIZE);
        let disk_ok = disk_off
            .and_then(|o| o.checked_add(total))
            .is_some_and(|end| end <= self.disk.len() as u64);
        let ram_ok = segs.iter().all(|&(gpa, len)| self.in_ram(gpa, len));
        if !disk_ok || !ram_ok {
            self.enqueue(c); // status already IOERR
            return;
        }
        let disk_off = disk_off.unwrap();

        if is_write {
            match fault {
                FaultKind::WriteError => {} // no disk mutation, status IOERR
                FaultKind::TornWrite => {
                    // Snapshot only the first sector of a multi-sector
                    // write: the torn prefix lands, the tail never does.
                    let torn = total.min(SECTOR_SIZE);
                    c.write = Some((disk_off, self.snapshot(mem, &segs, torn)));
                }
                _ => {
                    c.status = STATUS_OK;
                    c.write = Some((disk_off, self.snapshot(mem, &segs, total)));
                }
            }
        } else {
            let transfer = if fault == FaultKind::ShortRead {
                total / 2
            } else {
                total
            };
            c.status = STATUS_OK;
            c.used_len = transfer;
            let (mut off, mut left) = (disk_off, transfer);
            for &(gpa, len) in &segs {
                if left == 0 {
                    break;
                }
                let take = len.min(left);
                c.reads.push((gpa, off, take));
                off += take;
                left -= take;
            }
        }
        self.enqueue(c);
    }

    /// Copies up to `limit` bytes of the scatter list out of guest memory.
    fn snapshot(&self, mem: &PhysMem, segs: &[(u64, u64)], limit: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(limit as usize);
        let mut left = limit;
        for &(gpa, len) in segs {
            if left == 0 {
                break;
            }
            let take = len.min(left) as usize;
            let mut buf = vec![0u8; take];
            // Bounds were validated at submit; a failure here would be a
            // harness bug, still handled as zero-fill rather than a panic.
            let _ = mem.read(self.guest_base + gpa, &mut buf);
            out.extend_from_slice(&buf);
            left -= take as u64;
        }
        out
    }

    /// True when the queue head may retire at `now`: deadline passed, not
    /// gated on an undelivered IRQ, not gated on a next submission.  Cheap;
    /// polled per back-edge from `Runtime::loop_exit_pending` and from the
    /// engines' chained dispatch loops.
    pub fn due(&self, now: u64, latch: &InterruptLatch) -> bool {
        self.pending.front().is_some_and(|c| {
            c.deadline <= now
                && !(c.wait_next_submit && c.seq + 1 >= self.stats.submissions)
                && !(c.raise_irq && latch.is_pending(self.cfg.irq_line))
        })
    }

    /// Retires every eligible completion in queue order.  Returns true when
    /// anything retired (the caller must then reconcile touched pages with
    /// its code cache before re-entering translated code).
    pub fn poll(&mut self, mem: &mut PhysMem, now: u64, latch: &mut InterruptLatch) -> bool {
        let mut any = false;
        while self.due(now, latch) {
            let c = self.pending.pop_front().expect("due() implies a head");
            self.retire(mem, c, latch);
            any = true;
        }
        any
    }

    /// DMA store through the external path, accumulating touched pages in
    /// guest-physical page numbers.
    fn dma(&mut self, mem: &mut PhysMem, gpa: u64, bytes: &[u8]) {
        let mut host_pages = Vec::new();
        if mem
            .write_external(self.guest_base + gpa, bytes, &mut host_pages)
            .is_err()
        {
            // Validated at submit; an unreachable target at retirement is
            // salvaged as a dropped transfer, never a panic.
            self.stats.desc_errors += 1;
            return;
        }
        self.stats.dma_bytes += bytes.len() as u64;
        for hp in host_pages {
            let gp = hp - self.guest_base;
            if self.touched.last() != Some(&gp) {
                self.touched.push(gp);
            }
        }
    }

    /// Applies one completion: disk mutation, guest DMA, status, used-ring
    /// entry, then `used.idx`, then the IRQ — so a guest that observes
    /// either signal is guaranteed to see the data.
    fn retire(&mut self, mem: &mut PhysMem, c: Completion, latch: &mut InterruptLatch) {
        if let Some((off, bytes)) = &c.write {
            let (off, n) = (*off as usize, bytes.len());
            if off + n <= self.disk.len() {
                self.disk[off..off + n].copy_from_slice(bytes);
            }
        }
        for &(gpa, off, len) in &c.reads {
            let buf = self.disk[off as usize..(off + len) as usize].to_vec();
            self.dma(mem, gpa, &buf);
        }
        if let Some(sa) = c.status_gpa {
            self.dma(mem, sa, &c.status.to_le_bytes());
        }
        let slot = self.used_count % self.cfg.queue_size;
        let ubase = c.used_gpa + 8 + slot * 16;
        self.dma(mem, ubase, &c.head.to_le_bytes());
        self.dma(mem, ubase + 8, &c.used_len.to_le_bytes());
        self.used_count += 1;
        let count = self.used_count;
        self.dma(mem, c.used_gpa, &count.to_le_bytes());
        self.stats.completions += 1;
        if c.status != STATUS_OK {
            self.stats.io_errors += 1;
        }
        if c.raise_irq {
            latch.raise(self.cfg.irq_line);
            self.stats.irqs_raised += 1;
        }
    }

    /// Drains the guest-physical page bases touched by retirement DMA since
    /// the last drain.
    pub fn take_touched_pages(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GUEST_BASE: u64 = 0x10_0000;
    const RAM: u64 = 0x10_0000; // 1 MiB of guest RAM
    const DESC: u64 = 0x2000;
    const AVAIL: u64 = 0x3000;
    const USED: u64 = 0x4000;
    const HDR: u64 = 0x5000;
    const STATUS: u64 = 0x5100;
    const BUF: u64 = 0x6000;

    fn setup(mut cfg: VirtioBlkConfig) -> (PhysMem, VirtioBlk, InterruptLatch) {
        cfg.mmio_base = 0x1000; // inside the 1 MiB test guest RAM
        let mut mem = PhysMem::new(GUEST_BASE + RAM);
        let dev = VirtioBlk::new(cfg, GUEST_BASE, RAM);
        dev.init_mmio(&mut mem).unwrap();
        // Point the queue registers at our rings (as the guest would).
        let mb = GUEST_BASE + dev.config().mmio_base;
        mem.write_u64(mb + mmio::QUEUE_DESC, DESC).unwrap();
        mem.write_u64(mb + mmio::QUEUE_AVAIL, AVAIL).unwrap();
        mem.write_u64(mb + mmio::QUEUE_USED, USED).unwrap();
        mem.write_u64(mb + mmio::IRQ_ENABLE, 0).unwrap();
        (mem, dev, InterruptLatch::default())
    }

    fn write_desc(mem: &mut PhysMem, i: u64, addr: u64, len: u64, flags: u64, next: u64) {
        let b = GUEST_BASE + DESC + i * 32;
        mem.write_u64(b, addr).unwrap();
        mem.write_u64(b + 8, len).unwrap();
        mem.write_u64(b + 16, flags).unwrap();
        mem.write_u64(b + 24, next).unwrap();
    }

    /// Builds a 3-descriptor chain at indices `d0..d0+2` and publishes it as
    /// the next available entry.
    #[allow(clippy::too_many_arguments)]
    fn publish_request(
        mem: &mut PhysMem,
        slot: u64,
        d0: u64,
        req_type: u64,
        sector: u64,
        buf: u64,
        len: u64,
        status: u64,
    ) {
        let hdr = HDR + slot * 16;
        mem.write_u64(GUEST_BASE + hdr, req_type).unwrap();
        mem.write_u64(GUEST_BASE + hdr + 8, sector).unwrap();
        let wr = if req_type == REQ_READ {
            DESC_F_WRITE
        } else {
            0
        };
        write_desc(mem, d0, hdr, 16, DESC_F_NEXT, d0 + 1);
        write_desc(mem, d0 + 1, buf, len, DESC_F_NEXT | wr, d0 + 2);
        write_desc(mem, d0 + 2, status, 8, DESC_F_WRITE, 0);
        mem.write_u64(GUEST_BASE + AVAIL + 8 + slot * 8, d0)
            .unwrap();
        mem.write_u64(GUEST_BASE + AVAIL, slot + 1).unwrap();
    }

    #[test]
    fn read_request_completes_with_disk_data() {
        let cfg = VirtioBlkConfig {
            completion_latency: 100,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        publish_request(&mut mem, 0, 0, REQ_READ, 3, BUF, 64, STATUS);
        dev.kick(&mut mem, 10);
        assert!(!dev.due(50, &latch), "latency must gate retirement");
        assert!(dev.due(110, &latch));
        assert!(dev.poll(&mut mem, 110, &mut latch));
        let mut got = [0u8; 64];
        mem.read(GUEST_BASE + BUF, &mut got).unwrap();
        assert_eq!(&got[..], &dev.disk()[3 * 512..3 * 512 + 64]);
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS).unwrap(), STATUS_OK);
        assert_eq!(mem.read_u64(GUEST_BASE + USED).unwrap(), 1);
        assert_eq!(mem.read_u64(GUEST_BASE + USED + 8).unwrap(), 0); // id
        assert_eq!(mem.read_u64(GUEST_BASE + USED + 16).unwrap(), 64); // len
        assert_eq!(dev.stats.completions, 1);
        assert_eq!(dev.stats.io_errors, 0);
        assert_eq!(latch.raises, 0, "polling mode must not raise");
    }

    #[test]
    fn write_then_read_round_trips_through_disk() {
        let cfg = VirtioBlkConfig {
            completion_latency: 10,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        let payload = [0x5Au8; 512];
        mem.write(GUEST_BASE + BUF, &payload).unwrap();
        publish_request(&mut mem, 0, 0, REQ_WRITE, 7, BUF, 512, STATUS);
        publish_request(&mut mem, 1, 3, REQ_READ, 7, BUF + 0x1000, 512, STATUS + 8);
        dev.kick(&mut mem, 0);
        // Disk mutates only at retirement, and the read (submitted second)
        // retires after the write: it must observe the new bytes.
        assert!(dev.poll(&mut mem, 1000, &mut latch));
        assert_eq!(&dev.disk()[7 * 512..8 * 512], &payload[..]);
        let mut got = [0u8; 512];
        mem.read(GUEST_BASE + BUF + 0x1000, &mut got).unwrap();
        assert_eq!(got, payload);
        assert_eq!(mem.read_u64(GUEST_BASE + USED).unwrap(), 2);
    }

    #[test]
    fn irq_mode_gates_next_completion_on_delivery() {
        let cfg = VirtioBlkConfig {
            completion_latency: 10,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        let mb = GUEST_BASE + dev.config().mmio_base;
        mem.write_u64(mb + mmio::IRQ_ENABLE, 1).unwrap();
        publish_request(&mut mem, 0, 0, REQ_READ, 0, BUF, 8, STATUS);
        publish_request(&mut mem, 1, 3, REQ_READ, 1, BUF + 64, 8, STATUS + 8);
        dev.kick(&mut mem, 0);
        assert!(dev.poll(&mut mem, 100, &mut latch));
        // Only the first retired: its IRQ is still pending.
        assert_eq!(dev.stats.completions, 1);
        assert!(latch.is_pending(VBLK_LINE));
        assert!(!dev.due(100, &latch));
        assert_eq!(latch.take(100), Some(VBLK_LINE));
        assert!(dev.poll(&mut mem, 100, &mut latch));
        assert_eq!(dev.stats.completions, 2);
        assert_eq!(dev.stats.irqs_raised, 2);
    }

    #[test]
    fn bad_addresses_are_typed_ioerr_never_a_panic() {
        let cfg = VirtioBlkConfig {
            completion_latency: 1,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        // Data buffer far outside guest RAM.
        publish_request(&mut mem, 0, 0, REQ_READ, 0, 0xFFFF_F000, 64, STATUS);
        // Sector beyond disk capacity.
        publish_request(&mut mem, 1, 3, REQ_READ, 1 << 40, BUF, 64, STATUS + 8);
        // Unknown request type.
        publish_request(&mut mem, 2, 6, 99, 0, BUF, 64, STATUS + 16);
        dev.kick(&mut mem, 0);
        assert!(dev.poll(&mut mem, 10, &mut latch));
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS).unwrap(), STATUS_IOERR);
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS + 8).unwrap(), STATUS_IOERR);
        assert_eq!(
            mem.read_u64(GUEST_BASE + STATUS + 16).unwrap(),
            STATUS_UNSUPP
        );
        // All three still produced used entries: count-driven guests finish.
        assert_eq!(mem.read_u64(GUEST_BASE + USED).unwrap(), 3);
        assert_eq!(dev.stats.io_errors, 3);
    }

    #[test]
    fn corrupt_chain_loop_is_bounded_and_salvaged() {
        let cfg = VirtioBlkConfig {
            completion_latency: 1,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        // Descriptor that chains to itself forever.
        write_desc(&mut mem, 0, HDR, 16, DESC_F_NEXT, 0);
        mem.write_u64(GUEST_BASE + AVAIL + 8, 0).unwrap();
        mem.write_u64(GUEST_BASE + AVAIL, 1).unwrap();
        // And one with an out-of-range head index.
        mem.write_u64(GUEST_BASE + AVAIL + 16, 9999).unwrap();
        mem.write_u64(GUEST_BASE + AVAIL, 2).unwrap();
        dev.kick(&mut mem, 0);
        assert_eq!(dev.stats.desc_errors, 2);
        assert!(dev.poll(&mut mem, 10, &mut latch));
        assert_eq!(mem.read_u64(GUEST_BASE + USED).unwrap(), 2);
    }

    #[test]
    fn fault_plan_is_deterministic_and_typed() {
        let plan = FaultPlan::seeded(0xFA_u64, u64::MAX);
        let a: Vec<FaultKind> = (0..64).map(|s| plan.decide(s, false)).collect();
        let b: Vec<FaultKind> = (0..64).map(|s| plan.decide(s, false)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&k| k != FaultKind::None));
        let fenced = FaultPlan::seeded(0xFA_u64, 4);
        assert!((4..64).all(|s| fenced.decide(s, true) == FaultKind::None));
    }

    #[test]
    fn injected_faults_deliver_typed_status() {
        // Find a seed whose first two write decisions are TornWrite and
        // WriteError deterministically by scanning.
        let mut seed = None;
        for s in (1..2_000_000u64).step_by(2) {
            let p = FaultPlan::seeded(s, u64::MAX);
            if p.decide(0, true) == FaultKind::TornWrite
                && p.decide(1, true) == FaultKind::WriteError
                && p.decide(2, false) == FaultKind::ShortRead
            {
                seed = Some(s);
                break;
            }
        }
        let seed = seed.expect("seed scan must find the schedule");
        let cfg = VirtioBlkConfig {
            completion_latency: 1,
            fault_seed: Some(seed),
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        let payload = [0xEEu8; 1024];
        mem.write(GUEST_BASE + BUF, &payload).unwrap();
        let before: Vec<u8> = dev.disk()[..3 * 512].to_vec();
        // Torn multi-sector write: only sector 0 lands, status IOERR.
        publish_request(&mut mem, 0, 0, REQ_WRITE, 0, BUF, 1024, STATUS);
        // Write error: sector 2 untouched, status IOERR.
        publish_request(&mut mem, 1, 3, REQ_WRITE, 2, BUF, 512, STATUS + 8);
        // Short read: used.len is half, status OK.
        publish_request(&mut mem, 2, 6, REQ_READ, 4, BUF + 0x2000, 512, STATUS + 16);
        dev.kick(&mut mem, 0);
        assert!(dev.poll(&mut mem, 100, &mut latch));
        assert_eq!(dev.stats.fault_injections, 3);
        assert_eq!(&dev.disk()[..512], &payload[..512], "torn prefix lands");
        assert_eq!(
            &dev.disk()[512..1024],
            &before[512..1024],
            "torn tail does not"
        );
        assert_eq!(&dev.disk()[2 * 512..3 * 512], &before[2 * 512..3 * 512]);
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS).unwrap(), STATUS_IOERR);
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS + 8).unwrap(), STATUS_IOERR);
        assert_eq!(mem.read_u64(GUEST_BASE + STATUS + 16).unwrap(), STATUS_OK);
        assert_eq!(
            mem.read_u64(GUEST_BASE + USED + 8 + 2 * 16 + 8).unwrap(),
            256
        );
    }

    #[test]
    fn reordered_completion_waits_for_next_submission_then_swaps() {
        let mut seed = None;
        for s in 1..20_000u64 {
            let p = FaultPlan::seeded(s, u64::MAX);
            if p.decide(0, false) == FaultKind::Reordered && p.decide(1, false) == FaultKind::None {
                seed = Some(s);
                break;
            }
        }
        let cfg = VirtioBlkConfig {
            completion_latency: 1,
            fault_seed: Some(seed.expect("seed scan")),
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        publish_request(&mut mem, 0, 0, REQ_READ, 0, BUF, 8, STATUS);
        dev.kick(&mut mem, 0);
        // Gated: deadline long past, but the next submission hasn't arrived.
        assert!(!dev.due(1_000_000, &latch));
        assert!(!dev.poll(&mut mem, 1_000_000, &mut latch));
        publish_request(&mut mem, 1, 3, REQ_READ, 1, BUF + 64, 8, STATUS + 8);
        dev.kick(&mut mem, 0);
        assert!(dev.poll(&mut mem, 1_000_000, &mut latch));
        // Request 1 retired first (used entry id 3), then request 0.
        assert_eq!(mem.read_u64(GUEST_BASE + USED).unwrap(), 2);
        assert_eq!(mem.read_u64(GUEST_BASE + USED + 8).unwrap(), 3);
        assert_eq!(mem.read_u64(GUEST_BASE + USED + 8 + 16).unwrap(), 0);
    }

    #[test]
    fn huge_latency_saturates_instead_of_wrapping() {
        let cfg = VirtioBlkConfig {
            completion_latency: u64::MAX,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, latch) = setup(cfg);
        publish_request(&mut mem, 0, 0, REQ_READ, 0, BUF, 8, STATUS);
        dev.kick(&mut mem, 1000);
        // A wrapped deadline would be tiny and fire immediately; saturation
        // means it never becomes due within any realistic run.
        assert!(!dev.due(u64::MAX - 1, &latch));
    }

    #[test]
    fn retirement_dma_reports_touched_guest_pages() {
        let cfg = VirtioBlkConfig {
            completion_latency: 1,
            ..VirtioBlkConfig::default()
        };
        let (mut mem, mut dev, mut latch) = setup(cfg);
        publish_request(&mut mem, 0, 0, REQ_READ, 0, 0x8FF0, 0x20, STATUS);
        dev.kick(&mut mem, 0);
        assert!(dev.poll(&mut mem, 10, &mut latch));
        let pages = dev.take_touched_pages();
        // Data spans 0x8000 and 0x9000; status and used ring add theirs.
        assert!(pages.contains(&0x8000) && pages.contains(&0x9000));
        assert!(pages.contains(&(STATUS & !0xFFF)));
        assert!(pages.contains(&(USED & !0xFFF)));
        assert!(dev.take_touched_pages().is_empty(), "drain is one-shot");
    }
}
