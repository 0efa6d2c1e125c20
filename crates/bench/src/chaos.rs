//! Deterministic fault injection ("chaos") harness.
//!
//! From a single RNG seed this module derives a *hostile guest program* plus
//! an external interrupt plan, as one [`Guest`] any engine runs.
//! The program interleaves ordinary computation with every nasty behaviour
//! the engine must survive: stores onto its own (translated) code pages,
//! TLB invalidates, system-register writebacks that tear down translation
//! state, undefined instructions, out-of-bounds loads that take data aborts,
//! supervisor calls, the guest MMU switched on at a seed-drawn point with
//! leaf page-table entries rewritten under it afterwards, a one-shot timer,
//! externally scheduled "spurious" device interrupts, and seed-drawn
//! virtio-blk requests against a fault-injecting disk ([`hvm::FaultPlan`])
//! whose DMA completions land in guest memory asynchronously.
//!
//! Every plan ends with a *forced* virtio read of disk sector 0, whose data
//! descriptor is patched at runtime to point at the `used.idx` wait loop the
//! guest is about to spin in.  Sector 0 holds a byte-identical copy of that
//! code (built from the assembled program below), so the DMA is
//! architecturally invisible — but it is device-originated external SMC onto
//! a page holding a *live looping region*, and must force the engine down
//! its invalidation path on every seed.
//!
//! # Why the outcome is engine-independent
//!
//! The engines retire different cycle counts for the same guest work, so
//! asynchronous events preempt each engine at different guest instructions.
//! The generated program is therefore written so that **every architectural
//! effect is driven by program order or by event counts, never by cycle
//! counts**:
//!
//! - fault-injection ops live in fixed-size instruction slots, so a
//!   self-modifying store can compute the address of a *future* placeholder
//!   instruction and always lands (in program order) before its target
//!   executes;
//! - the exception vector dispatches on ESR class and only increments
//!   counters / accumulates ESR values (commutative, so delivery
//!   interleaving does not matter), then zeroes its scratch registers so no
//!   "last exception" state leaks into the final register file;
//! - spurious interrupts are scheduled inside a cycle window that every
//!   engine reaches *after* installing the vector and *before* finishing a
//!   long countdown tail, so every engine drains exactly the same set;
//! - a remap op always follows its table store with `tlbi` before it reads
//!   through the remapped address (what a stale translation returns without
//!   one is legitimately engine-dependent), and nothing else touches the
//!   remap window, so the value read is fixed by program order;
//! - virtio completion *order* is fixed at kick time (program order) and
//!   write payloads snapshot at the kick, so although each engine retires a
//!   completion at a different cycle, the architectural effects — used-ring
//!   contents, DMA'd data, status bytes, IRQ count — are count-driven and
//!   identical; the guest spins on `used.idx` before its countdown tail so
//!   every completion has landed by `hlt`.
//!
//! Consequently the same seed must produce byte-identical final registers,
//! flags and guest memory on Captive (any configuration) and on the QEMU
//! baseline; `bench/tests/chaos.rs` holds the engines of
//! [`crate::EQUIVALENT`] to that.

use crate::{Guest, CODE_WINDOW, DATA_WINDOW};
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
use guest_aarch64::SysReg;
use hvm::virtio::{mmio, DESC_F_NEXT, DESC_F_WRITE, REQ_READ, REQ_WRITE, SECTOR_SIZE};
use hvm::VirtioBlkConfig;
use workloads::{
    CODE_BASE, DATA_BASE, VBLK_AVAIL, VBLK_BUF, VBLK_DESC, VBLK_HDR, VBLK_MMIO_BASE, VBLK_STATUS,
    VBLK_USED,
};

/// Words per fault-injection op slot (longest op + nop padding), so every
/// op's address is `ops_start + index * OP_WORDS` and a patch op can target
/// a future placeholder without assembling twice.
const OP_WORDS: usize = 5;

/// Countdown iterations after the op section: long enough that every
/// engine's cycle counter passes the whole interrupt schedule before `hlt`.
const TAIL_ITERS: u64 = 100_000;

/// Scheduled interrupts fire inside this cycle window: after the slowest
/// engine has installed the vector, before the fastest engine's tail ends.
const SCHEDULE_MIN_CYCLE: u64 = 30_000;
const SCHEDULE_MAX_CYCLE: u64 = 80_000;

/// Cap on seed-drawn virtio submissions (excess draws degrade to ALU ops):
/// with the forced final request that is 15 chains of 3 descriptors each,
/// comfortably inside the device's 64-entry queue.
const MAX_CHAOS_SUBMITS: usize = 14;

/// Guest page tables (loaded beside the program, live once the plan's
/// [`Op::MmuOn`] has run): an identity map of the code, the data window and
/// the pool itself, plus the remap window.
const PT_POOL: u64 = DATA_BASE + 0x2_0000;
const PT_POOL_LEN: u64 = 0x8000;
/// The remap window: [`REMAP_SLOTS`] pages under a leaf table of their own,
/// each mapped to one of two frames at the top of the data-digest window.
const REMAP_VA: u64 = 0x0200_0000;
const REMAP_SLOTS: u64 = 4;
const REMAP_FRAMES: [u64; 2] = [DATA_BASE + 0x6000, DATA_BASE + 0x7000];

/// xorshift64* — tiny, seedable, and good enough to derive op mixes.
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point without losing seed distinctness.
        ChaosRng(seed.wrapping_mul(2).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One fault-injection op, occupying one [`OP_WORDS`] slot.
#[derive(Debug, Clone)]
enum Op {
    /// Ordinary computation: fold a constant into the x25/x24 accumulators.
    Alu(u16),
    /// Store/load round trip at a data offset, folded into x24.
    Mem(u16),
    /// `movz x19, #v` at slot word 0 — the word patch ops overwrite — then
    /// accumulate x19 so the executed (possibly patched) value is observed.
    Placeholder(u16),
    /// Self-modifying store: overwrite the placeholder at op index `target`
    /// (strictly later in program order) with `movz x19, #value`.
    Patch { value: u16, target: usize },
    /// Guest TLB invalidate.
    Tlbi,
    /// Same-value system-register writeback (TTBR0 or SCTLR): triggers the
    /// engine's translation-teardown path with no architectural effect.
    RegFlip { ttbr: bool },
    /// `SCTLR = 1`: from here on the guest runs on its page tables.  Exactly
    /// one per plan, at a seed-drawn slot in the first half.
    MmuOn,
    /// Rewrite the leaf PTE of remap slot `slot` to frame `frame` (x29 / x30
    /// hold the two PTE values, x3 the leaf table, x4 the window base),
    /// `tlbi`, load through the slot and fold the value into x24.  Drawn
    /// before [`Op::MmuOn`] it degrades to plain computation.
    Remap { slot: u8, frame: u8 },
    /// An undecodable word: takes a guest UNDEF exception.
    Undef,
    /// Load from beyond guest RAM: takes a guest data abort.
    OobLoad,
    /// Supervisor call.
    Svc(u16),
    /// Publish the next prebuilt virtio request chain and kick the device:
    /// bump the x27 submission counter, store it as `avail.idx`, `msr`
    /// notify.  Which chain (read/write, which sector) was fixed at plan
    /// time and prebuilt by the prologue.
    VblkSubmit,
}

/// A seed-derived chaos run plan: the guest — program, page tables, device
/// and spurious-interrupt schedule — and what the guest must count.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The hostile guest: its code, its page tables and remap frames
    /// (`words`), the fault-injecting disk (`virtio`: fault plan seed,
    /// identity image) and the spurious interrupts (`irqs`); it digests
    /// [`CODE_WINDOW`] and [`DATA_WINDOW`].
    pub guest: Guest,
    /// Number of self-modifying patch ops in the program.
    pub patches: usize,
    /// Number of ops that take a synchronous exception (UNDEF + abort + SVC).
    pub sync_ops: usize,
    /// Number of remap ops (at least one: the last op slot always is).
    pub remaps: usize,
    /// Total virtio submissions, *including* the forced final identity-SMC
    /// read (so this is the expected completion and device-IRQ count).
    pub virtio_submits: u64,
}

fn emit_op(a: &mut Assembler, op: &Op, ops_start: usize) {
    let slot_start = a.here();
    match *op {
        Op::Alu(c) => {
            a.push(asm::movz(14, c as u32, 0));
            a.push(asm::eor(25, 25, 14));
            a.push(asm::add(24, 24, 25));
        }
        Op::Mem(off) => {
            a.push(asm::str(25, 1, off as u32));
            a.push(asm::ldr(26, 1, off as u32));
            a.push(asm::add(24, 24, 26));
        }
        Op::Placeholder(v) => {
            a.push(asm::movz(19, v as u32, 0));
            a.push(asm::add(24, 24, 19));
        }
        Op::Patch { value, target } => {
            let va = CODE_BASE + ((ops_start + target * OP_WORDS) as u64) * 4;
            assert!(va <= 0xFFFF, "chaos program outgrew single-movz addresses");
            let new_word = asm::movz(19, value as u32, 0);
            a.push(asm::movz(10, va as u32, 0));
            a.push(asm::movz(11, new_word & 0xFFFF, 0));
            a.push(asm::movk(11, new_word >> 16, 1));
            a.push(asm::strw(11, 10, 0));
        }
        Op::Tlbi => {
            a.push(asm::tlbi());
        }
        Op::RegFlip { ttbr } => {
            let sr = if ttbr { SysReg::Ttbr0 } else { SysReg::Sctlr } as u32;
            a.push(asm::mrs(12, sr));
            a.push(asm::msr(sr, 12));
        }
        Op::MmuOn => {
            a.push(asm::movz(12, 1, 0));
            a.push(asm::msr(SysReg::Sctlr as u32, 12));
        }
        Op::Remap { slot, frame } => {
            a.push(asm::str(29 + frame as u32, 3, slot as u32 * 8));
            a.push(asm::tlbi());
            a.push(asm::ldr(13, 4, slot as u32 * 0x1000));
            a.push(asm::add(24, 24, 13));
        }
        Op::Undef => {
            a.push(0x7F << 25);
        }
        Op::OobLoad => {
            // 0x4000_0000 is well past the 32 MiB of guest RAM.
            a.push(asm::movz(10, 0, 0));
            a.push(asm::movk(10, 0x4000, 1));
            a.push(asm::ldr(13, 10, 0));
        }
        Op::Svc(imm) => {
            a.push(asm::svc(imm as u32));
        }
        Op::VblkSubmit => {
            a.push(asm::addi(27, 27, 1));
            a.push(asm::str(27, 28, 0)); // avail.idx = x27
            a.push(asm::msr(SysReg::VblkNotify as u32, 27));
        }
    }
    let used = a.here() - slot_start;
    assert!(used <= OP_WORDS, "op {op:?} overran its slot");
    for _ in used..OP_WORDS {
        a.push(asm::nop());
    }
}

/// Stores the 64-bit immediate `val` at `[x<base> + off]`.  The scratch is
/// x6, deliberately *not* a register the exception vector zeroes: the
/// one-shot timer (or a scheduled spurious IRQ) may preempt the prologue at
/// an engine-dependent instruction, and a vector-clobbered scratch would
/// make the prebuilt descriptor tables engine-dependent.
fn emit_store_imm(a: &mut Assembler, base: u32, off: u64, val: u64) {
    a.mov_imm64(6, val);
    a.push(asm::str(6, base, off as u32));
}

/// Derives the full chaos plan for `seed`.
pub fn chaos_plan(seed: u64) -> ChaosPlan {
    let mut rng = ChaosRng::new(seed);

    // Op kinds first, so patch ops can be aimed at *future* placeholders.
    // Virtio submissions record their direction/sector here in draw order;
    // the prologue prebuilds one descriptor chain per entry.
    let mut subs: Vec<(bool, u64)> = Vec::new();
    let n_ops = 48 + rng.below(17) as usize; // 48..=64
    let mmu_on_at = rng.below(n_ops as u64 / 2) as usize;
    let draw_remap = |rng: &mut ChaosRng| Op::Remap {
        slot: rng.below(REMAP_SLOTS) as u8,
        frame: rng.below(2) as u8,
    };
    let mut ops: Vec<Op> = (0..n_ops)
        .map(|i| match rng.below(22) {
            _ if i == mmu_on_at => Op::MmuOn,
            // Every plan remaps at least once, with the MMU long on.
            _ if i == n_ops - 1 => draw_remap(&mut rng),
            20..=21 if i > mmu_on_at => draw_remap(&mut rng),
            20..=21 => Op::Alu(rng.below(0x10000) as u16),
            0..=3 => Op::Alu(rng.below(0x10000) as u16),
            4..=6 => Op::Mem((rng.below(0x200) * 8) as u16),
            7..=8 => Op::Placeholder(rng.below(0x10000) as u16),
            9..=10 => Op::Patch {
                value: rng.below(0x10000) as u16,
                target: usize::MAX, // resolved below
            },
            11 => Op::Tlbi,
            12 => Op::RegFlip {
                ttbr: rng.below(2) == 0,
            },
            13 => Op::Undef,
            14 => Op::OobLoad,
            15 => Op::Svc(rng.below(0x10000) as u16),
            _ => {
                // Reads pull from the pattern half of the disk; writes land
                // in sectors 32..56, never sector 0, so the identity image
                // the forced final request DMAs stays intact.
                let is_write = rng.below(3) == 0;
                let sector = if is_write {
                    32 + rng.below(24)
                } else {
                    rng.below(32)
                };
                if subs.len() < MAX_CHAOS_SUBMITS {
                    subs.push((is_write, sector));
                    Op::VblkSubmit
                } else {
                    Op::Alu(sector as u16 | 0x4000)
                }
            }
        })
        .collect();
    for i in 0..ops.len() {
        if let Op::Patch { value, .. } = ops[i] {
            let target = (i + 1..ops.len())
                .find(|&j| matches!(ops[j], Op::Placeholder(_)))
                .filter(|&j| {
                    // A same-slot-adjacent patch is fine, but a patch with no
                    // future placeholder degrades to plain computation.
                    j > i
                });
            match target {
                Some(j) => ops[i] = Op::Patch { value, target: j },
                None => ops[i] = Op::Alu(value),
            }
        }
    }
    let patches = ops.iter().filter(|o| matches!(o, Op::Patch { .. })).count();
    let sync_ops = ops
        .iter()
        .filter(|o| matches!(o, Op::Undef | Op::OobLoad | Op::Svc(_)))
        .count();
    let remaps = ops.iter().filter(|o| matches!(o, Op::Remap { .. })).count();

    // The page tables the MmuOn op switches to.  Every remap slot starts on
    // frame 0; the slots' PTEs sit at the start of a leaf table of their own.
    let rw = GuestPageFlags::kernel_rw();
    let mut tables = GuestTableImage::new(PT_POOL, PT_POOL + PT_POOL_LEN);
    tables.identity(CODE_WINDOW.0, CODE_WINDOW.1, rw);
    tables.identity(DATA_WINDOW.0, DATA_WINDOW.1, rw);
    tables.identity(PT_POOL, PT_POOL_LEN, rw);
    for slot in 0..REMAP_SLOTS {
        tables.map(REMAP_VA + slot * 0x1000, REMAP_FRAMES[0], rw);
    }
    let mut preload: Vec<(u64, u64)> = tables.words().collect();
    preload.extend([
        (REMAP_FRAMES[0], 0x0A0A_0000 | (seed & 0xFFFF)),
        (REMAP_FRAMES[1], 0x0B0B_0000 | (seed >> 16 & 0xFFFF)),
    ]);

    let mut a = Assembler::new();
    // Prologue: install the vector before anything can fault, zero the
    // counters, then arm a one-shot timer with a seed-dependent delay.
    a.adr_to(9, "chaos_vec");
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.push(asm::movz(20, 0, 0)); // IRQ deliveries
    a.push(asm::movz(21, 0, 0)); // synchronous exceptions
    a.push(asm::movz(23, 0, 0)); // ESR accumulator
    a.push(asm::movz(24, 0, 0)); // value accumulator
    a.push(asm::movz(25, (seed & 0xFFFF) as u32, 0)); // computation seed
    a.mov_imm64(1, DATA_BASE);
    // The table base takes effect at the MmuOn op; the remap ops' operands
    // live in registers nothing else (the vector included) writes.
    a.mov_imm64(3, tables.root());
    a.push(asm::msr(SysReg::Ttbr0 as u32, 3));
    a.mov_imm64(3, tables.entry_addr(REMAP_VA, 1));
    a.mov_imm64(4, REMAP_VA);
    a.mov_imm64(29, REMAP_FRAMES[0] | rw.encode());
    a.mov_imm64(30, REMAP_FRAMES[1] | rw.encode());
    a.push(asm::movz(2, 2_000 + rng.below(8_000) as u32, 0));
    a.push(asm::msr(SysReg::CntTval as u32, 2)); // one-shot timer

    // Virtio device bring-up: program the queue windows, enable completion
    // IRQs, and prebuild every request chain (in submission order) so each
    // VblkSubmit op slot is a fixed-size counter-bump-and-kick.  Chain i
    // uses descriptors 3i..3i+2.  The final chain (index n_subs) is the
    // forced identity-SMC read of sector 0; its data-descriptor address is
    // left 0 here and patched at runtime to the `chaos_vwait` spin loop.
    let n_subs = subs.len();
    a.mov_imm64(8, VBLK_MMIO_BASE);
    a.mov_imm64(18, VBLK_DESC);
    a.mov_imm64(28, VBLK_AVAIL);
    a.mov_imm64(22, VBLK_USED);
    a.push(asm::str(18, 8, mmio::QUEUE_DESC as u32));
    a.push(asm::str(28, 8, mmio::QUEUE_AVAIL as u32));
    a.push(asm::str(22, 8, mmio::QUEUE_USED as u32));
    a.push(asm::movz(6, 1, 0));
    a.push(asm::str(6, 8, mmio::IRQ_ENABLE as u32));
    a.push(asm::movz(27, 0, 0)); // submission counter
    a.mov_imm64(7, VBLK_HDR);
    // The extra (read, sector 0) entry is the forced final identity request.
    for (i, &(is_write, sector)) in subs.iter().chain(std::iter::once(&(false, 0))).enumerate() {
        let d0 = (i * 3) as u64;
        // Header descriptor: device reads { type, sector }.
        emit_store_imm(&mut a, 18, d0 * 32, VBLK_HDR + i as u64 * 16);
        emit_store_imm(&mut a, 18, d0 * 32 + 8, 16);
        emit_store_imm(&mut a, 18, d0 * 32 + 16, DESC_F_NEXT);
        emit_store_imm(&mut a, 18, d0 * 32 + 24, d0 + 1);
        // Data descriptor: reads DMA into a private buffer slot; writes
        // snapshot the live Mem-op scratch area at DATA_BASE at kick time.
        let (daddr, dflags) = if i == n_subs {
            (0, DESC_F_NEXT | DESC_F_WRITE) // patched to the wait loop
        } else if is_write {
            (DATA_BASE, DESC_F_NEXT)
        } else {
            (VBLK_BUF + i as u64 * 0x200, DESC_F_NEXT | DESC_F_WRITE)
        };
        emit_store_imm(&mut a, 18, (d0 + 1) * 32, daddr);
        emit_store_imm(&mut a, 18, (d0 + 1) * 32 + 8, SECTOR_SIZE);
        emit_store_imm(&mut a, 18, (d0 + 1) * 32 + 16, dflags);
        emit_store_imm(&mut a, 18, (d0 + 1) * 32 + 24, d0 + 2);
        // Status descriptor: device writes the 8-byte status word.
        emit_store_imm(&mut a, 18, (d0 + 2) * 32, VBLK_STATUS + i as u64 * 8);
        emit_store_imm(&mut a, 18, (d0 + 2) * 32 + 8, 8);
        emit_store_imm(&mut a, 18, (d0 + 2) * 32 + 16, DESC_F_WRITE);
        emit_store_imm(&mut a, 18, (d0 + 2) * 32 + 24, 0);
        // Request header content and the avail-ring entry for this chain.
        let req = if is_write { REQ_WRITE } else { REQ_READ };
        emit_store_imm(&mut a, 7, i as u64 * 16, req);
        emit_store_imm(&mut a, 7, i as u64 * 16 + 8, sector);
        emit_store_imm(&mut a, 28, 8 + i as u64 * 8, d0);
    }

    let ops_start = a.here();
    for op in &ops {
        emit_op(&mut a, op, ops_start);
    }

    // Forced final request: patch the prebuilt data descriptor to aim the
    // identity read of sector 0 at the wait loop itself, submit it, then
    // spin until the device has retired every request.  The spin is a hot
    // looping region by the time the completion's DMA lands on its page —
    // the device-originated external-SMC case every engine must survive.
    a.adr_to(8, "chaos_vwait");
    a.push(asm::str(8, 18, (n_subs as u32 * 3 + 1) * 32));
    a.push(asm::addi(27, 27, 1));
    a.push(asm::str(27, 28, 0));
    a.push(asm::msr(SysReg::VblkNotify as u32, 27));
    let wait_word = a.here();
    a.label("chaos_vwait");
    a.push(asm::ldr(7, 22, 0));
    a.push(asm::cmpi(7, (n_subs + 1) as u32));
    a.bcond_to(Cond::Ne, "chaos_vwait");

    // Countdown tail: keeps the guest alive (and polling for events at the
    // loop back-edge) until the whole interrupt schedule has drained.
    a.mov_imm64(5, TAIL_ITERS);
    a.label("chaos_tail");
    a.push(asm::subi(5, 5, 1));
    a.cbnz_to(5, "chaos_tail");
    a.push(asm::hlt());

    // Generic vector: accumulate ESR (commutative), dispatch on class, skip
    // the faulting instruction for synchronous exceptions, and zero the
    // scratch registers so the final register file carries no trace of
    // *which* exception happened to be delivered last.
    a.label("chaos_vec");
    a.push(asm::mrs(15, SysReg::Esr as u32));
    a.push(asm::add(23, 23, 15));
    a.push(asm::lsri(16, 15, 26));
    a.push(asm::cmpi(16, guest_aarch64::esr_class::IRQ as u32));
    a.bcond_to(Cond::Eq, "chaos_irq");
    a.push(asm::addi(21, 21, 1));
    a.push(asm::mrs(17, SysReg::Elr as u32));
    a.push(asm::addi(17, 17, 4));
    a.push(asm::msr(SysReg::Elr as u32, 17));
    a.b_to("chaos_out");
    a.label("chaos_irq");
    a.push(asm::addi(20, 20, 1));
    a.label("chaos_out");
    a.push(asm::movz(15, 0, 0));
    a.push(asm::movz(16, 0, 0));
    a.push(asm::movz(17, 0, 0));
    a.push(asm::eret());

    // Pad the program so a full sector of code exists from the wait loop
    // onward, then freeze that window as disk sector 0: the forced final
    // read DMAs these exact bytes back over themselves.
    while a.here() < wait_word + SECTOR_SIZE as usize / 4 {
        a.push(asm::nop());
    }

    // Each spurious interrupt gets a *distinct* line: the latch is a
    // pending bitmask, so two raises of one line could collapse into a
    // single delivery — or not — depending on where each engine's cycle
    // counter sits, which would make the delivery count engine-dependent.
    let n_irqs = 2 + rng.below(3); // 2..=4 spurious interrupts
    let schedule: Vec<(u64, u32)> = (0..n_irqs)
        .map(|i| {
            let cycle = SCHEDULE_MIN_CYCLE + rng.below(SCHEDULE_MAX_CYCLE - SCHEDULE_MIN_CYCLE);
            (cycle, 1 + i as u32)
        })
        .collect();

    let words = a.finish();
    let sector0: Vec<u8> = words[wait_word..wait_word + SECTOR_SIZE as usize / 4]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let virtio = VirtioBlkConfig {
        mmio_base: VBLK_MMIO_BASE,
        completion_latency: 3_000,
        disk_image: Some(sector0),
        fault_seed: Some(seed ^ 0xFA17_5EED),
        // The forced final identity read must land verbatim; everything
        // before it is fair game for the fault plan.
        exempt_after: n_subs as u64,
        ..VirtioBlkConfig::default()
    };

    ChaosPlan {
        seed,
        guest: Guest {
            name: format!("chaos seed {seed:#x}"),
            code: vec![(CODE_BASE, words)],
            words: preload,
            entry: CODE_BASE,
            virtio: Some(virtio),
            irqs: schedule,
            digests: vec![CODE_WINDOW, DATA_WINDOW],
            resume: None,
        },
        patches,
        sync_ops,
        remaps,
        virtio_submits: n_subs as u64 + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_decode_where_defined() {
        let a = chaos_plan(0xC0FFEE).guest;
        let b = chaos_plan(0xC0FFEE).guest;
        assert_eq!(a.code, b.code);
        assert_eq!(a.irqs, b.irqs);
        let c = chaos_plan(0xC0FFEF).guest;
        assert_ne!(
            a.code, c.code,
            "different seeds should derive different programs"
        );
    }

    #[test]
    fn plans_contain_hostile_ops_and_a_terminating_hlt() {
        // Across a handful of seeds every op class should appear.
        let mut saw_patch = false;
        let mut saw_sync = false;
        let mut saw_vblk_op = false;
        for seed in 0..8u64 {
            let p = chaos_plan(seed);
            let (words, virtio) = (&p.guest.code[0].1, p.guest.virtio.as_ref().unwrap());
            assert!(p.remaps > 0, "seed {seed}: every plan remaps");
            saw_patch |= p.patches > 0;
            saw_sync |= p.sync_ops > 0;
            saw_vblk_op |= p.virtio_submits > 1;
            assert!(words.contains(&asm::hlt()), "seed {seed}");
            assert!(
                (1..=MAX_CHAOS_SUBMITS as u64 + 1).contains(&p.virtio_submits),
                "seed {seed}: always the forced final, never past the cap"
            );
            assert_eq!(
                virtio.exempt_after,
                p.virtio_submits - 1,
                "seed {seed}: only the forced final identity read is exempt"
            );
            assert_eq!(
                virtio.disk_image.as_ref().map(Vec::len),
                Some(SECTOR_SIZE as usize),
                "seed {seed}: identity image is exactly one sector"
            );
            assert!(
                p.guest.irqs.len() >= 2,
                "seed {seed} schedules spurious IRQs"
            );
            for &(cycle, line) in &p.guest.irqs {
                assert!((SCHEDULE_MIN_CYCLE..SCHEDULE_MAX_CYCLE).contains(&cycle));
                assert!((1..16).contains(&line));
            }
            let mut lines: Vec<u32> = p.guest.irqs.iter().map(|&(_, l)| l).collect();
            lines.sort_unstable();
            lines.dedup();
            assert_eq!(
                lines.len(),
                p.guest.irqs.len(),
                "seed {seed}: scheduled lines must be distinct"
            );
        }
        assert!(saw_patch && saw_sync && saw_vblk_op);
    }

    #[test]
    fn identity_sector_matches_the_wait_loop_bytes() {
        for seed in 0..4u64 {
            let p = chaos_plan(seed).guest;
            let img = p.virtio.as_ref().unwrap().disk_image.as_ref().unwrap();
            let code: Vec<u8> = p.code[0].1.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert!(
                code.windows(img.len()).any(|w| w == &img[..]),
                "seed {seed}: sector 0 must be a verbatim slice of the program"
            );
        }
    }

    #[test]
    fn patches_only_aim_at_future_placeholder_slots() {
        for seed in 0..16u64 {
            let plan = chaos_plan(seed);
            let words = &plan.guest.code[0].1;
            // Recover patch targets from the emitted words: each patch op
            // stores to an address it built with `movz x10, #va`.
            for w in words {
                if (w >> 25) == 0x02 && (w & 0x1F) == 10 && ((w >> 21) & 3) == 0 {
                    let va = (w >> 5) & 0xFFFF;
                    if va as u64 >= CODE_BASE {
                        let idx = (va as u64 - CODE_BASE) / 4;
                        let target = words[idx as usize];
                        assert_eq!(
                            target >> 25,
                            0x02,
                            "seed {seed}: patch target {va:#x} is not a movz placeholder"
                        );
                        assert_eq!(target & 0x1F, 19, "placeholders load x19");
                    }
                }
            }
        }
    }
}
