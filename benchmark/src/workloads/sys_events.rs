//! `sys_events`: the system-level surface, seven short programs.
//!
//! Each program hammers one event class and is count-driven (never
//! cycle-driven), so both engines end in the same state:
//!
//! 1. `sys.svc` — SVC storm: exception entry + `eret` per trip.
//! 2. `sys.undef` — UNDEF storm: undefined word, handler skips it.
//! 3. `sys.tlbi` — rewrite a leaf page-table entry, `tlbi`, read through
//!    the remapped address (guest MMU on).
//! 4. `sys.paging` — demand-paging sweep: a new page per trip, `tlbi`
//!    between sweeps so every sweep faults again (guest MMU on).
//! 5. `sys.timer` — a one-shot timer armed at fixed trip indices of a hot
//!    loop; the IRQ preempts the looping region.
//! 6. `sys.smc` — patch an instruction, call it, patch it back.
//! 7. `sys.vblk` — block-device reads, writes and scatter reads in rounds,
//!    under a seeded fault plan.
//!
//! Expected results are closed forms (1–6) or come from a small host model
//! of the device's retirement rules (7); `Events` carries the
//! by-construction counts the traced run compares with the engine's.

use super::{emit_mmu_on, emit_set_vbar};
use crate::program::{
    fnv1a, Check, Events, PageTables, Program, Segment, CODE_BASE, DATA_BASE, PT_POOL, VECTOR_BASE,
};
use crate::rng::Rng;
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::SysReg;
use hvm::virtio::{
    mmio, DESC_F_NEXT, DESC_F_WRITE, REQ_READ, REQ_WRITE, SECTOR_SIZE, STATUS_IOERR, STATUS_OK,
    STATUS_UNSUPP,
};
use hvm::{FaultKind, FaultPlan, VirtioBlkConfig};

const SVC_TRIPS: u64 = 320_000;
const UNDEF_TRIPS: u64 = 220_000;
const TLBI_TRIPS: u64 = 56_000;
const PAGING_PAGES: u64 = 1024;
const PAGING_SWEEPS: u64 = 320;
const TIMER_TRIPS: u64 = 1_800_000;
/// Loop trips between two timer arms.
const TIMER_GAP: u64 = 200;
/// Cycles from arm to expiry: far fewer than `TIMER_GAP` trips take on
/// either engine, so an IRQ is never overwritten by the next arm.
const TIMER_DELTA: u64 = 150;
const SMC_TRIPS: u64 = 18_000;
const VBLK_REQUESTS: usize = 490;

pub fn generate(seed: u64) -> Vec<Program> {
    let rng = Rng::new(seed);
    vec![
        svc_storm(&mut rng.fork("sys.svc")),
        undef_storm(&mut rng.fork("sys.undef")),
        tlbi_remap(&mut rng.fork("sys.tlbi")),
        demand_paging(&mut rng.fork("sys.paging")),
        timer_irqs(&mut rng.fork("sys.timer")),
        smc_patch(&mut rng.fork("sys.smc")),
        vblk(&mut rng.fork("sys.vblk")),
    ]
}

fn program(name: &'static str, segments: Vec<Segment>, work_insns: u64) -> Program {
    Program {
        name,
        segments,
        entry: CODE_BASE,
        work_insns,
        checks: Vec::new(),
        window: (DATA_BASE, 0x1000),
        virtio: None,
        events: Events::default(),
        data_addrs: Vec::new(),
    }
}

fn reg(index: u32, expect: u64) -> Check {
    Check::Reg { index, expect }
}

/// 1 — SVC storm.  x19 += k and `svc` per trip; the vector counts in x20.
fn svc_storm(rng: &mut Rng) -> Program {
    let k = rng.range(1, 4095);
    let mut a = Assembler::new();
    emit_set_vbar(&mut a, VECTOR_BASE);
    a.mov_imm64(3, SVC_TRIPS);
    a.push(asm::movz(19, 0, 0));
    a.push(asm::movz(20, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::addi(19, 19, k as u32));
    a.push(asm::svc(rng.range(1, 0xFEF) as u32));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());
    let vector = vec![asm::addi(20, 20, 1), asm::eret()];

    let mut p = program(
        "sys.svc",
        vec![
            Segment::code(CODE_BASE, a.finish()),
            Segment::code(VECTOR_BASE, vector),
        ],
        pre + SVC_TRIPS * (4 + 2) + 1,
    );
    p.checks = vec![reg(19, k.wrapping_mul(SVC_TRIPS)), reg(20, SVC_TRIPS)];
    p.events.sync_exceptions = SVC_TRIPS;
    p
}

/// 2 — UNDEF storm.  An undefined word per trip; the vector advances ELR
/// past it.  The undefined word itself never retires.
fn undef_storm(rng: &mut Rng) -> Program {
    let k = rng.range(1, 4095);
    // Opcodes 0x4A..=0x7F are undefined; the low bits are free.
    let undef = (rng.range(0x4A, 0x7F) as u32) << 25 | (rng.next_u64() as u32 & 0x01FF_FFFF);
    let mut a = Assembler::new();
    emit_set_vbar(&mut a, VECTOR_BASE);
    a.mov_imm64(3, UNDEF_TRIPS);
    a.push(asm::movz(19, 0, 0));
    a.push(asm::movz(20, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::addi(19, 19, k as u32));
    a.push(undef);
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());
    let vector = vec![
        asm::mrs(10, SysReg::Elr as u32),
        asm::addi(10, 10, 4),
        asm::msr(SysReg::Elr as u32, 10),
        asm::addi(20, 20, 1),
        asm::eret(),
    ];

    let mut p = program(
        "sys.undef",
        vec![
            Segment::code(CODE_BASE, a.finish()),
            Segment::code(VECTOR_BASE, vector),
        ],
        pre + UNDEF_TRIPS * (3 + 5) + 1,
    );
    p.checks = vec![reg(19, k.wrapping_mul(UNDEF_TRIPS)), reg(20, UNDEF_TRIPS)];
    p.events.sync_exceptions = UNDEF_TRIPS;
    p
}

/// Pages of the table pool that MMU-on programs map so they can rewrite
/// their own tables.
const PT_MAPPED: u64 = 16 * 0x1000;

/// 3 — TLBI + remap.  One virtual page alternates between two physical
/// pages holding different values; each remap is a table write + `tlbi`.
fn tlbi_remap(rng: &mut Rng) -> Program {
    let (va, pa_a, pa_b) = (0x0200_0000u64, DATA_BASE + 0x1000, DATA_BASE + 0x2000);
    let (val_a, val_b) = (rng.next_u64() >> 16, rng.next_u64() >> 16);
    let mut pt = PageTables::new();
    pt.identity(PT_POOL, PT_MAPPED);
    pt.identity(CODE_BASE, 0x1000);
    pt.map(va, pa_a);
    let pte = pt.leaf_entry_addr(va);
    assert!(pte < PT_POOL + PT_MAPPED);
    let rw = 0b011;

    let mut a = Assembler::new();
    emit_mmu_on(&mut a, pt.root());
    a.mov_imm64(12, pte);
    a.mov_imm64(13, va);
    a.mov_imm64(11, pa_a | rw);
    a.mov_imm64(14, pa_b | rw);
    a.mov_imm64(3, TLBI_TRIPS);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    for entry in [11, 14] {
        a.push(asm::str(entry, 12, 0));
        a.push(asm::tlbi());
        a.push(asm::ldr(4, 13, 0));
        a.push(asm::add(19, 19, 4));
    }
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());

    let mut segments = vec![
        Segment::code(CODE_BASE, a.finish()),
        Segment::data_u64(pa_a, &[val_a]),
        Segment::data_u64(pa_b, &[val_b]),
    ];
    segments.extend(pt.segments());
    let mut p = program("sys.tlbi", segments, pre + TLBI_TRIPS * 10 + 1);
    p.checks = vec![reg(19, val_a.wrapping_add(val_b).wrapping_mul(TLBI_TRIPS))];
    p.events.ctx_gen_bumps = 2 + 2 * TLBI_TRIPS;
    p.data_addrs = vec![pa_a, pa_b, pte];
    p
}

/// 4 — demand paging.  Each sweep touches `PAGING_PAGES` pages once
/// (read-modify-write), then `tlbi` drops every mapping, so each sweep
/// takes one host fault per page.
fn demand_paging(rng: &mut Rng) -> Program {
    let inc = rng.next_u64() >> 20;
    let mut pt = PageTables::new();
    pt.identity(CODE_BASE, 0x1000);
    pt.identity(DATA_BASE, PAGING_PAGES * 0x1000);

    let mut a = Assembler::new();
    emit_mmu_on(&mut a, pt.root());
    a.mov_imm64(5, inc);
    a.mov_imm64(6, 0x1000);
    a.mov_imm64(7, PAGING_SWEEPS);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("sweep");
    let sweep_at = a.here();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, PAGING_PAGES);
    let sweep_pre = (a.here() - sweep_at) as u64;
    a.label("page");
    a.push(asm::ldr(4, 1, 0));
    a.push(asm::add(4, 4, 5));
    a.push(asm::str(4, 1, 0));
    a.push(asm::add(19, 19, 4));
    a.push(asm::add(1, 1, 6));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "page");
    a.push(asm::tlbi());
    a.push(asm::subi(7, 7, 1));
    a.cbnz_to(7, "sweep");
    a.push(asm::hlt());

    // After sweep s every page holds s*inc; x19 accumulates each value.
    let mut sum = 0u64;
    for s in 1..=PAGING_SWEEPS {
        sum = sum.wrapping_add(inc.wrapping_mul(s).wrapping_mul(PAGING_PAGES));
    }
    let mut segments = vec![Segment::code(CODE_BASE, a.finish())];
    segments.extend(pt.segments());
    let mut p = program(
        "sys.paging",
        segments,
        pre + PAGING_SWEEPS * (sweep_pre + 7 * PAGING_PAGES + 3) + 1,
    );
    p.checks = vec![reg(19, sum)];
    p.events.ctx_gen_bumps = 2 + PAGING_SWEEPS;
    p.events.page_faults = PAGING_SWEEPS * PAGING_PAGES;
    p.data_addrs = (0..PAGING_PAGES).map(|i| DATA_BASE + i * 0x1000).collect();
    p
}

/// 5 — one-shot timer IRQs.  A hot counting loop re-arms the timer every
/// `TIMER_GAP` trips; the vector counts deliveries in x20.  After the loop
/// the program waits (uncounted spins) for the last delivery.
fn timer_irqs(rng: &mut Rng) -> Program {
    assert_eq!(TIMER_TRIPS % TIMER_GAP, 0);
    let arms = TIMER_TRIPS / TIMER_GAP;
    let k = rng.range(1, 4095);
    let mut a = Assembler::new();
    emit_set_vbar(&mut a, VECTOR_BASE);
    a.mov_imm64(3, TIMER_TRIPS);
    a.mov_imm64(6, TIMER_GAP);
    a.mov_imm64(7, TIMER_DELTA);
    a.mov_imm64(21, arms);
    a.push(asm::movz(19, 0, 0));
    a.push(asm::movz(20, 0, 0));
    a.push(asm::movz(5, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::addi(19, 19, k as u32));
    a.push(asm::eor(5, 5, 19));
    a.push(asm::subi(6, 6, 1));
    a.cbnz_to(6, "skip");
    let arm_at = a.here();
    a.mov_imm64(6, TIMER_GAP);
    a.push(asm::msr(SysReg::CntTval as u32, 7));
    let arm_len = (a.here() - arm_at) as u64;
    a.label("skip");
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.label("wait");
    a.push(asm::cmp(20, 21));
    a.bcond_to(Cond::Ne, "wait");
    a.push(asm::hlt());
    let vector = vec![asm::addi(20, 20, 1), asm::eret()];

    let mut x5 = 0u64;
    for i in 1..=TIMER_TRIPS {
        x5 ^= k.wrapping_mul(i);
    }
    // The final, successful pass of the wait loop counts; its spins do not.
    let mut p = program(
        "sys.timer",
        vec![
            Segment::code(CODE_BASE, a.finish()),
            Segment::code(VECTOR_BASE, vector),
        ],
        pre + TIMER_TRIPS * 6 + arms * (arm_len + 2) + 2 + 1,
    );
    p.checks = vec![
        reg(19, k.wrapping_mul(TIMER_TRIPS)),
        reg(20, arms),
        reg(5, x5),
    ];
    p.events.exceptions = arms;
    p.events.irqs = arms;
    p
}

/// 6 — self-modifying code.  Each trip stores one of two `addi x19`
/// encodings over a one-instruction function on its own page and calls it,
/// twice.  Every store after the first lands on translated code.
///
/// The `tlbi` after each store is the guest's instruction-cache
/// maintenance: like real hardware without a coherent I-cache, `QemuRef`
/// only drops stale translations on a translation-state change, and a
/// guest that patches code without one keeps running the old instruction
/// there.  Captive detects the store by write protection either way.
fn smc_patch(rng: &mut Rng) -> Program {
    const SITE: u64 = 0x3000;
    let (ka, kb) = (rng.range(1, 4095), rng.range(1, 4095));
    let mut a = Assembler::new();
    a.mov_imm64(12, SITE);
    a.mov_imm64(11, asm::addi(19, 19, ka as u32) as u64);
    a.mov_imm64(14, asm::addi(19, 19, kb as u32) as u64);
    a.mov_imm64(3, SMC_TRIPS);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    for word in [11, 14] {
        a.push(asm::strw(word, 12, 0));
        a.push(asm::tlbi());
        let from = CODE_BASE + a.here() as u64 * 4;
        a.push(asm::bl(SITE as i64 - from as i64));
    }
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());

    let mut p = program(
        "sys.smc",
        vec![
            Segment::code(CODE_BASE, a.finish()),
            Segment::code(SITE, vec![asm::addi(19, 19, 0), asm::ret()]),
        ],
        pre + SMC_TRIPS * (2 * (3 + 2) + 2) + 1,
    );
    p.checks = vec![reg(19, (ka + kb).wrapping_mul(SMC_TRIPS))];
    p.events.smc_invalidations = 2 * SMC_TRIPS - 1;
    p.events.ctx_gen_bumps = 2 * SMC_TRIPS;
    p
}

// ---------------------------------------------------------------------------
// 7 — block device.
// ---------------------------------------------------------------------------

/// Guest-physical layout of the block-device program (all inside the data
/// region; `V` is the register window).
mod vb {
    use super::DATA_BASE;
    pub const MMIO: u64 = DATA_BASE;
    pub const AVAIL: u64 = DATA_BASE + 0x2000;
    pub const USED: u64 = DATA_BASE + 0x3000;
    pub const STATUS: u64 = DATA_BASE + 0x4000;
    pub const HDR: u64 = DATA_BASE + 0x5000;
    pub const RDBUF: u64 = DATA_BASE + 0x8000;
    pub const RDBUF_LEN: u64 = 0x1_8000;
    pub const WRBUF: u64 = DATA_BASE + 0x3_0000;
    pub const DESC: u64 = DATA_BASE + 0x8_0000;
    pub const QUEUE: u64 = 64;
    pub const DISK_SECTORS: u64 = 64;
    pub const LATENCY: u64 = 3_000;
}

/// One generated request.
struct Request {
    is_write: bool,
    sector: u64,
    /// Data segments `(gpa, len)`.
    segs: Vec<(u64, u64)>,
    /// Head descriptor index inside its round's table.
    head: u64,
    fault: FaultKind,
    /// What a write sends (empty for reads).
    payload: Vec<u8>,
}

/// 7 — block device under a seeded fault plan.  Requests go out in rounds
/// (one kick per round, then a wait on `used.idx`); each round has its own
/// pre-built descriptor table.  A round never ends on a `Reordered`
/// request, which could only retire after a later submission.
fn vblk(rng: &mut Rng) -> Program {
    let fault_seed = rng.next_u64();
    let plan = FaultPlan::seeded(fault_seed, u64::MAX);
    let disk: Vec<u8> = (0..vb::DISK_SECTORS * SECTOR_SIZE)
        .map(|_| rng.next_u64() as u8)
        .collect();

    // Draw requests and group them into rounds.
    let mut requests: Vec<Request> = Vec::new();
    let mut rounds: Vec<(usize, usize)> = Vec::new(); // [start, end) request indices
    let mut segments = Vec::new();
    let mut hdr_words = Vec::new();
    let (mut rd_off, mut wr_off) = (0u64, 0u64);
    while requests.len() < VBLK_REQUESTS || requests.last().unwrap().fault == FaultKind::Reordered {
        let round_start = requests.len();
        let mut table = vec![0u64; (vb::QUEUE * 4) as usize];
        let mut next_desc = 0u64;
        loop {
            let seq = requests.len() as u64;
            let kind = rng.below(4); // 0,1 read · 2 write · 3 scatter read
            let is_write = kind == 2;
            let sectors = rng.range(1, 2);
            let sector = rng.below(vb::DISK_SECTORS - sectors + 1);
            let total = sectors * SECTOR_SIZE;
            let mut payload = Vec::new();
            let segs: Vec<(u64, u64)> = if is_write {
                let gpa = vb::WRBUF + wr_off;
                wr_off += total;
                payload = (0..total).map(|_| rng.next_u64() as u8).collect();
                segments.push(Segment::data_bytes(gpa, &payload));
                vec![(gpa, total)]
            } else {
                // Read buffers come from a ring, so late requests overwrite
                // early ones; the host model applies them in order.
                let parts = if kind == 3 { 4 } else { 1 };
                let len = total / parts;
                (0..parts)
                    .map(|_| {
                        if rd_off + len > vb::RDBUF_LEN {
                            rd_off = 0;
                        }
                        let gpa = vb::RDBUF + rd_off;
                        rd_off += len + 64 * rng.below(3);
                        (gpa, len)
                    })
                    .collect()
            };
            let hdr = vb::HDR + seq * 16;
            hdr_words.extend([if is_write { REQ_WRITE } else { REQ_READ }, sector]);
            // Chain: header → data segments → status.
            let head = next_desc;
            let mut put = |addr: u64, len: u64, flags: u64, last: bool| {
                let i = (next_desc * 4) as usize;
                table[i] = addr;
                table[i + 1] = len;
                table[i + 2] = flags | if last { 0 } else { DESC_F_NEXT };
                table[i + 3] = if last { 0 } else { next_desc + 1 };
                next_desc += 1;
            };
            put(hdr, 16, 0, false);
            for &(gpa, len) in &segs {
                put(gpa, len, if is_write { 0 } else { DESC_F_WRITE }, false);
            }
            put(vb::STATUS + seq * 8, 8, DESC_F_WRITE, true);
            let fault = plan.decide(seq, is_write);
            requests.push(Request {
                is_write,
                sector,
                segs,
                head,
                fault,
                payload,
            });
            let full = requests.len() - round_start >= 10 || next_desc > 40;
            if full && fault != FaultKind::Reordered {
                break;
            }
            assert!(next_desc + 6 <= vb::QUEUE, "descriptor table overflow");
        }
        segments.push(Segment::data_u64(
            vb::DESC + rounds.len() as u64 * 0x1000,
            &table,
        ));
        rounds.push((round_start, requests.len()));
    }
    let total = requests.len() as u64;
    assert!(total < 4096 && (total * 16) <= 0x3000 && total * 8 <= 0x1000);
    segments.push(Segment::data_u64(vb::HDR, &hdr_words));

    // Guest code.
    let mut a = Assembler::new();
    a.mov_imm64(1, vb::MMIO);
    a.mov_imm64(3, vb::AVAIL);
    a.mov_imm64(4, vb::USED);
    a.push(asm::str(3, 1, mmio::QUEUE_AVAIL as u32));
    a.push(asm::str(4, 1, mmio::QUEUE_USED as u32));
    a.push(asm::movz(17, 0, 0));
    a.push(asm::str(17, 1, mmio::IRQ_ENABLE as u32));
    for (r, &(start, end)) in rounds.iter().enumerate() {
        a.mov_imm64(17, vb::DESC + r as u64 * 0x1000);
        a.push(asm::str(17, 1, mmio::QUEUE_DESC as u32));
        for (seq, req) in requests.iter().enumerate().take(end).skip(start) {
            a.mov_imm64(17, req.head);
            a.push(asm::str(17, 3, (8 + (seq as u64 % vb::QUEUE) * 8) as u32));
        }
        a.mov_imm64(17, end as u64);
        a.push(asm::str(17, 3, 0));
        a.push(asm::msr(SysReg::VblkNotify as u32, 17));
        let wait = format!("wait{r}");
        a.label(&wait);
        a.push(asm::ldr(7, 4, 0));
        a.push(asm::cmpi(7, end as u32));
        a.bcond_to(Cond::Ne, &wait);
    }
    a.push(asm::hlt());
    // Straight-line code: every instruction retires once (the final pass of
    // each wait loop); wait-loop spins are not counted.
    let code = a.finish();
    let work = code.len() as u64;
    segments.insert(0, Segment::code(CODE_BASE, code));

    // Host model of the device: retirement order, then effects in order.
    let mut order: Vec<usize> = Vec::with_capacity(requests.len());
    for seq in 0..requests.len() {
        let prev_reordered = seq > 0 && requests[seq - 1].fault == FaultKind::Reordered;
        match prev_reordered.then(|| order.iter().position(|&s| s == seq - 1)) {
            Some(Some(at)) => order.insert(at, seq),
            _ => order.push(seq),
        }
    }
    let mut disk_model = disk.clone();
    let mut used = vec![0u8; 0x1000];
    let mut status = vec![0u8; 0x1000];
    let mut rdbuf = vec![0u8; vb::RDBUF_LEN as usize];
    let (mut dma_bytes, mut faults) = (0u64, 0u64);
    for (n, &seq) in order.iter().enumerate() {
        let req = &requests[seq];
        let total: u64 = req.segs.iter().map(|s| s.1).sum();
        let disk_off = (req.sector * SECTOR_SIZE) as usize;
        faults += (req.fault != FaultKind::None) as u64;
        let (mut st, mut used_len) = (STATUS_OK, 0u64);
        if req.fault == FaultKind::CorruptChain {
            st = STATUS_UNSUPP;
        } else if req.is_write {
            let apply = match req.fault {
                FaultKind::WriteError => {
                    st = STATUS_IOERR;
                    0
                }
                FaultKind::TornWrite => {
                    st = STATUS_IOERR;
                    total.min(SECTOR_SIZE)
                }
                _ => total,
            } as usize;
            disk_model[disk_off..disk_off + apply].copy_from_slice(&req.payload[..apply]);
        } else {
            let transfer = if req.fault == FaultKind::ShortRead {
                total / 2
            } else {
                total
            };
            used_len = transfer;
            let (mut off, mut left) = (disk_off, transfer as usize);
            for &(gpa, len) in &req.segs {
                let take = (len as usize).min(left);
                if take == 0 {
                    break;
                }
                let at = (gpa - vb::RDBUF) as usize;
                rdbuf[at..at + take].copy_from_slice(&disk_model[off..off + take]);
                dma_bytes += take as u64;
                off += take;
                left -= take;
            }
        }
        status[seq * 8..seq * 8 + 8].copy_from_slice(&st.to_le_bytes());
        let slot = (n as u64 % vb::QUEUE) as usize;
        used[8 + slot * 16..16 + slot * 16].copy_from_slice(&req.head.to_le_bytes());
        used[16 + slot * 16..24 + slot * 16].copy_from_slice(&used_len.to_le_bytes());
        used[..8].copy_from_slice(&(n as u64 + 1).to_le_bytes());
        dma_bytes += 8 + 24;
    }

    let mut p = program("sys.vblk", segments, work);
    p.checks = vec![
        Check::Mem {
            start: vb::USED,
            len: 0x1000,
            expect: fnv1a(used),
        },
        Check::Mem {
            start: vb::STATUS,
            len: 0x1000,
            expect: fnv1a(status),
        },
        Check::Mem {
            start: vb::RDBUF,
            len: vb::RDBUF_LEN,
            expect: fnv1a(rdbuf),
        },
        Check::Disk {
            expect: fnv1a(disk_model),
        },
    ];
    p.window = (vb::AVAIL, 0x3000);
    p.virtio = Some(VirtioBlkConfig {
        mmio_base: vb::MMIO,
        queue_size: vb::QUEUE,
        completion_latency: vb::LATENCY,
        disk_sectors: vb::DISK_SECTORS,
        disk_image: Some(disk),
        fault_seed: Some(fault_seed),
        ..VirtioBlkConfig::default()
    });
    p.events.virtio_completions = total;
    p.events.virtio_dma_bytes = dma_bytes;
    p.events.virtio_fault_injections = faults;
    p.data_addrs = (0..64).map(|i| vb::RDBUF + i * 512).collect();
    p
}
