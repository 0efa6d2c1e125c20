//! `cold_code`: a large image of thousands of small functions, most of
//! whose blocks run exactly once — boot/startup-shaped code, where the JIT
//! pipeline does the work.
//!
//! **Shape.**  A straight-line `main` calls every function once (a few
//! twice or three times).  A function is 1–4 basic blocks of 2–64
//! instructions; most run once, some are loops of 2–8 trips, a few of
//! 16–200 trips (hot enough for region formation and tier-1 installs).  A
//! quarter of all functions are byte-identical copies of another function
//! at a different address.
//!
//! **Why the work is the same for every seed.**  Block lengths, trip
//! counts, copy marks and extra-call marks come from a fixed *plan* (drawn
//! once from [`PLAN_SEED`]); the `--seed` deals the plan's functions to
//! layout positions and call order and draws every instruction and
//! constant.  So `work_insns` is identical across seeds while the images
//! differ everywhere.
//!
//! **Oracle.**  Every block adds its own 12-bit constant to x19 once per
//! trip; the expected final x19 is the closed-form sum over calls, blocks
//! and trips.  Filler instructions never write x19, x9 (loop counter),
//! x20 (scratch base), x28 (always zero) or x30.

use crate::program::{Check, Events, Program, Segment, CODE_BASE, DATA_BASE};
use crate::rng::Rng;
use guest_aarch64::asm;
use guest_aarch64::isa::Cond;

/// Seed of the fixed shape plan (not the `--seed`).
const PLAN_SEED: u64 = 0xC01D_C0DE;
/// Distinct functions in the plan; a third of them get a copy, so copies
/// are a quarter of all functions.
const UNIQUE_FUNCS: usize = 3_000;

/// Shape of one block: total length in instructions and trip count.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    len: usize,
    trips: u64,
}

#[derive(Debug, Clone)]
struct FuncPlan {
    blocks: Vec<BlockPlan>,
    copy: bool,
    calls: u64,
}

fn plan() -> Vec<FuncPlan> {
    let mut r = Rng::new(PLAN_SEED);
    (0..UNIQUE_FUNCS)
        .map(|i| {
            let nblocks = r.range(1, 4) as usize;
            let mut blocks: Vec<BlockPlan> = (0..nblocks)
                .map(|_| {
                    let len = match r.below(10) {
                        0..=4 => r.range(2, 12),
                        5..=7 => r.range(13, 32),
                        _ => r.range(33, 64),
                    } as usize;
                    let trips = match r.below(1000) {
                        0..=879 => 1,
                        880..=989 => r.range(2, 8),
                        990..=997 => r.range(16, 40),
                        _ => r.range(64, 200),
                    };
                    BlockPlan { len, trips }
                })
                .collect();
            // The last block returns, so it cannot be a loop; a loop needs
            // room for its counter set-up, checksum, decrement and branch.
            blocks.last_mut().expect("nblocks >= 1").trips = 1;
            for b in &mut blocks {
                if b.trips > 1 {
                    b.len = b.len.max(4);
                }
            }
            FuncPlan {
                blocks,
                copy: i % 3 == 0,
                calls: match r.below(20) {
                    0 => 3,
                    1 | 2 => 2,
                    _ => 1,
                },
            }
        })
        .collect()
}

/// A scratch register filler may read and write (x10–x17).
fn reg(r: &mut Rng) -> u32 {
    r.range(10, 17) as u32
}

fn cond(r: &mut Rng) -> Cond {
    Cond::from_bits(r.below(14) as u32)
}

/// Appends exactly `n` filler instructions: a seeded mix of ALU, shift,
/// move, flag-setting, select, load/store (to the scratch page at x20),
/// divide and FP operations.
fn filler(r: &mut Rng, n: usize, out: &mut Vec<u32>) {
    let end = out.len() + n;
    while out.len() < end {
        let left = end - out.len();
        let (d, s, t) = (reg(r), reg(r), reg(r));
        let off8 = (r.below(256) * 8) as u32;
        match r.below(40) {
            0..=7 => out.push(match r.below(6) {
                0 => asm::add(d, s, t),
                1 => asm::sub(d, s, t),
                2 => asm::and(d, s, t),
                3 => asm::orr(d, s, t),
                4 => asm::eor(d, s, t),
                _ => asm::mul(d, s, t),
            }),
            8..=11 => out.push(if r.below(2) == 0 {
                asm::addi(d, s, r.below(4096) as u32)
            } else {
                asm::subi(d, s, r.below(4096) as u32)
            }),
            12..=14 => out.push(match r.below(3) {
                0 => asm::lsli(d, s, r.below(64) as u32),
                1 => asm::lsri(d, s, r.below(64) as u32),
                _ => asm::asri(d, s, r.below(64) as u32),
            }),
            15..=17 => out.push(if r.below(2) == 0 {
                asm::movz(d, r.below(65536) as u32, r.below(4) as u32)
            } else {
                asm::movk(d, r.below(65536) as u32, r.below(4) as u32)
            }),
            18..=20 => out.push(match r.below(4) {
                0 => asm::adds(d, s, t),
                1 => asm::subs(d, s, t),
                2 => asm::ands(d, s, t),
                _ => asm::cmpi(s, r.below(4096) as u32),
            }),
            21..=22 => out.push(asm::csel(d, s, t, cond(r))),
            23..=27 => out.push(match r.below(6) {
                0 | 1 => asm::ldr(d, 20, off8),
                2 => asm::ldrw(d, 20, off8 + 4),
                3 => asm::ldrb(d, 20, off8 + r.below(8) as u32),
                4 => asm::ldrh(d, 20, off8 + 2),
                _ => asm::ldrsw(d, 20, off8),
            }),
            28..=31 => out.push(match r.below(4) {
                0 | 1 => asm::str(s, 20, off8),
                2 => asm::strw(s, 20, off8 + 4),
                _ => asm::strb(s, 20, off8 + r.below(8) as u32),
            }),
            32 => out.push(if r.below(2) == 0 {
                asm::ldp(d, (d - 10 + 1) % 8 + 10, 20, (r.below(60) * 8) as i32)
            } else {
                asm::stp(s, t, 20, (r.below(60) * 8) as i32)
            }),
            33 => out.push(if r.below(2) == 0 {
                asm::lslv(d, s, t)
            } else {
                asm::lsrv(d, s, t)
            }),
            34 => out.push(match r.below(3) {
                0 => asm::udiv(d, s, t),
                1 => asm::sdiv(d, s, t),
                _ => asm::umulh(d, s, t),
            }),
            35 => out.push(asm::adr(d, (r.below(64) * 4) as i64)),
            36 => out.push(asm::ldr_reg(d, 20, 28)),
            _ if left >= 4 => {
                // A self-contained FP group: operands are set from
                // immediates each time, so values never drift to inf/NaN.
                let (a, b) = (0x70 | r.below(16) as u32, 0x60 | r.below(16) as u32);
                out.push(asm::fmov_imm(0, a));
                out.push(asm::fmov_imm(1, b));
                out.push(match r.below(3) {
                    0 => asm::fadd(2, 0, 1),
                    1 => asm::fmul(2, 0, 1),
                    _ => asm::fsub(2, 0, 1),
                });
                out.push(asm::str_d(2, 20, off8));
            }
            _ => out.push(asm::nop()),
        }
    }
}

/// A generated function: position-independent words plus what one call
/// retires and adds to the checksum.
struct Func {
    words: Vec<u32>,
    insns_per_call: u64,
    checksum_per_call: u64,
}

fn build_func(r: &mut Rng, plan: &FuncPlan) -> Func {
    let mut words = Vec::new();
    let (mut insns, mut checksum) = (0u64, 0u64);
    let last = plan.blocks.len() - 1;
    for (i, b) in plan.blocks.iter().enumerate() {
        let k = r.range(1, 4095);
        checksum = checksum.wrapping_add(k * b.trips);
        if b.trips > 1 {
            // [movz x9,#trips] top: [addi x19 | filler | subi x9 | cbnz top]
            words.push(asm::movz(9, b.trips as u32, 0));
            let top = words.len();
            words.push(asm::addi(19, 19, k as u32));
            filler(r, b.len - 4, &mut words);
            words.push(asm::subi(9, 9, 1));
            let back = (top as i64 - words.len() as i64) * 4;
            words.push(asm::cbnz(9, back));
            insns += b.len as u64 + (b.trips - 1) * (b.len as u64 - 1);
        } else {
            // The checksum add sits at a seeded position in the body.
            let body = b.len - 2;
            let before = r.below(body as u64 + 1) as usize;
            filler(r, before, &mut words);
            words.push(asm::addi(19, 19, k as u32));
            filler(r, body - before, &mut words);
            // Every non-final terminator leads to the adjacent block
            // whichever way it goes, so the path is data-independent.
            words.push(if i == last {
                asm::ret()
            } else {
                match r.below(4) {
                    0 => asm::b(4),
                    1 => asm::cbz(28, 4),
                    2 => asm::cbnz(28, 4),
                    _ => asm::bcond(cond(r), 4),
                }
            });
            insns += b.len as u64;
        }
    }
    Func {
        words,
        insns_per_call: insns,
        checksum_per_call: checksum,
    }
}

pub fn generate(seed: u64) -> Vec<Program> {
    let root = Rng::new(seed);
    let mut deal = root.fork("cold.deal");
    let mut content = root.fork("cold.content");

    // Deal the plan's functions to seeded positions.
    let mut plans = plan();
    deal.shuffle(&mut plans);
    let uniques: Vec<Func> = plans.iter().map(|p| build_func(&mut content, p)).collect();

    // Layout order: every unique function plus the copies, shuffled.  An
    // entry is (index into `uniques`, is_copy).
    let mut layout: Vec<usize> = (0..uniques.len()).collect();
    layout.extend((0..uniques.len()).filter(|&i| plans[i].copy));
    deal.shuffle(&mut layout);
    // Call order: each laid-out function `calls` times, shuffled.
    let mut calls: Vec<usize> = Vec::new();
    for (slot, &u) in layout.iter().enumerate() {
        for _ in 0..plans[u].calls {
            calls.push(slot);
        }
    }
    deal.shuffle(&mut calls);

    // main: prologue, then per call 0–2 filler instructions and a `bl`.
    let mut main = Vec::new();
    let mut pro = guest_aarch64::Assembler::new();
    pro.mov_imm64(20, DATA_BASE);
    pro.push(asm::movz(19, 0, 0));
    pro.push(asm::movz(28, 0, 0));
    main.extend(pro.finish());
    let mut call_sites = Vec::with_capacity(calls.len());
    for &slot in &calls {
        let pad = content.below(3) as usize;
        filler(&mut content, pad, &mut main);
        call_sites.push((main.len(), slot));
        main.push(asm::nop()); // patched to `bl` once addresses are known
    }
    main.push(asm::hlt());

    // Function addresses follow main contiguously.
    let mut addr = CODE_BASE + main.len() as u64 * 4;
    let mut func_addr = Vec::with_capacity(layout.len());
    for &u in &layout {
        func_addr.push(addr);
        addr += uniques[u].words.len() as u64 * 4;
    }
    for &(at, slot) in &call_sites {
        let from = CODE_BASE + at as u64 * 4;
        main[at] = asm::bl(func_addr[slot] as i64 - from as i64);
    }

    let mut image = main;
    let main_len = image.len() as u64;
    for &u in &layout {
        image.extend_from_slice(&uniques[u].words);
    }

    let (mut work, mut checksum) = (main_len, 0u64);
    for &slot in &calls {
        let f = &uniques[layout[slot]];
        work += f.insns_per_call;
        checksum = checksum.wrapping_add(f.checksum_per_call);
    }

    vec![Program {
        name: "cold.image",
        segments: vec![Segment::code(CODE_BASE, image)],
        entry: CODE_BASE,
        work_insns: work,
        checks: vec![Check::Reg {
            index: 19,
            expect: checksum,
        }],
        window: (DATA_BASE, 0x1000),
        virtio: None,
        events: Events::default(),
        data_addrs: (0..256).map(|i| DATA_BASE + i * 8).collect(),
    }]
}
