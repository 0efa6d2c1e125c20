//! `hot_loops`: six tiny-footprint kernels, millions of trips each.
//!
//! Every kernel has a plain-Rust mirror that computes the expected final
//! state on the host; trip counts are constants, so `work_insns` is a closed
//! form of (prologue + trips × body + epilogue).  The seed drives data
//! constants and the pointer-chase permutation — never trip counts — so
//! the amount of work is the same for every seed.

use super::emit_mmu_on;
use crate::program::{fnv1a, Check, Events, PageTables, Program, Segment, CODE_BASE, DATA_BASE};
use crate::rng::Rng;
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;

/// Pointer-chase trips.
const CHASE_ITERS: u64 = 1_200_000;
/// Stream elements: 4 MiB of u64, twice the 512-entry host TLB's reach.
const STREAM_ELEMS: u64 = 512 * 1024;
/// Stream update passes after the init pass.
const STREAM_PASSES: u64 = 1;
/// Hash-mix trips.
const HASH_ITERS: u64 = 550_000;
/// Address-generation trips.
const ADDR_ITERS: u64 = 500_000;
/// Stencil passes over a 512-double array.
const STENCIL_PASSES: u64 = 900;
/// Vector passes over 256 packed-double pairs.
const VECTOR_PASSES: u64 = 3_000;

pub fn generate(seed: u64) -> Vec<Program> {
    let rng = Rng::new(seed);
    vec![
        pointer_chase(&mut rng.fork("hot.chase")),
        stream_mmu(&mut rng.fork("hot.stream")),
        hash_mix(&mut rng.fork("hot.hash")),
        addr_gen(&mut rng.fork("hot.addr")),
        fp_stencil(&mut rng.fork("hot.stencil")),
        fp_vector(&mut rng.fork("hot.vector")),
    ]
}

fn program(
    name: &'static str,
    code: Assembler,
    data: Vec<Segment>,
    work_insns: u64,
    checks: Vec<Check>,
    data_addrs: Vec<u64>,
) -> Program {
    let mut segments = vec![Segment::code(CODE_BASE, code.finish())];
    segments.extend(data);
    Program {
        name,
        segments,
        entry: CODE_BASE,
        work_insns,
        checks,
        window: (DATA_BASE, 0x2000),
        virtio: None,
        events: Events::default(),
        data_addrs,
    }
}

/// Emits `sum x19 += 64-bit words of [base, base + words*8)`; returns the
/// instructions it will retire.  Clobbers x1, x2, x4.
fn emit_word_sum(a: &mut Assembler, label: &str, base: u64, words: u64) -> u64 {
    let before = a.here();
    a.mov_imm64(1, base);
    a.mov_imm64(2, words);
    let pre = (a.here() - before) as u64;
    a.label(label);
    a.push(asm::ldr(4, 1, 0));
    a.push(asm::add(19, 19, 4));
    a.push(asm::addi(1, 1, 8));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, label);
    pre + 5 * words
}

/// Kernel 1 — pointer chase over a TLB-resident ring (2048 nodes, 32 KiB)
/// visited in a seed-permuted order.
fn pointer_chase(rng: &mut Rng) -> Program {
    const NODES: usize = 2048;
    let mut order: Vec<usize> = (0..NODES).collect();
    rng.shuffle(&mut order);
    let mut nodes = vec![0u64; NODES * 2];
    for i in 0..NODES {
        let n = order[i];
        nodes[n * 2] = DATA_BASE + order[(i + 1) % NODES] as u64 * 16;
        nodes[n * 2 + 1] = rng.next_u64() >> 8;
    }
    let start = DATA_BASE + order[0] as u64 * 16;

    let mut a = Assembler::new();
    a.mov_imm64(1, start);
    a.mov_imm64(3, CHASE_ITERS);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::ldr(4, 1, 8));
    a.push(asm::ldr(1, 1, 0));
    a.push(asm::add(19, 19, 4));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());

    // Host mirror.
    let (mut cur, mut sum) = (start, 0u64);
    for _ in 0..CHASE_ITERS {
        let n = ((cur - DATA_BASE) / 16) as usize;
        sum = sum.wrapping_add(nodes[n * 2 + 1]);
        cur = nodes[n * 2];
    }
    program(
        "hot.chase",
        a,
        vec![Segment::data_u64(DATA_BASE, &nodes)],
        pre + 5 * CHASE_ITERS + 1,
        vec![
            Check::Reg {
                index: 19,
                expect: sum,
            },
            Check::Reg {
                index: 1,
                expect: cur,
            },
        ],
        order.iter().map(|&n| DATA_BASE + n as u64 * 16).collect(),
    )
}

/// Kernel 2 — stream update over 4 MiB with the guest MMU on: an init pass
/// then read-modify-write passes.  The footprint is twice the host TLB's
/// reach, so every pass walks.
fn stream_mmu(rng: &mut Rng) -> Program {
    let init = rng.next_u64();
    let step = rng.next_u64() | 1;
    let bytes = STREAM_ELEMS * 8;

    let mut pt = PageTables::new();
    pt.identity(CODE_BASE, 0x1000);
    pt.identity(DATA_BASE, bytes);

    let mut a = Assembler::new();
    emit_mmu_on(&mut a, pt.root());
    a.mov_imm64(5, step);
    a.mov_imm64(6, init);
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, STREAM_ELEMS);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("init");
    a.push(asm::str(6, 1, 0));
    a.push(asm::add(6, 6, 5));
    a.push(asm::addi(1, 1, 8));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "init");
    let mid_at = a.here();
    a.mov_imm64(7, STREAM_PASSES);
    let mid = (a.here() - mid_at) as u64;
    a.label("pass");
    let pass_at = a.here();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, STREAM_ELEMS);
    let pass_pre = (a.here() - pass_at) as u64;
    a.label("upd");
    a.push(asm::ldr(4, 1, 0));
    a.push(asm::lsri(8, 4, 7));
    a.push(asm::eor(4, 4, 8));
    a.push(asm::add(4, 4, 5));
    a.push(asm::str(4, 1, 0));
    a.push(asm::add(19, 19, 4));
    a.push(asm::addi(1, 1, 8));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "upd");
    a.push(asm::subi(7, 7, 1));
    a.cbnz_to(7, "pass");
    a.push(asm::hlt());

    // Host mirror.
    let mut arr = vec![0u64; STREAM_ELEMS as usize];
    let mut x6 = init;
    for v in arr.iter_mut() {
        *v = x6;
        x6 = x6.wrapping_add(step);
    }
    let mut sum = 0u64;
    for _ in 0..STREAM_PASSES {
        for v in arr.iter_mut() {
            let mut x = *v;
            x ^= x >> 7;
            x = x.wrapping_add(step);
            *v = x;
            sum = sum.wrapping_add(x);
        }
    }
    let head = fnv1a(arr[..512].iter().flat_map(|v| v.to_le_bytes()));
    let tail_start = DATA_BASE + bytes - 0x1000;
    let tail = fnv1a(arr[arr.len() - 512..].iter().flat_map(|v| v.to_le_bytes()));

    let work = pre + 5 * STREAM_ELEMS + mid + STREAM_PASSES * (pass_pre + 9 * STREAM_ELEMS + 2) + 1;
    let mut p = program(
        "hot.stream",
        a,
        pt.segments(),
        work,
        vec![
            Check::Reg {
                index: 19,
                expect: sum,
            },
            Check::Mem {
                start: DATA_BASE,
                len: 0x1000,
                expect: head,
            },
            Check::Mem {
                start: tail_start,
                len: 0x1000,
                expect: tail,
            },
        ],
        (0..1024).map(|i| DATA_BASE + i * 0x1000).collect(),
    );
    // TTBR0 + SCTLR writes each bump the translation context; each data
    // page faults in once.
    p.events.ctx_gen_bumps = 2;
    p.events.page_faults = bytes / 0x1000;
    p
}

/// Kernel 3 — hash mix with a data-dependent branch whose two legs retire
/// the same number of instructions, so the work is data-independent.
fn hash_mix(rng: &mut Rng) -> Program {
    let x0 = rng.next_u64();
    let mult = rng.next_u64() | 1;

    let mut a = Assembler::new();
    a.mov_imm64(1, x0);
    a.mov_imm64(5, mult);
    a.mov_imm64(3, HASH_ITERS);
    a.push(asm::movz(19, 0, 0));
    a.push(asm::movz(6, 1, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::mul(1, 1, 5));
    a.push(asm::addi(1, 1, 0x5A5));
    a.push(asm::lsri(4, 1, 33));
    a.push(asm::ands(31, 4, 6));
    a.bcond_to(Cond::Eq, "even");
    a.push(asm::add(19, 19, 1));
    a.push(asm::lsri(7, 1, 5));
    a.push(asm::eor(19, 19, 7));
    a.b_to("join");
    a.label("even");
    a.push(asm::eor(19, 19, 1));
    a.push(asm::lsli(7, 1, 3));
    a.push(asm::add(19, 19, 7));
    a.push(asm::nop());
    a.label("join");
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());

    let (mut x, mut h) = (x0, 0u64);
    for _ in 0..HASH_ITERS {
        x = x.wrapping_mul(mult).wrapping_add(0x5A5);
        if (x >> 33) & 1 != 0 {
            h = h.wrapping_add(x);
            h ^= x >> 5;
        } else {
            h ^= x;
            h = h.wrapping_add(x << 3);
        }
    }
    program(
        "hot.hash",
        a,
        vec![],
        pre + 11 * HASH_ITERS + 1,
        vec![
            Check::Reg {
                index: 19,
                expect: h,
            },
            Check::Reg {
                index: 1,
                expect: x,
            },
        ],
        vec![],
    )
}

/// Kernel 4 — scaled-index address generation: `base + (idx << 3)` lookups
/// into two 8 KiB tables, one through explicit shift/add and one through
/// the register-offset load.
fn addr_gen(rng: &mut Rng) -> Program {
    const ENTRIES: u64 = 1024;
    let t0: Vec<u64> = (0..ENTRIES).map(|_| rng.next_u64() >> 4).collect();
    let t1: Vec<u64> = (0..ENTRIES).map(|_| rng.next_u64() >> 4).collect();
    let stride = rng.range(3, 400) | 1;
    let t1_base = DATA_BASE + ENTRIES * 8;

    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, t1_base);
    a.mov_imm64(9, ENTRIES - 1);
    a.mov_imm64(10, stride);
    a.mov_imm64(3, ADDR_ITERS);
    a.push(asm::movz(8, 0, 0));
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("loop");
    a.push(asm::add(8, 8, 10));
    a.push(asm::and(4, 8, 9));
    a.push(asm::lsli(5, 4, 3));
    a.push(asm::add(6, 1, 5));
    a.push(asm::ldr(7, 6, 0));
    a.push(asm::add(19, 19, 7));
    a.push(asm::eor(4, 4, 7));
    a.push(asm::and(4, 4, 9));
    a.push(asm::lsli(5, 4, 3));
    a.push(asm::ldr_reg(7, 2, 5));
    a.push(asm::add(19, 19, 7));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "loop");
    a.push(asm::hlt());

    let (mut acc, mut sum) = (0u64, 0u64);
    for _ in 0..ADDR_ITERS {
        acc = acc.wrapping_add(stride);
        let i0 = acc & (ENTRIES - 1);
        let v0 = t0[i0 as usize];
        sum = sum.wrapping_add(v0);
        let i1 = (i0 ^ v0) & (ENTRIES - 1);
        sum = sum.wrapping_add(t1[i1 as usize]);
    }
    let mut table = t0;
    table.extend(t1);
    program(
        "hot.addr",
        a,
        vec![Segment::data_u64(DATA_BASE, &table)],
        pre + 13 * ADDR_ITERS + 1,
        vec![Check::Reg {
            index: 19,
            expect: sum,
        }],
        (0..ENTRIES * 2).map(|i| DATA_BASE + i * 8).collect(),
    )
}

/// Kernel 5 — scalar FP stencil: in-place three-point update, three
/// multiplies, three adds and a square root per element, each rounded on
/// its own; the mirror uses the same IEEE operations in the same order.
///
/// `fmadd` is deliberately absent: `QemuRef` rounds its product before the
/// add (two roundings) where Captive and IEEE fuse, so a fused kernel makes
/// the two engines disagree in the last bit.  That is an engine defect this
/// benchmark cannot fix; once it is fixed the kernel should fuse again.
fn fp_stencil(rng: &mut Rng) -> Program {
    const M: usize = 512;
    let mut arr: Vec<f64> = (0..M).map(|_| rng.f64_in(0.5, 1.5)).collect();
    let c: [f64; 4] = [
        rng.f64_in(0.2, 0.4),
        rng.f64_in(0.2, 0.4),
        rng.f64_in(0.2, 0.4),
        rng.f64_in(0.01, 0.1),
    ];
    let coef_base = DATA_BASE + 0x1000;
    let data = vec![
        Segment::data_u64(
            DATA_BASE,
            &arr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        ),
        Segment::data_u64(coef_base, &c.map(f64::to_bits)),
    ];
    let inner = (M - 2) as u64;

    let mut a = Assembler::new();
    a.mov_imm64(10, coef_base);
    for i in 0..4 {
        a.push(asm::ldr_d(10 + i, 10, i * 8));
    }
    a.mov_imm64(7, STENCIL_PASSES);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("pass");
    let pass_at = a.here();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, inner);
    let pass_pre = (a.here() - pass_at) as u64;
    a.label("inner");
    a.push(asm::ldr_d(0, 1, 0));
    a.push(asm::ldr_d(1, 1, 8));
    a.push(asm::ldr_d(2, 1, 16));
    a.push(asm::fmul(3, 0, 10));
    a.push(asm::fmul(4, 1, 11));
    a.push(asm::fadd(3, 3, 4));
    a.push(asm::fmul(4, 2, 12));
    a.push(asm::fadd(3, 3, 4));
    a.push(asm::fadd(3, 3, 13));
    a.push(asm::fsqrt(3, 3));
    a.push(asm::str_d(3, 1, 8));
    a.push(asm::addi(1, 1, 8));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "inner");
    a.push(asm::subi(7, 7, 1));
    a.cbnz_to(7, "pass");
    let sum_insns = emit_word_sum(&mut a, "sum", DATA_BASE, M as u64);
    a.push(asm::hlt());

    for _ in 0..STENCIL_PASSES {
        for i in 0..M - 2 {
            let t = arr[i] * c[0] + arr[i + 1] * c[1];
            let t = t + arr[i + 2] * c[2];
            arr[i + 1] = (t + c[3]).sqrt();
        }
    }
    let sum = arr.iter().fold(0u64, |s, v| s.wrapping_add(v.to_bits()));
    let digest = fnv1a(arr.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    program(
        "hot.stencil",
        a,
        data,
        pre + STENCIL_PASSES * (pass_pre + 14 * inner + 2) + sum_insns + 1,
        vec![
            Check::Reg {
                index: 19,
                expect: sum,
            },
            Check::Mem {
                start: DATA_BASE,
                len: (M * 8) as u64,
                expect: digest,
            },
        ],
        (0..M as u64).map(|i| DATA_BASE + i * 8).collect(),
    )
}

/// Kernel 6 — packed-double vector `y = y*s + x` over 256 two-lane vectors.
/// Multiply and add round separately (no fusion), as the two guest
/// instructions do.
fn fp_vector(rng: &mut Rng) -> Program {
    const V: usize = 256;
    let x: Vec<f64> = (0..V * 2).map(|_| rng.f64_in(0.5, 1.5)).collect();
    let mut y: Vec<f64> = (0..V * 2).map(|_| rng.f64_in(0.5, 1.5)).collect();
    let s = rng.f64_in(0.98, 0.995);
    let y_base = DATA_BASE + 0x1000;
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let data = vec![
        Segment::data_u64(DATA_BASE, &bits(&x)),
        Segment::data_u64(y_base, &bits(&y)),
    ];

    let mut a = Assembler::new();
    a.mov_imm64(5, s.to_bits());
    a.push(asm::dup2d(10, 5));
    a.mov_imm64(7, VECTOR_PASSES);
    a.push(asm::movz(19, 0, 0));
    let pre = a.here() as u64;
    a.label("pass");
    let pass_at = a.here();
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(2, y_base);
    a.mov_imm64(3, V as u64);
    let pass_pre = (a.here() - pass_at) as u64;
    a.label("inner");
    a.push(asm::ldr_q(0, 1, 0));
    a.push(asm::ldr_q(1, 2, 0));
    a.push(asm::vmul2d(1, 1, 10));
    a.push(asm::vadd2d(1, 1, 0));
    a.push(asm::str_q(1, 2, 0));
    a.push(asm::addi(1, 1, 16));
    a.push(asm::addi(2, 2, 16));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "inner");
    a.push(asm::subi(7, 7, 1));
    a.cbnz_to(7, "pass");
    let sum_insns = emit_word_sum(&mut a, "sum", y_base, (V * 2) as u64);
    a.push(asm::hlt());

    for _ in 0..VECTOR_PASSES {
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi = *yi * s + *xi;
        }
    }
    let sum = y.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()));
    let digest = fnv1a(y.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    program(
        "hot.vector",
        a,
        data,
        pre + VECTOR_PASSES * (pass_pre + 9 * V as u64 + 2) + sum_insns + 1,
        vec![
            Check::Reg {
                index: 19,
                expect: sum,
            },
            Check::Mem {
                start: y_base,
                len: (V * 16) as u64,
                expect: digest,
            },
        ],
        (0..V as u64 * 2).map(|i| DATA_BASE + i * 16).collect(),
    )
}
