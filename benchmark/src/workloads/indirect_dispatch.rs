//! `indirect_dispatch`: threaded-code dispatch through a jump table, with
//! call/return, spread over far more pages than the 64-entry fetch iTLB
//! covers.
//!
//! **Shape.**  192 *handlers* and 64 *leaf* functions each sit on a page of
//! their own (256 code pages, guest MMU on, identity mapped).  A table of
//! [`SEQ_LEN`] handler addresses — a seed-permuted sequence — is walked
//! [`PASSES`] times: every handler adds its constant to x19, loads the next
//! table entry and `br`s to it; a third of the handlers first `blr` to a
//! leaf (looked up in a second seed-permuted table), which adds its own
//! constant and `ret`s.  Every block is 2–4 instructions and ends in an
//! indirect branch, so chaining cannot help and every block entry goes
//! through the dispatcher slow path.
//!
//! **Oracle.**  The generator knows the sequence, so the expected x19 and
//! the retired-instruction count are plain sums over it.

use super::emit_mmu_on;
use crate::program::{Check, Events, PageTables, Program, Segment, CODE_BASE, DATA_BASE};
use crate::rng::Rng;
use guest_aarch64::asm::{self, Assembler};

const HANDLERS: usize = 192;
const LEAVES: usize = 64;
/// Entries in the dispatch sequence (64 KiB of table).
const SEQ_LEN: usize = 8192;
/// Times the sequence is walked.
const PASSES: u64 = 340;

/// First handler page; handler `i` lives at `HANDLER_BASE + i * 4096`
/// (plus a seeded in-page offset), leaves follow.
const HANDLER_BASE: u64 = 0x0010_0000;
const TABLE_BASE: u64 = DATA_BASE;
const LEAF_TABLE_BASE: u64 = DATA_BASE + 0x2_0000;

pub fn generate(seed: u64) -> Vec<Program> {
    let mut r = Rng::new(seed).fork("indirect");

    // Handlers and leaves: seeded constants, seeded offset inside the page.
    let mut segments = Vec::new();
    let mut handler_addr = Vec::with_capacity(HANDLERS);
    let mut handler_k = Vec::with_capacity(HANDLERS);
    let mut handler_leaf: Vec<Option<usize>> = Vec::with_capacity(HANDLERS);
    let mut leaf_addr = Vec::with_capacity(LEAVES);
    let mut leaf_k = Vec::with_capacity(LEAVES);
    for i in 0..LEAVES {
        let at = HANDLER_BASE + ((HANDLERS + i) as u64) * 0x1000 + r.below(900) * 4;
        let k = r.range(1, 4095);
        segments.push(Segment::code(
            at,
            vec![asm::addi(19, 19, k as u32), asm::ret()],
        ));
        leaf_addr.push(at);
        leaf_k.push(k);
    }
    // The leaf table is a permutation, so the slot a handler reads says
    // nothing about where its leaf lives.
    let mut leaf_slots: Vec<usize> = (0..LEAVES).collect();
    r.shuffle(&mut leaf_slots);
    for i in 0..HANDLERS {
        let at = HANDLER_BASE + (i as u64) * 0x1000 + r.below(900) * 4;
        let k = r.range(1, 4095);
        let leaf = (i % 3 == 0).then(|| r.below(LEAVES as u64) as usize);
        let mut w = vec![asm::addi(19, 19, k as u32)];
        if let Some(slot) = leaf {
            w.push(asm::ldr(2, 22, (slot * 8) as u32));
            w.push(asm::blr(2));
        }
        w.push(asm::ldr(1, 21, 0));
        w.push(asm::addi(21, 21, 8));
        w.push(asm::br(1));
        segments.push(Segment::code(at, w));
        handler_addr.push(at);
        handler_k.push(k);
        handler_leaf.push(leaf.map(|slot| leaf_slots[slot]));
    }

    // The dispatch sequence: every handler appears equally often, in a
    // seeded order; the last entry is the loop handler in main.
    let mut seq: Vec<usize> = (0..SEQ_LEN).map(|i| i % HANDLERS).collect();
    r.shuffle(&mut seq);

    let mut pt = PageTables::new();
    pt.identity(CODE_BASE, 0x1000);
    pt.identity(HANDLER_BASE, ((HANDLERS + LEAVES) as u64) * 0x1000);
    pt.identity(TABLE_BASE, (SEQ_LEN as u64 + 1) * 8);
    pt.identity(LEAF_TABLE_BASE, LEAVES as u64 * 8);

    let mut a = Assembler::new();
    emit_mmu_on(&mut a, pt.root());
    a.mov_imm64(22, LEAF_TABLE_BASE);
    a.mov_imm64(24, PASSES);
    a.push(asm::movz(19, 0, 0));
    a.b_to("restart");
    let pre = a.here() as u64;
    // Loop handler: the table's last entry points here.
    a.label("again");
    let again_word = a.here();
    a.push(asm::subi(24, 24, 1));
    a.cbz_to(24, "done");
    a.label("restart");
    let restart_at = a.here();
    a.mov_imm64(21, TABLE_BASE);
    a.push(asm::ldr(1, 21, 0));
    a.push(asm::addi(21, 21, 8));
    a.push(asm::br(1));
    let restart_len = (a.here() - restart_at) as u64;
    a.label("done");
    a.push(asm::hlt());
    let again_addr = CODE_BASE + again_word as u64 * 4;

    let mut table: Vec<u64> = seq.iter().map(|&h| handler_addr[h]).collect();
    table.push(again_addr);
    let mut leaf_table = vec![0u64; LEAVES];
    for (slot, &leaf) in leaf_slots.iter().enumerate() {
        leaf_table[slot] = leaf_addr[leaf];
    }

    // One pass: every sequence entry's handler (+ its leaf), then the loop
    // handler's `subi; cbz`.  `restart` runs once per pass.
    let (mut pass_insns, mut pass_sum) = (0u64, 0u64);
    for &h in &seq {
        pass_insns += 4;
        pass_sum += handler_k[h];
        if let Some(leaf) = handler_leaf[h] {
            pass_insns += 2 + 2;
            pass_sum += leaf_k[leaf];
        }
    }
    let work = pre + PASSES * (restart_len + pass_insns + 2) + 1;

    let mut all = vec![Segment::code(CODE_BASE, a.finish())];
    all.extend(segments);
    all.push(Segment::data_u64(TABLE_BASE, &table));
    all.push(Segment::data_u64(LEAF_TABLE_BASE, &leaf_table));
    all.extend(pt.segments());

    let mut data_addrs: Vec<u64> = (0..512).map(|i| TABLE_BASE + i * 128).collect();
    data_addrs.extend((0..LEAVES as u64).map(|i| LEAF_TABLE_BASE + i * 8));
    vec![Program {
        name: "indirect.threaded",
        segments: all,
        entry: CODE_BASE,
        work_insns: work,
        checks: vec![Check::Reg {
            index: 19,
            expect: pass_sum.wrapping_mul(PASSES),
        }],
        window: (TABLE_BASE, 0x1000),
        virtio: None,
        events: Events {
            ctx_gen_bumps: 2,
            ..Events::default()
        },
        data_addrs,
    }]
}
