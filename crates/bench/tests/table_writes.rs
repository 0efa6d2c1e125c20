//! The obligation behind Captive's cached guest walks, tested from the
//! guest's side: **no cached walk is served once any table entry it read may
//! differ from memory** (`captive::itlb`).  Each case changes a live
//! translation in one of the ways a guest, a device or the host can, makes it
//! architecturally visible (`tlbi`, `TTBR0`, `SCTLR`), reads through the
//! address again, and holds every engine of `bench::EQUIVALENT` to the
//! QEMU-style baseline, which caches no walk across any of those events.
//!
//! Every read of the address under test shifts one hex digit into x19 —
//! frame *i* holds the value *i + 1*, an aborted read contributes 0 — so a
//! failure prints the sequence of frames each engine saw.

use bench::{by_name, Guest, Run, EQUIVALENT};
use captive::{Captive, CaptiveConfig};
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::mmu::{GuestPageFlags, GuestTableImage};
use guest_aarch64::SysReg;
use hvm::virtio::{mmio, DESC_F_NEXT, DESC_F_WRITE, REQ_READ, SECTOR_SIZE};
use hvm::VirtioBlkConfig;

/// Main program (two pages) and, after it, the exception vector.
const CODE: u64 = 0x1000;
const VECTOR: u64 = 0x3000;
/// Eight data frames, the window whose digest every engine must agree on.
const FRAMES: u64 = 0x10_0000;
const FRAMES_LEN: u64 = 8 * 0x1000;
/// Virtio queue structures and request blocks.
const VIO: u64 = 0x18_0000;
/// Two page-table pools, both identity-mapped writable by the first.
const POOL: u64 = 0x20_0000;
const POOL_LEN: u64 = 0x1_0000;
/// The address under test: an L2 and an L1 table of its own under root
/// entry 1, so a write to one of them reaches no other mapping — and a page
/// number whose low bits match none of the pages the guest stores to, so no
/// direct-mapped cache drops its entry for an unrelated reason.
const X: u64 = 0x4040_0000;

const RW: GuestPageFlags = GuestPageFlags::kernel_rw();

fn frame(i: u64) -> u64 {
    FRAMES + i * 0x1000
}

/// A leaf PTE mapping frame `i`.
fn pte(i: u64) -> u64 {
    frame(i) | RW.encode()
}

/// Page tables in pool `n` that identity-map everything the guest touches
/// besides `X`.
fn tables(n: u64) -> GuestTableImage {
    let mut t = GuestTableImage::new(POOL + n * POOL_LEN, POOL + (n + 1) * POOL_LEN);
    t.identity(CODE, VECTOR + 0x1000 - CODE, RW);
    t.identity(FRAMES, FRAMES_LEN, RW);
    t.identity(VIO, 0x1000, RW);
    t.identity(POOL, 2 * POOL_LEN, RW);
    t
}

/// The guest `main` at `CODE`, the vector at `VECTOR`, frame *i* holding
/// *i + 1* and the `tables` loaded; the outcome digests the frames.
fn guest(main: Assembler, tables: &[&GuestTableImage]) -> Guest {
    // The vector counts the abort in x22, sums ESR and FAR into x20 / x21
    // and skips the faulting instruction.
    let vector = vec![
        asm::addi(22, 22, 1),
        asm::mrs(15, SysReg::Esr as u32),
        asm::add(20, 20, 15),
        asm::mrs(15, SysReg::Far as u32),
        asm::add(21, 21, 15),
        asm::mrs(15, SysReg::Elr as u32),
        asm::addi(15, 15, 4),
        asm::msr(SysReg::Elr as u32, 15),
        asm::movz(15, 0, 0),
        asm::eret(),
    ];
    let frames = (0..FRAMES_LEN / 0x1000).map(|i| (frame(i), i + 1));
    Guest {
        name: "table_writes".into(),
        code: vec![(CODE, main.finish()), (VECTOR, vector)],
        words: frames
            .chain(tables.iter().flat_map(|t| t.words()))
            .collect(),
        entry: CODE,
        digests: vec![(FRAMES, FRAMES_LEN)],
        ..Guest::default()
    }
}

/// Runs `g` on every engine of the equivalence roster, asserts one outcome
/// and a clean halt, and returns the runs by engine name.
fn agree(g: &Guest) -> Vec<(&'static str, Run)> {
    let runs = bench::assert_agree(g, &EQUIVALENT);
    assert_eq!(runs[0].1.halt, 0);
    runs
}

/// Vector, `TTBR0 = root`, MMU on, x13 = `X`, the digits in x19 cleared.
fn prelude(a: &mut Assembler, root: u64) {
    a.mov_imm64(9, VECTOR);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.mov_imm64(0, root);
    a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
    a.push(asm::movz(0, 1, 0));
    a.push(asm::msr(SysReg::Sctlr as u32, 0));
    a.mov_imm64(13, X);
    a.push(asm::movz(19, 0, 0));
}

/// Reads through x13 and shifts the digit into x19.
fn read(a: &mut Assembler) {
    a.push(asm::movz(4, 0, 0));
    a.push(asm::ldr(4, 13, 0));
    a.push(asm::lsli(19, 19, 4));
    a.push(asm::add(19, 19, 4));
}

/// Stores `value` at `addr` (a guest store, through whatever maps `addr`).
fn store(a: &mut Assembler, addr: u64, value: u64) {
    a.mov_imm64(10, addr);
    a.mov_imm64(11, value);
    a.push(asm::str(11, 10, 0));
}

#[test]
fn a_leaf_pte_rewritten_through_an_alias_of_its_table_page() {
    // The store never uses the table page's own address: the guest maps the
    // leaf table a second time, far from the pool's identity window.
    const ALIAS: u64 = 0x4060_0000;
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let leaf = t.entry_addr(X, 1);
    t.map(ALIAS, leaf & !0xFFF, RW);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    store(&mut a, ALIAS | (leaf & 0xFFF), pte(1));
    a.push(asm::tlbi());
    read(&mut a);
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&t]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x12);
}

/// `X -> frame i` through a subtree of its own in pool 1, for a test to
/// graft into the live tables at one level or another.
fn grafts() -> [GuestTableImage; 2] {
    [1, 2].map(|i| {
        let mut t = GuestTableImage::new(
            POOL + POOL_LEN + (i - 1) * 0x4000,
            POOL + POOL_LEN + i * 0x4000,
        );
        t.map(X, frame(i), RW);
        t
    })
}

/// The word `graft` holds at its level-`level` entry for `X`: a pointer to
/// its own next-level table.
fn graft_entry(graft: &GuestTableImage, level: u32) -> u64 {
    let at = graft.entry_addr(X, level);
    graft.words().find(|&(a, _)| a == at).expect("mapped").1
}

#[test]
fn a_level_2_entry_repointed_at_a_prebuilt_leaf_table() {
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let [g1, g2] = grafts();
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    for g in [&g1, &g2] {
        store(&mut a, t.entry_addr(X, 2), graft_entry(g, 2));
        a.push(asm::tlbi());
        read(&mut a);
    }
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&t, &g1, &g2]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x123);
}

#[test]
fn a_level_3_entry_repointed_at_a_prebuilt_subtree() {
    // Only the root table is written: the level-2 and level-1 tables the
    // first walk read are left exactly as they were.
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let [g1, g2] = grafts();
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    for g in [&g1, &g2] {
        store(&mut a, t.entry_addr(X, 3), graft_entry(g, 3));
        a.push(asm::tlbi());
        read(&mut a);
    }
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&t, &g1, &g2]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x123);
}

/// Virtio queue structures, inside `VIO`.
const DESC: u64 = VIO;
const AVAIL: u64 = VIO + 0x200;
const USED: u64 = VIO + 0x300;
const HDR: u64 = VIO + 0x400;
const STATUS: u64 = VIO + 0x500;

/// Attaches a block device whose disk is `disk` and queues one read of its
/// sector 0 into `buffer`, for [`kick_and_wait`] to start.
fn device_read(g: &mut Guest, buffer: u64, disk: Vec<u8>) {
    let cfg = VirtioBlkConfig {
        disk_image: Some(disk),
        ..VirtioBlkConfig::default()
    };
    let base = cfg.mmio_base;
    g.words.extend([
        (base + mmio::QUEUE_DESC, DESC),
        (base + mmio::QUEUE_AVAIL, AVAIL),
        (base + mmio::QUEUE_USED, USED),
        (HDR, REQ_READ),
        (HDR + 8, 0),
        (AVAIL, 1),
        (AVAIL + 8, 0),
    ]);
    let chain = [
        (HDR, 16, DESC_F_NEXT, 1),
        (buffer, SECTOR_SIZE, DESC_F_NEXT | DESC_F_WRITE, 2),
        (STATUS, 8, DESC_F_WRITE, 0),
    ];
    for (i, (addr, len, flags, next)) in chain.into_iter().enumerate() {
        let at = DESC + i as u64 * 32;
        g.words
            .extend([(at, addr), (at + 8, len), (at + 16, flags), (at + 24, next)]);
    }
    g.virtio = Some(cfg);
}

/// Kicks the queue [`device_read`] filled, spins until the read retired,
/// then `tlbi` (the baseline only drops stale translations there).
fn kick_and_wait(a: &mut Assembler) {
    a.push(asm::movz(17, 1, 0));
    a.push(asm::msr(SysReg::VblkNotify as u32, 17));
    a.mov_imm64(5, USED);
    a.label("wait");
    a.push(asm::ldr(7, 5, 0));
    a.push(asm::cmpi(7, 1));
    a.bcond_to(Cond::Ne, "wait");
    a.push(asm::tlbi());
}

#[test]
fn a_device_read_whose_buffer_is_a_live_table_page() {
    // Disk sector 0 holds valid PTEs (`X -> frame 1` first) and the read's
    // data descriptor points at X's leaf table: no guest store, no host
    // fault, nothing but the device's touched-page list announces the edit.
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let leaf = t.entry_addr(X, 1);
    assert_eq!(leaf & 0xFFF, 0, "the sector lands on X's entry");
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    kick_and_wait(&mut a);
    read(&mut a);
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    device_read(&mut g, leaf, pte(1).to_le_bytes().to_vec());
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x12);
}

#[test]
fn ttbr0_switched_to_another_address_space_and_back() {
    let (mut ta, mut tb) = (tables(0), tables(1));
    ta.map(X, frame(0), RW);
    tb.map(X, frame(1), RW);
    let mut a = Assembler::new();
    prelude(&mut a, ta.root());
    read(&mut a);
    for root in [tb.root(), ta.root(), tb.root()] {
        a.mov_imm64(0, root);
        a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
        read(&mut a);
    }
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&ta, &tb]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x1212);
}

#[test]
fn sctlr_off_and_on_again() {
    // With the MMU off the address is its own frame; choose one inside the
    // data window that the tables map somewhere else.
    let mut t = tables(0);
    t.map(frame(4), frame(0), RW);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    a.mov_imm64(13, frame(4));
    read(&mut a);
    for on in [0, 1, 0, 1] {
        a.push(asm::movz(0, on, 0));
        a.push(asm::msr(SysReg::Sctlr as u32, 0));
        read(&mut a);
    }
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&t]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x15151);
}

#[test]
fn a_page_written_then_first_used_as_a_table_then_written_again() {
    // All inside one epoch: the first store maps the page writable, the
    // walk then makes it a table page, and the second store takes no fault
    // that could announce it.
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let leaf = t.entry_addr(X, 1);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    a.push(asm::tlbi());
    store(&mut a, leaf, pte(1));
    read(&mut a);
    store(&mut a, leaf, pte(2));
    a.push(asm::tlbi());
    read(&mut a);
    a.push(asm::hlt());
    let runs = agree(&guest(a, &[&t]));
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x23);
}

#[test]
fn the_host_rewrites_a_pte_between_two_runs() {
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    a.push(asm::hlt());
    let resume = CODE + a.here() as u64 * 4;
    a.push(asm::tlbi());
    read(&mut a);
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    g.resume = Some((vec![(t.entry_addr(X, 1), pte(1))], resume));
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 0x12);
}

#[test]
fn table_pointers_at_the_edge_of_guest_ram() {
    // The last page of RAM is a perfectly good table, down to its last
    // entry; the page after it, and one far beyond, are not: the walk must
    // refuse them with the abort the baseline raises, and nothing indexed by
    // guest page may be touched on the way.
    let ram = bench::guest_ram();
    let last = ram - 0x1000;
    let pointer = GuestPageFlags::user_rw().encode();
    let mut t = tables(0);
    t.map(X, frame(0), RW);
    let l2_entry = t.entry_addr(X, 2);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    read(&mut a);
    store(&mut a, l2_entry, last | pointer);
    a.push(asm::tlbi());
    read(&mut a);
    a.mov_imm64(13, X + 511 * 0x1000);
    read(&mut a);
    a.mov_imm64(13, X);
    for beyond in [ram, 0x0000_FFFF_FFFF_F000] {
        store(&mut a, l2_entry, beyond | pointer);
        a.push(asm::tlbi());
        read(&mut a);
    }
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    g.words.extend([(last, pte(1)), (ram - 8, pte(2))]);
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    // Frame 0, frame 1 through the table's first entry, frame 2 through its
    // last, then two aborts.
    assert_eq!(out.regs[19], 0x12300);
    assert_eq!(out.regs[22], 2, "two data aborts");
    assert_eq!(out.regs[21], 2 * X, "both report X");
}

/// The same obligation one layer up: a formed region stitches a *virtual*
/// path across pages, so it may be served — from the code cache, a tier-1
/// worker or the content-keyed reuse cache — only while every translation
/// its trace resolved still holds.  The loop below spans two virtual pages:
/// `A` (entered at `A + 4` with the trip count in x6) adds x4 into x19 once
/// per trip and branches to `B = A + 0x1000`, which sets x4 and branches
/// back.  Chain heat makes `A` the trace head and `B` the interior page.
const A: u64 = 0x4080_0000;
const B: u64 = A + 0x1000;

/// `b +0x1000 ; subis x6,x6,1 ; add x19,x19,x4 ; b.ne -12 ; ret`
fn loop_page() -> Vec<u32> {
    vec![
        asm::b(0x1000),
        asm::subis(6, 6, 1),
        asm::add(19, 19, 4),
        asm::bcond(Cond::Ne, -12),
        asm::ret(),
    ]
}

/// `movz x4,#digit ; b -0x1000`
fn digit_page(digit: u32) -> Vec<u32> {
    vec![asm::movz(4, digit, 0), asm::b(-0x1000)]
}

/// `code` at the start of frame `i`, as the eight-byte words a [`Guest`] loads
/// (after the frames' own digits, which the first word replaces).
fn code_in_frame(i: u64, code: &[u32]) -> impl Iterator<Item = (u64, u64)> + '_ {
    code.chunks(2).enumerate().map(move |(n, pair)| {
        let high = pair.get(1).copied().unwrap_or(0) as u64;
        (frame(i) + n as u64 * 8, pair[0] as u64 | high << 32)
    })
}

/// The loop page in frame 4, digit 1 in frame 2 and digit 2 in frame 3.
fn loop_frames(g: &mut Guest) {
    g.words.extend(code_in_frame(4, &loop_page()));
    g.words.extend(code_in_frame(2, &digit_page(1)));
    g.words.extend(code_in_frame(3, &digit_page(2)));
}

/// A hundred trips of the loop whose first page is at `at`: far past the
/// formation threshold, so all but the first few run inside the region.
fn call_loop(a: &mut Assembler, at: u64) {
    a.push(asm::movz(6, 100, 0));
    a.mov_imm64(10, at + 4);
    a.push(asm::blr(10));
}

#[test]
fn an_interior_code_page_remapped_under_a_formed_region() {
    // No byte of code changes and the entry page stays where it was: only
    // the PTE of the interior page moves it from frame 2 to frame 3.
    let mut t = tables(0);
    t.map(A, frame(4), RW);
    t.map(B, frame(2), RW);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    call_loop(&mut a, A);
    store(&mut a, t.entry_addr(B, 1), pte(3));
    a.push(asm::tlbi());
    call_loop(&mut a, A);
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    loop_frames(&mut g);
    let runs = agree(&g);
    // x4 is 0 on the first trip, then 1; still 1 on the first trip of the
    // second call, then 2.
    assert_eq!(by_name(&runs, "qemu").regs[19], 99 + 1 + 2 * 99);
    assert!(
        by_name(&runs, "qemu+goto_tb").stats.goto_tb_transfers > 0,
        "the linked baseline chains across the loop's two pages"
    );
}

#[test]
fn two_address_spaces_that_share_a_regions_entry_page() {
    // No table page is written at all: `TTBR0` alone decides which frame
    // the interior page is.
    let (mut ta, mut tb) = (tables(0), tables(1));
    for (t, interior) in [(&mut ta, 2), (&mut tb, 3)] {
        t.map(A, frame(4), RW);
        t.map(B, frame(interior), RW);
    }
    let mut a = Assembler::new();
    prelude(&mut a, ta.root());
    call_loop(&mut a, A);
    for root in [tb.root(), ta.root(), tb.root()] {
        a.mov_imm64(0, root);
        a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
        call_loop(&mut a, A);
    }
    a.push(asm::hlt());
    let mut g = guest(a, &[&ta, &tb]);
    loop_frames(&mut g);
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 99 + (1 + 2 * 99) + (2 + 99) + (1 + 2 * 99));
}

#[test]
fn a_region_formed_with_the_mmu_off_then_sctlr_on_under_tables_that_move_a_page() {
    // With the MMU off the loop's pages are frames 4 and 5 themselves; the
    // tables keep frame 4 where it is and put frame 3 at frame 5's address.
    let mut t = tables(0);
    t.map(frame(5), frame(3), RW);
    let mut a = Assembler::new();
    a.mov_imm64(9, VECTOR);
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    a.mov_imm64(0, t.root());
    a.push(asm::msr(SysReg::Ttbr0 as u32, 0));
    a.push(asm::movz(19, 0, 0));
    call_loop(&mut a, frame(4));
    a.push(asm::movz(0, 1, 0));
    a.push(asm::msr(SysReg::Sctlr as u32, 0));
    call_loop(&mut a, frame(4));
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    loop_frames(&mut g);
    g.words.extend(code_in_frame(5, &digit_page(1)));
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 99 + 1 + 2 * 99);
}

/// The bypass of the whole rule: SimBench's two TLB kernels issue their
/// `tlbi`s with the guest MMU off, where there is no walk to keep and no
/// table to dirty, so neither engine may count a revalidation or a dirtied
/// table page (`figures -- fig19` prints the same counters).
#[test]
fn mmu_off_kernels_never_enter_the_revalidation_rule() {
    let tlb_kernels: Vec<_> = simbench::suite()
        .into_iter()
        .filter(|b| b.name.starts_with("TLB-"))
        .collect();
    assert_eq!(tlb_kernels.len(), 2);
    for b in tlb_kernels {
        let g = Guest::from(&bench::micro_workload(&b));
        for (engine, run) in bench::assert_agree(&g, &["qemu", "default"]) {
            let m = run.stats;
            assert_eq!(
                (
                    m.itlb_revalidated,
                    m.gtlb_revalidated,
                    m.table_pages_dirtied
                ),
                (0, 0, 0),
                "{} on {engine}: an MMU-off kernel went through the revalidation rule",
                b.name
            );
        }
    }
}

/// The same obligation for a predicted link: a `blr` / `ret` exit chains to
/// the first target it resolved only while the translation and the code it
/// was patched under still hold (`dbt::cache`, *Block chaining*).  `L`, a
/// page of its own, is `movz x4,#1 ; ret` in frame 2 (`#2` in frame 3); the
/// guest calls it `TRIPS` times, `change`s what `L` runs, and calls it
/// `TRIPS` times again, adding x4 into x19 after each call.
const L: u64 = 0x40C0_0000;

fn leaf(digit: u32) -> [u32; 2] {
    [asm::movz(4, digit, 0), asm::ret()]
}

fn call_leaf(a: &mut Assembler, label: &str) {
    a.mov_imm64(3, TRIPS);
    a.mov_imm64(10, L);
    a.label(label);
    a.push(asm::blr(10));
    a.push(asm::add(19, 19, 4));
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, label);
}

fn predicted_leaf_changes(change: impl FnOnce(&mut Assembler, &GuestTableImage)) {
    let mut t = tables(0);
    t.map(L, frame(2), RW);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    call_leaf(&mut a, "first");
    change(&mut a, &t);
    call_leaf(&mut a, "second");
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    g.words.extend(code_in_frame(2, &leaf(1)));
    g.words.extend(code_in_frame(3, &leaf(2)));
    let runs = agree(&g);
    assert_eq!(by_name(&runs, "qemu").regs[19], 3 * TRIPS);
    assert!(
        by_name(&runs, "sync").stats.predicted_transfers > TRIPS,
        "the calls ran on predicted links"
    );
}

#[test]
fn a_predicted_targets_page_remapped_then_tlbi() {
    predicted_leaf_changes(|a, t| {
        store(a, t.entry_addr(L, 1), pte(3));
        a.push(asm::tlbi());
    });
}

#[test]
fn a_code_write_to_a_predicted_targets_page() {
    // Through frame 2's identity mapping, not through `L`; the `tlbi` is the
    // baseline's instruction-cache maintenance.
    predicted_leaf_changes(|a, _| {
        a.mov_imm64(12, frame(2));
        a.mov_imm64(11, asm::movz(4, 2, 0) as u64);
        a.push(asm::strw(11, 12, 0));
        a.push(asm::tlbi());
    });
}

/// The same obligation for code itself: Captive's reuse store revives a
/// block on a page the guest has patched before only while every word the
/// block was made from is back in memory (`captive::spec`, *Patched
/// pages*).  `F`, in frame 6, is `addi x19, x19, #k ; ret`; the guest calls
/// it once, then stores `#5` and `#9` over its first word and calls it after
/// each store, `TRIPS` times, with the `tlbi` after each store the baseline
/// needs to notice a patch.
const F: u64 = FRAMES + 6 * 0x1000;
const TRIPS: u64 = 25;

/// `F` in its encoding `k`.
fn f_words(k: u32) -> [u32; 2] {
    [asm::addi(19, 19, k), asm::ret()]
}

/// The guest half of the toggle: x19 ends `14 * TRIPS` higher.
fn toggle(a: &mut Assembler) {
    a.mov_imm64(12, F);
    a.mov_imm64(3, TRIPS);
    a.push(asm::blr(12));
    a.label("toggle");
    for k in [5, 9] {
        a.mov_imm64(11, asm::addi(19, 19, k) as u64);
        a.push(asm::strw(11, 12, 0));
        a.push(asm::tlbi());
        a.push(asm::blr(12));
    }
    a.push(asm::subi(3, 3, 1));
    a.cbnz_to(3, "toggle");
}

/// The toggle under the MMU, `after` it, then `hlt`.
fn toggle_guest(after: impl FnOnce(&mut Assembler)) -> Guest {
    let t = tables(0);
    let mut a = Assembler::new();
    prelude(&mut a, t.root());
    toggle(&mut a);
    after(&mut a);
    a.push(asm::hlt());
    let mut g = guest(a, &[&t]);
    g.words.extend(code_in_frame(6, &f_words(0)));
    g
}

/// How many tier-0 installs the default engine served from the reuse store
/// running `g`.
fn revived(g: &Guest) -> u64 {
    let mut c = Captive::new(CaptiveConfig {
        virtio: g.virtio.clone(),
        ..CaptiveConfig::default()
    });
    bench::drive(g, &mut c);
    c.speculation().revived
}

#[test]
fn a_function_toggled_between_two_encodings() {
    let g = toggle_guest(|_| {});
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 14 * TRIPS);
    // The first two patched calls translate; every later one revives.
    assert_eq!(revived(&g), 2 * TRIPS - 2);
}

#[test]
fn a_device_read_that_puts_a_functions_old_bytes_back() {
    // After the toggle the guest has `#9` in place; the device writes `#5`
    // back over it (and zeros over the rest of the sector, as the page
    // held): no guest store, only the device's touched-page list says the
    // block is gone — and the bytes are ones the store has a block for.
    let g = {
        let mut g = toggle_guest(|a| {
            kick_and_wait(a);
            a.push(asm::blr(12));
        });
        let mut sector = vec![0; SECTOR_SIZE as usize];
        for (i, w) in f_words(5).into_iter().enumerate() {
            sector[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        device_read(&mut g, F, sector);
        g
    };
    let runs = agree(&g);
    let out = by_name(&runs, "qemu");
    assert_eq!(out.regs[19], 14 * TRIPS + 5);
    assert_eq!(revived(&g), 2 * TRIPS - 1, "the call after the DMA revived");
}
