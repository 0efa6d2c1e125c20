//! Golden digest of the JIT pipeline's *output*: what decode → generate →
//! `finish_translation` produces for every basic block of every `workloads`
//! and `simbench` program (the loop kernels among them), and what the region
//! former (`Captive::form_now`) produces at every block start of the same
//! programs under the `sync` configuration.
//!
//! Simulated cycles pin the generated code only indirectly (two different
//! register assignments can cost the same); this test pins it directly.  The
//! constants were recorded on the commit *before* the JIT's bookkeeping moved
//! from hash maps to id-indexed tables, so a data-structure change that
//! alters a visit order, a tie-break or a free-list pop shows up here as a
//! changed digest rather than as a silent codegen drift.  A deliberate
//! codegen change re-records them (the failure message prints the new value).
//!
//! Re-recorded once since, deliberately, by PR 19: the allocator's copy
//! hand-over (a `MovReg` whose source dies there inherits its register and
//! lowers to nothing — both block digests and the region digest) and carrier
//! write-through in promoted loops (the region digest only) change the
//! generated code on purpose.  Old → new: optimised blocks
//! 14102747009543490642 → 4047802076283090697, unoptimised blocks
//! 13337211852454269778 → 2156033232277762918, formed regions (1 734 of them,
//! unchanged) 3778306141397402819 → 13911468391831815842.
//!
//! Re-recorded since by the linear scan's splitting at the conflict point
//! (an active range whose next use is furthest moves to a spill slot where
//! the pool runs out, instead of the newcomer spilling whole): the formed
//! regions only, 13911468391831815842 → 7963228531206437328 (1 734 of them,
//! unchanged).  Both block digests stayed: no plain block of the corpus
//! splits a range.
//!
//! Re-recorded since by FP and vector code in host vector registers: the
//! emitter copies a two-address FP or vector operation's left operand with
//! one 128-bit `MovXmm` instead of `pxor` + `por` (all three digests), the
//! allocator hands a 128-bit vector copy's register over as it does a
//! `MovReg`'s, copy propagation folds vector copies, and promotion gives
//! vector register-file slots carriers of their own (optimised blocks and
//! regions), which the digest records as `0x100 | n`.  Old → new: optimised blocks 4047802076283090697
//! → 646391996551006341, unoptimised blocks 2156033232277762918 →
//! 4209554885306175824, formed regions (1 734 of them, unchanged)
//! 7963228531206437328 → 5818159398312631082.
//!
//! Re-recorded since by guest state materialised only where observed (the
//! optimiser's last three rewrites, `dbt::opt::observed`): the guest PC is
//! written only before an instruction that can observe it, a `Cmp v, 0` /
//! `Test v, v` whose flags the last writer set goes, and in a looping
//! region a register-file store only side exits read moves into exit
//! blocks.  Old → new: optimised blocks 646391996551006341 →
//! 3447436892846096501, formed regions (1 734 of them, unchanged)
//! 5818159398312631082 → 985360124679727422; unoptimised blocks unchanged
//! (the QemuRef path runs no optimiser).  The rewrites' counters are pinned
//! beside them as (PC writes elided, flag tests reused, stores sunk): the
//! `opt_pc_coalesced` they replace counted 10 511 on the blocks and 80 706
//! on the regions, so blocks (10 511, 0, 0) → (10 511, 88, 0) and regions
//! (80 706, 0, 0) → (128 393, 487, 22).  Promotion is unchanged on both:
//! 0 / 0 and 370 / 3 094 promoted slots / hoisted loads.
//!
//! Re-recorded since by deleting the `bulk.memset` idiom rule and the trip
//! weight of `BackEdge`: the formed regions only, 985360124679727422 →
//! 11674853345525642008 (1 734 of them, unchanged).  Measured in two steps:
//! without the rule, the weight still encoded, the digest read
//! 9031745016799440512, the same as the parent's with only its rule call
//! removed, so the operator and narrow-forwarding deletions of the same
//! change moved no byte; dropping the weight's four bytes from every
//! encoded `BackEdge` gave the final value.  Both block digests stayed:
//! a plain block has no back-edge and never matched the rule.  Without the
//! rule two fewer flag tests in the regions are reused: their observed-
//! rewrite counters go (128 393, 487, 22) → (128 393, 485, 22), which the
//! parent with only its rule call removed also reads.
//!
//! Re-recorded since by deleting the instructions-saved estimate: a
//! translation no longer carries its eliminated-LIR count, so the digest no
//! longer hashes that word; the generated code did not change.  The new
//! values were recorded on the parent with only this harness edit (the word
//! dropped) and the change reproduces them.  Old → new: optimised blocks
//! 3447436892846096501 → 13940797982505374788, unoptimised blocks
//! 4209554885306175824 → 4601298803248068673, formed regions (1 734 of them,
//! unchanged) 11674853345525642008 → 8451593499229917275.  The observed-
//! rewrite counters are unchanged.

use captive::translator::FormOutcome;
use dbt::{CounterField, Emitter, GuestIsa, PhaseTimers, RegionKey, RuleTable};
use guest_aarch64::Aarch64Isa;
use workloads::{Scale, Workload};

/// The bytes a digest covers, hashed with [`dbt::fnv1a`] at the end.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        dbt::fnv1a(&self.0)
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// One finished translation: encoded bytes and the promoted (slot, host
    /// register) pairs, a vector register as `0x100 | n`.
    fn translation(&mut self, encoded: &[u8], promoted: &[(i32, dbt::Carrier)]) {
        self.word(encoded.len() as u64);
        self.bytes(encoded);
        self.word(promoted.len() as u64);
        for &(off, carrier) in promoted {
            self.word(off as u32 as u64);
            self.word(match carrier {
                dbt::Carrier::Gpr(reg) => reg as u64,
                dbt::Carrier::Xmm(reg) => 0x100 | reg.0 as u64,
            });
        }
    }
}

/// Every program of both suites, in a fixed order.
fn programs() -> Vec<Workload> {
    let s = Scale(1);
    let mut all = workloads::spec_int(s);
    all.extend(workloads::spec_fp(s));
    all.extend(workloads::loop_kernels(s));
    all.extend(workloads::idiom_kernels(s));
    all.extend(workloads::io_kernels());
    all.push(workloads::fp_micro(s));
    all.push(workloads::interrupt_storm(8, 500));
    all.push(workloads::timer_tick(500, 2_000));
    all.push(workloads::loop_flood(24, 9, 3));
    all.push(workloads::vblk_smc().0);
    all.extend(simbench::suite().iter().map(bench::micro_workload));
    all
}

/// Basic-block start indices of `words` by linear sweep: a block ends where
/// the generator says it does (branch, exception), at an undefined word, or
/// at the dispatcher's 64-instruction cap.  Returns (start, LIR) per block.
fn blocks(words: &[u32]) -> Vec<(usize, Vec<dbt::LirInsn>)> {
    let isa = Aarch64Isa;
    let mut out = Vec::new();
    let mut i = 0;
    while i < words.len() {
        let start = i;
        let mut e = Emitter::new();
        loop {
            let va = workloads::CODE_BASE + i as u64 * 4;
            let end = match isa.decode(words[i], va) {
                None => {
                    isa.generate_undefined(va, &mut e);
                    true
                }
                Some(d) => {
                    let end = isa.generate(&d, &mut e);
                    if !end {
                        e.inc_pc(4);
                    }
                    end
                }
            };
            i += 1;
            if end || i - start >= 64 || i >= words.len() {
                break;
            }
        }
        out.push((start, e.finish()));
    }
    out
}

/// The digest of every block of the corpus, and the JIT counters their
/// translations added up to.
fn block_digest(run_opt: bool) -> (u64, dbt::JitCounters) {
    let table = RuleTable::builtin();
    let mut h = Digest::default();
    let mut timers = PhaseTimers::default();
    for w in programs() {
        for (_, lir) in blocks(&w.words) {
            match dbt::finish_translation(&mut timers, lir, run_opt, run_opt, Some(table)) {
                Ok(t) => h.translation(&t.encoded, &t.promoted),
                Err(_) => h.word(u64::MAX),
            }
        }
    }
    assert_eq!(timers.jit.lower_bailouts, 0);
    (h.finish(), timers.jit)
}

/// What the optimiser's last three rewrites did to a corpus.
fn observed_rewrites(jit: &dbt::JitCounters) -> (u64, u64, u64) {
    (jit.opt_pc_elided, jit.opt_flags_reused, jit.opt_stores_sunk)
}

#[test]
fn optimised_block_translations_are_byte_identical_to_the_recorded_digest() {
    let (digest, jit) = block_digest(true);
    assert_eq!(
        digest, 13_940_797_982_505_374_788,
        "generated code for plain blocks (optimiser on) changed"
    );
    assert_eq!(observed_rewrites(&jit), (10_511, 88, 0));
}

#[test]
fn unoptimised_block_translations_are_byte_identical_to_the_recorded_digest() {
    assert_eq!(
        block_digest(false).0,
        4_601_298_803_248_068_673,
        "generated code for plain blocks (optimiser off, the QemuRef path) changed"
    );
}

#[test]
fn formed_regions_are_byte_identical_to_the_recorded_digest() {
    let cfg = bench::captive_config("sync");
    let mut h = Digest::default();
    let mut formed = 0usize;
    let mut jit = dbt::JitCounters::default();
    for w in programs() {
        let mut c = captive::Captive::new(cfg.clone());
        c.load_program(workloads::CODE_BASE, &w.words);
        for (start, _) in blocks(&w.words) {
            let pc = workloads::CODE_BASE + start as u64 * 4;
            match c.form_now(RegionKey { phys: pc, virt: pc }) {
                FormOutcome::Formed { region: r, .. } => {
                    formed += 1;
                    let encoded = hvm::encode::encode_block(&r.code);
                    h.translation(&encoded, &r.promoted);
                    h.word(r.back_edges as u64);
                    h.word(r.unroll as u64);
                }
                _ => h.word(u64::MAX),
            }
        }
        jit.add(&c.timers.jit);
    }
    assert_eq!(
        (formed, h.finish()),
        (1734, 8_451_593_499_229_917_275),
        "generated code for formed regions changed"
    );
    assert_eq!(observed_rewrites(&jit), (128_393, 485, 22));
}

/// The digest of one block translated alone.
fn unit_digest(lir: Vec<dbt::LirInsn>, table: &RuleTable) -> u64 {
    let mut h = Digest::default();
    match dbt::finish_translation(&mut PhaseTimers::default(), lir, true, true, Some(table)) {
        Ok(t) => h.translation(&t.encoded, &t.promoted),
        Err(_) => h.word(u64::MAX),
    }
    h.finish()
}

#[test]
fn a_translation_does_not_depend_on_what_its_thread_translated_before() {
    // The back half works in one per-thread scratch that holds capacity,
    // never facts: whatever order the corpus goes through it in, and on a
    // thread that has translated nothing, every block comes out the same.
    let table = RuleTable::builtin();
    let corpus: Vec<Vec<dbt::LirInsn>> = programs()
        .iter()
        .flat_map(|w| blocks(&w.words))
        .map(|(_, lir)| lir)
        .collect();
    let in_order = |order: &[usize]| {
        let mut digests = vec![0u64; corpus.len()];
        for &k in order {
            digests[k] = unit_digest(corpus[k].clone(), table);
        }
        digests
    };
    let forward: Vec<usize> = (0..corpus.len()).collect();
    let expected = in_order(&forward);
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    assert_eq!(in_order(&reverse), expected, "reverse order");
    // Fisher-Yates under a fixed xorshift64 stream.
    let mut shuffled = forward.clone();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..shuffled.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    assert_ne!(shuffled, forward);
    assert_eq!(in_order(&shuffled), expected, "shuffled order");
    // Each on a thread of its own: a scratch that has seen nothing.
    for (k, lir) in corpus.iter().enumerate() {
        let lir = lir.clone();
        let fresh = std::thread::spawn(move || unit_digest(lir, table))
            .join()
            .expect("translation does not panic");
        assert_eq!(fresh, expected[k], "block {k} on a fresh thread");
    }
}

/// The rig the corpus runs on: the register file at 0x1000 (the spill area
/// below it), every general-purpose register addressing a line of the
/// 64 KiB data window at `workloads::DATA_BASE`, and that window full of
/// values that address it too, so that loads, stores and pointer chases
/// stay in it.
fn corpus_rig() -> dbt::probe::Rig {
    const WINDOW: usize = 0x1_0000;
    let base = workloads::DATA_BASE;
    let inside = |i: u64| base + (i * 0x238) % (WINDOW as u64 - 0x100);
    let layout = dbt::probe::Layout {
        regfile: 0x1000,
        regfile_len: guest_aarch64::regs::REGFILE_SIZE,
        data: base,
        data_len: WINDOW,
        phys_mem: base + WINDOW as u64 + 0x1000,
        entry_pc: workloads::CODE_BASE,
    };
    let mut regfile = vec![0u8; guest_aarch64::regs::REGFILE_SIZE];
    for i in 0..32u32 {
        let at = guest_aarch64::regs::x_off(i) as usize;
        regfile[at..at + 8].copy_from_slice(&inside(i as u64 + 1).to_le_bytes());
    }
    let v = guest_aarch64::regs::v_off(0) as usize;
    for (k, b) in regfile[v..v + 512].iter_mut().enumerate() {
        *b = (k * 37 + 11) as u8;
    }
    let data = (0..WINDOW as u64 / 8)
        .flat_map(|i| inside(i * 7 + 3).to_le_bytes())
        .collect();
    dbt::probe::Rig::new(layout, regfile, data)
}

#[test]
fn the_observed_state_rewrites_leave_every_observer_the_state_it_saw() {
    // Every block and every formed region of the corpus, translated with
    // the optimiser's last three rewrites (PC on demand, flag reuse,
    // exit-only stores) and without them, ends the same way with the same
    // register file (NZCV slot included), guest memory and guest PC, hands
    // every helper the same PC, and shows a data abort at each of its first
    // guest accesses (and at its last) the same register file and PC.
    let table = RuleTable::builtin();
    let mut rig = corpus_rig();
    let translate = |lir: Vec<dbt::LirInsn>| {
        dbt::finish_translation(&mut PhaseTimers::default(), lir, true, true, Some(table))
    };
    let mut blocks_run = 0;
    for w in programs() {
        for (start, lir) in blocks(&w.words) {
            let want = dbt::opt::without_observed_state_rewrites(|| translate(lir.clone()));
            let (got, want) = match (translate(lir), want) {
                (Ok(got), Ok(want)) => (got, want),
                (Err(_), Err(_)) => continue,
                (got, want) => panic!(
                    "{} block at word {start}: translated {:?} with the rewrites, {:?} without",
                    w.name,
                    got.map(|_| ()),
                    want.map(|_| ())
                ),
            };
            let ran = rig
                .compare((&got.code, &got.promoted), (&want.code, &want.promoted), 4)
                .unwrap_or_else(|e| panic!("{} block at word {start}: {e}", w.name));
            blocks_run += ran as u32;
        }
    }
    let cfg = bench::captive_config("sync");
    let mut regions_run = 0;
    for w in programs() {
        let mut c = captive::Captive::new(cfg.clone());
        c.load_program(workloads::CODE_BASE, &w.words);
        for (start, _) in blocks(&w.words) {
            let pc = workloads::CODE_BASE + start as u64 * 4;
            let mut form = || match c.form_now(RegionKey { phys: pc, virt: pc }) {
                FormOutcome::Formed { region, .. } => Some(region),
                _ => None,
            };
            let want = dbt::opt::without_observed_state_rewrites(&mut form);
            let (got, want) = match (form(), want) {
                (Some(got), Some(want)) => (got, want),
                (None, None) => continue,
                (got, want) => panic!(
                    "{} region at word {start}: formed {} with the rewrites, {} without",
                    w.name,
                    got.is_some(),
                    want.is_some()
                ),
            };
            let ran = rig
                .compare((&got.code, &got.promoted), (&want.code, &want.promoted), 4)
                .unwrap_or_else(|e| panic!("{} region at word {start}: {e}", w.name));
            regions_run += ran as u32;
        }
    }
    // Every region runs to its end: none is a loop the rig cannot finish.
    assert!(
        blocks_run > 1_800 && regions_run == 1734,
        "{blocks_run} blocks, {regions_run} regions run"
    );
}
