//! The per-region translation driver: decode → generate → optimise →
//! allocate → encode.
//!
//! This is the online pipeline of Fig. 8, timed per phase for the Fig. 20
//! experiment, plus the explicit block-scoped optimisation phase
//! (`dbt::opt`) between emission and register allocation.  Every translation
//! it produces is a [`Region`]: [`translate_block`] emits the
//! one-constituent kind (a guest basic block, ending at the first
//! branch/exception instruction, at a page boundary, or at the configured
//! instruction limit), and `form_region_from` stitches a hot chained path —
//! including unrolled single-block self-loops — into a multi-constituent
//! one.  The block translator, [`translate_block_from`], is QemuRef's too:
//! each engine hands it its own per-instruction generator.
//!
//! A block is decided by the words it decoded.  A formed region is a
//! *virtual* path across pages, so the tracer hands it back together with
//! its [`Evidence`]: every guest word it decoded, as its snapshot held it,
//! and every virtual → physical translation it resolved on the way.  Every
//! region is traced from a [`crate::tier::FormationSnapshot`] — taken a
//! while ago for a tier-1 worker, or just now for the run thread's
//! `Captive::form_now` — so whoever serves one to a machine it was not just
//! traced from (the tier-1 install, the reuse store) asks the engine's one
//! gate (`Captive::evidence_holds`, in [`crate::formation`]) whether that
//! evidence still holds there.  The evidence has no negative half: a target
//! that did not resolve when traced ends the trace in an ordinary exit,
//! which costs optimality once the target is mapped, never correctness.

use crate::spec::Knobs;
use crate::tier::{SnapshotSource, PAGE_BYTES};
use crate::{layout, FpMode};
use dbt::idiom::RuleTable;
use dbt::{
    BlockExit, Emitter, Evidence, GuestIsa, Phase, PhaseClock, PhaseTimers, Region, RegionKey,
};
use guest_aarch64::gen::{self, Decoded};
use guest_aarch64::isa::Insn;
use guest_aarch64::Aarch64Isa;
use hvm::Machine;

/// Maximum guest instructions per translated block, on either engine.
pub const MAX_BLOCK_INSNS: usize = 64;

/// Translates one guest basic block starting at virtual address `pc`
/// (physical address `pa`) into a one-constituent region, reading the guest
/// words from live memory.  (The knobs are spelled out because the
/// benchmark's replay calls this positionally; the engine itself calls
/// [`translate_block_from`] with its [`Knobs`].)  `idioms` switches the
/// idiom layer on; the engine's rule set is always [`RuleTable::builtin`],
/// so a `Some` table must be that one.
#[allow(clippy::too_many_arguments)]
pub fn translate_block(
    isa: &Aarch64Isa,
    machine: &mut Machine,
    timers: &mut PhaseTimers,
    pc: u64,
    pa: u64,
    max_insns: usize,
    fp_mode: FpMode,
    run_opt: bool,
    promote: bool,
    idioms: Option<&RuleTable>,
) -> Region {
    debug_assert!(idioms.is_none_or(|table| table == RuleTable::builtin()));
    let knobs = Knobs {
        fp_mode,
        run_opt,
        promote,
        idioms: idioms.is_some(),
        unroll: 1,
    };
    translate_block_from(
        isa,
        |d, e| generate(fp_mode, d, e),
        |pa_i| live_code_word(machine, pa_i),
        None,
        timers,
        pc,
        pa,
        max_insns,
        &knobs,
    )
}

/// The guest code word at physical address `pa` as the block translator
/// fetches it: an unreadable word degrades to 0 (an UNDEF).
pub fn live_code_word(machine: &Machine, pa: u64) -> u32 {
    machine
        .mem
        .read_uint(layout::GUEST_PHYS_BASE + pa, 4)
        .unwrap_or(0) as u32
}

/// Captive's per-instruction generator: the shared soft-FP lowering
/// ([`gen::generate_soft_fp`]) under [`FpMode::Software`], the guest's
/// generator functions otherwise.
pub(crate) fn generate(fp_mode: FpMode, d: &Decoded, e: &mut Emitter) -> bool {
    match fp_mode {
        FpMode::Software => gen::generate_soft_fp(d, e),
        FpMode::Hardware => Aarch64Isa.generate(d, e),
    }
}

/// The block translator of either engine: [`translate_block`] and
/// Captive's tier-0 paths pass Captive's per-instruction generator, QemuRef
/// its softmmu lowering.  It emits each instruction through `generate` and
/// fetches through `read_word` (guest physical address → code word).  The
/// region is a pure function of the arguments and the words the closure
/// returns, asked for in ascending address order, one per translated
/// instruction.  `evidence`, if given, records each where it was fetched:
/// the [`Evidence`] the one gate checks before a block made from a page copy
/// ([`crate::spec`]) or kept on a patched page stands in for a synchronous
/// translation.
#[allow(clippy::too_many_arguments)]
pub fn translate_block_from(
    isa: &Aarch64Isa,
    generate: impl Fn(&Decoded, &mut Emitter) -> bool,
    mut read_word: impl FnMut(u64) -> u32,
    mut evidence: Option<&mut Evidence>,
    timers: &mut PhaseTimers,
    pc: u64,
    pa: u64,
    max_insns: usize,
    knobs: &Knobs,
) -> Region {
    // Fetch and decode the whole block first, then generate it: two phase
    // clock reads per block rather than two per instruction.  The decoder
    // cuts the block where the generator ends it — after an `ends_block`
    // instruction or an undefined word (asserted below).
    let mut clock = PhaseClock::start();
    // (No block runs past its page.)
    let mut decoded = Vec::with_capacity(max_insns.min(PAGE_BYTES / 4));
    let mut va = pc;
    loop {
        // Stop at page boundaries so a block never spans two translations
        // of different physical pages.
        if !decoded.is_empty() && (va & !0xFFF) != (pc & !0xFFF) {
            break;
        }
        // Every instruction shares the first one's page (the boundary check
        // above), so its physical address is pure offset arithmetic — no
        // walk, and the fetch iTLB counters stay dispatch-only.
        let pa_i = (pa & !0xFFF) | (va & 0xFFF);
        let word = read_word(pa_i);
        if let Some(evidence) = evidence.as_deref_mut() {
            evidence.words.push((pa_i, word));
        }
        let insn = isa.decode(word, va);
        let end = insn.is_none_or(|d| d.insn.ends_block());
        decoded.push((va, insn));
        va += 4;
        if end || decoded.len() >= max_insns {
            break;
        }
    }
    clock.close(timers, Phase::Decode);

    let mut emitter = Emitter::new();
    for &(va, insn) in &decoded {
        match insn {
            None => isa.generate_undefined(va, &mut emitter),
            Some(d) => {
                let end = generate(&d, &mut emitter);
                debug_assert_eq!(
                    end,
                    d.insn.ends_block(),
                    "the generator and the decoder cut {:?} differently",
                    d.insn
                );
                if !end {
                    emitter.inc_pc(4);
                }
            }
        }
    }
    clock.close(timers, Phase::Translate);
    let guest_insns = decoded.len();

    // Terminator metadata for direct chaining: a block that never emitted a
    // PC-setting terminator ended at the instruction limit or a page
    // boundary and falls through sequentially.
    let exit = emitter
        .exit_hint()
        .unwrap_or(BlockExit::Fallthrough { next: va });

    let lir = emitter.finish();
    let t = match finish(timers, lir, knobs) {
        Ok(t) => t,
        Err(_) => {
            // Graceful degradation: a lowering defect discards the
            // translation and the block becomes an UNDEF-raising stub, so
            // the guest observes an architectural fault instead of the host
            // executing corrupt code.
            timers.jit.lower_bailouts += 1;
            return undef_fallback_region(isa, timers, pc, pa);
        }
    };
    timers.jit.translated_units += 1;
    timers.jit.translated_guest_insns += guest_insns as u64;

    Region::block(pa, pc, guest_insns, exit, t)
}

/// Whether control comes back to the address right after a block ending on
/// `word` with no static branch naming it: the return address of a call,
/// the instruction after an exception or a block-ending system instruction.
/// After anything else (`b`, `br`, `ret`, `eret`, `hlt`, an undefined word)
/// only another branch reaches that address.  The speculative translator
/// ([`crate::spec`]) follows it in the first case only.
pub fn resumes_after(word: u32) -> bool {
    matches!(
        guest_aarch64::isa::decode(word),
        Some(Insn::Bl { .. } | Insn::Blr { .. } | Insn::Svc { .. } | Insn::Msr { .. } | Insn::Tlbi)
    )
}

/// The degraded translation used when lowering bails out on a plain block
/// (on either engine): a one-instruction region raising a guest UNDEF
/// exception at `pc`, so the guest observes an architectural fault instead
/// of the host executing corrupt code.  The stub itself uses no virtual
/// registers, so its lowering cannot fail.
fn undef_fallback_region(isa: &Aarch64Isa, timers: &mut PhaseTimers, pc: u64, pa: u64) -> Region {
    let mut emitter = Emitter::new();
    isa.generate_undefined(pc, &mut emitter);
    let lir = emitter.finish();
    let t = dbt::finish_translation(timers, lir, false, false, None)
        .expect("host bug: the UNDEF stub lowers without virtual registers");
    timers.jit.translated_units += 1;
    timers.jit.translated_guest_insns += 1;
    Region::block(pa, pc, 1, BlockExit::Opaque, t)
}

/// The shared back half under an engine's knobs.
fn finish(
    timers: &mut PhaseTimers,
    lir: Vec<dbt::LirInsn>,
    knobs: &Knobs,
) -> Result<dbt::FinishedTranslation, dbt::LowerError> {
    dbt::finish_translation(
        timers,
        lir,
        knobs.run_opt,
        knobs.promote,
        knobs.idioms.then(RuleTable::builtin),
    )
}

/// Maximum constituent basic blocks stitched into one region.
pub const REGION_MAX_BLOCKS: usize = 32;
/// Guest-instruction cap on one region trace.
pub const REGION_MAX_INSNS: usize = 256;

/// Result of one virtual-address resolution against a [`SnapshotSource`].
pub enum SourceRead {
    /// The address resolved to this physical address.
    Ok(u64),
    /// The address is not resolvable (unmapped, out of range): the trace
    /// ends here, exactly as the dispatcher's walk would fault.
    Fault,
    /// The snapshot does not hold the physical page (base carried here):
    /// formation must abort and report the page so the requester can refill
    /// the snapshot and form again.
    Missing(u64),
}

/// Outcome of a region formation.
#[derive(Debug)]
pub enum FormOutcome {
    /// A multi-constituent or looping region was formed.
    Formed {
        /// The region (boxed: the other variants are a fraction of its
        /// size), stamped with the source's context generation.
        region: Box<Region>,
        /// What it was made from.
        evidence: Evidence,
    },
    /// The trace closed at one constituent with no back-edge (a region
    /// would add nothing over the plain block), or lowering bailed out.
    TooShort,
    /// The snapshot was missing these physical pages; refill and form again.
    NeedPages(Vec<u64>),
}

/// A recorded constituent start: where in the trace a guest basic block
/// began, both architecturally (virtual/physical address, guest-instruction
/// count) and in the emitted LIR (so a later back-edge can bind its loop
/// label there).
struct ConstituentStart {
    va: u64,
    pa: u64,
    lir_pos: usize,
    guest_insns_before: usize,
}

/// What the trace does with a direct terminator's chosen target.
enum Step {
    /// Stitch forward into a new (or peeled) constituent at (va, pa).
    Forward(u64, u64),
    /// Close the loop: a region-internal back-edge to the target's first
    /// constituent.
    Close(u64),
    /// Generate the terminator unstitched; the trace ends at it.
    Plain,
}

/// Forms a multi-constituent region: re-decodes and re-lowers the hot
/// chained path starting at `entry_pc`/`entry_pa` as one translation,
/// stitching direct jumps and fallthroughs into internal transfers and
/// turning the off-trace leg of interior conditionals into out-of-line
/// side-exit stubs.  The trace stops at indirect exits, untranslatable
/// target pages, [`REGION_MAX_INSNS`] guest instructions, or
/// [`REGION_MAX_BLOCKS`] constituents.  [`FormOutcome::TooShort`] when the
/// result would be neither multi-constituent nor looping (a region would add
/// nothing over the plain block).
///
/// **Looping regions.** A back edge to an already-traced constituent does
/// not end the trace: it closes as a *region-internal backward transfer*
/// ([`hvm::MachInsn::BackEdge`]) to a label bound at the target's first
/// constituent, so a hot loop — the header, its body blocks, and the hotter
/// conditional legs — iterates entirely inside one translation.  Only cold
/// legs and the loop exit leave,
/// through side-exit stubs with precise PC; the closing conditional's exit
/// leg carries ordinary [`dbt::BlockExit::Branch`] metadata so it chains.
/// The trace always ends at the close (execution cannot proceed past a
/// closed loop).
///
/// **Unrolling.** Before closing, the loop body is *peeled*: back edges to
/// the loop header re-trace the body (forward-stitched like any hot path)
/// until `unroll` copies are stitched, and the back-edge then targets the
/// first copy, so each internal trip covers `unroll` iterations and the
/// per-iteration loop-back overhead is amortised.
///
/// For interior conditionals the continuation leg is chosen by profile: the
/// hotter chain-link slot of the cached region containing the branch,
/// falling back to the static backward-branch heuristic when the profile is
/// empty.
///
/// Formation is pure JIT work: it charges no simulated cycles and touches no
/// iTLB/gTLB counters (guest translations are resolved by walking the
/// snapshot's copy of the tables).
///
/// Every read goes to an immutable snapshot ([`SnapshotSource`]), whoever
/// runs the former: [`crate::tier`]'s `process` is its one caller, on a
/// worker or, for `Captive::form_now`, on the run thread.
pub(crate) fn form_region_from(
    isa: &Aarch64Isa,
    source: &mut SnapshotSource,
    timers: &mut PhaseTimers,
    entry_pc: u64,
    entry_pa: u64,
    knobs: &Knobs,
) -> FormOutcome {
    let ctx_gen = source.ctx_gen();
    let fp_mode = knobs.fp_mode;
    let unroll = knobs.unroll.max(1);
    let mut emitter = Emitter::new();
    let mut guest_insns = 0usize;
    let mut constituents = 1usize;
    let mut pages: Vec<u64> = vec![entry_pa & !0xFFF];
    // Every (physical address, word) decoded.
    let mut words: Vec<(u64, u32)> = Vec::new();
    // Every (virtual page, physical page) the trace relies on: the entry's,
    // then each one resolved below.
    let mut translations: Vec<(u64, u64)> = vec![(entry_pc & !0xFFF, entry_pa & !0xFFF)];
    let mut resolved = |va: u64, pa: u64| {
        let pair = (va & !0xFFF, pa & !0xFFF);
        if !translations.contains(&pair) {
            translations.push(pair);
        }
    };
    let mut visited: Vec<u64> = vec![entry_pc];
    let mut starts: Vec<ConstituentStart> = vec![ConstituentStart {
        va: entry_pc,
        pa: entry_pa,
        lir_pos: 0,
        guest_insns_before: 0,
    }];
    // The first back-edge target seen; peeling re-traces its body until
    // `unroll` copies are stitched, then the loop closes.
    let mut loop_header: Option<u64> = None;
    let mut back_edges = 0usize;
    let mut loop_guest_insns = 0usize;
    let mut va = entry_pc;
    let mut page_va = entry_pc & !0xFFF;
    let mut page_pa = entry_pa & !0xFFF;
    // Start of the constituent currently being translated, used to consult
    // the plain region's link heats for leg selection.
    let mut block_start_pa = entry_pa;
    let mut block_start_va = entry_pc;
    // One clock read per phase boundary: address resolution, fetch and
    // decode close as Decode; leg selection and generation as Translate.
    let mut clock = PhaseClock::start();

    loop {
        // Sequential page crossing: a fallthrough constituent boundary.
        if (va & !0xFFF) != page_va {
            if guest_insns >= REGION_MAX_INSNS || constituents >= REGION_MAX_BLOCKS {
                break;
            }
            match source.va_to_pa(va) {
                SourceRead::Ok(pa) => {
                    resolved(va, pa);
                    page_va = va & !0xFFF;
                    page_pa = pa & !0xFFF;
                    if !pages.contains(&page_pa) {
                        pages.push(page_pa);
                    }
                    constituents += 1;
                    visited.push(va);
                    block_start_pa = pa;
                    block_start_va = va;
                    emitter.trace_edge();
                    starts.push(ConstituentStart {
                        va,
                        pa,
                        lir_pos: emitter.lir_pos(),
                        guest_insns_before: guest_insns,
                    });
                }
                // The next page is not translatable right now: end the trace
                // with a fallthrough exit and let the dispatcher fault.
                SourceRead::Fault => break,
                SourceRead::Missing(page) => return FormOutcome::NeedPages(vec![page]),
            }
        }
        let pa_i = page_pa | (va & 0xFFF);
        let word = match source.read_code_word(pa_i) {
            Ok(w) => w,
            Err(page) => return FormOutcome::NeedPages(vec![page]),
        };
        words.push((pa_i, word));
        let decoded = isa.decode(word, va);
        clock.close(timers, Phase::Decode);
        let Some(d) = decoded else {
            // Undefined instruction: the guest's UNDEF exception, exactly
            // as the per-block translator emits it, ends the trace.
            isa.generate_undefined(va, &mut emitter);
            clock.close(timers, Phase::Translate);
            guest_insns += 1;
            va += 4;
            break;
        };

        // For direct terminators, pick the on-trace continuation and decide
        // whether it extends the trace, peels a loop body, or closes a
        // back-edge.  Physical addresses are resolved before generating, so
        // a stitched leg is known to be translatable.
        let budget_left = guest_insns + 1 < REGION_MAX_INSNS && constituents < REGION_MAX_BLOCKS;
        let candidate = match d.insn {
            Insn::B { offset } | Insn::Bl { offset } => Some(va.wrapping_add(offset as u64)),
            Insn::BCond { offset, .. } | Insn::Cbz { offset, .. } | Insn::Cbnz { offset, .. } => {
                let taken = va.wrapping_add(offset as u64);
                let fallthrough = va.wrapping_add(4);
                Some(choose_leg(
                    source,
                    block_start_pa,
                    block_start_va,
                    va,
                    taken,
                    fallthrough,
                ))
            }
            _ => None,
        };
        let step = match candidate {
            None => Step::Plain,
            Some(t) if !visited.contains(&t) => {
                if budget_left {
                    match source.va_to_pa(t) {
                        SourceRead::Ok(p) => {
                            resolved(t, p);
                            Step::Forward(t, p)
                        }
                        SourceRead::Fault => Step::Plain,
                        SourceRead::Missing(page) => {
                            return FormOutcome::NeedPages(vec![page]);
                        }
                    }
                } else {
                    Step::Plain
                }
            }
            Some(t) => {
                // A back edge to a traced constituent.  Peel while budget
                // allows and fewer than `unroll` copies of the header have
                // been stitched (a non-header revisit mid-peel is simply the
                // body path being re-traced); otherwise close the loop.
                let header = *loop_header.get_or_insert(t);
                let copies = visited.iter().filter(|v| **v == header).count();
                let peel = budget_left
                    && if t == header {
                        copies < unroll
                    } else {
                        copies > 1
                    };
                if peel {
                    let pa = starts
                        .iter()
                        .find(|s| s.va == t)
                        .map(|s| s.pa)
                        .expect("revisited constituent was recorded");
                    Step::Forward(t, pa)
                } else {
                    Step::Close(t)
                }
            }
        };

        match step {
            Step::Forward(target, target_pa) => {
                emitter.set_trace_next(target);
                generate(fp_mode, &d, &mut emitter);
                clock.close(timers, Phase::Translate);
                if emitter.take_stitched() {
                    guest_insns += 1;
                    constituents += 1;
                    visited.push(target);
                    va = target;
                    page_va = target & !0xFFF;
                    page_pa = target_pa & !0xFFF;
                    if !pages.contains(&page_pa) {
                        pages.push(page_pa);
                    }
                    block_start_pa = target_pa;
                    block_start_va = target;
                    starts.push(ConstituentStart {
                        va: target,
                        pa: target_pa,
                        lir_pos: emitter.lir_pos(),
                        guest_insns_before: guest_insns,
                    });
                    continue;
                }
                // The generator terminated without stitching (e.g. a folded
                // conditional resolved to the other leg): the trace ends
                // here.
                guest_insns += 1;
                va += 4;
                break;
            }
            Step::Close(target) => {
                let first = starts
                    .iter()
                    .find(|s| s.va == target)
                    .expect("closed target was traced");
                let insns_before = first.guest_insns_before;
                let label = emitter.insert_label_at(first.lir_pos);
                emitter.set_trace_back(target, label);
                generate(fp_mode, &d, &mut emitter);
                clock.close(timers, Phase::Translate);
                guest_insns += 1;
                if emitter.take_stitched_back() {
                    back_edges = 1;
                    loop_guest_insns = guest_insns - insns_before;
                } else {
                    // The generator resolved to the non-loop leg without
                    // stitching; the trace ends as an ordinary terminator
                    // (the stray loop label is harmless).
                    va += 4;
                }
                break;
            }
            Step::Plain => {
                let end = generate(fp_mode, &d, &mut emitter);
                if !end {
                    emitter.inc_pc(4);
                }
                clock.close(timers, Phase::Translate);
                guest_insns += 1;
                va += 4;
                if end || guest_insns >= REGION_MAX_INSNS {
                    break;
                }
            }
        }
    }

    if constituents < 2 && back_edges == 0 {
        return FormOutcome::TooShort;
    }

    let exit = emitter
        .exit_hint()
        .unwrap_or(BlockExit::Fallthrough { next: va });
    let lir = emitter.finish();
    let t = match finish(timers, lir, knobs) {
        Ok(t) => t,
        Err(_) => {
            // A lowering defect abandons the formation; the dispatcher keeps
            // running the constituent blocks and the quarantine/backoff
            // machinery decides when (or whether) to retry.
            timers.jit.lower_bailouts += 1;
            return FormOutcome::TooShort;
        }
    };
    timers.jit.translated_units += 1;
    timers.jit.translated_guest_insns += guest_insns as u64;

    // Copies of the loop body stitched (header occurrences); 1 when no loop
    // was peeled or closed.
    let unroll_copies = loop_header
        .map(|h| visited.iter().filter(|v| **v == h).count())
        .unwrap_or(1);

    // Revisits (unrolled and peeled copies) go, and so does their capacity:
    // the evidence outlives the trace in the reuse store.
    words.sort_unstable_by_key(|&(pa, _)| pa);
    words.dedup_by_key(|&mut (pa, _)| pa);
    words.shrink_to_fit();
    FormOutcome::Formed {
        region: Box::new(Region {
            constituents,
            pages,
            ctx_gen,
            unroll: unroll_copies,
            back_edges,
            loop_guest_insns,
            ..Region::block(entry_pa, entry_pc, guest_insns, exit, t)
        }),
        evidence: Evidence {
            words,
            translations,
        },
    }
}

/// Picks the continuation leg of an interior conditional: the hotter chain
/// link of the block holding the branch (as the snapshot froze the profile),
/// falling back to "backward taken targets are loops" when the profile is
/// empty or tied.
fn choose_leg(
    source: &SnapshotSource,
    block_pa: u64,
    block_va: u64,
    branch_va: u64,
    taken: u64,
    fallthrough: u64,
) -> u64 {
    if let Some((taken_heat, fall_heat)) = source.branch_heats(RegionKey {
        phys: block_pa,
        virt: block_va,
    }) {
        if taken_heat != fall_heat {
            return if taken_heat > fall_heat {
                taken
            } else {
                fallthrough
            };
        }
    }
    if taken <= branch_va {
        taken
    } else {
        fallthrough
    }
}
