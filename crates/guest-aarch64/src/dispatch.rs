//! The one dispatcher: the run loop every engine executes, written once.
//!
//! The engines differ only in the decisions the paper compares (the
//! [`crate::sys`] docs list the axes and the hooks carrying each), so [`run`]
//! is the loop and an engine is its answers to the [`Dispatch`] hooks.  No
//! hook names an engine, and the loop takes no branch only one engine takes.
//! Each obligation of the loop is tested here against a scripted fake engine:
//! two engines sharing this loop could not catch a bug in it by agreeing.
//!
//! # Block chaining
//!
//! The dispatcher has a two-level structure:
//!
//! * The **slow path** retires device completions and drops what they made
//!   stale ([`Dispatch::settle`]), delivers a due IRQ, resolves the guest PC
//!   to a physical address ([`Dispatch::resolve`]: Captive's fetch-side iTLB,
//!   whose entries outlive a `TLBI` that touched none of the table pages they
//!   were read from, falling back to a guest page-table walk; the baseline's
//!   softmmu), and looks the block up in the code cache, translating on a
//!   miss ([`Dispatch::lookup`]; Captive also reads the guest's exception
//!   level there to pick the host protection ring).
//! * The **inner chained loop** then executes blocks back-to-back: when a
//!   block's exit has a live link into the exit PC, control transfers
//!   straight to the successor's code — no page walk, no cache lookup, no EL
//!   read.  A direct link is charged the near-zero [`hvm::CostModel::chain`]
//!   cost instead of the dispatcher's [`hvm::CostModel::dispatch`] cost; a
//!   predicted one is charged `chain` plus one [`hvm::CostModel::alu`], its
//!   compare.
//!
//! **Link structure.** Each [`dbt::Region`] records terminator metadata
//! ([`dbt::BlockExit`]) at translation time and carries two lazily patched
//! link slots: three kinds of link (direct, *predicted* for `br` / `blr` /
//! `ret`, none for an opaque exit) under one rule, `dbt::cache`'s *Block
//! chaining*.  The first time an exit finds its slot vacant and
//! [`Dispatch::may_chain`] allows a link, the dispatcher takes the slow path
//! once and patches the slot with the block it resolved.  A live link into
//! another PC is left as it is, so a predicted link keeps its first target
//! (on `indirect_dispatch`, a model of re-pointing to the last target made
//! about 3 M more patches per run and saved about one point less).
//!
//! **Generation scheme.** A link stores the *context generation* (Captive's,
//! bumped on guest `TLBI` and `TTBR0`/`SCTLR` writes; the baseline's full
//! cache flush *is* its generation bump) and the code cache's *invalidation
//! epoch* (bumped whenever blocks are discarded): [`Dispatch::link_stamp`].
//! Links are followed only while both stamps match, and they hold
//! [`std::sync::Weak`] references, so invalidation never scans predecessor
//! blocks: dropping a block kills links *into* it, and the epoch stamp kills
//! links *from* blocks the dispatcher still holds (including self-loops).
//!
//! **Invalidation rules.** Self-modifying code invalidates the written
//! physical page's translations (and bumps the epoch); `TLBI` and
//! translation-state `MSR`s bump the context generation, which retires
//! links and gated regions wholesale and makes every cached guest walk
//! re-justify itself once (`captive::itlb`, *The validity rule*); exception
//! delivery and `ERET` always leave the chained loop through the slow path,
//! which re-reads the exception level, so chained execution never runs in a
//! stale host ring.
//!
//! # Sliced runs
//!
//! A call that runs out of budget stops after a block whose exit it has not
//! examined yet.  [`crate::sys::GuestSys`] keeps that block, and the next
//! call resumes with the examination (`onward`), where one long call would
//! have gone on; a PC the host moved in between fails the exit's chain slot
//! or the link compare and takes the slow path.  A pending patch never
//! outlives a call: it is set only with budget left, and the slow path it
//! leads to consumes it (or drops it, for a delivered event or a flushing
//! [`Dispatch::settle`]) before the budget can run out.  So a driver that
//! slices a run into many calls, as the benchmark's traced runs do, sees the
//! simulated cycles of one call.

use crate::sys::{Engine, GuestEvent, RunExit, RunStats};
use dbt::{BlockExit, Carrier, Link, Region, RegionKey};
use hvm::{ExitReason, Gpr};
use std::sync::Arc;

/// The decisions on which the engines' dispatchers differ, each one of the
/// paper's axes; [`run`] is everything else.
pub trait Dispatch: Engine {
    /// Top of the slow path: retire due device completions and drop the
    /// translations whatever landed behind the translator's back made stale.
    /// `true` when that emptied the whole cache (drops the pending patch).
    fn settle(&mut self) -> bool;
    /// The guest physical address of an instruction fetch at `pc`, or the
    /// fault to deliver instead.
    fn resolve(&mut self, pc: u64) -> Result<u64, GuestEvent>;
    /// The translation at `key`, made and installed on a miss, with whatever
    /// the next block needs to run (the host ring) set up.
    fn lookup(&mut self, key: RegionKey) -> Arc<Region>;
    /// After every executed block, before its exit is examined.
    fn after_block(&mut self) {}
    /// The (context generation, cache epoch) links are patched and followed
    /// under.
    fn link_stamp(&self) -> (u64, u64);
    /// Whether `from`'s exit may go through a link.
    fn may_chain(&self, from: &Region) -> bool;
    /// A transfer just followed `from`'s link in `slot` to `next`; returns
    /// the translation to run there.
    fn chained(&mut self, from: &Arc<Region>, slot: usize, next: Arc<Region>) -> Arc<Region>;
    /// Runs `region` on the engine's machine and runtime, entered through a
    /// link when `chained`.
    fn execute(&mut self, region: &Region, chained: bool) -> ExitReason;
    /// The engine's counter table, which the loop increments (blocks,
    /// dispatches, chained transfers, patches, guest instructions).
    fn counters(&mut self) -> &mut RunStats;
}

/// Where a block that returned through `BlockEnd` or `HelperExit` goes.
enum Onward {
    /// Into this region, through a link.
    Link(Arc<Region>),
    /// Back to the slow path.
    Slow,
    /// Nowhere yet: the budget is spent, and the next call resumes here.
    Spent,
}

/// Runs the guest until it halts or `max_blocks` blocks have been executed
/// (chained transfers and delivered events count against the budget too).
pub fn run<D: Dispatch>(d: &mut D, max_blocks: u64) -> RunExit {
    let mut budget = max_blocks;
    // A region whose exit found its link slot vacant, and the slot: the
    // slow path patches it once the successor is known.
    let mut patch = None;
    while budget > 0 {
        if let Some(code) = d.parts().0.exit_code {
            return RunExit::GuestHalted { code };
        }
        // The block the last call ran out of budget after: examine its exit
        // now, as one long call would have (module docs, *Sliced runs*).
        let last = d.parts_mut().0.resume.take();
        let resumed = last.map(|last| onward(d, &last, false, budget, &mut patch));
        let (mut block, mut chained) = match resumed {
            Some(Onward::Link(next)) => (next, true),
            _ => {
                // Due device completions retire here, before event delivery
                // and before any translated code runs: the DMA lands through
                // the external-store path and the engine drops what it made
                // stale — the device's completion IRQ (if any) is then taken
                // below with the data already visible.
                if d.settle() {
                    patch = None;
                }
                let (sys, machine) = d.parts_mut();
                let pc = machine.reg(Gpr::R15);
                // Deterministic event sources deliver here (and at back-edge
                // preemption points that funnel back here): the guest PC is
                // architecturally precise, so ELR is exact even when a timer
                // expired mid-loop inside a region.
                if let Some(line) = sys.events.take(machine.perf.cycles) {
                    patch = None;
                    budget -= 1;
                    sys.deliver(machine, GuestEvent::Irq { line }, pc);
                    continue;
                }
                let pa = match d.resolve(pc) {
                    Ok(pa) => pa,
                    Err(event) => {
                        patch = None;
                        budget -= 1;
                        let (sys, machine) = d.parts_mut();
                        sys.deliver(machine, event, pc);
                        continue;
                    }
                };
                // One uniform lookup: the region at (entry phys, entry virt)
                // is whatever the best current translation for this entry is.
                // Virtual aliases of the same physical entry resolve to
                // distinct regions by construction of the key.
                let block = d.lookup(RegionKey { phys: pa, virt: pc });
                d.counters().slow_dispatches += 1;
                if let Some((prev, slot)) = patch.take() {
                    let (gen, epoch) = d.link_stamp();
                    prev.set_link(slot, gen, epoch, &block);
                    d.counters().chain_patches += 1;
                }
                (block, false)
            }
        };

        loop {
            let backedges_before = d.parts().1.perf.backedge_transfers;
            let exit = d.execute(&block, chained);
            // Loop trips that stayed inside the region during this entry
            // (each back-edge taken re-executed the looping portion).
            let trips = d.parts().1.perf.backedge_transfers - backedges_before;
            d.after_block();
            let s = d.counters();
            s.blocks += 1;
            s.guest_insns += block.guest_insns as u64 + trips * block.loop_guest_insns as u64;
            if block.is_multi() {
                s.region_entries += 1;
            }
            budget -= 1;
            match exit {
                ExitReason::BlockEnd | ExitReason::HelperExit => {
                    let helper_exit = exit == ExitReason::HelperExit;
                    match onward(d, &block, helper_exit, budget, &mut patch) {
                        Onward::Link(next) => {
                            block = next;
                            chained = true;
                        }
                        Onward::Slow => break,
                        Onward::Spent => {
                            d.parts_mut().0.resume = Some(block);
                            return RunExit::BudgetExhausted;
                        }
                    }
                }
                ExitReason::Halted => {
                    let code = d.parts().0.exit_code.unwrap_or(0);
                    return RunExit::GuestHalted { code };
                }
                ExitReason::MemFault { vaddr, write } => {
                    // A genuine guest data abort: deliver it to the guest.
                    // The machine's guest PC still addresses the faulting
                    // instruction, so ELR is exact even when the fault
                    // happened deep in a chain.
                    //
                    // If the region carries loop-promoted slots, their
                    // authoritative values sit in host registers at the
                    // fault point (the in-code compensation stores only run
                    // on dispatcher returns): materialise them so the abort
                    // handler observes a precise register file — a vector
                    // carrier holds both lanes of its 16-byte slot.
                    let (sys, machine) = d.parts_mut();
                    for &(off, carrier) in block.promoted.iter() {
                        match carrier {
                            Carrier::Gpr(gpr) => {
                                let value = machine.reg(gpr);
                                sys.write_gregfile(machine, off, value);
                            }
                            Carrier::Xmm(xmm) => {
                                let [low, high] = machine.xmm_reg(xmm).unwrap_or_default();
                                sys.write_gregfile(machine, off, low);
                                sys.write_gregfile(machine, off + 8, high);
                            }
                        }
                    }
                    let fault_pc = machine.reg(Gpr::R15);
                    sys.deliver(machine, GuestEvent::DataAbort { vaddr, write }, fault_pc);
                    break;
                }
                ExitReason::FuelExhausted => {
                    return RunExit::Error("translated block did not terminate".into())
                }
                ExitReason::Error(e) => return RunExit::Error(e),
            }
        }
    }
    RunExit::BudgetExhausted
}

/// Examines the exit of `block`, which returned through `BlockEnd` (or
/// `HelperExit` when `helper_exit`) with `budget` blocks left: the one place
/// a run decides whether to stay in the chained loop.
fn onward<D: Dispatch>(
    d: &mut D,
    block: &Arc<Region>,
    helper_exit: bool,
    budget: u64,
    patch: &mut Option<(Arc<Region>, usize)>,
) -> Onward {
    let (sys, machine) = d.parts_mut();
    if let Some(event) = sys.pending.take() {
        let pc_now = machine.reg(Gpr::R15);
        sys.deliver(machine, event, pc_now);
        return Onward::Slow;
    }
    // Helper exits (exception taken, ERET, sysreg write) may have changed
    // the EL or translation context: always re-dispatch through the slow
    // path.
    if helper_exit {
        return Onward::Slow;
    }
    if budget == 0 {
        return Onward::Spent;
    }
    let now = machine.perf.cycles;
    // A due event source leaves the chained loop so the slow path can
    // deliver the IRQ with a precise PC.  A due device completion also
    // leaves: retirement happens only at the dispatcher top, and a
    // self-chaining loop would otherwise starve it.
    if sys.events.due(now) || sys.virtio_due(now) {
        return Onward::Slow;
    }
    let next_pc = machine.reg(Gpr::R15);
    if !d.may_chain(block) {
        return Onward::Slow;
    }
    let Some(slot) = block.chain_slot(next_pc) else {
        return Onward::Slow;
    };
    let (gen, epoch) = d.link_stamp();
    match block.follow_link(slot, next_pc, gen, epoch) {
        Link::Follow(next) => {
            // Chained transfer: straight into the successor's code, skipping
            // page resolution, cache lookup and EL read.
            let s = d.counters();
            s.chained_transfers += 1;
            if block.exit == BlockExit::Indirect {
                // A predicted link: the compare, then the jump.
                s.predicted_transfers += 1;
                let machine = d.parts_mut().1;
                machine.perf.cycles += machine.cost.alu;
            }
            Onward::Link(d.chained(block, slot, next))
        }
        // Not re-pointed: a predicted link keeps its first target.
        Link::Elsewhere => Onward::Slow,
        // Take the slow path once and patch the slot there.
        Link::Vacant => {
            *patch = Some((Arc::clone(block), slot));
            Onward::Slow
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each obligation of the loop, checked against a fake engine whose
    //! blocks are a script: every block costs [`BLOCK_CYCLES`], ends the way
    //! [`Fake::program`] says, and the test's `script` may raise events, move
    //! registers or replace the exit after any block.  Blocks `A` and `B`
    //! jump to each other, so from the fourth block on the loop runs
    //! chained: A, B (patches A→B), A (patches B→A), B⇢, A⇢, …

    use super::*;
    use crate::regs::{esr_class, v_off, x_off, ELR_OFF, ESR_OFF, FAR_OFF, VBAR_OFF};
    use crate::sys::{GuestSys, HelperCosts};
    use dbt::FinishedTranslation;
    use hvm::virtio::mmio;
    use hvm::{Machine, MachineConfig, VirtioBlkConfig, Xmm};
    use std::collections::HashMap;

    const A: u64 = 0x1000;
    const B: u64 = 0x1010;
    /// A dispatch block: a register-indirect branch ([`threaded`]).
    const I: u64 = 0x1020;
    const VECTOR: u64 = 0x2000;
    /// Not in any program: fetching it faults.
    const UNMAPPED: u64 = 0x3000;
    const BLOCK_CYCLES: u64 = 10;
    const REGFILE: u64 = 0x1000;
    const GUEST_BASE: u64 = 0x1_0000;
    const GUEST_RAM: u64 = 0x1_0000;

    type Script = fn(usize, &mut GuestSys, &mut Machine) -> Option<ExitReason>;

    /// How a fake block ends.
    #[derive(Clone, Copy)]
    enum Ends {
        /// A direct jump.
        Jump(u64),
        /// A register-indirect branch, to these targets in turn.
        Indirect(&'static [u64]),
        /// An opaque exit that returns to translated code at this PC (a
        /// `Continue`-returning `MSR`).
        Opaque(u64),
        /// `HLT`.
        Halt,
    }

    struct Fake {
        machine: Machine,
        sys: GuestSys,
        stats: RunStats,
        /// How each block ends, by entry PC.
        program: HashMap<u64, Ends>,
        cache: HashMap<RegionKey, Arc<Region>>,
        /// The promoted carriers every block is translated with.
        promoted: Vec<(i32, Carrier)>,
        /// Every block executed: (entry PC, entered through a link).
        ran: Vec<(u64, bool)>,
        /// Called after the n-th block (from 1); `Some` replaces its exit.
        script: Script,
        /// `settle` reports an emptied cache every time.
        flushing: bool,
        /// Blocks executed when `settle` retired a device completion.
        retired_after: Vec<usize>,
    }

    fn fake(script: Script) -> Fake {
        let mut machine = Machine::new(MachineConfig {
            phys_mem: 1 << 20,
            ..MachineConfig::default()
        });
        let costs = HelperCosts {
            putchar: 0,
            exit: 0,
            exception: 0,
            msr_notify: 0,
            fcmp: 0,
            eret: 0,
            hlt: 0,
            soft_fp: 0,
            soft_sqrt: 0,
            vec_op: 0,
        };
        let sys = GuestSys::new(&mut machine, REGFILE, GUEST_BASE, GUEST_RAM, costs);
        sys.write_gregfile(&mut machine, VBAR_OFF, VECTOR);
        machine.set_reg(Gpr::R15, A);
        Fake {
            machine,
            sys,
            stats: RunStats::default(),
            program: HashMap::from([(A, Ends::Jump(B)), (B, Ends::Jump(A)), (VECTOR, Ends::Halt)]),
            cache: HashMap::new(),
            promoted: Vec::new(),
            ran: Vec::new(),
            script,
            flushing: false,
            retired_after: Vec::new(),
        }
    }

    /// `A` and `B` jump to `I`, whose indirect branch goes to A, A, B, A, A,
    /// B, …: its predicted link (A, the first target it resolved) is right
    /// two times in three.
    fn threaded() -> Fake {
        let mut f = fake(|_, _, _| None);
        f.program.insert(A, Ends::Jump(I));
        f.program.insert(B, Ends::Jump(I));
        f.program.insert(I, Ends::Indirect(&[A, A, B]));
        f
    }

    impl Fake {
        fn reg(&self, offset: i32) -> u64 {
            self.sys.read_gregfile(&self.machine, offset)
        }

        fn chained_blocks(&self) -> usize {
            self.ran.iter().filter(|(_, chained)| *chained).count()
        }

        /// For every transfer from `from` to `to`, in order: whether `to` was
        /// entered through a link.
        fn transfers(&self, from: u64, to: u64) -> Vec<bool> {
            self.ran
                .windows(2)
                .filter(|w| w[0].0 == from && w[1].0 == to)
                .map(|w| w[1].1)
                .collect()
        }
    }

    impl Engine for Fake {
        fn parts(&self) -> (&GuestSys, &Machine) {
            (&self.sys, &self.machine)
        }
        fn parts_mut(&mut self) -> (&mut GuestSys, &mut Machine) {
            (&mut self.sys, &mut self.machine)
        }
        fn run(&mut self, max_blocks: u64) -> RunExit {
            run(self, max_blocks)
        }
        fn stats(&self) -> RunStats {
            let mut s = self.stats;
            self.sys.sample(&mut s);
            s
        }
    }

    impl Dispatch for Fake {
        fn settle(&mut self) -> bool {
            if self.sys.poll_virtio(&mut self.machine).is_some() {
                self.retired_after.push(self.ran.len());
            }
            self.flushing
        }
        fn resolve(&mut self, pc: u64) -> Result<u64, GuestEvent> {
            match self.program.contains_key(&pc) {
                true => Ok(pc),
                false => Err(GuestEvent::InstrAbort { vaddr: pc }),
            }
        }
        fn lookup(&mut self, key: RegionKey) -> Arc<Region> {
            let exit = match self.program[&key.virt] {
                Ends::Jump(target) => BlockExit::Jump { target },
                Ends::Indirect(_) => BlockExit::Indirect,
                Ends::Opaque(_) | Ends::Halt => BlockExit::Opaque,
            };
            let promoted = &self.promoted;
            let region = self.cache.entry(key).or_insert_with(|| {
                let code = FinishedTranslation {
                    code: Vec::new(),
                    encoded: Vec::new(),
                    promoted: promoted.clone(),
                };
                Arc::new(Region::block(key.phys, key.virt, 1, exit, code))
            });
            Arc::clone(region)
        }
        fn link_stamp(&self) -> (u64, u64) {
            (0, 0)
        }
        fn may_chain(&self, _from: &Region) -> bool {
            true
        }
        fn chained(&mut self, _: &Arc<Region>, _: usize, next: Arc<Region>) -> Arc<Region> {
            next
        }
        fn execute(&mut self, region: &Region, chained: bool) -> ExitReason {
            let pc = region.guest_virt;
            let visits = self.ran.iter().filter(|&&(at, _)| at == pc).count();
            self.ran.push((pc, chained));
            self.machine.perf.cycles += BLOCK_CYCLES;
            let next = match self.program[&pc] {
                Ends::Jump(next) | Ends::Opaque(next) => Some(next),
                Ends::Indirect(targets) => Some(targets[visits % targets.len()]),
                Ends::Halt => None,
            };
            let exit = match next {
                Some(next) => {
                    self.machine.set_reg(Gpr::R15, next);
                    ExitReason::BlockEnd
                }
                None => ExitReason::Halted,
            };
            (self.script)(self.ran.len(), &mut self.sys, &mut self.machine).unwrap_or(exit)
        }
        fn counters(&mut self) -> &mut RunStats {
            &mut self.stats
        }
    }

    /// The first five blocks and the vector: A, B, A dispatched, then B, A
    /// through links.
    const CHAIN_THEN_VECTOR: [(u64, bool); 6] = [
        (A, false),
        (B, false),
        (A, false),
        (B, true),
        (A, true),
        (VECTOR, false),
    ];

    #[test]
    fn a_due_irq_leaves_a_chain_at_the_next_block_boundary() {
        let mut f = fake(|n, sys, _| {
            if n == 5 {
                sys.events.latch.raise(7);
            }
            None
        });
        assert_eq!(f.run(100), RunExit::GuestHalted { code: 0 });
        assert_eq!(
            f.ran, CHAIN_THEN_VECTOR,
            "no block between the raise and the vector"
        );
        assert_eq!(f.reg(ELR_OFF), B, "ELR is the PC the chain stopped at");
        assert_eq!(f.reg(ESR_OFF), esr_class::IRQ << 26 | 7);
        assert_eq!(f.stats().irqs_delivered, 1);
    }

    #[test]
    fn a_pending_event_is_delivered_before_any_further_block_with_the_post_block_pc() {
        let mut f = fake(|n, sys, _| {
            (n == 5).then(|| {
                sys.pending = Some(GuestEvent::DataAbort {
                    vaddr: 0xBAD,
                    write: true,
                });
                ExitReason::HelperExit
            })
        });
        assert_eq!(f.run(100), RunExit::GuestHalted { code: 0 });
        assert_eq!(f.ran, CHAIN_THEN_VECTOR);
        assert_eq!(f.sys.pending, None);
        assert_eq!(f.reg(ELR_OFF), B, "the PC after the block, not its entry");
        assert_eq!(f.reg(FAR_OFF), 0xBAD);
        assert_eq!(f.reg(ESR_OFF), esr_class::DATA_ABORT << 26 | 1);
    }

    #[test]
    fn a_mem_fault_stores_every_promoted_pair_before_delivery() {
        const FAULT_PC: u64 = A + 8;
        let mut f = fake(|n, _, m| {
            (n == 5).then(|| {
                m.set_reg(Gpr::Rbx, 0x33);
                m.set_reg(Gpr::R12, 0x55);
                m.set_xmm(Xmm(4), [0x77, 0x99]);
                m.set_reg(Gpr::R15, FAULT_PC);
                ExitReason::MemFault {
                    vaddr: 0xF00,
                    write: false,
                }
            })
        });
        f.promoted = vec![
            (x_off(3), Carrier::Gpr(Gpr::Rbx)),
            (x_off(5), Carrier::Gpr(Gpr::R12)),
            (v_off(2), Carrier::Xmm(Xmm(4))),
        ];
        assert_eq!(f.run(100), RunExit::GuestHalted { code: 0 });
        assert_eq!(f.ran, CHAIN_THEN_VECTOR);
        assert_eq!(
            f.reg(x_off(3)),
            0x33,
            "carrier x3 reached the register file"
        );
        assert_eq!(
            f.reg(x_off(5)),
            0x55,
            "carrier x5 reached the register file"
        );
        assert_eq!(
            (f.reg(v_off(2)), f.reg(v_off(2) + 8)),
            (0x77, 0x99),
            "both lanes of carrier v2 reached the register file"
        );
        assert_eq!(f.reg(ELR_OFF), FAULT_PC, "ELR is the faulting PC");
        assert_eq!(f.reg(FAR_OFF), 0xF00);
        assert_eq!(f.reg(ESR_OFF), esr_class::DATA_ABORT << 26);
    }

    #[test]
    fn the_budget_counts_delivered_events_and_executed_blocks() {
        // An IRQ after the second block, then a vector that branches to an
        // unmapped PC: every later trip is one block plus one delivered
        // instruction abort.
        for budget in 1..=12 {
            let mut f = fake(|n, sys, _| {
                if n == 2 {
                    sys.events.latch.raise(7);
                }
                None
            });
            f.program.insert(VECTOR, Ends::Jump(UNMAPPED));
            assert_eq!(f.run(budget), RunExit::BudgetExhausted);
            let s = f.stats();
            assert_eq!(
                f.ran.len() as u64 + s.guest_exceptions,
                budget,
                "blocks {:?} and {} deliveries under a budget of {budget}",
                f.ran,
                s.guest_exceptions
            );
            assert_eq!(s.blocks, f.ran.len() as u64);
            assert_eq!(s.blocks, s.slow_dispatches + s.chained_transfers);
        }
    }

    #[test]
    fn a_settle_that_empties_the_cache_drops_the_pending_patch() {
        let run = |flushing: bool| {
            let mut f = fake(|_, _, _| None);
            f.flushing = flushing;
            assert_eq!(f.run(12), RunExit::BudgetExhausted);
            (f.stats(), f.chained_blocks())
        };
        let (kept, chained) = run(false);
        assert_eq!(kept.chain_patches, 2, "A→B and B→A");
        assert_eq!(chained, 9);
        let (flushed, chained) = run(true);
        assert_eq!(flushed.chain_patches, 0, "every patch was dropped");
        assert_eq!(chained, 0);
        assert_eq!(flushed.slow_dispatches, 12);
    }

    #[test]
    fn a_due_device_completion_leaves_the_chain() {
        // A kick after the fourth block queues one request due 15 cycles
        // later, i.e. once the sixth block has run.  Its descriptor chain is
        // empty, which the device still answers with one (error) completion.
        let mut f = fake(|n, sys, m| {
            if n == 4 {
                sys.virtio.as_mut().unwrap().kick(&mut m.mem, m.perf.cycles);
            }
            None
        });
        let cfg = VirtioBlkConfig {
            mmio_base: 0x1000,
            completion_latency: 15,
            ..VirtioBlkConfig::default()
        };
        f.sys.attach_virtio(&mut f.machine, cfg);
        let mem = &mut f.machine.mem;
        mem.write_u64(GUEST_BASE + 0x1000 + mmio::QUEUE_AVAIL, 0x3000)
            .unwrap();
        mem.write_u64(GUEST_BASE + 0x3000, 1).unwrap(); // avail.idx
        assert_eq!(f.run(20), RunExit::BudgetExhausted);
        assert_eq!(f.retired_after, [6], "retired at the first boundary due");
        assert_eq!(f.stats().virtio_completions, 1);
        assert!(
            f.ran[6..].iter().any(|&(_, chained)| chained),
            "and chains again"
        );
    }

    #[test]
    fn a_predicted_link_is_followed_only_into_the_pc_the_exit_went_to() {
        let mut f = threaded();
        assert_eq!(f.run(60), RunExit::BudgetExhausted);
        let mut went = vec![A];
        for k in 0..30 {
            went.extend([I, [A, A, B][k % 3]]);
        }
        went.truncate(60);
        let pcs: Vec<u64> = f.ran.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(
            pcs, went,
            "every block ran at the PC its predecessor went to"
        );
        let into_b = f.transfers(I, B);
        assert!(
            !into_b.is_empty() && into_b.iter().all(|&linked| !linked),
            "a mispredicted exit takes the slow path"
        );
        let into_a = f.transfers(I, A);
        assert!(!into_a[0], "the first transfer patches the link");
        assert!(
            into_a[1..].iter().all(|&linked| linked),
            "the later ones follow it"
        );
        let s = f.stats();
        assert_eq!(s.predicted_transfers, into_a.len() as u64 - 1);
        assert_eq!(s.blocks, s.slow_dispatches + s.chained_transfers);
        assert_eq!(
            f.machine.perf.cycles,
            60 * BLOCK_CYCLES + s.predicted_transfers * f.machine.cost.alu,
            "a predicted transfer adds one compare (the fake charges no jump)"
        );
    }

    #[test]
    fn a_live_mispredicted_link_is_not_re_pointed() {
        let mut f = threaded();
        assert_eq!(f.run(60), RunExit::BudgetExhausted);
        assert_eq!(f.stats().chain_patches, 3, "A→I, I→A and B→I, once each");
    }

    #[test]
    fn an_opaque_exit_never_links() {
        // A is a `Continue`-returning `MSR`: it ends its block and returns to
        // translated code at B, which jumps back.
        let mut f = fake(|_, _, _| None);
        f.program.insert(A, Ends::Opaque(B));
        assert_eq!(f.run(40), RunExit::BudgetExhausted);
        assert!(
            f.transfers(A, B).iter().all(|&linked| !linked),
            "every exit of the opaque block is dispatched"
        );
        assert!(
            f.transfers(B, A)[1..].iter().all(|&linked| linked),
            "while the direct one chains"
        );
        assert_eq!(f.stats().chain_patches, 1, "B→A only");
    }

    #[test]
    fn a_run_sliced_at_any_budget_is_the_run_in_one_call() {
        // Direct links (A→I, B→I), predicted hits (I→A) and mispredictions
        // (I→B), cut into calls of every size.
        const BLOCKS: u64 = 24;
        let mut whole = threaded();
        assert_eq!(whole.run(BLOCKS), RunExit::BudgetExhausted);
        for slice in 1..=BLOCKS {
            let mut f = threaded();
            let mut left = BLOCKS;
            while left > 0 {
                let step = slice.min(left);
                assert_eq!(f.run(step), RunExit::BudgetExhausted);
                left -= step;
            }
            assert_eq!(f.ran, whole.ran, "calls of {slice}");
            assert_eq!(f.machine.perf.cycles, whole.machine.perf.cycles);
            assert_eq!(
                f.stats().differs_across_reruns(&whole.stats()),
                None,
                "calls of {slice}"
            );
        }
    }
}
