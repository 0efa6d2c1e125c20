//! Wall-clock timers for the four JIT compilation phases (Fig. 20), plus the
//! tier-level accounting of the two-tier translation service: how much JIT
//! wall-clock the run thread actually *stalled* on versus what ran hidden on
//! background formation workers.

use crate::counters::{CounterField, JitCounters};
use std::time::{Duration, Instant};

/// The four phases of the online pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Guest instruction decoding.
    Decode,
    /// Generator-function invocation / DAG collapse / LIR emission.
    Translate,
    /// Live-range analysis and register assignment.
    RegAlloc,
    /// Lowering and byte encoding.
    Encode,
}

/// Accumulated time per phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {
    /// Time spent decoding guest instructions.
    pub decode: Duration,
    /// Time spent in translation (DAG building and collapse).
    pub translate: Duration,
    /// Time spent in the optimiser and register allocation.
    pub regalloc: Duration,
    /// The optimiser's share of `regalloc` (not a fifth phase: the four
    /// phases still sum to [`PhaseTimers::total`]).
    pub opt: Duration,
    /// Time spent encoding machine code.
    pub encode: Duration,
    /// What the translations timed here did, statically (summed per
    /// translation by [`crate::finish_translation`] and the translators).
    pub jit: JitCounters,
}

impl PhaseTimers {
    fn credit(&mut self, phase: Phase, elapsed: Duration) {
        match phase {
            Phase::Decode => self.decode += elapsed,
            Phase::Translate => self.translate += elapsed,
            Phase::RegAlloc => self.regalloc += elapsed,
            Phase::Encode => self.encode += elapsed,
        }
    }

    /// Total JIT compilation time.
    pub fn total(&self) -> Duration {
        self.decode + self.translate + self.regalloc + self.encode
    }

    /// Merges another set of timers into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        self.decode += other.decode;
        self.translate += other.translate;
        self.regalloc += other.regalloc;
        self.opt += other.opt;
        self.encode += other.encode;
        self.jit.add(&other.jit);
    }
}

/// A chained phase clock for loops that alternate phases back to back (the
/// per-guest-instruction fetch/decode → generate loop of the translators):
/// one clock read per phase *boundary* instead of a start/stop pair per
/// phase, each interval credited to the phase it closes.  Whatever sits
/// between two phases (the instruction fetch, a trace-leg decision) is
/// therefore counted with the phase that follows it.
#[derive(Debug)]
pub struct PhaseClock {
    last: Instant,
}

impl PhaseClock {
    /// Starts the clock: the first interval begins now.
    pub fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
        }
    }

    /// Credits the time since the previous boundary to `phase` and opens
    /// the next interval.
    pub fn close(&mut self, timers: &mut PhaseTimers, phase: Phase) {
        let now = Instant::now();
        timers.credit(phase, now - self.last);
        self.last = now;
    }
}

/// Wall-clock accounting of the tiered translation service, kept separate
/// from the per-phase [`PhaseTimers`]: these attribute time to *who paid for
/// it* (the run thread vs a background worker), not to a pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierTimers {
    /// JIT wall-clock the run thread blocked on: tier-0 block translation,
    /// snapshot capture, waits for in-flight tier-1 results, the formations
    /// it claimed from the queue instead of waiting, their snapshot refills,
    /// and synchronous formation fallbacks.  This is the guest-visible
    /// translation latency.
    pub run_thread_stall: Duration,
    /// Wall-clock pool workers spent on the answers the run thread took up:
    /// the formation results it waited for and the speculative blocks it
    /// installed (hidden behind
    /// tier-0 execution; overlaps `run_thread_stall` only when the run
    /// thread had to wait for a worker's result).  A formation the run
    /// thread claimed is never booked here.
    pub worker_wall: Duration,
    /// Time from engine construction to the first gated (multi-constituent
    /// or looping) region install, if one happened.
    pub first_install: Option<Duration>,
}

impl TierTimers {
    /// Records the first gated-region install at `since_launch` after engine
    /// construction (later installs are ignored).
    pub fn record_install(&mut self, since_launch: Duration) {
        self.first_install.get_or_insert(since_launch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_clock_credits_each_interval_to_the_phase_it_closes() {
        let mut t = PhaseTimers::default();
        let outer = Instant::now();
        let mut clock = PhaseClock::start();
        std::thread::sleep(Duration::from_millis(2));
        clock.close(&mut t, Phase::Decode);
        std::thread::sleep(Duration::from_millis(4));
        clock.close(&mut t, Phase::Translate);
        let elapsed = outer.elapsed();
        assert!(t.decode >= Duration::from_millis(2));
        assert!(t.translate >= Duration::from_millis(4));
        // Pooling would credit the first interval twice and overrun the
        // wall-clock the two closes span, however the sleeps are scheduled.
        assert!(
            t.decode + t.translate <= elapsed,
            "the intervals are not pooled"
        );
        assert_eq!(t.regalloc + t.encode, Duration::ZERO);
    }

    #[test]
    fn merge_accumulates() {
        let timed = |decode_ms, units, insns| PhaseTimers {
            decode: Duration::from_millis(decode_ms),
            regalloc: Duration::from_millis(2 * decode_ms),
            opt: Duration::from_millis(decode_ms),
            jit: JitCounters {
                translated_units: units,
                translated_guest_insns: insns,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut a = timed(1, 2, 10);
        a.merge(&timed(2, 3, 7));
        assert_eq!(a.decode, Duration::from_millis(3));
        // The optimiser's time is a share of `regalloc`, not a fifth phase.
        assert_eq!(a.opt, Duration::from_millis(3));
        assert_eq!(a.total(), Duration::from_millis(9));
        assert_eq!(a.jit.translated_units, 5);
        assert_eq!(a.jit.translated_guest_insns, 17);
    }
}
