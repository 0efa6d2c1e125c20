//! Performance counters maintained by the machine.
//!
//! Every figure of `figures` and every `machine.*` metric of the benchmark
//! (`benchmark/README.md`) is computed from these counters (plus the JIT's
//! own wall-clock phase timers), so they are deliberately fine-grained.

/// Counters accumulated while the machine executes translated code.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfCounters {
    /// Total simulated cycles (per the [`crate::CostModel`]).
    pub cycles: u64,
    /// Host instructions executed.
    pub insns: u64,
    /// Memory accesses that went through the MMU.
    pub mem_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (each implies a page walk).
    pub tlb_misses: u64,
    /// Page walks that ended in a fault delivered to the fault handler.
    pub page_faults: u64,
    /// Runtime helper invocations.
    pub helper_calls: u64,
    /// Software interrupts delivered.
    pub interrupts: u64,
    /// Fast system calls executed.
    pub syscalls: u64,
    /// Explicit TLB flushes (all / PCID / single page).
    pub tlb_flushes: u64,
    /// CR3 (address-space) switches.
    pub cr3_writes: u64,
    /// Port I/O operations.
    pub port_ios: u64,
    /// Translated blocks entered (dispatch events).
    pub blocks_entered: u64,
    /// Blocks entered through a direct chain link (subset of
    /// `blocks_entered`; these paid the chain cost, not the dispatch cost).
    pub chained_entries: u64,
    /// Intra-superblock constituent transfers: stitched block boundaries
    /// crossed without returning to the dispatcher (each one is an
    /// interpreter entry that chaining alone would have paid for).
    pub superblock_transfers: u64,
    /// Region-internal backward transfers: loop-back edges taken inside one
    /// translation (each one is a whole loop trip that chaining alone would
    /// have re-entered the interpreter for).
    pub backedge_transfers: u64,
    /// Host instructions the LIR optimiser kept out of executed blocks: each
    /// block entry adds the number of LIR instructions eliminated from that
    /// translation (the dynamic instructions-saved count, `elided_dyn_insns`
    /// in the figures JSON).
    pub elided_insns: u64,
}

impl PerfCounters {
    /// TLB hit rate in [0, 1]; 1.0 when there were no memory accesses.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            1.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_accesses() {
        let p = PerfCounters::default();
        assert_eq!(p.tlb_hit_rate(), 1.0);
    }
}
