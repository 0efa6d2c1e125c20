//! Counter tables: a struct of `u64` counters declared **once**, with its
//! ordered walk and its field-wise sum generated from the same list.
//!
//! [`counter_table!`] takes `Kind name: type` lines.  A counter is therefore
//! one line — the declaration — plus the increment wherever the event
//! happens: everything downstream (the figures JSON, the determinism and
//! cross-engine diffs, a merge of two translations' counters) goes through
//! [`CounterField::walk_into`] and [`CounterField::add`], never through a
//! second hand-written list.  A field is a `u64`, a per-rule `[u64;
//! RULE_COUNT]` (walked as `name.<rule>`), or another table, which walks
//! its own fields under their own names and kinds.
//!
//! Two tables exist: [`JitCounters`] here (what the JIT did, statically,
//! embedded by [`crate::PhaseTimers`], [`crate::OptStats`] and the run
//! statistics) and `guest_aarch64::sys::RunStats` (everything an engine
//! reports about a run; its module docs say what each [`Kind`] promises and
//! which test holds it to that).

use crate::idiom::{RuleKind, RULE_COUNT};

/// What a counter's value may depend on — and so who may be held equal to
/// whom on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Guest-visible: equal on every engine and configuration that runs the
    /// same guest.
    Architectural,
    /// A function of the guest and one engine configuration: equal across
    /// reruns, whatever the host scheduler does.
    Deterministic,
    /// Host wall-clock time.
    Wall,
}

/// One sampled counter, as a table's walk yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// The declared field name (`name.<rule>` for a per-rule array).
    pub name: String,
    /// The declared kind.
    pub kind: Kind,
    /// The value.
    pub value: u64,
}

/// A field of a counter table.
pub trait CounterField {
    /// Appends every `u64` this field holds, in declaration order.
    fn walk_into(&self, name: &str, kind: Kind, out: &mut Vec<Counter>);
    /// Adds `other` to `self`, counter by counter.
    fn add(&mut self, other: &Self);
}

impl CounterField for u64 {
    fn walk_into(&self, name: &str, kind: Kind, out: &mut Vec<Counter>) {
        out.push(Counter {
            name: name.to_string(),
            kind,
            value: *self,
        });
    }
    fn add(&mut self, other: &Self) {
        *self += *other;
    }
}

/// Per-rule counters, indexed by [`RuleKind::index`].
impl CounterField for [u64; RULE_COUNT] {
    fn walk_into(&self, name: &str, kind: Kind, out: &mut Vec<Counter>) {
        for rule in RuleKind::ALL {
            self[rule.index()].walk_into(&format!("{name}.{}", rule.name()), kind, out);
        }
    }
    fn add(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            *mine += *theirs;
        }
    }
}

/// Declares a counter table (module docs): the struct, its
/// [`CounterField`] impl and an inherent `walk()`.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $table:ident {
            $($(#[$doc:meta])* $kind:ident $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $table {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $table {
            /// Every counter of the table, in declaration order.
            pub fn walk(&self) -> Vec<$crate::counters::Counter> {
                let mut out = Vec::new();
                $($crate::counters::CounterField::walk_into(
                    &self.$field,
                    stringify!($field),
                    $crate::counters::Kind::$kind,
                    &mut out,
                );)*
                out
            }
        }

        /// As a field of another table, a table walks its own fields under
        /// their own names and kinds.
        impl $crate::counters::CounterField for $table {
            fn walk_into(
                &self,
                _name: &str,
                _kind: $crate::counters::Kind,
                out: &mut Vec<$crate::counters::Counter>,
            ) {
                out.extend(self.walk());
            }
            fn add(&mut self, other: &Self) {
                $($crate::counters::CounterField::add(&mut self.$field, &other.$field);)*
            }
        }
    };
}

counter_table! {
    /// What the JIT did, counted per translation and summed: static counts
    /// (sites, not executions), so each is a function of the translated code
    /// and the codegen knobs alone.  [`crate::finish_translation`] adds one
    /// translation's into [`crate::PhaseTimers::jit`]; the timers of a
    /// background translation join the engine's by [`CounterField::add`]
    /// when — and only when — its result is installed.
    pub struct JitCounters {
        /// Translation units finished (blocks, formed regions, UNDEF stubs).
        Deterministic translated_units: u64,
        /// Guest instructions those units cover.
        Deterministic translated_guest_insns: u64,
        /// Regfile stores deleted because a later store fully covered the
        /// slot before any observer (the dead-flag case).
        Deterministic opt_dead_stores: u64,
        /// Regfile loads rewritten into register moves or immediates.
        Deterministic opt_forwarded_loads: u64,
        /// Register-copy uses folded by straight-line copy propagation
        /// (fully propagated copies are then swept by the allocator's DCE).
        Deterministic opt_copies_folded: u64,
        /// Guest-PC writes (`IncPc` / `SetPcImm`) a unit no longer carries,
        /// net of the ones written back before an observer: the PC is a
        /// translation-time constant between the points that can see it.
        Deterministic opt_pc_elided: u64,
        /// `Cmp v, 0` / `Test v, v` dropped because the last host-flag
        /// writer already set the flags they would.
        Deterministic opt_flags_reused: u64,
        /// Register-file stores moved out of a loop's straight-line path
        /// into the side exits that can observe them.
        Deterministic opt_stores_sunk: u64,
        /// LIR instructions marked dead by the allocator's iterative DCE.
        Deterministic opt_dce_insns: u64,
        /// Register-file slots promoted to loop-carried host registers
        /// (dirty and read-only alike).
        Deterministic opt_promoted_slots: u64,
        /// In-loop regfile loads of promoted slots rewritten to carrier
        /// moves — the loads hoisted into the preheader.
        Deterministic opt_hoisted_loads: u64,
        /// Vector (XMM) regfile loads forwarded from earlier vector stores
        /// or loads, including cross-file GPR<->XMM transfers.
        Deterministic opt_fp_forwarded: u64,
        /// Idiom-layer rewrites across all rules (the sum of `idiom_hits`).
        Deterministic opt_idioms_fused: u64,
        /// Translations abandoned by a typed lowering error (the engine fell
        /// back to an UNDEF stub or dropped the region).
        Deterministic lower_bailouts: u64,
        /// Spill slots the allocations used, split slots included (see
        /// [`crate::regalloc`]).
        Deterministic regalloc_spill_slots: u64,
        /// Live ranges the linear scan split at the conflict point instead
        /// of spilling the newcomer.
        Deterministic regalloc_splits: u64,
        /// Idiom rewrites applied, per rule (see [`crate::idiom`]).
        Deterministic idiom_hits: [u64; RULE_COUNT],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_and_the_sum_cover_every_declared_field() {
        let mut a = JitCounters {
            opt_dead_stores: 2,
            ..JitCounters::default()
        };
        a.idiom_hits[RuleKind::FuseCbz.index()] = 5;
        let mut sum = a;
        sum.add(&a);
        let walk = sum.walk();
        // Every field is a u64 or an array of them, so a field declared
        // outside the table would make the struct bigger than its walk.
        assert_eq!(std::mem::size_of::<JitCounters>(), 8 * walk.len());
        let value = |name: &str| {
            let mut hits = walk.iter().filter(|c| c.name == name);
            let hit = hits.next().unwrap_or_else(|| panic!("{name} not walked"));
            assert!(hits.next().is_none(), "{name} walked twice");
            hit.value
        };
        assert_eq!(value("opt_dead_stores"), 4);
        assert_eq!(value("idiom_hits.fuse.cbz"), 10);
        assert_eq!(walk.iter().map(|c| c.value).sum::<u64>(), 14);
    }
}
