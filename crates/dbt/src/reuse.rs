//! Content-keyed translation reuse.
//!
//! Translating the *same* code twice — two runs (or, eventually, two guests)
//! executing one kernel image, or a guest writing back code it held before —
//! is pure waste.  The [`ReuseCache`] is a second, content-validated layer
//! beside the per-engine [`crate::CodeCache`]: a translation is published as
//! a template — a prototype [`Region`] plus the [`Evidence`] it was made from
//! — under a [`ReuseKey`] (entry physical and virtual address, the codegen
//! knobs).  A later lookup, from the same engine after a context-generation
//! bump or a code write, or from another engine sharing the cache by `Arc`,
//! gets a fresh instantiation ([`Region::instantiate`]) of the first
//! candidate whose evidence the caller says still holds.
//!
//! **What a template is validated against.**  A translation is a pure
//! function of its entry, the knobs and the guest words it decoded — plus,
//! for a formed region (a *virtual* path across pages), every virtual →
//! physical translation its trace resolved.  [`Evidence`] is exactly those
//! words and translations.  The cache never interprets it: lookups hand each
//! candidate's evidence to one `holds` closure, which the engine answers
//! against its live machine, word for word and walk for walk — so a template
//! is never served over bytes that differ from memory.
//!
//! **Why not page hashes.**  This layer used to key on an FNV hash of the
//! entry page and validate by hashing every code page: microseconds of
//! byte-serial hashing per lookup, more than translating a short block
//! costs; a store to *any* word of a code page defeated reuse of everything
//! on it; and a 64-bit hash equates two pages that differ, however rarely.
//! Hashing the translation-table pages would not do for the translations
//! either: a `TTBR0` switch writes no table page, and a table page holds 511
//! entries a region never depended on.
//!
//! **Blocks join where code is written.**  Formed regions are published by
//! the formation paths; a plain block only once a code write drops it from a
//! page the guest had patched before (it then carries [`MadeFrom`] in
//! [`Region::made_from`]), so a guest toggling a function between encodings
//! pays a word compare per call instead of a translation.  A block's key
//! packs no unroll factor ([`pack_knobs`]), so it is never a region's; its
//! evidence has no translations, the dispatcher having resolved its entry.
//!
//! **The bound.**  Candidates under one key are told apart by their
//! evidence; at most `CANDIDATES_PER_KEY` (4) are kept (and as many refusals),
//! oldest out, and a lookup returns the first that holds in publication
//! order, so it is deterministic.
//!
//! Unlike the code cache — single-owner state of one engine's run thread —
//! this layer is shared *across* engine instances, so it is the one cache
//! here that is genuinely `Sync` and pays for locks.

use crate::cache::{Region, RegionKey};
use crate::counters::JitCounters;
use std::collections::HashMap;
use std::sync::RwLock;

/// Templates (and, separately, refusals) kept per [`ReuseKey`]; publishing
/// one more drops the oldest.
const CANDIDATES_PER_KEY: usize = 4;

/// Packs the codegen knobs a translation was made under into one word for
/// the [`ReuseKey`]: a template made with different optimisation or
/// unrolling is a different translation and must never be reused across
/// configurations.  `unroll` is a formed region's loop-unroll factor (the
/// former treats 0 as 1, so pass at least 1) and 0 for a block, which no
/// unroll factor changes — so a block's key is never a region's.  `idioms`
/// is whether the idiom layer ran; its rule set is the one built-in
/// [`crate::idiom::RuleTable::builtin`], so the bit is all that tells two
/// engines' templates apart there.
pub fn pack_knobs(soft_fp: bool, opt: bool, promote: bool, idioms: bool, unroll: usize) -> u64 {
    (soft_fp as u64)
        | ((opt as u64) << 1)
        | ((promote as u64) << 3)
        | ((idioms as u64) << 4)
        | (((unroll as u64) & 0xFF) << 8)
}

/// Identity of a reusable translation: where it enters and the knobs it was
/// made under.  Candidates under one key — two encodings of a patched
/// function, two address spaces sharing a region's entry page — are told
/// apart by their [`Evidence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseKey {
    /// Guest physical entry address.
    pub phys: u64,
    /// Guest virtual entry address (generated code embeds virtual PCs).
    pub virt: u64,
    /// Codegen knobs, packed by [`pack_knobs`].
    pub knobs: u64,
}

/// What a translation — or a refusal to form one — was made from, and so
/// what must still be true of a machine for it to be served there.  Whoever
/// translated assembles it once; the engine's one gate compares it with the
/// live machine; nothing else reads it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evidence {
    /// Every guest word the translation decoded, as (guest physical
    /// address, word as the translator was served it), ascending by address,
    /// each address once.
    pub words: Vec<(u64, u32)>,
    /// Every (virtual page → physical page) translation a formed region's
    /// trace resolved: its entry, each sequential page crossing and each
    /// stitched branch target.  Identity pairs when the guest MMU was off, so
    /// a machine with the MMU on re-resolves them like any other.  A target
    /// that did *not* resolve is not recorded: the trace ends there with an
    /// ordinary exit, which stays correct (if no longer the longest trace)
    /// once the target is mapped.  Empty for a block, which never leaves the
    /// page its key already resolved.
    pub translations: Vec<(u64, u64)>,
}

/// What a translation was made from, as [`ReuseCache::publish`] takes it:
/// its key (under the knobs it was made with), its evidence, and the static
/// JIT counters a hit stands in for.
#[derive(Debug, Clone)]
pub struct MadeFrom {
    /// Where it is published.
    pub key: ReuseKey,
    /// What must still hold for a hit.
    pub evidence: Evidence,
    /// What its translation counted.
    pub counters: JitCounters,
}

/// A translation published for reuse: the region itself, never dispatched,
/// as the prototype every hit instantiates — its host code is shared by
/// `Arc`, a thousand guests running one kernel image hold one copy — with
/// the evidence and counters it was published with.
#[derive(Debug)]
struct ReuseTemplate {
    prototype: Region,
    evidence: Evidence,
    counters: JitCounters,
}

/// Content-keyed translation reuse: machine code indexed by what it was made
/// *from* (entry + knobs, then [`Evidence`]), shareable between runs via
/// `Arc` so repeated executions of one kernel image pay for formation once.
#[derive(Debug, Default)]
pub struct ReuseCache {
    entries: RwLock<HashMap<ReuseKey, Vec<ReuseTemplate>>>,
    /// Negative knowledge: evidence a formation attempt consumed while
    /// proving that *no* region forms (trace too short, lowering bailed).
    /// A refusal that still holds lets later runs of the same content skip
    /// the worker round-trip — the outcome is already known.
    refusals: RwLock<HashMap<ReuseKey, Vec<Evidence>>>,
}

/// Adds `item` to one key's candidates unless a candidate with the same
/// evidence is there already (it serves every machine this one could),
/// dropping the oldest at [`CANDIDATES_PER_KEY`].
fn admit<T>(candidates: &mut Vec<T>, item: T, evidence: fn(&T) -> &Evidence) {
    if candidates.iter().any(|c| evidence(c) == evidence(&item)) {
        return;
    }
    if candidates.len() == CANDIDATES_PER_KEY {
        candidates.remove(0);
    }
    candidates.push(item);
}

impl ReuseCache {
    /// Creates an empty reuse cache.
    pub fn new() -> Self {
        ReuseCache::default()
    }

    /// Publishes `region` with what it was made from.  The counters are a
    /// block's own, so that a revived block reads in the engine's counters
    /// as the translation it replaces; a formed region is published with
    /// none, its reuse never having counted as JIT work.
    pub fn publish(&self, region: &Region, made_from: MadeFrom) {
        let template = ReuseTemplate {
            prototype: region.instantiate(region.key(), region.ctx_gen),
            evidence: made_from.evidence,
            counters: made_from.counters,
        };
        let mut entries = self.entries.write().unwrap();
        admit(entries.entry(made_from.key).or_default(), template, |t| {
            &t.evidence
        });
    }

    /// Records that forming at `key` from `evidence` produced no region.
    pub fn publish_refusal(&self, key: ReuseKey, evidence: Evidence) {
        let mut refusals = self.refusals.write().unwrap();
        admit(refusals.entry(key).or_default(), evidence, |e| e);
    }

    /// Whether a formation attempt at `key` is recorded to have refused on
    /// evidence that `holds` on the caller's machine now.
    pub fn known_refusal(&self, key: ReuseKey, holds: impl FnMut(&Evidence) -> bool) -> bool {
        let refusals = self.refusals.read().unwrap();
        refusals
            .get(&key)
            .is_some_and(|known| known.iter().any(holds))
    }

    /// Whether the outcome at `key` is already known on the caller's
    /// machine: a template or a refusal is published there whose evidence
    /// `holds`.  Lets the publish point skip a formation request the install
    /// point will not need.
    pub fn covers(&self, key: ReuseKey, mut holds: impl FnMut(&Evidence) -> bool) -> bool {
        self.entries
            .read()
            .unwrap()
            .get(&key)
            .is_some_and(|c| c.iter().any(|t| holds(&t.evidence)))
            || self.known_refusal(key, holds)
    }

    /// The translation published under `key` whose evidence `holds` on the
    /// caller's machine now — the first such candidate in publication order,
    /// so lookups are deterministic — instantiated at the key's entry under
    /// `ctx_gen`, with the counters it was published with.
    pub fn lookup(
        &self,
        key: ReuseKey,
        ctx_gen: u64,
        mut holds: impl FnMut(&Evidence) -> bool,
    ) -> Option<(Region, JitCounters)> {
        let entries = self.entries.read().unwrap();
        let hit = entries.get(&key)?.iter().find(|c| holds(&c.evidence))?;
        let at = RegionKey {
            phys: key.phys,
            virt: key.virt,
        };
        Some((hit.prototype.instantiate(at, ctx_gen), hit.counters))
    }
}

// Engine instances on different threads share one reuse cache.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReuseCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::multi;
    use std::sync::Arc;

    fn key(knobs: u64) -> ReuseKey {
        ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs,
        }
    }

    /// A two-page trace whose second page is virtual page `0x2000` mapped at
    /// `interior`.
    fn evidence(interior: u64) -> Evidence {
        Evidence {
            words: vec![(0x1000, 0xAAAA), (interior, 0xBBBB)],
            translations: vec![(0x1000, 0x1000), (0x2000, interior)],
        }
    }

    fn made(key: ReuseKey, evidence: Evidence, counters: JitCounters) -> MadeFrom {
        MadeFrom {
            key,
            evidence,
            counters,
        }
    }

    /// A one-word block's evidence: `word` at the key's entry.
    fn word(word: u32) -> Evidence {
        Evidence {
            words: vec![(0x1000, word)],
            translations: Vec::new(),
        }
    }

    #[test]
    fn reuse_template_round_trips_through_content_validation() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 3);
        let knobs = pack_knobs(false, true, true, true, 4);
        let counters = JitCounters {
            translated_units: 1,
            ..JitCounters::default()
        };
        reuse.publish(&region, made(key(knobs), evidence(0x2000), counters));
        assert_eq!(reuse.entries.read().unwrap().len(), 1);
        // The evidence holds: the template is served, as a region of its
        // own at the key's entry under the asked-for generation, with the
        // counters it was published with.
        let (inst, served) = reuse
            .lookup(key(knobs), 7, |e| *e == evidence(0x2000))
            .expect("content-valid template");
        assert_eq!(served, counters);
        assert_eq!(inst.key(), region.key());
        assert_eq!(inst.ctx_gen, 7);
        assert_eq!(inst.pages, vec![0x1000, 0x2000]);
        assert_eq!(inst.constituents, region.constituents);
        assert!(Arc::ptr_eq(&inst.code, &region.code), "code is shared");
        // Evidence that does not hold defeats reuse, whatever the key says.
        assert!(
            reuse.lookup(key(knobs), 7, |_| false).is_none(),
            "a candidate is served only on the caller's say-so"
        );
        // A different knob set is a different key entirely, and a block's
        // key (no unroll factor) is never a region's.
        let other = key(pack_knobs(false, false, true, true, 4));
        assert!(reuse.lookup(other, 7, |_| true).is_none());
        let block = key(pack_knobs(false, true, true, true, 0));
        assert!(reuse.lookup(block, 7, |_| true).is_none());
    }

    #[test]
    fn reuse_publish_dedupes_identical_page_sets() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 0);
        let none = JitCounters::default();
        reuse.publish(&region, made(key(0), evidence(0x2000), none));
        reuse.publish(&region, made(key(0), evidence(0x2000), none));
        assert_eq!(reuse.entries.read().unwrap()[&key(0)].len(), 1, "deduped");
        // Same entry page, same bytes, the interior page somewhere else: a
        // second address space's candidate, found by a caller it holds for.
        let elsewhere = multi(0x1000, 8, vec![0x1000, 0x5000], 0);
        reuse.publish(&elsewhere, made(key(0), evidence(0x5000), none));
        assert_eq!(reuse.entries.read().unwrap()[&key(0)].len(), 2);
        let (hit, _) = reuse
            .lookup(key(0), 0, |e| *e == evidence(0x5000))
            .expect("the second candidate");
        assert_eq!(hit.pages[1], 0x5000);
    }

    #[test]
    fn a_key_keeps_its_newest_candidates_and_serves_the_first_that_holds() {
        let reuse = ReuseCache::new();
        let none = JitCounters::default();
        // Six encodings of one block, told apart by their entry word alone;
        // each prototype's length says which it was.
        for w in 1..=6u32 {
            let block = multi(0x1000, w as usize, vec![0x1000], 0);
            reuse.publish(&block, made(key(0), word(w), none));
        }
        let kept: Vec<u32> = reuse.entries.read().unwrap()[&key(0)]
            .iter()
            .map(|t| t.evidence.words[0].1)
            .collect();
        assert_eq!(kept, [3, 4, 5, 6], "the oldest went first");
        let served = |holds: &dyn Fn(u32) -> bool| {
            reuse
                .lookup(key(0), 0, |e| holds(e.words[0].1))
                .map(|(r, _)| r.guest_insns)
        };
        assert_eq!(served(&|w| w == 1), None, "evicted");
        assert_eq!(served(&|w| w == 5), Some(5));
        // Several hold: publication order decides, not recency of use.
        assert_eq!(served(&|w| w >= 4), Some(4));
        assert_eq!(served(&|_| true), Some(3));
        // Re-publishing a kept candidate neither duplicates nor refreshes it.
        let again = multi(0x1000, 3, vec![0x1000], 0);
        reuse.publish(&again, made(key(0), word(3), none));
        assert_eq!(served(&|_| true), Some(3));
        // Refusals are bounded the same way.
        for w in 1..=6u32 {
            reuse.publish_refusal(key(1), word(w));
        }
        assert_eq!(reuse.refusals.read().unwrap()[&key(1)].len(), 4);
        assert!(!reuse.known_refusal(key(1), |e| *e == word(2)));
        assert!(reuse.known_refusal(key(1), |e| *e == word(6)));
    }

    #[test]
    fn reuse_refusals_validate_content_and_dedupe() {
        let reuse = ReuseCache::new();
        assert!(!reuse.covers(key(0), |_| true));
        reuse.publish_refusal(key(0), evidence(0x2000));
        reuse.publish_refusal(key(0), evidence(0x2000));
        assert_eq!(reuse.refusals.read().unwrap()[&key(0)].len(), 1, "deduped");
        // The refusal covers the key (publish precheck) and answers only
        // while its evidence holds.
        assert!(reuse.covers(key(0), |e| *e == evidence(0x2000)));
        assert!(!reuse.covers(key(0), |e| *e == evidence(0x5000)));
        assert!(reuse.known_refusal(key(0), |e| *e == evidence(0x2000)));
        assert!(
            !reuse.known_refusal(key(0), |e| *e == evidence(0x5000)),
            "a moved interior page must void the refusal"
        );
        // Refusals never surface as installable templates.
        assert!(reuse.lookup(key(0), 0, |_| true).is_none());
        // A template covers its key on the same terms.
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 0);
        reuse.publish(
            &region,
            made(key(2), evidence(0x2000), JitCounters::default()),
        );
        assert!(reuse.covers(key(2), |e| *e == evidence(0x2000)));
        assert!(!reuse.covers(key(2), |_| false));
    }

    #[test]
    fn knob_packing_distinguishes_every_field() {
        let base = pack_knobs(false, true, true, true, 4);
        assert_ne!(base, pack_knobs(true, true, true, true, 4));
        assert_ne!(base, pack_knobs(false, false, true, true, 4));
        assert_ne!(base, pack_knobs(false, true, false, true, 4));
        assert_ne!(base, pack_knobs(false, true, true, true, 8));
        assert_ne!(base, pack_knobs(false, true, true, false, 4));
        assert_ne!(base, pack_knobs(false, true, true, true, 0));
    }
}
