//! Content-keyed translation reuse.
//!
//! Forming a region is expensive; forming the *same* region twice because
//! two runs (or, eventually, two guests) execute the same kernel image is
//! pure waste.  The [`ReuseCache`] is a second, content-addressed layer
//! beside the per-engine [`crate::CodeCache`]: a formed region is published
//! as a template — a prototype [`Region`] plus the [`Evidence`] it was made
//! from — under a [`ReuseKey`] (entry physical/virtual address, the codegen
//! knobs, an FNV hash of the entry page's bytes).  A later lookup, from the
//! same engine after a context-generation bump or from another engine
//! sharing the cache by `Arc`, gets a fresh instantiation
//! ([`Region::instantiate`]) of the first candidate whose evidence the
//! caller says still holds.
//!
//! **What a template is validated against.**  A block never leaves its page,
//! so its bytes decide it.  A formed region is a *virtual* path across
//! pages: it depends on the bytes of every code page it was decoded from
//! **and** on every virtual → physical translation its trace resolved to
//! get from one page to the next.  [`Evidence`] is exactly that pair of
//! lists, assembled once by the tracer, and the cache never interprets it:
//! [`ReuseCache::lookup`] and [`ReuseCache::known_refusal`] hand each
//! candidate's evidence to one `holds` closure, which the engine answers
//! against its live machine.  Validating the code pages alone — what this
//! layer did first — re-instantiates a loop over a page the guest has since
//! mapped somewhere else, with every byte of every old page still in place.
//!
//! **Why not hash the translation-table pages instead.**  A guest that
//! switches `TTBR0` between two address spaces writes no table page at all,
//! yet changes what the interior pages of a region are; and a table page
//! holds 512 entries, 511 of which the region never depended on.  The
//! translations themselves are the dependency, so they are what is recorded
//! and re-resolved.
//!
//! Unlike the code cache — single-owner state of one engine's run thread —
//! this layer is shared *across* engine instances, so it is the one cache
//! here that is genuinely `Sync` and pays for locks.

use crate::cache::{Region, RegionKey};
use std::collections::HashMap;
use std::sync::RwLock;

/// Packs the codegen knobs a region was formed under into one word for the
/// [`ReuseKey`]: a template formed with different optimisation or unrolling
/// is a different translation and must never be reused across
/// configurations.  `idiom_table` is [`crate::idiom::RuleTable::hash`]
/// of the active idiom rule set (0 when the idiom layer is off): its low 32
/// bits join the key, so code generated under one mined rule set is never
/// instantiated under another.
pub fn pack_knobs(
    soft_fp: bool,
    opt: bool,
    promote: bool,
    idioms: bool,
    unroll: usize,
    idiom_table: u64,
) -> u64 {
    let table = if idioms { idiom_table } else { 0 };
    (soft_fp as u64)
        | ((opt as u64) << 1)
        | ((promote as u64) << 3)
        | ((idioms as u64) << 4)
        | (((unroll as u64) & 0xFF) << 8)
        | ((table & 0xFFFF_FFFF) << 32)
}

/// Identity of a reusable translation: where it enters, the knobs it was
/// formed under, and what the entry page's bytes hashed to at formation
/// time.  Two images whose entry pages differ can never collide; images
/// (or address spaces) that share an entry page but diverge further along
/// the trace are separated by each candidate's [`Evidence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseKey {
    /// Guest physical entry address.
    pub phys: u64,
    /// Guest virtual entry address (generated code embeds virtual PCs).
    pub virt: u64,
    /// Codegen knobs, packed by [`pack_knobs`].
    pub knobs: u64,
    /// FNV-1a hash of the entry page's bytes at formation time.
    pub entry_page_hash: u64,
}

/// What a formed region — or a refusal to form one — was made from, and so
/// what must still be true of a machine for it to be served there.  The
/// tracer assembles it once; the engine's one gate compares it with the live
/// machine; nothing else reads it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evidence {
    /// Every guest physical page the trace decoded from, with the FNV-1a
    /// hash of the page as the trace's source served it.
    pub code_pages: Vec<(u64, u64)>,
    /// Every (virtual page → physical page) translation the trace resolved:
    /// its entry, each sequential page crossing and each stitched branch
    /// target.  Identity pairs when the guest MMU was off, so a machine with
    /// the MMU on re-resolves them like any other.  A target that did *not*
    /// resolve is not recorded: the trace ends there with an ordinary exit,
    /// which stays correct (if no longer the longest trace) once the target
    /// is mapped.
    pub translations: Vec<(u64, u64)>,
}

/// A formed region published for reuse: the region itself, never
/// dispatched, as the prototype every hit instantiates — its host code is
/// shared by `Arc`, a thousand guests running one kernel image hold one
/// copy — and the evidence a hit must re-establish.
#[derive(Debug)]
struct ReuseTemplate {
    prototype: Region,
    evidence: Evidence,
}

/// Content-keyed translation reuse: formed machine code indexed by what it
/// was formed *from* (entry + knobs + entry-page hash, then [`Evidence`]),
/// shareable between runs via `Arc` so repeated executions of one kernel
/// image pay for region formation once.
#[derive(Debug, Default)]
pub struct ReuseCache {
    entries: RwLock<HashMap<ReuseKey, Vec<ReuseTemplate>>>,
    /// Negative knowledge: evidence a formation attempt consumed while
    /// proving that *no* region forms (trace too short, lowering bailed).
    /// A refusal that still holds lets later runs of the same content skip
    /// the worker round-trip — the outcome is already known.
    refusals: RwLock<HashMap<ReuseKey, Vec<Evidence>>>,
}

impl ReuseCache {
    /// Creates an empty reuse cache.
    pub fn new() -> Self {
        ReuseCache::default()
    }

    /// Publishes `region` under `key` with the evidence it was formed from.
    /// Dropped when a candidate with the same evidence exists (it already
    /// serves every machine this one could).
    pub fn publish(&self, key: ReuseKey, region: &Region, evidence: Evidence) {
        let mut entries = self.entries.write().unwrap();
        let candidates = entries.entry(key).or_default();
        if candidates.iter().any(|c| c.evidence == evidence) {
            return;
        }
        candidates.push(ReuseTemplate {
            prototype: region.instantiate(region.key(), region.ctx_gen),
            evidence,
        });
    }

    /// Records that forming at `key` from `evidence` produced no region.
    /// Identical evidence dedupes.
    pub fn publish_refusal(&self, key: ReuseKey, evidence: Evidence) {
        let mut refusals = self.refusals.write().unwrap();
        let known = refusals.entry(key).or_default();
        if !known.contains(&evidence) {
            known.push(evidence);
        }
    }

    /// Whether a formation attempt at `key` is recorded to have refused on
    /// evidence that `holds` on the caller's machine now.
    pub fn known_refusal(&self, key: ReuseKey, holds: impl FnMut(&Evidence) -> bool) -> bool {
        let refusals = self.refusals.read().unwrap();
        refusals
            .get(&key)
            .is_some_and(|known| known.iter().any(holds))
    }

    /// Whether anything — a template or a recorded refusal — is published
    /// under `key`.  A cheap precheck (no evidence is checked) used to skip
    /// redundant formation publishes when the outcome is likely already
    /// known at the install point.
    pub fn covers(&self, key: ReuseKey) -> bool {
        self.entries
            .read()
            .unwrap()
            .get(&key)
            .is_some_and(|c| !c.is_empty())
            || self
                .refusals
                .read()
                .unwrap()
                .get(&key)
                .is_some_and(|s| !s.is_empty())
    }

    /// The region published under `key` whose evidence `holds` on the
    /// caller's machine now — the first such candidate in publication order,
    /// so lookups are deterministic — instantiated at the key's entry under
    /// `ctx_gen`.
    pub fn lookup(
        &self,
        key: ReuseKey,
        ctx_gen: u64,
        mut holds: impl FnMut(&Evidence) -> bool,
    ) -> Option<Region> {
        let entries = self.entries.read().unwrap();
        let hit = entries.get(&key)?.iter().find(|c| holds(&c.evidence))?;
        let at = RegionKey {
            phys: key.phys,
            virt: key.virt,
        };
        Some(hit.prototype.instantiate(at, ctx_gen))
    }

    /// Number of distinct reuse keys published.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.read().unwrap().is_empty()
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
            entry_page_hash: 0xAAAA,
        }
    }

    /// A two-page trace whose second page is virtual page `0x2000` mapped at
    /// `interior`.
    fn evidence(interior: u64) -> Evidence {
        Evidence {
            code_pages: vec![(0x1000, 0xAAAA), (interior, 0xBBBB)],
            translations: vec![(0x1000, 0x1000), (0x2000, interior)],
        }
    }

    #[test]
    fn reuse_template_round_trips_through_content_validation() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 3);
        let knobs = pack_knobs(false, true, true, true, 4, 0);
        reuse.publish(key(knobs), &region, evidence(0x2000));
        assert_eq!(reuse.len(), 1);
        // The evidence holds: the template is served, as a region of its
        // own at the key's entry under the asked-for generation.
        let inst = reuse
            .lookup(key(knobs), 7, |e| *e == evidence(0x2000))
            .expect("content-valid template");
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
        // A different knob set is a different key entirely.
        let other = key(pack_knobs(false, false, true, true, 4, 0));
        assert!(reuse.lookup(other, 7, |_| true).is_none());
    }

    #[test]
    fn reuse_publish_dedupes_identical_page_sets() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 0);
        reuse.publish(key(0), &region, evidence(0x2000));
        reuse.publish(key(0), &region, evidence(0x2000));
        assert_eq!(reuse.entries.read().unwrap()[&key(0)].len(), 1, "deduped");
        // Same entry page, same bytes, the interior page somewhere else: a
        // second address space's candidate, found by a caller it holds for.
        let elsewhere = multi(0x1000, 8, vec![0x1000, 0x5000], 0);
        reuse.publish(key(0), &elsewhere, evidence(0x5000));
        assert_eq!(reuse.entries.read().unwrap()[&key(0)].len(), 2);
        let hit = reuse.lookup(key(0), 0, |e| *e == evidence(0x5000));
        assert_eq!(hit.expect("the second candidate").pages[1], 0x5000);
    }

    #[test]
    fn reuse_refusals_validate_content_and_dedupe() {
        let reuse = ReuseCache::new();
        assert!(!reuse.covers(key(0)));
        reuse.publish_refusal(key(0), evidence(0x2000));
        reuse.publish_refusal(key(0), evidence(0x2000));
        assert_eq!(reuse.refusals.read().unwrap()[&key(0)].len(), 1, "deduped");
        // The refusal covers the key (publish precheck) and answers only
        // while its evidence holds.
        assert!(reuse.covers(key(0)));
        assert!(reuse.known_refusal(key(0), |e| *e == evidence(0x2000)));
        assert!(
            !reuse.known_refusal(key(0), |e| *e == evidence(0x5000)),
            "a moved interior page must void the refusal"
        );
        // Refusals never surface as installable templates.
        assert!(reuse.lookup(key(0), 0, |_| true).is_none());
    }

    #[test]
    fn knob_packing_distinguishes_every_field() {
        let base = pack_knobs(false, true, true, true, 4, 0);
        assert_ne!(base, pack_knobs(true, true, true, true, 4, 0));
        assert_ne!(base, pack_knobs(false, false, true, true, 4, 0));
        assert_ne!(base, pack_knobs(false, true, false, true, 4, 0));
        assert_ne!(base, pack_knobs(false, true, true, true, 8, 0));
        assert_ne!(base, pack_knobs(false, true, true, false, 4, 0));
    }

    #[test]
    fn knob_packing_keys_on_idiom_table_only_when_idioms_run() {
        let with = |idioms: bool, table: u64| pack_knobs(false, true, true, idioms, 4, table);
        // Different rule tables generate different code, so they must land
        // in different reuse keys...
        assert_ne!(with(true, 0xDEAD_BEEF), with(true, 0x1234_5678));
        assert_eq!(with(true, 0xDEAD_BEEF) >> 32, 0xDEAD_BEEF);
        // ...but with the idiom layer off the table is inert, and every
        // table value must collapse onto the same key so idiom-off
        // translations stay shareable.
        assert_eq!(with(false, 0xDEAD_BEEF), with(false, 0x1234_5678));
        assert_eq!(with(false, 0xDEAD_BEEF), with(false, 0));
    }
}
