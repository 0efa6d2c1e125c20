//! Content-keyed translation reuse.
//!
//! Forming a region is expensive; forming the *same* region twice because
//! two runs (or, eventually, two guests) execute the same kernel image is
//! pure waste.  The [`ReuseCache`] is a second, content-addressed layer
//! beside the per-engine [`crate::CodeCache`]: a formed region is published
//! as a [`ReuseTemplate`] under a [`ReuseKey`] — entry physical/virtual
//! address, the codegen knobs it was formed under, and an FNV hash of the
//! entry page's bytes — together with the content hash of *every*
//! constituent page.  A later run (sharing the cache via `Arc`) revalidates
//! each candidate template by hashing its live pages; only a template whose
//! every page still matches is instantiated, as a fresh [`Region`] with
//! fresh links and the current context generation.  Self-modified or simply
//! different code therefore can never be reused by accident: the key and
//! the validation are both functions of page *content*, not addresses alone.
//!
//! Unlike the code cache — single-owner state of one engine's run thread —
//! this layer is shared *across* engine instances, so it is the one cache
//! here that is genuinely `Sync` and pays for locks.

use crate::cache::{BlockExit, ChainLinks, Region};
use hvm::{Gpr, MachInsn};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

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
/// that share an entry page but diverge on an interior page are separated
/// by per-template validation of every constituent page hash.
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

/// A formed region published for content-keyed reuse: everything needed to
/// re-instantiate the region in another run, plus the content hash of every
/// constituent page for validation.  The host code is shared by `Arc` — a
/// thousand guests running one kernel image hold one copy.
#[derive(Debug, Clone)]
pub struct ReuseTemplate {
    /// Guest instructions covered (all constituents).
    pub guest_insns: usize,
    /// The formed host code, shared between all instantiations.
    pub code: Arc<[MachInsn]>,
    /// Encoded host-code size in bytes.
    pub encoded_bytes: usize,
    /// Host instructions before dead-code elimination.
    pub lir_insns: usize,
    /// LIR instructions eliminated before encoding.
    pub elided_insns: usize,
    /// Terminator metadata.
    pub exit: BlockExit,
    /// Constituent basic blocks.
    pub constituents: usize,
    /// Every constituent page with the FNV-1a hash of its bytes at
    /// formation time; a candidate is only instantiated after *all* of
    /// these revalidate against live memory.
    pub pages: Vec<(u64, u64)>,
    /// Loop-body copies stitched by unrolling.
    pub unroll: usize,
    /// Region-internal back-edges closed.
    pub back_edges: usize,
    /// Guest instructions in the looping portion.
    pub loop_guest_insns: usize,
    /// Eliminated-LIR share of the looping portion.
    pub loop_elided_insns: usize,
    /// Dirty loop-promoted slots (see [`Region::promoted`]); part of the
    /// translation's identity, so instantiations reconcile faults exactly
    /// like the original.
    pub promoted: Vec<(i32, Gpr)>,
    /// Per-rule idiom candidate counts of the original translation, carried
    /// so instantiated regions feed the rule miner like freshly-formed ones.
    pub idiom_candidates: [u32; crate::idiom::RULE_COUNT],
}

impl ReuseTemplate {
    /// Captures a formed region as a template.  `page_hashes` must cover
    /// exactly the region's constituent pages (base → content hash of the
    /// bytes the region was formed against).
    pub fn from_region(region: &Region, page_hashes: &[(u64, u64)]) -> Self {
        debug_assert_eq!(page_hashes.len(), region.pages.len());
        ReuseTemplate {
            guest_insns: region.guest_insns,
            code: Arc::clone(&region.code),
            encoded_bytes: region.encoded_bytes,
            lir_insns: region.lir_insns,
            elided_insns: region.elided_insns,
            exit: region.exit,
            constituents: region.constituents,
            pages: page_hashes.to_vec(),
            unroll: region.unroll,
            back_edges: region.back_edges,
            loop_guest_insns: region.loop_guest_insns,
            loop_elided_insns: region.loop_elided_insns,
            promoted: region.promoted.clone(),
            idiom_candidates: region.idiom_candidates,
        }
    }

    /// Instantiates the template as a fresh [`Region`] at the given entry,
    /// stamped with the current context generation and carrying fresh
    /// (unpatched) chain links.  The host code `Arc` is shared, not cloned.
    pub fn instantiate(&self, phys: u64, virt: u64, ctx_gen: u64) -> Region {
        Region {
            guest_phys: phys,
            guest_virt: virt,
            guest_insns: self.guest_insns,
            code: Arc::clone(&self.code),
            encoded_bytes: self.encoded_bytes,
            lir_insns: self.lir_insns,
            elided_insns: self.elided_insns,
            exit: self.exit,
            links: ChainLinks::default(),
            constituents: self.constituents,
            pages: self.pages.iter().map(|&(base, _)| base).collect(),
            ctx_gen,
            unroll: self.unroll,
            back_edges: self.back_edges,
            loop_guest_insns: self.loop_guest_insns,
            loop_elided_insns: self.loop_elided_insns,
            promoted: self.promoted.clone(),
            idiom_candidates: self.idiom_candidates,
        }
    }
}

/// One recorded refusal: the (page base, content hash) set a formation
/// attempt consumed while proving no region forms there.
type RefusalPages = Vec<(u64, u64)>;

/// Content-keyed translation reuse: formed machine code indexed by what it
/// was formed *from* (entry + knobs + page-content hashes), shareable
/// between runs via `Arc` so repeated executions of one kernel image pay
/// for region formation once.
#[derive(Debug, Default)]
pub struct ReuseCache {
    entries: RwLock<HashMap<ReuseKey, Vec<ReuseTemplate>>>,
    /// Negative knowledge: consumed page-hash sets a formation attempt
    /// proved to yield *no* region (trace too short, lowering bailed).  A
    /// validated refusal lets later runs of the same content skip the
    /// formation round-trip entirely — the outcome is already known.
    refusals: RwLock<HashMap<ReuseKey, Vec<RefusalPages>>>,
}

impl ReuseCache {
    /// Creates an empty reuse cache.
    pub fn new() -> Self {
        ReuseCache::default()
    }

    /// Publishes a template under `key`.  A template whose page set and
    /// hashes exactly match an existing candidate is dropped (the existing
    /// one already serves every image this one could).
    pub fn publish(&self, key: ReuseKey, template: ReuseTemplate) {
        let mut entries = self.entries.write().unwrap();
        let candidates = entries.entry(key).or_default();
        if candidates.iter().any(|c| c.pages == template.pages) {
            return;
        }
        candidates.push(template);
    }

    /// Records that forming at `key` against content whose consumed pages
    /// hashed to `pages` produced no region.  Identical page sets dedupe.
    pub fn publish_refusal(&self, key: ReuseKey, pages: Vec<(u64, u64)>) {
        let mut refusals = self.refusals.write().unwrap();
        let sets = refusals.entry(key).or_default();
        if sets.contains(&pages) {
            return;
        }
        sets.push(pages);
    }

    /// Whether a prior formation attempt at `key` is recorded to have
    /// refused on content that still matches — validated page by page with
    /// `page_matches(page_base, formation_hash)`.
    pub fn known_refusal(
        &self,
        key: ReuseKey,
        mut page_matches: impl FnMut(u64, u64) -> bool,
    ) -> bool {
        let refusals = self.refusals.read().unwrap();
        let Some(sets) = refusals.get(&key) else {
            return false;
        };
        sets.iter()
            .any(|s| s.iter().all(|&(base, hash)| page_matches(base, hash)))
    }

    /// Whether anything — a template or a recorded refusal — is published
    /// under `key`.  A cheap precheck (no page validation) used to skip
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

    /// Looks up a reusable template for `key`, validating candidates with
    /// `page_matches(page_base, formation_hash)` — which must hash the live
    /// bytes of `page_base` and compare.  The first fully validated
    /// candidate (in publication order, so lookups are deterministic) is
    /// returned as a clone.
    pub fn lookup(
        &self,
        key: ReuseKey,
        mut page_matches: impl FnMut(u64, u64) -> bool,
    ) -> Option<ReuseTemplate> {
        let entries = self.entries.read().unwrap();
        let candidates = entries.get(&key)?;
        candidates
            .iter()
            .find(|c| c.pages.iter().all(|&(base, hash)| page_matches(base, hash)))
            .cloned()
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
    use crate::cache::tests::{block, multi};

    #[test]
    fn reuse_template_round_trips_through_content_validation() {
        let reuse = ReuseCache::new();
        let region = multi(0x1000, 8, vec![0x1000, 0x2000], 3);
        let hashes = [(0x1000u64, 0xAAAAu64), (0x2000, 0xBBBB)];
        let knobs = pack_knobs(false, true, true, true, 4, 0);
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs,
            entry_page_hash: 0xAAAA,
        };
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        assert_eq!(reuse.len(), 1);
        // All pages validate: the template is served.
        let got = reuse
            .lookup(key, |base, hash| {
                hashes.iter().any(|&(b, h)| b == base && h == hash)
            })
            .expect("content-valid template");
        let inst = got.instantiate(0x1000, 0x1000, 7);
        assert_eq!(inst.ctx_gen, 7);
        assert_eq!(inst.pages, vec![0x1000, 0x2000]);
        assert_eq!(inst.constituents, region.constituents);
        assert!(Arc::ptr_eq(&inst.code, &region.code), "code is shared");
        // A modified interior page defeats reuse.
        assert!(
            reuse
                .lookup(key, |base, hash| base == 0x1000 && hash == 0xAAAA)
                .is_none(),
            "a stale interior page must invalidate the candidate"
        );
        // A different knob set is a different key entirely.
        let other = ReuseKey {
            knobs: pack_knobs(false, false, true, true, 4, 0),
            ..key
        };
        assert!(reuse.lookup(other, |_, _| true).is_none());
    }

    #[test]
    fn reuse_publish_dedupes_identical_page_sets() {
        let reuse = ReuseCache::new();
        let region = block(0x1000, 2);
        let hashes = [(0x1000u64, 0x1234u64)];
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs: 0,
            entry_page_hash: 0x1234,
        };
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        reuse.publish(key, ReuseTemplate::from_region(&region, &hashes));
        let entries = reuse.entries.read().unwrap();
        assert_eq!(entries.get(&key).unwrap().len(), 1, "deduped");
    }

    #[test]
    fn reuse_refusals_validate_content_and_dedupe() {
        let reuse = ReuseCache::new();
        let key = ReuseKey {
            phys: 0x1000,
            virt: 0x1000,
            knobs: 0,
            entry_page_hash: 0x1234,
        };
        assert!(!reuse.covers(key));
        let pages = vec![(0x1000u64, 0x1234u64), (0x2000, 0x5678)];
        reuse.publish_refusal(key, pages.clone());
        reuse.publish_refusal(key, pages.clone());
        assert_eq!(reuse.refusals.read().unwrap()[&key].len(), 1, "deduped");
        // The refusal covers the key (publish precheck) and validates only
        // while every recorded page still hashes the same.
        assert!(reuse.covers(key));
        assert!(reuse.known_refusal(key, |base, hash| {
            pages.iter().any(|&(b, h)| b == base && h == hash)
        }));
        assert!(
            !reuse.known_refusal(key, |base, hash| base == 0x1000 && hash == 0x1234),
            "a changed interior page must void the refusal"
        );
        // Refusals never surface as installable templates.
        assert!(reuse.lookup(key, |_, _| true).is_none());
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
