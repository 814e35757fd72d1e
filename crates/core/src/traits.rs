//! The [`CoverageMap`] trait: one interface over both map schemes.
//!
//! The fuzzer, metrics, benchmarks and cache-trace adapters are all written
//! against this trait, so switching a campaign between AFL's flat map and
//! BigMap's two-level map is a one-argument change — exactly the property
//! the paper exploits when it drops BigMap into AFL and AFL++ unmodified.

use std::any::Any;
use std::fmt;

use crate::map_size::MapSize;
use crate::sparse::{OpPath, SparseMode};
use crate::virgin::VirginState;

/// Which map data structure a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapScheme {
    /// AFL's one-level bitmap: key indexes the map directly; whole-map
    /// reset / classify / compare / hash.
    Flat,
    /// BigMap's two-level bitmap: key → index bitmap → condensed slot;
    /// operations run over `[0 .. used_key)` only.
    TwoLevel,
}

impl fmt::Display for MapScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MapScheme::Flat => "AFL",
            MapScheme::TwoLevel => "BigMap",
        })
    }
}

/// Result of comparing a classified local map against the virgin map.
///
/// Ordered: `None < NewBucket < NewEdge`, so `max` composes verdicts.
/// Matches AFL's `has_new_bits` return values 0 / 1 / 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum NewCoverage {
    /// Nothing new: every (slot, bucket) pair was already in the virgin map.
    #[default]
    None,
    /// A known slot reached a hit-count bucket not seen before.
    NewBucket,
    /// A slot was touched for the very first time.
    NewEdge,
}

impl NewCoverage {
    /// Whether the fitness function considers the test case interesting.
    #[inline]
    pub fn is_interesting(self) -> bool {
        self != NewCoverage::None
    }
}

/// A coverage bitmap with the five AFL map operations.
///
/// The hot path is [`record`](CoverageMap::record) — called once per edge
/// event during target execution. Everything else runs once per test case
/// (`reset`, `classify`, `compare`) or once per interesting test case
/// (`hash`).
///
/// Implementations must preserve **observational equivalence**: for the same
/// stream of recorded keys, both schemes must agree on classify buckets,
/// `compare` verdicts (against virgin state of equal history) and
/// interestingness. The cross-scheme property tests in
/// `tests/equivalence.rs` enforce this.
///
/// Implementors must be `'static` (the [`Any`] supertrait): the fuzzer's
/// executor downcasts a `&mut dyn CoverageMap` once per execution to find
/// the shipped map types and drive them through a statically dispatched
/// `record`. Any other implementor still works, through the trait object.
pub trait CoverageMap: Any + Send {
    /// The scheme implemented by this map.
    fn scheme(&self) -> MapScheme;

    /// The logical hash-space size (number of addressable coverage keys).
    fn map_size(&self) -> MapSize;

    /// **Bitmap update** (hot path): records one coverage event for `key`.
    ///
    /// `key` is a raw coverage hash; the map folds it with
    /// `key & (map_size - 1)`, matching AFL's modulo-by-map-size ID
    /// generation. Hit counts saturate at 255 rather than wrapping, so a
    /// slot can never silently return to "unvisited".
    fn record(&mut self, key: u32);

    /// **Bitmap reset**: restores the *active* region to zero.
    ///
    /// Flat: the whole map. BigMap: `[0 .. used_key)` only — the index
    /// bitmap is deliberately untouched so slot assignments persist for the
    /// whole campaign.
    fn reset(&mut self);

    /// **Bitmap classify**: buckets the exact hit counts in the active
    /// region (see [`crate::classify`]).
    fn classify(&mut self);

    /// **Bitmap compare**: diffs the (classified) active region against
    /// `virgin`, clearing the virgin bits this map now covers.
    ///
    /// `virgin` must have been created with the same [`MapSize`].
    ///
    /// # Panics
    ///
    /// Panics if `virgin.map_size() != self.map_size()`.
    fn compare(&mut self, virgin: &mut VirginState) -> NewCoverage;

    /// Merged **classify + compare** (§IV-E optimization): one pass over the
    /// active region doing both. Must be observationally identical to
    /// `classify()` followed by `compare(virgin)`.
    ///
    /// # Panics
    ///
    /// Panics if `virgin.map_size() != self.map_size()`.
    fn classify_and_compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        self.classify();
        self.compare(virgin)
    }

    /// **Bitmap hash**: CRC32 of the active region under the scheme's
    /// watermark rule (flat: whole map; BigMap: up to last non-zero byte).
    fn hash(&self) -> u32;

    /// Number of non-zero bytes in the active region (AFL's `count_bytes`;
    /// feeds queue scoring).
    fn count_nonzero(&self) -> usize;

    /// Length of the active region: the whole map for flat, `used_key` for
    /// BigMap. This is what the per-test-case operations iterate over, so it
    /// is the quantity that explains the paper's entire performance story.
    fn used_len(&self) -> usize;

    /// Visits every non-zero (slot, value) pair in the active region.
    ///
    /// Slot numbers are scheme-local (edge IDs for flat, condensed indices
    /// for BigMap) but stable across the campaign, which is all the
    /// favored-seed culling needs.
    fn for_each_nonzero(&self, f: &mut dyn FnMut(usize, u8));

    /// Read-only view of the active region (used by tests, the cache-trace
    /// adapters and corpus replay).
    fn active_region(&self) -> &[u8];

    /// The current classified/raw value stored for a *logical* coverage key
    /// (after folding). Returns 0 for keys never recorded.
    fn value_of_key(&self, key: u32) -> u8;

    /// Overrides this map instance's sparse/dense dispatch policy; `None`
    /// restores the default, [`SparseMode::Auto`].
    ///
    /// Campaigns set it from `CampaignConfig::sparse`, so one process can
    /// run sparse and dense pipelines side by side (equivalence tests,
    /// benchmark arms). Maps without a sparse pipeline (the flat scheme)
    /// ignore the override — the default implementation is a no-op. The
    /// new policy applies from the current exec on, including whether it
    /// keeps a touch journal.
    fn set_sparse_override(&mut self, _mode: Option<SparseMode>) {}

    /// Which path the most recent classify/compare/merged op dispatched
    /// to. Maps without a sparse pipeline always report [`OpPath::Dense`].
    fn last_op_path(&self) -> OpPath {
        OpPath::Dense
    }

    /// Number of distinct condensed slots first-touched since the last
    /// reset, when the map keeps a complete touch journal. `None` when the
    /// map has no journal (flat scheme), this exec does not journal (see
    /// [`crate::sparse::journals`]) or the journal overflowed this exec.
    fn touched_len(&self) -> Option<usize> {
        None
    }

    /// Whether the touch journal overflowed its capacity this exec,
    /// forcing the dense fallback. Always `false` for maps without a
    /// journal and for execs that do not journal.
    fn journal_overflowed(&self) -> bool {
        false
    }

    /// The allocation backend that served this map's coverage buffer plus
    /// whether an explicit-huge-page request fell back to plain pages,
    /// when the scheme exposes it. `None` for map types that do not track
    /// their allocation (the default).
    ///
    /// This is how the fuzzer's telemetry layer attributes each instance's
    /// map memory to a page backend (`BIGMAP_HUGE`).
    fn alloc_info(&self) -> Option<(crate::alloc::AllocBackend, bool)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_coverage_ordering() {
        assert!(NewCoverage::None < NewCoverage::NewBucket);
        assert!(NewCoverage::NewBucket < NewCoverage::NewEdge);
        assert_eq!(
            NewCoverage::NewBucket.max(NewCoverage::NewEdge),
            NewCoverage::NewEdge
        );
    }

    #[test]
    fn interestingness() {
        assert!(!NewCoverage::None.is_interesting());
        assert!(NewCoverage::NewBucket.is_interesting());
        assert!(NewCoverage::NewEdge.is_interesting());
        assert_eq!(NewCoverage::default(), NewCoverage::None);
    }

    #[test]
    fn scheme_display_matches_paper_labels() {
        assert_eq!(MapScheme::Flat.to_string(), "AFL");
        assert_eq!(MapScheme::TwoLevel.to_string(), "BigMap");
    }
}
