//! BigMap's adaptive two-level coverage bitmap — the paper's contribution.
//!
//! Three data structures (§IV-A):
//!
//! 1. an **index bitmap** mapping each coverage key to a slot in the
//!    condensed coverage map (`u32::MAX` = the paper's `-1` sentinel:
//!    "no slot assigned yet"),
//! 2. a **coverage bitmap** holding the hit counts, densely packed,
//! 3. **`used_key`**, the next free slot / length of the used prefix.
//!
//! On the first touch of a key the update path assigns the next free slot
//! and bumps `used_key` (Listing 2 of the paper); every later touch is one
//! extra well-cached index load plus the same coverage increment AFL does.
//! An exec that keeps a touch journal for the sparse pipeline records
//! through a separate variant; [`BigMap::recorder`] hands out the exec's
//! variant as its own type, so a caller that records a whole trace (the
//! executor's trace sink) runs exactly Listing 2 per event when the exec
//! does not journal.
//! Because the index bitmap is **never reset**, a key keeps its slot for the
//! whole campaign, so the global virgin maps can be condensed the same way
//! and every per-test-case operation runs over `[0 .. used_key)` instead of
//! the whole allocation.

use crate::alloc::MapBuffer;
use crate::diff::for_each_nonzero_byte;
use crate::hash::hash_to_last_nonzero;
use crate::journal::{self, TouchJournal};
use crate::kernels;
use crate::map_size::{MapSize, MapSizeError};
use crate::sparse::{self, OpPath, SparseMode};
use crate::traits::{CoverageMap, MapScheme, NewCoverage};
use crate::virgin::VirginState;

/// The paper's `-1`: "this key has no condensed slot yet".
pub const UNASSIGNED: u32 = u32::MAX;

/// BigMap's two-level condensed coverage bitmap.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{BigMap, CoverageMap, MapSize};
///
/// # fn main() -> Result<(), bigmap_core::MapSizeError> {
/// let mut map = BigMap::new(MapSize::M8)?;
///
/// // Three events on two distinct keys consume two condensed slots:
/// map.record(0xAAAA);
/// map.record(0xBBBB);
/// map.record(0xAAAA);
/// assert_eq!(map.used_len(), 2);
///
/// // Slots are assigned in discovery order and are stable:
/// assert_eq!(map.slot_of_key(0xAAAA), Some(0));
/// assert_eq!(map.slot_of_key(0xBBBB), Some(1));
/// assert_eq!(map.value_of_key(0xAAAA), 2);
///
/// // Reset clears the 2-byte used prefix, not 8 MiB — and keeps the
/// // slot assignments.
/// map.reset();
/// assert_eq!(map.slot_of_key(0xAAAA), Some(0));
/// assert_eq!(map.value_of_key(0xAAAA), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BigMap {
    index: MapBuffer<u32>,
    coverage: MapBuffer<u8>,
    used_key: u32,
    size: MapSize,
    mask: u32,
    /// Condensed slots first-touched this exec; drives the sparse pipeline
    /// when complete. Empty whenever `journaling` is off.
    journal: TouchJournal,
    /// Whether this exec's `record`s go through the journaled variant.
    /// Fixed at `reset` (and by `set_sparse_override`) from the dispatch
    /// policy and the used prefix ([`sparse::journals`]).
    journaling: bool,
    /// The dispatch policy in force for this instance.
    sparse_mode: SparseMode,
    /// Path the most recent classify/compare/merged op dispatched to.
    last_path: OpPath,
}

impl BigMap {
    /// Creates a two-level bitmap for a hash space of `size` keys.
    ///
    /// This performs the campaign's **single** whole-map touch: the index
    /// bitmap is filled with the [`UNASSIGNED`] sentinel and the coverage
    /// bitmap is zeroed (§IV-B "initialize").
    ///
    /// # Errors
    ///
    /// Infallible for validated [`MapSize`] values; the `Result` mirrors the
    /// construction-from-bytes path used by callers that parse sizes.
    pub fn new(size: MapSize) -> Result<Self, MapSizeError> {
        Self::with_journal_capacity(size, journal::capacity_for(size.bytes()))
    }

    /// Creates a two-level bitmap with an explicit touch-journal bound.
    ///
    /// Mostly for tests and benchmarks: a tiny capacity forces journal
    /// overflow (and thus the dense fallback) cheaply. [`BigMap::new`]
    /// uses the size-scaled bound ([`journal::capacity_for`]: the default
    /// [`journal::DEFAULT_JOURNAL_CAPACITY`] up to 16 MiB maps), far above
    /// realistic per-exec touch counts. The run vector is allocated only
    /// when the map first journals.
    ///
    /// # Errors
    ///
    /// Infallible for validated [`MapSize`] values, like [`BigMap::new`].
    pub fn with_journal_capacity(
        size: MapSize,
        journal_capacity: usize,
    ) -> Result<Self, MapSizeError> {
        Ok(BigMap {
            index: MapBuffer::filled(size.bytes(), UNASSIGNED),
            coverage: MapBuffer::zeroed(size.bytes()),
            used_key: 0,
            size,
            mask: size.mask(),
            journal: TouchJournal::with_capacity(journal_capacity),
            journaling: sparse::journals(SparseMode::Auto, 0),
            sparse_mode: SparseMode::Auto,
            last_path: OpPath::Dense,
        })
    }

    /// The current `used_key` watermark: number of condensed slots assigned
    /// so far (= number of distinct coverage keys ever recorded).
    #[inline]
    pub fn used_key(&self) -> u32 {
        self.used_key
    }

    /// The condensed slot assigned to `key`, or `None` if the key has never
    /// been recorded.
    pub fn slot_of_key(&self, key: u32) -> Option<u32> {
        let entry = self.index[self.fold(key)];
        (entry != UNASSIGNED).then_some(entry)
    }

    /// Read-only view of the full index bitmap (tests, cache-trace adapters).
    pub fn index_slice(&self) -> &[u32] {
        self.index.as_slice()
    }

    /// The touch journal of the current exec (tests, benchmarks); empty
    /// when the exec does not journal.
    pub fn journal(&self) -> &TouchJournal {
        &self.journal
    }

    /// Listing 2's index lookup: the condensed slot of `key`, assigning
    /// the next free one on first touch. The sentinel check is almost
    /// always not-taken (new-edge discovery is rare), which is why the
    /// indirection is nearly free in practice (§IV-D).
    #[inline(always)]
    fn slot_for(&mut self, key: u32) -> u32 {
        let e = self.fold(key);
        let mut k = self.index[e];
        if k == UNASSIGNED {
            k = self.used_key;
            self.index[e] = k;
            self.used_key += 1;
        }
        k
    }

    /// The current exec's `record` path, decided once at `reset` (or by
    /// `set_sparse_override`): for callers that record a whole exec's
    /// trace and want the journaling choice out of the per-event loop.
    /// Holding the recorder borrows the map, so the choice cannot change
    /// while it is in use.
    pub fn recorder(&mut self) -> Recorder<'_> {
        if self.journaling {
            Recorder::Journaled(JournaledRecorder(self))
        } else {
            Recorder::Plain(PlainRecorder(self))
        }
    }

    /// `record` for an exec that keeps no journal: Listing 2 — query the
    /// index bitmap, assign the next free slot on first touch, bump the
    /// condensed hit count — and nothing else.
    #[inline]
    fn record_plain(&mut self, key: u32) {
        let k = self.slot_for(key);
        let v = &mut self.coverage[k as usize];
        *v = v.saturating_add(1);
    }

    /// `record` for an exec that keeps a touch journal: Listing 2 plus a
    /// journal append on the slot's first touch this exec.
    ///
    /// The coverage byte is the dedup: every reset leaves the used prefix
    /// all zero and a saturating increment never returns a byte to zero,
    /// so a zero byte means "not yet touched this exec".
    #[inline]
    fn record_journaled(&mut self, key: u32) {
        let k = self.slot_for(key);
        let v = &mut self.coverage[k as usize];
        if *v == 0 {
            self.journal.touch(k);
        }
        *v = v.saturating_add(1);
    }

    #[inline]
    fn fold(&self, key: u32) -> usize {
        (key & self.mask) as usize
    }

    #[inline]
    fn used(&self) -> usize {
        self.used_key as usize
    }

    /// One dispatch decision per exec, shared by every per-exec op: the
    /// journal does not change between classify, compare and the merged
    /// pass (and `reset` consumes the same journal at the start of the
    /// next exec), so recomputing the pure policy gives the same answer
    /// each time. An exec without a journal is always dense.
    #[inline]
    fn dispatch_path(&self) -> OpPath {
        if !self.journaling {
            return OpPath::Dense;
        }
        sparse::select_path(
            self.sparse_mode,
            self.journal.is_complete(),
            self.journal.len(),
            self.journal.runs().len(),
            self.used(),
        )
    }
}

impl CoverageMap for BigMap {
    fn scheme(&self) -> MapScheme {
        MapScheme::TwoLevel
    }

    fn map_size(&self) -> MapSize {
        self.size
    }

    #[inline]
    fn record(&mut self, key: u32) {
        // Per-event dispatch for callers holding the trait; the executor
        // takes `recorder()` once per exec instead.
        if self.journaling {
            self.record_journaled(key);
        } else {
            self.record_plain(key);
        }
    }

    fn reset(&mut self) {
        // Only the used prefix — the whole point. The index bitmap is NOT
        // touched: slot assignments persist for the campaign (§IV-B).
        //
        // The journal of the exec being discarded lists every slot written
        // since the previous reset (when complete), so the sparse path can
        // clear exactly those slots instead of memsetting the prefix. The
        // journal then advances: the next exec starts with an empty journal
        // over an all-zero prefix, which re-establishes the completeness
        // invariant (and the coverage-byte dedup) inductively. Whether the
        // next exec journals at all is decided here, once.
        let used = self.used();
        match self.dispatch_path() {
            OpPath::Sparse => sparse::reset_runs(&mut self.coverage[..used], self.journal.runs()),
            OpPath::Dense => self.coverage[..used].fill(0),
        }
        self.journal.advance();
        self.journaling = sparse::journals(self.sparse_mode, used);
        if self.journaling {
            self.journal.reserve();
        }
    }

    fn classify(&mut self) {
        // Dense: the condensed prefix goes through the same dispatch table
        // as the flat map's whole-allocation pass — the kernels are offset-
        // and length-agnostic, so `[0 .. used_key)` needs no special
        // casing. Sparse: bucket only this exec's journaled runs, handing
        // long runs back to the same kernels as sub-slices.
        let used = self.used();
        let path = self.dispatch_path();
        self.last_path = path;
        match path {
            OpPath::Sparse => sparse::classify_runs(
                &mut self.coverage[..used],
                self.journal.runs(),
                kernels::active(),
            ),
            OpPath::Dense => kernels::active().classify(&mut self.coverage[..used]),
        }
    }

    fn compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        assert_eq!(virgin.map_size(), self.size, "virgin map size mismatch");
        let used = self.used();
        let path = self.dispatch_path();
        self.last_path = path;
        match path {
            OpPath::Sparse => sparse::compare_runs(
                &self.coverage[..used],
                &mut virgin.as_mut_slice()[..used],
                self.journal.runs(),
                kernels::active(),
            ),
            OpPath::Dense => kernels::active()
                .compare(&self.coverage[..used], &mut virgin.as_mut_slice()[..used]),
        }
    }

    fn classify_and_compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        assert_eq!(virgin.map_size(), self.size, "virgin map size mismatch");
        let used = self.used();
        let path = self.dispatch_path();
        self.last_path = path;
        match path {
            OpPath::Sparse => sparse::classify_and_compare_runs(
                &mut self.coverage[..used],
                &mut virgin.as_mut_slice()[..used],
                self.journal.runs(),
                kernels::active(),
            ),
            OpPath::Dense => kernels::active().classify_and_compare(
                &mut self.coverage[..used],
                &mut virgin.as_mut_slice()[..used],
            ),
        }
    }

    fn hash(&self) -> u32 {
        // §IV-D: hash up to the last non-zero byte, so the hash is a pure
        // function of the path and not of how far used_key has grown.
        // Deliberately dense regardless of the journal: the CRC runs over
        // the prefix in slot order, which a first-touch-ordered journal
        // walk cannot reproduce.
        hash_to_last_nonzero(&self.coverage[..self.used()])
    }

    fn count_nonzero(&self) -> usize {
        let mut n = 0;
        for_each_nonzero_byte(&self.coverage[..self.used()], |_, _| n += 1);
        n
    }

    fn used_len(&self) -> usize {
        self.used()
    }

    fn for_each_nonzero(&self, f: &mut dyn FnMut(usize, u8)) {
        for_each_nonzero_byte(&self.coverage[..self.used()], f);
    }

    fn active_region(&self) -> &[u8] {
        &self.coverage[..self.used()]
    }

    fn value_of_key(&self, key: u32) -> u8 {
        match self.slot_of_key(key) {
            Some(slot) => self.coverage[slot as usize],
            None => 0,
        }
    }

    fn set_sparse_override(&mut self, mode: Option<SparseMode>) {
        self.sparse_mode = mode.unwrap_or_default();
        let used = self.used();
        let journaling = sparse::journals(self.sparse_mode, used);
        if journaling != self.journaling {
            // Switching on mid-exec: the records since the last reset went
            // unjournaled, so seed the journal with their slots (the
            // prefix's nonzero bytes) to keep it complete. Right after a
            // reset the prefix is all zero and this adds nothing.
            self.journal.advance();
            if journaling {
                let journal = &mut self.journal;
                journal.reserve();
                for_each_nonzero_byte(&self.coverage[..used], |slot, _| journal.touch(slot as u32));
            }
            self.journaling = journaling;
        }
    }

    fn last_op_path(&self) -> OpPath {
        self.last_path
    }

    fn touched_len(&self) -> Option<usize> {
        (self.journaling && self.journal.is_complete()).then(|| self.journal.len())
    }

    fn journal_overflowed(&self) -> bool {
        self.journal.overflowed()
    }

    fn alloc_info(&self) -> Option<(crate::alloc::AllocBackend, bool)> {
        Some((self.coverage.backend(), self.coverage.fell_back()))
    }
}

/// One exec's `record` path on a [`BigMap`], from [`BigMap::recorder`].
///
/// Matching on it once per exec and recording through the variant's own
/// type gives each path its own monomorphized caller: the plain one
/// carries no journal code at all.
#[derive(Debug)]
pub enum Recorder<'a> {
    /// The exec keeps no journal.
    Plain(PlainRecorder<'a>),
    /// The exec journals first touches for the sparse pipeline.
    Journaled(JournaledRecorder<'a>),
}

/// Records into a [`BigMap`] whose current exec keeps no journal.
#[derive(Debug)]
pub struct PlainRecorder<'a>(&'a mut BigMap);

impl PlainRecorder<'_> {
    /// [`CoverageMap::record`] for this exec: Listing 2 alone.
    #[inline]
    pub fn record(&mut self, key: u32) {
        self.0.record_plain(key);
    }
}

/// Records into a [`BigMap`] whose current exec journals first touches.
#[derive(Debug)]
pub struct JournaledRecorder<'a>(&'a mut BigMap);

impl JournaledRecorder<'_> {
    /// [`CoverageMap::record`] for this exec: Listing 2 plus the journal
    /// append on a slot's first touch.
    #[inline]
    pub fn record(&mut self, key: u32) {
        self.0.record_journaled(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> BigMap {
        BigMap::new(MapSize::K64).unwrap()
    }

    #[test]
    fn paper_figure4_update_example() {
        // Figure 4(b): edge ID 8 arrives when used_key = 5; it gets slot 5.
        let mut map = small();
        for key in [1u32, 2, 8, 12, 5] {
            map.record(key);
        }
        assert_eq!(map.used_key(), 5);
        map.record(8); // existing key: no new slot
        assert_eq!(map.used_key(), 5);
        assert_eq!(map.slot_of_key(8), Some(2));
        map.record(40); // brand-new key: next slot = 5
        assert_eq!(map.slot_of_key(40), Some(5));
        assert_eq!(map.used_key(), 6);
    }

    #[test]
    fn slots_assigned_in_discovery_order() {
        let mut map = small();
        map.record(0xCAFE);
        map.record(0x0001);
        map.record(0xBEEF);
        assert_eq!(map.slot_of_key(0xCAFE), Some(0));
        assert_eq!(map.slot_of_key(0x0001), Some(1));
        assert_eq!(map.slot_of_key(0xBEEF), Some(2));
        assert_eq!(map.slot_of_key(0x1234), None);
    }

    #[test]
    fn reset_preserves_index_and_clears_prefix_only() {
        let mut map = small();
        map.record(7);
        map.record(9);
        map.reset();
        assert_eq!(map.used_key(), 2);
        assert_eq!(map.slot_of_key(7), Some(0));
        assert_eq!(map.value_of_key(7), 0);
        // Re-recording reuses the same slot.
        map.record(7);
        assert_eq!(map.slot_of_key(7), Some(0));
        assert_eq!(map.used_key(), 2);
    }

    #[test]
    fn used_key_never_exceeds_distinct_keys() {
        let mut map = small();
        for i in 0..1000u32 {
            map.record(i % 100);
        }
        assert_eq!(map.used_key(), 100);
        assert_eq!(map.used_len(), 100);
    }

    #[test]
    fn folding_collides_like_afl() {
        // Keys equal modulo map size collide — that is the hash collision
        // the paper mitigates with LARGER maps, not with the indirection.
        let mut map = small();
        map.record(5);
        map.record(5 + (1 << 16));
        assert_eq!(map.used_key(), 1);
        assert_eq!(map.value_of_key(5), 2);
    }

    #[test]
    fn classify_operates_on_prefix() {
        let mut map = small();
        for _ in 0..20 {
            map.record(11);
        }
        map.record(13);
        map.classify();
        assert_eq!(map.value_of_key(11), 32); // 20 hits → [16-31] = 32
        assert_eq!(map.value_of_key(13), 1);
    }

    #[test]
    fn compare_lifecycle_condensed_virgin() {
        let mut map = small();
        let mut virgin = VirginState::new(MapSize::K64);

        map.record(0xAB);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::NewEdge);

        map.reset();
        map.record(0xAB);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::None);

        map.reset();
        map.record(0xAB);
        map.record(0xAB);
        map.record(0xAB);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::NewBucket);
    }

    #[test]
    fn hash_stable_across_used_key_growth() {
        // The §IV-D P1/P3 scenario end-to-end on the real structure.
        let mut map = small();
        let run = |map: &mut BigMap, keys: &[u32]| {
            map.reset();
            for &k in keys {
                map.record(k);
            }
            map.classify();
            map.hash()
        };
        let p1 = run(&mut map, &[10, 20]); // A->B->C
        let p2 = run(&mut map, &[10, 20, 30]); // discovers D, used_key -> 3
        let p3 = run(&mut map, &[10, 20]); // same path as P1
        assert_eq!(p1, p3, "same path must hash identically after growth");
        assert_ne!(p1, p2);
    }

    #[test]
    fn empty_map_operations_are_noops() {
        let mut map = small();
        let mut virgin = VirginState::new(MapSize::K64);
        map.reset();
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::None);
        assert_eq!(map.hash(), crate::hash::Crc32::checksum(b""));
        assert_eq!(map.count_nonzero(), 0);
        assert_eq!(map.used_len(), 0);
    }

    #[test]
    fn for_each_nonzero_uses_condensed_slots() {
        let mut map = small();
        map.record(0xF00);
        map.record(0xF00);
        map.record(0x00F);
        let mut seen = Vec::new();
        map.for_each_nonzero(&mut |slot, v| seen.push((slot, v)));
        assert_eq!(seen, vec![(0, 2), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "virgin map size mismatch")]
    fn mismatched_virgin_panics() {
        let mut map = small();
        let mut virgin = VirginState::new(MapSize::M2);
        map.compare(&mut virgin);
    }

    #[test]
    fn journal_lists_first_touched_slots_and_resets() {
        use crate::journal::SlotRun;
        let mut map = small();
        map.set_sparse_override(Some(SparseMode::On));
        map.record(7);
        map.record(9);
        map.record(7);
        // Slots 0 and 1 are assigned in discovery order and touched
        // back-to-back, so they coalesce into one journal run.
        assert_eq!(map.journal().runs(), &[SlotRun { base: 0, len: 2 }]);
        assert_eq!(map.journal().iter_slots().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(map.touched_len(), Some(2));
        map.reset();
        assert!(map.journal().is_empty());
        map.record(9); // existing slot 1, first touch of this exec
        assert_eq!(map.journal().runs(), &[SlotRun { base: 1, len: 1 }]);
    }

    #[test]
    fn journaled_record_dedups_on_the_coverage_byte() {
        // A slot's byte saturates at 255 and never returns to zero within
        // an exec, so 300 touches journal it once; after reset the next
        // exec journals it again.
        let mut map = small();
        map.set_sparse_override(Some(SparseMode::On));
        for _ in 0..300 {
            map.record(7);
        }
        assert_eq!(map.value_of_key(7), 255);
        assert_eq!(map.journal().iter_slots().collect::<Vec<_>>(), vec![0]);
        map.reset();
        map.record(7);
        assert_eq!(map.journal().iter_slots().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn plain_execs_keep_no_journal() {
        // Off never journals, and Auto does not below the used-prefix gate.
        for mode in [SparseMode::Off, SparseMode::Auto] {
            let mut map = small();
            map.set_sparse_override(Some(mode));
            for key in 0..64 {
                map.record(key);
            }
            assert!(map.journal().is_empty(), "{mode:?}");
            assert_eq!(map.touched_len(), None, "{mode:?}");
            assert!(!map.journal_overflowed(), "{mode:?}");
            map.classify();
            assert_eq!(map.last_op_path(), OpPath::Dense, "{mode:?}");
        }
    }

    #[test]
    fn journaling_switched_on_mid_exec_seeds_the_unjournaled_touches() {
        // Records made before the override went unjournaled; the journal
        // must still list them, or the sparse walk would miss coverage.
        let mut map = small();
        map.set_sparse_override(Some(SparseMode::Off));
        map.record(1);
        map.record(2);
        map.set_sparse_override(Some(SparseMode::On));
        map.record(2);
        map.record(3);
        assert_eq!(
            map.journal().iter_slots().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(map.touched_len(), Some(3));
        // Switching off drops the journal for the rest of the exec.
        map.set_sparse_override(Some(SparseMode::Off));
        assert_eq!(map.touched_len(), None);
        assert!(map.journal().is_empty());
    }

    #[test]
    fn forced_sparse_matches_forced_dense_pipeline() {
        let mut sparse_map = small();
        sparse_map.set_sparse_override(Some(SparseMode::On));
        let mut dense_map = small();
        dense_map.set_sparse_override(Some(SparseMode::Off));
        let mut sparse_virgin = VirginState::new(MapSize::K64);
        let mut dense_virgin = VirginState::new(MapSize::K64);

        let execs: &[&[u32]] = &[
            &[1, 2, 3, 2, 2],
            &[1, 2],
            &[9, 9, 9, 9, 9, 9, 9, 9, 9],
            &[1, 2, 3, 9, 40],
            &[],
        ];
        for keys in execs {
            for map in [&mut sparse_map, &mut dense_map] {
                map.reset();
                for &k in *keys {
                    map.record(k);
                }
            }
            let sv = sparse_map.classify_and_compare(&mut sparse_virgin);
            let dv = dense_map.classify_and_compare(&mut dense_virgin);
            assert_eq!(sv, dv, "verdict diverged on {keys:?}");
            assert_eq!(sparse_map.last_op_path(), OpPath::Sparse);
            assert_eq!(dense_map.last_op_path(), OpPath::Dense);
            assert_eq!(sparse_map.hash(), dense_map.hash());
            assert_eq!(sparse_map.active_region(), dense_map.active_region());
            assert_eq!(
                sparse_virgin.as_slice(),
                dense_virgin.as_slice(),
                "virgin state diverged on {keys:?}"
            );
        }
    }

    #[test]
    fn journal_overflow_falls_back_dense_and_stays_correct() {
        let mut map = BigMap::with_journal_capacity(MapSize::K64, 2).unwrap();
        map.set_sparse_override(Some(SparseMode::On));
        let mut virgin = VirginState::new(MapSize::K64);
        let mut reference = small();
        reference.set_sparse_override(Some(SparseMode::Off));
        let mut ref_virgin = VirginState::new(MapSize::K64);

        // Fresh keys get consecutive slots and coalesce into one run, so
        // the first exec fits capacity 2 however many keys it records.
        // Overflow needs ≥ 3 *scattered* runs: re-touching alternating
        // established slots does exactly that.
        let execs: &[(&[u32], bool)] = &[
            (&[1, 2, 3, 4, 5, 6], false), // slots 0..6: one run
            (&[1, 3], false),             // slots 0, 2: two runs
            (&[1, 3, 5], true),           // slots 0, 2, 4: third run dropped
            (&[2, 3, 4], false),          // slots 1..4: one run again
        ];
        for &(keys, expect_overflow) in execs {
            map.reset();
            reference.reset();
            for &k in keys {
                map.record(k);
                reference.record(k);
            }
            let overflowed = map.journal_overflowed();
            assert_eq!(overflowed, expect_overflow, "keys {keys:?}");
            assert_eq!(map.touched_len().is_none(), overflowed);
            let got = map.classify_and_compare(&mut virgin);
            let want = reference.classify_and_compare(&mut ref_virgin);
            assert_eq!(got, want);
            if overflowed {
                assert_eq!(map.last_op_path(), OpPath::Dense);
            } else {
                assert_eq!(map.last_op_path(), OpPath::Sparse);
            }
            assert_eq!(map.hash(), reference.hash());
        }
        assert_eq!(
            &virgin.as_slice()[..map.used_len()],
            &ref_virgin.as_slice()[..reference.used_len()]
        );
    }

    proptest! {
        #[test]
        fn index_entries_unique_and_below_used_key(
            keys in prop::collection::vec(any::<u32>(), 0..500),
        ) {
            let mut map = BigMap::new(MapSize::K64).unwrap();
            for &k in &keys {
                map.record(k);
            }
            let used = map.used_key();
            let mut seen = std::collections::HashSet::new();
            for &entry in map.index_slice() {
                if entry != UNASSIGNED {
                    prop_assert!(entry < used);
                    prop_assert!(seen.insert(entry), "duplicate slot {entry}");
                }
            }
            prop_assert_eq!(seen.len() as u32, used);
        }

        #[test]
        fn used_key_monotone_under_any_interleaving(
            ops in prop::collection::vec(any::<u32>(), 0..300),
        ) {
            let mut map = BigMap::new(MapSize::K64).unwrap();
            let mut last = 0;
            for (i, &k) in ops.iter().enumerate() {
                if i % 7 == 6 {
                    map.reset(); // resets never shrink used_key
                }
                map.record(k);
                prop_assert!(map.used_key() >= last);
                last = map.used_key();
            }
        }

        #[test]
        fn hit_counts_match_reference_counter(
            keys in prop::collection::vec(0u32..2048, 0..400),
        ) {
            let mut map = BigMap::new(MapSize::K64).unwrap();
            let mut reference = std::collections::HashMap::<u32, u32>::new();
            for &k in &keys {
                map.record(k);
                *reference.entry(k).or_default() += 1;
            }
            for (&k, &count) in &reference {
                prop_assert_eq!(
                    map.value_of_key(k) as u32,
                    count.min(255)
                );
            }
        }
    }
}
