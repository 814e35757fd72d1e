//! AFL's one-level coverage bitmap — the paper's baseline.
//!
//! The coverage key (e.g. the edge ID `(B_x >> 1) ^ B_y`) indexes the map
//! directly, so hit counts end up scattered across the whole allocation.
//! Every per-test-case operation — reset, classify, compare — must therefore
//! iterate the **full map**, and the hash too: this is precisely the cost
//! the paper measures exploding as the map grows (Figure 3).

use crate::alloc::MapBuffer;
use crate::diff::for_each_nonzero_byte;
use crate::hash::Crc32;
use crate::kernels;
use crate::map_size::{MapSize, MapSizeError};
use crate::simd::nontemporal_zero;
use crate::traits::{CoverageMap, MapScheme, NewCoverage};
use crate::virgin::VirginState;

/// AFL's flat, one-level coverage bitmap.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{CoverageMap, FlatBitmap, MapSize, NewCoverage, VirginState};
///
/// # fn main() -> Result<(), bigmap_core::MapSizeError> {
/// let mut map = FlatBitmap::new(MapSize::K64)?;
/// let mut virgin = VirginState::new(MapSize::K64);
///
/// map.record(42);
/// map.record(42);
/// assert_eq!(map.classify_and_compare(&mut virgin), NewCoverage::NewEdge);
/// assert_eq!(map.value_of_key(42), 2); // two hits → bucket 2
///
/// // The active region of a flat map is always the whole map:
/// assert_eq!(map.used_len(), MapSize::K64.bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FlatBitmap {
    coverage: MapBuffer<u8>,
    size: MapSize,
    mask: u32,
}

impl FlatBitmap {
    /// Creates a zeroed flat bitmap of `size` bytes.
    ///
    /// # Errors
    ///
    /// Infallible for validated [`MapSize`] values; the `Result` mirrors the
    /// construction-from-bytes path used by callers that parse sizes.
    pub fn new(size: MapSize) -> Result<Self, MapSizeError> {
        Ok(FlatBitmap {
            coverage: MapBuffer::zeroed(size.bytes()),
            size,
            mask: size.mask(),
        })
    }

    /// Read-only view of the raw map bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.coverage.as_slice()
    }

    #[inline]
    fn fold(&self, key: u32) -> usize {
        (key & self.mask) as usize
    }
}

impl CoverageMap for FlatBitmap {
    fn scheme(&self) -> MapScheme {
        MapScheme::Flat
    }

    fn alloc_info(&self) -> Option<(crate::alloc::AllocBackend, bool)> {
        Some((self.coverage.backend(), self.coverage.fell_back()))
    }

    fn map_size(&self) -> MapSize {
        self.size
    }

    #[inline]
    fn record(&mut self, key: u32) {
        let slot = self.fold(key);
        let v = &mut self.coverage[slot];
        *v = v.saturating_add(1);
    }

    fn reset(&mut self) {
        // §IV-E: plain memset for maps up to `simd::stream_cutoff()`, which
        // the fused pass re-reads from the last-level cache, streaming
        // stores above it, where a cached reset would evict everything
        // else.
        nontemporal_zero(self.coverage.as_mut_slice());
    }

    fn classify(&mut self) {
        kernels::active().classify(self.coverage.as_mut_slice());
    }

    fn compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        assert_eq!(virgin.map_size(), self.size, "virgin map size mismatch");
        kernels::active().compare(self.coverage.as_slice(), virgin.as_mut_slice())
    }

    fn classify_and_compare(&mut self, virgin: &mut VirginState) -> NewCoverage {
        assert_eq!(virgin.map_size(), self.size, "virgin map size mismatch");
        kernels::active().classify_and_compare(self.coverage.as_mut_slice(), virgin.as_mut_slice())
    }

    fn hash(&self) -> u32 {
        // AFL hashes the whole map: the operation the paper's Figure 3
        // shows growing with map size.
        Crc32::checksum(self.coverage.as_slice())
    }

    fn count_nonzero(&self) -> usize {
        let mut n = 0;
        for_each_nonzero_byte(self.coverage.as_slice(), |_, _| n += 1);
        n
    }

    fn used_len(&self) -> usize {
        self.size.bytes()
    }

    fn for_each_nonzero(&self, f: &mut dyn FnMut(usize, u8)) {
        for_each_nonzero_byte(self.coverage.as_slice(), f);
    }

    fn active_region(&self) -> &[u8] {
        self.coverage.as_slice()
    }

    fn value_of_key(&self, key: u32) -> u8 {
        self.coverage[self.fold(key)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::zero_with_cutoff;

    fn small() -> FlatBitmap {
        FlatBitmap::new(MapSize::K64).unwrap()
    }

    #[test]
    fn record_folds_key_with_mask() {
        let mut map = small();
        map.record(0x0001_0005); // folds to 5 in a 64k map
        assert_eq!(map.value_of_key(5), 1);
        assert_eq!(map.value_of_key(0x0001_0005), 1);
    }

    #[test]
    fn hit_counts_saturate() {
        let mut map = small();
        for _ in 0..300 {
            map.record(9);
        }
        assert_eq!(map.value_of_key(9), 255);
    }

    #[test]
    fn reset_clears_whole_map() {
        // The shipped reset, then both sides of the streaming cutoff: a
        // cutoff of 0 streams every map, one of `usize::MAX` fills it.
        for size in [MapSize::K64, MapSize::M2] {
            for cutoff in [None, Some(0), Some(usize::MAX)] {
                let mut map = FlatBitmap::new(size).unwrap();
                map.record(1);
                map.record(60_000);
                match cutoff {
                    None => map.reset(),
                    Some(cutoff) => zero_with_cutoff(map.coverage.as_mut_slice(), cutoff),
                }
                assert_eq!(map.count_nonzero(), 0, "{size:?}, cutoff {cutoff:?}");
            }
        }
    }

    #[test]
    fn classify_buckets_counts() {
        let mut map = small();
        for _ in 0..5 {
            map.record(7);
        }
        map.classify();
        assert_eq!(map.value_of_key(7), 8); // 5 hits → bucket [4-7] = 8
    }

    #[test]
    fn compare_lifecycle() {
        let mut map = small();
        let mut virgin = VirginState::new(MapSize::K64);

        map.record(100);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::NewEdge);

        map.reset();
        map.record(100);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::None);

        map.reset();
        map.record(100);
        map.record(100);
        map.classify();
        assert_eq!(map.compare(&mut virgin), NewCoverage::NewBucket);
    }

    #[test]
    fn used_len_is_full_map() {
        let map = FlatBitmap::new(MapSize::M2).unwrap();
        assert_eq!(map.used_len(), 2 << 20);
    }

    #[test]
    fn for_each_nonzero_reports_slots() {
        let mut map = small();
        map.record(3);
        map.record(500);
        map.record(500);
        let mut seen = Vec::new();
        map.for_each_nonzero(&mut |slot, v| seen.push((slot, v)));
        assert_eq!(seen, vec![(3, 1), (500, 2)]);
    }

    #[test]
    fn hash_differs_when_coverage_differs() {
        let mut a = small();
        let mut b = small();
        a.record(1);
        b.record(2);
        assert_ne!(a.hash(), b.hash());
        b.reset();
        b.record(1);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    #[should_panic(expected = "virgin map size mismatch")]
    fn mismatched_virgin_panics() {
        let mut map = small();
        let mut virgin = VirginState::new(MapSize::M2);
        map.compare(&mut virgin);
    }
}
