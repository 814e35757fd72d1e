//! # bigmap-core
//!
//! Core data structures of the BigMap reproduction (Ahmed et al., *BigMap:
//! Future-proofing Fuzzers with Efficient Large Maps*, DSN 2021).
//!
//! Coverage-guided fuzzers in the AFL family track coverage in a byte map
//! indexed by a hash of the program location (for AFL: the edge ID
//! `(B_x >> 1) ^ B_y`). Between test cases the fuzzer performs several
//! whole-map operations — *reset*, *classify*, *compare* and *hash* — whose
//! cost is proportional to the **map size**, even though only a small
//! fraction of the map is ever touched by the target. Enlarging the map to
//! mitigate hash collisions therefore collapses test-case throughput.
//!
//! BigMap's fix is a second level of indirection: an *index bitmap* assigns
//! each coverage key a slot in a *condensed* coverage map on first touch, so
//! the active region is a dense prefix `[0 .. used_key)` and every map
//! operation except the update itself runs over that prefix only.
//!
//! This crate provides both schemes behind one trait:
//!
//! * [`FlatBitmap`] — AFL's one-level map (the baseline),
//! * [`BigMap`] — the paper's adaptive two-level map,
//! * [`CoverageMap`] — the common interface used by the fuzzer,
//! * [`VirginState`] — the global "virgin" map that `compare` diffs against,
//! * the §IV-E optimizations: merged classify+compare, non-temporal reset
//!   ([`simd`]) and huge-page-backed allocation ([`alloc`]),
//! * [`kernels`] — AVX2 vector kernels for classify, compare and the
//!   merged pass, picked once by CPU detection into a dispatch table,
//! * [`journal`] / [`sparse`] — the per-exec touched-slot journal, kept
//!   once the used prefix is large enough to repay it, and the adaptive
//!   sparse/dense dispatcher that shrink the per-exec map ops from
//!   `O(used_key)` to `O(touched)` at low densities,
//! * [`hash`] — CRC32 with the paper's hash-up-to-last-non-zero rule,
//! * [`timing`] — the campaign loop's [`Layer`]s and their per-layer
//!   runtime accounting, used to regenerate the paper's Figure 3,
//! * [`counters`] — lock-free event counters, the substrate of the
//!   fuzzer's live telemetry layer,
//! * [`mod@env`] — the documented registry of every `BIGMAP_*` environment
//!   knob with typed parse-and-validate accessors,
//! * [`wire`] — the versioned, checksummed binary framing the process
//!   fleet uses to move corpus sync batches across process boundaries.
//!
//! ## Example
//!
//! ```rust
//! use bigmap_core::{BigMap, CoverageMap, MapSize, NewCoverage, VirginState};
//!
//! # fn main() -> Result<(), bigmap_core::MapSizeError> {
//! let mut map = BigMap::new(MapSize::M2)?;
//! let mut virgin = VirginState::new(MapSize::M2);
//!
//! // A test case executes: the instrumentation records raw coverage keys.
//! for key in [0x1234, 0xfeed_beef, 0x1234] {
//!     map.record(key);
//! }
//!
//! // Post-execution pipeline: classify hit counts into buckets and diff
//! // against the global virgin map. Only the 2-slot used prefix is scanned,
//! // not the whole 2 MiB map.
//! assert_eq!(map.classify_and_compare(&mut virgin), NewCoverage::NewEdge);
//! assert_eq!(map.used_len(), 2);
//!
//! map.reset(); // clears the used prefix only
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod classify;
pub mod counters;
pub mod diff;
pub mod env;
pub mod flat;
pub mod hash;
pub mod interp;
pub mod journal;
pub mod kernels;
pub mod map_size;
pub mod simd;
pub mod sparse;
pub mod timing;
pub mod traits;
pub mod two_level;
pub mod virgin;
pub mod wire;

pub use alloc::{AllocBackend, HugePolicy};
pub use counters::EventCounter;
pub use env::Knob;
pub use flat::FlatBitmap;
pub use hash::Crc32;
pub use interp::InterpMode;
pub use journal::{SlotRun, TouchJournal};
pub use kernels::{KernelKind, KernelTable};
pub use map_size::{MapSize, MapSizeError};
pub use sparse::{OpPath, SparseMode};
pub use timing::{Layer, OpStats};
pub use traits::{CoverageMap, MapScheme, NewCoverage};
pub use two_level::{BigMap, JournaledRecorder, PlainRecorder, Recorder};
pub use virgin::VirginState;
pub use wire::{SyncBatch, WireError};

/// Builds a boxed coverage map of the given scheme and size.
///
/// Convenience for callers that select the scheme at runtime (the benchmark
/// harness does this per experiment arm).
///
/// # Errors
///
/// Returns [`MapSizeError`] if `size` construction failed upstream — the
/// signature takes an already-validated [`MapSize`], so this function itself
/// is infallible and returns the map directly.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::{build_map, MapScheme, MapSize};
///
/// let map = build_map(MapScheme::TwoLevel, MapSize::K64);
/// assert_eq!(map.map_size(), MapSize::K64);
/// ```
pub fn build_map(scheme: MapScheme, size: MapSize) -> Box<dyn CoverageMap> {
    match scheme {
        MapScheme::Flat => Box::new(FlatBitmap::new(size).expect("validated size")),
        MapScheme::TwoLevel => Box::new(BigMap::new(size).expect("validated size")),
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn build_map_selects_scheme() {
        let flat = build_map(MapScheme::Flat, MapSize::K64);
        let two = build_map(MapScheme::TwoLevel, MapSize::K64);
        assert_eq!(flat.scheme(), MapScheme::Flat);
        assert_eq!(two.scheme(), MapScheme::TwoLevel);
        assert_eq!(flat.map_size(), MapSize::K64);
        assert_eq!(two.map_size(), MapSize::K64);
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<FlatBitmap>();
        assert_sync::<FlatBitmap>();
        assert_send::<BigMap>();
        assert_sync::<BigMap>();
        assert_send::<VirginState>();
        assert_sync::<VirginState>();
    }
}
