//! N-gram partial path coverage (Wang et al., RAID 2019; AFL++'s `NGRAM`).
//!
//! Instead of keying on a single `(src, dst)` edge, the N-gram metric hashes
//! the IDs of the **last N blocks**, capturing short path fragments. This is
//! the more expressive (and more collision-hungry) metric the paper composes
//! with laf-intel in Table III, with N = 3.

use crate::event::TraceEvent;
use crate::metric::{CoverageMetric, MetricKind};

/// Maximum supported N (AFL++ supports up to 16).
pub const MAX_N: usize = 16;

/// N-gram partial path coverage.
///
/// # Examples
///
/// ```rust
/// use bigmap_coverage::{CoverageMetric, NGram, TraceEvent};
///
/// let mut metric = NGram::new(3).expect("3 <= MAX_N");
/// metric.begin_execution();
/// let mut keys = Vec::new();
/// for block in [1u32, 2, 3, 4] {
///     metric.on_event(TraceEvent::Block(block), &mut |k| keys.push(k));
/// }
/// // One key per block; keys depend on the preceding window.
/// assert_eq!(keys.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct NGram {
    n: usize,
    window: [u32; MAX_N],
    filled: usize,
    cursor: usize,
}

/// Error returned when constructing an [`NGram`] with an unsupported N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidNError(pub usize);

impl std::fmt::Display for InvalidNError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ngram size {} is not in [2, {MAX_N}]", self.0)
    }
}

impl std::error::Error for InvalidNError {}

impl NGram {
    /// Creates an N-gram metric over the last `n` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNError`] unless `2 <= n <= MAX_N`. (N = 1 would be
    /// plain block coverage — use [`crate::BlockCoverage`].)
    pub fn new(n: usize) -> Result<Self, InvalidNError> {
        if !(2..=MAX_N).contains(&n) {
            return Err(InvalidNError(n));
        }
        Ok(NGram {
            n,
            window: [0; MAX_N],
            filled: 0,
            cursor: 0,
        })
    }

    /// The window length N.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn key(&self) -> u32 {
        // Mix the window with position-dependent rotations so that
        // permutations of the same blocks produce different keys.
        let mut h: u32 = 0x9E37_79B9;
        for i in 0..self.filled {
            let idx = (self.cursor + MAX_N - 1 - i) % MAX_N;
            let id = self.window[idx];
            h ^= id.rotate_left((i as u32 * 7) & 31);
            h = h.wrapping_mul(0x85EB_CA6B).rotate_left(13);
        }
        h
    }
}

impl CoverageMetric for NGram {
    fn kind(&self) -> MetricKind {
        MetricKind::NGram(self.n)
    }

    fn begin_execution(&mut self) {
        self.window = [0; MAX_N];
        self.filled = 0;
        self.cursor = 0;
    }

    #[inline]
    fn on_event(&mut self, event: TraceEvent, sink: &mut dyn FnMut(u32)) {
        if let TraceEvent::Block(id) = event {
            self.window[self.cursor] = id;
            self.cursor = (self.cursor + 1) % MAX_N;
            self.filled = (self.filled + 1).min(self.n);
            sink(self.key());
        }
    }

    fn pressure_factor(&self) -> f64 {
        // Empirically N-gram multiplies distinct keys by roughly the average
        // number of distinct length-N prefixes per edge; 2^(n-2) is the
        // conservative planning figure used by the suite sizing code.
        (1 << (self.n.saturating_sub(2))) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn keys_for(n: usize, blocks: &[u32]) -> Vec<u32> {
        let mut metric = NGram::new(n).unwrap();
        metric.begin_execution();
        let mut keys = Vec::new();
        for &b in blocks {
            metric.on_event(TraceEvent::Block(b), &mut |k| keys.push(k));
        }
        keys
    }

    #[test]
    fn rejects_bad_n() {
        assert_eq!(NGram::new(0).unwrap_err(), InvalidNError(0));
        assert_eq!(NGram::new(1).unwrap_err(), InvalidNError(1));
        assert_eq!(NGram::new(17).unwrap_err(), InvalidNError(17));
        assert!(NGram::new(2).is_ok());
        assert!(NGram::new(16).is_ok());
    }

    #[test]
    fn distinguishes_paths_plain_edges_conflate() {
        // Paths X->A->B and Y->A->B share the edge A->B; a 3-gram separates
        // them — that is the added expressiveness.
        let via_x = keys_for(3, &[100, 7, 8]);
        let via_y = keys_for(3, &[200, 7, 8]);
        assert_ne!(via_x[2], via_y[2], "3-gram must separate the A->B visit");

        // Edge coverage, by contrast, conflates them:
        let edge_via_x = crate::edge_key(7, 8);
        let edge_via_y = crate::edge_key(7, 8);
        assert_eq!(edge_via_x, edge_via_y);
    }

    #[test]
    fn order_matters() {
        let abc = keys_for(3, &[1, 2, 3]);
        let acb = keys_for(3, &[1, 3, 2]);
        assert_ne!(abc[2], acb[2]);
    }

    #[test]
    fn window_is_bounded_by_n() {
        // Once the window is saturated, blocks older than N cannot matter.
        let long_a = keys_for(3, &[9, 9, 9, 1, 2, 3]);
        let long_b = keys_for(3, &[5, 5, 5, 1, 2, 3]);
        assert_eq!(
            long_a[5], long_b[5],
            "key must depend on the last 3 blocks only"
        );
    }

    #[test]
    fn emits_higher_key_diversity_than_edges() {
        // A loop body executed repeatedly from different entry paths should
        // produce more distinct ngram keys than edge keys — the map
        // pressure the paper talks about.
        let trace: Vec<u32> = (0..50).flat_map(|i| [i, 1000, 1001, 1002]).collect();
        let ngram: HashSet<u32> = keys_for(3, &trace).into_iter().collect();
        let edges: HashSet<u32> = {
            let mut metric = crate::EdgeHitCount::new();
            metric.begin_execution();
            let mut keys = HashSet::new();
            for &b in &trace {
                metric.on_event(TraceEvent::Block(b), &mut |k| {
                    keys.insert(k);
                });
            }
            keys
        };
        assert!(
            ngram.len() > edges.len(),
            "ngram {} should exceed edge {}",
            ngram.len(),
            edges.len()
        );
    }

    #[test]
    fn pressure_factor_grows_with_n() {
        assert!(
            NGram::new(4).unwrap().pressure_factor() > NGram::new(3).unwrap().pressure_factor()
        );
    }

    proptest! {
        #[test]
        fn deterministic(
            n in 2usize..=8,
            blocks in prop::collection::vec(any::<u32>(), 0..100),
        ) {
            prop_assert_eq!(keys_for(n, &blocks), keys_for(n, &blocks));
        }

        #[test]
        fn begin_execution_isolates_runs(
            n in 2usize..=8,
            first in prop::collection::vec(any::<u32>(), 1..50),
            second in prop::collection::vec(any::<u32>(), 1..50),
        ) {
            // Running `second` after `first` with a reset in between must
            // equal running `second` alone.
            let mut metric = NGram::new(n).unwrap();
            metric.begin_execution();
            for &b in &first {
                metric.on_event(TraceEvent::Block(b), &mut |_| {});
            }
            metric.begin_execution();
            let mut with_history = Vec::new();
            for &b in &second {
                metric.on_event(TraceEvent::Block(b), &mut |k| with_history.push(k));
            }
            prop_assert_eq!(with_history, keys_for(n, &second));
        }
    }
}
