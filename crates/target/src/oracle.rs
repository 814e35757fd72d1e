//! The novelty oracle behind coverage-preserving selective tracing.
//!
//! "Same Coverage, Less Bloat"-style coverage-guided tracing runs most
//! test cases *untraced* and re-executes only the suspicious ones with
//! full coverage instrumentation. That is sound only if the cheap
//! untraced pass can prove "this execution cannot change any campaign
//! state" — the oracle here is that proof, and it is **strictly
//! conservative by construction**: false positives (flagging an
//! already-seen execution as suspicious, costing one redundant traced
//! exec) are allowed; false negatives (skipping an execution that would
//! have shown new coverage) are not.
//!
//! Two observations per execution, both fed by a [`TraceSink`]
//! implementation so the interpreter's fast path reuses the exact
//! step-charging loop of the traced path:
//!
//! * **Hit-count filter over block IDs** — a fixed-size table with one
//!   bit per `(block, AFL hit-count bucket)` pair. Program block IDs are
//!   dense (`0..block_count`), so the table indexes exactly rather than
//!   lossily: a bit is set only after a *traced* execution committed
//!   that pair, and a cleared bit always flags the exec. This is the
//!   "bloom filter" role with a zero false-"seen" rate for in-range
//!   blocks; any out-of-range block conservatively flags the exec.
//! * **Rolling path hash** — a 64-bit FNV-style hash over the complete
//!   event sequence (blocks, call sites, returns, in order). Two
//!   executions with equal hashes traced through equal event sequences
//!   (modulo 64-bit collisions, see below), and an equal event sequence
//!   reproduces byte-identical coverage under *any* metric — so a path
//!   whose hash was committed by a previous traced `Ok` execution is
//!   provably `NoNew` against a virgin map that only ever shrinks.
//!
//! An execution may be skipped only when **both** hold: every
//! `(block, bucket)` pair it produced is already committed, *and* its
//! path hash is in the committed set. Everything else — crashes, hangs,
//! any unseen pair or path — must be re-executed with full tracing.
//!
//! The path-hash set membership is exact (a `HashSet`, capped; once the
//! cap is reached new paths simply stay uncommitted and keep re-tracing,
//! which degrades throughput, never coverage). The only residual
//! unsoundness is a 64-bit hash collision between two distinct event
//! sequences (~2⁻⁶⁴ per pair), and a collision must *additionally* pass
//! the exact per-block bucket filter to cause a wrong skip.

use std::collections::HashSet;

use crate::interp::TraceSink;

/// Default cap on the committed path-hash set. At 8 bytes per hash this
/// bounds the set at ~8 MiB; campaigns that somehow exceed it keep
/// running correctly (new paths simply keep re-tracing forever).
pub const DEFAULT_MAX_PATHS: usize = 1 << 20;

/// FNV-1a 64-bit offset basis / prime (the rolling path hash).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Event-kind tags mixed into the path hash so a block index can never
/// alias a call-site index or a return.
const TAG_BLOCK: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_CALL: u64 = 0xc2b2_ae3d_27d4_eb4f;
const TAG_RETURN: u64 = 0x165667b19e3779f9;

#[inline]
fn bucket_bit(count: u32) -> u8 {
    // AFL's classify_counts bucketing, as a bit index 0..8.
    match count {
        0 => 0, // unreachable for touched blocks; bit 0 is the "1" bucket
        1 => 1 << 0,
        2 => 1 << 1,
        3 => 1 << 2,
        4..=7 => 1 << 3,
        8..=15 => 1 << 4,
        16..=31 => 1 << 5,
        32..=127 => 1 << 6,
        _ => 1 << 7,
    }
}

/// The persistent + per-execution state of the novelty oracle. See the
/// module docs for the conservativeness argument.
///
/// # Examples
///
/// ```rust
/// use bigmap_target::{Interpreter, NoveltyOracle, ProgramBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = ProgramBuilder::new("demo").gate(0, b'!', false).build()?;
/// let interp = Interpreter::new(&program);
/// let mut oracle = NoveltyOracle::new(program.block_count());
///
/// // First sighting: nothing is committed yet, so the exec is suspicious.
/// oracle.begin_exec();
/// assert!(interp.run(b"!", &mut oracle).is_ok());
/// assert!(!oracle.provably_seen());
/// oracle.commit(); // ...after the full traced re-execution
///
/// // Replay of the identical path: provably seen, safe to skip.
/// oracle.begin_exec();
/// interp.run(b"!", &mut oracle);
/// assert!(oracle.provably_seen());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NoveltyOracle {
    /// One byte per dense block ID: the set of hit-count buckets
    /// committed for that block (bit i = bucket i seen in a traced exec).
    seen_buckets: Vec<u8>,
    /// Path hashes of committed (fully traced, `Ok`) executions.
    seen_paths: HashSet<u64>,
    /// Cap on `seen_paths` growth.
    max_paths: usize,
    /// Per-exec scratch: this execution's hit count per block.
    counts: Vec<u32>,
    /// Per-exec scratch: blocks touched this execution (for O(touched)
    /// reset and commit).
    touched: Vec<u32>,
    /// Per-exec scratch: rolling hash over the event sequence so far.
    path_hash: u64,
    /// Per-exec scratch: a block ID outside `seen_buckets` was observed —
    /// never provably seen.
    out_of_range: bool,
}

impl NoveltyOracle {
    /// An empty oracle for a program with `block_count` dense block IDs,
    /// with the default path-set cap.
    pub fn new(block_count: usize) -> Self {
        Self::with_max_paths(block_count, DEFAULT_MAX_PATHS)
    }

    /// [`NoveltyOracle::new`] with an explicit cap on the committed
    /// path-hash set (tests exercise the saturation path with tiny caps).
    pub fn with_max_paths(block_count: usize, max_paths: usize) -> Self {
        NoveltyOracle {
            seen_buckets: vec![0u8; block_count],
            seen_paths: HashSet::new(),
            max_paths,
            counts: vec![0u32; block_count],
            touched: Vec::new(),
            path_hash: FNV_OFFSET,
            out_of_range: false,
        }
    }

    /// Clears the per-execution scratch. Called by the interpreter's
    /// fast path before streaming a new execution into the sink; costs
    /// O(blocks touched by the previous exec).
    pub fn begin_exec(&mut self) {
        for &block in &self.touched {
            self.counts[block as usize] = 0;
        }
        self.touched.clear();
        self.path_hash = FNV_OFFSET;
        self.out_of_range = false;
    }

    /// The rolling path hash of the current (or just-finished) execution.
    pub fn path_hash(&self) -> u64 {
        self.path_hash
    }

    /// Whether the just-finished execution is *provably* identical in
    /// coverage effect to a previously committed traced execution: every
    /// `(block, bucket)` pair is committed **and** the full path hash is
    /// committed. `false` means "suspicious — re-trace"; the campaign
    /// additionally re-traces every non-`Ok` outcome regardless of this
    /// answer.
    pub fn provably_seen(&self) -> bool {
        if self.out_of_range || !self.seen_paths.contains(&self.path_hash) {
            return false;
        }
        self.touched.iter().all(|&block| {
            let seen = self.seen_buckets[block as usize];
            seen & bucket_bit(self.counts[block as usize]) != 0
        })
    }

    /// Commits the just-finished execution's observations: sets its
    /// `(block, bucket)` bits and inserts its path hash (unless the set
    /// is at capacity). Call **only after** the execution was re-run with
    /// full tracing and its coverage compared against the `Ok` virgin
    /// map — committing anything else would un-conservatively teach the
    /// oracle paths whose coverage the campaign never consumed.
    pub fn commit(&mut self) {
        if self.out_of_range {
            return;
        }
        for &block in &self.touched {
            self.seen_buckets[block as usize] |= bucket_bit(self.counts[block as usize]);
        }
        if self.seen_paths.len() < self.max_paths {
            self.seen_paths.insert(self.path_hash);
        }
    }

    /// Number of committed path hashes.
    pub fn seen_path_count(&self) -> usize {
        self.seen_paths.len()
    }

    /// The number of dense block IDs the filter covers.
    pub fn block_count(&self) -> usize {
        self.seen_buckets.len()
    }

    /// Serializes the committed state (not the per-exec scratch) for
    /// checkpointing: the per-block bucket bitmask plus the sorted path
    /// hashes. Sorting makes the snapshot deterministic regardless of
    /// hash-set iteration order.
    pub fn snapshot(&self) -> OracleSnapshot {
        let mut paths: Vec<u64> = self.seen_paths.iter().copied().collect();
        paths.sort_unstable();
        OracleSnapshot {
            buckets: self.seen_buckets.clone(),
            paths,
        }
    }

    /// Installs committed state captured by [`NoveltyOracle::snapshot`].
    /// Returns `false` (leaving the oracle empty — the conservative
    /// fallback, every exec re-traces until re-committed) when the
    /// snapshot's filter size disagrees with this oracle's block count.
    pub fn install(&mut self, snapshot: &OracleSnapshot) -> bool {
        if snapshot.buckets.len() != self.seen_buckets.len() {
            return false;
        }
        self.seen_buckets.copy_from_slice(&snapshot.buckets);
        self.seen_paths = snapshot.paths.iter().copied().collect();
        true
    }

    /// Whether any state has been committed (or installed).
    pub fn is_empty(&self) -> bool {
        self.seen_paths.is_empty() && self.seen_buckets.iter().all(|&b| b == 0)
    }
}

/// The committed oracle state, as captured for checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OracleSnapshot {
    /// Per-block bucket bitmask (one byte per dense block ID).
    pub buckets: Vec<u8>,
    /// Committed path hashes, sorted ascending.
    pub paths: Vec<u64>,
}

impl TraceSink for NoveltyOracle {
    #[inline]
    fn on_block(&mut self, global_block: usize) {
        self.path_hash = (self.path_hash ^ (global_block as u64).wrapping_add(TAG_BLOCK))
            .wrapping_mul(FNV_PRIME);
        match self.counts.get_mut(global_block) {
            Some(count) => {
                if *count == 0 {
                    self.touched.push(global_block as u32);
                }
                *count = count.saturating_add(1);
            }
            None => self.out_of_range = true,
        }
    }

    #[inline]
    fn on_call(&mut self, call_site: usize) {
        self.path_hash =
            (self.path_hash ^ (call_site as u64).wrapping_add(TAG_CALL)).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn on_return(&mut self) {
        self.path_hash = (self.path_hash ^ TAG_RETURN).wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, TraceSink};
    use crate::ProgramBuilder;

    fn feed(oracle: &mut NoveltyOracle, blocks: &[usize]) {
        oracle.begin_exec();
        for &b in blocks {
            oracle.on_block(b);
        }
    }

    #[test]
    fn unseen_paths_are_suspicious_until_committed() {
        let mut oracle = NoveltyOracle::new(8);
        feed(&mut oracle, &[0, 1, 2]);
        assert!(!oracle.provably_seen(), "nothing committed yet");
        oracle.commit();
        feed(&mut oracle, &[0, 1, 2]);
        assert!(oracle.provably_seen(), "identical replay after commit");
    }

    #[test]
    fn new_bucket_on_seen_path_shape_is_suspicious() {
        let mut oracle = NoveltyOracle::new(4);
        feed(&mut oracle, &[0, 1]);
        oracle.commit();
        // Same blocks, different hit counts — different path hash AND a
        // fresh bucket; both layers flag it.
        feed(&mut oracle, &[0, 1, 1]);
        assert!(!oracle.provably_seen());
    }

    #[test]
    fn event_order_changes_the_path_hash() {
        let mut oracle = NoveltyOracle::new(4);
        feed(&mut oracle, &[0, 1]);
        let ab = oracle.path_hash();
        feed(&mut oracle, &[1, 0]);
        assert_ne!(ab, oracle.path_hash(), "order must be hash-significant");
    }

    #[test]
    fn calls_and_returns_are_hash_significant() {
        let mut oracle = NoveltyOracle::new(4);
        feed(&mut oracle, &[0]);
        let plain = oracle.path_hash();
        oracle.begin_exec();
        oracle.on_block(0);
        oracle.on_call(0);
        oracle.on_return();
        assert_ne!(plain, oracle.path_hash());
    }

    #[test]
    fn out_of_range_block_is_never_provably_seen() {
        let mut oracle = NoveltyOracle::new(2);
        feed(&mut oracle, &[0, 5]);
        oracle.commit(); // must be a no-op
        feed(&mut oracle, &[0, 5]);
        assert!(!oracle.provably_seen(), "out-of-range stays conservative");
    }

    #[test]
    fn path_cap_saturates_conservatively() {
        let mut oracle = NoveltyOracle::with_max_paths(8, 1);
        feed(&mut oracle, &[0]);
        oracle.commit();
        feed(&mut oracle, &[1]);
        oracle.commit(); // over the cap: hash not inserted
        assert_eq!(oracle.seen_path_count(), 1);
        feed(&mut oracle, &[1]);
        assert!(
            !oracle.provably_seen(),
            "uncommitted path must stay suspicious"
        );
        feed(&mut oracle, &[0]);
        assert!(oracle.provably_seen(), "the committed one still skips");
    }

    #[test]
    fn bucket_bits_follow_afl_buckets() {
        // Two counts in the same AFL bucket share a bit; across buckets
        // they differ.
        assert_eq!(bucket_bit(4), bucket_bit(7));
        assert_eq!(bucket_bit(8), bucket_bit(15));
        assert_eq!(bucket_bit(128), bucket_bit(100_000));
        let mut bits: Vec<u8> = [1u32, 2, 3, 4, 8, 16, 32, 128]
            .iter()
            .map(|&c| bucket_bit(c))
            .collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 8, "eight distinct buckets");
    }

    #[test]
    fn snapshot_install_round_trips() {
        let mut oracle = NoveltyOracle::new(6);
        feed(&mut oracle, &[0, 3, 3]);
        oracle.commit();
        feed(&mut oracle, &[5]);
        oracle.commit();
        let snap = oracle.snapshot();

        let mut fresh = NoveltyOracle::new(6);
        assert!(fresh.install(&snap));
        assert_eq!(fresh.snapshot(), snap);
        feed(&mut fresh, &[0, 3, 3]);
        assert!(fresh.provably_seen());

        let mut mismatched = NoveltyOracle::new(7);
        assert!(!mismatched.install(&snap), "size mismatch must refuse");
        assert!(mismatched.is_empty());
    }

    #[test]
    fn snapshot_paths_are_sorted_and_deterministic() {
        let mut oracle = NoveltyOracle::new(4);
        for blocks in [&[0usize, 1][..], &[1, 0], &[2], &[3, 3]] {
            feed(&mut oracle, blocks);
            oracle.commit();
        }
        let snap = oracle.snapshot();
        let mut sorted = snap.paths.clone();
        sorted.sort_unstable();
        assert_eq!(snap.paths, sorted);
        assert_eq!(oracle.snapshot(), snap, "repeat snapshots identical");
    }

    #[test]
    fn interpreter_fast_path_matches_traced_events() {
        // The oracle as the interpreter's sink must hash the exact event
        // stream the traced path sees: replaying the same input twice
        // yields the same path hash, different inputs (different paths)
        // yield different hashes.
        let program = ProgramBuilder::new("t")
            .gate(0, b'A', false)
            .gate(1, b'B', false)
            .build()
            .unwrap();
        let interp = Interpreter::new(&program);
        let mut oracle = NoveltyOracle::new(program.block_count());
        let mut run = |input: &[u8]| {
            oracle.begin_exec();
            interp.run(input, &mut oracle);
            oracle.path_hash()
        };
        let first = run(b"AB");
        assert_eq!(first, run(b"AB"));
        assert_ne!(first, run(b"ZZ"));
    }
}
