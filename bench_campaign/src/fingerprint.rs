//! The benchmark's correctness gate: trajectory fingerprints.
//!
//! Every optimisation in the workspace must leave a campaign's trajectory
//! bit-identical, so a run is correct exactly when its fingerprint equals
//! the one the same campaign must produce: the pinned value for the
//! default seed, the traced replica's, and (as a prefix state check) the
//! reference configuration's.

use std::fmt;

use bigmap_core::Crc32;
use bigmap_fuzzer::{CampaignStats, Checkpoint};

/// What a finished campaign did, reduced to numbers that any change to
/// its trajectory moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Test cases executed, seed dry run included.
    pub execs: u64,
    /// Final queue length.
    pub queue_len: usize,
    /// Virgin-map slots discovered.
    pub discovered_slots: usize,
    /// Active map region at the end.
    pub used_len: usize,
    /// Crashwalk-unique crashes.
    pub unique_crashes: usize,
    /// Crashing executions.
    pub total_crashes: u64,
    /// Hanging executions.
    pub hangs: u64,
    /// Final coverage of the campaign timeline.
    pub coverage: u64,
    /// CRC32 of the corpus: every queue input, length-prefixed, in
    /// admission order.
    pub corpus_crc: u32,
}

impl Fingerprint {
    /// The fingerprint of a finished [`bigmap_fuzzer::Campaign`].
    pub fn of(stats: &CampaignStats, corpus: &[Vec<u8>]) -> Self {
        Fingerprint {
            execs: stats.execs,
            queue_len: stats.queue_len,
            discovered_slots: stats.discovered_slots,
            used_len: stats.used_len,
            unique_crashes: stats.unique_crashes,
            total_crashes: stats.total_crashes,
            hangs: stats.hangs,
            coverage: stats.timeline.final_coverage(),
            corpus_crc: corpus_crc(corpus.iter().map(Vec::as_slice)),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(self) -> String {
        format!(
            "{{\"execs\": {}, \"queue_len\": {}, \"discovered_slots\": {}, \"used_len\": {}, \"unique_crashes\": {}, \"total_crashes\": {}, \"hangs\": {}, \"coverage\": {}, \"corpus_crc\": {}}}",
            self.execs,
            self.queue_len,
            self.discovered_slots,
            self.used_len,
            self.unique_crashes,
            self.total_crashes,
            self.hangs,
            self.coverage,
            self.corpus_crc,
        )
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execs={} queue={} slots={} used={} crashes={}/{} hangs={} cov={} corpus={:08x}",
            self.execs,
            self.queue_len,
            self.discovered_slots,
            self.used_len,
            self.unique_crashes,
            self.total_crashes,
            self.hangs,
            self.coverage,
            self.corpus_crc
        )
    }
}

/// CRC32 over `inputs`, each prefixed with its length so that moving a
/// byte between neighbouring inputs changes the checksum.
pub fn corpus_crc<'a>(inputs: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    let mut crc = Crc32::new();
    for input in inputs {
        crc.update(&(input.len() as u64).to_le_bytes());
        crc.update(input);
    }
    crc.finalize()
}

/// CRC32 of a campaign's complete resumable state (queue with scheduling
/// metadata, counters, both RNG positions, crash and hang corpora),
/// leaving out the only wall-clock field.
pub fn state_crc(checkpoint: &Checkpoint) -> u32 {
    let mut state = checkpoint.clone();
    state.wall_nanos = 0;
    Crc32::checksum(state.to_text().as_bytes())
}
