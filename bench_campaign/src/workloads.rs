//! The four campaign workloads and how a run is sized.
//!
//! Each workload is one Table II target at full scale under one map and
//! metric configuration, fuzzed by exec-budgeted campaigns at the shipped
//! `CampaignConfig::builder()` defaults. A run fuzzes an *ensemble* of
//! such campaigns, each with its own campaign seed derived from the
//! run's `--seed`: one campaign's time to coverage depends on fuzzing
//! luck far more than on the system (one zlib campaign's varies by 25%
//! between seeds), while the ensemble median is steady. The ensemble's
//! size is fixed by `--seconds`, never by how fast campaigns finish, so
//! every commit measured with the same arguments does the same work.

use std::time::Duration;

use bigmap_core::{MapScheme, MapSize};
use bigmap_coverage::{Instrumentation, MetricKind};
use bigmap_fuzzer::CampaignConfig;
use bigmap_target::{BenchmarkSpec, Program};

use crate::fingerprint::Fingerprint;

/// Instrumentation ID seed, shared with the `bigmap-bench` harnesses.
const INSTRUMENTATION_SEED: u64 = 0xB16_3A9;

/// Initial corpus cap (instcombine's Table II corpus has 5598 seeds).
const MAX_SEEDS: usize = 32;

/// Exec cadence of checkpoint writes on checkpointing workloads.
pub const CHECKPOINT_EVERY: u64 = 2_000;

/// Wall-clock floor between checkpoint writes, as the harnesses use it.
pub const CHECKPOINT_FLOOR: Duration = Duration::from_millis(250);

/// The reference prefix covers this share of a campaign's budget.
pub const REFERENCE_PREFIX_DIVISOR: u64 = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Table II target.
    pub target: &'static str,
    /// Map scheme.
    pub scheme: MapScheme,
    /// Map size.
    pub map_size: MapSize,
    /// Coverage metric.
    pub metric: MetricKind,
    /// AFL's deterministic stages (off is the paper's FuzzBench `-d`).
    pub deterministic: bool,
    /// Whether campaigns checkpoint while they fuzz.
    pub checkpoint: bool,
    /// Exec budget of one campaign.
    pub execs: u64,
    /// Wall time one campaign takes on the reference host (2-vCPU Xeon
    /// VM); sizes the ensemble so that a run lasts about `--seconds`.
    pub campaign_s: f64,
    /// Exec budget of one campaign under `--quick`.
    pub quick_execs: u64,
    /// Fingerprint of the first campaign of `--seed 1`.
    pub pin: Fingerprint,
}

/// All workloads, in the order a full run visits them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sqlite3-edge-64k",
        why: "The paper's default setting: execution (engine, snapshot replay, trace sink, record) is most of the time, map ops about a tenth.",
        target: "sqlite3",
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::K64,
        metric: MetricKind::Edge,
        deterministic: true,
        checkpoint: false,
        execs: 150_000,
        campaign_s: 1.6,
        quick_execs: 4_000,
        pin: Fingerprint {
            execs: 150_000,
            queue_len: 746,
            discovered_slots: 5637,
            used_len: 5637,
            unique_crashes: 0,
            total_crashes: 0,
            hangs: 0,
            coverage: 619,
            corpus_crc: 0x6764_850d,
        },
    },
    Workload {
        name: "libpng-flat-8m",
        why: "AFL's flat map at 8 MiB (paper Fig 3): map ops are nearly all of the time, so dense kernels, NT reset and CRC dominate.",
        target: "libpng",
        scheme: MapScheme::Flat,
        map_size: MapSize::M8,
        metric: MetricKind::Edge,
        deterministic: true,
        checkpoint: false,
        execs: 1_536,
        campaign_s: 4.4,
        quick_execs: 160,
        pin: Fingerprint {
            execs: 1536,
            queue_len: 76,
            discovered_slots: 217,
            used_len: 8_388_608,
            unique_crashes: 0,
            total_crashes: 0,
            hangs: 0,
            coverage: 37,
            corpus_crc: 0xab8a_fed9,
        },
    },
    Workload {
        name: "instcombine-ngram3-8m",
        why: "Future-proofing setting (Table III): largest program, N-gram keys into an 8 MiB two-level map, crash triage, most queue admissions.",
        target: "instcombine",
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::M8,
        metric: MetricKind::NGram(3),
        deterministic: true,
        checkpoint: false,
        execs: 40_000,
        campaign_s: 1.5,
        quick_execs: 1_500,
        pin: Fingerprint {
            execs: 40_000,
            queue_len: 1122,
            discovered_slots: 9903,
            used_len: 9910,
            unique_crashes: 6,
            total_crashes: 50,
            hangs: 0,
            coverage: 994,
            corpus_crc: 0x753d_2b66,
        },
    },
    Workload {
        name: "zlib-havoc-ckpt",
        why: "Cheap execs, havoc only (paper's -d setup), fsynced checkpoints every 2000 execs: mutation, scheduling and checkpoint writes show.",
        target: "zlib",
        scheme: MapScheme::TwoLevel,
        map_size: MapSize::K64,
        metric: MetricKind::Edge,
        deterministic: false,
        checkpoint: true,
        execs: 100_000,
        campaign_s: 0.32,
        quick_execs: 5_000,
        pin: Fingerprint {
            execs: 100_000,
            queue_len: 368,
            discovered_slots: 890,
            used_len: 890,
            unique_crashes: 0,
            total_crashes: 0,
            hangs: 0,
            coverage: 227,
            corpus_crc: 0xd797_43ba,
        },
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated target with its instrumentation and initial corpus.
pub struct Target {
    /// The program.
    pub program: Program,
    /// ID tables for the workload's map size.
    pub instrumentation: Instrumentation,
    /// Initial corpus.
    pub seeds: Vec<Vec<u8>>,
}

impl Workload {
    /// Generates the target at `scale` (1.0 for every measured run).
    pub fn build_target(&self, scale: f64) -> Target {
        let spec = BenchmarkSpec::by_name(self.target).expect("workload target is in Table II");
        let program = spec.build(scale);
        let instrumentation = Instrumentation::assign(
            program.block_count(),
            program.call_sites,
            self.map_size,
            INSTRUMENTATION_SEED,
        );
        let seeds = spec.build_seeds(&program, spec.seeds.min(MAX_SEEDS));
        Target {
            program,
            instrumentation,
            seeds,
        }
    }

    /// The campaign configuration: shipped builder defaults plus the
    /// workload's map, metric and stage choices.
    pub fn config(&self, campaign_seed: u64, execs: u64) -> CampaignConfig {
        CampaignConfig::builder()
            .scheme(self.scheme)
            .map_size(self.map_size)
            .metric(self.metric)
            .deterministic(self.deterministic)
            .budget_execs(execs)
            .seed(campaign_seed)
            .build()
    }

    /// Campaigns in a run of `seconds` (one under `--quick`).
    pub fn ensemble_size(&self, seconds: f64, quick: bool) -> usize {
        if quick {
            1
        } else {
            ((seconds / self.campaign_s).round() as usize).max(1)
        }
    }

    /// Exec budget of one campaign.
    pub fn budget(&self, quick: bool) -> u64 {
        if quick {
            self.quick_execs
        } else {
            self.execs
        }
    }
}

/// Campaign seed of ensemble member `index` in a run of `seed`
/// (SplitMix64 over both, so neighbouring seeds share no campaigns).
pub fn campaign_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
