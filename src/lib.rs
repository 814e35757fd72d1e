//! # bigmap
//!
//! A from-scratch Rust reproduction of **BigMap: Future-proofing Fuzzers
//! with Efficient Large Maps** (Ahmed, Hiser, Nguyen-Tuong, Davidson,
//! Skadron — DSN 2021).
//!
//! Coverage-guided fuzzers store coverage in a byte map; enlarging the map
//! to mitigate hash collisions makes the per-test-case whole-map operations
//! (reset, classify, compare, hash) dominate the runtime and collapses
//! throughput. BigMap fixes this with a two-level scheme: an index bitmap
//! assigns each coverage key a slot in a *condensed* coverage map on first
//! touch, so all map operations run over the dense used prefix instead of
//! the whole allocation — making arbitrarily large maps practical.
//!
//! This facade re-exports the whole reproduction:
//!
//! * [`bigmap_core`] (as `core`) — the two-level [`BigMap`](bigmap_core::BigMap)
//!   and the flat AFL baseline behind one
//!   [`CoverageMap`](bigmap_core::CoverageMap) trait,
//! * [`bigmap_coverage`] (as `coverage`) — edge / N-gram / context-sensitive /
//!   block metrics and the compile-time ID assignment,
//! * [`bigmap_target`] (as `target`) — the synthetic instrumented-target
//!   substrate (program IR, interpreter, generator, laf-intel, Table II
//!   benchmark suite),
//! * [`bigmap_fuzzer`] (as `fuzzer`) — the AFL-style campaign loop, parallel
//!   master–secondary fuzzing, Crashwalk dedup, replay coverage, plus the
//!   fault-tolerant runtime: campaign checkpoint/resume, the supervised
//!   fleet with bounded restarts, the deterministic fault-injection
//!   layer that tests both, and the distributed campaign fabric —
//!   process-level workers behind the
//!   [`CorpusSync`](bigmap_fuzzer::CorpusSync) trait, speaking the
//!   `bigmap_core::wire` binary protocol, with fleet-hierarchical
//!   telemetry aggregation,
//! * [`bigmap_cache`] (as `cache`) — the cache-hierarchy simulator behind the
//!   Table I analysis,
//! * [`bigmap_analytics`] (as `analytics`) — collision-rate math (Equation 1)
//!   and report helpers.
//!
//! ## Quickstart
//!
//! ```rust
//! use bigmap::prelude::*;
//!
//! // 1. A fuzz target (stand-in for an instrumented binary).
//! let program = GeneratorConfig::default().generate();
//!
//! // 2. "Compile" it for an 8 MiB map — collision-free at this scale.
//! let inst = Instrumentation::assign(
//!     program.block_count(), program.call_sites, MapSize::M8, 42,
//! );
//!
//! // 3. Fuzz it with the two-level map: large map, no throughput penalty.
//! let interp = Interpreter::new(&program);
//! let config = CampaignConfig::builder()
//!     .scheme(MapScheme::TwoLevel)
//!     .map_size(MapSize::M8)
//!     .budget_execs(5_000)
//!     .build();
//! let mut campaign = Campaign::new(config, &interp, &inst);
//! campaign.add_seeds(vec![vec![0u8; 32]]);
//! let stats = campaign.run();
//! assert_eq!(stats.execs, 5_000);
//! ```

#![deny(missing_docs)]

pub use bigmap_analytics as analytics;
pub use bigmap_cache as cache;
pub use bigmap_core as core;
pub use bigmap_coverage as coverage;
pub use bigmap_fuzzer as fuzzer;
pub use bigmap_target as target;

/// The commonly needed types in one import.
pub mod prelude {
    pub use bigmap_analytics::{collision_rate, geometric_mean, TextTable};
    pub use bigmap_cache::{CacheHierarchy, TraceWorkload};
    pub use bigmap_core::{
        BigMap, CoverageMap, FlatBitmap, InterpMode, Layer, MapScheme, MapSize, NewCoverage,
        OpPath, OpStats, SparseMode, VirginState,
    };
    pub use bigmap_coverage::{
        CoverageMetric, EdgeHitCount, Instrumentation, MetricKind, MetricStack, NGram, TraceEvent,
    };
    pub use bigmap_fuzzer::{
        replay_edge_coverage, run_fleet, run_worker, Budget, Campaign, CampaignConfig,
        CampaignConfigBuilder, CampaignStats, Checkpoint, CheckpointManager, CorpusSync, CrashWalk,
        CursorError, Executor, FaultPlan, FaultSite, FleetAggregator, FleetConfig, FleetStats,
        HangBudget, Instance, InstanceFaults, InstanceHealth, InstanceOptions, JsonlSink, Mutator,
        ShardedHub, Telemetry, TelemetryEvent, TelemetrySnapshot, TraceMode, Transport, WorkerRole,
    };
    pub use bigmap_target::{
        apply_laf_intel, generate_seeds, BenchmarkSpec, CompiledProgram, ExecConfig, ExecOutcome,
        GeneratorConfig, Interpreter, LafIntelStats, NoveltyOracle, NullSink, OracleSnapshot,
        Program, ProgramBuilder, ResumePlan, TargetError, TraceSink,
    };
}
