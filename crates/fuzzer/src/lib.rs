//! # bigmap-fuzzer
//!
//! An AFL-style coverage-guided fuzzer hosting the BigMap reproduction's
//! coverage maps. Implements the paper's Figure 1 workflow end-to-end:
//! seed scheduling with favored-entry culling, deterministic + havoc +
//! splice mutation, persistent-mode execution against the synthetic target
//! substrate, the classify/compare/hash fitness pipeline (timed per layer,
//! regenerating Figure 3), Crashwalk-style crash deduplication, bias-free
//! coverage replay, and master–secondary parallel campaigns with periodic
//! corpus synchronization (Figures 9 and 10). The [`telemetry`] module
//! adds a live, lock-free observability layer: per-instance counters and
//! per-layer wall-time attribution, snapshotted at sync boundaries into a
//! JSONL sink.
//!
//! Parallel campaigns run on one fleet runtime ([`fleet::run_fleet`])
//! over two transports: threads of this process, or supervised child
//! processes speaking the `bigmap_core::wire` binary protocol
//! ([`fabric`]). Both run the same instance body, restart loop, corpus
//! store ([`ShardedHub`] behind the [`sync::CorpusSync`] trait) and
//! telemetry aggregation ([`telemetry::FleetAggregator`]).
//!
//! The campaign is parametric over the three axes of the paper's
//! evaluation: map scheme (AFL flat vs BigMap two-level), map size, and
//! coverage metric.
//!
//! ## Example
//!
//! ```rust
//! use bigmap_core::{MapScheme, MapSize};
//! use bigmap_coverage::Instrumentation;
//! use bigmap_fuzzer::{Campaign, CampaignConfig};
//! use bigmap_target::{GeneratorConfig, Interpreter};
//!
//! let program = GeneratorConfig::default().generate();
//! let instrumentation =
//!     Instrumentation::assign(program.block_count(), program.call_sites, MapSize::M2, 1);
//! let interpreter = Interpreter::new(&program);
//!
//! let config = CampaignConfig::builder()
//!     .scheme(MapScheme::TwoLevel)
//!     .map_size(MapSize::M2)
//!     .budget_execs(2_000)
//!     .build();
//! let mut campaign = Campaign::new(config, &interpreter, &instrumentation);
//! campaign.add_seeds(vec![vec![0u8; 32]]);
//! let stats = campaign.run();
//! assert_eq!(stats.execs, 2_000);
//! ```

#![deny(missing_docs)]

pub mod calibrate;
pub mod campaign;
pub mod checkpoint;
pub mod cmin;
pub mod crashwalk;
pub mod executor;
pub mod fabric;
pub mod faults;
pub mod fleet;
pub mod mutate;
pub mod output_dir;
pub mod queue;
pub mod replay;
pub mod sync;
pub mod telemetry;
pub mod timeline;
pub mod trim;

pub use calibrate::HangBudget;
pub use campaign::{
    build_metric, Budget, Campaign, CampaignConfig, CampaignConfigBuilder, CampaignOutput,
    CampaignStats,
};
pub use checkpoint::{Checkpoint, CheckpointManager, RestoreReport};
pub use cmin::{minimize_corpus, MinimizedCorpus};
pub use crashwalk::CrashWalk;
pub use executor::{EnginePath, Execution, Executor, FastExecution};
pub use fabric::{run_worker, WorkerRole};
pub use faults::{FaultPlan, FaultSite, InstanceFaults};
pub use fleet::{
    run_fleet, FleetConfig, FleetStats, Instance, InstanceHealth, InstanceOptions, Transport,
};
pub use mutate::Mutator;
pub use output_dir::OutputDir;
pub use queue::{Queue, QueueEntry};
pub use replay::{replay_edge_coverage, ReplayCoverage};
pub use sync::{CorpusSync, CursorError, ShardedHub};
pub use telemetry::{
    parse_jsonl, FleetAggregator, JsonlSink, SharedBuffer, Telemetry, TelemetryEvent,
    TelemetrySnapshot,
};
pub use timeline::{CoverageTimeline, TimelinePoint};
pub use trim::{trim_input, TrimResult};
