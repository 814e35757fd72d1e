//! Live fleet telemetry: lock-free per-instance counters, per-layer
//! wall-time attribution, and a JSONL event sink.
//!
//! The paper's evaluation is built from two kinds of observation: *where
//! the time goes* per test case (Figure 3 / Table III's runtime
//! composition) and *where fleet throughput collapses* as instances are
//! added (Figures 9/10). Both were measured post-hoc from campaign return
//! values; this module makes the same quantities observable **while the
//! fleet runs**, cheaply enough to leave on:
//!
//! * [`Telemetry`] — one per campaign instance; relaxed-atomic event
//!   counters ([`TelemetryEvent`]) plus one nanosecond accumulator per
//!   campaign-loop [`Layer`], fed by the same span closes as
//!   `CampaignStats::ops`.
//! * [`TelemetrySnapshot`] — a point-in-time copy, taken at sync
//!   boundaries (never on the per-exec path), serializable to/from a
//!   single JSON line.
//! * [`JsonlSink`] — an append-only JSONL writer shared by a fleet.
//! * [`FleetAggregator`] — keeps the latest snapshot per instance, rolls
//!   them up, and forwards every snapshot to the sink.
//!
//! Counters are [`EventCounter`]s from `bigmap-core`: one
//! relaxed `fetch_add` per event, `#[inline]` all the way down, so the
//! hot path costs a predictable handful of nanoseconds (measured ≤ 2% on
//! the Figure 6 throughput harness — see EXPERIMENTS.md).
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::Layer;
//! use bigmap_fuzzer::telemetry::{Telemetry, TelemetryEvent};
//!
//! let t = Telemetry::new(0);
//! t.incr(TelemetryEvent::Exec);
//! t.add(TelemetryEvent::MapUpdate, 17);
//! t.add_nanos(Layer::Executor, 50_000);
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.get(TelemetryEvent::Exec), 1);
//! let line = snap.to_json();
//! let back = bigmap_fuzzer::telemetry::TelemetrySnapshot::from_json(&line).unwrap();
//! assert_eq!(back.get(TelemetryEvent::MapUpdate), 17);
//! assert_eq!(back.layer_nanos[Layer::Executor as usize], 50_000);
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bigmap_core::{EventCounter, Layer};

use crate::timeline::TimelinePoint;

/// Declares [`TelemetryEvent`] from one table of `Variant => "json_key"`
/// rows. The declaration order is the counter slot and the serialization
/// order, so `ALL`, the slot, the key and the array sizes cannot drift
/// apart. New events go at the end: slots are positional in the counter
/// arrays.
macro_rules! telemetry_events {
    ($($(#[$doc:meta])* $variant:ident => $key:literal,)*) => {
        /// The countable events of the campaign pipeline.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum TelemetryEvent {
            $($(#[$doc])* $variant,)*
        }

        impl TelemetryEvent {
            /// Number of events.
            pub const COUNT: usize = [$(stringify!($variant)),*].len();

            /// Every event, in serialization order.
            pub const ALL: [TelemetryEvent; TelemetryEvent::COUNT] =
                [$(TelemetryEvent::$variant),*];

            /// The JSON field name of this event's counter.
            pub fn key(self) -> &'static str {
                match self {
                    $(TelemetryEvent::$variant => $key,)*
                }
            }
        }
    };
}

telemetry_events! {
    /// Coverage-map resets (one per traced test case).
    MapReset => "map_resets",
    /// Standalone classify passes (split pipeline only; the merged
    /// pipeline accounts its single pass as a virgin compare).
    ClassifyPass => "classify_passes",
    /// Virgin-map scans: compare or merged classify+compare passes.
    VirginCompare => "virgin_compares",
    /// Seed-queue scheduling decisions (one per scheduled entry).
    QueueCycle => "queue_cycles",
    /// Inputs published to the fleet's sync hub.
    SyncPublish => "sync_publishes",
    /// Inputs fetched from the sync hub and re-executed locally.
    SyncImport => "sync_imports",
    /// Fetched inputs rejected for showing no new local coverage.
    ImportRejection => "import_rejections",
    /// Test cases executed.
    Exec => "execs",
    /// Coverage-map updates (`record` calls) performed by the target.
    MapUpdate => "map_updates",
    /// Executions whose verdict was a brand-new edge (the timeline's
    /// coverage unit).
    NewCoverage => "new_coverage",
    /// Crashing executions (non-unique).
    Crash => "crashes",
    /// Hanging executions.
    Hang => "hangs",
    /// Hangs charged to a *calibrated* step budget (subset of `Hang`):
    /// the execution would have kept running under the configured
    /// `max_steps` but the tighter calibrated budget cut it off.
    HangBudgetExceeded => "hang_budget_exceeded",
    /// Campaign checkpoints written to the output directory.
    Checkpoint => "checkpoints",
    /// Kernel-dispatch resolutions: counted once per campaign when the
    /// instance observes which map-op kernel table
    /// (`bigmap_core::kernels::active()`) the process selected.
    KernelSelect => "kernel_selections",
    /// Map operations (classify/compare/fused) dispatched to the scalar
    /// word-wise kernel.
    KernelScalarOp => "kernel_scalar_ops",
    /// Map operations dispatched to the AVX2 kernel.
    KernelAvx2Op => "kernel_avx2_ops",
    /// Executions whose post-exec map ops took the journal-driven sparse
    /// path (`CampaignConfig::sparse`, see `bigmap_core::sparse`).
    SparseDispatch => "sparse_dispatches",
    /// Executions whose post-exec map ops took the dense kernel path.
    DenseDispatch => "dense_dispatches",
    /// Executions whose touch journal overflowed its capacity, forcing
    /// the dense fallback regardless of the dispatch policy.
    JournalOverflow => "journal_overflows",
    /// Untraced fast-path executions whose novelty oracle proved them
    /// already-seen, so the traced re-execution was skipped entirely
    /// (`CampaignConfig::trace` selective). Disjoint from `RetraceExec`;
    /// together they partition the fast-pass attempts, and with
    /// `ReplaySkip` a selective campaign's `Exec`.
    FastPathExec => "fast_path_execs",
    /// Fast-path executions the oracle flagged as suspicious (or that
    /// crashed/hanged), forcing a full traced re-execution (selective
    /// tracing only).
    RetraceExec => "retrace_execs",
    /// Checkpoint restores that skipped one or more corrupt generations
    /// and fell back to an older intact one (counted per generation
    /// skipped).
    CheckpointFallback => "checkpoint_fallbacks",
    /// Corpus entries found unreadable or truncated on load and moved to
    /// the output directory's `quarantine/` instead of aborting.
    QuarantinedEntry => "quarantined_entries",
    /// Liveness-deadline expirations observed by the fleet parent: a
    /// worker made no progress (no frames, or heartbeats with a frozen
    /// exec counter) for the full deadline and was killed for restart.
    HeartbeatMiss => "heartbeat_misses",
    /// Executions dispatched through the compiled bytecode engine (the
    /// `auto` engine), whether cold, resumed or replayed. Zero on the tree
    /// walker.
    CompiledExec => "compiled_execs",
    /// Executions served wholly or partially from the scheduled parent's
    /// snapshot recording (a full trace replay or a mid-run resume).
    SnapshotHit => "snapshot_hits",
    /// Executions that had a parent snapshot armed but could not reuse it
    /// (mutation hit the first read, budget mismatch, or an overflowed
    /// recording) and re-executed from scratch.
    SnapshotMiss => "snapshot_misses",
    /// Campaign instances whose coverage map was served by explicit
    /// hugetlb pages (`BIGMAP_HUGE=explicit`, reservation succeeded).
    AllocExplicitHuge => "alloc_explicit_huge",
    /// Campaign instances whose coverage map sits on plain pages (the
    /// default `BIGMAP_HUGE=off`, a sub-huge-page map, or the explicit
    /// backend's fallback).
    AllocPlain => "alloc_plain",
    /// Campaign instances whose explicit-huge-page request could not be
    /// served and fell back to plain pages (empty hugetlb pool,
    /// unsupported kernel, non-Linux host).
    AllocFallback => "alloc_fallbacks",
    /// Executions dismissed as `NoNew` before any run because the
    /// snapshot engine would serve them wholly from the scheduled parent's
    /// `Ok` recording, whose event stream the parent's admission already
    /// judged: no fast pass, reset, trace or classify/compare. Counted in
    /// `Exec` and the engine counters, never in `MapReset` or
    /// `VirginCompare`.
    ReplaySkip => "replay_skips",
}

impl TelemetryEvent {
    /// The counter slot: the declaration index.
    #[inline]
    fn slot(self) -> usize {
        self as usize
    }

    /// The per-op counter for map operations dispatched through `kind`'s
    /// kernel table.
    pub fn for_kernel(kind: bigmap_core::KernelKind) -> TelemetryEvent {
        match kind {
            bigmap_core::KernelKind::Scalar => TelemetryEvent::KernelScalarOp,
            bigmap_core::KernelKind::Avx2 => TelemetryEvent::KernelAvx2Op,
        }
    }
}

/// Lock-free per-instance statistics registry.
///
/// One writer (the owning campaign thread), any number of concurrent
/// snapshot readers. All mutation is relaxed-atomic, so a `Telemetry`
/// can be shared as `Arc<Telemetry>` between a running campaign and an
/// observer without synchronization on the hot path.
#[derive(Debug)]
pub struct Telemetry {
    instance: usize,
    started: Instant,
    events: [EventCounter; TelemetryEvent::COUNT],
    layers: [EventCounter; Layer::COUNT],
}

impl Telemetry {
    /// Creates an empty registry for one fleet instance.
    pub fn new(instance: usize) -> Self {
        Telemetry {
            instance,
            started: Instant::now(),
            events: std::array::from_fn(|_| EventCounter::new()),
            layers: std::array::from_fn(|_| EventCounter::new()),
        }
    }

    /// The fleet instance index this registry belongs to.
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// Counts one occurrence of `event`.
    #[inline]
    pub fn incr(&self, event: TelemetryEvent) {
        self.events[event.slot()].incr();
    }

    /// Counts `n` occurrences of `event`.
    #[inline]
    pub fn add(&self, event: TelemetryEvent, n: u64) {
        self.events[event.slot()].add(n);
    }

    /// Attributes `nanos` of wall time to `layer`.
    #[inline]
    pub fn add_nanos(&self, layer: Layer, nanos: u64) {
        self.layers[layer as usize].add(nanos);
    }

    /// Current count of `event`.
    pub fn get(&self, event: TelemetryEvent) -> u64 {
        self.events[event.slot()].get()
    }

    /// Wall time attributed to `layer` so far.
    pub fn layer_time(&self, layer: Layer) -> Duration {
        Duration::from_nanos(self.layers[layer as usize].get())
    }

    /// Takes a point-in-time snapshot (called at sync boundaries, never
    /// per execution).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            instance: self.instance,
            node: 0,
            wall_nanos: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            events: std::array::from_fn(|i| self.events[i].get()),
            layer_nanos: std::array::from_fn(|i| self.layers[i].get()),
        }
    }
}

/// A point-in-time copy of one instance's telemetry, serializable as one
/// JSON line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Fleet instance index.
    pub instance: usize,
    /// Node (worker process) index within a multi-process fleet. Zero for
    /// thread-level fleets and for snapshot lines written before the node
    /// dimension existed; the fabric parent stamps each worker's
    /// snapshots with the worker index as they arrive.
    pub node: usize,
    /// Wall-clock nanoseconds since the instance's telemetry was created.
    pub wall_nanos: u64,
    /// Event counters, indexed in [`TelemetryEvent::ALL`] order.
    pub events: [u64; TelemetryEvent::COUNT],
    /// Layer accumulators (nanoseconds), indexed in [`Layer::ALL`] order.
    pub layer_nanos: [u64; Layer::COUNT],
}

impl TelemetrySnapshot {
    /// Count of `event` at snapshot time.
    pub fn get(&self, event: TelemetryEvent) -> u64 {
        self.events[event.slot()]
    }

    /// Wall time attributed to `layer` at snapshot time.
    pub fn layer_time(&self, layer: Layer) -> Duration {
        Duration::from_nanos(self.layer_nanos[layer as usize])
    }

    /// The snapshot as a coverage-timeline point: executions completed
    /// vs. new-coverage discoveries — the unit [`crate::CoverageTimeline`]
    /// samples.
    pub fn timeline_point(&self) -> TimelinePoint {
        TimelinePoint {
            execs: self.get(TelemetryEvent::Exec),
            coverage: self.get(TelemetryEvent::NewCoverage),
        }
    }

    /// Folds another snapshot into this one, summing every counter and
    /// layer clock and keeping the max wall time (fleet-wide totals).
    /// `instance` and `node` keep this snapshot's values — a merged total
    /// is no longer attributable to one source.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
        for i in 0..self.events.len() {
            self.events[i] += other.events[i];
        }
        for i in 0..self.layer_nanos.len() {
            self.layer_nanos[i] += other.layer_nanos[i];
        }
    }

    /// Serializes to one JSON object on a single line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        push_field(&mut out, "instance", self.instance as u64);
        push_field(&mut out, "node", self.node as u64);
        push_field(&mut out, "wall_nanos", self.wall_nanos);
        for event in TelemetryEvent::ALL {
            push_field(&mut out, event.key(), self.get(event));
        }
        for layer in Layer::ALL {
            push_field(&mut out, layer.key(), self.layer_nanos[layer as usize]);
        }
        out.pop(); // trailing comma
        out.push('}');
        out
    }

    /// Parses a snapshot from a JSON line produced by [`to_json`]
    /// (unknown fields are ignored — among them the four `stage_*_nanos`
    /// clocks of lines written before the layer split; missing counter
    /// fields default to 0).
    ///
    /// Returns `None` if `line` is not a JSON object or lacks the
    /// `instance` field.
    ///
    /// [`to_json`]: TelemetrySnapshot::to_json
    pub fn from_json(line: &str) -> Option<TelemetrySnapshot> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let mut snap = TelemetrySnapshot {
            instance: usize::try_from(json_u64(line, "instance")?).ok()?,
            // Lines written before the node dimension existed read as
            // node 0 (a single-node fleet).
            node: usize::try_from(json_u64(line, "node").unwrap_or(0)).ok()?,
            wall_nanos: json_u64(line, "wall_nanos").unwrap_or(0),
            ..TelemetrySnapshot::default()
        };
        for event in TelemetryEvent::ALL {
            snap.events[event.slot()] = json_u64(line, event.key()).unwrap_or(0);
        }
        for layer in Layer::ALL {
            snap.layer_nanos[layer as usize] = json_u64(line, layer.key()).unwrap_or(0);
        }
        Some(snap)
    }
}

fn push_field(out: &mut String, key: &str, value: u64) {
    use fmt::Write as _;
    let _ = write!(out, "\"{key}\":{value},");
}

/// Extracts the unsigned integer value of `"key":<digits>` from a flat
/// JSON object. Sufficient for the fixed snapshot schema; not a general
/// JSON parser.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a whole JSONL document back into snapshots.
///
/// # Errors
///
/// Returns the (1-based) line number and content of the first line that
/// fails to parse; blank lines are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetrySnapshot>, String> {
    let mut snaps = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TelemetrySnapshot::from_json(line) {
            Some(snap) => snaps.push(snap),
            None => return Err(format!("line {}: unparseable snapshot: {line}", i + 1)),
        }
    }
    Ok(snaps)
}

/// An append-only JSONL sink, shareable across a fleet's threads (and,
/// cloned, across fleets: clones write to the same stream).
///
/// Each [`emit`](JsonlSink::emit) writes one snapshot line under a mutex
/// — contention is bounded by the sync cadence, not the exec rate.
#[derive(Clone)]
pub struct JsonlSink {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps any writer (a file, a pipe, a shared test buffer).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Arc::new(Mutex::new(out)),
        }
    }

    /// Creates (truncates) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn to_file<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink::new(Box::new(BufWriter::new(File::create(
            path,
        )?))))
    }

    /// Appends one snapshot line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates write/flush errors from the underlying writer.
    pub fn emit(&self, snapshot: &TelemetrySnapshot) -> io::Result<()> {
        self.emit_raw(&snapshot.to_json())
    }

    /// Appends one pre-rendered JSON line and flushes it. Used for lines
    /// that carry extra fields beyond the snapshot schema (e.g. the fleet
    /// aggregator's `"fleet_total":1` summary tag).
    ///
    /// # Errors
    ///
    /// Propagates write/flush errors from the underlying writer.
    pub fn emit_raw(&self, line: &str) -> io::Result<()> {
        let mut out = self.out.lock().expect("sink mutex poisoned");
        writeln!(out, "{line}")?;
        out.flush()
    }
}

/// A shared in-memory buffer implementing [`Write`] — a [`JsonlSink`]
/// target for tests and in-process consumers.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// The buffer contents as a string (lossy on invalid UTF-8).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("buffer mutex poisoned")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("buffer mutex poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Hierarchical telemetry aggregation: instance → node → fleet.
///
/// The multi-process fabric has one telemetry producer per (node,
/// instance) pair, each streaming snapshots to its parent. The
/// aggregator is the parent-side collector: it stamps each arriving
/// snapshot with its node index, forwards it to one shared JSONL sink
/// (so the whole fleet lands in a **single** merged stream), and keeps
/// the latest snapshot per producer so node- and fleet-level totals can
/// be rolled up at any time.
///
/// Totals use the latest snapshot per producer, not the sum of all
/// arrivals — snapshots are cumulative, so summing a producer's stream
/// would double-count.
///
/// # Examples
///
/// ```rust
/// use bigmap_fuzzer::telemetry::{FleetAggregator, TelemetryEvent, TelemetrySnapshot};
///
/// let agg = FleetAggregator::new();
/// let mut snap = TelemetrySnapshot::default();
/// snap.events[7] = 100; // execs
/// agg.record(0, snap.clone());
/// snap.events[7] = 250; // a later, cumulative snapshot from the same producer
/// agg.record(0, snap.clone());
/// agg.record(1, snap.clone());
/// assert_eq!(agg.fleet_totals().get(TelemetryEvent::Exec), 500);
/// assert_eq!(agg.node_totals(1).get(TelemetryEvent::Exec), 250);
/// ```
#[derive(Debug, Default)]
pub struct FleetAggregator {
    latest: Mutex<std::collections::BTreeMap<(usize, usize), TelemetrySnapshot>>,
    sink: Option<JsonlSink>,
}

impl FleetAggregator {
    /// Creates an aggregator with no sink (totals are only readable
    /// in-process).
    pub fn new() -> Self {
        FleetAggregator::default()
    }

    /// Creates an aggregator that forwards every recorded snapshot — and
    /// the final fleet-total line — to `sink`.
    pub fn with_sink(sink: JsonlSink) -> Self {
        FleetAggregator {
            latest: Mutex::new(std::collections::BTreeMap::new()),
            sink: Some(sink),
        }
    }

    /// Records a snapshot arriving from `node`, stamping its node index,
    /// forwarding it to the sink, and replacing that producer's previous
    /// snapshot in the rollup state.
    pub fn record(&self, node: usize, mut snapshot: TelemetrySnapshot) {
        snapshot.node = node;
        if let Some(sink) = &self.sink {
            if let Err(e) = sink.emit(&snapshot) {
                eprintln!("fleet telemetry sink write failed: {e}");
            }
        }
        self.latest
            .lock()
            .expect("aggregator mutex poisoned")
            .insert((node, snapshot.instance), snapshot);
    }

    /// Node indices that have reported at least one snapshot, ascending.
    pub fn nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .latest
            .lock()
            .expect("aggregator mutex poisoned")
            .keys()
            .map(|(node, _)| *node)
            .collect();
        nodes.dedup();
        nodes
    }

    /// How many (node, instance) producers have reported a snapshot.
    pub fn producers(&self) -> usize {
        self.latest.lock().expect("aggregator mutex poisoned").len()
    }

    /// Totals for one node: the latest snapshot of each of its instances,
    /// merged. The result carries the node's index.
    pub fn node_totals(&self, node: usize) -> TelemetrySnapshot {
        let mut total = TelemetrySnapshot {
            node,
            ..TelemetrySnapshot::default()
        };
        for snap in self
            .latest
            .lock()
            .expect("aggregator mutex poisoned")
            .values()
        {
            if snap.node == node {
                total.merge(snap);
            }
        }
        total
    }

    /// Fleet-wide totals: the latest snapshot of every (node, instance)
    /// producer, merged.
    pub fn fleet_totals(&self) -> TelemetrySnapshot {
        let mut total = TelemetrySnapshot::default();
        for snap in self
            .latest
            .lock()
            .expect("aggregator mutex poisoned")
            .values()
        {
            total.merge(snap);
        }
        total
    }

    /// Computes the fleet totals and appends them to the sink as a final
    /// summary line tagged `"fleet_total":1` (parsers that don't know the
    /// tag ignore it; consumers that do can split per-producer lines from
    /// the rollup). Returns the totals either way.
    pub fn finish(&self) -> TelemetrySnapshot {
        let totals = self.fleet_totals();
        if let Some(sink) = &self.sink {
            let mut line = totals.to_json();
            line.truncate(line.len() - 1); // drop the closing brace
            line.push_str(",\"fleet_total\":1}");
            if let Err(e) = sink.emit_raw(&line) {
                eprintln!("fleet telemetry summary write failed: {e}");
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_event() {
        let t = Telemetry::new(3);
        t.incr(TelemetryEvent::Exec);
        t.incr(TelemetryEvent::Exec);
        t.add(TelemetryEvent::MapUpdate, 40);
        assert_eq!(t.get(TelemetryEvent::Exec), 2);
        assert_eq!(t.get(TelemetryEvent::MapUpdate), 40);
        assert_eq!(t.get(TelemetryEvent::Crash), 0);
        assert_eq!(t.instance(), 3);
    }

    #[test]
    fn stage_time_accumulates() {
        let t = Telemetry::new(0);
        t.add_nanos(Layer::MapCompare, 5_000);
        t.add_nanos(Layer::MapCompare, 5_000);
        t.add_nanos(Layer::MutateHavoc, 1_000);
        assert_eq!(t.layer_time(Layer::MapCompare), Duration::from_micros(10));
        assert_eq!(t.layer_time(Layer::MutateHavoc), Duration::from_micros(1));
        assert_eq!(t.layer_time(Layer::MutateDet), Duration::ZERO);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let t = Telemetry::new(7);
        for event in TelemetryEvent::ALL {
            t.add(event, event.slot() as u64 + 1);
        }
        // Every layer key carries a distinct value.
        for layer in Layer::ALL {
            t.add_nanos(layer, layer as u64 + 100);
        }
        let snap = t.snapshot();
        let line = snap.to_json();
        for layer in Layer::ALL {
            let field = format!("\"{}\":{}", layer.key(), layer as u64 + 100);
            assert!(line.contains(&field), "{field} missing from {line}");
        }
        assert!(line.contains("\"executor_nanos\":"));
        let back = TelemetrySnapshot::from_json(&line).expect("roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn kernel_events_map_one_to_one() {
        use bigmap_core::KernelKind;
        assert_eq!(
            TelemetryEvent::for_kernel(KernelKind::Scalar),
            TelemetryEvent::KernelScalarOp
        );
        assert_eq!(
            TelemetryEvent::for_kernel(KernelKind::Avx2),
            TelemetryEvent::KernelAvx2Op
        );
        // Every kernel counter has a distinct slot and JSON key.
        let keys: std::collections::HashSet<_> =
            TelemetryEvent::ALL.iter().map(|e| e.key()).collect();
        assert_eq!(keys.len(), TelemetryEvent::ALL.len());
    }

    #[test]
    fn pre_kernel_snapshot_lines_still_parse() {
        // Snapshots written before the kernel counters existed lack the
        // four kernel_* fields; they must parse with those counters at 0.
        let legacy = "{\"instance\":2,\"wall_nanos\":99,\"execs\":12}";
        let snap = TelemetrySnapshot::from_json(legacy).expect("legacy line parses");
        assert_eq!(snap.get(TelemetryEvent::Exec), 12);
        assert_eq!(snap.get(TelemetryEvent::KernelSelect), 0);
        assert_eq!(snap.get(TelemetryEvent::KernelAvx2Op), 0);
    }

    #[test]
    fn pre_sparse_snapshot_lines_still_parse() {
        // Snapshots written in the 18-slot era (kernel counters present,
        // sparse-dispatch counters absent) must parse with the three
        // sparse_* fields at 0.
        let legacy = "{\"instance\":1,\"wall_nanos\":42,\"execs\":700,\
                      \"kernel_selections\":1,\"kernel_avx2_ops\":700}";
        let snap = TelemetrySnapshot::from_json(legacy).expect("legacy line parses");
        assert_eq!(snap.get(TelemetryEvent::Exec), 700);
        assert_eq!(snap.get(TelemetryEvent::KernelAvx2Op), 700);
        assert_eq!(snap.get(TelemetryEvent::SparseDispatch), 0);
        assert_eq!(snap.get(TelemetryEvent::DenseDispatch), 0);
        assert_eq!(snap.get(TelemetryEvent::JournalOverflow), 0);
    }

    #[test]
    fn pre_trace_mode_snapshot_lines_still_parse() {
        // Snapshots written in the 21-slot era (sparse counters present,
        // two-speed counters absent) must parse with the fast-path and
        // re-trace counters at 0.
        let legacy = "{\"instance\":4,\"wall_nanos\":8,\"execs\":300,\
                      \"sparse_dispatches\":250,\"dense_dispatches\":50}";
        let snap = TelemetrySnapshot::from_json(legacy).expect("legacy line parses");
        assert_eq!(snap.get(TelemetryEvent::Exec), 300);
        assert_eq!(snap.get(TelemetryEvent::SparseDispatch), 250);
        assert_eq!(snap.get(TelemetryEvent::FastPathExec), 0);
        assert_eq!(snap.get(TelemetryEvent::RetraceExec), 0);
    }

    #[test]
    fn pre_durability_snapshot_lines_still_parse() {
        // Snapshots written in the 23-slot era (two-speed counters
        // present, durability counters absent) must parse with the
        // fallback/quarantine/heartbeat counters at 0.
        let legacy = "{\"instance\":0,\"wall_nanos\":77,\"execs\":900,\
                      \"fast_path_execs\":600,\"retrace_execs\":30}";
        let snap = TelemetrySnapshot::from_json(legacy).expect("legacy line parses");
        assert_eq!(snap.get(TelemetryEvent::Exec), 900);
        assert_eq!(snap.get(TelemetryEvent::FastPathExec), 600);
        assert_eq!(snap.get(TelemetryEvent::CheckpointFallback), 0);
        assert_eq!(snap.get(TelemetryEvent::QuarantinedEntry), 0);
        assert_eq!(snap.get(TelemetryEvent::HeartbeatMiss), 0);
    }

    #[test]
    fn pre_interp_snapshot_lines_still_parse() {
        // Snapshots written in the 26-slot era (durability counters
        // present, compiled-engine counters absent) must parse with the
        // compiled-exec and snapshot counters at 0.
        let legacy = "{\"instance\":6,\"wall_nanos\":13,\"execs\":400,\
                      \"quarantined_entries\":2,\"heartbeat_misses\":1}";
        let snap = TelemetrySnapshot::from_json(legacy).expect("legacy line parses");
        assert_eq!(snap.get(TelemetryEvent::Exec), 400);
        assert_eq!(snap.get(TelemetryEvent::QuarantinedEntry), 2);
        assert_eq!(snap.get(TelemetryEvent::CompiledExec), 0);
        assert_eq!(snap.get(TelemetryEvent::SnapshotHit), 0);
        assert_eq!(snap.get(TelemetryEvent::SnapshotMiss), 0);
    }

    #[test]
    fn thirty_five_slot_snapshot_lines_still_parse() {
        // A line in the 35-slot format, which carried four since-removed
        // counters (the SSE2 kernel's op count, the THP page backend's
        // allocation count and two thread-placement counters); every
        // counter holds a distinct value, its old slot + 1. The four
        // unknown keys and the four stage clocks (replaced by the
        // per-layer clocks) are ignored; every counter must survive
        // intact.
        let parent_line = "{\"instance\":5,\"node\":1,\"wall_nanos\":123,\"map_resets\":1,\
                           \"classify_passes\":2,\"virgin_compares\":3,\"queue_cycles\":4,\
                           \"sync_publishes\":5,\"sync_imports\":6,\"import_rejections\":7,\
                           \"execs\":8,\"map_updates\":9,\"new_coverage\":10,\
                           \"crashes\":11,\"hangs\":12,\"hang_budget_exceeded\":13,\
                           \"checkpoints\":14,\"kernel_selections\":15,\
                           \"kernel_scalar_ops\":16,\"kernel_sse2_ops\":17,\
                           \"kernel_avx2_ops\":18,\"sparse_dispatches\":19,\
                           \"dense_dispatches\":20,\"journal_overflows\":21,\
                           \"fast_path_execs\":22,\"retrace_execs\":23,\
                           \"checkpoint_fallbacks\":24,\"quarantined_entries\":25,\
                           \"heartbeat_misses\":26,\"compiled_execs\":27,\
                           \"snapshot_hits\":28,\"snapshot_misses\":29,\
                           \"alloc_explicit_huge\":30,\"alloc_thp\":31,\"alloc_plain\":32,\
                           \"alloc_fallbacks\":33,\"numa_pins\":34,\"numa_pin_fails\":35,\
                           \"stage_deterministic_nanos\":100,\"stage_havoc_nanos\":101,\
                           \"stage_map_ops_nanos\":102,\"stage_target_exec_nanos\":103}";
        let snap = TelemetrySnapshot::from_json(parent_line).expect("35-slot line parses");
        assert_eq!((snap.instance, snap.node, snap.wall_nanos), (5, 1, 123));
        // What the line carries under each key, split out independently
        // of the parser under test.
        let carried: std::collections::HashMap<&str, u64> = parent_line
            .trim_matches(|c| c == '{' || c == '}')
            .split(',')
            .map(|field| {
                let (key, value) = field.split_once(':').expect("key:value");
                (key.trim_matches('"'), value.parse().expect("integer value"))
            })
            .collect();
        // The one counter added since (`replay_skips`) is absent and
        // reads 0; every other key must be carried.
        for event in TelemetryEvent::ALL {
            let want = if event == TelemetryEvent::ReplaySkip {
                0
            } else {
                carried[event.key()]
            };
            assert_eq!(snap.get(event), want, "{event:?}");
        }
        assert_eq!(snap.layer_nanos, [0; Layer::COUNT]);
        // Re-serialized, only the known fields remain.
        let fields = snap.to_json().matches(':').count();
        assert_eq!(fields, 3 + TelemetryEvent::COUNT + Layer::COUNT);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TelemetrySnapshot::from_json("").is_none());
        assert!(TelemetrySnapshot::from_json("not json").is_none());
        assert!(TelemetrySnapshot::from_json("{\"execs\":5}").is_none()); // no instance
    }

    #[test]
    fn timeline_point_reflects_exec_and_coverage() {
        let t = Telemetry::new(0);
        t.add(TelemetryEvent::Exec, 512);
        t.add(TelemetryEvent::NewCoverage, 9);
        let point = t.snapshot().timeline_point();
        assert_eq!(point.execs, 512);
        assert_eq!(point.coverage, 9);
    }

    #[test]
    fn merge_sums_counters_and_maxes_wall() {
        let mut a = TelemetrySnapshot {
            instance: 0,
            wall_nanos: 10,
            ..Default::default()
        };
        a.events[TelemetryEvent::Exec.slot()] = 5;
        let mut b = TelemetrySnapshot {
            instance: 1,
            wall_nanos: 30,
            ..Default::default()
        };
        b.events[TelemetryEvent::Exec.slot()] = 7;
        b.layer_nanos[Layer::MapReset as usize] = 11;
        a.merge(&b);
        assert_eq!(a.get(TelemetryEvent::Exec), 12);
        assert_eq!(a.wall_nanos, 30);
        assert_eq!(a.layer_nanos[Layer::MapReset as usize], 11);
    }

    #[test]
    fn sink_emits_parseable_jsonl() {
        let buffer = SharedBuffer::new();
        let sink = JsonlSink::new(Box::new(buffer.clone()));
        let t = Telemetry::new(1);
        t.incr(TelemetryEvent::SyncPublish);
        sink.emit(&t.snapshot()).unwrap();
        t.incr(TelemetryEvent::SyncImport);
        sink.emit(&t.snapshot()).unwrap();

        let parsed = parse_jsonl(&buffer.contents()).expect("valid jsonl");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].get(TelemetryEvent::SyncImport), 0);
        assert_eq!(parsed[1].get(TelemetryEvent::SyncImport), 1);
    }

    #[test]
    fn parse_jsonl_reports_bad_line() {
        let err = parse_jsonl("{\"instance\":0}\nbroken\n").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn node_field_round_trips_and_defaults_to_zero() {
        let mut snap = TelemetrySnapshot {
            instance: 3,
            node: 2,
            wall_nanos: 5,
            ..Default::default()
        };
        snap.events[TelemetryEvent::Exec.slot()] = 9;
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.node, 2);

        // Lines from before the node dimension read as node 0.
        let legacy = "{\"instance\":1,\"wall_nanos\":42,\"execs\":7}";
        let old = TelemetrySnapshot::from_json(legacy).unwrap();
        assert_eq!(old.node, 0);
        assert_eq!(old.get(TelemetryEvent::Exec), 7);
    }

    #[test]
    fn aggregator_rolls_up_latest_per_producer() {
        let agg = FleetAggregator::new();
        let snap = |instance: usize, execs: u64| {
            let mut s = TelemetrySnapshot {
                instance,
                ..Default::default()
            };
            s.events[TelemetryEvent::Exec.slot()] = execs;
            s
        };
        // Cumulative snapshots from the same producer replace, not add.
        agg.record(0, snap(0, 100));
        agg.record(0, snap(0, 300));
        agg.record(0, snap(1, 50));
        agg.record(1, snap(0, 40));
        assert_eq!(agg.nodes(), vec![0, 1]);
        assert_eq!(agg.node_totals(0).get(TelemetryEvent::Exec), 350);
        assert_eq!(agg.node_totals(1).get(TelemetryEvent::Exec), 40);
        assert_eq!(agg.fleet_totals().get(TelemetryEvent::Exec), 390);
        assert_eq!(agg.node_totals(1).node, 1);
    }

    #[test]
    fn aggregator_writes_one_merged_stream_with_summary_line() {
        let buffer = SharedBuffer::new();
        let agg = FleetAggregator::with_sink(JsonlSink::new(Box::new(buffer.clone())));
        let mut snap = TelemetrySnapshot::default();
        snap.events[TelemetryEvent::Exec.slot()] = 10;
        agg.record(0, snap.clone());
        agg.record(1, snap.clone());
        let totals = agg.finish();
        assert_eq!(totals.get(TelemetryEvent::Exec), 20);

        let text = buffer.contents();
        // Every line in the single stream parses — including the tagged
        // summary line, whose extra field is ignored by the parser.
        let parsed = parse_jsonl(&text).expect("merged stream parses");
        assert_eq!(parsed.len(), 3);
        let nodes: Vec<usize> = parsed.iter().map(|s| s.node).collect();
        assert_eq!(&nodes[..2], &[0, 1]);
        let summary_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"fleet_total\":1"))
            .collect();
        assert_eq!(summary_lines.len(), 1);
        assert_eq!(
            TelemetrySnapshot::from_json(summary_lines[0])
                .unwrap()
                .get(TelemetryEvent::Exec),
            20
        );
    }
}
