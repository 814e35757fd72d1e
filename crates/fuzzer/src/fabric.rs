//! The process-level campaign fabric: child-process workers, a framed
//! stdio sync protocol, and fleet-hierarchical telemetry.
//!
//! [`crate::parallel`] scales a campaign across threads in one process;
//! this module scales it across **processes**. A parent ([`run_fleet`])
//! spawns N child processes, each of which recognizes the
//! `BIGMAP_FABRIC_WORKER` handshake and calls [`run_worker`] to fuzz one
//! campaign instance, speaking the fabric protocol over its own
//! stdin/stdout. The parent holds the authoritative corpus store (a
//! [`ShardedHub`] behind the [`CorpusSync`] trait) and one service thread
//! per worker that translates protocol frames into hub calls.
//!
//! ## Protocol
//!
//! Frames use the versioned, checksummed `bigmap_core::wire` framing;
//! the payloads are:
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | [`FRAME_PUBLISH`] | worker → parent | sync batch (cursor field 0) of fresh finds |
//! | [`FRAME_FETCH`] | worker → parent | varint: the worker's sync cursor |
//! | [`FRAME_BATCH`] | parent → worker | sync batch: new cursor + fetched entries |
//! | [`FRAME_CURSOR_FAULT`] | parent → worker | varints: rejected cursor, published count |
//! | [`FRAME_TELEMETRY`] | worker → parent | one `TelemetrySnapshot` JSON line |
//! | [`FRAME_STATS`] | worker → parent | varint-packed end-of-campaign `CampaignStats` |
//! | [`FRAME_DONE`] | worker → parent | empty: clean completion |
//! | [`FRAME_HEARTBEAT`] | worker → parent | varint: cumulative exec count |
//!
//! Only `FETCH` is request/response (the worker blocks for `BATCH` or
//! `CURSOR_FAULT`); everything else is fire-and-forget. **Backpressure
//! is the pipe itself**: frames are written straight to the blocking
//! stdio pipe, so a worker that publishes faster than its service thread
//! drains simply blocks at the next sync boundary — no unbounded queue
//! on either side. Publishes larger than `BIGMAP_SYNC_BATCH` entries are
//! split across frames so one giant find burst cannot monopolize the
//! pipe between fetch opportunities.
//!
//! ## Fault tolerance
//!
//! A worker that exits abnormally (panic, kill, protocol corruption) is
//! restarted by its service thread with the PR-3 supervision policy:
//! bounded restarts with linear backoff, health reported as
//! `Running`/`Restarted(n)`/`Dead`. A restarted worker resumes from its
//! on-disk checkpoint (when [`WorkerOptions::checkpoint_dir`] is set),
//! restarts its sync cursor at zero, and republishes what it knows — the
//! hub's content-idempotent publish makes the replay harmless, exactly
//! as for thread-level supervised restarts.
//!
//! A worker that receives [`FRAME_CURSOR_FAULT`] (its cursor ran past
//! the published corpus — only possible through state corruption) resets
//! its cursor to zero and re-fetches everything; novelty gating on
//! import deduplicates the replay.
//!
//! ## Liveness
//!
//! Exit-based supervision cannot see a worker that is *stuck*: alive,
//! pipe open, making no progress (a hung target, a wedged syscall, a
//! stalled filesystem). For that, each worker runs a heartbeat thread
//! that sends [`FRAME_HEARTBEAT`] — carrying the cumulative exec count —
//! every `BIGMAP_HEARTBEAT_MS` milliseconds, and each service thread
//! enforces a *progress* deadline: any non-heartbeat frame counts as
//! progress, and a heartbeat counts only when its exec count has
//! advanced since the last one. A worker that stays silent past the
//! deadline — or keeps heartbeating with a frozen exec counter — is
//! killed, counted as a `heartbeat_miss` in the fleet telemetry, and
//! handed to the ordinary bounded-backoff restart path. The deadline
//! comes from [`FleetConfig::liveness_deadline`] (default
//! `BIGMAP_LIVENESS_DEADLINE_MS`); a zero duration disables enforcement.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use bigmap_core::wire::{
    decode_sync_batch, encode_sync_batch, get_varint, put_varint, read_frame, write_frame,
    SyncBatch, WireError,
};
use bigmap_coverage::Instrumentation;
use bigmap_target::{Interpreter, Program};

use crate::campaign::{Campaign, CampaignConfig, CampaignStats};
use crate::checkpoint::CheckpointManager;
use crate::faults::{FaultSite, InstanceFaults};
use crate::parallel::{InstanceHealth, ParallelStats};
use crate::sync::ShardedHub;
use crate::telemetry::{FleetAggregator, JsonlSink, Telemetry, TelemetryEvent, TelemetrySnapshot};

/// Worker → parent: a batch of fresh finds.
pub const FRAME_PUBLISH: u8 = 1;
/// Worker → parent: fetch request carrying the worker's cursor.
pub const FRAME_FETCH: u8 = 2;
/// Parent → worker: fetched entries plus the advanced cursor.
pub const FRAME_BATCH: u8 = 3;
/// Parent → worker: the presented cursor was beyond the corpus.
pub const FRAME_CURSOR_FAULT: u8 = 4;
/// Worker → parent: a telemetry snapshot JSON line.
pub const FRAME_TELEMETRY: u8 = 5;
/// Worker → parent: end-of-campaign stats.
pub const FRAME_STATS: u8 = 6;
/// Worker → parent: clean completion.
pub const FRAME_DONE: u8 = 7;
/// Worker → parent: liveness heartbeat carrying the cumulative exec
/// count as a varint. Sent by a dedicated worker thread every
/// `BIGMAP_HEARTBEAT_MS`; the parent treats it as progress only when
/// the exec count has advanced.
pub const FRAME_HEARTBEAT: u8 = 8;

/// This process's role in a fleet, from the `BIGMAP_FABRIC_WORKER`
/// handshake the parent sets on its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRole {
    /// This worker's index (also its sync publisher id and telemetry
    /// node index).
    pub index: usize,
    /// Total workers in the fleet.
    pub workers: usize,
}

impl WorkerRole {
    /// Reads the role from `BIGMAP_FABRIC_WORKER` (`"<index>/<count>"`).
    /// `None` means this process is not a fleet worker. Host binaries
    /// check this first thing in `main` and hand off to [`run_worker`].
    pub fn from_env() -> Option<WorkerRole> {
        bigmap_core::env::fabric_worker().map(|(index, workers)| WorkerRole { index, workers })
    }
}

/// Worker-side knobs for [`run_worker`].
#[derive(Debug, Default)]
pub struct WorkerOptions {
    /// Sync cadence in executions (frames are exchanged at every
    /// boundary). Zero means the campaign's budget runs uninterrupted
    /// with a single final exchange.
    pub sync_every: u64,
    /// Checkpoint directory: restored from on start (supervised restarts
    /// resume instead of recomputing), written to at sync boundaries.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic fault injection for this worker's campaign.
    pub faults: Option<Arc<InstanceFaults>>,
}

fn send(kind: u8, payload: &[u8]) -> io::Result<()> {
    write_frame(&mut io::stdout().lock(), kind, payload)
}

/// Runs one fleet worker over this process's stdin/stdout.
///
/// Applies the same per-instance decorrelation as the thread fleet (seed
/// XOR by index, deterministic stages on worker 0 only), resumes from
/// the checkpoint directory when one is configured, and speaks the
/// fabric protocol at every sync boundary. Returns the campaign stats it
/// also reported over the pipe.
///
/// # Errors
///
/// Returns the first I/O error from the final stats/done frames.
///
/// # Panics
///
/// Panics if a mid-campaign pipe exchange fails — the parent is gone, so
/// the process has nothing left to talk to; the abnormal exit is exactly
/// what the parent-side supervisor (if any) expects to see.
pub fn run_worker(
    role: WorkerRole,
    program: &Program,
    instrumentation: &Instrumentation,
    base_config: &CampaignConfig,
    seeds: &[Vec<u8>],
    options: &WorkerOptions,
) -> io::Result<CampaignStats> {
    let mut config = base_config.clone();
    config.seed = base_config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(role.index as u64 + 1));
    config.deterministic = role.index == 0 && base_config.deterministic;

    let interpreter = Interpreter::with_config(program, config.exec);
    let mut campaign = Campaign::new(config, &interpreter, instrumentation);
    let telemetry = Arc::new(Telemetry::new(role.index));
    campaign.set_telemetry(Arc::clone(&telemetry));
    if let Some(faults) = &options.faults {
        campaign.set_faults(Arc::clone(faults));
    }

    let mut manager = options
        .checkpoint_dir
        .as_ref()
        .map(|dir| CheckpointManager::new(dir, options.sync_every.max(1)));
    let restored = match &options.checkpoint_dir {
        Some(dir) => match CheckpointManager::load(dir) {
            Ok(Some(checkpoint)) => {
                campaign.restore(&checkpoint);
                true
            }
            // Absent or corrupt checkpoints are a cold start, not a
            // death loop.
            _ => false,
        },
        None => false,
    };
    if !restored {
        campaign.add_seeds(seeds.to_vec());
        // The seed corpus is common knowledge across the fleet.
        let _ = campaign.take_fresh_finds();
    }

    let mut cursor = 0u64;
    let batch_limit = bigmap_core::env::sync_batch();
    let publisher = role.index as u64;
    let tel = Arc::clone(&telemetry);

    // Liveness heartbeats: a dedicated thread streams the cumulative
    // exec count so the parent can tell "alive but stuck" from "alive
    // and working". Per-frame stdout locking keeps heartbeats atomic
    // with respect to the sync frames on the main thread.
    let heartbeat_ms = bigmap_core::env::heartbeat_ms();
    let heartbeat_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = (heartbeat_ms > 0).then(|| {
        let stop = Arc::clone(&heartbeat_stop);
        let tel = Arc::clone(&telemetry);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut payload = Vec::with_capacity(10);
                put_varint(&mut payload, tel.get(TelemetryEvent::Exec));
                if send(FRAME_HEARTBEAT, &payload).is_err() {
                    // The parent is gone; the main thread will find out
                    // at its next exchange. Nothing left to report to.
                    return;
                }
                thread::sleep(Duration::from_millis(heartbeat_ms));
            }
        })
    });

    let stall_faults = options.faults.clone();
    let stats = campaign.run_with_hook(options.sync_every, move |c| {
        if let Some(faults) = &stall_faults {
            if faults.fire(FaultSite::PipeStall) {
                // Wedge this worker without exiting: executions freeze
                // while the heartbeat thread keeps sending the same exec
                // count. Only the parent's progress deadline can end it.
                loop {
                    thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        let exchange = || -> Result<(), String> {
            // Publish fresh finds, split into bounded frames.
            let finds = c.take_fresh_finds();
            tel.add(TelemetryEvent::SyncPublish, finds.len() as u64);
            for chunk in finds.chunks(batch_limit.max(1)) {
                let entries: Vec<(u64, &[u8])> = chunk
                    .iter()
                    .map(|input| (publisher, input.as_slice()))
                    .collect();
                send(FRAME_PUBLISH, &encode_sync_batch(0, &entries))
                    .map_err(|e| format!("publish frame: {e}"))?;
            }

            // Fetch: strict request/response.
            let mut fetch = Vec::with_capacity(10);
            put_varint(&mut fetch, cursor);
            send(FRAME_FETCH, &fetch).map_err(|e| format!("fetch frame: {e}"))?;
            let (kind, payload) =
                read_frame(&mut io::stdin().lock()).map_err(|e| format!("fetch response: {e}"))?;
            match kind {
                FRAME_BATCH => {
                    let batch =
                        decode_sync_batch(&payload).map_err(|e| format!("batch payload: {e}"))?;
                    cursor = batch.cursor;
                    for (_, input) in &batch.entries {
                        c.import(input);
                    }
                }
                FRAME_CURSOR_FAULT => {
                    // Corrupt cursor: resync from zero. Novelty gating on
                    // import deduplicates the replayed entries.
                    cursor = 0;
                }
                other => return Err(format!("unexpected frame kind {other} for fetch")),
            }

            // Stream the cumulative snapshot up to the aggregator.
            send(FRAME_TELEMETRY, tel.snapshot().to_json().as_bytes())
                .map_err(|e| format!("telemetry frame: {e}"))?;
            Ok(())
        }();
        if let Err(e) = exchange {
            // Mid-campaign pipe failure: the parent is gone or the
            // protocol is broken. Die loudly; a supervisor restarts us.
            panic!("fabric worker {}: {e}", role.index);
        }
        if let Some(manager) = &mut manager {
            let _ = manager.maybe_checkpoint(c);
        }
    });

    heartbeat_stop.store(true, Ordering::Relaxed);
    send(FRAME_STATS, &encode_stats(&stats))?;
    send(FRAME_DONE, &[])?;
    if let Some(handle) = heartbeat {
        // Joining bounds process exit: at most one more sleep interval,
        // and any trailing heartbeat was already written atomically.
        let _ = handle.join();
    }
    Ok(stats)
}

/// Parent-side fleet configuration for [`run_fleet`].
#[derive(Debug, Default)]
pub struct FleetConfig {
    /// Number of worker processes to spawn.
    pub workers: usize,
    /// Restarts allowed per worker before it is declared dead.
    pub max_restarts: u32,
    /// Base restart delay; attempt `n` waits `backoff * n` (linear, same
    /// policy as the thread-level supervisor).
    pub backoff: Duration,
    /// Write the single merged fleet telemetry stream (every worker's
    /// snapshots plus the final `"fleet_total":1` line) to this JSONL
    /// file.
    pub fleet_jsonl: Option<PathBuf>,
    /// How long a worker may go without *progress* (any non-heartbeat
    /// frame, or a heartbeat with an advanced exec count) before its
    /// service thread kills and restarts it. `None` reads the
    /// `BIGMAP_LIVENESS_DEADLINE_MS` default; `Some(Duration::ZERO)`
    /// disables liveness enforcement entirely.
    pub liveness_deadline: Option<Duration>,
}

/// What [`run_fleet`] returns: per-worker stats and health in the same
/// shape as the thread fleet, plus the merged fleet telemetry.
#[derive(Debug)]
pub struct FleetStats {
    /// Per-worker campaign statistics and health (index-aligned), with
    /// fleet-wide crash dedup — the same shape thread fleets report, so
    /// downstream analysis is transport-agnostic.
    pub stats: ParallelStats,
    /// Fleet-total telemetry: the latest snapshot of every worker,
    /// merged (also appended to the JSONL stream as the summary line).
    pub telemetry: TelemetrySnapshot,
    /// Worker processes that reported at least one telemetry snapshot.
    pub nodes: usize,
    /// Workers killed by the liveness deadline across the whole run
    /// (every kill also shows up as a `heartbeat_misses` counter in the
    /// merged telemetry, attributed to the affected node).
    pub heartbeat_misses: u64,
}

/// One worker attempt's outcome, as seen by its service thread.
enum AttemptOutcome {
    /// STATS + DONE arrived; the worker completed its budget.
    Done(Box<CampaignStats>),
    /// The pipe broke or the protocol was violated before DONE.
    Abnormal(String),
}

/// Serves one worker attempt: translates its frames against the hub and
/// aggregator until DONE, the pipe dies, or the liveness deadline
/// expires without progress.
///
/// A dedicated reader thread owns the blocking stdout pipe and forwards
/// frames over a channel, so the service loop can wait with a timeout.
/// The reader exits on its own once the pipe closes (worker exit or
/// kill) or the service loop hangs up the channel.
fn serve_attempt(
    child: &mut Child,
    index: usize,
    hub: &ShardedHub,
    aggregator: &FleetAggregator,
    deadline: Duration,
    misses: &AtomicU64,
) -> AttemptOutcome {
    let mut stdout = child.stdout.take().expect("worker stdout piped");
    let mut stdin = child.stdin.take().expect("worker stdin piped");

    let (frames_tx, frames) = mpsc::channel::<Result<(u8, Vec<u8>), WireError>>();
    thread::spawn(move || loop {
        let frame = read_frame(&mut stdout);
        let finished = frame.is_err();
        if frames_tx.send(frame).is_err() || finished {
            return;
        }
    });

    let mut stats: Option<CampaignStats> = None;
    let mut last_execs: Option<u64> = None;
    let mut last_progress = Instant::now();
    loop {
        let frame = if deadline.is_zero() {
            // Liveness disabled: block until the reader delivers or the
            // pipe dies (the reader always sends its error before
            // exiting, so the channel cannot hang up silently).
            match frames.recv() {
                Ok(frame) => frame,
                Err(_) => return AttemptOutcome::Abnormal("frame reader vanished".to_string()),
            }
        } else {
            let remaining = deadline.saturating_sub(last_progress.elapsed());
            match frames.recv_timeout(remaining) {
                Ok(frame) => frame,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // No progress inside the deadline: the worker is
                    // alive-but-stuck (or its heartbeats stopped). Kill
                    // it and let the restart budget decide what's next.
                    misses.fetch_add(1, Ordering::Relaxed);
                    let supervisor = Telemetry::new(usize::MAX);
                    supervisor.incr(TelemetryEvent::HeartbeatMiss);
                    aggregator.record(index, supervisor.snapshot());
                    let _ = child.kill();
                    return AttemptOutcome::Abnormal(format!(
                        "no progress within {deadline:?}; worker killed"
                    ));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return AttemptOutcome::Abnormal("frame reader vanished".to_string())
                }
            }
        };
        if let Ok((FRAME_HEARTBEAT, payload)) = &frame {
            // A heartbeat is progress only when the exec count moved;
            // a wedged worker heartbeats a frozen counter forever.
            if let Ok((execs, _)) = get_varint(payload) {
                if last_execs != Some(execs) {
                    last_execs = Some(execs);
                    last_progress = Instant::now();
                }
            }
            continue;
        }
        last_progress = Instant::now();
        match frame {
            Ok((FRAME_PUBLISH, payload)) => match decode_sync_batch(&payload) {
                Ok(batch) => {
                    let inputs = batch.entries.into_iter().map(|(_, input)| input).collect();
                    hub.publish(index, inputs);
                }
                Err(e) => return AttemptOutcome::Abnormal(format!("publish payload: {e}")),
            },
            Ok((FRAME_FETCH, payload)) => {
                let mut cursor = match get_varint(&payload) {
                    Ok((cursor, _)) => cursor,
                    Err(e) => return AttemptOutcome::Abnormal(format!("fetch payload: {e}")),
                };
                let reply = match hub.fetch_since(&mut cursor, index) {
                    Ok(entries) => {
                        let borrowed: Vec<(u64, &[u8])> =
                            entries.iter().map(|input| (0, &**input)).collect();
                        (FRAME_BATCH, encode_sync_batch(cursor, &borrowed))
                    }
                    Err(err) => {
                        let mut payload = Vec::with_capacity(20);
                        put_varint(&mut payload, err.cursor);
                        put_varint(&mut payload, err.published);
                        (FRAME_CURSOR_FAULT, payload)
                    }
                };
                if let Err(e) = write_frame(&mut stdin, reply.0, &reply.1) {
                    return AttemptOutcome::Abnormal(format!("fetch reply: {e}"));
                }
            }
            Ok((FRAME_TELEMETRY, payload)) => {
                if let Some(snap) = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(TelemetrySnapshot::from_json)
                {
                    aggregator.record(index, snap);
                }
            }
            Ok((FRAME_STATS, payload)) => match decode_stats(&payload) {
                Ok(decoded) => stats = Some(decoded),
                Err(e) => return AttemptOutcome::Abnormal(format!("stats payload: {e}")),
            },
            Ok((FRAME_DONE, _)) => match stats.take() {
                Some(stats) => {
                    if let Some(tel) = &stats.telemetry {
                        aggregator.record(index, tel.clone());
                    }
                    return AttemptOutcome::Done(Box::new(stats));
                }
                None => return AttemptOutcome::Abnormal("done before stats".to_string()),
            },
            Ok((kind, _)) => {
                return AttemptOutcome::Abnormal(format!("unexpected frame kind {kind}"))
            }
            Err(WireError::Eof) => {
                return AttemptOutcome::Abnormal("worker closed its pipe before done".to_string())
            }
            Err(e) => return AttemptOutcome::Abnormal(format!("worker stream: {e}")),
        }
    }
}

/// Spawns and supervises a fleet of worker processes.
///
/// `command` builds the invocation for worker `i` — typically the
/// current executable with the arguments it needs to reconstruct the
/// same program/config; [`run_fleet`] adds the `BIGMAP_FABRIC_WORKER`
/// handshake and wires the pipes. Each worker is served by its own
/// thread against one shared [`ShardedHub`] and [`FleetAggregator`];
/// abnormal exits are restarted with linear backoff up to
/// `max_restarts`, after which the worker is reported
/// [`InstanceHealth::Dead`].
///
/// # Errors
///
/// Returns an error if the fleet JSONL sink cannot be created or a
/// worker process cannot be spawned at all (spawn failures on *restart*
/// count against the restart budget instead).
///
/// # Panics
///
/// Panics if `config.workers` is zero.
pub fn run_fleet(
    config: &FleetConfig,
    command: impl Fn(usize) -> Command + Sync,
) -> io::Result<FleetStats> {
    assert!(config.workers > 0, "need at least one worker");
    let hub = ShardedHub::new();
    let aggregator = match &config.fleet_jsonl {
        Some(path) => FleetAggregator::with_sink(JsonlSink::to_file(path)?),
        None => FleetAggregator::new(),
    };
    let deadline = config
        .liveness_deadline
        .unwrap_or_else(|| Duration::from_millis(bigmap_core::env::liveness_deadline_ms()));
    let misses = AtomicU64::new(0);

    let spawn = |index: usize| -> io::Result<Child> {
        command(index)
            .env(
                "BIGMAP_FABRIC_WORKER",
                format!("{index}/{}", config.workers),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
    };

    let results: Vec<(CampaignStats, InstanceHealth)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|index| {
                let hub = &hub;
                let aggregator = &aggregator;
                let spawn = &spawn;
                let misses = &misses;
                scope.spawn(move || {
                    let mut restarts = 0u32;
                    loop {
                        let mut child = match spawn(index) {
                            Ok(child) => child,
                            Err(e) => {
                                if restarts >= 1 {
                                    // A spawn that worked once and now fails
                                    // burns restart budget like any abnormal
                                    // exit.
                                    return (
                                        CampaignStats::default(),
                                        InstanceHealth::Dead(format!("respawn failed: {e}")),
                                    );
                                }
                                return (
                                    CampaignStats::default(),
                                    InstanceHealth::Dead(format!("spawn failed: {e}")),
                                );
                            }
                        };
                        let outcome =
                            serve_attempt(&mut child, index, hub, aggregator, deadline, misses);
                        let status = child.wait();
                        match (outcome, status) {
                            (AttemptOutcome::Done(stats), Ok(status)) if status.success() => {
                                let health = if restarts == 0 {
                                    InstanceHealth::Running
                                } else {
                                    InstanceHealth::Restarted(restarts)
                                };
                                return (*stats, health);
                            }
                            (AttemptOutcome::Done(_), status) => {
                                // Completed the protocol but exited dirty:
                                // treat as abnormal, the stats are suspect.
                                restarts += 1;
                                if restarts > config.max_restarts {
                                    return (
                                        CampaignStats::default(),
                                        InstanceHealth::Dead(format!(
                                            "dirty exit after done: {status:?}"
                                        )),
                                    );
                                }
                            }
                            (AttemptOutcome::Abnormal(msg), _) => {
                                restarts += 1;
                                if restarts > config.max_restarts {
                                    return (CampaignStats::default(), InstanceHealth::Dead(msg));
                                }
                            }
                        }
                        thread::sleep(config.backoff * restarts);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet service thread panicked"))
            .collect()
    });

    let (instances, health): (Vec<CampaignStats>, Vec<InstanceHealth>) =
        results.into_iter().unzip();
    let unique_crashes = instances
        .iter()
        .flat_map(|s| s.crash_buckets.iter().copied())
        .collect::<HashSet<u32>>()
        .len();
    let nodes = aggregator.nodes().len();
    let telemetry = aggregator.finish();
    Ok(FleetStats {
        stats: ParallelStats {
            instances,
            health,
            unique_crashes,
        },
        telemetry,
        nodes,
        heartbeat_misses: misses.load(Ordering::Relaxed),
    })
}

/// Packs the transferable subset of [`CampaignStats`] as varints: the
/// scalar counters plus the Crashwalk buckets (for fleet-wide crash
/// dedup). Timelines, per-op stats and the telemetry snapshot travel via
/// the telemetry stream instead.
pub fn encode_stats(stats: &CampaignStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + stats.crash_buckets.len() * 5);
    put_varint(&mut out, stats.execs);
    put_varint(
        &mut out,
        u64::try_from(stats.wall_time.as_nanos()).unwrap_or(u64::MAX),
    );
    put_varint(&mut out, stats.unique_crashes as u64);
    put_varint(&mut out, stats.coverage_unique_crashes as u64);
    put_varint(&mut out, stats.total_crashes);
    put_varint(&mut out, stats.hangs);
    put_varint(&mut out, stats.discovered_slots as u64);
    put_varint(&mut out, stats.used_len as u64);
    put_varint(&mut out, stats.queue_len as u64);
    put_varint(&mut out, stats.crash_buckets.len() as u64);
    for bucket in &stats.crash_buckets {
        put_varint(&mut out, u64::from(*bucket));
    }
    out
}

/// Unpacks [`encode_stats`]. Fields that don't cross the wire (op
/// timings, timeline, telemetry) are default.
///
/// # Errors
///
/// [`WireError`] on truncated or trailing bytes — same hygiene as the
/// sync-batch codec.
pub fn decode_stats(payload: &[u8]) -> Result<CampaignStats, WireError> {
    let mut at = 0usize;
    let next = |at: &mut usize| -> Result<u64, WireError> {
        let (value, used) = get_varint(&payload[*at..])?;
        *at += used;
        Ok(value)
    };
    let mut stats = CampaignStats {
        execs: next(&mut at)?,
        wall_time: Duration::from_nanos(next(&mut at)?),
        unique_crashes: next(&mut at)? as usize,
        coverage_unique_crashes: next(&mut at)? as usize,
        total_crashes: next(&mut at)?,
        hangs: next(&mut at)?,
        discovered_slots: next(&mut at)? as usize,
        used_len: next(&mut at)? as usize,
        queue_len: next(&mut at)? as usize,
        ..CampaignStats::default()
    };
    let buckets = next(&mut at)?;
    if buckets > ((payload.len() - at) + 1) as u64 {
        return Err(WireError::Truncated);
    }
    stats.crash_buckets = Vec::with_capacity(buckets as usize);
    for _ in 0..buckets {
        let bucket = next(&mut at)?;
        stats
            .crash_buckets
            .push(u32::try_from(bucket).map_err(|_| WireError::Truncated)?);
    }
    if at != payload.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(stats)
}

/// Re-exported for the sync-batch shape the protocol shares with
/// `bigmap_core::wire`.
pub type FabricBatch = SyncBatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_through_the_wire() {
        let stats = CampaignStats {
            execs: 123_456,
            wall_time: Duration::from_millis(987),
            unique_crashes: 3,
            coverage_unique_crashes: 5,
            total_crashes: 40,
            hangs: 2,
            discovered_slots: 777,
            used_len: 800,
            queue_len: 61,
            crash_buckets: vec![0xDEAD_BEEF, 7, u32::MAX],
            ..CampaignStats::default()
        };
        let decoded = decode_stats(&encode_stats(&stats)).unwrap();
        assert_eq!(decoded.execs, stats.execs);
        assert_eq!(decoded.wall_time, stats.wall_time);
        assert_eq!(decoded.unique_crashes, stats.unique_crashes);
        assert_eq!(
            decoded.coverage_unique_crashes,
            stats.coverage_unique_crashes
        );
        assert_eq!(decoded.total_crashes, stats.total_crashes);
        assert_eq!(decoded.hangs, stats.hangs);
        assert_eq!(decoded.discovered_slots, stats.discovered_slots);
        assert_eq!(decoded.used_len, stats.used_len);
        assert_eq!(decoded.queue_len, stats.queue_len);
        assert_eq!(decoded.crash_buckets, stats.crash_buckets);
    }

    #[test]
    fn stats_decode_rejects_corruption() {
        let stats = CampaignStats {
            execs: 10,
            crash_buckets: vec![1, 2, 3],
            ..CampaignStats::default()
        };
        let good = encode_stats(&stats);
        // Truncations are detected.
        for cut in 0..good.len() {
            assert!(decode_stats(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk is detected.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(decode_stats(&long), Err(WireError::TrailingBytes)));
        // A hostile bucket count cannot over-reserve.
        let mut hostile = Vec::new();
        for _ in 0..9 {
            put_varint(&mut hostile, 0);
        }
        put_varint(&mut hostile, u64::MAX);
        assert!(matches!(decode_stats(&hostile), Err(WireError::Truncated)));
    }

    #[test]
    fn worker_role_parses_the_handshake_shape() {
        // The env accessor itself is covered in bigmap_core::env; here we
        // only pin the mapping into WorkerRole.
        let role = WorkerRole {
            index: 2,
            workers: 4,
        };
        assert_eq!(role.index, 2);
        assert_eq!(role.workers, 4);
    }

    #[test]
    fn frame_kinds_are_distinct() {
        let kinds = [
            FRAME_PUBLISH,
            FRAME_FETCH,
            FRAME_BATCH,
            FRAME_CURSOR_FAULT,
            FRAME_TELEMETRY,
            FRAME_STATS,
            FRAME_DONE,
            FRAME_HEARTBEAT,
        ];
        let unique: HashSet<u8> = kinds.iter().copied().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
