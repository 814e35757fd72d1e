//! The process transport of the fleet runtime: child-process workers and
//! a framed stdio sync protocol.
//!
//! [`run_fleet`](crate::fleet::run_fleet) with
//! [`Transport::Processes`](crate::fleet::Transport::Processes) spawns N
//! child processes, each of which recognizes the `BIGMAP_FABRIC_WORKER`
//! handshake and calls [`run_worker`]. The worker runs the fleet's shared
//! instance body over a pipe-backed [`CorpusSync`] client that speaks
//! the protocol below on its stdin/stdout. The parent keeps the
//! authoritative [`ShardedHub`] and one service thread per worker that
//! translates frames into hub and aggregator calls.
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
//! pipe between fetch opportunities. A worker sends a `TELEMETRY` frame
//! at every sync boundary and one more after its campaign ends, then
//! `STATS` and `DONE`.
//!
//! A worker that receives [`FRAME_CURSOR_FAULT`] (its cursor ran past
//! the published corpus — only possible through state corruption) resets
//! its cursor to zero, as the instance body does for any cursor error.
//! A mid-campaign pipe failure panics the worker: the parent is gone or
//! the protocol broke, and the abnormal exit is what the parent's
//! restart loop expects to see.
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
//! handed to the fleet's restart loop. The deadline comes from
//! [`FleetConfig::liveness_deadline`] (default
//! `BIGMAP_LIVENESS_DEADLINE_MS`); a zero duration disables enforcement.

use std::io;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use bigmap_core::wire::{
    decode_sync_batch, encode_sync_batch, get_varint, put_varint, read_frame, write_frame,
    WireError,
};

use crate::campaign::CampaignStats;
use crate::faults::{FaultSite, InstanceFaults};
use crate::fleet::{FleetConfig, Instance};
use crate::sync::{CorpusSync, CursorError, ShardedHub};
use crate::telemetry::{FleetAggregator, Telemetry, TelemetryEvent, TelemetrySnapshot};

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
    /// This worker's instance index (also its sync publisher id and
    /// telemetry node index).
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

fn send(kind: u8, payload: &[u8]) -> io::Result<()> {
    write_frame(&mut io::stdout().lock(), kind, payload)
}

/// The worker's corpus store: the parent's hub, reached over this
/// process's stdin/stdout. Any pipe or protocol failure panics the
/// worker (see the module docs).
struct PipeSync {
    index: usize,
    batch_limit: usize,
    faults: Option<Arc<InstanceFaults>>,
}

impl PipeSync {
    fn die(&self, what: &str, error: impl std::fmt::Display) -> ! {
        panic!("fabric worker {}: {what}: {error}", self.index)
    }

    fn send(&self, kind: u8, payload: &[u8], what: &str) {
        if let Err(e) = send(kind, payload) {
            self.die(what, e);
        }
    }
}

impl CorpusSync for PipeSync {
    fn publish(&self, publisher: usize, inputs: Vec<Vec<u8>>) {
        for chunk in inputs.chunks(self.batch_limit) {
            let entries: Vec<(u64, &[u8])> = chunk
                .iter()
                .map(|input| (publisher as u64, input.as_slice()))
                .collect();
            self.send(
                FRAME_PUBLISH,
                &encode_sync_batch(0, &entries),
                "publish frame",
            );
        }
    }

    fn fetch_since(&self, cursor: &mut u64, _reader: usize) -> Result<Vec<Arc<[u8]>>, CursorError> {
        if self
            .faults
            .as_ref()
            .is_some_and(|faults| faults.fire(FaultSite::PipeStall))
        {
            // Wedge this worker without exiting: executions freeze while
            // the heartbeat thread keeps sending the same exec count.
            // Only the parent's progress deadline can end it.
            loop {
                thread::sleep(Duration::from_secs(3600));
            }
        }
        let mut request = Vec::with_capacity(10);
        put_varint(&mut request, *cursor);
        self.send(FRAME_FETCH, &request, "fetch frame");
        let (kind, payload) =
            read_frame(&mut io::stdin().lock()).unwrap_or_else(|e| self.die("fetch response", e));
        match kind {
            FRAME_BATCH => {
                let batch =
                    decode_sync_batch(&payload).unwrap_or_else(|e| self.die("batch payload", e));
                *cursor = batch.cursor;
                Ok(batch
                    .entries
                    .into_iter()
                    .map(|(_, input)| input.into())
                    .collect())
            }
            FRAME_CURSOR_FAULT => {
                // The rejected cursor (ours), then the published count.
                let published = get_varint(&payload)
                    .and_then(|(_, used)| get_varint(&payload[used..]))
                    .unwrap_or_else(|e| self.die("cursor fault payload", e))
                    .0;
                Err(CursorError {
                    cursor: *cursor,
                    published,
                })
            }
            other => self.die("fetch response", format!("unexpected frame kind {other}")),
        }
    }
}

/// Runs one fleet worker over this process's stdin/stdout: the fleet's
/// shared instance body, with the parent's hub behind a pipe, telemetry
/// streamed as `TELEMETRY` frames, and a heartbeat thread for the
/// parent's liveness deadline. Returns the campaign stats it also
/// reported over the pipe.
///
/// # Errors
///
/// Returns the first I/O error from the final stats/done frames.
///
/// # Panics
///
/// Panics if a mid-campaign pipe exchange fails — the parent is gone, so
/// the process has nothing left to talk to; the abnormal exit is exactly
/// what the parent's restart loop expects to see.
pub fn run_worker(role: WorkerRole, instance: &Instance<'_>) -> io::Result<CampaignStats> {
    let telemetry = Arc::new(Telemetry::new(role.index));
    let faults = instance
        .options
        .fault_plan
        .as_ref()
        .map(|plan| Arc::new(InstanceFaults::new(Arc::clone(plan), role.index)));

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

    let pipe = PipeSync {
        index: role.index,
        batch_limit: bigmap_core::env::sync_batch().max(1),
        faults: faults.clone(),
    };
    let report = |snapshot: TelemetrySnapshot| {
        pipe.send(
            FRAME_TELEMETRY,
            snapshot.to_json().as_bytes(),
            "telemetry frame",
        );
    };
    let stats = instance.run(role.index, &pipe, &telemetry, faults.as_ref(), &report);

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

/// One attempt of worker `index`: spawn it, serve it until it is done or
/// fails, and reap it. A spawn failure, a broken protocol, a liveness
/// kill and a dirty exit are all failed attempts.
pub(crate) fn attempt(
    command: &(dyn Fn(usize) -> Command + Sync),
    index: usize,
    config: &FleetConfig,
    hub: &ShardedHub,
    aggregator: &FleetAggregator,
    misses: &AtomicU64,
) -> Result<CampaignStats, String> {
    let mut child = command(index)
        .env(
            "BIGMAP_FABRIC_WORKER",
            format!("{index}/{}", config.instances),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    let deadline = config
        .liveness_deadline
        .unwrap_or_else(|| Duration::from_millis(bigmap_core::env::liveness_deadline_ms()));
    let outcome = serve_attempt(&mut child, index, hub, aggregator, deadline, misses);
    match (outcome, child.wait()) {
        (Ok(stats), Ok(status)) if status.success() => Ok(stats),
        // Completed the protocol but exited dirty: the stats are suspect.
        (Ok(_), status) => Err(format!("dirty exit after done: {status:?}")),
        (Err(msg), _) => Err(msg),
    }
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
) -> Result<CampaignStats, String> {
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
            frames
                .recv()
                .map_err(|_| "frame reader vanished".to_string())?
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
                    return Err(format!("no progress within {deadline:?}; worker killed"));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("frame reader vanished".to_string())
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
            Ok((FRAME_PUBLISH, payload)) => {
                let batch =
                    decode_sync_batch(&payload).map_err(|e| format!("publish payload: {e}"))?;
                hub.publish(
                    index,
                    batch.entries.into_iter().map(|(_, input)| input).collect(),
                );
            }
            Ok((FRAME_FETCH, payload)) => {
                let (mut cursor, _) =
                    get_varint(&payload).map_err(|e| format!("fetch payload: {e}"))?;
                let (kind, reply) = match hub.fetch_since(&mut cursor, index) {
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
                write_frame(&mut stdin, kind, &reply).map_err(|e| format!("fetch reply: {e}"))?;
            }
            Ok((FRAME_TELEMETRY, payload)) => {
                if let Some(snapshot) = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(TelemetrySnapshot::from_json)
                {
                    aggregator.record(index, snapshot);
                }
            }
            Ok((FRAME_STATS, payload)) => {
                stats = Some(decode_stats(&payload).map_err(|e| format!("stats payload: {e}"))?);
            }
            Ok((FRAME_DONE, _)) => {
                return stats.take().ok_or_else(|| "done before stats".to_string())
            }
            Ok((kind, _)) => return Err(format!("unexpected frame kind {kind}")),
            Err(WireError::Eof) => return Err("worker closed its pipe before done".to_string()),
            Err(e) => return Err(format!("worker stream: {e}")),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
