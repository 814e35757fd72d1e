//! Campaign checkpointing: periodic crash-safe snapshots and resume.
//!
//! Long campaigns die — machines reboot, fleets get rescheduled, workers
//! panic. A checkpoint captures everything a campaign needs to continue
//! *as if the kill never happened*: the queue with its scheduling
//! metadata, the crash/hang corpora with their dedup buckets, the
//! exec/crash counters, the calibrated hang budget, and both RNG stream
//! positions (scheduler and mutator), so the resumed campaign draws the
//! same randomness the dead one would have.
//!
//! The virgin coverage maps are deliberately **not** serialized: they are
//! large, scheme-dependent, and exactly reproducible by re-executing the
//! checkpointed inputs (the interpreter is deterministic). Restore
//! therefore costs one execution per saved input — milliseconds — in
//! exchange for a checkpoint file that stays small and
//! format-independent of the map implementation.
//!
//! The selective-tracing novelty oracle's committed state *is* carried
//! (when non-empty): unlike the virgin maps it is not derivable from the
//! queue alone — it also remembers paths of mutants that were traced and
//! judged `NoNew` — and while dropping it would stay correct (an empty
//! oracle just re-traces everything until re-committed), carrying it
//! preserves the resumed campaign's fast-path hit rate. Always-trace
//! campaigns emit no oracle lines at all.
//!
//! Persistence is crash-safe *and corruption-aware* by construction:
//!
//! * The snapshot is staged in `checkpoint.tmp`, fsynced, and atomically
//!   renamed over `checkpoint`; the directory is fsynced after the
//!   rename, so a kill −9 (or power loss) at any instant leaves either
//!   the previous or the new checkpoint fully on disk.
//! * The v2 file format appends a per-section CRC32 footer
//!   (`crc <section> <hex>`), so torn writes and bit flips that survive the
//!   rename discipline (misbehaving disks, truncated copies) are
//!   *detected* on load rather than silently restoring garbage. Every
//!   restored checkpoint is checksum-verified: other versions (such as
//!   the pre-checksum v1) are rejected like any corrupt generation.
//! * The last three generations are retained (`checkpoint`,
//!   `checkpoint.1`, …; [`CheckpointManager::with_keep`] changes that);
//!   [`CheckpointManager::load`] falls back to the newest generation
//!   whose checksums verify, so one corrupt snapshot degrades the
//!   campaign by one checkpoint interval instead of forcing a cold
//!   start.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::MapSize;
//! use bigmap_coverage::Instrumentation;
//! use bigmap_fuzzer::{Campaign, CampaignConfig, CheckpointManager};
//! use bigmap_target::{GeneratorConfig, Interpreter};
//!
//! # fn main() -> std::io::Result<()> {
//! let program = GeneratorConfig::default().generate();
//! let inst =
//!     Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 1);
//! let interp = Interpreter::new(&program);
//! let dir = std::env::temp_dir().join(format!("bigmap-ckpt-doc-{}", std::process::id()));
//!
//! let config = CampaignConfig::builder().budget_execs(2_000).build();
//! let mut campaign = Campaign::new(config.clone(), &interp, &inst);
//! campaign.add_seeds(vec![vec![0u8; 32]]);
//! let mut manager = CheckpointManager::new(&dir, 500);
//! let stats = campaign.run_with_hook(250, |c| {
//!     let _ = manager.maybe_checkpoint(c);
//! });
//!
//! // "Kill": start over, resume from the persisted checkpoint instead
//! // of the seeds.
//! let checkpoint = CheckpointManager::load(&dir)?.expect("checkpoint written");
//! assert!(checkpoint.execs > 0 && checkpoint.execs <= stats.execs);
//! let mut resumed = Campaign::new(config, &interp, &inst);
//! resumed.restore(&checkpoint);
//! let final_stats = resumed.run();
//! assert_eq!(final_stats.execs, 2_000);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bigmap_core::Crc32;
use bigmap_target::OracleSnapshot;

use crate::campaign::Campaign;
use crate::faults::{FaultSite, InstanceFaults};
use crate::telemetry::TelemetryEvent;

/// File name of the live (newest) checkpoint inside a checkpoint
/// directory; older generations are `checkpoint.1`, `checkpoint.2`, ….
pub const CHECKPOINT_FILE: &str = "checkpoint";
/// Temp file the snapshot is staged in before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Generations a [`CheckpointManager`] retains by default.
const DEFAULT_KEEP: usize = 3;
/// Format magic + version written by [`Checkpoint::to_text`].
const MAGIC_V2: &str = "bigmap-checkpoint v2";

/// The checksummed sections of a v2 file, in layout order. Every content
/// line belongs to exactly one section; the footer carries one `crc`
/// line per *non-empty* section.
const SECTION_NAMES: [&str; 5] = ["header", "queue", "crash", "hang", "oracle"];

fn section_of(key: &str) -> Option<usize> {
    match key {
        "execs"
        | "wall_nanos"
        | "total_crashes"
        | "hangs"
        | "coverage_unique_crashes"
        | "discovered_running"
        | "rng"
        | "mutator_rng"
        | "hang_budget"
        | "queue_cursor" => Some(0),
        "queue" => Some(1),
        "crash" => Some(2),
        "hang" => Some(3),
        "oracle_buckets" | "oracle_paths" => Some(4),
        _ => None,
    }
}

/// File name of checkpoint generation `index` (0 is the live file).
fn generation_name(index: usize) -> String {
    if index == 0 {
        CHECKPOINT_FILE.to_string()
    } else {
        format!("{CHECKPOINT_FILE}.{index}")
    }
}

/// Parses a directory-entry name back to a generation index.
fn generation_index(name: &str) -> Option<usize> {
    if name == CHECKPOINT_FILE {
        return Some(0);
    }
    let suffix = name.strip_prefix("checkpoint.")?;
    suffix.parse().ok().filter(|&n| n >= 1)
}

/// Generation indices present in `dir`, ascending (newest first). A
/// missing directory reads as no generations.
fn existing_generations(dir: &Path) -> io::Result<Vec<usize>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut generations = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(index) = entry.file_name().to_str().and_then(generation_index) {
            generations.push(index);
        }
    }
    generations.sort_unstable();
    Ok(generations)
}

/// Fsyncs a directory so a just-renamed entry survives power loss. Best
/// effort: directory handles cannot be fsynced on every platform, and a
/// failure here never outranks the data write that preceded it.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// One queue entry as captured in a checkpoint: the input plus the
/// scheduling metadata that re-execution cannot re-derive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointQueueEntry {
    /// Derivation depth (drives the havoc energy bonus).
    pub depth: usize,
    /// Times the entry had been scheduled (drives skip probabilities and
    /// the deterministic-stage gate).
    pub fuzzed_rounds: usize,
    /// The test-case bytes.
    pub input: Vec<u8>,
}

/// A resumable snapshot of campaign state. Produced by
/// [`Campaign::checkpoint`], consumed by [`Campaign::restore`];
/// serialized by [`Checkpoint::to_text`] / [`Checkpoint::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Test cases executed when the snapshot was taken.
    pub execs: u64,
    /// Cumulative campaign wall time (nanoseconds), including any prior
    /// resumed segments.
    pub wall_nanos: u64,
    /// Total (non-unique) crashing executions.
    pub total_crashes: u64,
    /// Hanging executions.
    pub hangs: u64,
    /// AFL's coverage-bitmap unique-crash count.
    pub coverage_unique_crashes: u64,
    /// NewEdge verdicts so far (the timeline's coverage unit).
    pub discovered_running: u64,
    /// Scheduler RNG stream position (xoshiro256++ state).
    pub rng: [u64; 4],
    /// Mutator RNG stream position.
    pub mutator_rng: [u64; 4],
    /// Calibrated hang budget in force, if any.
    pub hang_budget: Option<u64>,
    /// The queue's round-robin scheduling position. Without it a resumed
    /// campaign restarts the queue walk at entry 0 and schedules
    /// different parents than the uninterrupted run — the counters and
    /// RNG streams alone don't pin the trajectory.
    pub queue_cursor: u64,
    /// The queue, in admission order.
    pub queue: Vec<CheckpointQueueEntry>,
    /// Unique crashes: (Crashwalk bucket, input), in first-sighting order.
    pub crashes: Vec<(u32, Vec<u8>)>,
    /// Hang-triggering inputs, in first-sighting order.
    pub hang_inputs: Vec<Vec<u8>>,
    /// Committed novelty-oracle state (selective-tracing campaigns).
    /// `None` for always-trace campaigns and for campaigns whose oracle
    /// has committed nothing yet — those files are byte-identical to the
    /// pre-oracle format. A resuming campaign that finds no oracle state
    /// starts with an empty oracle, which is the conservative fallback
    /// (every exec re-traces until re-committed).
    pub oracle: Option<OracleSnapshot>,
}

fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    if !text.len().is_multiple_of(2) {
        return Err(format!("odd-length hex payload ({} chars)", text.len()));
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16)
                .map_err(|_| format!("bad hex byte at offset {i}"))
        })
        .collect()
}

impl Checkpoint {
    /// Serializes the checkpoint as versioned line-oriented text (v2):
    /// content lines grouped by section, a `crc <section> <hex>` footer
    /// line per non-empty section, then the `end` sentinel. A file
    /// without the sentinel is truncated; a section whose bytes disagree
    /// with its footer checksum is corrupt.
    pub fn to_text(&self) -> String {
        let mut header = String::new();
        let _ = writeln!(header, "execs {}", self.execs);
        let _ = writeln!(header, "wall_nanos {}", self.wall_nanos);
        let _ = writeln!(header, "total_crashes {}", self.total_crashes);
        let _ = writeln!(header, "hangs {}", self.hangs);
        let _ = writeln!(
            header,
            "coverage_unique_crashes {}",
            self.coverage_unique_crashes
        );
        let _ = writeln!(header, "discovered_running {}", self.discovered_running);
        let _ = writeln!(
            header,
            "rng {:016x} {:016x} {:016x} {:016x}",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        );
        let _ = writeln!(
            header,
            "mutator_rng {:016x} {:016x} {:016x} {:016x}",
            self.mutator_rng[0], self.mutator_rng[1], self.mutator_rng[2], self.mutator_rng[3]
        );
        match self.hang_budget {
            Some(budget) => {
                let _ = writeln!(header, "hang_budget {budget}");
            }
            None => {
                let _ = writeln!(header, "hang_budget none");
            }
        }
        let _ = writeln!(header, "queue_cursor {}", self.queue_cursor);
        let mut queue = String::new();
        for entry in &self.queue {
            let _ = writeln!(
                queue,
                "queue {} {} {}",
                entry.depth,
                entry.fuzzed_rounds,
                hex_encode(&entry.input)
            );
        }
        let mut crash = String::new();
        for (bucket, input) in &self.crashes {
            let _ = writeln!(crash, "crash {bucket:08x} {}", hex_encode(input));
        }
        let mut hang = String::new();
        for input in &self.hang_inputs {
            let _ = writeln!(hang, "hang {}", hex_encode(input));
        }
        let mut oracle = String::new();
        if let Some(snap) = &self.oracle {
            let _ = writeln!(oracle, "oracle_buckets {}", hex_encode(&snap.buckets));
            let mut path_bytes = Vec::with_capacity(snap.paths.len() * 8);
            for path in &snap.paths {
                path_bytes.extend_from_slice(&path.to_be_bytes());
            }
            let _ = writeln!(oracle, "oracle_paths {}", hex_encode(&path_bytes));
        }

        let sections = [&header, &queue, &crash, &hang, &oracle];
        let mut out = String::with_capacity(
            MAGIC_V2.len() + sections.iter().map(|s| s.len()).sum::<usize>() + 128,
        );
        let _ = writeln!(out, "{MAGIC_V2}");
        for section in sections {
            out.push_str(section);
        }
        for (name, section) in SECTION_NAMES.iter().zip(sections) {
            if !section.is_empty() {
                let _ = writeln!(
                    out,
                    "crc {name} {:08x}",
                    Crc32::checksum(section.as_bytes())
                );
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses a checkpoint from [`Checkpoint::to_text`] output.
    ///
    /// Per-section checksums are verified; a mismatch — a torn write or
    /// bit flip that survived the rename discipline — is an error naming
    /// the corrupt section. Only v2 files parse: any other header line,
    /// such as an older version's, is an error quoting it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, a version
    /// mismatch, a missing `end` sentinel (truncated file), or a
    /// section-checksum failure.
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != MAGIC_V2 {
            return Err(format!(
                "unsupported checkpoint header '{header}' (expected '{MAGIC_V2}')"
            ));
        }
        let mut ckpt = Checkpoint {
            execs: 0,
            wall_nanos: 0,
            total_crashes: 0,
            hangs: 0,
            coverage_unique_crashes: 0,
            discovered_running: 0,
            rng: [0; 4],
            mutator_rng: [0; 4],
            hang_budget: None,
            queue_cursor: 0,
            queue: Vec::new(),
            crashes: Vec::new(),
            hang_inputs: Vec::new(),
            oracle: None,
        };
        let mut ended = false;
        // Raw bytes of each section as laid out in the file, re-hashed
        // for comparison against the footer's declared checksums.
        let mut section_text: [String; 5] = Default::default();
        let mut declared_crc: [Option<u32>; 5] = [None; 5];
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            if ended {
                return Err(format!("line {lineno}: content after 'end' sentinel"));
            }
            let mut fields = line.split_ascii_whitespace();
            let key = fields
                .next()
                .ok_or_else(|| format!("line {lineno}: empty line"))?;
            if let Some(section) = section_of(key) {
                section_text[section].push_str(line);
                section_text[section].push('\n');
            }
            let mut next = |what: &str| {
                fields
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing {what}"))
                    .map(str::to_string)
            };
            let parse_u64 = |s: String, lineno: usize| {
                s.parse::<u64>()
                    .map_err(|_| format!("line {lineno}: bad integer '{s}'"))
            };
            let parse_state = |fields: &mut dyn Iterator<Item = &str>, lineno: usize| {
                let mut s = [0u64; 4];
                for slot in &mut s {
                    let word = fields
                        .next()
                        .ok_or_else(|| format!("line {lineno}: short rng state"))?;
                    *slot = u64::from_str_radix(word, 16)
                        .map_err(|_| format!("line {lineno}: bad rng word '{word}'"))?;
                }
                Ok::<[u64; 4], String>(s)
            };
            match key {
                "execs" => ckpt.execs = parse_u64(next("value")?, lineno)?,
                "wall_nanos" => ckpt.wall_nanos = parse_u64(next("value")?, lineno)?,
                "total_crashes" => ckpt.total_crashes = parse_u64(next("value")?, lineno)?,
                "hangs" => ckpt.hangs = parse_u64(next("value")?, lineno)?,
                "coverage_unique_crashes" => {
                    ckpt.coverage_unique_crashes = parse_u64(next("value")?, lineno)?;
                }
                "discovered_running" => {
                    ckpt.discovered_running = parse_u64(next("value")?, lineno)?;
                }
                "rng" => ckpt.rng = parse_state(&mut fields, lineno)?,
                "mutator_rng" => ckpt.mutator_rng = parse_state(&mut fields, lineno)?,
                "hang_budget" => {
                    let value = next("value")?;
                    ckpt.hang_budget = if value == "none" {
                        None
                    } else {
                        Some(parse_u64(value, lineno)?)
                    };
                }
                "queue_cursor" => ckpt.queue_cursor = parse_u64(next("value")?, lineno)?,
                "queue" => {
                    let depth = parse_u64(next("depth")?, lineno)? as usize;
                    let fuzzed_rounds = parse_u64(next("fuzzed_rounds")?, lineno)? as usize;
                    let input =
                        hex_decode(&next("input")?).map_err(|e| format!("line {lineno}: {e}"))?;
                    ckpt.queue.push(CheckpointQueueEntry {
                        depth,
                        fuzzed_rounds,
                        input,
                    });
                }
                "crash" => {
                    let bucket_text = next("bucket")?;
                    let bucket = u32::from_str_radix(&bucket_text, 16)
                        .map_err(|_| format!("line {lineno}: bad bucket '{bucket_text}'"))?;
                    let input =
                        hex_decode(&next("input")?).map_err(|e| format!("line {lineno}: {e}"))?;
                    ckpt.crashes.push((bucket, input));
                }
                "hang" => {
                    let input =
                        hex_decode(&next("input")?).map_err(|e| format!("line {lineno}: {e}"))?;
                    ckpt.hang_inputs.push(input);
                }
                "oracle_buckets" => {
                    let buckets =
                        hex_decode(&next("buckets")?).map_err(|e| format!("line {lineno}: {e}"))?;
                    ckpt.oracle
                        .get_or_insert_with(OracleSnapshot::default)
                        .buckets = buckets;
                }
                "oracle_paths" => {
                    let bytes =
                        hex_decode(&next("paths")?).map_err(|e| format!("line {lineno}: {e}"))?;
                    if !bytes.len().is_multiple_of(8) {
                        return Err(format!(
                            "line {lineno}: oracle path payload is {} bytes (not 8-aligned)",
                            bytes.len()
                        ));
                    }
                    ckpt.oracle
                        .get_or_insert_with(OracleSnapshot::default)
                        .paths = bytes
                        .chunks_exact(8)
                        .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
                        .collect();
                }
                "crc" => {
                    let name = next("section")?;
                    let section = SECTION_NAMES
                        .iter()
                        .position(|n| *n == name)
                        .ok_or_else(|| format!("line {lineno}: unknown section '{name}'"))?;
                    let value = next("checksum")?;
                    let value = u32::from_str_radix(&value, 16)
                        .map_err(|_| format!("line {lineno}: bad checksum '{value}'"))?;
                    if declared_crc[section].replace(value).is_some() {
                        return Err(format!("line {lineno}: duplicate checksum for '{name}'"));
                    }
                }
                "end" => ended = true,
                other => return Err(format!("line {lineno}: unknown key '{other}'")),
            }
        }
        if !ended {
            return Err("truncated checkpoint (missing 'end' sentinel)".to_string());
        }
        for (section, name) in SECTION_NAMES.iter().enumerate() {
            let body = &section_text[section];
            match declared_crc[section] {
                Some(declared) if body.is_empty() => {
                    return Err(format!(
                        "checksum declared for empty section '{name}' \
                                        ({declared:08x}) — content lines lost"
                    ));
                }
                Some(declared) => {
                    let computed = Crc32::checksum(body.as_bytes());
                    if computed != declared {
                        return Err(format!(
                            "section '{name}' checksum mismatch \
                             (declared {declared:08x}, computed {computed:08x})"
                        ));
                    }
                }
                None if !body.is_empty() => {
                    return Err(format!("missing checksum for section '{name}'"));
                }
                None => {}
            }
        }
        Ok(ckpt)
    }
}

/// What a fallback-aware checkpoint restore actually loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Generation index the checkpoint came from (0 is the live file;
    /// higher is older).
    pub generation: usize,
    /// Newer generations that were skipped as unreadable or corrupt,
    /// with the reason each was rejected.
    pub skipped: Vec<(usize, String)>,
}

/// Writes periodic checkpoints for one campaign into a directory, via
/// fsynced temp-file + atomic rename, retaining the last three
/// generations unless [`CheckpointManager::with_keep`] says otherwise.
///
/// The manager owns the cadence (every N executions, checked at sync
/// boundaries) and the persistence; the state capture itself is
/// [`Campaign::checkpoint`]. A checkpoint-write failure (real I/O error
/// or an injected [`FaultSite::CheckpointWrite`] /
/// [`FaultSite::DiskFull`] fault) leaves the previous on-disk
/// generations intact — degradation, not corruption. Corruption that
/// slips *past* the write discipline (injected torn writes and bit
/// flips model it) is caught by the v2 section checksums at load time,
/// which then falls back to the newest intact older generation.
#[derive(Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    every: u64,
    next_at: u64,
    min_interval: Duration,
    last_write: Option<Instant>,
    keep: usize,
}

impl CheckpointManager {
    /// Manager writing into `dir` (created on first write) every `every`
    /// executions. An `every` of 0 checkpoints at every opportunity.
    /// Retains three generations (override with
    /// [`CheckpointManager::with_keep`]).
    ///
    /// A stale `checkpoint.tmp` left by a crash mid-publish is removed
    /// here: it was never renamed into place, so it holds a snapshot
    /// that was never trusted and can only confuse directory listings.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        let every = every.max(1);
        let dir = dir.into();
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));
        CheckpointManager {
            dir,
            every,
            next_at: every,
            min_interval: Duration::ZERO,
            last_write: None,
            keep: DEFAULT_KEEP,
        }
    }

    /// Overrides the number of generations retained (minimum 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Adds a wall-clock floor between snapshots: a cadence mark reached
    /// sooner than `interval` after the previous write is *postponed* to
    /// the next sync boundary past the floor, not skipped. An exec-count
    /// cadence alone lets a fast arm (hundreds of thousands of execs/sec)
    /// checkpoint hundreds of times per second, which turns a sub-percent
    /// safety net into double-digit overhead; the floor bounds the write
    /// rate by wall time no matter the exec rate. The default is no floor
    /// (pure exec cadence, deterministic for tests).
    pub fn with_min_interval(mut self, interval: Duration) -> Self {
        self.min_interval = interval;
        self
    }

    /// The directory checkpoints are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints `campaign` if it has crossed the next cadence mark.
    /// Returns whether a checkpoint was written. Meant to be called from
    /// a [`Campaign::run_with_hook`] sync hook.
    ///
    /// # Errors
    ///
    /// Propagates write failures (the cadence still advances, so one
    /// failed write costs one checkpoint, not the whole schedule).
    pub fn maybe_checkpoint(&mut self, campaign: &Campaign<'_>) -> io::Result<bool> {
        if campaign.execs() < self.next_at {
            return Ok(false);
        }
        // Postponed, not skipped: next_at is untouched, so the write
        // happens at the first boundary past the wall-clock floor.
        if let Some(last) = self.last_write {
            if last.elapsed() < self.min_interval {
                return Ok(false);
            }
        }
        self.next_at = campaign.execs() + self.every;
        self.last_write = Some(Instant::now());
        self.checkpoint_now(campaign)?;
        Ok(true)
    }

    /// Unconditionally checkpoints `campaign` right now: stage in the
    /// temp file, fsync it, rotate the existing generations up one slot,
    /// atomically rename the temp file into place, fsync the directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an injected
    /// [`FaultSite::CheckpointWrite`] fault surfaces as
    /// [`io::ErrorKind::Other`] and [`FaultSite::DiskFull`] as
    /// [`io::ErrorKind::StorageFull`]. Either way the previous
    /// generations are untouched. Injected [`FaultSite::TornWrite`] and
    /// [`FaultSite::BitFlip`] faults deliberately *succeed* while
    /// publishing a corrupt newest generation — the failure mode the
    /// load-time checksums exist to catch.
    pub fn checkpoint_now(&self, campaign: &Campaign<'_>) -> io::Result<()> {
        // Draw every fault ordinal up front so one site firing never
        // shifts another site's schedule.
        let (fail_write, disk_full, torn, flip) = match campaign.faults() {
            Some(f) => (
                f.fire(FaultSite::CheckpointWrite),
                f.fire(FaultSite::DiskFull),
                f.fire(FaultSite::TornWrite),
                f.fire(FaultSite::BitFlip),
            ),
            None => (false, false, false, false),
        };
        if fail_write {
            return Err(io::Error::other("injected checkpoint write failure"));
        }
        if disk_full {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected storage-full checkpoint write",
            ));
        }
        let text = campaign.checkpoint().to_text();
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(CHECKPOINT_TMP);
        {
            let mut file = fs::File::create(&tmp)?;
            let bytes = text.as_bytes();
            if torn {
                // Lose the tail and skip the fsync: the kill arrived
                // between write and sync, but the rename still happens.
                file.write_all(&bytes[..bytes.len() / 3])?;
            } else {
                file.write_all(bytes)?;
                file.sync_all()?;
            }
        }
        self.rotate_generations()?;
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        sync_dir(&self.dir);
        if flip {
            flip_one_bit(&self.dir.join(CHECKPOINT_FILE))?;
        }
        if let Some(tel) = campaign.telemetry() {
            tel.incr(TelemetryEvent::Checkpoint);
        }
        Ok(())
    }

    /// Shifts generation `i` to `i + 1` for every retained slot, newest
    /// last so no generation is ever overwritten before it has been
    /// copied up, and drops generations at or beyond the retention
    /// horizon. A crash anywhere in the shift leaves every surviving
    /// file a complete, verifiable snapshot (possibly under two names).
    fn rotate_generations(&self) -> io::Result<()> {
        for index in existing_generations(&self.dir)? {
            if index + 1 >= self.keep {
                let _ = fs::remove_file(self.dir.join(generation_name(index)));
            }
        }
        for index in (0..self.keep.saturating_sub(1)).rev() {
            let from = self.dir.join(generation_name(index));
            let to = self.dir.join(generation_name(index + 1));
            match fs::rename(&from, &to) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Loads the newest intact checkpoint persisted in `dir`, if any
    /// generation exists: generations are tried newest-first and the
    /// first one whose checksums verify wins.
    ///
    /// # Errors
    ///
    /// I/O errors propagate; if generations exist but *none* is intact,
    /// the error is [`io::ErrorKind::InvalidData`] (a half-written temp
    /// file never contributes — only the atomic rename publishes).
    pub fn load(dir: impl AsRef<Path>) -> io::Result<Option<Checkpoint>> {
        Self::load_with_report(dir, None).map(|loaded| loaded.map(|(ckpt, _)| ckpt))
    }

    /// [`CheckpointManager::load`], plus the [`RestoreReport`] saying
    /// which generation was restored and which newer ones were skipped
    /// as corrupt — the hook for `CheckpointFallback` telemetry.
    ///
    /// `faults` threads an instance's chaos plan into the read path
    /// ([`FaultSite::ShortRead`] truncates a generation's bytes before
    /// parsing, which the checksums then reject).
    ///
    /// # Errors
    ///
    /// Same contract as [`CheckpointManager::load`].
    pub fn load_with_report(
        dir: impl AsRef<Path>,
        faults: Option<&InstanceFaults>,
    ) -> io::Result<Option<(Checkpoint, RestoreReport)>> {
        let dir = dir.as_ref();
        let generations = existing_generations(dir)?;
        if generations.is_empty() {
            return Ok(None);
        }
        let mut skipped: Vec<(usize, String)> = Vec::new();
        for index in generations {
            let path = dir.join(generation_name(index));
            let mut text = match fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    skipped.push((index, format!("unreadable: {e}")));
                    continue;
                }
            };
            if faults.is_some_and(|f| f.fire(FaultSite::ShortRead)) {
                text.truncate(text.len() / 2);
            }
            match Checkpoint::from_text(&text) {
                Ok(ckpt) => {
                    return Ok(Some((
                        ckpt,
                        RestoreReport {
                            generation: index,
                            skipped,
                        },
                    )))
                }
                Err(reason) => skipped.push((index, reason)),
            }
        }
        let summary = skipped
            .iter()
            .map(|(index, reason)| format!("{}: {reason}", generation_name(*index)))
            .collect::<Vec<_>>()
            .join("; ");
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no intact checkpoint generation ({summary})"),
        ))
    }
}

/// Flips one bit in the middle of `path` in place — the injected
/// silent-media-corruption model behind [`FaultSite::BitFlip`].
fn flip_one_bit(path: &Path) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            execs: 12_345,
            wall_nanos: 9_999_999,
            total_crashes: 17,
            hangs: 3,
            coverage_unique_crashes: 5,
            discovered_running: 321,
            rng: [1, u64::MAX, 0xDEAD_BEEF, 42],
            mutator_rng: [7, 8, 9, 10],
            hang_budget: Some(2_500),
            queue_cursor: 11,
            queue: vec![
                CheckpointQueueEntry {
                    depth: 0,
                    fuzzed_rounds: 4,
                    input: b"seed".to_vec(),
                },
                CheckpointQueueEntry {
                    depth: 3,
                    fuzzed_rounds: 0,
                    input: vec![0, 255, 128],
                },
                CheckpointQueueEntry {
                    depth: 1,
                    fuzzed_rounds: 1,
                    input: Vec::new(), // empty inputs must round-trip
                },
            ],
            crashes: vec![(0xABCD_EF01, b"boom".to_vec()), (3, Vec::new())],
            hang_inputs: vec![b"spin".to_vec()],
            oracle: None,
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let ckpt = sample();
        let parsed = Checkpoint::from_text(&ckpt.to_text()).expect("round trip");
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn oracle_state_round_trips() {
        let ckpt = Checkpoint {
            oracle: Some(OracleSnapshot {
                buckets: vec![0b1000_0001, 0, 0xFF],
                paths: vec![0, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D],
            }),
            ..sample()
        };
        let parsed = Checkpoint::from_text(&ckpt.to_text()).expect("round trip");
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn always_trace_checkpoints_keep_the_pre_oracle_format() {
        // `oracle: None` must serialize byte-identically to the v1 format
        // that predates selective tracing, and such files must parse with
        // no oracle state (the conservative empty-oracle resume).
        let text = sample().to_text();
        assert!(!text.contains("oracle"), "no oracle lines when None");
        let parsed = Checkpoint::from_text(&text).unwrap();
        assert_eq!(parsed.oracle, None);
    }

    #[test]
    fn misaligned_oracle_paths_rejected() {
        let mut text = sample().to_text();
        text = text.replace("\nend\n", "\noracle_paths abcd\nend\n");
        assert!(Checkpoint::from_text(&text)
            .unwrap_err()
            .contains("not 8-aligned"));
    }

    #[test]
    fn no_budget_round_trips() {
        let ckpt = Checkpoint {
            hang_budget: None,
            ..sample()
        };
        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed.hang_budget, None);
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_text();
        let cut = text.len() / 2;
        let err = Checkpoint::from_text(&text[..cut]).unwrap_err();
        // Either a mangled line or the missing sentinel — both must fail.
        assert!(!err.is_empty());
        let no_end = text.replace("\nend\n", "\n");
        assert!(Checkpoint::from_text(&no_end)
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(Checkpoint::from_text("bigmap-checkpoint v99\nend\n").is_err());
        assert!(Checkpoint::from_text("").is_err());
    }

    #[test]
    fn garbage_lines_rejected() {
        let good = sample().to_text();
        let bad = good.replace("execs 12345", "execs twelve");
        assert!(Checkpoint::from_text(&bad).unwrap_err().contains("line"));
        let unknown = good.replace("execs 12345", "frobnicate 12345");
        assert!(Checkpoint::from_text(&unknown)
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn hex_codec_round_trips() {
        for payload in [vec![], vec![0u8], vec![0xFF; 33], (0..=255u8).collect()] {
            assert_eq!(hex_decode(&hex_encode(&payload)).unwrap(), payload);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn min_interval_postpones_extra_writes() {
        use crate::campaign::{Budget, Campaign, CampaignConfig};
        use bigmap_core::MapSize;
        use bigmap_coverage::Instrumentation;
        use bigmap_target::{GeneratorConfig, Interpreter};

        let program = GeneratorConfig {
            seed: 3,
            ..Default::default()
        }
        .generate();
        let inst =
            Instrumentation::assign(program.block_count(), program.call_sites, MapSize::K64, 1);
        let interp = Interpreter::new(&program);
        let dir = std::env::temp_dir().join(format!("bigmap-ckpt-floor-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let mut campaign = Campaign::new(
            CampaignConfig {
                budget: Budget::Execs(400),
                ..Default::default()
            },
            &interp,
            &inst,
        );
        campaign.add_seeds(vec![vec![0u8; 16]]);

        // Cadence of 1 exec but an unreachable wall-clock floor: only the
        // very first cadence mark writes, every later one is postponed.
        let mut manager =
            CheckpointManager::new(&dir, 1).with_min_interval(Duration::from_secs(3600));
        let mut writes = 0u32;
        campaign.run_with_hook(100, |c| {
            if manager.maybe_checkpoint(c).unwrap() {
                writes += 1;
            }
        });
        assert_eq!(writes, 1, "floor allowed more than the initial write");
        // The postponed marks left the schedule armed, not skipped ahead.
        assert!(CheckpointManager::load(&dir).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_is_none() {
        let dir = std::env::temp_dir().join("bigmap-ckpt-missing-nonexistent");
        assert!(CheckpointManager::load(&dir).unwrap().is_none());
    }

    #[test]
    fn v1_generations_are_skipped_on_restore() {
        // A v1 file is exactly a v2 file minus the crc footer with the old
        // magic. It cannot be verified, so parsing fails naming the version.
        let v1_of = |ckpt: &Checkpoint| -> String {
            ckpt.to_text()
                .lines()
                .filter(|line| !line.starts_with("crc "))
                .map(|line| format!("{line}\n"))
                .collect::<String>()
                .replace(MAGIC_V2, "bigmap-checkpoint v1")
        };
        let err = Checkpoint::from_text(&v1_of(&sample())).unwrap_err();
        assert!(err.contains("bigmap-checkpoint v1"), "got: {err}");

        let dir = std::env::temp_dir().join(format!("bigmap-ckpt-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Newest generation v1, the one before it v2: restore skips the v1
        // file, records why, and falls back to the verified v2 generation.
        let newest = Checkpoint {
            execs: 300,
            ..sample()
        };
        fs::write(dir.join("checkpoint"), v1_of(&newest)).unwrap();
        let older = Checkpoint {
            execs: 200,
            ..sample()
        };
        fs::write(dir.join("checkpoint.1"), older.to_text()).unwrap();
        let (ckpt, report) = CheckpointManager::load_with_report(&dir, None)
            .unwrap()
            .expect("v2 generation loads");
        assert_eq!((ckpt, report.generation), (older, 1));
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 0);
        assert!(report.skipped[0].1.contains("v1"), "{:?}", report.skipped);

        // Only v1 generations left: no intact checkpoint, a cold start.
        fs::write(dir.join("checkpoint.1"), v1_of(&sample())).unwrap();
        let err = CheckpointManager::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("v1"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_any_section_is_detected() {
        // Flip one bit in every byte position of the serialized file;
        // no flipped variant may parse successfully (crc on content,
        // unknown-key/magic errors on structure). This is the property
        // that makes fallback restore trustworthy.
        let text = sample().to_text();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[pos] ^= 0x10;
            if flipped == bytes {
                continue;
            }
            if let Ok(text) = String::from_utf8(flipped) {
                assert!(
                    Checkpoint::from_text(&text).is_err(),
                    "bit flip at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_mismatch_names_the_section() {
        let text = sample().to_text();
        // Corrupt a queue payload nibble without touching its crc line.
        let corrupted = text.replacen("queue 0 4", "queue 0 5", 1);
        assert_ne!(corrupted, text);
        let err = Checkpoint::from_text(&corrupted).unwrap_err();
        assert!(
            err.contains("'queue'") && err.contains("mismatch"),
            "got: {err}"
        );
    }

    #[test]
    fn missing_section_checksum_rejected() {
        let text = sample().to_text();
        let crc_line = text
            .lines()
            .find(|l| l.starts_with("crc crash"))
            .expect("crash section has a crc line");
        let stripped = text.replace(&format!("{crc_line}\n"), "");
        let err = Checkpoint::from_text(&stripped).unwrap_err();
        assert!(err.contains("missing checksum"), "got: {err}");
    }

    #[test]
    fn stale_tmp_is_removed_on_manager_startup() {
        let dir = std::env::temp_dir().join(format!("bigmap-ckpt-staletmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(CHECKPOINT_TMP);
        fs::write(&tmp, "half-written snapshot from a dead process").unwrap();
        let manager = CheckpointManager::new(&dir, 100);
        assert!(!tmp.exists(), "stale checkpoint.tmp must be cleaned up");
        assert_eq!(manager.dir(), dir.as_path());
        // And a temp file never masquerades as a generation.
        assert!(CheckpointManager::load(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_rotate_and_fall_back() {
        let dir = std::env::temp_dir().join(format!("bigmap-ckpt-gens-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Publish three snapshots by hand through the same rotation the
        // manager uses (exercised end-to-end in tests/durability_chaos).
        let manager = CheckpointManager::new(&dir, 1).with_keep(2);
        for execs in [100u64, 200, 300] {
            let snapshot = Checkpoint { execs, ..sample() };
            fs::write(dir.join(CHECKPOINT_TMP), snapshot.to_text()).unwrap();
            manager.rotate_generations().unwrap();
            fs::rename(dir.join(CHECKPOINT_TMP), dir.join(CHECKPOINT_FILE)).unwrap();
        }
        // keep=2: the 100-exec generation aged out.
        assert!(dir.join("checkpoint").exists());
        assert!(dir.join("checkpoint.1").exists());
        assert!(!dir.join("checkpoint.2").exists());
        let (ckpt, report) = CheckpointManager::load_with_report(&dir, None)
            .unwrap()
            .expect("newest loads");
        assert_eq!((ckpt.execs, report.generation), (300, 0));
        assert!(report.skipped.is_empty());

        // Corrupt the newest generation: restore falls back to the
        // previous one and reports the skip.
        fs::write(dir.join("checkpoint"), "torn garbage").unwrap();
        let (ckpt, report) = CheckpointManager::load_with_report(&dir, None)
            .unwrap()
            .expect("fallback loads");
        assert_eq!((ckpt.execs, report.generation), (200, 1));
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 0);
        // Plain load() hides the bookkeeping but returns the same data.
        assert_eq!(CheckpointManager::load(&dir).unwrap().unwrap().execs, 200);

        // Corrupt every generation: InvalidData naming both.
        fs::write(dir.join("checkpoint.1"), "also garbage").unwrap();
        let err = CheckpointManager::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checkpoint.1"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_file() {
        let dir = std::env::temp_dir().join(format!("bigmap-ckpt-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CHECKPOINT_FILE), "garbage").unwrap();
        let err = CheckpointManager::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }
}
