//! Untraced campaigns: the end-to-end numbers.
//!
//! One campaign is set up (target generation, instrumentation, engine
//! compilation, map allocation, seed dry run), fuzzed through
//! `Campaign::run_with_hook_detailed` with a hook at every mutation-batch
//! boundary, and fingerprinted. The hook samples `(execs, wall time)`
//! for time-to-coverage, captures the complete campaign state once past
//! the reference prefix, and drives the checkpoint manager on
//! checkpointing workloads.

use std::path::Path;
use std::time::Instant;

use bigmap_core::{InterpMode, SparseMode};
use bigmap_fuzzer::{Campaign, CheckpointManager};
use bigmap_target::Interpreter;

use crate::fingerprint::{state_crc, Fingerprint};
use crate::stats::median;
use crate::workloads::{Workload, CHECKPOINT_EVERY, CHECKPOINT_FLOOR, REFERENCE_PREFIX_DIVISOR};

/// Coverage fraction whose arrival time is reported.
const COVERAGE_FRACTION: f64 = 0.9;

/// One untraced campaign's measurements.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Fuzzing-loop wall seconds (seed dry run excluded).
    pub loop_s: f64,
    /// Fuzzing-loop execs per second.
    pub execs_per_s: f64,
    /// Loop seconds until the timeline reached 90% of its final coverage.
    pub tt_cov90_s: f64,
    /// The campaign's fingerprint.
    pub fingerprint: Fingerprint,
    /// Checkpoints written while fuzzing.
    pub checkpoint_writes: u64,
    /// Correctness or I/O problems; empty for a correct run.
    pub problems: Vec<String>,
}

/// Runs one campaign of `workload` with `campaign_seed` and an `execs`
/// budget over a target generated at `scale`. Checkpoints (if the
/// workload takes them) go to a directory under `out_dir`, removed
/// afterwards. With `check_prefix`, the first `1/16` of the trajectory is
/// re-run under the reference configuration (tree interpreter, dense map
/// ops) after the timed loop, and its state must equal the timed run's.
pub fn run_campaign(
    workload: &Workload,
    campaign_seed: u64,
    execs: u64,
    scale: f64,
    out_dir: &Path,
    check_prefix: bool,
) -> CampaignRun {
    let config = workload.config(campaign_seed, execs);
    let target = workload.build_target(scale);
    let interpreter = Interpreter::new(&target.program);
    let mut campaign = Campaign::new(config.clone(), &interpreter, &target.instrumentation);
    campaign.add_seeds(target.seeds.clone());
    let seed_execs = campaign.execs();

    let mut problems = Vec::new();
    let ckpt_dir = out_dir.join(format!("ckpt-{}-{campaign_seed:016x}", workload.name));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut manager = workload.checkpoint.then(|| {
        CheckpointManager::new(&ckpt_dir, CHECKPOINT_EVERY).with_min_interval(CHECKPOINT_FLOOR)
    });
    let mut checkpoint_writes = 0;
    let prefix_at = if check_prefix {
        execs / REFERENCE_PREFIX_DIVISOR
    } else {
        u64::MAX
    };
    let mut prefix_state = None;
    let mut samples = vec![(seed_execs, 0.0)];
    let started = Instant::now();
    let output = campaign.run_with_hook_detailed(1, |c| {
        samples.push((c.execs(), started.elapsed().as_secs_f64()));
        if prefix_state.is_none() && c.execs() >= prefix_at {
            prefix_state = Some((c.execs(), state_crc(&c.checkpoint())));
        }
        if let Some(manager) = manager.as_mut() {
            match manager.maybe_checkpoint(c) {
                Ok(wrote) => checkpoint_writes += u64::from(wrote),
                Err(err) => problems.push(format!("checkpoint write failed: {err}")),
            }
        }
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let stats = &output.stats;
    let loop_s = stats.wall_time.as_secs_f64();
    let tt_cov90_s = stats
        .timeline
        .execs_to_fraction(COVERAGE_FRACTION)
        .map_or(loop_s, |at| time_at(&samples, at));

    if let Some((at, crc)) = prefix_state {
        let mut reference = config;
        reference.interp = Some(InterpMode::Tree);
        reference.sparse = Some(SparseMode::Off);
        reference.budget = bigmap_fuzzer::Budget::Execs(at);
        let mut campaign = Campaign::new(reference, &interpreter, &target.instrumentation);
        campaign.add_seeds(target.seeds.clone());
        let mut reference_state = None;
        campaign.run_with_hook(1, |c| {
            if c.execs() >= at && reference_state.is_none() {
                reference_state = Some((c.execs(), state_crc(&c.checkpoint())));
            }
        });
        if reference_state != Some((at, crc)) {
            problems.push(format!(
                "state after {at} execs differs from the reference configuration's"
            ));
        }
    }

    CampaignRun {
        loop_s,
        execs_per_s: (stats.execs - seed_execs) as f64 / loop_s,
        tt_cov90_s,
        fingerprint: Fingerprint::of(stats, &output.corpus),
        checkpoint_writes,
        problems,
    }
}

/// Untimed set-ups before timing starts. Repeated set-ups in one process
/// run up to 3x slower for the first eight or so (instcombine's 8 MiB
/// maps: 87 ms falling to 27 ms) until glibc keeps enough freed memory in
/// its heap to serve the maps without fresh page faults.
const SETUP_WARMUP: usize = 10;

/// Timed set-ups.
const SETUP_REPS: usize = 15;

/// The median of [`SETUP_REPS`] set-ups of `workload`, timed after
/// [`SETUP_WARMUP`] untimed ones. Meant for a fresh process: the warm-up
/// depends on the heap state the process starts with, and the memory it
/// leaves in the heap raises the process's peak RSS.
pub fn median_setup(workload: &Workload, scale: f64) -> f64 {
    let times: Vec<f64> = (0..SETUP_WARMUP + SETUP_REPS)
        .map(|_| time_setup(workload, scale))
        .collect();
    median(&times[SETUP_WARMUP..]).expect("at least one timed set-up")
}

/// Seconds one campaign set-up takes: target generation,
/// instrumentation, engine compilation, campaign construction (map
/// allocation) and the seed dry run.
fn time_setup(workload: &Workload, scale: f64) -> f64 {
    let started = Instant::now();
    let target = workload.build_target(scale);
    let interpreter = Interpreter::new(&target.program);
    let mut campaign = Campaign::new(workload.config(0, 0), &interpreter, &target.instrumentation);
    campaign.add_seeds(target.seeds.clone());
    started.elapsed().as_secs_f64()
}

/// Loop seconds at exec index `at`, interpolated linearly between the
/// `(execs, seconds)` samples taken at batch boundaries.
fn time_at(samples: &[(u64, f64)], at: u64) -> f64 {
    let mut prev = samples[0];
    for &(execs, secs) in samples {
        if execs >= at {
            let (e0, t0) = prev;
            if execs == e0 {
                return secs;
            }
            return t0 + (secs - t0) * (at.saturating_sub(e0)) as f64 / (execs - e0) as f64;
        }
        prev = (execs, secs);
    }
    prev.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_at_interpolates_between_batch_samples() {
        let samples = [(10, 0.0), (110, 1.0), (310, 2.0)];
        assert_eq!(time_at(&samples, 5), 0.0);
        assert_eq!(time_at(&samples, 60), 0.5);
        assert_eq!(time_at(&samples, 110), 1.0);
        assert_eq!(time_at(&samples, 210), 1.5);
        assert_eq!(time_at(&samples, 999), 2.0);
    }
}
