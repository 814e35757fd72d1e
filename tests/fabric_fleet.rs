//! Node-loss tests for the process transport of the fleet runtime: real
//! `fabric_worker` child processes, the binary wire protocol over pipes,
//! supervised restarts, and the single merged fleet telemetry stream.
//!
//! These spawn the `fabric_worker` binary (`src/bin/fabric_worker.rs`)
//! via `CARGO_BIN_EXE_`, so they exercise the full process boundary —
//! frame encode/decode on both sides, pipe backpressure, and exit-status
//! supervision — not an in-process simulation of it. The same scenarios
//! on both transports are in `fleet_transports.rs`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use bigmap::fuzzer::parse_jsonl;
use bigmap::prelude::*;

const WORKER: &str = env!("CARGO_BIN_EXE_fabric_worker");

fn base_args(execs: u64) -> Vec<String> {
    vec![
        "--benchmark".into(),
        "gvn".into(),
        "--execs".into(),
        execs.to_string(),
        "--sync-every".into(),
        "250".into(),
        "--map-size".into(),
        "m2".into(),
    ]
}

/// Node-loss recovery: worker 1 panics at its third sync boundary
/// (single-shot via a sentinel file, so the respawn runs clean). The
/// fleet must restart it, resume from its checkpoint, and still end with
/// every worker's results in one merged telemetry stream.
#[test]
fn killed_worker_is_respawned_and_fleet_recovers() {
    let dir = tempdir("fabric-kill");
    let jsonl = dir.join("fleet.jsonl");
    let sentinel = dir.join("panic-once");
    let checkpoints = dir.join("ckpt");
    let config = FleetConfig {
        instances: 2,
        max_restarts: 2,
        backoff: Duration::from_millis(10),
        telemetry: Some(JsonlSink::to_file(&jsonl).expect("create fleet jsonl")),
        liveness_deadline: None,
    };
    let args = base_args(4_000);
    let command = |index| {
        let mut cmd = Command::new(WORKER);
        cmd.args(&args);
        cmd.arg("--checkpoint-root").arg(&checkpoints);
        if index == 1 {
            cmd.arg("--panic-once").arg(&sentinel);
        }
        cmd
    };
    let stats = run_fleet(&config, Transport::Processes(&command));

    assert!(sentinel.exists(), "the injected panic never armed");
    assert_eq!(stats.health[0], InstanceHealth::Running);
    assert!(
        matches!(stats.health[1], InstanceHealth::Restarted(n) if n >= 1),
        "worker 1 should have died and been respawned: {:?}",
        stats.health[1]
    );
    // The respawned worker still completes its budget (resuming from its
    // checkpoint, not double-counting) and the survivor is untouched.
    assert_eq!(stats.instances[0].execs, 4_000);
    assert_eq!(stats.instances[1].execs, 4_000);
    assert!(
        checkpoints.join("instance-01").is_dir(),
        "worker 1 never checkpointed"
    );

    // One merged stream, both nodes present despite the mid-run death.
    let text = std::fs::read_to_string(&jsonl).expect("fleet jsonl written");
    let snapshots = parse_jsonl(&text).expect("fleet jsonl parses");
    let nodes: HashSet<usize> = snapshots.iter().map(|s| s.node).collect();
    assert_eq!(nodes, HashSet::from([0, 1]));
    assert_eq!(text.matches("\"fleet_total\":1").count(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker whose restart budget runs out is reported dead with default
/// stats, and the rest of the fleet still completes.
#[test]
fn worker_that_keeps_dying_is_declared_dead() {
    let config = FleetConfig {
        instances: 2,
        max_restarts: 1,
        backoff: Duration::from_millis(10),
        telemetry: None,
        liveness_deadline: None,
    };
    let args = base_args(2_000);
    let command = |index| {
        let mut cmd = Command::new(WORKER);
        if index == 1 {
            // A command that dies instantly without ever speaking the
            // protocol.
            cmd.arg("--unknown-flag-kills-me");
        } else {
            cmd.args(&args);
        }
        cmd
    };
    let stats = run_fleet(&config, Transport::Processes(&command));

    assert_eq!(stats.health[0], InstanceHealth::Running);
    assert!(
        matches!(stats.health[1], InstanceHealth::Dead(_)),
        "unexpected health: {:?}",
        stats.health[1]
    );
    assert_eq!(stats.instances[0].execs, 2_000);
    assert_eq!(stats.instances[1].execs, 0, "dead worker has zero stats");
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bigmap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
