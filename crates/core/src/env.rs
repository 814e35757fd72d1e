//! The `BIGMAP_*` environment knobs, in one place.
//!
//! Every runtime tunable the workspace reads from the environment is
//! declared here as a [`Knob`]: its name, accepted values, default and
//! one-line description. The typed accessors ([`kernel_request`],
//! [`sparse_request`], [`trace_request`], [`interp_request`],
//! [`nt_threshold_request`], [`huge_request`], [`sync_batch`],
//! [`fabric_worker`], [`ckpt_keep`], [`heartbeat_ms`],
//! [`liveness_deadline_ms`]) parse and validate in one pass and are the only
//! code in the workspace that calls `std::env::var` for a `BIGMAP_*`
//! name, so the registry cannot drift from the behaviour.
//!
//! Two consequences of centralizing:
//!
//! * The README's knob table is **generated** from the registry
//!   ([`markdown_table`]) and a facade test asserts the README contains
//!   it verbatim — documentation cannot go stale.
//! * The first knob read scans the process environment for `BIGMAP_*`
//!   names the registry does not know and warns once per process
//!   ([`warn_unrecognized_once`]) — a typo like `BIGMAP_KERNAL=avx2`
//!   surfaces immediately instead of silently doing nothing.
//!
//! # Examples
//!
//! ```rust
//! use bigmap_core::env;
//!
//! // The registry knows every knob and renders the README table.
//! assert!(env::KNOBS.iter().any(|k| k.name == "BIGMAP_KERNEL"));
//! let table = env::markdown_table();
//! assert!(table.contains("`BIGMAP_SPARSE`"));
//! ```

use std::sync::OnceLock;

use crate::alloc::HugePolicy;
use crate::interp::InterpMode;
use crate::kernels::KernelKind;
use crate::sparse::SparseMode;
use crate::trace::TraceMode;

/// One documented environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable name.
    pub name: &'static str,
    /// Accepted values, human-readable.
    pub values: &'static str,
    /// The effective default when unset.
    pub default: &'static str,
    /// One-line description (README table cell).
    pub description: &'static str,
}

/// Every `BIGMAP_*` knob the workspace reads, in documentation order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "BIGMAP_KERNEL",
        values: "`scalar` \\| `sse2` \\| `avx2`",
        default: "widest CPU-supported",
        description: "Pins the map-op kernel table (classify / compare / fused) for the whole \
                      process; unsupported values warn and fall back to detection.",
    },
    Knob {
        name: "BIGMAP_SPARSE",
        values: "`on` \\| `off` \\| `auto`",
        default: "`auto`",
        description: "Sparse touched-slot pipeline: `on` forces the journal walk whenever the \
                      journal is complete, `off` forces the dense prefix kernels, `auto` picks \
                      per exec by the measured run/touched crossover.",
    },
    Knob {
        name: "BIGMAP_TRACE_MODE",
        values: "`always` \\| `selective` \\| `auto`",
        default: "`always`",
        description: "Two-speed execution: `always` traces every exec into the coverage map, \
                      `selective` runs untraced fast execs and re-traces only novelty-oracle \
                      flagged ones, `auto` adds a fallback to direct tracing in re-trace-heavy \
                      windows. All modes produce bit-identical campaign trajectories.",
    },
    Knob {
        name: "BIGMAP_INTERP",
        values: "`tree` \\| `auto`",
        default: "`auto`",
        description: "Target execution engine: `tree` walks the CFG IR, `auto` runs the \
                      flattened threaded bytecode with snapshot resets that resume mutated \
                      children from the scheduled parent's memoized trace prefix. Both modes \
                      produce bit-identical campaign trajectories.",
    },
    Knob {
        name: "BIGMAP_NT_THRESHOLD",
        values: "bytes (integer)",
        default: "`262144`",
        description: "Streaming-store cutoff for zeroing: buffers at or below this use a plain \
                      cached `fill(0)`, larger ones use non-temporal stores.",
    },
    Knob {
        name: "BIGMAP_HUGE",
        values: "`explicit` \\| `thp` \\| `off`",
        default: "`thp`",
        description: "Map-buffer page backend: `explicit` reserves hugetlbfs pages via \
                      `mmap(MAP_HUGETLB)` (1 GiB pages where the size allows, else 2 MiB) and \
                      falls back to `thp` with a telemetry-visible record when the pool is \
                      empty; `thp` advises transparent huge pages; `off` opts out of THP — the \
                      benchmark control arm.",
    },
    Knob {
        name: "BIGMAP_SYNC_BATCH",
        values: "entries (integer ≥ 1)",
        default: "`64`",
        description: "Max corpus entries coalesced into one wire frame by the process-fleet \
                      sync client; publishes larger than this are split across frames.",
    },
    Knob {
        name: "BIGMAP_FABRIC_WORKER",
        values: "`<index>/<count>`",
        default: "unset",
        description: "Internal handshake set by the fleet parent on its child processes; a \
                      host binary that sees it assumes the worker role. Not for manual use.",
    },
    Knob {
        name: "BIGMAP_CKPT_KEEP",
        values: "generations (integer ≥ 1)",
        default: "`3`",
        description: "Checkpoint generations retained per instance (`checkpoint`, \
                      `checkpoint.1`, …); restore falls back to the newest generation whose \
                      section checksums verify.",
    },
    Knob {
        name: "BIGMAP_HEARTBEAT_MS",
        values: "milliseconds (integer, `0` disables)",
        default: "`500`",
        description: "Cadence at which fleet workers emit `HEARTBEAT` frames carrying their \
                      exec counter, so the parent can tell a hung worker from a slow one.",
    },
    Knob {
        name: "BIGMAP_LIVENESS_DEADLINE_MS",
        values: "milliseconds (integer, `0` disables)",
        default: "`30000`",
        description: "Max time the fleet parent tolerates a worker making no progress (no \
                      frames, or heartbeats with a frozen exec counter) before killing and \
                      restarting it through the supervisor path.",
    },
];

/// Looks a knob up by name.
pub fn knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Renders the registry as the README's GitHub-flavored markdown table.
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Values | Default | Effect |\n|---|---|---|---|\n");
    for knob in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            knob.name, knob.values, knob.default, knob.description
        ));
    }
    out
}

/// Scans the environment for `BIGMAP_*` names the registry does not
/// declare and warns on stderr — once per process, on the first knob
/// read. Returns the unrecognized names (empty almost always).
pub fn warn_unrecognized_once() -> &'static [String] {
    static UNRECOGNIZED: OnceLock<Vec<String>> = OnceLock::new();
    UNRECOGNIZED.get_or_init(|| {
        let mut unknown: Vec<String> = std::env::vars_os()
            .filter_map(|(name, _)| name.into_string().ok())
            .filter(|name| name.starts_with("BIGMAP_") && knob(name).is_none())
            .collect();
        unknown.sort();
        for name in &unknown {
            eprintln!(
                "bigmap: unrecognized environment knob {name} (known: {}); ignoring it",
                KNOBS.iter().map(|k| k.name).collect::<Vec<_>>().join(", ")
            );
        }
        unknown
    })
}

/// Reads a declared knob's raw value, triggering the one-time
/// unrecognized-name scan.
///
/// # Panics
///
/// Panics if `name` is not in [`KNOBS`] — reading an undeclared knob is
/// a bug in this crate, not a user error.
pub fn raw(name: &str) -> Option<String> {
    assert!(knob(name).is_some(), "undeclared BIGMAP knob {name}");
    warn_unrecognized_once();
    std::env::var(name).ok()
}

/// `BIGMAP_KERNEL`: the requested kernel kind, if set and well-formed.
///
/// Unknown values warn on stderr and read as `None` (auto-detection).
/// CPU-support validation stays with the kernel dispatcher, which knows
/// what the host supports.
pub fn kernel_request() -> Option<KernelKind> {
    parse_kernel(raw("BIGMAP_KERNEL").as_deref())
}

/// The pure parse policy behind [`kernel_request`] (`None` = unset), so
/// tests can cover it without touching the process environment.
pub fn parse_kernel(raw: Option<&str>) -> Option<KernelKind> {
    let raw = raw?;
    match KernelKind::from_label(raw.trim()) {
        Some(kind) => Some(kind),
        None => {
            eprintln!(
                "BIGMAP_KERNEL={raw}: unknown kernel (expected scalar|sse2|avx2), \
                 falling back to auto-detection"
            );
            None
        }
    }
}

/// `BIGMAP_SPARSE`: the requested sparse dispatch mode.
///
/// Unknown values warn on stderr and read as [`SparseMode::Auto`]; the
/// parse policy itself lives in [`crate::sparse::select_mode`].
pub fn sparse_request() -> SparseMode {
    crate::sparse::select_mode(raw("BIGMAP_SPARSE").as_deref())
}

/// `BIGMAP_TRACE_MODE`: the requested two-speed execution mode.
///
/// Unknown values warn on stderr and read as [`TraceMode::Always`]; the
/// parse policy itself lives in [`crate::trace::select_trace_mode`].
pub fn trace_request() -> TraceMode {
    crate::trace::select_trace_mode(raw("BIGMAP_TRACE_MODE").as_deref())
}

/// `BIGMAP_INTERP`: the requested target execution engine.
///
/// Unknown values warn on stderr and read as [`InterpMode::Auto`]; the
/// parse policy itself lives in [`crate::interp::select_interp_mode`].
pub fn interp_request() -> InterpMode {
    crate::interp::select_interp_mode(raw("BIGMAP_INTERP").as_deref())
}

/// `BIGMAP_NT_THRESHOLD`: the requested non-temporal-store cutoff in
/// bytes, if set and parseable. Malformed values warn and read as `None`
/// (keep the measured default).
pub fn nt_threshold_request() -> Option<usize> {
    let raw = raw("BIGMAP_NT_THRESHOLD")?;
    match raw.trim().parse::<usize>() {
        Ok(bytes) => Some(bytes),
        Err(_) => {
            eprintln!("BIGMAP_NT_THRESHOLD={raw}: not a byte count, using default");
            None
        }
    }
}

/// `BIGMAP_HUGE`: the requested map-buffer page backend.
///
/// Unknown values warn on stderr and read as [`HugePolicy::Thp`]; the
/// parse policy itself lives in [`crate::alloc::parse_huge`].
pub fn huge_request() -> HugePolicy {
    crate::alloc::parse_huge(raw("BIGMAP_HUGE").as_deref())
}

/// Default for [`sync_batch`].
pub const SYNC_BATCH_DEFAULT: usize = 64;

/// `BIGMAP_SYNC_BATCH`: max corpus entries per sync wire frame.
/// Malformed or zero values warn and read as the default.
pub fn sync_batch() -> usize {
    match raw("BIGMAP_SYNC_BATCH") {
        None => SYNC_BATCH_DEFAULT,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "BIGMAP_SYNC_BATCH={raw}: expected an integer ≥ 1, \
                     using {SYNC_BATCH_DEFAULT}"
                );
                SYNC_BATCH_DEFAULT
            }
        },
    }
}

/// `BIGMAP_FABRIC_WORKER`: the `(index, count)` worker handshake, if this
/// process was spawned as a fleet worker. Malformed values (wrong shape,
/// `index >= count`, zero count) warn and read as `None` — the process
/// then runs its normal (parent) role rather than a half-configured
/// worker.
pub fn fabric_worker() -> Option<(usize, usize)> {
    let raw = raw("BIGMAP_FABRIC_WORKER")?;
    let parsed = raw.trim().split_once('/').and_then(|(index, count)| {
        let index = index.trim().parse::<usize>().ok()?;
        let count = count.trim().parse::<usize>().ok()?;
        (index < count).then_some((index, count))
    });
    if parsed.is_none() {
        eprintln!(
            "BIGMAP_FABRIC_WORKER={raw}: expected <index>/<count> with index < count; \
             ignoring (running as a normal process)"
        );
    }
    parsed
}

/// Default for [`ckpt_keep`].
pub const CKPT_KEEP_DEFAULT: usize = 3;

/// `BIGMAP_CKPT_KEEP`: how many checkpoint generations to retain.
/// Malformed or zero values warn and read as the default.
pub fn ckpt_keep() -> usize {
    match raw("BIGMAP_CKPT_KEEP") {
        None => CKPT_KEEP_DEFAULT,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "BIGMAP_CKPT_KEEP={raw}: expected an integer ≥ 1, \
                     using {CKPT_KEEP_DEFAULT}"
                );
                CKPT_KEEP_DEFAULT
            }
        },
    }
}

/// Default for [`heartbeat_ms`].
pub const HEARTBEAT_MS_DEFAULT: u64 = 500;

/// `BIGMAP_HEARTBEAT_MS`: worker heartbeat cadence in milliseconds;
/// `0` disables the heartbeat thread. Malformed values warn and read as
/// the default.
pub fn heartbeat_ms() -> u64 {
    millis_knob("BIGMAP_HEARTBEAT_MS", HEARTBEAT_MS_DEFAULT)
}

/// Default for [`liveness_deadline_ms`].
pub const LIVENESS_DEADLINE_MS_DEFAULT: u64 = 30_000;

/// `BIGMAP_LIVENESS_DEADLINE_MS`: fleet-parent no-progress deadline in
/// milliseconds; `0` disables liveness enforcement. Malformed values
/// warn and read as the default.
pub fn liveness_deadline_ms() -> u64 {
    millis_knob("BIGMAP_LIVENESS_DEADLINE_MS", LIVENESS_DEADLINE_MS_DEFAULT)
}

fn millis_knob(name: &str, default: u64) -> u64 {
    match raw(name) {
        None => default,
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("{name}={raw}: expected milliseconds (integer), using {default}");
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate knob names");
        assert!(names.iter().all(|n| n.starts_with("BIGMAP_")));
    }

    #[test]
    fn lookup_finds_declared_knobs_only() {
        assert!(knob("BIGMAP_KERNEL").is_some());
        assert!(knob("BIGMAP_SPARSE").is_some());
        assert!(knob("BIGMAP_KERNAL").is_none());
    }

    #[test]
    fn markdown_table_lists_every_knob() {
        let table = markdown_table();
        for knob in KNOBS {
            assert!(
                table.contains(&format!("`{}`", knob.name)),
                "{} missing from the table",
                knob.name
            );
        }
        // Header plus one row per knob.
        assert_eq!(table.lines().count(), 2 + KNOBS.len());
    }

    #[test]
    #[should_panic(expected = "undeclared BIGMAP knob")]
    fn raw_rejects_undeclared_names() {
        let _ = raw("BIGMAP_NOT_A_KNOB");
    }

    // The typed accessors read the live process environment; tests cover
    // the unset path only (setting env vars in a threaded test binary is
    // racy). The parse policies are covered through their pure `select`
    // counterparts in `kernels`/`sparse` and the fabric handshake tests.
    #[test]
    fn unset_knobs_read_as_defaults() {
        // The test environment does not set these (CI pins happen in
        // dedicated jobs that only run the equivalence suites).
        if std::env::var_os("BIGMAP_SYNC_BATCH").is_none() {
            assert_eq!(sync_batch(), SYNC_BATCH_DEFAULT);
        }
        if std::env::var_os("BIGMAP_FABRIC_WORKER").is_none() {
            assert_eq!(fabric_worker(), None);
        }
        if std::env::var_os("BIGMAP_TRACE_MODE").is_none() {
            assert_eq!(trace_request(), TraceMode::Always);
        }
        if std::env::var_os("BIGMAP_INTERP").is_none() {
            assert_eq!(interp_request(), InterpMode::Auto);
        }
        if std::env::var_os("BIGMAP_HUGE").is_none() {
            assert_eq!(huge_request(), HugePolicy::Thp);
        }
        if std::env::var_os("BIGMAP_CKPT_KEEP").is_none() {
            assert_eq!(ckpt_keep(), CKPT_KEEP_DEFAULT);
        }
        if std::env::var_os("BIGMAP_HEARTBEAT_MS").is_none() {
            assert_eq!(heartbeat_ms(), HEARTBEAT_MS_DEFAULT);
        }
        if std::env::var_os("BIGMAP_LIVENESS_DEADLINE_MS").is_none() {
            assert_eq!(liveness_deadline_ms(), LIVENESS_DEADLINE_MS_DEFAULT);
        }
    }

    #[test]
    fn unrecognized_scan_is_stable() {
        // Whatever it returns, it returns the same slice forever after.
        let first = warn_unrecognized_once();
        let second = warn_unrecognized_once();
        assert_eq!(first.as_ptr(), second.as_ptr());
    }
}
