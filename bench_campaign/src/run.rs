//! One benchmark run: one workload, one seed, an ensemble of campaigns,
//! either untraced (end-to-end metrics) or traced (per-layer metrics).

use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::fingerprint::Fingerprint;
use crate::json::{number, quote};
use crate::measure::{median_setup, run_campaign, CampaignRun};
use crate::replica::{run_traced, Layer, Trace, LAYERS};
use crate::stats::median;
use crate::workloads::{campaign_seed, Workload};

/// Target scale of every run (the drift test uses smaller targets).
const SCALE: f64 = 1.0;

/// The seed whose first campaign's fingerprint is pinned per workload.
pub const PINNED_SEED: u64 = 1;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The run's seed; campaign seeds derive from it.
    pub seed: u64,
    /// Sizes the ensemble (see [`Workload::ensemble_size`]).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny budgets, one campaign.
    pub quick: bool,
    /// Where checkpoints and raw spans go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// The run's seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Campaigns attempted.
    pub attempted: usize,
    /// Campaigns whose output check failed or that panicked.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra report lines: counts, fingerprints, problems.
    pub notes: Vec<String>,
    /// One JSON object per campaign, for `--out`.
    pub campaigns: Vec<String>,
}

impl RunResult {
    /// Share of attempted campaigns that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `workload metric value unit` lines, then the notes.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{} {} {} {}", self.workload, m.name, m.value, m.unit))
            .collect();
        lines.push(format!(
            "{} fail_frac {} ratio",
            self.workload,
            self.fail_frac()
        ));
        lines.extend(self.notes.iter().map(|n| format!("{} {n}", self.workload)));
        lines
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line the benchmark prints last.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The run as an entry of an `--out` file's `runs` array.
    pub fn out_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fail_frac\": {}, \"metrics\": {}, \"campaigns\": [{}]}}",
            quote(self.workload),
            self.seed,
            self.trace,
            self.failed == 0,
            self.attempted,
            self.failed,
            number(self.fail_frac()),
            self.metrics_json(),
            self.campaigns.join(", ")
        )
    }
}

/// Runs `workload` as `options` say.
pub fn run_workload(workload: &'static Workload, options: &RunOptions) -> RunResult {
    let mut result = RunResult {
        workload: workload.name,
        seed: options.seed,
        trace: options.trace,
        // A traced run fuzzes each campaign twice (untraced, then traced),
        // so half the ensemble fills its time.
        attempted: workload.ensemble_size(
            if options.trace {
                options.seconds / 2.0
            } else {
                options.seconds
            },
            options.quick,
        ),
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        campaigns: Vec::new(),
    };
    let _ = std::fs::create_dir_all(&options.out_dir);
    if options.trace {
        traced(workload, options, &mut result);
    } else {
        untraced(workload, options, &mut result);
    }
    result
}

/// Runs `f`, turning a panic into a problem.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked: {message}")
    })
}

/// Checks `fingerprint` against the pin when this is the pinned campaign.
fn check_pin(
    workload: &Workload,
    options: &RunOptions,
    index: usize,
    fingerprint: &Fingerprint,
    problems: &mut Vec<String>,
) {
    if options.seed == PINNED_SEED && index == 0 && !options.quick && *fingerprint != workload.pin {
        problems.push(format!(
            "fingerprint {fingerprint} differs from the pinned {}",
            workload.pin
        ));
    }
}

fn campaign_json(campaign_seed: u64, run: Option<&CampaignRun>, problems: &[String]) -> String {
    let mut out = format!("{{\"campaign_seed\": {campaign_seed}");
    if let Some(run) = run {
        let _ = write!(
            out,
            ", \"loop_s\": {}, \"execs_per_s\": {}, \"tt_cov90_s\": {}, \"checkpoint_writes\": {}, \"fingerprint\": {}",
            number(run.loop_s),
            number(run.execs_per_s),
            number(run.tt_cov90_s),
            run.checkpoint_writes,
            run.fingerprint.to_json()
        );
    }
    let problems: Vec<String> = problems.iter().map(|p| quote(p)).collect();
    let _ = write!(out, ", \"problems\": [{}]}}", problems.join(", "));
    out
}

fn record_problems(result: &mut RunResult, campaign_seed: u64, problems: &[String]) {
    if !problems.is_empty() {
        result.failed += 1;
        for problem in problems {
            result
                .notes
                .push(format!("problem campaign={campaign_seed:016x} {problem}"));
        }
    }
}

fn untraced(workload: &'static Workload, options: &RunOptions, result: &mut RunResult) {
    let budget = workload.budget(options.quick);
    let mut runs = Vec::new();
    for index in 0..result.attempted {
        let seed = campaign_seed(options.seed, index);
        // One reference prefix per run: the first batch boundary past
        // 1/16 of the budget can lie far into a short campaign (641
        // execs of libpng's 1536), and the reference engine is slower.
        let check_prefix = index == 0;
        let (run, mut problems) = match guarded(|| {
            run_campaign(
                workload,
                seed,
                budget,
                SCALE,
                &options.out_dir,
                check_prefix,
            )
        }) {
            Ok(run) => {
                let problems = run.problems.clone();
                (Some(run), problems)
            }
            Err(panic) => (None, vec![panic]),
        };
        if let Some(run) = &run {
            check_pin(workload, options, index, &run.fingerprint, &mut problems);
            if index == 0 {
                result
                    .notes
                    .push(format!("fingerprint[0] {}", run.fingerprint));
            }
        }
        record_problems(result, seed, &problems);
        result
            .campaigns
            .push(campaign_json(seed, run.as_ref(), &problems));
        runs.extend(run);
    }
    let setup_s = setup_in_child(workload).unwrap_or_else(|problem| {
        result.failed += 1;
        result.notes.push(format!("problem {problem}"));
        0.0
    });
    let med =
        |f: fn(&CampaignRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    result.metrics = vec![
        metric("execs_per_s", med(|r| r.execs_per_s), "1/s"),
        metric("tt_cov90_s", med(|r| r.tt_cov90_s), "s"),
        metric("setup_s", setup_s, "s"),
        metric("rss_peak_mib", peak_rss_mib(), "MiB"),
    ];
    result.notes.push(format!(
        "campaigns {} execs_each {budget} checkpoint_writes {}",
        runs.len(),
        runs.iter().map(|r| r.checkpoint_writes).sum::<u64>()
    ));
}

fn traced(workload: &'static Workload, options: &RunOptions, result: &mut RunResult) {
    let budget = workload.budget(options.quick);
    let clock_read_ns = clock_read_ns();
    let mut trace = Trace::default();
    let mut untraced_loop_s = 0.0;
    for index in 0..result.attempted {
        let seed = campaign_seed(options.seed, index);
        let outcome = guarded(|| {
            let run = run_campaign(workload, seed, budget, SCALE, &options.out_dir, false);
            let traced = run_traced(workload, seed, budget, SCALE, &options.out_dir);
            (run, traced)
        });
        let (run, problems) = match outcome {
            Ok((run, traced)) => {
                let mut problems = run.problems.clone();
                problems.extend(traced.problems.iter().cloned());
                if traced.fingerprint != run.fingerprint {
                    problems.push(format!(
                        "replica fingerprint {} differs from the campaign's {}",
                        traced.fingerprint, run.fingerprint
                    ));
                }
                check_pin(workload, options, index, &run.fingerprint, &mut problems);
                untraced_loop_s += run.loop_s;
                trace.merge(&traced.trace);
                (Some(run), problems)
            }
            Err(panic) => (None, vec![panic]),
        };
        record_problems(result, seed, &problems);
        result
            .campaigns
            .push(campaign_json(seed, run.as_ref(), &problems));
    }
    result.metrics = layer_metrics(&trace, untraced_loop_s, clock_read_ns);

    for layer in LAYERS {
        let h = trace.layer(layer);
        result
            .notes
            .push(format!("{}.n {} count", layer.label(), h.count()));
    }
    result
        .notes
        .push(format!("testcase.n {} count", trace.test_cases.count()));
    let checkpoints = trace.layer(Layer::Checkpoint);
    if checkpoints.count() > 0 {
        result.notes.push(format!(
            "checkpoint.p50_ms {} ms",
            checkpoints.quantile(0.5) / 1e6
        ));
        result.notes.push(format!(
            "checkpoint.max_ms {} ms",
            checkpoints.max() as f64 / 1e6
        ));
    }
    let spans = options.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        workload.name, options.seed
    ));
    match write_raw_spans(&spans, &trace) {
        Ok(()) => result.notes.push(format!("raw_spans {}", spans.display())),
        Err(err) => result.notes.push(format!("raw_spans not written: {err}")),
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(trace: &Trace, untraced_loop_s: f64, clock_read_ns: f64) -> Vec<Metric> {
    let wall = trace.loop_ns.max(1) as f64;
    let execs = trace.execs.max(1) as f64;
    let share = |layer: Layer| trace.layer(layer).sum() as f64 / wall;
    let p50 = |layer: Layer| trace.layer(layer).quantile(0.5);
    let tail = |layer: Layer| trace.layer(layer).tail();
    let count = |layer: Layer| trace.layer(layer).count() as f64;
    let m = metric;
    let map_share = share(Layer::Reset)
        + share(Layer::ClassifyCompare)
        + share(Layer::Hash)
        + share(Layer::Scan);
    vec![
        m("executor.share", share(Layer::Executor), "ratio"),
        m("executor.p50_ns", p50(Layer::Executor), "ns"),
        m("executor.p99_ns", tail(Layer::Executor), "ns"),
        m(
            "executor.steps_per_exec",
            trace.steps as f64 / execs,
            "count",
        ),
        m(
            "executor.map_updates_per_exec",
            trace.map_updates as f64 / execs,
            "count",
        ),
        m("snapshot.prime.share", share(Layer::Prime), "ratio"),
        m(
            "snapshot.hit_rate",
            (trace.snapshot_replays + trace.snapshot_resumes) as f64 / execs,
            "ratio",
        ),
        m(
            "snapshot.full_replay_rate",
            trace.snapshot_replays as f64 / execs,
            "ratio",
        ),
        m(
            "snapshot.miss_rate",
            trace.snapshot_misses as f64 / execs,
            "ratio",
        ),
        m("map.share", map_share, "ratio"),
        m("map.reset.share", share(Layer::Reset), "ratio"),
        m("map.reset.p50_ns", p50(Layer::Reset), "ns"),
        m(
            "map.active_bytes_mean",
            trace.active_bytes as f64 / execs,
            "bytes",
        ),
        m(
            "map.classify_compare.share",
            share(Layer::ClassifyCompare),
            "ratio",
        ),
        m(
            "map.classify_compare.p50_ns",
            p50(Layer::ClassifyCompare),
            "ns",
        ),
        m(
            "map.classify_compare.p99_ns",
            tail(Layer::ClassifyCompare),
            "ns",
        ),
        m("map.sparse_share", trace.sparse_ops as f64 / execs, "ratio"),
        m(
            "map.journal_overflow_rate",
            trace.journal_overflows as f64 / execs,
            "ratio",
        ),
        m("map.hash.calls", count(Layer::Hash), "count"),
        m("map.hash.share", share(Layer::Hash), "ratio"),
        m("map.scan.share", share(Layer::Scan), "ratio"),
        m("mutate.havoc.share", share(Layer::MutateHavoc), "ratio"),
        m("mutate.havoc.p50_ns", p50(Layer::MutateHavoc), "ns"),
        m("mutate.det.share", share(Layer::MutateDet), "ratio"),
        m(
            "mutate.child_len_mean",
            trace.child_bytes as f64 / trace.children.max(1) as f64,
            "bytes",
        ),
        m("queue.schedule.share", share(Layer::Schedule), "ratio"),
        m("queue.admit.share", share(Layer::Admit), "ratio"),
        m(
            "queue.admit_ratio",
            trace.admissions as f64 / execs,
            "ratio",
        ),
        m(
            "queue.len_final",
            median(&trace.queue_lens).unwrap_or(0.0),
            "count",
        ),
        m("crashwalk.calls", count(Layer::CrashWalk), "count"),
        m("crashwalk.unique", trace.unique_crashes as f64, "count"),
        m("checkpoint.writes", count(Layer::Checkpoint), "count"),
        m("checkpoint.share", share(Layer::Checkpoint), "ratio"),
        m(
            "testcase.p50_us",
            trace.test_cases.quantile(0.5) / 1e3,
            "us",
        ),
        m("testcase.p99_us", trace.test_cases.tail() / 1e3, "us"),
        m(
            "trace.closure",
            LAYERS.iter().map(|&l| share(l)).sum(),
            "ratio",
        ),
        m(
            "trace.overhead",
            wall / 1e9 / untraced_loop_s.max(f64::MIN_POSITIVE) - 1.0,
            "ratio",
        ),
        m("trace.clock_read_ns", clock_read_ns, "ns"),
    ]
}

/// What a `--setup-only` child prints: `setup_s` timed in this process.
pub fn setup_here(workload: &Workload) -> f64 {
    median_setup(workload, SCALE)
}

/// `setup_s`, timed in a fresh `--setup-only` child process of this
/// binary so that neither the heap the ensemble leaves behind nor the
/// memory the set-ups keep touches the other measurement. (Under `cargo
/// test` the executable is the test harness, so the set-ups run here.)
fn setup_in_child(workload: &Workload) -> Result<f64, String> {
    if cfg!(test) {
        return Ok(setup_here(workload));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name, "--setup-only"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child did not run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("set-up child printed {:?}", stdout.trim()))
}

/// Median cost of one `Instant::now()`, over five batches of reads.
fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(start).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn write_raw_spans(path: &Path, trace: &Trace) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (campaign_seed, span) in &trace.raw {
        writeln!(
            out,
            "{{\"campaign_seed\": {campaign_seed}, \"test_case\": {}, \"layer\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            span.test_case,
            quote(span.layer.label()),
            span.start_ns,
            span.dur_ns
        )?;
    }
    out.flush()
}
