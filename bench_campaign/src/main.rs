//! `bench_campaign`: the repository's end-to-end benchmark.
//!
//! ```text
//! bench_campaign [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                [--quick] [--runs N] [--out FILE]
//! bench_campaign --compare A.json B.json
//! ```
//!
//! With one workload and one run, the run happens in this process and
//! its result is printed as `workload metric value unit` lines followed
//! by one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//! Otherwise this process is a parent that runs each (workload, run)
//! pair in a fresh child process of the same binary, so peak memory is
//! measured per run, and merges their results. Run `r` of `--runs N`
//! uses seed `--seed + r`. See `README.md` for the workloads and metrics.

mod compare;
mod fingerprint;
mod json;
mod measure;
mod replica;
mod run;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::{run_workload, RunOptions, RunResult};
use workloads::{Workload, WORKLOADS};

/// `--seconds` default: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Output directory for checkpoints, raw spans and child results,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Cli {
    workload: Option<&'static Workload>,
    options: RunOptions,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        options: RunOptions {
            seed: run::PINNED_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            out_dir: PathBuf::from(OUT_DIR),
        },
        runs: 1,
        out: None,
        compare: None,
        setup_only: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} expects {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(workloads::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.options.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.options.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.options.seconds > 0.0 && cli.options.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--runs" => {
                cli.runs = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--quick" => cli.options.quick = true,
            "--setup-only" => cli.setup_only = true,
            "--trace" => {
                cli.options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("bench_campaign: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare::compare(a, b, "BENCHMARK.json") {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(err) => {
                eprintln!("bench_campaign: {err}");
                ExitCode::from(2)
            }
        };
    }
    if cli.setup_only {
        let Some(workload) = cli.workload else {
            eprintln!("bench_campaign: --setup-only needs --workload");
            return ExitCode::from(2);
        };
        println!("{}", run::setup_here(workload));
        return ExitCode::SUCCESS;
    }
    match (cli.workload, cli.runs) {
        (Some(workload), 1) => {
            let result = run_workload(workload, &cli.options);
            for line in result.report_lines() {
                println!("{line}");
            }
            if let Some(out) = &cli.out {
                if let Err(err) = write_out(out, &[result.out_json()]) {
                    eprintln!("bench_campaign: {}: {err}", out.display());
                }
            }
            println!("{}", result.result_line());
            ExitCode::SUCCESS
        }
        _ => parent(&cli),
    }
}

fn write_out(path: &Path, runs: &[String]) -> std::io::Result<()> {
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n")))
}

/// Runs every requested (workload, run) pair in a child process and
/// merges the children's `--out` files.
fn parent(cli: &Cli) -> ExitCode {
    let workloads: Vec<&'static Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("bench_campaign: cannot locate own executable: {err}");
            return ExitCode::from(2);
        }
    };
    let out_dir = &cli.options.out_dir;
    let _ = std::fs::create_dir_all(out_dir);
    let mut entries = Vec::new();
    for workload in &workloads {
        let mut results = Vec::new();
        for r in 0..cli.runs {
            let seed = cli.options.seed + r as u64;
            let child_out = out_dir.join(format!(
                "child-{}-{}-{r}.json",
                std::process::id(),
                workload.name
            ));
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.options.seconds.to_string()])
                .args(["--trace", if cli.options.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&child_out)
                .stderr(Stdio::inherit());
            if cli.options.quick {
                command.arg("--quick");
            }
            if let Ok(output) = command.output() {
                let stdout = String::from_utf8_lossy(&output.stdout);
                let lines: Vec<&str> = stdout.lines().collect();
                for line in &lines[..lines.len().saturating_sub(1)] {
                    println!("{line}");
                }
            }
            let entry = std::fs::read_to_string(&child_out)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|doc| doc.get("runs")?.arr().first().cloned());
            let _ = std::fs::remove_file(&child_out);
            let entry = entry.unwrap_or_else(|| {
                println!("{} seed {seed}: the run produced no result", workload.name);
                let failed = RunResult {
                    workload: workload.name,
                    seed,
                    trace: cli.options.trace,
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                    notes: Vec::new(),
                    campaigns: Vec::new(),
                };
                Json::parse(&failed.out_json()).expect("out_json writes valid JSON")
            });
            results.push(entry);
        }
        print_summary(workload, &results);
        entries.extend(results);
    }
    if let Some(out) = &cli.out {
        let runs: Vec<String> = entries.iter().map(Json::to_string).collect();
        if let Err(err) = write_out(out, &runs) {
            eprintln!("bench_campaign: {}: {err}", out.display());
            return ExitCode::FAILURE;
        }
    }
    let all_correct = entries
        .iter()
        .all(|e| e.get("correct") == Some(&Json::Bool(true)));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Median and quartiles of each metric over a workload's runs.
fn print_summary(workload: &Workload, runs: &[Json]) {
    let count = |key| -> f64 { runs.iter().filter_map(|r| r.get(key)?.num()).sum() };
    println!(
        "== {} over {} run(s): fail_frac {} ({})",
        workload.name,
        runs.len(),
        count("failed") / count("attempted").max(1.0),
        workload.why
    );
    let Some(first) = runs.first().and_then(|r| r.get("metrics")?.obj()) else {
        return;
    };
    for (name, metric) in first {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.num())
            .collect();
        let unit = metric.get("unit").and_then(Json::str).unwrap_or("");
        if let Some((q1, med, q3)) = stats::quartiles(&values) {
            println!(
                "== {} {name} median {med} q1 {q1} q3 {q3} {unit} iqr/median {:.4}",
                workload.name,
                (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cli = parse_args(&args(
            "--workload zlib-havoc-ckpt --seed 7 --seconds 3 --trace 0",
        ))
        .unwrap();
        assert_eq!(cli.workload.unwrap().name, "zlib-havoc-ckpt");
        assert_eq!(cli.options.seed, 7);
        assert_eq!(cli.options.seconds, 3.0);
        assert!(!cli.options.trace);
        let cli = parse_args(&args("--trace 1 --quick")).unwrap();
        assert!(cli.options.trace && cli.options.quick);
        let cli = parse_args(&args("--trace --runs 3")).unwrap();
        assert!(cli.options.trace);
        assert_eq!(cli.runs, 3);
        for bad in [
            "--bogus",
            "--seed x",
            "--workload nope",
            "--runs 0",
            "--seconds -1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    /// Metric names and units declared in `BENCHMARK.json`, by section.
    fn declared(section: &str) -> BTreeSet<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let listed: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(listed, names, "BENCHMARK.json lists the workloads in order");
        doc.get(section)
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().str().unwrap().to_string(),
                    m.get("unit").unwrap().str().unwrap().to_string(),
                )
            })
            .collect()
    }

    /// The `--quick` smoke run, in process: every workload, untraced and
    /// traced, emits exactly the metrics `BENCHMARK.json` declares, with
    /// no failed campaign and a closed per-layer breakdown.
    #[test]
    fn quick_run_emits_every_declared_metric() {
        let out_dir =
            std::env::temp_dir().join(format!("bench-campaign-quick-{}", std::process::id()));
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let expected = declared(section);
            for workload in &WORKLOADS {
                let options = RunOptions {
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                };
                let result = run_workload(workload, &options);
                let emitted: BTreeSet<(String, String)> = result
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(emitted, expected, "{} trace={trace}", workload.name);
                assert_eq!(
                    result.fail_frac(),
                    0.0,
                    "{}: {:?}",
                    workload.name,
                    result.notes
                );
                let line = Json::parse(&result.result_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                if trace {
                    let closure = result
                        .metrics
                        .iter()
                        .find(|m| m.name == "trace.closure")
                        .unwrap()
                        .value;
                    assert!(closure >= 0.95, "{} closure {closure}", workload.name);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
