//! `itr-benchmark`: run a workload, run all of them, or compare two sets
//! of runs. `itr-benchmark help` prints the usage.

use itr_benchmark::compare::{compare, exact_mismatches, parse_records, render, Verdict};
use itr_benchmark::run::{run, RunConfig, DEFAULT_SECONDS, RECORD_SCHEMA};
use itr_benchmark::workload::{Scale, Workload, DEFAULT_SEED};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  itr-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1|FILE]
                    [--scale full|tiny] [--out RUNS.jsonl]
  itr-benchmark run --all [--runs R] [--seed S] [--seconds N] [--trace 0|1|DIR]
                    [--scale full|tiny] [--out RUNS.jsonl]
  itr-benchmark compare A.jsonl B.jsonl

workloads: sim-throughput campaign-late campaign-early fuzz
--trace 1 writes the Chrome trace under benchmark/traces/; a path names the
file (or, with --all, the directory). --all runs each workload R times as a
child process, seeds S..S+R-1.";

struct Args {
    workload: Option<Workload>,
    all: bool,
    runs: u64,
    seed: u64,
    seconds: f64,
    trace: Option<String>,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        runs: 1,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        scale: Scale::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            a.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--runs" => a.runs = number(value)?.max(1),
            "--seed" => a.seed = number(value)?,
            "--seconds" => a.seconds = number(value)? as f64,
            "--trace" => a.trace = (value != "0").then(|| value.clone()),
            "--scale" => {
                a.scale =
                    Scale::from_label(value).ok_or_else(|| format!("unknown scale {value}"))?;
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload W and --all".to_string());
    }
    Ok(a)
}

fn append(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Where `--trace 1` writes a run's trace.
fn default_trace(dir: &Path, w: Workload, seed: u64) -> PathBuf {
    dir.join(format!("{}-seed{seed}.json", w.name()))
}

fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("traces")
}

fn run_one(a: &Args, w: Workload) -> Result<ExitCode, String> {
    let trace_file = a.trace.as_deref().map(|t| match t {
        "1" => default_trace(&trace_dir(), w, a.seed),
        path => PathBuf::from(path),
    });
    let cfg = RunConfig {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace.is_some(),
        trace_file,
        scale: a.scale,
    };
    let record = run(&cfg)?;
    print!("{}", record.summary());
    if let Some(path) = &cfg.trace_file {
        println!("  trace written to {}", path.display());
    }
    let line = record.record_json();
    println!("{line}");
    if let Some(out) = &a.out {
        append(out, &line)?;
    }
    println!("{}", record.result_json());
    Ok(if record.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut failures = 0;
    for r in 0..a.runs {
        let seed = a.seed + r;
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name(), "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &a.seconds.to_string(), "--scale", a.scale.label()]);
            if let Some(t) = &a.trace {
                let dir = if t == "1" { trace_dir() } else { PathBuf::from(t) };
                cmd.arg("--trace").arg(default_trace(&dir, w, seed));
            }
            let child = cmd.output().map_err(|e| format!("{}: {e}", exe.display()))?;
            std::io::stderr().write_all(&child.stderr).map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            // The last line is the one-line result; its content is in the
            // record line before it.
            lines.pop();
            for line in &lines {
                if line.starts_with(&format!("{{\"schema\":\"{RECORD_SCHEMA}\"")) {
                    if let Some(out) = &a.out {
                        append(out, line)?;
                    }
                } else {
                    println!("{line}");
                }
            }
            if !child.status.success() {
                failures += 1;
                println!("  {} seed {seed} FAILED ({})", w.name(), child.status);
            }
        }
    }
    println!("{} runs, {failures} failed", a.runs * Workload::ALL.len() as u64);
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two record files".to_string());
    };
    let load = |p: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse_records(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let rows = compare(&a, &b);
    let mismatches = exact_mismatches(&a, &b);
    print!("{}", render(&rows, &mismatches));
    let bad = rows.iter().any(|r| r.verdict == Verdict::Worse) || !mismatches.is_empty();
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    // One line per panic: the fuzz workload catches the simulator panics
    // its fault-model oracle provokes, and a backtrace for each would bury
    // the results.
    std::panic::set_hook(Box::new(|info| eprintln!("itr-benchmark: {info}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload {
            Some(w) => run_one(&a, w),
            None => run_all(&a),
        }),
        Some("compare") => run_compare(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
