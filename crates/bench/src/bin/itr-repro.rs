//! `itr-repro` — the paper's entire evaluation as one resumable,
//! sharded harness run.
//!
//! The only entry point to the experiments: every table and figure
//! registers as a job in the `itr-harness` DAG, and `--only JOB[,JOB]`
//! produces any subset of them (plus their dependencies). Fault
//! campaigns and workload sweeps shard across a worker pool, and
//! each completed shard is journaled to `results/journal.jsonl` so an
//! interrupted run picks up with `--resume` and zero recomputation.
//! Artifacts are byte-identical across `--jobs` and across resumes.
//!
//! ```text
//! itr-repro [--mode quick|full] [--jobs N] [--resume] [--only JOB[,JOB]] [--out DIR]
//!           [--faults N] [--window N] [--instrs N] [--program-instrs N]
//!           [--seed N] [--fuzz-budget N] [--from-programs] [--grace-secs N]
//!           [--no-progress]
//! ```
//!
//! Exit status: 0 on a clean run, 1 on a configuration error (bad flag,
//! corrupt journal, fingerprint mismatch), 2 when the run completed but
//! one or more shards were quarantined (artifacts may be partial).

use itr_bench::experiments::{register_all, Scale};
use itr_harness::{
    collect_artifacts, fingerprint, write_manifest, Registry, RunOptions, ShardCounts,
};
use std::io::IsTerminal;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    scale: Scale,
    mode: String,
    out: PathBuf,
    jobs: usize,
    resume: bool,
    progress: bool,
    grace: Duration,
    only: Option<Vec<String>>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut mode = "quick".to_string();
    let mut out = PathBuf::from("results");
    let mut jobs = 0usize;
    let mut resume = false;
    let mut progress = std::io::stderr().is_terminal();
    let mut grace = Duration::from_secs(15);
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut from_programs = false;
    let mut only: Option<Vec<String>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--mode" => mode = value("--mode")?,
            "--out" => out = PathBuf::from(value("--out")?),
            "--jobs" => {
                jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
            }
            "--resume" => resume = true,
            "--only" => {
                only = Some(value("--only")?.split(',').map(str::to_string).collect());
            }
            "--from-programs" => from_programs = true,
            "--no-progress" => progress = false,
            "--progress" => progress = true,
            "--grace-secs" => {
                grace = Duration::from_secs(
                    value("--grace-secs")?.parse().map_err(|e| format!("--grace-secs: {e}"))?,
                );
            }
            "--faults" | "--window" | "--instrs" | "--program-instrs" | "--seed"
            | "--fuzz-budget" => {
                let v = value(&arg)?;
                overrides.push((arg, v));
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }

    let mut scale = match mode.as_str() {
        "quick" => Scale::quick(),
        "full" => Scale::full(),
        other => return Err(format!("--mode must be quick or full, got `{other}`")),
    };
    scale.from_programs = from_programs;
    for (flag, v) in overrides {
        let parsed: u64 = v.parse().map_err(|e| format!("{flag}: {e}"))?;
        match flag.as_str() {
            "--faults" => scale.faults = parsed as u32,
            "--window" => scale.window_cycles = parsed,
            "--instrs" => scale.instrs = parsed,
            "--program-instrs" => scale.program_instrs = parsed,
            "--seed" => scale.seed = parsed,
            "--fuzz-budget" => scale.fuzz_iters = parsed,
            _ => unreachable!(),
        }
    }
    Ok(Cli { scale, mode, out, jobs, resume, progress, grace, only })
}

const HELP: &str = "\
itr-repro — reproduce every table and figure of the ITR paper

USAGE:
    itr-repro [OPTIONS]

OPTIONS:
    --mode quick|full     scale preset (default quick; full = paper-scale)
    --jobs N              worker threads (default: all cores)
    --resume              replay completed shards from the journal
    --only JOB[,JOB...]   run only the named jobs (plus their dependencies)
    --out DIR             output directory (default results/)
    --faults N            override faults per campaign
    --window N            override observation window (cycles)
    --instrs N            override trace-stream instruction budget
    --program-instrs N    override generated-program size
    --seed N              override the base RNG seed
    --fuzz-budget N       override the itr-fuzz campaign iteration budget
    --from-programs       characterize from generated programs
    --grace-secs N        watchdog grace before abandoning a deaf shard
    --progress            force the stderr progress line on
    --no-progress         force it off
";

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("itr-repro: {e}");
            return ExitCode::from(1);
        }
    };

    let fp = fingerprint(&cli.scale.canonical());
    let mut registry = Registry::new(fp);
    register_all(&mut registry, &cli.scale, &cli.out);
    if let Some(only) = &cli.only {
        let names: Vec<&str> = only.iter().map(String::as_str).collect();
        if let Err(e) = registry.restrict(&names) {
            eprintln!("itr-repro: --only: {e}");
            return ExitCode::from(1);
        }
    }

    let opts = RunOptions {
        threads: cli.jobs,
        journal_path: Some(cli.out.join("journal.jsonl")),
        resume: cli.resume,
        mode: cli.mode.clone(),
        progress: cli.progress,
        grace: cli.grace,
    };
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("itr-repro: create {}: {e}", cli.out.display());
        return ExitCode::from(1);
    }
    eprintln!(
        "itr-repro: mode={} fingerprint={fp:016x} journal={}{}",
        cli.mode,
        cli.out.join("journal.jsonl").display(),
        if cli.resume { " (resuming)" } else { "" }
    );

    let summary = match itr_harness::run(registry, &opts) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("itr-repro: {e}");
            return ExitCode::from(1);
        }
    };

    let artifacts = collect_artifacts(&summary.blackboard, &cli.out);
    let counts = ShardCounts {
        executed: summary.executed,
        journaled: summary.journaled,
        quarantined: summary.quarantined,
    };
    if let Err(e) = write_manifest(&cli.out, &cli.mode, fp, counts, &artifacts) {
        eprintln!("itr-repro: write MANIFEST.json: {e}");
        return ExitCode::from(1);
    }

    eprintln!(
        "itr-repro: {} shards — {} executed, {} replayed from journal, {} quarantined \
         ({:.1}s)",
        summary.total_shards,
        summary.executed,
        summary.journaled,
        summary.quarantined,
        summary.elapsed.as_secs_f64()
    );
    eprintln!(
        "itr-repro: {} artifacts in {} (see MANIFEST.json)",
        artifacts.len(),
        cli.out.display()
    );
    for (job, shard, reason) in &summary.quarantines {
        eprintln!("itr-repro: quarantined {job}#{shard}: {reason}");
    }
    if summary.quarantined > 0 {
        eprintln!(
            "itr-repro: run is PARTIAL — quarantined seed ranges are excluded from the \
             artifacts; rerun without --resume (or raise --grace-secs) to retry them"
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
