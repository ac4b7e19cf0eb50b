//! `itr-fuzz` — coverage-guided differential fuzzing of the simulator
//! and ITR detection stack.
//!
//! ```text
//! itr-fuzz run [--seed N] [--iters N] [--time-secs N] [--mode quick|full]
//!              [--schedule power|uniform] [--out DIR] [--no-seeding]
//! itr-fuzz replay CASE.json [CASE.json ...]
//! itr-fuzz serve [--port N] [--max-iters N] [--sync-dir DIR] [--worker N]
//!                [--warm-start URL] [--out DIR] [run options]
//! itr-fuzz ab [--seed N] [--iters N] [--mode quick|full] [--no-seeding]
//! itr-fuzz gap-ab [--seed N] [--iters N] [--mode quick|full] [--no-seeding]
//! itr-fuzz corpus CORPUS.jsonl
//! ```
//!
//! `run` executes a deterministic fuzzing campaign: same seed and budget
//! → byte-identical `fuzz_stats.json` and findings. Findings (shrunken
//! reproducers) are written to `OUT/findings/case-NNN.json`; promote the
//! ones worth keeping to `tests/fuzz_regressions/`. Exit status: 0 when
//! every oracle held, 1 on findings, 2 on usage errors.
//!
//! `replay` re-runs persisted findings under their recorded budgets.
//! Exit status: 0 when nothing reproduces (regressions stay fixed), 1
//! when a case still fails, 2 on usage or parse errors.
//!
//! `serve` runs a long-lived campaign behind `GET /stats`,
//! `GET /findings`, `GET /corpus` and `POST /shutdown` on localhost,
//! optionally syncing its corpus with peer shards through `--sync-dir`
//! and warm-starting from a running peer's `/corpus` export with
//! `--warm-start`.
//!
//! `ab` runs the uniform baseline for the iteration budget, notes the
//! coverage it reached and how many oracle executions it spent, then
//! runs the power scheduler until it matches that coverage. Exit status:
//! 0 when the scheduler needs no more executions than the baseline.
//!
//! `gap-ab` is the same race with gap closures as the currency: the
//! undirected engine runs the budget, then the analysis-directed engine
//! must reach 95% of its final gap-closure count in no more executions.
//! Exit status mirrors `ab`.
//!
//! `corpus` parses a persisted `itr-fuzz-sync/v1` corpus and reports its
//! size and digest — CI's check that a serve campaign's corpus reloads.

use itr_fuzz::{gap_race, FuzzConfig, Fuzzer, GapRace, RegressionCase, Schedule, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const HELP: &str = "\
itr-fuzz — coverage-guided differential fuzzing of the ITR reproduction

USAGE:
    itr-fuzz run [OPTIONS]
    itr-fuzz replay CASE.json [CASE.json ...]
    itr-fuzz serve [OPTIONS]
    itr-fuzz ab [OPTIONS]
    itr-fuzz gap-ab [OPTIONS]
    itr-fuzz corpus CORPUS.jsonl

RUN OPTIONS:
    --seed N         master RNG seed (default 1)
    --iters N        mutation iterations (default 1000)
    --time-secs N    additional wall-clock budget; stops early when hit
    --mode quick|full  budget preset (default full; quick = smoke scale)
    --schedule power|uniform  corpus selection policy (default power)
    --directed       analysis-directed mutation: target the gap report's
                     uncovered CFG edges and never-formed traces
    --out DIR        output directory (default fuzz-out/)
    --no-seeding     skip the itr-workloads seed corpus

SERVE OPTIONS (plus the run options above):
    --port N         TCP port (default 0 = ephemeral; bound port printed
                     as `itr-fuzz: serving on PORT`)
    --max-iters N    stop after N iterations (default 0 = until shutdown)
    --sync-dir DIR   shared directory for cross-shard corpus sync
    --worker N       this worker's shard index (default 0)
    --warm-start URL import a running peer's GET /corpus export before
                     the first batch (host:port, path defaults /corpus)

AB / GAP-AB OPTIONS:
    --seed N, --iters N, --mode, --no-seeding as for run
";

/// Consumes the engine-level flags shared by `run`, `serve` and `ab`
/// (`--seed`, `--iters`, `--mode`, `--schedule`, `--no-seeding`) and
/// returns the resulting config plus the unconsumed arguments.
fn parse_fuzz_flags(args: &[String]) -> Result<(FuzzConfig, Vec<String>), String> {
    let mut seed = 1u64;
    let mut iters = 1000u64;
    let mut mode = "full".to_string();
    let mut schedule = Schedule::Power;
    let mut no_seeding = false;
    let mut directed = false;
    let mut rest = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--iters" => iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--mode" => mode = value("--mode")?,
            "--schedule" => {
                let v = value("--schedule")?;
                schedule = Schedule::from_label(&v)
                    .ok_or_else(|| format!("--schedule must be power or uniform, got `{v}`"))?;
            }
            "--no-seeding" => no_seeding = true,
            "--directed" => directed = true,
            other => rest.push(other.to_string()),
        }
    }

    let mut cfg = match mode.as_str() {
        "quick" => FuzzConfig::quick(seed, iters),
        "full" => FuzzConfig { seed, iters, ..FuzzConfig::default() },
        other => return Err(format!("--mode must be quick or full, got `{other}`")),
    };
    cfg.schedule = schedule;
    cfg.skip_seeding = no_seeding;
    cfg.directed = directed;
    Ok((cfg, rest))
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (cfg, rest) = parse_fuzz_flags(args)?;
    let mut time_secs: Option<u64> = None;
    let mut out = PathBuf::from("fuzz-out");

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--time-secs" => {
                time_secs =
                    Some(value("--time-secs")?.parse().map_err(|e| format!("--time-secs: {e}"))?);
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let (seed, iters, schedule) = (cfg.seed, cfg.iters, cfg.schedule.label());

    let deadline = time_secs.map(|s| Instant::now() + Duration::from_secs(s));
    let cancelled = move || deadline.is_some_and(|d| Instant::now() >= d);

    eprintln!("itr-fuzz: seed={seed} iters={iters} schedule={schedule}");
    let started = Instant::now();
    let outcome = itr_fuzz::run(&cfg, &cancelled);

    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let stats_path = out.join("fuzz_stats.json");
    std::fs::write(&stats_path, outcome.stats_value(&cfg).to_json())
        .map_err(|e| format!("write {}: {e}", stats_path.display()))?;
    let findings_dir = out.join("findings");
    if !outcome.findings.is_empty() {
        std::fs::create_dir_all(&findings_dir)
            .map_err(|e| format!("create {}: {e}", findings_dir.display()))?;
    }
    for (i, rc) in outcome.findings.iter().enumerate() {
        let path = findings_dir.join(format!("case-{i:03}.json"));
        std::fs::write(&path, rc.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("itr-fuzz: finding [{}] -> {}", rc.kind.label(), path.display());
    }

    let s = &outcome.stats;
    eprintln!(
        "itr-fuzz: {} iterations ({} seeds) in {:.1}s — coverage {}, corpus {} \
         (digest {:#018x}), {} findings",
        s.iterations,
        s.seeds,
        started.elapsed().as_secs_f64(),
        s.coverage,
        s.corpus_len,
        s.corpus_digest,
        s.findings(),
    );
    eprintln!("itr-fuzz: stats -> {}", stats_path.display());
    if s.findings() > 0 {
        eprintln!("itr-fuzz: ORACLE VIOLATIONS FOUND — inspect {}", findings_dir.display());
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn replay_cmd(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return if args.is_empty() {
            Err("replay needs at least one case file".into())
        } else {
            Ok(ExitCode::SUCCESS)
        };
    }
    let mut reproduced = 0usize;
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let rc = RegressionCase::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        match rc.reproduces() {
            Some(finding) => {
                reproduced += 1;
                eprintln!("itr-fuzz: {path}: STILL FAILS [{}]", finding.kind.label());
                eprintln!("{}", finding.detail);
            }
            None => eprintln!("itr-fuzz: {path}: ok [{}]", rc.kind.label()),
        }
    }
    if reproduced > 0 {
        eprintln!("itr-fuzz: {reproduced}/{} cases reproduce", args.len());
        return Ok(ExitCode::from(1));
    }
    eprintln!("itr-fuzz: all {} cases hold", args.len());
    Ok(ExitCode::SUCCESS)
}

fn serve_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (fuzz, rest) = parse_fuzz_flags(args)?;
    let mut cfg = ServeConfig { fuzz, ..ServeConfig::default() };
    let mut out: Option<PathBuf> = None;

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--port" => cfg.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--max-iters" => {
                cfg.max_iters =
                    value("--max-iters")?.parse().map_err(|e| format!("--max-iters: {e}"))?;
            }
            "--sync-dir" => cfg.sync_dir = Some(PathBuf::from(value("--sync-dir")?)),
            "--worker" => {
                cfg.worker = value("--worker")?.parse().map_err(|e| format!("--worker: {e}"))?;
            }
            "--warm-start" => cfg.corpus_url = Some(value("--warm-start")?),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    cfg.out_dir = Some(out.unwrap_or_else(|| PathBuf::from("fuzz-out")));

    let outcome = itr_fuzz::serve(&cfg, &mut |port| {
        // CI and scripts parse this line to find the ephemeral port.
        println!("itr-fuzz: serving on {port}");
    })
    .map_err(|e| format!("serve: {e}"))?;
    let s = &outcome.stats;
    eprintln!(
        "itr-fuzz: campaign done — {} iterations, {} execs, coverage {}, corpus {}, {} findings",
        s.iterations,
        s.execs,
        s.coverage,
        s.corpus_len,
        s.findings(),
    );
    Ok(if s.findings() > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn ab_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (cfg, rest) = parse_fuzz_flags(args)?;
    if let Some(extra) = rest.first() {
        if extra == "--help" || extra == "-h" {
            print!("{HELP}");
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!("unknown flag `{extra}` (try --help)"));
    }

    // Baseline: uniform selection for the full iteration budget,
    // recording the coverage trajectory. The race target is 95% of the
    // baseline's final coverage — the last few features any engine finds
    // are seed luck, so racing to the exact final value measures noise,
    // while racing to the bulk of the curve measures scheduling.
    let base_cfg = FuzzConfig { schedule: Schedule::Uniform, ..cfg.clone() };
    let mut base = Fuzzer::new(base_cfg);
    base.seed(&|| false);
    let mut trajectory = vec![(base.execs(), base.coverage())];
    for _ in 0..cfg.iters {
        base.step();
        trajectory.push((base.execs(), base.coverage()));
    }
    let target = base.coverage() * 95 / 100;
    let base_execs =
        trajectory.iter().find(|&&(_, c)| c >= target).map_or_else(|| base.execs(), |&(e, _)| e);
    eprintln!(
        "itr-fuzz: uniform reached coverage {target} (95% of {}) in {base_execs} execs",
        base.coverage()
    );

    // Challenger: power scheduling until it reaches the same target
    // (capped at 4x the budget so a regression still terminates).
    let mut power = Fuzzer::new(FuzzConfig { schedule: Schedule::Power, ..cfg.clone() });
    power.seed(&|| false);
    while power.coverage() < target && power.iterations() < cfg.iters * 4 {
        power.step();
    }
    let power_execs = power.execs();
    eprintln!("itr-fuzz: power reached coverage {} in {power_execs} execs", power.coverage());

    if power.coverage() < target {
        eprintln!("itr-fuzz: A/B FAIL — power never reached the coverage target");
        return Ok(ExitCode::from(1));
    }
    if power_execs > base_execs {
        eprintln!("itr-fuzz: A/B FAIL — power spent {power_execs} execs vs uniform's {base_execs}");
        return Ok(ExitCode::from(1));
    }
    eprintln!(
        "itr-fuzz: A/B ok — power reached coverage {target} with {} of uniform's execs",
        format_args!("{power_execs}/{base_execs}")
    );
    Ok(ExitCode::SUCCESS)
}

fn gap_ab_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (cfg, rest) = parse_fuzz_flags(args)?;
    if let Some(extra) = rest.first() {
        if extra == "--help" || extra == "-h" {
            print!("{HELP}");
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!("unknown flag `{extra}` (try --help)"));
    }

    let GapRace { blind_closures, target, blind_execs, directed_closures, directed_execs } =
        gap_race(&cfg);
    if blind_closures == 0 {
        eprintln!("itr-fuzz: gap A/B FAIL — blind baseline closed no gaps; config too small");
        return Ok(ExitCode::from(1));
    }
    eprintln!(
        "itr-fuzz: blind closed {target} gaps (95% of {blind_closures}) in {blind_execs} execs"
    );
    eprintln!("itr-fuzz: directed closed {directed_closures} gaps in {directed_execs} execs");

    if directed_closures < target {
        eprintln!("itr-fuzz: gap A/B FAIL — directed never reached the closure target");
        return Ok(ExitCode::from(1));
    }
    if directed_execs > blind_execs {
        eprintln!(
            "itr-fuzz: gap A/B FAIL — directed spent {directed_execs} execs vs blind's {blind_execs}"
        );
        return Ok(ExitCode::from(1));
    }
    eprintln!(
        "itr-fuzz: gap A/B ok — directed closed {target} gaps with {} of blind's execs",
        format_args!("{directed_execs}/{blind_execs}")
    );
    Ok(ExitCode::SUCCESS)
}

fn corpus_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("corpus needs exactly one CORPUS.jsonl path".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let records = itr_fuzz::sync::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let digest = records.iter().fold(0u64, |h, r| h ^ r.case.fingerprint());
    eprintln!("itr-fuzz: {path}: {} cases, digest {digest:#018x}", records.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("ab") => ab_cmd(&args[1..]),
        Some("gap-ab") => gap_ab_cmd(&args[1..]),
        Some("corpus") => corpus_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("itr-fuzz: {e}");
            ExitCode::from(2)
        }
    }
}
