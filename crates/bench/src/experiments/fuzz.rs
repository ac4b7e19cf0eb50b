//! The `itr-fuzz` differential campaign as a harness job family: the
//! iteration budget splits across fixed seed-derived shards, each shard
//! runs an independent deterministic fuzzing campaign (same engine the
//! `itr-fuzz` binary drives), and the emit job renders a per-shard
//! summary plus any findings into `fuzz.txt` / `fuzz.csv`.
//!
//! A second family, `fuzz-service`, demonstrates the persistent-service
//! machinery under the harness's deterministic generation barrier: each
//! worker shard fuzzes generation 0 and exports its novelty as an
//! `itr-fuzz-sync/v1` document through the job blackboard; the report
//! job then replays every worker's generation 0 (bit-identical — the
//! engine is a pure function of its seed), imports the peers' exports,
//! runs generation 1 on the merged frontier, and renders
//! `fuzz_service.txt` / `fuzz_service.csv`. Unlike the wall-clock-driven
//! `itr-fuzz serve` sync, the barrier timing is part of the job graph,
//! so the artifact is byte-identical at any `--jobs` level.

use super::{emit_payload, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_fuzz::{run, sync, FuzzConfig, Fuzzer};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_stats::json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Fixed shard count — part of the deterministic decomposition, so a
/// journaled run resumes shard-for-shard.
pub const FUZZ_SHARDS: u32 = 4;

/// Per-shard engine configuration: the scale's iteration budget divides
/// evenly (remainder to the low shards) and each shard derives its own
/// seed, so shards explore disjoint random streams.
pub fn shard_cfg(scale: &Scale, shard: u32) -> FuzzConfig {
    let per = scale.fuzz_iters / FUZZ_SHARDS as u64;
    let extra = u64::from((shard as u64) < scale.fuzz_iters % FUZZ_SHARDS as u64);
    FuzzConfig {
        seed: scale.seed.wrapping_add(0x1000 * (shard as u64 + 1)),
        iters: per + extra,
        ..FuzzConfig::default()
    }
}

/// One shard's journal-crossing payload: the engine's `itr-fuzz-stats/v1`
/// export plus the shard index and a findings digest (oracle + detail per
/// recorded finding).
fn shard_value(shard: u32, cfg: &FuzzConfig, outcome: &itr_fuzz::FuzzOutcome) -> Value {
    let findings = outcome
        .findings
        .iter()
        .map(|f| {
            obj(vec![
                ("oracle", Value::Str(f.kind.label().to_string())),
                ("detail", Value::Str(f.detail.clone())),
                ("fingerprint", Value::Str(format!("{:#018x}", f.case.fingerprint()))),
            ])
        })
        .collect();
    obj(vec![
        ("shard", Value::UInt(shard as u64)),
        ("stats", outcome.stats_value(cfg)),
        ("findings", Value::Array(findings)),
    ])
}

/// Renders the campaign summary. Shards arrive in index order (the
/// harness preserves shard order per job), so the artifact is stable.
pub fn render_fuzz(shards: &[Value], total_iters: u64) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(text, "=== itr-fuzz differential campaign ({total_iters} iterations) ===");
    let _ = writeln!(
        text,
        "{:<6} {:>18} {:>8} {:>6} {:>9} {:>7} {:>19} {:>13} {:>9}",
        "shard", "seed", "iters", "seeds", "coverage", "corpus", "digest", "golden", "findings"
    );
    let mut rows = Vec::new();
    let mut total_findings = 0u64;
    let mut details: Vec<(u64, String, String)> = Vec::new();
    for v in shards {
        let shard = get_u64(v, "shard");
        let stats = v.get("stats").expect("shard payload carries stats");
        let seed = get_u64(stats, "seed");
        let iters = get_u64(stats, "iterations");
        let seeds = get_u64(stats, "seeds");
        let coverage = get_u64(stats, "coverage");
        let corpus = get_u64(stats, "corpus_len");
        let digest = get_str(stats, "corpus_digest");
        let golden = get_u64(stats, "golden_instrs");
        let findings = get_u64(stats, "findings_total");
        total_findings += findings;
        let _ = writeln!(
            text,
            "{shard:<6} {seed:#18x} {iters:>8} {seeds:>6} {coverage:>9} {corpus:>7} \
             {digest:>19} {golden:>13} {findings:>9}"
        );
        rows.push(format!(
            "{shard},{seed:#x},{iters},{seeds},{coverage},{corpus},{digest},{golden},{findings}"
        ));
        if let Some(list) = v.get("findings").and_then(Value::as_array) {
            for f in list {
                details.push((
                    shard,
                    get_str(f, "oracle").to_string(),
                    get_str(f, "detail").to_string(),
                ));
            }
        }
    }
    if details.is_empty() && total_findings == 0 {
        let _ = writeln!(
            text,
            "\nAll three oracles (commit equivalence, signature determinism, fault\n\
             consistency) held on every input; the corpus digests above make the\n\
             run reproducible bit-for-bit."
        );
    } else {
        let _ = writeln!(text, "\n{total_findings} oracle violation(s):");
        for (shard, oracle, detail) in &details {
            let _ = writeln!(text, "  shard {shard} [{oracle}] {detail}");
        }
        let _ = writeln!(
            text,
            "Shrunken reproducers belong in tests/fuzz_regressions/ (see DESIGN.md §9)."
        );
    }
    Emitted {
        txt_name: "fuzz.txt",
        text,
        csv: Some(Csv {
            name: "fuzz.csv",
            header: "shard,seed,iterations,seeds,coverage,corpus_len,corpus_digest,\
                     golden_instrs,findings"
                .to_string(),
            rows,
        }),
    }
}

/// Worker count of the `fuzz-service` generation barrier. Two is enough
/// to exercise the export/import path in both directions while keeping
/// the report job's deterministic generation-0 replay affordable.
pub const SERVICE_WORKERS: u32 = 2;

/// Iterations per generation per service worker.
pub fn service_gen_iters(scale: &Scale) -> u64 {
    (scale.fuzz_iters / (u64::from(SERVICE_WORKERS) * 4)).max(8)
}

/// One service worker's engine configuration: quick oracle budgets (the
/// family measures sync mechanics, not coverage depth) and a worker-
/// derived seed disjoint from the campaign shards' `0x1000` stride.
pub fn service_cfg(scale: &Scale, worker: u32) -> FuzzConfig {
    FuzzConfig {
        corpus_cap: 128,
        ..FuzzConfig::quick(
            scale.seed.wrapping_add(0x2000 * (u64::from(worker) + 1)),
            service_gen_iters(scale),
        )
    }
}

/// One worker's line in the service report.
pub struct ServiceRow {
    pub worker: u32,
    pub seed: u64,
    pub gen_iters: u64,
    pub gen0_coverage: u64,
    pub exported: u64,
    pub scanned: u64,
    pub admitted: u64,
    pub gen1_coverage: u64,
    pub corpus_len: u64,
    pub digest: String,
    pub replay_ok: bool,
}

/// Renders the generation-barrier service report.
pub fn render_fuzz_service(rows: &[ServiceRow]) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== itr-fuzz persistent service ({SERVICE_WORKERS} workers, generation barrier) ==="
    );
    let _ = writeln!(
        text,
        "{:<6} {:>18} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8} {:>6} {:>19}",
        "worker",
        "seed",
        "gen_iters",
        "gen0_cov",
        "exported",
        "scanned",
        "admitted",
        "gen1_cov",
        "corpus",
        "digest"
    );
    let mut csv = Vec::new();
    let mut replays_ok = true;
    for r in rows {
        replays_ok &= r.replay_ok;
        let _ = writeln!(
            text,
            "{:<6} {:#18x} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8} {:>6} {:>19}",
            r.worker,
            r.seed,
            r.gen_iters,
            r.gen0_coverage,
            r.exported,
            r.scanned,
            r.admitted,
            r.gen1_coverage,
            r.corpus_len,
            r.digest
        );
        csv.push(format!(
            "{},{:#x},{},{},{},{},{},{},{},{},{}",
            r.worker,
            r.seed,
            r.gen_iters,
            r.gen0_coverage,
            r.exported,
            r.scanned,
            r.admitted,
            r.gen1_coverage,
            r.corpus_len,
            r.digest,
            r.replay_ok
        ));
    }
    if replays_ok {
        let _ = writeln!(
            text,
            "\nGeneration-0 replays reproduced the barrier payloads' corpus digests\n\
             bit-for-bit, so the sync exchange above is a pure function of the\n\
             scale seed — the artifact is identical at any --jobs level."
        );
    } else {
        let _ = writeln!(
            text,
            "\nWARNING: a generation-0 replay diverged from its barrier payload;\n\
             the engine is no longer a pure function of its seed."
        );
    }
    Emitted {
        txt_name: "fuzz_service.txt",
        text,
        csv: Some(Csv {
            name: "fuzz_service.csv",
            header: "worker,seed,gen_iters,gen0_coverage,exported,scanned,admitted,\
                     gen1_coverage,corpus_len,corpus_digest,replay_ok"
                .to_string(),
            rows: csv,
        }),
    }
}

/// Registers the sharded campaign and its emit job, plus the
/// `fuzz-service` generation barrier and its report job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("fuzz-campaign", &[], move |_| {
        (0..FUZZ_SHARDS)
            .map(|shard| {
                let cfg = shard_cfg(&s, shard);
                let range = (cfg.iters * shard as u64, cfg.iters * (shard as u64 + 1));
                ShardSpec::new(shard, range, move |ctx| {
                    let outcome = run(&cfg, &|| ctx.cancelled());
                    shard_value(shard, &cfg, &outcome)
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    let total_iters = scale.fuzz_iters;
    reg.add(JobSpec::single("fuzz", &["fuzz-campaign"], move |_, board| {
        let shards: Vec<Value> = board.expect("fuzz-campaign").data().cloned().collect();
        emit_payload(&dir, &render_fuzz(&shards, total_iters))
    }));

    // Generation 0: each worker fuzzes independently and ships its full
    // corpus as an `itr-fuzz-sync/v1` document through the blackboard.
    let s = scale.clone();
    reg.add(JobSpec::new("fuzz-service", &[], move |_| {
        (0..SERVICE_WORKERS)
            .map(|worker| {
                let cfg = service_cfg(&s, worker);
                let range = (cfg.iters * u64::from(worker), cfg.iters * (u64::from(worker) + 1));
                ShardSpec::new(worker, range, move |ctx| {
                    let cancelled = || ctx.cancelled();
                    let mut f = Fuzzer::new(cfg.clone());
                    f.seed(&cancelled);
                    f.run_iters(cfg.iters, &cancelled);
                    let export = sync::render(&f.export_corpus());
                    let outcome = f.outcome();
                    obj(vec![
                        ("worker", Value::UInt(u64::from(worker))),
                        ("gen0", outcome.stats_value(&cfg)),
                        ("export", Value::Str(export)),
                    ])
                })
            })
            .collect()
    }));

    // The barrier report: replay each worker's generation 0 (the engine
    // is a pure function of its seed, so this reproduces the exported
    // corpus exactly — asserted via digest), import the peers' exports,
    // and fuzz generation 1 on the merged frontier.
    let dir = out.to_path_buf();
    let s = scale.clone();
    reg.add(JobSpec::single("fuzz-service-report", &["fuzz-service"], move |ctx, board| {
        let shards: Vec<Value> = board.expect("fuzz-service").data().cloned().collect();
        let exports: Vec<Vec<sync::SyncRecord>> = shards
            .iter()
            .map(|v| {
                sync::parse(get_str(v, "export")).expect("barrier payload carries valid sync doc")
            })
            .collect();
        let cancelled = || ctx.cancelled();
        let mut rows = Vec::new();
        for v in &shards {
            let worker = get_u64(v, "worker") as u32;
            let cfg = service_cfg(&s, worker);
            let gen0 = v.get("gen0").expect("barrier payload carries gen0 stats");
            let mut f = Fuzzer::new(cfg.clone());
            f.seed(&cancelled);
            f.run_iters(cfg.iters, &cancelled);
            let replay_ok =
                format!("{:#018x}", f.corpus().digest()) == get_str(gen0, "corpus_digest");
            let peers: Vec<sync::SyncRecord> = exports
                .iter()
                .enumerate()
                .filter(|(w, _)| *w as u32 != worker)
                .flat_map(|(_, recs)| recs.iter().cloned())
                .collect();
            let (scanned, admitted) = f.import(&peers);
            f.run_iters(cfg.iters, &cancelled);
            rows.push(ServiceRow {
                worker,
                seed: cfg.seed,
                gen_iters: cfg.iters,
                gen0_coverage: get_u64(gen0, "coverage"),
                exported: exports[worker as usize].len() as u64,
                scanned,
                admitted,
                gen1_coverage: f.coverage() as u64,
                corpus_len: f.corpus().entries().len() as u64,
                digest: format!("{:#018x}", f.corpus().digest()),
                replay_ok,
            });
        }
        emit_payload(&dir, &render_fuzz_service(&rows))
    }));
}
