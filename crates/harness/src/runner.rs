//! The orchestrator: runs a [`Registry`] over the worker pool with
//! journaling, per-shard watchdogs and deterministic result merging.
//!
//! Scheduling is DAG-driven: a job's shards are built (from the
//! blackboard of finished dependencies) the moment its last dependency
//! completes, then injected into the pool — so shards of *different*
//! experiments interleave freely and the machine never sits idle behind
//! one slow campaign. The single orchestrator thread owns the journal,
//! the blackboard and the watchdog clock; workers only execute shards
//! and report back over a channel.

use crate::job::{
    Blackboard, JobResult, JobSpec, QuarantineRecord, Registry, ShardCtx, ShardRecord, ShardSpec,
};
use crate::journal::{Entry, Journal};
use crate::progress::Progress;
use itr_stats::json::Value;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs for one harness run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Journal location; `None` disables journaling (and resume).
    pub journal_path: Option<PathBuf>,
    /// Replay completed shards from an existing journal.
    pub resume: bool,
    /// Mode label recorded in the journal header.
    pub mode: String,
    /// Paint progress/ETA on stderr.
    pub progress: bool,
    /// How long past its deadline a non-cooperating shard may run before
    /// its worker is abandoned and replaced.
    pub grace: Duration,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            threads: 0,
            journal_path: None,
            resume: false,
            mode: "quick".to_string(),
            progress: false,
            grace: Duration::from_secs(15),
        }
    }
}

/// What a finished run looked like.
#[derive(Debug)]
pub struct RunSummary {
    /// Shards executed this run.
    pub executed: u32,
    /// Shards replayed from the journal without recomputation.
    pub journaled: u32,
    /// Shards quarantined (including journaled quarantines).
    pub quarantined: u32,
    /// Total shards across all jobs.
    pub total_shards: u32,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Every job's merged result.
    pub blackboard: Blackboard,
    /// `(job, shard, reason)` for each quarantined shard.
    pub quarantines: Vec<(String, u32, String)>,
}

type ShardKey = (String, u32);

struct RunningShard {
    started: Option<Instant>,
    deadline: Duration,
    cancel: Arc<AtomicBool>,
    worker: Option<usize>,
    cancelled_at: Option<Instant>,
    seed_range: (u64, u64),
}

enum Event {
    Started { key: ShardKey, worker: usize },
    Finished { key: ShardKey, outcome: Result<Value, String>, elapsed_ms: u64 },
}

struct JobState {
    pending: u32,
    records: Vec<ShardRecord>,
    quarantined: Vec<QuarantineRecord>,
}

/// Executes every job in the registry; returns the run summary or an
/// error for configuration-level failures (invalid DAG, bad journal).
/// Individual shard failures never fail the run — they quarantine.
pub fn run(registry: Registry, opts: &RunOptions) -> Result<RunSummary, String> {
    registry.validate()?;
    let fingerprint = registry.fingerprint();

    // -- journal: load prior shards, open for appending --
    let mut prior_done: HashMap<ShardKey, ((u64, u64), Value, u64)> = HashMap::new();
    let mut prior_quarantine: HashMap<ShardKey, ((u64, u64), String)> = HashMap::new();
    let mut journal = match &opts.journal_path {
        Some(path) if opts.resume && path.exists() => {
            let (journal, entries) = Journal::resume(path, fingerprint)?;
            for entry in entries {
                match entry {
                    Entry::Shard { job, index, seed_lo, seed_hi, elapsed_ms, payload } => {
                        prior_done.insert((job, index), ((seed_lo, seed_hi), payload, elapsed_ms));
                    }
                    Entry::Quarantine { job, index, seed_lo, seed_hi, reason } => {
                        prior_quarantine.insert((job, index), ((seed_lo, seed_hi), reason));
                    }
                    Entry::Run { .. } => {}
                }
            }
            Some(journal)
        }
        Some(path) => Some(
            Journal::create(path, fingerprint, &opts.mode)
                .map_err(|e| format!("create journal {}: {e}", path.display()))?,
        ),
        None => None,
    };

    // -- DAG state --
    let jobs = registry.into_jobs();
    let total_jobs = jobs.len() as u32;
    let mut dependents: HashMap<String, Vec<String>> = HashMap::new();
    let mut indegree: HashMap<String, usize> = HashMap::new();
    let order: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
    for job in &jobs {
        indegree.insert(job.name.clone(), job.deps.len());
        for dep in &job.deps {
            dependents.entry(dep.clone()).or_default().push(job.name.clone());
        }
    }
    let mut specs: HashMap<String, JobSpec> =
        jobs.into_iter().map(|j| (j.name.clone(), j)).collect();

    // -- execution state --
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        opts.threads
    };
    let pool = crate::pool::Pool::new(threads);
    let (tx, rx) = mpsc::channel::<Event>();
    let running: Arc<Mutex<HashMap<ShardKey, RunningShard>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut states: HashMap<String, JobState> = HashMap::new();
    let mut blackboard = Blackboard::default();
    let mut progress = Progress::new(opts.progress);
    let mut jobs_done = 0u32;
    let mut total_shards = 0u32;
    let mut quarantines: Vec<(String, u32, String)> = Vec::new();

    // Launches a ready job: build shards, satisfy them from the journal
    // or dispatch to the pool. Returns the job's state.
    let launch = |name: &str,
                  specs: &mut HashMap<String, JobSpec>,
                  blackboard: &Blackboard,
                  journal: &mut Option<Journal>,
                  progress: &mut Progress,
                  quarantines: &mut Vec<(String, u32, String)>,
                  total_shards: &mut u32|
     -> Result<JobState, String> {
        let spec = specs.remove(name).expect("job launched once");
        let shards: Vec<ShardSpec> = (spec.build)(blackboard);
        *total_shards += shards.len() as u32;
        let mut state = JobState { pending: 0, records: Vec::new(), quarantined: Vec::new() };
        for shard in shards {
            let key: ShardKey = (name.to_string(), shard.index);
            let range = (shard.seed_lo, shard.seed_hi);
            if let Some((prior_range, reason)) = prior_quarantine.get(&key) {
                if *prior_range != range {
                    return Err(shard_range_mismatch(name, shard.index, *prior_range, range));
                }
                state.quarantined.push(QuarantineRecord {
                    index: shard.index,
                    seed_lo: range.0,
                    seed_hi: range.1,
                    reason: reason.clone(),
                });
                quarantines.push((name.to_string(), shard.index, reason.clone()));
                progress.quarantined += 1;
                continue;
            }
            if let Some((prior_range, payload, elapsed_ms)) = prior_done.get(&key) {
                if *prior_range != range {
                    return Err(shard_range_mismatch(name, shard.index, *prior_range, range));
                }
                state.records.push(ShardRecord {
                    index: shard.index,
                    seed_lo: range.0,
                    seed_hi: range.1,
                    payload: payload.clone(),
                    from_journal: true,
                    elapsed_ms: *elapsed_ms,
                });
                progress.journaled += 1;
                continue;
            }
            // Dispatch to the pool.
            let cancel = Arc::new(AtomicBool::new(false));
            running.lock().expect("running poisoned").insert(
                key.clone(),
                RunningShard {
                    started: None,
                    deadline: shard.deadline,
                    cancel: Arc::clone(&cancel),
                    worker: None,
                    cancelled_at: None,
                    seed_range: range,
                },
            );
            state.pending += 1;
            let tx = tx.clone();
            let ctx = ShardCtx::new(cancel);
            let run_fn = shard.run;
            pool.submit(Box::new(move |worker| {
                let _ignored = tx.send(Event::Started { key: key.clone(), worker });
                let start = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| run_fn(&ctx)))
                    .map_err(|panic| format!("panicked: {}", panic_message(&*panic)));
                let elapsed_ms = start.elapsed().as_millis() as u64;
                let _ignored = tx.send(Event::Finished { key, outcome, elapsed_ms });
            }));
        }
        let _unused = journal; // journaling of fresh shards happens on completion
        Ok(state)
    };

    // Launch every root job (in registration order, for determinism).
    let mut ready: VecDeque<String> =
        order.iter().filter(|n| indegree[n.as_str()] == 0).cloned().collect();
    let mut finished_jobs: VecDeque<String> = VecDeque::new();
    while let Some(name) = ready.pop_front() {
        let state = launch(
            &name,
            &mut specs,
            &blackboard,
            &mut journal,
            &mut progress,
            &mut quarantines,
            &mut total_shards,
        )?;
        if state.pending == 0 {
            finished_jobs.push_back(name.clone());
        }
        states.insert(name, state);
    }

    // -- event loop --
    loop {
        // Finalize any jobs whose shards are all resolved; this can
        // cascade as dependents become ready.
        while let Some(name) = finished_jobs.pop_front() {
            let mut state = states.remove(&name).expect("job state exists");
            state.records.sort_by_key(|r| r.index);
            state.quarantined.sort_by_key(|q| q.index);
            blackboard.insert(
                name.clone(),
                JobResult { shards: state.records, quarantined: state.quarantined },
            );
            jobs_done += 1;
            for dependent in dependents.get(&name).cloned().unwrap_or_default() {
                let remaining = indegree.get_mut(&dependent).expect("known job");
                *remaining -= 1;
                if *remaining == 0 {
                    let state = launch(
                        &dependent,
                        &mut specs,
                        &blackboard,
                        &mut journal,
                        &mut progress,
                        &mut quarantines,
                        &mut total_shards,
                    )?;
                    if state.pending == 0 {
                        finished_jobs.push_back(dependent.clone());
                    }
                    states.insert(dependent, state);
                }
            }
        }
        if jobs_done == total_jobs {
            break;
        }

        let done = progress.executed + progress.journaled + progress.quarantined;
        progress.tick(done, total_shards, jobs_done, total_jobs);

        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Started { key, worker }) => {
                if let Some(entry) = running.lock().expect("running poisoned").get_mut(&key) {
                    entry.started = Some(Instant::now());
                    entry.worker = Some(worker);
                }
            }
            Ok(Event::Finished { key, outcome, elapsed_ms }) => {
                let Some(entry) = running.lock().expect("running poisoned").remove(&key) else {
                    continue; // abandoned shard finishing late — already quarantined
                };
                let (job, index) = key;
                let range = entry.seed_range;
                let state = states.get_mut(&job).expect("job state exists");
                state.pending -= 1;
                let quarantine_reason = match outcome {
                    Ok(payload) => {
                        if entry.cancel.load(Ordering::Relaxed) {
                            Some(format!(
                                "deadline {:?} exceeded; shard stopped cooperatively",
                                entry.deadline
                            ))
                        } else {
                            if let Some(journal) = journal.as_mut() {
                                journal
                                    .append_shard(&job, index, range, elapsed_ms, &payload)
                                    .map_err(|e| format!("journal append: {e}"))?;
                            }
                            state.records.push(ShardRecord {
                                index,
                                seed_lo: range.0,
                                seed_hi: range.1,
                                payload,
                                from_journal: false,
                                elapsed_ms,
                            });
                            progress.executed += 1;
                            None
                        }
                    }
                    Err(panic) => Some(panic),
                };
                if let Some(reason) = quarantine_reason {
                    if let Some(journal) = journal.as_mut() {
                        journal
                            .append_quarantine(&job, index, range, &reason)
                            .map_err(|e| format!("journal append: {e}"))?;
                    }
                    state.quarantined.push(QuarantineRecord {
                        index,
                        seed_lo: range.0,
                        seed_hi: range.1,
                        reason: reason.clone(),
                    });
                    quarantines.push((job.clone(), index, reason));
                    progress.quarantined += 1;
                }
                if state.pending == 0 {
                    finished_jobs.push_back(job);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Watchdog sweep: flag overdue shards, abandon deaf ones.
                let now = Instant::now();
                let mut abandoned: Vec<(ShardKey, RunningShard)> = Vec::new();
                {
                    let mut running = running.lock().expect("running poisoned");
                    let mut overdue: Vec<ShardKey> = Vec::new();
                    for (key, entry) in running.iter_mut() {
                        let Some(started) = entry.started else { continue };
                        if now.duration_since(started) < entry.deadline {
                            continue;
                        }
                        match entry.cancelled_at {
                            None => {
                                entry.cancel.store(true, Ordering::Relaxed);
                                entry.cancelled_at = Some(now);
                            }
                            Some(cancelled_at)
                                if now.duration_since(cancelled_at) >= opts.grace =>
                            {
                                overdue.push(key.clone());
                            }
                            Some(_) => {}
                        }
                    }
                    for key in overdue {
                        let entry = running.remove(&key).expect("present");
                        abandoned.push((key, entry));
                    }
                }
                for ((job, index), entry) in abandoned {
                    if let Some(worker) = entry.worker {
                        pool.respawn(worker);
                    }
                    let reason = format!(
                        "deadline {:?} exceeded; worker abandoned and replaced",
                        entry.deadline
                    );
                    if let Some(journal) = journal.as_mut() {
                        journal
                            .append_quarantine(&job, index, entry.seed_range, &reason)
                            .map_err(|e| format!("journal append: {e}"))?;
                    }
                    let state = states.get_mut(&job).expect("job state exists");
                    state.pending -= 1;
                    state.quarantined.push(QuarantineRecord {
                        index,
                        seed_lo: entry.seed_range.0,
                        seed_hi: entry.seed_range.1,
                        reason: reason.clone(),
                    });
                    quarantines.push((job.clone(), index, reason));
                    progress.quarantined += 1;
                    if state.pending == 0 {
                        finished_jobs.push_back(job);
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("worker channel closed unexpectedly".to_string());
            }
        }
    }

    let done = progress.executed + progress.journaled + progress.quarantined;
    progress.tick(done, total_shards, jobs_done, total_jobs);
    progress.finish();
    pool.shutdown();

    Ok(RunSummary {
        executed: progress.executed,
        journaled: progress.journaled,
        quarantined: progress.quarantined,
        total_shards,
        elapsed: progress.elapsed(),
        blackboard,
        quarantines,
    })
}

fn shard_range_mismatch(job: &str, index: u32, prior: (u64, u64), current: (u64, u64)) -> String {
    format!(
        "journal shard {job}#{index} covers seeds {:?} but the registry now builds {:?}; \
         the shard decomposition changed without a fingerprint change — fix the \
         experiment's fingerprint inputs",
        prior, current
    )
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("itr-harness-runner-{}-{name}", std::process::id()));
        let _ignored = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A job's payloads in shard order, as one JSON document.
    fn data_json(summary: &RunSummary, job: &str) -> String {
        Value::Array(summary.blackboard.expect(job).data().cloned().collect()).to_json()
    }

    fn two_stage_registry() -> Registry {
        let mut registry = Registry::new(0xABCD);
        registry.add(JobSpec::new("produce", &[], |_| {
            (0..4u32)
                .map(|i| {
                    ShardSpec::new(i, (i as u64 * 10, i as u64 * 10 + 10), move |_ctx| {
                        Value::UInt(i as u64 + 1)
                    })
                })
                .collect()
        }));
        registry.add(JobSpec::single("consume", &["produce"], |_ctx, board| {
            let total: u64 = board.expect("produce").data().map(|v| v.as_u64().unwrap_or(0)).sum();
            Value::Str(format!("total,{total}"))
        }));
        registry
    }

    #[test]
    fn dag_runs_and_merges_deterministically() {
        let summary = run(two_stage_registry(), &RunOptions::default()).expect("run");
        assert_eq!(summary.executed, 5);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(data_json(&summary, "produce"), "[1,2,3,4]");
        assert_eq!(data_json(&summary, "consume"), "[\"total,10\"]", "dependent saw every shard");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let one = run(two_stage_registry(), &RunOptions { threads: 1, ..RunOptions::default() })
            .expect("run");
        let eight = run(two_stage_registry(), &RunOptions { threads: 8, ..RunOptions::default() })
            .expect("run");
        assert_eq!(data_json(&one, "produce"), data_json(&eight, "produce"));
        assert_eq!(data_json(&one, "consume"), data_json(&eight, "consume"));
    }

    #[test]
    fn resume_replays_journaled_shards_without_recomputation() {
        let dir = tmp_dir("resume");
        let journal_path = dir.join("journal.jsonl");
        let opts = RunOptions {
            journal_path: Some(journal_path.clone()),
            threads: 2,
            ..RunOptions::default()
        };
        let first = run(two_stage_registry(), &opts).expect("first run");
        assert_eq!(first.executed, 5);

        let resumed = run(two_stage_registry(), &RunOptions { resume: true, ..opts.clone() })
            .expect("resumed run");
        assert_eq!(resumed.executed, 0, "every shard replayed from the journal");
        assert_eq!(resumed.journaled, 5);
        assert_eq!(data_json(&resumed, "produce"), data_json(&first, "produce"));
        assert_eq!(data_json(&resumed, "consume"), data_json(&first, "consume"));
    }

    #[test]
    fn partial_journal_resumes_with_only_missing_shards() {
        // Simulate a run killed after journaling shard 0: write the
        // journal by hand, then resume — only shards 1..4 (and the
        // dependent job) may execute.
        let dir = tmp_dir("partial");
        let journal_path = dir.join("journal.jsonl");
        let registry = two_stage_registry();
        let fingerprint = registry.fingerprint();
        let mut journal =
            Journal::create(&journal_path, fingerprint, "quick").expect("create journal");
        journal.append_shard("produce", 0, (0, 10), 3, &Value::UInt(1)).expect("append");
        drop(journal);

        let summary = run(
            registry,
            &RunOptions {
                journal_path: Some(journal_path),
                resume: true,
                threads: 2,
                ..RunOptions::default()
            },
        )
        .expect("run");
        assert_eq!(summary.journaled, 1);
        assert_eq!(summary.executed, 4, "three produce shards + consume");
        let fresh = run(two_stage_registry(), &RunOptions::default()).expect("fresh");
        assert_eq!(
            data_json(&summary, "produce"),
            data_json(&fresh, "produce"),
            "journal replay + fresh shards merge to the same aggregate"
        );
    }

    #[test]
    fn panicking_shard_is_quarantined_and_the_run_survives() {
        let mut registry = Registry::new(1);
        registry.add(JobSpec::new("mixed", &[], |_| {
            vec![
                ShardSpec::new(0, (0, 1), |_ctx| Value::UInt(1)),
                ShardSpec::new(1, (1, 2), |_ctx| panic!("injected shard failure")),
                ShardSpec::new(2, (2, 3), |_ctx| Value::UInt(3)),
            ]
        }));
        registry.add(JobSpec::single("after", &["mixed"], |_ctx, board| {
            let survivors = board.expect("mixed").shards.len() as u64;
            Value::UInt(survivors)
        }));
        let summary = run(registry, &RunOptions::default()).expect("run survives the panic");
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.quarantines.len(), 1);
        assert!(
            summary.quarantines[0].2.contains("injected shard failure"),
            "{:?}",
            summary.quarantines
        );
        assert_eq!(data_json(&summary, "after"), "[2]");
    }

    #[test]
    fn watchdog_stops_a_cooperative_overrunner() {
        let mut registry = Registry::new(2);
        registry.add(JobSpec::new("slow", &[], |_| {
            vec![
                ShardSpec::new(0, (0, 1), |ctx: &ShardCtx| {
                    // Polls the flag like a well-behaved campaign shard.
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Value::UInt(99)
                })
                .with_deadline(Duration::from_millis(60)),
                ShardSpec::new(1, (1, 2), |_ctx| Value::UInt(1)),
            ]
        }));
        let summary = run(registry, &RunOptions::default()).expect("run");
        assert_eq!(summary.quarantined, 1);
        assert!(summary.quarantines[0].2.contains("cooperatively"), "{:?}", summary.quarantines);
        let slow = summary.blackboard.expect("slow");
        assert_eq!(slow.shards.len(), 1, "healthy shard survived");
        assert_eq!(slow.quarantined.len(), 1);
        assert_eq!(slow.quarantined[0].seed_lo, 0, "quarantine names the seed range");
    }

    #[test]
    fn watchdog_abandons_a_deaf_shard_and_keeps_the_run_alive() {
        let mut registry = Registry::new(3);
        registry.add(JobSpec::new("deaf", &[], |_| {
            vec![
                ShardSpec::new(0, (0, 1), |_ctx| {
                    // Never polls the cancel flag — a truly hung shard.
                    std::thread::sleep(Duration::from_secs(2));
                    Value::UInt(1)
                })
                .with_deadline(Duration::from_millis(50)),
                ShardSpec::new(1, (1, 2), |_ctx| Value::UInt(2)),
            ]
        }));
        let start = Instant::now();
        let summary = run(
            registry,
            &RunOptions { threads: 1, grace: Duration::from_millis(50), ..Default::default() },
        )
        .expect("run");
        assert!(start.elapsed() < Duration::from_secs(2), "run did not wait out the hang");
        assert_eq!(summary.quarantined, 1);
        assert!(summary.quarantines[0].2.contains("abandoned"));
        // With a single worker, shard 1 could only have run on the
        // replacement thread the watchdog spawned.
        assert_eq!(summary.blackboard.expect("deaf").shards.len(), 1);
    }
}
