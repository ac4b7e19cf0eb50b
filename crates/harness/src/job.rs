//! Jobs, shards and the declarative experiment registry.
//!
//! An experiment run is a DAG of [`JobSpec`]s. Each job names the jobs it
//! depends on; once those complete, its `build` closure is invoked with
//! the [`Blackboard`] of finished results and returns the job's
//! [`ShardSpec`]s — the independent units the scheduler fans out across
//! the worker pool, *interleaved with shards of every other ready
//! job*. Shard decomposition must depend only on the experiment's scale
//! parameters (never on thread count), so that a journal written by one
//! run resumes correctly under any `--jobs` value.

use itr_stats::json::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default per-shard watchdog deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Cooperative cancellation handle passed to every shard closure.
///
/// The watchdog raises the flag when the shard overruns its deadline;
/// well-behaved shards poll it between work items (e.g. between injected
/// faults) and return early. Shards that never poll are eventually
/// abandoned — quarantined in the journal while their worker thread is
/// replaced so the run keeps making progress.
#[derive(Debug, Clone, Default)]
pub struct ShardCtx {
    cancel: Arc<AtomicBool>,
}

impl ShardCtx {
    /// A context whose flag is shared with the watchdog.
    pub(crate) fn new(cancel: Arc<AtomicBool>) -> ShardCtx {
        ShardCtx { cancel }
    }

    /// `true` once the watchdog has asked this shard to stop.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// The closure executed for one shard. It returns the shard's payload:
/// free-form JSON that dependent jobs read from the blackboard and the
/// journal stores verbatim.
pub type ShardFn = Box<dyn FnOnce(&ShardCtx) -> Value + Send>;

/// One schedulable unit of a job.
pub struct ShardSpec {
    /// Index within the job (dense from 0; the journal key).
    pub index: u32,
    /// Inclusive lower bound of the seed/work range this shard covers
    /// (experiment-defined: fault indices, workload seeds, …).
    pub seed_lo: u64,
    /// Exclusive upper bound of the covered range.
    pub seed_hi: u64,
    /// Watchdog deadline for this shard.
    pub deadline: Duration,
    /// The work itself.
    pub run: ShardFn,
}

impl ShardSpec {
    /// A shard with the default deadline.
    pub fn new(
        index: u32,
        (seed_lo, seed_hi): (u64, u64),
        run: impl FnOnce(&ShardCtx) -> Value + Send + 'static,
    ) -> ShardSpec {
        ShardSpec { index, seed_lo, seed_hi, deadline: DEFAULT_DEADLINE, run: Box::new(run) }
    }

    /// Overrides the watchdog deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ShardSpec {
        self.deadline = deadline;
        self
    }
}

/// Builds a job's shards once its dependencies have completed.
pub type BuildFn = Box<dyn FnOnce(&Blackboard) -> Vec<ShardSpec> + Send>;

/// One registered experiment (or experiment slice).
pub struct JobSpec {
    /// Unique job name (`fig8:bzip`, `table1`, …).
    pub name: String,
    /// Names of jobs that must complete first.
    pub deps: Vec<String>,
    /// Shard factory, invoked when the dependencies are done.
    pub build: BuildFn,
}

impl JobSpec {
    /// A job whose shards are built from the dependency blackboard.
    pub fn new(
        name: impl Into<String>,
        deps: &[&str],
        build: impl FnOnce(&Blackboard) -> Vec<ShardSpec> + Send + 'static,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            build: Box::new(build),
        }
    }

    /// Convenience: a single-shard job.
    pub fn single(
        name: impl Into<String>,
        deps: &[&str],
        run: impl FnOnce(&ShardCtx, &Blackboard) -> Value + Send + 'static,
    ) -> JobSpec {
        JobSpec::new(name, deps, move |board: &Blackboard| {
            // The blackboard snapshot the shard needs is only borrowable
            // inside `build`, so capture the pieces eagerly via a clone.
            let board = board.clone();
            vec![ShardSpec::new(0, (0, 1), move |ctx: &ShardCtx| run(ctx, &board))]
        })
    }
}

/// A completed shard, as exposed to dependent jobs and the summary.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Shard index within its job.
    pub index: u32,
    /// Covered seed range (journal accounting).
    pub seed_lo: u64,
    /// Exclusive upper bound of the covered range.
    pub seed_hi: u64,
    /// The shard's output.
    pub payload: Value,
    /// `true` when the payload was replayed from the journal.
    pub from_journal: bool,
    /// Wall-clock milliseconds the shard took (0 when journaled).
    pub elapsed_ms: u64,
}

/// A shard removed from the run by the watchdog (or a panic).
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// Shard index within its job.
    pub index: u32,
    /// Covered seed range — the (workload, seed) pair to investigate.
    pub seed_lo: u64,
    /// Exclusive upper bound of the covered range.
    pub seed_hi: u64,
    /// Why the shard was quarantined.
    pub reason: String,
}

/// Completed state of one job.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Completed shards, ordered by shard index.
    pub shards: Vec<ShardRecord>,
    /// Quarantined shards, ordered by shard index.
    pub quarantined: Vec<QuarantineRecord>,
}

impl JobResult {
    /// The shard payloads in shard-index order — the same order whatever
    /// the thread count or completion order.
    pub fn data(&self) -> impl Iterator<Item = &Value> {
        self.shards.iter().map(|s| &s.payload)
    }
}

/// Results of every finished job, keyed by name — the input to dependent
/// jobs' `build` closures.
#[derive(Debug, Clone, Default)]
pub struct Blackboard {
    jobs: BTreeMap<String, JobResult>,
}

impl Blackboard {
    /// Result of a finished job, if present.
    pub fn job(&self, name: &str) -> Option<&JobResult> {
        self.jobs.get(name)
    }

    /// Result of a finished job; panics with a clear message otherwise
    /// (a dependency bug in the registry, not a runtime condition).
    pub fn expect(&self, name: &str) -> &JobResult {
        self.jobs.get(name).unwrap_or_else(|| panic!("job `{name}` not on the blackboard"))
    }

    /// Iterates `(name, result)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JobResult)> {
        self.jobs.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub(crate) fn insert(&mut self, name: String, result: JobResult) {
        self.jobs.insert(name, result);
    }
}

/// The declarative experiment registry: named jobs plus a configuration
/// fingerprint that binds any journal written for this registry to the
/// exact scale parameters it was produced under.
pub struct Registry {
    jobs: Vec<JobSpec>,
    fingerprint: u64,
}

impl Registry {
    /// An empty registry for a configuration with the given fingerprint.
    pub fn new(fingerprint: u64) -> Registry {
        Registry { jobs: Vec::new(), fingerprint }
    }

    /// The configuration fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Registers a job.
    pub fn add(&mut self, job: JobSpec) {
        self.jobs.push(job);
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Registered job names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.jobs.iter().map(|j| j.name.as_str())
    }

    /// Validates the DAG: unique names, known dependencies, no cycles.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        for j in &self.jobs {
            if !seen.insert(j.name.as_str()) {
                return Err(format!("duplicate job name `{}`", j.name));
            }
        }
        for j in &self.jobs {
            for d in &j.deps {
                if !seen.contains(d.as_str()) {
                    return Err(format!("job `{}` depends on unknown job `{d}`", j.name));
                }
            }
        }
        // Kahn's algorithm; anything left over sits on a cycle.
        let mut indegree: HashMap<&str, usize> =
            self.jobs.iter().map(|j| (j.name.as_str(), j.deps.len())).collect();
        let mut dependents: HashMap<&str, Vec<&str>> = HashMap::new();
        for j in &self.jobs {
            for d in &j.deps {
                dependents.entry(d.as_str()).or_default().push(j.name.as_str());
            }
        }
        let mut ready: Vec<&str> =
            indegree.iter().filter(|(_, &d)| d == 0).map(|(&n, _)| n).collect();
        let mut done = 0usize;
        while let Some(n) = ready.pop() {
            done += 1;
            for &dep in dependents.get(n).map(Vec::as_slice).unwrap_or_default() {
                let e = indegree.get_mut(dep).expect("validated name");
                *e -= 1;
                if *e == 0 {
                    ready.push(dep);
                }
            }
        }
        if done != self.jobs.len() {
            return Err("dependency cycle among registered jobs".to_string());
        }
        Ok(())
    }

    /// Restricts the registry to the named jobs plus their transitive
    /// dependencies (the `--only` flag of `itr-repro`). Registration
    /// order is preserved, so shard interleaving and journal layout stay
    /// deterministic. Returns an error naming any unknown job.
    pub fn restrict(&mut self, names: &[&str]) -> Result<(), String> {
        let known: HashSet<&str> = self.jobs.iter().map(|j| j.name.as_str()).collect();
        for n in names {
            if !known.contains(n) {
                return Err(format!("unknown job `{n}` (known: {})", {
                    let mut v: Vec<&str> = known.iter().copied().collect();
                    v.sort_unstable();
                    v.join(", ")
                }));
            }
        }
        let deps_of: HashMap<&str, Vec<String>> =
            self.jobs.iter().map(|j| (j.name.as_str(), j.deps.clone())).collect();
        let mut keep: HashSet<String> = HashSet::new();
        let mut stack: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        while let Some(n) = stack.pop() {
            if keep.insert(n.clone()) {
                if let Some(deps) = deps_of.get(n.as_str()) {
                    stack.extend(deps.iter().cloned());
                }
            }
        }
        self.jobs.retain(|j| keep.contains(&j.name));
        Ok(())
    }

    pub(crate) fn into_jobs(self) -> Vec<JobSpec> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(name: &str, deps: &[&str]) -> JobSpec {
        JobSpec::new(name, deps, |_| vec![])
    }

    #[test]
    fn validate_accepts_a_dag() {
        let mut r = Registry::new(1);
        r.add(noop("a", &[]));
        r.add(noop("b", &["a"]));
        r.add(noop("c", &["a", "b"]));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicates_unknowns_cycles() {
        let mut r = Registry::new(1);
        r.add(noop("a", &[]));
        r.add(noop("a", &[]));
        assert!(r.validate().unwrap_err().contains("duplicate"));

        let mut r = Registry::new(1);
        r.add(noop("a", &["ghost"]));
        assert!(r.validate().unwrap_err().contains("unknown"));

        let mut r = Registry::new(1);
        r.add(noop("a", &["b"]));
        r.add(noop("b", &["a"]));
        assert!(r.validate().unwrap_err().contains("cycle"));
    }

    #[test]
    fn restrict_keeps_transitive_deps_in_registration_order() {
        let mut r = Registry::new(1);
        r.add(noop("a", &[]));
        r.add(noop("b", &["a"]));
        r.add(noop("c", &["b"]));
        r.add(noop("d", &[]));
        r.restrict(&["c"]).expect("known job");
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn restrict_rejects_unknown_jobs() {
        let mut r = Registry::new(1);
        r.add(noop("a", &[]));
        let err = r.restrict(&["ghost"]).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["a"], "registry unchanged on error");
    }

    #[test]
    fn job_result_folds_in_shard_order() {
        let shard = |i: u32, row: &str| ShardRecord {
            index: i,
            seed_lo: 0,
            seed_hi: 1,
            payload: Value::Str(row.to_string()),
            from_journal: false,
            elapsed_ms: 0,
        };
        let r =
            JobResult { shards: vec![shard(0, "first"), shard(1, "second")], quarantined: vec![] };
        let data: Vec<_> = r.data().filter_map(Value::as_str).collect();
        assert_eq!(data, vec!["first", "second"]);
    }
}
