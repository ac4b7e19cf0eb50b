//! The golden-vs-faulty lockstep driver behind every faulty run — the
//! passive observations here and `itr-recover`'s active recovery runs —
//! and the fault-free prefix snapshots passive runs fork from.
//!
//! A passive observation runs the faulty pipeline in 10,000-cycle chunks
//! until the fault's first strike has decoded, then observes it for one
//! or more windows. Chunk boundaries are absolute multiples of the chunk,
//! so where the observation window opens depends only on the cycle the
//! strike lands in — not on where the run started. Before its strike a
//! faulty run is bit-identical to the fault-free run, which is what
//! [`PrefixSet`] exploits: one clean run stores a snapshot at the
//! boundaries faults fork from, and each fault clones its boundary,
//! arms itself ([`Pipeline::arm`]) and runs on from there, producing
//! exactly the observation a fresh run would.

use crate::classify::Observation;
use itr_core::{ItrConfig, ItrEvent, ItrMode};
use itr_isa::Program;
use itr_sim::{CommitRecord, Pipeline, PipelineConfig, RunExit};
use itr_stats::Report;

/// Cycles between the pre-strike loop's checks for the strike.
const CHUNK: u64 = 10_000;

/// Pre-strike safety valve: a run still short of its strike past this
/// cycle is observed as it stands.
const MAX_PREFIX_CYCLES: u64 = 50_000_000;

/// The first chunk boundary after `cycle`.
fn next_boundary(cycle: u64) -> u64 {
    (cycle / CHUNK + 1) * CHUNK
}

/// `itr` in the passive mode every observation run uses.
fn passive(itr: ItrConfig) -> ItrConfig {
    ItrConfig { mode: ItrMode::Passive, ..itr }
}

/// The configuration of a passive observation run before its faults are
/// armed.
fn passive_config(itr: ItrConfig) -> PipelineConfig {
    PipelineConfig { itr: Some(passive(itr)), spc_check: true, ..PipelineConfig::default() }
}

fn is_mismatch(event: &(u64, ItrEvent)) -> bool {
    matches!(event.1, ItrEvent::Mismatch { .. })
}

/// A paused lockstep run without its golden stream: the pipeline plus how
/// far its commits have matched. Cloning one is a fork.
#[derive(Debug, Clone)]
pub(crate) struct PrefixSnapshot {
    pipe: Pipeline,
    commits: usize,
    diverged_at: Option<usize>,
}

/// A pipeline driven in lockstep with a golden committed stream: every
/// commit is compared with the golden record at the same index, and
/// commits past the golden stream's end count as divergence.
#[derive(Debug)]
pub struct Lockstep<'g> {
    state: PrefixSnapshot,
    golden: &'g [CommitRecord],
}

impl<'g> Lockstep<'g> {
    /// Starts from a fresh pipeline.
    pub fn new(pipe: Pipeline, golden: &'g [CommitRecord]) -> Lockstep<'g> {
        Lockstep { state: PrefixSnapshot { pipe, commits: 0, diverged_at: None }, golden }
    }

    /// The pipeline under test.
    pub fn pipeline(&self) -> &Pipeline {
        &self.state.pipe
    }

    /// Mutable access to the pipeline under test, for perturbations
    /// between runs (e.g. invalidating the ITR cache at a context
    /// switch).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.state.pipe
    }

    /// Instructions committed so far.
    pub fn commits(&self) -> usize {
        self.state.commits
    }

    /// Index of the first commit that differed from the golden stream.
    pub fn first_divergence(&self) -> Option<usize> {
        self.state.diverged_at
    }

    /// Runs until program exit or `max_cycles`, comparing every commit.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_until(max_cycles, usize::MAX)
    }

    /// [`Lockstep::run`] that also stops, with [`RunExit::Stopped`], once
    /// the run has made `max_commits` commits in total.
    pub fn run_until(&mut self, max_cycles: u64, max_commits: usize) -> RunExit {
        let golden = self.golden;
        let PrefixSnapshot { pipe, commits, diverged_at } = &mut self.state;
        pipe.run_with(max_cycles, |r| {
            if golden.get(*commits) != Some(r) {
                diverged_at.get_or_insert(*commits);
            }
            *commits += 1;
            *commits < max_commits
        })
    }

    /// Runs chunk by chunk until decode `first_strike` has happened, the
    /// program ends first (the fault never materializes), or the safety
    /// valve trips. Returns the cycle the observation window opens at.
    fn run_past(&mut self, first_strike: u64) -> u64 {
        loop {
            let exit = self.run(next_boundary(self.state.pipe.cycle()));
            let cycle = self.state.pipe.cycle();
            if self.state.pipe.stats().decoded > first_strike
                || exit != RunExit::CycleLimit
                || cycle > MAX_PREFIX_CYCLES
            {
                return cycle;
            }
        }
    }

    /// Runs past `first_strike`, then observes the run at each of the
    /// strictly ascending `windows` (cycles after the window opens),
    /// resuming the same run from one boundary to the next.
    ///
    /// [`Pipeline::run_with`] does not latch [`RunExit::CycleLimit`], so
    /// each boundary sees exactly the cycles a dedicated single-window
    /// run would.
    pub fn observe(mut self, first_strike: u64, windows: &[u64]) -> Vec<(Observation, Report)> {
        assert!(windows.windows(2).all(|w| w[0] < w[1]), "windows must be strictly ascending");
        let opened = self.run_past(first_strike);
        windows
            .iter()
            .map(|&window| {
                let exit = self.run(opened + window);
                self.observation(exit)
            })
            .collect()
    }

    /// The observation at the current point, with the run's `itr-stats`
    /// report.
    fn observation(&self, exit: RunExit) -> (Observation, Report) {
        let PrefixSnapshot { pipe, commits, diverged_at } = &self.state;
        // A run that halts or aborts earlier or later than the golden run
        // diverges architecturally too. Evaluated per observation: once
        // the run has ended it re-evaluates identically at every later
        // boundary.
        let sdc = diverged_at.is_some()
            || (matches!(exit, RunExit::Halted | RunExit::Aborted(_))
                && *commits != self.golden.len());
        // Mismatch and SPC counts come from the report; only a non-zero
        // mismatch count is resolved to its first event for the
        // signature detail.
        let report = pipe.stats_report();
        let first_mismatch = if report.counter("itr", "mismatches").unwrap_or(0) == 0 {
            None
        } else {
            pipe.itr_events().iter().find_map(|(_, e)| match e {
                ItrEvent::Mismatch { start_pc, cached_signature, new_signature, .. } => {
                    Some((*start_pc, *cached_signature, *new_signature))
                }
                _ => None,
            })
        };
        let resident_lines =
            pipe.itr().map(|u| u.cache().iter_lines().collect()).unwrap_or_default();
        let obs = Observation {
            sdc,
            deadlock: exit == RunExit::Deadlock,
            first_mismatch,
            spc_fired: report.counter("pipeline", "spc_violations").unwrap_or(0) > 0,
            resident_lines,
        };
        (obs, report)
    }
}

/// Observes one faulty run in passive-ITR mode at each of `windows`:
/// forked from `from` when given, else on a fresh pipeline. `inject` arms
/// the fault; `first_strike` is the first decode it can strike.
pub(crate) fn observe_passive(
    program: &Program,
    itr: ItrConfig,
    golden: &[CommitRecord],
    from: Option<&PrefixSnapshot>,
    inject: impl FnOnce(&mut PipelineConfig),
    first_strike: u64,
    windows: &[u64],
) -> Vec<(Observation, Report)> {
    let run = match from {
        // The snapshot was compared against the same golden stream.
        Some(snapshot) => {
            let mut state = snapshot.clone();
            state.pipe.arm(inject);
            Lockstep { state, golden }
        }
        None => {
            let mut cfg = passive_config(itr);
            inject(&mut cfg);
            Lockstep::new(Pipeline::new(program, cfg), golden)
        }
    };
    run.observe(first_strike, windows)
}

/// The fault-free prefix snapshots one plan's faults fork from.
///
/// Built by one clean passive run. A fault forks from the last chunk
/// boundary (after cycle 0) whose decoded count is at most its first
/// strike; only boundaries some planned strike forks from are stored.
/// The build stops at the first ITR mismatch the clean run shows, so every
/// snapshot's event log is mismatch-free and is dropped rather than
/// stored: the log is the bulk of a snapshot's size and, holding no
/// mismatch, cannot change an observation.
#[derive(Debug)]
pub(crate) struct PrefixSet {
    /// The passive ITR configuration the clean run used.
    itr: ItrConfig,
    /// `(decoded, snapshot)` in ascending order.
    snapshots: Vec<(u64, PrefixSnapshot)>,
}

impl PrefixSet {
    /// Runs `program` fault-free and keeps the boundaries `strikes` fork
    /// from.
    pub(crate) fn build(
        program: &Program,
        itr: ItrConfig,
        golden: &[CommitRecord],
        strikes: impl IntoIterator<Item = u64>,
    ) -> PrefixSet {
        let itr = passive(itr);
        let mut strikes: Vec<u64> = strikes.into_iter().collect();
        strikes.sort_unstable();
        let mut snapshots = Vec::new();
        let Some(&last) = strikes.last() else { return PrefixSet { itr, snapshots } };
        let mut run = Lockstep::new(Pipeline::new(program, passive_config(itr)), golden);
        loop {
            let cycle = run.state.pipe.cycle();
            let decoded = run.state.pipe.stats().decoded;
            run.state.pipe.take_itr_events();
            let boundary = (cycle > 0).then(|| run.state.clone());
            let exit = run.run(next_boundary(cycle));
            let after = run.state.pipe.stats().decoded;
            let ended = exit != RunExit::CycleLimit
                || run.state.pipe.cycle() > MAX_PREFIX_CYCLES
                || run.state.pipe.itr_events().iter().any(is_mismatch);
            // The boundary is the fork point of every strike in
            // `[decoded, after)`, and of every later one once the clean
            // run can go no further.
            let next = strikes.partition_point(|&s| s < decoded);
            let wanted = strikes.get(next).is_some_and(|&s| ended || s < after);
            if let (Some(snapshot), true) = (boundary, wanted) {
                snapshots.push((decoded, snapshot));
            }
            if ended || after > last {
                return PrefixSet { itr, snapshots };
            }
        }
    }

    /// The snapshot a passive run under `itr` whose fault first strikes
    /// decode `strike` forks from, or `None` to start fresh.
    pub(crate) fn fork_point(&self, itr: ItrConfig, strike: u64) -> Option<&PrefixSnapshot> {
        if passive(itr) != self.itr {
            return None;
        }
        let after = self.snapshots.partition_point(|(decoded, _)| *decoded <= strike);
        after.checked_sub(1).map(|i| &self.snapshots[i].1)
    }

    /// Number of stored snapshots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.snapshots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_sim::{DecodeFault, Execution};
    use itr_workloads::{generate_mimic_sized, profiles};

    fn mimic() -> Program {
        let profile = profiles::by_name("vortex").unwrap();
        generate_mimic_sized(profile, 1, 100_000)
    }

    #[test]
    fn stats_report_equals_the_json_round_trip() {
        // Observations hand `stats_report()` to the campaign report
        // directly; it must serialize exactly like the parsed export the
        // campaigns used to merge.
        let p = mimic();
        let golden = Execution::record(&p, 200_000).records;
        let itr = ItrConfig::paper_default();
        let mut merged_direct = Report::new();
        let mut merged_parsed = Report::new();
        for (k, nth) in [500u64, 30_000, 61_234, 97_000].into_iter().enumerate() {
            let fault = DecodeFault { nth_decode: nth, bit: (k as u32 * 17) % 64 };
            let cfg = PipelineConfig { faults: vec![fault], ..passive_config(itr) };
            let mut run = Lockstep::new(Pipeline::new(&p, cfg), &golden);
            run.run_past(fault.nth_decode);
            run.run(run.pipeline().cycle() + 5_000);
            let direct = run.pipeline().stats_report();
            let parsed = Report::from_json(&run.pipeline().stats_json()).unwrap();
            assert_eq!(direct.to_json(), parsed.to_json(), "fault {fault:?}");
            merged_direct.merge(&direct);
            merged_parsed.merge(&parsed);
        }
        assert_eq!(merged_direct.to_json(), merged_parsed.to_json());
    }

    #[test]
    fn prefix_set_keeps_only_the_boundaries_strikes_fork_from() {
        let p = mimic();
        let golden = Execution::record(&p, 200_000).records;
        let itr = ItrConfig::paper_default();
        let all = PrefixSet::build(&p, itr, &golden, 0..100_000);
        assert!(all.len() >= 3, "a 100k-instruction mimic spans three boundaries");
        for w in all.snapshots.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1.pipe.cycle() < w[1].1.pipe.cycle());
        }
        for (decoded, snapshot) in &all.snapshots {
            assert_eq!(snapshot.pipe.cycle() % CHUNK, 0);
            assert_eq!(*decoded, snapshot.pipe.stats().decoded);
            assert!(snapshot.pipe.itr_events().is_empty(), "logs are not stored");
        }
        // One strike keeps exactly its own boundary, the one `all` picks.
        let strike = 70_000;
        let one = PrefixSet::build(&p, itr, &golden, [strike]);
        assert_eq!(one.len(), 1);
        let picked = one.fork_point(itr, strike).unwrap();
        assert_eq!(picked.pipe.cycle(), all.fork_point(itr, strike).unwrap().pipe.cycle());
        // Strikes before the first boundary start fresh, as does a
        // different ITR configuration.
        assert!(one.fork_point(itr, 10).is_none());
        let other = ItrConfig { max_trace_len: itr.max_trace_len / 2, ..itr };
        assert!(one.fork_point(other, strike).is_none());
        assert_eq!(PrefixSet::build(&p, itr, &golden, [10, 20]).len(), 0);
    }
}
