//! The golden-vs-faulty lockstep driver behind every faulty run — the
//! passive observations here and `itr-recover`'s active recovery runs —
//! and the fault-free prefix snapshots passive runs fork from.
//!
//! A passive observation runs the faulty pipeline until the fault's first
//! strike has decoded, then observes it for one or more windows. Two
//! absolute grids pace it. Windows open on the 10,000-cycle chunk grid:
//! at the first chunk boundary where the strike has decoded, so where a
//! window opens depends only on the cycle the strike lands in, not on
//! where the run started. The run steps on the finer 2,000-cycle grid,
//! where the plan's clean run keeps its states. Before its strike a
//! faulty run is bit-identical to the fault-free run, which is what
//! [`PrefixSet`] exploits: one clean run stores a snapshot at the grid
//! boundaries faults fork from, and each fault clones its boundary, arms
//! itself ([`Pipeline::arm`]) and runs on from there, producing exactly
//! the observation a fresh run would. The same clean run goes on past the
//! last strike, so a faulty run whose state has become the clean run's
//! again stops there, before or after its window opens, and takes the
//! rest of its windows from it ([`Lockstep::observe`]).

use crate::campaign::Fault;
use crate::classify::Observation;
use itr_core::{ItrConfig, ItrEvent, ItrMode};
use itr_isa::Program;
use itr_sim::{CommitRecord, Pipeline, PipelineConfig, RunExit};
use itr_stats::Report;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cycles between the boundaries where observation windows open: the
/// first multiple of the chunk at which a fault's first strike has
/// decoded. The pre-strike safety valve is tested on this grid too, so
/// every observation is the same whatever grid runs step on.
const CHUNK: u64 = 10_000;

/// Cycles between the boundaries runs step to: where the plan's clean
/// run keeps states, faults fork from, and faulty runs are compared with
/// the clean run. Divides [`CHUNK`].
const STEP: u64 = 2_000;

/// Grid boundaries after each strike's decode at which the clean run
/// keeps a state for rejoin checks before the strike's window opens.
const EARLY_CHECKS: u32 = 2;

/// Pre-strike safety valve: a run still short of its strike past this
/// cycle is observed as it stands.
const MAX_PREFIX_CYCLES: u64 = 50_000_000;

/// The first grid boundary after `cycle`.
fn next_step(cycle: u64) -> u64 {
    (cycle / STEP + 1) * STEP
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

    /// Runs past `first_strike`, then observes the run at each of the
    /// strictly ascending `windows` (cycles after the window opens),
    /// resuming the same run from one boundary to the next.
    ///
    /// The window opens at the first chunk boundary where decode
    /// `first_strike` has happened, at the program's end if that comes
    /// first, or at the first chunk boundary past the safety valve. The
    /// run steps from grid boundary to grid boundary;
    /// [`Pipeline::run_with`] does not latch [`RunExit::CycleLimit`], so
    /// each boundary sees exactly the cycles a dedicated single-window
    /// run would. With `rejoin`, once the fault can strike no more the
    /// run is compared with the clean run at every grid boundary where
    /// the clean run kept a state; once it is in the clean run's state,
    /// every remaining window is assembled from the clean run instead of
    /// simulated ([`Lockstep::rejoined`]). A run cut before its window
    /// opens would have opened it at the next chunk boundary, since its
    /// strike has decoded.
    pub(crate) fn observe(
        mut self,
        first_strike: u64,
        windows: &[u64],
        rejoin: Option<Rejoin<'_>>,
    ) -> Vec<(Observation, Report)> {
        assert!(windows.windows(2).all(|w| w[0] < w[1]), "windows must be strictly ascending");
        let opened = loop {
            let exit = self.run(next_step(self.state.pipe.cycle()));
            let cycle = self.state.pipe.cycle();
            if exit != RunExit::CycleLimit {
                break cycle;
            }
            if self.state.pipe.stats().decoded > first_strike {
                let opened = cycle.next_multiple_of(CHUNK);
                if opened == cycle {
                    break opened;
                }
                if let Some(observed) =
                    rejoin.as_ref().and_then(|r| self.rejoined(r, opened, windows))
                {
                    return observed;
                }
            } else if cycle.is_multiple_of(CHUNK) && cycle > MAX_PREFIX_CYCLES {
                break cycle;
            }
        };
        let mut observed = Vec::with_capacity(windows.len());
        for (k, &window) in windows.iter().enumerate() {
            let end = opened + window;
            let exit = loop {
                if let Some(rest) =
                    rejoin.as_ref().and_then(|r| self.rejoined(r, opened, &windows[k..]))
                {
                    observed.extend(rest);
                    return observed;
                }
                let exit = self.run(next_step(self.state.pipe.cycle()).min(end));
                if exit != RunExit::CycleLimit || self.state.pipe.cycle() >= end {
                    break exit;
                }
            };
            observed.push(self.observation(exit));
        }
        observed
    }

    /// The observations at the window ends `opened + windows` if the run
    /// has rejoined the clean run here, else `None`.
    ///
    /// The run has rejoined when its fault can strike no more, it sits at
    /// a grid boundary the clean run kept a state for, and its commit
    /// count and state ([`Pipeline::same_state`]) equal that state's.
    /// From here on it commits, reports and exits exactly as the clean
    /// run does, so each window's report is this run's report plus the
    /// clean run's change up to the window end
    /// ([`Report::advanced_by`]), and the exit, commit count and
    /// resident ITR lines are the clean run's at the window end. The
    /// first divergence and the first mismatch stay this run's: the
    /// clean run matches the golden stream and shows no mismatch up to
    /// every window end it kept.
    fn rejoined(
        &self,
        rejoin: &Rejoin<'_>,
        opened: u64,
        windows: &[u64],
    ) -> Option<Vec<(Observation, Report)>> {
        let pipe = &self.state.pipe;
        if pipe.exit().is_some() || pipe.stats().decoded < rejoin.strikes_end {
            return None;
        }
        let clean = rejoin.set.state_at(pipe.cycle())?;
        if clean.commits != self.state.commits || !pipe.same_state(&clean.pipe) {
            return None;
        }
        let (cut, before) = (pipe.stats_report(), clean.pipe.stats_report());
        let observed = windows
            .iter()
            .map(|&window| {
                let end = rejoin.set.end_at(opened + window)?;
                let report = cut.advanced_by(&before, &end.report)?;
                Some(self.observation_at(end.exit, end.commits, report, end.resident_lines.clone()))
            })
            .collect::<Option<Vec<_>>>()?;
        rejoin.set.rejoined.fetch_add(1, Ordering::Relaxed);
        Some(observed)
    }

    /// The observation at the current point, with the run's `itr-stats`
    /// report.
    fn observation(&self, exit: RunExit) -> (Observation, Report) {
        let pipe = &self.state.pipe;
        let resident_lines =
            pipe.itr().map(|u| u.cache().iter_lines().collect()).unwrap_or_default();
        self.observation_at(exit, self.state.commits, pipe.stats_report(), resident_lines)
    }

    /// The observation of a run that exited with `exit` after `commits`
    /// commits, with `report` and `resident_lines`; the first divergence
    /// and the first mismatch are this run's.
    fn observation_at(
        &self,
        exit: RunExit,
        commits: usize,
        report: Report,
        resident_lines: Vec<(u64, u64)>,
    ) -> (Observation, Report) {
        // A run that halts or aborts earlier or later than the golden run
        // diverges architecturally too. Evaluated per observation: once
        // the run has ended it re-evaluates identically at every later
        // boundary.
        let sdc = self.state.diverged_at.is_some()
            || (matches!(exit, RunExit::Halted | RunExit::Aborted(_))
                && commits != self.golden.len());
        // Mismatch and SPC counts come from the report; only a non-zero
        // mismatch count is resolved to its first event for the
        // signature detail.
        let first_mismatch = if report.counter("itr", "mismatches").unwrap_or(0) == 0 {
            None
        } else {
            self.state.pipe.itr_events().iter().find_map(|(_, e)| match e {
                ItrEvent::Mismatch { start_pc, cached_signature, new_signature, .. } => {
                    Some((*start_pc, *cached_signature, *new_signature))
                }
                _ => None,
            })
        };
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

/// Observes one faulty run of `fault` in passive-ITR mode at each of
/// `windows`: with a `clean` run, forked from its snapshot before the
/// first strike and stopped once it rejoins it, else on a fresh pipeline
/// simulated in full.
pub(crate) fn observe_passive(
    program: &Program,
    itr: ItrConfig,
    golden: &[CommitRecord],
    clean: Option<&PrefixSet>,
    fault: &impl Fault,
    windows: &[u64],
) -> Vec<(Observation, Report)> {
    let first_strike = fault.first_strike();
    let from = clean.and_then(|c| c.fork_point(itr, first_strike));
    let rejoin = clean.and_then(|c| c.rejoin(itr, fault.strikes_end()));
    let inject = |c: &mut PipelineConfig| fault.inject_into(c);
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
    run.observe(first_strike, windows, rejoin)
}

/// What one fault-free run shows at a window end.
#[derive(Debug)]
struct WindowEnd {
    cycle: u64,
    commits: usize,
    exit: RunExit,
    report: Report,
    resident_lines: Vec<(u64, u64)>,
}

impl WindowEnd {
    /// The clean run's state at `cycle` (its final state once it exited).
    fn of(run: &Lockstep<'_>, cycle: u64) -> WindowEnd {
        let pipe = &run.state.pipe;
        WindowEnd {
            cycle,
            commits: run.state.commits,
            exit: pipe.exit().unwrap_or(RunExit::CycleLimit),
            report: pipe.stats_report(),
            resident_lines: pipe
                .itr()
                .map(|u| u.cache().iter_lines().collect())
                .unwrap_or_default(),
        }
    }
}

/// The clean run a passive run may rejoin, and the decode count from
/// which the run's fault can strike no more.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rejoin<'a> {
    set: &'a PrefixSet,
    strikes_end: u64,
}

/// One plan's fault-free run: the prefix snapshots its faults fork from,
/// and what faulty runs that rejoin it need.
///
/// Built by one clean passive run, extended past the last strike until
/// the last window of the build's `windows` closes. It keeps:
///
/// - a snapshot at every grid boundary (after cycle 0) some fault forks
///   from: the last boundary whose decoded count is at most its first
///   strike;
/// - a snapshot at each of the first [`EARLY_CHECKS`] grid boundaries
///   after a strike has decoded, but none at or past its window-open
///   chunk boundary, for rejoin checks before the window opens;
/// - a snapshot at every chunk boundary where some fault's window is
///   open (from its window-open boundary to its longest window's end),
///   for the rejoin comparison;
/// - at every window end, the report, resident ITR lines, exit and
///   commit count.
///
/// The run stops at its first ITR mismatch, its first divergence from
/// the golden stream or the pre-strike safety valve, so every snapshot's
/// event log is mismatch-free and is dropped rather than stored (the log
/// is the bulk of a snapshot's size and, holding no mismatch, cannot
/// change an observation), and no window end past that point is kept: a
/// run whose window ends there is never cut. Window ends of other window
/// lists than the build's are not kept either; runs observing them
/// simulate in full.
#[derive(Debug)]
pub(crate) struct PrefixSet {
    /// The passive ITR configuration the clean run used.
    itr: ItrConfig,
    /// `(decoded, snapshot)` in ascending cycle order.
    snapshots: Vec<(u64, PrefixSnapshot)>,
    /// Window ends in ascending cycle order.
    ends: Vec<WindowEnd>,
    /// Faulty runs that stopped early because they rejoined this run.
    rejoined: AtomicU64,
}

impl PrefixSet {
    /// Runs `program` fault-free and keeps what faults striking at
    /// `strikes` and observed at `windows` fork from and rejoin.
    pub(crate) fn build(
        program: &Program,
        itr: ItrConfig,
        golden: &[CommitRecord],
        strikes: impl IntoIterator<Item = u64>,
        windows: &[u64],
    ) -> PrefixSet {
        let itr = passive(itr);
        let mut strikes: Vec<u64> = strikes.into_iter().collect();
        strikes.sort_unstable();
        let mut set =
            PrefixSet { itr, snapshots: Vec::new(), ends: Vec::new(), rejoined: AtomicU64::new(0) };
        if strikes.is_empty() {
            return set;
        }
        let longest = windows.last().copied().unwrap_or(0);
        let mut run = Lockstep::new(Pipeline::new(program, passive_config(itr)), golden);
        // Strikes decoded and strikes whose window has opened, the grid
        // boundaries still to keep for recently decoded strikes, window
        // ends still ahead, and the cycle up to which chunk boundaries
        // are kept for rejoin checks.
        let (mut decoded_strikes, mut opened) = (0, 0);
        let mut early_checks = 0;
        let mut ends = BTreeSet::new();
        let mut checks_until = 0;
        // The last boundary's snapshot, kept once it is known whether a
        // fault forks from it: `(decoded, snapshot, checked)`.
        let mut boundary: Option<(u64, PrefixSnapshot, bool)> = None;
        loop {
            let cycle = run.state.pipe.cycle();
            let decoded = run.state.pipe.stats().decoded;
            run.state.pipe.take_itr_events();
            if cycle > 0 && cycle.is_multiple_of(STEP) {
                // The previous boundary is the fork point of every strike
                // in `[its decoded, decoded)`.
                set.keep(boundary.take(), &strikes, |s| s < decoded);
                let now_decoded = strikes.partition_point(|&s| s < decoded);
                if now_decoded > decoded_strikes && !windows.is_empty() {
                    early_checks = EARLY_CHECKS;
                }
                decoded_strikes = now_decoded;
                let checked = if cycle.is_multiple_of(CHUNK) {
                    // A strike decoded by now opens its window here.
                    early_checks = 0;
                    if decoded_strikes > opened {
                        opened = decoded_strikes;
                        ends.extend(windows.iter().map(|w| cycle + w));
                        checks_until = cycle + longest;
                    }
                    cycle < checks_until
                } else if early_checks > 0 {
                    early_checks -= 1;
                    true
                } else {
                    false
                };
                // Once every strike has decoded, none forks from here.
                if checked || decoded_strikes < strikes.len() {
                    boundary = Some((decoded, run.state.clone(), checked));
                }
            }
            if ends.first() == Some(&cycle) {
                ends.pop_first();
                set.ends.push(WindowEnd::of(&run, cycle));
            }
            if opened == strikes.len() && ends.is_empty() {
                set.keep(boundary, &strikes, |_| false);
                return set;
            }
            let next_end = ends.first().copied().unwrap_or(u64::MAX);
            let exit = run.run(next_step(cycle).min(next_end));
            let tainted = run.state.pipe.cycle() > MAX_PREFIX_CYCLES
                || run.state.diverged_at.is_some()
                || run.state.pipe.itr_events().iter().any(is_mismatch);
            if tainted || exit != RunExit::CycleLimit {
                // The clean run can go no further: its last boundary is
                // the fork point of every later strike, and, once it
                // exited untainted, its final state is what it shows at
                // every later window end.
                set.keep(boundary, &strikes, |_| true);
                if !tainted {
                    set.ends.extend(ends.into_iter().map(|end| WindowEnd::of(&run, end)));
                }
                return set;
            }
        }
    }

    /// Stores `boundary` if a rejoin check compares against it or it is
    /// the fork point of the first strike at or after its decoded count
    /// (`forks` says whether that strike forks from it).
    fn keep(
        &mut self,
        boundary: Option<(u64, PrefixSnapshot, bool)>,
        strikes: &[u64],
        forks: impl Fn(u64) -> bool,
    ) {
        if let Some((decoded, snapshot, checked)) = boundary {
            let next = strikes.partition_point(|&s| s < decoded);
            if checked || strikes.get(next).is_some_and(|&s| forks(s)) {
                self.snapshots.push((decoded, snapshot));
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

    /// What a passive run under `itr` may rejoin, when its fault can
    /// strike no more from decode count `strikes_end` on; `None` when
    /// the fault is never spent or the run used another configuration.
    pub(crate) fn rejoin(&self, itr: ItrConfig, strikes_end: Option<u64>) -> Option<Rejoin<'_>> {
        let strikes_end = strikes_end?;
        (passive(itr) == self.itr).then_some(Rejoin { set: self, strikes_end })
    }

    /// Faulty runs that stopped early because they rejoined this run.
    pub(crate) fn rejoined(&self) -> u64 {
        self.rejoined.load(Ordering::Relaxed)
    }

    /// The clean snapshot at `cycle`, if one was kept.
    fn state_at(&self, cycle: u64) -> Option<&PrefixSnapshot> {
        let i = self.snapshots.binary_search_by_key(&cycle, |(_, s)| s.pipe.cycle()).ok()?;
        Some(&self.snapshots[i].1)
    }

    /// The clean run's window end at `cycle`, if one was kept.
    fn end_at(&self, cycle: u64) -> Option<&WindowEnd> {
        let i = self.ends.binary_search_by_key(&cycle, |e| e.cycle).ok()?;
        Some(&self.ends[i])
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
            // Past the strike, to the chunk boundary its window opens at.
            while run.run(run.pipeline().cycle() + CHUNK) == RunExit::CycleLimit
                && run.pipeline().stats().decoded <= fault.nth_decode
            {}
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
        let all = PrefixSet::build(&p, itr, &golden, 0..100_000, &[]);
        assert!(all.len() >= 15, "a 100k-instruction mimic spans fifteen grid boundaries");
        for w in all.snapshots.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1.pipe.cycle() < w[1].1.pipe.cycle());
        }
        for (decoded, snapshot) in &all.snapshots {
            assert_eq!(snapshot.pipe.cycle() % STEP, 0);
            assert_eq!(*decoded, snapshot.pipe.stats().decoded);
            assert!(snapshot.pipe.itr_events().is_empty(), "logs are not stored");
        }
        // One strike keeps exactly its own boundary, the one `all` picks.
        let strike = 70_000;
        let one = PrefixSet::build(&p, itr, &golden, [strike], &[]);
        assert_eq!(one.len(), 1);
        let picked = one.fork_point(itr, strike).unwrap();
        assert_eq!(picked.pipe.cycle(), all.fork_point(itr, strike).unwrap().pipe.cycle());
        // Strikes before the first boundary start fresh, as does a
        // different ITR configuration.
        assert!(one.fork_point(itr, 10).is_none());
        let other = ItrConfig { max_trace_len: itr.max_trace_len / 2, ..itr };
        assert!(one.fork_point(other, strike).is_none());
        assert_eq!(PrefixSet::build(&p, itr, &golden, [10, 20], &[]).len(), 0);
    }

    #[test]
    fn prefix_set_keeps_clean_states_and_window_ends_for_rejoins() {
        let p = mimic();
        let golden = Execution::record(&p, 200_000).records;
        let itr = ItrConfig::paper_default();
        let strike = 30_000;
        let windows = [2_000, 15_000];
        let set = PrefixSet::build(&p, itr, &golden, [strike], &windows);
        let fork = set.fork_point(itr, strike).unwrap().pipe.cycle();
        // The strike decodes before the next grid boundary; clean states
        // are kept at the first two boundaries after it, none between
        // those and the first chunk boundary, where the window opens, and
        // at every chunk boundary while a window is open.
        let decoded = fork + STEP;
        let opened = decoded.next_multiple_of(CHUNK);
        assert!(decoded + 2 * STEP < opened, "the strike decodes early in its chunk");
        for cycle in [decoded, decoded + STEP, opened, opened + CHUNK] {
            let state = set.state_at(cycle).unwrap();
            assert!(state.pipe.itr_events().is_empty(), "logs are not stored");
        }
        for cycle in (decoded + 2 * STEP..opened).step_by(STEP as usize) {
            assert!(set.state_at(cycle).is_none(), "no state kept at {cycle}");
        }
        for cycle in (opened + STEP..opened + CHUNK).step_by(STEP as usize) {
            assert!(set.state_at(cycle).is_none(), "only chunk boundaries once open: {cycle}");
        }
        assert!(set.state_at(opened + 2 * CHUNK).is_none(), "the windows have closed");
        let short = PrefixSet::build(&p, itr, &golden, [strike], &windows[..1]);
        assert!(short.state_at(opened).is_some() && short.state_at(opened + CHUNK).is_none());
        for window in windows {
            let end = set.end_at(opened + window).unwrap();
            let mut clean = Lockstep::new(Pipeline::new(&p, passive_config(itr)), &golden);
            let exit = clean.run(opened + window);
            assert_eq!((end.exit, end.commits), (exit, clean.commits()));
            assert_eq!(end.report.to_json(), clean.pipeline().stats_report().to_json());
            let lines: Vec<(u64, u64)> =
                clean.pipeline().itr().unwrap().cache().iter_lines().collect();
            assert_eq!(end.resident_lines, lines);
        }
        assert!(set.rejoin(itr, Some(strike + 1)).is_some());
        assert!(set.rejoin(itr, None).is_none(), "an unbounded fault never rejoins");
        let other = ItrConfig { max_trace_len: itr.max_trace_len / 2, ..itr };
        assert!(set.rejoin(other, Some(strike + 1)).is_none());
    }
}
