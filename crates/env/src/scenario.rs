//! The scenario scheduler: N recorded programs time-sliced through one
//! shared ITR unit.
//!
//! Each program is recorded **once** as the decode stream of an
//! [`Execution`] ([`ScenarioProgram::record`]); the scheduler then
//! replays arbitrary interleavings of those recordings against a shared
//! [`ItrUnit`] and [`SequentialPcChecker`] — so a whole schedule sweep
//! (quantum × preemption × switch policy) costs one functional
//! simulation per program, never one per schedule.
//!
//! A context switch does what an OS would do to the ITR hardware:
//!
//! * the in-flight window is flushed ([`ItrUnit::on_full_flush`]) and
//!   the SPC re-seeded at the incoming program's resume PC;
//! * under [`SwitchPolicy::FlushOnSwitch`] the ITR cache is invalidated
//!   wholesale — every line that was never referenced forfeits the
//!   detection coverage of its inserting instance (tracked via
//!   [`FlushSummary`], separate from capacity-eviction loss so the two
//!   causes stay distinguishable);
//! * under [`SwitchPolicy::PolluteOnSwitch`] the cache is left alone:
//!   the next program's working set evicts lines the natural way, and
//!   surviving lines are warm again when their owner is rescheduled.

use itr_core::{FlushSummary, ItrConfig, ItrMode, ItrUnit, SequentialPcChecker, UnitStats};
use itr_isa::{DecodeSignals, Program, SignalFlags};
use itr_sim::Execution;
use itr_stats::SplitMix64;

/// What happens to the ITR cache at a context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SwitchPolicy {
    /// The OS invalidates the whole ITR cache at every switch.
    FlushOnSwitch,
    /// The cache is left intact; programs pollute each other's lines.
    PolluteOnSwitch,
}

impl SwitchPolicy {
    /// Both policies, in report order.
    pub const ALL: [SwitchPolicy; 2] = [SwitchPolicy::FlushOnSwitch, SwitchPolicy::PolluteOnSwitch];

    /// Stable label used in reports and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            SwitchPolicy::FlushOnSwitch => "flush",
            SwitchPolicy::PolluteOnSwitch => "pollute",
        }
    }
}

/// When context switches happen, measured in dispatched instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preemption {
    /// A fixed quantum: switch every `quantum` dispatches.
    Periodic {
        /// Dispatches per time slice (≥ 1).
        quantum: u64,
    },
    /// Random preemption: each slice draws uniformly from
    /// `[1, 2 * mean_quantum)`, so slices average `mean_quantum`.
    Random {
        /// Mean dispatches per time slice (≥ 1).
        mean_quantum: u64,
        /// RNG seed (the schedule is a pure function of it).
        seed: u64,
    },
}

impl Preemption {
    fn first_rng(&self) -> SplitMix64 {
        match *self {
            Preemption::Periodic { .. } => SplitMix64::new(0),
            Preemption::Random { seed, .. } => SplitMix64::new(seed),
        }
    }

    fn next_quantum(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            Preemption::Periodic { quantum } => quantum.max(1),
            Preemption::Random { mean_quantum, .. } => {
                let mean = mean_quantum.max(1);
                rng.gen_range(1..2 * mean)
            }
        }
    }

    /// Stable label used in reports and CSVs.
    pub fn label(&self) -> &'static str {
        match self {
            Preemption::Periodic { .. } => "periodic",
            Preemption::Random { .. } => "random",
        }
    }
}

/// One program's recorded decode stream, relocated to its own PC
/// region so distinct programs never alias the same trace start PCs
/// (they still contend for the same sets, like processes sharing a
/// virtually-indexed structure).
#[derive(Debug, Clone)]
pub struct ScenarioProgram {
    /// Workload label.
    pub name: String,
    /// `(pc, signals)` per dispatch, PC offset applied.
    decodes: Vec<(u64, DecodeSignals)>,
}

impl ScenarioProgram {
    /// Records `program` functionally for at most `max_instrs`
    /// instructions and relocates its PCs by `pc_offset`. This is the
    /// once-per-program simulation every schedule reuses.
    pub fn record(
        program: &Program,
        name: &str,
        max_instrs: u64,
        pc_offset: u64,
    ) -> ScenarioProgram {
        let exec = Execution::record(program, max_instrs);
        let decodes: Vec<(u64, DecodeSignals)> =
            exec.decodes().map(|(pc, signals)| (pc + pc_offset, signals)).collect();
        assert!(!decodes.is_empty(), "{name}: empty recording");
        ScenarioProgram { name: name.to_string(), decodes }
    }

    /// Recorded dispatch count (the stream cycles past this).
    pub fn len(&self) -> usize {
        self.decodes.len()
    }

    /// `true` if the recording is empty (never: `record` rejects it).
    pub fn is_empty(&self) -> bool {
        self.decodes.is_empty()
    }
}

/// Configuration of one interleaved scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// ITR geometry for the shared unit. The mode is forced to
    /// [`ItrMode::Passive`] and `cache_read_latency` to 0 (the recorded
    /// streams carry no cycle timestamps).
    pub itr: ItrConfig,
    /// Cache treatment at context switches.
    pub policy: SwitchPolicy,
    /// Switch schedule.
    pub preemption: Preemption,
    /// Total dispatches across all programs.
    pub dispatch_budget: u64,
    /// Drive the shared sequential-PC checker too.
    pub spc: bool,
}

/// One program's share of an interleaved run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramShare {
    /// Workload label.
    pub name: String,
    /// Dispatches this program got.
    pub dispatches: u64,
    /// Shared-unit counter deltas attributed to this program's slices.
    pub stats: UnitStats,
}

/// Warm-up histogram bucket: trace probes at `lo..hi` dispatches after
/// a context switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmupBucket {
    /// Inclusive bucket start (dispatches since the last switch).
    pub lo: u64,
    /// Exclusive bucket end.
    pub hi: u64,
    /// ITR cache probes in the bucket.
    pub probes: u64,
    /// Probes that missed.
    pub misses: u64,
}

/// Number of power-of-two warm-up buckets ([0,16), [16,32), [32,64)…).
pub const WARMUP_BUCKETS: usize = 12;

/// Outcome of one interleaved scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Per-program attribution, in program order.
    pub per_program: Vec<ProgramShare>,
    /// Context switches taken.
    pub switches: u64,
    /// Accumulated cost of flush-on-switch invalidations (all zero under
    /// [`SwitchPolicy::PolluteOnSwitch`]).
    pub flush: FlushSummary,
    /// Whole-run shared-unit counters.
    pub total: UnitStats,
    /// Shared-SPC checks (0 when SPC is off).
    pub spc_checks: u64,
    /// Shared-SPC violations.
    pub spc_violations: u64,
    /// Probe/miss counts by distance-since-switch (the warm-up curve).
    pub warmup: [WarmupBucket; WARMUP_BUCKETS],
    /// Valid ITR lines at the end of the run.
    pub final_occupancy: usize,
}

impl ScenarioResult {
    /// Committed instructions whose detection coverage was lost, from
    /// both causes: capacity evictions of unreferenced lines *and*
    /// switch flushes of unreferenced lines.
    pub fn detection_loss_instrs(&self) -> u64 {
        self.total.detection_loss_instrs + self.flush.unreferenced_instrs
    }

    /// Detection loss as a percentage of committed instructions.
    pub fn detection_loss_pct(&self) -> f64 {
        pct(self.detection_loss_instrs(), self.total.instrs_committed)
    }

    /// Recovery loss (committed miss-trace instructions) as a
    /// percentage of committed instructions.
    pub fn recovery_loss_pct(&self) -> f64 {
        pct(self.total.recovery_loss_instrs, self.total.instrs_committed)
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    part as f64 * 100.0 / whole as f64
}

fn warmup_bucket(since_switch: u64) -> usize {
    // [0,16), [16,32), [32,64), … doubling; the last bucket is open.
    let mut lo = 16u64;
    for i in 0..WARMUP_BUCKETS - 1 {
        if since_switch < lo {
            return i;
        }
        lo *= 2;
    }
    WARMUP_BUCKETS - 1
}

fn warmup_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        return (0, 16);
    }
    let lo = 16u64 << (i - 1);
    if i == WARMUP_BUCKETS - 1 {
        (lo, u64::MAX)
    } else {
        (lo, lo * 2)
    }
}

fn stats_delta(now: UnitStats, then: UnitStats) -> UnitStats {
    UnitStats {
        traces_dispatched: now.traces_dispatched - then.traces_dispatched,
        traces_committed: now.traces_committed - then.traces_committed,
        instrs_committed: now.instrs_committed - then.instrs_committed,
        recovery_loss_instrs: now.recovery_loss_instrs - then.recovery_loss_instrs,
        detection_loss_instrs: now.detection_loss_instrs - then.detection_loss_instrs,
        mismatches: now.mismatches - then.mismatches,
        rob_forward_hits: now.rob_forward_hits - then.rob_forward_hits,
        retries: now.retries - then.retries,
        recoveries: now.recoveries - then.recoveries,
        machine_checks: now.machine_checks - then.machine_checks,
        parity_repairs: now.parity_repairs - then.parity_repairs,
    }
}

fn stats_add(into: &mut UnitStats, d: UnitStats) {
    into.traces_dispatched += d.traces_dispatched;
    into.traces_committed += d.traces_committed;
    into.instrs_committed += d.instrs_committed;
    into.recovery_loss_instrs += d.recovery_loss_instrs;
    into.detection_loss_instrs += d.detection_loss_instrs;
    into.mismatches += d.mismatches;
    into.rob_forward_hits += d.rob_forward_hits;
    into.retries += d.retries;
    into.recoveries += d.recoveries;
    into.machine_checks += d.machine_checks;
    into.parity_repairs += d.parity_repairs;
}

/// Runs one interleaved scenario: round-robin over `programs`, slices
/// drawn from the preemption schedule, all dispatches driving one
/// shared passive [`ItrUnit`]. Deterministic in its arguments.
pub fn run_scenario(programs: &[ScenarioProgram], cfg: &ScenarioConfig) -> ScenarioResult {
    assert!(!programs.is_empty(), "scenario needs at least one program");
    let itr = ItrConfig { mode: ItrMode::Passive, cache_read_latency: 0, ..cfg.itr };
    let mut unit = ItrUnit::new(itr);
    let mut spc = SequentialPcChecker::new();
    let mut rng = cfg.preemption.first_rng();

    let mut shares: Vec<ProgramShare> = programs
        .iter()
        .map(|p| ProgramShare { name: p.name.clone(), dispatches: 0, stats: UnitStats::default() })
        .collect();
    let mut warmup = [WarmupBucket::default(); WARMUP_BUCKETS];
    for (i, b) in warmup.iter_mut().enumerate() {
        let (lo, hi) = warmup_bounds(i);
        b.lo = lo;
        b.hi = hi;
    }

    let mut cursor = vec![0usize; programs.len()];
    let mut current = 0usize;
    let mut flush = FlushSummary::default();
    let mut switches = 0u64;
    let mut since_switch = 0u64;
    let mut slice_left = cfg.preemption.next_quantum(&mut rng);
    let mut slice_base = unit.stats();

    for _ in 0..cfg.dispatch_budget {
        if slice_left == 0 {
            // Context switch: attribute the slice, flush in-flight state,
            // apply the cache policy, reseed the SPC at the resume PC.
            stats_add(&mut shares[current].stats, stats_delta(unit.stats(), slice_base));
            unit.on_full_flush();
            let _ = unit.drain_events();
            if cfg.policy == SwitchPolicy::FlushOnSwitch {
                let s = unit.cache_mut().invalidate_all();
                flush.lines += s.lines;
                flush.unreferenced_lines += s.unreferenced_lines;
                flush.unreferenced_instrs += s.unreferenced_instrs;
            }
            switches += 1;
            current = (current + 1) % programs.len();
            if cfg.spc {
                let resume_pc = programs[current].decodes[cursor[current]].0;
                spc.reseed(resume_pc);
            }
            since_switch = 0;
            slice_left = cfg.preemption.next_quantum(&mut rng);
            slice_base = unit.stats();
        }
        let prog = &programs[current];
        let i = cursor[current];
        let (pc, signals) = prog.decodes[i];

        let probes_before = unit.cache().stats();
        let r = unit.on_dispatch(pc, &signals);
        if r.trace_end {
            unit.on_trace_end_commit(r.trace_seq);
        }
        let probes_after = unit.cache().stats();
        if probes_after.reads > probes_before.reads {
            let b = &mut warmup[warmup_bucket(since_switch)];
            b.probes += probes_after.reads - probes_before.reads;
            b.misses += probes_after.misses - probes_before.misses;
        }

        if cfg.spc {
            let next_i = (i + 1) % prog.len();
            // At the wrap the OS "restarts" the program: model the jump
            // back as a taken branch so the shared checker follows the
            // recording instead of flagging a spurious violation.
            let is_branch = signals.flags.contains(SignalFlags::IS_BRANCH) || next_i == 0;
            spc.check_and_advance(pc, is_branch, prog.decodes[next_i].0);
        }

        cursor[current] = (i + 1) % prog.len();
        shares[current].dispatches += 1;
        since_switch += 1;
        slice_left -= 1;
    }
    stats_add(&mut shares[current].stats, stats_delta(unit.stats(), slice_base));
    let _ = unit.drain_events();

    ScenarioResult {
        per_program: shares,
        switches,
        flush,
        total: unit.stats(),
        spc_checks: spc.checks(),
        spc_violations: spc.violations(),
        warmup,
        final_occupancy: unit.cache().occupancy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;
    use itr_workloads::kernels;

    fn two_programs() -> Vec<ScenarioProgram> {
        let a = assemble(kernels::SUM_LOOP.source).unwrap();
        let b = assemble(kernels::FIB.source).unwrap();
        vec![
            ScenarioProgram::record(&a, "sum_loop", 2_000, 0),
            ScenarioProgram::record(&b, "fib", 2_000, 0x10_0000),
        ]
    }

    fn cfg(policy: SwitchPolicy, quantum: u64) -> ScenarioConfig {
        ScenarioConfig {
            itr: ItrConfig::paper_default(),
            policy,
            preemption: Preemption::Periodic { quantum },
            dispatch_budget: 20_000,
            spc: true,
        }
    }

    #[test]
    fn budget_is_shared_and_attributed() {
        let programs = two_programs();
        let r = run_scenario(&programs, &cfg(SwitchPolicy::PolluteOnSwitch, 500));
        assert_eq!(r.per_program.iter().map(|p| p.dispatches).sum::<u64>(), 20_000);
        assert_eq!(r.switches, 39, "20k dispatches / 500-quantum slices");
        assert!(r.per_program.iter().all(|p| p.dispatches > 0));
        let attributed: u64 = r.per_program.iter().map(|p| p.stats.instrs_committed).sum();
        assert_eq!(attributed, r.total.instrs_committed, "deltas partition the totals");
    }

    #[test]
    fn scenario_is_deterministic() {
        let programs = two_programs();
        for policy in SwitchPolicy::ALL {
            let a = run_scenario(&programs, &cfg(policy, 230));
            let b = run_scenario(&programs, &cfg(policy, 230));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn random_preemption_is_deterministic_in_the_seed() {
        let programs = two_programs();
        let mk = |seed| ScenarioConfig {
            preemption: Preemption::Random { mean_quantum: 300, seed },
            ..cfg(SwitchPolicy::PolluteOnSwitch, 0)
        };
        let a = run_scenario(&programs, &mk(5));
        let b = run_scenario(&programs, &mk(5));
        let c = run_scenario(&programs, &mk(6));
        assert_eq!(a, b);
        assert_ne!(a.switches, 0);
        assert_ne!(a, c, "different seeds schedule differently");
    }

    #[test]
    fn no_switches_without_preemption_pressure() {
        let programs = two_programs();
        let r = run_scenario(&programs, &cfg(SwitchPolicy::FlushOnSwitch, 1_000_000));
        assert_eq!(r.switches, 0);
        assert_eq!(r.flush, FlushSummary::default());
        assert_eq!(r.per_program[1].dispatches, 0, "program B never scheduled");
    }

    #[test]
    fn flush_on_switch_costs_detection_coverage() {
        let programs = two_programs();
        let flush = run_scenario(&programs, &cfg(SwitchPolicy::FlushOnSwitch, 200));
        let pollute = run_scenario(&programs, &cfg(SwitchPolicy::PolluteOnSwitch, 200));
        assert!(flush.flush.lines > 0, "flushes invalidated lines");
        assert!(
            flush.detection_loss_instrs() > pollute.detection_loss_instrs(),
            "flush {} vs pollute {}",
            flush.detection_loss_instrs(),
            pollute.detection_loss_instrs()
        );
        // Pollute keeps warm lines across switches: strictly fewer misses.
        assert!(pollute.total.recovery_loss_instrs <= flush.total.recovery_loss_instrs);
        assert_eq!(pollute.flush, FlushSummary::default());
    }

    #[test]
    fn warmup_misses_concentrate_after_flush_switches() {
        let programs = two_programs();
        let r = run_scenario(&programs, &cfg(SwitchPolicy::FlushOnSwitch, 512));
        let (early, late): (Vec<_>, Vec<_>) = r.warmup.iter().partition(|b| b.hi <= 64);
        let rate = |bs: &[&WarmupBucket]| {
            let probes: u64 = bs.iter().map(|b| b.probes).sum();
            let misses: u64 = bs.iter().map(|b| b.misses).sum();
            misses as f64 / probes.max(1) as f64
        };
        assert!(
            rate(&early) > rate(&late),
            "cold-start misses must dominate right after a switch: early {:.3} late {:.3}",
            rate(&early),
            rate(&late)
        );
    }

    #[test]
    fn spc_follows_interleaved_streams_cleanly() {
        let programs = two_programs();
        let r = run_scenario(&programs, &cfg(SwitchPolicy::PolluteOnSwitch, 100));
        assert_eq!(r.spc_checks, 20_000);
        assert_eq!(r.spc_violations, 0, "reseeding at switches keeps the shared SPC clean");
    }
}
