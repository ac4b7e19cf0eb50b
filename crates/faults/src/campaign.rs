//! The fault campaign: golden reference, the sampled plan, faulty runs
//! over contiguous fault ranges.

use crate::classify::{classify, Observation, Outcome};
use crate::lockstep::{observe_passive, PrefixSet};
use itr_core::{ItrConfig, ItrMode, TraceBuilder, MAX_TRACE_LEN};
use itr_isa::Program;
use itr_sim::{CommitRecord, DecodeFault, Execution, PipelineConfig};
use itr_stats::{Report, SplitMix64, Unit};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Parameters of one fault-injection campaign (per benchmark).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of faults to inject (the paper uses 1000).
    pub faults: u32,
    /// Observation window in cycles after injection (the paper uses one
    /// million).
    pub window_cycles: u64,
    /// Faults strike a uniformly random decoded instruction in
    /// `[min_decode, max_decode)`.
    pub min_decode: u64,
    /// Exclusive upper bound of the injection point.
    pub max_decode: u64,
    /// RNG seed (printed with results for reproducibility).
    pub seed: u64,
    /// Read by nothing in the `itr-*` crates: campaigns run as fault-range
    /// shards on the caller's pool ([`Plan::run_range`]). Kept only
    /// because the benchmark package's struct literals still name it.
    pub threads: usize,
    /// ITR configuration for the monitored pipeline.
    pub itr: ItrConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            faults: 200,
            window_cycles: 100_000,
            min_decode: 100,
            max_decode: 20_000,
            seed: 0xD51F_2007,
            threads: 0,
            itr: ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() },
        }
    }
}

/// A fault a campaign can inject: a single-bit SEU ([`DecodeFault`]) or
/// any [`crate::FaultModel`]. One instance is one *logical* fault,
/// however many decodes it strikes, and is observed and classified once.
pub trait Fault: fmt::Debug {
    /// First decode index the fault can strike: the injection point the
    /// observer runs past before opening the window.
    fn first_strike(&self) -> u64;

    /// Expands the fault into the pipeline's fault-injection hooks.
    fn inject_into(&self, cfg: &mut PipelineConfig);

    /// The decode count from which the fault strikes no more, or `None`
    /// when no decode count bounds it. A passive run is compared with
    /// the clean run only from here on; a fault with `None` is observed
    /// for its whole window. (Strikes armed by a run's events, like a
    /// burst fault's, are the pipeline's to track:
    /// [`itr_sim::Pipeline::same_state`] counts a pending one as a
    /// difference.)
    fn strikes_end(&self) -> Option<u64>;
}

impl Fault for DecodeFault {
    fn first_strike(&self) -> u64 {
        self.nth_decode
    }

    fn inject_into(&self, cfg: &mut PipelineConfig) {
        cfg.faults.push(*self);
    }

    fn strikes_end(&self) -> Option<u64> {
        Some(self.nth_decode + 1)
    }
}

impl<F: Fault + ?Sized> Fault for &F {
    fn first_strike(&self) -> u64 {
        (**self).first_strike()
    }

    fn inject_into(&self, cfg: &mut PipelineConfig) {
        (**self).inject_into(cfg);
    }

    fn strikes_end(&self) -> Option<u64> {
        (**self).strikes_end()
    }
}

/// One injected fault and its classified outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord<F = DecodeFault> {
    /// The injected fault.
    pub fault: F,
    /// Classified outcome.
    pub outcome: Outcome,
}

/// The per-trace clean-signature map: the fault-free signature of the
/// first instance of each trace start PC in `exec`'s decode stream. This
/// is the ground truth [`crate::classify`] reads.
pub fn clean_signatures(exec: &Execution) -> HashMap<u64, u64> {
    let mut builder = TraceBuilder::new(MAX_TRACE_LEN);
    let mut sigs = HashMap::new();
    for (pc, signals) in exec.decodes() {
        if let Some(t) = builder.push(pc, &signals) {
            sigs.entry(t.start_pc).or_insert(t.signature);
        }
    }
    sigs
}

/// Runs one faulty execution in passive-ITR mode and collects the
/// observation for classification, along with the run's full
/// `itr-stats/v1` export (merged into the campaign report).
///
/// `golden` must be the *complete* committed stream of the fault-free
/// program (or at least cover every commit the faulty run can make
/// within the window) — commits past its end are counted as
/// architectural divergence. Public so the `itr-fuzz` fault-consistency
/// oracle can observe single faults outside a campaign.
pub fn observe_fault(
    program: &Program,
    fault: impl Fault,
    golden: &[CommitRecord],
    itr: ItrConfig,
    window_cycles: u64,
) -> (Observation, Report) {
    observe_passive(program, itr, golden, None, &fault, &[window_cycles])
        .pop()
        .expect("one window observed")
}

/// Splits `faults` into at most `shards` contiguous `[lo, hi)` ranges.
///
/// Empty ranges are never emitted: with fewer faults than shards the
/// trailing shards simply don't exist (the old chunking spawned workers
/// over empty chunks in that case). The decomposition depends only on
/// the two arguments — callers that keep them fixed get the same shard
/// boundaries on every run, which is what makes journaled shards
/// replayable under a different thread count.
pub fn shard_bounds(faults: u32, shards: u32) -> Vec<(u32, u32)> {
    if faults == 0 || shards == 0 {
        return Vec::new();
    }
    let chunk = faults.div_ceil(shards);
    let mut bounds = Vec::new();
    let mut lo = 0;
    while lo < faults {
        let hi = (lo + chunk).min(faults);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Precomputed per-campaign state shared by every shard: the golden
/// committed stream, the clean-signature map and the full sampled fault
/// list. Shards address `faults()` by `[lo, hi)` index range, so the
/// shard decomposition is a pure function of the campaign parameters —
/// never of thread count or scheduling.
///
/// Faulty runs fork from fault-free prefix snapshots, built by one clean
/// run on the first `run_range*` call and shared by every later call and
/// thread, and stop once they rejoin that clean run. Forked, cut and
/// fresh runs observe identically.
///
/// [`CampaignPlan`] samples SEUs, [`crate::ModelPlan`] instances of one
/// [`crate::ModelKind`]; the two constructors are all that differs.
pub struct Plan<F> {
    golden: Vec<CommitRecord>,
    clean_sigs: HashMap<u64, u64>,
    faults: Vec<F>,
    prefixes: OnceLock<PrefixSet>,
}

/// The plan of the paper's §4 campaign: single-bit SEUs on uniformly
/// random `(decode index, signal bit)` pairs.
pub type CampaignPlan = Plan<DecodeFault>;

/// The classified records and merged `itr-stats` report of one shard
/// (one contiguous fault range).
#[derive(Debug, Clone)]
pub struct CampaignShard<F = DecodeFault> {
    /// Records for the shard's fault range, in fault order.
    pub records: Vec<FaultRecord<F>>,
    /// Merged report of the shard's faulty runs plus its `campaign`
    /// outcome counters.
    pub report: Report,
}

impl<F> CampaignShard<F> {
    /// Appends the outcome tallies as a `campaign` section: one
    /// `injected` counter (faults injected and classified) plus one
    /// counter per outcome, listed for every outcome (zeros included) so
    /// all shards export the same counter set and the merged report is
    /// shard-decomposition-independent.
    fn seal(&mut self) {
        let mut campaign = vec![("injected", Unit::Events, self.records.len() as u64)];
        for outcome in Outcome::ALL {
            let n = self.records.iter().filter(|r| r.outcome == outcome).count();
            campaign.push((outcome.label(), Unit::Events, n as u64));
        }
        self.report.push_section("campaign", &campaign, &[]);
    }
}

impl CampaignPlan {
    /// Builds the golden references and samples the SEU list.
    pub fn new(program: &Program, cfg: &CampaignConfig) -> CampaignPlan {
        Plan::sample(program, cfg, cfg.seed, |rng, lo, hi| DecodeFault {
            nth_decode: rng.gen_range(lo..hi),
            bit: rng.gen_range(0..64),
        })
    }
}

impl<F> Plan<F> {
    /// Builds the golden references and draws `cfg.faults` faults from
    /// an RNG seeded with `seed`: `draw(rng, lo, hi)` samples one fault
    /// whose first strike lies in `[lo, hi)`.
    pub(crate) fn sample(
        program: &Program,
        cfg: &CampaignConfig,
        seed: u64,
        mut draw: impl FnMut(&mut SplitMix64, u64, u64) -> F,
    ) -> Plan<F> {
        // Golden streams must cover the longest possible faulty
        // observation: commits ≤ decodes before injection + width ×
        // window cycles.
        let golden_len = cfg.max_decode + cfg.window_cycles * 4 + 10_000;
        let exec = Execution::record(program, golden_len);
        let clean_sigs = clean_signatures(&exec);
        // Plans keep the stream for their lifetime; the decode signals
        // go, and so does the growth slack.
        let mut golden = exec.records;
        golden.shrink_to_fit();

        // Clamp the injection range to instructions the program actually
        // decodes (committed length is a lower bound on decoded length),
        // so every sampled fault materializes.
        let max_decode = cfg.max_decode.min(golden.len() as u64).max(cfg.min_decode + 1);
        let mut rng = SplitMix64::new(seed);
        let faults = (0..cfg.faults).map(|_| draw(&mut rng, cfg.min_decode, max_decode)).collect();
        Plan { golden, clean_sigs, faults, prefixes: OnceLock::new() }
    }

    /// The sampled fault list (index space for [`Plan::run_range`]).
    pub fn faults(&self) -> &[F] {
        &self.faults
    }

    /// The golden committed stream.
    pub fn golden(&self) -> &[CommitRecord] {
        &self.golden
    }

    /// The clean per-trace signature map.
    pub fn clean_signatures(&self) -> &HashMap<u64, u64> {
        &self.clean_sigs
    }
}

impl<F: Fault + Clone> Plan<F> {
    /// The clean run, built on first use for that use's `windows`.
    fn prefixes(&self, program: &Program, itr: ItrConfig, windows: &[u64]) -> &PrefixSet {
        self.prefixes.get_or_init(|| {
            let strikes = self.faults.iter().map(F::first_strike);
            PrefixSet::build(program, itr, &self.golden, strikes, windows)
        })
    }

    /// Faulty runs so far that stopped early because they rejoined the
    /// clean run: their state, commit count included, equalled the
    /// fault-free run's at a grid boundary once their fault could strike
    /// no more, and the rest of every window was derived from the clean
    /// run. Observations are the same either way; this only says how much
    /// simulation was skipped.
    pub fn rejoined_runs(&self) -> u64 {
        self.prefixes.get().map_or(0, PrefixSet::rejoined)
    }

    /// Observes fault `index` of [`Plan::faults`] at each of the strictly
    /// ascending `windows`: the observations and reports
    /// [`Plan::run_range_windows`] classifies and merges.
    pub fn observe(
        &self,
        program: &Program,
        cfg: &CampaignConfig,
        windows: &[u64],
        index: usize,
    ) -> Vec<(Observation, Report)> {
        let clean = self.prefixes(program, cfg.itr, windows);
        observe_passive(program, cfg.itr, &self.golden, Some(clean), &self.faults[index], windows)
    }

    /// Runs and classifies the faults in `[lo, hi)`.
    ///
    /// `cancelled` is polled between faulty runs; when it turns true the
    /// shard stops early and returns what it has (the harness treats a
    /// cancelled shard as quarantined, so a partial result is never
    /// journaled as complete).
    pub fn run_range(
        &self,
        program: &Program,
        cfg: &CampaignConfig,
        lo: u32,
        hi: u32,
        cancelled: &dyn Fn() -> bool,
    ) -> CampaignShard<F> {
        self.run_range_windows(program, cfg, &[cfg.window_cycles], lo, hi, cancelled)
            .pop()
            .expect("one window observed")
    }

    /// [`Plan::run_range`] fanned out over several observation windows:
    /// every fault in `[lo, hi)` is simulated **once** and classified at
    /// each boundary of the strictly ascending `windows`. Returns one
    /// [`CampaignShard`] per window, each identical to what `run_range`
    /// would produce for a campaign dedicated to that window.
    pub fn run_range_windows(
        &self,
        program: &Program,
        cfg: &CampaignConfig,
        windows: &[u64],
        lo: u32,
        hi: u32,
        cancelled: &dyn Fn() -> bool,
    ) -> Vec<CampaignShard<F>> {
        let mut shards: Vec<CampaignShard<F>> = windows
            .iter()
            .map(|_| CampaignShard { records: Vec::new(), report: Report::new() })
            .collect();
        for (i, fault) in self.faults.iter().enumerate().take(hi as usize).skip(lo as usize) {
            if cancelled() {
                break;
            }
            let observed = self.observe(program, cfg, windows, i);
            for ((obs, report), shard) in observed.into_iter().zip(&mut shards) {
                let outcome = classify(&obs, &self.clean_sigs);
                shard.records.push(FaultRecord { fault: fault.clone(), outcome });
                shard.report.merge(&report);
            }
        }
        for shard in &mut shards {
            shard.seal();
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;
    use itr_sim::{Pipeline, RunExit};
    use itr_workloads::kernels;

    fn small_campaign(faults: u32) -> CampaignConfig {
        CampaignConfig {
            faults,
            window_cycles: 20_000,
            min_decode: 20,
            max_decode: 2_000,
            seed: 1,
            ..CampaignConfig::default()
        }
    }

    /// The whole campaign as one `[0, faults)` range.
    fn run_whole(p: &Program, cfg: &CampaignConfig) -> CampaignShard {
        CampaignPlan::new(p, cfg).run_range(p, cfg, 0, cfg.faults, &|| false)
    }

    #[test]
    fn campaign_classifies_every_fault() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let shard = run_whole(&p, &small_campaign(40));
        assert_eq!(shard.records.len(), 40);
        assert_eq!(shard.report.counter("campaign", "injected"), Some(40));
        let classified: u64 =
            Outcome::ALL.iter().map(|o| shard.report.counter("campaign", o.label()).unwrap()).sum();
        assert_eq!(classified, 40);
    }

    #[test]
    fn tight_loop_faults_are_mostly_itr_detected() {
        // A hot loop re-executes its traces constantly, so the paper's
        // headline (most faults detected through the ITR cache) must show.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let shard = run_whole(&p, &small_campaign(60));
        let detected = shard.records.iter().filter(|r| r.outcome.itr_detected()).count();
        assert!(
            detected * 2 > shard.records.len(),
            "only {detected} of {} ITR-detected in a tight loop",
            shard.records.len()
        );
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let p = assemble(kernels::FIB.source).unwrap();
        let cfg = small_campaign(20);
        let a = run_whole(&p, &cfg);
        let b = run_whole(&p, &cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn campaign_identical_across_shard_decompositions() {
        // Records and the merged report must be a pure function of
        // (program, seed, faults): one `[0, n)` range and the same list
        // cut into shards and merged in order agree, also with more shards
        // than faults.
        let p = assemble(kernels::FIB.source).unwrap();
        let cfg = small_campaign(20);
        let whole = run_whole(&p, &cfg);
        assert_eq!(whole.report.counter("campaign", "injected"), Some(20));
        for shards in [8, 32] {
            let plan = CampaignPlan::new(&p, &cfg);
            let mut records = Vec::new();
            let mut report = Report::new();
            for (lo, hi) in shard_bounds(cfg.faults, shards) {
                let shard = plan.run_range(&p, &cfg, lo, hi, &|| false);
                records.extend(shard.records);
                report.merge(&shard.report);
            }
            assert_eq!(records, whole.records, "{shards} shards");
            assert_eq!(report.to_json(), whole.report.to_json(), "{shards} shards");
        }
    }

    #[test]
    fn shard_bounds_skips_empty_ranges() {
        assert_eq!(shard_bounds(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(shard_bounds(10, 4), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(shard_bounds(0, 4), vec![]);
        assert_eq!(shard_bounds(5, 0), vec![]);
        assert_eq!(shard_bounds(8, 1), vec![(0, 8)]);
        for (n, s) in [(1u32, 7u32), (13, 5), (64, 64), (100, 3)] {
            let bounds = shard_bounds(n, s);
            assert!(bounds.len() <= s as usize);
            assert!(bounds.iter().all(|&(lo, hi)| lo < hi), "empty range in {bounds:?}");
            assert_eq!(bounds.iter().map(|&(lo, hi)| hi - lo).sum::<u32>(), n);
            assert_eq!(bounds.first().map(|b| b.0), Some(0));
            assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0), "gap in {bounds:?}");
        }
    }

    #[test]
    fn multi_window_fanout_matches_per_window_campaigns() {
        // One simulated execution per fault, observed at three window
        // boundaries, must classify and report exactly like three
        // dedicated single-window campaigns.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let windows = [5_000u64, 20_000, 80_000];
        let cfg = CampaignConfig { window_cycles: *windows.last().unwrap(), ..small_campaign(12) };
        let plan = CampaignPlan::new(&p, &cfg);
        let fanned = plan.run_range_windows(&p, &cfg, &windows, 0, 12, &|| false);
        assert_eq!(fanned.len(), windows.len());
        for (&w, shard) in windows.iter().zip(&fanned) {
            let cfg_w = CampaignConfig { window_cycles: w, ..cfg.clone() };
            let plan_w = CampaignPlan::new(&p, &cfg_w);
            let direct = plan_w.run_range(&p, &cfg_w, 0, 12, &|| false);
            assert_eq!(direct.records, shard.records, "window {w}");
            assert_eq!(direct.report.to_json(), shard.report.to_json(), "window {w}");
        }
    }

    #[test]
    fn run_range_respects_cancellation() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let cfg = small_campaign(10);
        let plan = CampaignPlan::new(&p, &cfg);
        let shard = plan.run_range(&p, &cfg, 0, 10, &|| true);
        assert!(shard.records.is_empty());
    }

    #[test]
    fn recovery_validated_in_active_mode() {
        // Take a fault classified as recoverable SDC in the passive run
        // and confirm active-mode ITR actually recovers it end-to-end.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let shard = run_whole(&p, &small_campaign(80));
        let candidate = shard
            .records
            .iter()
            .find(|r| r.outcome == Outcome::ItrSdcR)
            .expect("a recoverable SDC exists in 80 faults");
        let cfg = PipelineConfig { faults: vec![candidate.fault], ..PipelineConfig::with_itr() };
        let mut pipe = Pipeline::new(&p, cfg);
        let exit = pipe.run(5_000_000);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(pipe.output(), kernels::SUM_LOOP.expected_output);
        assert!(pipe.itr().unwrap().stats().recoveries >= 1);
    }
}
