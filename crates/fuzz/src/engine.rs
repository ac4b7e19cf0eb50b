//! The fuzzing engine: seed, schedule, mutate, evaluate, retain, shrink,
//! sync.
//!
//! The engine is a persistent [`Fuzzer`] value (the service mode and the
//! harness's generation-barrier sync drive it incrementally); the
//! original batch entry point [`run`] is a thin wrapper over it.
//!
//! Fully deterministic for a fixed [`FuzzConfig`]: every random choice
//! flows from one `SplitMix64` stream, the fault-consistency oracle and
//! the snapshot capture run on fixed cadences, and the exported
//! statistics are built from ordered containers — two runs with the same
//! seed and budget produce byte-identical stats and findings.

use crate::case::FuzzCase;
use crate::corpus::{seed_corpus, Corpus, CorpusStats, RegressionCase};
use crate::coverage::CoverageMap;
use crate::directed::{self, DirectedPlan};
use crate::mutate;
use crate::oracle::{self, OracleConfig, OracleKind};
use crate::schedule::{PowerSchedule, Schedule};
use crate::shrink::shrink;
use crate::snapshot::snapshot_cases;
use crate::sync::SyncRecord;
use itr_stats::json::Value;
use itr_stats::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};

/// Schema tag of the exported statistics document.
pub const STATS_SCHEMA: &str = "itr-fuzz-stats/v1";

/// Aggregate observed-edge set cap: once this many distinct
/// (branch_pc, dest_pc) edges are recorded, further inserts are dropped
/// (deterministically — the set serves gap *pruning*, so saturation
/// only makes plans conservative, never wrong).
const OBSERVED_EDGES_CAP: usize = 1 << 16;

/// Directed-plan cache bound; on overflow the cache is cleared whole
/// (deterministic, and stale plans against a grown observed set get
/// recomputed for free).
const GAP_PLAN_CAP: usize = 256;

/// Probability of generating a fresh case instead of mutating.
const FRESH_RATIO: f64 = 0.15;

/// Shrinker evaluation budget per finding.
const SHRINK_BUDGET: usize = 48;

/// Stop recording findings past this many (the loop keeps running for
/// coverage, but shrinking duplicates of a systemic bug is wasted work).
const MAX_FINDINGS: usize = 8;

/// Snapshots materialized per cadence point.
const SNAPSHOT_MAX: usize = 1;

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Mutation/evaluation iterations (seed evaluations not counted).
    pub iters: u64,
    /// Oracle budgets.
    pub oracle: OracleConfig,
    /// Run the fault-consistency oracle every `fault_every`-th iteration.
    pub fault_every: u64,
    /// Maximum retained corpus entries.
    pub corpus_cap: usize,
    /// Dynamic size of the seeded SPEC2K mimics.
    pub mimic_seed_instrs: u64,
    /// Skip workload seeding (unit tests and shrink-replay paths).
    pub skip_seeding: bool,
    /// Corpus selection policy.
    pub schedule: Schedule,
    /// Analysis-directed mutation: consult the `itr-gap/v1` plan of the
    /// picked parent and target its uncovered edges / never-formed
    /// traces instead of mutating blindly. Gap-closure accounting runs
    /// in *both* modes (the A/B currency must mean the same thing);
    /// only the mutation choice differs.
    pub directed: bool,
    /// Every `snapshot_every`-th iteration, materialize snapshot
    /// start-states from the most recent novelty-bearing case (0 = off).
    pub snapshot_every: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            iters: 1000,
            oracle: OracleConfig::default(),
            fault_every: 4,
            corpus_cap: 256,
            mimic_seed_instrs: 1500,
            skip_seeding: false,
            schedule: Schedule::Power,
            directed: false,
            snapshot_every: 64,
        }
    }
}

impl FuzzConfig {
    /// A small configuration for smoke tests and the harness's quick
    /// scale: tight budgets, few iterations, cheap faults.
    pub fn quick(seed: u64, iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters,
            oracle: OracleConfig { max_instrs: 600, fault_count: 1, window_cycles: 2500 },
            fault_every: 8,
            corpus_cap: 64,
            mimic_seed_instrs: 500,
            snapshot_every: 32,
            ..FuzzConfig::default()
        }
    }
}

/// Aggregate statistics of one fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzStats {
    /// Iterations executed (may stop early on cancellation).
    pub iterations: u64,
    /// Seed cases evaluated.
    pub seeds: u64,
    /// Total oracle evaluations: iterations + seeds + snapshot
    /// materializations + sync imports (the A/B currency).
    pub execs: u64,
    /// Coverage features lit.
    pub coverage: usize,
    /// Retained corpus size.
    pub corpus_len: usize,
    /// Order-insensitive digest of the retained corpus.
    pub corpus_digest: u64,
    /// Corpus growth/retention accounting.
    pub corpus: CorpusStats,
    /// Snapshot start-states materialized and evaluated.
    pub snapshot_cases: u64,
    /// Peer cases admitted through sync import.
    pub imported: u64,
    /// Total instructions the golden reference committed.
    pub golden_instrs: u64,
    /// Statically possible CFG edges that were open gaps in the parent's
    /// `itr-gap/v1` plan when a child first covered them (the directed
    /// A/B currency; counted identically in directed and blind modes).
    pub gap_closures: u64,
    /// Findings per oracle.
    pub findings_by_oracle: BTreeMap<&'static str, u64>,
}

impl FuzzStats {
    /// Total findings across oracles.
    pub fn findings(&self) -> u64 {
        self.findings_by_oracle.values().sum()
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Run statistics.
    pub stats: FuzzStats,
    /// Shrunken, deduplicated findings ready for persistence.
    pub findings: Vec<RegressionCase>,
    /// The retained corpus as sync records (what serve mode persists
    /// and what generation barriers exchange).
    pub corpus_records: Vec<SyncRecord>,
}

impl FuzzOutcome {
    /// The deterministic `itr-fuzz-stats/v1` export.
    pub fn stats_value(&self, cfg: &FuzzConfig) -> Value {
        let findings = self
            .stats
            .findings_by_oracle
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect();
        Value::Object(vec![
            ("schema".to_string(), Value::Str(STATS_SCHEMA.to_string())),
            ("seed".to_string(), Value::UInt(cfg.seed)),
            ("schedule".to_string(), Value::Str(cfg.schedule.label().to_string())),
            ("iterations".to_string(), Value::UInt(self.stats.iterations)),
            ("seeds".to_string(), Value::UInt(self.stats.seeds)),
            ("execs".to_string(), Value::UInt(self.stats.execs)),
            ("coverage".to_string(), Value::UInt(self.stats.coverage as u64)),
            ("corpus_len".to_string(), Value::UInt(self.stats.corpus_len as u64)),
            (
                "corpus_digest".to_string(),
                Value::Str(format!("{:#018x}", self.stats.corpus_digest)),
            ),
            ("corpus_evictions".to_string(), Value::UInt(self.stats.corpus.evictions)),
            (
                "corpus_forced_evictions".to_string(),
                Value::UInt(self.stats.corpus.forced_evictions),
            ),
            ("corpus_duplicates".to_string(), Value::UInt(self.stats.corpus.duplicates)),
            (
                "corpus_sole_cover".to_string(),
                Value::UInt(self.stats.corpus.sole_cover_features as u64),
            ),
            ("corpus_mean_age".to_string(), Value::UInt(self.stats.corpus.mean_age)),
            ("corpus_max_age".to_string(), Value::UInt(self.stats.corpus.max_age)),
            ("snapshot_cases".to_string(), Value::UInt(self.stats.snapshot_cases)),
            ("imported".to_string(), Value::UInt(self.stats.imported)),
            ("golden_instrs".to_string(), Value::UInt(self.stats.golden_instrs)),
            ("directed".to_string(), Value::Bool(cfg.directed)),
            ("gap_closures".to_string(), Value::UInt(self.stats.gap_closures)),
            ("findings_total".to_string(), Value::UInt(self.stats.findings())),
            ("findings".to_string(), Value::Object(findings)),
        ])
    }
}

/// Shrinks one finding down to a minimal reproducer.
fn shrink_finding(case: &FuzzCase, finding: &oracle::Finding, cfg: &FuzzConfig) -> RegressionCase {
    let mut reproduces =
        |c: &FuzzCase| oracle::replay(c, finding.kind, finding.fault, &cfg.oracle).is_some();
    let small = shrink(case, SHRINK_BUDGET, &mut reproduces);
    RegressionCase::new(small, finding, cfg.oracle.clone())
}

/// The persistent fuzzing engine: coverage map, scheduler state, corpus
/// and findings survive across [`Fuzzer::run_iters`] calls, so the serve
/// mode and the harness's generation-barrier sync can drive one campaign
/// incrementally.
pub struct Fuzzer {
    cfg: FuzzConfig,
    rng: SplitMix64,
    map: CoverageMap,
    power: PowerSchedule,
    corpus: Corpus,
    out: FuzzOutcome,
    finding_ids: Vec<(OracleKind, u64)>,
    iter: u64,
    last_novel: Option<FuzzCase>,
    /// Campaign-aggregate observed (branch_pc, dest_pc) edges — the
    /// compact dynamic side the gap engine diffs against, fed straight
    /// from `Evaluation::edges` (never re-derived from replays). All
    /// fuzz cases share the fixed text base, so the set acts as one
    /// AFL-style global edge map in PC space.
    observed: BTreeSet<(u64, u64)>,
    /// fingerprint → cached directed plan (see [`GAP_PLAN_CAP`]).
    gap_plans: BTreeMap<u64, DirectedPlan>,
    /// Gap edges already credited as closures (each counts once).
    closed_gaps: BTreeSet<(u64, u64)>,
}

impl Fuzzer {
    /// A fresh engine. Call [`seed`](Self::seed) before fuzzing unless
    /// `cfg.skip_seeding` is intended.
    pub fn new(cfg: FuzzConfig) -> Fuzzer {
        let rng = SplitMix64::new(cfg.seed ^ 0x17F2_0070_F22D_2007);
        let corpus = Corpus::new(cfg.corpus_cap);
        Fuzzer {
            cfg,
            rng,
            map: CoverageMap::new(),
            power: PowerSchedule::new(),
            corpus,
            out: FuzzOutcome::default(),
            finding_ids: Vec::new(),
            iter: 0,
            last_novel: None,
            observed: BTreeSet::new(),
            gap_plans: BTreeMap::new(),
            closed_gaps: BTreeSet::new(),
        }
    }

    /// Evaluates and retains the workload-suite seed corpus (a no-op
    /// when `cfg.skip_seeding` is set).
    pub fn seed(&mut self, cancelled: &dyn Fn() -> bool) {
        if self.cfg.skip_seeding {
            return;
        }
        for seed_case in seed_corpus(self.cfg.seed, self.cfg.mimic_seed_instrs) {
            if cancelled() {
                break;
            }
            let eval = oracle::evaluate(&seed_case, &self.cfg.oracle, false, &mut self.rng);
            self.out.stats.golden_instrs += eval.golden_len as u64;
            self.out.stats.seeds += 1;
            self.out.stats.execs += 1;
            self.observe_edges(&eval.edges);
            self.record_findings(&seed_case, &eval.findings);
            self.admit(seed_case, &eval.features, 0);
        }
    }

    /// Folds one evaluation's observed edges into the campaign
    /// aggregate, dropping inserts past [`OBSERVED_EDGES_CAP`].
    fn observe_edges(&mut self, edges: &[(u64, u64)]) {
        for &e in edges {
            if self.observed.len() >= OBSERVED_EDGES_CAP {
                break;
            }
            self.observed.insert(e);
        }
    }

    /// The cached (or freshly computed) directed plan for a corpus
    /// entry: its own golden execution plus the campaign aggregate,
    /// diffed against its static universe and CFG.
    fn plan_for(&mut self, fingerprint: u64, case: &FuzzCase) -> DirectedPlan {
        if let Some(p) = self.gap_plans.get(&fingerprint) {
            return p.clone();
        }
        let budget = self.cfg.oracle.max_instrs.min(1200);
        let plan = directed::plan(case, &self.observed, budget);
        if self.gap_plans.len() >= GAP_PLAN_CAP {
            self.gap_plans.clear();
        }
        self.gap_plans.insert(fingerprint, plan.clone());
        plan
    }

    /// Observes an evaluation's features and retains the case when it
    /// lit something new (seeds and imports are retained regardless —
    /// they are novelty-bearing by construction on their side of the
    /// transport, and set-union keeps the sync merge order-insensitive).
    /// Returns whether the corpus changed.
    fn admit(&mut self, case: FuzzCase, features: &[u32], depth: u32) -> bool {
        let novel: Vec<u32> = features.iter().copied().filter(|&f| !self.map.is_seen(f)).collect();
        self.power.observe(features);
        self.map.observe(features);
        let keep = !novel.is_empty() || depth == 0;
        if !keep {
            return false;
        }
        let pushed = self.corpus.push_with(case.clone(), features.to_vec(), novel, depth);
        if pushed {
            self.last_novel = Some(case);
        }
        pushed
    }

    /// One mutation/evaluation iteration, plus the snapshot cadence.
    pub fn step(&mut self) {
        let mut parent_fp = None;
        let mut plan: Option<DirectedPlan> = None;
        let (case, depth) = if self.corpus.is_empty() || self.rng.gen_bool(FRESH_RATIO) {
            let target = 24 + self.rng.gen_range(0usize..64);
            (mutate::fresh(&mut self.rng, target), 0)
        } else {
            let (parent, depth) = match self.cfg.schedule {
                Schedule::Power => {
                    let e = self.power.pick(&self.corpus, &mut self.rng).expect("non-empty");
                    parent_fp = Some(e.fingerprint);
                    (e.case.clone(), e.depth)
                }
                Schedule::Uniform => {
                    let parent = self.corpus.pick(&mut self.rng).cloned().expect("non-empty");
                    parent_fp = Some(parent.fingerprint());
                    (parent, 0)
                }
            };
            // The plan is computed in both modes so `gap_closures`
            // measures the same quantity in the directed-vs-blind A/B;
            // only the mutation below consults it.
            let p = self.plan_for(parent_fp.unwrap_or(0), &parent);
            let donor = if self.rng.gen_bool(0.5) {
                self.corpus.pick(&mut self.rng).cloned()
            } else {
                None
            };
            let child = if self.cfg.directed {
                directed::directed_mutate(&mut self.rng, &parent, &p)
                    .unwrap_or_else(|| mutate::mutate(&mut self.rng, &parent, donor.as_ref()))
            } else {
                mutate::mutate(&mut self.rng, &parent, donor.as_ref())
            };
            plan = Some(p);
            (child, depth + 1)
        };
        let with_faults =
            self.cfg.fault_every > 0 && self.iter.is_multiple_of(self.cfg.fault_every);
        let eval = oracle::evaluate(&case, &self.cfg.oracle, with_faults, &mut self.rng);
        self.out.stats.golden_instrs += eval.golden_len as u64;
        self.out.stats.iterations += 1;
        self.out.stats.execs += 1;
        self.observe_edges(&eval.edges);
        if let Some(plan) = &plan {
            let newly: Vec<(u64, u64)> = eval
                .edges
                .iter()
                .copied()
                .filter(|e| plan.uncovered_edges.contains(e) && !self.closed_gaps.contains(e))
                .collect();
            if !newly.is_empty() {
                self.out.stats.gap_closures += newly.len() as u64;
                self.closed_gaps.extend(newly);
                if let Some(fp) = parent_fp {
                    self.power.reward_gap(fp);
                }
            }
        }
        self.record_findings(&case, &eval.findings);
        if self.admit(case, &eval.features, depth) {
            if let Some(fp) = parent_fp {
                self.power.reward(fp);
            }
        }
        self.iter += 1;

        if self.cfg.snapshot_every > 0 && self.iter.is_multiple_of(self.cfg.snapshot_every) {
            self.snapshot_round();
        }
    }

    /// Materializes snapshot start-states from the most recent
    /// novelty-bearing case and evaluates them like any other input.
    fn snapshot_round(&mut self) {
        let Some(src) = self.last_novel.take() else { return };
        for m in snapshot_cases(&src, self.cfg.oracle.max_instrs, SNAPSHOT_MAX) {
            if self.corpus.contains(m.fingerprint()) {
                continue;
            }
            let eval = oracle::evaluate(&m, &self.cfg.oracle, false, &mut self.rng);
            self.out.stats.golden_instrs += eval.golden_len as u64;
            self.observe_edges(&eval.edges);
            self.out.stats.execs += 1;
            self.out.stats.snapshot_cases += 1;
            self.record_findings(&m, &eval.findings);
            self.admit(m, &eval.features, 0);
        }
    }

    /// Runs up to `n` iterations, polling `cancelled` between them.
    /// Returns how many ran.
    pub fn run_iters(&mut self, n: u64, cancelled: &dyn Fn() -> bool) -> u64 {
        for done in 0..n {
            if cancelled() {
                return done;
            }
            self.step();
        }
        n
    }

    /// Imports peer sync records: already-retained fingerprints are
    /// skipped outright (making re-imports true no-ops), everything else
    /// is evaluated locally — the import both warms the local coverage
    /// map and checks the peer's case against this worker's oracles.
    /// Returns `(scanned, admitted)`.
    pub fn import(&mut self, records: &[SyncRecord]) -> (u64, u64) {
        let mut scanned = 0;
        let mut admitted = 0;
        for rec in records {
            if self.corpus.contains(rec.case.fingerprint()) {
                continue;
            }
            scanned += 1;
            let eval = oracle::evaluate(&rec.case, &self.cfg.oracle, false, &mut self.rng);
            self.out.stats.golden_instrs += eval.golden_len as u64;
            self.observe_edges(&eval.edges);
            self.out.stats.execs += 1;
            self.record_findings(&rec.case, &eval.findings);
            if self.admit(rec.case.clone(), &eval.features, 0) {
                admitted += 1;
                self.out.stats.imported += 1;
            }
        }
        (scanned, admitted)
    }

    /// Everything retained right now, as sync records (for corpus
    /// persistence in serve mode).
    pub fn export_corpus(&self) -> Vec<SyncRecord> {
        self.corpus
            .entries()
            .iter()
            .map(|e| SyncRecord { case: e.case.clone(), depth: e.depth })
            .collect()
    }

    /// Coverage features lit so far.
    pub fn coverage(&self) -> usize {
        self.map.covered()
    }

    /// The campaign-aggregate observed (branch_pc, dest_pc) edge set —
    /// the compact export the gap engine diffs against, accumulated from
    /// every oracle evaluation rather than re-derived from replays.
    pub fn observed_edges(&self) -> &BTreeSet<(u64, u64)> {
        &self.observed
    }

    /// Gap closures credited so far (the directed A/B currency).
    pub fn gap_closures(&self) -> u64 {
        self.out.stats.gap_closures
    }

    /// Total oracle evaluations so far.
    pub fn execs(&self) -> u64 {
        self.out.stats.execs
    }

    /// Mutation iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.out.stats.iterations
    }

    /// The shrunken findings recorded so far.
    pub fn findings(&self) -> &[RegressionCase] {
        &self.out.findings
    }

    /// The retained corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The engine configuration.
    pub fn config(&self) -> &FuzzConfig {
        &self.cfg
    }

    /// A point-in-time outcome (stats + findings so far).
    pub fn outcome(&self) -> FuzzOutcome {
        let mut out = self.out.clone();
        out.stats.coverage = self.map.covered();
        out.stats.corpus_len = self.corpus.len();
        out.stats.corpus_digest = self.corpus.digest();
        out.stats.corpus = self.corpus.stats();
        out.corpus_records = self.export_corpus();
        out
    }

    /// Consumes the engine into its final outcome.
    pub fn finish(self) -> FuzzOutcome {
        self.outcome()
    }

    /// Shrinks and records findings, deduplicating by (oracle, shrunken
    /// fingerprint) and respecting the findings cap.
    fn record_findings(&mut self, case: &FuzzCase, findings: &[oracle::Finding]) {
        for finding in findings {
            *self.out.stats.findings_by_oracle.entry(finding.kind.label()).or_insert(0) += 1;
            if self.out.findings.len() >= MAX_FINDINGS {
                continue;
            }
            let rc = shrink_finding(case, finding, &self.cfg);
            let id = (rc.kind, rc.case.fingerprint());
            if self.finding_ids.contains(&id) {
                continue;
            }
            self.finding_ids.push(id);
            self.out.findings.push(rc);
        }
    }
}

/// Runs one batch fuzzing campaign. `cancelled` is polled between
/// iterations; a `true` return stops the loop early (the outcome
/// reflects the work done so far).
pub fn run(cfg: &FuzzConfig, cancelled: &dyn Fn() -> bool) -> FuzzOutcome {
    let mut fuzzer = Fuzzer::new(cfg.clone());
    fuzzer.seed(cancelled);
    fuzzer.run_iters(cfg.iters, cancelled);
    fuzzer.finish()
}

/// One directed-vs-blind gap-closure race (`itr-fuzz gap-ab` and the
/// repro's `gap-ab` job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapRace {
    /// Gaps the blind engine closed over the whole budget.
    pub blind_closures: u64,
    /// The closure target: 95% of `blind_closures`, rounded up.
    pub target: u64,
    /// Execs the blind engine spent reaching `target` (its total when a
    /// target of 0 is met before the first step).
    pub blind_execs: u64,
    /// Gaps the directed engine closed when it stopped.
    pub directed_closures: u64,
    /// Execs the directed engine spent.
    pub directed_execs: u64,
}

/// Races analysis-directed against blind mutation on `cfg`. The blind
/// engine runs the full `cfg.iters` budget, recording its gap-closure
/// trajectory; the directed engine runs until it closes 95% of the blind
/// total (the last closures are seed luck, the bulk of the curve is
/// signal), capped at 4x the budget so a regression still terminates.
/// Gap accounting runs identically in both engines; only the mutation
/// policy differs.
pub fn gap_race(cfg: &FuzzConfig) -> GapRace {
    let mut blind = Fuzzer::new(FuzzConfig { directed: false, ..cfg.clone() });
    blind.seed(&|| false);
    let mut trajectory = vec![(blind.execs(), blind.gap_closures())];
    for _ in 0..cfg.iters {
        blind.step();
        trajectory.push((blind.execs(), blind.gap_closures()));
    }
    let target = (blind.gap_closures() * 95).div_ceil(100);
    let blind_execs =
        trajectory.iter().find(|&&(_, c)| c >= target).map_or_else(|| blind.execs(), |&(e, _)| e);

    let mut directed = Fuzzer::new(FuzzConfig { directed: true, ..cfg.clone() });
    directed.seed(&|| false);
    while directed.gap_closures() < target && directed.iterations() < cfg.iters * 4 {
        directed.step();
    }
    GapRace {
        blind_closures: blind.gap_closures(),
        target,
        blind_execs,
        directed_closures: directed.gap_closures(),
        directed_execs: directed.execs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tiny_cfg(seed: u64, iters: u64) -> FuzzConfig {
        FuzzConfig {
            oracle: OracleConfig { max_instrs: 400, fault_count: 1, window_cycles: 2000 },
            fault_every: 8,
            skip_seeding: true,
            ..FuzzConfig::quick(seed, iters)
        }
    }

    #[test]
    fn the_engine_is_deterministic() {
        let cfg = tiny_cfg(1, 24);
        let a = run(&cfg, &|| false);
        let b = run(&cfg, &|| false);
        assert_eq!(a.stats.corpus_digest, b.stats.corpus_digest);
        assert_eq!(a.stats_value(&cfg).to_json(), b.stats_value(&cfg).to_json());
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn uniform_schedule_is_also_deterministic() {
        let cfg = FuzzConfig { schedule: Schedule::Uniform, ..tiny_cfg(5, 24) };
        let a = run(&cfg, &|| false);
        let b = run(&cfg, &|| false);
        assert_eq!(a.stats_value(&cfg).to_json(), b.stats_value(&cfg).to_json());
    }

    #[test]
    fn coverage_and_corpus_grow() {
        let out = run(&tiny_cfg(2, 24), &|| false);
        assert_eq!(out.stats.iterations, 24);
        assert!(out.stats.coverage > 0);
        assert!(out.stats.corpus_len > 0);
        assert!(out.stats.golden_instrs > 0);
        assert!(out.stats.execs >= out.stats.iterations);
    }

    #[test]
    fn cancellation_stops_the_loop_early() {
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        let out = run(&tiny_cfg(3, 1000), &|| {
            calls.set(calls.get() + 1);
            calls.get() > 5
        });
        assert!(out.stats.iterations <= 5);
    }

    #[test]
    fn seeding_pulls_in_the_workload_suite() {
        let cfg = FuzzConfig { skip_seeding: false, ..tiny_cfg(4, 0) };
        let out = run(&cfg, &|| false);
        assert!(out.stats.seeds >= 8, "expected suite seeds, got {}", out.stats.seeds);
        assert!(out.stats.corpus_len as u64 <= out.stats.seeds.max(cfg.corpus_cap as u64));
        assert!(
            out.findings.is_empty(),
            "workload seeds must pass the oracles: {:?}",
            out.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    #[test]
    fn import_merge_is_idempotent_and_commutative() {
        // Two workers diverge, then exchange exports. Union of retained
        // fingerprints must be order-insensitive and re-import a no-op.
        let mk = |seed| {
            let mut f = Fuzzer::new(FuzzConfig { corpus_cap: 512, ..tiny_cfg(seed, 12) });
            f.run_iters(12, &|| false);
            f
        };
        let mut a = mk(10);
        let mut b = mk(11);
        let ex_a = a.export_corpus();
        let ex_b = b.export_corpus();

        let (_, admitted_ab) = a.import(&ex_b);
        let (_, admitted_ba) = b.import(&ex_a);
        assert!(admitted_ab > 0 && admitted_ba > 0, "workers had something to trade");
        assert_eq!(a.corpus().digest(), b.corpus().digest(), "A∪B == B∪A");

        // Re-importing the same export changes nothing and costs nothing.
        let execs_before = a.execs();
        let (scanned, admitted) = a.import(&ex_b);
        assert_eq!((scanned, admitted), (0, 0), "re-import is a no-op");
        assert_eq!(a.execs(), execs_before, "no-op import consumes no execs");
        assert_eq!(a.corpus().digest(), b.corpus().digest());
    }

    #[test]
    fn directed_mode_is_deterministic_and_closes_gaps() {
        let cfg = FuzzConfig { directed: true, ..tiny_cfg(8, 32) };
        let a = run(&cfg, &|| false);
        let b = run(&cfg, &|| false);
        assert_eq!(a.stats_value(&cfg).to_json(), b.stats_value(&cfg).to_json());
        assert!(a.stats.gap_closures > 0, "directed mode must close some gaps in 32 iters");
    }

    #[test]
    fn gap_accounting_runs_in_blind_mode_too() {
        // The A/B currency must be measured identically with directed
        // mutation off — otherwise the comparison is meaningless.
        let mut f = Fuzzer::new(tiny_cfg(9, 48));
        f.run_iters(48, &|| false);
        assert!(!f.observed_edges().is_empty(), "edges aggregate from every evaluation");
        // gap_closures may legitimately be zero this early; the stat
        // must at least be exported.
        let cfg = f.config().clone();
        let out = f.finish();
        assert!(out.stats_value(&cfg).to_json().contains("\"gap_closures\":"));
    }

    #[test]
    fn snapshot_cadence_materializes_start_states() {
        // A dense cadence over a seeded loop-heavy corpus must produce
        // snapshot cases within a modest budget.
        let mut f = Fuzzer::new(FuzzConfig { snapshot_every: 4, ..tiny_cfg(7, 40) });
        // Seed one loop-rich case directly.
        let case = gen::generate(&mut SplitMix64::new(77), 48);
        let eval = oracle::evaluate(&case, &f.cfg.oracle, false, &mut SplitMix64::new(0));
        f.admit(case, &eval.features, 0);
        f.run_iters(40, &|| false);
        let out = f.finish();
        assert!(out.stats.snapshot_cases > 0, "cadence must fire");
        assert!(out.findings.is_empty(), "snapshot cases must be oracle-clean");
    }
}
