//! Fork-equals-fresh: a fault campaign whose faulty runs fork from
//! fault-free prefix snapshots must classify and report exactly like
//! fresh runs that simulate every fault from cycle 0.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::core::{ItrConfig, ItrMode};
use itr::faults::{
    classify, observe_fault, CampaignConfig, CampaignPlan, CampaignShard, Fault, FaultModel,
    Lockstep, ModelKind, ModelPlan, Outcome, Plan,
};
use itr::isa::Program;
use itr::sim::{Pipeline, PipelineConfig};
use itr::stats::{Report, Unit};
use itr::workloads::{generate_mimic_sized, profiles};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Dynamic size of the mimic: its fault-free run spans three 10k-cycle
/// chunk boundaries and fifteen 2k-cycle grid boundaries, so faults fork
/// from several snapshots.
const INSTRS: u64 = 100_000;
const WINDOW: u64 = 5_000;

fn mimic() -> Program {
    generate_mimic_sized(profiles::by_name("vortex").unwrap(), 1, INSTRS)
}

fn passive() -> ItrConfig {
    ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() }
}

/// Faults struck in `[min_decode, max_decode)`.
fn cfg(faults: u32, min_decode: u64, max_decode: u64) -> CampaignConfig {
    CampaignConfig {
        faults,
        window_cycles: WINDOW,
        min_decode,
        max_decode,
        seed: 0xF02C,
        itr: passive(),
        ..CampaignConfig::default()
    }
}

/// The report a shard of fresh runs seals: the merged per-fault reports
/// plus the campaign's outcome counters.
fn sealed(reports: &[Report], outcomes: &[Outcome]) -> Report {
    let mut merged = Report::new();
    for r in reports {
        merged.merge(r);
    }
    let mut campaign = vec![("injected", Unit::Events, outcomes.len() as u64)];
    for outcome in Outcome::ALL {
        let n = outcomes.iter().filter(|&&o| o == outcome).count();
        campaign.push((outcome.label(), Unit::Events, n as u64));
    }
    merged.push_section("campaign", &campaign, &[]);
    merged
}

/// Decoded count of the fault-free passive run at cycle `boundary`.
fn decoded_at(program: &Program, boundary: u64) -> u64 {
    let cfg = PipelineConfig { itr: Some(passive()), spc_check: true, ..Default::default() };
    let mut run = Lockstep::new(Pipeline::new(program, cfg), &[]);
    run.run(boundary);
    run.pipeline().stats().decoded
}

/// Observation windows of the fan-out checks; the middle one is the
/// plan's own window, which `run_range` observes.
const WINDOWS: [u64; 3] = [2_000, WINDOW, 12_000];

/// Asserts a shard holds exactly `expected` (fault, outcome, report)
/// triples, sealed like a shard of fresh runs.
fn check_shard<F: PartialEq + Debug>(shard: &CampaignShard<F>, expected: &[(&F, Outcome, Report)]) {
    assert_eq!(shard.records.len(), expected.len());
    for (r, (fault, outcome, _)) in shard.records.iter().zip(expected) {
        assert_eq!((&r.fault, r.outcome), (*fault, *outcome));
    }
    let reports: Vec<Report> = expected.iter().map(|e| e.2.clone()).collect();
    let outcomes: Vec<Outcome> = expected.iter().map(|e| e.1).collect();
    assert_eq!(shard.report.to_json(), sealed(&reports, &outcomes).to_json(), "{expected:?}");
}

/// Every fault of a plan, forked through `run_range_windows` one at a
/// time, against fresh `observe_fault` runs at each of [`WINDOWS`]. A
/// fault that panics the simulator must panic on both paths. When no
/// fault panics, the whole range also runs as one shard through
/// `run_range` and `run_range_windows`, which merges every fault's
/// report.
fn check_plan<F: Fault + Clone + PartialEq + Debug>(
    program: &Program,
    plan: &Plan<F>,
    cfg: &CampaignConfig,
) {
    assert_eq!(cfg.window_cycles, WINDOWS[1]);
    // Per window, the fresh (fault, outcome, report) of every fault.
    let mut fresh: [Vec<(&F, Outcome, Report)>; 3] = Default::default();
    let mut panicked = false;
    for (j, fault) in plan.faults().iter().enumerate() {
        let observed = catch_unwind(AssertUnwindSafe(|| {
            WINDOWS.map(|w| {
                let (obs, report) = observe_fault(program, fault, plan.golden(), cfg.itr, w);
                (fault, classify(&obs, plan.clean_signatures()), report)
            })
        }));
        let j = j as u32;
        let forked = catch_unwind(AssertUnwindSafe(|| {
            plan.run_range_windows(program, cfg, &WINDOWS, j, j + 1, &|| false)
        }));
        match (observed, forked) {
            (Ok(observed), Ok(shards)) => {
                for ((k, one), shard) in observed.into_iter().enumerate().zip(&shards) {
                    check_shard(shard, std::slice::from_ref(&one));
                    fresh[k].push(one);
                }
            }
            (Err(_), Err(_)) => panicked = true,
            (observed, forked) => panic!(
                "{fault:?}: fresh panicked {}, forked panicked {}",
                observed.is_err(),
                forked.is_err()
            ),
        }
    }
    if panicked {
        return;
    }
    let n = cfg.faults;
    check_shard(&plan.run_range(program, cfg, 0, n, &|| false), &fresh[1]);
    let fanned = plan.run_range_windows(program, cfg, &WINDOWS, 0, n, &|| false);
    for (shard, expected) in fanned.iter().zip(&fresh) {
        check_shard(shard, expected);
    }
}

#[test]
fn forked_seu_campaigns_equal_fresh_runs() {
    let p = mimic();
    let cfg = cfg(10, INSTRS / 4, INSTRS);
    check_plan(&p, &CampaignPlan::new(&p, &cfg), &cfg);
}

#[test]
fn forked_model_campaigns_equal_fresh_runs_for_every_kind() {
    let p = mimic();
    let cfg = cfg(5, INSTRS / 4, INSTRS);
    for kind in ModelKind::ALL {
        check_plan(&p, &ModelPlan::new(&p, kind, &cfg), &cfg);
    }
}

#[test]
fn forks_at_boundary_edges_equal_fresh_runs() {
    let p = mimic();
    let at = decoded_at(&p, 20_000);
    let step = decoded_at(&p, 22_000);
    let last = decoded_at(&p, 30_000);
    assert!(at > 0 && step > at && last > step, "the mimic runs past two chunk boundaries");
    // A strike at exactly a boundary's decoded count forks from that
    // boundary; one decode later forks from it too. 22,000 is a grid
    // boundary inside a chunk: the run forks there but its window opens
    // at 30,000.
    for strike in [at, at + 1, step, step + 1, last] {
        let seu = cfg(3, strike, strike + 1);
        check_plan(&p, &CampaignPlan::new(&p, &seu), &seu);
        let models = cfg(2, strike, strike + 1);
        for kind in [ModelKind::StuckAt1, ModelKind::BurstOnRetry] {
            check_plan(&p, &ModelPlan::new(&p, kind, &models), &models);
        }
    }
    // Strikes clamped to the last decodes of the program.
    let seu = cfg(3, INSTRS - 2, u64::MAX / 4);
    check_plan(&p, &CampaignPlan::new(&p, &seu), &seu);
    let models = cfg(2, INSTRS - 2, u64::MAX / 4);
    check_plan(&p, &ModelPlan::new(&p, ModelKind::MultiBitAdjacent, &models), &models);
}

#[test]
fn seu_model_plans_sample_and_report_like_campaign_plans() {
    // `ModelPlan::new(.., ModelKind::Seu, ..)` draws exactly the faults
    // `CampaignPlan::new` draws, and runs them to byte-identical
    // reports: the SEU campaign is one model among the others.
    let p = generate_mimic_sized(profiles::by_name("vortex").unwrap(), 1, 40_000);
    for seed in [1, 7, 0xD51F_2007] {
        let cfg = CampaignConfig { seed, ..cfg(24, 1_000, 40_000) };
        let seus = CampaignPlan::new(&p, &cfg);
        let models = ModelPlan::new(&p, ModelKind::Seu, &cfg);
        let as_models: Vec<FaultModel> =
            seus.faults().iter().map(|&f| FaultModel::Seu(f)).collect();
        assert_eq!(models.models(), as_models.as_slice(), "seed {seed:#x}");
        let a = seus.run_range(&p, &cfg, 0, cfg.faults, &|| false);
        let b = models.run_range(&p, &cfg, 0, cfg.faults, &|| false);
        let a_outcomes: Vec<Outcome> = a.records.iter().map(|r| r.outcome).collect();
        let b_outcomes: Vec<Outcome> = b.records.iter().map(|r| r.outcome).collect();
        assert_eq!(a_outcomes, b_outcomes, "seed {seed:#x}");
        assert_eq!(a.report.to_json(), b.report.to_json(), "seed {seed:#x}");
    }
}

/// Runs that rejoin the clean run are cut there and their windows
/// assembled from the clean run; through `run_range` and
/// `run_range_windows` they must observe exactly what fresh runs
/// simulated in full do ([`check_plan`]). Some runs of every kind but
/// the stuck-at ones must actually be cut; stuck-at runs never are.
#[test]
fn cut_runs_equal_full_runs_for_every_kind() {
    let p = mimic();
    let cfg = cfg(12, INSTRS / 4, INSTRS);
    let mut cut = 0;
    for kind in ModelKind::ALL {
        let plan = ModelPlan::new(&p, kind, &cfg);
        check_plan(&p, &plan, &cfg);
        let rejoined = plan.rejoined_runs();
        eprintln!("{}: {rejoined}", kind.label());
        if matches!(kind, ModelKind::StuckAt0 | ModelKind::StuckAt1) {
            assert_eq!(rejoined, 0, "{}: a stuck-at run is never cut", kind.label());
        }
        cut += rejoined;
    }
    let seus = CampaignPlan::new(&p, &cfg);
    check_plan(&p, &seus, &cfg);
    eprintln!("seu plan: {}", seus.rejoined_runs());
    assert!(seus.rejoined_runs() > 0 && cut > 0, "no run was cut");
}
