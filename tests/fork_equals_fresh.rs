//! Fork-equals-fresh: a fault campaign whose faulty runs fork from
//! fault-free prefix snapshots must classify and report exactly like
//! fresh runs that simulate every fault from cycle 0.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::core::{ItrConfig, ItrMode};
use itr::faults::{
    classify, observe_fault, observe_model, CampaignConfig, CampaignPlan, CampaignShard,
    FaultRecord, Lockstep, ModelKind, ModelPlan, ModelShard, Outcome,
};
use itr::isa::{DecodeSignals, Program};
use itr::sim::{Pipeline, PipelineConfig};
use itr::stats::{Counters, Report, Unit};
use itr::workloads::{generate_mimic_sized, profiles};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Dynamic size of the mimic: its fault-free run spans three 10k-cycle
/// boundaries, so faults fork from several snapshots.
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
        threads: 1,
        itr: passive(),
    }
}

/// The report a shard of fresh runs seals: the merged per-fault reports
/// plus the campaign's outcome counters.
fn sealed(reports: &[Report], outcomes: &[Outcome]) -> Report {
    let mut merged = Report::new();
    for r in reports {
        merged.merge(r);
    }
    let mut campaign = Counters::new();
    let c = campaign.register("injected", Unit::Events, "");
    campaign.set(c, outcomes.len() as u64);
    for outcome in Outcome::ALL {
        let c = campaign.register(outcome.label(), Unit::Events, "");
        campaign.set(c, outcomes.iter().filter(|&&o| o == outcome).count() as u64);
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

/// Every fault of an SEU plan, forked through `run_range` and
/// `run_range_windows`, against fresh `observe_fault` runs.
fn check_seu_plan(program: &Program, cfg: &CampaignConfig) {
    let plan = CampaignPlan::new(program, cfg);
    let windows = [2_000, WINDOW, 12_000];
    let mut fresh: Vec<(Vec<FaultRecord>, Vec<Report>)> = vec![Default::default(); 3];
    for &fault in plan.faults() {
        for (k, &w) in windows.iter().enumerate() {
            let (obs, report) = observe_fault(program, fault, plan.golden(), cfg.itr, w);
            fresh[k].0.push(FaultRecord {
                fault,
                field: DecodeSignals::field_of_bit(fault.bit),
                outcome: classify(&obs, plan.clean_signatures()),
            });
            fresh[k].1.push(report);
        }
    }
    let n = cfg.faults;
    let check = |shard: &CampaignShard, (records, reports): &(Vec<FaultRecord>, Vec<Report>)| {
        assert_eq!(&shard.records, records);
        let outcomes: Vec<Outcome> = records.iter().map(|r| r.outcome).collect();
        assert_eq!(shard.report.to_json(), sealed(reports, &outcomes).to_json());
    };
    check(&plan.run_range(program, cfg, 0, n, &|| false), &fresh[1]);
    let fanned = plan.run_range_windows(program, cfg, &windows, 0, n, &|| false);
    for (shard, expected) in fanned.iter().zip(&fresh) {
        check(shard, expected);
    }
}

/// Every instance of one fault-model plan, forked one at a time through
/// `run_range`, against fresh `observe_model` runs. An instance that
/// panics the simulator must panic on both paths.
fn check_model_plan(program: &Program, kind: ModelKind, cfg: &CampaignConfig) {
    let plan = ModelPlan::new(program, kind, cfg);
    for (j, model) in plan.models().iter().enumerate() {
        let fresh = catch_unwind(AssertUnwindSafe(|| {
            let (obs, report) = observe_model(program, model, plan.golden(), cfg.itr, WINDOW);
            (classify(&obs, plan.clean_signatures()), report)
        }));
        let j = j as u32;
        let forked: Result<ModelShard, _> =
            catch_unwind(AssertUnwindSafe(|| plan.run_range(program, cfg, j, j + 1, &|| false)));
        match (fresh, forked) {
            (Ok((outcome, report)), Ok(shard)) => {
                assert_eq!(shard.records.len(), 1);
                assert_eq!(shard.records[0].outcome, outcome, "{} {model:?}", kind.label());
                assert_eq!(
                    shard.report.to_json(),
                    sealed(&[report], &[outcome]).to_json(),
                    "{} {model:?}",
                    kind.label()
                );
            }
            (Err(_), Err(_)) => {}
            (fresh, forked) => panic!(
                "{} {model:?}: fresh panicked {}, forked panicked {}",
                kind.label(),
                fresh.is_err(),
                forked.is_err()
            ),
        }
    }
}

#[test]
fn forked_seu_campaigns_equal_fresh_runs() {
    let p = mimic();
    check_seu_plan(&p, &cfg(10, INSTRS / 4, INSTRS));
}

#[test]
fn forked_model_campaigns_equal_fresh_runs_for_every_kind() {
    let p = mimic();
    for kind in ModelKind::ALL {
        check_model_plan(&p, kind, &cfg(5, INSTRS / 4, INSTRS));
    }
}

#[test]
fn forks_at_boundary_edges_equal_fresh_runs() {
    let p = mimic();
    let at = decoded_at(&p, 20_000);
    let last = decoded_at(&p, 30_000);
    assert!(at > 0 && last > at, "the mimic runs past two boundaries");
    // A strike at exactly a boundary's decoded count forks from that
    // boundary; one decode later forks from it too.
    for strike in [at, at + 1, last] {
        check_seu_plan(&p, &cfg(3, strike, strike + 1));
        check_model_plan(&p, ModelKind::StuckAt1, &cfg(2, strike, strike + 1));
        check_model_plan(&p, ModelKind::BurstOnRetry, &cfg(2, strike, strike + 1));
    }
    // Strikes clamped to the last decodes of the program.
    check_seu_plan(&p, &cfg(3, INSTRS - 2, u64::MAX / 4));
    check_model_plan(&p, ModelKind::MultiBitAdjacent, &cfg(2, INSTRS - 2, u64::MAX / 4));
}
