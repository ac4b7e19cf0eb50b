//! Recording-equals-live: every fault-free reference derived from the
//! one recorded golden execution ([`Execution`]) must equal what the
//! live functional sources compute by re-running the program — the trace
//! streams, the clean-signature map, the recovery golden run, the
//! architectural snapshots replayed from a recorded prefix and the gap
//! observations. The fault campaigns' plans, which derive their golden
//! stream and clean map from a recording, are held to the same live
//! sources.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::analyze::GapObservations;
use itr::core::MAX_TRACE_LEN;
use itr::faults::{clean_signatures, CampaignConfig, CampaignPlan, ModelKind, ModelPlan};
use itr::fuzz::{gen, seed_corpus, OracleConfig, GAP_LENS};
use itr::isa::asm::assemble;
use itr::isa::{decode, Program, SignalFlags, DATA_BASE};
use itr::sim::{snapshot_at, Execution, FuncSim, StopReason, TraceStream};
use itr::stats::SplitMix64;
use itr::workloads::{generate_mimic_sized, profiles, suite};
use itr_recover::GoldenRun;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The live clean-signature map: the first signature of each trace start
/// PC, folded from a [`TraceStream`] run of `program`.
fn live_clean_signatures(program: &Program, max_instrs: u64) -> HashMap<u64, u64> {
    let mut sigs = HashMap::new();
    for t in TraceStream::new(program, max_instrs) {
        sigs.entry(t.start_pc).or_insert(t.signature);
    }
    sigs
}

/// Asserts every derivation of `program`'s recording within `max_instrs`
/// against its live counterpart; returns the recording's stop reason.
fn assert_record_equals_live(name: &str, program: &Program, max_instrs: u64) -> StopReason {
    let exec = Execution::record(program, max_instrs);
    let budgets = [max_instrs.min(1200), max_instrs, max_instrs + 100];
    for budget in budgets {
        for len in [4u32, 8, 16] {
            let live: Vec<_> =
                TraceStream::with_trace_len(program, budget.min(max_instrs), len).collect();
            assert_eq!(
                exec.traces(budget, len),
                live,
                "{name}: traces at len {len}, budget {budget}"
            );
        }
    }
    assert_eq!(
        clean_signatures(&exec),
        live_clean_signatures(program, max_instrs),
        "{name}: clean-signature map"
    );

    let mut sim = FuncSim::new(program);
    let (records, stop) = sim.run_collect(max_instrs);
    assert_eq!(exec.records, records, "{name}: commit stream");
    assert_eq!(exec.stop, stop, "{name}: stop reason");
    assert_eq!(exec.signals.len(), exec.records.len(), "{name}: decode stream length");

    let derived = GoldenRun::from(exec.clone());
    assert_eq!(derived.records, records, "{name}: golden records");
    assert_eq!(derived.output, sim.output(), "{name}: golden output");
    assert_eq!(derived.halted, stop == StopReason::Halted, "{name}: golden halted");
    exec.stop
}

#[test]
fn generated_cases_record_equals_live() {
    let max_instrs = OracleConfig::default().max_instrs;
    for seed in 0..32u64 {
        let case = gen::generate(&mut SplitMix64::new(seed), 48);
        assert_record_equals_live(&format!("gen seed {seed}"), &case.program(), max_instrs);
    }
}

#[test]
fn seed_corpus_records_equal_live() {
    let max_instrs = OracleConfig::default().max_instrs;
    let seeds = seed_corpus(1, 1500);
    assert!(!seeds.is_empty());
    for (i, case) in seeds.iter().enumerate() {
        assert_record_equals_live(&format!("seed corpus #{i}"), &case.program(), max_instrs);
    }
}

#[test]
fn every_stop_reason_records_equal_live() {
    let output = "    li r4, 42\n    trap 1\n";
    let undecodable = (0..64u32)
        .flat_map(|major| (0..64u32).map(move |funct| major << 26 | funct))
        .find(|&word| decode(word).is_err())
        .unwrap();
    let cases = [
        (
            "instruction budget",
            format!(".text\nmain:\n{output}loop:\n    addi r8, r8, 1\n    j loop\n"),
            StopReason::InstrLimit,
        ),
        (
            "decode error",
            format!(
                ".data\nbad: .word {undecodable}\n.text\nmain:\n{output}    la r8, bad\n    jr r8\n"
            ),
            StopReason::DecodeError(DATA_BASE),
        ),
        (
            "abort",
            format!(".text\nmain:\n{output}    li r4, 7\n    trap 3\n"),
            StopReason::Aborted(7),
        ),
        ("halt", format!(".text\nmain:\n{output}    halt\n"), StopReason::Halted),
    ];
    for (name, src, want) in cases {
        let program = assemble(&src).unwrap();
        assert_eq!(assert_record_equals_live(name, &program, 300), want, "{name}: stop reason");
    }
}

#[test]
fn one_pass_golden_reference_equals_two_passes() {
    let program = generate_mimic_sized(profiles::by_name("vortex").unwrap(), 1, 20_000);
    let cfg = CampaignConfig {
        faults: 2,
        window_cycles: 1_000,
        min_decode: 100,
        max_decode: 4_000,
        threads: 1,
        ..CampaignConfig::default()
    };
    // The plans' golden budget: the longest faulty observation.
    let golden_len = cfg.max_decode + cfg.window_cycles * 4 + 10_000;
    let (records, _) = FuncSim::new(&program).run_collect(golden_len);
    let clean = live_clean_signatures(&program, golden_len);
    assert!(!clean.is_empty());

    let plan = CampaignPlan::new(&program, &cfg);
    assert_eq!(plan.golden(), records.as_slice(), "campaign golden stream");
    assert_eq!(plan.clean_signatures(), &clean, "campaign clean-signature map");
    let plan = ModelPlan::new(&program, ModelKind::ALL[0], &cfg);
    assert_eq!(plan.golden(), records.as_slice(), "model golden stream");
    assert_eq!(plan.clean_signatures(), &clean, "model clean-signature map");
}

/// The suite workloads (kernels and mimics at seed 7) plus a few
/// generated fuzz cases.
fn snapshot_and_gap_programs() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> =
        suite::everything(7, 30_000).into_iter().map(|w| (w.name, w.program)).collect();
    for seed in 0..4u64 {
        let case = gen::generate(&mut SplitMix64::new(seed), 48);
        programs.push((format!("gen seed {seed}"), case.program()));
    }
    programs
}

#[test]
fn replayed_snapshots_equal_live_funcsim() {
    let max_instrs = 30_000;
    for (name, program) in snapshot_and_gap_programs() {
        let exec = Execution::record(&program, max_instrs);
        let traces = exec.traces(max_instrs, MAX_TRACE_LEN);
        let total = traces.len();
        assert!(total >= 4, "{name}: forms only {total} traces");
        for at in [1, total / 3, total / 2, total - 1] {
            let prefix: usize = traces[..at].iter().map(|t| t.len as usize).sum();
            let snap = snapshot_at(&program, &exec.records[..prefix]);

            let mut live = FuncSim::new(&program);
            assert_eq!(live.run(prefix as u64), StopReason::InstrLimit, "{name}: trace {at}");
            assert_eq!(snap.pc, live.arch().pc, "{name}: pc at trace {at}");
            assert_eq!(&snap.regs, live.arch().regs(), "{name}: registers at trace {at}");
            assert_eq!(snap.instrs, live.instr_count(), "{name}: instructions at trace {at}");
            for &(addr, word) in &snap.mem_delta {
                assert_eq!(word, live.mem().read_u32(addr), "{name}: word {addr:#x} at trace {at}");
            }

            let mut resumed = FuncSim::from_snapshot(&program, &snap);
            let (suffix, _) = resumed.run_collect((exec.records.len() - prefix) as u64);
            assert_eq!(suffix, &exec.records[prefix..], "{name}: resumed suffix at trace {at}");
        }
    }
}

/// Live gap observations: a [`FuncSim`] run folded with a per-length
/// instruction counter, where a trace ends on `is_branch` or at the
/// length limit and every trace the run enters counts as started.
fn live_gap_observations(program: &Program, max_instrs: u64, lens: &[u32]) -> GapObservations {
    let mut edges = BTreeSet::new();
    let mut trace_starts: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    let mut counts: Vec<(u32, u32)> = lens.iter().map(|&len| (len, 0)).collect();
    let mut sim = FuncSim::new(program);
    for _ in 0..max_instrs {
        let Some(step) = sim.step() else { break };
        let pc = step.record.pc;
        let branch = step.signals.flags.contains(SignalFlags::IS_BRANCH);
        for (len, count) in &mut counts {
            if *count == 0 {
                trace_starts.entry(*len).or_default().insert(pc);
            }
            *count += 1;
            if branch || *count == *len {
                *count = 0;
            }
        }
        if branch {
            edges.insert((pc, step.record.next_pc));
        }
    }
    GapObservations { edges, entry_pcs: BTreeSet::from([program.entry()]), trace_starts }
}

#[test]
fn gap_observations_equal_live_counter_fold() {
    for (name, program) in snapshot_and_gap_programs() {
        for budget in [1, 7, 100, 1_000, 1_200, 60_000] {
            let derived = GapObservations::from_program(&program, budget, &GAP_LENS);
            let live = live_gap_observations(&program, budget, &GAP_LENS);
            assert_eq!(derived.edges, live.edges, "{name}: edges at budget {budget}");
            assert_eq!(derived.entry_pcs, live.entry_pcs, "{name}: entries at budget {budget}");
            assert_eq!(
                derived.trace_starts, live.trace_starts,
                "{name}: trace starts at budget {budget}"
            );
        }
    }
}
