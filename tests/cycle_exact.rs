//! Pins the cycle-level pipeline's behaviour cycle for cycle.
//!
//! `tests/golden_stats.json` pins only ITR counters. This test pins, per
//! case, the complete `itr-stats/v1` export of [`Pipeline::stats_json`]
//! (the `pipeline`, `itr` and `itr_cache` sections, cycle and issue
//! counts and all four occupancy histograms included), the [`RunExit`]
//! and a digest of the committed instruction stream and of the program
//! output. A change to how the pipeline schedules, squashes or forwards
//! that moves one cycle of one case shows up as a diff here.
//!
//! Cases: every suite workload on the plain and the ITR pipeline, plus a
//! fault matrix on the `gzip` mimic that drives every path that pushes
//! to or pops from the reorder buffer: misprediction repair, ITR retry
//! flushes and a machine check, scheduler faults with and without the
//! TAC check, a rename fault under rename protection, a fetch swap, a
//! burst, a slow ITR cache read, the redundant-fetch fallback, tiny
//! windows, and multi-bit decode-signal faults. Each fault case also
//! asserts that it reaches the path it is named for.
//!
//! Regenerate the snapshot (after an *intentional* timing change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cycle_exact
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::core::{FoldKind, ItrConfig};
use itr::sim::{
    BurstFault, CommitRecord, DecodeFault, Injection, Pipeline, PipelineConfig, PipelineStats,
    RenameFault, RunExit, SchedulerFault, SignalFault, SignalOp,
};
use itr::stats::json::Value;
use itr::workloads::suite::{by_name, everything};
use std::path::PathBuf;

/// Mimic generation parameters — baked into the golden snapshot.
const MIMIC_SEED: u64 = 7;
const MIMIC_INSTRS: u64 = 12_000;
/// Cycle budget: generous multiple of the largest workload.
const CYCLE_BUDGET: u64 = 2_000_000;
/// The fault matrix's program.
const FAULT_WORKLOAD: &str = "gzip";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_cycles.json")
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn commit(&mut self, r: &CommitRecord) {
        self.word(r.pc);
        self.word(r.next_pc);
        match r.dst {
            Some((arch, value)) => {
                self.word(1 + u64::from(arch));
                self.word(u64::from(value));
            }
            None => self.word(0),
        }
        match r.store {
            Some((addr, size, value)) => {
                self.word(1 + u64::from(size));
                self.word(addr);
                self.word(u64::from(value));
            }
            None => self.word(0),
        }
    }
}

/// One pinned run: the case's JSON value, plus the run's statistics and
/// exit for the path assertions.
fn measure(
    program: &itr::isa::Program,
    cfg: PipelineConfig,
    injection: Injection,
) -> (Value, PipelineStats, RunExit) {
    let mut pipe = Pipeline::new(program, cfg);
    pipe.arm(injection);
    let mut commits = Fnv::new();
    let mut count = 0u64;
    let exit = pipe.run_with(CYCLE_BUDGET, |r| {
        commits.commit(r);
        count += 1;
        true
    });
    let mut output = Fnv::new();
    for b in pipe.output().bytes() {
        output.word(u64::from(b));
    }
    let stats = Value::parse(&pipe.stats_json()).expect("valid itr-stats/v1 export");
    let value = Value::Object(vec![
        ("exit".to_string(), Value::Str(format!("{exit:?}"))),
        ("commits".to_string(), Value::UInt(count)),
        ("commit_digest".to_string(), Value::Str(format!("{:#018x}", commits.0))),
        ("output_digest".to_string(), Value::Str(format!("{:#018x}", output.0))),
        ("stats".to_string(), stats),
    ]);
    (value, pipe.stats(), exit)
}

/// The path a fault case must reach to pin what it is named for.
type Reached = fn(&PipelineStats, RunExit) -> bool;

fn seu(nth_decode: u64, bit: u32) -> Injection {
    DecodeFault { nth_decode, bit }.into()
}

fn with_itr(base: PipelineConfig, edit: impl FnOnce(&mut ItrConfig)) -> PipelineConfig {
    let mut cfg = base;
    edit(cfg.itr.as_mut().unwrap());
    cfg
}

/// The fault matrix on [`FAULT_WORKLOAD`]: per case, the machine and the
/// fault plan armed on it.
fn fault_cases() -> Vec<(&'static str, PipelineConfig, Injection, Reached)> {
    let retried: Reached = |s, _| s.retry_flushes > 0;
    let machine_check: Reached = |_, e| matches!(e, RunExit::MachineCheck { .. });
    let committed: Reached = |s, _| s.committed > 0;
    let itr = PipelineConfig::with_itr;

    let sched =
        Injection { scheduler: Some(SchedulerFault { nth_issue: 1000 }), ..Injection::default() };
    let rename_protected = PipelineConfig { rename_protection: true, ..itr() };
    let rename = Injection {
        rename: Some(RenameFault { nth_rename: 1000, operand: 0, bit: 2 }),
        ..Injection::default()
    };
    let rotate_xor = with_itr(itr(), |c| c.fold = FoldKind::RotateXor);
    let swap = Injection { swap: Some(300), ..Injection::default() };
    let burst = Injection { burst: Some(BurstFault { bit: 20, len: 100 }), ..seu(300, 35) };
    let mut multi = seu(1000, 3);
    multi
        .decode
        .extend([20, 47].map(|bit| SignalFault::from(DecodeFault { nth_decode: 1000, bit })));
    let mut signal = Injection::default();
    for (bit, op) in [(3, SignalOp::Flip), (35, SignalOp::Stuck1), (47, SignalOp::Stuck0)] {
        signal.decode.push(SignalFault {
            from_decode: 300,
            until_decode: 340,
            bit,
            op,
            period: 8,
            duty: 2,
        });
    }

    vec![
        ("itr_retry", itr(), seu(1000, 35), retried),
        ("itr_machine_check", itr(), seu(65, 35), machine_check),
        ("scheduler_fault", PipelineConfig::default(), sched.clone(), committed),
        (
            "scheduler_fault_tac",
            PipelineConfig { tac_check: true, ..PipelineConfig::default() },
            sched,
            |s, _| s.tac_violations > 0,
        ),
        ("rename_fault_protected", rename_protected, rename, retried),
        ("swap_fault", rotate_xor, swap, retried),
        ("burst_fault", itr(), burst, |s, e| {
            s.retry_flushes > 1 && matches!(e, RunExit::MachineCheck { .. })
        }),
        (
            "itr_cache_read_latency_3",
            with_itr(itr(), |c| c.cache_read_latency = 3),
            seu(1000, 35),
            retried,
        ),
        (
            "redundant_fetch_on_miss",
            with_itr(itr(), |c| c.redundant_fetch_on_miss = true),
            seu(65, 35),
            |s, _| s.redundant_detects > 0,
        ),
        (
            "tiny_window_lsq_1",
            PipelineConfig {
                lsq_entries: 1,
                rob_entries: 8,
                iq_entries: 4,
                ..PipelineConfig::default()
            },
            Injection::default(),
            committed,
        ),
        (
            "small_window_itr_retry",
            PipelineConfig { lsq_entries: 16, rob_entries: 16, iq_entries: 8, ..itr() },
            seu(1000, 35),
            retried,
        ),
        ("multi_bit_decode_fault", itr(), multi, retried),
        ("multi_bit_signal_fault", itr(), signal, retried),
    ]
}

/// Every case, in a fixed order: `(name, pinned value)`.
fn measure_all() -> Vec<(String, Value)> {
    let mut out = Vec::new();
    let mut mispredicts = 0;
    for w in everything(MIMIC_SEED, MIMIC_INSTRS) {
        for (label, cfg) in
            [("plain", PipelineConfig::default()), ("itr", PipelineConfig::with_itr())]
        {
            let (value, stats, _) = measure(&w.program, cfg, Injection::default());
            mispredicts += stats.mispredicts;
            out.push((format!("{}/{label}", w.name), value));
        }
    }
    assert!(mispredicts > 0, "the suite never repaired a misprediction");

    let w = by_name(FAULT_WORKLOAD, MIMIC_SEED, MIMIC_INSTRS).unwrap();
    for (name, cfg, injection, reached) in fault_cases() {
        let (value, stats, exit) = measure(&w.program, cfg, injection);
        assert!(reached(&stats, exit), "{name} does not reach the path it pins ({exit:?})");
        out.push((format!("{FAULT_WORKLOAD}/{name}"), value));
    }
    out
}

fn render(cases: &[(String, Value)]) -> String {
    let header = Value::Object(vec![
        ("schema".to_string(), Value::Str("itr-cycles/v1".to_string())),
        ("mimic_seed".to_string(), Value::UInt(MIMIC_SEED)),
        ("mimic_instrs".to_string(), Value::UInt(MIMIC_INSTRS)),
    ])
    .to_json();
    let mut text = format!("{},\n\"cases\":{{\n", &header[..header.len() - 1]);
    for (i, (name, value)) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        text.push_str(&format!(
            "{}:{}{sep}\n",
            Value::Str(name.clone()).to_json(),
            value.to_json()
        ));
    }
    text.push_str("}}\n");
    text
}

/// Collects the paths (`case/field/...`) at which two values differ.
fn diff_paths(path: &str, got: &Value, want: &Value, out: &mut Vec<String>) {
    match (got.as_object(), want.as_object()) {
        (Some(g), Some(w)) if g.len() == w.len() => {
            for ((key, gv), (_, wv)) in g.iter().zip(w) {
                diff_paths(&format!("{path}/{key}"), gv, wv, out);
            }
        }
        _ if got != want => out.push(format!("{path}: {} != {}", got.to_json(), want.to_json())),
        _ => {}
    }
}

/// Every case's stats export, exit and commit stream equal the snapshot.
#[test]
fn pipeline_runs_match_the_cycle_snapshot() {
    let measured = measure_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), render(&measured)).expect("write golden cycles");
        return;
    }

    let text = std::fs::read_to_string(golden_path())
        .expect("tests/golden_cycles.json missing; regenerate with UPDATE_GOLDEN=1");
    let golden = Value::parse(&text).expect("golden snapshot parses");
    assert_eq!(golden.get("schema").and_then(Value::as_str), Some("itr-cycles/v1"));
    assert_eq!(golden.get("mimic_seed").and_then(Value::as_u64), Some(MIMIC_SEED));
    assert_eq!(golden.get("mimic_instrs").and_then(Value::as_u64), Some(MIMIC_INSTRS));
    let golden_cases = golden.get("cases").and_then(Value::as_object).expect("golden has cases");
    let names =
        |cases: &[(String, Value)]| cases.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&measured),
        names(golden_cases),
        "case set changed; regenerate with UPDATE_GOLDEN=1"
    );

    let mut diffs = Vec::new();
    for ((name, got), (_, want)) in measured.iter().zip(golden_cases) {
        diff_paths(name, got, want, &mut diffs);
    }
    assert!(diffs.is_empty(), "cycle-level behaviour moved:\n{}", diffs.join("\n"));
}
