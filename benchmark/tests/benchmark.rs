//! Tests of the benchmark itself: the tail-percentile rule, the metric
//! dictionary at a tiny size and its mirror in `BENCHMARK.json`, digest
//! determinism, the trace format and the comparison verdicts.

use itr_benchmark::compare::{verdict, Verdict};
use itr_benchmark::metrics::{END_TO_END, PER_LAYER};
use itr_benchmark::run::{run, RunConfig, RunRecord, DEFAULT_SECONDS};
use itr_benchmark::stats::{highest_reportable, percentile, quartiles};
use itr_benchmark::workload::{Scale, Workload};
use itr_stats::json::Value;
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, trace_file: Option<PathBuf>) -> RunRecord {
    let cfg = RunConfig { workload, seed: 7, seconds: 0.0, trace, trace_file, scale: Scale::Tiny };
    run(&cfg).expect("a tiny run completes")
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(highest_reportable(19), None);
    assert_eq!(highest_reportable(20), Some(50.0));
    assert_eq!(highest_reportable(199), Some(90.0));
    assert_eq!(highest_reportable(200), Some(95.0));
    assert_eq!(highest_reportable(1_000), Some(99.0));
    assert_eq!(highest_reportable(10_000), Some(99.9));
    let values: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&values, 95.0), 190.0, "nearest rank leaves 10 samples beyond");
    assert_eq!(percentile(&values, 50.0), 100.0);
    // The same quartiles as Python's statistics.quantiles(values, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
}

#[test]
fn every_metric_is_reported_with_its_unit_at_a_tiny_size() {
    for w in Workload::ALL {
        let plain = tiny(w, false, None);
        assert!(plain.correct(), "{}", plain.summary());
        let got: Vec<_> = plain.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, want, "{}", w.name());
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{} {}: {}", w.name(), m.name, m.value);
        }
        let result = Value::parse(&plain.result_json()).expect("the result line is JSON");
        let keys: Vec<&str> =
            result.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let traced = tiny(w, true, None);
        assert!(traced.correct(), "{}", traced.summary());
        let got: Vec<_> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, want, "{}", w.name());
        for m in &traced.metrics {
            assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn two_tiny_runs_give_equal_digests() {
    for w in Workload::ALL {
        let a = tiny(w, false, None);
        let b = tiny(w, false, None);
        assert_eq!(a.result_digest, b.result_digest, "{}", w.name());
        assert_eq!(a.exact, b.exact, "{}", w.name());
    }
}

#[test]
fn the_trace_file_parses_and_its_spans_nest() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("itr-benchmark-trace.json");
    tiny(Workload::CampaignEarly, true, Some(path.clone()));
    let text = std::fs::read_to_string(&path).expect("the trace was written");
    let doc = Value::parse(&text).expect("the trace is JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(events.len() > 10);
    let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).expect("a number");
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("id").and_then(Value::as_u64), Some(i as u64));
        let Some(p) = args.get("parent").and_then(Value::as_u64) else { continue };
        assert!((p as usize) < i, "a parent opens before its child");
        let parent = &events[p as usize];
        let (ps, pd, cs, cd) = (num(parent, "ts"), num(parent, "dur"), num(e, "ts"), num(e, "dur"));
        assert!(ps <= cs && cs + cd <= ps + pd + 1e-3, "span {i} escapes its parent {p}");
    }
    let layers = doc
        .get("itrLayerSummary")
        .and_then(|s| s.get("self_ms_by_layer"))
        .and_then(Value::as_object)
        .expect("the per-layer summary");
    for layer in ["bench", "faults", "recover", "sim", "core", "fuzz"] {
        assert!(layers.iter().any(|(k, _)| k == layer), "no self time for {layer}");
    }
}

#[test]
fn compare_verdicts_follow_the_bounds_and_the_pair_rule() {
    let rate = END_TO_END[1];
    assert_eq!(rate.name, "ops_per_s");
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let pairs =
        |b: &[f64]| -> Vec<(f64, f64)> { a.iter().copied().zip(b.iter().copied()).collect() };
    let same = [100.2, 99.8, 100.1, 99.9, 100.0];
    assert_eq!(verdict(&rate, &a, &same, &pairs(&same)).0, Verdict::Unchanged);
    let slower = [70.0, 71.0, 69.0, 70.5, 69.5];
    assert_eq!(verdict(&rate, &a, &slower, &pairs(&slower)).0, Verdict::Worse);
    let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
    let (v, wins) = verdict(&rate, &a, &faster, &pairs(&faster));
    assert_eq!((v, wins), (Verdict::Improved, Some(1.0)));
    let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
    assert_eq!(verdict(&rate, &noisy, &same, &pairs(&same)).0, Verdict::Unresolved);
}

#[test]
fn benchmark_json_mirrors_the_metric_dictionary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = Value::parse(&text).expect("BENCHMARK.json is JSON");
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();
    let e2e = doc.get("end_to_end").and_then(Value::as_array).expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (v, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(v, "name"), m.name);
        assert_eq!(field(v, "unit"), m.unit);
        assert_eq!(field(v, "better"), m.better.label());
        assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
    }
    let layers = doc.get("per_layer").and_then(Value::as_array).expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (v, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!((field(v, "name"), field(v, "unit")), (m.name.to_string(), m.unit.to_string()));
        assert_eq!(field(v, "better"), m.better.label());
    }
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS));
}
