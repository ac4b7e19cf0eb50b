//! The metric dictionary: every metric the benchmark reports, its unit,
//! which direction is better and, for end-to-end metrics, the bound by
//! which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` at the repository root mirrors these tables; the
//! README gives each per-layer metric's call and the end-to-end metric
//! it should move.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, hit fractions).
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `b` is strictly better than `a`.
    pub fn prefers(self, b: f64, a: f64) -> bool {
        match self {
            Better::Lower => b < a,
            Better::Higher => b > a,
        }
    }
}

/// One end-to-end metric: measured with tracing off, bounded.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute worsening always tolerated, in the metric's unit (only
    /// set-up time has one: a 20 ms set-up can move by more than its
    /// share without anyone noticing).
    pub floor: f64,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, floor: 0.05 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25, floor: 0.0 },
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25, floor: 0.0 },
    EndToEnd { name: "peak_heap_mib", unit: "MiB", better: Better::Lower, bound: 0.10, floor: 0.0 },
];

/// Exact model outputs: any change between two commits at the same seed
/// is a semantic change, never noise. Each applies to some workloads.
pub const EXACT: [(&str, &str); 4] = [
    ("sim_ipc", "instr/cycle"),
    ("itr_detected_frac", "frac"),
    ("fuzz_features", "count"),
    ("fuzz_crashes", "count"),
];

/// One per-layer metric: measured in the traced run, unbounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [PerLayer; 33] = [
    layer("workloads.generate_ms", "ms", Better::Lower),
    layer("sim.funcsim_minstr_per_s", "Minstr/s", Better::Higher),
    layer("sim.pipeline_plain_minstr_per_s", "Minstr/s", Better::Higher),
    layer("sim.pipeline_itr_minstr_per_s", "Minstr/s", Better::Higher),
    layer("core.itr_overhead_frac", "frac", Better::Lower),
    layer("sim.pipeline_new_us", "us", Better::Lower),
    layer("core.sig_fold_ns", "ns", Better::Lower),
    layer("core.cache_probe_ns", "ns", Better::Lower),
    layer("core.itr_hit_frac", "frac", Better::Higher),
    layer("stats.report_roundtrip_us", "us", Better::Lower),
    layer("faults.plan_ms", "ms", Better::Lower),
    layer("faults.observe_ms_p50", "ms", Better::Lower),
    layer("faults.prefix_share", "frac", Better::Lower),
    layer("faults.window_ms_p50", "ms", Better::Lower),
    layer("faults.classify_us", "us", Better::Lower),
    layer("faults.report_merge_us", "us", Better::Lower),
    layer("recover.golden_capture_ms", "ms", Better::Lower),
    layer("recover.run_ms_p50", "ms", Better::Lower),
    layer("recover.rollback_frac", "frac", Better::Higher),
    layer("fuzz.seed_s", "s", Better::Lower),
    layer("fuzz.evaluate_us", "us", Better::Lower),
    layer("fuzz.evaluate_faults_us", "us", Better::Lower),
    layer("fuzz.oracle.golden_us", "us", Better::Lower),
    layer("fuzz.oracle.commit_equivalence_us", "us", Better::Lower),
    layer("fuzz.oracle.signature_determinism_us", "us", Better::Lower),
    layer("fuzz.oracle.static_subset_us", "us", Better::Lower),
    layer("fuzz.oracle.fault_consistency_us", "us", Better::Lower),
    layer("fuzz.oracle.recovery_ground_truth_us", "us", Better::Lower),
    layer("fuzz.mutate_us", "us", Better::Lower),
    layer("fuzz.pick_us", "us", Better::Lower),
    layer("analyze.gap_plan_us", "us", Better::Lower),
    layer("fuzz.novel_frac", "frac", Better::Higher),
    layer("trace_overhead_frac", "frac", Better::Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}
