//! Trace-stream coverage evaluation (§3 of the paper, Figures 6 and 7).
//!
//! Feeds a committed trace stream through an [`ItrCache`] and accounts the
//! two coverage-loss metrics:
//!
//! * **recovery-coverage loss** — instructions in traces that *missed* in
//!   the ITR cache: a fault there is detected only by the next instance,
//!   after architectural state is already corrupted;
//! * **detection-coverage loss** — instructions in missed instances whose
//!   cache line is *evicted before ever being referenced*: a fault there is
//!   never detected at all.
//!
//! The paper stresses these are not conventional miss rates: both are
//! weighted by per-trace instruction counts, and detection loss counts
//! evictions, not misses.

use crate::config::ItrCacheConfig;
use crate::itr_cache::{ItrCache, ProbeResult};
use crate::signature::TraceRecord;
use itr_stats::{Counter, Counters, Report, Unit as StatUnit};

/// Evaluates coverage loss for one ITR cache configuration. Counters are
/// kept in an `itr-stats` registry (see [`CoverageModel::export`]).
#[derive(Debug, Clone)]
pub struct CoverageModel {
    cache: ItrCache,
    counters: Counters,
    total_instrs: Counter,
    total_traces: Counter,
    recovery_loss_instrs: Counter,
    detection_loss_instrs: Counter,
    mismatches: Counter,
}

/// Coverage result for one configuration (one bar of Figures 6/7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Dynamic instructions observed.
    pub total_instrs: u64,
    /// Dynamic traces observed.
    pub total_traces: u64,
    /// Instructions in missed traces.
    pub recovery_loss_instrs: u64,
    /// Instructions in unreferenced-evicted instances.
    pub detection_loss_instrs: u64,
    /// Signature mismatches (0 in fault-free runs; a non-zero value in a
    /// fault-free run would indicate a modelling bug).
    pub mismatches: u64,
}

impl CoverageReport {
    /// Loss in fault detection coverage, % of all dynamic instructions
    /// (Figure 6's y-axis).
    pub fn detection_loss_pct(&self) -> f64 {
        percentage(self.detection_loss_instrs, self.total_instrs)
    }

    /// Loss in fault recovery coverage, % of all dynamic instructions
    /// (Figure 7's y-axis).
    pub fn recovery_loss_pct(&self) -> f64 {
        percentage(self.recovery_loss_instrs, self.total_instrs)
    }
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} traces / {} instrs: detection loss {:.2}%, recovery loss {:.2}%",
            self.total_traces,
            self.total_instrs,
            self.detection_loss_pct(),
            self.recovery_loss_pct()
        )
    }
}

fn percentage(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

impl CoverageModel {
    /// Creates a model around an empty cache of the given configuration.
    pub fn new(config: ItrCacheConfig) -> CoverageModel {
        let mut c = Counters::new();
        let total_instrs =
            c.register("total_instrs", StatUnit::Instructions, "dynamic instructions observed");
        let total_traces = c.register("total_traces", StatUnit::Traces, "dynamic traces observed");
        let recovery_loss_instrs = c.register(
            "recovery_loss_instrs",
            StatUnit::Instructions,
            "instructions in missed traces (Figure 7)",
        );
        let detection_loss_instrs = c.register(
            "detection_loss_instrs",
            StatUnit::Instructions,
            "instructions in unreferenced-evicted instances (Figure 6)",
        );
        let mismatches =
            c.register("mismatches", StatUnit::Events, "signature mismatches (0 fault-free)");
        CoverageModel {
            cache: ItrCache::new(config),
            counters: c,
            total_instrs,
            total_traces,
            recovery_loss_instrs,
            detection_loss_instrs,
            mismatches,
        }
    }

    /// Feeds one committed trace.
    pub fn observe(&mut self, trace: &TraceRecord) {
        self.counters.inc(self.total_traces);
        self.counters.add(self.total_instrs, trace.len as u64);
        match self.cache.probe(trace.start_pc) {
            ProbeResult::Hit { signature, .. } => {
                if signature != trace.signature {
                    self.counters.inc(self.mismatches);
                }
            }
            ProbeResult::Miss => {
                self.counters.add(self.recovery_loss_instrs, trace.len as u64);
                if let Some(ev) = self.cache.insert(trace.start_pc, trace.signature, trace.len) {
                    if ev.unreferenced {
                        self.counters.add(self.detection_loss_instrs, ev.len_at_insert as u64);
                    }
                }
            }
        }
    }

    /// The underlying cache (e.g. for inspecting end-of-run occupancy).
    pub fn cache(&self) -> &ItrCache {
        &self.cache
    }

    /// Produces the report. Lines still resident and unreferenced at the
    /// end of the run are *not* counted as detection loss, matching the
    /// paper (they may still be referenced in the future).
    pub fn report(&self) -> CoverageReport {
        let g = |c| self.counters.get(c);
        CoverageReport {
            total_instrs: g(self.total_instrs),
            total_traces: g(self.total_traces),
            recovery_loss_instrs: g(self.recovery_loss_instrs),
            detection_loss_instrs: g(self.detection_loss_instrs),
            mismatches: g(self.mismatches),
        }
    }

    /// Appends the `coverage` and `itr_cache` sections to an `itr-stats`
    /// report.
    pub fn export(&self, report: &mut Report) {
        report.push_section("coverage", &self.counters, &[]);
        self.cache.export(report);
    }
}

/// Observes one committed-trace stream with many coverage models in a
/// single pass. Each model sees exactly the sequence it would have seen
/// driven alone, so its report is byte-identical.
pub fn fan_out_records<'a, I>(stream: I, models: &mut [CoverageModel])
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    for trace in stream {
        for model in models.iter_mut() {
            model.observe(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;

    fn trace(pc: u64, len: u32) -> TraceRecord {
        TraceRecord { start_pc: pc, signature: pc.wrapping_mul(0x9E37_79B9), len }
    }

    #[test]
    fn report_display_is_informative() {
        let mut m = CoverageModel::new(ItrCacheConfig::new(64, Associativity::Ways(2)));
        m.observe(&trace(0x100, 8));
        let text = m.report().to_string();
        assert!(text.contains("recovery loss"));
        assert!(text.contains("1 traces"));
    }

    #[test]
    fn tight_loop_has_negligible_loss() {
        let mut m = CoverageModel::new(ItrCacheConfig::new(256, Associativity::Ways(2)));
        for _ in 0..10_000 {
            m.observe(&trace(0x100, 10));
        }
        let r = m.report();
        assert_eq!(r.recovery_loss_instrs, 10, "only the cold miss");
        assert_eq!(r.detection_loss_instrs, 0);
        assert!(r.recovery_loss_pct() < 0.02);
    }

    #[test]
    fn working_set_larger_than_cache_loses_recovery_coverage() {
        // 8-entry cache, 16-trace round-robin: every access misses.
        let mut m = CoverageModel::new(ItrCacheConfig::new(8, Associativity::Full));
        for round in 0..100 {
            for i in 0..16u64 {
                let _ = round;
                m.observe(&trace(0x1000 + i * 64, 8));
            }
        }
        let r = m.report();
        assert!(r.recovery_loss_pct() > 99.0, "thrashing: all misses");
        // Every eviction displaces an unreferenced line -> detection loss
        // approaches 100% too (minus the lines still resident at the end).
        assert!(r.detection_loss_pct() > 95.0);
    }

    #[test]
    fn detection_loss_is_never_above_recovery_loss() {
        // Mixed stream: hot loop + cold sweep.
        let mut m = CoverageModel::new(ItrCacheConfig::new(16, Associativity::Ways(4)));
        for i in 0..5_000u64 {
            m.observe(&trace(0x100 + (i % 4) * 64, 12));
            if i % 7 == 0 {
                m.observe(&trace(0x10_000 + (i * 64) % 8192, 6));
            }
        }
        let r = m.report();
        assert!(r.detection_loss_instrs <= r.recovery_loss_instrs);
        assert_eq!(r.mismatches, 0, "fault-free stream never mismatches");
    }

    #[test]
    fn resident_unreferenced_lines_are_not_detection_loss() {
        let mut m = CoverageModel::new(ItrCacheConfig::new(64, Associativity::Full));
        // 10 distinct traces, each seen once: all miss, none evicted.
        for i in 0..10u64 {
            m.observe(&trace(0x100 + i * 64, 4));
        }
        let r = m.report();
        assert_eq!(r.recovery_loss_instrs, 40);
        assert_eq!(r.detection_loss_instrs, 0);
    }

    #[test]
    fn bigger_cache_reduces_loss() {
        // 52-byte spacing (13 words) is co-prime with every power-of-two
        // set count, so the 600 traces spread over all sets.
        let stream: Vec<TraceRecord> =
            (0..20_000u64).map(|i| trace(0x1000 + (i % 600) * 52, 8)).collect();
        let mut small = CoverageModel::new(ItrCacheConfig::new(256, Associativity::Ways(2)));
        let mut large = CoverageModel::new(ItrCacheConfig::new(1024, Associativity::Ways(2)));
        for t in &stream {
            small.observe(t);
            large.observe(t);
        }
        assert!(
            large.report().recovery_loss_pct() < small.report().recovery_loss_pct(),
            "1024 entries must beat 256 on a 600-trace working set"
        );
    }

    #[test]
    fn fan_out_records_matches_sequential_observation() {
        let records: Vec<TraceRecord> = (0..200u64)
            .map(|i| TraceRecord { start_pc: 0x400 + (i % 7) * 64, signature: i * 13, len: 4 })
            .collect();
        let configs = [
            ItrCacheConfig::new(4, Associativity::Direct),
            ItrCacheConfig::new(16, Associativity::Ways(2)),
        ];
        let mut fanned: Vec<CoverageModel> =
            configs.iter().map(|&c| CoverageModel::new(c)).collect();
        fan_out_records(&records, &mut fanned);
        for (i, &config) in configs.iter().enumerate() {
            let mut direct = CoverageModel::new(config);
            for t in &records {
                direct.observe(t);
            }
            let mut a = Report::new();
            let mut b = Report::new();
            direct.export(&mut a);
            fanned[i].export(&mut b);
            assert_eq!(a.to_json(), b.to_json(), "config {i}");
        }
    }
}
