//! The `itr-repro` experiment registry ([`experiments`]) and the helpers
//! its experiments share: trace sources, percentage formatting and
//! committed-stream statistics.

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod experiments;

use itr_core::TraceRecord;
use itr_sim::TraceStream;
use itr_workloads::{generate_mimic_sized, SpecProfile, SyntheticTraceStream};
use std::collections::HashMap;

/// Produces the committed trace stream for one benchmark, from either the
/// statistical model or a generated program run on the functional
/// simulator.
pub fn stream_with(
    profile: SpecProfile,
    seed: u64,
    instrs: u64,
    from_programs: bool,
) -> Box<dyn Iterator<Item = TraceRecord>> {
    if from_programs {
        let program = generate_mimic_sized(profile, seed, instrs);
        Box::new(TraceStream::new(&program, instrs))
    } else {
        Box::new(SyntheticTraceStream::new(profile, seed, instrs))
    }
}

/// Formats a percentage for the text tables.
pub fn pct(x: f64) -> String {
    format!("{x:6.2}%")
}

/// Per-trace dynamic-instruction totals and repeat distances for a
/// committed trace stream — the measurements behind Figures 1–4 and
/// Table 1.
#[derive(Debug, Default, Clone)]
pub struct StreamStats {
    /// Total dynamic instructions.
    pub total_instrs: u64,
    /// Dynamic instructions contributed per static trace.
    pub instrs_by_trace: HashMap<u64, u64>,
    /// For each repeat of a trace, the dynamic-instruction distance since
    /// its previous occurrence, weighted by the instance length:
    /// `(distance, instrs)`.
    pub repeat_distances: Vec<(u64, u64)>,
}

impl StreamStats {
    /// Accumulates a whole stream.
    pub fn collect(stream: impl Iterator<Item = TraceRecord>) -> StreamStats {
        let mut stats = StreamStats::default();
        let mut last_pos: HashMap<u64, u64> = HashMap::new();
        let mut pos = 0u64;
        for t in stream {
            stats.total_instrs += t.len as u64;
            *stats.instrs_by_trace.entry(t.start_pc).or_default() += t.len as u64;
            if let Some(prev) = last_pos.insert(t.start_pc, pos) {
                stats.repeat_distances.push((pos - prev, t.len as u64));
            }
            pos += t.len as u64;
        }
        stats
    }

    /// Number of distinct static traces observed (Table 1).
    pub fn static_traces(&self) -> usize {
        self.instrs_by_trace.len()
    }

    /// Cumulative % of dynamic instructions contributed by the top `n`
    /// static traces (Figures 1–2).
    pub fn top_n_share_pct(&self, n: usize) -> f64 {
        let mut counts: Vec<u64> = self.instrs_by_trace.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts.iter().take(n).sum();
        top as f64 * 100.0 / self.total_instrs.max(1) as f64
    }

    /// % of dynamic instructions contributed by repeats within `limit`
    /// dynamic instructions (Figures 3–4).
    pub fn within_distance_pct(&self, limit: u64) -> f64 {
        let close: u64 =
            self.repeat_distances.iter().filter(|(d, _)| *d < limit).map(|(_, n)| *n).sum();
        close as f64 * 100.0 / self.total_instrs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_core::TraceRecord;

    fn t(pc: u64, len: u32) -> TraceRecord {
        TraceRecord { start_pc: pc, signature: pc, len }
    }

    #[test]
    fn stream_stats_counts_and_shares() {
        // Trace A: 3 instances of 10 instrs; trace B: 1 instance of 5.
        let stream = vec![t(0x100, 10), t(0x200, 5), t(0x100, 10), t(0x100, 10)];
        let stats = StreamStats::collect(stream.into_iter());
        assert_eq!(stats.total_instrs, 35);
        assert_eq!(stats.static_traces(), 2);
        assert!((stats.top_n_share_pct(1) - 30.0 / 35.0 * 100.0).abs() < 1e-9);
        assert_eq!(stats.top_n_share_pct(2), 100.0);
    }

    #[test]
    fn repeat_distances_are_instruction_weighted() {
        // A at pos 0 (len 10), B at 10 (len 5), A at 15 -> distance 15.
        let stream = vec![t(0x100, 10), t(0x200, 5), t(0x100, 10)];
        let stats = StreamStats::collect(stream.into_iter());
        assert_eq!(stats.repeat_distances, vec![(15, 10)]);
        assert!((stats.within_distance_pct(16) - 10.0 / 25.0 * 100.0).abs() < 1e-9);
        assert_eq!(stats.within_distance_pct(15), 0.0, "strict inequality");
    }

    #[test]
    fn empty_stream_is_well_defined() {
        let stats = StreamStats::collect(std::iter::empty());
        assert_eq!(stats.total_instrs, 0);
        assert_eq!(stats.top_n_share_pct(10), 0.0);
        assert_eq!(stats.within_distance_pct(500), 0.0);
    }
}
