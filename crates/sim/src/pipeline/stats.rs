//! The pipeline's counters: stages bump the fields of [`PipelineStats`]
//! directly, and [`PipelineStats::export`] appends them, with the
//! pipeline's histograms, as the `pipeline` section of the
//! `itr-stats/v1` JSON report.

use itr_stats::{HistogramSnapshot, Report, Unit};

/// Aggregate pipeline statistics (exported by
/// [`Pipeline::stats_report`](super::Pipeline::stats_report)).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions decoded (includes wrong-path).
    pub decoded: u64,
    /// Branch mispredictions repaired at execute.
    pub mispredicts: u64,
    /// ITR retry flushes performed.
    pub retry_flushes: u64,
    /// I-cache accesses (one per productive fetch cycle).
    pub icache_accesses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache load accesses.
    pub dcache_accesses: u64,
    /// D-cache load misses.
    pub dcache_misses: u64,
    /// Fetch groups spent re-fetching missed traces (§3 fallback).
    pub redundant_fetch_groups: u64,
    /// Missed traces verified by redundant fetch/decode.
    pub redundant_verifies: u64,
    /// Faults caught by the redundant copy (mismatch on re-decode).
    pub redundant_detects: u64,
    /// Instructions issued (issue-order index for scheduler faults).
    pub issued: u64,
    /// TAC issue-order assertion failures (§1 scheduler check).
    pub tac_violations: u64,
    /// Flush-restarts performed by the TAC check.
    pub tac_recoveries: u64,
    /// Sequential-PC check violations raised at commit (§2.5).
    pub spc_violations: u64,
}

impl PipelineStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

impl PipelineStats {
    /// Appends the `pipeline` section, with `histograms`, to a report.
    pub(in crate::pipeline) fn export(
        &self,
        report: &mut Report,
        histograms: &[HistogramSnapshot],
    ) {
        report.push_section(
            "pipeline",
            &[
                ("cycles", Unit::Cycles, self.cycles),
                ("committed", Unit::Instructions, self.committed),
                ("decoded", Unit::Instructions, self.decoded),
                ("mispredicts", Unit::Events, self.mispredicts),
                ("retry_flushes", Unit::Events, self.retry_flushes),
                ("icache_accesses", Unit::Accesses, self.icache_accesses),
                ("icache_misses", Unit::Accesses, self.icache_misses),
                ("dcache_accesses", Unit::Accesses, self.dcache_accesses),
                ("dcache_misses", Unit::Accesses, self.dcache_misses),
                ("redundant_fetch_groups", Unit::Events, self.redundant_fetch_groups),
                ("redundant_verifies", Unit::Traces, self.redundant_verifies),
                ("redundant_detects", Unit::Events, self.redundant_detects),
                ("issued", Unit::Instructions, self.issued),
                ("tac_violations", Unit::Events, self.tac_violations),
                ("tac_recoveries", Unit::Events, self.tac_recoveries),
                ("spc_violations", Unit::Events, self.spc_violations),
            ],
            histograms,
        );
    }
}
