//! The pipeline's telemetry: every counter and histogram flows through
//! [`SimMetrics`] into the `itr-stats` layer.
//!
//! Stages increment typed counter handles (plain vector indexes — no
//! hashing on the cycle path); [`SimMetrics::snapshot`] materializes the
//! public [`PipelineStats`] view, and [`SimMetrics::export`] appends the
//! `pipeline` section of the `itr-stats/v1` JSON report.

use itr_stats::{Counter, Counters, Histogram, Report, Unit};

/// Aggregate pipeline statistics (a point-in-time snapshot; every value
/// lives in the `itr-stats` counter registry).
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

/// Counter handles + histograms for one pipeline instance.
#[derive(Debug, Clone)]
pub(in crate::pipeline) struct SimMetrics {
    counters: Counters,
    pub cycles: Counter,
    pub committed: Counter,
    pub decoded: Counter,
    pub mispredicts: Counter,
    pub retry_flushes: Counter,
    pub icache_accesses: Counter,
    pub icache_misses: Counter,
    pub dcache_accesses: Counter,
    pub dcache_misses: Counter,
    pub redundant_fetch_groups: Counter,
    pub redundant_verifies: Counter,
    pub redundant_detects: Counter,
    pub issued: Counter,
    pub tac_violations: Counter,
    pub tac_recoveries: Counter,
    pub spc_violations: Counter,
    /// Instructions committed per cycle (0 on stalled cycles).
    pub commit_width: Histogram,
    /// ROB occupancy sampled every cycle.
    pub rob_occupancy: Histogram,
    /// Issue-queue occupancy sampled every cycle.
    pub iq_occupancy: Histogram,
    /// Fetch-queue occupancy sampled every cycle.
    pub fetch_queue_occupancy: Histogram,
}

impl SimMetrics {
    pub fn new() -> SimMetrics {
        let mut c = Counters::new();
        let cycles = c.register("cycles", Unit::Cycles, "cycles simulated");
        let committed = c.register("committed", Unit::Instructions, "instructions committed");
        let decoded =
            c.register("decoded", Unit::Instructions, "instructions decoded (incl. wrong-path)");
        let mispredicts =
            c.register("mispredicts", Unit::Events, "branch mispredictions repaired at execute");
        let retry_flushes = c.register("retry_flushes", Unit::Events, "ITR retry flushes");
        let icache_accesses =
            c.register("icache_accesses", Unit::Accesses, "I-cache accesses (one per fetch cycle)");
        let icache_misses = c.register("icache_misses", Unit::Accesses, "I-cache misses");
        let dcache_accesses =
            c.register("dcache_accesses", Unit::Accesses, "D-cache load accesses");
        let dcache_misses = c.register("dcache_misses", Unit::Accesses, "D-cache load misses");
        let redundant_fetch_groups = c.register(
            "redundant_fetch_groups",
            Unit::Events,
            "fetch groups spent re-fetching missed traces (§3 fallback)",
        );
        let redundant_verifies = c.register(
            "redundant_verifies",
            Unit::Traces,
            "missed traces verified by redundant fetch/decode",
        );
        let redundant_detects = c.register(
            "redundant_detects",
            Unit::Events,
            "faults caught by the redundant copy (mismatch on re-decode)",
        );
        let issued = c.register("issued", Unit::Instructions, "instructions issued");
        let tac_violations =
            c.register("tac_violations", Unit::Events, "TAC issue-order assertion failures");
        let tac_recoveries =
            c.register("tac_recoveries", Unit::Events, "flush-restarts performed by the TAC check");
        let spc_violations =
            c.register("spc_violations", Unit::Events, "sequential-PC check violations (§2.5)");
        SimMetrics {
            counters: c,
            cycles,
            committed,
            decoded,
            mispredicts,
            retry_flushes,
            icache_accesses,
            icache_misses,
            dcache_accesses,
            dcache_misses,
            redundant_fetch_groups,
            redundant_verifies,
            redundant_detects,
            issued,
            tac_violations,
            tac_recoveries,
            spc_violations,
            commit_width: Histogram::new("commit_width"),
            rob_occupancy: Histogram::new("rob_occupancy"),
            iq_occupancy: Histogram::new("iq_occupancy"),
            fetch_queue_occupancy: Histogram::new("fetch_queue_occupancy"),
        }
    }

    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.counters.inc(c);
    }

    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters.add(c, n);
    }

    #[inline]
    pub fn set(&mut self, c: Counter, v: u64) {
        self.counters.set(c, v);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Point-in-time [`PipelineStats`] view.
    pub fn snapshot(&self) -> PipelineStats {
        PipelineStats {
            cycles: self.get(self.cycles),
            committed: self.get(self.committed),
            decoded: self.get(self.decoded),
            mispredicts: self.get(self.mispredicts),
            retry_flushes: self.get(self.retry_flushes),
            icache_accesses: self.get(self.icache_accesses),
            icache_misses: self.get(self.icache_misses),
            dcache_accesses: self.get(self.dcache_accesses),
            dcache_misses: self.get(self.dcache_misses),
            redundant_fetch_groups: self.get(self.redundant_fetch_groups),
            redundant_verifies: self.get(self.redundant_verifies),
            redundant_detects: self.get(self.redundant_detects),
            issued: self.get(self.issued),
            tac_violations: self.get(self.tac_violations),
            tac_recoveries: self.get(self.tac_recoveries),
            spc_violations: self.get(self.spc_violations),
        }
    }

    /// Appends the `pipeline` section to a report.
    pub fn export(&self, report: &mut Report) {
        report.push_section(
            "pipeline",
            &self.counters,
            &[
                self.commit_width.snapshot(),
                self.rob_occupancy.snapshot(),
                self.iq_occupancy.snapshot(),
                self.fetch_queue_occupancy.snapshot(),
            ],
        );
    }
}
