//! Pipeline configuration: the machine a run simulates. What a run's
//! faults strike is planned apart from it, in [`crate::Injection`].

use crate::cache::CacheGeometry;
use itr_core::ItrConfig;

/// Configuration of the cycle-level pipeline.
///
/// Defaults model a 4-wide out-of-order core similar in spirit to the
/// MIPS R10K the paper's simulator targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Fetch/decode/rename/commit width.
    pub width: u32,
    /// Reorder-buffer capacity.
    pub rob_entries: u32,
    /// Issue-queue capacity.
    pub iq_entries: u32,
    /// Maximum in-flight loads+stores.
    pub lsq_entries: u32,
    /// Physical registers (must exceed 65 architectural + ROB size).
    pub phys_regs: u32,
    /// Maximum instructions issued per cycle.
    pub issue_width: u32,
    /// Fetch-queue capacity in instructions.
    pub fetch_queue: u32,
    /// Instruction-cache geometry.
    pub icache: CacheGeometry,
    /// Cycles added on an I-cache miss.
    pub icache_miss_penalty: u32,
    /// Data-cache geometry.
    pub dcache: CacheGeometry,
    /// Cycles added on a D-cache load miss.
    pub dcache_miss_penalty: u32,
    /// Gshare history bits.
    pub gshare_bits: u32,
    /// BTB entries.
    pub btb_entries: u32,
    /// Return-address-stack entries.
    pub ras_entries: u32,
    /// Watchdog limit in commit-free cycles (§4's `wdog` check).
    pub watchdog_cycles: u64,
    /// ITR unit configuration, or `None` for an unprotected pipeline.
    pub itr: Option<ItrConfig>,
    /// Minimum committed-instruction spacing between §2.3 coarse-grain
    /// checkpoints.
    pub checkpoint_min_gap: u64,
    /// Bounded-wait checkpointing: an unreferenced ITR line older than
    /// this many cache events (probes + inserts) stops blocking §2.3
    /// checkpoints. `None` keeps the paper's strict condition — which a
    /// single run-once trace (any prologue) blocks for the rest of the
    /// run, leaving zero checkpoint availability on real programs. A
    /// bounded wait restores availability at the price that an aged-out
    /// line may still hold committed corruption, so a checkpoint can
    /// cover a corrupt prefix (surfaced by `itr-recover` as
    /// `rollback-sdc`).
    pub checkpoint_line_age: Option<u64>,
    /// Enable the sequential-PC check at retirement (§2.5's `spc`).
    pub spc_check: bool,
    /// Enable the TAC-style issue-order assertion (§1's scheduler
    /// protection): every issued instruction asserts its register sources
    /// were ready; a violation squashes and restarts from the offending
    /// instruction.
    pub tac_check: bool,
    /// Fold the rename map-table indexes each instruction uses into the
    /// ITR signature — the §1 rename-unit extension. Must be identical
    /// between recording and checking instances, so it changes every
    /// stored signature; enable for whole runs only.
    pub rename_protection: bool,
}

impl PipelineConfig {
    /// The default core with ITR protection at the paper's configuration.
    pub fn with_itr() -> PipelineConfig {
        PipelineConfig { itr: Some(ItrConfig::paper_default()), ..PipelineConfig::default() }
    }
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            width: 4,
            rob_entries: 128,
            iq_entries: 48,
            lsq_entries: 64,
            phys_regs: 224,
            issue_width: 4,
            fetch_queue: 16,
            icache: CacheGeometry::power4_icache(),
            icache_miss_penalty: 8,
            dcache: CacheGeometry::default_dcache(),
            dcache_miss_penalty: 16,
            gshare_bits: 12,
            btb_entries: 512,
            ras_entries: 16,
            watchdog_cycles: 10_000,
            itr: None,
            checkpoint_min_gap: 10_000,
            checkpoint_line_age: None,
            spc_check: true,
            tac_check: false,
            rename_protection: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_enough_physical_registers() {
        let c = PipelineConfig::default();
        assert!(c.phys_regs >= 65 + c.rob_entries, "rename must never starve");
    }

    #[test]
    fn with_itr_enables_the_unit() {
        assert!(PipelineConfig::with_itr().itr.is_some());
        assert!(PipelineConfig::default().itr.is_none());
    }
}
