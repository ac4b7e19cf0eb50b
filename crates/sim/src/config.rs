//! Pipeline configuration and the fault-injection hook.

use crate::cache::CacheGeometry;
use itr_core::ItrConfig;

/// A planned single-event upset on the decode signals (§4 of the paper):
/// flip `bit` of the packed 64-bit signal vector of the `nth_decode`-th
/// dynamically decoded instruction (wrong-path instructions count — a
/// fault can strike any instruction the decode unit processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeFault {
    /// Zero-based index in decode order.
    pub nth_decode: u64,
    /// Bit position within the packed signal vector (0..64).
    pub bit: u32,
}

/// How a [`SignalFault`] perturbs its target bit while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalOp {
    /// XOR the bit — a transient upset repeated on every active decode.
    Flip,
    /// Force the bit to 0 — a defect-induced stuck-at-0.
    Stuck0,
    /// Force the bit to 1 — a stuck-at-1.
    Stuck1,
}

/// A multi-cycle decode-signal fault: one *logical* fault that perturbs
/// `bit` of the packed signal vector of every decoded instruction whose
/// decode index lies in `[from_decode, until_decode)` and falls inside
/// the active part of the duty window. `period <= 1` means always
/// active within the window; otherwise the fault is active for the
/// first `duty` of every `period` decodes (an ITHICA-style intermittent
/// window fault). A one-decode window with [`SignalOp::Flip`]
/// degenerates to a classic [`DecodeFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalFault {
    /// First decode index (zero-based, wrong-path decodes count) struck.
    pub from_decode: u64,
    /// Exclusive end of the struck decode range (`u64::MAX` = for the
    /// rest of the run: a permanent defect).
    pub until_decode: u64,
    /// Bit position within the packed signal vector (0..64).
    pub bit: u32,
    /// Perturbation applied while active.
    pub op: SignalOp,
    /// Duty-cycle period in decodes (`<= 1` = continuously active).
    pub period: u64,
    /// Active decodes per period (clamped to at least 1).
    pub duty: u64,
}

impl SignalFault {
    /// `true` when the fault perturbs the `nth_decode`-th decode.
    pub fn strikes(&self, nth_decode: u64) -> bool {
        if nth_decode < self.from_decode || nth_decode >= self.until_decode {
            return false;
        }
        if self.period <= 1 {
            return true;
        }
        (nth_decode - self.from_decode) % self.period < self.duty.max(1)
    }

    /// Applies the perturbation to a packed signal vector.
    pub fn apply(&self, packed: u64) -> u64 {
        let mask = 1u64 << (self.bit % 64);
        match self.op {
            SignalOp::Flip => packed ^ mask,
            SignalOp::Stuck0 => packed & !mask,
            SignalOp::Stuck1 => packed | mask,
        }
    }
}

/// A burst fault armed by the first ITR signature mismatch of the run:
/// each of the `len` decodes that follow the cycle the mismatch
/// surfaces has `bit` flipped. In active mode those decodes are the
/// refetched (retried) trace, so the burst strikes *during retry* and
/// stresses the recovery controller; in passive mode it models a noise
/// burst clustered around the first upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstFault {
    /// Bit position within the packed signal vector (0..64).
    pub bit: u32,
    /// Number of consecutive decodes struck once armed.
    pub len: u64,
}

/// A planned single-event upset in the *rename unit* (§1 of the paper
/// sketches extending ITR to the rename map table): flip one bit of the
/// architectural index used by the map-table lookup for one operand of
/// one dynamic instruction. Invisible to the plain decode-signal
/// signature — detectable only with
/// [`PipelineConfig::rename_protection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameFault {
    /// Zero-based index in rename (= dispatch) order.
    pub nth_rename: u64,
    /// Which operand's map index is struck: 0/1 = sources, 2 = dest.
    pub operand: u8,
    /// Bit flipped in the 7-bit architectural index (result taken mod 65).
    pub bit: u32,
}

/// A planned upset in the out-of-order scheduler's select logic: at the
/// `nth_issue`-th issue opportunity, wrongly select the oldest
/// *not-ready* instruction (it reads stale physical-register values).
/// Invisible to decode-signal signatures; detectable by the TAC-style
/// issue-order check (§1 of the paper cites Timestamp-based Assertion
/// Checking for exactly this fault class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerFault {
    /// Zero-based index in issue order.
    pub nth_issue: u64,
}

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
    /// Planned decode faults (empty = fault-free). Multiple entries model
    /// multi-event upsets, used to probe the XOR signature's documented
    /// blind spot (§2.1: an even number of flips of the same signal bit
    /// within one trace cancels).
    pub faults: Vec<DecodeFault>,
    /// Planned multi-cycle decode-signal faults (stuck-at, intermittent
    /// window, repeated flips). Each entry is one logical fault that may
    /// strike many decodes; see [`SignalFault`].
    pub signal_faults: Vec<SignalFault>,
    /// Planned burst fault armed by the first ITR mismatch, if any.
    pub burst_fault: Option<BurstFault>,
    /// Planned fetch-reorder fault: swap the instruction words of the
    /// `n`-th and `n+1`-th decode slots (PCs keep their positions). XOR
    /// signatures are order-insensitive and cannot see a within-trace
    /// swap; the rotate-XOR fold variant can.
    pub swap_fault: Option<u64>,
    /// Enable the TAC-style issue-order assertion (§1's scheduler
    /// protection): every issued instruction asserts its register sources
    /// were ready; a violation squashes and restarts from the offending
    /// instruction.
    pub tac_check: bool,
    /// Planned scheduler fault, if any.
    pub scheduler_fault: Option<SchedulerFault>,
    /// Fold the rename map-table indexes each instruction uses into the
    /// ITR signature — the §1 rename-unit extension. Must be identical
    /// between recording and checking instances, so it changes every
    /// stored signature; enable for whole runs only.
    pub rename_protection: bool,
    /// Planned rename-unit fault, if any.
    pub rename_fault: Option<RenameFault>,
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
            faults: Vec::new(),
            signal_faults: Vec::new(),
            burst_fault: None,
            swap_fault: None,
            tac_check: false,
            scheduler_fault: None,
            rename_protection: false,
            rename_fault: None,
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

    #[test]
    fn signal_fault_window_and_duty_cycle() {
        let f = SignalFault {
            from_decode: 10,
            until_decode: 20,
            bit: 3,
            op: SignalOp::Flip,
            period: 4,
            duty: 2,
        };
        assert!(!f.strikes(9), "before the window");
        assert!(f.strikes(10) && f.strikes(11), "active phase of the duty cycle");
        assert!(!f.strikes(12) && !f.strikes(13), "inactive phase");
        assert!(f.strikes(14) && f.strikes(15), "next period");
        assert!(!f.strikes(20), "window end is exclusive");
        let always = SignalFault { period: 0, ..f };
        assert!((10..20).all(|i| always.strikes(i)));
    }

    #[test]
    fn signal_fault_ops_apply_to_the_packed_vector() {
        let f = |op| SignalFault {
            from_decode: 0,
            until_decode: u64::MAX,
            bit: 3,
            op,
            period: 0,
            duty: 0,
        };
        assert_eq!(f(SignalOp::Flip).apply(0b1000), 0);
        assert_eq!(f(SignalOp::Flip).apply(0), 0b1000);
        assert_eq!(f(SignalOp::Stuck0).apply(0b1000), 0);
        assert_eq!(f(SignalOp::Stuck1).apply(0), 0b1000);
        assert_eq!(f(SignalOp::Stuck1).apply(0b1000), 0b1000, "stuck-at is idempotent");
    }
}
