//! Fault-model library beyond single-bit SEU (hostile environments).
//!
//! The paper's §4 campaign injects exactly one single-event upset per
//! run. Deployed hardware also faces *multi-bit* upsets (one particle
//! strike flipping physically adjacent latches, or independent strikes
//! within a window), *defect-induced* stuck-at and intermittent faults
//! (ITHICA's fault class: a marginal circuit active for a window with a
//! duty cycle), and *burst* noise clustered around an upset — including
//! during the ITR retry itself, which stresses the recovery controller.
//!
//! Each [`FaultModel`] expands into a run's `itr-sim` fault plan
//! ([`Injection`]: decode-signal faults and a burst) and runs through
//! the same campaign [`Plan`] and outcome taxonomy as the SEU campaign
//! ([`ModelPlan`]), so Figure-8-style outcome profiles are directly
//! comparable across models.
//!
//! ## Soundness notes
//!
//! One model instance is one *logical* fault, however many decodes it
//! strikes; the campaign observes it once over its whole window, so a
//! stuck-at fault is never tallied as thousands of injections.
//! Active-mode recovery prediction (`ITR+SDC+R` ⇒ retry succeeds) is
//! only sound for [`FaultPersistence::Transient`] models: a persistent
//! or intermittent fault can re-strike the refetched trace, so
//! [`FaultModel::active_recovery_sound`] gates which instances the
//! differential oracles (`itr-fuzz`) hold to that prediction when they
//! run them through the `itr-recover` engine.

use crate::campaign::{CampaignConfig, Fault, Plan};
use itr_isa::Program;
use itr_sim::{BurstFault, DecodeFault, Injection, SignalFault, SignalOp};
use itr_stats::SplitMix64;

/// How long a fault model keeps perturbing the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPersistence {
    /// Strikes one dynamic instant and is gone (SEU-like). Retrying the
    /// detected trace re-executes fault-free, so active-mode recovery
    /// predictions are sound.
    Transient,
    /// Active over a bounded window (possibly with a duty cycle); a
    /// retry inside the window may be struck again.
    Intermittent,
    /// Active for the rest of the run (hard defect); every retry of an
    /// affected trace re-strikes.
    Persistent,
}

/// The fault-model kinds of the hostile-environment study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModelKind {
    /// Baseline single-event upset (the paper's §4 model).
    Seu,
    /// One strike flipping 2–3 physically adjacent signal bits.
    MultiBitAdjacent,
    /// 2–4 independent bit flips on the same decoded instruction.
    MultiBitRandom,
    /// A signal bit stuck at 0 for a window of decodes.
    StuckAt0,
    /// A signal bit stuck at 1 for a window of decodes.
    StuckAt1,
    /// ITHICA-style intermittent: repeated flips of one bit, active
    /// `duty`-in-`period` decodes inside a bounded window.
    Intermittent,
    /// An SEU whose detection arms a noise burst striking the decodes
    /// that follow the first mismatch — in active mode, the retry.
    BurstOnRetry,
}

impl ModelKind {
    /// Every kind, in report order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Seu,
        ModelKind::MultiBitAdjacent,
        ModelKind::MultiBitRandom,
        ModelKind::StuckAt0,
        ModelKind::StuckAt1,
        ModelKind::Intermittent,
        ModelKind::BurstOnRetry,
    ];

    /// Stable label used in reports, CSVs and counter names.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Seu => "seu",
            ModelKind::MultiBitAdjacent => "mbu-adjacent",
            ModelKind::MultiBitRandom => "mbu-random",
            ModelKind::StuckAt0 => "stuck-at-0",
            ModelKind::StuckAt1 => "stuck-at-1",
            ModelKind::Intermittent => "intermittent",
            ModelKind::BurstOnRetry => "burst-on-retry",
        }
    }
}

/// One concrete fault-model instance (one *logical* fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultModel {
    /// Single-bit upset on one decoded instruction.
    Seu(DecodeFault),
    /// `width` adjacent bits (`bit..bit+width`) flipped on one decode.
    MultiBitAdjacent {
        /// Zero-based decode index struck.
        nth_decode: u64,
        /// Lowest flipped bit.
        bit: u32,
        /// Number of adjacent bits flipped (`bit + width <= 64`).
        width: u32,
    },
    /// Independent distinct bits flipped on one decode.
    MultiBitRandom {
        /// Zero-based decode index struck.
        nth_decode: u64,
        /// Distinct flipped bit positions.
        bits: Vec<u32>,
    },
    /// One bit forced to `value` for `[from_decode, until_decode)`.
    StuckAt {
        /// First struck decode index.
        from_decode: u64,
        /// Exclusive end (`u64::MAX` = hard defect for the rest of the run).
        until_decode: u64,
        /// Stuck bit position.
        bit: u32,
        /// Forced value.
        value: bool,
    },
    /// Repeated flips with a duty cycle inside a bounded window.
    Intermittent {
        /// First decode index of the active window.
        from_decode: u64,
        /// Exclusive end of the active window.
        until_decode: u64,
        /// Flipped bit position.
        bit: u32,
        /// Duty-cycle period in decodes.
        period: u64,
        /// Active decodes per period.
        duty: u64,
    },
    /// A primary SEU plus a burst armed by the first ITR mismatch.
    BurstOnRetry {
        /// The upset that causes the arming mismatch.
        primary: DecodeFault,
        /// Bit flipped by each burst decode.
        bit: u32,
        /// Burst length in decodes.
        len: u64,
    },
}

impl FaultModel {
    /// This instance's kind.
    pub fn kind(&self) -> ModelKind {
        match self {
            FaultModel::Seu(_) => ModelKind::Seu,
            FaultModel::MultiBitAdjacent { .. } => ModelKind::MultiBitAdjacent,
            FaultModel::MultiBitRandom { .. } => ModelKind::MultiBitRandom,
            FaultModel::StuckAt { value: false, .. } => ModelKind::StuckAt0,
            FaultModel::StuckAt { value: true, .. } => ModelKind::StuckAt1,
            FaultModel::Intermittent { .. } => ModelKind::Intermittent,
            FaultModel::BurstOnRetry { .. } => ModelKind::BurstOnRetry,
        }
    }

    /// How long the fault keeps perturbing the machine.
    pub fn persistence(&self) -> FaultPersistence {
        match self {
            FaultModel::Seu(_)
            | FaultModel::MultiBitAdjacent { .. }
            | FaultModel::MultiBitRandom { .. } => FaultPersistence::Transient,
            FaultModel::StuckAt { until_decode: u64::MAX, .. } => FaultPersistence::Persistent,
            FaultModel::StuckAt { .. }
            | FaultModel::Intermittent { .. }
            | FaultModel::BurstOnRetry { .. } => FaultPersistence::Intermittent,
        }
    }

    /// `true` when the passive `ITR+SDC+R` classification soundly
    /// predicts that an active-mode retry recovers: only transient
    /// models qualify — anything that can re-strike the refetched trace
    /// (intermittent windows, stuck-at defects, retry bursts) makes the
    /// prediction typical-case at best.
    pub fn active_recovery_sound(&self) -> bool {
        self.persistence() == FaultPersistence::Transient
    }

    /// First decode index the fault can strike — the phase-1 injection
    /// point the observer runs past before opening the window. (A
    /// [`FaultModel::BurstOnRetry`] burst arms later, but its primary
    /// strikes here.)
    pub fn first_strike(&self) -> u64 {
        match *self {
            FaultModel::Seu(f) => f.nth_decode,
            FaultModel::MultiBitAdjacent { nth_decode, .. } => nth_decode,
            FaultModel::MultiBitRandom { nth_decode, .. } => nth_decode,
            FaultModel::StuckAt { from_decode, .. } => from_decode,
            FaultModel::Intermittent { from_decode, .. } => from_decode,
            FaultModel::BurstOnRetry { primary, .. } => primary.nth_decode,
        }
    }

    /// Samples one instance of `kind` with the strike point in
    /// `[min_decode, max_decode)`. Deterministic in the RNG state.
    pub fn sample(
        kind: ModelKind,
        rng: &mut SplitMix64,
        min_decode: u64,
        max_decode: u64,
    ) -> FaultModel {
        let nth = rng.gen_range(min_decode..max_decode);
        match kind {
            ModelKind::Seu => {
                FaultModel::Seu(DecodeFault { nth_decode: nth, bit: rng.gen_range(0..64) })
            }
            ModelKind::MultiBitAdjacent => {
                let width: u32 = rng.gen_range(2..=3);
                FaultModel::MultiBitAdjacent {
                    nth_decode: nth,
                    bit: rng.gen_range(0..(64 - width)),
                    width,
                }
            }
            ModelKind::MultiBitRandom => {
                let k: usize = rng.gen_range(2..=4);
                let mut bits: Vec<u32> = Vec::with_capacity(k);
                while bits.len() < k {
                    let b = rng.gen_range(0..64);
                    if !bits.contains(&b) {
                        bits.push(b);
                    }
                }
                FaultModel::MultiBitRandom { nth_decode: nth, bits }
            }
            ModelKind::StuckAt0 | ModelKind::StuckAt1 => FaultModel::StuckAt {
                from_decode: nth,
                until_decode: nth + rng.gen_range(100..2_000u64),
                bit: rng.gen_range(0..64),
                value: kind == ModelKind::StuckAt1,
            },
            ModelKind::Intermittent => {
                let period: u64 = rng.gen_range(2..20);
                FaultModel::Intermittent {
                    from_decode: nth,
                    until_decode: nth + rng.gen_range(200..2_000u64),
                    bit: rng.gen_range(0..64),
                    period,
                    duty: rng.gen_range(1..=period / 2 + 1),
                }
            }
            ModelKind::BurstOnRetry => FaultModel::BurstOnRetry {
                primary: DecodeFault { nth_decode: nth, bit: rng.gen_range(0..64) },
                bit: rng.gen_range(0..64),
                len: rng.gen_range(2..16u64),
            },
        }
    }
}

impl Fault for FaultModel {
    fn first_strike(&self) -> u64 {
        FaultModel::first_strike(self)
    }

    fn inject_into(&self, injection: &mut Injection) {
        let seu = |nth_decode, bit| SignalFault::from(DecodeFault { nth_decode, bit });
        let decode = &mut injection.decode;
        match *self {
            FaultModel::Seu(f) => decode.push(f.into()),
            FaultModel::MultiBitAdjacent { nth_decode, bit, width } => {
                decode.extend((bit..bit + width).map(|b| seu(nth_decode, b)));
            }
            FaultModel::MultiBitRandom { nth_decode, ref bits } => {
                decode.extend(bits.iter().map(|&b| seu(nth_decode, b)));
            }
            FaultModel::StuckAt { from_decode, until_decode, bit, value } => {
                let op = if value { SignalOp::Stuck1 } else { SignalOp::Stuck0 };
                decode.push(SignalFault { from_decode, until_decode, bit, op, period: 0, duty: 0 });
            }
            FaultModel::Intermittent { from_decode, until_decode, bit, period, duty } => {
                let op = SignalOp::Flip;
                decode.push(SignalFault { from_decode, until_decode, bit, op, period, duty });
            }
            FaultModel::BurstOnRetry { primary, bit, len } => {
                decode.push(primary.into());
                injection.burst = Some(BurstFault { bit, len });
            }
        }
    }

    /// One decode past the last struck one. A stuck-at fault models a
    /// defect, so its window end is not taken as the end of its strikes:
    /// it is never spent. A burst's strikes follow the run's first
    /// mismatch; the pipeline tracks them.
    fn strikes_end(&self) -> Option<u64> {
        match *self {
            FaultModel::Seu(f) => Some(f.nth_decode + 1),
            FaultModel::MultiBitAdjacent { nth_decode, .. }
            | FaultModel::MultiBitRandom { nth_decode, .. } => Some(nth_decode + 1),
            FaultModel::StuckAt { .. } => None,
            FaultModel::Intermittent { until_decode, .. } => Some(until_decode),
            FaultModel::BurstOnRetry { primary, .. } => Some(primary.nth_decode + 1),
        }
    }
}

/// The plan of one fault-model campaign: instances of one [`ModelKind`]
/// over one program.
pub type ModelPlan = Plan<FaultModel>;

impl ModelPlan {
    /// Builds the golden references and samples `cfg.faults` instances
    /// of `kind`. The RNG seed is perturbed by the kind's position so
    /// different kinds over the same program draw independent streams;
    /// `Seu`'s perturbation is zero, so it draws exactly the faults
    /// [`crate::CampaignPlan::new`] does.
    pub fn new(program: &Program, kind: ModelKind, cfg: &CampaignConfig) -> ModelPlan {
        let kind_idx =
            ModelKind::ALL.iter().position(|&k| k == kind).expect("kind is in ALL") as u64;
        let seed = cfg.seed ^ (kind_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Plan::sample(program, cfg, seed, |rng, lo, hi| FaultModel::sample(kind, rng, lo, hi))
    }

    /// The sampled model list (index space for [`Plan::run_range`]).
    pub fn models(&self) -> &[FaultModel] {
        self.faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, clean_signatures, observe_fault, Outcome};
    use itr_isa::asm::assemble;
    use itr_sim::Execution;
    use itr_workloads::{generate_mimic_sized, kernels, profiles};

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            faults: 8,
            window_cycles: 20_000,
            min_decode: 20,
            max_decode: 2_000,
            seed: 7,
            ..CampaignConfig::default()
        }
    }

    fn outcomes_for(kind: ModelKind) -> Vec<Outcome> {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let c = cfg();
        let plan = ModelPlan::new(&p, kind, &c);
        let shard = plan.run_range(&p, &c, 0, c.faults, &|| false);
        assert_eq!(shard.records.len(), c.faults as usize, "every instance classified once");
        assert_eq!(
            shard.report.counter("campaign", "injected"),
            Some(u64::from(c.faults)),
            "one logical fault = one injection, however many decodes it strikes"
        );
        shard.records.iter().map(|r| r.outcome).collect()
    }

    #[test]
    fn every_kind_classifies_each_instance_exactly_once() {
        for kind in ModelKind::ALL {
            let outcomes = outcomes_for(kind);
            assert!(!outcomes.is_empty(), "{}", kind.label());
        }
    }

    #[test]
    fn multi_bit_models_are_detected_in_a_hot_loop() {
        // Distinct-bit flips never cancel in the XOR fold, so a hot loop
        // detects multi-bit upsets at least as readily as SEUs.
        for kind in [ModelKind::MultiBitAdjacent, ModelKind::MultiBitRandom] {
            let outcomes = outcomes_for(kind);
            assert!(
                outcomes.iter().any(|o| o.itr_detected()),
                "{}: no ITR detection in {outcomes:?}",
                kind.label()
            );
        }
    }

    #[test]
    fn stuck_at_models_classify_without_double_counting() {
        // A stuck-at fault strikes hundreds of decodes; the campaign
        // section must still count it as a single injection (asserted in
        // `outcomes_for`) and the observation must classify.
        for kind in [ModelKind::StuckAt0, ModelKind::StuckAt1] {
            let outcomes = outcomes_for(kind);
            assert_eq!(outcomes.len(), 8, "{}", kind.label());
        }
    }

    #[test]
    fn intermittent_model_is_detected_or_masked_never_lost() {
        let outcomes = outcomes_for(ModelKind::Intermittent);
        // The taxonomy is total: every instance lands in some bucket.
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().any(|o| o.itr_detected() || *o == Outcome::UndetMask));
    }

    #[test]
    fn burst_on_retry_arms_only_after_a_mismatch() {
        // A burst with an unstrikable primary (decode index far past the
        // window) never arms: the run is fault-free.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let model = FaultModel::BurstOnRetry {
            primary: DecodeFault { nth_decode: u64::MAX - 1, bit: 0 },
            bit: 3,
            len: 8,
        };
        let c = cfg();
        let golden_len = c.max_decode + c.window_cycles * 4 + 10_000;
        let exec = Execution::record(&p, golden_len);
        let (obs, _) = observe_fault(&p, &model, &exec.records, c.itr, c.window_cycles);
        assert_eq!(classify(&obs, &clean_signatures(&exec)), Outcome::UndetMask);
    }

    #[test]
    fn burst_on_retry_strikes_after_the_primary_mismatch() {
        let outcomes = outcomes_for(ModelKind::BurstOnRetry);
        // The primary SEU alone already mismatches in a hot loop; the
        // burst can only add further perturbation, never hide it.
        assert!(outcomes.iter().any(|o| o.itr_detected()), "{outcomes:?}");
    }

    #[test]
    fn multi_bit_redirect_of_a_non_branch_keeps_trace_order() {
        // Bits 0 and 11 are the opcode's LSB and `IS_BRANCH`: this
        // instance turns a non-control instruction into a mispredicting
        // branch. Its rollback must restore the ITR state, or the
        // squashed traces stay in the ITR ROB and a later trace end
        // commits out of order (a panic in `ItrUnit`).
        let p = generate_mimic_sized(profiles::by_name("gzip").unwrap(), 1, 60_000);
        let model = FaultModel::MultiBitRandom { nth_decode: 202, bits: vec![47, 11, 0, 22] };
        let window = 100_000;
        let exec = Execution::record(&p, model.first_strike() + window * 4 + 10_000);
        let (obs, _) = observe_fault(&p, &model, &exec.records, cfg().itr, window);
        // The corrupted trace mismatches its clean signature, and a retry
        // would recover it.
        assert_eq!(classify(&obs, &clean_signatures(&exec)), Outcome::ItrSdcR);
    }

    #[test]
    fn seeded_draws_of_every_kind_run_on_mimics_without_panic() {
        for (bench, seed) in [("gzip", 1), ("vortex", 2), ("swim", 3)] {
            let p = generate_mimic_sized(profiles::by_name(bench).unwrap(), seed, 20_000);
            let c = CampaignConfig {
                faults: 8,
                window_cycles: 10_000,
                min_decode: 100,
                max_decode: 15_000,
                seed,
                ..CampaignConfig::default()
            };
            for kind in ModelKind::ALL {
                let plan = ModelPlan::new(&p, kind, &c);
                let shard = plan.run_range(&p, &c, 0, c.faults, &|| false);
                assert_eq!(shard.records.len(), c.faults as usize, "{bench} {}", kind.label());
            }
        }
    }

    #[test]
    fn persistence_and_soundness_gates() {
        let seu = FaultModel::Seu(DecodeFault { nth_decode: 5, bit: 1 });
        assert_eq!(seu.persistence(), FaultPersistence::Transient);
        assert!(seu.active_recovery_sound());
        let hard =
            FaultModel::StuckAt { from_decode: 5, until_decode: u64::MAX, bit: 1, value: true };
        assert_eq!(hard.persistence(), FaultPersistence::Persistent);
        assert!(!hard.active_recovery_sound());
        let window =
            FaultModel::StuckAt { from_decode: 5, until_decode: 500, bit: 1, value: false };
        assert_eq!(window.persistence(), FaultPersistence::Intermittent);
        let burst = FaultModel::BurstOnRetry {
            primary: DecodeFault { nth_decode: 5, bit: 1 },
            bit: 2,
            len: 4,
        };
        assert!(!burst.active_recovery_sound());
    }

    #[test]
    fn sampling_is_deterministic_and_kind_faithful() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for kind in ModelKind::ALL {
            let ma = FaultModel::sample(kind, &mut a, 10, 1_000);
            let mb = FaultModel::sample(kind, &mut b, 10, 1_000);
            assert_eq!(ma, mb);
            assert_eq!(ma.kind(), kind);
            assert!(ma.first_strike() >= 10 && ma.first_strike() < 1_000);
        }
    }
}
