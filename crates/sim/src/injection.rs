//! The fault plan of one run, kept apart from the machine it runs on
//! ([`crate::PipelineConfig`]): every planned strike is a field of one
//! [`Injection`], which [`crate::Pipeline::arm`] hands to a pipeline.

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

/// A decode-signal fault: one *logical* fault that perturbs `bit` of the
/// packed signal vector of every decoded instruction whose decode index
/// lies in `[from_decode, until_decode)` and falls inside the active part
/// of the duty window. `period <= 1` means always active within the
/// window; otherwise the fault is active for the first `duty` of every
/// `period` decodes (an ITHICA-style intermittent window fault). A
/// one-decode window with [`SignalOp::Flip`] is a [`DecodeFault`].
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

impl From<DecodeFault> for SignalFault {
    fn from(f: DecodeFault) -> SignalFault {
        SignalFault {
            from_decode: f.nth_decode,
            until_decode: f.nth_decode.saturating_add(1),
            bit: f.bit,
            op: SignalOp::Flip,
            period: 0,
            duty: 0,
        }
    }
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
/// [`PipelineConfig::rename_protection`](crate::PipelineConfig::rename_protection).
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

/// The fault plan of one run; the default plans no strike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Injection {
    /// Decode-signal faults (SEUs, multi-bit upsets, stuck-at,
    /// intermittent), applied to each decode in push order.
    pub decode: Vec<SignalFault>,
    /// Planned burst fault armed by the first ITR mismatch, if any.
    pub burst: Option<BurstFault>,
    /// Planned fetch-reorder fault: swap the instruction words of the
    /// `n`-th and `n+1`-th decode slots (PCs keep their positions). XOR
    /// signatures are order-insensitive and cannot see a within-trace
    /// swap; the rotate-XOR fold variant can. Taken when it strikes.
    pub swap: Option<u64>,
    /// Planned scheduler fault, if any.
    pub scheduler: Option<SchedulerFault>,
    /// Planned rename-unit fault, if any.
    pub rename: Option<RenameFault>,
}

impl From<DecodeFault> for Injection {
    fn from(f: DecodeFault) -> Injection {
        Injection { decode: vec![f.into()], ..Injection::default() }
    }
}

impl Injection {
    /// Panics if a strike would already have landed on a run that has
    /// made `decoded` decodes and `issued` issues, with a burst armed at
    /// decode `burst_at` (its first ITR mismatch) if one surfaced.
    pub(crate) fn assert_ahead(&self, decoded: u64, issued: u64, burst_at: Option<u64>) {
        let first_strike = self
            .decode
            .iter()
            .map(|f| f.from_decode)
            .chain(self.swap)
            .chain(self.rename.map(|f| f.nth_rename))
            .chain(self.burst.and(burst_at))
            .min();
        if let Some(strike) = first_strike {
            assert!(
                decoded <= strike,
                "cannot arm a fault striking decode {strike}: {decoded} already decoded"
            );
        }
        if let Some(f) = self.scheduler {
            assert!(
                issued <= f.nth_issue,
                "cannot arm a scheduler fault at issue {}: {issued} already issued",
                f.nth_issue
            );
        }
    }

    /// `true` while a strike lies ahead of a run at the point
    /// [`Injection::assert_ahead`] takes.
    pub(crate) fn strikes_pending(&self, decoded: u64, issued: u64, burst_at: Option<u64>) -> bool {
        self.decode.iter().any(|f| f.from_decode < f.until_decode && f.until_decode > decoded)
            || self.swap.is_some_and(|n| n >= decoded)
            || self.rename.is_some_and(|f| f.nth_rename >= decoded)
            || self.scheduler.is_some_and(|f| f.nth_issue >= issued)
            || self
                .burst
                .is_some_and(|b| burst_at.is_none_or(|from| from.saturating_add(b.len) > decoded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // An SEU is a one-decode flip.
        let seu = SignalFault::from(DecodeFault { nth_decode: 7, bit: 3 });
        assert_eq!((6..9).map(|n| seu.strikes(n)).collect::<Vec<_>>(), [false, true, false]);
        assert_eq!(seu.apply(0b1000), 0);
    }
}
