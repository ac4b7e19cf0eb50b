//! Fault-outcome taxonomy and classification rules (§4, Figure 8).

use std::collections::HashMap;
use std::fmt;

/// The outcome categories of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// Detected by ITR; architecturally masked. (The signature differs
    /// even when the flipped signal was irrelevant to the instruction.)
    ItrMask,
    /// Detected by ITR at the accessing (faulty) instance: the commit
    /// interlock blocks the trace, so flush-and-restart recovers what
    /// would otherwise have been silent data corruption.
    ItrSdcR,
    /// Detected by ITR only at the *next* instance: the faulty missed
    /// instance already committed, so only detection (abort) is possible.
    ItrSdcD,
    /// Detected by ITR; without the retry the fault would have deadlocked
    /// the pipeline (caught by the watchdog in the passive run).
    ItrWdogR,
    /// Undetected in the window, but the faulty signature is still in the
    /// ITR cache: a future instance may still detect the SDC.
    MayItrSdc,
    /// As above, with the fault architecturally masked.
    MayItrMask,
    /// Caught only by the sequential-PC check; silent data corruption.
    SpcSdc,
    /// Undetected silent data corruption.
    UndetSdc,
    /// Undetected by ITR; deadlock caught by the watchdog alone.
    UndetWdog,
    /// Undetected and masked.
    UndetMask,
}

impl Outcome {
    /// All outcomes in the order Figure 8 stacks them.
    pub const ALL: [Outcome; 10] = [
        Outcome::ItrMask,
        Outcome::ItrSdcR,
        Outcome::ItrSdcD,
        Outcome::ItrWdogR,
        Outcome::MayItrSdc,
        Outcome::MayItrMask,
        Outcome::SpcSdc,
        Outcome::UndetSdc,
        Outcome::UndetWdog,
        Outcome::UndetMask,
    ];

    /// Figure 8 legend label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::ItrMask => "ITR+Mask",
            Outcome::ItrSdcR => "ITR+SDC+R",
            Outcome::ItrSdcD => "ITR+SDC+D",
            Outcome::ItrWdogR => "ITR+wdog+R",
            Outcome::MayItrSdc => "MayITR+SDC",
            Outcome::MayItrMask => "MayITR+Mask",
            Outcome::SpcSdc => "spc+SDC",
            Outcome::UndetSdc => "Undet+SDC",
            Outcome::UndetWdog => "Undet+wdog",
            Outcome::UndetMask => "Undet+Mask",
        }
    }

    /// `true` for outcomes counted as "detected through the ITR cache".
    pub fn itr_detected(self) -> bool {
        matches!(self, Outcome::ItrMask | Outcome::ItrSdcR | Outcome::ItrSdcD | Outcome::ItrWdogR)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything observed from one passive faulty run, ready to classify.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// The committed stream diverged from the golden stream.
    pub sdc: bool,
    /// The run ended in a watchdog-detected deadlock.
    pub deadlock: bool,
    /// The first ITR signature mismatch, if any: `(start_pc,
    /// cached_signature, new_signature)`.
    pub first_mismatch: Option<(u64, u64, u64)>,
    /// The sequential-PC check fired.
    pub spc_fired: bool,
    /// Resident `(start_pc, signature)` ITR cache lines at window end.
    pub resident_lines: Vec<(u64, u64)>,
}

/// Classifies one observation against the golden per-trace signature map.
///
/// The `clean_signatures` map gives the fault-free signature of each
/// static trace (keyed by start PC), taken from a golden trace-stream run
/// of the same program.
pub fn classify(obs: &Observation, clean_signatures: &HashMap<u64, u64>) -> Outcome {
    if let Some((start_pc, _cached, new_sig)) = obs.first_mismatch {
        if obs.deadlock {
            return Outcome::ItrWdogR;
        }
        if obs.sdc {
            // Which side of the mismatch is anomalous? If the accessing
            // instance's signature differs from the clean one (or the
            // trace never exists in a clean run), the faulty instance is
            // the accessor and was still uncommitted at detection time:
            // recoverable. If the accessor is clean, the cached copy came
            // from a faulty instance that already committed: detect-only.
            let accessor_clean = clean_signatures.get(&start_pc) == Some(&new_sig);
            return if accessor_clean { Outcome::ItrSdcD } else { Outcome::ItrSdcR };
        }
        return Outcome::ItrMask;
    }
    if obs.spc_fired && obs.sdc {
        return Outcome::SpcSdc;
    }
    if obs.deadlock {
        return Outcome::UndetWdog;
    }
    // No detection inside the window: check whether a faulty signature is
    // still resident (MayITR: a future hit would detect it).
    let tainted_resident = obs.resident_lines.iter().any(|(pc, sig)| {
        match clean_signatures.get(pc) {
            Some(clean) => clean != sig,
            None => true, // a trace the clean run never produced
        }
    });
    match (tainted_resident, obs.sdc) {
        (true, true) => Outcome::MayItrSdc,
        (true, false) => Outcome::MayItrMask,
        (false, true) => Outcome::UndetSdc,
        (false, false) => Outcome::UndetMask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_map() -> HashMap<u64, u64> {
        HashMap::from([(0x100, 111u64), (0x200, 222u64)])
    }

    #[test]
    fn accessor_faulty_mismatch_is_recoverable() {
        let obs = Observation {
            sdc: true,
            first_mismatch: Some((0x100, 111, 999)), // cached clean, accessor odd
            ..Observation::default()
        };
        assert_eq!(classify(&obs, &clean_map()), Outcome::ItrSdcR);
    }

    #[test]
    fn cached_faulty_mismatch_is_detect_only() {
        let obs = Observation {
            sdc: true,
            first_mismatch: Some((0x100, 999, 111)), // accessor matches clean
            ..Observation::default()
        };
        assert_eq!(classify(&obs, &clean_map()), Outcome::ItrSdcD);
    }

    #[test]
    fn masked_mismatch_is_itr_mask() {
        let obs = Observation { first_mismatch: Some((0x100, 111, 998)), ..Observation::default() };
        assert_eq!(classify(&obs, &clean_map()), Outcome::ItrMask);
    }

    #[test]
    fn deadlock_with_mismatch_is_itr_wdog_r() {
        let obs = Observation {
            deadlock: true,
            first_mismatch: Some((0x100, 111, 998)),
            ..Observation::default()
        };
        assert_eq!(classify(&obs, &clean_map()), Outcome::ItrWdogR);
    }

    #[test]
    fn spc_only_detection() {
        let obs = Observation { sdc: true, spc_fired: true, ..Observation::default() };
        assert_eq!(classify(&obs, &clean_map()), Outcome::SpcSdc);
    }

    #[test]
    fn resident_faulty_signature_is_may_itr() {
        let obs = Observation {
            sdc: true,
            resident_lines: vec![(0x100, 111), (0x200, 555)], // 0x200 tainted
            ..Observation::default()
        };
        assert_eq!(classify(&obs, &clean_map()), Outcome::MayItrSdc);
        let obs = Observation { resident_lines: vec![(0x200, 555)], ..Observation::default() };
        assert_eq!(classify(&obs, &clean_map()), Outcome::MayItrMask);
    }

    #[test]
    fn plain_undetected_outcomes() {
        let clean = clean_map();
        let obs =
            Observation { sdc: true, resident_lines: vec![(0x100, 111)], ..Observation::default() };
        assert_eq!(classify(&obs, &clean), Outcome::UndetSdc);
        let obs = Observation { deadlock: true, ..Observation::default() };
        assert_eq!(classify(&obs, &clean), Outcome::UndetWdog);
        let obs = Observation::default();
        assert_eq!(classify(&obs, &clean), Outcome::UndetMask);
    }

    #[test]
    fn labels_match_figure8_legend() {
        assert_eq!(Outcome::ItrSdcR.label(), "ITR+SDC+R");
        assert_eq!(Outcome::ALL.len(), 10);
        assert!(Outcome::ItrWdogR.itr_detected());
        assert!(!Outcome::SpcSdc.itr_detected());
    }
}
