//! The sequential-PC (`spc`) check of §2.5: a commit-side assertion that
//! catches control-flow discontinuities the ITR cache cannot see, such as
//! PC faults at natural trace boundaries and faults on the `is_branch`
//! decode flag (§4 discusses the scenario in detail).

/// Commit-PC register plus the comparison rule of §2.5.
///
/// Sequential committing instructions add their length to the commit PC;
/// branching instructions update it with their calculated next PC. Every
/// committing instruction's PC is asserted equal to the commit PC.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialPcChecker {
    /// Expected PC of the next committing instruction; `None` until the
    /// first commit (or after a flush re-seeds it).
    expected: Option<u64>,
    violations: u64,
    checks: u64,
}

impl SequentialPcChecker {
    /// A fresh checker that accepts any first instruction.
    pub fn new() -> SequentialPcChecker {
        SequentialPcChecker::default()
    }

    /// `true` when `other` expects the same next PC; the counts are left
    /// out.
    pub fn same_state(&self, other: &SequentialPcChecker) -> bool {
        self.expected == other.expected
    }

    /// Checks a committing instruction and advances the commit PC.
    ///
    /// * `pc` — the committing instruction's own PC,
    /// * `is_branch` — the (possibly faulty) `is_branch` decode flag,
    /// * `next_pc` — for branching instructions, the calculated next PC
    ///   from the execution unit; ignored for sequential instructions.
    ///
    /// Returns `true` if the check passed.
    pub fn check_and_advance(&mut self, pc: u64, is_branch: bool, next_pc: u64) -> bool {
        self.checks += 1;
        let ok = match self.expected {
            Some(exp) => exp == pc,
            None => true,
        };
        if !ok {
            self.violations += 1;
        }
        self.expected = Some(if is_branch { next_pc } else { pc + 4 });
        ok
    }

    /// Re-seeds the commit PC after a pipeline flush to `restart_pc`.
    pub fn reseed(&mut self, restart_pc: u64) {
        self.expected = Some(restart_pc);
    }

    /// Number of failed checks so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Number of checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_flow_passes() {
        let mut c = SequentialPcChecker::new();
        assert!(c.check_and_advance(0x100, false, 0));
        assert!(c.check_and_advance(0x104, false, 0));
        assert!(c.check_and_advance(0x108, true, 0x200));
        assert!(c.check_and_advance(0x200, false, 0));
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn discontinuity_between_sequential_traces_fires() {
        // The §4 scenario: a branch whose is_branch flag was flipped to
        // false commits as "sequential", so the commit PC advances by 4;
        // the next instruction actually commits from the taken target.
        let mut c = SequentialPcChecker::new();
        assert!(c.check_and_advance(0x100, false, 0));
        // Faulty branch at 0x104 treated as sequential...
        assert!(c.check_and_advance(0x104, false, 0x300));
        // ...but the fetch unit correctly predicted taken to 0x300.
        assert!(!c.check_and_advance(0x300, false, 0), "spc must fire");
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn reseed_after_flush() {
        let mut c = SequentialPcChecker::new();
        c.check_and_advance(0x100, false, 0);
        c.reseed(0x500);
        assert!(c.check_and_advance(0x500, false, 0));
    }
}
