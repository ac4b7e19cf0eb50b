//! The watchdog-timer (`wdog`) check used in the §4 fault-injection study
//! to detect deadlocks (e.g. from faulty source-register signals that make
//! an instruction wait on an operand that never arrives).

/// Counts cycles since the last committed instruction and fires when the
/// limit is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    limit: u64,
    last_commit_cycle: u64,
    fired: bool,
}

impl Watchdog {
    /// Creates a watchdog that fires after `limit` commit-free cycles.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: u64) -> Watchdog {
        assert!(limit > 0, "watchdog limit must be positive");
        Watchdog { limit, last_commit_cycle: 0, fired: false }
    }

    /// Records that an instruction committed at `cycle`.
    pub fn pet(&mut self, cycle: u64) {
        self.last_commit_cycle = cycle;
    }

    /// Checks the timer at `cycle`; returns `true` (and latches) when the
    /// deadline has passed.
    pub fn expired(&mut self, cycle: u64) -> bool {
        if cycle.saturating_sub(self.last_commit_cycle) > self.limit {
            self.fired = true;
        }
        self.fired
    }

    /// `true` once the watchdog has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Configured limit in cycles.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_after_limit() {
        let mut w = Watchdog::new(100);
        assert!(!w.expired(50));
        assert!(!w.expired(100));
        assert!(w.expired(101));
        assert!(w.fired());
    }

    #[test]
    fn petting_defers_expiry() {
        let mut w = Watchdog::new(100);
        w.pet(90);
        assert!(!w.expired(150));
        assert!(w.expired(191));
    }

    #[test]
    fn fired_state_latches() {
        let mut w = Watchdog::new(10);
        assert!(w.expired(11));
        w.pet(12);
        assert!(w.expired(13), "once fired, stays fired");
    }
}
