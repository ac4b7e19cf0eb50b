//! Coarse-grain checkpointing hook (§2.3 of the paper).
//!
//! Recovery coverage can be extended beyond the lightweight flush-restart
//! by taking a coarse-grain architectural checkpoint whenever the ITR
//! cache holds *no unchecked (unreferenced) lines* — at that instant every
//! recorded signature has been confirmed, so the checkpoint is known
//! fault-free with respect to the frontend. When a fault is later detected
//! on a trace whose faulty instance already committed, the processor can
//! roll back to the checkpoint instead of aborting.
//!
//! This type tracks checkpoint *opportunities*; the host simulator decides
//! what state to snapshot.

/// Tracks when a coarse-grain checkpoint may safely be taken and how far
/// back a rollback would reach.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoarseCheckpointer {
    /// Minimum committed-instruction gap between checkpoints, to model the
    /// cost of checkpointing (0 = checkpoint at every opportunity).
    min_gap: u64,
    last_checkpoint_at: Option<u64>,
    checkpoints_taken: u64,
    opportunities: u64,
}

impl CoarseCheckpointer {
    /// Creates a checkpointer with the given minimum spacing (in committed
    /// instructions).
    pub fn new(min_gap: u64) -> CoarseCheckpointer {
        CoarseCheckpointer { min_gap, ..CoarseCheckpointer::default() }
    }

    /// `true` when `other` takes the same checkpoints from here on: same
    /// spacing and last checkpoint; the counts are left out.
    pub fn same_state(&self, other: &CoarseCheckpointer) -> bool {
        self.min_gap == other.min_gap && self.last_checkpoint_at == other.last_checkpoint_at
    }

    /// Reports the current state; returns `true` when a checkpoint should
    /// be taken now.
    ///
    /// * `unreferenced_lines` — from
    ///   [`ItrCache::unreferenced_count`](crate::ItrCache::unreferenced_count),
    /// * `committed_instrs` — the host's committed-instruction counter.
    pub fn observe(&mut self, unreferenced_lines: u64, committed_instrs: u64) -> bool {
        if unreferenced_lines != 0 {
            return false;
        }
        self.opportunities += 1;
        let due = match self.last_checkpoint_at {
            None => true,
            Some(at) => committed_instrs.saturating_sub(at) >= self.min_gap,
        };
        if due {
            self.last_checkpoint_at = Some(committed_instrs);
            self.checkpoints_taken += 1;
        }
        due
    }

    /// Committed-instruction count at the most recent checkpoint.
    pub fn last_checkpoint_at(&self) -> Option<u64> {
        self.last_checkpoint_at
    }

    /// Checkpoints actually taken.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Cycles in which a checkpoint *could* have been taken (no unchecked
    /// lines resident).
    pub fn opportunities(&self) -> u64 {
        self.opportunities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_checkpoint_while_unchecked_lines_exist() {
        let mut c = CoarseCheckpointer::new(0);
        assert!(!c.observe(3, 100));
        assert_eq!(c.checkpoints_taken(), 0);
    }

    #[test]
    fn checkpoint_at_every_opportunity_with_zero_gap() {
        let mut c = CoarseCheckpointer::new(0);
        assert!(c.observe(0, 100));
        assert!(c.observe(0, 101));
        assert_eq!(c.checkpoints_taken(), 2);
    }

    #[test]
    fn min_gap_spaces_checkpoints() {
        let mut c = CoarseCheckpointer::new(1000);
        assert!(c.observe(0, 100));
        assert!(!c.observe(0, 500));
        assert!(c.observe(0, 1100));
        assert_eq!(c.checkpoints_taken(), 2);
        assert_eq!(c.last_checkpoint_at(), Some(1100));
        assert_eq!(c.opportunities(), 3);
    }

    #[test]
    fn gap_boundary_is_inclusive() {
        // A gap of exactly `min_gap` is due; one instruction less is not.
        let mut c = CoarseCheckpointer::new(1000);
        assert!(c.observe(0, 100));
        assert!(!c.observe(0, 1099)); // gap 999 < 1000: blocked
        assert!(c.observe(0, 1100)); // gap exactly 1000: taken
        assert_eq!(c.checkpoints_taken(), 2);
        assert_eq!(c.last_checkpoint_at(), Some(1100));
    }

    #[test]
    fn blocked_opportunities_are_still_counted() {
        // Opportunities count §2.3-safe instants whether or not min_gap
        // lets the checkpoint happen; unchecked-line instants never count.
        let mut c = CoarseCheckpointer::new(u64::MAX);
        assert!(!c.observe(5, 10));
        assert!(c.observe(0, 20)); // first checkpoint is always due
        assert!(!c.observe(0, 30));
        assert!(!c.observe(0, 40));
        assert_eq!(c.opportunities(), 3);
        assert_eq!(c.checkpoints_taken(), 1);
        assert_eq!(c.last_checkpoint_at(), Some(20));
    }

    #[test]
    fn first_checkpoint_at_commit_zero_anchors_the_gap() {
        // Committed-instruction zero is a valid checkpoint position and
        // subsequent spacing is measured from it, not from "no checkpoint".
        let mut c = CoarseCheckpointer::new(100);
        assert!(c.observe(0, 0));
        assert_eq!(c.last_checkpoint_at(), Some(0));
        assert!(!c.observe(0, 99));
        assert!(c.observe(0, 100));
        assert_eq!(c.checkpoints_taken(), 2);
    }
}
