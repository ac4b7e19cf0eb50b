//! The ITR ROB: status of in-flight traces (§2.2).

use std::collections::VecDeque;
use std::fmt;

/// Index of an ITR ROB entry.
///
/// Implemented as a monotonically increasing trace sequence number so that
/// entries can be named before and after rollbacks without ambiguity. Each
/// in-flight instruction carries the sequence number of the trace it
/// belongs to; the paper achieves the same association by noting the ITR
/// ROB entry in each branch's checkpoint.
pub type ItrRobIndex = u64;

/// The `chk`/`miss`/`retry` control bits, in the one-hot encoding of §2.4:
///
/// * `0001` — none set (check still in progress),
/// * `0010` — `chk` and `retry` set (signature mismatch),
/// * `0100` — `chk` set, `retry` not set (signature confirmed),
/// * `1000` — `miss` set (no counterpart in the ITR cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlState {
    /// No bit set yet: the ITR cache read has not completed.
    NoneSet,
    /// Checked, mismatch: retry required.
    ChkRetry,
    /// Checked, match: commit may proceed.
    ChkOnly,
    /// Missed: write the signature at trace-end commit.
    Miss,
}

impl ControlState {
    /// One-hot encoding per §2.4.
    pub fn one_hot(self) -> u8 {
        match self {
            ControlState::NoneSet => 0b0001,
            ControlState::ChkRetry => 0b0010,
            ControlState::ChkOnly => 0b0100,
            ControlState::Miss => 0b1000,
        }
    }

    /// Decodes a one-hot value; `None` for invalid (multi-bit or zero)
    /// patterns, which a real implementation would treat as a detected
    /// fault on the control bits themselves.
    pub fn from_one_hot(bits: u8) -> Option<ControlState> {
        match bits {
            0b0001 => Some(ControlState::NoneSet),
            0b0010 => Some(ControlState::ChkRetry),
            0b0100 => Some(ControlState::ChkOnly),
            0b1000 => Some(ControlState::Miss),
            _ => None,
        }
    }
}

/// One in-flight trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItrRobEntry {
    /// Start PC of the trace.
    pub start_pc: u64,
    /// Signature generated at dispatch.
    pub signature: u64,
    /// Instruction count of the trace.
    pub len: u32,
    /// Check status.
    pub state: ControlState,
}

/// Error returned when pushing into a full ITR ROB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItrRobFull;

impl fmt::Display for ItrRobFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ITR ROB is full")
    }
}

impl std::error::Error for ItrRobFull {}

/// Circular buffer of in-flight trace records, freed in order at commit
/// and rolled back on branch mispredictions.
#[derive(Debug, Clone, PartialEq)]
pub struct ItrRob {
    entries: VecDeque<ItrRobEntry>,
    head_seq: ItrRobIndex,
    capacity: usize,
}

impl ItrRob {
    /// Creates an empty ITR ROB with room for `capacity` traces.
    pub fn new(capacity: u32) -> ItrRob {
        ItrRob {
            entries: VecDeque::with_capacity(capacity as usize),
            head_seq: 0,
            capacity: capacity as usize,
        }
    }

    /// Sequence number the *next* pushed trace will receive. In-flight
    /// instructions of the currently forming trace carry this value.
    pub fn next_seq(&self) -> ItrRobIndex {
        self.head_seq + self.entries.len() as u64
    }

    /// Sequence number of the oldest in-flight trace.
    pub fn head_seq(&self) -> ItrRobIndex {
        self.head_seq
    }

    /// Number of in-flight traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no traces are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when a new trace cannot be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a completed trace.
    ///
    /// # Errors
    ///
    /// Returns [`ItrRobFull`] when at capacity (the pipeline must stall
    /// dispatch, exactly as it stalls on a full main ROB).
    pub fn push(&mut self, entry: ItrRobEntry) -> Result<ItrRobIndex, ItrRobFull> {
        if self.is_full() {
            return Err(ItrRobFull);
        }
        let seq = self.next_seq();
        self.entries.push_back(entry);
        Ok(seq)
    }

    /// Looks up an entry by sequence number; `None` if the trace has not
    /// been formed yet or was already freed/rolled back.
    pub fn get(&self, seq: ItrRobIndex) -> Option<&ItrRobEntry> {
        let off = seq.checked_sub(self.head_seq)?;
        self.entries.get(off as usize)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: ItrRobIndex) -> Option<&mut ItrRobEntry> {
        let off = seq.checked_sub(self.head_seq)?;
        self.entries.get_mut(off as usize)
    }

    /// Finds the youngest in-flight entry for `start_pc` (used for
    /// ITR-ROB forwarding on a cache miss).
    pub fn find_latest(&self, start_pc: u64) -> Option<&ItrRobEntry> {
        self.entries.iter().rev().find(|e| e.start_pc == start_pc)
    }

    /// Like [`find_latest`](Self::find_latest), but only considers
    /// entries strictly older than `before_seq` (a delayed check must not
    /// forward from itself or from younger instances).
    pub fn find_latest_before(
        &self,
        start_pc: u64,
        before_seq: ItrRobIndex,
    ) -> Option<&ItrRobEntry> {
        let upto = before_seq.saturating_sub(self.head_seq).min(self.entries.len() as u64);
        self.entries.iter().take(upto as usize).rev().find(|e| e.start_pc == start_pc)
    }

    /// Frees the head entry (called when a trace-terminating instruction
    /// commits, §2.2).
    ///
    /// # Panics
    ///
    /// Panics if the ROB is empty.
    pub fn free_head(&mut self) -> ItrRobEntry {
        let e = self.entries.pop_front().expect("free_head on empty ITR ROB");
        self.head_seq += 1;
        e
    }

    /// Discards every entry with sequence number `>= seq` (branch
    /// misprediction rollback; the paper notes the ITR ROB entry in each
    /// branch checkpoint for this purpose).
    pub fn rollback_to(&mut self, seq: ItrRobIndex) {
        let keep = seq.saturating_sub(self.head_seq) as usize;
        self.entries.truncate(keep.min(self.entries.len()));
    }

    /// Discards all in-flight entries (full pipeline flush).
    pub fn clear(&mut self) {
        let n = self.entries.len() as u64;
        self.entries.clear();
        self.head_seq += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pc: u64) -> ItrRobEntry {
        ItrRobEntry { start_pc: pc, signature: pc * 3, len: 4, state: ControlState::NoneSet }
    }

    #[test]
    fn one_hot_round_trips() {
        for s in [
            ControlState::NoneSet,
            ControlState::ChkRetry,
            ControlState::ChkOnly,
            ControlState::Miss,
        ] {
            assert_eq!(ControlState::from_one_hot(s.one_hot()), Some(s));
            assert_eq!(s.one_hot().count_ones(), 1, "must be one-hot");
        }
    }

    #[test]
    fn invalid_one_hot_is_rejected() {
        assert_eq!(ControlState::from_one_hot(0b0011), None);
        assert_eq!(ControlState::from_one_hot(0), None);
        assert_eq!(ControlState::from_one_hot(0b10000), None);
    }

    #[test]
    fn push_get_free_in_order() {
        let mut rob = ItrRob::new(4);
        let a = rob.push(entry(0x100)).unwrap();
        let b = rob.push(entry(0x200)).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(rob.get(a).unwrap().start_pc, 0x100);
        assert_eq!(rob.free_head().start_pc, 0x100);
        assert_eq!(rob.get(a), None, "freed entry is gone");
        assert_eq!(rob.get(b).unwrap().start_pc, 0x200);
        assert_eq!(rob.head_seq(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rob = ItrRob::new(2);
        rob.push(entry(1)).unwrap();
        rob.push(entry(2)).unwrap();
        assert!(rob.is_full());
        assert_eq!(rob.push(entry(3)), Err(ItrRobFull));
        rob.free_head();
        assert!(rob.push(entry(3)).is_ok());
    }

    #[test]
    fn rollback_discards_younger_traces() {
        let mut rob = ItrRob::new(8);
        for i in 0..5u64 {
            rob.push(entry(0x100 * (i + 1))).unwrap();
        }
        rob.rollback_to(2);
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.next_seq(), 2);
        assert!(rob.get(2).is_none());
        assert_eq!(rob.get(1).unwrap().start_pc, 0x200);
        // Pushing after rollback reuses the sequence numbers.
        let seq = rob.push(entry(0x999)).unwrap();
        assert_eq!(seq, 2);
    }

    #[test]
    fn clear_advances_head_past_all() {
        let mut rob = ItrRob::new(8);
        rob.push(entry(1)).unwrap();
        rob.push(entry(2)).unwrap();
        rob.clear();
        assert!(rob.is_empty());
        assert_eq!(rob.next_seq(), 2);
        assert_eq!(rob.get(0), None);
    }

    #[test]
    fn get_mut_updates_state() {
        let mut rob = ItrRob::new(2);
        let seq = rob.push(entry(0x100)).unwrap();
        rob.get_mut(seq).unwrap().state = ControlState::Miss;
        assert_eq!(rob.get(seq).unwrap().state, ControlState::Miss);
    }
}
