//! Frontend branch predictors: gshare direction predictor, branch target
//! buffer, and return-address stack.

/// Gshare direction predictor: a table of 2-bit saturating counters
/// indexed by `PC ⊕ global-history`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    counters: Vec<u8>,
    history_bits: u32,
    ghr: u32,
}

impl Gshare {
    /// Creates a predictor with `2^history_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or above 20.
    pub fn new(history_bits: u32) -> Gshare {
        assert!((1..=20).contains(&history_bits), "history_bits out of range");
        Gshare { counters: vec![2; 1 << history_bits], history_bits, ghr: 0 }
    }

    fn index(&self, pc: u64, ghr: u32) -> usize {
        let mask = (1u32 << self.history_bits) - 1;
        ((((pc >> 2) as u32) ^ ghr) & mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc` and
    /// speculatively updates the global history.
    pub fn predict_and_update_history(&mut self, pc: u64) -> bool {
        let taken = self.counters[self.index(pc, self.ghr)] >= 2;
        self.push_history(taken);
        taken
    }

    /// Current global history register (snapshot before prediction for
    /// misprediction repair).
    pub fn history(&self) -> u32 {
        self.ghr
    }

    /// Restores the global history (misprediction repair), then records
    /// the branch's actual direction.
    pub fn repair(&mut self, snapshot: u32, actual_taken: bool) {
        self.ghr = snapshot;
        self.push_history(actual_taken);
    }

    fn push_history(&mut self, taken: bool) {
        let mask = (1u32 << self.history_bits) - 1;
        self.ghr = ((self.ghr << 1) | taken as u32) & mask;
    }

    /// Trains the counter for a resolved branch. `history` must be the
    /// global history *at prediction time* (the per-branch snapshot).
    pub fn train(&mut self, pc: u64, history: u32, taken: bool) {
        let idx = self.index(pc, history);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Direct-mapped branch target buffer for indirect jumps (`jr`/`jalr` to
/// non-return targets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>,
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(entries: u32) -> Btb {
        assert!(entries > 0 && entries.is_power_of_two());
        Btb { entries: vec![None; entries as usize] }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target of the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, target));
    }
}

/// Return-address stack. Speculative and unrepaired: a misprediction may
/// leave it misaligned, which only costs accuracy (the execution unit
/// corrects all targets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnStack {
    stack: Vec<u64>,
    capacity: usize,
}

impl ReturnStack {
    /// Creates a stack holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> ReturnStack {
        ReturnStack { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (drops the oldest when full).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_bias() {
        // Train the counter reached under history 0, then pin the history
        // back to 0 (via repair) and observe the learned direction.
        let mut g = Gshare::new(10);
        for _ in 0..3 {
            g.train(0x400, 0, true);
        }
        g.repair(0, false); // GHR = 0b0
        g.repair(0, false); // GHR = 0b0 again (shifted-in zero)
        assert_eq!(g.history(), 0);
        assert!(g.predict_and_update_history(0x400), "saturated taken");
        for _ in 0..4 {
            g.train(0x400, 0, false);
        }
        g.repair(0, false);
        assert!(!g.predict_and_update_history(0x400), "retrained not-taken");
    }

    #[test]
    fn gshare_repair_restores_history() {
        let mut g = Gshare::new(8);
        let snap = g.history();
        g.predict_and_update_history(0x100);
        g.predict_and_update_history(0x200);
        g.repair(snap, true);
        assert_eq!(g.history(), ((snap << 1) | 1) & 0xFF);
    }

    #[test]
    fn btb_tags_avoid_aliasing_lies() {
        let mut b = Btb::new(16);
        b.update(0x100, 0x500);
        assert_eq!(b.lookup(0x100), Some(0x500));
        // 0x100 and 0x140 share a slot (16 entries, word-indexed).
        assert_eq!(b.lookup(0x140), None, "different tag must miss");
        b.update(0x140, 0x900);
        assert_eq!(b.lookup(0x100), None, "displaced");
    }

    #[test]
    fn ras_is_lifo_and_bounded() {
        let mut r = ReturnStack::new(2);
        r.push(0x10);
        r.push(0x20);
        r.push(0x30);
        assert_eq!(r.pop(), Some(0x30));
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), None, "0x10 was dropped when full");
    }
}
