//! The out-of-order window: reorder buffer, issue queue, and the
//! bookkeeping the stages would otherwise rescan the ROB for.
//!
//! [`Window`] is the dispatch→issue→complete→commit queue structure:
//! dispatch pushes [`Uop`]s at the tail ([`Window::dispatch`]), issue
//! picks from [`Window::iq`], marks its picks ([`Window::mark_issued`])
//! and drops them from the queue ([`Window::drop_issued`]),
//! complete drains the due in-flight entries ([`Window::take_due`]),
//! commit pops the head ([`Window::retire`]), and squashes cut the tail
//! ([`Window::squash_from`]). Sequence numbers map to ROB indexes through
//! `head_seq`; they grow monotonically except that a squash hands the
//! squashed numbers out again (`next_seq = head_seq + rob.len()`).
//!
//! Because every push and pop goes through these methods, the window
//! keeps three derived structures up to date instead of scanning the ROB
//! each cycle:
//!
//! | state             | invariant (over the ROB)                         |
//! |-------------------|--------------------------------------------------|
//! | `lsq_used`        | number of loads + stores                         |
//! | `in_flight`       | sequence numbers of issued, not-done entries     |
//! | `unissued_stores` | sequence numbers of unissued stores, oldest first |
//!
//! Loads and stores are classified by the uop's (possibly faulty) decode
//! signals once, at dispatch ([`MemClass`]). In debug builds
//! [`Window::debug_check`] recomputes all three by scanning the ROB once
//! per cycle and asserts they match.

use super::rename::DstAlloc;
use crate::semantics::{StoreOp, TrapAction};
use itr_core::ItrSnapshot;
use itr_isa::{DecodeSignals, Instruction};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// One in-flight instruction (ROB entry).
#[derive(Debug, Clone, PartialEq)]
pub(in crate::pipeline) struct Uop {
    pub seq: u64,
    pub pc: u64,
    /// The fetched instruction: the fetch-side predecode view, never
    /// struck by a decode fault. Everything past decode reads `sig`, with
    /// two exceptions that model predecode hardware beside the decoder:
    /// issue takes a direct jump's 26-bit target from it (the target is
    /// not one of Table 2's signals), and commit trains the BTB on a
    /// taken `Jr`/`Jalr` by its true opcode.
    pub inst: Instruction,
    pub sig: DecodeSignals,
    /// Physical source tags.
    pub srcs: [Option<u16>; 2],
    /// A decode fault invented an operand that cannot become ready.
    pub phantom: bool,
    pub dst: Option<DstAlloc>,
    pub issued: bool,
    pub done: bool,
    pub done_cycle: u64,
    pub result: u32,
    pub next_pc: u64,
    pub taken: Option<bool>,
    pub predicted_next: u64,
    pub ghr_snapshot: u32,
    pub used_gshare: bool,
    pub store: Option<StoreOp>,
    pub trap: Option<TrapAction>,
    pub trace_seq: u64,
    pub trace_end: bool,
    pub itr_snap: Option<ItrSnapshot>,
    /// The load/store class of `sig`, fixed at dispatch.
    pub class: MemClass,
}

/// Whether a uop's (possibly faulty) decode signals make it a load, a
/// store, or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) enum MemClass {
    Other,
    Load,
    Store,
}

impl MemClass {
    pub fn of(sig: &DecodeSignals) -> MemClass {
        match sig.opcode_enum() {
            Some(o) if o.is_load() => MemClass::Load,
            Some(o) if o.is_store() => MemClass::Store,
            _ => MemClass::Other,
        }
    }
}

impl Uop {
    pub fn is_load(&self) -> bool {
        self.class == MemClass::Load
    }

    pub fn is_store(&self) -> bool {
        self.class == MemClass::Store
    }

    /// A load or a store: the entry holds an LSQ slot.
    pub fn in_lsq(&self) -> bool {
        self.class != MemClass::Other
    }
}

/// The ROB + issue queue pair, with the per-cycle bookkeeping derived
/// from them (see the module docs for the invariants).
#[derive(Debug, Clone, Default, PartialEq)]
pub(in crate::pipeline) struct Window {
    rob: VecDeque<Uop>,
    /// Sequence number of the ROB head (commit point).
    head_seq: u64,
    /// Sequence numbers of dispatched-not-yet-issued instructions.
    iq: Vec<u64>,
    /// In-flight loads + stores (the LSQ occupancy).
    lsq_used: usize,
    /// Issued-not-done sequence numbers, in issue order.
    in_flight: Vec<u64>,
    /// Unissued store sequence numbers, oldest first.
    unissued_stores: VecDeque<u64>,
}

impl Index<usize> for Window {
    type Output = Uop;

    fn index(&self, i: usize) -> &Uop {
        &self.rob[i]
    }
}

impl IndexMut<usize> for Window {
    fn index_mut(&mut self, i: usize) -> &mut Uop {
        &mut self.rob[i]
    }
}

impl Window {
    pub fn new() -> Window {
        Window::default()
    }

    /// ROB occupancy.
    pub fn len(&self) -> usize {
        self.rob.len()
    }

    /// The ROB head (the next instruction to commit).
    pub fn front(&self) -> Option<&Uop> {
        self.rob.front()
    }

    /// Sequence numbers waiting in the issue queue, ascending: dispatch
    /// appends and a squash cuts a suffix.
    pub fn iq(&self) -> &[u64] {
        &self.iq
    }

    /// ROB index of a live sequence number.
    pub fn idx(&self, seq: u64) -> usize {
        (seq - self.head_seq) as usize
    }

    /// ROB index, or `None` if the entry was squashed or committed.
    pub fn idx_checked(&self, seq: u64) -> Option<usize> {
        let off = seq.checked_sub(self.head_seq)?;
        ((off as usize) < self.rob.len()).then_some(off as usize)
    }

    /// Sequence number the next dispatched instruction will get.
    pub fn next_seq(&self) -> u64 {
        self.head_seq + self.rob.len() as u64
    }

    /// In-flight loads + stores (the LSQ occupancy).
    pub fn lsq_used(&self) -> usize {
        self.lsq_used
    }

    /// Sequence number of the oldest unissued store (`u64::MAX` when
    /// every store has issued): a load younger than it may not issue.
    pub fn store_barrier(&self) -> u64 {
        self.unissued_stores.front().copied().unwrap_or(u64::MAX)
    }

    /// The entries older than ROB index `i`, oldest first.
    pub fn older(&self, i: usize) -> std::collections::vec_deque::Iter<'_, Uop> {
        self.rob.range(..i)
    }

    /// Appends a freshly renamed instruction to the ROB and the issue
    /// queue. Its `seq` must be [`Window::next_seq`].
    pub fn dispatch(&mut self, u: Uop) {
        debug_assert_eq!(u.seq, self.next_seq(), "dispatch out of sequence");
        if u.is_store() {
            self.unissued_stores.push_back(u.seq);
        }
        if u.in_lsq() {
            self.lsq_used += 1;
        }
        self.iq.push(u.seq);
        self.rob.push_back(u);
    }

    /// Marks the entry at ROB index `i` issued: it leaves the unissued
    /// stores and joins the in-flight list. The caller sets its
    /// `done_cycle`, and calls [`Window::drop_issued`] once select is
    /// over.
    pub fn mark_issued(&mut self, i: usize) {
        let u = &mut self.rob[i];
        u.issued = true;
        let seq = u.seq;
        if u.is_store() {
            let at = self.unissued_stores.iter().position(|&s| s == seq);
            self.unissued_stores.remove(at.expect("an unissued store is listed"));
        }
        self.in_flight.push(seq);
    }

    /// Removes this cycle's picks from the issue queue.
    pub fn drop_issued(&mut self) {
        let (rob, head_seq) = (&self.rob, self.head_seq);
        self.iq.retain(|&seq| !rob[(seq - head_seq) as usize].issued);
    }

    /// Moves the in-flight entries due by `cycle` into `due`, oldest
    /// first. The caller marks each live one done.
    pub fn take_due(&mut self, cycle: u64, due: &mut Vec<u64>) {
        due.clear();
        let (rob, head_seq) = (&self.rob, self.head_seq);
        self.in_flight.retain(|&seq| {
            let ready = rob[(seq - head_seq) as usize].done_cycle <= cycle;
            if ready {
                due.push(seq);
            }
            !ready
        });
        due.sort_unstable();
    }

    /// Pops the ROB head for retirement.
    pub fn retire(&mut self) -> Option<Uop> {
        let u = self.rob.pop_front()?;
        debug_assert!(u.done, "retiring an unfinished instruction");
        self.head_seq = u.seq + 1;
        if u.in_lsq() {
            self.lsq_used -= 1;
        }
        Some(u)
    }

    /// Squashes every entry from sequence number `first` on, youngest
    /// first, handing each to `undo` (rename rollback); the squashed
    /// numbers are dispatched again.
    pub fn squash_from(&mut self, first: u64, mut undo: impl FnMut(&Uop)) {
        while self.rob.back().is_some_and(|u| u.seq >= first) {
            let u = self.rob.pop_back().expect("checked non-empty");
            if u.in_lsq() {
                self.lsq_used -= 1;
            }
            undo(&u);
        }
        self.iq.retain(|&s| s < first);
        self.in_flight.retain(|&s| s < first);
        while self.unissued_stores.back().is_some_and(|&s| s >= first) {
            self.unissued_stores.pop_back();
        }
    }

    /// Squashes the whole window (see [`Window::squash_from`]).
    pub fn flush(&mut self, undo: impl FnMut(&Uop)) {
        self.squash_from(self.head_seq, undo);
    }

    /// Recomputes the derived state by scanning the ROB and asserts it
    /// equals the incrementally maintained state.
    #[cfg(debug_assertions)]
    pub fn debug_check(&self) {
        assert!(self.iq.windows(2).all(|w| w[0] < w[1]), "issue queue out of order");
        let lsq = self.rob.iter().filter(|u| u.in_lsq()).count();
        assert_eq!(self.lsq_used, lsq, "LSQ count drifted from the ROB");
        let mut in_flight = self.in_flight.clone();
        in_flight.sort_unstable();
        let scanned: Vec<u64> =
            self.rob.iter().filter(|u| u.issued && !u.done).map(|u| u.seq).collect();
        assert_eq!(in_flight, scanned, "in-flight list drifted from the ROB");
        let stores: Vec<u64> =
            self.rob.iter().filter(|u| u.is_store() && !u.issued).map(|u| u.seq).collect();
        assert!(self.unissued_stores.iter().eq(&stores), "unissued stores drifted from the ROB");
        let barrier =
            self.rob.iter().find(|u| u.is_store() && !u.issued).map_or(u64::MAX, |u| u.seq);
        assert_eq!(self.store_barrier(), barrier, "store barrier drifted from the ROB");
    }
}
