//! The out-of-order window: reorder buffer, issue queue, and the
//! bookkeeping the stages would otherwise rescan the ROB for.
//!
//! [`Window`] is the dispatch→issue→complete→commit queue structure:
//! dispatch pushes [`Uop`]s at the tail ([`Window::dispatch`]), issue
//! selects from [`Window::iq`], marks its picks ([`Window::mark_issued`])
//! and drops them from the queue by position ([`Window::drop_picks`]),
//! complete drains the due in-flight entries
//! ([`Window::take_due`]), commit retires the head ([`Window::retire`]), and
//! squashes cut the tail ([`Window::squash_from`]). Sequence numbers map
//! to ROB indexes through `head_seq`; they grow monotonically except that
//! a squash hands the squashed numbers out again
//! (`next_seq = head_seq + rob.len()`).
//!
//! Because every push and pop goes through these methods, the window
//! keeps derived structures up to date instead of scanning the ROB each
//! cycle, and select and complete read them without touching a [`Uop`]:
//!
//! | state             | invariant (over the ROB)                                |
//! |-------------------|---------------------------------------------------------|
//! | `iq`              | an [`IqEntry`] (sequence number, physical sources, phantom flag, class) per unissued entry, oldest first; the sources live only here |
//! | `lsq_used`        | number of loads + stores                                |
//! | `in_flight`       | `(done_cycle, seq)` of issued, not-done entries         |
//! | `stores`          | sequence numbers of stores, oldest first                |
//! | `unissued_stores` | sequence numbers of unissued stores, oldest first       |
//! | `itr_snaps`       | the ITR snapshot of every branch, by sequence number, when the pipeline has an ITR unit |
//!
//! The ITR snapshots (40 bytes each, taken for branches only) live beside
//! the ROB rather than in each [`Uop`], as do the physical sources (in
//! the issue-queue entry) and the done cycle (in the in-flight list):
//! that keeps a uop at 112 bytes, which dispatch copies into the ROB
//! inline rather than through a `memcpy` call.
//!
//! Loads and stores are classified by the uop's (possibly faulty) decode
//! signals once, at dispatch ([`MemClass`]). In debug builds
//! [`Window::debug_check`] recomputes every structure by scanning the ROB
//! once per cycle and asserts they match.

use super::predecode::RawWord;
use super::rename::DstAlloc;
use crate::semantics::{StoreOp, TrapAction};
use itr_core::ItrSnapshot;
use itr_isa::DecodeSignals;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// One in-flight instruction (ROB entry).
#[derive(Debug, Clone, PartialEq)]
pub(in crate::pipeline) struct Uop {
    pub seq: u64,
    pub pc: u64,
    /// The fetched word's true opcode and immediate: the fetch-side
    /// predecode view, never struck by a decode fault. Everything past
    /// decode reads `sig`, with two exceptions that model predecode
    /// hardware beside the decoder: issue takes a direct jump's 26-bit
    /// target from it (the target is not one of Table 2's signals), and
    /// commit trains the BTB on a taken `Jr`/`Jalr` by its true opcode.
    pub raw: RawWord,
    /// The (possibly faulty) Table-2 signals, packed
    /// ([`DecodeSignals::pack`]; see [`Uop::signals`]).
    pub sig: u64,
    pub dst: Option<DstAlloc>,
    pub issued: bool,
    pub done: bool,
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
    pub fn signals(&self) -> DecodeSignals {
        DecodeSignals::unpack(self.sig)
    }

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

/// One issue-queue entry: what select and issue read of a waiting uop.
/// Its physical sources live here only (nothing reads them once the uop
/// has issued); the class is the uop's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) struct IqEntry {
    pub seq: u64,
    /// Physical source tags.
    pub srcs: [Option<u16>; 2],
    /// A decode fault invented an operand that cannot become ready.
    pub phantom: bool,
    /// [`Uop::class`].
    pub class: MemClass,
}

/// The ROB + issue queue pair, with the per-cycle bookkeeping derived
/// from them (see the module docs for the invariants).
#[derive(Debug, Clone, Default, PartialEq)]
pub(in crate::pipeline) struct Window {
    rob: VecDeque<Uop>,
    /// Sequence number of the ROB head (commit point).
    head_seq: u64,
    /// Dispatched-not-yet-issued instructions, oldest first.
    iq: Vec<IqEntry>,
    /// In-flight loads + stores (the LSQ occupancy).
    lsq_used: usize,
    /// Issued-not-done `(done_cycle, seq)` pairs, in issue order.
    in_flight: Vec<(u64, u64)>,
    /// Store sequence numbers, oldest first (the forwarding sources).
    stores: VecDeque<u64>,
    /// Unissued store sequence numbers, oldest first.
    unissued_stores: VecDeque<u64>,
    /// `(seq, snapshot)` of the branches dispatched with an ITR
    /// snapshot (misprediction rollback), oldest first.
    itr_snaps: VecDeque<(u64, ItrSnapshot)>,
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

    /// The issue queue, in ascending sequence order: dispatch appends
    /// and a squash cuts a suffix.
    pub fn iq(&self) -> &[IqEntry] {
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

    /// The store values of the stores older than `seq`, oldest first
    /// (unissued stores have none yet).
    pub fn older_stores(&self, seq: u64) -> impl Iterator<Item = StoreOp> + '_ {
        self.stores
            .iter()
            .take_while(move |&&s| s < seq)
            .filter_map(|&s| self.rob[self.idx(s)].store)
    }

    /// The ITR snapshot dispatch took for the live branch `seq`, if any.
    pub fn itr_snap(&self, seq: u64) -> Option<&ItrSnapshot> {
        let at = self.itr_snaps.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(&self.itr_snaps[at].1)
    }

    /// Appends a freshly renamed instruction to the ROB, and its sources
    /// (`srcs`, `phantom`; see [`IqEntry`]) to the issue queue, with the
    /// ITR snapshot taken for it. Its `seq` must be [`Window::next_seq`].
    pub fn dispatch(
        &mut self,
        u: Uop,
        srcs: [Option<u16>; 2],
        phantom: bool,
        itr_snap: Option<ItrSnapshot>,
    ) {
        debug_assert_eq!(u.seq, self.next_seq(), "dispatch out of sequence");
        if let Some(snap) = itr_snap {
            self.itr_snaps.push_back((u.seq, snap));
        }
        if u.is_store() {
            self.stores.push_back(u.seq);
            self.unissued_stores.push_back(u.seq);
        }
        if u.in_lsq() {
            self.lsq_used += 1;
        }
        self.iq.push(IqEntry { seq: u.seq, srcs, phantom, class: u.class });
        self.rob.push_back(u);
    }

    /// Marks the entry at ROB index `i` issued, due at `done_cycle`, and
    /// returns it for its results: it leaves the unissued stores and
    /// joins the in-flight list. The caller calls [`Window::drop_picks`]
    /// once select is over.
    pub fn mark_issued(&mut self, i: usize, done_cycle: u64) -> &mut Uop {
        let u = &mut self.rob[i];
        u.issued = true;
        let seq = u.seq;
        if u.is_store() {
            let at = self.unissued_stores.iter().position(|&s| s == seq);
            self.unissued_stores.remove(at.expect("an unissued store is listed"));
        }
        self.in_flight.push((done_cycle, seq));
        u
    }

    /// Removes this cycle's picks, given as ascending issue-queue
    /// positions, from the issue queue.
    pub fn drop_picks(&mut self, picks: &[usize]) {
        let Some(&first) = picks.first() else { return };
        let (mut kept, mut picks) = (first, picks.iter().peekable());
        for at in first..self.iq.len() {
            if picks.next_if_eq(&&at).is_none() {
                self.iq[kept] = self.iq[at];
                kept += 1;
            }
        }
        self.iq.truncate(kept);
    }

    /// Moves the in-flight entries due by `cycle` into `due`, oldest
    /// first. The caller marks each live one done.
    pub fn take_due(&mut self, cycle: u64, due: &mut Vec<u64>) {
        due.clear();
        self.in_flight.retain(|&(done_cycle, seq)| {
            let ready = done_cycle <= cycle;
            if ready {
                due.push(seq);
            }
            !ready
        });
        due.sort_unstable();
    }

    /// Removes the ROB head, which commit has retired (read through
    /// [`Window::front`]).
    pub fn retire(&mut self) {
        let u = self.rob.front().expect("retiring from an empty ROB");
        debug_assert!(u.done, "retiring an unfinished instruction");
        self.head_seq = u.seq + 1;
        if u.in_lsq() {
            self.lsq_used -= 1;
        }
        if u.is_store() {
            self.stores.pop_front();
        }
        if self.itr_snaps.front().is_some_and(|&(s, _)| s == u.seq) {
            self.itr_snaps.pop_front();
        }
        self.rob.pop_front();
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
        self.iq.truncate(self.iq.partition_point(|e| e.seq < first));
        self.in_flight.retain(|&(_, s)| s < first);
        while self.stores.back().is_some_and(|&s| s >= first) {
            self.stores.pop_back();
        }
        while self.unissued_stores.back().is_some_and(|&s| s >= first) {
            self.unissued_stores.pop_back();
        }
        while self.itr_snaps.back().is_some_and(|&(s, _)| s >= first) {
            self.itr_snaps.pop_back();
        }
    }

    /// Squashes the whole window (see [`Window::squash_from`]).
    pub fn flush(&mut self, undo: impl FnMut(&Uop)) {
        self.squash_from(self.head_seq, undo);
    }

    /// Recomputes the derived state by scanning the ROB and asserts it
    /// equals the incrementally maintained state; `has_itr` says whether
    /// the pipeline has an ITR unit (which snapshots every branch).
    #[cfg(debug_assertions)]
    pub fn debug_check(&self, has_itr: bool) {
        let waiting = self.rob.iter().filter(|u| !u.issued).map(|u| (u.seq, u.class));
        assert!(
            self.iq.iter().map(|e| (e.seq, e.class)).eq(waiting),
            "issue queue drifted from the ROB"
        );
        let lsq = self.rob.iter().filter(|u| u.in_lsq()).count();
        assert_eq!(self.lsq_used, lsq, "LSQ count drifted from the ROB");
        let mut in_flight: Vec<u64> = self.in_flight.iter().map(|&(_, seq)| seq).collect();
        in_flight.sort_unstable();
        let scanned: Vec<u64> =
            self.rob.iter().filter(|u| u.issued && !u.done).map(|u| u.seq).collect();
        assert_eq!(in_flight, scanned, "in-flight list drifted from the ROB");
        let stores: Vec<u64> = self.rob.iter().filter(|u| u.is_store()).map(|u| u.seq).collect();
        assert!(self.stores.iter().eq(&stores), "store list drifted from the ROB");
        let stores: Vec<u64> =
            self.rob.iter().filter(|u| u.is_store() && !u.issued).map(|u| u.seq).collect();
        assert!(self.unissued_stores.iter().eq(&stores), "unissued stores drifted from the ROB");
        let branches = self
            .rob
            .iter()
            .filter(|u| has_itr && u.signals().flags.contains(itr_isa::SignalFlags::IS_BRANCH));
        assert!(
            self.itr_snaps.iter().map(|&(s, _)| s).eq(branches.map(|u| u.seq)),
            "ITR snapshots drifted from the ROB's branches"
        );
        let barrier =
            self.rob.iter().find(|u| u.is_store() && !u.issued).map_or(u64::MAX, |u| u.seq);
        assert_eq!(self.store_barrier(), barrier, "store barrier drifted from the ROB");
    }
}
