//! The out-of-order window: reorder buffer, issue queue, and the
//! bookkeeping the stages would otherwise rescan the ROB for.
//!
//! [`Window`] is the dispatch→issue→complete→commit queue structure:
//! dispatch enters a [`Uop`] at the tail ([`Window::dispatch`]), issue
//! takes the oldest issuable entries ([`Window::select`]) and marks them
//! issued ([`Window::mark_issued`]), complete drains the due in-flight
//! entries ([`Window::take_due`]), commit retires the head
//! ([`Window::retire`]), and squashes cut the tail
//! ([`Window::squash_from`]). Sequence numbers grow monotonically except
//! that a squash hands the squashed numbers out again
//! (`next_seq = head_seq + len`).
//!
//! The ROB is a ring of a power-of-two number of slots, at least the ROB
//! size: the uop numbered `s` lives in slot `s & mask`, written there in
//! place at dispatch. The issue queue shares the slot numbering: a slot's
//! [`IqEntry`] holds what select reads of its uop (physical sources,
//! phantom flag, class), and a bit set marks the waiting (unissued)
//! slots. Select walks that set from the head slot, which is age order,
//! and a pick leaves the queue by clearing its bit; nothing shifts.
//!
//! Because every push and pop goes through these methods, the window
//! keeps derived structures up to date instead of scanning the ROB each
//! cycle, and select and complete read them without touching a [`Uop`]:
//!
//! | state             | invariant (over the live ROB)                           |
//! |-------------------|---------------------------------------------------------|
//! | `waiting`         | the slots of the unissued entries; `iq_len` counts them |
//! | `iq`              | at each waiting slot, its sources, phantom flag and class; the sources live only here |
//! | `lsq_used`        | number of loads + stores                                |
//! | `in_flight`       | `(done_cycle, seq)` of issued, not-done entries         |
//! | `stores`          | sequence numbers of stores, oldest first                |
//! | `unissued_stores` | sequence numbers of unissued stores, oldest first       |
//! | `itr_snaps`       | the ITR snapshot of every branch, by sequence number, when the pipeline has an ITR unit |
//!
//! Select tests the sources of each waiting entry it passes, in the
//! register file's ready bits. Waking the entries that wait on a
//! register when it completes would spare those tests but costs more
//! than it saves here: the queue holds 6–12 entries, half of them ready
//! when they dispatch, and the wake lists cost a registration at
//! dispatch and a walk at completion (DESIGN.md §17c).
//!
//! The ITR snapshots (40 bytes each, taken for branches only) live beside
//! the ROB rather than in each [`Uop`], as do the physical sources (in
//! the issue-queue entry) and the done cycle (in the in-flight list):
//! that keeps a uop at 112 bytes.
//!
//! Loads and stores are classified by the uop's (possibly faulty) decode
//! signals once, at dispatch ([`MemClass`]). In debug builds
//! [`Window::debug_check`] recomputes every structure by scanning the ROB
//! once per cycle and asserts they match.

use super::predecode::RawWord;
use super::rename::DstAlloc;
use crate::semantics::{StoreOp, TrapAction};
use itr_core::ItrSnapshot;
use itr_isa::{DecodeSignals, SignalFlags};
use std::collections::VecDeque;

/// One in-flight instruction (ROB entry). A slot never dispatched into
/// holds the default.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// ([`DecodeSignals::pack`]); issue unpacks them to execute the uop.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(in crate::pipeline) enum MemClass {
    #[default]
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
    /// Whether the (possibly faulty) signals set `IS_BRANCH`.
    pub fn is_branch(&self) -> bool {
        DecodeSignals::packed_flags(self.sig).contains(SignalFlags::IS_BRANCH)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(in crate::pipeline) struct IqEntry {
    /// Physical source tags; an unplanned source names the register
    /// file's always-ready zero register ([`RenameState::no_src`]).
    ///
    /// [`RenameState::no_src`]: super::rename::RenameState::no_src
    pub srcs: [u16; 2],
    /// A decode fault invented an operand that cannot become ready.
    pub phantom: bool,
    /// [`Uop::class`].
    pub class: MemClass,
}

impl IqEntry {
    /// Whether the entry may issue: it is not phantom and `phys_ready`
    /// holds every source ready.
    pub fn ready(&self, phys_ready: &[bool]) -> bool {
        let [a, b] = self.srcs;
        !self.phantom & phys_ready[a as usize] & phys_ready[b as usize]
    }
}

/// A set of issue-queue slots, one bit per slot, in words of
/// [`SLOT_BITS`]; the default 128-entry ROB needs two.
type Slots = u64;
const SLOT_BITS: usize = Slots::BITS as usize;

/// The bits of the `i`th word of a ring walk over `words` words that
/// starts at bit `head_bit` of its first word: that word is visited
/// twice, its upper bits first and its lower bits last.
fn age_mask(i: usize, words: usize, head_bit: usize) -> Slots {
    match i {
        0 => !0 << head_bit,
        _ if i == words => !(!0 << head_bit),
        _ => !0,
    }
}

fn bit(slot: usize) -> Slots {
    1 << (slot % SLOT_BITS)
}

/// The ROB + issue queue pair, with the per-cycle bookkeeping derived
/// from them (see the module docs for the invariants).
#[derive(Debug, Clone)]
pub(in crate::pipeline) struct Window {
    /// The ROB ring: slot `seq & mask` holds the live uop `seq`.
    rob: Box<[Uop]>,
    /// ROB occupancy.
    len: usize,
    /// Sequence number of the ROB head (commit point).
    head_seq: u64,
    /// `seq & mask` is the issue-queue slot of `seq`.
    mask: u64,
    /// The issue-queue entry of each slot (meaningful while its uop
    /// waits to issue).
    iq: Box<[IqEntry]>,
    /// Dispatched-not-yet-issued uops (the issue-queue occupancy).
    iq_len: usize,
    /// The slots of the dispatched-not-yet-issued uops.
    waiting: Box<[Slots]>,
    /// Words per slot set.
    words: usize,
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

/// Two windows are equal when their live state is: the live uops, the
/// lists, and the issue-queue entries of the waiting uops. The waiting
/// set follows from the uops; the slots no live uop holds, and the
/// entries of issued uops, steer nothing and are left out.
impl PartialEq for Window {
    fn eq(&self, other: &Window) -> bool {
        self.head_seq == other.head_seq
            && self.len == other.len
            && self.uops().eq(other.uops())
            && self.lsq_used == other.lsq_used
            && self.in_flight == other.in_flight
            && self.stores == other.stores
            && self.unissued_stores == other.unissued_stores
            && self.itr_snaps == other.itr_snaps
            && self.uops().all(|u| u.issued || self.iq_entry(u.seq) == other.iq_entry(u.seq))
    }
}

impl Window {
    /// An empty window for a ROB of `rob_entries`.
    pub fn new(rob_entries: u32) -> Window {
        let slots = (rob_entries.max(1) as usize).next_power_of_two();
        let words = slots.div_ceil(SLOT_BITS);
        Window {
            rob: vec![Uop::default(); slots].into(),
            len: 0,
            head_seq: 0,
            mask: slots as u64 - 1,
            iq: vec![IqEntry::default(); slots].into(),
            iq_len: 0,
            waiting: vec![0; words].into(),
            words,
            lsq_used: 0,
            in_flight: Vec::new(),
            stores: VecDeque::new(),
            unissued_stores: VecDeque::new(),
            itr_snaps: VecDeque::new(),
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The sequence number of the live uop in issue-queue slot `slot`.
    fn seq_of(&self, slot: usize) -> u64 {
        self.head_seq + ((slot as u64).wrapping_sub(self.head_seq) & self.mask)
    }

    /// The live uops, oldest first.
    fn uops(&self) -> impl Iterator<Item = &Uop> + '_ {
        (self.head_seq..self.next_seq()).map(|seq| self.get(seq))
    }

    /// ROB occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Issue-queue occupancy.
    pub fn iq_len(&self) -> usize {
        self.iq_len
    }

    /// The ROB head (the next instruction to commit).
    pub fn front(&self) -> Option<&Uop> {
        (self.len > 0).then(|| self.get(self.head_seq))
    }

    /// Whether `seq` is live (neither squashed nor committed).
    pub fn contains(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head_seq) < self.len as u64
    }

    /// The live uop `seq`.
    pub fn get(&self, seq: u64) -> &Uop {
        debug_assert!(self.contains(seq), "uop {seq} is not live");
        &self.rob[self.slot(seq)]
    }

    /// The live uop `seq`, mutably.
    pub fn get_mut(&mut self, seq: u64) -> &mut Uop {
        debug_assert!(self.contains(seq), "uop {seq} is not live");
        let slot = self.slot(seq);
        &mut self.rob[slot]
    }

    /// The issue-queue entry of the waiting uop `seq`.
    pub fn iq_entry(&self, seq: u64) -> &IqEntry {
        &self.iq[self.slot(seq)]
    }

    /// Sequence number the next dispatched instruction will get.
    pub fn next_seq(&self) -> u64 {
        self.head_seq + self.len as u64
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
        self.stores.iter().take_while(move |&&s| s < seq).filter_map(|&s| self.get(s).store)
    }

    /// The ITR snapshot dispatch took for the live branch `seq`, if any.
    pub fn itr_snap(&self, seq: u64) -> Option<&ItrSnapshot> {
        let at = self.itr_snaps.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(&self.itr_snaps[at].1)
    }

    /// Appends a freshly renamed instruction to the window: enters its
    /// issue-queue entry and the ITR snapshot taken for it, and returns
    /// its ROB slot, which the caller fills with the uop numbered
    /// [`Window::next_seq`] (as it was before the call). Writing the uop
    /// in place spares a 112-byte copy per dispatch.
    #[inline(always)]
    pub fn dispatch(&mut self, entry: IqEntry, itr_snap: Option<ItrSnapshot>) -> &mut Uop {
        debug_assert!(self.len <= self.mask as usize, "dispatch into a full ROB");
        let seq = self.next_seq();
        let slot = self.slot(seq);
        if let Some(snap) = itr_snap {
            self.itr_snaps.push_back((seq, snap));
        }
        if entry.class == MemClass::Store {
            self.stores.push_back(seq);
            self.unissued_stores.push_back(seq);
        }
        if entry.class != MemClass::Other {
            self.lsq_used += 1;
        }
        self.iq_len += 1;
        self.waiting[slot / SLOT_BITS] |= bit(slot);
        self.iq[slot] = entry;
        self.len += 1;
        &mut self.rob[slot]
    }

    /// Calls `visit` on the waiting entries, oldest first, with their
    /// sequence numbers, until it returns `true`.
    #[inline(always)]
    fn scan_waiting(&self, mut visit: impl FnMut(u64, &IqEntry) -> bool) {
        let head = self.slot(self.head_seq);
        let (head_word, head_bit) = (head / SLOT_BITS, head % SLOT_BITS);
        for i in 0..=self.words {
            let w =
                if head_word + i < self.words { head_word + i } else { head_word + i - self.words };
            let mut word = self.waiting[w] & age_mask(i, self.words, head_bit);
            while word != 0 {
                let slot = w * SLOT_BITS + word.trailing_zeros() as usize;
                word &= word - 1;
                if visit(self.seq_of(slot), &self.iq[slot]) {
                    return;
                }
            }
        }
    }

    /// Collects into `picks` the first `width` waiting entries whose
    /// sources are ready in `phys_ready`, oldest first, passing over
    /// loads not older than `barrier` (see [`Window::store_barrier`]).
    pub fn select(&self, phys_ready: &[bool], barrier: u64, width: usize, picks: &mut Vec<u64>) {
        picks.clear();
        if width == 0 {
            return;
        }
        self.scan_waiting(|seq, e| {
            if e.ready(phys_ready) && (seq < barrier || e.class != MemClass::Load) {
                picks.push(seq);
            }
            picks.len() == width
        });
    }

    /// The oldest waiting entry that is not ready, not phantom, and
    /// neither a load nor a store (a scheduler fault's victim).
    pub fn oldest_unready_other(&self, phys_ready: &[bool]) -> Option<u64> {
        let mut victim = None;
        self.scan_waiting(|seq, e| {
            let found = !e.phantom && !e.ready(phys_ready) && e.class == MemClass::Other;
            if found {
                victim = Some(seq);
            }
            found
        });
        victim
    }

    /// Marks the waiting uop `seq` issued, due at `done_cycle`, and
    /// returns it for its results: it leaves the issue queue and the
    /// unissued stores, and joins the in-flight list.
    pub fn mark_issued(&mut self, seq: u64, done_cycle: u64) -> &mut Uop {
        self.leave_iq(seq);
        if self.iq_entry(seq).class == MemClass::Store {
            let at = self.unissued_stores.iter().position(|&s| s == seq);
            self.unissued_stores.remove(at.expect("an unissued store is listed"));
        }
        self.in_flight.push((done_cycle, seq));
        let u = self.get_mut(seq);
        u.issued = true;
        u
    }

    /// Takes the waiting uop `seq` out of the issue queue.
    fn leave_iq(&mut self, seq: u64) {
        let slot = self.slot(seq);
        self.iq_len -= 1;
        self.waiting[slot / SLOT_BITS] &= !bit(slot);
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
        let u = self.front().expect("retiring from an empty ROB");
        debug_assert!(u.done, "retiring an unfinished instruction");
        let (seq, in_lsq, is_store) = (u.seq, u.in_lsq(), u.is_store());
        if in_lsq {
            self.lsq_used -= 1;
        }
        if is_store {
            self.stores.pop_front();
        }
        if self.itr_snaps.front().is_some_and(|&(s, _)| s == seq) {
            self.itr_snaps.pop_front();
        }
        self.head_seq = seq + 1;
        self.len -= 1;
    }

    /// Squashes every entry from sequence number `first` on, youngest
    /// first, handing each to `undo` (rename rollback); the squashed
    /// numbers are dispatched again.
    pub fn squash_from(&mut self, first: u64, mut undo: impl FnMut(&Uop)) {
        while self.len > 0 && self.next_seq() > first {
            let u = self.get(self.next_seq() - 1);
            undo(u);
            let (seq, in_lsq, issued) = (u.seq, u.in_lsq(), u.issued);
            if in_lsq {
                self.lsq_used -= 1;
            }
            if !issued {
                self.leave_iq(seq);
            }
            self.len -= 1;
        }
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
        let in_place = self.uops().zip(self.head_seq..).all(|(u, seq)| u.seq == seq);
        assert!(in_place, "a live uop sits outside its ROB slot");
        let mut waiting = vec![0; self.words];
        for u in self.uops().filter(|u| !u.issued) {
            let (slot, e) = (self.slot(u.seq), self.iq_entry(u.seq));
            assert_eq!(e.class, u.class, "IQ entry class");
            waiting[slot / SLOT_BITS] |= bit(slot);
        }
        assert_eq!(&waiting[..], &self.waiting[..], "issue queue drifted from the ROB");
        assert_eq!(self.iq_len, self.uops().filter(|u| !u.issued).count(), "issue-queue count");
        let lsq = self.uops().filter(|u| u.in_lsq()).count();
        assert_eq!(self.lsq_used, lsq, "LSQ count drifted from the ROB");
        let mut in_flight: Vec<u64> = self.in_flight.iter().map(|&(_, seq)| seq).collect();
        in_flight.sort_unstable();
        let scanned: Vec<u64> =
            self.uops().filter(|u| u.issued && !u.done).map(|u| u.seq).collect();
        assert_eq!(in_flight, scanned, "in-flight list drifted from the ROB");
        let stores: Vec<u64> = self.uops().filter(|u| u.is_store()).map(|u| u.seq).collect();
        assert!(self.stores.iter().eq(&stores), "store list drifted from the ROB");
        let stores: Vec<u64> =
            self.uops().filter(|u| u.is_store() && !u.issued).map(|u| u.seq).collect();
        assert!(self.unissued_stores.iter().eq(&stores), "unissued stores drifted from the ROB");
        let branches = self.uops().filter(|u| has_itr && u.is_branch());
        assert!(
            self.itr_snaps.iter().map(|&(s, _)| s).eq(branches.map(|u| u.seq)),
            "ITR snapshots drifted from the ROB's branches"
        );
        let barrier = self.uops().find(|u| u.is_store() && !u.issued).map_or(u64::MAX, |u| u.seq);
        assert_eq!(self.store_barrier(), barrier, "store barrier drifted from the ROB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-instruction records every cycle moves: a uop (written in
    /// place into its ROB slot), its issue-queue entry (a window copy
    /// holds one per slot), and the fetch latch's decoded word (two
    /// whole words, copied without a store-forwarding stall). A layout
    /// change fails here instead of slowing dispatch or growing every
    /// campaign snapshot.
    #[test]
    fn uop_and_issue_queue_entry_sizes_are_pinned() {
        use super::super::predecode::Decoded;
        assert_eq!(std::mem::size_of::<Uop>(), 112);
        assert_eq!(std::mem::size_of::<IqEntry>(), 6);
        assert_eq!(std::mem::size_of::<Decoded>(), 16);
    }
}
