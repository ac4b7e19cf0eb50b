//! The out-of-order window: reorder buffer and issue queue.
//!
//! [`Window`] is the dispatch→issue→complete→commit queue structure:
//! dispatch pushes [`Uop`]s at the tail, issue picks from [`Window::iq`],
//! commit pops from the head. Sequence numbers are global and monotonic;
//! `head_seq` maps them to ROB indexes.

use super::rename::DstAlloc;
use crate::semantics::{StoreOp, TrapAction};
use itr_core::ItrSnapshot;
use itr_isa::{DecodeSignals, Instruction};
use std::collections::VecDeque;

/// One in-flight instruction (ROB entry).
#[derive(Debug, Clone)]
pub(in crate::pipeline) struct Uop {
    pub seq: u64,
    pub pc: u64,
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
}

impl Uop {
    pub fn is_load(&self) -> bool {
        self.sig.opcode_enum().map(|o| o.is_load()).unwrap_or(false)
    }

    pub fn is_store(&self) -> bool {
        self.sig.opcode_enum().map(|o| o.is_store()).unwrap_or(false)
    }
}

/// The ROB + issue queue pair.
#[derive(Debug, Clone, Default)]
pub(in crate::pipeline) struct Window {
    pub rob: VecDeque<Uop>,
    /// Sequence number of the ROB head (commit point).
    pub head_seq: u64,
    /// Sequence numbers of dispatched-not-yet-issued instructions.
    pub iq: Vec<u64>,
}

impl Window {
    pub fn new() -> Window {
        Window::default()
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
        self.rob.iter().filter(|u| u.is_load() || u.is_store()).count()
    }
}
