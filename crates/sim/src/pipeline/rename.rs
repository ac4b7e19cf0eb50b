//! Decode/rename/dispatch stage: drain the fetch queue into the window.
//!
//! Decode derives the Table-2 signal vector (the point where
//! [`DecodeFault`]s strike), rename maps architectural to physical
//! registers through [`RenameState`], and dispatch allocates the ROB/IQ
//! entries and taps the ITR unit (§2.1/§2.2 of the paper).
//!
//! [`DecodeFault`]: crate::config::DecodeFault

use super::window::{MemClass, Uop};
use super::Pipeline;
use crate::config::RenameFault;
use crate::semantics::operand_plan;
use itr_isa::{DecodeSignals, SignalFlags};
use std::collections::VecDeque;

/// One destination allocation, with what it displaced (for rollback and
/// for the commit-time free of the previous mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::pipeline) struct DstAlloc {
    pub arch: u16,
    pub phys: u16,
    pub prev: u16,
}

/// Register-rename state: map table, free list, physical register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::pipeline) struct RenameState {
    /// Architectural → physical map (65 architectural registers).
    pub map: [u16; 65],
    pub free_list: VecDeque<u16>,
    pub phys_val: Vec<u32>,
    pub phys_ready: Vec<bool>,
}

impl RenameState {
    pub fn new(phys_regs: u32) -> RenameState {
        let mut map = [0u16; 65];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as u16;
        }
        let mut phys_val = vec![0u32; phys_regs as usize];
        phys_val[29] = itr_isa::STACK_TOP as u32;
        RenameState {
            map,
            free_list: (65..phys_regs as u16).collect(),
            phys_val,
            phys_ready: vec![true; phys_regs as usize],
        }
    }

    /// Reverts one allocation during a squash (tail-first walk).
    pub fn undo(&mut self, d: DstAlloc) {
        self.map[d.arch as usize] = d.prev;
        self.free_list.push_front(d.phys);
    }
}

/// Encoding of the rename map-table indexes folded into the signature
/// under `rename_protection` (must be identical wherever a signature is
/// (re)generated).
pub(in crate::pipeline) fn rename_extra(src_arch: [Option<u16>; 2], dst_arch: Option<u16>) -> u64 {
    let enc = |o: Option<u16>| o.map_or(0x7F, u64::from);
    (enc(src_arch[0]) | (enc(src_arch[1]) << 7) | (enc(dst_arch) << 14)).rotate_left(23)
}

impl Pipeline {
    pub(in crate::pipeline) fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            if self.fe.queue.is_empty()
                || self.win.len() as u32 >= self.cfg.rob_entries
                || self.win.iq().len() as u32 >= self.cfg.iq_entries
                || self.rn.free_list.is_empty()
            {
                return;
            }
            if let Some(unit) = &self.itr {
                if unit.rob_full() {
                    return;
                }
            }
            if self.win.lsq_used() as u32 >= self.cfg.lsq_entries {
                return;
            }
            // Fetch-reorder fault: swap the next two instruction words
            // (their PCs and predictions keep their slots).
            if let Some(nth) = self.cfg.swap_fault {
                if !self.swap_done && self.stats.decoded == nth && self.fe.queue.len() >= 2 {
                    let inst0 = self.fe.queue[0].inst;
                    self.fe.queue[0].inst = self.fe.queue[1].inst;
                    self.fe.queue[1].inst = inst0;
                    self.swap_done = true;
                }
            }
            let f = self.fe.queue.pop_front().expect("checked non-empty");

            // Decode: derive the signal vector, injecting any planned
            // upsets striking this instruction.
            let decoded_so_far = self.stats.decoded;
            let mut sig = DecodeSignals::from_instruction(&f.inst);
            for fault in &self.faults {
                if decoded_so_far == fault.nth_decode {
                    sig = sig.with_bit_flipped(fault.bit);
                }
            }
            // Multi-cycle faults (stuck-at / intermittent / repeated
            // flips) perturb the packed vector of every struck decode.
            for fault in &self.signal_faults {
                if fault.strikes(decoded_so_far) {
                    let packed = sig.pack();
                    let struck = fault.apply(packed);
                    if struck != packed {
                        sig = DecodeSignals::unpack(struck);
                    }
                }
            }
            // An armed burst fault strikes the next `len` decodes after
            // the run's first ITR mismatch.
            if let (Some(burst), Some(from)) = (self.cfg.burst_fault, self.first_mismatch_decode) {
                if decoded_so_far >= from && decoded_so_far < from.saturating_add(burst.len) {
                    sig = sig.with_bit_flipped(burst.bit % 64);
                }
            }
            self.stats.decoded += 1;

            // Rename: derive the map-table indexes, strike them with the
            // planned rename fault if this is the chosen instruction.
            let plan = operand_plan(&sig);
            let rename_idx = decoded_so_far;
            let perturb = |arch: u16, operand: u8| -> u16 {
                match self.cfg.rename_fault {
                    Some(RenameFault { nth_rename, operand: o, bit })
                        if nth_rename == rename_idx && o == operand =>
                    {
                        (arch ^ (1 << (bit % 7)) as u16) % 65
                    }
                    _ => arch,
                }
            };
            let src_arch =
                [plan.srcs[0].map(|a| perturb(a, 0)), plan.srcs[1].map(|a| perturb(a, 1))];
            let dst_arch = plan.dst.map(|a| perturb(a, 2)).filter(|&a| a != 0);

            // ITR dispatch tap (§2.1/§2.2), optionally folding the rename
            // indexes actually used (§1 rename-unit extension).
            let extra =
                if self.cfg.rename_protection { rename_extra(src_arch, dst_arch) } else { 0 };
            let (trace_seq, trace_end) = match &mut self.itr {
                Some(unit) => {
                    let r = unit.on_dispatch_extended(f.pc, &sig, extra);
                    (r.trace_seq, r.trace_end)
                }
                None => (0, false),
            };

            let srcs = src_arch.map(|o| o.map(|arch| self.rn.map[arch as usize]));
            let dst = dst_arch.map(|arch| {
                let phys = self.rn.free_list.pop_front().expect("checked non-empty");
                let prev = self.rn.map[arch as usize];
                self.rn.map[arch as usize] = phys;
                self.rn.phys_ready[phys as usize] = false;
                DstAlloc { arch, phys, prev }
            });

            let seq = self.win.next_seq();
            // Snapshot ITR state after any instruction that can redirect
            // dispatches, for misprediction rollback. Execute redirects
            // on the (possibly faulty) signals' `IS_BRANCH`, never on the
            // true instruction, so the snapshot follows the signals too.
            let may_redirect = sig.flags.contains(SignalFlags::IS_BRANCH);
            let itr_snap =
                if may_redirect { self.itr.as_ref().map(|u| u.snapshot()) } else { None };
            self.win.dispatch(Uop {
                seq,
                pc: f.pc,
                inst: f.inst,
                sig,
                srcs,
                phantom: plan.phantom_src,
                dst,
                issued: false,
                done: false,
                done_cycle: 0,
                result: 0,
                next_pc: f.pc + 4,
                taken: None,
                predicted_next: f.predicted_next,
                ghr_snapshot: f.ghr_snapshot,
                used_gshare: f.used_gshare,
                store: None,
                trap: None,
                trace_seq,
                trace_end,
                itr_snap,
                class: MemClass::of(&sig),
            });
        }
    }
}
