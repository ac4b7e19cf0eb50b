//! Decode/rename/dispatch stage: drain the fetch queue into the window.
//!
//! Decode takes the Table-2 signal vector fetch read from the decode
//! table and lets the [`Injection`]'s decode-signal faults strike it;
//! only a struck vector's operand plan is derived again. Rename maps
//! architectural to physical registers through [`RenameState`], and
//! dispatch allocates the ROB/IQ entries and taps the ITR unit
//! (§2.1/§2.2 of the paper).
//!
//! [`Injection`]: crate::Injection

use super::window::{MemClass, Uop};
use super::Pipeline;
use crate::injection::RenameFault;
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
            // Fetch-reorder fault: swap the next two decoded words (their
            // PCs and predictions keep their slots).
            if self.injection.swap == Some(self.stats.decoded) && self.fe.queue.len() >= 2 {
                self.injection.swap.take();
                let first = self.fe.queue[0].decoded;
                self.fe.queue[0].decoded = self.fe.queue[1].decoded;
                self.fe.queue[1].decoded = first;
            }
            let f = self.fe.queue.pop_front().expect("checked non-empty");

            // Decode: each planned decode-signal fault striking this
            // decode perturbs the packed signal vector, in push order.
            let decoded_so_far = self.stats.decoded;
            let mut packed = f.decoded.sig;
            for fault in &self.injection.decode {
                if fault.strikes(decoded_so_far) {
                    packed = fault.apply(packed);
                }
            }
            // An armed burst fault strikes the next `len` decodes after
            // the run's first ITR mismatch.
            if let (Some(burst), Some(from)) = (self.injection.burst, self.first_mismatch_decode) {
                if decoded_so_far >= from && decoded_so_far < from.saturating_add(burst.len) {
                    packed ^= 1 << (burst.bit % 64);
                }
            }
            self.stats.decoded += 1;
            let sig = DecodeSignals::unpack(packed);

            // Rename: derive the map-table indexes (again only if a fault
            // changed the signals), strike them with the planned rename
            // fault if this is the chosen instruction.
            let plan = if packed == f.decoded.sig { f.decoded.plan } else { operand_plan(&sig) };
            let rename_idx = decoded_so_far;
            let perturb = |arch: u16, operand: u8| -> u16 {
                match self.injection.rename {
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
                    let r = unit.on_dispatch_packed(f.pc, packed, extra);
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
            self.win.dispatch(
                Uop {
                    seq,
                    pc: f.pc,
                    raw: f.decoded.raw,
                    sig: packed,
                    dst,
                    issued: false,
                    done: false,
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
                    class: MemClass::of(&sig),
                },
                srcs,
                plan.phantom_src,
                itr_snap,
            );
        }
    }
}
