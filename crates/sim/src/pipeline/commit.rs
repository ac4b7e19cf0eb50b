//! Commit stage: the ITR commit interlock (§2.2), the §3 redundant-fetch
//! fallback, the sequential-PC check (§2.5), and architectural retirement.
//!
//! Commit is where faults become irreversible, so every check gates it:
//! the interlock stalls a trace until its signature is confirmed, a
//! mismatch triggers a retry flush (or a machine check if state already
//! escaped), and only then do stores reach memory and traps take effect.

use super::rename::rename_extra;
use super::{Pipeline, RunExit, SpcViolation};
use crate::arch::CommitRecord;
use crate::semantics::{operand_plan, TrapAction};
use itr_core::CommitAction;
use itr_isa::{decode, DecodeSignals, Opcode, SignalFlags};

impl Pipeline {
    /// Squashes the entire window and restarts fetch at `restart_pc`
    /// (ITR retry, TAC recovery, redundant-fetch detect).
    pub(in crate::pipeline) fn full_flush_to(&mut self, restart_pc: u64) {
        let rn = &mut self.rn;
        self.win.flush(|u| {
            if let Some(d) = u.dst {
                rn.undo(d);
            }
        });
        self.fe.redirect(restart_pc);
        self.spc.reseed(restart_pc);
    }

    /// Re-decodes the static trace at `start_pc` straight from memory —
    /// the redundant copy of the §3 fallback. Returns its signature
    /// (ground truth under a single-event-upset model: the second fetch
    /// and decode are fault-free) and its instruction count.
    fn redecode_trace(&self, start_pc: u64, max_len: u32) -> Option<(u64, u32)> {
        let fold = self.itr.as_ref().map(|u| u.config().fold).unwrap_or_default();
        let mut builder = itr_core::TraceBuilder::with_kind(max_len, fold);
        let mut pc = start_pc;
        for _ in 0..max_len {
            let inst = decode(self.mem.read_u32(pc)).ok()?;
            let sig = DecodeSignals::from_instruction(&inst);
            let extra = if self.cfg.rename_protection {
                let plan = operand_plan(&sig);
                rename_extra(plan.srcs, plan.dst)
            } else {
                0
            };
            if let Some(t) = builder.push_with_extra(pc, &sig, extra) {
                return Some((t.signature, t.len));
            }
            pc += 4;
        }
        None
    }

    /// §3 fallback: before any instruction of a missed trace commits,
    /// re-fetch and re-decode the trace and compare the two copies.
    /// Returns `true` if commit must stall this cycle.
    fn redundant_verify_stall(&mut self, trace_seq: u64) -> bool {
        let Some(unit) = &self.itr else { return false };
        if !unit.config().redundant_fetch_on_miss {
            return false;
        }
        if self.verified_miss == Some(trace_seq) {
            return false;
        }
        let Some(entry) = unit.rob_entry(trace_seq) else { return false };
        if entry.state != itr_core::ControlState::Miss {
            return false;
        }
        let (start_pc, len, in_flight_sig) = (entry.start_pc, entry.len, entry.signature);
        let max_len = unit.config().max_trace_len;
        match self.redundant_verify {
            None => {
                // Launch the redundant fetch: frontend depth plus one
                // fetch group per `width` instructions.
                let groups = (len as u64).div_ceil(self.cfg.width as u64);
                self.stats.redundant_fetch_groups += groups;
                self.redundant_verify = Some((trace_seq, self.cycle + 6 + groups));
                true
            }
            Some((seq, done)) if seq == trace_seq => {
                if self.cycle < done {
                    return true;
                }
                self.redundant_verify = None;
                self.stats.redundant_verifies += 1;
                let clean = self.redecode_trace(start_pc, max_len);
                if clean.map(|(sig, _)| sig) == Some(in_flight_sig) {
                    self.verified_miss = Some(trace_seq);
                    false
                } else {
                    // The in-flight copy is faulty: flush before anything
                    // commits and refetch, exactly like an ITR retry.
                    self.stats.redundant_detects += 1;
                    self.stats.retry_flushes += 1;
                    self.itr.as_mut().expect("checked").on_retry_flush(start_pc);
                    self.full_flush_to(start_pc);
                    true
                }
            }
            Some(_) => {
                // A stale verify for a squashed trace: restart.
                self.redundant_verify = None;
                true
            }
        }
    }

    pub(in crate::pipeline) fn commit<F: FnMut(&CommitRecord) -> bool>(
        &mut self,
        on_commit: &mut F,
    ) {
        for _ in 0..self.cfg.width {
            if self.win.front().is_none() {
                return;
            }

            // ITR commit interlock (§2.2). Consulted before the completion
            // check: a retry can rescue a deadlocked trace (ITR+wdog+R).
            if self.itr.is_some() {
                let trace_seq = self.win.front().expect("checked").trace_seq;
                let action = self.itr.as_ref().expect("checked").commit_action(trace_seq);
                match action {
                    CommitAction::Proceed => {}
                    CommitAction::Stall => return,
                    CommitAction::Retry { start_pc } => {
                        self.stats.retry_flushes += 1;
                        self.itr.as_mut().expect("checked").on_retry_flush(start_pc);
                        self.full_flush_to(start_pc);
                        return;
                    }
                    CommitAction::MachineCheck { start_pc } => {
                        self.itr.as_mut().expect("checked").on_machine_check(start_pc);
                        self.exit = Some(RunExit::MachineCheck { start_pc });
                        return;
                    }
                }
            }

            if self.itr.is_some() {
                let trace_seq = self.win.front().expect("checked").trace_seq;
                if self.redundant_verify_stall(trace_seq) {
                    return;
                }
            }

            if !self.win.front().expect("checked").done {
                return;
            }
            let u = self.win.retire().expect("checked");

            // Sequential-PC check (§2.5).
            if self.cfg.spc_check {
                let is_branch_flag = u.sig.flags.contains(SignalFlags::IS_BRANCH);
                if !self.spc.check_and_advance(u.pc, is_branch_flag, u.next_pc) {
                    self.stats.spc_violations += 1;
                    self.spc_violations.push(SpcViolation { cycle: self.cycle, pc: u.pc });
                }
            }

            // Architectural effects.
            let mut record = CommitRecord { pc: u.pc, dst: None, store: None, next_pc: u.next_pc };
            if let Some(d) = u.dst {
                record.dst = Some((d.arch, u.result));
                self.rn.free_list.push_back(d.prev);
            }
            if let Some(s) = u.store {
                self.mem.write(s.addr, s.size, s.value);
                record.store = Some((s.addr, s.size, s.value));
            }
            match u.trap {
                Some(TrapAction::Halt) => self.exit = Some(RunExit::Halted),
                Some(TrapAction::Abort(code)) => self.exit = Some(RunExit::Aborted(code)),
                Some(TrapAction::PutInt(v)) => self.output.push_str(&(v as i32).to_string()),
                Some(TrapAction::PutChar(c)) => self.output.push(c as char),
                Some(TrapAction::Nop) | None => {}
            }

            // Predictor training.
            if u.used_gshare {
                if let Some(taken) = u.taken {
                    self.fe.gshare.train(u.pc, u.ghr_snapshot, taken);
                }
            }
            // By the true opcode: the predecode view (see `Uop::inst`).
            if matches!(u.inst.op, Opcode::Jr | Opcode::Jalr) && u.taken == Some(true) {
                self.fe.btb.update(u.pc, u.next_pc);
            }

            self.wdog.pet(self.cycle);
            self.stats.committed += 1;
            if u.trace_end {
                if let Some(unit) = &mut self.itr {
                    unit.on_trace_end_commit(u.trace_seq);
                    // §2.3: a coarse-grain checkpoint is safe whenever no
                    // unchecked (unreferenced) lines are resident. Under
                    // bounded wait only *young* unreferenced lines block;
                    // aged-out lines (run-once prologues) no longer do.
                    let committed = self.stats.committed;
                    let blocking = match self.cfg.checkpoint_line_age {
                        None => unit.cache().unreferenced_count(),
                        Some(age) => unit.cache().unreferenced_young_count(age),
                    };
                    if self.checkpointer.observe(blocking, committed) {
                        self.last_checkpoint = Some(super::CheckpointRecord {
                            committed,
                            output_len: self.output.len(),
                        });
                    }
                }
            }
            if !on_commit(&record) {
                self.exit = Some(RunExit::Stopped);
                return;
            }
            if self.exit.is_some() {
                return;
            }
        }
    }
}
