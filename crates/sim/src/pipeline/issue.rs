//! Issue stage: oldest-first select among ready instructions, the TAC
//! issue-order assertion (§1), and execution proper.
//!
//! Select walks the window's waiting entries in age order
//! ([`Window::select`]), reading only their issue-queue entries (sources,
//! phantom flag, load/store class) and the physical registers' ready
//! bits; only the picks are looked up in the ROB, whose packed signals
//! issue unpacks once for execution. Selected instructions execute
//! immediately with a latency assigned from their signal-vector latency
//! class (plus D-cache misses); results land back in the ROB entry and
//! the physical register file, becoming visible at the done cycle the
//! in-flight list records (the complete stage's input).
//!
//! [`Window::select`]: super::window::Window::select

use super::lsq::OverlayLoader;
use super::Pipeline;
use crate::injection::SchedulerFault;
use crate::semantics::{execute, ExecInput};
use itr_isa::DecodeSignals;

impl Pipeline {
    pub(in crate::pipeline) fn issue(&mut self) {
        // Oldest-first select among ready instructions: the first
        // `issue_width` ready entries in age order are the picks, taken
        // as sequence numbers (ascending). Loads wait for every older
        // store to issue; the barrier is taken before select, so a store
        // issuing this cycle frees younger loads next cycle.
        let barrier = self.win.store_barrier();
        let mut candidates = std::mem::take(&mut self.issue_candidates);
        self.win.select(
            &self.rn.phys_ready,
            barrier,
            self.cfg.issue_width as usize,
            &mut candidates,
        );

        // Scheduler fault: at the chosen issue index the select logic
        // wrongly grabs the oldest not-ready instruction instead.
        if let Some(SchedulerFault { nth_issue }) = self.injection.scheduler {
            let issued_so_far = self.stats.issued;
            let in_window = issued_so_far <= nth_issue
                && nth_issue < issued_so_far + candidates.len().max(1) as u64;
            if in_window {
                if let Some(v) = self.win.oldest_unready_other(&self.rn.phys_ready) {
                    let slot = (nth_issue - issued_so_far) as usize;
                    if slot < candidates.len() {
                        candidates[slot] = v;
                    } else {
                        candidates.push(v);
                    }
                    candidates.sort_unstable();
                    candidates.dedup();
                }
            }
        }

        for &seq in &candidates {
            self.stats.issued += 1;
            // TAC-style issue-order assertion (§1): the sources of an
            // issuing instruction must be ready. A violation means the
            // select logic mis-fired; squash from the offender and
            // restart (its re-execution issues correctly).
            if self.cfg.tac_check && !self.win.iq_entry(seq).ready(&self.rn.phys_ready) {
                self.stats.tac_violations += 1;
                self.stats.tac_recoveries += 1;
                let restart_pc = self.win.get(seq).pc;
                if let Some(unit) = &mut self.itr {
                    unit.on_full_flush();
                }
                self.full_flush_to(restart_pc);
                break;
            }
            let (u, pick) = (self.win.get(seq), self.win.iq_entry(seq));
            let sig = DecodeSignals::unpack(u.sig);
            let src = |p: u16| self.rn.phys_val[p as usize];
            let input = ExecInput {
                sig: &sig,
                pc: u.pc,
                // The predecode view (see `Uop::raw`).
                raw_jump_target: u.raw.direct_target(u.pc),
                src1: src(pick.srcs[0]),
                src2: src(pick.srcs[1]),
            };
            let out = if u.is_load() {
                let overlay = OverlayLoader { mem: &self.mem, win: &self.win, seq };
                execute(input, &overlay)
            } else {
                execute(input, &self.mem)
            };

            let mut latency = sig.lat_class().cycles();
            if let Some((addr, _)) = out.load {
                self.stats.dcache_accesses += 1;
                if !self.dcache.access(addr) {
                    self.stats.dcache_misses += 1;
                    latency += self.cfg.dcache_miss_penalty as u64;
                }
            }

            let u = self.win.mark_issued(seq, self.cycle + latency.max(1));
            u.result = out.value;
            u.next_pc = out.next_pc;
            u.taken = out.taken;
            u.store = out.store;
            u.trap = out.trap;
            if let Some(d) = u.dst {
                self.rn.phys_val[d.phys as usize] = out.value;
            }
        }
        self.issue_candidates = candidates;
    }
}
