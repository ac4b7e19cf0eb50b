//! Issue stage: oldest-first select among ready instructions, the TAC
//! issue-order assertion (§1), and execution proper.
//!
//! Selected instructions execute immediately with a latency assigned
//! from their signal-vector latency class (plus D-cache misses); results
//! land back in the ROB entry and the physical register file, becoming
//! visible at the entry's `done_cycle` (the complete stage's input).

use super::lsq::OverlayLoader;
use super::window::Uop;
use super::Pipeline;
use crate::injection::SchedulerFault;
use crate::semantics::{execute, ExecInput};

impl Pipeline {
    fn srcs_ready(&self, u: &Uop) -> bool {
        !u.phantom && u.srcs.iter().flatten().all(|&p| self.rn.phys_ready[p as usize])
    }

    pub(in crate::pipeline) fn issue(&mut self) {
        // Oldest-first select among ready instructions: the issue queue
        // is in age order, so the first `issue_width` ready entries are
        // the picks. Loads wait for every older store to issue; the
        // barrier is taken before select, so a store issuing this cycle
        // frees younger loads next cycle.
        let barrier = self.win.store_barrier();
        let mut candidates = std::mem::take(&mut self.issue_candidates);
        candidates.clear();
        candidates.extend(
            self.win
                .iq()
                .iter()
                .copied()
                .filter(|&seq| {
                    let u = &self.win[self.win.idx(seq)];
                    self.srcs_ready(u) && (seq < barrier || !u.is_load())
                })
                .take(self.cfg.issue_width as usize),
        );

        // Scheduler fault: at the chosen issue index the select logic
        // wrongly grabs the oldest not-ready instruction instead.
        if let Some(SchedulerFault { nth_issue }) = self.injection.scheduler {
            let issued_so_far = self.stats.issued;
            let in_window = issued_so_far <= nth_issue
                && nth_issue < issued_so_far + candidates.len().max(1) as u64;
            if in_window {
                let victim = self
                    .win
                    .iq()
                    .iter()
                    .copied()
                    .filter(|&seq| {
                        let u = &self.win[self.win.idx(seq)];
                        !u.phantom && !self.srcs_ready(u) && !u.is_load() && !u.is_store()
                    })
                    .min();
                if let Some(v) = victim {
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
            let Some(i) = self.win.idx_checked(seq) else { continue };
            self.stats.issued += 1;
            // TAC-style issue-order assertion (§1): the sources of an
            // issuing instruction must be ready. A violation means the
            // select logic mis-fired; squash from the offender and
            // restart (its re-execution issues correctly).
            if self.cfg.tac_check && !self.srcs_ready(&self.win[i]) {
                self.stats.tac_violations += 1;
                self.stats.tac_recoveries += 1;
                let restart_pc = self.win[i].pc;
                if let Some(unit) = &mut self.itr {
                    unit.on_full_flush();
                }
                self.full_flush_to(restart_pc);
                break;
            }
            let u = &self.win[i];
            let src = |o: Option<u16>| o.map_or(0, |p| self.rn.phys_val[p as usize]);
            let input = ExecInput {
                sig: &u.sig,
                pc: u.pc,
                // The predecode view (see `Uop::inst`).
                raw_jump_target: u.inst.direct_target(u.pc),
                src1: src(u.srcs[0]),
                src2: src(u.srcs[1]),
            };
            let out = if u.is_load() {
                let overlay = OverlayLoader { mem: &self.mem, older: self.win.older(i) };
                execute(input, &overlay)
            } else {
                execute(input, &self.mem)
            };

            let mut latency = u.sig.lat_class().cycles();
            if let Some((addr, _)) = out.load {
                self.stats.dcache_accesses += 1;
                if !self.dcache.access(addr) {
                    self.stats.dcache_misses += 1;
                    latency += self.cfg.dcache_miss_penalty as u64;
                }
            }

            let cycle = self.cycle;
            self.win.mark_issued(i);
            let u = &mut self.win[i];
            u.done_cycle = cycle + latency.max(1);
            u.result = out.value;
            u.next_pc = out.next_pc;
            u.taken = out.taken;
            u.store = out.store;
            u.trap = out.trap;
            if let Some(d) = u.dst {
                self.rn.phys_val[d.phys as usize] = out.value;
            }
        }
        self.win.drop_issued();
        self.issue_candidates = candidates;
    }
}
