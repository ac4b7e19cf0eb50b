//! Issue stage: oldest-first select among ready instructions, the TAC
//! issue-order assertion (§1), and execution proper.
//!
//! Select reads only the issue queue's [`IqEntry`]s (sources, phantom
//! flag, load/store class) and the physical registers' ready bits; only
//! the picks are looked up in the ROB. Selected instructions execute
//! immediately with a latency assigned from their signal-vector latency
//! class (plus D-cache misses); results land back in the ROB entry and
//! the physical register file, becoming visible at the done cycle the
//! in-flight list records (the complete stage's input).

use super::lsq::OverlayLoader;
use super::window::{IqEntry, MemClass};
use super::Pipeline;
use crate::injection::SchedulerFault;
use crate::semantics::{execute, ExecInput};

impl Pipeline {
    fn ready(&self, e: &IqEntry) -> bool {
        !e.phantom && e.srcs.iter().flatten().all(|&p| self.rn.phys_ready[p as usize])
    }

    pub(in crate::pipeline) fn issue(&mut self) {
        // Oldest-first select among ready instructions: the issue queue
        // is in age order, so the first `issue_width` ready entries are
        // the picks, taken as issue-queue positions (ascending). Loads
        // wait for every older store to issue; the barrier is taken
        // before select, so a store issuing this cycle frees younger
        // loads next cycle.
        let barrier = self.win.store_barrier();
        let mut candidates = std::mem::take(&mut self.issue_candidates);
        candidates.clear();
        candidates.extend(
            self.win
                .iq()
                .iter()
                .enumerate()
                .filter(|(_, e)| self.ready(e) && (e.seq < barrier || e.class != MemClass::Load))
                .map(|(at, _)| at)
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
                    .position(|e| !e.phantom && !self.ready(e) && e.class == MemClass::Other);
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

        let mut flushed = false;
        for &at in &candidates {
            let pick = self.win.iq()[at];
            let seq = pick.seq;
            let i = self.win.idx(seq);
            self.stats.issued += 1;
            // TAC-style issue-order assertion (§1): the sources of an
            // issuing instruction must be ready. A violation means the
            // select logic mis-fired; squash from the offender and
            // restart (its re-execution issues correctly).
            let u = &self.win[i];
            if self.cfg.tac_check && !self.ready(&pick) {
                self.stats.tac_violations += 1;
                self.stats.tac_recoveries += 1;
                let restart_pc = u.pc;
                if let Some(unit) = &mut self.itr {
                    unit.on_full_flush();
                }
                self.full_flush_to(restart_pc);
                flushed = true;
                break;
            }
            let src = |o: Option<u16>| o.map_or(0, |p| self.rn.phys_val[p as usize]);
            let sig = u.signals();
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

            let u = self.win.mark_issued(i, self.cycle + latency.max(1));
            u.result = out.value;
            u.next_pc = out.next_pc;
            u.taken = out.taken;
            u.store = out.store;
            u.trap = out.trap;
            if let Some(d) = u.dst {
                self.rn.phys_val[d.phys as usize] = out.value;
            }
        }
        if !flushed {
            self.win.drop_picks(&candidates);
        }
        self.issue_candidates = candidates;
    }
}
