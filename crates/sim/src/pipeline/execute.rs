//! Complete stage: writeback in age order and misprediction repair.
//!
//! Completions mark physical registers ready; a completing branch whose
//! computed target disagrees with its prediction squashes everything
//! younger (rolling back the rename map and the ITR trace-formation
//! state from the branch's snapshot, [`Window::itr_snap`]) and redirects
//! fetch.
//!
//! [`Window::itr_snap`]: super::window::Window::itr_snap

use super::Pipeline;

impl Pipeline {
    pub(in crate::pipeline) fn complete(&mut self) {
        // Completions in age order; a misprediction squashes everything
        // younger, including any later completions this cycle.
        let mut due = std::mem::take(&mut self.due);
        self.win.take_due(self.cycle, &mut due);
        for &seq in &due {
            if !self.win.contains(seq) {
                continue; // squashed by an older completion this cycle
            }
            let u = self.win.get_mut(seq);
            u.done = true;
            if let Some(d) = u.dst {
                self.rn.phys_ready[d.phys as usize] = true;
            }
            if u.taken.is_some() && u.next_pc != u.predicted_next {
                self.stats.mispredicts += 1;
                self.repair_mispredict(seq);
            }
        }
        self.due = due;
    }

    fn repair_mispredict(&mut self, branch_seq: u64) {
        // Squash younger than the branch, walking the ROB tail backwards
        // to undo renaming.
        let rn = &mut self.rn;
        self.win.squash_from(branch_seq + 1, |u| {
            if let Some(d) = u.dst {
                rn.undo(d);
            }
        });

        let (snap, used_gshare, taken, target) = {
            let u = self.win.get(branch_seq);
            (u.ghr_snapshot, u.used_gshare, u.taken == Some(true), u.next_pc)
        };
        self.fe.redirect(target);
        if used_gshare {
            self.fe.gshare.repair(snap, taken);
        }
        if let (Some(unit), Some(snap)) = (&mut self.itr, self.win.itr_snap(branch_seq)) {
            unit.restore(snap);
        }
        // Mark the prediction repaired so the uop does not re-trigger.
        self.win.get_mut(branch_seq).predicted_next = target;
    }
}
