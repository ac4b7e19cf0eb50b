//! Complete stage: writeback in age order and misprediction repair.
//!
//! Completions mark physical registers ready; a completing branch whose
//! computed target disagrees with its prediction squashes everything
//! younger (rolling back the rename map and the ITR trace-formation
//! state from the [`Uop::itr_snap`] snapshot) and redirects fetch.
//!
//! [`Uop::itr_snap`]: super::window::Uop

use super::Pipeline;

impl Pipeline {
    pub(in crate::pipeline) fn complete(&mut self) {
        // Completions in age order; a misprediction squashes everything
        // younger, including any later completions this cycle.
        let mut due = std::mem::take(&mut self.due);
        self.win.take_due(self.cycle, &mut due);
        for &seq in &due {
            let Some(i) = self.win.idx_checked(seq) else {
                continue; // squashed by an older completion this cycle
            };
            self.win[i].done = true;
            if let Some(d) = self.win[i].dst {
                self.rn.phys_ready[d.phys as usize] = true;
            }
            let u = &self.win[i];
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

        let i = self.win.idx(branch_seq);
        let (snap, used_gshare, taken, target, itr_snap) = {
            let u = &self.win[i];
            (u.ghr_snapshot, u.used_gshare, u.taken == Some(true), u.next_pc, u.itr_snap)
        };
        self.fe.redirect(target);
        if used_gshare {
            self.fe.gshare.repair(snap, taken);
        }
        if let (Some(unit), Some(snap)) = (&mut self.itr, itr_snap.as_ref()) {
            unit.restore(snap);
        }
        // Mark the prediction repaired so the uop does not re-trigger.
        self.win[i].predicted_next = target;
    }
}
