//! Cycle-level out-of-order superscalar pipeline with embedded ITR support
//! (Figure 5 of the paper).
//!
//! The microarchitecture follows the MIPS-R10K template the paper's
//! simulator models: a fetch unit with BTB + gshare + return-address
//! stack, decode producing the Table-2 signal vector, register renaming
//! through a map table and physical register file, an issue queue with
//! oldest-first select, a store queue with forwarding, a reorder buffer,
//! and in-order commit. The shaded ITR components of Figure 5 — signature
//! generation, ITR ROB, ITR cache, commit interlock, retry recovery — are
//! provided by [`itr_core::ItrUnit`] and wired in at dispatch and commit.
//!
//! Faults are injected by flipping one bit of one instruction's decode
//! signals ([`DecodeFault`]); every downstream stage consumes the signal
//! vector, so the fault propagates exactly as a decode-unit upset would.
//!
//! # Stage modules
//!
//! [`Pipeline`] itself is only the driver: per-stage logic lives in one
//! module per stage, communicating through explicit latch/queue structs:
//!
//! | module       | stage                     | state / latch                                  |
//! |--------------|---------------------------|------------------------------------------------|
//! | [`frontend`] | fetch/predecode           | `Frontend` (fetch→dispatch queue)              |
//! | [`rename`]   | decode/rename/dispatch    | `RenameState` (map + free list)                |
//! | [`issue`]    | select/execute            | picks from `Window::iq`, gated by the store barrier |
//! | [`execute`]  | writeback/repair          | drains the due in-flight entries               |
//! | [`lsq`]      | store ordering/forwarding | LSQ view over the ROB                          |
//! | [`commit`]   | retire + ITR interlock    | pops the ROB head                              |
//!
//! The shared out-of-order window (ROB + issue queue) is in [`window`],
//! together with the state the stages would otherwise rescan the ROB for
//! every cycle (LSQ occupancy, the issued-not-done list, the unissued
//! stores); every push and pop goes through its methods, and debug
//! builds re-check that state against a full scan once per cycle;
//! every counter, histogram and post-mortem stage event flows through
//! [`stats`] into the `itr-stats` layer (see [`Pipeline::stats_report`]).

mod commit;
mod execute;
mod frontend;
mod issue;
mod lsq;
mod rename;
mod stats;
mod window;

#[cfg(test)]
mod tests;

pub use stats::{PipelineStats, Stage, StageEvent};

use crate::arch::CommitRecord;
use crate::cache::TimingCache;
use crate::config::{DecodeFault, PipelineConfig, SignalFault};
use crate::mem::Memory;
use frontend::Frontend;
use itr_core::{CoarseCheckpointer, ItrEvent, ItrUnit, SequentialPcChecker, Watchdog};
use itr_isa::Program;
use itr_stats::Report;
use rename::RenameState;
use stats::SimMetrics;
use window::Window;

/// Why a pipeline run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// `trap HALT` committed.
    Halted,
    /// `trap ABORT` committed with the given code.
    Aborted(u32),
    /// The ITR unit raised a machine check (§2.2): a faulty trace already
    /// corrupted architectural state.
    MachineCheck {
        /// Start PC of the offending trace.
        start_pc: u64,
    },
    /// The watchdog detected a commit deadlock (§4's `wdog`).
    Deadlock,
    /// The cycle budget ran out.
    CycleLimit,
    /// The caller's commit callback requested a stop.
    Stopped,
}

/// A failed sequential-PC assertion at retirement (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpcViolation {
    /// Cycle of the violating commit.
    pub cycle: u64,
    /// PC of the instruction that failed the check.
    pub pc: u64,
}

/// A §2.3 coarse-grain checkpoint the run actually took: the commit
/// point it covers and how much program output had escaped by then.
/// Checkpoints land at trace-end commits with no unchecked ITR lines
/// resident, so `committed` is always a trace-formation boundary —
/// exactly the resume points [`crate::SimSnapshot`] supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Instructions committed when the checkpoint was taken (the
    /// checkpoint covers the commit-record prefix `[..committed]`).
    pub committed: u64,
    /// Bytes of program output already emitted — output beyond this
    /// point is lost on rollback (recovered-with-output-loss).
    pub output_len: usize,
}

/// The cycle-level pipeline: stage state plus the driver loop.
///
/// Fields are visible to the sibling stage modules (`pub(in
/// crate::pipeline)`) and nowhere else; external code goes through the
/// accessors.
///
/// A clone is an exact fork: both copies continue cycle for cycle as the
/// original would have, which is what lets fault campaigns branch faulty
/// runs off one fault-free prefix (see [`Pipeline::arm`]).
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(in crate::pipeline) cfg: PipelineConfig,
    pub(in crate::pipeline) mem: Memory,
    pub(in crate::pipeline) cycle: u64,

    /// Fetch stage (PC, I-cache, predictors, fetch→dispatch latch).
    pub(in crate::pipeline) fe: Frontend,
    /// Rename stage (map table, free list, physical register file).
    pub(in crate::pipeline) rn: RenameState,
    /// Out-of-order window (ROB + issue queue).
    pub(in crate::pipeline) win: Window,
    /// Scratch buffers reused every cycle: the issue stage's select
    /// candidates and the complete stage's due completions.
    pub(in crate::pipeline) issue_candidates: Vec<u64>,
    pub(in crate::pipeline) due: Vec<u64>,
    pub(in crate::pipeline) dcache: TimingCache,

    // Checks.
    pub(in crate::pipeline) itr: Option<ItrUnit>,
    pub(in crate::pipeline) checkpointer: CoarseCheckpointer,
    pub(in crate::pipeline) checkpoint_log: Vec<CheckpointRecord>,
    pub(in crate::pipeline) itr_events: Vec<(u64, ItrEvent)>,
    pub(in crate::pipeline) spc: SequentialPcChecker,
    pub(in crate::pipeline) spc_violations: Vec<SpcViolation>,
    pub(in crate::pipeline) wdog: Watchdog,

    /// §3 redundant-fetch fallback state: the trace being re-verified and
    /// the cycle its redundant copy completes.
    pub(in crate::pipeline) redundant_verify: Option<(u64, u64)>,
    pub(in crate::pipeline) verified_miss: Option<u64>,

    // Fault injection.
    pub(in crate::pipeline) faults: Vec<DecodeFault>,
    pub(in crate::pipeline) signal_faults: Vec<SignalFault>,
    /// Instructions decoded when the run's first ITR mismatch surfaced —
    /// the first decode index a planned burst fault strikes. Recorded
    /// whether or not a burst is planned, so a fault-free pipeline armed
    /// with a burst later ([`Pipeline::arm`]) arms it exactly where a
    /// fresh faulty run would have.
    pub(in crate::pipeline) first_mismatch_decode: Option<u64>,
    pub(in crate::pipeline) swap_done: bool,

    // Program interface.
    pub(in crate::pipeline) output: String,
    pub(in crate::pipeline) exit: Option<RunExit>,
    pub(in crate::pipeline) metrics: SimMetrics,
}

impl Pipeline {
    /// Loads `program` into a fresh pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no headroom of physical registers.
    pub fn new(program: &Program, cfg: PipelineConfig) -> Pipeline {
        assert!(cfg.phys_regs as usize > 65, "need more physical than architectural registers");
        if let Some(itr) = &cfg.itr {
            // The §2.2 commit interlock stalls every instruction of a
            // trace until its terminating instruction has dispatched and
            // checked. The machine's commit-bound windows must therefore
            // hold at least one full trace, or a fault-free program can
            // interlock-deadlock (e.g. an LSQ smaller than a trace's
            // memory instructions). The paper sizes these implicitly; we
            // enforce the rule.
            assert!(
                cfg.rob_entries >= itr.max_trace_len,
                "ROB must hold a full trace ({} < {})",
                cfg.rob_entries,
                itr.max_trace_len
            );
            assert!(
                cfg.lsq_entries >= itr.max_trace_len,
                "LSQ must hold a full trace of memory instructions ({} < {})",
                cfg.lsq_entries,
                itr.max_trace_len
            );
        }
        Pipeline {
            mem: Memory::with_program(program),
            cycle: 0,
            fe: Frontend::new(&cfg, program.entry()),
            rn: RenameState::new(cfg.phys_regs),
            win: Window::new(),
            issue_candidates: Vec::new(),
            due: Vec::new(),
            dcache: TimingCache::new(cfg.dcache),
            itr: cfg.itr.map(ItrUnit::new),
            checkpointer: CoarseCheckpointer::new(cfg.checkpoint_min_gap),
            checkpoint_log: Vec::new(),
            itr_events: Vec::new(),
            spc: SequentialPcChecker::new(),
            spc_violations: Vec::new(),
            wdog: Watchdog::new(cfg.watchdog_cycles),
            redundant_verify: None,
            verified_miss: None,
            faults: cfg.faults.clone(),
            signal_faults: cfg.signal_faults.clone(),
            first_mismatch_decode: None,
            swap_done: false,
            output: String::new(),
            exit: None,
            metrics: SimMetrics::new(cfg.stage_trace_depth),
            cfg,
        }
    }

    /// Runs until program exit or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_with(max_cycles, |_| true)
    }

    /// Runs, invoking `on_commit` for every committed instruction; the
    /// callback may return `false` to stop the run (exit
    /// [`RunExit::Stopped`]).
    pub fn run_with<F: FnMut(&CommitRecord) -> bool>(
        &mut self,
        max_cycles: u64,
        mut on_commit: F,
    ) -> RunExit {
        while self.exit.is_none() && self.cycle < max_cycles {
            self.do_cycle(&mut on_commit);
        }
        // CycleLimit is not latched: callers may resume with a larger
        // budget (fault campaigns run in windows).
        self.exit.unwrap_or(RunExit::CycleLimit)
    }

    /// The run's terminal state, if it has reached one.
    pub fn exit(&self) -> Option<RunExit> {
        self.exit
    }

    /// Program text written via `trap PUT_INT`/`PUT_CHAR`.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Pipeline statistics (a point-in-time snapshot).
    pub fn stats(&self) -> PipelineStats {
        self.metrics.snapshot()
    }

    /// The embedded ITR unit, when configured.
    pub fn itr(&self) -> Option<&ItrUnit> {
        self.itr.as_ref()
    }

    /// Mutable access to the ITR unit (for §2.4 cache-fault experiments).
    pub fn itr_mut(&mut self) -> Option<&mut ItrUnit> {
        self.itr.as_mut()
    }

    /// ITR events paired with the cycle they surfaced in.
    pub fn itr_events(&self) -> &[(u64, ItrEvent)] {
        &self.itr_events
    }

    /// Takes the ITR event log recorded so far, leaving it empty; later
    /// events append to the empty log.
    pub fn take_itr_events(&mut self) -> Vec<(u64, ItrEvent)> {
        std::mem::take(&mut self.itr_events)
    }

    /// Arms planned faults on a pipeline that has not reached them yet —
    /// typically a clone of a fault-free run. `inject` edits the
    /// pipeline's configuration the way it would edit a fresh
    /// [`PipelineConfig`]; from here on the run is exactly the run
    /// [`Pipeline::new`] would have produced with the edited
    /// configuration, because before its first strike a faulty run is
    /// bit-identical to the fault-free one. Only the fault-injection
    /// fields may change.
    ///
    /// # Panics
    ///
    /// Panics if an armed fault would already have struck: its decode
    /// (or rename/issue) index has been passed, or a burst fault's
    /// arming mismatch has already surfaced and been passed.
    pub fn arm(&mut self, inject: impl FnOnce(&mut PipelineConfig)) {
        inject(&mut self.cfg);
        let cfg = &self.cfg;
        let decoded = self.metrics.get(self.metrics.decoded);
        let first_strike = cfg
            .faults
            .iter()
            .map(|f| f.nth_decode)
            .chain(cfg.signal_faults.iter().map(|f| f.from_decode))
            .chain(cfg.swap_fault)
            .chain(cfg.rename_fault.map(|f| f.nth_rename))
            .chain(cfg.burst_fault.and(self.first_mismatch_decode))
            .min();
        if let Some(strike) = first_strike {
            assert!(
                decoded <= strike,
                "cannot arm a fault striking decode {strike}: {decoded} already decoded"
            );
        }
        if let Some(f) = cfg.scheduler_fault {
            let issued = self.metrics.get(self.metrics.issued);
            assert!(
                issued <= f.nth_issue,
                "cannot arm a scheduler fault at issue {}: {issued} already issued",
                f.nth_issue
            );
        }
        self.faults = cfg.faults.clone();
        self.signal_faults = cfg.signal_faults.clone();
    }

    /// Sequential-PC check violations observed at retirement.
    pub fn spc_violations(&self) -> &[SpcViolation] {
        &self.spc_violations
    }

    /// The §2.3 coarse-grain checkpointing tracker (opportunities arise
    /// whenever the ITR cache holds no unchecked lines).
    pub fn checkpointer(&self) -> &CoarseCheckpointer {
        &self.checkpointer
    }

    /// Every checkpoint the run took, in commit order (empty without an
    /// ITR unit — checkpoint safety is defined by the ITR cache).
    pub fn checkpoint_log(&self) -> &[CheckpointRecord] {
        &self.checkpoint_log
    }

    /// Memory contents (e.g. to inspect results after a run).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The post-mortem stage-event trace, oldest first (empty unless
    /// [`PipelineConfig::stage_trace_depth`] is non-zero).
    pub fn stage_trace(&self) -> impl Iterator<Item = &StageEvent> {
        self.metrics.events.iter()
    }

    /// Builds the full `itr-stats/v1` report: the `pipeline` section plus,
    /// when ITR is configured, the `itr` and `itr_cache` sections.
    pub fn stats_report(&self) -> Report {
        let mut report = Report::new();
        self.metrics.export(&mut report);
        if let Some(unit) = &self.itr {
            unit.export(&mut report);
        }
        report
    }

    /// The report as `itr-stats/v1` JSON.
    pub fn stats_json(&self) -> String {
        self.stats_report().to_json()
    }

    /// One machine cycle. Stages run commit-first so a cycle's products
    /// become visible to downstream stages no earlier than the next cycle
    /// (matching the latched hardware the paper models).
    fn do_cycle<F: FnMut(&CommitRecord) -> bool>(&mut self, on_commit: &mut F) {
        if let Some(unit) = &mut self.itr {
            unit.advance(self.cycle);
        }
        let committed_before = self.metrics.get(self.metrics.committed);
        self.commit(on_commit);
        self.metrics
            .commit_width
            .record(self.metrics.get(self.metrics.committed) - committed_before);
        if self.exit.is_none() {
            self.complete();
            self.issue();
            self.dispatch();
            let cycle = self.cycle;
            self.fe.fetch(&self.mem, &self.cfg, &mut self.metrics, cycle);
        }
        if let Some(unit) = &mut self.itr {
            let cycle = self.cycle;
            let drained = unit.drain_events();
            // A planned burst fault arms on the run's first signature
            // mismatch: the next `len` decodes (in active mode, the
            // refetched trace) are struck.
            if self.first_mismatch_decode.is_none()
                && drained.iter().any(|e| matches!(e, ItrEvent::Mismatch { .. }))
            {
                self.first_mismatch_decode = Some(self.metrics.get(self.metrics.decoded));
            }
            self.itr_events.extend(drained.into_iter().map(|e| (cycle, e)));
        }
        if self.exit.is_none() && self.wdog.expired(self.cycle) {
            self.exit = Some(RunExit::Deadlock);
        }
        self.cycle += 1;
        self.metrics.set(self.metrics.cycles, self.cycle);
        self.metrics.rob_occupancy.record(self.win.len() as u64);
        self.metrics.iq_occupancy.record(self.win.iq().len() as u64);
        self.metrics.fetch_queue_occupancy.record(self.fe.queue.len() as u64);
        #[cfg(debug_assertions)]
        self.win.debug_check();
    }
}
