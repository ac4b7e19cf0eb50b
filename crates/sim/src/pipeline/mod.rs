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
//! Decode-signal faults ([`Pipeline::arm`]) perturb instructions' decode
//! signals; every downstream stage consumes the signal vector, so the
//! fault propagates exactly as a decode-unit upset would.
//!
//! # Stage modules
//!
//! [`Pipeline`] itself is only the driver: per-stage logic lives in one
//! module per stage, communicating through explicit latch/queue structs:
//!
//! | module       | stage                     | state / latch                                  |
//! |--------------|---------------------------|------------------------------------------------|
//! | [`frontend`] | fetch/predecode           | `Frontend` (fetch→dispatch queue)              |
//! | [`predecode`]| text decode table         | `DecodeTable` (one slot per text word, shared by forks) |
//! | [`rename`]   | decode/rename/dispatch    | `RenameState` (map + free list)                |
//! | [`issue`]    | select/execute            | picks from `Window::iq`, gated by the store barrier |
//! | [`execute`]  | writeback/repair          | drains the due in-flight entries               |
//! | [`lsq`]      | store ordering/forwarding | LSQ view over the window's stores              |
//! | [`commit`]   | retire + ITR interlock    | retires the ROB head                           |
//!
//! The shared out-of-order window (ROB + issue queue) is in [`window`],
//! together with the state the stages would otherwise rescan the ROB for
//! every cycle (the issue-queue entries select reads, LSQ occupancy, the
//! issued-not-done list, the stores, the unissued stores, the ITR
//! rollback snapshots); every push and pop goes through its methods, and debug
//! builds re-check that state against a full scan once per cycle;
//! every counter is a [`PipelineStats`] field, which [`stats`] exports
//! with the histograms to the `itr-stats` layer (see
//! [`Pipeline::stats_report`]). Post-mortem inspection reads the
//! cycle-tagged ITR events ([`Pipeline::itr_events`]) and sequential-PC
//! violations ([`Pipeline::spc_violations`]) next to the counters.

mod commit;
mod execute;
mod frontend;
mod issue;
mod lsq;
mod predecode;
mod rename;
mod stats;
mod window;

#[cfg(test)]
mod tests;

pub use stats::PipelineStats;

use crate::arch::CommitRecord;
use crate::cache::TimingCache;
use crate::config::PipelineConfig;
use crate::injection::Injection;
use crate::mem::Memory;
use frontend::Frontend;
use itr_core::{CoarseCheckpointer, ItrEvent, ItrUnit, SequentialPcChecker, Watchdog};
use itr_isa::Program;
use itr_stats::{Histogram, Report};
use rename::RenameState;
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
    /// candidates (issue-queue positions) and the complete stage's due
    /// completions.
    pub(in crate::pipeline) issue_candidates: Vec<usize>,
    pub(in crate::pipeline) due: Vec<u64>,
    pub(in crate::pipeline) dcache: TimingCache,

    // Checks.
    pub(in crate::pipeline) itr: Option<ItrUnit>,
    pub(in crate::pipeline) checkpointer: CoarseCheckpointer,
    pub(in crate::pipeline) last_checkpoint: Option<CheckpointRecord>,
    pub(in crate::pipeline) itr_events: Vec<(u64, ItrEvent)>,
    pub(in crate::pipeline) spc: SequentialPcChecker,
    pub(in crate::pipeline) spc_violations: Vec<SpcViolation>,
    pub(in crate::pipeline) wdog: Watchdog,

    /// §3 redundant-fetch fallback state: the trace being re-verified and
    /// the cycle its redundant copy completes.
    pub(in crate::pipeline) redundant_verify: Option<(u64, u64)>,
    pub(in crate::pipeline) verified_miss: Option<u64>,

    /// The run's fault plan ([`Pipeline::arm`]).
    pub(in crate::pipeline) injection: Injection,
    /// Instructions decoded when the run's first ITR mismatch surfaced —
    /// the first decode index a planned burst fault strikes. Recorded
    /// whether or not a burst is planned, so a fault-free pipeline armed
    /// with a burst later ([`Pipeline::arm`]) arms it exactly where a
    /// fresh faulty run would have.
    pub(in crate::pipeline) first_mismatch_decode: Option<u64>,

    // Program interface.
    pub(in crate::pipeline) output: String,
    pub(in crate::pipeline) exit: Option<RunExit>,

    // Telemetry.
    /// Counters the stages bump; `cycles` stays 0 here, [`Pipeline::stats`]
    /// reads it from `cycle`.
    pub(in crate::pipeline) stats: PipelineStats,
    /// Instructions committed per cycle (0 on stalled cycles).
    pub(in crate::pipeline) commit_width: Histogram,
    /// ROB, issue-queue and fetch-queue occupancy, sampled every cycle.
    pub(in crate::pipeline) rob_occupancy: Histogram,
    pub(in crate::pipeline) iq_occupancy: Histogram,
    pub(in crate::pipeline) fetch_queue_occupancy: Histogram,
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
            fe: Frontend::new(&cfg, program),
            rn: RenameState::new(cfg.phys_regs),
            win: Window::new(),
            issue_candidates: Vec::new(),
            due: Vec::new(),
            dcache: TimingCache::new(cfg.dcache),
            itr: cfg.itr.map(|itr| {
                let mut unit = ItrUnit::new(itr);
                // Bounded-wait checkpoints count young lines at every
                // trace-end commit: keep the cache's insert log for them.
                if let Some(age) = cfg.checkpoint_line_age {
                    unit.cache_mut().track_young_lines(age);
                }
                unit
            }),
            checkpointer: CoarseCheckpointer::new(cfg.checkpoint_min_gap),
            last_checkpoint: None,
            itr_events: Vec::new(),
            spc: SequentialPcChecker::new(),
            spc_violations: Vec::new(),
            wdog: Watchdog::new(cfg.watchdog_cycles),
            redundant_verify: None,
            verified_miss: None,
            injection: Injection::default(),
            first_mismatch_decode: None,
            output: String::new(),
            exit: None,
            stats: PipelineStats::default(),
            commit_width: Histogram::new("commit_width"),
            rob_occupancy: Histogram::new("rob_occupancy"),
            iq_occupancy: Histogram::new("iq_occupancy"),
            fetch_queue_occupancy: Histogram::new("fetch_queue_occupancy"),
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
        PipelineStats { cycles: self.cycle, ..self.stats }
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

    /// Arms `injection` as the run's fault plan, replacing any earlier
    /// one: the one way to inject, on a fresh pipeline or on one that has
    /// not reached the plan's strikes yet (typically a fork of a
    /// fault-free run, which is bit-identical to the faulty run until its
    /// first strike, so the run goes on exactly as a fresh armed one).
    ///
    /// # Panics
    ///
    /// Panics if a planned fault would already have struck: its decode
    /// (or rename/issue) index has been passed, or a burst fault's
    /// arming mismatch has already surfaced and been passed.
    pub fn arm(&mut self, injection: Injection) {
        injection.assert_ahead(self.stats.decoded, self.stats.issued, self.first_mismatch_decode);
        self.injection = injection;
    }

    /// `true` while an armed fault can still strike: a decode, rename,
    /// issue or swap index it strikes lies ahead, or a burst fault has
    /// not yet struck all its decodes after the run's first mismatch.
    pub fn strikes_pending(&self) -> bool {
        let s = &self.stats;
        self.injection.strikes_pending(s.decoded, s.issued, self.first_mismatch_decode)
    }

    /// `true` when `other` will run exactly as `self` does from here on:
    /// every later cycle, commit, ITR event, check decision and output is
    /// the same.
    ///
    /// Compares everything that can steer a later cycle: the cycle, the
    /// configuration, memory, every stage's state (fetch PC and queue,
    /// predictors, I- and D-cache tags and LRU stamps, rename map, free
    /// list and physical registers, the whole ROB and issue queue), the
    /// ITR unit's cache, ROB, trace builder and clock, the checkpointer's
    /// last checkpoint, the sequential-PC expectation, the watchdog, the
    /// redundant-fetch state, the output, the exit, and the commit count
    /// (checkpoint spacing reads it). Left out are the other pipeline
    /// counters and histograms, the ITR, cache and checkpointer counters,
    /// the event logs ([`Pipeline::itr_events`],
    /// [`Pipeline::spc_violations`]), the scratch buffers, and the spent
    /// [`Injection`]: a pipeline with a strike still pending
    /// ([`Pipeline::strikes_pending`]) equals nothing.
    pub fn same_state(&self, other: &Pipeline) -> bool {
        !self.strikes_pending()
            && !other.strikes_pending()
            && self.cycle == other.cycle
            && self.stats.committed == other.stats.committed
            && self.exit == other.exit
            && self.wdog == other.wdog
            && self.redundant_verify == other.redundant_verify
            && self.verified_miss == other.verified_miss
            && self.last_checkpoint == other.last_checkpoint
            && self.checkpointer.same_state(&other.checkpointer)
            && self.spc.same_state(&other.spc)
            && self.output == other.output
            && self.fe.same_state(&other.fe)
            && self.rn == other.rn
            && self.win == other.win
            && self.dcache.same_state(&other.dcache)
            && match (&self.itr, &other.itr) {
                (Some(a), Some(b)) => a.same_state(b),
                (a, b) => a.is_none() && b.is_none(),
            }
            && self.cfg == other.cfg
            && self.mem == other.mem
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

    /// The most recent checkpoint the run took — the §2.3 rollback
    /// target (`None` without an ITR unit: checkpoint safety is defined
    /// by the ITR cache).
    pub fn last_checkpoint(&self) -> Option<CheckpointRecord> {
        self.last_checkpoint
    }

    /// Memory contents (e.g. to inspect results after a run).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Builds the full `itr-stats/v1` report: the `pipeline` section plus,
    /// when ITR is configured, the `itr` and `itr_cache` sections.
    pub fn stats_report(&self) -> Report {
        let mut report = Report::new();
        self.stats().export(
            &mut report,
            &[
                self.commit_width.snapshot(),
                self.rob_occupancy.snapshot(),
                self.iq_occupancy.snapshot(),
                self.fetch_queue_occupancy.snapshot(),
            ],
        );
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
        let committed_before = self.stats.committed;
        self.commit(on_commit);
        self.commit_width.record(self.stats.committed - committed_before);
        if self.exit.is_none() {
            self.complete();
            self.issue();
            self.dispatch();
            self.fe.fetch(&self.mem, &self.cfg, &mut self.stats);
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
                self.first_mismatch_decode = Some(self.stats.decoded);
            }
            self.itr_events.extend(drained.into_iter().map(|e| (cycle, e)));
        }
        if self.exit.is_none() && self.wdog.expired(self.cycle) {
            self.exit = Some(RunExit::Deadlock);
        }
        self.cycle += 1;
        self.rob_occupancy.record(self.win.len() as u64);
        self.iq_occupancy.record(self.win.iq().len() as u64);
        self.fetch_queue_occupancy.record(self.fe.queue.len() as u64);
        #[cfg(debug_assertions)]
        self.win.debug_check(self.itr.is_some());
    }
}
