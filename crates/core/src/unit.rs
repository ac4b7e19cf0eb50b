//! The ITR unit: the controller a pipeline embeds to exploit inherent time
//! redundancy (§2.2 of the paper).
//!
//! Interaction contract with the host pipeline:
//!
//! 1. **Dispatch (in order).** For every dispatched instruction call
//!    [`ItrUnit::on_dispatch`] with its PC and (possibly faulty) decode
//!    signals. The returned [`DispatchResult`] carries the trace sequence
//!    number the instruction belongs to and whether it terminated a trace.
//!    Tag the in-flight instruction with both.
//! 2. **Branch misprediction.** Capture [`ItrUnit::snapshot`] when a
//!    branch dispatches and [`ItrUnit::restore`] it when the branch
//!    resolves mispredicted (the paper stores the ITR ROB position in the
//!    branch checkpoint).
//! 3. **Commit (in order).** Before committing an instruction, call
//!    [`ItrUnit::commit_action`] with its trace sequence number and obey
//!    the returned [`CommitAction`]. After committing a trace-terminating
//!    instruction, call [`ItrUnit::on_trace_end_commit`].
//! 4. **Retry.** On [`CommitAction::Retry`], squash the whole pipeline,
//!    call [`ItrUnit::on_retry_flush`], and refetch from the returned
//!    start PC.

use crate::config::{ItrConfig, ItrMode};
use crate::itr_cache::{ItrCache, ProbeResult};
use crate::itr_rob::{ControlState, ItrRob, ItrRobEntry, ItrRobIndex};
use crate::signature::{TraceBuilder, TraceRecord};
use itr_isa::DecodeSignals;
use itr_stats::{Report, Unit as StatUnit};

/// Outcome of dispatching one instruction through the ITR unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchResult {
    /// Sequence number of the trace this instruction belongs to.
    pub trace_seq: ItrRobIndex,
    /// `true` if this instruction terminated its trace (an ITR ROB entry
    /// now exists for `trace_seq`).
    pub trace_end: bool,
}

/// What the commit stage must do for an instruction (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitAction {
    /// Commit normally.
    Proceed,
    /// Neither `chk` nor `miss` is set yet — stall commit.
    Stall,
    /// Signature mismatch: flush the pipeline and restart fetch at the
    /// trace's start PC.
    Retry {
        /// PC to refetch from.
        start_pc: u64,
    },
    /// Second mismatch after a retry: the *previous* instance executed
    /// with a fault and has already corrupted architectural state — raise
    /// a machine check and abort the program.
    MachineCheck {
        /// Start PC of the offending trace.
        start_pc: u64,
    },
}

/// Notable events, drained by the host with [`ItrUnit::drain_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItrEvent {
    /// A dispatched trace's signature disagreed with the ITR cache.
    Mismatch {
        /// Trace identity.
        start_pc: u64,
        /// Trace sequence number.
        trace_seq: ItrRobIndex,
        /// Signature stored in the ITR cache.
        cached_signature: u64,
        /// Signature of the dispatched instance.
        new_signature: u64,
    },
    /// A retry flush was initiated.
    RetryInitiated {
        /// Trace being retried.
        start_pc: u64,
    },
    /// The retried trace matched: the faulty instance never committed.
    RecoverySuccess {
        /// Recovered trace.
        start_pc: u64,
    },
    /// A second mismatch with good parity: program must abort.
    MachineCheck {
        /// Offending trace.
        start_pc: u64,
    },
    /// A second mismatch with bad parity: the ITR cache itself was faulty;
    /// the line was overwritten with the new signature (§2.4).
    CacheFaultRepaired {
        /// Repaired line.
        start_pc: u64,
    },
    /// A missed trace committed and its signature was written.
    MissCommitted {
        /// Trace identity.
        start_pc: u64,
        /// Instructions whose fault *recovery* coverage is lost (§2.3).
        len: u32,
    },
    /// An unreferenced line was evicted: fault *detection* coverage lost
    /// for the instructions of the inserting instance (§2.3).
    EvictionUnreferenced {
        /// Evicted trace identity.
        start_pc: u64,
        /// Instructions of the inserting instance.
        len: u32,
    },
}

/// Snapshot of dispatch-side ITR state, captured at branch dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItrSnapshot {
    builder: TraceBuilder,
    rob_next_seq: ItrRobIndex,
}

/// Aggregate counters (exported by [`ItrUnit::export`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Traces pushed into the ITR ROB at dispatch (includes wrong-path).
    pub traces_dispatched: u64,
    /// Trace-terminating instructions committed.
    pub traces_committed: u64,
    /// Instructions committed in checked or missed traces.
    pub instrs_committed: u64,
    /// Committed instructions in traces that missed — loss of *recovery*
    /// coverage (§2.3).
    pub recovery_loss_instrs: u64,
    /// Instructions of inserting instances whose lines were evicted
    /// unreferenced — loss of *detection* coverage (§2.3).
    pub detection_loss_instrs: u64,
    /// Signature mismatches observed.
    pub mismatches: u64,
    /// Traces confirmed against an older in-flight instance in the ITR
    /// ROB (forwarding; see [`ItrConfig::rob_forwarding`]).
    pub rob_forward_hits: u64,
    /// Retry flushes initiated.
    pub retries: u64,
    /// Successful recoveries (retry matched).
    pub recoveries: u64,
    /// Machine checks raised.
    pub machine_checks: u64,
    /// ITR cache lines repaired via parity (§2.4).
    pub parity_repairs: u64,
}

impl std::fmt::Display for UnitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} traces ({} instrs) committed; {} mismatches, {} retries, \
             {} recoveries, {} machine checks; loss: {} rec / {} det instrs",
            self.traces_committed,
            self.instrs_committed,
            self.mismatches,
            self.retries,
            self.recoveries,
            self.machine_checks,
            self.recovery_loss_instrs,
            self.detection_loss_instrs
        )
    }
}

/// The ITR unit: trace formation, ITR ROB, ITR cache and the
/// detection/recovery state machine.
#[derive(Debug, Clone)]
pub struct ItrUnit {
    config: ItrConfig,
    cache: ItrCache,
    rob: ItrRob,
    builder: TraceBuilder,
    /// `Some(start_pc)` while a retry of that trace is in flight.
    retry_armed: Option<u64>,
    /// Checks whose ITR cache read is still in flight
    /// ([`ItrConfig::cache_read_latency`] > 0).
    pending: std::collections::VecDeque<PendingCheck>,
    /// Cycle last passed to [`ItrUnit::advance`].
    now: u64,
    events: Vec<ItrEvent>,
    stats: UnitStats,
}

/// A dispatched trace whose ITR cache read has not completed yet.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingCheck {
    trace_seq: ItrRobIndex,
    record: TraceRecord,
    ready_cycle: u64,
}

impl ItrUnit {
    /// Creates a unit with the given configuration.
    pub fn new(config: ItrConfig) -> ItrUnit {
        ItrUnit {
            config,
            cache: ItrCache::new(config.cache),
            rob: ItrRob::new(config.rob_entries),
            builder: TraceBuilder::with_kind(config.max_trace_len, config.fold),
            retry_armed: None,
            pending: std::collections::VecDeque::new(),
            now: 0,
            events: Vec::new(),
            stats: UnitStats::default(),
        }
    }

    /// Advances the unit's clock and completes any ITR cache reads whose
    /// latency has elapsed. Hosts modelling a non-zero
    /// [`ItrConfig::cache_read_latency`] must call this every cycle;
    /// with zero latency it is a no-op.
    pub fn advance(&mut self, cycle: u64) {
        self.now = cycle;
        while let Some(p) = self.pending.front() {
            if p.ready_cycle > cycle {
                break;
            }
            let p = self.pending.pop_front().expect("checked non-empty");
            // Identity guard: the entry may have been squashed (and its
            // sequence number reused) since the read was launched.
            let valid = self.rob.get(p.trace_seq).is_some_and(|e| {
                e.state == ControlState::NoneSet
                    && e.start_pc == p.record.start_pc
                    && e.signature == p.record.signature
            });
            if valid {
                let state = self.resolve_check(p.trace_seq, &p.record);
                self.rob.get_mut(p.trace_seq).expect("checked").state = state;
            }
        }
    }

    /// `true` when `other` is in the same state as `self`: everything
    /// that steers a later cycle (configuration, cache contents, ITR
    /// ROB, trace builder, retry and pending-read state, clock), and not
    /// the counters or the undrained event list.
    pub fn same_state(&self, other: &ItrUnit) -> bool {
        self.config == other.config
            && self.now == other.now
            && self.retry_armed == other.retry_armed
            && self.builder == other.builder
            && self.rob == other.rob
            && self.pending == other.pending
            && self.cache.same_state(&other.cache)
    }

    /// The unit's configuration.
    pub fn config(&self) -> &ItrConfig {
        &self.config
    }

    /// The underlying ITR cache (for statistics and §2.4 fault studies).
    pub fn cache(&self) -> &ItrCache {
        &self.cache
    }

    /// Mutable access to the ITR cache (fault-injection experiments flip
    /// stored signature bits through this).
    pub fn cache_mut(&mut self) -> &mut ItrCache {
        &mut self.cache
    }

    /// Aggregate counters, as a point-in-time snapshot.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// Appends the `itr` and `itr_cache` sections to an `itr-stats`
    /// report.
    pub fn export(&self, report: &mut Report) {
        let s = &self.stats;
        report.push_section(
            "itr",
            &[
                ("traces_dispatched", StatUnit::Traces, s.traces_dispatched),
                ("traces_committed", StatUnit::Traces, s.traces_committed),
                ("instrs_committed", StatUnit::Instructions, s.instrs_committed),
                ("recovery_loss_instrs", StatUnit::Instructions, s.recovery_loss_instrs),
                ("detection_loss_instrs", StatUnit::Instructions, s.detection_loss_instrs),
                ("mismatches", StatUnit::Events, s.mismatches),
                ("rob_forward_hits", StatUnit::Events, s.rob_forward_hits),
                ("retries", StatUnit::Events, s.retries),
                ("recoveries", StatUnit::Events, s.recoveries),
                ("machine_checks", StatUnit::Events, s.machine_checks),
                ("parity_repairs", StatUnit::Events, s.parity_repairs),
            ],
            &[],
        );
        self.cache.export(report);
    }

    /// `true` when a new trace cannot be accepted and dispatch must stall.
    pub fn rob_full(&self) -> bool {
        self.rob.is_full()
    }

    /// Removes and returns all pending events.
    pub fn drain_events(&mut self) -> Vec<ItrEvent> {
        std::mem::take(&mut self.events)
    }

    /// Feeds one dispatched instruction. Must be called in dispatch order.
    ///
    /// When the instruction terminates a trace, the signature is compared
    /// with (or recorded for) the ITR cache — the paper performs this read
    /// at dispatch so it completes before the trace can commit.
    pub fn on_dispatch(&mut self, pc: u64, signals: &DecodeSignals) -> DispatchResult {
        self.on_dispatch_packed(pc, signals.pack(), 0)
    }

    /// Like [`on_dispatch`](Self::on_dispatch), for signals already
    /// packed ([`DecodeSignals::pack`]), additionally folding an
    /// input-independent observation `extra` into the signature — the
    /// hook for extending ITR protection beyond the frontend (§1 sketches
    /// rename map-table indexes and issue order as candidates).
    pub fn on_dispatch_packed(&mut self, pc: u64, signals: u64, extra: u64) -> DispatchResult {
        let trace_seq = self.rob.next_seq();
        let Some(record) = self.builder.push_packed(pc, signals, extra) else {
            return DispatchResult { trace_seq, trace_end: false };
        };
        self.stats.traces_dispatched += 1;
        let latency = self.config.cache_read_latency;
        let state = if latency > 0 {
            // The read is launched now and completes `latency` cycles
            // later; until then the entry shows neither chk nor miss and
            // commit stalls on it (the §2.2 interlock).
            self.pending.push_back(PendingCheck {
                trace_seq,
                record,
                ready_cycle: self.now + latency as u64,
            });
            ControlState::NoneSet
        } else {
            self.resolve_check(trace_seq, &record)
        };
        let entry = ItrRobEntry {
            start_pc: record.start_pc,
            signature: record.signature,
            len: record.len,
            state,
        };
        self.rob.push(entry).expect("host must stall dispatch while rob_full()");
        DispatchResult { trace_seq, trace_end: true }
    }

    /// Probes the ITR cache (and, on a miss, older in-flight instances)
    /// and runs the §2.2/§2.4 decision logic for one completed trace.
    fn resolve_check(&mut self, trace_seq: ItrRobIndex, record: &TraceRecord) -> ControlState {
        match self.cache.probe(record.start_pc) {
            ProbeResult::Hit { signature, parity_ok } => {
                if signature == record.signature {
                    if self.retry_armed == Some(record.start_pc) {
                        // Retried trace now matches: the first instance was
                        // the faulty one and it never committed.
                        self.retry_armed = None;
                        self.stats.recoveries += 1;
                        self.events.push(ItrEvent::RecoverySuccess { start_pc: record.start_pc });
                    }
                    ControlState::ChkOnly
                } else {
                    self.stats.mismatches += 1;
                    self.events.push(ItrEvent::Mismatch {
                        start_pc: record.start_pc,
                        trace_seq,
                        cached_signature: signature,
                        new_signature: record.signature,
                    });
                    if self.retry_armed == Some(record.start_pc)
                        && self.config.cache.parity
                        && !parity_ok
                    {
                        // Second mismatch, but parity convicts the ITR
                        // cache itself: repair the line and proceed (§2.4).
                        self.cache.insert(record.start_pc, record.signature, record.len);
                        self.retry_armed = None;
                        self.stats.parity_repairs += 1;
                        self.events
                            .push(ItrEvent::CacheFaultRepaired { start_pc: record.start_pc });
                        ControlState::ChkOnly
                    } else if self.config.mode == ItrMode::Passive {
                        // Observe-only: record the detection, commit anyway.
                        ControlState::ChkOnly
                    } else {
                        ControlState::ChkRetry
                    }
                }
            }
            ProbeResult::Miss => {
                if self.retry_armed == Some(record.start_pc) {
                    // The mismatching line disappeared (evicted between the
                    // flush and the refetch — only possible with extra
                    // writers); treat the retry as inconclusive and record
                    // the new signature.
                    self.retry_armed = None;
                }
                // ITR-ROB forwarding: an older in-flight instance of the
                // same trace can confirm this one before either commits
                // (tight loops iterate faster than commit can write the
                // ITR cache).
                match self
                    .config
                    .rob_forwarding
                    .then(|| self.rob.find_latest_before(record.start_pc, trace_seq))
                    .flatten()
                {
                    Some(older) if older.signature == record.signature => {
                        self.stats.rob_forward_hits += 1;
                        ControlState::ChkOnly
                    }
                    Some(older) => {
                        self.stats.mismatches += 1;
                        self.events.push(ItrEvent::Mismatch {
                            start_pc: record.start_pc,
                            trace_seq,
                            cached_signature: older.signature,
                            new_signature: record.signature,
                        });
                        if self.config.mode == ItrMode::Passive {
                            ControlState::ChkOnly
                        } else {
                            ControlState::ChkRetry
                        }
                    }
                    None => ControlState::Miss,
                }
            }
        }
    }

    /// Captures dispatch-side state for branch-misprediction rollback.
    pub fn snapshot(&self) -> ItrSnapshot {
        ItrSnapshot { builder: self.builder.snapshot(), rob_next_seq: self.rob.next_seq() }
    }

    /// Restores a snapshot taken at the mispredicted branch.
    pub fn restore(&mut self, snap: &ItrSnapshot) {
        self.builder.restore(snap.builder);
        self.rob.rollback_to(snap.rob_next_seq);
        self.pending.retain(|p| p.trace_seq < snap.rob_next_seq);
    }

    /// Reads an in-flight ITR ROB entry (used by the host's §3
    /// redundant-fetch fallback to find the signature to re-verify).
    pub fn rob_entry(&self, trace_seq: ItrRobIndex) -> Option<&ItrRobEntry> {
        self.rob.get(trace_seq)
    }

    /// Decides what commit must do for an instruction belonging to
    /// `trace_seq` (§2.2 head-polling).
    pub fn commit_action(&self, trace_seq: ItrRobIndex) -> CommitAction {
        let Some(entry) = self.rob.get(trace_seq) else {
            // Trace not formed yet (its terminating instruction has not
            // dispatched): commit must wait.
            return CommitAction::Stall;
        };
        match entry.state {
            ControlState::NoneSet => CommitAction::Stall,
            ControlState::ChkOnly | ControlState::Miss => CommitAction::Proceed,
            ControlState::ChkRetry => {
                if self.retry_armed == Some(entry.start_pc) {
                    CommitAction::MachineCheck { start_pc: entry.start_pc }
                } else {
                    CommitAction::Retry { start_pc: entry.start_pc }
                }
            }
        }
    }

    /// Must be called when the host performs a [`CommitAction::Retry`]
    /// flush: arms the retry and clears all in-flight ITR state.
    pub fn on_retry_flush(&mut self, start_pc: u64) {
        self.retry_armed = Some(start_pc);
        self.stats.retries += 1;
        self.events.push(ItrEvent::RetryInitiated { start_pc });
        self.rob.clear();
        self.builder.reset();
        self.pending.clear();
    }

    /// Must be called when the host raises a machine check, for counters.
    pub fn on_machine_check(&mut self, start_pc: u64) {
        self.stats.machine_checks += 1;
        self.events.push(ItrEvent::MachineCheck { start_pc });
    }

    /// Clears in-flight state on a full pipeline flush that is *not* an
    /// ITR retry (e.g. an external exception).
    pub fn on_full_flush(&mut self) {
        self.rob.clear();
        self.builder.reset();
        self.pending.clear();
    }

    /// Called after the trace-terminating instruction of the ITR ROB head
    /// commits: writes missed signatures and frees the entry (§2.2).
    ///
    /// # Panics
    ///
    /// Panics if `trace_seq` is not the head entry — traces commit in
    /// order by construction.
    pub fn on_trace_end_commit(&mut self, trace_seq: ItrRobIndex) {
        assert_eq!(trace_seq, self.rob.head_seq(), "traces must commit in order");
        let entry = self.rob.free_head();
        self.stats.traces_committed += 1;
        self.stats.instrs_committed += entry.len as u64;
        if entry.state == ControlState::Miss {
            self.stats.recovery_loss_instrs += entry.len as u64;
            self.events.push(ItrEvent::MissCommitted { start_pc: entry.start_pc, len: entry.len });
            if let Some(ev) = self.cache.insert(entry.start_pc, entry.signature, entry.len) {
                if ev.unreferenced {
                    self.stats.detection_loss_instrs += ev.len_at_insert as u64;
                    self.events.push(ItrEvent::EvictionUnreferenced {
                        start_pc: ev.start_pc,
                        len: ev.len_at_insert,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ItrCacheConfig};
    use itr_isa::{DecodeSignals, Instruction, Opcode};

    fn unit() -> ItrUnit {
        ItrUnit::new(ItrConfig {
            cache: ItrCacheConfig::new(64, Associativity::Ways(2)),
            max_trace_len: 16,
            rob_entries: 8,
            mode: ItrMode::Active,
            ..ItrConfig::paper_default()
        })
    }

    fn add_sig() -> DecodeSignals {
        DecodeSignals::from_instruction(&Instruction::rrr(Opcode::Add, 1, 2, 3))
    }

    fn branch_sig() -> DecodeSignals {
        DecodeSignals::from_instruction(&Instruction::branch(Opcode::Bne, 1, 2, -2))
    }

    /// Dispatches a clean 3-instruction trace starting at `pc`; returns its
    /// sequence number.
    fn dispatch_trace(u: &mut ItrUnit, pc: u64) -> ItrRobIndex {
        assert!(!u.on_dispatch(pc, &add_sig()).trace_end);
        assert!(!u.on_dispatch(pc + 4, &add_sig()).trace_end);
        let r = u.on_dispatch(pc + 8, &branch_sig());
        assert!(r.trace_end);
        r.trace_seq
    }

    fn commit_trace(u: &mut ItrUnit, seq: ItrRobIndex) {
        assert_eq!(u.commit_action(seq), CommitAction::Proceed);
        u.on_trace_end_commit(seq);
    }

    #[test]
    fn first_instance_misses_then_second_hits_and_matches() {
        let mut u = unit();
        let a = dispatch_trace(&mut u, 0x100);
        commit_trace(&mut u, a);
        let events = u.drain_events();
        assert!(matches!(events[0], ItrEvent::MissCommitted { start_pc: 0x100, len: 3 }));

        let b = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(b), CommitAction::Proceed);
        u.on_trace_end_commit(b);
        assert!(u.drain_events().is_empty(), "clean re-execution: no events");
        assert_eq!(u.stats().mismatches, 0);
        assert_eq!(u.stats().recovery_loss_instrs, 3, "only the first (missed) instance");
    }

    #[test]
    fn commit_stalls_until_trace_is_formed() {
        let mut u = unit();
        let r = u.on_dispatch(0x100, &add_sig());
        assert!(!r.trace_end);
        assert_eq!(u.commit_action(r.trace_seq), CommitAction::Stall);
        u.on_dispatch(0x104, &branch_sig());
        assert_eq!(u.commit_action(r.trace_seq), CommitAction::Proceed);
    }

    #[test]
    fn mismatch_triggers_retry_then_recovery_on_match() {
        let mut u = unit();
        let a = dispatch_trace(&mut u, 0x100);
        commit_trace(&mut u, a);
        u.drain_events();

        // A faulty re-execution: flip a decode-signal bit of the first
        // instruction of the trace.
        let faulty = add_sig().with_bit_flipped(25);
        assert!(!u.on_dispatch(0x100, &faulty).trace_end);
        assert!(!u.on_dispatch(0x104, &add_sig()).trace_end);
        let r = u.on_dispatch(0x108, &branch_sig());
        let action = u.commit_action(r.trace_seq);
        let CommitAction::Retry { start_pc } = action else {
            panic!("expected retry, got {action:?}");
        };
        assert_eq!(start_pc, 0x100);
        u.on_retry_flush(start_pc);

        // Re-execution after the flush is clean (transient fault).
        let b = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(b), CommitAction::Proceed);
        u.on_trace_end_commit(b);
        let events = u.drain_events();
        assert!(events.iter().any(|e| matches!(e, ItrEvent::Mismatch { .. })));
        assert!(events.iter().any(|e| matches!(e, ItrEvent::RecoverySuccess { start_pc: 0x100 })));
        assert_eq!(u.stats().recoveries, 1);
        assert_eq!(u.stats().machine_checks, 0);
    }

    #[test]
    fn persistent_mismatch_raises_machine_check() {
        // The *cached* signature is the faulty one (inserted by a faulty
        // missed instance): every clean re-execution mismatches.
        let mut u = unit();
        // Dispatch a trace whose first instruction was faulty; it misses
        // and its (faulty) signature is written at commit.
        let faulty = add_sig().with_bit_flipped(30);
        u.on_dispatch(0x100, &faulty);
        u.on_dispatch(0x104, &add_sig());
        let r = u.on_dispatch(0x108, &branch_sig());
        commit_trace(&mut u, r.trace_seq);
        u.drain_events();

        // Clean instance: mismatch -> retry.
        let b = dispatch_trace(&mut u, 0x100);
        let CommitAction::Retry { start_pc } = u.commit_action(b) else {
            panic!("expected retry");
        };
        u.on_retry_flush(start_pc);

        // Clean again after flush: still mismatches (cached copy is bad,
        // parity is *valid* because the faulty signature was written
        // normally) -> machine check.
        let c = dispatch_trace(&mut u, 0x100);
        let action = u.commit_action(c);
        assert!(matches!(action, CommitAction::MachineCheck { start_pc: 0x100 }), "got {action:?}");
        u.on_machine_check(0x100);
        assert_eq!(u.stats().machine_checks, 1);
    }

    #[test]
    fn parity_error_convicts_the_cache_and_repairs() {
        let mut u = unit();
        let a = dispatch_trace(&mut u, 0x100);
        commit_trace(&mut u, a);
        // A fault strikes the stored signature itself.
        assert!(u.cache_mut().corrupt_signature(0x100, 13));

        let b = dispatch_trace(&mut u, 0x100);
        let CommitAction::Retry { start_pc } = u.commit_action(b) else {
            panic!("expected retry");
        };
        u.on_retry_flush(start_pc);

        // Retry mismatches again, but parity shows the cache is at fault:
        // the line is repaired and commit proceeds (§2.4).
        let c = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(c), CommitAction::Proceed);
        u.on_trace_end_commit(c);
        let events = u.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ItrEvent::CacheFaultRepaired { start_pc: 0x100 })));
        assert_eq!(u.stats().parity_repairs, 1);
        assert_eq!(u.stats().machine_checks, 0);
        // The repaired line now matches clean executions.
        let d = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(d), CommitAction::Proceed);
    }

    #[test]
    fn passive_mode_observes_but_proceeds() {
        let mut u = ItrUnit::new(ItrConfig {
            cache: ItrCacheConfig::new(64, Associativity::Ways(2)),
            max_trace_len: 16,
            rob_entries: 8,
            mode: ItrMode::Passive,
            ..ItrConfig::paper_default()
        });
        let a = dispatch_trace(&mut u, 0x100);
        commit_trace(&mut u, a);
        u.drain_events();
        let faulty = add_sig().with_bit_flipped(3);
        u.on_dispatch(0x100, &faulty);
        u.on_dispatch(0x104, &add_sig());
        let r = u.on_dispatch(0x108, &branch_sig());
        assert_eq!(u.commit_action(r.trace_seq), CommitAction::Proceed);
        assert!(u.drain_events().iter().any(|e| matches!(e, ItrEvent::Mismatch { .. })));
    }

    #[test]
    fn snapshot_restore_discards_wrong_path_traces() {
        let mut u = unit();
        let a = dispatch_trace(&mut u, 0x100);
        let snap = u.snapshot();
        // Wrong path: two more traces dispatched, then squashed.
        dispatch_trace(&mut u, 0x200);
        u.on_dispatch(0x300, &add_sig());
        u.restore(&snap);
        // Right path continues with a different trace.
        let b = dispatch_trace(&mut u, 0x400);
        assert_eq!(b, a + 1, "sequence numbers reused after rollback");
        commit_trace(&mut u, a);
        commit_trace(&mut u, b);
        assert_eq!(u.stats().traces_committed, 2);
    }

    #[test]
    fn mid_trace_snapshot_preserves_partial_signature() {
        let mut u = unit();
        // Trace: add, add, branch — snapshot after the first add.
        u.on_dispatch(0x100, &add_sig());
        let snap = u.snapshot();
        u.on_dispatch(0x104, &add_sig());
        u.restore(&snap);
        u.on_dispatch(0x104, &add_sig());
        let r = u.on_dispatch(0x108, &branch_sig());
        commit_trace(&mut u, r.trace_seq);
        u.drain_events();
        // Re-execute cleanly: the recorded signature must match, proving
        // the partial fold was restored correctly.
        let b = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(b), CommitAction::Proceed);
        assert_eq!(u.stats().mismatches, 0);
    }

    #[test]
    fn rob_forwarding_confirms_overlapping_instances() {
        // Two instances of the same trace in flight at once: the second
        // misses the cache (the first has not committed) but is confirmed
        // against the first via the ITR ROB.
        let mut u = unit();
        let a = dispatch_trace(&mut u, 0x100);
        let b = dispatch_trace(&mut u, 0x100);
        assert_eq!(u.commit_action(b), CommitAction::Proceed);
        assert_eq!(u.stats().rob_forward_hits, 1);
        commit_trace(&mut u, a);
        commit_trace(&mut u, b);
        // Only the first instance counts as a miss (recovery loss).
        assert_eq!(u.stats().recovery_loss_instrs, 3);
    }

    #[test]
    fn rob_forwarding_detects_mismatching_overlapping_instances() {
        let mut u = unit();
        let _a = dispatch_trace(&mut u, 0x100);
        // Second overlapping instance is faulty.
        let faulty = add_sig().with_bit_flipped(30);
        u.on_dispatch(0x100, &faulty);
        u.on_dispatch(0x104, &add_sig());
        let b = u.on_dispatch(0x108, &branch_sig());
        assert!(matches!(u.commit_action(b.trace_seq), CommitAction::Retry { start_pc: 0x100 }));
        assert_eq!(u.stats().mismatches, 1);
    }

    #[test]
    fn forwarding_disabled_treats_overlap_as_miss() {
        let mut u = ItrUnit::new(ItrConfig {
            cache: ItrCacheConfig::new(64, Associativity::Ways(2)),
            max_trace_len: 16,
            rob_entries: 8,
            mode: ItrMode::Active,
            rob_forwarding: false,
            ..ItrConfig::paper_default()
        });
        let a = dispatch_trace(&mut u, 0x100);
        let b = dispatch_trace(&mut u, 0x100);
        commit_trace(&mut u, a);
        commit_trace(&mut u, b);
        assert_eq!(u.stats().rob_forward_hits, 0);
        assert_eq!(u.stats().recovery_loss_instrs, 6, "both instances missed");
    }

    #[test]
    fn detection_loss_counted_on_unreferenced_eviction() {
        // Tiny fully-associative cache of 2 entries; three distinct traces
        // force an unreferenced eviction.
        let mut u = ItrUnit::new(ItrConfig {
            cache: ItrCacheConfig::new(2, Associativity::Full),
            max_trace_len: 16,
            rob_entries: 8,
            mode: ItrMode::Active,
            ..ItrConfig::paper_default()
        });
        for pc in [0x100u64, 0x200, 0x300] {
            let s = dispatch_trace(&mut u, pc);
            commit_trace(&mut u, s);
        }
        assert_eq!(u.stats().detection_loss_instrs, 3, "one 3-instr trace lost");
        assert_eq!(u.stats().recovery_loss_instrs, 9, "all three missed");
        assert!(u
            .drain_events()
            .iter()
            .any(|e| matches!(e, ItrEvent::EvictionUnreferenced { start_pc: 0x100, len: 3 })));
    }
}
