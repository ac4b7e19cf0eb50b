//! Trace formation and signature generation (§2.1 of the paper).

use itr_isa::DecodeSignals;

/// Maximum trace length used throughout the paper: traces terminate on a
/// branching instruction or on reaching 16 instructions.
pub const MAX_TRACE_LEN: u32 = 16;

/// A completed trace: its identity (`start_pc`), folded signature, and
/// dynamic instruction count.
///
/// Because trace termination depends only on static properties (branching
/// opcode or the length limit), the start PC uniquely identifies a static
/// trace and its fault-free signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// PC of the first instruction in the trace.
    pub start_pc: u64,
    /// XOR-fold of the packed decode signals of every instruction.
    pub signature: u64,
    /// Number of instructions in the trace (1..=16).
    pub len: u32,
}

/// How per-instruction values are combined into the trace signature.
///
/// §2.1 of the paper: *"Signature generation could be done in many ways.
/// We chose to simply bitwise XOR the signals."* Plain XOR has two
/// documented blind spots — an even number of flips of the *same* bit
/// within one trace cancels, and XOR is order-insensitive so two swapped
/// instructions fold to the same signature. The rotate-XOR variant
/// closes both at the cost of one rotator in the fold path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FoldKind {
    /// The paper's choice: `acc ^= value`.
    #[default]
    Xor,
    /// Order-sensitive variant: `acc = acc.rotate_left(7) ^ value`.
    RotateXor,
}

impl FoldKind {
    /// Applies one fold step.
    pub fn step(self, acc: u64, value: u64) -> u64 {
        match self {
            FoldKind::Xor => acc ^ value,
            FoldKind::RotateXor => acc.rotate_left(7) ^ value,
        }
    }
}

/// Incremental signature generator.
///
/// With the default [`FoldKind::Xor`], any single faulty signal bit in
/// any instruction of the trace flips the corresponding signature bit, so
/// a single-event upset is always visible. (An even number of faults in
/// the *same* bit position would cancel — acceptable under the
/// single-event-upset model, §2.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignatureGen {
    acc: u64,
    count: u32,
    kind: FoldKind,
}

impl SignatureGen {
    /// A fresh, empty XOR signature.
    pub fn new() -> SignatureGen {
        SignatureGen::default()
    }

    /// A fresh, empty signature with the given fold function.
    pub fn with_kind(kind: FoldKind) -> SignatureGen {
        SignatureGen { kind, ..SignatureGen::default() }
    }

    /// Folds one instruction's decode signals into the signature.
    pub fn fold(&mut self, signals: &DecodeSignals) {
        self.fold_packed(signals.pack());
    }

    /// [`SignatureGen::fold`] for signals already packed
    /// ([`DecodeSignals::pack`]).
    #[inline]
    pub fn fold_packed(&mut self, signals: u64) {
        self.acc = self.kind.step(self.acc, signals);
        self.count += 1;
    }

    /// Folds an extra raw value *without* advancing the instruction
    /// count. Used by the rename-protection extension (§1 of the paper:
    /// map-table indexes are constant across trace instances and can be
    /// recorded and confirmed alongside the decode signals).
    pub fn fold_raw(&mut self, value: u64) {
        self.acc ^= value;
    }

    /// Current folded value.
    pub fn value(&self) -> u64 {
        self.acc
    }

    /// Number of instructions folded so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Resets to the empty signature (the fold kind is kept).
    pub fn reset(&mut self) {
        self.acc = 0;
        self.count = 0;
    }
}

/// Builds traces from an in-order stream of decoded instructions.
///
/// Feed each instruction with [`TraceBuilder::push`]; a [`TraceRecord`] is
/// returned when the instruction terminates the current trace (it is a
/// branching instruction, or the length limit is reached).
///
/// # Example
///
/// ```
/// use itr_core::TraceBuilder;
/// use itr_isa::{DecodeSignals, Instruction, Opcode};
///
/// let mut tb = TraceBuilder::new(16);
/// let add = DecodeSignals::from_instruction(&Instruction::rrr(Opcode::Add, 1, 2, 3));
/// let beq = DecodeSignals::from_instruction(&Instruction::branch(Opcode::Beq, 1, 2, -1));
/// assert!(tb.push(0x400, &add).is_none());
/// let trace = tb.push(0x404, &beq).expect("branch ends the trace");
/// assert_eq!(trace.start_pc, 0x400);
/// assert_eq!(trace.len, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceBuilder {
    gen: SignatureGen,
    start_pc: u64,
    max_len: u32,
}

/// Two builders are equal when they form the same traces from here on:
/// the start PC of an empty trace is stale (the next push overwrites it),
/// so it is left out.
impl PartialEq for TraceBuilder {
    fn eq(&self, other: &TraceBuilder) -> bool {
        self.gen == other.gen
            && self.max_len == other.max_len
            && (self.gen.count() == 0 || self.start_pc == other.start_pc)
    }
}

impl TraceBuilder {
    /// Creates a builder that terminates traces at `max_len` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero.
    pub fn new(max_len: u32) -> TraceBuilder {
        TraceBuilder::with_kind(max_len, FoldKind::Xor)
    }

    /// Creates a builder using the given signature fold function.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero.
    pub fn with_kind(max_len: u32, kind: FoldKind) -> TraceBuilder {
        assert!(max_len > 0, "max_len must be positive");
        TraceBuilder { gen: SignatureGen::with_kind(kind), start_pc: 0, max_len }
    }

    /// Adds one instruction; returns the completed trace if this
    /// instruction terminated it.
    ///
    /// Trace termination follows §2.1: a branching instruction (anything
    /// with the `is_branch` flag, including jumps, calls, returns and
    /// traps) or the length limit. The *possibly faulty* flag is consulted,
    /// mirroring hardware, so a fault on `is_branch` perturbs trace
    /// formation for that dynamic instance exactly as it would in the real
    /// design.
    pub fn push(&mut self, pc: u64, signals: &DecodeSignals) -> Option<TraceRecord> {
        self.push_packed(pc, signals.pack(), 0)
    }

    /// Like [`push`](Self::push), for signals already packed
    /// ([`DecodeSignals::pack`]), additionally folding `extra` — an
    /// input-independent microarchitectural observation for this
    /// instruction (e.g. the rename map-table indexes it used).
    pub fn push_packed(&mut self, pc: u64, signals: u64, extra: u64) -> Option<TraceRecord> {
        if self.gen.count() == 0 {
            self.start_pc = pc;
        }
        self.gen.fold_packed(signals);
        self.gen.fold_raw(extra);
        let is_branch =
            DecodeSignals::packed_flags(signals).contains(itr_isa::SignalFlags::IS_BRANCH);
        if is_branch || self.gen.count() >= self.max_len {
            let record = TraceRecord {
                start_pc: self.start_pc,
                signature: self.gen.value(),
                len: self.gen.count(),
            };
            self.gen.reset();
            Some(record)
        } else {
            None
        }
    }

    /// Number of instructions accumulated in the in-progress trace.
    pub fn pending_len(&self) -> u32 {
        self.gen.count()
    }

    /// Start PC of the in-progress trace (meaningful when
    /// [`pending_len`](Self::pending_len) is non-zero).
    pub fn pending_start_pc(&self) -> u64 {
        self.start_pc
    }

    /// Captures the in-progress state (for branch-misprediction rollback).
    pub fn snapshot(&self) -> TraceBuilder {
        *self
    }

    /// Restores a previously captured state.
    pub fn restore(&mut self, snap: TraceBuilder) {
        *self = snap;
    }

    /// Discards the in-progress trace (e.g. after a full pipeline flush).
    pub fn reset(&mut self) {
        self.gen.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::{Instruction, Opcode};

    fn sig(inst: &Instruction) -> DecodeSignals {
        DecodeSignals::from_instruction(inst)
    }

    #[test]
    fn xor_fold_is_order_insensitive_but_content_sensitive() {
        let a = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let b = sig(&Instruction::rrr(Opcode::Sub, 4, 5, 6));
        let mut g1 = SignatureGen::new();
        g1.fold(&a);
        g1.fold(&b);
        let mut g2 = SignatureGen::new();
        g2.fold(&b);
        g2.fold(&a);
        assert_eq!(g1.value(), g2.value());
        let mut g3 = SignatureGen::new();
        g3.fold(&a);
        g3.fold(&a);
        assert_ne!(g1.value(), g3.value());
    }

    #[test]
    fn single_bit_fault_always_changes_signature() {
        let insts = [
            Instruction::rrr(Opcode::Add, 1, 2, 3),
            Instruction::mem(Opcode::Lw, 4, 29, 8),
            Instruction::rri(Opcode::Addi, 5, 5, 1),
            Instruction::branch(Opcode::Bne, 5, 6, -4),
        ];
        let clean: Vec<DecodeSignals> = insts.iter().map(sig).collect();
        let mut clean_gen = SignatureGen::new();
        for s in &clean {
            clean_gen.fold(s);
        }
        for victim in 0..insts.len() {
            for bit in 0..64 {
                let mut g = SignatureGen::new();
                for (i, s) in clean.iter().enumerate() {
                    if i == victim {
                        g.fold(&s.with_bit_flipped(bit));
                    } else {
                        g.fold(s);
                    }
                }
                assert_ne!(
                    g.value(),
                    clean_gen.value(),
                    "fault on instr {victim} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn rotate_xor_is_order_sensitive() {
        let a = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let b = sig(&Instruction::rrr(Opcode::Sub, 4, 5, 6));
        let mut ab = SignatureGen::with_kind(FoldKind::RotateXor);
        ab.fold(&a);
        ab.fold(&b);
        let mut ba = SignatureGen::with_kind(FoldKind::RotateXor);
        ba.fold(&b);
        ba.fold(&a);
        assert_ne!(ab.value(), ba.value(), "swapped instructions must differ");
    }

    #[test]
    fn rotate_xor_catches_same_bit_double_faults() {
        let a = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let b = sig(&Instruction::rrr(Opcode::Sub, 4, 5, 6));
        let mut clean = SignatureGen::with_kind(FoldKind::RotateXor);
        clean.fold(&a);
        clean.fold(&b);
        let mut faulty = SignatureGen::with_kind(FoldKind::RotateXor);
        faulty.fold(&a.with_bit_flipped(7));
        faulty.fold(&b.with_bit_flipped(7));
        assert_ne!(clean.value(), faulty.value(), "rotation separates the two flips");
    }

    #[test]
    fn even_faults_in_same_bit_cancel() {
        // Documented XOR limitation (§2.1): two flips of the same signal
        // bit in one trace cancel.
        let a = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let b = sig(&Instruction::rrr(Opcode::Sub, 4, 5, 6));
        let mut clean = SignatureGen::new();
        clean.fold(&a);
        clean.fold(&b);
        let mut faulty = SignatureGen::new();
        faulty.fold(&a.with_bit_flipped(7));
        faulty.fold(&b.with_bit_flipped(7));
        assert_eq!(clean.value(), faulty.value());
    }

    #[test]
    fn trace_terminates_on_branch() {
        let mut tb = TraceBuilder::new(16);
        assert!(tb.push(0x100, &sig(&Instruction::rrr(Opcode::Add, 1, 2, 3))).is_none());
        assert!(tb.push(0x104, &sig(&Instruction::rrr(Opcode::And, 1, 2, 3))).is_none());
        let t = tb.push(0x108, &sig(&Instruction::jump(Opcode::J, 0x40))).unwrap();
        assert_eq!((t.start_pc, t.len), (0x100, 3));
        assert_eq!(tb.pending_len(), 0);
    }

    #[test]
    fn trace_terminates_at_length_limit() {
        let mut tb = TraceBuilder::new(16);
        let add = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        for i in 0..15 {
            assert!(tb.push(0x200 + i * 4, &add).is_none(), "ended early at {i}");
        }
        let t = tb.push(0x200 + 15 * 4, &add).unwrap();
        assert_eq!(t.len, 16);
        assert_eq!(t.start_pc, 0x200);
    }

    #[test]
    fn identical_instances_produce_identical_signatures() {
        let mut tb = TraceBuilder::new(16);
        let body = [
            Instruction::rri(Opcode::Addi, 8, 8, 1),
            Instruction::mem(Opcode::Lw, 9, 8, 0),
            Instruction::branch(Opcode::Bne, 9, 0, -3),
        ];
        let mut first = None;
        for _ in 0..3 {
            let mut last = None;
            for (i, inst) in body.iter().enumerate() {
                last = tb.push(0x300 + i as u64 * 4, &sig(inst));
            }
            let t = last.unwrap();
            if let Some(f) = first {
                assert_eq!(t, f);
            }
            first = Some(t);
        }
    }

    #[test]
    fn snapshot_restore_rolls_back_partial_traces() {
        let mut tb = TraceBuilder::new(16);
        let add = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        tb.push(0x100, &add);
        let snap = tb.snapshot();
        tb.push(0x104, &add);
        tb.push(0x108, &add);
        tb.restore(snap);
        assert_eq!(tb.pending_len(), 1);
        // Finishing after restore matches finishing without the detour.
        let t1 = tb.push(0x104, &sig(&Instruction::jump(Opcode::J, 0))).unwrap();
        let mut fresh = TraceBuilder::new(16);
        fresh.push(0x100, &add);
        let t2 = fresh.push(0x104, &sig(&Instruction::jump(Opcode::J, 0))).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn empty_trace_state_is_inert() {
        // The empty signature is the XOR identity, and an empty builder
        // carries no stale state into its first trace.
        let g = SignatureGen::new();
        assert_eq!((g.value(), g.count()), (0, 0));
        let mut g = SignatureGen::with_kind(FoldKind::RotateXor);
        assert_eq!(g.value(), 0, "rotate-xor shares the empty identity");
        g.reset();
        assert_eq!((g.value(), g.count()), (0, 0), "reset of empty is a no-op");

        let mut tb = TraceBuilder::new(16);
        assert_eq!(tb.pending_len(), 0);
        tb.reset(); // resetting with nothing pending must be harmless
        let t = tb.push(0x500, &sig(&Instruction::jump(Opcode::J, 0))).unwrap();
        assert_eq!((t.start_pc, t.len), (0x500, 1));
    }

    #[test]
    fn single_instruction_trace_folds_to_its_own_signals() {
        // A lone branching instruction forms the minimal trace: len 1,
        // signature equal to its packed decode signals (fold from 0).
        let j = sig(&Instruction::jump(Opcode::J, 0x40));
        let mut tb = TraceBuilder::new(16);
        let t = tb.push(0x700, &j).unwrap();
        assert_eq!((t.start_pc, t.len), (0x700, 1));
        assert_eq!(t.signature, j.pack());
        assert_eq!(tb.pending_len(), 0, "builder is empty again");
    }

    #[test]
    fn max_length_trace_rolls_into_a_fresh_trace() {
        // Termination at MAX_TRACE_LEN must leave no residue: the 17th
        // instruction starts a new trace at its own PC.
        let add = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let mut tb = TraceBuilder::new(MAX_TRACE_LEN);
        let mut full = None;
        for i in 0..MAX_TRACE_LEN as u64 {
            full = tb.push(0x600 + i * 4, &add);
        }
        let full = full.expect("length limit terminates");
        assert_eq!((full.start_pc, full.len), (0x600, MAX_TRACE_LEN));
        assert!(tb.push(0x640, &add).is_none(), "17th instruction opens a new trace");
        assert_eq!(tb.pending_start_pc(), 0x640);
        assert_eq!(tb.pending_len(), 1);
    }

    #[test]
    fn xor_fold_self_cancels_but_rotate_xor_does_not() {
        // Corollary of order-insensitivity: folding the same signals an
        // even number of times returns plain XOR to the empty signature
        // (the deeper reason same-bit double faults cancel), while the
        // rotation keeps the two contributions apart.
        let a = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let mut xor = SignatureGen::new();
        xor.fold(&a);
        xor.fold(&a);
        assert_eq!(xor.value(), 0, "a ^ a = 0");
        assert_eq!(xor.count(), 2, "count still advances");
        let mut rot = SignatureGen::with_kind(FoldKind::RotateXor);
        rot.fold(&a);
        rot.fold(&a);
        assert_ne!(rot.value(), 0, "rotate(a) ^ a != 0");
    }

    #[test]
    fn faulty_is_branch_flag_perturbs_trace_formation() {
        // A fault that sets is_branch mid-trace splits the trace; the
        // signature of the split trace differs from the recorded one.
        let add = sig(&Instruction::rrr(Opcode::Add, 1, 2, 3));
        let j = sig(&Instruction::jump(Opcode::J, 0x40));
        let mut clean = TraceBuilder::new(16);
        assert!(clean.push(0x100, &add).is_none());
        let clean_t = clean.push(0x104, &j).unwrap();

        // Flip a flags bit that turns `is_branch` on for the first add.
        let is_branch_bit = 8 + 3; // flags field lsb=8, IS_BRANCH = bit 3
        let faulty_add = add.with_bit_flipped(is_branch_bit);
        let mut faulty = TraceBuilder::new(16);
        let t = faulty.push(0x100, &faulty_add).unwrap();
        assert_eq!(t.len, 1, "faulty is_branch terminates immediately");
        assert_ne!(t.signature, clean_t.signature);
    }
}
