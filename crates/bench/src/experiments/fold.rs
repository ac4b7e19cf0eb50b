//! Signature fold-function study (§2.1: *"Signature generation could be
//! done in many ways. We chose to simply bitwise XOR the signals."*).
//!
//! Quantifies the two documented blind spots of the XOR fold against the
//! rotate-XOR alternative, over the real static traces of a mimic
//! benchmark:
//!
//! * **single-event upsets** — both folds must detect 100% (the paper's
//!   operating model);
//! * **same-bit double faults** — two flips of the same signal bit within
//!   one trace: XOR cancels by construction; rotate-XOR separates them;
//! * **instruction reorder** — two adjacent instructions swapped by a
//!   fetch fault: XOR is order-insensitive; rotate-XOR is not.
//!
//! The program size and sample count are fixed in both modes; only the
//! seed follows the run's [`Scale`].

use super::{emit_payload, Csv, Emitted, Scale};
use itr_core::{FoldKind, SignatureGen};
use itr_harness::{JobSpec, Registry};
use itr_isa::{decode, DecodeSignals};
use itr_sim::{Memory, TraceStream};
use itr_stats::SplitMix64;
use itr_workloads::{generate_mimic_sized, profiles};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// Size of the `gap` mimic whose static traces the study samples.
const FOLD_PROGRAM_INSTRS: u64 = 100_000;

/// Fault samples drawn per scenario.
const FOLD_SAMPLES: usize = 20_000;

/// Decoded signal sequence of one static trace.
fn trace_signals(mem: &Memory, start_pc: u64, max_len: u32) -> Option<Vec<DecodeSignals>> {
    let mut out = Vec::new();
    let mut pc = start_pc;
    for _ in 0..max_len {
        let inst = decode(mem.read_u32(pc)).ok()?;
        out.push(DecodeSignals::from_instruction(&inst));
        if inst.op.ends_trace() {
            break;
        }
        pc += 4;
    }
    Some(out)
}

fn signature(kind: FoldKind, sigs: &[DecodeSignals]) -> u64 {
    let mut g = SignatureGen::with_kind(kind);
    for s in sigs {
        g.fold(s);
    }
    g.value()
}

/// Whether each fold tells `faulty` apart from `clean`, as
/// `[xor, rotate-xor]` detection counts (0 or 1).
fn detections(clean: &[DecodeSignals], faulty: &[DecodeSignals]) -> [u64; 2] {
    [FoldKind::Xor, FoldKind::RotateXor]
        .map(|kind| u64::from(signature(kind, faulty) != signature(kind, clean)))
}

/// Runs the study and renders `signature_fold_study.txt` / `.csv`.
pub fn render_fold_study(seed: u64) -> Emitted {
    let profile = profiles::by_name("gap").expect("known");
    let program = generate_mimic_sized(profile, seed, FOLD_PROGRAM_INSTRS);
    let mem = Memory::with_program(&program);

    // Collect the executed static traces with at least two instructions.
    // A BTreeSet keeps the trace order (and thus the fault-sampling
    // sequence) independent of the per-process hash seed.
    let starts: BTreeSet<u64> =
        TraceStream::new(&program, FOLD_PROGRAM_INSTRS).map(|t| t.start_pc).collect();
    let traces: Vec<Vec<DecodeSignals>> = starts
        .iter()
        .filter_map(|&pc| trace_signals(&mem, pc, 16))
        .filter(|t| t.len() >= 2)
        .collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Signature fold study: {} static traces of `{}`, {FOLD_SAMPLES} samples/scenario ===",
        traces.len(),
        profile.name
    );
    let _ = writeln!(text, "{:<28} {:>12} {:>12}", "scenario", "XOR", "rotate-XOR");

    let mut rng = SplitMix64::new(seed ^ 0xF01D);
    let mut rows = Vec::new();
    let mut report = |name: &str, detected: [u64; 2], total: u64| {
        let pct = |d: u64| d as f64 * 100.0 / total as f64;
        let _ =
            writeln!(text, "{name:<28} {:>11.2}% {:>11.2}%", pct(detected[0]), pct(detected[1]));
        rows.push(format!("{name},{:.3},{:.3}", pct(detected[0]), pct(detected[1])));
    };
    let tally = |det: &mut [u64; 2], d: [u64; 2]| {
        det[0] += d[0];
        det[1] += d[1];
    };

    // Scenario 1: single bit flips.
    let mut det = [0u64; 2];
    for _ in 0..FOLD_SAMPLES {
        let t = &traces[rng.gen_range(0..traces.len())];
        let victim = rng.gen_range(0..t.len());
        let bit = rng.gen_range(0..64);
        let mut faulty = t.clone();
        faulty[victim] = faulty[victim].with_bit_flipped(bit);
        tally(&mut det, detections(t, &faulty));
    }
    report("single-event upset", det, FOLD_SAMPLES as u64);

    // Scenario 2: same-bit double faults within one trace.
    let mut det = [0u64; 2];
    for _ in 0..FOLD_SAMPLES {
        let t = &traces[rng.gen_range(0..traces.len())];
        let a = rng.gen_range(0..t.len());
        let mut b = rng.gen_range(0..t.len() - 1);
        if b >= a {
            b += 1;
        }
        let bit = rng.gen_range(0..64);
        let mut faulty = t.clone();
        faulty[a] = faulty[a].with_bit_flipped(bit);
        faulty[b] = faulty[b].with_bit_flipped(bit);
        tally(&mut det, detections(t, &faulty));
    }
    report("same-bit double fault", det, FOLD_SAMPLES as u64);

    // Scenario 3: adjacent-instruction swap (only pairs whose signals
    // differ — swapping identical instructions is architecturally
    // invisible and no signature can see it).
    let mut det = [0u64; 2];
    let mut total = 0u64;
    for _ in 0..FOLD_SAMPLES {
        let t = &traces[rng.gen_range(0..traces.len())];
        let i = rng.gen_range(0..t.len() - 1);
        if t[i] == t[i + 1] {
            continue;
        }
        total += 1;
        let mut faulty = t.clone();
        faulty.swap(i, i + 1);
        tally(&mut det, detections(t, &faulty));
    }
    report("adjacent-instruction swap", det, total);

    let _ =
        writeln!(text, "\nReading: the paper's XOR choice is perfect under its single-event-upset");
    let _ =
        writeln!(text, "model and free; rotate-XOR additionally covers multi-event and reorder");
    let _ =
        writeln!(text, "faults for the cost of a rotator. (Swaps of *identical* instructions are");
    let _ = writeln!(text, "architecturally invisible and excluded.)");
    Emitted {
        txt_name: "signature_fold_study.txt",
        text,
        csv: Some(Csv {
            name: "signature_fold_study.csv",
            header: "scenario,xor_pct,rotxor_pct".into(),
            rows,
        }),
    }
}

/// Registers the `signature-fold` emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let seed = scale.seed;
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("signature-fold", &[], move |_, _| {
        emit_payload(&dir, &render_fold_study(seed))
    }));
}
