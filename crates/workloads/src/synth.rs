//! Generator for SPEC2K-mimic programs.
//!
//! Emits a real, runnable `rISA` program whose dynamic trace stream
//! follows a [`MimicModel`] schedule: a data-driven dispatcher reads a
//! script of region addresses and indirect-jumps to each region; regions
//! loop over their traces a fixed number of iterations. Every trace is a
//! straight-line block terminated by a branch, so trace boundaries and
//! identities are exactly the model's.
//!
//! Register conventions: `r8` dispatcher target, `r21` script pointer,
//! `r22` visits remaining, `r23` constant 1 (never-taken compares), `r24`
//! region loop counter, `r25` shared data base; block filler uses
//! `r10..r15` and `f0..f7` only.

use crate::model::MimicModel;
use crate::profiles::SpecProfile;
use itr_isa::{Instruction, Opcode, Program, ProgramBuilder};
use itr_stats::SplitMix64;

/// Bytes of shared scratch data the blocks load and store.
const SHARED_BYTES: usize = 2048;

/// Generates a mimic program targeting about two million dynamic
/// instructions (the default window of the coverage studies).
pub fn generate_mimic(profile: SpecProfile, seed: u64) -> Program {
    generate_mimic_sized(profile, seed, 2_000_000)
}

/// Generates a mimic program whose script covers about
/// `target_dyn_instrs` dynamic instructions before halting.
pub fn generate_mimic_sized(profile: SpecProfile, seed: u64, target_dyn_instrs: u64) -> Program {
    let mut model = MimicModel::new(profile, seed);
    let schedule = model.sample_schedule(target_dyn_instrs);
    let mut rng = SplitMix64::new(seed ^ 0x5EED_B10C_0000_0002);
    let mut b = ProgramBuilder::new();

    // ---- main: register setup ----
    b.label("main").expect("fresh builder");
    b.push(Instruction::rri(Opcode::Addi, 23, 0, 1));
    b.load_addr(25, "shared");
    b.load_addr(21, "script");
    b.load_imm(22, schedule.len() as i64);
    for r in 10..=15u8 {
        b.push(Instruction::rri(Opcode::Addi, r, 0, r as i32 * 3 + 1));
    }
    if profile.fp {
        // f0 = 3.0, f1 = 2.0; blocks stick to add/sub/abs/neg/mov so
        // values stay finite and deterministic.
        b.push(Instruction::rri(Opcode::Addi, 8, 0, 3));
        b.push(Instruction { op: Opcode::Mtc1, rs: 0, rt: 8, rd: 0, shamt: 0, imm: 0 });
        b.push(Instruction { op: Opcode::CvtSW, rs: 0, rt: 0, rd: 0, shamt: 0, imm: 0 });
        b.push(Instruction::rri(Opcode::Addi, 8, 0, 2));
        b.push(Instruction { op: Opcode::Mtc1, rs: 1, rt: 8, rd: 0, shamt: 0, imm: 0 });
        b.push(Instruction { op: Opcode::CvtSW, rs: 1, rt: 1, rd: 1, shamt: 0, imm: 0 });
    }

    // ---- dispatcher ----
    b.label("dispatcher").expect("unique");
    b.branch_to(Opcode::Blez, 22, 0, "done");
    b.push(Instruction::rri(Opcode::Addi, 22, 22, -1));
    b.push(Instruction::mem(Opcode::Lw, 8, 21, 0));
    b.push(Instruction::rri(Opcode::Addi, 21, 21, 4));
    b.push(Instruction { op: Opcode::Jr, rs: 8, rt: 0, rd: 0, shamt: 0, imm: 0 });
    b.label("done").expect("unique");
    b.push(Instruction::trap(itr_isa::trap::HALT));

    // ---- regions ----
    for (k, region) in model.regions().iter().enumerate() {
        b.label(&format!("region_{k}")).expect("unique region label");
        b.load_imm(24, region.loops as i64);
        b.label(&format!("region_{k}_top")).expect("unique top label");
        let n = region.trace_lens.len();
        for (t, &len) in region.trace_lens.iter().enumerate() {
            let last = t + 1 == n;
            // Body: len-1 instructions (the last trace spends one of them
            // on the loop decrement), then the terminating branch.
            let filler = if last { len.saturating_sub(2) } else { len - 1 };
            for _ in 0..filler {
                b.push(random_filler(&mut rng, profile.fp));
            }
            if last {
                b.push(Instruction::rri(Opcode::Addi, 24, 24, -1));
                b.branch_to(Opcode::Bgtz, 24, 0, &format!("region_{k}_top"));
            } else {
                // Never-taken compare (r0 != r23): a real conditional
                // branch that terminates the trace without redirecting.
                b.push(Instruction::branch(Opcode::Beq, 0, 23, 0));
            }
        }
        b.jump_to(Opcode::J, "dispatcher");
    }

    // ---- data ----
    b.data_align(4);
    b.data_label("shared").expect("unique");
    b.data_space(SHARED_BYTES);
    b.data_label("script").expect("unique");
    for region in schedule {
        b.data_word_addr(&format!("region_{region}"));
    }

    b.build().expect("generator emits consistent labels")
}

fn random_filler(rng: &mut SplitMix64, fp: bool) -> Instruction {
    if fp && rng.gen_bool(0.4) {
        let fd = rng.gen_range(2..=7u8);
        let fa = rng.gen_range(0..=7u8);
        let fb = rng.gen_range(0..=7u8);
        return match rng.gen_range(0..5) {
            0 => Instruction::rrr(Opcode::AddS, fd, fa, fb),
            1 => Instruction::rrr(Opcode::SubS, fd, fa, fb),
            2 => Instruction { op: Opcode::AbsS, rs: fa, rt: 0, rd: fd, shamt: 0, imm: 0 },
            3 => Instruction { op: Opcode::NegS, rs: fa, rt: 0, rd: fd, shamt: 0, imm: 0 },
            _ => Instruction { op: Opcode::MovS, rs: fa, rt: 0, rd: fd, shamt: 0, imm: 0 },
        };
    }
    let rd = rng.gen_range(10..=15u8);
    let rs = rng.gen_range(10..=15u8);
    let rt = rng.gen_range(10..=15u8);
    match rng.gen_range(0..8) {
        0 => Instruction::rri(Opcode::Addi, rd, rs, rng.gen_range(-64..=64)),
        1 => Instruction::rrr(Opcode::Add, rd, rs, rt),
        2 => Instruction::rrr(Opcode::Xor, rd, rs, rt),
        3 => Instruction::rrr(Opcode::Sub, rd, rs, rt),
        4 => Instruction::shift(Opcode::Sll, rd, rs, rng.gen_range(1..=4)),
        5 => Instruction::shift(Opcode::Srl, rd, rs, rng.gen_range(1..=4)),
        6 => {
            let off = (rng.gen_range(0..SHARED_BYTES as i32 / 4)) * 4;
            Instruction::mem(Opcode::Lw, rd, 25, off)
        }
        _ => {
            let off = (rng.gen_range(0..SHARED_BYTES as i32 / 4)) * 4;
            Instruction::mem(Opcode::Sw, rs, 25, off)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use itr_sim::{FuncSim, StopReason, TraceStream};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn generation_is_deterministic() {
        let p = profiles::by_name("vpr").unwrap();
        let a = generate_mimic_sized(p, 42, 50_000);
        let b = generate_mimic_sized(p, 42, 50_000);
        assert_eq!(a.text(), b.text());
        assert_eq!(a.data(), b.data());
        let c = generate_mimic_sized(p, 43, 50_000);
        assert_ne!(a.text(), c.text(), "seed must matter");
    }

    #[test]
    fn mimic_runs_to_halt_near_target_length() {
        let p = profiles::by_name("twolf").unwrap();
        let program = generate_mimic_sized(p, 7, 100_000);
        let mut sim = FuncSim::new(&program);
        let reason = sim.run(400_000);
        assert_eq!(reason, StopReason::Halted);
        let n = sim.instr_count();
        assert!((80_000..300_000).contains(&n), "dynamic length {n} far from the 100k target");
    }

    #[test]
    fn static_trace_counts_approximate_table1() {
        // Executed static-trace population within ±30% of Table 1 for a
        // spread of profiles (hot Zipf tails mean the coldest regions may
        // not all be visited in a short run).
        for name in ["bzip", "parser", "twolf", "vpr", "swim", "wupwise"] {
            let p = profiles::by_name(name).unwrap();
            let program = generate_mimic_sized(p, 11, 400_000);
            let starts: BTreeSet<u64> =
                TraceStream::new(&program, 400_000).map(|t| t.start_pc).collect();
            let measured = starts.len() as f64;
            let target = p.static_traces as f64;
            assert!(
                (0.5..=1.4).contains(&(measured / target)),
                "{name}: measured {measured} static traces vs Table 1 {target}"
            );
        }
    }

    #[test]
    fn fp_mimics_contain_fp_instructions() {
        let p = profiles::by_name("swim").unwrap();
        let program = generate_mimic_sized(p, 3, 20_000);
        let fp_count = program
            .text()
            .iter()
            .filter_map(|&w| itr_isa::decode(w).ok())
            .filter(|i| i.op.props().flags.contains(itr_isa::SignalFlags::IS_FP))
            .count();
        assert!(fp_count > 50, "only {fp_count} FP instructions");
    }

    #[test]
    fn mimic_signatures_are_consistent_across_instances() {
        let p = profiles::by_name("gap").unwrap();
        let program = generate_mimic_sized(p, 5, 60_000);
        let mut sigs = BTreeMap::new();
        for t in TraceStream::new(&program, 60_000) {
            if let Some(prev) = sigs.insert(t.start_pc, t.signature) {
                assert_eq!(prev, t.signature, "trace {:#x} signature changed", t.start_pc);
            }
        }
    }
}
