//! End-to-end pipeline tests: architecture, recovery, and fault studies.

use super::{Pipeline, RunExit, SpcViolation};
use crate::config::PipelineConfig;
use crate::func::{FuncSim, StopReason};
use crate::injection::{DecodeFault, Injection, RenameFault, SchedulerFault};
use itr_isa::asm::assemble;

const SUM_LOOP: &str = r#"
    main:
        li r8, 100
        li r9, 0
    top:
        add r9, r9, r8
        addi r8, r8, -1
        bgtz r8, top
        move r4, r9
        trap 1
        halt
"#;

fn run_pipeline(src: &str, cfg: PipelineConfig) -> (Pipeline, RunExit) {
    run_faulty(src, cfg, Injection::default())
}

fn run_faulty(src: &str, cfg: PipelineConfig, injection: Injection) -> (Pipeline, RunExit) {
    let p = assemble(src).expect("assembles");
    let mut pipe = Pipeline::new(&p, cfg);
    pipe.arm(injection);
    let exit = pipe.run(2_000_000);
    (pipe, exit)
}

#[test]
fn sum_loop_halts_with_correct_output() {
    let (pipe, exit) = run_pipeline(SUM_LOOP, PipelineConfig::default());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert!(pipe.stats().ipc() > 0.5, "ipc = {}", pipe.stats().ipc());
}

#[test]
fn itr_enabled_run_is_architecturally_identical() {
    let (plain, e1) = run_pipeline(SUM_LOOP, PipelineConfig::default());
    let (itr, e2) = run_pipeline(SUM_LOOP, PipelineConfig::with_itr());
    assert_eq!(e1, RunExit::Halted);
    assert_eq!(e2, RunExit::Halted);
    assert_eq!(plain.output(), itr.output());
    let unit = itr.itr().expect("unit present");
    assert_eq!(unit.stats().mismatches, 0, "fault-free run never mismatches");
    assert!(unit.stats().traces_committed > 100);
}

#[test]
fn pipeline_matches_functional_commit_stream() {
    let src = r#"
        .data
        arr: .word 9, 2, 7, 4, 5, 1, 8, 3
        .text
        main:
            la r8, arr
            li r9, 8
            li r10, 0
            li r11, 0
        loop:
            lw r12, 0(r8)
            add r10, r10, r12
            andi r13, r12, 1
            beq r13, r0, skip
            addi r11, r11, 1
        skip:
            sw r10, 0(r8)
            addi r8, r8, 4
            addi r9, r9, -1
            bgtz r9, loop
            halt
    "#;
    let p = assemble(src).unwrap();
    let mut golden = FuncSim::new(&p);
    let (grecs, greason) = golden.run_collect(100_000);
    assert_eq!(greason, StopReason::Halted);

    let mut precs = Vec::new();
    let mut pipe = Pipeline::new(&p, PipelineConfig::with_itr());
    let exit = pipe.run_with(1_000_000, |r| {
        precs.push(*r);
        true
    });
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(precs.len(), grecs.len(), "same dynamic instruction count");
    for (i, (a, b)) in precs.iter().zip(&grecs).enumerate() {
        assert_eq!(a, b, "commit {i} diverged: pipeline {a} vs functional {b}");
    }
}

#[test]
fn indirect_calls_and_returns_work() {
    let src = r#"
        main:
            li r16, 0
            li r17, 5
        call_loop:
            move r4, r17
            jal double
            move r17, r2
            addi r16, r16, 1
            slti r9, r16, 4
            bgtz r9, call_loop
            move r4, r17
            trap 1
            halt
        double:
            add r2, r4, r4
            jr ra
    "#;
    let (pipe, exit) = run_pipeline(src, PipelineConfig::with_itr());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "80", "5 doubled 4 times");
}

#[test]
fn store_load_forwarding_is_correct() {
    let src = r#"
        .data
        buf: .space 16
        .text
        main:
            la r8, buf
            li r9, 0x1234
            sw r9, 0(r8)
            lw r10, 0(r8)    # must see the in-flight store
            sb r0, 1(r8)
            lw r11, 0(r8)    # partially overwritten
            move r4, r10
            trap 1
            move r4, r11
            trap 1
            halt
    "#;
    let (pipe, exit) = run_pipeline(src, PipelineConfig::default());
    assert_eq!(exit, RunExit::Halted);
    // 0x1234 = bytes [34, 12, 00, 00]; zeroing byte 1 gives 0x0034.
    assert_eq!(pipe.output(), format!("{}{}", 0x1234, 0x0034));
}

/// FNV-1a over a run's cycle count and commit stream.
fn commit_digest(cycles: u64, records: &[crate::arch::CommitRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    word(cycles);
    for r in records {
        word(r.pc);
        word(r.next_pc);
        word(r.dst.map_or(u64::MAX, |(reg, v)| u64::from(reg) << 32 | u64::from(v)));
        word(r.store.map_or(u64::MAX, |(a, size, v)| a ^ u64::from(size) << 56 ^ u64::from(v)));
    }
    h
}

#[test]
fn self_modifying_store_reaches_the_next_fetch() {
    // `patch:` runs as `addi r9, r9, 1`, then a store copies the word at
    // `donor:` (`addi r9, r9, 7`) over it and the loop runs `patch:`
    // again. A delay loop longer than the ROB sits between the store and
    // the branch back, so the store has committed before `patch:` is
    // fetched a second time: the pipeline must run the new word, as
    // FuncSim does.
    let src = r#"
        main:
            li r9, 0
            li r12, 2
        patch:
            addi r9, r9, 1
            la r8, donor
            lw r10, 0(r8)
            la r11, patch
            sw r10, 0(r11)
            li r13, 300
        delay:
            addi r13, r13, -1
            bgtz r13, delay
            addi r12, r12, -1
            bgtz r12, patch
            move r4, r9
            trap 1
            halt
        donor:
            addi r9, r9, 7
    "#;
    let p = assemble(src).unwrap();
    let mut golden = FuncSim::new(&p);
    let (grecs, greason) = golden.run_collect(100_000);
    assert_eq!(greason, StopReason::Halted);
    assert_eq!(golden.output(), "8", "1 from the old word, 7 from the stored one");

    // The fork shares everything the original has not written yet; the
    // original's store must not show through in it.
    let mut original = Pipeline::new(&p, PipelineConfig::default());
    let mut fork = original.clone();
    for pipe in [&mut original, &mut fork] {
        let (exit, records) = finish(pipe);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(pipe.output(), "8");
        assert_eq!(records, grecs, "commit stream equals FuncSim's");
        assert_eq!(commit_digest(pipe.cycle(), &records), 0x161c_7b4a_6832_9b93, "cycle digest");
    }
}

#[test]
fn deadlock_fault_is_caught_by_watchdog() {
    // Flip num_rsrc of a loop-body add to 3: phantom operand. num_rsrc
    // field lsb = 58; add has num_rsrc=2 (0b10); flipping bit 58 gives
    // 0b11 = 3.
    let cfg = PipelineConfig { watchdog_cycles: 2_000, ..PipelineConfig::default() };
    let (_, exit) = run_faulty(SUM_LOOP, cfg, DecodeFault { nth_decode: 2, bit: 58 }.into());
    assert_eq!(exit, RunExit::Deadlock);
}

#[test]
fn itr_retry_recovers_from_transient_fault() {
    // Inject into a mid-loop instruction after the loop trace has been
    // cached; ITR detects the mismatch at commit and the retry flush
    // re-executes cleanly, so the program output is unaffected.
    let fault = DecodeFault { nth_decode: 50, bit: 25 }; // rsrc1 bit
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), fault.into());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "recovery preserved the result");
    let unit = pipe.itr().unwrap();
    assert!(unit.stats().mismatches >= 1, "fault detected");
    assert_eq!(unit.stats().recoveries, 1, "recovered via retry");
    assert_eq!(unit.stats().machine_checks, 0);
}

#[test]
fn unprotected_pipeline_corrupts_on_the_same_fault() {
    // The same fault without ITR: the wrong-source add corrupts r9.
    let fault = DecodeFault { nth_decode: 50, bit: 25 };
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::default(), fault.into());
    assert_eq!(exit, RunExit::Halted);
    assert_ne!(pipe.output(), "5050", "fault silently corrupted data");
}

#[test]
fn cycle_limit_is_reported() {
    let p = assemble("main:\n j main\n").unwrap();
    let mut pipe = Pipeline::new(&p, PipelineConfig::default());
    assert_eq!(pipe.run(1_000), RunExit::CycleLimit);
}

#[test]
fn commit_callback_can_stop_the_run() {
    let p = assemble(SUM_LOOP).unwrap();
    let mut pipe = Pipeline::new(&p, PipelineConfig::default());
    let mut n = 0;
    let exit = pipe.run_with(1_000_000, |_| {
        n += 1;
        n < 10
    });
    assert_eq!(exit, RunExit::Stopped);
    assert_eq!(n, 10);
}

#[test]
fn redundant_fetch_fallback_runs_cleanly() {
    use itr_core::ItrConfig;
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { redundant_fetch_on_miss: true, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    let s = pipe.stats();
    assert!(s.redundant_verifies > 0, "misses were re-verified");
    assert_eq!(s.redundant_detects, 0, "no faults to catch");
    assert!(s.redundant_fetch_groups > 0);
}

#[test]
fn redundant_fetch_catches_faults_on_first_instance_traces() {
    use itr_core::ItrConfig;
    // Inject into the very first dynamic instance of the program's
    // first trace: plain ITR can only detect this later (the faulty
    // signature enters the cache); the §3 fallback catches it before
    // commit and recovers.
    let fault = DecodeFault { nth_decode: 0, bit: 35 }; // rdst bit
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), fault.into());
    assert_eq!(exit, RunExit::Halted);
    assert_ne!(pipe.output(), "5050", "plain ITR misses the cold-trace fault");

    let fallback = PipelineConfig {
        itr: Some(ItrConfig { redundant_fetch_on_miss: true, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, fallback, fault.into());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "fallback recovers the cold-trace fault");
    assert!(pipe.stats().redundant_detects >= 1);
}

#[test]
fn same_bit_double_fault_evades_xor_but_not_rotate_xor() {
    use itr_core::{FoldKind, ItrConfig};
    // Two flips of the same signal bit on adjacent instructions of one
    // hot-loop trace instance (SUM_LOOP decodes architecturally until
    // the final mispredict, so iteration 17's add/addi are decodes
    // #53/#54; bit 30 = rsrc2, which corrupts the add but is masked
    // on the addi): the XOR fold cancels (§2.1's documented
    // limitation), the rotate-XOR fold does not.
    let faults = Injection {
        decode: [53, 54].map(|nth_decode| DecodeFault { nth_decode, bit: 30 }.into()).into(),
        ..Injection::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), faults.clone());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.itr().unwrap().stats().mismatches, 0, "XOR is blind");
    assert_ne!(pipe.output(), "5050", "yet the double fault corrupts");

    let rot_cfg = PipelineConfig {
        itr: Some(ItrConfig { fold: FoldKind::RotateXor, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, rot_cfg, faults);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "rotate-XOR detects and recovers");
    assert!(pipe.itr().unwrap().stats().mismatches >= 1);
}

#[test]
fn fetch_reorder_fault_evades_xor_but_not_rotate_xor() {
    use itr_core::{FoldKind, ItrConfig};
    // Swap two adjacent non-branch instructions inside the cached hot
    // loop trace: same signal multiset, different order.
    let swap = Injection { swap: Some(53), ..Injection::default() }; // iteration 17's add/addi pair (same trace)
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), swap.clone());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.itr().unwrap().stats().mismatches, 0, "XOR cannot see a within-trace swap");

    let rot_cfg = PipelineConfig {
        itr: Some(ItrConfig { fold: FoldKind::RotateXor, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, rot_cfg, swap);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "rotate-XOR detects and the retry recovers");
    assert!(pipe.itr().unwrap().stats().mismatches >= 1);
    assert_eq!(pipe.itr().unwrap().stats().recoveries, 1);
}

#[test]
fn tiny_resources_stall_but_never_break() {
    use itr_core::ItrConfig;
    // Starve every queue: a 2-entry ITR ROB, minimal IQ, single-entry
    // LSQ headroom, barely enough physical registers. Dispatch stalls
    // constantly; architecture must be unaffected.
    let cfg = PipelineConfig {
        width: 4,
        issue_width: 2,
        rob_entries: 16, // = max trace length, the legal minimum
        iq_entries: 4,
        lsq_entries: 16,
        phys_regs: 96,
        itr: Some(ItrConfig { rob_entries: 2, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert!(pipe.stats().ipc() < 1.5, "starved machine must be slower");
}

#[test]
fn tiny_itr_rob_with_recovery_still_works() {
    use itr_core::ItrConfig;
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { rob_entries: 2, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, cfg, DecodeFault { nth_decode: 50, bit: 25 }.into());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert_eq!(pipe.itr().unwrap().stats().recoveries, 1);
}

#[test]
fn memory_heavy_kernel_survives_single_lsq_slot() {
    let src = r#"
        .data
        buf: .space 64
        .text
        main:
            la r8, buf
            li r9, 16
        fill:
            sw r9, 0(r8)
            lw r10, 0(r8)
            add r11, r11, r10
            addi r8, r8, 4
            addi r9, r9, -1
            bgtz r9, fill
            move r4, r11
            trap 1
            halt
    "#;
    // The legal minimum LSQ under ITR is one full trace (16); below
    // that the commit interlock can deadlock a fault-free program —
    // see the sizing assertions in Pipeline::new.
    let cfg = PipelineConfig { lsq_entries: 16, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_pipeline(src, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "136"); // 16+15+...+1
}

#[test]
#[should_panic(expected = "LSQ must hold a full trace")]
fn undersized_lsq_with_itr_is_rejected() {
    let p = assemble(SUM_LOOP).unwrap();
    let cfg = PipelineConfig { lsq_entries: 4, ..PipelineConfig::with_itr() };
    let _ = Pipeline::new(&p, cfg);
}

#[test]
fn scheduler_fault_corrupts_without_tac() {
    // The mis-selected instruction reads a stale physical register.
    let fault =
        Injection { scheduler: Some(SchedulerFault { nth_issue: 60 }), ..Injection::default() };
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), fault);
    assert_eq!(exit, RunExit::Halted);
    assert_ne!(pipe.output(), "5050", "stale read corrupts the sum");
    assert_eq!(
        pipe.itr().unwrap().stats().mismatches,
        0,
        "decode-signal signatures cannot see scheduler faults"
    );
}

#[test]
fn tac_check_detects_and_recovers_scheduler_fault() {
    let cfg = PipelineConfig { tac_check: true, ..PipelineConfig::with_itr() };
    let fault =
        Injection { scheduler: Some(SchedulerFault { nth_issue: 60 }), ..Injection::default() };
    let (pipe, exit) = run_faulty(SUM_LOOP, cfg, fault);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "TAC recovery preserves the result");
    assert_eq!(pipe.stats().tac_violations, 1);
    assert_eq!(pipe.stats().tac_recoveries, 1);
}

#[test]
fn tac_check_is_silent_fault_free() {
    let cfg = PipelineConfig { tac_check: true, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert_eq!(pipe.stats().tac_violations, 0);
}

#[test]
fn delayed_itr_cache_reads_preserve_correctness() {
    use itr_core::ItrConfig;
    // A realistic 2-cycle SRAM read: absorbed by the dispatch-to-
    // commit distance, so IPC is essentially unchanged and results
    // identical.
    for latency in [2u32, 8, 40] {
        let cfg = PipelineConfig {
            itr: Some(ItrConfig { cache_read_latency: latency, ..ItrConfig::paper_default() }),
            ..PipelineConfig::default()
        };
        let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
        assert_eq!(exit, RunExit::Halted, "latency {latency}");
        assert_eq!(pipe.output(), "5050", "latency {latency}");
        assert_eq!(pipe.itr().unwrap().stats().mismatches, 0);
    }
}

#[test]
fn long_itr_read_latency_stalls_commit_but_stays_correct() {
    use itr_core::ItrConfig;
    let fast = {
        let (pipe, _) = run_pipeline(SUM_LOOP, PipelineConfig::with_itr());
        pipe.stats().ipc()
    };
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { cache_read_latency: 40, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert!(
        pipe.stats().ipc() < fast * 0.8,
        "a 40-cycle read must show in IPC: {} vs {}",
        pipe.stats().ipc(),
        fast
    );
}

#[test]
fn recovery_works_with_delayed_reads() {
    use itr_core::ItrConfig;
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { cache_read_latency: 3, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_faulty(SUM_LOOP, cfg, DecodeFault { nth_decode: 50, bit: 25 }.into());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert_eq!(pipe.itr().unwrap().stats().recoveries, 1);
}

#[test]
fn rotate_xor_runs_cleanly_fault_free() {
    use itr_core::{FoldKind, ItrConfig};
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { fold: FoldKind::RotateXor, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert_eq!(pipe.itr().unwrap().stats().mismatches, 0);
}

#[test]
fn rename_fault_is_invisible_to_plain_itr() {
    // Strike the rename map index of a hot-loop source operand: the
    // decode signals are clean, so the plain signature cannot see it.
    let fault = RenameFault { nth_rename: 50, operand: 0, bit: 1 };
    let fault = Injection { rename: Some(fault), ..Injection::default() };
    let (pipe, exit) = run_faulty(SUM_LOOP, PipelineConfig::with_itr(), fault);
    assert_eq!(exit, RunExit::Halted);
    assert_ne!(pipe.output(), "5050", "rename fault corrupts the result");
    assert_eq!(pipe.itr().unwrap().stats().mismatches, 0, "plain ITR is blind to it");
}

#[test]
fn rename_protection_detects_and_recovers_rename_faults() {
    let fault = RenameFault { nth_rename: 50, operand: 0, bit: 1 };
    let fault = Injection { rename: Some(fault), ..Injection::default() };
    let cfg = PipelineConfig { rename_protection: true, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_faulty(SUM_LOOP, cfg, fault);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050", "extended signature recovers the fault");
    let s = pipe.itr().unwrap().stats();
    assert!(s.mismatches >= 1);
    assert_eq!(s.recoveries, 1);
}

#[test]
fn rename_protection_is_transparent_when_fault_free() {
    let cfg = PipelineConfig { rename_protection: true, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_pipeline(SUM_LOOP, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "5050");
    assert_eq!(pipe.itr().unwrap().stats().mismatches, 0);
}

#[test]
fn checkpoint_opportunities_arise_in_hot_loops() {
    // A workload whose every trace repeats: once the loop trace is
    // confirmed the ITR cache holds no unchecked lines and §2.3
    // checkpoints become possible. (Any resident run-once trace
    // blocks the scheme — the paper's condition is strict.)
    let src = r#"
        main:
            addi r8, r8, 1
            slti r9, r8, 200
            bgtz r9, main
            halt
    "#;
    let cfg = PipelineConfig { checkpoint_min_gap: 50, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_pipeline(src, cfg);
    assert_eq!(exit, RunExit::Halted);
    assert!(
        pipe.checkpointer().checkpoints_taken() >= 2,
        "took {} checkpoints over {} opportunities",
        pipe.checkpointer().checkpoints_taken(),
        pipe.checkpointer().opportunities()
    );
}

#[test]
fn bounded_wait_restores_checkpoint_availability_past_a_prologue() {
    // A run-once prologue trace stays unreferenced forever, so the
    // strict §2.3 condition never fires again for the rest of the run.
    // Bounded wait lets the prologue's line age out of the blocking set
    // and checkpoints resume; strict on the same program takes none.
    let src = r#"
        main:
            li r8, 0
            li r10, 0
        loop:
            addi r8, r8, 1
            addi r10, r10, 2
            slti r9, r8, 200
            bgtz r9, loop
            halt
    "#;
    let strict = PipelineConfig { checkpoint_min_gap: 0, ..PipelineConfig::with_itr() };
    let (pipe, exit) = run_pipeline(src, strict);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.checkpointer().checkpoints_taken(), 0, "prologue blocks strict forever");

    let bounded = PipelineConfig {
        checkpoint_min_gap: 0,
        checkpoint_line_age: Some(32),
        ..PipelineConfig::with_itr()
    };
    let (pipe, exit) = run_pipeline(src, bounded);
    assert_eq!(exit, RunExit::Halted);
    assert!(
        pipe.checkpointer().checkpoints_taken() >= 2,
        "bounded wait took {} checkpoints over {} opportunities",
        pipe.checkpointer().checkpoints_taken(),
        pipe.checkpointer().opportunities()
    );
    let last = pipe.last_checkpoint().expect("the run took checkpoints");
    assert!(last.committed <= pipe.stats().committed, "{last:?}");
}

#[test]
fn fp_program_runs_correctly_out_of_order() {
    let src = r#"
        main:
            li r8, 12
            mtc1 r8, f0
            cvt.s.w f0, f0
            li r8, 4
            mtc1 r8, f1
            cvt.s.w f1, f1
            div.s f2, f0, f1
            cvt.w.s f3, f2
            mfc1 r4, f3
            trap 1
            halt
    "#;
    let (pipe, exit) = run_pipeline(src, PipelineConfig::with_itr());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), "3");
}

#[test]
fn stats_report_exports_pipeline_and_itr_sections() {
    let (pipe, exit) = run_pipeline(SUM_LOOP, PipelineConfig::with_itr());
    assert_eq!(exit, RunExit::Halted);
    let report = pipe.stats_report();
    let stats = pipe.stats();
    assert_eq!(report.counter("pipeline", "committed"), Some(stats.committed));
    assert_eq!(report.counter("pipeline", "cycles"), Some(stats.cycles));
    let itr_stats = pipe.itr().unwrap().stats();
    assert_eq!(report.counter("itr", "traces_committed"), Some(itr_stats.traces_committed));
    assert_eq!(report.counter("itr", "mismatches"), Some(0));
    let commit_width = report.histogram("pipeline", "commit_width").expect("histogram present");
    assert_eq!(commit_width.count, stats.cycles);
    assert_eq!(commit_width.sum, stats.committed);

    // The JSON round-trips through the itr-stats parser.
    let parsed = itr_stats::Report::from_json(&pipe.stats_json()).expect("parses");
    assert_eq!(parsed.counter("pipeline", "committed"), Some(stats.committed));
}

/// Runs `pipe` to its end, returning the commit stream it produced.
fn finish(pipe: &mut Pipeline) -> (RunExit, Vec<crate::arch::CommitRecord>) {
    let mut records = Vec::new();
    let exit = pipe.run_with(2_000_000, |r| {
        records.push(*r);
        true
    });
    (exit, records)
}

#[test]
fn clone_mid_run_continues_exactly_like_the_original() {
    let p = assemble(SUM_LOOP).unwrap();
    let mut original = Pipeline::new(&p, PipelineConfig::with_itr());
    let mut prefix = Vec::new();
    original.run_with(60, |r| {
        prefix.push(*r);
        true
    });
    assert!(!prefix.is_empty() && original.exit().is_none(), "cloned mid-run");
    let mut fork = original.clone();
    let (exit_a, rest_a) = finish(&mut original);
    let (exit_b, rest_b) = finish(&mut fork);
    assert_eq!(exit_a, RunExit::Halted);
    assert_eq!(exit_a, exit_b);
    assert_eq!(rest_a, rest_b);
    assert_eq!(original.stats_json(), fork.stats_json());
    assert_eq!(original.output(), fork.output());

    // And both equal one uninterrupted run.
    let mut straight = Pipeline::new(&p, PipelineConfig::with_itr());
    let (_, all) = finish(&mut straight);
    prefix.extend(rest_a);
    assert_eq!(all, prefix);
    assert_eq!(straight.stats_json(), original.stats_json());
}

#[test]
fn armed_fork_equals_a_fresh_faulty_run() {
    let p = assemble(SUM_LOOP).unwrap();
    let fault = DecodeFault { nth_decode: 40, bit: 35 };
    let mut fresh = Pipeline::new(&p, PipelineConfig::with_itr());
    fresh.arm(fault.into());
    let (fresh_exit, fresh_records) = finish(&mut fresh);

    let mut clean = Pipeline::new(&p, PipelineConfig::with_itr());
    while clean.stats().decoded + 4 <= fault.nth_decode {
        clean.run(clean.cycle() + 1);
    }
    let mut fork = clean.clone();
    fork.arm(fault.into());
    let mut records = Vec::new();
    let mut replay = Pipeline::new(&p, PipelineConfig::with_itr());
    replay.run_with(clean.cycle(), |r| {
        records.push(*r);
        true
    });
    let (fork_exit, rest) = finish(&mut fork);
    records.extend(rest);
    assert_eq!(fork_exit, fresh_exit);
    assert_eq!(records, fresh_records);
    assert_eq!(fork.stats_json(), fresh.stats_json());
    assert_eq!(fork.output(), fresh.output());
    assert!(fork.itr().unwrap().stats().mismatches > 0, "the armed fault struck");
}

#[test]
#[should_panic(expected = "cannot arm a fault striking decode 40")]
fn arming_past_the_strike_panics() {
    let p = assemble(SUM_LOOP).unwrap();
    let mut pipe = Pipeline::new(&p, PipelineConfig::with_itr());
    while pipe.stats().decoded <= 40 {
        pipe.run(pipe.cycle() + 1);
    }
    pipe.arm(DecodeFault { nth_decode: 40, bit: 3 }.into());
}

#[test]
fn take_itr_events_empties_the_log() {
    let p = assemble(SUM_LOOP).unwrap();
    let fault = DecodeFault { nth_decode: 40, bit: 35 };
    let mut pipe = Pipeline::new(&p, PipelineConfig::with_itr());
    pipe.arm(fault.into());
    pipe.run(2_000_000);
    let n = pipe.itr_events().len();
    assert!(n > 0);
    assert_eq!(pipe.take_itr_events().len(), n);
    assert!(pipe.itr_events().is_empty());
}

/// A gzip-mimic pipeline with ITR, stopped mid-run at a cycle where the
/// ROB, the ITR ROB (head trace confirmed) and the ITR cache are busy.
fn mid_run_pipeline() -> Pipeline {
    let profile = itr_workloads::profiles::by_name("gzip").expect("gzip profile");
    let p = itr_workloads::generate_mimic_sized(profile, 1, 20_000);
    let mut pipe = Pipeline::new(&p, PipelineConfig::with_itr());
    pipe.run(5_000);
    loop {
        let unit = pipe.itr().expect("unit present");
        let head = pipe.win.front().map(|u| u.trace_seq);
        let confirmed = head
            .and_then(|seq| unit.rob_entry(seq))
            .is_some_and(|e| e.state == itr_core::ControlState::ChkOnly);
        if confirmed && pipe.win.len() > 1 && pipe.rn.free_list.len() > 1 {
            return pipe;
        }
        assert_eq!(pipe.run(pipe.cycle() + 1), RunExit::CycleLimit, "kernel ended too early");
    }
}

#[test]
fn same_state_sees_every_component() {
    let base = mid_run_pipeline();
    assert!(base.same_state(&base.clone()), "a clone is the same state");
    type Change = (&'static str, fn(&mut Pipeline));
    let changed: Vec<Change> = vec![
        ("memory byte", |p| {
            let addr = p.win.front().map_or(0x1000_0000, |u| u.pc);
            let b = p.mem.read(addr, 1);
            p.mem.write(addr, 1, b ^ 1);
        }),
        ("ROB uop signals", |p| {
            let last = p.win.next_seq() - 1;
            p.win.get_mut(last).sig ^= 1 << 40;
        }),
        ("free-list order", |p| p.rn.free_list.swap(0, 1)),
        ("stale phys_val", |p| {
            let free = p.rn.free_list[0] as usize;
            p.rn.phys_val[free] ^= 1;
        }),
        ("gshare counter", |p| {
            let before = p.fe.gshare.clone();
            p.fe.gshare.train(0x40_0000, 0, false);
            if p.fe.gshare == before {
                p.fe.gshare.train(0x40_0000, 0, true);
            }
        }),
        ("BTB entry", |p| p.fe.btb.update(0x40_0010, 0x40_0bad)),
        ("RAS entry", |p| p.fe.ras.push(0x40_0bad)),
        ("I-cache tag", |p| {
            p.fe.icache.access(0x7f00_0000);
        }),
        ("D-cache LRU stamp", |p| {
            p.dcache.access(0x7f00_0000);
        }),
        ("ITR cache line", |p| {
            let unit = p.itr.as_mut().expect("unit");
            let (pc, _) = unit.cache().iter_lines().next().expect("a resident line");
            unit.cache_mut().corrupt_signature(pc, 5);
        }),
        ("ITR cache tick", |p| {
            let unit = p.itr.as_mut().expect("unit");
            assert_eq!(unit.cache_mut().probe(0x7f00_0000), itr_core::ProbeResult::Miss);
        }),
        ("ITR ROB entry", |p| {
            let seq = p.win.front().expect("busy ROB").trace_seq;
            p.itr.as_mut().expect("unit").on_trace_end_commit(seq);
        }),
        ("checkpointer's last checkpoint", |p| {
            let far = p.stats.committed + 1_000_000;
            p.checkpointer.observe(0, far);
        }),
        ("watchdog", |p| p.wdog.pet(p.cycle + 7)),
        ("output", |p| p.output.push('x')),
        ("machine configuration", |p| p.cfg.watchdog_cycles += 1),
    ];
    for (what, change) in changed {
        let mut other = base.clone();
        change(&mut other);
        assert!(!base.same_state(&other), "{what}: a change must compare unequal");
        assert!(!other.same_state(&base), "{what}: equality is symmetric");
    }
    let unchanged: Vec<Change> = vec![
        ("pipeline counters and histograms", |p| {
            p.stats.mispredicts += 1;
            p.stats.decoded += 1;
            p.commit_width.record(3);
        }),
        ("ITR event log", |p| {
            p.itr_events.push((p.cycle, itr_core::ItrEvent::RetryInitiated { start_pc: 4 }))
        }),
        ("SPC violation log", |p| p.spc_violations.push(SpcViolation { cycle: 1, pc: 4 })),
        ("scratch buffers", |p| {
            p.issue_candidates.push(3);
            p.due.push(3);
        }),
        ("spent fault configuration", |p| {
            let decoded = p.stats.decoded;
            p.injection = DecodeFault { nth_decode: decoded - 1, bit: 3 }.into();
            p.injection.swap = Some(decoded - 1);
        }),
    ];
    for (what, change) in unchanged {
        let mut other = base.clone();
        change(&mut other);
        assert!(base.same_state(&other), "{what}: must compare equal");
    }
    let mut pending = base.clone();
    let decoded = pending.stats().decoded;
    pending.arm(DecodeFault { nth_decode: decoded + 5, bit: 3 }.into());
    assert!(pending.strikes_pending());
    assert!(!base.same_state(&pending), "a pending strike is a difference");
}
