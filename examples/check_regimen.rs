//! The paper's framing (§1): ITR is one member of *"a regimen of
//! low-overhead microarchitecture-level fault checks — each check
//! protects a distinct part of the pipeline, thus the regimen as a whole
//! provides comprehensive protection."*
//!
//! This example injects a fault into a different pipeline unit each time
//! and shows which member of the regimen catches it:
//!
//! | fault target      | caught by                                |
//! |-------------------|------------------------------------------|
//! | decode signals    | ITR signature (this paper)               |
//! | rename map index  | ITR + rename-index folding (§1 extension)|
//! | scheduler select  | TAC-style issue-order assertion (§1)     |
//! | phantom operand   | ITR retry rescues the deadlock (wdog)    |
//!
//! Run with: `cargo run --example check_regimen`

use itr::isa::asm::assemble;
use itr::sim::{
    DecodeFault, Injection, Pipeline, PipelineConfig, RenameFault, RunExit, SchedulerFault,
};
use itr::workloads::kernels;

fn banner(title: &str) {
    println!("\n──── {title} ────");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = kernels::SUM_LOOP;
    let program = assemble(kernel.source)?;
    let expected = kernel.expected_output;

    // The fully-armed configuration: ITR with rename folding + TAC,
    // on a fresh pipeline armed with one fault.
    let cfg =
        PipelineConfig { rename_protection: true, tac_check: true, ..PipelineConfig::with_itr() };
    let armed = |injection: Injection| {
        let mut cpu = Pipeline::new(&program, cfg.clone());
        cpu.arm(injection);
        cpu
    };

    banner("1. decode-unit fault → ITR signature");
    let mut cpu = armed(DecodeFault { nth_decode: 50, bit: 25 }.into());
    assert_eq!(cpu.run(5_000_000), RunExit::Halted);
    assert_eq!(cpu.output(), expected);
    let s = cpu.itr().expect("on").stats();
    println!(
        "detected by ITR: {} mismatch, {} recovery — output preserved",
        s.mismatches, s.recoveries
    );

    banner("2. rename-unit fault → ITR + rename-index folding");
    let rename = RenameFault { nth_rename: 50, operand: 0, bit: 1 };
    let mut cpu = armed(Injection { rename: Some(rename), ..Injection::default() });
    assert_eq!(cpu.run(5_000_000), RunExit::Halted);
    assert_eq!(cpu.output(), expected);
    let s = cpu.itr().expect("on").stats();
    println!(
        "detected via folded map-table indexes: {} mismatch, {} recovery",
        s.mismatches, s.recoveries
    );

    banner("3. scheduler fault → TAC issue-order assertion");
    let scheduler = SchedulerFault { nth_issue: 60 };
    let mut cpu = armed(Injection { scheduler: Some(scheduler), ..Injection::default() });
    assert_eq!(cpu.run(5_000_000), RunExit::Halted);
    assert_eq!(cpu.output(), expected);
    println!(
        "detected by TAC: {} violation, {} flush-restart — output preserved",
        cpu.stats().tac_violations,
        cpu.stats().tac_recoveries
    );

    banner("4. phantom-operand fault → ITR retry rescues the deadlock");
    // num_rsrc flipped to 3: the instruction waits forever; the ITR retry
    // at the commit interlock flushes and re-executes cleanly.
    let mut cpu = armed(DecodeFault { nth_decode: 53, bit: 58 }.into());
    assert_eq!(cpu.run(5_000_000), RunExit::Halted, "no deadlock with the regimen");
    assert_eq!(cpu.output(), expected);
    let s = cpu.itr().expect("on").stats();
    println!(
        "rescued by ITR retry: {} mismatch, {} recovery — would deadlock otherwise",
        s.mismatches, s.recoveries
    );

    println!("\nAll four fault classes detected and recovered; program output correct each time.");
    Ok(())
}
