//! Fault injection demo (§4 of the paper): the same single-event upset
//! strikes an unprotected pipeline and an ITR-protected one.
//!
//! * Unprotected: the flipped decode-signal bit silently corrupts the
//!   program result (SDC).
//! * Protected: the trace's signature disagrees with the ITR cache, the
//!   commit interlock blocks the trace, a retry flush re-executes it
//!   cleanly, and the program result is preserved.
//!
//! Run with: `cargo run --example fault_injection`

use itr::isa::asm::assemble;
use itr::isa::DecodeSignals;
use itr::sim::{DecodeFault, Pipeline, PipelineConfig, RunExit};
use itr::workloads::kernels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = kernels::SUM_LOOP;
    let program = assemble(kernel.source)?;

    // Flip a source-register bit of the 50th decoded instruction — deep
    // inside the hot loop, whose trace signature is already cached.
    let fault = DecodeFault { nth_decode: 50, bit: 25 };
    println!(
        "injecting: bit {} ({} field) of decoded instruction #{}\n",
        fault.bit,
        DecodeSignals::field_of_bit(fault.bit),
        fault.nth_decode
    );

    // --- unprotected run ---
    let mut plain = Pipeline::new(&program, PipelineConfig::default());
    plain.arm(fault.into());
    let exit = plain.run(1_000_000);
    println!("unprotected pipeline: exit={exit:?} output={:?}", plain.output());
    println!("  expected output    : {:?}", kernel.expected_output);
    assert_ne!(plain.output(), kernel.expected_output, "silent data corruption");

    // --- ITR-protected run ---
    let mut protected = Pipeline::new(&program, PipelineConfig::with_itr());
    protected.arm(fault.into());
    let exit = protected.run(1_000_000);
    println!("\nITR-protected pipeline: exit={exit:?} output={:?}", protected.output());
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(protected.output(), kernel.expected_output, "result preserved");

    let s = protected.itr().expect("itr on").stats();
    println!("  mismatches detected : {}", s.mismatches);
    println!("  retry flushes       : {}", s.retries);
    println!("  successful recovery : {}", s.recoveries);
    println!("  machine checks      : {}", s.machine_checks);
    println!("\nevents:");
    for (cycle, e) in protected.itr_events() {
        println!("  cycle {cycle:>6}: {e:?}");
    }
    Ok(())
}
