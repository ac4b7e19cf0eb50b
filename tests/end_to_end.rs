//! Cross-crate integration tests: the full kernel suite and mimic
//! workloads through both simulators, with and without ITR protection.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::isa::asm::assemble;
use itr::sim::{FuncSim, Pipeline, PipelineConfig, RunExit, StopReason};
use itr::workloads::{generate_mimic_sized, kernels, profiles};

/// Every kernel produces its expected output on the cycle-level pipeline,
/// with and without the ITR unit, matching the functional simulator.
#[test]
fn kernels_run_identically_on_all_simulators() {
    for kernel in kernels::all() {
        let program = assemble(kernel.source).expect("kernel assembles");

        let mut func = FuncSim::new(&program);
        assert_eq!(func.run(20_000_000), StopReason::Halted, "{}", kernel.name);
        assert_eq!(func.output(), kernel.expected_output, "{} functional", kernel.name);

        for (label, cfg) in
            [("plain", PipelineConfig::default()), ("itr", PipelineConfig::with_itr())]
        {
            let mut pipe = Pipeline::new(&program, cfg);
            let exit = pipe.run(50_000_000);
            assert_eq!(exit, RunExit::Halted, "{} on {label} pipeline", kernel.name);
            assert_eq!(
                pipe.output(),
                kernel.expected_output,
                "{} output on {label} pipeline",
                kernel.name
            );
        }
    }
}

/// The pipeline's committed stream equals the functional simulator's,
/// instruction for instruction, on every kernel (with ITR enabled).
#[test]
fn commit_streams_are_bit_identical() {
    for kernel in kernels::all() {
        let program = assemble(kernel.source).expect("assembles");
        let mut func = FuncSim::new(&program);
        let (golden, _) = func.run_collect(20_000_000);

        let mut i = 0usize;
        let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
        let exit = pipe.run_with(50_000_000, |r| {
            assert!(i < golden.len(), "{}: pipeline committed too much", kernel.name);
            assert_eq!(*r, golden[i], "{}: commit {i} diverged", kernel.name);
            i += 1;
            true
        });
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(i, golden.len(), "{}: committed count", kernel.name);
    }
}

/// Fault-free ITR runs never mismatch and lose no detection coverage on
/// kernels (their static footprints fit any evaluated cache).
#[test]
fn kernels_have_zero_itr_loss() {
    for kernel in kernels::all() {
        let program = assemble(kernel.source).expect("assembles");
        let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
        assert_eq!(pipe.run(50_000_000), RunExit::Halted);
        let s = pipe.itr().expect("itr on").stats();
        assert_eq!(s.mismatches, 0, "{}", kernel.name);
        assert_eq!(s.machine_checks, 0, "{}", kernel.name);
        assert_eq!(s.detection_loss_instrs, 0, "{}", kernel.name);
    }
}

/// Generated mimic programs run to completion on the ITR pipeline and the
/// commit interlock never wedges (every dispatched trace resolves).
#[test]
fn mimic_programs_run_on_the_itr_pipeline() {
    for name in ["bzip", "perl", "swim"] {
        let profile = profiles::by_name(name).expect("known");
        let program = generate_mimic_sized(profile, 3, 30_000);
        let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
        let exit = pipe.run(5_000_000);
        assert_eq!(exit, RunExit::Halted, "{name}");
        let s = pipe.itr().expect("itr on").stats();
        assert_eq!(s.mismatches, 0, "{name}: fault-free run");
        assert!(s.traces_committed > 1_000, "{name}: traces flowed");
    }
}

/// The documented recovery path end to end: a transient decode fault on a
/// cached trace is detected at commit, retried, and the program completes
/// with the correct result. The identical run without ITR corrupts.
#[test]
fn transient_faults_recover_with_itr_and_corrupt_without() {
    use itr::sim::DecodeFault;
    let program = assemble(kernels::FIB.source).expect("assembles");
    // fib's loop body: inject into an iteration after the first (trace
    // cached by then). Bit 35 = rdst field: the result goes to the wrong
    // register.
    let fault = DecodeFault { nth_decode: 40, bit: 35 };

    let mut plain = Pipeline::new(&program, PipelineConfig::default());
    plain.arm(fault.into());
    plain.run(5_000_000);
    assert_ne!(plain.output(), kernels::FIB.expected_output, "unprotected SDC");

    let mut protected = Pipeline::new(&program, PipelineConfig::with_itr());
    protected.arm(fault.into());
    let exit = protected.run(5_000_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(protected.output(), kernels::FIB.expected_output);
    let s = protected.itr().expect("itr on").stats();
    assert_eq!(s.recoveries, 1);
    assert_eq!(s.machine_checks, 0);
}

/// §2.4: a fault striking the ITR cache itself is convicted by parity and
/// repaired without a (false) machine check.
#[test]
fn itr_cache_fault_is_repaired_by_parity() {
    let program = assemble(kernels::SUM_LOOP.source).expect("assembles");
    let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
    // Warm the cache, then corrupt the stored signature of the hot loop
    // trace (it starts at main+8 = first instruction after `li r9, 0`...
    // locate it by probing resident lines instead).
    pipe.run(200);
    let victim = {
        let unit = pipe.itr().expect("on");
        unit.cache().iter_lines().next().expect("cache warmed").0
    };
    assert!(pipe.itr_mut().expect("on").cache_mut().corrupt_signature(victim, 9));
    let exit = pipe.run(5_000_000);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(pipe.output(), kernels::SUM_LOOP.expected_output);
    let s = pipe.itr().expect("on").stats();
    assert_eq!(s.machine_checks, 0, "parity must prevent the false machine check");
}

/// The façade's re-exports compose: a program assembled through
/// `itr::isa` runs through `itr::sim` and its traces feed
/// `itr::core::CoverageModel`.
#[test]
fn facade_reexports_compose() {
    use itr::core::{CoverageModel, ItrCacheConfig};
    use itr::sim::TraceStream;
    let program = assemble(kernels::SIEVE.source).expect("assembles");
    let mut model = CoverageModel::new(ItrCacheConfig::paper_default());
    let mut n = 0u64;
    for t in TraceStream::new(&program, 1_000_000) {
        model.observe(&t);
        n += 1;
    }
    assert!(n > 100);
    assert_eq!(model.report().mismatches, 0);
}

/// `itr-cli` exits 1 naming the option when an option value does not
/// parse or is missing, instead of running with the default.
#[test]
fn cli_rejects_unparsable_option_values() {
    let cli = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_itr-cli")).args(args).output();
        let out = out.expect("itr-cli runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (code, err) = cli(&["run", "fib", "--max-cycles", "10x"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("--max-cycles expects an unsigned integer, got `10x`"), "{err}");
    let (code, err) = cli(&["inject", "fib", "--nth", "-1", "--bit", "3"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("--nth expects an unsigned integer, got `-1`"), "{err}");
    let (code, err) = cli(&["mimic", "gzip", "--instrs"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("--instrs needs a value"), "{err}");
    let (code, err) = cli(&["run", "fib", "--max-cycles", "200000"]);
    assert_eq!(code, Some(0), "{err}");
}
