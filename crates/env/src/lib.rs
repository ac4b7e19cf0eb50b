//! # itr-env — hostile-environment scenarios for the ITR reproduction
//!
//! The paper evaluates ITR one program at a time on a quiet machine. A
//! deployed processor is messier: the OS time-slices competing programs
//! through the *same* physical ITR cache and sequential-PC checker, and
//! every context switch either flushes the cache (losing the detection
//! coverage of unreferenced lines, §3's measure) or leaves it to be
//! polluted by the next program's working set. This crate models that
//! environment by replaying recorded functional runs:
//!
//! * [`ScenarioProgram`] — one functional recording per program (the
//!   decode stream of an `itr_sim::Execution`), relocated to its own PC
//!   region;
//! * [`run_scenario`] — a deterministic scheduler that interleaves the
//!   recordings through one shared passive [`itr_core::ItrUnit`] under a
//!   configurable [`Preemption`] schedule and [`SwitchPolicy`], with
//!   per-program counter attribution, flush-loss accounting
//!   ([`itr_core::FlushSummary`]) and a cold-start warm-up histogram;
//! * [`record_program_set`] — the standard kernel set used by the
//!   `env-interleave` reproduction family.
//!
//! Because each program is recorded exactly once, a sweep over K
//! schedules (quantum × preemption × policy) costs K cheap replays, not
//! K pipeline simulations — the same fan-out economics as the coverage
//! sweeps.
//!
//! The richer fault models that complete the hostile-environment picture
//! (multi-bit upsets, stuck-ats, intermittents, retry-window bursts)
//! live in `itr-faults::models`; the new workload families they stress
//! live in `itr-workloads::kernels`.

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod scenario;

pub use scenario::{
    run_scenario, Preemption, ProgramShare, ScenarioConfig, ScenarioProgram, ScenarioResult,
    SwitchPolicy, WarmupBucket, WARMUP_BUCKETS,
};

use itr_isa::asm::assemble;
use itr_workloads::kernels;

/// Records the named kernels, each once, relocated to disjoint PC
/// regions (`i * 0x10_0000`). Panics on an unknown kernel name — the
/// callers pass compile-time sets.
pub fn record_program_set(names: &[&str], max_instrs: u64) -> Vec<ScenarioProgram> {
    let all = kernels::all();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let kernel = all
                .iter()
                .find(|k| k.name == *name)
                .unwrap_or_else(|| panic!("unknown kernel {name}"));
            let program = assemble(kernel.source)
                .unwrap_or_else(|e| panic!("{name} failed to assemble: {e:?}"));
            ScenarioProgram::record(&program, name, max_instrs, i as u64 * 0x10_0000)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_set_records_each_kernel_once_in_disjoint_regions() {
        let set = record_program_set(&["sum_loop", "crc32", "rle_compress"], 1_500);
        assert_eq!(set.len(), 3);
        assert_eq!(set[0].name, "sum_loop");
        assert!(set.iter().all(|p| !p.is_empty()));
        // Region check: every recorded PC of program i sits in its slot.
        // (The accessor is private; a cheap proxy is that the same kernel
        // recorded at offset 0 differs from its relocated twin.)
        let base = record_program_set(&["rle_compress"], 1_500);
        assert_eq!(base[0].len(), set[2].len());
    }
}
