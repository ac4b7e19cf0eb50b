//! `itr-cli` — drive the ITR simulator from the command line.
//!
//! ```text
//! itr-cli run <file.s> [--functional] [--no-itr] [--max-cycles N]
//! itr-cli disasm <file.s>
//! itr-cli trace <file.s> [--instrs N]
//! itr-cli inject <file.s> --nth N --bit B [--no-itr]
//! itr-cli kernels [name]
//! itr-cli mimic <bench> [--instrs N] [--seed S]
//! ```

use itr::core::{CoverageModel, ItrCacheConfig};
use itr::isa::asm::assemble;
use itr::isa::{disasm, Program};
use itr::sim::{DecodeFault, FuncSim, Pipeline, PipelineConfig, TraceStream};
use itr::workloads::{generate_mimic_sized, kernels, profiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("inject") => cmd_inject(&args[1..]),
        Some("kernels") => cmd_kernels(&args[1..]),
        Some("mimic") => cmd_mimic(&args[1..]),
        _ => {
            eprintln!(
                "usage: itr-cli <run|disasm|trace|inject|kernels|mimic> ...\n\
                 \n\
                 run <file.s> [--functional] [--no-itr] [--max-cycles N]\n\
                 disasm <file.s>\n\
                 trace <file.s> [--instrs N]\n\
                 inject <file.s> --nth N --bit B [--no-itr]\n\
                 kernels [name]\n\
                 mimic <bench> [--instrs N] [--seed S]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value of option `name`: `None` when it is absent, an error when
/// its value is missing or is not an unsigned integer.
fn opt(args: &[String], name: &str) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name} expects an unsigned integer, got `{value}`"))
}

fn load(path: &str) -> Result<Program, Box<dyn std::error::Error>> {
    // Built-in kernel names are accepted anywhere a file is.
    if let Some(k) = kernels::by_name(path) {
        return Ok(assemble(k.source)?);
    }
    let source = std::fs::read_to_string(path)?;
    Ok(assemble(&source)?)
}

fn cmd_run(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing program file")?;
    let program = load(path)?;
    if flag(args, "--functional") {
        let mut sim = FuncSim::new(&program);
        let reason = sim.run(opt(args, "--max-instrs")?.unwrap_or(100_000_000));
        println!("{}", sim.output());
        println!("-- {} instructions, stop: {reason:?}", sim.instr_count());
        return Ok(());
    }
    let cfg =
        if flag(args, "--no-itr") { PipelineConfig::default() } else { PipelineConfig::with_itr() };
    let mut pipe = Pipeline::new(&program, cfg);
    let exit = pipe.run(opt(args, "--max-cycles")?.unwrap_or(100_000_000));
    println!("{}", pipe.output());
    let s = pipe.stats();
    println!(
        "-- {} instructions in {} cycles (IPC {:.2}), exit: {exit:?}",
        s.committed,
        s.cycles,
        s.ipc()
    );
    if let Some(unit) = pipe.itr() {
        let i = unit.stats();
        println!(
            "-- ITR: {} traces, {} cache hits, {} misses, {} mismatches",
            i.traces_committed,
            unit.cache().stats().hits,
            unit.cache().stats().misses,
            i.mismatches
        );
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing program file")?;
    let program = load(path)?;
    let mut labels: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (name, addr) in program.symbols() {
        labels.entry(addr).or_default().push(name);
    }
    for (i, &word) in program.text().iter().enumerate() {
        let addr = program.text_base() + i as u64 * 4;
        if let Some(names) = labels.get(&addr) {
            for n in names {
                println!("{n}:");
            }
        }
        match itr::isa::decode(word) {
            Ok(inst) => println!("  {addr:#010x}: {:08x}  {}", word, disasm::disassemble(&inst)),
            Err(_) => println!("  {addr:#010x}: {word:08x}  <undefined>"),
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing program file")?;
    let program = load(path)?;
    let instrs = opt(args, "--instrs")?.unwrap_or(1_000_000);
    // BTreeMap: ties in the hotness sort below break by PC, not by
    // the per-process hash seed.
    let mut by_trace: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut coverage = CoverageModel::new(ItrCacheConfig::paper_default());
    for t in TraceStream::new(&program, instrs) {
        *by_trace.entry(t.start_pc).or_default() += t.len as u64;
        total += t.len as u64;
        coverage.observe(&t);
    }
    println!("dynamic instructions : {total}");
    println!("static traces        : {}", by_trace.len());
    let mut top: Vec<(u64, u64)> = by_trace.into_iter().collect();
    top.sort_unstable_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("hottest traces:");
    for (pc, n) in top.iter().take(10) {
        println!("  {pc:#010x}: {n} instrs ({:.1}%)", *n as f64 * 100.0 / total as f64);
    }
    let r = coverage.report();
    println!(
        "ITR coverage loss (1024x2-way): detection {:.2}%, recovery {:.2}%",
        r.detection_loss_pct(),
        r.recovery_loss_pct()
    );
    Ok(())
}

fn cmd_inject(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing program file")?;
    let program = load(path)?;
    let fault = DecodeFault {
        nth_decode: opt(args, "--nth")?.ok_or("--nth required")?,
        bit: itr::isa::DecodeSignals::checked_bit(opt(args, "--bit")?.ok_or("--bit required")?)?,
    };
    println!(
        "injecting bit {} ({}) of decode #{}",
        fault.bit,
        itr::isa::DecodeSignals::field_of_bit(fault.bit),
        fault.nth_decode
    );
    let cfg =
        if flag(args, "--no-itr") { PipelineConfig::default() } else { PipelineConfig::with_itr() };
    let mut pipe = Pipeline::new(&program, cfg);
    pipe.arm(fault.into());
    let exit = pipe.run(opt(args, "--max-cycles")?.unwrap_or(10_000_000));
    println!("output: {:?}", pipe.output());
    println!("exit  : {exit:?}");
    if let Some(unit) = pipe.itr() {
        let s = unit.stats();
        println!(
            "ITR   : {} mismatches, {} retries, {} recoveries, {} machine checks",
            s.mismatches, s.retries, s.recoveries, s.machine_checks
        );
    }
    for (cycle, e) in pipe.itr_events() {
        println!("  cycle {cycle:>7}: {e:?}");
    }
    if !pipe.spc_violations().is_empty() {
        println!("spc violations: {}", pipe.spc_violations().len());
    }
    Ok(())
}

fn cmd_kernels(args: &[String]) -> CliResult {
    match args.first() {
        None => {
            for k in kernels::all() {
                println!("{:<14} expected output: {}", k.name, k.expected_output);
            }
            Ok(())
        }
        Some(name) => {
            let k = kernels::by_name(name).ok_or("unknown kernel")?;
            println!("{}", k.source);
            Ok(())
        }
    }
}

fn cmd_mimic(args: &[String]) -> CliResult {
    let name = args.first().ok_or("missing benchmark name")?;
    let profile = profiles::by_name(name).ok_or_else(|| {
        format!(
            "unknown benchmark; known: {}",
            profiles::all().iter().map(|p| p.name).collect::<Vec<_>>().join(", ")
        )
    })?;
    let instrs = opt(args, "--instrs")?.unwrap_or(200_000);
    let seed = opt(args, "--seed")?.unwrap_or(42);
    let program = generate_mimic_sized(profile, seed, instrs);
    println!(
        "generated `{}` mimic: {} static instructions, {} data bytes",
        profile.name,
        program.len(),
        program.data().len()
    );
    let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
    let exit = pipe.run(instrs * 20);
    let s = pipe.stats();
    println!(
        "ran {} instructions in {} cycles (IPC {:.2}), exit {exit:?}",
        s.committed,
        s.cycles,
        s.ipc()
    );
    let unit = pipe.itr().expect("itr on");
    println!(
        "ITR: {} traces, hit rate {:.1}%, recovery-coverage loss {:.2}%",
        unit.stats().traces_committed,
        unit.cache().stats().hits as f64 * 100.0 / unit.cache().stats().reads.max(1) as f64,
        unit.stats().recovery_loss_instrs as f64 * 100.0
            / unit.stats().instrs_committed.max(1) as f64
    );
    Ok(())
}
