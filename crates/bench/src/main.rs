//! `ltpg-bench` — the one experiment binary.
//!
//! ```text
//! ltpg-bench list                                   # the experiments
//! ltpg-bench run <experiment>... [--smoke|--full]   # run, print, write results/[smoke/]<name>.json
//! ltpg-bench all                                    # `run` every experiment
//! ltpg-bench check <experiment> [--smoke]           # hold the written record to its invariants
//! ```
//!
//! Tables go to stdout and progress to stderr, so
//! `ltpg-bench all > results/all_default.txt` regenerates that file. `run`
//! and `all` end by printing the process's peak resident set (`VmHWM`) to
//! stderr, which CI holds `all --smoke` to.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use ltpg_bench::experiments::{find, Experiment, EXPERIMENTS};
use ltpg_bench::record::{Record, Scale};

fn usage(problem: &str) -> ExitCode {
    eprintln!("ltpg-bench: {problem}");
    eprintln!("usage: ltpg-bench list | run <experiment>... [--smoke|--full] | all | check <experiment> [--smoke]");
    eprintln!("experiments:");
    for e in &EXPERIMENTS {
        eprintln!("  {:<14} {}", e.name, e.about);
    }
    ExitCode::from(2)
}

fn run(e: &Experiment, scale: Scale) -> Result<(), String> {
    eprintln!("[ltpg-bench] {} ({}) ...", e.name, scale.name());
    let started = Instant::now();
    let rec = (e.run)(scale);
    rec.print();
    let path = rec.write().map_err(|err| format!("writing the {} record: {err}", e.name))?;
    eprintln!("[ltpg-bench] {}: {:.1?}, record at {}", e.name, started.elapsed(), path.display());
    Ok(())
}

fn check(e: &Experiment, scale: Scale) -> Result<(), String> {
    let rec = Record::load(e.name, scale)?;
    if let Some(invariants) = e.check {
        invariants(&rec)?;
    }
    println!("{} OK: {} rows, {} record", e.name, rec.rows.len(), rec.scale.name());
    Ok(())
}

/// The process's peak resident set in kB (`VmHWM`, Linux only).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

fn main() -> ExitCode {
    let mut scale = Scale::Default;
    let mut words = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            _ => words.push(arg),
        }
    }
    let Some((command, names)) = words.split_first() else {
        return usage("no command");
    };
    let mut chosen = Vec::new();
    for name in names {
        match find(name) {
            Some(e) => chosen.push(e),
            None => return usage(&format!("unknown experiment {name}")),
        }
    }
    let outcome = match (command.as_str(), chosen.as_slice()) {
        ("list", []) => {
            EXPERIMENTS.iter().for_each(|e| println!("{:<14} {}", e.name, e.about));
            Ok(())
        }
        ("all", []) => EXPERIMENTS.iter().try_for_each(|e| run(e, scale)),
        ("run", [_, ..]) => chosen.iter().try_for_each(|e| run(e, scale)),
        ("check", [e]) => check(e, scale),
        _ => return usage(&format!("cannot `{command}` {} experiment(s)", chosen.len())),
    };
    if let (Some(kb), "all" | "run") = (peak_rss_kb(), command.as_str()) {
        eprintln!("[ltpg-bench] VmHWM: {kb} kB");
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("ltpg-bench: {problem}");
            ExitCode::FAILURE
        }
    }
}
