//! Differential fuzzing driver over the `ltpg-qa` harness.
//!
//! Runs N consecutive seeds through every execution path (the engine
//! against an exact min-TID reference, the layered system under test
//! against a single-device reference, WAL replay, rival schedulers,
//! serializability oracle), shrinks any
//! divergence and writes the minimized repro under `tests/repros/` where
//! the `qa_repros` test will replay it forever. Prints how many clean
//! cases fired each cell of the layer cross-product. Exits nonzero iff a
//! divergence was found or, under `--smoke`, a cell fired in fewer than
//! `SMOKE_FLOOR` cases.
//!
//! ```text
//! qa_fuzz --smoke            # CI gate: 50 seeds, every cell covered
//! qa_fuzz --seeds 500        # the acceptance sweep
//! qa_fuzz --start 1000 --seeds 100 --repro-dir /tmp/repros
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;

use ltpg_qa::Cell;
use ltpg_telemetry::{names, Registry};

/// Cases each cell must fire in on the 50 smoke seeds.
const SMOKE_FLOOR: u64 = 1;

struct Args {
    start: u64,
    seeds: u64,
    smoke: bool,
    repro_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args { start: 0, seeds: 50, smoke: false, repro_dir: PathBuf::from("tests/repros") };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut want = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} wants a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => (args.seeds, args.smoke) = (50, true),
            "--seeds" => {
                args.seeds = want("--seeds").parse().expect("--seeds wants a number")
            }
            "--start" => {
                args.start = want("--start").parse().expect("--start wants a number")
            }
            "--repro-dir" => args.repro_dir = PathBuf::from(want("--repro-dir")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: qa_fuzz [--smoke | --seeds N] [--start S] [--repro-dir DIR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let registry = Registry::new_shared();
    eprintln!(
        "[qa_fuzz] fuzzing seeds {}..{} (repros -> {})",
        args.start,
        args.start + args.seeds,
        args.repro_dir.display()
    );
    let report = ltpg_qa::fuzz(&ltpg_qa::FuzzOptions {
        start_seed: args.start,
        seeds: args.seeds,
        repro_dir: Some(args.repro_dir),
        registry: Arc::clone(&registry),
    });
    println!(
        "[qa_fuzz] {} cases, {} transactions, {} divergences, {} shrink steps",
        report.cases,
        report.txns,
        report.divergences.len(),
        registry.counter_value(names::QA_SHRINK_STEPS),
    );
    for d in &report.divergences {
        println!(
            "[qa_fuzz] seed {} DIVERGED: {} (minimized to {} txns in {} steps{})",
            d.seed,
            d.divergence,
            d.minimized.txns.len(),
            d.shrink_steps,
            d.repro_path
                .as_ref()
                .map(|p| format!("; repro: {}", p.display()))
                .unwrap_or_default(),
        );
    }
    let mut thin = Vec::new();
    for (cell, n) in Cell::ALL.iter().zip(report.cell_cases) {
        println!("[qa_fuzz] cell {:<24} {n:>5} cases", format!("{cell:?}"));
        if args.smoke && n < SMOKE_FLOOR {
            thin.push(cell);
        }
    }
    if !report.divergences.is_empty() {
        std::process::exit(1);
    }
    if !thin.is_empty() {
        println!("[qa_fuzz] cells under the smoke floor of {SMOKE_FLOOR} case(s): {thin:?}");
        std::process::exit(1);
    }
    println!("[qa_fuzz] all seeds clean");
}
