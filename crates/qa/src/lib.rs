//! Deterministic differential fuzzing for the LTPG stack (`ltpg-qa`).
//!
//! A seeded generator ([`gen::generate`]) produces self-contained cases —
//! random schemas, mixed YCSB/TPC-C-fragment schedules with inserts and
//! deletes, and the layers of the stack to run them on — and the runner
//! ([`run::run_case`]) pushes each case through execution paths that must
//! agree bit-for-bit:
//!
//! * the simulated-GPU [`LtpgEngine`](ltpg::LtpgEngine) and the unscoped
//!   [`CpuTwin`](ltpg::CpuTwin),
//! * a directly fed single-device server and the system under test built
//!   from the case's layers (front-end or direct ingress × 1/2/4 shards ×
//!   standbys × rebalance cutover × device loss × host threads), in
//!   lockstep,
//! * WAL replay of the single device's log, and
//! * the Block-STM and address-graph schedulers against serial replay,
//!
//! with the serializability oracle auditing every committed batch. Any
//! disagreement is a typed [`Divergence`]; the shrinker ([`shrink::shrink`])
//! minimizes the case by greedy delta-debugging and the repro format
//! ([`repro`]) persists it under `tests/repros/` where a `#[test]` loader
//! replays it forever after.
//!
//! Everything — generation, execution, shrinking — is a pure function of
//! the seed, so `qa_fuzz --start S --seeds N` is exactly reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod case;
pub mod gen;
pub mod repro;
pub mod run;
pub mod shrink;

pub use case::{QaCase, ShardRule, TableSpec};
pub use run::{run_case, CaseOutcome, Cell, Divergence};
pub use shrink::{shrink, Shrunk};

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ltpg_telemetry::{names, Registry};

/// Options for a fuzzing run.
#[derive(Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of consecutive seeds to run.
    pub seeds: u64,
    /// Where to write minimized repro files (`None` disables writing).
    pub repro_dir: Option<PathBuf>,
    /// Telemetry registry for the `qa.*` counters.
    pub registry: Arc<Registry>,
}

/// One divergence found (and minimized) during a fuzzing run.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Seed of the original case.
    pub seed: u64,
    /// The divergence exhibited by the minimized case.
    pub divergence: Divergence,
    /// The minimized case.
    pub minimized: QaCase,
    /// Candidate evaluations the shrinker spent.
    pub shrink_steps: u64,
    /// Where the repro was written, if a directory was configured.
    pub repro_path: Option<PathBuf>,
}

/// Summary of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Transactions across all cases.
    pub txns: u64,
    /// Every divergence found, minimized.
    pub divergences: Vec<FoundDivergence>,
    /// Clean cases that fired each cell, indexed by `cell as usize`.
    pub cell_cases: [u64; Cell::ALL.len()],
}

/// Run `opts.seeds` consecutive cases, shrinking and persisting every
/// divergence. Deterministic in `opts`.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let registry = &opts.registry;
    let mut report = FuzzReport::default();
    for seed in opts.start_seed..opts.start_seed + opts.seeds {
        let case = gen::generate(seed);
        registry.counter(names::QA_CASES).inc();
        registry.counter(names::QA_TXNS).add(case.txns.len() as u64);
        report.cases += 1;
        report.txns += case.txns.len() as u64;
        if let Ok(outcome) = run_case(&case) {
            outcome.cells.into_iter().for_each(|cell| report.cell_cases[cell as usize] += 1);
            continue;
        }
        registry.counter(names::QA_DIVERGENCES).inc();
        // `run_case` is deterministic, so the shrinker re-observes the
        // divergence on its first evaluation.
        let shrunk = shrink::shrink(&case).expect("divergent case must shrink");
        registry.counter(names::QA_SHRINK_STEPS).add(shrunk.steps);
        let repro_path = opts.repro_dir.as_ref().map(|dir| {
            let path = dir.join(format!("fuzz-seed-{seed}.repro"));
            repro::write_file(&path, &shrunk.case).expect("write repro file");
            registry.counter(names::QA_REPROS_WRITTEN).inc();
            path
        });
        report.divergences.push(FoundDivergence {
            seed,
            divergence: shrunk.divergence,
            minimized: shrunk.case,
            shrink_steps: shrunk.steps,
            repro_path,
        });
    }
    report
}

/// Replay one repro file; `Err` carries the parse failure or divergence.
pub fn replay_file(path: &Path) -> Result<CaseOutcome, String> {
    let case = repro::load_file(path)?;
    run_case(&case).map_err(|d| format!("{}: {d}", path.display()))
}

/// Replay every `*.repro` file in `dir` (sorted by name; an absent or empty
/// directory passes vacuously). Returns the outcomes, or a message naming
/// every file that failed.
pub fn replay_dir(dir: &Path) -> Result<Vec<(PathBuf, CaseOutcome)>, String> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "repro"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    let mut outcomes = Vec::with_capacity(files.len());
    let mut failures = Vec::new();
    for path in files {
        match replay_file(&path) {
            Ok(outcome) => outcomes.push((path, outcome)),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(outcomes)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        for seed in [0u64, 1, 7, 1234] {
            assert_eq!(gen::generate(seed), gen::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_cases_round_trip_through_repro_format() {
        for seed in 0..20u64 {
            let case = gen::generate(seed);
            let text = repro::to_text(&case);
            let parsed = repro::from_text(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(case, parsed, "seed {seed} did not round-trip");
        }
    }

    #[test]
    fn smoke_seeds_run_clean() {
        let report = fuzz(&FuzzOptions {
            start_seed: 0,
            seeds: 10,
            repro_dir: None,
            registry: Registry::new_shared(),
        });
        assert_eq!(report.cases, 10);
        assert!(report.txns > 0);
        if let Some(d) = report.divergences.first() {
            panic!("seed {} diverged: {}", d.seed, d.divergence);
        }
    }

    #[test]
    fn fuzz_records_telemetry() {
        let reg = Registry::new_shared();
        let _ = fuzz(&FuzzOptions {
            start_seed: 100,
            seeds: 3,
            repro_dir: None,
            registry: Arc::clone(&reg),
        });
        assert_eq!(reg.counter_value(names::QA_CASES), 3);
        assert!(reg.counter_value(names::QA_TXNS) > 0);
    }

    /// A case on one 8-row table whose schedule is mostly `Delete` and
    /// constant-key `Insert` over the same 8 keys. Hand-built rather than a
    /// generator mode, so no existing seed maps to a new case.
    ///
    /// An 8-row table has a 16-slot primary index in which keys 4 and 5
    /// share a home slot, so one of them sits beyond the other on the probe
    /// path — where a tombstone once hid the live copy from `insert`. Half
    /// the key draws are one of the two. Row slots are never reused, so the
    /// schedule holds at most `8 - rows` inserts.
    fn insert_after_delete_case(seed: u64) -> QaCase {
        use ltpg_storage::{ColId, TableId};
        use ltpg_txn::{IrOp, ProcId, Src, Txn};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1AD0 ^ seed);
        let table = TableId(0);
        let insert =
            |k: i64, v: i64| IrOp::Insert { table, key: Src::Const(k), values: vec![Src::Const(v)] };
        let delete = |k: i64| IrOp::Delete { table, key: Src::Const(k) };
        let read = |k: i64| IrOp::Read { table, key: Src::Const(k), col: ColId(0), out: 0 };
        let txn = |ops: Vec<IrOp>| Txn::new(ProcId(0), vec![], ops);

        let batch_size = [4usize, 8][(seed % 2) as usize];
        let mut rows = vec![(4i64, vec![40i64]), (5, vec![50])];
        if seed % 4 >= 2 {
            rows.push((rng.gen_range(0..4i64), vec![7]));
        }
        let (a, b) = ([4i64, 5][(seed % 2) as usize], [5i64, 4][(seed % 2) as usize]);
        // Batch 0 deletes `a` and re-inserts it (two transactions, so the
        // insert re-enters after losing to the delete), and deletes and
        // re-inserts `b` inside one transaction; batch 1 opens by inserting
        // `a` again, live or not by then.
        let mut txns =
            vec![txn(vec![delete(a)]), txn(vec![insert(a, 10)]), txn(vec![delete(b), insert(b, 11)])];
        txns.resize_with(batch_size, || txn(vec![read(b)]));
        txns.push(txn(vec![insert(a, 12)]));
        let mut inserts_left = 8 - rows.len() - 3;
        for i in 0..rng.gen_range(8..=16i64) {
            let ops = (0..rng.gen_range(1..=2))
                .map(|_| {
                    let k = if rng.gen_bool(0.5) { [a, b][rng.gen_range(0..2usize)] } else { rng.gen_range(0..8i64) };
                    match rng.gen_range(0..10u32) {
                        0..=3 if inserts_left > 0 => {
                            inserts_left -= 1;
                            insert(k, 100 + i)
                        }
                        0..=8 => delete(k),
                        _ => read(k),
                    }
                })
                .collect();
            txns.push(txn(ops));
        }
        QaCase {
            seed,
            tables: vec![TableSpec {
                name: "T0".to_string(),
                cols: 1,
                capacity: 8,
                ordered: seed % 8 == 7,
                rule: [ShardRule::Hash, ShardRule::Stride(1), ShardRule::Replicated][(seed % 3) as usize],
                rows,
            }],
            txns,
            batch_size,
            shards: 1,
            pipelined: seed % 4 >= 2,
            checkpoint_every: (seed % 5 == 4).then_some(2),
            fail_shard: None,
            standbys: 0,
            commutative_t0c0: false,
            via_front: seed % 3 == 1,
            via_schedulers: true,
            // A cutover migrates rows into tables that have no slots to spare.
            via_rebalance: false,
            host_threads: 1,
        }
    }

    #[test]
    fn insert_after_delete_heavy_cases_run_clean_at_every_shard_count() {
        for seed in 0..48u64 {
            for shards in [1u32, 2, 4] {
                let case = QaCase { shards, ..insert_after_delete_case(seed) };
                if let Err(d) = run_case(&case) {
                    panic!("seed {seed} at {shards} shard(s) diverged: {d}\n{}", repro::to_text(&case));
                }
            }
        }
    }

    #[test]
    fn repro_parser_rejects_malformed_input() {
        assert!(repro::from_text("").is_err(), "empty file");
        assert!(repro::from_text("version 2\n").is_err(), "future version");
        assert!(
            repro::from_text("version 1\ntable T0 cols=1 capacity=8 ordered=false rule=hash\nrow 0 1 = 2 3\n")
                .is_err(),
            "row wider than table"
        );
        assert!(
            repro::from_text("version 1\ntable T0 cols=1 capacity=8 ordered=false rule=hash\ntxn proc=0\n  op read t=0 key=c:0 col=0 out=0\n")
                .is_err(),
            "unterminated txn"
        );
        // A zero count is named on its line rather than failing later:
        // zero shards panics building the partitioner, a zero batch size
        // forms empty batches until the tick cap.
        let table = "table T0 cols=1 capacity=8 ordered=false rule=hash\n";
        for directive in ["shards 0", "batch_size 0", "host_threads 0"] {
            let e = repro::from_text(&format!("version 1\n{table}{directive}\n"))
                .expect_err(directive);
            assert_eq!(e.line, 3, "{directive}: {e}");
        }
    }
}
