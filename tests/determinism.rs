//! Determinism: the paper's core guarantee is that the same input batch
//! with the same TIDs always produces the same commit set and final state
//! (that is what makes replica-free re-execution and log-based recovery
//! work). These tests re-run identical streams through fresh engines and
//! demand bit-identical outcomes — including across simulator host-thread
//! counts for LTPG.

use ltpg::{LtpgConfig, LtpgEngine, OptFlags};
use ltpg_bench::{build_tpcc_engine, ltpg_tpcc_config, run_stream, SystemKind};
use ltpg_txn::{Batch, BatchEngine, Tid, TidGen};
use ltpg_workloads::{TpccConfig, TpccGenerator};

fn tpcc_stream(
    kind: SystemKind,
    seed: u64,
    batches: usize,
    batch_size: usize,
) -> (Vec<Tid>, u64) {
    let cfg = TpccConfig::new(2, 50).with_headroom(batch_size * batches * 4).with_seed(seed);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let mut engine = build_tpcc_engine(kind, db, &tables, batch_size);
    let mut tids = TidGen::new();
    let mut committed = Vec::new();
    let mut requeued = Vec::new();
    for _ in 0..batches {
        let fresh = gen.gen_batch(batch_size - requeued.len());
        let batch = Batch::assemble(std::mem::take(&mut requeued), fresh, &mut tids);
        let report = engine.execute_batch(&batch);
        committed.extend(report.committed.iter().copied());
        requeued =
            report.aborted.iter().map(|t| batch.by_tid(*t).unwrap().clone()).collect();
    }
    (committed, engine.database().state_digest())
}

#[test]
fn ltpg_is_deterministic_across_runs() {
    let a = tpcc_stream(SystemKind::Ltpg, 7, 3, 512);
    let b = tpcc_stream(SystemKind::Ltpg, 7, 3, 512);
    assert_eq!(a.0, b.0, "commit sets must be identical");
    assert_eq!(a.1, b.1, "final states must be identical");
    // A different seed must (overwhelmingly) differ.
    let c = tpcc_stream(SystemKind::Ltpg, 8, 3, 512);
    assert_ne!(a.1, c.1);
}

#[test]
fn ltpg_is_deterministic_across_host_parallelism() {
    let run = |threads: usize| {
        let cfg = TpccConfig::new(2, 50).with_headroom(8_192).with_seed(3);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut lcfg = ltpg_tpcc_config(&tables, 512, OptFlags::all());
        lcfg.device.parallel_host_threads = threads;
        let mut engine = LtpgEngine::new(db, lcfg);
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], gen.gen_batch(512), &mut tids);
        let report = engine.execute_batch(&batch);
        (report.committed.clone(), engine.database().state_digest())
    };
    let seq = run(1);
    for threads in [2, 4] {
        let par = run(threads);
        assert_eq!(seq.0, par.0, "commit set must not depend on host threading ({threads})");
        assert_eq!(seq.1, par.1, "state must not depend on host threading ({threads})");
    }
}

#[test]
fn deterministic_baselines_are_deterministic() {
    for kind in [SystemKind::Aria, SystemKind::Calvin, SystemKind::Bohm, SystemKind::Pwv, SystemKind::Gputx, SystemKind::Gacco] {
        let a = tpcc_stream(kind, 11, 2, 256);
        let b = tpcc_stream(kind, 11, 2, 256);
        assert_eq!(a.0, b.0, "{} commit set varies across runs", kind.name());
        assert_eq!(a.1, b.1, "{} state varies across runs", kind.name());
    }
}

#[test]
fn ltpg_opt_configurations_remain_deterministic() {
    // Each optimization subset must be individually deterministic.
    for opts in [
        OptFlags::none(),
        OptFlags { warp_division: true, ..OptFlags::none() },
        OptFlags::all().with_contention_suite(false),
        OptFlags::all(),
    ] {
        let run = || {
            let cfg = TpccConfig::new(2, 0).with_headroom(4_096).with_seed(5);
            let (db, tables, mut gen) = TpccGenerator::new(cfg);
            let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 256, opts));
            let mut tids = TidGen::new();
            let batch = Batch::assemble(vec![], gen.gen_batch(256), &mut tids);
            let r = engine.execute_batch(&batch);
            (r.committed.clone(), engine.database().state_digest())
        };
        assert_eq!(run(), run(), "flags {opts:?} nondeterministic");
    }
    let _ = LtpgConfig::default();
}

#[test]
fn simulated_time_is_reproducible() {
    // With one host thread, even the simulated clock must be bit-stable.
    let run = || {
        let cfg = TpccConfig::new(1, 50).with_headroom(8_192).with_seed(9);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
        run_stream(&mut engine, &mut |n| gen.gen_batch(n), 2, 512).sim_ns
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "simulated time must be reproducible");
}
