//! TPC-C consistency conditions across multi-batch runs with abort
//! re-queuing, for LTPG in several configurations and under the pipelined
//! batch schedule.

use ltpg::{drive_stream, LtpgEngine, OptFlags};
use ltpg_bench::{ltpg_tpcc_config, run_stream, SystemKind};
use ltpg_gpu_sim::Pipeline;
use ltpg_telemetry::Registry;
use ltpg_txn::{BatchEngine, TidGen};
use ltpg_workloads::tpcc::check_invariants;
use ltpg_workloads::{TpccConfig, TpccGenerator};

#[test]
fn invariants_hold_across_batches_with_requeue() {
    for pct in [50u8, 0, 100] {
        let cfg = TpccConfig::new(2, pct).with_headroom(16_384);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
        let out = run_stream(&mut engine, &Registry::new(), &mut |n| gen.gen_batch(n), 4, 512);
        assert!(out.committed > 0);
        check_invariants(engine.database(), &tables, 2)
            .unwrap_or_else(|e| panic!("mix {pct}: {e}"));
    }
}

#[test]
fn invariants_hold_without_optimizations() {
    // The unenhanced engine aborts heavily on Payment, but whatever commits
    // must still keep the books balanced.
    let cfg = TpccConfig::new(2, 50).with_headroom(8_192);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::none()));
    let out = run_stream(&mut engine, &Registry::new(), &mut |n| gen.gen_batch(n), 3, 512);
    assert!(out.abort_events > 0, "unenhanced engine should abort under contention");
    check_invariants(engine.database(), &tables, 2).unwrap();
}

#[test]
fn invariants_hold_under_pipelined_schedule() {
    // Aborts re-enter two batches later; consistency must be unaffected.
    let cfg = TpccConfig::new(2, 50).with_headroom(16_384);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
    let mut pipe = Pipeline::new();
    let out = drive_stream(|n| gen.gen_batch(n), 6, 512, true, |batch| {
        let rws = engine.execute_batch_report(batch);
        pipe.push(rws.stats.stages());
        rws.report
    });
    assert!(out.committed > 0);
    assert!(pipe.overlapped_makespan_ns() <= pipe.serial_makespan_ns());
    check_invariants(engine.database(), &tables, 2).unwrap();
}

#[test]
fn warehouse_ytd_equals_committed_payment_amounts() {
    // Cross-check the delayed-update path end to end: the sum of W_YTD
    // deltas must equal the sum of committed Payment amounts.
    use ltpg_txn::Batch;
    use ltpg_workloads::tpcc::{cols, PROC_PAYMENT};

    let cfg = TpccConfig::new(2, 0).with_headroom(8_192);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let initial: i64 = (1..=2)
        .map(|w| {
            let t = db.table(tables.warehouse);
            t.get(t.lookup(w).unwrap(), cols::W_YTD)
        })
        .sum();
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 1_024, OptFlags::all()));
    let mut tids = TidGen::new();
    let batch = Batch::assemble(vec![], gen.gen_batch(1_024), &mut tids);
    let report = engine.execute_batch(&batch);
    let committed_amount: i64 = report
        .committed
        .iter()
        .map(|t| batch.by_tid(*t).unwrap())
        .filter(|t| t.proc == PROC_PAYMENT)
        .map(|t| t.params[5]) // h_amount
        .sum();
    let final_sum: i64 = (1..=2)
        .map(|w| {
            let t = engine.database().table(tables.warehouse);
            t.get(t.lookup(w).unwrap(), cols::W_YTD)
        })
        .sum();
    assert_eq!(final_sum - initial, committed_amount);
}

#[test]
fn all_engines_preserve_invariants_over_a_stream() {
    for kind in SystemKind::ALL {
        let cfg = TpccConfig::new(2, 50).with_headroom(8_192).with_seed(33);
        let (db, tables, mut gen) = TpccGenerator::new(cfg);
        let mut engine = ltpg_bench::build_tpcc_engine(kind, db, &tables, 256);
        let out = run_stream(&mut *engine, &Registry::new(), &mut |n| gen.gen_batch(n), 3, 256);
        assert!(out.committed > 0, "{}", kind.name());
        check_invariants(engine.database(), &tables, 2)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn full_five_transaction_mix_runs_serializably_on_ltpg() {
    use ltpg_txn::oracle::check_snapshot_serializable;
    use ltpg_txn::{Batch, Txn};

    let cfg = TpccConfig::new(2, 50).with_full_mix().with_headroom(8_192);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let pre = db.deep_clone();
    let mut engine = LtpgEngine::new(db, ltpg_tpcc_config(&tables, 512, OptFlags::all()));
    let mut tids = TidGen::new();
    // Two batches so Delivery in batch 2 finds orders created in batch 1.
    let mut pre_batch = pre;
    for round in 0..2 {
        let batch = Batch::assemble(vec![], gen.gen_batch(512), &mut tids);
        let report = engine.execute_batch(&batch);
        assert!(report.commit_rate(batch.len()) > 0.5, "round {round}");
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre_batch, &committed, engine.database())
            .unwrap_or_else(|v| panic!("round {round}: {v:?}"));
        check_invariants(engine.database(), &tables, 2).unwrap();
        pre_batch = engine.database().deep_clone();
    }
    // Delivery really delivered something across the run.
    use ltpg_workloads::tpcc::cols;
    let orders = engine.database().table(tables.orders);
    let delivered = (0..orders.len())
        .filter(|&r| {
            let rid = ltpg_storage::RowId(r as u32);
            orders.key_of(rid).is_some() && orders.get(rid, cols::O_CARRIER_ID) != 0
        })
        .count();
    assert!(delivered > 0, "no orders were delivered over two full-mix batches");
}
