//! A busy evening at the warehouse: TPC-C through LTPG, end to end.
//!
//! Streams mixed NewOrder/Payment batches through the engine, re-queues
//! aborts with their original TIDs, and verifies the TPC-C consistency
//! conditions after every batch — `W_YTD = Σ D_YTD`, order counts vs
//! `D_NEXT_O_ID`, and ORDERS ↔ NEW_ORDER ↔ ORDER_LINE correspondence.
//!
//! Run with: `cargo run --release -p ltpg --example tpcc_store`

use ltpg::{drive_stream, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_txn::BatchEngine;
use ltpg_workloads::tpcc::{check_invariants, cols, PROC_NEWORDER};
use ltpg_workloads::{TpccConfig, TpccGenerator};

fn main() {
    let warehouses = 4i64;
    let batch_size = 2_048usize;
    let batches = 6usize;

    let cfg = TpccConfig::new(warehouses, 50).with_headroom(batch_size * batches * 2);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    println!("populated {} warehouses ({} stock rows)", warehouses, db.table(tables.stock).live_rows());

    // Hot columns: D_NEXT_O_ID is a sequencer; W_YTD / D_YTD get conflict
    // splitting + delayed update.
    let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
    lcfg.max_batch = batch_size;
    lcfg.est_accesses_per_txn = 12;
    lcfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    lcfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    lcfg.delayed_cols.insert((tables.district, cols::D_YTD));
    lcfg.premarked_popular.insert(tables.warehouse);
    lcfg.premarked_popular.insert(tables.district);
    let mut engine = LtpgEngine::new(db, lcfg);

    let mut committed_total = 0usize;
    let mut i = 0;
    drive_stream(|n| gen.gen_batch(n), batches, batch_size, false, |batch| {
        i += 1;
        let rws = engine.execute_batch_report(batch);
        committed_total += rws.report.committed.len();
        let neworders = rws
            .report
            .committed
            .iter()
            .filter(|t| batch.by_tid(**t).unwrap().proc == PROC_NEWORDER)
            .count();
        println!(
            "batch {i}: {}/{} committed ({} NewOrder), {:.0} µs simulated, {} delayed adds merged",
            rws.report.committed.len(),
            batch.len(),
            neworders,
            rws.stats.total_ns() / 1e3,
            rws.stats.delayed_ops_applied,
        );
        // The books must balance after every batch.
        check_invariants(engine.database(), &tables, warehouses).expect("TPC-C invariants");
        rws.report
    });
    println!("total committed: {committed_total}; invariants held after every batch");
}
