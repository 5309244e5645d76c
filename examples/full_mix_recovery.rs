//! The extensions tour: full five-transaction TPC-C and deterministic
//! recovery.
//!
//! The paper benchmarks only NewOrder/Payment and leaves range queries as
//! future work ("LTPG can be readily extended to support range queries, by
//! integrating indexing, such as B-trees"). This reproduction builds that
//! extension: ordered B+tree indexes, range-scan IR operations with
//! Aria-style phantom protection, and the three remaining TPC-C
//! transactions (Delivery, OrderStatus, StockLevel). It also implements
//! the paper's durability story: batches logged with their original TIDs
//! replay to a bit-identical database.
//!
//! Run with: `cargo run --release -p ltpg --example full_mix_recovery`

use ltpg::{drive_stream, DurabilityManager, LtpgConfig, LtpgEngine, OptFlags};
use ltpg_txn::BatchEngine;
use ltpg_workloads::tpcc::{
    check_invariants, cols, PROC_DELIVERY, PROC_NEWORDER, PROC_ORDERSTATUS, PROC_PAYMENT,
    PROC_STOCKLEVEL,
};
use ltpg_workloads::{TpccConfig, TpccGenerator};

fn main() {
    let warehouses = 2i64;
    let batch_size = 1_024usize;

    // Full official mix: 45 % NewOrder, 43 % Payment, 4 % each of
    // OrderStatus / Delivery / StockLevel.
    let cfg = TpccConfig::new(warehouses, 50).with_full_mix().with_headroom(batch_size * 16);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);

    let mut lcfg = LtpgConfig::with_opts(OptFlags::all());
    lcfg.max_batch = batch_size;
    lcfg.est_accesses_per_txn = 24; // Delivery/StockLevel scan ranges
    lcfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    lcfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    lcfg.delayed_cols.insert((tables.district, cols::D_YTD));
    lcfg.premarked_popular.insert(tables.warehouse);
    lcfg.premarked_popular.insert(tables.district);

    let mut dur = DurabilityManager::new(&db);
    let mut engine = LtpgEngine::new(db, lcfg.clone());
    let mut i = 0;
    drive_stream(|n| gen.gen_batch(n), 5, batch_size, false, |batch| {
        i += 1;
        dur.log_batch(batch);
        let report = engine.execute_batch_report(batch);
        let mut per_proc = [0usize; 5];
        for tid in &report.report.committed {
            let p = batch.by_tid(*tid).unwrap().proc;
            for (slot, proc) in
                [PROC_NEWORDER, PROC_PAYMENT, PROC_DELIVERY, PROC_ORDERSTATUS, PROC_STOCKLEVEL]
                    .iter()
                    .enumerate()
            {
                if p == *proc {
                    per_proc[slot] += 1;
                }
            }
        }
        println!(
            "batch {i}: {}/{} committed (NO {} / Pay {} / Dlv {} / OS {} / SL {}), {:.0} µs",
            report.report.committed.len(),
            batch.len(),
            per_proc[0],
            per_proc[1],
            per_proc[2],
            per_proc[3],
            per_proc[4],
            report.stats.total_ns() / 1e3,
        );
        check_invariants(engine.database(), &tables, warehouses).expect("TPC-C invariants");
        if i == 3 {
            dur.checkpoint(engine.database());
            // No standby is shipped these frames: the checkpoint is the
            // watermark below which no reader asks for one.
            dur.retire_below(dur.checkpoint_batch());
            let copied = dur.last_checkpoint();
            println!(
                "  -- checkpoint taken after batch 3 ({} rows copied, {}), the frames it \
                 covers retired; the image holds {} KB of rows and no index --",
                copied.rows,
                if copied.full { "full copy" } else { "delta" },
                dur.image_resident_bytes() / 1024,
            );
        }
        report.report
    });

    // Crash! Rebuild from the checkpoint + log and compare.
    let live_digest = engine.database().state_digest();
    let recovered = dur.recover(lcfg).expect("recovery").db;
    println!(
        "recovery: {} batches logged ({} KB, {} KB resident from batch {}), recovered digest {} live digest {}",
        dur.logged_batches(),
        dur.log_bytes() / 1024,
        dur.log().disk_len() / 1024,
        dur.log().first_retained(),
        recovered.state_digest(),
        live_digest,
    );
    assert_eq!(recovered.state_digest(), live_digest, "deterministic recovery must be exact");
    println!("recovered state is bit-identical to the lost live state");
}
