//! Peak resident set of the TPC-C engine run.
//!
//! The `tpcc_engine` ledger workload (8 warehouses, 50 % NewOrder / 50 %
//! Payment, batches of 4 096) gives ORDERS, NEW_ORDER and HISTORY room for
//! 1.3 rows per planned transaction and ORDER_LINE 15 times that: a
//! 16.8 M-slot ORDER_LINE index and three 1 M-slot ones, 304 MiB, for the
//! ≈1.8 M rows a run inserts. A fresh table's index is a never-written
//! placeholder, laid out by the engine's first reservation of a batch's
//! inserts and grown from there, so the run pays for what it inserts.
//! NEW_ORDER and ORDER_LINE declare ordered indexes, but a table's B+tree
//! is built by its first range scan, and this mix never scans: neither
//! tree is built. The run's `VmHWM` is the guard.
//!
//! The one test is `#[ignore]`d (a release build takes seconds, a debug
//! one much longer) and alone in its target, so the peak it reads is its
//! own process's:
//!
//! ```text
//! cargo test --release -p ltpg-bench --test engine_peak -- --ignored
//! ```

mod common;

use common::peak_rss_mb;
use ltpg::{drive_stream, LtpgConfig, LtpgEngine};
use ltpg_txn::BatchEngine;
use ltpg_workloads::tpcc::cols;
use ltpg_workloads::{TpccConfig, TpccGenerator};

/// Batches the ledger plans for `tpcc_engine`, which size its headroom.
const LEDGER_BATCHES: usize = 74;
const BATCH: usize = 4_096;
/// Batches run here: ORDER_LINE's index is laid out by the first and grows
/// twice by the thirtieth.
const BATCHES: usize = 36;

/// The `tpcc_engine` shape, run for [`BATCHES`] closed-loop batches
/// (aborted transactions re-enter the next one), peaks under 400 MB. On a
/// 2-vCPU x86-64 VM (release build) it read 544.5 MB when every fresh
/// table's index was written for its whole capacity at load (ORDER_LINE's
/// 16 777 216 slots), 286–287 MB with placeholder indexes laid out by
/// reservation (ORDER_LINE's 524 288 slots, grown to 2 097 152), and
/// 270–271 MB with the B+trees of NEW_ORDER and ORDER_LINE left unbuilt
/// until a first scan (the same since; the run takes no checkpoint).
#[test]
#[ignore = "release-only memory guard: run with --release -- --ignored"]
fn the_tpcc_engine_run_peaks_under_400_mb() {
    let headroom = LEDGER_BATCHES * BATCH * 13 / 10;
    let wl = TpccConfig::new(8, 50).with_headroom(headroom).with_seed(5_001);
    let (db, tables, mut gen) = TpccGenerator::new(wl);
    let mut cfg =
        LtpgConfig { max_batch: BATCH, est_accesses_per_txn: 12, ..LtpgConfig::default() };
    cfg.commutative_cols.insert((tables.district, cols::D_NEXT_O_ID));
    cfg.delayed_cols.insert((tables.warehouse, cols::W_YTD));
    cfg.delayed_cols.insert((tables.district, cols::D_YTD));
    cfg.premarked_popular.insert(tables.warehouse);
    cfg.premarked_popular.insert(tables.district);
    let mut engine = LtpgEngine::new(db, cfg);

    let mut sizes = Vec::new();
    drive_stream(|n| gen.gen_batch(n), BATCHES, BATCH, false, |batch| {
        let report = engine.execute_batch(batch);
        let slots = engine.database().table(tables.order_line).index_slots();
        if sizes.last() != Some(&slots) {
            sizes.push(slots);
        }
        report
    });
    let peak = peak_rss_mb();
    println!("tpcc_engine, {BATCHES} batches: VmHWM {peak:.1} MB; ORDER_LINE index {sizes:?}");
    assert!(sizes.len() >= 3, "ORDER_LINE's index grew fewer than twice: {sizes:?}");
    for t in [tables.new_order, tables.order_line] {
        let table = engine.database().table(t);
        assert!(!table.ordered_is_built(), "{}'s B+tree was built", table.schema().name);
    }
    assert!(peak < 400.0, "the run peaked at {peak:.1} MB");
}
