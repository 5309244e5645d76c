//! Quickstart: a five-minute tour of LTPG.
//!
//! Builds a two-table database, submits one batch of transactions with a
//! deliberate write-write conflict, and walks through what the engine did:
//! which transactions committed, which aborted, and how the aborted one
//! succeeds on re-execution with its original TID. Finishes with the
//! server API and its telemetry: an end-of-run summary plus a JSONL
//! metrics export, read back and checked for the metrics a dashboard needs
//! (the CI telemetry-smoke job runs this example for that check).
//!
//! Run with: `cargo run -p ltpg --example quickstart`

use ltpg::{LtpgConfig, LtpgEngine, LtpgServer, ServerConfig};
use ltpg_storage::{ColId, Database, TableBuilder};
use ltpg_telemetry::export::{self, JsonValue};
use ltpg_telemetry::names;
use ltpg_txn::{Batch, BatchEngine, IrOp, ProcId, Src, TidGen, Txn};

fn main() {
    // 1. A tiny bank: accounts with a balance column.
    let mut db = Database::new();
    let accounts = db.add_table(
        TableBuilder::new("ACCOUNTS").columns(["BALANCE", "FLAGS"]).capacity(64).build(),
    );
    for id in 1..=10 {
        db.table_mut(accounts).insert(id, &[1_000, 0]).unwrap();
    }

    // 2. An engine with all optimizations on (the default).
    let mut engine = LtpgEngine::new(db, LtpgConfig::default());

    // 3. Three transactions; two of them overwrite account 1's balance.
    let set_balance = |key: i64, value: i64| {
        Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update {
                table: accounts,
                key: Src::Const(key),
                col: ColId(0),
                val: Src::Const(value),
            }],
        )
    };
    let mut tids = TidGen::new();
    let batch = Batch::assemble(
        vec![],
        vec![set_balance(1, 500), set_balance(1, 700), set_balance(2, 900)],
        &mut tids,
    );

    // 4. One call runs all three phases: execute, conflict detection,
    //    write-back — no read/write-set declaration needed.
    let report = engine.execute_batch(&batch);
    println!("batch 1: committed {:?}, aborted {:?}", report.committed, report.aborted);
    println!("         simulated latency {:.1} µs", report.sim_ns / 1e3);
    assert_eq!(report.committed.len(), 2, "the WAW pair admits only the min-TID writer");

    // 5. Deterministic OCC: the loser re-enters with its original TID and
    //    now wins (nothing smaller competes).
    let retry: Vec<Txn> =
        report.aborted.iter().map(|t| batch.by_tid(*t).unwrap().clone()).collect();
    let batch2 = Batch::assemble(retry, vec![], &mut tids);
    let report2 = engine.execute_batch(&batch2);
    println!("batch 2: committed {:?}, aborted {:?}", report2.committed, report2.aborted);
    assert_eq!(report2.committed.len(), 1);

    // 6. Final state: account 1 carries the *second* writer's value, since
    //    it re-executed after the first committed.
    let db = engine.database();
    let rid = db.table(accounts).lookup(1).unwrap();
    println!("account 1 balance: {}", db.table(accounts).get(rid, ColId(0)));
    assert_eq!(db.table(accounts).get(rid, ColId(0)), 700);

    // 7. The same workload through the server API: batching, durability
    //    logging and abort requeuing are handled for you — and every
    //    component publishes metrics to the server's telemetry registry.
    let mut db = Database::new();
    let accounts = db.add_table(
        TableBuilder::new("ACCOUNTS").columns(["BALANCE", "FLAGS"]).capacity(64).build(),
    );
    for id in 1..=10 {
        db.table_mut(accounts).insert(id, &[1_000, 0]).unwrap();
    }
    let mut server = LtpgServer::new(
        db,
        LtpgConfig::default(),
        ServerConfig { batch_size: 8, ..ServerConfig::default() },
    );
    for i in 0..32 {
        // Every fourth transaction fights over account 1 — some aborts.
        server.submit(set_balance(if i % 4 == 0 { 1 } else { i % 10 + 1 }, 100 * i));
    }
    server.drain(64);
    println!("\n-- server summary --\n{}", server.summary());

    // 8. Export the run's metrics as JSONL, read the file back and check
    //    it — exactly what a dashboard (or the CI smoke job) consumes.
    let path = std::path::Path::new("results").join("telemetry-quickstart.jsonl");
    export::write_jsonl(&path, server.telemetry()).expect("write telemetry export");
    let text = std::fs::read_to_string(&path).expect("read telemetry export back");
    let lines = export::validate_jsonl(&text).expect("export must be valid JSONL");
    assert_eq!(lines[0].get("type").and_then(JsonValue::as_str), Some("meta"));
    assert_eq!(lines[0].get("schema").and_then(JsonValue::as_str), Some(export::SCHEMA));
    for required in [
        names::LTPG_PHASE_H2D_NS,
        names::LTPG_PHASE_EXECUTE_NS,
        names::LTPG_PHASE_DETECT_NS,
        names::LTPG_PHASE_WRITEBACK_NS,
        names::LTPG_PHASE_D2H_NS,
        names::LTPG_BYTES_H2D,
        names::LTPG_BYTES_D2H,
        names::ABORT_CONFLICT_LOSER,
        names::ABORT_LOG_EXHAUSTED,
        names::ABORT_DELAYED_READ,
        names::ABORT_REORDER_REJECTED,
        names::FAULT_TRANSIENT_RETRIES,
        names::FAULT_FALLBACK_ACTIVATIONS,
        names::SERVER_BATCH_NS,
        names::GPU_KERNEL_LAUNCHES,
        names::LTPG_CONFLICT_LOG_RESIDENT_BYTES,
    ] {
        assert!(export::find_metric(&lines, required).is_some(), "export is missing {required}");
    }
    let batch = export::find_metric(&lines, names::SERVER_BATCH_NS).expect("server.batch_ns");
    let num = |key| batch.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    assert!(num("count") > 0.0, "no batch latency recorded");
    assert!(
        num("p50") <= num("p95") && num("p95") <= num("p99"),
        "batch latency percentiles out of order: {batch:?}"
    );
    println!("[telemetry written to {} — {} lines, checked]", path.display(), lines.len());
    println!("quickstart OK");
}
