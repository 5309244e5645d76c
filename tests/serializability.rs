//! Property-based serializability tests: random batches over a small
//! database, every engine's committed set validated by the oracle
//! appropriate to its commit semantics.

use ltpg_bench::{build_tpcc_engine, SystemKind};
use ltpg_storage::{ColId, Database, TableBuilder, TableId};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::oracle::{check_ordered_serializable, check_snapshot_serializable};
use ltpg_txn::{Batch, BatchEngine, ComputeFn, IrOp, ProcId, Src, TidGen, Txn};
use ltpg_workloads::{TpccConfig, TpccGenerator};
use proptest::prelude::*;

const ROWS: i64 = 24;

fn tiny_db() -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(512).build());
    for k in 0..ROWS {
        db.table_mut(t).insert(k, &[k * 10, 0]).unwrap();
    }
    (db, t)
}

/// A randomly shaped transaction: point reads, dataflow writes, RMW adds,
/// TID-keyed inserts.
fn arb_txn(t: TableId) -> impl Strategy<Value = Txn> {
    let op = prop_oneof![
        (0..ROWS, 0..2u16).prop_map(move |(k, c)| IrOp::Read {
            table: t,
            key: Src::Const(k),
            col: ColId(c),
            out: 0
        }),
        (0..ROWS, 0..2u16, -50..50i64).prop_map(move |(k, c, v)| IrOp::Update {
            table: t,
            key: Src::Const(k),
            col: ColId(c),
            val: Src::Const(v)
        }),
        (0..ROWS, 0..2u16, 1..5i64).prop_map(move |(k, c, d)| IrOp::Add {
            table: t,
            key: Src::Const(k),
            col: ColId(c),
            delta: Src::Const(d)
        }),
        // Dataflow write: copy register 0 (defined by the prefix read)
        // into a random row — creates read→write dependencies between
        // transactions.
        (0..ROWS).prop_map(move |k| IrOp::Update {
            table: t,
            key: Src::Const(k),
            col: ColId(1),
            val: Src::Reg(0)
        }),
    ];
    proptest::collection::vec(op, 1..6).prop_map(move |mut ops| {
        // Ensure register dataflow validity: prefix a defining read.
        ops.insert(0, IrOp::Read { table: t, key: Src::Const(0), col: ColId(0), out: 0 });
        // Mix in a compute so registers vary.
        ops.push(IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(0), b: Src::Const(1), out: 0 });
        Txn::new(ProcId(0), vec![], ops)
    })
}

fn check_engine(kind: SystemKind, txns: Vec<Txn>) {
    let (db, _t) = tiny_db();
    let pre = db.deep_clone();
    // Reuse the TPC-C factory shapes only for LTPG config defaults; the
    // generic engines take the database directly.
    let mut engine: Box<dyn BatchEngine> = match kind {
        SystemKind::Ltpg => Box::new(ltpg::LtpgEngine::new(db, ltpg::LtpgConfig::default())),
        SystemKind::Aria => Box::new(ltpg_baselines::AriaEngine::new(db)),
        SystemKind::Calvin => Box::new(ltpg_baselines::CalvinEngine::new(db)),
        SystemKind::Bohm => Box::new(ltpg_baselines::BohmEngine::new(db)),
        SystemKind::Pwv => Box::new(ltpg_baselines::PwvEngine::new(db)),
        SystemKind::Dbx1000 => Box::new(ltpg_baselines::Dbx1000Engine::new(db)),
        SystemKind::Bamboo => Box::new(ltpg_baselines::BambooEngine::new(db)),
        SystemKind::Gputx => Box::new(ltpg_baselines::GputxEngine::new(db)),
        SystemKind::Gacco => Box::new(ltpg_baselines::GaccoEngine::new(db)),
    };
    let mut tids = TidGen::new();
    let batch = Batch::assemble(vec![], txns, &mut tids);
    let report = engine.execute_batch(&batch);
    let committed: Vec<&Txn> =
        report.committed.iter().map(|tid| batch.by_tid(*tid).expect("committed tid")).collect();
    match report.semantics {
        CommitSemantics::SnapshotBatch => {
            check_snapshot_serializable(&pre, &committed, engine.database())
                .unwrap_or_else(|v| panic!("{} not serializable: {v:?}", kind.name()));
        }
        CommitSemantics::SerialOrder => {
            check_ordered_serializable(&pre, &committed, engine.database())
                .unwrap_or_else(|v| panic!("{} not serializable: {v:?}", kind.name()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ltpg_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..40)) {
        check_engine(SystemKind::Ltpg, txns);
    }

    #[test]
    fn aria_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..40)) {
        check_engine(SystemKind::Aria, txns);
    }

    #[test]
    fn calvin_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Calvin, txns);
    }

    #[test]
    fn bohm_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Bohm, txns);
    }

    #[test]
    fn pwv_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Pwv, txns);
    }

    #[test]
    fn dbx1000_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Dbx1000, txns);
    }

    #[test]
    fn bamboo_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Bamboo, txns);
    }

    #[test]
    fn gputx_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Gputx, txns);
    }

    #[test]
    fn gacco_random_batches_are_serializable(txns in proptest::collection::vec(arb_txn(TableId(0)), 1..30)) {
        check_engine(SystemKind::Gacco, txns);
    }
}

/// LTPG on real TPC-C batches, checked by the snapshot oracle.
#[test]
fn ltpg_tpcc_batches_are_serializable() {
    let cfg = TpccConfig::new(2, 50).with_headroom(4_096);
    let (db, tables, mut gen) = TpccGenerator::new(cfg);
    let pre = db.deep_clone();
    let mut engine = build_tpcc_engine(SystemKind::Ltpg, db, &tables, 512);
    let mut tids = TidGen::new();
    let batch = Batch::assemble(vec![], gen.gen_batch(512), &mut tids);
    let report = engine.execute_batch(&batch);
    assert!(report.commit_rate(batch.len()) > 0.5);
    let committed: Vec<&Txn> =
        report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
    check_snapshot_serializable(&pre, &committed, engine.database()).unwrap();
}
