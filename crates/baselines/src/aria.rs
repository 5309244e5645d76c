//! Aria (Lu et al., VLDB 2020): deterministic batch OCC on CPUs.
//!
//! Each batch runs in two phases. In the **read/write phase** every
//! transaction executes against the current database snapshot, buffering
//! writes locally and *reserving* the rows it read and wrote in per-batch
//! reservation tables (minimum-TID per row, maintained with atomic-min in
//! the original; sequentially here, which is equivalent). In the **commit
//! phase** a transaction commits iff it has no WAW conflict and no RAW
//! conflict — or, with Aria's deterministic reordering enabled, iff
//! `¬WAW ∧ (¬RAW ∨ ¬WAR)`. Aborted transactions are rescheduled with
//! their original TIDs.
//!
//! Differences from LTPG worth remembering when reading benchmark results:
//! Aria reserves at **row** granularity with no column splitting, has no
//! delayed-update path (every `Add` is a plain read-modify-write), and its
//! per-batch phase barriers are CPU-pool barriers.

use std::collections::HashMap;
use std::time::Instant;

use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{apply_effects, execute_speculative, Mutation, TxnEffects};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::cpu::{CpuCostModel, ParallelClock};

/// The Aria engine.
pub struct AriaEngine {
    db: Database,
    cost: CpuCostModel,
    /// Deterministic reordering (§4.2 of the Aria paper). On by default,
    /// as in the paper's evaluated configuration.
    reorder: bool,
}

impl AriaEngine {
    /// Create an engine with reordering enabled.
    pub fn new(db: Database) -> Self {
        AriaEngine { db, cost: CpuCostModel::default(), reorder: true }
    }

    /// Toggle deterministic reordering.
    pub fn with_reordering(mut self, on: bool) -> Self {
        self.reorder = on;
        self
    }

    /// Row-granularity key of a mutation.
    fn row_of(m: &Mutation) -> (u16, i64) {
        match m {
            Mutation::Update { table, key, .. }
            | Mutation::Add { table, key, .. }
            | Mutation::Insert { table, key, .. }
            | Mutation::Delete { table, key } => (table.0, *key),
        }
    }
}

impl BatchEngine for AriaEngine {
    fn name(&self) -> &'static str {
        "Aria"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        let mut clock = ParallelClock::new(self.cost.workers);
        let n = batch.len();

        // ---- Read/write phase: speculate + reserve. ----
        let mut all_fx: Vec<Option<TxnEffects>> = Vec::with_capacity(n);
        let mut read_rsv: HashMap<(u16, i64), u64> = HashMap::new();
        let mut write_rsv: HashMap<(u16, i64), u64> = HashMap::new();
        for txn in &batch.txns {
            let mut ns = self.cost.alu_ns * txn.ops.len() as f64;
            match execute_speculative(&self.db, txn) {
                Err(_) => {
                    all_fx.push(None);
                    clock.assign(ns + self.cost.abort_ns);
                    continue;
                }
                Ok(fx) => {
                    ns += fx.reads.len() as f64 * (self.cost.index_ns + self.cost.read_ns);
                    ns += fx.mutations.len() as f64 * self.cost.write_ns;
                    for r in &fx.reads {
                        let e = read_rsv.entry((r.table.0, r.key)).or_insert(u64::MAX);
                        *e = (*e).min(txn.tid.0);
                        ns += self.cost.write_ns; // reservation store
                    }
                    for m in &fx.mutations {
                        let e = write_rsv.entry(Self::row_of(m)).or_insert(u64::MAX);
                        *e = (*e).min(txn.tid.0);
                        ns += self.cost.write_ns;
                        if matches!(m, Mutation::Add { .. }) {
                            // RMW also reserves as a read.
                            let e = read_rsv.entry(Self::row_of(m)).or_insert(u64::MAX);
                            *e = (*e).min(txn.tid.0);
                        }
                    }
                    all_fx.push(Some(fx));
                    clock.assign(ns);
                }
            }
        }
        clock.serial(self.cost.barrier_ns);

        // ---- Commit phase: conflict analysis + apply. ----
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        for (i, txn) in batch.txns.iter().enumerate() {
            let Some(fx) = &all_fx[i] else {
                aborted.push(txn.tid);
                continue;
            };
            let tid = txn.tid.0;
            let mut ns = 0.0;
            let mut waw = false;
            let mut raw = false;
            let mut war = false;
            for m in &fx.mutations {
                let row = Self::row_of(m);
                ns += self.cost.validate_ns;
                if write_rsv.get(&row).is_some_and(|&m| m < tid) {
                    waw = true;
                }
                if read_rsv.get(&row).is_some_and(|&m| m < tid) {
                    war = true;
                }
                if matches!(m, Mutation::Add { .. })
                    && write_rsv.get(&row).is_some_and(|&m| m < tid)
                {
                    raw = true;
                }
            }
            for r in &fx.reads {
                ns += self.cost.validate_ns;
                if write_rsv.get(&(r.table.0, r.key)).is_some_and(|&m| m < tid) {
                    raw = true;
                }
            }
            let ok = !waw && if self.reorder { !raw || !war } else { !raw };
            if ok {
                ns += fx.mutations.len() as f64 * (self.cost.index_ns + self.cost.write_ns);
                apply_effects(&mut self.db, fx).expect("Aria commit apply");
                committed.push(txn.tid);
            } else {
                ns += self.cost.abort_ns;
                aborted.push(txn.tid);
            }
            clock.assign(ns);
        }
        clock.serial(self.cost.barrier_ns);

        BatchReport {
            committed,
            aborted,
            sim_ns: clock.makespan_ns(),
            critical_path_ns: clock.makespan_ns(),
            transfer_ns: 0.0,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SnapshotBatch,
        }
    }
}

impl std::fmt::Debug for AriaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AriaEngine").field("reorder", &self.reorder).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_snapshot_serializable;
    use ltpg_txn::{IrOp, ProcId, Src, Tid, TidGen, Txn};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(128).build());
        for k in 0..50 {
            db.table_mut(t).insert(k, &[k, 0]).unwrap();
        }
        (db, t)
    }

    fn write(t: TableId, k: i64, v: i64) -> IrOp {
        IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(v) }
    }
    fn read(t: TableId, k: i64) -> IrOp {
        IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out: 0 }
    }

    fn run(reorder: bool, txns: Vec<Txn>) -> (AriaEngine, Batch, BatchReport, Database) {
        let (db, _t) = setup();
        let pre = db.deep_clone();
        let mut engine = AriaEngine::new(db).with_reordering(reorder);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        (engine, batch, report, pre)
    }

    #[test]
    fn waw_keeps_min_tid_writer_and_result_is_serializable() {
        let (_db, t) = setup();
        let txns = (0..6).map(|i| Txn::new(ProcId(0), vec![], vec![write(t, 3, i)])).collect();
        let (engine, batch, report, pre) = run(true, txns);
        assert_eq!(report.committed, vec![Tid(1)]);
        let committed: Vec<&Txn> =
            report.committed.iter().map(|t| batch.by_tid(*t).unwrap()).collect();
        check_snapshot_serializable(&pre, &committed, engine.database()).unwrap();
    }

    #[test]
    fn reordering_admits_war_only_pairs() {
        let (_db, t) = setup();
        let mk = || {
            vec![
                Txn::new(ProcId(0), vec![], vec![read(t, 9)]),
                Txn::new(ProcId(0), vec![], vec![write(t, 9, 99)]),
            ]
        };
        let (.., r_on, _) = run(true, mk());
        assert_eq!(r_on.committed.len(), 2);
        // Plain Aria also commits this (the writer has WAR, not RAW) — the
        // distinguishing case is the reader AFTER the writer:
        let mk2 = || {
            vec![
                Txn::new(ProcId(0), vec![], vec![write(t, 9, 99)]),
                Txn::new(ProcId(0), vec![], vec![read(t, 9)]),
            ]
        };
        let (.., r2_plain, _) = run(false, mk2());
        assert_eq!(r2_plain.committed, vec![Tid(1)]);
        let (.., r2_on, _) = run(true, mk2());
        // Reader has RAW but no WAR (it writes nothing): reordering commits.
        assert_eq!(r2_on.committed.len(), 2);
    }

    #[test]
    fn disjoint_batch_commits_fully_with_time_accounted() {
        let (_db, t) = setup();
        let txns = (0..40).map(|k| Txn::new(ProcId(0), vec![], vec![write(t, k, k)])).collect();
        let (engine, _b, report, _p) = run(true, txns);
        assert_eq!(report.committed.len(), 40);
        assert!(report.sim_ns > 0.0);
        assert_eq!(report.transfer_ns, 0.0);
        let rid = engine.database().table(TableId(0)).lookup(7).unwrap();
        assert_eq!(engine.database().table(TableId(0)).get(rid, ColId(0)), 7);
    }

    #[test]
    fn rmw_adds_conflict_like_reads_plus_writes() {
        let (_db, t) = setup();
        let add = |k: i64| {
            Txn::new(
                ProcId(0),
                vec![],
                vec![IrOp::Add { table: t, key: Src::Const(k), col: ColId(1), delta: Src::Const(1) }],
            )
        };
        let (.., report, _) = run(true, vec![add(5), add(5), add(5)]);
        // RMWs on one row: WAW for all but the first.
        assert_eq!(report.committed.len(), 1);
    }
}
