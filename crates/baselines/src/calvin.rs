//! Calvin (Thomson et al., SIGMOD 2012): deterministic locking over
//! pre-declared read/write sets.
//!
//! A **single-threaded lock manager** walks the batch in TID order and
//! enqueues each transaction's declared row locks. A transaction executes
//! (on the worker pool) once every one of its lock requests is at a
//! granted position — for a write, everything ahead of it in that row's
//! queue must be gone; for a read, everything ahead must also be reads.
//! Because queues are built in TID order, the resulting schedule is
//! conflict-equivalent to TID order and every transaction commits.
//!
//! The serial lock manager is Calvin's famous bottleneck; its time is
//! charged as non-parallelizable, which is what caps the engine's
//! throughput in Table II regardless of worker count.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::execute_serial;
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport};

use crate::cpu::{CpuCostModel, ParallelClock};

/// A lock request in a per-row queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LockReq {
    txn: usize,
    write: bool,
}

/// The Calvin engine.
pub struct CalvinEngine {
    db: Database,
    cost: CpuCostModel,
}

impl CalvinEngine {
    /// Create an engine over `db`.
    pub fn new(db: Database) -> Self {
        CalvinEngine { db, cost: CpuCostModel::default() }
    }
}

impl BatchEngine for CalvinEngine {
    fn name(&self) -> &'static str {
        "Calvin"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        let mut clock = ParallelClock::new(self.cost.workers);
        let n = batch.len();

        // ---- Lock manager: build per-row queues in TID order (serial). ----
        let mut queues: HashMap<(u16, i64), VecDeque<LockReq>> = HashMap::new();
        let mut rows_of: Vec<Vec<(u16, i64)>> = vec![Vec::new(); n];
        let mut lock_ops = 0usize;
        for (i, txn) in batch.txns.iter().enumerate() {
            let acc = declared_accesses(txn)
                .expect("Calvin requires statically declarable transactions");
            // One request per row at the strongest mode (read-then-write
            // rows take a write lock up front, as Calvin requires).
            let mut modes: Vec<((u16, i64), bool)> = Vec::new();
            for (t, k) in &acc.reads {
                if !modes.iter().any(|(row, _)| *row == (t.0, *k)) {
                    modes.push(((t.0, *k), false));
                }
            }
            for (t, k) in acc.all_writes() {
                match modes.iter_mut().find(|(row, _)| *row == (t.0, k)) {
                    Some((_, w)) => *w = true,
                    None => modes.push(((t.0, k), true)),
                }
            }
            for (row, write) in modes {
                queues.entry(row).or_default().push_back(LockReq { txn: i, write });
                rows_of[i].push(row);
                lock_ops += 1;
            }
        }
        // Grant + release are lock-manager work too (3 ops per request).
        clock.serial(lock_ops as f64 * self.cost.lock_ns * 3.0);

        // ---- Scheduler loop: execute transactions as locks grant. ----
        // A txn is ready if, in every queue of a row it touches, all
        // entries ahead of its first occurrence are compatible reads (when
        // it reads) or absent (when it writes).
        let granted = |queues: &HashMap<(u16, i64), VecDeque<LockReq>>, rows: &[(u16, i64)], i: usize| {
            rows.iter().all(|row| {
                let q = &queues[row];
                let Some(pos) = q.iter().position(|r| r.txn == i) else { return true };
                if q[pos].write {
                    pos == 0
                } else {
                    q.iter().take(pos).all(|r| !r.write)
                }
            })
        };
        let mut done = vec![false; n];
        let mut remaining = n;
        let mut committed = Vec::with_capacity(n);
        while remaining > 0 {
            let mut progressed = false;
            for i in 0..n {
                if done[i] || !granted(&queues, &rows_of[i], i) {
                    continue;
                }
                let txn = &batch.txns[i];
                // Execute on a worker; Calvin's visibility is current-state
                // under locks, equivalent to TID-order serial execution.
                let ns = txn.ops.len() as f64 * (self.cost.index_ns + self.cost.read_ns)
                    + rows_of[i].len() as f64 * self.cost.lock_ns;
                clock.assign(ns);
                let _ = execute_serial(&mut self.db, txn);
                for row in &rows_of[i] {
                    if let Some(q) = queues.get_mut(row) {
                        q.retain(|r| r.txn != i);
                    }
                }
                done[i] = true;
                remaining -= 1;
                committed.push(txn.tid);
                progressed = true;
            }
            assert!(progressed, "Calvin scheduler stalled — queue invariant broken");
        }
        committed.sort_unstable();

        BatchReport {
            committed,
            aborted: Vec::new(),
            sim_ns: clock.makespan_ns(),
            critical_path_ns: clock.makespan_ns(),
            transfer_ns: 0.0,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SerialOrder,
        }
    }
}

impl std::fmt::Debug for CalvinEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalvinEngine").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{IrOp, ProcId, Src, TidGen, Txn};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(128).build());
        for k in 0..20 {
            db.table_mut(t).insert(k, &[k, 0]).unwrap();
        }
        (db, t)
    }

    #[test]
    fn everything_commits_and_matches_tid_order_replay() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = CalvinEngine::new(db);
        let mut gen = TidGen::new();
        // Heavy RMW contention on one row: Calvin serializes, commits all.
        let txns: Vec<Txn> = (0..20)
            .map(|_| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![
                        IrOp::Read { table: t, key: Src::Const(5), col: ColId(0), out: 0 },
                        IrOp::Compute {
                            f: ltpg_txn::ComputeFn::Add,
                            a: Src::Reg(0),
                            b: Src::Const(1),
                            out: 0,
                        },
                        IrOp::Update { table: t, key: Src::Const(5), col: ColId(0), val: Src::Reg(0) },
                    ],
                )
            })
            .collect();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 20);
        assert!(report.aborted.is_empty());
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
        // The RMW chain really accumulated: 5 + 20.
        let rid = engine.database().table(t).lookup(5).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 25);
    }

    #[test]
    fn readers_share_locks() {
        let (db, t) = setup();
        let mut engine = CalvinEngine::new(db);
        let mut gen = TidGen::new();
        let txns: Vec<Txn> = (0..10)
            .map(|_| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Read { table: t, key: Src::Const(3), col: ColId(0), out: 0 }],
                )
            })
            .collect();
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 10);
    }

    #[test]
    fn lock_manager_time_is_serial() {
        let (db, t) = setup();
        let mut engine = CalvinEngine::new(db);
        let mut gen = TidGen::new();
        let mk = |n: usize, gen: &mut TidGen| {
            let txns = (0..n)
                .map(|i| {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::Update {
                            table: t,
                            key: Src::Const((i % 20) as i64),
                            col: ColId(0),
                            val: Src::Const(1),
                        }],
                    )
                })
                .collect();
            Batch::assemble(vec![], txns, gen)
        };
        let small = engine.execute_batch(&mk(50, &mut gen)).sim_ns;
        let big = engine.execute_batch(&mk(500, &mut gen)).sim_ns;
        // 10x the lock requests: at least ~8x the serial lock time.
        assert!(big > small * 5.0, "small {small}, big {big}");
    }
}
