//! PWV (Faleiro, Abadi & Hellerstein, VLDB 2017): early write visibility
//! over partitioned fragment execution.
//!
//! Each transaction is decomposed into **fragments** — maximal runs of
//! consecutive operations touching one partition of the key space. Every
//! partition has a dedicated worker that executes its fragment queue in
//! `(TID, fragment-index)` order; a fragment may run only after its
//! predecessor fragment of the same transaction (register dataflow). A
//! fragment's writes apply immediately — *early write visibility*: later
//! transactions read them before the writer "commits". Because each key
//! lives in exactly one partition and partitions process fragments in TID
//! order, the schedule is conflict-equivalent to TID order and everything
//! commits.

use std::time::Instant;

use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::execute_range_direct;
use ltpg_txn::{Batch, BatchEngine, BatchReport, ComputeFn, IrOp, Src, Txn};

use crate::cpu::{CpuCostModel, ParallelClock};

/// One fragment: ops `[lo, hi)` of transaction `txn`, on `partition`.
#[derive(Debug, Clone, Copy)]
struct Fragment {
    txn: usize,
    frag_idx: usize,
    lo: usize,
    hi: usize,
    partition: usize,
}

/// The PWV engine.
pub struct PwvEngine {
    db: Database,
    cost: CpuCostModel,
    partitions: usize,
}

impl PwvEngine {
    /// Create an engine with one partition per worker.
    pub fn new(db: Database) -> Self {
        let cost = CpuCostModel::default();
        let partitions = cost.workers;
        PwvEngine { db, cost, partitions }
    }

    fn partition_of_key(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % self.partitions
    }

    /// Statically resolve the key an op touches (constant folding over
    /// Const/Param/Tid/Compute, `None` for pure ops or dynamic keys).
    fn op_key(&self, txn: &Txn, regs: &mut [Option<i64>], op: &IrOp) -> Option<i64> {
        let fold = |s: Src, regs: &[Option<i64>]| -> Option<i64> {
            match s {
                Src::Const(v) => Some(v),
                Src::Param(p) => txn.params.get(usize::from(p)).copied(),
                Src::Reg(r) => regs[usize::from(r)],
                Src::Tid => Some(txn.tid.0 as i64),
            }
        };
        match op {
            IrOp::Read { key, out, .. } => {
                let k = fold(*key, regs);
                regs[usize::from(*out)] = None;
                k
            }
            IrOp::Update { key, .. }
            | IrOp::Add { key, .. }
            | IrOp::Insert { key, .. }
            | IrOp::Delete { key, .. } => fold(*key, regs),
            IrOp::Compute { f, a, b, out } => {
                let v = match (fold(*a, regs), fold(*b, regs)) {
                    (Some(x), Some(y)) => Some(ComputeFn::apply(*f, x, y)),
                    _ => None,
                };
                regs[usize::from(*out)] = v;
                None
            }
            IrOp::ScanSum { start, out, .. } => {
                let k = fold(*start, regs);
                regs[usize::from(*out)] = None;
                k
            }
            // Ordered scans span partitions; PWV does not support them
            // (they are undeclarable, so the harness never routes them
            // here). Treat as partition-less for fragment shaping.
            IrOp::RangeSum { out, .. }
            | IrOp::RangeMinKey { out, .. }
            | IrOp::RangeCountBelow { out, .. } => {
                regs[usize::from(*out)] = None;
                None
            }
        }
    }

    /// Decompose a transaction into partition-homogeneous fragments.
    fn fragments(&self, txn_idx: usize, txn: &Txn) -> Vec<Fragment> {
        let mut regs = vec![None; txn.reg_count()];
        let mut frags: Vec<Fragment> = Vec::new();
        let mut cur_part: Option<usize> = None;
        let mut lo = 0usize;
        for (i, op) in txn.ops.iter().enumerate() {
            let part = self.op_key(txn, &mut regs, op).map(|k| self.partition_of_key(k));
            match (part, cur_part) {
                (Some(p), Some(c)) if p != c => {
                    frags.push(Fragment { txn: txn_idx, frag_idx: frags.len(), lo, hi: i, partition: c });
                    lo = i;
                    cur_part = Some(p);
                }
                (Some(p), None) => cur_part = Some(p),
                _ => {}
            }
        }
        frags.push(Fragment {
            txn: txn_idx,
            frag_idx: frags.len(),
            lo,
            hi: txn.ops.len(),
            partition: cur_part.unwrap_or(0),
        });
        frags
    }
}

impl BatchEngine for PwvEngine {
    fn name(&self) -> &'static str {
        "PWV"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        let mut clock = ParallelClock::new(self.cost.workers);
        let n = batch.len();

        // ---- Decompose and enqueue per partition. ----
        let mut queues: Vec<Vec<Fragment>> = vec![Vec::new(); self.partitions];
        let mut frag_total = vec![0usize; n];
        for (i, txn) in batch.txns.iter().enumerate() {
            for f in self.fragments(i, txn) {
                frag_total[i] = frag_total[i].max(f.frag_idx + 1);
                queues[f.partition].push(f);
            }
            // Dependency-graph construction cost.
            clock.assign(txn.ops.len() as f64 * 25.0);
        }
        for q in &mut queues {
            q.sort_by_key(|f| (batch.txns[f.txn].tid, f.frag_idx));
        }
        clock.serial(self.cost.barrier_ns);

        // ---- Execute: per-partition TID order + intra-txn order. ----
        let mut regs: Vec<Vec<i64>> = batch.txns.iter().map(|t| vec![0; t.reg_count()]).collect();
        let mut frags_done = vec![0usize; n];
        let mut heads = vec![0usize; self.partitions];
        let mut remaining: usize = queues.iter().map(Vec::len).sum();
        while remaining > 0 {
            let mut progressed = false;
            for p in 0..self.partitions {
                // Drain every currently-runnable head fragment of p.
                while heads[p] < queues[p].len() {
                    let f = queues[p][heads[p]];
                    if frags_done[f.txn] != f.frag_idx {
                        break; // waiting on an earlier fragment elsewhere
                    }
                    let txn = &batch.txns[f.txn];
                    let ns = (f.hi - f.lo) as f64
                        * (self.cost.index_ns + self.cost.read_ns + self.cost.write_ns);
                    clock.assign_to(p, ns);
                    execute_range_direct(&mut self.db, txn, f.lo..f.hi, &mut regs[f.txn])
                        .expect("PWV fragment execution");
                    frags_done[f.txn] += 1;
                    heads[p] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "PWV scheduler stalled — fragment order invariant broken");
        }

        BatchReport {
            committed: batch.txns.iter().map(|t| t.tid).collect(),
            aborted: Vec::new(),
            sim_ns: clock.makespan_ns(),
            critical_path_ns: clock.makespan_ns(),
            transfer_ns: 0.0,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SerialOrder,
        }
    }
}

impl std::fmt::Debug for PwvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PwvEngine").field("partitions", &self.partitions).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{ProcId, TidGen};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        for k in 0..100 {
            db.table_mut(t).insert(k, &[k, 0]).unwrap();
        }
        (db, t)
    }

    fn rmw(t: TableId, k: i64) -> Txn {
        Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out: 0 },
                IrOp::Compute { f: ComputeFn::Add, a: Src::Reg(0), b: Src::Const(1), out: 0 },
                IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Reg(0) },
            ],
        )
    }

    #[test]
    fn cross_partition_dataflow_executes_in_tid_order() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = PwvEngine::new(db);
        let mut gen = TidGen::new();
        // Transactions copying row i's value into row i+50 (likely
        // different partitions), interleaved with RMWs on row 1.
        let mut txns = Vec::new();
        for i in 0..30i64 {
            txns.push(rmw(t, 1));
            txns.push(Txn::new(
                ProcId(1),
                vec![],
                vec![
                    IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 },
                    IrOp::Update { table: t, key: Src::Const(50 + i), col: ColId(1), val: Src::Reg(0) },
                ],
            ));
        }
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 60);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
        // The RMW chain on row 1 accumulated fully.
        let rid = engine.database().table(t).lookup(1).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 1 + 30);
    }

    #[test]
    fn fragment_decomposition_splits_on_partition_change() {
        let (db, t) = setup();
        let engine = PwvEngine::new(db);
        // Find two keys in different partitions.
        let (k1, k2) = {
            let mut pair = (0, 1);
            'outer: for a in 0..50i64 {
                for b in 0..50i64 {
                    if engine.partition_of_key(a) != engine.partition_of_key(b) {
                        pair = (a, b);
                        break 'outer;
                    }
                }
            }
            pair
        };
        let mut txn = Txn::new(
            ProcId(0),
            vec![],
            vec![
                IrOp::Read { table: t, key: Src::Const(k1), col: ColId(0), out: 0 },
                IrOp::Read { table: t, key: Src::Const(k2), col: ColId(0), out: 1 },
            ],
        );
        txn.tid = ltpg_txn::Tid(1);
        let frags = engine.fragments(0, &txn);
        assert_eq!(frags.len(), 2);
        assert_ne!(frags[0].partition, frags[1].partition);
        assert_eq!((frags[0].lo, frags[0].hi), (0, 1));
        assert_eq!((frags[1].lo, frags[1].hi), (1, 2));
    }

    #[test]
    fn single_partition_txn_is_one_fragment() {
        let (db, t) = setup();
        let engine = PwvEngine::new(db);
        let mut txn = rmw(t, 5);
        txn.tid = ltpg_txn::Tid(1);
        let frags = engine.fragments(0, &txn);
        assert_eq!(frags.len(), 1);
        assert_eq!((frags[0].lo, frags[0].hi), (0, 3));
    }
}
