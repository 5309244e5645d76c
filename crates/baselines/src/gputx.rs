//! GPUTx (He & Yu, VLDB 2011): bulk-synchronous execution driven by a
//! T-dependency graph.
//!
//! From the pre-declared access sets, GPUTx builds a **T-dependency graph**
//! (an edge between two transactions that touch a common row with at least
//! one write) and assigns each transaction a *rank* — its depth in that
//! graph. Transactions of equal rank are conflict-free and execute
//! simultaneously as one kernel; ranks execute in order, each separated by
//! a device synchronization. Everything commits; the equivalent serial
//! order is TID order (edges follow TID).
//!
//! High contention makes the graph deep: rank count approaches batch size
//! and execution degenerates to a sequence of tiny kernels — the
//! serialization collapse the LTPG paper highlights for dependency-graph
//! systems (and the reason for GPUTx's Table II numbers).

use std::collections::HashMap;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{apply_effects, execute_speculative};
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport};

/// The GPUTx engine.
pub struct GputxEngine {
    db: Database,
    device: Device,
}

impl GputxEngine {
    /// Create an engine with a default simulated device.
    pub fn new(db: Database) -> Self {
        Self::with_device(db, DeviceConfig::default())
    }

    /// Create with an explicit device configuration.
    pub fn with_device(db: Database, cfg: DeviceConfig) -> Self {
        let mut device = Device::new(cfg);
        device.register_allocation(db.bytes());
        GputxEngine { db, device }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl BatchEngine for GputxEngine {
    fn name(&self) -> &'static str {
        "GPUTx"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        self.device.reset();
        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        let n = batch.len();

        // ---- Upload parameters AND access sets (GPUTx ships both). ----
        let declared: Vec<_> = batch
            .txns
            .iter()
            .map(|t| declared_accesses(t).expect("GPUTx requires declarable transactions"))
            .collect();
        let access_bytes: u64 =
            declared.iter().map(|d| ((d.reads.len() + d.writes.len() + d.inserts.len()) * 12) as u64).sum();
        let h2d = self.device.h2d(batch.payload_bytes() + access_bytes);

        // ---- Build the T-dependency graph → ranks. ----
        // rank(T) = 1 + max rank over earlier conflicting transactions.
        // GPUTx (2011) constructs the graph by comparing every
        // transaction's access set against every other's — one lane per
        // transaction scanning all n access summaries. This quadratic
        // pass is what makes GPUTx collapse at large batches (the paper's
        // Table II shows it *slowing down* as warehouses/batches grow).
        let mut rank = vec![0u32; n];
        {
            let avg_accesses = (declared
                .iter()
                .map(|d| d.reads.len() + d.writes.len() + d.inserts.len())
                .sum::<usize>()
                / n.max(1))
            .max(1) as u32;
            self.device.launch_indexed("build_graph", n, |lane| {
                // Compare against every other transaction's summary.
                lane.read_global(n as u32 * 2);
                lane.charge_alu(n as u32 * avg_accesses.min(8));
                lane.write_global(1);
            });
            self.device.synchronize();
            // Host-mirrored deterministic rank computation (the device pass
            // above charges the cost; ranks follow TID order).
            let mut last_writer_rank: HashMap<(u16, i64), u32> = HashMap::new();
            let mut last_reader_rank: HashMap<(u16, i64), u32> = HashMap::new();
            for (i, d) in declared.iter().enumerate() {
                let mut r = 1u32;
                for (t, k) in &d.reads {
                    if let Some(&wr) = last_writer_rank.get(&(t.0, *k)) {
                        r = r.max(wr + 1);
                    }
                }
                for (t, k) in d.all_writes() {
                    if let Some(&wr) = last_writer_rank.get(&(t.0, k)) {
                        r = r.max(wr + 1);
                    }
                    if let Some(&rr) = last_reader_rank.get(&(t.0, k)) {
                        r = r.max(rr + 1);
                    }
                }
                rank[i] = r;
                for (t, k) in &d.reads {
                    let e = last_reader_rank.entry((t.0, *k)).or_insert(0);
                    *e = (*e).max(r);
                }
                for (t, k) in d.all_writes() {
                    let e = last_writer_rank.entry((t.0, k)).or_insert(0);
                    *e = (*e).max(r);
                }
            }
        }

        // ---- Execute rank layers as kernels. ----
        let max_rank = rank.iter().copied().max().unwrap_or(0);
        let mut committed = Vec::with_capacity(n);
        let mut aborted = Vec::new();
        for r in 1..=max_rank {
            let layer: Vec<usize> = (0..n).filter(|&i| rank[i] == r).collect();
            // Conflict-free within a layer: speculate on lanes, apply after.
            let mut results = Vec::with_capacity(layer.len());
            self.device.launch("exec_rank", &layer, |lane, &i| {
                let txn = &batch.txns[i];
                lane.branch(u32::from(txn.proc.0));
                lane.charge_alu(txn.ops.len() as u32);
                lane.charge_cycles(lane_proc_overhead);
                lane.read_global_random(2 * txn.ops.len() as u32);
                lane.write_global(txn.ops.len() as u32);
                results.push(execute_speculative(&self.db, txn));
            });
            for (res, i) in results.into_iter().zip(layer) {
                match res {
                    Ok(fx) => {
                        apply_effects(&mut self.db, &fx).expect("GPUTx apply");
                        committed.push(batch.txns[i].tid);
                    }
                    Err(_) => aborted.push(batch.txns[i].tid),
                }
            }
            self.device.synchronize();
        }
        committed.sort_unstable();

        // ---- Download results. ----
        let d2h = self.device.d2h(n as u64 * 8);
        let sim_ns = self.device.elapsed_ns();

        BatchReport {
            committed,
            aborted,
            sim_ns,
            critical_path_ns: sim_ns,
            transfer_ns: h2d + d2h,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SerialOrder,
        }
    }
}

impl std::fmt::Debug for GputxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GputxEngine").finish()
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
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        for k in 0..50 {
            db.table_mut(t).insert(k, &[0, 0]).unwrap();
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
    fn contended_chain_serializes_by_rank_and_commits_all() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = GputxEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..40).map(|_| rmw(t, 7)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 40);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn disjoint_batch_is_one_rank_and_contended_is_many_kernels() {
        let (db, t) = setup();
        let mut engine = GputxEngine::new(db);
        let mut gen = TidGen::new();
        let disjoint = Batch::assemble(vec![], (0..40).map(|k| rmw(t, k as i64)).collect(), &mut gen);
        let r1 = engine.execute_batch(&disjoint);
        let k1 = engine.device().stats().kernels;
        let contended = Batch::assemble(vec![], (0..40).map(|_| rmw(t, 3)).collect(), &mut gen);
        let r2 = engine.execute_batch(&contended);
        let k2 = engine.device().stats().kernels;
        assert!(k2 > k1, "contended batch must need more rank kernels ({k1} vs {k2})");
        assert!(r2.sim_ns > r1.sim_ns, "serialized ranks must cost more");
    }

    #[test]
    fn readers_share_a_rank() {
        let (db, t) = setup();
        let mut engine = GputxEngine::new(db);
        let mut gen = TidGen::new();
        let readers: Vec<Txn> = (0..30)
            .map(|_| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![IrOp::Read { table: t, key: Src::Const(1), col: ColId(0), out: 0 }],
                )
            })
            .collect();
        let batch = Batch::assemble(vec![], readers, &mut gen);
        engine.execute_batch(&batch);
        // One graph pass + exactly one execution rank.
        assert_eq!(engine.device().stats().kernels, 2);
    }
}
