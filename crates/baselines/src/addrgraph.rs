//! Address-based conflict-graph scheduling (OptME/Nezha style): build a
//! conflict graph from the transactions' declared access addresses,
//! topologically layer it, and execute the layers in parallel.
//!
//! Unlike GPUTx's all-pairs comparison (quadratic in batch size — the
//! collapse the LTPG paper shows in Table II), the graph is built the way
//! OptME/Nezha do it: **sort the batch's declared accesses by address**, so
//! every conflict edge is an adjacency in the sorted run and layering costs
//! `O(m log m)` in the total access count `m`. Transactions of equal layer
//! (rank) are conflict-free and execute simultaneously as one kernel;
//! layers run in order, separated by device synchronizations. Everything
//! commits (user logic aside); the equivalent serial order is TID order.
//!
//! Transactions whose access sets cannot be declared (read-dependent keys,
//! ordered range scans) do not panic the scheduler the way [`crate::gputx`]
//! does: they are conservatively treated as touching *every* address, which
//! places each one in its own singleton **barrier layer** at its TID
//! position. A batch of undeclarable transactions degenerates to serial
//! execution — correct, just slow, and counted in the
//! `addrgraph.undeclared_txns` telemetry so the adaptive policy can see it.

use std::collections::HashMap;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{apply_effects, execute_speculative};
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport, Tid};

/// Per-batch scheduler statistics, the adaptive policy's input signal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AddrGraphStats {
    /// Conflict-graph depth: number of execution layers the batch needed
    /// (1 = fully parallel).
    pub layers: u32,
    /// Transactions that could not declare their access sets and ran as
    /// serial barrier layers.
    pub undeclared: u64,
    /// Transactions in the batch.
    pub batch_len: usize,
}

impl AddrGraphStats {
    /// Graph depth normalized by batch size: 0 ≈ flat (parallel) graph,
    /// 1 = fully serialized chain.
    pub fn depth_frac(&self) -> f64 {
        if self.batch_len == 0 {
            0.0
        } else {
            (self.layers.saturating_sub(1)) as f64 / self.batch_len as f64
        }
    }
}

/// The address-graph scheduler core: a simulated device plus per-batch
/// stats, executing against a **borrowed** database. [`AddrGraphEngine`]
/// wraps it with an owned database for standalone [`BatchEngine`] use; the
/// adaptive engine drives the core directly against the LTPG engine's
/// database.
pub struct AddrGraphCore {
    device: Device,
    last: AddrGraphStats,
}

impl Default for AddrGraphCore {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrGraphCore {
    /// A core with a default simulated device.
    pub fn new() -> Self {
        Self::with_device(DeviceConfig::default())
    }

    /// A core with an explicit device configuration.
    pub fn with_device(cfg: DeviceConfig) -> Self {
        AddrGraphCore { device: Device::new(cfg), last: AddrGraphStats::default() }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Stats of the most recent batch.
    pub fn last_stats(&self) -> AddrGraphStats {
        self.last
    }

    /// Execute one batch against `db`, writing each transaction's effects
    /// once it is decided, and report the outcome.
    pub fn execute(&mut self, db: &mut Database, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        self.device.reset();
        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        let n = batch.len();

        // ---- Upload parameters AND declared access sets (12 bytes per
        // access, like GPUTx; undeclarable transactions ship only their
        // parameters). ----
        let declared: Vec<_> = batch.txns.iter().map(declared_accesses).collect();
        let access_bytes: u64 = declared
            .iter()
            .flatten()
            .map(|d| ((d.reads.len() + d.writes.len() + d.inserts.len()) * 12) as u64)
            .sum();
        let h2d = self.device.h2d(batch.payload_bytes() + access_bytes);

        // ---- Layering by address sort. Cost model: each lane emits its
        // accesses into the global (address, tid) key array and
        // participates in an O(m log m) radix/merge sort over it, then one
        // linear scan per sorted run resolves ranks — contrast GPUTx's
        // O(n) all-pairs scan per lane. ----
        let total_accesses: usize = declared
            .iter()
            .flatten()
            .map(|d| d.reads.len() + d.writes.len() + d.inserts.len() + d.deletes.len())
            .sum();
        let log_m = usize::BITS - total_accesses.max(2).leading_zeros();
        self.device.launch_indexed("ag_sort_layer", n, |lane| {
            let own = (total_accesses / n.max(1)).max(1) as u32;
            lane.read_global(own * 2);
            lane.charge_alu(own * log_m);
            lane.write_global(own);
        });
        self.device.synchronize();

        // Host-mirrored deterministic rank computation (the device pass
        // above charges the cost; ranks follow TID order). `last_writer` /
        // `last_reader` hold the deepest rank that wrote / read an address;
        // `barrier` is the deepest undeclarable (touches-everything) rank.
        let mut rank = vec![0u32; n];
        let mut stats = AddrGraphStats { batch_len: n, ..AddrGraphStats::default() };
        {
            let mut last_writer_rank: HashMap<(u16, i64), u32> = HashMap::new();
            let mut last_reader_rank: HashMap<(u16, i64), u32> = HashMap::new();
            let mut barrier = 0u32; // deepest undeclarable rank so far
            let mut deepest = 0u32; // deepest rank assigned so far
            for (i, d) in declared.iter().enumerate() {
                let r = match d {
                    Some(d) => {
                        let mut r = 1 + barrier;
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
                        for (t, k) in &d.reads {
                            let e = last_reader_rank.entry((t.0, *k)).or_insert(0);
                            *e = (*e).max(r);
                        }
                        for (t, k) in d.all_writes() {
                            let e = last_writer_rank.entry((t.0, k)).or_insert(0);
                            *e = (*e).max(r);
                        }
                        r
                    }
                    None => {
                        // Conflicts with everything before and after: rank
                        // past every assigned rank, and raise the barrier so
                        // later transactions rank past it — a guaranteed
                        // singleton layer.
                        stats.undeclared += 1;
                        let r = deepest + 1;
                        barrier = r;
                        r
                    }
                };
                rank[i] = r;
                deepest = deepest.max(r);
            }
        }

        // ---- Execute rank layers as kernels. ----
        let max_rank = rank.iter().copied().max().unwrap_or(0);
        stats.layers = max_rank;
        let mut committed: Vec<Tid> = Vec::with_capacity(n);
        let mut aborted: Vec<Tid> = Vec::new();
        for r in 1..=max_rank {
            let layer: Vec<usize> = (0..n).filter(|&i| rank[i] == r).collect();
            if layer.is_empty() {
                continue;
            }
            let mut results = Vec::with_capacity(layer.len());
            self.device.launch("ag_exec_layer", &layer, |lane, &i| {
                let txn = &batch.txns[i];
                lane.branch(u32::from(txn.proc.0));
                lane.charge_alu(txn.ops.len() as u32);
                lane.charge_cycles(lane_proc_overhead);
                lane.read_global_random(2 * txn.ops.len() as u32);
                lane.write_global(txn.ops.len() as u32);
                results.push(execute_speculative(db, txn));
            });
            for (res, i) in results.into_iter().zip(layer) {
                match res {
                    Ok(fx) => {
                        apply_effects(db, &fx).expect("address-graph apply");
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
        self.last = stats;

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

    /// Publish the last batch's scheduler internals (graph depth,
    /// undeclarable count) to `reg`.
    pub fn publish_stats(&self, reg: &Registry) {
        reg.histogram(names::ADDRGRAPH_LAYERS).record(self.last.layers as u64);
        reg.counter(names::ADDRGRAPH_UNDECLARED).add(self.last.undeclared);
    }
}

/// The address-graph engine: [`AddrGraphCore`] plus an owned database.
pub struct AddrGraphEngine {
    db: Database,
    core: AddrGraphCore,
}

impl AddrGraphEngine {
    /// Create an engine with a default simulated device.
    pub fn new(db: Database) -> Self {
        Self::with_device(db, DeviceConfig::default())
    }

    /// Create with an explicit device configuration.
    pub fn with_device(db: Database, cfg: DeviceConfig) -> Self {
        let mut core = AddrGraphCore::with_device(cfg);
        core.device.register_allocation(db.bytes());
        AddrGraphEngine { db, core }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        self.core.device()
    }

    /// Stats of the most recent batch.
    pub fn last_stats(&self) -> AddrGraphStats {
        self.core.last_stats()
    }
}

impl BatchEngine for AddrGraphEngine {
    fn name(&self) -> &'static str {
        "AddrGraph"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        self.core.execute(&mut self.db, batch)
    }

    fn record_extra_telemetry(&self, registry: &Registry) {
        self.core.publish_stats(registry);
    }
}

impl std::fmt::Debug for AddrGraphEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddrGraphEngine").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, Table, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{execute_serial, ComputeFn, IrOp, ProcId, Src, TidGen, Txn};

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
    fn contended_chain_layers_and_commits_all() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = AddrGraphEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..40).map(|_| rmw(t, 7)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        assert_eq!(engine.last_stats().layers, 40, "hot-key chain must be fully serialized");
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 40);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn disjoint_batch_is_one_layer() {
        let (db, t) = setup();
        let mut engine = AddrGraphEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..40).map(|k| rmw(t, k as i64)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        assert_eq!(engine.last_stats().layers, 1);
        assert!((engine.last_stats().depth_frac() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn undeclarable_txns_become_serial_barriers_not_panics() {
        // GPUTx panics on ordered range scans; the address graph must run
        // them as barrier layers, bit-identical to TID-order serial
        // execution.
        let mut db = Database::new();
        let schema = TableBuilder::new("T").columns(["a", "b"]).capacity(256).build();
        let t = db.add_built_table(Table::new(schema).with_ordered());
        for k in 0..50 {
            db.table_mut(t).insert(k, &[k, 0]).unwrap();
        }
        let mut serial_db = db.deep_clone();
        let mut engine = AddrGraphEngine::new(db);
        let mut gen = TidGen::new();
        let scan = |lo: i64| {
            Txn::new(
                ProcId(1),
                vec![],
                vec![
                    IrOp::RangeSum { table: t, lo: Src::Const(lo), hi: Src::Const(lo + 10), col: ColId(0), out: 0 },
                    IrOp::Update { table: t, key: Src::Const(lo), col: ColId(1), val: Src::Reg(0) },
                ],
            )
        };
        let txns = vec![rmw(t, 2), scan(0), rmw(t, 5), scan(3), rmw(t, 2)];
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 5);
        assert_eq!(engine.last_stats().undeclared, 2);
        for txn in &batch.txns {
            execute_serial(&mut serial_db, txn).unwrap();
        }
        assert_eq!(engine.database().state_digest(), serial_db.state_digest());
    }

    #[test]
    fn readers_share_a_layer() {
        let (db, t) = setup();
        let mut engine = AddrGraphEngine::new(db);
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
        assert_eq!(engine.last_stats().layers, 1);
    }

    #[test]
    fn duplicate_insert_aborts_like_serial_order() {
        let (db, t) = setup();
        let mut engine = AddrGraphEngine::new(db);
        let mut gen = TidGen::new();
        let ins = |k: i64, v: i64| {
            Txn::new(
                ProcId(2),
                vec![],
                vec![IrOp::Insert { table: t, key: Src::Const(k), values: vec![Src::Const(v), Src::Const(0)] }],
            )
        };
        // Two inserts of the same fresh key: the earlier TID wins.
        let batch = Batch::assemble(vec![], vec![ins(100, 1), ins(100, 2)], &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed, vec![batch.txns[0].tid]);
        assert_eq!(report.aborted, vec![batch.txns[1].tid]);
        let rid = engine.database().table(t).lookup(100).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 1);
    }

    #[test]
    fn telemetry_publishes_depth_signal() {
        let (db, t) = setup();
        let mut engine = AddrGraphEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..8).map(|_| rmw(t, 7)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        let reg = Registry::new();
        engine.record_telemetry(&reg, &report);
        assert_eq!(reg.counter_value(names::ADDRGRAPH_UNDECLARED), 0);
        assert!(engine.last_stats().depth_frac() > 0.8);
    }
}
