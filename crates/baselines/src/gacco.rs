//! GaccO (Böschen & Binnig, SIGMOD 2022): deterministic conflict ordering
//! via GPU pre-processing.
//!
//! GaccO's pre-processing builds **access tables** from the declared sets,
//! sorts them by `(row, TID)` on the device, and derives for every
//! transaction a per-row *conflict position* — its index in the row's
//! TID-sorted access queue. Execution then proceeds in bulk-synchronous
//! **waves**: a transaction runs in the wave equal to its maximum conflict
//! position, so accesses to each contended row happen in TID order.
//! Everything commits; the equivalent serial order is TID order.
//!
//! Two signature GaccO behaviours are modelled faithfully:
//!
//! * **Atomic-exchange optimization** — commutative `Add` operations are
//!   turned into "interchangeable atomic actions" that need no conflict
//!   position at all. This is why GaccO is spectacular on 100 %-Payment
//!   workloads (135 M TPS in Table II) — the W_YTD hotspot becomes one
//!   wave of atomics.
//! * **Heavy transfer volume** — the access tables and conflict metadata
//!   cross PCIe in both directions, giving GaccO the multi-millisecond
//!   transfer latencies of Table IV.

use std::collections::HashMap;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::Database;
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{apply_effects, execute_speculative};
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport, IrOp};

/// The GaccO engine.
pub struct GaccoEngine {
    db: Database,
    device: Device,
}

impl GaccoEngine {
    /// Create an engine with a default simulated device.
    pub fn new(db: Database) -> Self {
        Self::with_device(db, DeviceConfig::default())
    }

    /// Create with an explicit device configuration.
    pub fn with_device(db: Database, cfg: DeviceConfig) -> Self {
        let mut device = Device::new(cfg);
        device.register_allocation(db.bytes());
        GaccoEngine { db, device }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Cell-granularity accesses of one transaction:
    /// `(cell, kind)` where a cell is `(table, key, column)` or the row's
    /// existence pseudo-cell (`u32::MAX`) for inserts and missing-key
    /// probes. GaccO works "at the data field level", so ordering is per
    /// cell, not per row.
    fn cell_accesses(txn: &ltpg_txn::Txn) -> Vec<((u16, i64, u32), CellKind)> {
        const EXISTENCE: u32 = u32::MAX;
        let mut out: Vec<((u16, i64, u32), CellKind)> = Vec::new();
        let mut regs: Vec<Option<i64>> = vec![None; txn.reg_count()];
        let fold = |s: ltpg_txn::Src, regs: &[Option<i64>], txn: &ltpg_txn::Txn| match s {
            ltpg_txn::Src::Const(v) => Some(v),
            ltpg_txn::Src::Param(p) => txn.params.get(usize::from(p)).copied(),
            ltpg_txn::Src::Reg(r) => regs[usize::from(r)],
            ltpg_txn::Src::Tid => Some(txn.tid.0 as i64),
        };
        let push = |out: &mut Vec<((u16, i64, u32), CellKind)>, cell: (u16, i64, u32), kind: CellKind| {
            match out.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, k)) => *k = k.merge(kind),
                None => out.push((cell, kind)),
            }
        };
        for op in &txn.ops {
            match op {
                IrOp::Add { table, key, col, .. } => {
                    if let Some(k) = fold(*key, &regs, txn) {
                        push(&mut out, (table.0, k, u32::from(col.0)), CellKind::Add);
                    }
                }
                IrOp::Update { table, key, col, .. } => {
                    if let Some(k) = fold(*key, &regs, txn) {
                        push(&mut out, (table.0, k, u32::from(col.0)), CellKind::Write);
                    }
                }
                IrOp::Delete { table, key } => {
                    if let Some(k) = fold(*key, &regs, txn) {
                        push(&mut out, (table.0, k, EXISTENCE), CellKind::Write);
                    }
                }
                IrOp::Read { table, key, col, out: o } => {
                    if let Some(k) = fold(*key, &regs, txn) {
                        push(&mut out, (table.0, k, u32::from(col.0)), CellKind::Read);
                        push(&mut out, (table.0, k, EXISTENCE), CellKind::Read);
                    }
                    regs[usize::from(*o)] = None;
                }
                IrOp::Insert { table, key, .. } => {
                    if let Some(k) = fold(*key, &regs, txn) {
                        push(&mut out, (table.0, k, EXISTENCE), CellKind::Write);
                    }
                }
                IrOp::Compute { f, a, b, out: o } => {
                    let v = match (fold(*a, &regs, txn), fold(*b, &regs, txn)) {
                        (Some(x), Some(y)) => Some(f.apply(x, y)),
                        _ => None,
                    };
                    regs[usize::from(*o)] = v;
                }
                IrOp::ScanSum { table, start, count, col, out: o } => {
                    if let Some(s0) = fold(*start, &regs, txn) {
                        for i in 0..i64::from(*count) {
                            push(&mut out, (table.0, s0 + i, u32::from(col.0)), CellKind::Read);
                            push(&mut out, (table.0, s0 + i, EXISTENCE), CellKind::Read);
                        }
                    }
                    regs[usize::from(*o)] = None;
                }
                IrOp::RangeSum { .. } | IrOp::RangeMinKey { .. } | IrOp::RangeCountBelow { .. } => {
                    unreachable!("GaccO requires declarable transactions; ordered scans are not")
                }
            }
        }
        out
    }
}

/// How a transaction touched one cell (strongest-mode summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Read,
    Write,
    Add,
}

impl CellKind {
    fn merge(self, other: CellKind) -> CellKind {
        use CellKind::*;
        match (self, other) {
            (Write, _) | (_, Write) => Write,
            // A txn that both reads and adds a cell is an RMW: a write.
            (Read, Add) | (Add, Read) => Write,
            (Add, Add) => Add,
            (Read, Read) => Read,
        }
    }
}

impl BatchEngine for GaccoEngine {
    fn name(&self) -> &'static str {
        "GaccO"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        self.device.reset();
        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        let n = batch.len();

        // ---- Upload: parameters + declared access tables. ----
        let declared: Vec<_> = batch
            .txns
            .iter()
            .map(|t| declared_accesses(t).expect("GaccO requires declarable transactions"))
            .collect();
        let access_entries: usize =
            declared.iter().map(|d| d.reads.len() + d.writes.len() + d.inserts.len()).sum();
        let h2d = self.device.h2d(batch.payload_bytes() + access_entries as u64 * 8);

        // ---- Pre-processing: radix-sort the access table by (row, TID)
        // (8 passes of 4 bits over 32-bit packed keys, the standard GPU
        // radix sort GaccO's preprocessing builds on). ----
        let sort_items: Vec<u32> = (0..access_entries as u32).collect();
        for _ in 0..8 {
            self.device.launch("sort_pass", &sort_items, |lane, _| {
                lane.read_global(1);
                lane.write_global(1);
                lane.charge_alu(2);
            });
        }
        self.device.synchronize();

        // ---- Exchange eligibility (pre-processing pass 1): a cell whose
        // batch-wide accesses are exclusively commutative adds becomes an
        // "interchangeable atomic action" and needs no conflict position.
        // Any read or overwrite disqualifies the cell, and its adds are
        // then ordered like writes. ----
        type TxnCells = Vec<((u16, i64, u32), CellKind)>;
        let per_txn: Vec<TxnCells> =
            batch.txns.iter().map(Self::cell_accesses).collect();
        let mut add_only: HashMap<(u16, i64, u32), bool> = HashMap::new();
        for accesses in &per_txn {
            for (cell, kind) in accesses {
                let e = add_only.entry(*cell).or_insert(true);
                *e = *e && *kind == CellKind::Add;
            }
        }

        // ---- Conflict order → wave of each transaction (pass 2). A
        // transaction's wave exceeds the wave of every earlier conflicting
        // transaction (readers of one cell share a wave; writers
        // serialize; exchange-eligible cells impose nothing). ----
        let mut last_writer: HashMap<(u16, i64, u32), u32> = HashMap::new();
        let mut last_reader: HashMap<(u16, i64, u32), u32> = HashMap::new();
        let mut wave = vec![0u32; n];
        for (i, accesses) in per_txn.iter().enumerate() {
            let mut w = 0u32;
            for (cell, kind) in accesses {
                if *kind == CellKind::Add && add_only[cell] {
                    continue;
                }
                let is_write = *kind != CellKind::Read;
                if let Some(&lw) = last_writer.get(cell) {
                    w = w.max(lw + 1);
                }
                if is_write {
                    if let Some(&lr) = last_reader.get(cell) {
                        w = w.max(lr + 1);
                    }
                }
            }
            wave[i] = w;
            for (cell, kind) in accesses {
                if *kind == CellKind::Add && add_only[cell] {
                    continue;
                }
                let is_write = *kind != CellKind::Read;
                let slot = if is_write { &mut last_writer } else { &mut last_reader };
                let e = slot.entry(*cell).or_insert(0);
                *e = (*e).max(w);
            }
        }

        // Pure-exchange transactions (nothing but reads and exchangeable
        // adds) skip interpreter dispatch in the execution kernel.
        let lean: Vec<bool> = per_txn
            .iter()
            .map(|accesses| {
                accesses.iter().all(|(cell, kind)| {
                    *kind == CellKind::Read || (*kind == CellKind::Add && add_only[cell])
                })
            })
            .collect();

        // ---- Execute waves. ----
        let max_wave = wave.iter().copied().max().unwrap_or(0);
        let mut committed = Vec::with_capacity(n);
        let mut aborted = Vec::new();
        for w in 0..=max_wave {
            let layer: Vec<usize> = (0..n).filter(|&i| wave[i] == w).collect();
            if layer.is_empty() {
                continue;
            }
            let mut results = Vec::with_capacity(layer.len());
            self.device.launch("exec_wave", &layer, |lane, &i| {
                let txn = &batch.txns[i];
                lane.branch(u32::from(txn.proc.0));
                lane.charge_alu(txn.ops.len() as u32);
                if lean[i] {
                    // Pure exchange transaction (all writes commutative):
                    // executes as a burst of pre-planned atomic actions
                    // with no interpreter dispatch — the optimization that
                    // makes GaccO spectacular on 100 %-Payment (Table II).
                    lane.read_global(txn.ops.len() as u32);
                    lane.write_global(txn.ops.len() as u32);
                } else {
                    lane.charge_cycles(lane_proc_overhead);
                    lane.read_global_random(2 * txn.ops.len() as u32);
                    lane.write_global(txn.ops.len() as u32);
                }
                results.push(execute_speculative(&self.db, txn));
            });
            // Waves apply in TID order; within a wave rows are disjoint
            // except commutative adds, which commute.
            for (res, i) in results.into_iter().zip(layer) {
                match res {
                    Ok(fx) => {
                        apply_effects(&mut self.db, &fx).expect("GaccO apply");
                        committed.push(batch.txns[i].tid);
                    }
                    Err(_) => aborted.push(batch.txns[i].tid),
                }
            }
            self.device.synchronize();
        }
        committed.sort_unstable();

        // ---- Download: results + updated tuple copies (GaccO keeps
        // primary copies host-side and propagates every update back,
        // which is why its transmission volume dwarfs LTPG's R/W-set
        // shipping — paper Table IV). ----
        let d2h = self.device.d2h(n as u64 * 8 + access_entries as u64 * 8);
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

impl std::fmt::Debug for GaccoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaccoEngine").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{ComputeFn, ProcId, Src, TidGen, Txn};

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

    fn add(t: TableId, k: i64) -> Txn {
        Txn::new(
            ProcId(1),
            vec![],
            vec![IrOp::Add { table: t, key: Src::Const(k), col: ColId(1), delta: Src::Const(1) }],
        )
    }

    #[test]
    fn rmw_chain_executes_in_tid_waves() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = GaccoEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..30).map(|_| rmw(t, 9)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 30);
        let rid = engine.database().table(t).lookup(9).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 30);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn atomic_exchange_collapses_commutative_hotspot_to_one_wave() {
        let (db, t) = setup();
        let mut engine = GaccoEngine::new(db);
        let mut gen = TidGen::new();
        // 100 commutative adds to one row: one wave.
        let batch = Batch::assemble(vec![], (0..100).map(|_| add(t, 0)).collect(), &mut gen);
        let before = engine.device().stats().kernels;
        let report = engine.execute_batch(&batch);
        let exec_kernels = engine.device().stats().kernels - before;
        let _ = exec_kernels;
        assert_eq!(report.committed.len(), 100);
        let rid = engine.database().table(t).lookup(0).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(1)), 100);
        // Compare wave counts: RMW chain needs ~100 waves, adds need 1.
        let mut gen2 = TidGen::new();
        let (db2, t2) = setup();
        let mut engine2 = GaccoEngine::new(db2);
        let b2 = Batch::assemble(vec![], (0..100).map(|_| rmw(t2, 0)).collect(), &mut gen2);
        let r_adds = report.sim_ns;
        let r_rmw = engine2.execute_batch(&b2).sim_ns;
        assert!(r_rmw > r_adds * 3.0, "rmw {r_rmw} vs adds {r_adds}");
    }

    #[test]
    fn transfer_volume_scales_with_access_sets() {
        let (db, t) = setup();
        let mut engine = GaccoEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..50).map(|k| rmw(t, k as i64 % 50)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert!(report.transfer_ns > 0.0);
        let stats = engine.device().stats();
        // Access tables shipped both ways.
        assert!(stats.bytes_h2d > batch.payload_bytes());
        assert!(stats.bytes_d2h > 50 * 8);
    }
}
