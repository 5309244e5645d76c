//! Block-STM (Gelashvili et al., PPoPP 2023): optimistic parallel execution
//! with per-location versioned reads, validation, and deterministic
//! re-execution waves on validation failure.
//!
//! Every unfinalized transaction executes speculatively against the current
//! committed state (one lane per transaction, no declared access sets
//! needed). A greedy validation pass in TID order then finalizes the
//! transactions whose read sets were *not* invalidated: a transaction is
//! valid iff none of its read locations intersect (a) the locations written
//! by transactions finalized earlier in this wave or (b) the locations a
//! *deferred* earlier transaction may still write, and none of its own
//! writes intersect a deferred earlier transaction's possible reads.
//! Invalidated transactions re-execute in the next wave against the updated
//! state. The committed history is **bit-identical to serial execution in
//! TID order** — the preset-order guarantee of real Block-STM — so the
//! engine reports [`CommitSemantics::SerialOrder`] with TID order as the
//! equivalent serial order, and only user logic (duplicate inserts) aborts.
//!
//! Locations are cell-granular: `(table, key, column)`, with a slot for the
//! row-existence bit and `ltpg_storage::membership_key` pseudo-cells
//! versioning a partition's key set (phantom protection for ordered scans).
//! Blind writes — an update that never reads the cell it overwrites, the
//! YCSB update shape — can never be invalidated, which is why Block-STM
//! keeps committing in one or two waves under write-heavy contention where
//! abort-based schemes throw work away.

use std::collections::HashSet;
use std::time::Instant;

use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::{membership_key, Database, MEMBERSHIP_PARTITION_SHIFT};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{apply_effects, execute_speculative, ExecError, Mutation, ReadAccess, TxnEffects};
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport, Tid, Txn};

/// A versioned memory location: `(table, key, slot)` where slot 0 is the
/// row-existence cell and slot `c + 1` is column `c`. Membership pseudo-keys
/// version a table partition's key set.
pub type Loc = (u16, i64, u16);

#[inline]
fn read_loc(r: &ReadAccess) -> Loc {
    (r.table.0, r.key, r.col.map(|c| c.0 + 1).unwrap_or(0))
}

/// Locations `fx` actually writes. Inserts and deletes touch the existence
/// cell, every column, and the key's membership partition.
fn write_locs(db: &Database, fx: &TxnEffects, out: &mut Vec<Loc>) {
    for m in &fx.mutations {
        match m {
            Mutation::Update { table, key, col, .. } | Mutation::Add { table, key, col, .. } => {
                out.push((table.0, *key, col.0 + 1));
            }
            Mutation::Insert { table, key, .. } | Mutation::Delete { table, key } => {
                out.push((table.0, *key, 0));
                for c in 0..db.table(*table).width() as u16 {
                    out.push((table.0, *key, c + 1));
                }
                out.push((table.0, membership_key(key >> MEMBERSHIP_PARTITION_SHIFT), 0));
            }
        }
    }
}

/// Conservative superset of every location a *re-execution* of `txn` may
/// write, derived from its declared access sets (row-expanded to all cells:
/// an update of a currently-missing row becomes a real write if an earlier
/// transaction inserts the row between waves). `None` when the transaction
/// is undeclarable — its future footprint is unknowable.
fn declared_write_locs(db: &Database, txn: &Txn) -> Option<Vec<Loc>> {
    let d = declared_accesses(txn)?;
    let mut locs = Vec::new();
    for (t, k) in d.all_writes() {
        locs.push((t.0, k, 0));
        for c in 0..db.table(t).width() as u16 {
            locs.push((t.0, k, c + 1));
        }
    }
    for (t, k) in d.inserts.iter().chain(d.deletes.iter()) {
        locs.push((t.0, membership_key(k >> MEMBERSHIP_PARTITION_SHIFT), 0));
    }
    Some(locs)
}

/// Conservative superset of every location a re-execution of `txn` may
/// read (declared read *and* write rows, row-expanded: writes of missing
/// rows record existence probes, inserts probe for duplicates).
fn declared_read_locs(db: &Database, txn: &Txn) -> Option<Vec<Loc>> {
    let d = declared_accesses(txn)?;
    let mut locs = Vec::new();
    let rows = d
        .reads
        .iter()
        .copied()
        .chain(d.all_writes())
        .chain(d.deletes.iter().copied());
    for (t, k) in rows {
        locs.push((t.0, k, 0));
        for c in 0..db.table(t).width() as u16 {
            locs.push((t.0, k, c + 1));
        }
    }
    Some(locs)
}

/// Per-batch scheduler statistics, the adaptive policy's input signal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStmStats {
    /// Optimistic-execution waves the batch needed (1 = no invalidation).
    pub waves: u32,
    /// Transaction-wave deferrals (read-set invalidations forcing a
    /// re-execution). Pure RAW pressure: blind writes never defer.
    pub deferrals: u64,
    /// Transactions in the batch.
    pub batch_len: usize,
}

impl BlockStmStats {
    /// Deferrals normalized by batch size — comparable across batch sizes
    /// and engines. Can exceed 1.0 when transactions defer repeatedly.
    pub fn deferral_frac(&self) -> f64 {
        if self.batch_len == 0 {
            0.0
        } else {
            self.deferrals as f64 / self.batch_len as f64
        }
    }
}

/// The Block-STM scheduler core: a simulated device plus per-batch stats,
/// executing against a **borrowed** database. [`BlockStmEngine`] wraps it
/// with an owned database for standalone [`BatchEngine`] use; the adaptive
/// engine drives the core directly against the LTPG engine's database.
pub struct BlockStmCore {
    device: Device,
    last: BlockStmStats,
}

impl Default for BlockStmCore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStmCore {
    /// A core with a default simulated device.
    pub fn new() -> Self {
        Self::with_device(DeviceConfig::default())
    }

    /// A core with an explicit device configuration.
    pub fn with_device(cfg: DeviceConfig) -> Self {
        BlockStmCore { device: Device::new(cfg), last: BlockStmStats::default() }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Stats of the most recent batch.
    pub fn last_stats(&self) -> BlockStmStats {
        self.last
    }

    /// Execute one batch against `db`, writing each transaction's effects
    /// once it is decided, and report the outcome.
    pub fn execute(&mut self, db: &mut Database, batch: &Batch) -> BatchReport {
        let wall = Instant::now();
        self.device.reset();
        let lane_proc_overhead = self.device.cost().proc_overhead_cycles;
        let n = batch.len();

        // ---- Upload: transaction parameters only (no access sets — the
        // optimistic scheduler discovers them by executing). ----
        let h2d = self.device.h2d(batch.payload_bytes());

        let mut finalized = vec![false; n];
        let mut committed: Vec<Tid> = Vec::with_capacity(n);
        let mut aborted: Vec<Tid> = Vec::new();
        let mut stats = BlockStmStats { batch_len: n, ..BlockStmStats::default() };
        let mut remaining = n;
        let mut transfer = h2d;

        while remaining > 0 {
            stats.waves += 1;
            let active: Vec<(usize, usize)> =
                (0..n).filter(|&i| !finalized[i]).enumerate().collect();

            // ---- Optimistic execution: one lane per unfinalized txn,
            // all reading the same committed snapshot. ----
            let mut results: Vec<Result<TxnEffects, ExecError>> = Vec::with_capacity(active.len());
            self.device.launch("bstm_exec", &active, |lane, &(_, i)| {
                let txn = &batch.txns[i];
                lane.branch(u32::from(txn.proc.0));
                lane.charge_alu(txn.ops.len() as u32);
                lane.charge_cycles(lane_proc_overhead);
                lane.read_global_random(2 * txn.ops.len() as u32);
                lane.write_global(txn.ops.len() as u32);
                results.push(execute_speculative(db, txn));
            });
            self.device.synchronize();

            // ---- Validation kernel: each lane rescans its read set
            // against the shared version table. ----
            self.device.launch("bstm_validate", &active, |lane, &(pos, _)| {
                let reads = match &results[pos] {
                    Ok(fx) => fx.reads.len() as u32,
                    Err(_) => 1,
                };
                lane.read_global(reads + 1);
                lane.charge_alu(reads);
            });
            self.device.synchronize();

            // ---- Host-mirrored greedy finalization in TID order. A txn
            // finalizes iff its execution is provably equivalent to serial
            // execution at its TID position:
            //   reads ∩ (wave_writes ∪ deferred_writes) = ∅  (it missed no
            //     earlier transaction's write), and
            //   writes ∩ deferred_reads = ∅  (it leaks no write to an
            //     earlier transaction's re-execution).
            // Deferred footprints come from declared access sets (exact
            // key supersets — declarable keys are constant-folded, so they
            // cannot change across re-executions). An undeclarable deferral
            // has an unknowable footprint and conservatively stops the
            // wave's finalization scan. ----
            let mut wave_writes: HashSet<Loc> = HashSet::new();
            let mut deferred_writes: HashSet<Loc> = HashSet::new();
            let mut deferred_reads: HashSet<Loc> = HashSet::new();
            let mut deferred_this_wave = 0u64;
            let mut unknown_deferred = false;
            let mut committed_this_wave: u32 = 0;
            let mut write_buf: Vec<Loc> = Vec::new();
            for &(pos, i) in &active {
                if unknown_deferred {
                    stats.deferrals += 1;
                    continue;
                }
                let txn = &batch.txns[i];
                let defer = |deferred_writes: &mut HashSet<Loc>,
                                 deferred_reads: &mut HashSet<Loc>,
                                 unknown: &mut bool| {
                    match (declared_write_locs(db, txn), declared_read_locs(db, txn)) {
                        (Some(w), Some(r)) => {
                            deferred_writes.extend(w);
                            deferred_reads.extend(r);
                        }
                        _ => *unknown = true,
                    }
                };
                match &results[pos] {
                    Ok(fx) => {
                        write_buf.clear();
                        write_locs(db, fx, &mut write_buf);
                        let invalid = fx.reads.iter().any(|r| {
                            let l = read_loc(r);
                            wave_writes.contains(&l) || deferred_writes.contains(&l)
                        }) || write_buf.iter().any(|l| deferred_reads.contains(l));
                        if invalid {
                            stats.deferrals += 1;
                            deferred_this_wave += 1;
                            defer(&mut deferred_writes, &mut deferred_reads, &mut unknown_deferred);
                        } else {
                            apply_effects(db, fx).expect("Block-STM apply");
                            wave_writes.extend(write_buf.iter().copied());
                            committed.push(txn.tid);
                            committed_this_wave += 1;
                            finalized[i] = true;
                            remaining -= 1;
                        }
                    }
                    Err(_) => {
                        // A user abort only stands if the snapshot it was
                        // decided on is exactly the serial prefix state —
                        // i.e. nothing finalized or deferred before it this
                        // wave. Otherwise re-run against fresher state.
                        if wave_writes.is_empty() && deferred_this_wave == 0 {
                            aborted.push(txn.tid);
                            finalized[i] = true;
                            remaining -= 1;
                        } else {
                            stats.deferrals += 1;
                            deferred_this_wave += 1;
                            defer(&mut deferred_writes, &mut deferred_reads, &mut unknown_deferred);
                        }
                    }
                }
            }

            // ---- Commit kernel: flush the finalized lanes' write buffers
            // to the versioned store. ----
            if committed_this_wave > 0 {
                self.device.launch_indexed("bstm_commit", committed_this_wave as usize, |lane| {
                    lane.write_global(2);
                    lane.charge_alu(1);
                });
            }
            self.device.synchronize();
        }

        // The committed list is the claimed equivalent serial order — TID
        // order, Block-STM's preset-order guarantee.
        committed.sort_unstable();

        // ---- Download results. ----
        let d2h = self.device.d2h(n as u64 * 8);
        transfer += d2h;
        let sim_ns = self.device.elapsed_ns();
        self.last = stats;

        BatchReport {
            committed,
            aborted,
            sim_ns,
            critical_path_ns: sim_ns,
            transfer_ns: transfer,
            wall_ns: wall.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SerialOrder,
        }
    }

    /// Publish the last batch's scheduler internals (wave count, deferral
    /// counter) to `reg`.
    pub fn publish_stats(&self, reg: &Registry) {
        reg.histogram(names::BLOCKSTM_WAVES).record(self.last.waves as u64);
        reg.counter(names::BLOCKSTM_DEFERRALS).add(self.last.deferrals);
    }
}

/// The Block-STM engine: [`BlockStmCore`] plus an owned database.
pub struct BlockStmEngine {
    db: Database,
    core: BlockStmCore,
}

impl BlockStmEngine {
    /// Create an engine with a default simulated device.
    pub fn new(db: Database) -> Self {
        Self::with_device(db, DeviceConfig::default())
    }

    /// Create with an explicit device configuration.
    pub fn with_device(db: Database, cfg: DeviceConfig) -> Self {
        let mut core = BlockStmCore::with_device(cfg);
        core.device.register_allocation(db.bytes());
        BlockStmEngine { db, core }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        self.core.device()
    }

    /// Stats of the most recent batch.
    pub fn last_stats(&self) -> BlockStmStats {
        self.core.last_stats()
    }
}

impl BatchEngine for BlockStmEngine {
    fn name(&self) -> &'static str {
        "BlockSTM"
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

impl std::fmt::Debug for BlockStmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStmEngine").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::oracle::check_ordered_serializable;
    use ltpg_txn::{execute_serial, ComputeFn, IrOp, ProcId, Src, TidGen};

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

    fn blind(t: TableId, k: i64, v: i64) -> Txn {
        Txn::new(
            ProcId(1),
            vec![],
            vec![IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(v) }],
        )
    }

    #[test]
    fn contended_rmw_chain_matches_serial_tid_order() {
        let (db, t) = setup();
        let pre = db.deep_clone();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..40).map(|_| rmw(t, 7)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 40);
        // Every RMW reads the previous writer's value: one deferral wave
        // per transaction past the first.
        assert_eq!(engine.last_stats().waves, 40);
        let ordered: Vec<&Txn> =
            report.committed.iter().map(|tid| batch.by_tid(*tid).unwrap()).collect();
        check_ordered_serializable(&pre, &ordered, engine.database()).unwrap();
    }

    #[test]
    fn blind_writes_commit_in_one_wave() {
        let (db, t) = setup();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        // 40 blind writers of the same hot cell: nothing reads, nothing
        // defers — last TID wins, as TID-order serial execution demands.
        let batch =
            Batch::assemble(vec![], (0..40).map(|v| blind(t, 7, v)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        assert_eq!(engine.last_stats().waves, 1);
        assert_eq!(engine.last_stats().deferrals, 0);
        let rid = engine.database().table(t).lookup(7).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 39);
    }

    #[test]
    fn disjoint_batch_needs_one_wave() {
        let (db, t) = setup();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..40).map(|k| rmw(t, k as i64)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 40);
        assert_eq!(engine.last_stats().waves, 1);
    }

    #[test]
    fn mixed_contention_is_bit_identical_to_serial_execution() {
        let (db, t) = setup();
        let mut serial_db = db.deep_clone();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        // Readers, blind writers, RMWs, inserts (one duplicate) interleaved.
        let mut txns = Vec::new();
        for i in 0..30i64 {
            txns.push(match i % 4 {
                0 => rmw(t, 3),
                1 => blind(t, 3, i),
                2 => Txn::new(
                    ProcId(2),
                    vec![],
                    vec![IrOp::Read { table: t, key: Src::Const(3), col: ColId(0), out: 0 }],
                ),
                _ => Txn::new(
                    ProcId(3),
                    vec![],
                    vec![IrOp::Insert {
                        table: t,
                        key: Src::Const(100 + (i / 8)), // repeats → duplicate aborts
                        values: vec![Src::Const(i), Src::Const(0)],
                    }],
                ),
            });
        }
        let batch = Batch::assemble(vec![], txns, &mut gen);
        let report = engine.execute_batch(&batch);
        // Reference: serial execution in TID order.
        let mut serial_committed = 0;
        for txn in &batch.txns {
            if execute_serial(&mut serial_db, txn).is_ok() {
                serial_committed += 1;
            }
        }
        assert_eq!(report.committed.len(), serial_committed);
        assert_eq!(
            engine.database().state_digest(),
            serial_db.state_digest(),
            "Block-STM must be bit-identical to TID-order serial execution"
        );
    }

    #[test]
    fn duplicate_insert_is_the_only_abort() {
        let (db, t) = setup();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        let dup = Txn::new(
            ProcId(3),
            vec![],
            vec![IrOp::Insert { table: t, key: Src::Const(7), values: vec![Src::Const(1), Src::Const(2)] }],
        );
        let batch = Batch::assemble(vec![], vec![rmw(t, 1), dup], &mut gen);
        let report = engine.execute_batch(&batch);
        assert_eq!(report.committed.len(), 1);
        assert_eq!(report.aborted.len(), 1);
    }

    #[test]
    fn telemetry_publishes_wave_and_deferral_signal() {
        let (db, t) = setup();
        let mut engine = BlockStmEngine::new(db);
        let mut gen = TidGen::new();
        let batch = Batch::assemble(vec![], (0..8).map(|_| rmw(t, 7)).collect(), &mut gen);
        let report = engine.execute_batch(&batch);
        let reg = Registry::new();
        engine.record_telemetry(&reg, &report);
        assert_eq!(reg.counter_value(names::BLOCKSTM_DEFERRALS), engine.last_stats().deferrals);
        assert!(engine.last_stats().deferral_frac() > 0.5);
    }
}
