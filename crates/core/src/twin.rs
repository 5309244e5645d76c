//! The CPU twin: a serial, scoped, split-phase executor of the three-phase
//! rule.
//!
//! [`CpuTwin`] mirrors the GPU engine's protocol on the host: it executes
//! every transaction of its (sub-)batch in full (resolving rows it does
//! not hold through the scope's remote view), but registers, detects and
//! writes back only the cells its scope owns, and exposes the
//! per-transaction flag words between the two phases so a sharded caller
//! can OR-merge verdicts across participants. "Whole database" is the
//! trivial scope, `None` — which is what [`BatchEngine::execute_batch`]
//! runs, so WAL replay and single-device degradation use the same code as
//! a degraded shard.
//!
//! Staging, the footprint walk, the conflict table and the commit rule are
//! the engine's own ([`stage_effects`], [`crate::footprint`],
//! [`commit_decision`]); what the twin owns is its conflict log — exact
//! `BTreeMap` min-TID cells instead of hashed buckets — its serial
//! write-back and its delayed fold. Commit decisions are therefore bit-identical to the GPU
//! engine's, with one documented exception: the GPU log can run out of
//! buckets (or collide on its 40-bit key tags) under extreme load and
//! force-abort transactions the exact maps admit — the twin never raises
//! `LOG_FULL`. Workloads below that capacity (all of this repository's)
//! decide identically; see DESIGN.md for the caveat.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use ltpg_baselines::CpuCostModel;
use ltpg_storage::{ColId, Database, TableId};
use ltpg_txn::engine::CommitSemantics;
use ltpg_txn::exec::{execute_speculative, execute_speculative_on, Mutation, ReadAccess};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::LtpgConfig;
use crate::engine::{
    apply_mutation, commit_decision, flag, reserve_inserts, scope_owns, scope_owns_row,
    stage_effects, ExecScope, ScopedStore, Staged,
};
use crate::footprint::{self, conflict_flags, Cell, Record};

/// Exact min-TID maps standing in for the GPU conflict log: one per
/// [`Record`], indexed by it.
#[derive(Default)]
struct MinTidLog {
    min: [BTreeMap<Cell, u64>; 2],
}

impl MinTidLog {
    /// `atomicMin` on an exact map.
    fn register(&mut self, cell: Cell, record: Record, tid: u64) {
        self.min[record as usize].entry(cell).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
    }
}

/// Per-transaction result of the twin's execute phase.
struct ExecOutcome {
    reads: Vec<ReadAccess>,
    normal: Vec<Mutation>,
    delayed: Vec<(TableId, ColId, i64, i64)>,
}

/// State carried between [`CpuTwin::prepare`] and [`CpuTwin::finish`] —
/// the CPU analogue of [`crate::PreparedBatch`].
pub struct TwinPrepared {
    /// `None` for user-aborted and force-aborted transactions.
    outcomes: Vec<Option<ExecOutcome>>,
    flags: Vec<u32>,
    /// Per-op work spread over the worker pool, ns.
    work_ns: f64,
    prep_ns: f64,
    wall_start: Instant,
}

impl TwinPrepared {
    /// Conflict-flag word of transaction `i` (batch order).
    pub fn flag_word(&self, i: usize) -> u32 {
        self.flags[i]
    }

    /// Overwrite the flag word of transaction `i` with the cross-shard
    /// merged word.
    pub fn set_flag_word(&mut self, i: usize, word: u32) {
        self.flags[i] = word;
    }

    /// Simulated nanoseconds of the prepare phase.
    pub fn sim_ns(&self) -> f64 {
        self.prep_ns
    }
}

/// Serial scoped executor producing LTPG-identical flag words.
pub struct CpuTwin {
    db: Database,
    cfg: LtpgConfig,
    cost: CpuCostModel,
    /// Tables containing at least one commutatively-maintained column
    /// (mirrors the GPU engine's delete force-abort rule).
    commutative_tables: HashSet<TableId>,
}

impl CpuTwin {
    /// A twin over `db` (the whole database, or one shard's slice) with
    /// the engine configuration whose decisions it must reproduce.
    pub fn new(db: Database, cfg: LtpgConfig) -> Self {
        let commutative_tables = cfg.commutative_tables();
        CpuTwin { db, cfg, cost: CpuCostModel::xeon30(), commutative_tables }
    }

    /// Consume the twin, returning its database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Move the database out, leaving an empty one behind. For a twin that
    /// is about to be replaced (re-promotion onto a recovered device).
    pub(crate) fn take_database(&mut self) -> Database {
        std::mem::take(&mut self.db)
    }

    /// Simulated cost of the finish phase: the third phase barrier.
    pub(crate) fn finish_ns(&self) -> f64 {
        self.cost.barrier_ns
    }

    /// Execute + register + detect the batch against the pre-batch
    /// snapshot (no database mutation). With a scope, remote reads resolve
    /// through `scope.remote` and registration/detection cover only owned
    /// cells.
    pub fn prepare(&mut self, batch: &Batch, scope: Option<&ExecScope<'_>>) -> TwinPrepared {
        let wall_start = Instant::now();
        let n = batch.len();
        let scoped_store =
            scope.and_then(|s| s.remote).map(|remote| ScopedStore { local: &self.db, remote });
        let mut flags = vec![0u32; n];
        let mut outcomes: Vec<Option<ExecOutcome>> = Vec::with_capacity(n);
        let mut log = MinTidLog::default();
        let mut work_ops = 0u64;

        // ---- Execute + min-TID registration over owned cells. ----
        for (idx, txn) in batch.txns.iter().enumerate() {
            work_ops += txn.ops.len() as u64;
            let speculated = match &scoped_store {
                Some(store) => execute_speculative_on(store, txn),
                None => execute_speculative(&self.db, txn),
            };
            let Ok(fx) = speculated else {
                flags[idx] |= flag::USER;
                outcomes.push(None);
                continue;
            };
            let tid = txn.tid.0;
            let Staged { reads, normal, delayed, forced } =
                stage_effects(&self.cfg, &self.commutative_tables, fx);
            if forced {
                flags[idx] |= flag::FORCED;
                outcomes.push(None);
                continue;
            }
            footprint::walk(&self.db, &reads, &normal, |cell, check| {
                if scope_owns(scope, cell) {
                    check.records().iter().for_each(|&r| log.register(cell, r, tid));
                }
            });
            outcomes.push(Some(ExecOutcome { reads, normal, delayed }));
        }

        // ---- Conflict detection over owned cells (the rest are owned by
        // another shard, which derives their bits). ----
        for (idx, out) in outcomes.iter().enumerate() {
            let Some(out) = out else { continue };
            let tid = batch.txns[idx].tid.0;
            footprint::walk(&self.db, &out.reads, &out.normal, |cell, check| {
                if scope_owns(scope, cell) {
                    conflict_flags(
                        &mut flags[idx],
                        check,
                        tid,
                        |_, record| log.min[record as usize].get(&cell).copied(),
                        |word, bit| *word |= bit,
                    );
                }
            });
        }

        // Execute + detect span two of the three phase barriers; per-op
        // work spreads over the worker pool. Reporting only — decisions
        // never depend on simulated time.
        let per_op = self.cost.index_ns + self.cost.read_ns + self.cost.write_ns;
        let work_ns = work_ops as f64 * per_op / self.cost.workers as f64;
        let prep_ns = 2.0 * self.cost.barrier_ns + work_ns;
        TwinPrepared { outcomes, flags, work_ns, prep_ns, wall_start }
    }

    /// Apply the commit rule over the (possibly merged) flag words, write
    /// back the owned mutations of committing transactions and fold their
    /// delayed adds. The report's `sim_ns` covers all three phases.
    pub fn finish(
        &mut self,
        batch: &Batch,
        prepared: TwinPrepared,
        scope: Option<&ExecScope<'_>>,
    ) -> BatchReport {
        let TwinPrepared { outcomes, flags, work_ns, wall_start, .. } = prepared;
        let owns_row = |t: TableId, k: i64| scope_owns_row(scope, t, k);
        let reordering = self.cfg.opts.logical_reordering;
        let writes = flags.iter().zip(&outcomes).filter(|(&f, _)| commit_decision(reordering, f));
        reserve_inserts(
            &mut self.db,
            &mut Vec::new(),
            writes.filter_map(|(_, out)| out.as_ref()).flat_map(|out| &out.normal),
            owns_row,
        );
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        // Delayed-update merge over owned cells, applied in sorted cell
        // order after the plain write-back.
        let mut merge_map: HashMap<(TableId, ColId, i64), i64> = HashMap::new();
        for ((txn, &f), out) in batch.txns.iter().zip(&flags).zip(&outcomes) {
            if !commit_decision(reordering, f) {
                aborted.push(txn.tid);
                continue;
            }
            committed.push(txn.tid);
            let Some(out) = out else { continue };
            for m in &out.normal {
                let (mt, mk) = m.row();
                if owns_row(mt, mk) {
                    apply_mutation(&self.db, m);
                }
            }
            for &(t, c, k, d) in &out.delayed {
                if owns_row(t, k) {
                    let e = merge_map.entry((t, c, k)).or_insert(0);
                    *e = e.wrapping_add(d);
                }
            }
        }
        let mut merged: Vec<((TableId, ColId, i64), i64)> = merge_map.into_iter().collect();
        merged.sort_unstable_by_key(|(cell, _)| *cell);
        for ((t, c, k), sum) in merged {
            let table = self.db.table(t);
            if let Some(rid) = table.lookup(k) {
                table.add(rid, c, sum);
            }
        }
        let sim_ns = 3.0 * self.cost.barrier_ns + work_ns;
        BatchReport {
            committed,
            aborted,
            sim_ns,
            critical_path_ns: sim_ns,
            transfer_ns: 0.0,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            semantics: CommitSemantics::SnapshotBatch,
        }
    }
}

impl BatchEngine for CpuTwin {
    fn name(&self) -> &'static str {
        "LTPG-CPU-fallback"
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let prepared = self.prepare(batch, None);
        self.finish(batch, prepared, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LtpgEngine;
    use ltpg_storage::TableBuilder;
    use ltpg_txn::{IrOp, ProcId, Src, TidGen, Txn};

    fn build_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(64).build());
        for k in 0..8 {
            db.table(t).insert(k, &[10, 0]).unwrap();
        }
        (db, t)
    }

    /// Column `b` is a delayed (commutative) hot column.
    fn delayed_cfg(t: TableId) -> LtpgConfig {
        let mut cfg = LtpgConfig::default();
        cfg.delayed_cols.insert((t, ColId(1)));
        cfg
    }

    fn run(twin: &mut CpuTwin, txns: Vec<Txn>) -> BatchReport {
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut tids);
        twin.execute_batch(&batch)
    }

    fn update(t: TableId, key: i64, col: u16, val: i64) -> Txn {
        let op =
            IrOp::Update { table: t, key: Src::Const(key), col: ColId(col), val: Src::Const(val) };
        Txn::new(ProcId(0), vec![], vec![op])
    }

    #[test]
    fn commutative_adds_all_commit_and_merge() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let txns: Vec<Txn> = (0..16)
            .map(|i| {
                let op = IrOp::Add {
                    table: t,
                    key: Src::Const(3),
                    col: ColId(1),
                    delta: Src::Const(i + 1),
                };
                Txn::new(ProcId(0), vec![], vec![op])
            })
            .collect();
        let report = run(&mut twin, txns);
        assert_eq!(report.committed.len(), 16, "delayed adds never conflict");
        let db = twin.into_database();
        let rid = db.table(t).lookup(3).unwrap();
        assert_eq!(db.table(t).get(rid, ColId(1)), (1..=16).sum::<i64>());
    }

    #[test]
    fn forced_aborts_mirror_the_gpu_rules() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let update_hot = update(t, 0, 1, 5);
        let delete_on_commutative_table =
            Txn::new(ProcId(0), vec![], vec![IrOp::Delete { table: t, key: Src::Const(1) }]);
        let read_hot = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Read { table: t, key: Src::Const(2), col: ColId(1), out: 0 }],
        );
        let plain_update = update(t, 4, 0, 9);
        let report =
            run(&mut twin, vec![update_hot, delete_on_commutative_table, read_hot, plain_update]);
        assert_eq!(report.aborted.len(), 3, "hot-column update/delete/read are force-aborted");
        assert_eq!(report.committed.len(), 1, "the plain update is unaffected");
    }

    #[test]
    fn waw_aborts_all_but_the_minimum_tid() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let report = run(&mut twin, (0..6).map(|i| update(t, 5, 0, 100 + i)).collect());
        assert_eq!(report.committed.len(), 1);
        assert_eq!(report.aborted.len(), 5);
        let min_tid =
            report.committed.iter().chain(report.aborted.iter()).map(|x| x.0).min().unwrap();
        assert_eq!(report.committed[0].0, min_tid, "deterministic: the minimum TID wins");
    }

    #[test]
    fn raw_rule_depends_on_logical_reordering() {
        // txn A (lower TID) writes key 6; txn B reads key 6 (RAW on B) and
        // writes nothing read by A. With reordering, B commits (no WAR);
        // without, RAW alone aborts B.
        let mk = |t: TableId| {
            let read = IrOp::Read { table: t, key: Src::Const(6), col: ColId(0), out: 0 };
            vec![update(t, 6, 0, 1), Txn::new(ProcId(0), vec![], vec![read])]
        };
        let (db, t) = build_db();
        let mut reordering = CpuTwin::new(db, delayed_cfg(t));
        assert_eq!(run(&mut reordering, mk(t)).committed.len(), 2);

        let (db, t) = build_db();
        let mut cfg = delayed_cfg(t);
        cfg.opts.logical_reordering = false;
        let mut strict = CpuTwin::new(db, cfg);
        let report = run(&mut strict, mk(t));
        assert_eq!(report.committed.len(), 1, "without reordering, RAW aborts the reader");
    }

    #[test]
    fn duplicate_insert_is_a_user_abort() {
        let (db, t) = build_db();
        let mut twin = CpuTwin::new(db, delayed_cfg(t));
        let dup = Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Insert {
                table: t,
                key: Src::Const(0),
                values: vec![Src::Const(1), Src::Const(1)],
            }],
        );
        let report = run(&mut twin, vec![dup]);
        assert_eq!(report.committed.len(), 0);
        assert_eq!(report.aborted.len(), 1);
    }

    #[test]
    fn unscoped_twin_matches_the_gpu_engine_decisions() {
        let (db, t) = build_db();
        let txns: Vec<Txn> = (0..6)
            .map(|i| {
                Txn::new(
                    ProcId(0),
                    vec![],
                    vec![
                        IrOp::Read { table: t, key: Src::Const(i), col: ColId(0), out: 0 },
                        IrOp::Update {
                            table: t,
                            key: Src::Const(5),
                            col: ColId(0),
                            val: Src::Const(100 + i),
                        },
                    ],
                )
            })
            .collect();
        let mut tids = TidGen::new();
        let batch = Batch::assemble(vec![], txns, &mut tids);

        let mut gpu = LtpgEngine::new(db.deep_clone(), LtpgConfig::default());
        let gpu_report = gpu.execute_batch_report(&batch);

        let mut cpu = CpuTwin::new(db, LtpgConfig::default());
        let cpu_report = cpu.execute_batch(&batch);
        assert_eq!(cpu_report.committed, gpu_report.report.committed);
        assert_eq!(cpu_report.aborted, gpu_report.report.aborted);
        assert_eq!(
            cpu.database().state_digest(),
            gpu.database().state_digest(),
            "same commits must leave the same state"
        );
    }
}
