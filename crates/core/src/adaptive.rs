//! Adaptive concurrency control: pick LTPG, Block-STM, or the
//! address-graph scheduler **per batch**, from the previous batch's
//! telemetry plus a cheap deterministic scan of the incoming batch.
//!
//! The GPU-OLTP literature (PAPERS.md) agrees no single CC scheme wins
//! every contention regime, and our own sweeps bear it out:
//!
//! | Regime | Winner | Why |
//! |---|---|---|
//! | read-only / near-read-only, skewed | address graph | graph is one layer and the sort dedups hot keys; zero validation or conflict-log cost |
//! | read-only / near-read-only, uniform | Block-STM | still one wave, but no rank build over a wide key set; validation is free with no writes |
//! | hot location **written but never read** (blind write pile-up) | Block-STM | blind writers validate against reads only → one wave; WAW edges serialize the graph and cost LTPG conflict-loser aborts |
//! | hot location read *and* written, write-heavy batch | address graph | every scheme degenerates here; the graph's layered serial execution commits everything once, beating LTPG's abort-requeue storm and Block-STM's re-execution waves (measured 3x on YCSB-A alpha 2.5) |
//! | everything else (moderate contention, or hot reads with few writers) | LTPG | the conflict log absorbs moderate conflict at flat cost; per-layer launch overhead makes the graph lose even at low skew once writes chain |
//! | undeclarable access sets | LTPG | native speculative path; rivals degrade to serial barriers or unknown-deferral waves |
//!
//! The policy in [`AdaptivePolicy`] encodes exactly that table. It is
//! deterministic by construction: its only inputs are the batch profile
//! (a pure function of the batch) and the previous batch's scheduler
//! feedback (a pure function of the deterministic execution), so the same
//! seed and workload always produce the same choice trace —
//! [`AdaptiveEngine::choices`] exposes the trace for the determinism test.
//!
//! Signals consumed per batch:
//! - **abort taxonomy** of the LTPG core (`ltpg.aborts.*` counter deltas on
//!   the engine's registry) → LTPG distress,
//! - **wave/deferral stats** of Block-STM (`blockstm.waves`,
//!   `blockstm.deferrals`) → optimism distress,
//! - **graph depth** of the address scheduler (`addrgraph.layers`) →
//!   layering distress,
//! - the **batch profile**: write fraction, single-hottest-location
//!   concentration, blind-write fraction, undeclarable fraction.

use ltpg_baselines::{AddrGraphCore, BlockStmCore};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{declared_accesses, Batch, BatchEngine, BatchReport, IrOp};
use std::collections::HashMap;
use std::sync::Arc;

use crate::config::LtpgConfig;
use crate::engine::LtpgEngine;

/// Which scheduler the adaptive policy ran a batch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// The LTPG deterministic engine (robust default).
    Ltpg,
    /// The Block-STM optimistic scheduler.
    BlockStm,
    /// The address-based conflict-graph scheduler.
    AddrGraph,
}

impl EngineChoice {
    /// Display / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Ltpg => "LTPG",
            EngineChoice::BlockStm => "BlockSTM",
            EngineChoice::AddrGraph => "AddrGraph",
        }
    }

    /// The telemetry counter bumped when this choice runs a batch.
    pub fn counter(self) -> &'static str {
        match self {
            EngineChoice::Ltpg => names::ADAPTIVE_CHOICE_LTPG,
            EngineChoice::BlockStm => names::ADAPTIVE_CHOICE_BLOCKSTM,
            EngineChoice::AddrGraph => names::ADAPTIVE_CHOICE_ADDRGRAPH,
        }
    }
}

/// Policy thresholds, all in one place so the sweep in
/// `bench/src/bin/adaptive_bench.rs` can be read against them. Values were
/// tuned on the YCSB contention grid (alpha × write ratio) that the sweep
/// reproduces.
pub mod thresholds {
    /// Above this fraction of undeclarable transactions, only LTPG's
    /// native speculative path avoids serial barriers.
    pub const UNDECLARED_MAX: f64 = 0.02;
    /// Below this fraction of write ops the batch is effectively
    /// read-only: every scheduler is one layer deep, pick the cheapest.
    pub const WRITE_FRAC_READONLY: f64 = 0.01;
    /// Within a read-only batch, the skew split: with a location this hot
    /// the address graph's sort dedups to a tiny rank map and wins;
    /// spread-out reads make the rank build pay random-access cost per
    /// distinct key, and Block-STM's validation-free single wave wins.
    pub const HOT_READ_MIN: f64 = 0.15;
    /// Read-write interference: some single location carries at least
    /// this fraction of all declared accesses *and* is both read and
    /// written.
    pub const HOT_RW_MIN: f64 = 0.15;
    /// With hot read-write interference AND at least this write fraction,
    /// the batch is degenerate for every scheme; the address graph's
    /// layered serialization is the least-bad executor. Below it, the few
    /// writers leave LTPG's conflict log flat.
    pub const WRITE_HEAVY_MIN: f64 = 0.25;
    /// Blind pile-up: some single location carries at least this fraction
    /// of all declared accesses as writes *with no reader*. Blind writers
    /// validate against reads only, so Block-STM finishes in one wave
    /// while WAW edges serialize the graph and LTPG pays conflict-loser
    /// aborts.
    pub const HOT_WO_MIN: f64 = 0.20;
    /// Block-STM distress: deferral events per transaction in the
    /// previous batch. Above this, optimism is re-executing too much.
    pub const BLOCKSTM_DEFERRAL_MAX: f64 = 0.10;
    /// Address-graph distress: (layers − 1) / batch_len in the previous
    /// batch. Above this, the graph is degenerating toward a chain.
    pub const ADDRGRAPH_DEPTH_MAX: f64 = 0.15;
}

/// Deterministic per-batch profile — a pure function of the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchProfile {
    /// Write ops (update/add/insert/delete) over all data ops.
    pub write_frac: f64,
    /// Accesses landing on the single hottest declared row, over all
    /// declared accesses.
    pub hot_frac: f64,
    /// Concentration of the hottest location that is **both read and
    /// written** (read-write interference), over all declared accesses.
    pub hot_rw_frac: f64,
    /// Concentration of the hottest location that is **written but never
    /// read** (blind pile-up), over all declared accesses.
    pub hot_wo_frac: f64,
    /// Transactions whose access sets cannot be declared.
    pub undeclared_frac: f64,
}

impl BatchProfile {
    /// Scan `batch` (O(total ops), host-side, deterministic).
    pub fn scan(batch: &Batch) -> Self {
        let mut data_ops = 0usize;
        let mut write_ops = 0usize;
        let mut undeclared = 0usize;
        let mut total_accesses = 0usize;
        // Per location: (reads, writes).
        let mut loc_counts: HashMap<(u16, i64), (u32, u32)> = HashMap::new();
        for txn in &batch.txns {
            match declared_accesses(txn) {
                Some(d) => {
                    for (t, k) in d.reads.iter() {
                        loc_counts.entry((t.0, *k)).or_insert((0, 0)).0 += 1;
                        total_accesses += 1;
                    }
                    for (t, k) in d.all_writes() {
                        loc_counts.entry((t.0, k)).or_insert((0, 0)).1 += 1;
                        total_accesses += 1;
                    }
                }
                None => undeclared += 1,
            }
            for op in &txn.ops {
                match op {
                    IrOp::Compute { .. } => continue,
                    IrOp::Update { .. }
                    | IrOp::Add { .. }
                    | IrOp::Insert { .. }
                    | IrOp::Delete { .. } => write_ops += 1,
                    IrOp::Read { .. }
                    | IrOp::ScanSum { .. }
                    | IrOp::RangeSum { .. }
                    | IrOp::RangeMinKey { .. }
                    | IrOp::RangeCountBelow { .. } => {}
                }
                data_ops += 1;
            }
        }
        let mut hottest = 0u32;
        let mut hottest_rw = 0u32;
        let mut hottest_wo = 0u32;
        for &(r, w) in loc_counts.values() {
            hottest = hottest.max(r + w);
            if r > 0 && w > 0 {
                hottest_rw = hottest_rw.max(r + w);
            }
            if r == 0 && w > 0 {
                hottest_wo = hottest_wo.max(w);
            }
        }
        let frac = |c: u32| if total_accesses == 0 { 0.0 } else { c as f64 / total_accesses as f64 };
        BatchProfile {
            write_frac: if data_ops == 0 { 0.0 } else { write_ops as f64 / data_ops as f64 },
            hot_frac: frac(hottest),
            hot_rw_frac: frac(hottest_rw),
            hot_wo_frac: frac(hottest_wo),
            undeclared_frac: if batch.is_empty() {
                0.0
            } else {
                undeclared as f64 / batch.len() as f64
            },
        }
    }
}

/// Previous-batch scheduler feedback, fed into the next decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Which scheduler produced this feedback.
    pub choice: EngineChoice,
    /// Block-STM deferrals per transaction (0 unless Block-STM ran).
    pub deferral_frac: f64,
    /// Address-graph normalized depth (0 unless the graph ran).
    pub depth_frac: f64,
    /// LTPG non-user aborts per transaction (0 unless LTPG ran).
    pub conflict_abort_frac: f64,
}

/// The deterministic per-batch policy (see the module docs for the
/// regime table it encodes).
///
/// Decision procedure for each batch:
/// 1. compute the **static choice** from the batch profile alone;
/// 2. if the previous batch ran that same choice and reported distress
///    (deferral/depth above threshold), **veto** it and fall back to LTPG;
/// 3. the veto sticks while the static choice stays the same, so the
///    policy cannot oscillate between a distressed scheduler and the
///    fallback; any regime change (different static choice) clears it.
#[derive(Debug, Default)]
pub struct AdaptivePolicy {
    vetoed: Option<EngineChoice>,
}

/// Which policy-table row produced a static choice (decides veto
/// eligibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// Too many undeclarable access sets.
    Undeclared,
    /// Effectively read-only.
    ReadOnly,
    /// Hot write-only location.
    BlindPile,
    /// Hot read-write interference in a write-heavy batch.
    Degenerate,
    /// No dominant pattern.
    Moderate,
}

impl AdaptivePolicy {
    /// Classify the profile into a policy-table row.
    fn classify(profile: &BatchProfile) -> (EngineChoice, Branch) {
        use thresholds::*;
        if profile.undeclared_frac > UNDECLARED_MAX {
            (EngineChoice::Ltpg, Branch::Undeclared)
        } else if profile.write_frac < WRITE_FRAC_READONLY {
            if profile.hot_frac >= HOT_READ_MIN {
                (EngineChoice::AddrGraph, Branch::ReadOnly)
            } else {
                (EngineChoice::BlockStm, Branch::ReadOnly)
            }
        } else if profile.hot_wo_frac >= HOT_WO_MIN {
            (EngineChoice::BlockStm, Branch::BlindPile)
        } else if profile.hot_rw_frac >= HOT_RW_MIN && profile.write_frac >= WRITE_HEAVY_MIN {
            (EngineChoice::AddrGraph, Branch::Degenerate)
        } else {
            (EngineChoice::Ltpg, Branch::Moderate)
        }
    }

    /// The profile-only choice, before distress feedback.
    pub fn static_choice(profile: &BatchProfile) -> EngineChoice {
        Self::classify(profile).0
    }

    /// Decide the scheduler for the batch described by `profile`, given
    /// the previous batch's `feedback` (None for the first batch).
    ///
    /// The distress veto applies only to branches whose choice *expects* a
    /// flat schedule (blind pile → one wave, read-only → one layer): there,
    /// distress means the profile misjudged the batch and LTPG is the safe
    /// fallback. The degenerate branch picks the graph *knowing* it will be
    /// deep, so depth there is not distress.
    pub fn decide(&mut self, profile: &BatchProfile, feedback: Option<&Feedback>) -> EngineChoice {
        use thresholds::*;
        let (stat, branch) = Self::classify(profile);
        let veto_eligible = matches!(branch, Branch::BlindPile | Branch::ReadOnly);
        if let Some(fb) = feedback {
            if fb.choice == stat && veto_eligible {
                let distress = match stat {
                    EngineChoice::BlockStm => fb.deferral_frac > BLOCKSTM_DEFERRAL_MAX,
                    EngineChoice::AddrGraph => fb.depth_frac > ADDRGRAPH_DEPTH_MAX,
                    EngineChoice::Ltpg => false,
                };
                if distress {
                    self.vetoed = Some(stat);
                }
            }
        }
        if veto_eligible && self.vetoed == Some(stat) {
            EngineChoice::Ltpg
        } else {
            self.vetoed = None;
            stat
        }
    }
}

/// Adaptive batch engine: owns one LTPG engine (and therefore the
/// database) plus the Block-STM and address-graph **cores**, which execute
/// against the same database through the tables' interior mutability. Every
/// batch runs on exactly one scheduler, chosen by [`AdaptivePolicy`].
pub struct AdaptiveEngine {
    ltpg: LtpgEngine,
    blockstm: BlockStmCore,
    addrgraph: AddrGraphCore,
    policy: AdaptivePolicy,
    feedback: Option<Feedback>,
    trace: Vec<EngineChoice>,
    switched_last: bool,
}

impl AdaptiveEngine {
    /// Build over `db` with the given LTPG configuration. The embedded
    /// LTPG core publishes to a private registry so the adaptive loop can
    /// read clean per-batch abort deltas.
    pub fn new(db: Database, cfg: LtpgConfig) -> Self {
        Self::from_engine(LtpgEngine::with_telemetry(db, cfg, Arc::new(Registry::new())))
    }

    /// Build around an existing LTPG engine (keeps its registry, device
    /// and conflict log).
    pub fn from_engine(ltpg: LtpgEngine) -> Self {
        AdaptiveEngine {
            ltpg,
            blockstm: BlockStmCore::new(),
            addrgraph: AddrGraphCore::new(),
            policy: AdaptivePolicy::default(),
            feedback: None,
            trace: Vec::new(),
            switched_last: false,
        }
    }

    /// The per-batch choice trace, in batch order.
    pub fn choices(&self) -> &[EngineChoice] {
        &self.trace
    }

    /// The embedded LTPG engine.
    pub fn ltpg(&self) -> &LtpgEngine {
        &self.ltpg
    }

    /// Consume the engine, returning the database.
    pub fn into_database(self) -> Database {
        self.ltpg.into_database()
    }

    fn ltpg_conflict_aborts(&self) -> u64 {
        let reg = self.ltpg.telemetry();
        reg.counter_value(names::ABORT_CONFLICT_LOSER)
            + reg.counter_value(names::ABORT_LOG_EXHAUSTED)
            + reg.counter_value(names::ABORT_DELAYED_READ)
            + reg.counter_value(names::ABORT_REORDER_REJECTED)
    }
}

impl BatchEngine for AdaptiveEngine {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn database(&self) -> &Database {
        self.ltpg.database()
    }

    fn execute_batch(&mut self, batch: &Batch) -> BatchReport {
        let profile = BatchProfile::scan(batch);
        let choice = self.policy.decide(&profile, self.feedback.as_ref());
        self.switched_last = self.trace.last().is_some_and(|&prev| prev != choice);
        self.trace.push(choice);

        let mut fb = Feedback {
            choice,
            deferral_frac: 0.0,
            depth_frac: 0.0,
            conflict_abort_frac: 0.0,
        };
        let report = match choice {
            EngineChoice::Ltpg => {
                let before = self.ltpg_conflict_aborts();
                let report = self.ltpg.execute_batch(batch);
                let delta = self.ltpg_conflict_aborts() - before;
                if !batch.is_empty() {
                    fb.conflict_abort_frac = delta as f64 / batch.len() as f64;
                }
                report
            }
            EngineChoice::BlockStm => {
                let report = self.blockstm.execute(self.ltpg.database_mut(), batch);
                fb.deferral_frac = self.blockstm.last_stats().deferral_frac();
                report
            }
            EngineChoice::AddrGraph => {
                let report = self.addrgraph.execute(self.ltpg.database_mut(), batch);
                fb.depth_frac = self.addrgraph.last_stats().depth_frac();
                report
            }
        };
        self.feedback = Some(fb);
        report
    }

    fn record_extra_telemetry(&self, registry: &Registry) {
        if let Some(&choice) = self.trace.last() {
            registry.counter(choice.counter()).inc();
            match choice {
                EngineChoice::BlockStm => self.blockstm.publish_stats(registry),
                EngineChoice::AddrGraph => self.addrgraph.publish_stats(registry),
                EngineChoice::Ltpg => {}
            }
        }
        if self.switched_last {
            registry.counter(names::ADAPTIVE_SWITCHES).inc();
        }
    }
}

impl std::fmt::Debug for AdaptiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveEngine").field("batches", &self.trace.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::{ComputeFn, ProcId, Src, TidGen, Txn};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(4096).build());
        for k in 0..1024 {
            db.table_mut(t).insert(k, &[0, 0]).unwrap();
        }
        (db, t)
    }

    fn blind(t: TableId, k: i64, v: i64) -> Txn {
        Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update { table: t, key: Src::Const(k), col: ColId(0), val: Src::Const(v) }],
        )
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

    fn reader(t: TableId, k: i64) -> Txn {
        Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Read { table: t, key: Src::Const(k), col: ColId(0), out: 0 }],
        )
    }

    fn batch_of(txns: Vec<Txn>) -> Batch {
        let mut gen = TidGen::new();
        Batch::assemble(vec![], txns, &mut gen)
    }

    #[test]
    fn static_choice_matches_policy_table() {
        // Hot blind writers → Block-STM.
        let (_, t) = db();
        let hot_blind = batch_of((0..64).map(|i| blind(t, 3, i)).collect());
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&hot_blind)),
            EngineChoice::BlockStm
        );
        // Hot RMW, write-heavy → degenerate: layered serialization.
        let hot_rmw = batch_of((0..64).map(|_| rmw(t, 3)).collect());
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&hot_rmw)),
            EngineChoice::AddrGraph
        );
        // Hot key read by many but written by few (YCSB-B shape): the
        // conflict log absorbs the few writers → LTPG.
        let read_mostly_hot = batch_of(
            (0..64).map(|i| if i % 16 == 0 { rmw(t, 3) } else { reader(t, 3) }).collect(),
        );
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&read_mostly_hot)),
            EngineChoice::Ltpg
        );
        // Uniform writes, no dominant pattern → LTPG.
        let uniform = batch_of((0..64).map(|i| blind(t, i * 7, i)).collect());
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&uniform)),
            EngineChoice::Ltpg
        );
        // Read-only on a hot key → address graph (sort dedups the key).
        let hot_reads = batch_of((0..64).map(|_| reader(t, 3)).collect());
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&hot_reads)),
            EngineChoice::AddrGraph
        );
        // Read-only spread over the key space → Block-STM (no rank build).
        let uniform_reads = batch_of((0..64).map(|i| reader(t, i)).collect());
        assert_eq!(
            AdaptivePolicy::static_choice(&BatchProfile::scan(&uniform_reads)),
            EngineChoice::BlockStm
        );
        // Hot key read by some txns and blindly written by others in a
        // write-heavy batch (YCSB-A shape): degenerate regime.
        let mixed_hot = batch_of(
            (0..64).map(|i| if i % 2 == 0 { reader(t, 3) } else { blind(t, 3, i) }).collect(),
        );
        let p = BatchProfile::scan(&mixed_hot);
        assert!(p.hot_rw_frac >= thresholds::HOT_RW_MIN, "hot_rw_frac={}", p.hot_rw_frac);
        assert_eq!(AdaptivePolicy::static_choice(&p), EngineChoice::AddrGraph);
    }

    #[test]
    fn distress_veto_falls_back_and_does_not_oscillate() {
        let mut policy = AdaptivePolicy::default();
        // A blind-pile profile → Block-STM, expecting one wave.
        let pile = BatchProfile {
            write_frac: 0.9,
            hot_frac: 0.6,
            hot_rw_frac: 0.0,
            hot_wo_frac: 0.6,
            undeclared_frac: 0.0,
        };
        assert_eq!(policy.decide(&pile, None), EngineChoice::BlockStm);
        // Optimism reports heavy deferral (the profile misjudged the
        // batch) → veto, fall back to LTPG.
        let bad = Feedback {
            choice: EngineChoice::BlockStm,
            deferral_frac: 0.9,
            depth_frac: 0.0,
            conflict_abort_frac: 0.0,
        };
        assert_eq!(policy.decide(&pile, Some(&bad)), EngineChoice::Ltpg);
        // Veto sticks while the regime is unchanged, whatever LTPG reports.
        let ltpg_fb = Feedback {
            choice: EngineChoice::Ltpg,
            deferral_frac: 0.0,
            depth_frac: 0.0,
            conflict_abort_frac: 0.0,
        };
        assert_eq!(policy.decide(&pile, Some(&ltpg_fb)), EngineChoice::Ltpg);
        // A regime change (different static choice) clears it.
        let readonly = BatchProfile {
            write_frac: 0.0,
            hot_frac: 0.5,
            hot_rw_frac: 0.0,
            hot_wo_frac: 0.0,
            undeclared_frac: 0.0,
        };
        assert_eq!(policy.decide(&readonly, Some(&ltpg_fb)), EngineChoice::AddrGraph);
        // ... and the original regime gets a fresh chance afterwards.
        assert_eq!(policy.decide(&pile, None), EngineChoice::BlockStm);
        // The degenerate branch is never vetoed: depth there is the plan,
        // not distress.
        let degenerate = BatchProfile {
            write_frac: 0.5,
            hot_frac: 0.7,
            hot_rw_frac: 0.7,
            hot_wo_frac: 0.0,
            undeclared_frac: 0.0,
        };
        let deep = Feedback {
            choice: EngineChoice::AddrGraph,
            deferral_frac: 0.0,
            depth_frac: 1.0,
            conflict_abort_frac: 0.0,
        };
        assert_eq!(policy.decide(&degenerate, Some(&deep)), EngineChoice::AddrGraph);
        assert_eq!(policy.decide(&degenerate, Some(&deep)), EngineChoice::AddrGraph);
    }

    #[test]
    fn runs_batches_on_different_schedulers_and_stays_correct() {
        let (d, t) = db();
        let mut engine = AdaptiveEngine::new(d, LtpgConfig::default());
        // Batch 1: uniform blind writes → LTPG (no dominant pattern).
        let b1 = batch_of((0..64).map(|i| blind(t, i, i + 1)).collect());
        let r1 = engine.execute_batch(&b1);
        assert_eq!(r1.committed.len(), 64);
        // Batch 2: hot blind writes → Block-STM.
        let b2 = batch_of((0..64).map(|i| blind(t, 9, 100 + i)).collect());
        let r2 = engine.execute_batch(&b2);
        assert_eq!(r2.committed.len(), 64);
        // Batch 3: hot read-only → address graph.
        let b3 = batch_of((0..64).map(|_| reader(t, 9)).collect());
        let r3 = engine.execute_batch(&b3);
        assert_eq!(r3.committed.len(), 64);
        assert_eq!(
            engine.choices(),
            &[EngineChoice::Ltpg, EngineChoice::BlockStm, EngineChoice::AddrGraph],
            "choice trace must follow the policy table"
        );
        // Last blind writer in TID order wins the hot key.
        let rid = engine.database().table(t).lookup(9).unwrap();
        assert_eq!(engine.database().table(t).get(rid, ColId(0)), 163);
    }

    #[test]
    fn choice_trace_is_deterministic() {
        let mk = || {
            let (d, t) = db();
            let mut engine = AdaptiveEngine::new(d, LtpgConfig::default());
            for round in 0..6 {
                let txns: Vec<Txn> = (0..32)
                    .map(|i| match round % 3 {
                        0 => blind(t, i * 11 % 1024, i),
                        1 => blind(t, 5, i),
                        _ => rmw(t, 5),
                    })
                    .collect();
                engine.execute_batch(&batch_of(txns));
            }
            engine.choices().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn telemetry_counts_choices_and_switches() {
        let (d, t) = db();
        let mut engine = AdaptiveEngine::new(d, LtpgConfig::default());
        let reg = Registry::new();
        let b1 = batch_of((0..32).map(|i| blind(t, i, i)).collect());
        let r1 = engine.execute_batch(&b1);
        engine.record_telemetry(&reg, &r1);
        let b2 = batch_of((0..32).map(|i| blind(t, 7, i)).collect());
        let r2 = engine.execute_batch(&b2);
        engine.record_telemetry(&reg, &r2);
        assert_eq!(reg.counter_value(names::ADAPTIVE_CHOICE_LTPG), 1);
        assert_eq!(reg.counter_value(names::ADAPTIVE_CHOICE_BLOCKSTM), 1);
        assert_eq!(reg.counter_value(names::ADAPTIVE_SWITCHES), 1);
        assert_eq!(reg.counter_value("engine.Adaptive.batches"), 2);
    }
}
