//! The differential runner: one [`QaCase`](crate::QaCase), byte-level
//! agreement between every execution path or a typed [`Divergence`].
//!
//! Three passes per case:
//!
//! 1. **Engine pass** — the batches run through [`LtpgEngine`] and the
//!    unscoped [`CpuTwin`] in parallel (no re-execution): commit
//!    sets must match batch-for-batch, the serializability oracle must
//!    accept every committed set against the pre-batch snapshot, and the
//!    final state digests must be bit-identical. On more than one host
//!    thread, an engine on one runs beside it and every batch's simulated
//!    time must match to the bit.
//! 2. **Stack pass** — the system under test is built from the case's
//!    layers: ingress (direct, or the lossless front-end) into a
//!    [`ShardedServer`] of 1/2/4 shards, with standby rows, a rebalance
//!    plan cutting over at batch 1, a device loss before tick t, and the
//!    engines on one or two host threads. It ticks in lockstep with one
//!    directly fed [`LtpgServer`]: per-tick commit/abort TID sequences
//!    must agree, and every shard's final slice must equal the reference's
//!    database restricted to that shard under the live partitioner. Ticks
//!    are capped, not drained: schedules that re-queue a doomed
//!    transaction forever (duplicate-key inserts) still compare exactly
//!    over the executed prefix. The reference's WAL is then replayed from
//!    the last checkpoint and must digest-match its live database.
//! 3. **Scheduler pass** (cases with `via_schedulers`) — the Block-STM and
//!    address-graph schedulers against a serial TID-order replay and the
//!    ordered-serializability oracle.
//!
//! The whole case runs under `catch_unwind`: an engine panic on generated
//! input is itself a reportable (and shrinkable) divergence, not a harness
//! crash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ltpg::{CpuTwin, Executor, LtpgEngine, LtpgServer};
use ltpg_baselines::{AddrGraphEngine, BlockStmEngine};
use ltpg_front::{FrontConfig, FrontEnd, TickOutcome, TickSink};
use ltpg_shard::{RebalanceOp, RebalancePlan, ShardedServer, TableRule};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::oracle::{check_ordered_serializable, check_snapshot_serializable};
use ltpg_txn::{execute_serial, Batch, BatchEngine, Tid, TidGen, Txn};

use crate::{QaCase, ShardRule};

/// How two execution paths disagreed on a case.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Two paths committed different TID sets for the same batch.
    CommitSet {
        /// Which comparison failed (e.g. `engine-vs-cpu`).
        site: String,
        /// Batch index.
        step: usize,
        /// What the reference path decided.
        expected: Vec<u64>,
        /// What the path under comparison decided.
        got: Vec<u64>,
    },
    /// Final state digests differ.
    Digest {
        /// Which comparison failed.
        site: String,
        /// Reference digest.
        expected: u64,
        /// Diverging digest.
        got: u64,
    },
    /// The serializability oracle rejected a committed set.
    Oracle {
        /// Batch index within the engine pass.
        step: usize,
        /// The oracle's violation, rendered.
        violation: String,
    },
    /// The server under test and the reference fell out of lockstep.
    Lockstep {
        /// Tick index.
        step: usize,
        /// What differed.
        detail: String,
    },
    /// A shard's final slice does not equal the reference's restriction.
    ShardSlice {
        /// The diverging shard.
        shard: u32,
        /// Digest of the reference's slice.
        expected: u64,
        /// Digest of the shard's database.
        got: u64,
    },
    /// WAL replay reconstructed a different database than the live one.
    WalReplay {
        /// What went wrong (digest pair or recovery error).
        detail: String,
    },
    /// The engine under test charged a batch a different simulated time
    /// than the same engine on one host thread.
    SimClock {
        /// Batch index within the engine pass.
        step: usize,
        /// `sim_ns` on one host thread.
        expected: f64,
        /// `sim_ns` on the engine under test.
        got: f64,
    },
    /// An execution path panicked on the case.
    Panic {
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// The ingestion front-end misbehaved structurally on a lossless
    /// config (shed a transaction or broke the conservation invariant).
    FrontPipeline {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::CommitSet { site, step, expected, got } => write!(
                f,
                "commit-set divergence at {site} step {step}: expected {expected:?}, got {got:?}"
            ),
            Divergence::Digest { site, expected, got } => write!(
                f,
                "state-digest divergence at {site}: expected {expected:#018x}, got {got:#018x}"
            ),
            Divergence::Oracle { step, violation } => {
                write!(f, "oracle violation at batch {step}: {violation}")
            }
            Divergence::Lockstep { step, detail } => {
                write!(f, "lockstep divergence at tick {step}: {detail}")
            }
            Divergence::ShardSlice { shard, expected, got } => write!(
                f,
                "shard {shard} slice digest {got:#018x} != single-device slice {expected:#018x}"
            ),
            Divergence::WalReplay { detail } => write!(f, "WAL replay divergence: {detail}"),
            Divergence::SimClock { step, expected, got } => write!(
                f,
                "simulated-clock divergence at batch {step}: {got} ns under test, {expected} ns on one host thread"
            ),
            Divergence::Panic { detail } => write!(f, "execution path panicked: {detail}"),
            Divergence::FrontPipeline { detail } => {
                write!(f, "front-end pipeline divergence: {detail}")
            }
        }
    }
}

/// A cell of the layer cross-product, as it fired on a run rather than
/// as drawn: a loss drawn for a tick after the schedule drained fires none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// A rebalance plan cut over mid-stream.
    RebalanceApplied,
    /// A device loss promoted a standby row.
    Promotion,
    /// A device loss degraded a shard to its CPU twin.
    TwinDegradation,
    /// A device was failed right before the tick the cutover applied on.
    LossAtCutover,
    /// The front-end handed the server under test at least one batch.
    FrontIngress,
    /// A device loss fired while the front-end fed the server under test.
    LossUnderFront,
    /// A helper thread produced a lane of an engine under test: it ran the
    /// execute kernel's pre-pass ahead of the lanes.
    HostThreads2,
    /// A checkpoint was taken with a standby row attached.
    CheckpointWithStandbys,
}

impl Cell {
    /// Every cell, in declaration order (`cell as usize` indexes it).
    pub const ALL: [Cell; 8] = [
        Cell::RebalanceApplied,
        Cell::Promotion,
        Cell::TwinDegradation,
        Cell::LossAtCutover,
        Cell::FrontIngress,
        Cell::LossUnderFront,
        Cell::HostThreads2,
        Cell::CheckpointWithStandbys,
    ];
}

/// Summary of a case that ran clean.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Transactions the engine pass committed.
    pub engine_committed: usize,
    /// Transactions the stack pass committed (re-executions count once).
    pub server_committed: u64,
    /// Stack-pass ticks executed.
    pub ticks: usize,
    /// Whether both servers fully drained within the tick cap (schedules
    /// with permanently re-queued user aborts legitimately do not).
    pub drained: bool,
    /// Transactions the scheduler pass committed on each competing
    /// scheduler (0 unless the case sets `via_schedulers`).
    pub scheduler_committed: usize,
    /// Lanes a helper thread produced for the engines under test, in the
    /// engine pass and on the stack's final executors.
    pub helper_lanes: u64,
    /// The cells of the layer cross-product the stack pass exercised.
    pub cells: Vec<Cell>,
}

fn tids(v: &[Tid]) -> Vec<u64> {
    v.iter().map(|t| t.0).collect()
}

/// Run every execution path of `case`, returning the first divergence.
pub fn run_case(case: &QaCase) -> Result<CaseOutcome, Divergence> {
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(case))) {
        Ok(r) => r,
        Err(p) => {
            let detail = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Divergence::Panic { detail })
        }
    }
}

fn run_case_inner(case: &QaCase) -> Result<CaseOutcome, Divergence> {
    let mut outcome = CaseOutcome::default();
    engine_pass(case, &mut outcome)?;
    stack_pass(case, &mut outcome)?;
    if case.via_schedulers {
        scheduler_pass(case, &mut outcome)?;
    }
    Ok(outcome)
}

/// Pass 1: GPU engine vs CPU twin vs the oracle, batch by batch. The twin
/// shares the engine's staging and cell walk, so the pass keeps two checks
/// that do not: the serializability oracle on every committed set and the
/// final digest compare (the twin's write-back and exact min-TID maps are
/// its own).
fn engine_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let db = case.build_database();
    let mut gpu = LtpgEngine::new(db.deep_clone(), case.under_test_config());
    let mut one_thread =
        (case.host_threads > 1).then(|| LtpgEngine::new(db.deep_clone(), case.engine_config()));
    let mut cpu = CpuTwin::new(db, case.engine_config());
    let mut tidgen = TidGen::new();
    for (step, chunk) in case.batches().enumerate() {
        let pre = gpu.database().deep_clone();
        let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tidgen);
        let grep = gpu.execute_batch_report(&batch).report;
        if let Some(one) = &mut one_thread {
            let expected = one.execute_batch_report(&batch).report.sim_ns;
            if expected.to_bits() != grep.sim_ns.to_bits() {
                return Err(Divergence::SimClock { step, expected, got: grep.sim_ns });
            }
        }
        let crep = cpu.execute_batch(&batch);
        if grep.committed != crep.committed {
            return Err(Divergence::CommitSet {
                site: "engine-vs-cpu".into(),
                step,
                expected: tids(&grep.committed),
                got: tids(&crep.committed),
            });
        }
        let committed: Vec<&Txn> = grep
            .committed
            .iter()
            .map(|t| batch.by_tid(*t).expect("committed tid in batch"))
            .collect();
        outcome.engine_committed += committed.len();
        check_snapshot_serializable(&pre, &committed, gpu.database()).map_err(|v| {
            Divergence::Oracle { step, violation: format!("{v:?}") }
        })?;
    }
    outcome.helper_lanes += gpu.device().stats().helper_lanes;
    let (gd, cd) = (gpu.database().state_digest(), cpu.database().state_digest());
    if gd != cd {
        return Err(Divergence::Digest { site: "engine-vs-cpu".into(), expected: gd, got: cd });
    }
    Ok(())
}

/// Enough ticks to drain any schedule that *can* drain (re-entry delay ≤ 2
/// and min-TID winners guarantee progress), while bounding schedules that
/// re-queue a doomed transaction forever.
fn tick_cap(case: &QaCase) -> usize {
    (case.txns.len() / case.batch_size.max(1) + 2) * 12 + 16
}

/// The fault layer over the server under test: it fails shard `fail.0`'s
/// device before tick `fail.1`, counting the ticks it is asked for
/// itself, so the loss lands on the same tick whichever ingress drives it.
struct FaultLayer {
    server: ShardedServer,
    fail: Option<(u32, u32)>,
    ticks: u32,
    /// The tick the device was failed before, once it was.
    lost_at: Option<u32>,
    /// The tick the rebalance cutover applied on, once it has.
    cutover: Option<u32>,
    /// Batches the front-end handed over.
    fronted: u64,
}

/// Borrowed, so the front-end hands the server back when it is dropped;
/// the direct ingress ticks through it too. Everything but the tick
/// forwards to the server.
impl TickSink for &mut FaultLayer {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        self.fronted += 1;
        self.server.submit_all(txns);
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        if let Some((s, _)) = self.fail.filter(|&(s, t)| t == self.ticks && s < self.server.shard_count()) {
            self.server.force_shard_failure(s);
            self.lost_at = Some(self.ticks);
        }
        let pending = self.server.rebalance_pending();
        let out = self.server.tick_outcome();
        if pending && !self.server.rebalance_pending() {
            self.cutover = Some(self.ticks);
        }
        self.ticks += 1;
        out
    }

    fn queued(&self) -> usize {
        self.server.pending()
    }

    fn next_tid(&self) -> u64 {
        self.server.next_tid()
    }

    fn fault_delay_ns(&self) -> f64 {
        self.server.fault_delay_ns()
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.server.telemetry())
    }
}

/// Feed the schedule through the lossless front-end, every offer at time
/// 0 (so one tick per sealed batch, then the drain), and return the ticks
/// it drove. The pipeline may shed or lose nothing on this config.
fn front_fed(case: &QaCase, sut: &mut FaultLayer) -> Result<Vec<TickOutcome>, Divergence> {
    let mut front = FrontEnd::new(sut, FrontConfig::lossless(case.batch_size));
    for txn in &case.txns {
        front.offer(0, 0, txn.clone());
    }
    front.finish(tick_cap(case));
    if front.stats().shed() != 0 || !front.conserves() {
        let detail = format!("lossless config shed or lost transactions: {:?}", front.stats());
        return Err(Divergence::FrontPipeline { detail });
    }
    Ok(front.take_outcomes())
}

/// Pass 2: the stacked server under test in lockstep with a directly fed
/// single device, then slice digests and the reference's WAL replay.
fn stack_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let cfg = case.engine_config();
    let db = case.build_database();
    let mut single = LtpgServer::new(db.deep_clone(), cfg.clone(), case.server_config());
    let mut server =
        ShardedServer::new(db, case.partitioner(), case.under_test_config(), case.server_config());
    if case.standbys > 0 {
        let standbys = case.standbys as usize;
        server.attach_replicas(&ltpg_replica::ReplicaConfig { standbys, ..Default::default() });
    }
    if case.via_rebalance && case.shards > 1 {
        // Table 0 becomes replicated, or hashed if it was replicated.
        let rule = match case.tables[0].rule {
            ShardRule::Replicated => TableRule::Hash,
            _ => TableRule::Replicated,
        };
        let ops = vec![RebalanceOp::SetRule { table: ltpg_storage::TableId(0), rule }];
        server.schedule_rebalance(RebalancePlan { cutover: 1, ops }).expect("plan validates");
    }
    let mut sut = FaultLayer { server, fail: case.fail_shard, ticks: 0, lost_at: None, cutover: None, fronted: 0 };
    let mut front_ticks = if case.via_front {
        Some(front_fed(case, &mut sut)?.into_iter())
    } else {
        sut.server.submit_all(case.txns.iter().cloned());
        None
    };
    single.submit_all(case.txns.iter().cloned());
    // Both sides must commit and abort the same TIDs on every tick and go
    // idle on the same one (a tick is `None` only when nothing is queued
    // anywhere, so two `None`s mean both drained). The front-end ticks once
    // per sealed batch and then up to the cap, so its ticks may outnumber
    // the cap: the reference runs as many, or the final slices would
    // compare a longer history with a shorter one.
    let cap = tick_cap(case).max(front_ticks.as_ref().map_or(0, ExactSizeIterator::len));
    (outcome.ticks, outcome.drained) = (cap, false);
    for step in 0..cap {
        let under_test = match &mut front_ticks {
            Some(ticks) => ticks.next(),
            None => (&mut sut).tick_outcome(),
        };
        match (under_test, single.tick_outcome()) {
            (Some(a), Some(b)) if a.committed == b.committed && a.aborted == b.aborted => {}
            (None, None) => {
                (outcome.ticks, outcome.drained) = (step + 1, true);
                break;
            }
            (a, b) => {
                let show = |o: Option<TickOutcome>| match o {
                    Some(o) => format!("committed {:?} aborted {:?}", tids(&o.committed), tids(&o.aborted)),
                    None => "idle".into(),
                };
                let detail = format!("under test {}; reference {}", show(a), show(b));
                return Err(Divergence::Lockstep { step, detail });
            }
        }
    }
    outcome.server_committed = single.stats().committed;

    let part = sut.server.partitioner();
    for s in 0..sut.server.shard_count() {
        let expected = single.database().partition_clone(part.slice_pred(s)).state_digest();
        let got = sut.server.database(s).state_digest();
        if expected != got {
            return Err(Divergence::ShardSlice { shard: s, expected, got });
        }
    }
    let recovered = single.durability().recover(cfg).map_err(|e| Divergence::WalReplay {
        detail: format!("recovery failed: {e:?}"),
    })?.db;
    let (rec, live) = (recovered.state_digest(), single.database().state_digest());
    if rec != live {
        let detail = format!("recovered digest {rec:#018x} != live {live:#018x}");
        return Err(Divergence::WalReplay { detail });
    }

    let stats = sut.server.stats();
    let lost = stats.failovers > 0 || stats.faults.fallback_activations > 0;
    let checkpoints = sut.server.telemetry().counter_value(names::SERVER_CHECKPOINTS);
    let gpus = sut.server.shards().execs.iter().filter_map(Executor::gpu);
    outcome.helper_lanes += gpus.map(|e| e.device().stats().helper_lanes).sum::<u64>();
    let fired = [
        (Cell::RebalanceApplied, sut.cutover.is_some()),
        (Cell::Promotion, stats.failovers > 0),
        (Cell::TwinDegradation, stats.faults.fallback_activations > 0),
        (Cell::LossAtCutover, sut.lost_at.is_some() && sut.lost_at == sut.cutover),
        (Cell::FrontIngress, sut.fronted > 0),
        (Cell::LossUnderFront, lost && sut.fronted > 0),
        (Cell::HostThreads2, outcome.helper_lanes > 0),
        // A promotion takes its row out of the pool.
        (Cell::CheckpointWithStandbys, checkpoints > 0 && u64::from(case.standbys) > stats.failovers),
    ];
    outcome.cells = fired.into_iter().filter_map(|(c, f)| f.then_some(c)).collect();
    Ok(())
}

/// Pass 3 (cases with `via_schedulers`): the same batches run through the
/// Block-STM and address-graph schedulers, each over its own clone of the
/// initial database. Both promise exact equivalence to serial TID-order
/// execution — aborting precisely the user aborts — so a serial replay is
/// the reference: per-batch commit sets must match it, the committed
/// sequence must satisfy the ordered-serializability oracle, and the final
/// digests of all three paths must be bit-identical.
fn scheduler_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let serial = case.build_database();
    let mut bstm = BlockStmEngine::new(serial.deep_clone());
    let mut agraph = AddrGraphEngine::new(serial.deep_clone());
    let mut tidgen = TidGen::new();
    for (step, chunk) in case.batches().enumerate() {
        let pre = serial.deep_clone();
        let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tidgen);
        let mut serial_committed: Vec<Tid> = Vec::new();
        for txn in &batch.txns {
            if execute_serial(&serial, txn).is_ok() {
                serial_committed.push(txn.tid);
            }
        }
        let brep = bstm.execute_batch(&batch);
        if brep.committed != serial_committed {
            return Err(Divergence::CommitSet {
                site: "blockstm-vs-serial".into(),
                step,
                expected: tids(&serial_committed),
                got: tids(&brep.committed),
            });
        }
        let arep = agraph.execute_batch(&batch);
        if arep.committed != serial_committed {
            return Err(Divergence::CommitSet {
                site: "addrgraph-vs-serial".into(),
                step,
                expected: tids(&serial_committed),
                got: tids(&arep.committed),
            });
        }
        let ordered: Vec<&Txn> = serial_committed
            .iter()
            .map(|t| batch.by_tid(*t).expect("committed tid in batch"))
            .collect();
        check_ordered_serializable(&pre, &ordered, &serial)
            .map_err(|v| Divergence::Oracle { step, violation: format!("{v:?}") })?;
        outcome.scheduler_committed += serial_committed.len();
    }
    let expected = serial.state_digest();
    for (site, engine_db) in
        [("blockstm-vs-serial", bstm.database()), ("addrgraph-vs-serial", agraph.database())]
    {
        let got = engine_db.state_digest();
        if got != expected {
            return Err(Divergence::Digest { site: site.into(), expected, got });
        }
    }
    Ok(())
}
