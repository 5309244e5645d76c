//! The differential runner: one [`QaCase`](crate::QaCase), four execution
//! paths, byte-level agreement or a typed [`Divergence`].
//!
//! Three passes per case:
//!
//! 1. **Engine pass** — the batches run through [`LtpgEngine`] and the
//!    unscoped [`CpuTwin`] in parallel (no re-execution): commit
//!    sets must match batch-for-batch, the serializability oracle must
//!    accept every committed set against the pre-batch snapshot, and the
//!    final state digests must be bit-identical.
//! 2. **Server pass** — a single-device [`LtpgServer`] and a
//!    [`ShardedServer`] (with the case's partitioner and optional
//!    mid-run shard loss) tick in lockstep over the identical stream:
//!    per-tick commit/abort TID sequences must agree, and every shard's
//!    final slice must equal the single device's database restricted to
//!    that shard's ownership predicate. Ticks are capped, not drained:
//!    schedules that re-queue a doomed transaction forever (duplicate-key
//!    inserts) still compare exactly over the executed prefix.
//! 3. **Durability pass** — the single server's WAL is replayed from the
//!    last checkpoint; the recovered database must digest-match the live
//!    one.
//!
//! Cases with `via_front` add a fourth pass through the ingestion
//! front-end, and cases with `via_schedulers` a fifth: the Block-STM and
//! address-graph schedulers against a serial TID-order replay and the
//! ordered-serializability oracle. Cases with `via_rebalance` add a
//! sixth: the sharded pass replayed with one mid-stream rebalance plan,
//! whose batch-boundary cutover must be invisible to the commit history.
//!
//! The whole case runs under `catch_unwind`: an engine panic on generated
//! input is itself a reportable (and shrinkable) divergence, not a harness
//! crash.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ltpg::{CpuTwin, LtpgEngine, LtpgServer};
use ltpg_baselines::{AddrGraphEngine, BlockStmEngine};
use ltpg_front::{TickOutcome, TickSink};
use ltpg_shard::ShardedServer;
use ltpg_txn::oracle::{check_ordered_serializable, check_snapshot_serializable};
use ltpg_txn::{execute_serial, Batch, BatchEngine, Tid, TidGen, Txn};

use crate::QaCase;

/// How two execution paths disagreed on a case.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Two paths committed different TID sets for the same batch/tick.
    CommitSet {
        /// Which comparison failed (e.g. `engine-vs-cpu`, `sharded-vs-single`).
        site: String,
        /// Batch (engine pass) or tick (server pass) index.
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
    /// The sharded and single-device servers fell out of lockstep.
    Lockstep {
        /// Tick index.
        step: usize,
        /// What differed.
        detail: String,
    },
    /// A shard's final slice does not equal the single device's restriction.
    ShardSlice {
        /// The diverging shard.
        shard: u32,
        /// Digest of the single device's slice.
        expected: u64,
        /// Digest of the shard's database.
        got: u64,
    },
    /// WAL replay reconstructed a different database than the live one.
    WalReplay {
        /// What went wrong (digest pair or recovery error).
        detail: String,
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
            Divergence::Panic { detail } => write!(f, "execution path panicked: {detail}"),
            Divergence::FrontPipeline { detail } => {
                write!(f, "front-end pipeline divergence: {detail}")
            }
        }
    }
}

/// Summary of a case that ran clean.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Transactions the engine pass committed.
    pub engine_committed: usize,
    /// Transactions the server pass committed (re-executions count once).
    pub server_committed: u64,
    /// Server-pass ticks executed.
    pub ticks: usize,
    /// Whether both servers fully drained within the tick cap (schedules
    /// with permanently re-queued user aborts legitimately do not).
    pub drained: bool,
    /// Ticks the front-end pass drove (0 unless the case sets `via_front`).
    pub front_ticks: usize,
    /// Transactions the scheduler pass committed on each competing
    /// scheduler (0 unless the case sets `via_schedulers`).
    pub scheduler_committed: usize,
    /// Whether the rebalance pass reached its cutover and swapped the
    /// topology mid-stream (always false unless the case sets
    /// `via_rebalance`; short schedules may drain before the cutover).
    pub rebalance_applied: bool,
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
    server_pass(case, &mut outcome)?;
    if case.via_front {
        front_pass(case, &mut outcome)?;
    }
    if case.via_schedulers {
        scheduler_pass(case, &mut outcome)?;
    }
    if case.via_rebalance && case.shards > 1 {
        rebalance_pass(case, &mut outcome)?;
    }
    Ok(outcome)
}

/// Pass 1: GPU engine vs CPU twin vs the oracle, batch by batch. The twin
/// shares the engine's staging and cell walk, so the pass keeps two checks
/// that do not: the serializability oracle on every committed set and the
/// final digest compare (the twin's write-back and exact min-TID maps are
/// its own).
fn engine_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let cfg = case.engine_config();
    let db = case.build_database();
    let mut gpu = LtpgEngine::new(db.deep_clone(), cfg.clone());
    let mut cpu = CpuTwin::new(db, cfg);
    let mut tidgen = TidGen::new();
    for (step, chunk) in case.batches().enumerate() {
        let pre = gpu.database().deep_clone();
        let batch = Batch::assemble(Vec::new(), chunk.to_vec(), &mut tidgen);
        let grep = gpu.execute_batch_report(&batch).report;
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
    let (gd, cd) = (gpu.database().state_digest(), cpu.database().state_digest());
    if gd != cd {
        return Err(Divergence::Digest { site: "engine-vs-cpu".into(), expected: gd, got: cd });
    }
    Ok(())
}

/// Tick two servers over the same stream for at most `max_ticks`: they
/// must commit and abort the same TIDs on every tick and go idle on the
/// same one (a tick returns `None` only when nothing is queued anywhere,
/// so two `None`s mean both drained). Returns the ticks run and whether
/// they drained.
fn lockstep(
    pass: &str,
    max_ticks: usize,
    mut under_test: impl FnMut(usize) -> Option<TickOutcome>,
    mut reference: impl FnMut(usize) -> Option<TickOutcome>,
) -> Result<(usize, bool), Divergence> {
    for step in 0..max_ticks {
        match (under_test(step), reference(step)) {
            (Some(a), Some(b)) if a.committed == b.committed && a.aborted == b.aborted => {}
            (None, None) => return Ok((step + 1, true)),
            (a, b) => {
                let show = |o: Option<TickOutcome>| match o {
                    Some(o) => format!("committed {:?} aborted {:?}", tids(&o.committed), tids(&o.aborted)),
                    None => "idle".into(),
                };
                let detail = format!("{pass}: under test {}; reference {}", show(a), show(b));
                return Err(Divergence::Lockstep { step, detail });
            }
        }
    }
    Ok((max_ticks, false))
}

/// Enough ticks to drain any schedule that *can* drain (re-entry delay ≤ 2
/// and min-TID winners guarantee progress), while bounding schedules that
/// re-queue a doomed transaction forever.
fn tick_cap(case: &QaCase) -> usize {
    (case.txns.len() / case.batch_size.max(1) + 2) * 12 + 16
}

/// Every shard's slice must equal the single device's restriction to it.
fn check_slices(
    sharded: &ShardedServer,
    single: &LtpgServer,
    part: &ltpg_shard::Partitioner,
) -> Result<(), Divergence> {
    for s in 0..sharded.shard_count() {
        let expected = single.database().partition_clone(part.slice_pred(s)).state_digest();
        let got = sharded.database(s).state_digest();
        if expected != got {
            return Err(Divergence::ShardSlice { shard: s, expected, got });
        }
    }
    Ok(())
}

/// Pass 2 + 3: single vs sharded server lockstep, slice digests, WAL replay.
fn server_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let cfg = case.engine_config();
    let scfg = case.server_config();
    let db = case.build_database();
    let part = case.partitioner();
    let mut single = LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone());
    let mut sharded = ShardedServer::new(db, part.clone(), cfg.clone(), scfg);
    if case.standbys > 0 {
        // Replicated chaos schedule: a `fail_shard` loss now promotes a
        // warm standby row instead of degrading to the CPU twin. Every
        // assertion below is unchanged — failover must be invisible.
        sharded.attach_replicas(&ltpg_replica::ReplicaConfig {
            standbys: case.standbys as usize,
            ..ltpg_replica::ReplicaConfig::default()
        });
    }
    single.submit_all(case.txns.iter().cloned());
    sharded.submit_all(case.txns.iter().cloned());

    let (ticks, drained) = lockstep(
        "server pass, sharded vs single",
        tick_cap(case),
        |tick| {
            if let Some((s, after)) = case.fail_shard {
                if tick as u32 == after && s < sharded.shard_count() {
                    sharded.force_shard_failure(s);
                }
            }
            sharded.tick_outcome()
        },
        |_| single.tick_outcome(),
    )?;
    outcome.ticks = ticks;
    outcome.drained = drained;
    outcome.server_committed = single.stats().committed;

    check_slices(&sharded, &single, &part)?;

    // Pass 3: WAL-replay equivalence on the single device.
    match single.durability().recover(cfg) {
        Ok(recovered) => {
            let live = single.database().state_digest();
            let rec = recovered.state_digest();
            if live != rec {
                return Err(Divergence::WalReplay {
                    detail: format!("recovered digest {rec:#018x} != live {live:#018x}"),
                });
            }
        }
        Err(e) => {
            return Err(Divergence::WalReplay { detail: format!("recovery failed: {e:?}") })
        }
    }
    Ok(())
}

/// Pass 5 (cases with `via_schedulers`): the same batches run through the
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

/// Pass 6 (cases with `via_rebalance`): the sharded pass replayed with
/// one mid-stream topology change. A plan swapping table 0's rule
/// (replicated if it wasn't, hash if it was) is scheduled before the run
/// with cutover at batch 1, so the first batch routes under the old
/// rules and everything after the cutover under the new ones, with rows
/// migrated between slices at the barrier. The differential contract is
/// the point: against an untouched single-device reference, per-tick
/// commit/abort sequences must stay identical through the cutover, and
/// every final slice must equal the reference's restriction under
/// whichever partitioner is live at the end (the new one once the
/// cutover fired; the old one if the schedule drained first).
fn rebalance_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    use ltpg_shard::{RebalanceOp, RebalancePlan, TableRule};
    let cfg = case.engine_config();
    let scfg = case.server_config();
    let db = case.build_database();
    let part = case.partitioner();
    let mut single = LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone());
    let mut sharded = ShardedServer::new(db, part.clone(), cfg, scfg);
    let new_rule = match case.tables.first().map(|t| t.rule) {
        Some(crate::ShardRule::Replicated) => TableRule::Hash,
        _ => TableRule::Replicated,
    };
    let plan = RebalancePlan {
        cutover: 1,
        ops: vec![RebalanceOp::SetRule { table: ltpg_storage::TableId(0), rule: new_rule }],
    };
    let new_part = plan.apply_to(&part).expect("rule-swap plan validates");
    sharded.schedule_rebalance(plan).expect("plan scheduled before any batch logs");
    single.submit_all(case.txns.iter().cloned());
    sharded.submit_all(case.txns.iter().cloned());

    lockstep(
        "rebalance pass, sharded vs single",
        tick_cap(case),
        |_| sharded.tick_outcome(),
        |_| single.tick_outcome(),
    )?;
    outcome.rebalance_applied = !sharded.rebalance_pending();
    check_slices(&sharded, &single, if sharded.rebalance_pending() { &part } else { &new_part })
}

/// Pass 4 (cases with `via_front`): the identical schedule flows through
/// the `ltpg-front` ingestion pipeline on a lossless config (unbounded
/// queues, no rate limit, far deadline) into one server, while a second
/// server is fed the pre-formed stream directly. Both are compared
/// tick-for-tick — batch *formation* must never change commit decisions —
/// and the final state digests must be bit-identical. The front-end's
/// structural invariants (zero shed, end-to-end conservation) are also
/// divergences here: the whole point of the lossless config is that every
/// submission reaches the engine.
fn front_pass(case: &QaCase, outcome: &mut CaseOutcome) -> Result<(), Divergence> {
    let cfg = case.engine_config();
    let scfg = case.server_config();
    let db = case.build_database();
    let fcfg = ltpg_front::FrontConfig::lossless(case.batch_size);
    let mut front = ltpg_front::FrontEnd::new(
        LtpgServer::new(db.deep_clone(), cfg.clone(), scfg.clone()),
        fcfg,
    );
    for txn in &case.txns {
        front.offer(0, 0, txn.clone());
    }
    front.finish(tick_cap(case));
    if front.stats().shed() != 0 {
        return Err(Divergence::FrontPipeline {
            detail: format!("lossless config shed {} transactions", front.stats().shed()),
        });
    }
    if !front.conserves() {
        return Err(Divergence::FrontPipeline {
            detail: format!("conservation violated: {:?}", front.stats()),
        });
    }
    let mut front_outcomes = front.take_outcomes().into_iter();
    outcome.front_ticks = front_outcomes.len();

    let mut direct = LtpgServer::new(db, cfg, scfg);
    direct.submit_all(case.txns.iter().cloned());
    lockstep(
        "front pass, front-fed vs direct",
        outcome.front_ticks,
        |_| front_outcomes.next(),
        |_| direct.tick_outcome(),
    )?;
    let expected = direct.database().state_digest();
    let got = front.sink().database().state_digest();
    if expected != got {
        return Err(Divergence::Digest { site: "front-vs-direct".into(), expected, got });
    }
    Ok(())
}
