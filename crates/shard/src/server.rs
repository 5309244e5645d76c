//! The multi-device server: N engines, one deterministic history.
//!
//! [`ShardedServer`] is `ltpg::Server` — the one submit/tick/drain
//! lifecycle, WAL, checkpoints, standby rows and device-loss protocol —
//! over the [`Sharding`] topology: each global batch is
//! [routed](crate::Router) to its participant shards and runs as one
//! **deterministic cross-shard round** (`lockstep.rs`):
//!
//! 1. every participant logs its sub-batch (empty sub-batches included, so
//!    batch ids stay aligned across shards — the per-shard WALs always cut
//!    at the same global batch boundary);
//! 2. every participant runs the split *prepare* phase (execute, register,
//!    detect) over its slice, resolving remote reads through a
//!    [`RemoteView`](crate::RemoteView) of the other shards' snapshots;
//! 3. the per-shard conflict-flag words of each transaction are OR-merged
//!    — ownership partitions the cell space, so the merged word equals the
//!    word a single device over the whole database would derive — and
//!    handed back;
//! 4. every participant finishes (write-back of owned mutations) and the
//!    shared `commit_decision` over the merged word yields the same verdict
//!    on every shard. **No second round trip, no 2PC**: the fixed TID order
//!    is the tie-break, as in Calvin-style deterministic databases — but
//!    without pre-declared read/write sets.
//!
//! Device loss on any shard degrades *only that shard* to the CPU
//! fallback, or promotes a whole standby row when a pool is attached: the
//! shell's row protocol. The fallback is the same engine on a replacement
//! device, so it votes bit-identical flag words and the merged history
//! never changes — only that shard's simulated latency.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use ltpg::{
    Executor, LtpgConfig, Replayer, Round, Server, ServerConfig, ServerError,
    ServerStats, Shards, Topology,
};
use ltpg_gpu_sim::DeviceFaultPlan;
use ltpg_replica::ReplicaConfig;
use ltpg_storage::{Database, TableId};
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, Txn};

use crate::lockstep::lockstep_round;
use crate::partition::Partitioner;
use crate::rebalance::{plan_split, PlannerConfig, RebalanceError, RebalancePlan, RebalancePlanner};
use crate::router::{Route, Router};

/// Outcome of one [`ShardedServer::tick`](Server::tick).
pub type ShardedBatchSummary = ltpg::BatchSummary;

/// Cumulative sharded-server statistics: the shell's plus [`RouteStats`].
pub type ShardedStats = ServerStats<RouteStats>;

/// What routing and rebalancing count on top of the shell's statistics.
#[derive(Debug, Clone, Default)]
pub struct RouteStats {
    /// Transactions routed to exactly one shard.
    pub single_shard_txns: u64,
    /// Transactions routed to more than one (but not all) shards.
    pub cross_shard_txns: u64,
    /// Transactions broadcast to every shard.
    pub broadcast_txns: u64,
    /// Total merge-barrier stall, ns: per tick, each participant's
    /// `max(prepare) - own prepare` (waiting for the slowest shard).
    pub merge_stall_ns: f64,
    /// Rebalance plans applied at cutover boundaries.
    pub rebalances: u64,
    /// Rows copied between shard slices by rebalance cutovers.
    pub rows_migrated: u64,
}

impl RouteStats {
    /// Fraction of routed transactions that needed more than one shard.
    pub fn cross_shard_fraction(&self) -> f64 {
        let total = self.single_shard_txns + self.cross_shard_txns + self.broadcast_txns;
        if total == 0 {
            return 0.0;
        }
        (self.cross_shard_txns + self.broadcast_txns) as f64 / total as f64
    }
}

/// The N-device topology: routing, the lockstep round, rebalance.
pub struct Sharding {
    router: Router,
    /// The server-level registry (`shard.*`, `rebalance.*`).
    telemetry: Arc<Registry>,
    /// A validated plan waiting for its cutover batch id, with the
    /// pre-built post-cutover partitioner.
    pending_rebalance: Option<(RebalancePlan, Partitioner)>,
    /// The load-driven planner, once `set_auto_rebalance` enabled it.
    planner: Option<RebalancePlanner>,
}

impl Sharding {
    fn publish_degraded(&self, shards: &Shards) {
        self.telemetry.gauge(names::SHARD_DEGRADED).set(shards.degraded() as i64);
    }

    /// Validate `plan` against the live partitioner *now* (a malformed
    /// plan never waits at the barrier) and park it for its cutover.
    fn schedule(&mut self, plan: RebalancePlan, next: u64) -> Result<(), RebalanceError> {
        if self.pending_rebalance.is_some() {
            return Err(RebalanceError::AlreadyScheduled);
        }
        if plan.cutover < next {
            return Err(RebalanceError::CutoverInPast { cutover: plan.cutover, next });
        }
        let new_part = plan.apply_to(self.router.partitioner())?;
        self.telemetry.gauge(names::REBALANCE_PENDING).set(1);
        self.pending_rebalance = Some((plan, new_part));
        Ok(())
    }

    /// Feed the planner one observation and schedule the split it asks
    /// for. Skipped while a plan is pending or the topology is degraded
    /// (migration wants every slice healthy).
    fn maybe_plan_rebalance(&mut self, shards: &Shards) {
        let Some(planner) = &mut self.planner else { return };
        if self.pending_rebalance.is_some() || shards.degraded() > 0 {
            return;
        }
        let loads: Vec<f64> = (shards.registries.iter())
            .map(|reg| reg.histogram(names::LTPG_BATCH_TOTAL_NS).snapshot().sum as f64)
            .collect();
        let Some(imb) = planner.observe(&loads) else { return };
        let next = shards.logged_batches();
        let db = shards.execs[imb.hot as usize].database();
        let plan = plan_split(self.router.partitioner(), db, imb.hot, imb.cold, next + 1);
        if plan.is_some_and(|plan| self.schedule(plan, next).is_ok()) {
            self.telemetry.counter(names::REBALANCE_PLANNER_EMITTED).inc();
        }
    }

    /// Apply the pending plan once the next batch id reaches its cutover:
    /// re-slice every shard's live database under the new rules (keeping
    /// surviving rows, absorbing the rows migrating in), install fresh
    /// executors over the new slices, take a joint checkpoint at the
    /// cutover id (so WAL replay never crosses a rule change), swap the
    /// router, and rebuild the standby pool over the new checkpoints.
    fn maybe_apply_rebalance(&mut self, shards: &mut Shards, stats: &mut RouteStats) {
        let next = shards.logged_batches();
        let due = self.pending_rebalance.take_if(|(plan, _)| next >= plan.cutover);
        let Some((plan, new_part)) = due else { return };
        let started = std::time::Instant::now();
        let mut migrated = 0u64;
        let new_slices: Vec<Database> = (0..shards.execs.len())
            .map(|s| {
                let pred = new_part.slice_pred(s as u32);
                let mut base = shards.execs[s].database().partition_clone(pred);
                for (r, peer) in shards.execs.iter().enumerate() {
                    if r != s {
                        migrated += base.absorb_rows(peer.database(), new_part.slice_pred(s as u32));
                    }
                }
                base
            })
            .collect();
        for (s, slice) in new_slices.into_iter().enumerate() {
            // Armed fault plans are not carried over, as in degradation.
            let successor = shards.engine(s, slice);
            shards.execs[s] = if shards.execs[s].is_degraded() {
                successor.into_fallback()
            } else {
                successor
            };
            // Joint checkpoint at the cutover id: degradation replay and
            // failover catch-up start from post-cutover images and never
            // span the rule change. The slice is a new database, so this is
            // a full copy into the old image's arrays; the periodic
            // checkpoints after it copy what was written.
            shards.checkpoint(s);
        }
        self.telemetry.counter(names::SERVER_CHECKPOINTS).inc();
        self.router = Router::new(new_part);
        // Standby rows hold pre-cutover slices and replay under the old
        // rules: a fresh row per row still alive, under the new ones.
        let replay = self.replayer();
        if let Some(pool) = &mut shards.pool {
            pool.rebuild(&shards.durability, replay);
        }
        let (splits, merges, moves, set_rules) = plan.op_counts();
        let reg = &self.telemetry;
        reg.counter(names::REBALANCE_PLANS_APPLIED).inc();
        reg.counter(names::REBALANCE_SPLITS).add(splits);
        reg.counter(names::REBALANCE_MERGES).add(merges);
        reg.counter(names::REBALANCE_MOVES).add(moves);
        reg.counter(names::REBALANCE_SET_RULES).add(set_rules);
        reg.counter(names::REBALANCE_ROWS_MIGRATED).add(migrated);
        reg.histogram(names::REBALANCE_CUTOVER_NS).record_ns(started.elapsed().as_nanos() as f64);
        reg.gauge(names::REBALANCE_PENDING).set(0);
        stats.rebalances += 1;
        stats.rows_migrated += migrated;
    }
}

impl Topology for Sharding {
    type Stats = RouteStats;

    /// The cutover barrier.
    fn at_boundary(&mut self, shards: &mut Shards, stats: &mut RouteStats) {
        self.telemetry.counter(names::SHARD_TICKS).inc();
        self.maybe_apply_rebalance(shards, stats);
        self.publish_degraded(shards);
    }

    /// Each transaction routed once and moved into its first participant's
    /// sub-batch; the other participants of a cross-shard one get clones.
    fn split(&mut self, batch: Batch, stats: &mut RouteStats) -> Vec<Batch> {
        let n = self.router.partitioner().shards() as usize;
        // Sized for the expected uniform share: a balanced split routes
        // with no `Vec` regrowth, a skewed one regrows only past the hint.
        let hint = batch.txns.len().div_ceil(n) + batch.txns.len() / (4 * n);
        let mut subs: Vec<Vec<Txn>> = (0..n).map(|_| Vec::with_capacity(hint)).collect();
        let (mut single, mut multi, mut broadcast) = (0u64, 0u64, 0u64);
        for txn in batch.txns {
            let route = self.router.route(&txn);
            match &route {
                Route::Single(_) => single += 1,
                Route::Multi(_) => multi += 1,
                Route::Broadcast => broadcast += 1,
            }
            let mut participants = (0..n).filter(|&s| route.includes(s as u32));
            let first = participants.next().expect("every route has a participant");
            for s in participants {
                subs[s].push(txn.clone());
            }
            subs[first].push(txn);
        }
        self.telemetry.counter(names::SHARD_SINGLE_TXNS).add(single);
        self.telemetry.counter(names::SHARD_CROSS_TXNS).add(multi);
        self.telemetry.counter(names::SHARD_BROADCAST_TXNS).add(broadcast);
        stats.single_shard_txns += single;
        stats.cross_shard_txns += multi;
        stats.broadcast_txns += broadcast;
        subs.into_iter().map(|txns| Batch { txns }).collect()
    }

    fn round(
        &mut self,
        execs: &mut [Executor],
        subs: &[Batch],
        retry: &ServerConfig,
        backoff_ns: &mut f64,
        stats: &mut RouteStats,
    ) -> Result<Round, ServerError> {
        let part = self.router.partitioner();
        let round = lockstep_round(execs, subs, part, Some(retry), backoff_ns)?;
        // Merge barrier: every participant waited for the slowest prepare
        // before its verdicts were complete.
        if !round.merged.is_empty() {
            let max_prep = round.max_prep_ns();
            for p in &round.participants {
                let stall = max_prep - p.prep_ns;
                stats.merge_stall_ns += stall;
                self.telemetry.histogram(names::SHARD_MERGE_STALL_NS).record_ns(stall);
            }
        }
        Ok(round.into())
    }

    /// Under an owned copy of the rules the batches were routed by: the
    /// cutover rebuilds the pool, so it never outlives a rule change.
    fn replayer(&self) -> Replayer {
        let part = self.router.partitioner().clone();
        Arc::new(move |row, subs| Ok(lockstep_round(row, subs, &part, None, &mut 0.0)?.into()))
    }

    fn after_batch(&mut self, shards: &mut Shards, sim_ns: f64) {
        self.telemetry.histogram(names::SHARD_TICK_NS).record_ns(sim_ns);
        self.publish_degraded(shards);
        self.maybe_plan_rebalance(shards);
    }

    fn summarize(&self, s: &RouteStats, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "shards                {}", self.router.partitioner().shards());
        let _ = writeln!(
            out,
            "routing               {} single / {} multi / {} broadcast ({:.1}% cross)",
            s.single_shard_txns,
            s.cross_shard_txns,
            s.broadcast_txns,
            s.cross_shard_fraction() * 100.0,
        );
        let _ = writeln!(out, "merge stall           {:.1} us", s.merge_stall_ns / 1e3);
        let _ = writeln!(out, "rebalances            {}", s.rebalances);
        let _ = writeln!(out, "rows migrated         {}", s.rows_migrated);
    }
}

/// A batching OLTP server over N sharded engines with the deterministic
/// no-2PC cross-shard commit protocol: the shell over [`Sharding`] plus the
/// shard-indexed accessors.
#[derive(Debug)]
pub struct ShardedServer(Server<Sharding>);

impl Deref for ShardedServer {
    type Target = Server<Sharding>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for ShardedServer {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl ShardedServer {
    /// Create a sharded server: `db` is partitioned into per-shard slices
    /// by `part` (replicated tables are copied to every shard), each with
    /// a private registry for its device/engine/fault metrics.
    pub fn new(db: Database, part: Partitioner, engine_cfg: LtpgConfig, cfg: ServerConfig) -> Self {
        let telemetry = Registry::new_shared();
        telemetry.counter(names::SHARD_TICKS);
        telemetry.counter(names::SHARD_SINGLE_TXNS);
        telemetry.counter(names::SHARD_CROSS_TXNS);
        telemetry.counter(names::SHARD_BROADCAST_TXNS);
        telemetry.gauge(names::SHARD_DEGRADED);
        let slices = (0..part.shards())
            .map(|s| (db.partition_clone(part.slice_pred(s)), Registry::new_shared()))
            .collect();
        let topology = Sharding {
            router: Router::new(part),
            telemetry: Arc::clone(&telemetry),
            pending_rebalance: None,
            planner: None,
        };
        ShardedServer(Server::over(topology, slices, telemetry, engine_cfg, cfg))
    }

    /// Attach a warm standby pool: `cfg.standbys` full rows (one engine
    /// per shard) over the shards' current checkpoint images, plus one
    /// heartbeat monitor per shard. Standbys replay every logged batch in
    /// lockstep behind the primaries, each row on its own worker thread;
    /// on device loss (or a fenced heartbeat) the freshest row is promoted
    /// wholesale. `REPLICA_*` metrics publish on `telemetry()`.
    pub fn attach_replicas(&mut self, cfg: &ReplicaConfig) {
        ltpg_replica::attach(&mut self.0, cfg);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards().execs.len() as u32
    }

    /// The partitioner the server routes by.
    pub fn partitioner(&self) -> &Partitioner {
        self.topology().router.partitioner()
    }

    /// Shard `s`'s live database slice.
    pub fn database(&self, s: u32) -> &Database {
        self.shards().execs[s as usize].database()
    }

    /// Whether shard `s` has degraded to the CPU fallback.
    pub fn is_degraded(&self, s: u32) -> bool {
        self.shards().execs[s as usize].is_degraded()
    }

    /// Shard `s`'s private metrics registry (device/engine/fault family).
    pub fn shard_telemetry(&self, s: u32) -> &Arc<Registry> {
        &self.shards().registries[s as usize]
    }

    /// Arm a deterministic fault schedule on shard `s`'s device.
    pub fn arm_shard_faults(&mut self, s: u32, plan: DeviceFaultPlan) {
        self.shards_mut().arm_faults(s as usize, plan);
    }

    /// Fail shard `s`'s device at the next batch boundary.
    pub fn force_shard_failure(&mut self, s: u32) {
        self.shards_mut().fail_device(s as usize);
    }

    /// Schedule an online topology change, applied atomically when the
    /// next batch id reaches `plan.cutover`: batches before the cutover
    /// route under the old rules, batches from it under the new ones, with
    /// rows migrated between slices at the boundary. One plan may be in
    /// flight at a time.
    pub fn schedule_rebalance(&mut self, plan: RebalancePlan) -> Result<(), RebalanceError> {
        let (topology, shards) = self.0.topology_mut();
        topology.schedule(plan, shards.logged_batches())
    }

    /// Whether a scheduled plan is still waiting for its cutover batch.
    pub fn rebalance_pending(&self) -> bool {
        self.topology().pending_rebalance.is_some()
    }

    /// Enable the load-driven planner: per-shard engine load (the
    /// `ltpg.batch.total_ns` histograms) is observed every tick, and once
    /// imbalance persists past the hysteresis window a median split of
    /// the hottest shard's range is scheduled automatically.
    pub fn set_auto_rebalance(&mut self, cfg: PlannerConfig) {
        self.0.topology_mut().0.planner = Some(RebalancePlanner::new(cfg));
    }

    /// Serve a consistent snapshot read from the standby pool: the row of
    /// `(table, key)` in the owning shard's slice of the freshest standby
    /// row. The read first waits for the pool to apply what it has been
    /// shipped, so the cut is the logged tail (less any injected lag) on
    /// every run, and costs the serving engines nothing. Returns the row
    /// values and the cut's batch id; `None` without a pool or when the
    /// key is absent at the cut.
    pub fn snapshot_read(&self, table: TableId, key: i64) -> Option<(Vec<i64>, u64)> {
        let home = self.partitioner().home(table, key) as usize;
        self.shards().pool.as_ref()?.snapshot_read(home, table, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TableRule;
    use ltpg::{LtpgServer, ReplicaChaos};
    use ltpg_replica::{round_applier, Applier, ReplicaError, ReplicaSet};
    use ltpg_storage::{ColId, TableBuilder, TableId};
    use ltpg_txn::{IrOp, ProcId, Src};

    const T: TableId = TableId(0);

    /// A table of `keys` rows and a deterministic mixed read/write stream
    /// with both single-shard and cross-shard transactions (under a
    /// 4-shard stride-1 partitioner, key k lives on shard k % 4).
    fn db_and_txns(n: usize, keys: i64) -> (Database, Vec<Txn>) {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
        assert_eq!(t, T);
        for k in 0..keys {
            db.table_mut(T).insert(k, &[k, 0]).unwrap();
        }
        let txns = (0..n as i64)
            .map(|i| {
                let k1 = i % keys;
                let k2 = (i * 7 + 3) % keys;
                if i % 3 == 0 {
                    // Cross-shard read + write pair.
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![
                            IrOp::Read { table: T, key: Src::Const(k1), col: ColId(0), out: 0 },
                            IrOp::Update {
                                table: T,
                                key: Src::Const(k2),
                                col: ColId(0),
                                val: Src::Const(i + 1),
                            },
                        ],
                    )
                } else {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::Update {
                            table: T,
                            key: Src::Const(k1),
                            col: ColId(0),
                            val: Src::Const(i + 1),
                        }],
                    )
                }
            })
            .collect();
        (db, txns)
    }

    fn sharded(db: &Database, shards: u32, batch: usize) -> ShardedServer {
        let part = Partitioner::new(shards, TableRule::Stride { stride: 1 });
        ShardedServer::new(
            db.deep_clone(),
            part,
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    /// The fault-free single device over the same stream.
    fn reference(db: &Database, batch: usize, txns: &[Txn]) -> LtpgServer {
        let cfg = ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() };
        let mut reference = LtpgServer::new(db.deep_clone(), LtpgConfig::default(), cfg);
        reference.submit_all(txns.iter().cloned());
        reference
    }

    /// Replace `server`'s pool with one replaying through `applier` (tests
    /// put a latch around the server's own, [`joint_applier`]).
    fn attach_pool_with(server: &mut ShardedServer, cfg: &ReplicaConfig, applier: Applier) {
        let set = ReplicaSet::over(server.shards(), cfg, applier);
        server.attach_pool(Box::new(set));
    }

    fn joint_applier(server: &ShardedServer) -> Applier {
        round_applier(server.topology().replayer())
    }

    /// Tick both servers in lockstep and assert per-batch decisions match.
    fn assert_lockstep_identical(server: &mut ShardedServer, reference: &mut LtpgServer) {
        assert_lockstep_around(server, reference, |_, _| {}, |_| {});
    }

    /// The same, calling `before(tick, server)` ahead of each tick of
    /// `server` and `after(server)` behind it.
    fn assert_lockstep_around(
        server: &mut ShardedServer,
        reference: &mut LtpgServer,
        mut before: impl FnMut(usize, &mut ShardedServer),
        mut after: impl FnMut(&ShardedServer),
    ) {
        for tick in 0.. {
            before(tick, server);
            let a = server.tick();
            let b = reference.tick();
            after(server);
            match (&a, &b) {
                (None, None) => break,
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.committed, sb.committed, "commit sets must match");
                    assert_eq!(sa.aborted, sb.aborted, "abort sets must match");
                }
                _ => panic!("servers went idle at different ticks: {a:?} vs {b:?}"),
            }
        }
    }

    fn assert_slices_match_reference(server: &ShardedServer, reference: &LtpgServer) {
        let part = server.partitioner().clone();
        for s in 0..server.shard_count() {
            let expect = reference.database().partition_clone(part.slice_pred(s)).state_digest();
            assert_eq!(
                server.database(s).state_digest(),
                expect,
                "shard {s} slice must equal the single-device slice"
            );
        }
    }

    #[test]
    fn four_shards_decide_bit_identically_to_one_engine() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 48, &txns);
        let mut server = sharded(&db, 4, 48);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        let stats = server.stats();
        assert!(stats.cross_shard_txns + stats.broadcast_txns > 0, "stream must cross shards");
        assert!(stats.single_shard_txns > 0);
        assert_eq!(stats.committed, 240);
    }

    #[test]
    fn one_shard_degenerates_to_the_plain_server() {
        let (db, txns) = db_and_txns(100, 16);
        let mut reference = reference(&db, 32, &txns);
        let mut server = sharded(&db, 1, 32);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_eq!(server.database(0).state_digest(), reference.database().state_digest());
        assert_eq!(server.stats().cross_shard_txns, 0, "one shard: nothing can cross");
    }

    #[test]
    fn broadcast_scans_agree_with_the_single_engine() {
        // Ordered scans are undeclarable → broadcast; they must still
        // decide identically (the scan merges every shard's slice).
        let mut db = Database::new();
        let t = db.add_built_table(
            ltpg_storage::Table::new(TableBuilder::new("T").column("v").capacity(256).build())
                .with_ordered(),
        );
        assert_eq!(t, T);
        for k in 0..24 {
            db.table_mut(T).insert(k, &[k]).unwrap();
        }
        let txns: Vec<Txn> = (0..40i64)
            .map(|i| {
                if i % 4 == 0 {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::RangeSum {
                            table: T,
                            lo: Src::Const(0),
                            hi: Src::Const(24),
                            col: ColId(0),
                            out: 0,
                        }],
                    )
                } else {
                    Txn::new(
                        ProcId(0),
                        vec![],
                        vec![IrOp::Update {
                            table: T,
                            key: Src::Const(i % 24),
                            col: ColId(0),
                            val: Src::Const(100 + i),
                        }],
                    )
                }
            })
            .collect();
        let mut reference = reference(&db, 10, &txns);
        let mut server = sharded(&db, 4, 10);
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(server.stats().broadcast_txns > 0, "scans must broadcast");
    }

    #[test]
    fn transient_shard_faults_retry_without_degrading() {
        let (db, txns) = db_and_txns(120, 32);
        let mut reference = reference(&db, 40, &txns);
        let mut server = sharded(&db, 4, 40);
        // First upload of shard 2 fails transiently; the retry succeeds.
        server.arm_shard_faults(
            2,
            DeviceFaultPlan {
                transient_ops: [0u64].into_iter().collect(),
                lost_at_op: None,
                recover_at_op: None,
            },
        );
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(!server.is_degraded(2));
        assert_eq!(
            server.shard_telemetry(2).counter_value(names::FAULT_TRANSIENT_RETRIES),
            1,
            "the transient fault must be retried exactly once"
        );
    }

    #[test]
    fn losing_one_shard_degrades_it_and_keeps_history_identical() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 48, &txns);
        let mut server = sharded(&db, 4, 48);
        server.submit_all(txns);
        // Let one global batch run, then kill shard 1's device at the next
        // batch boundary.
        let s = server.tick().unwrap();
        let r = reference.tick().unwrap();
        assert_eq!(s.committed, r.committed);
        server.force_shard_failure(1);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert!(server.is_degraded(1), "the lost shard must run on the CPU fallback");
        for s in [0u32, 2, 3] {
            assert!(!server.is_degraded(s), "healthy shards keep their devices");
        }
        assert_eq!(server.stats().degraded_shards, 1);
        assert_eq!(
            server.shard_telemetry(1).counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
            1
        );
        assert_eq!(server.telemetry().gauge_value(names::SHARD_DEGRADED), 1);
    }

    #[test]
    fn failover_replaces_the_topology_and_keeps_history_identical() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 48, &txns);
        let mut server = sharded(&db, 4, 48);
        server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
        server.submit_all(txns);
        let s = server.tick().unwrap();
        let r = reference.tick().unwrap();
        assert_eq!(s.committed, r.committed);
        // Kill shard 1's device: the Dead heartbeat fences it at the next
        // batch boundary and the standby row takes over every shard.
        server.force_shard_failure(1);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert_eq!(server.stats().failovers, 1);
        assert_eq!(server.stats().degraded_shards, 0, "failover must not degrade anything");
        for s in 0..4 {
            assert!(!server.is_degraded(s), "shard {s} must stay on a GPU engine");
            assert_eq!(
                server.shard_telemetry(s).counter_value(names::FAULT_FALLBACK_ACTIVATIONS),
                0
            );
        }
        let reg = server.telemetry();
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
        assert_eq!(reg.gauge_value(names::REPLICA_STANDBYS), 0, "the only row was promoted");
        assert!(reg.histogram(names::REPLICA_FAILOVER_NS).snapshot().count >= 1);
    }

    #[test]
    fn mid_batch_device_loss_fails_over_with_replayed_verdicts() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 48, &txns);
        let mut server = sharded(&db, 4, 48);
        server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
        // Shard 2's device dies mid-prepare of a later batch: the probe at
        // the boundary saw it healthy, so this exercises the in-flight
        // promotion path (the batch was logged, the standby replays it and
        // its merged words decide the batch).
        server.arm_shard_faults(
            2,
            DeviceFaultPlan {
                transient_ops: std::collections::BTreeSet::new(),
                lost_at_op: Some(6),
                recover_at_op: None,
            },
        );
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert_eq!(server.stats().failovers, 1);
        assert_eq!(server.stats().degraded_shards, 0);
        assert_eq!(server.telemetry().counter_value(names::REPLICA_PROMOTIONS), 1);
    }

    /// A latch on a pool's replay: the wrapped applier announces every
    /// batch it is handed and then waits for the latch to open, so a test
    /// can hold the workers inside a batch — and let their queues fill —
    /// for as long as it needs the pool in that state.
    struct Latch {
        open: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
        entered_tx: std::sync::mpsc::Sender<()>,
        entered: std::sync::mpsc::Receiver<()>,
    }

    impl Latch {
        fn new(open: bool) -> Self {
            let (entered_tx, entered) = std::sync::mpsc::channel();
            let open = Arc::new((std::sync::Mutex::new(open), std::sync::Condvar::new()));
            Latch { open, entered_tx, entered }
        }

        fn around(&self, inner: Applier) -> Applier {
            let (open, entered) = (Arc::clone(&self.open), self.entered_tx.clone());
            Arc::new(move |row, records| {
                let _ = entered.send(());
                let (flag, opened) = &*open;
                drop(opened.wait_while(flag.lock().unwrap(), |open| !*open).unwrap());
                inner(row, records)
            })
        }

        /// Block until `workers` workers are inside a batch.
        fn wait_entered(&self, workers: usize) {
            for _ in 0..workers {
                self.entered.recv().expect("a worker holds the sender");
            }
        }

        fn open(&self) {
            *self.open.0.lock().unwrap() = true;
            self.open.1.notify_all();
        }
    }

    /// How the primary is lost.
    #[derive(Clone, Copy, Debug)]
    enum Loss {
        /// The device is dead at the boundary: the heartbeat fences it.
        Boundary,
        /// The device is healthy but its probes drop: a false-positive fence.
        Fence,
        /// The device dies mid-prepare: the in-flight batch is replayed.
        InFlight,
    }

    /// Serve `healthy_ticks` batches, lose shard 2 as `loss` says, drain —
    /// tick for tick against a fault-free single device — and return the
    /// slice digests with everything the pool published. With `latched`,
    /// replay is held inside the first batch until the loss is in place:
    /// after one tick the workers are mid-batch, after
    /// `SHIP_QUEUE_DEPTH + 1` their queues are full as well.
    fn lose_a_primary(
        standbys: usize,
        loss: Loss,
        healthy_ticks: usize,
        latched: bool,
    ) -> (Vec<u64>, [u64; 10]) {
        let (db, txns) = db_and_txns(24 * 10, 32);
        let mut reference = reference(&db, 24, &txns);
        let mut server = sharded(&db, 4, 24);
        let latch = Latch::new(!latched);
        let applier = latch.around(joint_applier(&server));
        let pool = ReplicaConfig { standbys, heartbeat_miss_threshold: 1 };
        attach_pool_with(&mut server, &pool, applier);
        if let Loss::Fence = loss {
            server.arm_replica_chaos(ReplicaChaos {
                heartbeat_drop_ticks: [healthy_ticks as u64].into_iter().collect(),
                ..ReplicaChaos::none()
            });
        }
        server.submit_all(txns);

        for tick in 0..healthy_ticks {
            let (s, r) = (server.tick().unwrap(), reference.tick().unwrap());
            assert_eq!((s.committed, s.aborted), (r.committed, r.aborted), "tick {tick}");
        }
        if latched {
            latch.wait_entered(standbys);
        }
        match loss {
            Loss::Boundary => server.force_shard_failure(2),
            Loss::Fence => {}
            Loss::InFlight => server.arm_shard_faults(
                2,
                DeviceFaultPlan { lost_at_op: Some(1), ..DeviceFaultPlan::none() },
            ),
        }
        // The promotion's join needs the workers to finish, so the latch
        // opens here; whether they are done when the join starts is up to
        // the scheduler, and must not matter.
        latch.open();
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert_eq!(server.stats().failovers, 1, "{loss:?}");
        assert_eq!(server.stats().degraded_shards, 0, "{loss:?}");
        assert_eq!(server.standbys_alive(), standbys - 1);

        let reg = server.telemetry();
        let lag = reg.histogram(names::REPLICA_LAG_BATCHES).snapshot();
        let failover = reg.histogram(names::REPLICA_FAILOVER_NS).snapshot();
        let digests = (0..4).map(|s| server.database(s).state_digest()).collect();
        let published = [
            reg.counter_value(names::REPLICA_PROMOTIONS),
            reg.counter_value(names::REPLICA_DEMOTIONS),
            reg.counter_value(names::REPLICA_REPROMOTIONS),
            reg.counter_value(names::REPLICA_CATCHUP_BATCHES),
            reg.counter_value(names::REPLICA_HEARTBEAT_MISSES),
            reg.gauge_value(names::REPLICA_STANDBYS) as u64,
            lag.count,
            lag.sum,
            failover.count,
            failover.sum,
        ];
        // Against a synchronous replay, not only against the other
        // schedule: the promoted row replayed the batches before the
        // boundary (and the in-flight one, which is all its catch-up ever
        // is), a surviving row everything.
        let in_flight = matches!(loss, Loss::InFlight);
        let promoted_row = (healthy_ticks + usize::from(in_flight)) as u64;
        let surviving_rows = (standbys as u64 - 1) * server.stats().batches;
        assert_eq!(published[3], promoted_row + surviving_rows, "catch-up batches, {loss:?}");
        assert_eq!(failover.count, 1);
        assert_eq!(failover.sum > 0, in_flight, "failover latency is the in-flight batch alone");
        (digests, published)
    }

    /// ROADMAP item 5's cell "promotion while a standby's replay worker is
    /// mid-batch", and its neighbour "… while its queue is full": every way
    /// of losing a primary, 1 and 2 standby rows. The run whose pool was
    /// held back must be indistinguishable — slices and every `replica.*`
    /// figure — from the run whose pool replayed freely, and both serve
    /// the fault-free history.
    #[test]
    fn losing_a_primary_while_replay_is_mid_batch_or_backed_up_changes_nothing() {
        for standbys in [1, 2] {
            for loss in [Loss::Boundary, Loss::Fence, Loss::InFlight] {
                for healthy_ticks in [1, ltpg_replica::SHIP_QUEUE_DEPTH + 1] {
                    let free = lose_a_primary(standbys, loss, healthy_ticks, false);
                    let held = lose_a_primary(standbys, loss, healthy_ticks, true);
                    assert_eq!(
                        held, free,
                        "{standbys} standbys, {loss:?} after {healthy_ticks} ticks"
                    );
                    assert_eq!(held.1[..2], [1, 0], "one promotion, no demotion");
                }
            }
        }
    }

    /// Dropping a sharded server in mid-stream ends its pool's workers
    /// (each holds a clone of the applier while it runs).
    #[test]
    fn dropping_the_server_mid_stream_leaves_no_worker_running() {
        let (db, txns) = db_and_txns(96, 32);
        let mut server = sharded(&db, 4, 24);
        let applier = joint_applier(&server);
        let pool = ReplicaConfig { standbys: 2, ..ReplicaConfig::default() };
        attach_pool_with(&mut server, &pool, Arc::clone(&applier));
        server.submit_all(txns);
        server.tick().unwrap();
        server.tick().unwrap();
        assert_eq!(Arc::strong_count(&applier), 2 + 2, "this test, the set, a worker per row");
        drop(server);
        assert_eq!(Arc::strong_count(&applier), 1, "a worker outlived its server");
    }

    /// A row whose replay fails leaves the pool at the next join, and the
    /// summary says which row, at which batch, and why.
    #[test]
    fn a_failed_standby_row_is_reported_with_its_cause() {
        let (db, txns) = db_and_txns(96, 32);
        let mut server = sharded(&db, 4, 24);
        let refuse: Applier = Arc::new(|_, _| Err(ReplicaError::Corrupt("refused".into())));
        attach_pool_with(&mut server, &ReplicaConfig::default(), refuse);
        server.submit_all(txns);
        server.drain(100);
        assert_eq!(server.stats().committed, 96, "a dead standby costs the primary nothing");
        assert_eq!(server.standbys_alive(), 0);
        assert_eq!(server.telemetry().counter_value(names::REPLICA_DEMOTIONS), 1);
        let summary = server.summary();
        assert!(
            summary.contains("standby demoted       row 0 at batch 0: corrupt WAL record: refused"),
            "summary:\n{summary}"
        );
    }

    #[test]
    fn heartbeat_false_positive_failover_is_safe() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 48, &txns);
        let mut server = sharded(&db, 4, 48);
        server.attach_replicas(&ltpg_replica::ReplicaConfig {
            standbys: 1,
            heartbeat_miss_threshold: 3,
        });
        // Drop three consecutive probe rounds: every primary is healthy,
        // but the monitors fence after the third miss and a (safe) false
        // positive failover runs — determinism makes it invisible.
        server.arm_replica_chaos(ReplicaChaos {
            heartbeat_drop_ticks: [1u64, 2, 3].into_iter().collect(),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert_eq!(server.stats().failovers, 1);
        let reg = server.telemetry();
        assert!(reg.counter_value(names::REPLICA_HEARTBEAT_MISSES) >= 3);
        assert_eq!(reg.counter_value(names::REPLICA_PROMOTIONS), 1);
    }

    #[test]
    fn recovered_device_repromotes_the_degraded_shard() {
        // Satellite regression: with no standby pool the loss degrades the
        // shard to the CPU fallback, but a timed recovery must bring the
        // revived device back as the serving engine — and clear the
        // degraded gauge — rather than leaving the shard benched forever.
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 24, &txns);
        let mut server = sharded(&db, 4, 24);
        server.arm_replica_chaos(ReplicaChaos {
            device_recovers_after_batches: Some(2),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        let s = server.tick().unwrap();
        let r = reference.tick().unwrap();
        assert_eq!(s.committed, r.committed);
        server.force_shard_failure(1);
        let mut saw_degraded = false;
        let after = |server: &ShardedServer| saw_degraded |= server.is_degraded(1);
        assert_lockstep_around(&mut server, &mut reference, |_, _| {}, after);
        assert!(saw_degraded, "the loss must first degrade shard 1 to the CPU fallback");
        assert!(!server.is_degraded(1), "the revived device must re-promote the shard");
        assert_eq!(server.stats().degraded_shards, 0, "stats must reflect current topology");
        assert_eq!(
            server.telemetry().gauge_value(names::SHARD_DEGRADED),
            0,
            "the degraded gauge must clear on re-promotion"
        );
        assert_eq!(server.telemetry().counter_value(names::REPLICA_REPROMOTIONS), 1);
        assert_slices_match_reference(&server, &reference);
    }

    #[test]
    fn two_lost_devices_both_rejoin() {
        // Regression: the lost-device slot used to hold one device, so a
        // second loss overwrote the first and the earlier shard stayed on
        // the CPU fallback forever. With no pool, shards 0 and 2 are lost a
        // tick apart; both must re-promote once their outages end.
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 24, &txns);
        let mut server = sharded(&db, 4, 24);
        server.arm_replica_chaos(ReplicaChaos {
            device_recovers_after_batches: Some(3),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        let mut saw_both_degraded = false;
        let lose = |tick, server: &mut ShardedServer| match tick {
            1 => server.force_shard_failure(0),
            2 => server.force_shard_failure(2),
            _ => {}
        };
        let after = |server: &ShardedServer| {
            saw_both_degraded |= server.is_degraded(0) && server.is_degraded(2)
        };
        assert_lockstep_around(&mut server, &mut reference, lose, after);
        assert!(saw_both_degraded, "both losses must first degrade their shards");
        assert!(!server.is_degraded(0), "the earlier loss must not be forgotten");
        assert!(!server.is_degraded(2));
        assert_eq!(server.stats().degraded_shards, 0);
        assert_eq!(server.telemetry().gauge_value(names::SHARD_DEGRADED), 0);
        assert_eq!(server.telemetry().counter_value(names::REPLICA_REPROMOTIONS), 2);
        assert_slices_match_reference(&server, &reference);
    }

    #[test]
    fn recovered_device_reenlists_as_a_standby_after_failover() {
        // With a pool attached the failover heals the topology first; the
        // later timed recovery re-enlists the revived device as a fresh
        // standby row instead of touching the serving plane.
        let (db, txns) = db_and_txns(240, 32);
        let mut server = sharded(&db, 4, 24);
        server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
        server.arm_replica_chaos(ReplicaChaos {
            device_recovers_after_batches: Some(2),
            ..ReplicaChaos::none()
        });
        server.submit_all(txns);
        server.tick().unwrap();
        server.force_shard_failure(3);
        server.drain(100);
        assert_eq!(server.stats().failovers, 1);
        assert_eq!(server.stats().degraded_shards, 0);
        assert_eq!(server.standbys_alive(), 1, "the revived device must refill the pool");
        assert_eq!(server.telemetry().counter_value(names::REPLICA_REPROMOTIONS), 1);
        assert_eq!(server.telemetry().gauge_value(names::REPLICA_STANDBYS), 1);
    }

    #[test]
    fn exhausted_pool_still_degrades_to_the_cpu_twin() {
        let (db, txns) = db_and_txns(240, 32);
        let mut reference = reference(&db, 24, &txns);
        let mut server = sharded(&db, 4, 24);
        server.attach_replicas(&ltpg_replica::ReplicaConfig::default());
        server.submit_all(txns);
        server.tick().unwrap();
        reference.tick().unwrap();
        server.force_shard_failure(0); // consumes the only standby row
        server.tick().unwrap();
        reference.tick().unwrap();
        server.force_shard_failure(2); // pool empty: degrade shard 2
        assert_lockstep_identical(&mut server, &mut reference);
        assert_slices_match_reference(&server, &reference);
        assert_eq!(server.stats().failovers, 1);
        assert!(server.is_degraded(2));
        assert_eq!(server.stats().degraded_shards, 1);
        assert_eq!(server.telemetry().gauge_value(names::SHARD_DEGRADED), 1);
    }

    #[test]
    fn joint_checkpoints_are_counted_like_the_single_servers() {
        let (db, txns) = db_and_txns(120, 32);
        let part = Partitioner::new(4, TableRule::Stride { stride: 1 });
        let cfg = ServerConfig {
            batch_size: 24,
            pipelined: false,
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        };
        let mut server = ShardedServer::new(db, part, LtpgConfig::default(), cfg);
        server.submit_all(txns);
        let batches = server.drain(100).batches;
        assert!(batches >= 4);
        assert_eq!(server.telemetry().counter_value(names::SERVER_CHECKPOINTS), batches / 2);
        assert_eq!(server.shards().durability[0].checkpoint_batch(), batches - batches % 2);
    }

    #[test]
    fn merge_stall_and_routing_telemetry_are_populated() {
        let (db, txns) = db_and_txns(120, 32);
        let mut server = sharded(&db, 4, 40);
        server.submit_all(txns);
        server.drain(100);
        let reg = server.telemetry();
        assert!(reg.counter_value(names::SHARD_TICKS) > 0);
        assert!(reg.counter_value(names::SHARD_SINGLE_TXNS) > 0);
        assert!(reg.counter_value(names::SHARD_CROSS_TXNS) > 0);
        let stall = reg.histogram(names::SHARD_MERGE_STALL_NS).snapshot();
        assert!(stall.count > 0, "every participating shard records a stall sample");
        let summary = server.summary();
        assert!(summary.contains("merge stall"), "summary:\n{summary}");
        assert!(server.stats().cross_shard_fraction() > 0.0);
    }
}
