//! Warm-standby pools replaying the deterministic commit stream.
//!
//! A [`ReplicaSet`] owns N *standby rows*. Each row is a complete replica
//! of the serving topology: one GPU [`Executor`] per shard (a single-device
//! server is the one-shard case), built from the shards' checkpoint
//! images and advanced by replaying batch-id-aligned WAL records. Because
//! LTPG's commit decision is a pure function of (snapshot, batch, TIDs),
//! a row that has applied the same WAL prefix is bit-identical to the
//! primary — replication is replay, and failover is a pointer swap at a
//! batch boundary.
//!
//! ## Threading
//!
//! Replay needs nothing from the primary once a batch is in the WAL, so it
//! does not run on the serving thread. [`ReplicaSet::observe`] only *ships*:
//! it fetches the logged records of the batches a row is due (a refcount
//! bump per payload) and sends them down the row's bounded channel. A
//! worker thread per row owns the row's executors, decodes and applies.
//! A full channel blocks the shipper, so a slow standby back-pressures the
//! primary by at most [`SHIP_QUEUE_DEPTH`] batches instead of lagging
//! without bound.
//!
//! The set **joins** a worker — hangs up the channel, waits for the thread,
//! takes the executors back — wherever standby state is read or the pool
//! changes shape: [`rows_alive`](ReplicaSet::rows_alive),
//! [`lags`](ReplicaSet::lags), [`demoted`](ReplicaSet::demoted),
//! [`snapshot_read`](ReplicaSet::snapshot_read),
//! [`promote_row`](ReplicaSet::promote_row), the `spawn_row*` calls,
//! [`join`](ReplicaSet::join) (the servers call it on an idle tick) and
//! `Drop`. Every pool counter moves on the caller's thread, at a ship or
//! at a join, so telemetry is the same function of the call sequence
//! whatever the scheduler does; a joined pool is bit-for-bit the pool a
//! synchronous replay would have left. A replay failure ends the worker,
//! which hangs up its end: later ships to that row fail fast and are
//! dropped, and the next join demotes the row with its cause. A worker
//! panic is re-raised by the join that meets it.
//!
//! The set is deliberately ignorant of *how* a batch is applied: it is
//! handed an [`Applier`] at construction. [`single_device_applier`] decodes
//! a WAL record and executes it on the row's lone engine; the sharded
//! server supplies a joint lockstep applier that prepares every shard's
//! sub-batch against a remote view of its row peers and merges conflict
//! words, exactly mirroring primary execution. Keeping the applier outside
//! the crate keeps the dependency arrow pointing the right way
//! (`ltpg-shard` → `ltpg-replica` → `ltpg`).

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use ltpg::{DurabilityManager, Executor, FailoverProvider, LtpgConfig, LtpgEngine};
use ltpg_gpu_sim::{Device, DeviceError};
use ltpg_storage::wal::BatchRecord;
use ltpg_storage::Database;
use ltpg_telemetry::{names, Counter, Gauge, Histogram, Registry};
use ltpg_txn::codec::decode_batch;
use ltpg_txn::Batch;

/// Merged per-transaction conflict-flag words produced by replaying one
/// batch (TID → OR-merged flag word). Single-device appliers may return an
/// empty map — the caller re-derives verdicts from its own report.
pub type MergedWords = BTreeMap<u64, u32>;

/// Applies one logged batch — `records[s]` is shard `s`'s WAL record of it
/// — to a standby row's executors (one per shard) and returns the merged
/// conflict-flag words. Owned and thread-safe: every row's worker holds a
/// clone and calls it off the serving thread.
pub type Applier =
    Arc<dyn Fn(&mut [Executor], &[BatchRecord]) -> Result<MergedWords, ReplicaError> + Send + Sync>;

/// Batches a row's channel buffers before [`ReplicaSet::observe`] blocks.
pub const SHIP_QUEUE_DEPTH: usize = 4;

/// Why a standby row could not apply a batch.
#[derive(Debug, Clone)]
pub enum ReplicaError {
    /// The WAL has no record for this batch id (log damage or a torn
    /// prefix — the row cannot safely continue).
    WalGap {
        /// The missing batch id.
        batch_id: u64,
    },
    /// The record decoded to garbage.
    Corrupt(String),
    /// The standby's own device died during replay.
    Dead(DeviceError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::WalGap { batch_id } => write!(f, "WAL gap at batch {batch_id}"),
            ReplicaError::Corrupt(msg) => write!(f, "corrupt WAL record: {msg}"),
            ReplicaError::Dead(e) => write!(f, "standby device died during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// A standby row taken out of service, and why.
#[derive(Debug, Clone)]
pub struct Demotion {
    /// The row's stable id (the `<row>` of its lag gauge).
    pub row: usize,
    /// The batch it could not apply.
    pub batch_id: u64,
    /// What went wrong.
    pub cause: ReplicaError,
}

impl std::fmt::Display for Demotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row {} at batch {}: {}", self.row, self.batch_id, self.cause)
    }
}

/// Policy knobs for a [`ReplicaSet`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Warm standby rows to maintain.
    pub standbys: usize,
    /// Consecutive heartbeat misses before a primary is fenced (consumed
    /// by the callers' [`crate::HealthMonitor`]s, carried here so one
    /// config travels the stack).
    pub heartbeat_miss_threshold: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig { standbys: 1, heartbeat_miss_threshold: 3 }
    }
}

/// One logged batch on its way to a row's worker.
struct Shipment {
    batch_id: u64,
    /// One record per shard.
    records: Vec<BatchRecord>,
}

/// What a worker hands back when it is joined.
struct WorkerExit {
    engines: Vec<Executor>,
    /// Batches this worker applied.
    applied: u64,
    /// Merged words of the last batch it applied.
    last_words: Option<MergedWords>,
    /// The batch it stopped at, and why. Whatever was queued behind that
    /// batch was dropped with the channel.
    failure: Option<(u64, ReplicaError)>,
}

/// A row's replay thread and the channel feeding it.
struct Worker {
    tx: SyncSender<Shipment>,
    handle: JoinHandle<WorkerExit>,
}

impl Worker {
    fn spawn(row: usize, engines: Vec<Executor>, applier: Applier) -> Self {
        let (tx, rx) = sync_channel(SHIP_QUEUE_DEPTH);
        let handle = std::thread::Builder::new()
            .name(format!("ltpg-standby-{row}"))
            .spawn(move || replay(engines, rx, applier))
            // Invariant: the process can start a thread; a host that cannot
            // is out of resources the serving path needs as well.
            .expect("spawn standby replay worker");
        Worker { tx, handle }
    }

    /// Hang up and wait for the thread. `Err` is the worker's panic.
    fn join(self) -> std::thread::Result<WorkerExit> {
        drop(self.tx);
        self.handle.join()
    }
}

/// The worker body: apply shipments in order until the set hangs up or a
/// batch fails. Returning drops the receiver, so a set still shipping to a
/// failed row gets an error instead of a full queue.
fn replay(mut engines: Vec<Executor>, rx: Receiver<Shipment>, applier: Applier) -> WorkerExit {
    let (mut applied, mut last_words, mut failure) = (0, None, None);
    for Shipment { batch_id, records } in rx {
        match applier(&mut engines, &records) {
            Ok(words) => {
                applied += 1;
                last_words = Some(words);
            }
            Err(cause) => {
                failure = Some((batch_id, cause));
                break;
            }
        }
    }
    WorkerExit { engines, applied, last_words, failure }
}

/// Who holds a row's executors.
enum RowState {
    /// The set does: no worker is running.
    Parked(Vec<Executor>),
    /// A worker does, and applies what arrives on its channel.
    Running(Worker),
    /// Nobody: replay failed and the executors were dropped. Dead rows are
    /// never shipped to and never promoted.
    Dead,
}

/// One warm standby: a full engine row plus its replay cursor.
struct StandbyRow {
    /// Stable identity for per-standby telemetry, independent of pool
    /// position (rows are removed on promotion).
    id: usize,
    state: RowState,
    /// Batches handed to the row; the next batch to ship is `shipped`.
    /// Once the row is joined and still alive, all of them are applied.
    shipped: u64,
    /// Injected lag: stay this many batches behind the tail during
    /// steady-state observation (promotion catch-up ignores the hold).
    lag_hold: u64,
    /// `replica.standby.<id>.lag_batches`, resolved once.
    lag_gauge: Arc<Gauge>,
}

impl StandbyRow {
    fn alive(&self) -> bool {
        !matches!(self.state, RowState::Dead)
    }

    /// The row's executors, while the set holds them.
    fn parked(&self) -> Option<&[Executor]> {
        match &self.state {
            RowState::Parked(engines) => Some(engines),
            _ => None,
        }
    }

    /// The channel into this row's worker, starting one if the row is
    /// parked. `None` for a dead row.
    fn sender(&mut self, applier: &Applier) -> Option<&SyncSender<Shipment>> {
        self.state = match std::mem::replace(&mut self.state, RowState::Dead) {
            RowState::Parked(engines) => {
                RowState::Running(Worker::spawn(self.id, engines, Arc::clone(applier)))
            }
            other => other,
        };
        match &self.state {
            RowState::Running(worker) => Some(&worker.tx),
            _ => None,
        }
    }
}

/// Simulated device time a row has spent, summed over its engines.
fn device_ns(engines: &[Executor]) -> f64 {
    engines.iter().filter_map(Executor::gpu).map(|e| e.device().elapsed_ns()).sum()
}

/// The rows and what happened to the ones that left.
struct Pool {
    rows: Vec<StandbyRow>,
    next_row_id: usize,
    demoted: Vec<Demotion>,
}

/// A pool of warm standby rows for one server (single- or multi-shard).
pub struct ReplicaSet {
    /// Behind a `RefCell` because the readers (`rows_alive`, `lags`,
    /// `snapshot_read`) take `&self` and must join first.
    pool: RefCell<Pool>,
    shards: usize,
    engine_cfg: LtpgConfig,
    applier: Applier,
    /// The serving registry: `REPLICA_*` metrics and, after promotion, the
    /// promoted engine's own metrics land here.
    registry: Arc<Registry>,
    /// Detached registry absorbing standby engines' device/phase metrics
    /// so warm replay never pollutes the primary's dashboards.
    standby_registry: Arc<Registry>,
    promotions: Arc<Counter>,
    demotions: Arc<Counter>,
    repromotions: Arc<Counter>,
    catchup_batches: Arc<Counter>,
    failover_ns: Arc<Histogram>,
    lag_batches: Arc<Histogram>,
    standbys_gauge: Arc<Gauge>,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet").field("shards", &self.shards).finish_non_exhaustive()
    }
}

impl ReplicaSet {
    /// Build a pool of `cfg.standbys` rows from per-shard checkpoint
    /// `images` taken at batch `base_batch` (every shard checkpoints at
    /// the same aligned batch id). `registry` is the *serving* registry:
    /// `REPLICA_*` metrics publish there, and a promoted engine is
    /// rebound to it on the way out. `applier` replays one logged batch on
    /// a row, for steady-state replay and promotion catch-up alike.
    pub fn new(
        images: Vec<Database>,
        base_batch: u64,
        engine_cfg: LtpgConfig,
        cfg: &ReplicaConfig,
        registry: Arc<Registry>,
        applier: Applier,
    ) -> Self {
        assert!(!images.is_empty(), "a replica set needs at least one shard image");
        let mut set = ReplicaSet {
            pool: RefCell::new(Pool { rows: Vec::new(), next_row_id: 0, demoted: Vec::new() }),
            shards: images.len(),
            engine_cfg,
            applier,
            standby_registry: Registry::new_shared(),
            promotions: registry.counter(names::REPLICA_PROMOTIONS),
            demotions: registry.counter(names::REPLICA_DEMOTIONS),
            repromotions: registry.counter(names::REPLICA_REPROMOTIONS),
            catchup_batches: registry.counter(names::REPLICA_CATCHUP_BATCHES),
            failover_ns: registry.histogram(names::REPLICA_FAILOVER_NS),
            lag_batches: registry.histogram(names::REPLICA_LAG_BATCHES),
            standbys_gauge: registry.gauge(names::REPLICA_STANDBYS),
            registry,
        };
        for _ in 0..cfg.standbys {
            set.spawn_row(images.iter().map(Database::deep_clone).collect(), base_batch);
        }
        set
    }

    /// Add one standby row built from per-shard `images` checkpointed at
    /// `base_batch`. Used at construction and to replace promoted rows.
    pub fn spawn_row(&mut self, images: Vec<Database>, base_batch: u64) {
        let engines = images.into_iter().map(|db| self.standby_engine(db).into()).collect();
        self.push_row(engines, base_batch);
    }

    /// Add a standby row whose shard-0 engine adopts a recovered physical
    /// `device` (already revived and reset). This is the re-enlistment
    /// path: a device that came back from a timed outage rejoins the pool
    /// instead of the serving plane.
    pub fn spawn_row_with_device(
        &mut self,
        images: Vec<Database>,
        base_batch: u64,
        device: Arc<Device>,
    ) {
        let mut images = images.into_iter();
        let first = images.next().expect("at least one shard");
        let mut engines: Vec<Executor> = vec![LtpgEngine::with_device(
            first,
            self.engine_cfg.clone(),
            Arc::clone(&self.standby_registry),
            device,
        )
        .into()];
        engines.extend(images.map(|db| self.standby_engine(db).into()));
        self.push_row(engines, base_batch);
        self.repromotions.inc();
    }

    /// The pool changes shape: join it, then append a parked row.
    fn push_row(&mut self, engines: Vec<Executor>, base_batch: u64) {
        assert_eq!(engines.len(), self.shards, "row shape must match the topology");
        let mut pool = self.joined();
        let id = pool.next_row_id;
        pool.next_row_id += 1;
        pool.rows.push(StandbyRow {
            id,
            state: RowState::Parked(engines),
            shipped: base_batch,
            lag_hold: 0,
            lag_gauge: self.registry.gauge(&names::replica_standby_lag_gauge(id)),
        });
        self.publish_pool_gauges(&pool);
    }

    /// A fresh engine over `db` publishing to the detached standby
    /// registry.
    fn standby_engine(&self, db: Database) -> LtpgEngine {
        LtpgEngine::with_telemetry(db, self.engine_cfg.clone(), Arc::clone(&self.standby_registry))
    }

    /// Wait until every row has applied everything shipped to it, and
    /// demote the rows that could not. The servers call this when they go
    /// idle, so a drained server leaves a caught-up pool and no replay
    /// running behind the caller's back.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a worker that panicked.
    pub fn join(&self) {
        self.joined();
    }

    /// The pool, joined: the door every reader of standby state comes in by.
    fn joined(&self) -> RefMut<'_, Pool> {
        let mut pool = self.pool.borrow_mut();
        let Pool { rows, demoted, .. } = &mut *pool;
        for row in rows.iter_mut() {
            self.join_row(row, demoted);
        }
        self.publish_pool_gauges(&pool);
        pool
    }

    /// Take `row`'s executors back from its worker, if it has one: account
    /// what the worker applied, demote the row if it failed. Returns the
    /// merged words of the last batch that worker applied.
    fn join_row(&self, row: &mut StandbyRow, demoted: &mut Vec<Demotion>) -> Option<MergedWords> {
        let worker = match std::mem::replace(&mut row.state, RowState::Dead) {
            RowState::Running(worker) => worker,
            other => {
                row.state = other;
                return None;
            }
        };
        let exit = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        self.catchup_batches.add(exit.applied);
        match exit.failure {
            None => row.state = RowState::Parked(exit.engines),
            Some((batch_id, cause)) => self.demote(row, batch_id, cause, demoted),
        }
        exit.last_words
    }

    /// Take `row` out of service for good, keeping the cause.
    fn demote(
        &self,
        row: &mut StandbyRow,
        batch_id: u64,
        cause: ReplicaError,
        demoted: &mut Vec<Demotion>,
    ) {
        row.state = RowState::Dead;
        self.demotions.inc();
        demoted.push(Demotion { row: row.id, batch_id, cause });
    }

    /// Hand `row` the logged batches `row.shipped..target`. Never waits on
    /// a failed row: its worker has hung up, the send errs, and the batch
    /// is dropped — the row is demoted at the next join. A batch missing
    /// from a log cannot be shipped; that demotes the row here.
    fn ship<'a>(
        &self,
        row: &mut StandbyRow,
        target: u64,
        logs: impl Iterator<Item = &'a DurabilityManager> + Clone,
        demoted: &mut Vec<Demotion>,
    ) {
        while row.shipped < target {
            let batch_id = row.shipped;
            let records: Option<Vec<BatchRecord>> =
                logs.clone().map(|dur| dur.log().fetch(batch_id)).collect();
            let Some(records) = records else {
                self.join_row(row, demoted);
                if row.alive() {
                    self.demote(row, batch_id, ReplicaError::WalGap { batch_id }, demoted);
                }
                return;
            };
            let Some(tx) = row.sender(&self.applier) else { return };
            let _ = tx.send(Shipment { batch_id, records });
            row.shipped += 1;
        }
    }

    /// Standby rows currently alive (promotable). Joins first.
    pub fn rows_alive(&self) -> usize {
        let pool = self.joined();
        pool.rows.iter().filter(|r| r.alive()).count()
    }

    /// Every row demoted so far, oldest first. Joins first.
    pub fn demoted(&self) -> Vec<Demotion> {
        let pool = self.joined();
        pool.demoted.clone()
    }

    /// Shards per row.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The serving registry `REPLICA_*` metrics publish to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Hold standby row at pool index `row` exactly `batches` behind the
    /// logged tail (chaos injection; promotion ignores the hold and fully
    /// catches up). Out-of-range indices are ignored.
    pub fn inject_lag(&mut self, row: usize, batches: u64) {
        if let Some(r) = self.pool.get_mut().rows.get_mut(row) {
            r.lag_hold = batches;
        }
    }

    /// Serve a snapshot read from the freshest alive standby row: the row
    /// values of `(table, key)` in shard `shard`'s slice, together with
    /// the batch id of the cut (batches `< cut` are applied). The pool is
    /// joined first, so the cut is exactly what has been shipped — a
    /// function of the call sequence, not of how far a worker happened to
    /// get — and **consistent**: a row never holds a partially applied
    /// batch. `None` when the pool is empty or the key is not present at
    /// the cut.
    pub fn snapshot_read(
        &self,
        shard: usize,
        table: ltpg_storage::TableId,
        key: i64,
    ) -> Option<(Vec<i64>, u64)> {
        let pool = self.joined();
        let (engines, cut) = pool
            .rows
            .iter()
            .filter_map(|r| Some((r.parked()?, r.shipped)))
            .max_by_key(|&(_, cut)| cut)?;
        let t = engines.get(shard)?.database().table(table);
        let rid = t.lookup(key)?;
        Some((t.row_values(rid), cut))
    }

    /// Lag (batches behind `tail`) of every alive row, by stable row id.
    /// Joins first.
    pub fn lags(&self, tail: u64) -> Vec<(usize, u64)> {
        let pool = self.joined();
        pool.rows
            .iter()
            .filter(|r| r.alive())
            .map(|r| (r.id, tail.saturating_sub(r.shipped)))
            .collect()
    }

    /// Steady-state replication: ship every alive row the batches between
    /// its cursor and `tail` (the batch count of `logs`, one durability
    /// domain per shard), respecting injected lag holds. Lag — what has
    /// not been shipped, i.e. what a hold keeps back — goes to the
    /// histogram and the row's gauge. Does not wait for replay, unless a
    /// row's queue is full.
    pub fn observe<'a>(
        &mut self,
        tail: u64,
        logs: impl Iterator<Item = &'a DurabilityManager> + Clone,
    ) {
        let mut pool = self.pool.borrow_mut();
        let Pool { rows, demoted, .. } = &mut *pool;
        for row in rows.iter_mut().filter(|r| r.alive()) {
            let target = tail.saturating_sub(row.lag_hold).max(row.shipped);
            self.ship(row, target, logs.clone(), demoted);
            let lag = tail.saturating_sub(row.shipped);
            self.lag_batches.record_ns(lag as f64);
            row.lag_gauge.set(lag as i64);
        }
        self.publish_pool_gauges(&pool);
    }

    /// Promote the freshest alive row: join the pool, ship the row the
    /// batches `< upto` it has not seen (ignoring any injected lag hold),
    /// join it again, remove it from the pool, and return its executors
    /// rebound to the serving registry, along with the merged conflict
    /// words of the *last* batch of that catch-up (`upto - 1`) and the
    /// simulated ns the catch-up cost. Rows that die mid-catch-up are
    /// demoted and the next-freshest row is tried. `None` when the pool is
    /// exhausted.
    pub fn promote_row<'a>(
        &mut self,
        upto: u64,
        logs: impl Iterator<Item = &'a DurabilityManager> + Clone,
    ) -> Option<(Vec<Executor>, Option<MergedWords>, f64)> {
        let mut pool = self.joined();
        loop {
            // Freshest first: least catch-up work, lowest failover latency.
            let candidate = pool
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.alive())
                .max_by_key(|(_, r)| r.shipped)
                .map(|(i, _)| i)?;
            let mut row = pool.rows.remove(candidate);
            // The pool was just joined and the row is alive: it is parked.
            let before_ns = row.parked().map_or(0.0, device_ns);
            self.ship(&mut row, upto, logs.clone(), &mut pool.demoted);
            let last_words = self.join_row(&mut row, &mut pool.demoted);
            let RowState::Parked(mut engines) = row.state else {
                self.publish_pool_gauges(&pool);
                continue;
            };
            let catchup_ns = device_ns(&engines) - before_ns;
            self.failover_ns.record_ns(catchup_ns);
            self.promotions.inc();
            row.lag_gauge.set(0);
            for engine in engines.iter_mut().filter_map(Executor::gpu_mut) {
                engine.rebind_telemetry(Arc::clone(&self.registry));
            }
            self.publish_pool_gauges(&pool);
            return Some((engines, last_words, catchup_ns));
        }
    }

    fn publish_pool_gauges(&self, pool: &Pool) {
        self.standbys_gauge.set(pool.rows.iter().filter(|r| r.alive()).count() as i64);
    }
}

impl Drop for ReplicaSet {
    /// No thread outlives the set. A worker's panic is not re-raised here
    /// (a panic in `drop` during an unwind aborts); every other join does.
    fn drop(&mut self) {
        for row in &mut self.pool.get_mut().rows {
            if let RowState::Running(worker) = std::mem::replace(&mut row.state, RowState::Dead) {
                let _ = worker.join();
            }
        }
    }
}

/// Single-device replay: decode the WAL record and execute it on the
/// row's lone executor. The standby's report is discarded — determinism
/// guarantees it matches the primary's, and the promoted engine's state
/// is what matters. A standby that hits a device fault is demoted, not
/// retried.
pub fn single_device_applier() -> Applier {
    Arc::new(|engines, records| {
        let txns = decode_batch(&records[0].payload)
            .map_err(|e| ReplicaError::Corrupt(format!("{e:?}")))?;
        engines[0].execute(&Batch { txns }, None, &mut 0.0).map_err(ReplicaError::Dead)?;
        Ok(MergedWords::new())
    })
}

/// The single-device server integration: a one-shard [`ReplicaSet`] built
/// with [`single_device_applier`] plugs straight into
/// [`ltpg::LtpgServer::attach_failover`].
impl FailoverProvider for ReplicaSet {
    fn after_batch(&mut self, dur: &DurabilityManager) {
        assert_eq!(self.shards, 1, "multi-shard sets are driven by the sharded server");
        self.observe(dur.logged_batches() as u64, std::iter::once(dur));
    }

    fn idle(&mut self) {
        self.join();
    }

    fn standbys_available(&self) -> usize {
        self.rows_alive()
    }

    fn promote(&mut self, dur: &DurabilityManager, upto: u64) -> Option<Executor> {
        assert_eq!(self.shards, 1, "multi-shard sets are driven by the sharded server");
        let (mut engines, _, _) = self.promote_row(upto, std::iter::once(dur))?;
        engines.pop()
    }

    fn reenlist(&mut self, device: Arc<Device>, dur: &DurabilityManager) -> bool {
        assert_eq!(self.shards, 1, "multi-shard sets are driven by the sharded server");
        self.spawn_row_with_device(
            vec![dur.checkpoint_image()],
            dur.checkpoint_batch(),
            device,
        );
        true
    }
}
