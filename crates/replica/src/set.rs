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
//! it copies the due batches' frames, damage included, out of the shards'
//! logs and sends them down the row's bounded channel. A worker thread per
//! row owns the row's executors, checks, decodes and applies.
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
//! handed an [`Applier`] at construction. [`round_applier`] is the one the
//! servers use: check and decode the shards' WAL frames and run the serving
//! topology's own round over the row (`ltpg::Topology::replayer` — a lone
//! device's prepare + finish, or the sharded lockstep round with its
//! remote view over row peers), exactly mirroring primary execution. The
//! round comes in as a closure, which keeps the dependency arrow pointing
//! the right way (`ltpg-shard` → `ltpg-replica` → `ltpg`).
//!
//! The set also owns one [`HealthMonitor`] per primary: heartbeats are
//! only probed for a server that has rows to fail over to.

use std::cell::{RefCell, RefMut};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use ltpg::{
    replay_frames, DurabilityManager, Executor, LtpgConfig, LtpgEngine, Replayer, Server, Shards,
    StandbyRows, Topology,
};
pub use ltpg::MergedWords;
use ltpg_gpu_sim::{Device, DeviceError, HostThreadLease};
use ltpg_storage::Frame;
use ltpg_telemetry::{names, Counter, Gauge, Histogram, Registry};

use crate::health::{HealthMonitor, HealthVerdict, Heartbeat};

/// Applies one logged batch — `frames[s]` is shard `s`'s WAL frame of it,
/// as shipped — to a standby row's executors (one per shard) and returns
/// the merged conflict-flag words. Owned and thread-safe: every row's
/// worker holds a clone and calls it off the serving thread.
pub type Applier =
    Arc<dyn Fn(&mut [Executor], &[Frame]) -> Result<MergedWords, ReplicaError> + Send + Sync>;

/// Batches a row's channel buffers before [`ReplicaSet::observe`] blocks.
pub const SHIP_QUEUE_DEPTH: usize = 4;

/// Why a standby row could not apply a batch.
#[derive(Debug, Clone)]
pub enum ReplicaError {
    /// The WAL has no complete frame for this batch id (log damage or a
    /// torn prefix — the row cannot safely continue).
    WalGap {
        /// The missing batch id.
        batch_id: u64,
    },
    /// A frame failed its checks or decoded to garbage.
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
    /// Consecutive heartbeat misses before a primary is fenced.
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
    /// One frame per shard, its bytes as the log held them.
    frames: Vec<Frame>,
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
            .spawn(move || {
                // The worker replays every batch the primary serves: its CPU
                // has no spare cycles for a launch's helpers.
                let _lease = HostThreadLease::take();
                replay(engines, rx, applier)
            })
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
    for Shipment { batch_id, frames } in rx {
        match applier(&mut engines, &frames) {
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
    /// One heartbeat monitor per primary.
    monitors: Vec<HealthMonitor>,
    /// The armed chaos lag hold, re-applied when the rows are rebuilt.
    lag_hold: Option<(u32, u64)>,
    /// The server-level registry: `REPLICA_*` metrics publish here.
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
    /// A pool of `cfg.standbys` rows over `shards`' current checkpoint
    /// images (every shard checkpoints at the same aligned batch id).
    /// `REPLICA_*` metrics publish on the server-level registry, the rows'
    /// own engines on a detached one. `applier` replays one logged batch
    /// on a row, for steady-state replay and promotion catch-up alike.
    pub fn over(shards: &Shards, cfg: &ReplicaConfig, applier: Applier) -> Self {
        let registry = Arc::clone(&shards.telemetry);
        let mut set = ReplicaSet {
            pool: RefCell::new(Pool { rows: Vec::new(), next_row_id: 0, demoted: Vec::new() }),
            shards: shards.execs.len(),
            engine_cfg: shards.engine_cfg.clone(),
            applier,
            monitors: (shards.execs.iter())
                .map(|_| HealthMonitor::new(cfg.heartbeat_miss_threshold, &registry))
                .collect(),
            lag_hold: None,
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
        set.spawn_rows(cfg.standbys, &shards.durability, None);
        set
    }

    /// Append `n` rows over `logs`' current checkpoint images. `device` —
    /// a recovered physical device, already revived and reset — becomes
    /// the first row's shard-0 engine: it rejoins the pool instead of the
    /// serving plane. Each row's databases are cloned straight from the
    /// logs' images.
    fn spawn_rows(&mut self, n: usize, logs: &[DurabilityManager], mut device: Option<Arc<Device>>) {
        for _ in 0..n {
            let engines = (logs.iter())
                .map(|log| {
                    let (db, cfg) = (log.checkpoint_image(), self.engine_cfg.clone());
                    let reg = Arc::clone(&self.standby_registry);
                    match device.take() {
                        Some(device) => LtpgEngine::with_device(db, cfg, reg, device).into(),
                        None => LtpgEngine::with_telemetry(db, cfg, reg).into(),
                    }
                })
                .collect();
            self.push_row(engines, logs[0].checkpoint_batch());
        }
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
    fn ship(
        &self,
        row: &mut StandbyRow,
        target: u64,
        logs: &[DurabilityManager],
        demoted: &mut Vec<Demotion>,
    ) {
        while row.shipped < target {
            let batch_id = row.shipped;
            let frames: Option<Vec<Frame>> =
                logs.iter().map(|dur| dur.log().frame(batch_id as usize)).collect();
            let Some(frames) = frames else {
                self.join_row(row, demoted);
                if row.alive() {
                    self.demote(row, batch_id, ReplicaError::WalGap { batch_id }, demoted);
                }
                return;
            };
            let Some(tx) = row.sender(&self.applier) else { return };
            let _ = tx.send(Shipment { batch_id, frames });
            row.shipped += 1;
        }
    }

    /// Every row demoted so far, oldest first. Joins first.
    pub fn demoted(&self) -> Vec<Demotion> {
        let pool = self.joined();
        pool.demoted.clone()
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
    pub fn observe(&mut self, tail: u64, logs: &[DurabilityManager]) {
        let mut pool = self.pool.borrow_mut();
        let Pool { rows, demoted, .. } = &mut *pool;
        for row in rows.iter_mut().filter(|r| r.alive()) {
            let target = tail.saturating_sub(row.lag_hold).max(row.shipped);
            self.ship(row, target, logs, demoted);
            let lag = tail.saturating_sub(row.shipped);
            self.lag_batches.record_ns(lag as f64);
            row.lag_gauge.set(lag as i64);
        }
        self.publish_pool_gauges(&pool);
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

/// The servers' [`Applier`]: `ltpg::replay_frames`, the replay recovery
/// runs, with the serving topology's round. The row's reports are
/// discarded — determinism guarantees they match the primaries' — and a
/// standby that hits a device fault is demoted, not retried.
pub fn round_applier(replay: Replayer) -> Applier {
    Arc::new(move |row, frames| {
        let round = replay_frames(row, frames, &replay)
            .map_err(|e| ReplicaError::Corrupt(e.to_string()))?;
        match round.lost {
            Some((_, e)) => Err(ReplicaError::Dead(e)),
            None => Ok(round.words),
        }
    })
}

/// Attach a warm standby pool to `server`: `cfg.standbys` rows over its
/// shards' current checkpoint images, replaying its topology's round, and
/// one heartbeat monitor per shard. On device loss (or a fenced heartbeat)
/// the server promotes the freshest row instead of degrading to the CPU
/// twin.
pub fn attach<T: Topology>(server: &mut Server<T>, cfg: &ReplicaConfig) {
    let applier = round_applier(server.topology().replayer());
    server.attach_pool(Box::new(ReplicaSet::over(server.shards(), cfg, applier)));
}

impl StandbyRows for ReplicaSet {
    fn replicate(&mut self, logs: &[DurabilityManager]) {
        self.observe(logs[0].logged_batches() as u64, logs);
    }

    /// # Panics
    ///
    /// Re-raises the panic of a worker that panicked.
    fn join(&self) {
        self.joined();
    }

    fn rows_alive(&self) -> usize {
        let pool = self.joined();
        pool.rows.iter().filter(|r| r.alive()).count()
    }

    /// Join the pool, ship the freshest alive row the batches `< upto` it
    /// has not seen (ignoring any injected lag hold), join it again and
    /// remove it from the pool. Rows that die mid-catch-up are demoted and
    /// the next-freshest row is tried.
    fn promote_row(
        &mut self,
        upto: u64,
        logs: &[DurabilityManager],
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
            self.ship(&mut row, upto, logs, &mut pool.demoted);
            let last_words = self.join_row(&mut row, &mut pool.demoted);
            self.publish_pool_gauges(&pool);
            let RowState::Parked(engines) = row.state else { continue };
            let catchup_ns = device_ns(&engines) - before_ns;
            self.failover_ns.record_ns(catchup_ns);
            self.promotions.inc();
            row.lag_gauge.set(0);
            return Some((engines, last_words, catchup_ns));
        }
    }

    fn reenlist(&mut self, device: Arc<Device>, logs: &[DurabilityManager]) {
        self.spawn_rows(1, logs, Some(device));
        self.repromotions.inc();
    }

    fn probe(&mut self, primaries: &[Executor], dropped: bool) -> Option<usize> {
        let mut fenced = None;
        for (s, exec) in primaries.iter().enumerate() {
            // A shard on its CPU twin has no device to probe.
            let Some(engine) = exec.gpu() else { continue };
            let beat = if engine.device().is_failed() {
                Heartbeat::Dead
            } else if dropped {
                Heartbeat::Dropped
            } else {
                Heartbeat::Alive
            };
            if self.monitors[s].observe(beat) == HealthVerdict::Failed && fenced.is_none() {
                fenced = Some(s);
            }
        }
        fenced
    }

    fn rearm(&mut self, shard: Option<usize>) {
        match shard {
            Some(s) => self.monitors[s].reset(),
            None => self.monitors.iter_mut().for_each(HealthMonitor::reset),
        }
    }

    /// Promotion ignores the hold and fully catches up. Out-of-range
    /// indices are ignored.
    fn hold_lag(&mut self, hold: Option<(u32, u64)>) {
        self.lag_hold = hold;
        let row = hold.and_then(|(row, _)| self.pool.get_mut().rows.get_mut(row as usize));
        if let (Some(row), Some((_, batches))) = (row, hold) {
            row.lag_hold = batches;
        }
    }

    /// The old rows hold pre-cutover slices and replay under the old
    /// rules; counting them joins their workers, and a parked row ends
    /// with its executors.
    fn rebuild(&mut self, logs: &[DurabilityManager], replay: Replayer) {
        let alive = self.rows_alive();
        *self.pool.get_mut() = Pool { rows: Vec::new(), next_row_id: 0, demoted: Vec::new() };
        self.standby_registry = Registry::new_shared();
        self.applier = round_applier(replay);
        self.spawn_rows(alive, logs, None);
        self.hold_lag(self.lag_hold);
    }

    /// The pool is joined first, so the cut is exactly what has been
    /// shipped — a function of the call sequence, not of how far a worker
    /// happened to get — and **consistent**: a row never holds a partially
    /// applied batch (batches `< cut` are applied).
    fn snapshot_read(
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

    fn demotions(&self) -> Vec<String> {
        self.demoted().iter().map(Demotion::to_string).collect()
    }
}
