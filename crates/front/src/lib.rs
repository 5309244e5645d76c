//! Async ingestion front-end for LTPG (`ltpg-front`).
//!
//! The engine crates consume fully-formed batches; this crate is the layer
//! that *forms* them under load. An open-loop stream of per-client
//! submissions flows through four stages:
//!
//! 1. **Streamer** ([`streamer`]) — bounded per-client channels drained
//!    with deterministic round-robin fair queuing.
//! 2. **Admission** ([`admission`]) — per-client token-bucket rate limits
//!    plus global queue bounds; everything rejected is counted on an
//!    explicit shed path.
//! 3. **Batcher** ([`batcher`]) — deadline- *and* size-triggered sealing
//!    on the simulated clock. No wall-clock input anywhere: sealed
//!    boundaries are a deterministic function of seed + arrival schedule.
//! 4. **Dispatcher** ([`dispatch`]) — feeds sealed batches to
//!    [`LtpgServer`](ltpg::LtpgServer) or
//!    [`ShardedServer`](ltpg_shard::ShardedServer) ticks and resolves
//!    commits back to arrivals for end-to-end latency.
//!
//! The PR-5 conservation invariant extends end-to-end across all stages:
//! `committed + pending + shed == submitted`, where `pending` spans client
//! channels, the open batch, and dispatched-but-uncommitted work
//! (including aborted transactions awaiting deterministic re-execution).
//! [`FrontEnd::conserves`] checks it; `FRONT_*` telemetry mirrors every
//! bucket.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod batcher;
pub mod dispatch;
pub mod fleet;
pub mod stats;
pub mod streamer;

use std::sync::Arc;

use ltpg_telemetry::{names, Counter, Gauge, Histogram, Registry};
use ltpg_txn::Txn;

pub use admission::{Admission, RateLimit};
pub use batcher::{Batcher, SealTrigger, SealedBatch};
pub use dispatch::{Dispatcher, TickOutcome, TickSink};
pub use fleet::{Arrival, Fleet, FleetConfig};
pub use stats::FrontStats;
pub use streamer::{Pending, Streamer};

/// Front-end policy knobs. All times are simulated ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontConfig {
    /// Target batch size (size trigger).
    pub batch_size: usize,
    /// Maximum simulated ns the oldest member of an open batch may wait
    /// before the batch seals (deadline trigger).
    pub seal_deadline_ns: u64,
    /// Per-client channel capacity; a full channel sheds on the
    /// backpressure path.
    pub client_queue_cap: usize,
    /// Global bound on transactions queued ahead of sealing (channels +
    /// open batch); beyond it, arrivals shed on the queue-full path.
    pub max_queued: usize,
    /// The batcher pulls from the channels only while the engine backlog
    /// (steady clock) is strictly below this, letting queues fill and
    /// bounds bite under overload. `u64::MAX` disables the gate; `0`
    /// stops pulling entirely (a test hook).
    pub max_backlog_ns: u64,
    /// Optional per-client rate limit.
    pub per_client_rate: Option<RateLimit>,
    /// Optional cap on how long a submission may wait in its channel
    /// before it is shed on the timed-out path.
    pub queue_timeout_ns: Option<u64>,
    /// Buffer every tick's [`TickOutcome`] for differential replay.
    pub record_outcomes: bool,
}

impl FrontConfig {
    /// A permissive config: generous bounds, no rate limit, no timeout.
    pub fn new(batch_size: usize, seal_deadline_ns: u64) -> Self {
        FrontConfig {
            batch_size,
            seal_deadline_ns,
            client_queue_cap: 1 << 16,
            max_queued: 1 << 20,
            max_backlog_ns: u64::MAX,
            per_client_rate: None,
            queue_timeout_ns: None,
            record_outcomes: false,
        }
    }

    /// A config that can never shed: unbounded queues, no rate limit, no
    /// timeout, no backlog gate, and a deadline far beyond any schedule.
    /// Used by the QA differential runner to prove batch *formation* alone
    /// never changes commit decisions.
    pub fn lossless(batch_size: usize) -> Self {
        FrontConfig {
            batch_size,
            seal_deadline_ns: u64::MAX / 4,
            client_queue_cap: usize::MAX,
            max_queued: usize::MAX,
            max_backlog_ns: u64::MAX,
            per_client_rate: None,
            queue_timeout_ns: None,
            record_outcomes: true,
        }
    }
}

/// The pipeline's own `front.*` metric handles, resolved once: `offer` and
/// `pump` run per arrival, and a by-name registry lookup is a lock, a map
/// walk and an `Arc` clone.
struct FrontMetrics {
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    shed_rate_limited: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_backpressure: Arc<Counter>,
    shed_timed_out: Arc<Counter>,
    batches_sealed: Arc<Counter>,
    seals_size: Arc<Counter>,
    seals_deadline: Arc<Counter>,
    seals_drain: Arc<Counter>,
    batch_fill: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
}

impl FrontMetrics {
    fn new(reg: &Registry) -> Self {
        FrontMetrics {
            submitted: reg.counter(names::FRONT_SUBMITTED),
            admitted: reg.counter(names::FRONT_ADMITTED),
            shed_rate_limited: reg.counter(names::FRONT_SHED_RATE_LIMITED),
            shed_queue_full: reg.counter(names::FRONT_SHED_QUEUE_FULL),
            shed_backpressure: reg.counter(names::FRONT_SHED_BACKPRESSURE),
            shed_timed_out: reg.counter(names::FRONT_SHED_TIMED_OUT),
            batches_sealed: reg.counter(names::FRONT_BATCHES_SEALED),
            seals_size: reg.counter(names::FRONT_SEALS_SIZE),
            seals_deadline: reg.counter(names::FRONT_SEALS_DEADLINE),
            seals_drain: reg.counter(names::FRONT_SEALS_DRAIN),
            batch_fill: reg.histogram(names::FRONT_BATCH_FILL),
            queue_depth: reg.gauge(names::FRONT_QUEUE_DEPTH),
        }
    }
}

/// The assembled pipeline: streamer → admission → batcher → dispatcher
/// over a server `S`. Drive it with [`offer`](Self::offer) per arrival,
/// [`advance_to`](Self::advance_to) to pass idle simulated time, and
/// [`finish`](Self::finish) to flush and drain at end of run.
pub struct FrontEnd<S: TickSink> {
    cfg: FrontConfig,
    streamer: Streamer,
    admission: Admission,
    batcher: Batcher,
    dispatcher: Dispatcher<S>,
    stats: FrontStats,
    registry: Arc<Registry>,
    metrics: FrontMetrics,
    now_ns: u64,
}

impl<S: TickSink> FrontEnd<S> {
    /// Wrap a server with the given policy.
    pub fn new(sink: S, cfg: FrontConfig) -> Self {
        let registry = Registry::new_shared();
        FrontEnd {
            streamer: Streamer::new(cfg.client_queue_cap),
            admission: Admission::new(cfg.per_client_rate),
            batcher: Batcher::new(cfg.batch_size, cfg.seal_deadline_ns),
            dispatcher: Dispatcher::new(sink, cfg.record_outcomes, &registry),
            stats: FrontStats::default(),
            metrics: FrontMetrics::new(&registry),
            registry,
            now_ns: 0,
            cfg,
        }
    }

    /// One client submission at simulated time `at_ns` (times before the
    /// pipeline's current clock are clamped forward — the clock never runs
    /// backwards). Returns whether the transaction was admitted; `false`
    /// means it was shed (the exact path is counted in stats/telemetry).
    pub fn offer(&mut self, client: u32, at_ns: u64, txn: Txn) -> bool {
        let now = self.now_ns.max(at_ns);
        self.advance_to(now);
        self.stats.submitted += 1;
        self.metrics.submitted.inc();
        if !self.admission.allow(client, now) {
            self.stats.shed_rate_limited += 1;
            self.metrics.shed_rate_limited.inc();
            return false;
        }
        if self.front_queued() >= self.cfg.max_queued {
            self.stats.shed_queue_full += 1;
            self.metrics.shed_queue_full.inc();
            return false;
        }
        if !self.streamer.try_send(client, now, txn) {
            self.stats.shed_backpressure += 1;
            self.metrics.shed_backpressure.inc();
            return false;
        }
        self.stats.admitted += 1;
        self.metrics.admitted.inc();
        self.pump(now);
        true
    }

    /// Advance the simulated clock to `target_ns`, firing any deadline
    /// seals that fall on the way.
    pub fn advance_to(&mut self, target_ns: u64) {
        while let Some(d) = self.batcher.deadline_at() {
            if d > target_ns {
                break;
            }
            // Time reaches the deadline: pump whatever unblocked by then
            // (which may size-seal and start a *new* open batch whose own
            // deadline is later — re-check before deadline-sealing it).
            self.pump(d);
            if self.batcher.deadline_at().is_some_and(|dd| dd <= d) {
                self.seal_and_dispatch(d, SealTrigger::Deadline);
            }
        }
        self.now_ns = self.now_ns.max(target_ns);
        self.pump(self.now_ns);
    }

    /// Flush the channels and open batch (ignoring the backlog gate) and
    /// drain the server, at the pipeline's current simulated time. Bounded
    /// by `max_ticks` drain ticks.
    pub fn finish(&mut self, max_ticks: usize) {
        let now = self.now_ns;
        while let Some(p) = self.streamer.pop_fair() {
            if let Some(sealed) = self.batcher.push(p, now) {
                self.dispatch_sealed(sealed);
            }
        }
        self.seal_and_dispatch(now, SealTrigger::Drain);
        for _ in 0..max_ticks {
            if !self.dispatcher.tick_at(now, &mut self.stats) {
                break;
            }
        }
        self.update_depth_gauge();
    }

    /// Move work from channels into the open batch while the engine
    /// backlog allows, sealing on size as batches fill.
    fn pump(&mut self, now_ns: u64) {
        self.dispatcher.catch_up(now_ns, &mut self.stats);
        if let Some(timeout) = self.cfg.queue_timeout_ns {
            let shed = self.streamer.shed_expired(now_ns.saturating_sub(timeout));
            if shed > 0 {
                self.stats.shed_timed_out += shed;
                self.metrics.shed_timed_out.add(shed);
            }
        }
        while self.dispatcher.backlog_ns(now_ns) < self.cfg.max_backlog_ns {
            let Some(p) = self.streamer.pop_fair() else { break };
            if let Some(sealed) = self.batcher.push(p, now_ns) {
                self.dispatch_sealed(sealed);
            }
        }
        self.update_depth_gauge();
    }

    /// Seal the open batch (if any) at `at_ns` and dispatch it.
    fn seal_and_dispatch(&mut self, at_ns: u64, trigger: SealTrigger) {
        if let Some(sealed) = self.batcher.seal(at_ns, trigger) {
            self.dispatch_sealed(sealed);
        }
    }

    fn dispatch_sealed(&mut self, sealed: SealedBatch) {
        self.stats.batches_sealed += 1;
        self.metrics.batches_sealed.inc();
        let (field, counter) = match sealed.trigger {
            SealTrigger::Size => (&mut self.stats.seals_size, &self.metrics.seals_size),
            SealTrigger::Deadline => {
                (&mut self.stats.seals_deadline, &self.metrics.seals_deadline)
            }
            SealTrigger::Drain => (&mut self.stats.seals_drain, &self.metrics.seals_drain),
        };
        *field += 1;
        counter.inc();
        self.metrics.batch_fill.record(sealed.txns.len() as u64);
        self.dispatcher.dispatch(sealed.txns, sealed.at_ns, &mut self.stats);
    }

    fn update_depth_gauge(&self) {
        self.metrics.queue_depth.set(self.front_queued() as i64);
    }

    /// Transactions queued ahead of sealing (channels + open batch).
    pub fn front_queued(&self) -> usize {
        self.streamer.queued() + self.batcher.open_len()
    }

    /// Transactions anywhere in flight: channels, open batch, and
    /// dispatched-but-uncommitted (including requeued aborts).
    pub fn pending(&self) -> usize {
        self.front_queued() + self.dispatcher.in_flight()
    }

    /// The end-to-end conservation invariant (see [`FrontStats::conserves`]).
    pub fn conserves(&self) -> bool {
        self.stats.conserves(self.pending())
    }

    /// Cumulative front-end statistics.
    pub fn stats(&self) -> &FrontStats {
        &self.stats
    }

    /// The front-end's own metrics registry (`front.*` family). The
    /// wrapped server keeps its separate registry.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Digest over every sealed batch boundary (see
    /// [`Batcher::seal_digest`]).
    pub fn seal_digest(&self) -> u64 {
        self.batcher.seal_digest()
    }

    /// The pipeline's current simulated time, ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Distinct clients seen so far.
    pub fn clients(&self) -> usize {
        self.streamer.clients()
    }

    /// The dispatcher (engine clocks, tick counts).
    pub fn dispatcher(&self) -> &Dispatcher<S> {
        &self.dispatcher
    }

    /// Take the buffered tick outcomes (see [`FrontConfig::record_outcomes`]).
    pub fn take_outcomes(&mut self) -> Vec<TickOutcome> {
        self.dispatcher.take_outcomes()
    }

    /// The wrapped server.
    pub fn sink(&self) -> &S {
        self.dispatcher.sink()
    }

    /// The wrapped server, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        self.dispatcher.sink_mut()
    }
}

impl<S: TickSink> std::fmt::Debug for FrontEnd<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("now_ns", &self.now_ns)
            .field("front_queued", &self.front_queued())
            .field("stats", &self.stats)
            .field("dispatcher", &self.dispatcher)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg::{LtpgConfig, LtpgServer, ServerConfig};
    use ltpg_storage::{ColId, Database, TableBuilder, TableId};
    use ltpg_txn::{IrOp, ProcId, Src, Tid};

    const T: TableId = TableId(0);

    fn db(keys: i64) -> Database {
        let mut db = Database::new();
        let t = db.add_table(TableBuilder::new("T").columns(["a"]).capacity(1024).build());
        assert_eq!(t, T);
        for k in 0..keys {
            db.table_mut(T).insert(k, &[k]).unwrap();
        }
        db
    }

    fn write_txn(key: i64, val: i64) -> Txn {
        Txn::new(
            ProcId(0),
            vec![],
            vec![IrOp::Update { table: T, key: Src::Const(key), col: ColId(0), val: Src::Const(val) }],
        )
    }

    fn server(batch: usize) -> LtpgServer {
        LtpgServer::new(
            db(64),
            LtpgConfig::default(),
            ServerConfig { batch_size: batch, pipelined: false, ..ServerConfig::default() },
        )
    }

    #[test]
    fn size_sealing_commits_everything_and_conserves() {
        let mut fe = FrontEnd::new(server(8), FrontConfig::new(8, 1_000_000));
        for i in 0..40i64 {
            assert!(fe.offer((i % 5) as u32, i as u64 * 100, write_txn(i % 64, i)));
        }
        fe.finish(64);
        let s = fe.stats().clone();
        assert_eq!(s.submitted, 40);
        assert_eq!(s.admitted, 40);
        assert_eq!(s.committed, 40);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.seals_size, 5, "40 txns / batch 8 = 5 size seals");
        assert!(fe.conserves());
        assert_eq!(fe.pending(), 0);
    }

    #[test]
    fn deadline_seals_partial_batches() {
        let mut fe = FrontEnd::new(server(64), FrontConfig::new(64, 1_000));
        fe.offer(0, 0, write_txn(1, 1));
        fe.offer(1, 200, write_txn(2, 2));
        // Nothing sealed yet: under size, before deadline.
        assert_eq!(fe.stats().batches_sealed, 0);
        fe.advance_to(5_000);
        let s = fe.stats();
        assert_eq!(s.seals_deadline, 1, "deadline at t=1000 must have sealed");
        assert_eq!(s.committed, 2);
        assert!(fe.conserves());
    }

    #[test]
    fn rate_limit_and_channel_caps_shed_deterministically() {
        let mut cfg = FrontConfig::new(4, 1_000_000);
        cfg.client_queue_cap = 2;
        cfg.max_backlog_ns = 0; // engine always "busy": nothing leaves the channels
        cfg.per_client_rate = Some(RateLimit { rate_tps: 1.0, burst: 1.0 });
        let mut fe = FrontEnd::new(server(4), cfg);
        assert!(fe.offer(0, 0, write_txn(1, 1)));
        assert!(!fe.offer(0, 0, write_txn(2, 2)), "second burst-1 arrival rate-limits");
        let s = fe.stats();
        assert_eq!(s.shed_rate_limited, 1);
        assert!(fe.conserves());
    }

    #[test]
    fn timeout_sheds_stale_queued_work() {
        let mut cfg = FrontConfig::new(4, u64::MAX / 4);
        cfg.max_backlog_ns = 0; // hold everything in the channels
        cfg.queue_timeout_ns = Some(1_000);
        let mut fe = FrontEnd::new(server(4), cfg);
        fe.offer(0, 0, write_txn(1, 1));
        fe.offer(0, 10_000, write_txn(2, 2));
        let s = fe.stats();
        assert_eq!(s.shed_timed_out, 1, "t=0 arrival outlived the 1µs timeout");
        assert!(fe.conserves());
    }

    #[test]
    fn fair_queuing_prevents_hog_monopoly() {
        // A hog floods its channel while the backlog gate holds the pump
        // shut; a polite client submits once. When the gate opens, the
        // round-robin drain puts the polite txn in the *first* sealed
        // batch instead of behind the hog's backlog.
        let mut cfg = FrontConfig::new(4, u64::MAX / 4);
        cfg.max_backlog_ns = 0;
        cfg.record_outcomes = true;
        let mut fe = FrontEnd::new(server(4), cfg);
        for i in 0..8i64 {
            fe.offer(0, 0, write_txn(i, i));
        }
        fe.offer(1, 0, write_txn(60, 60));
        assert_eq!(fe.front_queued(), 9, "gate must hold everything upstream");
        fe.cfg.max_backlog_ns = u64::MAX;
        fe.advance_to(1);
        // Drain order is hog, polite, hog, hog — the polite txn is the
        // second fresh admission, so it carries TID 2.
        let outcomes = fe.take_outcomes();
        assert!(
            outcomes.first().is_some_and(|o| o.committed.contains(&Tid(2))),
            "polite client's txn must commit in the first batch: {outcomes:?}"
        );
        assert!(fe.conserves());
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let mut fe = FrontEnd::new(server(8), FrontConfig::new(8, 1_000));
        for i in 0..20i64 {
            fe.offer((i % 3) as u32, i as u64 * 50, write_txn(i % 64, i));
        }
        fe.advance_to(10_000);
        fe.finish(32);
        let reg = fe.telemetry();
        let s = fe.stats();
        assert_eq!(reg.counter_value(names::FRONT_SUBMITTED), s.submitted);
        assert_eq!(reg.counter_value(names::FRONT_ADMITTED), s.admitted);
        assert_eq!(reg.counter_value(names::FRONT_COMMITTED), s.committed);
        assert_eq!(reg.counter_value(names::FRONT_BATCHES_SEALED), s.batches_sealed);
        let shed_total: u64 =
            names::FRONT_SHED_COUNTERS.iter().map(|n| reg.counter_value(n)).sum();
        assert_eq!(shed_total, s.shed());
        assert_eq!(reg.histogram(names::FRONT_E2E_NS).snapshot().count, s.committed);
    }
}
