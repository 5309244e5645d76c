//! The dispatcher stage: feeds sealed batches to a server and accounts
//! end-to-end latency on two engine clocks.
//!
//! **Two clocks.** The dispatcher tracks when the engine frees up on a
//! *steady* clock (`free_ns`, excluding fault-induced delay: retry
//! backoff pauses, in-place download-retry penalties and the catch-up of a
//! standby promotion) and an *actual*
//! clock (`free_actual_ns`, including it). Admission control,
//! backpressure, and catch-up ticking read the steady clock, so injected
//! device transients — which are absorbed by retry and never change
//! commit decisions — also never change seal boundaries, shed decisions,
//! or batch composition. Latency histograms read the actual clock, so
//! transients are visible where they belong: in the tail.
//!
//! **TID mirroring.** Servers assign fresh TIDs monotonically in inbox
//! FIFO order, so the dispatcher mirrors the server's TID counter at
//! submission time ([`TickSink::next_tid`]) and maps each expected TID to
//! its arrival timestamp. Commit notifications then resolve to arrivals
//! without any side channel through the engine. Aborted transactions keep
//! their sticky TID and stay mapped until they eventually commit.

use std::collections::HashMap;
use std::sync::Arc;

use ltpg::{Server, Topology};
use ltpg_shard::ShardedServer;
use ltpg_telemetry::{names, Counter, Histogram, Registry};
use ltpg_txn::{Tid, Txn};

use crate::stats::FrontStats;

/// What one server tick did, in a server-shape-independent form.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// TIDs committed this tick (ascending).
    pub committed: Vec<Tid>,
    /// TIDs aborted this tick (scheduled for re-execution).
    pub aborted: Vec<Tid>,
    /// Simulated tick latency, ns (includes retry backoff).
    pub sim_ns: f64,
}

/// The server shapes the dispatcher can feed. Implemented for the server
/// shell over any topology ([`ltpg::LtpgServer`] is one) and for
/// [`ShardedServer`].
pub trait TickSink {
    /// Enqueue transactions into the server inbox (FIFO).
    fn submit_batch(&mut self, txns: Vec<Txn>);
    /// Run one tick; `None` when fully idle.
    fn tick_outcome(&mut self) -> Option<TickOutcome>;
    /// Transactions waiting inside the server (inbox + requeued aborts).
    fn queued(&self) -> usize;
    /// The TID the next fresh admission will receive (see module docs).
    fn next_tid(&self) -> u64;
    /// Cumulative simulated fault-induced delay charged so far, ns:
    /// retry backoff pauses, in-place download-retry penalties and standby
    /// promotion catch-up. The dispatcher subtracts its per-tick delta
    /// from the steady clock.
    fn fault_delay_ns(&self) -> f64;
    /// The server's metrics registry.
    fn registry(&self) -> Arc<Registry>;
}

impl<T: Topology> TickSink for Server<T> {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        self.submit_all(txns);
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        self.tick().map(|s| TickOutcome {
            committed: s.committed,
            aborted: s.aborted,
            sim_ns: s.sim_ns,
        })
    }

    fn queued(&self) -> usize {
        self.pending()
    }

    fn next_tid(&self) -> u64 {
        Server::next_tid(self)
    }

    fn fault_delay_ns(&self) -> f64 {
        Server::fault_delay_ns(self)
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.telemetry())
    }
}

/// Forwards to the shell under the sharded server.
impl TickSink for ShardedServer {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        (**self).submit_batch(txns)
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        (**self).tick_outcome()
    }

    fn queued(&self) -> usize {
        (**self).queued()
    }

    fn next_tid(&self) -> u64 {
        (**self).next_tid()
    }

    fn fault_delay_ns(&self) -> f64 {
        (**self).fault_delay_ns()
    }

    fn registry(&self) -> Arc<Registry> {
        (**self).registry()
    }
}

/// Feeds sealed batches into a [`TickSink`], one tick per seal, and
/// resolves commit notifications back to arrival timestamps.
pub struct Dispatcher<S: TickSink> {
    sink: S,
    next_tid: u64,
    /// Expected TID → simulated arrival ns, for every dispatched but not
    /// yet committed transaction (includes requeued aborts).
    in_flight: HashMap<u64, u64>,
    free_ns: f64,
    free_actual_ns: f64,
    ticks: u64,
    outcomes: Option<Vec<TickOutcome>>,
    /// `front.*` handles, resolved once: these are hit per batch member
    /// and per commit.
    queue_wait: Arc<Histogram>,
    e2e: Arc<Histogram>,
    committed: Arc<Counter>,
}

impl<S: TickSink> Dispatcher<S> {
    /// Wrap a server. With `record_outcomes`, every tick's
    /// [`TickOutcome`] is buffered for later inspection (the QA
    /// differential runner replays them tick-for-tick against a directly
    /// fed server). Its `front.*` metrics are registered in `reg`.
    pub fn new(sink: S, record_outcomes: bool, reg: &Registry) -> Self {
        let next_tid = sink.next_tid();
        Dispatcher {
            sink,
            next_tid,
            in_flight: HashMap::new(),
            free_ns: 0.0,
            free_actual_ns: 0.0,
            ticks: 0,
            outcomes: record_outcomes.then(Vec::new),
            queue_wait: reg.histogram(names::FRONT_QUEUE_WAIT_NS),
            e2e: reg.histogram(names::FRONT_E2E_NS),
            committed: reg.counter(names::FRONT_COMMITTED),
        }
    }

    /// Simulated ns of engine backlog at `now_ns` on the steady
    /// (backoff-excluded) clock: how far in the future the engine frees up.
    pub fn backlog_ns(&self, now_ns: u64) -> u64 {
        (self.free_ns - now_ns as f64).max(0.0) as u64
    }

    /// Submit a sealed batch's members (recording queue-wait per member)
    /// and run exactly one tick at `at_ns`.
    pub fn dispatch(
        &mut self,
        members: Vec<crate::streamer::Pending>,
        at_ns: u64,
        stats: &mut FrontStats,
    ) {
        let mut txns = Vec::with_capacity(members.len());
        for p in members {
            self.queue_wait.record(at_ns.saturating_sub(p.arrive_ns));
            self.in_flight.insert(self.next_tid, p.arrive_ns);
            self.next_tid += 1;
            txns.push(p.txn);
        }
        self.sink.submit_batch(txns);
        let ticked = self.tick_at(at_ns, stats);
        debug_assert!(ticked, "a tick after a non-empty submit cannot be idle");
    }

    /// Run one tick at simulated time `at_ns`, advancing both engine
    /// clocks and resolving commits. Returns `false` when the server was
    /// fully idle (no tick happened).
    pub fn tick_at(&mut self, at_ns: u64, stats: &mut FrontStats) -> bool {
        let fault_before = self.sink.fault_delay_ns();
        let Some(out) = self.sink.tick_outcome() else {
            return false;
        };
        let fault_delay = (self.sink.fault_delay_ns() - fault_before).max(0.0);
        let steady_ns = (out.sim_ns - fault_delay).max(0.0);
        self.free_ns = self.free_ns.max(at_ns as f64) + steady_ns;
        self.free_actual_ns = self.free_actual_ns.max(at_ns as f64) + out.sim_ns;
        for tid in &out.committed {
            if let Some(arrive) = self.in_flight.remove(&tid.0) {
                self.e2e.record_ns((self.free_actual_ns - arrive as f64).max(0.0));
                stats.committed += 1;
                self.committed.inc();
            }
        }
        stats.abort_events += out.aborted.len() as u64;
        self.ticks += 1;
        if let Some(buf) = self.outcomes.as_mut() {
            buf.push(out);
        }
        true
    }

    /// Service queued server work as simulated time passes: while the
    /// engine frees up before `now_ns` (steady clock) and the server still
    /// holds work, run ticks back-to-back at the engine's own free time.
    ///
    /// Without this, a tick whose batch assembly was partly occupied by
    /// requeued aborts leaves fresh inbox work stranded until the *next*
    /// seal, and the backlog grows without bound under open-loop load.
    /// Gating on the steady clock keeps the tick pattern — and therefore
    /// batch composition — invariant under injected device transients.
    /// Does nothing when time has not advanced past the engine's free
    /// point, so a schedule driven entirely at one instant (the QA
    /// lockstep runs) keeps its exact one-tick-per-seal sequence.
    pub fn catch_up(&mut self, now_ns: u64, stats: &mut FrontStats) {
        while self.sink.queued() > 0 && self.free_ns < now_ns as f64 {
            let before = self.free_ns;
            if !self.tick_at(0, stats) {
                break;
            }
            if self.free_ns <= before {
                // A zero-cost tick can only be spinning delayed requeue
                // slots closer to due; leave those to later dispatches
                // rather than looping here.
                break;
            }
        }
    }

    /// Dispatched-but-uncommitted transactions (server queues plus
    /// requeued aborts).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Ticks driven so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// When the engine frees up on the steady (backoff-excluded) clock.
    pub fn engine_free_ns(&self) -> f64 {
        self.free_ns
    }

    /// When the engine frees up on the actual clock (backoff included).
    pub fn engine_free_actual_ns(&self) -> f64 {
        self.free_actual_ns
    }

    /// Take the buffered tick outcomes (empty unless constructed with
    /// `record_outcomes`).
    pub fn take_outcomes(&mut self) -> Vec<TickOutcome> {
        self.outcomes.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The wrapped server.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped server, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }
}

impl<S: TickSink> std::fmt::Debug for Dispatcher<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("in_flight", &self.in_flight.len())
            .field("ticks", &self.ticks)
            .field("free_ns", &self.free_ns)
            .field("free_actual_ns", &self.free_actual_ns)
            .finish()
    }
}
