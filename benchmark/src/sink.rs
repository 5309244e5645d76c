//! A [`TickSink`] wrapper that times the two calls that do server work.
//!
//! `FrontEnd` owns its sink, so the only way to see how much of an
//! `offer`/`finish` call was spent below the front-end — without touching
//! product code — is to hand it a sink that keeps its own clock. The
//! wrapper forwards every trait method unchanged; `submit_batch` and
//! `tick_outcome` are timed (and recorded as spans when tracing is on), so
//! front-end self time is the outer call's wall minus the wall recorded
//! here.

use std::sync::Arc;
use std::time::Instant;

use ltpg::LtpgServer;
use ltpg_front::{TickOutcome, TickSink};
use ltpg_shard::ShardedServer;
use ltpg_telemetry::Registry;
use ltpg_txn::Txn;

use crate::spans::SharedRecorder;

/// What the wrapper needs to know beyond [`TickSink`]: how many batches the
/// server has executed, to tell checkpointing ticks from ordinary ones.
pub trait BatchCount {
    fn batches_executed(&self) -> u64;
}

impl BatchCount for LtpgServer {
    fn batches_executed(&self) -> u64 {
        self.stats().batches
    }
}

impl BatchCount for ShardedServer {
    fn batches_executed(&self) -> u64 {
        self.stats().batches
    }
}

/// One timed `tick_outcome` call.
#[derive(Debug, Clone, Copy)]
pub struct TickSample {
    pub wall_ns: u64,
    /// Server batch count after the tick (0 for idle/delay-only ticks that
    /// executed nothing).
    pub batch_no: u64,
    /// Whether the tick executed a batch.
    pub executed: bool,
}

/// Everything the wrapper observed.
#[derive(Debug, Default)]
pub struct SinkLog {
    pub ticks: Vec<TickSample>,
    pub submit_wall_ns: u64,
    pub submitted_txns: u64,
    pub tick_wall_ns: u64,
    /// Σ `TickOutcome::sim_ns`, for the fleet closure check against the
    /// server's own `stats().sim_ns`.
    pub sim_ns: f64,
    /// Per-tick `sim_ns` of ticks that executed a batch.
    pub tick_sim_ns: Vec<f64>,
    /// FNV fold of every tick's committed TIDs, in order.
    pub history_digest: u64,
}

pub struct TimedSink<S> {
    inner: S,
    rec: SharedRecorder,
    pub log: SinkLog,
}

impl<S: TickSink + BatchCount> TimedSink<S> {
    pub fn new(inner: S, rec: SharedRecorder) -> Self {
        let log = SinkLog {
            history_digest: crate::FNV_OFFSET,
            ..SinkLog::default()
        };
        TimedSink { inner, rec, log }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TickSink + BatchCount> TickSink for TimedSink<S> {
    fn submit_batch(&mut self, txns: Vec<Txn>) {
        self.log.submitted_txns += txns.len() as u64;
        self.rec.borrow_mut().enter("server.submit_batch");
        let t = Instant::now();
        self.inner.submit_batch(txns);
        self.log.submit_wall_ns += t.elapsed().as_nanos() as u64;
        self.rec.borrow_mut().exit();
    }

    fn tick_outcome(&mut self) -> Option<TickOutcome> {
        let before = self.inner.batches_executed();
        {
            let mut rec = self.rec.borrow_mut();
            rec.unit = self.log.ticks.len() as u32;
            rec.enter("server.tick");
        }
        let t = Instant::now();
        let out = self.inner.tick_outcome();
        let wall_ns = t.elapsed().as_nanos() as u64;
        self.rec.borrow_mut().exit();
        self.log.tick_wall_ns += wall_ns;
        if let Some(o) = &out {
            let after = self.inner.batches_executed();
            let executed = after > before;
            self.log.ticks.push(TickSample {
                wall_ns,
                batch_no: if executed { after } else { 0 },
                executed,
            });
            self.log.sim_ns += o.sim_ns;
            if executed {
                self.log.tick_sim_ns.push(o.sim_ns);
            }
            let mut h = crate::fnv_u64(self.log.history_digest, u64::MAX);
            for tid in &o.committed {
                h = crate::fnv_u64(h, tid.0);
            }
            self.log.history_digest = h;
        }
        out
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn next_tid(&self) -> u64 {
        self.inner.next_tid()
    }

    fn fault_delay_ns(&self) -> f64 {
        self.inner.fault_delay_ns()
    }

    fn registry(&self) -> Arc<Registry> {
        self.inner.registry()
    }
}
