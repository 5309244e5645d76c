//! The executor seam: the one place a batch meets either the (simulated)
//! GPU engine or its CPU twin.
//!
//! The server shell, degradation replay and standby replay drive batches
//! through [`Executor::prepare`] / [`Executor::finish`]; nothing above this
//! file matches on which kind of executor is serving. Dispatch happens once
//! per (shard, batch) — never per transaction.

use std::sync::Arc;

use ltpg_gpu_sim::{Device, DeviceError};
use ltpg_storage::Database;
use ltpg_telemetry::names;
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::{LtpgConfig, ServerConfig};
use crate::engine::{ExecScope, LtpgEngine, PreparedBatch};
use crate::twin::{CpuTwin, TwinPrepared};

/// The executor serving one database (a whole one, or one shard's slice).
pub enum Executor {
    /// Normal operation: the (simulated) GPU engine.
    Gpu(Box<LtpgEngine>),
    /// Degraded operation after device loss: the serial CPU twin.
    Cpu(Box<CpuTwin>),
}

impl From<LtpgEngine> for Executor {
    fn from(engine: LtpgEngine) -> Self {
        Executor::Gpu(Box::new(engine))
    }
}

impl From<CpuTwin> for Executor {
    fn from(twin: CpuTwin) -> Self {
        Executor::Cpu(Box::new(twin))
    }
}

/// Per-batch state between [`Executor::prepare`] and [`Executor::finish`],
/// with a uniform flag-word API. Lives on the stack for one tick, so the
/// size gap between the variants costs nothing and boxing would add an
/// allocation per shard per batch.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// Prepared on the GPU engine.
    Gpu(PreparedBatch),
    /// Prepared on the CPU twin.
    Cpu(TwinPrepared),
}

impl Prepared {
    /// Conflict-flag word of transaction `i` (batch order) over the cells
    /// this executor owns.
    pub fn flag_word(&self, i: usize) -> u32 {
        match self {
            Prepared::Gpu(p) => p.flag_word(i),
            Prepared::Cpu(p) => p.flag_word(i),
        }
    }

    /// Overwrite the flag word of transaction `i` with a merged verdict.
    pub fn set_flag_word(&mut self, i: usize, word: u32) {
        match self {
            Prepared::Gpu(p) => p.set_flag_word(i, word),
            Prepared::Cpu(p) => p.set_flag_word(i, word),
        }
    }

    /// Simulated nanoseconds of the prepare phase.
    pub fn sim_ns(&self) -> f64 {
        match self {
            Prepared::Gpu(p) => p.sim_ns(),
            Prepared::Cpu(p) => p.sim_ns(),
        }
    }
}

impl Executor {
    /// The serving engine behind the [`BatchEngine`] surface (name,
    /// database, per-batch telemetry).
    pub fn engine(&self) -> &dyn BatchEngine {
        match self {
            Executor::Gpu(e) => &**e,
            Executor::Cpu(e) => &**e,
        }
    }

    /// The live database.
    pub fn database(&self) -> &Database {
        self.engine().database()
    }

    /// The GPU engine, unless this executor has degraded to the twin.
    pub fn gpu(&self) -> Option<&LtpgEngine> {
        match self {
            Executor::Gpu(e) => Some(e),
            Executor::Cpu(_) => None,
        }
    }

    /// Mutable access to the GPU engine (telemetry rebinding on promotion).
    pub fn gpu_mut(&mut self) -> Option<&mut LtpgEngine> {
        match self {
            Executor::Gpu(e) => Some(e),
            Executor::Cpu(_) => None,
        }
    }

    /// Whether this executor has degraded to the CPU twin.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Executor::Cpu(_))
    }

    /// Consume the executor, returning its database.
    pub fn into_database(self) -> Database {
        match self {
            Executor::Gpu(e) => e.into_database(),
            Executor::Cpu(e) => e.into_database(),
        }
    }

    /// First half of a batch: upload, speculative execution, registration
    /// and conflict detection over the cells `scope` owns (`None` = the
    /// whole database). No database mutation happens here.
    ///
    /// A transient upload fault aborts the attempt before the device
    /// touches anything, so with a `retry` policy the batch is simply
    /// re-issued — up to `max_transient_retries` times, each pause
    /// doubling from `retry_backoff_ns` and accumulating into
    /// `backoff_ns`. The retry and backoff counters go to the engine's own
    /// registry. Replays pass `None`: a standby that faults is demoted,
    /// not nursed. An `Err` means the device is lost, or so flaky that
    /// retries ran out.
    pub fn prepare(
        &mut self,
        batch: &Batch,
        scope: Option<&ExecScope<'_>>,
        retry: Option<&ServerConfig>,
        backoff_ns: &mut f64,
    ) -> Result<Prepared, DeviceError> {
        let engine = match self {
            Executor::Cpu(twin) => return Ok(Prepared::Cpu(twin.prepare(batch, scope))),
            Executor::Gpu(engine) => engine,
        };
        let mut attempt = 0u32;
        loop {
            match (engine.try_prepare_batch(batch, scope), retry) {
                (Ok(p), _) => return Ok(Prepared::Gpu(p)),
                (Err(DeviceError::TransientTransfer { .. }), Some(retry))
                    if attempt < retry.max_transient_retries =>
                {
                    attempt += 1;
                    let reg = engine.telemetry();
                    reg.counter(names::FAULT_TRANSIENT_RETRIES).inc();
                    // Exponent clamped so arbitrarily high retry limits
                    // cannot overflow.
                    let pause = retry.retry_backoff_ns * 2f64.powi((attempt - 1).min(30) as i32);
                    *backoff_ns += pause;
                    reg.counter(names::FAULT_BACKOFF_NS).add(pause.round() as u64);
                }
                (Err(e), _) => return Err(e),
            }
        }
    }

    /// Second half of a batch: the commit rule over the (possibly merged)
    /// flag words in `prepared`, write-back of owned mutations, and the
    /// report. Returns the report — whose `sim_ns` covers both halves —
    /// and the simulated nanoseconds of this half alone.
    ///
    /// Download retries happen in place inside the engine; an `Err` here
    /// is device loss, possibly with the database partly written (the
    /// batch is already logged, so a successor rebuilds from the WAL).
    ///
    /// # Panics
    ///
    /// If `prepared` came from the other kind of executor — prepare and
    /// finish of one batch must run on the same executor.
    pub fn finish(
        &mut self,
        batch: &Batch,
        prepared: Prepared,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<(BatchReport, f64), DeviceError> {
        match (self, prepared) {
            (Executor::Gpu(e), Prepared::Gpu(p)) => {
                let prep_ns = p.sim_ns();
                let r = e.try_finish_batch(batch, p, scope)?;
                Ok((r.report, r.stats.total_ns() - prep_ns))
            }
            (Executor::Cpu(e), Prepared::Cpu(p)) => Ok((e.finish(batch, p, scope), e.finish_ns())),
            _ => panic!("prepared state does not match the executor that must finish it"),
        }
    }

    /// Re-promotion: a degraded executor hands its live database to a GPU
    /// engine over the recovered `device` (already revived and reset).
    /// Determinism makes the swap invisible. No-op on a GPU executor.
    pub fn repromote(
        &mut self,
        cfg: LtpgConfig,
        telemetry: Arc<ltpg_telemetry::Registry>,
        device: Device,
    ) {
        if let Executor::Cpu(twin) = self {
            let db = twin.take_database();
            *self = LtpgEngine::with_device(db, cfg, telemetry, device).into();
        }
    }
}

/// The physical devices a server has lost, kept so a timed recovery
/// ([`ReplicaChaos::device_recovers_after_batches`](crate::ReplicaChaos))
/// can revive and re-enlist each of them — a list, not a slot, because a
/// second loss inside the outage window must not forget the first. A
/// device comes here from the executor a failover replaced.
#[derive(Default)]
pub struct LostDevices {
    /// `(shard, device, stats.batches at the moment of loss)`, oldest first.
    lost: Vec<(usize, Device, u64)>,
}

impl LostDevices {
    /// Keep the device of `exec`, which served `shard` until its loss
    /// after `at_batch` executed batches. A CPU twin has none to keep.
    pub fn note(&mut self, shard: usize, exec: Executor, at_batch: u64) {
        if let Executor::Gpu(engine) = exec {
            self.lost.push((shard, engine.into_device(), at_batch));
        }
    }

    /// The `(shard, device)` pairs whose outage has ended once `batches`
    /// have executed, oldest loss first, each revived and reset for reuse;
    /// the rest keep waiting. With `recovers_after == None` (no timed
    /// recovery armed — every fault-free tick) this returns at once.
    pub fn recovered(&mut self, recovers_after: Option<u64>, batches: u64) -> Vec<(usize, Device)> {
        let Some(after) = recovers_after else { return Vec::new() };
        let (back, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.lost)
            .into_iter()
            .partition(|(_, _, lost_at)| batches >= lost_at.saturating_add(after));
        self.lost = waiting;
        back.into_iter()
            .map(|(shard, mut device, _)| {
                device.revive();
                device.reset_for_reuse();
                (shard, device)
            })
            .collect()
    }
}
