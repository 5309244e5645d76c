//! The executor seam: the one place a batch meets the engine.
//!
//! The server shell, degradation replay and standby replay drive batches
//! through [`Executor::prepare`] / [`Executor::finish`]. Every executor is
//! an [`LtpgEngine`], so every batch — live, replayed, recovered — is
//! decided by one procedure. A *degraded* executor is the CPU fallback: an
//! engine on a replacement device with no fault plan, whose batches are
//! costed by the CPU model instead of the device.

use std::sync::Arc;

use ltpg_baselines::CpuCostModel;
use ltpg_gpu_sim::{Device, DeviceError};
use ltpg_storage::Database;
use ltpg_telemetry::names;
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::{LtpgConfig, ServerConfig};
use crate::conflict::LogSizing;
use crate::engine::{ExecScope, LtpgEngine, PreparedBatch};

/// The executor serving one database (a whole one, or one shard's slice).
pub struct Executor {
    engine: Box<LtpgEngine>,
    /// The CPU fallback after device loss: no device to probe, fail or arm,
    /// and the CPU model's cost in place of the device's.
    degraded: bool,
}

impl From<LtpgEngine> for Executor {
    fn from(engine: LtpgEngine) -> Self {
        Executor { engine: Box::new(engine), degraded: false }
    }
}

/// What the CPU fallback charges for `batch` beyond its phase barriers:
/// every op's index probe, read and write, spread over the worker pool.
fn cpu_work_ns(cpu: &CpuCostModel, batch: &Batch) -> f64 {
    let ops: u64 = batch.txns.iter().map(|t| t.ops.len() as u64).sum();
    let per_op = cpu.index_ns + cpu.read_ns + cpu.write_ns;
    ops as f64 * per_op / cpu.workers as f64
}

impl Executor {
    /// This executor as the CPU fallback. Its engine must carry no fault
    /// plan: the fallback has no device to lose.
    pub fn into_fallback(self) -> Self {
        Executor { degraded: true, ..self }
    }

    /// Name of the executor (`"LTPG"`, or `"LTPG-CPU-fallback"` degraded).
    pub fn name(&self) -> &'static str {
        if self.degraded {
            "LTPG-CPU-fallback"
        } else {
            self.engine.name()
        }
    }

    /// The live database.
    pub fn database(&self) -> &Database {
        self.engine.database()
    }

    /// The engine, degraded or not.
    pub(crate) fn engine(&self) -> &LtpgEngine {
        &self.engine
    }

    /// The GPU engine, unless this executor has degraded to the CPU
    /// fallback.
    pub fn gpu(&self) -> Option<&LtpgEngine> {
        (!self.degraded).then_some(&*self.engine)
    }

    /// Mutable access to the GPU engine (fault arming, telemetry
    /// rebinding on promotion), unless degraded.
    pub fn gpu_mut(&mut self) -> Option<&mut LtpgEngine> {
        (!self.degraded).then_some(&mut *self.engine)
    }

    /// Whether this executor has degraded to the CPU fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Consume the executor, returning its database.
    pub fn into_database(self) -> Database {
        self.engine.into_database()
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
    ) -> Result<PreparedBatch, DeviceError> {
        let engine = &mut self.engine;
        let mut attempt = 0u32;
        let mut prepared = loop {
            match (engine.try_prepare_batch(batch, scope), retry) {
                (Ok(p), _) => break p,
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
        };
        if self.degraded {
            // Execute and detect span two of the CPU model's three phase
            // barriers. Reporting only: decisions never read the clock.
            let cpu = CpuCostModel::xeon30();
            prepared.charge(2.0 * cpu.barrier_ns + cpu_work_ns(&cpu, batch));
        }
        Ok(prepared)
    }

    /// Second half of a batch: the commit rule over the (possibly merged)
    /// flag words in `prepared`, write-back of owned mutations, and the
    /// report. Returns the report — whose `sim_ns` covers both halves —
    /// and the simulated nanoseconds of this half alone.
    ///
    /// Download retries happen in place inside the engine; an `Err` here
    /// is device loss, possibly with the database partly written (the
    /// batch is already logged, so a successor rebuilds from the WAL).
    pub fn finish(
        &mut self,
        batch: &Batch,
        prepared: PreparedBatch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<(BatchReport, f64), DeviceError> {
        let prep_ns = prepared.sim_ns();
        let r = self.engine.try_finish_batch(batch, prepared, scope)?;
        if !self.degraded {
            return Ok((r.report, r.stats.total_ns() - prep_ns));
        }
        // The CPU fallback's third barrier; it moves nothing over PCIe.
        let cpu = CpuCostModel::xeon30();
        let sim_ns = 3.0 * cpu.barrier_ns + cpu_work_ns(&cpu, batch);
        let report =
            BatchReport { sim_ns, critical_path_ns: sim_ns, transfer_ns: 0.0, ..r.report };
        Ok((report, cpu.barrier_ns))
    }

    /// Re-promotion: a degraded executor hands its live database and its
    /// conflict log's sizing to a GPU engine over the recovered `device`
    /// (already revived and reset). Determinism makes the swap invisible.
    /// No-op on a GPU executor.
    pub fn repromote(
        &mut self,
        cfg: LtpgConfig,
        telemetry: Arc<ltpg_telemetry::Registry>,
        device: Device,
    ) {
        if self.degraded {
            let mut sizing = LogSizing::new();
            self.engine.conflict_log().record_sizing(&mut sizing);
            let db = std::mem::take(self.engine.database_mut());
            let mut engine = LtpgEngine::with_device(db, cfg, telemetry, device);
            engine.resize_log(&sizing);
            *self = engine.into();
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
    /// after `at_batch` executed batches. The CPU fallback has none to
    /// keep.
    pub fn note(&mut self, shard: usize, exec: Executor, at_batch: u64) {
        if !exec.degraded {
            self.lost.push((shard, exec.engine.into_device(), at_batch));
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
