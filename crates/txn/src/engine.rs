//! The engine abstraction shared by LTPG and all eight baselines.

use ltpg_storage::Database;
use ltpg_telemetry::Registry;

use crate::txn::{Batch, Tid};

/// Which correctness story an engine's committed set follows — it selects
/// the oracle used by the integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitSemantics {
    /// All committed transactions read the pre-batch snapshot; their
    /// equivalent serial order is reader-before-writer (LTPG, Aria).
    SnapshotBatch,
    /// The committed list *is* the equivalent serial order (Calvin, BOHM,
    /// PWV, GPUTx, GaccO in TID order; TicToc in commit-timestamp order).
    SerialOrder,
}

/// Outcome of one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Committed TIDs. Under [`CommitSemantics::SerialOrder`] the order is
    /// the engine's claimed equivalent serial order; under
    /// [`CommitSemantics::SnapshotBatch`] it is ascending TID.
    pub committed: Vec<Tid>,
    /// Aborted TIDs (to be re-queued with their original TIDs).
    pub aborted: Vec<Tid>,
    /// Simulated end-to-end batch latency, nanoseconds (parameters-in to
    /// results-out, per the paper's latency metric). This is the *serial*
    /// sum of the batch's phases — honest for engines that do not overlap
    /// phases, an overstatement for pipelined ones.
    pub sim_ns: f64,
    /// Steady-state per-batch latency when the engine pipelines transfers
    /// against compute: the bottleneck-stage cost each additional batch adds
    /// to the makespan. Engines without phase overlap report `sim_ns` here.
    pub critical_path_ns: f64,
    /// Portion of `sim_ns` spent on host⇄device data movement.
    pub transfer_ns: f64,
    /// Host wall-clock nanoseconds the engine actually took (secondary
    /// sanity metric; the paper-shaped numbers use `sim_ns`).
    pub wall_ns: u64,
    /// Which oracle validates this report.
    pub semantics: CommitSemantics,
}

impl BatchReport {
    /// Committed fraction of a batch of `batch_len` transactions.
    pub fn commit_rate(&self, batch_len: usize) -> f64 {
        if batch_len == 0 {
            0.0
        } else {
            self.committed.len() as f64 / batch_len as f64
        }
    }

    /// Throughput in committed transactions per second of simulated time.
    pub fn committed_tps(&self) -> f64 {
        if self.sim_ns <= 0.0 {
            0.0
        } else {
            self.committed.len() as f64 / (self.sim_ns * 1e-9)
        }
    }
}

/// A batch transaction engine. One instance owns one database; batches are
/// fed in order and each returns a [`BatchReport`].
pub trait BatchEngine {
    /// Engine name for reporting ("LTPG", "Aria", ...).
    fn name(&self) -> &'static str;

    /// The engine's current database state (post all executed batches).
    fn database(&self) -> &Database;

    /// Execute one batch to completion (all three phases / both steps /
    /// full protocol, per engine) and report the outcome.
    fn execute_batch(&mut self, batch: &Batch) -> BatchReport;

    /// Publish one batch's outcome to a metrics registry under
    /// `engine.<name>.*`: batch/commit/abort counters and latency
    /// histograms for every engine, CPU baselines included, then whatever
    /// [`Self::record_extra_telemetry`] adds. (LTPG publishes its own
    /// `ltpg.*` metrics as it runs.)
    fn record_telemetry(&self, registry: &Registry, report: &BatchReport) {
        let n = self.name();
        registry.counter(&format!("engine.{n}.batches")).inc();
        registry
            .counter(&format!("engine.{n}.committed"))
            .add(report.committed.len() as u64);
        registry
            .counter(&format!("engine.{n}.abort_events"))
            .add(report.aborted.len() as u64);
        registry
            .histogram(&format!("engine.{n}.batch_sim_ns"))
            .record_ns(report.sim_ns);
        registry
            .histogram(&format!("engine.{n}.critical_path_ns"))
            .record_ns(report.critical_path_ns);
        self.record_extra_telemetry(registry);
    }

    /// An engine's own signals for the batch it last ran, published after
    /// the `engine.<name>.*` family. None by default.
    fn record_extra_telemetry(&self, _registry: &Registry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_rate_and_tps() {
        let r = BatchReport {
            committed: vec![Tid(1), Tid(2), Tid(3)],
            aborted: vec![Tid(4)],
            sim_ns: 1_000.0,
            critical_path_ns: 1_000.0,
            transfer_ns: 100.0,
            wall_ns: 0,
            semantics: CommitSemantics::SnapshotBatch,
        };
        assert!((r.commit_rate(4) - 0.75).abs() < 1e-12);
        assert_eq!(r.commit_rate(0), 0.0);
        // 3 commits / 1 µs = 3M TPS.
        assert!((r.committed_tps() - 3.0e6).abs() < 1.0);
    }
}
