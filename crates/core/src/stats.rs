//! Per-batch phase breakdown, the raw material for paper Tables IV, V and
//! IX and Fig. 6a.
//!
//! Since the telemetry migration these structs are *views*: the registry
//! ([`ltpg_telemetry::Registry`]) is the system of record for cumulative
//! counters, and [`LtpgBatchStats::publish`] / [`FaultStats::from_registry`]
//! convert between the per-batch structs bench tables consume and the
//! dashboard-facing metric stream.

use ltpg_gpu_sim::transfer::BatchStages;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::BatchReport;

/// Detailed simulated timings and counters for one LTPG batch.
#[derive(Debug, Clone, Default)]
pub struct LtpgBatchStats {
    /// H2D upload of transaction parameters, ns.
    pub h2d_ns: f64,
    /// Execute-phase kernel, ns.
    pub execute_ns: f64,
    /// Conflict-detection kernel, ns.
    pub detect_ns: f64,
    /// Write-back kernels (including the delayed-update merge), ns.
    pub writeback_ns: f64,
    /// Device synchronization barriers, ns.
    pub sync_ns: f64,
    /// D2H download of results / read-write sets, ns.
    pub d2h_ns: f64,
    /// Per-batch device buffer (re)allocation, ns (cudaMalloc-class).
    /// Zero in steady state once the engine's arena reuse warms up.
    pub alloc_ns: f64,
    /// Buffer allocations not absorbed by the reusable arena this batch.
    pub alloc_events: u64,
    /// Bytes uploaded.
    pub bytes_h2d: u64,
    /// Bytes downloaded.
    pub bytes_d2h: u64,
    /// Atomic operations issued across all kernels of the batch.
    pub atomic_ops: u64,
    /// Summed serialization depth of those atomics.
    pub atomic_serial_depth: u64,
    /// Warps that diverged (mixed branch tags).
    pub divergent_warps: u64,
    /// Unified-memory page faults charged.
    pub page_faults: u64,
    /// Transactions force-aborted for reading a delayed column (sound
    /// fallback; should be zero for well-configured workloads).
    pub delayed_read_aborts: u64,
    /// Transactions force-aborted because the conflict log had no free
    /// bucket for one of their accesses (log exhaustion — distinct from
    /// the delayed-read fallback above).
    pub log_exhausted_aborts: u64,
    /// Commutative deltas folded at write-back.
    pub delayed_ops_applied: u64,
    /// Result-download (D2H) copies re-issued after a transient transfer
    /// fault. The batch had already executed, so only the copy repeats.
    pub d2h_retries: u64,
}

impl LtpgBatchStats {
    /// Total simulated batch latency (parameters-in to results-out) as the
    /// *serial* sum of the six phases. Honest for a single isolated batch;
    /// an overstatement of steady-state latency when the engine pipelines
    /// transfers against compute — use [`Self::critical_path_ns`] there.
    pub fn total_ns(&self) -> f64 {
        self.h2d_ns
            + self.execute_ns
            + self.detect_ns
            + self.writeback_ns
            + self.sync_ns
            + self.d2h_ns
            + self.alloc_ns
    }

    /// Compute-only portion: the three kernels plus synchronization and
    /// any device-allocation stalls (both serialize against the kernels).
    pub fn compute_ns(&self) -> f64 {
        self.execute_ns + self.detect_ns + self.writeback_ns + self.sync_ns + self.alloc_ns
    }

    /// Steady-state per-batch latency under the three-stage transfer
    /// pipeline (upload ∥ compute ∥ download): the bottleneck stage's
    /// cost, which is what each additional batch adds to the makespan.
    pub fn critical_path_ns(&self) -> f64 {
        self.h2d_ns.max(self.compute_ns()).max(self.d2h_ns)
    }

    /// Transfer-only portion (paper Table IV's second number).
    pub fn transfer_ns(&self) -> f64 {
        self.h2d_ns + self.d2h_ns
    }

    /// The batch's three stages in the inter-batch pipeline (§V-E): upload,
    /// the kernels plus synchronization, download. Allocation stalls sit
    /// in no stage.
    pub fn stages(&self) -> BatchStages {
        BatchStages {
            h2d_ns: self.h2d_ns,
            compute_ns: self.execute_ns + self.detect_ns + self.writeback_ns + self.sync_ns,
            d2h_ns: self.d2h_ns,
        }
    }

    /// Publish this batch's breakdown to a metrics registry: per-phase
    /// latency histograms, byte/atomic/fault counters, and the
    /// delayed-update + abort tallies.
    pub fn publish(&self, reg: &Registry) {
        reg.histogram(names::LTPG_PHASE_H2D_NS).record_ns(self.h2d_ns);
        reg.histogram(names::LTPG_PHASE_EXECUTE_NS).record_ns(self.execute_ns);
        reg.histogram(names::LTPG_PHASE_DETECT_NS).record_ns(self.detect_ns);
        reg.histogram(names::LTPG_PHASE_WRITEBACK_NS)
            .record_ns(self.writeback_ns);
        reg.histogram(names::LTPG_PHASE_SYNC_NS).record_ns(self.sync_ns);
        reg.histogram(names::LTPG_PHASE_D2H_NS).record_ns(self.d2h_ns);
        reg.histogram(names::LTPG_PHASE_ALLOC_NS).record_ns(self.alloc_ns);
        reg.counter(names::LTPG_ALLOC_EVENTS).add(self.alloc_events);
        reg.histogram(names::LTPG_BATCH_TOTAL_NS).record_ns(self.total_ns());
        reg.histogram(names::LTPG_BATCH_CRITICAL_NS)
            .record_ns(self.critical_path_ns());
        reg.counter(names::LTPG_BYTES_H2D).add(self.bytes_h2d);
        reg.counter(names::LTPG_BYTES_D2H).add(self.bytes_d2h);
        reg.counter(names::LTPG_DELAYED_OPS_APPLIED)
            .add(self.delayed_ops_applied);
        reg.counter(names::ABORT_DELAYED_READ).add(self.delayed_read_aborts);
        reg.counter(names::ABORT_LOG_EXHAUSTED).add(self.log_exhausted_aborts);
    }
}

/// Fault-handling counters, accumulated by [`crate::Server`] across
/// its lifetime. All zeros unless a fault plan is armed, so dashboards can
/// alert on any non-zero value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Batch or transfer attempts re-issued after a transient device
    /// fault (upload retries + download retries).
    pub transient_retries: u64,
    /// Simulated nanoseconds spent in retry backoff.
    pub backoff_ns: f64,
    /// Simulated nanoseconds of wasted transfer time from in-place
    /// download retries (one PCIe round trip per retry).
    pub retry_penalty_ns: f64,
    /// Times the server abandoned the device and rebuilt state on the CPU
    /// fallback executor.
    pub fallback_activations: u64,
}

impl FaultStats {
    /// Materialize the struct view from a registry's `faults.*` counters
    /// (the system of record since the telemetry migration).
    pub fn from_registry(reg: &Registry) -> Self {
        Self::from_registries([reg])
    }

    /// The same view summed over several registries (one per shard).
    pub fn from_registries<'a>(regs: impl IntoIterator<Item = &'a Registry> + Clone) -> Self {
        let sum = |name| regs.clone().into_iter().map(|reg| reg.counter_value(name)).sum::<u64>();
        Self {
            transient_retries: sum(names::FAULT_TRANSIENT_RETRIES),
            backoff_ns: sum(names::FAULT_BACKOFF_NS) as f64,
            retry_penalty_ns: sum(names::FAULT_RETRY_PENALTY_NS) as f64,
            fallback_activations: sum(names::FAULT_FALLBACK_ACTIVATIONS),
        }
    }
}

/// A [`BatchReport`] bundled with the LTPG-specific phase breakdown.
#[derive(Debug, Clone)]
pub struct ReportWithStats {
    /// The engine-trait-level report.
    pub report: BatchReport,
    /// The phase breakdown.
    pub stats: LtpgBatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let s = LtpgBatchStats {
            h2d_ns: 1.0,
            execute_ns: 2.0,
            detect_ns: 3.0,
            writeback_ns: 4.0,
            sync_ns: 5.0,
            d2h_ns: 6.0,
            alloc_ns: 0.5,
            ..LtpgBatchStats::default()
        };
        assert!((s.total_ns() - 21.5).abs() < 1e-12);
        assert!((s.transfer_ns() - 7.0).abs() < 1e-12);
        // Compute (2+3+4+5+0.5 = 14.5) dominates both transfers, so the
        // pipelined critical path is the compute stage — strictly below
        // the serial sum.
        assert!((s.critical_path_ns() - 14.5).abs() < 1e-12);
        assert!(s.critical_path_ns() < s.total_ns());
    }

    #[test]
    fn critical_path_is_bottleneck_stage() {
        // Transfer-bound batch: the H2D upload dominates.
        let s = LtpgBatchStats {
            h2d_ns: 100.0,
            execute_ns: 10.0,
            detect_ns: 5.0,
            writeback_ns: 5.0,
            sync_ns: 1.0,
            d2h_ns: 40.0,
            ..LtpgBatchStats::default()
        };
        assert!((s.critical_path_ns() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fault_stats_round_trip_through_registry() {
        let reg = Registry::new();
        reg.counter(names::FAULT_TRANSIENT_RETRIES).add(3);
        reg.counter(names::FAULT_BACKOFF_NS).add(5_000);
        reg.counter(names::FAULT_FALLBACK_ACTIVATIONS).inc();
        let f = FaultStats::from_registry(&reg);
        assert_eq!(f.transient_retries, 3);
        assert!((f.backoff_ns - 5_000.0).abs() < 1e-12);
        assert_eq!(f.fallback_activations, 1);
        // A registry with no fault activity reads back as the default view.
        assert_eq!(FaultStats::from_registry(&Registry::new()), FaultStats::default());
    }
}
