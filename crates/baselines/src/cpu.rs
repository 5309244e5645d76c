//! The calibrated cost model and worker-pool clock for the CPU engines.
//!
//! As with the GPU cost model, every constant here was tuned once against
//! the magnitudes of the paper's Table II (Xeon Gold 6326, 30 scheduled
//! cores) and is held fixed across all engines and experiments. The model
//! converts counted events (index probes, reads, writes, lock-manager
//! operations, ...) into simulated nanoseconds; parallel sections are
//! scheduled onto a fixed worker pool by a greedy least-loaded rule and
//! take the pool's makespan.

/// Per-event costs in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCostModel {
    /// Worker threads (the paper schedules 30 cores).
    pub workers: usize,
    /// Hash-index probe.
    pub index_ns: f64,
    /// Cell read (cache-missing random access, amortized).
    pub read_ns: f64,
    /// Cell write.
    pub write_ns: f64,
    /// Pure ALU op.
    pub alu_ns: f64,
    /// One lock-manager operation (acquire/release/queue maintenance).
    pub lock_ns: f64,
    /// OCC validation step per read-set entry.
    pub validate_ns: f64,
    /// Multi-version store operation (placeholder insert / version read).
    pub version_ns: f64,
    /// Abort-and-retry bookkeeping per aborted attempt.
    pub abort_ns: f64,
    /// Per-batch coordination barrier (deterministic engines synchronize
    /// phases across the pool).
    pub barrier_ns: f64,
    /// Serial cost per position in a hot-row RMW chain under
    /// nondeterministic CC (cache-line ping-pong + retry on a contended
    /// row across cores). Drives DBx1000's Table II degradation at small
    /// warehouse counts.
    pub hot_rmw_ns: f64,
}

impl CpuCostModel {
    /// Calibration targeting the paper's 30-core Xeon numbers.
    pub fn xeon30() -> Self {
        CpuCostModel {
            workers: 30,
            index_ns: 110.0,
            read_ns: 45.0,
            write_ns: 65.0,
            alu_ns: 2.0,
            lock_ns: 90.0,
            validate_ns: 60.0,
            version_ns: 140.0,
            abort_ns: 250.0,
            barrier_ns: 4_000.0,
            hot_rmw_ns: 1_200.0,
        }
    }
}

impl Default for CpuCostModel {
    fn default() -> Self {
        Self::xeon30()
    }
}

/// A pool of simulated workers. Tasks are placed on the least-loaded
/// worker; `makespan()` is the pool's finish time. `serial()` adds
/// non-parallelizable time (e.g. Calvin's single-threaded lock manager)
/// that delays everything.
#[derive(Debug, Clone)]
pub struct ParallelClock {
    workers: Vec<f64>,
    serial_ns: f64,
}

impl ParallelClock {
    /// A pool of `n` idle workers.
    pub fn new(n: usize) -> Self {
        ParallelClock { workers: vec![0.0; n.max(1)], serial_ns: 0.0 }
    }

    /// Place a task of `ns` on the least-loaded worker.
    pub fn assign(&mut self, ns: f64) {
        let (i, _) = self
            .workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .expect("non-empty pool");
        self.workers[i] += ns;
    }

    /// Place a task on a *specific* worker (engines with static
    /// partition-to-worker mappings, e.g. PWV).
    pub fn assign_to(&mut self, worker: usize, ns: f64) {
        let n = self.workers.len();
        self.workers[worker % n] += ns;
    }

    /// Add serial (non-parallelizable) time.
    pub fn serial(&mut self, ns: f64) {
        self.serial_ns += ns;
    }

    /// Pool finish time: serial portion plus the busiest worker.
    pub fn makespan_ns(&self) -> f64 {
        self.serial_ns + self.workers.iter().cloned().fold(0.0, f64::max)
    }

    /// Sum of all assigned work (utilization diagnostics).
    pub fn total_work_ns(&self) -> f64 {
        self.workers.iter().sum::<f64>() + self.serial_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_balances() {
        let mut c = ParallelClock::new(4);
        for _ in 0..8 {
            c.assign(10.0);
        }
        assert!((c.makespan_ns() - 20.0).abs() < 1e-9);
        c.assign(100.0);
        assert!((c.makespan_ns() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn serial_time_delays_everything() {
        let mut c = ParallelClock::new(2);
        c.assign(10.0);
        c.serial(100.0);
        assert!((c.makespan_ns() - 110.0).abs() < 1e-9);
        assert!((c.total_work_ns() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn single_worker_pool_is_serial() {
        let mut c = ParallelClock::new(1);
        c.assign(5.0);
        c.assign(5.0);
        assert!((c.makespan_ns() - 10.0).abs() < 1e-9);
    }
}
