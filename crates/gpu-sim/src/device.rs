//! The simulated device: configuration, clock, statistics, and the
//! allocation footprint used by the unified-memory fault model.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use ltpg_telemetry::{names, Counter, Histogram, Registry};

use crate::cost::CostModel;
use crate::faults::{DeviceError, DeviceFaultPlan};
use crate::stats::DeviceStats;

/// Where the working set lives, mirroring the paper's "selective memory
/// mode adjustments" (§V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Snapshot and conflict logs reside in device memory; host⇄device data
    /// moves only via explicit transfers. LTPG's normal operating mode.
    #[default]
    DeviceResident,
    /// Host-pinned memory mapped into the device: every global access pays a
    /// (combined) PCIe surcharge, but explicit transfers are free.
    ZeroCopy,
    /// CUDA unified memory: the device faults pages in on demand. Cheap while
    /// the footprint fits device memory; page-fault storms once it does not
    /// (paper Table IX).
    Unified,
}

/// Static configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Lanes per warp. CUDA fixes this at 32; tests may shrink it.
    pub warp_size: u32,
    /// Host threads a launch may use: the launching thread, which runs
    /// every lane in warp order, plus up to this many − 1 helpers, less the
    /// threads a [`HostThreadLease`] holds, that run a launch's pre-pass
    /// ahead of it ([`Device::launch_with_pre`]). No simulated figure
    /// depends on it. Defaults to the host's `available_parallelism`.
    pub parallel_host_threads: usize,
    /// Simulated device memory capacity in bytes (A6000: 48 GiB).
    pub device_mem_bytes: u64,
    /// Memory placement mode for global accesses.
    pub memory_mode: MemoryMode,
    /// Concurrent page-fault servicing capability of the unified-memory
    /// model: faults batch and prefetch, so this is large (calibrated
    /// against paper Table IX's unified-memory blow-up).
    pub fault_overlap: f64,
    /// The calibrated cost table.
    pub cost: CostModel,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            warp_size: 32,
            parallel_host_threads: host_parallelism(),
            device_mem_bytes: 48 * (1 << 30),
            memory_mode: MemoryMode::DeviceResident,
            fault_overlap: 3_500.0,
            cost: CostModel::a6000(),
        }
    }
}

/// Host threads held by [`HostThreadLease`]s.
static LEASED_HOST_THREADS: AtomicUsize = AtomicUsize::new(0);

/// A host thread the process keeps busy beside its launches — a standby
/// row's replay worker — taken out of the threads that launches draw
/// pre-pass helpers from, for as long as the lease lives: a helper on that
/// thread's CPU would only slow it down.
#[derive(Debug)]
pub struct HostThreadLease(());

impl HostThreadLease {
    /// Lease one host thread until the returned value is dropped.
    pub fn take() -> Self {
        LEASED_HOST_THREADS.fetch_add(1, Ordering::Relaxed);
        HostThreadLease(())
    }
}

impl Drop for HostThreadLease {
    fn drop(&mut self) {
        LEASED_HOST_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Host threads currently leased, process-wide.
pub(crate) fn leased_host_threads() -> usize {
    LEASED_HOST_THREADS.load(Ordering::Relaxed)
}

/// The host's `available_parallelism`, read once (it parses cgroup files).
fn host_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl DeviceConfig {
    /// A convenience constructor for a launch on `n` host threads.
    pub fn parallel(n: usize) -> Self {
        DeviceConfig { parallel_host_threads: n.max(1), ..Self::default() }
    }
}

/// Cached telemetry handles for the device's hot paths. Rebinding (see
/// [`Device::set_telemetry`]) swaps the whole block so per-launch updates
/// never pay a registry lookup.
pub(crate) struct DeviceTelemetry {
    pub(crate) kernel_launches: Arc<Counter>,
    pub(crate) kernel_ns: Arc<Histogram>,
    pub(crate) bytes_h2d: Arc<Counter>,
    pub(crate) bytes_d2h: Arc<Counter>,
    pub(crate) transfer_ns: Arc<Histogram>,
    pub(crate) atomic_ops: Arc<Counter>,
    pub(crate) atomic_serial_depth: Arc<Counter>,
    pub(crate) divergent_warps: Arc<Counter>,
    pub(crate) page_faults: Arc<Counter>,
    pub(crate) syncs: Arc<Counter>,
}

impl DeviceTelemetry {
    fn bind(reg: &Registry) -> Self {
        DeviceTelemetry {
            kernel_launches: reg.counter(names::GPU_KERNEL_LAUNCHES),
            kernel_ns: reg.histogram(names::GPU_KERNEL_NS),
            bytes_h2d: reg.counter(names::GPU_BYTES_H2D),
            bytes_d2h: reg.counter(names::GPU_BYTES_D2H),
            transfer_ns: reg.histogram(names::GPU_TRANSFER_NS),
            atomic_ops: reg.counter(names::GPU_ATOMIC_OPS),
            atomic_serial_depth: reg.counter(names::GPU_ATOMIC_SERIAL_DEPTH),
            divergent_warps: reg.counter(names::GPU_DIVERGENT_WARPS),
            page_faults: reg.counter(names::GPU_PAGE_FAULTS),
            syncs: reg.counter(names::GPU_SYNCS),
        }
    }
}

impl std::fmt::Debug for DeviceTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeviceTelemetry {{ .. }}")
    }
}

/// A simulated GPU: plain data with one owner (an engine, or the server
/// that keeps a lost device for a timed recovery). Every call that charges
/// the clock, consumes a fault ordinal or changes state takes `&mut self`.
#[derive(Debug)]
pub struct Device {
    pub(crate) cfg: DeviceConfig,
    pub(crate) stats: DeviceStats,
    /// Monotonic kernel-epoch counter feeding the atomic contention meters.
    pub(crate) epoch: u32,
    /// Bytes currently allocated on (or managed by) the device.
    allocated: u64,
    /// Armed fault schedule (empty by default — fallible APIs never fail).
    fault_plan: DeviceFaultPlan,
    /// Ordinal counter for fallible operations, consumed by the plan.
    fault_op: u64,
    /// Sticky device-lost flag.
    failed: bool,
    /// Where device-level metrics are published (defaults to the process
    /// global registry until its owner rebinds it to its own).
    pub(crate) telemetry: DeviceTelemetry,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        Device {
            cfg,
            stats: DeviceStats::default(),
            epoch: 0,
            allocated: 0,
            fault_plan: DeviceFaultPlan::none(),
            fault_op: 0,
            failed: false,
            telemetry: DeviceTelemetry::bind(ltpg_telemetry::global()),
        }
    }

    /// Rebind device metrics to `reg` (e.g. a server instance's registry).
    /// Counts published before the rebind stay in the previous registry.
    pub fn set_telemetry(&mut self, reg: &Registry) {
        self.telemetry = DeviceTelemetry::bind(reg);
    }

    /// Arm a deterministic fault schedule. Replaces any previous plan and
    /// restarts the fallible-operation ordinal at zero (a cleared sticky
    /// failure is *not* implied — use a fresh device to model replacement).
    pub fn arm_faults(&mut self, plan: DeviceFaultPlan) {
        self.fault_plan = plan;
        self.fault_op = 0;
    }

    /// Whether the device has entered the sticky lost state.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Force the sticky lost state now (a crashpoint at a batch boundary,
    /// as opposed to one scheduled by ordinal inside the plan).
    pub fn fail_now(&mut self) {
        self.failed = true;
    }

    /// Clear the sticky lost flag: the device reset, re-enumerated, and is
    /// healthy again. This is the *repair* half of timed device recovery —
    /// the failover layer calls it when a chaos schedule says the outage
    /// has ended, then hands the device to its next owner, which calls
    /// [`Device::reset_for_reuse`]. A plan-scheduled permanent loss is not
    /// un-scheduled by this; re-arm or disarm the plan for that.
    pub fn revive(&mut self) {
        self.failed = false;
    }

    /// Consume one fallible-operation ordinal and apply the armed plan.
    fn fault_check(&mut self) -> Result<(), DeviceError> {
        let op = self.fault_op;
        self.fault_op += 1;
        if self.failed {
            return Err(DeviceError::DeviceLost { op });
        }
        match self.fault_plan.classify(op) {
            Some(DeviceError::DeviceLost { op }) => {
                // A timed outage (loss window with a recovery point) heals
                // by itself; only a permanent loss latches the sticky flag.
                if self.fault_plan.loss_is_permanent() {
                    self.failed = true;
                }
                Err(DeviceError::DeviceLost { op })
            }
            Some(err @ DeviceError::TransientTransfer { .. }) => {
                self.stats.transient_faults += 1;
                Err(err)
            }
            None => Ok(()),
        }
    }

    /// Liveness probe for non-transfer points (e.g. between phase
    /// kernels). Consumes an ordinal; transient entries landing on it are
    /// ignored — only device loss fails a launch.
    pub fn check_alive(&mut self) -> Result<(), DeviceError> {
        match self.fault_check() {
            Err(e @ DeviceError::DeviceLost { .. }) => Err(e),
            // A transient scheduled on a non-transfer ordinal is a no-op,
            // but it was still consumed from the plan — undo the count.
            Err(DeviceError::TransientTransfer { .. }) => {
                self.stats.transient_faults -= 1;
                Ok(())
            }
            Ok(()) => Ok(()),
        }
    }

    /// Fault gate shared by the fallible transfer entry points. A transient
    /// fault aborts the copy, but the attempt still burned a PCIe round
    /// trip before the fault surfaced — charge the one-way latency to the
    /// simulated clock *and* the transfer histogram so the two stay in
    /// agreement on retried transfers. Device loss charges nothing (the
    /// link is gone, there is no device clock left to advance).
    fn transfer_fault_check(&mut self) -> Result<(), DeviceError> {
        match self.fault_check() {
            Err(e @ DeviceError::TransientTransfer { .. }) => {
                let ns = self.cfg.cost.pcie_latency_ns;
                self.stats.busy_ns += ns;
                self.telemetry.transfer_ns.record_ns(ns);
                Err(e)
            }
            other => other,
        }
    }

    /// Fallible host→device copy: like [`Device::h2d`] but consults the
    /// armed fault plan first. A transiently failed attempt charges one
    /// PCIe latency (the wasted round trip); no bytes are counted.
    pub fn try_h2d(&mut self, bytes: u64) -> Result<f64, DeviceError> {
        self.transfer_fault_check()?;
        Ok(self.h2d(bytes))
    }

    /// Fallible device→host copy: like [`Device::d2h`] but consults the
    /// armed fault plan first. A transiently failed attempt charges one
    /// PCIe latency (the wasted round trip); no bytes are counted.
    pub fn try_d2h(&mut self, bytes: u64) -> Result<f64, DeviceError> {
        self.transfer_fault_check()?;
        Ok(self.d2h(bytes))
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The calibrated cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Simulated nanoseconds of device busy time accumulated so far.
    pub fn elapsed_ns(&self) -> f64 {
        self.stats.busy_ns
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats.clone()
    }

    /// Zero the clock and counters (allocation footprint is preserved).
    ///
    /// This is a *stats* reset only: an armed fault plan, the
    /// fallible-operation ordinal, the sticky lost flag, and any telemetry
    /// rebinding all survive. A new logical owner of the device calls
    /// [`Device::reset_for_reuse`] instead, or stale fault schedules leak
    /// into its run.
    pub fn reset(&mut self) {
        self.stats = DeviceStats::default();
    }

    /// Full reset for a new logical owner: zeroes the stats clock, disarms
    /// the fault plan, restarts the fallible-operation ordinal and releases
    /// the allocation footprint (the owner registers its own working set,
    /// as a real re-initialization remaps device memory from scratch). The
    /// sticky lost flag is deliberately preserved (matching
    /// [`Device::arm_faults`]: a lost device stays lost until
    /// [`Device::revive`]), and so is the telemetry binding, which the new
    /// owner replaces with its own.
    pub fn reset_for_reuse(&mut self) {
        self.stats = DeviceStats::default();
        self.fault_plan = DeviceFaultPlan::none();
        self.fault_op = 0;
        self.allocated = 0;
    }

    /// Advance the simulated clock by `ns` of device-serial work that is not
    /// a kernel (e.g. a non-overlapped transfer).
    pub fn advance(&mut self, ns: f64) {
        self.stats.busy_ns += ns;
    }

    /// Record a `cudaDeviceSynchronize()`-style barrier. LTPG calls this
    /// between its three phase kernels (paper Algorithm 1, lines 2/4/6).
    pub fn synchronize(&mut self) {
        self.stats.syncs += 1;
        self.stats.busy_ns += self.cfg.cost.device_sync_ns;
        self.telemetry.syncs.inc();
    }

    /// Charge a host→device copy of `bytes`; returns its simulated duration.
    /// The clock advances (non-overlapped transfer); overlapped pipelines
    /// should instead combine durations through [`crate::transfer::Pipeline`].
    pub fn h2d(&mut self, bytes: u64) -> f64 {
        let ns = self.cfg.cost.transfer_ns(bytes);
        self.stats.bytes_h2d += bytes;
        self.stats.busy_ns += ns;
        self.telemetry.bytes_h2d.add(bytes);
        self.telemetry.transfer_ns.record_ns(ns);
        ns
    }

    /// Charge a device→host copy of `bytes`; returns its simulated duration.
    pub fn d2h(&mut self, bytes: u64) -> f64 {
        let ns = self.cfg.cost.transfer_ns(bytes);
        self.stats.bytes_d2h += bytes;
        self.stats.busy_ns += ns;
        self.telemetry.bytes_d2h.add(bytes);
        self.telemetry.transfer_ns.record_ns(ns);
        ns
    }

    /// Register `bytes` of device allocation (affects the unified-memory
    /// fault model).
    pub fn register_allocation(&mut self, bytes: u64) {
        self.allocated += bytes;
    }

    /// Bytes currently registered as allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Fraction of accesses that miss device memory under the unified-memory
    /// model: 0 while the footprint fits, approaching 1 as it outgrows the
    /// device.
    pub(crate) fn fault_fraction(&self) -> f64 {
        if self.cfg.memory_mode != MemoryMode::Unified {
            return 0.0;
        }
        let foot = self.allocated as f64;
        let cap = self.cfg.device_mem_bytes as f64;
        if foot <= cap {
            0.0
        } else {
            1.0 - cap / foot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_charges_overhead() {
        let mut d = Device::new(DeviceConfig::default());
        d.synchronize();
        d.synchronize();
        let s = d.stats();
        assert_eq!(s.syncs, 2);
        assert!((s.busy_ns - 2.0 * d.cost().device_sync_ns).abs() < 1e-9);
    }

    #[test]
    fn transfers_accumulate_bytes_and_time() {
        let mut d = Device::new(DeviceConfig::default());
        let up = d.h2d(1 << 20);
        let down = d.d2h(1 << 10);
        let s = d.stats();
        assert_eq!(s.bytes_h2d, 1 << 20);
        assert_eq!(s.bytes_d2h, 1 << 10);
        assert!((s.busy_ns - up - down).abs() < 1e-9);
        assert!(up > down);
    }

    #[test]
    fn fault_fraction_zero_until_over_capacity() {
        let cfg = DeviceConfig {
            memory_mode: MemoryMode::Unified,
            device_mem_bytes: 1000,
            ..DeviceConfig::default()
        };
        let mut d = Device::new(cfg);
        d.register_allocation(500);
        assert_eq!(d.fault_fraction(), 0.0);
        d.register_allocation(1500); // total 2000: half the pages can't fit
        assert!((d.fault_fraction() - 0.5).abs() < 1e-12);
        d.reset_for_reuse(); // a new owner starts from no footprint
        assert_eq!(d.fault_fraction(), 0.0);
    }

    #[test]
    fn fault_fraction_requires_unified_mode() {
        let cfg = DeviceConfig {
            device_mem_bytes: 10,
            memory_mode: MemoryMode::DeviceResident,
            ..DeviceConfig::default()
        };
        let mut d = Device::new(cfg);
        d.register_allocation(100);
        assert_eq!(d.fault_fraction(), 0.0);
    }

    #[test]
    fn unarmed_device_never_fails() {
        let mut d = Device::new(DeviceConfig::default());
        for _ in 0..100 {
            d.try_h2d(64).unwrap();
            d.check_alive().unwrap();
            d.try_d2h(64).unwrap();
        }
        assert!(!d.is_failed());
        assert_eq!(d.stats().transient_faults, 0);
    }

    #[test]
    fn transient_fault_fails_once_then_retry_succeeds() {
        use crate::faults::{DeviceError, DeviceFaultPlan};
        let mut d = Device::new(DeviceConfig::default());
        d.arm_faults(DeviceFaultPlan {
            transient_ops: [1u64].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        d.try_h2d(64).unwrap(); // op 0
        let before = d.stats().busy_ns;
        let bytes_before = d.stats().bytes_h2d;
        match d.try_h2d(64) {
            Err(DeviceError::TransientTransfer { op: 1 }) => {}
            other => panic!("expected transient at op 1, got {other:?}"),
        }
        // The aborted copy burns exactly one PCIe round trip of simulated
        // time (no bandwidth term, no bytes).
        let latency = d.cost().pcie_latency_ns;
        assert!(
            (d.stats().busy_ns - before - latency).abs() < 1e-9,
            "failed transfer must charge exactly one PCIe latency"
        );
        assert_eq!(d.stats().bytes_h2d, bytes_before, "failed transfer moves no bytes");
        d.try_h2d(64).unwrap(); // retry, op 2
        assert_eq!(d.stats().transient_faults, 1);
        assert!(!d.is_failed());
    }

    #[test]
    fn transient_charge_lands_in_telemetry_too() {
        use crate::faults::DeviceFaultPlan;
        use ltpg_telemetry::{names, Registry};
        // Regression: a retried transfer must charge PCIe latency
        // consistently in simulated time AND telemetry — previously the
        // clock charged nothing while the retry counter moved.
        let reg = Registry::new_shared();
        let mut d = Device::new(DeviceConfig::default());
        d.set_telemetry(&reg);
        d.arm_faults(DeviceFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        assert!(d.try_d2h(64).is_err()); // op 0: transient
        let ns = d.try_d2h(64).unwrap(); // op 1: retry succeeds
        let snap = reg.histogram(names::GPU_TRANSFER_NS).snapshot();
        assert_eq!(snap.count, 2, "both the aborted and the retried copy are recorded");
        // Telemetry total equals the simulated-clock total for the pair.
        let clock = d.stats().busy_ns;
        assert!((clock - (d.cost().pcie_latency_ns + ns)).abs() < 1e-9);
    }

    #[test]
    fn device_loss_is_sticky() {
        use crate::faults::{DeviceError, DeviceFaultPlan};
        let mut d = Device::new(DeviceConfig::default());
        d.arm_faults(DeviceFaultPlan {
            transient_ops: Default::default(),
            lost_at_op: Some(2),
            recover_at_op: None,
        });
        d.try_h2d(8).unwrap();
        d.check_alive().unwrap();
        assert!(matches!(d.try_d2h(8), Err(DeviceError::DeviceLost { op: 2 })));
        assert!(d.is_failed());
        assert!(matches!(d.try_h2d(8), Err(DeviceError::DeviceLost { .. })));
        assert!(matches!(d.check_alive(), Err(DeviceError::DeviceLost { .. })));
    }

    #[test]
    fn forced_failure_and_transient_on_launch_point() {
        use crate::faults::DeviceFaultPlan;
        let mut d = Device::new(DeviceConfig::default());
        d.arm_faults(DeviceFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            lost_at_op: None,
            recover_at_op: None,
        });
        // A transient scheduled on a liveness probe is ignored.
        d.check_alive().unwrap();
        assert_eq!(d.stats().transient_faults, 0);
        d.fail_now();
        assert!(d.is_failed());
        assert!(d.try_h2d(8).is_err());
    }

    #[test]
    fn reset_for_reuse_disarms_faults_but_keeps_sticky_loss() {
        use crate::faults::DeviceFaultPlan;
        // Regression: `reset()` used to be the only reset, and it leaves an
        // armed fault plan live — a rebuilt shard inheriting the device
        // would hit the previous owner's scheduled faults.
        let mut d = Device::new(DeviceConfig::default());
        d.arm_faults(DeviceFaultPlan {
            transient_ops: [2u64, 3, 4].into_iter().collect(),
            lost_at_op: Some(50),
            recover_at_op: None,
        });
        d.try_h2d(8).unwrap(); // op 0
        d.reset_for_reuse();
        // The old plan (transients at ops 2..=4, loss at 50) must be gone
        // and the ordinal restarted: every op after reuse succeeds.
        for _ in 0..60 {
            d.try_h2d(8).unwrap();
            d.try_d2h(8).unwrap();
        }
        assert_eq!(d.stats().transient_faults, 0);
        assert!(!d.is_failed());

        // Sticky loss survives reuse — a dead device is not repaired by
        // handing it to a new owner.
        d.fail_now();
        d.reset_for_reuse();
        assert!(d.is_failed());
        assert!(d.try_h2d(8).is_err());
    }

    #[test]
    fn timed_loss_window_is_not_sticky() {
        use crate::faults::{DeviceError, DeviceFaultPlan};
        let mut d = Device::new(DeviceConfig::default());
        d.arm_faults(DeviceFaultPlan {
            transient_ops: Default::default(),
            lost_at_op: Some(1),
            recover_at_op: Some(3),
        });
        d.try_h2d(8).unwrap(); // op 0
        assert!(matches!(d.try_h2d(8), Err(DeviceError::DeviceLost { op: 1 })));
        assert!(!d.is_failed(), "a timed outage must not latch the sticky flag");
        assert!(matches!(d.try_d2h(8), Err(DeviceError::DeviceLost { op: 2 })));
        // Window closed: the device re-enumerated and serves ops again.
        d.try_h2d(8).unwrap(); // op 3
        d.check_alive().unwrap();
        assert!(!d.is_failed());
    }

    #[test]
    fn revive_clears_forced_failure() {
        let mut d = Device::new(DeviceConfig::default());
        d.fail_now();
        assert!(d.is_failed());
        assert!(d.try_h2d(8).is_err());
        d.revive();
        d.reset_for_reuse();
        assert!(!d.is_failed());
        d.try_h2d(8).unwrap();
        d.check_alive().unwrap();
    }

    #[test]
    fn set_telemetry_unbinds_previous_owner() {
        use ltpg_telemetry::{names, Registry};
        let mut d = Device::new(DeviceConfig::default());
        let owner_a = Registry::new_shared();
        d.set_telemetry(&owner_a);
        d.h2d(1 << 10);
        let before = owner_a.counter(names::GPU_BYTES_H2D).get();
        assert_eq!(before, 1 << 10);
        // The next owner binds its own registry (`LtpgEngine::with_device`):
        // its traffic must not keep flowing into owner A's.
        d.set_telemetry(&Registry::new_shared());
        d.h2d(1 << 10);
        assert_eq!(owner_a.counter(names::GPU_BYTES_H2D).get(), before);
    }

    #[test]
    fn reset_preserves_allocation_footprint() {
        let mut d = Device::new(DeviceConfig::default());
        d.register_allocation(4096);
        d.advance(10.0);
        d.reset();
        assert_eq!(d.elapsed_ns(), 0.0);
        assert_eq!(d.allocated_bytes(), 4096);
    }
}
