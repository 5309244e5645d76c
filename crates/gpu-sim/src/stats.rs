//! Cumulative device counters, aggregated across kernel launches and
//! transfers. The harness snapshots these between batches to report the
//! per-phase breakdowns used by Tables IV, V, VII and IX.

/// Counters accumulated by a [`crate::Device`] since construction (or since
/// the last [`crate::Device::reset`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Simulated nanoseconds the device has been busy (kernels + syncs +
    /// non-overlapped transfers).
    pub busy_ns: f64,
    /// Number of kernels launched.
    pub kernels: u64,
    /// Number of device-wide synchronization barriers.
    pub syncs: u64,
    /// Total lane invocations executed.
    pub lanes_run: u64,
    /// Warps whose lanes diverged into more than one branch path.
    pub divergent_warps: u64,
    /// Total device atomic operations issued.
    pub atomic_ops: u64,
    /// Sum of serialization depths observed by atomics (0 for the first op
    /// on an address in a kernel, 1 for the second, ...). High values mean
    /// hot addresses; dynamic hash buckets push this down.
    pub atomic_serial_depth: u64,
    /// 8-byte words read from global memory.
    pub global_words_read: u64,
    /// 8-byte words written to global memory.
    pub global_words_written: u64,
    /// Bytes copied host → device.
    pub bytes_h2d: u64,
    /// Bytes copied device → host.
    pub bytes_d2h: u64,
    /// Unified-memory page faults charged by the fault model.
    pub page_faults: u64,
    /// Transient (retryable) transfer faults injected by an armed
    /// [`crate::faults::DeviceFaultPlan`].
    pub transient_faults: u64,
    /// Lanes whose pre-pass value a helper thread produced
    /// ([`crate::Device::launch_with_pre`]). The one host-side count here:
    /// it depends on scheduling, and nothing else in this struct does
    /// bar the next count.
    pub helper_lanes: u64,
    /// Lanes whose pre-pass value a helper thread computed after the
    /// launching thread had reached the lane and computed it inline, into
    /// a spare value: the helper's value was set aside, so the lane's
    /// pre-pass ran twice.
    pub lanes_computed_twice: u64,
}

impl DeviceStats {
    /// Pointwise difference `self - earlier`; used to attribute counters to
    /// a window between two snapshots.
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            busy_ns: self.busy_ns - earlier.busy_ns,
            kernels: self.kernels - earlier.kernels,
            syncs: self.syncs - earlier.syncs,
            lanes_run: self.lanes_run - earlier.lanes_run,
            divergent_warps: self.divergent_warps - earlier.divergent_warps,
            atomic_ops: self.atomic_ops - earlier.atomic_ops,
            atomic_serial_depth: self.atomic_serial_depth - earlier.atomic_serial_depth,
            global_words_read: self.global_words_read - earlier.global_words_read,
            global_words_written: self.global_words_written - earlier.global_words_written,
            bytes_h2d: self.bytes_h2d - earlier.bytes_h2d,
            bytes_d2h: self.bytes_d2h - earlier.bytes_d2h,
            page_faults: self.page_faults - earlier.page_faults,
            transient_faults: self.transient_faults - earlier.transient_faults,
            helper_lanes: self.helper_lanes - earlier.helper_lanes,
            lanes_computed_twice: self.lanes_computed_twice - earlier.lanes_computed_twice,
        }
    }

    /// Average serialization depth per atomic op — a direct contention gauge.
    pub fn mean_atomic_serialization(&self) -> f64 {
        if self.atomic_ops == 0 {
            0.0
        } else {
            self.atomic_serial_depth as f64 / self.atomic_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_every_field() {
        let later = DeviceStats {
            kernels: 10,
            atomic_ops: 100,
            atomic_serial_depth: 40,
            busy_ns: 5_000.0,
            ..DeviceStats::default()
        };
        let earlier = DeviceStats {
            kernels: 4,
            atomic_ops: 60,
            atomic_serial_depth: 10,
            busy_ns: 2_000.0,
            ..DeviceStats::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.kernels, 6);
        assert_eq!(d.atomic_ops, 40);
        assert_eq!(d.atomic_serial_depth, 30);
        assert!((d.busy_ns - 3_000.0).abs() < 1e-12);
    }

    #[test]
    fn mean_serialization_handles_zero_ops() {
        let s = DeviceStats::default();
        assert_eq!(s.mean_atomic_serialization(), 0.0);
        let s2 = DeviceStats { atomic_ops: 8, atomic_serial_depth: 4, ..s.clone() };
        assert!((s2.mean_atomic_serialization() - 0.5).abs() < 1e-12);
    }
}
