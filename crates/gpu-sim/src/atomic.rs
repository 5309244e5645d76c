//! Simulated device atomics.
//!
//! A [`SimAtomicU64`] is a plain value word plus a *contention meter*: the
//! kernel epoch it was last hit in and how many ops hit it then. Every
//! device atomic op bumps the count for the current kernel epoch and learns
//! how many prior ops already hit this address in this kernel; the lane is
//! charged `atomic_base + prior * atomic_serial` cycles. The epoch tag means
//! counters never need a reset sweep between kernels — a new kernel simply
//! observes a stale epoch and restarts the count at zero.
//!
//! Every op takes the word by `&mut`: lanes run one after another on the
//! launching thread, and the borrow checker keeps anything else — a
//! launch's pre-pass on a helper thread — from reading a word a lane of the
//! same launch writes. Each op therefore observes exactly its arrival index
//! in lane order, and the serialization charged is a pure function of the
//! launch.

/// Which kernel last hit a word, and how many times.
#[derive(Debug, Default, Clone, Copy)]
struct Meter {
    epoch: u32,
    count: u32,
}

impl Meter {
    /// Count one op in kernel `epoch`, returning how many prior same-kernel
    /// ops this address had already absorbed.
    #[inline]
    fn bump(&mut self, epoch: u32) -> u32 {
        if self.epoch != epoch {
            *self = Meter { epoch, count: 0 };
        }
        let prior = self.count;
        self.count = prior.saturating_add(1);
        prior
    }
}

/// A 64-bit device atomic with a per-kernel contention meter.
#[derive(Debug, Default)]
pub struct SimAtomicU64 {
    value: u64,
    meter: Meter,
}

impl SimAtomicU64 {
    /// Create with an initial value.
    pub fn new(v: u64) -> Self {
        SimAtomicU64 { value: v, meter: Meter::default() }
    }

    /// Plain (host-side / non-charged) load.
    #[inline]
    pub fn load(&self) -> u64 {
        self.value
    }

    /// `atomicMin`; returns the previous value and the number of prior
    /// same-kernel ops on this address (the serialization depth).
    #[inline]
    pub(crate) fn fetch_min_metered(&mut self, v: u64, epoch: u32) -> (u64, u32) {
        let prev = self.value;
        self.value = prev.min(v);
        (prev, self.meter.bump(epoch))
    }

    /// `atomicCAS`; returns `Ok(previous)` on success and serialization depth.
    #[inline]
    pub(crate) fn cas_metered(&mut self, expect: u64, new: u64, epoch: u32) -> (Result<u64, u64>, u32) {
        let prev = self.value;
        let r = if prev == expect {
            self.value = new;
            Ok(prev)
        } else {
            Err(prev)
        };
        (r, self.meter.bump(epoch))
    }

    /// How many device atomics hit this address during kernel `epoch`.
    #[cfg(test)]
    pub(crate) fn contention_in_epoch(&self, epoch: u32) -> u32 {
        if self.meter.epoch == epoch {
            self.meter.count
        } else {
            0
        }
    }
}

/// A 32-bit device atomic with the same contention metering as
/// [`SimAtomicU64`]. Used for compact per-row flags.
#[derive(Debug, Default)]
pub struct SimAtomicU32 {
    value: u32,
    meter: Meter,
}

impl SimAtomicU32 {
    /// Create with an initial value.
    pub fn new(v: u32) -> Self {
        SimAtomicU32 { value: v, meter: Meter::default() }
    }

    /// Plain (non-charged) load.
    #[inline]
    pub fn load(&self) -> u32 {
        self.value
    }

    /// Plain (non-charged) store.
    #[inline]
    pub fn store(&mut self, v: u32) {
        self.value = v;
    }

    /// `atomicOr`; returns the previous value and serialization depth.
    #[inline]
    pub(crate) fn fetch_or_metered(&mut self, v: u32, epoch: u32) -> (u32, u32) {
        let prev = self.value;
        self.value = prev | v;
        (prev, self.meter.bump(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_within_epoch_and_resets_across_epochs() {
        let mut a = SimAtomicU64::new(100);
        let (_, p0) = a.fetch_min_metered(50, 7);
        let (_, p1) = a.fetch_min_metered(40, 7);
        let (_, p2) = a.fetch_min_metered(60, 7);
        assert_eq!((p0, p1, p2), (0, 1, 2));
        assert_eq!(a.contention_in_epoch(7), 3);
        assert_eq!(a.load(), 40);
        // New kernel epoch: depth restarts without any reset pass.
        let (_, p) = a.fetch_min_metered(1, 8);
        assert_eq!(p, 0);
        assert_eq!(a.contention_in_epoch(8), 1);
        assert_eq!(a.contention_in_epoch(7), 0);
    }

    #[test]
    fn fetch_min_keeps_minimum() {
        let mut a = SimAtomicU64::new(u64::MAX);
        for v in [9, 3, 7, 3, 12] {
            a.fetch_min_metered(v, 1);
        }
        assert_eq!(a.load(), 3);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut a = SimAtomicU64::new(5);
        let (r, _) = a.cas_metered(5, 6, 1);
        assert_eq!(r, Ok(5));
        let (r, _) = a.cas_metered(5, 7, 1);
        assert_eq!(r, Err(6));
        assert_eq!(a.load(), 6);
    }

    #[test]
    fn u32_or_accumulates_flags() {
        let mut a = SimAtomicU32::new(0);
        a.fetch_or_metered(0b001, 1);
        let (prev, prior) = a.fetch_or_metered(0b100, 1);
        assert_eq!((prev, prior), (0b001, 1));
        assert_eq!(a.load(), 0b101);
    }
}
