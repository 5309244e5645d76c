//! Small internal utilities.

use std::cell::UnsafeCell;

/// A fixed-size vector of write-once slots, writable concurrently as long
/// as every index is written by at most one thread — exactly the access
/// pattern of a kernel where lane *i* produces result *i*.
pub(crate) struct SlotVec<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: concurrent access is only through `set` with disjoint indices
// (enforced by the kernel's one-lane-per-item contract) and `peek` / `get`
// after the kernel barrier.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T> Default for SlotVec<T> {
    fn default() -> Self {
        SlotVec { slots: Vec::new() }
    }
}

impl<T> SlotVec<T> {
    /// Create `n` empty slots.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new(n: usize) -> Self {
        SlotVec { slots: (0..n).map(|_| UnsafeCell::new(None)).collect() }
    }

    /// Reset to `n` empty slots, dropping any held values but keeping the
    /// backing allocation — the arena-reuse path: a recycled `SlotVec`
    /// never reallocates while `n` stays within its high-watermark.
    pub fn reset(&mut self, n: usize) {
        for c in &mut self.slots {
            *c.get_mut() = None;
        }
        if self.slots.len() < n {
            self.slots.resize_with(n, || UnsafeCell::new(None));
        } else {
            self.slots.truncate(n);
        }
    }

    /// Read slot `i` through a shared reference. Caller contract: all
    /// writers finished (the kernel barrier passed) — concurrent readers
    /// are fine, concurrent `set` is not.
    pub fn peek(&self, i: usize) -> Option<&T> {
        // SAFETY: post-barrier read-only access; see contract above.
        unsafe { (*self.slots[i].get()).as_ref() }
    }

    /// Fill slot `i`. Caller contract: no two threads pass the same `i`.
    #[allow(clippy::mut_from_ref)]
    pub fn set(&self, i: usize, value: T) {
        // SAFETY: disjoint-index contract; see type docs.
        unsafe { *self.slots[i].get() = Some(value) };
    }

    /// Read slot `i` after all writers finished.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn get(&mut self, i: usize) -> Option<&T> {
        self.slots[i].get_mut().as_ref()
    }

    /// Number of slots.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let sv = SlotVec::<usize>::new(1_000);
        crossbeam::scope(|s| {
            for t in 0..4 {
                let sv = &sv;
                s.spawn(move |_| {
                    for i in (t..1_000).step_by(4) {
                        sv.set(i, i * 2);
                    }
                });
            }
        })
        .unwrap();
        assert!((0..1_000).all(|i| sv.peek(i) == Some(&(i * 2))));
    }

    #[test]
    fn get_after_fill() {
        let mut sv = SlotVec::new(3);
        sv.set(1, "x");
        assert_eq!(sv.get(0), None);
        assert_eq!(sv.get(1), Some(&"x"));
        assert_eq!(sv.peek(1), Some(&"x"));
        assert_eq!(sv.len(), 3);
    }

    #[test]
    fn reset_recycles_without_reallocating() {
        let mut sv: SlotVec<String> = SlotVec::new(8);
        sv.set(3, "held".to_string());
        let base = sv.slots.as_ptr();
        sv.reset(8);
        assert_eq!(sv.peek(3), None, "reset must drop held values");
        assert_eq!(sv.slots.as_ptr(), base, "same-size reset must not reallocate");
        // Shrinking keeps the allocation too; regrowing within the old
        // watermark reuses it.
        sv.reset(2);
        assert_eq!(sv.len(), 2);
        sv.reset(8);
        assert_eq!(sv.slots.as_ptr(), base);
        assert_eq!(sv.len(), 8);
    }
}
