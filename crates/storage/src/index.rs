//! The hash index.
//!
//! [`PrimaryIndex`] is a lock-free open-addressing table from `i64` key to
//! [`RowId`], safe for concurrent inserts and lookups — it is what the
//! write-back kernel's lanes use when transactions insert rows (TPC-C
//! NewOrder inserting orders and order lines). Linear probing is used, the
//! same collision policy the paper adopts for its conflict-log hash tables
//! (§V-C: `h(key, i) = (key + i) mod s_h`).
//!
//! An index never grows on its own: inserts through `&self` assume room,
//! and [`PrimaryIndex::reserve`] (`&mut`, so never during a launch) makes it
//! for a known number of inserts before they happen.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};

use crate::dirty::{in_groups, DirtyBits};
use crate::table::RowId;

/// Key value meaning "slot never used".
const EMPTY: i64 = i64::MIN;
/// Key value meaning "slot used, then deleted" — probes continue past it,
/// inserts may reclaim it.
const TOMBSTONE: i64 = i64::MIN + 1;
/// RowId value meaning "slot claimed, row id not yet published".
const PENDING: u32 = u32::MAX;

/// Finalizer-quality mix of an `i64` key (splitmix64 finalizer).
#[inline]
pub fn mix_key(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Slot {
    key: AtomicI64,
    rid: AtomicU32,
}

/// Error returned when inserting a key that is already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateKey {
    /// The row the key already maps to.
    pub existing: RowId,
}

/// Lock-free unique index: `i64` key → [`RowId`].
pub struct PrimaryIndex {
    slots: Box<[Slot]>,
    mask: usize,
    len: AtomicUsize,
    /// Tombstoned slots. Probes cross them as they cross live keys, so
    /// [`reserve`](Self::reserve) keeps the two together at or below half
    /// the slots. Counted on remove and reclaim, so an insert into an
    /// empty slot pays for `len` alone.
    tombstones: AtomicUsize,
    /// Slots claimed or tombstoned since an image of this index was last
    /// brought up to date ([`refresh_from`](Self::refresh_from)).
    dirty: DirtyBits,
}

impl PrimaryIndex {
    /// Create an index that takes `expected` inserts before it must
    /// [`reserve`](Self::reserve) more: the slot array is the next power of
    /// two at or above `2 * expected` (16 at least), so it is at most half
    /// full. A fresh table sizes it for its whole schema capacity; a shard
    /// slice for the rows it was cut with.
    pub fn with_capacity(expected: usize) -> Self {
        PrimaryIndex::of_slots((expected.max(8) * 2).next_power_of_two())
    }

    /// An empty index of `n` slots (a power of two).
    fn of_slots(n: usize) -> Self {
        let slots = (0..n)
            .map(|_| Slot { key: AtomicI64::new(EMPTY), rid: AtomicU32::new(PENDING) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PrimaryIndex {
            slots,
            mask: n - 1,
            len: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
            dirty: DirtyBits::new(n),
        }
    }

    /// Make room for `n` more inserts: if they could take the used slots
    /// (live keys and tombstones) past half the array, rebuild it with
    /// every live key under the same [`RowId`], no tombstone, and at least
    /// twice as many slots as live keys plus `n` (never fewer than now).
    /// Returns whether it rebuilt: a rebuilt index has another slot layout,
    /// so no image of it can be brought up to date slot by slot.
    pub fn reserve(&mut self, n: usize) -> bool {
        let used = self.len() + *self.tombstones.get_mut();
        if 2 * (used + n) <= self.slots.len() {
            return false;
        }
        let want = ((self.len() + n).max(8) * 2).next_power_of_two();
        let mut grown = PrimaryIndex::of_slots(want.max(self.slots.len()));
        for slot in self.slots.iter_mut() {
            let key = *slot.key.get_mut();
            if key != EMPTY && key != TOMBSTONE {
                grown.place(key, *slot.rid.get_mut());
            }
        }
        *self = grown;
        true
    }

    /// Put `key`, known absent, into the first `EMPTY` slot of its probe.
    fn place(&mut self, key: i64, rid: u32) {
        let mut at = mix_key(key) as usize & self.mask;
        while *self.slots[at].key.get_mut() != EMPTY {
            at = (at + 1) & self.mask;
        }
        let slot = &mut self.slots[at];
        *slot.key.get_mut() = key;
        *slot.rid.get_mut() = rid;
        *self.len.get_mut() += 1;
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `key → rid`. `key` must not be `i64::MIN` or `i64::MIN + 1`
    /// (reserved sentinels). Returns `Err(DuplicateKey)` if present.
    pub fn insert(&self, key: i64, rid: RowId) -> Result<(), DuplicateKey> {
        assert!(key != EMPTY && key != TOMBSTONE, "reserved key value");
        let start = mix_key(key) as usize & self.mask;
        // The first tombstone on the probe path is the slot to reclaim, but
        // only once the probe has reached an EMPTY slot and so proved the
        // key absent: a live copy of `key` may sit beyond the tombstone.
        let mut reclaim: Option<usize> = None;
        for i in 0..=self.mask {
            let at = (start + i) & self.mask;
            let slot = &self.slots[at];
            let mut k = slot.key.load(Ordering::Acquire);
            loop {
                if k == key {
                    return Err(DuplicateKey { existing: self.wait_rid(slot) });
                }
                if k == TOMBSTONE {
                    reclaim.get_or_insert(at);
                }
                if k != EMPTY {
                    break; // tombstone or another key; probe on
                }
                let (target, vacant) = reclaim.map_or((at, EMPTY), |t| (t, TOMBSTONE));
                match self.claim(target, vacant, key, rid) {
                    Ok(()) => return Ok(()),
                    Err(observed) if observed == key => {
                        return Err(DuplicateKey { existing: self.wait_rid(&self.slots[target]) });
                    }
                    // Lost the race for the slot to another key; re-examine
                    // this slot with no tombstone in hand.
                    Err(_) => {
                        reclaim = None;
                        k = slot.key.load(Ordering::Acquire);
                    }
                }
            }
        }
        // No EMPTY slot left anywhere: the whole table was probed.
        if let Some(target) = reclaim {
            if self.claim(target, TOMBSTONE, key, rid).is_ok() {
                return Ok(());
            }
        }
        panic!("primary index full ({} slots)", self.slots.len());
    }

    /// Claim slot `at` for `key` if it still holds `vacant` (EMPTY or
    /// TOMBSTONE), publishing `rid`; otherwise return the key found there.
    fn claim(&self, at: usize, vacant: i64, key: i64, rid: RowId) -> Result<(), i64> {
        let slot = &self.slots[at];
        slot.key.compare_exchange(vacant, key, Ordering::AcqRel, Ordering::Acquire)?;
        slot.rid.store(rid.0, Ordering::Release);
        self.dirty.mark(at);
        if vacant == TOMBSTONE {
            self.tombstones.fetch_sub(1, Ordering::Relaxed);
        }
        let live = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        debug_assert!(
            2 * live <= self.slots.len(),
            "insert past half load of a {}-slot primary index: reserve first",
            self.slots.len()
        );
        Ok(())
    }

    /// A claimed slot publishes its row id momentarily after the key; spin
    /// for it (bounded by one store on the writer side).
    #[inline]
    fn wait_rid(&self, slot: &Slot) -> RowId {
        loop {
            let r = slot.rid.load(Ordering::Acquire);
            if r != PENDING {
                return RowId(r);
            }
            std::hint::spin_loop();
        }
    }

    /// Load the slot a probe for `key` starts at and decide nothing from
    /// it. A caller about to look a group of keys up touches them all
    /// first: no branch waits on a touch, so the group's misses overlap,
    /// where [`get`](Self::get) compares each slot it loads before it goes
    /// on.
    #[inline]
    pub fn touch(&self, key: i64) {
        let slot = &self.slots[mix_key(key) as usize & self.mask];
        std::hint::black_box(slot.key.load(Ordering::Relaxed));
    }

    /// Look `key` up.
    pub fn get(&self, key: i64) -> Option<RowId> {
        if key == EMPTY || key == TOMBSTONE {
            return None;
        }
        let start = mix_key(key) as usize & self.mask;
        for i in 0..=self.mask {
            let slot = &self.slots[(start + i) & self.mask];
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return Some(self.wait_rid(slot));
            }
            if k == EMPTY {
                return None;
            }
            // TOMBSTONE or a different key: probe on.
        }
        None
    }

    /// Remove `key`, leaving a tombstone. Returns the row it mapped to.
    pub fn remove(&self, key: i64) -> Option<RowId> {
        if key == EMPTY || key == TOMBSTONE {
            return None;
        }
        let start = mix_key(key) as usize & self.mask;
        for i in 0..=self.mask {
            let at = (start + i) & self.mask;
            let slot = &self.slots[at];
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                let rid = self.wait_rid(slot);
                slot.rid.store(PENDING, Ordering::Release);
                slot.key.store(TOMBSTONE, Ordering::Release);
                self.dirty.mark(at);
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.tombstones.fetch_add(1, Ordering::Relaxed);
                return Some(rid);
            }
            if k == EMPTY {
                return None;
            }
        }
        None
    }

    /// Probe distance statistics `(mean, max)` — used by tests to sanity
    /// check the hash spread.
    pub fn probe_stats(&self) -> (f64, usize) {
        let mut total = 0usize;
        let mut worst = 0usize;
        let mut n = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            let k = slot.key.load(Ordering::Relaxed);
            if k == EMPTY || k == TOMBSTONE {
                continue;
            }
            let home = mix_key(k) as usize & self.mask;
            let dist = (idx + self.slots.len() - home) & self.mask;
            total += dist;
            worst = worst.max(dist);
            n += 1;
        }
        (if n == 0 { 0.0 } else { total as f64 / n as f64 }, worst)
    }
}

impl PrimaryIndex {
    /// Bring `self`, an image that mirrored `src` when the marks of both
    /// were last cleared, up to date: the slots either side claimed or
    /// tombstoned since are copied one for one (an image is not meant to be
    /// written, but if it was its own marks say where it strayed) and the
    /// marks cleared. Returns the number of slots copied. Like `clone`,
    /// must not race a writer.
    pub(crate) fn refresh_from(&mut self, src: &PrimaryIndex) -> u64 {
        debug_assert_eq!(self.slots.len(), src.slots.len(), "a mirror has its source's shape");
        let PrimaryIndex { slots, dirty, len, tombstones, .. } = self;
        *len.get_mut() = src.len();
        *tombstones.get_mut() = src.tombstones.load(Ordering::Relaxed);
        in_groups(src.dirty.drain_with(dirty), |group| {
            for &at in group {
                std::hint::black_box(src.slots[at].key.load(Ordering::Relaxed));
                std::hint::black_box(slots[at].key.load(Ordering::Relaxed));
            }
            for &at in group {
                copy_slot(&mut slots[at], &src.slots[at]);
            }
        })
    }

    /// Forget which slots were written: an image was just made a full copy
    /// of this index.
    pub(crate) fn clear_dirty(&self) {
        self.dirty.clear();
    }

    /// Number of slots (live, tombstoned and empty).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `(key, row id)` bits of every slot, for tests that hold an image
    /// slot-equal to a fresh clone.
    #[cfg(test)]
    pub(crate) fn slot_bits(&self) -> Vec<(i64, u32)> {
        let bits = |s: &Slot| (s.key.load(Ordering::Relaxed), s.rid.load(Ordering::Relaxed));
        self.slots.iter().map(bits).collect()
    }
}

fn copy_slot(dst: &mut Slot, src: &Slot) {
    *dst.key.get_mut() = src.key.load(Ordering::Acquire);
    *dst.rid.get_mut() = src.rid.load(Ordering::Acquire);
}

/// A slot-for-slot copy: the same slot array, tombstones included, so every
/// key probes in the copy exactly as it does in the original and the cost is
/// one pass over the slots, not one hashed insert per key. The copy starts
/// with no slot marked written. Must not race a writer (a slot caught
/// between its key and row-id stores would be copied half-published); every
/// caller clones at a batch boundary.
impl Clone for PrimaryIndex {
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .map(|s| Slot {
                key: AtomicI64::new(s.key.load(Ordering::Acquire)),
                rid: AtomicU32::new(s.rid.load(Ordering::Acquire)),
            })
            .collect();
        PrimaryIndex {
            slots,
            mask: self.mask,
            len: AtomicUsize::new(self.len()),
            tombstones: AtomicUsize::new(self.tombstones.load(Ordering::Relaxed)),
            dirty: DirtyBits::new(self.slots.len()),
        }
    }

    /// The same copy into the slot array `self` already has (nothing is
    /// allocated); a `self` of another size is replaced by a fresh clone.
    fn clone_from(&mut self, src: &Self) {
        if self.slots.len() != src.slots.len() {
            *self = src.clone();
            return;
        }
        for (dst, s) in self.slots.iter_mut().zip(src.slots.iter()) {
            copy_slot(dst, s);
        }
        *self.len.get_mut() = src.len();
        *self.tombstones.get_mut() = src.tombstones.load(Ordering::Relaxed);
        self.dirty.clear();
    }
}

impl std::fmt::Debug for PrimaryIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryIndex")
            .field("slots", &self.slots.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let idx = PrimaryIndex::with_capacity(100);
        for k in 0..100i64 {
            idx.insert(k * 7 - 50, RowId(k as u32)).unwrap();
        }
        assert_eq!(idx.len(), 100);
        for k in 0..100i64 {
            assert_eq!(idx.get(k * 7 - 50), Some(RowId(k as u32)));
        }
        assert_eq!(idx.get(1_000_000), None);
    }

    #[test]
    fn duplicate_insert_reports_existing_row() {
        let idx = PrimaryIndex::with_capacity(8);
        idx.insert(42, RowId(1)).unwrap();
        assert_eq!(idx.insert(42, RowId(2)), Err(DuplicateKey { existing: RowId(1) }));
        assert_eq!(idx.get(42), Some(RowId(1)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_leaves_probe_chain_intact() {
        let idx = PrimaryIndex::with_capacity(4);
        // Force collisions in a tiny table: many keys, small slot count.
        for k in 0..8i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        assert_eq!(idx.remove(3), Some(RowId(3)));
        assert_eq!(idx.get(3), None);
        // Keys that may have probed past key 3's slot must remain findable.
        for k in (0..8i64).filter(|&k| k != 3) {
            assert_eq!(idx.get(k), Some(RowId(k as u32)), "key {k} lost after remove");
        }
        // Tombstone slot is reusable.
        idx.insert(100, RowId(100)).unwrap();
        assert_eq!(idx.get(100), Some(RowId(100)));
    }

    /// A key stored past a tombstone (its probe path crossed a slot that
    /// was later deleted) is still a duplicate: the insert must not settle
    /// into the tombstone before it has looked further.
    #[test]
    fn duplicate_past_a_tombstone_is_rejected() {
        let idx = PrimaryIndex::with_capacity(4);
        for k in 0..8i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        for gone in 0..8i64 {
            assert_eq!(idx.remove(gone), Some(RowId(gone as u32)));
            for k in (0..8i64).filter(|&k| k != gone) {
                assert_eq!(
                    idx.insert(k, RowId(99)),
                    Err(DuplicateKey { existing: RowId(k as u32) }),
                    "key {k} after removing {gone}"
                );
            }
            assert_eq!(idx.len(), 7);
            idx.insert(gone, RowId(gone as u32)).unwrap();
        }
    }

    /// `reserve` rebuilds only when the inserts it is told of could take
    /// the used slots (tombstones count) past half load; a rebuild keeps
    /// every key's row id, drops the tombstones and keeps the rules pinned
    /// above: a removed key is absent, a present one is a duplicate of its
    /// row, and a key past a former tombstone is still found.
    #[test]
    fn reserve_keeps_every_row_id_and_the_duplicate_rules() {
        let mut idx = PrimaryIndex::with_capacity(8);
        assert_eq!(idx.slot_count(), 16);
        for k in 0..8i64 {
            idx.insert(k * 5, RowId(k as u32)).unwrap();
        }
        for k in (0..8i64).step_by(3) {
            assert_eq!(idx.remove(k * 5), Some(RowId(k as u32)));
        }
        let check = |idx: &PrimaryIndex| {
            for k in 0..8i64 {
                let want = (k % 3 != 0).then_some(RowId(k as u32));
                assert_eq!(idx.get(k * 5), want, "key {}", k * 5);
                if let Some(existing) = want {
                    assert_eq!(idx.insert(k * 5, RowId(99)), Err(DuplicateKey { existing }));
                }
            }
            assert_eq!(idx.len(), 5);
        };
        assert!(!idx.reserve(0), "eight used slots of sixteen is half load, not past it");
        check(&idx);
        // Three tombstones push one more insert past half: rebuilt at the
        // same size, without them.
        assert!(idx.reserve(1));
        assert_eq!((idx.slot_count(), *idx.tombstones.get_mut()), (16, 0));
        check(&idx);
        // Eight more keys: doubled.
        assert!(idx.reserve(8));
        assert_eq!(idx.slot_count(), 32);
        check(&idx);
        for k in 100..108i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        assert!(!idx.reserve(0));
        for gone in 100..108i64 {
            assert_eq!(idx.remove(gone), Some(RowId(gone as u32)));
            for k in (100..108i64).filter(|&k| k != gone) {
                let existing = RowId(k as u32);
                assert_eq!(idx.insert(k, RowId(7)), Err(DuplicateKey { existing }));
            }
            idx.insert(gone, RowId(gone as u32)).unwrap();
        }
        assert_eq!(idx.len(), 13);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserve first")]
    fn an_insert_past_half_load_without_a_reserve_panics() {
        let idx = PrimaryIndex::with_capacity(8);
        for k in 0..9i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let idx = PrimaryIndex::with_capacity(8_000);
        let threads = 8i64;
        let per = 1_000i64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let idx = &idx;
                s.spawn(move |_| {
                    for i in 0..per {
                        let k = t * per + i;
                        idx.insert(k, RowId(k as u32)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(idx.len(), (threads * per) as usize);
        for k in 0..threads * per {
            assert_eq!(idx.get(k), Some(RowId(k as u32)));
        }
    }

    #[test]
    fn racing_inserts_of_same_key_admit_exactly_one() {
        for _ in 0..20 {
            let idx = PrimaryIndex::with_capacity(64);
            let winners = std::sync::atomic::AtomicUsize::new(0);
            crossbeam::scope(|s| {
                for t in 0..8u32 {
                    let idx = &idx;
                    let winners = &winners;
                    s.spawn(move |_| {
                        if idx.insert(7, RowId(t)).is_ok() {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            })
            .unwrap();
            assert_eq!(winners.load(Ordering::Relaxed), 1);
            assert!(idx.get(7).is_some());
        }
    }

    #[test]
    fn probe_stats_reasonable_at_half_load() {
        let idx = PrimaryIndex::with_capacity(10_000);
        for k in 0..10_000i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        let (mean, max) = idx.probe_stats();
        assert!(mean < 2.0, "mean probe distance {mean}");
        assert!(max < 64, "max probe distance {max}");
    }
}
