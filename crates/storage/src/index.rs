//! The hash index.
//!
//! [`PrimaryIndex`] is a lock-free open-addressing table from `i64` key to
//! [`RowId`], safe for concurrent inserts and lookups — it is what the
//! write-back kernel's lanes use when transactions insert rows (TPC-C
//! NewOrder inserting orders and order lines). Linear probing is used, the
//! same collision policy the paper adopts for its conflict-log hash tables
//! (§V-C: `h(key, i) = (key + i) mod s_h`).
//!
//! A slot stores its key as `key ^ i64::MIN` and its row id plus one, so
//! the all-zero slot is an empty one. A fresh table's index
//! ([`PrimaryIndex::with_capacity`]) is therefore a *placeholder*: its slots
//! come from `alloc_zeroed` and are never written, and however many there
//! are they cost no memory until something is inserted. A copy of an index
//! with no used slot is zeroed memory too, with nothing copied.
//!
//! A checkpoint image holds no index, only the slot count of its source's
//! ([`crate::Image`]); [`PrimaryIndex::rebuilt`] lays one out at that count
//! from the image's key column, every key under its own row id.
//!
//! [`PrimaryIndex::reserve`] is what lays an index out for the rows it will
//! hold. The first reservation of a placeholder lays it out for the count
//! reserved, with room for seven more reservations like it; later ones
//! grow it. Every array it lays out is written front to
//! back before any key is placed. An index never grows on its own: inserts
//! through `&self` assume room, and `reserve` (`&mut`, so never during a
//! launch) makes it for a known number of inserts before they happen. A
//! placeholder nobody reserves fills in place.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};

use crate::table::RowId;
use crate::zeroed::{stored, zeroed, Zeroed};

/// Stored key of a slot never used: the zero word (key `i64::MIN`).
const EMPTY: i64 = stored(i64::MIN);
/// Stored key of a slot used, then deleted (key `i64::MIN + 1`) — probes
/// continue past it, inserts may reclaim it.
const TOMBSTONE: i64 = stored(i64::MIN + 1);
/// Stored row id of a slot claimed whose row id is not yet published (and
/// of an empty or deleted one): zero, since a slot stores its row id plus
/// one.
const PENDING: u32 = 0;

/// The stored word of row id `rid`.
#[inline]
fn stored_rid(rid: RowId) -> u32 {
    debug_assert!(rid.0 != u32::MAX, "row id {} is reserved", rid.0);
    rid.0.wrapping_add(1)
}

/// Finalizer-quality mix of an `i64` key (splitmix64 finalizer).
#[inline]
pub fn mix_key(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One slot: a [`stored`] key and a [`stored_rid`] row id.
struct Slot {
    key: AtomicI64,
    rid: AtomicU32,
}

// SAFETY: two atomics (and padding), each valid at zero.
unsafe impl Zeroed for Slot {}

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
    /// Whether the slots are a placeholder's, never laid out by
    /// [`reserve`](Self::reserve). Copies keep it, and an image records
    /// whether it still applies ([`unlaid`](Self::unlaid)), so a copy or a
    /// replay reserves to the sizes its source did.
    placeholder: bool,
}

/// Slots of an index laid out for `keys` keys: the next power of two at or
/// above twice them, 16 at least, so it is at most half full.
fn slots_for(keys: usize) -> usize {
    (keys.max(8) * 2).next_power_of_two()
}

/// Reservations like the first that a placeholder's first layout holds.
/// The first is usually one batch's inserts, and every batch after it
/// inserts about as many: with room for one, the index would grow after the
/// second batch, the fourth, the eighth — each growth a rebuild of every
/// live key — just as the run settles.
const FIRST_ROOM: usize = 8;

impl PrimaryIndex {
    /// A placeholder for `expected` inserts: `next_pow2(2 * expected)`
    /// slots (16 at least), never written and so never resident. Inserts
    /// may fill it in place up to half load; a [`reserve`](Self::reserve)
    /// before any insert lays it out for the count it is given. A fresh
    /// table makes one for its whole schema capacity.
    pub fn with_capacity(expected: usize) -> Self {
        PrimaryIndex::over(zeroed(slots_for(expected)), true)
    }

    /// An empty index laid out for `keys` keys: the shard cut's index,
    /// sized to the rows it keeps.
    pub(crate) fn for_keys(keys: usize) -> Self {
        PrimaryIndex::laid_out(slots_for(keys))
    }

    /// An empty index of `n` slots (a power of two), laid out.
    fn laid_out(n: usize) -> Self {
        let mut index = PrimaryIndex::over(zeroed(n), true);
        index.lay_out();
        index
    }

    /// Lay a placeholder out where it is: write one slot a page, front to
    /// back, so every page is resident before keys are placed. Hashed
    /// inserts would otherwise fault the pages in one by one in random
    /// order, at several times the cost of a fault each. Nothing is used,
    /// so every slot is `EMPTY` and stays so; the stores are atomic so that
    /// they are not dropped as writes of what zeroed memory already holds.
    fn lay_out(&mut self) {
        debug_assert_eq!(self.used(), 0, "only an empty index is laid out");
        let per_page = 4_096 / std::mem::size_of::<Slot>();
        for slot in self.slots.iter().step_by(per_page) {
            slot.key.store(EMPTY, Ordering::Relaxed);
        }
        self.placeholder = false;
    }

    /// An index over `slots`, all empty or all copied from an index whose
    /// counters the caller then sets.
    fn over(slots: Box<[Slot]>, placeholder: bool) -> Self {
        let n = slots.len();
        debug_assert!(n.is_power_of_two());
        PrimaryIndex {
            slots,
            mask: n - 1,
            len: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
            placeholder,
        }
    }

    /// Slots holding a key or a tombstone. While it is zero every slot is
    /// all-zero.
    fn used(&self) -> usize {
        self.len() + self.tombstones.load(Ordering::Relaxed)
    }

    /// Make room for `n` more inserts, laying the index out as it goes.
    ///
    /// - A placeholder nothing was inserted into is replaced by an empty
    ///   index laid out for [`FIRST_ROOM`] reservations of `n`:
    ///   `next_pow2(2n) × FIRST_ROOM` slots, but no more than the
    ///   placeholder had (a loader reserving a table's whole contents keeps
    ///   its size) and never too few for `n`.
    /// - Otherwise, if the `n` inserts could take the used slots (live keys
    ///   and tombstones) past half the array, it is rebuilt with every live
    ///   key under the same [`RowId`], no tombstone, and at least twice as
    ///   many slots as live keys plus `n` (never fewer than now).
    ///
    /// Returns whether the index was replaced (a placeholder laid out at
    /// its own size is laid out where it is).
    pub fn reserve(&mut self, n: usize) -> bool {
        let used = self.used();
        if self.placeholder && used == 0 {
            let need = slots_for(n);
            let want = (need * FIRST_ROOM).min(self.slots.len()).max(need);
            if want == self.slots.len() {
                self.lay_out();
                return false;
            }
            *self = PrimaryIndex::laid_out(want);
            return true;
        }
        if 2 * (used + n) <= self.slots.len() {
            return false;
        }
        let want = slots_for(self.len() + n);
        let mut grown = PrimaryIndex::laid_out(want.max(self.slots.len()));
        for slot in self.slots.iter_mut() {
            let key = *slot.key.get_mut();
            if key != EMPTY && key != TOMBSTONE {
                grown.place(key, *slot.rid.get_mut());
            }
        }
        *self = grown;
        true
    }

    /// Put the stored key `word`, known absent, into the first `EMPTY`
    /// slot of its probe, with the stored row id `rid`.
    fn place(&mut self, word: i64, rid: u32) {
        let mut at = mix_key(stored(word)) as usize & self.mask;
        while *self.slots[at].key.get_mut() != EMPTY {
            at = (at + 1) & self.mask;
        }
        let slot = &mut self.slots[at];
        *slot.key.get_mut() = word;
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
        let word = stored(key);
        assert!(word != EMPTY && word != TOMBSTONE, "reserved key value");
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
                if k == word {
                    return Err(DuplicateKey { existing: self.wait_rid(slot) });
                }
                if k == TOMBSTONE {
                    reclaim.get_or_insert(at);
                }
                if k != EMPTY {
                    break; // tombstone or another key; probe on
                }
                let (target, vacant) = reclaim.map_or((at, EMPTY), |t| (t, TOMBSTONE));
                match self.claim(target, vacant, word, rid) {
                    Ok(()) => return Ok(()),
                    Err(observed) if observed == word => {
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
            if self.claim(target, TOMBSTONE, word, rid).is_ok() {
                return Ok(());
            }
        }
        panic!("primary index full ({} slots)", self.slots.len());
    }

    /// Claim slot `at` for the stored key `word` if it still holds `vacant`
    /// (EMPTY or TOMBSTONE), publishing `rid`; otherwise return the stored
    /// key found there.
    fn claim(&self, at: usize, vacant: i64, word: i64, rid: RowId) -> Result<(), i64> {
        let slot = &self.slots[at];
        slot.key.compare_exchange(vacant, word, Ordering::AcqRel, Ordering::Acquire)?;
        slot.rid.store(stored_rid(rid), Ordering::Release);
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
                return RowId(r - 1);
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
        let word = stored(key);
        if word == EMPTY || word == TOMBSTONE {
            return None;
        }
        let start = mix_key(key) as usize & self.mask;
        for i in 0..=self.mask {
            let slot = &self.slots[(start + i) & self.mask];
            let k = slot.key.load(Ordering::Acquire);
            if k == word {
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
        let word = stored(key);
        if word == EMPTY || word == TOMBSTONE {
            return None;
        }
        let start = mix_key(key) as usize & self.mask;
        for i in 0..=self.mask {
            let at = (start + i) & self.mask;
            let slot = &self.slots[at];
            let k = slot.key.load(Ordering::Acquire);
            if k == word {
                let rid = self.wait_rid(slot);
                slot.rid.store(PENDING, Ordering::Release);
                slot.key.store(TOMBSTONE, Ordering::Release);
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
            let home = mix_key(stored(k)) as usize & self.mask;
            let dist = (idx + self.slots.len() - home) & self.mask;
            total += dist;
            worst = worst.max(dist);
            n += 1;
        }
        (if n == 0 { 0.0 } else { total as f64 / n as f64 }, worst)
    }
}

impl PrimaryIndex {
    /// An index of `slots` slots (a power of two, at least twice the live
    /// keys) over a key column: every live word of `keys` (a [`stored`]
    /// key; zero is a vacant row slot) is placed under the row id of its
    /// position. With `unlaid` it is the placeholder its source was, holding
    /// nothing; otherwise it is laid out first, and reserves from here as
    /// its source did: the same slot count, no tombstone. The placement
    /// touches each group's home slots before it probes any, so the group's
    /// cache misses overlap.
    pub(crate) fn rebuilt(slots: usize, unlaid: bool, keys: &[AtomicI64]) -> Self {
        if unlaid {
            return PrimaryIndex::over(zeroed(slots), true);
        }
        let mut index = PrimaryIndex::laid_out(slots);
        const GROUP: usize = 32;
        let mut group = [EMPTY; GROUP];
        for (g, words) in keys.chunks(GROUP).enumerate() {
            let group = &mut group[..words.len()];
            for (word, key) in group.iter_mut().zip(words) {
                *word = key.load(Ordering::Acquire);
                index.touch(stored(*word));
            }
            for (i, &word) in group.iter().enumerate().filter(|&(_, &w)| w != EMPTY) {
                index.place(word, stored_rid(RowId((g * GROUP + i) as u32)));
            }
        }
        debug_assert!(2 * index.len() <= slots, "an index at most half full");
        index
    }

    /// Whether this is a placeholder nothing was put in: its first
    /// [`reserve`](Self::reserve) lays it out for the count reserved.
    pub(crate) fn unlaid(&self) -> bool {
        self.placeholder && self.used() == 0
    }

    /// Number of slots (live, tombstoned and empty).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `(key, row id)` bits of every slot, for tests.
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
/// one pass over the slots, not one hashed insert per key. The copy of an
/// index with no used slot is a placeholder of its size: zeroed memory,
/// nothing copied. Must not race a writer (a slot caught between its key and row-id stores would be
/// copied half-published); every caller clones at a batch boundary.
impl Clone for PrimaryIndex {
    fn clone(&self) -> Self {
        let mut copy = PrimaryIndex::over(zeroed(self.slots.len()), self.placeholder);
        if self.used() > 0 {
            for (dst, s) in copy.slots.iter_mut().zip(self.slots.iter()) {
                copy_slot(dst, s);
            }
            *copy.len.get_mut() = self.len();
            *copy.tombstones.get_mut() = self.tombstones.load(Ordering::Relaxed);
        }
        copy
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

    /// Slots store `key ^ i64::MIN` and the row id plus one: key 0 and the
    /// negative keys next to the reserved pair, `RowId(0)` and the largest
    /// row id (`u32::MAX` is not one) survive insert, lookup, a duplicate
    /// insert, a clone, a rebuild and removal, and a new placeholder is
    /// all-zero slots. The reserved keys are still refused.
    #[test]
    fn zero_encoded_slots_round_trip_every_key_and_row_id() {
        let mut idx = PrimaryIndex::with_capacity(8);
        assert!(idx.slot_bits().iter().all(|&slot| slot == (0, 0)));
        let top = RowId(u32::MAX - 1);
        let pairs = [
            (0, RowId(0)),
            (-1, top),
            (i64::MIN + 2, RowId(1)),
            (i64::MAX, RowId(2)),
            (1, RowId(u32::MAX >> 1)),
        ];
        for (k, rid) in pairs {
            idx.insert(k, rid).unwrap();
        }
        let check = |idx: &PrimaryIndex| {
            assert_eq!(idx.len(), pairs.len());
            for (k, rid) in pairs {
                assert_eq!(idx.get(k), Some(rid), "key {k}");
                assert_eq!(idx.insert(k, RowId(7)), Err(DuplicateKey { existing: rid }));
            }
            assert_eq!(idx.get(2), None);
        };
        check(&idx);
        check(&idx.clone());
        assert!(idx.reserve(16));
        check(&idx);
        assert_eq!(idx.remove(-1), Some(top));
        assert_eq!((idx.get(-1), idx.remove(-1)), (None, None));
        for reserved in [i64::MIN, i64::MIN + 1] {
            assert_eq!((idx.get(reserved), idx.remove(reserved)), (None, None));
            let insert = std::panic::AssertUnwindSafe(|| idx.insert(reserved, RowId(3)));
            let refused = std::panic::catch_unwind(insert).expect_err("reserved key inserted");
            assert_eq!(refused.downcast_ref::<&str>(), Some(&"reserved key value"));
        }
        assert_eq!(idx.len(), pairs.len() - 1);
    }

    /// A placeholder's first `reserve` lays it out for eight reservations
    /// of the count (`next_pow2(2n) × 8` slots), never more than the
    /// placeholder had nor fewer than the count needs, and says whether the
    /// size changed; copies of a placeholder are reserved the same way.
    /// After that `reserve` only grows it, and every row id survives.
    #[test]
    fn a_first_reserve_lays_a_placeholder_out_and_later_ones_only_grow_it() {
        let mut idx = PrimaryIndex::with_capacity(1_000);
        assert_eq!(idx.slot_count(), 2_048);
        let mut copy = idx.clone();
        assert!(idx.reserve(10));
        assert_eq!(idx.slot_count(), 256);
        assert!(copy.reserve(10));
        assert_eq!(copy.slot_count(), 256);
        assert!(!idx.reserve(128), "laid out: room for 128 keys");
        for k in 0..128i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        assert!(!idx.reserve(0));
        assert!(idx.reserve(1));
        assert_eq!(idx.slot_count(), 512);
        for k in 0..128i64 {
            assert_eq!(idx.get(k), Some(RowId(k as u32)));
        }

        let mut whole = PrimaryIndex::with_capacity(1_000);
        assert!(!whole.reserve(1_000), "a loader's reservation keeps the placeholder's size");
        assert_eq!(whole.slot_count(), 2_048);
        let mut small = PrimaryIndex::with_capacity(8);
        assert!(small.reserve(100), "more than the placeholder was made for");
        assert_eq!(small.slot_count(), 256);
        // An empty index that is not a placeholder only grows.
        let mut cut = PrimaryIndex::for_keys(100);
        assert!(!cut.reserve(10));
        assert_eq!(cut.slot_count(), 256);
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
