//! The hash index.
//!
//! [`PrimaryIndex`] is an open-addressing table from `i64` key to [`RowId`]:
//! lookups through `&`, inserts and removals through `&mut`. One thread
//! writes a database at a time — write-back runs on the launching thread —
//! so the lanes' concurrent inserts (TPC-C NewOrder inserting orders and
//! order lines) are modelled by their charges, not raced on the host.
//! Linear probing is used, the same collision policy the paper adopts for
//! its conflict-log hash tables (§V-C: `h(key, i) = (key + i) mod s_h`).
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
//! assume room, and `reserve` makes it for a known number of inserts before
//! they happen. A placeholder nobody reserves fills in place.

use crate::table::RowId;
use crate::hint;
use crate::zeroed::{copy_to_fresh, stored, zeroed, Zeroed};

/// Stored key of a slot never used: the zero word (key `i64::MIN`).
const EMPTY: i64 = stored(i64::MIN);
/// Stored key of a slot used, then deleted (key `i64::MIN + 1`) — probes
/// continue past it, inserts may reclaim it.
const TOMBSTONE: i64 = stored(i64::MIN + 1);

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

/// One slot: a [`stored`] key and a [`stored_rid`] row id (zero in an
/// empty or deleted slot).
#[derive(Clone, Copy)]
struct Slot {
    key: i64,
    rid: u32,
}

// SAFETY: two integers (and padding), each valid at zero.
unsafe impl Zeroed for Slot {}

impl Slot {
    /// The row id a used slot maps its key to.
    fn row(self) -> RowId {
        RowId(self.rid - 1)
    }
}

/// `n` empty slots from `alloc_zeroed`, advised onto huge pages before any
/// is written: lookups and inserts land on random slots, and a large index
/// would otherwise take a TLB miss on most of them.
fn slot_array(n: usize) -> Box<[Slot]> {
    let slots = zeroed(n);
    hint::huge_pages(&slots);
    slots
}

/// Error returned when inserting a key that is already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateKey {
    /// The row the key already maps to.
    pub existing: RowId,
}

/// Unique index: `i64` key → [`RowId`].
pub struct PrimaryIndex {
    slots: Box<[Slot]>,
    mask: usize,
    len: usize,
    /// Tombstoned slots. Probes cross them as they cross live keys, so
    /// [`reserve`](Self::reserve) keeps the two together at or below half
    /// the slots.
    tombstones: usize,
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
        PrimaryIndex::over(slot_array(slots_for(expected)), true)
    }

    /// An empty index laid out for `keys` keys: the shard cut's index,
    /// sized to the rows it keeps.
    pub(crate) fn for_keys(keys: usize) -> Self {
        PrimaryIndex::laid_out(slots_for(keys))
    }

    /// An empty index of `n` slots (a power of two), laid out.
    fn laid_out(n: usize) -> Self {
        let mut index = PrimaryIndex::over(slot_array(n), true);
        index.lay_out();
        index
    }

    /// Lay a placeholder out where it is: write one slot a page, front to
    /// back, so every page is resident before keys are placed. Hashed
    /// inserts would otherwise fault the pages in one by one in random
    /// order, at several times the cost of a fault each. Nothing is used,
    /// so every slot is `EMPTY` and stays so; the value stored is opaque to
    /// the compiler so that the stores are not dropped as writes of what
    /// zeroed memory already holds.
    fn lay_out(&mut self) {
        debug_assert_eq!(self.used(), 0, "only an empty index is laid out");
        let per_page = 4_096 / std::mem::size_of::<Slot>();
        for slot in self.slots.iter_mut().step_by(per_page) {
            slot.key = std::hint::black_box(EMPTY);
        }
        self.placeholder = false;
    }

    /// An index over `slots`, all empty or all copied from an index whose
    /// counters the caller then sets.
    fn over(slots: Box<[Slot]>, placeholder: bool) -> Self {
        let n = slots.len();
        debug_assert!(n.is_power_of_two());
        PrimaryIndex { slots, mask: n - 1, len: 0, tombstones: 0, placeholder }
    }

    /// Slots holding a key or a tombstone. While it is zero every slot is
    /// all-zero.
    fn used(&self) -> usize {
        self.len + self.tombstones
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
        let want = slots_for(self.len + n);
        let mut grown = PrimaryIndex::laid_out(want.max(self.slots.len()));
        for slot in self.slots.iter().filter(|s| s.key != EMPTY && s.key != TOMBSTONE) {
            grown.place(*slot);
        }
        *self = grown;
        true
    }

    /// Put `slot`, whose key is known absent, into the first `EMPTY` slot
    /// of its probe.
    fn place(&mut self, slot: Slot) {
        let mut at = mix_key(stored(slot.key)) as usize & self.mask;
        while self.slots[at].key != EMPTY {
            at = (at + 1) & self.mask;
        }
        self.slots[at] = slot;
        self.len += 1;
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `key → rid`. `key` must not be `i64::MIN` or `i64::MIN + 1`
    /// (reserved sentinels). Returns `Err(DuplicateKey)` if present. The
    /// index must have room ([`reserve`](Self::reserve)); an insert past
    /// half load panics under `debug_assertions`.
    pub fn insert(&mut self, key: i64, rid: RowId) -> Result<(), DuplicateKey> {
        let word = stored(key);
        assert!(word != EMPTY && word != TOMBSTONE, "reserved key value");
        let start = mix_key(key) as usize & self.mask;
        // The first tombstone on the probe path is the slot to reclaim, but
        // only once the probe has reached an EMPTY slot and so proved the
        // key absent: a live copy of `key` may sit beyond the tombstone.
        let mut reclaim: Option<usize> = None;
        let mut target = None;
        for i in 0..=self.mask {
            let at = (start + i) & self.mask;
            match self.slots[at].key {
                k if k == word => return Err(DuplicateKey { existing: self.slots[at].row() }),
                TOMBSTONE => {
                    reclaim.get_or_insert(at);
                }
                EMPTY => {
                    target = Some(reclaim.unwrap_or(at));
                    break;
                }
                _ => {}
            }
        }
        // No EMPTY slot anywhere: the whole table was probed.
        let Some(at) = target.or(reclaim) else {
            panic!("primary index full ({} slots)", self.slots.len())
        };
        if self.slots[at].key == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.slots[at] = Slot { key: word, rid: stored_rid(rid) };
        self.len += 1;
        debug_assert!(
            2 * self.len <= self.slots.len(),
            "insert past half load of a {}-slot primary index: reserve first",
            self.slots.len()
        );
        Ok(())
    }

    /// Prefetch the slot a probe for `key` starts at ([`crate::hint`]). A
    /// caller about to look a group of keys up touches them all first: the
    /// group's misses are in flight together, where [`get`](Self::get)
    /// compares each slot it loads before it goes on.
    #[inline]
    pub fn touch(&self, key: i64) {
        crate::hint::prefetch(&self.slots[mix_key(key) as usize & self.mask].key);
    }

    /// The slot holding `key`, if any.
    fn find(&self, key: i64) -> Option<usize> {
        let word = stored(key);
        if word == EMPTY || word == TOMBSTONE {
            return None;
        }
        let start = mix_key(key) as usize & self.mask;
        for i in 0..=self.mask {
            let at = (start + i) & self.mask;
            match self.slots[at].key {
                k if k == word => return Some(at),
                EMPTY => return None,
                // TOMBSTONE or a different key: probe on.
                _ => {}
            }
        }
        None
    }

    /// Look `key` up.
    pub fn get(&self, key: i64) -> Option<RowId> {
        self.find(key).map(|at| self.slots[at].row())
    }

    /// Remove `key`, leaving a tombstone. Returns the row it mapped to.
    pub fn remove(&mut self, key: i64) -> Option<RowId> {
        let at = self.find(key)?;
        let rid = self.slots[at].row();
        self.slots[at] = Slot { key: TOMBSTONE, rid: 0 };
        self.len -= 1;
        self.tombstones += 1;
        Some(rid)
    }

    /// Probe distance statistics `(mean, max)` — used by tests to sanity
    /// check the hash spread.
    pub fn probe_stats(&self) -> (f64, usize) {
        let mut total = 0usize;
        let mut worst = 0usize;
        let mut n = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.key == EMPTY || slot.key == TOMBSTONE {
                continue;
            }
            let home = mix_key(stored(slot.key)) as usize & self.mask;
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
    pub(crate) fn rebuilt(slots: usize, unlaid: bool, keys: &[i64]) -> Self {
        if unlaid {
            return PrimaryIndex::over(slot_array(slots), true);
        }
        let mut index = PrimaryIndex::laid_out(slots);
        const GROUP: usize = 32;
        for (g, words) in keys.chunks(GROUP).enumerate() {
            for &word in words {
                index.touch(stored(word));
            }
            for (i, &key) in words.iter().enumerate().filter(|&(_, &w)| w != EMPTY) {
                index.place(Slot { key, rid: stored_rid(RowId((g * GROUP + i) as u32)) });
            }
        }
        debug_assert!(2 * index.len <= slots, "an index at most half full");
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
        self.slots.iter().map(|s| (s.key, s.rid)).collect()
    }
}

/// A slot-for-slot copy: the same slot array, tombstones included, so every
/// key probes in the copy exactly as it does in the original and the cost is
/// one pass over the slots, not one hashed insert per key. The copy of an
/// index with no used slot is a placeholder of its size: zeroed memory,
/// nothing copied.
impl Clone for PrimaryIndex {
    fn clone(&self) -> Self {
        let mut copy = PrimaryIndex::over(slot_array(self.slots.len()), self.placeholder);
        if self.used() > 0 {
            copy_to_fresh(&mut copy.slots, &self.slots);
            (copy.len, copy.tombstones) = (self.len, self.tombstones);
        }
        copy
    }
}

impl std::fmt::Debug for PrimaryIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryIndex")
            .field("slots", &self.slots.len())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut idx = PrimaryIndex::with_capacity(100);
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
        let mut idx = PrimaryIndex::with_capacity(8);
        idx.insert(42, RowId(1)).unwrap();
        assert_eq!(idx.insert(42, RowId(2)), Err(DuplicateKey { existing: RowId(1) }));
        assert_eq!(idx.get(42), Some(RowId(1)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_leaves_probe_chain_intact() {
        let mut idx = PrimaryIndex::with_capacity(4);
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
        let mut idx = PrimaryIndex::with_capacity(4);
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
        let check = |idx: &mut PrimaryIndex| {
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
        check(&mut idx);
        // Three tombstones push one more insert past half: rebuilt at the
        // same size, without them.
        assert!(idx.reserve(1));
        assert_eq!((idx.slot_count(), idx.tombstones), (16, 0));
        check(&mut idx);
        // Eight more keys: doubled.
        assert!(idx.reserve(8));
        assert_eq!(idx.slot_count(), 32);
        check(&mut idx);
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
        let check = |idx: &mut PrimaryIndex| {
            assert_eq!(idx.len(), pairs.len());
            for (k, rid) in pairs {
                assert_eq!(idx.get(k), Some(rid), "key {k}");
                assert_eq!(idx.insert(k, RowId(7)), Err(DuplicateKey { existing: rid }));
            }
            assert_eq!(idx.get(2), None);
        };
        check(&mut idx);
        check(&mut idx.clone());
        assert!(idx.reserve(16));
        check(&mut idx);
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
        let mut idx = PrimaryIndex::with_capacity(8);
        for k in 0..9i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
    }

    #[test]
    fn probe_stats_reasonable_at_half_load() {
        let mut idx = PrimaryIndex::with_capacity(10_000);
        for k in 0..10_000i64 {
            idx.insert(k, RowId(k as u32)).unwrap();
        }
        let (mean, max) = idx.probe_stats();
        assert!(mean < 2.0, "mean probe distance {mean}");
        assert!(max < 64, "max probe distance {max}");
    }
}
