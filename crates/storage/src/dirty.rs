//! Which slots of an array were written since an image of it was last
//! brought up to date, and what such a refresh copied.
//!
//! A [`DirtyBits`] is one bit per slot (row slot of a [`Table`], slot of a
//! [`PrimaryIndex`]). Writers mark through `&self`; the refresh
//! ([`Table::deep_clone_from`]) takes the marks word by word. The bitmaps
//! are host-side bookkeeping: they are not part of the modelled device
//! footprint ([`Table::bytes`]) and nothing charged to the simulated clock
//! reads them.
//!
//! [`Table`]: crate::Table
//! [`Table::bytes`]: crate::Table::bytes
//! [`Table::deep_clone_from`]: crate::Table::deep_clone_from
//! [`PrimaryIndex`]: crate::PrimaryIndex

use std::sync::atomic::{AtomicU64, Ordering};

use crate::zeroed::zeroed;

/// One dirty bit per slot of some array.
///
/// Every access is `Relaxed`: a bit publishes no other data. It is read only
/// by a refresh, and a refresh runs at a batch boundary — the barrier that
/// ends the writing phase is what orders the writers' cell stores (and these
/// marks) before it.
pub(crate) struct DirtyBits {
    words: Box<[AtomicU64]>,
}

impl DirtyBits {
    /// All-clean bits for `slots` slots, from `alloc_zeroed`: a page of
    /// them costs memory only once a slot it covers is marked.
    pub(crate) fn new(slots: usize) -> Self {
        DirtyBits { words: zeroed(slots.div_ceil(64)) }
    }

    /// Mark `slot` written. The common case — the slot was already written
    /// this period — is one load of a bitmap small enough to stay cached
    /// (128 KB per million slots); the read-modify-write happens once per
    /// slot per period.
    #[inline]
    pub(crate) fn mark(&self, slot: usize) {
        let (word, bit) = (&self.words[slot / 64], 1u64 << (slot % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// The slots marked here or in `other` — the same slots' bits on the
    /// other side of a refresh — lowest first, each word's marks cleared on
    /// both sides as the iterator reaches it.
    pub(crate) fn drain_with<'a>(
        &'a self,
        other: &'a DirtyBits,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.words.len(), other.words.len(), "bitmaps over the same slots");
        let words = self.words.iter().zip(other.words.iter()).enumerate();
        words.flat_map(move |(w, (a, b))| {
            let mut marks = take(a) | take(b);
            std::iter::from_fn(move || {
                (marks != 0).then(|| {
                    let bit = marks.trailing_zeros() as usize;
                    marks &= marks - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Forget every mark.
    pub(crate) fn clear(&self) {
        self.words.iter().for_each(|word| {
            take(word);
        });
    }
}

/// `word`'s marks, cleared.
fn take(word: &AtomicU64) -> u64 {
    // The load keeps a clean word's cache line shared: most words of most
    // periods are clean.
    if word.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    word.swap(0, Ordering::Relaxed)
}

/// Slots a refresh handles at a time: enough that a group's cache misses
/// overlap as deep as the core allows (about ten).
const GROUP: usize = 32;

/// Hand `copy` the slots of `written` a group at a time and return how many
/// there were. Written slots are scattered, so a copy that finishes one
/// before it looks at the next pays every cache miss in full; handed a
/// group, `copy` can first load from each slot on both sides and decide
/// nothing — the group's misses are then in flight together — and copy in a
/// second pass.
pub(crate) fn in_groups(
    mut written: impl Iterator<Item = usize>,
    mut copy: impl FnMut(&[usize]),
) -> u64 {
    let mut total = 0;
    loop {
        let mut group = [0usize; GROUP];
        let held = group.iter_mut().zip(written.by_ref()).map(|(slot, at)| *slot = at).count();
        if held == 0 {
            return total;
        }
        copy(&group[..held]);
        total += held as u64;
    }
}

/// What one refresh of an image ([`Table::deep_clone_from`],
/// [`Database::deep_clone_from`]) copied.
///
/// [`Table::deep_clone_from`]: crate::Table::deep_clone_from
/// [`Database::deep_clone_from`]: crate::Database::deep_clone_from
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCopy {
    /// Row slots whose cells and key were copied.
    pub rows: u64,
    /// Primary-index slots copied.
    pub index_slots: u64,
    /// Whether the full copy was taken (for a database: by any table)
    /// because the image did not mirror the source as of its last drain.
    pub full: bool,
}

impl std::ops::AddAssign for ImageCopy {
    fn add_assign(&mut self, other: ImageCopy) {
        self.rows += other.rows;
        self.index_slots += other.index_slots;
        self.full |= other.full;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_of_both_sides_are_drained_once_and_in_slot_order() {
        let (ours, theirs) = (DirtyBits::new(130), DirtyBits::new(130));
        for slot in [129, 3, 64, 3] {
            ours.mark(slot);
        }
        theirs.mark(0);
        theirs.mark(64);
        assert_eq!(ours.drain_with(&theirs).collect::<Vec<_>>(), [0, 3, 64, 129]);
        assert_eq!(theirs.drain_with(&ours).count(), 0);
        ours.mark(7);
        ours.clear();
        assert_eq!(ours.drain_with(&theirs).count(), 0);
    }
}
