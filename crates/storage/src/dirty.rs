//! Which row slots of a table were written since an image of it was last
//! brought up to date.
//!
//! A [`DirtyBits`] is one bit per row slot of a [`Table`]. Writers mark
//! through `&mut`; the refresh ([`Image::refresh_from`]) takes the marks
//! word by word through `&`. The bitmaps are host-side bookkeeping: they
//! are not part of the modelled device footprint ([`Table::bytes`]) and
//! nothing charged to the simulated clock reads them.
//!
//! [`Table`]: crate::Table
//! [`Table::bytes`]: crate::Table::bytes
//! [`Image::refresh_from`]: crate::Image::refresh_from

use std::sync::atomic::{AtomicU64, Ordering};

use crate::zeroed::zeroed;

/// One dirty bit per slot of some array.
///
/// The words are atomics for one reason: a refresh clears them through a
/// shared borrow of the table, because a checkpoint images a database it
/// is handed by `&` (`DurabilityManager::checkpoint(&mut self, &Database)`).
/// No two threads ever touch one bitmap — a writer marks through `&mut`
/// with a plain `or`, and a refresh runs between batches — so every access
/// is a `Relaxed` load or store, never a read-modify-write.
pub(crate) struct DirtyBits {
    words: Box<[AtomicU64]>,
}

impl DirtyBits {
    /// All-clean bits for `slots` slots, from `alloc_zeroed`: a page of
    /// them costs memory only once a slot it covers is marked.
    pub(crate) fn new(slots: usize) -> Self {
        DirtyBits { words: zeroed(slots.div_ceil(64)) }
    }

    /// Mark `slot` written.
    #[inline]
    pub(crate) fn mark(&mut self, slot: usize) {
        *self.words[slot / 64].get_mut() |= 1u64 << (slot % 64);
    }

    /// The marked slots, lowest first, each word's marks cleared as the
    /// iterator reaches it.
    pub(crate) fn drain(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, word)| {
            // A clean word is only loaded: most words of most periods are
            // clean, and their cache lines stay unwritten.
            let mut marks = word.load(Ordering::Relaxed);
            if marks != 0 {
                word.store(0, Ordering::Relaxed);
            }
            std::iter::from_fn(move || {
                (marks != 0).then(|| {
                    let bit = marks.trailing_zeros() as usize;
                    marks &= marks - 1;
                    w * 64 + bit
                })
            })
        })
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_drained_once_and_in_slot_order() {
        let mut bits = DirtyBits::new(130);
        for slot in [129, 3, 64, 3, 0] {
            bits.mark(slot);
        }
        assert_eq!(bits.drain().collect::<Vec<_>>(), [0, 3, 64, 129]);
        assert_eq!(bits.drain().count(), 0);
        bits.mark(7);
        bits.mark(100);
        assert_eq!(bits.drain().next(), Some(7), "a word is cleared as it is reached");
        assert_eq!(bits.drain().collect::<Vec<_>>(), [100]);
    }
}
