//! Host arrays straight from `alloc_zeroed`.
//!
//! Every array of this crate is encoded so that all-zero bytes mean
//! "nothing here": a cell or key-column word past a table's `len()` (the key
//! column stores `key ^ i64::MIN`), a primary-index slot (`EMPTY`, row id
//! `PENDING`), a clean word of dirty bits, a checkpoint image's cell or key.
//! Taken from `alloc_zeroed`, a large array is fresh zero pages that cost no
//! memory until first written.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicI64, AtomicU64};

/// Types for which all-zero bytes are a valid value.
///
/// # Safety
///
/// An implementor must be valid when every byte of it is zero.
pub(crate) unsafe trait Zeroed: Sized {}

// SAFETY: the atomics have the bit validity of the integers they wrap.
unsafe impl Zeroed for AtomicI64 {}
// SAFETY: as above.
unsafe impl Zeroed for AtomicU64 {}

/// The word an `i64` key is stored as, in a table's key column and in an
/// index slot: `key ^ i64::MIN`, so the reserved key `i64::MIN` (a deleted
/// row slot, an empty index slot) is the zero word. Its own inverse.
#[inline]
pub(crate) const fn stored(key: i64) -> i64 {
    key ^ i64::MIN
}

/// `len` zero values from `alloc_zeroed`: for a large array, fresh zero
/// pages, none of them resident until first written.
pub(crate) fn zeroed<T: Zeroed>(len: usize) -> Box<[T]> {
    if len == 0 {
        return Box::default();
    }
    let layout = Layout::array::<T>(len).expect("array exceeds the address space");
    // SAFETY: `layout` has non-zero size (`len > 0`, and no implementor is
    // zero-sized), all-zero bytes are `len` valid `T`s (`Zeroed`), and the
    // pointer comes from the global allocator with exactly the layout a
    // `Box<[T]>` of this length is freed with.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<T>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))
    }
}
