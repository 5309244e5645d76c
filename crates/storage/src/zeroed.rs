//! Host arrays straight from `alloc_zeroed`.
//!
//! Every array of this crate is encoded so that all-zero bytes mean
//! "nothing here": a cell or key-column word past a table's `len()` (the key
//! column stores `key ^ i64::MIN`), a primary-index slot (`EMPTY`, no row
//! id), a clean word of dirty bits, a checkpoint image's cell or key.
//! Taken from `alloc_zeroed`, a large array is fresh zero pages that cost no
//! memory until first written.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::AtomicU64;

/// Types for which all-zero bytes are a valid value.
///
/// # Safety
///
/// An implementor must be valid when every byte of it is zero.
pub(crate) unsafe trait Zeroed: Sized {}

// SAFETY: every bit pattern is an integer.
unsafe impl Zeroed for i64 {}
// SAFETY: the atomic has the bit validity of the integer it wraps.
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

/// `dst.copy_from_slice(src)` for a `dst` of fresh zero pages, a page at a
/// time. Tens of MB in one `memcpy` take glibc's non-temporal path, which
/// is slower onto pages the kernel has just zeroed than page-sized copies
/// the cache absorbs: 40 MB take ≈30 ms in one and ≈25 ms in pages on a
/// 2-vCPU x86-64 VM. Into resident pages the one `memcpy` wins (≈7 against
/// ≈8 ms), so an in-place copy calls it directly.
pub(crate) fn copy_to_fresh<T: Copy>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    let page = 4_096 / std::mem::size_of::<T>();
    for (d, s) in dst.chunks_mut(page).zip(src.chunks(page)) {
        d.copy_from_slice(s);
    }
}
