//! Hints to the hardware and the kernel: a software prefetch, the one way
//! the hot path asks for a line early, and huge-page advice for the tables
//! it probes at random.
//!
//! The engine's touch passes bring a group of lines into cache before the
//! group is used, so the misses overlap instead of queueing one behind
//! the other (DESIGN.md "Hot path"). A plain load does that only as far as
//! the reorder window reaches: a load that misses holds its slot until the
//! line arrives, so only a few misses are in flight at a time. A prefetch
//! retires at once and holds no slot, so a touch pass over a warp's lines
//! can have all of them in flight.

/// Ask for the cache line holding `*value` to be brought into every level
/// of cache. Reads nothing the program can see and changes nothing.
///
/// On x86-64 this is `prefetcht0`; on other targets it is a load of
/// `*value` that the optimiser may not remove.
#[inline(always)]
pub fn prefetch<T: Copy>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` (SSE, part of every x86-64 target) is a
        // hint: it reads nothing the program can observe, writes nothing,
        // and cannot fault, whatever the address. The address here is a
        // live reference besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::hint::black_box(*value);
}

/// Ask the kernel to back `array` with transparent huge pages: on Linux,
/// `madvise(MADV_HUGEPAGE)` over the 4 KiB-aligned interior of an array of
/// at least 2 MiB. A table probed at random then takes one TLB entry per
/// 2 MiB instead of per 4 KiB. The advice acts on pages not yet touched, so
/// call it before the array is first written (a fresh allocation's spare
/// capacity, or an `alloc_zeroed` one). It is advice on the program's own
/// mapping: it changes no setting of the machine, does nothing where huge
/// pages are off or on other targets, and a refusal is ignored.
pub fn huge_pages<T>(array: &[T]) {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        const PAGE: usize = 4_096;
        const HUGE_PAGE: usize = 2 << 20;
        const MADV_HUGEPAGE: c_int = 14;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        let bytes = std::mem::size_of_val(array);
        if bytes < HUGE_PAGE {
            return;
        }
        let start = array.as_ptr() as usize;
        let (lo, hi) = (start.next_multiple_of(PAGE), (start + bytes) & !(PAGE - 1));
        // SAFETY: `[lo, hi)` is page-aligned and lies inside `array`, a live
        // allocation of this program. `MADV_HUGEPAGE` only changes how the
        // kernel backs those pages — their contents, and every reference
        // into them, stay as they were — and a failure returns an error code,
        // which is ignored.
        unsafe {
            madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = array;
}
