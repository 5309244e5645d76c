//! A software prefetch: the one way the hot path asks for a line early.
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
