//! A std-only counting global allocator.
//!
//! Every allocation (and every reallocation, which may move the block) is
//! counted against the layer the traced replay has marked as current with
//! [`enter`], while [`set_counting`] has it on: only over the traced
//! replay's counted prefix, so the measured wire run pays one relaxed load
//! per allocation and nothing more. The replay drives one request at a
//! time, so the engine's worker threads allocate on behalf of the same
//! layer as the replay thread, and a process-wide marker attributes their
//! allocations correctly. Outside a span the marker is
//! [`UNATTRIBUTED`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of attribution slots: one per layer plus the unattributed slot.
pub const SLOTS: usize = 16;

/// The slot for allocations made outside any span.
pub const UNATTRIBUTED: usize = 0;

/// The counting allocator; install with `#[global_allocator]`.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(UNATTRIBUTED);
static PER_SLOT: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

// Statistics only: no other data is published through these counters,
// so every access is `Relaxed`.
fn record() {
    if COUNTING.load(Ordering::Relaxed) {
        let slot = CURRENT.load(Ordering::Relaxed).min(SLOTS - 1);
        PER_SLOT[slot].fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters around the call, so the
// `GlobalAlloc` contract is exactly the one `System` already meets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which we pass through to `System` unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record();
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record();
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for
        // a block `System` returned.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            record();
        }
        new
    }
}

/// Turns per-layer allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Marks `slot` as the layer allocations are attributed to and returns the
/// previous marker, to be restored with [`leave`].
pub fn enter(slot: usize) -> usize {
    CURRENT.swap(slot.min(SLOTS - 1), Ordering::Relaxed)
}

/// Restores the marker [`enter`] returned.
pub fn leave(previous: usize) {
    CURRENT.store(previous, Ordering::Relaxed);
}

/// Allocations counted so far against one slot.
pub fn count(slot: usize) -> u64 {
    PER_SLOT[slot.min(SLOTS - 1)].load(Ordering::Relaxed)
}
