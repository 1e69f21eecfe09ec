//! An optional counting global allocator for allocation-regression
//! measurement.
//!
//! The simulator's hot path is engineered to allocate nothing in steady
//! state (pooled scratch buffers, shared payloads); this module is how
//! that claim is *measured* instead of assumed. A binary or test opts
//! in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;
//! ```
//!
//! after which [`alloc_stats`] reports cumulative allocation counts and
//! bytes. Binaries that do not install it pay nothing and simply read
//! zeros — callers treat the counters as "optional telemetry", never as
//! ground truth for correctness.
//!
//! This is one of the workspace's two `unsafe` sites (the
//! [`core::alloc::GlobalAlloc`] contract itself is an unsafe trait; the
//! other is `hydra_wire::crc`'s call into its PCLMULQDQ kernel after
//! runtime feature detection); the implementation only forwards to
//! [`std::alloc::System`] and bumps two relaxed atomics.

#![allow(unsafe_code)]

use core::alloc::{GlobalAlloc, Layout};
use core::sync::atomic::{AtomicU64, Ordering};
use std::alloc::System;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative allocation counters since process start (zeros unless
/// [`CountingAlloc`] is installed as the global allocator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation calls (`alloc` + `realloc`).
    pub allocations: u64,
    /// Total bytes requested by those calls.
    pub allocated_bytes: u64,
}

impl AllocStats {
    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocations: self.allocations.wrapping_sub(earlier.allocations),
            allocated_bytes: self.allocated_bytes.wrapping_sub(earlier.allocated_bytes),
        }
    }
}

/// Reads the current counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
    }
}

/// A [`System`]-backed global allocator that counts every allocation.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
// contract; the counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_delta() {
        let a = AllocStats { allocations: 10, allocated_bytes: 100 };
        let b = AllocStats { allocations: 25, allocated_bytes: 450 };
        assert_eq!(b.since(a), AllocStats { allocations: 15, allocated_bytes: 350 });
    }
}
