//! The counting global allocator: exact, lock-free heap accounting.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts every
//! allocation, deallocation and byte that passes through it. Binaries
//! opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cad_obs::alloc::CountingAlloc = cad_obs::alloc::CountingAlloc::new();
//! ```
//!
//! and every layer can then read [`stats`] — totals feed the
//! `mem.*` gauges of every [`crate::Registry::snapshot`] and the
//! `memory` section of the schema-v4 report ([`crate::report`]).
//!
//! Design constraints, in order:
//!
//! * **Reentrancy.** The allocator runs under every `Box::new` in the
//!   process, including inside TLS initialization and thread teardown,
//!   so it must not touch `thread_local!` state, take locks, or
//!   allocate. Everything here is plain atomics.
//! * **Exactness.** Totals are `fetch_add`s on commutative counters, so
//!   `allocs − frees` equals the number of live blocks and
//!   `bytes_allocated − bytes_freed` equals the live heap, no matter
//!   how threads interleave. The live level itself is one global
//!   counter (adds and subs must see each other for the high-water
//!   mark to be exact), updated with `fetch_add`/`fetch_sub` and folded
//!   into the peak with `fetch_max` — every transient level is
//!   observed by exactly one of the two racing updates, so the peak
//!   never under-reports.
//! * **Low contention.** The monotone totals are striped: each call
//!   picks one of [`N_STRIPES`] cache-line-padded cells keyed by the
//!   caller's stack address (a cheap thread fingerprint that needs no
//!   TLS), so unrelated threads usually bump disjoint lines. Reads sum
//!   the stripes.
//!
//! Counters are process-lifetime monotone and deliberately never reset
//! (they live outside any [`crate::Registry`]): a reset racing a free
//! could drive `frees > allocs` and make every derived quantity a lie.
//! Consumers that want per-phase numbers take two snapshots and
//! subtract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter stripes (power of two; indexes are masked).
pub const N_STRIPES: usize = 16;

/// One cache-line-padded stripe of monotone totals.
#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
}

impl Stripe {
    const fn new() -> Self {
        Stripe {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            bytes_freed: AtomicU64::new(0),
        }
    }
}

static STRIPES: [Stripe; N_STRIPES] = [const { Stripe::new() }; N_STRIPES];

/// Live heap bytes (allocated − freed), updated on every call so the
/// high-water mark is exact.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A cheap per-thread fingerprint without TLS: the address of a stack
/// local. Thread stacks live in disjoint regions, so distinct threads
/// land on distinct stripes with high probability; a thread drifting
/// between stripes as its stack grows only costs locality, never
/// correctness (reads sum all stripes).
#[inline]
fn stripe() -> &'static Stripe {
    let marker = 0u8;
    let addr = std::ptr::addr_of!(marker) as usize;
    &STRIPES[(addr >> 13) & (N_STRIPES - 1)]
}

#[inline]
fn record_alloc(bytes: usize) {
    let s = stripe();
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.bytes_allocated.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn record_free(bytes: usize) {
    let s = stripe();
    s.frees.fetch_add(1, Ordering::Relaxed);
    s.bytes_freed.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The counting `#[global_allocator]` wrapper around the system
/// allocator. Stateless — all accounting lives in process statics, so
/// [`stats`] works whether or not the wrapper is installed (it reads
/// zeros when it is not).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper (const, for `#[global_allocator]` statics).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: every method delegates to `System` verbatim; the accounting
// is side-effect-only atomics and never inspects or alters the block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // One block of `layout.size()` died, one of `new_size` was
            // born — counted in that order so the live level never
            // transiently double-counts both.
            record_free(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Successful allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Deallocations (including the free half of reallocs).
    pub frees: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total bytes ever freed.
    pub bytes_freed: u64,
    /// Live heap bytes right now.
    pub heap_bytes: u64,
    /// High-water mark of the live heap over the process lifetime.
    pub heap_peak_bytes: u64,
}

/// Read the current allocator counters. All zeros when no
/// [`CountingAlloc`] is installed as the global allocator.
pub fn stats() -> MemoryStats {
    let mut m = MemoryStats {
        heap_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        heap_peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        ..MemoryStats::default()
    };
    for s in &STRIPES {
        m.allocs += s.allocs.load(Ordering::Relaxed);
        m.frees += s.frees.load(Ordering::Relaxed);
        m.bytes_allocated += s.bytes_allocated.load(Ordering::Relaxed);
        m.bytes_freed += s.bytes_freed.load(Ordering::Relaxed);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Counter tests drive the `GlobalAlloc` impl directly (no
    /// `#[global_allocator]` in this test binary), so the statics move
    /// only when a test moves them — but two such tests racing would
    /// still tangle their deltas, so they serialize here.
    static ALLOC_LOCK: Mutex<()> = Mutex::new(());

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, 8).expect("layout")
    }

    #[test]
    fn counts_alloc_free_and_bytes() {
        let _g = ALLOC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = CountingAlloc::new();
        let before = stats();
        let l = layout(1024);
        let p = unsafe { a.alloc(l) };
        assert!(!p.is_null());
        let mid = stats();
        assert_eq!(mid.allocs - before.allocs, 1);
        assert_eq!(mid.bytes_allocated - before.bytes_allocated, 1024);
        assert_eq!(mid.heap_bytes - before.heap_bytes, 1024);
        assert!(mid.heap_peak_bytes >= mid.heap_bytes);
        unsafe { a.dealloc(p, l) };
        let after = stats();
        assert_eq!(after.frees - before.frees, 1);
        assert_eq!(after.bytes_freed - before.bytes_freed, 1024);
        assert_eq!(after.heap_bytes, before.heap_bytes);
    }

    #[test]
    fn realloc_counts_one_free_and_one_alloc() {
        let _g = ALLOC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = CountingAlloc::new();
        let before = stats();
        let l = layout(256);
        let p = unsafe { a.alloc(l) };
        let p2 = unsafe { a.realloc(p, l, 512) };
        assert!(!p2.is_null());
        let mid = stats();
        assert_eq!(mid.allocs - before.allocs, 2, "alloc + realloc's alloc");
        assert_eq!(mid.frees - before.frees, 1, "realloc's free");
        assert_eq!(mid.bytes_allocated - before.bytes_allocated, 256 + 512);
        assert_eq!(mid.heap_bytes - before.heap_bytes, 512);
        unsafe { a.dealloc(p2, layout(512)) };
        let after = stats();
        assert_eq!(after.heap_bytes, before.heap_bytes);
        assert_eq!(after.allocs - after.frees, before.allocs - before.frees);
    }

    #[test]
    fn alloc_zeroed_is_counted_and_zeroed() {
        let _g = ALLOC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = CountingAlloc::new();
        let before = stats();
        let l = layout(64);
        let p = unsafe { a.alloc_zeroed(l) };
        assert!(!p.is_null());
        assert!((0..64).all(|i| unsafe { *p.add(i) } == 0));
        assert_eq!(stats().allocs - before.allocs, 1);
        unsafe { a.dealloc(p, l) };
    }

    #[test]
    fn counters_are_exact_under_concurrent_alloc_free() {
        let _g = ALLOC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        const BYTES: usize = 1 << 10;
        let before = stats();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let a = CountingAlloc::new();
                    // Vary the hold pattern per thread: even threads
                    // free immediately, odd threads batch then free,
                    // so allocs and frees genuinely interleave across
                    // threads.
                    let l = layout(BYTES);
                    if t % 2 == 0 {
                        for _ in 0..ROUNDS {
                            let p = unsafe { a.alloc(l) };
                            assert!(!p.is_null());
                            unsafe { a.dealloc(p, l) };
                        }
                    } else {
                        let mut held = Vec::with_capacity(ROUNDS);
                        for _ in 0..ROUNDS {
                            let p = unsafe { a.alloc(l) };
                            assert!(!p.is_null());
                            held.push(p);
                        }
                        for p in held {
                            unsafe { a.dealloc(p, l) };
                        }
                    }
                });
            }
        });
        let after = stats();
        let n = (THREADS * ROUNDS) as u64;
        assert_eq!(after.allocs - before.allocs, n);
        assert_eq!(after.frees - before.frees, n);
        assert_eq!(
            after.bytes_allocated - before.bytes_allocated,
            n * BYTES as u64
        );
        assert_eq!(after.bytes_freed - before.bytes_freed, n * BYTES as u64);
        // Everything was freed: allocs − frees == live blocks == what
        // it was before, and the live byte level is back exactly.
        assert_eq!(after.allocs - after.frees, before.allocs - before.frees);
        assert_eq!(after.heap_bytes, before.heap_bytes);
        // The high-water mark is monotone and at least the odd
        // threads' held batches above the baseline.
        assert!(after.heap_peak_bytes >= before.heap_peak_bytes);
        assert!(after.heap_peak_bytes >= (ROUNDS * BYTES) as u64);
    }

    #[test]
    fn peak_is_monotone_across_snapshots() {
        let _g = ALLOC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = CountingAlloc::new();
        let mut last_peak = stats().heap_peak_bytes;
        let l = layout(4096);
        for _ in 0..32 {
            let p = unsafe { a.alloc(l) };
            assert!(!p.is_null());
            unsafe { a.dealloc(p, l) };
            let peak = stats().heap_peak_bytes;
            assert!(peak >= last_peak, "high-water mark must never move down");
            last_peak = peak;
        }
    }
}
