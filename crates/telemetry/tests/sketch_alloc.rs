//! Heap allocations on the sketches' write path, counted by a global
//! allocator that forwards to `System`. It counts only on a thread that
//! set its `COUNTING` flag, around the measured loop, so another
//! thread's allocations (libtest's own, say) never enter the count.
//!
//! Once every axis is full, a retrieval's records — its hit, its ack,
//! its served objects' delivery lags, a miss — allocate nothing, even
//! when they churn keys in and out of the full axes: a new key takes
//! the victim's slot in place, and its lag histogram is reset there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bad_telemetry::{SketchConfig, SketchRecorder, SpaceSaving};
use bad_types::rng::Rng;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. A `const` `Cell`
    /// needs no lazy initialization and no destructor, so reading it
    /// inside the allocator allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if this thread is counting.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the layout and pointer contracts the caller upholds are the ones
// `System` needs; counting reads a thread-local flag and makes one
// atomic add, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; both are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RETRIEVALS: u64 = 100_000;

#[test]
fn a_full_sketch_records_without_allocating() {
    let config = SketchConfig {
        slo_lag_us: 1_000,
        sample_every_n: 1,
        ..SketchConfig::default()
    };
    let capacity = config.capacity as u64;
    let recorder = SketchRecorder::new(config);
    // Fill every axis: requests and bytes by hits, misses by misses,
    // the SLO axis by over-threshold lags.
    for key in 0..capacity {
        let mut batch = recorder.batch();
        batch.hit(key, 1, 64);
        batch.miss(key, 1);
        batch.delivery_lags(key, [5_000]);
    }
    // The same requests stream into a bare sketch counts the evictions
    // the churn causes.
    let mut requests = SpaceSaving::new(config.capacity);
    for key in 0..capacity {
        requests.record(key, 1);
    }
    let mut rng = Rng::new(40);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.set(true);
    let mut evictions = 0u64;
    for i in 0..RETRIEVALS {
        // A hot set the axes can hold, and a keyspace four times wider
        // that keeps evicting.
        let key = if rng.below(2) == 0 {
            rng.below(capacity / 2)
        } else {
            rng.below(4 * capacity)
        };
        let objects = 1 + rng.below(4);
        let mut batch = recorder.batch();
        batch.hit(key, objects, 64 * objects);
        batch.ack(key);
        batch.delivery_lags(key, [rng.below(2_000), rng.below(2_000), 10 * i]);
        if i % 4 == 0 {
            batch.miss(key, 1);
        }
        drop(batch);
        evictions += u64::from(requests.record(key, objects).is_some());
    }
    COUNTING.set(false);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "{RETRIEVALS} retrievals into full sketches allocated {allocations} times"
    );
    assert!(
        evictions > RETRIEVALS / 10,
        "the stream churned the full requests axis only {evictions} times"
    );
    let totals = recorder.snapshot().totals();
    assert!(totals.requests > RETRIEVALS && totals.slo_violations > RETRIEVALS);
}
