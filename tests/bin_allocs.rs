//! Whole-bin allocation ratchet: heap allocations inside the steady-state
//! `Monitor::process_batch` of a 2× overload run at one worker, counted over
//! the second half of the run. The trace is generated, and each batch's lazy
//! aggregate-hash cache built, before counting starts: the cache belongs to
//! the batch (one row vector per batch, as in the pipeline bench's
//! `alloc_per_bin` guard), so what is counted is the monitor's own work.
//! This binary installs a counting allocator, so it holds this one test
//! only.

use netshed::prelude::*;
use netshed_bench::corpus::{corpus_capacity, corpus_specs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Heap acquisitions (alloc, zeroed alloc, realloc) through the global
/// allocator.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all allocation to `System`; the counter is a relaxed atomic
// touched nowhere else, so no allocator invariant is altered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean allocations per bin inside `process_batch` over the second half of
/// `batches`, for a monitor running `queries` at `capacity`.
fn steady_state_allocs_per_bin(batches: &[Batch], capacity: f64, queries: Vec<QuerySpec>) -> u64 {
    let mut monitor = Monitor::builder()
        .capacity(capacity)
        .seed(9)
        .with_workers(1)
        .queries(queries)
        .build()
        .expect("valid configuration");
    let (warm_up, measured) = batches.split_at(batches.len() / 2);
    for batch in warm_up {
        monitor.process_batch(batch).expect("warm-up bin");
    }
    let mut allocations = 0;
    for batch in measured {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let record = monitor.process_batch(batch).expect("measured bin");
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(record);
    }
    allocations / measured.len() as u64
}

#[test]
fn steady_state_bins_allocate_no_more_than_the_ratchet() {
    /// Measured allocations per bin with the corpus query set: the per-query
    /// records, labels and interval outputs the bin hands back, the policy's
    /// rate vector and the queries' own state. It may only go down.
    const CORPUS_SET_RATCHET: u64 = 256;

    let batches: Vec<Batch> = TraceGenerator::new(
        TraceConfig::default().with_seed(17).with_mean_packets_per_batch(300.0).with_payloads(true),
    )
    .batches(400);
    assert!(batches.iter().all(|batch| !batch.is_empty()));
    let capacity = corpus_capacity(&batches);
    let mut warm = Monitor::builder().capacity(capacity).build().expect("valid configuration");
    for batch in &batches {
        warm.process_batch(batch).expect("warm-up bin");
    }

    let idle = steady_state_allocs_per_bin(&batches, capacity, Vec::new());
    let corpus = steady_state_allocs_per_bin(&batches, capacity, corpus_specs());
    eprintln!("allocations per bin: {idle} with no queries, {corpus} with the corpus set");
    assert_eq!(idle, 0, "a bin with no queries allocated {idle} times");
    assert!(
        corpus <= CORPUS_SET_RATCHET,
        "a corpus-set bin allocated {corpus} times, above the ratchet of {CORPUS_SET_RATCHET}"
    );
}
