//! A long-running daemon must not accumulate per-bin history: once its
//! engine's working set has warmed up, the live heap stays flat however many
//! bins it processes. This binary installs a live-byte counting allocator,
//! so it holds this one test only.

use netshed::prelude::*;
use netshed_service::{Daemon, TickStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct LiveBytes;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: defers all allocation to `System`; the counter is a relaxed atomic
// touched nowhere else, so no allocator invariant is altered.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn a_daemons_retained_state_stays_constant_over_a_long_run() {
    const WARM_UP_BINS: u64 = 500;
    const MEASURED_BINS: u64 = 4_000;
    let monitor = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .seed(3)
        .queries(vec![QuerySpec::new(QueryKind::Counter)])
        .build()
        .expect("build");
    let source =
        TraceGenerator::new(TraceConfig::default().with_seed(8).with_mean_packets_per_batch(20.0))
            .take_batches((WARM_UP_BINS + MEASURED_BINS) as usize);
    let (daemon, _control) = Daemon::new(monitor, source);
    // Ticks end on interval boundaries (ten 100 ms bins per 1 s interval).
    let mut daemon = daemon.with_bins_per_tick(10);

    let mut live_at = |bins: u64| {
        while daemon.bins_ingested() < bins {
            assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
        }
        LIVE.load(Ordering::Relaxed)
    };
    let warm = live_at(WARM_UP_BINS);
    let late = live_at(WARM_UP_BINS + MEASURED_BINS);
    // One retained f64 per bin would add 32 KB here.
    assert!(
        late - warm < 8 * 1024,
        "live heap grew by {} bytes over {MEASURED_BINS} bins",
        late - warm
    );
}
