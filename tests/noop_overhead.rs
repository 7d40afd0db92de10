//! The disabled tracer must be free: opening a span and adding a counter
//! or histogram on `Tracer::noop()` allocates nothing, so the pipeline's
//! tracer calls cost an untraced compile no allocations. A counting global
//! allocator makes the check exact — which is why it lives in its own test
//! binary, alone on its thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppet::serve::PhaseRecorder;
use ppet::trace::{HistogramSnapshot, Tracer};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during(mut f: impl FnMut()) -> u64 {
    // The counter is process-global, so another thread (the libtest
    // harness) can allocate inside a measurement window. That noise only
    // ever *adds* counts; the minimum over a few trials is the true
    // allocation cost of the closure.
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn noop_tracer_calls_allocate_nothing() {
    // Warm the shared no-op tracer: its first use initializes a OnceLock.
    let tracer = Tracer::noop();
    let samples = HistogramSnapshot {
        count: 1,
        sum: 3,
        buckets: vec![(2, 1)],
    };

    let allocations = allocations_during(|| {
        let span = tracer.span("saturate_network");
        tracer.add("flow.trees_built", 1);
        tracer.record("flow.tree_nodes", &samples);
        drop(span);
    });
    assert_eq!(
        allocations, 0,
        "a disabled tracer must not allocate per phase"
    );
}

#[test]
fn a_disabled_phase_recorder_allocates_nothing() {
    // With the trace ring off (`--trace-ring 0`) the request-ID and
    // phase plumbing is still compiled into every `POST /compile`; the
    // disabled recorder must stay allocation-free end to end.
    let mut warm = PhaseRecorder::new(false);
    warm.begin("normalize");
    warm.end();
    assert!(warm.finish().is_empty());

    let allocations = allocations_during(|| {
        let mut recorder = PhaseRecorder::new(false);
        recorder.begin("normalize");
        recorder.begin("cache_lookup");
        recorder.begin("store_fetch");
        recorder.begin("compile");
        recorder.end();
        assert!(recorder.finish().is_empty());
    });
    assert_eq!(
        allocations, 0,
        "a disabled PhaseRecorder must not allocate per request"
    );
}
