//! Steady-state allocation budget for the *sharded* event core.
//!
//! `tests/steady_state_alloc.rs` gates the sequential engine; this file
//! runs the same discipline over a multi-cell world on 4 worker threads.
//! The parallel machinery is allowed its per-`run_until` setup (scoped
//! thread spawns, barriers, the shard view) but nothing per event: epoch
//! windows, outboxes, and per-shard queues/buffers must all run in
//! retained capacity once warm. The counting allocator is process-global,
//! so worker-thread allocations are counted exactly like main-thread ones.
//!
//! The file deliberately contains a single `#[test]` so no concurrent test
//! perturbs the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use powerburst::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Same ceiling as the sequential gate: sharding must not cost steady-state
/// allocations. Epoch control flow is allocation-free by construction
/// (locks and barriers built once per call, outboxes that keep their
/// capacity); what remains is the same bounded
/// per-interval work the sequential budget already absorbs.
const BUDGET_ALLOCS_PER_EVENT: f64 = 0.10;

#[test]
fn sharded_steady_state_stays_under_allocation_budget() {
    // A 4-cell city mixing video and web traffic, on 4 worker threads —
    // every shard exchanges real cross-shard mail during the window. The
    // 256 kbps streams keep the event stream dense enough that the budget
    // measures per-event behaviour rather than the fixed per-interval
    // schedule work of four proxy shards (measured ~0.04/event; the
    // sequential single-proxy gate sits at ~0.03).
    let policy = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) };
    let mut clients: Vec<ClientSpec> = VideoPattern::All256
        .fidelities(9)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect();
    for _ in 0..3 {
        clients.push(ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() }));
    }
    let cfg = ScenarioConfig::new(42, policy, clients)
        .with_cells(4)
        .with_threads(4)
        .with_duration(SimDuration::from_secs(60));

    let mut a = assemble(&cfg);

    // Warm-up: stream stagger, pool fills, queue/outbox growth points.
    a.world.run_until(SimTime::ZERO + SimDuration::from_secs(20));

    let events_before = a.world.events_processed();
    let allocs_before = ALLOCS.load(Ordering::SeqCst);

    // Steady-state measurement window.
    a.world.run_until(SimTime::ZERO + SimDuration::from_secs(50));

    let events = a.world.events_processed() - events_before;
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;

    assert!(events > 10_000, "window too small to be meaningful: {events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BUDGET_ALLOCS_PER_EVENT,
        "sharded steady-state allocation budget exceeded: {allocs} allocs / {events} events \
         = {per_event:.4} per event (budget {BUDGET_ALLOCS_PER_EVENT})"
    );
}
