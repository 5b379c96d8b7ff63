//! Steady-state allocation audit: after warmup, the cycle loop of every
//! engine must run without touching the global allocator. The two-phase
//! step keeps its `RouterOutputs` buffers across cycles and the timing
//! wheel reuses its slot vectors, so a single heap allocation per cycle
//! is a regression — and one this test catches exactly, via a counting
//! `#[global_allocator]` wrapped around `System`.
//!
//! The parallel engine allocates per *call* (thread spawn, the shard
//! cells), never per *cycle*: doubling the cycle count must not change
//! the allocation count.
//!
//! Measurements share one mutex so the counter is never polluted by a
//! concurrently running test in this binary; other test binaries are
//! separate processes and invisible to this allocator.

use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_sim::{Engine, Network, SimConfig, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`);
/// `dealloc` is free to run — dropping is not the regression we hunt.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // RELAXED: independent event counter; read only while the
        // measurement mutex serializes all allocating activity.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // RELAXED: as in `alloc`.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // RELAXED: as in `alloc`.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr`/`layout` pair is the
        // caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes measurements across this binary's test threads.
static MEASURE: Mutex<()> = Mutex::new(());

const WARMUP: u64 = 2_000;
const MEASURED: u64 = 500;

fn net(topo: TopologyKind) -> Network {
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(topo, 1)
    };
    Network::new(cfg)
}

/// Allocation count across `f()`.
// RELAXED: single-threaded reads of a monotone counter bumped by this same
// thread's allocations; no ordering with other memory is needed.
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    drop(r);
    // RELAXED: same single-threaded monotone-counter read as above.
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn sequential_engine_steady_state_is_allocation_free() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    for topo in [TopologyKind::Mesh8x8, TopologyKind::FlattenedButterfly4x4] {
        let mut n = net(topo);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        assert_eq!(
            during, 0,
            "seq engine allocated {during} times in {MEASURED} steady-state cycles on {topo:?}"
        );
    }
    drop(guard);
}

/// The bit-parallel kernels (banked arbiter sweeps, wavefront diagonal
/// recurrence, the matrix allocator's `allocate_into` scratch, and the
/// router's struct-of-arrays output-VC state) must preserve the zero-alloc
/// steady state. Covers both separable kernels at C=2 (mesh 5-port, 4-VC
/// routers: every VA/SA stage takes the u64 path) and the wavefront
/// VC+switch pairing, whose grant scratch is the newest reuse surface.
#[test]
fn kernel_paths_steady_state_is_allocation_free() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let rr = noc_arbiter::ArbiterKind::RoundRobin;
    let configs: [(AllocatorKind, SwitchAllocatorKind, SpecMode); 3] = [
        // Paper baseline kinds at C=2: separable input-first kernels.
        (
            AllocatorKind::SepIfRr,
            SwitchAllocatorKind::SepIf(rr),
            SpecMode::Pessimistic,
        ),
        // Output-first kernels plus conventional speculation masking.
        (
            AllocatorKind::SepOfRr,
            SwitchAllocatorKind::SepOf(rr),
            SpecMode::Conventional,
        ),
        // Wavefront VC allocation drives `MatrixVcAllocator`'s reused
        // grant scratch through `Allocator::allocate_into`.
        (
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Pessimistic,
        ),
    ];
    for (vca_kind, sa_kind, spec_mode) in configs {
        let cfg = SimConfig {
            injection_rate: 0.2,
            vca_kind,
            sa_kind,
            spec_mode,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let mut n = Network::new(cfg);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        assert_eq!(
            during, 0,
            "kernel path {vca_kind:?}/{sa_kind:?}/{spec_mode:?} allocated \
             {during} times in {MEASURED} steady-state cycles"
        );
    }
    drop(guard);
}

#[test]
fn active_engine_steady_state_is_allocation_free() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut n = net(TopologyKind::Mesh8x8);
    Engine::ActiveSet.run(&mut n, WARMUP);
    let during = allocs_during(|| Engine::ActiveSet.run(&mut n, MEASURED));
    assert_eq!(
        during, 0,
        "active engine allocated {during} times in {MEASURED} steady-state cycles"
    );
    drop(guard);
}

#[test]
fn parallel_engine_allocates_per_call_not_per_cycle() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    // Two identically warmed networks; the only difference is how many
    // cycles the measured call runs. Thread spawn and shard setup are
    // per-call constants, so the counts must match exactly.
    let mut a = net(TopologyKind::Mesh8x8);
    let mut b = net(TopologyKind::Mesh8x8);
    a.run_parallel(WARMUP, 3);
    b.run_parallel(WARMUP, 3);
    let short = allocs_during(|| a.run_parallel(MEASURED, 3));
    let long = allocs_during(|| b.run_parallel(2 * MEASURED, 3));
    assert_eq!(
        short,
        long,
        "parallel engine allocation count scales with cycles \
         ({short} for {MEASURED} cycles vs {long} for {} cycles)",
        2 * MEASURED
    );
    drop(guard);
}
