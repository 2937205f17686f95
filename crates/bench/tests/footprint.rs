//! Memory budget: per-row state must follow the rows a run touches.
//!
//! A DDR4 system has 128 banks of 64K rows. Remapping tables, RRS's
//! indirection, PRAC/Panopticon counters and the Row Hammer ledger are all
//! identity or zero on rows a run never touches, so building a system must
//! cost well under a megabyte per scheme, and a short cell must stay in a
//! small budget, whichever scheme runs it.
//!
//! A counting global allocator measures live heap bytes. The file holds a
//! single test so no other test thread allocates while it measures.

use shadow_bench::{build_mitigation, workload, Scheme};
use shadow_memsys::{MemSystem, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let now = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MB: usize = 1 << 20;

/// Live bytes a built (not yet run) system may hold, mitigation included.
const BUILD_BUDGET: usize = 2 * MB;

/// Peak live bytes over a 2k-request spec-low cell, build included.
/// Every scheme peaks between 0.8 and 1.4 MiB; an array sized to the
/// whole system, such as one `u64` per REF granule per bank (~9 MiB),
/// does not fit.
const CELL_BUDGET: usize = 4 * MB;

const SCHEMES: [Scheme; 9] = [
    Scheme::Baseline,
    Scheme::Shadow,
    Scheme::Rrs,
    Scheme::Parfm,
    Scheme::Prac,
    Scheme::Practical,
    Scheme::Dapper,
    Scheme::MithrilPerf,
    Scheme::Panopticon,
];

#[test]
fn row_state_follows_the_rows_a_run_touches() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 2_000;
    let mut over = Vec::new();
    for scheme in SCHEMES {
        let streams = workload("spec-low", &cfg, 0xF007);
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let mut sys = MemSystem::try_new(cfg, streams, build_mitigation(scheme, &cfg))
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        let built = LIVE.load(Relaxed) - base;
        let report = sys.run_checked().expect("the cell completes");
        assert!(report.total_completed() >= cfg.target_requests);
        let peak = PEAK.load(Relaxed) - base;
        drop(sys);
        eprintln!(
            "{:<12} build {:>8.1} KB   cell peak {:>8.1} KB",
            scheme.name(),
            built as f64 / 1024.0,
            peak as f64 / 1024.0
        );
        if built > BUILD_BUDGET {
            over.push(format!("{}: build holds {built} B", scheme.name()));
        }
        if peak > CELL_BUDGET {
            over.push(format!("{}: cell peaks at {peak} B", scheme.name()));
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
