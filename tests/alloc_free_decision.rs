//! Proof of the scratch contract: after one warm-up decision has grown
//! every buffer and seeded the mapping pool, a steady-state epoch decision
//! performs **zero** heap allocations — for the Hayat policy and the VAA
//! baseline alike, on the paper's 8×8 die and on a 16×16 one.
//!
//! A counting `#[global_allocator]` wraps the system allocator; both
//! checks live in a single `#[test]` so no concurrently-running test can
//! inflate the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use hayat::{
    ChipSystem, HayatPolicy, Policy, PolicyContext, PolicyScratch, SimulationConfig, VaaPolicy,
};
use hayat_units::Years;
use hayat_workload::WorkloadMix;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_epoch_decisions_do_not_allocate() {
    // The paper's 8×8 die and a 16×16 one, whose decisions size the
    // per-core buffers (VAA's neighbour counts, the DCM arrays, the
    // hot-lane list) four times larger. One scratch per chip, as each
    // engine owns one.
    let large = SimulationConfig {
        mesh: (16, 16),
        ..SimulationConfig::quick_demo()
    };
    for config in [SimulationConfig::quick_demo(), large] {
        let system = ChipSystem::paper_chip(0, &config).expect("system builds");
        let cores = system.floorplan().core_count();
        let workload = WorkloadMix::generate(5, system.budget().max_on() * 3 / 4);
        let scratch = RefCell::new(PolicyScratch::new());
        let ctx =
            PolicyContext::new(&system, Years::new(1.0), Years::new(0.0)).with_scratch(&scratch);

        let mut hayat = HayatPolicy::default();
        let warm = hayat.map_threads(&ctx, &workload);
        scratch.borrow_mut().mapping_pool.push(warm);
        let count = allocations(|| {
            let mapping = hayat.map_threads(&ctx, &workload);
            scratch.borrow_mut().mapping_pool.push(mapping);
        });
        assert_eq!(
            count, 0,
            "Hayat decision on {cores} cores allocated {count}x after warm-up"
        );

        let mut vaa = VaaPolicy;
        let warm = vaa.map_threads(&ctx, &workload);
        scratch.borrow_mut().mapping_pool.push(warm);
        let count = allocations(|| {
            let mapping = vaa.map_threads(&ctx, &workload);
            scratch.borrow_mut().mapping_pool.push(mapping);
        });
        assert_eq!(
            count, 0,
            "VAA decision on {cores} cores allocated {count}x after warm-up"
        );
    }
}
