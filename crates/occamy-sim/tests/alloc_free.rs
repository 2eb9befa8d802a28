//! The timing model's steady state allocates nothing: once a machine is
//! past warm-up, a `Machine::step_bounded` call — trace, events and
//! profiler off — makes zero heap allocations, whether it ticks or jumps.
//!
//! This is its own test binary because it installs a counting global
//! allocator. Counts are per thread, so the test harness and other test
//! threads do not disturb them.
//!
//! Steady state means no *transition* inside the step: no `<OI>` write
//! (a phase record and a lane-manager replan), no `<decision>` or
//! `<VL>` change (a repartition and the register remap that follows),
//! and no timeline bucket closing (one output record per 1000 cycles).
//! Those steps append to output records or rebuild partitions and may
//! allocate; the test leaves them out and requires at least a thousand
//! steady steps per machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::event_kernel::chase_machine;
use em_simd::DedicatedReg;
use occamy_sim::{Machine, SimConfig};
use workloads::{corun, table3};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to the system allocator
// unchanged, so `System` upholds the `GlobalAlloc` contract for us; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Simulated cycles per timeline bucket (the machine's Fig. 2 bucket).
const TIMELINE_BUCKET: u64 = 1000;

/// Cycle budget the steps run toward (as `Machine::run` would).
const BUDGET: u64 = 200_000_000;

/// Steps run before measuring.
const WARMUP_STEPS: usize = 1_500;

/// Steps measured.
const MEASURED_STEPS: usize = 4_000;

/// The architectural state whose change marks a transition step.
fn signature(m: &Machine) -> Vec<(u64, u64, usize)> {
    (0..m.config().cores)
        .map(|c| {
            let t = m.resource_table();
            (t.read(c, DedicatedReg::Oi), t.read(c, DedicatedReg::Decision), m.vl(c).granules())
        })
        .collect()
}

/// Runs `m` past warm-up, then measures `MEASURED_STEPS` calls of
/// `step_bounded` and fails on any steady step that allocates.
fn assert_steady_state_allocates_nothing(label: &str, mut m: Machine) {
    for _ in 0..WARMUP_STEPS {
        assert!(!m.done(), "{label}: finished during warm-up; the workload is too small");
        m.step_bounded(BUDGET).unwrap_or_else(|e| panic!("{label}: warm-up step failed: {e}"));
    }
    let (mut steady, mut transitions) = (0, 0);
    let mut offenders = Vec::new();
    let mut sig = signature(&m);
    for _ in 0..MEASURED_STEPS {
        if m.done() {
            break;
        }
        let start = m.cycle();
        let before = allocations();
        m.step_bounded(BUDGET).unwrap_or_else(|e| panic!("{label}: step failed: {e}"));
        let allocated = allocations() - before;
        let end = m.cycle();
        let next_sig = signature(&m);
        let bucket_closed = start / TIMELINE_BUCKET != end / TIMELINE_BUCKET;
        if next_sig != sig || bucket_closed {
            transitions += 1;
        } else {
            steady += 1;
            if allocated > 0 {
                offenders.push((start, end, allocated));
            }
        }
        sig = next_sig;
    }
    assert!(
        offenders.is_empty(),
        "{label}: {} of {steady} steady-state steps allocated; first (start cycle, end cycle, \
         allocations): {:?}",
        offenders.len(),
        &offenders[..offenders.len().min(8)]
    );
    assert!(steady >= 1_000, "{label}: only {steady} steady steps ({transitions} transitions)");
}

#[test]
fn table3_pair_steps_allocate_nothing_on_every_architecture() {
    let cfg = SimConfig::paper_2core();
    let pair = table3::all_pairs(1.0).swap_remove(0);
    for arch in bench::architectures(&pair.workloads, &cfg) {
        let label = format!("{}/{}", pair.label, arch.short_name());
        let m = corun::build_machine(&pair.workloads, &cfg, &arch, 1.0)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_steady_state_allocates_nothing(&label, m);
    }
}

#[test]
fn dram_chase_steps_allocate_nothing() {
    let m = chase_machine(20_000, 128, 480).expect("chase machine builds");
    assert_steady_state_allocates_nothing("dram-chase", m);
}
