//! A cold estimate makes no heap allocation once warm.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread (the test harness runs tests on several threads at once, so a
//! process-wide count would mix their work). Each case is called once to
//! warm the process-wide memos and the estimator's per-thread scratch;
//! the next `estimate` and `estimate_averaged` calls must then allocate
//! nothing. `PlacementPolicy::map` collects its thread → core order with
//! at most three allocations.

use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, Machine, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{estimate, estimate_averaged, Precision, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter has a const initialiser and no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The eight catalog machines.
fn machines() -> Vec<Machine> {
    MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]).map(machine).collect()
}

/// Every placement at 1, 16 and all cores, the paper's SG2042 best
/// configuration at both precisions, and the x86 default.
fn configs(m: &Machine) -> Vec<RunConfig> {
    let all = m.n_cores();
    let mut out = Vec::new();
    for placement in PlacementPolicy::ALL {
        for threads in [1, 16, all] {
            out.push(RunConfig { placement, ..RunConfig::sg2042_best(Precision::Fp32, threads) });
        }
    }
    for precision in [Precision::Fp32, Precision::Fp64] {
        out.push(RunConfig::sg2042_best(precision, all));
        out.push(RunConfig::x86(precision, all));
    }
    out
}

#[test]
fn a_warm_estimate_allocates_nothing() {
    let mut failures = Vec::new();
    for m in machines() {
        for cfg in configs(&m) {
            for kernel in KernelName::ALL {
                let warm = estimate_averaged(&m, kernel, &cfg);
                let (plain, est) = allocations(|| estimate(&m, kernel, &cfg));
                let (averaged, again) = allocations(|| estimate_averaged(&m, kernel, &cfg));
                assert_eq!(again.seconds.to_bits(), warm.seconds.to_bits());
                assert!(est.seconds > 0.0);
                if plain + averaged > 0 {
                    failures.push(format!(
                        "{}/{kernel}/{}@{}/{:?}: estimate {plain}, estimate_averaged {averaged}",
                        m.id, cfg.placement, cfg.threads, cfg.precision
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of the cases allocate, e.g.\n{}",
        failures.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

#[test]
fn a_placement_map_makes_at_most_three_allocations() {
    for m in machines() {
        for policy in PlacementPolicy::ALL {
            for threads in 1..=m.n_cores() {
                let (n, p) = allocations(|| policy.map(&m.topology, threads));
                assert_eq!(p.cores.len(), threads);
                assert!(n <= 3, "{}/{policy}@{threads}: {n} allocations", m.id);
            }
        }
    }
}
