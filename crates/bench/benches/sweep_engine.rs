//! Time the shared sweep engine itself: cold vs warm estimate cache, and
//! the suite on the calling thread against a work-stealing pool fan-out.
//!
//! `cargo bench -p rvhpc-bench --bench sweep_engine` — the cold/warm gap
//! measures what the cross-sweep cache buys a full-suite sweep; the
//! fan-out pair measures what waking a pool would add to a warm suite.

use rvhpc::machines::{machine, MachineId};
use rvhpc::perfmodel::{cache, estimate_cached, Precision, RunConfig};
use rvhpc::suite::suite_times;
use rvhpc_bench::{banner, quick_criterion};
use rvhpc_bench::{criterion_group, criterion_main, Criterion};
use rvhpc_kernels::KernelName;
use rvhpc_threads::global_team;
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let m = machine(MachineId::Sg2042);
    let cfg = RunConfig::sg2042_best(Precision::Fp32, 32);

    banner("suite sweep, cold estimate cache");
    c.bench_function("suite_times_cold_cache", |b| {
        b.iter(|| {
            cache::clear();
            black_box(suite_times(&m, &cfg))
        })
    });

    banner("suite sweep, warm estimate cache");
    let _ = suite_times(&m, &cfg); // prime
    c.bench_function("suite_times_warm_cache", |b| b.iter(|| black_box(suite_times(&m, &cfg))));
    let s = cache::stats();
    println!(
        "estimate cache after warm sweeps: {} hit(s), {} miss(es), rate {:.3}",
        s.hits,
        s.misses,
        s.hit_rate()
    );
}

fn bench_fanout(c: &mut Criterion) {
    let m = machine(MachineId::Sg2042);
    let cfg = RunConfig::sg2042_best(Precision::Fp64, 64);
    let total = KernelName::ALL.len();
    let team = global_team();

    banner("suite: calling thread vs work-stealing fan-out");
    c.bench_function("suite_inline", |b| b.iter(|| black_box(suite_times(&m, &cfg))));
    c.bench_function("fanout_worksteal", |b| {
        b.iter(|| {
            team.parallel_for_worksteal(0..total, |i| {
                black_box(estimate_cached(&m, KernelName::ALL[i], &cfg));
            })
        })
    });
}

criterion_group! {
    name = sweep_engine;
    config = quick_criterion();
    targets = bench_cache, bench_fanout
}
criterion_main!(sweep_engine);
