//! Per-layer probes: direct calls into each crate's public functions,
//! timed from outside. Each layer is timed in its own loop over the
//! 180-query pool, with its inputs prepared beforehand, so one timer pair
//! covers many calls and the parts of an estimate add up.

use crate::measure::{median, per_call_us, timed, Report};
use rvhpc::cachesim::analytic::{AccessSpec, Locality, TrafficModel};
use rvhpc::compiler::capability::vector_path_executes;
use rvhpc::compiler::codegen::measure;
use rvhpc::compiler::{Compiler, VectorMode};
use rvhpc::kernels::{workload, Access, KernelName, StreamSpec, Workload};
use rvhpc::machines::{machine, Machine, MachineId, Placement};
use rvhpc::perfmodel::compute::{compute_seconds, VectorCtx};
use rvhpc::perfmodel::memory::{memory_seconds, MemoryEnv};
use rvhpc::perfmodel::scaling::effective_threads;
use rvhpc::perfmodel::{
    cache, calibration, estimate, estimate_averaged, estimate_cached, sim_size, Calibration,
    Precision, RunConfig,
};
use rvhpc::rvv::Sew;
use rvhpc::suite_times;
use rvhpc_fleet::{routing_key, ConsistentRing};
use rvhpc_serve::loadgen::{query_pool, Triple};
use rvhpc_serve::protocol::{estimate_json, ok_response, parse_request};
use rvhpc_trace::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds per probe; each probe reports the median round.
const ROUNDS: usize = 9;

/// Time the `codegen::measure` VLA and VLS interpreter runs for every
/// kernel at both element widths. Only the first call in a process is
/// cold (the compiler memoises it), so traced runs call this before setup.
pub fn codegen_measure_ms(report: &mut Report) {
    let ((), t) = timed(|| {
        for kernel in KernelName::ALL {
            for sew in [Sew::E32, Sew::E64] {
                for mode in [VectorMode::Vla, VectorMode::Vls] {
                    black_box(measure(kernel, mode, sew, 4096));
                }
            }
        }
    });
    report.set("compiler.codegen_measure_ms", t.as_secs_f64() * 1e3);
}

/// One pool query with the catalog descriptor it runs on.
struct Query {
    t: Triple,
    m: Machine,
    cfg: RunConfig,
}

fn queries() -> Vec<Query> {
    query_pool()
        .into_iter()
        .map(|t| Query { t, m: machine(t.machine), cfg: t.run_config() })
        .collect()
}

/// Run `f` over every query and time the loop.
fn over<T>(qs: &[Query], mut f: impl FnMut(usize, &Query) -> T) -> Duration {
    let start = Instant::now();
    for (i, q) in qs.iter().enumerate() {
        black_box(f(i, q));
    }
    start.elapsed()
}

/// The estimate-cache path against the estimator it memoises.
fn estimator(report: &mut Report, qs: &[Query]) {
    let n = qs.len();
    let call = |q: &Query| estimate_cached(&q.m, q.t.kernel, &q.cfg);
    let mut hits = Vec::new();
    let miss = per_call_us(ROUNDS, n, || {
        cache::clear();
        let t = over(qs, |_, q| call(q));
        hits.push(over(qs, |_, q| call(q)).as_secs_f64() * 1e6 / n as f64);
        t
    });
    cache::clear();
    let averaged =
        per_call_us(ROUNDS, n, || over(qs, |_, q| estimate_averaged(&q.m, q.t.kernel, &q.cfg)));
    let plain = per_call_us(ROUNDS, n, || over(qs, |_, q| estimate(&q.m, q.t.kernel, &q.cfg)));
    report.set("perfmodel.cache_miss_us", miss);
    report.set("perfmodel.cache_hit_us", median(&hits));
    report.set("perfmodel.averaged_us", averaged);
    report.set("perfmodel.estimate_us", plain);
    report.set("perfmodel.cache_overhead_us", miss - averaged);
}

/// `to_access_spec` of the memory model: one thread's share of a stream.
fn access_spec(s: &StreamSpec, elem_bytes: f64, eff_t: f64) -> AccessSpec {
    let eb = s.elem_bytes_override.map_or(elem_bytes, f64::from);
    let (footprint, stride, passes, locality) = match s.access {
        Access::Sequential => (s.elems * eb / eff_t, eb, s.passes, Locality::Sequential),
        Access::Strided(k) => (s.elems * eb / eff_t, k * eb, s.passes, Locality::Strided),
        Access::Random => (s.elems * eb, eb, s.passes / eff_t, Locality::Random),
    };
    AccessSpec {
        footprint_bytes: footprint,
        elem_bytes: eb,
        stride_bytes: stride,
        passes,
        write_fraction: s.write_fraction,
        locality,
    }
}

/// The cachesim traffic queries `memory_seconds` makes for one estimate.
fn traffic(w: &Workload, env: &MemoryEnv, elem_bytes: f64, eff_t: f64) -> f64 {
    let specs: Vec<AccessSpec> =
        w.streams.iter().map(|s| access_spec(s, elem_bytes, eff_t)).collect();
    let total: f64 = specs.iter().map(|s| s.footprint_bytes).sum::<f64>().max(1.0);
    specs
        .iter()
        .map(|spec| {
            let share = spec.footprint_bytes / total;
            let caps = env.capacity_shares.iter().map(|c| c * share).collect();
            TrafficModel::new(caps, env.line_bytes).steady_state().traffic(spec).requested_bytes
        })
        .sum()
}

/// The vector lanes the estimator resolves before its compiler gate.
fn vector_lanes(q: &Query, w: &Workload) -> u32 {
    if !q.cfg.vectorize {
        return 1;
    }
    let bits = q.cfg.precision.bits();
    if w.vec.int_data {
        q.m.vector.as_ref().map_or(1, |v| if v.supports_int { v.width_bits / 32 } else { 1 })
    } else {
        q.m.vector_lanes(bits)
    }
}

/// The compiler whose capability tables the estimator consults for this
/// query, if it consults them at all.
fn capability_compiler(q: &Query, lanes: u32) -> Option<Compiler> {
    let compiler = q.cfg.toolchain.riscv_compiler()?;
    let gcc_vla = compiler == Compiler::XuanTieGcc && q.cfg.mode == VectorMode::Vla;
    (lanes > 1 && !gcc_vla).then_some(compiler)
}

fn capability(q: &Query, compiler: Compiler) -> bool {
    vector_path_executes(compiler, q.t.kernel, q.cfg.precision.bits(), q.m.vectorises_fp(64))
}

/// The layers inside one `estimate`, each timed in its own loop.
fn estimate_parts(report: &mut Report, qs: &[Query]) {
    let n = qs.len();
    let threads = |q: &Query| q.cfg.threads.clamp(1, q.m.n_cores());
    let ws: Vec<Workload> = qs.iter().map(|q| workload(q.t.kernel, sim_size(q.t.kernel))).collect();
    let places: Vec<Placement> =
        qs.iter().map(|q| q.cfg.placement.map(&q.m.topology, threads(q))).collect();
    let cals: Vec<Calibration> = qs.iter().map(|q| calibration(q.m.id)).collect();
    let eff: Vec<f64> = qs.iter().map(|q| effective_threads(q.t.kernel, threads(q))).collect();
    let lanes: Vec<u32> = qs.iter().zip(&ws).map(|(q, w)| vector_lanes(q, w)).collect();
    let vecs: Vec<VectorCtx> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let active = lanes[i] > 1
                && match q.cfg.toolchain.riscv_compiler() {
                    None => ws[i].vec.vectorizable,
                    Some(_) => capability_compiler(q, lanes[i]).is_some_and(|c| capability(q, c)),
                };
            if active {
                VectorCtx { active, lanes: lanes[i], mode: q.cfg.mode, measured_vla_ratio: None }
            } else {
                VectorCtx::scalar()
            }
        })
        .collect();
    let envs: Vec<MemoryEnv> =
        qs.iter().zip(&places).map(|(q, p)| MemoryEnv::new(&q.m, p)).collect();
    let elem = |q: &Query| f64::from(q.cfg.precision.bytes());
    let compute: Vec<f64> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| compute_seconds(&q.m, &cals[i], &ws[i], &vecs[i], ws[i].iterations / eff[i]))
        .collect();

    let us = |f: &mut dyn FnMut() -> Duration| per_call_us(ROUNDS, n, f);
    let t_workload = us(&mut || over(qs, |_, q| workload(q.t.kernel, sim_size(q.t.kernel))));
    let t_placement = us(&mut || over(qs, |_, q| q.cfg.placement.map(&q.m.topology, threads(q))));
    let t_capability =
        us(&mut || over(qs, |i, q| capability_compiler(q, lanes[i]).map(|c| capability(q, c))));
    let t_compute = us(&mut || {
        over(qs, |i, q| {
            compute_seconds(&q.m, &cals[i], &ws[i], &vecs[i], ws[i].iterations / eff[i])
        })
    });
    let t_env = us(&mut || over(qs, |i, q| MemoryEnv::new(&q.m, &places[i])));
    let t_memory = us(&mut || {
        over(qs, |i, q| {
            let lanes = if vecs[i].active { vecs[i].lanes } else { 1 };
            memory_seconds(&q.m, &cals[i], &envs[i], &ws[i], elem(q), eff[i], lanes, compute[i])
        })
    });
    let t_traffic = us(&mut || over(qs, |i, q| traffic(&ws[i], &envs[i], elem(q), eff[i])));

    let parts = [
        ("kernels.workload_us", t_workload),
        ("machines.placement_us", t_placement),
        ("compiler.capability_us", t_capability),
        ("perfmodel.memory_env_us", t_env),
        ("perfmodel.memory_us", t_memory - t_traffic),
        ("cachesim.traffic_us", t_traffic),
        ("perfmodel.compute_us", t_compute),
    ];
    for (name, us) in parts {
        report.set(name, us);
    }
    let whole = report.get("perfmodel.estimate_us");
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    report.set("perfmodel.estimate_residual_us", whole - attributed);
    report.set("bench.estimate_closure_pct", attributed / whole * 100.0);
    crate::attribution("estimate per call", "us", whole, &parts, whole - attributed);
}

/// `suite_times` (pool fan-out) against the serial sum of the same
/// `estimate_cached` calls, cold and hot, per call; and the serial
/// 64-call suites themselves.
fn fanout(report: &mut Report) {
    let configs: Vec<(Machine, RunConfig)> = vec![
        (machine(MachineId::Sg2042), RunConfig::sg2042_best(Precision::Fp32, 64)),
        (machine(MachineId::Sg2042), RunConfig::sg2042_best(Precision::Fp64, 16)),
        (machine(MachineId::AmdRome), RunConfig::x86(Precision::Fp64, 64)),
        (machine(MachineId::IntelIcelake), RunConfig::x86(Precision::Fp32, 28)),
    ];
    let calls = (configs.len() * KernelName::ALL.len()) as f64;
    let parallel =
        || timed(|| configs.iter().for_each(|(m, c)| drop(black_box(suite_times(m, c))))).1;
    let serial = || {
        timed(|| {
            for (m, c) in &configs {
                for k in KernelName::ALL {
                    black_box(estimate_cached(m, k, c));
                }
            }
        })
        .1
    };
    let (mut cold, mut hot, mut suite_cold, mut suite_hot) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        // Alternate which side runs first so neither always meets the
        // other's warm CPU caches.
        let (mut p_cold, mut s_cold) = (Duration::ZERO, Duration::ZERO);
        let (mut p_hot, mut s_hot) = (Duration::ZERO, Duration::ZERO);
        for side in [round % 2, 1 - round % 2] {
            cache::clear();
            if side == 0 {
                p_cold = parallel();
                p_hot = parallel();
            } else {
                s_cold = serial();
                s_hot = serial();
            }
        }
        cold.push((p_cold.as_secs_f64() - s_cold.as_secs_f64()) * 1e6 / calls);
        hot.push((p_hot.as_secs_f64() - s_hot.as_secs_f64()) * 1e6 / calls);
        suite_cold.push(s_cold.as_secs_f64() * 1e6 / configs.len() as f64);
        suite_hot.push(s_hot.as_secs_f64() * 1e6 / configs.len() as f64);
    }
    cache::clear();
    report.set("threads.fanout_overhead_us", median(&cold));
    report.set("threads.fanout_overhead_hot_us", median(&hot));
    report.set("perfmodel.suite_cold_us", median(&suite_cold));
    report.set("perfmodel.suite_hot_us", median(&suite_hot));
}

/// Request parsing, reply rendering and fleet routing, per call.
fn serving_path(report: &mut Report, qs: &[Query]) {
    let n = qs.len();
    let lines: Vec<String> =
        qs.iter().enumerate().map(|(i, q)| q.t.request_line(i as u64)).collect();
    let parse = per_call_us(ROUNDS, n, || over(qs, |i, _| parse_request(&lines[i])));
    let ests: Vec<_> = qs.iter().map(|q| estimate_averaged(&q.m, q.t.kernel, &q.cfg)).collect();
    let render = per_call_us(ROUNDS, n, || {
        over(qs, |i, _| ok_response(&Json::Num(i as f64), "estimate", estimate_json(&ests[i])))
    });
    let requests: Vec<_> =
        lines.iter().map(|l| parse_request(l).1.expect("pool line parses")).collect();
    let ring = ConsistentRing::new(2);
    let route = per_call_us(ROUNDS, n, || {
        over(qs, |i, _| routing_key(&requests[i]).map(|key| ring.owner(&key)))
    });
    report.set("serve.parse_us", parse);
    report.set("serve.reply_render_us", render);
    report.set("fleet.routing_key_us", route);
}

/// Every direct-call probe. Clears the estimate cache, so it runs after
/// the workload has finished.
pub fn run_all(report: &mut Report) {
    let qs = queries();
    estimator(report, &qs);
    estimate_parts(report, &qs);
    fanout(report);
    serving_path(report, &qs);
}
