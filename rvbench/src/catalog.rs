//! Every metric the benchmark reports, with its unit. `BENCHMARK.json` at
//! the repository root lists the same names (a test keeps them in step).

/// Printed by untraced runs. Each is measured on every workload; the
/// "operation" is a cold 12-experiment pass (`sweep_cold`) or a hot
/// `estimate` request (`serve_hot`, `fleet_mixed`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("ops_per_s", "1/s"), ("rss_mb", "MB")];

/// `core.<experiment>_ms`, in `EXPERIMENTS` order.
const EXPERIMENT_METRICS: [(&str, &str); 12] = [
    ("fig1", "core.fig1_ms"),
    ("table1", "core.table1_ms"),
    ("table2", "core.table2_ms"),
    ("table3", "core.table3_ms"),
    ("fig2", "core.fig2_ms"),
    ("fig3", "core.fig3_ms"),
    ("table4", "core.table4_ms"),
    ("fig4", "core.fig4_ms"),
    ("fig5", "core.fig5_ms"),
    ("fig6", "core.fig6_ms"),
    ("fig7", "core.fig7_ms"),
    ("nextgen", "core.nextgen_ms"),
];

pub fn experiment_metric(experiment: &str) -> &'static str {
    EXPERIMENT_METRICS
        .iter()
        .find(|(name, _)| *name == experiment)
        .map(|(_, metric)| *metric)
        .expect("every experiment has a metric")
}

/// `serve.<stage>_<quantile>_us`.
pub fn stage_metric(stage: &str, quantile: &str) -> &'static str {
    let name = format!("serve.{stage}_{quantile}_us");
    PER_LAYER.iter().find(|(m, _)| *m == name).map(|(m, _)| *m).expect("every stage has metrics")
}

/// Printed by traced runs.
pub const PER_LAYER: [(&str, &str); 69] = [
    // sweep_cold: where a cold pass goes.
    ("core.fig1_ms", "ms"),
    ("core.table1_ms", "ms"),
    ("core.table2_ms", "ms"),
    ("core.table3_ms", "ms"),
    ("core.fig2_ms", "ms"),
    ("core.fig3_ms", "ms"),
    ("core.table4_ms", "ms"),
    ("core.fig4_ms", "ms"),
    ("core.fig5_ms", "ms"),
    ("core.fig6_ms", "ms"),
    ("core.fig7_ms", "ms"),
    ("core.nextgen_ms", "ms"),
    ("core.render_ms", "ms"),
    ("bench.sweep_residual_ms", "ms"),
    ("bench.sweep_closure_pct", "%"),
    // Estimate-cache activity of the workload itself.
    ("perfmodel.misses", "count"),
    ("perfmodel.hits", "count"),
    ("perfmodel.hit_rate", "ratio"),
    // Direct calls: the estimator and its cache, per call.
    ("perfmodel.cache_miss_us", "us"),
    ("perfmodel.cache_hit_us", "us"),
    ("perfmodel.averaged_us", "us"),
    ("perfmodel.estimate_us", "us"),
    ("perfmodel.cache_overhead_us", "us"),
    // Direct calls: the layers inside one estimate, per estimate.
    ("kernels.workload_us", "us"),
    ("machines.placement_us", "us"),
    ("compiler.capability_us", "us"),
    ("perfmodel.memory_env_us", "us"),
    ("perfmodel.memory_us", "us"),
    ("cachesim.traffic_us", "us"),
    ("perfmodel.compute_us", "us"),
    ("perfmodel.estimate_residual_us", "us"),
    ("bench.estimate_closure_pct", "%"),
    ("compiler.codegen_measure_ms", "ms"),
    // Direct calls: pool fan-out and 64-kernel suites.
    ("threads.fanout_overhead_us", "us"),
    ("threads.fanout_overhead_hot_us", "us"),
    ("perfmodel.suite_cold_us", "us"),
    ("perfmodel.suite_hot_us", "us"),
    // Serving stages, from the server's `metrics` op.
    ("serve.admission_p50_us", "us"),
    ("serve.admission_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_window_p50_us", "us"),
    ("serve.batch_window_p99_us", "us"),
    ("serve.compute_p50_us", "us"),
    ("serve.compute_p99_us", "us"),
    ("serve.write_back_p50_us", "us"),
    ("serve.write_back_p99_us", "us"),
    ("serve.residual_p50_us", "us"),
    ("bench.serve_closure_pct", "%"),
    // Batching, from `Server::stats()`.
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.max_batch", "count"),
    // Direct calls on the serving path, per call.
    ("serve.parse_us", "us"),
    ("serve.reply_render_us", "us"),
    ("fleet.routing_key_us", "us"),
    // fleet_mixed: the router hop, routing counters and the suite client.
    ("fleet.hop_p50_us", "us"),
    ("fleet.routed", "count"),
    ("fleet.mark_downs", "count"),
    ("fleet.suite_p50_us", "us"),
    ("fleet.suite_p90_us", "us"),
    ("fleet.suites", "count"),
    ("fleet.suite_repeat_share", "ratio"),
    // The workload's operation (cold pass or estimate request) over both
    // halves: median, tail and sample count; and failures.
    ("bench.op_p50_ms", "ms"),
    ("bench.op_p90_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
    ("bench.op_samples", "count"),
    ("bench.failed_share", "ratio"),
    ("bench.drain_ms", "ms"),
    // Traced half minus untraced half of the same run.
    ("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_trace::json::Json;

    #[test]
    fn experiment_metrics_follow_the_batch() {
        let batch = &rvhpc::experiments::driver::EXPERIMENTS;
        assert_eq!(batch.len(), EXPERIMENT_METRICS.len());
        for (e, (name, metric)) in batch.iter().zip(EXPERIMENT_METRICS) {
            assert_eq!(e.name, name);
            assert!(PER_LAYER.iter().any(|(m, _)| *m == metric), "{metric}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
