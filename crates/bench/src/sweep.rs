//! Measurement plumbing and the `BENCH_<n>.json` artefact for
//! `repro bench`.
//!
//! `repro bench` times every experiment of the reproduction batch through
//! the shared sweep engine and records wall time plus the estimate-cache
//! traffic each experiment generated. The result is written as a small
//! versioned JSON artefact so CI can track a perf trajectory across PRs
//! and fail when the artefact degenerates (NaN timings, missing
//! experiments, a cold cache where sharing is expected).
//!
//! The schema (`rvhpc-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "rvhpc-bench-v1",
//!   "quick": true,
//!   "engine": { "lanes": 1, "cache_capacity": 32768 },
//!   "experiments": [
//!     { "name": "fig1", "wall_seconds": 0.012,
//!       "estimate_cache": { "hits": 0, "misses": 640,
//!                           "evictions": 0, "hit_rate": 0.0 } },
//!     ...
//!   ],
//!   "total": { "wall_seconds": 0.2,
//!              "estimate_cache": { ... } }
//! }
//! ```
//!
//! `wall_seconds` is the minimum over the measured repetitions (1 in
//! `--quick` mode). `estimate_cache` counts are the *delta* over all
//! repetitions of that experiment, so in full mode the repeat passes are
//! cache-warm by construction and hit rates read near 1; quick mode is the
//! single cold pass whose hit rate measures genuine cross-experiment
//! sharing. `hit_rate` is `hits / (hits + misses)`, `0.0` when the
//! experiment made no estimate lookups at all.

use rvhpc_trace::json::Json;
use std::time::Instant;

/// The artefact schema tag; bump when the layout changes.
pub const SCHEMA: &str = "rvhpc-bench-v1";

/// The shared-engine shape recorded in the artefact.
pub struct EngineInfo {
    /// Threads the sweep estimates on: 1, since every suite runs on the
    /// calling thread.
    pub lanes: usize,
    /// Estimate-cache capacity (entries).
    pub cache_capacity: usize,
}

/// One experiment's measurement.
pub struct ExperimentBench {
    /// The experiment's command token (`fig1`, `table2`, ...).
    pub name: String,
    /// Minimum wall time over the measured repetitions, in seconds.
    pub wall_seconds: f64,
    /// Estimate-cache hits this experiment's repetitions generated.
    pub hits: u64,
    /// Estimate-cache misses (estimates actually computed).
    pub misses: u64,
    /// Entries evicted while this experiment ran.
    pub evictions: u64,
}

impl ExperimentBench {
    /// `hits / (hits + misses)`; `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    fn cache_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("evictions", Json::Num(self.evictions as f64)),
            ("hit_rate", Json::Num(self.hit_rate())),
        ])
    }
}

/// Time `reps` runs of `f`; returns the minimum single-run wall time in
/// seconds (the conventional noise-resistant statistic for short runs).
pub fn wall_seconds_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Assemble the `rvhpc-bench-v1` artefact.
pub fn artefact(
    quick: bool,
    engine: &EngineInfo,
    experiments: &[ExperimentBench],
    total: &ExperimentBench,
) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("quick", Json::Bool(quick)),
        (
            "engine",
            Json::obj(vec![
                ("lanes", Json::Num(engine.lanes as f64)),
                ("cache_capacity", Json::Num(engine.cache_capacity as f64)),
            ]),
        ),
        (
            "experiments",
            Json::Arr(
                experiments
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("name", Json::str(e.name.as_str())),
                            ("wall_seconds", Json::Num(e.wall_seconds)),
                            ("estimate_cache", e.cache_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total",
            Json::obj(vec![
                ("wall_seconds", Json::Num(total.wall_seconds)),
                ("estimate_cache", total.cache_json()),
            ]),
        ),
    ])
}

/// Why [`validate_trajectory`] rejected an artefact.
///
/// The two variants map onto the CLI's exit-code split: a `quick: true`
/// artefact is a *format-level* disagreement with the trajectory contract
/// (exit 2, like an unknown schema version) — the artefact may be
/// perfectly well-formed, it is just not admissible as a checked-in
/// trajectory point because quick mode measures a single unrepeated cold
/// pass. A [`TrajectoryError::Invalid`] artefact is broken on its own
/// terms (exit 1).
#[derive(Debug, PartialEq)]
pub enum TrajectoryError {
    /// The artefact says `"quick": true`; quick runs are smoke tests, not
    /// history.
    Quick,
    /// The artefact violates the `rvhpc-bench-v1` invariants.
    Invalid(String),
}

impl std::fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajectoryError::Quick => write!(
                f,
                "artefact is a `quick: true` run — quick mode times a single \
                 cold pass and is not comparable across commits; regenerate \
                 with a full-mode `repro bench --json` before checking it in"
            ),
            TrajectoryError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

/// Validate an artefact *as a trajectory point*: everything
/// [`validate_artefact`] checks, plus the artefact must come from a
/// full-mode run (`quick: false`). CI uses this for checked-in
/// `BENCH_<n>.json` history so a quick smoke run can never silently
/// replace a real measurement.
pub fn validate_trajectory(text: &str, expected: &[&str]) -> Result<(), TrajectoryError> {
    validate_artefact(text, expected).map_err(TrajectoryError::Invalid)?;
    // validate_artefact guarantees `quick` parses as a boolean.
    let doc = Json::parse(text).expect("validated above");
    if doc.get("quick") == Some(&Json::Bool(true)) {
        return Err(TrajectoryError::Quick);
    }
    Ok(())
}

/// Validate a `rvhpc-bench-v1` artefact.
///
/// Checks, in order: the document parses, carries the right schema tag,
/// names every experiment in `expected` exactly once, every timing is a
/// finite non-negative number (the renderer writes NaN/inf as `null`, so
/// a degenerate measurement fails here as a type error), every hit rate
/// is within `[0, 1]`, and the batch as a whole actually shared estimates
/// (total hit rate > 0) — the acceptance contract of the shared sweep
/// engine. Returns the first violation as an error string.
pub fn validate_artefact(text: &str, expected: &[&str]) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("<missing>");
    if schema != SCHEMA {
        return err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    if !matches!(doc.get("quick"), Some(Json::Bool(_))) {
        return err("`quick` must be a boolean");
    }
    let engine = doc.get("engine").ok_or("missing `engine`")?;
    for field in ["lanes", "cache_capacity"] {
        let v = finite(engine, field)?;
        if v < 1.0 || v.fract() != 0.0 {
            return err(format!("engine.{field} must be a positive integer, got {v}"));
        }
    }

    let experiments =
        doc.get("experiments").and_then(Json::as_arr).ok_or("`experiments` must be an array")?;
    let mut names: Vec<&str> = Vec::new();
    for entry in experiments {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("every experiment needs a string `name`")?;
        if names.contains(&name) {
            return err(format!("experiment {name:?} appears twice"));
        }
        names.push(name);
        validate_measurement(entry, name)?;
    }
    for want in expected {
        if !names.contains(want) {
            return err(format!("experiment {want:?} missing from the artefact"));
        }
    }

    let total = doc.get("total").ok_or("missing `total`")?;
    validate_measurement(total, "total")?;
    let total_rate = finite(total.get("estimate_cache").expect("validated"), "hit_rate")?;
    if total_rate <= 0.0 {
        return err("total estimate-cache hit rate is 0 — the batch shared nothing; \
             the sweep engine's cross-experiment cache is not being used");
    }
    Ok(())
}

/// Check one `{wall_seconds, estimate_cache}` measurement object.
fn validate_measurement(entry: &Json, name: &str) -> Result<(), String> {
    let wall = finite(entry, "wall_seconds").map_err(|e| format!("{name}: {e}"))?;
    if wall < 0.0 {
        return err(format!("{name}: wall_seconds is negative ({wall})"));
    }
    let cache = entry.get("estimate_cache").ok_or(format!("{name}: missing estimate_cache"))?;
    for field in ["hits", "misses", "evictions"] {
        let v = finite(cache, field).map_err(|e| format!("{name}: {e}"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return err(format!("{name}: estimate_cache.{field} must be a count, got {v}"));
        }
    }
    let rate = finite(cache, "hit_rate").map_err(|e| format!("{name}: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return err(format!("{name}: hit_rate {rate} outside [0, 1]"));
    }
    Ok(())
}

/// A field that must be present and a finite number (NaN/inf render as
/// `null` and are caught here).
fn finite(obj: &Json, field: &str) -> Result<f64, String> {
    match obj.get(field).and_then(Json::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        Some(v) => Err(format!("`{field}` is not finite ({v})")),
        None => Err(format!("`{field}` missing or not a finite number")),
    }
}

/// Shorthand for `Err(msg.into())`.
fn err<T>(msg: impl Into<String>) -> Result<T, String> {
    Err(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, hits: u64, misses: u64) -> ExperimentBench {
        ExperimentBench { name: name.to_string(), wall_seconds: 0.01, hits, misses, evictions: 0 }
    }

    fn good_artefact() -> Json {
        let engine = EngineInfo { lanes: 8, cache_capacity: 32_768 };
        let exps = vec![sample("fig1", 0, 640), sample("fig2", 100, 28)];
        let total = sample("total", 100, 668);
        artefact(true, &engine, &exps, &total)
    }

    #[test]
    fn hit_rate_is_zero_without_lookups_and_never_nan() {
        let none = sample("x", 0, 0);
        assert_eq!(none.hit_rate(), 0.0);
        let all = sample("x", 5, 0);
        assert_eq!(all.hit_rate(), 1.0);
        assert!(sample("x", 1, 3).hit_rate().is_finite());
    }

    #[test]
    fn good_artefact_validates_in_both_renderings() {
        let a = good_artefact();
        validate_artefact(&a.render(), &["fig1", "fig2"]).expect("compact validates");
        validate_artefact(&a.pretty(), &["fig1", "fig2"]).expect("pretty validates");
    }

    #[test]
    fn quick_artefact_is_rejected_as_a_trajectory_point() {
        let text = good_artefact().render(); // good_artefact() is quick: true
        match validate_trajectory(&text, &["fig1", "fig2"]) {
            Err(TrajectoryError::Quick) => {}
            other => panic!("expected TrajectoryError::Quick, got {other:?}"),
        }
        assert!(TrajectoryError::Quick.to_string().contains("quick"), "message names the cause");

        let engine = EngineInfo { lanes: 8, cache_capacity: 32_768 };
        let exps = vec![sample("fig1", 0, 640), sample("fig2", 100, 28)];
        let full = artefact(false, &engine, &exps, &sample("total", 100, 668)).render();
        validate_trajectory(&full, &["fig1", "fig2"]).expect("full-mode artefact is history-grade");
    }

    #[test]
    fn trajectory_check_still_rejects_broken_artefacts() {
        let text = good_artefact().render();
        match validate_trajectory(&text, &["fig1", "fig7"]) {
            Err(TrajectoryError::Invalid(e)) => assert!(e.contains("fig7"), "{e}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let text = good_artefact().render().replace(SCHEMA, "rvhpc-bench-v0");
        let e = validate_artefact(&text, &[]).unwrap_err();
        assert!(e.contains("schema"), "{e}");
    }

    #[test]
    fn missing_expected_experiment_is_rejected() {
        let text = good_artefact().render();
        let e = validate_artefact(&text, &["fig1", "fig7"]).unwrap_err();
        assert!(e.contains("fig7"), "{e}");
    }

    #[test]
    fn nan_wall_time_is_rejected_as_non_finite() {
        // A NaN measurement renders as `null`, which must fail validation
        // rather than silently pass as "no data".
        let engine = EngineInfo { lanes: 1, cache_capacity: 1 };
        let mut bad = sample("fig1", 1, 1);
        bad.wall_seconds = f64::NAN;
        let text = artefact(true, &engine, &[bad], &sample("total", 1, 1)).render();
        let e = validate_artefact(&text, &["fig1"]).unwrap_err();
        assert!(e.contains("wall_seconds"), "{e}");
    }

    #[test]
    fn cold_total_cache_is_rejected() {
        let engine = EngineInfo { lanes: 1, cache_capacity: 1 };
        let exps = vec![sample("fig1", 0, 10)];
        let text = artefact(true, &engine, &exps, &sample("total", 0, 10)).render();
        let e = validate_artefact(&text, &["fig1"]).unwrap_err();
        assert!(e.contains("shared nothing"), "{e}");
    }

    #[test]
    fn out_of_range_hit_rate_is_rejected() {
        // Hand-corrupt the rendered artefact: hit_rate 1.5.
        let text = good_artefact().render().replacen("\"hit_rate\":0", "\"hit_rate\":1.5", 1);
        let e = validate_artefact(&text, &[]).unwrap_err();
        assert!(e.contains("outside"), "{e}");
    }

    #[test]
    fn duplicate_experiment_names_are_rejected() {
        let engine = EngineInfo { lanes: 1, cache_capacity: 1 };
        let exps = vec![sample("fig1", 1, 1), sample("fig1", 1, 1)];
        let text = artefact(true, &engine, &exps, &sample("total", 1, 1)).render();
        let e = validate_artefact(&text, &[]).unwrap_err();
        assert!(e.contains("twice"), "{e}");
    }

    #[test]
    fn wall_seconds_of_reports_a_positive_minimum() {
        let mut runs = 0;
        let t = wall_seconds_of(3, || {
            runs += 1;
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(runs, 3);
        assert!(t >= 0.0 && t.is_finite());
    }
}
