//! Timing statistics, process probes and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Wall time of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median over `rounds` of the mean time per call of `per_round`, which
/// makes `calls` calls and returns how long they took. Means add up across
/// layers; the median over rounds drops rounds a context switch hit.
pub fn per_call_us(rounds: usize, calls: usize, mut per_round: impl FnMut() -> Duration) -> f64 {
    let means: Vec<f64> =
        (0..rounds).map(|_| per_round().as_secs_f64() * 1e6 / calls as f64).collect();
    median(&means)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The metrics of one run, printed as the last line of stdout.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line over the named `(metric, unit)` catalog. Metrics of
    /// layers this workload never exercised read 0.
    pub fn render(&self, catalog: &[(&str, &str)]) -> String {
        let metrics = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#)
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_result_line_is_json_with_every_catalog_metric() {
        let mut r = Report::default();
        r.count(3, 1);
        r.set("a_ms", 1.5);
        let line = r.render(&[("a_ms", "ms"), ("b", "count")]);
        let doc = rvhpc_trace::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&rvhpc_trace::json::Json::Bool(false)));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("a_ms").unwrap().get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(metrics.get("b").unwrap().get("value").unwrap().as_f64(), Some(0.0));
    }
}
