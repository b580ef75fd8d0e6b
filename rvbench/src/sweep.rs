//! `sweep_cold`: every pass regenerates all twelve paper artefacts from an
//! empty estimate cache, the way a user regenerates the paper.

use crate::check::{artefacts_match, expected};
use crate::gen::{estimate_sample, Rng};
use crate::measure::{median, timed, Report};
use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::machines::machine;
use rvhpc::perfmodel::{cache, estimate_averaged, estimate_cached, persist};
use std::time::{Duration, Instant};

/// Estimates compared bit for bit against serial `estimate_averaged`
/// after every pass.
const SAMPLE_PER_PASS: usize = 8;

fn render(artefact: &Artefact) -> String {
    match artefact {
        Artefact::Figure(f) => f.to_markdown(),
        Artefact::Table(t) => t.to_markdown(),
    }
}

pub struct Sweep {
    /// The warm-up pass's rendered artefacts: every later pass must
    /// reproduce them byte for byte.
    reference: Vec<String>,
}

/// Pool spawn plus one unmeasured pass, which fills the process-wide
/// VLA-ratio and codegen memos and records the reference artefacts.
pub fn setup() -> Sweep {
    persist::set_cache_dir(None);
    rvhpc::threads::global_team();
    cache::clear();
    Sweep { reference: EXPERIMENTS.iter().map(|e| render(&e.run())).collect() }
}

/// Per-pass timings of a traced pass, in seconds.
struct PassParts {
    experiments: [f64; 12],
    render: f64,
}

impl Sweep {
    /// One cold pass. When `traced`, each experiment and each render is
    /// timed on its own as well.
    fn pass(&self, traced: bool) -> (bool, Duration, Option<PassParts>) {
        cache::clear();
        let start = Instant::now();
        let mut out = Vec::with_capacity(EXPERIMENTS.len());
        let mut parts = PassParts { experiments: [0.0; 12], render: 0.0 };
        if traced {
            for (i, e) in EXPERIMENTS.iter().enumerate() {
                let (artefact, t_run) = timed(|| e.run());
                let (text, t_render) = timed(|| render(&artefact));
                parts.experiments[i] = t_run.as_secs_f64();
                parts.render += t_render.as_secs_f64();
                out.push(text);
            }
        } else {
            out.extend(EXPERIMENTS.iter().map(|e| render(&e.run())));
        }
        let wall = start.elapsed();
        (artefacts_match(&self.reference, &out), wall, traced.then_some(parts))
    }
}

/// Serial, uncached estimates of a seeded sample must equal what the
/// cache serves after a pass, bit for bit.
fn sample_matches(rng: &mut Rng) -> bool {
    estimate_sample(rng, SAMPLE_PER_PASS).iter().all(|t| {
        let m = machine(t.machine);
        let cfg = t.run_config();
        expected(&estimate_cached(&m, t.kernel, &cfg))
            == expected(&estimate_averaged(&m, t.kernel, &cfg))
    })
}

/// Measured passes for `seconds`; returns the pass wall times in seconds.
fn run_phase(
    sweep: &Sweep,
    rng: &mut Rng,
    seconds: f64,
    traced: bool,
    report: &mut Report,
    parts: &mut Vec<PassParts>,
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    while Instant::now() < deadline {
        let (artefacts_ok, wall, pass_parts) = sweep.pass(traced);
        let ok = artefacts_ok && sample_matches(rng);
        report.count(1, u64::from(!ok));
        walls.push(wall.as_secs_f64());
        parts.extend(pass_parts);
    }
    walls
}

pub fn measure(sweep: &Sweep, seed: u64, seconds: f64, report: &mut Report) {
    let mut rng = Rng::new(seed, 0);
    let before = cache::stats();
    let start = Instant::now();
    let walls = run_phase(sweep, &mut rng, seconds, false, report, &mut Vec::new());
    let elapsed = start.elapsed().as_secs_f64();
    report.set("p50_ms", median(&walls) * 1e3);
    report.set("ops_per_s", walls.len() as f64 / elapsed);
    crate::record_cache(report, &cache::stats().since(&before));
}

/// The traced run: an untraced half, then a half that also times every
/// experiment and every render on its own.
pub fn measure_traced(sweep: &Sweep, seed: u64, seconds: f64, report: &mut Report) {
    let mut rng = Rng::new(seed, 0);
    let before = cache::stats();
    let plain = run_phase(sweep, &mut rng, seconds / 2.0, false, report, &mut Vec::new());
    let mut parts = Vec::new();
    let traced = run_phase(sweep, &mut rng, seconds / 2.0, true, report, &mut parts);
    crate::record_cache(report, &cache::stats().since(&before));

    crate::record_ops(report, &[&plain[..], &traced[..]].concat(), 1e3);
    let ms = |xs: &[f64]| median(xs) * 1e3;
    let mut attributed = 0.0;
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        let t = ms(&parts.iter().map(|p| p.experiments[i]).collect::<Vec<_>>());
        report.set(crate::catalog::experiment_metric(e.name), t);
        attributed += t;
    }
    let render = ms(&parts.iter().map(|p| p.render).collect::<Vec<_>>());
    attributed += render;
    report.set("core.render_ms", render);
    let residuals: Vec<f64> = parts
        .iter()
        .zip(&traced)
        .map(|(p, wall)| wall - p.experiments.iter().sum::<f64>() - p.render)
        .collect();
    let residual = ms(&residuals);
    let total = ms(&traced);
    report.set("bench.sweep_residual_ms", residual);
    report.set("bench.sweep_closure_pct", (attributed + residual) / total * 100.0);
    report.set("bench.trace_overhead_pct", (total / ms(&plain) - 1.0) * 100.0);
    crate::attribution(
        "sweep_cold pass p50",
        "ms",
        total,
        &[("experiments", attributed - render), ("core.render", render)],
        residual,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_artefact_byte_fails_the_pass() {
        let mut sweep = setup();
        let mut report = Report::default();
        run_phase(&sweep, &mut Rng::new(1, 0), 0.01, false, &mut report, &mut Vec::new());
        assert!(report.attempted > 0 && report.failed == 0, "the true artefacts pass");

        let mut bytes = std::mem::take(&mut sweep.reference[3]).into_bytes();
        bytes[10] ^= 0x01;
        sweep.reference[3] = String::from_utf8(bytes).unwrap();
        let mut report = Report::default();
        run_phase(&sweep, &mut Rng::new(1, 0), 0.01, false, &mut report, &mut Vec::new());
        assert!(report.attempted > 0);
        assert_eq!(report.failed, report.attempted, "every pass against it fails");
    }
}
