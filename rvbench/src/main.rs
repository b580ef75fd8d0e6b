//! The rvhpc benchmark: three workloads over the reproduction's public
//! API, every output verified, one JSON result line on stdout.
//!
//! ```text
//! cargo run --release --manifest-path rvbench/Cargo.toml -- \
//!     --workload <sweep_cold|serve_hot|fleet_mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload in a series of fresh child processes and
//! prints the medians of the end-to-end metrics of `catalog::END_TO_END`;
//! `--trace 1` runs it in this process and prints the per-layer metrics of
//! `catalog::PER_LAYER`. README.md in this directory says what each
//! workload and metric measures.

mod catalog;
mod check;
mod gen;
mod measure;
mod probes;
mod serving;
mod sweep;

use measure::{median, peak_rss_mb, timed, Report};
use rvhpc::perfmodel::CacheStats;
use rvhpc_trace::json::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: rvbench --workload <sweep_cold|serve_hot|fleet_mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// An untraced run is spread over fresh processes of about this many
/// measured seconds each, and reports the median over them. The
/// reproduction's worker pool lands differently on the CPUs in each
/// process and keeps that placement for seconds, so one long process
/// measures one placement; many short ones measure the distribution.
const CHILD_SECONDS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    SweepCold,
    ServeHot,
    FleetMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep_cold" => Some(Workload::SweepCold),
            "serve_hot" => Some(Workload::ServeHot),
            "fleet_mixed" => Some(Workload::FleetMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::ServeHot => "serve_hot",
            Workload::FleetMixed => "fleet_mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: this process is one share of an untraced run.
    child: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        child,
    })
}

/// The workload's estimate-cache activity: misses, hits, hit rate.
fn record_cache(report: &mut Report, delta: &CacheStats) {
    report.set("perfmodel.misses", delta.misses as f64);
    report.set("perfmodel.hits", delta.hits as f64);
    report.set("perfmodel.hit_rate", delta.hit_rate());
}

/// Median, p90, p99 and count of the workload's operation times, given in
/// units that `to_ms` converts to milliseconds.
fn record_ops(report: &mut Report, times: &[f64], to_ms: f64) {
    report.set("bench.op_p50_ms", measure::median(times) * to_ms);
    report.set("bench.op_p90_ms", measure::quantile(times, 0.9) * to_ms);
    report.set("bench.op_p99_ms", measure::quantile(times, 0.99) * to_ms);
    report.set("bench.op_samples", times.len() as f64);
}

/// Print how `parts` and the residual close `total`, and whether they do.
fn attribution(what: &str, unit: &str, total: f64, parts: &[(&str, f64)], residual: f64) {
    let share = |v: f64| v / total * 100.0;
    eprintln!("attribution: {what} = {total:.3} {unit}");
    for (name, v) in parts {
        eprintln!("  {name:<26} {v:>10.3} {unit} {:>6.1}%", share(*v));
    }
    eprintln!("  {:<26} {residual:>10.3} {unit} {:>6.1}%", "residual", share(residual));
    let verdict = if residual.abs() <= 0.1 * total.abs() { "add up" } else { "do not add up" };
    eprintln!(
        "  the parts {verdict} to the end-to-end figure: the residual is {:.1}% of it (bar: 10%)",
        share(residual).abs()
    );
}

/// Set up, measure and tear down one workload in this process. Traced
/// runs time the compiler's codegen first, before anything fills its memo,
/// and the direct-call probes last, after the workload has finished.
fn run_here(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        probes::codegen_measure_ms(report);
    }
    let setup = match args.workload {
        Workload::SweepCold => {
            let (sweep, t) = timed(sweep::setup);
            if args.trace {
                sweep::measure_traced(&sweep, args.seed, args.seconds, report);
            } else {
                sweep::measure(&sweep, args.seed, args.seconds, report);
            }
            t
        }
        Workload::ServeHot | Workload::FleetMixed => {
            let (stack, t) = timed(|| serving::setup(args.workload == Workload::FleetMixed));
            let stack = stack.map_err(|e| format!("set-up failed: {e}"))?;
            if args.trace {
                serving::measure_traced(stack, args.seed, args.seconds, report);
            } else {
                serving::measure(stack, args.seed, args.seconds, report);
            }
            t
        }
    };
    report.set("setup_s", setup.as_secs_f64());
    if args.trace {
        probes::run_all(report);
    }
    report.set("rss_mb", peak_rss_mb());
    Ok(())
}

/// One child's result line: its counts and its end-to-end metrics.
fn child_result(stdout: &[u8]) -> Option<(u64, u64, Vec<f64>)> {
    let text = String::from_utf8_lossy(stdout);
    let doc = Json::parse(text.lines().last()?).ok()?;
    let count = |key| doc.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let metrics = doc.get("metrics")?;
    let values = catalog::END_TO_END
        .iter()
        .map(|(name, _)| metrics.get(name)?.get("value")?.as_f64())
        .collect::<Option<Vec<f64>>>()?;
    Some((count("attempted")?, count("failed")?, values))
}

/// An untraced run: the measured seconds split over fresh child processes
/// run one after another, each with its own set-up, seed and teardown;
/// every end-to-end metric is the median over the children.
fn run_children(args: &Args, report: &mut Report) -> Result<(), String> {
    let children = (args.seconds / CHILD_SECONDS).round().max(1.0) as u64;
    let share = format!("{:?}", args.seconds / children as f64);
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut values = vec![Vec::new(); catalog::END_TO_END.len()];
    for i in 0..children {
        let seed = args.seed.wrapping_mul(1_000_003).wrapping_add(i).to_string();
        let out = Command::new(&exe)
            .args(["--child", "--workload", args.workload.name(), "--seed", &seed])
            .args(["--seconds", &share, "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        match child_result(&out.stdout).filter(|_| out.status.success()) {
            Some((attempted, failed, child_values)) => {
                report.count(attempted, failed);
                values.iter_mut().zip(child_values).for_each(|(v, x)| v.push(x));
            }
            None => report.count(1, 1),
        }
    }
    if values[0].is_empty() {
        return Err("every child process failed".to_string());
    }
    for ((name, _), v) in catalog::END_TO_END.iter().zip(&values) {
        report.set(name, median(v));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let ran = if args.trace || args.child {
        run_here(&args, &mut report)
    } else {
        run_children(&args, &mut report)
    };
    if let Err(e) = ran {
        eprintln!("rvbench: {e}");
        return ExitCode::FAILURE;
    }
    if report.attempted == 0 {
        // A run that attempted nothing has failed.
        report.count(1, 1);
    }
    report.set("bench.failed_share", report.failed as f64 / report.attempted as f64);
    let catalog: &[(&str, &str)] =
        if args.trace { &catalog::PER_LAYER } else { &catalog::END_TO_END };
    println!("{}", report.render(catalog));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = args("--workload fleet_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(a.workload == Workload::FleetMixed && a.seed == 7 && a.trace);
        assert_eq!(a.seconds, 10.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seconds 1",
            "--workload serve_hot --seconds 0",
            "--workload serve_hot --seconds 1 --trace 2",
            "--workload serve_hot --seconds 1 --bogus 1",
            "--workload serve_hot --seconds",
            "--seconds 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
