//! Golden tests for `repro help`: the usage text must document every
//! subcommand (including `serve` and `loadgen`) and the exit codes the
//! scripts in ci.sh rely on, and unknown input must exit 2 with the usage.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_names_every_subcommand() {
    let out = repro().arg("help").output().expect("repro help runs");
    assert!(out.status.success(), "help exits 0");
    let text = String::from_utf8(out.stdout).expect("utf8");
    for cmd in [
        "all",
        "fig1",
        "table1",
        "nextgen",
        "machines",
        "kernel",
        "explain",
        "calibrate",
        "native",
        "verify",
        "lint",
        "bench",
        "serve",
        "submit",
        "loadgen",
        "top",
        "help",
    ] {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(cmd)),
            "help must document `{cmd}`:\n{text}"
        );
    }
}

#[test]
fn help_documents_serving_flags_and_exit_codes() {
    let out = repro().arg("help").output().expect("repro help runs");
    let text = String::from_utf8(out.stdout).expect("utf8");
    // The serving layer's knobs.
    for flag in [
        "--addr",
        "--queue-cap",
        "--batch-max",
        "--port-file",
        "--slo-ms",
        "--metrics-file",
        "--scrape-every-ms",
        "--reactor",
        "--max-conns",
        "--idle-timeout-ms",
        "--max-outbox-kb",
        "--max-fuel",
    ] {
        assert!(text.contains(flag), "help must mention serve flag `{flag}`:\n{text}");
    }
    // The admission pipeline's knobs.
    for flag in ["--asm", "--env", "--report", "--estimate"] {
        assert!(text.contains(flag), "help must mention submission flag `{flag}`:\n{text}");
    }
    // The loadgen's knobs.
    for flag in [
        "--clients",
        "--requests",
        "--rps",
        "--duration",
        "--probe-bad",
        "--shutdown",
        "--poll-metrics-ms",
        "--open-loop",
        "--connections",
    ] {
        assert!(text.contains(flag), "help must mention loadgen flag `{flag}`:\n{text}");
    }
    // The dashboard's knobs.
    for flag in ["--interval-ms", "--frames", "--once", "--check"] {
        assert!(text.contains(flag), "help must mention top flag `{flag}`:\n{text}");
    }
    // Exit-code contracts scripts depend on.
    assert!(text.contains("exit 1 invalid"), "bench --check invalid => exit 1:\n{text}");
    assert!(text.contains("exit 2 unknown"), "bench --check unknown schema => exit 2:\n{text}");
    assert!(text.contains("exits 1 on any protocol error"), "loadgen error => exit 1:\n{text}");
    assert!(text.contains("exits 3"), "lint findings => exit 3:\n{text}");
}

#[test]
fn unknown_command_and_flag_exit_2_with_usage() {
    let out = repro().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("usage: repro"), "usage text on stderr:\n{err}");

    let out = repro().arg("--frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));

    // Subcommand arg parsers reject unknown flags the same way.
    for sub in ["serve", "loadgen", "top", "submit", "lint"] {
        let out = repro().args([sub, "--no-such-flag"]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{sub} --no-such-flag");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(err.contains("unknown"), "{sub}: {err}");
    }
}

#[test]
fn loadgen_requires_an_addr() {
    let out = repro().arg("loadgen").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--addr is required"), "{err}");
}
