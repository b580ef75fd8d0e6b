//! End-to-end tests for the serving layer: a real `rvhpc_serve::Server`
//! and real TCP sockets in one process, so every assertion crosses the
//! full parse → admit → batch → compute → reply path.
//!
//! The acceptance contract:
//! * served estimates are **bit-identical** to direct `estimate_cached`,
//! * overload produces `overloaded` replies, never hangs or drops,
//! * a drain answers everything already admitted and then closes,
//! * the in-process loadgen run is clean and its artefact validates.

use rvhpc_kernels::KernelName;
use rvhpc_machines::{machine, MachineId};
use rvhpc_perfmodel::{estimate_cached, Precision, RunConfig};
use rvhpc_serve::bench::{serve_artefact, validate_serve_artefact};
use rvhpc_serve::{run_loadgen, LoadgenConfig, ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server binds")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
}

fn recv(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reply readable");
    assert!(n > 0, "server closed the connection instead of replying");
    Json::parse(line.trim_end()).expect("reply is valid JSON")
}

#[test]
fn served_estimates_are_bit_identical_to_the_local_model() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    let cases: Vec<(MachineId, KernelName, Precision, usize)> = vec![
        (MachineId::Sg2042, KernelName::STREAM_TRIAD, Precision::Fp64, 64),
        (MachineId::Sg2042, KernelName::DAXPY, Precision::Fp32, 1),
        (MachineId::VisionFiveV2, KernelName::GEMM, Precision::Fp64, 4),
        (MachineId::AmdRome, KernelName::STREAM_ADD, Precision::Fp32, 32),
        (MachineId::IntelIcelake, KernelName::EOS, Precision::Fp64, 16),
        (MachineId::Sg2042NextGen, KernelName::MEMSET, Precision::Fp32, 64),
    ];
    for (i, &(m, kernel, precision, threads)) in cases.iter().enumerate() {
        let req = Json::obj(vec![
            ("id", Json::Num(i as f64)),
            ("op", Json::str("estimate")),
            ("machine", Json::str(m.token())),
            ("kernel", Json::str(kernel.label())),
            ("precision", Json::str(precision.label())),
            ("threads", Json::Num(threads as f64)),
        ])
        .render();
        send(&mut stream, &req);
        let reply = recv(&mut reader);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(i as f64));
        let result = reply.get("result").expect("result object");

        let cfg = if m.is_riscv() {
            RunConfig::sg2042_best(precision, threads)
        } else {
            RunConfig::x86(precision, threads)
        };
        let local = estimate_cached(&machine(m), kernel, &cfg);
        for (field, want) in [
            ("seconds", local.seconds),
            ("compute_seconds", local.compute_seconds),
            ("memory_seconds", local.memory_seconds),
            ("overhead_seconds", local.overhead_seconds),
        ] {
            let got = result.get(field).and_then(Json::as_f64).expect(field);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{m:?} {kernel:?}: served `{field}` must be bit-identical ({got} vs {want})"
            );
        }
        assert_eq!(
            result.get("vector_path"),
            Some(&Json::Bool(local.vector_path)),
            "{m:?} {kernel:?}"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn overload_rejects_with_backpressure_and_never_drops() {
    // A deliberately tiny server: one queue slot, one-item batches. A slow
    // `sleep` occupies the batcher while a burst arrives, so most of the
    // burst must be rejected — but every single request still gets a reply.
    let server = start(ServeConfig { queue_capacity: 1, batch_max: 1, ..ServeConfig::default() });
    let (mut stream, mut reader) = connect(&server);

    send(&mut stream, r#"{"id":"plug","op":"sleep","ms":300}"#);
    let burst = 10;
    for i in 0..burst {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":{}}}"#,
            i + 1
        );
        send(&mut stream, &req);
    }

    let mut ok = 0u32;
    let mut overloaded = 0u32;
    let mut saw_retry_hint = false;
    for _ in 0..burst + 1 {
        let reply = recv(&mut reader);
        match reply.get("ok") {
            Some(Json::Bool(true)) => ok += 1,
            Some(Json::Bool(false)) => {
                let error = reply.get("error").expect("error object");
                assert_eq!(
                    error.get("kind").and_then(Json::as_str),
                    Some("overloaded"),
                    "only overload errors expected: {reply:?}"
                );
                let hint = error.get("retry_after_ms").and_then(Json::as_f64).expect("hint");
                assert!((1.0..=1000.0).contains(&hint), "retry hint in range: {hint}");
                saw_retry_hint = true;
                overloaded += 1;
            }
            _ => panic!("malformed reply: {reply:?}"),
        }
    }
    assert_eq!(ok + overloaded, burst + 1, "every request answered, none dropped");
    assert!(overloaded >= 1, "a 1-slot queue behind a 300ms sleep must shed load");
    assert!(saw_retry_hint, "overloaded replies carry retry_after_ms");
    assert!(ok >= 1, "the sleep itself (and any queued estimate) completes");

    let stats = server.stats();
    assert!(
        stats.rejected_overload.load(std::sync::atomic::Ordering::Relaxed) >= u64::from(overloaded),
        "server counted its rejections"
    );

    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_answers_admitted_work_then_closes() {
    let server = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&server);

    // Admit a handful of estimates, then request the drain on the same
    // connection: everything sent before `shutdown` must still be answered.
    let k = 6;
    for i in 0..k {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"intel-icelake","kernel":"Stream_TRIAD","threads":{}}}"#,
            i + 1
        );
        send(&mut stream, &req);
    }
    send(&mut stream, r#"{"id":"bye","op":"shutdown"}"#);

    let mut answered = 0;
    let mut drain_acked = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("readable until EOF");
        if n == 0 {
            break; // clean EOF after the drain
        }
        let reply = Json::parse(line.trim_end()).expect("valid JSON");
        if reply.get("id") == Some(&Json::str("bye")) {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
            drain_acked = true;
        } else {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            answered += 1;
        }
    }
    assert!(drain_acked, "shutdown request is acknowledged");
    assert_eq!(answered, k, "every admitted estimate answered before close");

    let addr = server.local_addr();
    server.join();

    // The listener socket is gone once join returns; a fresh connection
    // must be refused (nothing is accepting on that port any more).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener closed after drain"
    );
}

#[test]
fn deadline_zero_is_cancelled_not_computed() {
    // Hold the batcher with a sleep so the deadline-0 estimate is already
    // expired when its batch assembles.
    let server = start(ServeConfig { queue_capacity: 8, batch_max: 1, ..ServeConfig::default() });
    let (mut stream, mut reader) = connect(&server);
    send(&mut stream, r#"{"id":1,"op":"sleep","ms":150}"#);
    send(
        &mut stream,
        r#"{"id":2,"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","deadline_ms":0}"#,
    );
    let mut kinds = Vec::new();
    for _ in 0..2 {
        let reply = recv(&mut reader);
        match reply.get("ok") {
            Some(Json::Bool(true)) => kinds.push("ok".to_string()),
            _ => kinds.push(
                reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            ),
        }
    }
    kinds.sort();
    assert_eq!(kinds, vec!["deadline_exceeded", "ok"], "sleep ok + estimate cancelled");

    server.shutdown();
    server.join();
}

#[test]
fn in_process_loadgen_run_is_clean_and_artefact_validates() {
    let server = start(ServeConfig::default());
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 3,
        requests_per_client: Some(40),
        seed: 1234,
        probe_bad: true,
        shutdown_after: true,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg).expect("loadgen reaches the server");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(report.sent, 120);
    assert_eq!(report.ok, 120);
    assert!(report.verified_bit_identical, "served replies match the local model");
    assert_eq!(report.probe_bad_ok, Some(true), "malformed line gets bad_request");
    assert_eq!(report.drained_clean, Some(true), "shutdown acked and connection closed");
    assert!(report.p50_us.is_finite() && report.p95_us.is_finite() && report.p99_us.is_finite());
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!(report.throughput_rps > 0.0);
    assert!(
        report.cache_hits + report.cache_misses >= 1,
        "the run must move the perfmodel estimate-cache counters: {report:?}"
    );

    let artefact = serve_artefact(&cfg, &report).render();
    validate_serve_artefact(&artefact).expect("artefact validates");

    server.join(); // loadgen's --shutdown already initiated the drain
}
