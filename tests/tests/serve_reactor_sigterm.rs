//! SIGTERM drain for the reactor server, in its own integration-test
//! binary: the SIGTERM flag is process-wide, so this test must not share a
//! process with other serving tests (cargo gives every file under `tests/`
//! its own process, which is exactly the isolation needed).
//!
//! Contract under test: on SIGTERM the reactor stops accepting, every
//! *admitted* request is still answered, late arrivals get
//! `shutting_down`, and the process-facing `Server::join` returns.

#![cfg(target_os = "linux")]

use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn sigterm_drains_the_reactor_answering_all_admitted_work() {
    rvhpc_serve::signal::install_sigterm_hook();

    // One-request batches behind a queue big enough for the whole backlog,
    // so a 400ms sleep plug guarantees admitted-but-unexecuted work exists
    // at the moment the signal lands.
    let server = Server::start(ServeConfig {
        reactor: true,
        queue_capacity: 32,
        batch_max: 1,
        ..ServeConfig::default()
    })
    .expect("reactor server binds");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    stream.write_all(b"{\"id\":\"plug\",\"op\":\"sleep\",\"ms\":400}\n").expect("write plug");
    let backlog = 5u64;
    for i in 0..backlog {
        let req = format!(
            r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","threads":2}}"#
        );
        stream.write_all(req.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
    }
    // Give the reactor time to admit the backlog, then deliver SIGTERM to
    // ourselves exactly like a supervisor would.
    std::thread::sleep(Duration::from_millis(150));
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM delivered");

    // Everything admitted before the signal must still be answered `ok`,
    // then the connection closes cleanly.
    let mut answered = 0u64;
    let mut plug_ok = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("readable until EOF");
        if n == 0 {
            break;
        }
        let reply = Json::parse(line.trim_end()).expect("valid JSON");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "admitted work answered: {reply:?}");
        if reply.get("id") == Some(&Json::str("plug")) {
            plug_ok = true;
        } else {
            answered += 1;
        }
    }
    assert!(plug_ok, "the in-flight sleep completed");
    assert_eq!(answered, backlog, "every admitted estimate answered before close");

    // join() returning is the drain completing; afterwards nothing is
    // accepting on the port any more.
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener closed after the SIGTERM drain"
    );
}
