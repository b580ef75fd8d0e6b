//! Differential harness: the threaded server and the epoll reactor server
//! answer the *same* seeded op mix side by side, and every reply must be
//! bit-identical (`f64::to_bits` on every number) between the two modes.
//!
//! This is the acceptance proof for `--reactor`: the event loop changes
//! *how* bytes move, never *what* is answered. The mix covers estimate /
//! explain / suite / stats / malformed / oversized / split-frame writes,
//! and a plugged tiny-queue pair pins down the overload and deadline-0
//! error taxonomy deterministically.
//!
//! The op schedule is seeded from [`rvhpc_quickprop::base_seed`], so CI can
//! pin it (`RVHPC_SEED=2042`) and any failure is replayable.

#![cfg(target_os = "linux")]

use rvhpc_kernels::KernelName;
use rvhpc_machines::MachineId;
use rvhpc_serve::{ServeConfig, Server, MAX_LINE_BYTES};
use rvhpc_trace::json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A deterministic splitmix-style generator for the op schedule. Both
/// servers see the exact same byte stream, so the generator only has to be
/// reproducible, not high quality.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(server: &Server) -> Conn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// Send one request line in two TCP writes with a pause between them,
    /// so the reactor's incremental framer must reassemble a split frame.
    fn send_split(&mut self, line: &str) {
        let mid = line.len() / 2;
        self.stream.write_all(&line.as_bytes()[..mid]).expect("write head");
        self.stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
        self.stream.write_all(&line.as_bytes()[mid..]).expect("write tail");
        self.stream.write_all(b"\n").expect("write newline");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply readable");
        assert!(n > 0, "server closed the connection instead of replying");
        Json::parse(line.trim_end()).expect("reply is valid JSON")
    }
}

fn start_pair(base: ServeConfig) -> (Server, Server) {
    let threaded =
        Server::start(ServeConfig { reactor: false, ..base.clone() }).expect("threaded binds");
    let reactor = Server::start(ServeConfig { reactor: true, ..base }).expect("reactor binds");
    (threaded, reactor)
}

/// Deep bit-identity: numbers compare via `to_bits`, objects must agree on
/// key order (the protocol renders replies deterministically), everything
/// else must be structurally equal.
fn assert_bit_identical(threaded: &Json, reactor: &Json, path: &str) {
    match (threaded, reactor) {
        (Json::Num(a), Json::Num(b)) => assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{path}: threaded {a} vs reactor {b} differ in bits"
        ),
        (Json::Arr(a), Json::Arr(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: array length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_bit_identical(x, y, &format!("{path}[{i}]"));
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let ka: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let kb: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(ka, kb, "{path}: object keys (and order) must match");
            for ((k, x), (_, y)) in a.iter().zip(b) {
                assert_bit_identical(x, y, &format!("{path}.{k}"));
            }
        }
        (a, b) => assert_eq!(a, b, "{path}"),
    }
}

/// Shape-only compare for replies whose *values* are inherently run-local
/// (the `stats` counters: uptime, connection counts, queue depth). The two
/// modes must still agree on every key, its order, and its JSON type.
fn assert_same_shape(threaded: &Json, reactor: &Json, path: &str) {
    match (threaded, reactor) {
        (Json::Obj(a), Json::Obj(b)) => {
            let ka: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let kb: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(ka, kb, "{path}: stats keys (and order) must match");
            for ((k, x), (_, y)) in a.iter().zip(b) {
                assert_same_shape(x, y, &format!("{path}.{k}"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_same_shape(x, y, &format!("{path}[{i}]"));
            }
        }
        (Json::Num(_), Json::Num(_)) => {}
        (Json::Bool(_), Json::Bool(_)) => {}
        (Json::Str(_), Json::Str(_)) => {}
        (Json::Null, Json::Null) => {}
        (a, b) => panic!("{path}: type mismatch between modes: {a:?} vs {b:?}"),
    }
}

const MACHINES: &[MachineId] = &[
    MachineId::Sg2042,
    MachineId::VisionFiveV2,
    MachineId::AmdRome,
    MachineId::IntelIcelake,
    MachineId::Sg2042NextGen,
];
const KERNELS: &[KernelName] = &[
    KernelName::STREAM_TRIAD,
    KernelName::DAXPY,
    KernelName::GEMM,
    KernelName::STREAM_ADD,
    KernelName::EOS,
    KernelName::MEMSET,
];
const THREADS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];
const PRECISIONS: &[&str] = &["fp64", "fp32"];

fn estimate_line(g: &mut Lcg, id: u64) -> String {
    format!(
        r#"{{"id":{id},"op":"estimate","machine":"{}","kernel":"{}","precision":"{}","threads":{}}}"#,
        g.pick(MACHINES).token(),
        g.pick(KERNELS).label(),
        g.pick(PRECISIONS),
        g.pick(THREADS),
    )
}

#[test]
fn threaded_and_reactor_answer_the_same_op_mix_bit_identically() {
    let (threaded, reactor) = start_pair(ServeConfig::default());
    let mut t = Conn::open(&threaded);
    let mut r = Conn::open(&reactor);

    let seed = rvhpc_quickprop::base_seed();
    let mut g = Lcg(seed ^ 0x5e7e_d1ff);
    let malformed: &[&str] = &[
        "this is not json",
        r#"{"id":1,"op":"no_such_op"}"#,
        r#"{"id":2,"op":"estimate"}"#,
        r#"{"id":3,"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","bogus":1}"#,
        r#"{"op":"estimate","machine":"not-a-machine","kernel":"Basic_DAXPY"}"#,
        r#"{"id":4,"op":"suite","machine":"sg2042","class":7}"#,
    ];

    let ops = 120u64;
    let mut exercised: BTreeMap<&str, u32> = BTreeMap::new();
    for id in 0..ops {
        // Weighted mix; the weights are arbitrary but fixed, the draws are
        // seed-deterministic and identical for both servers.
        let roll = g.below(100);
        let (tag, line, shape_only) = if roll < 55 {
            ("estimate", estimate_line(&mut g, id), false)
        } else if roll < 65 {
            let line = format!(
                r#"{{"id":{id},"op":"explain","machine":"{}","kernel":"{}","threads":{}}}"#,
                g.pick(MACHINES).token(),
                g.pick(KERNELS).label(),
                g.pick(THREADS),
            );
            ("explain", line, false)
        } else if roll < 72 {
            let line = format!(
                r#"{{"id":{id},"op":"suite","machine":"{}","precision":"{}","threads":{}}}"#,
                g.pick(MACHINES).token(),
                g.pick(PRECISIONS),
                g.pick(THREADS),
            );
            ("suite", line, false)
        } else if roll < 80 {
            // A deadline generous enough to never expire: deterministic `ok`.
            let mut line = estimate_line(&mut g, id);
            line.truncate(line.len() - 1);
            line.push_str(r#","deadline_ms":60000}"#);
            ("deadline_ok", line, false)
        } else if roll < 88 {
            (
                "stats",
                format!(r#"{{"id":{id},"op":"stats"}}"#),
                true, // counters are run-local; compare shape, not values
            )
        } else if roll < 96 {
            ("malformed", g.pick(malformed).to_string(), false)
        } else {
            ("oversized", "x".repeat(MAX_LINE_BYTES + 1), false)
        };
        *exercised.entry(tag).or_default() += 1;

        // Occasionally split the write mid-line so the reactor's framer has
        // to reassemble; the answer must not change.
        if tag == "estimate" && g.below(8) == 0 {
            t.send_split(&line);
            r.send_split(&line);
        } else {
            t.send(&line);
            r.send(&line);
        }
        let (from_threaded, from_reactor) = (t.recv(), r.recv());
        let path = format!("op#{id}({tag})");
        if shape_only {
            assert_same_shape(&from_threaded, &from_reactor, &path);
        } else {
            assert_bit_identical(&from_threaded, &from_reactor, &path);
        }
    }
    assert!(exercised.len() >= 6, "seed {seed:#x} must exercise the whole mix, got {exercised:?}");

    // Drain both modes: the shutdown ack and the close must match too.
    t.send(r#"{"id":"bye","op":"shutdown"}"#);
    r.send(r#"{"id":"bye","op":"shutdown"}"#);
    let (ta, ra) = (t.recv(), r.recv());
    assert_bit_identical(&ta, &ra, "shutdown ack");
    assert_eq!(ta.get("ok"), Some(&Json::Bool(true)), "{ta:?}");
    for (name, conn) in [("threaded", &mut t), ("reactor", &mut r)] {
        let mut line = String::new();
        let n = conn.reader.read_line(&mut line).expect("EOF readable");
        assert_eq!(n, 0, "{name}: clean EOF after drain, got {line:?}");
    }
    threaded.join();
    reactor.join();
}

#[test]
fn plugged_queue_error_taxonomy_is_identical_across_modes() {
    // One queue slot, one-request batches, and a 300ms sleep plugging the
    // batcher: the admission outcome of every follow-up request is then
    // fully deterministic, so the overload / deadline-0 taxonomy can be
    // compared reply-for-reply across modes (not just statistically).
    let tiny = ServeConfig { queue_capacity: 1, batch_max: 1, ..ServeConfig::default() };
    let (threaded, reactor) = start_pair(tiny);
    let mut t = Conn::open(&threaded);
    let mut r = Conn::open(&reactor);

    for conn in [&mut t, &mut r] {
        conn.send(r#"{"id":"plug","op":"sleep","ms":300}"#);
    }
    // Let both batchers pop the sleep so the queue slot is free again.
    std::thread::sleep(Duration::from_millis(100));
    for conn in [&mut t, &mut r] {
        // Takes the single queue slot; expired by the time its batch
        // assembles (the batcher sleeps for another ~200ms).
        conn.send(
            r#"{"id":"d0","op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY","deadline_ms":0}"#,
        );
        // All of these find the queue full: deterministic `overloaded`.
        for i in 0..4 {
            conn.send(&format!(
                r#"{{"id":{i},"op":"estimate","machine":"sg2042","kernel":"Basic_DAXPY"}}"#
            ));
        }
    }

    // Reply order may interleave differently (rejections are immediate, the
    // plug answers after 300ms), so key replies by id before comparing.
    let collect = |conn: &mut Conn| -> BTreeMap<String, Json> {
        (0..6)
            .map(|_| {
                let reply = conn.recv();
                (reply.get("id").expect("id echoed").render(), reply)
            })
            .collect()
    };
    let from_threaded = collect(&mut t);
    let from_reactor = collect(&mut r);
    assert_eq!(
        from_threaded.keys().collect::<Vec<_>>(),
        from_reactor.keys().collect::<Vec<_>>(),
        "both modes answered the same ids"
    );
    for (id, ta) in &from_threaded {
        assert_bit_identical(ta, &from_reactor[id], &format!("id {id}"));
    }

    let kind = |reply: &Json| {
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).map(str::to_string)
    };
    assert_eq!(kind(&from_threaded["\"d0\""]), Some("deadline_exceeded".into()));
    assert_eq!(from_threaded["\"plug\""].get("ok"), Some(&Json::Bool(true)));
    for i in 0..4 {
        let reply = &from_threaded[&format!("{i}")];
        assert_eq!(kind(reply), Some("overloaded".into()), "{reply:?}");
        let hint = reply.get("error").and_then(|e| e.get("retry_after_ms")).and_then(Json::as_f64);
        assert!(hint.is_some(), "overloaded replies carry retry_after_ms: {reply:?}");
    }

    for server in [threaded, reactor] {
        server.shutdown();
        server.join();
    }
}
