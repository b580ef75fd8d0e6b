//! Dedup under backlog, checked differentially on both transports.
//!
//! The batcher is work-conserving: it never waits for companions, so
//! identical queries are coalesced only when they pile up behind work that
//! is already executing. This harness builds exactly that backlog — a
//! `sleep` request parks the batcher while several connections queue
//! duplicate and distinct estimates behind it — and then checks that:
//!
//! * every reply is `to_bits`-identical to a local `estimate_cached` call
//!   made on a cold cache before the server started,
//! * the whole backlog was answered as one batch (`max_batch > 1`),
//! * each distinct query was computed exactly once (the estimate-cache
//!   miss delta equals the number of distinct queries, with no hits).
//!
//! The two tests share the process-wide estimate cache, so they run one at
//! a time behind a lock.

#![cfg(target_os = "linux")]

use rvhpc_machines::machine;
use rvhpc_perfmodel::{cache, estimate_cached};
use rvhpc_serve::loadgen::{query_pool, reply_bits, EstimateBits, Triple};
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Distinct queries in the backlog; each is sent twice.
const DISTINCT: usize = 6;
/// Client connections the backlog is spread over.
const CONNS: usize = 4;
/// How long the plug holds the batcher. Generous: the backlog only has
/// to be admitted (a few milliseconds) before it ends.
const PLUG_MS: u64 = 1_500;

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

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply readable");
        assert!(n > 0, "server closed the connection instead of replying");
        Json::parse(line.trim_end()).expect("reply is valid JSON")
    }

    fn stats(&mut self) -> Json {
        self.send(r#"{"op":"stats"}"#);
        self.recv().get("result").cloned().expect("stats result")
    }
}

fn field(doc: &Json, block: &str, name: &str) -> u64 {
    doc.get(block).and_then(|b| b.get(name)).and_then(Json::as_f64).expect(name) as u64
}

fn local_bits(q: &Triple) -> EstimateBits {
    let est = estimate_cached(&machine(q.machine), q.kernel, &q.run_config());
    [est.seconds, est.compute_seconds, est.memory_seconds, est.overhead_seconds].map(f64::to_bits)
}

/// Poll `stats` until `done` holds, or fail after a few seconds.
fn wait_for(conn: &mut Conn, what: &str, done: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = conn.stats();
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn dedup_under_backlog(reactor: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Distinct (machine, kernel) pairs, so no two queries share a cache key.
    let pool = query_pool();
    let queries: Vec<Triple> =
        pool.iter().step_by(pool.len() / DISTINCT).take(DISTINCT).copied().collect();
    let expected: Vec<EstimateBits> = queries.iter().map(local_bits).collect();
    cache::clear();

    let server =
        Server::start(ServeConfig { reactor, ..ServeConfig::default() }).expect("server binds");
    let mut control = Conn::open(&server);
    let mut plug = Conn::open(&server);
    plug.send(&format!(r#"{{"id":"plug","op":"sleep","ms":{PLUG_MS}}}"#));
    wait_for(&mut control, "the plug to execute", |s| {
        field(s, "server", "batches") == 1 && field(s, "server", "queue_depth") == 0
    });

    // Every distinct query twice, the copies on different connections.
    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&server)).collect();
    let mut sent: Vec<Vec<usize>> = vec![Vec::new(); CONNS];
    for copy in 0..2 {
        for (q, query) in queries.iter().enumerate() {
            let c = (q + copy) % CONNS;
            conns[c].send(&query.request_line((copy * DISTINCT + q) as u64));
            sent[c].push(q);
        }
    }
    let backlog = 2 * DISTINCT as u64;
    let queued = wait_for(&mut control, "the backlog to queue", |s| {
        field(s, "server", "queue_depth") == backlog
    });
    assert_eq!(field(&queued, "server", "batches"), 1, "the plug still holds the batcher");

    for (conn, sent) in conns.iter_mut().zip(&sent) {
        for &q in sent {
            let reply = conn.recv();
            let result = reply.get("result").unwrap_or_else(|| panic!("ok reply: {reply:?}"));
            let bits = reply_bits(result).expect("estimate fields");
            assert_eq!(bits, expected[q], "query {q} (reactor={reactor}) differs in bits");
        }
    }
    assert_eq!(plug.recv().get("id").and_then(Json::as_str), Some("plug"));

    let stats = control.stats();
    assert_eq!(field(&stats, "server", "completed"), backlog + 1);
    assert!(field(&stats, "server", "max_batch") > 1, "backlog coalesced: {stats:?}");
    assert_eq!(field(&stats, "server", "max_batch"), backlog, "one batch drained it: {stats:?}");
    assert_eq!(
        field(&stats, "estimate_cache_delta", "misses"),
        DISTINCT as u64,
        "each distinct query computed once: {stats:?}"
    );
    assert_eq!(
        field(&stats, "estimate_cache_delta", "hits"),
        0,
        "duplicates were answered from the batch, not looked up again: {stats:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn threaded_transport_dedups_a_backlog_bit_identically() {
    dedup_under_backlog(false);
}

#[test]
fn reactor_transport_dedups_a_backlog_bit_identically() {
    dedup_under_backlog(true);
}
