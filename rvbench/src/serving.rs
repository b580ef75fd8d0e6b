//! `serve_hot` and `fleet_mixed`: closed-loop clients over real TCP
//! against in-process reactor servers, and for the fleet a router in
//! front of two of them. Closed loop because this server's callers (CLI
//! clients, loadgen, the router) each wait for their reply.

use crate::check::{
    estimate_reply_ok, expected, suite_expected_digest, suite_reply_digest, Expected,
};
use crate::gen::{suite_space, EstimateStream, SuiteStream};
use crate::measure::{median, quantile, thread_count, timed, Report};
use rvhpc::machines::machine;
use rvhpc::perfmodel::{cache, estimate_cached, persist};
use rvhpc_fleet::{routing_key, ConsistentRing, Router, RouterConfig};
use rvhpc_serve::loadgen::query_pool;
use rvhpc_serve::protocol::parse_request;
use rvhpc_serve::{ServeConfig, Server};
use rvhpc_trace::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(10);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Hot requests sent both through the router and straight to the owning
/// shard to isolate the router hop.
const HOP_SAMPLES: u64 = 1000;
/// `fleet_mixed` clears the estimate cache at the start of every epoch of
/// this many seconds (an untraced run's processes last one epoch each).
const CACHE_EPOCH_S: f64 = 2.0;
/// Pause of the suite client between a reply and its next request. It
/// keeps a shard's event loop busy with suites a few percent of the time,
/// so blocking shows in the estimate client's p99 while its p50 and p90
/// stay steady; and it keeps an epoch under 170 suites, whose first-seen
/// half writes far fewer than the estimate cache's 32768 entries: nothing
/// is evicted and the estimate client's pool stays hot.
const SUITE_THINK: Duration = Duration::from_millis(12);
const STAGES: [&str; 5] = ["admission", "queue_wait", "batch_window", "compute", "write_back"];

/// One client connection speaking the line protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            out: Vec::new(),
            reply: String::new(),
        })
    }

    /// Send one request and wait for its reply (left in `self.reply`).
    fn call(&mut self, line: &str) -> std::io::Result<Duration> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reply.clear();
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(start.elapsed())
    }
}

/// What one client saw.
#[derive(Default)]
struct Outcome {
    sent: u64,
    bad: u64,
    latencies_us: Vec<f64>,
}

impl Outcome {
    fn failed_to_connect() -> Outcome {
        Outcome { sent: 1, bad: 1, latencies_us: Vec::new() }
    }
}

/// Hot `estimate` requests until `deadline`, each checked bit for bit.
fn estimate_client(
    addr: SocketAddr,
    stream: EstimateStream,
    client: u64,
    deadline: Instant,
    want: &[Expected],
) -> Outcome {
    let pool = query_pool();
    let Ok(mut conn) = Conn::open(addr) else { return Outcome::failed_to_connect() };
    let mut out = Outcome::default();
    for (seq, idx) in (0u64..).zip(stream) {
        if Instant::now() >= deadline {
            break;
        }
        let id = client << 32 | seq;
        out.sent += 1;
        match conn.call(&pool[idx].request_line(id)) {
            Ok(t) if estimate_reply_ok(&conn.reply, id, &want[idx]) => {
                out.latencies_us.push(t.as_secs_f64() * 1e6);
            }
            Ok(_) => out.bad += 1,
            Err(_) => {
                out.bad += 1;
                break;
            }
        }
    }
    out
}

/// What the suite client saw: per config, the digest of its first reply
/// and how many replies carried it.
#[derive(Default)]
struct SuiteOutcome {
    base: Outcome,
    replies: HashMap<usize, (u64, u64)>,
    repeats: u64,
}

/// `suite` requests, each `SUITE_THINK` after the previous reply, until
/// `deadline`. A repeat must match the config's
/// first reply; first replies are checked against local estimates after
/// the run, so verification never touches the shared estimate cache.
fn suite_client(addr: SocketAddr, seed: u64, deadline: Instant) -> SuiteOutcome {
    let space = suite_space();
    let Ok(mut conn) = Conn::open(addr) else {
        return SuiteOutcome { base: Outcome::failed_to_connect(), ..SuiteOutcome::default() };
    };
    let mut out = SuiteOutcome::default();
    for (seq, (idx, repeat)) in (0u64..).zip(SuiteStream::new(seed, 1)) {
        if Instant::now() >= deadline {
            break;
        }
        let id = 1 << 32 | seq;
        out.base.sent += 1;
        match conn.call(&space[idx].request_line(id)) {
            Ok(t) => match suite_reply_digest(&conn.reply, id) {
                Some(d) => {
                    let entry = out.replies.entry(idx).or_insert((d, 0));
                    if entry.0 == d {
                        entry.1 += 1;
                        out.repeats += u64::from(repeat);
                        out.base.latencies_us.push(t.as_secs_f64() * 1e6);
                    } else {
                        out.base.bad += 1;
                    }
                }
                None => out.base.bad += 1,
            },
            Err(_) => {
                out.base.bad += 1;
                break;
            }
        }
        std::thread::sleep(SUITE_THINK);
    }
    out
}

fn start_shard() -> std::io::Result<Server> {
    Server::start(ServeConfig { reactor: true, ..ServeConfig::default() })
}

/// Estimate every pool query through the cache; the replies must carry
/// exactly these bits.
fn warm_pool() -> Vec<Expected> {
    query_pool()
        .iter()
        .map(|t| expected(&estimate_cached(&machine(t.machine), t.kernel, &t.run_config())))
        .collect()
}

/// Run `join` on a helper thread and wait for it at most `DRAIN_TIMEOUT`.
fn joined_within(join: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        join();
        let _ = tx.send(());
    });
    let done = rx.recv_timeout(DRAIN_TIMEOUT).is_ok();
    if done {
        let _ = helper.join();
    }
    done
}

fn port_closed(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
}

/// The process's threads are back to what they were before any server
/// started (polled briefly: an exiting thread leaves the task list late).
fn threads_back_to(before: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while thread_count() > before {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn drain_server(server: Server) -> bool {
    let addr = server.local_addr();
    server.shutdown();
    joined_within(move || server.join()) && port_closed(addr)
}

fn drain_router(router: Router) -> bool {
    let addr = router.local_addr();
    router.shutdown();
    joined_within(move || router.join()) && port_closed(addr)
}

/// A started serving stack: one shard, or a router over two.
pub struct Stack {
    shards: Vec<Server>,
    router: Option<Router>,
    want: Vec<Expected>,
    threads_before: usize,
}

impl Stack {
    /// Where clients connect.
    fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or_else(|| self.shards[0].local_addr(), Router::local_addr)
    }

    /// Graceful drain of router then shards. Clean means every join
    /// returned in time, no port still accepts, and no server or router
    /// thread is left. Returns `(clean, drain time)`.
    pub fn drain(self) -> (bool, Duration) {
        let Stack { shards, router, threads_before, .. } = self;
        let (clean, t) = timed(|| {
            let router_ok = router.is_none_or(drain_router);
            let shards_ok = shards.into_iter().map(drain_server).fold(true, |a, b| a & b);
            router_ok && shards_ok && threads_back_to(threads_before)
        });
        (clean, t)
    }
}

/// Pool spawn, cache warm-up of the 180-query pool, and the stack up and
/// answering through its front door.
pub fn setup(fleet: bool) -> std::io::Result<Stack> {
    persist::set_cache_dir(None);
    rvhpc::threads::global_team();
    let threads_before = thread_count();
    cache::clear();
    let want = warm_pool();
    let shards =
        (0..if fleet { 2 } else { 1 }).map(|_| start_shard()).collect::<Result<Vec<_>, _>>()?;
    let router = if fleet {
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        Some(Router::start(RouterConfig::default(), addrs)?)
    } else {
        None
    };
    let stack = Stack { shards, router, want, threads_before };
    let mut conn = Conn::open(stack.front())?;
    conn.call(r#"{"id":0,"op":"ping"}"#)?;
    if !conn.reply.contains(r#""pong":true"#) {
        return Err(std::io::Error::other(format!("no pong from the front door: {}", conn.reply)));
    }
    Ok(stack)
}

/// One measured phase's client results.
struct Phase {
    hot: Outcome,
    suites: Option<SuiteOutcome>,
    elapsed: f64,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.sent += other.sent;
        self.bad += other.bad;
        self.latencies_us.extend(other.latencies_us);
    }
}

impl SuiteOutcome {
    /// Merge another epoch's suites: a config answered in both must have
    /// been answered identically.
    fn absorb(&mut self, other: SuiteOutcome) {
        for (idx, (digest, n)) in other.replies {
            let entry = self.replies.entry(idx).or_insert((digest, 0));
            if entry.0 == digest {
                entry.1 += n;
            } else {
                self.base.bad += n;
            }
        }
        self.repeats += other.repeats;
        self.base.absorb(other.base);
    }
}

impl Phase {
    fn ok(&self) -> u64 {
        let suites = self.suites.as_ref().map_or(0, |s| s.base.latencies_us.len());
        (self.hot.latencies_us.len() + suites) as u64
    }
}

/// `serve_hot`: two estimate clients. `fleet_mixed`: one estimate client
/// and one suite client, in epochs that each start from a cleared cache
/// with the pool re-warmed, so first-seen suites write the cache beside
/// hot reads.
fn run_phase(stack: &Stack, seed: u64, phase: u64, seconds: f64) -> Phase {
    let fleet = stack.router.is_some();
    let epochs = if fleet { (seconds / CACHE_EPOCH_S).ceil().max(1.0) as u64 } else { 1 };
    let mut total =
        Phase { hot: Outcome::default(), suites: fleet.then(SuiteOutcome::default), elapsed: 0.0 };
    for epoch in 0..epochs {
        let p = run_epoch(stack, seed, phase << 16 | epoch, seconds / epochs as f64);
        total.hot.absorb(p.hot);
        if let (Some(all), Some(these)) = (&mut total.suites, p.suites) {
            all.absorb(these);
        }
        total.elapsed += p.elapsed;
    }
    total
}

fn run_epoch(stack: &Stack, seed: u64, epoch: u64, seconds: f64) -> Phase {
    let front = stack.front();
    let fleet = stack.router.is_some();
    if fleet {
        cache::clear();
        warm_pool();
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let stream = |client: u64| EstimateStream::new(seed, epoch << 8 | client);
    let (hot, suites) = std::thread::scope(|s| {
        let first = s.spawn(|| estimate_client(front, stream(0), 0, deadline, &stack.want));
        let (second, suites) = if fleet {
            let suites = s.spawn(|| suite_client(front, seed ^ epoch << 40, deadline)).join();
            (Outcome::default(), Some(suites.expect("suite client panicked")))
        } else {
            let second = s.spawn(|| estimate_client(front, stream(1), 1, deadline, &stack.want));
            (second.join().expect("client panicked"), None)
        };
        let mut hot = first.join().expect("client panicked");
        hot.absorb(second);
        (hot, suites)
    });
    Phase { hot, suites, elapsed: start.elapsed().as_secs_f64() }
}

/// Count a phase's operations, including the post-run check of every
/// config's first suite reply against serial local estimates.
fn count(report: &mut Report, phase: &Phase) {
    report.count(phase.hot.sent, phase.hot.bad);
    if let Some(s) = &phase.suites {
        let space = suite_space();
        let wrong: u64 = s
            .replies
            .iter()
            .filter(|(&idx, &(digest, _))| suite_expected_digest(&space[idx]) != digest)
            .map(|(_, &(_, n))| n)
            .sum();
        report.count(s.base.sent, s.base.bad + wrong);
    }
}

pub fn measure(stack: Stack, seed: u64, seconds: f64, report: &mut Report) {
    let before = cache::stats();
    let phase = run_phase(&stack, seed, 0, seconds);
    crate::record_cache(report, &cache::stats().since(&before));
    count(report, &phase);
    report.set("p50_ms", median(&phase.hot.latencies_us) / 1e3);
    report.set("ops_per_s", phase.ok() as f64 / phase.elapsed);
    let (clean, _) = stack.drain();
    report.count(1, u64::from(!clean));
}

/// The traced run: an untraced half, a traced half, then the server's
/// own stage histograms and counters, the router hop, and the drain.
pub fn measure_traced(stack: Stack, seed: u64, seconds: f64, report: &mut Report) {
    let before = cache::stats();
    let plain = run_phase(&stack, seed, 0, seconds / 2.0);
    let traced = run_phase(&stack, seed, 1, seconds / 2.0);
    crate::record_cache(report, &cache::stats().since(&before));
    count(report, &plain);
    count(report, &traced);

    let p50 = |p: &Phase| median(&p.hot.latencies_us);
    report.set("bench.trace_overhead_pct", (p50(&traced) / p50(&plain) - 1.0) * 100.0);
    let lat: Vec<f64> =
        [&plain, &traced].iter().flat_map(|p| p.hot.latencies_us.iter().copied()).collect();
    crate::record_ops(report, &lat, 1e-3);
    if let (Some(a), Some(b)) = (&plain.suites, &traced.suites) {
        let suite_lat: Vec<f64> =
            a.base.latencies_us.iter().chain(&b.base.latencies_us).copied().collect();
        let suites = suite_lat.len() as f64;
        report.set("fleet.suite_p50_us", median(&suite_lat));
        report.set("fleet.suite_p90_us", quantile(&suite_lat, 0.9));
        report.set("fleet.suites", suites);
        report.set("fleet.suite_repeat_share", (a.repeats + b.repeats) as f64 / suites);
    }

    let stages_ok = read_stages(stack.front(), median(&lat), report);
    report.count(1, u64::from(!stages_ok));
    server_counters(&stack, report);
    if stack.router.is_some() {
        let hop_bad = router_hop(&stack, seed, report);
        report.count(HOP_SAMPLES * 2, hop_bad);
    }
    let (clean, drain) = stack.drain();
    report.count(1, u64::from(!clean));
    report.set("bench.drain_ms", drain.as_secs_f64() * 1e3);
}

/// The five `serve.*` stages from the `metrics` op, and the client p50
/// they leave unexplained.
fn read_stages(front: SocketAddr, client_p50_us: f64, report: &mut Report) -> bool {
    let Ok(mut conn) = Conn::open(front) else { return false };
    if conn.call(r#"{"id":0,"op":"metrics"}"#).is_err() {
        return false;
    }
    let Ok(doc) = Json::parse(conn.reply.trim_end()) else { return false };
    let Some(stages) = doc.get("result").and_then(|r| r.get("stages")) else { return false };
    let mut parts = Vec::new();
    for stage in STAGES {
        let Some(hist) = stages.get(&format!("serve.{stage}")) else { return false };
        let q = |field| hist.get(field).and_then(Json::as_f64);
        let (Some(p50), Some(p99)) = (q("p50_us"), q("p99_us")) else { return false };
        report.set(crate::catalog::stage_metric(stage, "p50"), p50);
        report.set(crate::catalog::stage_metric(stage, "p99"), p99);
        parts.push((stage, p50));
    }
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    report.set("serve.residual_p50_us", client_p50_us - attributed);
    report.set("bench.serve_closure_pct", attributed / client_p50_us * 100.0);
    crate::attribution("client p50", "us", client_p50_us, &parts, client_p50_us - attributed);
    true
}

/// Batching counters from `Server::stats()`, summed over shards, and the
/// router's routing counters.
fn server_counters(stack: &Stack, report: &mut Report) {
    let sum = |f: fn(&rvhpc_serve::ServerStats) -> u64| -> u64 {
        stack.shards.iter().map(|s| f(s.stats())).sum()
    };
    let batches = sum(|s| s.batches.load(Ordering::Relaxed));
    let items = sum(|s| s.batch_items.load(Ordering::Relaxed));
    let max_batch =
        stack.shards.iter().map(|s| s.stats().max_batch.load(Ordering::Relaxed)).max().unwrap_or(0);
    report.set("serve.batches", batches as f64);
    report.set("serve.batch_size_mean", items as f64 / batches.max(1) as f64);
    report.set("serve.max_batch", max_batch as f64);
    if let Some(router) = &stack.router {
        let state = router.state();
        let shards = 0..state.len();
        report.set("fleet.routed", shards.clone().map(|i| state.routed(i)).sum::<u64>() as f64);
        report.set("fleet.mark_downs", shards.map(|i| state.mark_downs(i)).sum::<u64>() as f64);
    }
}

/// The same hot requests from one client, alternately through the router
/// and straight to the shard that owns them; the hop is the difference of
/// the two p50s. Only requests shard 0 owns are sent, so the client holds
/// two connections. Returns the number of bad replies.
fn router_hop(stack: &Stack, seed: u64, report: &mut Report) -> u64 {
    let pool = query_pool();
    let ring = ConsistentRing::new(stack.shards.len());
    let owned_by_first = |idx: &usize| {
        let line = pool[*idx].request_line(0);
        routing_key(&parse_request(&line).1.expect("pool line parses"))
            .is_some_and(|key| ring.owner(&key) == 0)
    };
    let (Ok(router), Ok(shard)) =
        (Conn::open(stack.front()), Conn::open(stack.shards[0].local_addr()))
    else {
        return HOP_SAMPLES * 2;
    };
    let mut conns = [router, shard];
    let mut samples = [Vec::new(), Vec::new()];
    let mut bad = 0;
    let requests = EstimateStream::new(seed, 2 << 8).filter(owned_by_first);
    for (seq, idx) in (0..HOP_SAMPLES).zip(requests) {
        let line = pool[idx].request_line(seq);
        for (conn, times) in conns.iter_mut().zip(&mut samples) {
            match conn.call(&line) {
                Ok(t) if estimate_reply_ok(&conn.reply, seq, &stack.want[idx]) => {
                    times.push(t.as_secs_f64() * 1e6);
                }
                _ => bad += 1,
            }
        }
    }
    report.set("fleet.hop_p50_us", median(&samples[0]) - median(&samples[1]));
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_serve::protocol::{estimate_json, ok_response};
    use rvhpc_serve::Request;
    use std::net::TcpListener;

    /// A stand-in server answering every estimate with the true estimate,
    /// optionally with the lowest bit of `seconds` flipped.
    fn fake_server(flip: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { return };
                let (id, parsed) = parse_request(&line);
                let Ok(Request::Estimate { machine: m, kernel, cfg, .. }) = parsed else { return };
                let mut est = estimate_cached(&machine(m), kernel, &cfg);
                if flip {
                    est.seconds = f64::from_bits(est.seconds.to_bits() ^ 1);
                }
                let reply = ok_response(&id, "estimate", estimate_json(&est));
                if writeln!(writer, "{reply}").is_err() {
                    return;
                }
            }
        });
        (addr, server)
    }

    fn drive(flip: bool) -> Outcome {
        let want = warm_pool();
        let (addr, server) = fake_server(flip);
        let deadline = Instant::now() + Duration::from_millis(100);
        let out = estimate_client(addr, EstimateStream::new(1, 0), 0, deadline, &want);
        server.join().expect("the fake server ends when the client hangs up");
        out
    }

    #[test]
    fn a_flipped_reply_bit_is_counted_as_failed() {
        let honest = drive(false);
        assert!(honest.sent > 0 && honest.bad == 0, "{} sent, {} bad", honest.sent, honest.bad);
        let flipped = drive(true);
        assert!(flipped.sent > 0);
        assert_eq!(flipped.bad, flipped.sent, "every flipped reply fails");
        assert!(flipped.latencies_us.is_empty(), "a failed reply has no latency sample");
    }
}
