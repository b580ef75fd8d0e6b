//! Seeded workload inputs. The benchmark's `--seed` is the only source of
//! randomness: the program under test only ever sees the request lines
//! generated here.

use rvhpc::machines::{machine, MachineId, PlacementPolicy};
use rvhpc::perfmodel::{Precision, RunConfig};
use rvhpc_serve::loadgen::{query_pool, Triple};

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so each client of a
    /// run draws its own sequence from the one benchmark seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Hot `estimate` requests: indices into [`query_pool`], drawn uniformly.
pub struct EstimateStream {
    rng: Rng,
    pool_len: usize,
}

impl EstimateStream {
    pub fn new(seed: u64, client: u64) -> EstimateStream {
        EstimateStream { rng: Rng::new(seed, client), pool_len: query_pool().len() }
    }
}

impl Iterator for EstimateStream {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        Some(self.rng.below(self.pool_len))
    }
}

/// One point of the `suite` config space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteQuery {
    pub machine: MachineId,
    pub precision: Precision,
    pub threads: usize,
    pub placement: PlacementPolicy,
    pub vectorize: bool,
}

impl SuiteQuery {
    /// The wire request, keyed by `id`.
    pub fn request_line(&self, id: u64) -> String {
        format!(
            r#"{{"id":{id},"op":"suite","machine":"{}","precision":"{}","threads":{},"placement":"{}","vectorize":{}}}"#,
            self.machine.token(),
            self.precision.label(),
            self.threads,
            self.placement.label(),
            self.vectorize,
        )
    }

    /// The config the server derives from [`SuiteQuery::request_line`]:
    /// the machine's paper-best default with the overrides applied.
    pub fn run_config(&self) -> RunConfig {
        let mut cfg = if self.machine.is_riscv() {
            RunConfig::sg2042_best(self.precision, self.threads)
        } else {
            RunConfig::x86(self.precision, self.threads)
        };
        cfg.placement = self.placement;
        cfg.vectorize = self.vectorize;
        cfg
    }
}

/// Every machine × precision × thread count (up to the core count, so no
/// two points share an estimate-cache key) × placement × vectorize.
pub fn suite_space() -> Vec<SuiteQuery> {
    let mut space = Vec::new();
    for machine_id in MachineId::ALL {
        for threads in 1..=machine(machine_id).n_cores() {
            for precision in [Precision::Fp64, Precision::Fp32] {
                for placement in PlacementPolicy::ALL {
                    for vectorize in [true, false] {
                        space.push(SuiteQuery {
                            machine: machine_id,
                            precision,
                            threads,
                            placement,
                            vectorize,
                        });
                    }
                }
            }
        }
    }
    space
}

/// Suite requests in which each request repeats an earlier config of the
/// same run with probability 1/2, and otherwise takes the next unseen
/// config of a seeded permutation of [`suite_space`]. The repeat share
/// therefore stays near one half however many suites a run completes.
pub struct SuiteStream {
    rng: Rng,
    order: Vec<usize>,
    next_fresh: usize,
    seen: Vec<usize>,
}

impl SuiteStream {
    pub fn new(seed: u64, client: u64) -> SuiteStream {
        let mut rng = Rng::new(seed, client);
        let mut order: Vec<usize> = (0..suite_space().len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        SuiteStream { rng, order, next_fresh: 0, seen: Vec::new() }
    }
}

impl Iterator for SuiteStream {
    /// `(index into suite_space(), whether it repeats an earlier request)`.
    type Item = (usize, bool);
    fn next(&mut self) -> Option<(usize, bool)> {
        let exhausted = self.next_fresh == self.order.len();
        if !self.seen.is_empty() && (exhausted || self.rng.next_u64() & 1 == 0) {
            return Some((self.seen[self.rng.below(self.seen.len())], true));
        }
        let fresh = self.order[self.next_fresh];
        self.next_fresh += 1;
        self.seen.push(fresh);
        Some((fresh, false))
    }
}

/// A seeded sample of pool queries whose cached estimates the cold sweep
/// compares against serial `estimate_averaged` after every pass.
pub fn estimate_sample(rng: &mut Rng, n: usize) -> Vec<Triple> {
    let pool = query_pool();
    (0..n).map(|_| pool[rng.below(pool.len())]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        let a: Vec<usize> = EstimateStream::new(7, 0).take(500).collect();
        let b: Vec<usize> = EstimateStream::new(7, 0).take(500).collect();
        assert_eq!(a, b);
        let lines = |seed| -> Vec<String> {
            let space = suite_space();
            SuiteStream::new(seed, 1)
                .take(300)
                .enumerate()
                .map(|(id, (i, _))| space[i].request_line(id as u64))
                .collect()
        };
        assert_eq!(lines(7), lines(7));
    }

    #[test]
    fn seeds_and_clients_draw_different_sequences() {
        let a: Vec<usize> = EstimateStream::new(7, 0).take(100).collect();
        assert_ne!(a, EstimateStream::new(8, 0).take(100).collect::<Vec<_>>());
        assert_ne!(a, EstimateStream::new(7, 1).take(100).collect::<Vec<_>>());
    }

    #[test]
    fn about_half_the_suites_repeat_and_fresh_configs_are_unseen() {
        let draws: Vec<(usize, bool)> = SuiteStream::new(3, 1).take(2000).collect();
        let repeats = draws.iter().filter(|d| d.1).count();
        assert!((900..1100).contains(&repeats), "{repeats}");
        let mut seen = std::collections::HashSet::new();
        for (i, repeat) in draws {
            assert_eq!(repeat, !seen.insert(i), "config {i}");
        }
    }

    #[test]
    fn suite_requests_parse_to_the_local_config() {
        let space = suite_space();
        for q in space.iter().step_by(97) {
            let (_, parsed) = rvhpc_serve::protocol::parse_request(&q.request_line(1));
            let Ok(rvhpc_serve::Request::Suite { machine, cfg, class: None }) = parsed else {
                panic!("{q:?} did not parse as a suite request");
            };
            let local = q.run_config();
            assert_eq!(machine, q.machine);
            assert_eq!(format!("{cfg:?}"), format!("{local:?}"));
        }
    }
}
