//! Thread → core placement policies (the paper's Section 3.2).
//!
//! Three policies are studied:
//!
//! * **Block** (Table 1): thread *i* is bound to core *i*. With the SG2042's
//!   interleaved NUMA map this fills regions 0 and 1 before touching 2 and 3,
//!   which is what starves two of the four memory controllers at 32 threads.
//! * **NUMA-cyclic** (Table 2): threads cycle round NUMA regions and are then
//!   allocated contiguously within a region. The paper's worked example:
//!   4 threads → cores 0, 8, 32, 40; 8 threads → 0, 8, 32, 40, 1, 9, 33, 41.
//! * **Cluster-cyclic** (Table 3): threads cycle round NUMA regions *and*
//!   cycle round the four-core clusters inside each region. Worked example:
//!   8 threads → cores 0, 8, 32, 40, 16, 24, 48, 56.

use crate::topology::{NumaRegion, Topology};
use std::fmt;

/// A thread-placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Contiguous thread → core mapping (paper Table 1).
    Block,
    /// Cyclic across NUMA regions, contiguous within a region (Table 2).
    NumaCyclic,
    /// Cyclic across NUMA regions and across clusters within a region
    /// (Table 3).
    ClusterCyclic,
}

impl PlacementPolicy {
    /// All policies, in paper order.
    pub const ALL: [PlacementPolicy; 3] =
        [PlacementPolicy::Block, PlacementPolicy::NumaCyclic, PlacementPolicy::ClusterCyclic];

    /// Short name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Block => "block",
            PlacementPolicy::NumaCyclic => "cyclic",
            PlacementPolicy::ClusterCyclic => "cluster",
        }
    }

    /// Compute the core id for each of `n_threads` threads.
    ///
    /// Block is the identity. The cyclic policies take cores round-robin
    /// from the regions, each region listing its cores in its own order:
    /// ascending for NUMA-cyclic; for cluster-cyclic, core 0 of every
    /// cluster (clusters in `Topology::interleaved_cluster_start` order),
    /// then core 1 of every cluster, and so on, so consecutive picks land
    /// on different clusters. The order is computed on the fly into the
    /// one `cores` vector.
    ///
    /// Panics if `n_threads` exceeds the number of cores (the paper never
    /// oversubscribes; SMT is disabled on all machines).
    pub fn map(self, topo: &Topology, n_threads: usize) -> Placement {
        check_threads(topo, n_threads);
        let mut cores = Vec::with_capacity(n_threads);
        if self == PlacementPolicy::Block {
            cores.extend(0..n_threads);
        } else {
            let longest = topo.regions().iter().map(NumaRegion::n_cores).max().unwrap_or(0);
            'fill: for slot in 0..longest {
                for r in topo.regions() {
                    if let Some(core) = self.region_core(topo, r, slot) {
                        cores.push(core);
                        if cores.len() == n_threads {
                            break 'fill;
                        }
                    }
                }
            }
        }
        Placement::new(self, topo, cores)
    }

    /// The occupancy of the policy's first `n_threads` threads on a valid
    /// topology, equal to `self.map(topo, n_threads).occupancy(topo)`. It
    /// is worked out from the round-robin's shape rather than by listing
    /// cores: no allocation, and a few operations per region instead of
    /// per thread. This is what the estimator calls.
    ///
    /// Panics like [`PlacementPolicy::map`].
    pub fn occupancy(self, topo: &Topology, n_threads: usize) -> Occupancy {
        check_threads(topo, n_threads);
        let block = self == PlacementPolicy::Block;
        // Block fills cores 0.. in id order, and clusters are contiguous
        // from core 0, so cluster 0 is the fullest.
        let mut max_threads_per_cluster =
            if block { n_threads.min(topo.cluster_size()) } else { 0 };
        let mut threads_per_controller = 0.0f64;
        // The cyclic round-robin fills `depth` slots of every region, then
        // one more core of the first `extra` regions still listing cores.
        let (depth, mut extra) = self.round_robin_depth(topo, n_threads);
        for r in topo.regions() {
            let threads = if block {
                r.core_ranges.iter().map(|&(s, e)| n_threads.clamp(s, e.max(s)) - s).sum()
            } else {
                let takes_extra = r.n_cores() > depth && extra > 0;
                extra -= usize::from(takes_extra);
                let threads = r.n_cores().min(depth) + usize::from(takes_extra);
                max_threads_per_cluster =
                    max_threads_per_cluster.max(self.fullest_cluster(topo, r, threads));
                threads
            };
            threads_per_controller =
                threads_per_controller.max(threads as f64 / r.controllers as f64);
        }
        Occupancy { threads: n_threads, threads_per_controller, max_threads_per_cluster }
    }

    /// For a cyclic policy, the number of complete round-robin slots the
    /// first `n_threads` threads fill, and how many threads spill into
    /// the next slot.
    fn round_robin_depth(self, topo: &Topology, n_threads: usize) -> (usize, usize) {
        if self == PlacementPolicy::Block {
            return (0, 0);
        }
        // Threads placed by the first `depth` slots; a binary search for
        // the deepest that fits.
        let placed =
            |depth: usize| -> usize { topo.regions().iter().map(|r| r.n_cores().min(depth)).sum() };
        let (mut lo, mut hi) =
            (0, topo.regions().iter().map(NumaRegion::n_cores).max().unwrap_or(0));
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if placed(mid) <= n_threads {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        (lo, n_threads - placed(lo))
    }

    /// Threads on the fullest cluster of region `r` when a cyclic policy
    /// places `threads` threads there: the region's list visits its
    /// clusters one core at a time (cluster-cyclic), or fills them in
    /// core-id order (NUMA-cyclic).
    fn fullest_cluster(self, topo: &Topology, r: &NumaRegion, threads: usize) -> usize {
        let cs = topo.cluster_size();
        if self == PlacementPolicy::ClusterCyclic {
            return threads.div_ceil((r.n_cores() / cs).max(1));
        }
        // Ascending core ids: each range's clusters fill in turn.
        let mut left = threads;
        let mut fullest = 0;
        for &(s, e) in &r.core_ranges {
            let take = left.min(e.saturating_sub(s));
            fullest = fullest.max(take.min(cs));
            left -= take;
        }
        fullest
    }

    /// The `slot`-th core of region `r`'s list under a cyclic policy, if
    /// the list is that long.
    fn region_core(self, topo: &Topology, r: &NumaRegion, slot: usize) -> Option<usize> {
        match self {
            PlacementPolicy::Block | PlacementPolicy::NumaCyclic => r.nth_core(slot),
            PlacementPolicy::ClusterCyclic => {
                if slot >= r.n_cores() {
                    return None;
                }
                let clusters = (r.n_cores() / topo.cluster_size()).max(1);
                let start = topo.interleaved_cluster_start(r.id, slot % clusters)?;
                Some(start + slot / clusters)
            }
        }
    }
}

fn check_threads(topo: &Topology, n_threads: usize) {
    assert!(
        n_threads >= 1 && n_threads <= topo.n_cores(),
        "n_threads {} out of range 1..={}",
        n_threads,
        topo.n_cores()
    );
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the contention model reads of a placement: the thread count, the
/// load of the busiest memory controller and the fullest cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Threads placed.
    pub threads: usize,
    /// Threads in each NUMA region over that region's controllers, at the
    /// busiest region (`0.0` for no threads).
    pub threads_per_controller: f64,
    /// Largest number of threads sharing one cluster.
    pub max_threads_per_cluster: usize,
}

/// The result of applying a policy: a thread → core map plus derived
/// occupancy statistics used by the contention model.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Policy that produced this placement.
    pub policy: PlacementPolicy,
    /// `cores[i]` is the core id thread `i` is bound to.
    pub cores: Vec<usize>,
    /// Threads bound to each NUMA region.
    pub threads_per_region: Vec<usize>,
    /// Threads bound to each cluster.
    pub threads_per_cluster: Vec<usize>,
}

impl Placement {
    fn new(policy: PlacementPolicy, topo: &Topology, cores: Vec<usize>) -> Self {
        let mut threads_per_region = vec![0usize; topo.n_regions()];
        let mut threads_per_cluster = vec![0usize; topo.n_clusters()];
        for &c in &cores {
            threads_per_region[topo.core_region(c)] += 1;
            threads_per_cluster[topo.core_cluster(c)] += 1;
        }
        Placement { policy, cores, threads_per_region, threads_per_cluster }
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.cores.len()
    }

    /// What the contention model reads of this placement on `topo`.
    pub fn occupancy(&self, topo: &Topology) -> Occupancy {
        Occupancy {
            threads: self.n_threads(),
            threads_per_controller: topo
                .regions()
                .iter()
                .map(|r| self.threads_per_region[r.id] as f64 / r.controllers as f64)
                .fold(0.0f64, f64::max),
            max_threads_per_cluster: self.max_threads_per_cluster(),
        }
    }

    /// Number of NUMA regions with at least one thread.
    pub fn active_regions(&self) -> usize {
        self.threads_per_region.iter().filter(|&&t| t > 0).count()
    }

    /// Largest number of threads sharing one cluster.
    pub fn max_threads_per_cluster(&self) -> usize {
        self.threads_per_cluster.iter().copied().max().unwrap_or(0)
    }

    /// Largest number of threads in one NUMA region.
    pub fn max_threads_per_region(&self) -> usize {
        self.threads_per_region.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg() -> Topology {
        Topology::sg2042()
    }

    #[test]
    fn block_is_identity_prefix() {
        let p = PlacementPolicy::Block.map(&sg(), 6);
        assert_eq!(p.cores, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn block_32_threads_uses_half_the_regions() {
        // The paper's explanation for Table 1's collapse at 32 threads:
        // block placement fills regions 0 and 1 only.
        let p = PlacementPolicy::Block.map(&sg(), 32);
        assert_eq!(p.threads_per_region, vec![16, 16, 0, 0]);
        assert_eq!(p.active_regions(), 2);
    }

    #[test]
    fn numa_cyclic_matches_paper_examples() {
        // "four threads are mapped to cores 0, 8, 32, and 40"
        let p4 = PlacementPolicy::NumaCyclic.map(&sg(), 4);
        assert_eq!(p4.cores, vec![0, 8, 32, 40]);
        // "eight threads are placed onto cores 0, 8, 32, 40, 1, 9, 33, and 41"
        let p8 = PlacementPolicy::NumaCyclic.map(&sg(), 8);
        assert_eq!(p8.cores, vec![0, 8, 32, 40, 1, 9, 33, 41]);
    }

    #[test]
    fn cluster_cyclic_matches_paper_example() {
        // "8 threads would be mapped to cores 0, 8, 32, 40, 16, 24, 48, 56"
        let p = PlacementPolicy::ClusterCyclic.map(&sg(), 8);
        assert_eq!(p.cores, vec![0, 8, 32, 40, 16, 24, 48, 56]);
    }

    #[test]
    fn cluster_cyclic_16_spreads_one_thread_per_cluster() {
        let p = PlacementPolicy::ClusterCyclic.map(&sg(), 16);
        assert_eq!(p.max_threads_per_cluster(), 1, "cores: {:?}", p.cores);
        assert_eq!(p.active_regions(), 4);
    }

    #[test]
    fn numa_cyclic_16_packs_clusters() {
        // NUMA-cyclic fills contiguously within a region, so at 16 threads
        // each region has one fully occupied cluster.
        let p = PlacementPolicy::NumaCyclic.map(&sg(), 16);
        assert_eq!(p.max_threads_per_cluster(), 4);
        assert_eq!(p.active_regions(), 4);
    }

    #[test]
    fn all_policies_at_64_threads_cover_all_cores() {
        for pol in PlacementPolicy::ALL {
            let p = pol.map(&sg(), 64);
            let mut cores = p.cores.clone();
            cores.sort_unstable();
            assert_eq!(cores, (0..64).collect::<Vec<_>>(), "{pol}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversubscription_panics() {
        PlacementPolicy::Block.map(&sg(), 65);
    }

    #[test]
    fn single_region_machine_policies_agree_on_region_counts() {
        let topo = Topology::contiguous(18, 1, 4, 18);
        for pol in PlacementPolicy::ALL {
            let p = pol.map(&topo, 9);
            assert_eq!(p.threads_per_region, vec![9], "{pol}");
        }
    }
}
