//! Property tests for topologies and placement policies.

#![cfg(test)]

use crate::catalog::machine;
use crate::ids::MachineId;
use crate::placement::{Occupancy, PlacementPolicy};
use crate::topology::{NumaRegion, Topology};
use rvhpc_quickprop::{run_cases, Gen};

/// Generate a valid contiguous topology (cores divisible by regions and
/// clusters, clusters not spanning regions).
fn topology(g: &mut Gen) -> Topology {
    let regions = g.usize_in(1..=4);
    let clusters_per_region = g.usize_in(1..=4);
    let cluster_size = *g.choose(&[1usize, 2, 4]);
    let per_region = clusters_per_region * cluster_size;
    Topology::contiguous(regions * per_region, regions, 1, cluster_size)
}

/// A valid topology whose regions may differ in size and interleave the
/// way the SG2042's do: region `r` owns a block of one or two clusters in
/// the first half of the core ids and a block of up to two in the second.
fn interleaved_topology(g: &mut Gen) -> Topology {
    let n_regions = g.usize_in(1..=4);
    let cluster_size = *g.choose(&[1usize, 2, 4]);
    let mut ranges = vec![Vec::new(); n_regions];
    let mut next = 0;
    for clusters in [1..=2, 0..=2] {
        for region in &mut ranges {
            let len = g.usize_in(clusters.clone()) * cluster_size;
            if len > 0 {
                region.push((next, next + len));
                next += len;
            }
        }
    }
    let regions = ranges
        .into_iter()
        .enumerate()
        .map(|(id, core_ranges)| NumaRegion { id, core_ranges, controllers: g.usize_in(1..=2) })
        .collect();
    let topo = Topology::new(next, cluster_size, regions);
    topo.validate().expect("generator builds valid topologies");
    topo
}

/// A thread count between one and full occupancy of `topo`.
fn thread_count(g: &mut Gen, topo: &Topology) -> usize {
    let frac = g.f64_in(0.01, 1.0);
    ((topo.n_cores() as f64 * frac).ceil() as usize).clamp(1, topo.n_cores())
}

/// Any policy on any topology: the thread→core map is injective, within
/// bounds, and its occupancy statistics are consistent.
#[test]
fn placements_are_injective_and_consistent() {
    run_cases(256, |g| {
        let topo = topology(g);
        let policy = *g.choose(&PlacementPolicy::ALL);
        let n_threads = thread_count(g, &topo);
        let p = policy.map(&topo, n_threads);
        assert_eq!(p.n_threads(), n_threads);

        let mut seen = vec![false; topo.n_cores()];
        for &c in &p.cores {
            assert!(c < topo.n_cores(), "core {c} out of range");
            assert!(!seen[c], "core {c} assigned twice");
            seen[c] = true;
        }
        assert_eq!(p.threads_per_region.iter().sum::<usize>(), n_threads);
        assert_eq!(p.threads_per_cluster.iter().sum::<usize>(), n_threads);
    });
}

/// The cyclic policies never load one region with two more threads than
/// another (balance property the contention model relies on).
#[test]
fn cyclic_policies_balance_regions() {
    run_cases(256, |g| {
        let topo = topology(g);
        let n_threads = thread_count(g, &topo);
        for policy in [PlacementPolicy::NumaCyclic, PlacementPolicy::ClusterCyclic] {
            let p = policy.map(&topo, n_threads);
            let max = p.threads_per_region.iter().max().copied().unwrap_or(0);
            let min = p.threads_per_region.iter().min().copied().unwrap_or(0);
            assert!(max - min <= 1, "{policy}: regions {:?}", p.threads_per_region);
        }
    });
}

/// Cluster-cyclic never packs a cluster tighter than NUMA-cyclic does
/// (the L2-sharing advantage the paper's Table 3 measures).
#[test]
fn cluster_cyclic_spreads_at_least_as_well() {
    run_cases(256, |g| {
        let topo = topology(g);
        let n_threads = thread_count(g, &topo);
        let cyclic = PlacementPolicy::NumaCyclic.map(&topo, n_threads);
        let cluster = PlacementPolicy::ClusterCyclic.map(&topo, n_threads);
        assert!(
            cluster.max_threads_per_cluster() <= cyclic.max_threads_per_cluster(),
            "cluster {:?} vs cyclic {:?}",
            cluster.threads_per_cluster,
            cyclic.threads_per_cluster
        );
    });
}

/// On the SG2042's real (interleaved) topology, all of the above hold
/// at every thread count, and full occupancy covers every core.
#[test]
fn sg2042_placements_hold_at_every_thread_count() {
    let topo = Topology::sg2042();
    for n_threads in 1..=64 {
        for policy in PlacementPolicy::ALL {
            let p = policy.map(&topo, n_threads);
            let mut cores = p.cores.clone();
            cores.sort_unstable();
            cores.dedup();
            assert_eq!(cores.len(), n_threads, "{policy} duplicates");
        }
    }
}

/// The occupancy the estimator counts in place equals the counts taken
/// over `map().cores`, on every catalog topology at every thread count and
/// on random valid topologies, contiguous or interleaved.
#[test]
fn counted_occupancy_matches_the_mapped_cores() {
    let check = |topo: &Topology, policy: PlacementPolicy, n_threads: usize| {
        let cores = policy.map(topo, n_threads).cores;
        let mut per_region = vec![0usize; topo.n_regions()];
        let mut per_cluster = vec![0usize; topo.n_clusters()];
        for &c in &cores {
            per_region[topo.core_region(c)] += 1;
            per_cluster[topo.core_cluster(c)] += 1;
        }
        let busiest = topo
            .regions()
            .iter()
            .map(|r| per_region[r.id] as f64 / r.controllers as f64)
            .fold(0.0f64, f64::max);
        let want = Occupancy {
            threads: cores.len(),
            threads_per_controller: busiest,
            max_threads_per_cluster: per_cluster.into_iter().max().unwrap_or(0),
        };
        assert_eq!(policy.occupancy(topo, n_threads), want, "{policy} at {n_threads}");
    };
    for id in MachineId::ALL.into_iter().chain([MachineId::Sg2042NextGen]) {
        let topo = machine(id).topology;
        for policy in PlacementPolicy::ALL {
            for n_threads in 1..=topo.n_cores() {
                check(&topo, policy, n_threads);
            }
        }
    }
    run_cases(256, |g| {
        let topo = if g.bool_with(0.5) { topology(g) } else { interleaved_topology(g) };
        let policy = *g.choose(&PlacementPolicy::ALL);
        let n_threads = thread_count(g, &topo);
        check(&topo, policy, n_threads);
    });
}
