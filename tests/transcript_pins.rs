//! Exact transcript pins: one small fixed-seed instance of each of the
//! seven phase protocols, run on the default engine, with its `rounds`,
//! total messages, total bits and `link_visits` asserted against values
//! recorded before the stage-barrier refactor.
//!
//! The cross-engine suites only compare engines with each other, so a
//! change that shifts every engine equally passes them; these pins catch
//! it. The engine is deliberately not forced: `KM_ENGINE=parallel` and
//! `KM_ENGINE=distributed` runs of the suite check the same pins on the
//! other two engines.

use km_core::{run_algorithm, KmAlgorithm, NetConfig, Protocol, Runner, WireCodec};
use km_graph::generators::gnp;
use km_graph::{Partition, Vertex, WeightedGraph};
use km_mst::{DistributedMst, DistributedSketchConnectivity};
use km_pagerank::congest_baseline::CongestBaseline;
use km_pagerank::kmachine::{bidirect, DistributedPageRank};
use km_pagerank::PrConfig;
use km_sort::DistributedSort;
use km_triangle::baseline::BroadcastTriangles;
use km_triangle::kmachine::{DistributedTriangles, TriConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed).max_rounds(10_000_000)
}

/// `(rounds, total msgs, total bits, link_visits)` of one run on the
/// default engine.
fn counters<A>(alg: &A, netc: NetConfig) -> (u64, u64, u64, u64)
where
    A: KmAlgorithm,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let m = run_algorithm(alg, Runner::new(netc)).expect("run").metrics;
    (m.rounds, m.total_msgs(), m.total_bits(), m.link_visits)
}

fn pr_cfg(tokens_per_vertex: u64) -> PrConfig {
    PrConfig {
        reset_prob: 0.4,
        tokens_per_vertex,
    }
}

#[test]
fn boruvka_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    let g = gnp(50, 0.2, &mut rng);
    let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(50, &edges, &ws).unwrap();
    let part = Arc::new(Partition::by_hash(50, 5, 3));
    let alg = DistributedMst {
        g: &wg,
        part: &part,
    };
    assert_eq!(counters(&alg, net(5, 50, 11)), (37, 476, 31_448, 545));
}

#[test]
fn sketch_connectivity_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(306);
    let g = gnp(90, 0.025, &mut rng);
    let part = Arc::new(Partition::by_hash(90, 6, 2));
    let alg = DistributedSketchConnectivity { g: &g, part: &part };
    assert_eq!(
        counters(&alg, net(6, 90, 14)),
        (1262, 2505, 970_158, 15_936)
    );
}

#[test]
fn kmachine_pagerank_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(300);
    let g = bidirect(&gnp(70, 0.1, &mut rng));
    let part = Arc::new(Partition::by_hash(g.n(), 7, 1));
    let alg = DistributedPageRank::new(&g, &part, pr_cfg(25));
    assert_eq!(counters(&alg, net(7, g.n(), 8)), (58, 1586, 60_616, 1246));
}

#[test]
fn congest_pagerank_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(304);
    let g = bidirect(&gnp(60, 0.1, &mut rng));
    let part = Arc::new(Partition::by_hash(g.n(), 5, 4));
    let alg = CongestBaseline {
        g: &g,
        part: &part,
        cfg: pr_cfg(20),
    };
    assert_eq!(counters(&alg, net(5, g.n(), 12)), (61, 1118, 42_920, 811));
}

#[test]
fn kmachine_triangle_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(301);
    let g = gnp(60, 0.4, &mut rng);
    let part = Arc::new(Partition::by_hash(60, 9, 2));
    let alg = DistributedTriangles {
        g: &g,
        part: &part,
        cfg: TriConfig::default(),
    };
    assert_eq!(counters(&alg, net(9, 60, 9)), (22, 1945, 29_392, 602));
}

#[test]
fn broadcast_triangle_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(305);
    let g = gnp(40, 0.4, &mut rng);
    let part = Arc::new(Partition::by_hash(40, 6, 3));
    let alg = BroadcastTriangles { g: &g, part: &part };
    assert_eq!(counters(&alg, net(6, 40, 4)), (21, 1710, 22_080, 360));
}

#[test]
fn sample_sort_transcript_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(302);
    let (n, k) = (400, 6);
    let alg = DistributedSort {
        inputs: km_sort::SampleSort::random_input(n, k, &mut rng),
        samples_per_machine: 30,
    };
    assert_eq!(counters(&alg, net(k, n, 10)), (52, 762, 39_682, 604));
}
