//! Criterion benches for the sorting, MST, and sketch-connectivity
//! applications.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use km_core::{run_algorithm, EngineKind, NetConfig, Runner};
use km_graph::generators::classic::complete_weighted_random;
use km_graph::generators::{gnm, gnp};
use km_graph::{Partition, Vertex, WeightedGraph};
use km_mst::{
    kruskal, run_boruvka, run_sketch_connectivity, sketch::sketch_spanning_forest, DistributedMst,
};
use km_sort::{run_sample_sort, SampleSort};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    let n = 10_000;
    for k in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("sample_sort_n10k", k), &k, |b, &k| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let inputs = SampleSort::random_input(n, k, &mut rng);
            let net = NetConfig::polylog(k, n, 5).max_rounds(50_000_000);
            b.iter(|| run_sample_sort(inputs.clone(), net).unwrap())
        });
    }
    group.finish();
}

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = complete_weighted_random(150, &mut rng).unwrap();

    group.bench_function("kruskal/K150", |b| b.iter(|| kruskal(&g)));
    for k in [4usize, 8] {
        let part = Arc::new(Partition::by_hash(g.n(), k, 2));
        let net = NetConfig::polylog(k, g.n(), 3).max_rounds(50_000_000);
        group.bench_with_input(BenchmarkId::new("boruvka/K150", k), &k, |b, _| {
            b.iter(|| run_boruvka(&g, &part, net).unwrap())
        });
    }

    // The shape of kmbench's `boruvka.seq` workload: many machines and
    // cheap phases on a sparse graph, so per-phase local bookkeeping
    // (contraction) shows up next to the protocol's traffic.
    let (n, k) = (20_000, 64);
    let sparse = gnm(n, 4 * n, &mut rng);
    let edges: Vec<(Vertex, Vertex)> = sparse.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = edges.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
    let g = WeightedGraph::from_weighted_edges(n, &edges, &ws).unwrap();
    let part = Arc::new(Partition::by_hash(n, k, 2));
    let net = NetConfig::polylog(k, n, 3).max_rounds(50_000_000);
    group.bench_function("boruvka/n20000_k64", |b| {
        b.iter(|| {
            let runner = Runner::new(net).engine(EngineKind::Sequential);
            run_algorithm(&DistributedMst { g: &g, part: &part }, runner).unwrap()
        })
    });
    group.finish();
}

fn bench_sketch_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch_cc");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let n = 600;
    let g = gnp(n, 0.01, &mut rng);

    group.bench_function("sequential_driver/G600", |b| {
        b.iter(|| sketch_spanning_forest(&g, 13))
    });
    for k in [4usize, 16] {
        let part = Arc::new(Partition::by_hash(n, k, 2));
        let net = NetConfig::polylog(k, n, 3).max_rounds(50_000_000);
        group.bench_with_input(BenchmarkId::new("distributed/G600", k), &k, |b, _| {
            b.iter(|| run_sketch_connectivity(&g, &part, net).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort, bench_mst, bench_sketch_cc);
criterion_main!(benches);
