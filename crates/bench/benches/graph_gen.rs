//! Criterion benches for graph generation, CSR construction, and the
//! fused per-machine distribution layer (`km_graph::dist`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use km_graph::generators::lower_bound_h::LowerBoundGraph;
use km_graph::generators::{chung_lu, gnm, gnp, power_law_weights};
use km_graph::{CsrGraph, DistGraphBuilder, Partition};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);

    for n in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("gnp_sparse", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                gnp(n, 10.0 / n as f64, &mut rng)
            })
        });
        group.bench_with_input(BenchmarkId::new("gnm", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(2);
                gnm(n, 5 * n, &mut rng)
            })
        });
    }
    group.bench_function("chung_lu/n2000", |b| {
        let w = power_law_weights(2000, 2.5, 8.0);
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            chung_lu(&w, &mut rng)
        })
    });
    group.bench_function("lower_bound_h/n40001", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            LowerBoundGraph::random(40_001, &mut rng)
        })
    });
    group.bench_function("csr_from_edges/m100k", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = gnm(20_000, 100_000, &mut rng);
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
        b.iter(|| CsrGraph::from_edges(20_000, &edges))
    });
    group.bench_function("rvp_partition/n100k", |b| {
        b.iter(|| Partition::by_hash(100_000, 64, 9))
    });
    group.finish();
}

/// Fused single-pass `DistGraphBuilder` construction (its speedup over
/// the retired per-machine replicated scan is archived in
/// `BENCH_2026-07-29_dist.json`).
fn bench_graph_dist(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_dist");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let n = 10_000;
    let g = gnm(n, 8 * n, &mut rng);
    for k in [16usize, 128] {
        let part = Arc::new(Partition::by_hash(n, k, 5));
        group.bench_with_input(BenchmarkId::new("fused_build", k), &k, |b, _| {
            b.iter(|| DistGraphBuilder::new(&part).undirected(&g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generators, bench_graph_dist);
criterion_main!(benches);
