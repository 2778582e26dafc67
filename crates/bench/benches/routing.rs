//! Criterion benches for the engines and the Lemma 13 scatter, plus the
//! sparse long-tail family the active-link index exists for: few
//! messages per round, many rounds, where the pre-index delivery loop
//! was quadratic in `k` (see `km_bench::workloads`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use km_bench::workloads::sparse_ring_machines;
use km_core::router::UniformScatter;
use km_core::{EngineKind, NetConfig, Runner};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    let k = 16;
    let x = 2048;
    let cfg = NetConfig::with_bandwidth(k, 64, 9).max_rounds(50_000_000);

    group.bench_function("sequential/scatter_k16_x2048", |b| {
        b.iter(|| {
            let machines: Vec<UniformScatter> = (0..k).map(|_| UniformScatter::new(x)).collect();
            Runner::new(cfg)
                .engine(EngineKind::Sequential)
                .run(machines)
                .unwrap()
        })
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel/scatter_k16_x2048", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let machines: Vec<UniformScatter> =
                        (0..k).map(|_| UniformScatter::new(x)).collect();
                    Runner::new(cfg)
                        .engine(EngineKind::Parallel { threads })
                        .run(machines)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Sparse long-tail delivery: 8 tokens circle a ring for 400 rounds, so
/// 8 of the k² ordered links are active per round. The pre-index dense
/// scan's cost on this traffic is archived as `sparse_fast_path` in
/// `BENCH_2026-07-29.json`.
fn bench_sparse_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    let (tokens, hops) = (8usize, 400u64);

    for k in [64usize, 128, 256] {
        let cfg = NetConfig::with_bandwidth(k, 64, 7).max_rounds(1_000_000);
        group.bench_with_input(BenchmarkId::new("engine", k), &k, |b, &k| {
            b.iter(|| {
                Runner::new(cfg)
                    .engine(EngineKind::Sequential)
                    .run(sparse_ring_machines(k, tokens, hops))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_sparse_delivery);
criterion_main!(benches);
