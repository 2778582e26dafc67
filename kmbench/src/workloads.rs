//! The four workloads: input generation from a seed, one run through
//! `KmAlgorithm` + `Runner` on an explicit engine, and the sequential
//! oracle each output is checked against.

use std::sync::Arc;
use std::time::Instant;

use km_core::codec::WireCodec;
use km_core::{
    EngineError, EngineKind, FaultPlan, KmAlgorithm, Metrics, NetConfig, Protocol, Runner,
    WireReport,
};
use km_graph::generators::{gnm, gnp};
use km_graph::{CsrGraph, DiGraph, Edge, Partition, Triangle, Vertex, WeightedGraph};
use km_mst::DistributedSketchConnectivity;
use km_pagerank::kmachine::{bidirect, DistributedPageRank};
use km_pagerank::PrConfig;
use km_triangle::kmachine::{DistributedTriangles, TriConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{Span, TracedAlg};

/// The accepted L1 distance between the PageRank estimate and the
/// power-iteration vector (which sums to at most 1) is this constant
/// over √(tokens per vertex), since the Monte-Carlo error shrinks with
/// the square root of the tokens. Measured L1 is 0.34/√tokens on both
/// sizes (0.112 with 9 tokens at n = 10⁵, 0.155 with 5 at n = 300), so
/// an estimate that misplaces a few percent of the mass fails.
const PAGERANK_L1_SCALE: f64 = 0.45;

/// PageRank reset probability and token constant (`PrConfig::paper`).
const PR_RESET: f64 = 0.2;
const PR_C: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SketchCc,
    PageRank,
    Boruvka,
    Triangles,
}

/// `Full` is the benchmarked size; `Tiny` keeps the harness self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SketchCc,
        Workload::PageRank,
        Workload::Boruvka,
        Workload::Triangles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SketchCc => "sketch_cc.dist",
            Workload::PageRank => "pagerank.dist",
            Workload::Boruvka => "boruvka.seq",
            Workload::Triangles => "triangles.par",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine this workload is measured on.
    pub fn engine(self) -> EngineKind {
        match self {
            Workload::SketchCc | Workload::PageRank => EngineKind::Distributed,
            Workload::Boruvka => EngineKind::Sequential,
            Workload::Triangles => EngineKind::Parallel { threads: 2 },
        }
    }

    fn k(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::SketchCc | Workload::PageRank, Scale::Full) => 8,
            (Workload::Boruvka | Workload::Triangles, Scale::Full) => 64,
            (_, Scale::Tiny) => 8,
        }
    }

    /// Generates the input for `seed`: the graph, then the random vertex
    /// partition, both from one seeded stream.
    pub fn generate(self, seed: u64, scale: Scale) -> Input {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tiny = scale == Scale::Tiny;
        let graph = match self {
            Workload::SketchCc => {
                let n = if tiny { 200 } else { 10_000 };
                Graph::SketchCc(gnm(n, 4 * n, &mut rng))
            }
            Workload::PageRank => {
                let n = if tiny { 300 } else { 100_000 };
                Graph::PageRank(bidirect(&gnm(n, 4 * n, &mut rng)))
            }
            Workload::Boruvka => {
                let n = if tiny { 300 } else { 20_000 };
                let g = gnm(n, 4 * n, &mut rng);
                let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
                let ws: Vec<f64> = edges.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
                Graph::Boruvka(
                    WeightedGraph::from_weighted_edges(n, &edges, &ws)
                        .expect("weights drawn from [0, 1) are finite"),
                )
            }
            Workload::Triangles => {
                let (n, p) = if tiny { (120, 0.1) } else { (6000, 0.02) };
                Graph::Triangles(gnp(n, p, &mut rng))
            }
        };
        let n = graph.n();
        let part = Arc::new(Partition::random_vertex(n, self.k(scale), &mut rng));
        let net =
            NetConfig::polylog(part.k(), n, seed ^ 0x6b6d_6265_6e63_6821).max_rounds(50_000_000);
        Input { graph, part, net }
    }
}

/// Each workload's input graph.
pub enum Graph {
    SketchCc(CsrGraph),
    PageRank(DiGraph),
    Boruvka(WeightedGraph),
    Triangles(CsrGraph),
}

impl Graph {
    fn n(&self) -> usize {
        match self {
            Graph::SketchCc(g) | Graph::Triangles(g) => g.n(),
            Graph::PageRank(g) => g.n(),
            Graph::Boruvka(g) => g.n(),
        }
    }
}

/// A generated input: graph, partition and network configuration.
pub struct Input {
    pub graph: Graph,
    pub part: Arc<Partition>,
    pub net: NetConfig,
}

/// A run's output in a form that compares across engines and against
/// the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Components { count: usize, forest: Vec<Edge> },
    Ranks(Vec<f64>),
    Forest { edges: Vec<Edge>, weight: f64 },
    Triangles(Vec<Triangle>),
}

/// What the sequential oracle says the answer must be.
#[derive(Debug, Clone)]
pub enum Expect {
    Components(usize),
    Ranks { ranks: Vec<f64>, tol: f64 },
    Weight { edges: usize, weight: f64 },
    Triangles(Vec<Triangle>),
}

/// One execution of a workload.
pub struct Run {
    /// `KmAlgorithm::build`.
    pub build_s: f64,
    /// `Runner::run` to quiescence + `KmAlgorithm::extract`.
    pub run_s: f64,
    pub answer: Answer,
    pub metrics: Metrics,
    pub wire: Option<WireReport>,
    /// With tracing: every `round()` span.
    pub spans: Option<Vec<Span>>,
}

impl Input {
    /// The sequential oracle's answer.
    pub fn expect(&self) -> Expect {
        match &self.graph {
            Graph::SketchCc(g) => Expect::Components(km_graph::properties::component_count(g)),
            Graph::Triangles(g) => {
                let mut t = km_triangle::enumerate_triangles(g);
                t.sort_unstable();
                Expect::Triangles(t)
            }
            Graph::PageRank(g) => {
                let tokens = PrConfig::paper(g.n(), PR_RESET, PR_C).tokens_per_vertex;
                Expect::Ranks {
                    ranks: km_pagerank::power_iteration(g, PR_RESET, 1e-12, 1000),
                    tol: PAGERANK_L1_SCALE / (tokens as f64).sqrt(),
                }
            }
            Graph::Boruvka(g) => {
                let (edges, weight) = km_mst::kruskal(g);
                Expect::Weight {
                    edges: edges.len(),
                    weight,
                }
            }
        }
    }

    /// Runs the workload once on `engine`, traced or not.
    pub fn run(&self, engine: EngineKind, traced: bool) -> Result<Run, EngineError> {
        // An explicit clean fault plan: the environment's KM_FAULTS never
        // reaches a benchmark run.
        let runner = Runner::new(self.net)
            .engine(engine)
            .faults(FaultPlan::default());
        let part = &self.part;
        match &self.graph {
            Graph::SketchCc(g) => drive(
                &DistributedSketchConnectivity { g, part },
                &runner,
                traced,
                |o| Answer::Components {
                    count: o.components,
                    forest: o.forest,
                },
            ),
            Graph::Triangles(g) => {
                let alg = DistributedTriangles {
                    g,
                    part,
                    cfg: TriConfig::default(),
                };
                drive(&alg, &runner, traced, |o| Answer::Triangles(o.triangles))
            }
            Graph::PageRank(g) => {
                let cfg = PrConfig::paper(g.n(), PR_RESET, PR_C);
                let alg = DistributedPageRank::new(g, part, cfg);
                drive(&alg, &runner, traced, Answer::Ranks)
            }
            Graph::Boruvka(g) => {
                let alg = km_mst::DistributedMst { g, part };
                drive(&alg, &runner, traced, |(edges, weight)| Answer::Forest {
                    edges,
                    weight,
                })
            }
        }
    }
}

/// Runs the algorithm, or its traced wrapper, once.
fn drive<A: KmAlgorithm>(
    alg: &A,
    runner: &Runner,
    traced: bool,
    answer: impl FnOnce(A::Output) -> Answer,
) -> Result<Run, EngineError>
where
    <A::Machine as Protocol>::Msg: WireCodec,
{
    if !traced {
        return timed(alg, runner, answer);
    }
    let mut spans = None;
    let mut run = timed(&TracedAlg::new(alg), runner, |(out, s)| {
        spans = Some(s);
        answer(out)
    })?;
    run.spans = spans;
    Ok(run)
}

/// Times `build`, then `Runner::run` + `extract`.
fn timed<A: KmAlgorithm>(
    alg: &A,
    runner: &Runner,
    answer: impl FnOnce(A::Output) -> Answer,
) -> Result<Run, EngineError>
where
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let t = Instant::now();
    let machines = alg.build(runner.config().k);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = runner.run(machines)?;
    let out = alg.extract(report.machines, &report.metrics);
    let run_s = t.elapsed().as_secs_f64();
    Ok(Run {
        build_s,
        run_s,
        answer: answer(out),
        metrics: report.metrics,
        wire: report.wire,
        spans: None,
    })
}

impl Run {
    /// Checks the answer against the oracle and, on a wire, the wire's
    /// own accounting against the transcript.
    pub fn check(&self, expect: &Expect) -> Result<(), String> {
        match (&self.answer, expect) {
            (Answer::Components { count, .. }, Expect::Components(want)) if count != want => {
                return Err(format!("{count} components, oracle says {want}"));
            }
            (Answer::Ranks(pr), Expect::Ranks { ranks, tol }) => {
                let l1 = km_pagerank::l1_error(pr, ranks);
                if l1.is_nan() || l1 > *tol {
                    return Err(format!("PageRank L1 error {l1} exceeds {tol}"));
                }
            }
            (
                Answer::Forest { edges, weight },
                Expect::Weight {
                    edges: e,
                    weight: w,
                },
            ) => {
                if edges.len() != *e || (weight - w).abs() > 1e-9 * w.abs().max(1.0) {
                    return Err(format!(
                        "forest of {} edges weighing {weight}, Kruskal says {e} weighing {w}",
                        edges.len()
                    ));
                }
            }
            (Answer::Triangles(t), Expect::Triangles(want)) if t != want => {
                return Err(format!(
                    "{} triangles listed, oracle enumerates {}",
                    t.len(),
                    want.len()
                ));
            }
            (Answer::Components { .. }, Expect::Components(_))
            | (Answer::Triangles(_), Expect::Triangles(_)) => {}
            (a, e) => return Err(format!("answer {a:?} does not match oracle kind {e:?}")),
        }
        if let Some(w) = &self.wire {
            if w.logical_bits != self.metrics.total_bits() {
                return Err(format!(
                    "wire logical_bits {} != Metrics::total_bits() {}",
                    w.logical_bits,
                    self.metrics.total_bits()
                ));
            }
            if w.recovery_bytes() != 0 {
                return Err(format!(
                    "{} recovery bytes on a fault-free wire",
                    w.recovery_bytes()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper is transparent: on a tiny instance of every
    /// workload, the traced run's answer and `Metrics` equal the plain
    /// run's, on the workload's engine and on the sequential engine.
    #[test]
    fn tracing_leaves_output_and_metrics_identical() {
        for w in Workload::ALL {
            let input = w.generate(7, Scale::Tiny);
            let expect = input.expect();
            for engine in [w.engine(), EngineKind::Sequential] {
                let plain = input.run(engine, false).unwrap();
                let traced = input.run(engine, true).unwrap();
                assert_eq!(plain.answer, traced.answer, "{} on {engine:?}", w.name());
                assert_eq!(plain.metrics, traced.metrics, "{} on {engine:?}", w.name());
                plain.check(&expect).unwrap();
                traced.check(&expect).unwrap();
                let spans = traced.spans.unwrap();
                assert!(!spans.is_empty());
                assert!(crate::trace::union_ns(&spans) as f64 <= traced.run_s * 1e9);
            }
        }
    }

    #[test]
    fn same_seed_same_input_and_transcript() {
        for w in Workload::ALL {
            let a = w.generate(3, Scale::Tiny).run(w.engine(), false).unwrap();
            let b = w.generate(3, Scale::Tiny).run(w.engine(), false).unwrap();
            assert_eq!(a.metrics, b.metrics, "{}", w.name());
            assert_eq!(a.answer, b.answer, "{}", w.name());
        }
    }

    #[test]
    fn a_wrong_answer_fails_its_check() {
        let input = Workload::SketchCc.generate(5, Scale::Tiny);
        let mut run = input.run(EngineKind::Sequential, false).unwrap();
        let Answer::Components { count, .. } = &mut run.answer else {
            panic!("sketch connectivity answers with components");
        };
        *count += 1;
        assert!(run.check(&input.expect()).is_err());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
