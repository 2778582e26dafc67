//! The engine-agnostic execution API: [`Runner`], [`EngineKind`], and the
//! [`KmAlgorithm`] build→run→extract lifecycle.
//!
//! Every upper bound in the paper follows one pattern: partition the
//! input over `k` machines, run a [`Protocol`] to global quiescence, and
//! read the answer plus transcript statistics back out. [`Runner`] is
//! that pattern as a value — callers choose *what* to run and *under
//! which configuration*, while the engine (sequential reference or
//! thread-parallel, transcript-identical by construction) becomes a
//! one-line, even environment-driven, choice:
//!
//! ```
//! use km_core::{EngineKind, Envelope, NetConfig, Outbox, Protocol, RoundCtx, Runner, Status};
//!
//! struct Ping;
//! impl Protocol for Ping {
//!     type Msg = u8;
//!     fn round(
//!         &mut self,
//!         ctx: &mut RoundCtx<'_>,
//!         _inbox: &mut Vec<Envelope<u8>>,
//!         out: &mut Outbox<u8>,
//!     ) -> Status {
//!         if ctx.round == 0 && ctx.me != 0 {
//!             out.send(0, 1);
//!         }
//!         Status::Done
//!     }
//! }
//!
//! let report = Runner::new(NetConfig::with_bandwidth(4, 64, 7))
//!     .engine(EngineKind::Auto)
//!     .run(vec![Ping, Ping, Ping, Ping])?;
//! assert_eq!(report.metrics.total_msgs(), 3);
//! # Ok::<(), km_core::EngineError>(())
//! ```
//!
//! Full algorithms (sorting, MST, PageRank, triangle enumeration)
//! additionally share a *lifecycle*: build per-machine protocol state
//! from a global instance, run, then assemble a global output from the
//! final machine states. [`KmAlgorithm`] captures that lifecycle once,
//! and [`run_algorithm`] is the single generic driver every algorithm
//! crate and experiment routes through.

use crate::codec::WireCodec;
use crate::config::NetConfig;
use crate::engine::{DistributedEngine, ParallelEngine, RunReport, SequentialEngine};
use crate::error::EngineError;
use crate::faults::FaultPlan;
use crate::metrics::{Metrics, WireReport};
use crate::protocol::Protocol;

/// Environment variable overriding [`EngineKind::Auto`] resolution
/// (values: `seq`/`sequential`, `par`/`parallel`/`parallel:N`,
/// `dist`/`distributed`, `auto`). An unrecognized value is an
/// [`EngineError::InvalidConfig`] naming it — a typo must not silently
/// run a different engine than the experimenter asked for.
pub const ENGINE_ENV: &str = "KM_ENGINE";

/// Machine count at which [`EngineKind::Auto`] switches to the parallel
/// engine (when more than one hardware thread is available). Below this,
/// per-round fan-out/fan-in overhead outweighs the parallel speedup.
pub const AUTO_PARALLEL_MIN_K: usize = 32;

/// Which engine executes a run. All engines are transcript-identical
/// (same results, metrics, and RNG streams for the same seed), so this
/// is purely a wall-clock/fidelity choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The deterministic single-threaded reference engine.
    Sequential,
    /// The thread-parallel engine. `threads = 0` means "all available
    /// cores"; `threads = 1` degenerates to the sequential engine.
    Parallel {
        /// Worker threads (capped at `k` by the engine).
        threads: usize,
    },
    /// The message-passing engine: one OS thread per machine, messages
    /// serialized over per-link byte channels, and a measured
    /// [`WireReport`] in the outcome. Never chosen by `Auto` on its own
    /// (it spawns `k` threads and pays real serialization); opt in
    /// explicitly or via `KM_ENGINE=distributed`.
    Distributed,
    /// Resolve at run time: the [`ENGINE_ENV`] environment variable wins
    /// if set; otherwise runs with `k ≥` [`AUTO_PARALLEL_MIN_K`] go
    /// parallel when the host has more than one hardware thread.
    #[default]
    Auto,
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

impl EngineKind {
    /// Parses an engine name as accepted by [`ENGINE_ENV`] and the
    /// experiment harness's `--engine` flag. Returns `None` for
    /// unrecognized input.
    pub fn parse(s: &str) -> Option<EngineKind> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "seq" | "sequential" => Some(EngineKind::Sequential),
            "par" | "parallel" => Some(EngineKind::Parallel { threads: 0 }),
            "dist" | "distributed" => Some(EngineKind::Distributed),
            "auto" => Some(EngineKind::Auto),
            _ => {
                let threads = s
                    .strip_prefix("parallel:")
                    .or_else(|| s.strip_prefix("par:"))?;
                threads
                    .parse()
                    .ok()
                    .map(|threads| EngineKind::Parallel { threads })
            }
        }
    }

    /// Reads the [`ENGINE_ENV`] override: `Ok(None)` when unset.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] naming the value when the variable
    /// is set to something [`EngineKind::parse`] rejects. (It used to
    /// fall back to auto-resolution silently, which made `KM_ENGINE`
    /// typos run the wrong engine without a trace.)
    pub fn from_env() -> Result<Option<EngineKind>, EngineError> {
        let raw = std::env::var(ENGINE_ENV).ok();
        Self::from_env_value(raw.as_deref())
    }

    /// [`EngineKind::from_env`] with the environment read factored out,
    /// so the rejection path is testable without mutating the real
    /// (process-global) variable from a racing test thread.
    fn from_env_value(raw: Option<&str>) -> Result<Option<EngineKind>, EngineError> {
        match raw {
            None => Ok(None),
            Some(v) => match Self::parse(v) {
                Some(kind) => Ok(Some(kind)),
                None => Err(EngineError::InvalidConfig {
                    reason: format!(
                        "unrecognized {ENGINE_ENV} value {v:?} (expected seq, sequential, par, \
                         parallel, parallel:N, dist, distributed, or auto)"
                    ),
                }),
            },
        }
    }

    /// Resolves `Auto` (and `threads = 0`) into a concrete engine choice
    /// for a `k`-machine run.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if [`ENGINE_ENV`] is set to an
    /// unrecognized value (see [`EngineKind::from_env`]).
    pub fn resolve(self, k: usize) -> Result<EngineKind, EngineError> {
        Ok(self.resolve_with(Self::from_env()?, k, available_threads()))
    }

    /// Deterministic resolution core: `env` is the [`ENGINE_ENV`]
    /// override (ignored unless `self` is `Auto`), `cores` the hardware
    /// thread count. Exposed for tests; use [`EngineKind::resolve`].
    fn resolve_with(self, env: Option<EngineKind>, k: usize, cores: usize) -> EngineKind {
        match self {
            EngineKind::Sequential => EngineKind::Sequential,
            EngineKind::Parallel { threads: 0 } => EngineKind::Parallel {
                // A forced parallel run must actually exercise the
                // threaded engine, even on a single-core host.
                threads: cores.max(2),
            },
            EngineKind::Parallel { threads } => EngineKind::Parallel { threads },
            EngineKind::Distributed => EngineKind::Distributed,
            EngineKind::Auto => match env {
                Some(kind) if kind != EngineKind::Auto => kind.resolve_with(None, k, cores),
                _ if k >= AUTO_PARALLEL_MIN_K && cores > 1 => {
                    EngineKind::Parallel { threads: cores }
                }
                _ => EngineKind::Sequential,
            },
        }
    }
}

/// Builder for one k-machine execution: a [`NetConfig`] plus an
/// [`EngineKind`]. Validates the configuration before any engine work,
/// so `k = 0` and friends surface as [`EngineError::InvalidConfig`]
/// instead of a panic deep inside a run.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    config: NetConfig,
    engine: EngineKind,
    faults: Option<FaultPlan>,
}

impl Runner {
    /// A runner for `config` with the default [`EngineKind::Auto`].
    pub fn new(config: NetConfig) -> Self {
        Runner {
            config,
            engine: EngineKind::Auto,
            faults: None,
        }
    }

    /// Selects the engine.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Injects wire faults (see [`crate::faults`]). Faults act on the
    /// distributed engine's physical frames; the sequential and
    /// parallel engines have no wire, so they ignore the plan — which
    /// is exactly what lets a faulted distributed run be compared
    /// against a fault-free sequential ground truth. When no plan is
    /// set here, the [`crate::faults::FAULTS_ENV`] environment variable
    /// is consulted at run time.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The network configuration this runner executes under.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The engine this runner would use for its `k` (with `Auto` and
    /// `threads = 0` resolved against the current environment).
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if [`ENGINE_ENV`] is set to an
    /// unrecognized value.
    pub fn resolved_engine(&self) -> Result<EngineKind, EngineError> {
        self.engine.resolve(self.config.k)
    }

    /// Runs one protocol instance per machine to global quiescence.
    ///
    /// The `WireCodec` bound exists because any run may resolve to the
    /// distributed engine, which serializes every message; protocols
    /// driven directly through an engine (`SequentialEngine::run`) need
    /// only `WireSize`.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] for an invalid configuration, a
    /// machine count ≠ `k`, or a bad [`ENGINE_ENV`] value;
    /// [`EngineError::RoundLimitExceeded`] if the round-limit safety
    /// valve fires.
    pub fn run<P: Protocol>(&self, machines: Vec<P>) -> Result<RunReport<P>, EngineError>
    where
        P::Msg: WireCodec,
    {
        self.config.validate()?;
        self.dispatch(machines)
    }

    /// Engine dispatch after validation. A malformed
    /// [`crate::faults::FAULTS_ENV`] value is a hard error regardless
    /// of which engine resolves — a typo must not silently run
    /// fault-free.
    fn dispatch<P: Protocol>(&self, machines: Vec<P>) -> Result<RunReport<P>, EngineError>
    where
        P::Msg: WireCodec,
    {
        let faults = match self.faults {
            Some(plan) => Some(plan),
            None => FaultPlan::from_env()?,
        };
        match self.resolved_engine()? {
            EngineKind::Parallel { threads } if threads > 1 => {
                ParallelEngine::with_threads(threads).run(self.config, machines)
            }
            EngineKind::Distributed => {
                DistributedEngine::run_with_faults(self.config, machines, faults)
            }
            _ => SequentialEngine::run(self.config, machines),
        }
    }

    /// Runs a full [`KmAlgorithm`] through its build→run→extract
    /// lifecycle. Equivalent to [`run_algorithm`]`(alg, *self)`.
    pub fn run_algorithm<A: KmAlgorithm>(
        &self,
        alg: &A,
    ) -> Result<RunOutcome<A::Output>, EngineError>
    where
        <A::Machine as Protocol>::Msg: WireCodec,
    {
        // Validate before build so `k = 0` and friends surface as errors
        // rather than tripping the algorithm's own preconditions.
        self.config.validate()?;
        let machines = alg.build(self.config.k);
        let report = self.dispatch(machines)?;
        let output = alg.extract(report.machines, &report.metrics);
        Ok(RunOutcome {
            output,
            metrics: report.metrics,
            config: self.config,
            wire: report.wire,
        })
    }
}

/// A k-machine algorithm as a value: everything needed to instantiate
/// per-machine protocol state from a global problem instance and to
/// assemble the global output from the final machine states.
///
/// Implementors are cheap descriptor structs (usually holding references
/// to the input graph/partition plus a config), so one instance can be
/// run under several engines or configurations — the cross-engine
/// equivalence matrix in `tests/engine_equivalence.rs` does exactly
/// that.
pub trait KmAlgorithm {
    /// The per-machine protocol this algorithm runs.
    type Machine: Protocol;
    /// The assembled global output.
    type Output;

    /// Builds one protocol instance per machine (`k` of them, in machine
    /// order) from the problem instance.
    ///
    /// # Panics
    /// Implementations panic when the instance cannot be laid out over
    /// `k` machines (e.g. a partition built for a different `k`) — a
    /// programmer error at the call site, unlike the runtime conditions
    /// [`EngineError`] covers.
    fn build(&self, k: usize) -> Vec<Self::Machine>;

    /// Assembles the global output from the final machine states and the
    /// run's transcript statistics.
    fn extract(&self, machines: Vec<Self::Machine>, metrics: &Metrics) -> Self::Output;
}

/// The structured result of [`run_algorithm`]: the algorithm's output,
/// the transcript statistics, and an echo of the configuration that
/// produced them (so result tables are self-describing).
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// The algorithm's assembled global output.
    pub output: T,
    /// Transcript statistics of the run.
    pub metrics: Metrics,
    /// The configuration the run executed under.
    pub config: NetConfig,
    /// Measured byte-frame statistics (`Some` only on the distributed
    /// engine). Engine instrumentation, not part of the run's identity —
    /// see the `PartialEq` impl below.
    pub wire: Option<WireReport>,
}

/// Equality covers the *bit-identity guarantee* — output, metrics, and
/// config echo. `wire` is excluded deliberately: it reports what one
/// particular engine's serialization measured, so including it would
/// make semantically identical runs on different engines compare
/// unequal.
impl<T: PartialEq> PartialEq for RunOutcome<T> {
    fn eq(&self, other: &Self) -> bool {
        self.output == other.output && self.metrics == other.metrics && self.config == other.config
    }
}

/// Runs `alg` to quiescence under `runner`: build one machine per
/// protocol instance, execute on the selected engine, extract the global
/// output. The single driver every algorithm crate routes through.
pub fn run_algorithm<A: KmAlgorithm>(
    alg: &A,
    runner: Runner,
) -> Result<RunOutcome<A::Output>, EngineError>
where
    <A::Machine as Protocol>::Msg: WireCodec,
{
    runner.run_algorithm(alg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Envelope, Outbox};
    use crate::protocol::{RoundCtx, Status};

    /// Machine `i` sends its index to machine 0; machine 0 sums.
    #[derive(Debug)]
    struct SumUp {
        total: u64,
    }

    impl Protocol for SumUp {
        type Msg = u64;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Envelope<u64>>,
            out: &mut Outbox<u64>,
        ) -> Status {
            self.total += inbox.iter().map(|e| e.msg).sum::<u64>();
            if ctx.round == 0 && ctx.me != 0 {
                out.send(0, ctx.me as u64);
                return Status::Active;
            }
            Status::Done
        }
    }

    /// The same as a [`KmAlgorithm`]: output is machine 0's sum.
    struct SumAlgorithm;

    impl KmAlgorithm for SumAlgorithm {
        type Machine = SumUp;
        type Output = u64;
        fn build(&self, k: usize) -> Vec<SumUp> {
            (0..k).map(|_| SumUp { total: 0 }).collect()
        }
        fn extract(&self, machines: Vec<SumUp>, _metrics: &Metrics) -> u64 {
            machines[0].total
        }
    }

    #[test]
    fn parse_accepts_all_spellings() {
        assert_eq!(EngineKind::parse("seq"), Some(EngineKind::Sequential));
        assert_eq!(
            EngineKind::parse(" Sequential "),
            Some(EngineKind::Sequential)
        );
        assert_eq!(
            EngineKind::parse("par"),
            Some(EngineKind::Parallel { threads: 0 })
        );
        assert_eq!(
            EngineKind::parse("parallel"),
            Some(EngineKind::Parallel { threads: 0 })
        );
        assert_eq!(
            EngineKind::parse("parallel:6"),
            Some(EngineKind::Parallel { threads: 6 })
        );
        assert_eq!(
            EngineKind::parse("PAR:2"),
            Some(EngineKind::Parallel { threads: 2 })
        );
        assert_eq!(EngineKind::parse("dist"), Some(EngineKind::Distributed));
        assert_eq!(
            EngineKind::parse(" Distributed "),
            Some(EngineKind::Distributed)
        );
        assert_eq!(EngineKind::parse("auto"), Some(EngineKind::Auto));
        assert_eq!(EngineKind::parse("gpu"), None);
        assert_eq!(EngineKind::parse("parallel:x"), None);
    }

    #[test]
    fn auto_resolution_rules() {
        let auto = EngineKind::Auto;
        // Small k or single core: sequential.
        assert_eq!(
            auto.resolve_with(None, 8, 16),
            EngineKind::Sequential,
            "small k stays sequential"
        );
        assert_eq!(
            auto.resolve_with(None, 128, 1),
            EngineKind::Sequential,
            "single core stays sequential"
        );
        // Large k on a multicore host: parallel on all cores.
        assert_eq!(
            auto.resolve_with(None, AUTO_PARALLEL_MIN_K, 8),
            EngineKind::Parallel { threads: 8 }
        );
        // Environment override wins either way.
        assert_eq!(
            auto.resolve_with(Some(EngineKind::Sequential), 128, 8),
            EngineKind::Sequential
        );
        assert_eq!(
            auto.resolve_with(Some(EngineKind::Parallel { threads: 0 }), 4, 1),
            EngineKind::Parallel { threads: 2 },
            "forced parallel exercises the threaded engine even on one core"
        );
        // Explicit kinds ignore the environment.
        assert_eq!(
            EngineKind::Sequential.resolve_with(Some(EngineKind::Parallel { threads: 4 }), 64, 8),
            EngineKind::Sequential
        );
        // Auto never chooses the distributed engine on its own, but the
        // environment can demand it; explicit Distributed sticks.
        assert_eq!(
            auto.resolve_with(Some(EngineKind::Distributed), 4, 8),
            EngineKind::Distributed
        );
        assert_eq!(
            EngineKind::Distributed.resolve_with(None, 256, 1),
            EngineKind::Distributed
        );
    }

    #[test]
    fn runner_runs_on_every_engine_kind() {
        let cfg = NetConfig::with_bandwidth(5, 64, 3);
        for kind in [
            EngineKind::Sequential,
            EngineKind::Parallel { threads: 2 },
            EngineKind::Parallel { threads: 0 },
            EngineKind::Distributed,
            EngineKind::Auto,
        ] {
            let machines = (0..5).map(|_| SumUp { total: 0 }).collect();
            let report = Runner::new(cfg).engine(kind).run(machines).unwrap();
            assert_eq!(report.machines[0].total, 1 + 2 + 3 + 4, "{kind:?}");
        }
    }

    #[test]
    fn runner_rejects_invalid_configs_before_running() {
        let kinds = [
            EngineKind::Sequential,
            EngineKind::Parallel { threads: 2 },
            EngineKind::Distributed,
            EngineKind::Auto,
        ];
        for kind in kinds {
            let zero_k = Runner::new(NetConfig::with_bandwidth(0, 64, 0)).engine(kind);
            // k = 3 machines configured, 2 protocol instances supplied:
            // only the engine's own machine-count check can catch this.
            let short = Runner::new(NetConfig::with_bandwidth(3, 64, 0)).engine(kind);
            for err in [
                zero_k.run(Vec::<SumUp>::new()).unwrap_err(),
                zero_k.run_algorithm(&SumAlgorithm).unwrap_err(),
                short.run(SumAlgorithm.build(2)).unwrap_err(),
            ] {
                assert!(
                    matches!(err, EngineError::InvalidConfig { .. }),
                    "{kind:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn run_algorithm_returns_structured_outcome() {
        let cfg = NetConfig::with_bandwidth(4, 64, 9);
        let outcome = run_algorithm(&SumAlgorithm, Runner::new(cfg)).unwrap();
        assert_eq!(outcome.output, 1 + 2 + 3);
        assert_eq!(outcome.config, cfg);
        assert_eq!(outcome.metrics.total_msgs(), 3);
    }

    #[test]
    fn env_override_is_read_and_parsed() {
        // The engines are transcript-identical, so a concurrent test
        // observing this temporary override still computes the same
        // results — the override is benign to race with. (The invalid
        // value below is also exercised in this same test, rather than
        // its own, so two tests never race on the variable.)
        let prev = std::env::var(ENGINE_ENV).ok();
        std::env::set_var(ENGINE_ENV, "parallel:3");
        assert_eq!(
            EngineKind::from_env().unwrap(),
            Some(EngineKind::Parallel { threads: 3 })
        );
        assert_eq!(
            EngineKind::Auto.resolve(4).unwrap(),
            EngineKind::Parallel { threads: 3 }
        );
        std::env::set_var(ENGINE_ENV, "distributed");
        assert_eq!(
            EngineKind::from_env().unwrap(),
            Some(EngineKind::Distributed)
        );
        assert_eq!(
            EngineKind::Auto.resolve(4).unwrap(),
            EngineKind::Distributed
        );
        match prev {
            Some(v) => std::env::set_var(ENGINE_ENV, v),
            None => std::env::remove_var(ENGINE_ENV),
        }
    }

    #[test]
    fn unrecognized_env_value_is_a_hard_error_naming_the_value() {
        // Regression: an unrecognized KM_ENGINE must be a hard error
        // naming the offender, not a silent fallback to Auto's own
        // choice. Exercised through `from_env_value` so this test never
        // plants an invalid value in the process-global environment,
        // which concurrent tests resolving `Auto` would trip over.
        let err = EngineKind::from_env_value(Some("warp-drive")).unwrap_err();
        match &err {
            EngineError::InvalidConfig { reason } => {
                assert!(reason.contains("warp-drive"), "{reason}");
                assert!(reason.contains(ENGINE_ENV), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(EngineKind::from_env_value(None).unwrap(), None);
        assert_eq!(
            EngineKind::from_env_value(Some("dist")).unwrap(),
            Some(EngineKind::Distributed)
        );
    }
}
