//! Benchmark harness for the km-repro k-machine simulator.
//!
//! Every layer is measured from outside the program: the harness times
//! its own calls into the generators, `KmAlgorithm::build`,
//! `Runner::run` and `KmAlgorithm::extract`, and wraps each machine in a
//! transparent [`trace::Traced`] protocol that times its `round()` calls.
//! See `README.md` in this directory for the workloads and the metrics.

pub mod host;
pub mod trace;
pub mod workloads;
