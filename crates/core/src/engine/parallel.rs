//! The thread-parallel engine (crossbeam scoped master/worker).
//!
//! Machines are partitioned into contiguous chunks, one worker thread per
//! chunk. Each round the master ships every machine its inbox, workers run
//! [`Protocol::round`] in parallel, and the master merges the returned
//! outboxes *in machine order*. That exchange is the `step` it hands to
//! the master loop it shares with the sequential engine (`run_rounds` in
//! `engine/mod.rs`), so transcripts, metrics, and RNG streams are
//! bit-for-bit identical to [`super::SequentialEngine`].

use crate::config::NetConfig;
use crate::engine::{check_machines, run_rounds};
use crate::error::EngineError;
use crate::message::{Envelope, Outbox};
use crate::metrics::RunReport;
use crate::protocol::{Protocol, RoundCtx, Status};
use crate::rng;
use crate::MachineIdx;
use crossbeam::channel::{bounded, Receiver, Sender};

enum Cmd<M> {
    Round {
        round: u64,
        inboxes: Vec<Vec<Envelope<M>>>,
    },
    Stop,
}

enum Resp<P, M> {
    Round {
        /// Per-machine `(staged messages, status)`, in chunk order.
        results: Vec<(Vec<(MachineIdx, M)>, Status)>,
        /// The (cleared) inbox buffers handed out with `Cmd::Round`,
        /// returned so the master can reuse their capacity next round
        /// instead of allocating k fresh `Vec`s per round.
        buffers: Vec<Vec<Envelope<M>>>,
    },
    Final(Vec<P>),
}

/// A work-stealing-free, deterministic parallel engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Number of worker threads (capped at `k`).
    pub threads: usize,
}

impl Default for ParallelEngine {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ParallelEngine { threads }
    }
}

impl ParallelEngine {
    /// An engine using all available cores.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelEngine {
            threads: threads.max(1),
        }
    }

    /// Executes `machines` under `config`; semantics identical to
    /// [`super::SequentialEngine::run`].
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if the config fails
    /// [`NetConfig::validate`] or `machines.len() != config.k`;
    /// [`EngineError::RoundLimitExceeded`] if the safety valve fires.
    pub fn run<P>(&self, config: NetConfig, machines: Vec<P>) -> Result<RunReport<P>, EngineError>
    where
        P: Protocol + Send,
        P::Msg: Send,
    {
        check_machines(&config, machines.len())?;
        let k = config.k;
        let workers = self.threads.min(k).max(1);
        if workers == 1 {
            return super::SequentialEngine::run(config, machines);
        }
        let chunk = k.div_ceil(workers);
        let shared = rng::shared_seed(config.seed);

        // Partition machines into contiguous chunks with their RNGs.
        let mut chunks: Vec<Vec<P>> = Vec::with_capacity(workers);
        let mut bases: Vec<usize> = Vec::with_capacity(workers);
        {
            let mut rest = machines;
            let mut base = 0;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let tail = rest.split_off(take);
                bases.push(base);
                base += take;
                chunks.push(rest);
                rest = tail;
            }
        }
        let nchunks = chunks.len();

        crossbeam::thread::scope(|scope| {
            let mut cmd_txs: Vec<Sender<Cmd<P::Msg>>> = Vec::with_capacity(nchunks);
            let mut resp_rxs: Vec<Receiver<Resp<P, P::Msg>>> = Vec::with_capacity(nchunks);

            for (w, mut local) in chunks.into_iter().enumerate() {
                let base = bases[w];
                let (cmd_tx, cmd_rx) = bounded::<Cmd<P::Msg>>(1);
                let (resp_tx, resp_rx) = bounded::<Resp<P, P::Msg>>(1);
                cmd_txs.push(cmd_tx);
                resp_rxs.push(resp_rx);
                scope.spawn(move |_| {
                    let mut rngs: Vec<_> = (0..local.len())
                        .map(|j| rng::machine_rng(config.seed, base + j))
                        .collect();
                    let mut outbox = Outbox::new(k);
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            Cmd::Round { round, mut inboxes } => {
                                let mut results = Vec::with_capacity(local.len());
                                for (j, inbox) in inboxes.iter_mut().enumerate() {
                                    let mut ctx = RoundCtx {
                                        round,
                                        me: base + j,
                                        k,
                                        bandwidth_bits: config.bandwidth_bits,
                                        shared_seed: shared,
                                        rng: &mut rngs[j],
                                    };
                                    let status = local[j].round(&mut ctx, inbox, &mut outbox);
                                    results.push((outbox.drain().collect(), status));
                                    inbox.clear();
                                }
                                resp_tx
                                    .send(Resp::Round {
                                        results,
                                        buffers: inboxes,
                                    })
                                    // lint: allow(panic) — the master outlives workers: it only drops cmd/resp channels after collecting Final
                                    .expect("master alive");
                            }
                            Cmd::Stop => {
                                // lint: allow(panic) — the master outlives workers: it only drops cmd/resp channels after collecting Final
                                resp_tx.send(Resp::Final(local)).expect("master alive");
                                break;
                            }
                        }
                    }
                });
            }

            // Step 1 ships every worker its chunk's inboxes (moving them
            // out) and stages the returned outboxes in machine order.
            let result = run_rounds(&config, |round, inboxes, statuses, net| {
                for (w, tx) in cmd_txs.iter().enumerate() {
                    let end = bases.get(w + 1).copied().unwrap_or(k);
                    let batch = inboxes[bases[w]..end]
                        .iter_mut()
                        .map(std::mem::take)
                        .collect();
                    tx.send(Cmd::Round {
                        round,
                        inboxes: batch,
                    })
                    // lint: allow(panic) — a worker dies only if the protocol panicked, which propagates out of the scope anyway
                    .expect("worker alive");
                }
                // Workers answer in worker order with contiguous machine
                // chunks; their returned (cleared) buffers go back into
                // the chunk's slots, so every buffer's capacity is reused
                // instead of allocating k fresh `Vec`s per round.
                for (w, rx) in resp_rxs.iter().enumerate() {
                    // lint: allow(panic) — a worker dies only if the protocol panicked, which propagates out of the scope anyway
                    match rx.recv().expect("worker alive") {
                        Resp::Round { results, buffers } => {
                            for (j, ((msgs, status), buffer)) in
                                results.into_iter().zip(buffers).enumerate()
                            {
                                let me = bases[w] + j;
                                statuses[me] = status;
                                inboxes[me] = buffer;
                                for (dst, msg) in msgs {
                                    net.stage(me, dst, msg);
                                }
                            }
                        }
                        // lint: allow(panic) — worker protocol invariant: Final is only sent in response to Stop
                        Resp::Final(_) => unreachable!("workers only finalize on Stop"),
                    }
                }
            });

            // Collect machines back (always, even on error, to join cleanly).
            let mut final_machines: Vec<P> = Vec::with_capacity(k);
            for tx in &cmd_txs {
                // lint: allow(panic) — a worker dies only if the protocol panicked, which propagates out of the scope anyway
                tx.send(Cmd::Stop).expect("worker alive");
            }
            for rx in &resp_rxs {
                // lint: allow(panic) — a worker dies only if the protocol panicked, which propagates out of the scope anyway
                match rx.recv().expect("worker alive") {
                    Resp::Final(ms) => final_machines.extend(ms),
                    // lint: allow(panic) — worker protocol invariant: Stop is always answered by Final
                    Resp::Round { .. } => unreachable!("Stop yields Final"),
                }
            }
            result.map(|metrics| RunReport {
                machines: final_machines,
                metrics,
                wire: None,
            })
        })
        // lint: allow(panic) — deliberate propagation: a protocol panic in a worker resurfaces on the caller thread
        .expect("worker thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SequentialEngine;
    use rand::Rng;

    /// Every machine sends a random number of random-sized greetings to
    /// random peers for 3 rounds; outputs record everything received.
    struct Gossip {
        log: Vec<(usize, u32)>,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Envelope<u32>>,
            out: &mut Outbox<u32>,
        ) -> Status {
            for env in inbox {
                self.log.push((env.src, env.msg));
            }
            if ctx.round < 3 {
                let count = ctx.rng.gen_range(0..4);
                for _ in 0..count {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let val = ctx.rng.gen::<u32>();
                    out.send(dst, val);
                }
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_transcript() {
        let mk = || {
            (0..9)
                .map(|_| Gossip { log: Vec::new() })
                .collect::<Vec<_>>()
        };
        let cfg = NetConfig::with_bandwidth(9, 48, 12345);
        let seq = SequentialEngine::run(cfg, mk()).unwrap();
        let par = ParallelEngine::with_threads(4).run(cfg, mk()).unwrap();
        assert_eq!(seq.metrics, par.metrics);
        for (s, p) in seq.machines.iter().zip(&par.machines) {
            assert_eq!(s.log, p.log);
        }
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let cfg = NetConfig::with_bandwidth(3, 64, 7);
        let machines = (0..3).map(|_| Gossip { log: Vec::new() }).collect();
        let report = ParallelEngine::with_threads(1).run(cfg, machines).unwrap();
        assert_eq!(report.machines.len(), 3);
    }

    #[test]
    fn round_limit_error_propagates_and_joins() {
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u8;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<u8>>,
                out: &mut Outbox<u8>,
            ) -> Status {
                out.send((ctx.me + 1) % ctx.k, 1);
                Status::Active
            }
        }
        let cfg = NetConfig::with_bandwidth(4, 8, 0).max_rounds(5);
        let err = ParallelEngine::with_threads(2)
            .run(cfg, vec![Chatter, Chatter, Chatter, Chatter])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::RoundLimitExceeded { limit: 5, .. }
        ));
    }
}
