//! Reusable benchmark workloads for the engine hot paths.
//!
//! The headline workload is the **sparse long-tail ring**: a handful of
//! tokens circulating for many rounds, so only `tokens` of the `k²`
//! ordered links carry traffic in any round. Before the active-link
//! index this was the engine's worst case — every round paid a full
//! `k²` link scan to move a few messages — and it is the shape most of
//! the paper's algorithms settle into after their bulk phases
//! (coordinator funnels, convergecast tails, token trickles).

use km_core::{Envelope, Outbox, Protocol, RoundCtx, Status};

/// A machine on a directed ring: tokens hop to `(me + 1) % k` each
/// round, decrementing, until they expire. With `t` tokens, exactly `t`
/// links are active per round — sparse traffic with a long round tail.
#[derive(Debug)]
pub struct SparseRing {
    /// Whether this machine injects a token in round 0.
    pub start: bool,
    /// Hops each injected token travels.
    pub hops: u64,
}

impl Protocol for SparseRing {
    type Msg = u64;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<u64>>,
        out: &mut Outbox<u64>,
    ) -> Status {
        if ctx.round == 0 {
            if self.start {
                out.send((ctx.me + 1) % ctx.k, self.hops);
            }
            return Status::Active;
        }
        let mut sent = false;
        for env in inbox.iter() {
            if env.msg > 1 {
                out.send((ctx.me + 1) % ctx.k, env.msg - 1);
                sent = true;
            }
        }
        if sent {
            Status::Active
        } else {
            Status::Done
        }
    }
}

/// `k` ring machines, the first `tokens` of which inject a `hops`-hop
/// token. Total traffic: `tokens · hops` messages over `hops + O(1)`
/// rounds.
pub fn sparse_ring_machines(k: usize, tokens: usize, hops: u64) -> Vec<SparseRing> {
    (0..k)
        .map(|i| SparseRing {
            start: i < tokens,
            hops,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use km_core::{EngineKind, NetConfig, Runner};

    /// The sparse-delivery gate: every token crosses `hops` links
    /// exactly once, and the delivery walk visits exactly the `tokens`
    /// active links per round — never the other `k²`. Exact on every
    /// engine.
    #[test]
    fn ring_traffic_is_exact_on_every_engine() {
        let (k, tokens, hops) = (12, 3, 20u64);
        let cfg = NetConfig::with_bandwidth(k, 64, 1).max_rounds(10_000);
        let engines = [
            EngineKind::Sequential,
            EngineKind::Parallel { threads: 2 },
            EngineKind::Distributed,
        ];
        for engine in engines {
            let m = Runner::new(cfg)
                .engine(engine)
                .run(sparse_ring_machines(k, tokens, hops))
                .unwrap()
                .metrics;
            assert_eq!(m.rounds, hops, "{engine:?}");
            assert_eq!(m.total_msgs(), tokens as u64 * hops, "{engine:?}");
            assert_eq!(m.link_visits, tokens as u64 * hops, "{engine:?}");
        }
    }
}
