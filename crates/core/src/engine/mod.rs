//! Execution engines.
//!
//! All three engines implement identical synchronous-round semantics:
//!
//! 1. every machine runs [`crate::Protocol::round`] on the messages delivered at
//!    the start of this round and stages outgoing messages;
//! 2. staged messages enter per-ordered-pair FIFO [`crate::link::Link`]s (self-sends
//!    bypass links: local hand-off is free, like local computation);
//! 3. each link releases up to `B` bits; released messages form the next
//!    round's inboxes, ordered by sender index;
//! 4. the run ends when every machine reports [`crate::Status::Done`] and all
//!    links and inboxes are empty (global quiescence), or errs when the
//!    round limit fires.
//!
//! [`SequentialEngine`] is the reference implementation;
//! [`ParallelEngine`] distributes step 1 across crossbeam scoped threads;
//! [`DistributedEngine`] goes further and runs one worker thread *per
//! machine*, serializing every link message into a byte frame over that
//! ordered pair's bounded channel (see `distributed.rs`). All three are
//! transcript-identical (tested in `tests/engine_equivalence.rs` and the
//! cross-engine fuzz matrix in `tests/engine_fuzz.rs`).
//!
//! # The shared round core
//!
//! This module holds steps 2–4 once, and every engine calls it:
//!
//! * `Inlinks` is one destination's incoming side: its links indexed by
//!   source, its self-queue, the sorted active-source index, and the
//!   delivery walk (step 3). The in-process engines keep one per machine
//!   in `Network`; each distributed worker owns its own.
//! * `Inlinks::fold_into` fills the receive side of [`crate::Metrics`]
//!   (`recv_msgs`, `recv_bits`, `link_visits`, `max_link_bits`) for every
//!   engine.
//! * `run_rounds` is the master loop of the sequential and parallel
//!   engines; they differ only in the `step` that runs step 1.
//! * `Clock::tick` counts rounds and decides quiescence or the round
//!   limit (step 4) for all three engines, so error payloads agree too.
//! * `check_machines` validates the config and the machine count.
//!
//! # Sparse delivery
//!
//! The paper's algorithms spend most rounds with traffic on a small
//! fraction of the `k²` ordered links, so a round costs **O(k + active
//! links), not O(k²)**: every destination's inbox is cleared and its
//! index checked, but only links with queued traffic are walked.
//!
//! * The active-source index lists the sources (including the
//!   destination itself, for pending self-sends) with queued traffic. A
//!   push inserts a source exactly when its queue goes empty →
//!   non-empty, and the walk drops it when the queue drains; every link
//!   visit increments [`crate::Metrics::link_visits`], the observable
//!   this invariant is unit-tested against.
//! * Delivery-side accounting reuses the wire sizes cached in each
//!   [`Link`] at staging time ([`crate::link::Delivery`]), so
//!   [`crate::message::WireSize::bits`] runs exactly once per message.
//!
//! Each destination's active sources are walked in increasing machine
//! order (the index is kept sorted), so inboxes — and therefore
//! transcripts, metrics, and RNG streams — are bit-for-bit identical to
//! a dense scan of all `k²` links.

pub mod distributed;
pub mod parallel;
pub mod sequential;

pub use crate::metrics::{RunReport, WireReport};
pub use distributed::DistributedEngine;
pub use parallel::ParallelEngine;
pub use sequential::SequentialEngine;

use crate::config::NetConfig;
use crate::error::EngineError;
use crate::link::Link;
use crate::message::{Envelope, WireSize};
use crate::metrics::Metrics;
use crate::protocol::Status;
use crate::MachineIdx;

/// Validates `config` and that there is one protocol instance per
/// machine.
pub(crate) fn check_machines(config: &NetConfig, machines: usize) -> Result<(), EngineError> {
    config.validate()?;
    if machines != config.k {
        return Err(EngineError::InvalidConfig {
            reason: format!(
                "one protocol instance per machine: got {machines} for k = {}",
                config.k
            ),
        });
    }
    Ok(())
}

/// Machine `me`'s incoming side of the network: its links indexed by
/// source, its self-queue, and the sorted active-source index that keeps
/// delivery O(active traffic).
pub(crate) struct Inlinks<M> {
    me: MachineIdx,
    /// Incoming links indexed by source (`links[me]` unused).
    links: Vec<Link<M>>,
    /// Self-sends waiting for this round's delivery (no bandwidth charge).
    self_queue: Vec<Envelope<M>>,
    /// Sorted sources with queued traffic (contains `me` iff the
    /// self-queue is non-empty).
    active: Vec<MachineIdx>,
    /// Messages queued on links and the self-queue.
    queued_msgs: usize,
    /// Undelivered bits queued on links (self-sends are free).
    queued_bits: u64,
    link_visits: u64,
}

impl<M: WireSize> Inlinks<M> {
    pub(crate) fn new(k: usize, me: MachineIdx) -> Self {
        let mut links = Vec::with_capacity(k);
        links.resize_with(k, Link::default);
        Inlinks {
            me,
            links,
            self_queue: Vec::new(),
            active: Vec::new(),
            queued_msgs: 0,
            queued_bits: 0,
            link_visits: 0,
        }
    }

    /// Marks `src` as having queued traffic. Only called on an empty →
    /// non-empty transition, so `src` is never already present.
    fn activate(&mut self, src: MachineIdx) {
        let pos = self
            .active
            .binary_search(&src)
            // lint: allow(panic) — activate() fires only on the empty->non-empty transition, so src is absent
            .expect_err("activated twice without draining");
        self.active.insert(pos, src);
    }

    /// A self-send: free, no serialization, delivered this round.
    pub(crate) fn push_self(&mut self, msg: M) {
        if self.self_queue.is_empty() {
            self.activate(self.me);
        }
        self.self_queue.push(Envelope { src: self.me, msg });
        self.queued_msgs += 1;
    }

    /// A message from `src` enters that link's FIFO. `bits` is its
    /// clamped logical size, computed once at staging or carried in the
    /// frame header; `Link::push_sized` cross-checks it in debug builds.
    pub(crate) fn push(&mut self, src: MachineIdx, msg: M, bits: u64) {
        if self.links[src].is_empty() {
            self.activate(src);
        }
        self.links[src].push_sized(Envelope { src, msg }, bits);
        self.queued_msgs += 1;
        self.queued_bits += bits;
    }

    /// The delivery walk: visits the sorted active sources, releases up
    /// to `budget` bits per link into `inbox`, and drops drained sources
    /// from the index. Returns whether any link moved a bit.
    pub(crate) fn deliver(&mut self, budget: u64, inbox: &mut Vec<Envelope<M>>) -> bool {
        let mut any = false;
        let mut sources = std::mem::take(&mut self.active);
        sources.retain(|&src| {
            if src == self.me {
                self.queued_msgs -= self.self_queue.len();
                inbox.append(&mut self.self_queue);
                return false; // self-queues always drain fully
            }
            self.link_visits += 1;
            let link = &mut self.links[src];
            let d = link.deliver(budget, inbox);
            any |= d.bits_used > 0;
            self.queued_msgs -= d.msgs as usize;
            self.queued_bits -= d.msg_bits;
            !link.is_empty()
        });
        self.active = sources;
        any
    }

    /// `(messages, undelivered link bits)` still queued here.
    pub(crate) fn queued(&self) -> (usize, u64) {
        (self.queued_msgs, self.queued_bits)
    }

    /// Adds this destination's receive side to `metrics`. Called once
    /// the run is quiescent, so every message pushed through a link has
    /// been received.
    pub(crate) fn fold_into(&self, metrics: &mut Metrics) {
        for (msgs, bits) in self.links.iter().map(Link::totals) {
            metrics.recv_msgs[self.me] += msgs;
            metrics.recv_bits[self.me] += bits;
            metrics.max_link_bits = metrics.max_link_bits.max(bits);
        }
        metrics.link_visits += self.link_visits;
    }
}

/// The in-process network: every destination's [`Inlinks`] plus the
/// send-side metrics.
pub(crate) struct Network<M> {
    inlinks: Vec<Inlinks<M>>,
    metrics: Metrics,
}

impl<M: WireSize> Network<M> {
    fn new(k: usize) -> Self {
        Network {
            inlinks: (0..k).map(|me| Inlinks::new(k, me)).collect(),
            metrics: Metrics::new(k),
        }
    }

    /// Stages one message. Link traffic is charged to the sender here
    /// (bits are counted when sent, received when delivered).
    pub(crate) fn stage(&mut self, src: MachineIdx, dst: MachineIdx, msg: M) {
        if src == dst {
            self.inlinks[dst].push_self(msg);
            return;
        }
        let bits = msg.bits().max(1);
        self.metrics.sent_msgs[src] += 1;
        self.metrics.sent_bits[src] += bits;
        self.inlinks[dst].push(src, msg, bits);
    }

    /// Runs one delivery phase over every destination. Returns `true` if
    /// any link transmitted at least one bit.
    fn deliver(&mut self, budget: u64, inboxes: &mut [Vec<Envelope<M>>]) -> bool {
        let mut any = false;
        for (inl, inbox) in self.inlinks.iter_mut().zip(inboxes) {
            any |= inl.deliver(budget, inbox);
        }
        any
    }

    /// `(messages, undelivered link bits)` queued anywhere.
    fn queued(&self) -> (usize, u64) {
        self.inlinks
            .iter()
            .map(Inlinks::queued)
            .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db))
    }

    /// The run's metrics: send side as staged, receive side folded in.
    fn into_metrics(self, rounds: u64) -> Metrics {
        let mut metrics = self.metrics;
        for inl in &self.inlinks {
            inl.fold_into(&mut metrics);
        }
        metrics.rounds = rounds;
        metrics
    }
}

/// The round clock: counts iterations and communication rounds, and
/// decides how each iteration ends (step 4).
#[derive(Default)]
pub(crate) struct Clock {
    /// Iterations run so far; the next iteration's `RoundCtx::round`.
    pub(crate) round: u64,
    /// Iterations in which some link moved at least one bit.
    pub(crate) comm_rounds: u64,
}

impl Clock {
    /// Closes one iteration. `moved`: some link carried a bit; `idle`:
    /// every inbox is empty; `queued`: what the links still hold.
    /// `Ok(true)` at global quiescence, `Ok(false)` to run another round.
    ///
    /// # Errors
    /// [`EngineError::RoundLimitExceeded`] once `config.max_rounds`
    /// iterations ran without quiescence.
    pub(crate) fn tick(
        &mut self,
        config: &NetConfig,
        statuses: &[Status],
        moved: bool,
        idle: bool,
        (queued_msgs, queued_bits): (usize, u64),
    ) -> Result<bool, EngineError> {
        self.comm_rounds += u64::from(moved);
        self.round += 1;
        if idle && queued_msgs == 0 && statuses.iter().all(|s| *s == Status::Done) {
            return Ok(true);
        }
        if self.round >= config.max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                limit: config.max_rounds,
                active_machines: statuses.iter().filter(|s| **s == Status::Active).count(),
                queued_msgs,
                queued_bits,
            });
        }
        Ok(false)
    }
}

/// The master loop of the in-process engines. Each iteration `step`
/// runs step 1 — every machine's round on `inboxes`, its status written
/// to `statuses`, its sends staged into the network — and this runs
/// steps 2–4 until quiescence.
pub(crate) fn run_rounds<M, F>(config: &NetConfig, mut step: F) -> Result<Metrics, EngineError>
where
    M: WireSize,
    F: FnMut(u64, &mut [Vec<Envelope<M>>], &mut [Status], &mut Network<M>),
{
    let k = config.k;
    let mut net = Network::new(k);
    let mut inboxes: Vec<Vec<Envelope<M>>> = (0..k).map(|_| Vec::new()).collect();
    let mut statuses = vec![Status::Active; k];
    let mut clock = Clock::default();
    loop {
        step(clock.round, &mut inboxes, &mut statuses, &mut net);
        for inbox in &mut inboxes {
            inbox.clear();
        }
        let moved = net.deliver(config.bandwidth_bits, &mut inboxes);
        let idle = inboxes.iter().all(Vec::is_empty);
        if clock.tick(config, &statuses, moved, idle, net.queued())? {
            return Ok(net.into_metrics(clock.comm_rounds));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Network;
    use crate::config::NetConfig;
    use crate::engine::SequentialEngine;
    use crate::message::{Envelope, Outbox};
    use crate::protocol::{Protocol, RoundCtx, Status};
    use rand::Rng;

    /// Links the active indexes currently track (with queued traffic).
    fn active_links<M>(net: &Network<M>) -> usize {
        net.inlinks.iter().map(|inl| inl.active.len()).sum()
    }

    /// Link visits the delivery walks performed so far.
    fn link_visits<M>(net: &Network<M>) -> u64 {
        net.inlinks.iter().map(|inl| inl.link_visits).sum()
    }

    /// Random-size messages to random peers for a few rounds: exercises
    /// partial deliveries (messages larger than one round's budget) and
    /// multi-message rounds.
    struct Mesh {
        rounds: u64,
    }

    impl Protocol for Mesh {
        type Msg = Vec<u8>;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            _inbox: &mut Vec<Envelope<Vec<u8>>>,
            out: &mut Outbox<Vec<u8>>,
        ) -> Status {
            if ctx.round < self.rounds {
                for _ in 0..ctx.rng.gen_range(0..4) {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let len = ctx.rng.gen_range(0..24);
                    out.send(dst, vec![0u8; len]);
                }
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn drained_run_balances_sent_and_received_metrics() {
        // Small budget relative to message sizes forces messages to span
        // rounds, the case where recv accounting could drift from sent.
        let cfg = NetConfig::with_bandwidth(5, 48, 99);
        let machines: Vec<Mesh> = (0..5).map(|_| Mesh { rounds: 4 }).collect();
        let report = SequentialEngine::run(cfg, machines).unwrap();
        let m = &report.metrics;
        assert!(m.total_msgs() > 0, "the mesh must generate traffic");
        assert_eq!(
            m.sent_msgs.iter().sum::<u64>(),
            m.recv_msgs.iter().sum::<u64>(),
            "every sent message is received exactly once after a drain"
        );
        assert_eq!(
            m.sent_bits.iter().sum::<u64>(),
            m.recv_bits.iter().sum::<u64>(),
            "every sent bit is received exactly once after a drain"
        );
    }

    /// The sparse-delivery contract, observed through the active index
    /// and `Metrics::link_visits`: `deliver` touches exactly the links
    /// with queued traffic, never the other `k² − O(1)`.
    #[test]
    fn deliver_touches_only_active_links() {
        let k = 64;
        let mut net: Network<u32> = Network::new(k);
        let mut inboxes: Vec<Vec<Envelope<u32>>> = (0..k).map(|_| Vec::new()).collect();

        // Idle network: a delivery phase visits nothing.
        assert!(!net.deliver(64, &mut inboxes));
        assert_eq!(link_visits(&net), 0);
        assert_eq!(net.queued(), (0, 0));

        // Three link messages on two links + one free self-send.
        net.stage(3, 7, 1);
        net.stage(5, 7, 2);
        net.stage(3, 7, 3);
        net.stage(9, 9, 4);
        assert_eq!(active_links(&net), 3, "two link sources + one self");
        assert_eq!(net.queued(), (4, 3 * 32));

        // One phase delivers everything and visits exactly the 2 active
        // links (self-queues are not links); the index empties.
        assert!(net.deliver(64, &mut inboxes));
        assert_eq!(link_visits(&net), 2);
        assert_eq!(active_links(&net), 0);
        assert_eq!(net.queued(), (0, 0));
        // Inbox 7 is ordered by sender index: 3's FIFO pair, then 5.
        let got: Vec<(usize, u32)> = inboxes[7].iter().map(|e| (e.src, e.msg)).collect();
        assert_eq!(got, vec![(3, 1), (3, 3), (5, 2)]);
        assert_eq!(inboxes[9].len(), 1);

        // Another idle phase still visits nothing.
        assert!(!net.deliver(64, &mut inboxes));
        assert_eq!(link_visits(&net), 2);
    }

    /// A link whose message outlives one round's budget stays in the
    /// active index (and is re-visited) until fully delivered.
    #[test]
    fn partially_delivered_links_stay_active() {
        let k = 8;
        let mut net: Network<Vec<u8>> = Network::new(k);
        let mut inboxes: Vec<Vec<Envelope<Vec<u8>>>> = (0..k).map(|_| Vec::new()).collect();
        net.stage(1, 2, vec![0u8; 30]); // 32 + 240 bits at 100/round: 3 rounds
        for round in 0..2 {
            assert!(net.deliver(100, &mut inboxes));
            assert!(inboxes[2].is_empty(), "not yet complete at round {round}");
            assert_eq!(active_links(&net), 1);
            assert_ne!(net.queued().0, 0);
        }
        assert!(net.deliver(100, &mut inboxes));
        assert_eq!(inboxes[2].len(), 1);
        assert_eq!(active_links(&net), 0);
        assert_eq!(net.queued(), (0, 0));
        assert_eq!(link_visits(&net), 3);
    }

    /// A full sequential run on a ring at k = 32 performs O(rounds) link
    /// visits — not rounds·k².
    #[test]
    fn sparse_run_does_linear_work() {
        struct Ring {
            hops: u64,
        }
        impl Protocol for Ring {
            type Msg = u64;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) -> Status {
                if ctx.round == 0 {
                    if ctx.me == 0 {
                        out.send(1, self.hops);
                    }
                    return Status::Active;
                }
                for env in inbox.iter() {
                    if env.msg > 1 {
                        out.send((ctx.me + 1) % ctx.k, env.msg - 1);
                        return Status::Active;
                    }
                }
                Status::Done
            }
        }
        let k = 32;
        let hops = 100;
        let cfg = NetConfig::with_bandwidth(k, 64, 0);
        let machines: Vec<Ring> = (0..k).map(|_| Ring { hops }).collect();
        let report = SequentialEngine::run(cfg, machines).unwrap();
        assert_eq!(report.metrics.rounds, hops);
        // Exactly one link is active per round: one visit per hop.
        assert_eq!(report.metrics.link_visits, hops);
    }
}
