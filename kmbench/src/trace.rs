//! Spans recorded from outside the program: a transparent [`Protocol`]
//! wrapper that times every `round()` call of the machine it wraps, a
//! [`KmAlgorithm`] wrapper that builds and unwraps those machines, and
//! the arithmetic that turns spans into layer metrics.
//!
//! Times are nanoseconds since a shared epoch taken when the wrapper
//! algorithm is created, so spans recorded on different engine threads
//! share one clock.

use std::time::Instant;

use km_core::{Envelope, KmAlgorithm, Metrics, Outbox, Protocol, RoundCtx, Status};

/// One `round()` call of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub machine: usize,
    pub round: u64,
    /// Nanoseconds since the epoch.
    pub start: u64,
    pub end: u64,
    /// Messages the call staged into its outbox.
    pub staged: u64,
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A machine whose `round()` calls are recorded as [`Span`]s and
/// otherwise passed through unchanged.
pub struct Traced<P> {
    inner: P,
    epoch: Instant,
    spans: Vec<Span>,
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<P::Msg>>,
        out: &mut Outbox<P::Msg>,
    ) -> Status {
        let (machine, round, before) = (ctx.me, ctx.round, out.len());
        let start = nanos_since(self.epoch);
        let status = self.inner.round(ctx, inbox, out);
        let end = nanos_since(self.epoch);
        self.spans.push(Span {
            machine,
            round,
            start,
            end,
            staged: out.len().saturating_sub(before) as u64,
        });
        status
    }
}

/// Wraps an algorithm so that its machines are [`Traced`]; `extract`
/// returns the inner output together with every recorded span.
pub struct TracedAlg<'a, A> {
    inner: &'a A,
    epoch: Instant,
}

impl<'a, A> TracedAlg<'a, A> {
    pub fn new(inner: &'a A) -> Self {
        TracedAlg {
            inner,
            epoch: Instant::now(),
        }
    }
}

impl<A: KmAlgorithm> KmAlgorithm for TracedAlg<'_, A> {
    type Machine = Traced<A::Machine>;
    type Output = (A::Output, Vec<Span>);

    fn build(&self, k: usize) -> Vec<Self::Machine> {
        self.inner
            .build(k)
            .into_iter()
            .map(|inner| Traced {
                inner,
                epoch: self.epoch,
                spans: Vec::new(),
            })
            .collect()
    }

    fn extract(&self, machines: Vec<Self::Machine>, metrics: &Metrics) -> Self::Output {
        let mut spans = Vec::new();
        let inner = machines
            .into_iter()
            .map(|t| {
                spans.extend(t.spans);
                t.inner
            })
            .collect();
        (self.inner.extract(inner, metrics), spans)
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Sum of span durations.
pub fn busy_ns(spans: &[Span]) -> u64 {
    spans.iter().map(|s| s.end - s.start).sum()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `v` by nearest rank; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (mean of the two middle values when even); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Layer metrics derived from the spans of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    pub calls: u64,
    pub staged: u64,
    /// Σ `round()` time.
    pub round_s: f64,
    /// The largest per-machine Σ `round()` time.
    pub round_max_machine_s: f64,
    /// Time covered by at least one `round()` span.
    pub union_s: f64,
    /// The run window minus `union_s`: time no machine was in `round()`.
    pub engine_self_s: f64,
    /// Σ span time / span union.
    pub concurrency: f64,
    /// Machine 0's `round()` start to next start, µs.
    pub round_us_p50: f64,
    pub round_us_p99: f64,
    /// Per round, the last machine's `round()` start minus the first's, µs.
    pub skew_us_p50: f64,
    pub skew_us_p99: f64,
}

impl SpanStats {
    /// `window_ns` is the measured run (`Runner::run` + `extract`).
    pub fn new(spans: &[Span], k: usize, window_ns: u64) -> Self {
        let busy = busy_ns(spans);
        let union = union_ns(spans);
        let mut per_machine = vec![0u64; k];
        for s in spans {
            per_machine[s.machine] += s.end - s.start;
        }
        let mut m0: Vec<&Span> = spans.iter().filter(|s| s.machine == 0).collect();
        m0.sort_unstable_by_key(|s| s.round);
        let mut round_us: Vec<f64> = m0
            .windows(2)
            .map(|w| (w[1].start - w[0].start) as f64 / 1e3 / (w[1].round - w[0].round) as f64)
            .collect();
        let mut by_round: Vec<(u64, u64)> = spans.iter().map(|s| (s.round, s.start)).collect();
        by_round.sort_unstable();
        let mut skew_us: Vec<f64> = by_round
            .chunk_by(|a, b| a.0 == b.0)
            .map(|r| (r[r.len() - 1].1 - r[0].1) as f64 / 1e3)
            .collect();
        SpanStats {
            calls: spans.len() as u64,
            staged: spans.iter().map(|s| s.staged).sum(),
            round_s: busy as f64 / 1e9,
            round_max_machine_s: per_machine.iter().copied().max().unwrap_or(0) as f64 / 1e9,
            union_s: union as f64 / 1e9,
            engine_self_s: window_ns.saturating_sub(union) as f64 / 1e9,
            concurrency: if union == 0 {
                0.0
            } else {
                busy as f64 / union as f64
            },
            round_us_p50: quantile(&mut round_us, 0.5),
            round_us_p99: quantile(&mut round_us, 0.99),
            skew_us_p50: quantile(&mut skew_us, 0.5),
            skew_us_p99: quantile(&mut skew_us, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(machine: usize, round: u64, start: u64, end: u64) -> Span {
        Span {
            machine,
            round,
            start,
            end,
            staged: 1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&[]), 0);
        // [0,10) ∪ [5,15) ∪ [20,30) ∪ [30,31) = 15 + 11.
        let s = [
            span(0, 0, 20, 30),
            span(1, 0, 0, 10),
            span(2, 0, 5, 15),
            span(3, 0, 30, 31),
        ];
        assert_eq!(union_ns(&s), 26);
        // A span nested in another adds nothing.
        let s = [span(0, 0, 0, 100), span(1, 0, 10, 20)];
        assert_eq!(union_ns(&s), 100);
        assert_eq!(busy_ns(&s), 110);
    }

    #[test]
    fn self_time_is_window_minus_union_and_concurrency_is_busy_over_union() {
        // Two machines over two rounds; machine 1 overlaps machine 0.
        let s = [
            span(0, 0, 0, 10),
            span(1, 0, 4, 12),
            span(0, 1, 20, 30),
            span(1, 1, 25, 30),
        ];
        let st = SpanStats::new(&s, 2, 50);
        assert_eq!(st.calls, 4);
        assert_eq!(st.staged, 4);
        assert!((st.union_s - 22e-9).abs() < 1e-18);
        assert!((st.engine_self_s - 28e-9).abs() < 1e-18);
        assert!((st.round_s - 33e-9).abs() < 1e-18);
        assert!((st.concurrency - 33.0 / 22.0).abs() < 1e-12);
        assert!((st.round_max_machine_s - 20e-9).abs() < 1e-18);
        // Machine 0 starts at 0 and 20: one 0.02 µs round.
        assert!((st.round_us_p50 - 0.02).abs() < 1e-12);
        // Skews: round 0 → 4 ns, round 1 → 5 ns.
        assert!((st.skew_us_p50 - 0.004).abs() < 1e-12);
        assert!((st.skew_us_p99 - 0.005).abs() < 1e-12);
        // Self time never goes negative when spans outlast the window.
        assert_eq!(SpanStats::new(&s, 2, 10).engine_self_s, 0.0);
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        let mut v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
