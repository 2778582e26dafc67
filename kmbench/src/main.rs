//! `kmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in a closed loop (one run at a time) for about
//! `--seconds`, checks every output against its sequential oracle, and
//! prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Untraced (`--trace 0`) it reports the
//! end-to-end metrics; traced (`--trace 1`) the per-layer metrics. The
//! lines before it carry the host fingerprint, the exact counters and
//! any failure.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use km_core::{EngineKind, Metrics};
use kmbench::host;
use kmbench::trace::{median, SpanStats};
use kmbench::workloads::{Expect, Input, Run, Scale, Workload};

/// Fewest untraced runs whose median is reported.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Counts runs and failures; a failure is printed, never swallowed.
struct Tally {
    workload: &'static str,
    seed: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, e: &str) {
        self.failed += 1;
        println!("FAILED {} seed {}: {e}", self.workload, self.seed);
    }

    /// Runs the workload once and checks it against the oracle and
    /// against the transcript of the first run (`Metrics` must repeat
    /// exactly for one seed).
    fn run(
        &mut self,
        what: &str,
        input: &Input,
        expect: &Expect,
        reference: &mut Option<Metrics>,
        engine: EngineKind,
        traced: bool,
    ) -> Option<Run> {
        let run = input
            .run(engine, traced)
            .map_err(|e| format!("engine error: {e}"))
            .and_then(|run| run.check(expect).map(|()| run))
            .and_then(|run| match reference {
                Some(m) if *m != run.metrics => Err(format!(
                    "transcript changed: {} rounds / {} bits, first run had {} / {}",
                    run.metrics.rounds,
                    run.metrics.total_bits(),
                    m.rounds,
                    m.total_bits()
                )),
                _ => Ok(run),
            });
        self.attempted += 1;
        match run {
            Ok(run) => {
                reference.get_or_insert_with(|| run.metrics.clone());
                Some(run)
            }
            Err(e) => {
                self.fail(&format!("{what} run {}: {e}", self.attempted));
                None
            }
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// The counters that repeat exactly for one seed's transcript.
fn exact_counters(run: &Run) -> [(&'static str, u64); 5] {
    let wire = run.wire.clone().unwrap_or_default();
    [
        ("rounds", run.metrics.rounds),
        ("logical_bits", run.metrics.total_bits()),
        ("wire_bits", wire.measured_bits()),
        ("wire.frames", wire.frames),
        ("engine.link_visits", run.metrics.link_visits),
    ]
}

/// Untraced closed loop: the end-to-end metrics.
fn end_to_end(
    args: &Args,
    tally: &mut Tally,
    counters: &mut Vec<(&'static str, u64)>,
) -> Vec<Metric> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setup, mut run_s) = (Vec::new(), Vec::new());
    let (mut expect, mut reference, mut last) = (None, None, None);
    while run_s.len() < MIN_RUNS || Instant::now() < deadline {
        let t = Instant::now();
        let input = w.generate(args.seed, Scale::Full);
        let gen_s = t.elapsed().as_secs_f64();
        let expect = expect.get_or_insert_with(|| input.expect());
        if let Some(run) = tally.run(
            "untraced",
            &input,
            expect,
            &mut reference,
            w.engine(),
            false,
        ) {
            setup.push(gen_s + run.build_s);
            run_s.push(run.run_s);
            last = Some(run);
        }
        if tally.failed > 0 && Instant::now() >= deadline {
            break;
        }
    }
    println!("{{\"samples\": {{\"setup_s\": {setup:?}, \"run_s\": {run_s:?}}}}}");
    let Some(last) = last else {
        return Vec::new();
    };
    let m = &last.metrics;
    counters.extend(exact_counters(&last));
    vec![
        ("setup_s", median(&setup), "s"),
        ("run_s", median(&run_s), "s"),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
        ("rounds", m.rounds as f64, "rounds"),
        ("logical_bits", m.total_bits() as f64, "bits"),
    ]
}

/// One traced iteration: the untraced run beside it, and its spans.
struct Layered {
    gen_s: f64,
    build_s: f64,
    run_s: f64,
    traced_run_s: f64,
    spans: SpanStats,
}

/// Traced loop: per iteration an untraced run, a traced run, and (off
/// the sequential engine) a sequential replay of the same input, which
/// must reproduce the transcript exactly.
fn per_layer(
    args: &Args,
    tally: &mut Tally,
    counters: &mut Vec<(&'static str, u64)>,
) -> Vec<Metric> {
    let w = args.workload;
    let engine = w.engine();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut expect, mut reference, mut last) = (None, None, None);
    let (mut samples, mut seq_s) = (Vec::new(), Vec::new());
    for iteration in 0.. {
        if !samples.is_empty() && Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let input = w.generate(args.seed, Scale::Full);
        let gen_s = t.elapsed().as_secs_f64();
        let expect = expect.get_or_insert_with(|| input.expect());
        // The first run after generating the input pays for fresh memory,
        // so the traced and untraced runs take turns going first.
        let order = if iteration % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let (mut plain, mut traced) = (None, None);
        for with_trace in order {
            let what = if with_trace { "traced" } else { "untraced" };
            let run = tally.run(what, &input, expect, &mut reference, engine, with_trace);
            *(if with_trace { &mut traced } else { &mut plain }) = run;
        }
        let seq = (engine != EngineKind::Sequential).then(|| {
            let replay = EngineKind::Sequential;
            tally.run(
                "sequential replay",
                &input,
                expect,
                &mut reference,
                replay,
                false,
            )
        });
        if let Some(Some(seq)) = &seq {
            seq_s.push(seq.run_s);
        }
        // Metrics are compared in `Tally::run`; the answers are compared here.
        for (what, other) in [
            ("traced run", traced.as_ref()),
            ("sequential replay", seq.flatten().as_ref()),
        ] {
            if let (Some(other), Some(plain)) = (other, &plain) {
                if other.answer != plain.answer {
                    tally.fail(&format!(
                        "{what} answered differently from the untraced run"
                    ));
                }
            }
        }
        match (plain, traced) {
            (Some(plain), Some(traced)) => {
                let spans = traced.spans.as_ref().expect("a traced run records spans");
                samples.push(Layered {
                    gen_s,
                    build_s: plain.build_s,
                    run_s: plain.run_s,
                    traced_run_s: traced.run_s,
                    spans: SpanStats::new(spans, input.part.k(), (traced.run_s * 1e9) as u64),
                });
                last = Some((traced, input.net.bandwidth_bits));
            }
            _ if Instant::now() >= deadline => break,
            _ => {}
        }
    }
    let Some((last, bandwidth)) = last else {
        return Vec::new();
    };
    let med = |f: fn(&Layered) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let m = &last.metrics;
    let wire = last.wire.clone().unwrap_or_default();
    let calls = med(|l| l.spans.calls as f64);
    counters.extend(exact_counters(&last));
    counters.push(("proto.calls", calls as u64));
    let run_s = med(|l| l.run_s);
    let over_seq = match engine {
        EngineKind::Sequential => 1.0,
        _ => run_s / median(&seq_s),
    };
    let floor = m.round_floor(bandwidth).max(1);
    vec![
        ("graph.gen_s", med(|l| l.gen_s), "s"),
        ("graph.build_s", med(|l| l.build_s), "s"),
        ("proto.round_s", med(|l| l.spans.round_s), "s"),
        (
            "proto.round_max_machine_s",
            med(|l| l.spans.round_max_machine_s),
            "s",
        ),
        ("proto.calls", calls, "count"),
        ("proto.msgs_staged", med(|l| l.spans.staged as f64), "count"),
        (
            "proto.rounds_over_floor",
            m.rounds as f64 / floor as f64,
            "ratio",
        ),
        ("proto.span_union_s", med(|l| l.spans.union_s), "s"),
        ("engine.self_s", med(|l| l.spans.engine_self_s), "s"),
        (
            "engine.self_us_per_round",
            med(|l| l.spans.engine_self_s) / m.rounds.max(1) as f64 * 1e6,
            "us",
        ),
        ("engine.round_us_p50", med(|l| l.spans.round_us_p50), "us"),
        ("engine.round_us_p99", med(|l| l.spans.round_us_p99), "us"),
        (
            "engine.barrier_skew_us_p50",
            med(|l| l.spans.skew_us_p50),
            "us",
        ),
        (
            "engine.barrier_skew_us_p99",
            med(|l| l.spans.skew_us_p99),
            "us",
        ),
        ("engine.concurrency", med(|l| l.spans.concurrency), "ratio"),
        ("engine.link_visits", m.link_visits as f64, "count"),
        ("engine.dist_over_seq", over_seq, "ratio"),
        ("wire.bits", wire.measured_bits() as f64, "bits"),
        ("wire.frames", wire.frames as f64, "count"),
        ("wire.frame_bytes", wire.frame_bytes as f64, "bytes"),
        ("wire.msgs_per_frame", wire.msgs_per_frame(), "msgs/frame"),
        ("wire.vs_logical", wire.wire_vs_logical(), "ratio"),
        ("wire.recovery_bytes", wire.recovery_bytes() as f64, "bytes"),
        ("trace.run_s", med(|l| l.traced_run_s), "s"),
        (
            "trace.overhead_frac",
            med(|l| l.traced_run_s) / run_s - 1.0,
            "frac",
        ),
    ]
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "error: {e}\nusage: kmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let load_start = host::load_avg();
    let ticks_start = host::cpu_ticks();
    let calibration_ms = host::calibration_ms();
    let mut tally = Tally {
        workload: args.workload.name(),
        seed: args.seed,
        attempted: 0,
        failed: 0,
    };
    let mut counters = Vec::new();
    let metrics = if args.trace {
        per_layer(&args, &mut tally, &mut counters)
    } else {
        end_to_end(&args, &mut tally, &mut counters)
    };
    let opt = |x: Option<f64>| x.map_or("null".into(), json_num);
    let steal = match (ticks_start, host::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    println!(
        "{{\"fingerprint\": {{\"cores\": {}, \"rustc\": {}, \"git_sha\": {}, \"load_avg_start\": {}, \
         \"load_avg_end\": {}, \"cpu_steal_frac\": {}, \"calibration_ms\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        json_str(host::RUSTC),
        json_str(&host::git_sha()),
        opt(load_start),
        opt(host::load_avg()),
        opt(steal),
        json_num(calibration_ms),
    );
    let counters: Vec<String> = [
        format!("\"workload\": {}", json_str(args.workload.name())),
        format!("\"seed\": {}", args.seed),
    ]
    .into_iter()
    .chain(
        counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    )
    .collect();
    println!("{{\"counters\": {{{}}}}}", counters.join(", "));
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
