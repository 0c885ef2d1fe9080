//! The `evaluate-cold` and `evaluate-warm` workloads: closed-loop
//! keep-alive clients against an in-process `tac25d serve` daemon.
//!
//! The daemon is `serve::server::start` with the production
//! `ServerConfig` defaults, one worker per CPU and the `tac25d serve`
//! spec (`SystemSpec::fast()`, grid 32). Two clients (no more than the
//! CPUs of a small host) each send their next request when the previous
//! answer arrives.
//!
//! - `evaluate-cold`: every request is a distinct, non-aliasing point,
//!   so each one costs the daemon one exact coupled solve (the write side
//!   of the evaluator memo). The points spread over a fixed set of
//!   layouts, so the first request on each layout also builds its package
//!   model and later ones reuse it.
//! - `evaluate-warm`: set-up fills a warm set of points; the clients then
//!   pick from it, so every request is a memo hit (the read side).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tac25d_core::prelude::SystemSpec;
use tac25d_floorplan::organization::ChipletLayout;
use tac25d_obs as obs;
use tac25d_serve::client::Client;
use tac25d_serve::engine::EngineState;
use tac25d_serve::protocol::EvaluateRequest;
use tac25d_serve::server::{start, ServerConfig, ServerHandle};

use crate::layers::{self, Counters, ShareBase, Spans, Traced};
use crate::points::{self, Rng};
use crate::stats::{cpu_seconds, median, nproc, peak_rss_mb, percentile, ratio};
use crate::{Args, Metric, Outcome};

/// Which side of the memo the workload exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Every request a distinct miss.
    Cold,
    /// Every request a hit on the warm set.
    Warm,
}

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median. A cold set-up takes a
/// tenth of a second, so a single stall of the host would move it; a warm
/// one fills the warm set with exact solves.
const COLD_SETUP_REPS: usize = 9;
const WARM_SETUP_REPS: usize = 3;
/// Layouts one cold phase's points spread over. Each stays cached in the
/// daemon as a package model of about 2 MiB.
const LAYOUTS: usize = 64;
/// Layouts the warm set spreads over: memo hits never touch the models,
/// so fewer keep the set-up's memory small.
const WARM_LAYOUTS: usize = 16;
/// Distinct cold points per measured second: well above the daemon's
/// miss rate on a small host, so a run does not run out.
const COLD_POINTS_PER_S: f64 = 300.0;
/// Requests on layouts of their own that warm the daemon up before timing.
const WARMUP_REQUESTS: usize = 8;
/// Warm-set size.
const WARM_SET: usize = 256;
/// Cold responses re-checked against a fresh engine after the run.
const COLD_SAMPLE: usize = 16;
/// Direct `EngineState::evaluate` hits timed in the traced run.
const DIRECT_HITS: usize = 20_000;
/// Direct `EngineState::evaluate` misses timed in the traced run.
const DIRECT_MISSES: usize = 24;
/// Request bodies timed through the parser in the traced run.
const PARSE_SAMPLES: usize = 20_000;
/// Length of the blocks a phase is cut into for its medians.
const BLOCK_S: f64 = 1.0;
/// Samples a p99 window needs: ten beyond the percentile.
const P99_WINDOW: usize = 1000;

/// Request bodies handed out once each, in order.
struct Pool {
    bodies: Vec<String>,
    next: AtomicUsize,
}

impl Pool {
    fn new(points: &[points::Point]) -> Pool {
        Pool {
            bodies: points.iter().map(points::Point::body).collect(),
            next: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> Option<&String> {
        self.bodies.get(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Where a phase's requests come from.
enum Source<'a> {
    /// Distinct points, each sent once.
    Cold(&'a Pool),
    /// Seeded picks from the warm set, with the body each must answer.
    Warm(&'a [String], &'a [Vec<u8>]),
}

/// The run's inputs.
struct Inputs {
    /// Warm set and its set-up-time responses (warm side).
    warm: Vec<String>,
    expected: Vec<Vec<u8>>,
    /// Cold points of the untraced and the traced phase, on disjoint
    /// layouts so both phases start with the same share of model builds.
    untraced: Pool,
    traced: Pool,
    /// Points no phase sends, for the direct miss timings.
    misses: Vec<String>,
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    latencies_s: Vec<f64>,
    /// When each latency sample completed, seconds from phase start.
    done_at_s: Vec<f64>,
    /// (seconds from phase start, process CPU seconds) at each block edge.
    cpu_marks: Vec<(f64, f64)>,
    wall_s: f64,
    cpu_s: f64,
    non_2xx: u64,
    transport_errors: u64,
    mismatches: u64,
    /// Cold side: every answered (request, response body).
    cold: Vec<(String, Vec<u8>)>,
    exhausted: bool,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.latencies_s.len() as u64 + self.transport_errors
    }

    fn merge(&mut self, other: Phase) {
        self.latencies_s.extend(other.latencies_s);
        self.done_at_s.extend(other.done_at_s);
        self.non_2xx += other.non_2xx;
        self.transport_errors += other.transport_errors;
        self.mismatches += other.mismatches;
        self.cold.extend(other.cold);
        self.exhausted |= other.exhausted;
    }

    /// The phase's end-to-end figures.
    fn summary(&self) -> Summary {
        // Latencies of each block, in block order.
        let blocks: Vec<(f64, f64, Vec<f64>)> = self
            .cpu_marks
            .windows(2)
            .map(|w| {
                let ((t0, c0), (t1, c1)) = (w[0], w[1]);
                let lat: Vec<f64> = self
                    .done_at_s
                    .iter()
                    .zip(&self.latencies_s)
                    .filter(|(d, _)| (t0..t1).contains(*d))
                    .map(|(_, l)| *l)
                    .collect();
                (t1 - t0, c1 - c0, lat)
            })
            .filter(|b| !b.2.is_empty())
            .collect();
        let n = self.latencies_s.len() as f64;
        if blocks.is_empty() {
            return Summary {
                rps: ratio(n, self.wall_s),
                p50_s: percentile(&self.latencies_s, 50.0),
                p99_s: percentile(&self.latencies_s, 99.0),
                cpu_s_per_op: ratio(self.cpu_s, n),
            };
        }
        // p99 per window of consecutive blocks holding enough samples
        // (a short remainder joins the last window), median over windows.
        let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
        for (_, _, lat) in &blocks {
            if windows.last().is_some_and(|w| w.len() >= P99_WINDOW) {
                windows.push(Vec::new());
            }
            windows.last_mut().expect("one window").extend(lat);
        }
        if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < P99_WINDOW) {
            let rest = windows.pop().expect("a remainder");
            windows.last_mut().expect("one window").extend(rest);
        }
        let over_blocks = |f: fn(f64, f64, &[f64]) -> f64| {
            median(
                &blocks
                    .iter()
                    .map(|(secs, cpu, lat)| f(*secs, *cpu, lat))
                    .collect::<Vec<_>>(),
            )
        };
        Summary {
            rps: over_blocks(|secs, _, lat| lat.len() as f64 / secs),
            p50_s: over_blocks(|_, _, lat| percentile(lat, 50.0)),
            p99_s: median(
                &windows
                    .iter()
                    .map(|w| percentile(w, 99.0))
                    .collect::<Vec<_>>(),
            ),
            cpu_s_per_op: over_blocks(|_, cpu, lat| cpu / lat.len() as f64),
        }
    }
}

/// A phase's end-to-end figures. Throughput, p50 and CPU per request
/// are medians over whole one-second blocks, and p99 the median over
/// windows of at least a thousand samples, which keeps a stall of a shared
/// host from moving them.
struct Summary {
    rps: f64,
    p50_s: f64,
    p99_s: f64,
    cpu_s_per_op: f64,
}

/// A running daemon, its engine and the benchmark's connections to it.
struct Daemon {
    engine: Arc<EngineState>,
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    fn start(spec: &SystemSpec) -> Daemon {
        let engine = Arc::new(EngineState::new(spec.clone()));
        let config = ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        };
        let handle = start(config, Arc::clone(&engine)).expect("bind an ephemeral port");
        let addr = handle.local_addr().to_string();
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr).expect("connect to the daemon"))
            .collect();
        Daemon {
            engine,
            handle,
            clients,
        }
    }

    /// Closes the connections and waits for every daemon thread.
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }

    /// Runs the closed loop for `seconds`, and for at least `min_each`
    /// requests per client.
    fn closed_loop(&mut self, source: &Source, seed: u64, seconds: f64, min_each: usize) -> Phase {
        let window = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut phase = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut rng = Rng::new(seed, 100 + c as u64);
                        let mut out = Phase::default();
                        let mut sent = 0;
                        while sent < min_each || started.elapsed() < window {
                            let (body, expected) = match source {
                                Source::Warm(bodies, expected) => {
                                    let i = rng.below(bodies.len());
                                    (&bodies[i], Some(&expected[i]))
                                }
                                Source::Cold(pool) => match pool.take() {
                                    Some(body) => (body, None),
                                    None => {
                                        out.exhausted = true;
                                        break;
                                    }
                                },
                            };
                            let t = Instant::now();
                            let response = {
                                let _span = obs::span!("perfbench.http_round_trip");
                                client.post("/v1/evaluate", body)
                            };
                            let latency = t.elapsed().as_secs_f64();
                            sent += 1;
                            let Ok(r) = response else {
                                out.transport_errors += 1;
                                break;
                            };
                            // Checked after the clock stopped.
                            out.latencies_s.push(latency);
                            out.done_at_s.push(started.elapsed().as_secs_f64());
                            if r.status != 200 {
                                out.non_2xx += 1;
                            } else if let Some(expected) = expected {
                                out.mismatches += u64::from(r.body != *expected);
                            } else {
                                out.cold.push((body.clone(), r.body));
                            }
                        }
                        out
                    })
                })
                .collect();
            // Mark block edges while the clients run.
            let mut marks = vec![(0.0, cpu_seconds())];
            let mut edge = BLOCK_S;
            while edge <= seconds {
                std::thread::sleep(Duration::from_secs_f64(edge).saturating_sub(started.elapsed()));
                marks.push((started.elapsed().as_secs_f64(), cpu_seconds()));
                edge += BLOCK_S;
            }
            let mut all = Phase {
                cpu_marks: marks,
                ..Phase::default()
            };
            for w in workers {
                all.merge(w.join().expect("client thread panicked"));
            }
            all
        });
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.cpu_s = cpu_seconds() - phase.cpu_marks[0].1;
        phase
    }

    /// Sends each of `bodies` once, split over the clients, and returns
    /// the response bodies in order with the count of non-200 answers.
    fn fill(&mut self, bodies: &[String]) -> (Vec<Vec<u8>>, u64) {
        let chunk = bodies.len().div_ceil(CLIENTS).max(1);
        let parts: Vec<(Vec<Vec<u8>>, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(bodies.chunks(chunk))
                .map(|(client, part)| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(part.len());
                        let mut bad = 0;
                        for body in part {
                            match client.post("/v1/evaluate", body) {
                                Ok(r) => {
                                    bad += u64::from(r.status != 200);
                                    out.push(r.body);
                                }
                                Err(e) => {
                                    bad += 1;
                                    out.push(e.to_string().into_bytes());
                                }
                            }
                        }
                        (out, bad)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("fill client panicked"))
                .collect()
        });
        let bad = parts.iter().map(|p| p.1).sum();
        (parts.into_iter().flat_map(|p| p.0).collect(), bad)
    }
}

fn parse(body: &str) -> EvaluateRequest {
    EvaluateRequest::from_json(&obs::json::parse(body).expect("generated body is JSON"))
        .expect("generated body is a valid request")
}

fn bodies(spec: &SystemSpec, layouts: &[ChipletLayout], rng: &mut Rng, n: usize) -> Vec<String> {
    points::draw(spec, layouts, rng, n)
        .iter()
        .map(points::Point::body)
        .collect()
}

/// One set-up: draws the inputs, starts the daemon, warms it up on points
/// of their own and, on the warm side, fills the warm set. Returns the
/// count of set-up requests that did not answer 200.
fn prepare(spec: &SystemSpec, args: &Args, side: Side) -> (Daemon, Inputs, u64) {
    let layouts = points::shuffled_layouts(spec, args.seed);
    let (first, rest) = layouts.split_at(LAYOUTS);
    let (second, rest) = rest.split_at(LAYOUTS);
    let mut rng = Rng::new(args.seed, 1);
    let half = if args.trace { 0.5 } else { 1.0 } * args.seconds;
    let cold_n = (COLD_POINTS_PER_S * half).ceil() as usize + if args.tiny { 64 } else { 0 };
    let (untraced, traced, warm, misses) = match side {
        Side::Cold => {
            let mut drawn = points::draw(spec, first, &mut rng, cold_n + DIRECT_MISSES);
            let misses = drawn
                .split_off(cold_n)
                .iter()
                .map(points::Point::body)
                .collect();
            let traced = if args.trace {
                points::draw(spec, second, &mut rng, cold_n)
            } else {
                Vec::new()
            };
            (drawn, traced, Vec::new(), misses)
        }
        Side::Warm => {
            let warm_n = if args.tiny { 16 } else { WARM_SET };
            let warm = bodies(spec, &first[..WARM_LAYOUTS], &mut rng, warm_n);
            let misses = bodies(spec, second, &mut rng, DIRECT_MISSES);
            (Vec::new(), Vec::new(), warm, misses)
        }
    };
    let warmup = bodies(spec, &rest[..1], &mut rng, WARMUP_REQUESTS);

    let mut daemon = Daemon::start(spec);
    let (_, warmup_bad) = daemon.fill(&warmup);
    let (expected, warm_bad) = daemon.fill(&warm);
    let inputs = Inputs {
        warm,
        expected,
        untraced: Pool::new(&untraced),
        traced: Pool::new(&traced),
        misses,
    };
    (daemon, inputs, warmup_bad + warm_bad)
}

/// Median wall time of `f` over `n` calls, seconds.
fn timed_median(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Untraced direct timings of the daemon's engine and request parser:
/// (median hit s, median miss s, median parse s).
fn direct_timings(
    daemon: &Daemon,
    hit_bodies: &[&String],
    misses: &[String],
    tiny: bool,
) -> (f64, f64, f64) {
    let hits: Vec<EvaluateRequest> = hit_bodies.iter().map(|b| parse(b)).collect();
    let hit_s = timed_median(if tiny { 100 } else { DIRECT_HITS }, |i| {
        std::hint::black_box(daemon.engine.evaluate(&hits[i % hits.len()], None));
    });
    let parse_s = timed_median(if tiny { 100 } else { PARSE_SAMPLES }, |i| {
        let body = std::hint::black_box(hit_bodies[i % hit_bodies.len()]);
        std::hint::black_box(parse(body));
    });
    let misses: Vec<EvaluateRequest> = misses.iter().map(|b| parse(b)).collect();
    let miss_s = timed_median(misses.len(), |i| {
        std::hint::black_box(daemon.engine.evaluate(&misses[i], None));
    });
    (hit_s, miss_s, parse_s)
}

/// Runs the workload.
pub fn run(args: &Args, started: Instant, side: Side) -> Outcome {
    let spec = SystemSpec::fast();
    let name = match side {
        Side::Cold => "evaluate-cold",
        Side::Warm => "evaluate-warm",
    };
    let min_each = if args.tiny { 4 } else { 1 };
    let mut problems = Vec::new();

    // Set-up, repeated; the first repetition is timed from process start.
    let mut setup = Vec::new();
    let mut rep_start = started;
    let mut setup_bad = 0;
    let mut prepared: Option<(Daemon, Inputs)> = None;
    let reps = match side {
        _ if args.tiny => 1,
        Side::Cold => COLD_SETUP_REPS,
        Side::Warm => WARM_SETUP_REPS,
    };
    for _ in 0..reps {
        if let Some((daemon, _)) = prepared.take() {
            daemon.stop();
            rep_start = Instant::now();
        }
        let (daemon, inputs, bad) = prepare(&spec, args, side);
        setup.push(rep_start.elapsed().as_secs_f64());
        setup_bad += bad;
        prepared = Some((daemon, inputs));
    }
    let (mut daemon, inputs) = prepared.expect("at least one set-up");
    let setup_s = median(&setup);
    if setup_bad > 0 {
        problems.push(format!("{setup_bad} set-up requests did not answer 200"));
    }

    let source = |pool| match side {
        Side::Cold => Source::Cold(pool),
        Side::Warm => Source::Warm(&inputs.warm, &inputs.expected),
    };
    let half = if args.trace { 0.5 } else { 1.0 } * args.seconds;
    let c0 = Counters::now();
    let untraced = daemon.closed_loop(&source(&inputs.untraced), args.seed, half, min_each);
    let mut memo_checks = vec![(c0, Counters::now(), untraced.ops())];
    let summary = untraced.summary();
    let mut report = format!(
        "{name}: {CLIENTS} closed-loop clients, {} daemon workers; {} requests in {:.3} s; \
         block medians {:.1} req/s, p50 {:.4} ms; p99 {:.4} ms; setup {setup_s:.3} s (median of {})\n",
        nproc(),
        untraced.latencies_s.len(),
        untraced.wall_s,
        summary.rps,
        summary.p50_s * 1e3,
        summary.p99_s * 1e3,
        setup.len(),
    );
    {
        let (before, after, sent) = &memo_checks[0];
        report.push_str(&format!(
            "work per request (counters, untraced): {:.2} exact solves, {:.1} PCG iterations\n",
            ratio(
                before.delta(after, "evaluator.exact_solves") as f64,
                *sent as f64
            ),
            ratio(
                before.delta(after, "thermal.pcg_iterations") as f64,
                *sent as f64
            ),
        ));
    }
    if untraced.latencies_s.len() < 1000 && !args.tiny {
        report.push_str("warning: under 1000 latency samples, so p99 has under ten beyond it\n");
    }

    let mut all = untraced;
    let metrics = if args.trace {
        let hit_bodies: Vec<&String> = match side {
            Side::Warm => inputs.warm.iter().collect(),
            Side::Cold => all.cold.iter().map(|(request, _)| request).collect(),
        };
        let (hit_s, miss_s, parse_s) =
            direct_timings(&daemon, &hit_bodies, &inputs.misses, args.tiny);

        obs::force_enable();
        obs::span::reset();
        let before = Counters::now();
        let traced = daemon.closed_loop(&source(&inputs.traced), args.seed ^ 1, half, min_each);
        let after = Counters::now();
        let spans = Spans::now();
        let engine_s = match side {
            Side::Cold => miss_s,
            Side::Warm => hit_s,
        };
        let t = Traced {
            ops: traced.ops() as f64,
            engine_hit_us: hit_s * 1e6,
            engine_miss_ms: miss_s * 1e3,
            parse_us: parse_s * 1e6,
            transport_us_p50: (summary.p50_s - engine_s) * 1e6,
            non_2xx: (all.non_2xx + traced.non_2xx) as f64,
            overhead_pct: (ratio(traced.summary().p50_s, summary.p50_s) - 1.0) * 100.0,
            ..Traced::default()
        };
        let metrics = layers::metrics(&t, &before, &after, &spans);
        report.push_str(&layers::table(
            name,
            &metrics,
            &ShareBase {
                busy_s_per_op: ratio(
                    traced.latencies_s.iter().sum(),
                    traced.latencies_s.len() as f64,
                ),
                busy_label: "mean latency",
                latency_p50_us: summary.p50_s * 1e6,
                sweep_s: 0.0,
            },
        ));
        memo_checks.push((before, after, traced.ops()));
        all.merge(traced);
        metrics
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", summary.rps, "1/s"),
            Metric::new("latency_p50_ms", summary.p50_s * 1e3, "ms"),
            Metric::new("latency_tail_ms", summary.p99_s * 1e3, "ms"),
            Metric::new("cpu_s_per_op", summary.cpu_s_per_op, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    daemon.stop();

    // Memo accounting: a cold request is one exact solve, a warm one is
    // one hit, and nothing else touches the memo during a phase.
    for (before, after, sent) in &memo_checks {
        let exact = before.delta(after, "evaluator.exact_solves");
        let hits = before.delta(after, "evaluator.cache_hits");
        let (want_exact, want_hits) = match side {
            Side::Cold => (*sent, 0),
            Side::Warm => (0, *sent),
        };
        if exact != want_exact || hits != want_hits {
            problems.push(format!(
                "{sent} requests made {exact} exact solves and {hits} memo hits, \
                 expected {want_exact} and {want_hits}"
            ));
        }
    }
    if all.exhausted {
        problems.push("the cold point set ran out before the window ended".to_owned());
    }

    // Output checks, outside every timed window: a seeded sample of cold
    // responses must match a fresh engine byte for byte (the
    // `query --local` contract); warm responses were compared with their
    // set-up-time bodies as they arrived.
    let mut mismatches = all.mismatches;
    let mut rng = Rng::new(args.seed, 7);
    for _ in 0..COLD_SAMPLE.min(all.cold.len()) {
        let (request, body) = &all.cold[rng.below(all.cold.len())];
        let fresh = EngineState::new(spec.clone()).evaluate(&parse(request), None);
        mismatches += u64::from(fresh.status != 200 || fresh.body.as_bytes() != body.as_slice());
    }
    if mismatches > 0 {
        report.push_str(&format!(
            "check failed: {mismatches} responses differ from their reference\n"
        ));
    }
    Outcome {
        attempted: all.ops(),
        failed: all.non_2xx + all.transport_errors + mismatches,
        problems,
        metrics,
        report,
    }
}
