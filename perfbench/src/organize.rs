//! The `organize` workload: repeated full Fig. 8 sweeps on the production
//! screened path.
//!
//! One sweep is what `fig8` does at grid 32: the eight benchmarks over
//! `runner::parallel_map_by_cost` (hot benchmarks first), a fresh
//! surrogate-attached evaluator per benchmark, surrogate fidelity with
//! analytic seeding, α = 1, β = 0, 85 °C. One operation is one
//! `optimize()` call. A warm-up sweep belongs to set-up: the first sweep of
//! a process runs measurably slower than the rest.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tac25d_bench::runner::parallel_map_by_cost;
use tac25d_core::evaluator::layout_key;
use tac25d_core::optimizer::SeedMode;
use tac25d_core::prelude::*;
use tac25d_obs as obs;

use crate::layers::{self, Counters, ShareBase, Spans, Traced};
use crate::stats::{cpu_seconds, median, nproc, peak_rss_mb, ratio};
use crate::{Args, Metric, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The Fig. 8 winners at grid 32 (α = 1, β = 0, 85 °C): frequency (MHz),
/// active cores and normalized performance. They do not depend on the
/// optimizer seed; the winner's edge and spacings do, so those are not
/// pinned.
const REFERENCE: &[(&str, f64, u16, f64)] = &[
    ("cholesky", 1000.0, 256, 1.795_327_551_036_913_3),
    ("lu.cont", 1000.0, 96, 1.0),
    ("blackscholes", 1000.0, 256, 1.750_704_241_653_183),
    ("swaptions", 1000.0, 256, 1.157_751_968_197_053_6),
    ("streamcluster", 1000.0, 256, 1.101_209_123_385_545_4),
    ("canneal", 1000.0, 192, 1.0),
    ("hpccg", 1000.0, 256, 1.393_228_743_551_058_6),
    ("shock", 1000.0, 256, 1.864_404_159_018_072),
];

/// One `optimize()` call's outcome.
struct Call {
    benchmark: Benchmark,
    wall_s: f64,
    result: Result<OptimizeResult, OptimizeError>,
}

/// One full sweep.
struct Sweep {
    wall_s: f64,
    /// Process CPU seconds the sweep took.
    cpu_s: f64,
    calls: Vec<Call>,
}

fn sweep(spec: &SystemSpec, benchmarks: &[Benchmark], seed: u64) -> Sweep {
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    let _sweep_span = obs::span!("perfbench.sweep");
    let calls = parallel_map_by_cost(
        benchmarks.to_vec(),
        |b| b.profile().core_power_nominal,
        |&benchmark| {
            let ev = Evaluator::with_surrogate(spec.clone(), SurrogateConfig::default());
            let cfg = OptimizerConfig {
                fidelity: Fidelity::surrogate_default(),
                seeding: SeedMode::On,
                ..OptimizerConfig::with_seed(seed)
            };
            let _span = obs::span!("perfbench.optimize");
            let t = Instant::now();
            let result = optimize(&ev, benchmark, &cfg);
            Call {
                benchmark,
                wall_s: t.elapsed().as_secs_f64(),
                result,
            }
        },
    );
    Sweep {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        calls,
    }
}

/// Runs whole sweeps until `seconds` have passed (at least one).
fn timed_sweeps(
    spec: &SystemSpec,
    benchmarks: &[Benchmark],
    seed: u64,
    seconds: f64,
) -> Vec<Sweep> {
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed() < window {
        out.push(sweep(spec, benchmarks, seed));
    }
    out
}

/// Sweep wall minus the optimize wall it would take with perfect balance
/// over the pool, median over sweeps.
fn straggler_s(sweeps: &[Sweep], threads: usize) -> f64 {
    let per_sweep: Vec<f64> = sweeps
        .iter()
        .map(|s| s.wall_s - s.calls.iter().map(|c| c.wall_s).sum::<f64>() / threads as f64)
        .collect();
    median(&per_sweep)
}

/// Checks every winner against the pinned reference and re-solves each
/// distinct winner with a fresh exact evaluator. Returns the number of
/// failed calls and a description of each failure.
fn check(spec: &SystemSpec, sweeps: &[Sweep]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut fresh_peaks: HashMap<_, f64> = HashMap::new();
    for call in sweeps.iter().flat_map(|s| &s.calls) {
        let name = call.benchmark.name();
        let reference = REFERENCE.iter().find(|r| r.0 == name);
        let verdict = match (&call.result, reference) {
            (Err(e), _) => Err(format!("{name}: optimize failed: {e}")),
            (Ok(_), None) => Err(format!("{name}: no pinned reference")),
            (Ok(r), Some(&(_, freq, cores, perf))) => match &r.best {
                None => Err(format!("{name}: no feasible organization")),
                Some(best) => {
                    let c = &best.candidate;
                    let key = (
                        layout_key(&best.layout),
                        call.benchmark,
                        c.op.freq_mhz as u32,
                        c.active_cores,
                    );
                    let peak = *fresh_peaks.entry(key).or_insert_with(|| {
                        Evaluator::new(spec.clone())
                            .evaluate(&best.layout, call.benchmark, c.op, c.active_cores)
                            .map_or(f64::INFINITY, |e| e.peak.value())
                    });
                    if c.op.freq_mhz != freq
                        || c.active_cores != cores
                        || (best.normalized_perf - perf).abs() > 1e-9
                    {
                        Err(format!(
                            "{name}: winner {} MHz / {} cores / perf {} differs from the \
                             reference {freq} MHz / {cores} cores / perf {perf}",
                            c.op.freq_mhz, c.active_cores, best.normalized_perf
                        ))
                    } else if peak > spec.threshold.value() {
                        Err(format!(
                            "{name}: fresh exact peak {peak} °C exceeds the threshold"
                        ))
                    } else {
                        Ok(())
                    }
                }
            },
        };
        if let Err(note) = verdict {
            failed += 1;
            if notes.len() < 8 {
                notes.push(note);
            }
        }
    }
    (failed, notes)
}

/// Each benchmark's median optimize wall, in benchmark order, seconds.
fn per_benchmark_medians(sweeps: &[Sweep], benchmarks: &[Benchmark]) -> Vec<f64> {
    benchmarks
        .iter()
        .map(|b| {
            let walls: Vec<f64> = sweeps
                .iter()
                .flat_map(|s| &s.calls)
                .filter(|c| c.benchmark == *b)
                .map(|c| c.wall_s)
                .collect();
            median(&walls)
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let spec = SystemSpec::fast();
    let benchmarks: Vec<Benchmark> = if args.tiny {
        vec![Benchmark::all()
            .into_iter()
            .find(|b| b.name() == "lu.cont")
            .expect("lu.cont is a benchmark")]
    } else {
        Benchmark::all().to_vec()
    };
    let threads = obs::threads_override()
        .unwrap_or_else(nproc)
        .clamp(1, benchmarks.len());

    // Set-up: the warm-up sweep, repeated; the first repetition is timed
    // from process start.
    let mut setup = Vec::new();
    let mut rep_start = started;
    let mut all_sweeps = Vec::new();
    for _ in 0..if args.tiny { 1 } else { SETUP_REPS } {
        all_sweeps.push(sweep(&spec, &benchmarks, args.seed));
        setup.push(rep_start.elapsed().as_secs_f64());
        rep_start = Instant::now();
    }
    let setup_s = median(&setup);

    let half = if args.trace { 0.5 } else { 1.0 } * args.seconds;
    let c0 = Counters::now();
    let untraced = timed_sweeps(&spec, &benchmarks, args.seed, half);
    let c1 = Counters::now();
    let per_sweep = benchmarks.len() as f64;
    let sweep_s = median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let cpu_s_per_op = median(&untraced.iter().map(|s| s.cpu_s).collect::<Vec<_>>()) / per_sweep;
    // Benchmarks differ in search cost several-fold, so optimize walls
    // cluster by benchmark: the median benchmark's median and the slowest
    // benchmark's median are the stable p50 and tail.
    let medians = per_benchmark_medians(&untraced, &benchmarks);
    let p50_s = median(&medians);
    let tail_s = medians.iter().copied().fold(0.0, f64::max);
    let mut report = format!(
        "organize: {} benchmarks x {} sweeps on {threads} threads; setup {setup_s:.3} s \
         (median of {}); sweep_s {sweep_s:.4}; optimize wall p50 {p50_s:.4} s, tail {tail_s:.4} s\n",
        benchmarks.len(),
        untraced.len(),
        setup.len(),
    );
    let per_sweep_count = |name| ratio(c0.delta(&c1, name) as f64, untraced.len() as f64);
    report.push_str(&format!(
        "work per sweep (counters, untraced): {:.1} exact solves, {:.1} kernel solves, \
         {:.0} PCG iterations\n",
        per_sweep_count("evaluator.exact_solves"),
        per_sweep_count("surrogate.kernel_solves"),
        per_sweep_count("thermal.pcg_iterations"),
    ));
    for (b, m) in benchmarks.iter().zip(&medians) {
        report.push_str(&format!(
            "  {:<14} median optimize wall {m:.4} s\n",
            b.name()
        ));
    }

    let metrics = if args.trace {
        obs::force_enable();
        obs::span::reset();
        let before = Counters::now();
        let traced = timed_sweeps(&spec, &benchmarks, args.seed, half);
        let after = Counters::now();
        let spans = Spans::now();
        let (verified, error_sum) = traced
            .iter()
            .flat_map(|s| &s.calls)
            .filter_map(|c| c.result.as_ref().ok())
            .fold((0.0, 0.0), |(n, sum), r| {
                (
                    n + r.stats.surrogate_verifications as f64,
                    sum + r.stats.surrogate_abs_error_sum_c,
                )
            });
        let traced_sweep_s = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        let traced_cpu_s: f64 = traced.iter().map(|s| s.cpu_s).sum();
        let t = Traced {
            ops: traced.len() as f64 * per_sweep,
            straggler_s: straggler_s(&untraced, threads),
            mean_abs_error_c: ratio(error_sum, verified),
            overhead_pct: (ratio(traced_sweep_s, sweep_s) - 1.0) * 100.0,
            ..Traced::default()
        };
        let metrics = layers::metrics(&t, &before, &after, &spans);
        report.push_str(&layers::table(
            "organize",
            &metrics,
            &ShareBase {
                busy_s_per_op: ratio(traced_cpu_s, t.ops),
                busy_label: "cpu_s_per_op",
                latency_p50_us: p50_s * 1e6,
                sweep_s,
            },
        ));
        all_sweeps.extend(traced);
        metrics
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", per_sweep / sweep_s, "1/s"),
            Metric::new("latency_p50_ms", p50_s * 1e3, "ms"),
            Metric::new("latency_tail_ms", tail_s * 1e3, "ms"),
            Metric::new("cpu_s_per_op", cpu_s_per_op, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };

    // Output checks, outside every timed window.
    all_sweeps.extend(untraced);
    let (failed, notes) = check(&spec, &all_sweeps);
    for n in &notes {
        report.push_str(&format!("check failed: {n}\n"));
    }
    Outcome {
        attempted: all_sweeps.iter().map(|s| s.calls.len() as u64).sum(),
        failed,
        problems: Vec::new(),
        metrics,
        report,
    }
}
