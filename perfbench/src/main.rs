//! `perfbench` — the tac25d benchmark: one command, three workloads,
//! every end-to-end and per-layer metric by name with its unit.
//!
//! ```text
//! perfbench --workload <organize|evaluate-cold|evaluate-warm>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures with observability off and reports the end-to-end
//! metrics; `--trace 1` runs the same workload untraced, then traced, and
//! reports the per-layer metrics plus a per-layer table. `--tiny` shrinks
//! every workload to a smoke-test size. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this package for the metric definitions.

mod evaluate;
mod layers;
mod organize;
mod points;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

/// Command-line options.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run (split in half between the untraced and
    /// traced phases under `--trace 1`).
    pub seconds: f64,
    /// Whether to run the traced per-layer measurement.
    pub trace: bool,
    /// Smoke-test size.
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds expects a non-negative number")?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

/// One named metric value.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named as in `BENCHMARK.json`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Timed operations attempted (optimize calls or HTTP requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Invariant violations of the benchmark itself (aliasing points,
    /// exhausted inputs); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Human-readable summary printed before the JSON line.
    pub report: String,
}

fn result_json(outcome: &Outcome) -> String {
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{"#,
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {:?}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let load_start = stats::loadavg_1m();
    let outcome = match args.workload.as_str() {
        "organize" => organize::run(&args, started),
        "evaluate-cold" => evaluate::run(&args, started, evaluate::Side::Cold),
        "evaluate-warm" => evaluate::run(&args, started, evaluate::Side::Warm),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (expected organize, evaluate-cold or evaluate-warm)"
            );
            std::process::exit(2);
        }
    };
    print!("{}", outcome.report);
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
    println!(
        "host: cpu={:?} nproc={} git_rev={} loadavg_1m_start={load_start} loadavg_1m_end={} \
         workload={} seed={} seconds={} trace={}",
        stats::cpu_model(),
        stats::nproc(),
        stats::git_rev(),
        stats::loadavg_1m(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!("{}", result_json(&outcome));
}
