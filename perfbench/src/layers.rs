//! Per-layer attribution: counter deltas from the obs registry, span
//! times from the obs span aggregate, and the per-layer table.
//!
//! Every per-layer metric is listed for every workload, so a change that
//! moves a layer shows on each workload that runs it. A metric whose
//! layer a workload bypasses reads 0 there.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tac25d_obs as obs;

use crate::stats::ratio;
use crate::Metric;

/// A point-in-time copy of every registered counter.
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Reads the registry now.
    pub fn now() -> Counters {
        Counters(obs::registry::counter_snapshot().into_iter().collect())
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// How much `name` grew from `self` to `later`.
    pub fn delta(&self, later: &Counters, name: &str) -> u64 {
        later.get(name).saturating_sub(self.get(name))
    }
}

/// The span aggregate rolled up by leaf name: name → (entries, total
/// seconds, self seconds), summed over threads.
pub struct Spans(BTreeMap<String, (u64, f64, f64)>);

impl Spans {
    /// Reads the span aggregate now.
    pub fn now() -> Spans {
        let by_name = obs::profile::spans_by_name(&obs::span::snapshot());
        Spans(
            by_name
                .into_iter()
                .map(|(k, (n, total, own))| (k, (n, total as f64 / 1e9, own as f64 / 1e9)))
                .collect(),
        )
    }

    /// Entries of span `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.0 as f64)
    }

    /// Total seconds inside span `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.1)
    }

    /// Self seconds of span `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.2)
    }

    /// Self seconds summed over every span whose name starts with `prefix`.
    pub fn self_s_prefix(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(0.0, |sum, (_, s)| sum + s.2)
    }
}

/// Everything a workload measured in its traced run that feeds the
/// per-layer metrics. Fields a workload does not measure stay 0.
#[derive(Default)]
pub struct Traced {
    /// Timed operations in the traced phase (the per-op denominator).
    pub ops: f64,
    /// Median sweep wall minus Σ optimize wall / threads, seconds.
    pub straggler_s: f64,
    /// Mean |predicted − exact| over the verified placements, °C.
    pub mean_abs_error_c: f64,
    /// Median direct `EngineState::evaluate` time on a memo hit, µs.
    pub engine_hit_us: f64,
    /// Median direct `EngineState::evaluate` time on a memo miss, ms.
    pub engine_miss_ms: f64,
    /// Median request parse time, µs.
    pub parse_us: f64,
    /// Untraced client p50 minus the direct engine time of the side (hit on
    /// warm, miss on cold), µs.
    pub transport_us_p50: f64,
    /// Non-2xx responses over the whole run.
    pub non_2xx: f64,
    /// Traced versus untraced end-to-end metric, percent.
    pub overhead_pct: f64,
}

/// Builds the per-layer metrics from the traced phase's counter deltas
/// (`before` → `after`) and span aggregate.
pub fn metrics(t: &Traced, before: &Counters, after: &Counters, spans: &Spans) -> Vec<Metric> {
    let d = |name: &str| before.delta(after, name) as f64;
    let per_op = |v: f64| ratio(v, t.ops);
    let m = Metric::new;
    let exact = d("evaluator.exact_solves");
    let hits = d("evaluator.cache_hits");
    let reuses = d("evaluator.model_reuses");
    let builds = d("thermal.model_builds");
    let pcg_solves = d("thermal.pcg_solves");
    let pcg_iters = d("thermal.pcg_iterations");
    let outer = d("thermal.leakage_outer_iterations");
    let predictions = d("surrogate.predictions");
    vec![
        m("bench.straggler_s", t.straggler_s, "s"),
        m(
            "optimizer.self_s",
            per_op(spans.self_s_prefix("optimizer.")),
            "s/op",
        ),
        m(
            "optimizer.moves_evaluated",
            per_op(d("optimizer.moves_evaluated")),
            "count/op",
        ),
        m(
            "optimizer.move_accept_ratio",
            ratio(
                d("optimizer.moves_accepted"),
                d("optimizer.moves_evaluated"),
            ),
            "ratio",
        ),
        m(
            "optimizer.greedy_starts",
            per_op(d("optimizer.greedy_starts")),
            "count/op",
        ),
        m(
            "optimizer.analytic_grad_evals",
            per_op(d("optimizer.analytic_grad_evals")),
            "count/op",
        ),
        m(
            "optimizer.draft_refutes",
            per_op(d("optimizer.draft_refutes")),
            "count/op",
        ),
        m("evaluator.exact_solves", per_op(exact), "count/op"),
        m("evaluator.hit_ratio", ratio(hits, hits + exact), "ratio"),
        m(
            "evaluator.model_reuse_ratio",
            ratio(reuses, reuses + builds),
            "ratio",
        ),
        m("evaluator.engine_hit_us", t.engine_hit_us, "us"),
        m("evaluator.engine_miss_ms", t.engine_miss_ms, "ms"),
        m(
            "surrogate.kernel_build_s",
            per_op(spans.total_s("surrogate.kernel_build")),
            "s/op",
        ),
        m(
            "surrogate.kernel_builds",
            per_op(spans.count("surrogate.kernel_build")),
            "count/op",
        ),
        m(
            "surrogate.kernel_solves",
            per_op(d("surrogate.kernel_solves")),
            "count/op",
        ),
        m("surrogate.predictions", per_op(predictions), "count/op"),
        m(
            "surrogate.corrector_hit_ratio",
            ratio(d("surrogate.knn_corrector_hits"), predictions),
            "ratio",
        ),
        m("surrogate.mean_abs_error_c", t.mean_abs_error_c, "C"),
        m(
            "thermal.matrix_assembly_s",
            per_op(spans.total_s("thermal.matrix_assembly")),
            "s/op",
        ),
        m("thermal.model_builds", per_op(builds), "count/op"),
        m(
            "thermal.assembly_rows_reused",
            per_op(d("thermal.assembly_rows_reused")),
            "count/op",
        ),
        m(
            "thermal.ic0_factorizations",
            per_op(d("thermal.ic0_factorizations")),
            "count/op",
        ),
        m(
            "thermal.pcg_solve_s",
            per_op(spans.total_s("thermal.pcg_solve")),
            "s/op",
        ),
        m("thermal.pcg_solves", per_op(pcg_solves), "count/op"),
        m("thermal.pcg_iterations", per_op(pcg_iters), "count/op"),
        m(
            "thermal.pcg_iterations_per_solve",
            ratio(pcg_iters, pcg_solves),
            "count",
        ),
        m(
            "thermal.leakage_fixed_point_s",
            per_op(spans.self_s("thermal.leakage_fixed_point")),
            "s/op",
        ),
        m(
            "thermal.leakage_outer_iterations",
            per_op(outer),
            "count/op",
        ),
        m(
            "thermal.anderson_accept_ratio",
            ratio(d("thermal.anderson_accepted"), outer),
            "ratio",
        ),
        m(
            "thermal.warm_start_ratio",
            ratio(d("thermal.warm_start_hits"), pcg_solves),
            "ratio",
        ),
        m("serve.parse_us", t.parse_us, "us"),
        m("serve.transport_us_p50", t.transport_us_p50, "us"),
        m("serve.non_2xx", t.non_2xx, "count"),
        m("serve.shed", d("serve.shed"), "count"),
        m("obs.overhead_pct", t.overhead_pct, "%"),
    ]
}

/// The end-to-end quantities the table expresses layer times as shares of.
pub struct ShareBase {
    /// What a layer's busy seconds per op (`s/op`, a mean over the traced
    /// phase) are a share of, in seconds: traced CPU seconds per op on
    /// organize, where layers run in parallel, or the traced mean
    /// request latency on the daemon workloads.
    pub busy_s_per_op: f64,
    /// Name of that quantity.
    pub busy_label: &'static str,
    /// Untraced p50 of one operation, µs (for the direct timings).
    pub latency_p50_us: f64,
    /// Median sweep wall, seconds (for the straggler).
    pub sweep_s: f64,
}

/// Renders the per-layer table: value, unit and, where the layer maps to
/// an end-to-end metric of this workload, its share of that metric.
pub fn table(workload: &str, metrics: &[Metric], base: &ShareBase) -> String {
    let mut out = format!("per-layer ({workload}; counts and span times from the traced phase)\n");
    let _ = writeln!(
        out,
        "  {:<34} {:>14} {:<9} {:>8}  of",
        "metric", "value", "unit", "share"
    );
    for m in metrics {
        let share = match (m.name, m.unit, workload) {
            ("bench.straggler_s", _, "organize") => Some((m.value / base.sweep_s, "sweep wall")),
            (_, "s/op", _) => Some((m.value / base.busy_s_per_op, base.busy_label)),
            ("evaluator.engine_hit_us", _, "evaluate-warm")
            | ("serve.parse_us" | "serve.transport_us_p50", _, "evaluate-warm" | "evaluate-cold") => {
                Some((m.value / base.latency_p50_us, "latency_p50"))
            }
            ("evaluator.engine_miss_ms", _, "evaluate-cold") => {
                Some((m.value * 1e3 / base.latency_p50_us, "latency_p50"))
            }
            _ => None,
        };
        let (share, of) = match share {
            Some((v, of)) if v.is_finite() => (format!("{:.1}%", v * 100.0), of),
            _ => ("-".to_owned(), ""),
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>14.6} {:<9} {:>8}  {of}",
            m.name, m.value, m.unit, share
        );
    }
    out
}
