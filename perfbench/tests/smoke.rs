//! Runs every workload at `--tiny` size, untraced and traced, and checks
//! that each metric `BENCHMARK.json` names is printed with its unit and a
//! finite value, and that the run is correct.
//!
//! The workloads run the optimizer and the thermal solver, which are slow
//! in debug builds: run with `cargo test --release`.

use std::process::Command;

use tac25d_obs::json::{parse, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("BENCHMARK.json")
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_tac25d-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the solvers; use --release")]
fn every_workload_emits_every_named_metric() {
    let doc = benchmark_json();
    for workload in ["organize", "evaluate-cold", "evaluate-warm"] {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").expect("metrics");
            let expected = names(&doc, key);
            assert_eq!(
                metrics.as_object().map(<[_]>::len),
                Some(expected.len()),
                "{workload}: extra or missing {key} metrics"
            );
            for (name, unit) in expected {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
    }
}
