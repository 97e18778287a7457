//! The benchmark's own tests: every workload, in short mode, passes all
//! of its output checks, reports every metric `BENCHMARK.json` names,
//! and repeats its exact figures from one run to the next.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

/// `value[key]`, or `Null`.
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value.get(key).unwrap_or(&Value::Null)
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::Float(f) => Some(f),
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        _ => None,
    }
}

/// The value of metric `name` in a result line.
fn metric_value(result: &Value, name: &str) -> Option<f64> {
    number(field(field(field(result, "metrics"), name), "value"))
}

struct Run {
    /// The JSON result line.
    result: Value,
    /// The `perfbench-exact` figures from stderr.
    exact: BTreeMap<String, String>,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--short",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "perfbench failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result is JSON");
    let exact_line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench-exact "))
        .expect("an exact-figures line");
    let exact = match serde_json::from_str::<Value>(exact_line) {
        Ok(Value::Object(map)) => map
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect(),
        other => panic!("exact figures are not an object: {other:?}"),
    };
    Run { result, exact }
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    field(&doc, list)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            field(m, "name")
                .as_str()
                .expect("a metric name")
                .to_string()
        })
        .collect()
}

fn assert_clean(run: &Run, list: &str) {
    let r = &run.result;
    assert_eq!(field(r, "correct"), &Value::Bool(true), "{r:?}");
    assert_eq!(field(r, "failed").as_u64(), Some(0), "{r:?}");
    assert!(field(r, "attempted").as_u64().unwrap_or(0) >= 1, "{r:?}");
    for name in declared(list) {
        let value = metric_value(r, &name);
        assert!(value.is_some_and(f64::is_finite), "{name} missing in {r:?}");
    }
}

fn check(workload: &str) {
    let first = run(workload, false);
    let second = run(workload, false);
    assert_clean(&first, "end_to_end");
    assert_clean(&second, "end_to_end");
    assert!(!first.exact.is_empty());
    assert_eq!(
        first.exact, second.exact,
        "exact figures differ between runs"
    );
    assert_eq!(
        metric_value(&first.result, "mean_util"),
        metric_value(&second.result, "mean_util"),
        "mean_util differs between runs"
    );

    let traced = run(workload, true);
    assert_clean(&traced, "per_layer");
    for (k, v) in &first.exact {
        if let Some(t) = traced.exact.get(k) {
            assert_eq!(t, v, "{k} differs between the traced and the untraced run");
        }
    }
}

#[test]
fn offline_checks_pass_and_exact_figures_repeat() {
    check("offline");
}

#[test]
fn serve_checks_pass_and_exact_figures_repeat() {
    check("serve");
}

#[test]
fn session_checks_pass_and_exact_figures_repeat() {
    check("session");
}

#[test]
fn traced_exact_counts_repeat() {
    // Solver and kernel counts come from the traced run; two traced runs
    // of the same seed must agree on every one of them.
    let a = run("offline", true);
    let b = run("offline", true);
    assert_eq!(a.exact, b.exact);
    for name in [
        "solver.nodes",
        "solver.propagations",
        "solver.failures",
        "solver.table.rows_scanned",
        "geost.table_rows",
        "geost.nonoverlap.execs",
        "core.place.proven_ratio",
        "sched.deadline_misses",
        "sched.deadline_miss_ratio",
        "core.online.reject_ratio",
    ] {
        assert_eq!(
            metric_value(&a.result, name),
            metric_value(&b.result, name),
            "{name} differs between runs"
        );
    }
}
