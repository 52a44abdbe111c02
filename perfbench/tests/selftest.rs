//! Self-tests of the benchmark command, run at `--tiny` sizes:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// Every metric of `kind` in BENCHMARK.json, with its unit, in the last line.
fn assert_metrics_printed(workload: &str, trace: &str, kind: &str) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ]);
    let printed = stdout(&out);
    assert!(out.status.success(), "{workload} trace {trace}: {printed}");
    let last = printed.lines().last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    let Value::Map(keys) = &result else {
        panic!("not an object: {last}")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);

    let metrics = result.get("metrics").expect("metrics");
    let Value::Map(got) = metrics else {
        panic!("metrics is not an object")
    };
    let spec = benchmark_json();
    let want = list(&spec, kind);
    assert_eq!(got.len(), want.len(), "{workload}: metric count");
    for m in want {
        let name = text(m, "name");
        let entry = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            text(entry, "unit"),
            text(m, "unit"),
            "{workload}: {name} unit"
        );
        assert!(
            matches!(entry.get("value"), Some(Value::Float(_) | Value::Int(_))),
            "{workload}: {name} has no numeric value"
        );
        // The human-readable table names the metric and its unit too.
        assert!(
            printed
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(text(m, "unit"))),
            "{workload}: {name} not in the table"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark_json();
    for w in list(&spec, "workloads") {
        let name = text(w, "name");
        assert_metrics_printed(name, "0", "end_to_end");
        assert_metrics_printed(name, "1", "per_layer");
    }
}

#[test]
fn end_to_end_run_prints_fail_ratio() {
    let out = perfbench(&[
        "--workload",
        "nproc_k4",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--tiny",
    ]);
    assert!(stdout(&out)
        .lines()
        .any(|l| l.starts_with("fail_ratio") && l.ends_with("ratio")));
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn corrupted_fingerprint_fails_the_command() {
    let file = scratch_file("fingerprint-tiny.txt");
    let path = file.to_str().expect("utf-8 path");
    let write = perfbench(&[
        "--fingerprint",
        "write",
        "--fingerprint-file",
        path,
        "--tiny",
    ]);
    assert!(write.status.success(), "{}", stdout(&write));

    let check = perfbench(&[
        "--fingerprint",
        "check",
        "--fingerprint-file",
        path,
        "--tiny",
    ]);
    assert!(check.status.success(), "{}", stdout(&check));
    assert!(stdout(&check).contains("fingerprint: match"));

    // Bump the first exact count by one.
    let pinned = std::fs::read_to_string(&file).expect("read fingerprint");
    let corrupted: Vec<String> = pinned
        .lines()
        .scan(false, |done, line| {
            let bumped = match line.split_once(" = ") {
                Some((k, v)) if !*done && v.parse::<u64>().is_ok() => {
                    *done = true;
                    format!("{k} = {}", v.parse::<u64>().expect("count") + 1)
                }
                _ => line.to_string(),
            };
            Some(bumped)
        })
        .collect();
    assert_ne!(corrupted.join("\n"), pinned.trim_end());
    std::fs::write(&file, corrupted.join("\n")).expect("write corrupted");

    let check = perfbench(&[
        "--fingerprint",
        "check",
        "--fingerprint-file",
        path,
        "--tiny",
    ]);
    assert_eq!(check.status.code(), Some(1), "{}", stdout(&check));
    assert!(stdout(&check).contains("fingerprint: MISMATCH"));
}

#[test]
fn missing_fingerprint_file_fails_the_command() {
    let path = scratch_file("no-such-fingerprint.txt");
    let check = perfbench(&[
        "--fingerprint",
        "check",
        "--fingerprint-file",
        path.to_str().expect("utf-8 path"),
        "--tiny",
    ]);
    assert_eq!(check.status.code(), Some(1));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "census_n100", "--trace", "2"][..],
        &["--seed"][..],
        &[][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}
