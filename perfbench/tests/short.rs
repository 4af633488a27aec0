//! Short-mode runs of the benchmark binary (`--seconds 0`: three workers,
//! each one warm-up and one timed pass): every metric named in
//! BENCHMARK.json is printed with its unit, the quality metrics repeat
//! exactly between two invocations, and each traced split adds up to its
//! traced pass.

use std::path::Path;
use std::process::Command;

const SEED: &str = "11";

/// `(name, value, unit)` of every metric in the last stdout line.
fn metrics(json: &str) -> Vec<(String, f64, String)> {
    let body = json
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    body.split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let (value, rest) = rest.split_once(", \"unit\": \"").expect("metric unit");
            let unit = rest.split('"').next().expect("unit string");
            (
                name.to_string(),
                value.parse().expect("numeric value"),
                unit.to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("list in BENCHMARK.json");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list ends")];
    section
        .lines()
        .filter_map(|line| {
            let name = line.split("\"name\": \"").nth(1)?.split('"').next()?;
            let unit = line.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

/// Runs one workload in short mode; returns stdout, checking the exit code.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

fn check_workload(workload: &str) {
    let first = run(workload, "0");
    let second = run(workload, "0");
    let (a, b) = (metrics(last_line(&first)), metrics(last_line(&second)));
    let names: Vec<(String, String)> = a.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
    assert_eq!(
        names,
        declared("end_to_end"),
        "{workload}: end-to-end metrics"
    );
    assert!(last_line(&first).starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    for name in ["ntc_ratio", "ok_pct", "fresh_pct"] {
        let value = |m: &[(String, f64, String)]| m.iter().find(|e| e.0 == name).unwrap().1;
        assert_eq!(
            value(&a),
            value(&b),
            "{workload}: {name} must repeat exactly"
        );
        assert!(value(&a) > 0.0, "{workload}: {name} is never 0");
    }

    let traced = run(workload, "1");
    let layer = metrics(last_line(&traced));
    let names: Vec<(String, String)> = layer
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(
        names,
        declared("per_layer"),
        "{workload}: per-layer metrics"
    );
    let rows: Vec<(&str, f64)> = traced
        .lines()
        .filter_map(|l| {
            let mut words = l.strip_prefix("split ")?.split_whitespace();
            let name = words.next()?;
            Some((name, words.next()?.parse().ok()?))
        })
        .collect();
    let pass = layer.iter().find(|e| e.0 == "trace.pass_s").unwrap().1;
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    assert!(
        rows.len() >= 4 && (sum - pass).abs() <= 1e-5,
        "{workload}: split rows sum to {sum}, traced pass is {pass}"
    );
    assert!(
        rows.iter().all(|r| r.1 >= 0.0),
        "{workload}: no negative row"
    );
}

#[test]
fn solve_gra() {
    check_workload("solve-gra");
}

#[test]
fn solve_sra_m1000() {
    check_workload("solve-sra-m1000");
}

#[test]
fn serve_mixed() {
    check_workload("serve-mixed");
}

#[test]
fn serve_failover_wal() {
    check_workload("serve-failover-wal");
}

#[test]
fn serve_rw_inversion() {
    check_workload("serve-rw-inversion");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
