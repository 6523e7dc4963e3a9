//! Runs the benchmark binary on tiny instances (`--smoke`) for every
//! workload, plain and traced, and checks that it prints every metric
//! `BENCHMARK.json` declares, with its unit, and that no operation failed.
//! This keeps the declaration and the binary from drifting apart.

use std::process::Command;
use stsyn_obs::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of the manifest.
fn declared(section: &str) -> Vec<(String, String)> {
    let manifest = manifest();
    let Some(Json::Arr(items)) = manifest.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{last}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{last}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0, "{last}");
    assert!(stdout.contains(&format!("{workload} error_rate 0 ratio")), "{stdout}");

    let section = if trace { "per_layer" } else { "end_to_end" };
    let expected = declared(section);
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics: {last}") };
    assert_eq!(metrics.len(), expected.len(), "{workload}: {last}");
    for (name, unit) in &expected {
        let m = result.get("metrics").and_then(|ms| ms.get(name));
        let m = m.unwrap_or_else(|| panic!("{workload}: `{name}` missing from {last}"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let line = format!("{workload} {name} ");
        assert!(
            stdout.lines().any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
            "{workload}: no `{name} … {unit}` line"
        );
    }
}

#[test]
fn manifest_names_the_binarys_workloads_and_metrics() {
    let manifest = manifest();
    let Some(Json::Arr(workloads)) = manifest.get("workloads") else { panic!("no workloads") };
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Json::as_str).expect("name")).collect();
    assert_eq!(names, perfbench::WORKLOADS);
    let pairs = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), pairs(perfbench::END_TO_END));
    assert_eq!(declared("per_layer"), pairs(perfbench::PER_LAYER));
}

#[test]
fn coloring_scan_reports_every_metric() {
    check("coloring-scan", false);
    check("coloring-scan", true);
}

#[test]
fn matching_cycles_reports_every_metric() {
    check("matching-cycles", false);
    check("matching-cycles", true);
}

#[test]
fn token_ring_deep_reports_every_metric() {
    check("token-ring-deep", false);
    check("token-ring-deep", true);
}

#[test]
fn service_mix_reports_every_metric() {
    check("service-mix", false);
    check("service-mix", true);
}

#[test]
fn usage_errors_exit_2() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .status()
        .expect("run perfbench");
    assert_eq!(status.code(), Some(2));
}
