//! Drives the real binary at `--smoke` scale (1/20 of every count, small
//! tables) and holds its output to the declaration in `BENCHMARK.json`:
//! every declared workload and metric appears exactly once with the declared
//! unit, and nothing undeclared appears.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ltpg_ledger::json::Json;
use ltpg_ledger::metrics::{Decl, END_TO_END, PER_LAYER};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declaration() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(section: &Json) -> Vec<String> {
    section
        .items()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// `(name, unit)` of every metric in an object keyed by metric name,
/// failing on a repeated key.
fn reported(metrics: &Json) -> Vec<(String, String)> {
    let mut seen = BTreeSet::new();
    metrics
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(seen.insert(name.clone()), "{name} reported twice");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn declared(section: &Json) -> Vec<(String, String)> {
    section
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_compiled_declarations() {
    let decl = declaration();
    let check = |section: &str, compiled: &[Decl], bounded: bool| {
        let items = decl.get(section).unwrap().items();
        assert_eq!(items.len(), compiled.len(), "{section}: count");
        for (j, d) in items.iter().zip(compiled) {
            assert_eq!(
                j.get("name").and_then(Json::as_str),
                Some(d.name),
                "{section}: order/name"
            );
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}: unit",
                d.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better),
                "{}: better",
                d.name
            );
            if bounded {
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    Some(d.bound),
                    "{}: bound",
                    d.name
                );
            }
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);
    let workloads: Vec<String> = names(decl.get("workloads").unwrap());
    let compiled: Vec<&str> = ltpg_ledger::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, compiled);
    assert_eq!(
        decl.get("run_seconds").and_then(Json::as_f64),
        Some(ltpg_ledger::workloads::RUN_SECONDS)
    );
}

#[test]
fn smoke_run_reports_exactly_the_declared_metrics() {
    let decl = declaration();
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--smoke", "--seed", "7"])
        .output()
        .expect("ledger run --smoke starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger run --smoke failed\n--- stdout\n{stdout}\n--- stderr\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("ledger-smoke-seed7.json");
    let ledger =
        Json::parse(&std::fs::read_to_string(&path).expect("smoke ledger written")).unwrap();
    assert_eq!(
        ledger.get("schema").and_then(Json::as_str),
        Some("ledger/v1")
    );
    assert_eq!(ledger.get("correct").and_then(Json::as_bool), Some(true));

    let workloads = ledger.get("workloads").unwrap();
    let got: Vec<String> = workloads.members().iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(
        got,
        names(decl.get("workloads").unwrap()),
        "workloads, in declared order, once each"
    );
    for (w, body) in workloads.members() {
        assert_eq!(
            reported(body.get("end_to_end").unwrap()),
            declared(decl.get("end_to_end").unwrap()),
            "{w}: end-to-end metrics"
        );
        assert_eq!(
            reported(body.get("per_layer").unwrap()),
            declared(decl.get("per_layer").unwrap()),
            "{w}: per-layer metrics"
        );
        assert_eq!(
            body.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{w}: failed"
        );
        // Every metric is also printed by name with its unit.
        for (name, unit) in declared(decl.get("end_to_end").unwrap()) {
            let printed = stdout
                .lines()
                .filter(|l| {
                    let mut cols = l.split_whitespace();
                    cols.next() == Some(w.as_str()) && cols.next() == Some(name.as_str())
                })
                .collect::<Vec<_>>();
            assert_eq!(printed.len(), 1, "{w} {name} printed once");
            assert!(
                printed[0].contains(&unit),
                "{w} {name} printed with unit {unit}"
            );
        }
    }
}

#[test]
fn single_run_prints_the_contract_line_last() {
    let decl = declaration();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args([
                "--workload",
                "ycsb_contended_engine",
                "--seed",
                "3",
                "--seconds",
                "16",
            ])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("ledger starts");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last =
            Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON");
        let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            reported(last.get("metrics").unwrap()),
            declared(decl.get(section).unwrap())
        );
        for (name, m) in last.get("metrics").unwrap().members() {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
        }
    }
}
