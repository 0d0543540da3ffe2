//! Drives the `bench` binary end to end under `--quick`: all four workloads
//! plus traced runs, in well under 30 s, and validates what it emits against
//! `BENCHMARK.json`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 4] = [
    "county_road",
    "million_free",
    "rural_uplink",
    "downtown_snnn",
];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .arg("--out-dir")
        .arg(dir)
        .output()
        .expect("the bench binary starts")
}

fn read(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn contract() -> Json {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// The last line of standard output, checked to be the contract's object:
/// exactly `correct`, `attempted`, `failed`, `metrics`, and in `metrics`
/// exactly the wanted names, each a finite number with a unit.
fn result_line(out: &Output, wanted: &[String]) -> Json {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
    let attempted = line.get("attempted").unwrap().as_f64().unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, wanted.iter().map(String::as_str).collect::<Vec<_>>());
    for (name, m) in metrics {
        assert!(json::valid_name(name));
        let fields: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{name}");
        assert!(
            m.get("value").unwrap().as_f64().unwrap().is_finite(),
            "{name}"
        );
    }
    line
}

#[test]
fn run_all_prints_and_stores_every_end_to_end_metric() {
    let dir = scratch("run-all");
    let file = dir.join("run.json");
    let out = bench(
        &dir,
        &[
            "run",
            "--workload",
            "all",
            "--quick",
            "--reps",
            "1",
            "--out",
            file.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = read(&file);
    let env = doc.get("env").unwrap();
    for key in ["nproc", "rustc", "git_commit", "seed", "reps", "quick"] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    let stored = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS);
    let mut wanted = names(contract().get("end_to_end").unwrap());
    wanted.push("error_rate".to_string());
    for w in stored {
        let name = w.get("name").unwrap().as_str().unwrap();
        assert!(stdout.contains(name));
        assert_eq!(w.get("correct").unwrap().as_bool(), Some(true), "{name}");
        assert_eq!(w.get("ops_failed").unwrap().as_f64(), Some(0.0), "{name}");
        assert!(w.get("ops_total").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = w.get("metrics").unwrap();
        for metric in &wanted {
            let m = metrics
                .get(metric)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
            assert!(!m.get("unit").unwrap().as_str().unwrap().is_empty());
            assert!(stdout.contains(metric.as_str()));
        }
        assert_eq!(
            metrics
                .get("error_rate")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        let wall = metrics.get("run_wall_s").unwrap();
        assert_eq!(wall.get("samples").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(wall.get("n").unwrap().as_f64(), Some(1.0));
        for count in [
            "queries",
            "server",
            "snnn_rounds",
            "grid_cell_moves",
            "einn_accesses",
        ] {
            assert!(
                w.get("counts").unwrap().get(count).is_some(),
                "{name} lacks {count}"
            );
        }
    }
    // A file compared with itself: no row moves (a row whose own samples
    // spread wider than its bound is unresolved), counts identical.
    let same = bench(
        &dir,
        &["compare", file.to_str().unwrap(), file.to_str().unwrap()],
    );
    assert!(same.status.success());
    let table = String::from_utf8(same.stdout).unwrap();
    assert_eq!(
        table.matches("unchanged").count() + table.matches("unresolved").count(),
        40
    );
    assert!(!table.contains("regressed") && !table.contains("improved"));
    assert!(table.contains("exact simulated counts: identical"));
}

#[test]
fn trace_emits_layer_metrics_and_a_span_file() {
    let dir = scratch("trace");
    let wanted = names(contract().get("per_layer").unwrap());
    for workload in ["rural_uplink", "downtown_snnn"] {
        let file = dir.join(format!("{workload}.json"));
        let out = bench(
            &dir,
            &[
                "trace",
                "--workload",
                workload,
                "--quick",
                "--out",
                file.to_str().unwrap(),
            ],
        );
        assert!(
            out.status.success(),
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stored = &read(&file).get("workloads").unwrap().as_arr().unwrap()[0].clone();
        let metrics = stored.get("metrics").unwrap();
        for name in &wanted {
            assert!(metrics.get(name).is_some(), "{workload} lacks {name}");
        }
        // Present where the layer is exercised, absent where it is bypassed.
        let uplink = workload == "rural_uplink";
        assert_eq!(
            metrics.get("transport.roundtrip_sharded_ns").is_some(),
            uplink
        );
        assert_eq!(metrics.get("sim.exec_blocking_ref_s").is_some(), uplink);
        assert_eq!(metrics.get("server.rtree_submit_ns").is_some(), !uplink);
        assert_eq!(metrics.get("snnn.query_ns").is_some(), !uplink);
        assert_eq!(metrics.get("network.ch_build_ms").is_some(), !uplink);
        assert!(metrics.get("mobility.road_step_ns").is_some());
        assert!(metrics.get("mobility.waypoint_step_ns").is_none());
        let overhead = metrics
            .get("trace.overhead_frac")
            .unwrap()
            .get("value")
            .unwrap();
        assert!(overhead.as_f64().unwrap() < 0.05);

        let spans = std::fs::read_to_string(dir.join(format!("trace-{workload}.jsonl"))).unwrap();
        let spans: Vec<Json> = spans.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(
            spans.len() as f64,
            metrics
                .get("trace.spans")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        );
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("root"));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some(workload));
        for (i, s) in spans.iter().enumerate() {
            let keys: Vec<&str> = s
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["id", "parent", "name", "start_ns", "end_ns", "calls"]
            );
            assert_eq!(s.get("id").unwrap().as_f64(), Some(i as f64));
            let (start, end) = (
                s.get("start_ns").unwrap().as_f64().unwrap(),
                s.get("end_ns").unwrap().as_f64().unwrap(),
            );
            assert!(start <= end);
            assert!(s.get("calls").unwrap().as_f64().unwrap() <= 1024.0);
            if let Some(parent) = s.get("parent").unwrap().as_f64() {
                assert!(parent < i as f64, "a span opens after its parent");
            }
        }
    }
}

#[test]
fn the_benchmark_json_form_prints_the_contract_line() {
    let dir = scratch("contract");
    let contract = contract();
    let end_to_end = names(contract.get("end_to_end").unwrap());
    let per_layer = names(contract.get("per_layer").unwrap());
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in names(contract.get("workloads").unwrap()) {
        let args = [
            "--workload",
            &workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--quick",
        ];
        let line = result_line(
            &bench(&dir, &[&args[..], &["--trace", "0"]].concat()),
            &end_to_end,
        );
        for (name, m) in line.get("metrics").unwrap().as_obj().unwrap() {
            assert!(
                m.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{workload} {name} is 0"
            );
        }
    }
    let args = [
        "--workload",
        "million_free",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--quick",
    ];
    result_line(
        &bench(&dir, &[&args[..], &["--trace", "1"]].concat()),
        &per_layer,
    );
    result_line(
        &bench(
            &dir,
            &[
                "--workload",
                "county_road",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--quick",
                "--trace",
                "1",
            ],
        ),
        &per_layer,
    );
}

#[test]
fn bad_arguments_are_explained_not_panicked_on() {
    let dir = scratch("args");
    for args in [
        &["run", "--workload", "nowhere"][..],
        &["run", "--workload", "county_road", "--reps", "many"],
        &["run", "--workload", "county_road", "--reps", "0"],
        &["run"],
        &["trace", "--workload", "all"],
        &["frobnicate"],
        &["compare", "only-one.json"],
        &["compare", "missing-a.json", "missing-b.json"],
        &["--workload", "county_road", "--trace", "2"],
        &["--workload", "county_road", "--seconds", "-1"],
        &["run", "--workload", "county_road", "--bogus", "1"],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("bench: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let help = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(help.status.success());
    let text = String::from_utf8(help.stdout).unwrap();
    for word in ["run", "trace", "aa", "compare", "--seconds"]
        .into_iter()
        .chain(WORKLOADS)
    {
        assert!(text.contains(word), "--help lacks {word}");
    }
}
