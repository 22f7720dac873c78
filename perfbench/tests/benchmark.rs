//! The benchmark's own tests: every workload passes its output checks
//! at tiny sizes, the conservation check rejects unbalanced books, the
//! host-speed reference model repeats itself, and `BENCHMARK.json`
//! names exactly the metrics the command prints.

use inpg_campaign::json::{self, Json};
use perfbench::calib::{reference_model, Calibrator, REFERENCE_SLICE_S};
use perfbench::cells::NocBalance;
use perfbench::workloads::{Sizes, Workload};
use perfbench::{run, Options, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        sizes: Sizes::tiny(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{}-{trace}", workload.name())),
    }
}

#[test]
fn tiny_runs_pass_every_check() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&tiny(workload, trace)).expect("the run completes");
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                report.failures
            );
            assert!(report.attempted > 0);
            let printed: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let expected: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|(n, _)| *n)
                .collect();
            assert_eq!(printed, expected, "{} trace={trace}", workload.name());
            for (name, _, value) in &report.metrics {
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }
}

#[test]
fn simulated_outputs_repeat_for_one_seed() {
    let a = run(&tiny(Workload::HotLock, false)).expect("first run");
    let b = run(&tiny(Workload::HotLock, false)).expect("second run");
    let pick = |r: &perfbench::Report, name: &str| {
        r.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
            .expect("metric printed")
    };
    for name in ["roi_speedup", "cs_expedition"] {
        assert_eq!(pick(&a, name).to_bits(), pick(&b, name).to_bits(), "{name}");
    }
}

#[test]
fn conservation_check_rejects_unbalanced_books() {
    let balanced = NocBalance {
        injected: 10,
        generated: 4,
        delivered: 11,
        consumed: 3,
        in_flight: 0,
    };
    assert!(balanced.check_drained().is_ok());
    let lost = NocBalance {
        delivered: 10,
        ..balanced
    };
    assert!(
        lost.check_drained().is_err(),
        "a packet that never left must fail"
    );
    let extra = NocBalance {
        consumed: 4,
        ..balanced
    };
    assert!(
        extra.check_drained().is_err(),
        "a packet that left twice must fail"
    );
    let undrained = NocBalance {
        in_flight: 1,
        delivered: 10,
        ..balanced
    };
    assert!(
        undrained.check_drained().is_err(),
        "packets in flight at drain must fail"
    );
}

#[test]
fn reference_model_repeats_and_scales_host_time() {
    assert_eq!(reference_model(500), reference_model(500));
    assert_ne!(reference_model(500), reference_model(501));
    let mut calib = Calibrator::new();
    assert_eq!(calib.slowdown(0.0, 1.0), None, "no slice yet");
    calib.warm_up();
    assert_eq!(calib.slices(), 0, "the warm-up slice is not kept");
    let ns = calib.slice();
    calib.slice();
    assert_eq!(calib.slices(), 2);
    assert!(!calib.mismatch);
    assert!(calib.spent_ns() >= ns);
    let slowdown = calib.slowdown(0.0, calib.now_s()).expect("slices kept");
    assert!(slowdown > 0.0 && slowdown.is_finite());
    assert!(slowdown * REFERENCE_SLICE_S * 1e9 <= calib.spent_ns() as f64);
    assert_eq!(calib.slowdown(1e6, 1e6), None, "no slice in that window");
}

#[test]
fn benchmark_json_matches_the_command() {
    let b = benchmark_json();
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let workloads = names(b.get("workloads").expect("workloads"));
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    let e2e = names(b.get("end_to_end").expect("end_to_end"));
    let layer = names(b.get("per_layer").expect("per_layer"));
    for n in e2e.iter().chain(&layer).chain(&workloads) {
        assert!(valid(n), "`{n}` is not a valid metric or workload name");
    }
    assert_eq!(
        e2e,
        END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        layer,
        PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    for (list, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for entry in b.get(list).and_then(Json::as_arr).expect("metric list") {
            let name = entry.get("name").and_then(Json::as_str).expect("name");
            let unit = entry.get("unit").and_then(Json::as_str).expect("unit");
            let (_, code_unit) = table
                .iter()
                .find(|(n, _)| *n == name)
                .expect("metric known to the command");
            assert_eq!(unit, *code_unit, "unit of {name}");
        }
    }
    let setup = b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    for m in b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        assert!(
            bound(m) > 0.0 && bound(m) <= bound(setup),
            "setup_s carries the largest bound"
        );
    }

    // Every per-layer metric states which end-to-end metric it should move.
    let ledger = std::fs::read_to_string(repo_root().join("perfbench/baseline.json"))
        .expect("baseline.json");
    let ledger = json::parse(&ledger).expect("baseline.json parses");
    let predicted: Vec<&str> = ledger
        .get("predictions")
        .and_then(Json::as_arr)
        .expect("predictions")
        .iter()
        .map(|p| {
            p.get("per_layer")
                .and_then(Json::as_str)
                .expect("per_layer")
        })
        .collect();
    for n in &layer {
        assert!(predicted.contains(&n.as_str()), "no prediction for {n}");
    }
}

#[test]
fn the_command_prints_every_named_metric() {
    let b = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(repo_root())
            .args([
                "--workload",
                "parsec_qsl",
                "--seed",
                "5",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--tiny",
            ])
            .output()
            .expect("the command runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = json::parse(stdout.lines().last().expect("a result line"))
            .expect("the result line is JSON");
        let Json::Obj(top) = &last else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics is an object")
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, names(b.get(list).expect("metric list")));
        for (name, m) in metrics {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a numeric value"
            );
            assert!(
                stdout.contains(&format!("metric {name} ")),
                "{name} is printed as a line too"
            );
        }
    }
}

#[test]
fn usage_errors_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
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
        .expect("the command runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
