//! The benchmark's own checks: metric names, the metric set each workload
//! emits against `BENCHMARK.json`, and that a wrong output fails the run.

use perfbench::bench::{run, Expected, Options, Report, Size, Workload};
use rb_simcore::{json, Duration, Json};

/// Small inputs so that every workload runs in well under a second.
const TINY: Size = Size {
    storm_machines: 8,
    storm_run_for: Duration::from_millis(20),
    util_machines: 8,
    util_hours: 0.25,
};

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: TINY,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-spans"),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_name_is_plain() {
    // The runs emit exactly these names: see the next test.
    let names = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .map(|(n, _)| n);
    for name in names {
        assert!(
            valid_name(&name),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&options(workload, trace), Expected::default());
            let what = format!("{} trace={trace}", workload.name());
            assert!(
                report.tally.correct(),
                "{what}: {:?}",
                report.tally.problems
            );
            assert_eq!(emitted(&report), declared(section), "{what}");
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{what}: {:?}",
                report.metrics
            );
            let line = json::parse(&report.json_line()).expect("the result line is JSON");
            let Json::Obj(fields) = &line else {
                panic!("the result line is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(report.spans_file.is_some(), trace, "{what}");
        }
    }
}

#[test]
fn timing_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let report = run(&options(workload, false), Expected::default());
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn a_wrong_storm_output_is_counted_as_failed() {
    let good = run(&options(Workload::Storm, false), Expected::default());
    assert!(good.tally.correct());
    let expected = Expected {
        storm_events: Some(1),
        ..Expected::default()
    };
    let bad = run(&options(Workload::Storm, false), expected);
    assert!(!bad.tally.correct());
    assert!(bad.tally.attempted > 0);
    assert_eq!(bad.tally.failed, bad.tally.attempted);
    assert!(bad.json_line().starts_with("{\"correct\": false,"));
}

#[test]
fn a_wrong_utilization_output_fails_every_job_of_the_repetition() {
    for workload in [Workload::Utilization, Workload::UtilizationObs] {
        let cfg = rb_workloads::utilization::UtilizationConfig {
            machines: TINY.util_machines,
            hours: TINY.util_hours,
            seed: 5,
            ..Default::default()
        };
        let mut reference = perfbench::utilization::SimOutcome::reference(&cfg);
        reference.events += 1;
        let expected = Expected {
            utilization: Some(reference),
            ..Expected::default()
        };
        let bad = run(&options(workload, false), expected);
        assert!(!bad.tally.correct(), "{}", workload.name());
        assert!(bad.tally.attempted > 0);
        assert_eq!(bad.tally.failed, bad.tally.attempted, "{}", workload.name());
    }
}

#[test]
fn bad_usage_exits_2_without_a_result_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
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
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
