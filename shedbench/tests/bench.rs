//! The benchmark's own checks, at a tiny input size.

use shedbench::json::{self, Json};
use shedbench::metrics::{self, Args, MetricDef};
use shedbench::run;
use shedbench::verify::verify;
use shedbench::workload::{Input, Workload};

/// Bins for the tiny runs; `tenant-churn` needs one past its first
/// checkpoint (bin 120) so the restore check has something to restore.
fn tiny_bins(workload: Workload) -> usize {
    if workload == Workload::TenantChurn {
        125
    } else {
        12
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn assert_lists(spec: &Json, key: &str, catalogue: &[MetricDef]) {
    let listed = spec.get(key).and_then(Json::as_array).expect("metric list");
    let names: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    let expected: Vec<(&str, &str, &str)> =
        catalogue.iter().map(|d| (d.name.as_str(), d.unit, d.better)).collect();
    assert_eq!(names, expected, "BENCHMARK.json {key} must list the emitted metrics");
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_program_emits() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let known: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    assert_lists(&spec, "end_to_end", &metrics::end_to_end());
    assert_lists(&spec, "per_layer", &metrics::per_layer());
}

#[test]
fn every_named_metric_is_emitted_with_its_unit_and_the_result_parses() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args =
                Args { workload, seed: 7, seconds: 0.001, trace, bins: Some(tiny_bins(workload)) };
            let outcome = metrics::run(&args).expect("the benchmark runs");
            assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.problems);

            let result = json::parse(&metrics::result_line(&outcome)).expect("result line parses");
            let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(result.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));

            let catalogue = if trace { metrics::per_layer() } else { metrics::end_to_end() };
            let emitted = result.get("metrics").and_then(Json::as_object).expect("metrics");
            assert_eq!(emitted.len(), catalogue.len());
            for def in &catalogue {
                let metric =
                    emitted.get(&def.name).unwrap_or_else(|| panic!("{} missing", def.name));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{} = {value:?}", def.name);
            }

            let provenance = json::parse(&metrics::provenance_line(&outcome)).expect("parses");
            let provenance = provenance.get("provenance").expect("provenance");
            assert_eq!(provenance.get("workload").and_then(Json::as_str), Some(workload.name()));
            assert_eq!(provenance.get("trace"), Some(&Json::Bool(trace)));
            for key in ["seed", "bins_per_pass", "nproc", "rustc", "commit", "loop", "samples"] {
                assert!(provenance.get(key).is_some(), "provenance lacks {key}");
            }
        }
    }
}

#[test]
fn the_digest_check_fails_on_a_wrong_expected_digest() {
    let workload = Workload::HeaderFlood;
    let input = Input::generate(workload, 3, 12).expect("input");
    let verification = verify(&input).expect("verification pass");
    let pass = run::pass(&input, None).expect("timed pass");
    assert!(metrics::check(workload, &verification.digest, std::slice::from_ref(&pass)).is_empty());

    let mut wrong = verification.digest;
    wrong.records ^= 1;
    let problems = metrics::check(workload, &wrong, &[pass]);
    assert_eq!(problems.len(), 1);
    assert!(problems[0].contains("differs from the verification pass"), "{problems:?}");
}

#[test]
fn tenant_churn_restores_onto_the_uninterrupted_digest() {
    let workload = Workload::TenantChurn;
    let input = Input::generate(workload, 5, tiny_bins(workload)).expect("input");
    let verification = verify(&input).expect("verification pass");
    let pass = run::pass(&input, None).expect("timed pass");
    assert_eq!(pass.failed, 0);
    assert_eq!(pass.digest, verification.digest);
    assert_eq!(pass.restored, Some(pass.digest));
    assert!(metrics::check(workload, &verification.digest, std::slice::from_ref(&pass)).is_empty());

    // A restore that lands anywhere else, or never happens, fails the run.
    let mut diverged = pass.clone();
    if let Some(restored) = &mut diverged.restored {
        restored.intervals ^= 1;
    }
    assert_eq!(metrics::check(workload, &verification.digest, &[diverged]).len(), 1);
    let mut unrestored = pass;
    unrestored.restored = None;
    assert_eq!(metrics::check(workload, &verification.digest, &[unrestored]).len(), 1);
}
