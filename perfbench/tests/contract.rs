//! The benchmark's own contract: every workload reports every metric
//! `BENCHMARK.json` declares, checks catch a wrong answer, and the seed
//! changes the inputs but not the metric set. Runs at the tiny scale.

use chronolog_obs::Json;
use perfbench::layers::PER_LAYER;
use perfbench::{run, Options, Outcome, Scale, END_TO_END, WORKLOADS};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: &str, seed: u64, trace: bool, perturb: bool) -> Outcome {
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        perturb,
    };
    run(&opts).expect("the workload runs")
}

fn reported(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn the_code_declares_what_benchmark_json_declares() {
    let names = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&END_TO_END), declared("end_to_end"));
    assert_eq!(names(&PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_emits_each_declared_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = tiny(workload, 7, trace, false);
            assert_eq!(o.failed, 0, "{workload}: {}", o.report.to_compact());
            assert!(o.attempted > 0);
            assert_eq!(reported(&o), declared(section), "{workload} trace={trace}");
            for (name, value, _) in &o.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{workload}: {name} is zero");
                }
            }
            let line = Json::parse(&o.result_line()).expect("result line is JSON");
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn a_perturbed_answer_counts_as_a_failed_operation() {
    for workload in WORKLOADS {
        let o = tiny(workload, 7, false, true);
        assert_eq!(o.failed, 1, "{workload}");
        let line = Json::parse(&o.result_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn changing_the_seed_changes_the_inputs_but_not_the_metric_set() {
    let digest = |o: &Outcome| {
        o.report
            .get("inputs")
            .and_then(|i| i.get("digest"))
            .and_then(Json::as_str)
            .expect("inputs carry a digest")
            .to_string()
    };
    for workload in WORKLOADS {
        let (a, b, again) = (
            tiny(workload, 1, false, false),
            tiny(workload, 2, false, false),
            tiny(workload, 1, false, false),
        );
        assert_ne!(digest(&a), digest(&b), "{workload}");
        assert_eq!(digest(&a), digest(&again), "{workload}");
        assert_eq!(reported(&a), reported(&b), "{workload}");
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    let opts = Options {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
        perturb: false,
    };
    assert!(run(&opts).is_err());
}
