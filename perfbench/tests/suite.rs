//! The suite at `--quick` scale, end to end: every workload runs
//! clean, untraced and traced, emits exactly the metrics
//! `BENCHMARK.json` lists, and responds to the seed.

use std::path::PathBuf;

use perfbench::gen::Scale;
use perfbench::output::Outcome;
use perfbench::registry::{is_valid_name, Workload, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Options};
use turnroute_experiment::json::{self, Value};

fn quick(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    // A traced serve_mix run alternates untraced and traced blocks, so
    // it needs two; everything else makes do with one repetition.
    let reps = if trace { 2 } else { 1 };
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-{seed}-{trace}-{tag}", workload.name()));
    workloads::run(&Options {
        workload,
        seed,
        seconds: 1.0,
        reps: Some(reps),
        trace,
        scale: Scale::Quick,
        out_dir,
    })
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn names_of(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' array"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn emitted_names(outcome: &Outcome) -> Vec<String> {
    let line = json::parse(&outcome.render_result_line()).expect("the result line is JSON");
    line.get("metrics")
        .and_then(Value::as_obj)
        .expect("the result line has metrics")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_registry_defines() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for (entry, w) in doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(Workload::ALL)
    {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name()));
        assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why()));
    }
    assert_eq!(names_of(&doc, "workloads").len(), Workload::ALL.len());

    let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
        assert_eq!(
            entry.get("bound").unwrap().as_f64(),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
    }
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names_of(&doc, key) {
            assert!(is_valid_name(&name), "{name}");
        }
    }
    // The command names nothing outside the benchmark's own directory.
    let paths = doc.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("perfbench"));
    for part in doc.get("command").unwrap().as_arr().unwrap() {
        let part = part.as_str().unwrap();
        assert!(!part.starts_with('/') && !part.contains(".."), "{part}");
    }
}

#[test]
fn every_workload_runs_clean_and_emits_every_end_to_end_metric() {
    let expected = names_of(&benchmark_json(), "end_to_end");
    for workload in Workload::ALL {
        let outcome = quick(workload, 1, false, "e2e");
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.attempted >= 1);
        assert!(outcome.correct(), "{}", outcome.render_human());
        assert_eq!(emitted_names(&outcome), expected, "{}", workload.name());
    }
}

#[test]
fn every_workload_traces_clean_and_emits_every_layer_metric() {
    let expected = names_of(&benchmark_json(), "per_layer");
    for workload in Workload::ALL {
        let outcome = quick(workload, 1, true, "layers");
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.correct(), "{}", outcome.render_human());
        assert_eq!(emitted_names(&outcome), expected, "{}", workload.name());

        // The layers a workload reaches read nonzero; the ones it
        // bypasses read zero.
        let value = |name: &str| outcome.metrics.get(name).unwrap().value;
        assert!(value("core.route_ns") > 0.0 && value("host.calib_ns") > 0.0);
        assert_eq!(
            value("engine.header_hops") > 0.0,
            !matches!(workload, Workload::VcGrid | Workload::ServeMix),
            "{}",
            workload.name()
        );
        assert_eq!(
            value("serve.store_hits") > 0.0,
            workload == Workload::ServeMix
        );
        assert_eq!(value("vc.step_ns_p50") > 0.0, workload == Workload::VcGrid);
        assert_eq!(value("shard.count") > 0.0, workload == Workload::Mesh64);
        assert_eq!(
            value("paper.gap_transpose") > 0.0,
            workload == Workload::Sweep16
        );

        // The trace file is a Chrome trace with spans in it.
        let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-1-true-layers", workload.name()))
            .join(format!("{}.trace.json", workload.name()));
        let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }
}

#[test]
fn the_seed_reaches_the_generated_inputs() {
    for workload in Workload::ALL {
        // (That one seed repeats its digest is checked inside every run:
        // each repetition is held to the warm-up's bytes.)
        let a = quick(workload, 1, false, "seed-a");
        let b = quick(workload, 2, false, "seed-b");
        assert_ne!(a.report_fnv, b.report_fnv, "{}", workload.name());
        assert_eq!((a.failed, b.failed), (0, 0), "{}", workload.name());
    }
}
