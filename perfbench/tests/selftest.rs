//! Tiny-size self-test: every workload runs at toy sizes, emits every
//! named metric with its unit, and passes every output check; the work
//! counters repeat across runs with the same seed; and `BENCHMARK.json`
//! lists exactly the metrics the benchmark emits.

use std::path::PathBuf;
use uset_perfbench::{per_layer_catalogue, run, Options, Report, Sizes, END_TO_END, WORKLOADS};

fn toy(workload: &str, trace: bool) -> Report {
    let opts = Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.2,
        trace,
        sizes: Sizes::toy(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
        helper_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let per_layer = per_layer_catalogue();
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = toy(w, trace);
            assert!(r.correct(), "{w} trace={trace}: {:?}", r.failures);
            assert!(r.attempted >= 10, "{w}: only {} ops", r.attempted);
            let e2e: Vec<(&str, &str)> = r
                .end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let want: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect();
            assert_eq!(e2e, want, "{w}: end-to-end metrics");
            let layer: Vec<(&str, &str)> = r
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let want: Vec<(&str, &str)> =
                per_layer.iter().map(|(n, u, _)| (n.as_str(), *u)).collect();
            assert_eq!(layer, want, "{w}: per-layer metrics");
            for m in &r.end_to_end {
                assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
            }
            if trace {
                let spans = r.spans.as_deref().unwrap_or("");
                assert!(spans.lines().count() > 0, "{w}: no spans recorded");
                assert!(r.metric("trace.overhead_ratio").unwrap_or(0.0) > 0.0);
            }
        }
    }
}

#[test]
fn work_counters_repeat_across_runs_with_the_same_seed() {
    for w in WORKLOADS {
        let a = toy(w, false);
        let b = toy(w, false);
        assert_eq!(
            a.meta.get("work_digest"),
            b.meta.get("work_digest"),
            "{w}: work counters drifted between runs"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    let mut listed = 0;
    for (name, unit, better) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": "
        );
        assert!(json.contains(&entry), "end-to-end {name}");
        listed += 1;
    }
    for (name, unit, better) in per_layer_catalogue() {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "per-layer {name}");
        listed += 1;
    }
    let workloads = WORKLOADS.len();
    assert_eq!(
        json.matches("\"name\": ").count(),
        listed + workloads,
        "BENCHMARK.json lists a metric the benchmark does not emit"
    );
}
