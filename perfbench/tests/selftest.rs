//! Self-test of the benchmark: every workload, shrunk, is deterministic
//! per seed in everything that is not a timing, answers correctly, and
//! changes its inputs with the seed.

use alae_perfbench::{run, Report, Settings, WorkloadSpec, WORKLOAD_NAMES};
use std::path::PathBuf;

fn tiny_run(name: &str, seed: u64, trace: bool) -> Report {
    let spec = WorkloadSpec::named(name).expect("known workload").tiny();
    let settings = Settings {
        seed,
        seconds: 0.2,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}")),
    };
    // A fresh thread per run, as in a fresh process: the engine keeps
    // per-thread scratch (the fork arena) whose size `core.arena_bytes`
    // reports.
    let report = std::thread::spawn(move || run(&spec, &settings))
        .join()
        .expect("run does not panic")
        .expect("run completes");
    assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

/// Metrics of a traced run that count work rather than time it.
fn counters(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| {
            (m.name.starts_with("core.")
                && m.unit != "ms"
                && m.unit != "us"
                && m.name != "core.speedup_vs_bwtsw")
                || m.name == "suffix.block_scans_per_node"
                || m.name == "bwtsw.calculated_entries"
                || m.name == "search.hits_per_query"
        })
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn workloads_repeat_exactly_per_seed() {
    for name in WORKLOAD_NAMES {
        let first = tiny_run(name, 7, true);
        let second = tiny_run(name, 7, true);
        assert_eq!(first.input_digest, second.input_digest, "{name}");
        assert_eq!(first.hit_digests, second.hit_digests, "{name}");
        let counted = counters(&first);
        assert!(counted.len() >= 15, "{name}: {counted:?}");
        assert_eq!(counted, counters(&second), "{name}");

        let plain = tiny_run(name, 7, false);
        let again = tiny_run(name, 7, false);
        assert_eq!(plain.hit_digests, first.hit_digests, "{name}");
        let size = plain.metric("index_bytes_per_char").expect("reported");
        assert!(size > 0.0);
        assert_eq!(Some(size), again.metric("index_bytes_per_char"), "{name}");

        let other = tiny_run(name, 8, false);
        assert_ne!(other.input_digest, first.input_digest, "{name}");
    }
}

/// The `name`s listed in `BENCHMARK.json` between the keys `from` and
/// `to` (`to` empty: up to the end of the file).
fn listed_names(from: &str, to: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark's directory");
    let start = json.find(&format!("\"{from}\"")).expect("section present");
    let end = if to.is_empty() {
        json.len()
    } else {
        json.find(&format!("\"{to}\"")).expect("section present")
    };
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed string")].to_string())
        .collect()
}

#[test]
fn every_run_reports_the_listed_metrics() {
    assert_eq!(listed_names("workloads", "end_to_end"), WORKLOAD_NAMES);
    let end_to_end = listed_names("end_to_end", "per_layer");
    let per_layer = listed_names("per_layer", "");
    for name in WORKLOAD_NAMES {
        let plain = tiny_run(name, 3, false);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, end_to_end, "{name}");
        for metric in &plain.metrics {
            assert!(
                metric.value > 0.0,
                "{name}: {} = {}",
                metric.name,
                metric.value
            );
        }
        let traced = tiny_run(name, 3, true);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, per_layer, "{name}");
        assert_eq!(
            traced.metric("suffix.block_scans_per_node"),
            Some(2.0),
            "{name}"
        );
    }
}
