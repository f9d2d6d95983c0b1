//! The benchmark's own tests: metric names, units and determinism, on
//! tiny budgets. Run with `cargo test --release` from this directory.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::ops::{Budget, Workload};
use perfbench::stats::valid_name;
use perfbench::{modelled, run, RunConfig};
use secureloop_json::Json;

/// Runs share process-global telemetry state: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metric_names_are_valid() {
    for section in ["end_to_end", "per_layer"] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for (name, _) in metrics {
            assert!(valid_name(&name), "{section} metric {name:?}");
        }
    }
}

#[test]
fn smoke_run_emits_every_declared_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunConfig {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
                budget: Budget::tiny(2, 2),
                out_dir: out_dir("smoke"),
            };
            let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                emitted,
                declared(section),
                "{} trace={trace}",
                workload.name()
            );
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.log);
            if !trace {
                assert!(report.attempted >= 40);
            }
        }
    }
}

#[test]
fn modelled_metrics_repeat_across_invocations_threads_and_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let totals: Vec<_> = [(1, 1), (1, 1), (2, 2)]
            .into_iter()
            .map(|(threads, workers)| {
                let budget = Budget {
                    rounds: 1,
                    ..Budget::tiny(threads, workers)
                };
                modelled(workload, budget, 17, &out_dir("determinism")).expect("modelled")
            })
            .collect();
        assert!(totals[0].latency_cycles > 0.0);
        for t in &totals[1..] {
            assert_eq!(*t, totals[0], "{}", workload.name());
        }
    }
}
