//! End-to-end telemetry: the CLI with `--trace-out` must emit a
//! parseable JSON-Lines trace covering every pipeline phase, and the
//! `--json` report must carry the telemetry summary that explains the
//! search effort behind the result.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;

use secureloop::cli;
use secureloop_json::Json;

/// Telemetry counters and the trace sink are process-global, so the
/// tests in this file must not interleave.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn tmp_trace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secureloop-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Parse a JSON-Lines trace and return the set of phases seen,
/// asserting every line is a well-formed event on the way.
fn phases_of(path: &PathBuf) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    let mut phases = BTreeSet::new();
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        lines += 1;
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line: {e}\n{line}"));
        let event = v["event"].as_str().expect("event field");
        let phase = v["phase"].as_str().expect("phase field");
        if event == "span" {
            assert!(v["name"].as_str().is_some(), "span without name: {line}");
            assert!(v["us"].as_u64().is_some(), "span without us: {line}");
        }
        phases.insert(phase.to_string());
    }
    assert!(lines > 0, "trace is empty");
    phases
}

#[test]
fn schedule_trace_covers_mapper_authblock_anneal_scheduler() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let trace = tmp_trace("schedule.jsonl");
    let out = cli::run(&argv(&format!(
        "schedule --workload alexnet --samples 300 --iterations 20 --json \
         --trace-out {}",
        trace.display()
    )))
    .expect("schedule succeeds");

    let phases = phases_of(&trace);
    for phase in ["mapper", "authblock", "anneal", "scheduler"] {
        assert!(phases.contains(phase), "missing phase {phase}: {phases:?}");
    }
    // Every optimiser span says whether the candidate budget thinned
    // its search, and prices at most the candidates it considered.
    let text = std::fs::read_to_string(&trace).expect("trace file exists");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).expect("trace line parses");
        if v["phase"].as_str() == Some("authblock") && v["event"].as_str() == Some("span") {
            assert!(v["thinned"].as_bool().is_some(), "no thinned flag: {line}");
            let priced = v["priced"].as_u64().expect("priced count");
            let candidates = v["candidates"].as_u64().expect("candidate count");
            assert!(priced <= candidates, "priced more than considered: {line}");
        }
    }

    // The JSON report carries the telemetry summary.
    let v = Json::parse(&out).expect("report parses");
    let t = &v["telemetry"];
    assert!(t["mapper"]["samples_evaluated"].as_u64().unwrap() > 0);
    assert!(t["mapper"]["searches"].as_u64().unwrap() > 0);
    assert!(t["mapper"]["tiers"].as_object().is_some());
    assert!(t["mapper"]["rejects"].as_object().is_some());
    assert!(t["authblock"]["optimize_runs"].as_u64().unwrap() > 0);
    assert!(t["annealing"]["proposals"].as_u64().unwrap() > 0);
    let rate = t["annealing"]["acceptance_rate"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&rate), "acceptance rate {rate}");
    assert_eq!(
        t["annealing"]["acceptance_by_quartile"]
            .as_array()
            .unwrap()
            .len(),
        4
    );
    // A plain schedule never touches the DSE sweep.
    assert_eq!(t["dse"]["designs_evaluated"].as_u64(), Some(0));

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn dse_trace_adds_the_dse_phase() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let trace = tmp_trace("dse.jsonl");
    cli::run(&argv(&format!(
        "dse --workload alexnet --samples 60 --iterations 5 --trace-out {}",
        trace.display()
    )))
    .expect("dse succeeds");

    let phases = phases_of(&trace);
    for phase in ["mapper", "authblock", "anneal", "scheduler", "dse"] {
        assert!(phases.contains(phase), "missing phase {phase}: {phases:?}");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_out_to_unwritable_path_is_a_usage_error() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let e = cli::run(&argv(
        "schedule --workload alexnet --samples 50 \
         --trace-out /nonexistent-dir/trace.jsonl",
    ))
    .expect_err("cannot create the file");
    assert!(e.to_string().contains("trace"), "{e}");
}
