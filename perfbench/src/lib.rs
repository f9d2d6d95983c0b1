//! End-to-end and per-layer benchmark of the SecureLoop scheduling
//! engine. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.
//!
//! One process runs one workload: the fault plan, the telemetry
//! registry and the shutdown flag are process-global, so nothing else
//! may share the process. No `FaultPlan` is ever armed.

pub mod gate;
pub mod gen;
pub mod ops;
pub mod stats;
pub mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use secureloop::artifact::{self, DurabilityPolicy};
use secureloop::{LayerOutcome, SweepCheckpoint};
use secureloop_telemetry as telemetry;

use crate::gen::{OpSpec, OpStream, Rng, NETWORKS};
use crate::ops::{Bench, Budget, Modelled, OpResult, Workload};
use crate::stats::{median, percentile, Metric};
use crate::trace::{ArtifactProbe, Delta, Tracer};

/// Salt of the warm-up ops' stream, so they never coincide with the
/// measured ops.
const WARMUP_SALT: u64 = 0x7761_726d_7570;
/// Salt of the gate's sampling stream.
const GATE_SALT: u64 = 0x6761_7465;
/// Least share of op time the traced stages must account for.
const MIN_STAGE_COVERAGE: f64 = 0.95;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: it fixes every op's inputs.
    pub seed: u64,
    /// The untraced run issues whole op lists until this many seconds
    /// have passed.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Budgets and run sizes.
    pub budget: Budget,
    /// Where state directories and the trace file go.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// No op failed and every check passed.
    pub correct: bool,
    /// Ops issued (and checked).
    pub attempted: usize,
    /// Ops that failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: the drawn op list, failures, counts.
    pub log: Vec<String>,
}

fn check(bench: &Bench, op: &OpSpec, result: &OpResult, rng: &mut Rng) -> Vec<String> {
    if let Some(e) = &result.error {
        return vec![format!("returned Err: {e}")];
    }
    let mut errors = Vec::new();
    if let Some(sweep) = &result.sweep {
        for (label, why) in sweep.skipped.iter().chain(&sweep.poisoned) {
            errors.push(format!("design {label} skipped or poisoned: {why}"));
        }
        if sweep.degraded_persistence {
            errors.push("degraded_persistence is set".into());
        }
        if sweep.interrupted || sweep.results.len() != op.designs.len() {
            errors.push(format!(
                "{} of {} designs evaluated",
                sweep.results.len(),
                op.designs.len()
            ));
        }
        let dir = result
            .state_dir
            .as_ref()
            .expect("sweep ops have a state dir");
        match SweepCheckpoint::load_recovering(&dir.join("sweep.json")) {
            Ok(rec) if !rec.warnings.is_empty() => {
                errors.push(format!(
                    "checkpoint reloads with warnings: {:?}",
                    rec.warnings
                ));
            }
            Ok(rec) if rec.value.len() != op.designs.len() => {
                errors.push(format!("checkpoint holds {} designs", rec.value.len()));
            }
            Ok(_) => {}
            Err(e) => errors.push(format!("checkpoint does not reload: {e}")),
        }
    }
    let net = bench.network(op.network);
    for (d, s) in &result.schedules {
        errors.extend(gate::check_schedule(net, &bench.grid[*d], s, rng));
    }
    errors
}

/// Remove a sweep op's state directory once it has been checked.
fn discard(result: &OpResult) {
    if let Some(dir) = &result.state_dir {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Re-save an op's checkpoint with `artifact::write_durable` and reload
/// it with `SweepCheckpoint::load_recovering`, timing both.
fn artifact_probe(result: &OpResult) -> Result<ArtifactProbe, String> {
    let dir = result
        .state_dir
        .as_ref()
        .expect("sweep ops have a state dir");
    let path = dir.join("sweep.json");
    let ckpt = SweepCheckpoint::load_recovering(&path)
        .map_err(|e| format!("checkpoint does not reload: {e}"))?
        .value;
    let payload = ckpt.to_json().pretty();
    let t0 = Instant::now();
    artifact::write_durable(&path, &payload, &DurabilityPolicy::full())
        .map_err(|e| format!("checkpoint re-save failed: {e}"))?;
    let t1 = Instant::now();
    SweepCheckpoint::load_recovering(&path).map_err(|e| format!("re-saved checkpoint: {e}"))?;
    let t2 = Instant::now();
    Ok(ArtifactProbe {
        write: t1 - t0,
        load: t2 - t1,
        bytes: artifact::seal(&payload).len() as u64,
    })
}

/// The process's peak resident set, MiB, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The modelled totals of the fixed op list of `seed`: what an untraced
/// run sums into its `sim_*` and `auth_overhead_bits` metrics.
///
/// # Errors
///
/// When the state directory cannot be created or an op returns `Err`.
pub fn modelled(
    workload: Workload,
    budget: Budget,
    seed: u64,
    state_root: &Path,
) -> Result<Modelled, String> {
    telemetry::set_enabled(false);
    let bench = Bench::new(workload, budget, state_root)?;
    let mut total = Modelled::default();
    for op in bench.stream(seed).take(budget.ops()) {
        let result = bench.run(&op, "model");
        discard(&result);
        if let Some(e) = result.error {
            return Err(format!("op {}: {e}", op.id));
        }
        total.add(&result);
    }
    let _ = fs::remove_dir_all(state_root);
    Ok(total)
}

/// One op's log line: its drawn inputs, host time, modelled results and
/// any layer that was not scheduled at full quality.
fn op_line(bench: &Bench, op: &OpSpec, result: &OpResult) -> String {
    let mut line = format!(
        "op {} {} {} seed={} ms={:.3}",
        op.id,
        op.network,
        bench.design_labels(op),
        op.seed,
        result.duration().as_secs_f64() * 1.0e3
    );
    for (d, s) in &result.schedules {
        let arch = bench.grid[*d].name();
        line += &format!(
            " [{arch} cycles={} pj={} auth_bits={}]",
            s.total_latency_cycles,
            s.total_energy_pj,
            s.overhead.total_bits()
        );
        for (layer, outcome) in &s.outcomes {
            if !matches!(outcome, LayerOutcome::Scheduled) {
                line += &format!(" [{arch} {layer} {}]", outcome.label());
            }
        }
    }
    line
}

/// Run one workload.
///
/// The untraced run issues ops from one client in a closed loop with
/// telemetry off: the fixed op list, then as many further lists of the
/// same length as it takes to fill `seconds`. The traced run instead issues
/// `trace_rounds` rounds twice, untraced and then traced, so the
/// tracing overhead compares identical ops.
///
/// # Errors
///
/// Set-up failures, a traced run whose stages cover less than 95% of op
/// time, and metrics that cannot be computed.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    telemetry::set_enabled(false);
    let b = cfg.budget;
    let state_root = cfg.out_dir.join(format!(
        "state-{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let mut log = Vec::new();

    // Set-up: inputs, state directory and one warm-up op, several times.
    let warmups =
        OpStream::new(cfg.seed ^ WARMUP_SALT, b.designs_per_op(cfg.workload)).take(b.setups);
    let mut setup_s = Vec::with_capacity(b.setups);
    let mut bench = None;
    for warm in &warmups {
        let t0 = Instant::now();
        let fresh = Bench::new(cfg.workload, b, &state_root)?;
        let result = fresh.run(warm, "warmup");
        setup_s.push(t0.elapsed().as_secs_f64());
        discard(&result);
        bench = Some(fresh);
    }
    let bench = bench.ok_or("budget has no set-ups")?;

    let mut stream = bench.stream(cfg.seed);
    let mut gate_rng = Rng::new(cfg.seed ^ GATE_SALT);
    let mut ops: Vec<OpSpec> = Vec::new();
    let mut op_s: Vec<f64> = Vec::new();
    let mut modelled = Modelled::default();
    let (mut failed, mut degraded_layers, mut failed_layers) = (0, 0, 0);
    let min_ops = if cfg.trace {
        b.trace_rounds * NETWORKS.len()
    } else {
        b.ops()
    };
    let loop_start = Instant::now();
    while !ops.len().is_multiple_of(min_ops)
        || ops.is_empty()
        || (!cfg.trace && loop_start.elapsed().as_secs_f64() < cfg.seconds)
    {
        let op = stream.next_op();
        let result = bench.run(&op, "run");
        let errors = check(&bench, &op, &result, &mut gate_rng);
        if ops.len() < b.ops() {
            modelled.add(&result);
        }
        for (_, s) in &result.schedules {
            degraded_layers += s.degraded_count();
            failed_layers += s.failed_count();
        }
        log.push(op_line(&bench, &op, &result));
        if !errors.is_empty() {
            failed += 1;
            log.push(format!("op {} FAILED: {}", op.id, errors.join("; ")));
        }
        discard(&result);
        op_s.push(result.duration().as_secs_f64());
        ops.push(op);
    }
    log.push(format!(
        "ops timed: {}; modelled metrics summed over ops 0..{}; \
         layers degraded: {degraded_layers}, failed: {failed_layers}",
        ops.len(),
        b.ops().min(ops.len())
    ));
    let ops_per_s = ops.len() as f64 / op_s.iter().sum::<f64>();

    let mut attempted = ops.len();
    let metrics = if cfg.trace {
        telemetry::reset();
        telemetry::set_enabled(true);
        let mut tracer = Tracer::new();
        let mut traced_s = 0.0;
        for op in &ops {
            let before = telemetry::snapshot();
            let result = bench.run(op, "traced");
            let delta = Delta::between(&before, &telemetry::snapshot());
            tracer.record(op.id, &result, delta);
            traced_s += result.duration().as_secs_f64();
            let errors = check(&bench, op, &result, &mut gate_rng);
            if result.state_dir.is_some() && result.error.is_none() {
                let start = Instant::now();
                tracer.record_probe(op.id, start, artifact_probe(&result)?);
            }
            if !errors.is_empty() {
                failed += 1;
                log.push(format!("traced op {} FAILED: {}", op.id, errors.join("; ")));
            }
            discard(&result);
        }
        telemetry::set_enabled(false);
        attempted += ops.len();
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        log.push(format!("trace written to {}", path.display()));
        if tracer.stage_coverage() < MIN_STAGE_COVERAGE {
            return Err(format!(
                "traced stages cover {:.1}% of op time, below {:.0}%",
                tracer.stage_coverage() * 100.0,
                MIN_STAGE_COVERAGE * 100.0
            ));
        }
        let traced_ops_per_s = ops.len() as f64 / traced_s;
        tracer.layer_metrics(cfg.workload, b.workers, ops_per_s / traced_ops_per_s)
    } else {
        let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1.0e3).collect();
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("ops_per_s", ops_per_s, "1/s"),
            Metric::new("op_ms_p50", percentile(&op_ms, 0.50)?, "ms"),
            Metric::new("op_ms_p75", percentile(&op_ms, 0.75)?, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
            Metric::new("sim_latency_cycles", modelled.latency_cycles, "cycles"),
            Metric::new("sim_energy_uj", modelled.energy_uj, "uJ"),
            Metric::new("auth_overhead_bits", modelled.auth_bits, "bits"),
        ]
    };
    let _ = fs::remove_dir_all(&state_root);
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        log,
    })
}
