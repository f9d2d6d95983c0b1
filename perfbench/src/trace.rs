//! The traced run: spans kept in memory around the benchmark's library
//! calls, per-op deltas of the program's own telemetry for the layers
//! only reached from inside those calls, and the per-layer metrics
//! derived from both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use secureloop_telemetry::Snapshot;

use crate::ops::{OpResult, Workload};
use crate::stats::{ratio, Metric};

/// One span: a layer boundary crossed by one op.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
}

/// Telemetry counters and timer totals accrued during one op.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Counter increments by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Timer `(observations, total ns)` increments by name.
    pub timers: BTreeMap<&'static str, (u64, u64)>,
}

impl Delta {
    /// What accrued between two snapshots.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        let mut d = Delta::default();
        for c in &after.counters {
            let v = c.value - before.counter(c.name);
            if v > 0 {
                d.counters.insert(c.name, v);
            }
        }
        for t in &after.timers {
            let (n0, ns0) = before
                .timer(t.name)
                .map_or((0, 0), |b| (b.count, b.total_ns));
            if t.count > n0 {
                d.timers.insert(t.name, (t.count - n0, t.total_ns - ns0));
            }
        }
        d
    }

    /// A counter's increment.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A timer's accrued total, ms.
    pub fn timer_ms(&self, name: &str) -> f64 {
        self.timers
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1.0e6)
    }

    /// A timer's observation count.
    pub fn timer_count(&self, name: &str) -> f64 {
        self.timers.get(name).map_or(0.0, |&(n, _)| n as f64)
    }

    fn add(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, (n, ns)) in &other.timers {
            let e = self.timers.entry(k).or_default();
            e.0 += n;
            e.1 += ns;
        }
    }
}

/// Time the benchmark spent in its own artifact probe of one sweep op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArtifactProbe {
    /// `artifact::write_durable` of the op's checkpoint.
    pub write: Duration,
    /// `SweepCheckpoint::load_recovering` of it.
    pub load: Duration,
    /// Bytes of the sealed checkpoint written.
    pub bytes: u64,
}

/// Spans and deltas of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: Vec<(usize, Delta)>,
    totals: Delta,
    op_ms: f64,
    stage_ms: f64,
    mapper_ms: f64,
    scheduler_ms: f64,
    sweep_ms: f64,
    probe: ArtifactProbe,
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            totals: Delta::default(),
            op_ms: 0.0,
            stage_ms: 0.0,
            mapper_ms: 0.0,
            scheduler_ms: 0.0,
            sweep_ms: 0.0,
            probe: ArtifactProbe::default(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        (t - self.epoch).as_secs_f64() * 1.0e6
    }

    /// Record one op: its span, one child span per library call, and the
    /// telemetry that accrued inside it.
    pub fn record(&mut self, op: usize, result: &OpResult, delta: Delta) {
        let root = self.spans.len();
        self.spans.push(Span {
            name: "op",
            start_us: self.us(result.start),
            end_us: self.us(result.end),
            parent: None,
            op,
        });
        for s in &result.stages {
            let ms = s.duration().as_secs_f64() * 1.0e3;
            self.stage_ms += ms;
            match s.name {
                "mapper" => self.mapper_ms += ms,
                "scheduler" => self.scheduler_ms += ms,
                _ => self.sweep_ms += ms,
            }
            self.spans.push(Span {
                name: s.name,
                start_us: self.us(s.start),
                end_us: self.us(s.end),
                parent: Some(root),
                op,
            });
        }
        self.op_ms += result.duration().as_secs_f64() * 1.0e3;
        self.totals.add(&delta);
        self.ops.push((op, delta));
    }

    /// Record the artifact probe of one sweep op, as spans outside the
    /// op's own span.
    pub fn record_probe(&mut self, op: usize, start: Instant, probe: ArtifactProbe) {
        let mid = start + probe.write;
        for (name, from, to) in [
            ("artifact.write_durable", start, mid),
            ("artifact.load", mid, mid + probe.load),
        ] {
            self.spans.push(Span {
                name,
                start_us: self.us(from),
                end_us: self.us(to),
                parent: None,
                op,
            });
        }
        self.probe.write += probe.write;
        self.probe.load += probe.load;
        self.probe.bytes += probe.bytes;
    }

    /// Share of summed op time covered by the timed library calls.
    pub fn stage_coverage(&self) -> f64 {
        ratio(self.stage_ms, self.op_ms)
    }

    /// Write every span and per-op delta as JSON Lines.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\": \"span\", \"id\": {id}, \"name\": \"{}\", \"op\": {}, \
                 \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        for (op, d) in &self.ops {
            let counters: Vec<String> = d
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let timers: Vec<String> = d
                .timers
                .iter()
                .map(|(k, (n, ns))| format!("\"{k}\": {{\"count\": {n}, \"total_ns\": {ns}}}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"kind\": \"delta\", \"op\": {op}, \"counters\": {{{}}}, \"timers\": {{{}}}}}",
                counters.join(", "),
                timers.join(", ")
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }

    /// The per-layer metrics of the traced ops.
    ///
    /// Busy times inside the program are thread-summed timer totals.
    /// Shares divide by summed op time on the schedule workloads and by
    /// summed design-point time on `dse_sweep`, whose designs run on
    /// several workers at once.
    pub fn layer_metrics(
        &self,
        workload: Workload,
        workers: usize,
        overhead_ratio: f64,
    ) -> Vec<Metric> {
        let d = &self.totals;
        let sweep = workload == Workload::DseSweep;
        let design_ms = d.timer_ms("dse.design");
        // Schedule ops time the mapper and scheduler calls themselves;
        // inside a sweep only the program's timers reach them.
        let (mapper_ms, scheduler_ms) = if sweep {
            (
                d.timer_ms("mapper.search"),
                d.timer_ms("scheduler.schedule"),
            )
        } else {
            (self.mapper_ms, self.scheduler_ms)
        };
        let share_base = if sweep { design_ms } else { self.op_ms };
        let authblock_ms = d.timer_ms("authblock.optimize");
        let anneal_ms = d.timer_ms("anneal.segment");
        let anneal_self_ms = (anneal_ms - authblock_ms).max(0.0);
        let scheduler_self_ms = (scheduler_ms - anneal_ms).max(0.0);
        let samples = d.counter("mapper.samples_evaluated");
        let congruence = d.counter("authblock.congruence_calls");
        let cache = d.counter("dse.cache_hit") + d.counter("dse.cache_miss");
        let overhead = d.counter("scheduler.overhead_cache_hits")
            + d.counter("scheduler.overhead_cache_misses");
        let quartiles = ["q0", "q1", "q2", "q3"];
        let proposals: f64 = quartiles
            .iter()
            .map(|q| d.counter(&format!("anneal.proposals.{q}")))
            .sum();
        let accepted: f64 = quartiles
            .iter()
            .map(|q| d.counter(&format!("anneal.accepted.{q}")))
            .sum();
        vec![
            Metric::new("trace.ops", self.ops.len() as f64, "count"),
            Metric::new("trace.op_busy_ms", self.op_ms, "ms"),
            Metric::new("trace.stage_coverage", self.stage_coverage(), "ratio"),
            Metric::new("mapper.busy_ms", mapper_ms, "ms"),
            Metric::new("mapper.share", ratio(mapper_ms, share_base), "ratio"),
            Metric::new("mapper.samples", samples, "count"),
            Metric::new(
                "mapper.valid_ratio",
                ratio(d.counter("mapper.samples_valid"), samples),
                "ratio",
            ),
            Metric::new(
                "mapper.ns_per_sample",
                ratio(d.timer_ms("mapper.chunk") * 1.0e6, samples),
                "ns",
            ),
            Metric::new(
                "mapper.candidate_cache_hit_rate",
                ratio(d.counter("dse.cache_hit"), cache),
                "ratio",
            ),
            Metric::new("authblock.busy_ms", authblock_ms, "ms"),
            Metric::new("authblock.share", ratio(authblock_ms, share_base), "ratio"),
            Metric::new(
                "authblock.optimize_runs",
                d.counter("authblock.optimize_runs"),
                "count",
            ),
            Metric::new(
                "authblock.candidates_considered",
                d.counter("authblock.candidates_considered"),
                "count",
            ),
            Metric::new("authblock.congruence_calls", congruence, "count"),
            Metric::new(
                "authblock.ns_per_congruence_call",
                ratio(authblock_ms * 1.0e6, congruence),
                "ns",
            ),
            Metric::new(
                "segment.overhead_cache_hit_rate",
                ratio(d.counter("scheduler.overhead_cache_hits"), overhead),
                "ratio",
            ),
            Metric::new(
                "segment.overhead_cache_misses",
                d.counter("scheduler.overhead_cache_misses"),
                "count",
            ),
            Metric::new("anneal.busy_ms", anneal_ms, "ms"),
            Metric::new("anneal.self_ms", anneal_self_ms, "ms"),
            Metric::new("anneal.share", ratio(anneal_self_ms, share_base), "ratio"),
            Metric::new("anneal.proposals", proposals, "count"),
            Metric::new("anneal.accept_ratio", ratio(accepted, proposals), "ratio"),
            Metric::new("scheduler.busy_ms", scheduler_ms, "ms"),
            Metric::new("scheduler.self_ms", scheduler_self_ms, "ms"),
            Metric::new(
                "scheduler.share",
                ratio(scheduler_self_ms, share_base),
                "ratio",
            ),
            Metric::new(
                "scheduler.layers_degraded",
                d.counter("scheduler.layers_degraded"),
                "count",
            ),
            Metric::new(
                "scheduler.layers_failed",
                d.counter("scheduler.layers_failed"),
                "count",
            ),
            Metric::new("dse.sweep_busy_ms", self.sweep_ms, "ms"),
            Metric::new("dse.design_busy_ms", design_ms, "ms"),
            Metric::new(
                "dse.worker_utilisation",
                ratio(design_ms, self.sweep_ms * workers as f64),
                "ratio",
            ),
            Metric::new(
                "supervisor.retries",
                d.counter("supervisor.retries"),
                "count",
            ),
            Metric::new(
                "artifact.checkpoint_save_ms",
                d.timer_ms("checkpoint.save"),
                "ms",
            ),
            Metric::new(
                "artifact.save_count",
                d.timer_count("checkpoint.save"),
                "count",
            ),
            Metric::new("artifact.bytes_written", self.probe.bytes as f64, "bytes"),
            Metric::new(
                "artifact.write_durable_ms",
                self.probe.write.as_secs_f64() * 1.0e3,
                "ms",
            ),
            Metric::new(
                "artifact.load_ms",
                self.probe.load.as_secs_f64() * 1.0e3,
                "ms",
            ),
            Metric::new("telemetry.overhead_ratio", overhead_ratio, "ratio"),
        ]
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
