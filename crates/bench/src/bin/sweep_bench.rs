//! Benchmark-regression harness for the incremental DSE sweep engine.
//!
//! Runs the Fig. 16 design space on AlexNet three times — cache
//! disabled, cache enabled from cold (populating an on-disk cache), and
//! cache enabled warm (from that cache, the `--resume` steady state) —
//! and writes `BENCH_sweep.json` with wall times, mapper sample counts,
//! hit rates and the AuthBlock optimiser's work counts (optimiser runs,
//! candidates priced, closed-form block counts), so later changes have
//! a perf trajectory to defend. The work counts are seeded and do not
//! depend on the worker count, so a change that loosens the optimiser's
//! lower bound shows up in `--diff-against` without timing noise.
//!
//! All 18 Fig. 16 designs have pairwise-distinct search-space keys, so
//! the cold cache-enabled pass sees no intra-sweep hits; the reuse the
//! cache buys shows up in the *warm* pass, which is what `--check`
//! compares against the cache-disabled baseline.
//!
//! ```text
//! cargo run --release -p secureloop-bench --bin sweep_bench -- [options]
//!   --samples <n>       mapper samples per search   (default 4096)
//!   --workers <n>       sweep worker threads        (default 4)
//!   --out <path>        output JSON                 (default BENCH_sweep.json)
//!   --check             exit 1 unless warm speedup >= the threshold
//!   --min-speedup <x>   threshold for --check       (default 1.3)
//!   --diff-against <p>  exit 1 if any *deterministic* field (sample
//!                       counts, hit/miss counts, AuthBlock work counts,
//!                       space shape) differs
//!                       from the committed baseline; wall times are
//!                       machine-dependent and excluded
//! ```

use std::path::PathBuf;
use std::time::Instant;

use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions, SweepRun};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_json::Json;
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

struct Args {
    samples: usize,
    workers: usize,
    out: PathBuf,
    check: bool,
    min_speedup: f64,
    diff_against: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 4096,
        workers: 4,
        out: PathBuf::from("BENCH_sweep.json"),
        check: false,
        min_speedup: 1.3,
        diff_against: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--samples" => args.samples = value("--samples").parse().expect("--samples"),
            "--workers" => args.workers = value("--workers").parse().expect("--workers"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--check" => args.check = true,
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup").parse().expect("--min-speedup")
            }
            "--diff-against" => args.diff_against = Some(PathBuf::from(value("--diff-against"))),
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// Compare the deterministic fields of this run against a committed
/// baseline. Sample counts and hit/miss counts are seeded and
/// single-valued, so any drift means the search or the cache changed
/// behaviour — exactly what the committed `BENCH_sweep.json` is there
/// to catch. Wall times are machine-dependent and ignored.
fn diff_against_baseline(baseline_path: &std::path::Path, fresh: &Json) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
    // Baselines may carry the artifact-envelope footer (fresh runs
    // write one) or not (committed goldens predate it); `open` hands
    // back the payload either way and flags real damage.
    let (payload, integrity) = secureloop::artifact::open(&text);
    if let secureloop::artifact::Integrity::Damaged(reason) = integrity {
        return Err(format!("damaged {}: {reason}", baseline_path.display()));
    }
    let baseline =
        Json::parse(payload).map_err(|e| format!("parse {}: {e:?}", baseline_path.display()))?;

    let mut drift = Vec::new();
    let mut check = |field: &str, a: &Json, b: &Json| {
        if a != b {
            drift.push(format!("  {field}: baseline {a} != fresh {b}"));
        }
    };
    for field in [
        "bench",
        "space",
        "workload",
        "designs",
        "samples_per_search",
    ] {
        check(field, &baseline[field], &fresh[field]);
    }
    for phase in ["cold_no_cache", "cold_with_cache", "warm_with_cache"] {
        for field in [
            "mapper_samples",
            "cache_hits",
            "cache_misses",
            "hit_rate",
            "optimize_runs",
            "candidates_priced",
            "congruence_calls",
        ] {
            check(
                &format!("{phase}.{field}"),
                &baseline[phase][field],
                &fresh[phase][field],
            );
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(drift.join("\n"))
    }
}

struct Phase {
    wall_ms: f64,
    mapper_samples: u64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    optimize_runs: u64,
    candidates_priced: u64,
    congruence_calls: u64,
}

fn run_phase(label: &'static str, args: &Args, opts: &SweepOptions) -> (Phase, SweepRun) {
    let net = zoo::alexnet_conv();
    let designs = fig16_design_space();
    let search = SearchConfig {
        samples: args.samples,
        top_k: 4,
        seed: 0x5ec0_4e10,
        threads: 1,
        deadline: None,
        mode: SearchMode::Random,
    };
    telemetry::reset();
    let start = Instant::now();
    let run = evaluate_designs_sweep(
        &net,
        &designs,
        Algorithm::CryptOptSingle,
        &search,
        &AnnealingConfig::quick(),
        opts,
    )
    .expect("sweep succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for w in &run.warnings {
        eprintln!("warning ({label}): {w}");
    }
    let snap = telemetry::snapshot();
    let phase = Phase {
        wall_ms,
        mapper_samples: snap.counter("mapper.samples_evaluated"),
        cache_hits: run.cache_hits,
        cache_misses: run.cache_misses,
        hit_rate: run.cache_hit_rate(),
        optimize_runs: snap.counter("authblock.optimize_runs"),
        candidates_priced: snap.counter("authblock.candidates_priced"),
        congruence_calls: snap.counter("authblock.congruence_calls"),
    };
    println!(
        "{label:<16} {:>9.1} ms   {:>9} samples   {:>4} hits / {:<4} misses ({:.0}% hit rate)   \
         {} optimizer runs, {} priced, {} congruence calls",
        phase.wall_ms,
        phase.mapper_samples,
        phase.cache_hits,
        phase.cache_misses,
        phase.hit_rate * 100.0,
        phase.optimize_runs,
        phase.candidates_priced,
        phase.congruence_calls,
    );
    (phase, run)
}

fn phase_json(p: &Phase) -> Json {
    Json::obj()
        .field("wall_ms", p.wall_ms)
        .field("mapper_samples", p.mapper_samples)
        .field("cache_hits", p.cache_hits)
        .field("cache_misses", p.cache_misses)
        .field("hit_rate", p.hit_rate)
        .field("optimize_runs", p.optimize_runs)
        .field("candidates_priced", p.candidates_priced)
        .field("congruence_calls", p.congruence_calls)
}

fn main() {
    let args = parse_args();
    let cache_file = std::env::temp_dir().join("secureloop-sweep-bench.cache.json");
    let _ = std::fs::remove_file(&cache_file);

    println!(
        "sweep bench: Fig. 16 space (18 designs) on AlexNet, {} samples/search, {} worker(s)\n",
        args.samples, args.workers
    );

    let (disabled, baseline) = run_phase(
        "cache-disabled",
        &args,
        &SweepOptions::new()
            .with_cache(false)
            .with_workers(args.workers),
    );
    let (cold, _) = run_phase(
        "cache-cold",
        &args,
        &SweepOptions::new()
            .with_cache_path(&cache_file)
            .with_workers(args.workers),
    );
    let (warm, warm_run) = run_phase(
        "cache-warm",
        &args,
        &SweepOptions::new()
            .with_cache_path(&cache_file)
            .with_workers(args.workers),
    );
    let _ = std::fs::remove_file(&cache_file);

    // The cached sweep must reproduce the baseline bit for bit; a perf
    // harness that silently changed the answers would be worse than
    // none.
    assert_eq!(warm_run.results.len(), baseline.results.len());
    for (a, b) in warm_run.results.iter().zip(&baseline.results) {
        assert_eq!(a.label, b.label, "design order must match");
        assert_eq!(
            a.schedule.total_latency_cycles, b.schedule.total_latency_cycles,
            "{}: cached sweep diverged from baseline",
            a.label
        );
    }

    let speedup = disabled.wall_ms / warm.wall_ms.max(1e-9);
    println!("\nwarm speedup vs cache-disabled: {speedup:.2}x");

    let json = Json::obj()
        .field("bench", "sweep")
        .field("space", "fig16")
        .field("workload", "alexnet")
        .field("designs", 18u64)
        .field("samples_per_search", args.samples as u64)
        .field("workers", args.workers as u64)
        .field("cold_no_cache", phase_json(&disabled))
        .field("cold_with_cache", phase_json(&cold))
        .field("warm_with_cache", phase_json(&warm))
        .field("sweep_wall_ms", disabled.wall_ms)
        .field("warm_wall_ms", warm.wall_ms)
        .field("cache_hit_rate", warm.hit_rate)
        .field("warm_speedup", speedup);
    secureloop::artifact::write_durable(
        &args.out,
        &json.pretty(),
        &secureloop::artifact::DurabilityPolicy::default(),
    )
    .expect("write BENCH_sweep.json");
    println!("[wrote {}]", args.out.display());

    if let Some(baseline) = &args.diff_against {
        match diff_against_baseline(baseline, &json) {
            Ok(()) => println!(
                "PASS: deterministic fields match the committed {}",
                baseline.display()
            ),
            Err(drift) => {
                eprintln!(
                    "FAIL: drift vs the committed {} (if intentional, regenerate it \
                     with `cargo run --release -p secureloop-bench --bin sweep_bench`):\n{drift}",
                    baseline.display()
                );
                std::process::exit(1);
            }
        }
    }
    if args.check && speedup < args.min_speedup {
        eprintln!(
            "FAIL: warm cache speedup {speedup:.2}x below the {:.2}x threshold",
            args.min_speedup
        );
        std::process::exit(1);
    }
    if args.check {
        println!(
            "PASS: warm cache speedup {speedup:.2}x >= {:.2}x",
            args.min_speedup
        );
    }
}
