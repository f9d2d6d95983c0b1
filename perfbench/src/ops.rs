//! Workloads and the execution of one op through the library's public
//! entry points.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use secureloop::artifact::DurabilityPolicy;
use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions, SweepRun};
use secureloop::{Algorithm, AnnealingConfig, NetworkSchedule, Scheduler};
use secureloop_arch::Architecture;
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_workload::Network;

use crate::gen::{self, OpSpec, OpStream, NETWORKS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scheduler::schedule(net, CryptOptCross)` at the `schedule`
    /// command's defaults: AuthBlock assignment dominates.
    ScheduleCross,
    /// `Scheduler::schedule(net, CryptTileSingle)` with random search at
    /// the paper's 4000 samples: the mapper dominates.
    ScheduleMapper,
    /// One `evaluate_designs_sweep` over a slice of Fig. 16 at the `dse`
    /// command's defaults, with checkpoint and candidate cache on disk.
    DseSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ScheduleCross,
        Workload::ScheduleMapper,
        Workload::DseSweep,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScheduleCross => "schedule_cross",
            Workload::ScheduleMapper => "schedule_mapper",
            Workload::DseSweep => "dse_sweep",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Search budgets and run sizes. [`Budget::cli`] mirrors the CLI
/// defaults; [`Budget::tiny`] is for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Guided-search sample cap (`schedule` and `dse` default 3000).
    pub guided_samples: usize,
    /// Random-search samples per layer (the paper's 4000).
    pub random_samples: usize,
    /// Annealing iterations of a schedule op (`schedule` default 1000).
    pub schedule_iterations: usize,
    /// Annealing iterations of a sweep op (`dse` default: 300).
    pub dse_iterations: usize,
    /// Design points per sweep op.
    pub dse_designs: usize,
    /// Mapper worker threads (the CLI's 4, capped at the core count).
    pub threads: usize,
    /// Sweep workers (the core count).
    pub workers: usize,
    /// Rounds (one op per network each) in the fixed op list. The
    /// untraced run times at least these ops and sums the modelled
    /// metrics over exactly them.
    pub rounds: usize,
    /// Rounds the traced run repeats with telemetry on.
    pub trace_rounds: usize,
    /// Set-ups per run (the reported set-up time is their median).
    pub setups: usize,
}

impl Budget {
    /// The CLI defaults for `workload`, with `cores` as the parallelism
    /// cap.
    ///
    /// The fixed op list walks whole arch blocks of every network: two
    /// blocks on `schedule_cross` (72 ops, as many as its run time
    /// allows), the whole grid three times on `schedule_mapper` (324
    /// cheap ops, whose modelled authentication traffic varies most
    /// from seed to seed) and twice on `dse_sweep` (108 ops of two
    /// designs). Whole blocks keep the modelled sums and the latency
    /// percentiles from measuring which archs a seed drew.
    pub fn cli(workload: Workload, cores: usize) -> Self {
        let cores = cores.max(1);
        Budget {
            guided_samples: 3000,
            random_samples: 4000,
            schedule_iterations: 1000,
            dse_iterations: 300,
            dse_designs: 2,
            threads: cores.min(4),
            workers: cores,
            rounds: match workload {
                Workload::ScheduleCross => 12,
                Workload::ScheduleMapper => 54,
                Workload::DseSweep => 18,
            },
            trace_rounds: 6,
            setups: 3,
        }
    }

    /// Small budgets that keep every code path but run in milliseconds.
    pub fn tiny(threads: usize, workers: usize) -> Self {
        Budget {
            guided_samples: 60,
            random_samples: 60,
            schedule_iterations: 5,
            dse_iterations: 5,
            dse_designs: 2,
            threads,
            workers,
            rounds: 7,
            trace_rounds: 1,
            setups: 1,
        }
    }

    /// Ops in the fixed op list: at least 40, so p75 has ten above it.
    pub fn ops(&self) -> usize {
        self.rounds * NETWORKS.len()
    }

    /// Design points per op for `workload`.
    pub fn designs_per_op(&self, workload: Workload) -> usize {
        match workload {
            Workload::DseSweep => self.dse_designs,
            _ => 1,
        }
    }
}

/// Host time of one library call made by the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Layer name (`mapper`, `scheduler`, `dse.sweep`).
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Stage {
    /// The call's duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Everything one op produced.
#[derive(Debug)]
pub struct OpResult {
    /// When the op started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// The timed library calls, in order.
    pub stages: Vec<Stage>,
    /// `(design index, schedule)` per scheduled design point.
    pub schedules: Vec<(usize, NetworkSchedule)>,
    /// The sweep's report (sweep ops only).
    pub sweep: Option<SweepRun>,
    /// The op's state directory (sweep ops only).
    pub state_dir: Option<PathBuf>,
    /// An `Err` the library returned.
    pub error: Option<String>,
}

impl OpResult {
    /// Host latency of the op.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Inputs shared by every op of a run: the design grid, the networks
/// and the state directory root.
pub struct Bench {
    workload: Workload,
    budget: Budget,
    /// `fig16_design_space()`, indexed by [`OpSpec::designs`].
    pub grid: Vec<Architecture>,
    nets: HashMap<&'static str, Network>,
    state_root: PathBuf,
}

impl Bench {
    /// Build the inputs and create `state_root` (fresh).
    ///
    /// # Errors
    ///
    /// When the state directory cannot be created.
    pub fn new(workload: Workload, budget: Budget, state_root: &Path) -> Result<Bench, String> {
        let grid = fig16_design_space();
        assert_eq!(grid.len(), gen::GRID_POINTS, "Fig. 16 grid changed shape");
        let nets = NETWORKS.iter().map(|&n| (n, gen::network(n))).collect();
        if state_root.exists() {
            fs::remove_dir_all(state_root)
                .map_err(|e| format!("cannot clear {}: {e}", state_root.display()))?;
        }
        fs::create_dir_all(state_root)
            .map_err(|e| format!("cannot create {}: {e}", state_root.display()))?;
        Ok(Bench {
            workload,
            budget,
            grid,
            nets,
            state_root: state_root.to_path_buf(),
        })
    }

    /// The op list for `seed`.
    pub fn stream(&self, seed: u64) -> OpStream {
        OpStream::new(seed, self.budget.designs_per_op(self.workload))
    }

    /// A network by name.
    pub fn network(&self, name: &str) -> &Network {
        &self.nets[name]
    }

    /// Labels of an op's design points, `+`-joined.
    pub fn design_labels(&self, op: &OpSpec) -> String {
        op.designs
            .iter()
            .map(|&d| self.grid[d].name())
            .collect::<Vec<_>>()
            .join("+")
    }

    fn search(&self, op: &OpSpec, samples: usize, top_k: usize, mode: SearchMode) -> SearchConfig {
        SearchConfig {
            samples,
            top_k,
            seed: op.seed,
            threads: self.budget.threads,
            deadline: None,
            mode,
        }
    }

    /// Run one op. Nothing but the op's own work happens between
    /// `start` and `end`; a sweep op's state directory is created before.
    pub fn run(&self, op: &OpSpec, tag: &str) -> OpResult {
        let net = self.network(op.network);
        let b = &self.budget;
        match self.workload {
            Workload::ScheduleCross | Workload::ScheduleMapper => {
                let (algorithm, search) = if self.workload == Workload::ScheduleCross {
                    (
                        Algorithm::CryptOptCross,
                        self.search(op, b.guided_samples, 6, SearchMode::Guided),
                    )
                } else {
                    (
                        Algorithm::CryptTileSingle,
                        self.search(op, b.random_samples, 6, SearchMode::Random),
                    )
                };
                let design = op.designs[0];
                let scheduler = Scheduler::new(self.grid[design].clone())
                    .with_search(search)
                    .with_annealing(
                        AnnealingConfig::paper_default()
                            .with_iterations(b.schedule_iterations)
                            .with_seed(op.seed),
                    );
                let start = Instant::now();
                let candidates = scheduler.candidates(net, algorithm);
                let mapped = Instant::now();
                let result = scheduler.schedule_with_candidates(net, algorithm, &candidates);
                let end = Instant::now();
                let (schedules, error) = match result {
                    Ok(s) => (vec![(design, s)], None),
                    Err(e) => (Vec::new(), Some(e.to_string())),
                };
                OpResult {
                    start,
                    end,
                    stages: vec![
                        Stage {
                            name: "mapper",
                            start,
                            end: mapped,
                        },
                        Stage {
                            name: "scheduler",
                            start: mapped,
                            end,
                        },
                    ],
                    schedules,
                    sweep: None,
                    state_dir: None,
                    error,
                }
            }
            Workload::DseSweep => {
                let dir = self.state_root.join(format!("{tag}-{}", op.id));
                let _ = fs::remove_dir_all(&dir);
                if let Err(e) = fs::create_dir_all(&dir) {
                    let now = Instant::now();
                    return OpResult {
                        start: now,
                        end: now,
                        stages: Vec::new(),
                        schedules: Vec::new(),
                        sweep: None,
                        state_dir: None,
                        error: Some(format!("cannot create {}: {e}", dir.display())),
                    };
                }
                let designs: Vec<Architecture> =
                    op.designs.iter().map(|&d| self.grid[d].clone()).collect();
                let opts = SweepOptions::new()
                    .with_cache(true)
                    .with_workers(b.workers)
                    .with_durability(DurabilityPolicy::full())
                    .with_checkpoint(dir.join("sweep.json"));
                let search = self.search(op, b.guided_samples, 4, SearchMode::Guided);
                let annealing = AnnealingConfig::paper_default()
                    .with_iterations(b.dse_iterations)
                    .with_seed(op.seed);
                let start = Instant::now();
                let result = evaluate_designs_sweep(
                    net,
                    &designs,
                    Algorithm::CryptOptCross,
                    &search,
                    &annealing,
                    &opts,
                );
                let end = Instant::now();
                let stages = vec![Stage {
                    name: "dse.sweep",
                    start,
                    end,
                }];
                match result {
                    Ok(sweep) => {
                        let schedules = sweep
                            .results
                            .iter()
                            .map(|r| {
                                let d = op
                                    .designs
                                    .iter()
                                    .copied()
                                    .find(|&d| self.grid[d].name() == r.label)
                                    .expect("sweep results carry the op's design labels");
                                (d, r.schedule.clone())
                            })
                            .collect();
                        OpResult {
                            start,
                            end,
                            stages,
                            schedules,
                            sweep: Some(sweep),
                            state_dir: Some(dir),
                            error: None,
                        }
                    }
                    Err(e) => OpResult {
                        start,
                        end,
                        stages,
                        schedules: Vec::new(),
                        sweep: None,
                        state_dir: Some(dir),
                        error: Some(e.to_string()),
                    },
                }
            }
        }
    }
}

/// The modelled (simulated-accelerator) totals of a set of ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modelled {
    /// Summed latency, cycles.
    pub latency_cycles: f64,
    /// Summed energy, µJ.
    pub energy_uj: f64,
    /// Summed authentication traffic (hash + redundant + rehash), bits.
    pub auth_bits: f64,
}

impl Modelled {
    /// Add one op's schedules.
    pub fn add(&mut self, result: &OpResult) {
        for (_, s) in &result.schedules {
            self.latency_cycles += s.total_latency_cycles as f64;
            self.energy_uj += s.total_energy_pj / 1.0e6;
            self.auth_bits += s.overhead.total_bits() as f64;
        }
    }
}
