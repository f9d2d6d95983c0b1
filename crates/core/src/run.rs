//! The run description shared by every front-end.
//!
//! CLI flags, suite YAML and service jobs all describe the same thing:
//! one pipeline run per design point. [`RunSpec`] holds the fields they
//! share, [`RunSpec::set`] parses and validates each of them in one
//! place, and the builders turn a spec into the network, search,
//! annealing and design inputs of the engine. [`Defaults`] is the one
//! table of what differs per front-end.

use std::time::Duration;

use secureloop_arch::Architecture;
use secureloop_crypto::SchemeId;
use secureloop_json::Json;
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_workload::{zoo, Network};

use crate::annealing::AnnealingConfig;
use crate::dse::apply_scheme;
use crate::scheduler::Algorithm;

/// Builds one model-zoo network.
type ZooFn = fn() -> Network;

/// The model zoo by name, in the order the `workloads` command lists it.
const WORKLOADS: [(&str, ZooFn); 12] = [
    ("alexnet", zoo::alexnet_conv),
    ("alexnet_grouped", zoo::alexnet_conv_grouped),
    ("resnet18", zoo::resnet18),
    ("resnet50", zoo::resnet50),
    ("mobilenet_v2", zoo::mobilenet_v2),
    ("vgg16", zoo::vgg16),
    ("mlp", || zoo::mlp(4, 4096)),
    ("attention", || zoo::attention(128, 512)),
    ("llm_decode", || zoo::llm_decode(1024)),
    ("vit_tiny", || zoo::vit_tiny(2)),
    ("dilated_context", || zoo::dilated_context(56, 64, 4)),
    ("resnext", || zoo::resnext_stage(28, 128, 32, 2)),
];

/// Workload names, one per line (what the `workloads` command prints).
pub fn workload_names() -> String {
    WORKLOADS.map(|(name, _)| name).join("\n")
}

/// Resolve a workload name against the model zoo.
///
/// # Errors
///
/// An unknown name.
pub fn workload(name: &str) -> Result<Network, String> {
    let name = if name == "mobilenetv2" {
        "mobilenet_v2"
    } else {
        name
    };
    WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
        .ok_or_else(|| format!("unknown workload '{name}'"))
}

/// Parse a protection-scheme name.
///
/// # Errors
///
/// An unknown name, listing the accepted ones.
pub fn scheme(name: &str) -> Result<SchemeId, String> {
    SchemeId::from_name(name).ok_or_else(|| {
        format!("unknown scheme '{name}' (expected none | aes-gcm | seculator | seda)")
    })
}

/// What one front-end fills in when the user leaves a field out, plus
/// the budget rules that differ per front-end.
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// Mapper samples per layer.
    pub samples: usize,
    /// Simulated-annealing iterations.
    pub iterations: usize,
    /// Iterations are capped at this.
    pub max_iterations: usize,
    /// Schedules the mapper keeps per layer.
    pub top_k: usize,
    /// The annealing configuration the run's budgets are applied to.
    pub annealing: fn() -> AnnealingConfig,
    /// Whether the annealer takes the run's seed; if not it keeps the
    /// base configuration's own.
    pub seeded_annealing: bool,
    /// Whether `scheme: none` also drops the run to
    /// [`Algorithm::Unsecure`].
    pub unprotected_runs_unsecure: bool,
}

impl Defaults {
    /// `schedule` and `compare-schemes`.
    pub const SCHEDULE: Defaults = Defaults {
        samples: 3000,
        iterations: 1000,
        max_iterations: usize::MAX,
        top_k: 6,
        annealing: AnnealingConfig::paper_default,
        seeded_annealing: true,
        unprotected_runs_unsecure: false,
    };

    /// `trace`: only the best mapping matters.
    pub const TRACE: Defaults = Defaults {
        top_k: 1,
        ..Defaults::SCHEDULE
    };

    /// `dse` and service jobs, which share results byte for byte.
    pub const SWEEP: Defaults = Defaults {
        max_iterations: 300,
        top_k: 4,
        seeded_annealing: false,
        ..Defaults::SCHEDULE
    };

    /// Scenario suites: small budgets, quick annealing.
    pub const SUITE: Defaults = Defaults {
        samples: 1024,
        iterations: 60,
        top_k: 4,
        annealing: AnnealingConfig::quick,
        unprotected_runs_unsecure: true,
        ..Defaults::SCHEDULE
    };
}

/// One run: what to schedule, how, and with what budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name (see [`workload`]); required by every command that
    /// schedules something.
    pub workload: Option<String>,
    /// Batch-size variant of the workload.
    pub batch: Option<u64>,
    /// Word-width variant of the workload.
    pub word_bits: Option<u32>,
    /// Scheduling algorithm.
    pub algorithm: Algorithm,
    /// Protection scheme re-pricing the design; `None` keeps the
    /// architecture's own pricing.
    pub scheme: Option<SchemeId>,
    /// Mapper samples per layer (a cap in guided mode).
    pub samples: usize,
    /// Simulated-annealing iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Wall-clock budget in seconds per layer search and per annealed
    /// segment.
    pub deadline_secs: Option<f64>,
    /// Mapper exploration strategy.
    pub search_mode: SearchMode,
}

fn string<'a>(key: &str, v: &'a Json) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("'{key}' expects a string"))
}

fn uint(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("'{key}' expects a non-negative integer"))
}

impl RunSpec {
    /// An empty run with `defaults`' budgets.
    pub fn new(defaults: &Defaults) -> RunSpec {
        RunSpec {
            workload: None,
            batch: None,
            word_bits: None,
            algorithm: Algorithm::CryptOptCross,
            scheme: None,
            samples: defaults.samples,
            iterations: defaults.iterations,
            seed: 1,
            deadline_secs: None,
            search_mode: SearchMode::Guided,
        }
    }

    /// Parse and validate one field. Keys are the suite and job
    /// spellings: `workload`, `batch`, `word_bits`, `algorithm`,
    /// `scheme`, `samples`, `iterations`, `seed`, `deadline_secs`,
    /// `search_mode`.
    ///
    /// # Errors
    ///
    /// Names the field and what is wrong with its value.
    pub fn set(&mut self, key: &str, v: &Json) -> Result<(), String> {
        match key {
            "workload" => self.workload = Some(string(key, v)?.to_string()),
            "batch" => {
                let n = uint(key, v)?;
                if n == 0 {
                    return Err("'batch' must be at least 1".into());
                }
                self.batch = Some(n);
            }
            "word_bits" => {
                let n = uint(key, v)?;
                if n == 0 || n > 512 {
                    return Err("'word_bits' must be in 1..=512".into());
                }
                self.word_bits = Some(n as u32);
            }
            "algorithm" => {
                let name = string(key, v)?;
                self.algorithm = Algorithm::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown algorithm '{name}' (expected unsecure | crypt-tile-single | \
                         crypt-opt-single | crypt-opt-cross)"
                    )
                })?;
            }
            "scheme" => self.scheme = Some(scheme(string(key, v)?)?),
            "samples" => {
                let n = uint(key, v)?;
                if n == 0 {
                    return Err("'samples' must be at least 1".into());
                }
                self.samples = n as usize;
            }
            "iterations" => self.iterations = uint(key, v)? as usize,
            "seed" => self.seed = uint(key, v)?,
            "deadline_secs" => match v.as_f64() {
                Some(secs) if secs.is_finite() && secs >= 0.0 => self.deadline_secs = Some(secs),
                _ => return Err("'deadline_secs' expects a finite number >= 0".into()),
            },
            "search_mode" => {
                let name = string(key, v)?;
                self.search_mode = SearchMode::from_name(name).ok_or_else(|| {
                    format!("unknown search mode '{name}' (expected random | guided)")
                })?;
            }
            other => return Err(format!("unknown run field '{other}'")),
        }
        Ok(())
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline_secs.map(Duration::from_secs_f64)
    }

    /// The workload with its batch and word-width variants applied.
    ///
    /// # Errors
    ///
    /// A missing or unknown workload name.
    pub fn network(&self) -> Result<Network, String> {
        let name = self.workload.as_deref().ok_or("no workload given")?;
        let mut network = workload(name)?;
        if let Some(n) = self.batch {
            network = network.with_batch(n);
        }
        if let Some(bits) = self.word_bits {
            network = network.with_word_bits(bits);
        }
        Ok(network)
    }

    /// The algorithm to run: the chosen one, except that an unprotected
    /// run drops to [`Algorithm::Unsecure`] where `defaults` says so.
    pub fn effective_algorithm(&self, defaults: &Defaults) -> Algorithm {
        if defaults.unprotected_runs_unsecure && self.scheme == Some(SchemeId::None) {
            Algorithm::Unsecure
        } else {
            self.algorithm
        }
    }

    /// The mapper configuration.
    pub fn search(&self, defaults: &Defaults) -> SearchConfig {
        SearchConfig {
            samples: self.samples,
            top_k: defaults.top_k,
            seed: self.seed,
            threads: 4,
            deadline: self.deadline(),
            mode: self.search_mode,
        }
    }

    /// The annealing configuration.
    pub fn annealing(&self, defaults: &Defaults) -> AnnealingConfig {
        let mut a =
            (defaults.annealing)().with_iterations(self.iterations.min(defaults.max_iterations));
        if defaults.seeded_annealing {
            a = a.with_seed(self.seed);
        }
        match self.deadline() {
            Some(d) => a.with_deadline(d),
            None => a,
        }
    }

    /// `arch` re-priced under the run's scheme, if one was chosen.
    ///
    /// # Errors
    ///
    /// The scheme cannot be realised on the design (see
    /// [`apply_scheme`]).
    pub fn reprice(&self, arch: &Architecture) -> Result<Architecture, String> {
        match self.scheme {
            None => Ok(arch.clone()),
            Some(s) => apply_scheme(arch, s),
        }
    }

    /// The designs to sweep: the `labels` picked from `space` in order,
    /// or the whole space when `labels` is empty, re-priced under the
    /// run's scheme. A named design the scheme cannot realise is an
    /// error; over the whole space such designs are dropped, and the
    /// returned note says how many.
    ///
    /// # Errors
    ///
    /// An unknown label, a named design the scheme cannot realise, or a
    /// scheme that supports no design in the space.
    pub fn designs(
        &self,
        space: Vec<Architecture>,
        labels: &[String],
    ) -> Result<(Vec<Architecture>, Option<String>), String> {
        if !labels.is_empty() {
            let picked = labels
                .iter()
                .map(|want| {
                    let arch = space
                        .iter()
                        .find(|a| a.name() == want)
                        .ok_or_else(|| format!("unknown design '{want}'"))?;
                    self.reprice(arch)
                        .map_err(|e| format!("design '{want}': {e}"))
                })
                .collect::<Result<_, _>>()?;
            return Ok((picked, None));
        }
        let Some(s) = self.scheme else {
            return Ok((space, None));
        };
        let kept: Vec<Architecture> = space
            .iter()
            .filter_map(|a| apply_scheme(a, s).ok())
            .collect();
        if kept.is_empty() {
            return Err(format!("scheme '{s}' supports no design in the space"));
        }
        let note = (kept.len() < space.len()).then(|| {
            format!(
                "scheme '{s}': {} design(s) excluded (engine class unsupported)",
                space.len() - kept.len()
            )
        });
        Ok((kept, note))
    }
}
