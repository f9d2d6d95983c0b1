//! Pins the chunked-RNG contract: for a fixed [`SearchConfig`] seed and
//! sample budget, `search` must return **byte-identical** results for
//! any worker-thread count. Chunk seeds derive from chunk indices and
//! chunk results merge in index order, so the thread count only decides
//! who runs a chunk, never what the chunk computes.
//!
//! Guided mode carries the same contract with a stronger argument to
//! check: the Pareto front that steers sampling is only mutated at
//! sequential round barriers, so the guides any chunk sees are a pure
//! function of prior chunk *indices*, never of thread interleaving.
//! The guided tests below pin that, plus cache hygiene: a warm
//! [`CandidateCache`] must return exactly what the cold search
//! computed, and guided and random results must never alias one
//! another's cache entries.

use secureloop_arch::{Architecture, Dataflow};
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_loopnest::Mapping;
use secureloop_mapper::{
    cache_key, greedy_mapping, search, search_cached, CandidateCache, GuidedSampler, MapperResult,
    MappingSampler, SearchConfig, SearchMode,
};
use secureloop_workload::{zoo, ConvLayer, Dim};

fn cfg(threads: usize) -> SearchConfig {
    SearchConfig {
        samples: 700, // deliberately not a multiple of CHUNK_SAMPLES
        top_k: 5,
        seed: 0xdead_beef,
        threads,
        deadline: None,
        mode: SearchMode::Random,
    }
}

fn guided_cfg(threads: usize) -> SearchConfig {
    SearchConfig {
        mode: SearchMode::Guided,
        ..cfg(threads)
    }
}

/// Everything observable about a result, rendered byte-for-byte.
fn fingerprint(r: &MapperResult) -> String {
    format!(
        "tier={} truncated={} total={} valid={} candidates={:?}",
        r.tier, r.truncated, r.total_samples, r.valid_samples, r.candidates
    )
}

fn assert_thread_invariant(layer: &ConvLayer, arch: &Architecture) {
    let baseline = fingerprint(&search(layer, arch, &cfg(1)).expect("search succeeds"));
    for threads in [2usize, 4] {
        let got = fingerprint(&search(layer, arch, &cfg(threads)).expect("search succeeds"));
        assert_eq!(
            baseline,
            got,
            "threads={threads} diverged from threads=1 on layer {}",
            layer.name()
        );
    }
}

#[test]
fn thread_count_does_not_change_results_on_alexnet() {
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    for layer in net.layers() {
        assert_thread_invariant(layer, &arch);
    }
}

#[test]
fn thread_count_does_not_change_results_on_secure_arch() {
    // The crypt-aware evaluation path (effective bandwidth + crypto
    // energy) must be just as deterministic as the unsecure one.
    let net = zoo::alexnet_conv();
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    assert_thread_invariant(&net.layers()[2], &arch);
}

#[test]
fn repeated_runs_are_identical_too() {
    // Same-thread-count repeatability: the global telemetry layer and
    // the shared chunk queue must introduce no run-to-run jitter.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[0];
    let a = fingerprint(&search(layer, &arch, &cfg(4)).expect("search succeeds"));
    let b = fingerprint(&search(layer, &arch, &cfg(4)).expect("search succeeds"));
    assert_eq!(a, b);
}

#[test]
fn oversubscribed_thread_counts_are_harmless() {
    // More workers than chunks: extra workers find the queue drained
    // and exit; the result is still the thread=1 result.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[1];
    let seq = fingerprint(&search(layer, &arch, &cfg(1)).expect("search succeeds"));
    let wide = fingerprint(&search(layer, &arch, &cfg(16)).expect("search succeeds"));
    assert_eq!(seq, wide);
}

#[test]
fn guided_search_is_thread_invariant() {
    // The Pareto front is mutated only at sequential round barriers,
    // so guided results must be byte-identical for any thread count —
    // including oversubscription far past the chunk count.
    let net = zoo::alexnet_conv();
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    for layer in [&net.layers()[0], &net.layers()[2]] {
        let baseline = fingerprint(&search(layer, &arch, &guided_cfg(1)).expect("search succeeds"));
        for threads in [2usize, 4, 16] {
            let got =
                fingerprint(&search(layer, &arch, &guided_cfg(threads)).expect("search succeeds"));
            assert_eq!(
                baseline,
                got,
                "guided threads={threads} diverged on layer {}",
                layer.name()
            );
        }
    }
}

#[test]
fn guided_repeated_runs_are_identical() {
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[1];
    let a = fingerprint(&search(layer, &arch, &guided_cfg(4)).expect("search succeeds"));
    let b = fingerprint(&search(layer, &arch, &guided_cfg(4)).expect("search succeeds"));
    assert_eq!(a, b);
}

#[test]
fn guided_cold_and_warm_cache_agree() {
    // A warm CandidateCache must hand back exactly what the cold
    // search computed — same candidates, same tier, same counters.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[3];
    let cache = CandidateCache::new();
    let uncached = fingerprint(&search(layer, &arch, &guided_cfg(2)).expect("search succeeds"));
    let cold = fingerprint(
        &search_cached(layer, &arch, &guided_cfg(2), Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.misses(), 1);
    let warm = fingerprint(
        &search_cached(layer, &arch, &guided_cfg(2), Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.hits(), 1, "second lookup must hit");
    assert_eq!(cold, warm, "warm hit must replay the cold result");
    assert_eq!(uncached, cold, "caching must not perturb the search");
}

#[test]
fn guided_and_random_never_poison_each_others_cache() {
    // The two modes explore the same space differently; their cache
    // keys carry a distinct mode component so a guided run can never
    // serve (or be served) a random result.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[2];
    let random = cfg(2);
    let guided = guided_cfg(2);
    assert!(cache_key(layer, &arch, &random).ends_with(",mr]"));
    assert!(cache_key(layer, &arch, &guided).ends_with(",mg]"));
    assert_ne!(
        cache_key(layer, &arch, &random),
        cache_key(layer, &arch, &guided),
        "modes must key distinct cache entries"
    );

    let cache = CandidateCache::new();
    let g_cold =
        fingerprint(&search_cached(layer, &arch, &guided, Some(&cache)).expect("search succeeds"));
    let r_cold =
        fingerprint(&search_cached(layer, &arch, &random, Some(&cache)).expect("search succeeds"));
    assert_eq!(cache.misses(), 2, "each mode computes its own entry");
    assert_eq!(cache.hits(), 0);
    // Replaying either mode hits its own entry and reproduces its own
    // cold result — not the other mode's.
    let g_warm =
        fingerprint(&search_cached(layer, &arch, &guided, Some(&cache)).expect("search succeeds"));
    let r_warm =
        fingerprint(&search_cached(layer, &arch, &random, Some(&cache)).expect("search succeeds"));
    assert_eq!(cache.hits(), 2);
    assert_eq!(g_cold, g_warm);
    assert_eq!(r_cold, r_warm);
}

// --- Sample-stream pins -------------------------------------------------
//
// The thread matrix above would pass an RNG-sequence drift: every thread
// count would drift the same way. These pins hash the raw draw streams
// themselves, so any change to which RNG calls the samplers make (or to
// the values they turn them into) fails here first, before it reaches a
// golden.

/// FNV-1a 64 over a stream of `u64` words.
struct StreamHash(u64);

impl StreamHash {
    fn new() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mapping(&mut self, m: &Mapping) {
        for level in [&m.dram, &m.glb, &m.spatial_x, &m.spatial_y, &m.rf] {
            for d in Dim::ALL {
                self.word(level[d]);
            }
        }
        for order in [&m.dram_order, &m.glb_order] {
            for d in order {
                self.word(d.index() as u64);
            }
        }
    }
}

const PINNED_DRAWS: usize = 512;

/// Two or more zoo layers per dataflow: mixed prime structure (AlexNet's
/// 11×11 stride-4 stem, ResNet's power-of-two channels, a MobileNetV2
/// depthwise layer, an attention projection).
fn pinned_layers() -> Vec<ConvLayer> {
    vec![
        zoo::alexnet_conv().layers()[0].clone(),
        zoo::alexnet_conv().layers()[2].clone(),
        zoo::resnet18().layers()[5].clone(),
        zoo::mobilenet_v2().layers()[1].clone(),
        zoo::attention(64, 96).layers()[0].clone(),
    ]
}

fn pinned_arch(dataflow: Dataflow) -> Architecture {
    Architecture::eyeriss_base().with_dataflow(dataflow)
}

const DATAFLOWS: [Dataflow; 4] = [
    Dataflow::RowStationary,
    Dataflow::WeightStationary,
    Dataflow::OutputStationary,
    Dataflow::Unconstrained,
];

fn uniform_stream_hash(dataflow: Dataflow) -> u64 {
    let arch = pinned_arch(dataflow);
    let mut h = StreamHash::new();
    for layer in pinned_layers() {
        let mut s = MappingSampler::new(&layer, &arch, 0x5eed);
        for _ in 0..PINNED_DRAWS {
            h.mapping(&s.sample());
        }
    }
    h.0
}

/// Guided draws over a non-empty guide pool, feeding every 64th draw
/// back as a live anchor. Two thirds of the draws mutate a guide with
/// one or two of the 11 mutation arms, so each arm fires dozens of
/// times per layer.
fn guided_stream_hash(dataflow: Dataflow) -> u64 {
    let arch = pinned_arch(dataflow);
    let mut h = StreamHash::new();
    for layer in pinned_layers() {
        let mut pool = MappingSampler::new(&layer, &arch, 5);
        let guides: Vec<Mapping> = (0..4).map(|_| pool.sample()).collect();
        let mut s = GuidedSampler::new(&layer, &arch, 0x5eed, &guides);
        for i in 0..PINNED_DRAWS {
            let (m, from_neighbourhood) = s.sample();
            h.mapping(&m);
            h.word(u64::from(from_neighbourhood));
            if i % 64 == 63 {
                s.add_anchor(m);
            }
        }
    }
    h.0
}

fn greedy_hash(dataflow: Dataflow) -> u64 {
    let arch = pinned_arch(dataflow);
    let mut h = StreamHash::new();
    for layer in pinned_layers() {
        match greedy_mapping(&layer, &arch) {
            Ok((m, e)) => {
                h.mapping(&m);
                h.word(e.latency_cycles);
                h.word(e.energy_pj.to_bits());
            }
            Err(_) => h.word(u64::MAX),
        }
    }
    h.0
}

/// Per dataflow, in [`DATAFLOWS`] order: (uniform, guided, greedy).
const PINNED: [(u64, u64, u64); 4] = [
    (0xe89ef7852b313dbc, 0xf55fc39e0f1be0ad, 0x6b6b3e2a10b7e8da),
    (0x7a16d4e6b457307d, 0x61ef69fa9eb4d5b3, 0x45107e0e072017ac),
    (0xeb189b2ec41eb13e, 0x7072d8c3f2ae95d1, 0xdc885d146bf0dc5e),
    (0x51e78c3332b261ff, 0x459220ba2b4d06b5, 0xdf35358d9c318f3c),
];

#[test]
fn sample_streams_match_their_pins() {
    let mut diffs = Vec::new();
    for (dataflow, &(uniform, guided, greedy)) in DATAFLOWS.iter().zip(&PINNED) {
        let got = (
            uniform_stream_hash(*dataflow),
            guided_stream_hash(*dataflow),
            greedy_hash(*dataflow),
        );
        if got != (uniform, guided, greedy) {
            diffs.push(format!(
                "{dataflow:?}: got ({:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "sample streams drifted from their pins:\n{}",
        diffs.join("\n")
    );
}
