//! The seeded op generator: the only source of the library's inputs.
//!
//! Every op draws a network, one or more Fig. 16 design points and a
//! search/annealing seed from one SplitMix64 stream keyed by the
//! workload seed, so a seed fixes the whole op list. The draw is
//! stratified so that any prefix of the list is a balanced sample:
//!
//! - networks come in rounds, each round a shuffled permutation of all
//!   six, so after `r` rounds every network has appeared `r` times;
//! - each network walks its own arch sequence in blocks of six that
//!   cover every (PE array, engine class) pair once and every GLB size
//!   twice, and three blocks cover the 18-point grid exactly once.
//!
//! Without the stratification the summed modelled metrics and the
//! latency percentiles would mostly measure which networks a seed
//! happened to draw.

use std::collections::{HashSet, VecDeque};

use secureloop_workload::{zoo, Network};

/// The networks ops are drawn from.
pub const NETWORKS: [&str; 6] = [
    "alexnet",
    "resnet18",
    "attention",
    "llm_decode",
    "vit_tiny",
    "mobilenet_v2",
];

/// Sizes of the Fig. 16 grid axes, in the order `fig16_design_space`
/// nests them: PE array (outer), GLB size, engine class (inner).
const PE_ARRAYS: usize = 3;
const GLB_SIZES: usize = 3;
const ENGINE_CLASSES: usize = 2;

/// Number of points in the Fig. 16 grid.
pub const GRID_POINTS: usize = PE_ARRAYS * GLB_SIZES * ENGINE_CLASSES;

/// Build a network by name, with the same parameters as the CLI's
/// `--workload` names.
pub fn network(name: &str) -> Network {
    match name {
        "alexnet" => zoo::alexnet_conv(),
        "resnet18" => zoo::resnet18(),
        "attention" => zoo::attention(128, 512),
        "llm_decode" => zoo::llm_decode(1024),
        "vit_tiny" => zoo::vit_tiny(2),
        "mobilenet_v2" => zoo::mobilenet_v2(),
        other => panic!("'{other}' is not one of the benchmark networks"),
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// One drawn op: the library sees exactly these inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSpec {
    /// Position in the run's op list.
    pub id: usize,
    /// Network name (see [`NETWORKS`]).
    pub network: &'static str,
    /// Indices into `fig16_design_space()`: one for a schedule op, a
    /// slice for a sweep op.
    pub designs: Vec<usize>,
    /// Mapper search and annealing seed.
    pub seed: u64,
}

/// The infinite, seeded op list of one run.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    designs_per_op: usize,
    round: Vec<&'static str>,
    arch_seqs: Vec<VecDeque<usize>>,
    seen: HashSet<(&'static str, usize, u64)>,
    next_id: usize,
}

impl OpStream {
    /// The op list for `seed`, each op covering `designs_per_op` design
    /// points (at most [`GRID_POINTS`]).
    pub fn new(seed: u64, designs_per_op: usize) -> Self {
        assert!((1..=GRID_POINTS).contains(&designs_per_op));
        OpStream {
            rng: Rng::new(seed),
            designs_per_op,
            round: Vec::new(),
            arch_seqs: vec![VecDeque::new(); NETWORKS.len()],
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    /// Append one 18-op cycle of the balanced arch sequence.
    fn refill(rng: &mut Rng, seq: &mut VecDeque<usize>) {
        let mut pairs: Vec<(usize, usize)> = (0..PE_ARRAYS)
            .flat_map(|pe| (0..ENGINE_CLASSES).map(move |class| (pe, class)))
            .collect();
        rng.shuffle(&mut pairs);
        let offset = rng.below(GLB_SIZES);
        for block in 0..GLB_SIZES {
            for (i, &(pe, class)) in pairs.iter().enumerate() {
                let glb = (i + block + offset) % GLB_SIZES;
                seq.push_back((pe * GLB_SIZES + glb) * ENGINE_CLASSES + class);
            }
        }
    }

    /// The first `n` ops.
    pub fn take(&mut self, n: usize) -> Vec<OpSpec> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Draw the next op.
    pub fn next_op(&mut self) -> OpSpec {
        if self.round.is_empty() {
            self.round = NETWORKS.to_vec();
            self.rng.shuffle(&mut self.round);
        }
        let network = self.round.pop().expect("round refilled above");
        let ni = NETWORKS
            .iter()
            .position(|&n| n == network)
            .expect("network drawn from NETWORKS");
        let seq = &mut self.arch_seqs[ni];
        while seq.len() < self.designs_per_op {
            Self::refill(&mut self.rng, seq);
        }
        let designs: Vec<usize> = seq.drain(..self.designs_per_op).collect();
        // A triple never repeats within a run: redraw the seed on the
        // (astronomically unlikely) collision.
        let seed = loop {
            let seed = self.rng.next_u64();
            if designs
                .iter()
                .all(|&d| !self.seen.contains(&(network, d, seed)))
            {
                break seed;
            }
        };
        self.seen
            .extend(designs.iter().map(|&d| (network, d, seed)));
        let id = self.next_id;
        self.next_id += 1;
        OpSpec {
            id,
            network,
            designs,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        assert_eq!(OpStream::new(5, 2).take(50), OpStream::new(5, 2).take(50));
        assert_ne!(OpStream::new(5, 1).take(10), OpStream::new(6, 1).take(10));
    }

    #[test]
    fn rounds_and_blocks_are_balanced() {
        let ops = OpStream::new(11, 1).take(6 * NETWORKS.len());
        for &net in &NETWORKS {
            let mine: Vec<usize> = ops
                .iter()
                .filter(|o| o.network == net)
                .map(|o| o.designs[0])
                .collect();
            assert_eq!(mine.len(), 6);
            // Every (PE array, engine class) pair once, every GLB twice.
            let mut pairs: Vec<_> = mine
                .iter()
                .map(|d| (d / (GLB_SIZES * ENGINE_CLASSES), d % ENGINE_CLASSES))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), PE_ARRAYS * ENGINE_CLASSES);
            for glb in 0..GLB_SIZES {
                let n = mine
                    .iter()
                    .filter(|d| (*d / ENGINE_CLASSES) % GLB_SIZES == glb)
                    .count();
                assert_eq!(n, 2);
            }
        }
    }

    #[test]
    fn three_blocks_cover_the_grid_once() {
        let ops = OpStream::new(3, 1).take(18 * NETWORKS.len());
        for &net in &NETWORKS {
            let mut mine: Vec<usize> = ops
                .iter()
                .filter(|o| o.network == net)
                .map(|o| o.designs[0])
                .collect();
            mine.sort_unstable();
            assert_eq!(mine, (0..GRID_POINTS).collect::<Vec<_>>());
        }
    }
}
