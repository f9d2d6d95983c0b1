//! AuthBlock assignment strategies and the exhaustive
//! orientation × size optimiser (paper §4.2).

use secureloop_telemetry::{self as telemetry, Counter, Timer};

use crate::count::count_blocks;
use crate::grid::TileGrid;
use crate::lattice::{BlockAssignment, Orientation, Region, TileRect};

static OPTIMIZE_RUNS: Counter = Counter::new("authblock.optimize_runs");
/// Strategies in [`optimize`]'s candidate set: the baselines plus every
/// lattice, whether or not the search priced it.
static CANDIDATES_CONSIDERED: Counter = Counter::new("authblock.candidates_considered");
/// Strategies [`optimize`] actually priced: the ones its lower bound
/// could not rule out.
static CANDIDATES_PRICED: Counter = Counter::new("authblock.candidates_priced");
/// Closed-form block counts performed: one per overlapping (reader
/// tile, producer tile) pair per assigned lattice priced — the unit
/// `OPTIMIZE_BUDGET` is denominated in. Candidates [`optimize`] rules
/// out by their lower bound are never priced and add nothing. Overlaps
/// of one class share a single `count_blocks` call but each still
/// counts, so the figure does not depend on how the evaluator groups
/// them. Tallied locally and added once per evaluation, sweep or
/// optimiser run.
static CONGRUENCE_CALLS: Counter = Counter::new("authblock.congruence_calls");
static CHOSEN_REDUNDANT_BITS: Counter = Counter::new("authblock.chosen_redundant_bits");
static OPTIMIZE_TIMER: Timer = Timer::new("authblock.optimize");

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::TileAsAuthBlock => "tile_as_authblock",
        Strategy::Assigned(_) => "assigned",
        Strategy::Rehash => "rehash",
        Strategy::ReaderAligned => "reader_aligned",
    }
}

/// The additional off-chip traffic caused by memory authentication,
/// broken down as in paper Fig. 11(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OverheadBreakdown {
    /// Hash (tag) traffic in bits — tags written when blocks are hashed
    /// and read back for every verification.
    pub hash_bits: u64,
    /// Redundant data reads in bits: elements fetched only for
    /// integrity verification.
    pub redundant_bits: u64,
    /// Rehashing traffic in bits (full re-read + re-write of the
    /// tensor), zero unless the [`Strategy::Rehash`] fallback is used.
    pub rehash_bits: u64,
}

impl OverheadBreakdown {
    /// Total additional off-chip bits.
    pub fn total_bits(&self) -> u64 {
        self.hash_bits + self.redundant_bits + self.rehash_bits
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &OverheadBreakdown) {
        self.hash_bits += other.hash_bits;
        self.redundant_bits += other.redundant_bits;
        self.rehash_bits += other.rehash_bits;
    }

    /// Component-wise scale (e.g. by the number of channel planes).
    pub fn scaled(&self, factor: u64) -> OverheadBreakdown {
        OverheadBreakdown {
            hash_bits: self.hash_bits * factor,
            redundant_bits: self.redundant_bits * factor,
            rehash_bits: self.rehash_bits * factor,
        }
    }
}

/// Overhead attributed to the producing layer vs the consuming layer
/// of the tensor — the scheduler charges each side's traffic to the
/// layer during whose execution it occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SplitOverhead {
    /// Traffic during the producer's execution: hash writes for every
    /// write sweep (including partial-sum epochs and their hash
    /// re-reads).
    pub producer: OverheadBreakdown,
    /// Traffic during the consumer's execution: hash reads, redundant
    /// reads and (if rehashing) the rehash pass.
    pub consumer: OverheadBreakdown,
}

impl SplitOverhead {
    /// Combined overhead.
    pub fn total(&self) -> OverheadBreakdown {
        let mut t = self.producer;
        t.add(&self.consumer);
        t
    }
}

/// One reader of the tensor: a tile grid swept `sweeps` times
/// (the refetch multiplier the loopnest analysis computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// The reader's tile grid (possibly overlapping — halos).
    pub grid: TileGrid,
    /// How many times the whole grid is fetched.
    pub sweeps: u64,
}

/// A tensor with one producer tiling and any number of readers.
///
/// AuthBlocks are aligned per producer tile: hashes are computed as the
/// producer streams the data out, so a block never spans two producer
/// tiles (paper §4.2, "assign horizontal AuthBlocks to fully cover
/// tile_i").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AssignmentProblem {
    /// One channel plane of the tensor (callers multiply plane counts).
    pub region: Region,
    /// The producer's (non-overlapping) tile grid.
    pub producer_grid: TileGrid,
    /// Tag-traffic sweeps on the producer side: write epochs plus
    /// partial-sum re-read epochs (each moves every block's tag once).
    /// Zero for tensors written outside the measured execution (weights
    /// and segment-boundary inputs, whose provisioning is TEE-entry
    /// cost, paper §5.2).
    pub producer_write_sweeps: u64,
    /// The readers (consumer side).
    pub readers: Vec<AccessPattern>,
    /// Data word size in bits.
    pub word_bits: u32,
    /// Truncated tag size in bits (the paper's evaluation corresponds to
    /// 64-bit tags).
    pub tag_bits: u32,
}

/// An AuthBlock strategy for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Prior work's baseline [18, 19]: each producer tile is one
    /// AuthBlock.
    TileAsAuthBlock,
    /// A uniform orientation × size lattice aligned per producer tile
    /// (the paper's search space).
    Assigned(BlockAssignment),
    /// Give up on a unified assignment: re-read, re-hash and re-write
    /// the whole tensor between producer and consumer (paper §3.2.1).
    /// After rehashing, each *reader* tile is its own AuthBlock.
    Rehash,
    /// Each *reader* tile is its own AuthBlock, provisioned that way
    /// from the start. Only available for tensors written outside the
    /// measured execution (`producer_write_sweeps == 0`: weights and
    /// segment-boundary inputs) — overlapping reader tiles (halos) are
    /// duplicated at provisioning time, which costs off-chip *storage*
    /// but no runtime traffic. This is prior work's
    /// "tile-as-an-AuthBlock" for host-provisioned data [18, 19].
    ReaderAligned,
}

/// The optimiser's verdict for one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentChoice {
    /// Chosen strategy.
    pub strategy: Strategy,
    /// Its overhead, split by side.
    pub overhead: SplitOverhead,
}

/// A class of row (or column) overlaps between one reader's tiles and
/// the producer's tiles: the producer tile's extent on this axis, where
/// the overlap starts inside that tile, and how long it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OverlapClass {
    extent: u64,
    offset: u64,
    len: u64,
}

/// Distinct values with their multiplicities.
fn tally<K: Ord + Copy>(mut items: Vec<K>) -> Vec<(K, u64)> {
    items.sort_unstable();
    let mut out: Vec<(K, u64)> = Vec::new();
    for k in items {
        match out.last_mut() {
            Some((last, m)) if *last == k => *m += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

/// Every overlap of a reader span with a producer span on one axis.
fn axis_overlaps(reader: &[(u64, u64)], producer: &[(u64, u64)]) -> Vec<(OverlapClass, u64)> {
    let mut classes = Vec::new();
    for &(r0, r_len) in reader {
        for &(p0, p_len) in producer {
            let lo = r0.max(p0);
            let hi = (r0 + r_len).min(p0 + p_len);
            if lo < hi {
                classes.push(OverlapClass {
                    extent: p_len,
                    offset: lo - p0,
                    len: hi - lo,
                });
            }
        }
    }
    tally(classes)
}

/// `(Σ multiplicity, Σ multiplicity × producer extent)` over classes.
fn overlap_sums(classes: &[(OverlapClass, u64)]) -> (u64, u64) {
    classes
        .iter()
        .fold((0, 0), |(n, e), &(c, m)| (n + m, e + m * c.extent))
}

/// One reader's candidate-independent geometry.
struct PreparedReader {
    sweeps: u64,
    /// Reader tiles that survive clipping.
    tiles: u64,
    /// Their summed elements.
    elems: u64,
    /// Overlapping (reader tile, producer tile) pairs.
    overlaps: u64,
    /// Elements of the producer tile summed over those pairs.
    overlapped_producer_elems: u64,
    rows: Vec<(OverlapClass, u64)>,
    cols: Vec<(OverlapClass, u64)>,
}

impl PreparedReader {
    /// `(blocks, fetched elements)` summed over every reader tile.
    ///
    /// A reader tile's overlap with a producer tile is a row overlap
    /// times a column overlap, and `count_blocks` on the producer-local
    /// lattice depends only on their two classes. So the sum over all
    /// (reader tile, producer tile) pairs is one count per row-class ×
    /// column-class pair, weighted by both multiplicities (`None` =
    /// tile-as-AuthBlock: one block, the whole producer tile, per
    /// overlap). `counts` gains one per overlap priced in closed form.
    fn cost(&self, assign: Option<BlockAssignment>, counts: &mut u64) -> (u64, u64) {
        let Some(a) = assign else {
            return (self.overlaps, self.overlapped_producer_elems);
        };
        *counts += self.overlaps;
        let mut blocks = 0u64;
        let mut fetched = 0u64;
        for &(r, r_mult) in &self.rows {
            for &(c, c_mult) in &self.cols {
                let local_region = Region::new(r.extent, c.extent);
                let local_tile = TileRect::new(r.offset, c.offset, r.len, c.len);
                let n = count_blocks(local_region, local_tile, a);
                blocks += r_mult * c_mult * n.blocks;
                fetched += r_mult * c_mult * n.fetched_elems;
            }
        }
        (blocks, fetched)
    }
}

/// Everything about a problem that does not depend on the strategy,
/// built once and reused for every candidate: per reader, the row and
/// column overlap classes against the producer tiles; for the producer,
/// its tile count and tile-extent classes.
struct PreparedProblem<'a> {
    problem: &'a AssignmentProblem,
    producer_tiles: u64,
    producer_rows: Vec<(u64, u64)>,
    producer_cols: Vec<(u64, u64)>,
    readers: Vec<PreparedReader>,
}

/// Summed extent of an axis's spans.
fn span_total(spans: &[(u64, u64)]) -> u64 {
    spans.iter().map(|&(_, len)| len).sum()
}

/// Panic unless the producer grid partitions `region`: tiles abut on
/// both axes (`step == tile`) and their clipped spans add up to the
/// region's extents, so every element lies in exactly one producer
/// tile. Evaluation (redundant reads are fetched minus needed
/// elements) and the search's lower bound both rely on it.
fn assert_partitions(grid: &TileGrid, region: Region, rows: &[(u64, u64)], cols: &[(u64, u64)]) {
    assert!(
        grid.step_h == grid.tile_h
            && grid.step_w == grid.tile_w
            && span_total(rows) == region.h
            && span_total(cols) == region.w,
        "producer grid {grid:?} does not partition region {region:?}"
    );
}

fn prepare(problem: &AssignmentProblem) -> PreparedProblem<'_> {
    let region = problem.region;
    let extents = |spans: &[(u64, u64)]| tally(spans.iter().map(|&(_, len)| len).collect());
    let p_rows: Vec<_> = problem.producer_grid.row_spans(region).collect();
    let p_cols: Vec<_> = problem.producer_grid.col_spans(region).collect();
    assert_partitions(&problem.producer_grid, region, &p_rows, &p_cols);
    let readers = problem
        .readers
        .iter()
        .map(|reader| {
            let rows: Vec<_> = reader.grid.row_spans(region).collect();
            let cols: Vec<_> = reader.grid.col_spans(region).collect();
            let rows_ov = axis_overlaps(&rows, &p_rows);
            let cols_ov = axis_overlaps(&cols, &p_cols);
            let (row_overlaps, row_extents) = overlap_sums(&rows_ov);
            let (col_overlaps, col_extents) = overlap_sums(&cols_ov);
            PreparedReader {
                sweeps: reader.sweeps,
                tiles: rows.len() as u64 * cols.len() as u64,
                elems: span_total(&rows) * span_total(&cols),
                overlaps: row_overlaps * col_overlaps,
                overlapped_producer_elems: row_extents * col_extents,
                rows: rows_ov,
                cols: cols_ov,
            }
        })
        .collect();
    PreparedProblem {
        problem,
        producer_tiles: p_rows.len() as u64 * p_cols.len() as u64,
        producer_rows: extents(&p_rows),
        producer_cols: extents(&p_cols),
        readers,
    }
}

impl PreparedProblem<'_> {
    /// Producer-side hash traffic: one tag per block per write/psum
    /// sweep, with one block per producer tile under tile-as-AuthBlock
    /// (`None`).
    fn producer_hash_bits(&self, assign: Option<BlockAssignment>) -> u64 {
        let blocks = match assign {
            None => self.producer_tiles,
            Some(a) => {
                let mut blocks = 0u64;
                for &(h, h_mult) in &self.producer_rows {
                    for &(w, w_mult) in &self.producer_cols {
                        blocks += h_mult * w_mult * a.blocks_in(Region::new(h, w));
                    }
                }
                blocks
            }
        };
        blocks * u64::from(self.problem.tag_bits) * self.problem.producer_write_sweeps
    }

    /// A lower bound on the total bits of `Strategy::Assigned(a)`,
    /// priced without a single `count_blocks`: the producer-side hash
    /// term exactly, plus per reader `tag × sweeps × max(overlaps,
    /// ⌈elems / u⌉)`.
    ///
    /// Sound because the producer grid partitions the region (asserted
    /// in `prepare`):
    /// - every (reader tile, producer tile) overlap holds at least one
    ///   element, so it touches at least one block;
    /// - an overlap of `ov` elements needs at least `⌈ov / u⌉` blocks of
    ///   at most `u` elements each, and since the producer tiles
    ///   partition the region a reader's overlaps sum to its `elems`,
    ///   so `Σ ⌈ov / u⌉ ≥ ⌈elems / u⌉`;
    /// - a reader fetches at least the elements it needs, so its
    ///   redundant bits are at least 0; an assigned lattice has no
    ///   rehash bits.
    fn lower_bound(&self, a: BlockAssignment) -> u64 {
        let tag = u64::from(self.problem.tag_bits);
        let consumer: u64 = self
            .readers
            .iter()
            .map(|r| tag * r.sweeps * r.overlaps.max(r.elems.div_ceil(a.size)))
            .sum();
        self.producer_hash_bits(Some(a)) + consumer
    }

    /// Price `strategy`, split into the producer-side and consumer-side
    /// shares; `counts` gains the closed-form counts performed.
    fn evaluate(&self, strategy: Strategy, counts: &mut u64) -> SplitOverhead {
        let problem = self.problem;
        let word = u64::from(problem.word_bits);
        let tag = u64::from(problem.tag_bits);
        let mut out = SplitOverhead::default();

        match strategy {
            Strategy::TileAsAuthBlock | Strategy::Assigned(_) => {
                let assign = match strategy {
                    Strategy::Assigned(a) => Some(a),
                    _ => None,
                };
                out.producer.hash_bits += self.producer_hash_bits(assign);
                for reader in &self.readers {
                    let (blocks, fetched) = reader.cost(assign, counts);
                    out.consumer.hash_bits += blocks * tag * reader.sweeps;
                    out.consumer.redundant_bits += (fetched - reader.elems) * word * reader.sweeps;
                }
            }
            Strategy::ReaderAligned => {
                assert_eq!(
                    problem.producer_write_sweeps, 0,
                    "ReaderAligned requires an offline-provisioned tensor"
                );
                for reader in &self.readers {
                    out.consumer.hash_bits += reader.tiles * tag * reader.sweeps;
                }
            }
            Strategy::Rehash => {
                // Producer writes with tile-as-AuthBlock on its own grid.
                out.producer.hash_bits += self.producer_hash_bits(None);
                // Rehash pass: read everything back (with its hashes),
                // then write it out re-blocked per reader tile.
                // Overlapping reader tiles duplicate their halo data on
                // the rewrite.
                let region_bits = problem.region.elems() * word;
                out.consumer.rehash_bits += region_bits + self.producer_tiles * tag;
                for reader in &self.readers {
                    out.consumer.rehash_bits += reader.elems * word + reader.tiles * tag;
                    // Subsequent reads are perfectly aligned: hash only.
                    out.consumer.hash_bits += reader.tiles * tag * reader.sweeps;
                }
            }
        }
        out
    }
}

/// Evaluate the overhead of `strategy` on `problem`, split into the
/// producer-side and consumer-side shares.
///
/// To price many strategies on one problem, [`optimize`] and [`sweep`]
/// build the candidate-independent overlap table once instead.
pub fn evaluate_assignment(problem: &AssignmentProblem, strategy: Strategy) -> SplitOverhead {
    let mut counts = 0;
    let out = prepare(problem).evaluate(strategy, &mut counts);
    CONGRUENCE_CALLS.add(counts);
    out
}

/// Candidate block sizes for the exhaustive sweep: every size up to 64,
/// a linear ladder beyond, plus geometry-derived sizes (divisors and
/// small multiples of tile widths/steps and the `h × (wᵢ − wⱼ)` family
/// where the paper's Fig. 9 finds its optima), capped at `cap`.
fn candidate_sizes(problem: &AssignmentProblem, cap: u64) -> Vec<u64> {
    let mut cands: Vec<u64> = (1..=64.min(cap)).collect();
    let mut v = 128u64;
    while v <= cap {
        cands.push(v);
        v += 64;
    }
    let mut geometry = vec![
        problem.region.w,
        problem.region.h,
        problem.producer_grid.tile_w,
        problem.producer_grid.tile_h,
        problem.producer_grid.tile_w * problem.producer_grid.tile_h,
    ];
    for r in &problem.readers {
        geometry.push(r.grid.tile_w);
        geometry.push(r.grid.tile_h);
        geometry.push(r.grid.step_w);
        geometry.push(r.grid.step_h);
        if problem.producer_grid.tile_w > r.grid.tile_w {
            geometry.push(problem.region.h * (problem.producer_grid.tile_w - r.grid.tile_w));
        }
        if r.grid.tile_w > r.grid.step_w {
            geometry.push(r.grid.tile_w - r.grid.step_w);
        }
    }
    for g in geometry {
        if g == 0 {
            continue;
        }
        for mult in 1..=4u64 {
            let s = g * mult;
            if s > 0 && s <= cap {
                cands.push(s);
            }
        }
        // Divisors of the geometry value capture alignment sweet spots.
        let mut d = 1;
        while d * d <= g {
            if g % d == 0 {
                if d <= cap {
                    cands.push(d);
                }
                if g / d <= cap {
                    cands.push(g / d);
                }
            }
            d += 1;
        }
    }
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// Largest candidate block size: one producer tile, at most 4096.
fn size_cap(problem: &AssignmentProblem) -> u64 {
    (problem.producer_grid.tile_h * problem.producer_grid.tile_w).min(4096)
}

/// Evaluate every candidate size of one orientation and return the
/// `(size, overhead)` curve — the API behind Fig. 9-style analyses for
/// arbitrary tensors. The curve covers the full candidate set, before
/// the `OPTIMIZE_BUDGET` thinning [`optimize`] applies on large reader
/// grids, so it can hold sizes [`optimize`] never tried.
pub fn sweep(
    problem: &AssignmentProblem,
    orientation: Orientation,
) -> Vec<(u64, OverheadBreakdown)> {
    let prepared = prepare(problem);
    let mut counts = 0;
    let curve = candidate_sizes(problem, size_cap(problem))
        .into_iter()
        .map(|size| {
            let a = BlockAssignment::new(orientation, size);
            let o = prepared.evaluate(Strategy::Assigned(a), &mut counts);
            (size, o.total())
        })
        .collect();
    CONGRUENCE_CALLS.add(counts);
    curve
}

/// How many tile evaluations `optimize`'s candidate list may cost per
/// tensor, at one evaluation per reader and producer tile per candidate
/// and orientation. Large reader grids thin the merged, sorted candidate
/// list to every k-th entry to stay within budget; geometry-derived
/// sizes get no special treatment and are dropped like any other.
const OPTIMIZE_BUDGET: u64 = 200_000;

/// The block sizes [`optimize`] searches in each orientation, and
/// whether `OPTIMIZE_BUDGET` thinned them to every k-th candidate
/// (public so tests can replay the thinning rule).
#[doc(hidden)]
pub fn optimize_sizes(problem: &AssignmentProblem) -> (Vec<u64>, bool) {
    let cands = candidate_sizes(problem, size_cap(problem));
    let tiles_per_eval: u64 = problem
        .readers
        .iter()
        .map(|r| r.grid.len())
        .sum::<u64>()
        .max(1)
        + problem.producer_grid.len();
    let max_cands = (OPTIMIZE_BUDGET / (2 * tiles_per_eval)).max(16) as usize;
    if cands.len() <= max_cands {
        return (cands, false);
    }
    // Keep every k-th entry of the sorted list, starting at the first.
    let stride = cands.len().div_ceil(max_cands);
    (cands.into_iter().step_by(stride).collect(), true)
}

/// Search orientations × candidate sizes, compare against the
/// tile-as-AuthBlock, rehash and (for offline-provisioned tensors)
/// reader-aligned baselines, and return the strategy with the least
/// total additional off-chip traffic; ties go to the first in scan
/// order (baselines, then Horizontal sizes ascending, then Vertical).
///
/// The search is best-first: every candidate gets an order index (its
/// position in scan order) and a lower bound on its total (0 for the
/// baselines, `PreparedProblem::lower_bound` for lattices), and the
/// candidates are priced in `(bound, index)` order until the next one's
/// `(bound, index)` exceeds the incumbent's `(total, index)`. No
/// candidate left unpriced can then beat or tie the incumbent, so the
/// result is exactly the first minimum of the exhaustive scan.
pub fn optimize(problem: &AssignmentProblem) -> AssignmentChoice {
    OPTIMIZE_RUNS.incr();
    let mut span = telemetry::span(
        "authblock",
        format!("{}x{}", problem.region.h, problem.region.w),
    )
    .with_timer(&OPTIMIZE_TIMER);
    let prepared = prepare(problem);

    let mut strategies = vec![Strategy::TileAsAuthBlock, Strategy::Rehash];
    if problem.producer_write_sweeps == 0 {
        strategies.push(Strategy::ReaderAligned);
    }
    let (sizes, thinned) = optimize_sizes(problem);
    for orientation in Orientation::ALL {
        for &size in &sizes {
            strategies.push(Strategy::Assigned(BlockAssignment::new(orientation, size)));
        }
    }
    let considered = strategies.len() as u64;
    let mut order: Vec<(u64, usize, Strategy)> = strategies
        .into_iter()
        .enumerate()
        .map(|(index, strategy)| {
            let bound = match strategy {
                Strategy::Assigned(a) => prepared.lower_bound(a),
                _ => 0,
            };
            (bound, index, strategy)
        })
        .collect();
    order.sort_unstable_by_key(|&(bound, index, _)| (bound, index));

    // Strategies priced and closed-form counts performed this run,
    // flushed to the global counters once.
    let mut priced = 0u64;
    let mut counts = 0u64;
    let mut best: Option<((u64, usize), AssignmentChoice)> = None;
    for (bound, index, strategy) in order {
        if best.is_some_and(|(incumbent, _)| (bound, index) > incumbent) {
            break;
        }
        priced += 1;
        let overhead = prepared.evaluate(strategy, &mut counts);
        let key = (overhead.total().total_bits(), index);
        if best.is_none_or(|(incumbent, _)| key < incumbent) {
            best = Some((key, AssignmentChoice { strategy, overhead }));
        }
    }
    let (_, best) = best.expect("the baselines are always priced");

    CANDIDATES_CONSIDERED.add(considered);
    CANDIDATES_PRICED.add(priced);
    CONGRUENCE_CALLS.add(counts);
    CHOSEN_REDUNDANT_BITS.add(best.overhead.total().redundant_bits);
    span.add_field("strategy", strategy_name(best.strategy));
    span.add_field("candidates", considered);
    span.add_field("priced", priced);
    span.add_field("thinned", thinned);
    span.add_field("redundant_bits", best.overhead.total().redundant_bits);
    best
}

#[cfg(test)]
mod tests {
    use proptest::prelude::{prop, prop_assert, proptest, ProptestConfig};
    use proptest::strategy::Strategy as _;

    use super::*;

    fn total(o: SplitOverhead) -> u64 {
        o.total().total_bits()
    }

    /// The paper's Fig. 8/9 setup: producer writes one 30x30 tile, a
    /// consumer reads 30x20 tiles stepping 20 (second tile clipped to
    /// 30x10 — the misaligned read).
    fn fig9_problem() -> AssignmentProblem {
        let region = Region::new(30, 30);
        AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 30, 30),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, 30, 20),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        }
    }

    #[test]
    fn optimal_beats_tile_as_authblock() {
        let p = fig9_problem();
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(tile));
        // The misaligned reader makes tile-as-AuthBlock fetch the whole
        // region for the 10-wide second tile: large redundancy.
        assert!(tile.consumer.redundant_bits > 0);
    }

    #[test]
    fn fig9_vertical_300_eliminates_redundancy() {
        let p = fig9_problem();
        let o = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Vertical, 300)),
        );
        // Reader tiles at columns 0 (30x20) and 20 (30x10): vertical
        // blocks of 300 = 30x10 columns align with both boundaries.
        assert_eq!(o.consumer.redundant_bits, 0);
        assert_eq!(o.consumer.rehash_bits, 0);
        // 3 blocks in the region: written once + read across tiles.
        assert!(o.total().hash_bits >= 3 * 64);
    }

    #[test]
    fn hash_traffic_shrinks_with_block_size() {
        let p = fig9_problem();
        let small = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 1)),
        );
        let large = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 30)),
        );
        assert!(small.total().hash_bits > large.total().hash_bits);
        assert_eq!(small.consumer.redundant_bits, 0); // size-1 never overfetches
    }

    #[test]
    fn sweeps_scale_reader_overhead() {
        let mut p = fig9_problem();
        let once = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        p.readers[0].sweeps = 3;
        let thrice = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert_eq!(
            thrice.consumer.redundant_bits,
            3 * once.consumer.redundant_bits
        );
        // Producer side is unaffected by reader sweeps.
        assert_eq!(thrice.producer, once.producer);
    }

    #[test]
    fn rehash_pays_two_full_passes_on_consumer_side() {
        let p = fig9_problem();
        let r = evaluate_assignment(&p, Strategy::Rehash);
        // Read 900 + rewrite 900 elements at 8 bits: at least 14400 bits.
        assert!(r.consumer.rehash_bits >= 2 * 900 * 8);
        assert_eq!(r.consumer.redundant_bits, 0);
        assert_eq!(r.producer.rehash_bits, 0);
    }

    #[test]
    fn psum_sweeps_charge_producer_hash_traffic() {
        let mut p = fig9_problem();
        p.producer_write_sweeps = 5; // 1 write + 4 psum round trips
        let o = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 30)),
        );
        // 30 blocks x 64 bits x 5 sweeps on the producer side.
        assert_eq!(o.producer.hash_bits, 30 * 64 * 5);
    }

    #[test]
    fn halo_reader_with_aligned_blocks() {
        // 11x11 ifmap read with 5x5 windows stepping 3 (halo = 2).
        let region = Region::new(11, 11);
        let p = AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 11, 11),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering_with_halo(region, 5, 5, 3, 3),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        };
        // Unit blocks: zero redundancy even with halos.
        let unit = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 1)),
        );
        assert_eq!(unit.consumer.redundant_bits, 0);
        // Whole-region block: every one of the 9 reads fetches all 121
        // elements.
        let whole = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 121)),
        );
        let fetched_total = 9 * 121 * 8;
        let needed: u64 = p.readers[0].grid.tiles(region).map(|t| t.elems() * 8).sum();
        assert_eq!(whole.consumer.redundant_bits, fetched_total - needed);
        // The optimiser must find something at least as good as either.
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(unit));
        assert!(total(best.overhead) <= total(whole));
    }

    #[test]
    fn optimizer_considers_rehash_fallback() {
        // A pathological producer tiling (1-wide columns) against a
        // row-reader swept many times: the optimiser must at worst
        // match tile-as-AuthBlock.
        let region = Region::new(64, 64);
        let p = AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 64, 1),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, 1, 64),
                sweeps: 50,
            }],
            word_bits: 8,
            tag_bits: 64,
        };
        let best = optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert!(total(best.overhead) <= total(tile));
    }

    #[test]
    fn aligned_case_tile_as_authblock_is_already_good() {
        // Producer and consumer tilings match: tile-as-AuthBlock has no
        // redundancy and minimal hash count; the optimiser must not do
        // worse.
        let region = Region::new(32, 32);
        let grid = TileGrid::covering(region, 8, 8);
        let p = AssignmentProblem {
            region,
            producer_grid: grid,
            producer_write_sweeps: 1,
            readers: vec![AccessPattern { grid, sweeps: 1 }],
            word_bits: 8,
            tag_bits: 64,
        };
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert_eq!(tile.consumer.redundant_bits, 0);
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(tile));
    }

    #[test]
    fn sweep_contains_the_optimum() {
        let p = fig9_problem();
        let best = optimize(&p);
        for orientation in Orientation::ALL {
            let curve = sweep(&p, orientation);
            assert!(!curve.is_empty());
            // Monotone non-increasing candidate coverage: every curve
            // point is >= the global optimum.
            for (_, o) in &curve {
                assert!(o.total_bits() >= best.overhead.total().total_bits());
            }
            // Hash bits shrink (weakly) as size grows.
            let first_hash = curve.first().unwrap().1.hash_bits;
            let last_hash = curve.last().unwrap().1.hash_bits;
            assert!(last_hash <= first_hash);
        }
        // The optimum value is attained somewhere in one of the sweeps
        // (unless a non-Assigned strategy won).
        if let Strategy::Assigned(a) = best.strategy {
            let curve = sweep(&p, a.orientation);
            assert!(
                curve
                    .iter()
                    .any(|&(u, o)| u == a.size
                        && o.total_bits() == best.overhead.total().total_bits())
            );
        }
    }

    /// A producer grid shifted off the origin: its clipped tiles cover
    /// only 7 of the 8 rows and columns.
    fn shifted_producer_problem() -> AssignmentProblem {
        let region = Region::new(8, 8);
        AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 4, 4).with_offset(-1, -1),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, 4, 4),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        }
    }

    #[test]
    #[should_panic(expected = "does not partition region")]
    fn evaluation_rejects_a_producer_grid_that_does_not_partition() {
        evaluate_assignment(&shifted_producer_problem(), Strategy::TileAsAuthBlock);
    }

    #[test]
    #[should_panic(expected = "does not partition region")]
    fn optimize_rejects_a_producer_grid_that_does_not_partition() {
        optimize(&shifted_producer_problem());
    }

    /// Problems with 1–3 halo or gapped readers at negative origins,
    /// clipped multi-tile producer grids and 0–3 producer write sweeps.
    fn bound_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
        (2u64..24, 2u64..24).prop_flat_map(|(h, w)| {
            let region = Region::new(h, w);
            let reader = (
                (1..=h.min(8), 1..=w.min(8)),
                (1u64..=9, 1u64..=9),
                (0u64..3, 0u64..3),
                1u64..4,
            )
                .prop_map(
                    move |((tile_h, tile_w), (step_h, step_w), (pad_h, pad_w), sweeps)| {
                        AccessPattern {
                            grid: TileGrid::covering_with_halo(
                                region, tile_h, tile_w, step_h, step_w,
                            )
                            .with_offset(-(pad_h as i64), -(pad_w as i64)),
                            sweeps,
                        }
                    },
                );
            ((1..=h, 1..=w), prop::collection::vec(reader, 1..4), 0u64..4).prop_map(
                move |((tile_h, tile_w), readers, producer_write_sweeps)| AssignmentProblem {
                    region,
                    producer_grid: TileGrid::covering(region, tile_h, tile_w),
                    producer_write_sweeps,
                    readers,
                    word_bits: 8,
                    tag_bits: 64,
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lower_bound_never_exceeds_the_priced_total(p in bound_problem()) {
            let prepared = prepare(&p);
            let mut counts = 0;
            for orientation in Orientation::ALL {
                for size in candidate_sizes(&p, size_cap(&p)) {
                    let a = BlockAssignment::new(orientation, size);
                    let o = prepared.evaluate(Strategy::Assigned(a), &mut counts);
                    prop_assert!(
                        prepared.lower_bound(a) <= o.total().total_bits(),
                        "{} on {:?}",
                        a,
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_multiplies_all_components() {
        let o = OverheadBreakdown {
            hash_bits: 3,
            redundant_bits: 5,
            rehash_bits: 7,
        };
        let s = o.scaled(4);
        assert_eq!(s.hash_bits, 12);
        assert_eq!(s.redundant_bits, 20);
        assert_eq!(s.rehash_bits, 28);
        assert_eq!(s.total_bits(), 60);
    }
}
