//! Segment-level evaluation: loopnest choices + AuthBlock strategies →
//! per-layer secure latency/energy.
//!
//! This is the `PerfModel` of the paper's Algorithm 1: given one chosen
//! schedule per layer of a segment, it derives every tensor's AuthBlock
//! problem, picks strategies according to the scheduling algorithm's
//! [`StrategyMode`], charges each side's extra off-chip bits to the
//! right layer, and re-derives latency/energy through the effective
//! bandwidth.

use std::collections::HashMap;

use secureloop_arch::Architecture;
use secureloop_authblock::{
    evaluate_assignment, optimize, AssignmentProblem, OverheadBreakdown, SplitOverhead, Strategy,
};
use secureloop_loopnest::{Evaluation, Mapping};
use secureloop_telemetry::Counter;
use secureloop_workload::Network;

use crate::tensors::{coupled_case, input_case, layer_stats, output_case, weight_case, TensorCase};

static CACHE_HITS: Counter = Counter::new("scheduler.overhead_cache_hits");
static CACHE_MISSES: Counter = Counter::new("scheduler.overhead_cache_misses");

/// How AuthBlock strategies are selected (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyMode {
    /// `Crypt-Tile-Single`: tile-as-an-AuthBlock everywhere; coupled
    /// tensors are rehashed between layers (prior work [18, 19]).
    TileRehash,
    /// `Crypt-Opt-*`: the optimal assignment search of §4.2, with
    /// rehash only as a fallback it must beat.
    Optimal,
}

/// Memoises per-tensor overheads across simulated-annealing iterations:
/// the same (problem, mode) pair recurs whenever the same pair of
/// candidate schedules is revisited.
#[derive(Debug, Default)]
pub struct OverheadCache {
    /// One map per (mode, coupled) pair, so a lookup borrows the
    /// problem and only a miss clones it into a key.
    maps: [HashMap<AssignmentProblem, SplitOverhead>; 4],
}

impl OverheadCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        OverheadCache::default()
    }

    /// Number of cached tensor problems.
    pub fn len(&self) -> usize {
        self.maps.iter().map(HashMap::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(HashMap::is_empty)
    }

    fn overhead(&mut self, case: &TensorCase, mode: StrategyMode) -> SplitOverhead {
        let slot = match mode {
            StrategyMode::TileRehash => 0,
            StrategyMode::Optimal => 2,
        } + usize::from(case.coupled);
        if let Some(hit) = self.maps[slot].get(&case.problem) {
            CACHE_HITS.incr();
            return *hit;
        }
        CACHE_MISSES.incr();
        let split = match mode {
            StrategyMode::TileRehash => {
                if case.coupled {
                    // Prior work either keeps the producer's tile
                    // blocks (and eats redundant reads on the
                    // misaligned consumer) or rehashes between the
                    // layers (paper §3.2.1) — it would take the
                    // cheaper of the two, but never re-optimises the
                    // block shape.
                    let tile = evaluate_assignment(&case.problem, Strategy::TileAsAuthBlock);
                    let rehash = evaluate_assignment(&case.problem, Strategy::Rehash);
                    if tile.total().total_bits() <= rehash.total().total_bits() {
                        tile
                    } else {
                        rehash
                    }
                } else if case.problem.producer_write_sweeps == 0 {
                    // Host-provisioned tensors get tile-aligned blocks
                    // (halos duplicated offline) [18, 19].
                    evaluate_assignment(&case.problem, Strategy::ReaderAligned)
                } else {
                    evaluate_assignment(&case.problem, Strategy::TileAsAuthBlock)
                }
            }
            StrategyMode::Optimal => optimize(&case.problem).overhead,
        };
        self.maps[slot].insert(case.problem.clone(), split);
        split
    }
}

/// All tensor cases of a segment under the given per-layer mappings.
pub fn segment_tensor_cases(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    mappings: &[&Mapping],
) -> Vec<TensorCase> {
    assert_eq!(seg.len(), mappings.len(), "one mapping per segment layer");
    let stats: Vec<_> = seg
        .iter()
        .zip(mappings)
        .map(|(&li, m)| layer_stats(&network.layers()[li], arch, m))
        .collect();

    let mut cases = Vec::new();
    for (pos, &li) in seg.iter().enumerate() {
        let layer = &network.layers()[li];
        cases.push(weight_case(li, layer, arch, &stats[pos]));
        if pos == 0 {
            cases.push(input_case(li, layer, arch, &stats[pos]));
        }
        if pos + 1 < seg.len() {
            let ci = seg[pos + 1];
            cases.push(coupled_case(
                li,
                ci,
                layer,
                &network.layers()[ci],
                arch,
                &stats[pos],
                &stats[pos + 1],
            ));
        } else {
            cases.push(output_case(li, layer, arch, &stats[pos]));
        }
    }
    cases
}

/// The outcome of evaluating one segment.
#[derive(Debug, Clone)]
pub struct SegmentEvaluation {
    /// Secure evaluation (extra bits applied) per segment layer.
    pub layer_evals: Vec<Evaluation>,
    /// Extra off-chip bits charged to each segment layer.
    pub extra_bits: Vec<u64>,
    /// Total overhead breakdown across the segment (plane-scaled).
    pub breakdown: OverheadBreakdown,
    /// Segment latency (sum of layer latencies — layers execute
    /// sequentially).
    pub total_latency: u64,
    /// Segment energy in pJ.
    pub total_energy: f64,
}

/// Evaluate one segment: `choices[i]` is the retained schedule used for
/// segment layer `i`.
pub fn evaluate_segment(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    choices: &[(Mapping, Evaluation)],
    mode: StrategyMode,
    cache: &mut OverheadCache,
) -> SegmentEvaluation {
    let mappings: Vec<&Mapping> = choices.iter().map(|(m, _)| m).collect();
    let cases = segment_tensor_cases(network, arch, seg, &mappings);

    let mut extra_by_dt = vec![[0u64; 3]; seg.len()];
    let mut breakdown = OverheadBreakdown::default();
    let local = |li: usize| seg.iter().position(|&x| x == li).expect("layer in segment");

    for case in &cases {
        let split = cache.overhead(case, mode);
        let prod = split.producer.scaled(case.planes);
        let cons = split.consumer.scaled(case.planes);
        breakdown.add(&prod);
        breakdown.add(&cons);
        if let Some(p) = case.attribution.producer {
            extra_by_dt[local(p)][case.producer_stream.index()] += prod.total_bits();
        }
        if let Some(c) = case.attribution.consumer {
            extra_by_dt[local(c)][case.consumer_stream.index()] += cons.total_bits();
        }
    }
    let extra_bits: Vec<u64> = extra_by_dt.iter().map(|e| e.iter().sum()).collect();

    let layer_evals: Vec<Evaluation> = choices
        .iter()
        .zip(&extra_by_dt)
        .map(|((_, eval), &bits)| eval.with_extra_dram_bits(arch, bits))
        .collect();
    let total_latency = layer_evals.iter().map(|e| e.latency_cycles).sum();
    let total_energy = layer_evals.iter().map(|e| e.energy_pj).sum();

    SegmentEvaluation {
        layer_evals,
        extra_bits,
        breakdown,
        total_latency,
        total_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::find_candidates;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::SearchConfig;
    use secureloop_workload::zoo;

    fn setup() -> (
        secureloop_workload::Network,
        Architecture,
        crate::CandidateSet,
    ) {
        let net = zoo::alexnet_conv();
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let cands = find_candidates(&net, &arch, &SearchConfig::quick());
        (net, arch, cands)
    }

    #[test]
    fn optimal_mode_never_worse_than_tile_rehash() {
        let (net, arch, cands) = setup();
        let segs = net.segments();
        let seg = &segs[2].layers; // conv3, conv4, conv5
        let choices: Vec<_> = seg
            .iter()
            .map(|&li| cands.per_layer[li].best().expect("has candidates").clone())
            .collect();
        let mut cache = OverheadCache::new();
        let tile = evaluate_segment(
            &net,
            &arch,
            seg,
            &choices,
            StrategyMode::TileRehash,
            &mut cache,
        );
        let opt = evaluate_segment(
            &net,
            &arch,
            seg,
            &choices,
            StrategyMode::Optimal,
            &mut cache,
        );
        assert!(
            opt.breakdown.total_bits() <= tile.breakdown.total_bits(),
            "optimal {} vs tile {}",
            opt.breakdown.total_bits(),
            tile.breakdown.total_bits()
        );
        assert!(opt.total_latency <= tile.total_latency);
        // The optimal assignment avoids the rehash fallback on this
        // segment (Fig. 11b: Crypt-Opt bars have no rehash share).
        assert_eq!(opt.breakdown.rehash_bits, 0, "optimal avoided rehash here");
    }

    #[test]
    fn extra_bits_are_attributed_to_every_layer() {
        let (net, arch, cands) = setup();
        let segs = net.segments();
        let seg = &segs[2].layers;
        let choices: Vec<_> = seg
            .iter()
            .map(|&li| cands.per_layer[li].best().expect("has candidates").clone())
            .collect();
        let mut cache = OverheadCache::new();
        let e = evaluate_segment(
            &net,
            &arch,
            seg,
            &choices,
            StrategyMode::Optimal,
            &mut cache,
        );
        // Every layer reads weights at minimum: nonzero overhead.
        for (i, &bits) in e.extra_bits.iter().enumerate() {
            assert!(bits > 0, "layer {i} has zero overhead bits");
        }
        // Secure latency >= base latency.
        for (ev, (_, base)) in e.layer_evals.iter().zip(&choices) {
            assert!(ev.latency_cycles >= base.latency_cycles);
            assert!(ev.energy_pj >= base.energy_pj);
        }
    }

    #[test]
    fn cache_hits_across_repeated_evaluations() {
        let (net, arch, cands) = setup();
        let segs = net.segments();
        let seg = &segs[0].layers;
        let choices: Vec<_> = seg
            .iter()
            .map(|&li| cands.per_layer[li].best().expect("has candidates").clone())
            .collect();
        let mut cache = OverheadCache::new();
        let a = evaluate_segment(
            &net,
            &arch,
            seg,
            &choices,
            StrategyMode::Optimal,
            &mut cache,
        );
        let n = cache.len();
        let b = evaluate_segment(
            &net,
            &arch,
            seg,
            &choices,
            StrategyMode::Optimal,
            &mut cache,
        );
        assert_eq!(cache.len(), n, "second evaluation must be fully cached");
        assert_eq!(a.total_latency, b.total_latency);
    }

    #[test]
    fn single_layer_segment_has_no_coupling() {
        let (net, arch, cands) = setup();
        let segs = net.segments();
        let seg = &segs[0].layers; // [conv1]
        assert_eq!(seg.len(), 1);
        let choices: Vec<_> = seg
            .iter()
            .map(|&li| cands.per_layer[li].best().expect("has candidates").clone())
            .collect();
        let mappings: Vec<&Mapping> = choices.iter().map(|(m, _)| m).collect();
        let cases = segment_tensor_cases(&net, &arch, seg, &mappings);
        assert!(cases.iter().all(|c| !c.coupled));
        // weight + input + output = 3 tensors.
        assert_eq!(cases.len(), 3);
    }
}
