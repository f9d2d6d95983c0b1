//! Program-order DRAM tile-event trace generation.

use std::collections::HashSet;
use std::fmt;

use secureloop_arch::Architecture;
use secureloop_loopnest::{footprint_words, inner_products, Boundary, Mapping, MappingError};
use secureloop_workload::{ConvLayer, Datatype, Dim};

/// Upper bound on walked loop iterations (DRAM × GLB levels); traces
/// larger than this are refused rather than silently sampled.
pub const MAX_STEPS: u64 = 1 << 22;

/// Why a trace could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The mapping is invalid for the layer/architecture.
    InvalidMapping(MappingError),
    /// The temporal nest has more iterations than [`MAX_STEPS`].
    TooLarge {
        /// Iterations the walk would need.
        steps: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidMapping(e) => write!(f, "invalid mapping: {e}"),
            TraceError::TooLarge { steps } => {
                write!(f, "trace would need {steps} steps (cap {MAX_STEPS})")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<MappingError> for TraceError {
    fn from(e: MappingError) -> Self {
        TraceError::InvalidMapping(e)
    }
}

/// One DRAM-boundary transfer: a whole tile of one datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileEvent {
    /// Temporal step (combined DRAM×GLB loop iteration) the transfer
    /// belongs to.
    pub step: u64,
    /// Datatype moved.
    pub dt: Datatype,
    /// Transfer size in data words.
    pub words: u64,
    /// `true` for write-backs (partial sums / final ofmap).
    pub is_write: bool,
}

/// The full trace of one layer execution.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Sparse event list, ordered by `step`.
    pub events: Vec<TileEvent>,
    /// Total temporal steps walked (DRAM × GLB loop iterations).
    pub steps: u64,
    /// Compute cycles spent inside each step (the RF-level nest).
    pub compute_per_step: u64,
    /// Word size in bits.
    pub word_bits: u32,
}

impl Trace {
    /// Total words moved per datatype: `[reads; 3]`, `[writes; 3]`.
    pub fn totals(&self) -> ([u64; 3], [u64; 3]) {
        let mut reads = [0u64; 3];
        let mut writes = [0u64; 3];
        for e in &self.events {
            let i = e.dt.index();
            if e.is_write {
                writes[i] += e.words;
            } else {
                reads[i] += e.words;
            }
        }
        (reads, writes)
    }

    /// Total DRAM traffic in bits.
    pub fn total_bits(&self) -> u64 {
        let (r, w) = self.totals();
        (r.iter().sum::<u64>() + w.iter().sum::<u64>()) * u64::from(self.word_bits)
    }
}

/// Walk the DRAM and GLB loop levels of `mapping` in program order and
/// emit every DRAM tile transfer.
///
/// The walk reproduces the analytical reuse rule operationally: a
/// datatype's tile is (re)fetched whenever its tile identity differs
/// from the previous step's — which is exactly "refetch under any loop
/// at or outside the innermost relevant loop". The integration tests
/// assert the totals equal [`evaluate`](secureloop_loopnest::evaluate)'s
/// access counts.
///
/// # Errors
///
/// [`TraceError::InvalidMapping`] if the mapping fails validation;
/// [`TraceError::TooLarge`] if the combined nest exceeds [`MAX_STEPS`].
pub fn generate_trace(
    layer: &ConvLayer,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Trace, TraceError> {
    mapping.validate(layer, arch)?;

    // The walked loops: DRAM level then GLB level, outermost first.
    let mut loops: Vec<(Dim, u64, bool)> = Vec::new(); // (dim, bound, is_dram_level)
    for &d in &mapping.dram_order {
        if mapping.dram[d] > 1 {
            loops.push((d, mapping.dram[d], true));
        }
    }
    for &d in &mapping.glb_order {
        if mapping.glb[d] > 1 {
            loops.push((d, mapping.glb[d], false));
        }
    }
    let steps: u64 = loops.iter().map(|&(_, b, _)| b).product();
    if steps > MAX_STEPS {
        return Err(TraceError::TooLarge { steps });
    }

    let constraints = arch.dataflow().constraints();
    let glb_tile = inner_products(mapping, Boundary::BelowDram);
    let pe_tile = inner_products(mapping, Boundary::BelowGlb);

    // Per-datatype fetch volume and the loop subset that forms the tile
    // identity.
    struct Stream {
        dt: Datatype,
        words: u64,
        /// Indices into `loops` whose value identifies the tile.
        id_loops: Vec<usize>,
        prev_id: Option<Vec<u64>>,
    }
    let mut streams: Vec<Stream> = Vec::new();
    for dt in [Datatype::Weight, Datatype::Ifmap] {
        let bypass = constraints.bypasses_glb(dt);
        let words = if bypass {
            footprint_words(layer, dt, &pe_tile)
        } else {
            footprint_words(layer, dt, &glb_tile)
        };
        let id_loops = loops
            .iter()
            .enumerate()
            .filter(|&(_, &(d, _, is_dram))| layer.is_relevant(dt, d) && (bypass || is_dram))
            .map(|(i, _)| i)
            .collect();
        streams.push(Stream {
            dt,
            words,
            id_loops,
            prev_id: None,
        });
    }

    // Ofmap: epoch tracking at the DRAM boundary.
    let ofmap_words = footprint_words(layer, Datatype::Ofmap, &glb_tile);
    let ofmap_id_loops: Vec<usize> = loops
        .iter()
        .enumerate()
        .filter(|&(_, &(d, _, is_dram))| is_dram && layer.is_relevant(Datatype::Ofmap, d))
        .map(|(i, _)| i)
        .collect();
    let mut ofmap_prev: Option<Vec<u64>> = None;
    let mut ofmap_seen: HashSet<Vec<u64>> = HashSet::new();

    let mut idx = vec![0u64; loops.len()];
    let mut events = Vec::new();
    let id_of =
        |idx: &[u64], which: &[usize]| -> Vec<u64> { which.iter().map(|&i| idx[i]).collect() };

    for step in 0..steps {
        for s in &mut streams {
            let id = id_of(&idx, &s.id_loops);
            if s.prev_id.as_ref() != Some(&id) {
                events.push(TileEvent {
                    step,
                    dt: s.dt,
                    words: s.words,
                    is_write: false,
                });
                s.prev_id = Some(id);
            }
        }
        {
            let id = id_of(&idx, &ofmap_id_loops);
            if ofmap_prev.as_ref() != Some(&id) {
                // Epoch boundary: write back the outgoing tile, read the
                // incoming one if it holds previously spilled partials.
                if let Some(prev) = ofmap_prev.take() {
                    events.push(TileEvent {
                        step,
                        dt: Datatype::Ofmap,
                        words: ofmap_words,
                        is_write: true,
                    });
                    ofmap_seen.insert(prev);
                }
                if ofmap_seen.contains(&id) {
                    events.push(TileEvent {
                        step,
                        dt: Datatype::Ofmap,
                        words: ofmap_words,
                        is_write: false,
                    });
                }
                ofmap_prev = Some(id);
            }
        }
        // Odometer increment (outermost first layout; advance from the
        // innermost position).
        for i in (0..loops.len()).rev() {
            idx[i] += 1;
            if idx[i] < loops[i].1 {
                break;
            }
            idx[i] = 0;
        }
        let _ = step;
    }
    // Final write-back of the resident tile.
    if ofmap_prev.is_some() || steps == 0 {
        events.push(TileEvent {
            step: steps.saturating_sub(1),
            dt: Datatype::Ofmap,
            words: ofmap_words,
            is_write: true,
        });
    }

    let glb_temporal: u64 = Dim::ALL.iter().map(|&d| mapping.glb[d]).product();
    let dram_temporal: u64 = Dim::ALL.iter().map(|&d| mapping.dram[d]).product();
    let compute_per_step = mapping.temporal_iterations() / (glb_temporal * dram_temporal);

    Ok(Trace {
        events,
        steps: steps.max(1),
        compute_per_step,
        word_bits: layer.word_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_loopnest::evaluate;
    use secureloop_workload::DimMap;

    fn fixture() -> (ConvLayer, Architecture, Mapping) {
        let layer = ConvLayer::builder("t")
            .input_hw(18, 18)
            .channels(8, 16)
            .kernel(3, 3)
            .build()
            .unwrap();
        let arch = Architecture::eyeriss_base();
        let mut m = Mapping::untiled(&layer);
        m.rf = DimMap::splat(1);
        m.rf[Dim::S] = 3;
        m.rf[Dim::C] = 2;
        m.spatial_y[Dim::R] = 3;
        m.spatial_x[Dim::Q] = 8;
        m.glb[Dim::P] = 4;
        m.dram[Dim::M] = 16;
        m.dram[Dim::C] = 4;
        m.dram[Dim::P] = 4;
        m.dram[Dim::Q] = 2;
        // Reduction innermost: the ofmap accumulates without spills.
        m.dram_order = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
        m.validate(&layer, &arch).unwrap();
        (layer, arch, m)
    }

    #[test]
    fn trace_totals_match_analytical_counts() {
        let (layer, arch, m) = fixture();
        let eval = evaluate(&layer, &arch, &m).unwrap();
        let trace = generate_trace(&layer, &arch, &m).unwrap();
        let (reads, writes) = trace.totals();
        assert_eq!(reads, eval.counts.dram_read_words, "reads diverge");
        assert_eq!(writes, eval.counts.dram_write_words, "writes diverge");
        assert_eq!(trace.total_bits(), eval.dram_total_bits);
    }

    #[test]
    fn order_sensitivity_shows_in_the_trace() {
        let (layer, arch, m) = fixture();
        // Reduction loop outermost: partial sums bounce to DRAM.
        let mut bad = m.clone();
        bad.dram_order = [Dim::C, Dim::N, Dim::M, Dim::P, Dim::Q, Dim::R, Dim::S];
        let good_trace = generate_trace(&layer, &arch, &m).unwrap();
        let bad_trace = generate_trace(&layer, &arch, &bad).unwrap();
        let ofmap_reads = |t: &Trace| t.totals().0[2];
        assert!(ofmap_reads(&bad_trace) > ofmap_reads(&good_trace));
        // And both still agree with their own analytical counts.
        for (mm, tt) in [(&m, &good_trace), (&bad, &bad_trace)] {
            let e = evaluate(&layer, &arch, mm).unwrap();
            assert_eq!(tt.totals().0, e.counts.dram_read_words);
        }
    }

    #[test]
    fn untiled_mapping_traces_single_fetches() {
        let layer = ConvLayer::builder("tiny")
            .input_hw(6, 6)
            .channels(2, 2)
            .kernel(3, 3)
            .build()
            .unwrap();
        let arch = Architecture::eyeriss_base();
        let m = Mapping::untiled(&layer);
        // Untiled fails RF capacity on the base arch? 6x6x2 ifmap etc.
        // is small enough; validate first.
        if m.validate(&layer, &arch).is_ok() {
            let t = generate_trace(&layer, &arch, &m).unwrap();
            let (reads, writes) = t.totals();
            assert_eq!(reads[1], layer.tensor_elems(Datatype::Ifmap));
            assert_eq!(writes[2], layer.tensor_elems(Datatype::Ofmap));
            assert_eq!(t.steps, 1);
        }
    }

    #[test]
    fn oversized_nest_is_refused() {
        let layer = ConvLayer::builder("big")
            .input_hw(256, 256)
            .channels(512, 512)
            .kernel(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let arch = Architecture::eyeriss_base();
        let mut m = Mapping::untiled(&layer);
        // Push everything to the DRAM level: astronomically many steps.
        m.dram = layer.bounds();
        m.rf = DimMap::splat(1);
        let err = generate_trace(&layer, &arch, &m).unwrap_err();
        assert!(matches!(err, TraceError::TooLarge { .. }));
    }

    #[test]
    fn invalid_mapping_is_reported() {
        let (layer, arch, m) = fixture();
        let mut bad = m;
        bad.dram[Dim::M] = 3;
        let err = generate_trace(&layer, &arch, &bad).unwrap_err();
        assert!(matches!(err, TraceError::InvalidMapping(_)));
        assert!(err.to_string().contains("invalid mapping"));
    }
}
