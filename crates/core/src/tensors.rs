//! Bridging loopnest schedules to AuthBlock assignment problems.
//!
//! Each off-chip tensor becomes one [`AssignmentProblem`] describing a
//! single channel plane (the per-plane overhead is multiplied by the
//! plane count), and the resulting overhead is attributed to the layer
//! during whose execution the traffic occurs:
//!
//! * **Weights** — provisioned at TEE entry (hash writes excluded, paper
//!   §5.2); the reading layer pays hash reads and any tile-misalignment
//!   redundancy. The 4-D weight tensor is flattened to
//!   `(M, C·R·S)`.
//! * **Segment-first ifmaps** — written by the host or by a
//!   post-processing pass, so the AuthBlock lattice can be aligned
//!   freely; the reading layer pays for hash reads plus halo-induced
//!   redundancy.
//! * **Coupled ofmap→ifmap tensors** — the crux of the paper: the
//!   producer's tile grid anchors the lattice, the producer pays hash
//!   traffic for write/partial-sum epochs, and the consumer pays hash +
//!   redundant reads under *its* tiling (or the rehash fallback).
//! * **Segment-last ofmaps** — consumed by a boundary post-processing
//!   op that reads the tensor once, aligned.

use secureloop_arch::Architecture;
use secureloop_authblock::{AccessPattern, AssignmentProblem, Region, TileGrid};
use secureloop_loopnest::{dram_stats, DramTileStats, Mapping};
use secureloop_workload::{ConvLayer, Datatype, Dim};

/// Which layer each side of a tensor's overhead belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Layer index paying the producer-side bits (`None` = off the
    /// measured execution, e.g. host-provisioned weights).
    pub producer: Option<usize>,
    /// Layer index paying the consumer-side bits.
    pub consumer: Option<usize>,
}

/// One tensor's AuthBlock problem plus its plane multiplier and
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorCase {
    /// Human-readable label (for reports): e.g. `"conv3.weight"`.
    pub label: String,
    /// The per-plane problem.
    pub problem: AssignmentProblem,
    /// Channel-plane multiplier.
    pub planes: u64,
    /// Whether this tensor couples two layers (subject to the
    /// cross-layer rehash baseline under `Crypt-Tile-Single`).
    pub coupled: bool,
    /// Attribution of the two overhead shares.
    pub attribution: Attribution,
    /// Which cryptographic-engine stream the producer-side traffic
    /// rides on (always the ofmap engine).
    pub producer_stream: Datatype,
    /// Which stream the consumer-side traffic rides on.
    pub consumer_stream: Datatype,
}

/// Statistics for all three datatypes of one scheduled layer.
pub fn layer_stats(
    layer: &ConvLayer,
    arch: &Architecture,
    mapping: &Mapping,
) -> [DramTileStats; 3] {
    dram_stats(layer, arch, mapping)
}

fn word_tag_bits(layer: &ConvLayer, arch: &Architecture) -> (u32, u32) {
    let tag = arch.crypto().map(|c| c.tag_bits).unwrap_or(64);
    (layer.word_bits(), tag)
}

/// Reader sweep count folding in the filter-tap tiling: if `R`/`S` are
/// tiled at the DRAM level, each `(r, s)` tile revisits the same spatial
/// window grid.
fn reader_sweeps(stats: &DramTileStats) -> u64 {
    stats.sweeps() * stats.tiles[Dim::R] * stats.tiles[Dim::S] * stats.tiles[Dim::N]
}

/// The weight tensor of one layer, flattened to `(M, C·R·S)`.
pub fn weight_case(
    layer_idx: usize,
    layer: &ConvLayer,
    arch: &Architecture,
    stats: &[DramTileStats; 3],
) -> TensorCase {
    let s = stats[Datatype::Weight.index()];
    let (word_bits, tag_bits) = word_tag_bits(layer, arch);
    let region = Region::new(
        layer.dim(Dim::M),
        layer.dim(Dim::C) * layer.dim(Dim::R) * layer.dim(Dim::S),
    );
    let tile_w = (s.tile_dims[Dim::C] * s.tile_dims[Dim::R] * s.tile_dims[Dim::S]).min(region.w);
    let grid = TileGrid::covering(region, s.tile_dims[Dim::M].min(region.h), tile_w);
    TensorCase {
        label: format!("{}.weight", layer.name()),
        problem: AssignmentProblem {
            region,
            // Host-aligned lattice: the whole tensor is the producer
            // tile, so the optimiser may pick any alignment.
            producer_grid: TileGrid::covering(region, region.h, region.w),
            producer_write_sweeps: 0,
            readers: vec![AccessPattern {
                grid,
                sweeps: s.sweeps(),
            }],
            word_bits,
            tag_bits,
        },
        planes: 1,
        coupled: false,
        attribution: Attribution {
            producer: None,
            consumer: Some(layer_idx),
        },
        producer_stream: Datatype::Ofmap,
        consumer_stream: Datatype::Weight,
    }
}

/// Whether a layer is fully-connected-shaped: no spatial extent, so the
/// channel dimension itself is the off-chip geometry (paper §2.1's
/// `P = Q = R = S = 1` encoding).
fn is_fc(layer: &ConvLayer) -> bool {
    layer.dim(Dim::P) == 1 && layer.dim(Dim::Q) == 1
}

/// One channel plane of a layer's ifmap read pattern: window tiles with
/// halo overlap. For FC layers the "plane" is the channel vector
/// itself, carved by the channel tiling.
fn ifmap_reader(layer: &ConvLayer, stats: &DramTileStats, region: Region) -> AccessPattern {
    if is_fc(layer) {
        let c_t = stats.tile_dims[Dim::C].min(region.w);
        return AccessPattern {
            grid: TileGrid {
                n_rows: 1,
                n_cols: stats.tiles[Dim::C],
                tile_h: 1,
                tile_w: c_t,
                step_h: 1,
                step_w: c_t,
                off_h: 0,
                off_w: 0,
            },
            sweeps: stats.sweeps() * stats.tiles[Dim::N],
        };
    }
    let p_t = stats.tile_dims[Dim::P];
    let q_t = stats.tile_dims[Dim::Q];
    let window_h =
        ((p_t - 1) * layer.stride() + (stats.tile_dims[Dim::R] - 1) * layer.dilation() + 1)
            .min(region.h);
    let window_w =
        ((q_t - 1) * layer.stride() + (stats.tile_dims[Dim::S] - 1) * layer.dilation() + 1)
            .min(region.w);
    // Padding shifts the first window to -pad (clipped): the real
    // phase of the window lattice relative to the stored tensor.
    let pad = i64::try_from(layer.pad()).expect("pad fits i64");
    AccessPattern {
        grid: TileGrid {
            n_rows: stats.tiles[Dim::P],
            n_cols: stats.tiles[Dim::Q],
            tile_h: window_h,
            tile_w: window_w,
            step_h: p_t * layer.stride(),
            step_w: q_t * layer.stride(),
            off_h: -pad,
            off_w: -pad,
        },
        sweeps: reader_sweeps(stats),
    }
}

/// The ifmap of the first layer in a segment: producer alignment is
/// free (the tensor was materialised by the host or a post-processing
/// pass), halos are the only misalignment source.
pub fn input_case(
    layer_idx: usize,
    layer: &ConvLayer,
    arch: &Architecture,
    stats: &[DramTileStats; 3],
) -> TensorCase {
    let s = stats[Datatype::Ifmap.index()];
    let (word_bits, tag_bits) = word_tag_bits(layer, arch);
    let (region, planes) = if is_fc(layer) {
        (Region::new(1, layer.ifmap_channels()), 1)
    } else {
        (
            Region::new(layer.ifmap_height(), layer.ifmap_width()),
            layer.ifmap_channels(),
        )
    };
    TensorCase {
        label: format!("{}.ifmap", layer.name()),
        problem: AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, region.h, region.w),
            producer_write_sweeps: 0,
            readers: vec![ifmap_reader(layer, &s, region)],
            word_bits,
            tag_bits,
        },
        planes,
        coupled: false,
        attribution: Attribution {
            producer: None,
            consumer: Some(layer_idx),
        },
        producer_stream: Datatype::Ofmap,
        consumer_stream: Datatype::Ifmap,
    }
}

/// The producer-side grid, sweep count and plane multiplier of a
/// layer's ofmap. FC layers fold the channel vector into the region
/// (one plane); conv layers get one `P×Q` plane per output channel.
fn ofmap_producer(layer: &ConvLayer, stats: &[DramTileStats; 3]) -> (Region, TileGrid, u64, u64) {
    let s = stats[Datatype::Ofmap.index()];
    let (region, grid, planes) = if is_fc(layer) {
        let region = Region::new(1, layer.dim(Dim::M));
        let m_t = s.tile_dims[Dim::M].min(region.w);
        (region, TileGrid::covering(region, 1, m_t), 1)
    } else {
        let region = Region::new(layer.dim(Dim::P), layer.dim(Dim::Q));
        let grid = TileGrid::covering(
            region,
            s.tile_dims[Dim::P].min(region.h),
            s.tile_dims[Dim::Q].min(region.w),
        );
        (region, grid, layer.dim(Dim::M))
    };
    // Every accumulation epoch writes all tags; every partial-sum
    // re-read fetches them again: (epochs + (epochs - distinct)) /
    // distinct tag sweeps per tile.
    let epochs = stats[Datatype::Ofmap.index()].fetch_events;
    let distinct = stats[Datatype::Ofmap.index()].distinct;
    let tag_sweeps = (2 * epochs - distinct) / distinct;
    (region, grid, tag_sweeps, planes)
}

/// A coupled tensor: `producer`'s ofmap consumed as `consumer`'s ifmap
/// within one segment (paper §3.2.1).
pub fn coupled_case(
    producer_idx: usize,
    consumer_idx: usize,
    producer: &ConvLayer,
    consumer: &ConvLayer,
    arch: &Architecture,
    producer_stats: &[DramTileStats; 3],
    consumer_stats: &[DramTileStats; 3],
) -> TensorCase {
    let (word_bits, tag_bits) = word_tag_bits(producer, arch);
    let (region, producer_grid, write_sweeps, planes) = ofmap_producer(producer, producer_stats);
    let cons = consumer_stats[Datatype::Ifmap.index()];
    TensorCase {
        label: format!("{}->{}", producer.name(), consumer.name()),
        problem: AssignmentProblem {
            region,
            producer_grid,
            producer_write_sweeps: write_sweeps,
            readers: vec![ifmap_reader(consumer, &cons, region)],
            word_bits,
            tag_bits,
        },
        planes,
        coupled: true,
        attribution: Attribution {
            producer: Some(producer_idx),
            consumer: Some(consumer_idx),
        },
        producer_stream: Datatype::Ofmap,
        consumer_stream: Datatype::Ifmap,
    }
}

/// The ofmap of the last layer in a segment: consumed once, aligned, by
/// the boundary post-processing pass (or it is the network output).
pub fn output_case(
    layer_idx: usize,
    layer: &ConvLayer,
    arch: &Architecture,
    stats: &[DramTileStats; 3],
) -> TensorCase {
    let (word_bits, tag_bits) = word_tag_bits(layer, arch);
    let (region, producer_grid, write_sweeps, planes) = ofmap_producer(layer, stats);
    TensorCase {
        label: format!("{}.ofmap", layer.name()),
        problem: AssignmentProblem {
            region,
            producer_grid,
            producer_write_sweeps: write_sweeps,
            readers: vec![AccessPattern {
                // A single sequential read of the whole plane: aligned
                // with any lattice, so only hash reads accrue.
                grid: TileGrid::covering(region, region.h, region.w),
                sweeps: 1,
            }],
            word_bits,
            tag_bits,
        },
        planes,
        coupled: false,
        attribution: Attribution {
            producer: Some(layer_idx),
            consumer: Some(layer_idx),
        },
        producer_stream: Datatype::Ofmap,
        consumer_stream: Datatype::Ofmap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::{search, SearchConfig};
    use secureloop_workload::zoo;

    fn setup() -> (Architecture, Vec<ConvLayer>, Vec<Mapping>) {
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let net = zoo::alexnet_conv();
        let layers: Vec<ConvLayer> = net.layers()[2..4].to_vec(); // conv3, conv4
        let mappings: Vec<Mapping> = layers
            .iter()
            .map(|l| {
                search(l, &arch, &SearchConfig::quick())
                    .expect("search succeeds")
                    .best()
                    .unwrap()
                    .0
                    .clone()
            })
            .collect();
        (arch, layers, mappings)
    }

    #[test]
    fn weight_case_reads_cover_all_tiles() {
        let (arch, layers, mappings) = setup();
        let stats = layer_stats(&layers[0], &arch, &mappings[0]);
        let c = weight_case(0, &layers[0], &arch, &stats);
        assert_eq!(c.planes, 1);
        assert!(!c.coupled);
        assert_eq!(c.problem.producer_write_sweeps, 0);
        assert_eq!(c.attribution.producer, None);
        // Reader grid covers the tensor region.
        let covered: u64 = c.problem.readers[0]
            .grid
            .tiles(c.problem.region)
            .map(|t| t.elems())
            .sum();
        assert!(covered >= c.problem.region.elems());
    }

    #[test]
    fn coupled_case_couples_the_right_layers() {
        let (arch, layers, mappings) = setup();
        let ps = layer_stats(&layers[0], &arch, &mappings[0]);
        let cs = layer_stats(&layers[1], &arch, &mappings[1]);
        let c = coupled_case(2, 3, &layers[0], &layers[1], &arch, &ps, &cs);
        assert!(c.coupled);
        assert_eq!(c.attribution.producer, Some(2));
        assert_eq!(c.attribution.consumer, Some(3));
        // conv3 ofmap: 13x13 plane, 384 planes.
        assert_eq!(c.problem.region, Region::new(13, 13));
        assert_eq!(c.planes, 384);
        assert!(c.problem.producer_write_sweeps >= 1);
        // Consumer windows overlap (3x3 stride 1 halo): step < tile.
        let r = &c.problem.readers[0];
        assert!(r.grid.tile_h >= r.grid.step_h);
    }

    #[test]
    fn input_case_models_halos() {
        let (arch, layers, mappings) = setup();
        let stats = layer_stats(&layers[0], &arch, &mappings[0]);
        let c = input_case(0, &layers[0], &arch, &stats);
        assert_eq!(c.planes, 256);
        assert_eq!(c.problem.region, Region::new(13, 13));
        assert_eq!(c.problem.producer_write_sweeps, 0);
    }

    #[test]
    fn output_case_reader_is_aligned() {
        let (arch, layers, mappings) = setup();
        let stats = layer_stats(&layers[1], &arch, &mappings[1]);
        let c = output_case(1, &layers[1], &arch, &stats);
        // Single whole-region reader tile: zero redundancy under the
        // tile-as-AuthBlock strategy.
        let o = secureloop_authblock::evaluate_assignment(
            &c.problem,
            secureloop_authblock::Strategy::TileAsAuthBlock,
        );
        assert_eq!(o.consumer.redundant_bits, 0);
    }

    #[test]
    fn depthwise_consumer_plane_count_matches() {
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let net = zoo::mobilenet_v2();
        // b2_expand (pointwise) -> b2_dw (depthwise).
        let pi = net
            .layers()
            .iter()
            .position(|l| l.name() == "b2_expand")
            .unwrap();
        let ci = pi + 1;
        let p = &net.layers()[pi];
        let cl = &net.layers()[ci];
        assert!(cl.depthwise());
        let pm = search(p, &arch, &SearchConfig::quick())
            .expect("search succeeds")
            .best()
            .unwrap()
            .0
            .clone();
        let cm = search(cl, &arch, &SearchConfig::quick())
            .expect("search succeeds")
            .best()
            .unwrap()
            .0
            .clone();
        let c = coupled_case(
            pi,
            ci,
            p,
            cl,
            &arch,
            &layer_stats(p, &arch, &pm),
            &layer_stats(cl, &arch, &cm),
        );
        assert_eq!(c.planes, p.dim(Dim::M));
        assert_eq!(c.planes, cl.ifmap_channels());
    }
}
