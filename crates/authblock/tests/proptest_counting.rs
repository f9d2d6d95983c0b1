//! Property tests: the closed-form congruence counter must agree with
//! brute-force block enumeration on arbitrary geometry (the paper's
//! central §4.2 claim is that the analytical formulation is exact, not
//! approximate).

use proptest::prelude::*;
// The crate's `Strategy` enum shadows proptest's trait of the same name;
// re-import the trait anonymously so combinator methods resolve.
use proptest::strategy::Strategy as _;

use secureloop_authblock::count::{count_blocks, count_blocks_brute, count_blocks_rows};
use secureloop_authblock::optimize::optimize_sizes;
use secureloop_authblock::{
    evaluate_assignment, optimize, AccessPattern, AssignmentChoice, AssignmentProblem,
    BlockAssignment, Orientation, Region, SplitOverhead, Strategy, TileGrid, TileRect,
};

fn geometry() -> impl proptest::strategy::Strategy<Value = (Region, TileRect, BlockAssignment)> {
    (1u64..40, 1u64..40).prop_flat_map(|(h, w)| {
        (
            Just(Region::new(h, w)),
            (0..h, 0..w).prop_flat_map(move |(r0, c0)| {
                (1..=h - r0, 1..=w - c0)
                    .prop_map(move |(rows, cols)| TileRect::new(r0, c0, rows, cols))
            }),
            (
                1u64..=h * w + 3,
                prop_oneof![Just(Orientation::Horizontal), Just(Orientation::Vertical)],
            )
                .prop_map(|(u, o)| BlockAssignment::new(o, u)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn congruence_matches_brute_force((region, tile, assign) in geometry()) {
        let brute = count_blocks_brute(region, tile, assign);
        let rows = count_blocks_rows(region, tile, assign);
        let fast = count_blocks(region, tile, assign);
        prop_assert_eq!(brute, rows);
        prop_assert_eq!(brute, fast);
    }

    #[test]
    fn fetched_covers_tile((region, tile, assign) in geometry()) {
        let c = count_blocks(region, tile, assign);
        prop_assert!(c.fetched_elems >= tile.elems());
        prop_assert!(c.fetched_elems <= region.elems());
        prop_assert!(c.blocks >= 1);
        prop_assert!(c.blocks <= assign.blocks_in(region));
    }

    #[test]
    fn unit_blocks_are_exact((region, tile, _a) in geometry()) {
        for o in Orientation::ALL {
            let c = count_blocks(region, tile, BlockAssignment::new(o, 1));
            prop_assert_eq!(c.blocks, tile.elems());
            prop_assert_eq!(c.fetched_elems, tile.elems());
        }
    }

    #[test]
    fn block_count_monotone_in_size_inverse((region, tile, assign) in geometry()) {
        // Doubling the block size cannot increase the number of blocks
        // by more than it decreases the hash count: blocks(u) >= blocks(2u).
        let a2 = BlockAssignment::new(assign.orientation, assign.size * 2);
        let c1 = count_blocks(region, tile, assign);
        let c2 = count_blocks(region, tile, a2);
        prop_assert!(c2.blocks <= c1.blocks);
    }
}

fn problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    (2u64..24, 2u64..24).prop_flat_map(|(h, w)| {
        (1u64..=h, 1u64..=w, 1u64..=h, 1u64..=w, 1u64..4).prop_map(
            move |(pt_h, pt_w, rt_h, rt_w, sweeps)| {
                let region = Region::new(h, w);
                AssignmentProblem {
                    region,
                    producer_grid: TileGrid::covering(region, pt_h, pt_w),
                    producer_write_sweeps: 1,
                    readers: vec![AccessPattern {
                        grid: TileGrid::covering(region, rt_h, rt_w),
                        sweeps,
                    }],
                    word_bits: 8,
                    tag_bits: 64,
                }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimizer_never_worse_than_baselines(p in problem()) {
        let best = secureloop_authblock::optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        let rehash = evaluate_assignment(&p, Strategy::Rehash);
        prop_assert!(best.overhead.total().total_bits() <= tile.total().total_bits());
        prop_assert!(best.overhead.total().total_bits() <= rehash.total().total_bits());
    }

    #[test]
    fn assigned_strategies_have_no_rehash_traffic(p in problem()) {
        let o = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 4)),
        );
        prop_assert_eq!(o.total().rehash_bits, 0);
    }
}

/// Randomized halo geometries: a reader whose tiles overlap (window
/// larger than step — the convolution-input case of paper Fig. 10).
fn halo_problem() -> impl proptest::strategy::Strategy<Value = (AssignmentProblem, BlockAssignment)>
{
    (4u64..20, 4u64..20).prop_flat_map(|(h, w)| {
        (
            1u64..=h,
            1u64..=w,
            (2u64..=h.min(6), 2u64..=w.min(6))
                .prop_flat_map(|(win_h, win_w)| (Just(win_h), Just(win_w), 1..win_h, 1..win_w)),
            prop_oneof![Just(Orientation::Horizontal), Just(Orientation::Vertical)],
            1u64..=24,
            1u64..4,
        )
            .prop_map(
                move |(pt_h, pt_w, (win_h, win_w, step_h, step_w), orientation, size, sweeps)| {
                    let region = Region::new(h, w);
                    let problem = AssignmentProblem {
                        region,
                        producer_grid: TileGrid::covering(region, pt_h, pt_w),
                        producer_write_sweeps: 1,
                        readers: vec![AccessPattern {
                            grid: TileGrid::covering_with_halo(
                                region, win_h, win_w, step_h, step_w,
                            ),
                            sweeps,
                        }],
                        word_bits: 8,
                        tag_bits: 64,
                    };
                    (problem, BlockAssignment::new(orientation, size))
                },
            )
    })
}

/// Element-by-element enumeration oracle for the consumer side of an
/// assignment: per reader tile, per intersected producer tile, count
/// blocks with `count_blocks_brute` on the producer-local lattice —
/// mirroring `evaluate_assignment`'s decomposition but swapping the
/// closed-form congruence counter for exhaustive enumeration.
fn brute_consumer_overhead(problem: &AssignmentProblem, assign: BlockAssignment) -> (u64, u64) {
    let word = u64::from(problem.word_bits);
    let tag = u64::from(problem.tag_bits);
    let producers: Vec<TileRect> = problem.producer_grid.tiles(problem.region).collect();
    let mut hash_bits = 0u64;
    let mut redundant_bits = 0u64;
    for reader in &problem.readers {
        for t in reader.grid.tiles(problem.region) {
            let mut blocks = 0u64;
            let mut fetched = 0u64;
            for p in &producers {
                let Some(sub) = t.intersect(p) else { continue };
                let local_region = Region::new(p.rows, p.cols);
                let local_tile =
                    TileRect::new(sub.row0 - p.row0, sub.col0 - p.col0, sub.rows, sub.cols);
                let c = count_blocks_brute(local_region, local_tile, assign);
                blocks += c.blocks;
                fetched += c.fetched_elems;
            }
            hash_bits += blocks * tag * reader.sweeps;
            redundant_bits += (fetched - t.elems()) * word * reader.sweeps;
        }
    }
    (hash_bits, redundant_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn halo_geometries_match_the_enumeration_oracle((p, assign) in halo_problem()) {
        let analytical = evaluate_assignment(&p, Strategy::Assigned(assign));
        let (hash_bits, redundant_bits) = brute_consumer_overhead(&p, assign);
        prop_assert_eq!(
            analytical.consumer.hash_bits, hash_bits,
            "hash bits diverge on {:?} with {:?}", p, assign
        );
        prop_assert_eq!(
            analytical.consumer.redundant_bits, redundant_bits,
            "redundant bits diverge on {:?} with {:?}", p, assign
        );
        prop_assert_eq!(analytical.consumer.rehash_bits, 0);
    }

    #[test]
    fn halo_optimizer_never_worse_than_baselines((p, _a) in halo_problem()) {
        let best = secureloop_authblock::optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        prop_assert!(
            best.overhead.total().total_bits() <= tile.total().total_bits(),
            "optimizer regressed below tile-as-AuthBlock on {:?}", p
        );
    }
}

/// Attention/FC-shaped geometry: regions far from the square-ish
/// conv-typical shapes above. Attention's token projections flatten
/// to tall-skinny `seq x 1` planes, FC layers to flat `1 x d`
/// vectors, and ViT patch embeddings to short-and-wide strips —
/// extents where one axis is 1 and the congruence counter's
/// row/column decomposition degenerates.
fn attention_geometry(
) -> impl proptest::strategy::Strategy<Value = (Region, TileRect, BlockAssignment)> {
    prop_oneof![
        // seq x 1 token plane (attention Q/K/V projections).
        (1u64..320).prop_map(|h| (h, 1u64)),
        // 1 x d channel vector (FC / LLM-decode GEMV).
        (1u64..320).prop_map(|w| (1u64, w)),
        // Short-and-wide strip (ViT patch rows, wide-and-flat FC tiles).
        (1u64..4, 32u64..256),
    ]
    .prop_flat_map(|(h, w)| {
        (
            Just(Region::new(h, w)),
            (0..h, 0..w).prop_flat_map(move |(r0, c0)| {
                (1..=h - r0, 1..=w - c0)
                    .prop_map(move |(rows, cols)| TileRect::new(r0, c0, rows, cols))
            }),
            (
                1u64..=h * w + 3,
                prop_oneof![Just(Orientation::Horizontal), Just(Orientation::Vertical)],
            )
                .prop_map(|(u, o)| BlockAssignment::new(o, u)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn attention_shapes_match_brute_force((region, tile, assign) in attention_geometry()) {
        let brute = count_blocks_brute(region, tile, assign);
        let rows = count_blocks_rows(region, tile, assign);
        let fast = count_blocks(region, tile, assign);
        prop_assert_eq!(brute, rows, "rows diverge on {:?} {:?} {:?}", region, tile, assign);
        prop_assert_eq!(brute, fast, "fast diverges on {:?} {:?} {:?}", region, tile, assign);
    }

    #[test]
    fn extent_one_axes_are_orientation_invariant((region, tile, assign) in attention_geometry()) {
        // On a 1-wide (or 1-tall) region both orientations walk the
        // same flattened element order, so the counts must agree.
        prop_assume!(region.h == 1 || region.w == 1);
        let h = count_blocks(region, tile, BlockAssignment::new(Orientation::Horizontal, assign.size));
        let v = count_blocks(region, tile, BlockAssignment::new(Orientation::Vertical, assign.size));
        prop_assert_eq!(h, v);
    }
}

/// FC-shaped assignment problems: extent-1 regions where producer and
/// reader grids tile a flat vector (no halo — FC readers are disjoint).
fn fc_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    (prop_oneof![
        (1u64..200).prop_map(|w| (1u64, w)),
        (1u64..200).prop_map(|h| (h, 1u64)),
    ])
    .prop_flat_map(|(h, w)| {
        (1u64..=h, 1u64..=w, 1u64..=h, 1u64..=w, 1u64..4).prop_map(
            move |(pt_h, pt_w, rt_h, rt_w, sweeps)| {
                let region = Region::new(h, w);
                AssignmentProblem {
                    region,
                    producer_grid: TileGrid::covering(region, pt_h, pt_w),
                    producer_write_sweeps: 1,
                    readers: vec![AccessPattern {
                        grid: TileGrid::covering(region, rt_h, rt_w),
                        sweeps,
                    }],
                    word_bits: 8,
                    tag_bits: 64,
                }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fc_vectors_match_the_enumeration_oracle(p in fc_problem()) {
        let assign = BlockAssignment::new(Orientation::Horizontal, 4);
        let analytical = evaluate_assignment(&p, Strategy::Assigned(assign));
        let (hash_bits, redundant_bits) = brute_consumer_overhead(&p, assign);
        prop_assert_eq!(analytical.consumer.hash_bits, hash_bits, "on {:?}", p);
        prop_assert_eq!(analytical.consumer.redundant_bits, redundant_bits, "on {:?}", p);
    }

    #[test]
    fn fc_optimizer_never_worse_than_baselines(p in fc_problem()) {
        let best = secureloop_authblock::optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        let rehash = evaluate_assignment(&p, Strategy::Rehash);
        prop_assert!(best.overhead.total().total_bits() <= tile.total().total_bits());
        prop_assert!(best.overhead.total().total_bits() <= rehash.total().total_bits());
    }
}

/// Dilated-convolution halo geometry: reader windows built the way the
/// loopnest footprint model builds them — `(p_t-1)*stride +
/// (taps-1)*dilation + 1` wide, stepping by `p_t*stride` — so spaced
/// taps stretch the window without adding rows read per tap. Regions
/// lean tall-skinny to mirror attention-era feature maps.
fn dilated_halo_problem(
) -> impl proptest::strategy::Strategy<Value = (AssignmentProblem, BlockAssignment)> {
    (8u64..40, 4u64..16).prop_flat_map(|(h, w)| {
        (
            (1u64..=h, 1u64..=w),
            // (output rows per tile, stride, kernel taps, dilation)
            (1u64..4, 1u64..4, 2u64..5, 1u64..5),
            (1u64..4, 1u64..4, 2u64..5, 1u64..5),
            prop_oneof![Just(Orientation::Horizontal), Just(Orientation::Vertical)],
            (1u64..=32, 1u64..4),
        )
            .prop_map(
                move |((pt_h, pt_w), row_geom, col_geom, orientation, (size, sweeps))| {
                    let window = |(pt, s, taps, d): (u64, u64, u64, u64), extent: u64| {
                        let win = ((pt - 1) * s + (taps - 1) * d + 1).min(extent);
                        let step = (pt * s).min(extent);
                        (win, step)
                    };
                    let (win_h, step_h) = window(row_geom, h);
                    let (win_w, step_w) = window(col_geom, w);
                    let region = Region::new(h, w);
                    let problem = AssignmentProblem {
                        region,
                        producer_grid: TileGrid::covering(region, pt_h, pt_w),
                        producer_write_sweeps: 1,
                        readers: vec![AccessPattern {
                            grid: TileGrid::covering_with_halo(
                                region, win_h, win_w, step_h, step_w,
                            ),
                            sweeps,
                        }],
                        word_bits: 8,
                        tag_bits: 64,
                    };
                    (problem, BlockAssignment::new(orientation, size))
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dilated_halos_match_the_enumeration_oracle((p, assign) in dilated_halo_problem()) {
        let analytical = evaluate_assignment(&p, Strategy::Assigned(assign));
        let (hash_bits, redundant_bits) = brute_consumer_overhead(&p, assign);
        prop_assert_eq!(
            analytical.consumer.hash_bits, hash_bits,
            "hash bits diverge on {:?} with {:?}", p, assign
        );
        prop_assert_eq!(
            analytical.consumer.redundant_bits, redundant_bits,
            "redundant bits diverge on {:?} with {:?}", p, assign
        );
    }

    #[test]
    fn dilated_halo_optimizer_never_worse((p, _a) in dilated_halo_problem()) {
        let best = secureloop_authblock::optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        prop_assert!(
            best.overhead.total().total_bits() <= tile.total().total_bits(),
            "optimizer regressed below tile-as-AuthBlock on {:?}", p
        );
    }
}

fn channel_request(
) -> impl proptest::strategy::Strategy<Value = (secureloop_authblock::ChannelRequest, u64)> {
    use secureloop_authblock::ChannelRequest;
    (2u64..8, 2u64..8, 2u64..24).prop_flat_map(|(rows, cols, ch)| {
        (
            (0..rows, 0..cols).prop_flat_map(move |(r0, c0)| {
                (1..=rows - r0, 1..=cols - c0)
                    .prop_map(move |(wr, wc)| TileRect::new(r0, c0, wr, wc))
            }),
            (0..ch).prop_flat_map(move |ch0| (Just(ch0), 1..=ch - ch0)),
            1u64..=rows * cols * ch + 2,
        )
            .prop_map(move |(window, (chan0, chan_count), u)| {
                (
                    ChannelRequest {
                        pixel_rows: rows,
                        pixel_cols: cols,
                        channels: ch,
                        window,
                        chan0,
                        chan_count,
                    },
                    u,
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn channel_major_matches_brute_force((req, u) in channel_request()) {
        use secureloop_authblock::channel::{count_channel_blocks, count_channel_blocks_brute};
        let fast = count_channel_blocks(&req, u);
        let brute = count_channel_blocks_brute(&req, u);
        prop_assert_eq!(fast, brute, "req {:?} u {}", req, u);
        prop_assert!(fast.fetched_elems >= req.needed_elems());
    }
}

/// Grouped-convolution channel requests: the ifmap footprint of a
/// grouped layer spans whole channel groups (`ifmap_tile_channels`
/// rounds the span to group boundaries), so `chan0` and `chan_count`
/// are always multiples of the per-group channel count. The channel
/// dimension is large relative to the pixel plane — the ResNeXt-style
/// regime (many channels, small spatial tiles).
fn grouped_channel_request(
) -> impl proptest::strategy::Strategy<Value = (secureloop_authblock::ChannelRequest, u64)> {
    use secureloop_authblock::ChannelRequest;
    (2u64..6, 2u64..6, 2u64..5, 1u64..8).prop_flat_map(|(rows, cols, groups, per_group)| {
        let ch = groups * per_group;
        (
            (0..rows, 0..cols).prop_flat_map(move |(r0, c0)| {
                (1..=rows - r0, 1..=cols - c0)
                    .prop_map(move |(wr, wc)| TileRect::new(r0, c0, wr, wc))
            }),
            // Span one or more whole groups, starting on a group edge.
            (0..groups).prop_flat_map(move |g0| (Just(g0), 1..=groups - g0)),
            1u64..=rows * cols * ch + 2,
        )
            .prop_map(move |(window, (g0, g_count), u)| {
                (
                    ChannelRequest {
                        pixel_rows: rows,
                        pixel_cols: cols,
                        channels: ch,
                        window,
                        chan0: g0 * per_group,
                        chan_count: g_count * per_group,
                    },
                    u,
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grouped_channel_spans_match_brute_force((req, u) in grouped_channel_request()) {
        use secureloop_authblock::channel::{count_channel_blocks, count_channel_blocks_brute};
        let fast = count_channel_blocks(&req, u);
        let brute = count_channel_blocks_brute(&req, u);
        prop_assert_eq!(fast, brute, "req {:?} u {}", req, u);
        prop_assert!(fast.fetched_elems >= req.needed_elems());
    }
}

/// Per-tile tile enumeration, one tile at a time with both axes clipped
/// together — the reference for `TileGrid::tiles`.
fn reference_tiles(g: &TileGrid, region: Region) -> Vec<TileRect> {
    let mut out = Vec::new();
    for i in 0..g.n_rows {
        for j in 0..g.n_cols {
            let r_signed = (i * g.step_h) as i64 + g.off_h;
            let c_signed = (j * g.step_w) as i64 + g.off_w;
            let r0 = r_signed.max(0) as u64;
            let c0 = c_signed.max(0) as u64;
            if r0 >= region.h || c0 >= region.w {
                continue;
            }
            let clip_h = (r0 as i64 - r_signed) as u64;
            let clip_w = (c0 as i64 - c_signed) as u64;
            if g.tile_h <= clip_h || g.tile_w <= clip_w {
                continue;
            }
            out.push(TileRect::new(
                r0,
                c0,
                (g.tile_h - clip_h).min(region.h - r0),
                (g.tile_w - clip_w).min(region.w - c0),
            ));
        }
    }
    out
}

/// The per-tile evaluator: every reader tile intersected with every
/// producer tile, one `count_blocks` per overlap. The reference the
/// whole-problem evaluator must match bit for bit.
fn per_tile_reference(problem: &AssignmentProblem, strategy: Strategy) -> SplitOverhead {
    let word = u64::from(problem.word_bits);
    let tag = u64::from(problem.tag_bits);
    let producers = reference_tiles(&problem.producer_grid, problem.region);
    let mut out = SplitOverhead::default();
    match strategy {
        Strategy::TileAsAuthBlock | Strategy::Assigned(_) => {
            let assign = match strategy {
                Strategy::Assigned(a) => Some(a),
                _ => None,
            };
            let producer_blocks: u64 = producers
                .iter()
                .map(|p| match assign {
                    None => 1,
                    Some(a) => a.blocks_in(Region::new(p.rows, p.cols)),
                })
                .sum();
            out.producer.hash_bits += producer_blocks * tag * problem.producer_write_sweeps;
            for reader in &problem.readers {
                for t in reference_tiles(&reader.grid, problem.region) {
                    let mut blocks = 0u64;
                    let mut fetched = 0u64;
                    for p in &producers {
                        let Some(sub) = t.intersect(p) else { continue };
                        match assign {
                            None => {
                                blocks += 1;
                                fetched += p.elems();
                            }
                            Some(a) => {
                                let local_region = Region::new(p.rows, p.cols);
                                let local_tile = TileRect::new(
                                    sub.row0 - p.row0,
                                    sub.col0 - p.col0,
                                    sub.rows,
                                    sub.cols,
                                );
                                let c = count_blocks(local_region, local_tile, a);
                                blocks += c.blocks;
                                fetched += c.fetched_elems;
                            }
                        }
                    }
                    out.consumer.hash_bits += blocks * tag * reader.sweeps;
                    out.consumer.redundant_bits += (fetched - t.elems()) * word * reader.sweeps;
                }
            }
        }
        Strategy::ReaderAligned => {
            for reader in &problem.readers {
                let tiles = reference_tiles(&reader.grid, problem.region).len() as u64;
                out.consumer.hash_bits += tiles * tag * reader.sweeps;
            }
        }
        Strategy::Rehash => {
            out.producer.hash_bits += producers.len() as u64 * tag * problem.producer_write_sweeps;
            out.consumer.rehash_bits +=
                problem.region.elems() * word + producers.len() as u64 * tag;
            for reader in &problem.readers {
                let tiles = reference_tiles(&reader.grid, problem.region);
                let rewrite_elems: u64 = tiles.iter().map(|t| t.elems()).sum();
                let n = tiles.len() as u64;
                out.consumer.rehash_bits += rewrite_elems * word + n * tag;
                out.consumer.hash_bits += n * tag * reader.sweeps;
            }
        }
    }
    out
}

/// `optimize`'s selection rule over the same candidate sizes, priced by
/// the per-tile reference.
fn reference_optimize(problem: &AssignmentProblem) -> AssignmentChoice {
    let mut strategies = vec![Strategy::TileAsAuthBlock, Strategy::Rehash];
    if problem.producer_write_sweeps == 0 {
        strategies.push(Strategy::ReaderAligned);
    }
    let (sizes, _) = optimize_sizes(problem);
    for orientation in Orientation::ALL {
        for &size in &sizes {
            strategies.push(Strategy::Assigned(BlockAssignment::new(orientation, size)));
        }
    }
    let mut best: Option<AssignmentChoice> = None;
    for strategy in strategies {
        let overhead = per_tile_reference(problem, strategy);
        let bits = overhead.total().total_bits();
        if best.is_none_or(|b| bits < b.overhead.total().total_bits()) {
            best = Some(AssignmentChoice { strategy, overhead });
        }
    }
    best.expect("at least the baselines")
}

/// One reader: a halo or gapped window grid, optionally shifted to a
/// negative origin (padded convolution), swept 1–3 times.
fn reader(h: u64, w: u64) -> impl proptest::strategy::Strategy<Value = AccessPattern> {
    (
        (1u64..=h.min(7), 1u64..=w.min(7)),
        (1u64..=8, 1u64..=8),
        (0u64..3, 0u64..3),
        1u64..4,
    )
        .prop_map(
            move |((win_h, win_w), (step_h, step_w), (pad_h, pad_w), sweeps)| {
                let region = Region::new(h, w);
                AccessPattern {
                    grid: TileGrid::covering_with_halo(region, win_h, win_w, step_h, step_w)
                        .with_offset(-(pad_h as i64), -(pad_w as i64)),
                    sweeps,
                }
            },
        )
}

/// One reader of a square plane whose windows, steps and padding are
/// the same on both axes, so the grid is its own transpose.
fn square_reader(n: u64) -> impl proptest::strategy::Strategy<Value = AccessPattern> {
    (1u64..=n.min(7), 1u64..=8, 0u64..3, 1u64..4).prop_map(move |(win, step, pad, sweeps)| {
        let region = Region::new(n, n);
        AccessPattern {
            grid: TileGrid::covering_with_halo(region, win, win, step, step)
                .with_offset(-(pad as i64), -(pad as i64)),
            sweeps,
        }
    })
}

/// Square problems: the plane, the producer tiles and every reader
/// grid are symmetric under transposition, so each Horizontal lattice
/// ties with the Vertical one of the same size and the tie rule picks.
fn square_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    (3u64..20).prop_flat_map(|n| {
        (
            1u64..=n,
            prop::collection::vec(square_reader(n), 1..4),
            0u64..4,
            prop_oneof![Just(8u32), Just(16u32)],
        )
            .prop_map(move |(tile, readers, producer_write_sweeps, word_bits)| {
                let region = Region::new(n, n);
                AssignmentProblem {
                    region,
                    producer_grid: TileGrid::covering(region, tile, tile),
                    producer_write_sweeps,
                    readers,
                    word_bits,
                    tag_bits: 64,
                }
            })
    })
}

/// Whole problems, half rectangular and half square.
fn whole_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    prop_oneof![rectangular_problem(), square_problem()]
}

/// Rectangular problems: several readers, multi-tile producer grids
/// with clipped edge tiles, and 0–3 producer write sweeps.
fn rectangular_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    (3u64..20, 3u64..20).prop_flat_map(|(h, w)| {
        (
            (1u64..=h, 1u64..=w),
            prop::collection::vec(reader(h, w), 1..4),
            0u64..4,
            prop_oneof![Just(8u32), Just(16u32)],
        )
            .prop_map(
                move |((pt_h, pt_w), readers, producer_write_sweeps, word_bits)| {
                    let region = Region::new(h, w);
                    AssignmentProblem {
                        region,
                        producer_grid: TileGrid::covering(region, pt_h, pt_w),
                        producer_write_sweeps,
                        readers,
                        word_bits,
                        tag_bits: 64,
                    }
                },
            )
    })
}

fn check_against_reference(p: &AssignmentProblem) -> Result<(), TestCaseError> {
    for g in std::iter::once(&p.producer_grid).chain(p.readers.iter().map(|r| &r.grid)) {
        let tiles: Vec<TileRect> = g.tiles(p.region).collect();
        prop_assert_eq!(tiles, reference_tiles(g, p.region), "grid {:?}", g);
    }
    let mut strategies = vec![Strategy::TileAsAuthBlock, Strategy::Rehash];
    if p.producer_write_sweeps == 0 {
        strategies.push(Strategy::ReaderAligned);
    }
    for size in [1, 2, 3, 5, 8, p.region.w, p.region.h * p.region.w + 1] {
        for o in Orientation::ALL {
            strategies.push(Strategy::Assigned(BlockAssignment::new(o, size)));
        }
    }
    for s in strategies {
        prop_assert_eq!(
            evaluate_assignment(p, s),
            per_tile_reference(p, s),
            "{:?} on {:?}",
            s,
            p
        );
    }
    prop_assert_eq!(optimize(p), reference_optimize(p), "on {:?}", p);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn whole_problem_evaluation_matches_the_per_tile_reference(p in whole_problem()) {
        check_against_reference(&p)?;
    }

    #[test]
    fn square_problems_tie_across_orientations(p in square_problem()) {
        for size in [1, 2, 3, 5, p.region.w, p.region.elems()] {
            let [h, v] = Orientation::ALL
                .map(|o| evaluate_assignment(&p, Strategy::Assigned(BlockAssignment::new(o, size))));
            prop_assert_eq!(h.total(), v.total(), "size {} on {:?}", size, p);
        }
    }
}

#[test]
fn thinned_search_matches_the_per_tile_reference() {
    // A 3x3 halo reader stepping 1 over a 56x56 plane: enough reader
    // tiles that OPTIMIZE_BUDGET thins the candidate sizes.
    let region = Region::new(56, 56);
    let p = AssignmentProblem {
        region,
        producer_grid: TileGrid::covering(region, 14, 28),
        producer_write_sweeps: 2,
        readers: vec![AccessPattern {
            grid: TileGrid::covering_with_halo(region, 3, 3, 1, 1).with_offset(-1, -1),
            sweeps: 3,
        }],
        word_bits: 8,
        tag_bits: 64,
    };
    assert!(optimize_sizes(&p).1, "the budget must thin this problem");
    check_against_reference(&p).unwrap();
}
