//! The correctness gate: every op's output is checked, untimed, before
//! it counts as completed.

use secureloop::segment::segment_tensor_cases;
use secureloop::NetworkSchedule;
use secureloop_arch::Architecture;
use secureloop_authblock::count::{count_blocks, count_blocks_brute};
use secureloop_authblock::{
    evaluate_assignment, optimize, AssignmentProblem, BlockAssignment, Orientation, Region,
    Strategy, TileRect,
};
use secureloop_loopnest::Mapping;
use secureloop_workload::Network;

use crate::gen::Rng;

/// Tensor problems re-optimised per checked schedule.
const PROBLEMS_PER_SCHEDULE: usize = 2;
/// Reader tiles whose block counts are cross-checked per problem.
const TILES_PER_PROBLEM: usize = 3;
/// Seeded lattices checked besides the optimiser's choice.
const SEEDED_LATTICES: usize = 2;
/// Largest side of a tile handed to the brute-force counter, which
/// enumerates every element; larger intersections are clipped to their
/// top-left corner, which keeps the geometry real and the check cheap.
const BRUTE_SIDE: u64 = 256;

/// Check one schedule. Returns the reasons it is wrong (empty when it
/// passes). `rng` picks the sampled tensor problems and tiles.
pub fn check_schedule(
    net: &Network,
    arch: &Architecture,
    sched: &NetworkSchedule,
    rng: &mut Rng,
) -> Vec<String> {
    let mut errors = Vec::new();
    let summed: u64 = sched.layers.iter().map(|l| l.latency_cycles).sum();
    if summed != sched.total_latency_cycles {
        errors.push(format!(
            "total latency {} is not the sum of its layer latencies {summed}",
            sched.total_latency_cycles
        ));
    }
    let problems = tensor_problems(net, arch, sched);
    if problems.is_empty() {
        return errors;
    }
    for _ in 0..PROBLEMS_PER_SCHEDULE {
        let p = &problems[rng.below(problems.len())];
        errors.extend(check_problem(p, rng));
    }
    errors
}

/// Rebuild every tensor problem of `sched` from its final picks, through
/// the same segment runs the scheduler used (a failed layer splits its
/// segment).
fn tensor_problems(
    net: &Network,
    arch: &Architecture,
    sched: &NetworkSchedule,
) -> Vec<AssignmentProblem> {
    // `layers` holds the scheduled layers only, in network order.
    let mut picks: Vec<Option<&Mapping>> = Vec::with_capacity(net.len());
    let mut scheduled = sched.layers.iter();
    for (_, outcome) in &sched.outcomes {
        picks.push(if outcome.is_scheduled() {
            scheduled.next().map(|l| &l.mapping)
        } else {
            None
        });
    }
    let mut problems = Vec::new();
    for seg in net.segments() {
        for run in seg.layers.split(|&li| picks[li].is_none()) {
            if run.is_empty() {
                continue;
            }
            let mappings: Vec<&Mapping> = run
                .iter()
                .map(|&li| picks[li].expect("runs hold scheduled layers"))
                .collect();
            problems.extend(
                segment_tensor_cases(net, arch, run, &mappings)
                    .into_iter()
                    .map(|c| c.problem),
            );
        }
    }
    problems
}

fn check_problem(p: &AssignmentProblem, rng: &mut Rng) -> Vec<String> {
    let mut errors = Vec::new();
    let label = format!("{}x{} tensor", p.region.h, p.region.w);
    let chosen = optimize(p);
    let best = chosen.overhead.total().total_bits();
    for baseline in [Strategy::TileAsAuthBlock, Strategy::Rehash] {
        let bits = evaluate_assignment(p, baseline).total().total_bits();
        if best > bits {
            errors.push(format!(
                "{label}: optimize chose {best} bits, worse than {baseline:?} at {bits}"
            ));
        }
    }
    // The chosen lattice, plus seeded ones with log-uniform block sizes:
    // small blocks are where the closed form's row-gap term is exercised.
    let cap = (p.producer_grid.tile_h * p.producer_grid.tile_w).max(1);
    let mut lattices: Vec<BlockAssignment> = (0..SEEDED_LATTICES)
        .map(|_| {
            let orientation = Orientation::ALL[rng.below(Orientation::ALL.len())];
            let span = 1u64 << rng.below(64 - cap.leading_zeros() as usize);
            BlockAssignment::new(orientation, 1 + rng.next_u64() % span.min(cap))
        })
        .collect();
    if let Strategy::Assigned(a) = chosen.strategy {
        lattices.push(a);
    }
    let producers: Vec<TileRect> = p.producer_grid.tiles(p.region).collect();
    for _ in 0..TILES_PER_PROBLEM {
        let Some(reader) = p.readers.get(rng.below(p.readers.len().max(1))) else {
            break;
        };
        let n = reader.grid.len().max(1);
        let Some(tile) = reader
            .grid
            .tiles(p.region)
            .nth((rng.next_u64() % n) as usize)
        else {
            continue;
        };
        for prod in &producers {
            let Some(sub) = tile.intersect(prod) else {
                continue;
            };
            let local_region = Region::new(prod.rows, prod.cols);
            let local = TileRect::new(
                sub.row0 - prod.row0,
                sub.col0 - prod.col0,
                sub.rows.min(BRUTE_SIDE),
                sub.cols.min(BRUTE_SIDE),
            );
            for &assign in &lattices {
                let fast = count_blocks(local_region, local, assign);
                let brute = count_blocks_brute(local_region, local, assign);
                if fast != brute {
                    errors.push(format!(
                        "{label}: count_blocks {fast:?} != brute force {brute:?} \
                         for {local:?} in {local_region:?} under {assign}"
                    ));
                }
            }
        }
    }
    errors
}
