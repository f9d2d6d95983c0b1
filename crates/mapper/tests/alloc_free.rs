//! Pins the allocation-free contract of the draw → validate → evaluate
//! loop: once a sampler exists, drawing a mapping (uniform or guided)
//! and evaluating it touch no heap. A counting global allocator tallies
//! allocations per thread, so the check is immune to other tests
//! running in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secureloop_arch::{Architecture, Dataflow};
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_loopnest::{evaluate, Mapping};
use secureloop_mapper::{GuidedSampler, MappingSampler};
use secureloop_workload::zoo;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `const`
// thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn draw_and_evaluate_allocate_nothing() {
    let layers = [
        zoo::alexnet_conv().layers()[0].clone(),
        zoo::resnet18().layers()[5].clone(),
        zoo::mobilenet_v2().layers()[1].clone(),
    ];
    let secure =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    for dataflow in [
        Dataflow::RowStationary,
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
        Dataflow::Unconstrained,
    ] {
        for arch in [
            Architecture::eyeriss_base().with_dataflow(dataflow),
            secure.clone().with_dataflow(dataflow),
        ] {
            for layer in &layers {
                let mut uniform = MappingSampler::new(layer, &arch, 7);
                let guides: Vec<Mapping> = (0..4).map(|_| uniform.sample()).collect();
                let mut guided = GuidedSampler::new(layer, &arch, 7, &guides);
                let mut valid = 0u32;
                let n = allocations_during(|| {
                    for _ in 0..256 {
                        valid += u32::from(evaluate(layer, &arch, &uniform.sample()).is_ok());
                        let (m, _) = guided.sample();
                        valid += u32::from(evaluate(layer, &arch, &m).is_ok());
                    }
                });
                assert_eq!(
                    n,
                    0,
                    "{dataflow:?} on {}: the draw/evaluate loop allocated",
                    layer.name()
                );
                // The loop must exercise the success path, not only the
                // early rejections.
                assert!(valid > 0, "{dataflow:?} on {}: no valid draw", layer.name());
            }
        }
    }
}
