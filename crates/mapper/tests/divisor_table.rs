//! `DivisorTable` answers exactly what trial division answers, for
//! every layer bound in the model zoo, and rejects foreign inputs with
//! its documented panic instead of slicing garbage.

use std::collections::BTreeSet;

use secureloop_mapper::factors::{divisors, DivisorTable};
use secureloop_workload::{zoo, ConvLayer, Dim, DimMap, Network};

/// The zoo networks at the sizes the CLI's `workloads` list uses.
fn zoo_layers() -> Vec<ConvLayer> {
    let nets: [Network; 12] = [
        zoo::alexnet_conv(),
        zoo::alexnet_conv_grouped(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::vgg16(),
        zoo::mlp(4, 4096),
        zoo::attention(128, 512),
        zoo::llm_decode(1024),
        zoo::vit_tiny(2),
        zoo::dilated_context(56, 64, 4),
        zoo::resnext_stage(28, 128, 32, 2),
    ];
    nets.iter().flat_map(|n| n.layers().to_vec()).collect()
}

#[test]
fn table_matches_trial_division_on_every_zoo_bound() {
    // Distinct bound vectors only: many layers share a shape.
    let shapes: BTreeSet<[u64; 7]> = zoo_layers().iter().map(|l| l.bounds().0).collect();
    for shape in shapes {
        let table = DivisorTable::new(DimMap(shape));
        for d in Dim::ALL {
            for k in divisors(shape[d.index()]) {
                let all = divisors(k);
                assert_eq!(table.of(d, k), all.as_slice(), "of({d}, {k}) in {shape:?}");
                for cap in 1..=k + 1 {
                    let capped: Vec<u64> = all.iter().copied().filter(|&f| f <= cap).collect();
                    assert_eq!(
                        table.up_to(d, k, cap),
                        capped.as_slice(),
                        "up_to({d}, {k}, {cap}) in {shape:?}"
                    );
                }
            }
        }
    }
}

fn table_56() -> DivisorTable {
    let mut bounds = DimMap::splat(1u64);
    bounds[Dim::P] = 56;
    DivisorTable::new(bounds)
}

#[test]
#[should_panic(expected = "3 does not divide the bound 56 of dim P")]
fn non_divisor_panics_with_the_documented_message() {
    let _ = table_56().of(Dim::P, 3);
}

#[test]
#[should_panic(expected = "112 does not divide the bound 56 of dim P")]
fn multiple_of_the_bound_panics_too() {
    let _ = table_56().up_to(Dim::P, 112, 8);
}

#[test]
#[should_panic(expected = "0 does not divide the bound 1 of dim N")]
fn zero_panics_too() {
    let _ = table_56().of(Dim::N, 0);
}
