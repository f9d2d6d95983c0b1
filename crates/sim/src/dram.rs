//! A bank/row/burst DRAM timing model.
//!
//! The scheduler abstracts the off-chip interface as a flat
//! bytes-per-cycle number (paper §5.1: LPDDR4 at 64 B/cycle). This
//! module checks how safe that abstraction is: it replays the tile
//! trace as addressed bursts through a banked DRAM with open-row
//! policy, counting activate/precharge penalties, and reports the
//! achieved bandwidth and row-hit rate.
//!
//! Timing values are expressed in *accelerator* cycles at the paper's
//! 100 MHz, which makes a modern LPDDR4/HBM2 part look fast. The model
//! is deliberately conservative — an in-order controller with no
//! activate/transfer overlap, so it bounds the abstraction from below
//! while the flat model bounds it from above. Two effects separate
//! achieved from peak bandwidth: row/activate overhead (small for
//! sequential tile streams, larger when interleaved streams collide on
//! banks) and burst-granularity waste (tiles smaller than a 64 B burst
//! still occupy a whole burst slot).
//! [`DramSimResult::bus_efficiency`] isolates the former, which is the
//! quantity the paper's flat bytes-per-cycle abstraction assumes is
//! close to 1.

use secureloop_workload::Datatype;

use crate::trace::Trace;

/// DRAM timing parameters, in accelerator cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Number of banks (tensor streams spread across them).
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Bytes transferred per burst.
    pub burst_bytes: u64,
    /// Cycles per burst transfer on the data bus.
    pub burst_cycles: u64,
    /// Row-activate latency (row miss, bank precharged).
    pub t_rcd: u64,
    /// Precharge latency (row conflict).
    pub t_rp: u64,
    /// Column access latency added to every new request run.
    pub t_cas: u64,
}

impl DramTiming {
    /// LPDDR4-class timing at a 100 MHz accelerator clock: the 64 B/
    /// cycle interface moves one 64 B burst per cycle; activates cost
    /// a handful of accelerator cycles.
    pub fn lpddr4() -> Self {
        DramTiming {
            banks: 8,
            row_bytes: 2048,
            burst_bytes: 64,
            burst_cycles: 1,
            t_rcd: 2,
            t_rp: 2,
            t_cas: 1,
        }
    }

    /// HBM2-class timing: same per-pseudo-channel burst rate here (the
    /// paper's HBM2 point keeps 64 B/cycle), many more banks.
    pub fn hbm2() -> Self {
        DramTiming {
            banks: 32,
            row_bytes: 1024,
            burst_bytes: 64,
            burst_cycles: 1,
            t_rcd: 2,
            t_rp: 2,
            t_cas: 1,
        }
    }

    /// Peak bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.burst_bytes as f64 / self.burst_cycles as f64
    }
}

/// Result of replaying addressed traffic through the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSimResult {
    /// Total service cycles on the DRAM interface.
    pub cycles: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Row-buffer hit rate over bursts.
    pub row_hit_rate: f64,
    /// Bursts issued on the bus (each moves up to `burst_bytes`).
    pub bursts: u64,
    /// Cycles a burst occupies on the bus.
    pub burst_cycles: u64,
}

impl DramSimResult {
    /// Achieved bandwidth over *useful* bytes (burst-granularity waste
    /// included in the denominator).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes as f64 / self.cycles.max(1) as f64
    }

    /// Fraction of service cycles spent moving bursts (the rest is
    /// activate/precharge/CAS overhead). This is the efficiency the
    /// flat-bandwidth abstraction assumes is near 1.
    pub fn bus_efficiency(&self) -> f64 {
        (self.bursts * self.burst_cycles) as f64 / self.cycles.max(1) as f64
    }
}

/// A banked open-row DRAM.
#[derive(Debug, Clone)]
pub struct DramSim {
    timing: DramTiming,
    open_rows: Vec<Option<u64>>,
    /// End addresses of recent access streams; a new access continuing
    /// exactly at one of them keeps that DMA stream pipelined (no
    /// fresh CAS, and the partially-filled final burst is not paid
    /// twice). Bounded: one slot per concurrent tensor stream.
    stream_ends: Vec<u64>,
    cycles: u64,
    bytes: u64,
    bursts: u64,
    row_hits: u64,
    #[doc(hidden)]
    pub dbg_cas: u64,
    #[doc(hidden)]
    pub dbg_act: u64,
    #[doc(hidden)]
    pub dbg_conflict: u64,
}

impl DramSim {
    /// Fresh device with all banks precharged.
    pub fn new(timing: DramTiming) -> Self {
        DramSim {
            open_rows: vec![None; timing.banks],
            timing,
            stream_ends: Vec::new(),
            cycles: 0,
            bytes: 0,
            bursts: 0,
            row_hits: 0,
            dbg_cas: 0,
            dbg_act: 0,
            dbg_conflict: 0,
        }
    }

    /// Service a sequential access of `bytes` starting at `addr`.
    pub fn access(&mut self, addr: u64, bytes: u64) {
        let t = self.timing;
        let mut remaining = bytes;
        let mut cursor = addr;
        // Contiguous continuation of a recent stream keeps its DMA
        // pipeline running: no fresh CAS.
        let continued = self.stream_ends.iter().position(|&e| e == addr);
        if let Some(i) = continued {
            self.stream_ends.swap_remove(i);
        }
        let mut first_of_run = continued.is_none();
        // Bytes within a burst already paid by the continued stream.
        let mut paid_until = if continued.is_some() {
            addr.next_multiple_of(t.burst_bytes)
        } else {
            addr
        };
        while remaining > 0 {
            let row = cursor / t.row_bytes;
            // Bank partitioning: the high address bits (one tensor per
            // 4 GiB region) select a disjoint bank group per stream, so
            // concurrent tensor streams do not thrash each other's open
            // rows — the standard DMA bank-allocation discipline.
            let group = (t.banks as u64 / 4).max(2);
            let bank = (((cursor >> 32) * group + row % group) % t.banks as u64) as usize;
            let activated = match self.open_rows[bank] {
                Some(open) if open == row => {
                    if first_of_run {
                        self.cycles += t.t_cas;
                        self.dbg_cas += 1;
                    }
                    false
                }
                Some(_) => {
                    self.cycles += t.t_rp + t.t_rcd + t.t_cas;
                    self.dbg_conflict += 1;
                    self.open_rows[bank] = Some(row);
                    true
                }
                None => {
                    self.cycles += t.t_rcd + t.t_cas;
                    self.dbg_act += 1;
                    self.open_rows[bank] = Some(row);
                    true
                }
            };
            first_of_run = false;
            // Burst within the row; bursts after the activating one
            // stream from the open row buffer. Bytes under `paid_until`
            // ride a burst the previous access already issued.
            let in_row = t.row_bytes - cursor % t.row_bytes;
            let chunk = remaining.min(in_row);
            let end = cursor + chunk;
            let charge_from = cursor.max(paid_until.min(end));
            let bursts = if end > charge_from {
                (end.next_multiple_of(t.burst_bytes)
                    - (charge_from / t.burst_bytes) * t.burst_bytes)
                    / t.burst_bytes
            } else {
                0
            };
            if bursts > 0 {
                paid_until = end.next_multiple_of(t.burst_bytes);
            }
            self.cycles += bursts * t.burst_cycles;
            self.bursts += bursts;
            self.row_hits += bursts - u64::from(activated).min(bursts);
            self.bytes += chunk;
            cursor += chunk;
            remaining -= chunk;
        }
        self.stream_ends.push(cursor);
        if self.stream_ends.len() > 8 {
            self.stream_ends.remove(0);
        }
    }

    /// Snapshot the statistics.
    pub fn result(&self) -> DramSimResult {
        DramSimResult {
            cycles: self.cycles,
            bytes: self.bytes,
            row_hit_rate: if self.bursts == 0 {
                0.0
            } else {
                self.row_hits as f64 / self.bursts as f64
            },
            bursts: self.bursts,
            burst_cycles: self.timing.burst_cycles,
        }
    }
}

/// Replay a tile trace as addressed DRAM traffic: each tensor lives in
/// its own address range, each tile fetch streams sequentially from a
/// per-tensor rotating cursor (tiles are laid out back to back).
pub fn replay_dram(trace: &Trace, timing: DramTiming) -> DramSimResult {
    let mut sim = DramSim::new(timing);
    // Generous disjoint tensor bases.
    const TENSOR_STRIDE: u64 = 1 << 32;
    let word_bytes = u64::from(trace.word_bits).div_ceil(8);
    let mut cursors = [0u64; 3];
    for e in &trace.events {
        let i = e.dt.index();
        let base = (i as u64 + 1) * TENSOR_STRIDE;
        let bytes = e.words * word_bytes;
        sim.access(base + cursors[i], bytes);
        // Tiles are contiguous; wrap the cursor to keep addresses in a
        // tensor-sized window (16 MiB here) as real tilings revisit.
        cursors[i] = (cursors[i] + bytes) % (16 << 20);
        let _ = Datatype::ALL; // address layout documented by dt index
    }
    sim.result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_is_near_peak() {
        let mut sim = DramSim::new(DramTiming::lpddr4());
        sim.access(0, 1 << 20); // 1 MiB sequential
        let r = sim.result();
        assert!(r.row_hit_rate > 0.9, "hit rate {}", r.row_hit_rate);
        let eff = r.bytes_per_cycle() / DramTiming::lpddr4().peak_bytes_per_cycle();
        assert!(eff > 0.8, "efficiency {eff}");
    }

    #[test]
    fn row_thrashing_costs_bandwidth() {
        let t = DramTiming::lpddr4();
        let mut sim = DramSim::new(t);
        // Alternate between two rows mapped to the same bank.
        let stride = t.row_bytes * t.banks as u64;
        for i in 0..1000 {
            let row = if i % 2 == 0 { 0 } else { stride };
            sim.access(row, 64);
        }
        let r = sim.result();
        assert!(r.row_hit_rate < 0.05, "hit rate {}", r.row_hit_rate);
        let eff = r.bytes_per_cycle() / t.peak_bytes_per_cycle();
        assert!(eff < 0.5, "efficiency {eff} should collapse");
    }

    #[test]
    fn cross_row_access_spans_banks() {
        let t = DramTiming::lpddr4();
        let mut sim = DramSim::new(t);
        // 3 rows' worth starting mid-row: touches 4 rows.
        sim.access(t.row_bytes / 2, 3 * t.row_bytes);
        let r = sim.result();
        assert_eq!(r.bytes, 3 * t.row_bytes);
        assert!(r.cycles >= 3 * t.row_bytes / t.burst_bytes);
    }

    #[test]
    fn hbm2_has_more_banks() {
        assert!(DramTiming::hbm2().banks > DramTiming::lpddr4().banks);
        assert_eq!(DramTiming::hbm2().peak_bytes_per_cycle(), 64.0);
    }

    #[test]
    fn tile_traces_sustain_high_efficiency() {
        // The claim behind the paper's flat-bandwidth abstraction:
        // tile-granular streams are sequential enough that the banked
        // model achieves close to peak.
        use secureloop_arch::Architecture;
        use secureloop_loopnest::Mapping;
        use secureloop_workload::{ConvLayer, Dim, DimMap};
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
        m.dram_order = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
        let trace = crate::generate_trace(&layer, &arch, &m).unwrap();
        let r = replay_dram(&trace, DramTiming::lpddr4());
        assert_eq!(r.bytes, trace.total_bits() / 8);
        // Even this pessimistic in-order controller keeps the bus
        // mostly busy on interleaved tile streams; a reordering
        // controller would close the remaining gap toward the paper's
        // flat-bandwidth abstraction.
        let eff = r.bus_efficiency();
        assert!(eff > 0.55, "bus efficiency {eff:.2}");
        assert!(r.row_hit_rate > 0.3, "hit rate {}", r.row_hit_rate);
    }
}
