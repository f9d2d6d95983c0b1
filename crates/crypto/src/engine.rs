//! AES-GCM hardware engine cost models (paper Table 2, §3.1, §4.1).
//!
//! An AES-GCM engine is an AES core plus a Galois-field multiplier
//! (paper Fig. 2). Each stage is characterised by its initiation interval
//! (cycles per 128-bit block), area (kGates, normalised to 40 nm) and
//! energy per block (pJ). The engine's throughput is set by the slower
//! stage: the stages are pipelined with respect to each other, so a block
//! leaves every `max(aes.cycles, gf.cycles)` cycles.

use std::fmt;

use crate::scheme::{ProtectionScheme, SchemeId};

/// Bytes in one AES-GCM block (128 bits).
pub const BLOCK_BYTES: u64 = 16;

/// Cost specification for one pipeline stage (AES core or GF multiplier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Initiation interval: cycles between consecutive 128-bit blocks.
    pub cycles_per_block: u64,
    /// Area in kGates (normalised to 40 nm, paper §5.2).
    pub area_kgates: f64,
    /// Energy per 128-bit block in pJ.
    pub energy_pj: f64,
}

/// The three engine design points evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineClass {
    /// Fully-pipelined AES + single-cycle GF multiplier: one block per
    /// cycle, large area (Banerjee-2017 pipeline / Mathew-2011 class).
    Pipelined,
    /// Round-parallel AES (11 cycles/block) + 8-cycle GF multiplier
    /// (Banerjee-2017/2019 parallel class) — the paper's default.
    Parallel,
    /// Bit/byte-serial AES (336 cycles/block) + 128-cycle GF multiplier:
    /// minimal area, minimal throughput.
    Serial,
}

impl EngineClass {
    /// All three classes.
    pub const ALL: [EngineClass; 3] = [
        EngineClass::Pipelined,
        EngineClass::Parallel,
        EngineClass::Serial,
    ];

    /// Table 2 AES-stage specification.
    pub fn aes(self) -> StageSpec {
        match self {
            EngineClass::Pipelined => StageSpec {
                cycles_per_block: 1,
                area_kgates: 78.8,
                energy_pj: 165.1,
            },
            EngineClass::Parallel => StageSpec {
                cycles_per_block: 11,
                area_kgates: 9.2,
                energy_pj: 194.6,
            },
            EngineClass::Serial => StageSpec {
                cycles_per_block: 336,
                area_kgates: 3.0,
                energy_pj: 768.0,
            },
        }
    }

    /// Table 2 GF-multiplier-stage specification.
    pub fn gf_mult(self) -> StageSpec {
        match self {
            EngineClass::Pipelined => StageSpec {
                cycles_per_block: 1,
                area_kgates: 60.1,
                energy_pj: 57.7,
            },
            EngineClass::Parallel => StageSpec {
                cycles_per_block: 8,
                area_kgates: 9.7,
                energy_pj: 82.4,
            },
            EngineClass::Serial => StageSpec {
                cycles_per_block: 128,
                area_kgates: 3.3,
                energy_pj: 345.6,
            },
        }
    }

    /// Construct the full engine model.
    pub fn engine(self) -> AesGcmEngine {
        AesGcmEngine::new(self.name(), self.aes(), self.gf_mult())
    }

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            EngineClass::Pipelined => "Pipelined",
            EngineClass::Parallel => "Parallel",
            EngineClass::Serial => "Serial",
        }
    }

    /// Parse the lower-case name used by CLI flags and architecture
    /// files (`pipelined`, `parallel`, `serial`).
    pub fn from_name(name: &str) -> Option<EngineClass> {
        match name {
            "pipelined" => Some(EngineClass::Pipelined),
            "parallel" => Some(EngineClass::Parallel),
            "serial" => Some(EngineClass::Serial),
            _ => None,
        }
    }
}

impl fmt::Display for EngineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost model of one AES-GCM engine: AES core + GF multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct AesGcmEngine {
    name: String,
    aes: StageSpec,
    gf: StageSpec,
}

impl AesGcmEngine {
    /// Build an engine from explicit stage specs.
    pub fn new(name: impl Into<String>, aes: StageSpec, gf: StageSpec) -> Self {
        AesGcmEngine {
            name: name.into(),
            aes,
            gf,
        }
    }

    /// Engine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// AES stage specification.
    pub fn aes(&self) -> StageSpec {
        self.aes
    }

    /// GF multiplier stage specification.
    pub fn gf_mult(&self) -> StageSpec {
        self.gf
    }

    /// Cycles between consecutive blocks: the slower of the two pipelined
    /// stages.
    pub fn cycles_per_block(&self) -> u64 {
        self.aes.cycles_per_block.max(self.gf.cycles_per_block)
    }

    /// Sustained throughput in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        BLOCK_BYTES as f64 / self.cycles_per_block() as f64
    }

    /// Energy to encrypt/decrypt *and* authenticate one 128-bit block.
    pub fn energy_per_block_pj(&self) -> f64 {
        self.aes.energy_pj + self.gf.energy_pj
    }

    /// Energy per bit of protected traffic.
    pub fn energy_per_bit_pj(&self) -> f64 {
        self.energy_per_block_pj() / (BLOCK_BYTES as f64 * 8.0)
    }

    /// Total area in kGates.
    pub fn area_kgates(&self) -> f64 {
        self.aes.area_kgates + self.gf.area_kgates
    }

    /// Cycles to process `bytes` of traffic (partial blocks round up —
    /// GCM always processes whole 128-bit blocks).
    pub fn cycles_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(BLOCK_BYTES) * self.cycles_per_block()
    }
}

/// A cryptographic-engine configuration attached to an accelerator:
/// `count` identical engines per datatype stream, shared equally.
///
/// The paper's base secure configuration is one parallel engine per
/// datatype (§5.1); Fig. 13 sweeps `count` and [`EngineClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoConfig {
    /// Engine design point.
    pub class: EngineClass,
    /// Total number of engine instances on the accelerator.
    pub count: usize,
    /// Truncated authentication-tag size stored per AuthBlock, in bits.
    pub tag_bits: u32,
    /// Protection-scheme backend pricing the engines. Defaults to the
    /// paper's AES-GCM Table-2 model; all derived cost quantities
    /// delegate to this backend's [`ProtectionScheme`] implementation.
    pub scheme: SchemeId,
}

impl CryptoConfig {
    /// `count` engines of the given class with the default 64-bit tag,
    /// priced by the paper's AES-GCM Table-2 scheme.
    pub fn new(class: EngineClass, count: usize) -> Self {
        CryptoConfig {
            class,
            count,
            tag_bits: 64,
            scheme: SchemeId::AesGcm,
        }
    }

    /// Re-price this configuration under a different protection scheme,
    /// adopting the scheme's default authentication-tag width.
    ///
    /// Callers are expected to have checked
    /// [`ProtectionScheme::supports`] for the engine class first; an
    /// unsupported combination yields infinite costs rather than a
    /// panic.
    pub fn with_scheme(mut self, scheme: SchemeId) -> Self {
        self.scheme = scheme;
        self.tag_bits = scheme.model().default_tag_bits();
        self
    }

    /// The cost model behind [`CryptoConfig::scheme`].
    pub fn model(&self) -> &'static dyn ProtectionScheme {
        self.scheme.model()
    }

    /// Aggregate engine throughput in bytes per cycle.
    pub fn total_bytes_per_cycle(&self) -> f64 {
        self.model().bytes_per_cycle(self.class) * self.count as f64
    }

    /// Per-datatype-stream throughput, when the engines are statically
    /// partitioned across the three streams (weight/ifmap/ofmap).
    ///
    /// The paper's base design attaches exactly one engine per datatype
    /// (§3.1, §5.1) — that is the `count == 3` case, where each stream
    /// is limited to its own engine. Larger pools (e.g. the 30 serial
    /// engines of §5.2, which match one parallel engine's throughput)
    /// are assigned flexibly, so they behave as a shared pool and
    /// `None` is returned.
    pub fn per_stream_bytes_per_cycle(&self) -> Option<f64> {
        if self.count == 3 {
            Some(self.model().bytes_per_cycle(self.class))
        } else {
            None
        }
    }

    /// Aggregate area in kGates.
    pub fn total_area_kgates(&self) -> f64 {
        self.model().area_kgates(self.class) * self.count as f64
    }

    /// Energy per bit of protected traffic (independent of `count`).
    pub fn energy_per_bit_pj(&self) -> f64 {
        self.model().energy_per_bit_pj(self.class)
    }

    /// Short label like `"Parallel x5"` used by the Fig. 13 harness.
    /// Non-default schemes are suffixed (`"Parallel x3 [seculator]"`)
    /// so report rows never alias across schemes; the default AES-GCM
    /// label is unchanged from the pre-trait model, keeping committed
    /// goldens stable.
    pub fn label(&self) -> String {
        match self.scheme {
            SchemeId::AesGcm => format!("{} x{}", self.class, self.count),
            s => format!("{} x{} [{}]", self.class, self.count, s.name()),
        }
    }
}

impl fmt::Display for CryptoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_throughputs() {
        assert_eq!(EngineClass::Pipelined.engine().cycles_per_block(), 1);
        assert_eq!(EngineClass::Parallel.engine().cycles_per_block(), 11);
        assert_eq!(EngineClass::Serial.engine().cycles_per_block(), 336);
    }

    #[test]
    fn table2_areas() {
        // Paper §3.1: one pipelined AES-GCM engine per datatype
        // (3 engines) is 416.7 kGates.
        let total = 3.0 * EngineClass::Pipelined.engine().area_kgates();
        assert!((total - 416.7).abs() < 0.1, "total = {total}");
        let p = EngineClass::Parallel.engine().area_kgates();
        assert!((p - 18.9).abs() < 1e-9);
    }

    #[test]
    fn area_orders_match_throughput_orders() {
        let a: Vec<f64> = EngineClass::ALL
            .iter()
            .map(|c| c.engine().area_kgates())
            .collect();
        let t: Vec<f64> = EngineClass::ALL
            .iter()
            .map(|c| c.engine().bytes_per_cycle())
            .collect();
        assert!(a[0] > a[1] && a[1] > a[2]);
        assert!(t[0] > t[1] && t[1] > t[2]);
    }

    #[test]
    fn cycles_round_up_partial_blocks() {
        let e = EngineClass::Parallel.engine();
        assert_eq!(e.cycles_for_bytes(0), 0);
        assert_eq!(e.cycles_for_bytes(1), 11);
        assert_eq!(e.cycles_for_bytes(16), 11);
        assert_eq!(e.cycles_for_bytes(17), 22);
    }

    #[test]
    fn config_aggregates() {
        let cfg = CryptoConfig::new(EngineClass::Serial, 30);
        // Paper §5.2: 30 serial engines vs 1 parallel engine have similar
        // throughput (~10x area difference).
        let parallel = CryptoConfig::new(EngineClass::Parallel, 1);
        let ratio = cfg.total_bytes_per_cycle() / parallel.total_bytes_per_cycle();
        assert!(ratio > 0.9 && ratio < 1.1, "ratio = {ratio}");
        let area_ratio = cfg.total_area_kgates() / parallel.total_area_kgates();
        assert!(area_ratio > 9.0 && area_ratio < 11.0, "area = {area_ratio}");
        assert_eq!(cfg.label(), "Serial x30");
    }

    #[test]
    fn energy_per_bit_is_positive() {
        for c in EngineClass::ALL {
            assert!(c.engine().energy_per_bit_pj() > 0.0);
        }
        // Serial designs burn more energy per block in this table.
        assert!(
            EngineClass::Serial.engine().energy_per_block_pj()
                > EngineClass::Pipelined.engine().energy_per_block_pj()
        );
    }
}
