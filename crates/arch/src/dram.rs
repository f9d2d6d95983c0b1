//! Off-chip DRAM interface models (paper §5.2, "Different DRAM
//! Technologies").
//!
//! The paper evaluates three configurations: LPDDR4 at 64 B/cycle,
//! LPDDR4 at 128 B/cycle, and HBM2 at 64 B/cycle. Bandwidth only matters
//! until the cryptographic engine becomes the bottleneck; energy per bit
//! always matters. The per-bit energies are representative published
//! values (LPDDR4 ≈ 16 pJ/bit, HBM2 ≈ 4 pJ/bit) — see
//! `secureloop-energy` for how they enter the roll-up.

/// An off-chip memory interface design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    name: String,
    bytes_per_cycle: f64,
    pj_per_bit: f64,
}

impl DramSpec {
    /// Construct a custom DRAM interface.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `pj_per_bit` is not positive.
    pub fn new(name: impl Into<String>, bytes_per_cycle: f64, pj_per_bit: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(pj_per_bit > 0.0, "energy must be positive");
        DramSpec {
            name: name.into(),
            bytes_per_cycle,
            pj_per_bit,
        }
    }

    /// LPDDR4 at 64 B/cycle — the paper's default.
    pub fn lpddr4_64() -> Self {
        DramSpec::new("LPDDR4-64B", 64.0, 16.0)
    }

    /// LPDDR4 at 128 B/cycle.
    pub fn lpddr4_128() -> Self {
        DramSpec::new("LPDDR4-128B", 128.0, 16.0)
    }

    /// HBM2 at 64 B/cycle: same bandwidth as the default, lower energy.
    pub fn hbm2_64() -> Self {
        DramSpec::new("HBM2-64B", 64.0, 4.0)
    }

    /// Parse the short name used by CLI flags and architecture files
    /// (`lpddr4`, `lpddr4-128`, `hbm2`).
    pub fn from_name(name: &str) -> Option<DramSpec> {
        match name {
            "lpddr4" => Some(DramSpec::lpddr4_64()),
            "lpddr4-128" => Some(DramSpec::lpddr4_128()),
            "hbm2" => Some(DramSpec::hbm2_64()),
            _ => None,
        }
    }

    /// Interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Peak bandwidth in bytes per accelerator cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Access energy in pJ per bit.
    pub fn pj_per_bit(&self) -> f64 {
        self.pj_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        assert_eq!(DramSpec::lpddr4_64().bytes_per_cycle(), 64.0);
        assert_eq!(DramSpec::lpddr4_128().bytes_per_cycle(), 128.0);
        assert_eq!(DramSpec::hbm2_64().bytes_per_cycle(), 64.0);
        // HBM2 has lower energy per access than LPDDR4 (paper §5.2).
        assert!(DramSpec::hbm2_64().pj_per_bit() < DramSpec::lpddr4_64().pj_per_bit());
        // Bandwidth does not change energy.
        assert_eq!(
            DramSpec::lpddr4_64().pj_per_bit(),
            DramSpec::lpddr4_128().pj_per_bit()
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = DramSpec::new("bad", 0.0, 1.0);
    }
}
