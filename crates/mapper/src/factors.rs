//! Divisor utilities for factorisation sampling.
//!
//! [`divisors`] trial-divides and allocates; it builds tables and serves
//! the exhaustive enumerator. The sampling hot path reads a
//! [`DivisorTable`] instead: built once per sampler from the layer
//! bounds, it answers every divisor query of the draw loop with a slice
//! of one precomputed pool, so drawing a mapping allocates nothing.

use secureloop_workload::{Dim, DimMap};

/// All divisors of `n`, ascending.
///
/// ```
/// assert_eq!(secureloop_mapper::factors::divisors(12), vec![1, 2, 3, 4, 6, 12]);
/// ```
pub fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Per-layer divisor lists: for each dim, every divisor `k` of the
/// dim's bound together with `k`'s own divisors, ascending.
///
/// The set is closed under everything the samplers do: a factor of a
/// dim — `remaining[d]`, one memory level's share, a product of
/// several levels' shares — always divides that dim's bound, so every
/// query is a lookup, never a trial division.
///
/// ```
/// use secureloop_mapper::factors::DivisorTable;
/// use secureloop_workload::{Dim, DimMap};
///
/// let mut bounds = DimMap::splat(1u64);
/// bounds[Dim::M] = 12;
/// let t = DivisorTable::new(bounds);
/// assert_eq!(t.of(Dim::M, 12), &[1, 2, 3, 4, 6, 12]);
/// assert_eq!(t.up_to(Dim::M, 6, 4), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct DivisorTable {
    bounds: DimMap<u64>,
    /// `(k, start, end)` per divisor `k` of a bound: dim `d`'s entries
    /// are `entries[first[d]..first[d + 1]]`, ascending in `k`, and
    /// `k`'s divisors are `pool[start..end]`.
    entries: Vec<(u64, u32, u32)>,
    first: [u32; 8],
    pool: Vec<u64>,
}

impl DivisorTable {
    /// Build the table for a layer's loop bounds.
    ///
    /// # Panics
    ///
    /// Panics if a bound is zero.
    pub fn new(bounds: DimMap<u64>) -> Self {
        let mut entries = Vec::new();
        let mut first = [0u32; 8];
        let mut pool = Vec::new();
        for d in Dim::ALL {
            let keys = divisors(bounds[d]);
            for &k in &keys {
                let start = pool.len() as u32;
                pool.extend(keys.iter().copied().filter(|&f| k.is_multiple_of(f)));
                entries.push((k, start, pool.len() as u32));
            }
            first[d.index() + 1] = entries.len() as u32;
        }
        DivisorTable {
            bounds,
            entries,
            first,
            pool,
        }
    }

    /// All divisors of `n`, ascending — the same list as
    /// [`divisors(n)`](divisors). `of(d, n)[1]` is `n`'s smallest
    /// prime factor when `n ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics with "does not divide the bound" if `n` is not a divisor
    /// of dim `d`'s bound: such an `n` never arises from a mapping of
    /// this table's layer.
    #[inline]
    pub fn of(&self, d: Dim, n: u64) -> &[u64] {
        let dim = &self.entries[self.first[d.index()] as usize..self.first[d.index() + 1] as usize];
        let Ok(i) = dim.binary_search_by_key(&n, |&(k, _, _)| k) else {
            panic!(
                "{n} does not divide the bound {} of dim {d}",
                self.bounds[d]
            );
        };
        let (_, start, end) = dim[i];
        &self.pool[start as usize..end as usize]
    }

    /// Divisors of `n` that are ≤ `cap`, ascending: a prefix of
    /// [`of(d, n)`](DivisorTable::of), never empty while `cap ≥ 1`.
    ///
    /// # Panics
    ///
    /// As [`of`](DivisorTable::of).
    #[inline]
    pub fn up_to(&self, d: Dim, n: u64, cap: u64) -> &[u64] {
        let divs = self.of(d, n);
        &divs[..divs.partition_point(|&f| f <= cap)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_of_primes_and_composites() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(13), vec![1, 13]);
        assert_eq!(divisors(56), vec![1, 2, 4, 7, 8, 14, 28, 56]);
    }

    #[test]
    fn divisors_are_sorted_and_complete() {
        for n in 1..200u64 {
            let ds = divisors(n);
            assert!(ds.windows(2).all(|w| w[0] < w[1]));
            for &d in &ds {
                assert_eq!(n % d, 0);
            }
            let brute = (1..=n).filter(|d| n % d == 0).count();
            assert_eq!(ds.len(), brute);
        }
    }

    #[test]
    fn capped_divisors() {
        let t = DivisorTable::new(DimMap([56, 7, 1, 1, 1, 1, 1]));
        assert_eq!(t.up_to(Dim::N, 56, 10), &[1, 2, 4, 7, 8]);
        assert_eq!(t.up_to(Dim::M, 7, 1), &[1]);
        assert_eq!(t.of(Dim::N, 28)[1], 2);
        assert_eq!(t.of(Dim::M, 7)[1], 7);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn zero_panics() {
        let _ = divisors(0);
    }
}
