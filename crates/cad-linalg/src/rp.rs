//! Streaming Rademacher (±1) random projections.
//!
//! The Khoa–Chawla commute-time embedding sketches the scaled incidence
//! matrix with a `k × m` random matrix `Q` whose entries are `±1/√k`.
//! For the graph sizes of the scalability experiment (`m = 10⁷`),
//! materializing `Q` would cost `k·m` doubles; instead each entry is a
//! pure function of `(seed, row, column)` computed with a SplitMix64-style
//! hash, so the projection streams over the edge list with zero storage
//! and is exactly reproducible for a given seed.

/// Deterministic source of `±1` Rademacher variables indexed by
/// `(row, column)`.
#[derive(Debug, Clone, Copy)]
pub struct RademacherSource {
    seed: u64,
}

impl RademacherSource {
    /// Create a source with the given seed.
    pub fn new(seed: u64) -> Self {
        RademacherSource { seed }
    }

    /// The `(row, col)` entry of the implicit sign matrix: `+1.0` or `-1.0`.
    #[inline]
    pub fn sign(&self, row: u64, col: u64) -> f64 {
        // Mix row and column into one word, then SplitMix64 finalize.
        let mut z = self
            .seed
            .wrapping_add(row.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(col.wrapping_mul(0xBF58476D1CE4E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        // The low bit of the hash becomes the sign bit of 1.0, with no
        // branch for the compiler to keep.
        f64::from_bits(1.0f64.to_bits() | (z & 1) << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_plus_minus_one() {
        let s = RademacherSource::new(42);
        for r in 0..50 {
            for c in 0..50 {
                let v = s.sign(r, c);
                assert!(v == 1.0 || v == -1.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RademacherSource::new(7);
        let b = RademacherSource::new(7);
        let c = RademacherSource::new(8);
        assert_eq!(a.sign(3, 4), b.sign(3, 4));
        // Different seeds disagree somewhere in a small window.
        let differs = (0..64).any(|i| a.sign(i, 0) != c.sign(i, 0));
        assert!(differs);
    }

    #[test]
    fn roughly_balanced() {
        let s = RademacherSource::new(123);
        let n = 10_000u64;
        let sum: f64 = (0..n).map(|i| s.sign(i / 100, i % 100)).sum();
        // Mean should be within ~4σ of zero, σ = √n.
        assert!(sum.abs() < 4.0 * (n as f64).sqrt(), "sum = {sum}");
    }

    #[test]
    fn rows_are_decorrelated() {
        let s = RademacherSource::new(99);
        let n = 10_000u64;
        let corr: f64 = (0..n).map(|c| s.sign(0, c) * s.sign(1, c)).sum();
        assert!(corr.abs() < 4.0 * (n as f64).sqrt(), "corr = {corr}");
    }

    #[test]
    fn no_trivial_row_column_structure() {
        // Consecutive entries in a row should not alternate deterministically.
        let s = RademacherSource::new(5);
        let first_eight: Vec<f64> = (0..8).map(|c| s.sign(0, c)).collect();
        let alternating: Vec<f64> = (0..8)
            .map(|c| if c % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_ne!(first_eight, alternating);
        let constant = first_eight.iter().all(|&v| v == first_eight[0]);
        assert!(!constant);
    }
}
