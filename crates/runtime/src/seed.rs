//! Seed-stream splitting.
//!
//! Parallel replications must not share an RNG stream (results would
//! depend on scheduling) and must not use naive `seed + i` offsets
//! (xoshiro-family generators seeded from nearby states start in
//! correlated regions). Instead each task's seed is derived by running
//! SplitMix64 — a bijective avalanche mixer — over the root seed and the
//! task index, which is the standard splittable-RNG construction.

/// Derives the seed for task `index` from `root`.
///
/// The mapping is a fixed pure function of `(root, index)`: it does not
/// depend on thread count or scheduling order, which is what makes
/// parallel runs reproducible. Distinct `(root, index)` pairs map to
/// well-separated seeds (two SplitMix64 rounds of avalanche).
#[must_use]
pub fn child_seed(root: u64, index: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = root ^ index.wrapping_add(1).wrapping_mul(GOLDEN);
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    // Second round so that even adjacent (root, index) pairs differ in
    // roughly half their output bits.
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root seed viewed as an indexable family of child seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Stream rooted at `root`.
    #[must_use]
    pub fn new(root: u64) -> Self {
        SeedStream { root }
    }

    /// The root seed.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Child seed for task `index`.
    #[must_use]
    pub fn child(&self, index: u64) -> u64 {
        child_seed(self.root, index)
    }

    /// Derived sub-stream (e.g. one per experiment stage), keyed by `salt`.
    #[must_use]
    pub fn substream(&self, salt: u64) -> SeedStream {
        SeedStream {
            root: child_seed(self.root, salt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_seed_is_pure() {
        assert_eq!(child_seed(42, 7), child_seed(42, 7));
    }

    #[test]
    fn child_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for root in [0u64, 1, 42, u64::MAX] {
            for i in 0..1000 {
                assert!(
                    seen.insert(child_seed(root, i)),
                    "collision at root={root} i={i}"
                );
            }
        }
    }

    #[test]
    fn adjacent_indices_decorrelate() {
        // Hamming distance between adjacent children should hover near 32.
        let mut total = 0u32;
        for i in 0..64u64 {
            total += (child_seed(9, i) ^ child_seed(9, i + 1)).count_ones();
        }
        let mean = f64::from(total) / 64.0;
        assert!((20.0..44.0).contains(&mean), "mean hamming distance {mean}");
    }

    #[test]
    fn substream_matches_child_root() {
        let s = SeedStream::new(5);
        assert_eq!(s.substream(3).root(), child_seed(5, 3));
        assert_eq!(
            s.substream(3).child(0),
            SeedStream::new(child_seed(5, 3)).child(0)
        );
    }
}
