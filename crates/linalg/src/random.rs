//! Seeded random number generation and weight initialisation.
//!
//! Every stochastic component in the reproduction — corpus generation, fold shuffling,
//! SGD mini-batch order, transformer weight init, LIME perturbation sampling — takes an
//! explicit seed so experiments are exactly repeatable. [`Rng64`] is a small
//! xoshiro256++ generator: fast, no dependencies beyond `rand`'s traits are needed, and
//! its state is four `u64`s so it can be cheaply forked per-component.

use crate::matrix::Matrix;

/// A seeded xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a seed. Two generators with the same seed produce the
    /// same sequence on every platform.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 seeding, as recommended by the xoshiro authors.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Fork a child generator whose stream is independent of (but determined by) this
    /// generator's current state and the supplied `stream` label.
    pub fn fork(&self, stream: u64) -> Self {
        Self::new(self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng64::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-15);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Sample an index from an (unnormalised, non-negative) weight vector.
    /// Panics if all weights are zero or the vector is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weighted_index requires positive total weight"
        );
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.len() < 2 {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Choose `k` distinct indices from `0..n` (k capped at n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

/// Xavier/Glorot uniform initialisation of a `rows × cols` weight matrix.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    let bound = (6.0 / (rows + cols).max(1) as f64).sqrt();
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.uniform(-bound, bound);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_distinct() {
        let base = Rng64::new(7);
        let mut f1 = base.fork(1);
        let mut f1b = base.fork(1);
        let mut f2 = base.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng64::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
            let i = rng.below(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn normal_mean_and_std_are_plausible() {
        let mut rng = Rng64::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng64::new(5);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 2);
        }
        // Roughly proportional sampling
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(ratio > 2.4 && ratio < 3.6, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::new(9);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng64::new(13);
        let sample = rng.sample_indices(20, 5);
        assert_eq!(sample.len(), 5);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = Rng64::new(17);
        let m = xavier_uniform(16, 16, &mut rng);
        let bound = (6.0 / 32.0_f64).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= bound));
        assert!(m.data().iter().any(|&x| x != 0.0));
    }
}
