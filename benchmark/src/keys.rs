//! Seeded input generators: the same seed gives byte-identical streams.

/// xorshift64* - the repo's deterministic traffic PRNG.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state; a zero state would stick.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 11) % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1.0) over `n` ranks: weight 1/(rank+1), cumulative table, binary
/// search.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0f64;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / (i + 1) as f64;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("nonempty");
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_streams() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let z = Zipf::new(64);
            (0..4096)
                .map(|_| (z.sample(&mut rng) as u64, rng.below(10_465) as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(64);
        let mut hist = [0u32; 64];
        for _ in 0..100_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[7] && hist[7] > hist[63]);
        assert!(hist[63] > 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
