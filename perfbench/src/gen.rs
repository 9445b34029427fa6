//! Seeded request generation.
//!
//! A workload is a fixed *mix* — the template pool and each template's
//! popularity — plus a seed that only decides the *order* in which the
//! mix is drawn. Two seeds therefore give different streams with the
//! same shape-mix statistics, and one seed always gives the same
//! stream. The serving stack only ever sees the generated requests.

use autokernel_gemm::GemmShape;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// A template pool with a fixed popularity distribution.
#[derive(Debug, Clone)]
pub struct Mix {
    pub shapes: Vec<GemmShape>,
    /// Cumulative popularity, ending at 1.0.
    cdf: Vec<f64>,
}

impl Mix {
    /// `weights[i]` is the relative popularity of `shapes[i]`.
    pub fn new(shapes: Vec<GemmShape>, weights: &[f64]) -> Self {
        assert_eq!(shapes.len(), weights.len(), "one weight per shape");
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Mix { shapes, cdf }
    }

    pub fn uniform(shapes: Vec<GemmShape>) -> Self {
        let weights = vec![1.0; shapes.len()];
        Self::new(shapes, &weights)
    }

    /// Concatenate two pools, giving `first_share` of the draws to
    /// `first` (each pool keeps its internal popularity).
    pub fn blend(first: &Mix, second: &Mix, first_share: f64) -> Self {
        let weights_of = |m: &Mix, share: f64| -> Vec<f64> {
            let mut prev = 0.0;
            m.cdf
                .iter()
                .map(|&c| {
                    let w = (c - prev) * share;
                    prev = c;
                    w
                })
                .collect()
        };
        let mut weights = weights_of(first, first_share);
        weights.extend(weights_of(second, 1.0 - first_share));
        let mut shapes = first.shapes.clone();
        shapes.extend(second.shapes.iter().copied());
        Self::new(shapes, &weights)
    }

    /// Popularity of template `i`.
    pub fn weight(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - prev
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `len` template indices drawn in the order `seed` decides.
    pub fn stream(&self, seed: u64, len: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| self.draw(&mut rng) as u32).collect()
    }
}

/// Every (m, k, n) triple with each dimension in `dims`, in a fixed
/// order.
pub fn small_shapes(dims: &[usize]) -> Vec<GemmShape> {
    let mut out = Vec::with_capacity(dims.len().pow(3));
    for &m in dims {
        for &k in dims {
            for &n in dims {
                out.push(GemmShape::new(m, k, n));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Mix {
        Mix::blend(
            &Mix::uniform(small_shapes(&[8])),
            &Mix::uniform(small_shapes(&[16, 24, 32])),
            0.9,
        )
    }

    #[test]
    fn same_seed_gives_identical_stream() {
        assert_eq!(pool().stream(7, 10_000), pool().stream(7, 10_000));
    }

    #[test]
    fn other_seed_reorders_but_keeps_mix_statistics() {
        let mix = pool();
        let n = 200_000;
        let a = mix.stream(1, n);
        let b = mix.stream(2, n);
        assert_ne!(a, b, "a different seed must give a different order");
        let hist = |s: &[u32]| {
            let mut h = vec![0usize; mix.shapes.len()];
            for &i in s {
                h[i as usize] += 1;
            }
            h
        };
        let (ha, hb) = (hist(&a), hist(&b));
        for i in 0..mix.shapes.len() {
            let expect = mix.weight(i) * n as f64;
            // Five binomial standard deviations, plus slack for tiny bins.
            let tol = 5.0 * expect.sqrt() + 5.0;
            assert!((ha[i] as f64 - expect).abs() < tol, "seed 1, template {i}");
            assert!((hb[i] as f64 - expect).abs() < tol, "seed 2, template {i}");
        }
    }

    #[test]
    fn mix_does_not_depend_on_the_run_seed() {
        let a = pool();
        let b = pool();
        assert_eq!(a.shapes, b.shapes);
        for i in 0..a.shapes.len() {
            assert_eq!(a.weight(i), b.weight(i));
        }
    }

    #[test]
    fn blend_gives_the_first_pool_its_share() {
        let hot = Mix::uniform(small_shapes(&[8]));
        let cold = Mix::uniform(small_shapes(&[16, 24]));
        let mix = Mix::blend(&cold, &hot, 0.9);
        let first: f64 = (0..cold.shapes.len()).map(|i| mix.weight(i)).sum();
        assert!((first - 0.9).abs() < 1e-12);
    }
}
