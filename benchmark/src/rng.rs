//! The benchmark's own samplers. The program under test never sees
//! these: it receives only the tapes built from them, so a change to a
//! crate's private RNG cannot move the inputs.

/// splitmix64 (Steele, Lea, Flood 2014).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for entity `k` of purpose `salt`.
    pub fn fork(seed: u64, salt: u64, k: u64) -> Self {
        let mut r = Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let a = r.next_u64();
        Self(a ^ k.wrapping_mul(0xd134_2543_de82_ef95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1)`: never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + (self.unit() * (hi - lo + 1) as f64) as u64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Lognormal with the given *arithmetic* mean and standard deviation.
    pub fn lognormal(&mut self, mean: f64, std: f64) -> f64 {
        let sigma2 = (1.0 + (std / mean).powi(2)).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.normal()).exp()
    }
}

/// Zipf over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `k` distinct ranks, in draw order (`k` must not exceed `n`).
    pub fn sample_distinct(&self, rng: &mut Rng, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let r = self.sample(rng);
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}
