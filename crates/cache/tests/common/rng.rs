//! The seeded generator the std-only suites draw from. A file of its
//! own so that a crate which does not depend on `bad-cache` can take it
//! alone with `#[path]`.

#![allow(dead_code)] // each integration-test crate uses a subset

/// A tiny xorshift64* PRNG: deterministic, seedable, no dependencies.
/// Quality is ample for op-sequence generation (this is not crypto).
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        // xorshift has a single absorbing zero state; nudge away from it.
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, n)`. Modulo bias is negligible for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}
