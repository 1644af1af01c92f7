//! Seeded input generation: every workload input is a pure function of
//! the `--seed` argument.

/// splitmix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never perturbs the others.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `pct / 100`.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
