//! The workspace's one pseudo-random number generator.
//!
//! Every seeded stream a simulation draws comes from here, so two runs with
//! the same seed replay bit for bit on every platform:
//!
//! * [`SplitMix64`] — a 64-bit counter through the SplitMix64 finalizer. One
//!   step of a fresh generator, `SplitMix64::new(x).next_u64()`, is a
//!   stateless hash of `x`, which is how pure functions of `(seed, key)`
//!   draw (gray jitter, stream endpoints).
//! * [`SmallRng`] — xoshiro256++ with its state expanded from the seed by
//!   [`SplitMix64`], for longer streams, with only the draws the workspace
//!   makes: [`SmallRng::below`], [`SmallRng::f64`], [`SmallRng::bool`] and
//!   [`SmallRng::chance`].
//!
//! A uniform integer in `a..b` is `a + below(b - a)`, and in `1..=m` it is
//! `1 + below(m)`.

/// SplitMix64: add the golden-ratio increment, then finalize.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose first output is the finalizer of `seed + γ`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A small, fast, non-cryptographic generator: xoshiro256++.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// A generator whose state is the first four outputs of
    /// `SplitMix64::new(seed)`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = SplitMix64::new(seed);
        SmallRng {
            s: [x.next_u64(), x.next_u64(), x.next_u64(), x.next_u64()],
        }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)` by rejection (unbiased); `bound` must be
    /// nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one word.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin: the low bit of one word.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p`: one [`SmallRng::f64`] below `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}
