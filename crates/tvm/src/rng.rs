//! Deterministic in-repo random number generation.
//!
//! The VM's determinism contract forbids ambient entropy: every random
//! choice (scheduler picks, simulated input streams) must be a pure
//! function of a seed. This module provides a self-contained ChaCha8
//! stream generator — the same cipher family the `rand_chacha` crate
//! exposes — so the workspace needs no external dependencies and builds
//! fully offline.
//!
//! ChaCha8 is overkill for scheduling jitter, but it has two properties
//! worth paying 8 rounds for:
//!
//! * statistically clean streams regardless of how structured the seeds
//!   are (exploration uses `base_seed + round`, `base_seed + k·φ`, …);
//! * a well-known specification, so the generator is auditable and will
//!   never silently change between toolchain versions.

use std::ops::{Range, RangeInclusive};

/// A seeded, deterministic ChaCha8 random stream.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// The block input: constants, key, counter, nonce.
    state: [u32; 16],
    /// The current keystream block.
    block: [u32; 16],
    /// Next unread word of `block`; 16 means "exhausted".
    word: usize,
}

/// SplitMix64: the standard way to expand a 64-bit seed into key material.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// Builds a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // "expand 32-byte k" — the ChaCha sigma constants.
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..4 {
            let k = splitmix64(&mut sm);
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // Words 12..13: 64-bit block counter. Words 14..15: nonce (zero).
        ChaCha8Rng {
            state,
            block: [0; 16],
            word: 16,
        }
    }

    /// Generates the next keystream block and resets the read cursor.
    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..4 {
            // A double round: 4 column rounds then 4 diagonal rounds.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for ((b, &xi), &st) in self.block.iter_mut().zip(&x).zip(&self.state) {
            *b = xi.wrapping_add(st);
        }
        // Advance the 64-bit counter.
        let counter = (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.word = 0;
    }

    /// The next 32 bits of the stream.
    pub fn next_u32(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        hi << 32 | lo
    }

    /// A uniform draw from a range, e.g. `0..len` or `1..=max`.
    ///
    /// Uses the multiply-shift reduction; for the small ranges schedulers
    /// draw from, the bias is far below anything observable.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Serializes the full generator state into a snapshot section
    /// (see [`crate::snapshot`]): block input, current keystream block,
    /// and the read cursor.
    pub fn snapshot_into(&self, e: &mut crate::bytes::Writer) {
        for w in &self.state {
            e.varint(u64::from(*w));
        }
        for w in &self.block {
            e.varint(u64::from(*w));
        }
        e.varint(self.word as u64);
    }
}

/// Ranges [`ChaCha8Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform value.
    fn sample(self, rng: &mut ChaCha8Rng) -> Self::Output;
}

fn sample_span(rng: &mut ChaCha8Rng, span: u64) -> u64 {
    debug_assert!(span > 0, "cannot sample an empty range");
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut ChaCha8Rng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + sample_span(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange for RangeInclusive<u32> {
    type Output = u32;
    fn sample(self, rng: &mut ChaCha8Rng) -> u32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + sample_span(rng, u64::from(hi - lo) + 1) as u32
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut ChaCha8Rng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + sample_span(rng, self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5..=9u32);
            assert!((5..=9).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn stream_is_not_degenerate() {
        // Sanity: successive words differ and bits look balanced-ish.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let words: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        assert!(words.windows(2).all(|w| w[0] != w[1]));
        let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
        let total = 64 * 64;
        assert!(ones > total / 3 && ones < 2 * total / 3, "{ones}/{total}");
    }
}
