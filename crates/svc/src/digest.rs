//! SHA-256, implemented in-repo.
//!
//! The sketch store addresses objects by content, so the digest has to be
//! collision-resistant across everything a client might ever submit — a
//! non-cryptographic mixer would make `put` dedup unsound under adversarial
//! (or merely unlucky) inputs. The workspace is dependency-free by policy,
//! so the hash lives here, with two compression functions behind one
//! `compress_blocks`:
//!
//! - the scalar FIPS 180-4 compress over 512-bit blocks: the portable path,
//!   and the oracle the tests hold the other path to;
//! - a SHA-NI compress built on `std::arch`, chosen at run time when CPUID
//!   reports the SHA extensions on an x86_64 CPU.
//!
//! Both compute the same function, so every digest — and with it every
//! content address, HRW score and auth comparison — does not depend on the
//! CPU that computed it.

/// A 32-byte content digest (SHA-256).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest rendered as 64 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parses the 64 lowercase hex characters [`Digest::to_hex`] writes.
    /// Any other spelling — uppercase included — is not a digest, so a
    /// name that parses always round-trips to the same path.
    pub fn from_hex(s: &str) -> Option<Digest> {
        fn nibble(c: u8) -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                _ => None,
            }
        }
        let s = s.as_bytes();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, pair) in s.chunks(2).enumerate() {
            out[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Whether CPUID reports everything [`ni::compress_blocks`] enables beyond
/// the x86_64 baseline. `std` caches the answer after the first call.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`: on
/// SHA-NI when the CPU has it, otherwise block by block through [`compress`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `sha_ni_detected` has just confirmed `sha`, `sse4.1` and
        // `ssse3` through `is_x86_feature_detected!`; `sse2` is part of the
        // x86_64 baseline. Those are exactly the features the callee enables.
        unsafe { ni::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// The SHA-NI compress: the same FIPS 180-4 function, two rounds per
/// `sha256rnds2`, the message schedule four words at a time through
/// `sha256msg1`/`sha256msg2`. The instructions keep the working variables
/// as two lanes, ABEF and CDGH, so the state is shuffled into that layout
/// once per call and back once at the end.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    /// Calling it from code compiled without these features is `unsafe`:
    /// the caller must first have confirmed them from CPUID.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let words = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 bytes; the unaligned loads read bytes 0..16
        // (a b c d) and 16..32 (e f g h).
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let lanes = block.as_ptr().cast::<__m128i>();
            // SAFETY: `chunks_exact(64)` yields 64-byte blocks; the four
            // unaligned loads read bytes 0..16, 16..32, 32..48 and 48..64.
            let raw = unsafe {
                [
                    _mm_loadu_si128(lanes),
                    _mm_loadu_si128(lanes.add(1)),
                    _mm_loadu_si128(lanes.add(2)),
                    _mm_loadu_si128(lanes.add(3)),
                ]
            };
            let mut w = [
                _mm_shuffle_epi8(raw[0], bswap),
                _mm_shuffle_epi8(raw[1], bswap),
                _mm_shuffle_epi8(raw[2], bswap),
                _mm_shuffle_epi8(raw[3], bswap),
            ];
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            // Each step replaces the oldest four words, which no later
            // step reads.
            for i in (4..16).step_by(4) {
                w[0] = schedule(w[0], w[1], w[2], w[3]);
                rounds4(&mut abef, &mut cdgh, w[0], i);
                w[1] = schedule(w[1], w[2], w[3], w[0]);
                rounds4(&mut abef, &mut cdgh, w[1], i + 1);
                w[2] = schedule(w[2], w[3], w[0], w[1]);
                rounds4(&mut abef, &mut cdgh, w[2], i + 2);
                w[3] = schedule(w[3], w[0], w[1], w[2]);
                rounds4(&mut abef, &mut cdgh, w[3], i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: the unaligned stores write bytes 0..16 and 16..32 of the
        // 32-byte `state`.
        unsafe {
            _mm_storeu_si128(words, dcba);
            _mm_storeu_si128(words.add(1), hgfe);
        }
    }

    /// Rounds `4i .. 4i + 4`, with `w` holding their four message words.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four message words, from the sixteen before them.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }
}

const INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256: feed bytes with [`Sha256::update`] as they arrive
/// and call [`Sha256::finalize`] once. The streaming SUBMIT path hashes a
/// sketch chunk-by-chunk as it spills to the store staging file, so peak
/// memory never holds the whole message; [`sha256`] is the one-shot
/// convenience over the same state machine.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Sha256 {
        Sha256 {
            state: INIT,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`; may be called any number of times with any split.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads, compresses the final block(s), and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit message length in bits.
        let mut last = [0u8; 128];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[self.buf_len] = 0x80;
        let bit_len = self.total.wrapping_mul(8);
        let padded = if self.buf_len < 56 { 64 } else { 128 };
        last[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &last[..padded]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA-256 of `data` through the scalar [`compress`] alone: the oracle.
    fn scalar_sha256(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = INIT;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Whether `compress_blocks` takes the hardware path on this CPU; says
    /// so when it does not, so a run without SHA-NI reads as skipped.
    fn hardware_path(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let hw = sha_ni_detected();
        #[cfg(not(target_arch = "x86_64"))]
        let hw = false;
        if !hw {
            println!("{test}: no SHA-NI on this CPU; the hardware path was skipped");
        }
        hw
    }

    /// splitmix64: a seeded byte source for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    // FIPS 180-4 / NIST CAVP reference vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(scalar_sha256(input).to_hex(), *expected, "scalar");
            assert_eq!(sha256(input).to_hex(), *expected);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(scalar_sha256(&data).to_hex(), expected, "scalar");
        assert_eq!(sha256(&data).to_hex(), expected);
    }

    #[test]
    fn compress_blocks_matches_the_scalar_compress() {
        // Random states and random runs of 1..=8 blocks: the dispatching
        // compress must land on the state the scalar one reaches block by
        // block, including from states no real message reaches.
        let hw = hardware_path("compress_blocks_matches_the_scalar_compress");
        let mut rng = Rng(0x5ea1_ab1e);
        for round in 0..500 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next() as u32);
            let len = 64 * (1 + rng.below(8));
            let blocks = rng.bytes(len);
            let mut scalar = state;
            for block in blocks.chunks_exact(64) {
                compress(&mut scalar, block);
            }
            let mut dispatched = state;
            compress_blocks(&mut dispatched, &blocks);
            assert_eq!(dispatched, scalar, "round {round} (hardware: {hw})");
        }
    }

    #[test]
    fn random_splits_match_one_shot_and_the_scalar_oracle() {
        hardware_path("random_splits_match_one_shot_and_the_scalar_oracle");
        let mut rng = Rng(0xd15c_0de5);
        for round in 0..300 {
            let len = rng.below(5_001);
            let data = rng.bytes(len);
            let expect = sha256(&data);
            assert_eq!(expect, scalar_sha256(&data), "round {round}: one-shot");
            let mut h = Sha256::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                // Mostly short feeds, sometimes several blocks at once.
                let cap = if rng.below(4) == 0 { 400 } else { 70 };
                let (head, tail) = rest.split_at(rng.below(cap + 1).min(rest.len()));
                h.update(head);
                rest = tail;
            }
            assert_eq!(h.finalize(), expect, "round {round}: {len} bytes");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the one-vs-two final block boundary (55/56/64)
        // all round-trip through the hex codec and differ pairwise.
        let mut seen = std::collections::BTreeSet::new();
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let d = sha256(&vec![0xa5u8; len]);
            assert_eq!(d, scalar_sha256(&vec![0xa5u8; len]), "length {len}");
            assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
            assert!(seen.insert(d.to_hex()), "collision at length {len}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        // Every split pattern of a message spanning several blocks must
        // land on the same digest as the one-shot hash, including updates
        // that straddle the internal 64-byte buffer in both directions.
        let data: Vec<u8> = (0..517u32).map(|i| (i * 31 + 7) as u8).collect();
        let expect = sha256(&data);
        for step in [1usize, 3, 7, 63, 64, 65, 100, 517] {
            let mut h = Sha256::new();
            for chunk in data.chunks(step) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expect, "step {step}");
        }
        // Uneven splits: a long feed followed by single bytes.
        let mut h = Sha256::new();
        h.update(&data[..130]);
        for b in &data[130..] {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), expect);
        // Empty updates are no-ops.
        let mut h = Sha256::new();
        h.update(&[]);
        h.update(&data);
        h.update(&[]);
        assert_eq!(h.finalize(), expect);
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        assert_eq!(Digest::from_hex(&"ab".repeat(31)), None);
        // Only the lowercase spelling `to_hex` writes is a digest.
        let d = sha256(b"case");
        assert_eq!(Digest::from_hex(&d.to_hex().to_uppercase()), None);
        assert_eq!(Digest::from_hex(&"aB".repeat(32)), None);
        assert_eq!(Digest::from_hex(&"ab".repeat(32)), Some(Digest([0xab; 32])));
    }
}
