//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the measurement primitive for the whole reproduction: PCR
//! extends in the simulated TPM, domain-configuration hashes, and memory
//! region measurements all go through [`Sha256`], and so does every HMAC
//! on the attested fleet and RDMA paths, which makes the compression
//! function the hottest kernel there.
//!
//! The compression function keeps a rolling 16-word message schedule
//! instead of expanding all 64 words up front, unrolls the rounds by
//! renaming the working variables instead of shifting them, and reads
//! whole blocks straight from the caller's slice; only a partial block is
//! staged in the internal buffer. The textbook formulation is kept in the
//! tests as the reference the optimized one is checked against. Safe code
//! only: the crate forbids `unsafe`, so hardware SHA extensions are out of
//! reach.
// Approved panic paths: every `expect(` in this module is budgeted,
// with a reviewed reason, in crates/verify/allowlist.toml.
#![allow(clippy::expect_used)]

/// The SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The SHA-256 round constants (FIPS 180-4 §4.2.2).
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

/// A 32-byte SHA-256 digest.
///
/// Digests are the universal "measurement" currency of the reproduction;
/// they are ordered and hashable so they can serve as map keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the reset value of TPM PCRs.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Parses a digest from 64 hex characters.
    ///
    /// Returns `None` when the input is not exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 || !s.is_char_boundary(64) {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl core::fmt::Debug for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl core::fmt::Display for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use tyche_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes absorbed so far (including `buf`).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Zero padding for [`Sha256::finalize`].
const ZEROS: [u8; 63] = [0u8; 63];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut data = data;
        // Fill a partially-occupied block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            data = rest;
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, without a staging copy.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block);
        }
        // Stash the tail.
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let total_bits = self.len * 8;
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit
        // big-endian length, which completes the last block.
        let zeros = (119 - self.buf_len) % 64;
        self.update(&[0x80]);
        self.update(&ZEROS[..zeros]);
        self.update(&total_bits.to_be_bytes());
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One SHA-256 round (FIPS 180-4 §6.2.2 step 3) with `kw = K[t] + W[t]`.
/// Instead of shifting all eight working variables, the caller rotates
/// their names, so a round writes only `d` and `h`. `Ch` and `Maj` use
/// the equivalent forms `g ^ (e & (f ^ g))` and `(a & b) | (c & (a | b))`,
/// one operation shorter each.
macro_rules! round {
    ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// The SHA-256 compression function over one 64-byte block.
///
/// The message schedule is a rolling window of 16 words: each group of
/// 16 rounds overwrites the window in place with the next 16 schedule
/// words, and the rounds themselves are unrolled.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64, "SHA-256 blocks are 64 bytes");
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        let mut be = [0u8; 4];
        be.copy_from_slice(bytes);
        *word = u32::from_be_bytes(be);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (group, k) in K.chunks_exact(16).enumerate() {
        if group > 0 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], with
            // every index taken mod 16 in the window.
            for t in 0..16 {
                let w15 = w[(t + 1) & 15];
                let w2 = w[(t + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[t] = w[t]
                    .wrapping_add(s0)
                    .wrapping_add(w[(t + 9) & 15])
                    .wrapping_add(s1);
            }
        }
        let mut kw = [0u32; 16];
        for ((kw, k), w) in kw.iter_mut().zip(k).zip(&w) {
            *kw = k.wrapping_add(*w);
        }
        let [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15] = kw;
        round!(a b c d e f g h, k0);
        round!(h a b c d e f g, k1);
        round!(g h a b c d e f, k2);
        round!(f g h a b c d e, k3);
        round!(e f g h a b c d, k4);
        round!(d e f g h a b c, k5);
        round!(c d e f g h a b, k6);
        round!(b c d e f g h a, k7);
        round!(a b c d e f g h, k8);
        round!(h a b c d e f g, k9);
        round!(g h a b c d e f, k10);
        round!(f g h a b c d e, k11);
        round!(e f g h a b c d, k12);
        round!(d e f g h a b c, k13);
        round!(c d e f g h a b, k14);
        round!(b c d e f g h a, k15);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize().to_hex()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize().to_hex(), hex(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths that straddle the 55/56/64 padding boundaries must all be
        // distinct and stable.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0x5au8; len];
            assert!(seen.insert(hex(&data)), "collision at len {len}");
        }
    }

    /// The textbook FIPS 180-4 compression function (full 64-word
    /// schedule, shifted working variables), kept as the reference the
    /// optimized [`compress`] is checked against.
    fn reference_compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// One-shot SHA-256 over [`reference_compress`], with the padding
    /// laid out by hand.
    fn reference_hash(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            reference_compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    #[test]
    fn compress_matches_reference_on_random_blocks() {
        let mut rng = crate::ChaChaRng::from_seed(0x5a5a);
        for _ in 0..256 {
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let mut state = [0u32; 8];
            for s in state.iter_mut() {
                *s = rng.next_u32();
            }
            let mut fast = state;
            compress(&mut fast, &block);
            reference_compress(&mut state, &block);
            assert_eq!(fast, state);
        }
    }

    #[test]
    fn differential_against_reference_at_random_lengths_and_splits() {
        // Every length 0..=1024, each hashed one-shot and in three
        // updates split at random points.
        let mut rng = crate::ChaChaRng::from_seed(0xd1ff);
        let mut data = vec![0u8; 1024];
        rng.fill_bytes(&mut data);
        for len in 0..=1024usize {
            let msg = &data[..len];
            let want = reference_hash(msg);
            assert_eq!(crate::hash(msg), want, "one-shot, len {len}");
            let mut cuts = [
                rng.below(len as u64 + 1) as usize,
                rng.below(len as u64 + 1) as usize,
            ];
            cuts.sort_unstable();
            let mut h = Sha256::new();
            h.update(&msg[..cuts[0]]);
            h.update(&msg[cuts[0]..cuts[1]]);
            h.update(&msg[cuts[1]..]);
            assert_eq!(h.finalize(), want, "len {len} split at {cuts:?}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = crate::hash(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn display_and_debug() {
        let d = crate::hash(b"abc");
        assert_eq!(format!("{d}").len(), 64);
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
    }
}
