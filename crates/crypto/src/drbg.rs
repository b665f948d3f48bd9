//! A ChaCha20-based deterministic random bit generator.
//!
//! Used by the simulated TPM for nonces and key generation, and by workload
//! generators that need reproducible randomness (benchmarks must produce the
//! same workloads run-to-run).
//!
//! The output stream is a compatibility surface: seeded artifacts, TPM
//! nonces and benchmark inputs are all drawn from it, so a change to how
//! bytes are produced must leave every byte where it was. The stream is
//! the ChaCha20 keystream for the seed as key, an all-zero nonce and a
//! block counter from 0 (the nonce steps each time the 32-bit counter
//! wraps), handed out front to back without regard to how callers split
//! their draws; a known-answer test pins its first 128 bytes.

use crate::chacha;

/// Deterministic RNG driven by the ChaCha20 block function.
///
/// Not a general-purpose CSPRNG interface — it exposes exactly the draws the
/// reproduction needs. Reseeding is by constructing a new generator.
///
/// # Examples
///
/// ```
/// use tyche_crypto::ChaChaRng;
/// let mut a = ChaChaRng::from_seed(42);
/// let mut b = ChaChaRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buf: [u8; 64],
    /// Next unread offset into `buf`; 64 means "refill needed".
    pos: usize,
}

impl ChaChaRng {
    /// Creates a generator from a full 256-bit seed.
    pub fn new(seed: [u8; 32]) -> Self {
        ChaChaRng {
            key: seed,
            nonce: [0u8; 12],
            counter: 0,
            buf: [0u8; 64],
            pos: 64,
        }
    }

    /// Creates a generator from a small integer seed (convenience for tests
    /// and benchmarks). The seed is expanded through SHA-256.
    pub fn from_seed(seed: u64) -> Self {
        let digest = crate::hash(&seed.to_le_bytes());
        Self::new(digest.0)
    }

    /// Refills the keystream buffer.
    fn refill(&mut self) {
        self.buf = chacha::block(&self.key, self.counter, &self.nonce);
        self.counter = self.counter.wrapping_add(1);
        // A 32-bit counter wraps after 256 GiB of output; bump the nonce so
        // the stream never repeats even then.
        if self.counter == 0 {
            for b in self.nonce.iter_mut() {
                *b = b.wrapping_add(1);
                if *b != 0 {
                    break;
                }
            }
        }
        self.pos = 0;
    }

    /// Fills `out` with pseudo-random bytes.
    ///
    /// The stream does not depend on how it is drawn: one fill of `n`
    /// bytes equals any sequence of fills that add up to `n`.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut out = out;
        while !out.is_empty() {
            if self.pos == 64 {
                self.refill();
            }
            let end = (self.pos + out.len()).min(64);
            let chunk = &self.buf[self.pos..end];
            let (head, rest) = std::mem::take(&mut out).split_at_mut(chunk.len());
            head.copy_from_slice(chunk);
            self.pos = end;
            out = rest;
        }
    }

    /// Draws a pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Draws a pseudo-random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    /// Draws a value uniformly from `[0, bound)` using rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Draws a fresh 32-byte value (e.g. a key or nonce for the TPM model).
    pub fn next_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = ChaChaRng::from_seed(7);
        let mut b = ChaChaRng::from_seed(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaChaRng::from_seed(1);
        let mut b = ChaChaRng::from_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = ChaChaRng::from_seed(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        ChaChaRng::from_seed(0).below(0);
    }

    #[test]
    fn fill_bytes_across_block_boundary() {
        let mut rng = ChaChaRng::from_seed(9);
        let mut one = vec![0u8; 200];
        rng.fill_bytes(&mut one);
        let mut rng2 = ChaChaRng::from_seed(9);
        let mut parts = vec![0u8; 200];
        let (a, rest) = parts.split_at_mut(63);
        let (b, c) = rest.split_at_mut(2);
        rng2.fill_bytes(a);
        rng2.fill_bytes(b);
        rng2.fill_bytes(c);
        assert_eq!(one, parts);
    }

    #[test]
    fn stream_is_pinned() {
        // The first 128 bytes of seed 42. Seeded artifacts, TPM nonces and
        // benchmark inputs are all drawn from this stream, so it must never
        // drift.
        let mut rng = ChaChaRng::from_seed(42);
        let mut out = [0u8; 128];
        rng.fill_bytes(&mut out);
        let hex: String = out.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0d0231cc322b22a46dd76a34b43fd826eb57695accfa4d07579ea98bbe15043b\
             73ca954f80b816af37b8af5daa7d2cf795b0f150eb04a8a086daaf222e9a5699\
             a74477fa753db6d937b72c7ae10092b3f1dc35774320a2ac02a3ce807f4ca441\
             5840153febe21d9de853689821d73903828c378ee5dcb2f8c6cd5095f72edca7"
        );
    }

    #[test]
    fn arbitrary_splits_match_one_fill() {
        let mut one = vec![0u8; 1000];
        ChaChaRng::from_seed(42).fill_bytes(&mut one);
        let mut sizes = ChaChaRng::from_seed(5);
        for _ in 0..50 {
            let mut rng = ChaChaRng::from_seed(42);
            let mut parts = vec![0u8; 1000];
            let mut rest = parts.as_mut_slice();
            while !rest.is_empty() {
                let n = (sizes.below(150) as usize).min(rest.len());
                let (head, tail) = rest.split_at_mut(n);
                rng.fill_bytes(head);
                rest = tail;
            }
            assert_eq!(one, parts);
        }
    }

    #[test]
    fn rough_uniformity() {
        // Mean of next_u32 draws should be near 2^31.
        let mut rng = ChaChaRng::from_seed(11);
        let n = 10_000u64;
        let sum: u64 = (0..n).map(|_| rng.next_u32() as u64).sum();
        let mean = sum / n;
        let mid = 1u64 << 31;
        assert!(
            mean > mid - mid / 10 && mean < mid + mid / 10,
            "mean {mean}"
        );
    }
}
