//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC is the authentication primitive behind attestation reports and
//! quotes in this reproduction (see `DESIGN.md`: MACs substitute for the
//! asymmetric signatures a production TPM would produce), and the PRF of
//! HKDF. Fleet channel and RDMA frames are authenticated with
//! ChaCha20-Poly1305 (`libtyche::aead`) instead.
//!
//! A keyed [`HmacSha256`] holds the hash states with the inner and outer
//! key pads already absorbed. Long-lived key holders (signing and
//! verifying keys) key it once and call [`HmacSha256::tag`] /
//! [`HmacSha256::check`] per message, which clones
//! the keyed state instead of re-hashing both 64-byte pads every time.
//! The keyed state is key material: anyone holding it can forge tags, so
//! it gets the same care as the raw key. The type deliberately has no
//! `Debug` impl, so a holder cannot print it by deriving `Debug`.

use crate::sha256::{Digest, Sha256};

/// Incremental HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use tyche_crypto::HmacSha256;
/// let mut mac = HmacSha256::new(&[0x0b; 20]);
/// mac.update(b"Hi There");
/// assert_eq!(
///     mac.finalize().to_hex(),
///     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
/// );
/// ```
///
/// A keyed instance can authenticate many messages:
///
/// ```
/// use tyche_crypto::HmacSha256;
/// let key = HmacSha256::new(b"Jefe");
/// let tag = key.tag(b"what do ya want for nothing?");
/// assert!(key.check(b"what do ya want for nothing?", &tag));
/// assert_eq!(tag, HmacSha256::mac(b"Jefe", b"what do ya want for nothing?"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    /// Inner hash: the ipad key block, then the message.
    inner: Sha256,
    /// Outer hash with the opad key block already absorbed; the inner
    /// digest is appended at finalization.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first (RFC 2104 §2).
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let d = crate::hash(key);
            key_block[..32].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|k| k ^ byte));
            h
        };
        HmacSha256 {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC computation.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// The MAC of `data` under this instance's key, leaving the keyed
    /// state untouched for the next message. Bytes already passed to
    /// [`Self::update`] are part of the message, ahead of `data`.
    pub fn tag(&self, data: &[u8]) -> Digest {
        let mut h = self.clone();
        h.update(data);
        h.finalize()
    }

    /// Checks `tag` against [`Self::tag`] of `data` in constant time.
    pub fn check(&self, data: &[u8], tag: &Digest) -> bool {
        crate::ct::eq(self.tag(data).as_bytes(), tag.as_bytes())
    }

    /// One-shot HMAC over a single message.
    pub fn mac(key: &[u8], data: &[u8]) -> Digest {
        Self::new(key).tag(data)
    }

    /// Verifies `tag` against the MAC of `data` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &Digest) -> bool {
        Self::new(key).check(data, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let tag = HmacSha256::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let tag = HmacSha256::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // 131-byte key exercises the hash-the-key path.
        let tag = HmacSha256::mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"key", b"msg");
        assert!(HmacSha256::verify(b"key", b"msg", &tag));
        assert!(!HmacSha256::verify(b"key", b"msg2", &tag));
        assert!(!HmacSha256::verify(b"key2", b"msg", &tag));
        let mut bad = tag;
        bad.0[0] ^= 1;
        assert!(!HmacSha256::verify(b"key", b"msg", &bad));
    }

    /// HMAC straight from its definition, `H((K ^ opad) || H((K ^ ipad) || m))`,
    /// with no keyed state involved.
    fn reference_mac(key: &[u8], msg: &[u8]) -> Digest {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(crate::hash(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let inner = crate::hash_parts(&[&k.map(|b| b ^ 0x36), msg]);
        crate::hash_parts(&[&k.map(|b| b ^ 0x5c), inner.as_bytes()])
    }

    #[test]
    fn keyed_state_matches_one_shot_across_block_edges() {
        // Key lengths around the 64-byte block (0, short, exactly one
        // block, hashed-first) and message lengths around the 55/56 and
        // 64-byte padding edges of the inner hash.
        let mut rng = crate::ChaChaRng::from_seed(0x4ac);
        for key_len in [0usize, 32, 64, 65, 131] {
            let mut key = vec![0u8; key_len];
            rng.fill_bytes(&mut key);
            let keyed = HmacSha256::new(&key);
            for msg_len in [55usize, 56, 63, 64, 119, 120] {
                let mut msg = vec![0u8; msg_len];
                rng.fill_bytes(&mut msg);
                let tag = keyed.tag(&msg);
                assert_eq!(
                    tag,
                    HmacSha256::mac(&key, &msg),
                    "key {key_len}, msg {msg_len}"
                );
                assert_eq!(
                    tag,
                    reference_mac(&key, &msg),
                    "key {key_len}, msg {msg_len}"
                );
                // The keyed state is reusable: a second message gives the
                // same answer as a fresh key.
                assert_eq!(keyed.tag(&msg), tag);
                assert!(keyed.check(&msg, &tag));
                for bit in [0usize, 7, 128, 255] {
                    let mut bad = tag;
                    bad.0[bit / 8] ^= 1 << (bit % 8);
                    assert!(!keyed.check(&msg, &bad), "flipped bit {bit} accepted");
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut m = HmacSha256::new(b"k");
        m.update(b"hello ");
        m.update(b"world");
        assert_eq!(m.finalize(), HmacSha256::mac(b"k", b"hello world"));
    }
}
