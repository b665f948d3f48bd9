//! A signing facade over HMAC-SHA256.
//!
//! The paper's attestation protocol has the root of trust and the monitor
//! *sign* measurements so that remote verifiers can check them. A production
//! implementation uses asymmetric keys (TPM AIK, monitor attestation key);
//! this reproduction substitutes MACs with a verifier-shared key, which
//! preserves the protocol logic (who signs what, what a verifier checks,
//! what a forgery looks like) while keeping the crypto self-contained. The
//! substitution is recorded in `DESIGN.md`.

use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::sha256::Digest;

/// A signature (MAC tag) over a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub Digest);

impl Signature {
    /// Renders the signature as hex for reports and logs.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }
}

/// The tag of the message `write` feeds into a copy of the keyed `mac`.
fn streamed_tag(mac: &HmacSha256, write: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Digest {
    let mut mac = mac.clone();
    write(&mut |piece| mac.update(piece));
    mac.finalize()
}

/// A signing key held by a root of trust or monitor.
///
/// Holds the keyed HMAC state (key material, see [`crate::hmac`]) rather
/// than the raw key, so signing a message does not re-absorb the key pads.
#[derive(Clone)]
pub struct SigningKey {
    mac: HmacSha256,
}

impl SigningKey {
    /// Creates a signing key from raw key material.
    pub fn new(key: [u8; 32]) -> Self {
        SigningKey {
            mac: HmacSha256::new(&key),
        }
    }

    /// Derives a purpose-separated signing key from a root secret.
    pub fn derive(root: &[u8], purpose: &str) -> Self {
        Self::new(hkdf::derive_key32(b"tyche-sign", root, purpose.as_bytes()))
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(self.mac.tag(msg))
    }

    /// Signs the message `write` feeds, piece by piece, to the sink it
    /// is handed: the same signature as [`Self::sign`] over the pieces
    /// concatenated, without collecting them.
    pub fn sign_streamed(&self, write: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Signature {
        Signature(streamed_tag(&self.mac, write))
    }

    /// Returns the matching verifying key.
    ///
    /// With the MAC substitution the verifying key carries the same key
    /// material; a production build would return the public half.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            mac: self.mac.clone(),
        }
    }
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("SigningKey(..)")
    }
}

/// The verification half of a [`SigningKey`].
#[derive(Clone)]
pub struct VerifyingKey {
    mac: HmacSha256,
}

impl VerifyingKey {
    /// Verifies `sig` over `msg` in constant time.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.mac.check(msg, &sig.0)
    }

    /// [`Self::verify`] over the message `write` feeds piece by piece
    /// (see [`SigningKey::sign_streamed`]), in constant time.
    pub fn verify_streamed(
        &self,
        write: impl FnOnce(&mut dyn FnMut(&[u8])),
        sig: &Signature,
    ) -> bool {
        crate::ct::eq(streamed_tag(&self.mac, write).as_bytes(), sig.0.as_bytes())
    }
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("VerifyingKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SigningKey::derive(b"root-secret", "attest");
        let vk = sk.verifying_key();
        let sig = sk.sign(b"report");
        assert!(vk.verify(b"report", &sig));
        assert!(!vk.verify(b"report2", &sig));
    }

    #[test]
    fn purpose_separation() {
        let a = SigningKey::derive(b"root", "attest");
        let b = SigningKey::derive(b"root", "seal");
        let sig = a.sign(b"m");
        assert!(!b.verifying_key().verify(b"m", &sig));
    }

    #[test]
    fn forged_signature_rejected() {
        let sk = SigningKey::derive(b"root", "attest");
        let vk = sk.verifying_key();
        let mut sig = sk.sign(b"m");
        sig.0 .0[5] ^= 0xff;
        assert!(!vk.verify(b"m", &sig));
    }

    #[test]
    fn signature_is_pinned() {
        // Attestation signatures are compared across machines and stored
        // in artifacts; the keyed-state signer must produce the same bytes
        // as HMAC under the derived key always has.
        let sk = SigningKey::derive(b"root", "attest");
        assert_eq!(
            sk.sign(b"report").to_hex(),
            "ff2994485785dbcab48b1e8606641287d15cbdbdcea4f9606723dd1e10f08f8a"
        );
        let raw = hkdf::derive_key32(b"tyche-sign", b"root", b"attest");
        assert_eq!(sk.sign(b"report").0, HmacSha256::mac(&raw, b"report"));
    }

    #[test]
    fn streamed_signature_equals_one_shot() {
        let sk = SigningKey::derive(b"root", "attest");
        let vk = sk.verifying_key();
        let msg: Vec<u8> = (0..200u8).collect();
        for cut in [0usize, 1, 55, 64, 119, 200] {
            let (a, b) = msg.split_at(cut);
            let sig = sk.sign_streamed(|put| {
                put(a);
                put(b);
            });
            assert_eq!(sig, sk.sign(&msg), "cut at {cut}");
            assert!(vk.verify_streamed(|put| put(&msg), &sig));
            let mut bad = sig;
            bad.0 .0[31] ^= 1;
            assert!(!vk.verify_streamed(|put| put(&msg), &bad));
        }
    }

    #[test]
    fn debug_never_leaks_key() {
        let sk = SigningKey::new([0xaa; 32]);
        assert_eq!(format!("{sk:?}"), "SigningKey(..)");
        assert_eq!(format!("{:?}", sk.verifying_key()), "VerifyingKey(..)");
    }
}
