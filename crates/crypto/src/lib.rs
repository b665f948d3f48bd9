//! Cryptographic primitives for the Tyche reproduction.
//!
//! The real Tyche relies on hardware roots of trust (TPM/TXT) and their
//! firmware crypto. This crate provides the software equivalents used by the
//! simulated platform and the attestation protocol:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256, used for all measurements (domain
//!   configurations, memory regions, PCR extends).
//! - [`hmac`]: HMAC-SHA256 (RFC 2104), the MAC underlying attestation
//!   "signatures" — see `DESIGN.md` for why MACs substitute for asymmetric
//!   signatures in this reproduction.
//! - [`hkdf`]: HKDF (RFC 5869) for deriving per-purpose keys from a device
//!   root secret, and the fleet's channel and RDMA keys.
//! - [`chacha`] / [`drbg`]: the ChaCha20 block function, the cipher of the
//!   simulated memory encryption and of the wire AEAD, and a ChaCha20-based
//!   deterministic random bit generator used by the simulated TPM and by
//!   workload generators that need reproducible randomness.
//! - [`ct`]: constant-time comparison, used whenever a MAC, tag or
//!   measurement is verified.
//! - [`sign`]: a tiny signing facade ([`sign::SigningKey`] /
//!   [`sign::VerifyingKey`]) over HMAC so higher layers read like a
//!   signature-based protocol.
//!
//! The wire's ChaCha20-Poly1305 AEAD is not here: no hypercall uses it,
//! so it lives with its callers in `libtyche` (`aead`, `poly1305`), the
//! TEE-side RDMA library that `tyche-fleet` builds its channels on.
//!
//! Everything is implemented from scratch in safe Rust with no external
//! dependencies; test vectors come from the relevant RFCs and FIPS documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert on engine state freely; the panic-path lints govern
// production code only (accounting: crates/verify/allowlist.toml).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chacha;
pub mod ct;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod sha256;
pub mod sign;

pub use drbg::ChaChaRng;
pub use hmac::HmacSha256;
pub use sha256::{Digest, Sha256};

/// Convenience: hash a byte slice with SHA-256.
///
/// # Examples
///
/// ```
/// let d = tyche_crypto::hash(b"abc");
/// assert_eq!(&d.to_hex()[..8], "ba7816bf");
/// ```
pub fn hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Convenience: hash the concatenation of several byte slices.
///
/// Equivalent to hashing the slices one after another with a single
/// [`Sha256`] instance; used for multi-part measurements.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}
