//! ChaCha20-Poly1305 (RFC 8439 §2.8), with the tag detached from the
//! ciphertext.
//!
//! This is the authenticated encryption of the fleet wire: a channel
//! frame's tag is [`tag`] over an empty plaintext with the frame header
//! and its bound bytes as additional data, and an attested RDMA frame is
//! [`seal`]ed whole. For a (key, nonce) pair, ChaCha20 block 0 yields
//! the one-time Poly1305 key (its first 32 bytes) and blocks 1, 2, …
//! are the keystream. The tag is Poly1305 over
//! `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(aad)_le64 ‖ len(ciphertext)_le64`.
//!
//! A nonce must never repeat under one key: a repeat reveals the XOR of
//! two plaintexts and lets anyone who saw both tags forge new ones.
//! Callers build nonces from counters that never wrap within a key's
//! life. Additional data is passed in parts, so a caller can bind a
//! fixed header and a payload without concatenating them.

use crate::chacha;
use crate::poly1305::Poly1305;

/// Bytes in a tag.
pub const TAG_LEN: usize = 16;

/// A detached authentication tag.
pub type Tag = [u8; TAG_LEN];

/// The longest message one (key, nonce) pair can encrypt: the 32-bit
/// block counter counts 64-byte blocks, and block 0 keys Poly1305.
pub const MAX_MESSAGE: u64 = 64 * (u32::MAX as u64);

/// The tag of `ciphertext` under (`key`, `nonce`), with the
/// concatenation of the `aad` parts as additional data. With an empty
/// ciphertext this is a MAC over the additional data alone.
pub fn tag(key: &[u8; 32], nonce: &[u8; 12], aad: &[&[u8]], ciphertext: &[u8]) -> Tag {
    let mut one_time = [0u8; 32];
    for (k, b) in one_time.iter_mut().zip(chacha::block(key, 0, nonce)) {
        *k = b;
    }
    let mut mac = Poly1305::new(&one_time);
    let mut aad_len = 0u64;
    for part in aad {
        mac.update(part);
        aad_len += part.len() as u64;
    }
    mac.pad_to_block();
    mac.update(ciphertext);
    mac.pad_to_block();
    let lengths = u128::from(aad_len) | (u128::from(ciphertext.len() as u64) << 64);
    mac.update(&lengths.to_le_bytes());
    mac.finalize()
}

/// Checks `expected` against [`tag`] in constant time.
pub fn check(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[&[u8]],
    ciphertext: &[u8],
    expected: &Tag,
) -> bool {
    crate::ct::eq(&tag(key, nonce, aad, ciphertext), expected)
}

/// XORs the keystream for (`key`, `nonce`) into `buf`: block `i + 1`
/// over its `i`-th 64-byte chunk. Encrypts plaintext and decrypts
/// ciphertext. This is the cipher half of [`seal`] and [`open`], for a
/// caller that checks the tag itself and decrypts later; `buf` must not
/// exceed [`MAX_MESSAGE`] bytes (bytes past it are left untouched).
pub fn apply_keystream(key: &[u8; 32], nonce: &[u8; 12], buf: &mut [u8]) {
    for (counter, chunk) in (1..=u32::MAX).zip(buf.chunks_mut(64)) {
        let ks = chacha::block(key, counter, nonce);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

/// Encrypts `buf` in place and returns its tag. `None`, with `buf`
/// untouched, when `buf` is longer than [`MAX_MESSAGE`].
pub fn seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[&[u8]], buf: &mut [u8]) -> Option<Tag> {
    if buf.len() as u64 > MAX_MESSAGE {
        return None;
    }
    apply_keystream(key, nonce, buf);
    Some(tag(key, nonce, aad, buf))
}

/// Checks `expected` over the ciphertext in `buf` and, only if it
/// verifies, decrypts `buf` in place. On `false`, `buf` is untouched.
pub fn open(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[&[u8]],
    buf: &mut [u8],
    expected: &Tag,
) -> bool {
    if buf.len() as u64 > MAX_MESSAGE || !check(key, nonce, aad, buf, expected) {
        return false;
    }
    apply_keystream(key, nonce, buf);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8439 §2.6.2: the Poly1305 key is the first 32 bytes of
    /// ChaCha20 block 0.
    #[test]
    fn rfc8439_2_6_2_one_time_key() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f 909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000000001020304050607").try_into().unwrap();
        assert_eq!(
            hex(&chacha::block(&key, 0, &nonce)[..32]),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    /// RFC 8439 §2.8.2: the sunscreen AEAD vector.
    #[test]
    fn rfc8439_2_8_2_seal() {
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
            only one tip for the future, sunscreen would be it.";
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f 909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let mut buf = plaintext.to_vec();
        let tag = seal(&key, &nonce, &[&aad], &mut buf).unwrap();
        assert_eq!(
            hex(&buf),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(&tag), "1ae10b594f09e26a7e902ecbd0600691");
        // The additional data may arrive in any number of parts.
        let (head, tail) = aad.split_at(5);
        assert_eq!(super::tag(&key, &nonce, &[head, &[], tail], &buf), tag);
        assert!(open(&key, &nonce, &[&aad], &mut buf, &tag));
        assert_eq!(buf, plaintext);
    }

    /// RFC 8439 Appendix A.5: the AEAD decryption vector.
    #[test]
    fn rfc8439_a5_open() {
        let key: [u8; 32] =
            unhex("1c9240a5eb55d38af333888604f6b5f0 473917c1402b80099dca5cbc207075c0")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000000102030405060708").try_into().unwrap();
        let aad = unhex("f33388860000000000004e91");
        let tag: Tag = unhex("eead9d67890cbb22392336fea1851f38")
            .try_into()
            .unwrap();
        let mut buf = unhex(
            "64a0861575861af460f062c79be643bd 5e805cfd345cf389f108670ac76c8cb2 \
             4c6cfc18755d43eea09ee94e382d26b0 bdb7b73c321b0100d4f03b7f355894cf \
             332f830e710b97ce98c8a84abd0b9481 14ad176e008d33bd60f982b1ff37c855 \
             9797a06ef4f0ef61c186324e2b350638 3606907b6a7c02b0f9f6157b53c867e4 \
             b9166c767b804d46a59b5216cde7a4e9 9040c5a40433225ee282a1b0a06c523e \
             af4534d7f83fa1155b0047718cbc546a 0d072b04b3564eea1b422273f548271a \
             0bb2316053fa76991955ebd63159434e cebb4e466dae5a1073a6727627097a10 \
             49e617d91d361094fa68f0ff77987130 305beaba2eda04df997b714d6c6f2c29 \
             a6ad5cb4022b02709b",
        );
        let ciphertext = buf.clone();
        // A flipped tag bit leaves the ciphertext untouched.
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!open(&key, &nonce, &[&aad], &mut buf, &bad));
        assert_eq!(buf, ciphertext);
        assert!(open(&key, &nonce, &[&aad], &mut buf, &tag));
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "Internet-Drafts are draft documents valid for a maximum of six months and may be \
             updated, replaced, or obsoleted by other documents at any time. It is \
             inappropriate to use Internet-Drafts as reference material or to cite them other \
             than as /\u{201c}work in progress./\u{201d}"
        );
    }

    #[test]
    fn every_input_is_bound() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let mut ct = b"some ciphertext bytes".to_vec();
        let t = tag(&key, &nonce, &[b"header"], &ct);
        assert!(check(&key, &nonce, &[b"header"], &ct, &t));
        assert!(!check(&[8u8; 32], &nonce, &[b"header"], &ct, &t));
        assert!(!check(&key, &[4u8; 12], &[b"header"], &ct, &t));
        assert!(!check(&key, &nonce, &[b"headeR"], &ct, &t));
        // Moving a byte between the additional data and the ciphertext
        // changes the lengths block.
        assert!(!check(
            &key,
            &nonce,
            &[b"headers"],
            b"ome ciphertext bytes",
            &t
        ));
        ct[0] ^= 0x80;
        assert!(!check(&key, &nonce, &[b"header"], &ct, &t));
        for bit in 0..128 {
            let mut bad = t;
            bad[bit / 8] ^= 1 << (bit % 8);
            ct[0] ^= 0x80;
            assert!(!check(&key, &nonce, &[b"header"], &ct, &bad), "bit {bit}");
            ct[0] ^= 0x80;
        }
    }

    #[test]
    fn seal_open_round_trip_at_block_edges() {
        let mut rng = crate::ChaChaRng::from_seed(0xae4d);
        let key = rng.next_bytes32();
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 128, 200] {
            let mut nonce = [0u8; 12];
            rng.fill_bytes(&mut nonce);
            let mut plain = vec![0u8; len];
            rng.fill_bytes(&mut plain);
            let mut buf = plain.clone();
            let t = seal(&key, &nonce, &[b"aad"], &mut buf).unwrap();
            if len > 0 {
                assert_ne!(buf, plain, "len {len}");
            }
            // The cipher half alone is the same stream.
            let mut again = plain.clone();
            apply_keystream(&key, &nonce, &mut again);
            assert_eq!(again, buf);
            assert!(open(&key, &nonce, &[b"aad"], &mut buf, &t));
            assert_eq!(buf, plain, "len {len}");
        }
    }
}
