//! The ChaCha20 block function (RFC 8439 §2.3).
//!
//! Only the block function is exposed. It backs the deterministic random bit
//! generator in [`crate::drbg`], the per-location keystream of the simulated
//! memory-encryption controller (`tyche-hw::mktme`), and the
//! ChaCha20-Poly1305 AEAD in `libtyche::aead`, where block 0 of a (key,
//! nonce) pair is the one-time Poly1305 key and blocks 1, 2, … are the
//! keystream. The AEAD authenticates every fleet channel frame and seals
//! every attested RDMA frame.

/// "expand 32-byte k" — the ChaCha constant words.
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// Computes one 64-byte ChaCha20 keystream block.
///
/// `key` is the 256-bit key, `counter` the 32-bit block counter, and `nonce`
/// the 96-bit nonce, all laid out as in RFC 7539.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }

    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The ChaCha quarter round on state indices `(a, b, c, d)`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_block_vector() {
        // RFC 7539 §2.3.2.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        let expected_prefix = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&out[..16], &expected_prefix);
        let expected_suffix = [
            0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50,
            0x3c, 0x4e,
        ];
        assert_eq!(&out[48..], &expected_suffix);
    }

    #[test]
    fn counter_changes_block() {
        let key = [7u8; 32];
        let nonce = [1u8; 12];
        assert_ne!(block(&key, 0, &nonce), block(&key, 1, &nonce));
    }

    #[test]
    fn nonce_changes_block() {
        let key = [7u8; 32];
        assert_ne!(block(&key, 0, &[0u8; 12]), block(&key, 0, &[1u8; 12]));
    }
}
