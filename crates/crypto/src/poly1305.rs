//! Poly1305 (RFC 8439 §2.5), the one-time authenticator inside the
//! ChaCha20-Poly1305 AEAD ([`crate::aead`]).
//!
//! The accumulator and the clamped key `r` are held in three limbs of
//! 44, 44 and 42 bits, so one block costs nine 64×64→128-bit products
//! and a short carry chain; the reduction modulo 2¹³⁰ − 5 is folded into
//! the products by pre-multiplying the top limbs of `r` by 5·4 (a limb
//! product that reaches 2¹³⁰ wraps around times 5). The final reduction
//! and the selection between `h` and `h − p` are branch-free. A
//! textbook big-integer Poly1305 is kept in the tests as the reference
//! this one is checked against.
//!
//! A Poly1305 key must authenticate one message only: the AEAD derives
//! a fresh one from ChaCha20 block 0 for every (key, nonce) pair. The
//! type holds key material and deliberately has no `Debug` impl.

/// Bytes in a Poly1305 block, and in its tag.
pub const BLOCK: usize = 16;

/// The low 44 bits.
const M44: u64 = (1 << 44) - 1;
/// The low 42 bits.
const M42: u64 = (1 << 42) - 1;
/// Bit 128 of a full block (the appended `0x01` byte), in the top limb.
const HIBIT: u64 = 1 << 40;

/// Incremental Poly1305.
///
/// # Examples
///
/// ```
/// use tyche_crypto::poly1305::Poly1305;
/// let mut mac = Poly1305::new(&[7u8; 32]);
/// mac.update(b"split ");
/// mac.update(b"anywhere");
/// assert_eq!(mac.finalize(), Poly1305::mac(&[7u8; 32], b"split anywhere"));
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    /// The clamped `r`, in 44/44/42-bit limbs.
    r: [u64; 3],
    /// `20 · r1` and `20 · r2`: the wrap-around factors of the reduction.
    s: [u64; 2],
    /// The accumulator, in 44/44/42-bit limbs (lazily carried).
    h: [u64; 3],
    /// The second key half, added to the accumulator at the end.
    pad: u128,
    /// A partial block awaiting more bytes.
    buf: [u8; BLOCK],
    /// Bytes of `buf` in use (always below [`BLOCK`]).
    buf_len: usize,
}

/// The little-endian integer of up to 16 bytes.
fn le_u128(bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .rev()
        .fold(0, |acc, &b| (acc << 8) | u128::from(b))
}

impl Poly1305 {
    /// Keys a Poly1305 instance: `r` is the first 16 bytes of `key`
    /// (clamped), the pad `s` the last 16.
    pub fn new(key: &[u8; 32]) -> Self {
        let (r, pad) = key.split_at(BLOCK);
        let r = le_u128(r) & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;
        let (t0, t1) = (r as u64, (r >> 64) as u64);
        let r0 = t0 & M44;
        let r1 = ((t0 >> 44) | (t1 << 20)) & M44;
        let r2 = (t1 >> 24) & M42;
        Poly1305 {
            r: [r0, r1, r2],
            s: [r1 * 20, r2 * 20],
            h: [0; 3],
            pad: le_u128(pad),
            buf: [0; BLOCK],
            buf_len: 0,
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            for (slot, &b) in self.buf.iter_mut().skip(self.buf_len).zip(head) {
                *slot = b;
            }
            self.buf_len += take;
            data = rest;
            if self.buf_len < BLOCK {
                return;
            }
            self.absorb(u128::from_le_bytes(self.buf), HIBIT);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        for block in blocks {
            self.absorb(u128::from_le_bytes(*block), HIBIT);
        }
        for (slot, &b) in self.buf.iter_mut().zip(rest) {
            *slot = b;
        }
        self.buf_len = rest.len();
    }

    /// Absorbs zero bytes up to the next 16-byte boundary of the
    /// message so far (the AEAD's `pad16`); nothing when it is on one.
    pub fn pad_to_block(&mut self) {
        if self.buf_len > 0 {
            self.buf.iter_mut().skip(self.buf_len).for_each(|b| *b = 0);
            self.absorb(u128::from_le_bytes(self.buf), HIBIT);
            self.buf_len = 0;
        }
    }

    /// `h = (h + m) · r mod 2¹³⁰ − 5` for one block `m`, with `hibit`
    /// the block's bit 128 in the top limb.
    fn absorb(&mut self, m: u128, hibit: u64) {
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        let [mut h0, mut h1, mut h2] = self.h;
        let (t0, t1) = (m as u64, (m >> 64) as u64);
        h0 += t0 & M44;
        h1 += ((t0 >> 44) | (t1 << 20)) & M44;
        h2 += ((t1 >> 24) & M42) | hibit;

        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
        let mut d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2);
        let mut d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);

        d1 += d0 >> 44;
        h0 = d0 as u64 & M44;
        d2 += d1 >> 44;
        h1 = d1 as u64 & M44;
        let c = (d2 >> 42) as u64;
        h2 = d2 as u64 & M42;
        h0 += c * 5;
        h1 += h0 >> 44;
        h0 &= M44;
        self.h = [h0, h1, h2];
    }

    /// Finishes the tag.
    pub fn finalize(mut self) -> [u8; BLOCK] {
        if self.buf_len > 0 {
            // The final partial block: its `0x01` byte goes right after
            // the data, inside the 16 bytes, so bit 128 stays clear.
            self.buf.iter_mut().skip(self.buf_len).for_each(|b| *b = 0);
            if let Some(one) = self.buf.get_mut(self.buf_len) {
                *one = 1;
            }
            self.absorb(u128::from_le_bytes(self.buf), 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Fully carry h, twice round the 2¹³⁰ wrap.
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= M44;
            h0 += (h2 >> 42) * 5;
            h2 &= M42;
            h1 += h0 >> 44;
            h0 &= M44;
        }

        // g = h + 5 − 2¹³⁰; keep g when it did not borrow (h ≥ p).
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= M44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= M44;
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // h + pad mod 2¹²⁸.
        let h = u128::from(h0) | (u128::from(h1) << 44) | (u128::from(h2) << 88);
        h.wrapping_add(self.pad).to_le_bytes()
    }

    /// One-shot Poly1305 of `data` under `key`.
    pub fn mac(key: &[u8; 32], data: &[u8]) -> [u8; BLOCK] {
        let mut mac = Self::new(key);
        mac.update(data);
        mac.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn key(s: &str) -> [u8; 32] {
        unhex(s).try_into().unwrap()
    }

    #[test]
    fn rfc8439_2_5_2() {
        let k = key("85d6be7857556d337f4452fe42d506a8 0103808afb0db2fd4abff6af4149f51b");
        let tag = Poly1305::mac(&k, b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    /// RFC 8439 Appendix A.3, test vectors #1–#11: (key, message, tag).
    /// #5–#11 are the carry and reduction corner cases: accumulators
    /// just above, at or just below p, and `h + pad` wrapping 2¹²⁸.
    const A3: &[(&str, &str, &str)] = &[
        (
            "00000000000000000000000000000000 00000000000000000000000000000000",
            "00000000000000000000000000000000 00000000000000000000000000000000 \
             00000000000000000000000000000000 00000000000000000000000000000000",
            "00000000000000000000000000000000",
        ),
        (
            "00000000000000000000000000000000 36e5f6b5c5e06070f0efca96227a863e",
            // "Any submission to the IETF intended by the Contributor ..."
            "",
            "36e5f6b5c5e06070f0efca96227a863e",
        ),
        (
            "36e5f6b5c5e06070f0efca96227a863e 00000000000000000000000000000000",
            "",
            "f3477e7cd95417af89a6b8794c310cf0",
        ),
        (
            "1c9240a5eb55d38af333888604f6b5f0 473917c1402b80099dca5cbc207075c0",
            "2754776173206272696c6c69672c2061 6e642074686520736c6974687920746f \
             7665730a446964206779726520616e64 2067696d626c6520696e207468652077 \
             6162653a0a416c6c206d696d737920776572652074686520626f726f676f7665 \
             732c0a416e6420746865206d6f6d65207261746873206f757467726162652e",
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        (
            "02000000000000000000000000000000 00000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff",
            "03000000000000000000000000000000",
        ),
        (
            "02000000000000000000000000000000 ffffffffffffffffffffffffffffffff",
            "02000000000000000000000000000000",
            "03000000000000000000000000000000",
        ),
        (
            "01000000000000000000000000000000 00000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff f0ffffffffffffffffffffffffffffff \
             11000000000000000000000000000000",
            "05000000000000000000000000000000",
        ),
        (
            "01000000000000000000000000000000 00000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff fbfefefefefefefefefefefefefefefe \
             01010101010101010101010101010101",
            "00000000000000000000000000000000",
        ),
        (
            "02000000000000000000000000000000 00000000000000000000000000000000",
            "fdffffffffffffffffffffffffffffff",
            "faffffffffffffffffffffffffffffff",
        ),
        (
            "01000000000000000400000000000000 00000000000000000000000000000000",
            "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
             00000000000000000000000000000000 01000000000000000000000000000000",
            "14000000000000005500000000000000",
        ),
        (
            "01000000000000000400000000000000 00000000000000000000000000000000",
            "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
             00000000000000000000000000000000",
            "13000000000000000000000000000000",
        ),
    ];

    /// The IETF notice text of A.3 #2 and #3.
    const IETF_NOTICE: &str = "Any submission to the IETF intended by the Contributor for \
        publication as all or part of an IETF Internet-Draft or RFC and any statement made \
        within the context of an IETF activity is considered an \"IETF Contribution\". Such \
        statements include oral statements in IETF sessions, as well as written and electronic \
        communications made at any time or place, which are addressed to";

    #[test]
    fn rfc8439_a3_vectors() {
        for (i, (k, msg, want)) in A3.iter().enumerate() {
            let msg = if msg.is_empty() {
                IETF_NOTICE.as_bytes().to_vec()
            } else {
                unhex(msg)
            };
            let tag = Poly1305::mac(&key(k), &msg);
            assert_eq!(hex(&tag), *want, "A.3 #{}", i + 1);
            // The reference agrees on every vector too.
            assert_eq!(
                reference_mac(&key(k), &msg),
                tag,
                "reference, A.3 #{}",
                i + 1
            );
        }
    }

    /// A little-endian big integer in 32-bit limbs, just big enough for
    /// the product of two 131-bit numbers.
    type Big = [u64; 10];

    fn big_of(bytes: &[u8]) -> Big {
        let mut n = [0u64; 10];
        for (i, &b) in bytes.iter().enumerate() {
            n[i / 4] |= u64::from(b) << (8 * (i % 4));
        }
        n
    }

    fn big_add(a: &Big, b: &Big) -> Big {
        let mut out = [0u64; 10];
        let mut carry = 0;
        for i in 0..10 {
            let t = a[i] + b[i] + carry;
            out[i] = t & 0xffff_ffff;
            carry = t >> 32;
        }
        assert_eq!(carry, 0, "big integer overflow");
        out
    }

    fn big_mul(a: &Big, b: &Big) -> Big {
        let mut out = [0u64; 10];
        for i in 0..10 {
            let mut carry = 0;
            for j in 0..(10 - i) {
                let t = out[i + j] + a[i] * b[j] + carry;
                out[i + j] = t & 0xffff_ffff;
                carry = t >> 32;
            }
        }
        out
    }

    fn big_ge(a: &Big, b: &Big) -> bool {
        for i in (0..10).rev() {
            if a[i] != b[i] {
                return a[i] > b[i];
            }
        }
        true
    }

    fn big_sub(a: &Big, b: &Big) -> Big {
        let mut out = [0u64; 10];
        let mut borrow = 0;
        for i in 0..10 {
            let t = (a[i] | 1 << 32) - b[i] - borrow;
            out[i] = t & 0xffff_ffff;
            borrow = 1 - (t >> 32);
        }
        out
    }

    /// `a mod p` by binary long division, most significant bit first.
    fn big_mod(a: &Big, p: &Big) -> Big {
        let mut r = [0u64; 10];
        for bit in (0..320).rev() {
            r = big_add(&r, &r);
            r[0] |= (a[bit / 32] >> (bit % 32)) & 1;
            if big_ge(&r, p) {
                r = big_sub(&r, p);
            }
        }
        r
    }

    /// Poly1305 straight from RFC 8439 §2.5.1: for each 16-byte chunk,
    /// append 0x01, add to the accumulator, multiply by the clamped r,
    /// reduce mod 2¹³⁰ − 5; then add s and keep the low 128 bits.
    fn reference_mac(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let mut r_bytes = key[..16].to_vec();
        for i in [3, 7, 11, 15] {
            r_bytes[i] &= 15;
        }
        for i in [4, 8, 12] {
            r_bytes[i] &= 252;
        }
        let r = big_of(&r_bytes);
        let s = big_of(&key[16..]);
        let mut p_bytes = vec![0xffu8; 17];
        p_bytes[0] = 0xfb;
        p_bytes[16] = 0x03;
        let p = big_of(&p_bytes);
        let mut acc = [0u64; 10];
        for chunk in msg.chunks(16) {
            let mut n = chunk.to_vec();
            n.push(1);
            acc = big_mod(&big_mul(&big_add(&acc, &big_of(&n)), &r), &p);
        }
        let total = big_add(&acc, &s);
        let mut out = [0u8; 16];
        for (i, b) in out.iter_mut().enumerate() {
            *b = (total[i / 4] >> (8 * (i % 4))) as u8;
        }
        out
    }

    /// Bytes drawn mostly from the extremes, so limb carries are
    /// exercised far more often than by uniform bytes.
    fn edgy_byte() -> impl Strategy<Value = u8> {
        prop_oneof![Just(0u8), Just(0xff), Just(0xfb), Just(0xfc), any::<u8>()]
    }

    /// A 16-byte little-endian integer `v` (1 ≤ v < 5): a small `r`.
    fn small_half() -> impl Strategy<Value = Vec<u8>> {
        (1u8..5).prop_map(|v| [vec![v], vec![0u8; 15]].concat())
    }

    /// A message block at or just below 2¹²⁸ − 1.
    fn top_block() -> impl Strategy<Value = Vec<u8>> {
        (0xf8u8..0xff).prop_map(|v| [vec![v], vec![0xffu8; 15]].concat())
    }

    fn edgy_half() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(edgy_byte(), 16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_textbook_reference(
            key in proptest::collection::vec(edgy_byte(), 32),
            msg in proptest::collection::vec(edgy_byte(), 0..200),
        ) {
            let key: [u8; 32] = key.try_into().unwrap();
            prop_assert_eq!(Poly1305::mac(&key, &msg), reference_mac(&key, &msg));
        }

        /// A small `r` times a block near 2¹²⁸ (r = 2 or 4 and a block
        /// of 2¹²⁸ − 1 or 2¹²⁸ − 2, say) puts the accumulator in
        /// `[p, 2¹³⁰)`, the only place the final `h ≥ p` selection acts;
        /// uniform inputs land there with probability about 2⁻¹²⁸.
        #[test]
        fn matches_textbook_reference_near_the_modulus(
            r in prop_oneof![small_half(), small_half(), edgy_half()],
            s in prop_oneof![edgy_half(), Just(vec![0xffu8; 16])],
            blocks in proptest::collection::vec(
                prop_oneof![Just(vec![0xffu8; 16]), top_block(), edgy_half()],
                1..3,
            ),
            tail in prop_oneof![
                Just(vec![]),
                Just(vec![]),
                proptest::collection::vec(edgy_byte(), 1..16),
            ],
        ) {
            let key: [u8; 32] = [r, s].concat().try_into().unwrap();
            let msg = [blocks.concat(), tail].concat();
            prop_assert_eq!(Poly1305::mac(&key, &msg), reference_mac(&key, &msg));
        }
    }

    #[test]
    fn any_update_split_gives_the_same_tag() {
        let mut rng = crate::ChaChaRng::from_seed(0x1305);
        let key = rng.next_bytes32();
        let mut msg = vec![0u8; 100];
        rng.fill_bytes(&mut msg);
        let want = Poly1305::mac(&key, &msg);
        for a in 0..=msg.len() {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..a]);
            mac.update(&msg[a..]);
            assert_eq!(mac.finalize(), want, "split at {a}");
        }
        for _ in 0..200 {
            let mut cuts = [rng.below(101) as usize, rng.below(101) as usize];
            cuts.sort_unstable();
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..cuts[0]]);
            mac.update(&msg[cuts[0]..cuts[1]]);
            mac.update(&msg[cuts[1]..]);
            assert_eq!(mac.finalize(), want, "split at {cuts:?}");
        }
    }

    #[test]
    fn pad_to_block_absorbs_zeros_to_the_boundary() {
        let key = [0x5au8; 32];
        for len in 0..40usize {
            let msg = vec![0xc3u8; len];
            let mut mac = Poly1305::new(&key);
            mac.update(&msg);
            mac.pad_to_block();
            let mut padded = msg.clone();
            padded.resize(len.div_ceil(16) * 16, 0);
            assert_eq!(mac.finalize(), Poly1305::mac(&key, &padded), "len {len}");
        }
    }
}
