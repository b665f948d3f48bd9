//! Multi-key memory encryption (MKTME/SEV-class), for physical-attack
//! resistance (§4.2: "building physical attack resistance with multi-key
//! memory encryption technologies").
//!
//! The model: the memory controller holds a key table; every physical
//! page carries a key id. CPU/device accesses go *through* the controller
//! ([`MemCrypt::read`] / [`MemCrypt::write`]), which transparently
//! decrypts/encrypts with the page's key — software above never sees
//! ciphertext. A *physical* attacker (cold boot, DRAM interposer) reads
//! raw [`crate::mem::PhysMem`] bytes and sees ciphertext for every page
//! tagged with a non-zero key.
//!
//! Retagging a page ([`MemCrypt::retag`]) re-encrypts its contents under
//! the new key, preserving data across ownership changes — the TDX
//! page-migration behaviour. Key id 0 means plaintext.
//!
//! **Scope note:** CPU accesses (vCPU, hart) go through this controller;
//! plain I/O-MMU device DMA does not, matching pre-TDX-IO hardware where
//! device DMA to encrypted pages reads ciphertext. Encrypted domains in
//! this reproduction therefore do not share device windows (the RDMA
//! path in `libtyche::rdma` is the exception: it models a trusted
//! device path and routes through the controller explicitly).
//!
//! The cipher is a per-location ChaCha20 keystream XOR (key = page key,
//! nonce = page number, counter = the 64-byte block's index in the
//! page): deterministic per location like AES-XTS, so reads after writes
//! round-trip without stored IVs. An access generates only the blocks
//! that cover its bytes (one for an 8-byte load), and an access that
//! touches only plaintext pages goes straight to DRAM.

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::mem::{MemError, PhysMem};
use std::collections::HashMap;
use std::ops::Range;
use tyche_crypto::chacha;

/// The plaintext key id.
pub const KEYID_PLAIN: u64 = 0;

/// The memory-encryption controller.
pub struct MemCrypt {
    keys: HashMap<u64, [u8; 32]>,
    /// Physical page base → key id (absent = plaintext).
    page_key: HashMap<u64, u64>,
    next_keyid: u64,
    rng: tyche_crypto::ChaChaRng,
}

impl MemCrypt {
    /// Creates a controller with no programmed keys (everything
    /// plaintext), seeded deterministically for reproducible tests.
    pub fn new_with_seed(seed: u64) -> Self {
        MemCrypt {
            keys: HashMap::new(),
            page_key: HashMap::new(),
            next_keyid: 1,
            rng: tyche_crypto::ChaChaRng::from_seed(seed ^ 0x6d6b746d65),
        }
    }

    /// Allocates a fresh key; returns its id.
    pub fn new_key(&mut self) -> u64 {
        let id = self.next_keyid;
        self.next_keyid += 1;
        self.keys.insert(id, self.rng.next_bytes32());
        id
    }

    /// The key id currently tagging `page` (page-aligned base).
    pub fn key_of(&self, page: PhysAddr) -> u64 {
        *self
            .page_key
            .get(&page.page_base().as_u64())
            .unwrap_or(&KEYID_PLAIN)
    }

    /// XORs the keystream of page number `page` under `keyid` over
    /// `buf`, which holds the page's bytes from offset `start` on.
    /// Generates only the blocks `buf` overlaps; the plaintext key is a
    /// no-op.
    fn xor_keystream(&self, keyid: u64, page: u64, start: usize, buf: &mut [u8]) {
        if keyid == KEYID_PLAIN {
            return;
        }
        let key = self.keys.get(&keyid).expect("programmed key");
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&page.to_le_bytes());
        let mut pos = start;
        let mut rest = buf;
        while !rest.is_empty() {
            let block = chacha::block(key, (pos / 64) as u32, &nonce);
            let skip = pos % 64;
            let (head, tail) = rest.split_at_mut((64 - skip).min(rest.len()));
            for (b, k) in head.iter_mut().zip(&block[skip..]) {
                *b ^= k;
            }
            pos += head.len();
            rest = tail;
        }
    }

    /// Retags `page` to `keyid`, re-encrypting its contents so data
    /// survives the ownership change.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key id or unaligned page — monitor bugs.
    pub fn retag(&mut self, mem: &mut PhysMem, page: PhysAddr, keyid: u64) -> Result<(), MemError> {
        assert!(page.is_page_aligned(), "retag requires a page base");
        assert!(
            keyid == KEYID_PLAIN || self.keys.contains_key(&keyid),
            "retag to unprogrammed key {keyid}"
        );
        let old = self.key_of(page);
        if old == keyid {
            return Ok(());
        }
        let pnum = page.as_u64() / PAGE_SIZE;
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        mem.read(page, &mut buf)?;
        self.xor_keystream(old, pnum, 0, &mut buf);
        self.xor_keystream(keyid, pnum, 0, &mut buf);
        mem.write(page, &buf)?;
        if keyid == KEYID_PLAIN {
            self.page_key.remove(&page.as_u64());
        } else {
            self.page_key.insert(page.as_u64(), keyid);
        }
        Ok(())
    }

    /// Controller read: what the CPU sees (decrypted).
    pub fn read(&self, mem: &PhysMem, addr: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        mem.read(addr, out)?;
        self.apply_keystream(addr, out);
        Ok(())
    }

    /// Controller write: encrypts on the way to DRAM. A write that
    /// touches only plaintext pages is passed through without a copy.
    pub fn write(&self, mem: &mut PhysMem, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        if !self.any_encrypted(addr, data.len()) {
            return mem.write(addr, data);
        }
        let mut buf = data.to_vec();
        self.apply_keystream(addr, &mut buf);
        mem.write(addr, &buf)
    }

    /// The page-sized segments of `len` bytes at `addr`: each segment's
    /// page base, its offset into the page, and its range in the access.
    fn segments(
        addr: PhysAddr,
        len: usize,
    ) -> impl Iterator<Item = (PhysAddr, usize, Range<usize>)> {
        let mut off = 0usize;
        core::iter::from_fn(move || {
            (off < len).then(|| {
                let cur = PhysAddr::new(addr.as_u64().wrapping_add(off as u64));
                let start = cur.page_offset() as usize;
                let end = off + (PAGE_SIZE as usize - start).min(len - off);
                let seg = (cur.page_base(), start, off..end);
                off = end;
                seg
            })
        })
    }

    /// True when any page under `len` bytes at `addr` carries a key.
    fn any_encrypted(&self, addr: PhysAddr, len: usize) -> bool {
        Self::segments(addr, len).any(|(page, ..)| self.key_of(page) != KEYID_PLAIN)
    }

    /// XORs the per-page keystream over `buf` starting at `addr`
    /// (page-split aware; plaintext pages are untouched).
    fn apply_keystream(&self, addr: PhysAddr, buf: &mut [u8]) {
        for (page, start, range) in Self::segments(addr, buf.len()) {
            let pnum = page.as_u64() / PAGE_SIZE;
            self.xor_keystream(self.key_of(page), pnum, start, &mut buf[range]);
        }
    }

    /// Sets `page`'s tag *without* transforming contents. Only valid when
    /// the contents were just destroyed anyway (the zero-on-revocation
    /// path): retagging a scrubbed page must not "decrypt" the zeros into
    /// garbage.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key id or unaligned page.
    pub fn force_tag(&mut self, page: PhysAddr, keyid: u64) {
        assert!(page.is_page_aligned(), "force_tag requires a page base");
        assert!(
            keyid == KEYID_PLAIN || self.keys.contains_key(&keyid),
            "force_tag to unprogrammed key {keyid}"
        );
        if keyid == KEYID_PLAIN {
            self.page_key.remove(&page.as_u64());
        } else {
            self.page_key.insert(page.as_u64(), keyid);
        }
    }

    /// Number of pages currently tagged with non-plaintext keys.
    pub fn protected_pages(&self) -> usize {
        self.page_key.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, MemCrypt) {
        (PhysMem::new(64 * PAGE_SIZE), MemCrypt::new_with_seed(7))
    }

    #[test]
    fn plaintext_by_default() {
        let (mut mem, mc) = setup();
        mc.write(&mut mem, PhysAddr::new(0x1000), b"clear").unwrap();
        let mut raw = [0u8; 5];
        mem.read(PhysAddr::new(0x1000), &mut raw).unwrap();
        assert_eq!(&raw, b"clear", "keyid 0 = no encryption");
    }

    #[test]
    fn controller_roundtrip_physical_ciphertext() {
        let (mut mem, mut mc) = setup();
        let k = mc.new_key();
        let page = PhysAddr::new(0x2000);
        mc.retag(&mut mem, page, k).unwrap();
        mc.write(&mut mem, PhysAddr::new(0x2010), b"guest secret")
            .unwrap();
        // Through the controller: plaintext.
        let mut through = [0u8; 12];
        mc.read(&mem, PhysAddr::new(0x2010), &mut through).unwrap();
        assert_eq!(&through, b"guest secret");
        // Cold-boot view: ciphertext.
        let mut raw = [0u8; 12];
        mem.read(PhysAddr::new(0x2010), &mut raw).unwrap();
        assert_ne!(&raw, b"guest secret");
        assert_eq!(mc.protected_pages(), 1);
    }

    #[test]
    fn retag_preserves_contents() {
        let (mut mem, mut mc) = setup();
        let page = PhysAddr::new(0x3000);
        mc.write(&mut mem, page, b"survives retags").unwrap();
        let k1 = mc.new_key();
        mc.retag(&mut mem, page, k1).unwrap();
        let k2 = mc.new_key();
        mc.retag(&mut mem, page, k2).unwrap();
        mc.retag(&mut mem, page, KEYID_PLAIN).unwrap();
        let mut raw = [0u8; 15];
        mem.read(page, &mut raw).unwrap();
        assert_eq!(
            &raw, b"survives retags",
            "plain -> k1 -> k2 -> plain round trip"
        );
    }

    #[test]
    fn keys_are_independent() {
        let (mut mem, mut mc) = setup();
        let k1 = mc.new_key();
        let k2 = mc.new_key();
        mc.retag(&mut mem, PhysAddr::new(0x4000), k1).unwrap();
        mc.retag(&mut mem, PhysAddr::new(0x5000), k2).unwrap();
        mc.write(&mut mem, PhysAddr::new(0x4000), b"same bytes")
            .unwrap();
        mc.write(&mut mem, PhysAddr::new(0x5000), b"same bytes")
            .unwrap();
        let mut c1 = [0u8; 10];
        let mut c2 = [0u8; 10];
        mem.read(PhysAddr::new(0x4000), &mut c1).unwrap();
        mem.read(PhysAddr::new(0x5000), &mut c2).unwrap();
        assert_ne!(c1, c2, "different keys produce different ciphertexts");
    }

    #[test]
    fn cross_page_access_spans_keys() {
        let (mut mem, mut mc) = setup();
        let k = mc.new_key();
        mc.retag(&mut mem, PhysAddr::new(0x1000), k).unwrap();
        // Page 0x2000 stays plaintext; write straddles the boundary.
        let data = vec![0xabu8; 64];
        mc.write(&mut mem, PhysAddr::new(0x1fe0), &data).unwrap();
        let mut through = vec![0u8; 64];
        mc.read(&mem, PhysAddr::new(0x1fe0), &mut through).unwrap();
        assert_eq!(through, data);
        // First half physically scrambled, second half plaintext.
        let mut raw = vec![0u8; 64];
        mem.read(PhysAddr::new(0x1fe0), &mut raw).unwrap();
        assert_ne!(&raw[..32], &data[..32]);
        assert_eq!(&raw[32..], &data[32..]);
    }

    #[test]
    #[should_panic(expected = "unprogrammed key")]
    fn retag_to_unknown_key_panics() {
        let (mut mem, mut mc) = setup();
        mc.retag(&mut mem, PhysAddr::new(0x1000), 99).unwrap();
    }

    /// The whole page's keystream under `keyid`, as the controller once
    /// generated it on every access: the reference for the
    /// block-granular path.
    fn full_page_keystream(mc: &MemCrypt, keyid: u64, page: u64) -> Vec<u8> {
        let mut ks = vec![0u8; PAGE_SIZE as usize];
        if keyid != KEYID_PLAIN {
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&page.to_le_bytes());
            for (i, chunk) in ks.chunks_mut(64).enumerate() {
                chunk.copy_from_slice(&chacha::block(&mc.keys[&keyid], i as u32, &nonce));
            }
        }
        ks
    }

    /// What DRAM must hold for `plain` at `addr`: every byte XORed with
    /// its page's full keystream at its offset.
    fn expected_raw(mc: &MemCrypt, addr: u64, plain: &[u8]) -> Vec<u8> {
        let mut pages = HashMap::new();
        plain
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let a = addr + i as u64;
                let page = a / PAGE_SIZE;
                let ks = pages
                    .entry(page)
                    .or_insert_with(|| full_page_keystream(mc, mc.key_of(PhysAddr::new(a)), page));
                p ^ ks[(a % PAGE_SIZE) as usize]
            })
            .collect()
    }

    #[test]
    fn block_granular_keystream_matches_full_page_reference() {
        let (mut mem, mut mc) = setup();
        let mut rng = tyche_crypto::ChaChaRng::from_seed(0x6d6b);
        let keys = [KEYID_PLAIN, mc.new_key(), mc.new_key()];
        // Pages 1..8 get random keys (some plaintext); the accesses
        // below stay inside them, so page crossings mix keys.
        for page in 1..8u64 {
            let k = keys[rng.below(3) as usize];
            mc.retag(&mut mem, PhysAddr::new(page * PAGE_SIZE), k)
                .unwrap();
        }
        for round in 0..300 {
            let page = 1 + rng.below(6);
            let off = match round % 3 {
                0 => rng.below(PAGE_SIZE),
                1 => PAGE_SIZE - 1 - rng.below(80),
                _ => rng.below(64) * 64,
            };
            let addr = page * PAGE_SIZE + off;
            let len = match round % 4 {
                0 => 8,
                1 => 1 + rng.below(200) as usize,
                2 => rng.below(PAGE_SIZE + 200) as usize,
                _ => 64,
            };
            let mut plain = vec![0u8; len];
            rng.fill_bytes(&mut plain);
            mc.write(&mut mem, PhysAddr::new(addr), &plain).unwrap();
            let mut raw = vec![0u8; len];
            mem.read(PhysAddr::new(addr), &mut raw).unwrap();
            assert_eq!(
                raw,
                expected_raw(&mc, addr, &plain),
                "write {addr:#x}+{len}"
            );
            let mut back = vec![0u8; len];
            mc.read(&mem, PhysAddr::new(addr), &mut back).unwrap();
            assert_eq!(back, plain, "read {addr:#x}+{len}");
            if round % 10 == 0 {
                // Retag one page: its contents survive under the new key.
                let p = PhysAddr::new((1 + rng.below(7)) * PAGE_SIZE);
                let mut before = vec![0u8; PAGE_SIZE as usize];
                mc.read(&mem, p, &mut before).unwrap();
                mc.retag(&mut mem, p, keys[rng.below(3) as usize]).unwrap();
                let mut raw = vec![0u8; PAGE_SIZE as usize];
                mem.read(p, &mut raw).unwrap();
                assert_eq!(raw, expected_raw(&mc, p.as_u64(), &before), "retag {p:?}");
            }
        }
    }

    #[test]
    fn deterministic_per_location() {
        // Same data at the same location encrypts identically (XTS-like),
        // but differently at a different page.
        let (mut mem, mut mc) = setup();
        let k = mc.new_key();
        mc.retag(&mut mem, PhysAddr::new(0x1000), k).unwrap();
        mc.retag(&mut mem, PhysAddr::new(0x2000), k).unwrap();
        mc.write(&mut mem, PhysAddr::new(0x1000), b"dup").unwrap();
        mc.write(&mut mem, PhysAddr::new(0x2000), b"dup").unwrap();
        let mut a = [0u8; 3];
        let mut b = [0u8; 3];
        mem.read(PhysAddr::new(0x1000), &mut a).unwrap();
        mem.read(PhysAddr::new(0x2000), &mut b).unwrap();
        assert_ne!(a, b, "location-tweaked keystream");
    }
}
