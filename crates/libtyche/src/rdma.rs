//! RDMA between TEEs on separate machines (§4.2: "providing RDMA support
//! for Tyche-based TEEs running on separate machines").
//!
//! The model: each machine has an RDMA NIC with a *memory region* (MR)
//! table. A TEE registers an MR through its monitor, which validates —
//! against the capability engine — that the TEE exclusively owns the
//! region (reference count 1): registered windows are part of the
//! attested, controlled-sharing story, not a side door.
//!
//! Two TEEs connect by exchanging attestations: each side's verifier
//! checks the other machine's quote + domain report, and one HKDF over
//! both report digests and both nonces yields the connection's 32-byte
//! key. Every frame on the (untrusted) wire is `seq_le ‖ ciphertext ‖
//! tag`: the payload sealed with ChaCha20-Poly1305 (RFC 8439,
//! [`crate::aead`]) under the connection key, with nonce
//! `0u32 ‖ seq_le` and `seq_le` as the additional data, and the 16-byte
//! tag detached behind the ciphertext. The sequence number never
//! repeats within a connection, so neither does a nonce. The test suite
//! literally greps the wire capture for plaintext.
//!
//! One-sided `rdma_write` then moves bytes from the local TEE's memory
//! (read through its own hardware-enforced view) into the remote MR
//! (bounds- and ownership-checked by the remote NIC at delivery time).
//! Delivery is two steps, so a transport can slot its own checks
//! between them: [`RdmaConnection::check_frame`] authenticates a frame,
//! and [`RdmaConnection::land_frame`] lands only what that check passed.

use crate::aead;
use crate::client::TycheClient;
use tyche_core::prelude::*;
use tyche_crypto::hkdf;
use tyche_monitor::attest::{SignedReport, Verifier, VerifyError};
use tyche_monitor::Monitor;

/// Bytes in an RDMA frame's tag.
pub const TAG_LEN: usize = aead::TAG_LEN;

/// Wire bytes an RDMA frame adds to its payload: the 8-byte sequence
/// number in front and the tag behind.
pub const FRAME_OVERHEAD: usize = 8 + TAG_LEN;

/// The largest payload one frame carries: the ChaCha20 block counter is
/// 32 bits and counts 64-byte blocks, and block 0 keys the tag.
const MAX_PAYLOAD: u64 = aead::MAX_MESSAGE;

/// A remote-access key naming a registered memory region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RKey(pub u64);

/// A registered memory region.
#[derive(Clone, Copy, Debug)]
struct MemoryRegion {
    owner: DomainId,
    start: u64,
    end: u64,
    remote_writable: bool,
}

/// Why an RDMA operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdmaError {
    /// The registering domain does not exclusively own the region.
    NotExclusive,
    /// Unknown rkey.
    NoSuchRegion,
    /// Access outside the registered region.
    OutOfBounds,
    /// The region does not permit remote writes.
    ReadOnlyRegion,
    /// The region's exclusivity was lost since registration (the owner
    /// shared it); the NIC refuses delivery rather than widen the leak.
    ExclusivityLost,
    /// A local memory fault (the sender's own view refused the read).
    LocalFault(u64),
    /// Peer attestation failed.
    Attestation(VerifyError),
    /// Frame authentication failed at the receiver (wire tampering).
    BadFrame,
    /// An authentic frame whose sequence number the receiver has already
    /// passed: a replay of a captured frame, refused so it cannot roll
    /// the remote MR back to older contents.
    Replayed,
}

/// The per-machine RDMA NIC: MR table + wire statistics.
#[derive(Default)]
pub struct RdmaNic {
    regions: std::collections::HashMap<RKey, MemoryRegion>,
    next_rkey: u64,
}

impl RdmaNic {
    /// Creates an empty NIC.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `[start, end)` of the domain currently running on
    /// `core` for remote access. The monitor validates exclusive
    /// ownership (refcount 1) — the §3.4 condition for a secured path.
    pub fn register_mr(
        &mut self,
        monitor: &mut Monitor,
        core: usize,
        start: u64,
        end: u64,
        remote_writable: bool,
    ) -> Result<RKey, RdmaError> {
        let owner = monitor.current_domain(core);
        let rc = monitor.engine.refcount_mem_full(MemRegion::new(start, end));
        if !rc.is_exclusive() {
            return Err(RdmaError::NotExclusive);
        }
        let covered = monitor.engine.caps_of(owner).iter().any(|c| {
            c.active
                && c.resource
                    .as_mem()
                    .map(|r| r.contains(&MemRegion::new(start, end)))
                    .unwrap_or(false)
        });
        if !covered {
            return Err(RdmaError::NotExclusive);
        }
        self.next_rkey += 1;
        let rkey = RKey(self.next_rkey);
        self.regions.insert(
            rkey,
            MemoryRegion {
                owner,
                start,
                end,
                remote_writable,
            },
        );
        Ok(rkey)
    }

    /// Revokes a registration.
    pub fn deregister(&mut self, rkey: RKey) {
        self.regions.remove(&rkey);
    }
}

/// The untrusted wire between two machines: captures every frame, so
/// tests can assert nothing readable crosses it.
#[derive(Default)]
pub struct Wire {
    /// Every transmitted frame, as seen by a network eavesdropper.
    pub frames: Vec<Vec<u8>>,
}

impl Wire {
    /// Creates an empty wire.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when any captured frame contains `needle` in the clear.
    pub fn leaks(&self, needle: &[u8]) -> bool {
        self.frames
            .iter()
            .any(|f| f.windows(needle.len()).any(|w| w == needle))
    }
}

/// An established, mutually attested connection between two TEEs.
pub struct RdmaConnection {
    // (key material; Debug deliberately omits it)
    /// The ChaCha20-Poly1305 key every frame is sealed under.
    key: [u8; 32],
    /// Sequence number of the next frame this side produces.
    seq: u64,
    /// Lowest sequence number this side still accepts; every frame
    /// below it has been delivered or skipped.
    next_recv: u64,
}

impl core::fmt::Debug for RdmaConnection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RdmaConnection(seq={})", self.seq)
    }
}

/// A wire frame whose tag [`RdmaConnection::check_frame`] verified; the
/// only thing [`RdmaConnection::land_frame`] accepts.
#[derive(Debug)]
pub struct CheckedFrame<'a> {
    seq: u64,
    ciphertext: &'a [u8],
}

impl RdmaConnection {
    /// Establishes a connection: each side verifies the other's machine
    /// quote and domain report with its own verifier, then both derive
    /// the same key from the two report digests and nonces.
    #[allow(clippy::too_many_arguments)]
    pub fn establish(
        local_verifier: &Verifier,
        remote_quote: &tyche_hw::tpm::Quote,
        remote_quote_nonce: &[u8; 32],
        remote_report: &SignedReport,
        remote_report_nonce: &[u8; 32],
        local_report: &SignedReport,
        expected_remote_measurement: Option<tyche_crypto::Digest>,
    ) -> Result<RdmaConnection, RdmaError> {
        local_verifier
            .verify(
                remote_quote,
                remote_quote_nonce,
                remote_report,
                remote_report_nonce,
                expected_remote_measurement,
            )
            .map_err(RdmaError::Attestation)?;
        // Both sides hold both reports after the exchange; the key binds
        // the channel to this exact pair of attested configurations.
        let mut a = local_report.report.digest();
        let mut b = remote_report.report.digest();
        if b.0 < a.0 {
            std::mem::swap(&mut a, &mut b);
        }
        let mut ikm = Vec::new();
        ikm.extend_from_slice(a.as_bytes());
        ikm.extend_from_slice(b.as_bytes());
        ikm.extend_from_slice(remote_quote_nonce);
        ikm.extend_from_slice(remote_report_nonce);
        let key = hkdf::derive_key32(b"tyche-rdma", &ikm, b"channel");
        Ok(Self::with_key(key))
    }

    /// A fresh connection (both sequence counters at 0).
    fn with_key(key: [u8; 32]) -> RdmaConnection {
        RdmaConnection {
            key,
            seq: 0,
            next_recv: 0,
        }
    }

    /// Completes a wire frame whose bytes after the 8-byte header hold
    /// the plaintext: stamps the next sequence number into the header,
    /// seals the payload in place, and appends the tag. `None` (and no
    /// sequence number spent) for a payload over [`MAX_PAYLOAD`].
    fn seal(&mut self, mut frame: Vec<u8>) -> Option<Vec<u8>> {
        let seq = self.seq;
        let (header, payload) = frame.split_at_mut(8);
        header.copy_from_slice(&seq.to_le_bytes());
        let tag = aead::seal(&self.key, &frame_nonce(seq), &[header], payload)?;
        self.seq += 1;
        frame.extend_from_slice(&tag);
        Some(frame)
    }

    /// Sender half of an RDMA write: reads `len` bytes at `local_addr`
    /// as the domain running on `local` core (its own hardware view
    /// enforces access) and seals it into a self-contained wire frame
    /// (`seq_le || ciphertext || tag`). The frame can cross any
    /// transport — the in-process [`Wire`], or a fleet NIC channel.
    pub fn produce_frame(
        &mut self,
        local: &mut Monitor,
        core: usize,
        local_addr: u64,
        len: usize,
    ) -> Result<Vec<u8>, RdmaError> {
        if len as u64 > MAX_PAYLOAD {
            return Err(RdmaError::OutOfBounds);
        }
        // Local read through the sender's own enforced view, straight
        // into the frame's payload bytes.
        let mut frame = Vec::with_capacity(len + FRAME_OVERHEAD);
        frame.resize(8 + len, 0);
        TycheClient::new(local, core)
            .read(local_addr, &mut frame[8..])
            .map_err(|f| RdmaError::LocalFault(f.addr))?;
        // Encrypt and authenticate. A stream cipher alone is malleable;
        // the tag is what makes wire tampering detectable
        // ([`RdmaError::BadFrame`]).
        self.seal(frame).ok_or(RdmaError::OutOfBounds)
    }

    /// Receiver half of an RDMA write: [`Self::check_frame`] then
    /// [`Self::land_frame`].
    pub fn deliver_frame(
        &mut self,
        frame: &[u8],
        remote: &mut Monitor,
        remote_nic: &RdmaNic,
        rkey: RKey,
        remote_off: u64,
    ) -> Result<(), RdmaError> {
        let checked = self.check_frame(frame)?;
        self.land_frame(checked, remote, remote_nic, rkey, remote_off)
    }

    /// Authenticates one wire frame: its tag must verify over the
    /// ciphertext, with `seq_le` as additional data, under this
    /// connection's key. Wire bytes are untrusted input: a short or
    /// forged frame is a checked [`RdmaError::BadFrame`], never a caller
    /// abort.
    pub fn check_frame<'a>(&self, frame: &'a [u8]) -> Result<CheckedFrame<'a>, RdmaError> {
        let (body, tag) = frame
            .split_last_chunk::<TAG_LEN>()
            .ok_or(RdmaError::BadFrame)?;
        let (seq, ciphertext) = body.split_first_chunk::<8>().ok_or(RdmaError::BadFrame)?;
        let nonce = frame_nonce(u64::from_le_bytes(*seq));
        if !aead::check(&self.key, &nonce, &[seq], ciphertext, tag) {
            return Err(RdmaError::BadFrame);
        }
        Ok(CheckedFrame {
            seq: u64::from_le_bytes(*seq),
            ciphertext,
        })
    }

    /// Lands an authenticated frame in the remote MR at `remote_off`,
    /// after the remote NIC re-validates ownership and exclusivity, and
    /// only then decrypts it.
    ///
    /// Frames must arrive in increasing sequence order: an authentic
    /// frame numbered below one already delivered is a replay and is
    /// refused ([`RdmaError::Replayed`]). Gaps are allowed — a frame the
    /// transport lost is simply skipped.
    pub fn land_frame(
        &mut self,
        frame: CheckedFrame<'_>,
        remote: &mut Monitor,
        remote_nic: &RdmaNic,
        rkey: RKey,
        remote_off: u64,
    ) -> Result<(), RdmaError> {
        if frame.seq < self.next_recv {
            return Err(RdmaError::Replayed);
        }
        let next_recv = frame.seq.checked_add(1).ok_or(RdmaError::BadFrame)?;
        let len = frame.ciphertext.len();
        let mr = remote_nic
            .regions
            .get(&rkey)
            .ok_or(RdmaError::NoSuchRegion)?;
        if !mr.remote_writable {
            return Err(RdmaError::ReadOnlyRegion);
        }
        let dst = mr
            .start
            .checked_add(remote_off)
            .ok_or(RdmaError::OutOfBounds)?;
        let dst_end = dst.checked_add(len as u64).ok_or(RdmaError::OutOfBounds)?;
        if dst < mr.start || dst_end > mr.end {
            return Err(RdmaError::OutOfBounds);
        }
        // Delivery-time re-validation: the region must still be exclusive
        // to its registrant, or the NIC refuses (the attested topology
        // changed under the connection).
        let rc = remote
            .engine
            .refcount_mem_full(MemRegion::new(mr.start, mr.end));
        if !rc.is_exclusive() {
            return Err(RdmaError::ExclusivityLost);
        }
        let still_owner = remote.engine.caps_of(mr.owner).iter().any(|c| {
            c.active
                && c.resource
                    .as_mem()
                    .map(|r| r.contains(&MemRegion::new(mr.start, mr.end)))
                    .unwrap_or(false)
        });
        if !still_owner {
            return Err(RdmaError::ExclusivityLost);
        }
        let mut plain = frame.ciphertext.to_vec();
        aead::apply_keystream(&self.key, &frame_nonce(frame.seq), &mut plain);
        // The NIC DMAs through the memory-encryption controller, like the
        // CPU does (TDX-IO-style trusted device path).
        remote
            .machine
            .mktme
            .write(
                &mut remote.machine.mem,
                tyche_hw::PhysAddr::new(dst),
                &plain,
            )
            .map_err(|_| RdmaError::OutOfBounds)?;
        self.next_recv = next_recv;
        Ok(())
    }

    /// One-sided RDMA write: reads `len` bytes at `local_addr` as the
    /// domain running on `local core` (its own hardware view enforces
    /// access), encrypts, crosses `wire`, and lands in the remote MR at
    /// `remote_off` — after the remote NIC re-validates ownership.
    /// Composes [`Self::produce_frame`] and [`Self::deliver_frame`]
    /// around the eavesdropper-visible wire capture.
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_write(
        &mut self,
        local: &mut Monitor,
        core: usize,
        local_addr: u64,
        len: usize,
        wire: &mut Wire,
        remote: &mut Monitor,
        remote_nic: &RdmaNic,
        rkey: RKey,
        remote_off: u64,
    ) -> Result<(), RdmaError> {
        let frame = self.produce_frame(local, core, local_addr, len)?;
        wire.frames.push(frame.clone());
        self.deliver_frame(&frame, remote, remote_nic, rkey, remote_off)
    }
}

/// The AEAD nonce of frame `seq`: `0u32 ‖ seq_le`.
fn frame_nonce(seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&seq.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
    use tyche_monitor::{boot_x86, BootConfig};

    const TEE_MEM: (u64, u64) = (0x10_0000, 0x10_4000);

    /// Boots a machine with one sealed TEE owning TEE_MEM; returns the
    /// monitor, the TEE, and its gate.
    fn machine_with_tee() -> (Monitor, DomainId, CapId) {
        let mut m = boot_x86(BootConfig::default());
        let (d, gate) = tyche_bench_spawn(&mut m, TEE_MEM.0, TEE_MEM.1 - TEE_MEM.0);
        (m, d, gate)
    }

    /// Local copy of the bench fixture (libtyche cannot depend on
    /// tyche-bench).
    fn tyche_bench_spawn(m: &mut Monitor, base: u64, len: u64) -> (DomainId, CapId) {
        let mut client = TycheClient::new(m, 0);
        let (d, gate) = client.create_domain().unwrap();
        let cap = client.carve(base, base + len).unwrap();
        client
            .grant(cap, d, Rights::RW, RevocationPolicy::OBFUSCATE)
            .unwrap();
        let core0 = {
            let me = client.whoami();
            client
                .monitor
                .engine
                .caps_of(me)
                .iter()
                .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
                .map(|c| c.id)
                .unwrap()
        };
        client
            .share(core0, d, None, Rights::USE, RevocationPolicy::NONE)
            .unwrap();
        client.set_entry(d, base).unwrap();
        client.seal(d, SealPolicy::strict()).unwrap();
        (d, gate)
    }

    fn verifier_for(m: &Monitor) -> Verifier {
        Verifier::new(
            m.machine.tpm.attestation_key(),
            expected_monitor_pcr(MONITOR_VERSION),
            m.report_key(),
        )
    }

    /// Full two-machine setup: attested connection + remote MR.
    fn connected() -> (
        Monitor,
        CapId,
        Monitor,
        CapId,
        RdmaConnection,
        RdmaNic,
        RKey,
        Wire,
    ) {
        let (mut ma, _da, ga) = machine_with_tee();
        let (mut mb, db, gb) = machine_with_tee();
        let qn = [1u8; 32];
        let rn = [2u8; 32];
        let quote_b = mb.machine_quote(qn).expect("quote");
        let report_b = mb.attest_domain(db, rn).unwrap();
        let report_a = {
            let da = ma.current_domain(0);
            let _ = da;
            let d = ma
                .engine
                .domains()
                .find(|d| d.is_sealed())
                .map(|d| d.id)
                .unwrap();
            ma.attest_domain(d, rn).unwrap()
        };
        // Machine A's TEE verifies machine B's chain (cross-machine).
        let verifier_b_anchors = verifier_for(&mb);
        let conn = RdmaConnection::establish(
            &verifier_b_anchors,
            &quote_b,
            &qn,
            &report_b,
            &rn,
            &report_a,
            None,
        )
        .unwrap();
        // B's TEE registers an MR (entered so the NIC sees the right
        // requesting domain).
        let mut nic_b = RdmaNic::new();
        let mut client = TycheClient::new(&mut mb, 0);
        client.enter(gb).unwrap();
        let rkey = nic_b
            .register_mr(&mut mb, 0, TEE_MEM.0 + 0x1000, TEE_MEM.0 + 0x2000, true)
            .unwrap();
        let mut client = TycheClient::new(&mut mb, 0);
        client.ret().unwrap();
        (ma, ga, mb, gb, conn, nic_b, rkey, Wire::new())
    }

    #[test]
    fn attested_cross_machine_write() {
        let (mut ma, ga, mut mb, gb, mut conn, nic_b, rkey, mut wire) = connected();
        // TEE A writes a secret into its own memory and pushes it to B.
        let mut client = TycheClient::new(&mut ma, 0);
        client.enter(ga).unwrap();
        client
            .write(TEE_MEM.0 + 0x100, b"cross-machine secret")
            .unwrap();
        conn.rdma_write(
            &mut ma,
            0,
            TEE_MEM.0 + 0x100,
            20,
            &mut wire,
            &mut mb,
            &nic_b,
            rkey,
            0,
        )
        .unwrap();
        TycheClient::new(&mut ma, 0).ret().unwrap();

        // TEE B reads it from its MR.
        let mut client = TycheClient::new(&mut mb, 0);
        client.enter(gb).unwrap();
        let mut got = [0u8; 20];
        client.read(TEE_MEM.0 + 0x1000, &mut got).unwrap();
        assert_eq!(&got, b"cross-machine secret");
        TycheClient::new(&mut mb, 0).ret().unwrap();

        // Machine B's host OS cannot read the landed data.
        assert!(mb.dom_read(0, TEE_MEM.0 + 0x1000, &mut [0u8; 1]).is_err());
        // And the wire never carried the plaintext.
        assert!(!wire.frames.is_empty());
        assert!(
            !wire.leaks(b"cross-machine secret"),
            "wire is ciphertext only"
        );
    }

    #[test]
    fn registration_requires_exclusivity() {
        let mut m = boot_x86(BootConfig::default());
        // The OS shares a window with a child: that window is refcount 2
        // and cannot be registered.
        let mut client = TycheClient::new(&mut m, 0);
        let (d, _gate) = client.create_domain().unwrap();
        let cap = client.carve(0x20_0000, 0x20_1000).unwrap();
        client
            .share(cap, d, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        let mut nic = RdmaNic::new();
        assert_eq!(
            nic.register_mr(&mut m, 0, 0x20_0000, 0x20_1000, true),
            Err(RdmaError::NotExclusive)
        );
        // A domain cannot register memory it does not hold.
        assert!(
            !nic.register_mr(&mut m, 0, 0x10_0000, 0x10_1000, true)
                .err()
                .is_some_and(|e| e == RdmaError::NotExclusive),
            "the OS exclusively owns 0x10_0000 pre-TEE; registration succeeds"
        );
    }

    #[test]
    fn delivery_revalidates_exclusivity() {
        let (mut ma, ga, mut mb, _gb, mut conn, nic_b, rkey, mut wire) = connected();
        // After registration, machine B's topology changes: kill the TEE,
        // returning the MR's pages to the OS (refcount stays 1 but the
        // owner changed — ExclusivityLost).
        let tee_b = mb
            .engine
            .domains()
            .find(|d| d.is_sealed())
            .map(|d| d.id)
            .unwrap();
        let os_b = mb.engine.root().unwrap();
        mb.engine.kill(os_b, tee_b).unwrap();
        mb.sync_effects().unwrap();
        let mut client = TycheClient::new(&mut ma, 0);
        client.enter(ga).unwrap();
        client.write(TEE_MEM.0 + 0x100, b"late").unwrap();
        let err = conn
            .rdma_write(
                &mut ma,
                0,
                TEE_MEM.0 + 0x100,
                4,
                &mut wire,
                &mut mb,
                &nic_b,
                rkey,
                0,
            )
            .unwrap_err();
        assert_eq!(err, RdmaError::ExclusivityLost);
    }

    #[test]
    fn bounds_and_permissions_enforced() {
        let (mut ma, ga, mut mb, _gb, mut conn, mut nic_b, rkey, mut wire) = connected();
        let mut client = TycheClient::new(&mut ma, 0);
        client.enter(ga).unwrap();
        client.write(TEE_MEM.0 + 0x100, b"data").unwrap();
        // Out of MR bounds.
        let err = conn
            .rdma_write(
                &mut ma,
                0,
                TEE_MEM.0 + 0x100,
                4,
                &mut wire,
                &mut mb,
                &nic_b,
                rkey,
                0xfff,
            )
            .unwrap_err();
        assert_eq!(err, RdmaError::OutOfBounds);
        // Unknown rkey.
        let err = conn
            .rdma_write(
                &mut ma,
                0,
                TEE_MEM.0 + 0x100,
                4,
                &mut wire,
                &mut mb,
                &nic_b,
                RKey(999),
                0,
            )
            .unwrap_err();
        assert_eq!(err, RdmaError::NoSuchRegion);
        // Read-only MR refuses writes.
        nic_b.deregister(rkey);
        let tee_b = mb
            .engine
            .domains()
            .find(|d| d.is_sealed())
            .map(|d| d.id)
            .unwrap();
        let gate_b = mb
            .engine
            .caps()
            .find(|c| matches!(c.resource, Resource::Transition(t) if t == tee_b))
            .map(|c| c.id)
            .unwrap();
        TycheClient::new(&mut mb, 0).enter(gate_b).unwrap();
        let ro = nic_b
            .register_mr(&mut mb, 0, TEE_MEM.0 + 0x1000, TEE_MEM.0 + 0x2000, false)
            .unwrap();
        TycheClient::new(&mut mb, 0).ret().unwrap();
        let err = conn
            .rdma_write(
                &mut ma,
                0,
                TEE_MEM.0 + 0x100,
                4,
                &mut wire,
                &mut mb,
                &nic_b,
                ro,
                0,
            )
            .unwrap_err();
        assert_eq!(err, RdmaError::ReadOnlyRegion);
        // The sender cannot push memory it cannot read.
        let err = conn
            .rdma_write(&mut ma, 0, 0x50_0000, 4, &mut wire, &mut mb, &nic_b, ro, 0)
            .unwrap_err();
        assert!(matches!(err, RdmaError::LocalFault(_)));
    }

    #[test]
    fn wire_frames_are_authenticated() {
        // The wire capture proves frames carry tags: flipping any
        // ciphertext bit and re-verifying fails. (Delivery in the model
        // is in-process, so we check the property on the captured frame
        // the way a receiver would.)
        let (mut ma, ga, mut mb, _gb, mut conn, nic_b, rkey, mut wire) = connected();
        let mut client = TycheClient::new(&mut ma, 0);
        client.enter(ga).unwrap();
        client.write(TEE_MEM.0 + 0x100, b"auth").unwrap();
        conn.rdma_write(
            &mut ma,
            0,
            TEE_MEM.0 + 0x100,
            4,
            &mut wire,
            &mut mb,
            &nic_b,
            rkey,
            0,
        )
        .unwrap();
        let frame = wire.frames.last().unwrap().clone();
        assert_eq!(frame.len(), FRAME_OVERHEAD + 4, "seq + payload + tag");
        // An unmodified frame authenticates under the connection key...
        let tag_of = |f: &[u8]| -> aead::Tag { f[f.len() - TAG_LEN..].try_into().unwrap() };
        let nonce = frame_nonce(u64::from_le_bytes(frame[..8].try_into().unwrap()));
        let ct = &frame[8..frame.len() - TAG_LEN];
        assert!(aead::check(
            &conn.key,
            &nonce,
            &[&frame[..8]],
            ct,
            &tag_of(&frame)
        ));
        // ...and a tampered one does not.
        let mut evil = frame.clone();
        evil[9] ^= 0x80;
        let ct = &evil[8..evil.len() - TAG_LEN];
        assert!(!aead::check(
            &conn.key,
            &nonce,
            &[&evil[..8]],
            ct,
            &tag_of(&evil)
        ));
    }

    /// Reads `len` bytes of B's MR as B's TEE.
    fn read_mr(mb: &mut Monitor, gb: CapId, len: usize) -> Vec<u8> {
        let mut got = vec![0u8; len];
        let mut client = TycheClient::new(mb, 0);
        client.enter(gb).unwrap();
        client.read(TEE_MEM.0 + 0x1000, &mut got).unwrap();
        client.ret().unwrap();
        got
    }

    /// A's TEE stages `data` and produces the frame carrying it.
    fn frame_of(ma: &mut Monitor, ga: CapId, conn: &mut RdmaConnection, data: &[u8]) -> Vec<u8> {
        let mut client = TycheClient::new(ma, 0);
        client.enter(ga).unwrap();
        client.write(TEE_MEM.0 + 0x100, data).unwrap();
        let frame = conn
            .produce_frame(ma, 0, TEE_MEM.0 + 0x100, data.len())
            .unwrap();
        TycheClient::new(ma, 0).ret().unwrap();
        frame
    }

    #[test]
    fn deliver_frame_lands_authentic_frames_and_refuses_bad_ones() {
        let (mut ma, ga, mut mb, gb, mut conn, nic_b, rkey, _wire) = connected();
        let frame = frame_of(&mut ma, ga, &mut conn, b"land");
        // A frame with one bit flipped (in the ciphertext, the header, or
        // the tag) is refused and the MR keeps its contents.
        let before = read_mr(&mut mb, gb, 4);
        for bit in [8 * 9 + 3, 5, (frame.len() - 1) * 8] {
            let mut evil = frame.clone();
            evil[bit / 8] ^= 1 << (bit % 8);
            let err = conn
                .deliver_frame(&evil, &mut mb, &nic_b, rkey, 0)
                .unwrap_err();
            assert_eq!(err, RdmaError::BadFrame, "flipped bit {bit}");
            assert_eq!(read_mr(&mut mb, gb, 4), before);
        }
        // A frame shorter than header + tag is refused.
        for len in [0, 8, FRAME_OVERHEAD - 1] {
            let err = conn
                .deliver_frame(&frame[..len], &mut mb, &nic_b, rkey, 0)
                .unwrap_err();
            assert_eq!(err, RdmaError::BadFrame, "{len}-byte frame");
            assert_eq!(read_mr(&mut mb, gb, 4), before);
        }
        // The unmodified frame lands.
        conn.deliver_frame(&frame, &mut mb, &nic_b, rkey, 0)
            .unwrap();
        assert_eq!(read_mr(&mut mb, gb, 4), b"land");
    }

    #[test]
    fn replayed_frame_is_refused() {
        let (mut ma, ga, mut mb, gb, mut conn, nic_b, rkey, _wire) = connected();
        let old = frame_of(&mut ma, ga, &mut conn, b"old!");
        conn.deliver_frame(&old, &mut mb, &nic_b, rkey, 0).unwrap();
        let new = frame_of(&mut ma, ga, &mut conn, b"new!");
        conn.deliver_frame(&new, &mut mb, &nic_b, rkey, 0).unwrap();
        assert_eq!(read_mr(&mut mb, gb, 4), b"new!");
        // The captured older frame is authentic but cannot roll the MR back.
        assert_eq!(
            conn.deliver_frame(&old, &mut mb, &nic_b, rkey, 0),
            Err(RdmaError::Replayed)
        );
        assert_eq!(
            conn.deliver_frame(&new, &mut mb, &nic_b, rkey, 0),
            Err(RdmaError::Replayed)
        );
        assert_eq!(read_mr(&mut mb, gb, 4), b"new!");
        // A refused delivery does not consume a sequence number: a frame
        // that fails MR validation can still be delivered later, and a
        // frame after a gap (one the transport lost) is accepted.
        let retry = frame_of(&mut ma, ga, &mut conn, b"try!");
        assert_eq!(
            conn.deliver_frame(&retry, &mut mb, &nic_b, rkey, 0xfff),
            Err(RdmaError::OutOfBounds)
        );
        conn.deliver_frame(&retry, &mut mb, &nic_b, rkey, 0)
            .unwrap();
        let _lost = frame_of(&mut ma, ga, &mut conn, b"lost");
        let after_gap = frame_of(&mut ma, ga, &mut conn, b"gap!");
        conn.deliver_frame(&after_gap, &mut mb, &nic_b, rkey, 0)
            .unwrap();
        assert_eq!(read_mr(&mut mb, gb, 4), b"gap!");
    }

    #[test]
    fn rdma_frame_is_pinned() {
        // One wire frame for a fixed key, sequence number and payload
        // (crossing a 64-byte keystream block): `seq_le || ciphertext ||
        // tag` must never drift.
        let (key, seq) = ([0x42u8; 32], 7u64);
        let plaintext: Vec<u8> = (0..100u8).collect();
        let mut conn = RdmaConnection::with_key(key);
        conn.seq = seq;
        let mut frame = vec![0u8; 8];
        frame.extend_from_slice(&plaintext);
        let frame = conn.seal(frame).unwrap();
        assert_eq!(conn.seq, seq + 1);

        // From RFC 8439 §2.8, spelled out: with nonce `0u32 || seq_le`,
        // ChaCha20 block 0 keys Poly1305 and blocks 1, 2 are the
        // keystream; the tag is Poly1305 over `seq_le`, zero padding to
        // 16, the ciphertext, zero padding to 16, and both lengths as
        // 64-bit little-endian.
        let nonce = frame_nonce(seq);
        assert_eq!(nonce, [0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
        let mut expected = seq.to_le_bytes().to_vec();
        for (i, chunk) in plaintext.chunks(64).enumerate() {
            let ks = tyche_crypto::chacha::block(&key, i as u32 + 1, &nonce);
            expected.extend(chunk.iter().zip(ks).map(|(p, k)| p ^ k));
        }
        let mut mac_data = seq.to_le_bytes().to_vec();
        mac_data.resize(16, 0);
        mac_data.extend_from_slice(&expected[8..]);
        mac_data.resize(16 + 112, 0);
        mac_data.extend_from_slice(&8u64.to_le_bytes());
        mac_data.extend_from_slice(&100u64.to_le_bytes());
        let one_time: [u8; 32] = tyche_crypto::chacha::block(&key, 0, &nonce)[..32]
            .try_into()
            .unwrap();
        let tag = crate::poly1305::Poly1305::mac(&one_time, &mac_data);
        expected.extend_from_slice(&tag);
        assert_eq!(frame, expected);

        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "07000000000000000978b4cc8b7513cf371938a15773a7f6cd6b416a1ec8b955\
             555396e7033d9ebaec9248332c7cff0732d954606224453c0c3abafbd83f7688\
             38da00fd40b1cae49c768c9e445a351a1d0015fb473a35abb6413219f10474ff\
             494985cd4fcf8bf89e979484285a5f769a65d0ec048c0ee23d0d9cba"
        );
    }

    #[test]
    fn oversized_payload_is_refused() {
        // The 32-bit ChaCha20 block counter covers 256 GiB per frame; a
        // longer payload would reuse keystream, so it is never produced.
        let (mut ma, ga, _mb, _gb, mut conn, _nic_b, _rkey, _wire) = connected();
        TycheClient::new(&mut ma, 0).enter(ga).unwrap();
        let len = usize::try_from(MAX_PAYLOAD + 1).unwrap();
        assert_eq!(
            conn.produce_frame(&mut ma, 0, TEE_MEM.0, len),
            Err(RdmaError::OutOfBounds)
        );
        assert_eq!(conn.seq, 0);
    }

    #[test]
    fn attestation_gate_blocks_wrong_monitor() {
        let (ma, _da, _ga) = machine_with_tee();
        let mut evil = boot_x86(BootConfig {
            version: "evil-monitor v6.6.6",
            ..Default::default()
        });
        let (evil_tee, _gate) = tyche_bench_spawn(&mut evil, 0x10_0000, 0x1000);
        let qn = [1u8; 32];
        let rn = [2u8; 32];
        let quote = evil.machine_quote(qn).expect("quote");
        let report = evil.attest_domain(evil_tee, rn).unwrap();
        let my_report = {
            let mut ma = ma;
            let d = ma
                .engine
                .domains()
                .find(|d| d.is_sealed())
                .map(|d| d.id)
                .unwrap();
            ma.attest_domain(d, rn).unwrap()
        };
        // The verifier expects the *good* monitor's PCR but evil's TPM key
        // (the machine is real; its software stack is not).
        let verifier = Verifier::new(
            evil.machine.tpm.attestation_key(),
            expected_monitor_pcr(MONITOR_VERSION),
            evil.report_key(),
        );
        let err = RdmaConnection::establish(&verifier, &quote, &qn, &report, &rn, &my_report, None)
            .unwrap_err();
        assert!(matches!(
            err,
            RdmaError::Attestation(VerifyError::WrongMonitor { .. })
        ));
    }
}
