//! A fleet of mutually attesting Tyche machines.
//!
//! Everything below this crate lives inside one `Machine`; the paper's
//! trust story only pays off when monitors compose *across* machines —
//! "millions of users, one monitor per machine", where any single
//! machine may be byzantine and must not be able to forge attestation
//! or silently partition its peers. A [`Fleet`] assembles N fully
//! independent machines (each with its own monitor, TPM, DRBG, and
//! sealed TEE domain) connected only by the modeled trusted NIC
//! (`tyche-hw::nic`): frames are cycle-charged on the per-core clocks,
//! queues are bounded and in-order, and the wire between two NICs is
//! attacker-controlled (seeded drop/dup/reorder/corrupt fault plans).
//!
//! Trust is established pairwise by **mutual attestation**
//! ([`Fleet::attest_pair`]): each side challenges the other with TPM
//! DRBG nonces, verifies the quote + monitor report chain against its
//! *own* measurement root for the open-source monitor build (the peer
//! publishes only keys, never the expected PCR — see
//! `tyche-monitor::attest::MachineRoots`), and both sides derive the
//! same channel key with HKDF over the sorted report digests, all four
//! nonces, and the key epoch. Every subsequent frame is
//! `word ‖ seq ‖ payload ‖ tag`, where `word` is the key epoch with the
//! frame kind in its top bit and `tag` is the 16-byte ChaCha20-Poly1305
//! tag ([`libtyche::aead`]) of an empty plaintext under the channel
//! key, with nonce `(src as u32)_le ‖ seq_le` and additional data the
//! fixed-width little-endian `src ‖ word ‖ seq ‖ len` followed by the
//! bytes the channel binds. Both directions of a pair share the key
//! and count sequence numbers from 0, so the sender's id in the nonce
//! is what keeps every (key, nonce) pair unique; the receiving
//! machine's [`ChannelTable`] ([`channel`]) is the single accept/reject
//! authority, and any violation — bad MAC, replay, reorder, truncation,
//! stale epoch — tears the channel down at an exact frame index and
//! quarantines the peer for good. Channel keys and sequence state live
//! here, with the transport, never in the monitor: no hypercall reads
//! them, so they add nothing to the monitor's TCB.
//!
//! The `libtyche` RDMA scenario composes on top: [`Fleet::rdma_connect`]
//! runs the RDMA attestation handshake over an already-attested channel,
//! and [`Fleet::rdma_send`] / [`Fleet::rdma_deliver`] (composed as
//! [`Fleet::rdma_write`]) route the encrypted RDMA frames through the
//! NIC transport instead of an abstract wire, making it a real
//! two-machine attested workload. Each payload byte is authenticated
//! once: an ordinary frame's channel tag binds its whole payload, but an
//! RDMA-kind frame's channel tag binds only the RDMA frame's length,
//! sequence number and TEE-pair tag, because that tag already binds the
//! ciphertext. The receiving RDMA session checks the tag before the
//! `ChannelTable` counts the frame, so a payload tamper is still the
//! channel's `BadMac` at its exact frame index, and a plain
//! [`Fleet::deliver`] never hands out an RDMA-kind payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod channel;

use std::collections::{BTreeMap, VecDeque};

use channel::{ChannelTable, Violation, ViolationReason};
use libtyche::aead::{self, Tag, TAG_LEN};
use libtyche::rdma::{RKey, RdmaError, RdmaNic};
use libtyche::{RdmaConnection, TycheClient};
use tyche_core::prelude::*;
use tyche_core::SealPolicy;
use tyche_crypto::hkdf;
use tyche_hw::machine::MachineConfig;
use tyche_hw::nic::Frame;
use tyche_hw::tpm::{Quote, TpmError};
use tyche_monitor::attest::{MachineRoots, VerifyError};
use tyche_monitor::boot::MONITOR_VERSION;
use tyche_monitor::{boot_x86, BootConfig, Monitor, Status};

/// The TEE memory window carved on every fleet machine: the sealed
/// domain whose report backs the machine's channels, and the RDMA
/// source/target region.
pub const TEE_MEM: (u64, u64) = (0x10_0000, 0x10_4000);

/// The MR window registered for attested RDMA, inside [`TEE_MEM`].
pub const RDMA_MR: (u64, u64) = (0x10_1000, 0x10_2000);

/// Channel frame overhead: epoch word (8) + seq (8) + AEAD tag (16).
pub const FRAME_OVERHEAD: usize = 16 + TAG_LEN;

/// The top bit of a frame's wire epoch word: set on an RDMA-kind frame,
/// clear on an ordinary one. Epochs stay below it
/// ([`channel::MAX_EPOCH`]), so the kind costs no wire byte,
/// and the channel tag covers the whole word, so a relabelled frame dies
/// as [`ViolationReason::BadMac`].
const RDMA_KIND: u64 = 1 << 63;

/// The monitor version a byzantine machine boots: a different image,
/// measuring to a different PCR 17, so every honest peer's tier-1
/// check fails.
pub const EVIL_VERSION: &str = "evil-monitor v6.6.6";

/// Fleet construction parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of machines.
    pub machines: usize,
    /// Master seed; each machine's TPM/DRBG seed is derived from it, so
    /// two fleets built from the same config are bit-identical.
    pub seed: u64,
    /// Index of a machine booted with [`EVIL_VERSION`], if any.
    pub byzantine: Option<usize>,
    /// Cores per machine.
    pub cores: usize,
    /// NIC inbound queue depth, in frames.
    pub nic_queue_frames: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            machines: 2,
            seed: 1,
            byzantine: None,
            cores: 2,
            nic_queue_frames: tyche_hw::nic::DEFAULT_QUEUE_FRAMES,
        }
    }
}

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// A machine index was out of range (or `from == to`), or a fleet
    /// had more machines than the wire's 32-bit sender ids can name.
    NoSuchMachine,
    /// A send was refused locally (no open channel to the peer).
    Refused(ViolationReason),
    /// An inbound frame was rejected; the channel is torn down and the
    /// violation records the exact frame index.
    Channel(Violation),
    /// The peer's attestation chain failed verification; the peer is
    /// quarantined.
    Attestation(VerifyError),
    /// A TPM operation failed (injected fault).
    Tpm(TpmError),
    /// A monitor call failed while spawning or attesting the TEE.
    Monitor(Status),
    /// The destination NIC queue was full; the frame was refused.
    QueueFull,
    /// An RDMA-layer error.
    Rdma(RdmaError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::NoSuchMachine => f.write_str("no such machine"),
            FleetError::Refused(r) => write!(f, "send refused: {r}"),
            FleetError::Channel(v) => {
                write!(f, "frame {} rejected: {}", v.frame_index, v.reason)
            }
            FleetError::Attestation(e) => write!(f, "attestation failed: {e}"),
            FleetError::Tpm(e) => write!(f, "tpm failure: {e:?}"),
            FleetError::Monitor(s) => write!(f, "monitor call failed: {s:?}"),
            FleetError::QueueFull => f.write_str("destination NIC queue full"),
            FleetError::Rdma(e) => write!(f, "rdma failure: {e:?}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A frame accepted by the receiving channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The sending machine's id.
    pub from: u64,
    /// The per-channel sequence number the frame verified at.
    pub seq: u64,
    /// The authenticated payload.
    pub payload: Vec<u8>,
}

/// Deterministic per-machine counters, for benches and replay checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Frames accepted by this machine's channels.
    pub accepted: u64,
    /// Frames rejected (violations) by this machine's channels.
    pub violations: u64,
    /// Peers this machine has quarantined.
    pub quarantined: u64,
}

/// One fleet member: an independent machine + monitor, its sealed TEE,
/// its channel table, and its per-epoch key material.
pub struct FleetMachine {
    /// The machine's monitor (owns the `tyche_hw::Machine`).
    pub monitor: Monitor,
    /// This machine's channel sequence and epoch state.
    pub channels: ChannelTable,
    /// The sealed TEE domain backing this machine's attestations.
    pub tee: DomainId,
    /// The transition gate into the TEE.
    pub gate: CapId,
    /// Channel keys by peer, then by epoch. At most the current and the
    /// previous epoch are retained (the one-epoch grace window lets a
    /// stale-epoch frame be *diagnosed* as stale rather than merely
    /// unauthentic); retired keys are never used to accept frames, and
    /// a teardown destroys every epoch for the peer.
    keys: BTreeMap<u64, BTreeMap<u64, [u8; 32]>>,
    /// Outcomes of the frames an RDMA receive judged on its way to its
    /// RDMA frame (ordinary frames, and frames from other peers), in
    /// arrival order; [`Fleet::deliver`] hands them out before it polls
    /// the NIC again.
    pending: VecDeque<Result<Delivery, Violation>>,
    accepted: u64,
    violations: u64,
}

impl FleetMachine {
    /// Deterministic counters for this machine.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            accepted: self.accepted,
            violations: self.violations,
            quarantined: self.channels.quarantined_peers().len() as u64,
        }
    }

    /// Verifies one inbound ordinary frame from `src` through the
    /// channel: tag first, then the `ChannelTable`'s sequence/epoch
    /// judgment. Counts the outcome.
    fn judge(&mut self, src: u64, bytes: &[u8]) -> Result<Delivery, Violation> {
        let outcome = self
            .authenticate(src, bytes, 0)
            .and_then(|(epoch, seq, payload)| {
                let seq = self.channels.accept_recv(src, seq, epoch)?;
                Ok(Delivery {
                    from: src,
                    seq,
                    payload: payload.to_vec(),
                })
            });
        self.count(src, outcome)
    }

    /// Checks one inbound frame from `src` up to and including its
    /// channel tag, and returns its epoch, sequence number and payload.
    /// Attribution comes from the trusted NIC's link header; the tag's
    /// nonce and additional data bind the same id, so a forged id dies
    /// as BadMac. A receive path verifies only its own `kind`: a frame
    /// of the other kind is a BadMac without a tag computed. Every
    /// rejection is counted by the table at the frame's index.
    fn authenticate<'a>(
        &mut self,
        src: u64,
        bytes: &'a [u8],
        kind: u64,
    ) -> Result<(u64, u64, &'a [u8]), Violation> {
        let Some((word, seq, payload, tag)) = split_frame(bytes) else {
            return Err(self.channels.reject(src, ViolationReason::Truncated));
        };
        let epoch = word & !RDMA_KIND;
        // Key lookup by the frame's *claimed* epoch: a frame under a
        // retired (grace-window) epoch authenticates against its old
        // key so it can be diagnosed as StaleEpoch by the table rather
        // than dying as an anonymous BadMac; an unknown epoch has no
        // key and is judged directly.
        let current = self.channels.epoch(src);
        let Some(key) = self.keys.get(&src).and_then(|e| e.get(&epoch)) else {
            let reason = if epoch != current && current != 0 {
                ViolationReason::StaleEpoch
            } else {
                ViolationReason::NoChannel
            };
            return Err(self.channels.reject(src, reason));
        };
        let authentic = word & RDMA_KIND == kind
            && bound_bytes(word, payload).is_some_and(|bound| {
                let expected = frame_tag(key, src, word, seq, payload.len(), bound);
                tyche_crypto::ct::eq(&expected, tag)
            });
        if !authentic {
            return Err(self.channels.reject(src, ViolationReason::BadMac));
        }
        Ok((epoch, seq, payload))
    }

    /// Counts a receive outcome; a violation also destroys the peer's
    /// keys.
    fn count<T>(&mut self, src: u64, outcome: Result<T, Violation>) -> Result<T, Violation> {
        match outcome {
            Ok(t) => {
                self.accepted += 1;
                Ok(t)
            }
            Err(v) => Err(self.violated(src, v)),
        }
    }

    /// Records a violation: bump counters and destroy the peer's keys
    /// (the channel-teardown half of the key lifecycle).
    fn violated(&mut self, peer: u64, v: Violation) -> Violation {
        self.violations += 1;
        self.keys.remove(&peer);
        v
    }

    /// Installs `key` for (`peer`, `epoch`), pruning epochs older than
    /// the grace window.
    fn install_key(&mut self, peer: u64, epoch: u64, key: [u8; 32]) {
        let epochs = self.keys.entry(peer).or_default();
        epochs.insert(epoch, key);
        while epochs.len() > 2 {
            if let Some((&oldest, _)) = epochs.iter().next() {
                epochs.remove(&oldest);
            }
        }
    }
}

/// An established attested-RDMA session between two fleet machines.
pub struct RdmaSession {
    conn: RdmaConnection,
    nic: RdmaNic,
    rkey: RKey,
}

/// A fleet of independent machines connected by trusted NICs.
pub struct Fleet {
    machines: Vec<FleetMachine>,
}

/// Derives machine `i`'s TPM seed from the fleet seed (distinct per
/// machine, stable across runs).
fn tpm_seed_for(fleet_seed: u64, i: usize) -> u64 {
    fleet_seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Splits a channel frame into its wire fields: epoch word, sequence
/// number, payload and tag. `None` when it is shorter than
/// [`FRAME_OVERHEAD`]. Nothing in the result is authenticated yet.
fn split_frame(bytes: &[u8]) -> Option<(u64, u64, &[u8], &Tag)> {
    let (word, rest) = bytes.split_first_chunk::<8>()?;
    let (seq, rest) = rest.split_first_chunk::<8>()?;
    let (payload, tag) = rest.split_last_chunk::<TAG_LEN>()?;
    Some((
        u64::from_le_bytes(*word),
        u64::from_le_bytes(*seq),
        payload,
        tag,
    ))
}

/// The payload bytes a frame's channel tag binds: all of an ordinary
/// payload; of an RDMA-kind payload only the RDMA frame's `seq_le` and
/// its TEE-pair tag. That tag already binds the ciphertext, and the
/// receiver checks it before the channel counts the frame. `None` when
/// an RDMA-kind payload is too short to hold both.
fn bound_bytes(word: u64, payload: &[u8]) -> Option<[&[u8]; 2]> {
    if word & RDMA_KIND == 0 {
        return Some([payload, &[]]);
    }
    let (rdma_seq, rest) = payload.split_first_chunk::<8>()?;
    let (_, rdma_tag) = rest.split_last_chunk::<{ libtyche::rdma::TAG_LEN }>()?;
    Some([rdma_seq, rdma_tag])
}

/// The AEAD nonce of the frame `src` sends at `seq`: `(src as u32)_le ‖
/// seq_le`. Both directions of a pair share the channel key and count
/// `seq` from 0, so the sender's id keeps the nonces apart;
/// [`Fleet::new`] refuses ids that do not fit in 32 bits.
fn frame_nonce(src: u64, seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    let (id, count) = nonce.split_at_mut(4);
    id.copy_from_slice(&(src as u32).to_le_bytes());
    count.copy_from_slice(&seq.to_le_bytes());
    nonce
}

/// The channel tag of one frame: the ChaCha20-Poly1305 tag of an empty
/// plaintext under the channel key, at [`frame_nonce`], with additional
/// data the fixed-width little-endian `src ‖ word ‖ seq ‖ len` (`word`
/// is the epoch with the kind bit, `len` the payload's length), then the
/// `bound` bytes.
fn frame_tag(key: &[u8; 32], src: u64, word: u64, seq: u64, len: usize, bound: [&[u8]; 2]) -> Tag {
    let mut head = [0u8; 32];
    for (field, value) in head.chunks_exact_mut(8).zip([src, word, seq, len as u64]) {
        field.copy_from_slice(&value.to_le_bytes());
    }
    let [payload, rdma_tag] = bound;
    aead::tag(
        key,
        &frame_nonce(src, seq),
        &[&head, payload, rdma_tag],
        &[],
    )
}

impl Fleet {
    /// Boots `config.machines` independent machines, each with a
    /// distinct TPM seed, its own monitor (the byzantine one boots
    /// [`EVIL_VERSION`]), and one sealed TEE owning [`TEE_MEM`].
    ///
    /// No channels exist yet; call [`Self::attest_pair`] or
    /// [`Self::establish_all`]. A fleet of more than 2³² machines is
    /// refused ([`FleetError::NoSuchMachine`]) before anything boots:
    /// frame nonces carry the sender's id in 32 bits.
    pub fn new(config: &FleetConfig) -> Result<Fleet, FleetError> {
        if config.machines as u64 > 1 << 32 {
            return Err(FleetError::NoSuchMachine);
        }
        let mut machines = Vec::with_capacity(config.machines);
        for i in 0..config.machines {
            let version = if config.byzantine == Some(i) {
                EVIL_VERSION
            } else {
                MONITOR_VERSION
            };
            let boot = BootConfig {
                machine: MachineConfig {
                    cores: config.cores,
                    tpm_seed: tpm_seed_for(config.seed, i),
                    machine_id: i as u64,
                    nic_queue_frames: config.nic_queue_frames,
                    ..MachineConfig::default()
                },
                version,
                ..BootConfig::default()
            };
            let mut monitor = boot_x86(boot);
            let (tee, gate) = spawn_tee(&mut monitor)?;
            let channels = ChannelTable::new(monitor.machine.trace.clone());
            machines.push(FleetMachine {
                monitor,
                channels,
                tee,
                gate,
                keys: BTreeMap::new(),
                pending: VecDeque::new(),
                accepted: 0,
                violations: 0,
            });
        }
        Ok(Fleet { machines })
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Borrows machine `i`.
    pub fn machine(&self, i: usize) -> Option<&FleetMachine> {
        self.machines.get(i)
    }

    /// Mutably borrows machine `i`.
    pub fn machine_mut(&mut self, i: usize) -> Option<&mut FleetMachine> {
        self.machines.get_mut(i)
    }

    /// Enables tracing on every machine (one lane per core plus the
    /// engine lane), so per-machine trace chains can be compared across
    /// replayed runs.
    pub fn enable_tracing(&self) {
        for m in &self.machines {
            m.monitor.machine.trace.enable(m.monitor.machine.cores);
        }
    }

    /// Splits two distinct machine borrows.
    fn pair_mut(
        &mut self,
        a: usize,
        b: usize,
    ) -> Result<(&mut FleetMachine, &mut FleetMachine), FleetError> {
        if a == b || a >= self.machines.len() || b >= self.machines.len() {
            return Err(FleetError::NoSuchMachine);
        }
        if a < b {
            let (lo, hi) = self.machines.split_at_mut(b);
            match (lo.get_mut(a), hi.first_mut()) {
                (Some(ma), Some(mb)) => Ok((ma, mb)),
                _ => Err(FleetError::NoSuchMachine),
            }
        } else {
            let (lo, hi) = self.machines.split_at_mut(a);
            match (hi.first_mut(), lo.get_mut(b)) {
                (Some(ma), Some(mb)) => Ok((ma, mb)),
                _ => Err(FleetError::NoSuchMachine),
            }
        }
    }

    /// Mutually attests machines `a` and `b` and establishes (or
    /// re-keys) the channel between them.
    ///
    /// Each side challenges the other with fresh TPM DRBG nonces,
    /// verifies the quote + report chain against its own trust in the
    /// [`MONITOR_VERSION`] build, and on success both derive the same
    /// key for the next epoch. A failed verification quarantines the
    /// presenting peer on the verifying side — a byzantine machine
    /// never gets a channel.
    pub fn attest_pair(&mut self, a: usize, b: usize) -> Result<(), FleetError> {
        self.attest_pair_with(a, b, |_| {})
    }

    /// [`Self::attest_pair`] with a tamper hook applied to `b`'s quote
    /// before `a` verifies it — the adversarial tests use this to model
    /// a byzantine `b` forging its quote in flight. The hook does not
    /// affect what `b` itself derives, so a tampered handshake dies at
    /// `a`'s verification, exactly like a real forgery.
    pub fn attest_pair_with(
        &mut self,
        a: usize,
        b: usize,
        tamper_b_quote: impl FnOnce(&mut Quote),
    ) -> Result<(), FleetError> {
        let (ma, mb) = self.pair_mut(a, b)?;
        let (a_id, b_id) = (a as u64, b as u64);
        let epoch = ma.channels.epoch(b_id).max(mb.channels.epoch(a_id)) + 1;

        // Challenges: each side's TPM DRBG supplies the nonces the
        // *other* side must quote/report over.
        let qn_a = mb
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;
        let rn_a = mb
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;
        let qn_b = ma
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;
        let rn_b = ma
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;

        let quote_a = ma.monitor.machine_quote(qn_a).map_err(FleetError::Tpm)?;
        let report_a = ma
            .monitor
            .attest_domain(ma.tee, rn_a)
            .map_err(|_| FleetError::Monitor(Status::Denied))?;
        let mut quote_b = mb.monitor.machine_quote(qn_b).map_err(FleetError::Tpm)?;
        let report_b = mb
            .monitor
            .attest_domain(mb.tee, rn_b)
            .map_err(|_| FleetError::Monitor(Status::Denied))?;
        tamper_b_quote(&mut quote_b);

        // a verifies b's chain with b's published roots but a's own
        // measurement expectation, and vice versa.
        let verifier_of_b = MachineRoots::of(&mb.monitor).verifier(MONITOR_VERSION);
        if let Err(e) = verifier_of_b.verify(&quote_b, &qn_b, &report_b, &rn_b, None) {
            let v = ma.channels.reject(b_id, ViolationReason::BadAttestation);
            ma.violated(b_id, v);
            return Err(FleetError::Attestation(e));
        }
        let verifier_of_a = MachineRoots::of(&ma.monitor).verifier(MONITOR_VERSION);
        if let Err(e) = verifier_of_a.verify(&quote_a, &qn_a, &report_a, &rn_a, None) {
            let v = mb.channels.reject(a_id, ViolationReason::BadAttestation);
            mb.violated(a_id, v);
            return Err(FleetError::Attestation(e));
        }

        // Both sides hold both reports and all four nonces: derive the
        // epoch key from the sorted report digests (order-independent)
        // plus the full nonce transcript and the epoch.
        let mut da = report_a.report.digest();
        let mut db = report_b.report.digest();
        if db.0 < da.0 {
            std::mem::swap(&mut da, &mut db);
        }
        let mut ikm = Vec::new();
        ikm.extend_from_slice(da.as_bytes());
        ikm.extend_from_slice(db.as_bytes());
        ikm.extend_from_slice(&qn_a);
        ikm.extend_from_slice(&qn_b);
        ikm.extend_from_slice(&rn_a);
        ikm.extend_from_slice(&rn_b);
        ikm.extend_from_slice(&epoch.to_le_bytes());
        let key = hkdf::derive_key32(b"tyche-fleet", &ikm, b"channel");

        ma.channels
            .establish(b_id, epoch)
            .map_err(FleetError::Refused)?;
        ma.install_key(b_id, epoch, key);
        mb.channels
            .establish(a_id, epoch)
            .map_err(FleetError::Refused)?;
        mb.install_key(a_id, epoch, key);
        Ok(())
    }

    /// Attests every unordered machine pair, returning how many
    /// channels were established. Pairs whose attestation fails (e.g.
    /// one side byzantine) are skipped — the rest of the fleet stays
    /// connected, which is the containment property the benches pin.
    pub fn establish_all(&mut self) -> usize {
        let n = self.machines.len();
        let mut up = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                if self.attest_pair(a, b).is_ok() {
                    up += 1;
                }
            }
        }
        up
    }

    /// Sends `payload` from machine `from` to machine `to` over their
    /// attested channel: reserves the next sequence number, tags
    /// `src ‖ epoch ‖ seq ‖ len ‖ payload`, and hands the frame to the
    /// NICs (charging send cycles to `core` on the sending machine).
    /// Returns the frame's sequence number.
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        core: usize,
        payload: &[u8],
    ) -> Result<u64, FleetError> {
        self.send_kind(from, to, core, 0, payload)
    }

    /// [`Self::send`] of a frame of `kind` (0 or [`RDMA_KIND`]).
    fn send_kind(
        &mut self,
        from: usize,
        to: usize,
        core: usize,
        kind: u64,
        payload: &[u8],
    ) -> Result<u64, FleetError> {
        let (mf, mt) = self.pair_mut(from, to)?;
        let to_id = to as u64;
        let bound = bound_bytes(kind, payload).ok_or(FleetError::Rdma(RdmaError::BadFrame))?;
        let (seq, epoch) = mf.channels.note_send(to_id).map_err(FleetError::Refused)?;
        let Some(key) = mf.keys.get(&to_id).and_then(|e| e.get(&epoch)) else {
            return Err(FleetError::Refused(ViolationReason::NoChannel));
        };
        let word = epoch | kind;
        let tag = frame_tag(key, from as u64, word, seq, payload.len(), bound);
        let mut bytes = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        bytes.extend_from_slice(&word.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&tag);
        let frame = mf.monitor.machine.nic_send(core, to_id, bytes);
        mt.monitor
            .machine
            .nic_enqueue(frame)
            .map_err(|_| FleetError::QueueFull)?;
        Ok(seq)
    }

    /// Sends raw, unauthenticated bytes from `from`'s NIC to `to`'s
    /// queue, bypassing the channel layer — what a byzantine machine
    /// does. The receiver will reject it ([`ViolationReason::NoChannel`]
    /// or [`ViolationReason::BadMac`]) and quarantine `from`.
    pub fn send_raw(
        &mut self,
        from: usize,
        to: usize,
        core: usize,
        bytes: Vec<u8>,
    ) -> Result<(), FleetError> {
        let (mf, mt) = self.pair_mut(from, to)?;
        let frame = mf.monitor.machine.nic_send(core, to as u64, bytes);
        mt.monitor
            .machine
            .nic_enqueue(frame)
            .map_err(|_| FleetError::QueueFull)
    }

    /// Injects a raw NIC frame directly into machine `to`'s queue — the
    /// adversarial tests use this to model in-flight tampering beyond
    /// what the seeded NIC faults produce.
    pub fn inject(&mut self, to: usize, frame: Frame) -> Result<(), FleetError> {
        let mt = self.machines.get_mut(to).ok_or(FleetError::NoSuchMachine)?;
        mt.monitor
            .machine
            .nic_enqueue(frame)
            .map_err(|_| FleetError::QueueFull)
    }

    /// Polls machine `at`'s NIC from `core` and verifies the next frame
    /// through the channel: tag first, then the `ChannelTable`'s
    /// sequence/epoch judgment. `Ok(None)` on an empty queue; a
    /// rejection tears the channel down, destroys the peer's keys, and
    /// reports the exact frame index. Frames an RDMA receive already
    /// judged ([`Self::rdma_deliver`]) come out first, in arrival order.
    pub fn deliver(&mut self, at: usize, core: usize) -> Result<Option<Delivery>, FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        let outcome = match m.pending.pop_front() {
            Some(outcome) => outcome,
            None => {
                let Some(frame) = m.monitor.machine.nic_recv(core) else {
                    return Ok(None);
                };
                m.judge(frame.src, &frame.payload)
            }
        };
        outcome.map(Some).map_err(FleetError::Channel)
    }

    /// Drains machine `at`'s queue, collecting accepted deliveries and
    /// rejections (the pump keeps going after a violation: later frames
    /// on a torn-down channel are themselves violations, which is
    /// exactly what the sticky-quarantine property wants recorded).
    pub fn pump(&mut self, at: usize, core: usize) -> (Vec<Delivery>, Vec<Violation>) {
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        loop {
            match self.deliver(at, core) {
                Ok(Some(d)) => accepted.push(d),
                Ok(None) => break,
                Err(FleetError::Channel(v)) => rejected.push(v),
                Err(_) => break,
            }
        }
        (accepted, rejected)
    }

    /// Enters machine `at`'s TEE on `core` (subsequent
    /// [`Self::tee_write`] / RDMA reads run as the TEE).
    pub fn enter_tee(&mut self, at: usize, core: usize) -> Result<(), FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        let gate = m.gate;
        TycheClient::new(&mut m.monitor, core)
            .enter(gate)
            .map(|_| ())
            .map_err(FleetError::Monitor)
    }

    /// Returns from machine `at`'s TEE on `core`.
    pub fn exit_tee(&mut self, at: usize, core: usize) -> Result<(), FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        TycheClient::new(&mut m.monitor, core)
            .ret()
            .map(|_| ())
            .map_err(FleetError::Monitor)
    }

    /// Writes `data` at `addr` as the domain currently running on
    /// machine `at`'s `core` (enter the TEE first).
    pub fn tee_write(
        &mut self,
        at: usize,
        core: usize,
        addr: u64,
        data: &[u8],
    ) -> Result<(), FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        TycheClient::new(&mut m.monitor, core)
            .write(addr, data)
            .map_err(|_| FleetError::Monitor(Status::Denied))
    }

    /// Reads `out.len()` bytes at `addr` as the domain currently running
    /// on machine `at`'s `core`.
    pub fn tee_read(
        &mut self,
        at: usize,
        core: usize,
        addr: u64,
        out: &mut [u8],
    ) -> Result<(), FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        TycheClient::new(&mut m.monitor, core)
            .read(addr, out)
            .map_err(|_| FleetError::Monitor(Status::Denied))
    }

    /// Establishes an attested RDMA session from `a`'s TEE into an MR
    /// on `b`'s TEE ([`RDMA_MR`]), over the already-attested channel
    /// (`a → b` must be open). Runs the full RDMA handshake: fresh
    /// nonces, machine quotes, signed TEE reports, verified both ways.
    pub fn rdma_connect(&mut self, a: usize, b: usize) -> Result<RdmaSession, FleetError> {
        if !self
            .machines
            .get(a)
            .is_some_and(|m| m.channels.is_open(b as u64))
        {
            return Err(FleetError::Refused(ViolationReason::NoChannel));
        }
        let (ma, mb) = self.pair_mut(a, b)?;
        let qn = ma
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;
        let rn = ma
            .monitor
            .machine
            .tpm
            .fresh_nonce()
            .map_err(FleetError::Tpm)?;
        let quote_b = mb.monitor.machine_quote(qn).map_err(FleetError::Tpm)?;
        let report_b = mb
            .monitor
            .attest_domain(mb.tee, rn)
            .map_err(|_| FleetError::Monitor(Status::Denied))?;
        let report_a = ma
            .monitor
            .attest_domain(ma.tee, rn)
            .map_err(|_| FleetError::Monitor(Status::Denied))?;
        let verifier_of_b = MachineRoots::of(&mb.monitor).verifier(MONITOR_VERSION);
        let conn = RdmaConnection::establish(
            &verifier_of_b,
            &quote_b,
            &qn,
            &report_b,
            &rn,
            &report_a,
            None,
        )
        .map_err(|e| match e {
            RdmaError::Attestation(v) => FleetError::Attestation(v),
            other => FleetError::Rdma(other),
        })?;
        // b's TEE registers the MR (entered so the NIC validates the
        // right requesting domain).
        let mut nic = RdmaNic::new();
        let gate_b = mb.gate;
        TycheClient::new(&mut mb.monitor, 0)
            .enter(gate_b)
            .map_err(FleetError::Monitor)?;
        let rkey = nic
            .register_mr(&mut mb.monitor, 0, RDMA_MR.0, RDMA_MR.1, true)
            .map_err(FleetError::Rdma)?;
        TycheClient::new(&mut mb.monitor, 0)
            .ret()
            .map_err(FleetError::Monitor)?;
        Ok(RdmaSession { conn, nic, rkey })
    }

    /// One attested RDMA write routed over the fleet transport:
    /// [`Self::rdma_send`] then [`Self::rdma_deliver`].
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_write(
        &mut self,
        sess: &mut RdmaSession,
        a: usize,
        b: usize,
        core: usize,
        local_addr: u64,
        len: usize,
        remote_off: u64,
    ) -> Result<(), FleetError> {
        self.rdma_send(sess, a, b, core, local_addr, len)?;
        self.rdma_deliver(sess, a, b, core, remote_off)
    }

    /// Sender half of an attested RDMA write: `a`'s TEE produces the
    /// sealed RDMA frame from `len` bytes at `local_addr` (enter
    /// the TEE on `core` first), and the frame rides the NIC channel
    /// `a → b`. Returns the channel sequence number.
    pub fn rdma_send(
        &mut self,
        sess: &mut RdmaSession,
        a: usize,
        b: usize,
        core: usize,
        local_addr: u64,
        len: usize,
    ) -> Result<u64, FleetError> {
        let rdma_frame = {
            let ma = self.machines.get_mut(a).ok_or(FleetError::NoSuchMachine)?;
            sess.conn
                .produce_frame(&mut ma.monitor, core, local_addr, len)
                .map_err(FleetError::Rdma)?
        };
        self.send_kind(a, b, core, RDMA_KIND, &rdma_frame)
    }

    /// Receiver half of an attested RDMA write: polls `b`'s NIC on
    /// `core` until the RDMA frame from `a`, and lands it in the MR at
    /// `remote_off`. The frame is checked in this order: the channel tag
    /// over its header and the RDMA frame's seq and tag; the RDMA tag
    /// over the whole RDMA frame (a failure is the channel's BadMac, at
    /// this frame's index); the `ChannelTable`'s sequence/epoch
    /// judgment; then `b`'s RDMA NIC re-validates the MR and lands the
    /// bytes. Ordinary frames met on the way, and frames from other
    /// peers, are judged and kept, in order, for the next
    /// [`Self::deliver`] / [`Self::pump`]; a violation on the `a → b`
    /// channel ends the receive.
    pub fn rdma_deliver(
        &mut self,
        sess: &mut RdmaSession,
        a: usize,
        b: usize,
        core: usize,
        remote_off: u64,
    ) -> Result<(), FleetError> {
        let mb = self.machines.get_mut(b).ok_or(FleetError::NoSuchMachine)?;
        let src = a as u64;
        loop {
            let Some(frame) = mb.monitor.machine.nic_recv(core) else {
                return Err(FleetError::Refused(ViolationReason::NoChannel));
            };
            let claims_rdma =
                split_frame(&frame.payload).is_some_and(|(word, ..)| word & RDMA_KIND != 0);
            if frame.src != src || !claims_rdma {
                match mb.judge(frame.src, &frame.payload) {
                    Err(v) if frame.src == src => return Err(FleetError::Channel(v)),
                    outcome => mb.pending.push_back(outcome),
                }
                continue;
            }
            let checked = mb.authenticate(src, &frame.payload, RDMA_KIND).and_then(
                |(epoch, seq, payload)| {
                    let checked = sess
                        .conn
                        .check_frame(payload)
                        .map_err(|_| mb.channels.reject(src, ViolationReason::BadMac))?;
                    mb.channels.accept_recv(src, seq, epoch)?;
                    Ok(checked)
                },
            );
            let checked = mb.count(src, checked).map_err(FleetError::Channel)?;
            return sess
                .conn
                .land_frame(checked, &mut mb.monitor, &sess.nic, sess.rkey, remote_off)
                .map_err(FleetError::Rdma);
        }
    }
}

/// Spawns one sealed TEE owning [`TEE_MEM`] on a freshly booted
/// monitor, sharing core 0 so it can be entered, and returns the
/// domain and its gate. Mirrors the bench fixture used everywhere.
fn spawn_tee(m: &mut Monitor) -> Result<(DomainId, CapId), FleetError> {
    let mut client = TycheClient::new(m, 0);
    let (d, gate) = client.create_domain().map_err(FleetError::Monitor)?;
    let cap = client
        .carve(TEE_MEM.0, TEE_MEM.1)
        .map_err(FleetError::Monitor)?;
    client
        .grant(cap, d, Rights::RW, RevocationPolicy::OBFUSCATE)
        .map_err(FleetError::Monitor)?;
    let me = client.whoami();
    let core0 = client
        .monitor
        .engine
        .caps_of(me)
        .iter()
        .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
        .map(|c| c.id)
        .ok_or(FleetError::Monitor(Status::Denied))?;
    client
        .share(core0, d, None, Rights::USE, RevocationPolicy::NONE)
        .map_err(FleetError::Monitor)?;
    client
        .set_entry(d, TEE_MEM.0)
        .map_err(FleetError::Monitor)?;
    client
        .seal(d, SealPolicy::strict())
        .map_err(FleetError::Monitor)?;
    Ok((d, gate))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> Fleet {
        let mut f = Fleet::new(&FleetConfig::default()).unwrap();
        assert_eq!(f.establish_all(), 1);
        f
    }

    #[test]
    fn machines_have_independent_roots_of_trust() {
        let mut f = Fleet::new(&FleetConfig {
            machines: 3,
            ..FleetConfig::default()
        })
        .unwrap();
        // Distinct TPM seeds → distinct attestation keys; identical
        // seeds would make "mutual" attestation a self-signature. A
        // quote from machine 0 must not verify under machine 1's key.
        let nonce = [7u8; 32];
        let q0 = f
            .machine_mut(0)
            .unwrap()
            .monitor
            .machine_quote(nonce)
            .unwrap();
        let k0 = f.machine(0).unwrap().monitor.machine.tpm.attestation_key();
        let k1 = f.machine(1).unwrap().monitor.machine.tpm.attestation_key();
        assert!(q0.verify(&k0, &nonce));
        assert!(!q0.verify(&k1, &nonce));
    }

    #[test]
    fn attested_channel_round_trip() {
        let mut f = two();
        let seq = f.send(0, 1, 0, b"hello fleet").unwrap();
        assert_eq!(seq, 0);
        let d = f.deliver(1, 0).unwrap().unwrap();
        assert_eq!(d.from, 0);
        assert_eq!(d.payload, b"hello fleet");
        assert_eq!(f.machine(1).unwrap().stats().accepted, 1);
    }

    #[test]
    fn byzantine_machine_never_gets_a_channel() {
        let mut f = Fleet::new(&FleetConfig {
            machines: 3,
            byzantine: Some(2),
            ..FleetConfig::default()
        })
        .unwrap();
        // Only the honest pair (0,1) comes up.
        assert_eq!(f.establish_all(), 1);
        assert!(f.machine(0).unwrap().channels.is_open(1));
        assert!(!f.machine(0).unwrap().channels.is_open(2));
        assert!(f.machine(0).unwrap().channels.is_quarantined(2));
        assert!(f.machine(1).unwrap().channels.is_quarantined(2));
        // And the honest pair still works.
        f.send(0, 1, 0, b"containment").unwrap();
        assert!(f.deliver(1, 0).unwrap().is_some());
    }

    #[test]
    fn forged_quote_is_rejected() {
        let mut f = Fleet::new(&FleetConfig::default()).unwrap();
        // b tampers its quote to claim an arbitrary PCR 17: the TPM
        // signature no longer verifies.
        let err = f
            .attest_pair_with(0, 1, |q| {
                if let Some(v) = q.pcr_values.first_mut() {
                    *v = tyche_crypto::hash(b"forged");
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            FleetError::Attestation(VerifyError::BadQuote)
        ));
        assert!(f.machine(0).unwrap().channels.is_quarantined(1));
        // The quarantine is sticky: even an honest retry is refused.
        assert!(f.attest_pair(0, 1).is_err());
    }

    #[test]
    fn rekey_bumps_epoch_and_old_frames_go_stale() {
        let mut f = two();
        assert_eq!(f.machine(0).unwrap().channels.epoch(1), 1);
        f.attest_pair(0, 1).unwrap();
        assert_eq!(f.machine(0).unwrap().channels.epoch(1), 2);
        f.send(0, 1, 0, b"fresh").unwrap();
        let d = f.deliver(1, 0).unwrap().unwrap();
        assert_eq!(d.payload, b"fresh");
    }

    #[test]
    fn rdma_over_the_fleet_transport() {
        let mut f = two();
        let mut sess = f.rdma_connect(0, 1).unwrap();
        f.enter_tee(0, 0).unwrap();
        f.tee_write(0, 0, TEE_MEM.0 + 0x100, b"fleet rdma secret")
            .unwrap();
        f.rdma_write(&mut sess, 0, 1, 0, TEE_MEM.0 + 0x100, 17, 0)
            .unwrap();
        f.exit_tee(0, 0).unwrap();
        f.enter_tee(1, 0).unwrap();
        let mut got = [0u8; 17];
        f.tee_read(1, 0, RDMA_MR.0, &mut got).unwrap();
        assert_eq!(&got, b"fleet rdma secret");
        f.exit_tee(1, 0).unwrap();
    }

    #[test]
    fn frame_tag_is_pinned() {
        // Channel frame tags for a fixed key and header: the wire format
        // (nonce, transcript layout and AEAD) must never drift. The
        // expected tags follow RFC 8439 §2.8 with an empty plaintext:
        // ChaCha20 block 0 at nonce `src_le32 ‖ seq_le` keys Poly1305
        // over the hand-assembled transcript `src ‖ word ‖ seq ‖ len`
        // (8-byte little-endian each) then the bound bytes, zero padding
        // to 16, and the lengths block.
        let key = [0x11u8; 32];
        let (src, epoch, seq) = (2u64, 3u64, 9u64);
        let le = |v: u64| v.to_le_bytes();
        let rfc_tag = |transcript: &[u8]| {
            let nonce = [&2u32.to_le_bytes()[..], &le(seq)].concat();
            let block0 = tyche_crypto::chacha::block(&key, 0, &nonce.try_into().unwrap());
            let mut mac_data = transcript.to_vec();
            mac_data.resize(transcript.len().div_ceil(16) * 16, 0);
            mac_data.extend_from_slice(&le(transcript.len() as u64));
            mac_data.extend_from_slice(&le(0));
            libtyche::poly1305::Poly1305::mac(&block0[..32].try_into().unwrap(), &mac_data)
        };

        let payload = b"fleet frame payload";
        let mut transcript = [le(src), le(epoch), le(seq), le(19)].concat();
        transcript.extend_from_slice(payload);
        let tag = frame_tag(&key, src, epoch, seq, payload.len(), [payload, &[]]);
        assert_eq!(tag, rfc_tag(&transcript));
        assert_eq!(hex(&tag), "3df6952627a65c7d25e419659a3b484f");

        // An RDMA-kind frame binds the RDMA frame's length, seq and tag,
        // not its ciphertext: here a 124-byte RDMA frame (`seq_le ‖ 100
        // bytes ‖ tag`), the pinned one from `libtyche::rdma`'s tests.
        let rdma_frame = hex_bytes(
            "07000000000000000978b4cc8b7513cf371938a15773a7f6cd6b416a1ec8b955\
             555396e7033d9ebaec9248332c7cff0732d954606224453c0c3abafbd83f7688\
             38da00fd40b1cae49c768c9e445a351a1d0015fb473a35abb6413219f10474ff\
             494985cd4fcf8bf89e979484285a5f769a65d0ec048c0ee23d0d9cba",
        );
        let word = epoch | RDMA_KIND;
        let mut transcript = [le(src), le(word), le(seq), le(124)].concat();
        transcript.extend_from_slice(&rdma_frame[..8]);
        transcript.extend_from_slice(&rdma_frame[108..]);
        let bound = bound_bytes(word, &rdma_frame).unwrap();
        let tag = frame_tag(&key, src, word, seq, rdma_frame.len(), bound);
        assert_eq!(tag, rfc_tag(&transcript));
        assert_eq!(hex(&tag), "86e52d701555218075591909c421b61f");
        // The ciphertext is not in the channel transcript; the kind is.
        let mut flipped = rdma_frame.clone();
        flipped[50] ^= 1;
        let bound = bound_bytes(word, &flipped).unwrap();
        assert_eq!(frame_tag(&key, src, word, seq, 124, bound), tag);
        let bound = bound_bytes(epoch, &rdma_frame).unwrap();
        assert_ne!(frame_tag(&key, src, epoch, seq, 124, bound), tag);
    }

    #[test]
    fn frame_nonces_differ_by_direction() {
        // Both ends of a channel hold the same key and both count from
        // seq 0, so A→B and B→A frames at one epoch and seq differ only
        // in the sender's id. It must reach the nonce, or the two
        // frames would share a Poly1305 one-time key.
        let mut f = two();
        let key = f.machines[0].keys[&1][&1];
        assert_eq!(f.machines[1].keys[&0][&1], key);
        assert_eq!(f.send(0, 1, 0, b"same").unwrap(), 0);
        assert_eq!(f.send(1, 0, 0, b"same").unwrap(), 0);
        let one_time_key =
            |src: u64, seq: u64| tyche_crypto::chacha::block(&key, 0, &frame_nonce(src, seq));
        for seq in [0, 1, u64::MAX] {
            assert_ne!(one_time_key(0, seq), one_time_key(1, seq), "seq {seq}");
        }
        // The same holds at the ends of the id range.
        assert_ne!(one_time_key(0, 5), one_time_key(u64::from(u32::MAX), 5));
        assert!(f.deliver(1, 0).unwrap().is_some());
        assert!(f.deliver(0, 0).unwrap().is_some());
    }

    #[test]
    fn fleet_beyond_32_bit_machine_ids_is_refused() {
        // Checked before anything boots, so no machine is built here.
        let config = FleetConfig {
            machines: (1 << 32) + 1,
            ..FleetConfig::default()
        };
        assert!(matches!(
            Fleet::new(&config),
            Err(FleetError::NoSuchMachine)
        ));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn hex_bytes(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn teardown_destroys_the_peers_keyed_state() {
        let mut f = two();
        assert!(f.machines[1].keys.contains_key(&0));
        // A forged frame from 0 tears the channel down at 1.
        f.send_raw(0, 1, 0, vec![0u8; FRAME_OVERHEAD + 4]).unwrap();
        assert!(matches!(f.deliver(1, 0), Err(FleetError::Channel(_))));
        assert!(!f.machines[1].keys.contains_key(&0));
        // Nothing keyed is left to send with.
        assert!(f.send(1, 0, 0, b"after teardown").is_err());
    }

    #[test]
    fn fleet_construction_is_deterministic() {
        let build = |seed| {
            let mut f = Fleet::new(&FleetConfig {
                machines: 3,
                seed,
                ..FleetConfig::default()
            })
            .unwrap();
            f.establish_all();
            f.send(0, 1, 0, b"det").unwrap();
            f.send(1, 2, 0, b"det2").unwrap();
            let d1 = f.deliver(1, 0).unwrap().unwrap();
            let d2 = f.deliver(2, 0).unwrap().unwrap();
            (d1, d2)
        };
        assert_eq!(build(7), build(7));
    }
}
