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
//! nonces, and the key epoch. Every subsequent frame carries a
//! monotonic sequence number and an HMAC over
//! `(src, epoch, seq, payload)`; the receiving TCB's `ChannelTable`
//! (`tyche-core::channel`) is the single accept/reject authority, and
//! any violation — bad MAC, replay, reorder, truncation, stale epoch —
//! tears the channel down at an exact frame index and quarantines the
//! peer for good.
//!
//! The `libtyche` RDMA scenario composes on top: [`Fleet::rdma_connect`]
//! runs the RDMA attestation handshake over an already-attested channel
//! and [`Fleet::rdma_write`] routes the encrypted RDMA frames through
//! the NIC transport instead of an abstract wire, making it a real
//! two-machine attested workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use libtyche::rdma::{RKey, RdmaError, RdmaNic};
use libtyche::{RdmaConnection, TycheClient};
use tyche_core::channel::{ChannelTable, Violation, ViolationReason};
use tyche_core::prelude::*;
use tyche_core::SealPolicy;
use tyche_crypto::{hkdf, Digest, HmacSha256};
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

/// Channel frame overhead: epoch (8) + seq (8) + HMAC tag (32).
pub const FRAME_OVERHEAD: usize = 48;

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
    /// A machine index was out of range (or `from == to`).
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
    /// The TCB channel state for this machine.
    pub channels: ChannelTable,
    /// The sealed TEE domain backing this machine's attestations.
    pub tee: DomainId,
    /// The transition gate into the TEE.
    pub gate: CapId,
    /// Channel keys by peer, then by epoch. At most the current and the
    /// previous epoch are retained (the one-epoch grace window lets a
    /// stale-epoch frame be *diagnosed* as stale rather than merely
    /// unauthentic); retired keys are never used to accept frames, and
    /// a teardown destroys every epoch for the peer. Each key is held as
    /// its keyed HMAC state, so a frame's MAC does not re-absorb the key
    /// pads.
    keys: BTreeMap<u64, BTreeMap<u64, HmacSha256>>,
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
        epochs.insert(epoch, HmacSha256::new(&key));
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

/// MAC transcript for one channel frame.
fn frame_tag(key: &HmacSha256, src: u64, epoch: u64, seq: u64, payload: &[u8]) -> Digest {
    key.tag_parts(&[
        &src.to_le_bytes(),
        &epoch.to_le_bytes(),
        &seq.to_le_bytes(),
        payload,
    ])
}

impl Fleet {
    /// Boots `config.machines` independent machines, each with a
    /// distinct TPM seed, its own monitor (the byzantine one boots
    /// [`EVIL_VERSION`]), and one sealed TEE owning [`TEE_MEM`].
    ///
    /// No channels exist yet; call [`Self::attest_pair`] or
    /// [`Self::establish_all`].
    pub fn new(config: &FleetConfig) -> Result<Fleet, FleetError> {
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
        let qn_a = mb.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;
        let rn_a = mb.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;
        let qn_b = ma.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;
        let rn_b = ma.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;

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
    /// attested channel: reserves the next sequence number, MACs
    /// `(src, epoch, seq, payload)`, and hands the frame to the NICs
    /// (charging send cycles to `core` on the sending machine).
    /// Returns the frame's sequence number.
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        core: usize,
        payload: &[u8],
    ) -> Result<u64, FleetError> {
        let (mf, mt) = self.pair_mut(from, to)?;
        let to_id = to as u64;
        let (seq, epoch) = mf.channels.note_send(to_id).map_err(FleetError::Refused)?;
        let Some(key) = mf.keys.get(&to_id).and_then(|e| e.get(&epoch)) else {
            return Err(FleetError::Refused(ViolationReason::NoChannel));
        };
        let tag = frame_tag(key, from as u64, epoch, seq, payload);
        let mut bytes = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(tag.as_bytes());
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
    /// through the channel: MAC first, then the `ChannelTable`'s
    /// sequence/epoch judgment. `Ok(None)` on an empty queue; a
    /// rejection tears the channel down, destroys the peer's keys, and
    /// reports the exact frame index.
    pub fn deliver(&mut self, at: usize, core: usize) -> Result<Option<Delivery>, FleetError> {
        let m = self.machines.get_mut(at).ok_or(FleetError::NoSuchMachine)?;
        let Some(frame) = m.monitor.machine.nic_recv(core) else {
            return Ok(None);
        };
        // Attribution comes from the trusted NIC's link header; the MAC
        // transcript binds the same id, so a forged id dies as BadMac.
        let src = frame.src;
        match Self::verify_frame(m, src, &frame.payload) {
            Ok(d) => {
                m.accepted += 1;
                Ok(Some(d))
            }
            Err(v) => {
                let v = m.violated(src, v);
                Err(FleetError::Channel(v))
            }
        }
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

    fn verify_frame(m: &mut FleetMachine, src: u64, bytes: &[u8]) -> Result<Delivery, Violation> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(m.channels.reject(src, ViolationReason::Truncated));
        }
        let (body, tag) = bytes.split_at(bytes.len() - 32);
        let mut word = [0u8; 8];
        let Some(epoch_bytes) = body.get(..8) else {
            return Err(m.channels.reject(src, ViolationReason::Truncated));
        };
        word.copy_from_slice(epoch_bytes);
        let epoch = u64::from_le_bytes(word);
        let Some(seq_bytes) = body.get(8..16) else {
            return Err(m.channels.reject(src, ViolationReason::Truncated));
        };
        word.copy_from_slice(seq_bytes);
        let seq = u64::from_le_bytes(word);
        let payload = body.get(16..).unwrap_or(&[]);
        // Key lookup by the frame's *claimed* epoch: a frame under a
        // retired (grace-window) epoch authenticates against its old
        // key so it can be diagnosed as StaleEpoch by the table rather
        // than dying as an anonymous BadMac; an unknown epoch has no
        // key and is judged directly.
        let current = m.channels.epoch(src);
        let Some(key) = m.keys.get(&src).and_then(|e| e.get(&epoch)) else {
            let reason = if epoch != current && current != 0 {
                ViolationReason::StaleEpoch
            } else {
                ViolationReason::NoChannel
            };
            return Err(m.channels.reject(src, reason));
        };
        let expected = frame_tag(key, src, epoch, seq, payload);
        if !tyche_crypto::ct::eq(expected.as_bytes(), tag) {
            return Err(m.channels.reject(src, ViolationReason::BadMac));
        }
        let seq = m.channels.accept_recv(src, seq, epoch)?;
        Ok(Delivery {
            from: src,
            seq,
            payload: payload.to_vec(),
        })
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
        let qn = ma.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;
        let rn = ma.monitor.machine.tpm.fresh_nonce().map_err(FleetError::Tpm)?;
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

    /// One attested RDMA write routed over the fleet transport: `a`'s
    /// TEE produces the encrypted+MACed RDMA frame (enter the TEE on
    /// `core` first), the frame rides the NIC channel `a → b`, and on
    /// delivery `b`'s RDMA NIC re-validates the MR and lands the bytes.
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
        let rdma_frame = {
            let ma = self.machines.get_mut(a).ok_or(FleetError::NoSuchMachine)?;
            sess.conn
                .produce_frame(&mut ma.monitor, core, local_addr, len)
                .map_err(FleetError::Rdma)?
        };
        self.send(a, b, core, &rdma_frame)?;
        let delivery = loop {
            match self.deliver(b, core)? {
                Some(d) if d.from == a as u64 => break d,
                Some(_) => continue,
                None => return Err(FleetError::Refused(ViolationReason::NoChannel)),
            }
        };
        let mb = self.machines.get_mut(b).ok_or(FleetError::NoSuchMachine)?;
        sess.conn
            .deliver_frame(&delivery.payload, &mut mb.monitor, &sess.nic, sess.rkey, remote_off)
            .map_err(FleetError::Rdma)
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
    client.set_entry(d, TEE_MEM.0).map_err(FleetError::Monitor)?;
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
        f.tee_write(0, 0, TEE_MEM.0 + 0x100, b"fleet rdma secret").unwrap();
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
        // One channel frame tag for a fixed key and header: the wire
        // format (transcript layout and MAC) must never drift.
        let key = HmacSha256::new(&[0x11; 32]);
        assert_eq!(
            frame_tag(&key, 2, 3, 9, b"fleet frame payload").to_hex(),
            "20bcce0d14bf1b0fcf3ecbfffbca4880d455035444eecd9790a84f158e0ba5e0"
        );
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
