//! The adversarial cross-machine suite: every frame-tamper class dies
//! at the receiving channel with the exact frame index recorded, and a
//! byzantine machine never gets a channel in the first place.
//!
//! Each tamper case is pinned from both sides: the conforming flow is
//! accepted first (so a rejection can't be hiding a broken happy path),
//! then the seeded violation is asserted by reason *and* frame index,
//! and the teardown's consequences (sticky quarantine, refused sends)
//! are checked. The replay test at the bottom pins the whole transport:
//! a seeded 3-machine fleet under injected NIC drop/dup faults run
//! twice produces bit-identical per-machine trace chains and equal
//! engine states.
//!
//! The attested-RDMA cases at the end tamper with a frame produced by
//! `rdma_send` and check that `rdma_deliver` rejects it at the exact
//! frame index, leaves the remote memory region unchanged, and tears
//! the channel down.

use libtyche::rdma;
use tyche_core::channel::ViolationReason;
use tyche_crypto::{hash, Digest};
use tyche_fleet::{Fleet, FleetConfig, FleetError, RdmaSession, FRAME_OVERHEAD, TEE_MEM};
use tyche_hw::faults::{FaultPlan, FaultSite};
use tyche_hw::nic::Frame;
use tyche_monitor::attest::VerifyError;

/// A two-machine fleet with the 0↔1 channel up.
fn pair_fleet(seed: u64) -> Fleet {
    let mut fleet = Fleet::new(&FleetConfig {
        machines: 2,
        seed,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    assert_eq!(fleet.establish_all(), 1);
    fleet
}

/// Pulls the next raw frame out of machine `at`'s NIC queue — the
/// tamper tests' stand-in for an attacker with link access.
fn intercept(fleet: &mut Fleet, at: usize) -> Frame {
    fleet
        .machine_mut(at)
        .expect("machine")
        .monitor
        .machine
        .nic_recv(0)
        .expect("a frame in flight")
}

/// Asserts `res` is a channel violation with exactly `reason` at
/// exactly `frame_index`.
#[track_caller]
fn assert_violation<T: std::fmt::Debug>(
    res: Result<T, FleetError>,
    reason: ViolationReason,
    frame_index: u64,
) {
    match res {
        Err(FleetError::Channel(v)) => {
            assert_eq!(v.reason, reason);
            assert_eq!(v.frame_index, frame_index);
        }
        other => panic!("expected {reason} violation, got {other:?}"),
    }
}

#[test]
fn flipped_mac_byte_is_rejected_at_the_exact_frame() {
    let mut fleet = pair_fleet(101);
    // Conforming side: two clean frames land with ascending sequences.
    for seq in 0..2u64 {
        assert_eq!(fleet.send(0, 1, 0, b"clean").unwrap(), seq);
        let d = fleet.deliver(1, 0).unwrap().expect("delivery");
        assert_eq!((d.from, d.seq), (0, seq));
    }
    // Violation side: flip one MAC byte of the third frame in flight.
    fleet.send(0, 1, 0, b"tampered").unwrap();
    let mut frame = intercept(&mut fleet, 1);
    *frame.payload.last_mut().unwrap() ^= 0x01;
    fleet.inject(1, frame).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::BadMac, 2);
    // Teardown is sticky: the peer is quarantined and the next clean
    // frame from it is itself a violation at the next index.
    assert!(fleet.machine(1).unwrap().channels.is_quarantined(0));
    fleet.send(0, 1, 0, b"after").unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::NoChannel, 3);
}

#[test]
fn replayed_frame_is_rejected_at_the_exact_frame() {
    let mut fleet = pair_fleet(102);
    fleet.send(0, 1, 0, b"once").unwrap();
    let frame = intercept(&mut fleet, 1);
    // Conforming side: the original frame is accepted.
    fleet.inject(1, frame.clone()).unwrap();
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("delivery").seq, 0);
    // Violation side: the identical frame again is a replay.
    fleet.inject(1, frame).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::Replay, 1);
    assert!(fleet.machine(1).unwrap().channels.is_quarantined(0));
}

#[test]
fn reordered_sequence_is_rejected_at_the_exact_frame() {
    let mut fleet = pair_fleet(103);
    // Conforming side: in-order delivery of two frames.
    fleet.send(0, 1, 0, b"s0").unwrap();
    fleet.send(0, 1, 0, b"s1").unwrap();
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("s0").seq, 0);
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("s1").seq, 1);
    // Violation side: swap the next two frames on the link. The
    // higher sequence arrives first — a gap, rejected immediately.
    fleet.send(0, 1, 0, b"s2").unwrap();
    fleet.send(0, 1, 0, b"s3").unwrap();
    let f2 = intercept(&mut fleet, 1);
    let f3 = intercept(&mut fleet, 1);
    fleet.inject(1, f3).unwrap();
    fleet.inject(1, f2).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::Reorder, 2);
    // The in-order original behind it is now traffic on a torn-down
    // channel, counted at the next index.
    assert_violation(fleet.deliver(1, 0), ViolationReason::NoChannel, 3);
}

#[test]
fn truncated_payload_is_rejected_at_the_exact_frame() {
    let mut fleet = pair_fleet(104);
    // Conforming side: a full-size frame lands.
    fleet.send(0, 1, 0, b"whole").unwrap();
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("delivery").seq, 0);
    // Violation side: cut the frame below the header+tag minimum.
    fleet.send(0, 1, 0, b"cut me").unwrap();
    let mut frame = intercept(&mut fleet, 1);
    frame.payload.truncate(FRAME_OVERHEAD - 1);
    fleet.inject(1, frame).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::Truncated, 1);
    assert!(fleet.machine(1).unwrap().channels.is_quarantined(0));
}

#[test]
fn stale_epoch_frame_is_rejected_after_reattestation() {
    let mut fleet = pair_fleet(105);
    // Conforming side, epoch 1: one clean delivery.
    fleet.send(0, 1, 0, b"epoch1").unwrap();
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("delivery").seq, 0);
    // Capture an epoch-1 frame in flight, then re-key the pair.
    fleet.send(0, 1, 0, b"held back").unwrap();
    let stale = intercept(&mut fleet, 1);
    fleet.attest_pair(0, 1).expect("re-attestation");
    assert_eq!(fleet.machine(1).unwrap().channels.epoch(0), 2);
    // Conforming side, epoch 2: sequences restarted, frames land.
    assert_eq!(fleet.send(0, 1, 0, b"epoch2").unwrap(), 0);
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("delivery").seq, 0);
    // Violation side: the held-back epoch-1 frame is stale — its MAC
    // still verifies under the retained old key, so the rejection is
    // diagnosed as a stale epoch, not a forgery.
    fleet.inject(1, stale).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::StaleEpoch, 2);
}

#[test]
fn byzantine_monitor_never_gets_a_channel() {
    let mut fleet = Fleet::new(&FleetConfig {
        machines: 3,
        seed: 106,
        byzantine: Some(2),
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    // Only the honest pair comes up; both honest machines quarantine
    // the byzantine one during the failed handshakes.
    assert_eq!(fleet.establish_all(), 1);
    for honest in [0usize, 1] {
        assert!(fleet.machine(honest).unwrap().channels.is_quarantined(2));
        match fleet.send(honest, 2, 0, b"no") {
            Err(FleetError::Refused(ViolationReason::NoChannel)) => {}
            other => panic!("send to byzantine peer: {other:?}"),
        }
    }
    // The honest channel still works.
    fleet.send(0, 1, 0, b"healthy").unwrap();
    assert_eq!(fleet.deliver(1, 0).unwrap().expect("delivery").seq, 0);
    // Raw byzantine spray is rejected and counted, never accepted.
    fleet.send_raw(2, 0, 0, vec![0xbb; 72]).unwrap();
    let (accepted, rejected) = fleet.pump(0, 0);
    assert!(accepted.is_empty());
    assert_eq!(rejected.len(), 1);
}

#[test]
fn forged_quote_fails_verification_and_quarantines_forever() {
    let mut fleet = pair_fleet(107);
    // Tear the channel state back down via a forged re-attestation:
    // machine 1 presents a quote whose PCR has been rewritten.
    let res = fleet.attest_pair_with(0, 1, |q| {
        q.pcr_values[0] = hash(b"forged measurement");
    });
    match res {
        Err(FleetError::Attestation(VerifyError::BadQuote)) => {}
        other => panic!("forged quote: {other:?}"),
    }
    assert!(fleet.machine(0).unwrap().channels.is_quarantined(1));
    // Quarantine is sticky: even an honest retry is refused.
    match fleet.attest_pair(0, 1) {
        Err(FleetError::Refused(ViolationReason::NoChannel)) => {}
        other => panic!("post-forgery retry: {other:?}"),
    }
}

/// One deterministic fleet run: 3 machines, traced, NIC drop and dup
/// faults armed on the receiving side, a fixed 18-request schedule over
/// the ordered pairs. Returns each machine's trace chain, engine state,
/// and violation count.
fn seeded_run(seed: u64) -> (Vec<Digest>, Vec<tyche_core::engine::CapEngine>, u64) {
    let mut fleet = Fleet::new(&FleetConfig {
        machines: 3,
        seed,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    fleet.enable_tracing();
    for (m, site, skip) in [(1usize, FaultSite::NicDrop, 2), (2, FaultSite::NicDup, 5)] {
        fleet
            .machine_mut(m)
            .unwrap()
            .monitor
            .machine
            .faults
            .arm(FaultPlan::after(site, skip, 1));
    }
    assert_eq!(fleet.establish_all(), 3);
    let pairs = [(0usize, 1usize), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)];
    let mut violations = 0u64;
    for step in 0..18usize {
        let (a, b) = pairs[step % pairs.len()];
        let _ = fleet.send(a, b, step % 2, &[seed as u8, step as u8]);
        let (_, rejected) = fleet.pump(b, step % 2);
        violations += rejected.len() as u64;
    }
    let mut chains = Vec::new();
    let mut engines = Vec::new();
    for i in 0..fleet.len() {
        let m = fleet.machine(i).unwrap();
        chains.push(m.monitor.trace().drain().chain());
        engines.push(m.monitor.engine.clone());
    }
    (chains, engines, violations)
}

#[test]
fn faulted_fleet_replays_bit_identically() {
    let (chains_a, engines_a, violations_a) = seeded_run(0xf1ee7);
    let (chains_b, engines_b, violations_b) = seeded_run(0xf1ee7);
    // The faults actually bit: at least the dropped frame's sequence
    // gap surfaced as a violation.
    assert!(violations_a > 0, "armed NIC faults must cause violations");
    assert_eq!(violations_a, violations_b);
    // Bit-identical trace chains and equal engine states, per machine.
    // (A different seed changes the key material but not the event
    // structure — traces record peers, sequences, and epochs, never
    // secrets, so the chains are a pure function of the schedule.)
    assert_eq!(chains_a, chains_b);
    assert_eq!(engines_a, engines_b);
}

/// Where machine 0's TEE stages an outgoing RDMA payload (inside its
/// TEE memory, outside the registered MR).
const RDMA_SRC: u64 = TEE_MEM.0 + 0x2000;

/// The payload of the clean RDMA write every tamper case starts with.
const CLEAN: &[u8] = b"clean rdma write";

/// Machine 0's TEE stages `data` and sends it to machine 1 as an RDMA
/// frame; returns the channel sequence number.
fn stage_and_send(fleet: &mut Fleet, sess: &mut RdmaSession, data: &[u8]) -> u64 {
    fleet.enter_tee(0, 0).unwrap();
    fleet.tee_write(0, 0, RDMA_SRC, data).unwrap();
    let seq = fleet
        .rdma_send(sess, 0, 1, 0, RDMA_SRC, data.len())
        .unwrap();
    fleet.exit_tee(0, 0).unwrap();
    seq
}

/// Machine 1's MR contents, read as its TEE.
fn read_mr(fleet: &mut Fleet, len: usize) -> Vec<u8> {
    let mut got = vec![0u8; len];
    fleet.enter_tee(1, 0).unwrap();
    fleet
        .tee_read(1, 0, tyche_fleet::RDMA_MR.0, &mut got)
        .unwrap();
    fleet.exit_tee(1, 0).unwrap();
    got
}

/// A pair fleet with an RDMA session 0 → 1 whose first write (frame 0
/// on the channel) landed cleanly.
fn rdma_fleet(seed: u64) -> (Fleet, RdmaSession) {
    let mut fleet = pair_fleet(seed);
    let mut sess = fleet.rdma_connect(0, 1).unwrap();
    assert_eq!(stage_and_send(&mut fleet, &mut sess, CLEAN), 0);
    fleet.rdma_deliver(&mut sess, 0, 1, 0, 0).unwrap();
    assert_eq!(read_mr(&mut fleet, CLEAN.len()), CLEAN);
    (fleet, sess)
}

/// Asserts the aftermath of a rejected frame 1: the MR still holds the
/// clean write, machine 1 tore the channel to 0 down and quarantined
/// it, and nothing is left over for a plain receive.
#[track_caller]
fn assert_torn_down_and_intact(fleet: &mut Fleet) {
    assert_eq!(read_mr(fleet, CLEAN.len()), CLEAN, "MR changed");
    let channels = &fleet.machine(1).unwrap().channels;
    assert!(!channels.is_open(0));
    assert!(channels.is_quarantined(0));
    assert!(matches!(fleet.deliver(1, 0), Ok(None)));
}

/// One RDMA tamper case: after a clean write (frame 0), `tamper` edits
/// the next RDMA write's channel frame in flight, and `rdma_deliver`
/// must reject it with `reason` at frame 1. The bytes `tamper` sees are
/// the channel epoch word (0..8) and seq (8..16), then the RDMA frame —
/// its seq (16..24), ciphertext, and TEE-pair tag — then the channel
/// tag, [`CHANNEL_TAG`] bytes.
/// Bytes in the channel tag at the end of a channel frame.
const CHANNEL_TAG: usize = FRAME_OVERHEAD - 16;

fn rdma_tamper_case(seed: u64, tamper: impl FnOnce(&mut Vec<u8>), reason: ViolationReason) {
    let (mut fleet, mut sess) = rdma_fleet(seed);
    stage_and_send(&mut fleet, &mut sess, b"tampered payload");
    let mut frame = intercept(&mut fleet, 1);
    tamper(&mut frame.payload);
    fleet.inject(1, frame).unwrap();
    assert_violation(fleet.rdma_deliver(&mut sess, 0, 1, 0, 0), reason, 1);
    assert_torn_down_and_intact(&mut fleet);
}

#[test]
fn rdma_ciphertext_flip_is_rejected_at_the_exact_frame() {
    rdma_tamper_case(201, |p| p[24] ^= 0x01, ViolationReason::BadMac);
    rdma_tamper_case(
        202,
        |p| {
            let last_ct = p.len() - CHANNEL_TAG - rdma::TAG_LEN - 1;
            p[last_ct] ^= 0x80;
        },
        ViolationReason::BadMac,
    );
}

#[test]
fn rdma_seq_flip_is_rejected_at_the_exact_frame() {
    rdma_tamper_case(203, |p| p[16] ^= 0x01, ViolationReason::BadMac);
}

#[test]
fn rdma_tag_flip_is_rejected_at_the_exact_frame() {
    rdma_tamper_case(
        204,
        |p| {
            let rdma_tag = p.len() - CHANNEL_TAG - rdma::TAG_LEN;
            p[rdma_tag] ^= 0x01;
        },
        ViolationReason::BadMac,
    );
}

#[test]
fn rdma_channel_header_and_tag_flips_are_rejected_at_the_exact_frame() {
    // Epoch 1 read as 0: a frame from no epoch this receiver holds a
    // key for, diagnosed as stale.
    rdma_tamper_case(205, |p| p[0] ^= 0x01, ViolationReason::StaleEpoch);
    rdma_tamper_case(206, |p| p[8] ^= 0x01, ViolationReason::BadMac);
    rdma_tamper_case(
        207,
        |p| *p.last_mut().unwrap() ^= 0x01,
        ViolationReason::BadMac,
    );
}

#[test]
fn truncated_rdma_frame_is_rejected_at_the_exact_frame() {
    // One byte short: the channel tag no longer lines up.
    rdma_tamper_case(208, |p| p.truncate(p.len() - 1), ViolationReason::BadMac);
    // Cut inside the RDMA frame, leaving less than its seq and tag.
    rdma_tamper_case(
        209,
        |p| p.truncate(FRAME_OVERHEAD + rdma::FRAME_OVERHEAD - 4),
        ViolationReason::BadMac,
    );
    // Below the channel header + tag minimum.
    rdma_tamper_case(
        210,
        |p| p.truncate(FRAME_OVERHEAD - 1),
        ViolationReason::Truncated,
    );
}

#[test]
fn relabelled_frames_are_rejected_at_the_exact_frame() {
    // An ordinary frame relabelled as RDMA-kind (the top bit of the
    // wire epoch word) on its way into the RDMA receive.
    let (mut fleet, mut sess) = rdma_fleet(211);
    fleet.send(0, 1, 0, &[0x5a; 64]).unwrap();
    let mut frame = intercept(&mut fleet, 1);
    frame.payload[7] ^= 0x80;
    fleet.inject(1, frame).unwrap();
    assert_violation(
        fleet.rdma_deliver(&mut sess, 0, 1, 0, 0),
        ViolationReason::BadMac,
        1,
    );
    assert_torn_down_and_intact(&mut fleet);

    // The same relabel into a plain receive.
    let (mut fleet, _sess) = rdma_fleet(212);
    fleet.send(0, 1, 0, &[0x5a; 64]).unwrap();
    let mut frame = intercept(&mut fleet, 1);
    frame.payload[7] ^= 0x80;
    fleet.inject(1, frame).unwrap();
    assert_violation(fleet.deliver(1, 0), ViolationReason::BadMac, 1);
    assert_torn_down_and_intact(&mut fleet);

    // An RDMA frame relabelled as ordinary.
    rdma_tamper_case(213, |p| p[7] ^= 0x80, ViolationReason::BadMac);
}

#[test]
fn rdma_frame_is_never_a_plain_delivery() {
    // An RDMA frame no session has checked: a plain receive must not
    // hand its bytes out, neither from `deliver` nor from `pump`.
    let (mut fleet, mut sess) = rdma_fleet(214);
    stage_and_send(&mut fleet, &mut sess, b"for the session only");
    assert_violation(fleet.deliver(1, 0), ViolationReason::BadMac, 1);
    assert_torn_down_and_intact(&mut fleet);

    let (mut fleet, mut sess) = rdma_fleet(215);
    stage_and_send(&mut fleet, &mut sess, b"for the session only");
    let (accepted, rejected) = fleet.pump(1, 0);
    assert!(accepted.is_empty());
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].frame_index, 1);
}

#[test]
fn rdma_receive_keeps_other_peers_frames_in_order() {
    // Machines 2 and 0 both have frames queued at machine 1 when its
    // RDMA receive from 0 runs: the frames from 2 are judged and handed
    // out, in order, by the next plain receives.
    let mut fleet = Fleet::new(&FleetConfig {
        machines: 3,
        seed: 216,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    assert_eq!(fleet.establish_all(), 3);
    let mut sess = fleet.rdma_connect(0, 1).unwrap();
    fleet.send(2, 1, 0, b"from two").unwrap();
    fleet.send(2, 1, 0, b"from two, again").unwrap();
    fleet.enter_tee(0, 0).unwrap();
    fleet.tee_write(0, 0, RDMA_SRC, CLEAN).unwrap();
    fleet
        .rdma_write(&mut sess, 0, 1, 0, RDMA_SRC, CLEAN.len(), 0)
        .unwrap();
    fleet.exit_tee(0, 0).unwrap();
    assert_eq!(read_mr(&mut fleet, CLEAN.len()), CLEAN);
    assert_eq!(fleet.machine(1).unwrap().stats().accepted, 3);
    let first = fleet.deliver(1, 0).unwrap().expect("first frame from 2");
    assert_eq!((first.from, first.seq), (2, 0));
    assert_eq!(first.payload, b"from two");
    let (accepted, rejected) = fleet.pump(1, 0);
    assert!(rejected.is_empty());
    assert_eq!(accepted.len(), 1);
    assert_eq!((accepted[0].from, accepted[0].seq), (2, 1));
    assert_eq!(accepted[0].payload, b"from two, again");
    assert!(matches!(fleet.deliver(1, 0), Ok(None)));
}
