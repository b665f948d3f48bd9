//! Cross-machine channel state — the receiver side of the fleet's
//! keyed links.
//!
//! Composing monitors across machines (the paper's "millions of users,
//! one monitor per machine" story) needs more than attestation: every
//! frame between two monitors must be bound to a *channel* whose key was
//! derived from a mutual attestation, and the receiver must be able to
//! prove, offline, that it never accepted a forged, replayed, reordered,
//! or stale frame. This module owns exactly that receiver-side state:
//! per-peer key epochs, strictly monotonic sequence numbers, the sticky
//! teardown-and-quarantine reaction to any violation, and the trace
//! events (`ChanEstablish`/`ChanSend`/`ChanRecv`/`ChanViolation`/
//! `ChanTeardown`) the offline `channel-seq` RV checker replays.
//!
//! The table belongs to the transport, not to the monitor: no hypercall
//! reads or writes it, so it sits outside the monitor's TCB, beside the
//! channel keys in [`crate::FleetMachine`].
//!
//! Deliberately *not* here: cryptography. Frame tags (ChaCha20-Poly1305,
//! [`libtyche::aead`]) are computed and checked by the fleet transport;
//! the table is told the *outcome* (a parsed frame's sequence and epoch,
//! or an externally detected [`ViolationReason`]) and provides the
//! single authoritative accept/reject decision. Keeping key material out
//! of the table keeps this module trivially auditable.
//!
//! Concurrency: none. Each fleet machine owns its table, and every
//! mutation takes `&mut self`, so the table holds no lock.

use std::collections::BTreeMap;

use tyche_core::trace::{EventKind, TraceSink};

/// The largest key epoch a channel can reach: the fleet wire spends the
/// top bit of its 64-bit epoch word on the frame kind.
pub const MAX_EPOCH: u64 = (1 << 63) - 1;

/// Why an inbound frame (or an establishment attempt) was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationReason {
    /// The frame's AEAD tag did not verify under the channel key.
    BadMac,
    /// The frame's sequence number was already consumed (replay).
    Replay,
    /// The frame's sequence number jumped ahead of the next expected one
    /// (reordered or dropped-then-reordered delivery).
    Reorder,
    /// The frame was too short to carry the fixed header and tag.
    Truncated,
    /// The frame was tagged under a retired key epoch.
    StaleEpoch,
    /// No open channel exists for the peer (never established, or torn
    /// down by an earlier violation).
    NoChannel,
    /// The peer's attestation chain (TPM quote or monitor report) failed
    /// verification during channel establishment.
    BadAttestation,
}

impl ViolationReason {
    /// Stable numeric code carried by [`EventKind::ChanViolation`]
    /// (declaration order, 1-based).
    pub fn code(self) -> u8 {
        match self {
            ViolationReason::BadMac => 1,
            ViolationReason::Replay => 2,
            ViolationReason::Reorder => 3,
            ViolationReason::Truncated => 4,
            ViolationReason::StaleEpoch => 5,
            ViolationReason::NoChannel => 6,
            ViolationReason::BadAttestation => 7,
        }
    }

    /// Stable lower-case name, used in diagnostics and test pins.
    pub fn name(self) -> &'static str {
        match self {
            ViolationReason::BadMac => "bad-mac",
            ViolationReason::Replay => "replay",
            ViolationReason::Reorder => "reorder",
            ViolationReason::Truncated => "truncated",
            ViolationReason::StaleEpoch => "stale-epoch",
            ViolationReason::NoChannel => "no-channel",
            ViolationReason::BadAttestation => "bad-attestation",
        }
    }
}

impl core::fmt::Display for ViolationReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected frame: the reason plus the exact per-peer inbound frame
/// index (0-based count of frames presented for delivery) at which the
/// violation was detected — the number the adversarial tests pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Why the frame was refused.
    pub reason: ViolationReason,
    /// The inbound frame index at detection.
    pub frame_index: u64,
}

/// Per-peer channel state (private; all access is through the table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ChannelState {
    /// Current key epoch (bumped by each successful re-attestation).
    epoch: u64,
    /// Next outbound sequence number.
    send_seq: u64,
    /// Next expected inbound sequence number.
    recv_seq: u64,
    /// Inbound frames presented so far (accepted + rejected).
    delivered: u64,
    /// False once torn down (until a permitted re-establishment).
    open: bool,
    /// Sticky: set by any violation; blocks re-establishment forever.
    quarantined: bool,
}

/// The per-machine table of attested channels, keyed by peer machine id.
///
/// Violations are **sticky**: any rejected frame tears the channel down
/// (the fleet layer must discard its key material on the matching
/// [`EventKind::ChanTeardown`]) and quarantines the peer, so a byzantine
/// machine gets exactly one violation per channel before it is cut off.
#[derive(Debug, Default)]
pub struct ChannelTable {
    channels: BTreeMap<u64, ChannelState>,
    trace: TraceSink,
}

impl ChannelTable {
    /// Creates an empty table emitting into `trace`.
    pub fn new(trace: TraceSink) -> Self {
        ChannelTable {
            channels: BTreeMap::new(),
            trace,
        }
    }

    /// Opens (or re-keys) the channel to `peer` after a successful mutual
    /// attestation, at key epoch `epoch`.
    ///
    /// Refused when the peer is quarantined (a byzantine peer never gets
    /// a fresh channel without out-of-band intervention) or when `epoch`
    /// does not advance past the channel's current epoch (a stale
    /// re-attestation must not resurrect an old key) or exceeds
    /// [`MAX_EPOCH`].
    pub fn establish(&mut self, peer: u64, epoch: u64) -> Result<(), ViolationReason> {
        let state = self.channels.entry(peer).or_default();
        if state.quarantined {
            return Err(ViolationReason::NoChannel);
        }
        if (state.epoch != 0 && epoch <= state.epoch) || epoch > MAX_EPOCH {
            return Err(ViolationReason::StaleEpoch);
        }
        state.epoch = epoch;
        state.send_seq = 0;
        state.recv_seq = 0;
        state.open = true;
        self.trace
            .emit_engine(EventKind::ChanEstablish { peer, epoch });
        Ok(())
    }

    /// Reserves the next outbound sequence number on the channel to
    /// `peer`, returning `(seq, epoch)` for the fleet layer to tag into
    /// the frame. Fails with [`ViolationReason::NoChannel`] when no open
    /// channel exists.
    pub fn note_send(&mut self, peer: u64) -> Result<(u64, u64), ViolationReason> {
        let Some(state) = self.channels.get_mut(&peer).filter(|s| s.open) else {
            return Err(ViolationReason::NoChannel);
        };
        let seq = state.send_seq;
        state.send_seq += 1;
        let epoch = state.epoch;
        self.trace
            .emit_engine(EventKind::ChanSend { peer, seq, epoch });
        Ok((seq, epoch))
    }

    /// Judges one inbound frame from `peer` whose tag already verified:
    /// `seq` must be exactly the next expected sequence number and
    /// `epoch` the current key epoch. On acceptance the window advances
    /// and the accepted sequence number is returned; any mismatch is a
    /// violation that tears the channel down (see [`Self::reject`]).
    pub fn accept_recv(&mut self, peer: u64, seq: u64, epoch: u64) -> Result<u64, Violation> {
        let Some(state) = self.channels.get_mut(&peer).filter(|s| s.open) else {
            return Err(self.reject(peer, ViolationReason::NoChannel));
        };
        state.delivered += 1;
        let reason = if epoch != state.epoch {
            Some(ViolationReason::StaleEpoch)
        } else if seq < state.recv_seq {
            Some(ViolationReason::Replay)
        } else if seq > state.recv_seq {
            Some(ViolationReason::Reorder)
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(teardown(&self.trace, peer, state, reason));
        }
        state.recv_seq += 1;
        self.trace
            .emit_engine(EventKind::ChanRecv { peer, seq, epoch });
        Ok(seq)
    }

    /// Reports a violation detected *outside* the table (failed tag,
    /// unparseable frame) on the channel to `peer`. Counts the frame,
    /// emits the violation, and tears the channel down. Returns the
    /// recorded violation with its exact frame index.
    pub fn reject(&mut self, peer: u64, reason: ViolationReason) -> Violation {
        let state = self.channels.entry(peer).or_default();
        state.delivered += 1;
        teardown(&self.trace, peer, state, reason)
    }

    /// True when an open channel to `peer` exists.
    pub fn is_open(&self, peer: u64) -> bool {
        self.channels.get(&peer).is_some_and(|s| s.open)
    }

    /// True when `peer` has been quarantined by a violation.
    pub fn is_quarantined(&self, peer: u64) -> bool {
        self.channels.get(&peer).is_some_and(|s| s.quarantined)
    }

    /// The current key epoch for `peer` (0 when never established).
    pub fn epoch(&self, peer: u64) -> u64 {
        self.channels.get(&peer).map_or(0, |s| s.epoch)
    }

    /// Inbound frames presented so far by `peer` (accepted + rejected):
    /// the next frame's 0-based index.
    pub fn frames_delivered(&self, peer: u64) -> u64 {
        self.channels.get(&peer).map_or(0, |s| s.delivered)
    }

    /// Peers currently quarantined, in ascending id order.
    pub fn quarantined_peers(&self) -> Vec<u64> {
        self.channels
            .iter()
            .filter(|(_, s)| s.quarantined)
            .map(|(&peer, _)| peer)
            .collect()
    }
}

/// Shared teardown path for a frame counted into `state.delivered`:
/// emits the violation at that frame's index, closes the channel, and
/// quarantines the peer.
fn teardown(
    trace: &TraceSink,
    peer: u64,
    state: &mut ChannelState,
    reason: ViolationReason,
) -> Violation {
    let violation = Violation {
        reason,
        frame_index: state.delivered - 1,
    };
    trace.emit_engine(EventKind::ChanViolation {
        peer,
        reason: reason.code(),
        seq: violation.frame_index,
    });
    if state.open {
        state.open = false;
        trace.emit_engine(EventKind::ChanTeardown {
            peer,
            epoch: state.epoch,
        });
    }
    state.quarantined = true;
    violation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_send_recv_round_trip() {
        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(2, 1).unwrap();
        assert!(t.is_open(2));
        assert_eq!(t.note_send(2).unwrap(), (0, 1));
        assert_eq!(t.note_send(2).unwrap(), (1, 1));
        assert_eq!(t.accept_recv(2, 0, 1).unwrap(), 0);
        assert_eq!(t.accept_recv(2, 1, 1).unwrap(), 1);
        assert_eq!(t.frames_delivered(2), 2);
        assert!(!t.is_quarantined(2));
    }

    #[test]
    fn replay_is_rejected_at_exact_index_and_tears_down() {
        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(5, 1).unwrap();
        t.accept_recv(5, 0, 1).unwrap();
        t.accept_recv(5, 1, 1).unwrap();
        let v = t.accept_recv(5, 1, 1).unwrap_err();
        assert_eq!(v.reason, ViolationReason::Replay);
        assert_eq!(v.frame_index, 2);
        assert!(!t.is_open(5));
        assert!(t.is_quarantined(5));
        // Quarantine is sticky: re-establishment is refused.
        assert_eq!(t.establish(5, 2), Err(ViolationReason::NoChannel));
    }

    #[test]
    fn reorder_and_stale_epoch_are_distinct_reasons() {
        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(1, 1).unwrap();
        let v = t.accept_recv(1, 3, 1).unwrap_err();
        assert_eq!(v.reason, ViolationReason::Reorder);

        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(1, 1).unwrap();
        t.establish(1, 2).unwrap(); // legitimate re-key
        let v = t.accept_recv(1, 0, 1).unwrap_err();
        assert_eq!(v.reason, ViolationReason::StaleEpoch);
        assert_eq!(v.frame_index, 0);
    }

    #[test]
    fn rekey_resets_sequences_but_not_the_frame_count() {
        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(9, 1).unwrap();
        t.note_send(9).unwrap();
        t.accept_recv(9, 0, 1).unwrap();
        t.establish(9, 2).unwrap();
        assert_eq!(t.epoch(9), 2);
        assert_eq!(t.note_send(9).unwrap(), (0, 2));
        assert_eq!(t.accept_recv(9, 0, 2).unwrap(), 0);
        // A re-key must strictly advance the epoch, and stay clear of
        // the wire's kind bit.
        assert_eq!(t.establish(9, 2), Err(ViolationReason::StaleEpoch));
        assert_eq!(
            t.establish(9, MAX_EPOCH + 1),
            Err(ViolationReason::StaleEpoch)
        );
        t.establish(9, MAX_EPOCH).unwrap();
        assert_eq!(t.epoch(9), MAX_EPOCH);
    }

    #[test]
    fn external_reject_counts_the_frame() {
        let mut t = ChannelTable::new(TraceSink::new());
        t.establish(4, 1).unwrap();
        t.accept_recv(4, 0, 1).unwrap();
        let v = t.reject(4, ViolationReason::BadMac);
        assert_eq!(v.frame_index, 1);
        assert!(!t.is_open(4));
        assert_eq!(t.quarantined_peers(), vec![4]);
        // Post-teardown sends are refused.
        assert_eq!(t.note_send(4), Err(ViolationReason::NoChannel));
    }

    #[test]
    fn unknown_peer_frames_are_violations() {
        let mut t = ChannelTable::new(TraceSink::new());
        let v = t.accept_recv(7, 0, 1).unwrap_err();
        assert_eq!(v.reason, ViolationReason::NoChannel);
        assert!(t.is_quarantined(7));
    }

    #[test]
    fn violations_emit_teardown_events() {
        let sink = TraceSink::new();
        sink.enable(1);
        let mut t = ChannelTable::new(sink.clone());
        t.establish(3, 1).unwrap();
        t.note_send(3).unwrap();
        t.accept_recv(3, 0, 1).unwrap();
        t.accept_recv(3, 0, 1).unwrap_err();
        let names: Vec<&str> = sink
            .drain()
            .events()
            .iter()
            .map(|e| tyche_verify::trace::name(&e.kind))
            .collect();
        assert_eq!(
            names,
            vec![
                "chan-establish",
                "chan-send",
                "chan-recv",
                "chan-violation",
                "chan-teardown"
            ]
        );
    }
}
