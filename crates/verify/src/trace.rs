//! The trace's canonical encoding, its attestable hash chain, and the
//! event names: everything that *reads* a `tyche_core::trace` log.
//!
//! The monitor only records events ([`tyche_core::trace::TraceSink`]);
//! it never encodes, hashes or names them, so these functions live with
//! their readers (the RV checkers in [`crate::rv`], the fuzzer's replay
//! gate, `repro trace`) and stay out of the monitor's TCB.

use tyche_core::trace::{EventKind, TraceEvent, TraceLog};
use tyche_crypto::{hash_parts, Digest};

/// Domain separator folded into the head of every trace chain.
const CHAIN_DOMAIN: &[u8] = b"tyche-trace/v1";

/// Stable lower-case name of an event kind, used by `repro trace` and
/// test diagnostics.
pub fn name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::CapOp { .. } => "cap-op",
        EventKind::GenBump { .. } => "gen-bump",
        EventKind::Quarantine { .. } => "quarantine",
        EventKind::HyperEnter { .. } => "hyper-enter",
        EventKind::HyperExit { .. } => "hyper-exit",
        EventKind::Enter { .. } => "enter",
        EventKind::Return { .. } => "return",
        EventKind::CacheFill { .. } => "cache-fill",
        EventKind::CacheHit { .. } => "cache-hit",
        EventKind::Flush { .. } => "flush",
        EventKind::Ipi { .. } => "ipi",
        EventKind::FaultFired { .. } => "fault-fired",
        EventKind::ShardWait { .. } => "shard-wait",
        EventKind::ShootQueue { .. } => "shoot-queue",
        EventKind::ShootBatch { .. } => "shoot-batch",
        EventKind::SnapRead { .. } => "snap-read",
        EventKind::PhaseEnd { .. } => "phase-end",
        EventKind::ChanEstablish { .. } => "chan-establish",
        EventKind::ChanSend { .. } => "chan-send",
        EventKind::ChanRecv { .. } => "chan-recv",
        EventKind::ChanViolation { .. } => "chan-violation",
        EventKind::ChanTeardown { .. } => "chan-teardown",
        EventKind::NicSend { .. } => "nic-send",
        EventKind::NicRecv { .. } => "nic-recv",
    }
}

/// (discriminant, flag byte, payload a, payload b, payload c) — the
/// canonical wire decomposition used by [`encode`].
fn parts(kind: &EventKind) -> (u8, u8, u64, u64, u64) {
    match *kind {
        EventKind::CapOp {
            op,
            actor,
            subject,
            aux,
        } => (1, op as u8, actor, subject, aux),
        EventKind::GenBump { gen } => (2, 0, gen, 0, 0),
        EventKind::Quarantine { domain } => (3, 0, domain, 0, 0),
        EventKind::HyperEnter { leaf, actor } => (4, 0, leaf, actor, 0),
        EventKind::HyperExit { leaf, code, cycles } => (5, 0, leaf, code, cycles),
        EventKind::Enter { from, to, fast } => (6, u8::from(fast), from, to, 0),
        EventKind::Return { from, to, fast } => (7, u8::from(fast), from, to, 0),
        EventKind::CacheFill { actor, cap, gen } => (8, 0, actor, cap, gen),
        EventKind::CacheHit { actor, cap, gen } => (9, 0, actor, cap, gen),
        EventKind::Flush { domain, tlb, cache } => {
            (10, u8::from(tlb) | (u8::from(cache) << 1), domain, 0, 0)
        }
        EventKind::Ipi { to } => (11, 0, to, 0, 0),
        EventKind::FaultFired { site } => (12, site, 0, 0, 0),
        EventKind::ShardWait { shard } => (13, 0, shard, 0, 0),
        EventKind::ShootQueue { domain } => (14, 0, domain, 0, 0),
        EventKind::ShootBatch { drained, ipis } => (15, 0, drained, ipis, 0),
        EventKind::SnapRead { gen } => (16, 0, gen, 0, 0),
        EventKind::PhaseEnd { phase } => (17, 0, phase, 0, 0),
        EventKind::ChanEstablish { peer, epoch } => (18, 0, peer, epoch, 0),
        EventKind::ChanSend { peer, seq, epoch } => (19, 0, peer, seq, epoch),
        EventKind::ChanRecv { peer, seq, epoch } => (20, 0, peer, seq, epoch),
        EventKind::ChanViolation { peer, reason, seq } => (21, reason, peer, seq, 0),
        EventKind::ChanTeardown { peer, epoch } => (22, 0, peer, epoch, 0),
        EventKind::NicSend { to, bytes } => (23, 0, to, bytes, 0),
        EventKind::NicRecv { from, bytes } => (24, 0, from, bytes, 0),
    }
}

/// Canonical 48-byte wire encoding: six little-endian `u64` words
/// `[seq, meta, a, b, c, 0]` where `meta = core << 32 | disc << 8 |
/// flag`. This is what the trace chain hashes, so it must stay stable.
pub(crate) fn encode(event: &TraceEvent) -> [u8; 48] {
    let (disc, flag, a, b, c) = parts(&event.kind);
    let meta = (u64::from(event.core) << 32) | (u64::from(disc) << 8) | u64::from(flag);
    let words = [event.seq, meta, a, b, c, 0u64];
    let mut out = [0u8; 48];
    for (chunk, word) in out.chunks_mut(8).zip(words.iter()) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The hash chain over a log's encoded events: the same
/// `digest = H(prev || event)` fold the fuzzer uses for its replay
/// digest, seeded with a domain separator. Two logs chain equal iff they
/// recorded the same events in the same order, so a drained trace can
/// be attested alongside a TPM quote.
pub fn chain(log: &TraceLog) -> Digest {
    let mut digest = hash_parts(&[CHAIN_DOMAIN]);
    for event in log.events() {
        digest = hash_parts(&[digest.as_bytes(), &encode(event)]);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_order_sensitive() {
        let a = TraceEvent {
            seq: 0,
            core: 0,
            kind: EventKind::GenBump { gen: 1 },
        };
        let b = TraceEvent {
            seq: 1,
            core: 0,
            kind: EventKind::GenBump { gen: 2 },
        };
        let ab = chain(&TraceLog::from_events(vec![a, b]));
        let ba = chain(&TraceLog::from_events(vec![b, a]));
        assert_ne!(ab, ba);
        assert_ne!(chain(&TraceLog::default()), ab);
    }

    #[test]
    fn encoding_is_stable() {
        let e = TraceEvent {
            seq: 7,
            core: 2,
            kind: EventKind::Enter {
                from: 1,
                to: 4,
                fast: true,
            },
        };
        let bytes = encode(&e);
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        // meta = core 2 << 32 | disc 6 << 8 | flag 1 (fast).
        assert_eq!(words, vec![7, (2u64 << 32) | (6 << 8) | 1, 1, 4, 0, 0]);
    }

    #[test]
    fn channel_encoding_is_stable() {
        // The channel events ride the same 48-byte layout; pin one with a
        // flag byte (the violation reason) and one payload-heavy variant.
        let v = TraceEvent {
            seq: 9,
            core: 1,
            kind: EventKind::ChanViolation {
                peer: 3,
                reason: 2,
                seq: 11,
            },
        };
        let words: Vec<u64> = encode(&v)
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        // meta = core 1 << 32 | disc 21 << 8 | flag 2 (reason).
        assert_eq!(words, vec![9, (1u64 << 32) | (21 << 8) | 2, 3, 11, 0, 0]);
        let s = TraceEvent {
            seq: 0,
            core: 0,
            kind: EventKind::ChanSend {
                peer: 5,
                seq: 42,
                epoch: 2,
            },
        };
        let words: Vec<u64> = encode(&s)
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        assert_eq!(words, vec![0, 19 << 8, 5, 42, 2, 0]);
        assert_eq!(name(&v.kind), "chan-violation");
        assert_eq!(name(&s.kind), "chan-send");
    }
}
