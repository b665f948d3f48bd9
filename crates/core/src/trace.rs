//! Structured execution tracing for the monitor stack.
//!
//! The paper's judiciary power is *verifiable oversight*: any party must be
//! able to audit what the monitor did, not just trust that it did it. This
//! module is the recording half of that story — a typed event layer the
//! engine, the monitor, the simulated hardware, and the SMP front-end all
//! emit into, producing a single totally-ordered log that the offline
//! runtime-verification checkers in `tyche-verify::rv` replay against
//! temporal invariants the per-state `audit()` cannot see.
//!
//! Design constraints, in order:
//!
//! 1. **Zero perturbation.** Tracing consumes no randomness and charges no
//!    simulated cycles, so a traced run and an untraced run produce
//!    bit-identical engine state and fuzz digests. When the sink is
//!    disabled (the default) an emission is a single atomic load.
//! 2. **One lock.** An enabled emission stamps its sequence number and
//!    appends the event under a single mutex (lock class `trace-log`, the
//!    last rank of `tyche-verify`'s lock-order hierarchy, so any layer
//!    may emit while holding its own guard). `enable` reserves room for
//!    a short run and each drain leaves the log as much room as it
//!    took, so emissions between drains rarely allocate.
//! 3. **Attestable.** [`TraceLog::chain`] hash-chains the encoded events
//!    with the same SHA-256 fold the fuzzer uses for its replay digest, so
//!    a drained trace can be attested alongside a TPM quote.
//!
//! Event ordering comes from the sequence number stamped under the lock:
//! the log is always in sequence order, consistent with each thread's
//! program order, and each [`TraceSink::drain`] takes a gap-free prefix
//! of it, so successive drains concatenate into one sequence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tyche_crypto::{hash_parts, Digest};

/// Sentinel `core` id for events emitted by the engine itself, which has
/// no notion of which core is driving it.
pub const CORE_NONE: u32 = u32::MAX;

/// Domain separator folded into the head of every trace chain.
const CHAIN_DOMAIN: &[u8] = b"tyche-trace/v1";

/// Capability-table mutation kinds carried by [`EventKind::CapOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CapOpKind {
    /// Root-domain endowment of a fresh resource capability.
    Endow = 1,
    /// A new (unsealed) domain was created.
    CreateDomain = 2,
    /// A domain's entry point was set.
    SetEntry = 3,
    /// Content was recorded into a domain's measurement.
    RecordContent = 4,
    /// A domain was sealed.
    Seal = 5,
    /// A domain was killed.
    Kill = 6,
    /// A capability was shared (aliasing derivation).
    Share = 7,
    /// A capability was granted (move derivation).
    Grant = 8,
    /// A capability was split at an offset.
    Split = 9,
    /// A capability subtree was revoked.
    Revoke = 10,
    /// A transition capability was exercised.
    Transition = 11,
}

impl CapOpKind {
    /// Stable lower-case name, used by the trace replay tooling.
    pub fn name(self) -> &'static str {
        match self {
            CapOpKind::Endow => "endow",
            CapOpKind::CreateDomain => "create-domain",
            CapOpKind::SetEntry => "set-entry",
            CapOpKind::RecordContent => "record-content",
            CapOpKind::Seal => "seal",
            CapOpKind::Kill => "kill",
            CapOpKind::Share => "share",
            CapOpKind::Grant => "grant",
            CapOpKind::Split => "split",
            CapOpKind::Revoke => "revoke",
            CapOpKind::Transition => "transition",
        }
    }
}

/// One typed trace event. Ids are carried as raw `u64`s (the `.0` of
/// `DomainId`/`CapId`) so the encoding is layout-free and the offline
/// checkers need no engine state to interpret a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A successful capability-table mutation: `actor` performed `op` on
    /// `subject` (a cap or domain id, op-dependent); `aux` is the second
    /// operand (target domain, new cap, split offset, ...).
    CapOp {
        /// Which mutation.
        op: CapOpKind,
        /// The acting domain.
        actor: u64,
        /// Primary operand (cap or domain id, op-dependent).
        subject: u64,
        /// Secondary operand (op-dependent; 0 when unused).
        aux: u64,
    },
    /// The engine's mutation generation advanced (or was corrupted) to
    /// `gen`. Every capability mutation bumps it exactly once.
    GenBump {
        /// The new generation value.
        gen: u64,
    },
    /// `domain` entered the sticky quarantine state.
    Quarantine {
        /// The quarantined domain.
        domain: u64,
    },
    /// A hypercall entered the monitor on this core.
    HyperEnter {
        /// The ABI leaf number.
        leaf: u64,
        /// The calling domain.
        actor: u64,
    },
    /// The matching hypercall left the monitor.
    HyperExit {
        /// The ABI leaf number.
        leaf: u64,
        /// The `Status` discriminant returned to the caller.
        code: u64,
        /// Simulated cycles charged between enter and exit.
        cycles: u64,
    },
    /// A domain transition `from` → `to` succeeded.
    Enter {
        /// The domain that initiated the transition.
        from: u64,
        /// The domain now running.
        to: u64,
        /// True when the VMFUNC-style fast path served it.
        fast: bool,
    },
    /// A domain returned `from` → `to` (popping the transition frame).
    Return {
        /// The domain that was running.
        from: u64,
        /// The caller now running again.
        to: u64,
        /// True when the fast path served it.
        fast: bool,
    },
    /// The fast-path transition cache was (re)filled for (`actor`,
    /// `cap`) while the engine was at generation `gen`.
    CacheFill {
        /// The acting domain.
        actor: u64,
        /// The transition capability.
        cap: u64,
        /// Engine generation the entry was validated against.
        gen: u64,
    },
    /// The fast-path transition cache served (`actor`, `cap`) believing
    /// the engine is at generation `gen`.
    CacheHit {
        /// The acting domain.
        actor: u64,
        /// The transition capability.
        cap: u64,
        /// Generation the monitor believed current.
        gen: u64,
    },
    /// Flush effects were applied for `domain`.
    Flush {
        /// The domain whose translations/lines were flushed.
        domain: u64,
        /// A TLB flush was performed.
        tlb: bool,
        /// A cache flush was performed.
        cache: bool,
    },
    /// A shootdown IPI was charged from this event's core to core `to`.
    Ipi {
        /// The target core.
        to: u64,
    },
    /// An armed hardware fault plan fired (site code from
    /// `tyche-hw`'s `FaultSite`, in declaration order).
    FaultFired {
        /// Numeric fault-site code.
        site: u8,
    },
    /// A mutating hypercall waited for shard `shard`'s lock (discrete-event
    /// clock handoff).
    ShardWait {
        /// The shard index waited on.
        shard: u64,
    },
    /// `domain` was added to this core's pending invalidation set (per-CPU
    /// TLB-gather discipline).
    ShootQueue {
        /// The domain whose translations shrank.
        domain: u64,
    },
    /// This core's pending invalidation set was delivered: `drained`
    /// domains collapsed into one shootdown charging `ipis` IPIs.
    ShootBatch {
        /// Number of distinct domains drained from the set.
        drained: u64,
        /// Remote cores actually charged an IPI.
        ipis: u64,
    },
    /// The read tier read the live engine at generation `gen`.
    SnapRead {
        /// Generation the read observed.
        gen: u64,
    },
    /// A driver-defined phase boundary (the fuzzer emits one per campaign
    /// phase; the RV checkers require queues drained here).
    PhaseEnd {
        /// Driver-assigned phase number.
        phase: u64,
    },
    /// A MAC-keyed channel to machine `peer` was established (or re-keyed)
    /// at key epoch `epoch` after mutual attestation succeeded.
    ChanEstablish {
        /// The remote machine id.
        peer: u64,
        /// The key epoch now current for this peer.
        epoch: u64,
    },
    /// A frame was MACed and handed to the NIC for `peer` carrying channel
    /// sequence number `seq` under key epoch `epoch`.
    ChanSend {
        /// The remote machine id.
        peer: u64,
        /// The monotonically increasing per-channel sequence number.
        seq: u64,
        /// The key epoch the frame was MACed under.
        epoch: u64,
    },
    /// A frame from `peer` passed MAC + sequence verification and was
    /// accepted at channel sequence `seq`, key epoch `epoch`.
    ChanRecv {
        /// The remote machine id.
        peer: u64,
        /// The verified per-channel sequence number.
        seq: u64,
        /// The key epoch the frame verified under.
        epoch: u64,
    },
    /// A frame from `peer` failed verification (reason code from
    /// `tyche-fleet`'s `ViolationReason`); `seq` is the per-channel frame
    /// index at which the violation was detected.
    ChanViolation {
        /// The remote machine id.
        peer: u64,
        /// Numeric violation-reason code.
        reason: u8,
        /// The frame index (delivery count) at detection.
        seq: u64,
    },
    /// The channel to `peer` was torn down; its epoch-`epoch` key is dead
    /// and no further frames will be accepted until re-attestation.
    ChanTeardown {
        /// The remote machine id.
        peer: u64,
        /// The key epoch that was retired.
        epoch: u64,
    },
    /// The NIC accepted one outbound frame of `bytes` payload bytes for
    /// machine `to` (cycles charged to this event's core).
    NicSend {
        /// The destination machine id.
        to: u64,
        /// Payload length in bytes.
        bytes: u64,
    },
    /// The NIC delivered one inbound frame of `bytes` payload bytes from
    /// machine `from` to this event's core.
    NicRecv {
        /// The source machine id.
        from: u64,
        /// Payload length in bytes.
        bytes: u64,
    },
}

impl EventKind {
    /// Stable lower-case name, used by `repro trace` and test diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
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
    /// canonical wire decomposition used by [`TraceEvent::encode`].
    fn parts(&self) -> (u8, u8, u64, u64, u64) {
        match *self {
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
}

/// One recorded event: a global sequence number, the emitting core (or
/// [`CORE_NONE`]), and the typed payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission order (total across cores).
    pub seq: u64,
    /// Emitting core, or [`CORE_NONE`] for engine-internal events.
    pub core: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Canonical 48-byte wire encoding: six little-endian `u64` words
    /// `[seq, meta, a, b, c, 0]` where `meta = core << 32 | disc << 8 |
    /// flag`. This is what the trace chain hashes, so it must stay stable.
    pub fn encode(&self) -> [u8; 48] {
        let (disc, flag, a, b, c) = self.kind.parts();
        let meta = (u64::from(self.core) << 32) | (u64::from(disc) << 8) | u64::from(flag);
        let words = [self.seq, meta, a, b, c, 0u64];
        let mut out = [0u8; 48];
        for (chunk, word) in out.chunks_mut(8).zip(words.iter()) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// A drained, seq-ordered trace with its attestable chain digest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Builds a log from already-ordered events (test fixtures).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        TraceLog { events }
    }

    /// The events in global sequence order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The hash chain over the encoded events: the same
    /// `digest = H(prev || event)` fold the fuzzer uses for its replay
    /// digest, seeded with a domain separator. Two logs chain equal iff
    /// they recorded the same events in the same order.
    pub fn chain(&self) -> Digest {
        let mut digest = hash_parts(&[CHAIN_DOMAIN]);
        for event in &self.events {
            digest = hash_parts(&[digest.as_bytes(), &event.encode()]);
        }
        digest
    }
}

/// Events reserved per core (plus one engine share) when recording
/// starts, so a short traced run allocates nothing after `enable`.
const EVENTS_PER_CORE: usize = 256;

#[derive(Debug, Default)]
struct Shared {
    /// Fast-path gate; emissions are one Acquire load when false.
    enabled: AtomicBool,
    /// The one log, in sequence order.
    log: Mutex<Log>,
}

#[derive(Debug, Default)]
struct Log {
    events: Vec<TraceEvent>,
    /// The `seq` stamped on the next event (total event order).
    next_seq: u64,
}

fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Trace state is only touched by these non-panicking methods; a
    // poisoned lock (panicking test thread) must not wedge the sink.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shared handle to a machine-wide trace sink.
///
/// Cloning shares the underlying buffers (every layer on one machine
/// records into the same log). The default handle is disabled; all
/// emissions are dropped until [`TraceSink::enable`].
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    shared: Arc<Shared>,
}

/// Equality is intentionally vacuous: the sink is observability-only
/// state, and engine/monitor equality (replay checks, the
/// zero-perturbation gate) must not depend on what was recorded.
impl PartialEq for TraceSink {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TraceSink {}

impl TraceSink {
    /// Creates a disabled sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts recording, with room reserved for `cores` cores' worth of
    /// events (plus the engine's). Clears anything previously recorded
    /// and restarts the sequence counter.
    pub fn enable(&self, cores: usize) {
        let mut log = lock_mutex(&self.shared.log);
        log.events.clear();
        log.events
            .reserve(cores.saturating_add(1).saturating_mul(EVENTS_PER_CORE));
        log.next_seq = 0;
        drop(log);
        self.shared.enabled.store(true, Ordering::Release);
    }

    /// Stops recording. Buffered events stay drainable.
    pub fn disable(&self) {
        self.shared.enabled.store(false, Ordering::Release);
    }

    /// True while the sink is recording.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Acquire)
    }

    /// Records `kind` as emitted by `core` (use [`CORE_NONE`]
    /// for engine-internal events). A no-op unless enabled.
    pub fn emit(&self, core: u32, kind: EventKind) {
        if !self.shared.enabled.load(Ordering::Acquire) {
            return;
        }
        let mut log = lock_mutex(&self.shared.log);
        let seq = log.next_seq;
        log.next_seq += 1;
        log.events.push(TraceEvent { seq, core, kind });
    }

    /// Shorthand for engine-internal emission.
    pub fn emit_engine(&self, kind: EventKind) {
        self.emit(CORE_NONE, kind);
    }

    /// Takes everything recorded so far, in sequence order. Recording
    /// state (enabled, the sequence counter) is preserved, so successive
    /// drains concatenate into one gap-free sequence.
    pub fn drain(&self) -> TraceLog {
        let mut log = lock_mutex(&self.shared.log);
        let room = Vec::with_capacity(log.events.capacity());
        TraceLog::from_events(std::mem::replace(&mut log.events, room))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        sink.emit(0, EventKind::GenBump { gen: 1 });
        assert!(sink.drain().is_empty());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn events_merge_in_sequence_order() {
        let sink = TraceSink::new();
        sink.enable(2);
        sink.emit(0, EventKind::GenBump { gen: 1 });
        sink.emit(1, EventKind::Ipi { to: 0 });
        sink.emit_engine(EventKind::GenBump { gen: 2 });
        let log = sink.drain();
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(
            log.events().iter().map(|e| e.core).collect::<Vec<_>>(),
            vec![0, 1, CORE_NONE]
        );
    }

    #[test]
    fn log_outgrows_its_reserve_without_losing_events() {
        let sink = TraceSink::new();
        sink.enable(1);
        let n = 4 * 2 * EVENTS_PER_CORE as u64;
        for gen in 0..n {
            sink.emit(0, EventKind::GenBump { gen });
        }
        let log = sink.drain();
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_drains_concatenate_into_one_sequence() {
        const PER_EMITTER: u64 = 5_000;
        let sink = TraceSink::new();
        sink.enable(2);
        let done = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (sink, done) = (sink.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut seqs = Vec::new();
                while !done.load(Ordering::Acquire) {
                    seqs.extend(sink.drain().events().iter().map(|e| e.seq));
                    std::thread::yield_now();
                }
                seqs
            })
        };
        let emitters: Vec<_> = (0..2u32)
            .map(|core| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for gen in 0..PER_EMITTER {
                        sink.emit(core, EventKind::GenBump { gen });
                    }
                })
            })
            .collect();
        for e in emitters {
            e.join().expect("emitter");
        }
        done.store(true, Ordering::Release);
        let mut seqs = drainer.join().expect("drainer");
        seqs.extend(sink.drain().events().iter().map(|e| e.seq));
        assert_eq!(seqs, (0..2 * PER_EMITTER).collect::<Vec<_>>());
    }

    #[test]
    fn drain_resets_but_keeps_recording() {
        let sink = TraceSink::new();
        sink.enable(1);
        sink.emit(0, EventKind::PhaseEnd { phase: 1 });
        assert_eq!(sink.drain().len(), 1);
        sink.emit(0, EventKind::PhaseEnd { phase: 2 });
        assert_eq!(sink.drain().len(), 1, "drain does not stop the sink");
    }

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
        let ab = TraceLog::from_events(vec![a, b]).chain();
        let ba = TraceLog::from_events(vec![b, a]).chain();
        assert_ne!(ab, ba);
        assert_ne!(TraceLog::default().chain(), ab);
    }

    #[test]
    fn clones_share_buffers_and_compare_equal() {
        let sink = TraceSink::new();
        let other = sink.clone();
        sink.enable(1);
        other.emit(0, EventKind::SnapRead { gen: 3 });
        assert_eq!(sink.drain().len(), 1, "emitted via the other handle");
        assert_eq!(sink, TraceSink::new(), "equality is vacuous by design");
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
        let bytes = e.encode();
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
        let words: Vec<u64> = v
            .encode()
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
        let words: Vec<u64> = s
            .encode()
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        assert_eq!(words, vec![0, 19 << 8, 5, 42, 2, 0]);
        assert_eq!(v.kind.name(), "chan-violation");
        assert_eq!(s.kind.name(), "chan-send");
    }
}
