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
//! 3. **Record only.** The canonical wire encoding, the attestable hash
//!    chain over it and the event names live with their readers in
//!    `tyche-verify::trace`; the monitor emits events and never reads
//!    them back, so none of that is in its TCB.
//!
//! Event ordering comes from the sequence number stamped under the lock:
//! the log is always in sequence order, consistent with each thread's
//! program order, and each [`TraceSink::drain`] takes a gap-free prefix
//! of it, so successive drains concatenate into one sequence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sentinel `core` id for events emitted by the engine itself, which has
/// no notion of which core is driving it.
pub const CORE_NONE: u32 = u32::MAX;

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

/// A drained, seq-ordered trace.
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
    fn clones_share_buffers_and_compare_equal() {
        let sink = TraceSink::new();
        let other = sink.clone();
        sink.enable(1);
        other.emit(0, EventKind::SnapRead { gen: 3 });
        assert_eq!(sink.drain().len(), 1, "emitted via the other handle");
        assert_eq!(sink, TraceSink::new(), "equality is vacuous by design");
    }
}
