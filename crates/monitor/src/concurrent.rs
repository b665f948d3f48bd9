//! SMP front-end: concurrent hypercall serving over one [`Monitor`].
//!
//! [`ConcurrentMonitor`] lets one worker thread per modeled core issue
//! hypercalls against a shared monitor. Three serving tiers:
//!
//! - **Read-only calls** (`Enumerate`) run on the live engine under the
//!   read side of the inner monitor's `RwLock`, with no copy of the
//!   engine. Read-only calls on different cores proceed
//!   together; they wait only while a mutation holds the write side.
//!   Each core keeps one `(generation, actor, count)` slot, filled by
//!   the last successful enumeration with the generation read under
//!   the same read guard. A repeat by the same actor while `live_gen`
//!   still equals the slot's generation is answered from the slot
//!   without the inner lock; any committed mutation, on any core, moves
//!   `live_gen` and so empties every slot. A hit emits the same
//!   `HyperEnter`, `SnapRead` and `HyperExit` events and charges the
//!   same trap cost as a miss, so traces and model cycles do not show
//!   which one ran.
//! - **Fast transitions** (`Enter` through a `NONE`-policy transition
//!   capability, and the matching `Return`) touch only per-core state:
//!   a validated entry is cached per core and keyed on the engine
//!   generation, a cache miss validates on the live engine under the
//!   read side, the VMFUNC switch is charged to the core's own clock,
//!   and a cache hit takes no shared lock at all. This is the paper's
//!   "fast (100 cycles) transitions" path, now per-core.
//! - **Mutations** (everything else) take the core's state lock and
//!   the inner monitor's write lock, then compute the domains the call
//!   involves and the ones that lose translations **once**, against the
//!   state the call runs on, into per-core scratch buffers. A committed
//!   mutation only records the new engine generation.
//!
//! Each core has exactly one lock, its `SmpCore` state: the running
//! domain, the transition stack and caches, the submission ring and the
//! pending-shootdown batch. The only other lock is the inner monitor's.
//!
//! ## Reading the engine
//!
//! Nothing copies the engine: not the constructor, not a serving tier.
//! A committed mutation only records the new generation in `live_gen`,
//! so host cost per mutation is independent of the population. Audits
//! and tests read the live engine through
//! [`ConcurrentMonitor::with_inner`]; a caller that must hold a state
//! across later mutations takes one explicit
//! `with_inner(|m| m.engine.clone())`.
//!
//! ## Model time
//!
//! Correctness comes from the inner write lock; *time* comes from the
//! simulator's [`SmpClocks`]. A mutation reports its core, the domains
//! it involves and the cycles it was charged, and the clock model
//! decides when it ran: it routes the domains to shard clocks and
//! charges a lock hand-off when one of them was ahead of the core. The
//! monitor only counts the wait and emits `ShardWait` at the point the
//! call would block. Clocks are started and finished under the write
//! side, so model time is a function of the call order.
//!
//! ## Cross-core shootdowns
//!
//! Translation-shrinking mutations (grant, revoke, kill) queue the
//! domains that lost access into the *calling core's* invalidation
//! batch instead of IPI-ing immediately — the per-CPU TLB-gather
//! discipline: whoever shrinks a translation owns its flush.
//! [`ConcurrentMonitor::sync_shootdowns`] drains the caller's batch,
//! finds the cores currently running an affected domain, and charges
//! the IPI + remote-flush cost through [`Machine::shootdown`] — one IPI
//! per (core, batch) however many pending invalidations coalesced into
//! it, replacing the single-stream `sync_effects` model. Until a core's
//! shootdown is delivered, a remote core may keep running the domain
//! that lost access — the same TOCTOU grace window real
//! shootdown-based revocation has between the capability update and the
//! remote TLB flush. Its fast-path cache does not extend the window: the
//! mutation bumped the generation, so the next `Enter` revalidates.
//!
//! Queue-vs-drain responsibilities: `serve` (the single-call mutating
//! tier) only *queues* invalidations — it never drains its own batch, so
//! consecutive shrinking calls keep coalescing (the whole point of the
//! TLB-gather discipline) and the caller decides the flush boundary by
//! calling [`ConcurrentMonitor::sync_shootdowns`]. A *ring drain* is
//! different: the batch is an explicit boundary, so
//! [`ConcurrentMonitor::ring_doorbell`] delivers the batch's coalesced
//! shootdown round itself before returning.
//!
//! ## Batched submission rings
//!
//! The TNIC-style doorbell path for mutation-heavy cores: workers
//! [`submit`](ConcurrentMonitor::submit) mutating calls into a per-core
//! ring (paying only the core-local `ring_enqueue` cost), and the ring
//! is drained as one batch — by an explicit
//! [`ring_doorbell`](ConcurrentMonitor::ring_doorbell) or automatically
//! when the ring reaches its configured depth. A drain charges **one**
//! trap crossing for the whole batch (each entry then pays its operation
//! cost minus the per-call trap, plus `ring_dispatch`), holds the write
//! lock **once**, is placed in model time over the batch's involved-set
//! union (pre-batch state) at most once — one `lock_handoff` — and
//! coalesces every entry's invalidations into one shootdown round.
//! Read-tier and transition calls are never enqueued:
//! they have their own no-lock tiers, and their results are needed
//! synchronously to know what the core runs next.
//!
//! A fast transition never traps into the monitor, so the inner
//! monitor's per-core "current domain" still names the caller. A domain
//! entered through the fast path must *return* before issuing mutating
//! hypercalls: `serve` refuses (Denied) when the SMP view and the inner
//! monitor disagree about who is running on the core, rather than let a
//! hypercall execute with the wrong actor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tyche_core::engine::CapEngine;
use tyche_core::ids::{CapId, DomainId};
use tyche_core::shared::SHARDS;
use tyche_core::trace::{EventKind, TraceSink};
use tyche_core::RevocationPolicy;
use tyche_hw::cycles::{CostModel, PerCoreClocks, SmpClocks, Start};

use crate::abi::{MonitorCall, Status};
use crate::monitor::{Arch, CallResult, Monitor};

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fast-path stack frame mirrored per core.
struct SmpFrame {
    caller: DomainId,
    fast: bool,
}

/// Per-core SMP state, behind the core's one lock: which domain this
/// core believes it is running, the fast-transition stack, the
/// validated caches, the submission ring and the invalidation batch.
struct SmpCore {
    current: DomainId,
    stack: Vec<SmpFrame>,
    /// `(engine generation, actor, cap)` → `(target, entry)`; valid only
    /// while the generation matches.
    cache: Option<(u64, DomainId, CapId, DomainId, u64)>,
    /// `(engine generation, actor)` → how many resources `Enumerate`
    /// reported; valid only while the generation matches.
    enumerated: Option<(u64, DomainId, u64)>,
    /// Involved-set scratch, reused by every mutation this core serves.
    involved: Involved,
    /// A ring drain's union of involved domains and of shootdown
    /// targets across its entries.
    batch_domains: Vec<DomainId>,
    batch_losers: Vec<DomainId>,
    /// Mutating calls submitted and not yet drained.
    ring: Vec<MonitorCall>,
    /// Domains whose translations this core shrank since its last
    /// shootdown sync, ascending and deduplicated. The shrinking core
    /// owns the batch (like per-CPU TLB gather), so IPI counts never
    /// depend on which core syncs first; the buffer is handed back
    /// after a sync, so steady queueing allocates nothing.
    pending: Vec<DomainId>,
}

/// The domains one mutating call touches and the subset that *loses*
/// translations (shootdown targets), both ascending and deduplicated,
/// plus the walk stack a revoke needs. Kept per core so a steady stream
/// of mutations allocates nothing here.
#[derive(Debug, Default)]
struct Involved {
    domains: Vec<DomainId>,
    losers: Vec<DomainId>,
    walk: Vec<CapId>,
}

impl Involved {
    /// Computes the sets for `call` issued by `actor` against the **one**
    /// engine state passed in — never a fresh read per cap, which could
    /// mix generations within a single computation and under-compute
    /// shootdown targets. The involved set is conservative (a superset
    /// only costs simulated contention, never correctness: the inner
    /// lock serializes every mutation) but tight enough that
    /// distinct-domain workloads stay on disjoint shards. The loser set
    /// mirrors the backends' flush rule: map-only changes (share, split,
    /// create) never shoot down; grant strips the granter, revoke strips
    /// the subtree owners, kill strips the dead domain.
    fn compute(&mut self, snap: &CapEngine, actor: DomainId, call: &MonitorCall) {
        let Involved {
            domains,
            losers,
            walk,
        } = self;
        domains.clear();
        losers.clear();
        domains.push(actor);
        match call {
            MonitorCall::Share { cap, target, .. } => {
                domains.push(*target);
                if let Some(c) = snap.cap(*cap) {
                    domains.push(c.owner);
                }
            }
            MonitorCall::Grant { cap, target, .. } => {
                domains.push(*target);
                if let Some(c) = snap.cap(*cap) {
                    domains.push(c.owner);
                    if matches!(c.resource, tyche_core::Resource::Memory(_)) {
                        losers.push(c.owner);
                    }
                }
            }
            MonitorCall::Revoke { cap } => {
                // Owners across the revoked subtree, all from the same
                // generation.
                walk.clear();
                walk.push(*cap);
                while let Some(id) = walk.pop() {
                    if let Some(c) = snap.cap(id) {
                        domains.push(c.owner);
                        if c.active && matches!(c.resource, tyche_core::Resource::Memory(_)) {
                            losers.push(c.owner);
                        }
                        walk.extend(c.children.iter().copied());
                    }
                }
            }
            MonitorCall::Kill { domain } => {
                domains.push(*domain);
                losers.push(*domain);
            }
            MonitorCall::Seal { domain, .. }
            | MonitorCall::SetEntry { domain, .. }
            | MonitorCall::RecordContent { domain, .. }
            | MonitorCall::Attest { domain, .. } => {
                domains.push(*domain);
            }
            MonitorCall::MakeTransition { target, .. } => {
                domains.push(*target);
            }
            MonitorCall::Enter { cap } => {
                if let Some(c) = snap.cap(*cap) {
                    if let tyche_core::Resource::Transition(t) = c.resource {
                        domains.push(t);
                    }
                }
            }
            MonitorCall::Split { .. }
            | MonitorCall::CreateDomain
            | MonitorCall::Return
            | MonitorCall::Enumerate => {}
        }
        domains.sort_unstable();
        domains.dedup();
        losers.sort_unstable();
        losers.dedup();
    }
}

/// Aggregate counters, all atomics so workers update them lock-free.
#[derive(Default)]
pub struct SmpStats {
    /// Hypercalls served (all tiers).
    pub calls: AtomicU64,
    /// Mutating hypercalls that went through the inner monitor.
    pub mutations: AtomicU64,
    /// Fast (per-core, no-lock) transitions, one per one-way switch.
    pub fast_transitions: AtomicU64,
    /// `Enumerate` calls answered from the core's slot.
    pub enumerate_hits: AtomicU64,
    /// Domain invalidations queued for shootdown (pre-coalescing).
    pub shootdowns_requested: AtomicU64,
    /// Remote IPIs actually sent (post-coalescing).
    pub ipis_sent: AtomicU64,
    /// Mutations that had to wait on a busy shard clock.
    pub shard_waits: AtomicU64,
    /// Calls enqueued into a submission ring.
    pub ring_submitted: AtomicU64,
    /// Ring batches drained (each = one trap crossing, one write-lock
    /// hold, one shootdown round).
    pub ring_batches: AtomicU64,
}

impl SmpStats {
    fn bump(counter: &AtomicU64) {
        // verify: relaxed-ok SMP statistics counter; never synchronizes monitor state
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter (for reports).
    pub fn get(counter: &AtomicU64) -> u64 {
        // verify: relaxed-ok report-time read; counters are advisory
        counter.load(Ordering::Relaxed)
    }
}

/// The SMP serving layer. See the module docs for the tier and locking
/// model.
pub struct ConcurrentMonitor {
    inner: RwLock<Monitor>,
    /// One lock per core.
    cores: Vec<Mutex<SmpCore>>,
    /// Core and shard clocks (shares the inner machine's core clocks).
    smp: SmpClocks,
    /// Engine generation after the most recent committed mutation.
    live_gen: AtomicU64,
    /// Ring depth at which `submit` force-drains the ring.
    ring_depth: usize,
    /// Counters.
    pub stats: SmpStats,
    /// Trace sink (clone of the inner monitor's; lock-free to emit into,
    /// so fast-tier events need no inner lock).
    trace: TraceSink,
    arch: Arch,
    cost: CostModel,
}

/// See [`ConcurrentMonitor::epochs`]: holds no lock and no atomic.
#[doc(hidden)]
pub struct Epochs;

impl Epochs {
    /// Engine copies published: always 0.
    pub fn published(&self) -> u64 {
        0
    }

    /// Engine copies awaiting reclamation: always 0.
    pub fn retired_len(&self) -> usize {
        0
    }
}

/// What [`ConcurrentMonitor::submit`] did with a call.
#[derive(Debug)]
pub enum RingOutcome {
    /// Enqueued into the core's ring; the value is the ring occupancy
    /// after the push. Results arrive at the next drain.
    Queued(usize),
    /// Not ring-eligible (read tier or transition): served inline.
    Completed(Result<CallResult, Status>),
    /// The push filled the ring and triggered a drain; results for the
    /// whole batch, in submission order.
    Drained(Vec<Result<CallResult, Status>>),
}

impl ConcurrentMonitor {
    /// Default submission-ring depth: deep enough to amortize the trap
    /// crossing well below 10% per entry, shallow enough that a drain's
    /// critical section stays short.
    pub const DEFAULT_RING_DEPTH: usize = 16;

    /// Wraps a booted monitor for SMP serving with the default shard
    /// count and ring depth. Each core's SMP view starts at the domain
    /// the inner monitor has current on that core.
    pub fn new(monitor: Monitor) -> Self {
        Self::with_config(monitor, SHARDS, Self::DEFAULT_RING_DEPTH)
    }

    /// Full-control constructor: `nshards` shard clocks for the model
    /// (see [`SmpClocks::new`]) and `ring_depth` (at least one) for the
    /// per-core submission rings. The SMP benches sweep both.
    pub fn with_config(monitor: Monitor, nshards: usize, ring_depth: usize) -> Self {
        let cost = monitor.machine.cost;
        let smp = SmpClocks::new(
            monitor.machine.core_clocks.clone(),
            nshards,
            cost.lock_handoff,
        );
        let cores = (0..monitor.machine.cores)
            .map(|core| {
                Mutex::new(SmpCore {
                    current: monitor.current_domain(core),
                    stack: Vec::new(),
                    cache: None,
                    enumerated: None,
                    involved: Involved::default(),
                    batch_domains: Vec::new(),
                    batch_losers: Vec::new(),
                    ring: Vec::new(),
                    pending: Vec::new(),
                })
            })
            .collect();
        ConcurrentMonitor {
            cores,
            smp,
            live_gen: AtomicU64::new(monitor.engine.generation()),
            ring_depth: ring_depth.max(1),
            stats: SmpStats::default(),
            trace: monitor.trace().clone(),
            arch: monitor.arch(),
            cost,
            inner: RwLock::new(monitor),
        }
    }

    /// The configured submission-ring depth.
    pub fn ring_depth(&self) -> usize {
        self.ring_depth
    }

    /// Engine-copy publication counts. Both read 0 because nothing
    /// publishes or retires a copy of the engine. Exists only for the
    /// `shared.*` layer rows that `perfbench/src/smp.rs` still reads,
    /// and is deleted together with those rows (ROADMAP item 0).
    #[doc(hidden)]
    pub fn epochs(&self) -> Epochs {
        Epochs
    }

    /// Number of modeled cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The per-core simulated clocks (shared with the inner machine).
    pub fn clocks(&self) -> &PerCoreClocks {
        self.smp.cores()
    }

    /// The machine makespan so far: max over all core clocks.
    pub fn makespan(&self) -> u64 {
        self.smp.makespan()
    }

    /// Runs `f` with read access to the inner monitor (blocks mutations
    /// for the duration; use for assertions and teardown, not serving).
    pub fn with_inner<R>(&self, f: impl FnOnce(&Monitor) -> R) -> R {
        f(&read_lock(&self.inner))
    }

    /// Unwraps back into the inner [`Monitor`] (e.g. for a final
    /// `audit()` / `audit_hardware()` pass after workers joined).
    pub fn finish(self) -> Monitor {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves one hypercall issued by the domain running on `core`.
    pub fn serve(&self, core: usize, call: MonitorCall) -> Result<CallResult, Status> {
        if core >= self.cores.len() {
            return Err(Status::InvalidArg);
        }
        SmpStats::bump(&self.stats.calls);
        match call {
            MonitorCall::Enumerate => self.serve_enumerate(core),
            MonitorCall::Enter { cap } => self.serve_enter(core, cap),
            MonitorCall::Return => self.serve_return(core),
            other => self.serve_mutating(core, other),
        }
    }

    /// Read tier: enumerate on the live engine under the inner lock's
    /// read side, or answer a repeat from the core's slot while the
    /// generation it was filled at is still live. Charges the trap cost
    /// to the calling core's clock either way; takes no shard lock and
    /// never copies the engine.
    fn serve_enumerate(&self, core: usize) -> Result<CallResult, Status> {
        let start = self.clocks().now(core);
        self.clocks().charge(core, self.arch.trap_cost(&self.cost));
        let mut state = mutex_lock(self.core_state(core)?);
        let actor = state.current;
        let leaf = MonitorCall::Enumerate.encode().0;
        self.trace.emit(
            core as u32,
            EventKind::HyperEnter {
                leaf,
                actor: actor.0,
            },
        );
        let live = self.live_gen.load(Ordering::Acquire);
        let res = match state.enumerated {
            Some((g, a, count)) if g == live && a == actor => {
                SmpStats::bump(&self.stats.enumerate_hits);
                #[cfg(debug_assertions)]
                self.recheck_enumerated(actor, g, count);
                self.trace
                    .emit(core as u32, EventKind::SnapRead { gen: live });
                Ok(count)
            }
            _ => {
                // The generation is read under the same guard, so the
                // slot is keyed to exactly the state it counted.
                let inner = read_lock(&self.inner);
                let gen = inner.engine.generation();
                self.trace.emit(core as u32, EventKind::SnapRead { gen });
                let res = inner
                    .engine
                    .enumerate(actor)
                    .map(|resources| resources.len() as u64)
                    .map_err(crate::monitor::cap_status);
                if let Ok(count) = res {
                    state.enumerated = Some((gen, actor, count));
                }
                res
            }
        };
        let code = match &res {
            Ok(_) => 0,
            Err(s) => *s as u64,
        };
        let cycles = self.clocks().now(core).saturating_sub(start);
        self.trace
            .emit(core as u32, EventKind::HyperExit { leaf, code, cycles });
        res.map(CallResult::Count)
    }

    /// Debug builds re-enumerate every slot hit whose generation is
    /// still the engine's and require the same count.
    #[cfg(debug_assertions)]
    fn recheck_enumerated(&self, actor: DomainId, gen: u64, count: u64) {
        let inner = read_lock(&self.inner);
        if inner.engine.generation() == gen {
            let fresh = inner.engine.enumerate(actor).map(|r| r.len() as u64);
            assert_eq!(
                fresh,
                Ok(count),
                "stale enumerate slot for {actor} at {gen}"
            );
        }
    }

    fn core_state(&self, core: usize) -> Result<&Mutex<SmpCore>, Status> {
        self.cores.get(core).ok_or(Status::InvalidArg)
    }

    /// Fast-or-mediated enter. A cache hit touches only this core's
    /// state; a miss validates on the live engine under the inner lock's
    /// read side. Flush-policy transitions and non-x86 architectures fall
    /// back to the mediated (mutating) tier.
    fn serve_enter(&self, core: usize, cap: CapId) -> Result<CallResult, Status> {
        if self.arch == Arch::X86 {
            let mut state = mutex_lock(self.core_state(core)?);
            let actor = state.current;
            let gen = self.live_gen.load(Ordering::Acquire);
            let hit = match state.cache {
                Some((g, a, c, target, entry)) if g == gen && a == actor && c == cap => {
                    Some((target, entry))
                }
                _ => None,
            };
            let validated = match hit {
                Some(v) => {
                    self.trace.emit(
                        core as u32,
                        EventKind::CacheHit {
                            actor: actor.0,
                            cap: cap.0,
                            gen,
                        },
                    );
                    Some(v)
                }
                None => {
                    // Validate on the live engine. The generation is read
                    // under the same guard, so the cache entry is keyed to
                    // exactly the state it was validated against.
                    let (gen, checked) = {
                        let inner = read_lock(&self.inner);
                        (
                            inner.engine.generation(),
                            inner.engine.can_enter(actor, cap, core),
                        )
                    };
                    match checked {
                        Ok((target, entry, policy)) if policy == RevocationPolicy::NONE => {
                            state.cache = Some((gen, actor, cap, target, entry));
                            self.trace.emit(
                                core as u32,
                                EventKind::CacheFill {
                                    actor: actor.0,
                                    cap: cap.0,
                                    gen,
                                },
                            );
                            Some((target, entry))
                        }
                        // Flush policies need the monitor in the loop:
                        // fall through to the mediated tier below.
                        Ok(_) => None,
                        Err(e) => return Err(crate::monitor::cap_status(e)),
                    }
                }
            };
            if let Some((target, entry)) = validated {
                self.clocks().charge(core, self.cost.vmfunc_switch);
                state.stack.push(SmpFrame {
                    caller: actor,
                    fast: true,
                });
                state.current = target;
                SmpStats::bump(&self.stats.fast_transitions);
                self.trace.emit(
                    core as u32,
                    EventKind::Enter {
                        from: actor.0,
                        to: target.0,
                        fast: true,
                    },
                );
                return Ok(CallResult::Entered { target, entry });
            }
        }
        self.serve_mutating(core, MonitorCall::Enter { cap })
    }

    /// Return: fast if the top frame was entered fast, mediated
    /// otherwise.
    fn serve_return(&self, core: usize) -> Result<CallResult, Status> {
        let mut state = mutex_lock(self.core_state(core)?);
        let Some(frame) = state.stack.pop_if(|f| f.fast) else {
            drop(state);
            return self.serve_mutating(core, MonitorCall::Return);
        };
        self.clocks().charge(core, self.cost.vmfunc_switch);
        let leaving = state.current;
        state.current = frame.caller;
        SmpStats::bump(&self.stats.fast_transitions);
        self.trace.emit(
            core as u32,
            EventKind::Return {
                from: leaving.0,
                to: frame.caller.0,
                fast: true,
            },
        );
        Ok(CallResult::Returned { to: frame.caller })
    }

    /// Mutation tier: the inner monitor's write lock, then the involved
    /// and loser sets computed once against the state the call runs on,
    /// with the discrete-event timing described in the module docs.
    fn serve_mutating(&self, core: usize, call: MonitorCall) -> Result<CallResult, Status> {
        let mut state = mutex_lock(self.core_state(core)?);
        let actor = state.current;
        let mut inner = write_lock(&self.inner);
        // A fast-entered domain has not trapped into the monitor: the
        // inner monitor still has its caller current on this core, so a
        // mutating hypercall would execute as the wrong actor. It must
        // return first. The refusal still leaves a hypercall bracket in
        // the trace — an attempted mutation the observability layer
        // cannot see is exactly what the trace-completeness argument
        // forbids.
        if inner.current_domain(core) != actor {
            self.trace_denied(core, actor, std::slice::from_ref(&call));
            return Err(Status::Denied);
        }
        let SmpCore {
            involved,
            stack,
            current,
            pending,
            ..
        } = &mut *state;
        involved.compute(&inner.engine, actor, &call);
        let start = self.start(core, &involved.domains);
        // The inner call charges the machine-global counter; the delta
        // is this operation's cost, re-charged to the core's timeline.
        let before = inner.machine.cycles.now();
        let result = inner.call(core, call);
        let dt = inner.machine.cycles.since(before);
        self.smp.finish(start, core, &involved.domains, dt);
        // Only the generation is recorded; nothing copies the engine.
        self.live_gen
            .store(inner.engine.generation(), Ordering::Release);
        drop(inner);
        SmpStats::bump(&self.stats.mutations);
        // Mirror mediated transitions into the SMP view.
        match &result {
            Ok(CallResult::Entered { target, .. }) => {
                stack.push(SmpFrame {
                    caller: actor,
                    fast: false,
                });
                *current = *target;
            }
            Ok(CallResult::Returned { to }) => {
                stack.pop();
                *current = *to;
            }
            _ => {}
        }
        // Translation-shrinking ops queue the domains that *lost* access
        // for a batched cross-core shootdown instead of IPI-ing inline.
        if result.is_ok() {
            self.queue_shootdowns(core, pending, &involved.losers);
        }
        result
    }

    /// Leaves a `HyperEnter`/`HyperExit(Denied)` bracket per refused
    /// call: a fast-entered domain must return before mutating.
    fn trace_denied(&self, core: usize, actor: DomainId, calls: &[MonitorCall]) {
        for call in calls {
            let leaf = call.encode().0;
            self.trace.emit(
                core as u32,
                EventKind::HyperEnter {
                    leaf,
                    actor: actor.0,
                },
            );
            self.trace.emit(
                core as u32,
                EventKind::HyperExit {
                    leaf,
                    code: Status::Denied as u64,
                    cycles: 0,
                },
            );
        }
    }

    /// Places a call over `domains` in model time. A wait behind a busy
    /// shard is counted and traced where the call would block.
    fn start(&self, core: usize, domains: &[DomainId]) -> Start {
        let start = self.smp.start(core, domains);
        if let Some(shard) = start.waited_on.map(|s| s as u64) {
            SmpStats::bump(&self.stats.shard_waits);
            self.trace.emit(core as u32, EventKind::ShardWait { shard });
        }
        start
    }

    /// Adds `losers` (ascending, deduplicated) to `core`'s invalidation
    /// batch `pending`.
    fn queue_shootdowns(&self, core: usize, pending: &mut Vec<DomainId>, losers: &[DomainId]) {
        for &d in losers {
            SmpStats::bump(&self.stats.shootdowns_requested);
            if let Err(at) = pending.binary_search(&d) {
                pending.insert(at, d);
                self.trace
                    .emit(core as u32, EventKind::ShootQueue { domain: d.0 });
            }
        }
    }

    /// Submits a call through `core`'s doorbell ring. Read-tier and
    /// transition calls are served inline — they have their own no-lock
    /// tiers and the core needs their results synchronously — and
    /// everything else is enqueued (core-local `ring_enqueue` cost) to
    /// be served in submission order at the next drain. Reaching the
    /// configured ring depth force-drains inline.
    pub fn submit(&self, core: usize, call: MonitorCall) -> RingOutcome {
        match call {
            MonitorCall::Enumerate | MonitorCall::Enter { .. } | MonitorCall::Return => {
                RingOutcome::Completed(self.serve(core, call))
            }
            mutating => {
                let Ok(slot) = self.core_state(core) else {
                    return RingOutcome::Completed(Err(Status::InvalidArg));
                };
                self.clocks().charge(core, self.cost.ring_enqueue);
                SmpStats::bump(&self.stats.ring_submitted);
                let occupancy = {
                    let mut state = mutex_lock(slot);
                    state.ring.push(mutating);
                    state.ring.len()
                };
                if occupancy >= self.ring_depth {
                    RingOutcome::Drained(self.ring_doorbell(core))
                } else {
                    RingOutcome::Queued(occupancy)
                }
            }
        }
    }

    /// Rings `core`'s doorbell: drains every queued call as one batch
    /// under one write-lock hold — one trap crossing, at most one lock
    /// hand-off, and one coalesced shootdown round delivered before
    /// returning — and returns the per-call results in submission order.
    /// Empty ring ⇒ empty vec.
    ///
    /// The batch is placed in model time over the union of every
    /// entry's involved set at the pre-batch state (intra-batch
    /// mutations may shift ownership, but shards only model contention,
    /// so that union is the batch's footprint); shootdown targets come
    /// per entry from the state that entry executes against.
    pub fn ring_doorbell(&self, core: usize) -> Vec<Result<CallResult, Status>> {
        let Ok(slot) = self.core_state(core) else {
            return Vec::new();
        };
        let mut state = mutex_lock(slot);
        let batch = std::mem::take(&mut state.ring);
        if batch.is_empty() {
            return Vec::new();
        }
        let actor = state.current;
        let mut inner = write_lock(&self.inner);
        // Same refusal rule as the single-call tier: a fast-entered
        // domain must return before mutating. Each refused entry still
        // leaves a hypercall bracket in the trace.
        if inner.current_domain(core) != actor {
            self.trace_denied(core, actor, &batch);
            return batch.iter().map(|_| Err(Status::Denied)).collect();
        }
        let SmpCore {
            involved,
            batch_domains,
            batch_losers,
            pending,
            ..
        } = &mut *state;
        batch_domains.clear();
        batch_losers.clear();
        for call in &batch {
            involved.compute(&inner.engine, actor, call);
            batch_domains.extend_from_slice(&involved.domains);
        }
        batch_domains.sort_unstable();
        batch_domains.dedup();
        let start = self.start(core, batch_domains);
        // One doorbell trap crossing for the whole batch; each entry
        // then pays its operation cost *minus* the per-call trap the
        // inner monitor charges, plus the ring dispatch overhead.
        let trap = self.arch.trap_cost(&self.cost);
        let mut charged = trap;
        let mut results = Vec::with_capacity(batch.len());
        for call in &batch {
            SmpStats::bump(&self.stats.calls);
            // Shootdown targets come from the live state this entry
            // executes against: an earlier entry may already have moved
            // ownership. A lone entry's sets are still current from the
            // union pass.
            if batch.len() > 1 {
                involved.compute(&inner.engine, actor, call);
            }
            let before = inner.machine.cycles.now();
            let result = inner.call(core, *call);
            let dt = inner.machine.cycles.since(before);
            charged += dt.saturating_sub(trap) + self.cost.ring_dispatch;
            SmpStats::bump(&self.stats.mutations);
            if result.is_ok() {
                batch_losers.extend_from_slice(&involved.losers);
            }
            results.push(result);
        }
        self.live_gen
            .store(inner.engine.generation(), Ordering::Release);
        self.smp.finish(start, core, batch_domains, charged);
        SmpStats::bump(&self.stats.ring_batches);
        drop(inner);
        batch_losers.sort_unstable();
        batch_losers.dedup();
        self.queue_shootdowns(core, pending, batch_losers);
        // The sync below takes other cores' state locks, which rank with
        // this one: release it first.
        drop(state);
        // A batch is an explicit flush boundary: its invalidations are
        // already coalesced, so deliver the shootdown round now instead
        // of leaving the gather window open.
        self.sync_shootdowns(core);
        results
    }

    /// Drains `core`'s own invalidation batch and delivers one batched
    /// IPI round: every *other* core currently running an affected domain
    /// gets one IPI + remote flush, however many invalidations coalesced
    /// into the batch. Returns the number of IPIs sent. Each core flushes
    /// only what it shrank — the TLB-gather discipline — so IPI counts
    /// are a function of the workload, not of sync interleaving.
    pub fn sync_shootdowns(&self, core: usize) -> usize {
        let Ok(slot) = self.core_state(core) else {
            return 0;
        };
        let mut affected = std::mem::take(&mut mutex_lock(slot).pending);
        if affected.is_empty() {
            return 0;
        }
        // Snapshot each core's current domain one lock at a time (no
        // nested core locks, so this cannot deadlock against workers).
        let mut targets = Vec::new();
        for (i, other_core) in self.cores.iter().enumerate() {
            if i == core {
                continue;
            }
            let st = mutex_lock(other_core);
            if affected.binary_search(&st.current).is_ok() {
                targets.push(i);
            }
        }
        let sent = if targets.is_empty() {
            0
        } else {
            let m = read_lock(&self.inner);
            m.machine.shootdown(core, &targets)
        };
        // The batch event closes the core's gather window even when no
        // remote core was running an affected domain (zero IPIs) — the
        // RV shootdown checker keys on it.
        self.trace.emit(
            core as u32,
            EventKind::ShootBatch {
                drained: affected.len() as u64,
                ipis: sent as u64,
            },
        );
        for _ in 0..sent {
            SmpStats::bump(&self.stats.ipis_sent);
        }
        // Hand the drained buffer back so the next batch reuses it.
        affected.clear();
        let mut state = mutex_lock(slot);
        if state.pending.is_empty() {
            state.pending = affected;
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::{boot_x86, BootConfig};
    use std::sync::Arc;
    use tyche_core::{MemRegion, Resource, Rights, SealPolicy};

    /// Boots, creates one sealed child per core (each owning its core and
    /// a private memory window), and returns the wrapper plus per-core
    /// (domain, transition cap) pairs.
    fn smp_fixture() -> (ConcurrentMonitor, Vec<(DomainId, CapId)>) {
        let mut m = boot_x86(BootConfig::default());
        let root = m.engine.root().unwrap();
        let cores = m.machine.cores;
        let mut out = Vec::new();
        for core in 0..cores {
            let base = 0x40_0000 + (core as u64) * 0x10_000;
            let (child, gate) = m.engine.create_domain(root).unwrap();
            let ram_cap = m
                .engine
                .caps_of(root)
                .iter()
                .find(|c| {
                    c.active
                        && matches!(c.resource, Resource::Memory(r)
                            if r.start <= base && base + 0x10_000 <= r.end)
                })
                .map(|c| c.id)
                .unwrap();
            m.engine
                .share(
                    root,
                    ram_cap,
                    child,
                    Some(MemRegion::new(base, base + 0x10_000)),
                    Rights::RWX,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            let core_cap = m
                .engine
                .caps_of(root)
                .iter()
                .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
                .map(|c| c.id)
                .unwrap();
            m.engine
                .share(
                    root,
                    core_cap,
                    child,
                    None,
                    Rights::USE,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            m.engine.set_entry(root, child, base).unwrap();
            m.engine.seal(root, child, SealPolicy::strict()).unwrap();
            m.sync_effects().unwrap();
            out.push((child, gate));
        }
        (ConcurrentMonitor::new(m), out)
    }

    #[test]
    fn degenerate_config_clamps_and_serves() {
        // Zero shards and a zero-depth ring clamp to one of each.
        let cm = ConcurrentMonitor::with_config(boot_x86(BootConfig::default()), 0, 0);
        assert_eq!(cm.ring_depth(), 1);
        let domains = || cm.with_inner(|m| m.engine.domains().count());
        let before = domains();
        assert!(matches!(
            cm.serve(0, MonitorCall::CreateDomain),
            Ok(CallResult::NewDomain { .. })
        ));
        assert!(matches!(
            cm.submit(0, MonitorCall::CreateDomain),
            RingOutcome::Drained(r) if r.len() == 1
        ));
        assert_eq!(domains(), before + 2);
    }

    #[test]
    fn fast_transitions_stay_per_core() {
        let (cm, doms) = smp_fixture();
        let (_, cap0) = doms[0];
        let before_other = cm.clocks().now(1);
        match cm.serve(0, MonitorCall::Enter { cap: cap0 }) {
            Ok(CallResult::Entered { .. }) => {}
            other => panic!("fast enter failed: {other:?}"),
        }
        match cm.serve(0, MonitorCall::Return) {
            Ok(CallResult::Returned { .. }) => {}
            other => panic!("fast return failed: {other:?}"),
        }
        assert_eq!(SmpStats::get(&cm.stats.fast_transitions), 2);
        assert_eq!(SmpStats::get(&cm.stats.mutations), 0);
        let vmfunc = tyche_hw::cycles::CostModel::default_model().vmfunc_switch;
        assert_eq!(cm.clocks().now(0), 2 * vmfunc);
        assert_eq!(cm.clocks().now(1), before_other, "core 1 untouched");
    }

    /// `Enumerate` as whoever runs on `core`, as a count.
    fn count(cm: &ConcurrentMonitor, core: usize) -> u64 {
        match cm.serve(core, MonitorCall::Enumerate) {
            Ok(CallResult::Count(n)) => n,
            other => panic!("enumerate on core {core}: {other:?}"),
        }
    }

    /// What the live engine reports for `actor`, bypassing every slot.
    fn engine_count(cm: &ConcurrentMonitor, actor: DomainId) -> u64 {
        cm.with_inner(|m| m.engine.enumerate(actor).map(|r| r.len() as u64))
            .unwrap()
    }

    fn enumerate_hits(cm: &ConcurrentMonitor) -> u64 {
        SmpStats::get(&cm.stats.enumerate_hits)
    }

    #[test]
    fn enumerate_burst_hits_seven_of_eight() {
        let (cm, doms) = smp_fixture();
        let (d0, cap0) = doms[0];
        let expected = engine_count(&cm, d0);
        cm.trace.enable(cm.cores());
        let mut brackets = Vec::new();
        for _ in 0..8 {
            cm.serve(0, MonitorCall::Enter { cap: cap0 }).unwrap();
            cm.trace.drain();
            assert_eq!(count(&cm, 0), expected);
            brackets.push(
                cm.trace
                    .drain()
                    .events()
                    .iter()
                    .map(|e| (e.core, e.kind))
                    .collect::<Vec<_>>(),
            );
            cm.serve(0, MonitorCall::Return).unwrap();
        }
        cm.trace.disable();
        assert_eq!(enumerate_hits(&cm), 7, "one miss per visit, then hits");
        // A hit leaves the same trace and charges the same cycles as
        // the miss that filled the slot.
        let gen = cm.live_gen.load(Ordering::Acquire);
        assert!(matches!(
            brackets[0].as_slice(),
            [
                (0, EventKind::HyperEnter { .. }),
                (0, EventKind::SnapRead { gen: g }),
                (0, EventKind::HyperExit { code: 0, .. }),
            ] if *g == gen
        ));
        assert!(brackets.iter().all(|b| *b == brackets[0]), "{brackets:?}");
        assert_eq!(SmpStats::get(&cm.stats.mutations), 0);
    }

    #[test]
    fn mutation_on_another_core_invalidates_the_slot() {
        let (cm, doms) = smp_fixture();
        let root = cm.with_inner(|m| m.engine.root().unwrap());
        let ram = cm.with_inner(|m| {
            m.engine
                .caps_of(root)
                .iter()
                .find(|c| c.active && matches!(c.resource, Resource::Memory(_)))
                .map(|c| c.id)
                .unwrap()
        });
        let before = count(&cm, 0);
        assert_eq!(count(&cm, 0), before);
        assert_eq!(enumerate_hits(&cm), 1);
        // A share to the actor, served on core 1, adds a resource.
        let page = match cm.serve(
            1,
            MonitorCall::Share {
                cap: ram,
                target: root,
                sub: Some((0x1000, 0x2000)),
                rights: Rights::RW,
                policy: RevocationPolicy::NONE,
            },
        ) {
            Ok(CallResult::Cap(c)) => c,
            other => panic!("share: {other:?}"),
        };
        assert_eq!(count(&cm, 0), before + 1, "share seen");
        assert_eq!(count(&cm, 0), before + 1);
        assert_eq!(enumerate_hits(&cm), 2);
        // A revoke on core 1 takes it away again.
        cm.serve(1, MonitorCall::Revoke { cap: page }).unwrap();
        assert_eq!(count(&cm, 0), before, "revoke seen");
        assert_eq!(enumerate_hits(&cm), 2);
        // A kill on core 1 changes the actor's transition capabilities.
        let (d2, _) = doms[2];
        cm.serve(1, MonitorCall::Kill { domain: d2 }).unwrap();
        let after_kill = count(&cm, 0);
        assert_eq!(enumerate_hits(&cm), 2, "kill invalidated the slot");
        assert_eq!(after_kill, engine_count(&cm, root));
        assert_ne!(after_kill, before, "the kill is visible in the count");
    }

    #[test]
    fn two_actors_on_one_core_never_share_a_slot() {
        let (cm, doms) = smp_fixture();
        let (d0, cap0) = doms[0];
        let root = cm.with_inner(|m| m.engine.root().unwrap());
        let (root_n, d0_n) = (engine_count(&cm, root), engine_count(&cm, d0));
        assert_ne!(root_n, d0_n, "the fixture tells the actors apart");
        for _ in 0..3 {
            assert_eq!(count(&cm, 0), root_n);
            cm.serve(0, MonitorCall::Enter { cap: cap0 }).unwrap();
            assert_eq!(count(&cm, 0), d0_n);
            cm.serve(0, MonitorCall::Return).unwrap();
        }
        assert_eq!(enumerate_hits(&cm), 0, "alternating actors always miss");
        assert_eq!(count(&cm, 0), root_n);
        assert_eq!(count(&cm, 0), root_n);
        assert_eq!(enumerate_hits(&cm), 1, "a repeat by the same actor hits");
    }

    #[test]
    fn enumerate_errors_are_not_cached() {
        let (cm, doms) = smp_fixture();
        let (d0, cap0) = doms[0];
        cm.serve(0, MonitorCall::Enter { cap: cap0 }).unwrap();
        assert_eq!(count(&cm, 0), engine_count(&cm, d0));
        let filled = mutex_lock(&cm.cores[0]).enumerated;
        // Root kills the running domain from core 1: enumerating as it
        // now fails, and keeps failing without touching the slot.
        cm.serve(1, MonitorCall::Kill { domain: d0 }).unwrap();
        for _ in 0..2 {
            assert_eq!(cm.serve(0, MonitorCall::Enumerate), Err(Status::NotFound));
        }
        assert_eq!(mutex_lock(&cm.cores[0]).enumerated, filled);
        assert_eq!(enumerate_hits(&cm), 0);
    }

    #[test]
    fn mutating_call_denied_while_fast_entered() {
        let (cm, doms) = smp_fixture();
        let (_, cap0) = doms[0];
        cm.serve(0, MonitorCall::Enter { cap: cap0 }).unwrap();
        // The fast-entered child never trapped in; the inner monitor
        // still has root current. Mutations must be refused, not run as
        // the wrong actor — and the refusal must still leave a
        // HyperEnter/HyperExit bracket, or the RV replay would never see
        // the attempt.
        cm.trace.enable(cm.cores());
        assert_eq!(cm.serve(0, MonitorCall::CreateDomain), Err(Status::Denied));
        let leaf = MonitorCall::CreateDomain.encode().0;
        let events = cm.trace.drain();
        assert!(
            events
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::HyperEnter { leaf: l, .. } if l == leaf)),
            "denied mutation left no HyperEnter: {events:?}"
        );
        assert!(
            events.events().iter().any(|e| matches!(
                e.kind,
                EventKind::HyperExit { leaf: l, code, .. }
                    if l == leaf && code == Status::Denied as u64
            )),
            "denied mutation left no HyperExit with the Denied code: {events:?}"
        );
        cm.trace.disable();
        cm.serve(0, MonitorCall::Return).unwrap();
        assert!(matches!(
            cm.serve(0, MonitorCall::CreateDomain),
            Ok(CallResult::NewDomain { .. })
        ));
    }

    #[test]
    fn concurrent_serving_stays_auditable() {
        let (cm, doms) = smp_fixture();
        let cm = Arc::new(cm);
        let workers: Vec<_> = (0..cm.cores())
            .map(|core| {
                let cm = Arc::clone(&cm);
                let (_, cap) = doms[core];
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        cm.serve(core, MonitorCall::Enter { cap }).unwrap();
                        cm.serve(core, MonitorCall::Return).unwrap();
                        match cm.serve(core, MonitorCall::CreateDomain) {
                            Ok(CallResult::NewDomain { domain, .. }) => {
                                cm.serve(core, MonitorCall::Kill { domain }).unwrap();
                            }
                            other => panic!("create failed: {other:?}"),
                        }
                        cm.serve(core, MonitorCall::Enumerate).unwrap();
                        cm.sync_shootdowns(core);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let cm = Arc::try_unwrap(cm).ok().expect("workers joined");
        let monitor = cm.finish();
        assert!(tyche_core::audit::audit(&monitor.engine).is_empty());
        assert!(monitor.audit_hardware().is_empty());
    }

    #[test]
    fn revoke_triggers_coalesced_shootdown() {
        let (cm, doms) = smp_fixture();
        let (d1, cap1) = doms[1];
        // Core 1 fast-enters its domain so a shootdown can target it.
        cm.serve(1, MonitorCall::Enter { cap: cap1 }).unwrap();
        // Root on core 0 revokes two of d1's capabilities; both queue
        // invalidations, but one sync sends a single IPI to core 1.
        let caps: Vec<CapId> = cm.with_inner(|m| {
            m.engine
                .caps_of(d1)
                .iter()
                .filter(|c| matches!(c.resource, tyche_core::Resource::Memory(_)))
                .map(|c| c.id)
                .collect()
        });
        for cap in caps {
            cm.serve(0, MonitorCall::Revoke { cap }).unwrap();
        }
        assert!(SmpStats::get(&cm.stats.shootdowns_requested) >= 1);
        let sent = cm.sync_shootdowns(0);
        assert_eq!(sent, 1, "batched invalidations coalesce to one IPI");
        assert_eq!(cm.sync_shootdowns(0), 0, "pending set drained");
    }

    /// The involved and loser sets of `call` against `snap`.
    #[cfg(debug_assertions)]
    fn involved_sets(
        snap: &CapEngine,
        actor: DomainId,
        call: &MonitorCall,
    ) -> (Vec<DomainId>, Vec<DomainId>) {
        let mut inv = Involved::default();
        inv.compute(snap, actor, call);
        (inv.domains, inv.losers)
    }

    /// Regression test for the torn-snapshot bug: the involved-set
    /// computation used to read the engine separately per cap, so a
    /// mutation committing between the lookups could make one
    /// computation mix two generations. `Involved::compute` takes the
    /// engine state as a parameter, which makes the result a pure
    /// function of one generation — interleaved mutations (modeled both
    /// with a real served call and with the corruption hooks) must not
    /// change it.
    #[cfg(debug_assertions)] // tampers through `CapEngine::corrupt_cap`
    #[test]
    fn involved_set_computed_at_one_generation() {
        let (cm, doms) = smp_fixture();
        let (d1, _) = doms[1];
        let root = cm.with_inner(|m| m.engine.root().unwrap());
        // One explicit copy, held across the interleaved revoke below.
        let snap = cm.with_inner(|m| m.engine.clone());
        let cap = snap
            .caps_of(d1)
            .iter()
            .find(|c| matches!(c.resource, Resource::Memory(_)))
            .map(|c| c.id)
            .unwrap();
        let call = MonitorCall::Revoke { cap };
        let before = involved_sets(&snap, root, &call);
        assert!(
            before.0.contains(&d1),
            "owner of the revoked cap is involved"
        );
        assert!(before.1.contains(&d1), "memory revocation shoots d1 down");
        // A mutation interleaves: the cap is revoked for real. The
        // computation against the *held* snapshot must not change.
        cm.serve(0, call).unwrap();
        let after = involved_sets(&snap, root, &call);
        assert_eq!(before, after, "one snapshot in => one generation out");
        // Same property under the corruption hooks: tampering a clone
        // (the interleaved-mutation stand-in the pre-fix code could
        // have observed mid-computation) changes the answer, proving
        // the per-cap re-read really could tear the set...
        let mut tampered = snap.clone();
        assert!(tampered.corrupt_cap(cap, |c| c.owner = root));
        let torn = involved_sets(&tampered, root, &call);
        assert_ne!(before, torn, "a different generation gives a different set");
        // ...while the held snapshot still answers as before.
        assert_eq!(involved_sets(&snap, root, &call), before);
    }

    #[test]
    fn ring_batch_amortizes_trap_crossings() {
        let (cm, _doms) = smp_fixture();
        let n = cm.ring_depth();
        // Fill the ring: the first n-1 submissions queue, the n-th
        // force-drains the whole batch.
        for i in 0..n - 1 {
            match cm.submit(0, MonitorCall::CreateDomain) {
                RingOutcome::Queued(occ) => assert_eq!(occ, i + 1),
                other => panic!("expected Queued, got {other:?}"),
            }
        }
        let results = match cm.submit(0, MonitorCall::CreateDomain) {
            RingOutcome::Drained(r) => r,
            other => panic!("expected Drained, got {other:?}"),
        };
        assert_eq!(results.len(), n);
        for r in &results {
            assert!(matches!(r, Ok(CallResult::NewDomain { .. })), "{r:?}");
        }
        assert_eq!(SmpStats::get(&cm.stats.ring_batches), 1);
        assert_eq!(SmpStats::get(&cm.stats.ring_submitted), n as u64);
        assert_eq!(SmpStats::get(&cm.stats.mutations), n as u64);
        let ring_cost = cm.clocks().now(0);
        // The same calls through the single-call tier on a fresh,
        // identical fixture: deterministic costs, so the saving is
        // exactly (n-1) trap crossings minus the ring overhead.
        let (cm2, _doms2) = smp_fixture();
        for _ in 0..n {
            cm2.serve(0, MonitorCall::CreateDomain).unwrap();
        }
        let solo_cost = cm2.clocks().now(0);
        let m = tyche_hw::cycles::CostModel::default_model();
        assert!(ring_cost < solo_cost, "batching must be cheaper");
        assert_eq!(
            solo_cost - ring_cost,
            (n as u64 - 1) * m.vmexit_roundtrip - n as u64 * (m.ring_enqueue + m.ring_dispatch),
            "batch pays one trap, plus per-entry enqueue+dispatch"
        );
    }

    #[test]
    fn ring_drain_coalesces_shootdowns_and_syncs() {
        let (cm, doms) = smp_fixture();
        let (d1, cap1) = doms[1];
        // Core 1 fast-enters its domain so a shootdown can target it.
        cm.serve(1, MonitorCall::Enter { cap: cap1 }).unwrap();
        let caps: Vec<CapId> = cm.with_inner(|m| {
            m.engine
                .caps_of(d1)
                .iter()
                .filter(|c| matches!(c.resource, tyche_core::Resource::Memory(_)))
                .map(|c| c.id)
                .collect()
        });
        assert!(!caps.is_empty());
        for cap in caps {
            match cm.submit(0, MonitorCall::Revoke { cap }) {
                RingOutcome::Queued(_) => {}
                other => panic!("expected Queued, got {other:?}"),
            }
        }
        let results = cm.ring_doorbell(0);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        // The drain is its own flush boundary: the coalesced IPI went
        // out with the batch, nothing is left to sync.
        assert_eq!(SmpStats::get(&cm.stats.ipis_sent), 1);
        assert_eq!(cm.sync_shootdowns(0), 0, "gather window already closed");
        assert!(cm.ring_doorbell(0).is_empty(), "ring fully drained");
    }

    #[test]
    fn ring_refused_while_fast_entered() {
        let (cm, doms) = smp_fixture();
        let (_, cap0) = doms[0];
        cm.serve(0, MonitorCall::Enter { cap: cap0 }).unwrap();
        match cm.submit(0, MonitorCall::CreateDomain) {
            RingOutcome::Queued(1) => {}
            other => panic!("expected Queued(1), got {other:?}"),
        }
        let results = cm.ring_doorbell(0);
        assert_eq!(results, vec![Err(Status::Denied)]);
        assert!(
            cm.ring_doorbell(0).is_empty(),
            "refused batch is not requeued"
        );
        cm.serve(0, MonitorCall::Return).unwrap();
        cm.submit(0, MonitorCall::CreateDomain);
        let retried = cm.ring_doorbell(0);
        assert!(matches!(
            retried.first(),
            Some(Ok(CallResult::NewDomain { .. }))
        ));
    }

    #[test]
    fn ring_results_in_submission_order_and_inline_tiers() {
        let (cm, doms) = smp_fixture();
        let (d1, _) = doms[1];
        // Read-tier calls bypass the ring entirely.
        match cm.submit(0, MonitorCall::Enumerate) {
            RingOutcome::Completed(Ok(CallResult::Count(_))) => {}
            other => panic!("expected inline Completed, got {other:?}"),
        }
        cm.submit(0, MonitorCall::CreateDomain);
        cm.submit(
            0,
            MonitorCall::MakeTransition {
                target: d1,
                policy: RevocationPolicy::NONE,
            },
        );
        let results = cm.ring_doorbell(0);
        assert_eq!(results.len(), 2, "inline enumerate never entered the ring");
        assert!(
            matches!(results[0], Ok(CallResult::NewDomain { .. })),
            "{results:?}"
        );
        assert!(matches!(results[1], Ok(CallResult::Cap(_))), "{results:?}");
    }
}
