//! SMP front-end: concurrent hypercall serving over one [`Monitor`].
//!
//! [`ConcurrentMonitor`] lets one worker thread per modeled core issue
//! hypercalls against a shared monitor. Three serving tiers:
//!
//! - **Read-only calls** (`Enumerate`) run on the live engine under the
//!   read side of the inner monitor's `RwLock`: no shard lock, and no
//!   copy of the engine. Read-only calls on different cores proceed
//!   together; they wait only while a mutation holds the write side.
//! - **Fast transitions** (`Enter` through a `NONE`-policy transition
//!   capability, and the matching `Return`) touch only per-core state:
//!   a validated entry is cached per core and keyed on the engine
//!   generation, a cache miss validates on the live engine under the
//!   read side, the VMFUNC switch is charged to the core's own clock,
//!   and a cache hit takes no shared lock at all. This is the paper's
//!   "fast (100 cycles) transitions" path, now per-core.
//! - **Mutations** (everything else) compute the involved domains on
//!   the live engine under a read guard they drop again, take the
//!   *shard locks* of every involved domain — in ascending shard order,
//!   the global rule that makes cross-domain grants and revokes
//!   deadlock-free — and then the inner monitor's write lock for the
//!   actual state change. A committed mutation only records the new
//!   engine generation. Domains route to shards by
//!   [`ConcurrentMonitor::shard_of_n`], a power-of-two mask.
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
//! ## Simulated-time contention model
//!
//! Correctness comes from the real locks; *cost* comes from the
//! discrete-event clock model. Each shard lock carries a simulated
//! clock: a mutation starts at `t0 = max(core clock, involved shard
//! clocks)` (+ a lock hand-off penalty if it had to wait), runs for the
//! operation's charged cycle count, and advances the core clock and
//! every involved shard clock to `t0 + dt`. Two cores mutating
//! *distinct* domains never share a shard clock and proceed in parallel
//! simulated time; two cores hammering the *same* domain serialize on
//! its shard clock exactly like a contended lock. The machine makespan
//! is `max` over core clocks. The engine object itself is still guarded
//! by one inner lock (it is a single data structure); the shard clocks
//! model the per-domain engine sharding the lock order is designed for,
//! and the whole-monitor-mutex baseline in `tyche-bench` models the
//! alternative where every call serializes on one global clock.
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
//! cost minus the per-call trap, plus `ring_dispatch`), takes the shard
//! locks of the batch's involved-set union **once**, pays at most one
//! `lock_handoff`, and coalesces every entry's invalidations into one
//! shootdown round. Read-tier and transition calls are never enqueued:
//! they have their own no-lock tiers, and their results are needed
//! synchronously to know what the core runs next.
//!
//! A fast transition never traps into the monitor, so the inner
//! monitor's per-core "current domain" still names the caller. A domain
//! entered through the fast path must *return* before issuing mutating
//! hypercalls: `serve` refuses (Denied) when the SMP view and the inner
//! monitor disagree about who is running on the core, rather than let a
//! hypercall execute with the wrong actor.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tyche_core::engine::CapEngine;
use tyche_core::ids::{CapId, DomainId};
use tyche_core::shared::SHARDS;
use tyche_core::trace::{EventKind, TraceSink};
use tyche_core::RevocationPolicy;
use tyche_hw::cycles::{CycleCounter, PerCoreClocks};

use crate::abi::{MonitorCall, Status};
use crate::monitor::{Arch, CallResult, Monitor};

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    match l.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// One shard: the real lock serializing conflicting mutations, plus the
/// simulated clock modeling when the shard is next free.
struct Shard {
    lock: Mutex<()>,
    clock: CycleCounter,
}

/// A fast-path stack frame mirrored per core.
struct SmpFrame {
    caller: DomainId,
    fast: bool,
}

/// Per-core SMP state: which domain this core believes it is running,
/// the fast-transition stack, and the validated fast-path cache.
struct SmpCore {
    current: DomainId,
    stack: Vec<SmpFrame>,
    /// `(engine generation, actor, cap)` → `(target, entry)`; valid only
    /// while the generation matches.
    cache: Option<(u64, DomainId, CapId, DomainId, u64)>,
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
    /// Domain invalidations queued for shootdown (pre-coalescing).
    pub shootdowns_requested: AtomicU64,
    /// Remote IPIs actually sent (post-coalescing).
    pub ipis_sent: AtomicU64,
    /// Mutations that had to wait on a busy shard clock.
    pub shard_waits: AtomicU64,
    /// Calls enqueued into a submission ring.
    pub ring_submitted: AtomicU64,
    /// Ring batches drained (each = one trap crossing, one shard-lock
    /// acquisition, one shootdown round).
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
    shards: Vec<Shard>,
    cores: Vec<Mutex<SmpCore>>,
    clocks: Arc<PerCoreClocks>,
    /// Per-core invalidation batches: domains whose translations a core
    /// shrank since its last shootdown sync. The shrinking core owns the
    /// batch (like per-CPU TLB gather), which keeps IPI accounting
    /// deterministic — it never depends on which core happens to sync
    /// first.
    pending: Vec<Mutex<BTreeSet<DomainId>>>,
    /// Engine generation after the most recent committed mutation.
    live_gen: AtomicU64,
    /// Per-core submission rings of pending mutating calls.
    rings: Vec<Mutex<Vec<MonitorCall>>>,
    /// Ring depth at which `submit` force-drains the ring.
    ring_depth: usize,
    /// Counters.
    pub stats: SmpStats,
    /// Trace sink (clone of the inner monitor's; lock-free to emit into,
    /// so fast-tier events need no inner lock).
    trace: TraceSink,
    arch: Arch,
    trap_cost: u64,
    vmfunc_cost: u64,
    lock_handoff: u64,
    ring_enqueue_cost: u64,
    ring_dispatch_cost: u64,
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

    /// Full-control constructor: `nshards` domain shards (at least one,
    /// rounded up to a power of two, so routing is the
    /// [`shard_of_n`](Self::shard_of_n) mask) and `ring_depth` (at least
    /// one) for the per-core submission rings. The SMP benches sweep
    /// both.
    pub fn with_config(monitor: Monitor, nshards: usize, ring_depth: usize) -> Self {
        let arch = monitor.arch();
        let cost = monitor.machine.cost;
        let trap_cost = match arch {
            Arch::X86 => cost.vmexit_roundtrip,
            Arch::RiscV => cost.mmode_trap_roundtrip,
        };
        let clocks = Arc::clone(&monitor.machine.core_clocks);
        let trace = monitor.trace().clone();
        let gen = monitor.engine.generation();
        let core_count = monitor.machine.cores;
        let cores = (0..core_count)
            .map(|core| {
                Mutex::new(SmpCore {
                    current: monitor.current_domain(core),
                    stack: Vec::new(),
                    cache: None,
                })
            })
            .collect();
        ConcurrentMonitor {
            inner: RwLock::new(monitor),
            shards: (0..nshards.max(1).next_power_of_two())
                .map(|_| Shard {
                    lock: Mutex::new(()),
                    clock: CycleCounter::new(),
                })
                .collect(),
            cores,
            clocks,
            pending: (0..core_count).map(|_| Mutex::new(BTreeSet::new())).collect(),
            live_gen: AtomicU64::new(gen),
            rings: (0..core_count).map(|_| Mutex::new(Vec::new())).collect(),
            ring_depth: ring_depth.max(1),
            stats: SmpStats::default(),
            trace,
            arch,
            trap_cost,
            vmfunc_cost: cost.vmfunc_switch,
            lock_handoff: cost.lock_handoff,
            ring_enqueue_cost: cost.ring_enqueue,
            ring_dispatch_cost: cost.ring_dispatch,
        }
    }

    /// Number of domain shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// The shard a domain routes to in a table of `nshards` shards,
    /// rounded up to a power of two (at least one) like the table
    /// itself: `domain & (next_pow2(nshards) - 1)`. A pure function of
    /// the id, so two domains lock their shards in the same order
    /// whichever side initiates a cross-domain call.
    pub fn shard_of_n(domain: DomainId, nshards: usize) -> usize {
        let mask = nshards.max(1).next_power_of_two() - 1;
        (domain.0 & mask as u64) as usize
    }

    /// The shard index a domain maps to in *this* monitor.
    fn shard_index(&self, domain: DomainId) -> usize {
        Self::shard_of_n(domain, self.shards.len())
    }

    /// Number of modeled cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The per-core simulated clocks (shared with the inner machine).
    pub fn clocks(&self) -> &PerCoreClocks {
        &self.clocks
    }

    /// The machine makespan so far: max over all core clocks.
    pub fn makespan(&self) -> u64 {
        self.clocks.max_now()
    }

    /// Runs `f` with read access to the inner monitor (blocks mutations
    /// for the duration; use for assertions and teardown, not serving).
    pub fn with_inner<R>(&self, f: impl FnOnce(&Monitor) -> R) -> R {
        f(&read_lock(&self.inner))
    }

    /// Unwraps back into the inner [`Monitor`] (e.g. for a final
    /// `audit()` / `audit_hardware()` pass after workers joined).
    pub fn finish(self) -> Monitor {
        match self.inner.into_inner() {
            Ok(m) => m,
            Err(p) => p.into_inner(),
        }
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
    /// read side. Charges the trap cost to the calling core's clock;
    /// takes no shard lock and never copies the engine.
    fn serve_enumerate(&self, core: usize) -> Result<CallResult, Status> {
        let start = self.clocks.now(core);
        self.clocks.charge(core, self.trap_cost);
        let actor = mutex_lock(self.core_state(core)?).current;
        let leaf = MonitorCall::Enumerate.encode().0;
        self.trace
            .emit(core as u32, EventKind::HyperEnter { leaf, actor: actor.0 });
        let res = {
            let inner = read_lock(&self.inner);
            self.trace.emit(
                core as u32,
                EventKind::SnapRead {
                    gen: inner.engine.generation(),
                },
            );
            inner.engine.enumerate(actor).map_err(crate::monitor::cap_status)
        };
        let code = match &res {
            Ok(_) => 0,
            Err(s) => *s as u64,
        };
        let cycles = self.clocks.now(core).saturating_sub(start);
        self.trace
            .emit(core as u32, EventKind::HyperExit { leaf, code, cycles });
        res.map(|resources| CallResult::Count(resources.len() as u64))
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
                self.clocks.charge(core, self.vmfunc_cost);
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
        match state.stack.last() {
            Some(f) if f.fast => {
                let frame = match state.stack.pop() {
                    Some(f) => f,
                    None => return Err(Status::Denied),
                };
                self.clocks.charge(core, self.vmfunc_cost);
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
            _ => {
                drop(state);
                self.serve_mutating(core, MonitorCall::Return)
            }
        }
    }

    /// Mutation tier: shard locks in ascending order, then the inner
    /// monitor, with the discrete-event timing described in the module
    /// docs.
    fn serve_mutating(&self, core: usize, call: MonitorCall) -> Result<CallResult, Status> {
        let mut state = mutex_lock(self.core_state(core)?);
        let actor = state.current;
        let involved = self.involved_live(actor, std::slice::from_ref(&call));
        let mut shard_idx: Vec<usize> = involved.iter().map(|&d| self.shard_index(d)).collect();
        shard_idx.sort_unstable();
        shard_idx.dedup();
        let shards: Vec<&Shard> = shard_idx
            .iter()
            .filter_map(|&i| self.shards.get(i))
            .collect();
        let _guards: Vec<MutexGuard<'_, ()>> = shards.iter().map(|s| mutex_lock(&s.lock)).collect();
        let mut inner = write_lock(&self.inner);
        // A fast-entered domain has not trapped into the monitor: the
        // inner monitor still has its caller current on this core, so a
        // mutating hypercall would execute as the wrong actor. It must
        // return first. The refusal still leaves a hypercall bracket in
        // the trace — an attempted mutation the observability layer
        // cannot see is exactly what the trace-completeness argument
        // forbids.
        if inner.current_domain(core) != actor {
            let leaf = call.encode().0;
            self.trace
                .emit(core as u32, EventKind::HyperEnter { leaf, actor: actor.0 });
            self.trace.emit(
                core as u32,
                EventKind::HyperExit {
                    leaf,
                    code: Status::Denied as u64,
                    cycles: 0,
                },
            );
            return Err(Status::Denied);
        }
        // Discrete-event lock timing: start when the core *and* every
        // involved shard are free; pay a hand-off if the shard clocks
        // made us wait.
        let core_now = self.clocks.now(core);
        let mut shard_free = 0;
        let mut busiest_shard = 0u64;
        for (s, &i) in shards.iter().zip(shard_idx.iter()) {
            let now = s.clock.now();
            if now > shard_free {
                shard_free = now;
                busiest_shard = i as u64;
            }
        }
        let mut t0 = core_now.max(shard_free);
        if shard_free > core_now {
            SmpStats::bump(&self.stats.shard_waits);
            self.trace.emit(
                core as u32,
                EventKind::ShardWait {
                    shard: busiest_shard,
                },
            );
            t0 += self.lock_handoff;
        }
        // Shootdown targets come from the engine state the call executes
        // against, read under the write lock: the shard-set pass above ran
        // under a guard that has since been dropped.
        let (_, losers) = self.involved_domains(&inner.engine, actor, &call);
        // The inner call charges the machine-global counter; the delta
        // is this operation's cost, re-charged to the core's timeline.
        let before = inner.machine.cycles.now();
        let result = inner.call(core, call);
        let dt = inner.machine.cycles.since(before);
        let end = t0 + dt;
        self.clocks.advance_to(core, end);
        for s in &shards {
            s.clock.advance_to(end);
        }
        // Only the generation is recorded; nothing copies the engine.
        self.live_gen.store(inner.engine.generation(), Ordering::Release);
        SmpStats::bump(&self.stats.mutations);
        // Mirror mediated transitions into the SMP view.
        match &result {
            Ok(CallResult::Entered { target, .. }) => {
                state.stack.push(SmpFrame {
                    caller: actor,
                    fast: false,
                });
                state.current = *target;
            }
            Ok(CallResult::Returned { to }) => {
                state.stack.pop();
                state.current = *to;
            }
            _ => {}
        }
        drop(inner);
        drop(state);
        // Translation-shrinking ops queue the domains that *lost* access
        // for a batched cross-core shootdown instead of IPI-ing inline.
        if result.is_ok() && !losers.is_empty() {
            // `core` was validated by `core_state` above; `get` keeps the
            // no-panic discipline anyway.
            if let Some(batch) = self.pending.get(core) {
                let mut pending = mutex_lock(batch);
                for d in losers {
                    SmpStats::bump(&self.stats.shootdowns_requested);
                    if pending.insert(d) {
                        self.trace
                            .emit(core as u32, EventKind::ShootQueue { domain: d.0 });
                    }
                }
            }
        }
        result
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
                let ring_cell = match self.rings.get(core) {
                    Some(r) => r,
                    None => return RingOutcome::Completed(Err(Status::InvalidArg)),
                };
                self.clocks.charge(core, self.ring_enqueue_cost);
                SmpStats::bump(&self.stats.ring_submitted);
                let occupancy = {
                    let mut ring = mutex_lock(ring_cell);
                    ring.push(mutating);
                    ring.len()
                };
                if occupancy >= self.ring_depth {
                    RingOutcome::Drained(self.ring_doorbell(core))
                } else {
                    RingOutcome::Queued(occupancy)
                }
            }
        }
    }

    /// Rings `core`'s doorbell: drains every queued call as one batch —
    /// one trap crossing, one shard-lock acquisition over the batch's
    /// involved-set union, at most one lock hand-off, and one coalesced
    /// shootdown round delivered before returning — and returns the
    /// per-call results in submission order. Empty ring ⇒ empty vec.
    pub fn ring_doorbell(&self, core: usize) -> Vec<Result<CallResult, Status>> {
        let queued: Vec<MonitorCall> = match self.rings.get(core) {
            Some(ring_cell) => std::mem::take(&mut *mutex_lock(ring_cell)),
            None => Vec::new(),
        };
        if queued.is_empty() {
            return Vec::new();
        }
        match self.serve_batch(core, &queued) {
            Ok(results) => results,
            Err(status) => queued.iter().map(|_| Err(status)).collect(),
        }
    }

    /// Serves one drained batch. Same locking story as the single-call
    /// mutating tier, paid once: the shard locks cover the union of
    /// every entry's involved set at one generation (a superset of any
    /// per-entry set, so still conservative), and the timing model
    /// charges one trap crossing plus per-entry dispatch overhead
    /// instead of a trap per call.
    fn serve_batch(
        &self,
        core: usize,
        batch: &[MonitorCall],
    ) -> Result<Vec<Result<CallResult, Status>>, Status> {
        let state = mutex_lock(self.core_state(core)?);
        let actor = state.current;
        // Intra-batch mutations may shift ownership mid-batch — the shard
        // locks only model contention, so a pre-batch union stays safe;
        // shootdown targets are recomputed per entry below.
        let involved = self.involved_live(actor, batch);
        let mut shard_idx: Vec<usize> = involved.iter().map(|&d| self.shard_index(d)).collect();
        shard_idx.sort_unstable();
        shard_idx.dedup();
        let shards: Vec<&Shard> = shard_idx
            .iter()
            .filter_map(|&i| self.shards.get(i))
            .collect();
        let guards: Vec<MutexGuard<'_, ()>> = shards.iter().map(|s| mutex_lock(&s.lock)).collect();
        let mut inner = write_lock(&self.inner);
        // Same refusal rule as the single-call tier: a fast-entered
        // domain must return before mutating. Each refused entry still
        // leaves a hypercall bracket in the trace.
        if inner.current_domain(core) != actor {
            for call in batch {
                let leaf = call.encode().0;
                self.trace
                    .emit(core as u32, EventKind::HyperEnter { leaf, actor: actor.0 });
                self.trace.emit(
                    core as u32,
                    EventKind::HyperExit {
                        leaf,
                        code: Status::Denied as u64,
                        cycles: 0,
                    },
                );
            }
            return Ok(batch.iter().map(|_| Err(Status::Denied)).collect());
        }
        let core_now = self.clocks.now(core);
        let mut shard_free = 0;
        let mut busiest_shard = 0u64;
        for (s, &i) in shards.iter().zip(shard_idx.iter()) {
            let now = s.clock.now();
            if now > shard_free {
                shard_free = now;
                busiest_shard = i as u64;
            }
        }
        let mut t0 = core_now.max(shard_free);
        if shard_free > core_now {
            SmpStats::bump(&self.stats.shard_waits);
            self.trace.emit(
                core as u32,
                EventKind::ShardWait {
                    shard: busiest_shard,
                },
            );
            t0 += self.lock_handoff;
        }
        // One doorbell trap crossing for the whole batch; each entry
        // then pays its operation cost *minus* the per-call trap the
        // inner monitor charges, plus the ring dispatch overhead.
        let mut t_end = t0 + self.trap_cost;
        let mut results = Vec::with_capacity(batch.len());
        let mut all_losers: BTreeSet<DomainId> = BTreeSet::new();
        for call in batch {
            SmpStats::bump(&self.stats.calls);
            // Shootdown targets come from the live engine state this
            // entry actually executes against: an earlier entry in the
            // same batch may already have moved ownership.
            let (_, call_losers) = self.involved_domains(&inner.engine, actor, call);
            let before = inner.machine.cycles.now();
            let result = inner.call(core, *call);
            let dt = inner.machine.cycles.since(before);
            t_end += dt.saturating_sub(self.trap_cost) + self.ring_dispatch_cost;
            SmpStats::bump(&self.stats.mutations);
            if result.is_ok() {
                all_losers.extend(call_losers);
            }
            results.push(result);
        }
        self.live_gen.store(inner.engine.generation(), Ordering::Release);
        self.clocks.advance_to(core, t_end);
        for s in &shards {
            s.clock.advance_to(t_end);
        }
        SmpStats::bump(&self.stats.ring_batches);
        drop(inner);
        drop(state);
        // The shard guards must go before the sync below: it takes other
        // cores' state locks (rank below the shards), and a core waiting
        // on one of our shards could be holding its own state lock.
        drop(guards);
        if !all_losers.is_empty() {
            if let Some(pending_cell) = self.pending.get(core) {
                let mut pending = mutex_lock(pending_cell);
                for d in all_losers {
                    SmpStats::bump(&self.stats.shootdowns_requested);
                    if pending.insert(d) {
                        self.trace
                            .emit(core as u32, EventKind::ShootQueue { domain: d.0 });
                    }
                }
            }
        }
        // A batch is an explicit flush boundary: its invalidations are
        // already coalesced, so deliver the shootdown round now instead
        // of leaving the gather window open.
        self.sync_shootdowns(core);
        Ok(results)
    }

    /// The union of the involved sets of `calls`, computed against the
    /// live engine under one read guard, so the union comes from a
    /// single generation. The guard is dropped on return: callers take
    /// the shard locks next, and no engine guard may be held then.
    fn involved_live(&self, actor: DomainId, calls: &[MonitorCall]) -> BTreeSet<DomainId> {
        let inner = read_lock(&self.inner);
        let mut involved = BTreeSet::new();
        for call in calls {
            involved.extend(self.involved_domains(&inner.engine, actor, call).0);
        }
        involved
    }

    /// The domains a call touches, for shard locking, plus the subset
    /// that *loses* translations (shootdown targets), all computed
    /// against the **one** engine state the caller passes in — never a
    /// fresh read per cap, which could mix generations within a
    /// single involved-set computation and under-compute shootdown
    /// targets. The involved set is conservative — a superset is always
    /// safe, since the inner lock guarantees correctness and shards only
    /// model contention — but tight enough that distinct-domain
    /// workloads stay disjoint. The loser set mirrors the backends'
    /// flush rule: map-only changes (share, split, create) never shoot
    /// down; grant strips the granter, revoke strips the subtree owners,
    /// kill strips the dead domain.
    fn involved_domains(
        &self,
        snap: &CapEngine,
        actor: DomainId,
        call: &MonitorCall,
    ) -> (BTreeSet<DomainId>, BTreeSet<DomainId>) {
        let mut set = BTreeSet::new();
        let mut losers = BTreeSet::new();
        set.insert(actor);
        match call {
            MonitorCall::Share { cap, target, .. } => {
                set.insert(*target);
                if let Some(c) = snap.cap(*cap) {
                    set.insert(c.owner);
                }
            }
            MonitorCall::Grant { cap, target, .. } => {
                set.insert(*target);
                if let Some(c) = snap.cap(*cap) {
                    set.insert(c.owner);
                    if matches!(c.resource, tyche_core::Resource::Memory(_)) {
                        losers.insert(c.owner);
                    }
                }
            }
            MonitorCall::Revoke { cap } => {
                // Owners across the revoked subtree, all from the same
                // generation.
                let mut stack = vec![*cap];
                while let Some(id) = stack.pop() {
                    if let Some(c) = snap.cap(id) {
                        set.insert(c.owner);
                        if c.active && matches!(c.resource, tyche_core::Resource::Memory(_)) {
                            losers.insert(c.owner);
                        }
                        stack.extend(c.children.iter().copied());
                    }
                }
            }
            MonitorCall::Kill { domain } => {
                set.insert(*domain);
                losers.insert(*domain);
            }
            MonitorCall::Seal { domain, .. }
            | MonitorCall::SetEntry { domain, .. }
            | MonitorCall::RecordContent { domain, .. }
            | MonitorCall::Attest { domain, .. } => {
                set.insert(*domain);
            }
            MonitorCall::MakeTransition { target, .. } => {
                set.insert(*target);
            }
            MonitorCall::Enter { cap } => {
                if let Some(c) = snap.cap(*cap) {
                    if let tyche_core::Resource::Transition(t) = c.resource {
                        set.insert(t);
                    }
                }
            }
            MonitorCall::Split { .. }
            | MonitorCall::CreateDomain
            | MonitorCall::Return
            | MonitorCall::Enumerate => {}
        }
        (set, losers)
    }

    /// Drains `core`'s own invalidation batch and delivers one batched
    /// IPI round: every *other* core currently running an affected domain
    /// gets one IPI + remote flush, however many invalidations coalesced
    /// into the batch. Returns the number of IPIs sent. Each core flushes
    /// only what it shrank — the TLB-gather discipline — so IPI counts
    /// are a function of the workload, not of sync interleaving.
    pub fn sync_shootdowns(&self, core: usize) -> usize {
        let affected: BTreeSet<DomainId> = match self.pending.get(core) {
            Some(batch) => std::mem::take(&mut *mutex_lock(batch)),
            None => return 0,
        };
        if affected.is_empty() {
            return 0;
        }
        // Snapshot each core's current domain one lock at a time (no
        // nested core locks, so this cannot deadlock against workers).
        let mut targets = Vec::new();
        for (i, slot) in self.cores.iter().enumerate() {
            if i == core {
                continue;
            }
            let st = mutex_lock(slot);
            if affected.contains(&st.current) {
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
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::{boot_x86, BootConfig};
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
                .share(root, core_cap, child, None, Rights::USE, RevocationPolicy::NONE)
                .unwrap();
            m.engine.set_entry(root, child, base).unwrap();
            m.engine.seal(root, child, SealPolicy::strict()).unwrap();
            m.sync_effects().unwrap();
            out.push((child, gate));
        }
        (ConcurrentMonitor::new(m), out)
    }

    #[test]
    fn shard_order_is_global() {
        // Routing is a pure function of the id: two domains always map
        // to the same pair of shards in the same order, whichever side
        // initiates the cross-domain operation.
        let a = DomainId(3);
        let b = DomainId(7);
        assert_eq!(ConcurrentMonitor::shard_of_n(a, SHARDS), 3);
        assert_eq!(ConcurrentMonitor::shard_of_n(b, SHARDS), 7);
        assert_eq!(
            ConcurrentMonitor::shard_of_n(DomainId(3 + SHARDS as u64), SHARDS),
            ConcurrentMonitor::shard_of_n(a, SHARDS)
        );
    }

    #[test]
    fn small_shard_tables_fold_ids() {
        let cm = ConcurrentMonitor::with_config(boot_x86(BootConfig::default()), 4, 1);
        assert_eq!(cm.shard_count(), 4);
        assert_eq!(cm.shard_index(DomainId(7)), 3);
        assert_eq!(cm.shard_index(DomainId(11)), 3);
        let domains = || cm.with_inner(|m| m.engine.domains().count());
        let before = domains();
        assert!(matches!(
            cm.serve(0, MonitorCall::CreateDomain),
            Ok(CallResult::NewDomain { .. })
        ));
        assert_eq!(domains(), before + 1);
        // Degenerate counts clamp to one shard instead of dividing by 0.
        assert_eq!(ConcurrentMonitor::shard_of_n(DomainId(9), 0), 0);
        let cm = ConcurrentMonitor::with_config(boot_x86(BootConfig::default()), 0, 0);
        assert_eq!((cm.shard_count(), cm.ring_depth()), (1, 1));
        assert!(cm.serve(0, MonitorCall::CreateDomain).is_ok());
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        let cm = ConcurrentMonitor::with_config(boot_x86(BootConfig::default()), 7, 1);
        assert_eq!(cm.shard_count(), 8, "7 rounds up to 8");
        // The table routes exactly like the pure helper at the
        // requested (unrounded) count.
        for raw in [0u64, 1, 7, 8, 9, 1023] {
            assert_eq!(
                cm.shard_index(DomainId(raw)),
                ConcurrentMonitor::shard_of_n(DomainId(raw), 7)
            );
        }
        assert_eq!(ConcurrentMonitor::shard_of_n(DomainId(9), 7), 1);
        assert!(cm.serve(0, MonitorCall::CreateDomain).is_ok());
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
        assert_eq!(
            cm.serve(0, MonitorCall::CreateDomain),
            Err(Status::Denied)
        );
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

    /// Regression test for the torn-snapshot bug: `involved_domains`
    /// used to read the engine separately per cap, so a mutation
    /// committing between the lookups could make one computation mix
    /// two generations. The fixed signature takes the engine state as a
    /// parameter, which makes the result a pure function of one
    /// generation — interleaved mutations (modeled both with a real
    /// served call and with the corruption hooks) must not change it.
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
        let before = cm.involved_domains(&snap, root, &call);
        assert!(before.0.contains(&d1), "owner of the revoked cap is involved");
        assert!(before.1.contains(&d1), "memory revocation shoots d1 down");
        // A mutation interleaves: the cap is revoked for real. The
        // computation against the *held* snapshot must not change.
        cm.serve(0, call).unwrap();
        let after = cm.involved_domains(&snap, root, &call);
        assert_eq!(before, after, "one snapshot in => one generation out");
        // Same property under the corruption hooks: tampering a clone
        // (the interleaved-mutation stand-in the pre-fix code could
        // have observed mid-computation) changes the answer, proving
        // the per-cap re-read really could tear the set...
        let mut tampered = snap.clone();
        if let Some(c) = tampered.corrupt_cap(cap) {
            c.owner = root;
        }
        let torn = cm.involved_domains(&tampered, root, &call);
        assert_ne!(before, torn, "a different generation gives a different set");
        // ...while the held snapshot still answers as before.
        assert_eq!(cm.involved_domains(&snap, root, &call), before);
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
            (n as u64 - 1) * m.vmexit_roundtrip
                - n as u64 * (m.ring_enqueue + m.ring_dispatch),
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
        assert!(cm.ring_doorbell(0).is_empty(), "refused batch is not requeued");
        cm.serve(0, MonitorCall::Return).unwrap();
        cm.submit(0, MonitorCall::CreateDomain);
        let retried = cm.ring_doorbell(0);
        assert!(matches!(retried.first(), Some(Ok(CallResult::NewDomain { .. }))));
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
        assert!(matches!(results[0], Ok(CallResult::NewDomain { .. })), "{results:?}");
        assert!(matches!(results[1], Ok(CallResult::Cap(_))), "{results:?}");
    }
}
