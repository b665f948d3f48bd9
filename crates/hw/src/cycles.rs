//! The simulated cycle-cost model.
//!
//! The paper's only hard performance number is "fast (100 cycles) domain
//! transitions using VMFUNC" (§4.1). We cannot measure real silicon, so the
//! simulation charges each architectural event a cycle cost taken from
//! published measurements of the corresponding hardware operation, and
//! experiments report *simulated cycles* next to host wall-time. The
//! constants live in one place so the ablation benches can vary them.
//! [`SmpClocks`] places the calls of an SMP machine in model time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tyche_core::ids::DomainId;

/// Cycle costs of architectural events, loosely calibrated to published
/// numbers for recent Intel server parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// A VM exit + VM entry round trip (VMCALL, EPT violation, ...).
    pub vmexit_roundtrip: u64,
    /// A VMFUNC EPTP switch (no exit). The paper's "100 cycles".
    pub vmfunc_switch: u64,
    /// One page-table / EPT level walked on a TLB miss.
    pub page_walk_level: u64,
    /// A TLB hit.
    pub tlb_hit: u64,
    /// Full TLB flush (INVEPT-style).
    pub tlb_flush: u64,
    /// Flushing one cache line (CLFLUSH).
    pub cacheline_flush: u64,
    /// Writing back and invalidating the whole L1/L2 (WBINVD-ish), charged
    /// per resident line by the cache model.
    pub cache_flush_base: u64,
    /// A RISC-V M-mode trap round trip (ecall + mret).
    pub mmode_trap_roundtrip: u64,
    /// Reprogramming one PMP entry (CSR write + fence).
    pub pmp_write: u64,
    /// Zeroing one page of memory.
    pub zero_page: u64,
    /// Hashing one page of memory (measurement).
    pub hash_page: u64,
    /// A bare function call/return inside one domain (baseline for
    /// comparisons).
    pub fn_call: u64,
    /// OS process creation (fork+exec-lite) for the process baseline.
    pub process_create: u64,
    /// OS context switch between processes.
    pub context_switch: u64,
    /// A cross-process IPC message (pipe-style round trip).
    pub ipc_roundtrip: u64,
    /// Sending one IPI from the initiating core (ICR write + fabric
    /// latency charged to the sender).
    pub ipi_send: u64,
    /// Receiving an IPI on the target core (interrupt delivery + handler
    /// entry/exit, before any flush work the handler performs).
    pub ipi_deliver: u64,
    /// Hand-off of a contended in-monitor lock between cores (cacheline
    /// transfer + wakeup); charged once per acquisition that had to wait.
    pub lock_handoff: u64,
    /// Writing one entry into a per-core submission ring (slot store +
    /// producer-index publish, both core-local).
    pub ring_enqueue: u64,
    /// Dispatching one ring entry inside a drained batch (slot read +
    /// call decode on the serving side; the trap crossing itself is paid
    /// once per batch, not per entry).
    pub ring_dispatch: u64,
    /// Posting one frame to the trusted NIC (descriptor write, doorbell,
    /// on-NIC MAC engine latency, charged to the sending core). Per
    /// frame; the payload additionally costs [`nic_byte`](Self::nic_byte)
    /// per byte on both sides.
    pub nic_send: u64,
    /// Receiving one frame from the trusted NIC (completion poll + MAC
    /// check + descriptor recycle, charged to the receiving core).
    pub nic_recv: u64,
    /// Copying + MACing one payload byte through the NIC pipeline
    /// (charged per byte on top of the per-frame costs).
    pub nic_byte: u64,
}

impl CostModel {
    /// The default calibration used by all experiments.
    pub const fn default_model() -> Self {
        CostModel {
            vmexit_roundtrip: 1200,
            vmfunc_switch: 109,
            page_walk_level: 30,
            tlb_hit: 1,
            tlb_flush: 500,
            cacheline_flush: 45,
            cache_flush_base: 400,
            mmode_trap_roundtrip: 700,
            pmp_write: 40,
            zero_page: 250,
            hash_page: 4000,
            fn_call: 5,
            process_create: 250_000,
            context_switch: 3000,
            ipc_roundtrip: 8000,
            ipi_send: 1000,
            ipi_deliver: 700,
            lock_handoff: 60,
            ring_enqueue: 40,
            ring_dispatch: 25,
            nic_send: 1600,
            nic_recv: 1100,
            nic_byte: 2,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_model()
    }
}

/// A monotonically increasing simulated cycle counter.
///
/// Shared by everything running on one simulated machine; atomic so that
/// multi-threaded test drivers can charge cycles without holding the machine
/// lock.
#[derive(Debug, Default)]
pub struct CycleCounter {
    cycles: AtomicU64,
}

impl CycleCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` cycles.
    pub fn charge(&self, n: u64) {
        self.cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current cycle count.
    pub fn now(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Convenience: cycles elapsed since `start`.
    pub fn since(&self, start: u64) -> u64 {
        self.now().saturating_sub(start)
    }

    /// Advances the counter to at least `t` (discrete-event style: "this
    /// core is busy until simulated time `t`"). Never moves backwards, so
    /// concurrent advances from racing threads are safe and the final
    /// value is the max over all of them.
    pub fn advance_to(&self, t: u64) {
        self.cycles.fetch_max(t, Ordering::Relaxed);
    }
}

/// Per-core simulated clocks for an SMP machine.
///
/// Each core owns an independent [`CycleCounter`]; the monitor charges
/// work to the core that performs it, serialization points advance the
/// waiting core past the lock holder via [`CycleCounter::advance_to`],
/// and the *makespan* (max over cores) is the SMP wall-clock analogue.
/// All counters are atomic, so worker threads charge their own core
/// without any shared lock.
#[derive(Debug)]
pub struct PerCoreClocks {
    clocks: Vec<CycleCounter>,
}

impl PerCoreClocks {
    /// Creates `cores` clocks, all at zero.
    pub fn new(cores: usize) -> Self {
        Self {
            clocks: (0..cores).map(|_| CycleCounter::new()).collect(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.clocks.len()
    }

    /// Charges `n` cycles to `core`. Out-of-range cores are ignored (the
    /// monitor validates core ids at its call boundary; the clock model
    /// must not panic on behalf of a buggy driver).
    pub fn charge(&self, core: usize, n: u64) {
        if let Some(c) = self.clocks.get(core) {
            c.charge(n);
        }
    }

    /// Reads `core`'s clock (0 for out-of-range cores).
    pub fn now(&self, core: usize) -> u64 {
        self.clocks.get(core).map_or(0, CycleCounter::now)
    }

    /// Advances `core`'s clock to at least `t`.
    pub fn advance_to(&self, core: usize, t: u64) {
        if let Some(c) = self.clocks.get(core) {
            c.advance_to(t);
        }
    }

    /// The makespan: the maximum clock over all cores. This is the
    /// simulated elapsed time of the whole machine.
    pub fn max_now(&self) -> u64 {
        self.clocks.iter().map(CycleCounter::now).max().unwrap_or(0)
    }
}

/// The SMP contention model: the per-core clocks plus one simulated
/// clock per domain *shard*.
///
/// A call over a set of domains starts when its core *and* every
/// involved shard are free, plus one `lock_handoff` if a shard made it
/// wait. It runs for the cycles it was charged and leaves the core and
/// every involved shard busy until it ends. Cores working on distinct
/// domains never share a shard clock and overlap in model time; cores
/// hammering one domain serialize on its shard like a contended lock.
/// Callers serialize each [`start`](Self::start)/[`finish`](Self::finish)
/// pair (the SMP monitor holds its engine write lock across it), so the
/// clocks are a function of the call order.
#[derive(Debug)]
pub struct SmpClocks {
    cores: Arc<PerCoreClocks>,
    shards: Vec<CycleCounter>,
    lock_handoff: u64,
}

/// When a call may start, from [`SmpClocks::start`].
#[must_use]
pub struct Start {
    at: u64,
    /// The lowest busiest involved shard, if one was ahead of the core.
    pub waited_on: Option<usize>,
}

impl SmpClocks {
    /// `nshards` shard clocks (at least one, rounded up to a power of
    /// two) next to `cores`; a start that waits pays `lock_handoff`.
    pub fn new(cores: Arc<PerCoreClocks>, nshards: usize, lock_handoff: u64) -> Self {
        let shards = (0..nshards.max(1).next_power_of_two()).map(|_| CycleCounter::new());
        let shards = shards.collect();
        SmpClocks {
            cores,
            shards,
            lock_handoff,
        }
    }

    /// The shard a domain routes to in a table of `nshards` shards,
    /// rounded up like the table itself: `domain & (next_pow2(nshards) -
    /// 1)`. A pure function of the id, so two domains meet in the same
    /// shards in the same order whichever side initiates a call.
    pub fn shard_of_n(domain: DomainId, nshards: usize) -> usize {
        let mask = nshards.max(1).next_power_of_two() - 1;
        (domain.0 & mask as u64) as usize
    }

    /// The per-core clocks.
    pub fn cores(&self) -> &PerCoreClocks {
        &self.cores
    }

    /// The machine makespan so far: the latest core clock.
    pub fn makespan(&self) -> u64 {
        self.cores.max_now()
    }

    /// When `core` may start a call over `domains`: its own clock, or,
    /// if an involved shard is ahead of it, that shard's clock plus one
    /// `lock_handoff`, reported as a wait on the lowest busiest shard
    /// (the one an ascending walk would block on).
    pub fn start(&self, core: usize, domains: &[DomainId]) -> Start {
        let (mut shard_free, mut busiest) = (0, 0);
        for &d in domains {
            let i = Self::shard_of_n(d, self.shards.len());
            let now = self.shards[i].now();
            if now > shard_free || (now == shard_free && now > 0 && i < busiest) {
                (shard_free, busiest) = (now, i);
            }
        }
        let core_now = self.cores.now(core);
        let waited_on = (shard_free > core_now).then_some(busiest);
        let at = core_now.max(shard_free) + waited_on.map_or(0, |_| self.lock_handoff);
        Start { at, waited_on }
    }

    /// Ends a call that `start` placed and that was charged `charged`
    /// cycles: the core and every involved shard are busy until
    /// `start + charged`. No clock moves backwards.
    pub fn finish(&self, start: Start, core: usize, domains: &[DomainId], charged: u64) {
        let end = start.at + charged;
        self.cores.advance_to(core, end);
        for &d in domains {
            self.shards[Self::shard_of_n(d, self.shards.len())].advance_to(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = CycleCounter::new();
        assert_eq!(c.now(), 0);
        c.charge(100);
        c.charge(9);
        assert_eq!(c.now(), 109);
        assert_eq!(c.since(100), 9);
    }

    #[test]
    fn default_model_orderings() {
        // The relationships the paper relies on must hold in the model:
        let m = CostModel::default_model();
        assert!(
            m.vmfunc_switch < m.vmexit_roundtrip / 10,
            "VMFUNC ~10x+ cheaper than an exit"
        );
        assert!(
            m.process_create > 100 * m.vmexit_roundtrip,
            "process creation is heavyweight"
        );
        assert!(m.tlb_hit < m.page_walk_level);
        assert!((50..=200).contains(&m.vmfunc_switch), "paper: ~100 cycles");
        // IPI costs: delivery rides the same interrupt machinery as a trap
        // entry, and a full remote shootdown (send + deliver + flush) must
        // stay more expensive than a local flush, or coalescing would be
        // pointless in the model.
        assert!(m.ipi_send + m.ipi_deliver + m.tlb_flush > m.tlb_flush);
        assert!(m.lock_handoff < m.vmfunc_switch);
        // Ring costs: enqueue + dispatch for one entry must be far below
        // a trap round trip, or batching mutating hypercalls through a
        // doorbell ring could never amortize the crossing.
        assert!(
            m.ring_enqueue + m.ring_dispatch < m.vmexit_roundtrip / 10,
            "ring overhead per entry must be <10% of a trap"
        );
        assert!(m.ring_dispatch < m.ring_enqueue + m.lock_handoff);
        assert!(m.ring_enqueue < m.vmfunc_switch, "enqueue is core-local");
        // NIC costs: a cross-machine frame must be pricier than an IPI
        // (it leaves the coherence fabric and passes a MAC engine) but a
        // small attested request must stay below a process-IPC round trip
        // per direction, or the fleet model could never beat the process
        // baseline the paper argues against.
        assert!(m.nic_send > m.ipi_send, "NIC send costlier than an IPI");
        assert!(m.nic_recv > m.ipi_deliver);
        assert!(
            m.nic_send + m.nic_recv + 64 * m.nic_byte < m.ipc_roundtrip,
            "a 64-byte frame one-way must undercut an IPC round trip"
        );
        assert!(m.nic_byte < m.tlb_hit + m.page_walk_level);
    }

    #[test]
    fn advance_to_is_monotone_max() {
        let c = CycleCounter::new();
        c.charge(50);
        c.advance_to(40); // behind: no-op
        assert_eq!(c.now(), 50);
        c.advance_to(120);
        assert_eq!(c.now(), 120);
    }

    #[test]
    fn per_core_clocks_independent() {
        let clocks = PerCoreClocks::new(4);
        assert_eq!(clocks.cores(), 4);
        clocks.charge(0, 100);
        clocks.charge(2, 300);
        clocks.advance_to(1, 250);
        assert_eq!(clocks.now(0), 100);
        assert_eq!(clocks.now(1), 250);
        assert_eq!(clocks.now(2), 300);
        assert_eq!(clocks.now(3), 0);
        assert_eq!(clocks.max_now(), 300);
        // Out-of-range cores are silently ignored, never panic.
        clocks.charge(99, 1);
        clocks.advance_to(99, 1);
        assert_eq!(clocks.now(99), 0);
        assert_eq!(clocks.max_now(), 300);
    }

    fn smp(cores: usize, nshards: usize) -> SmpClocks {
        SmpClocks::new(Arc::new(PerCoreClocks::new(cores)), nshards, 60)
    }

    #[test]
    fn shard_order_is_global() {
        use tyche_core::shared::SHARDS;
        // Routing is a pure function of the id: two domains always map
        // to the same pair of shards in the same order, whichever side
        // initiates the cross-domain operation.
        let a = DomainId(3);
        let b = DomainId(7);
        assert_eq!(SmpClocks::shard_of_n(a, SHARDS), 3);
        assert_eq!(SmpClocks::shard_of_n(b, SHARDS), 7);
        assert_eq!(
            SmpClocks::shard_of_n(DomainId(3 + SHARDS as u64), SHARDS),
            SmpClocks::shard_of_n(a, SHARDS)
        );
    }

    #[test]
    fn small_shard_tables_fold_ids() {
        let clocks = smp(2, 4);
        assert_eq!(clocks.shards.len(), 4);
        assert_eq!(SmpClocks::shard_of_n(DomainId(7), clocks.shards.len()), 3);
        assert_eq!(SmpClocks::shard_of_n(DomainId(11), clocks.shards.len()), 3);
        // Folded ids share a clock: a call on 7 makes one on 11 wait.
        let d = [DomainId(7)];
        clocks.finish(clocks.start(0, &d), 0, &d, 100);
        assert_eq!(clocks.start(1, &[DomainId(11)]).waited_on, Some(3));
        // Degenerate counts clamp to one shard instead of dividing by 0.
        assert_eq!(SmpClocks::shard_of_n(DomainId(9), 0), 0);
        let clocks = smp(1, 0);
        assert_eq!(clocks.shards.len(), 1);
        let d = [DomainId(9)];
        clocks.finish(clocks.start(0, &d), 0, &d, 100);
        assert_eq!(clocks.makespan(), 100);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        let clocks = smp(1, 7);
        assert_eq!(clocks.shards.len(), 8, "7 rounds up to 8");
        // The table routes exactly like the pure helper at the
        // requested (unrounded) count.
        for raw in [0u64, 1, 7, 8, 9, 1023] {
            assert_eq!(
                SmpClocks::shard_of_n(DomainId(raw), clocks.shards.len()),
                SmpClocks::shard_of_n(DomainId(raw), 7)
            );
        }
        assert_eq!(SmpClocks::shard_of_n(DomainId(9), 7), 1);
    }

    #[test]
    fn lock_handoff_is_charged_only_behind_a_busy_shard() {
        let clocks = smp(3, 8);
        let (a, b) = (DomainId(1), DomainId(2));
        // Core 0 runs a call over {a, b} from 0 to 500.
        let start = clocks.start(0, &[a, b]);
        assert_eq!(start.waited_on, None, "idle shards never charge");
        clocks.finish(start, 0, &[a, b], 500);
        assert_eq!(clocks.cores().now(0), 500);
        // A core at or ahead of every involved shard starts at its own
        // clock, without a hand-off.
        clocks.cores().advance_to(1, 500);
        let start = clocks.start(1, &[b]);
        assert_eq!(start.waited_on, None, "level with the shard");
        clocks.finish(start, 1, &[b], 10);
        assert_eq!(clocks.cores().now(1), 510);
        clocks.cores().advance_to(2, 2_000);
        let start = clocks.start(2, &[a, b]);
        assert_eq!(start.waited_on, None, "ahead of both shards");
        clocks.finish(start, 2, &[a, b], 10);
        assert_eq!(clocks.cores().now(2), 2_010);
        // Core 0 is now behind shards 1 and 2 (both at 2,010): exactly
        // one hand-off, reported on the lowest busiest shard.
        let start = clocks.start(0, &[a, b]);
        assert_eq!(start.waited_on, Some(1));
        clocks.finish(start, 0, &[a, b], 40);
        assert_eq!(clocks.cores().now(0), 2_010 + 60 + 40);
        // An uninvolved shard stays put, and a finish never rewinds a
        // clock that is already ahead.
        let c = [DomainId(3)];
        assert_eq!(clocks.start(1, &c).waited_on, None);
        clocks.cores().advance_to(1, 5_000);
        clocks.finish(
            Start {
                at: 0,
                waited_on: None,
            },
            1,
            &c,
            1,
        );
        assert_eq!(clocks.cores().now(1), 5_000, "core not rewound");
        let start = clocks.start(2, &[a]);
        assert_eq!(start.waited_on, Some(1), "shard 1 kept 2,110");
        clocks.finish(start, 2, &[a], 0);
        assert_eq!(clocks.cores().now(2), 2_110 + 60);
        assert_eq!(clocks.makespan(), 5_000);
    }
}
