//! A thread-shareable front-end over [`CapEngine`].
//!
//! The engine itself stays a plain `&mut self` state machine — the BMC,
//! the corruption hooks, and every existing test keep driving it
//! directly. [`SharedEngine`] wraps one engine for SMP serving:
//!
//! - **Reads** go through an epoch/RCU-style read side
//!   ([`EpochReadSide`]): every committed mutation *publishes* a fresh
//!   `Arc<CapEngine>` clone into a small ring of snapshot slots and
//!   swaps the head pointer, so [`SharedEngine::snapshot`] is one
//!   atomic head load plus an uncontended slot read — readers never
//!   take a shard lock and never serialize on a shared cache mutex.
//!   Readers that need a stable reclamation horizon across several
//!   reads pin an epoch first ([`EpochReadSide::pin`]); displaced
//!   snapshots are retired and reclaimed only after every pinned
//!   reader has advanced past their displacement epoch
//!   (retire-after-grace).
//! - **Mutations** ([`SharedEngine::mutate`]) first pin the resizable
//!   *shard table* (its `RwLock` read side, lock class `shard-table`),
//!   then take the per-domain *shard* locks of every involved domain —
//!   in ascending shard order, the global ordering rule that makes
//!   cross-domain operations (grant/share/revoke lock both sides)
//!   deadlock-free — and then the engine write lock for the actual
//!   state change. The shard locks are what serialize
//!   logically-conflicting hypercalls; the inner write lock is held
//!   only for the (short) engine operation itself, and the concurrent
//!   monitor's cycle model charges contention accordingly. Shard count
//!   is a construction-time parameter (power-of-two mask routing) and
//!   can be changed at runtime: see the resize protocol on
//!   [`SharedEngine`].
//!
//! Each mutation is stamped with a monotonically increasing **sequence
//! number** assigned inside the exclusive section, so a concurrent
//! stress driver can record `(seq, op)` pairs and later *replay* the log
//! single-threadedly: because every mutation ran under the write lock,
//! the sequence order is a linearization, and the replayed engine must
//! be `==` to the shared one (`CapEngine` derives `PartialEq`).
//!
//! ## Epoch lifecycle
//!
//! Memory safety here is unconditional — snapshots are `Arc`s, so no
//! reader can ever observe a freed engine whatever the epochs say. The
//! epochs govern *slot reuse and retirement timing*, which is what the
//! RCU discipline is about:
//!
//! 1. A publisher (running under the engine write lock) bumps the
//!    global epoch, overwrites the oldest slot with the new snapshot,
//!    swaps the head pointer (Release), and records the epoch at which
//!    the displaced slot stopped being reachable.
//! 2. The displaced snapshot goes onto the retired list tagged with its
//!    displacement epoch.
//! 3. Retired snapshots are dropped only once every reader is idle or
//!    pinned at an epoch strictly newer than the displacement — the
//!    grace condition. A pinned reader therefore keeps every snapshot
//!    it could still be holding alive on the retired list.
//! 4. Overwriting a slot before its grace has elapsed (a straggling
//!    reader still inside the slot's read guard) is *counted*
//!    ([`EpochReadSide::deferred`]) and handled by the slot `RwLock`,
//!    which simply waits the reader out — a stall, never a
//!    use-after-free.
//!
//! Lock poisoning: a panicked writer (e.g. a paranoid-check assertion
//! firing in another thread's test) must not cascade into opaque
//! `PoisonError` panics here, so every acquisition recovers the guard
//! with `into_inner()`. The state seen afterwards is whatever the
//! panicking thread had committed — fine for the engine, whose public
//! operations keep it consistent at every return point.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::engine::CapEngine;
use crate::ids::DomainId;

/// Default number of domain shards. Domains route to shards by id AND
/// the power-of-two shard mask; more shards than plausible worker
/// threads keeps false conflicts rare while bounding the lock table.
pub const SHARDS: usize = 16;

/// Number of published snapshot slots in an [`EpochReadSide`]. Small on
/// purpose: one live head plus a short grace window of displaced slots.
pub const SNAP_SLOTS: usize = 4;

/// Reader-slot value meaning "not pinned".
pub const EPOCH_IDLE: u64 = u64::MAX;

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

/// One published `(generation, snapshot)` slot in the epoch ring.
type SnapSlot = RwLock<(u64, Arc<CapEngine>)>;

/// The epoch-based read side used by [`SharedEngine`] and the
/// concurrent monitor: a ring of published `(generation, snapshot)`
/// slots, per-reader epoch pins, and a retired list reclaimed after
/// grace. See the module docs for the lifecycle. `SharedEngine`
/// publishes on every mutation; the concurrent monitor serves from its
/// live engine and publishes only when its `snapshot` finds the head
/// older than the live generation.
pub struct EpochReadSide {
    /// Published snapshot slots; `head` indexes the newest.
    snaps: Box<[SnapSlot]>,
    /// Epoch at which each slot was displaced from head (0 = never).
    displaced: Box<[AtomicU64]>,
    /// Index of the most recently published slot.
    head: AtomicUsize,
    /// Global publication epoch; bumped once per publish.
    epoch: AtomicU64,
    /// Per-reader pinned epoch, [`EPOCH_IDLE`] when unpinned.
    readers: Box<[AtomicU64]>,
    /// Displaced snapshots awaiting grace: (displacement epoch, clone).
    retired: Mutex<Vec<(u64, Arc<CapEngine>)>>,
    /// Publications so far.
    published: AtomicU64,
    /// Retired snapshots dropped after their grace elapsed.
    reclaimed: AtomicU64,
    /// Publications that overwrote a slot before its grace elapsed (the
    /// slot lock waited out a straggling reader).
    deferred: AtomicU64,
    /// Boot-time snapshot, kept as an infallible fallback so the read
    /// path never needs a panicking index.
    boot: (u64, Arc<CapEngine>),
}

/// An epoch pin: while alive, no snapshot displaced at or after the
/// pinned epoch is reclaimed. Dropping unpins.
pub struct EpochPin<'a> {
    reads: &'a EpochReadSide,
    reader: usize,
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.reads.readers.get(self.reader) {
            r.store(EPOCH_IDLE, Ordering::SeqCst);
        }
    }
}

impl EpochReadSide {
    /// Creates a read side publishing `snap` (taken at `gen`) with
    /// `readers` pin slots (at least one).
    pub fn new(gen: u64, snap: Arc<CapEngine>, readers: usize) -> Self {
        let snaps: Box<[SnapSlot]> = (0..SNAP_SLOTS)
            .map(|_| RwLock::new((gen, Arc::clone(&snap))))
            .collect();
        EpochReadSide {
            snaps,
            displaced: (0..SNAP_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            readers: (0..readers.max(1)).map(|_| AtomicU64::new(EPOCH_IDLE)).collect(),
            retired: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            boot: (gen, snap),
        }
    }

    /// Pins `reader` at the current epoch. Out-of-range readers get a
    /// no-op pin (safe either way: pins only tighten reclamation).
    pub fn pin(&self, reader: usize) -> EpochPin<'_> {
        let now = self.epoch.load(Ordering::SeqCst);
        if let Some(r) = self.readers.get(reader) {
            r.store(now, Ordering::SeqCst);
        }
        EpochPin { reads: self, reader }
    }

    /// The newest published `(generation, snapshot)`. One Acquire head
    /// load plus an uncontended slot read; never blocks on a mutex.
    pub fn current_with_gen(&self) -> (u64, Arc<CapEngine>) {
        let idx = self.head.load(Ordering::Acquire);
        match self.snaps.get(idx).or_else(|| self.snaps.first()) {
            Some(snap_cell) => {
                let published = read_lock(snap_cell);
                (published.0, Arc::clone(&published.1))
            }
            // Unreachable: `snaps` is non-empty by construction.
            None => (self.boot.0, Arc::clone(&self.boot.1)),
        }
    }

    /// The newest published snapshot.
    pub fn current(&self) -> Arc<CapEngine> {
        self.current_with_gen().1
    }

    /// Publishes a new snapshot. The caller must hold the engine write
    /// lock so publications are totally ordered: [`SharedEngine`]
    /// publishes from the committing mutator and stores `live_gen` with
    /// Release *after* this returns; the concurrent monitor publishes
    /// from its `snapshot`, under the same lock, a copy of a generation
    /// it has already recorded.
    pub fn publish(&self, gen: u64, snap: Arc<CapEngine>) {
        let epoch_now = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let old_head = self.head.load(Ordering::Acquire);
        let next = if old_head + 1 >= self.snaps.len() { 0 } else { old_head + 1 };
        let next_displaced = self
            .displaced
            .get(next)
            .map_or(0, |d| d.load(Ordering::SeqCst));
        if !self.grace_elapsed(next_displaced) {
            // A straggling reader may still sit inside this slot's read
            // guard; the write acquisition below waits it out. Counted,
            // never unsafe.
            self.deferred.fetch_add(1, Ordering::SeqCst);
        }
        let prev = match self.snaps.get(next) {
            Some(snap_cell) => {
                let mut published = write_lock(snap_cell);
                std::mem::replace(&mut *published, (gen, snap))
            }
            None => return,
        };
        self.head.store(next, Ordering::Release);
        if let Some(d) = self.displaced.get(old_head) {
            d.store(epoch_now, Ordering::SeqCst);
        }
        {
            let mut retired = mutex_lock(&self.retired);
            retired.push((next_displaced, prev.1));
        }
        self.published.fetch_add(1, Ordering::SeqCst);
        self.reclaim();
    }

    /// True when every reader is idle or pinned strictly after
    /// `displaced_at` — i.e. no pinned reader can still reference a
    /// snapshot displaced at that epoch.
    fn grace_elapsed(&self, displaced_at: u64) -> bool {
        self.readers.iter().all(|r| {
            let pinned = r.load(Ordering::SeqCst);
            pinned == EPOCH_IDLE || pinned > displaced_at
        })
    }

    /// Drops every retired snapshot whose grace has elapsed. Returns how
    /// many were reclaimed. Safe to call from any thread at any time.
    pub fn reclaim(&self) -> usize {
        let horizon = self
            .readers
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .filter(|&p| p != EPOCH_IDLE)
            .min();
        let freed = {
            let mut retired = mutex_lock(&self.retired);
            let before = retired.len();
            match horizon {
                None => retired.clear(),
                Some(min_pinned) => retired.retain(|(displaced_at, _)| *displaced_at >= min_pinned),
            }
            before - retired.len()
        };
        self.reclaimed.fetch_add(freed as u64, Ordering::SeqCst);
        freed
    }

    /// Snapshots currently awaiting grace.
    pub fn retired_len(&self) -> usize {
        mutex_lock(&self.retired).len()
    }

    /// Total publications.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Total retired snapshots reclaimed after grace.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::SeqCst)
    }

    /// Publications that found their target slot's grace not yet
    /// elapsed.
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::SeqCst)
    }

    /// The current global epoch.
    pub fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// The shard-lock table: the per-domain shard mutexes plus the
/// power-of-two routing mask (`locks.len() - 1`). Swapped wholesale by
/// [`SharedEngine::resize_shards`] under the table's write lock.
///
/// Shard mutexes are *stateless* — they serialize conflicting mutators
/// but guard no data of their own — so a resize has nothing to rehash:
/// it only needs a quiesce point where no mutator holds a shard, which
/// is exactly the table write lock.
struct ShardTable {
    locks: Vec<Mutex<()>>,
    mask: usize,
}

impl ShardTable {
    /// Builds a table of `nshards` mutexes, rounded up to the next
    /// power of two (min 1) so routing is a mask, not a division.
    fn with_shards(nshards: usize) -> Self {
        let n = nshards.max(1).next_power_of_two();
        ShardTable {
            locks: (0..n).map(|_| Mutex::new(())).collect(),
            mask: n - 1,
        }
    }
}

/// A [`CapEngine`] shared between worker threads. See the module docs
/// for the locking discipline.
///
/// ## Resize protocol
///
/// The shard count is a construction-time parameter
/// ([`with_shards`](Self::with_shards), power-of-two rounded) that can
/// be changed at runtime through [`resize_shards`](Self::resize_shards).
/// The table lives behind its own `RwLock` — lock class `shard-table`,
/// ranked immediately *above* per-core state and *below* the domain
/// shards, so the mutator order is: table read lock → shard mutexes
/// (ascending index) → engine write lock. Resizing takes the table
/// *write* lock: that is the quiesce point — it cannot be granted while
/// any mutator still holds a read guard (and therefore possibly a shard
/// mutex), and once granted the old mutexes are provably unheld and can
/// simply be dropped. Shard mutexes guard no data, so there is nothing
/// to rehash; new routing takes effect with the new mask.
pub struct SharedEngine {
    engine: RwLock<CapEngine>,
    /// Resizable shard-lock table. Mutators hold a read guard for the
    /// duration of their shard acquisitions; `resize_shards` takes the
    /// write side as its quiesce point.
    shard_table: RwLock<ShardTable>,
    /// Generation of the engine after the most recent committed
    /// mutation; read without the engine lock to validate snapshots.
    live_gen: AtomicU64,
    /// Epoch read side: published snapshots, reader pins, retired list.
    reads: EpochReadSide,
    /// Next mutation sequence number.
    seq: AtomicU64,
}

/// Reader pin slots a standalone [`SharedEngine`] offers. The
/// concurrent monitor, which knows its core count, sizes its own
/// [`EpochReadSide`] with one pin slot per core instead.
const DEFAULT_READERS: usize = 64;

impl SharedEngine {
    /// Wraps `engine` for shared use with the default shard count.
    pub fn new(engine: CapEngine) -> Self {
        Self::with_shards(engine, SHARDS)
    }

    /// Wraps `engine` with `nshards` domain shards, rounded up to the
    /// next power of two (at least one) so routing is `id & mask`.
    /// Shard-count is swept by the SMP benches: fewer shards means more
    /// false conflicts, more shards means a longer lock table.
    pub fn with_shards(engine: CapEngine, nshards: usize) -> Self {
        let gen = engine.generation();
        let snap = Arc::new(engine.clone());
        SharedEngine {
            engine: RwLock::new(engine),
            shard_table: RwLock::new(ShardTable::with_shards(nshards)),
            live_gen: AtomicU64::new(gen),
            reads: EpochReadSide::new(gen, snap, DEFAULT_READERS),
            seq: AtomicU64::new(0),
        }
    }

    /// Masks a raw domain id onto a table of `len` shards (`mask` =
    /// `len - 1`, `len` a power of two) with a totality check: every
    /// domain must land on an existing shard.
    fn route(domain: DomainId, mask: usize, len: usize) -> usize {
        let idx = (domain.0 & mask as u64) as usize;
        debug_assert!(
            idx < len,
            "shard routing must be total: idx {idx} vs {len} shards"
        );
        idx
    }

    /// The shard index a domain maps to under the default shard count.
    pub fn shard_of(domain: DomainId) -> usize {
        Self::shard_of_n(domain, SHARDS)
    }

    /// The shard index a domain maps to under an `nshards`-sized table
    /// (rounded up to a power of two like the table itself).
    pub fn shard_of_n(domain: DomainId, nshards: usize) -> usize {
        let n = nshards.max(1).next_power_of_two();
        Self::route(domain, n - 1, n)
    }

    /// This engine's current shard count.
    pub fn shard_count(&self) -> usize {
        read_lock(&self.shard_table).locks.len()
    }

    /// The shard index a domain maps to in *this* engine (under the
    /// current table; a concurrent resize can re-route it).
    pub fn shard_index(&self, domain: DomainId) -> usize {
        let shard_tbl = read_lock(&self.shard_table);
        Self::route(domain, shard_tbl.mask, shard_tbl.locks.len())
    }

    /// Swaps in a new shard table of `nshards` locks (power-of-two
    /// rounded; returns the actual count). The table write lock is the
    /// quiesce point: it is granted only when no mutator holds a read
    /// guard, hence no shard mutex is held and the old table can be
    /// dropped without rehashing (shard locks are stateless — see
    /// [`ShardTable`]). In-flight mutators that routed under the old
    /// mask have already committed; later ones route under the new one.
    pub fn resize_shards(&self, nshards: usize) -> usize {
        let mut shard_tbl = write_lock(&self.shard_table);
        *shard_tbl = ShardTable::with_shards(nshards);
        shard_tbl.locks.len()
    }

    /// The epoch read side (pinning, reclamation counters).
    pub fn epochs(&self) -> &EpochReadSide {
        &self.reads
    }

    /// Runs `f` with a read lock on the live engine. Prefer
    /// [`snapshot`](Self::snapshot) for read-mostly query paths — this
    /// blocks writers for the duration of `f`.
    pub fn with_read<R>(&self, f: impl FnOnce(&CapEngine) -> R) -> R {
        f(&read_lock(&self.engine))
    }

    /// Returns a point-in-time snapshot of the engine.
    ///
    /// Every committed mutation publishes a fresh clone into the epoch
    /// read side, so this is one Acquire head load plus an uncontended
    /// slot read — no snapshot-cache mutex, no shard lock, and queries
    /// on the returned `Arc` never contend with anything.
    pub fn snapshot(&self) -> Arc<CapEngine> {
        self.reads.current()
    }

    /// Runs the mutation `f` under the shard locks of `domains` (taken
    /// in ascending shard order — the global deadlock-freedom rule) and
    /// the engine write lock. Returns the mutation's sequence number —
    /// assigned *inside* the exclusive section, so ascending sequence
    /// numbers are a linearization of all mutations — and `f`'s result.
    /// Before releasing the write lock the mutation *publishes* the new
    /// state to the epoch read side, so readers observe it without ever
    /// locking.
    pub fn mutate<R>(
        &self,
        domains: &[DomainId],
        f: impl FnOnce(&mut CapEngine) -> R,
    ) -> (u64, R) {
        // Pin the shard table (read side) for the whole exclusive
        // section — a resize cannot swap the mask out from under the
        // held shard guards. Then sort + dedup the shard indexes so
        // each lock is taken once, in the global order, regardless of
        // the caller's domain order.
        let shard_tbl = read_lock(&self.shard_table);
        let mut idx: Vec<usize> = domains
            .iter()
            .map(|&d| Self::route(d, shard_tbl.mask, shard_tbl.locks.len()))
            .collect();
        idx.sort_unstable();
        idx.dedup();
        let _shard_guards: Vec<MutexGuard<'_, ()>> = idx
            .into_iter()
            .filter_map(|i| shard_tbl.locks.get(i))
            .map(mutex_lock)
            .collect();
        let mut eng = write_lock(&self.engine);
        // verify: relaxed-ok mutation counter ordered by the engine write lock; live_gen carries the Release publication
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let out = f(&mut eng);
        let gen = eng.generation();
        self.reads.publish(gen, Arc::new(eng.clone()));
        self.live_gen.store(gen, Ordering::Release);
        (seq, out)
    }

    /// Number of mutations committed so far.
    pub fn mutations(&self) -> u64 {
        // verify: relaxed-ok statistics read; snapshot validity is proven through live_gen, not this counter
        self.seq.load(Ordering::Relaxed)
    }

    /// Unwraps the shared engine back into a plain [`CapEngine`] (e.g.
    /// for a final single-threaded `audit()` pass).
    pub fn into_inner(self) -> CapEngine {
        match self.engine.into_inner() {
            Ok(e) => e,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn seeded() -> (SharedEngine, DomainId, crate::ids::CapId) {
        let mut e = CapEngine::new();
        let root = e.create_root_domain();
        let ram = e
            .endow(root, Resource::mem(0x0, 0x10_0000), Rights::RWX)
            .unwrap();
        (SharedEngine::new(e), root, ram)
    }

    #[test]
    fn snapshot_reused_until_mutation() {
        let (shared, root, _ram) = seeded();
        let a = shared.snapshot();
        let b = shared.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "unchanged engine reuses the published slot");
        let (seq, child) = shared.mutate(&[root], |e| e.create_domain(root));
        assert_eq!(seq, 0);
        child.unwrap();
        let c = shared.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "mutation publishes a fresh snapshot");
        assert_eq!(c.domains().count(), 2);
        // The old snapshot still reads its point-in-time state.
        assert_eq!(a.domains().count(), 1);
    }

    #[test]
    fn mutation_seq_is_dense_and_ordered() {
        let (shared, root, ram) = seeded();
        let (s0, r0) = shared.mutate(&[root], |e| e.split(root, ram, 0x8000));
        let (lo, _hi) = r0.unwrap();
        let (s1, r1) = shared.mutate(&[root], |e| e.revoke(root, lo));
        r1.unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(shared.mutations(), 2);
    }

    #[test]
    fn cross_thread_mutations_all_commit() {
        let (shared, root, _ram) = seeded();
        let shared = Arc::new(shared);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let (_, r) = s.mutate(&[root], |e| e.create_domain(root));
                        r.unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let shared = Arc::try_unwrap(shared).ok().expect("threads joined");
        assert_eq!(shared.mutations(), 200);
        let engine = shared.into_inner();
        assert_eq!(engine.domains().count(), 201);
        assert!(crate::audit::audit(&engine).is_empty());
    }

    #[test]
    fn shard_order_is_global() {
        // shard_of is a pure function of the id: two domains always map
        // to the same pair of shards in the same order, whichever side
        // initiates the cross-domain operation.
        let a = DomainId(3);
        let b = DomainId(7);
        assert_eq!(SharedEngine::shard_of(a), 3);
        assert_eq!(SharedEngine::shard_of(b), 7);
        assert_eq!(
            SharedEngine::shard_of(DomainId(3 + SHARDS as u64)),
            SharedEngine::shard_of(a)
        );
    }

    #[test]
    fn with_shards_folds_ids_onto_smaller_table() {
        let mut e = CapEngine::new();
        let root = e.create_root_domain();
        let shared = SharedEngine::with_shards(e, 4);
        assert_eq!(shared.shard_count(), 4);
        assert_eq!(shared.shard_index(DomainId(7)), 3);
        assert_eq!(shared.shard_index(DomainId(11)), 3);
        // Degenerate counts clamp to one shard instead of dividing by 0.
        assert_eq!(SharedEngine::shard_of_n(DomainId(9), 0), 0);
        let (_, r) = shared.mutate(&[root], |e| e.create_domain(root));
        r.unwrap();
        assert_eq!(shared.snapshot().domains().count(), 2);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        let mut e = CapEngine::new();
        let root = e.create_root_domain();
        let shared = SharedEngine::with_shards(e, 7);
        assert_eq!(shared.shard_count(), 8, "7 rounds up to 8");
        // Mask routing agrees with the pure helper at the rounded count.
        for raw in [0u64, 1, 7, 8, 9, 1023] {
            assert_eq!(
                shared.shard_index(DomainId(raw)),
                SharedEngine::shard_of_n(DomainId(raw), 7)
            );
        }
        let (_, r) = shared.mutate(&[root], |e| e.create_domain(root));
        r.unwrap();
    }

    #[test]
    fn resize_rebuilds_table_and_keeps_mutations_linearized() {
        let (shared, root, _ram) = seeded();
        let shared = Arc::new(shared);
        assert_eq!(shared.shard_count(), SHARDS);
        // Concurrent mutators race a stream of resizes; every mutation
        // must still commit exactly once under a consistent table.
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        if t == 0 && i % 10 == 0 {
                            s.resize_shards([8, 16, 32, 64][(i / 10) % 4]);
                        }
                        let (_, r) = s.mutate(&[root], |e| e.create_domain(root));
                        r.unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(shared.resize_shards(64), 64);
        assert_eq!(shared.shard_count(), 64);
        let shared = Arc::try_unwrap(shared).ok().expect("threads joined");
        assert_eq!(shared.mutations(), 200);
        let engine = shared.into_inner();
        assert_eq!(engine.domains().count(), 201);
        assert!(crate::audit::audit(&engine).is_empty());
    }

    #[test]
    fn pinned_reader_defers_reclamation() {
        let (shared, root, _ram) = seeded();
        let pin = shared.epochs().pin(0);
        let pinned_view = shared.snapshot();
        // A storm of publications while the reader stays pinned: nothing
        // displaced during the pin may be reclaimed.
        for _ in 0..(3 * SNAP_SLOTS) {
            let (_, r) = shared.mutate(&[root], |e| e.create_domain(root));
            r.unwrap();
        }
        assert_eq!(shared.epochs().published(), 3 * SNAP_SLOTS as u64);
        assert_eq!(
            shared.epochs().reclaimed(),
            0,
            "grace cannot elapse under a pin taken before the storm"
        );
        assert!(shared.epochs().retired_len() > 0);
        // The pinned reader's view is still the pre-storm state.
        assert_eq!(pinned_view.domains().count(), 1);
        drop(pin);
        shared.epochs().reclaim();
        assert_eq!(shared.epochs().retired_len(), 0, "unpinning drains the retired list");
        assert!(shared.epochs().reclaimed() > 0);
    }

    #[test]
    fn unpinned_publications_reclaim_immediately() {
        let (shared, root, _ram) = seeded();
        for _ in 0..SNAP_SLOTS {
            let (_, r) = shared.mutate(&[root], |e| e.create_domain(root));
            r.unwrap();
        }
        // With no readers pinned, each publish reclaims its own retiree.
        assert_eq!(shared.epochs().retired_len(), 0);
        assert_eq!(shared.epochs().reclaimed(), SNAP_SLOTS as u64);
        assert_eq!(shared.epochs().deferred(), 0);
    }
}
