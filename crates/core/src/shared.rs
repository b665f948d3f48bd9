//! The epoch read side shared by the SMP front end, plus its default
//! shard count.
//!
//! The engine itself stays a plain `&mut self` state machine — the BMC,
//! the corruption hooks, and every existing test keep driving it
//! directly. SMP serving lives in the monitor crate's
//! `ConcurrentMonitor`, which owns the shard locks and the engine lock
//! and serves every tier from the live engine. This module keeps the
//! two pieces of that front end that are not monitor-specific:
//!
//! - [`SHARDS`], the default number of domain shards;
//! - [`EpochReadSide`], an epoch/RCU-style ring of published
//!   `Arc<CapEngine>` copies. A publisher overwrites the oldest of a
//!   small ring of snapshot slots and swaps the head pointer, so
//!   reading the newest copy is one atomic head load plus an
//!   uncontended slot read. Readers that need a stable reclamation
//!   horizon across several reads pin an epoch first
//!   ([`EpochReadSide::pin`]); displaced snapshots are retired and
//!   reclaimed only after every pinned reader has advanced past their
//!   displacement epoch (retire-after-grace). The concurrent monitor's
//!   `snapshot` is the only publisher.
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

/// The epoch-based read side of the concurrent monitor: a ring of
/// published `(generation, snapshot)` slots, per-reader epoch pins, and
/// a retired list reclaimed after grace. See the module docs for the
/// lifecycle. The monitor serves from its live engine and publishes
/// only when its `snapshot` finds the head older than the live
/// generation.
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
    /// lock so publications are totally ordered: the concurrent monitor
    /// publishes from its `snapshot`, under that lock, a copy of a
    /// generation it has already recorded.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// An engine with a root domain, and a read side publishing it with
    /// one reader pin slot.
    fn seeded() -> (CapEngine, DomainId, EpochReadSide) {
        let mut e = CapEngine::new();
        let root = e.create_root_domain();
        e.endow(root, Resource::mem(0x0, 0x10_0000), Rights::RWX)
            .unwrap();
        let reads = EpochReadSide::new(e.generation(), Arc::new(e.clone()), 1);
        (e, root, reads)
    }

    /// Mutates `e` once and publishes the new state.
    fn mutate_and_publish(e: &mut CapEngine, root: DomainId, reads: &EpochReadSide) {
        e.create_domain(root).unwrap();
        reads.publish(e.generation(), Arc::new(e.clone()));
    }

    #[test]
    fn snapshot_reused_until_mutation() {
        let (mut e, root, reads) = seeded();
        let a = reads.current();
        let b = reads.current();
        assert!(Arc::ptr_eq(&a, &b), "no publication reuses the head slot");
        mutate_and_publish(&mut e, root, &reads);
        let (gen, c) = reads.current_with_gen();
        assert!(!Arc::ptr_eq(&a, &c), "a publication swaps the head");
        assert_eq!(gen, e.generation());
        assert_eq!(c.domains().count(), 2);
        // The old snapshot still reads its point-in-time state.
        assert_eq!(a.domains().count(), 1);
    }

    #[test]
    fn pinned_reader_defers_reclamation() {
        let (mut e, root, reads) = seeded();
        let pin = reads.pin(0);
        let pinned_view = reads.current();
        // A storm of publications while the reader stays pinned: nothing
        // displaced during the pin may be reclaimed.
        for _ in 0..(3 * SNAP_SLOTS) {
            mutate_and_publish(&mut e, root, &reads);
        }
        assert_eq!(reads.published(), 3 * SNAP_SLOTS as u64);
        assert_eq!(
            reads.reclaimed(),
            0,
            "grace cannot elapse under a pin taken before the storm"
        );
        assert_eq!(reads.retired_len() as u64, reads.published());
        assert_eq!(reads.deferred(), reads.published());
        // The pinned reader's view is still the pre-storm state.
        assert_eq!(pinned_view.domains().count(), 1);
        drop(pin);
        reads.reclaim();
        assert_eq!(reads.retired_len(), 0, "unpinning drains the retired list");
        assert_eq!(reads.reclaimed(), 3 * SNAP_SLOTS as u64);
    }

    #[test]
    fn unpinned_publications_reclaim_immediately() {
        let (mut e, root, reads) = seeded();
        for _ in 0..SNAP_SLOTS {
            mutate_and_publish(&mut e, root, &reads);
        }
        // With no readers pinned, each publish reclaims its own retiree.
        assert_eq!(reads.retired_len(), 0);
        assert_eq!(reads.reclaimed(), SNAP_SLOTS as u64);
        assert_eq!(reads.deferred(), 0);
    }
}
