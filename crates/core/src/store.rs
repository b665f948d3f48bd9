//! Slab/arena-backed id-keyed storage for million-domain populations.
//!
//! The engine's hot maps (`domains`, `caps`, the owner index) used to
//! be `BTreeMap`s: every lookup on every hypercall paid `O(log n)`
//! pointer chasing, and a create/revoke storm across 10⁵–10⁶ domains
//! spent most of its time rebalancing. [`Store`] replaces them with a
//! slab layout:
//!
//! - a **dense slot arena** (`Vec<Option<T>>`) holding the live values,
//!   recycled through a freelist so a revoke storm reuses slots instead
//!   of leaking them;
//! - a **two-level sparse index** from the raw external id to its slot
//!   number: a page directory indexed by `id / INDEX_PAGE` pointing at
//!   [`INDEX_PAGE`]-entry pages, making insert/lookup/free `O(1)`.
//!
//! External ids are untouched: they come from the engine's shared
//! monotonic [`IdAllocator`](crate::ids::IdAllocator) and are never
//! reused, so a slot recycled for a new id can never answer for the old
//! one: the old id's index entry was cleared when it was removed, and
//! nothing else names a slot. Each index page counts its live entries
//! and leaves the directory when the last one is removed, so index
//! memory follows the live ids: a page costs 2 KiB while any of its 512
//! ids is live, plus one spare page per store, and the directory costs
//! 8 bytes per 512 ids ever issued. An emptied page becomes the spare
//! unless the store already has one, and the next page the index needs
//! is the spare: it is already all [`EMPTY`], so a steady create/kill
//! churn that crosses page boundaries neither allocates nor re-fills
//! index pages. Iteration walks the directory and its pages in
//! ascending id order, so every `*_scan` differential twin and every
//! auditor walk observes exactly the order the `BTreeMap`s used to
//! give.
//!
//! Equality is **logical**: two stores are `==` when they hold the same
//! `(id, value)` pairs, whatever their slot layouts — replay checks
//! compare engines built by different interleavings of the same
//! linearized history, and slot layout is history-dependent.
//!
//! [`RevokedLog`] is the companion side table: revocation compacts each
//! revoked capability's lineage facts into a packed, bounded record
//! ring instead of leaving tombstones in the live table.

use crate::capability::CapKind;
use crate::ids::{CapId, DomainId};

/// Sentinel for "this id has no live slot" in the sparse index.
const EMPTY: u32 = u32::MAX;

/// Ids per sparse-index page: 512 slot numbers, 2 KiB.
pub const INDEX_PAGE: usize = 512;

/// One sparse-index page: the slot numbers of [`INDEX_PAGE`]
/// consecutive ids plus how many of them are live, so the page can
/// leave the directory the moment its last id is removed.
#[derive(Clone, Debug)]
struct IndexPage {
    live: usize,
    slots: [u32; INDEX_PAGE],
}

impl IndexPage {
    fn empty() -> Box<Self> {
        Box::new(IndexPage {
            live: 0,
            slots: [EMPTY; INDEX_PAGE],
        })
    }
}

/// An id-keyed slab store: `O(1)` insert/lookup/free, freelist slot
/// reuse, id-ordered iteration. See the module docs for the layout.
#[derive(Clone)]
pub struct Store<T> {
    /// Dense slot arena; `None` while a slot is on the freelist.
    slots: Vec<Option<T>>,
    /// Freed slot indices awaiting reuse (LIFO).
    free: Vec<u32>,
    /// Page directory: entry `p` holds the slot numbers of ids
    /// `p * INDEX_PAGE ..`, [`EMPTY`] when absent, and is `None` while
    /// none of those ids is live.
    pages: Vec<Option<Box<IndexPage>>>,
    /// The last page to empty, all [`EMPTY`], kept for the next page
    /// the directory needs.
    spare: Option<Box<IndexPage>>,
    /// Live entries.
    len: usize,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store {
            slots: Vec::new(),
            free: Vec::new(),
            pages: Vec::new(),
            spare: None,
            len: 0,
        }
    }
}

impl<T> Store<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(page, offset)` of `id` in the sparse index; `None` only for
    /// ids past the address space (never on a 64-bit host).
    fn locate(id: u64) -> Option<(usize, usize)> {
        let page = usize::try_from(id / INDEX_PAGE as u64).ok()?;
        Some((page, (id % INDEX_PAGE as u64) as usize))
    }

    /// The slot backing `id`, if live.
    fn entry(&self, id: u64) -> Option<usize> {
        let (page, off) = Self::locate(id)?;
        let slot = *self.pages.get(page)?.as_ref()?.slots.get(off)?;
        (slot != EMPTY).then_some(slot as usize)
    }

    /// Inserts `val` under `id`, returning the previous value if the id
    /// was already live (BTreeMap `insert` semantics). An id the index
    /// cannot address (past the address space) is refused by handing
    /// `val` back.
    pub fn insert(&mut self, id: u64, val: T) -> Option<T> {
        if let Some(cell) = self.entry(id).and_then(|slot| self.slots.get_mut(slot)) {
            return cell.replace(val);
        }
        let Some((p, off)) = Self::locate(id) else {
            return Some(val);
        };
        if p >= self.pages.len() {
            self.pages.resize_with(p.saturating_add(1), || None);
        }
        let Some(page) = self.pages.get_mut(p) else {
            return Some(val);
        };
        let spare = &mut self.spare;
        let page = page.get_or_insert_with(|| spare.take().unwrap_or_else(IndexPage::empty));
        let Some(cell) = page.slots.get_mut(off) else {
            return Some(val);
        };
        let slot = match self.free.pop() {
            Some(s) => {
                if let Some(freed) = self.slots.get_mut(s as usize) {
                    *freed = Some(val);
                }
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(val));
                s
            }
        };
        if *cell == EMPTY {
            page.live += 1;
            self.len += 1;
        }
        *cell = slot;
        None
    }

    /// Removes `id`, returning its value. The slot goes back on the
    /// freelist and `id`'s index entry is cleared, so a later occupant
    /// of the slot is reachable only through its own id. The id's index
    /// page leaves the directory when this was its last live id, and
    /// becomes the spare unless there already is one.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let (p, off) = Self::locate(id)?;
        let dir_entry = self.pages.get_mut(p)?;
        let page = dir_entry.as_mut()?;
        let cell = page.slots.get_mut(off)?;
        if *cell == EMPTY {
            return None;
        }
        let slot = *cell;
        let val = self.slots.get_mut(slot as usize)?.take()?;
        *cell = EMPTY;
        page.live -= 1;
        if page.live == 0 {
            let emptied = dir_entry.take();
            if self.spare.is_none() {
                self.spare = emptied;
            }
        }
        self.free.push(slot);
        self.len -= 1;
        Some(val)
    }

    /// True when `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.entry(id).is_some()
    }

    /// Looks up `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.entry(id)?)?.as_ref()
    }

    /// Mutable lookup of `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.entry(id)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Iterates live `(id, value)` pairs in ascending id order — the
    /// exact order the engine's former `BTreeMap`s iterated in, so
    /// differential twins and audits see unchanged sequences. A full
    /// walk visits every directory entry and every entry of each live
    /// page: `O(ids ever issued / INDEX_PAGE + live pages · INDEX_PAGE)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        // `zip` with an explicit id counter (not `.enumerate()`): the
        // static certifier's call-graph extractor resolves bare method
        // names workspace-wide, and `enumerate` is an engine hypercall.
        (0u64..)
            .zip(self.pages.iter())
            .filter_map(|(p, page)| page.as_deref().map(|page| (p, page)))
            .flat_map(move |(p, page)| {
                (p * INDEX_PAGE as u64..)
                    .zip(page.slots.iter())
                    .filter_map(move |(id, &slot)| {
                        if slot == EMPTY {
                            return None;
                        }
                        self.slots
                            .get(slot as usize)
                            .and_then(Option::as_ref)
                            .map(|v| (id, v))
                    })
            })
    }

    /// Iterates live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Slots currently on the freelist (reused before the arena grows).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Total arena slots ever allocated (live + free).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Sparse-index pages in the directory (each holds at least one
    /// live id). The spare is not among them.
    pub fn index_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// True while an emptied index page is kept as the spare.
    pub fn has_spare_page(&self) -> bool {
        self.spare.is_some()
    }

    /// Heap bytes held by the store's arrays (capacity-based, so this
    /// is retained footprint, not instantaneous live bytes). Counts the
    /// slot arena, the freelist, the page directory, the index pages in
    /// it and the spare page; `T`'s own heap allocations (e.g. a `Vec`
    /// inside) are not visible here.
    pub fn storage_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.pages.capacity() * std::mem::size_of::<Option<Box<IndexPage>>>()
            + (self.index_pages() + usize::from(self.has_spare_page()))
                * std::mem::size_of::<IndexPage>()
    }
}

impl<T: PartialEq> PartialEq for Store<T> {
    /// Logical equality: same `(id, value)` pairs, any slot layout.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for Store<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for Store<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Maximum lineage records retained by a [`RevokedLog`]; older records
/// are dropped (and counted) so a 1M-domain revoke storm cannot turn
/// the side table into a second unbounded capability table.
pub const REVOKED_LOG_CAP: usize = 4096;

/// One compacted lineage record for a revoked capability: everything a
/// post-mortem needs (who held it, who granted it, where it hung in
/// the tree, when it died) in five words — no `Capability` tombstone
/// stays behind in the live table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevokedRecord {
    /// The revoked capability.
    pub cap: CapId,
    /// Its lineage parent at revocation time, if any.
    pub parent: Option<CapId>,
    /// The owner it was revoked from.
    pub owner: DomainId,
    /// The domain that had granted/shared it.
    pub granter: DomainId,
    /// How the capability had been derived.
    pub kind: CapKind,
    /// Engine operation counter at revocation.
    pub revoked_at: u64,
}

/// Bounded ring of [`RevokedRecord`]s — the packed side table revoked
/// lineage compacts into. Like the trace sink, the log **compares
/// vacuously equal**: replay and snapshot equality are about live
/// capability state, and two engines reaching the same state through
/// different histories are still the same engine.
#[derive(Clone, Debug, Default)]
pub struct RevokedLog {
    records: Vec<RevokedRecord>,
    /// Index of the logical start of the ring inside `records`.
    head: usize,
    /// Records dropped after the ring filled.
    dropped: u64,
}

impl RevokedLog {
    /// Appends a record, dropping the oldest once the ring is full.
    pub fn push(&mut self, rec: RevokedRecord) {
        if self.records.len() < REVOKED_LOG_CAP {
            self.records.push(rec);
        } else {
            if let Some(cell) = self.records.get_mut(self.head) {
                *cell = rec;
            }
            self.head = (self.head + 1) % REVOKED_LOG_CAP.max(1);
            self.dropped += 1;
        }
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RevokedRecord> {
        let (newer, older) = self.records.split_at(self.head.min(self.records.len()));
        older.iter().chain(newer.iter())
    }

    /// Retained record count (at most [`REVOKED_LOG_CAP`]).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been revoked yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap bytes held by the ring (capacity-based).
    pub fn storage_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<RevokedRecord>()
    }
}

impl PartialEq for RevokedLog {
    /// Vacuously equal — revocation history is observability, not live
    /// state (same contract as the trace sink field).
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for RevokedLog {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Store<&'static str> = Store::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(3, "three"), None);
        assert_eq!(s.insert(1, "one"), None);
        assert_eq!(s.get(3), Some(&"three"));
        assert_eq!(s.get(2), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.insert(3, "trois"), Some("three"), "replace returns old");
        assert_eq!(s.len(), 2, "replace does not grow");
        assert_eq!(s.remove(3), Some("trois"));
        assert_eq!(s.remove(3), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_id_ordered_regardless_of_slot_layout() {
        let mut s: Store<u64> = Store::new();
        for id in [5u64, 2, 9, 0, 7] {
            s.insert(id, id * 10);
        }
        // Free and reuse slots out of order.
        s.remove(2);
        s.remove(9);
        s.insert(4, 40);
        s.insert(8, 80);
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(
            ids,
            vec![0, 4, 5, 7, 8],
            "ascending id order survives reuse"
        );
    }

    #[test]
    fn freelist_reuses_slots_instead_of_leaking() {
        let mut s: Store<u64> = Store::new();
        for id in 0..100u64 {
            s.insert(id, id);
        }
        assert_eq!(s.slot_count(), 100);
        for id in 0..100u64 {
            s.remove(id);
        }
        assert_eq!(s.free_slots(), 100);
        // A second storm with fresh (never-reused) ids fits in the same
        // arena: a revoke storm does not leak slots.
        for id in 100..200u64 {
            s.insert(id, id);
        }
        assert_eq!(s.slot_count(), 100, "slots recycled, arena unchanged");
        assert_eq!(s.free_slots(), 0);
    }

    #[test]
    fn reused_slot_never_answers_for_the_old_id() {
        let mut s: Store<&'static str> = Store::new();
        s.insert(1, "first");
        assert_eq!(s.remove(1), Some("first"));
        // The freed slot is reused for a different id: the old id must
        // not see the new occupant through it.
        s.insert(2, "second");
        assert_eq!(s.slot_count(), 1, "the slot was recycled");
        assert_eq!(s.get(2), Some(&"second"));
        assert_eq!(s.get(1), None, "the retired id stays absent");
        assert!(!s.contains(1));
        assert_eq!(s.get_mut(1), None);
        assert_eq!(s.remove(1), None, "removing it again frees nothing");
        assert_eq!(s.get(2), Some(&"second"), "the new occupant is intact");
        let live: Vec<(u64, &str)> = s.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(live, vec![(2, "second")]);
    }

    #[test]
    fn equality_is_logical_not_layout() {
        let mut a: Store<u64> = Store::new();
        let mut b: Store<u64> = Store::new();
        // Same final contents through different histories → different
        // slot layouts, equal stores.
        a.insert(1, 10);
        a.insert(2, 20);
        b.insert(2, 20);
        b.insert(7, 70);
        b.remove(7);
        b.insert(1, 10);
        assert_eq!(a, b);
        b.insert(3, 30);
        assert_ne!(a, b);
    }

    #[test]
    fn index_pages_follow_live_ids() {
        let mut s: Store<u64> = Store::new();
        let page = INDEX_PAGE as u64;
        // Ids on three pages; the middle page holds a single id.
        for id in [1, page - 1, page + 7, 2 * page] {
            s.insert(id, id);
        }
        assert_eq!(s.index_pages(), 3);
        assert!(!s.has_spare_page());
        let with_middle = s.storage_bytes();
        assert_eq!(s.remove(page + 7), Some(page + 7));
        assert_eq!(s.index_pages(), 2, "emptied page leaves the directory");
        assert!(s.has_spare_page(), "and is kept as the spare");
        // The spare is counted (the freelist may have grown as well).
        assert!(s.storage_bytes() >= with_middle, "the spare is counted");
        assert_eq!(s.get(page + 7), None);
        // Only one spare is kept: the next emptied page is freed.
        assert_eq!(s.remove(2 * page), Some(2 * page));
        assert_eq!(s.index_pages(), 1);
        assert!(s.storage_bytes() < with_middle);
        let one_page = s.storage_bytes();
        // Refilling an emptied page takes the spare instead of
        // allocating, and the spare comes back all empty.
        s.insert(page + 8, 8);
        assert_eq!(s.index_pages(), 2);
        assert!(!s.has_spare_page());
        assert_eq!(s.storage_bytes(), one_page);
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, page - 1, page + 8]);
    }

    #[test]
    fn revoked_log_is_bounded_and_counts_drops() {
        let mut log = RevokedLog::default();
        let rec = |n: u64| RevokedRecord {
            cap: CapId(n),
            parent: None,
            owner: DomainId(0),
            granter: DomainId(0),
            kind: CapKind::Shared,
            revoked_at: n,
        };
        for n in 0..(REVOKED_LOG_CAP as u64 + 10) {
            log.push(rec(n));
        }
        assert_eq!(log.len(), REVOKED_LOG_CAP);
        assert_eq!(log.dropped(), 10);
        let first = log.iter().next().copied().expect("non-empty");
        assert_eq!(first.revoked_at, 10, "oldest surviving record");
        let last = log.iter().last().copied().expect("non-empty");
        assert_eq!(last.revoked_at, REVOKED_LOG_CAP as u64 + 9);
        // The log never participates in equality.
        assert_eq!(log, RevokedLog::default());
    }
}
