//! Property tests for the arena-backed engine storage at scale.
//!
//! The slab [`Store`], the interval-tree `mem_index` and the unit
//! [`HolderIndex`] each keep a naive differential twin in the engine
//! (`caps_of_scan`, `active_mem_coverage_scan`,
//! `refcount_mem_full_scan`, `enumerate_scan`, `owns_unit_scan`; debug
//! and `paranoid-checks` builds only): full scans over the same state
//! that the indexed paths answer from their structures. These
//! properties drive randomized create/share/grant/revoke/quarantine/kill
//! interleavings to populations of ten thousand domains — enough churn
//! that the slab freelists recycle thousands of slots and hundreds of
//! domains share each core, device and interrupt — and require the
//! indexed answers to match the scans exactly, plus a slot-reuse
//! regression: a removed id never answers with the value of whoever
//! recycled its slot (ABA).
#![allow(clippy::unwrap_used, clippy::expect_used)]
// Without the twins, the churned-population helpers have no caller.
#![cfg_attr(not(any(debug_assertions, feature = "paranoid-checks")), allow(unused))]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};
use tyche_core::audit::audit;
use tyche_core::engine::EFFECTS_RETAIN;
use tyche_core::holders::{HolderIndex, UnitKey};
use tyche_core::interval::IntervalTree;
use tyche_core::prelude::*;
use tyche_core::store::{Store, INDEX_PAGE};

/// Domains per scale case. Large enough that slot reuse, lineage
/// compaction, and the interval tree's rebalancing all happen in bulk;
/// small enough that a handful of cases stays in test-suite budget.
const POPULATION: usize = 10_000;
/// Domains per corruption case: each rewrite is followed by a full
/// round of twin checks, so the population is smaller.
const CORRUPTED_POPULATION: usize = 1_000;
/// One 8 KiB lane per domain inside the root endowment.
const LANE: u64 = 0x2000;
/// Cores, devices and interrupt vectors in the root endowment: few
/// enough that hundreds of domains share each one.
const UNITS: u64 = 8;

/// xorshift64* — the same tiny generator the stress tests use, so the
/// interleavings are reproducible from the proptest-chosen seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Grows a population of `population` domains under seeded churn:
/// every domain may get a page of the root endowment shared into its
/// lane and a core, device or interrupt shared to it (one in four
/// without the use right), and a sliding window of older domains is
/// revoked or killed as the population grows, so creation constantly
/// reuses freed slots. Unit capabilities are also granted onward —
/// suspending the granter's until a revoke or kill reactivates it —
/// and some domains are quarantined.
fn churned_population(seed: u64, population: usize) -> (CapEngine, DomainId, Vec<DomainId>) {
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let ram = e
        .endow(
            root,
            Resource::mem(0, population as u64 * LANE),
            Rights::RWX,
        )
        .unwrap();
    let mut units: Vec<CapId> = Vec::new();
    for u in 0..UNITS {
        for r in [
            Resource::CpuCore(u as usize),
            Resource::Device(u as u16),
            Resource::Interrupt(u as u32),
        ] {
            units.push(e.endow(root, r, Rights::USE).unwrap());
        }
    }
    let mut rng = Rng::new(seed);
    let mut live: Vec<DomainId> = Vec::new();
    let mut shared_caps: Vec<CapId> = Vec::new();
    let mut unit_caps: Vec<CapId> = Vec::new();
    let (mut granted, mut reactivated, mut quarantined) = (0usize, 0usize, 0usize);
    for i in 0..population {
        let (d, _gate) = e.create_domain(root).unwrap();
        if rng.below(4) == 0 {
            let unit = units[rng.below(units.len() as u64) as usize];
            let rights = if rng.below(4) == 0 {
                Rights::NONE
            } else {
                Rights::USE
            };
            let cap = e
                .share(root, unit, d, None, rights, RevocationPolicy::NONE)
                .unwrap();
            unit_caps.push(cap);
        }
        // Grant a live unit capability to the newcomer: the holder's
        // copy is suspended until the grant is revoked or `d` dies.
        if rng.below(8) == 0 && !unit_caps.is_empty() {
            let cap = unit_caps[rng.below(unit_caps.len() as u64) as usize];
            if let Some(c) = e.cap(cap).filter(|c| c.active) {
                let (holder, rights) = (c.owner, c.rights);
                if let Ok(g) = e.grant(holder, cap, d, None, rights, RevocationPolicy::NONE) {
                    unit_caps.push(g);
                    granted += 1;
                }
            }
        }
        if rng.below(2) == 0 {
            let base = i as u64 * LANE;
            let cap = e
                .share(
                    root,
                    ram,
                    d,
                    Some(MemRegion::new(base, base + 0x1000)),
                    Rights::RW,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            shared_caps.push(cap);
        }
        live.push(d);
        // Churn: revoke a random earlier share or kill a random earlier
        // domain, each about once per eight creations, so the slab
        // freelists and the interval tree see constant recycling.
        if rng.below(8) == 0 && !shared_caps.is_empty() {
            let idx = rng.below(shared_caps.len() as u64) as usize;
            let cap = shared_caps.swap_remove(idx);
            if e.cap(cap).is_some() {
                let _ = e.revoke(root, cap);
            }
        }
        if rng.below(8) == 0 && !unit_caps.is_empty() {
            let idx = rng.below(unit_caps.len() as u64) as usize;
            let cap = unit_caps.swap_remove(idx);
            let suspended_parent = e
                .cap(cap)
                .filter(|c| c.kind == CapKind::Granted)
                .and_then(|c| c.parent);
            if e.cap(cap).is_some() {
                let _ = e.revoke(root, cap);
            }
            if suspended_parent
                .and_then(|p| e.cap(p))
                .is_some_and(|p| p.active)
            {
                reactivated += 1;
            }
        }
        if rng.below(8) == 0 && live.len() > 1 {
            let idx = rng.below(live.len() as u64 - 1) as usize;
            let victim = live.swap_remove(idx);
            let _ = e.kill(root, victim);
        }
        if rng.below(64) == 0 && !live.is_empty() {
            let victim = live[rng.below(live.len() as u64) as usize];
            e.quarantine(victim).unwrap();
            quarantined += 1;
        }
        // Keep the drained-effects backlog bounded during the build.
        if i % 1024 == 0 {
            let _ = e.drain_effects();
        }
    }
    assert!(
        granted > 0 && reactivated > 0 && quarantined > 0,
        "churn skipped a transition: {granted} grants, {reactivated} reactivations, \
         {quarantined} quarantines"
    );
    (e, root, live)
}

/// Requires every indexed engine query to equal its scan twin: the
/// whole coverage view, each of `domains`' capabilities, enumeration
/// and core/device ownership, and 64 random refcount windows across a
/// `population`-lane endowment. True when some enumerated unit resource
/// was shared (refcount above one).
#[cfg(any(debug_assertions, feature = "paranoid-checks"))]
fn twins_agree(
    e: &CapEngine,
    domains: &[DomainId],
    rng: &mut Rng,
    population: usize,
) -> Result<bool, TestCaseError> {
    let key = |v: &(DomainId, MemRegion)| (v.0, v.1.start, v.1.end);
    let mut coverage = e.active_mem_coverage();
    let mut scan = e.active_mem_coverage_scan();
    coverage.sort_by_key(key);
    scan.sort_by_key(key);
    prop_assert_eq!(coverage, scan);
    let mut shared_unit_seen = false;
    for &d in domains {
        let indexed: Vec<CapId> = e.caps_of(d).iter().map(|c| c.id).collect();
        let scanned: Vec<CapId> = e.caps_of_scan(d).iter().map(|c| c.id).collect();
        prop_assert_eq!(indexed, scanned, "caps_of diverged for {:?}", d);
        let listed = e.enumerate(d).ok();
        prop_assert_eq!(
            &listed,
            &e.enumerate_scan(d).ok(),
            "enumerate diverged for {:?}",
            d
        );
        shared_unit_seen |= listed.into_iter().flatten().any(|r| {
            !matches!(r.resource, Resource::Memory(_) | Resource::Transition(_))
                && r.refcount.max > 1
        });
        for u in 0..UNITS {
            prop_assert_eq!(
                e.owns_core(d, u as usize),
                e.owns_unit_scan(d, Resource::CpuCore(u as usize)),
                "owns_core diverged for {:?} on core {}",
                d,
                u
            );
            prop_assert_eq!(
                e.owns_device(d, u as u16),
                e.owns_unit_scan(d, Resource::Device(u as u16)),
                "owns_device diverged for {:?} on device {}",
                d,
                u
            );
        }
    }
    for _ in 0..64 {
        let start = rng.below(population as u64) * LANE;
        let len = (1 + rng.below(64)) * 0x1000;
        let region = MemRegion::new(start, start + len);
        prop_assert_eq!(
            e.refcount_mem_full(region),
            e.refcount_mem_full_scan(region),
            "refcount diverged on {:?}",
            region
        );
    }
    Ok(shared_unit_seen)
}

proptest! {
    // Each case builds a 10k-domain engine; a few seeds is plenty.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// At 10k domains with heavy slot churn, every indexed query agrees
    /// with its naive scan twin, and the audit stays clean.
    #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
    #[test]
    fn indexed_queries_match_scan_twins_at_scale(seed in any::<u64>()) {
        let (mut e, root, live) = churned_population(seed, POPULATION);
        prop_assert!(audit(&e).is_empty());

        // Per-domain twins on a sample (plus root, the busiest owner).
        let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
        let mut sample: Vec<DomainId> = (0..32)
            .filter_map(|_| {
                if live.is_empty() {
                    None
                } else {
                    Some(live[rng.below(live.len() as u64) as usize])
                }
            })
            .collect();
        sample.push(root);
        let shared_unit_seen = twins_agree(&e, &sample, &mut rng, POPULATION)?;
        prop_assert!(shared_unit_seen, "no enumerated unit resource was shared");

        // Rewrite a shared core capability's owner through the hook: the
        // holder index follows the record, so the new owner is credited
        // and the old one is not.
        let (cap, old, core) = e
            .caps()
            .find_map(|c| match c.resource {
                Resource::CpuCore(core) if c.active && c.rights.can_use() && c.owner != root => {
                    Some((c.id, c.owner, core))
                }
                _ => None,
            })
            .expect("a tenant holds a usable core");
        let new = sample
            .iter()
            .copied()
            .find(|&d| d != old && !e.owns_core(d, core))
            .expect("a sampled domain without that core");
        prop_assert!(e.corrupt_cap(cap, |c| c.owner = new));
        prop_assert!(e.owns_core(new, core), "holder index missed the new owner");
        for d in [old, new, root] {
            prop_assert_eq!(e.owns_core(d, core), e.owns_unit_scan(d, Resource::CpuCore(core)));
            prop_assert_eq!(e.enumerate(d).ok(), e.enumerate_scan(d).ok());
        }
    }

    /// Corruption keeps the indexes exact: random capabilities get their
    /// owner, memory region or `active` flag rewritten through the
    /// closure hook, and after every rewrite each indexed query still
    /// equals its scan twin for the domains involved.
    #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
    #[test]
    fn corrupted_caps_keep_indexed_queries_exact(seed in any::<u64>()) {
        let (mut e, root, live) = churned_population(seed, CORRUPTED_POPULATION);
        let mut rng = Rng::new(seed ^ 0x0BAD_CAFE);
        let ids: Vec<CapId> = e.caps().map(|c| c.id).collect();
        let mem_ids: Vec<CapId> = e.caps().filter(|c| c.is_memory()).map(|c| c.id).collect();
        for round in 0..48 {
            // Rotate through the three rewrites; a region rewrite picks
            // a memory capability (the others keep it one).
            let field = round % 3;
            let pool = if field == 1 { &mem_ids } else { &ids };
            let cap = pool[rng.below(pool.len() as u64) as usize];
            let old_owner = e.cap(cap).expect("live cap").owner;
            let owner = live[rng.below(live.len() as u64) as usize];
            let start = rng.below(CORRUPTED_POPULATION as u64) * LANE;
            let end = start + (1 + rng.below(4)) * 0x1000;
            prop_assert!(e.corrupt_cap(cap, |c| match field {
                0 => c.owner = owner,
                1 => c.resource = Resource::mem(start, end),
                _ => c.active = !c.active,
            }));
            twins_agree(&e, &[old_owner, owner, root], &mut rng, CORRUPTED_POPULATION)?;
        }
    }

    /// The unit holder index against a `BTreeSet` model of
    /// `(unit, owner, cap)` entries: after insert/remove interleavings
    /// every unit's owner count and every owner's capability list agree
    /// with the model, and draining the model prunes the index back to
    /// empty.
    #[test]
    fn holder_index_agrees_with_set_model(seed in any::<u64>()) {
        let mut index = HolderIndex::default();
        let mut model: BTreeSet<(UnitKey, DomainId, CapId)> = BTreeSet::new();
        let mut rng = Rng::new(seed);
        let unit = |rng: &mut Rng| ([1u8, 2, 4][rng.below(3) as usize], rng.below(16));
        for _ in 0..20_000 {
            let entry = (unit(&mut rng), DomainId(rng.below(64)), CapId(rng.below(512)));
            if rng.below(3) == 0 {
                index.remove(entry.0, entry.1, entry.2);
                model.remove(&entry);
            } else {
                index.insert(entry.0, entry.1, entry.2);
                model.insert(entry);
            }
        }
        for tag in [1u8, 2, 4] {
            for value in 0..16 {
                let key = (tag, value);
                let owners: BTreeSet<DomainId> =
                    model.iter().filter(|e| e.0 == key).map(|e| e.1).collect();
                prop_assert_eq!(index.owner_count(key), owners.len());
                for owner in (0..64).map(DomainId) {
                    let want: Vec<CapId> = model
                        .iter()
                        .filter(|e| e.0 == key && e.1 == owner)
                        .map(|e| e.2)
                        .collect();
                    prop_assert!(index.caps_of(key, owner).eq(want));
                }
            }
        }
        prop_assert!(index.storage_bytes() > 0);
        for (unit, owner, cap) in std::mem::take(&mut model) {
            index.remove(unit, owner, cap);
        }
        prop_assert_eq!(index.storage_bytes(), 0);
        prop_assert_eq!(index, HolderIndex::default());
    }

    /// Raw slab semantics against a `BTreeMap` model under randomized
    /// insert/remove/reinsert interleavings: contents, id-ordered
    /// iteration, and freelist reuse all line up, and no removed id
    /// answers after its slot is recycled (ABA regression).
    #[test]
    fn store_agrees_with_map_model_and_defeats_aba(
        seed in any::<u64>(),
        steps in 2_000usize..4_000
    ) {
        let mut store: Store<u64> = Store::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut removed = BTreeSet::new();
        let mut rng = Rng::new(seed);
        for step in 0..steps as u64 {
            let id = rng.below(512);
            match rng.below(3) {
                0 => {
                    prop_assert_eq!(store.insert(id, step), model.insert(id, step));
                }
                1 => {
                    // Remember the removed id: unless reinserted, it must
                    // never answer again, even after a later insert
                    // recycles its slot.
                    if store.contains(id) {
                        removed.insert(id);
                    }
                    prop_assert_eq!(store.remove(id), model.remove(&id));
                }
                _ => {
                    prop_assert_eq!(store.get(id), model.get(&id));
                }
            }
        }
        prop_assert_eq!(store.len(), model.len());
        prop_assert!(store.iter().eq(model.iter().map(|(&k, v)| (k, v))));
        // The arena never outgrows peak occupancy: every freed slot is
        // reusable, so slots ≤ live + free.
        prop_assert_eq!(store.slot_count(), store.len() + store.free_slots());
        for id in removed.into_iter().filter(|id| !model.contains_key(id)) {
            prop_assert!(
                store.get(id).is_none() && !store.contains(id),
                "removed id {} answered after slot reuse",
                id
            );
        }
    }

    /// The paged sparse index against a `BTreeMap` model. Ids cluster at
    /// the edges of four adjacent index pages, and the run alternates
    /// fill-biased and drain-biased blocks, so pages fill, empty, are
    /// released, and are refilled. Every insert/remove/get result and
    /// the id-ordered iteration match the model, and exactly the pages
    /// holding a live id stay in the directory. The accounting rule:
    /// `storage_bytes` counts the one spare page, so a release lowers it
    /// unless the released page became the spare, a refill takes the
    /// spare, and the store never holds more than its live pages plus
    /// one.
    #[test]
    fn paged_index_agrees_with_map_model(
        seed in any::<u64>(),
        steps in 4_000usize..6_000
    ) {
        let page = INDEX_PAGE as u64;
        let mut store: Store<u64> = Store::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = Rng::new(seed);
        let (mut released, mut refilled) = (0u32, 0u32);
        let (mut kept, mut reused) = (0u32, 0u32);
        let mut freed_pages: BTreeSet<u64> = BTreeSet::new();
        for step in 0..steps as u64 {
            // Four ids at each end of a page, so every id on the page is
            // removed often enough for the page to empty.
            let p = rng.below(4);
            let edge = rng.below(4);
            let id = if rng.below(2) == 0 {
                p * page + edge
            } else {
                p * page + page - 1 - edge
            };
            let filling = (step / 256) % 2 == 0;
            let insert_odds = if filling { 3 } else { 1 };
            match rng.below(5) {
                r if r < insert_odds => {
                    let (pages_before, spare_before) =
                        (store.index_pages(), store.has_spare_page());
                    prop_assert_eq!(store.insert(id, step), model.insert(id, step));
                    if store.index_pages() > pages_before {
                        prop_assert!(!store.has_spare_page(), "a new page takes the spare");
                        if freed_pages.remove(&p) {
                            refilled += 1;
                            reused += u32::from(spare_before);
                        }
                    }
                }
                4 => prop_assert_eq!(store.get(id), model.get(&id)),
                _ => {
                    let (pages_before, bytes_before, spare_before) =
                        (store.index_pages(), store.storage_bytes(), store.has_spare_page());
                    prop_assert_eq!(store.remove(id), model.remove(&id));
                    if store.index_pages() < pages_before {
                        released += 1;
                        freed_pages.insert(p);
                        prop_assert!(store.has_spare_page(), "a release leaves a spare");
                        if spare_before {
                            prop_assert!(
                                store.storage_bytes() < bytes_before,
                                "releasing page {} beside a spare kept {} bytes",
                                p,
                                bytes_before
                            );
                        } else {
                            // Counted as the spare; the freelist may
                            // have grown as well.
                            kept += 1;
                            prop_assert!(store.storage_bytes() >= bytes_before);
                        }
                    }
                }
            }
            let live_pages: BTreeSet<u64> = model.keys().map(|id| id / page).collect();
            prop_assert_eq!(store.index_pages(), live_pages.len());
            prop_assert!(
                store.index_pages() + usize::from(store.has_spare_page()) <= live_pages.len() + 1
            );
            prop_assert_eq!(store.len(), model.len());
        }
        prop_assert!(store.iter().eq(model.iter().map(|(&k, v)| (k, v))));
        prop_assert!(released > 0, "no page was ever released");
        prop_assert!(refilled > 0, "no released page was ever refilled");
        prop_assert!(kept > 0, "no released page was ever kept as the spare");
        prop_assert!(reused > 0, "no refill ever took the spare");
    }

    /// The interval tree against a `BTreeMap` model: insert/remove/
    /// replace interleavings at 10k+ keys preserve in-order iteration
    /// and every overlap query.
    #[test]
    fn interval_tree_agrees_with_map_model(seed in any::<u64>()) {
        let mut tree = IntervalTree::default();
        let mut model: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
        let mut rng = Rng::new(seed);
        for i in 0..12_000u64 {
            let start = rng.below(1 << 20) * 0x1000;
            let cap = CapId(rng.below(4096));
            match rng.below(4) {
                0 => {
                    tree.remove(start, cap);
                    model.remove(&(start, cap.0));
                }
                _ => {
                    let end = start + (1 + rng.below(256)) * 0x1000;
                    let owner = DomainId(i % 97);
                    tree.insert(start, cap, end, owner);
                    model.insert((start, cap.0), (end, owner.0));
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        prop_assert!(tree
            .iter()
            .map(|e| ((e.start, e.cap.0), (e.end, e.owner.0)))
            .eq(model.iter().map(|(&k, &v)| (k, v))));
        for _ in 0..64 {
            let qs = rng.below(1 << 20) * 0x1000;
            let qe = qs + (1 + rng.below(512)) * 0x1000;
            let got: Vec<_> = tree
                .overlapping(qs, qe)
                .into_iter()
                .map(|e| ((e.start, e.cap.0), (e.end, e.owner.0)))
                .collect();
            let want: Vec<_> = model
                .iter()
                .filter(|(&(s, _), &(e, _))| s < qe && e > qs)
                .map(|(&k, &v)| (k, v))
                .collect();
            prop_assert_eq!(got, want, "overlap diverged on [{qs:#x}, {qe:#x})");
        }
    }
}

/// `drain_effects` capacity accounting: a storm that queues far more
/// effects than the retain cap hands the whole backlog to the caller,
/// then shrinks the internal buffer back to at most [`EFFECTS_RETAIN`]
/// so one burst cannot pin its high-water allocation forever.
#[test]
fn drain_effects_returns_backlog_and_sheds_capacity() {
    let mut e = CapEngine::new();
    let root = e.create_root_domain();
    let ram = e
        .endow(
            root,
            Resource::mem(0, 8 * EFFECTS_RETAIN as u64 * 0x1000),
            Rights::RWX,
        )
        .unwrap();
    let mut caps = Vec::new();
    for i in 0..2 * EFFECTS_RETAIN as u64 {
        let (d, _gate) = e.create_domain(root).unwrap();
        let base = i * 0x1000;
        let cap = e
            .share(
                root,
                ram,
                d,
                Some(MemRegion::new(base, base + 0x1000)),
                Rights::RW,
                RevocationPolicy::ZERO,
            )
            .unwrap();
        caps.push(cap);
    }
    for cap in caps {
        e.revoke(root, cap).unwrap();
    }
    let drained = e.drain_effects();
    assert!(
        drained.len() > EFFECTS_RETAIN,
        "storm should overrun the retain cap (got {})",
        drained.len()
    );
    assert!(
        e.effects_capacity() <= EFFECTS_RETAIN,
        "drain kept a {}-element buffer after a {}-effect storm",
        e.effects_capacity(),
        drained.len()
    );
    // Steady state: small drains size the buffer to what was drained.
    let (d, _gate) = e.create_domain(root).unwrap();
    e.kill(root, d).unwrap();
    let small = e.drain_effects();
    assert!(!small.is_empty());
    assert!(e.effects_capacity() <= EFFECTS_RETAIN);
    // The revoke storm left its lineage in the compacted side table.
    assert!(!e.revoked_log().is_empty() || e.revoked_log().dropped() > 0);
}
