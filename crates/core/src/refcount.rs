//! Reference counts over physical resources — the paper's Figure 4.
//!
//! "The monitor maintains ... a system-wide reference count ... to reflect
//! the number of domains with access to the resource. It ensures
//! attestable controlled sharing of resources." (§3.1)
//!
//! A reference count here is the number of *distinct domains* that hold an
//! active capability reaching a resource. For memory the question is asked
//! per byte range; because capabilities can cover arbitrary overlapping
//! ranges, the count over a queried range is computed by a boundary sweep:
//! the result reports both the maximum and minimum per-byte count so
//! callers can distinguish "uniformly exclusive" from "partially shared".

use crate::ids::DomainId;
use crate::resource::MemRegion;

/// Result of a reference-count query over a memory range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefCount {
    /// The largest per-byte domain count anywhere in the range.
    pub max: usize,
    /// The smallest per-byte domain count anywhere in the range.
    pub min: usize,
}

impl RefCount {
    /// True when every byte of the range is reachable by exactly one
    /// domain — the paper's condition for confidentiality+integrity of an
    /// exclusively owned resource.
    pub fn is_exclusive(&self) -> bool {
        self.max == 1 && self.min == 1
    }
}

/// Computes the per-byte distinct-domain counts over `query`, given the
/// active `(domain, region)` pairs in the system.
///
/// Duplicate coverage by the same domain (e.g. a domain holding two
/// overlapping capabilities) counts once — the refcount is about *domains*,
/// not capabilities.
///
/// `O(k log k)` for the `k` regions overlapping `query`: clip them to
/// the query, merge each domain's overlapping pieces so every domain
/// covers any byte at most once, then sweep the sorted boundaries with
/// one running count.
pub fn mem_refcount(active: &[(DomainId, MemRegion)], query: MemRegion) -> RefCount {
    // Each domain's clipped pieces in order, overlapping ones merged.
    let mut pieces: Vec<(DomainId, u64, u64)> = active
        .iter()
        .filter_map(|(d, r)| r.intersection(&query).map(|c| (*d, c.start, c.end)))
        .collect();
    pieces.sort_unstable();
    pieces.dedup_by(|next, kept| {
        let merge = next.0 == kept.0 && next.1 <= kept.2;
        if merge {
            kept.2 = kept.2.max(next.2);
        }
        merge
    });
    // (address, opens) for both ends of every piece.
    let mut bounds: Vec<(u64, bool)> = pieces
        .iter()
        .flat_map(|&(_, s, e)| [(s, true), (e, false)])
        .collect();
    bounds.sort_unstable();
    let mut bounds = bounds.into_iter().peekable();
    let mut live = 0usize;
    let mut max = 0usize;
    let mut min = usize::MAX;
    let mut at = query.start;
    while at < query.end {
        while let Some((_, opens)) = bounds.next_if(|b| b.0 == at) {
            if opens {
                live += 1;
            } else {
                live -= 1;
            }
        }
        // `live` domains cover every byte of [at, next boundary).
        max = max.max(live);
        min = min.min(live);
        at = bounds.peek().map_or(query.end, |b| b.0);
    }
    if min == usize::MAX {
        min = 0;
    }
    RefCount { max, min }
}

/// Counts distinct domains holding an active capability on a non-memory
/// resource (CPU core, device, transition), given the owning domains.
pub fn unit_refcount(mut owners: Vec<DomainId>) -> usize {
    owners.sort();
    owners.dedup();
    owners.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn d(n: u64) -> DomainId {
        DomainId(n)
    }

    /// The original per-segment implementation, kept as the reference
    /// for the sweep: for every segment between consecutive boundaries,
    /// filter the regions containing it and count distinct owners.
    fn naive_mem_refcount(active: &[(DomainId, MemRegion)], query: MemRegion) -> RefCount {
        let mut bounds: BTreeSet<u64> = BTreeSet::new();
        bounds.insert(query.start);
        bounds.insert(query.end);
        for (_, r) in active {
            if r.overlaps(&query) {
                bounds.insert(r.start.max(query.start));
                bounds.insert(r.end.min(query.end));
            }
        }
        let bounds: Vec<u64> = bounds.into_iter().collect();
        let mut max = 0usize;
        let mut min = usize::MAX;
        for w in bounds.windows(2) {
            let (s, e) = (w[0], w[1]);
            if s >= e {
                continue;
            }
            let seg = MemRegion::new(s, e);
            let mut domains: Vec<DomainId> = active
                .iter()
                .filter(|(_, r)| r.contains(&seg))
                .map(|(d, _)| *d)
                .collect();
            domains.sort();
            domains.dedup();
            let n = domains.len();
            max = max.max(n);
            min = min.min(n);
        }
        if min == usize::MAX {
            min = 0;
        }
        RefCount { max, min }
    }

    /// Seeded differential check against the naive reference. Regions
    /// sit on a coarse grid so they overlap, nest, share endpoints and
    /// repeat; few owners make same-domain overlap common; queries both
    /// clip regions and fall in gaps.
    #[test]
    fn sweep_matches_naive_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        for case in 0..2_000 {
            let k = next(24) as usize;
            let owners = 1 + next(6);
            let mut active: Vec<(DomainId, MemRegion)> = (0..k)
                .map(|_| {
                    let s = next(32);
                    let len = 1 + next(12);
                    (
                        d(next(owners)),
                        MemRegion::new(s * 0x100, (s + len) * 0x100),
                    )
                })
                .collect();
            // Exact duplicates and nested copies by the same owner.
            if let Some(&(o, r)) = active.first() {
                active.push((o, r));
                if r.len() > 0x100 {
                    active.push((o, MemRegion::new(r.start + 0x80, r.end - 0x80)));
                }
            }
            let qs = next(40) * 0x80;
            let query = MemRegion::new(qs, qs + (1 + next(24)) * 0x80);
            assert_eq!(
                mem_refcount(&active, query),
                naive_mem_refcount(&active, query),
                "case {case}: {active:?} over {query:?}"
            );
        }
    }

    #[test]
    fn empty_system_counts_zero() {
        let rc = mem_refcount(&[], MemRegion::new(0, 0x1000));
        assert_eq!(rc, RefCount { max: 0, min: 0 });
        assert!(!rc.is_exclusive());
    }

    #[test]
    fn exclusive_region() {
        let active = [(d(1), MemRegion::new(0, 0x1000))];
        let rc = mem_refcount(&active, MemRegion::new(0, 0x1000));
        assert_eq!(rc, RefCount { max: 1, min: 1 });
        assert!(rc.is_exclusive());
    }

    #[test]
    fn figure4_shared_region_counts_two() {
        // Fig. 4: the shared region between the crypto engine and the SaaS
        // app has reference count 2; the confidential regions count 1.
        let crypto = d(1);
        let saas = d(2);
        let active = [
            (crypto, MemRegion::new(0x0000, 0x2000)), // crypto confidential
            (crypto, MemRegion::new(0x2000, 0x3000)), // shared window
            (saas, MemRegion::new(0x2000, 0x3000)),   // shared window
            (saas, MemRegion::new(0x3000, 0x6000)),   // saas confidential
        ];
        assert!(mem_refcount(&active, MemRegion::new(0x0000, 0x2000)).is_exclusive());
        assert_eq!(
            mem_refcount(&active, MemRegion::new(0x2000, 0x3000)),
            RefCount { max: 2, min: 2 }
        );
        assert!(mem_refcount(&active, MemRegion::new(0x3000, 0x6000)).is_exclusive());
    }

    #[test]
    fn same_domain_twice_counts_once() {
        let active = [
            (d(1), MemRegion::new(0, 0x1000)),
            (d(1), MemRegion::new(0x500, 0x800)),
        ];
        assert!(mem_refcount(&active, MemRegion::new(0, 0x1000)).is_exclusive());
    }

    #[test]
    fn partial_coverage_has_min_zero() {
        let active = [(d(1), MemRegion::new(0, 0x800))];
        let rc = mem_refcount(&active, MemRegion::new(0, 0x1000));
        assert_eq!(rc, RefCount { max: 1, min: 0 });
        assert!(!rc.is_exclusive());
    }

    #[test]
    fn overlap_stairs() {
        // Three domains with staggered overlapping windows.
        let active = [
            (d(1), MemRegion::new(0x0, 0x3000)),
            (d(2), MemRegion::new(0x1000, 0x4000)),
            (d(3), MemRegion::new(0x2000, 0x5000)),
        ];
        assert_eq!(
            mem_refcount(&active, MemRegion::new(0x0, 0x1000)),
            RefCount { max: 1, min: 1 }
        );
        assert_eq!(
            mem_refcount(&active, MemRegion::new(0x1000, 0x2000)),
            RefCount { max: 2, min: 2 }
        );
        assert_eq!(
            mem_refcount(&active, MemRegion::new(0x2000, 0x3000)),
            RefCount { max: 3, min: 3 }
        );
        assert_eq!(
            mem_refcount(&active, MemRegion::new(0x0, 0x5000)),
            RefCount { max: 3, min: 1 }
        );
    }

    #[test]
    fn query_boundaries_clamped() {
        let active = [(d(1), MemRegion::new(0, u64::MAX))];
        let rc = mem_refcount(&active, MemRegion::new(0x1000, 0x2000));
        assert!(rc.is_exclusive());
    }

    #[test]
    fn unit_refcount_dedups() {
        assert_eq!(unit_refcount(vec![]), 0);
        assert_eq!(unit_refcount(vec![d(1), d(1), d(2)]), 2);
    }
}
