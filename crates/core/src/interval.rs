//! An `O(log n)` interval index over active memory capabilities.
//!
//! `mem_index` used to be a `BTreeMap<(start, CapId), (end, owner)>`:
//! overlap queries (`refcount_mem_full`, `active_mem_coverage`) had to
//! range-scan **every** key with `start < query.end` and filter by end
//! — linear in the population to the left of the query, however few
//! intervals actually overlap. [`IntervalTree`] replaces it with an
//! augmented treap:
//!
//! - keyed by `(start, cap)` exactly like the old map, so in-order
//!   iteration reproduces the old key order byte-for-byte (the
//!   differential scan twins depend on it);
//! - each node carries `max_end`, the maximum interval end in its
//!   subtree, so an overlap query prunes whole subtrees that end
//!   before the query starts — `O(log n + k)` for `k` hits;
//! - priorities are a content hash of the key (deterministic treap):
//!   the same key set always produces the same shape, with no RNG in
//!   the TCB and no dependence on insertion order;
//! - nodes live in a `u32`-indexed arena with a freelist, so a revoke
//!   storm recycles nodes instead of thrashing the allocator;
//! - point updates are single root-to-leaf passes: `insert` descends
//!   while the path outranks the new key, replaces in place on an equal
//!   key, and otherwise splits only the subtree at the insertion point;
//!   `remove` replaces the node by the join of its children. Both repair
//!   `max_end` on the way back up.
//!
//! Equality is logical (same `(key, value)` sequence); shape never
//! leaks into `PartialEq`, `Debug`, or iteration.

use crate::ids::{CapId, DomainId};

/// Arena sentinel for "no node".
const NIL: u32 = u32::MAX;

/// One interval entry as the engine sees it: the `(start, cap)` key and
/// the `(end, owner)` payload of the old `BTreeMap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalEntry {
    /// Region start (inclusive).
    pub start: u64,
    /// The active memory capability covering the region.
    pub cap: CapId,
    /// Region end (exclusive).
    pub end: u64,
    /// The domain holding the capability.
    pub owner: DomainId,
}

#[derive(Clone, Debug)]
struct Node {
    start: u64,
    cap: u64,
    end: u64,
    owner: u64,
    /// Max interval end in this node's subtree (the augmentation).
    max_end: u64,
    /// Deterministic heap priority (content hash of the key).
    prio: u64,
    left: u32,
    right: u32,
}

/// splitmix64 finalizer — the same mixer the test RNGs use; here it
/// content-addresses treap priorities so equal key sets get equal
/// shapes deterministically.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn prio_for(start: u64, cap: u64) -> u64 {
    mix(mix(start) ^ cap.rotate_left(32))
}

/// Augmented deterministic treap keyed `(start, cap)` with `max_end`
/// subtree summaries. See the module docs for why each piece exists.
#[derive(Clone)]
pub struct IntervalTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl Default for IntervalTree {
    fn default() -> Self {
        IntervalTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }
}

impl IntervalTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no intervals are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key(&self, i: u32) -> Option<(u64, u64)> {
        self.nodes.get(i as usize).map(|n| (n.start, n.cap))
    }

    fn child_max_end(&self, i: u32) -> u64 {
        self.nodes.get(i as usize).map_or(0, |n| n.max_end)
    }

    /// Recomputes `max_end` for node `i` from its payload and children.
    fn pull(&mut self, i: u32) {
        let l = self.nodes.get(i as usize).map_or(NIL, |n| n.left);
        let r = self.nodes.get(i as usize).map_or(NIL, |n| n.right);
        let le = self.child_max_end(l);
        let re = self.child_max_end(r);
        if let Some(n) = self.nodes.get_mut(i as usize) {
            n.max_end = n.end.max(le).max(re);
        }
    }

    fn alloc_node(&mut self, start: u64, cap: u64, end: u64, owner: u64) -> u32 {
        let node = Node {
            start,
            cap,
            end,
            owner,
            max_end: end,
            prio: prio_for(start, cap),
            left: NIL,
            right: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                if let Some(cell) = self.nodes.get_mut(i as usize) {
                    *cell = node;
                }
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(node);
                i
            }
        }
    }

    /// Treap-splits subtree `t` into `(keys < k, keys >= k)`.
    fn treap_split(&mut self, t: u32, k: (u64, u64)) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        let tk = match self.key(t) {
            Some(tk) => tk,
            None => return (NIL, NIL),
        };
        if tk < k {
            let right = self.nodes.get(t as usize).map_or(NIL, |n| n.right);
            let (a, b) = self.treap_split(right, k);
            if let Some(n) = self.nodes.get_mut(t as usize) {
                n.right = a;
            }
            self.pull(t);
            (t, b)
        } else {
            let left = self.nodes.get(t as usize).map_or(NIL, |n| n.left);
            let (a, b) = self.treap_split(left, k);
            if let Some(n) = self.nodes.get_mut(t as usize) {
                n.left = b;
            }
            self.pull(t);
            (a, t)
        }
    }

    /// Treap-joins subtrees `a` (all keys smaller) and `b` (all larger).
    fn treap_join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let pa = self.nodes.get(a as usize).map_or(0, |n| n.prio);
        let pb = self.nodes.get(b as usize).map_or(0, |n| n.prio);
        if pa >= pb {
            let ar = self.nodes.get(a as usize).map_or(NIL, |n| n.right);
            let m = self.treap_join(ar, b);
            if let Some(n) = self.nodes.get_mut(a as usize) {
                n.right = m;
            }
            self.pull(a);
            a
        } else {
            let bl = self.nodes.get(b as usize).map_or(NIL, |n| n.left);
            let m = self.treap_join(a, bl);
            if let Some(n) = self.nodes.get_mut(b as usize) {
                n.left = m;
            }
            self.pull(b);
            b
        }
    }

    /// Inserts (or replaces) the interval keyed `(start, cap)`.
    ///
    /// One top-down pass: descend by key while the node on the path
    /// outranks the new key's priority, replace the payload in place on
    /// an equal key, and otherwise split only the subtree at the
    /// insertion point around the new node; `max_end` is repaired on the
    /// way back up. An equal key always carries an equal priority, so it
    /// can never sit below the insertion point.
    pub fn insert(&mut self, start: u64, cap: CapId, end: u64, owner: DomainId) {
        let k = (start, cap.0);
        let root = self.insert_at(self.root, k, prio_for(start, cap.0), end, owner.0);
        self.root = root;
    }

    /// [`insert`](Self::insert) below subtree `t`; returns the subtree's
    /// new root.
    fn insert_at(&mut self, t: u32, k: (u64, u64), prio: u64, end: u64, owner: u64) -> u32 {
        let Some(n) = self.nodes.get_mut(t as usize) else {
            return self.place(NIL, k, end, owner);
        };
        if (n.start, n.cap) == k {
            n.end = end;
            n.owner = owner;
            self.pull(t);
            return t;
        }
        if n.prio < prio {
            return self.place(t, k, end, owner);
        }
        let go_left = k < (n.start, n.cap);
        let child = if go_left { n.left } else { n.right };
        let sub = self.insert_at(child, k, prio, end, owner);
        if let Some(n) = self.nodes.get_mut(t as usize) {
            if go_left {
                n.left = sub;
            } else {
                n.right = sub;
            }
        }
        self.pull(t);
        t
    }

    /// Makes a new node for `k` the root of subtree `t` (which does not
    /// hold `k`), splitting `t` around it.
    fn place(&mut self, t: u32, k: (u64, u64), end: u64, owner: u64) -> u32 {
        let (a, b) = self.treap_split(t, k);
        let node = self.alloc_node(k.0, k.1, end, owner);
        if let Some(n) = self.nodes.get_mut(node as usize) {
            n.left = a;
            n.right = b;
        }
        self.pull(node);
        self.len += 1;
        node
    }

    /// Removes the interval keyed `(start, cap)`; true if it existed.
    /// One descent: the node is replaced by the join of its children and
    /// `max_end` is repaired along the path.
    pub fn remove(&mut self, start: u64, cap: CapId) -> bool {
        let (root, found) = self.remove_at(self.root, (start, cap.0));
        self.root = root;
        found
    }

    /// [`remove`](Self::remove) below subtree `t`; returns the subtree's
    /// new root and whether the key was found.
    fn remove_at(&mut self, t: u32, k: (u64, u64)) -> (u32, bool) {
        let Some(n) = self.nodes.get(t as usize) else {
            return (NIL, false);
        };
        let nk = (n.start, n.cap);
        let (left, right) = (n.left, n.right);
        if nk == k {
            self.free.push(t);
            self.len -= 1;
            return (self.treap_join(left, right), true);
        }
        let go_left = k < nk;
        let (sub, found) = self.remove_at(if go_left { left } else { right }, k);
        if found {
            if let Some(n) = self.nodes.get_mut(t as usize) {
                if go_left {
                    n.left = sub;
                } else {
                    n.right = sub;
                }
            }
            self.pull(t);
        }
        (t, found)
    }

    /// Looks up the payload stored under `(start, cap)`.
    pub fn get(&self, start: u64, cap: CapId) -> Option<(u64, DomainId)> {
        let mut i = self.root;
        let k = (start, cap.0);
        while i != NIL {
            let n = self.nodes.get(i as usize)?;
            let nk = (n.start, n.cap);
            if k < nk {
                i = n.left;
            } else if k > nk {
                i = n.right;
            } else {
                return Some((n.end, DomainId(n.owner)));
            }
        }
        None
    }

    /// In-order iteration in `(start, cap)` key order — the exact
    /// sequence the old `BTreeMap` produced, for the differential scan
    /// twins and coverage queries.
    pub fn iter(&self) -> IntervalIter<'_> {
        let mut stack = Vec::new();
        let mut i = self.root;
        while i != NIL {
            stack.push(i);
            i = self.nodes.get(i as usize).map_or(NIL, |n| n.left);
        }
        IntervalIter { tree: self, stack }
    }

    /// All intervals overlapping `[qstart, qend)`, in key order.
    /// Subtrees whose `max_end <= qstart` are pruned wholesale; right
    /// subtrees past `qend` are never visited — `O(log n + k)`.
    pub fn overlapping(&self, qstart: u64, qend: u64) -> Vec<IntervalEntry> {
        let mut out = Vec::new();
        self.for_each_overlapping(qstart, qend, |e| out.push(e));
        out
    }

    /// Calls `f` on every interval overlapping `[qstart, qend)`, in key
    /// order — [`overlapping`](Self::overlapping) without the `Vec`.
    pub fn for_each_overlapping(&self, qstart: u64, qend: u64, mut f: impl FnMut(IntervalEntry)) {
        self.visit_overlaps(self.root, qstart, qend, &mut f, 0);
    }

    fn visit_overlaps<F: FnMut(IntervalEntry)>(
        &self,
        i: u32,
        qstart: u64,
        qend: u64,
        f: &mut F,
        depth: u32,
    ) {
        // Depth guard: expected depth is O(log n); 120 covers any
        // realistic population without risking the kernel stack.
        if i == NIL || depth > 120 {
            return;
        }
        let n = match self.nodes.get(i as usize) {
            Some(n) => n,
            None => return,
        };
        if n.max_end <= qstart {
            // Nothing in this whole subtree ends after the query start.
            return;
        }
        let (left, right) = (n.left, n.right);
        let (start, cap, end, owner) = (n.start, n.cap, n.end, n.owner);
        self.visit_overlaps(left, qstart, qend, f, depth + 1);
        if start < qend && end > qstart {
            f(IntervalEntry {
                start,
                cap: CapId(cap),
                end,
                owner: DomainId(owner),
            });
        }
        if start < qend {
            self.visit_overlaps(right, qstart, qend, f, depth + 1);
        }
        // else: every key in the right subtree has start >= this start
        // >= qend, so none can overlap — pruned.
    }

    /// Heap bytes held by the arena (capacity-based retained footprint).
    pub fn storage_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Nodes currently on the freelist.
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }
}

/// In-order iterator over an [`IntervalTree`].
pub struct IntervalIter<'a> {
    tree: &'a IntervalTree,
    stack: Vec<u32>,
}

impl Iterator for IntervalIter<'_> {
    type Item = IntervalEntry;

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.stack.pop()?;
        let n = self.tree.nodes.get(i as usize)?;
        let mut r = n.right;
        while r != NIL {
            self.stack.push(r);
            r = self.tree.nodes.get(r as usize).map_or(NIL, |n| n.left);
        }
        Some(IntervalEntry {
            start: n.start,
            cap: CapId(n.cap),
            end: n.end,
            owner: DomainId(n.owner),
        })
    }
}

impl PartialEq for IntervalTree {
    /// Logical equality: same key→value sequence, any treap shape (and
    /// the deterministic priorities make equal sets share shapes
    /// anyway — this keeps equality independent of that detail).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for IntervalTree {}

impl std::fmt::Debug for IntervalTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|e| ((e.start, e.cap), (e.end, e.owner))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_keys(t: &IntervalTree) -> Vec<(u64, u64)> {
        t.iter().map(|e| (e.start, e.cap.0)).collect()
    }

    #[test]
    fn inorder_matches_btreemap_order() {
        let mut t = IntervalTree::new();
        let mut m = std::collections::BTreeMap::new();
        let ranges = [
            (0x3000u64, 9u64),
            (0x1000, 4),
            (0x3000, 2),
            (0x2000, 7),
            (0x0, 1),
        ];
        for &(start, cap) in &ranges {
            t.insert(start, CapId(cap), start + 0x1000, DomainId(cap));
            m.insert((start, cap), (start + 0x1000, cap));
        }
        let want: Vec<(u64, u64)> = m.keys().copied().collect();
        assert_eq!(entry_keys(&t), want, "key order identical to BTreeMap");
    }

    #[test]
    fn overlap_query_matches_filter_scan() {
        let mut t = IntervalTree::new();
        // Deterministic LCG-ish spread of intervals.
        let mut x = 12345u64;
        let mut all = Vec::new();
        for cap in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (x >> 33) % 0x10_0000;
            let len = 1 + (x % 0x800);
            t.insert(start, CapId(cap), start + len, DomainId(cap));
            all.push((start, cap, start + len));
        }
        all.sort_unstable();
        for &(qs, qe) in &[
            (0u64, 0x10u64),
            (0x8000, 0x9000),
            (0, 0x20_0000),
            (0xF_FF00, 0x10_0000),
        ] {
            let got: Vec<(u64, u64)> = t
                .overlapping(qs, qe)
                .into_iter()
                .map(|e| (e.start, e.cap.0))
                .collect();
            let want: Vec<(u64, u64)> = all
                .iter()
                .filter(|&&(s, _, e)| s < qe && e > qs)
                .map(|&(s, c, _)| (s, c))
                .collect();
            assert_eq!(
                got, want,
                "overlap [{qs:#x},{qe:#x}) matches the filter scan"
            );
        }
    }

    #[test]
    fn remove_recycles_nodes() {
        let mut t = IntervalTree::new();
        for cap in 0..64u64 {
            t.insert(cap * 0x1000, CapId(cap), cap * 0x1000 + 0x800, DomainId(1));
        }
        assert_eq!(t.len(), 64);
        for cap in 0..64u64 {
            assert!(t.remove(cap * 0x1000, CapId(cap)));
        }
        assert!(t.is_empty());
        assert_eq!(t.free_nodes(), 64);
        for cap in 64..128u64 {
            t.insert(cap * 0x1000, CapId(cap), cap * 0x1000 + 0x800, DomainId(1));
        }
        assert_eq!(t.free_nodes(), 0, "freelist drained before arena grows");
        assert_eq!(t.nodes.len(), 64, "arena did not grow");
    }

    #[test]
    fn equality_is_logical() {
        let mut a = IntervalTree::new();
        let mut b = IntervalTree::new();
        for cap in 0..32u64 {
            a.insert(cap, CapId(cap), cap + 10, DomainId(0));
        }
        for cap in (0..32u64).rev() {
            b.insert(cap, CapId(cap), cap + 10, DomainId(0));
        }
        assert_eq!(a, b, "insertion order does not matter");
        b.remove(0, CapId(0));
        assert_ne!(a, b);
    }

    /// Walks the whole tree and checks, at every node, key order against
    /// the subtree's bounds, heap order on `prio`, and that `max_end` is
    /// the subtree maximum. Returns the number of reachable nodes.
    fn check_invariants(t: &IntervalTree) -> usize {
        fn walk(
            t: &IntervalTree,
            i: u32,
            lo: Option<(u64, u64)>,
            hi: Option<(u64, u64)>,
            parent_prio: u64,
        ) -> (usize, u64) {
            if i == NIL {
                return (0, 0);
            }
            let n = &t.nodes[i as usize];
            let k = (n.start, n.cap);
            assert!(
                lo.is_none_or(|lo| lo < k),
                "key order: {k:?} not above {lo:?}"
            );
            assert!(
                hi.is_none_or(|hi| k < hi),
                "key order: {k:?} not below {hi:?}"
            );
            assert!(n.prio <= parent_prio, "heap order broken at {k:?}");
            assert_eq!(
                n.prio,
                prio_for(n.start, n.cap),
                "priority is the key's hash"
            );
            let (lc, lmax) = walk(t, n.left, lo, Some(k), n.prio);
            let (rc, rmax) = walk(t, n.right, Some(k), hi, n.prio);
            let max = n.end.max(lmax).max(rmax);
            assert_eq!(
                n.max_end, max,
                "max_end at {k:?} is not the subtree maximum"
            );
            (lc + rc + 1, max)
        }
        let (count, _) = walk(t, t.root, None, None, u64::MAX);
        assert_eq!(count, t.len(), "len matches the reachable nodes");
        count
    }

    /// Seeded random insert / replace / remove sequences against a
    /// `BTreeMap` model, shaped like the engine's slices: page-sized
    /// intervals on a small page range (so keys collide and replace) plus
    /// a few large intervals. The invariant walker runs after every step.
    #[test]
    fn random_updates_match_map_model_and_keep_invariants() {
        use std::collections::BTreeMap;
        const PAGE: u64 = 0x1000;
        for seed in [1u64, 42] {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut t = IntervalTree::new();
            let mut model: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
            let (mut inserts, mut replaces, mut removes) = (0, 0, 0);
            for step in 0..10_500u32 {
                let r = next();
                let start = (r % 256) * PAGE;
                let cap = (r >> 20) % 8;
                let end = if (r >> 40) % 64 == 0 {
                    start + ((r >> 46) % 4096 + 1) * PAGE
                } else {
                    start + PAGE
                };
                let owner = (r >> 50) % 16;
                if (r >> 56) % 3 == 0 {
                    let hit = t.remove(start, CapId(cap));
                    assert_eq!(hit, model.remove(&(start, cap)).is_some(), "remove result");
                    removes += usize::from(hit);
                } else {
                    let old = model.insert((start, cap), (end, owner));
                    if old.is_some() {
                        replaces += 1;
                    } else {
                        inserts += 1;
                    }
                    t.insert(start, CapId(cap), end, DomainId(owner));
                }
                check_invariants(&t);
                assert_eq!(t.len(), model.len());
                assert_eq!(
                    t.get(start, CapId(cap)),
                    model.get(&(start, cap)).map(|&(e, o)| (e, DomainId(o)))
                );
                if step % 64 == 0 {
                    let got: Vec<_> = t
                        .iter()
                        .map(|e| ((e.start, e.cap.0), (e.end, e.owner.0)))
                        .collect();
                    let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "in-order iteration is the model's key order");
                }
                if step % 8 == 0 {
                    let q = next();
                    let qs = (q % 300) * PAGE;
                    let qe = qs + ((q >> 32) % 64 + 1) * PAGE;
                    let got: Vec<_> = t
                        .overlapping(qs, qe)
                        .into_iter()
                        .map(|e| (e.start, e.cap.0))
                        .collect();
                    let want: Vec<_> = model
                        .iter()
                        .filter(|(&(s, _), &(e, _))| s < qe && e > qs)
                        .map(|(&k, _)| k)
                        .collect();
                    assert_eq!(got, want, "overlap [{qs:#x},{qe:#x}) at step {step}");
                }
            }
            assert!(
                inserts > 1000 && replaces > 1000 && removes > 1000,
                "{inserts}/{replaces}/{removes}"
            );
            // A tree rebuilt from the model in another order is equal.
            let mut rebuilt = IntervalTree::new();
            for (&(s, c), &(e, o)) in model.iter().rev() {
                rebuilt.insert(s, CapId(c), e, DomainId(o));
            }
            check_invariants(&rebuilt);
            assert_eq!(rebuilt, t);
        }
    }

    #[test]
    fn replace_same_key_updates_payload() {
        let mut t = IntervalTree::new();
        t.insert(0x1000, CapId(1), 0x2000, DomainId(5));
        t.insert(0x1000, CapId(1), 0x3000, DomainId(6));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0x1000, CapId(1)), Some((0x3000, DomainId(6))));
    }
}
