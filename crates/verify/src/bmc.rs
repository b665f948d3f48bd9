//! Engine 2: the bounded model checker.
//!
//! Exhaustive small-scope exploration of the capability engine:
//! starting from a booted system (root + two child domains, a three-page
//! endowment), breadth-first enumerate every interleaving of
//! `share`/`grant`/`carve`/`seal`/`revoke` up to configurable bounds,
//! deduplicating states by a canonical fingerprint. At every *new* state
//! the checker runs:
//!
//! 1. the runtime invariant auditor (`tyche_core::audit`) — must be
//!    clean;
//! 2. a differential oracle: per-page reference counts must agree with
//!    the naive flat-list ownership model ([`crate::model`]);
//! 3. conservation: every endowed page stays accounted for by the
//!    lineage tree — grants and carves suspend access but never leak a
//!    byte out of the tree (exploration surfaced that a carved piece's
//!    revocation leaves its range transiently unreachable until the
//!    sibling pieces are also revoked, so reachability alone would be
//!    too strong an invariant);
//! 4. revocation soundness: an accepted revoke removes the capability
//!    and strictly shrinks the capability population (termination is
//!    enforced by the engine's tree lineage; the checker verifies the
//!    shrink).
//!
//! The checker is generic over [`Explore`] so tests can wire in a
//! deliberately broken engine and prove the oracle catches it.

use crate::model::RefModel;
use std::collections::{HashSet, VecDeque};
use tyche_core::audit;
use tyche_core::{
    CapEngine, CapId, CapKind, DomainId, MemRegion, Resource, RevocationPolicy, Rights, SealPolicy,
};

/// One domain as the checker sees it.
#[derive(Clone, Copy, Debug)]
pub struct DomView {
    /// Raw domain id.
    pub id: u64,
    /// Domain accepts operations.
    pub alive: bool,
    /// Sealed domains refuse incoming resources.
    pub sealed: bool,
    /// Has a fixed entry point (sealable).
    pub has_entry: bool,
    /// Manager's raw id, if any.
    pub manager: Option<u64>,
}

/// One memory capability as the checker sees it.
#[derive(Clone, Copy, Debug)]
pub struct CapView {
    /// Raw capability id.
    pub id: u64,
    /// Owning domain's raw id.
    pub owner: u64,
    /// Covered region.
    pub region: (u64, u64),
    /// Boot endowments are not revoked by the checker (conservation
    /// would become vacuous).
    pub is_root: bool,
    /// Inactive capabilities cannot be shared/granted/split.
    pub active: bool,
}

/// The operations and observations the checker needs. Implemented for
/// [`CapEngine`]; tests implement it for seeded-bug wrappers.
pub trait Explore: Clone {
    /// All domains.
    fn domains(&self) -> Vec<DomView>;
    /// All memory capabilities.
    fn mem_caps(&self) -> Vec<CapView>;
    /// Attempts a share; `Some(child id)` when the engine accepts.
    fn share(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64>;
    /// Attempts a whole-capability grant.
    fn grant(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64>;
    /// Attempts a split ("carve") at address `at`.
    fn carve(&mut self, actor: u64, cap: u64, at: u64) -> Option<(u64, u64)>;
    /// Attempts to seal `domain` (strict or nestable policy).
    fn seal_domain(&mut self, actor: u64, domain: u64, strict: bool) -> bool;
    /// Attempts a revoke.
    fn revoke(&mut self, actor: u64, cap: u64) -> bool;
    /// Whether a capability id still exists.
    fn cap_exists(&self, cap: u64) -> bool;
    /// `(max, min)` per-byte distinct-domain count over a region.
    fn refcount(&self, region: (u64, u64)) -> (usize, usize);
    /// Rendered invariant violations (empty = sound state).
    fn audit_violations(&self) -> Vec<String>;
    /// Canonical state fingerprint for deduplication. Isomorphic states
    /// (same structure, different absolute ids/timestamps) must collide.
    fn fingerprint(&self) -> Vec<u8>;
    /// Discards accumulated hardware effects so queue growth does not
    /// count as state.
    fn drain(&mut self);
}

impl Explore for CapEngine {
    fn domains(&self) -> Vec<DomView> {
        let mut out: Vec<DomView> = CapEngine::domains(self)
            .map(|d| DomView {
                id: d.id.0,
                alive: d.is_alive(),
                sealed: d.is_sealed(),
                has_entry: d.entry.is_some(),
                manager: d.manager.map(|m| m.0),
            })
            .collect();
        out.sort_by_key(|d| d.id);
        out
    }

    fn mem_caps(&self) -> Vec<CapView> {
        let mut out: Vec<CapView> = self
            .caps()
            .filter_map(|c| {
                c.resource.as_mem().map(|r| CapView {
                    id: c.id.0,
                    owner: c.owner.0,
                    region: (r.start, r.end),
                    is_root: c.kind == CapKind::Root,
                    active: c.active,
                })
            })
            .collect();
        out.sort_by_key(|c| c.id);
        out
    }

    fn share(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64> {
        CapEngine::share(
            self,
            DomainId(actor),
            CapId(cap),
            DomainId(target),
            None,
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .ok()
        .map(|c| c.0)
    }

    fn grant(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64> {
        CapEngine::grant(
            self,
            DomainId(actor),
            CapId(cap),
            DomainId(target),
            None,
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .ok()
        .map(|c| c.0)
    }

    fn carve(&mut self, actor: u64, cap: u64, at: u64) -> Option<(u64, u64)> {
        CapEngine::split(self, DomainId(actor), CapId(cap), at)
            .ok()
            .map(|(lo, hi)| (lo.0, hi.0))
    }

    fn seal_domain(&mut self, actor: u64, domain: u64, strict: bool) -> bool {
        let policy = if strict {
            SealPolicy::strict()
        } else {
            SealPolicy::nestable()
        };
        CapEngine::seal(self, DomainId(actor), DomainId(domain), policy).is_ok()
    }

    fn revoke(&mut self, actor: u64, cap: u64) -> bool {
        CapEngine::revoke(self, DomainId(actor), CapId(cap)).is_ok()
    }

    fn cap_exists(&self, cap: u64) -> bool {
        self.cap(CapId(cap)).is_some()
    }

    fn refcount(&self, region: (u64, u64)) -> (usize, usize) {
        let rc = self.refcount_mem_full(MemRegion::new(region.0, region.1));
        (rc.max, rc.min)
    }

    fn audit_violations(&self) -> Vec<String> {
        audit::audit(self)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect()
    }

    fn fingerprint(&self) -> Vec<u8> {
        // Rank-compress ids and timestamps so isomorphic states collide:
        // absolute values grow with path length, ranks do not.
        let mut dom_ids: Vec<u64> = CapEngine::domains(self).map(|d| d.id.0).collect();
        dom_ids.sort_unstable();
        let mut cap_ids: Vec<u64> = self.caps().map(|c| c.id.0).collect();
        cap_ids.sort_unstable();
        let dom_rank = |id: u64| dom_ids.binary_search(&id).expect("known domain") as u64;
        let cap_rank = |id: u64| cap_ids.binary_search(&id).expect("known cap") as u64;
        let mut stamps: Vec<u64> = cap_ids
            .iter()
            .filter_map(|&c| self.cap_created_at(CapId(c)))
            .chain(
                dom_ids
                    .iter()
                    .filter_map(|&d| self.domain_sealed_at(DomainId(d))),
            )
            .collect();
        stamps.sort_unstable();
        stamps.dedup();
        let stamp_rank = |t: Option<u64>| match t {
            None => u64::MAX,
            Some(t) => stamps.binary_search(&t).expect("known stamp") as u64,
        };

        let mut out = Vec::new();
        let push = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        for id in &dom_ids {
            let d = self.domain(DomainId(*id)).expect("listed");
            push(&mut out, dom_rank(*id));
            push(
                &mut out,
                d.manager.map(|m| dom_rank(m.0)).unwrap_or(u64::MAX),
            );
            out.push(d.is_alive() as u8);
            out.push(d.is_sealed() as u8);
            out.push(d.seal_policy.encode());
            push(&mut out, d.entry.unwrap_or(u64::MAX));
            push(&mut out, stamp_rank(self.domain_sealed_at(DomainId(*id))));
        }
        out.push(0xfe); // domain/cap separator
        for id in &cap_ids {
            let c = self.cap(CapId(*id)).expect("listed");
            push(&mut out, cap_rank(*id));
            push(&mut out, dom_rank(c.owner.0));
            push(&mut out, dom_rank(c.granter.0));
            push(
                &mut out,
                c.parent.map(|p| cap_rank(p.0)).unwrap_or(u64::MAX),
            );
            out.push(c.rights.0);
            out.push(match c.kind {
                CapKind::Root => 0,
                CapKind::Shared => 1,
                CapKind::Granted => 2,
                CapKind::Carved => 3,
            });
            out.push(c.active as u8);
            match c.resource {
                Resource::Memory(r) => {
                    out.push(1);
                    push(&mut out, r.start);
                    push(&mut out, r.end);
                }
                Resource::Transition(t) => {
                    out.push(2);
                    push(&mut out, dom_rank(t.0));
                }
                Resource::CpuCore(n) => {
                    out.push(3);
                    push(&mut out, n as u64);
                }
                Resource::Device(d) => {
                    out.push(4);
                    push(&mut out, d as u64);
                }
                Resource::Interrupt(v) => {
                    out.push(5);
                    push(&mut out, v as u64);
                }
            }
            push(&mut out, stamp_rank(self.cap_created_at(CapId(*id))));
        }
        out
    }

    fn drain(&mut self) {
        let _ = self.drain_effects();
    }
}

/// Scope bounds for one exploration.
#[derive(Clone, Copy, Debug)]
pub struct BmcConfig {
    /// Pages in the root endowment (the paper scope: ≤ 3 regions).
    pub pages: u64,
    /// Child domains besides root (≤ 2 for the ≤ 3-domain scope).
    pub child_domains: usize,
    /// Maximum operations along any path.
    pub max_depth: usize,
    /// Capability-count bound: ops that would push the population past
    /// this are not generated (keeps the space finite under self-share).
    pub max_caps: usize,
    /// Hard ceiling on deduplicated states (safety valve; hitting it
    /// means the run was *not* exhaustive and is reported).
    pub max_states: usize,
    /// Whether seal operations are part of the explored alphabet.
    pub explore_seal: bool,
}

/// First page of the endowment.
pub const BASE: u64 = 0x1000;
/// Page size used by the scope.
pub const PAGE: u64 = 0x1000;

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            // ≤3 domains, ≤3 regions — the paper-scope bounds. Depth 4
            // with cap bound 8 closes exhaustively at ~63k deduped
            // states in seconds; depth 5 (~920k states) and beyond are
            // reachable through `tcb-audit --bmc-depth`.
            pages: 3,
            child_domains: 2,
            max_depth: 4,
            max_caps: 8,
            max_states: 2_000_000,
            explore_seal: true,
        }
    }
}

/// A violation plus the operation path that reached it.
#[derive(Clone, Debug)]
pub struct BmcViolation {
    /// What failed.
    pub message: String,
    /// Operations from the initial state to the failing state.
    pub trace: Vec<String>,
}

/// Exploration statistics + violations.
#[derive(Clone, Debug, Default)]
pub struct BmcResult {
    /// Deduplicated states visited (including the initial state).
    pub states: usize,
    /// Accepted transitions applied (pre-dedup).
    pub transitions: usize,
    /// Attempted operations the engine refused.
    pub refused: usize,
    /// Deepest path explored.
    pub max_depth_reached: usize,
    /// True when the frontier emptied before any bound was hit — the
    /// scope was covered exhaustively.
    pub exhaustive: bool,
    /// All invariant violations found.
    pub violations: Vec<BmcViolation>,
}

/// Builds the booted initial state: root domain endowed with
/// `pages` pages at [`BASE`], plus `child_domains` unsealed children
/// with entry points set.
pub fn tyche_initial(config: &BmcConfig) -> (CapEngine, RefModel) {
    let mut engine = CapEngine::new();
    let root = engine.create_root_domain();
    let region = MemRegion::new(BASE, BASE + config.pages * PAGE);
    let cap = engine
        .endow(root, Resource::Memory(region), Rights::RW)
        .expect("endow boot memory");
    let mut model = RefModel::new();
    model.endow(cap.0, root.0, (region.start, region.end));
    for _ in 0..config.child_domains {
        let (child, _tcap) = engine.create_domain(root).expect("create child domain");
        engine
            .set_entry(root, child, 0xe000)
            .expect("set child entry");
    }
    engine.drain();
    (engine, model)
}

/// One candidate operation.
#[derive(Clone, Debug)]
enum Op {
    Share {
        actor: u64,
        cap: u64,
        target: u64,
    },
    Grant {
        actor: u64,
        cap: u64,
        target: u64,
    },
    Carve {
        actor: u64,
        cap: u64,
        at: u64,
    },
    Seal {
        actor: u64,
        domain: u64,
        strict: bool,
    },
    Revoke {
        actor: u64,
        cap: u64,
    },
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Share { actor, cap, target } => format!("d{actor}: share cap{cap} -> d{target}"),
            Op::Grant { actor, cap, target } => format!("d{actor}: grant cap{cap} -> d{target}"),
            Op::Carve { actor, cap, at } => format!("d{actor}: carve cap{cap} @ {at:#x}"),
            Op::Seal {
                actor,
                domain,
                strict,
            } => {
                format!(
                    "d{actor}: seal d{domain} ({})",
                    if *strict { "strict" } else { "nestable" }
                )
            }
            Op::Revoke { actor, cap } => format!("d{actor}: revoke cap{cap}"),
        }
    }
}

/// Enumerates the candidate operations from a state.
fn candidate_ops<E: Explore>(state: &E, config: &BmcConfig) -> Vec<Op> {
    let domains = state.domains();
    let caps = state.mem_caps();
    let alive: Vec<u64> = domains.iter().filter(|d| d.alive).map(|d| d.id).collect();
    let mut ops = Vec::new();
    let room = caps.len() < config.max_caps;

    for c in &caps {
        if c.active && room {
            // Only the owner can share/grant/carve; other actors are
            // refused unconditionally, so generating them adds nothing.
            for &target in &alive {
                ops.push(Op::Share {
                    actor: c.owner,
                    cap: c.id,
                    target,
                });
                ops.push(Op::Grant {
                    actor: c.owner,
                    cap: c.id,
                    target,
                });
            }
            let (start, end) = c.region;
            let mut at = start + PAGE;
            while at < end {
                ops.push(Op::Carve {
                    actor: c.owner,
                    cap: c.id,
                    at,
                });
                at += PAGE;
            }
        }
        if !c.is_root {
            // Revocation authority depends on lineage; let the engine
            // decide, for every live actor.
            for &actor in &alive {
                ops.push(Op::Revoke { actor, cap: c.id });
            }
        }
    }
    if config.explore_seal {
        for d in domains
            .iter()
            .filter(|d| d.alive && !d.sealed && d.has_entry)
        {
            if let Some(manager) = d.manager {
                for strict in [false, true] {
                    ops.push(Op::Seal {
                        actor: manager,
                        domain: d.id,
                        strict,
                    });
                }
            }
        }
    }
    ops
}

/// Applies `op`; `Ok(true)` when accepted (mirroring the model),
/// `Ok(false)` when the engine refused, `Err` with a violation message
/// when an accepted op broke a transition-level invariant.
fn apply<E: Explore>(state: &mut E, model: &mut RefModel, op: &Op) -> Result<bool, String> {
    match *op {
        Op::Share { actor, cap, target } => {
            let region = state
                .mem_caps()
                .iter()
                .find(|c| c.id == cap)
                .map(|c| c.region);
            if let Some(child) = state.share(actor, cap, target) {
                let region = region.ok_or("share of unknown cap accepted")?;
                model.share(cap, child, target, region);
                return Ok(true);
            }
            Ok(false)
        }
        Op::Grant { actor, cap, target } => {
            let region = state
                .mem_caps()
                .iter()
                .find(|c| c.id == cap)
                .map(|c| c.region);
            if let Some(child) = state.grant(actor, cap, target) {
                let region = region.ok_or("grant of unknown cap accepted")?;
                model.grant(cap, child, target, region);
                return Ok(true);
            }
            Ok(false)
        }
        Op::Carve { actor, cap, at } => {
            if let Some((lo, hi)) = state.carve(actor, cap, at) {
                model.split(cap, lo, hi, at);
                return Ok(true);
            }
            Ok(false)
        }
        Op::Seal {
            actor,
            domain,
            strict,
        } => Ok(state.seal_domain(actor, domain, strict)),
        Op::Revoke { actor, cap } => {
            let before = state.mem_caps().len();
            if state.revoke(actor, cap) {
                if state.cap_exists(cap) {
                    return Err(format!("revoked cap{cap} still exists"));
                }
                let after = state.mem_caps().len();
                if after >= before {
                    return Err(format!(
                        "revocation did not shrink the capability population ({before} -> {after})"
                    ));
                }
                model.revoke(cap);
                return Ok(true);
            }
            Ok(false)
        }
    }
}

/// State-level invariant checks.
fn check_state<E: Explore>(state: &E, model: &RefModel, config: &BmcConfig) -> Vec<String> {
    let mut out = state.audit_violations();
    for page in 0..config.pages {
        let start = BASE + page * PAGE;
        let region = (start, start + PAGE);
        let (max, min) = state.refcount(region);
        let naive = model.owners_of(start).len();
        if max != naive || min != naive {
            out.push(format!(
                "refcount divergence on page {page} [{start:#x}): engine max={max} min={min}, reference model says {naive}"
            ));
        }
        // Conservation: a page may be transiently unreachable (the
        // engine suspends a split parent until *all* pieces are revoked,
        // so revoking one piece orphans its range until the sibling
        // goes too — a fact this checker surfaced), but it must never
        // leave the lineage tree: some record, active or suspended,
        // accounts for it, so revocations can always restore access.
        if naive == 0 && !model.covered(start) {
            out.push(format!(
                "conservation broken: page {page} [{start:#x}) left the capability tree"
            ));
        }
    }
    out
}

/// Runs the exploration from `initial`.
pub fn explore<E: Explore>(initial: E, model: RefModel, config: &BmcConfig) -> BmcResult {
    let mut result = BmcResult::default();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    // Trace arena: (parent state index, op description).
    let mut arena: Vec<(Option<usize>, String)> = vec![(None, "initial".into())];

    let mut initial = initial;
    initial.drain();
    for v in check_state(&initial, &model, config) {
        result.violations.push(BmcViolation {
            message: v,
            trace: vec![],
        });
    }
    seen.insert(initial.fingerprint());
    let mut queue: VecDeque<(E, RefModel, usize, usize)> = VecDeque::new();
    queue.push_back((initial, model, 0, 0));
    result.states = 1;

    while let Some((state, model, depth, state_idx)) = queue.pop_front() {
        result.max_depth_reached = result.max_depth_reached.max(depth);
        if depth >= config.max_depth {
            continue;
        }
        for op in candidate_ops(&state, config) {
            let mut next = state.clone();
            let mut next_model = model.clone();
            match apply(&mut next, &mut next_model, &op) {
                Ok(false) => {
                    result.refused += 1;
                    continue;
                }
                Err(message) => {
                    result.violations.push(BmcViolation {
                        message,
                        trace: trace_of(&arena, state_idx, &op),
                    });
                    continue;
                }
                Ok(true) => {}
            }
            result.transitions += 1;
            next.drain();
            for message in check_state(&next, &next_model, config) {
                result.violations.push(BmcViolation {
                    message,
                    trace: trace_of(&arena, state_idx, &op),
                });
            }
            if seen.len() >= config.max_states {
                continue;
            }
            if seen.insert(next.fingerprint()) {
                arena.push((Some(state_idx), op.describe()));
                let idx = arena.len() - 1;
                result.states += 1;
                queue.push_back((next, next_model, depth + 1, idx));
            }
        }
    }
    result.exhaustive = seen.len() < config.max_states;
    result
}

/// Reconstructs the op path to `state_idx`, then `op`.
fn trace_of(arena: &[(Option<usize>, String)], state_idx: usize, op: &Op) -> Vec<String> {
    let mut trace = vec![op.describe()];
    let mut cur = Some(state_idx);
    while let Some(idx) = cur {
        let (parent, ref desc) = arena[idx];
        if parent.is_some() {
            trace.push(desc.clone());
        }
        cur = parent;
    }
    trace.reverse();
    trace
}

/// Convenience: explore the default Tyche scope.
pub fn run(config: &BmcConfig) -> BmcResult {
    let (engine, model) = tyche_initial(config);
    explore(engine, model, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BmcConfig {
        BmcConfig {
            pages: 2,
            child_domains: 1,
            max_depth: 4,
            max_caps: 5,
            max_states: 100_000,
            explore_seal: false,
        }
    }

    #[test]
    fn default_scope_explores_ten_thousand_states_clean() {
        // The acceptance bar for the checker: the full ≤3-domain /
        // ≤3-region scope at the default depth closes exhaustively,
        // covers >= 10k deduplicated states, and finds no violation.
        let result = run(&BmcConfig::default());
        assert!(result.exhaustive, "state cap hit: {result:?}");
        assert!(
            result.states >= 10_000,
            "only {} deduped states explored",
            result.states
        );
        assert!(
            result.violations.is_empty(),
            "{:?}",
            result.violations.first()
        );
    }

    #[test]
    fn small_scope_is_clean_and_exhaustive() {
        let result = run(&small());
        assert!(result.exhaustive, "{result:?}");
        assert!(
            result.violations.is_empty(),
            "{:?}",
            result.violations.first()
        );
        assert!(result.states > 50, "explored {} states", result.states);
        assert!(result.refused > 0, "refusal paths exercised");
    }

    #[test]
    fn dedup_collapses_isomorphic_states() {
        // share then revoke returns to the initial structure; without
        // rank compression the new cap id would make it look fresh.
        let config = small();
        let (engine, model) = tyche_initial(&config);
        let fp0 = engine.fingerprint();
        let mut e2 = engine.clone();
        let mut m2 = model.clone();
        let caps = e2.mem_caps();
        let target = Explore::domains(&e2)
            .iter()
            .find(|d| d.manager.is_some())
            .unwrap()
            .id;
        let op = Op::Share {
            actor: caps[0].owner,
            cap: caps[0].id,
            target,
        };
        assert_eq!(apply(&mut e2, &mut m2, &op), Ok(true));
        assert_ne!(e2.fingerprint(), fp0);
        let new_cap = e2.mem_caps().iter().find(|c| !c.is_root).unwrap().id;
        let op = Op::Revoke {
            actor: caps[0].owner,
            cap: new_cap,
        };
        assert_eq!(apply(&mut e2, &mut m2, &op), Ok(true));
        e2.drain();
        assert_eq!(
            e2.fingerprint(),
            fp0,
            "share+revoke is identity up to isomorphism"
        );
    }

    /// A wrapper around the real engine whose refcount is off by one —
    /// the seeded bug the differential oracle must catch.
    #[derive(Clone)]
    struct BrokenRefcount(CapEngine);

    impl Explore for BrokenRefcount {
        fn domains(&self) -> Vec<DomView> {
            Explore::domains(&self.0)
        }
        fn mem_caps(&self) -> Vec<CapView> {
            Explore::mem_caps(&self.0)
        }
        fn share(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64> {
            Explore::share(&mut self.0, actor, cap, target)
        }
        fn grant(&mut self, actor: u64, cap: u64, target: u64) -> Option<u64> {
            Explore::grant(&mut self.0, actor, cap, target)
        }
        fn carve(&mut self, actor: u64, cap: u64, at: u64) -> Option<(u64, u64)> {
            Explore::carve(&mut self.0, actor, cap, at)
        }
        fn seal_domain(&mut self, actor: u64, domain: u64, strict: bool) -> bool {
            Explore::seal_domain(&mut self.0, actor, domain, strict)
        }
        fn revoke(&mut self, actor: u64, cap: u64) -> bool {
            Explore::revoke(&mut self.0, actor, cap)
        }
        fn cap_exists(&self, cap: u64) -> bool {
            Explore::cap_exists(&self.0, cap)
        }
        fn refcount(&self, region: (u64, u64)) -> (usize, usize) {
            // The seeded bug: shared pages report one owner too many,
            // as if a revoked share's count were never decremented.
            let (max, min) = Explore::refcount(&self.0, region);
            if max > 1 {
                (max + 1, min)
            } else {
                (max, min)
            }
        }
        fn audit_violations(&self) -> Vec<String> {
            Explore::audit_violations(&self.0)
        }
        fn fingerprint(&self) -> Vec<u8> {
            Explore::fingerprint(&self.0)
        }
        fn drain(&mut self) {
            Explore::drain(&mut self.0)
        }
    }

    #[test]
    fn differential_oracle_catches_seeded_refcount_bug() {
        let config = BmcConfig {
            max_depth: 2,
            ..small()
        };
        let (engine, model) = tyche_initial(&config);
        let result = explore(BrokenRefcount(engine), model, &config);
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.message.contains("refcount divergence")),
            "oracle missed the seeded bug: {result:?}"
        );
        // And the violation carries a usable trace.
        let v = result
            .violations
            .iter()
            .find(|v| v.message.contains("refcount divergence"))
            .unwrap();
        assert!(!v.trace.is_empty());
    }
}
