//! The capability engine: Tyche's isolation API (§3.2, §4.1).
//!
//! All monitor API calls funnel into [`CapEngine`] methods. The engine
//! validates every operation against the acting domain's capabilities
//! (the monitor "does not choose resources to allocate to a domain, but
//! rather validates allocation" — §3.5), updates the lineage tree and
//! reference counts, and appends [`Effect`]s for the platform backend.
//!
//! ## Operation summary
//!
//! | op | who may call | result |
//! |----|--------------|--------|
//! | [`create_domain`](CapEngine::create_domain) | any unsealed domain (sealed: needs `allow_child_domains`) | new child domain + transition capability |
//! | [`share`](CapEngine::share) | capability owner | child capability; both domains have access |
//! | [`grant`](CapEngine::grant) | capability owner | child capability; granter's access suspended |
//! | [`split`](CapEngine::split) | capability owner | two carved capabilities over the halves |
//! | [`revoke`](CapEngine::revoke) | granter or lineage ancestor owner | cascading revocation + clean-up effects |
//! | [`seal`](CapEngine::seal) | manager or self | freezes config, takes measurement |
//! | [`kill`](CapEngine::kill) | manager | revokes everything, removes the domain, retires its id |
//! | [`can_enter`](CapEngine::can_enter) | transition-cap owner | validated entry point for the monitor to switch to |
// Approved panic paths: every `expect(` in this module is budgeted,
// with a reviewed reason, in crates/verify/allowlist.toml.
#![allow(clippy::expect_used)]

use crate::capability::{CapKind, Capability};
use crate::domain::{Domain, DomainState, SealPolicy};
use crate::effect::Effect;
use crate::error::CapError;
use crate::holders::{HolderIndex, UnitKey};
use crate::ids::{CapId, DomainId, IdAllocator};
use crate::interval::IntervalTree;
use crate::refcount::{mem_refcount, RefCount};
use crate::resource::{MemRegion, Resource, Rights};
use crate::store::{RevokedLog, RevokedRecord, Store};
use crate::trace::{CapOpKind, EventKind, TraceSink};
use crate::RevocationPolicy;
use std::collections::{BTreeMap, BTreeSet};

/// Effects-buffer capacity retained across [`CapEngine::drain_effects`]
/// calls: enough to absorb a steady-state batch without reallocating,
/// small enough that a revoke storm's burst capacity is returned to the
/// allocator with the drained vector.
pub const EFFECTS_RETAIN: usize = 1024;

/// Capability entries a seal measurement sorts on the stack; a domain
/// holding more spills to one heap buffer.
const MEASURE_INLINE: usize = 16;

/// A resource entry as enumerated for attestation (§3.4): resource,
/// rights, sharing kind, and the current reference count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnumeratedResource {
    /// The capability id backing this entry.
    pub cap: CapId,
    /// The resource.
    pub resource: Resource,
    /// Rights held.
    pub rights: Rights,
    /// How the capability was derived.
    pub kind: CapKind,
    /// Reference count over the resource (max/min per byte for memory).
    pub refcount: RefCount,
}

/// The two ways [`CapEngine::derive`] makes a child capability. `Root`
/// and `Carved` capabilities come only from `endow`, `make_transition`
/// and `split`, so the type admits no other derivation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Derivation {
    Share,
    Grant,
}

/// The capability engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CapEngine {
    /// Live domains, slab-backed and keyed by raw `DomainId` — `O(1)`
    /// lookup on every hypercall path, id-ordered iteration (see
    /// [`crate::store`]).
    domains: Store<Domain>,
    /// Live capabilities (active and suspended), slab-backed and keyed
    /// by raw `CapId`. Revoked capabilities leave **no tombstone** here;
    /// their lineage facts compact into `revoked`.
    caps: Store<Capability>,
    ids: IdAllocator,
    effects: Vec<Effect>,
    root: Option<DomainId>,
    /// Monotonic operation counter; stamps capability creation
    /// (`Capability::created_at`) and seal times (`Domain::sealed_at`)
    /// so the auditor can check seal-freeze invariants.
    op_counter: u64,
    /// Owner → capability ids (active and suspended). Every mutation path
    /// keeps this in lock-step with `caps`; in debug builds the indexed
    /// queries cross-check against a full scan.
    by_owner: Store<BTreeSet<CapId>>,
    /// Active memory capabilities as an augmented interval tree keyed
    /// `(region.start, cap)` → `(region.end, owner)`. Overlap queries
    /// prune by subtree `max_end` — `O(log n + k)` instead of scanning
    /// every interval left of the query.
    mem_index: IntervalTree,
    /// Transition target → capability ids (active and suspended). Backs
    /// the dangling-transition sweep in `kill` and the deactivation
    /// sweep in `quarantine`.
    res_index: BTreeMap<DomainId, BTreeSet<CapId>>,
    /// Active core/device/interrupt capabilities grouped by unit, then
    /// owner. A unit's refcount is its owner count, and
    /// `owns_core`/`owns_device` look at the queried domain's own
    /// capabilities only, however many co-tenants share the unit.
    holders: HolderIndex,
    /// Bumped on every mutation (see `tick()`) and by the corruption
    /// hooks. The monitor's fast-path cache and its published snapshots
    /// key their validity on this counter.
    generation: u64,
    /// Observability sink (disabled by default; installed by the boot
    /// path). Compares vacuously equal so engine equality — replay
    /// checks, the zero-perturbation gate — ignores what was recorded.
    trace: TraceSink,
    /// Packed side table of revoked-capability lineage records (bounded;
    /// compares vacuously equal like `trace`). Revocation compacts the
    /// dead node's lineage facts here instead of leaving a tombstone in
    /// `caps`.
    revoked: RevokedLog,
    /// Reusable buffers for subtree walks (holds nothing between
    /// operations; compares vacuously equal like `trace`).
    walk: WalkScratch,
}

/// The two buffers a subtree revocation walks with, kept on the engine
/// so a revocation allocates nothing once they have grown. Empty
/// between operations: clones start empty and any two compare equal.
#[derive(Debug, Default)]
struct WalkScratch {
    stack: Vec<CapId>,
    order: Vec<CapId>,
}

impl Clone for WalkScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for WalkScratch {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for WalkScratch {}

impl CapEngine {
    /// Creates an empty engine (no domains yet).
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&mut self) -> u64 {
        self.op_counter += 1;
        // Every mutation is also a new generation: snapshot readers
        // (the concurrent monitor's `snapshot`) key staleness on
        // `generation()`, so it must move on *every* state change, not
        // just the transition-invalidating ones. The monitor's
        // fast-path cache only over-invalidates.
        self.generation += 1;
        self.trace.emit_engine(EventKind::GenBump {
            gen: self.generation,
        });
        self.op_counter
    }

    /// Installs the machine-wide trace sink (done once by the boot
    /// path). The default sink is disabled and drops every emission.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// The engine's trace sink handle.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The root (initial) domain, if created.
    pub fn root(&self) -> Option<DomainId> {
        self.root
    }

    /// Looks up a domain.
    pub fn domain(&self, id: DomainId) -> Option<&Domain> {
        self.domains.get(id.0)
    }

    /// Looks up a capability.
    pub fn cap(&self, id: CapId) -> Option<&Capability> {
        self.caps.get(id.0)
    }

    /// Iterates all live domains.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// Iterates all capabilities (active and suspended).
    pub fn caps(&self) -> impl Iterator<Item = &Capability> {
        self.caps.values()
    }

    /// All capabilities owned by `domain`.
    pub fn caps_of(&self, domain: DomainId) -> Vec<&Capability> {
        let out: Vec<&Capability> = self.owned_caps(domain).collect();
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        assert_eq!(
            out,
            self.caps_of_scan(domain),
            "owner index diverged from scan for {domain}"
        );
        out
    }

    /// Engine generation: bumped on every mutation (any `tick()`ed
    /// operation plus the corruption hooks), so it moves whenever a
    /// previously-validated transition could have become invalid *and*
    /// whenever a cached snapshot of the whole engine could be stale.
    /// Callers caching validation results or snapshots compare this
    /// before reuse.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Creation stamp of a capability (for the auditor).
    pub fn cap_created_at(&self, cap: CapId) -> Option<u64> {
        self.caps.get(cap.0).map(|c| c.created_at)
    }

    /// Seal stamp of a domain (for the auditor).
    pub fn domain_sealed_at(&self, domain: DomainId) -> Option<u64> {
        self.domains.get(domain.0)?.sealed_at
    }

    /// Drains the pending backend effects in emission order.
    ///
    /// The replacement buffer is pre-reserved to the drained demand,
    /// capped at [`EFFECTS_RETAIN`]: steady-state callers skip the
    /// first reallocations of the next batch, while a one-off
    /// 1M-domain revoke storm does not leave a permanently ballooned
    /// buffer behind (the storm's capacity leaves with the drained
    /// `Vec`, which the caller drops).
    pub fn drain_effects(&mut self) -> Vec<Effect> {
        let drained = std::mem::take(&mut self.effects);
        self.effects = Vec::with_capacity(drained.len().min(EFFECTS_RETAIN));
        drained
    }

    /// Moves all pending effects into `out` (cleared first) by swapping
    /// buffers: the engine keeps `out`'s old buffer for the next batch,
    /// so a caller that keeps one buffer alive drains without
    /// allocating. A buffer retained past [`EFFECTS_RETAIN`] is shrunk,
    /// as in [`drain_effects`](Self::drain_effects).
    pub fn drain_effects_into(&mut self, out: &mut Vec<Effect>) {
        out.clear();
        std::mem::swap(&mut self.effects, out);
        if self.effects.capacity() > EFFECTS_RETAIN {
            self.effects.shrink_to(EFFECTS_RETAIN);
        }
    }

    /// Number of pending effects (without draining).
    pub fn pending_effects(&self) -> usize {
        self.effects.len()
    }

    /// Current capacity of the internal effects buffer (for the
    /// capacity-accounting tests and the scale bench's footprint row).
    pub fn effects_capacity(&self) -> usize {
        self.effects.capacity()
    }

    /// The packed side table of revoked-capability lineage records.
    pub fn revoked_log(&self) -> &RevokedLog {
        &self.revoked
    }

    /// Retained heap footprint of the engine's three slab stores
    /// (domains, capabilities, the owner index), summed from
    /// [`Store::storage_bytes`]: the measured, not estimated, part of
    /// [`storage_bytes`](Self::storage_bytes).
    pub fn store_bytes(&self) -> usize {
        self.domains.storage_bytes() + self.caps.storage_bytes() + self.by_owner.storage_bytes()
    }

    /// Retained heap footprint of the engine's storage layer: the slab
    /// stores, the interval index, the transition and unit-holder
    /// indexes, the effects
    /// buffer, and the revoked-lineage table. Capacity-based, so it
    /// reports what the allocator actually holds; per-value heap (e.g.
    /// a capability's `children` set) is estimated from live counts.
    pub fn storage_bytes(&self) -> usize {
        let children: usize = self
            .caps
            .values()
            .map(|c| c.children.len() * std::mem::size_of::<CapId>() * 3 / 2)
            .sum();
        // BTreeMap/BTreeSet don't expose capacity; estimate nodes at
        // ~1.5x entry payload, the textbook 2/3 B-tree fill factor.
        let res_entries: usize = self.res_index.values().map(|s| s.len()).sum();
        let per_target = std::mem::size_of::<DomainId>() + std::mem::size_of::<BTreeSet<CapId>>();
        let res_bytes = (self.res_index.len() * per_target + res_entries * 8) * 3 / 2;
        let owner_entries: usize = self.by_owner.values().map(|s| s.len()).sum();
        let owner_bytes = owner_entries * 8 * 3 / 2;
        self.store_bytes()
            + self.mem_index.storage_bytes()
            + self.holders.storage_bytes()
            + self.effects.capacity() * std::mem::size_of::<Effect>()
            + self.revoked.storage_bytes()
            + children
            + res_bytes
            + owner_bytes
    }

    // ------------------------------------------------------------------
    // Domain lifecycle
    // ------------------------------------------------------------------

    /// Creates the root (initial) domain — the unmodified OS the monitor
    /// boots into (§4). Callable once.
    ///
    /// # Panics
    ///
    /// Panics when called twice; the boot path runs once by construction.
    pub fn create_root_domain(&mut self) -> DomainId {
        assert!(self.root.is_none(), "root domain already exists");
        let id = DomainId(self.ids.next());
        self.domains.insert(
            id.0,
            Domain {
                id,
                manager: None,
                state: DomainState::Configuring,
                seal_policy: SealPolicy::nestable(),
                entry: None,
                measurement: None,
                content_measurements: Vec::new(),
                quarantined: false,
                sealed_at: None,
            },
        );
        self.root = Some(id);
        self.effects.push(Effect::DomainCreated { domain: id });
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::CreateDomain,
            actor: id.0,
            subject: id.0,
            aux: 0,
        });
        id
    }

    /// Endows the root domain with a boot-time resource (all RAM, each CPU
    /// core, each device). Only the root domain can be endowed; everything
    /// else must obtain resources through `share`/`grant`.
    pub fn endow(
        &mut self,
        domain: DomainId,
        resource: Resource,
        rights: Rights,
    ) -> Result<CapId, CapError> {
        if Some(domain) != self.root {
            return Err(CapError::RootDomain);
        }
        let dom = self
            .domains
            .get(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if !dom.is_alive() {
            return Err(CapError::NoSuchDomain(domain));
        }
        let id = CapId(self.ids.next());
        let cap = Capability {
            id,
            owner: domain,
            granter: domain,
            resource,
            rights,
            kind: CapKind::Root,
            parent: None,
            children: BTreeSet::new(),
            policy: RevocationPolicy::NONE,
            active: true,
            created_at: self.tick(),
        };
        self.emit_gain(&cap);
        self.index_insert(&cap);
        self.caps.insert(id.0, cap);
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Endow,
            actor: domain.0,
            subject: id.0,
            aux: 0,
        });
        Ok(id)
    }

    /// Creates a new (empty) trust domain managed by `manager`, returning
    /// the new domain id and a transition capability into it.
    ///
    /// Any domain may create domains — this is the paper's core
    /// democratization claim; a sealed domain needs
    /// [`SealPolicy::allow_child_domains`].
    pub fn create_domain(&mut self, manager: DomainId) -> Result<(DomainId, CapId), CapError> {
        let m = self
            .domains
            .get(manager.0)
            .ok_or(CapError::NoSuchDomain(manager))?;
        if !m.is_alive() {
            return Err(CapError::NoSuchDomain(manager));
        }
        if m.is_sealed() && !m.seal_policy.allow_child_domains {
            return Err(CapError::SealedImmutable(manager));
        }
        let id = DomainId(self.ids.next());
        self.domains.insert(
            id.0,
            Domain {
                id,
                manager: Some(manager),
                state: DomainState::Configuring,
                seal_policy: SealPolicy::nestable(),
                entry: None,
                measurement: None,
                content_measurements: Vec::new(),
                quarantined: false,
                sealed_at: None,
            },
        );
        self.effects.push(Effect::DomainCreated { domain: id });
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::CreateDomain,
            actor: manager.0,
            subject: id.0,
            aux: 0,
        });
        let tcap = self.make_transition(manager, id, RevocationPolicy::NONE)?;
        Ok((id, tcap))
    }

    /// Sets the fixed entry point of an unsealed domain. The manager (or
    /// the domain itself, pre-seal) may call this.
    pub fn set_entry(
        &mut self,
        actor: DomainId,
        domain: DomainId,
        entry: u64,
    ) -> Result<(), CapError> {
        self.check_manager(actor, domain)?;
        let dom = self
            .domains
            .get_mut(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if dom.is_sealed() {
            return Err(CapError::SealedImmutable(domain));
        }
        dom.entry = Some(entry);
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::SetEntry,
            actor: actor.0,
            subject: domain.0,
            aux: entry,
        });
        Ok(())
    }

    /// Records a content measurement for part of the domain's initial
    /// memory. The monitor calls this while loading the domain image;
    /// the digests become part of the seal-time measurement (§3.2:
    /// "a hash of domain configurations and selected initial resources").
    pub fn record_content(
        &mut self,
        actor: DomainId,
        domain: DomainId,
        region: MemRegion,
        digest: tyche_crypto::Digest,
    ) -> Result<(), CapError> {
        self.check_manager(actor, domain)?;
        let dom = self
            .domains
            .get_mut(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if dom.is_sealed() {
            return Err(CapError::SealedImmutable(domain));
        }
        dom.content_measurements
            .push((region.start, region.end, digest));
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::RecordContent,
            actor: actor.0,
            subject: domain.0,
            aux: region.start,
        });
        Ok(())
    }

    /// Seals `domain`: freezes its resource configuration per `policy`,
    /// computes its measurement, and makes it enterable.
    ///
    /// Requires an entry point (domains have fixed entry points, §3.1).
    pub fn seal(
        &mut self,
        actor: DomainId,
        domain: DomainId,
        policy: SealPolicy,
    ) -> Result<tyche_crypto::Digest, CapError> {
        self.check_manager(actor, domain)?;
        {
            let dom = self
                .domains
                .get(domain.0)
                .ok_or(CapError::NoSuchDomain(domain))?;
            if dom.is_sealed() {
                return Err(CapError::SealedImmutable(domain));
            }
            if dom.entry.is_none() {
                return Err(CapError::NoEntryPoint(domain));
            }
        }
        let measurement = self.measure_config(domain, policy);
        let t = self.tick();
        let dom = self.domains.get_mut(domain.0).expect("checked above");
        dom.state = DomainState::Sealed;
        dom.seal_policy = policy;
        dom.measurement = Some(measurement);
        dom.sealed_at = Some(t);
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Seal,
            actor: actor.0,
            subject: domain.0,
            aux: 0,
        });
        Ok(measurement)
    }

    /// Kills `domain`: cascading-revokes every capability it owns (and
    /// therefore everything it shared onward), emits clean-up effects,
    /// removes the domain's records, and retires the id. Only the manager
    /// may kill a domain.
    pub fn kill(&mut self, actor: DomainId, domain: DomainId) -> Result<(), CapError> {
        let dom = self
            .domains
            .get(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if !dom.is_alive() {
            return Err(CapError::NoSuchDomain(domain));
        }
        if dom.manager != Some(actor) {
            return Err(CapError::NotManager {
                target: domain,
                actor,
            });
        }
        // Revoke every capability owned by the dying domain, in id order.
        // Each revocation may cascade into caps owned by others (and
        // remove later ids of this owner), so the walk re-reads the next
        // id above a cursor instead of collecting the ids first.
        let mut from = Some(CapId(0));
        while let Some(cap) = from.and_then(|f| self.next_owned(domain, f)) {
            self.revoke_subtree(cap);
            from = cap.0.checked_add(1).map(CapId);
        }
        // Also revoke transition capabilities *into* the dead domain held
        // by others — they dangle otherwise.
        let mut from = Some(CapId(0));
        while let Some(cap) = from.and_then(|f| self.next_transition_into(domain, f)) {
            self.revoke_subtree(cap);
            from = cap.0.checked_add(1).map(CapId);
        }
        // Reclaim the dead domain's records. Its id stays retired: the
        // allocator never re-issues ids, and every path answers
        // `NoSuchDomain` for an absent id.
        self.domains.remove(domain.0);
        self.by_owner.remove(domain.0);
        self.effects.push(Effect::DomainKilled { domain });
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Kill,
            actor: actor.0,
            subject: domain.0,
            aux: 0,
        });
        Ok(())
    }

    /// Quarantines `domain` after a hardware fault left its translation
    /// state untrusted: the domain stays alive (killable, enumerable) but
    /// is never enterable again. Every active transition capability into
    /// the domain is deactivated so the invariant "no active transition
    /// targets a quarantined domain" holds immediately; the auditor
    /// enforces it from then on. Idempotent on already-quarantined
    /// domains. No hardware effects are emitted — the caller (the
    /// monitor) owns whatever backend state triggered the quarantine.
    pub fn quarantine(&mut self, domain: DomainId) -> Result<(), CapError> {
        let dom = self
            .domains
            .get_mut(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if !dom.is_alive() {
            return Err(CapError::NoSuchDomain(domain));
        }
        let already = dom.quarantined;
        dom.quarantined = true;
        if !already {
            let transitions: Vec<CapId> = self
                .res_index
                .get(&domain)
                .into_iter()
                .flat_map(|ids| ids.iter().copied())
                .collect();
            for cap in transitions {
                if self.caps.get(cap.0).map(|c| c.active).unwrap_or(false) {
                    self.set_cap_active(cap, false);
                }
            }
        }
        // Cached fast-path transition validations are stale either way.
        self.tick();
        if !already {
            self.trace
                .emit_engine(EventKind::Quarantine { domain: domain.0 });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Capability operations
    // ------------------------------------------------------------------

    /// Shares (a subrange of) a capability with `target`: both domains end
    /// up with access. Returns the child capability owned by `target`.
    pub fn share(
        &mut self,
        actor: DomainId,
        cap: CapId,
        target: DomainId,
        sub: Option<MemRegion>,
        rights: Rights,
        policy: RevocationPolicy,
    ) -> Result<CapId, CapError> {
        self.derive(actor, cap, target, sub, rights, policy, Derivation::Share)
    }

    /// Grants a whole capability to `target`: exclusive, revocable
    /// transfer. The granter's capability is suspended until revocation.
    /// To grant part of a memory region, [`split`](CapEngine::split)
    /// first.
    pub fn grant(
        &mut self,
        actor: DomainId,
        cap: CapId,
        target: DomainId,
        sub: Option<MemRegion>,
        rights: Rights,
        policy: RevocationPolicy,
    ) -> Result<CapId, CapError> {
        // A partial grant would leave the granter with fragmented access;
        // the engine keeps grant whole-capability and offers split().
        if let Some(s) = sub {
            let c = self.caps.get(cap.0).ok_or(CapError::NoSuchCap(cap))?;
            match c.resource.as_mem() {
                Some(region) if region == s => {}
                Some(_) => return Err(CapError::OutOfRange),
                None => return Err(CapError::SubrangeOnNonMemory),
            }
        }
        self.derive(actor, cap, target, None, rights, policy, Derivation::Grant)
    }

    /// Splits an active memory capability at address `at`, producing two
    /// carved capabilities over `[start, at)` and `[at, end)`. The original
    /// capability is consumed (suspended with two carved children).
    pub fn split(
        &mut self,
        actor: DomainId,
        cap: CapId,
        at: u64,
    ) -> Result<(CapId, CapId), CapError> {
        let c = self.caps.get(cap.0).ok_or(CapError::NoSuchCap(cap))?;
        if c.owner != actor {
            return Err(CapError::NotOwner { cap, actor });
        }
        if !c.active {
            return Err(CapError::Inactive(cap));
        }
        let region = c.resource.as_mem().ok_or(CapError::WrongResourceType)?;
        if at <= region.start || at >= region.end {
            return Err(CapError::OutOfRange);
        }
        let (rights, policy) = (c.rights, c.policy);
        let lo = self.insert_child(
            cap,
            actor,
            actor,
            Resource::Memory(MemRegion::new(region.start, at)),
            rights,
            CapKind::Carved,
            policy,
        )?;
        let hi = self.insert_child(
            cap,
            actor,
            actor,
            Resource::Memory(MemRegion::new(at, region.end)),
            rights,
            CapKind::Carved,
            policy,
        )?;
        // The parent is consumed: its coverage is now represented by the
        // carved pieces. No hardware effect — the owner's access is
        // unchanged.
        self.set_cap_active(cap, false);
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Split,
            actor: actor.0,
            subject: cap.0,
            aux: at,
        });
        Ok((lo, hi))
    }

    /// Revokes `cap` and, cascading, every capability derived from it.
    ///
    /// The caller must be the capability's granter or the owner of an
    /// ancestor in its lineage (ancestors can always reclaim). Clean-up
    /// effects follow each revoked capability's policy. Termination is
    /// guaranteed even under circular domain-level sharing because lineage
    /// is a tree.
    pub fn revoke(&mut self, actor: DomainId, cap: CapId) -> Result<(), CapError> {
        let c = self.caps.get(cap.0).ok_or(CapError::NoSuchCap(cap))?;
        // The granter may always take a capability back; this also covers
        // owners revoking their own carved pieces.
        let mut authorized = c.granter == actor;
        if !authorized {
            // Walk up the lineage: any ancestor owner may revoke. The walk
            // is checked and hop-bounded — a dangling parent id or a
            // parent cycle means the lineage tree is corrupt, and the TCB
            // must refuse rather than panic or loop.
            let mut hops = 0usize;
            let mut cur = c.parent;
            while let Some(p) = cur {
                hops += 1;
                if hops > self.caps.len() {
                    return Err(CapError::NoSuchCap(p));
                }
                let pc = self.caps.get(p.0).ok_or(CapError::NoSuchCap(p))?;
                if pc.owner == actor {
                    authorized = true;
                    break;
                }
                cur = pc.parent;
            }
        }
        if !authorized {
            return Err(CapError::NotGranter { cap, actor });
        }
        self.revoke_subtree(cap);
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Revoke,
            actor: actor.0,
            subject: cap.0,
            aux: 0,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    /// Creates a transition capability into `target`, owned by `actor`.
    /// `actor` must manage `target` (or be `target`). The policy's flush
    /// flags are applied by the monitor on every transition through this
    /// capability (§4.1 side-channel mitigation).
    pub fn make_transition(
        &mut self,
        actor: DomainId,
        target: DomainId,
        policy: RevocationPolicy,
    ) -> Result<CapId, CapError> {
        if actor != target {
            self.check_manager(actor, target)?;
        }
        let t = self
            .domains
            .get(target.0)
            .ok_or(CapError::NoSuchDomain(target))?;
        if !t.is_alive() {
            return Err(CapError::NoSuchDomain(target));
        }
        // A new transition capability into a quarantined domain would be
        // born violating the quarantine invariant (audit I7).
        if t.is_quarantined() {
            return Err(CapError::Quarantined(target));
        }
        let a = self
            .domains
            .get(actor.0)
            .ok_or(CapError::NoSuchDomain(actor))?;
        if a.is_sealed() && !a.seal_policy.allow_child_domains {
            return Err(CapError::SealedImmutable(actor));
        }
        let id = CapId(self.ids.next());
        let capability = Capability {
            id,
            owner: actor,
            granter: actor,
            resource: Resource::Transition(target),
            rights: Rights::USE,
            kind: CapKind::Root,
            parent: None,
            children: BTreeSet::new(),
            policy,
            active: true,
            created_at: self.tick(),
        };
        self.index_insert(&capability);
        self.caps.insert(id.0, capability);
        self.trace.emit_engine(EventKind::CapOp {
            op: CapOpKind::Transition,
            actor: actor.0,
            subject: id.0,
            aux: target.0,
        });
        Ok(id)
    }

    /// Validates a domain transition: `actor`, running on CPU `core`,
    /// invokes transition capability `cap`. On success returns the target
    /// domain, its fixed entry point, and the flush policy the monitor
    /// must apply.
    ///
    /// Checks (§3.1): the monitor mediates all control transfers; domains
    /// have fixed entry points; domains only run on cores in their
    /// resource configuration.
    pub fn can_enter(
        &self,
        actor: DomainId,
        cap: CapId,
        core: usize,
    ) -> Result<(DomainId, u64, RevocationPolicy), CapError> {
        let c = self.caps.get(cap.0).ok_or(CapError::NoSuchCap(cap))?;
        if c.owner != actor {
            return Err(CapError::NotOwner { cap, actor });
        }
        if !c.active {
            return Err(CapError::Inactive(cap));
        }
        let target = match c.resource {
            Resource::Transition(t) => t,
            _ => return Err(CapError::WrongResourceType),
        };
        if !c.rights.can_use() {
            return Err(CapError::RightsEscalation);
        }
        let dom = self
            .domains
            .get(target.0)
            .ok_or(CapError::NoSuchDomain(target))?;
        if !dom.is_alive() {
            return Err(CapError::NoSuchDomain(target));
        }
        if dom.is_quarantined() {
            return Err(CapError::Quarantined(target));
        }
        if !dom.is_sealed() {
            return Err(CapError::NotSealed(target));
        }
        let entry = dom.entry.ok_or(CapError::NoEntryPoint(target))?;
        if !self.owns_core(target, core) {
            return Err(CapError::CoreNotOwned {
                domain: target,
                core,
            });
        }
        Ok((target, entry, c.policy))
    }

    /// True when `domain` holds an active capability for CPU `core`.
    pub fn owns_core(&self, domain: DomainId, core: usize) -> bool {
        self.owns_unit(domain, Resource::CpuCore(core))
    }

    /// True when `domain` holds an active capability for `device`.
    pub fn owns_device(&self, domain: DomainId, device: u16) -> bool {
        self.owns_unit(domain, Resource::Device(device))
    }

    /// True when one of `domain`'s active capabilities over `unit`
    /// carries the use right. Looks only at the capabilities `domain`
    /// itself holds on the unit: `O(log n)` plus those, however many
    /// co-tenants share it.
    fn owns_unit(&self, domain: DomainId, unit: Resource) -> bool {
        let out = Self::unit_key(&unit).is_some_and(|key| {
            self.holders
                .caps_of(key, domain)
                .filter_map(|id| self.caps.get(id.0))
                .any(|c| c.rights.can_use())
        });
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        assert_eq!(
            out,
            self.owns_unit_scan(domain, unit),
            "unit holder index diverged from scan"
        );
        out
    }

    // ------------------------------------------------------------------
    // Reference counts & enumeration
    // ------------------------------------------------------------------

    /// All active `(domain, region)` memory coverage pairs, by region
    /// start, then capability id.
    pub fn active_mem_coverage(&self) -> Vec<(DomainId, MemRegion)> {
        let out: Vec<(DomainId, MemRegion)> = self
            .mem_index
            .iter()
            .map(|e| (e.owner, MemRegion::new(e.start, e.end)))
            .collect();
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        {
            // A stable sort by start puts the id-ordered scan in the
            // index's `(start, cap)` order.
            let mut scan = self.active_mem_coverage_scan();
            scan.sort_by_key(|e| e.1.start);
            assert_eq!(out, scan, "memory index diverged from scan");
        }
        out
    }

    /// The `(owner, region)` pairs of the active memory capabilities
    /// overlapping `region`, from the interval index.
    fn overlapping_coverage(&self, region: MemRegion) -> Vec<(DomainId, MemRegion)> {
        let mut out = Vec::new();
        self.mem_index
            .for_each_overlapping(region.start, region.end, |e| {
                out.push((e.owner, MemRegion::new(e.start, e.end)));
            });
        out
    }

    /// Calls `f(region, rights)` for each of `domain`'s active memory
    /// capabilities overlapping `region`, from the interval index:
    /// `O(log n + k)` in the capabilities overlapping `region`, however
    /// much memory `domain` holds elsewhere. Backends recompute an
    /// effect's pages from this.
    pub fn for_each_mem_cap_overlapping(
        &self,
        domain: DomainId,
        region: MemRegion,
        mut f: impl FnMut(MemRegion, Rights),
    ) {
        self.mem_index
            .for_each_overlapping(region.start, region.end, |e| {
                if let Some(c) = self.caps.get(e.cap.0).filter(|_| e.owner == domain) {
                    f(MemRegion::new(e.start, e.end), c.rights);
                }
            });
    }

    /// `domain`'s capabilities (active and suspended) in ascending id
    /// order, from the owner index.
    fn owned_caps(&self, domain: DomainId) -> impl Iterator<Item = &Capability> {
        self.by_owner
            .get(domain.0)
            .into_iter()
            .flatten()
            .filter_map(|id| self.caps.get(id.0))
    }

    /// Full reference-count query over a memory range (Figure 4). Visits
    /// only capabilities whose interval can overlap `region` (via the
    /// `(start, cap)`-keyed index), not every capability in the system.
    pub fn refcount_mem_full(&self, region: MemRegion) -> RefCount {
        // The interval tree prunes subtrees by `max_end`, visiting only
        // intervals that actually overlap `region` (plus the O(log n)
        // search spine). `mem_refcount` ignores non-overlapping entries,
        // so the tighter candidate set is sound.
        let out = mem_refcount(&self.overlapping_coverage(region), region);
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        assert_eq!(
            out,
            self.refcount_mem_full_scan(region),
            "interval index diverged from scan"
        );
        out
    }

    /// Maximum per-byte reference count over a memory range.
    pub fn refcount_mem(&self, region: MemRegion) -> usize {
        self.refcount_mem_full(region).max
    }

    /// Enumerates `domain`'s active resources with rights and reference
    /// counts — the attestation view (§3.4), in ascending capability id
    /// order. A memory refcount is a pruned overlap query and a unit
    /// refcount the holder index's owner count, so one tenant costs its
    /// own capabilities plus the memory actually shared with it, however
    /// many domains are resident or share its units.
    pub fn enumerate(&self, domain: DomainId) -> Result<Vec<EnumeratedResource>, CapError> {
        if !self.domains.get(domain.0).is_some_and(Domain::is_alive) {
            return Err(CapError::NoSuchDomain(domain));
        }
        let out: Vec<EnumeratedResource> = self
            .owned_caps(domain)
            .filter(|c| c.active)
            .map(|c| {
                let refcount = match c.resource {
                    Resource::Memory(r) => mem_refcount(&self.overlapping_coverage(r), r),
                    Resource::Transition(_) => RefCount { max: 1, min: 1 },
                    unit => {
                        let n =
                            Self::unit_key(&unit).map_or(0, |key| self.holders.owner_count(key));
                        RefCount { max: n, min: n }
                    }
                };
                EnumeratedResource {
                    cap: c.id,
                    resource: c.resource,
                    rights: c.rights,
                    kind: c.kind,
                    refcount,
                }
            })
            .collect();
        #[cfg(any(debug_assertions, feature = "paranoid-checks"))]
        assert_eq!(
            self.enumerate_scan(domain).as_ref(),
            Ok(&out),
            "enumeration index diverged from scan"
        );
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Holder-index key for unit resources: `(type_tag, value)`.
    fn unit_key(resource: &Resource) -> Option<UnitKey> {
        match resource {
            Resource::Memory(_) | Resource::Transition(_) => None,
            Resource::CpuCore(n) => Some((1, *n as u64)),
            Resource::Device(d) => Some((2, u64::from(*d))),
            Resource::Interrupt(v) => Some((4, u64::from(*v))),
        }
    }

    /// Registers a capability in the secondary indexes. Must be called
    /// for every capability inserted into `caps`.
    fn index_insert(&mut self, cap: &Capability) {
        if let Some(ids) = self.by_owner.get_mut(cap.owner.0) {
            ids.insert(cap.id);
        } else {
            self.by_owner.insert(cap.owner.0, BTreeSet::from([cap.id]));
        }
        if let Resource::Transition(t) = cap.resource {
            self.res_index.entry(t).or_default().insert(cap.id);
        }
        if cap.active {
            self.index_activate(cap.id, cap.resource, cap.owner);
        }
    }

    /// Removes a capability from the secondary indexes. Must be called
    /// for every capability removed from `caps`.
    fn index_remove(&mut self, cap: &Capability) {
        let drained = if let Some(ids) = self.by_owner.get_mut(cap.owner.0) {
            ids.remove(&cap.id);
            ids.is_empty()
        } else {
            false
        };
        if drained {
            self.by_owner.remove(cap.owner.0);
        }
        if let Resource::Transition(t) = cap.resource {
            if let Some(ids) = self.res_index.get_mut(&t) {
                ids.remove(&cap.id);
                if ids.is_empty() {
                    self.res_index.remove(&t);
                }
            }
        }
        self.index_deactivate(cap.id, cap.resource, cap.owner);
    }

    /// Flips a capability's `active` flag, keeping the active-memory
    /// and unit-holder indexes in lock-step. Besides quarantine's
    /// transition sweep, `active` changes only on suspension
    /// (grant/split) and reactivation (revocation of the suspending
    /// children) — all funnel through here.
    fn set_cap_active(&mut self, id: CapId, active: bool) {
        if let Some(c) = self.caps.get_mut(id.0) {
            c.active = active;
            let (resource, owner) = (c.resource, c.owner);
            if active {
                self.index_activate(id, resource, owner);
            } else {
                self.index_deactivate(id, resource, owner);
            }
        }
    }

    /// Adds an active capability to the index that holds only active
    /// ones for its resource type (memory intervals or unit holders).
    fn index_activate(&mut self, id: CapId, resource: Resource, owner: DomainId) {
        if let Some(r) = resource.as_mem() {
            self.mem_index.insert(r.start, id, r.end, owner);
        } else if let Some(key) = Self::unit_key(&resource) {
            self.holders.insert(key, owner, id);
        }
    }

    /// Inverse of [`index_activate`](Self::index_activate); a no-op for
    /// a capability that is not indexed.
    fn index_deactivate(&mut self, id: CapId, resource: Resource, owner: DomainId) {
        if let Some(r) = resource.as_mem() {
            self.mem_index.remove(r.start, id);
        } else if let Some(key) = Self::unit_key(&resource) {
            self.holders.remove(key, owner, id);
        }
    }

    /// Manager check: `actor` manages `domain` (directly) or is the
    /// domain itself while unsealed.
    fn check_manager(&self, actor: DomainId, domain: DomainId) -> Result<(), CapError> {
        let dom = self
            .domains
            .get(domain.0)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if !dom.is_alive() {
            return Err(CapError::NoSuchDomain(domain));
        }
        if dom.manager == Some(actor) || (actor == domain && !dom.is_sealed()) {
            Ok(())
        } else {
            Err(CapError::NotManager {
                target: domain,
                actor,
            })
        }
    }

    /// Shared validation + node creation for share/grant.
    #[allow(clippy::too_many_arguments)]
    fn derive(
        &mut self,
        actor: DomainId,
        cap: CapId,
        target: DomainId,
        sub: Option<MemRegion>,
        rights: Rights,
        policy: RevocationPolicy,
        how: Derivation,
    ) -> Result<CapId, CapError> {
        let c = self.caps.get(cap.0).ok_or(CapError::NoSuchCap(cap))?;
        if c.owner != actor {
            return Err(CapError::NotOwner { cap, actor });
        }
        if !c.active {
            return Err(CapError::Inactive(cap));
        }
        if !rights.subset_of(&c.rights) {
            return Err(CapError::RightsEscalation);
        }
        let actor_dom = self
            .domains
            .get(actor.0)
            .ok_or(CapError::NoSuchDomain(actor))?;
        if actor_dom.is_sealed() && !actor_dom.seal_policy.allow_outward_sharing {
            return Err(CapError::ActorSealed(actor));
        }
        let target_dom = self
            .domains
            .get(target.0)
            .ok_or(CapError::NoSuchDomain(target))?;
        if !target_dom.is_alive() {
            return Err(CapError::NoSuchDomain(target));
        }
        // Sealing freezes *incoming* resources unconditionally (§3.1).
        if target_dom.is_sealed() && target != actor {
            return Err(CapError::TargetSealed(target));
        }
        let resource = match (c.resource, sub) {
            (Resource::Memory(region), Some(s)) => {
                if !region.contains(&s) {
                    return Err(CapError::OutOfRange);
                }
                Resource::Memory(s)
            }
            (r, None) => r,
            (_, Some(_)) => return Err(CapError::SubrangeOnNonMemory),
        };
        // Capture the parent's identity before any mutation: the Granted
        // branch needs it after `insert_child`, and reading it now avoids
        // a second (fallible) lookup of a capability we already hold.
        let (parent_owner, parent_res) = (c.owner, c.resource);
        let kind = match how {
            Derivation::Share => CapKind::Shared,
            Derivation::Grant => CapKind::Granted,
        };
        let child = self.insert_child(cap, target, actor, resource, rights, kind, policy)?;
        let child_cap = self.caps.get(child.0).expect("just inserted").clone();
        if how == Derivation::Share {
            self.emit_gain(&child_cap);
        } else {
            // Suspend the granter's capability and its hardware access.
            // The grant may take a core or transition target out from
            // under a cached fast-path validation; `tick()` below
            // bumps the generation.
            self.set_cap_active(cap, false);
            self.emit_loss(parent_owner, parent_res);
            if matches!(parent_res, Resource::Memory(_)) {
                self.effects.push(Effect::FlushTlb {
                    domain: parent_owner,
                });
            }
            self.emit_gain(&child_cap);
        }
        self.tick();
        self.trace.emit_engine(EventKind::CapOp {
            op: match how {
                Derivation::Share => CapOpKind::Share,
                Derivation::Grant => CapOpKind::Grant,
            },
            actor: actor.0,
            subject: cap.0,
            aux: target.0,
        });
        Ok(child)
    }

    /// Inserts a child capability node under `parent`.
    ///
    /// Returns `NoSuchCap(parent)` instead of panicking if the parent is
    /// missing: like the revoke lineage walk, a dangling parent means the
    /// capability tree is corrupt, and the TCB must refuse the operation
    /// rather than abort the whole monitor. The parent is linked *before*
    /// the child node is created, so a refused insert adds no capability
    /// state (only the id allocator advances, and ids are never reused).
    #[allow(clippy::too_many_arguments)]
    fn insert_child(
        &mut self,
        parent: CapId,
        owner: DomainId,
        granter: DomainId,
        resource: Resource,
        rights: Rights,
        kind: CapKind,
        policy: RevocationPolicy,
    ) -> Result<CapId, CapError> {
        let id = CapId(self.ids.next());
        self.caps
            .get_mut(parent.0)
            .ok_or(CapError::NoSuchCap(parent))?
            .children
            .insert(id);
        let cap = Capability {
            id,
            owner,
            granter,
            resource,
            rights,
            kind,
            parent: Some(parent),
            children: BTreeSet::new(),
            policy,
            active: true,
            created_at: self.tick(),
        };
        self.index_insert(&cap);
        self.caps.insert(id.0, cap);
        Ok(id)
    }

    /// Emits the effects that give `cap.owner` access to `cap.resource`.
    fn emit_gain(&mut self, cap: &Capability) {
        match cap.resource {
            Resource::Memory(region) => {
                self.effects.push(Effect::MapMem {
                    domain: cap.owner,
                    region,
                    rights: cap.rights,
                });
            }
            Resource::CpuCore(core) => {
                self.effects.push(Effect::AddCore {
                    domain: cap.owner,
                    core,
                });
            }
            Resource::Device(device) => {
                self.effects.push(Effect::AttachDevice {
                    device,
                    domain: cap.owner,
                });
            }
            Resource::Transition(_) => {}
            Resource::Interrupt(vector) => {
                self.effects.push(Effect::RouteIrq {
                    vector,
                    domain: cap.owner,
                });
            }
        }
    }

    /// Emits the effects that remove `owner`'s access to `resource`.
    fn emit_loss(&mut self, owner: DomainId, resource: Resource) {
        match resource {
            Resource::Memory(region) => {
                self.effects.push(Effect::UnmapMem {
                    domain: owner,
                    region,
                });
            }
            Resource::CpuCore(core) => {
                self.effects.push(Effect::RemoveCore {
                    domain: owner,
                    core,
                });
            }
            Resource::Device(device) => {
                self.effects.push(Effect::DetachDevice { device });
            }
            Resource::Transition(_) => {}
            Resource::Interrupt(vector) => {
                self.effects.push(Effect::UnrouteIrq { vector });
            }
        }
    }

    /// The smallest live capability id `>= from` owned by `domain`.
    fn next_owned(&self, domain: DomainId, from: CapId) -> Option<CapId> {
        self.by_owner
            .get(domain.0)?
            .range(from..)
            .copied()
            .find(|id| self.caps.contains(id.0))
    }

    /// The smallest live transition capability id `>= from` into
    /// `domain`.
    fn next_transition_into(&self, domain: DomainId, from: CapId) -> Option<CapId> {
        self.res_index
            .get(&domain)?
            .range(from..)
            .copied()
            .find(|id| self.caps.contains(id.0))
    }

    /// Revokes the subtree rooted at `cap` (inclusive), post-order, with
    /// clean-up effects. Iterative with an explicit stack; each node is
    /// visited exactly once, so this terminates regardless of domain-level
    /// sharing cycles.
    fn revoke_subtree(&mut self, cap: CapId) {
        // Any cached transition validation may now be stale.
        self.generation += 1;
        self.trace.emit_engine(EventKind::GenBump {
            gen: self.generation,
        });
        // Collect the subtree in DFS order, in the engine's reusable
        // walk buffers.
        let WalkScratch {
            mut stack,
            mut order,
        } = std::mem::take(&mut self.walk);
        stack.clear();
        order.clear();
        stack.push(cap);
        while let Some(id) = stack.pop() {
            if let Some(c) = self.caps.get(id.0) {
                order.push(id);
                stack.extend(c.children.iter().copied());
            }
        }
        // Revoke leaves-first so parents reactivate only after their
        // granted children are gone. Each node emits a bounded handful
        // of effects; reserving the subtree size up front turns a
        // storm's O(log) reallocation cascade into one growth step.
        self.effects.reserve(order.len());
        for &id in order.iter().rev() {
            self.revoke_single(id);
        }
        order.clear();
        self.walk = WalkScratch { stack, order };
    }

    /// Revokes one capability node (its children are already gone).
    fn revoke_single(&mut self, id: CapId) {
        let Some(c) = self.caps.remove(id.0) else {
            return;
        };
        // Compact the dead node's lineage facts into the packed side
        // table — the live table keeps no tombstone.
        self.revoked.push(RevokedRecord {
            cap: id,
            parent: c.parent,
            owner: c.owner,
            granter: c.granter,
            kind: c.kind,
            revoked_at: self.op_counter,
        });
        self.index_remove(&c);
        let owner_alive = self
            .domains
            .get(c.owner.0)
            .map(|d| d.is_alive())
            .unwrap_or(false);
        if c.active && owner_alive {
            self.emit_loss(c.owner, c.resource);
        }
        // Clean-up contract.
        if let Resource::Memory(region) = c.resource {
            // Zero only when the revoked holder had exclusive data in the
            // region (granted or carved-from-grant); zeroing a shared
            // window would destroy the surviving holder's bytes.
            if c.policy.zero_memory && c.kind == CapKind::Granted {
                self.effects.push(Effect::ZeroMem { region });
            }
            if c.policy.flush_tlb && owner_alive {
                self.effects.push(Effect::FlushTlb { domain: c.owner });
            }
        }
        if c.policy.flush_cache && owner_alive {
            self.effects.push(Effect::FlushCache { domain: c.owner });
        }
        // Detach parent linkage and reactivate a granter suspended by a
        // grant, or a split parent whose pieces are all gone.
        if let Some(pid) = c.parent {
            let reactivate = if let Some(parent) = self.caps.get_mut(pid.0) {
                parent.children.remove(&id);
                let should = match c.kind {
                    CapKind::Granted => true,
                    CapKind::Carved => parent.children.is_empty(),
                    _ => false,
                };
                should && !parent.active
            } else {
                false
            };
            // Quarantine is sticky: a suspended transition capability into
            // a quarantined domain must never come back to life when its
            // suspending child goes away (audit I7).
            let reactivate = reactivate
                && !matches!(
                    self.caps.get(pid.0).map(|p| p.resource),
                    Some(Resource::Transition(t))
                        if self.domains.get(t.0).map(|d| d.is_quarantined()).unwrap_or(false)
                );
            if reactivate {
                self.set_cap_active(pid, true);
                if let Some(parent) = self.caps.get(pid.0) {
                    let palive = self
                        .domains
                        .get(parent.owner.0)
                        .map(|d| d.is_alive())
                        .unwrap_or(false);
                    if palive {
                        let parent = parent.clone();
                        self.emit_gain(&parent);
                    }
                }
            }
        }
    }

    /// Computes the seal-time measurement: a hash over the canonical
    /// encoding of the domain's configuration and recorded contents.
    fn measure_config(&self, domain: DomainId, policy: SealPolicy) -> tyche_crypto::Digest {
        let dom = self.domains.get(domain.0).expect("caller checked");
        // The canonical encoding is hashed as it is produced; a tenant's
        // handful of capability entries sorts in a stack buffer.
        let mut h = tyche_crypto::Sha256::new();
        h.update(b"tyche-domain-v1");
        h.update(&dom.entry.unwrap_or(0).to_le_bytes());
        h.update(&[policy.encode()]);
        let mut small = [(0u8, 0u64, 0u64, 0u8, 0u8); MEASURE_INLINE];
        let mut spill = Vec::new();
        let mut n = 0;
        for c in self.owned_caps(domain).filter(|c| c.active) {
            let (a, b) = match c.resource {
                Resource::Memory(r) => (r.start, r.end),
                Resource::CpuCore(n) => (n as u64, 0),
                Resource::Device(d) => (d as u64, 0),
                Resource::Transition(t) => (t.0, 0),
                Resource::Interrupt(v) => (v as u64, 0),
            };
            let kind = match c.kind {
                CapKind::Root => 0u8,
                CapKind::Shared => 1,
                CapKind::Granted => 2,
                CapKind::Carved => 3,
            };
            let entry = (c.resource.type_tag(), a, b, c.rights.0, kind);
            match small.get_mut(n) {
                Some(slot) => *slot = entry,
                None => {
                    if spill.is_empty() {
                        spill.extend_from_slice(&small);
                    }
                    spill.push(entry);
                }
            }
            n += 1;
        }
        let entries = match small.get_mut(..n) {
            Some(inline) => inline,
            None => spill.as_mut_slice(),
        };
        entries.sort_unstable();
        h.update(&(n as u64).to_le_bytes());
        for &(tag, a, b, rights, kind) in entries.iter() {
            h.update(&[tag]);
            h.update(&a.to_le_bytes());
            h.update(&b.to_le_bytes());
            h.update(&[rights, kind]);
        }
        h.update(&(dom.content_measurements.len() as u64).to_le_bytes());
        let mut contents: Vec<&(u64, u64, tyche_crypto::Digest)> =
            dom.content_measurements.iter().collect();
        contents.sort();
        for (s, e, d) in contents {
            h.update(&s.to_le_bytes());
            h.update(&e.to_le_bytes());
            h.update(d.as_bytes());
        }
        h.finalize()
    }
}

/// The engine's test surface: scan-based reference implementations of
/// the indexed queries and the corruption hooks. Compiled only where the
/// differential asserts above run (debug builds and `paranoid-checks`),
/// so the release monitor ships neither.
#[cfg(any(debug_assertions, feature = "paranoid-checks"))]
impl CapEngine {
    /// Scan-based reference implementation of [`caps_of`](Self::caps_of).
    pub fn caps_of_scan(&self, domain: DomainId) -> Vec<&Capability> {
        self.caps.values().filter(|c| c.owner == domain).collect()
    }

    /// Scan-based reference implementation of [`owns_core`](Self::owns_core)
    /// (`unit` a [`Resource::CpuCore`]) and [`owns_device`](Self::owns_device)
    /// (a [`Resource::Device`]).
    pub fn owns_unit_scan(&self, domain: DomainId, unit: Resource) -> bool {
        self.caps
            .values()
            .any(|c| c.owner == domain && c.active && c.rights.can_use() && c.resource == unit)
    }

    /// Scan-based reference implementation of
    /// [`active_mem_coverage`](Self::active_mem_coverage), in capability
    /// id order.
    pub fn active_mem_coverage_scan(&self) -> Vec<(DomainId, MemRegion)> {
        // One allocation sized for every capability, not a doubling
        // cascade: the differential checks run this on every query.
        let mut out = Vec::with_capacity(self.caps.len());
        out.extend(
            self.caps
                .values()
                .filter(|c| c.active)
                .filter_map(|c| c.resource.as_mem().map(|r| (c.owner, r))),
        );
        out
    }

    /// Scan-based reference implementation of
    /// [`refcount_mem_full`](Self::refcount_mem_full).
    pub fn refcount_mem_full_scan(&self, region: MemRegion) -> RefCount {
        mem_refcount(&self.active_mem_coverage_scan(), region)
    }

    /// Scan-based reference implementation of
    /// [`enumerate`](Self::enumerate): every refcount is priced against
    /// every capability.
    pub fn enumerate_scan(&self, domain: DomainId) -> Result<Vec<EnumeratedResource>, CapError> {
        if !self.domains.get(domain.0).is_some_and(Domain::is_alive) {
            return Err(CapError::NoSuchDomain(domain));
        }
        let coverage = self.active_mem_coverage_scan();
        Ok(self
            .caps
            .values()
            .filter(|c| c.owner == domain && c.active)
            .map(|c| {
                let refcount = match c.resource {
                    Resource::Memory(r) => mem_refcount(&coverage, r),
                    Resource::Transition(_) => RefCount { max: 1, min: 1 },
                    unit => {
                        let n = crate::refcount::unit_refcount(
                            self.caps
                                .values()
                                .filter(|k| k.active && k.resource == unit)
                                .map(|k| k.owner)
                                .collect(),
                        );
                        RefCount { max: n, min: n }
                    }
                };
                EnumeratedResource {
                    cap: c.id,
                    resource: c.resource,
                    rights: c.rights,
                    kind: c.kind,
                    refcount,
                }
            })
            .collect())
    }

    /// Test-only rewrite of a capability record through `f` (which must
    /// not change its `id`). The record leaves the secondary indexes
    /// before `f` runs and re-enters them after, so every indexed query
    /// stays exact whatever `f` rewrites: owner, resource, `active` or
    /// lineage. False when `cap` does not exist.
    pub fn corrupt_cap(&mut self, cap: CapId, f: impl FnOnce(&mut Capability)) -> bool {
        self.corrupt_generation(self.generation + 1);
        let Some(mut c) = self.caps.get(cap.0).cloned() else {
            return false;
        };
        self.index_remove(&c);
        f(&mut c);
        self.index_insert(&c);
        self.caps.insert(cap.0, c);
        true
    }

    /// Test-only mutable access to a domain record. No index is keyed
    /// on a domain's fields, so this only invalidates cached transition
    /// validations.
    pub fn corrupt_domain(&mut self, domain: DomainId) -> Option<&mut Domain> {
        self.corrupt_generation(self.generation + 1);
        self.domains.get_mut(domain.0)
    }

    /// Test-only override of the mutation generation (including the
    /// matching [`EventKind::GenBump`] emission, so the runtime-verification
    /// seqlock checker can observe the corruption in the trace).
    pub fn corrupt_generation(&mut self, gen: u64) {
        self.generation = gen;
        self.trace.emit_engine(EventKind::GenBump { gen });
    }
}
