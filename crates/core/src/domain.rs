//! Trust domains: state, sealing, and seal policies.

use crate::ids::DomainId;
use tyche_crypto::Digest;

/// How strictly a domain is sealed.
///
/// §3.1 of the paper: "Domains can be sealed, so that their resources
/// cannot be extended or further shared with others." §4.2 simultaneously
/// requires sealed enclaves to "spawn nested enclaves and share exclusively
/// owned pages with them". The reproduction reconciles the two by making
/// the outward half of sealing part of the *attested* policy: every seal
/// freezes incoming resources; a *strict* seal additionally freezes
/// outgoing sharing, so a verifier who sees `strict` in the attestation
/// knows the domain's reference counts can never grow. A `nestable` seal
/// permits the domain to derive children and share onward — visible to
/// verifiers, who then judge the domain by its measured code instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SealPolicy {
    /// The domain may share/grant its resources onward after sealing
    /// (required for nested enclaves, §4.2).
    pub allow_outward_sharing: bool,
    /// The domain may create child domains after sealing.
    pub allow_child_domains: bool,
}

impl SealPolicy {
    /// Fully frozen: no new resources in, nothing shared out, no children.
    /// Reference counts of this domain's exclusive resources can never
    /// increase — the configuration Figure 2's crypto engine needs.
    pub fn strict() -> SealPolicy {
        SealPolicy {
            allow_outward_sharing: false,
            allow_child_domains: false,
        }
    }

    /// Frozen incoming resources, but the domain may spawn nested domains
    /// and share its own resources with them (§4.2 nested enclaves).
    pub fn nestable() -> SealPolicy {
        SealPolicy {
            allow_outward_sharing: true,
            allow_child_domains: true,
        }
    }

    /// Stable one-byte encoding used in measurements.
    pub fn encode(&self) -> u8 {
        (self.allow_outward_sharing as u8) | ((self.allow_child_domains as u8) << 1)
    }
}

/// Lifecycle state of a domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainState {
    /// Under construction: the manager is still adding resources.
    Configuring,
    /// Sealed: resource configuration frozen per the [`SealPolicy`],
    /// measurement taken, domain runnable.
    Sealed,
    /// Killed. The engine never stores a dead domain: `kill` revokes its
    /// capabilities, removes its record, and retires its id, so lookups
    /// of a killed id find nothing. The state remains so that a record
    /// rewritten through the corruption hooks can still be marked dead
    /// and caught by the auditor.
    Dead,
}

/// Per-domain bookkeeping held by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Domain {
    /// This domain's id.
    pub id: DomainId,
    /// The domain that created (and manages) this one; `None` for the
    /// root domain installed at boot.
    pub manager: Option<DomainId>,
    /// Lifecycle state.
    pub state: DomainState,
    /// Seal policy; meaningful once `state == Sealed`.
    pub seal_policy: SealPolicy,
    /// Fixed entry point (§3.1: "domains have a fixed entry point").
    pub entry: Option<u64>,
    /// Measurement captured at seal time (config + recorded contents).
    pub measurement: Option<Digest>,
    /// Content measurements recorded before sealing: `(region-start,
    /// region-end, digest)`, supplied by the monitor when it loads the
    /// domain's initial memory.
    pub content_measurements: Vec<(u64, u64, Digest)>,
    /// Poisoned-domain quarantine: the hardware backing this domain
    /// faulted mid-reprogramming, so its translation state can no longer
    /// be trusted to match the capability view. A quarantined domain
    /// stays alive — killable and enumerable, so its manager can tear it
    /// down and auditors can inspect it — but is never enterable again.
    pub quarantined: bool,
    /// The engine operation counter at seal time; `None` until sealed.
    pub sealed_at: Option<u64>,
}

impl Domain {
    /// True when the domain is sealed.
    pub fn is_sealed(&self) -> bool {
        self.state == DomainState::Sealed
    }

    /// True when the domain is alive (configuring or sealed).
    pub fn is_alive(&self) -> bool {
        self.state != DomainState::Dead
    }

    /// True when the domain is quarantined (alive but not enterable;
    /// see [`Domain::quarantined`]).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_policy_encoding_distinct() {
        let mut seen = std::collections::HashSet::new();
        for (o, c) in [(false, false), (false, true), (true, false), (true, true)] {
            let p = SealPolicy {
                allow_outward_sharing: o,
                allow_child_domains: c,
            };
            assert!(seen.insert(p.encode()));
        }
    }

    #[test]
    fn presets() {
        assert!(!SealPolicy::strict().allow_outward_sharing);
        assert!(!SealPolicy::strict().allow_child_domains);
        assert!(SealPolicy::nestable().allow_outward_sharing);
        assert!(SealPolicy::nestable().allow_child_domains);
    }

    #[test]
    fn lifecycle_predicates() {
        let mut d = Domain {
            id: DomainId(1),
            manager: Some(DomainId(0)),
            state: DomainState::Configuring,
            seal_policy: SealPolicy::strict(),
            entry: None,
            measurement: None,
            content_measurements: vec![],
            quarantined: false,
            sealed_at: None,
        };
        assert!(d.is_alive());
        assert!(!d.is_sealed());
        assert!(!d.is_quarantined());
        d.state = DomainState::Sealed;
        assert!(d.is_sealed());
        d.quarantined = true;
        assert!(d.is_quarantined());
        assert!(d.is_alive(), "quarantined domains stay alive (killable)");
        d.state = DomainState::Dead;
        assert!(!d.is_alive());
    }
}
