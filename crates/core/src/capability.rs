//! Capability nodes and the lineage tree.
//!
//! §4.1 of the paper: "grant, share, and revoke operations modify a tree
//! structure that represents a capability's lineage, maintains
//! per-resource reference counts, and facilitates cascading revocations,
//! even in the presence of circular sharing."
//!
//! Each capability is one node. Sharing or granting creates a *child*
//! node owned by the receiving domain; revocation removes a subtree.
//! Because lineage is a tree (every capability has exactly one parent),
//! cascading revocation terminates even when the *domain-level* sharing
//! graph is cyclic (A shares to B, B shares back to A, ...): the cycle
//! exists between domains, not between nodes.

use crate::ids::{CapId, DomainId};
use crate::resource::{Resource, Rights};
use crate::RevocationPolicy;
use std::collections::BTreeSet;

/// How a capability was derived from its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapKind {
    /// A root endowment installed at boot (no parent).
    Root,
    /// Shared: the parent capability remains active; both domains can use
    /// the resource.
    Shared,
    /// Granted: exclusive transfer; the parent capability is suspended
    /// while the grant is outstanding and reactivates on revocation.
    Granted,
    /// Carved: a piece produced by splitting a memory capability. Owner
    /// and access are unchanged; the parent is consumed while pieces
    /// exist and reactivates when all pieces are revoked.
    Carved,
}

/// One node of the capability tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capability {
    /// This capability's id.
    pub id: CapId,
    /// The domain holding (and exercising) this capability.
    pub owner: DomainId,
    /// The domain that created this capability by sharing/granting — the
    /// only domain (besides ancestors via cascade) that may revoke it.
    pub granter: DomainId,
    /// The resource this capability covers.
    pub resource: Resource,
    /// Access rights, always a subset of the parent's rights.
    pub rights: Rights,
    /// Derivation kind.
    pub kind: CapKind,
    /// Parent in the lineage tree (`None` for root endowments).
    pub parent: Option<CapId>,
    /// Children derived from this capability, in id (= creation) order.
    /// An ordered set, not a `Vec`: a revoke storm detaches thousands of
    /// children from one hot parent (a root endowment), and each detach
    /// must be O(log children), not a linear retain.
    pub children: BTreeSet<CapId>,
    /// Clean-up contract executed when this capability is revoked.
    pub policy: RevocationPolicy,
    /// Whether the capability currently conveys access. A capability is
    /// inactive while its resource is granted onward ([`CapKind::Granted`]
    /// child outstanding).
    pub active: bool,
    /// The engine operation counter at creation (the auditor checks it
    /// against seal stamps).
    pub created_at: u64,
}

impl Capability {
    /// True when this capability covers memory.
    pub fn is_memory(&self) -> bool {
        matches!(self.resource, Resource::Memory(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::MemRegion;

    #[test]
    fn construction() {
        let c = Capability {
            id: CapId(1),
            owner: DomainId(0),
            granter: DomainId(0),
            resource: Resource::Memory(MemRegion::new(0, 0x1000)),
            rights: Rights::RW,
            kind: CapKind::Root,
            parent: None,
            children: BTreeSet::new(),
            policy: RevocationPolicy::NONE,
            active: true,
            created_at: 0,
        };
        assert!(c.is_memory());
        assert!(c.active);
    }
}
