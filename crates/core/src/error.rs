//! Engine error type.

use crate::ids::{CapId, DomainId};

/// Why a capability operation was refused.
///
/// §3.4: "The monitor should not accept invalid policies". Every refusal
/// is explicit and typed so callers (and tests) can assert on the precise
/// reason.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapError {
    /// The named domain does not exist (or was killed).
    NoSuchDomain(DomainId),
    /// The named capability does not exist (or was revoked).
    NoSuchCap(CapId),
    /// The capability exists but is not owned by the acting domain.
    NotOwner {
        /// The capability in question.
        cap: CapId,
        /// The domain that attempted the operation.
        actor: DomainId,
    },
    /// The capability is currently inactive (its resource was granted
    /// onward, or an ancestor was revoked mid-operation).
    Inactive(CapId),
    /// The requested subrange is not contained in the capability's region.
    OutOfRange,
    /// The requested rights exceed the parent capability's rights.
    RightsEscalation,
    /// The operation would extend a sealed domain's resources.
    TargetSealed(DomainId),
    /// A strictly-sealed domain attempted to share/grant its resources.
    ActorSealed(DomainId),
    /// The operation requires a sealed target (e.g. entering a domain).
    NotSealed(DomainId),
    /// The domain has no entry point configured.
    NoEntryPoint(DomainId),
    /// The acting domain may not manage the target domain.
    NotManager {
        /// The domain being managed.
        target: DomainId,
        /// The domain that attempted the operation.
        actor: DomainId,
    },
    /// Attempted transition onto a CPU core the target does not own.
    CoreNotOwned {
        /// The target domain.
        domain: DomainId,
        /// The core it tried to run on.
        core: usize,
    },
    /// Subranges are only meaningful for memory capabilities.
    SubrangeOnNonMemory,
    /// This operation cannot be applied to this resource type.
    WrongResourceType,
    /// A sealed domain cannot be reconfigured (entry point, cores...).
    SealedImmutable(DomainId),
    /// The root domain cannot be the target of this operation.
    RootDomain,
    /// Cannot revoke: the actor is not on the capability's granting side.
    NotGranter {
        /// The capability being revoked.
        cap: CapId,
        /// The domain that attempted the revocation.
        actor: DomainId,
    },
    /// The domain is quarantined: its backing hardware faulted, so it is
    /// killable and enumerable but not enterable.
    Quarantined(DomainId),
}

impl core::fmt::Display for CapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CapError::NoSuchDomain(d) => write!(f, "no such domain {d}"),
            CapError::NoSuchCap(c) => write!(f, "no such capability {c}"),
            CapError::NotOwner { cap, actor } => write!(f, "{actor} does not own {cap}"),
            CapError::Inactive(c) => write!(f, "capability {c} is inactive"),
            CapError::OutOfRange => f.write_str("subrange outside capability region"),
            CapError::RightsEscalation => f.write_str("derived rights exceed parent rights"),
            CapError::TargetSealed(d) => write!(f, "domain {d} is sealed; cannot extend"),
            CapError::ActorSealed(d) => write!(f, "domain {d} is strictly sealed; cannot share"),
            CapError::NotSealed(d) => write!(f, "domain {d} is not sealed"),
            CapError::NoEntryPoint(d) => write!(f, "domain {d} has no entry point"),
            CapError::NotManager { target, actor } => {
                write!(f, "{actor} does not manage {target}")
            }
            CapError::CoreNotOwned { domain, core } => {
                write!(f, "{domain} does not own CPU core {core}")
            }
            CapError::SubrangeOnNonMemory => {
                f.write_str("subranges apply only to memory capabilities")
            }
            CapError::WrongResourceType => f.write_str("wrong resource type for operation"),
            CapError::SealedImmutable(d) => write!(f, "domain {d} is sealed and immutable"),
            CapError::RootDomain => f.write_str("operation not applicable to the root domain"),
            CapError::NotGranter { cap, actor } => {
                write!(f, "{actor} is not the granter of {cap}")
            }
            CapError::Quarantined(d) => {
                write!(f, "domain {d} is quarantined after a hardware fault")
            }
        }
    }
}

impl std::error::Error for CapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CapError::NotOwner {
            cap: CapId(4),
            actor: DomainId(2),
        };
        assert_eq!(e.to_string(), "dom2 does not own cap4");
        assert!(CapError::OutOfRange.to_string().contains("subrange"));
    }
}
