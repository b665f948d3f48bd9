//! Active holders of unit resources: CPU cores, devices and interrupts.
//!
//! A unit resource's reference count (§3.1) is the number of distinct
//! domains holding an active capability over it, and the fast-path
//! ownership checks (`owns_core`, `owns_device`) ask whether one given
//! domain is among them. Both sit on every tenant's `Enumerate`,
//! `Attest` and `can_enter`, and hundreds of tenants may share a core,
//! so neither may walk the unit's holders. [`HolderIndex`] groups the
//! *active* capabilities of each unit by owner: the count is the size
//! of the owner map, and an ownership check touches only the queried
//! domain's own capabilities on that unit.
//!
//! Suspended capabilities are not held here: the engine inserts a
//! capability when it becomes active and removes it when it is
//! suspended or revoked, so no query has to filter by `active`.

use crate::ids::{CapId, DomainId};
use std::collections::{BTreeMap, BTreeSet};

/// A unit resource as `(type_tag, value)`: tag 1 a core, 2 a device,
/// 4 an interrupt vector (see [`crate::resource::Resource::type_tag`]).
pub type UnitKey = (u8, u64);

/// Unit resource → owner → that owner's active capabilities over it.
/// Empty inner maps and sets are pruned, so every owner present holds
/// at least one active capability.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HolderIndex {
    units: BTreeMap<UnitKey, BTreeMap<DomainId, BTreeSet<CapId>>>,
}

impl HolderIndex {
    /// Records `cap`, owned by `owner`, as an active holder of `unit`.
    pub fn insert(&mut self, unit: UnitKey, owner: DomainId, cap: CapId) {
        self.units
            .entry(unit)
            .or_default()
            .entry(owner)
            .or_default()
            .insert(cap);
    }

    /// Removes `cap` from `unit`'s holders (a no-op when absent),
    /// dropping the owner and the unit once they hold nothing.
    pub fn remove(&mut self, unit: UnitKey, owner: DomainId, cap: CapId) {
        let Some(owners) = self.units.get_mut(&unit) else {
            return;
        };
        if let Some(caps) = owners.get_mut(&owner) {
            caps.remove(&cap);
            if caps.is_empty() {
                owners.remove(&owner);
            }
        }
        if owners.is_empty() {
            self.units.remove(&unit);
        }
    }

    /// Number of distinct domains holding an active capability over
    /// `unit`: its reference count.
    pub fn owner_count(&self, unit: UnitKey) -> usize {
        self.units.get(&unit).map_or(0, BTreeMap::len)
    }

    /// `owner`'s active capabilities over `unit`, in id order.
    pub fn caps_of(&self, unit: UnitKey, owner: DomainId) -> impl Iterator<Item = CapId> + '_ {
        self.units
            .get(&unit)
            .and_then(|owners| owners.get(&owner))
            .into_iter()
            .flat_map(|caps| caps.iter().copied())
    }

    /// Estimated heap footprint: B-tree nodes at ~1.5x entry payload
    /// (the textbook 2/3 fill factor), counting each unit's key and
    /// owner map, each owner's id and capability set, and each
    /// capability id.
    pub fn storage_bytes(&self) -> usize {
        let owners: usize = self.units.values().map(BTreeMap::len).sum();
        let caps: usize = self
            .units
            .values()
            .flat_map(BTreeMap::values)
            .map(BTreeSet::len)
            .sum();
        (self.units.len() * 24 + owners * 32 + caps * 8) * 3 / 2
    }
}
