//! Physical resources and access rights.
//!
//! §3.2 of the paper: monitor policies "operate on physical name spaces
//! (e.g., memory, CPU cores), which permit reasoning about sharing and
//! exclusive ownership without having to consider aliasing". The resource
//! types here are exactly those physical names: byte ranges of physical
//! memory, CPU core numbers, and PCI device ids — plus the *transition*
//! pseudo-resource, the call-gate right to enter another domain.

use crate::ids::DomainId;

/// A half-open physical memory region `[start, end)` in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemRegion {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
}

impl MemRegion {
    /// Creates a region; `start` must be strictly below `end`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted region — capabilities over nothing
    /// are a policy bug the engine refuses to represent.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(
            start < end,
            "empty or inverted region [{start:#x}, {end:#x})"
        );
        MemRegion { start, end }
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Regions are never empty (enforced at construction); kept for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when `other` lies fully inside `self`.
    pub fn contains(&self, other: &MemRegion) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True when `addr` lies inside the region.
    pub fn contains_addr(&self, addr: u64) -> bool {
        self.start <= addr && addr < self.end
    }

    /// True when the regions share at least one byte.
    pub fn overlaps(&self, other: &MemRegion) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlapping part of two regions, if any.
    pub fn intersection(&self, other: &MemRegion) -> Option<MemRegion> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(MemRegion { start, end })
    }
}

impl core::fmt::Debug for MemRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.end)
    }
}

/// Access rights attached to a capability.
///
/// Interpretation depends on the resource: for memory, read/write/execute;
/// for CPU cores and devices, only [`Rights::USE`] is meaningful; for
/// transitions, [`Rights::USE`] means "may enter".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rights(pub u8);

impl Rights {
    /// Read bit.
    pub const R: u8 = 1 << 0;
    /// Write bit.
    pub const W: u8 = 1 << 1;
    /// Execute bit.
    pub const X: u8 = 1 << 2;
    /// Use bit (CPU cores, devices, transitions).
    pub const U: u8 = 1 << 3;

    /// No rights.
    pub const NONE: Rights = Rights(0);
    /// Read-only memory.
    pub const RO: Rights = Rights(Self::R);
    /// Read-write memory.
    pub const RW: Rights = Rights(Self::R | Self::W);
    /// Read-execute memory.
    pub const RX: Rights = Rights(Self::R | Self::X);
    /// Read-write-execute memory.
    pub const RWX: Rights = Rights(Self::R | Self::W | Self::X);
    /// Usable (cores/devices/transitions).
    pub const USE: Rights = Rights(Self::U);

    /// True when `self` is a subset of `other` — the attenuation rule:
    /// derived capabilities may only narrow rights.
    pub fn subset_of(&self, other: &Rights) -> bool {
        self.0 & !other.0 == 0
    }

    /// True when the read bit is set.
    pub fn can_read(&self) -> bool {
        self.0 & Self::R != 0
    }

    /// True when the write bit is set.
    pub fn can_write(&self) -> bool {
        self.0 & Self::W != 0
    }

    /// True when the execute bit is set.
    pub fn can_exec(&self) -> bool {
        self.0 & Self::X != 0
    }

    /// True when the use bit is set.
    pub fn can_use(&self) -> bool {
        self.0 & Self::U != 0
    }
}

impl core::fmt::Debug for Rights {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let r = if self.can_read() { "r" } else { "-" };
        let w = if self.can_write() { "w" } else { "-" };
        let x = if self.can_exec() { "x" } else { "-" };
        let u = if self.can_use() { "u" } else { "-" };
        write!(f, "{r}{w}{x}{u}")
    }
}

/// A physical resource a capability refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Resource {
    /// A physical memory region.
    Memory(MemRegion),
    /// A CPU core, by hardware core number.
    CpuCore(usize),
    /// A PCI device, by flattened bus/device/function id.
    Device(u16),
    /// The right to transition into (call) a domain at its fixed entry
    /// point. Created by the target's manager; transferable like any other
    /// capability.
    Transition(DomainId),
    /// An interrupt vector: the holder receives this vector's deliveries
    /// (§4.1 "cross-domain interrupt routing via remapping").
    Interrupt(u32),
}

impl Resource {
    /// Convenience constructor for a memory resource.
    pub fn mem(start: u64, end: u64) -> Resource {
        Resource::Memory(MemRegion::new(start, end))
    }

    /// The memory region, when this is a memory resource.
    pub fn as_mem(&self) -> Option<MemRegion> {
        match self {
            Resource::Memory(r) => Some(*r),
            _ => None,
        }
    }

    /// A short stable type tag used in canonical serialization.
    pub fn type_tag(&self) -> u8 {
        match self {
            Resource::Memory(_) => 0,
            Resource::CpuCore(_) => 1,
            Resource::Device(_) => 2,
            Resource::Transition(_) => 3,
            Resource::Interrupt(_) => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_relations() {
        let r = MemRegion::new(0x1000, 0x3000);
        assert_eq!(r.len(), 0x2000);
        assert!(r.contains(&MemRegion::new(0x1000, 0x3000)));
        assert!(r.contains(&MemRegion::new(0x1800, 0x2000)));
        assert!(!r.contains(&MemRegion::new(0x0, 0x1001)));
        assert!(r.overlaps(&MemRegion::new(0x2fff, 0x4000)));
        assert!(!r.overlaps(&MemRegion::new(0x3000, 0x4000)));
        assert_eq!(
            r.intersection(&MemRegion::new(0x2000, 0x4000)),
            Some(MemRegion::new(0x2000, 0x3000))
        );
        assert_eq!(r.intersection(&MemRegion::new(0x4000, 0x5000)), None);
        assert!(r.contains_addr(0x1000));
        assert!(!r.contains_addr(0x3000));
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn empty_region_panics() {
        MemRegion::new(0x1000, 0x1000);
    }

    #[test]
    fn rights_attenuation() {
        assert!(Rights::RO.subset_of(&Rights::RW));
        assert!(Rights::RW.subset_of(&Rights::RWX));
        assert!(!Rights::RW.subset_of(&Rights::RO));
        assert!(!Rights::RX.subset_of(&Rights::RW));
        assert!(Rights::NONE.subset_of(&Rights::NONE));
    }

    #[test]
    fn rights_debug_format() {
        assert_eq!(format!("{:?}", Rights::RW), "rw--");
        assert_eq!(format!("{:?}", Rights::USE), "---u");
    }

    #[test]
    fn resource_tags_distinct() {
        let tags = [
            Resource::mem(0, 1).type_tag(),
            Resource::CpuCore(0).type_tag(),
            Resource::Device(0).type_tag(),
            Resource::Transition(DomainId(0)).type_tag(),
            Resource::Interrupt(32).type_tag(),
        ];
        let set: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
