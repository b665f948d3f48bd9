//! Extended Page Tables: a real 4-level radix walker over simulated RAM.
//!
//! The tables live *inside* [`crate::mem::PhysMem`] and are walked by
//! reading 8-byte entries, exactly as the hardware page-miss handler walks
//! DRAM. The monitor programs mappings through [`Ept::map`] and the vCPU
//! translates through [`Ept::translate`], so a wrong entry written by the
//! monitor produces a wrong translation — the model cannot "cheat".
//!
//! Entry layout follows the Intel SDM (Vol. 3C, §28.3): bits 0..2 are
//! read/write/execute permissions, bit 7 selects a large page at non-leaf
//! levels, bits 12..52 hold the physical frame number.

use crate::addr::{GuestPhysAddr, PhysAddr, PAGE_SIZE};
use crate::mem::{FrameAllocator, MemError, PhysMem};

/// Permission bits of an EPT entry (SDM bit positions).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EptFlags(pub u64);

impl EptFlags {
    /// Read permission (bit 0).
    pub const READ: u64 = 1 << 0;
    /// Write permission (bit 1).
    pub const WRITE: u64 = 1 << 1;
    /// Execute permission (bit 2).
    pub const EXEC: u64 = 1 << 2;
    /// Large-page bit (bit 7) — set on a level-2 entry mapping 2 MiB.
    pub const LARGE: u64 = 1 << 7;

    /// Read-only mapping.
    pub const RO: EptFlags = EptFlags(Self::READ);
    /// Read-write mapping.
    pub const RW: EptFlags = EptFlags(Self::READ | Self::WRITE);
    /// Read-execute mapping.
    pub const RX: EptFlags = EptFlags(Self::READ | Self::EXEC);
    /// Read-write-execute mapping.
    pub const RWX: EptFlags = EptFlags(Self::READ | Self::WRITE | Self::EXEC);

    /// True when no access is permitted (the SDM "not present" encoding:
    /// all of R/W/X clear).
    pub fn is_none(self) -> bool {
        self.0 & (Self::READ | Self::WRITE | Self::EXEC) == 0
    }

    /// True when these flags allow `access`.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.0 & Self::READ != 0,
            Access::Write => self.0 & Self::WRITE != 0,
            Access::Exec => self.0 & Self::EXEC != 0,
        }
    }
}

impl core::fmt::Debug for EptFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let r = if self.0 & Self::READ != 0 { "r" } else { "-" };
        let w = if self.0 & Self::WRITE != 0 { "w" } else { "-" };
        let x = if self.0 & Self::EXEC != 0 { "x" } else { "-" };
        write!(f, "EptFlags({r}{w}{x})")
    }
}

/// The kind of memory access being translated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Access {
    /// A data read.
    Read,
    /// A data write.
    Write,
    /// An instruction fetch.
    Exec,
}

/// An EPT violation: the hardware event delivered to the monitor when a
/// domain touches memory it has no right to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EptViolation {
    /// Faulting guest-physical address.
    pub gpa: GuestPhysAddr,
    /// The attempted access.
    pub access: Access,
    /// Depth at which the walk stopped (4 = PML4 missing, 1 = leaf denied).
    pub level: u8,
}

/// Errors from programming the EPT (not from translating through it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EptError {
    /// Underlying physical memory error (table frame out of bounds, OOM).
    Mem(MemError),
    /// Attempted to map an unaligned address.
    Unaligned,
    /// Attempted to map over an existing incompatible mapping.
    AlreadyMapped {
        /// The guest page that is already mapped.
        gpa: GuestPhysAddr,
    },
    /// Attempted to unmap or re-protect a page that is not mapped.
    NotMapped {
        /// The guest page that has no mapping.
        gpa: GuestPhysAddr,
    },
}

impl From<MemError> for EptError {
    fn from(e: MemError) -> Self {
        EptError::Mem(e)
    }
}

impl core::fmt::Display for EptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EptError::Mem(e) => write!(f, "EPT memory error: {e}"),
            EptError::Unaligned => f.write_str("EPT mapping requires page alignment"),
            EptError::AlreadyMapped { gpa } => write!(f, "guest page {gpa} already mapped"),
            EptError::NotMapped { gpa } => write!(f, "guest page {gpa} not mapped"),
        }
    }
}

impl std::error::Error for EptError {}

const ENTRIES: u64 = 512;
const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

/// A 4-level extended page table rooted at a physical frame.
///
/// One `Ept` per trust domain; the root physical address is what gets loaded
/// into the VMCS EPTP field (or an EPTP-list slot for VMFUNC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ept {
    root: PhysAddr,
}

impl Ept {
    /// Allocates an empty EPT (one zeroed root frame).
    pub fn new(mem: &mut PhysMem, alloc: &mut FrameAllocator) -> Result<Self, EptError> {
        let root = alloc.alloc_zeroed(mem)?;
        Ok(Ept { root })
    }

    /// Wraps an existing root frame (used when loading an EPTP value).
    pub fn from_root(root: PhysAddr) -> Self {
        Ept { root }
    }

    /// The root frame — the EPTP value modulo the low control bits.
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// Index of the entry for `gpa` at `level` (4 = PML4 ... 1 = PT).
    fn index(gpa: GuestPhysAddr, level: u8) -> u64 {
        (gpa.as_u64() >> (12 + 9 * (level as u64 - 1))) & (ENTRIES - 1)
    }

    /// Maps the 4-KiB guest page at `gpa` to host frame `hpa` with `flags`.
    ///
    /// Intermediate table frames are allocated on demand. Remapping an
    /// already-mapped page is an error; the monitor must unmap first (this
    /// mirrors the discipline the capability engine needs).
    pub fn map(
        &self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        gpa: GuestPhysAddr,
        hpa: PhysAddr,
        flags: EptFlags,
    ) -> Result<(), EptError> {
        if !gpa.is_page_aligned() || !hpa.is_page_aligned() {
            return Err(EptError::Unaligned);
        }
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            let entry_addr = PhysAddr::new(table.as_u64() + Self::index(gpa, level) * 8);
            let entry = mem.read_u64(entry_addr)?;
            if EptFlags(entry).is_none() {
                let frame = alloc.alloc_zeroed(mem)?;
                // Non-leaf entries carry RWX so permissions are decided at
                // the leaf, matching how the monitor programs real EPTs.
                let new_entry = (frame.as_u64() & ADDR_MASK) | EptFlags::RWX.0;
                mem.write_u64(entry_addr, new_entry)?;
                table = frame;
            } else {
                table = PhysAddr::new(entry & ADDR_MASK);
            }
        }
        let leaf_addr = PhysAddr::new(table.as_u64() + Self::index(gpa, 1) * 8);
        let existing = mem.read_u64(leaf_addr)?;
        if !EptFlags(existing).is_none() {
            return Err(EptError::AlreadyMapped {
                gpa: gpa.page_base(),
            });
        }
        mem.write_u64(leaf_addr, (hpa.as_u64() & ADDR_MASK) | (flags.0 & 0x7))?;
        Ok(())
    }

    /// Maps a contiguous guest range to a contiguous host range.
    pub fn map_range(
        &self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        gpa: GuestPhysAddr,
        hpa: PhysAddr,
        len: u64,
        flags: EptFlags,
    ) -> Result<(), EptError> {
        if !len.is_multiple_of(PAGE_SIZE) {
            return Err(EptError::Unaligned);
        }
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            self.map(
                mem,
                alloc,
                GuestPhysAddr::new(gpa.as_u64() + off),
                PhysAddr::new(hpa.as_u64() + off),
                flags,
            )?;
        }
        Ok(())
    }

    /// Finds the leaf entry address for `gpa`, if the walk reaches level 1.
    fn leaf_entry_addr(
        &self,
        mem: &PhysMem,
        gpa: GuestPhysAddr,
    ) -> Result<Option<PhysAddr>, EptError> {
        let mut table = self.root;
        for level in (2..=4u8).rev() {
            let entry_addr = PhysAddr::new(table.as_u64() + Self::index(gpa, level) * 8);
            let entry = mem.read_u64(entry_addr)?;
            if EptFlags(entry).is_none() {
                return Ok(None);
            }
            table = PhysAddr::new(entry & ADDR_MASK);
        }
        Ok(Some(PhysAddr::new(
            table.as_u64() + Self::index(gpa, 1) * 8,
        )))
    }

    /// Removes the mapping for the guest page at `gpa`.
    pub fn unmap(&self, mem: &mut PhysMem, gpa: GuestPhysAddr) -> Result<(), EptError> {
        let leaf = self.leaf_entry_addr(mem, gpa)?.ok_or(EptError::NotMapped {
            gpa: gpa.page_base(),
        })?;
        if EptFlags(mem.read_u64(leaf)?).is_none() {
            return Err(EptError::NotMapped {
                gpa: gpa.page_base(),
            });
        }
        mem.write_u64(leaf, 0)?;
        Ok(())
    }

    /// Unmaps a contiguous guest range.
    pub fn unmap_range(
        &self,
        mem: &mut PhysMem,
        gpa: GuestPhysAddr,
        len: u64,
    ) -> Result<(), EptError> {
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            self.unmap(mem, GuestPhysAddr::new(gpa.as_u64() + off))?;
        }
        Ok(())
    }

    /// Rewrites the permissions of an existing mapping (e.g. downgrade to
    /// read-only when a region becomes shared immutable).
    pub fn protect(
        &self,
        mem: &mut PhysMem,
        gpa: GuestPhysAddr,
        flags: EptFlags,
    ) -> Result<(), EptError> {
        let leaf = self.leaf_entry_addr(mem, gpa)?.ok_or(EptError::NotMapped {
            gpa: gpa.page_base(),
        })?;
        let entry = mem.read_u64(leaf)?;
        if EptFlags(entry).is_none() {
            return Err(EptError::NotMapped {
                gpa: gpa.page_base(),
            });
        }
        mem.write_u64(leaf, (entry & ADDR_MASK) | (flags.0 & 0x7))?;
        Ok(())
    }

    /// Translates `gpa` for `access`, returning the host-physical address.
    ///
    /// Also returns the number of table levels walked so the caller can
    /// charge page-walk cycles. Fails with the [`EptViolation`] the real
    /// hardware would deliver as a vm exit.
    pub fn translate(
        &self,
        mem: &PhysMem,
        gpa: GuestPhysAddr,
        access: Access,
    ) -> Result<(PhysAddr, u8), EptViolation> {
        // An injected walk abort surfaces as the violation hardware
        // delivers on an uncorrectable table-fetch error: root level,
        // nothing walked. (Injected memory-read faults during the walk
        // itself are caught by the `read_u64` arms below.)
        if mem.faults().fire(crate::faults::FaultSite::EptWalk) {
            return Err(EptViolation {
                gpa,
                access,
                level: 4,
            });
        }
        let mut table = self.root;
        let mut walked = 0u8;
        for level in (2..=4u8).rev() {
            let entry_addr = PhysAddr::new(table.as_u64() + Self::index(gpa, level) * 8);
            let entry = match mem.read_u64(entry_addr) {
                Ok(e) => e,
                Err(_) => return Err(EptViolation { gpa, access, level }),
            };
            walked += 1;
            if EptFlags(entry).is_none() {
                return Err(EptViolation { gpa, access, level });
            }
            table = PhysAddr::new(entry & ADDR_MASK);
        }
        let leaf_addr = PhysAddr::new(table.as_u64() + Self::index(gpa, 1) * 8);
        let entry = match mem.read_u64(leaf_addr) {
            Ok(e) => e,
            Err(_) => {
                return Err(EptViolation {
                    gpa,
                    access,
                    level: 1,
                })
            }
        };
        walked += 1;
        let flags = EptFlags(entry);
        if flags.is_none() || !flags.allows(access) {
            return Err(EptViolation {
                gpa,
                access,
                level: 1,
            });
        }
        let frame = PhysAddr::new(entry & ADDR_MASK);
        Ok((PhysAddr::new(frame.as_u64() + gpa.page_offset()), walked))
    }

    /// Enumerates all present leaf mappings as `(gpa, hpa, flags)` triples.
    ///
    /// Used by the monitor's attestation path to cross-check hardware state
    /// against the capability engine's view.
    pub fn mappings(
        &self,
        mem: &PhysMem,
    ) -> Result<Vec<(GuestPhysAddr, PhysAddr, EptFlags)>, EptError> {
        let mut out = Vec::new();
        self.walk_table(mem, self.root, 4, 0, &mut out)?;
        Ok(out)
    }

    /// Enumerates every table frame of this EPT (root included), so a
    /// backend can return them to the frame allocator when the owning
    /// domain is destroyed.
    pub fn table_frames(&self, mem: &PhysMem) -> Result<Vec<PhysAddr>, EptError> {
        let mut out = vec![self.root];
        let mut stack = vec![(self.root, 4u8)];
        while let Some((table, level)) = stack.pop() {
            if level == 1 {
                continue;
            }
            for i in 0..ENTRIES {
                let entry = mem.read_u64(PhysAddr::new(table.as_u64() + i * 8))?;
                if EptFlags(entry).is_none() {
                    continue;
                }
                let next = PhysAddr::new(entry & ADDR_MASK);
                out.push(next);
                stack.push((next, level - 1));
            }
        }
        Ok(out)
    }

    fn walk_table(
        &self,
        mem: &PhysMem,
        table: PhysAddr,
        level: u8,
        gpa_prefix: u64,
        out: &mut Vec<(GuestPhysAddr, PhysAddr, EptFlags)>,
    ) -> Result<(), EptError> {
        for i in 0..ENTRIES {
            let entry = mem.read_u64(PhysAddr::new(table.as_u64() + i * 8))?;
            let flags = EptFlags(entry);
            if flags.is_none() {
                continue;
            }
            let gpa = gpa_prefix | (i << (12 + 9 * (level as u64 - 1)));
            let next = PhysAddr::new(entry & ADDR_MASK);
            if level == 1 {
                out.push((GuestPhysAddr::new(gpa), next, EptFlags(entry & 0x7)));
            } else {
                self.walk_table(mem, next, level - 1, gpa, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysRange;

    fn setup() -> (PhysMem, FrameAllocator) {
        let mem = PhysMem::new(512 * PAGE_SIZE);
        let alloc = FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0), 256 * PAGE_SIZE));
        (mem, alloc)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x40_0000);
        let hpa = PhysAddr::new(0x10_0000);
        ept.map(&mut mem, &mut alloc, gpa, hpa, EptFlags::RW)
            .unwrap();
        let (t, walked) = ept.translate(&mem, gpa, Access::Read).unwrap();
        assert_eq!(t, hpa);
        assert_eq!(walked, 4, "full 4-level walk");
        // Offsets within the page are preserved.
        let (t2, _) = ept
            .translate(
                &mem,
                GuestPhysAddr::new(gpa.as_u64() + 0x123),
                Access::Write,
            )
            .unwrap();
        assert_eq!(t2, PhysAddr::new(hpa.as_u64() + 0x123));
    }

    #[test]
    fn permissions_enforced() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x1000);
        ept.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x2000),
            EptFlags::RO,
        )
        .unwrap();
        assert!(ept.translate(&mem, gpa, Access::Read).is_ok());
        let v = ept.translate(&mem, gpa, Access::Write).unwrap_err();
        assert_eq!(v.access, Access::Write);
        assert_eq!(v.level, 1, "permission fault at the leaf");
        assert!(ept.translate(&mem, gpa, Access::Exec).is_err());
    }

    #[test]
    fn injected_walk_abort_faults_at_root() {
        use crate::faults::{FaultPlan, FaultSite};
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x40_0000);
        ept.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x10_0000),
            EptFlags::RW,
        )
        .unwrap();
        mem.faults().arm(FaultPlan::once(FaultSite::EptWalk));
        let v = ept.translate(&mem, gpa, Access::Read).unwrap_err();
        assert_eq!(v.level, 4, "aborts before walking");
        // One-shot: the mapping is intact and translates again.
        assert!(ept.translate(&mem, gpa, Access::Read).is_ok());
        // A memory-read fault mid-walk is also a violation, not a panic.
        mem.faults().arm(FaultPlan::once(FaultSite::MemRead));
        assert!(ept.translate(&mem, gpa, Access::Read).is_err());
        assert!(ept.translate(&mem, gpa, Access::Read).is_ok());
    }

    #[test]
    fn unmapped_faults_at_top() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let v = ept
            .translate(&mem, GuestPhysAddr::new(0x5000), Access::Read)
            .unwrap_err();
        assert_eq!(v.level, 4, "empty PML4 entry");
    }

    #[test]
    fn double_map_rejected_unmap_allows_remap() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x1000);
        ept.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x2000),
            EptFlags::RW,
        )
        .unwrap();
        assert!(matches!(
            ept.map(
                &mut mem,
                &mut alloc,
                gpa,
                PhysAddr::new(0x3000),
                EptFlags::RW
            ),
            Err(EptError::AlreadyMapped { .. })
        ));
        ept.unmap(&mut mem, gpa).unwrap();
        assert!(ept.translate(&mem, gpa, Access::Read).is_err());
        ept.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x3000),
            EptFlags::RW,
        )
        .unwrap();
        assert_eq!(
            ept.translate(&mem, gpa, Access::Read).unwrap().0,
            PhysAddr::new(0x3000)
        );
    }

    #[test]
    fn unmap_unmapped_is_error() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        assert!(matches!(
            ept.unmap(&mut mem, GuestPhysAddr::new(0x9000)),
            Err(EptError::NotMapped { .. })
        ));
    }

    #[test]
    fn protect_downgrades() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x1000);
        ept.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x2000),
            EptFlags::RWX,
        )
        .unwrap();
        ept.protect(&mut mem, gpa, EptFlags::RO).unwrap();
        assert!(ept.translate(&mem, gpa, Access::Read).is_ok());
        assert!(ept.translate(&mem, gpa, Access::Write).is_err());
    }

    #[test]
    fn unaligned_rejected() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        assert!(matches!(
            ept.map(
                &mut mem,
                &mut alloc,
                GuestPhysAddr::new(0x1001),
                PhysAddr::new(0x2000),
                EptFlags::RW
            ),
            Err(EptError::Unaligned)
        ));
    }

    #[test]
    fn two_epts_are_independent() {
        // The heart of domain isolation: same GPA, different domains,
        // different frames.
        let (mut mem, mut alloc) = setup();
        let a = Ept::new(&mut mem, &mut alloc).unwrap();
        let b = Ept::new(&mut mem, &mut alloc).unwrap();
        let gpa = GuestPhysAddr::new(0x1000);
        a.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x10000),
            EptFlags::RW,
        )
        .unwrap();
        b.map(
            &mut mem,
            &mut alloc,
            gpa,
            PhysAddr::new(0x20000),
            EptFlags::RO,
        )
        .unwrap();
        assert_eq!(
            a.translate(&mem, gpa, Access::Read).unwrap().0,
            PhysAddr::new(0x10000)
        );
        assert_eq!(
            b.translate(&mem, gpa, Access::Read).unwrap().0,
            PhysAddr::new(0x20000)
        );
        assert!(b.translate(&mem, gpa, Access::Write).is_err());
        assert!(a.translate(&mem, gpa, Access::Write).is_ok());
    }

    #[test]
    fn sparse_addresses_use_distinct_top_entries() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        // Two GPAs differing in PML4 index (bit 39).
        let g1 = GuestPhysAddr::new(0x0000_0000_1000);
        let g2 = GuestPhysAddr::new(0x80_0000_0000 + 0x1000);
        ept.map(
            &mut mem,
            &mut alloc,
            g1,
            PhysAddr::new(0x3000),
            EptFlags::RW,
        )
        .unwrap();
        ept.map(
            &mut mem,
            &mut alloc,
            g2,
            PhysAddr::new(0x4000),
            EptFlags::RW,
        )
        .unwrap();
        assert_eq!(
            ept.translate(&mem, g1, Access::Read).unwrap().0,
            PhysAddr::new(0x3000)
        );
        assert_eq!(
            ept.translate(&mem, g2, Access::Read).unwrap().0,
            PhysAddr::new(0x4000)
        );
    }

    #[test]
    fn mappings_enumeration_matches() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        let pairs = [
            (0x1000u64, 0x10000u64, EptFlags::RW),
            (0x2000, 0x20000, EptFlags::RO),
            (0x40_0000, 0x30000, EptFlags::RX),
        ];
        for (g, h, f) in pairs {
            ept.map(
                &mut mem,
                &mut alloc,
                GuestPhysAddr::new(g),
                PhysAddr::new(h),
                f,
            )
            .unwrap();
        }
        let mut got = ept.mappings(&mem).unwrap();
        got.sort_by_key(|(g, _, _)| g.as_u64());
        assert_eq!(got.len(), 3);
        for ((g, h, f), (eg, eh, ef)) in got.iter().zip(pairs.iter()) {
            assert_eq!(g.as_u64(), *eg);
            assert_eq!(h.as_u64(), *eh);
            assert_eq!(f.0, ef.0);
        }
    }

    #[test]
    fn map_range_covers_every_page() {
        let (mut mem, mut alloc) = setup();
        let ept = Ept::new(&mut mem, &mut alloc).unwrap();
        ept.map_range(
            &mut mem,
            &mut alloc,
            GuestPhysAddr::new(0x10000),
            PhysAddr::new(0x80000),
            4 * PAGE_SIZE,
            EptFlags::RW,
        )
        .unwrap();
        for i in 0..4u64 {
            let (t, _) = ept
                .translate(
                    &mem,
                    GuestPhysAddr::new(0x10000 + i * PAGE_SIZE),
                    Access::Read,
                )
                .unwrap();
            assert_eq!(t.as_u64(), 0x80000 + i * PAGE_SIZE);
        }
        assert!(ept
            .translate(
                &mem,
                GuestPhysAddr::new(0x10000 + 4 * PAGE_SIZE),
                Access::Read
            )
            .is_err());
    }
}
