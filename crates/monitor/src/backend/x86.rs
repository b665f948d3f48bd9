//! The x86 backend: EPT per domain, EPTP list for VMFUNC, I/O-MMU.
//!
//! Domains name physical memory (§3.2), so every domain's EPT is an
//! *identity* mapping restricted to the pages its capabilities cover, with
//! capability rights as EPT permissions. Transitions switch the active
//! EPT; the fast path switches via the EPTP list without a vm exit.
//!
//! A memory effect touches only the pages of its region: their rights are
//! recomputed from the domain's capabilities overlapping the region,
//! found through the engine's interval index, and mapped, unmapped or
//! re-protected against the backend's mirror of the EPT. A one-page grant
//! therefore costs one page's work however much memory the granter holds.
//! The mirror keeps one fixed array per last-level EPT table (2 MiB), so
//! identity-mapping all of RAM at boot allocates one array per table, not
//! one ordered-map entry per page.

use super::{BackendError, PAGE};
use std::collections::{BTreeMap, HashMap};
use tyche_core::metrics::Counter;
use tyche_core::prelude::*;
use tyche_hw::addr::{GuestPhysAddr, PhysAddr, PhysRange};
use tyche_hw::machine::Machine;
use tyche_hw::x86::ept::{Ept, EptFlags};

/// Converts capability rights to EPT permission bits.
fn ept_flags(rights: Rights) -> EptFlags {
    let mut f = 0u64;
    if rights.can_read() {
        f |= EptFlags::READ;
    }
    if rights.can_write() {
        f |= EptFlags::WRITE;
    }
    if rights.can_exec() {
        f |= EptFlags::EXEC;
    }
    EptFlags(f)
}

/// Pages per last-level EPT table. An apply recomputes one table's pages
/// at a time into a fixed array and compares them with that table's
/// mirror array.
const WINDOW: usize = 512;
/// Bytes one last-level table maps (2 MiB).
const SPAN: u64 = WINDOW as u64 * PAGE;

/// One last-level table's mirror: how many of its pages are mapped, and
/// each page's programmed rights.
type Table = (usize, Box<[Option<Rights>; WINDOW]>);

/// Per-domain translation state.
struct DomainSpace {
    ept: Ept,
    /// Mirror of what is currently programmed: table index (page base /
    /// [`SPAN`]) → [`Table`]. A table is present while any of its pages
    /// is mapped.
    programmed: BTreeMap<u64, Table>,
    /// Slot in the EPTP list (VMFUNC index).
    slot: usize,
    /// MKTME key id that pages entering the domain are tagged with:
    /// plaintext until [`X86Backend::enable_encryption`].
    keyid: u64,
}

impl DomainSpace {
    /// Every programmed page with its rights, in ascending order.
    fn pages(&self) -> impl Iterator<Item = (u64, Rights)> + '_ {
        self.programmed.iter().flat_map(|(&table, (_, slots))| {
            (table * SPAN..)
                .step_by(PAGE as usize)
                .zip(slots.iter())
                .filter_map(|(page, rights)| Some((page, (*rights)?)))
        })
    }
}

/// The x86 platform backend.
pub struct X86Backend {
    spaces: HashMap<DomainId, DomainSpace>,
    /// The shared EPTP-list page (512 slots of 8 bytes).
    eptp_list: PhysAddr,
    next_slot: usize,
    /// Slots returned by dead domains, recycled before `next_slot` grows
    /// (without this, the 513th domain ever created would fail even if
    /// only a handful are alive).
    free_slots: Vec<usize>,
}

impl X86Backend {
    /// Creates the backend, allocating the EPTP list page.
    pub fn new(machine: &mut Machine) -> Result<Self, BackendError> {
        let eptp_list = machine
            .monitor_frames
            .alloc_zeroed(&mut machine.mem)
            .map_err(|e| BackendError::Hardware(e.to_string()))?;
        Ok(X86Backend {
            spaces: HashMap::new(),
            eptp_list,
            next_slot: 0,
            free_slots: Vec::new(),
        })
    }

    /// The EPTP-list page address (programmed into each VMCS).
    pub fn eptp_list(&self) -> PhysAddr {
        self.eptp_list
    }

    /// The EPT root of `domain` (its VMFUNC tag / EPTP value).
    pub fn ept_root(&self, domain: DomainId) -> Option<PhysAddr> {
        self.spaces.get(&domain).map(|s| s.ept.root())
    }

    /// The VMFUNC slot index of `domain`.
    pub fn vmfunc_slot(&self, domain: DomainId) -> Option<usize> {
        self.spaces.get(&domain).map(|s| s.slot)
    }

    /// Applies one engine effect. A memory map/unmap effect reprograms
    /// the pages of its own region from the engine's current state (the
    /// engine is the authority), see `apply_mem`.
    pub fn apply(
        &mut self,
        machine: &mut Machine,
        engine: &CapEngine,
        effect: &Effect,
    ) -> Result<(), BackendError> {
        match effect {
            Effect::DomainCreated { domain } => self.create_space(machine, *domain),
            Effect::DomainKilled { domain } => self.destroy_space(machine, *domain),
            Effect::MapMem { domain, region, .. } | Effect::UnmapMem { domain, region } => {
                self.apply_mem(machine, engine, *domain, std::iter::once(*region))
            }
            Effect::ZeroMem { region } => {
                machine
                    .mem
                    .zero_range(PhysRange::new(
                        PhysAddr::new(region.start),
                        PhysAddr::new(region.end),
                    ))
                    .map_err(|e| BackendError::Hardware(e.to_string()))?;
                // Scrubbed pages drop their encryption tag: the content is
                // literal zeros now, under no key.
                let mut page = region.start & !(tyche_hw::PAGE_SIZE - 1);
                while page < region.end {
                    machine
                        .mktme
                        .force_tag(PhysAddr::new(page), tyche_hw::mktme::KEYID_PLAIN);
                    page += tyche_hw::PAGE_SIZE;
                }
                machine
                    .cycles
                    .charge(machine.cost.zero_page * region.len().div_ceil(tyche_hw::PAGE_SIZE));
                Ok(())
            }
            Effect::FlushCache { domain } => {
                if let Some(space) = self.spaces.get(domain) {
                    let flushed = machine.cache.flush_domain(space.ept.root().as_u64());
                    machine.cycles.charge(
                        machine.cost.cache_flush_base
                            + machine.cost.cacheline_flush * flushed as u64,
                    );
                }
                Ok(())
            }
            Effect::FlushTlb { domain } => {
                if let Some(space) = self.spaces.get(domain) {
                    machine.tlb.flush_domain(space.ept.root().as_u64());
                    machine.cycles.charge(machine.cost.tlb_flush);
                }
                Ok(())
            }
            Effect::AttachDevice { device, domain } => {
                let space = self
                    .spaces
                    .get(domain)
                    .ok_or_else(|| BackendError::Hardware(format!("no space for {domain}")))?;
                machine
                    .iommu
                    .attach(tyche_hw::iommu::DeviceId(*device), space.ept.root());
                Ok(())
            }
            Effect::DetachDevice { device } => {
                machine.iommu.detach(tyche_hw::iommu::DeviceId(*device));
                Ok(())
            }
            Effect::RouteIrq { vector, domain } => {
                let space = self
                    .spaces
                    .get(domain)
                    .ok_or_else(|| BackendError::Hardware(format!("no space for {domain}")))?;
                machine.irq.route(*vector, space.ept.root().as_u64());
                Ok(())
            }
            Effect::UnrouteIrq { vector } => {
                machine.irq.unroute(*vector);
                Ok(())
            }
            // Core scheduling rights are checked at transition time from
            // engine state; no x86 hardware structure to program.
            Effect::AddCore { .. } | Effect::RemoveCore { .. } => Ok(()),
        }
    }

    fn create_space(
        &mut self,
        machine: &mut Machine,
        domain: DomainId,
    ) -> Result<(), BackendError> {
        let ept = Ept::new(&mut machine.mem, &mut machine.monitor_frames)
            .map_err(|e| BackendError::Hardware(e.to_string()))?;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.next_slot;
                if s >= 512 {
                    return Err(BackendError::Hardware("EPTP list full".into()));
                }
                self.next_slot += 1;
                s
            }
        };
        machine
            .mem
            .write_u64(
                PhysAddr::new(self.eptp_list.as_u64() + (slot as u64) * 8),
                ept.root().as_u64() | 0x6, // low bits: WB memtype, as on real EPTPs
            )
            .map_err(|e| BackendError::Hardware(e.to_string()))?;
        self.spaces.insert(
            domain,
            DomainSpace {
                ept,
                programmed: BTreeMap::new(),
                slot,
                keyid: tyche_hw::mktme::KEYID_PLAIN,
            },
        );
        Ok(())
    }

    fn destroy_space(
        &mut self,
        machine: &mut Machine,
        domain: DomainId,
    ) -> Result<(), BackendError> {
        let Some(space) = self.spaces.remove(&domain) else {
            return Ok(());
        };
        // Clear the VMFUNC slot so the dead domain is unreachable.
        machine
            .mem
            .write_u64(
                PhysAddr::new(self.eptp_list.as_u64() + (space.slot as u64) * 8),
                0,
            )
            .map_err(|e| BackendError::Hardware(e.to_string()))?;
        machine.tlb.flush_domain(space.ept.root().as_u64());
        machine.cache.flush_domain(space.ept.root().as_u64());
        machine.irq.purge_key(space.ept.root().as_u64());
        self.free_slots.push(space.slot);
        // Return the translation-table frames.
        let frames = space
            .ept
            .table_frames(&machine.mem)
            .map_err(|e| BackendError::Hardware(e.to_string()))?;
        for f in frames {
            machine.monitor_frames.free(f);
        }
        Ok(())
    }

    /// Enables memory encryption for `domain`: allocates an MKTME key and
    /// retags every page it currently maps (contents preserved). New pages
    /// mapped later are tagged automatically by `apply_mem`.
    pub fn enable_encryption(
        &mut self,
        machine: &mut Machine,
        domain: DomainId,
    ) -> Result<(), BackendError> {
        let space = self
            .spaces
            .get_mut(&domain)
            .ok_or_else(|| BackendError::Hardware(format!("no space for {domain}")))?;
        let key = machine.mktme.new_key();
        space.keyid = key;
        let mut pages = 0;
        for (page, _) in space.pages() {
            machine
                .mktme
                .retag(&mut machine.mem, PhysAddr::new(page), key)
                .map_err(|e| BackendError::Hardware(e.to_string()))?;
            pages += 1;
        }
        machine.cycles.charge(machine.cost.zero_page * pages);
        Ok(())
    }

    /// Programs `domain`'s EPT for the pages of `regions` (sorted,
    /// disjoint) and nothing else: each page's rights are recomputed from
    /// the domain's active capabilities overlapping it, then mapped,
    /// unmapped or re-protected against `programmed`. The work is the
    /// regions' page count, however much memory the domain holds
    /// elsewhere. As in a whole-domain diff, every unmap and re-protect
    /// runs before any new mapping, and one TLB shootdown ends the apply
    /// if an existing translation changed (the TLB model caches only
    /// positive, permission-carrying entries, so newly mapped pages miss
    /// and walk — no stale entry can exist for them).
    pub(crate) fn apply_mem(
        &mut self,
        machine: &mut Machine,
        engine: &CapEngine,
        domain: DomainId,
        regions: impl Iterator<Item = MemRegion> + Clone,
    ) -> Result<(), BackendError> {
        let Some(space) = self.spaces.get_mut(&domain) else {
            // The root domain's space is created at boot before endowments;
            // any other missing space is a bug surfaced by tests.
            return Err(BackendError::Hardware(format!(
                "sync for unknown domain {domain}"
            )));
        };
        // Pages entering an encryption-enabled domain are retagged to its
        // key (contents preserved, ciphertext rotated); pages entering a
        // plaintext domain are retagged to plaintext.
        let keyid = space.keyid;
        let hw = |e: tyche_hw::x86::ept::EptError| BackendError::Hardware(e.to_string());
        let mut translation_changed = false;
        let mut visited = 0u64;
        for map_pass in [false, true] {
            for region in regions.clone() {
                let start = region.start / PAGE * PAGE;
                let end = region.end.div_ceil(PAGE).saturating_mul(PAGE);
                // One window per last-level table, clamped to the region.
                for table in start / SPAN..end.div_ceil(SPAN) {
                    let base = start.max(table * SPAN);
                    let top = end.min(table.saturating_add(1).saturating_mul(SPAN));
                    let pages = (top - base) / PAGE;
                    if map_pass {
                        visited += pages;
                    } else if !space.programmed.contains_key(&table) {
                        continue; // nothing mapped here to unmap or re-protect
                    }
                    let want = desired_window(engine, domain, base, top);
                    let want = want.iter().take(pages as usize);
                    let slots = if map_pass && want.clone().any(Option::is_some) {
                        Some(
                            space
                                .programmed
                                .entry(table)
                                .or_insert_with(|| (0, Box::new([None; WINDOW]))),
                        )
                    } else {
                        space.programmed.get_mut(&table)
                    };
                    let Some((mapped, slots)) = slots else {
                        continue;
                    };
                    let first = ((base % SPAN) / PAGE) as usize;
                    let pairs = want.zip(slots.iter_mut().skip(first));
                    for (page, (&want, slot)) in (base..).step_by(PAGE as usize).zip(pairs) {
                        let gpa = GuestPhysAddr::new(page);
                        match (map_pass, *slot, want) {
                            (false, Some(_), None) => {
                                space.ept.unmap(&mut machine.mem, gpa).map_err(hw)?;
                                *slot = None;
                                *mapped -= 1;
                                translation_changed = true;
                            }
                            (false, Some(old), Some(new)) if old != new => {
                                space
                                    .ept
                                    .protect(&mut machine.mem, gpa, ept_flags(new))
                                    .map_err(hw)?;
                                *slot = Some(new);
                                translation_changed = true;
                            }
                            (true, None, Some(new)) => {
                                space
                                    .ept
                                    .map(
                                        &mut machine.mem,
                                        &mut machine.monitor_frames,
                                        gpa,
                                        PhysAddr::new(page),
                                        ept_flags(new),
                                    )
                                    .map_err(hw)?;
                                machine
                                    .mktme
                                    .retag(&mut machine.mem, PhysAddr::new(page), keyid)
                                    .map_err(|e| BackendError::Hardware(e.to_string()))?;
                                *slot = Some(new);
                                *mapped += 1;
                            }
                            _ => {}
                        }
                    }
                    if *mapped == 0 {
                        space.programmed.remove(&table);
                    }
                }
            }
        }
        machine.metrics.add(Counter::BackendWork, visited);
        // Any downgrade requires a TLB shootdown for this domain, exactly
        // like INVEPT after reducing permissions — charged once per
        // apply, not per page. Map-only applies skip it.
        if translation_changed {
            machine.tlb.flush_domain(space.ept.root().as_u64());
            machine.cycles.charge(machine.cost.tlb_flush);
        }
        Ok(())
    }

    /// Rebuilds `domain`'s whole EPT from the engine: applies every page
    /// of installed RAM. The heal path after a failed apply, when what
    /// the hardware holds is unknown.
    pub(crate) fn resync_domain(
        &mut self,
        machine: &mut Machine,
        engine: &CapEngine,
        domain: DomainId,
    ) -> Result<(), BackendError> {
        let ram = MemRegion::new(0, machine.mem.size());
        self.apply_mem(machine, engine, domain, std::iter::once(ram))
    }

    /// Debug oracle: whether `domain`'s programmed pages are exactly the
    /// engine's page view.
    #[cfg(debug_assertions)]
    pub(crate) fn matches_view(&self, engine: &CapEngine, domain: DomainId) -> bool {
        self.spaces.get(&domain).is_some_and(|s| {
            super::matches_view(engine, domain, s.pages(), |page| {
                let (_, slots) = s.programmed.get(&(page / SPAN))?;
                slots
                    .get(((page % SPAN) / PAGE) as usize)
                    .copied()
                    .flatten()
            })
        })
    }
}

/// The rights `domain`'s active capabilities give each page of
/// `[base, top)` (at most [`WINDOW`] pages), `None` where none covers the
/// whole page. Capability regions are page-truncated inward, as in
/// [`super::page_view`].
fn desired_window(
    engine: &CapEngine,
    domain: DomainId,
    base: u64,
    top: u64,
) -> [Option<Rights>; WINDOW] {
    let mut want = [None; WINDOW];
    engine.for_each_mem_cap_overlapping(domain, MemRegion::new(base, top), |r, rights| {
        let first = (r.start.div_ceil(PAGE) * PAGE).max(base);
        let last = (r.end / PAGE * PAGE).min(top);
        let skip = (first.saturating_sub(base) / PAGE) as usize;
        let take = (last.saturating_sub(first) / PAGE) as usize;
        for slot in want.iter_mut().skip(skip).take(take) {
            *slot = Some(Rights(slot.unwrap_or(Rights::NONE).0 | rights.0));
        }
    });
    want
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyche_hw::machine::MachineConfig;
    use tyche_hw::x86::ept::Access;

    fn setup() -> (Machine, CapEngine, X86Backend, DomainId) {
        let mut machine = Machine::new(MachineConfig::default());
        let mut engine = CapEngine::new();
        let mut backend = X86Backend::new(&mut machine).unwrap();
        let os = engine.create_root_domain();
        engine
            .endow(os, Resource::mem(0, 0x10_0000), Rights::RWX)
            .unwrap();
        for e in engine.drain_effects() {
            backend.apply(&mut machine, &engine, &e).unwrap();
        }
        (machine, engine, backend, os)
    }

    fn apply_all(m: &mut Machine, e: &mut CapEngine, b: &mut X86Backend) {
        for fx in e.drain_effects() {
            b.apply(m, e, &fx).unwrap();
        }
    }

    fn can(m: &Machine, b: &X86Backend, d: DomainId, addr: u64, access: Access) -> bool {
        let root = b.ept_root(d).unwrap();
        Ept::from_root(root)
            .translate(&m.mem, GuestPhysAddr::new(addr), access)
            .is_ok()
    }

    #[test]
    fn boot_identity_mapping() {
        let (m, _e, b, os) = setup();
        assert!(can(&m, &b, os, 0x1000, Access::Read));
        assert!(can(&m, &b, os, 0x1000, Access::Write));
        assert!(can(&m, &b, os, 0xf_f000, Access::Exec));
        assert!(
            !can(&m, &b, os, 0x10_0000, Access::Read),
            "beyond endowment"
        );
        // Identity: GPA == HPA.
        let root = b.ept_root(os).unwrap();
        let (hpa, _) = Ept::from_root(root)
            .translate(&m.mem, GuestPhysAddr::new(0x2345), Access::Read)
            .unwrap();
        assert_eq!(hpa.as_u64(), 0x2345);
    }

    #[test]
    fn grant_moves_hardware_access() {
        let (mut m, mut e, mut b, os) = setup();
        let ram = e.caps_of(os)[0].id;
        let (child, _t) = e.create_domain(os).unwrap();
        let (page, _rest) = e.split(os, ram, 0x1000).unwrap();
        e.grant(os, page, child, None, Rights::RW, RevocationPolicy::ZERO)
            .unwrap();
        apply_all(&mut m, &mut e, &mut b);
        assert!(!can(&m, &b, os, 0x0, Access::Read), "granter lost the page");
        assert!(can(&m, &b, child, 0x0, Access::Read));
        assert!(can(&m, &b, child, 0x0, Access::Write));
        assert!(
            !can(&m, &b, child, 0x0, Access::Exec),
            "rights narrowed to RW"
        );
        assert!(can(&m, &b, os, 0x1000, Access::Read), "rest still mapped");
    }

    #[test]
    fn revoke_zeroes_and_restores() {
        let (mut m, mut e, mut b, os) = setup();
        let ram = e.caps_of(os)[0].id;
        let (child, _t) = e.create_domain(os).unwrap();
        let (page, _rest) = e.split(os, ram, 0x1000).unwrap();
        let g = e
            .grant(os, page, child, None, Rights::RW, RevocationPolicy::ZERO)
            .unwrap();
        apply_all(&mut m, &mut e, &mut b);
        m.mem.write(PhysAddr::new(0x10), b"secret").unwrap();
        e.revoke(os, g).unwrap();
        apply_all(&mut m, &mut e, &mut b);
        let mut buf = [0u8; 6];
        m.mem.read(PhysAddr::new(0x10), &mut buf).unwrap();
        assert_eq!(&buf, &[0u8; 6], "revocation clean-up zeroed the page");
        assert!(can(&m, &b, os, 0x0, Access::Read), "granter restored");
        assert!(!can(&m, &b, child, 0x0, Access::Read));
    }

    #[test]
    fn shared_window_visible_to_both() {
        let (mut m, mut e, mut b, os) = setup();
        let ram = e.caps_of(os)[0].id;
        let (child, _t) = e.create_domain(os).unwrap();
        e.share(
            os,
            ram,
            child,
            Some(MemRegion::new(0x2000, 0x4000)),
            Rights::RO,
            RevocationPolicy::NONE,
        )
        .unwrap();
        apply_all(&mut m, &mut e, &mut b);
        assert!(
            can(&m, &b, os, 0x2000, Access::Write),
            "owner keeps full rights"
        );
        assert!(can(&m, &b, child, 0x2000, Access::Read));
        assert!(
            !can(&m, &b, child, 0x2000, Access::Write),
            "share is read-only"
        );
        assert!(!can(&m, &b, child, 0x4000, Access::Read), "window bounded");
    }

    #[test]
    fn mirror_table_freed_with_its_last_page() {
        let (mut m, mut e, mut b, os) = setup();
        let ram = e.caps_of(os)[0].id;
        let (child, _t) = e.create_domain(os).unwrap();
        let share = |e: &mut CapEngine, at: u64| {
            let window = Some(MemRegion::new(at, at + 0x1000));
            e.share(os, ram, child, window, Rights::RO, RevocationPolicy::NONE)
                .unwrap()
        };
        let (first, second) = (share(&mut e, 0x2000), share(&mut e, 0x5000));
        apply_all(&mut m, &mut e, &mut b);
        let tables = |b: &X86Backend| b.spaces.get(&child).unwrap().programmed.len();
        assert_eq!(tables(&b), 1, "both pages sit in one last-level table");
        e.revoke(os, first).unwrap();
        apply_all(&mut m, &mut e, &mut b);
        assert_eq!(tables(&b), 1, "the table still maps 0x5000");
        assert!(can(&m, &b, child, 0x5000, Access::Read));
        e.revoke(os, second).unwrap();
        apply_all(&mut m, &mut e, &mut b);
        assert_eq!(tables(&b), 0, "the emptied table is freed");
        assert!(!can(&m, &b, child, 0x5000, Access::Read));
    }

    #[test]
    fn kill_clears_slot_and_frees_frames() {
        let (mut m, mut e, mut b, os) = setup();
        let before = m.monitor_frames.outstanding();
        let (child, _t) = e.create_domain(os).unwrap();
        let ram = e
            .caps_of(os)
            .iter()
            .find(|c| c.active && c.is_memory())
            .unwrap()
            .id;
        let (page, _) = e.split(os, ram, 0x1000).unwrap();
        e.grant(os, page, child, None, Rights::RW, RevocationPolicy::NONE)
            .unwrap();
        apply_all(&mut m, &mut e, &mut b);
        let slot = b.vmfunc_slot(child).unwrap();
        e.kill(os, child).unwrap();
        apply_all(&mut m, &mut e, &mut b);
        assert!(b.ept_root(child).is_none());
        let entry = m
            .mem
            .read_u64(PhysAddr::new(b.eptp_list().as_u64() + (slot as u64) * 8))
            .unwrap();
        assert_eq!(entry, 0, "VMFUNC slot cleared");
        assert_eq!(
            m.monitor_frames.outstanding(),
            before,
            "table frames reclaimed"
        );
    }

    #[test]
    fn device_attach_follows_capability() {
        let (mut m, mut e, mut b, os) = setup();
        let dev = e.endow(os, Resource::Device(7), Rights::USE).unwrap();
        let (child, _t) = e.create_domain(os).unwrap();
        let ram = e
            .caps_of(os)
            .iter()
            .find(|c| c.active && c.is_memory())
            .unwrap()
            .id;
        e.share(
            os,
            ram,
            child,
            Some(MemRegion::new(0x3000, 0x5000)),
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .unwrap();
        let g = e
            .grant(os, dev, child, None, Rights::USE, RevocationPolicy::NONE)
            .unwrap();
        apply_all(&mut m, &mut e, &mut b);
        // The device now translates through the child's EPT.
        let did = tyche_hw::iommu::DeviceId(7);
        let mut mem = m.mem.clone();
        m.iommu
            .dma_write(&mut mem, did, GuestPhysAddr::new(0x3000), &[1])
            .unwrap();
        // Revoking the device capability detaches it.
        e.revoke(os, g).unwrap();
        apply_all(&mut m, &mut e, &mut b);
        // After revocation the device cap returned to the OS (AttachDevice
        // for os wins); child window no longer reachable via os view? The
        // os identity view covers 0x3000 so DMA still works — verify the
        // context points at the os EPT now.
        assert_eq!(m.iommu.context_of(did), b.ept_root(os));
    }
}
