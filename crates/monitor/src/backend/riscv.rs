//! The RISC-V backend: machine mode + PMP layouts.
//!
//! §4 of the paper: "On RISC-V, \[Tyche\] runs in machine mode and
//! demonstrates the generality of our approach by relying on a more
//! limited mechanism than virtualization: PMP. PMP only supports a fixed
//! number of segments, which requires a careful memory layout of trust
//! domains and validation by the monitor."
//!
//! This backend performs that validation: on every memory effect a
//! domain's layout is rebuilt from its active memory capabilities — the
//! page-truncated regions are swept into maximal contiguous same-rights
//! segments in `O(caps log caps)`, with no per-page map — and each
//! segment is encoded as one NAPOT entry when naturally aligned or an
//! OFF+TOR pair otherwise. If the encoding needs more entries than the
//! hart provides (16, minus one locked guard protecting the monitor
//! itself), the layout is rejected — the exact failure mode experiment
//! C7 measures.

use super::{BackendError, PAGE};
use std::collections::HashMap;
use tyche_core::metrics::Counter;
use tyche_core::prelude::*;
use tyche_hw::machine::Machine;
use tyche_hw::riscv::pmp::{napot_addr, AddressMode, PmpEntry, PMP_ENTRIES};
use tyche_hw::riscv::{Hart, PrivMode};

/// A coalesced, validated memory segment of a domain layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment start (page-aligned).
    pub start: u64,
    /// Segment end (exclusive, page-aligned).
    pub end: u64,
    /// Access rights.
    pub rights: Rights,
}

impl Segment {
    /// Number of PMP entries this segment consumes: 1 for NAPOT-encodable
    /// segments, 2 for an OFF+TOR pair.
    pub fn entries_needed(&self) -> usize {
        let len = self.end - self.start;
        if len.is_power_of_two() && len >= 8 && self.start.is_multiple_of(len) {
            1
        } else {
            2
        }
    }
}

/// Coalesces a page view into maximal contiguous same-rights segments.
/// The reference the audit checks layouts against.
pub fn coalesce(view: &super::PageView) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    for (&page, &rights) in view {
        match out.last_mut() {
            Some(seg) if seg.end == page && seg.rights == rights => seg.end = page + PAGE,
            _ => out.push(Segment {
                start: page,
                end: page + PAGE,
                rights,
            }),
        }
    }
    out
}

/// Per-domain PMP state, created on `DomainCreated` and dropped on
/// `DomainKilled`.
struct DomainPmp {
    /// Cache/TLB tag (domains have no EPT root here, so the backend
    /// assigns tags itself).
    tag: u64,
    /// Validated layout.
    layout: Vec<Segment>,
}

/// The RISC-V platform backend.
pub struct RiscvBackend {
    /// One hart per machine core.
    pub harts: Vec<Hart>,
    /// Per-domain tag and layout.
    domains: HashMap<DomainId, DomainPmp>,
    /// PMP entries reserved for the locked monitor guard.
    reserved: usize,
    next_tag: u64,
    /// Sweep scratch for [`segments_of`](Self::segments_of): one
    /// `(address, opens, rights)` boundary per capability edge, kept so
    /// a resync allocates no event list once it has grown.
    sweep: Vec<(u64, bool, Rights)>,
}

impl RiscvBackend {
    /// Creates the backend: one hart per core, with entry 0 on every hart
    /// locked as a no-access guard over the monitor's reserved region
    /// (so not even M-mode stray writes can touch monitor frames without
    /// going through the allocator).
    pub fn new(machine: &Machine) -> Self {
        let guard_top = machine.mem.size();
        let guard_base = machine.domain_ram.end.as_u64();
        let mut harts = Vec::new();
        for id in 0..machine.cores {
            let mut hart = Hart::new(id);
            // Guard entry: TOR over the monitor region needs a base; use
            // entry 0 = OFF with addr=base, entry 1 = locked TOR no-access.
            hart.pmp.set(
                0,
                PmpEntry {
                    a: AddressMode::Off,
                    addr: guard_base >> 2,
                    l: true,
                    ..Default::default()
                },
            );
            hart.pmp.set(
                1,
                PmpEntry {
                    r: false,
                    w: false,
                    x: false,
                    a: AddressMode::Tor,
                    l: true,
                    addr: guard_top >> 2,
                },
            );
            harts.push(hart);
        }
        RiscvBackend {
            harts,
            domains: HashMap::new(),
            reserved: 2,
            next_tag: 1,
            sweep: Vec::new(),
        }
    }

    /// PMP entries available for domain layouts.
    pub fn available_entries(&self) -> usize {
        PMP_ENTRIES - self.reserved
    }

    /// The validated layout of `domain`, if any.
    pub fn layout(&self, domain: DomainId) -> Option<&[Segment]> {
        self.domains.get(&domain).map(|d| d.layout.as_slice())
    }

    /// The cache/TLB tag of `domain`.
    pub fn tag(&self, domain: DomainId) -> Option<u64> {
        self.domains.get(&domain).map(|d| d.tag)
    }

    /// Applies one engine effect.
    pub fn apply(
        &mut self,
        machine: &mut Machine,
        engine: &CapEngine,
        effect: &Effect,
    ) -> Result<(), BackendError> {
        match effect {
            Effect::DomainCreated { domain } => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.domains.insert(
                    *domain,
                    DomainPmp {
                        tag,
                        layout: Vec::new(),
                    },
                );
                Ok(())
            }
            Effect::DomainKilled { domain } => {
                if let Some(DomainPmp { tag, .. }) = self.domains.remove(domain) {
                    machine.tlb.flush_domain(tag);
                    machine.cache.flush_domain(tag);
                    machine.irq.purge_key(tag);
                }
                Ok(())
            }
            Effect::MapMem { domain, .. } | Effect::UnmapMem { domain, .. } => {
                self.resync_domain(machine, engine, *domain)
            }
            Effect::ZeroMem { region } => {
                machine
                    .mem
                    .zero_range(tyche_hw::addr::PhysRange::new(
                        tyche_hw::PhysAddr::new(region.start),
                        tyche_hw::PhysAddr::new(region.end),
                    ))
                    .map_err(|e| BackendError::Hardware(e.to_string()))?;
                machine
                    .cycles
                    .charge(machine.cost.zero_page * region.len().div_ceil(tyche_hw::PAGE_SIZE));
                Ok(())
            }
            Effect::FlushCache { domain } => {
                if let Some(tag) = self.tag(*domain) {
                    let flushed = machine.cache.flush_domain(tag);
                    machine.cycles.charge(
                        machine.cost.cache_flush_base
                            + machine.cost.cacheline_flush * flushed as u64,
                    );
                }
                Ok(())
            }
            Effect::FlushTlb { domain } => {
                if let Some(tag) = self.tag(*domain) {
                    machine.tlb.flush_domain(tag);
                    machine.cycles.charge(machine.cost.tlb_flush);
                }
                Ok(())
            }
            // PMP has no I/O-MMU pairing in our model; device effects are
            // refused so callers learn the platform limitation loudly.
            Effect::AttachDevice { .. } | Effect::DetachDevice { .. } => Err(
                BackendError::Hardware("device isolation unsupported on the PMP backend".into()),
            ),
            Effect::RouteIrq { vector, domain } => {
                let tag = self
                    .tag(*domain)
                    .ok_or_else(|| BackendError::Hardware(format!("no tag for {domain}")))?;
                machine.irq.route(*vector, tag);
                Ok(())
            }
            Effect::UnrouteIrq { vector } => {
                machine.irq.unroute(*vector);
                Ok(())
            }
            Effect::AddCore { .. } | Effect::RemoveCore { .. } => Ok(()),
        }
    }

    /// Re-validates `domain`'s layout from engine state. A PMP layout is
    /// one list per domain, so every memory effect (and the heal path)
    /// rebuilds it whole, in `O(caps log caps)`.
    ///
    /// Fails with [`BackendError::LayoutUnrepresentable`] when the segments
    /// exceed the available PMP entries. The monitor compensates by
    /// rolling back the engine operation that caused it. A domain whose
    /// `DomainCreated` never reached the backend has no record to
    /// program and fails with [`BackendError::Hardware`], as on x86.
    pub(crate) fn resync_domain(
        &mut self,
        machine: &mut Machine,
        engine: &CapEngine,
        domain: DomainId,
    ) -> Result<(), BackendError> {
        let segments = self.segments_of(machine, engine, domain);
        let available = self.available_entries();
        let Some(pmp) = self.domains.get_mut(&domain) else {
            return Err(BackendError::Hardware(format!(
                "sync for unknown domain {domain}"
            )));
        };
        // A resync that reproduces the already-validated layout is a
        // no-op: skip the PMP writes and the flush entirely.
        if pmp.layout == segments {
            return Ok(());
        }
        let needed: usize = segments.iter().map(|s| s.entries_needed()).sum();
        machine
            .cycles
            .charge(machine.cost.pmp_write * segments.len() as u64);
        if needed > available {
            return Err(BackendError::LayoutUnrepresentable {
                domain,
                needed,
                available,
            });
        }
        pmp.layout = segments;
        machine.tlb.flush_domain(pmp.tag);
        // Reprogram any hart currently running this domain.
        for hart in &mut self.harts {
            if hart.domain_tag == pmp.tag && hart.mode != PrivMode::Machine {
                Self::program_hart(hart, &pmp.layout, self.reserved);
            }
        }
        Ok(())
    }

    /// `domain`'s layout: the maximal contiguous same-rights runs of its
    /// active memory capabilities, page-truncated inward as in
    /// [`super::page_view`], where a run's rights are the union of the
    /// capabilities covering it. A boundary sweep over the capability
    /// edges, counting one work unit per capability visited.
    fn segments_of(
        &mut self,
        machine: &Machine,
        engine: &CapEngine,
        domain: DomainId,
    ) -> Vec<Segment> {
        self.sweep.clear();
        let mut caps = 0u64;
        for cap in engine.caps_of(domain) {
            let Some(r) = cap.resource.as_mem().filter(|_| cap.active) else {
                continue;
            };
            caps += 1;
            let (start, end) = (r.start.div_ceil(PAGE) * PAGE, r.end / PAGE * PAGE);
            if start < end {
                self.sweep.push((start, true, cap.rights));
                self.sweep.push((end, false, cap.rights));
            }
        }
        machine.metrics.add(Counter::BackendWork, caps);
        self.sweep.sort_unstable_by_key(|&(at, ..)| at);
        // How many open capabilities cover the sweep point, in all and
        // per rights bit.
        let mut open = 0u32;
        let mut bits = [0u32; 8];
        let mut out: Vec<Segment> = Vec::new();
        // Each boundary opens or closes one capability; the run from it
        // to the next boundary has the rights of everything open.
        for edge in self.sweep.windows(2) {
            let &[(at, opens, rights), (next, ..)] = edge else {
                continue;
            };
            open = if opens {
                open + 1
            } else {
                open.saturating_sub(1)
            };
            for (bit, n) in bits.iter_mut().enumerate() {
                if rights.0 & (1 << bit) != 0 {
                    *n = if opens { *n + 1 } else { n.saturating_sub(1) };
                }
            }
            if next == at || open == 0 {
                continue;
            }
            let rights = Rights(
                bits.iter()
                    .enumerate()
                    .filter(|(_, n)| **n > 0)
                    .fold(0, |acc, (bit, _)| acc | 1 << bit),
            );
            match out.last_mut() {
                Some(seg) if seg.end == at && seg.rights == rights => seg.end = next,
                _ => out.push(Segment {
                    start: at,
                    end: next,
                    rights,
                }),
            }
        }
        out
    }

    /// Debug oracle: whether `domain`'s validated layout is exactly the
    /// coalesced engine page view: it covers each page with the page's
    /// rights, and no two touching segments share rights.
    #[cfg(debug_assertions)]
    pub(crate) fn matches_view(&self, engine: &CapEngine, domain: DomainId) -> bool {
        self.layout(domain).is_some_and(|layout| {
            let maximal = layout
                .iter()
                .zip(layout.iter().skip(1))
                .all(|(a, b)| a.end < b.start || (a.end == b.start && a.rights != b.rights));
            let pages = layout.iter().flat_map(|seg| {
                (seg.start..seg.end)
                    .step_by(PAGE as usize)
                    .map(move |page| (page, seg.rights))
            });
            let lookup = |page: u64| {
                layout
                    .iter()
                    .find(|seg| seg.start <= page && page < seg.end)
                    .map(|seg| seg.rights)
            };
            maximal && super::matches_view(engine, domain, pages, lookup)
        })
    }

    /// Programs a hart's PMP with a domain layout (entries after the
    /// reserved guard).
    fn program_hart(hart: &mut Hart, segments: &[Segment], reserved: usize) {
        hart.pmp.clear_unlocked();
        let mut idx = reserved;
        for seg in segments {
            let len = seg.end - seg.start;
            if seg.entries_needed() == 1 {
                hart.pmp.set(
                    idx,
                    PmpEntry {
                        r: seg.rights.can_read(),
                        w: seg.rights.can_write(),
                        x: seg.rights.can_exec(),
                        a: AddressMode::Napot,
                        l: false,
                        addr: napot_addr(seg.start, len),
                    },
                );
                idx += 1;
            } else {
                hart.pmp.set(
                    idx,
                    PmpEntry {
                        a: AddressMode::Off,
                        addr: seg.start >> 2,
                        ..Default::default()
                    },
                );
                hart.pmp.set(
                    idx + 1,
                    PmpEntry {
                        r: seg.rights.can_read(),
                        w: seg.rights.can_write(),
                        x: seg.rights.can_exec(),
                        a: AddressMode::Tor,
                        l: false,
                        addr: seg.end >> 2,
                    },
                );
                idx += 2;
            }
        }
    }

    /// Switches `core` to run `domain`: programs its PMP layout and drops
    /// to S-mode at `entry`.
    pub fn enter_domain(
        &mut self,
        machine: &mut Machine,
        domain: DomainId,
        core: usize,
        entry: u64,
    ) -> Result<(), BackendError> {
        let DomainPmp { tag, layout } = self
            .domains
            .get(&domain)
            .ok_or_else(|| BackendError::Hardware(format!("no layout for {domain}")))?;
        let hart = self
            .harts
            .get_mut(core)
            .ok_or_else(|| BackendError::Hardware(format!("no hart {core}")))?;
        Self::program_hart(hart, layout, self.reserved);
        machine
            .cycles
            .charge(machine.cost.pmp_write * layout.len() as u64);
        hart.domain_tag = *tag;
        hart.mret(PrivMode::Supervisor, entry);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyche_hw::machine::MachineConfig;
    use tyche_hw::riscv::pmp::PmpAccess;
    use tyche_hw::PhysAddr;

    fn setup() -> (Machine, CapEngine, RiscvBackend, DomainId) {
        let mut machine = Machine::new(MachineConfig::default());
        let mut engine = CapEngine::new();
        let mut backend = RiscvBackend::new(&machine);
        let os = engine.create_root_domain();
        engine
            .endow(os, Resource::mem(0, 0x10_0000), Rights::RWX)
            .unwrap();
        for e in engine.drain_effects() {
            backend.apply(&mut machine, &engine, &e).unwrap();
        }
        (machine, engine, backend, os)
    }

    fn apply_all(
        m: &mut Machine,
        e: &mut CapEngine,
        b: &mut RiscvBackend,
    ) -> Result<(), BackendError> {
        for fx in e.drain_effects() {
            b.apply(m, e, &fx)?;
        }
        Ok(())
    }

    #[test]
    fn coalesce_merges_contiguous_same_rights() {
        let mut view = super::super::PageView::new();
        for p in [0x1000u64, 0x2000, 0x3000] {
            view.insert(p, Rights::RW);
        }
        view.insert(0x4000, Rights::RO); // different rights: new segment
        view.insert(0x6000, Rights::RO); // hole: new segment
        let segs = coalesce(&view);
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0],
            Segment {
                start: 0x1000,
                end: 0x4000,
                rights: Rights::RW
            }
        );
        assert_eq!(
            segs[1],
            Segment {
                start: 0x4000,
                end: 0x5000,
                rights: Rights::RO
            }
        );
        assert_eq!(
            segs[2],
            Segment {
                start: 0x6000,
                end: 0x7000,
                rights: Rights::RO
            }
        );
    }

    #[test]
    fn entry_counting() {
        // Aligned power-of-two: NAPOT, one entry.
        assert_eq!(
            Segment {
                start: 0x4000,
                end: 0x8000,
                rights: Rights::RW
            }
            .entries_needed(),
            1
        );
        // Unaligned or non-power-of-two: OFF+TOR pair.
        assert_eq!(
            Segment {
                start: 0x1000,
                end: 0x4000,
                rights: Rights::RW
            }
            .entries_needed(),
            2
        );
        assert_eq!(
            Segment {
                start: 0x3000,
                end: 0x7000,
                rights: Rights::RW
            }
            .entries_needed(),
            2
        );
    }

    #[test]
    fn boot_layout_and_entry() {
        let (mut m, mut e, mut b, os) = setup();
        e.set_entry(os, os, 0x1000).unwrap();
        b.enter_domain(&mut m, os, 0, 0x1000).unwrap();
        let hart = &b.harts[0];
        assert_eq!(hart.mode, PrivMode::Supervisor);
        assert_eq!(hart.pc, 0x1000);
        // The domain can touch its RAM but not the monitor region.
        assert!(hart
            .pmp
            .check(false, PhysAddr::new(0x8000), 8, PmpAccess::Write)
            .is_ok());
        let monitor_base = m.domain_ram.end.as_u64();
        assert!(hart
            .pmp
            .check(false, PhysAddr::new(monitor_base), 8, PmpAccess::Read)
            .is_err());
    }

    #[test]
    fn monitor_guard_is_locked_even_for_mmode() {
        let (m, _e, b, _os) = setup();
        let monitor_base = m.domain_ram.end.as_u64();
        let hart = &b.harts[0];
        assert!(
            hart.pmp
                .check(
                    true,
                    PhysAddr::new(monitor_base + 0x100),
                    8,
                    PmpAccess::Write
                )
                .is_err(),
            "locked guard binds M-mode too"
        );
    }

    #[test]
    fn fragmented_layout_rejected() {
        let (mut m, mut e, mut b, os) = setup();
        let (child, _t) = e.create_domain(os).unwrap();
        apply_all(&mut m, &mut e, &mut b).unwrap();
        // Share many discontiguous single pages: each one costs an entry
        // (NAPOT) — the 15th distinct fragment exceeds 14 available.
        let ram = e
            .caps_of(os)
            .iter()
            .find(|c| c.active && c.is_memory())
            .unwrap()
            .id;
        let mut failed_at = None;
        for i in 0..20u64 {
            let start = i * 0x4000; // discontiguous 1-page windows
            e.share(
                os,
                ram,
                child,
                Some(MemRegion::new(start, start + 0x1000)),
                Rights::RO,
                RevocationPolicy::NONE,
            )
            .unwrap();
            if let Err(BackendError::LayoutUnrepresentable {
                needed, available, ..
            }) = apply_all(&mut m, &mut e, &mut b)
            {
                assert!(needed > available);
                failed_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(
            failed_at,
            Some(15),
            "14 single-page NAPOT fragments fit, the 15th does not"
        );
    }

    #[test]
    fn contiguous_layout_scales_fine() {
        // The same total memory as the fragmented case, but contiguous:
        // one segment, no matter how large.
        let (mut m, mut e, mut b, os) = setup();
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
            Some(MemRegion::new(0, 0x8_0000)),
            Rights::RO,
            RevocationPolicy::NONE,
        )
        .unwrap();
        apply_all(&mut m, &mut e, &mut b).unwrap();
        assert_eq!(b.layout(child).unwrap().len(), 1);
    }

    #[test]
    fn enter_programs_pmp_for_target() {
        let (mut m, mut e, mut b, os) = setup();
        let (child, _t) = e.create_domain(os).unwrap();
        let ram = e
            .caps_of(os)
            .iter()
            .find(|c| c.active && c.is_memory())
            .unwrap()
            .id;
        let (page, _rest) = e.split(os, ram, 0x4000).unwrap();
        e.grant(os, page, child, None, Rights::RWX, RevocationPolicy::ZERO)
            .unwrap();
        apply_all(&mut m, &mut e, &mut b).unwrap();
        b.enter_domain(&mut m, child, 1, 0x0).unwrap();
        let hart = &b.harts[1];
        assert!(hart
            .pmp
            .check(false, PhysAddr::new(0x1000), 8, PmpAccess::Write)
            .is_ok());
        assert!(
            hart.pmp
                .check(false, PhysAddr::new(0x5000), 8, PmpAccess::Read)
                .is_err(),
            "child sees only its granted pages"
        );
        // Hart 0 still has the OS view (minus the granted page after sync
        // if it were entered); enter OS on hart 0 and check.
        b.enter_domain(&mut m, os, 0, 0).unwrap();
        assert!(b.harts[0]
            .pmp
            .check(false, PhysAddr::new(0x5000), 8, PmpAccess::Read)
            .is_ok());
        assert!(
            b.harts[0]
                .pmp
                .check(false, PhysAddr::new(0x1000), 8, PmpAccess::Read)
                .is_err(),
            "OS lost the granted page"
        );
    }

    #[test]
    fn device_effects_unsupported() {
        let (mut m, mut e, mut b, os) = setup();
        e.endow(os, Resource::Device(1), Rights::USE).unwrap();
        let err = apply_all(&mut m, &mut e, &mut b).unwrap_err();
        assert!(matches!(err, BackendError::Hardware(_)));
    }
}
