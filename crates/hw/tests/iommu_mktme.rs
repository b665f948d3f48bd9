//! Edge and fault-path coverage for the I/O-MMU and the memory
//! encryption controller — the two hardware units whose failure modes
//! sit between "DMA silently corrupts an enclave" and "a cold-boot
//! attacker reads a secret".
//!
//! The inline unit tests in `iommu.rs` / `mktme.rs` cover the happy
//! paths; this suite drives the injected-fault paths (via the
//! [`Faults`] handle built into [`PhysMem`]), the partial-progress
//! behaviour of multi-page DMA, the panic contracts, and the
//! interaction between the two units (device DMA to an encrypted page
//! sees ciphertext — the mktme scope note made executable).

use tyche_hw::addr::{GuestPhysAddr, PhysAddr, PhysRange, PAGE_SIZE};
use tyche_hw::faults::{FaultPlan, FaultSite};
use tyche_hw::iommu::{DeviceId, Iommu};
use tyche_hw::mem::{FrameAllocator, MemError, PhysMem};
use tyche_hw::mktme::{MemCrypt, KEYID_PLAIN};
use tyche_hw::x86::ept::{Ept, EptFlags};

fn setup() -> (PhysMem, FrameAllocator, Iommu) {
    (
        PhysMem::new(256 * PAGE_SIZE),
        FrameAllocator::new(PhysRange::from_len(PhysAddr::new(0x40000), 128 * PAGE_SIZE)),
        Iommu::new(),
    )
}

/// Maps `gpa -> hpa` RW for a fresh device and returns it attached.
fn attach_mapped(
    mem: &mut PhysMem,
    alloc: &mut FrameAllocator,
    iommu: &mut Iommu,
    id: u16,
    gpa: u64,
    hpa: u64,
) -> DeviceId {
    let ept = Ept::new(mem, alloc).unwrap();
    ept.map(
        mem,
        alloc,
        GuestPhysAddr::new(gpa),
        PhysAddr::new(hpa),
        EptFlags::RW,
    )
    .unwrap();
    let dev = DeviceId(id);
    iommu.attach(dev, ept.root());
    dev
}

// ---------------------------------------------------------------------
// I/O-MMU fault paths
// ---------------------------------------------------------------------

#[test]
fn injected_walk_abort_blocks_dma_once_and_is_logged() {
    let (mut mem, mut alloc, mut iommu) = setup();
    let dev = attach_mapped(&mut mem, &mut alloc, &mut iommu, 0x0100, 0x1000, 0x9000);
    mem.write(PhysAddr::new(0x9000), b"payload").unwrap();

    // The walk aborts at the translation root: the transaction fails,
    // the fault is visible to the monitor, and nothing was transferred.
    mem.faults().arm(FaultPlan::once(FaultSite::EptWalk));
    let mut out = [0u8; 7];
    let fault = iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut out)
        .unwrap_err();
    assert!(!fault.write);
    assert_eq!(fault.device, dev);
    assert_eq!(iommu.take_faults(), vec![fault], "walk aborts are logged");
    assert_eq!(out, [0u8; 7], "no partial transfer");

    // One-shot plan: the retry succeeds untouched.
    iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut out)
        .unwrap();
    assert_eq!(&out, b"payload");
    assert_eq!(mem.faults().fired(), 1);
}

#[test]
fn injected_table_read_fault_surfaces_as_translation_fault() {
    let (mut mem, mut alloc, mut iommu) = setup();
    let dev = attach_mapped(&mut mem, &mut alloc, &mut iommu, 0x0200, 0x1000, 0x9000);

    // The *first* physical read during the DMA is a page-table fetch, so
    // a one-shot MemRead plan lands mid-walk: the walk collapses into an
    // EPT violation and the fault is logged like any translation miss.
    mem.faults().arm(FaultPlan::once(FaultSite::MemRead));
    let mut out = [0u8; 4];
    assert!(iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut out)
        .is_err());
    assert_eq!(iommu.take_faults().len(), 1);
    // Recovery after the one-shot.
    iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut out)
        .unwrap();
}

#[test]
fn injected_payload_write_fault_is_returned_but_not_logged() {
    let (mut mem, mut alloc, mut iommu) = setup();
    let dev = attach_mapped(&mut mem, &mut alloc, &mut iommu, 0x0300, 0x1000, 0x9000);

    // Translation only *reads* tables, so a MemWrite plan skips the walk
    // and fires exactly at the payload store: translation succeeded, the
    // DRAM transaction itself failed. The caller gets the fault, but the
    // monitor-visible log stays empty — only *translation* failures are
    // remapping faults. Documented behaviour, pinned here.
    mem.faults().arm(FaultPlan::once(FaultSite::MemWrite));
    let fault = iommu
        .dma_write(&mut mem, dev, GuestPhysAddr::new(0x1000), b"dma")
        .unwrap_err();
    assert!(fault.write);
    assert_eq!(fault.device, dev);
    assert!(
        iommu.take_faults().is_empty(),
        "post-translation DRAM errors are not remapping faults"
    );

    // Retry lands.
    iommu
        .dma_write(&mut mem, dev, GuestPhysAddr::new(0x1000), b"dma")
        .unwrap();
    let mut out = [0u8; 3];
    iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut out)
        .unwrap();
    assert_eq!(&out, b"dma");
}

#[test]
fn cross_page_dma_stops_at_the_unmapped_page_with_partial_progress() {
    let (mut mem, mut alloc, mut iommu) = setup();
    // Only the first guest page is mapped; the transfer straddles into
    // the void. The model commits page-granular chunks, so the mapped
    // prefix lands before the fault — DMA is not transactional.
    let dev = attach_mapped(&mut mem, &mut alloc, &mut iommu, 0x0400, 0x1000, 0x9000);
    let data = vec![0x5au8; 64];
    let start = GuestPhysAddr::new(0x1000 + PAGE_SIZE - 32);
    let fault = iommu.dma_write(&mut mem, dev, start, &data).unwrap_err();
    assert!(fault.write);
    assert_eq!(
        fault.addr,
        GuestPhysAddr::new(0x2000),
        "faulting page pinned"
    );
    assert_eq!(iommu.take_faults().len(), 1);

    let mut prefix = [0u8; 32];
    mem.read(PhysAddr::new(0x9000 + PAGE_SIZE - 32), &mut prefix)
        .unwrap();
    assert_eq!(prefix, [0x5au8; 32], "mapped prefix was committed");
}

// ---------------------------------------------------------------------
// MemCrypt fault paths and panic contracts
// ---------------------------------------------------------------------

#[test]
fn retag_read_fault_leaves_tag_and_contents_untouched() {
    let mut mem = PhysMem::new(64 * PAGE_SIZE);
    let mut mc = MemCrypt::new_with_seed(7);
    let page = PhysAddr::new(0x3000);
    mc.write(&mut mem, page, b"stable").unwrap();
    let k = mc.new_key();

    mem.faults().arm(FaultPlan::once(FaultSite::MemRead));
    match mc.retag(&mut mem, page, k) {
        Err(MemError::Injected { addr }) => assert_eq!(addr, page),
        other => panic!("expected injected read fault, got {other:?}"),
    }
    assert_eq!(mc.key_of(page), KEYID_PLAIN, "tag unchanged on failure");
    let mut raw = [0u8; 6];
    mem.read(page, &mut raw).unwrap();
    assert_eq!(&raw, b"stable", "contents unchanged on failure");

    // The retry re-encrypts and the data still round-trips.
    mc.retag(&mut mem, page, k).unwrap();
    let mut through = [0u8; 6];
    mc.read(&mem, page, &mut through).unwrap();
    assert_eq!(&through, b"stable");
}

#[test]
fn retag_write_fault_fails_before_the_tag_flips() {
    let mut mem = PhysMem::new(64 * PAGE_SIZE);
    let mut mc = MemCrypt::new_with_seed(7);
    let page = PhysAddr::new(0x4000);
    let k1 = mc.new_key();
    mc.retag(&mut mem, page, k1).unwrap();
    mc.write(&mut mem, page, b"ciphered").unwrap();
    let k2 = mc.new_key();

    // The re-encrypted page bounces off DRAM: the tag must stay k1,
    // because flipping it without the write would leave the page
    // decrypting under a key it was never encrypted with.
    mem.faults().arm(FaultPlan::once(FaultSite::MemWrite));
    assert!(matches!(
        mc.retag(&mut mem, page, k2),
        Err(MemError::Injected { .. })
    ));
    assert_eq!(mc.key_of(page), k1, "tag and ciphertext stay consistent");
    let mut through = [0u8; 8];
    mc.read(&mem, page, &mut through).unwrap();
    assert_eq!(&through, b"ciphered", "old key still decrypts");
}

#[test]
#[should_panic(expected = "retag requires a page base")]
fn retag_rejects_unaligned_base() {
    let mut mem = PhysMem::new(64 * PAGE_SIZE);
    let mut mc = MemCrypt::new_with_seed(7);
    let _ = mc.retag(&mut mem, PhysAddr::new(0x3008), KEYID_PLAIN);
}

#[test]
#[should_panic(expected = "force_tag requires a page base")]
fn force_tag_rejects_unaligned_base() {
    let mut mc = MemCrypt::new_with_seed(7);
    mc.force_tag(PhysAddr::new(0x3008), KEYID_PLAIN);
}

#[test]
#[should_panic(expected = "unprogrammed key")]
fn force_tag_rejects_unknown_key() {
    let mut mc = MemCrypt::new_with_seed(7);
    mc.force_tag(PhysAddr::new(0x3000), 42);
}

#[test]
fn force_tag_after_scrub_leaves_no_recoverable_secret() {
    // The zero-on-revocation handoff: the old owner's page is scrubbed,
    // then force-tagged to the new owner without a re-encryption pass.
    let mut mem = PhysMem::new(64 * PAGE_SIZE);
    let mut mc = MemCrypt::new_with_seed(7);
    let page = PhysAddr::new(0x5000);
    let k_old = mc.new_key();
    mc.retag(&mut mem, page, k_old).unwrap();
    mc.write(&mut mem, page, b"old owner secret").unwrap();

    mem.zero_range(PhysRange::from_len(page, PAGE_SIZE))
        .unwrap();
    let k_new = mc.new_key();
    mc.force_tag(page, k_new);

    // Physical view: zeros — the ciphertext is gone, not re-wrapped.
    let mut raw = [0u8; 16];
    mem.read(page, &mut raw).unwrap();
    assert_eq!(raw, [0u8; 16], "scrub survived the handoff");
    // New owner's view: keystream noise, not the secret.
    let mut through = [0u8; 16];
    mc.read(&mem, page, &mut through).unwrap();
    assert_ne!(&through, b"old owner secret");
    assert_eq!(mc.key_of(page), k_new);
}

// ---------------------------------------------------------------------
// Interaction: device DMA vs encrypted pages
// ---------------------------------------------------------------------

#[test]
fn device_dma_to_encrypted_page_reads_ciphertext() {
    // The mktme scope note, executable: plain I/O-MMU DMA does not go
    // through the memory controller (pre-TDX-IO hardware), so a device
    // granted a window over an encrypted page sees ciphertext — the
    // encryption holds even against a device the I/O-MMU trusts.
    let (mut mem, mut alloc, mut iommu) = setup();
    let mut mc = MemCrypt::new_with_seed(7);
    let dev = attach_mapped(&mut mem, &mut alloc, &mut iommu, 0x0500, 0x1000, 0x9000);

    let page = PhysAddr::new(0x9000);
    let k = mc.new_key();
    mc.retag(&mut mem, page, k).unwrap();
    mc.write(&mut mem, page, b"enclave secret").unwrap();

    let mut via_cpu = [0u8; 14];
    mc.read(&mem, page, &mut via_cpu).unwrap();
    assert_eq!(&via_cpu, b"enclave secret", "CPU path decrypts");

    let mut via_dma = [0u8; 14];
    iommu
        .dma_read(&mem, dev, GuestPhysAddr::new(0x1000), &mut via_dma)
        .unwrap();
    assert_ne!(&via_dma, b"enclave secret", "device path sees ciphertext");

    // And a device *write* lands as ciphertext-from-the-CPU's-view: the
    // controller "decrypts" whatever the device stored, so the device
    // cannot forge chosen plaintext into the enclave either.
    iommu
        .dma_write(&mut mem, dev, GuestPhysAddr::new(0x1000), b"forged content")
        .unwrap();
    let mut seen = [0u8; 14];
    mc.read(&mem, page, &mut seen).unwrap();
    assert_ne!(&seen, b"forged content", "no chosen-plaintext injection");
}
