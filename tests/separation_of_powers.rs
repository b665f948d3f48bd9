//! F1 — the separation of powers (Figure 1), asserted end to end:
//! legislative (any domain defines policies), executive (the monitor
//! alone enforces), judiciary (a root of trust provides verifiable
//! oversight of both).

use tyche_bench::{boot, spawn_sealed};
use tyche_core::prelude::*;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, monitor_image_intact, MONITOR_VERSION};

#[test]
fn legislative_any_domain_defines_policies() {
    // Not just the OS: an unprivileged child domain defines isolation
    // policies for *its* resources (creates a grandchild, grants memory,
    // seals it) without the OS being involved in any decision.
    let mut m = boot();
    let (child, gate) = spawn_sealed(
        &mut m,
        0,
        0x10_0000,
        0x10_0000,
        &[0],
        SealPolicy::nestable(),
    );
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.enter(gate).unwrap();
    assert_eq!(client.whoami(), child);
    // The child legislates: a grandchild enclave with an exclusive page.
    let (grandchild, _t) = client.create_domain().unwrap();
    let page = client.carve(0x12_0000, 0x12_1000).unwrap();
    client
        .grant(page, grandchild, Rights::RW, RevocationPolicy::OBFUSCATE)
        .unwrap();
    client.set_entry(grandchild, 0x12_0000).unwrap();
    client.seal(grandchild, SealPolicy::strict()).unwrap();
    client.ret().unwrap();
    // The policy binds everyone, including the OS that "owns" the machine.
    assert!(m.dom_read(0, 0x12_0000, &mut [0u8; 1]).is_err());
    assert!(m
        .engine
        .refcount_mem_full(MemRegion::new(0x12_0000, 0x12_1000))
        .is_exclusive());
}

#[test]
fn executive_only_the_monitor_reconfigures_hardware() {
    // Domains cannot program translation structures directly: the only
    // way hardware state changes is a validated monitor call. Proof by
    // exhaustion of the API: every mutation path we attempt with foreign
    // capabilities is refused, and hardware still matches the engine.
    let mut m = boot();
    let (enclave, _gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let os = m.engine.root().unwrap();
    let os_ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .map(|c| c.id)
        .unwrap();

    // The enclave's own capability ids, to try from the wrong side.
    let enclave_mem = m
        .engine
        .caps_of(enclave)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();

    // OS tries to split/share the *enclave's* capability: refused.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    assert!(client.split(enclave_mem, 0x10_0800).is_err());
    assert!(client
        .share(enclave_mem, os, None, Rights::RO, RevocationPolicy::NONE)
        .is_err());
    // But its own still works (the refusals were authorization, not mood).
    let region = client
        .monitor
        .engine
        .cap(os_ram)
        .unwrap()
        .resource
        .as_mem()
        .unwrap();
    let mid = (region.start + region.len() / 2) & !0xfff;
    assert!(client.split(os_ram, mid).is_ok());
}

#[test]
fn judiciary_oversees_monitor_and_domains() {
    let mut m = boot();
    let (enclave, _) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    // Tier 1: the boot measurement proves which monitor runs; the image
    // in memory still hashes to it.
    assert!(monitor_image_intact(&m));
    // Tier 2: a remote verifier accepts the full chain...
    let verifier = Verifier::new(
        m.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        m.report_key(),
    );
    let qn = [5u8; 32];
    let rn = [6u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let report = m.attest_domain(enclave, rn).unwrap();
    assert!(verifier.verify(&quote, &qn, &report, &rn, None).is_ok());
    // ...and the judiciary binds the executive: the report's refcounts
    // are the engine's ground truth, which the auditor independently checks.
    assert!(tyche_core::audit::audit(&m.engine).is_empty());
}
