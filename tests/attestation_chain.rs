//! C8 — the full two-tier chain across crates: TPM (hw) → monitor boot →
//! engine report → verifier, plus the §3.4 confidentiality+integrity
//! corollary (refcount 1 + obfuscating revocation).

use tyche_bench::{boot, spawn_sealed};
use tyche_core::prelude::*;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};

fn verifier_for(m: &tyche_monitor::Monitor) -> Verifier {
    Verifier::new(
        m.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        m.report_key(),
    )
}

#[test]
fn exclusive_plus_obfuscating_gives_confidentiality_and_integrity() {
    // §3.4: "exclusive access to a resource (a reference count of 1)
    // coupled with an obfuscating revocation policy guarantees integrity
    // (while in use) and confidentiality."
    let mut m = boot();
    let (enclave, gate) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let verifier = verifier_for(&m);
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let report = m.attest_domain(enclave, rn).unwrap();
    let att = verifier.verify(&quote, &qn, &report, &rn, None).unwrap();
    assert!(att.sharing_is_exactly(&[]), "refcount 1 everywhere");

    // Integrity while in use: nobody else can write the region (only the
    // enclave maps it) — demonstrated by the OS faulting.
    assert!(m.dom_write(0, 0x10_0000, &[0]).is_err());
    // Confidentiality at end-of-life: revocation zeroes before returning.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.enter(gate).unwrap();
    client.write(0x10_0000, b"secret").unwrap();
    client.ret().unwrap();
    let granted = m
        .engine
        .caps_of(enclave)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .unwrap();
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.revoke(granted).unwrap();
    let mut buf = [0u8; 6];
    m.dom_read(0, 0x10_0000, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 6]);
}

#[test]
fn attestation_is_a_snapshot_with_freshness() {
    // Two attestations with different nonces differ only in signature
    // binding; the verifier must demand its own nonce each time.
    let mut m = boot();
    let (enclave, _) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let verifier = verifier_for(&m);
    let quote = m.machine_quote([1u8; 32]).expect("quote");
    let r1 = m.attest_domain(enclave, [10u8; 32]).unwrap();
    let r2 = m.attest_domain(enclave, [11u8; 32]).unwrap();
    assert_eq!(r1.report, r2.report, "same state, same report content");
    assert_ne!(r1.signature, r2.signature, "nonce-bound signatures");
    assert!(verifier
        .verify(&quote, &[1u8; 32], &r1, &[10u8; 32], None)
        .is_ok());
    assert!(verifier
        .verify(&quote, &[1u8; 32], &r1, &[11u8; 32], None)
        .is_err());
}

#[test]
fn any_domain_can_request_attestations() {
    // Attestation is not a privileged operation: a child domain asks the
    // monitor to attest a sibling (reports are public; secrets are not
    // in them).
    let mut m = boot();
    let (target, _) = spawn_sealed(&mut m, 0, 0x10_0000, 0x1000, &[0], SealPolicy::strict());
    let (_req, gate) = spawn_sealed(&mut m, 0, 0x20_0000, 0x1000, &[0], SealPolicy::strict());
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.enter(gate).unwrap();
    let report = client.attest(target, 99).unwrap();
    assert_eq!(report.report.domain, target);
    client.ret().unwrap();
}

#[test]
fn report_reflects_rights_not_just_regions() {
    // Downgraded rights show in the attestation: a verifier can tell RO
    // sharing from RW sharing.
    let mut m = boot();
    let os = m.engine.root().unwrap();
    let (d, _) = m.engine.create_domain(os).unwrap();
    let cap = {
        let mut client = libtyche::TycheClient::new(&mut m, 0);
        client.carve(0x10_0000, 0x10_1000).unwrap()
    };
    m.engine
        .share(os, cap, d, None, Rights::RO, RevocationPolicy::NONE)
        .unwrap();
    m.engine.set_entry(os, d, 0x10_0000).unwrap();
    m.engine.seal(os, d, SealPolicy::strict()).unwrap();
    m.sync_effects().unwrap();
    let report = m.attest_domain(d, [0u8; 32]).unwrap();
    let mem = report
        .report
        .resources
        .iter()
        .find(|r| matches!(r.resource, Resource::Memory(_)))
        .unwrap();
    assert_eq!(mem.rights, Rights::RO);
    assert_eq!(mem.refcount.max, 2, "shared with the OS");
}
