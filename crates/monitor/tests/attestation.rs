//! The two-tier attestation chain (§3.4), end to end, including the full
//! tamper matrix: every forgery a remote verifier must catch.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tyche_core::prelude::*;
use tyche_monitor::abi::MonitorCall;
use tyche_monitor::attest::{SignedReport, Verifier, VerifyError};
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_x86, BootConfig, Monitor};

fn setup_with_enclave() -> (Monitor, DomainId, tyche_crypto::Digest) {
    let mut m = boot_x86(BootConfig::default());
    let os = m.engine.root().unwrap();
    let (child, _t) = match m.call(0, MonitorCall::CreateDomain).unwrap() {
        CallResult::NewDomain { domain, transition } => (domain, transition),
        other => panic!("unexpected {other:?}"),
    };
    // Load "code" into the page that will belong to the enclave and record
    // its content measurement before sealing.
    m.dom_write(0, 0x10_0000, b"enclave code v1").unwrap();
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && c.is_memory())
        .unwrap()
        .id;
    let CallResult::Caps(_lo, hi) = m
        .call(
            0,
            MonitorCall::Split {
                cap: ram,
                at: 0x10_0000,
            },
        )
        .unwrap()
    else {
        panic!()
    };
    let CallResult::Caps(page, _rest) = m
        .call(
            0,
            MonitorCall::Split {
                cap: hi,
                at: 0x10_1000,
            },
        )
        .unwrap()
    else {
        panic!()
    };
    m.call(
        0,
        MonitorCall::RecordContent {
            domain: child,
            start: 0x10_0000,
            end: 0x10_1000,
        },
    )
    .unwrap();
    m.call(
        0,
        MonitorCall::Grant {
            cap: page,
            target: child,
            rights: Rights::RWX,
            policy: RevocationPolicy::ZERO,
        },
    )
    .unwrap();
    m.call(
        0,
        MonitorCall::SetEntry {
            domain: child,
            entry: 0x10_0000,
        },
    )
    .unwrap();
    let CallResult::Measurement(measurement) = m
        .call(
            0,
            MonitorCall::Seal {
                domain: child,
                allow_outward: false,
                allow_children: false,
            },
        )
        .unwrap()
    else {
        panic!()
    };
    (m, child, measurement)
}

fn verifier_for(m: &Monitor) -> Verifier {
    Verifier::new(
        m.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        m.report_key(),
    )
}

#[test]
fn full_chain_verifies() {
    let (mut m, child, measurement) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let quote_nonce = [7u8; 32];
    let report_nonce = [9u8; 32];
    let quote = m.machine_quote(quote_nonce).unwrap();
    let signed = m.attest_domain(child, report_nonce).unwrap();

    let attested = verifier
        .verify(
            &quote,
            &quote_nonce,
            &signed,
            &report_nonce,
            Some(measurement),
        )
        .expect("chain verifies");
    assert_eq!(attested.domain, child);
    assert!(
        attested.sharing_is_exactly(&[]),
        "enclave memory fully exclusive"
    );
    // The content measurement of the code page is in the report.
    assert_eq!(attested.report.content_measurements.len(), 1);
    assert_eq!(
        attested.report.content_measurements[0].2,
        tyche_crypto::hash(
            {
                let mut page = b"enclave code v1".to_vec();
                page.resize(0x1000, 0);
                &page.clone()
            }
            .as_slice()
        )
    );
}

#[test]
fn wrong_monitor_detected() {
    let (mut m, child, _) = setup_with_enclave();
    // The verifier expects a different monitor version.
    let verifier = Verifier::new(
        m.machine.tpm.attestation_key(),
        expected_monitor_pcr("tyche-repro-monitor v9.9.9"),
        m.report_key(),
    );
    let quote = m.machine_quote([1u8; 32]).unwrap();
    let signed = m.attest_domain(child, [2u8; 32]).unwrap();
    assert!(matches!(
        verifier.verify(&quote, &[1u8; 32], &signed, &[2u8; 32], None),
        Err(VerifyError::WrongMonitor { .. })
    ));
}

#[test]
fn replayed_quote_detected() {
    let (mut m, child, _) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let old_quote = m.machine_quote([1u8; 32]).unwrap();
    let signed = m.attest_domain(child, [2u8; 32]).unwrap();
    // Verifier asked with a fresh nonce but got a stale quote.
    assert!(matches!(
        verifier.verify(&old_quote, &[42u8; 32], &signed, &[2u8; 32], None),
        Err(VerifyError::BadQuote)
    ));
}

#[test]
fn replayed_report_detected() {
    let (mut m, child, _) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let quote = m.machine_quote([1u8; 32]).unwrap();
    let stale = m.attest_domain(child, [2u8; 32]).unwrap();
    assert!(matches!(
        verifier.verify(&quote, &[1u8; 32], &stale, &[3u8; 32], None),
        Err(VerifyError::BadReportSignature)
    ));
}

#[test]
fn tampered_report_detected() {
    let (mut m, child, _) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let quote = m.machine_quote([1u8; 32]).unwrap();
    let mut signed = m.attest_domain(child, [2u8; 32]).unwrap();
    // The adversary edits the refcounts to hide a shared mapping.
    for r in &mut signed.report.resources {
        r.refcount = tyche_core::refcount::RefCount { max: 1, min: 1 };
    }
    // (Contents actually were exclusive; flip the measurement instead to
    // guarantee a difference.)
    signed.report.measurement = tyche_crypto::hash(b"innocent-looking");
    assert!(matches!(
        verifier.verify(&quote, &[1u8; 32], &signed, &[2u8; 32], None),
        Err(VerifyError::BadReportSignature)
    ));
}

#[test]
fn forged_signature_detected() {
    let (mut m, child, _) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let quote = m.machine_quote([1u8; 32]).unwrap();
    let mut signed = m.attest_domain(child, [2u8; 32]).unwrap();
    // A monitor key the verifier does not trust.
    let rogue = tyche_crypto::sign::SigningKey::derive(b"rogue", "monitor-report-key");
    signed.signature = rogue.sign(&SignedReport::signed_bytes(&signed.report, &signed.nonce));
    assert!(matches!(
        verifier.verify(&quote, &[1u8; 32], &signed, &[2u8; 32], None),
        Err(VerifyError::BadReportSignature)
    ));
}

#[test]
fn wrong_domain_measurement_detected() {
    let (mut m, child, _) = setup_with_enclave();
    let verifier = verifier_for(&m);
    let quote = m.machine_quote([1u8; 32]).unwrap();
    let signed = m.attest_domain(child, [2u8; 32]).unwrap();
    let wrong = tyche_crypto::hash(b"some other enclave");
    assert!(matches!(
        verifier.verify(&quote, &[1u8; 32], &signed, &[2u8; 32], Some(wrong)),
        Err(VerifyError::WrongDomainMeasurement { .. })
    ));
}

#[test]
fn unsealed_domain_cannot_be_attested() {
    let mut m = boot_x86(BootConfig::default());
    let CallResult::NewDomain { domain, .. } = m.call(0, MonitorCall::CreateDomain).unwrap() else {
        panic!()
    };
    assert!(m.attest_domain(domain, [0u8; 32]).is_err());
}

#[test]
fn sharing_becomes_visible_in_reattestation() {
    // Figure 2's core property: the customer can see, from refcounts,
    // whether enclave memory is reachable by anyone else.
    let (mut m, child, _) = setup_with_enclave();
    let report1 = m.attest_domain(child, [1u8; 32]).unwrap();
    assert!(report1.report.check_sharing(&[]));

    // The *OS* later maps a window overlapping... it cannot: the page was
    // granted away. Instead, model a nestable enclave that shares onward.
    // Build a second enclave with a nestable seal and make it share.
    let os = m.engine.root().unwrap();
    let (e2, _t) = m.engine.create_domain(os).unwrap();
    let ram = m
        .engine
        .caps_of(os)
        .iter()
        .find(|c| {
            c.active
                && c.resource
                    .as_mem()
                    .map(|r| r.contains(&MemRegion::new(0x20_0000, 0x20_1000)))
                    .unwrap_or(false)
        })
        .unwrap()
        .id;
    let (_lo, hi) = m.engine.split(os, ram, 0x20_0000).unwrap();
    let (page2, _rest) = m.engine.split(os, hi, 0x20_1000).unwrap();
    let g = m
        .engine
        .grant(os, page2, e2, None, Rights::RW, RevocationPolicy::NONE)
        .unwrap();
    m.engine.set_entry(os, e2, 0).unwrap();
    m.engine.seal(os, e2, SealPolicy::nestable()).unwrap();
    let r_before = m.attest_domain(e2, [1u8; 32]).unwrap();
    assert!(
        r_before.report.check_sharing(&[]),
        "exclusive before sharing"
    );

    let (nested, _t2) = m.engine.create_domain(e2).unwrap();
    m.engine
        .share(e2, g, nested, None, Rights::RO, RevocationPolicy::NONE)
        .unwrap();
    let r_after = m.attest_domain(e2, [2u8; 32]).unwrap();
    assert!(
        !r_after.report.check_sharing(&[]),
        "re-attestation exposes the share"
    );
}
