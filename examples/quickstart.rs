//! Quickstart: boot the monitor, carve an enclave out of the OS, prove
//! the OS can no longer read it, attest it, and tear it down.
//!
//! Run with: `cargo run -p tyche-bench --example quickstart`

use tyche_core::prelude::*;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
use tyche_monitor::{boot_x86, BootConfig};

fn main() {
    // 1. Measured boot: the TPM records which monitor controls the
    //    machine; the initial domain (the "OS") owns all resources.
    let mut m = boot_x86(BootConfig::default());
    let os = m.engine.root().expect("booted");
    println!("booted monitor {MONITOR_VERSION}; initial domain = {os}");

    // 2. The OS writes a secret, then decides to protect it: it creates a
    //    domain, grants it the page (losing its own access — grant is an
    //    exclusive, revocable transfer), and seals it.
    m.dom_write(0, 0x10_0000, b"secret key material")
        .expect("write");
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    let (enclave, gate) = client.create_domain().expect("create domain");
    let page = client.carve(0x10_0000, 0x10_1000).expect("carve page");
    client
        .record_content(enclave, 0x10_0000, 0x10_1000)
        .expect("measure");
    client
        .grant(page, enclave, Rights::RW, RevocationPolicy::OBFUSCATE)
        .expect("grant");
    let core0 = client
        .monitor
        .engine
        .caps_of(os)
        .iter()
        .find(|c| c.active && matches!(c.resource, Resource::CpuCore(0)))
        .map(|c| c.id)
        .expect("core cap");
    client
        .share(core0, enclave, None, Rights::USE, RevocationPolicy::NONE)
        .expect("share core");
    client.set_entry(enclave, 0x10_0000).expect("entry");
    let measurement = client.seal(enclave, SealPolicy::strict()).expect("seal");
    println!("sealed {enclave}; measurement = {measurement}");

    // 3. The hardware now refuses the OS — the monitor, not the OS, holds
    //    the executive power over isolation.
    let denied = m.dom_read(0, 0x10_0000, &mut [0u8; 1]).is_err();
    println!("OS reads enclave page -> denied = {denied}");
    assert!(denied);

    // 4. The OS can still *schedule* the enclave (it kept the transition
    //    capability), and the enclave sees its own memory.
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.enter(gate).expect("enter");
    let mut buf = [0u8; 19];
    client.read(0x10_0000, &mut buf).expect("enclave read");
    println!(
        "enclave reads its page -> {:?}",
        std::str::from_utf8(&buf).unwrap()
    );
    client.ret().expect("return");

    // 5. A remote verifier checks the whole chain: TPM quote -> expected
    //    monitor -> monitor-signed domain report -> exclusive refcounts.
    let verifier = Verifier::new(
        m.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        m.report_key(),
    );
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote = m.machine_quote(qn).expect("quote");
    let report = m.attest_domain(enclave, rn).expect("attest");
    let attested = verifier
        .verify(&quote, &qn, &report, &rn, Some(measurement))
        .expect("attestation chain verifies");
    println!(
        "remote verifier: domain {} measurement ok, exclusive = {}",
        attested.domain,
        attested.sharing_is_exactly(&[])
    );

    // 6. Revocation: the OS takes the page back; the obfuscating policy
    //    zeroes it first, so nothing leaks backward.
    let granted = m
        .engine
        .caps_of(enclave)
        .iter()
        .find(|c| c.is_memory())
        .map(|c| c.id)
        .expect("granted cap");
    let mut client = libtyche::TycheClient::new(&mut m, 0);
    client.revoke(granted).expect("revoke");
    let mut buf = [0u8; 19];
    m.dom_read(0, 0x10_0000, &mut buf).expect("OS reads again");
    println!(
        "after revocation the OS sees: {buf:?} (zeroed = {})",
        buf == [0u8; 19]
    );
    assert_eq!(buf, [0u8; 19]);
}
