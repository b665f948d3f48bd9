//! §4.2's distributed story: two machines, a TEE on each, mutual remote
//! attestation, and one-sided RDMA writes that cross an untrusted wire
//! encrypted and authenticated — with every checkpoint printed.
//!
//! Run with: `cargo run -p tyche-bench --example attested_rdma`

use libtyche::rdma::{RdmaConnection, RdmaNic, Wire};
use tyche_bench::spawn_sealed;
use tyche_core::prelude::*;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
use tyche_monitor::{boot_x86, BootConfig};

const TEE_MEM: (u64, u64) = (0x10_0000, 0x10_4000);

fn main() {
    // Two independent machines, each booting the measured monitor and
    // carving out one TEE.
    let mut ma = boot_x86(BootConfig::default());
    let mut mb = boot_x86(BootConfig::default());
    let (tee_a, gate_a) = spawn_sealed(
        &mut ma,
        0,
        TEE_MEM.0,
        TEE_MEM.1 - TEE_MEM.0,
        &[0],
        SealPolicy::strict(),
    );
    let (tee_b, gate_b) = spawn_sealed(
        &mut mb,
        0,
        TEE_MEM.0,
        TEE_MEM.1 - TEE_MEM.0,
        &[0],
        SealPolicy::strict(),
    );
    println!("machine A: TEE {tee_a}; machine B: TEE {tee_b}");

    // Mutual attestation: A verifies B's chain (quote -> monitor ->
    // report); the channel key binds to both attested configurations.
    let qn = [1u8; 32];
    let rn = [2u8; 32];
    let quote_b = mb.machine_quote(qn).expect("quote");
    let report_b = mb.attest_domain(tee_b, rn).expect("report B");
    let report_a = ma.attest_domain(tee_a, rn).expect("report A");
    let verifier = Verifier::new(
        mb.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        mb.report_key(),
    );
    let mut conn =
        RdmaConnection::establish(&verifier, &quote_b, &qn, &report_b, &rn, &report_a, None)
            .expect("machine B attests clean");
    println!("mutual attestation ok; channel key derived from both report digests");

    // TEE B registers a memory region for remote writes. The monitor
    // validates it is exclusively owned (refcount 1) — a shared window
    // would be rejected.
    let mut nic_b = RdmaNic::new();
    let mut client = libtyche::TycheClient::new(&mut mb, 0);
    client.enter(gate_b).expect("enter B");
    let rkey = nic_b
        .register_mr(&mut mb, 0, TEE_MEM.0 + 0x1000, TEE_MEM.0 + 0x2000, true)
        .expect("register MR");
    libtyche::TycheClient::new(&mut mb, 0).ret().expect("ret B");
    println!("TEE B registered exclusive MR {rkey:?}");

    // TEE A pushes a secret across the wire.
    let mut wire = Wire::new();
    let mut client = libtyche::TycheClient::new(&mut ma, 0);
    client.enter(gate_a).expect("enter A");
    client
        .write(TEE_MEM.0 + 0x100, b"inter-machine secret")
        .expect("stage");
    conn.rdma_write(
        &mut ma,
        0,
        TEE_MEM.0 + 0x100,
        20,
        &mut wire,
        &mut mb,
        &nic_b,
        rkey,
        0,
    )
    .expect("rdma write");
    libtyche::TycheClient::new(&mut ma, 0).ret().expect("ret A");

    // TEE B reads it; the eavesdropper and B's host OS get nothing.
    let mut client = libtyche::TycheClient::new(&mut mb, 0);
    client.enter(gate_b).expect("enter B");
    let mut got = [0u8; 20];
    client
        .read(TEE_MEM.0 + 0x1000, &mut got)
        .expect("B reads MR");
    libtyche::TycheClient::new(&mut mb, 0).ret().expect("ret B");
    println!(
        "delivered to TEE B: {:?}",
        std::str::from_utf8(&got).expect("utf8")
    );
    assert_eq!(&got, b"inter-machine secret");
    println!(
        "wire frames captured: {}; plaintext on the wire: {}",
        wire.frames.len(),
        wire.leaks(b"inter-machine secret")
    );
    assert!(!wire.leaks(b"inter-machine secret"));
    let host_reads = mb.dom_read(0, TEE_MEM.0 + 0x1000, &mut [0u8; 1]).is_ok();
    println!("machine B's host OS reads the MR: {host_reads}");
    assert!(!host_reads);

    // And the delivery-time guard: if B's topology changes (the TEE dies),
    // in-flight writes are refused rather than delivered to whoever
    // inherited the pages.
    let os_b = mb.engine.root().expect("root");
    mb.engine.kill(os_b, tee_b).expect("kill TEE B");
    mb.sync_effects().expect("sync");
    let mut client = libtyche::TycheClient::new(&mut ma, 0);
    client.enter(gate_a).expect("enter A");
    let refused = conn
        .rdma_write(
            &mut ma,
            0,
            TEE_MEM.0 + 0x100,
            4,
            &mut wire,
            &mut mb,
            &nic_b,
            rkey,
            0,
        )
        .is_err();
    libtyche::TycheClient::new(&mut ma, 0).ret().expect("ret A");
    println!("TEE B destroyed; late write refused: {refused}");
    assert!(refused);
}
