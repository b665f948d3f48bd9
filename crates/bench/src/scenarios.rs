//! The paper's figures as executable scenarios.
//!
//! [`fig2`] builds Figure 2 end to end: a customer processes sensitive
//! data through an *untrusted* SaaS application, trusting only a crypto
//! engine enclave, an isolated GPU, and the attested sharing topology.
//! [`fig4_view`] reconstructs Figure 4's memory view (domain-to-region
//! mappings with reference counts) from live monitor state.

use tyche_core::prelude::*;
use tyche_crypto::ChaChaRng;
use tyche_hw::device::{Gpu, KernelDesc};
use tyche_hw::iommu::DeviceId;
use tyche_monitor::attest::Verifier;
use tyche_monitor::boot::{expected_monitor_pcr, MONITOR_VERSION};
use tyche_monitor::{boot_x86, BootConfig, Monitor};

/// Physical layout of the Figure 2 deployment.
pub mod layout {
    /// Crypto-engine enclave private memory (keys live here).
    pub const CRYPTO: (u64, u64) = (0x10_0000, 0x10_4000);
    /// SaaS application enclave private memory.
    pub const APP: (u64, u64) = (0x20_0000, 0x20_8000);
    /// Shared window: app ↔ crypto engine (refcount 2).
    pub const APP_CRYPTO: (u64, u64) = (0x30_0000, 0x30_1000);
    /// Shared window: app ↔ GPU (refcount 2; the GPU side is a device
    /// context, counted via its owning domain).
    pub const APP_GPU: (u64, u64) = (0x31_0000, 0x31_2000);
    /// Untrusted network buffer: ciphertext handed back to the provider.
    pub const NET: (u64, u64) = (0x32_0000, 0x32_1000);
    /// The GPU's PCI id.
    pub const GPU_DEV: u16 = 0x0042;
}

/// The assembled Figure 2 deployment.
pub struct Fig2 {
    /// The machine, post-setup.
    pub monitor: Monitor,
    /// The cloud-provider/OS domain (untrusted).
    pub provider: DomainId,
    /// The crypto-engine enclave.
    pub crypto: DomainId,
    /// Transition capability into the crypto engine (held by provider —
    /// scheduling without trust).
    pub crypto_gate: CapId,
    /// The SaaS application enclave.
    pub app: DomainId,
    /// Transition capability into the app.
    pub app_gate: CapId,
    /// The GPU device model.
    pub gpu: Gpu,
    /// The GPU's isolated DMA domain.
    pub gpu_domain: DomainId,
}

/// Builds the Figure 2 deployment.
///
/// Trust topology (who can reach which bytes):
///
/// | region | provider | app | crypto | GPU | refcount |
/// |---|---|---|---|---|---|
/// | CRYPTO     | –   | – | ✓ | – | 1 |
/// | APP        | –   | ✓ | – | – | 1 |
/// | APP_CRYPTO | –   | ✓ | ✓ | – | 2 |
/// | APP_GPU    | –   | ✓ | – | ✓ | 2 |
/// | NET        | ✓   | ✓ | – | – | 2 |
///
/// # Panics
///
/// Panics when construction fails; the scenario is a fixture.
pub fn fig2() -> Fig2 {
    fig2_impl(false, true)
}

/// [`fig2`] without the untrusted NET share: every shared region is
/// between attested members, so the whole topology is verifiable with
/// [`tyche_monitor::attest::Verifier::verify_topology`].
pub fn fig2_without_net() -> Fig2 {
    fig2_impl(false, false)
}

/// A malicious variant of [`fig2`]: the provider keeps a read window
/// into the last page of the app's "confidential" memory (it *shares*
/// that page instead of granting it). Everything else is identical —
/// only the reference counts betray it, which is exactly what the
/// customer's verification checks.
pub fn fig2_with_spy_window() -> Fig2 {
    fig2_impl(true, true)
}

fn fig2_impl(spy_window: bool, with_net: bool) -> Fig2 {
    use layout::*;
    let mut m = boot_x86(BootConfig {
        devices: vec![GPU_DEV],
        ..Default::default()
    });
    let provider = m.engine.root().expect("booted");

    let mut client = libtyche::TycheClient::new(&mut m, 0);

    // --- The GPU's I/O domain: sees only the APP_GPU window. ---
    let (gpu_domain, _gpu_gate) = client.create_domain().expect("gpu domain");
    let gpu_win = client
        .carve(APP_GPU.0, APP_GPU.1)
        .expect("carve gpu window");
    // Shared: the app keeps access; grant comes later when the app's
    // share child is created from the same capability.
    client
        .share(
            gpu_win,
            gpu_domain,
            None,
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .expect("share gpu window");
    let dev_cap = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::Device(d) if d == GPU_DEV))
            .map(|c| c.id)
    }
    .expect("device cap");
    client
        .grant(dev_cap, gpu_domain, Rights::USE, RevocationPolicy::NONE)
        .expect("grant gpu");
    client.set_entry(gpu_domain, APP_GPU.0).expect("gpu entry");
    client
        .seal(gpu_domain, SealPolicy::strict())
        .expect("seal gpu");

    // --- The crypto-engine enclave. ---
    let (crypto, crypto_gate) = client.create_domain().expect("crypto domain");
    client
        .write(CRYPTO.0, b"crypto-engine code v1")
        .expect("load crypto code");
    client
        .record_content(crypto, CRYPTO.0, CRYPTO.0 + 0x1000)
        .expect("measure crypto");
    let crypto_mem = client.carve(CRYPTO.0, CRYPTO.1).expect("carve crypto");
    client
        .grant(crypto_mem, crypto, Rights::RWX, RevocationPolicy::OBFUSCATE)
        .expect("grant crypto");
    let app_crypto_win = client
        .carve(APP_CRYPTO.0, APP_CRYPTO.1)
        .expect("carve a-c window");
    client
        .share(
            app_crypto_win,
            crypto,
            None,
            Rights::RW,
            RevocationPolicy::NONE,
        )
        .expect("share a-c to crypto");
    share_core(&mut client, crypto, 0);
    client.set_entry(crypto, CRYPTO.0).expect("crypto entry");
    client
        .seal(crypto, SealPolicy::strict())
        .expect("seal crypto");

    // --- The SaaS application enclave. ---
    let (app, app_gate) = client.create_domain().expect("app domain");
    client
        .write(APP.0, b"saas-app code v1")
        .expect("load app code");
    client
        .record_content(app, APP.0, APP.0 + 0x1000)
        .expect("measure app");
    if spy_window {
        // The dishonest provider grants all but the last page and keeps a
        // shared read window into it.
        let app_mem = client.carve(APP.0, APP.1 - 0x1000).expect("carve app");
        client
            .grant(app_mem, app, Rights::RWX, RevocationPolicy::OBFUSCATE)
            .expect("grant app");
        let spy = client.carve(APP.1 - 0x1000, APP.1).expect("carve spy");
        client
            .share(spy, app, None, Rights::RW, RevocationPolicy::NONE)
            .expect("share spy");
    } else {
        let app_mem = client.carve(APP.0, APP.1).expect("carve app");
        client
            .grant(app_mem, app, Rights::RWX, RevocationPolicy::OBFUSCATE)
            .expect("grant app");
    }
    // Hand the app the *granted* side of each shared window: the provider
    // loses its own access, leaving refcount exactly 2.
    client
        .grant(app_crypto_win, app, Rights::RW, RevocationPolicy::ZERO)
        .expect("grant a-c");
    client
        .grant(gpu_win, app, Rights::RW, RevocationPolicy::ZERO)
        .expect("grant a-g");
    // The untrusted network buffer stays shared with the provider.
    if with_net {
        let net = client.carve(NET.0, NET.1).expect("carve net");
        client
            .share(net, app, None, Rights::RW, RevocationPolicy::NONE)
            .expect("share net");
    }
    share_core(&mut client, app, 0);
    client.set_entry(app, APP.0).expect("app entry");
    client.seal(app, SealPolicy::strict()).expect("seal app");

    let gpu = Gpu::new(DeviceId(GPU_DEV));
    Fig2 {
        monitor: m,
        provider,
        crypto,
        crypto_gate,
        app,
        app_gate,
        gpu,
        gpu_domain,
    }
}

fn share_core(client: &mut libtyche::TycheClient<'_>, target: DomainId, core: usize) {
    let cap = {
        let me = client.whoami();
        client
            .monitor
            .engine
            .caps_of(me)
            .iter()
            .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
            .map(|c| c.id)
    }
    .expect("core cap");
    client
        .share(cap, target, None, Rights::USE, RevocationPolicy::NONE)
        .expect("share core");
}

/// The customer's verification step: quote + both enclave reports, with
/// the exact sharing topology asserted. Returns `true` when the customer
/// would proceed to provision the key.
pub fn fig2_customer_verifies(f: &mut Fig2) -> bool {
    use layout::*;
    let verifier = Verifier::new(
        f.monitor.machine.tpm.attestation_key(),
        expected_monitor_pcr(MONITOR_VERSION),
        f.monitor.report_key(),
    );
    let qn = [1u8; 32];
    let quote = f.monitor.machine_quote(qn).expect("quote");
    let rn = [2u8; 32];
    let crypto_report = f
        .monitor
        .attest_domain(f.crypto, rn)
        .expect("crypto report");
    let app_report = f.monitor.attest_domain(f.app, rn).expect("app report");

    let Ok(crypto_att) = verifier.verify(&quote, &qn, &crypto_report, &rn, None) else {
        return false;
    };
    let Ok(app_att) = verifier.verify(&quote, &qn, &app_report, &rn, None) else {
        return false;
    };
    // Figure 2's condition: resources "either shared among themselves
    // (ref. count 2) or exclusively owned (ref. count 1)".
    crypto_att.sharing_is_exactly(&[(APP_CRYPTO.0, APP_CRYPTO.1, 2)])
        && app_att.sharing_is_exactly(&[
            (APP_CRYPTO.0, APP_CRYPTO.1, 2),
            (APP_GPU.0, APP_GPU.1, 2),
            (NET.0, NET.1, 2),
        ])
}

/// Runs the confidential pipeline once: the customer's `data` enters the
/// app enclave, is processed on the GPU, encrypted by the crypto engine
/// with `key`, and the ciphertext lands in the untrusted NET buffer.
/// Returns the ciphertext the provider sees.
///
/// # Panics
///
/// Panics if any step faults; the scenario is a fixture.
pub fn fig2_run_pipeline(f: &mut Fig2, key: u64, data: &[u8; 32]) -> Vec<u8> {
    use layout::*;
    let m = &mut f.monitor;
    // Customer key provisioning: enters the crypto engine (the gate is
    // scheduling-only; the write happens as the enclave).
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(f.crypto_gate).expect("enter crypto");
    client
        .write(CRYPTO.0 + 0x2000, &key.to_le_bytes())
        .expect("provision key");
    client.ret().expect("exit crypto");

    // The app receives the customer payload into its private memory and
    // stages it in the GPU window.
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(f.app_gate).expect("enter app");
    client.write(APP.0 + 0x1000, data).expect("stage input");
    client.write(APP_GPU.0, data).expect("to gpu window");
    client.ret().expect("exit app");

    // GPU kernel: transforms in place within its window (DMA through the
    // I/O-MMU; its context is the GPU domain's EPT).
    f.gpu
        .run_kernel(
            &mut m.machine.iommu,
            &mut m.machine.mem,
            KernelDesc {
                input: tyche_hw::addr::GuestPhysAddr::new(APP_GPU.0),
                output: tyche_hw::addr::GuestPhysAddr::new(APP_GPU.0 + 0x1000),
                len: 32,
            },
        )
        .expect("gpu kernel");

    // The app moves the GPU result to the crypto window.
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(f.app_gate).expect("enter app");
    let mut gpu_out = [0u8; 32];
    client
        .read(APP_GPU.0 + 0x1000, &mut gpu_out)
        .expect("read gpu result");
    client
        .write(APP_CRYPTO.0, &gpu_out)
        .expect("to crypto window");

    // Nested call into the crypto engine? The app holds no gate; the
    // provider schedules it. Return to provider first.
    client.ret().expect("exit app");
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(f.crypto_gate).expect("enter crypto");
    let mut plain = [0u8; 32];
    client
        .read(APP_CRYPTO.0, &mut plain)
        .expect("read plaintext");
    let mut kb = [0u8; 8];
    client.read(CRYPTO.0 + 0x2000, &mut kb).expect("read key");
    let ct = encrypt(u64::from_le_bytes(kb), &plain);
    client.write(APP_CRYPTO.0, &ct).expect("write ct");
    client.ret().expect("exit crypto");

    // The app copies ciphertext to the untrusted network buffer.
    let mut client = libtyche::TycheClient::new(m, 0);
    client.enter(f.app_gate).expect("enter app");
    let mut ct = [0u8; 32];
    client.read(APP_CRYPTO.0, &mut ct).expect("read ct");
    client.write(NET.0, &ct).expect("to net");
    client.ret().expect("exit app");

    // The provider "transmits" it: reads the NET buffer (allowed).
    let mut out = vec![0u8; 32];
    m.dom_read(0, NET.0, &mut out)
        .expect("provider reads ciphertext");
    out
}

/// The stream cipher the crypto engine applies (ChaCha20 keystream XOR).
pub fn encrypt(key: u64, data: &[u8; 32]) -> [u8; 32] {
    let mut rng = ChaChaRng::from_seed(key);
    let mut ks = [0u8; 32];
    rng.fill_bytes(&mut ks);
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = data[i] ^ ks[i];
    }
    out
}

/// What the customer expects the pipeline to produce for `data` under
/// `key`: GPU transform then encryption.
pub fn fig2_expected(key: u64, data: &[u8; 32]) -> [u8; 32] {
    let mut transformed = [0u8; 32];
    for (i, b) in data.iter().enumerate() {
        transformed[i] = Gpu::transform(*b);
    }
    encrypt(key, &transformed)
}

/// One row of the Figure 4 memory view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig4Row {
    /// Region `[start, end)`.
    pub region: (u64, u64),
    /// Domains with access.
    pub domains: Vec<DomainId>,
    /// Reference count (distinct domains).
    pub refcount: usize,
}

/// Reconstructs the Figure 4 view for the given regions from live
/// monitor state.
pub fn fig4_view(m: &Monitor, regions: &[(u64, u64)]) -> Vec<Fig4Row> {
    regions
        .iter()
        .map(|&(s, e)| {
            let mut domains: Vec<DomainId> = m
                .engine
                .active_mem_coverage()
                .into_iter()
                .filter(|(_, r)| r.overlaps(&MemRegion::new(s, e)))
                .map(|(d, _)| d)
                .collect();
            domains.sort();
            domains.dedup();
            Fig4Row {
                region: (s, e),
                refcount: domains.len(),
                domains,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_topology_matches_figure() {
        use layout::*;
        let f = fig2();
        let m = &f.monitor;
        // Exclusive confidential regions.
        assert!(m
            .engine
            .refcount_mem_full(MemRegion::new(CRYPTO.0, CRYPTO.1))
            .is_exclusive());
        assert!(m
            .engine
            .refcount_mem_full(MemRegion::new(APP.0, APP.1))
            .is_exclusive());
        // Shared windows: exactly 2.
        assert_eq!(
            m.engine
                .refcount_mem(MemRegion::new(APP_CRYPTO.0, APP_CRYPTO.1)),
            2
        );
        assert_eq!(
            m.engine.refcount_mem(MemRegion::new(APP_GPU.0, APP_GPU.1)),
            2
        );
        assert_eq!(m.engine.refcount_mem(MemRegion::new(NET.0, NET.1)), 2);
        assert!(tyche_core::audit::audit(&m.engine).is_empty());
    }

    #[test]
    fn fig2_customer_accepts() {
        let mut f = fig2();
        assert!(fig2_customer_verifies(&mut f));
    }

    #[test]
    fn fig2_pipeline_end_to_end() {
        let mut f = fig2();
        assert!(fig2_customer_verifies(&mut f));
        let data = *b"customer sensitive data 32 byte!";
        let key = 0xfeed_f00d_dead_beef;
        let ct = fig2_run_pipeline(&mut f, key, &data);
        assert_eq!(
            &ct[..],
            &fig2_expected(key, &data)[..],
            "customer decrypts correctly"
        );
        // The ciphertext is NOT the plaintext or the transform.
        assert_ne!(&ct[..], &data[..]);
        // The provider saw only ciphertext: it cannot read any
        // confidential buffer.
        let m = &mut f.monitor;
        assert!(
            m.dom_read(0, layout::CRYPTO.0 + 0x2000, &mut [0u8; 8])
                .is_err(),
            "key safe"
        );
        assert!(
            m.dom_read(0, layout::APP.0 + 0x1000, &mut [0u8; 4])
                .is_err(),
            "input safe"
        );
        assert!(
            m.dom_read(0, layout::APP_CRYPTO.0, &mut [0u8; 4]).is_err(),
            "window safe"
        );
    }

    #[test]
    fn fig2_gpu_cannot_reach_beyond_window() {
        let mut f = fig2();
        // A malicious GPU kernel tries to DMA out of its window.
        let err = f
            .gpu
            .run_kernel(
                &mut f.monitor.machine.iommu,
                &mut f.monitor.machine.mem,
                KernelDesc {
                    input: tyche_hw::addr::GuestPhysAddr::new(layout::APP_GPU.0),
                    output: tyche_hw::addr::GuestPhysAddr::new(layout::CRYPTO.0),
                    len: 16,
                },
            )
            .unwrap_err();
        assert!(err.write);
    }

    #[test]
    fn fig4_view_reconstructs() {
        use layout::*;
        let f = fig2();
        let rows = fig4_view(&f.monitor, &[CRYPTO, APP, APP_CRYPTO, APP_GPU, NET]);
        assert_eq!(rows[0].refcount, 1);
        assert_eq!(rows[1].refcount, 1);
        assert_eq!(rows[2].refcount, 2);
        assert_eq!(rows[3].refcount, 2);
        assert_eq!(rows[4].refcount, 2);
        assert_eq!(rows[2].domains, {
            let mut v = vec![f.app, f.crypto];
            v.sort();
            v
        });
    }
}
