//! Two-tier remote attestation (§3.4 of the paper).
//!
//! Tier 1 — *the machine runs a specific monitor*: the TPM measured the
//! monitor image into PCR 17 (and its configuration into PCR 18) at boot
//! and produces a signed [`tyche_hw::tpm::Quote`] over those PCRs and a
//! verifier nonce.
//!
//! Tier 2 — *a specific domain has a specific configuration*: the monitor
//! signs a [`tyche_core::attest::DomainReport`] (resources, rights,
//! reference counts, measurement) with its attestation key.
//!
//! A [`Verifier`] holds the TPM's verifying key, the *expected* monitor
//! measurement (obtained by building the open-source monitor and hashing
//! it), and the monitor's report-verification key (distributed alongside
//! the quote, as a certificate would be). `verify` checks the whole chain
//! and returns an [`AttestedDomain`] the relying party can query.
//!
//! A relying party appraises a machine once and then checks many domain
//! reports against that appraisal, so a verifier runs tier 1 once per
//! piece of evidence and tier 2 once per report. It keeps the first
//! `(quote, quote nonce)` pair that passed tier 1, and a later `verify`
//! presenting a bit-equal pair skips straight to tier 2. That is sound
//! because the trust anchors the pair was appraised under are private
//! and immutable, only successes are kept, and any quote that differs
//! in a single bit — another nonce, another machine, a tampered copy —
//! is appraised in full, every time.

use std::sync::OnceLock;

use tyche_core::attest::DomainReport;
use tyche_core::ids::DomainId;
use tyche_crypto::sign::{Signature, VerifyingKey};
use tyche_crypto::Digest;
use tyche_hw::tpm::{Quote, PCR_CONFIG, PCR_MONITOR};

/// A domain report signed by the monitor, bound to a verifier nonce.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedReport {
    /// The report contents.
    pub report: DomainReport,
    /// The verifier nonce the signature covers (anti-replay).
    pub nonce: [u8; 32],
    /// Monitor signature over `report.canonical_bytes() || nonce`.
    pub signature: Signature,
}

impl SignedReport {
    /// Feeds the exact bytes the monitor signs to `put`, piece by piece:
    /// what [`SigningKey::sign_streamed`](tyche_crypto::sign::SigningKey::sign_streamed)
    /// and [`VerifyingKey::verify_streamed`] absorb without collecting it.
    pub(crate) fn write_signed(
        report: &DomainReport,
        nonce: &[u8; 32],
        put: &mut dyn FnMut(&[u8]),
    ) {
        report.write_canonical(&mut *put);
        put(nonce);
    }

    /// The exact bytes the monitor signs, collected.
    pub fn signed_bytes(report: &DomainReport, nonce: &[u8; 32]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(report.encoded_len() + nonce.len());
        Self::write_signed(report, nonce, &mut |piece| msg.extend_from_slice(piece));
        msg
    }
}

/// Why verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The TPM quote signature or nonce check failed.
    BadQuote,
    /// PCR 17 does not match the expected monitor measurement: an unknown
    /// monitor (or none) controls the machine.
    WrongMonitor {
        /// What the quote reported.
        got: Digest,
        /// What the verifier expected.
        expected: Digest,
    },
    /// The quote did not cover the required PCRs.
    MissingPcr(usize),
    /// The domain report signature failed or the nonce was replayed.
    BadReportSignature,
    /// The report's domain measurement does not match the expected value.
    WrongDomainMeasurement {
        /// What the report carried.
        got: Digest,
        /// What the verifier expected.
        expected: Digest,
    },
    /// A memory resource the verifier required to be exclusive is shared.
    UnexpectedSharing,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::BadQuote => f.write_str("TPM quote verification failed"),
            VerifyError::WrongMonitor { .. } => {
                f.write_str("machine is not running the expected monitor")
            }
            VerifyError::MissingPcr(p) => write!(f, "quote does not cover PCR {p}"),
            VerifyError::BadReportSignature => f.write_str("domain report signature invalid"),
            VerifyError::WrongDomainMeasurement { .. } => {
                f.write_str("domain measurement mismatch")
            }
            VerifyError::UnexpectedSharing => f.write_str("resource shared beyond stated policy"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The verified view of a domain a relying party acts on.
#[derive(Clone, Debug)]
pub struct AttestedDomain {
    /// The attested domain id.
    pub domain: DomainId,
    /// Its verified measurement.
    pub measurement: Digest,
    /// The verified report (resources + reference counts).
    pub report: DomainReport,
}

impl AttestedDomain {
    /// The Figure 2 customer check: every memory resource is exclusive
    /// except the listed `(start, end, expected_count)` shared windows.
    pub fn sharing_is_exactly(&self, allowed_shared: &[(u64, u64, usize)]) -> bool {
        self.report.check_sharing(allowed_shared)
    }
}

/// A remote verifier's trust anchors, and the one piece of tier-1
/// evidence it has already appraised under them.
pub struct Verifier {
    /// TPM attestation (quote) verification key.
    tpm_key: VerifyingKey,
    /// Expected PCR 17 value: `extend(0, H(monitor image))`.
    expected_monitor_pcr: Digest,
    /// The monitor's report-verification key.
    monitor_key: VerifyingKey,
    /// The first `(quote, quote nonce)` that passed [`Self::appraise`].
    /// Only a success is ever stored, and never replaced.
    appraised: OnceLock<(Quote, [u8; 32])>,
}

impl Verifier {
    /// A verifier trusting quotes signed under `tpm_key` whose PCR 17 is
    /// `expected_monitor_pcr`, and reports signed under `monitor_key`.
    pub fn new(
        tpm_key: VerifyingKey,
        expected_monitor_pcr: Digest,
        monitor_key: VerifyingKey,
    ) -> Self {
        Verifier {
            tpm_key,
            expected_monitor_pcr,
            monitor_key,
            appraised: OnceLock::new(),
        }
    }

    /// Verifies the full two-tier chain:
    ///
    /// 1. the quote is signed by the TPM and fresh (`quote_nonce`);
    /// 2. PCR 17 proves the expected monitor controls the machine;
    /// 3. the report is signed by that monitor and fresh (`report_nonce`);
    /// 4. if `expected_measurement` is given, the domain measurement
    ///    matches.
    ///
    /// Steps 1–2 are skipped when `(quote, quote_nonce)` is bit-equal to
    /// the pair this verifier already appraised; steps 3–4 always run.
    pub fn verify(
        &self,
        quote: &Quote,
        quote_nonce: &[u8; 32],
        signed: &SignedReport,
        report_nonce: &[u8; 32],
        expected_measurement: Option<Digest>,
    ) -> Result<AttestedDomain, VerifyError> {
        let known = self
            .appraised
            .get()
            .is_some_and(|(q, n)| q == quote && n == quote_nonce);
        if !known {
            self.appraise(quote, quote_nonce)?;
            if self.appraised.get().is_none() {
                // A concurrent first success may have won; either pair
                // passed tier 1 under these same anchors.
                let _ = self.appraised.set((quote.clone(), *quote_nonce));
            }
        }
        self.check_report(signed, report_nonce, expected_measurement)
    }

    /// Tier 1: the quote is signed by the TPM and fresh, covers PCRs 17
    /// and 18, and PCR 17 is the expected monitor.
    fn appraise(&self, quote: &Quote, quote_nonce: &[u8; 32]) -> Result<(), VerifyError> {
        if !quote.verify(&self.tpm_key, quote_nonce) {
            return Err(VerifyError::BadQuote);
        }
        let pcr17 = quote
            .pcr(PCR_MONITOR)
            .ok_or(VerifyError::MissingPcr(PCR_MONITOR))?;
        quote
            .pcr(PCR_CONFIG)
            .ok_or(VerifyError::MissingPcr(PCR_CONFIG))?;
        if pcr17 != self.expected_monitor_pcr {
            return Err(VerifyError::WrongMonitor {
                got: pcr17,
                expected: self.expected_monitor_pcr,
            });
        }
        Ok(())
    }

    /// Tier 2: the report is fresh, signed by the monitor, and carries
    /// the expected measurement when one is given.
    fn check_report(
        &self,
        signed: &SignedReport,
        report_nonce: &[u8; 32],
        expected_measurement: Option<Digest>,
    ) -> Result<AttestedDomain, VerifyError> {
        if &signed.nonce != report_nonce {
            return Err(VerifyError::BadReportSignature);
        }
        let authentic = self.monitor_key.verify_streamed(
            |put| SignedReport::write_signed(&signed.report, &signed.nonce, put),
            &signed.signature,
        );
        if !authentic {
            return Err(VerifyError::BadReportSignature);
        }
        if let Some(expected) = expected_measurement {
            if signed.report.measurement != expected {
                return Err(VerifyError::WrongDomainMeasurement {
                    got: signed.report.measurement,
                    expected,
                });
            }
        }
        Ok(AttestedDomain {
            domain: signed.report.domain,
            measurement: signed.report.measurement,
            report: signed.report.clone(),
        })
    }
}

/// Computes the expected PCR 17 value for a monitor image measurement —
/// what a verifier derives from the open-source monitor build.
pub fn expected_pcr_for(image_measurement: Digest) -> Digest {
    tyche_crypto::hash_parts(&[Digest::ZERO.as_bytes(), image_measurement.as_bytes()])
}

/// The measurement roots one machine *publishes* so fleet peers can
/// verify its attestation chain: its TPM's quote-verification key and
/// its monitor's report-verification key. In a real deployment these
/// travel out-of-band (a fleet manifest, an endorsement certificate);
/// in the model they are collected from the booted monitor.
///
/// Note what is deliberately **not** published: the expected monitor
/// PCR. Each peer derives that itself from the open-source monitor
/// build it trusts ([`Self::verifier`]), so a byzantine machine that
/// boots a different monitor can distribute honest-looking keys and
/// still fail tier 1 of every peer's [`Verifier::verify`].
#[derive(Clone, Debug)]
pub struct MachineRoots {
    /// The machine's TPM attestation (quote-verification) key.
    pub tpm_key: VerifyingKey,
    /// The machine's monitor report-verification key.
    pub monitor_key: VerifyingKey,
}

impl MachineRoots {
    /// Collects the roots a booted monitor publishes for its machine.
    pub fn of(monitor: &crate::monitor::Monitor) -> Self {
        MachineRoots {
            tpm_key: monitor.machine.tpm.attestation_key(),
            monitor_key: monitor.report_key(),
        }
    }

    /// Builds the verifier a peer uses against this machine, trusting
    /// only monitors whose image measures to the named `version` (see
    /// `boot::expected_monitor_pcr`).
    pub fn verifier(&self, version: &str) -> Verifier {
        Verifier::new(
            self.tpm_key.clone(),
            crate::boot::expected_monitor_pcr(version),
            self.monitor_key.clone(),
        )
    }
}

// ---------------------------------------------------------------------
// Multi-domain topology attestation (§4.2 extension)
// ---------------------------------------------------------------------

/// What a verifier expects of a multi-domain deployment: a set of member
/// domains (optionally with pinned measurements) and the exact shared
/// channels among them. "All communication paths are secured and
/// attested" (§4.2) means: every byte reachable by more than one member
/// must be a declared channel, reachable by *exactly* its declared
/// member set — no undeclared sharing, no outsiders on any channel.
#[derive(Clone, Debug, Default)]
pub struct TopologySpec {
    /// Expected member measurements, parallel to the reports presented;
    /// `None` skips the measurement pin for that slot.
    pub member_measurements: Vec<Option<Digest>>,
    /// Declared channels: `(start, end, member indices with access)`.
    pub channels: Vec<(u64, u64, Vec<usize>)>,
}

/// Why a topology failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The spec and the report set disagree on cardinality.
    WrongMemberCount {
        /// Reports presented.
        got: usize,
        /// Spec slots.
        expected: usize,
    },
    /// An individual report failed (index, underlying error).
    Member(usize, VerifyError),
    /// Member `member` shares `[start, end)` which no declared channel
    /// covers.
    UndeclaredSharing {
        /// The offending member index.
        member: usize,
        /// Region start.
        start: u64,
        /// Region end.
        end: u64,
    },
    /// A declared channel is missing from a member that should hold it.
    MissingChannel {
        /// The member index lacking the channel.
        member: usize,
        /// Channel start.
        start: u64,
    },
    /// A channel's reference count does not equal its member-set size:
    /// someone outside the deployment can reach it.
    OutsiderOnChannel {
        /// Channel start.
        start: u64,
        /// Declared member count.
        expected: usize,
        /// Observed reference count.
        got: usize,
    },
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::WrongMemberCount { got, expected } => {
                write!(f, "expected {expected} member reports, got {got}")
            }
            TopologyError::Member(i, e) => write!(f, "member {i}: {e}"),
            TopologyError::UndeclaredSharing { member, start, end } => {
                write!(
                    f,
                    "member {member} shares undeclared region [{start:#x},{end:#x})"
                )
            }
            TopologyError::MissingChannel { member, start } => {
                write!(f, "member {member} lacks declared channel at {start:#x}")
            }
            TopologyError::OutsiderOnChannel {
                start,
                expected,
                got,
            } => write!(
                f,
                "channel at {start:#x}: refcount {got} but only {expected} members declared"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Verifier {
    /// Verifies a whole deployment: one machine quote, one signed report
    /// per member, and the [`TopologySpec`]. On success the deployment's
    /// communication graph is exactly the declared one.
    pub fn verify_topology(
        &self,
        quote: &Quote,
        quote_nonce: &[u8; 32],
        reports: &[SignedReport],
        report_nonce: &[u8; 32],
        spec: &TopologySpec,
    ) -> Result<Vec<AttestedDomain>, TopologyError> {
        if reports.len() != spec.member_measurements.len() {
            return Err(TopologyError::WrongMemberCount {
                got: reports.len(),
                expected: spec.member_measurements.len(),
            });
        }
        let mut attested = Vec::with_capacity(reports.len());
        for (i, (r, expect)) in reports.iter().zip(&spec.member_measurements).enumerate() {
            let a = self
                .verify(quote, quote_nonce, r, report_nonce, *expect)
                .map_err(|e| TopologyError::Member(i, e))?;
            attested.push(a);
        }
        // Every shared memory region of every member must be a declared
        // channel covering that member...
        for (i, a) in attested.iter().enumerate() {
            for res in &a.report.resources {
                let tyche_core::Resource::Memory(region) = res.resource else {
                    continue;
                };
                if res.refcount.max <= 1 {
                    continue;
                }
                let declared = spec.channels.iter().find(|(s, e, members)| {
                    *s == region.start && *e == region.end && members.contains(&i)
                });
                let Some((s, _e, members)) = declared else {
                    return Err(TopologyError::UndeclaredSharing {
                        member: i,
                        start: region.start,
                        end: region.end,
                    });
                };
                // ...with a refcount of exactly the member-set size.
                if res.refcount.max != members.len() || res.refcount.min != members.len() {
                    return Err(TopologyError::OutsiderOnChannel {
                        start: *s,
                        expected: members.len(),
                        got: res.refcount.max,
                    });
                }
            }
        }
        // ...and every declared channel must actually exist in each of
        // its members' reports (a missing leg means the path is not the
        // one the verifier will use).
        for (s, e, members) in &spec.channels {
            for &i in members {
                let present = attested[i].report.resources.iter().any(|r| {
                    matches!(r.resource, tyche_core::Resource::Memory(m)
                        if m.start == *s && m.end == *e)
                });
                if !present {
                    return Err(TopologyError::MissingChannel {
                        member: i,
                        start: *s,
                    });
                }
            }
        }
        Ok(attested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyche_core::engine::EnumeratedResource;
    use tyche_core::refcount::RefCount;
    use tyche_core::{CapId, CapKind, MemRegion, Resource, Rights};
    use tyche_crypto::sign::SigningKey;
    use tyche_crypto::ChaChaRng;
    use tyche_hw::tpm::Tpm;

    /// A booted machine reduced to what attestation needs: a TPM that
    /// measured a monitor and the monitor's report-signing key.
    struct Machine {
        tpm: Tpm,
        monitor: SigningKey,
    }

    fn machine(seed: u64) -> Machine {
        let mut tpm = Tpm::new_with_seed(seed);
        tpm.extend(PCR_MONITOR, "monitor", tyche_crypto::hash(b"monitor-image"));
        tpm.extend(PCR_CONFIG, "config", tyche_crypto::hash(b"cost-model"));
        Machine {
            tpm,
            monitor: SigningKey::derive(&seed.to_le_bytes(), "monitor-report"),
        }
    }

    impl Machine {
        fn verifier(&self) -> Verifier {
            Verifier::new(
                self.tpm.attestation_key(),
                self.tpm.read_pcr(PCR_MONITOR),
                self.monitor.verifying_key(),
            )
        }

        fn quote(&self, nonce: [u8; 32]) -> Quote {
            self.tpm.quote(&[PCR_MONITOR, PCR_CONFIG], nonce).unwrap()
        }

        fn sign(&self, report: DomainReport, nonce: [u8; 32]) -> SignedReport {
            let signature = self
                .monitor
                .sign_streamed(|put| SignedReport::write_signed(&report, &nonce, put));
            SignedReport {
                report,
                nonce,
                signature,
            }
        }
    }

    /// A report with `resources` random resources of every kind and
    /// `contents` random content measurements.
    fn random_report(rng: &mut ChaChaRng, resources: usize, contents: usize) -> DomainReport {
        let mut digest = || tyche_crypto::hash(&rng.next_bytes32());
        let measurement = digest();
        let content_measurements = (0..contents as u64)
            .map(|i| (i << 12, (i + 1) << 12, digest()))
            .collect();
        let resources = (0..resources)
            .map(|i| {
                let x = rng.next_u64();
                let resource = match i % 5 {
                    0 => Resource::Memory(MemRegion::new((x >> 20) << 12, ((x >> 20) + 1) << 12)),
                    1 => Resource::CpuCore(x as usize % 64),
                    2 => Resource::Device(x as u16),
                    3 => Resource::Transition(tyche_core::DomainId(x)),
                    _ => Resource::Interrupt(x as u32),
                };
                EnumeratedResource {
                    cap: CapId(x >> 8),
                    resource,
                    rights: Rights(x as u8 & 0x1f),
                    kind: [
                        CapKind::Root,
                        CapKind::Shared,
                        CapKind::Granted,
                        CapKind::Carved,
                    ][(x >> 5) as usize % 4],
                    refcount: RefCount {
                        max: 1 + (x >> 9) as usize % 4,
                        min: 1,
                    },
                }
            })
            .collect();
        DomainReport {
            domain: tyche_core::DomainId(rng.next_u64()),
            measurement,
            seal_policy: rng.next_u32() as u8,
            entry: rng.next_u64(),
            resources,
            content_measurements,
        }
    }

    const QN: [u8; 32] = [1u8; 32];
    const RN: [u8; 32] = [2u8; 32];

    fn good(m: &Machine) -> (Quote, SignedReport) {
        let mut rng = ChaChaRng::from_seed(7);
        (m.quote(QN), m.sign(random_report(&mut rng, 3, 1), RN))
    }

    #[test]
    fn streamed_report_tag_equals_one_shot() {
        let m = machine(1);
        let v = m.verifier();
        let quote = m.quote(QN);
        let mut rng = ChaChaRng::from_seed(0x5eed);
        for resources in [0usize, 1, 2, 5, 17, 40] {
            for contents in [0usize, 1, 3] {
                let report = random_report(&mut rng, resources, contents);
                let nonce = rng.next_bytes32();
                let bytes = SignedReport::signed_bytes(&report, &nonce);
                assert_eq!(bytes.len(), report.encoded_len() + 32);
                let mut expect = report.canonical_bytes();
                expect.extend_from_slice(&nonce);
                assert_eq!(bytes, expect);
                let signed = m.sign(report, nonce);
                assert_eq!(
                    signed.signature,
                    m.monitor.sign(&bytes),
                    "{resources}/{contents}"
                );
                assert!(v.verify(&quote, &QN, &signed, &nonce, None).is_ok());
            }
        }
    }

    #[test]
    fn stored_quote_does_not_cover_altered_evidence() {
        let m = machine(2);
        let v = m.verifier();
        let (quote, signed) = good(&m);
        assert!(v.verify(&quote, &QN, &signed, &RN, None).is_ok());
        assert!(v.appraised.get().is_some());

        let mut pcr = quote.clone();
        pcr.pcr_values[0].0[0] ^= 1;
        assert_eq!(
            v.verify(&pcr, &QN, &signed, &RN, None).unwrap_err(),
            VerifyError::BadQuote
        );
        let mut sig = quote.clone();
        sig.signature.0 .0[31] ^= 0x80;
        assert_eq!(
            v.verify(&sig, &QN, &signed, &RN, None).unwrap_err(),
            VerifyError::BadQuote
        );
        let other = [3u8; 32];
        assert_eq!(
            v.verify(&quote, &other, &signed, &RN, None).unwrap_err(),
            VerifyError::BadQuote
        );
        // A fresh quote under the other nonce is appraised in full and
        // accepted, and the stored pair stays the first one.
        assert!(v
            .verify(&m.quote(other), &other, &signed, &RN, None)
            .is_ok());
        assert_eq!(v.appraised.get(), Some(&(quote.clone(), QN)));
        assert!(v.verify(&quote, &QN, &signed, &RN, None).is_ok());
    }

    #[test]
    fn failed_appraisal_is_never_stored() {
        let m = machine(3);
        let v = m.verifier();
        let (quote, signed) = good(&m);
        let mut bad = quote.clone();
        bad.pcr_values[1].0[5] ^= 4;
        for _ in 0..2 {
            assert_eq!(
                v.verify(&bad, &QN, &signed, &RN, None).unwrap_err(),
                VerifyError::BadQuote
            );
            assert!(v.appraised.get().is_none(), "a failure filled the slot");
        }
        assert!(v.verify(&quote, &QN, &signed, &RN, None).is_ok());
        assert_eq!(
            v.verify(&bad, &QN, &signed, &RN, None).unwrap_err(),
            VerifyError::BadQuote
        );
        // Evidence that authenticates but names another monitor is a
        // failure too, before and after a success.
        let rogue = machine(4);
        let wrong = rogue.tpm.quote(&[PCR_MONITOR, PCR_CONFIG], QN).unwrap();
        let v2 = Verifier::new(
            rogue.tpm.attestation_key(),
            tyche_crypto::hash(b"another monitor"),
            m.monitor.verifying_key(),
        );
        for _ in 0..2 {
            assert!(matches!(
                v2.verify(&wrong, &QN, &signed, &RN, None),
                Err(VerifyError::WrongMonitor { .. })
            ));
            assert!(v2.appraised.get().is_none());
        }
    }

    #[test]
    fn other_anchors_never_accept_the_stored_pair() {
        let m = machine(5);
        let rogue = machine(6);
        let (quote, signed) = good(&m);
        let trusting = m.verifier();
        let other_tpm = Verifier::new(
            rogue.tpm.attestation_key(),
            m.tpm.read_pcr(PCR_MONITOR),
            m.monitor.verifying_key(),
        );
        let other_pcr = Verifier::new(
            m.tpm.attestation_key(),
            tyche_crypto::hash(b"another monitor"),
            m.monitor.verifying_key(),
        );
        for _ in 0..2 {
            assert!(trusting.verify(&quote, &QN, &signed, &RN, None).is_ok());
            assert_eq!(
                other_tpm
                    .verify(&quote, &QN, &signed, &RN, None)
                    .unwrap_err(),
                VerifyError::BadQuote
            );
            assert!(matches!(
                other_pcr.verify(&quote, &QN, &signed, &RN, None),
                Err(VerifyError::WrongMonitor { .. })
            ));
        }
        assert!(other_tpm.appraised.get().is_none() && other_pcr.appraised.get().is_none());
    }

    #[test]
    fn tier_two_runs_under_a_stored_quote() {
        let m = machine(7);
        let v = m.verifier();
        let (quote, signed) = good(&m);
        assert!(v.verify(&quote, &QN, &signed, &RN, None).is_ok());

        let mut forged = signed.clone();
        forged.report.entry ^= 1;
        assert_eq!(
            v.verify(&quote, &QN, &forged, &RN, None).unwrap_err(),
            VerifyError::BadReportSignature
        );
        let mut forged = signed.clone();
        forged.signature.0 .0[0] ^= 1;
        assert_eq!(
            v.verify(&quote, &QN, &forged, &RN, None).unwrap_err(),
            VerifyError::BadReportSignature
        );
        let rogue = machine(8).sign(signed.report.clone(), RN);
        assert_eq!(
            v.verify(&quote, &QN, &rogue, &RN, None).unwrap_err(),
            VerifyError::BadReportSignature
        );
        assert_eq!(
            v.verify(&quote, &QN, &signed, &[9u8; 32], None)
                .unwrap_err(),
            VerifyError::BadReportSignature
        );
        assert!(matches!(
            v.verify(&quote, &QN, &signed, &RN, Some(Digest::ZERO)),
            Err(VerifyError::WrongDomainMeasurement { .. })
        ));
        let att = v
            .verify(&quote, &QN, &signed, &RN, Some(signed.report.measurement))
            .unwrap();
        assert_eq!(att.report, signed.report);
    }
}
