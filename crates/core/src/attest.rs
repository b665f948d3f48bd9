//! Domain attestation reports (§3.4 of the paper).
//!
//! "A domain's attestation, signed by the monitor, enumerates its physical
//! resources, their reference counts, and the measurement of selected
//! memory regions. Resource enumeration and reference counts make sharing
//! and communication paths between domains explicit."
//!
//! This module builds the *content* of that attestation from engine state
//! and defines its canonical byte encoding. Signing is the monitor's job
//! (`tyche-monitor::attest`) — the engine stays crypto-policy free.
// Approved panic paths: every `expect(` in this module is budgeted,
// with a reviewed reason, in crates/verify/allowlist.toml.
#![allow(clippy::expect_used)]

use crate::capability::CapKind;
use crate::engine::{CapEngine, EnumeratedResource};
use crate::error::CapError;
use crate::ids::DomainId;
use crate::resource::Resource;
use tyche_crypto::Digest;

/// The attestation view of one domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainReport {
    /// The attested domain.
    pub domain: DomainId,
    /// Seal-time measurement of configuration + recorded contents.
    pub measurement: Digest,
    /// Encoded seal policy (see [`crate::domain::SealPolicy::encode`]).
    pub seal_policy: u8,
    /// The domain's fixed entry point.
    pub entry: u64,
    /// Enumerated resources with rights and reference counts.
    pub resources: Vec<EnumeratedResource>,
    /// Content measurements of selected initial memory regions.
    pub content_measurements: Vec<(u64, u64, Digest)>,
}

impl DomainReport {
    /// Builds the report for a sealed domain.
    ///
    /// Unsealed domains cannot be attested — their configuration is still
    /// mutable, so a report would be meaningless.
    pub fn build(engine: &CapEngine, domain: DomainId) -> Result<DomainReport, CapError> {
        let dom = engine
            .domain(domain)
            .ok_or(CapError::NoSuchDomain(domain))?;
        if !dom.is_sealed() {
            return Err(CapError::NotSealed(domain));
        }
        Ok(DomainReport {
            domain,
            measurement: dom.measurement.expect("sealed domains are measured"),
            seal_policy: dom.seal_policy.encode(),
            entry: dom.entry.expect("sealed domains have entry points"),
            resources: engine.enumerate(domain)?,
            content_measurements: dom.content_measurements.clone(),
        })
    }

    /// Canonical byte encoding — what the monitor signs. Any change to the
    /// domain's resources, rights, or reference counts changes these bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_canonical(|piece| out.extend_from_slice(piece));
        out
    }

    /// Length of [`Self::canonical_bytes`]: a 72-byte header, 35 bytes
    /// per resource, then the content count and 48 bytes per content
    /// measurement.
    pub fn encoded_len(&self) -> usize {
        72 + self.resources.len() * 35 + 8 + self.content_measurements.len() * 48
    }

    /// Feeds the canonical encoding to `put` piece by piece, so a hash or
    /// MAC can absorb it without collecting it first. The concatenated
    /// pieces are exactly [`Self::canonical_bytes`].
    pub fn write_canonical(&self, mut put: impl FnMut(&[u8])) {
        put(b"tyche-report-v1");
        put(&self.domain.0.to_le_bytes());
        put(self.measurement.as_bytes());
        put(&[self.seal_policy]);
        put(&self.entry.to_le_bytes());
        put(&(self.resources.len() as u64).to_le_bytes());
        for r in &self.resources {
            let (a, b) = match r.resource {
                Resource::Memory(m) => (m.start, m.end),
                Resource::CpuCore(n) => (n as u64, 0),
                Resource::Device(d) => (d as u64, 0),
                Resource::Transition(t) => (t.0, 0),
                Resource::Interrupt(v) => (v as u64, 0),
            };
            put(&[r.resource.type_tag()]);
            put(&a.to_le_bytes());
            put(&b.to_le_bytes());
            let kind = match r.kind {
                CapKind::Root => 0,
                CapKind::Shared => 1,
                CapKind::Granted => 2,
                CapKind::Carved => 3,
            };
            put(&[r.rights.0, kind]);
            put(&(r.refcount.max as u64).to_le_bytes());
            put(&(r.refcount.min as u64).to_le_bytes());
        }
        put(&(self.content_measurements.len() as u64).to_le_bytes());
        for (s, e, d) in &self.content_measurements {
            put(&s.to_le_bytes());
            put(&e.to_le_bytes());
            put(d.as_bytes());
        }
    }

    /// Digest of the canonical encoding.
    pub fn digest(&self) -> Digest {
        let mut h = tyche_crypto::Sha256::new();
        self.write_canonical(|piece| h.update(piece));
        h.finalize()
    }

    /// Convenience for verifiers: true when every memory resource in the
    /// report is exclusively held (refcount 1) except those in
    /// `allowed_shared`, which must have exactly the stated count.
    ///
    /// This is the Figure 2 customer check: "resources are either shared
    /// among themselves (ref. count 2) or exclusively owned (ref. count 1)".
    pub fn check_sharing(&self, allowed_shared: &[(u64, u64, usize)]) -> bool {
        self.resources.iter().all(|r| match r.resource {
            Resource::Memory(m) => {
                if let Some(&(_, _, want)) = allowed_shared
                    .iter()
                    .find(|(s, e, _)| *s == m.start && *e == m.end)
                {
                    r.refcount.max == want && r.refcount.min == want
                } else {
                    r.refcount.is_exclusive()
                }
            }
            _ => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn engine_with_sealed_enclave() -> (CapEngine, DomainId, DomainId) {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        let ram = e
            .endow(os, Resource::mem(0, 0x10_0000), Rights::RWX)
            .unwrap();
        let core0 = e.endow(os, Resource::CpuCore(0), Rights::USE).unwrap();
        let (enc, _t) = e.create_domain(os).unwrap();
        let (piece, _rest) = e.split(os, ram, 0x4000).unwrap();
        e.grant(os, piece, enc, None, Rights::RW, RevocationPolicy::ZERO)
            .unwrap();
        e.share(os, core0, enc, None, Rights::USE, RevocationPolicy::NONE)
            .unwrap();
        e.record_content(
            os,
            enc,
            MemRegion::new(0, 0x1000),
            tyche_crypto::hash(b"code"),
        )
        .unwrap();
        e.set_entry(os, enc, 0x0).unwrap();
        e.seal(os, enc, SealPolicy::strict()).unwrap();
        (e, os, enc)
    }

    #[test]
    fn report_requires_sealed() {
        let mut e = CapEngine::new();
        let os = e.create_root_domain();
        let (d, _) = e.create_domain(os).unwrap();
        assert_eq!(DomainReport::build(&e, d), Err(CapError::NotSealed(d)));
    }

    #[test]
    fn report_contents() {
        let (e, _os, enc) = engine_with_sealed_enclave();
        let report = DomainReport::build(&e, enc).unwrap();
        assert_eq!(report.domain, enc);
        assert_eq!(report.entry, 0);
        assert_eq!(report.content_measurements.len(), 1);
        // One memory resource (exclusive) + one shared CPU core.
        let mems: Vec<_> = report
            .resources
            .iter()
            .filter(|r| matches!(r.resource, Resource::Memory(_)))
            .collect();
        assert_eq!(mems.len(), 1);
        assert!(mems[0].refcount.is_exclusive());
    }

    #[test]
    fn canonical_bytes_change_with_state() {
        let (mut e, os, enc) = engine_with_sealed_enclave();
        let before = DomainReport::build(&e, enc).unwrap().digest();
        // OS shares another page with a third domain overlapping nothing of
        // the enclave: enclave report unchanged.
        let (d2, _) = e.create_domain(os).unwrap();
        let ram2 = e
            .endow(os, Resource::mem(0x20_0000, 0x21_0000), Rights::RW)
            .unwrap();
        e.share(os, ram2, d2, None, Rights::RO, RevocationPolicy::NONE)
            .unwrap();
        assert_eq!(DomainReport::build(&e, enc).unwrap().digest(), before);
    }

    #[test]
    fn sharing_check_detects_unexpected_share() {
        let (e, _os, enc) = engine_with_sealed_enclave();
        let report = DomainReport::build(&e, enc).unwrap();
        assert!(report.check_sharing(&[]), "enclave memory is exclusive");
    }

    #[test]
    fn report_digest_is_stable() {
        let (e, _os, enc) = engine_with_sealed_enclave();
        let a = DomainReport::build(&e, enc).unwrap();
        let b = DomainReport::build(&e, enc).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // The streamed digest and the reserved size match the collected
        // encoding.
        assert_eq!(a.digest(), tyche_crypto::hash(&a.canonical_bytes()));
        assert_eq!(a.canonical_bytes().len(), a.encoded_len());
    }
}
