//! The libtyche manifest: per-segment isolation policy (§4.2).
//!
//! "The library loads an ELF binary as a domain using a manifest that
//! describes which segments should run in which privilege ring, whether
//! they are shared or confidential, and if their content is part of the
//! attestation or not."

/// The privilege ring a segment's code runs in inside its domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Ring {
    /// Kernel/supervisor ring.
    Ring0,
    /// User ring.
    Ring3,
}

/// Whether a segment is confidential to the domain or shared with its
/// creator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Visibility {
    /// Exclusively owned: granted, refcount 1, zeroed on revocation.
    Confidential,
    /// Shared with the loading domain (a communication window).
    Shared,
}

/// Policy for one ELF segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentPolicy {
    /// Index into the ELF image's segment table.
    pub segment: usize,
    /// Ring the segment's code runs in.
    pub ring: Ring,
    /// Confidential or shared with the creator.
    pub visibility: Visibility,
    /// Whether the segment's initial content is measured into the
    /// domain's attestation.
    pub measured: bool,
}

/// A whole-binary manifest.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Manifest {
    /// Per-segment policies, one per ELF segment (by index).
    pub segments: Vec<SegmentPolicy>,
}

impl Manifest {
    /// A sensible default for an enclave: every segment confidential and
    /// measured, code in ring 3.
    pub fn enclave_default(segment_count: usize) -> Manifest {
        Manifest {
            segments: (0..segment_count)
                .map(|segment| SegmentPolicy {
                    segment,
                    ring: Ring::Ring3,
                    visibility: Visibility::Confidential,
                    measured: true,
                })
                .collect(),
        }
    }

    /// A sandbox default: confidential, unmeasured (sandboxes bound a
    /// blast radius; they do not need attestation), ring 3.
    pub fn sandbox_default(segment_count: usize) -> Manifest {
        Manifest {
            segments: (0..segment_count)
                .map(|segment| SegmentPolicy {
                    segment,
                    ring: Ring::Ring3,
                    visibility: Visibility::Confidential,
                    measured: false,
                })
                .collect(),
        }
    }

    /// Marks segment `idx` shared (a communication window with the
    /// creator).
    pub fn share_segment(mut self, idx: usize) -> Manifest {
        if let Some(p) = self.segments.iter_mut().find(|p| p.segment == idx) {
            p.visibility = Visibility::Shared;
            p.measured = false; // shared windows hold runtime data
        }
        self
    }

    /// Policy for segment `idx`, if present.
    pub fn policy(&self, idx: usize) -> Option<&SegmentPolicy> {
        self.segments.iter().find(|p| p.segment == idx)
    }

    /// Validates the manifest against an image's segment count: every
    /// policy must reference an existing segment and no segment may have
    /// two policies.
    pub fn validate(&self, segment_count: usize) -> Result<(), String> {
        let mut seen = vec![false; segment_count];
        for p in &self.segments {
            if p.segment >= segment_count {
                return Err(format!("policy references missing segment {}", p.segment));
            }
            if seen[p.segment] {
                return Err(format!("duplicate policy for segment {}", p.segment));
            }
            seen[p.segment] = true;
            if p.visibility == Visibility::Shared && p.measured {
                return Err(format!(
                    "segment {} is shared and measured; shared windows hold runtime data and cannot have a stable measurement",
                    p.segment
                ));
            }
        }
        Ok(())
    }

    /// Canonical bytes for measurement (order-independent: sorted by
    /// segment index).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut policies = self.segments.clone();
        policies.sort_by_key(|p| p.segment);
        let mut out = Vec::with_capacity(8 + policies.len() * 8);
        out.extend_from_slice(b"tyche-manifest-v1");
        out.extend_from_slice(&(policies.len() as u64).to_le_bytes());
        for p in policies {
            out.extend_from_slice(&(p.segment as u64).to_le_bytes());
            out.push(match p.ring {
                Ring::Ring0 => 0,
                Ring::Ring3 => 3,
            });
            out.push(match p.visibility {
                Visibility::Confidential => 0,
                Visibility::Shared => 1,
            });
            out.push(p.measured as u8);
        }
        out
    }

    /// Serializes to the wire format the manifest ships in next to
    /// binaries. Unlike [`canonical_bytes`](Manifest::canonical_bytes)
    /// (the sorted measurement encoding) this preserves policy order and
    /// round-trips exactly through [`from_bytes`](Manifest::from_bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_MAGIC.len() + 8 + self.segments.len() * 11);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&(self.segments.len() as u64).to_le_bytes());
        for p in &self.segments {
            out.extend_from_slice(&(p.segment as u64).to_le_bytes());
            out.push(match p.ring {
                Ring::Ring0 => 0,
                Ring::Ring3 => 3,
            });
            out.push(match p.visibility {
                Visibility::Confidential => 0,
                Visibility::Shared => 1,
            });
            out.push(p.measured as u8);
        }
        out
    }

    /// Parses the wire format produced by [`to_bytes`](Manifest::to_bytes).
    /// Total: returns `Err` on any malformed input, never panics — the
    /// manifest arrives from an untrusted loader.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, String> {
        let rest = bytes
            .strip_prefix(MANIFEST_MAGIC)
            .ok_or_else(|| "bad manifest magic".to_string())?;
        let (count_bytes, mut rest) = split_at_checked(rest, 8)?;
        let count = u64::from_le_bytes(count_bytes.try_into().expect("8 bytes"));
        let count: usize = count
            .try_into()
            .map_err(|_| "segment count overflows usize".to_string())?;
        // Each policy is 11 bytes; bound before allocating.
        if count > rest.len() / 11 {
            return Err(format!("segment count {count} exceeds payload"));
        }
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            let (entry, tail) = split_at_checked(rest, 11)?;
            rest = tail;
            let segment = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
            let segment: usize = segment
                .try_into()
                .map_err(|_| "segment index overflows usize".to_string())?;
            let ring = match entry[8] {
                0 => Ring::Ring0,
                3 => Ring::Ring3,
                other => return Err(format!("unknown ring {other}")),
            };
            let visibility = match entry[9] {
                0 => Visibility::Confidential,
                1 => Visibility::Shared,
                other => return Err(format!("unknown visibility {other}")),
            };
            let measured = match entry[10] {
                0 => false,
                1 => true,
                other => return Err(format!("bad measured flag {other}")),
            };
            segments.push(SegmentPolicy {
                segment,
                ring,
                visibility,
                measured,
            });
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing bytes after manifest", rest.len()));
        }
        Ok(Manifest { segments })
    }
}

/// Magic prefix of the manifest wire format.
const MANIFEST_MAGIC: &[u8] = b"tyche-manifest-wire-v1";

/// `slice::split_at` that errors instead of panicking on short input.
fn split_at_checked(bytes: &[u8], mid: usize) -> Result<(&[u8], &[u8]), String> {
    if bytes.len() < mid {
        Err(format!(
            "truncated manifest: need {mid} bytes, have {}",
            bytes.len()
        ))
    } else {
        Ok(bytes.split_at(mid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let m = Manifest::enclave_default(3);
        assert_eq!(m.segments.len(), 3);
        assert!(m.segments.iter().all(|p| p.measured));
        assert!(m
            .segments
            .iter()
            .all(|p| p.visibility == Visibility::Confidential));
        let s = Manifest::sandbox_default(2);
        assert!(s.segments.iter().all(|p| !p.measured));
    }

    #[test]
    fn share_segment_unmeasures() {
        let m = Manifest::enclave_default(3).share_segment(1);
        assert_eq!(m.policy(1).unwrap().visibility, Visibility::Shared);
        assert!(!m.policy(1).unwrap().measured);
        assert!(m.policy(0).unwrap().measured);
        assert!(m.validate(3).is_ok());
    }

    #[test]
    fn validate_rejects_bad_manifests() {
        let m = Manifest::enclave_default(3);
        assert!(
            m.validate(2).is_err(),
            "policy references segment 2 of 2-segment image"
        );
        let mut dup = Manifest::enclave_default(2);
        dup.segments.push(dup.segments[0]);
        assert!(dup.validate(2).is_err(), "duplicate policy");
        let mut shared_measured = Manifest::enclave_default(1);
        shared_measured.segments[0].visibility = Visibility::Shared;
        assert!(
            shared_measured.validate(1).is_err(),
            "shared+measured contradiction"
        );
    }

    #[test]
    fn canonical_bytes_order_independent() {
        let a = Manifest::enclave_default(3);
        let mut b = a.clone();
        b.segments.reverse();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // And policy changes change the bytes.
        let c = a.clone().share_segment(0);
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn wire_roundtrip() {
        // The manifest ships next to binaries; serialization must exist
        // and round-trip exactly, including policy order.
        for m in [
            Manifest::default(),
            Manifest::enclave_default(3).share_segment(1),
            Manifest::sandbox_default(5),
        ] {
            let bytes = m.to_bytes();
            assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        }
        let mut reordered = Manifest::enclave_default(3);
        reordered.segments.reverse();
        let back = Manifest::from_bytes(&reordered.to_bytes()).unwrap();
        assert_eq!(back, reordered, "wire format preserves order");
    }

    #[test]
    fn wire_parser_is_total() {
        // The parser must reject, not panic on, malformed input.
        assert!(Manifest::from_bytes(b"").is_err());
        assert!(Manifest::from_bytes(b"not a manifest").is_err());
        let good = Manifest::enclave_default(2).to_bytes();
        assert!(
            Manifest::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Manifest::from_bytes(&trailing).is_err(), "trailing bytes");
        let mut huge_count = good.clone();
        // Claim u64::MAX segments: must be rejected without allocating.
        let magic_len = b"tyche-manifest-wire-v1".len();
        huge_count[magic_len..magic_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Manifest::from_bytes(&huge_count).is_err());
        let mut bad_ring = good.clone();
        bad_ring[magic_len + 8 + 8] = 7;
        assert!(Manifest::from_bytes(&bad_ring).is_err());
    }
}
