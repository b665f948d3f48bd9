//! Log-bucketed latency histograms for the process-based harness.
//!
//! HDR-style layout: values below 32 ns land in exact unit buckets;
//! above that, each power-of-two octave is split into 32 linear
//! sub-buckets, bounding the relative quantisation error at 1/32
//! (≈3.2%). Buckets are kept sparse in a `BTreeMap` so a histogram
//! serialises as the handful of buckets it actually touched, which is
//! what lets every child process print its histograms on a single JSON
//! line for the orchestrator to merge.
//!
//! Percentiles are reported from the **upper** bound of the bucket
//! holding the target rank (clamped to the observed max), so the
//! quantisation error only ever overstates latency — the harness never
//! rounds a tail down.

use std::collections::BTreeMap;

use crate::json::Json;

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A sparse log-bucketed histogram of nanosecond latencies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(value: u64) -> u32 {
    if value < SUB_COUNT {
        value as u32
    } else {
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        ((shift + 1) << SUB_BITS) + (((value >> shift) as u32) & (SUB_COUNT as u32 - 1))
    }
}

/// Inclusive `(lower, upper)` value bounds of a bucket.
fn bucket_bounds(index: u32) -> (u64, u64) {
    if index < SUB_COUNT as u32 {
        (u64::from(index), u64::from(index))
    } else {
        let shift = (index >> SUB_BITS) - 1;
        let sub = u64::from(index & (SUB_COUNT as u32 - 1));
        let lower = (SUB_COUNT + sub) << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds. A batched timing (a
    /// clock interval over many sub-100ns operations, where per-op
    /// `Instant` reads would dominate) records its mean as one sample.
    pub fn record(&mut self, ns: u64) {
        *self.buckets.entry(bucket_index(ns)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = ns;
            self.max = ns;
        } else {
            self.min = self.min.min(ns);
            self.max = self.max.max(ns);
        }
        self.count += 1;
        self.sum += u128::from(ns);
    }

    /// Merges `other` into `self`. Merging is commutative and
    /// associative: the orchestrator folds every child invocation's
    /// histogram into one without caring about arrival order.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded sample values in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min_ns(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 if empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample value in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            u64::try_from(self.sum / u128::from(self.count)).unwrap_or(u64::MAX)
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported from the upper
    /// bound of the bucket containing the rank `ceil(q * count)` and
    /// clamped into `[min, max]`. Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, upper) = bucket_bounds(index);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Canonical byte encoding: a domain tag, the summary counters, and
    /// every `(index, count)` pair in ascending index order, all
    /// little-endian. This is both the digest input and the definition
    /// of histogram equality across the process boundary.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.buckets.len() * 12);
        out.extend_from_slice(b"tyche-hist/v1");
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        for (&index, &n) in &self.buckets {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        out
    }

    /// SHA-256 over [`Self::canonical_bytes`], hex-encoded. Each child
    /// process publishes this next to its histograms; the orchestrator
    /// recomputes it from the parsed buckets, so any corruption of a
    /// child's histogram in transit is caught before merging.
    pub fn digest_hex(&self) -> String {
        tyche_crypto::hash(&self.canonical_bytes()).to_hex()
    }

    /// Serialises as a compact JSON object with sparse buckets.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count.to_string())),
            ("sum".into(), Json::Num(self.sum.to_string())),
            ("min".into(), Json::Num(self.min.to_string())),
            ("max".into(), Json::Num(self.max.to_string())),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(&i, &n)| {
                            Json::Arr(vec![Json::Num(i.to_string()), Json::Num(n.to_string())])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`Self::to_json`] encoding, validating that the
    /// bucket counts sum to the advertised total.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let count = value
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("histogram missing count")?;
        let sum = value
            .get("sum")
            .and_then(Json::as_u128)
            .ok_or("histogram missing sum")?;
        let min = value
            .get("min")
            .and_then(Json::as_u64)
            .ok_or("histogram missing min")?;
        let max = value
            .get("max")
            .and_then(Json::as_u64)
            .ok_or("histogram missing max")?;
        let mut buckets = BTreeMap::new();
        let mut total = 0u64;
        for pair in value
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram missing buckets")?
        {
            let pair = pair.as_arr().ok_or("bucket entry is not a pair")?;
            if pair.len() != 2 {
                return Err("bucket entry is not a pair".into());
            }
            let index = u32::try_from(pair[0].as_u64().ok_or("bad bucket index")?)
                .map_err(|_| "bad bucket index".to_string())?;
            let n = pair[1].as_u64().ok_or("bad bucket count")?;
            if buckets.insert(index, n).is_some() {
                return Err(format!("duplicate bucket index {index}"));
            }
            total = total.checked_add(n).ok_or("bucket count overflow")?;
        }
        if total != count {
            return Err(format!(
                "histogram bucket counts sum to {total} but count field says {count}"
            ));
        }
        Ok(Self {
            buckets,
            count,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_below_quantisation() {
        // Values < 32 land in exact unit buckets, so percentiles on a
        // known distribution are exact: 1..=20, each once.
        let mut h = Histogram::new();
        for v in 1..=20 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 10);
        assert_eq!(h.percentile(0.05), 1);
        assert_eq!(h.percentile(0.99), 20);
        assert_eq!(h.percentile(1.0), 20);
        assert_eq!(h.max_ns(), 20);
        assert_eq!(h.min_ns(), 1);
        assert_eq!(h.count(), 20);
        assert_eq!(h.mean_ns(), 10); // (1+...+20)/20 = 10.5 -> 10
    }

    #[test]
    fn quantisation_error_bounded_on_large_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 50_000u64), (0.99, 99_000), (0.999, 99_900)] {
            let got = h.percentile(q);
            // Upper-bound reporting: never below the exact value, never
            // more than one sub-bucket (1/32) above it.
            assert!(got >= exact, "p{q}: {got} < {exact}");
            assert!(
                got <= exact + exact / 32 + 1,
                "p{q}: {got} too far above {exact}"
            );
        }
        assert_eq!(h.percentile(1.0), 100_000);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for v in [3u64, 90, 90, 2_000, 55_000, 55_000, 55_000, 1_000_000] {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.percentile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "percentiles not monotone: {vals:?}");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 17, 300, 4_096, 70_000] {
            a.record(v);
        }
        for v in [1u64, 17, 950, 1 << 40] {
            for _ in 0..3 {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.digest_hex(), ba.digest_hex());
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.sum_ns(), a.sum_ns() + b.sum_ns());
        assert_eq!(ab.min_ns(), 1);
        assert_eq!(ab.max_ns(), 1 << 40);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut h = Histogram::new();
        for v in [0u64, 31, 32, 33, 1_000, u64::MAX / 2] {
            for _ in 0..v % 5 + 1 {
                h.record(v);
            }
        }
        let encoded = h.to_json().to_compact();
        let back = Histogram::from_json(&crate::json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(h, back);
        assert_eq!(h.digest_hex(), back.digest_hex());
    }

    #[test]
    fn from_json_rejects_count_mismatch() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let mut encoded = h.to_json().to_compact();
        // Corrupt one bucket count: 2 samples advertised, 3 present.
        encoded = encoded.replacen("[[", "[[9999, 1], [", 1);
        let err = Histogram::from_json(&crate::json::parse(&encoded).unwrap());
        assert!(
            err.is_err(),
            "corrupted bucket list must not parse: {err:?}"
        );
    }

    #[test]
    fn digest_detects_bucket_tampering() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(50);
            h.record(5_000);
        }
        let honest = h.digest_hex();
        let mut tampered = h.clone();
        tampered.record(5_000); // shift one bucket by one count
        assert_ne!(honest, tampered.digest_hex());
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for v in (0..64).chain([100, 1_000, 123_456, 1 << 33, u64::MAX]) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
            // Relative width bound: hi - lo < lo / 32 for lo >= 32.
            if lo >= 32 {
                assert!(hi - lo <= lo / 32, "bucket too wide at {v}");
            }
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.count(), 0);
        let back =
            Histogram::from_json(&crate::json::parse(&h.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(h, back);
    }
}
