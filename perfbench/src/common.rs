//! Shared plumbing: load limits, latency samples, seeded inputs, the
//! end-to-end metric set, and host measurements.

use std::time::Instant;

use tyche_bench::histogram::Histogram;
use tyche_bench::json::Json;
use tyche_crypto::ChaChaRng;

/// How long one load phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Closed loop for a wall-clock budget (the benchmark's normal mode).
    Seconds(f64),
    /// Closed loop for an exact number of ops (self-tests): with a fixed
    /// op count every model-clock figure repeats exactly.
    Ops(u64),
}

impl Limit {
    /// True once the phase that started at `start` has started `ops` ops.
    pub fn reached(&self, start: Instant, ops: u64) -> bool {
        match *self {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Limit::Ops(n) => ops >= n,
        }
    }
}

/// The outcome of one closed-loop load phase.
#[derive(Debug, Default)]
pub struct Load {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or never completed.
    pub failed: u64,
    /// Host seconds the phase ran, less the reference kernel's runs.
    pub wall_s: f64,
    /// The same time on the reference clock (see [`Meter`]).
    pub ref_s: f64,
    /// Host latency of every completed op.
    pub wall_lat: Histogram,
    /// Latency of every completed op on the reference clock.
    pub lat: Histogram,
    /// Host ns of each timed run of the reference kernel.
    pub kernel_ns: Vec<f64>,
    /// Model cycles the modelled machine(s) spent on the phase.
    pub sim_cycles: u64,
    /// Output-check failures; empty means every output was correct.
    pub problems: Vec<String>,
    /// Why the first few failed ops failed (every failure is counted).
    pub fail_notes: Vec<String>,
}

impl Load {
    /// Ops that completed without error.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Records a failed op with a reason (the first few reasons are kept
    /// for the report; every failure is counted).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.fail_notes.len() < 8 {
            self.fail_notes.push(why());
        }
    }

    /// Adds another phase's op counts, failure notes and check problems
    /// (but not its timings) to this one.
    pub fn add_counts(&mut self, other: Load) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        let room = 8usize.saturating_sub(self.fail_notes.len());
        self.fail_notes
            .extend(other.fail_notes.into_iter().take(room));
    }

    /// Completed ops per host second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.completed() as f64, self.wall_s)
    }

    /// Completed ops per reference second over the whole phase.
    pub fn ref_ops_per_s(&self) -> f64 {
        ratio(self.completed() as f64, self.ref_s)
    }
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tail over every sample in `lat`: p99, or the highest quantile with
/// ten samples beyond it. Returns the value, the quantile read and the
/// samples beyond it.
pub fn tail(lat: &Histogram) -> (f64, f64, usize) {
    let n = lat.count() as usize;
    let q = tail_quantile(n);
    (quantile(lat, q), q, samples_beyond(n, q))
}

/// The `q`-quantile of `lat`, interpolated linearly inside the bucket
/// that holds rank `q * count` and clamped into `[min, max]`.
/// [`Histogram::percentile`] reports the bucket's upper bound instead,
/// which steps by 1/32 of the value: two runs whose medians differ by
/// 1% then read either the same or 3% apart.
pub fn quantile(lat: &Histogram, q: f64) -> f64 {
    let n = lat.count();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).clamp(0.0, n as f64);
    let buckets = lat.to_json();
    let buckets = buckets.get("buckets").and_then(Json::as_arr).unwrap_or(&[]);
    let mut seen = 0.0;
    for b in buckets {
        let num = |i: usize| {
            b.as_arr()
                .and_then(|a| a.get(i))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let (index, count) = (num(0) as u32, num(1) as f64);
        if seen + count >= rank && count > 0.0 {
            let (lower, upper) = bucket_bounds(index);
            let width = (upper - lower + 1) as f64;
            let v = lower as f64 + width * (rank - seen) / count;
            return v.clamp(lat.min_ns() as f64, lat.max_ns() as f64);
        }
        seen += count;
    }
    lat.max_ns() as f64
}

/// Inclusive value bounds of bucket `index` of [`Histogram`] (its 32
/// linear sub-buckets per power of two).
fn bucket_bounds(index: u32) -> (u64, u64) {
    if index < 32 {
        (u64::from(index), u64::from(index))
    } else {
        let shift = (index >> 5) - 1;
        let lower = (32 + u64::from(index & 31)) << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// Host ns one warm pass of [`RefKernel`] takes on the reference clock:
/// a figure on that clock is what the host figure would be if the host
/// ran the kernel in exactly this time. The value is a fixed scale,
/// within the 0.37 to 0.84 ms the kernel took on the 2-vCPU Xeon VM the
/// benchmark was written on.
pub const KERNEL_REF_NS: f64 = 600_000.0;

/// Host time of load between two runs of the reference kernel.
pub const WINDOW_NS: u64 = 20_000_000;

/// A fixed piece of work that belongs to the benchmark, not to the
/// program, in two parts like the workloads' host work: random
/// read-modify-writes over a 2 MiB table plus a 512 KiB copy (the memory
/// traffic of engine clones), and 3000 heap allocations of 64 B to 1 KiB
/// that are filled, copied and freed (the small buffers of hypercalls and
/// fleet frames). On a shared host both slow down when neighbours load
/// the caches and the memory system, and that, not the seed, is what
/// moves the workloads' host times from run to run.
pub struct RefKernel {
    table: Vec<u64>,
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Default for RefKernel {
    fn default() -> RefKernel {
        RefKernel {
            table: (0..1u64 << 18).collect(),
            src: (0..1u64 << 16).collect(),
            dst: vec![0; 1 << 16],
        }
    }
}

impl RefKernel {
    fn pass(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..40_000 {
            let r = step();
            let i = (r as usize) & mask;
            self.table[i] = self.table[i].wrapping_add(r);
            acc ^= self.table[i].rotate_left(7);
        }
        self.dst.copy_from_slice(&self.src);
        acc ^= self.dst[acc as usize & (self.dst.len() - 1)];
        for _ in 0..3000 {
            let r = step();
            let v = vec![r as u8; 64 + (r as usize & 1023)];
            let copy = Box::new(v.clone());
            acc ^= u64::from(copy[copy.len() / 2]) ^ v.len() as u64;
        }
        acc
    }

    /// Host ns of one warm pass. An untimed pass first brings the table
    /// back into cache and the allocator's free lists back to the
    /// kernel's sizes, so what the program left behind does not change
    /// the figure.
    pub fn time(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        let t0 = Instant::now();
        std::hint::black_box(self.pass());
        ns_since(t0) as f64
    }
}

/// The scale from host to reference time of work that ran between two
/// runs of the [`RefKernel`] that took `before` and `after` host ns.
pub fn ref_scale(before: f64, after: f64) -> f64 {
    2.0 * KERNEL_REF_NS / (before + after)
}

/// Puts a load phase on the reference clock. The phase runs in windows
/// of [`WINDOW_NS`] host time with a run of the [`RefKernel`] between
/// them; the kernel's mean time at a window's two ends gives the window's
/// scale, `KERNEL_REF_NS / kernel ns`, and every latency and the busy
/// time of the window are counted both as measured (host clock) and
/// times that scale (reference clock). The kernel's own runs are on
/// neither clock.
pub struct Meter {
    kernel: RefKernel,
    window: Vec<u64>,
    start: Instant,
    before: f64,
}

impl Default for Meter {
    fn default() -> Meter {
        let mut kernel = RefKernel::default();
        let before = kernel.time();
        Meter {
            kernel,
            window: Vec::new(),
            start: Instant::now(),
            before,
        }
    }
}

impl Meter {
    /// Records one completed op's host latency.
    pub fn record(&mut self, ns: u64) {
        self.window.push(ns);
    }

    /// Closes the window into `load` once it has run [`WINDOW_NS`].
    pub fn tick(&mut self, load: &mut Load) {
        if ns_since(self.start) >= WINDOW_NS {
            self.finish(load);
        }
    }

    /// Closes the current window into `load` (at the end of the phase).
    pub fn finish(&mut self, load: &mut Load) {
        let wall = ns_since(self.start) as f64;
        let after = self.kernel.time();
        let scale = ref_scale(self.before, after);
        for ns in self.window.drain(..) {
            load.wall_lat.record(ns);
            load.lat.record((ns as f64 * scale).round() as u64);
        }
        load.wall_s += wall / 1e9;
        load.ref_s += wall * scale / 1e9;
        load.kernel_ns.push(after);
        self.before = after;
        self.start = Instant::now();
    }
}

/// Nanoseconds since `t0`, saturating (a run never lasts 584 years).
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The tail quantile to report for `n` samples: p99, or the highest
/// quantile that still leaves at least ten samples above it.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    ((n as f64 - 10.5) / n as f64).min(0.99)
}

/// Samples above the `q`-quantile of `n` samples, which
/// [`Histogram::percentile`] reads at rank `ceil(q * n)`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Median of a small set of floats (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values` (sorts in place): as robust to a
/// few outliers as the median, but it keeps the digits of the values it
/// averages.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let (lo, hi) = (n / 4, n - n / 4);
    let mid = &values[lo..hi.max(lo + 1)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 where
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's input generator. Everything the monitor sees that is
/// not fixed by the workload definition (visit order, nonces, payload
/// bytes) comes from here, so one seed gives one input sequence.
pub fn input_rng(seed: u64, workload: &str) -> ChaChaRng {
    ChaChaRng::new(tyche_crypto::hash_parts(&[workload.as_bytes(), &seed.to_le_bytes()]).0)
}

/// A seeded Fisher–Yates permutation of `items`.
pub fn shuffle<T>(rng: &mut ChaChaRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The set-up time of each of a run's set-up repetitions, on both clocks.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// Host seconds.
    pub host: Vec<f64>,
    /// Reference seconds.
    pub reference: Vec<f64>,
}

/// The end-to-end figures the result line carries, and so
/// `BENCHMARK.json` bounds. The rest of [`EndToEnd::rows`] is printed and
/// kept in the provenance record: `failed_frac` reads 0 on a healthy
/// tree, `ref_op_p99_ns` of `smp_churn_10k` is set by how many of its
/// millisecond calls a host stall lands in, and the host-clock figures
/// move with the shared host's speed.
pub const BOUNDED: [&str; 5] = [
    "setup_s",
    "ref_ops_per_s",
    "ref_op_p50_ns",
    "sim_ops_per_mcycle",
    "rss_peak_mb",
];

/// The end-to-end figures of one workload run.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-up repetitions, on the
    /// reference clock (the name is fixed by the benchmark contract).
    pub setup_s: f64,
    /// The same on the host clock.
    pub host_setup_s: f64,
    /// Completed ops per reference second over the load phase.
    pub ref_ops_per_s: f64,
    /// Median reference ns per op.
    pub ref_op_p50_ns: f64,
    /// Tail reference ns per op over every sample (see [`tail`]).
    pub ref_op_p99_ns: f64,
    /// The quantile read for the tails (0.99 unless samples were few).
    pub tail_q: f64,
    /// Samples beyond the tail quantile.
    pub beyond: usize,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Completed ops per million model cycles of makespan.
    pub sim_ops_per_mcycle: f64,
    /// (errored + refused + never delivered) / attempted.
    pub failed_frac: f64,
    /// Peak RSS of this process, MiB.
    pub rss_peak_mb: f64,
    /// Completed ops per host second over the load phase.
    pub ops_per_s: f64,
    /// Median host ns per op.
    pub op_p50_ns: f64,
    /// Tail host ns per op, at the same quantile as `ref_op_p99_ns`.
    pub op_p99_ns: f64,
    /// Median host ns of the reference kernel over the load phase.
    pub kernel_ns: f64,
}

impl EndToEnd {
    /// Derives the figures from a load phase and its set-up times.
    pub fn from_load(load: &Load, setup: &SetupTimes) -> EndToEnd {
        let (ref_op_p99_ns, tail_q, beyond) = tail(&load.lat);
        EndToEnd {
            setup_s: median(&mut setup.reference.clone()),
            host_setup_s: median(&mut setup.host.clone()),
            ref_ops_per_s: load.ref_ops_per_s(),
            ref_op_p50_ns: quantile(&load.lat, 0.5),
            ref_op_p99_ns,
            tail_q,
            beyond,
            samples: load.lat.count() as usize,
            sim_ops_per_mcycle: ratio(load.completed() as f64 * 1e6, load.sim_cycles as f64),
            failed_frac: ratio(load.failed as f64, load.attempted as f64),
            rss_peak_mb: rss_peak_mb(),
            ops_per_s: load.ops_per_s(),
            op_p50_ns: quantile(&load.wall_lat, 0.5),
            op_p99_ns: tail(&load.wall_lat).0,
            kernel_ns: median(&mut load.kernel_ns.clone()),
        }
    }

    /// The rows of [`Self::rows`] that the result line carries.
    pub fn bounded_rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.rows()
            .into_iter()
            .filter(|(name, _, _)| BOUNDED.contains(name))
            .collect()
    }

    /// `(name, value, unit)` for every figure, in report order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ref_ops_per_s", self.ref_ops_per_s, "1/ref_s"),
            ("ref_op_p50_ns", self.ref_op_p50_ns, "ref_ns"),
            ("ref_op_p99_ns", self.ref_op_p99_ns, "ref_ns"),
            ("sim_ops_per_mcycle", self.sim_ops_per_mcycle, "1/Mcycle"),
            ("failed_frac", self.failed_frac, "ratio"),
            ("rss_peak_mb", self.rss_peak_mb, "MiB"),
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("op_p50_ns", self.op_p50_ns, "ns"),
            ("op_p99_ns", self.op_p99_ns, "ns"),
            ("host_setup_s", self.host_setup_s, "s"),
            ("ref_kernel_ns", self.kernel_ns, "ns"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [11usize, 12, 50, 999, 1000, 1001, 5000, 123_457] {
            let q = tail_quantile(n);
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
        assert_eq!(samples_beyond(11, tail_quantile(11)), 10);
        assert_eq!(tail_quantile(100_000), 0.99);
    }

    #[test]
    fn quantile_interpolates_inside_buckets() {
        let mut h = Histogram::default();
        for v in 1000..2000u64 {
            h.record(v);
        }
        for (q, want) in [(0.25, 1250.0), (0.5, 1500.0), (0.9, 1900.0)] {
            let got = quantile(&h, q);
            assert!((got - want).abs() <= 2.0, "q={q}: {got} vs {want}");
            assert!(got <= h.percentile(q) as f64);
        }
        assert_eq!(quantile(&h, 1.0), 1999.0);
        assert_eq!(quantile(&Histogram::default(), 0.5), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        shuffle(&mut input_rng(7, "w"), &mut a);
        shuffle(&mut input_rng(7, "w"), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
