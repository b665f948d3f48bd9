//! Checked wall-clock arithmetic for the bench layer.
//!
//! The original `repro` binary had three silent measurement bugs this
//! module exists to make impossible:
//!
//! * `elapsed().as_nanos() as u64 / n` truncated the u128 nanosecond
//!   total **before** dividing, so a long window wrapped instead of
//!   erroring;
//! * `u64::try_from(..).unwrap_or(u64::MAX)` saturated overflows into a
//!   legal-looking number;
//! * `ops.max(1)` turned a zero-op timing window (a loop that never
//!   ran) into "one op that cost the whole setup" instead of a failure.
//!
//! Every conversion here divides in u128 first and surfaces the failure
//! modes as explicit errors that abort the run.

use std::time::Duration;

/// Why a timing conversion could not produce an honest number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The timed window executed zero operations; a per-op figure would
    /// be the window's setup cost in disguise.
    ZeroOps,
    /// The per-op quotient was below 1 ns: either the clock resolution
    /// cannot support the claim or the op count is wrong. The total
    /// window and op count are carried for the error message.
    SubNanosecond {
        /// Total window duration in nanoseconds.
        total_ns: u128,
        /// Number of operations in the window.
        ops: u128,
    },
    /// The nanosecond value does not fit in `u64` (a >584-year window
    /// or a corrupted counter) — never silently saturate it.
    Saturated {
        /// The out-of-range nanosecond value.
        ns: u128,
    },
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::ZeroOps => {
                write!(f, "timing window executed zero operations")
            }
            TimingError::SubNanosecond { total_ns, ops } => write!(
                f,
                "per-op quotient below clock resolution: {total_ns} ns / {ops} ops < 1 ns"
            ),
            TimingError::Saturated { ns } => {
                write!(f, "nanosecond value {ns} overflows u64")
            }
        }
    }
}

/// Converts a whole duration to `u64` nanoseconds, refusing to
/// saturate.
pub fn total_ns(elapsed: Duration) -> Result<u64, TimingError> {
    let ns = elapsed.as_nanos();
    u64::try_from(ns).map_err(|_| TimingError::Saturated { ns })
}

/// Per-operation nanoseconds over a timed window: divides in u128 and
/// only then narrows, erroring on zero ops, sub-ns quotients, and
/// overflow instead of reporting 0 / `u64::MAX` / a wrapped value.
pub fn per_op_ns(elapsed: Duration, ops: usize) -> Result<u64, TimingError> {
    let total = elapsed.as_nanos();
    if ops == 0 {
        return Err(TimingError::ZeroOps);
    }
    let quotient = total / ops as u128;
    if quotient == 0 && total > 0 {
        return Err(TimingError::SubNanosecond {
            total_ns: total,
            ops: ops as u128,
        });
    }
    if quotient == 0 {
        // A genuinely unmeasurable window (total == 0): the clock did
        // not tick at all. Report it as sub-resolution too — a 0 ns/op
        // claim is exactly the dishonesty this module exists to stop.
        return Err(TimingError::SubNanosecond {
            total_ns: total,
            ops: ops as u128,
        });
    }
    u64::try_from(quotient).map_err(|_| TimingError::Saturated { ns: quotient })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_divides_in_u128() {
        let d = Duration::from_secs(3);
        assert_eq!(per_op_ns(d, 1_000), Ok(3_000_000));
        assert_eq!(per_op_ns(d, 1), Ok(3_000_000_000));
    }

    #[test]
    fn zero_ops_is_a_hard_error() {
        assert_eq!(
            per_op_ns(Duration::from_secs(1), 0),
            Err(TimingError::ZeroOps)
        );
    }

    #[test]
    fn sub_ns_quotient_is_an_error_not_zero() {
        let err = per_op_ns(Duration::from_nanos(3), 10).unwrap_err();
        assert_eq!(
            err,
            TimingError::SubNanosecond {
                total_ns: 3,
                ops: 10
            }
        );
        // An untickled clock is also not a 0 ns/op claim.
        assert!(matches!(
            per_op_ns(Duration::from_nanos(0), 10),
            Err(TimingError::SubNanosecond { .. })
        ));
    }

    #[test]
    fn saturation_is_an_error_not_u64_max() {
        // u64::MAX seconds is ~5.8e28 ns, far beyond u64 nanoseconds.
        let huge = Duration::new(u64::MAX, 0);
        assert!(matches!(
            per_op_ns(huge, 1),
            Err(TimingError::Saturated { .. })
        ));
        assert!(matches!(total_ns(huge), Err(TimingError::Saturated { .. })));
        // But dividing it down across enough ops is fine.
        assert!(per_op_ns(huge, 1 << 40).is_ok());
    }

    #[test]
    fn total_ns_roundtrips_ordinary_windows() {
        assert_eq!(total_ns(Duration::from_micros(84)), Ok(84_000));
    }
}
