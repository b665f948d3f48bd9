//! The monitor-stack metrics registry.
//!
//! Before this module, operational counters were ad-hoc `pub` fields
//! scattered across the interrupt controller and the monitor's `Stats`
//! struct — each with its own naming, reset, and sharing discipline. The
//! registry gives every counter a stable dotted name (the contract the
//! trace/observability tooling exports), one atomic representation, and
//! one cheaply-clonable handle threaded machine-wide exactly like the
//! fault injector: `Machine::new` creates the registry, and every unit
//! that counts (IRQ controller, monitor) holds a clone.
//!
//! Counters are monotone `u64`s with relaxed ordering — they are
//! operational telemetry, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every registered counter. The discriminant doubles as the slot index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Hypercalls dispatched by the monitor.
    MonitorCalls = 0,
    /// Domain transitions served by the mediated (full vmexit) path.
    TransitionsMediated = 1,
    /// Domain transitions served by the VMFUNC-style fast path.
    TransitionsFast = 2,
    /// Monitor calls whose effects the backend refused, so the operation
    /// was rolled back and each implicated domain resynced in full.
    Compensations = 3,
    /// Domains quarantined after a failed compensation.
    Quarantines = 4,
    /// Interrupts raised with no route (dropped).
    IrqSpurious = 5,
    /// Total interrupts raised.
    IrqRaised = 6,
    /// Interrupts lost to injected faults.
    IrqInjectedDrops = 7,
    /// Interrupts duplicated by injected faults.
    IrqInjectedDups = 8,
    /// Work units a backend visited applying memory effects: one per page
    /// of an applied region on x86, one per active memory capability of
    /// the resynced domain on RISC-V. Deterministic, so a change that
    /// makes a one-page effect scale with the domain's RAM shows exactly.
    BackendWork = 9,
}

/// Number of registered counters (slots in the registry).
pub const COUNTERS: usize = 10;

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; COUNTERS] = [
        Counter::MonitorCalls,
        Counter::TransitionsMediated,
        Counter::TransitionsFast,
        Counter::Compensations,
        Counter::Quarantines,
        Counter::IrqSpurious,
        Counter::IrqRaised,
        Counter::IrqInjectedDrops,
        Counter::IrqInjectedDups,
        Counter::BackendWork,
    ];

    /// The counter's stable dotted name. These are exported (by
    /// `repro trace --json` among others) and must not change meaning.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MonitorCalls => "monitor.calls",
            Counter::TransitionsMediated => "monitor.transitions_mediated",
            Counter::TransitionsFast => "monitor.transitions_fast",
            Counter::Compensations => "monitor.compensations",
            Counter::Quarantines => "monitor.quarantines",
            Counter::IrqSpurious => "irq.spurious",
            Counter::IrqRaised => "irq.raised",
            Counter::IrqInjectedDrops => "irq.injected_drops",
            Counter::IrqInjectedDups => "irq.injected_dups",
            Counter::BackendWork => "backend.work_units",
        }
    }
}

/// Shared handle to a machine-wide counter registry.
///
/// Cloning shares the underlying slots (all units on one machine count
/// into the same registry). The default handle is a fresh registry of
/// zeros — units constructed standalone in tests still count correctly.
#[derive(Clone, Debug)]
pub struct Metrics {
    slots: Arc<[AtomicU64; COUNTERS]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl Metrics {
    /// Creates a fresh registry of zeros.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `counter` by one.
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `n`.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(slot) = self.slots.get(counter as usize) {
            // verify: relaxed-ok monotonic diagnostic counter; no data is published through it
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.slots
            .get(counter as usize)
            // verify: relaxed-ok diagnostic read; staleness is acceptable and nothing is ordered after it
            .map(|slot| slot.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Every counter with its stable name, in slot order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let m = Metrics::new();
        for c in Counter::ALL {
            assert_eq!(m.get(c), 0);
        }
    }

    #[test]
    fn bump_and_add_accumulate() {
        let m = Metrics::new();
        m.bump(Counter::MonitorCalls);
        m.add(Counter::MonitorCalls, 4);
        assert_eq!(m.get(Counter::MonitorCalls), 5);
        assert_eq!(m.get(Counter::Quarantines), 0, "slots are independent");
    }

    #[test]
    fn clones_share_slots() {
        let m = Metrics::new();
        let n = m.clone();
        n.bump(Counter::IrqSpurious);
        assert_eq!(m.get(Counter::IrqSpurious), 1);
    }

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.contains(&"monitor.calls"));
        assert!(names.contains(&"irq.injected_dups"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS, "no duplicate names");
    }

    #[test]
    fn snapshot_is_slot_ordered() {
        let m = Metrics::new();
        m.add(Counter::IrqRaised, 3);
        let snap = m.snapshot();
        assert_eq!(snap.len(), COUNTERS);
        assert!(snap.contains(&("irq.raised", 3)));
    }
}
