//! The modeled trusted NIC: the fleet's only inter-machine transport.
//!
//! Following the TNIC line of work, the NIC is the one piece of network
//! hardware the fleet trusts: it timestamps and orders frames, but the
//! *wire* between two NICs is attacker-controlled. That split is modeled
//! directly. [`Nic::send`] charges the sending core the descriptor +
//! per-byte pipeline cost and stamps the frame with the sender's clock;
//! [`Nic::enqueue`] is the untrusted delivery path into the receiver's
//! bounded in-order queue, where the seeded fault injector may drop,
//! duplicate, reorder, or corrupt the frame (sites `NicDrop`/`NicDup`/
//! `NicReorder`/`NicCorrupt`, reusing the countdown-plan machinery from
//! [`crate::faults`]); [`Nic::recv`] pops in order, advances the
//! receiving core's clock past the send timestamp (machines are loosely
//! time-synchronized through the fabric, exactly like cross-core IPIs in
//! [`crate::machine::Machine::shootdown`]), and charges the receive cost.
//!
//! Nothing here authenticates payloads: MACs, sequence numbers, and key
//! epochs are the fleet layer's job (`tyche-fleet`), precisely so the
//! adversarial tests can show the *channel* — not the transport —
//! rejecting every tampered frame.

use std::collections::VecDeque;

use tyche_core::trace::{EventKind, TraceSink};

use crate::cycles::{CostModel, PerCoreClocks};
use crate::faults::{FaultSite, Faults};

/// Default bounded queue depth, in frames.
pub const DEFAULT_QUEUE_FRAMES: usize = 64;

/// One frame in flight between two machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The sending machine's fleet id.
    pub src: u64,
    /// The destination machine's fleet id.
    pub dst: u64,
    /// Opaque payload (the fleet layer's MACed channel frame).
    pub payload: Vec<u8>,
    /// The sender-core cycle timestamp when the NIC accepted the frame.
    pub sent_at: u64,
}

/// The receiver's bounded queue had no room for a delivered frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

/// Delivery counters, for reporting and test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames accepted from the local cores for transmission.
    pub sent: u64,
    /// Frames handed to a local core by [`Nic::recv`].
    pub received: u64,
    /// Frames lost in flight (`NicDrop` fired).
    pub dropped: u64,
    /// Extra copies enqueued (`NicDup` fired).
    pub duplicated: u64,
    /// Frames that jumped the queue (`NicReorder` fired).
    pub reordered: u64,
    /// Frames with a payload byte flipped in flight (`NicCorrupt` fired).
    pub corrupted: u64,
    /// Frames (or duplicate copies) refused because the queue was full.
    pub overflowed: u64,
}

/// One machine's trusted NIC: an outbound MAC/DMA pipeline plus a
/// bounded, in-order inbound queue.
///
/// Owned by [`crate::machine::Machine`]; the fault injector and trace
/// sink are the machine-wide handles, wired by `Machine::new`.
#[derive(Debug, Default)]
pub struct Nic {
    machine_id: u64,
    capacity: usize,
    inbox: VecDeque<Frame>,
    faults: Faults,
    trace: TraceSink,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC with an inbound queue of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Nic {
            capacity: capacity.max(1),
            ..Nic::default()
        }
    }

    /// Sets the owning machine's fleet id (stamped into outbound frames).
    pub fn set_machine_id(&mut self, id: u64) {
        self.machine_id = id;
    }

    /// The owning machine's fleet id.
    pub fn machine_id(&self) -> u64 {
        self.machine_id
    }

    /// Attaches the machine-wide fault injector (done by `Machine::new`).
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Attaches the machine-wide trace sink (done by `Machine::new`).
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Delivery counters since construction.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Frames currently queued for delivery.
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }

    /// A local core posts one frame for `dst`. Charges the per-frame
    /// descriptor cost plus the per-byte pipeline cost to `core`, emits a
    /// [`EventKind::NicSend`] event, and returns the stamped frame for the
    /// fabric (the fleet) to carry to the destination NIC.
    pub fn send(
        &mut self,
        core: usize,
        clocks: &PerCoreClocks,
        cost: &CostModel,
        dst: u64,
        payload: Vec<u8>,
    ) -> Frame {
        let bytes = payload.len() as u64;
        clocks.charge(core, cost.nic_send + bytes * cost.nic_byte);
        self.trace
            .emit(core as u32, EventKind::NicSend { to: dst, bytes });
        self.stats.sent += 1;
        Frame {
            src: self.machine_id,
            dst,
            payload,
            sent_at: clocks.now(core),
        }
    }

    /// The untrusted wire delivers `frame` into this NIC's bounded queue.
    ///
    /// The seeded fault plans are consulted here, one countdown visit per
    /// site per frame, in a fixed order: drop (frame lost), corrupt (one
    /// payload byte flipped), dup (a second copy enqueued behind the
    /// first), reorder (the frame jumps to the queue head). A full queue
    /// refuses the frame with [`QueueFull`]; a dropped frame is *not* an
    /// error — the wire owes nobody delivery.
    pub fn enqueue(&mut self, mut frame: Frame) -> Result<(), QueueFull> {
        if self.faults.fire(FaultSite::NicDrop) {
            self.stats.dropped += 1;
            return Ok(());
        }
        if self.faults.fire(FaultSite::NicCorrupt) {
            let mid = frame.payload.len() / 2;
            if let Some(byte) = frame.payload.get_mut(mid) {
                *byte ^= 0x80;
            }
            self.stats.corrupted += 1;
        }
        let dup = self.faults.fire(FaultSite::NicDup);
        let reorder = self.faults.fire(FaultSite::NicReorder);
        if self.inbox.len() >= self.capacity {
            self.stats.overflowed += 1;
            return Err(QueueFull);
        }
        if reorder {
            self.stats.reordered += 1;
            self.inbox.push_front(frame.clone());
        } else {
            self.inbox.push_back(frame.clone());
        }
        if dup {
            if self.inbox.len() < self.capacity {
                self.stats.duplicated += 1;
                self.inbox.push_back(frame);
            } else {
                self.stats.overflowed += 1;
            }
        }
        Ok(())
    }

    /// A local core polls the queue. Pops the head frame in order,
    /// advances `core`'s clock past the frame's send timestamp (the
    /// cross-machine analogue of the IPI `advance_to` handoff), charges
    /// the per-frame + per-byte receive cost, and emits
    /// [`EventKind::NicRecv`]. Returns `None` on an empty queue.
    pub fn recv(&mut self, core: usize, clocks: &PerCoreClocks, cost: &CostModel) -> Option<Frame> {
        let frame = self.inbox.pop_front()?;
        clocks.advance_to(core, frame.sent_at);
        let bytes = frame.payload.len() as u64;
        clocks.charge(core, cost.nic_recv + bytes * cost.nic_byte);
        self.trace.emit(
            core as u32,
            EventKind::NicRecv {
                from: frame.src,
                bytes,
            },
        );
        self.stats.received += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn rig() -> (Nic, PerCoreClocks, CostModel) {
        let mut nic = Nic::new(4);
        nic.set_machine_id(7);
        (nic, PerCoreClocks::new(2), CostModel::default_model())
    }

    #[test]
    fn send_charges_and_stamps() {
        let (mut nic, clocks, cost) = rig();
        let f = nic.send(0, &clocks, &cost, 3, vec![0xaa; 10]);
        assert_eq!(f.src, 7);
        assert_eq!(f.dst, 3);
        let expect = cost.nic_send + 10 * cost.nic_byte;
        assert_eq!(clocks.now(0), expect);
        assert_eq!(f.sent_at, expect);
        assert_eq!(nic.stats().sent, 1);
    }

    #[test]
    fn queue_is_fifo_and_bounded() {
        let (mut nic, clocks, cost) = rig();
        for i in 0..4u8 {
            let f = nic.send(0, &clocks, &cost, 7, vec![i]);
            nic.enqueue(f).unwrap();
        }
        let extra = nic.send(0, &clocks, &cost, 7, vec![99]);
        assert_eq!(nic.enqueue(extra), Err(QueueFull));
        assert_eq!(nic.stats().overflowed, 1);
        let order: Vec<u8> = (0..4)
            .map(|_| nic.recv(1, &clocks, &cost).unwrap().payload[0])
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(nic.recv(1, &clocks, &cost).is_none());
    }

    #[test]
    fn recv_advances_past_send_timestamp() {
        let (mut nic, clocks, cost) = rig();
        let f = nic.send(0, &clocks, &cost, 7, vec![1, 2, 3]);
        let sent_at = f.sent_at;
        nic.enqueue(f).unwrap();
        let got = nic.recv(1, &clocks, &cost).unwrap();
        assert_eq!(got.payload, vec![1, 2, 3]);
        assert_eq!(clocks.now(1), sent_at + cost.nic_recv + 3 * cost.nic_byte);
    }

    #[test]
    fn drop_dup_reorder_corrupt_fault_paths() {
        let (mut nic, clocks, cost) = rig();
        let faults = Faults::new();
        nic.set_faults(faults.clone());

        // Drop: the first delivery vanishes.
        faults.arm(FaultPlan::once(FaultSite::NicDrop));
        let f = nic.send(0, &clocks, &cost, 7, vec![1]);
        nic.enqueue(f).unwrap();
        assert_eq!(nic.pending(), 0);
        assert_eq!(nic.stats().dropped, 1);

        // Dup: one send, two queued copies.
        faults.arm(FaultPlan::once(FaultSite::NicDup));
        let f = nic.send(0, &clocks, &cost, 7, vec![2]);
        nic.enqueue(f).unwrap();
        assert_eq!(nic.pending(), 2);
        assert_eq!(nic.stats().duplicated, 1);

        // Reorder: the next frame jumps both queued copies.
        faults.arm(FaultPlan::once(FaultSite::NicReorder));
        let f = nic.send(0, &clocks, &cost, 7, vec![3]);
        nic.enqueue(f).unwrap();
        assert_eq!(nic.recv(1, &clocks, &cost).unwrap().payload, vec![3]);

        // Corrupt: byte at len/2 is flipped with the documented mask.
        faults.arm(FaultPlan::once(FaultSite::NicCorrupt));
        let f = nic.send(0, &clocks, &cost, 7, vec![0, 0, 0, 0]);
        nic.enqueue(f).unwrap();
        // Drain the two dup'd copies first (FIFO behind the reordered one).
        assert_eq!(nic.recv(1, &clocks, &cost).unwrap().payload, vec![2]);
        assert_eq!(nic.recv(1, &clocks, &cost).unwrap().payload, vec![2]);
        let corrupted = nic.recv(1, &clocks, &cost).unwrap();
        assert_eq!(corrupted.payload, vec![0, 0, 0x80, 0]);
        assert_eq!(nic.stats().corrupted, 1);
    }

    #[test]
    fn fault_plans_replay_identically() {
        let run = || {
            let (mut nic, clocks, cost) = rig();
            let faults = Faults::new();
            nic.set_faults(faults.clone());
            faults.arm(FaultPlan::after(FaultSite::NicDrop, 2, 1));
            faults.arm(FaultPlan::after(FaultSite::NicDup, 0, 2));
            let mut seen = Vec::new();
            for i in 0..6u8 {
                let f = nic.send(0, &clocks, &cost, 7, vec![i]);
                let _ = nic.enqueue(f);
                while let Some(got) = nic.recv(1, &clocks, &cost) {
                    seen.push(got.payload[0]);
                }
            }
            (seen, nic.stats())
        };
        assert_eq!(run(), run());
    }
}
