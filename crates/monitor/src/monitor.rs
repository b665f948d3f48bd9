//! The monitor runtime: call dispatch, mediated transitions, fast
//! transitions, and memory access on behalf of the running domain.
//!
//! The monitor is the *executive* branch only (§3): it validates and
//! enforces policies that running domains define through the call API,
//! and it mediates every control transfer. It never chooses policies
//! itself.
// Approved panic paths: every `expect(` in this module is budgeted,
// with a reviewed reason, in crates/verify/allowlist.toml.
#![allow(clippy::expect_used)]

use crate::abi::{MonitorCall, Status};
use crate::attest::SignedReport;
use crate::backend::riscv::RiscvBackend;
use crate::backend::x86::X86Backend;
use crate::backend::{merge_regions, BackendError};
use std::collections::{BTreeSet, HashMap};
use tyche_core::attest::DomainReport;
use tyche_core::metrics::{Counter, Metrics};
use tyche_core::prelude::*;
use tyche_core::trace::{EventKind, TraceSink};
use tyche_crypto::sign::SigningKey;
use tyche_crypto::Digest;
use tyche_hw::machine::Machine;
use tyche_hw::x86::vcpu::VCpu;
use tyche_hw::x86::vmcs::Vmcs;

/// Target architecture of a booted monitor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arch {
    /// Intel VT-x: EPT, VMCALL, VMFUNC, I/O-MMU.
    X86,
    /// RISC-V: machine mode + PMP.
    RiscV,
}

impl Arch {
    /// One trap round trip into the monitor (VM exit or M-mode trap).
    pub fn trap_cost(self, cost: &tyche_hw::cycles::CostModel) -> u64 {
        match self {
            Arch::X86 => cost.vmexit_roundtrip,
            Arch::RiscV => cost.mmode_trap_roundtrip,
        }
    }
}

/// A memory fault taken by the running domain (the hardware event the
/// monitor sees; the domain gets no access).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Faulting physical address.
    pub addr: u64,
    /// True for writes, false for reads/fetches.
    pub write: bool,
}

/// Successful results of monitor calls.
#[derive(Clone, Debug, PartialEq)]
pub enum CallResult {
    /// Nothing to return.
    Unit,
    /// A new domain and the transition capability into it.
    NewDomain {
        /// The created domain.
        domain: DomainId,
        /// Transition capability owned by the caller.
        transition: CapId,
    },
    /// A single capability.
    Cap(CapId),
    /// Two capabilities (split pieces).
    Caps(CapId, CapId),
    /// A measurement (seal).
    Measurement(Digest),
    /// A resource count (enumerate).
    Count(u64),
    /// A signed attestation report.
    Report(Box<SignedReport>),
    /// Control transferred into another domain.
    Entered {
        /// The domain now running on the core.
        target: DomainId,
        /// Its entry point.
        entry: u64,
    },
    /// Control returned to the calling domain.
    Returned {
        /// The domain now running on the core.
        to: DomainId,
    },
}

/// Transition bookkeeping for returns.
#[derive(Clone, Copy, Debug)]
struct Frame {
    caller: DomainId,
    /// Flush policy of the transition capability (applied again on the
    /// way back so the callee's micro-architectural state is scrubbed).
    policy: RevocationPolicy,
    /// Whether this frame was entered through the fast (VMFUNC) path.
    fast: bool,
    /// The caller's VMFUNC slot, captured at fast-enter time so the fast
    /// return needs no lookup. Sound to cache: a stacked caller cannot be
    /// killed, so its slot cannot be recycled while the frame is live.
    caller_slot: Option<usize>,
}

/// A point-in-time snapshot of the runtime counters (used by the
/// benches). Built from the machine-wide metrics registry by
/// [`Monitor::stats`]; the field names are the registry's dotted
/// counter names with the `monitor.`/`transitions.` prefixes folded in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Monitor calls dispatched.
    pub calls: u64,
    /// Mediated transitions (enter + return).
    pub transitions_mediated: u64,
    /// Fast-path transitions (VMFUNC).
    pub transitions_fast: u64,
    /// Backend compensations (rolled-back operations).
    pub compensations: u64,
    /// Domains quarantined after unrecoverable backend faults.
    pub quarantines: u64,
}

/// The isolation monitor.
pub struct Monitor {
    /// The simulated machine.
    pub machine: Machine,
    /// The capability engine (the paper's verified core).
    pub engine: CapEngine,
    arch: Arch,
    x86: Option<X86Backend>,
    riscv: Option<RiscvBackend>,
    /// Per-core vCPUs (x86).
    vcpus: Vec<VCpu>,
    /// Per-core current domain.
    current: Vec<DomainId>,
    /// Per-core call stacks.
    stacks: Vec<Vec<Frame>>,
    sign_key: SigningKey,
    monitor_measurement: Digest,
    /// Validated fast-path entries: `(core, caller, cap)` → `(target,
    /// entry, vmfunc slot)`. Valid only while `fast_cache_gen` matches
    /// the engine's generation counter — revoke/kill/seal/grant bump it,
    /// which drops every cached validation at the next fast enter.
    fast_cache: HashMap<(usize, DomainId, CapId), (DomainId, u64, usize)>,
    fast_cache_gen: u64,
    /// Counter registry (a clone of the machine's master handle).
    metrics: Metrics,
    /// Trace sink (a clone of the machine's master handle; the engine
    /// holds its own clone, installed at assembly).
    trace: TraceSink,
    /// Effect buffer swapped with the engine's on every drain, so
    /// applying a call's effects allocates nothing once both have grown.
    effect_buf: Vec<Effect>,
    /// Coalescing scratch: the batch position of each domain's last
    /// effect of each [`coalesce_key`] kind.
    last_effect: HashMap<(DomainId, u8), usize>,
    /// Coalescing scratch: each domain's union of the batch's memory
    /// effect regions, sorted by domain (see
    /// [`coalesce_effects`](Self::coalesce_effects)).
    mem_unions: Vec<(DomainId, MemRegion)>,
}

/// Coalesced effect kinds: a mem resync, a TLB flush, a cache flush.
const SYNC: u8 = 0;
const TLB: u8 = 1;
const CACHE: u8 = 2;

/// The `(domain, kind)` an effect coalesces under, if it coalesces.
fn coalesce_key(fx: &Effect) -> Option<(DomainId, u8)> {
    match fx {
        Effect::MapMem { domain, .. } | Effect::UnmapMem { domain, .. } => Some((*domain, SYNC)),
        Effect::FlushTlb { domain } => Some((*domain, TLB)),
        Effect::FlushCache { domain } => Some((*domain, CACHE)),
        _ => None,
    }
}

impl Monitor {
    /// Assembles a monitor; used by [`crate::boot`]. Not public API for
    /// applications — boot through [`crate::boot::boot_x86`] /
    /// [`crate::boot::boot_riscv`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        machine: Machine,
        mut engine: CapEngine,
        arch: Arch,
        x86: Option<X86Backend>,
        riscv: Option<RiscvBackend>,
        root: DomainId,
        sign_key: SigningKey,
        monitor_measurement: Digest,
    ) -> Self {
        let cores = machine.cores;
        // The machine owns the master trace/metrics handles; the engine
        // and the monitor record into clones of the same sinks.
        engine.set_trace(machine.trace.clone());
        let trace = machine.trace.clone();
        let metrics = machine.metrics.clone();
        let mut vcpus = Vec::new();
        if let Some(b) = &x86 {
            let root_ept = b.ept_root(root).expect("root domain has a space");
            for core in 0..cores {
                let mut vmcs = Vmcs::new(root_ept);
                vmcs.eptp_list = Some(b.eptp_list());
                vcpus.push(VCpu::new(core, vmcs));
            }
        }
        Monitor {
            machine,
            engine,
            arch,
            x86,
            riscv,
            vcpus,
            current: vec![root; cores],
            stacks: vec![Vec::new(); cores],
            sign_key,
            monitor_measurement,
            fast_cache: HashMap::new(),
            fast_cache_gen: 0,
            metrics,
            trace,
            effect_buf: Vec::new(),
            last_effect: HashMap::new(),
            mem_unions: Vec::new(),
        }
    }

    /// Snapshot of the runtime counters from the metrics registry.
    pub fn stats(&self) -> Stats {
        Stats {
            calls: self.metrics.get(Counter::MonitorCalls),
            transitions_mediated: self.metrics.get(Counter::TransitionsMediated),
            transitions_fast: self.metrics.get(Counter::TransitionsFast),
            compensations: self.metrics.get(Counter::Compensations),
            quarantines: self.metrics.get(Counter::Quarantines),
        }
    }

    /// The metrics registry this monitor counts into (shared with the
    /// machine and its hardware units).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace sink this monitor emits into (shared with the machine
    /// and the engine).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The architecture this monitor runs on.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The domain currently running on `core`.
    pub fn current_domain(&self, core: usize) -> DomainId {
        self.current[core]
    }

    /// The monitor's measurement (PCR 17 preimage).
    pub fn measurement(&self) -> Digest {
        self.monitor_measurement
    }

    /// The monitor's report-verification key (tier-2 trust anchor).
    pub fn report_key(&self) -> tyche_crypto::sign::VerifyingKey {
        self.sign_key.verifying_key()
    }

    /// Produces the tier-1 machine attestation: a TPM quote over the
    /// monitor PCRs with the verifier's nonce. Fails when the TPM does
    /// (e.g. an injected quote fault) — attestation degrades to a checked
    /// error, never a panic.
    pub fn machine_quote(
        &self,
        nonce: [u8; 32],
    ) -> Result<tyche_hw::tpm::Quote, tyche_hw::tpm::TpmError> {
        self.machine.tpm.quote(
            &[tyche_hw::tpm::PCR_MONITOR, tyche_hw::tpm::PCR_CONFIG],
            nonce,
        )
    }

    // ------------------------------------------------------------------
    // The call interface
    // ------------------------------------------------------------------

    /// Dispatches a monitor call issued by the domain running on `core`.
    ///
    /// Charges the architectural trap cost (VMCALL round trip on x86,
    /// M-mode trap on RISC-V), validates through the capability engine,
    /// applies effects through the platform backend, and — when the
    /// backend cannot realize the new state (PMP layout overflow) —
    /// rolls the operation back and reports [`Status::BackendFailure`].
    pub fn call(&mut self, core: usize, call: MonitorCall) -> Result<CallResult, Status> {
        self.trapped(core, call.encode().0, |m| m.call_inner(core, call))
    }

    /// Runs `body` as hypercall `leaf` on `core`: inside the
    /// hyper-enter/hyper-exit trace bracket, counted, and charged the
    /// architectural trap cost.
    fn trapped(
        &mut self,
        core: usize,
        leaf: u64,
        body: impl FnOnce(&mut Self) -> Result<CallResult, Status>,
    ) -> Result<CallResult, Status> {
        let actor = self.current.get(core).map(|d| d.0).unwrap_or(u64::MAX);
        let start = self.machine.cycles.now();
        self.trace
            .emit(core as u32, EventKind::HyperEnter { leaf, actor });
        self.metrics.bump(Counter::MonitorCalls);
        self.machine
            .cycles
            .charge(self.arch.trap_cost(&self.machine.cost));
        let res = body(self);
        let code = match &res {
            Ok(_) => 0,
            Err(s) => *s as u64,
        };
        let cycles = self.machine.cycles.now().saturating_sub(start);
        self.trace
            .emit(core as u32, EventKind::HyperExit { leaf, code, cycles });
        res
    }

    /// The dispatch body of [`call`](Self::call), inside its trap.
    fn call_inner(&mut self, core: usize, call: MonitorCall) -> Result<CallResult, Status> {
        let actor = self.current[core];
        match call {
            MonitorCall::CreateDomain => {
                let (domain, transition) = self.engine.create_domain(actor).map_err(cap_status)?;
                self.apply_or_compensate(&[RollBack::KillDomain(domain)])?;
                Ok(CallResult::NewDomain { domain, transition })
            }
            MonitorCall::Share {
                cap,
                target,
                sub,
                rights,
                policy,
            } => {
                let sub = match sub {
                    Some((s, e)) => {
                        if s >= e || !s.is_multiple_of(4096) || !e.is_multiple_of(4096) {
                            return Err(Status::InvalidArg);
                        }
                        Some(MemRegion::new(s, e))
                    }
                    None => None,
                };
                let child = self
                    .engine
                    .share(actor, cap, target, sub, rights, policy)
                    .map_err(cap_status)?;
                self.apply_or_compensate(&[RollBack::Revoke { actor, cap: child }])?;
                Ok(CallResult::Cap(child))
            }
            MonitorCall::Grant {
                cap,
                target,
                rights,
                policy,
            } => {
                let child = self
                    .engine
                    .grant(actor, cap, target, None, rights, policy)
                    .map_err(cap_status)?;
                self.apply_or_compensate(&[RollBack::Revoke { actor, cap: child }])?;
                Ok(CallResult::Cap(child))
            }
            MonitorCall::Split { cap, at } => {
                if !at.is_multiple_of(4096) {
                    return Err(Status::InvalidArg);
                }
                let (lo, hi) = self.engine.split(actor, cap, at).map_err(cap_status)?;
                self.apply_or_compensate(&[
                    RollBack::Revoke { actor, cap: lo },
                    RollBack::Revoke { actor, cap: hi },
                ])?;
                Ok(CallResult::Caps(lo, hi))
            }
            MonitorCall::Revoke { cap } => {
                self.engine.revoke(actor, cap).map_err(cap_status)?;
                // Revocation shrinks layouts; it cannot fail validation.
                self.apply_or_compensate(&[])?;
                Ok(CallResult::Unit)
            }
            MonitorCall::Seal {
                domain,
                allow_outward,
                allow_children,
            } => {
                let policy = SealPolicy {
                    allow_outward_sharing: allow_outward,
                    allow_child_domains: allow_children,
                };
                let m = self
                    .engine
                    .seal(actor, domain, policy)
                    .map_err(cap_status)?;
                self.apply_or_compensate(&[])?;
                Ok(CallResult::Measurement(m))
            }
            MonitorCall::SetEntry { domain, entry } => {
                self.engine
                    .set_entry(actor, domain, entry)
                    .map_err(cap_status)?;
                Ok(CallResult::Unit)
            }
            MonitorCall::RecordContent { domain, start, end } => {
                if start >= end {
                    return Err(Status::InvalidArg);
                }
                // The monitor itself measures the region's current bytes:
                // the caller cannot claim arbitrary content. The range is
                // caller-controlled, so a region outside installed RAM is
                // a malformed request and an injected DRAM fault during
                // the measurement is a backend failure — neither may
                // panic the monitor.
                let range = tyche_hw::addr::PhysRange::new(
                    tyche_hw::PhysAddr::new(start),
                    tyche_hw::PhysAddr::new(end),
                );
                let digest = match tyche_hw::tpm::try_measure_range(&self.machine.mem, range) {
                    Ok(d) => d,
                    Err(tyche_hw::mem::MemError::Injected { .. }) => {
                        return Err(Status::BackendFailure)
                    }
                    Err(_) => return Err(Status::InvalidArg),
                };
                self.machine
                    .cycles
                    .charge(self.machine.cost.hash_page * (end - start).div_ceil(4096));
                self.engine
                    .record_content(actor, domain, MemRegion::new(start, end), digest)
                    .map_err(cap_status)?;
                Ok(CallResult::Unit)
            }
            MonitorCall::MakeTransition { target, policy } => {
                let cap = self
                    .engine
                    .make_transition(actor, target, policy)
                    .map_err(cap_status)?;
                Ok(CallResult::Cap(cap))
            }
            MonitorCall::Kill { domain } => {
                // A domain that is currently running on some core (or is a
                // caller in a transition stack) cannot be killed: tearing
                // down its translation tables would leave that core's
                // hardware context pointing at freed frames, which a later
                // allocation could alias. Real hardware would need an IPI
                // handshake here; the model refuses instead.
                let busy = self.current.contains(&domain)
                    || self.stacks.iter().flatten().any(|f| f.caller == domain);
                if busy {
                    return Err(Status::Denied);
                }
                self.engine.kill(actor, domain).map_err(cap_status)?;
                self.apply_or_compensate(&[])?;
                Ok(CallResult::Unit)
            }
            MonitorCall::Enumerate => {
                let resources = self.engine.enumerate(actor).map_err(cap_status)?;
                Ok(CallResult::Count(resources.len() as u64))
            }
            MonitorCall::Enter { cap } => self.enter_mediated(core, cap),
            MonitorCall::Return => self.ret(core),
            MonitorCall::Attest { domain, nonce } => {
                let mut nonce_bytes = [0u8; 32];
                nonce_bytes[..8].copy_from_slice(&nonce.to_le_bytes());
                let signed = self
                    .attest_domain(domain, nonce_bytes)
                    .map_err(cap_status)?;
                Ok(CallResult::Report(Box::new(signed)))
            }
        }
    }

    /// Signs an attestation report for a sealed domain (tier 2, §3.4).
    pub fn attest_domain(
        &mut self,
        domain: DomainId,
        nonce: [u8; 32],
    ) -> Result<SignedReport, CapError> {
        let report = DomainReport::build(&self.engine, domain)?;
        self.machine
            .cycles
            .charge(self.machine.cost.hash_page * (1 + report.resources.len() as u64 / 16));
        let signature = self
            .sign_key
            .sign_streamed(|put| SignedReport::write_signed(&report, &nonce, put));
        Ok(SignedReport {
            report,
            nonce,
            signature,
        })
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    /// Mediated transition (the VMCALL path): full validation, then
    /// [`enter_validated`](Self::enter_validated).
    fn enter_mediated(&mut self, core: usize, cap: CapId) -> Result<CallResult, Status> {
        let actor = self.current[core];
        let validated = self
            .engine
            .can_enter(actor, cap, core)
            .map_err(cap_status)?;
        self.enter_validated(core, actor, validated)
    }

    /// Completes a mediated transition of `actor` (running on `core`)
    /// that `can_enter` has approved as `(target, entry, policy)`: flush
    /// policies applied, hardware switched, stack frame pushed.
    fn enter_validated(
        &mut self,
        core: usize,
        actor: DomainId,
        (target, entry, policy): (DomainId, u64, RevocationPolicy),
    ) -> Result<CallResult, Status> {
        self.apply_flushes(core, actor, policy);
        self.switch_hw(core, target, entry)
            .map_err(|_| Status::BackendFailure)?;
        self.stacks[core].push(Frame {
            caller: actor,
            policy,
            fast: false,
            caller_slot: None,
        });
        self.current[core] = target;
        self.metrics.bump(Counter::TransitionsMediated);
        self.trace.emit(
            core as u32,
            EventKind::Enter {
                from: actor.0,
                to: target.0,
                fast: false,
            },
        );
        Ok(CallResult::Entered { target, entry })
    }

    /// Fast transition via VMFUNC (§4.1: "fast (100 cycles) domain
    /// transitions using VMFUNC").
    ///
    /// No vm exit happens: the hardware switches EPTPs from the
    /// pre-approved list. The monitor pre-approved the pair when it
    /// created the transition capability; at runtime only the hardware
    /// check runs, plus a cache lookup keyed on the engine generation.
    /// Transition capabilities with flush policies cannot stay on the
    /// fast path (flushes need the monitor) — they fall back to the
    /// mediated path, paying the full trap cost. The RISC-V backend has
    /// no equivalent.
    pub fn enter_fast(&mut self, core: usize, cap: CapId) -> Result<DomainId, Status> {
        if self.arch != Arch::X86 {
            return Err(Status::BackendFailure);
        }
        let actor = self.current[core];
        if self.fast_cache_gen != self.engine.generation() {
            self.fast_cache.clear();
            self.fast_cache_gen = self.engine.generation();
        }
        let key = (core, actor, cap);
        let (target, entry, slot) = match self.fast_cache.get(&key).copied() {
            Some(v) => {
                self.trace.emit(
                    core as u32,
                    EventKind::CacheHit {
                        actor: actor.0,
                        cap: cap.0,
                        gen: self.fast_cache_gen,
                    },
                );
                v
            }
            None => {
                let validated = self
                    .engine
                    .can_enter(actor, cap, core)
                    .map_err(cap_status)?;
                let (target, entry, policy) = validated;
                if policy != RevocationPolicy::NONE {
                    // Flush policies need the monitor in the loop: the
                    // entry becomes the `Enter` hypercall, trap cost and
                    // trace bracket included, on the validation above.
                    let leaf = MonitorCall::Enter { cap }.encode().0;
                    return match self
                        .trapped(core, leaf, |m| m.enter_validated(core, actor, validated))?
                    {
                        CallResult::Entered { target, .. } => Ok(target),
                        _ => Err(Status::BackendFailure),
                    };
                }
                let slot = self
                    .x86
                    .as_ref()
                    .and_then(|b| b.vmfunc_slot(target))
                    .ok_or(Status::BackendFailure)?;
                self.fast_cache.insert(key, (target, entry, slot));
                self.trace.emit(
                    core as u32,
                    EventKind::CacheFill {
                        actor: actor.0,
                        cap: cap.0,
                        gen: self.fast_cache_gen,
                    },
                );
                (target, entry, slot)
            }
        };
        let caller_slot = self.x86.as_ref().and_then(|b| b.vmfunc_slot(actor));
        let (vcpu, machine) = (&mut self.vcpus[core], &mut self.machine);
        let mut plat = machine.platform();
        vcpu.vmfunc_switch(&mut plat, slot as u64)
            .map_err(|_| Status::BackendFailure)?;
        self.stacks[core].push(Frame {
            caller: actor,
            policy: RevocationPolicy::NONE,
            fast: true,
            caller_slot,
        });
        self.current[core] = target;
        self.vcpus[core].vmcs.guest.rip = entry;
        self.metrics.bump(Counter::TransitionsFast);
        self.trace.emit(
            core as u32,
            EventKind::Enter {
                from: actor.0,
                to: target.0,
                fast: true,
            },
        );
        Ok(target)
    }

    /// Returns from the current domain to its caller, applying the
    /// transition capability's flush policy to scrub the callee's
    /// micro-architectural footprint.
    fn ret(&mut self, core: usize) -> Result<CallResult, Status> {
        self.ret_inner(core, false)
    }

    /// Shared return path. `via_fast` records the mechanism the caller
    /// actually used: a `MonitorCall::Return` is a vm exit and counts as
    /// mediated even when the frame was entered fast; only a
    /// [`ret_fast`](Self::ret_fast) on a fast-entered frame rides VMFUNC
    /// and counts as fast. One transition is counted per one-way switch,
    /// by the mechanism used — symmetric with the enter paths.
    fn ret_inner(&mut self, core: usize, via_fast: bool) -> Result<CallResult, Status> {
        let frame = self.stacks[core].pop().ok_or(Status::Denied)?;
        let leaving = self.current[core];
        self.apply_flushes(core, leaving, frame.policy);
        let fast_return = via_fast && frame.fast && self.arch == Arch::X86;
        if fast_return {
            let slot = match frame.caller_slot {
                Some(s) => s,
                None => self
                    .x86
                    .as_ref()
                    .and_then(|b| b.vmfunc_slot(frame.caller))
                    .ok_or(Status::BackendFailure)?,
            } as u64;
            let (vcpu, machine) = (&mut self.vcpus[core], &mut self.machine);
            let mut plat = machine.platform();
            vcpu.vmfunc_switch(&mut plat, slot)
                .map_err(|_| Status::BackendFailure)?;
        } else {
            // Mediated return: switch hardware context back. The caller
            // resumes after its Enter call site; entry here is moot.
            self.switch_hw(core, frame.caller, 0)
                .map_err(|_| Status::BackendFailure)?;
        }
        self.current[core] = frame.caller;
        self.metrics
            .add(Counter::TransitionsMediated, u64::from(!fast_return));
        self.metrics
            .add(Counter::TransitionsFast, u64::from(fast_return));
        self.trace.emit(
            core as u32,
            EventKind::Return {
                from: leaving.0,
                to: frame.caller.0,
                fast: fast_return,
            },
        );
        Ok(CallResult::Returned { to: frame.caller })
    }

    /// Fast return counterpart of [`Monitor::enter_fast`].
    pub fn ret_fast(&mut self, core: usize) -> Result<DomainId, Status> {
        match self.ret_inner(core, true) {
            Ok(CallResult::Returned { to }) => Ok(to),
            Ok(_) => Err(Status::BackendFailure),
            Err(s) => Err(s),
        }
    }

    /// Applies a transition/revocation flush policy to `domain` on
    /// behalf of `core`.
    fn apply_flushes(&mut self, core: usize, domain: DomainId, policy: RevocationPolicy) {
        if !policy.flush_cache && !policy.flush_tlb {
            return;
        }
        let tag = self.domain_tag(domain);
        if let Some(tag) = tag {
            if policy.flush_cache {
                let flushed = self.machine.cache.flush_domain(tag);
                self.machine.cycles.charge(
                    self.machine.cost.cache_flush_base
                        + self.machine.cost.cacheline_flush * flushed as u64,
                );
            }
            if policy.flush_tlb {
                self.machine.tlb.flush_domain(tag);
                self.machine.cycles.charge(self.machine.cost.tlb_flush);
            }
            self.trace.emit(
                core as u32,
                EventKind::Flush {
                    domain: domain.0,
                    tlb: policy.flush_tlb,
                    cache: policy.flush_cache,
                },
            );
        }
    }

    /// The cache/TLB tag of `domain` on the active backend.
    fn domain_tag(&self, domain: DomainId) -> Option<u64> {
        match self.arch {
            Arch::X86 => self
                .x86
                .as_ref()
                .and_then(|b| b.ept_root(domain))
                .map(|r| r.as_u64()),
            Arch::RiscV => self.riscv.as_ref().and_then(|b| b.tag(domain)),
        }
    }

    /// Points `core`'s hardware context at `target`.
    fn switch_hw(&mut self, core: usize, target: DomainId, entry: u64) -> Result<(), BackendError> {
        match self.arch {
            Arch::X86 => {
                let root = self
                    .x86
                    .as_ref()
                    .and_then(|b| b.ept_root(target))
                    .ok_or_else(|| BackendError::Hardware(format!("no space for {target}")))?;
                self.vcpus[core].vmcs.eptp = root;
                self.vcpus[core].vmcs.guest.rip = entry;
                Ok(())
            }
            Arch::RiscV => {
                let b = self
                    .riscv
                    .as_mut()
                    .ok_or_else(|| BackendError::Hardware("riscv backend missing".into()))?;
                b.enter_domain(&mut self.machine, target, core, entry)
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory access on behalf of the running domain
    // ------------------------------------------------------------------

    /// Reads memory as the domain running on `core` (through EPT or PMP).
    pub fn dom_read(&mut self, core: usize, addr: u64, out: &mut [u8]) -> Result<(), Fault> {
        match self.arch {
            Arch::X86 => {
                let (vcpu, machine) = (&self.vcpus[core], &mut self.machine);
                let mut plat = machine.platform();
                vcpu.read(&mut plat, tyche_hw::addr::GuestPhysAddr::new(addr), out)
                    .map_err(|_| Fault { addr, write: false })
            }
            Arch::RiscV => {
                // A missing backend or hart is a machine-configuration
                // fault; surface it as a memory fault, never a panic.
                let Some(hart) = self.riscv.as_ref().and_then(|b| b.harts.get(core)) else {
                    return Err(Fault { addr, write: false });
                };
                let mut plat = self.machine.platform();
                hart.read(&mut plat, tyche_hw::PhysAddr::new(addr), out)
                    .map_err(|_| Fault { addr, write: false })
            }
        }
    }

    /// Writes memory as the domain running on `core`.
    pub fn dom_write(&mut self, core: usize, addr: u64, data: &[u8]) -> Result<(), Fault> {
        match self.arch {
            Arch::X86 => {
                let (vcpu, machine) = (&self.vcpus[core], &mut self.machine);
                let mut plat = machine.platform();
                vcpu.write(&mut plat, tyche_hw::addr::GuestPhysAddr::new(addr), data)
                    .map_err(|_| Fault { addr, write: true })
            }
            Arch::RiscV => {
                let Some(hart) = self.riscv.as_ref().and_then(|b| b.harts.get(core)) else {
                    return Err(Fault { addr, write: true });
                };
                let mut plat = self.machine.platform();
                hart.write(&mut plat, tyche_hw::PhysAddr::new(addr), data)
                    .map_err(|_| Fault { addr, write: true })
            }
        }
    }

    /// Instruction-fetch check at `addr` for the running domain.
    pub fn dom_fetch(&mut self, core: usize, addr: u64) -> Result<(), Fault> {
        match self.arch {
            Arch::X86 => {
                let (vcpu, machine) = (&self.vcpus[core], &mut self.machine);
                let mut plat = machine.platform();
                vcpu.fetch(&mut plat, tyche_hw::addr::GuestPhysAddr::new(addr))
                    .map_err(|_| Fault { addr, write: false })
            }
            Arch::RiscV => {
                let Some(hart) = self.riscv.as_ref().and_then(|b| b.harts.get(core)) else {
                    return Err(Fault { addr, write: false });
                };
                let mut plat = self.machine.platform();
                hart.fetch(&mut plat, tyche_hw::PhysAddr::new(addr))
                    .map_err(|_| Fault { addr, write: false })
            }
        }
    }

    /// Drains the interrupt vectors pending for the domain running on
    /// `core` (§4.1 cross-domain interrupt routing). A domain receives a
    /// vector's deliveries iff it holds an active capability for it.
    pub fn pending_interrupts(&mut self, core: usize) -> Vec<u32> {
        let d = self.current[core];
        match self.domain_tag(d) {
            Some(tag) => self.machine.irq.drain(tag),
            None => Vec::new(),
        }
    }

    /// Enables MKTME-class memory encryption for `domain` (physical-
    /// attack resistance, §4.2). The caller (current domain on `core`)
    /// must manage `domain` or be it. x86-only — the PMP platform has no
    /// memory-encryption engine in this model.
    pub fn enable_memory_encryption(
        &mut self,
        core: usize,
        domain: DomainId,
    ) -> Result<(), Status> {
        let actor = self.current[core];
        let managed = self
            .engine
            .domain(domain)
            .map(|d| d.manager == Some(actor) || actor == domain)
            .unwrap_or(false);
        if !managed {
            return Err(Status::Denied);
        }
        match (self.arch, self.x86.as_mut()) {
            (Arch::X86, Some(b)) => b
                .enable_encryption(&mut self.machine, domain)
                .map_err(|_| Status::BackendFailure),
            _ => Err(Status::BackendFailure),
        }
    }

    /// Drains and applies any pending engine effects. Normal monitor
    /// calls do this themselves; test fixtures that drive
    /// [`Monitor::engine`] directly call this afterwards to bring
    /// hardware state back in sync.
    pub fn sync_effects(&mut self) -> Result<(), Status> {
        self.apply_all().map_err(|_| Status::BackendFailure)
    }

    /// Audits hardware state against the capability engine: for every
    /// live domain, the translation structures the backend programmed
    /// must grant exactly the access the engine's active capabilities
    /// describe. Returns human-readable discrepancies (empty = sound).
    ///
    /// This is the executive half of the judiciary story: the engine can
    /// be verified in isolation, and this check pins the hardware to it.
    pub fn audit_hardware(&self) -> Vec<String> {
        let mut out = Vec::new();
        // Quarantined domains are the *documented* divergence: their
        // hardware state is exactly what the engine could no longer
        // realize, they can never be entered, and killing them resyncs.
        // Auditing them would report the divergence quarantine exists to
        // contain.
        for dom in self
            .engine
            .domains()
            .filter(|d| d.is_alive() && !d.is_quarantined())
        {
            let want = crate::backend::page_view(&self.engine, dom.id);
            match self.arch {
                Arch::X86 => {
                    let Some(root) = self.x86.as_ref().and_then(|b| b.ept_root(dom.id)) else {
                        if !want.is_empty() {
                            out.push(format!("{}: no EPT but engine grants memory", dom.id));
                        }
                        continue;
                    };
                    let ept = tyche_hw::x86::ept::Ept::from_root(root);
                    let Ok(mappings) = ept.mappings(&self.machine.mem) else {
                        out.push(format!("{}: EPT walk failed", dom.id));
                        continue;
                    };
                    let mut got = std::collections::BTreeMap::new();
                    for (gpa, hpa, flags) in mappings {
                        if gpa.as_u64() != hpa.as_u64() {
                            out.push(format!("{}: non-identity mapping {gpa} -> {hpa}", dom.id));
                        }
                        let mut r = 0u8;
                        if flags.allows(tyche_hw::x86::ept::Access::Read) {
                            r |= Rights::R;
                        }
                        if flags.allows(tyche_hw::x86::ept::Access::Write) {
                            r |= Rights::W;
                        }
                        if flags.allows(tyche_hw::x86::ept::Access::Exec) {
                            r |= Rights::X;
                        }
                        got.insert(gpa.as_u64(), Rights(r));
                    }
                    if got != want {
                        for (page, rights) in &want {
                            match got.get(page) {
                                None => out.push(format!(
                                    "{}: page {page:#x} granted {rights:?} but unmapped",
                                    dom.id
                                )),
                                Some(g) if g != rights => out.push(format!(
                                    "{}: page {page:#x} rights {g:?} != engine {rights:?}",
                                    dom.id
                                )),
                                _ => {}
                            }
                        }
                        for page in got.keys() {
                            if !want.contains_key(page) {
                                out.push(format!(
                                    "{}: page {page:#x} mapped but not granted",
                                    dom.id
                                ));
                            }
                        }
                    }
                }
                Arch::RiscV => {
                    let Some(layout) = self
                        .riscv
                        .as_ref()
                        .and_then(|b| b.layout(dom.id).map(|l| l.to_vec()))
                    else {
                        if !want.is_empty() {
                            out.push(format!(
                                "{}: no PMP layout but engine grants memory",
                                dom.id
                            ));
                        }
                        continue;
                    };
                    let expected = crate::backend::riscv::coalesce(&want);
                    if layout != expected {
                        out.push(format!(
                            "{}: PMP layout {layout:?} != engine view {expected:?}",
                            dom.id
                        ));
                    }
                }
            }
        }
        out
    }

    /// Direct access to the x86 backend (tests, examples).
    pub fn x86_backend(&self) -> Option<&X86Backend> {
        self.x86.as_ref()
    }

    /// Direct access to the RISC-V backend (tests, examples).
    pub fn riscv_backend(&self) -> Option<&RiscvBackend> {
        self.riscv.as_ref()
    }

    // ------------------------------------------------------------------
    // Effect application & compensation
    // ------------------------------------------------------------------

    /// Drains engine effects into the backend. When the backend refuses
    /// (PMP layout overflow), performs the given compensations (revoking
    /// the just-created capabilities / killing the just-created domain),
    /// re-applies, and reports failure to the caller.
    fn apply_or_compensate(&mut self, rollback: &[RollBack]) -> Result<(), Status> {
        match self.apply_all() {
            Ok(()) => Ok(()),
            Err((_, mut implicated)) => {
                self.metrics.bump(Counter::Compensations);
                for rb in rollback {
                    match rb {
                        RollBack::Revoke { actor, cap } => {
                            let _ = self.engine.revoke(*actor, *cap);
                        }
                        RollBack::KillDomain(d) => {
                            if let Some(m) = self.engine.domain(*d).and_then(|x| x.manager) {
                                let _ = self.engine.kill(m, *d);
                            }
                        }
                    }
                }
                if let Err((_, more)) = self.apply_all() {
                    implicated.extend(more);
                }
                // The failed effects were drained before they could reach
                // hardware, and the rollback may have emitted nothing at
                // all (revoke/kill/seal roll back by doing nothing) — so
                // even a clean re-apply can leave an implicated domain's
                // translations stale, on pages no later effect names.
                // Rebuild each one whole from the engine. A domain whose
                // resync fails too is quarantined — it stays killable and
                // enumerable but is never entered on untrusted
                // translations — instead of panicking the TCB.
                for d in implicated {
                    let alive = self.engine.domain(d).map(|x| x.is_alive()).unwrap_or(false);
                    if !alive {
                        continue;
                    }
                    let healed = self.resync_domain(d).is_ok();
                    if !healed && self.engine.quarantine(d).is_ok() {
                        self.metrics.bump(Counter::Quarantines);
                    }
                }
                Err(Status::BackendFailure)
            }
        }
    }

    fn apply_all(&mut self) -> Result<(), (BackendError, BTreeSet<DomainId>)> {
        let mut effects = std::mem::take(&mut self.effect_buf);
        let mut unions = std::mem::take(&mut self.mem_unions);
        self.engine.drain_effects_into(&mut effects);
        Self::coalesce_effects(&mut effects, &mut self.last_effect, &mut unions);
        let res = self.apply_list(&effects, &unions);
        self.effect_buf = effects;
        self.mem_unions = unions;
        res
    }

    /// Coalesces a drained effect batch in place before backend
    /// application.
    ///
    /// A domain's `MapMem`/`UnmapMem` effects become one application over
    /// the union of their regions (left in `unions`, sorted by domain),
    /// at the position of the domain's last mem effect: the backends
    /// recompute each page of an applied region from the engine's final
    /// state, so one pass over the union is what applying them all would
    /// leave, with one TLB shootdown instead of one per effect. Because
    /// that apply ends in the shootdown, standalone `FlushTlb` effects for
    /// a domain with mem effects are redundant; otherwise one flush per
    /// (domain, batch) suffices, as flushes are idempotent. Everything
    /// else is preserved in emission order. `last` and `unions` are
    /// scratch kept by the caller so steady batches allocate nothing.
    fn coalesce_effects(
        effects: &mut Vec<Effect>,
        last: &mut HashMap<(DomainId, u8), usize>,
        unions: &mut Vec<(DomainId, MemRegion)>,
    ) {
        last.clear();
        unions.clear();
        for (i, fx) in effects.iter().enumerate() {
            if let Some(key) = coalesce_key(fx) {
                last.insert(key, i);
            }
            if let Effect::MapMem { domain, region, .. } | Effect::UnmapMem { domain, region } = fx
            {
                unions.push((*domain, *region));
            }
        }
        merge_regions(unions);
        let mut at = 0;
        effects.retain(|fx| {
            let i = at;
            at += 1;
            match coalesce_key(fx) {
                None => true,
                Some((domain, TLB)) => {
                    !last.contains_key(&(domain, SYNC)) && last.get(&(domain, TLB)) == Some(&i)
                }
                Some(key) => last.get(&key) == Some(&i),
            }
        });
        // A storm's batch must not leave ballooned scratch behind.
        if last.capacity() > tyche_core::engine::EFFECTS_RETAIN {
            *last = HashMap::new();
        }
        if unions.capacity() > tyche_core::engine::EFFECTS_RETAIN {
            *unions = Vec::new();
        }
    }

    /// Applies every effect in order and returns the *first* failure,
    /// paired with the set of domains the failures implicate (several
    /// applies can fail in one batch — e.g. a persistent DRAM fault
    /// breaks every table write). Application is best-effort: a fault on
    /// one domain's translation update must not strand the remaining
    /// domains' hardware state, so later effects still run. On x86 a mem
    /// effect applies its domain's union of regions from the coalesced
    /// batch's `unions`.
    fn apply_list(
        &mut self,
        effects: &[Effect],
        unions: &[(DomainId, MemRegion)],
    ) -> Result<(), (BackendError, BTreeSet<DomainId>)> {
        let mut first: Option<BackendError> = None;
        let mut implicated = BTreeSet::new();
        for fx in effects {
            let res = match (self.arch, fx) {
                (Arch::X86, Effect::MapMem { domain, .. } | Effect::UnmapMem { domain, .. }) => {
                    let from = unions.partition_point(|(d, _)| d < domain);
                    let regions = unions
                        .iter()
                        .skip(from)
                        .take_while(|(d, _)| d == domain)
                        .map(|&(_, r)| r);
                    match self.x86.as_mut() {
                        Some(b) => b.apply_mem(&mut self.machine, &self.engine, *domain, regions),
                        None => Err(BackendError::Hardware("x86 backend missing".into())),
                    }
                }
                (Arch::X86, ..) => match self.x86.as_mut() {
                    Some(b) => b.apply(&mut self.machine, &self.engine, fx),
                    None => Err(BackendError::Hardware("x86 backend missing".into())),
                },
                (Arch::RiscV, ..) => match self.riscv.as_mut() {
                    Some(b) => b.apply(&mut self.machine, &self.engine, fx),
                    None => Err(BackendError::Hardware("riscv backend missing".into())),
                },
            };
            if let Err(error) = res {
                let domain = match &error {
                    BackendError::LayoutUnrepresentable { domain, .. } => Some(*domain),
                    BackendError::Hardware(_) => fx.domain(),
                };
                implicated.extend(domain);
                if first.is_none() {
                    first = Some(error);
                }
            }
        }
        match first {
            None => {
                #[cfg(debug_assertions)]
                for fx in effects {
                    if let Effect::MapMem { domain, .. } | Effect::UnmapMem { domain, .. } = fx {
                        self.check_view(*domain);
                    }
                }
                Ok(())
            }
            Some(e) => Err((e, implicated)),
        }
    }

    /// Rebuilds `domain`'s whole translation state from the engine — the
    /// heal path, where what the hardware holds is unknown.
    fn resync_domain(&mut self, domain: DomainId) -> Result<(), BackendError> {
        let res = match self.arch {
            Arch::X86 => match self.x86.as_mut() {
                Some(b) => b.resync_domain(&mut self.machine, &self.engine, domain),
                None => Err(BackendError::Hardware("x86 backend missing".into())),
            },
            Arch::RiscV => match self.riscv.as_mut() {
                Some(b) => b.resync_domain(&mut self.machine, &self.engine, domain),
                None => Err(BackendError::Hardware("riscv backend missing".into())),
            },
        };
        #[cfg(debug_assertions)]
        if res.is_ok() {
            self.check_view(domain);
        }
        res
    }
}

/// The monitor's debug surface: the page-view oracle and the corruption
/// hooks the trace-oracle suite tampers through. Not in release builds.
#[cfg(debug_assertions)]
impl Monitor {
    /// Test-only corruption hook: forges the generation the fast cache
    /// believes current *without* dropping its entries, modelling a
    /// monitor bug that serves stale validations. Used by the
    /// trace-oracle suite to prove the RV cache checker catches it.
    pub fn corrupt_fast_cache_gen(&mut self, gen: u64) {
        self.fast_cache_gen = gen;
    }

    /// Test-only corruption hook: rewrites the caller recorded in
    /// `core`'s top transition frame, modelling stack corruption. The
    /// next return transfers to the forged caller.
    pub fn corrupt_frame(&mut self, core: usize, caller: DomainId) {
        if let Some(frame) = self.stacks.get_mut(core).and_then(|s| s.last_mut()) {
            frame.caller = caller;
        }
    }

    /// Debug oracle: after a successful apply, a live, unquarantined
    /// domain's hardware state must be exactly the engine's page view.
    /// Panics where it is not.
    pub fn check_view(&self, domain: DomainId) {
        if !self
            .engine
            .domain(domain)
            .is_some_and(|d| d.is_alive() && !d.is_quarantined())
        {
            return;
        }
        let matches = match self.arch {
            Arch::X86 => self
                .x86
                .as_ref()
                .is_some_and(|b| b.matches_view(&self.engine, domain)),
            Arch::RiscV => self
                .riscv
                .as_ref()
                .is_some_and(|b| b.matches_view(&self.engine, domain)),
        };
        assert!(
            matches,
            "{domain}: hardware diverged from the engine's page view"
        );
    }
}

/// Compensating actions for backend-refused operations.
enum RollBack {
    Revoke { actor: DomainId, cap: CapId },
    KillDomain(DomainId),
}

/// Maps engine errors onto ABI status codes.
pub(crate) fn cap_status(e: CapError) -> Status {
    match e {
        CapError::NoSuchDomain(_) | CapError::NoSuchCap(_) => Status::NotFound,
        CapError::OutOfRange | CapError::SubrangeOnNonMemory | CapError::WrongResourceType => {
            Status::InvalidArg
        }
        _ => Status::Denied,
    }
}
