//! Epoch read-side stress: pinned readers publish and hold snapshots
//! across revocation storms served by [`ConcurrentMonitor`].
//!
//! Memory safety of a stale snapshot is unconditional here (`Arc` keeps
//! the clone alive), so what this test pins down is the *epoch
//! protocol* itself, with `ConcurrentMonitor::snapshot` as the only
//! publisher:
//!
//! - a pinned reader's view is never mutated or reclaimed out from
//!   under it, no matter how many publications displace it;
//! - while any reader is pinned at or before a displacement epoch, the
//!   displaced snapshot is retired (deferred), never reclaimed — and
//!   the moment the last pin drops, reclamation drains to zero;
//! - generations observed through `snapshot` are monotone per reader
//!   (publications run under the inner write lock in generation order,
//!   so a reader can never see time move backwards);
//! - every snapshot a reader can observe mid-storm audits clean.
//!
//! The seed comes from `TYCHE_STRESS_SEED` (default 1) so CI can sweep
//! a fixed set of seeds. Run with `--features tyche-core/paranoid-checks`
//! to keep the index-vs-scan differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{boot_tenants, seed_from_env, window_base, Rng};
use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::shared::SNAP_SLOTS;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{ConcurrentMonitor, MonitorCall, SmpStats};

const WRITERS: usize = 3;
const READERS: usize = 3;
/// Pin slot 0 is the anchor, readers use 1..=READERS; the monitor has
/// one pin slot per core.
const CORES: usize = 1 + READERS;
const STORM_OPS: usize = 100;
/// Each writer's private 1 MiB window of root RAM.
const WINDOW: u64 = 0x10_0000;

/// Boots the writers' tenants and gives each one an unsealed child to
/// receive shares (sealed tenants accept none). Returns, per writer,
/// its window cap and the next writer's child as its share target.
fn setup() -> (ConcurrentMonitor, Vec<(CapId, DomainId)>) {
    let (mut m, tenants) = boot_tenants(CORES, WRITERS, WINDOW);
    let children: Vec<DomainId> = (0..WRITERS)
        .map(|core| match m.call(core, MonitorCall::CreateDomain) {
            Ok(CallResult::NewDomain { domain, .. }) => domain,
            other => panic!("create share target: {other:?}"),
        })
        .collect();
    let lanes = (0..WRITERS)
        .map(|i| (tenants[i].1, children[(i + 1) % WRITERS]))
        .collect();
    (ConcurrentMonitor::new(m), lanes)
}

/// The tenant running on `core` shares one page of its window with
/// `peer`; returns the new capability.
fn share_page(
    cm: &ConcurrentMonitor,
    core: usize,
    my_window: CapId,
    peer: DomainId,
    page: u64,
) -> CapId {
    let call = MonitorCall::Share {
        cap: my_window,
        target: peer,
        sub: Some((page, page + 0x1000)),
        rights: Rights::RW,
        policy: RevocationPolicy::NONE,
    };
    match cm.serve(core, call) {
        Ok(CallResult::Cap(cap)) => cap,
        other => panic!("share: {other:?}"),
    }
}

/// Revokes `cap` as the tenant running on `core`.
fn revoke(cm: &ConcurrentMonitor, core: usize, cap: CapId) {
    cm.serve(core, MonitorCall::Revoke { cap }).expect("revoke");
}

#[test]
fn readers_pin_stable_views_across_revoke_storm() {
    let seed = seed_from_env();
    let (cm, lanes) = setup();
    let cm = Arc::new(cm);

    // The anchor pin: taken at epoch 0 and held across the whole storm,
    // so *every* displaced snapshot must be retired and *none* may be
    // reclaimed until it drops. This makes the reclamation accounting
    // below exact despite the racing readers pinning and unpinning.
    let anchor = cm.epochs().pin(0);
    let (g0, view0) = cm.epochs().current_with_gen();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|rid| {
            let cm = Arc::clone(&cm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                let mut iters = 0u64;
                loop {
                    // Read `stop` first: the pass that sees it set still
                    // publishes, so the final generation reaches the head.
                    let done = stop.load(Ordering::Acquire);
                    let _pin = cm.epochs().pin(1 + rid);
                    let snap = cm.snapshot();
                    let gen = snap.generation();
                    assert!(
                        gen >= last_gen,
                        "reader {rid} saw generation run backwards: {gen} < {last_gen} (seed {seed})"
                    );
                    last_gen = gen;
                    if iters.is_multiple_of(8) {
                        assert!(
                            audit(&snap).is_empty(),
                            "reader {rid} observed an unauditable snapshot at gen {gen} (seed {seed})"
                        );
                    }
                    iters += 1;
                    if done {
                        return iters;
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let (my_window, peer) = lanes[tid];
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for _ in 0..STORM_OPS {
                    // One share immediately revoked: the classic storm
                    // that used to hammer the snapshot-cache mutex.
                    let page = window_base(tid, WINDOW) + rng.below(WINDOW / 0x1000) * 0x1000;
                    let cap = share_page(&cm, tid, my_window, peer, page);
                    revoke(&cm, tid, cap);
                }
                cm.sync_shootdowns(tid);
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }

    // The anchor still pins epoch 0: exact accounting. Every
    // publication displaced one slot into the retired list, every one
    // was deferred, and none were reclaimed. Publications are distinct
    // committed generations, so there are at most as many as mutations,
    // and the readers' last passes published the final one.
    let mutations = SmpStats::get(&cm.stats.mutations);
    assert_eq!(mutations, (WRITERS * STORM_OPS * 2) as u64);
    let published = cm.epochs().published();
    assert!(
        published > 0 && published <= mutations,
        "{published} publications"
    );
    let (head_gen, _) = cm.epochs().current_with_gen();
    assert_eq!(head_gen, cm.with_inner(|m| m.engine.generation()));
    assert_eq!(cm.epochs().retired_len() as u64, published);
    assert_eq!(cm.epochs().deferred(), published);
    assert_eq!(cm.epochs().reclaimed(), 0);

    // The anchored view never moved.
    assert_eq!(
        view0.generation(),
        g0,
        "pinned view mutated under the reader"
    );
    assert!(audit(&view0).is_empty());

    // Dropping the last pin opens the grace window: everything drains.
    drop(anchor);
    let freed = cm.epochs().reclaim();
    assert_eq!(freed as u64, published);
    assert_eq!(cm.epochs().retired_len(), 0);
    assert_eq!(cm.epochs().reclaimed(), published);

    let monitor = Arc::try_unwrap(cm).ok().expect("threads joined").finish();
    assert!(
        audit(&monitor.engine).is_empty(),
        "final audit failed (seed {seed})"
    );
    assert!(monitor.audit_hardware().is_empty());
}

#[test]
fn pinned_view_survives_slot_ring_wraparound() {
    let (cm, lanes) = setup();
    let (my_window, peer) = lanes[0];
    let base = window_base(0, WINDOW);

    // With no pins, every publication's predecessor reclaims at once.
    let cap = share_page(&cm, 0, my_window, peer, base);
    revoke(&cm, 0, cap);
    cm.snapshot();
    assert_eq!(cm.epochs().published(), 1);
    assert_eq!(cm.epochs().retired_len(), 0);
    assert!(cm.epochs().reclaimed() > 0);
    let base_reclaimed = cm.epochs().reclaimed();

    // Pin, capture, then publish more generations than the slot ring
    // holds — the pinned snapshot's slot is overwritten, yet the view
    // must stay bit-identical. This thread is the pinned reader, and its
    // own `snapshot` calls are the publications.
    let pin = cm.epochs().pin(1);
    let view = cm.snapshot();
    let g0 = view.generation();
    let baseline = (*view).clone();
    let wrap = (SNAP_SLOTS + 2) as u64;
    for i in 0..wrap {
        let cap = share_page(&cm, 0, my_window, peer, base + (i % 16) * 0x1000);
        cm.snapshot();
        revoke(&cm, 0, cap);
        cm.snapshot();
    }
    assert_eq!(cm.epochs().published(), 1 + 2 * wrap);
    let (g1, _) = cm.epochs().current_with_gen();
    assert!(g1 > g0, "publications must advance the read head");
    assert!(*view == baseline, "pinned view changed across slot reuse");
    assert!(audit(&view).is_empty());

    // Everything displaced *after* the pin was deferred, not reclaimed;
    // only the ring's never-displaced boot clones (displacement epoch 0,
    // strictly before the pin) may have drained mid-loop.
    let pending = cm.epochs().retired_len() as u64;
    assert!(pending >= 2 * wrap - SNAP_SLOTS as u64);
    assert_eq!(cm.epochs().deferred(), pending);
    assert!(cm.epochs().reclaimed() <= base_reclaimed + SNAP_SLOTS as u64);

    drop(pin);
    assert_eq!(cm.epochs().reclaim() as u64, pending);
    assert_eq!(cm.epochs().retired_len(), 0);
    assert!(audit(&cm.finish().engine).is_empty());
}
