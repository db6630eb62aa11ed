//! Integration tests for the safe guard layer: `Domain` slot leasing and recycling,
//! guard/shield semantics, and the Harris–Michael list driven purely through the safe API
//! under every reclamation scheme.

use std::ptr::NonNull;
use std::sync::Arc;

use debra_repro::debra::{
    Atomic, CountingSink, Debra, DebraPlus, Domain, Headed, Reclaimer, ReclaimerThread,
    RegistrationError, Restart,
};
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{ConcurrentMap, HarrisMichaelList, ListNode, SkipList, SkipNode};
use debra_repro::schemes::{self, Manager, Scheme, SchemeDomain};
use debra_repro::smr_alloc::{SystemAllocator, ThreadPool};
use debra_repro::smr_baselines::HazardPointers;

/// Satellite regression: a thread slot must be reusable after its handle is dropped —
/// `register(tid)` must not error forever once a slot was used.  Checked for every scheme
/// at the Record Manager level (register → drop → re-register, thrice for good measure).
fn slot_reuse<S: Scheme>() {
    let manager: Arc<Manager<S, u64>> = Arc::new(Manager::<S, u64>::new(2));
    for _ in 0..3 {
        let t0 = manager.register(0).expect("slot 0 must be registerable");
        assert!(matches!(
            manager.register(0),
            Err(RegistrationError::AlreadyRegistered { tid: 0 })
        ));
        // Auto-registration skips the taken slot and leases the next one.
        let t1 = manager.register_auto().expect("a free slot remains");
        assert_eq!(t1.tid(), 1);
        assert!(matches!(
            manager.register_auto(),
            Err(RegistrationError::Exhausted { max_threads: 2 })
        ));
        drop(t0);
        drop(t1);
    }
    // After the final drops every slot is free again.
    assert_eq!(manager.register_auto().expect("slot recycled").tid(), 0);
}
for_each_scheme!(tests slot_reuse_*: slot_reuse);

/// The thread-exit contract of every scheme that reclaims: a handle dropped in the middle
/// of an operation hands the records still in its limbo to the orphan list (so
/// `drain_orphans` returns every one the sink did not take) and zeroes its share of the
/// `pending` gauge.  A scheme that never reclaims (None) hands nothing back and keeps
/// the abandoned records in its gauge.
fn exit_orphans<S: Scheme>() {
    let r = Arc::new(S::Reclaimer::<u64>::new(1));
    let mut sink = CountingSink::default();
    let mut t = S::Reclaimer::register(&r, 0).expect("slot 0 is free");
    let _ = t.leave_qstate(&mut sink);
    let mut records = Vec::new();
    for i in 0..5u64 {
        let record = Headed::boxed(i);
        t.record_allocated(record);
        // SAFETY: a fresh record, retired once, from inside the operation.
        unsafe { t.retire(record, &mut sink) };
        records.push(record);
    }
    drop(t);
    let mut orphans = r.drain_orphans();
    if S::reclaims() {
        assert_eq!(orphans.len() + sink.accepted, 5, "every retired record is accounted for");
        assert_eq!(r.stats().pending, 0, "the exited thread's limbo gauge reads zero");
    } else {
        assert_eq!(orphans.len() + sink.accepted, 0, "{} hands nothing back", S::name());
        assert_eq!(r.stats().pending, 5, "the abandoned records stay in the limbo gauge");
        // Nothing references the abandoned records any more.
        orphans = records;
    }
    for record in orphans {
        // SAFETY: allocated by `Headed::boxed` above and freed exactly once.
        unsafe { Headed::drop_boxed(record) };
    }
}
for_each_scheme!(tests exit_orphans_*: exit_orphans);

type DebraDomain = Domain<u64, Debra<u64>, ThreadPool<u64>, SystemAllocator<u64>>;

/// Domain-level recycling: dropping a thread's last handle releases its leased slot, both
/// on the same thread and across thread exits.
#[test]
fn domain_releases_slots_for_reuse() {
    let domain: DebraDomain = Domain::new(1); // a single slot makes reuse observable
    for _ in 0..3 {
        let handle = domain.handle();
        let _ = handle.tid();
        drop(handle); // slot released here, not at thread exit
    }
    // Other threads can take the slot once this thread's lease is gone.
    for _ in 0..2 {
        let domain2 = domain.clone();
        std::thread::spawn(move || {
            let guard = domain2.pin();
            let _ = guard.check();
        })
        .join()
        .expect("worker with leased slot");
    }
    // ... and the main thread can lease it again afterwards.
    let handle = domain.handle();
    assert_eq!(handle.tid(), 0);
}

/// Capacity exhaustion surfaces as a typed error, and clears when a lease is released.
#[test]
fn domain_reports_exhaustion() {
    let domain: DebraDomain = Domain::new(1);
    let handle = domain.handle();
    let domain2 = domain.clone();
    std::thread::spawn(move || {
        assert!(matches!(
            domain2.try_handle(),
            Err(RegistrationError::Exhausted { max_threads: 1 })
        ));
    })
    .join()
    .expect("exhaustion observer");
    drop(handle);
    let domain3 = domain.clone();
    std::thread::spawn(move || {
        let _ = domain3.try_handle().expect("slot free after the main thread released it");
    })
    .join()
    .expect("worker after release");
}

/// Guards are reentrant on one thread and a handle's repeated pins share one lease.
#[test]
fn guards_are_reentrant_and_share_a_lease() {
    let domain: DebraDomain = Domain::new(1); // one slot: any double-lease would error
    let handle = domain.handle();
    let outer = handle.pin();
    let inner = domain.pin(); // nested pin through the domain: same lease, deeper pin
    assert_eq!(outer.tid(), inner.tid());
    assert!(outer.check().is_ok());
    drop(inner);
    assert!(outer.check().is_ok(), "outer guard must survive the inner one");
}

/// `Domain::run` retries the body on `Restart` (the DEBRA+ recovery loop shape).
#[test]
fn run_retries_on_restart() {
    let domain: DebraDomain = Domain::new(1);
    let mut attempts = 0;
    let out = domain.run(|guard| {
        attempts += 1;
        guard.check()?;
        if attempts < 3 {
            Err(Restart)
        } else {
            Ok(attempts)
        }
    });
    assert_eq!(out, 3);
}

/// Allocate-then-discard recycles through the pool without publication — entirely safe
/// code (the `Owned` uniqueness is what makes `discard` safe).
#[test]
fn alloc_discard_roundtrip() {
    let domain: DebraDomain = Domain::new(1);
    let guard = domain.pin();
    for i in 0..64u64 {
        let owned = guard.alloc(i);
        assert_eq!(*owned, i);
        guard.discard(owned);
    }
}

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 3_000;
const KEY_RANGE: u64 = 64;

/// The cross-scheme smoke test of the acceptance criteria: the list driven through only
/// the safe API (automatic slot leasing, guard-pinned operations) under every scheme,
/// with the usual net-inserts == final-size consistency check.
fn safe_list<S: Scheme>() {
    type Node = ListNode<u64, u64>;
    let domain: SchemeDomain<S, Node> = Domain::new(THREADS + 1);
    let list = Arc::new(HarrisMichaelList::in_domain(domain));
    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let list = Arc::clone(&list);
        joins.push(std::thread::spawn(move || {
            // No tid bookkeeping: the domain leases a slot for this thread.
            let mut handle = list.domain().try_handle().expect("lease worker slot");
            let mut net: i64 = 0;
            let mut x: u64 = 0x9E3779B97F4A7C15 ^ ((tid as u64) << 21);
            for _ in 0..OPS_PER_THREAD {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % KEY_RANGE;
                match (x >> 61) % 4 {
                    0 | 1 => {
                        if list.insert(&mut handle, key, key) {
                            net += 1;
                        }
                    }
                    2 => {
                        if list.remove(&mut handle, &key) {
                            net -= 1;
                        }
                    }
                    _ => {
                        let _ = list.get(&mut handle, &key);
                    }
                }
            }
            net
        }));
    }
    let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(net >= 0);
    let mut handle = list.domain().try_handle().expect("lease checker slot");
    assert_eq!(list.len(&mut handle), net as usize, "final size must match net inserts");
    let stats = list.manager().reclaimer().stats();
    assert!(stats.reclaimed <= stats.retired);
}
for_each_scheme!(tests safe_list_*: safe_list);

type HpDomain = Domain<u64, HazardPointers<u64>, ThreadPool<u64>, SystemAllocator<u64>>;
type DebraPlusDomain = Domain<u64, DebraPlus<u64>, ThreadPool<u64>, SystemAllocator<u64>>;

/// `Shield::protect_anchored` announces the given record while validating a *different*
/// link (the MS-queue head/next window): the announcement must be observable through
/// the hazard-pointer scan on success, null must pass through unprotected, and a moved
/// anchor must fail with `Restart` (the record may already be retired).
#[test]
fn protect_anchored_validates_the_anchor_link() {
    let domain: HpDomain = Domain::new(1);
    let hp = Arc::clone(domain.manager().reclaimer());
    let anchor = Atomic::null();
    let guard = domain.pin();
    let sentinel = guard.alloc(7u64);
    assert!(anchor
        .compare_exchange_owned(
            debra_repro::debra::Shared::null(),
            sentinel,
            std::sync::atomic::Ordering::AcqRel,
            std::sync::atomic::Ordering::Acquire,
            &guard,
        )
        .is_ok());
    let anchored = anchor.load(std::sync::atomic::Ordering::Acquire, &guard);
    // A standalone record playing the successor role (kept as an un-published Owned so
    // the test can discard it safely at the end).
    let successor = guard.alloc(8u64);
    let successor_shared = successor.shared();
    let nn = |s: debra_repro::debra::Shared<'_, u64>| NonNull::new(s.as_ptr()).unwrap();

    let mut shield = guard.shield();
    // Anchor holds the expected word: the protect succeeds and announces the record.
    let protected = shield
        .protect_anchored(successor_shared, &anchor, anchored)
        .expect("anchor unchanged: protect must succeed");
    assert_eq!(protected.as_ptr(), successor_shared.as_ptr());
    assert!(hp.is_protected_by_any(nn(successor_shared)));

    // Null passes through without an announcement (nothing to protect).
    let mut null_shield = guard.shield();
    let null = null_shield
        .protect_anchored(debra_repro::debra::Shared::null(), &anchor, anchored)
        .expect("null passes through");
    assert!(null.is_null());

    // Move the anchor (clear it): the same protect now fails with Restart.
    let sentinel_ptr = anchored.as_ptr();
    assert!(anchor
        .compare_exchange(
            anchored,
            debra_repro::debra::Shared::null(),
            std::sync::atomic::Ordering::AcqRel,
            std::sync::atomic::Ordering::Acquire,
            &guard,
        )
        .is_ok());
    assert_eq!(
        shield.protect_anchored(successor_shared, &anchor, anchored),
        Err(Restart),
        "a moved anchor must refuse the protection"
    );

    drop(shield);
    drop(null_shield);
    assert!(!hp.is_protected_by_any(nn(successor_shared)), "dropping the shield releases");
    guard.discard(successor);
    drop(guard);
    // Teardown: the record the anchor used to hold is freed with exclusive access.
    domain.free_reachable(sentinel_ptr, |_| std::ptr::null_mut());
}

/// `ShieldSet::rotate` permutes *roles*, not announcements: every record that stays in
/// the window stays protected across the rotation (observed through the hazard-pointer
/// scheme's global announcement scan), and a subsequent protect into the role that
/// received the freed slot overwrites the stale announcement — releasing exactly the
/// record that left the window, nothing else.
#[test]
fn shield_set_rotation_keeps_window_protected() {
    let domain: HpDomain = Domain::new(1);
    let hp = Arc::clone(domain.manager().reclaimer());
    let link_a = Atomic::null();
    let link_b = Atomic::null();
    let link_c = Atomic::null();
    let guard = domain.pin();
    for (link, v) in [(&link_a, 1u64), (&link_b, 2), (&link_c, 3)] {
        let owned = guard.alloc(v);
        assert!(link
            .compare_exchange_owned(
                debra_repro::debra::Shared::null(),
                owned,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
                &guard,
            )
            .is_ok());
    }
    let nn = |s: debra_repro::debra::Shared<'_, u64>| NonNull::new(s.as_ptr()).unwrap();

    let mut set = set_of(&guard);
    let a = set.protect(0, &link_a).expect("protect a");
    let b = set.protect(1, &link_b).expect("protect b");
    assert!(hp.is_protected_by_any(nn(a)));
    assert!(hp.is_protected_by_any(nn(b)));

    // Rotate the three roles: a and b stay protected (their slots never move).
    set.rotate([0, 1, 2]);
    assert!(hp.is_protected_by_any(nn(a)), "rotation must not drop a's announcement");
    assert!(hp.is_protected_by_any(nn(b)), "rotation must not drop b's announcement");

    // After rotate([0,1,2]), role 2 holds role 0's old slot — the one announcing `a`.
    // Protecting c there overwrites exactly that announcement.
    let c = set.protect(2, &link_c).expect("protect c");
    assert!(!hp.is_protected_by_any(nn(a)), "a left the window");
    assert!(hp.is_protected_by_any(nn(b)));
    assert!(hp.is_protected_by_any(nn(c)));

    // Dropping the set releases every slot.
    drop(set);
    for s in [a, b, c] {
        assert!(!hp.is_protected_by_any(nn(s)));
    }
    drop(guard);
    for link in [link_a, link_b, link_c] {
        domain.free_reachable(link.load_ptr(std::sync::atomic::Ordering::Relaxed), |_| {
            std::ptr::null_mut()
        });
    }
}

/// Helper pinning the set size used by the rotation test (type inference aid).
fn set_of<'g>(
    guard: &'g debra_repro::debra::Guard<
        u64,
        HazardPointers<u64>,
        ThreadPool<u64>,
        SystemAllocator<u64>,
    >,
) -> debra_repro::debra::ShieldSet<
    'g,
    3,
    u64,
    HazardPointers<u64>,
    ThreadPool<u64>,
    SystemAllocator<u64>,
> {
    guard.shield_set::<3>()
}

/// The per-thread shield-slot pool is finite: leasing more than 32 slots at once panics
/// rather than silently sharing a slot (which would drop a protection).
#[test]
#[should_panic(expected = "too many live Shields")]
fn shield_set_exhaustion_panics() {
    let domain: HpDomain = Domain::new(1);
    let guard = domain.pin();
    let _set = guard.shield_set::<33>();
}

/// `ShieldSet::duplicate` asserts, in debug builds, that the source role protects the
/// record.  Under a scheme that announces records one by one (HP) a record the role does
/// not announce trips it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "duplicate requires the record to be protected by the source role")]
fn duplicate_of_a_record_the_source_role_does_not_protect_panics_under_hp() {
    let domain: HpDomain = Domain::new(1);
    let guard = domain.pin();
    let owned = guard.alloc(7);
    let mut set = guard.shield_set::<2>();
    set.duplicate(0, 1, owned.shared());
}

/// The same duplicate passes under DEBRA, which announces no record to check, and under
/// HP once the source role announces the record; the copy then outlives the source.
#[test]
fn duplicate_checks_only_what_the_scheme_announces() {
    let domain: DebraDomain = Domain::new(1);
    let guard = domain.pin();
    let owned = guard.alloc(7);
    let mut set = guard.shield_set::<2>();
    set.duplicate(0, 1, owned.shared());
    drop(set);
    guard.discard(owned);

    let domain: HpDomain = Domain::new(1);
    let hp = Arc::clone(domain.manager().reclaimer());
    let guard = domain.pin();
    let owned = guard.alloc(7);
    let record = NonNull::new(owned.shared().as_ptr()).unwrap();
    let mut set = guard.shield_set::<2>();
    set.protect_private(0, &owned);
    set.duplicate(0, 1, owned.shared());
    set.release(0);
    assert!(hp.is_protected_by_any(record), "role 1's copy stands after role 0 lets go");
    drop(set);
    guard.discard(owned);
}

/// The `Recovery` scope is the RAII bracket of DEBRA+'s restricted hazard pointers: a
/// protection announced in the scope survives a [`Restart`] recovery cycle (the
/// completion-phase protocol — `Guard::recover` must *not* release it) and is released
/// when the scope drops.
#[test]
fn recovery_scope_survives_restart_and_releases_on_drop() {
    let domain: DebraPlusDomain = Domain::new(2);
    let handle = domain.handle();
    let guard = domain.pin();
    let owned = guard.alloc(7u64);

    let recovery = handle.recovery();
    let token = recovery.protect(owned.shared());
    assert!(recovery.is_protected(owned.shared()));

    let mut attempts = 0;
    handle.run(|g| {
        attempts += 1;
        if attempts == 1 {
            // Unwinding with Restart runs the recovery protocol; the restricted
            // protection must survive it (an interrupted insert still needs its
            // published record covered in the next attempt).
            return Err(Restart);
        }
        let shared = token.get(g);
        assert!(recovery.is_protected(shared), "restricted HP must survive the restart");
        Ok(())
    });
    assert_eq!(attempts, 2);

    drop(recovery);
    // A fresh scope observes that the drop released everything (RUnprotectAll).
    let fresh = handle.recovery();
    assert!(!fresh.is_protected(owned.shared()));
    drop(fresh);
    guard.discard(owned);
}

/// Pins the helping policy per scheme: helping (unvalidated traversal of another
/// operation's records) is an epoch-style capability.  Schemes whose safety argument is
/// tied to their own validated accesses — hazard pointers, ThreadScan, **and IBR** —
/// must refuse it, and so must VBR, whose reads announce nothing at all.  Regression for the seed's external-BST livelock: the old
/// `protection_slots() > 0` gate let IBR help, and a stale helper's child CAS racing
/// record recycling could resurrect an already-removed marked node, permanently wedging
/// every IBR-validated traversal through it.
#[test]
fn helping_policy_matches_the_scheme_taxonomy() {
    fn helping<S: Scheme>() -> (&'static str, bool) {
        let domain: SchemeDomain<S, u64> = Domain::new(1);
        let guard = domain.pin();
        (S::name(), guard.helping_allowed())
    }
    for id in schemes::IDS {
        let (name, helps) = for_each_scheme!(match *id => helping());
        let epoch_style = matches!(name, "None" | "DEBRA" | "DEBRA+" | "EBR");
        assert_eq!(
            helps,
            epoch_style,
            "{name} must {}help: only epoch-style pins cover a link the helper never read",
            if epoch_style { "" } else { "not " }
        );
    }
}

/// Two live `Recovery` scopes on one thread would let the inner drop release the outer
/// scope's protections (`RUnprotectAll` is all-or-nothing), so nesting panics.
#[test]
#[should_panic(expected = "Recovery scopes must not nest")]
fn recovery_scopes_do_not_nest() {
    let domain: DebraDomain = Domain::new(1);
    let handle = domain.handle();
    let _outer = handle.recovery();
    let _inner = handle.recovery();
}

/// The skip list's safe-layer entry points: construction in a domain and automatic slot
/// leasing through it (the operation bodies run fully on the guard API).
#[test]
fn skiplist_domain_entry_points() {
    type Node = SkipNode<u64, u64>;
    type List = SkipList<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    let domain: Domain<Node, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>> = Domain::new(2);
    let list: List = SkipList::in_domain(domain);
    let mut a = list.register().expect("auto slot 0");
    let b = list.register().expect("same thread shares the lease");
    assert_eq!(a.tid(), b.tid(), "one lease per (thread, domain) pair");
    assert!(list.insert(&mut a, 1, 10));
    assert!(list.contains(&mut a, &1));
    drop(b);
    drop(a);
    let mut c = list.register().expect("slots recycled");
    assert!(list.remove(&mut c, &1));
}
