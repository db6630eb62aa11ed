//! Mutation-style validation of the `smr-check` pointer-race sanitizer.
//!
//! Each `*_is_flagged` test re-injects one of the workspace's three historical seed
//! bugs — fixed by hand in PRs 1–4, now expected to be caught mechanically — and
//! asserts that the shadow-state machine reports exactly the right violation class:
//!
//! 1. **Double retire** (the queue/skiplist double-free): the same record handed to
//!    `retire` twice, single-threaded and racing from two threads.
//! 2. **Hazard-pointer full-word UAF** (the mark-stripping bug): a reader announces the
//!    *tagged* word instead of the stripped pointer, so the scan does not see the record
//!    as protected, frees it under the reader, and the subsequent deref is a
//!    use-after-free.
//! 3. **Teardown leak**: a published record never retired is reported when its Record
//!    Manager is torn down.
//!
//! The clean-run tests are the other half of the contract: a correct workload under every
//! scheme must produce **zero** reports (no false positives) — the Harris–Michael list,
//! the hash map, the Michael–Scott queue and the Treiber stack, each under every scheme
//! of the registry.
//!
//! The sanitizer's counters and shadow table are process-global, so every test
//! serializes on [`LOCK`] and asserts on counter *deltas*.

#![cfg(feature = "smr_sanitize")]

use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use check::ViolationKind;
use debra_repro::debra::{Allocator as _, Atomic, Debra, Domain, Pool as _, RecordManager, Shared};
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{ConcurrentBag, ConcurrentMap, HarrisMichaelList, ListNode};
use debra_repro::schemes::{Manager, Scheme};
use debra_repro::smr_alloc::{SystemAllocator, ThreadPool};
use debra_repro::smr_baselines::{ClassicEbr, HazardPointers, HpConfig};
use debra_repro::smr_check as check;
use debra_repro::smr_hashmap::{HashMapNode, LockFreeHashMap};
use debra_repro::smr_queue::{MsQueue, QueueNode, StackNode, TreiberStack};

/// Serializes the tests: the shadow table, violation counters and panic-mode switch are
/// process-global.  Poison-tolerant so one failing test does not cascade.
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

type DebraDomain = Domain<u64, Debra<u64>, ThreadPool<u64>, SystemAllocator<u64>>;
type HpManager = RecordManager<u64, HazardPointers<u64>, ThreadPool<u64>, SystemAllocator<u64>>;

/// Seed bug 1a, single-threaded shape: an unlink path that retires its victim twice.
/// Record mode must report `DoubleRetire` once and *suppress* the second hand-off so the
/// flagged run stays memory-safe (no actual double free).
#[test]
fn double_retire_is_flagged_and_suppressed() {
    let _serial = locked();
    let before = check::count(ViolationKind::DoubleRetire);

    let domain: Domain<u64, ClassicEbr<u64>, ThreadPool<u64>, SystemAllocator<u64>> =
        Domain::new(2);
    {
        let guard = domain.pin();
        let link = Atomic::from_owned(guard.alloc(0xDEAD_u64));
        let node = link.load(Ordering::Acquire, &guard);
        link.compare_exchange(node, Shared::null(), Ordering::AcqRel, Ordering::Acquire, &guard)
            .expect("unlink is uncontended");
        guard.retire(node); // the legitimate retire of the unique unlinker
        guard.retire(node); // the re-injected bug
    }
    drop(domain);

    assert_eq!(
        check::count(ViolationKind::DoubleRetire) - before,
        1,
        "the second retire must be reported exactly once"
    );
    let _ = check::take_violations();
}

/// Seed bug 1b, the racing shape (the skip-list double-free): two threads both believe
/// they won the unlink and both retire the same node.  Exactly one extra retire exists,
/// so exactly one `DoubleRetire` must be reported — from whichever thread lost.
#[test]
fn racing_double_retire_is_flagged() {
    let _serial = locked();
    let before = check::count(ViolationKind::DoubleRetire);

    let domain: Arc<DebraDomain> = Arc::new(Domain::new(4));
    // `link` is the contended location both threads try to unlink; `stale` is the
    // snapshot each racing thread already holds (it is never overwritten, exactly like
    // the local variable in the original skip-list unlink path).
    let (link, stale) = {
        let guard = domain.pin();
        let link = Atomic::from_owned(guard.alloc(0xBEEF_u64));
        let stale = Atomic::from_shared(link.load(Ordering::Acquire, &guard));
        (Arc::new(link), Arc::new(stale))
    };

    let mut joins = Vec::new();
    for _ in 0..2 {
        let domain = Arc::clone(&domain);
        let link = Arc::clone(&link);
        let stale = Arc::clone(&stale);
        joins.push(std::thread::spawn(move || {
            let guard = domain.pin();
            let node = stale.load(Ordering::Acquire, &guard);
            // The re-injected bug: both threads retire whether or not their unlink CAS
            // won (the correct code retires only on `Ok`).
            let _ = link.compare_exchange(
                node,
                Shared::null(),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            );
            guard.retire(node);
        }));
    }
    for j in joins {
        j.join().expect("retiring thread must not crash: record mode suppresses the bug");
    }
    drop(link);
    drop(domain);

    assert_eq!(
        check::count(ViolationKind::DoubleRetire) - before,
        1,
        "two retires of one record must produce exactly one report"
    );
    let _ = check::take_violations();
}

/// Seed bug 2: the hazard-pointer full-word / mark-stripping use-after-free.  The reader
/// announces the *tagged* word (`addr | 1`); the scan compares full words, so the record
/// is invisible to it, gets freed under the reader, and the deref that follows is a
/// use-after-free.  Record mode cannot make a real deref of freed memory safe, so this
/// test flips the sanitizer into panic mode and catches the abort *before* the deref.
#[test]
fn hazard_pointer_tagged_announcement_uaf_is_flagged() {
    let _serial = locked();
    let before = check::count(ViolationKind::UseAfterFree);

    // Small slot/slack numbers make the scan threshold deterministic:
    // nk + max(nk, slack) = 2*2 + max(2*2, 0) = 8 retired records trigger a scan.
    let config = HpConfig { slots_per_thread: 2, scan_slack: 0, block_capacity: 4 };
    let manager: Arc<HpManager> = Arc::new(RecordManager::from_parts(
        Arc::new(HazardPointers::with_config(2, config)),
        Arc::new(ThreadPool::new(2)),
        Arc::new(SystemAllocator::new(2)),
    ));
    let domain = Domain::with_manager(Arc::clone(&manager));

    // The victim is published first so the domain's lease takes tid 0 ...
    let link = {
        let guard = domain.pin();
        Atomic::from_owned(guard.alloc(41_u64))
    };
    // ... and the raw reader handle takes tid 1 (the raw layer is the only place the
    // buggy announcement can be written: the safe layer always strips tags).
    let mut reader = manager.register(1).expect("tid 1 is free");
    let mut op = reader.guard();
    let stale = {
        let node = link.load(Ordering::Acquire, &op);
        Atomic::from_shared(node)
    };
    let victim = link.load_ptr(Ordering::Acquire);
    let tagged = NonNull::new((victim as usize | 1) as *mut u64).expect("victim is non-null");
    // The re-injected bug: announce the tagged word.  The validation closure passes —
    // exactly like the historical full-word validation did.
    assert!(op.protect(0, tagged, || true), "the buggy protect itself succeeds");

    // Unlink + retire the victim, then push enough retired records through tid 0 to
    // cross the scan threshold; the scan does not see `victim | 1` as covering `victim`
    // and frees it under the reader.
    {
        let guard = domain.pin();
        let node = link.load(Ordering::Acquire, &guard);
        link.compare_exchange(node, Shared::null(), Ordering::AcqRel, Ordering::Acquire, &guard)
            .expect("unlink is uncontended");
        guard.retire(node);
        for i in 0..12_u64 {
            let filler = Atomic::from_owned(guard.alloc(i));
            let node = filler.load(Ordering::Acquire, &guard);
            filler
                .compare_exchange(node, Shared::null(), Ordering::AcqRel, Ordering::Acquire, &guard)
                .expect("unlink is uncontended");
            guard.retire(node);
        }
    }

    // The reader now dereferences its stale, "protected" pointer.  Panic mode aborts
    // inside the sanitizer hook, *before* the actual read of freed memory.
    check::set_panic_on_violation(true);
    let deref = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let node = stale.load(Ordering::Acquire, &op);
        node.as_ref().copied()
    }));
    check::set_panic_on_violation(false);

    assert!(deref.is_err(), "the use-after-free deref must be intercepted");
    assert_eq!(
        check::count(ViolationKind::UseAfterFree) - before,
        1,
        "the deref of the freed record must be reported as a use-after-free"
    );
    drop(op);
    drop(reader);
    drop(domain);
    let _ = check::take_violations();
}

/// Seed bug 3: a published record that is never retired.  Tearing down the Record
/// Manager must report it through the leak counter.
#[test]
fn unretired_record_is_reported_as_leak_on_teardown() {
    let _serial = locked();
    let before = check::leaked_records();

    let domain: Domain<u64, ClassicEbr<u64>, ThreadPool<u64>, SystemAllocator<u64>> =
        Domain::new(2);
    let _leaked = {
        let guard = domain.pin();
        Atomic::from_owned(guard.alloc(7_u64))
    };
    drop(domain); // the structure "forgot" the node: published, never retired, never freed

    assert!(
        check::leaked_records() > before,
        "teardown must report the published-but-never-retired record"
    );
    let _ = check::take_violations();
}

const STRESS_THREADS: usize = 4;
const STRESS_OPS: u64 = 2_000;

/// Clean-run half of the mutation contract: a correct workload must be report-free under
/// every scheme.  Drives `structure` from [`STRESS_THREADS`] workers, each running
/// [`STRESS_OPS`] steps of `step` fed by a per-thread LCG stream, then drops the
/// structure (its teardown frees are shadowed too) and asserts a zero violation delta.
fn assert_clean_stress<S: Sync, H>(
    structure: S,
    register: impl Fn(&S) -> H + Sync,
    step: impl Fn(&S, &mut H, u64) + Sync,
) {
    let _serial = locked();
    let before = check::total_violations();
    std::thread::scope(|scope| {
        for tid in 0..STRESS_THREADS {
            let (structure, register, step) = (&structure, &register, &step);
            scope.spawn(move || {
                let mut handle = register(structure);
                let mut x: u64 = 0x5851_F42D_4C95_7F2D ^ ((tid as u64) << 13);
                for _ in 0..STRESS_OPS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    step(structure, &mut handle, x);
                }
            });
        }
    });
    drop(structure);

    assert_eq!(
        check::total_violations() - before,
        0,
        "a correct workload must produce zero sanitizer reports"
    );
}

/// The map rows: an insert/remove/get mix over 64 keys.
fn clean_map_stress<M: ConcurrentMap<u64, u64>>(map: M) {
    assert_clean_stress(
        map,
        |map| map.register().expect("register worker"),
        |map, handle, x| {
            let key = (x >> 33) % 64;
            match (x >> 61) % 4 {
                0 | 1 => {
                    let _ = map.insert(handle, key, key);
                }
                2 => {
                    let _ = map.remove(handle, &key);
                }
                _ => {
                    let _ = map.get(handle, &key);
                }
            }
        },
    );
}

/// The bag rows: 5/8 pushes, so pops rarely find the bag empty and nearly every pop
/// retires a record — the retire-per-operation regime no map mix reaches.
fn clean_bag_stress<B: ConcurrentBag<u64>>(bag: B) {
    assert_clean_stress(
        bag,
        |bag| bag.register().expect("register worker"),
        |bag, handle, x| {
            if (x >> 61) < 5 {
                bag.push(handle, x);
            } else {
                let _ = bag.pop(handle);
            }
        },
    );
}

/// The clean-run rows under every scheme, VBR on its type-stable page pool (the
/// validation-aware shadow model — `Revived` + excused stale derefs — must keep a clean
/// VBR run report-free).  Each row builds its structure over a fresh Record Manager with
/// a slot per worker plus one.
fn manager<S: Scheme, T: Send + 'static>() -> Arc<Manager<S, T>> {
    Arc::new(Manager::<S, T>::new(STRESS_THREADS + 1))
}

fn clean_stress_list<S: Scheme>() {
    clean_map_stress(HarrisMichaelList::new(manager::<S, ListNode<u64, u64>>()));
}
for_each_scheme!(tests clean_stress_*: clean_stress_list);

fn clean_stress_map<S: Scheme>() {
    clean_map_stress(LockFreeHashMap::new(manager::<S, HashMapNode<u64, u64>>()));
}
for_each_scheme!(tests clean_stress_map_*: clean_stress_map);

fn clean_stress_queue<S: Scheme>() {
    clean_bag_stress(MsQueue::new(manager::<S, QueueNode<u64>>()));
}
for_each_scheme!(tests clean_stress_queue_*: clean_stress_queue);

fn clean_stress_stack<S: Scheme>() {
    clean_bag_stress(TreiberStack::new(manager::<S, StackNode<u64>>()));
}
for_each_scheme!(tests clean_stress_stack_*: clean_stress_stack);
