//! Version-clock contract of the VBR scheme, tested end to end.
//!
//! Three layers of the tentpole's safety argument are pinned down here:
//!
//! 1. **Clock monotonicity** (property-based): the global version clock never goes
//!    backwards under concurrent retire-driven advancement, and per-slot birth
//!    versions are monotone and never ahead of the clock.
//! 2. **Stale-reader neutralization** (deterministic, mutation-style like
//!    `tests/sanitizer.rs`): a reader pinned at version `v` always gets a typed
//!    [`Restart`] from every checkpoint once the clock reaches `v + 2`, and the
//!    run-loop re-pin clears the staleness and completes the operation.
//! 3. **The allocator gate** (satellite: `AllocatorRequirement`): registering VBR
//!    over a non-type-stable allocator must panic with an actionable message.

use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use proptest::prelude::*;

use debra_repro::debra::{
    Allocator as _, Atomic, Domain, Headed, Pool as _, ReclaimSink, Reclaimer, ReclaimerThread,
    RecordManager, Shared,
};
use debra_repro::smr_alloc::{SystemAllocator, ThreadPool};
use debra_repro::smr_pagepool::{PageAllocator, PagePool};
use debra_repro::smr_vbr::{Vbr, VbrConfig};

/// A sink that frees what it accepts (test records come from `leak`).
#[derive(Default)]
struct FreeingSink;
impl ReclaimSink<u64> for FreeingSink {
    fn accept(&mut self, record: NonNull<u64>) {
        unsafe { Headed::drop_boxed(record) };
    }
}

/// A record with a header in front, as the Record Manager's allocators lay it out.
fn leak(v: u64) -> NonNull<u64> {
    Headed::boxed(v)
}

fn free_orphans(v: &Vbr<u64>) {
    for r in v.drain_orphans() {
        unsafe { Headed::drop_boxed(r) };
    }
}

proptest! {
    /// The clock observed by any thread is monotone while other threads drive it
    /// through the retire path, and every thread's pin snapshot is never ahead of
    /// the clock it re-reads.
    #[test]
    fn clock_is_monotone_under_concurrent_advancement(
        threads in 2usize..5,
        ops in 50u64..300,
    ) {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(threads, VbrConfig::tiny()));
        let start = v.current_version();
        let joins: Vec<_> = (0..threads)
            .map(|tid| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    let mut t = Vbr::register(&v, tid).unwrap();
                    let mut sink = FreeingSink;
                    let mut last = v.current_version();
                    for i in 0..ops {
                        let _ = t.leave_qstate(&mut sink);
                        assert!(t.op_version() <= v.current_version());
                        unsafe { t.retire(leak(i), &mut sink) };
                        let now = v.current_version();
                        assert!(now >= last, "clock went backwards: {last} -> {now}");
                        last = now;
                        t.enter_qstate();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        prop_assert!(v.current_version() > start, "retire-driven ticks must advance the clock");
        free_orphans(&v);
    }

    /// Per-slot birth versions are monotone across rebirths, never decrease under
    /// interleaved clock advancement, and never get ahead of the clock — the
    /// ordering the one-tick validation path relies on.
    #[test]
    fn birth_versions_are_monotone_and_bounded_by_the_clock(
        script in proptest::collection::vec(0u8..3, 1..60),
    ) {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(1, VbrConfig::tiny()));
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = FreeingSink;
        let _ = t.leave_qstate(&mut sink);
        let record = leak(0);
        let mut last_birth = 0;
        for step in script {
            match step {
                0 => { v.advance_version(); }
                _ => { t.record_allocated(record); }
            }
            let birth = unsafe { v.birth_version(record) };
            prop_assert!(birth >= last_birth, "birth went backwards: {last_birth} -> {birth}");
            prop_assert!(birth <= v.current_version(), "a record cannot be born in the future");
            last_birth = birth;
        }
        // Retiring stamps the limbo batch with the current clock, so the retire
        // version can never precede the last birth.
        unsafe { t.retire(record, &mut sink) };
        prop_assert!(last_birth <= v.current_version());
        drop(t);
        free_orphans(&v);
    }
}

type VbrManager = RecordManager<u64, Vbr<u64>, PagePool<u64>, PageAllocator<u64>>;
type VbrDomain = Domain<u64, Vbr<u64>, PagePool<u64>, PageAllocator<u64>>;

fn tiny_vbr_domain(threads: usize) -> (Arc<VbrManager>, VbrDomain) {
    let manager = Arc::new(RecordManager::from_parts(
        Arc::new(Vbr::with_config(threads, VbrConfig::tiny())),
        Arc::new(PagePool::new(threads)),
        Arc::new(PageAllocator::new(threads)),
    ));
    let domain = Domain::with_manager(Arc::clone(&manager));
    (manager, domain)
}

/// The deterministic staleness contract at the guard layer: a reader pinned at
/// version `v` passes every checkpoint while `clock < v + 2`, and *always* gets a
/// typed `Restart` from both `check` and `protect` once the clock reaches `v + 2`.
#[test]
fn stale_reader_always_gets_a_typed_restart() {
    let (manager, domain) = tiny_vbr_domain(2);
    let vbr = manager.reclaimer();

    let guard = domain.pin();
    let link = Atomic::from_owned(guard.alloc(41u64));
    assert!(guard.check().is_ok());
    let mut shield = guard.shield();
    assert!(shield.protect(&link).is_ok(), "fresh snapshot: fast path");

    vbr.advance_version();
    // One tick: the validate path re-reads the link and re-checks the window.
    assert!(guard.check().is_ok());
    assert!(shield.protect(&link).is_ok(), "one tick: validated read passes");

    vbr.advance_version();
    // Two ticks: stale.  Every checkpoint now refuses, deterministically.
    for _ in 0..3 {
        assert!(guard.check().is_err(), "a stale reader must fail check()");
        assert!(shield.protect(&link).is_err(), "a stale reader must fail protect()");
    }
    drop(shield);
    drop(guard);

    // Re-pinning takes a fresh snapshot; the same reader passes again, and the
    // record (born before the new snapshot) is readable and retirable.
    let guard = domain.pin();
    assert!(guard.check().is_ok());
    let mut shield = guard.shield();
    let node = shield.protect(&link).expect("fresh pin clears staleness");
    assert_eq!(node.as_ref().copied(), Some(41));
    link.compare_exchange(node, Shared::null(), Ordering::AcqRel, Ordering::Acquire, &guard)
        .expect("unlink is uncontended");
    guard.retire(node);
    assert!(vbr.stats().epoch_stalls >= 6, "each refused checkpoint counts a stall");
}

/// The run-loop half of the contract: a `Restart` surfaced mid-operation re-pins
/// and re-runs the body, so an operation interrupted by staleness still completes.
#[test]
fn stale_operation_is_rerun_to_completion() {
    let (manager, domain) = tiny_vbr_domain(2);
    let vbr = Arc::clone(manager.reclaimer());

    let mut attempts = 0;
    let out = domain.run(|guard| {
        attempts += 1;
        if attempts == 1 {
            // Make this pin stale mid-operation, then hit a checkpoint.
            vbr.advance_version();
            vbr.advance_version();
            guard.check()?;
            unreachable!("a stale reader cannot pass the checkpoint");
        }
        guard.check()?;
        Ok(attempts)
    });
    assert_eq!(out, 2, "the operation must be re-run exactly once after the restart");
}

/// Satellite: the `AllocatorRequirement` gate.  VBR's optimistic reads are only
/// machine-safe over type-stable memory, so composing it with a non-type-stable
/// allocator must fail fast at registration with an actionable message.
#[test]
#[should_panic(expected = "requires ALLOCATOR=pagepool")]
fn vbr_rejects_non_type_stable_allocators() {
    let _manager: RecordManager<u64, Vbr<u64>, ThreadPool<u64>, SystemAllocator<u64>> =
        RecordManager::new(2);
}
