//! Limbo accounting under a stalled thread: the trial harness's reclaimer statistics must
//! show DEBRA+ keeping its limbo-bytes high watermark bounded while a pinned laggard holds
//! operations open next to the workers.
//!
//! The laggard lives here, not in the harness: it is an extra Record Manager participant
//! that the test registers beside a [`run_trial`] of the hash map.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debra_repro::debra::{Allocator, DebraPlus, Pool, Reclaimer, RecordManager};
use debra_repro::smr_hashmap::{HashMapNode, LockFreeHashMap};
use debra_repro::smr_pagepool::{PageAllocator, PagePool};
use smr_workloads::{run_trial, AllocatorKind, KeyDistribution, OperationMix, WorkloadConfig};

type Node = HashMapNode<u64, u64>;
type Manager = RecordManager<Node, DebraPlus<Node>, PagePool<Node>, PageAllocator<Node>>;

/// The bounded-garbage stress: a neutralizing epoch scheme (DEBRA+) with a pinned laggard
/// holding 5ms windows open must keep the limbo-bytes high watermark bounded — the laggard
/// is exactly the adversary that makes plain epoch schemes (DEBRA, EBR) balloon into the
/// multi-megabyte range, and DEBRA+'s neutralization is the mechanism that caps it.
///
/// The bound is empirical but wide: under this configuration DEBRA+ peaks well under
/// 512 KiB, while the non-neutralizing epoch schemes exceed 1 MiB within 60 ms.  4 MiB
/// gives ample headroom over DEBRA+ peaks while still sitting below what an unbounded
/// scheme accumulates in a fraction of the trial.
#[test]
fn limbo_bytes_stay_bounded_under_pinned_laggard_with_neutralization() {
    const LIMBO_BOUND_BYTES: u64 = 4 << 20;
    const STALL: Duration = Duration::from_millis(5);
    let cfg = WorkloadConfig {
        threads: 4,
        key_range: 512,
        mix: OperationMix::UPDATE_HEAVY,
        distribution: KeyDistribution::Uniform,
        duration_ms: 120,
        prefill: true,
        allocator: AllocatorKind::PagePool,
    };
    // One slot per worker, one for the calling thread, and the last one for the laggard.
    let slots = cfg.threads + 2;
    let manager: Arc<Manager> = Arc::new(RecordManager::new(slots));
    let map = LockFreeHashMap::new(Arc::clone(&manager));

    let stop = AtomicBool::new(false);
    let ready = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Register on the laggard thread itself: DEBRA+ signals the registering thread.
            let mut laggard = manager.register(slots - 1).expect("laggard thread slot");
            ready.store(true, Ordering::SeqCst);
            while !stop.load(Ordering::Relaxed) {
                let _ = laggard.leave_qstate();
                let window = Instant::now();
                while window.elapsed() < STALL && !stop.load(Ordering::Relaxed) {
                    if laggard.check().is_err() {
                        laggard.begin_recovery();
                        let _ = laggard.leave_qstate();
                    }
                    std::thread::yield_now();
                }
                laggard.enter_qstate();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        while !ready.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let result = run_trial(
            &map,
            &cfg,
            0x0B5E,
            || manager.reclaimer().stats(),
            || (manager.allocator().allocated_bytes(), manager.allocator().allocated_records()),
            || manager.pool().stats(),
        );
        stop.store(true, Ordering::SeqCst);
        result
    });

    let stats = &result.reclaimer;
    assert!(stats.retired > 0, "update-heavy trial must retire records");
    assert!(
        stats.limbo_bytes_hwm < LIMBO_BOUND_BYTES,
        "DEBRA+ limbo hwm {} exceeded the {} byte bound despite neutralization",
        stats.limbo_bytes_hwm,
        LIMBO_BOUND_BYTES
    );
    // The watermark is a high watermark: it can never sit below the final gauge.
    assert!(stats.limbo_bytes_hwm >= stats.limbo_bytes);
}
