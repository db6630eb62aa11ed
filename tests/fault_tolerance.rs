//! Failure injection: a thread stalls inside a data structure operation.
//!
//! Checks the paper's central claim (Section 5): under DEBRA a stalled process prevents all
//! reclamation, while under DEBRA+ it is neutralized and the number of unreclaimed records
//! stays bounded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use debra_repro::debra::{
    CountingSink, Debra, DebraPlus, ReclaimSink, Reclaimer, ReclaimerStats, ReclaimerThread,
};
use std::ptr::NonNull;

struct FreeSink;
impl ReclaimSink<u64> for FreeSink {
    fn accept(&mut self, record: NonNull<u64>) {
        // SAFETY: test records are leaked boxes reclaimed exactly once.
        unsafe { drop(Box::from_raw(record.as_ptr())) }
    }
}

/// Runs the stalled-thread scenario and returns (peak pending, final statistics).
fn run_with_staller<R: Reclaimer<u64>>(retires: u64) -> (u64, ReclaimerStats) {
    let global = Arc::new(R::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));

    let staller = {
        let global = Arc::clone(&global);
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            let mut t = R::register(&global, 1).expect("register staller");
            let mut sink = CountingSink::default();
            let _ = t.leave_qstate(&mut sink);
            started.store(true, Ordering::Release);
            while !stop.load(Ordering::Acquire) {
                if t.check().is_err() {
                    t.begin_recovery();
                    let _ = t.leave_qstate(&mut sink);
                }
                // Yield, don't just spin: single-core hosts need the other threads to run.
                std::thread::yield_now();
            }
            t.enter_qstate();
        })
    };
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    let mut worker = R::register(&global, 0).expect("register worker");
    let mut sink = FreeSink;
    let mut peak = 0u64;
    for i in 0..retires {
        let _ = worker.leave_qstate(&mut sink);
        let record = NonNull::from(Box::leak(Box::new(i)));
        // SAFETY: never published; retired exactly once.
        unsafe { worker.retire(record, &mut sink) };
        worker.enter_qstate();
        if i % 1000 == 0 {
            peak = peak.max(global.stats().pending);
        }
    }
    peak = peak.max(global.stats().pending);
    stop.store(true, Ordering::Release);
    staller.join().unwrap();

    let stats = global.stats();
    drop(worker);
    for r in global.drain_orphans() {
        // SAFETY: orphans are the leaked test records, now exclusively owned.
        unsafe { drop(Box::from_raw(r.as_ptr())) };
    }
    (peak, stats)
}

#[test]
fn debra_cannot_reclaim_past_a_stalled_thread() {
    let retires = 50_000;
    let (peak, stats) = run_with_staller::<Debra<u64>>(retires);
    let reclaimed = stats.reclaimed;
    // The stalled thread pins the epoch: (almost) everything stays in limbo.
    assert!(reclaimed < retires / 10, "DEBRA should reclaim (almost) nothing, got {reclaimed}");
    assert!(peak > retires / 2, "garbage should grow with the workload, peak was {peak}");
}

#[test]
fn debra_plus_neutralizes_and_bounds_garbage() {
    let retires = 50_000;
    let (peak, stats) = run_with_staller::<DebraPlus<u64>>(retires);
    let reclaimed = stats.reclaimed;
    assert!(stats.neutralized > 0, "the stalled thread must be neutralized at least once");
    assert!(reclaimed > retires / 2, "most records should be reclaimed, got {reclaimed}");
    // The paper's bound is O(c + nm) per thread; with default configuration that is a few
    // thousand records — far below the 50k that an unbounded scheme would accumulate.
    assert!(peak < retires / 4, "garbage should stay bounded under DEBRA+, peak was {peak}");
    // The same bound in bytes, read from the limbo watermark instead of sampled `pending`:
    // the watermark sees every peak, not just the ones a 1-in-1000 sample lands on.
    let hwm = stats.limbo_bytes_hwm;
    assert!(hwm > 0, "retired records must show up in the limbo-bytes watermark");
    let bound = (retires / 4) * std::mem::size_of::<u64>() as u64;
    assert!(hwm < bound, "DEBRA+ limbo watermark {hwm} B exceeded {bound} B");
    assert!(hwm >= stats.limbo_bytes, "a high watermark never sits below the final gauge");
}

#[test]
fn debra_plus_overhead_of_fault_tolerance_is_reasonable() {
    // Not a performance assertion (CI machines vary), just a sanity check that both finish
    // the same amount of work and produce consistent accounting.
    let retires = 20_000;
    let (_, stats) = run_with_staller::<DebraPlus<u64>>(retires);
    let stats_ok = stats.reclaimed <= retires;
    assert!(stats_ok);
}
