//! Per-layer probes: one thread calls a layer's public functions directly on a scratch
//! `Domain<u64, …>` over the page pool and reports the median ns per call over batches
//! of 1024.  Each scheme's probes run in a child process of their own, like a cell.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use debra::{
    Allocator, Atomic, Debra, DebraPlus, Domain, DomainHandle, Pool, PoolThread, Reclaimer,
};
use smr_alloc::{SystemAllocator, ThreadPool};
use smr_baselines::{ClassicEbr, HazardPointers, NoReclaim, ThreadScanLite};
use smr_ibr::Ibr;
use smr_pagepool::{PageAllocator, PagePool};
use smr_vbr::Vbr;

use crate::cell::for_scheme;
use crate::clock::Clock;
use crate::hist::Histogram;
use crate::json::Json;
use crate::spec::Scheme;

const BATCH: usize = 1024;

/// Batches per probe; a quick run (smoke mode, tests) takes a tenth.
fn batches(quick: bool) -> usize {
    if quick {
        20
    } else {
        200
    }
}

/// Median over `n` batches of the per-call time of `batch`, which runs `BATCH` calls.
fn median_ns(clock: &Clock, n: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches, pools and lazy registration
    let mut per_call: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = clock.raw();
            batch();
            clock.ns_between(t0, clock.raw()) as f64 / BATCH as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// One `alloc → publish → unlink → retire` cycle inside its own pin, as a structure's
/// remove does it.
#[inline(always)]
fn retire_cycle<R, P, A>(handle: &DomainHandle<u64, R, P, A>, link: &Atomic<u64>, value: u64)
where
    R: Reclaimer<u64>,
    P: Pool<u64>,
    A: Allocator<u64>,
{
    let guard = handle.pin();
    let null = link.load(Ordering::Acquire, &guard);
    let node = guard.alloc(value);
    let published = link
        .compare_exchange_owned(null, node, Ordering::AcqRel, Ordering::Acquire, &guard)
        .expect("the probe's link is private to this thread");
    link.compare_exchange(published, null, Ordering::AcqRel, Ordering::Acquire, &guard)
        .expect("the probe's link is private to this thread");
    guard.retire(published);
}

fn scheme_probes<R, P, A>(scheme: Scheme, quick: bool) -> Vec<(String, f64)>
where
    R: Reclaimer<u64>,
    P: Pool<u64>,
    A: Allocator<u64>,
{
    let clock = Clock::calibrate();
    let n = batches(quick);
    let domain: Domain<u64, R, P, A> = Domain::new(2);
    let handle = domain.handle();
    let link: Atomic<u64> = Atomic::null();

    // `DomainHandle::pin()` plus the guard's drop: leave and re-enter the quiescent state.
    let pin_ns = median_ns(&clock, n, || {
        for _ in 0..BATCH {
            drop(std::hint::black_box(handle.pin()));
        }
    });

    // `Shield::protect` of a published record, inside one pin (same epoch / version).
    let protect_ns = {
        let guard = handle.pin();
        let null = link.load(Ordering::Acquire, &guard);
        let published = link
            .compare_exchange_owned(
                null,
                guard.alloc(1),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            )
            .expect("the probe's link is private to this thread");
        let mut shield = guard.shield();
        let ns = median_ns(&clock, n, || {
            for _ in 0..BATCH {
                let _ = std::hint::black_box(shield.protect(&link));
            }
        });
        drop(shield);
        link.compare_exchange(published, null, Ordering::AcqRel, Ordering::Acquire, &guard)
            .expect("the probe's link is private to this thread");
        guard.retire(published);
        ns
    };

    // The retire cycle, amortised, with whatever reclamation it triggers; the pin it
    // runs in is taken off so that `ds.self_ns` does not subtract a pin twice.
    let cycle_ns = median_ns(&clock, n, || {
        for i in 0..BATCH {
            retire_cycle(&handle, &link, i as u64);
        }
    });
    let mut metrics = vec![
        (format!("guard.pin_ns.{}", scheme.name()), pin_ns),
        (format!("guard.protect_ns.{}", scheme.name()), protect_ns),
        (format!("guard.retire_ns.{}", scheme.name()), (cycle_ns - pin_ns).max(0.0)),
    ];

    // Single cycles, timed one by one: the p99.9 is the scan or epoch-rotation burst,
    // whichever of pin and retire the scheme does it in.
    if scheme != Scheme::None {
        let mut hist = Histogram::new();
        for i in 0..n * BATCH / 2 {
            let t0 = clock.raw();
            retire_cycle(&handle, &link, i as u64);
            hist.record(clock.ns_between(t0, clock.raw()));
        }
        metrics.push((format!("guard.retire_p999_ns.{}", scheme.name()), hist.quantile(0.999)));
    }
    metrics
}

/// `PoolThread::allocate` + `deallocate` against a warm magazine (hit) and against an
/// emptied pool (miss: a page-store carve, or `malloc`).
fn alloc_probes<P: Pool<u64>, A: Allocator<u64>>(label: &str, quick: bool) -> Vec<(String, f64)> {
    let clock = Clock::calibrate();
    let n = batches(quick);
    let (pool, alloc) = (Arc::new(P::new(1)), Arc::new(A::new(1)));
    let (mut pool_t, mut alloc_t) = (P::register(&pool, 0), A::register(&alloc, 0));

    let hit_ns = median_ns(&clock, n, || {
        for i in 0..BATCH {
            let record = std::hint::black_box(pool_t.allocate(i as u64, &mut alloc_t));
            // SAFETY: allocated just above by this pool/allocator pair and never shared.
            unsafe { pool_t.deallocate(record, &mut alloc_t) };
        }
    });

    let mut held = Vec::with_capacity(BATCH);
    let mut emptied = Vec::new();
    let mut per_call: Vec<f64> = (0..n)
        .map(|_| {
            // Untimed: empty the pool, so that every allocation below falls through it.
            // The records taken out stay out until the process ends.
            while let Some(record) = pool_t.try_take() {
                emptied.push(record);
            }
            let t0 = clock.raw();
            for i in 0..BATCH {
                held.push(pool_t.allocate(i as u64, &mut alloc_t));
            }
            for record in held.drain(..) {
                // SAFETY: as above.
                unsafe { pool_t.deallocate(record, &mut alloc_t) };
            }
            clock.ns_between(t0, clock.raw()) as f64 / BATCH as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    vec![
        (format!("alloc.hit_ns.{label}"), hit_ns),
        (format!("alloc.miss_ns.{label}"), per_call[per_call.len() / 2]),
    ]
}

/// Runs the probes named by `what` — a scheme name, or `alloc` — and prints one
/// `P {json}` line of metric values.
pub fn run(what: &str, quick: bool) -> Result<(), String> {
    let metrics = if what == "alloc" {
        let mut m = alloc_probes::<ThreadPool<u64>, SystemAllocator<u64>>("malloc_pool", quick);
        m.extend(alloc_probes::<PagePool<u64>, PageAllocator<u64>>("pagepool", quick));
        m
    } else {
        let scheme = Scheme::parse(what).ok_or_else(|| format!("unknown probe {what:?}"))?;
        for_scheme!(scheme, u64, PagePool, PageAllocator, scheme_probes(scheme, quick))
    };
    println!("P {}", Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_every_metric_of_their_scheme() {
        let m = scheme_probes::<HazardPointers<u64>, PagePool<u64>, PageAllocator<u64>>(
            Scheme::Hp,
            true,
        );
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "guard.pin_ns.hp",
                "guard.protect_ns.hp",
                "guard.retire_ns.hp",
                "guard.retire_p999_ns.hp"
            ]
        );
        assert!(m.iter().all(|(_, v)| v.is_finite() && *v >= 0.0), "{m:?}");
        let a = alloc_probes::<ThreadPool<u64>, SystemAllocator<u64>>("malloc_pool", true);
        assert!(a[1].1 > a[0].1, "a miss (malloc) costs more than a pool hit: {a:?}");
    }
}
