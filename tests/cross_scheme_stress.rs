//! Cross-crate integration tests: every data structure is exercised under every
//! reclamation scheme through the Record Manager, with consistency invariants checked at
//! the end.  This is the "one data structure, any reclaimer" promise of the paper's
//! Record Manager abstraction, tested end to end.

use std::sync::Arc;

use debra_repro::debra::{DebraPlus, Reclaimer, RecordManager};
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{
    BstNode, ConcurrentBag, ConcurrentMap, ExternalBst, HarrisMichaelList, ListNode, SkipList,
    SkipNode,
};
use debra_repro::schemes::{ClassicEbr, Debra, Ibr, Manager, Memory, On, PageMemory, Scheme};
use debra_repro::smr_alloc::{BumpAllocator, SystemAllocator, ThreadPool};
use debra_repro::smr_hashmap::{HashMapNode, LockFreeHashMap};
use debra_repro::smr_ibr::Ibr as IbrReclaimer;
use debra_repro::smr_queue::{MsQueue, QueueNode, StackNode, TreiberStack};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 4_000;
/// Operation count for rows that must observe non-zero *reclaimed* counts: the epoch
/// schemes hand back whole limbo-bag blocks (256 records each, amortized O(1)), so the
/// workload must retire a few thousand records per thread before anything can flow back.
const OPS_PER_THREAD_RECLAIM: u64 = 20_000;
/// Budget for the skip-list reclaim rows: the skip list's taller operations spread a
/// similar number of retires over more epoch rotations, so each rotation's limbo bag
/// holds fewer records and 256-record blocks need a longer run to reliably fill (the
/// `reclaimed > 0` assertion flaked roughly once per thirty runs at the base budget).
const OPS_PER_THREAD_RECLAIM_SKIPLIST: u64 = 2 * OPS_PER_THREAD_RECLAIM;
const KEY_RANGE: u64 = 256;

/// Runs a mixed workload (`ops_per_thread` operations on each of [`THREADS`] workers) on
/// any map and checks that the net number of successful inserts matches the final size
/// reported by a full traversal.
fn stress_n<M>(map: Arc<M>, ops_per_thread: u64, check_len: impl Fn(&M, usize))
where
    M: ConcurrentMap<u64, u64> + 'static,
{
    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let map = Arc::clone(&map);
        joins.push(std::thread::spawn(move || {
            let mut handle = map.register().expect("register worker");
            let mut net: i64 = 0;
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ (tid as u64) << 17;
            for _ in 0..ops_per_thread {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % KEY_RANGE;
                match (x >> 61) % 4 {
                    0 | 1 => {
                        if map.insert(&mut handle, key, key.wrapping_mul(3)) {
                            net += 1;
                        }
                    }
                    2 => {
                        if map.remove(&mut handle, &key) {
                            net -= 1;
                        }
                    }
                    _ => {
                        let _ = map.get(&mut handle, &key);
                    }
                }
            }
            net
        }));
    }
    let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(net >= 0, "net successful inserts cannot be negative");
    check_len(&map, net as usize);
}

/// The bump allocator behind per-thread pools: the hand-written `*_bump` rows run one
/// scheme each on it.
struct Bump;

impl Memory for Bump {
    type Pool<T: Send + 'static> = ThreadPool<T>;
    type Allocator<T: Send + 'static> = BumpAllocator<T>;
}

/// Checks the reclaimer's bookkeeping after a stress: nothing reclaimed that was not
/// retired first, and — for every scheme that reclaims at all (`None` by definition
/// never does) — records retired and actually reclaimed during the run, not just
/// parked in limbo.
fn check_reclaimed<S: Scheme, T: Send + 'static>(manager: &Manager<S, T>) {
    let stats = manager.reclaimer().stats();
    assert!(stats.reclaimed <= stats.retired);
    if S::reclaims() {
        assert!(stats.retired > 0, "the workload must retire records");
        assert!(stats.reclaimed > 0, "a reclaiming scheme must actually reclaim during the stress");
    }
}

/// A row's operation budget: `reclaim_ops` for a scheme that reclaims, enough for
/// [`check_reclaimed`] to observe it; [`OPS_PER_THREAD`] for one that never does, whose
/// row asserts nothing about reclamation.
fn ops_for<S: Scheme>(reclaim_ops: u64) -> u64 {
    if S::reclaims() {
        reclaim_ops
    } else {
        OPS_PER_THREAD
    }
}

/// One map row: the structure `make` builds over a Record Manager of scheme `S`, run
/// through [`stress_n`] with the net-inserts == final-size check (`len` traverses the
/// whole structure), then [`check_reclaimed`].
fn map_row<S: Scheme, T: Send + 'static, M>(
    make: fn(Arc<Manager<S, T>>) -> M,
    len: fn(&M, &mut M::Handle) -> usize,
    reclaim_ops: u64,
) where
    M: ConcurrentMap<u64, u64> + 'static,
{
    let manager = Arc::new(Manager::<S, T>::new(THREADS + 1));
    let map = Arc::new(make(Arc::clone(&manager)));
    stress_n(map, ops_for::<S>(reclaim_ops), |map, expected| {
        let mut handle = map.register().expect("register checker");
        assert_eq!(len(map, &mut handle), expected, "final size must match net inserts");
    });
    check_reclaimed::<S, T>(&manager);
}

// --- the map structures under every scheme ---------------------------------------------
// The BST is the paper's primary workload.  The skip list's matrix covers the per-access
// protection schemes (HP, ThreadScan) too: the insert pre-announces its private node and
// pins the target level's predecessor (`ShieldSet` roles `NODE` / `TPRED`), which is what
// makes the post-publication completion phase safe there.  VBR runs on its default
// memory, the type-stable page pool (registration panics elsewhere).

fn bst<S: Scheme>() {
    map_row::<S, BstNode<u64, u64>, _>(ExternalBst::new, ExternalBst::len, OPS_PER_THREAD_RECLAIM);
}
for_each_scheme!(tests bst_*: bst);

fn list<S: Scheme>() {
    map_row::<S, ListNode<u64, u64>, _>(
        HarrisMichaelList::new,
        HarrisMichaelList::len,
        OPS_PER_THREAD_RECLAIM,
    );
}
for_each_scheme!(tests list_*: list);

fn hashmap<S: Scheme>() {
    map_row::<S, HashMapNode<u64, u64>, _>(
        LockFreeHashMap::new,
        LockFreeHashMap::len,
        OPS_PER_THREAD_RECLAIM,
    );
}
for_each_scheme!(tests hashmap_*: hashmap);

fn skiplist<S: Scheme>() {
    map_row::<S, SkipNode<u64, u64>, _>(
        SkipList::new,
        SkipList::len,
        OPS_PER_THREAD_RECLAIM_SKIPLIST,
    );
}
for_each_scheme!(tests skiplist_*: skiplist);

#[test]
fn bst_debra_bump() {
    bst::<On<Debra, Bump>>();
}

#[test]
fn bst_ibr_bump() {
    bst::<On<Ibr, Bump>>();
}

#[test]
fn hashmap_debra_bump() {
    hashmap::<On<Debra, Bump>>();
}

#[test]
fn skiplist_ebr_bump() {
    skiplist::<On<ClassicEbr, Bump>>();
}

/// The 8-thread hash-map acceptance row: oversubscribed (the container has fewer cores),
/// under DEBRA+ so the neutralization machinery is exercised while bucket chains churn.
/// Size consistency and actual reclamation are both required.
#[test]
fn hashmap_debra_plus_8_threads() {
    const WIDE: usize = 8;
    type Node = HashMapNode<u64, u64>;
    type Map = LockFreeHashMap<u64, u64, DebraPlus<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    let manager = Arc::new(RecordManager::new(WIDE + 1));
    // Few buckets relative to the key range, so chains are long and contended.
    let map: Arc<Map> = Arc::new(LockFreeHashMap::with_buckets(Arc::clone(&manager), 32));

    let mut joins = Vec::new();
    for tid in 0..WIDE {
        let map = Arc::clone(&map);
        joins.push(std::thread::spawn(move || {
            let mut handle = map.register().expect("register worker");
            let mut net: i64 = 0;
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ (tid as u64) << 17;
            for _ in 0..OPS_PER_THREAD_RECLAIM {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % KEY_RANGE;
                match (x >> 61) % 4 {
                    0 | 1 => {
                        if map.insert(&mut handle, key, key.wrapping_mul(3)) {
                            net += 1;
                        }
                    }
                    2 => {
                        if map.remove(&mut handle, &key) {
                            net -= 1;
                        }
                    }
                    _ => {
                        let _ = map.get(&mut handle, &key);
                    }
                }
            }
            net
        }));
    }
    let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(net >= 0);
    let mut handle = map.register().expect("register checker");
    assert_eq!(map.len(&mut handle), net as usize, "final size must match net inserts");
    let stats = manager.reclaimer().stats();
    assert!(stats.retired > 0);
    assert!(stats.reclaimed > 0, "DEBRA+ must reclaim during an 8-thread hash-map run");
    assert!(stats.reclaimed <= stats.retired);
}

// --- the bag-shaped structures (smr-queue) under every scheme ---------------------------
// Queues are the worst-case limbo workload: every successful pop retires a record, so
// garbage generation tracks raw throughput instead of an update ratio.  Every reclaiming
// scheme must show a non-zero reclaimed count; additionally the transfer must be
// lossless (popped ∪ drained == pushed, as multisets) and — for the queue — FIFO per
// producer within each consumer's stream.

/// Runs `ops_per_thread` interleaved pushes/pops on each of [`THREADS`] workers, then
/// drains the bag and checks transfer losslessness.  Pushed values are tagged
/// `(tid << 32) | seq` so duplicates and per-producer order are checkable.
fn bag_stress_n<B>(bag: Arc<B>, ops_per_thread: u64, check_per_producer_fifo: bool)
where
    B: ConcurrentBag<u64> + 'static,
{
    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let bag = Arc::clone(&bag);
        joins.push(std::thread::spawn(move || {
            let mut handle = bag.register().expect("register worker");
            let mut pushed = 0u64;
            let mut popped = Vec::new();
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ (tid as u64) << 17;
            for _ in 0..ops_per_thread {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // 5/9 pushes: the bag grows over the run, so pops rarely hit empty and
                // the retire pressure (one per successful pop) stays high.
                if (x >> 61) % 9 < 5 {
                    bag.push(&mut handle, ((tid as u64) << 32) | pushed);
                    pushed += 1;
                } else if let Some(v) = bag.pop(&mut handle) {
                    popped.push(v);
                }
            }
            (pushed, popped)
        }));
    }
    let mut pushed_per_thread = [0u64; THREADS];
    let mut all_popped: Vec<u64> = Vec::new();
    let mut streams: Vec<Vec<u64>> = Vec::new();
    for (tid, j) in joins.into_iter().enumerate() {
        let (pushed, popped) = j.join().unwrap();
        pushed_per_thread[tid] = pushed;
        streams.push(popped.clone());
        all_popped.extend(popped);
    }
    // Drain the remainder on a fresh handle.
    let mut handle = bag.register().expect("register drainer");
    while let Some(v) = bag.pop(&mut handle) {
        all_popped.push(v);
    }
    // Multiset equality with the pushed values: every value out exactly once.
    let total_pushed: u64 = pushed_per_thread.iter().sum();
    assert_eq!(all_popped.len() as u64, total_pushed, "pushed and popped counts must match");
    all_popped.sort_unstable();
    for (tid, &pushed) in pushed_per_thread.iter().enumerate() {
        for seq in 0..pushed {
            let v = ((tid as u64) << 32) | seq;
            assert!(
                all_popped.binary_search(&v).is_ok(),
                "value {v:#x} (producer {tid}, seq {seq}) was lost"
            );
        }
    }
    // Multiset sizes match and every expected value is present => no duplicates either.
    if check_per_producer_fifo {
        for stream in &streams {
            let mut last = [None::<u64>; THREADS];
            for v in stream {
                let (p, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
                if let Some(prev) = last[p] {
                    assert!(seq > prev, "FIFO violated for producer {p}: {seq} after {prev}");
                }
                last[p] = Some(seq);
            }
        }
    }
}

/// One bag row: the structure `make` builds over a Record Manager of scheme `S`, run
/// through [`bag_stress_n`], then [`check_reclaimed`].
fn bag_row<S: Scheme, T: Send + 'static, B>(make: fn(Arc<Manager<S, T>>) -> B, fifo: bool)
where
    B: ConcurrentBag<u64> + 'static,
{
    let manager = Arc::new(Manager::<S, T>::new(THREADS + 1));
    let ops = ops_for::<S>(OPS_PER_THREAD_RECLAIM);
    bag_stress_n(Arc::new(make(Arc::clone(&manager))), ops, fifo);
    check_reclaimed::<S, T>(&manager);
}

fn queue<S: Scheme>() {
    bag_row::<S, QueueNode<u64>, _>(MsQueue::new, true);
}
for_each_scheme!(tests queue_*: queue);

fn stack<S: Scheme>() {
    bag_row::<S, StackNode<u64>, _>(TreiberStack::new, false);
}
for_each_scheme!(tests stack_*: stack);

// --- the queue and the stack on the page-pool allocation pipeline ----------------------
// Same workload and invariants as the rows above, but composed with `smr-pagepool`
// (type-stable pages + per-thread magazines + global overflow) instead of each scheme's
// default memory: the retire → pool → magazine → reuse cycle runs at full stress
// concurrency, and every reclaiming scheme must still show `reclaimed > 0` — records
// flow all the way back.

fn queue_pagepool<S: Scheme>() {
    queue::<On<S, PageMemory>>();
}
for_each_scheme!(tests queue_*_pagepool: queue_pagepool);

fn stack_pagepool<S: Scheme>() {
    stack::<On<S, PageMemory>>();
}
for_each_scheme!(tests stack_*_pagepool: stack_pagepool);

#[test]
fn queue_debra_bump() {
    queue::<On<Debra, Bump>>();
}

#[test]
fn stack_ebr_bump() {
    stack::<On<ClassicEbr, Bump>>();
}

/// The 8-thread queue acceptance row: oversubscribed (the container has fewer cores),
/// under DEBRA+ so neutralizations fire while the head churns at full drain rate.
/// Lossless transfer and actual reclamation are both required.
#[test]
fn queue_debra_plus_8_threads() {
    const WIDE: usize = 8;
    type Node = QueueNode<u64>;
    type Queue = MsQueue<u64, DebraPlus<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    let manager = Arc::new(RecordManager::new(WIDE + 1));
    let queue: Arc<Queue> = Arc::new(MsQueue::new(Arc::clone(&manager)));

    let mut joins = Vec::new();
    for tid in 0..WIDE {
        let queue = Arc::clone(&queue);
        joins.push(std::thread::spawn(move || {
            let mut handle = queue.register().expect("register worker");
            let mut pushed = 0u64;
            let mut popped = 0u64;
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ (tid as u64) << 17;
            for _ in 0..OPS_PER_THREAD_RECLAIM {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 61).is_multiple_of(2) {
                    queue.push(&mut handle, ((tid as u64) << 32) | pushed);
                    pushed += 1;
                } else if queue.pop(&mut handle).is_some() {
                    popped += 1;
                }
            }
            (pushed, popped)
        }));
    }
    let (mut pushed, mut popped) = (0u64, 0u64);
    for j in joins {
        let (p, q) = j.join().unwrap();
        pushed += p;
        popped += q;
    }
    let mut handle = queue.register().expect("register drainer");
    let mut drained = 0u64;
    while queue.pop(&mut handle).is_some() {
        drained += 1;
    }
    assert_eq!(pushed, popped + drained, "every pushed value must come out exactly once");
    let stats = manager.reclaimer().stats();
    assert!(stats.retired > 0);
    assert!(stats.reclaimed > 0, "DEBRA+ must reclaim during an 8-thread queue run");
    assert!(stats.reclaimed <= stats.retired);
}

/// DEBRA+ neutralization-mid-dequeue recovery: with an aggressive configuration (16-record
/// limbo blocks, suspicion after one block) and a laggard thread that blocks the epoch by
/// holding a pinned guard, churn workers neutralize the laggard — and, since real POSIX
/// signals land at arbitrary points, each other — between a dequeue's protection window
/// and its decision CAS.  The recovery path (unwind with `Restart`, drop the cloned
/// value, acknowledge, restart the body) must deliver every value exactly once.
#[test]
fn queue_debra_plus_neutralization_mid_dequeue_recovers() {
    use debra_repro::debra::{Allocator as _, DebraConfig, DebraPlusConfig, Pool as _};
    use debra_repro::neutralize::SignalDriver;
    use std::sync::atomic::{AtomicBool, Ordering};

    const WORKERS: usize = 3;
    type Node = QueueNode<u64>;
    type Queue = MsQueue<u64, DebraPlus<Node>, ThreadPool<Node>, SystemAllocator<Node>>;

    let config = DebraPlusConfig {
        debra: DebraConfig { check_threshold: 1, increment_threshold: 1, block_capacity: 16 },
        suspect_threshold_blocks: 1,
        scan_threshold_blocks: 1,
        rprotect_slots: 16,
    };
    let reclaimer =
        Arc::new(DebraPlus::with_config(WORKERS + 2, config, SignalDriver::best_available()));
    let pool = Arc::new(ThreadPool::new(WORKERS + 2));
    let alloc = Arc::new(SystemAllocator::new(WORKERS + 2));
    let manager = Arc::new(RecordManager::from_parts(reclaimer, pool, alloc));
    let queue: Arc<Queue> = Arc::new(MsQueue::new(Arc::clone(&manager)));

    let stop = Arc::new(AtomicBool::new(false));
    // The laggard: repeatedly holds a pinned guard (blocking the epoch) without checking
    // for neutralization, then runs dequeues — its first checkpoint after being
    // neutralized observes the flag and takes the recovery path into a fresh dequeue.
    let laggard = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handle = queue.register().expect("register laggard");
            let mut popped = 0u64;
            while !stop.load(Ordering::Acquire) {
                {
                    let _pin = handle.pin();
                    for _ in 0..50 {
                        std::thread::yield_now();
                    }
                }
                for _ in 0..20 {
                    if queue.pop(&mut handle).is_some() {
                        popped += 1;
                    }
                }
            }
            (0u64, popped)
        })
    };

    let mut joins = Vec::new();
    for tid in 0..WORKERS {
        let queue = Arc::clone(&queue);
        joins.push(std::thread::spawn(move || {
            let mut handle = queue.register().expect("register worker");
            let mut pushed = 0u64;
            let mut popped = 0u64;
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ (tid as u64) << 21;
            for _ in 0..OPS_PER_THREAD_RECLAIM {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 61).is_multiple_of(2) {
                    queue.push(&mut handle, ((tid as u64 + 1) << 32) | pushed);
                    pushed += 1;
                } else if queue.pop(&mut handle).is_some() {
                    popped += 1;
                }
            }
            (pushed, popped)
        }));
    }
    let (mut pushed, mut popped) = (0u64, 0u64);
    for j in joins {
        let (p, q) = j.join().unwrap();
        pushed += p;
        popped += q;
    }
    stop.store(true, Ordering::Release);
    let (_, laggard_popped) = laggard.join().unwrap();
    popped += laggard_popped;

    let mut handle = queue.register().expect("register drainer");
    let mut drained = 0u64;
    while queue.pop(&mut handle).is_some() {
        drained += 1;
    }
    assert_eq!(
        pushed,
        popped + drained,
        "neutralization-interrupted dequeues must neither lose nor duplicate values"
    );
    let stats = manager.reclaimer().stats();
    assert!(
        stats.neutralized > 0,
        "the aggressive configuration must neutralize at least once (laggard blocks the epoch)"
    );
    assert!(stats.reclaimed > 0, "DEBRA+ must reclaim past the neutralized laggard");
    assert!(stats.reclaimed <= stats.retired);
}

/// The acceptance bar for IBR: the BST stress passes at 8 worker threads, and IBR must
/// actually have reclaimed records along the way (not just parked them in limbo).
#[test]
fn bst_ibr_8_threads() {
    const WIDE: usize = 8;
    type Node = BstNode<u64, u64>;
    type Map = ExternalBst<u64, u64, IbrReclaimer<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    let manager = Arc::new(RecordManager::new(WIDE + 1));
    let map: Arc<Map> = Arc::new(ExternalBst::new(Arc::clone(&manager)));

    let mut joins = Vec::new();
    for tid in 0..WIDE {
        let map = Arc::clone(&map);
        joins.push(std::thread::spawn(move || {
            let mut handle = map.register().expect("register worker");
            let mut net: i64 = 0;
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ (tid as u64) << 17;
            for _ in 0..OPS_PER_THREAD {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % KEY_RANGE;
                match (x >> 61) % 4 {
                    0 | 1 => {
                        if map.insert(&mut handle, key, key.wrapping_mul(3)) {
                            net += 1;
                        }
                    }
                    2 => {
                        if map.remove(&mut handle, &key) {
                            net -= 1;
                        }
                    }
                    _ => {
                        let _ = map.get(&mut handle, &key);
                    }
                }
            }
            net
        }));
    }
    let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(net >= 0);
    let mut handle = map.register().expect("register checker");
    assert_eq!(map.len(&mut handle), net as usize, "final size must match net inserts");
    let stats = manager.reclaimer().stats();
    assert!(stats.retired > 0);
    assert!(stats.reclaimed > 0, "IBR must reclaim during an 8-thread run");
    assert!(stats.reclaimed <= stats.retired);
}
