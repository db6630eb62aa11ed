//! Property-based tests (proptest) on the core substrates and data structure invariants.

use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::Arc;

use proptest::prelude::*;

use debra_repro::blockbag::BlockBag;
use debra_repro::debra::{Debra, Reclaimer, RecordManager};
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{BstNode, ConcurrentBag, ConcurrentMap, ExternalBst};
use debra_repro::neutralize::AnnounceWord;
use debra_repro::schemes::{Manager, Scheme};
use debra_repro::smr_alloc::{SystemAllocator, ThreadPool};
use debra_repro::smr_baselines::HazardPointers;
use debra_repro::smr_hashmap::{HashMapNode, LockFreeHashMap};
use debra_repro::smr_ibr::Ibr;
use debra_repro::smr_queue::{MsQueue, QueueNode, StackNode, TreiberStack};

fn fake_ptr(v: usize) -> NonNull<u64> {
    NonNull::new(((v + 1) * 8) as *mut u64).unwrap()
}

proptest! {
    /// A block bag behaves like a multiset: every pushed pointer comes back exactly once,
    /// regardless of the block capacity, and the "all non-head blocks are full" invariant
    /// keeps `take_full_blocks` lossless.
    #[test]
    fn blockbag_is_a_lossless_multiset(
        values in proptest::collection::vec(0usize..10_000, 0..600),
        capacity in 1usize..64,
        take_midway in any::<bool>(),
    ) {
        let mut bag: BlockBag<u64> = BlockBag::with_block_capacity(capacity);
        let mut moved: Vec<NonNull<u64>> = Vec::new();
        for (i, v) in values.iter().enumerate() {
            bag.push(fake_ptr(*v + i * 16_384));
            if take_midway && i == values.len() / 2 {
                for block in bag.take_full_blocks() {
                    moved.extend(block.iter());
                }
            }
        }
        prop_assert_eq!(bag.len() + moved.len(), values.len());
        let mut all: Vec<usize> = bag.iter().chain(moved.iter().copied()).map(|p| p.as_ptr() as usize).collect();
        let mut expected: Vec<usize> = values.iter().enumerate().map(|(i, v)| fake_ptr(*v + i * 16_384).as_ptr() as usize).collect();
        all.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// The announcement word packing round-trips for every epoch and quiescent bit.
    #[test]
    fn announce_word_roundtrip(epoch_half in 0u64..(1 << 40), quiescent in any::<bool>()) {
        let epoch = epoch_half << 1; // epochs always have a zero low bit
        let word = AnnounceWord::pack(epoch, quiescent);
        prop_assert_eq!(AnnounceWord::epoch(word), epoch);
        prop_assert_eq!(AnnounceWord::is_quiescent(word), quiescent);
        prop_assert!(AnnounceWord::epoch_matches(epoch, word));
    }

    /// The external BST behaves exactly like a `BTreeMap` under arbitrary sequential
    /// operation sequences (with reclamation through the Record Manager happening
    /// underneath).
    #[test]
    fn bst_matches_btreemap(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..400)) {
        type Node = BstNode<u64, u64>;
        type Map = ExternalBst<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let map: Map = ExternalBst::new(manager);
        let mut handle = map.register().unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(&mut handle, key, key * 7), model.insert(key, key * 7).is_none()),
                1 => prop_assert_eq!(map.remove(&mut handle, &key), model.remove(&key).is_some()),
                _ => prop_assert_eq!(map.get(&mut handle, &key), model.get(&key).copied()),
            }
        }
        prop_assert_eq!(map.len(&mut handle), model.len());
    }

    /// The lock-free hash map behaves exactly like a `HashMap` under arbitrary sequential
    /// operation sequences, with a bucket count small enough that chains genuinely collide.
    #[test]
    fn hashmap_matches_std_hashmap(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..400)) {
        type Node = HashMapNode<u64, u64>;
        type Map = LockFreeHashMap<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let map: Map = LockFreeHashMap::with_buckets(manager, 8);
        let mut handle = map.register().unwrap();
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (op, key) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(&mut handle, key, key * 7), model.insert(key, key * 7).is_none()),
                1 => prop_assert_eq!(map.remove(&mut handle, &key), model.remove(&key).is_some()),
                _ => prop_assert_eq!(map.get(&mut handle, &key), model.get(&key).copied()),
            }
        }
        prop_assert_eq!(map.len(&mut handle), model.len());
    }

    /// The MS queue behaves exactly like a `VecDeque` under arbitrary sequential
    /// push/pop sequences (the sequential-consistency oracle of the bag interface, with
    /// reclamation running underneath — every pop retires the old sentinel).
    #[test]
    fn queue_matches_vecdeque(ops in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..400)) {
        use std::collections::VecDeque;
        type Node = QueueNode<u64>;
        type Queue = MsQueue<u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let queue: Queue = MsQueue::new(manager);
        let mut handle = queue.register().unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        for (is_push, v) in ops {
            if is_push {
                queue.push(&mut handle, v);
                model.push_back(v);
            } else {
                prop_assert_eq!(queue.pop(&mut handle), model.pop_front());
            }
        }
        prop_assert_eq!(queue.len(&mut handle), model.len());
        // Drain in FIFO order.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(queue.pop(&mut handle), Some(expected));
        }
        prop_assert_eq!(queue.pop(&mut handle), None);
    }

    /// The Treiber stack behaves exactly like a `Vec` under arbitrary sequential
    /// push/pop sequences.
    #[test]
    fn stack_matches_vec(ops in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..400)) {
        type Node = StackNode<u64>;
        type Stack = TreiberStack<u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let stack: Stack = TreiberStack::new(manager);
        let mut handle = stack.register().unwrap();
        let mut model: Vec<u64> = Vec::new();
        for (is_push, v) in ops {
            if is_push {
                stack.push(&mut handle, v);
                model.push(v);
            } else {
                prop_assert_eq!(stack.pop(&mut handle), model.pop());
            }
        }
        prop_assert_eq!(stack.len(&mut handle), model.len());
        while let Some(expected) = model.pop() {
            prop_assert_eq!(stack.pop(&mut handle), Some(expected));
        }
        prop_assert_eq!(stack.pop(&mut handle), None);
    }

    /// Swapping the queue's reclaimer to hazard pointers preserves exact FIFO semantics —
    /// the dequeue's anchored two-shield window (`protect_anchored`) under the scheme
    /// that actually validates it.
    #[test]
    fn queue_matches_vecdeque_under_hp(ops in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..400)) {
        use std::collections::VecDeque;
        type Node = QueueNode<u64>;
        type Queue = MsQueue<u64, HazardPointers<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let queue: Queue = MsQueue::new(manager);
        let mut handle = queue.register().unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        for (is_push, v) in ops {
            if is_push {
                queue.push(&mut handle, v);
                model.push_back(v);
            } else {
                prop_assert_eq!(queue.pop(&mut handle), model.pop_front());
            }
        }
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(queue.pop(&mut handle), Some(expected));
        }
        prop_assert_eq!(queue.pop(&mut handle), None);
    }

    /// Swapping the reclaimer type parameter to IBR preserves exact map semantics — the
    /// Record Manager promise, now covering the interval-based scheme too.
    #[test]
    fn bst_matches_btreemap_under_ibr(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..400)) {
        type Node = BstNode<u64, u64>;
        type Map = ExternalBst<u64, u64, Ibr<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
        let manager = Arc::new(RecordManager::new(1));
        let map: Map = ExternalBst::new(manager);
        let mut handle = map.register().unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(&mut handle, key, key * 7), model.insert(key, key * 7).is_none()),
                1 => prop_assert_eq!(map.remove(&mut handle, &key), model.remove(&key).is_some()),
                _ => prop_assert_eq!(map.get(&mut handle, &key), model.get(&key).copied()),
            }
        }
        prop_assert_eq!(map.len(&mut handle), model.len());
    }
}

/// Concurrent linearizability-style oracle for the hash map: worker threads run random
/// insert/remove/contains/get against the lock-free map *and* a striped, locked `HashMap`
/// reference.  Each (map operation, model operation) pair executes atomically under the
/// key's stripe lock, so per key the history is sequential and every return value has one
/// correct answer — while operations on *different* keys (including keys sharing a bucket
/// chain!) run genuinely concurrently, exercising traversal over nodes that other threads
/// are concurrently unlinking and retiring.  A per-key-independent map makes this a sound
/// oracle: an operation's result depends only on its own key's state.
fn hashmap_oracle<S: Scheme>() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    const THREADS: usize = 3;
    const STRIPES: usize = 16;
    const KEYS: u64 = 64;
    const OPS: u64 = 3_000;
    type Node = HashMapNode<u64, u64>;

    let manager = Arc::new(Manager::<S, Node>::new(THREADS + 1));
    // 8 buckets for 64 keys: every bucket chain is shared by several stripes, so oracle
    // serialization per key does not serialize bucket traffic.
    let map = Arc::new(LockFreeHashMap::with_buckets(Arc::clone(&manager), 8));
    let oracle: Arc<Vec<Mutex<HashMap<u64, u64>>>> =
        Arc::new((0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect());

    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let map = Arc::clone(&map);
        let oracle = Arc::clone(&oracle);
        joins.push(std::thread::spawn(move || {
            let mut handle = map.register().expect("register worker");
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64) << 21);
            for i in 0..OPS {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % KEYS;
                let value = ((tid as u64) << 32) | i;
                let mut model =
                    oracle[(key % STRIPES as u64) as usize].lock().expect("stripe lock poisoned");
                match (x >> 61) % 4 {
                    0 | 1 => {
                        // `ConcurrentMap::insert` has set semantics: it does NOT replace
                        // the value of an existing key, so neither may the model.
                        let was_absent = !model.contains_key(&key);
                        if was_absent {
                            model.insert(key, value);
                        }
                        assert_eq!(
                            map.insert(&mut handle, key, value),
                            was_absent,
                            "insert({key}) disagreed with the oracle"
                        );
                    }
                    2 => assert_eq!(
                        map.remove(&mut handle, &key),
                        model.remove(&key).is_some(),
                        "remove({key}) disagreed with the oracle"
                    ),
                    _ => assert_eq!(
                        map.get(&mut handle, &key),
                        model.get(&key).copied(),
                        "get({key}) disagreed with the oracle"
                    ),
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Final state must match the oracle exactly: same size, same key/value pairs.
    let mut handle = map.register().expect("register checker");
    let mut expected = 0usize;
    for stripe in oracle.iter() {
        let model = stripe.lock().expect("stripe lock poisoned");
        expected += model.len();
        for (k, v) in model.iter() {
            assert_eq!(map.get(&mut handle, k), Some(*v), "final value of key {k}");
        }
    }
    assert_eq!(map.len(&mut handle), expected, "final size must match the oracle");
    let stats = manager.reclaimer().stats();
    assert!(stats.reclaimed <= stats.retired);
}

for_each_scheme!(tests hashmap_oracle_*: hashmap_oracle);

/// Concurrent sequential-consistency oracle for the queue: every (queue operation,
/// `Mutex<VecDeque>` operation) pair executes atomically under one lock, so the global
/// history is sequential and every pop has exactly one correct answer.  Unlike the
/// striped map oracle this serializes the queue itself — a queue has a single
/// linearization point, there is no per-key independence to exploit — but the
/// *reclamation* machinery still runs fully concurrently: handles on three threads,
/// cross-thread retirement of sentinels popped by other threads' pushes, epoch/HP/IBR
/// scans racing the lock-free window.  What it proves is hand-off correctness per
/// scheme: the value delivered is always the model's front, under every reclaimer.
fn queue_oracle<S: Scheme>() {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    const THREADS: usize = 3;
    const OPS: u64 = 3_000;

    let manager = Arc::new(Manager::<S, QueueNode<u64>>::new(THREADS + 1));
    let queue = Arc::new(MsQueue::new(Arc::clone(&manager)));
    let oracle: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(VecDeque::new()));

    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let queue = Arc::clone(&queue);
        let oracle = Arc::clone(&oracle);
        joins.push(std::thread::spawn(move || {
            let mut handle = queue.register().expect("register worker");
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64) << 21);
            for i in 0..OPS {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut model = oracle.lock().expect("oracle lock poisoned");
                if (x >> 61).is_multiple_of(2) {
                    let v = ((tid as u64) << 32) | i;
                    queue.push(&mut handle, v);
                    model.push_back(v);
                } else {
                    assert_eq!(
                        queue.pop(&mut handle),
                        model.pop_front(),
                        "pop disagreed with the sequential model"
                    );
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut handle = queue.register().expect("register checker");
    let mut model = oracle.lock().expect("oracle lock poisoned");
    while let Some(expected) = model.pop_front() {
        assert_eq!(queue.pop(&mut handle), Some(expected), "drain must stay FIFO");
    }
    assert_eq!(queue.pop(&mut handle), None);
    let stats = manager.reclaimer().stats();
    assert!(stats.reclaimed <= stats.retired);
}

for_each_scheme!(tests queue_oracle_*: queue_oracle);
