//! A lock-free hash map written against the **safe guard layer** of the Record Manager
//! abstraction.
//!
//! The map is a **fixed-size bucket array of Harris–Michael lists**: each bucket is one
//! [`Chain`] of `lockfree-ds` — the list's own algorithm, not a copy of it — and a key is
//! routed to its bucket by hashing.  This is the classic lock-free hash table of Michael
//! ("High Performance Dynamic Lock-Free Hash Tables and List-Based Sets", SPAA 2002),
//! restricted to a fixed bucket count — no resizing — which keeps every operation
//! strictly per-bucket.
//!
//! Like the structures in `lockfree-ds`, the map is written **once** and is parameterized
//! by the reclamation scheme, the pool and the allocator through a
//! [`Domain`]; swapping any of them is a one-line change of type parameters.  The map runs
//! under every scheme in this repository (None, EBR, HP, ThreadScan, IBR, DEBRA, DEBRA+,
//! VBR).
//!
//! # Protection, recovery and reclamation
//!
//! An operation hashes its key once, then runs the chain's operation under
//! [`DomainHandle::run`](debra::DomainHandle::run).  No operation crosses a bucket
//! boundary, so every per-scheme obligation is the list's, by construction: the two-shield
//! validated traversal under HP / ThreadScan / IBR, the DEBRA+ restart from the bucket
//! head on [`Restart`](debra::Restart), and the hand-over of an unlinked node to the
//! reclaimer by the unique unlink-CAS winner.
//! See [`lockfree_ds::list`] for the argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use debra::{Allocator, Domain, DomainHandle, Pool, Reclaimer, RecordManager, RegistrationError};
use lockfree_ds::{Chain, ConcurrentMap, ListNode};

/// Default number of buckets used by [`LockFreeHashMap::new`].
pub const DEFAULT_BUCKETS: usize = 256;

/// A node of [`LockFreeHashMap`]: one key/value pair in one bucket's [`Chain`].
pub type HashMapNode<K, V> = ListNode<K, V>;

/// A lock-free hash map (fixed bucket array of Harris–Michael lists), parameterized by the
/// Record Manager (reclaimer `R`, pool `P`, allocator `A`) through a [`Domain`].
///
/// See the crate docs for the algorithm and the per-scheme protection discipline.
pub struct LockFreeHashMap<K, V, R, P, A>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<HashMapNode<K, V>>,
    P: Pool<HashMapNode<K, V>>,
    A: Allocator<HashMapNode<K, V>>,
{
    /// One chain per bucket.  The bucket count is a power of two so routing is a mask.
    buckets: Box<[Chain<K, V>]>,
    mask: usize,
    domain: Domain<HashMapNode<K, V>, R, P, A>,
}

/// Shorthand for the per-thread handle type used by [`LockFreeHashMap`]: a domain lease
/// that pins guards without per-operation registry lookups.  Obtained with
/// [`ConcurrentMap::register`] (slots are leased automatically) and usable only on the
/// thread that created it.
pub type HashMapHandle<K, V, R, P, A> = DomainHandle<HashMapNode<K, V>, R, P, A>;

impl<K, V, R, P, A> LockFreeHashMap<K, V, R, P, A>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<HashMapNode<K, V>>,
    P: Pool<HashMapNode<K, V>>,
    A: Allocator<HashMapNode<K, V>>,
{
    /// Creates an empty map with [`DEFAULT_BUCKETS`] buckets backed by `manager`.
    pub fn new(manager: Arc<RecordManager<HashMapNode<K, V>, R, P, A>>) -> Self {
        Self::with_buckets(manager, DEFAULT_BUCKETS)
    }

    /// Creates an empty map with at least `buckets` buckets (rounded up to a power of two).
    pub fn with_buckets(
        manager: Arc<RecordManager<HashMapNode<K, V>, R, P, A>>,
        buckets: usize,
    ) -> Self {
        Self::in_domain(Domain::with_manager(manager), buckets)
    }

    /// Creates an empty map backed by an existing [`Domain`] (sharing its thread leases).
    pub fn in_domain(domain: Domain<HashMapNode<K, V>, R, P, A>, buckets: usize) -> Self {
        let n = buckets.max(1).next_power_of_two();
        LockFreeHashMap { buckets: (0..n).map(|_| Chain::default()).collect(), mask: n - 1, domain }
    }

    /// The Record Manager backing this map.
    pub fn manager(&self) -> &Arc<RecordManager<HashMapNode<K, V>, R, P, A>> {
        self.domain.manager()
    }

    /// The reclamation domain backing this map.
    pub fn domain(&self) -> &Domain<HashMapNode<K, V>, R, P, A> {
        &self.domain
    }

    /// The number of buckets (a power of two, fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Leases a per-thread handle; see [`ConcurrentMap::register`] (the domain leases
    /// slots automatically — no manual `tid` bookkeeping).
    pub fn register(&self) -> Result<HashMapHandle<K, V, R, P, A>, RegistrationError> {
        self.domain.try_handle()
    }

    /// Routes `key` to its bucket's chain.
    #[inline]
    fn bucket_of(&self, key: &K) -> &Chain<K, V> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.buckets[(hasher.finish() as usize) & self.mask]
    }

    /// Counts the elements by a full traversal of every bucket; test/diagnostic helper.
    ///
    /// The quiescent contract of [`Chain::len`] applies: under protection-based schemes
    /// (HP, ThreadScan, IBR) call it only when no other thread is updating the map (e.g.
    /// after workers have joined, as the test suites do).
    pub fn len(&self, handle: &mut HashMapHandle<K, V, R, P, A>) -> usize {
        self.bucket_histogram(handle).iter().sum()
    }

    /// Returns `true` if the map is empty (diagnostic helper).
    pub fn is_empty(&self, handle: &mut HashMapHandle<K, V, R, P, A>) -> bool {
        self.len(handle) == 0
    }

    /// Per-bucket chain lengths (unmarked nodes only); diagnostic helper for load-factor
    /// and skew inspection.  Same concurrency precondition as [`Self::len`].
    pub fn bucket_histogram(&self, handle: &mut HashMapHandle<K, V, R, P, A>) -> Vec<usize> {
        handle.run(|guard| Ok(self.buckets.iter().map(|chain| chain.len(guard)).collect()))
    }
}

impl<K, V, R, P, A> ConcurrentMap<K, V> for LockFreeHashMap<K, V, R, P, A>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<HashMapNode<K, V>>,
    P: Pool<HashMapNode<K, V>>,
    A: Allocator<HashMapNode<K, V>>,
{
    type Handle = HashMapHandle<K, V, R, P, A>;

    fn register(&self) -> Result<Self::Handle, RegistrationError> {
        self.domain.try_handle()
    }

    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool {
        let chain = self.bucket_of(&key);
        handle.run(|guard| chain.insert(guard, &key, &value))
    }

    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool {
        let chain = self.bucket_of(key);
        handle.run(|guard| chain.remove(guard, key))
    }

    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool {
        let chain = self.bucket_of(key);
        handle.run(|guard| chain.get(guard, key)).is_some()
    }

    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V> {
        let chain = self.bucket_of(key);
        handle.run(|guard| chain.get(guard, key))
    }
}

impl<K, V, R, P, A> Drop for LockFreeHashMap<K, V, R, P, A>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<HashMapNode<K, V>>,
    P: Pool<HashMapNode<K, V>>,
    A: Allocator<HashMapNode<K, V>>,
{
    fn drop(&mut self) {
        // Chains are disjoint, so every node is freed exactly once.
        for chain in self.buckets.iter_mut() {
            chain.free(&self.domain);
        }
    }
}

impl<K, V, R, P, A> fmt::Debug for LockFreeHashMap<K, V, R, P, A>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<HashMapNode<K, V>>,
    P: Pool<HashMapNode<K, V>>,
    A: Allocator<HashMapNode<K, V>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeHashMap")
            .field("buckets", &self.buckets.len())
            .field("reclaimer", &R::name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::{Debra, DebraPlus};
    use smr_alloc::{BumpAllocator, SystemAllocator, ThreadPool};
    use smr_baselines::HazardPointers;
    use smr_ibr::Ibr;

    type Node = HashMapNode<u64, u64>;
    type DebraMap = LockFreeHashMap<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;

    fn new_map(threads: usize, buckets: usize) -> DebraMap {
        let manager = Arc::new(RecordManager::new(threads));
        LockFreeHashMap::with_buckets(manager, buckets)
    }

    #[test]
    fn sequential_map_semantics() {
        let map = new_map(1, 16);
        let mut h = map.register().unwrap();
        assert!(!map.contains(&mut h, &5));
        assert!(map.insert(&mut h, 5, 50));
        assert!(!map.insert(&mut h, 5, 51), "duplicate insert must fail");
        assert!(map.contains(&mut h, &5));
        assert_eq!(map.get(&mut h, &5), Some(50));
        assert!(map.remove(&mut h, &5));
        assert!(!map.remove(&mut h, &5));
        assert!(!map.contains(&mut h, &5));
        assert_eq!(map.len(&mut h), 0);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let map = new_map(1, 100);
        assert_eq!(map.bucket_count(), 128);
        let map = new_map(1, 1);
        assert_eq!(map.bucket_count(), 1);
    }

    #[test]
    fn single_bucket_degrades_to_a_sorted_list() {
        // Every key collides: the map must still be a correct set.
        let map = new_map(1, 1);
        let mut h = map.register().unwrap();
        let keys = [9u64, 1, 7, 3, 5, 2, 8, 0, 6, 4];
        for &k in &keys {
            assert!(map.insert(&mut h, k, k * 10));
        }
        assert_eq!(map.len(&mut h), keys.len());
        for &k in &keys {
            assert_eq!(map.get(&mut h, &k), Some(k * 10));
        }
        let histogram = map.bucket_histogram(&mut h);
        assert_eq!(histogram, vec![keys.len()]);
        for &k in &keys {
            assert!(map.remove(&mut h, &k));
        }
        assert!(map.is_empty(&mut h));
    }

    #[test]
    fn matches_a_sequential_model() {
        use std::collections::HashMap;
        let map = new_map(1, 8); // few buckets => long chains, real collisions
        let mut h = map.register().unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x: u64 = 0x243F6A8885A308D3;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 64;
            match (x >> 60) % 3 {
                0 => assert_eq!(map.insert(&mut h, key, key), model.insert(key, key).is_none()),
                1 => assert_eq!(map.remove(&mut h, &key), model.remove(&key).is_some()),
                _ => assert_eq!(map.contains(&mut h, &key), model.contains_key(&key)),
            }
        }
        assert_eq!(map.len(&mut h), model.len());
        for (k, v) in model {
            assert_eq!(map.get(&mut h, &k), Some(v));
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_and_removes() {
        let threads = 4;
        let per_thread = 2_000u64;
        let map = Arc::new(new_map(threads, 64));
        let mut joins = Vec::new();
        for t in 0..threads as u64 {
            let map = Arc::clone(&map);
            joins.push(std::thread::spawn(move || {
                let mut h = map.register().unwrap();
                for i in 0..per_thread {
                    let k = t * per_thread + i;
                    assert!(map.insert(&mut h, k, k));
                }
                for i in 0..per_thread {
                    let k = t * per_thread + i;
                    assert!(map.contains(&mut h, &k));
                }
                for i in (0..per_thread).step_by(2) {
                    let k = t * per_thread + i;
                    assert!(map.remove(&mut h, &k));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = map.register().unwrap();
        assert_eq!(map.len(&mut h), (threads as u64 * per_thread / 2) as usize);
    }

    /// The contended test, repeated for the schemes with non-trivial per-access protocols:
    /// hazard pointers (validated announcements), DEBRA+ (neutralization restarts) and IBR
    /// (birth/retire era tags).  Few buckets, so threads genuinely collide per chain.
    macro_rules! contended_under {
        ($name:ident, $recl:ty, $alloc:ident) => {
            #[test]
            fn $name() {
                type Map = LockFreeHashMap<u64, u64, $recl, ThreadPool<Node>, $alloc<Node>>;
                let threads = 4;
                let manager = Arc::new(RecordManager::new(threads + 1));
                let map: Arc<Map> = Arc::new(LockFreeHashMap::with_buckets(manager, 4));
                let mut joins = Vec::new();
                for t in 0..threads {
                    let map = Arc::clone(&map);
                    joins.push(std::thread::spawn(move || {
                        let mut h = map.register().unwrap();
                        let mut net: i64 = 0;
                        for i in 0..5_000u64 {
                            let k = i % 16;
                            if (i + t as u64).is_multiple_of(2) {
                                if map.insert(&mut h, k, k) {
                                    net += 1;
                                }
                            } else if map.remove(&mut h, &k) {
                                net -= 1;
                            }
                        }
                        net
                    }));
                }
                let net_total: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
                let mut h = map.register().unwrap();
                assert_eq!(
                    map.len(&mut h) as i64,
                    net_total,
                    "net successful inserts must equal final size"
                );
                let stats = map.manager().reclaimer().stats();
                assert!(stats.retired > 0, "contended removes must retire nodes");
                assert!(stats.reclaimed <= stats.retired);
            }
        };
    }

    contended_under!(contended_under_debra, Debra<Node>, SystemAllocator);
    contended_under!(contended_under_debra_plus, DebraPlus<Node>, SystemAllocator);
    contended_under!(contended_under_hazard_pointers, HazardPointers<Node>, SystemAllocator);
    contended_under!(contended_under_ibr, Ibr<Node>, BumpAllocator);
}
