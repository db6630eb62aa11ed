//! A lock-free sorted linked list (Harris marking + Michael physical removal), written
//! against the **safe guard layer** of the Record Manager abstraction.
//!
//! This module contains no hand-rolled protection code (and, like the whole crate, no
//! `unsafe` at all): every pointer the traversal dereferences is obtained through
//! [`debra::Shield::protect`] (the validated announce-then-revalidate protocol, a no-op
//! under epoch schemes) or a guard-scoped [`Atomic::load`], every operation body runs
//! under [`DomainHandle::run`], which performs the DEBRA+ recovery protocol on
//! [`Restart`], and the removed record is handed to the safe [`Guard::retire`] at the
//! unique unlink point (retire-once-after-unlink is the guard layer's documented
//! contract — see its docs).
//!
//! The algorithm lives on [`Chain`], which takes the caller's guard; [`HarrisMichaelList`]
//! is one chain plus its [`Domain`], and `smr-hashmap`'s map is an array of chains.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use debra::{
    Allocator, Atomic, Domain, DomainHandle, Guard, Pool, Reclaimer, RecordManager,
    RegistrationError, Restart, Shared, Shield,
};

use crate::ConcurrentMap;

/// Mark (logical deletion) tag stored in the low bit of a node's `next` link.
const MARK: usize = 1;

/// A node of a [`Chain`] (of [`HarrisMichaelList`], and of every `smr-hashmap` bucket).
///
/// `next` packs the successor pointer and the *mark* tag: a marked node has been logically
/// deleted and will be retired by whichever thread physically unlinks it.
pub struct ListNode<K, V> {
    key: K,
    value: V,
    next: Atomic<ListNode<K, V>>,
}

impl<K, V> ListNode<K, V> {
    /// The node's key.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// The node's value.
    pub fn value(&self) -> &V {
        &self.value
    }
}

impl<K: fmt::Debug, V> fmt::Debug for ListNode<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ListNode").field("key", &self.key).field("next", &self.next).finish()
    }
}

/// One Harris–Michael chain: a head link and the list algorithm over it.
///
/// Deletion first *marks* the victim's `next` link (logical deletion), then any traversal
/// that encounters a marked node attempts to physically unlink it; the thread whose
/// unlink CAS succeeds retires the node through the guard.  Searches may traverse marked
/// — and, under epoch-based reclamation, already retired — nodes, which is precisely the
/// access pattern discussed in Section 3 of the paper.
///
/// The chain is the whole algorithm of [`HarrisMichaelList`] (one chain) and of
/// `smr-hashmap`'s `LockFreeHashMap` (one chain per bucket, Michael SPAA 2002).  It owns
/// no [`Domain`]: every operation runs under the caller's [`Guard`] and returns
/// [`Restart`] for the caller's [`DomainHandle::run`] to recover from, and the owner
/// frees the nodes at teardown with [`Chain::free`] — dropping a chain frees nothing.
///
/// Restarting a whole chain operation from the head is sound: an insert whose CAS has
/// not succeeded recycles its private node through [`Guard::discard`], and an insert or
/// remove whose decision CAS succeeded runs no further checkpoint before returning.
#[derive(Debug)]
pub struct Chain<K, V> {
    head: Atomic<ListNode<K, V>>,
}

impl<K, V> Default for Chain<K, V> {
    fn default() -> Self {
        Chain { head: Atomic::null() }
    }
}

impl<K, V> Chain<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The link word holding the pointer to the traversal's current node: the
    /// predecessor's `next` link, or the head when there is no predecessor.
    #[inline]
    fn link_of<'g>(&'g self, prev: Shared<'g, ListNode<K, V>>) -> &'g Atomic<ListNode<K, V>> {
        match prev.as_ref() {
            Some(p) => &p.next,
            None => &self.head,
        }
    }

    /// Finds the first node with key >= `key` (`curr`, null if none) and its
    /// predecessor (`prev`, null when `curr` hangs off the head), physically unlinking
    /// (and retiring) marked nodes encountered on the way.  On return both nodes are
    /// still protected by the caller-supplied shields, so the caller may dereference
    /// them and CAS on the predecessor's link.
    ///
    /// Returns [`Restart`] only for DEBRA+ neutralization; protection-validation
    /// failures (HP / ThreadScan / IBR) restart the traversal internally.
    #[allow(clippy::type_complexity)]
    fn search<'g, R, P, A>(
        &self,
        guard: &'g ListGuard<K, V, R, P, A>,
        key: &K,
        prev_shield: &mut Shield<'g, ListNode<K, V>, R, P, A>,
        curr_shield: &mut Shield<'g, ListNode<K, V>, R, P, A>,
    ) -> Result<(Shared<'g, ListNode<K, V>>, Shared<'g, ListNode<K, V>>), Restart>
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        'retry: loop {
            guard.check()?;
            let mut prev: Shared<'g, ListNode<K, V>> = Shared::null();
            let mut curr_word = self.head.load(Ordering::Acquire, guard);
            loop {
                // Protect-and-validate the node `curr_word` points to (`protect_loaded`
                // folds in the per-node neutralization checkpoint).  A failure means the
                // link changed under us or is now marked — the node may already be
                // retired: restart from the head.  The validating comparison is on the
                // full link word, mark tag included, exactly as Michael's algorithm
                // requires.
                let link = self.link_of(prev);
                let Ok(curr) = curr_shield.protect_loaded(link, curr_word) else {
                    continue 'retry;
                };
                let Some(curr_ref) = curr.as_ref() else {
                    return Ok((prev, curr));
                };
                let next = curr_ref.next.load(Ordering::Acquire, guard);

                if next.tag() == MARK {
                    // Logically deleted: try to unlink it.  Whoever wins the CAS owns the
                    // retirement of `curr`.
                    let unlink_to = next.with_tag(0);
                    match link.compare_exchange(
                        curr,
                        unlink_to,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(()) => {
                            // `curr` was just unlinked by this thread (unique CAS winner)
                            // and is no longer reachable from the head; it is retired
                            // exactly once, here (the guard's documented contract).
                            guard.retire(curr);
                            curr_word = unlink_to;
                            continue;
                        }
                        Err(_) => continue 'retry,
                    }
                }

                if curr_ref.key >= *key {
                    return Ok((prev, curr));
                }
                // Advance: `curr` becomes the predecessor.  Swapping the shield roles
                // moves the protections without touching the announcements, so the old
                // current-node announcement now guards the predecessor.
                prev_shield.swap_roles(curr_shield);
                prev = curr;
                curr_word = next;
            }
        }
    }

    /// Inserts `key -> value` unless `key` is present; `Ok(true)` if it was inserted.
    pub fn insert<R, P, A>(
        &self,
        guard: &ListGuard<K, V, R, P, A>,
        key: &K,
        value: &V,
    ) -> Result<bool, Restart>
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        let mut prev_shield = guard.shield();
        let mut curr_shield = guard.shield();
        loop {
            let (prev, curr) = self.search(guard, key, &mut prev_shield, &mut curr_shield)?;
            if let Some(curr_ref) = curr.as_ref() {
                if &curr_ref.key == key {
                    return Ok(false);
                }
            }
            let node = guard.alloc(ListNode {
                key: key.clone(),
                value: value.clone(),
                next: Atomic::from_shared(curr),
            });
            if let Err(restart) = guard.check() {
                // Not yet published: recycle immediately, then unwind to recovery.
                guard.discard(node);
                return Err(restart);
            }
            match self.link_of(prev).compare_exchange_owned(
                curr,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => return Ok(true),
                Err(node) => {
                    // The node was never made reachable; recycle it and retry.
                    guard.discard(node);
                    continue;
                }
            }
        }
    }

    /// Removes `key`; `Ok(true)` if this call logically deleted it.
    pub fn remove<R, P, A>(
        &self,
        guard: &ListGuard<K, V, R, P, A>,
        key: &K,
    ) -> Result<bool, Restart>
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        let mut prev_shield = guard.shield();
        let mut curr_shield = guard.shield();
        loop {
            let (prev, curr) = self.search(guard, key, &mut prev_shield, &mut curr_shield)?;
            let Some(curr_ref) = curr.as_ref() else {
                return Ok(false);
            };
            if &curr_ref.key != key {
                return Ok(false);
            }
            let next = curr_ref.next.load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                // Someone else is already deleting it; help by restarting (the next
                // search unlinks it).
                continue;
            }
            guard.check()?;
            // Logical deletion: set the mark tag.
            if curr_ref
                .next
                .compare_exchange(
                    next,
                    next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_err()
            {
                continue;
            }
            // Physical deletion: best effort; if it fails a later traversal will do it
            // (and that traversal's winner retires the node).
            if self
                .link_of(prev)
                .compare_exchange(
                    curr,
                    next.with_tag(0),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_ok()
            {
                // Unlinked by this thread: unique owner of the retirement.
                guard.retire(curr);
            }
            return Ok(true);
        }
    }

    /// The value of `key`, if present and not logically deleted.
    pub fn get<R, P, A>(
        &self,
        guard: &ListGuard<K, V, R, P, A>,
        key: &K,
    ) -> Result<Option<V>, Restart>
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        let mut prev_shield = guard.shield();
        let mut curr_shield = guard.shield();
        let (_prev, curr) = self.search(guard, key, &mut prev_shield, &mut curr_shield)?;
        if let Some(curr_ref) = curr.as_ref() {
            if &curr_ref.key == key && curr_ref.next.load(Ordering::Acquire, guard).tag() == 0 {
                return Ok(Some(curr_ref.value.clone()));
            }
        }
        Ok(None)
    }

    /// Counts the unmarked nodes by a full traversal; test/diagnostic helper.
    ///
    /// The traversal announces no per-node protection, which only epoch-style schemes
    /// honor; under protection-based schemes (HP, ThreadScan, IBR) it must not race with
    /// concurrent removals — call it only when no other thread is updating the chain.
    pub fn len<R, P, A>(&self, guard: &ListGuard<K, V, R, P, A>) -> usize
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        let mut n = 0;
        let mut curr = self.head.load(Ordering::Acquire, guard);
        while let Some(node) = curr.as_ref() {
            let next = node.next.load(Ordering::Acquire, guard);
            if next.tag() == 0 {
                n += 1;
            }
            curr = next;
        }
        n
    }

    /// Frees every node still reachable from the head, through `domain`'s allocator.
    ///
    /// Teardown only: `&mut self` witnesses that no operation can reach the chain, and
    /// `domain` must be the one whose guards the chain's operations ran under (see
    /// [`Domain::free_reachable`]).  Each node is freed exactly once.
    pub fn free<R, P, A>(&mut self, domain: &Domain<ListNode<K, V>, R, P, A>)
    where
        R: Reclaimer<ListNode<K, V>>,
        P: Pool<ListNode<K, V>>,
        A: Allocator<ListNode<K, V>>,
    {
        domain.free_reachable(self.head.load_ptr(Ordering::Relaxed), |node| {
            node.next.load_ptr(Ordering::Relaxed)
        });
    }
}

/// A lock-free sorted linked list implementing a set/map: one [`Chain`], parameterized by
/// the Record Manager (reclaimer `R`, pool `P`, allocator `A`) through a [`Domain`].
pub struct HarrisMichaelList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<ListNode<K, V>>,
    P: Pool<ListNode<K, V>>,
    A: Allocator<ListNode<K, V>>,
{
    chain: Chain<K, V>,
    domain: Domain<ListNode<K, V>, R, P, A>,
}

/// Shorthand for the per-thread handle type used by [`HarrisMichaelList`]: a domain lease
/// that pins guards without per-operation registry lookups.  Obtained with
/// [`ConcurrentMap::register`] (slots are leased automatically) and usable only on the
/// thread that created it.
pub type ListHandle<K, V, R, P, A> = DomainHandle<ListNode<K, V>, R, P, A>;

/// Shorthand for the guard type of [`HarrisMichaelList`] and [`Chain`] operations.
pub type ListGuard<K, V, R, P, A> = Guard<ListNode<K, V>, R, P, A>;

impl<K, V, R, P, A> HarrisMichaelList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<ListNode<K, V>>,
    P: Pool<ListNode<K, V>>,
    A: Allocator<ListNode<K, V>>,
{
    /// Creates an empty list backed by `manager`.
    pub fn new(manager: Arc<RecordManager<ListNode<K, V>, R, P, A>>) -> Self {
        Self::in_domain(Domain::with_manager(manager))
    }

    /// Creates an empty list backed by an existing [`Domain`] (sharing its thread leases).
    pub fn in_domain(domain: Domain<ListNode<K, V>, R, P, A>) -> Self {
        HarrisMichaelList { chain: Chain::default(), domain }
    }

    /// The Record Manager backing this list.
    pub fn manager(&self) -> &Arc<RecordManager<ListNode<K, V>, R, P, A>> {
        self.domain.manager()
    }

    /// The reclamation domain backing this list.
    pub fn domain(&self) -> &Domain<ListNode<K, V>, R, P, A> {
        &self.domain
    }

    /// Leases a per-thread handle; see [`ConcurrentMap::register`] (the domain leases
    /// slots automatically — no manual `tid` bookkeeping).
    pub fn register(&self) -> Result<ListHandle<K, V, R, P, A>, RegistrationError> {
        self.domain.try_handle()
    }

    /// Counts the elements by a full traversal; test/diagnostic helper with the
    /// quiescent contract of [`Chain::len`].
    pub fn len(&self, handle: &mut ListHandle<K, V, R, P, A>) -> usize {
        handle.run(|guard| Ok(self.chain.len(guard)))
    }

    /// Returns `true` if the list is empty (diagnostic helper).
    pub fn is_empty(&self, handle: &mut ListHandle<K, V, R, P, A>) -> bool {
        self.len(handle) == 0
    }
}

impl<K, V, R, P, A> ConcurrentMap<K, V> for HarrisMichaelList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<ListNode<K, V>>,
    P: Pool<ListNode<K, V>>,
    A: Allocator<ListNode<K, V>>,
{
    type Handle = ListHandle<K, V, R, P, A>;

    fn register(&self) -> Result<Self::Handle, RegistrationError> {
        self.domain.try_handle()
    }

    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool {
        handle.run(|guard| self.chain.insert(guard, &key, &value))
    }

    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool {
        handle.run(|guard| self.chain.remove(guard, key))
    }

    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool {
        handle.run(|guard| self.chain.get(guard, key)).is_some()
    }

    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V> {
        handle.run(|guard| self.chain.get(guard, key))
    }
}

impl<K, V, R, P, A> Drop for HarrisMichaelList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<ListNode<K, V>>,
    P: Pool<ListNode<K, V>>,
    A: Allocator<ListNode<K, V>>,
{
    fn drop(&mut self) {
        self.chain.free(&self.domain);
    }
}

impl<K, V, R, P, A> fmt::Debug for HarrisMichaelList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<ListNode<K, V>>,
    P: Pool<ListNode<K, V>>,
    A: Allocator<ListNode<K, V>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisMichaelList").field("reclaimer", &R::name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::Debra;
    use smr_alloc::{SystemAllocator, ThreadPool};

    type TestList = HarrisMichaelList<
        u64,
        u64,
        Debra<ListNode<u64, u64>>,
        ThreadPool<ListNode<u64, u64>>,
        SystemAllocator<ListNode<u64, u64>>,
    >;

    fn new_list(threads: usize) -> TestList {
        let manager = Arc::new(RecordManager::new(threads));
        HarrisMichaelList::new(manager)
    }

    #[test]
    fn sequential_set_semantics() {
        let list = new_list(1);
        let mut h = list.register().unwrap();
        assert!(!list.contains(&mut h, &5));
        assert!(list.insert(&mut h, 5, 50));
        assert!(!list.insert(&mut h, 5, 51), "duplicate insert must fail");
        assert!(list.contains(&mut h, &5));
        assert_eq!(list.get(&mut h, &5), Some(50));
        assert!(list.remove(&mut h, &5));
        assert!(!list.remove(&mut h, &5));
        assert!(!list.contains(&mut h, &5));
        assert_eq!(list.len(&mut h), 0);
    }

    #[test]
    fn keeps_sorted_order_and_all_elements() {
        let list = new_list(1);
        let mut h = list.register().unwrap();
        let keys = [9u64, 1, 7, 3, 5, 2, 8, 0, 6, 4];
        for &k in &keys {
            assert!(list.insert(&mut h, k, k * 10));
        }
        assert_eq!(list.len(&mut h), keys.len());
        for &k in &keys {
            assert_eq!(list.get(&mut h, &k), Some(k * 10));
        }
        for &k in &keys {
            assert!(list.remove(&mut h, &k));
        }
        assert!(list.is_empty(&mut h));
    }

    #[test]
    fn matches_a_sequential_model() {
        use std::collections::BTreeMap;
        let list = new_list(1);
        let mut h = list.register().unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Deterministic pseudo-random operation sequence.
        let mut x: u64 = 0x243F6A8885A308D3;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 64;
            match (x >> 60) % 3 {
                0 => assert_eq!(list.insert(&mut h, key, key), model.insert(key, key).is_none()),
                1 => assert_eq!(list.remove(&mut h, &key), model.remove(&key).is_some()),
                _ => assert_eq!(list.contains(&mut h, &key), model.contains_key(&key)),
            }
        }
        assert_eq!(list.len(&mut h), model.len());
    }

    #[test]
    fn concurrent_disjoint_inserts_and_removes() {
        let threads = 4;
        let per_thread = 2_000u64;
        let list = Arc::new(new_list(threads));
        let mut joins = Vec::new();
        for t in 0..threads as u64 {
            let list = Arc::clone(&list);
            joins.push(std::thread::spawn(move || {
                let mut h = list.register().unwrap();
                for i in 0..per_thread {
                    let k = t * per_thread + i;
                    assert!(list.insert(&mut h, k, k));
                }
                for i in 0..per_thread {
                    let k = t * per_thread + i;
                    assert!(list.contains(&mut h, &k));
                }
                for i in (0..per_thread).step_by(2) {
                    let k = t * per_thread + i;
                    assert!(list.remove(&mut h, &k));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = list.register().unwrap();
        assert_eq!(list.len(&mut h), (threads as u64 * per_thread / 2) as usize);
        drop(h);
    }

    #[test]
    fn concurrent_contended_single_key() {
        // All threads fight over the same small key range; counts must stay consistent.
        let threads = 4;
        let list = Arc::new(new_list(threads));
        let mut joins = Vec::new();
        for t in 0..threads {
            let list = Arc::clone(&list);
            joins.push(std::thread::spawn(move || {
                let mut h = list.register().unwrap();
                let mut net: i64 = 0;
                for i in 0..5_000u64 {
                    let k = i % 8;
                    if (i + t as u64).is_multiple_of(2) {
                        if list.insert(&mut h, k, k) {
                            net += 1;
                        }
                    } else if list.remove(&mut h, &k) {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net_total: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = list.register().unwrap();
        assert_eq!(
            list.len(&mut h) as i64,
            net_total,
            "net successful inserts must equal final size"
        );
    }
}
