//! A lock-free skip list written against the **safe guard layer** of the Record Manager
//! abstraction.
//!
//! The algorithm is the classic lock-free skip list (Fraser / Herlihy–Shavit style): every
//! level's `next` pointer carries a mark bit; removal marks a node's pointers from the top
//! level down and the node is physically unlinked level by level by subsequent traversals.
//! The thread whose bottom-level unlink CAS succeeds retires the node through the guard.
//! It plays the role of the skip list used in the paper's Experiments 1–3 (keyrange 2·10⁵
//! panels).
//!
//! Like the list and the hash map, the skip list contains no hand-rolled protection code:
//! each level is traversed with a two-role [`ShieldSet`] (predecessor/current, advanced by
//! [`ShieldSet::rotate`] — a store-free role rotation), every protect is the validated
//! announce-then-revalidate protocol of [`ShieldSet::protect_loaded`] (a no-op compiled to
//! nothing under epoch schemes), and retirement goes through the safe [`Guard::retire`]
//! at the unique bottom-level unlink point.
//!
//! # DEBRA+ completion phases
//!
//! An insert is *decided* by its bottom-level publication CAS; linking the upper levels is
//! a resumable completion phase.  The published node is announced in a
//! [`Recovery`](debra::Recovery) scope opened on the operation's
//! [`DomainHandle`], so a neutralized thread keeps the node's memory valid across the
//! recovery gap (a concurrent remove may retire it meanwhile) and re-enters the idempotent
//! completion phase in a fresh guard; the restricted protection is released when the scope
//! drops at the end of the whole operation.  A remove is decided by its bottom-level mark
//! CAS; after a neutralization only the physical unlink (a `find`) remains.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use debra::{
    Allocator, Atomic, Domain, DomainHandle, Guard, Pool, Protected, Reclaimer, RecordManager,
    RegistrationError, Restart, Shared, ShieldSet,
};

use crate::ConcurrentMap;

/// Maximum tower height of a skip list node.
pub const MAX_HEIGHT: usize = 20;

/// Mark (logical deletion) tag stored in the low bit of every level's `next` link.
const MARK: usize = 1;

/// The two window roles of a level traversal.
const PRED: usize = 0;
/// See [`PRED`].
const CURR: usize = 1;
/// Insert-only role: the new node, announced *before* its publication CAS (sound because
/// a private record cannot be retired) so the completion phase may keep dereferencing it
/// under per-access schemes even after a concurrent remove retires it.
const NODE: usize = 2;
/// Insert-only role: the target level's predecessor, duplicated out of the rotating
/// window so the completion phase's upper-level link CAS targets a protected record.
const TPRED: usize = 3;

/// A node of [`SkipList`]; `key == None` marks the head sentinel (smaller than every key).
pub struct SkipNode<K, V> {
    key: Option<K>,
    value: Option<V>,
    height: usize,
    next: [Atomic<SkipNode<K, V>>; MAX_HEIGHT],
}

impl<K, V> SkipNode<K, V> {
    /// The head sentinel: no key, full height, all links null.
    fn sentinel() -> Self {
        SkipNode {
            key: None,
            value: None,
            height: MAX_HEIGHT,
            next: std::array::from_fn(|_| Atomic::null()),
        }
    }

    /// A private key node whose links up to `height` are pre-wired to `succs` (the
    /// snapshot a `find` returned); published by the bottom-level CAS.
    fn new(key: K, value: V, height: usize, succs: &[Shared<'_, Self>; MAX_HEIGHT]) -> Self {
        SkipNode {
            key: Some(key),
            value: Some(value),
            height,
            next: std::array::from_fn(|level| {
                if level < height {
                    Atomic::from_shared(succs[level])
                } else {
                    Atomic::null()
                }
            }),
        }
    }

    /// The node's tower height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `true` if this node's key is less than `key` (the sentinel is less than all keys).
    fn key_less(&self, key: &K) -> bool
    where
        K: Ord,
    {
        match &self.key {
            None => true, // head sentinel
            Some(k) => k < key,
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for SkipNode<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipNode").field("key", &self.key).field("height", &self.height).finish()
    }
}

/// A lock-free skip list implementing a set/map, parameterized by the Record Manager
/// (reclaimer `R`, pool `P`, allocator `A`) through a [`Domain`].
pub struct SkipList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<SkipNode<K, V>>,
    P: Pool<SkipNode<K, V>>,
    A: Allocator<SkipNode<K, V>>,
{
    /// The head sentinel, installed at construction and only replaced at teardown.
    head: Atomic<SkipNode<K, V>>,
    /// State of the deterministic tower-height generator (see [`Self::random_height`]).
    height_rng: AtomicU64,
    domain: Domain<SkipNode<K, V>, R, P, A>,
}

/// Shorthand for the per-thread handle type used by [`SkipList`]: a domain lease that
/// pins guards without per-operation registry lookups.  Obtained with
/// [`ConcurrentMap::register`] and usable only on the thread that created it.
pub type SkipHandle<K, V, R, P, A> = DomainHandle<SkipNode<K, V>, R, P, A>;

/// Shorthand for the guard type of [`SkipList`] operations.
pub type SkipGuard<K, V, R, P, A> = Guard<SkipNode<K, V>, R, P, A>;

/// Shorthand for the shield set of a traversal: two window roles (predecessor/current)
/// plus, for inserts (`N = 4`), the [`NODE`] and [`TPRED`] roles.
type SkipShields<'g, const N: usize, K, V, R, P, A> = ShieldSet<'g, N, SkipNode<K, V>, R, P, A>;

/// A published insert's resumption state: the recovery token for the node (present only
/// under crash-recovery schemes — no other scheme restarts past the decision point) and
/// its tower height.
type PublishedInsert<'r, K, V> = (Option<Protected<'r, SkipNode<K, V>>>, usize);

/// Outcome of a [`SkipList::find`]: per-level predecessors and successors plus the node
/// holding the key, if present (null otherwise).  On return `preds[0]`/`succs[0]` are
/// still protected by the traversal's shields.
struct FindResult<'g, K, V> {
    preds: [Shared<'g, SkipNode<K, V>>; MAX_HEIGHT],
    succs: [Shared<'g, SkipNode<K, V>>; MAX_HEIGHT],
    found: Shared<'g, SkipNode<K, V>>,
}

impl<K, V, R, P, A> SkipList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<SkipNode<K, V>>,
    P: Pool<SkipNode<K, V>>,
    A: Allocator<SkipNode<K, V>>,
{
    /// Creates an empty skip list backed by `manager`.
    pub fn new(manager: Arc<RecordManager<SkipNode<K, V>, R, P, A>>) -> Self {
        Self::in_domain(Domain::with_manager(manager))
    }

    /// Creates an empty skip list backed by an existing [`Domain`] (sharing its thread
    /// leases).  Briefly leases a slot on the constructing thread to allocate the head
    /// sentinel.
    pub fn in_domain(domain: Domain<SkipNode<K, V>, R, P, A>) -> Self {
        let head = {
            let guard = domain.pin();
            Atomic::from_owned(guard.alloc(SkipNode::sentinel()))
        };
        SkipList { head, height_rng: AtomicU64::new(0), domain }
    }

    /// The Record Manager backing this skip list.
    pub fn manager(&self) -> &Arc<RecordManager<SkipNode<K, V>, R, P, A>> {
        self.domain.manager()
    }

    /// The reclamation domain backing this skip list.
    pub fn domain(&self) -> &Domain<SkipNode<K, V>, R, P, A> {
        &self.domain
    }

    /// Leases a per-thread handle; see [`ConcurrentMap::register`] (slots are leased
    /// automatically through the domain — no manual `tid` bookkeeping).
    pub fn register(&self) -> Result<SkipHandle<K, V, R, P, A>, RegistrationError> {
        self.domain.try_handle()
    }

    /// Finds predecessors and successors of `key` at every level, physically unlinking
    /// marked nodes on the way (the unlinker at level 0 retires the node).  On return
    /// the bottom-level predecessor and successor are still protected by `set`, and — if
    /// `keep_pred_level` is given (insert completion, which requires the 4-role set) —
    /// the predecessor found at that level additionally stays protected in [`TPRED`]
    /// while the descent reuses the window roles below it.
    ///
    /// A tagged predecessor link fails the shield's protect and restarts from the head:
    /// a marked `pred` is being removed, its successors can no longer be trusted, and an
    /// unlink CAS whose expected value carried the mark would *clear* it, resurrecting
    /// the half-removed predecessor (a double-retire in waiting).
    fn find<'g, const N: usize>(
        &self,
        guard: &'g SkipGuard<K, V, R, P, A>,
        set: &mut SkipShields<'g, N, K, V, R, P, A>,
        key: &K,
        keep_pred_level: Option<usize>,
    ) -> Result<FindResult<'g, K, V>, Restart> {
        'retry: loop {
            guard.check()?;
            let head = self.head.load(Ordering::Acquire, guard);
            let mut preds = [head; MAX_HEIGHT];
            let mut succs = [Shared::null(); MAX_HEIGHT];
            let mut pred = head;
            // Cached dereference of `pred` (kept in lock-step with it): the traversal's
            // hot path touches the predecessor's links on every step, and re-checking
            // the pointer each time would pay for a branch the raw code never had.
            let mut pred_ref = pred.as_ref().expect("head is non-null");
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr_word = pred_ref.next[level].load(Ordering::Acquire, guard);
                let curr = loop {
                    // Protect-and-validate the node `curr_word` points to (the protect
                    // folds in the per-node neutralization checkpoint).  A failure means
                    // the link changed under us or is now marked — the node may already
                    // be retired: restart from the head.  The validating comparison is
                    // on the full link word, mark tag included.
                    let link = &pred_ref.next[level];
                    let Ok(curr) = set.protect_loaded(CURR, link, curr_word) else {
                        continue 'retry;
                    };
                    let Some(curr_ref) = curr.as_ref() else {
                        break curr;
                    };
                    let next = curr_ref.next[level].load(Ordering::Acquire, guard);
                    if next.tag() == MARK {
                        // Unlink the marked node at this level.
                        let unlink_to = next.with_tag(0);
                        match link.compare_exchange(
                            curr,
                            unlink_to,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        ) {
                            Ok(()) => {
                                if level == 0 {
                                    // Fully unlinked: this thread is the unique level-0
                                    // unlink winner and owns the retirement.
                                    guard.retire(curr);
                                }
                                curr_word = unlink_to;
                                continue;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                    if curr_ref.key_less(key) {
                        // Advance: `curr` becomes the predecessor.  Rotating the roles
                        // moves the protection without touching the announcements.
                        set.rotate([PRED, CURR]);
                        pred = curr;
                        pred_ref = curr_ref;
                        curr_word = next;
                    } else {
                        break curr;
                    }
                };
                preds[level] = pred;
                succs[level] = curr;
                if keep_pred_level == Some(level) && pred != head {
                    // Pin this level's predecessor beyond the rotating window: the
                    // insert completion CASes on its link after the descent finishes.
                    // (The head sentinel is never retired and needs no announcement.)
                    set.duplicate(PRED, TPRED, pred);
                }
            }
            let found = match succs[0].as_ref() {
                Some(candidate) if candidate.key.as_ref() == Some(key) => succs[0],
                _ => Shared::null(),
            };
            return Ok(FindResult { preds, succs, found });
        }
    }

    /// Geometric(1/2) tower height from a deterministic SplitMix64 stream: one relaxed
    /// `fetch_add` per insert (concurrent inserters draw distinct values), reproducible
    /// across runs — which is what makes the `skiplist_raw` / `skiplist_guard` benchmark
    /// pair compare identical tower shapes instead of per-run RNG luck.
    fn random_height(&self) -> usize {
        let x = self.height_rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        1 + (z.trailing_ones() as usize).min(MAX_HEIGHT - 1)
    }

    /// Completion phase of an already-published insert: links the upper levels and, if a
    /// concurrent remove marked the node meanwhile, makes sure it is physically unlinked
    /// before the operation ends (a retired node must never stay reachable past the
    /// inserting operation, or it could be freed while other threads can still step onto
    /// it through an upper-level link).
    ///
    /// Idempotent: on neutralization the caller re-runs it inside a fresh guard, with
    /// `node` re-derived from its [`Protected`] recovery token.
    fn complete_insert<'g>(
        &self,
        guard: &'g SkipGuard<K, V, R, P, A>,
        set: &mut SkipShields<'g, 4, K, V, R, P, A>,
        key: &K,
        node: Shared<'g, SkipNode<K, V>>,
        height: usize,
    ) -> Result<(), Restart> {
        let node_ref = node.as_ref().expect("published node is non-null");
        'levels: for level in 1..height {
            loop {
                let expected = node_ref.next[level].load(Ordering::Acquire, guard);
                if expected.tag() == MARK {
                    break 'levels; // concurrently removed; stop climbing
                }
                let r2 = self.find(guard, set, key, Some(level))?;
                if r2.found != node {
                    break 'levels; // already removed and unlinked at the bottom
                }
                if r2.succs[level] == node {
                    // Already linked at this level: we are re-running the (idempotent)
                    // completion after a neutralization, and `find` now returns the node
                    // as its own successor here.  Without this check the CAS below would
                    // set `node.next[level] = node` — a self-cycle that every later
                    // traversal of this level would spin on forever.
                    continue 'levels;
                }
                if expected != r2.succs[level]
                    && node_ref.next[level]
                        .compare_exchange(
                            expected,
                            r2.succs[level],
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_err()
                {
                    continue;
                }
                if r2.preds[level].as_ref().expect("preds are non-null").next[level]
                    .compare_exchange(
                        r2.succs[level],
                        node,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        if node_ref.next[0].load(Ordering::Acquire, guard).tag() == MARK {
            // A concurrent remove won while we were climbing: unlink everywhere (the
            // level-0 unlink winner performs the retirement).
            let _ = self.find(guard, set, key, None)?;
        }
        Ok(())
    }

    fn remove_body(
        &self,
        guard: &SkipGuard<K, V, R, P, A>,
        key: &K,
        decided: &mut bool,
    ) -> Result<bool, Restart> {
        let mut set = guard.shield_set::<2>();
        if *decided {
            // The bottom-level mark CAS already succeeded in an attempt that was then
            // interrupted by neutralization; only the physical unlink remains.
            let _ = self.find(guard, &mut set, key, None)?;
            return Ok(true);
        }
        let r = self.find(guard, &mut set, key, None)?;
        let Some(victim) = r.found.as_ref() else {
            return Ok(false);
        };
        // Mark the upper levels (top-down).  Every mark CAS is preceded by a checkpoint:
        // the marks are writes into a record this operation only read, and a validating
        // scheme (VBR) vouches for those reads only up to the checkpoint — a stale remover
        // that marks without one can mark a recycled record, i.e. delete a key it never
        // found.
        for level in (1..victim.height).rev() {
            loop {
                let w = victim.next[level].load(Ordering::Acquire, guard);
                if w.tag() == MARK {
                    break;
                }
                guard.check()?;
                if victim.next[level]
                    .compare_exchange(
                        w,
                        w.with_tag(MARK),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Mark the bottom level; only one remover succeeds.  The successful CAS is the
        // linearization point: everything after it must not unwind the decision.
        loop {
            let w = victim.next[0].load(Ordering::Acquire, guard);
            if w.tag() == MARK {
                return Ok(false); // another remover won
            }
            guard.check()?;
            if victim.next[0]
                .compare_exchange(w, w.with_tag(MARK), Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                *decided = true;
                // Physically unlink (and let the unlink winner retire) via find.
                let _ = self.find(guard, &mut set, key, None)?;
                return Ok(true);
            }
        }
    }

    fn get_body(&self, guard: &SkipGuard<K, V, R, P, A>, key: &K) -> Result<Option<V>, Restart> {
        // Read-only traversal (does not unlink).  Every step onto a node goes through a
        // validated protect, so schemes with real per-access protection cover the record
        // before it is dereferenced; the loaded words are tag-stripped first, so under
        // epoch schemes (whose validation compiles to nothing) the traversal keeps
        // walking through marked — and possibly retired — nodes, exactly the Section 3
        // access pattern, while under HP-style schemes a marked predecessor link fails
        // the exact-word validation and restarts.
        let mut set = guard.shield_set::<2>();
        'retry: loop {
            guard.check()?;
            let pred = self.head.load(Ordering::Acquire, guard);
            let mut pred_ref = pred.as_ref().expect("head is non-null");
            for level in (0..MAX_HEIGHT).rev() {
                let mut curr_word = pred_ref.next[level].load(Ordering::Acquire, guard).with_tag(0);
                loop {
                    let link = &pred_ref.next[level];
                    let Ok(curr) = set.protect_loaded(CURR, link, curr_word) else {
                        continue 'retry;
                    };
                    let Some(curr_ref) = curr.as_ref() else {
                        break;
                    };
                    if curr_ref.key_less(key) {
                        set.rotate([PRED, CURR]);
                        pred_ref = curr_ref;
                        curr_word = curr_ref.next[level].load(Ordering::Acquire, guard).with_tag(0);
                    } else {
                        break;
                    }
                }
            }
            let candidate = pred_ref.next[0].load(Ordering::Acquire, guard).with_tag(0);
            if !candidate.is_null() {
                let Ok(candidate) = set.protect_loaded(CURR, &pred_ref.next[0], candidate) else {
                    continue 'retry;
                };
                let node = candidate.as_ref().expect("candidate is non-null");
                if node.key.as_ref() == Some(key)
                    && node.next[0].load(Ordering::Acquire, guard).tag() == 0
                {
                    return Ok(node.value.clone());
                }
            }
            return Ok(None);
        }
    }

    /// Number of keys currently in the list; test/diagnostic helper.
    ///
    /// The traversal announces no per-node protection, which only epoch-style schemes
    /// honor; under protection-based schemes (HP, ThreadScan, IBR) it must not race with
    /// concurrent removals — call it only when no other thread is updating the list.
    pub fn len(&self, handle: &mut SkipHandle<K, V, R, P, A>) -> usize {
        handle.run(|guard| {
            let mut n = 0;
            let head = self.head.load(Ordering::Acquire, guard);
            let mut curr =
                head.as_ref().expect("head is non-null").next[0].load(Ordering::Acquire, guard);
            while let Some(node) = curr.as_ref() {
                let next = node.next[0].load(Ordering::Acquire, guard);
                if next.tag() == 0 {
                    n += 1;
                }
                curr = next;
            }
            Ok(n)
        })
    }

    /// Returns `true` if the skip list holds no keys (diagnostic helper).
    pub fn is_empty(&self, handle: &mut SkipHandle<K, V, R, P, A>) -> bool {
        self.len(handle) == 0
    }
}

impl<K, V, R, P, A> ConcurrentMap<K, V> for SkipList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<SkipNode<K, V>>,
    P: Pool<SkipNode<K, V>>,
    A: Allocator<SkipNode<K, V>>,
{
    type Handle = SkipHandle<K, V, R, P, A>;

    fn register(&self) -> Result<Self::Handle, RegistrationError> {
        self.domain.try_handle()
    }

    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool {
        // `published` survives neutralization-induced retries: once the bottom-level CAS
        // has succeeded, only the (idempotent) completion phase is re-run, so the insert
        // takes effect exactly once.  The recovery scope keeps the published node
        // R-protected across the recovery gap — a concurrent remove may retire it while
        // this thread is between attempts — and releases the protection when the whole
        // operation (completion phase included) is done.  Schemes without crash
        // recovery skip the scope (and its token) entirely — the branch is constant
        // after monomorphization.
        let recovery = handle.supports_crash_recovery().then(|| handle.recovery());
        let mut published: Option<PublishedInsert<'_, K, V>> = None;
        handle.run(|guard| {
            let mut set = guard.shield_set::<4>();
            if let Some((token, height)) = &published {
                // Resuming an interrupted completion phase.  Under DEBRA+ the recovery
                // token re-derives the published node and the idempotent completion
                // re-runs.  A validating scheme (VBR) can also restart past the
                // decision point; it holds no token, and without one there is no safe
                // way to re-identify the node (the address may since have been
                // recycled) — so abandon the upper-level climb.  The bottom-level link
                // is the linearization point and alone determines membership; a node
                // that never climbs costs traversal performance, not correctness.  What
                // the abandoned climb still owes is its last step: a concurrent remove
                // may have marked the node and passed the levels this insert linked
                // afterwards, so one search for the key unlinks it wherever it is
                // still reachable — otherwise a retired node could stay linked above
                // the bottom level.
                if let Some(token) = token {
                    let node = token.get(guard);
                    self.complete_insert(guard, &mut set, &key, node, *height)?;
                } else {
                    let _ = self.find(guard, &mut set, &key, None)?;
                }
                return Ok(true);
            }
            loop {
                let r = self.find(guard, &mut set, &key, None)?;
                if !r.found.is_null() {
                    return Ok(false);
                }
                let height = self.random_height();
                let node = guard.alloc(SkipNode::new(key.clone(), value.clone(), height, &r.succs));
                // Announce the still-private node *before* publication — sound because a
                // private record cannot be retired, and required by both protections
                // that must already cover the node when the CAS makes it retirable: the
                // shield keeps it dereferenceable under per-access schemes through the
                // completion phase (a concurrent remove may mark and retire it), and the
                // restricted hazard pointer keeps it valid across a DEBRA+ recovery gap
                // (a neutralization can land on the very instruction after the CAS).
                set.protect_private(NODE, &node);
                let token = recovery.as_ref().map(|r| r.protect(node.shared()));
                if let Err(restart) = guard.check() {
                    // Not yet published: recycle immediately and drop this attempt's
                    // restricted announcement, then unwind to recovery.
                    guard.discard(node);
                    if let Some(r) = &recovery {
                        r.clear();
                    }
                    return Err(restart);
                }
                // Publish at the bottom level: the operation's linearization point.
                match r.preds[0].as_ref().expect("preds are non-null").next[0]
                    .compare_exchange_owned(
                        r.succs[0],
                        node,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                    Ok(node) => {
                        published = Some((token, height));
                        self.complete_insert(guard, &mut set, &key, node, height)?;
                        return Ok(true);
                    }
                    Err(node) => {
                        // The node was never made reachable; recycle it, drop its
                        // restricted announcement, and retry.
                        guard.discard(node);
                        if let Some(r) = &recovery {
                            r.clear();
                        }
                        continue;
                    }
                }
            }
        })
    }

    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool {
        // Same decision/completion split as `insert`: a remove whose bottom-level mark CAS
        // has succeeded reports success even if its physical unlink is interrupted.
        let mut decided = false;
        handle.run(|guard| self.remove_body(guard, key, &mut decided))
    }

    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool {
        handle.run(|guard| self.get_body(guard, key)).is_some()
    }

    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V> {
        handle.run(|guard| self.get_body(guard, key))
    }
}

impl<K, V, R, P, A> Drop for SkipList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<SkipNode<K, V>>,
    P: Pool<SkipNode<K, V>>,
    A: Allocator<SkipNode<K, V>>,
{
    fn drop(&mut self) {
        // Exclusive access during drop (`&mut self`): the bottom-level chain visits every
        // node (head sentinel included) exactly once.
        self.domain.free_reachable(self.head.load_ptr(Ordering::Relaxed), |node| {
            node.next[0].load_ptr(Ordering::Relaxed)
        });
    }
}

impl<K, V, R, P, A> fmt::Debug for SkipList<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<SkipNode<K, V>>,
    P: Pool<SkipNode<K, V>>,
    A: Allocator<SkipNode<K, V>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList").field("reclaimer", &R::name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::Debra;
    use smr_alloc::{SystemAllocator, ThreadPool};

    type Node = SkipNode<u64, u64>;
    type TestSkip = SkipList<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;

    fn new_skip(threads: usize) -> TestSkip {
        SkipList::new(Arc::new(RecordManager::new(threads)))
    }

    #[test]
    fn sequential_set_semantics() {
        let s = new_skip(1);
        let mut h = s.register().unwrap();
        assert!(s.insert(&mut h, 3, 30));
        assert!(s.insert(&mut h, 1, 10));
        assert!(s.insert(&mut h, 2, 20));
        assert!(!s.insert(&mut h, 2, 21));
        assert_eq!(s.get(&mut h, &2), Some(20));
        assert_eq!(s.len(&mut h), 3);
        assert!(s.remove(&mut h, &2));
        assert!(!s.remove(&mut h, &2));
        assert!(!s.contains(&mut h, &2));
        assert_eq!(s.len(&mut h), 2);
    }

    #[test]
    fn matches_a_sequential_model() {
        use std::collections::BTreeMap;
        let s = new_skip(1);
        let mut h = s.register().unwrap();
        let mut model = BTreeMap::new();
        let mut x: u64 = 0xDEADBEEFCAFEF00D;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 100;
            match (x >> 61) % 3 {
                0 => assert_eq!(s.insert(&mut h, key, key), model.insert(key, key).is_none()),
                1 => assert_eq!(s.remove(&mut h, &key), model.remove(&key).is_some()),
                _ => assert_eq!(s.contains(&mut h, &key), model.contains_key(&key)),
            }
        }
        assert_eq!(s.len(&mut h), model.len());
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let threads = 4;
        let s = Arc::new(new_skip(threads + 1));
        let mut joins = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                let mut h = s.register().unwrap();
                let mut net: i64 = 0;
                let mut x: u64 = 0x1234_5678 + t as u64;
                for _ in 0..5_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = (x >> 33) % 128;
                    if (x >> 62) & 1 == 0 {
                        if s.insert(&mut h, k, k) {
                            net += 1;
                        }
                    } else if s.remove(&mut h, &k) {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = s.register().unwrap();
        assert_eq!(s.len(&mut h) as i64, net);
        assert!(s.manager().reclaimer().stats().retired > 0);
    }
}
