//! A lock-free external (leaf-oriented) binary search tree with flag/mark descriptors and
//! helping, written against the **safe guard layer** of the Record Manager abstraction.
//!
//! The algorithm follows Ellen, Fatourou, Ruppert and van Breugel's non-blocking BST
//! (PODC 2010), which is the unbalanced ancestor of the balanced tree used in the paper's
//! experiments (see `DESIGN.md` for the substitution argument).  The properties relevant to
//! memory reclamation are identical:
//!
//! * all keys live in leaves; internal nodes are routing nodes;
//! * updates announce a *descriptor* (`IInfo`/`DInfo` record), flag the affected internal
//!   nodes by CAS-ing the descriptor into their `update` word, and can be **helped** to
//!   completion by any thread that encounters the flag;
//! * internal nodes are *marked* (via the same `update` word) before they are retired;
//! * searches never help and may traverse marked nodes — and, under epoch based
//!   reclamation, nodes that have already been retired — which is exactly the pattern that
//!   makes hazard pointers so difficult to apply (paper, Section 3).
//!
//! Descriptor reclamation uses a hand-off rule: the thread whose CAS replaces a node's
//! `update` word retires the descriptor referenced by the *previous* value of the word.
//!
//! # The safe-layer rendition
//!
//! The tree contains no hand-rolled protection code:
//!
//! * the search descends with a six-role [`ShieldSet`] — grandparent/parent/leaf for the
//!   path window plus three descriptor roles.  Shifting the window down one level is
//!   [`ShieldSet::rotate`]`([GP, P, L])`: the records that stay in the window stay
//!   continuously protected with **no re-announcement** (the property the raw code
//!   maintained by carefully ordered `protect` calls), and only the new child is announced
//!   and validated, via [`ShieldSet::protect_loaded_unless`] with the "parent is not
//!   marked" invariant conjoined — a removed parent keeps its frozen child links, so the link
//!   validation alone cannot prove the child unretired;
//! * the packed `update` word (`descriptor pointer | state`) is an [`Atomic`] whose tag
//!   bits carry the EFRB state; descriptors are pinned with [`ShieldSet::protect_word`],
//!   the tagged-word protect whose validation is "the word is still installed" (the
//!   hand-off rule guarantees an installed descriptor is unretired);
//! * the helping policy is the safe [`Guard::helping_allowed`] hook: schemes that
//!   validate their accesses (hazard pointers, ThreadScan, IBR) must not dereference
//!   the helpee's records, so the tree backs off (with a yield) instead of helping —
//!   see the hook's docs for why the seed's `protection_slots() > 0` gate (which let
//!   IBR help) corrupted the tree;
//! * retirement goes through the safe [`Guard::retire`] at the unique hand-off/unlink
//!   points.
//!
//! # DEBRA+ integration
//!
//! Before an update's decision CAS, the records its completion phase will access (the
//! affected internal nodes, the victim leaf and the descriptor) are announced in a
//! per-attempt [`Recovery`](debra::Recovery) scope (the RAII rendition of
//! `RProtect`/`RUnprotectAll`); after the decision CAS the operation runs to completion
//! without neutralization checkpoints, so a neutralized thread can always finish the
//! bounded completion phase safely and the operation's effect happens exactly once.
//! Neutralization observed *before* the decision CAS unwinds the attempt with
//! [`Restart`], dropping the scope — which releases the restricted protections — and
//! restarts.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use debra::{
    Allocator, Atomic, Domain, DomainHandle, Guard, Pool, Reclaimer, RecordManager,
    RegistrationError, Restart, Shared, ShieldSet,
};

use crate::ConcurrentMap;

/// Update-word states, carried in the tag bits of the packed `update` link
/// (`descriptor pointer | state`).
const CLEAN: usize = 0;
/// See [`CLEAN`].
const IFLAG: usize = 1;
/// See [`CLEAN`].
const DFLAG: usize = 2;
/// See [`CLEAN`].
const MARK: usize = 3;

/// Routing/leaf key: finite keys plus the two infinite sentinels of the EFRB tree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum BstKey<K> {
    /// A real key.
    Finite(K),
    /// First sentinel (larger than every real key).
    Inf1,
    /// Second sentinel (larger than `Inf1`).
    Inf2,
}

impl<K: Ord> BstKey<K> {
    /// `true` if the search key `key` routes left of this routing key (every finite key
    /// is smaller than the sentinels).  By-reference: the comparison runs at every level
    /// of every descent, and cloning the key there would put an allocation on the hot
    /// path for heap-backed key types.
    #[inline]
    fn finite_less(&self, key: &K) -> bool {
        match self {
            BstKey::Finite(k) => key < k,
            BstKey::Inf1 | BstKey::Inf2 => true,
        }
    }

    /// `true` if this key is exactly the finite key `key` (sentinels never match).
    #[inline]
    fn is_finite(&self, key: &K) -> bool {
        matches!(self, BstKey::Finite(k) if k == key)
    }
}

/// What role a [`BstNode`] record currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Internal,
    Leaf,
    IInfo,
    DInfo,
}

/// A record of the external BST.
///
/// All four roles (internal node, leaf, insert descriptor, delete descriptor) share one
/// record type so that a single Record Manager serves the whole structure, exactly as a
/// single C++ record manager serves all record types of one data structure in the paper's
/// artifact.  Unused fields are simply left at their defaults for a given role.  The
/// descriptor fields (`d_*`) are written once before the descriptor is published and never
/// change afterwards.
pub struct BstNode<K, V> {
    kind: NodeKind,
    key: BstKey<K>,
    value: Option<V>,
    left: Atomic<BstNode<K, V>>,
    right: Atomic<BstNode<K, V>>,
    /// Packed `(descriptor pointer | state)` word; meaningful for internal nodes.
    update: Atomic<BstNode<K, V>>,
    // Descriptor fields (IInfo: p, l, new_internal; DInfo: gp, p, l, pupdate).
    d_gp: Atomic<BstNode<K, V>>,
    d_p: Atomic<BstNode<K, V>>,
    d_l: Atomic<BstNode<K, V>>,
    d_new_internal: Atomic<BstNode<K, V>>,
    /// The parent's update word observed by the delete's search (pointer *and* state).
    d_pupdate: Atomic<BstNode<K, V>>,
}

impl<K, V> BstNode<K, V> {
    fn internal(key: BstKey<K>, left: Shared<'_, Self>, right: Shared<'_, Self>) -> Self {
        BstNode {
            kind: NodeKind::Internal,
            key,
            value: None,
            left: Atomic::from_shared(left),
            right: Atomic::from_shared(right),
            update: Atomic::null(),
            d_gp: Atomic::null(),
            d_p: Atomic::null(),
            d_l: Atomic::null(),
            d_new_internal: Atomic::null(),
            d_pupdate: Atomic::null(),
        }
    }

    fn leaf(key: BstKey<K>, value: Option<V>) -> Self {
        BstNode {
            kind: NodeKind::Leaf,
            key,
            value,
            left: Atomic::null(),
            right: Atomic::null(),
            update: Atomic::null(),
            d_gp: Atomic::null(),
            d_p: Atomic::null(),
            d_l: Atomic::null(),
            d_new_internal: Atomic::null(),
            d_pupdate: Atomic::null(),
        }
    }

    fn iinfo(p: Shared<'_, Self>, l: Shared<'_, Self>, new_internal: Shared<'_, Self>) -> Self {
        BstNode {
            kind: NodeKind::IInfo,
            key: BstKey::Inf2,
            value: None,
            left: Atomic::null(),
            right: Atomic::null(),
            update: Atomic::null(),
            d_gp: Atomic::null(),
            d_p: Atomic::from_shared(p),
            d_l: Atomic::from_shared(l),
            d_new_internal: Atomic::from_shared(new_internal),
            d_pupdate: Atomic::null(),
        }
    }

    fn dinfo(
        gp: Shared<'_, Self>,
        p: Shared<'_, Self>,
        l: Shared<'_, Self>,
        pupdate: Shared<'_, Self>,
    ) -> Self {
        BstNode {
            kind: NodeKind::DInfo,
            key: BstKey::Inf2,
            value: None,
            left: Atomic::null(),
            right: Atomic::null(),
            update: Atomic::null(),
            d_gp: Atomic::from_shared(gp),
            d_p: Atomic::from_shared(p),
            d_l: Atomic::from_shared(l),
            d_new_internal: Atomic::null(),
            d_pupdate: Atomic::from_shared(pupdate),
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for BstNode<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BstNode").field("kind", &self.kind).field("key", &self.key).finish()
    }
}

/// Outcome of a tree search: the grandparent, parent and leaf on the search path, plus
/// the parent's and grandparent's update words (pointer and state tag) at the time they
/// were traversed.  On return all three path records — and the descriptors referenced by
/// the returned update words — are still protected by the caller-supplied [`ShieldSet`].
struct SearchResult<'g, K, V> {
    /// Null when the leaf hangs directly off the root's parent position.
    gp: Shared<'g, BstNode<K, V>>,
    p: Shared<'g, BstNode<K, V>>,
    l: Shared<'g, BstNode<K, V>>,
    pupdate: Shared<'g, BstNode<K, V>>,
    gpupdate: Shared<'g, BstNode<K, V>>,
}

/// Protection role assignment of the six-role [`ShieldSet`] (three for the search-path
/// window, one for the descriptor when helping, and two pinning the descriptors
/// referenced by the search's `pupdate`/`gpupdate` words).
mod roles {
    pub const GP: usize = 0;
    pub const P: usize = 1;
    pub const L: usize = 2;
    pub const INFO: usize = 3;
    /// Descriptor referenced by the parent's update word at search time.
    pub const PINFO: usize = 4;
    /// Descriptor referenced by the grandparent's update word at search time.
    pub const GPINFO: usize = 5;
}

/// A lock-free external binary search tree implementing a set/map, parameterized by the
/// Record Manager (reclaimer `R`, pool `P`, allocator `A`) through a [`Domain`].
pub struct ExternalBst<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<BstNode<K, V>>,
    P: Pool<BstNode<K, V>>,
    A: Allocator<BstNode<K, V>>,
{
    /// The root routing node, installed at construction and never replaced.
    root: Atomic<BstNode<K, V>>,
    domain: Domain<BstNode<K, V>, R, P, A>,
}

/// Shorthand for the per-thread handle type used by [`ExternalBst`]: a domain lease that
/// pins guards without per-operation registry lookups.  Obtained with
/// [`ConcurrentMap::register`] and usable only on the thread that created it.
pub type BstHandle<K, V, R, P, A> = DomainHandle<BstNode<K, V>, R, P, A>;

/// Shorthand for the guard type of [`ExternalBst`] operations.
pub type BstGuard<K, V, R, P, A> = Guard<BstNode<K, V>, R, P, A>;

/// Shorthand for the six-role shield set of a BST operation.
type BstShields<'g, K, V, R, P, A> = ShieldSet<'g, 6, BstNode<K, V>, R, P, A>;

impl<K, V, R, P, A> ExternalBst<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<BstNode<K, V>>,
    P: Pool<BstNode<K, V>>,
    A: Allocator<BstNode<K, V>>,
{
    /// Creates an empty tree backed by `manager`.
    pub fn new(manager: Arc<RecordManager<BstNode<K, V>, R, P, A>>) -> Self {
        Self::in_domain(Domain::with_manager(manager))
    }

    /// Creates an empty tree backed by an existing [`Domain`] (sharing its thread
    /// leases).  Briefly leases a slot on the constructing thread to allocate the
    /// initial EFRB configuration: a root routing node with key `Inf2` whose children
    /// are the two sentinel leaves `Inf1` and `Inf2`.
    pub fn in_domain(domain: Domain<BstNode<K, V>, R, P, A>) -> Self {
        let root = {
            let guard = domain.pin();
            let leaf1 = guard.alloc(BstNode::leaf(BstKey::Inf1, None));
            let leaf2 = guard.alloc(BstNode::leaf(BstKey::Inf2, None));
            let root = guard.alloc(BstNode::internal(BstKey::Inf2, leaf1.shared(), leaf2.shared()));
            // The leaves are now owned by the root's links; consuming the `Owned`s
            // without discarding is the ownership transfer.
            let (_, _) = (leaf1, leaf2);
            Atomic::from_owned(root)
        };
        ExternalBst { root, domain }
    }

    /// The Record Manager backing this tree.
    pub fn manager(&self) -> &Arc<RecordManager<BstNode<K, V>, R, P, A>> {
        self.domain.manager()
    }

    /// The reclamation domain backing this tree.
    pub fn domain(&self) -> &Domain<BstNode<K, V>, R, P, A> {
        &self.domain
    }

    /// Leases a per-thread handle; see [`ConcurrentMap::register`] (slots are leased
    /// automatically through the domain — no manual `tid` bookkeeping).
    pub fn register(&self) -> Result<BstHandle<K, V, R, P, A>, RegistrationError> {
        self.domain.try_handle()
    }

    /// EFRB `Search(k)`, restarting if a protection validation fails.
    ///
    /// The descent keeps the grandparent → parent → child window continuously protected
    /// by rotating the three path roles (no re-announcement) and announcing only the new
    /// child, validated against both the parent's child link *and* the parent's
    /// unmarked-ness — a removed parent keeps its frozen child links, and its leaf child
    /// is retired together with it without ever being unlinked individually, so the link
    /// check alone would validate a retired child (the restriction the paper describes
    /// for HP-style schemes in Section 3).  At the leaf, the descriptors referenced by
    /// the update words we return are pinned (roles `PINFO`/`GPINFO`): the caller's
    /// decision CAS uses those words as expected values, and a reclaimed descriptor
    /// could be recycled *as a new descriptor at the same address*, letting a stale
    /// decision CAS succeed by ABA (a lost insert/delete).  The validation re-reads the
    /// word: if it is still installed, the descriptor has not yet been handed off for
    /// retirement.  All of it no-ops under epoch schemes, whose non-quiescent
    /// announcement already pins every record.
    fn search<'g>(
        &self,
        guard: &'g BstGuard<K, V, R, P, A>,
        set: &mut BstShields<'g, K, V, R, P, A>,
        key: &K,
    ) -> Result<SearchResult<'g, K, V>, Restart> {
        'retry: loop {
            guard.check()?;
            let mut gp: Shared<'g, BstNode<K, V>> = Shared::null();
            let mut gpupdate: Shared<'g, BstNode<K, V>> = Shared::null();
            let mut p: Shared<'g, BstNode<K, V>> = Shared::null();
            let mut pupdate: Shared<'g, BstNode<K, V>> = Shared::null();
            let mut l = self.root.load(Ordering::Acquire, guard);
            loop {
                let l_ref = l.as_ref().expect("path nodes are non-null");
                if l_ref.kind != NodeKind::Internal {
                    if !pupdate.with_tag(0).is_null() {
                        let p_ref = p.as_ref().expect("parent of a leaf is non-null");
                        if set.protect_word(roles::PINFO, &p_ref.update, pupdate).is_err() {
                            continue 'retry;
                        }
                    }
                    if !gp.is_null() && !gpupdate.with_tag(0).is_null() {
                        let gp_ref = gp.as_ref().expect("checked non-null");
                        if set.protect_word(roles::GPINFO, &gp_ref.update, gpupdate).is_err() {
                            continue 'retry;
                        }
                    }
                    return Ok(SearchResult { gp, p, l, pupdate, gpupdate });
                }
                gp = p;
                gpupdate = pupdate;
                p = l;
                pupdate = l_ref.update.load(Ordering::Acquire, guard);
                let go_left = l_ref.key.finite_less(key);
                let child_link = if go_left { &l_ref.left } else { &l_ref.right };
                let next = child_link.load(Ordering::Acquire, guard);
                if next.is_null() {
                    continue 'retry;
                }
                // Shift the protection window down one level *before* announcing the
                // child: the rotation keeps `gp` (role P's old slot) and `p` (role L's
                // old slot) continuously protected — no moment of unprotection, no
                // re-announcement — and hands role L the freed slot for the new child.
                set.rotate([roles::GP, roles::P, roles::L]);
                let Ok(next) =
                    set.protect_loaded_unless(roles::L, child_link, next, &l_ref.update, MARK)
                else {
                    continue 'retry;
                };
                l = next;
            }
        }
    }

    /// Retires the descriptor referenced by a just-replaced update word (hand-off rule):
    /// the caller's CAS replaced the only long-lived reference to this descriptor (see
    /// the module docs), so it is retired by exactly one thread — the CAS winner.
    fn retire_info(&self, guard: &BstGuard<K, V, R, P, A>, old_word: Shared<'_, BstNode<K, V>>) {
        let info = old_word.with_tag(0);
        if !info.is_null() {
            guard.retire(info);
        }
    }

    /// Takes back a decision flag the snapshot did not survive: `word` may belong to a
    /// recycled record (see [`Guard::reads_still_valid`]).  Nobody else writes a flagged
    /// word under a validating scheme (no helping), so the undo restores the exact
    /// previous state, and the briefly reachable descriptor goes to the reclaimer.
    /// `true` if the flag was taken back and the attempt must restart.
    fn undo_stale_flag(
        &self,
        guard: &BstGuard<K, V, R, P, A>,
        word: &Atomic<BstNode<K, V>>,
        flagged: Shared<'_, BstNode<K, V>>,
        previous: Shared<'_, BstNode<K, V>>,
    ) -> bool {
        let undone = !guard.reads_still_valid()
            && word
                .compare_exchange(flagged, previous, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok();
        if undone {
            guard.retire(flagged.with_tag(0));
        }
        undone
    }

    /// Helps the operation described by `word` (if any) to completion.  `holder` is the
    /// node whose `update` field the caller read `word` from; it is used to validate the
    /// descriptor's protection announcement before the descriptor is dereferenced.
    fn help(
        &self,
        guard: &BstGuard<K, V, R, P, A>,
        set: &mut BstShields<'_, K, V, R, P, A>,
        word: Shared<'_, BstNode<K, V>>,
        holder: Shared<'_, BstNode<K, V>>,
    ) -> Result<(), Restart> {
        guard.check()?;
        if word.with_tag(0).is_null() || word.tag() == CLEAN {
            return Ok(());
        }
        if !guard.helping_allowed() {
            // Schemes that validate their accesses (hazard pointers, ThreadScan, IBR)
            // cannot safely help: the completion phase dereferences the helpee's nodes
            // (`d_p`, `d_gp`) through descriptor fields, which the helper has no
            // protection for, which admit no validating read, and which may already be
            // reclaimed — exactly the retired-record traversal the paper says such
            // schemes cannot support (Section 3).  Under those schemes the tree does
            // not help;
            // the caller backs off and retries until the operation's owner completes it.
            // The yield keeps a starved owner schedulable on oversubscribed machines
            // (spinning retriers can otherwise monopolize the cores for whole
            // scheduling quanta).
            std::thread::yield_now();
            return Ok(());
        }
        // Protect the descriptor before dereferencing it: valid as long as the node we
        // read the flagged word from still carries it.  A failed validation means the
        // operation moved on — nothing to help.
        let holder_ref = holder.as_ref().expect("holder is non-null");
        let Ok(_) = set.protect_word(roles::INFO, &holder_ref.update, word) else {
            return Ok(());
        };
        let info = word.with_tag(0);
        // Defensive re-validation: if the descriptor has been recycled under a scheme
        // whose protection is best-effort (see the module docs on the HP restart
        // policy), its fields may no longer describe a live operation; skip helping in
        // that case.
        let info_ref = info.as_ref().expect("flagged update word references a descriptor");
        let stale = match word.tag() {
            IFLAG => {
                info_ref.kind != NodeKind::IInfo
                    || info_ref.d_p.load_ptr(Ordering::Relaxed).is_null()
                    || info_ref.d_l.load_ptr(Ordering::Relaxed).is_null()
            }
            DFLAG | MARK => {
                info_ref.kind != NodeKind::DInfo
                    || info_ref.d_p.load_ptr(Ordering::Relaxed).is_null()
                    || info_ref.d_gp.load_ptr(Ordering::Relaxed).is_null()
                    || info_ref.d_l.load_ptr(Ordering::Relaxed).is_null()
            }
            _ => true,
        };
        if !stale {
            match word.tag() {
                IFLAG => self.help_insert(guard, info),
                DFLAG => {
                    let _ = self.help_delete(guard, info);
                }
                MARK => self.help_marked(guard, info),
                _ => {}
            }
        }
        set.release(roles::INFO);
        Ok(())
    }

    /// EFRB `CAS-Child`: swings the child pointer of `parent` from `old` to `new`.
    fn cas_child(
        &self,
        guard: &BstGuard<K, V, R, P, A>,
        parent: Shared<'_, BstNode<K, V>>,
        old: Shared<'_, BstNode<K, V>>,
        new: Shared<'_, BstNode<K, V>>,
    ) {
        let parent_ref = parent.as_ref().expect("parent is non-null");
        if parent_ref.left.load(Ordering::Acquire, guard) == old {
            let _ = parent_ref.left.compare_exchange(
                old,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
        } else if parent_ref.right.load(Ordering::Acquire, guard) == old {
            let _ = parent_ref.right.compare_exchange(
                old,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
        }
    }

    /// EFRB `HelpInsert`.  The descriptor fields are immutable after publication, so the
    /// relaxed loads are ordered by the acquire that read the flagged update word.
    fn help_insert(&self, guard: &BstGuard<K, V, R, P, A>, op: Shared<'_, BstNode<K, V>>) {
        let op_ref = op.as_ref().expect("descriptor is non-null");
        let d_p = op_ref.d_p.load(Ordering::Relaxed, guard);
        let d_l = op_ref.d_l.load(Ordering::Relaxed, guard);
        let d_new_internal = op_ref.d_new_internal.load(Ordering::Relaxed, guard);
        self.cas_child(guard, d_p, d_l, d_new_internal);
        let p_ref = d_p.as_ref().expect("descriptor parent is non-null");
        let _ = p_ref.update.compare_exchange(
            op.with_tag(IFLAG),
            op.with_tag(CLEAN),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
    }

    /// EFRB `HelpDelete`; returns `true` if the delete operation described by `op`
    /// succeeded (now or earlier).
    fn help_delete(&self, guard: &BstGuard<K, V, R, P, A>, op: Shared<'_, BstNode<K, V>>) -> bool {
        let op_ref = op.as_ref().expect("descriptor is non-null");
        let d_p = op_ref.d_p.load(Ordering::Relaxed, guard);
        let d_pupdate = op_ref.d_pupdate.load(Ordering::Relaxed, guard);
        let p_ref = d_p.as_ref().expect("descriptor parent is non-null");
        let mark_word = op.with_tag(MARK);
        match p_ref.update.compare_exchange(
            d_pupdate,
            mark_word,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(()) => {
                // This thread marked p: it owns the retirement of the descriptor that
                // was previously installed in p's update word.
                self.retire_info(guard, d_pupdate);
                self.help_marked(guard, op);
                true
            }
            Err(current) => {
                if current == mark_word {
                    self.help_marked(guard, op);
                    true
                } else {
                    // The operation failed: back-track the grandparent's flag.
                    let d_gp = op_ref.d_gp.load(Ordering::Relaxed, guard);
                    let gp_ref = d_gp.as_ref().expect("descriptor grandparent is non-null");
                    let _ = gp_ref.update.compare_exchange(
                        op.with_tag(DFLAG),
                        op.with_tag(CLEAN),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    );
                    false
                }
            }
        }
    }

    /// EFRB `HelpMarked`: physically removes the marked parent and unflags the
    /// grandparent.
    fn help_marked(&self, guard: &BstGuard<K, V, R, P, A>, op: Shared<'_, BstNode<K, V>>) {
        let op_ref = op.as_ref().expect("descriptor is non-null");
        let d_p = op_ref.d_p.load(Ordering::Relaxed, guard);
        let d_l = op_ref.d_l.load(Ordering::Relaxed, guard);
        let d_gp = op_ref.d_gp.load(Ordering::Relaxed, guard);
        let p_ref = d_p.as_ref().expect("descriptor parent is non-null");
        let left = p_ref.left.load(Ordering::Acquire, guard);
        let sibling = if left == d_l { p_ref.right.load(Ordering::Acquire, guard) } else { left };
        self.cas_child(guard, d_gp, d_p, sibling);
        let gp_ref = d_gp.as_ref().expect("descriptor grandparent is non-null");
        let _ = gp_ref.update.compare_exchange(
            op.with_tag(DFLAG),
            op.with_tag(CLEAN),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
    }

    fn insert_body(
        &self,
        guard: &BstGuard<K, V, R, P, A>,
        key: &K,
        value: &V,
    ) -> Result<bool, Restart> {
        let mut set = guard.shield_set::<6>();
        loop {
            let s = self.search(guard, &mut set, key)?;
            let l_ref = s.l.as_ref().expect("leaf is non-null");
            if l_ref.key.is_finite(key) {
                return Ok(false);
            }
            if s.pupdate.tag() != CLEAN {
                self.help(guard, &mut set, s.pupdate, s.p)?;
                continue;
            }

            // Build the new leaf and the new routing node (both private until the
            // decision CAS publishes the descriptor that references them).
            let new_leaf =
                guard.alloc(BstNode::leaf(BstKey::Finite(key.clone()), Some(value.clone())));
            let new_key = BstKey::Finite(key.clone());
            let (left, right, routing_key) = if new_key < l_ref.key {
                (new_leaf.shared(), s.l, l_ref.key.clone())
            } else {
                (s.l, new_leaf.shared(), new_key)
            };
            let new_internal = guard.alloc(BstNode::internal(routing_key, left, right));
            let op = guard.alloc(BstNode::iinfo(s.p, s.l, new_internal.shared()));

            // DEBRA+: protect everything the completion phase will touch, then decide.
            // The scope's drop releases the restricted protections on every exit from
            // this attempt (success, failed CAS, or Restart unwind); other schemes skip
            // the scope entirely (constant after monomorphization).
            let recovery = guard.supports_crash_recovery().then(|| guard.recovery());
            if let Some(recovery) = &recovery {
                recovery.protect(s.p);
                recovery.protect(s.l);
                recovery.protect(new_internal.shared());
                recovery.protect(op.shared());
            }
            if let Err(restart) = guard.check() {
                // Nothing published yet: recycle the fresh records and unwind to
                // recovery.
                guard.discard(op);
                guard.discard(new_internal);
                guard.discard(new_leaf);
                return Err(restart);
            }

            let p_ref = s.p.as_ref().expect("parent is non-null");
            match p_ref.update.compare_exchange_owned_tagged(
                s.pupdate,
                op,
                IFLAG,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(op) => {
                    if self.undo_stale_flag(guard, &p_ref.update, op, s.pupdate) {
                        // Never linked: the leaf and routing node are recycled.
                        guard.discard(new_internal);
                        guard.discard(new_leaf);
                        return Err(Restart);
                    }
                    // Decision CAS won: the descriptor — and, through it, the new leaf
                    // and routing node — now belong to the structure (the `Owned`s are
                    // consumed/forgotten, never freed here).  Hand off the previous
                    // descriptor, complete, done.
                    let (_, _) = (new_leaf, new_internal);
                    self.retire_info(guard, s.pupdate);
                    self.help_insert(guard, op.with_tag(0));
                    return Ok(true);
                }
                Err(op) => {
                    // Never made reachable (the decision CAS failed): recycle all three.
                    guard.discard(op);
                    guard.discard(new_internal);
                    guard.discard(new_leaf);
                    drop(recovery);
                    let actual = p_ref.update.load(Ordering::Acquire, guard);
                    self.help(guard, &mut set, actual, s.p)?;
                    continue;
                }
            }
        }
    }

    fn remove_body(&self, guard: &BstGuard<K, V, R, P, A>, key: &K) -> Result<bool, Restart> {
        let mut set = guard.shield_set::<6>();
        loop {
            let s = self.search(guard, &mut set, key)?;
            let l_ref = s.l.as_ref().expect("leaf is non-null");
            if !l_ref.key.is_finite(key) {
                return Ok(false);
            }
            if s.gpupdate.tag() != CLEAN {
                self.help(guard, &mut set, s.gpupdate, s.gp)?;
                continue;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(guard, &mut set, s.pupdate, s.p)?;
                continue;
            }

            let op = guard.alloc(BstNode::dinfo(s.gp, s.p, s.l, s.pupdate));

            let recovery = guard.supports_crash_recovery().then(|| guard.recovery());
            if let Some(recovery) = &recovery {
                recovery.protect(s.gp);
                recovery.protect(s.p);
                recovery.protect(s.l);
                recovery.protect(op.shared());
            }
            if let Err(restart) = guard.check() {
                // Never made reachable.
                guard.discard(op);
                return Err(restart);
            }

            let gp_ref = s.gp.as_ref().expect("grandparent is non-null");
            match gp_ref.update.compare_exchange_owned_tagged(
                s.gpupdate,
                op,
                DFLAG,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(op) => {
                    if self.undo_stale_flag(guard, &gp_ref.update, op, s.gpupdate) {
                        return Err(Restart);
                    }
                    self.retire_info(guard, s.gpupdate);
                    if self.help_delete(guard, op.with_tag(0)) {
                        // This thread's operation removed the parent routing node and
                        // the victim leaf: it owns their retirement (exactly once) —
                        // both were unlinked by the delete this thread owns and can no
                        // longer be reached by operations that start later.
                        guard.retire(s.p);
                        guard.retire(s.l);
                        return Ok(true);
                    }
                    continue;
                }
                Err(op) => {
                    // Never made reachable (the decision CAS failed).
                    guard.discard(op);
                    drop(recovery);
                    let actual = gp_ref.update.load(Ordering::Acquire, guard);
                    self.help(guard, &mut set, actual, s.gp)?;
                    continue;
                }
            }
        }
    }

    fn get_body(&self, guard: &BstGuard<K, V, R, P, A>, key: &K) -> Result<Option<V>, Restart> {
        let mut set = guard.shield_set::<6>();
        let s = self.search(guard, &mut set, key)?;
        let l_ref = s.l.as_ref().expect("leaf is non-null");
        if l_ref.key.is_finite(key) {
            Ok(l_ref.value.clone())
        } else {
            Ok(None)
        }
    }

    /// Number of keys currently in the tree; test/diagnostic helper (walks the tree).
    ///
    /// Like the other structures' `len`, the traversal announces no per-node protection,
    /// which only epoch-style schemes honor; call it only when no other thread is
    /// updating the tree.
    pub fn len(&self, handle: &mut BstHandle<K, V, R, P, A>) -> usize {
        handle.run(|guard| {
            let mut count = 0;
            let mut stack = vec![self.root.load(Ordering::Acquire, guard)];
            while let Some(n) = stack.pop() {
                let Some(r) = n.as_ref() else { continue };
                match r.kind {
                    NodeKind::Internal => {
                        stack.push(r.left.load(Ordering::Acquire, guard));
                        stack.push(r.right.load(Ordering::Acquire, guard));
                    }
                    NodeKind::Leaf => {
                        if matches!(r.key, BstKey::Finite(_)) {
                            count += 1;
                        }
                    }
                    _ => {}
                }
            }
            Ok(count)
        })
    }

    /// Returns `true` if the tree holds no keys (diagnostic helper).
    pub fn is_empty(&self, handle: &mut BstHandle<K, V, R, P, A>) -> bool {
        self.len(handle) == 0
    }
}

impl<K, V, R, P, A> ConcurrentMap<K, V> for ExternalBst<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<BstNode<K, V>>,
    P: Pool<BstNode<K, V>>,
    A: Allocator<BstNode<K, V>>,
{
    type Handle = BstHandle<K, V, R, P, A>;

    fn register(&self) -> Result<Self::Handle, RegistrationError> {
        self.domain.try_handle()
    }

    fn insert(&self, handle: &mut Self::Handle, key: K, value: V) -> bool {
        handle.run(|guard| self.insert_body(guard, &key, &value))
    }

    fn remove(&self, handle: &mut Self::Handle, key: &K) -> bool {
        handle.run(|guard| self.remove_body(guard, key))
    }

    fn contains(&self, handle: &mut Self::Handle, key: &K) -> bool {
        handle.run(|guard| self.get_body(guard, key)).is_some()
    }

    fn get(&self, handle: &mut Self::Handle, key: &K) -> Option<V> {
        handle.run(|guard| self.get_body(guard, key))
    }
}

impl<K, V, R, P, A> Drop for ExternalBst<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<BstNode<K, V>>,
    P: Pool<BstNode<K, V>>,
    A: Allocator<BstNode<K, V>>,
{
    fn drop(&mut self) {
        // Free every record reachable from the root, plus the descriptors still
        // referenced by reachable update words.  `free_graph` deduplicates by address (a
        // delete descriptor can be referenced by two nodes).  Records parked in limbo
        // bags / pools are freed separately by the Record Manager; the two sets are
        // disjoint because a descriptor is only retired when the word referencing it is
        // overwritten.
        self.domain.free_graph(self.root.load_ptr(Ordering::Relaxed), |record, children| {
            if record.kind == NodeKind::Internal {
                children.push(record.left.load_ptr(Ordering::Relaxed));
                children.push(record.right.load_ptr(Ordering::Relaxed));
                // `load_ptr` strips the state tag, leaving the descriptor pointer.
                children.push(record.update.load_ptr(Ordering::Relaxed));
            }
        });
    }
}

impl<K, V, R, P, A> fmt::Debug for ExternalBst<K, V, R, P, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaimer<BstNode<K, V>>,
    P: Pool<BstNode<K, V>>,
    A: Allocator<BstNode<K, V>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExternalBst").field("reclaimer", &R::name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::{Debra, DebraPlus};
    use smr_alloc::{SystemAllocator, ThreadPool};
    use smr_baselines::HazardPointers;

    type Node = BstNode<u64, u64>;
    type DebraBst = ExternalBst<u64, u64, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    type DebraPlusBst =
        ExternalBst<u64, u64, DebraPlus<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
    type HpBst =
        ExternalBst<u64, u64, HazardPointers<Node>, ThreadPool<Node>, SystemAllocator<Node>>;

    fn new_debra_bst(threads: usize) -> DebraBst {
        ExternalBst::new(Arc::new(RecordManager::new(threads)))
    }

    #[test]
    fn sequential_set_semantics() {
        let bst = new_debra_bst(1);
        let mut h = bst.register().unwrap();
        assert!(bst.is_empty(&mut h));
        assert!(bst.insert(&mut h, 10, 100));
        assert!(!bst.insert(&mut h, 10, 101));
        assert!(bst.insert(&mut h, 5, 50));
        assert!(bst.insert(&mut h, 20, 200));
        assert_eq!(bst.get(&mut h, &10), Some(100));
        assert_eq!(bst.get(&mut h, &5), Some(50));
        assert_eq!(bst.get(&mut h, &7), None);
        assert_eq!(bst.len(&mut h), 3);
        assert!(bst.remove(&mut h, &10));
        assert!(!bst.remove(&mut h, &10));
        assert!(!bst.contains(&mut h, &10));
        assert_eq!(bst.len(&mut h), 2);
        assert!(bst.remove(&mut h, &5));
        assert!(bst.remove(&mut h, &20));
        assert!(bst.is_empty(&mut h));
    }

    #[test]
    fn matches_a_sequential_model() {
        use std::collections::BTreeMap;
        let bst = new_debra_bst(1);
        let mut h = bst.register().unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..6000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 128;
            match (x >> 61) % 3 {
                0 => assert_eq!(bst.insert(&mut h, key, key), model.insert(key, key).is_none()),
                1 => assert_eq!(bst.remove(&mut h, &key), model.remove(&key).is_some()),
                _ => assert_eq!(bst.contains(&mut h, &key), model.contains_key(&key)),
            }
        }
        assert_eq!(bst.len(&mut h), model.len());
        for k in model.keys() {
            assert!(bst.contains(&mut h, k));
        }
    }

    #[test]
    fn concurrent_disjoint_key_ranges() {
        let threads = 4;
        let per_thread = 2_000u64;
        let bst = Arc::new(new_debra_bst(threads + 1));
        let mut joins = Vec::new();
        for t in 0..threads as u64 {
            let bst = Arc::clone(&bst);
            joins.push(std::thread::spawn(move || {
                let mut h = bst.register().unwrap();
                let base = t * per_thread;
                for i in 0..per_thread {
                    assert!(bst.insert(&mut h, base + i, i));
                }
                for i in 0..per_thread {
                    assert!(bst.contains(&mut h, &(base + i)));
                }
                for i in (0..per_thread).step_by(2) {
                    assert!(bst.remove(&mut h, &(base + i)));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = bst.register().unwrap();
        assert_eq!(bst.len(&mut h), (threads as u64 * per_thread / 2) as usize);
    }

    #[test]
    fn concurrent_contended_small_keyrange_with_reclamation() {
        // High contention on a small key range forces constant node turnover, exercising
        // helping, descriptor hand-off and reclamation through the pool.
        let threads = 4;
        let bst = Arc::new(new_debra_bst(threads + 1));
        let mut joins = Vec::new();
        for t in 0..threads {
            let bst = Arc::clone(&bst);
            joins.push(std::thread::spawn(move || {
                let mut h = bst.register().unwrap();
                let mut net: i64 = 0;
                let mut x: u64 = 0xABCD_0123 + t as u64;
                for _ in 0..10_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = (x >> 33) % 16;
                    if (x >> 62) & 1 == 0 {
                        if bst.insert(&mut h, k, k) {
                            net += 1;
                        }
                    } else if bst.remove(&mut h, &k) {
                        net -= 1;
                    }
                }
                net
            }));
        }
        let net: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = bst.register().unwrap();
        assert_eq!(bst.len(&mut h) as i64, net);
        let stats = bst.manager().reclaimer().stats();
        assert!(stats.retired > 0, "deletes must retire nodes");
        assert!(stats.reclaimed > 0, "DEBRA must reclaim nodes during the run");
    }

    #[test]
    fn works_with_debra_plus_and_neutralization() {
        let threads = 3;
        let bst: Arc<DebraPlusBst> =
            Arc::new(ExternalBst::new(Arc::new(RecordManager::new(threads + 1))));

        let mut joins = Vec::new();
        for t in 0..threads {
            let bst = Arc::clone(&bst);
            joins.push(std::thread::spawn(move || {
                let mut h = bst.register().unwrap();
                let mut x: u64 = 7 + t as u64;
                for i in 0..8_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = (x >> 33) % 64;
                    match i % 3 {
                        0 => {
                            bst.insert(&mut h, k, k);
                        }
                        1 => {
                            bst.remove(&mut h, &k);
                        }
                        _ => {
                            bst.contains(&mut h, &k);
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = bst.manager().reclaimer().stats();
        assert!(stats.retired > 0);
        assert!(stats.reclaimed > 0);
    }

    #[test]
    fn works_with_hazard_pointers() {
        let threads = 3;
        let bst: Arc<HpBst> = Arc::new(ExternalBst::new(Arc::new(RecordManager::new(threads + 1))));
        let mut joins = Vec::new();
        for t in 0..threads {
            let bst = Arc::clone(&bst);
            joins.push(std::thread::spawn(move || {
                let mut h = bst.register().unwrap();
                let base = (t as u64) * 1000;
                for i in 0..1000u64 {
                    assert!(bst.insert(&mut h, base + i, i));
                }
                for i in 0..1000u64 {
                    assert!(bst.contains(&mut h, &(base + i)));
                }
                for i in 0..1000u64 {
                    assert!(bst.remove(&mut h, &(base + i)));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = bst.register().unwrap();
        assert!(bst.is_empty(&mut h));
        assert!(bst.manager().reclaimer().stats().reclaimed > 0);
    }
}
