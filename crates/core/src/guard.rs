//! The safe guard layer: [`Domain`], [`DomainHandle`], [`Guard`] and [`Shield`].
//!
//! The Record Manager ([`RecordManager`]/[`RecordManagerThread`]) reproduces the paper's
//! Section 6 interface faithfully — and, like the original C++, it is a raw interface:
//! callers pick `tid` slots by hand, juggle bare `NonNull<T>`, must pair
//! `protect`/`unprotect` themselves and must remember to re-check neutralization at every
//! checkpoint.  This module encodes that contract in the type system so data structures
//! can be written without `unsafe`:
//!
//! * [`Domain`] owns the Record Manager and **leases per-thread handles automatically**:
//!   the first use on a thread registers the lowest free `tid` slot, and the slot is
//!   recycled when the thread's last [`DomainHandle`]/[`Guard`] is dropped (or the thread
//!   exits) — no manual `tid` bookkeeping, and no "already registered" dead ends.
//! * [`Guard`] is the RAII witness of one data structure operation: [`Domain::pin`] /
//!   [`DomainHandle::pin`] call `leave_qstate`, dropping the guard calls `enter_qstate`,
//!   and every fallible step surfaces DEBRA+ neutralization as the typed [`Restart`]
//!   error instead of a caller-side flag check.
//! * [`Shield`] is a leased per-thread protection slot.  [`Shield::protect`] wraps the
//!   validated announce-then-revalidate loop required by HP / ThreadScan / IBR in one
//!   place (a no-op compiled to nothing under epoch schemes) and returns a
//!   [`Shared<'g, T>`](Shared) whose lifetime ties every dereference to the live
//!   guard.
//!
//! # The protection discipline, in types
//!
//! A [`Shared`] obtained from `Shield::protect` is safe to dereference
//! under **every** scheme for as long as (a) the guard is alive — the `'g` lifetime
//! enforces this — and (b) the shield has not been re-pointed at another record and the
//! protected record has not been unlinked — which is the structure's algorithmic
//! invariant (e.g. Michael's "validate the link you followed"), localized here instead of
//! re-audited in every data structure.  A `Shared` obtained from a bare
//! [`Atomic::load`] is safe under epoch-style schemes (the guard
//! itself pins the records); protection-based schemes additionally require the
//! `protect` validation, which is why traversal code goes through shields.
//!
//! # Reentrancy
//!
//! Guards are cheap and reentrant: pinning while already pinned on the same thread just
//! increments a depth counter.  The one contract (checked in debug builds) is that `Drop`
//! implementations of keys/values must not call back into the same domain — the guard
//! layer hands the per-thread Record Manager handle out from an `UnsafeCell`, and
//! re-entering mid-allocation would alias it.
//!
//! ```compile_fail
//! use debra::{Debra, Domain};
//! use smr_alloc::{SystemAllocator, ThreadPool};
//!
//! type D = Domain<u64, Debra<u64>, ThreadPool<u64>, SystemAllocator<u64>>;
//! let domain: D = Domain::new(1);
//! let guard = domain.pin();
//! let shield = guard.shield();
//! drop(guard); // ERROR: `guard` is still borrowed by `shield`
//! let _ = &shield;
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neutralize::Neutralized;

use crate::atomic::{private::Sealed, Atomic, Owned, Pinned, Shared};
use crate::record_manager::{RecordManager, RecordManagerThread};
use crate::traits::{
    Allocator, AllocatorThread, Pool, ReadProtection, Reclaimer, ReclaimerThread, RegistrationError,
};

/// Typed "start this operation over" error.
///
/// Returned by the fallible guard operations when the thread has been neutralized
/// (DEBRA+) or a protection could not be validated (HP / ThreadScan / IBR: the link
/// changed between the announce and the re-read, so the target may already be retired).
/// Propagate it out of the operation body; [`Domain::run`] / [`DomainHandle::run`]
/// perform the recovery protocol and restart the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart;

impl fmt::Display for Restart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation must restart (neutralized or protection invalidated)")
    }
}

impl std::error::Error for Restart {}

impl From<Neutralized> for Restart {
    fn from(_: Neutralized) -> Self {
        Restart
    }
}

/// Source of unique [`Domain`] identities (the key of the per-thread lease registry).
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread lease registry: domain id -> `Rc<Lease<...>>` (type-erased).  One lease
    /// — one Record Manager `tid` slot — per (thread, domain) pair.
    static LEASES: RefCell<HashMap<u64, Rc<dyn Any>>> = RefCell::new(HashMap::new());
}

/// The per-(thread, domain) state behind [`DomainHandle`] and [`Guard`]: the leased
/// Record Manager thread handle plus the pin depth and shield slot bookkeeping.
struct Lease<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    handle: UnsafeCell<RecordManagerThread<T, R, P, A>>,
    /// Nesting depth of live pins; `leave_qstate` on 0 -> 1, `enter_qstate` on 1 -> 0.
    pin_depth: Cell<usize>,
    /// Bitmap of shield slots currently leased to live [`Shield`]s / [`ShieldSet`]s.
    shield_slots: Cell<u32>,
    /// `true` while a [`Recovery`] scope is alive on this thread (they must not nest:
    /// dropping an inner scope would release the outer scope's restricted hazard
    /// pointers too, since `RUnprotectAll` is all-or-nothing).
    recovery_active: Cell<bool>,
    /// Debug-only reentrancy detector for the `UnsafeCell` handle access.
    #[cfg(debug_assertions)]
    borrowed: Cell<bool>,
}

impl<T, R, P, A> Lease<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Runs `f` with exclusive access to the leased handle.
    ///
    /// Soundness: the lease is thread-local (behind `Rc`), so no other thread can reach
    /// the handle; `f` is internal guard-layer code that never calls back into user code
    /// while the borrow is live, except where documented (value `Drop` during pool
    /// recycling) — which the debug-only flag turns into a loud failure instead of UB.
    #[inline]
    fn with_handle<Out>(&self, f: impl FnOnce(&mut RecordManagerThread<T, R, P, A>) -> Out) -> Out {
        #[cfg(debug_assertions)]
        let _reentry = {
            assert!(
                !self.borrowed.replace(true),
                "reentrant Domain access (a Drop impl of a key/value called back into the domain?)"
            );
            ReentryReset(&self.borrowed)
        };
        // SAFETY: see above.
        f(unsafe { &mut *self.handle.get() })
    }
}

#[cfg(debug_assertions)]
struct ReentryReset<'a>(&'a Cell<bool>);

#[cfg(debug_assertions)]
impl Drop for ReentryReset<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// An `Rc<Lease>` wrapper shared by [`DomainHandle`] and [`Guard`] that prunes the
/// thread-local registry entry when the *last user-held* reference drops, so the Record
/// Manager `tid` slot is recycled promptly (not only at thread exit).
struct LeaseRef<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    lease: ManuallyDrop<Rc<Lease<T, R, P, A>>>,
    domain_id: u64,
}

impl<T, R, P, A> LeaseRef<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    #[inline]
    fn lease(&self) -> &Lease<T, R, P, A> {
        &self.lease
    }

    fn clone_ref(&self) -> Self {
        LeaseRef { lease: self.lease.clone(), domain_id: self.domain_id }
    }
}

impl<T, R, P, A> Drop for LeaseRef<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        // SAFETY: `lease` is taken exactly once, here; no other code path drops it.
        let lease = unsafe { ManuallyDrop::take(&mut self.lease) };
        // 2 == the registry's Rc plus ours: we are the last user-held reference, so the
        // registry entry can go, deregistering the slot.  `try_with`/`try_borrow_mut`
        // because this can run during thread teardown (registry already gone) or — in
        // perverse cases — while the registry is borrowed; the entry then simply stays
        // until thread exit, which is still correct.
        if Rc::strong_count(&lease) == 2 {
            let id = self.domain_id;
            let _ = LEASES.try_with(|map| {
                if let Ok(mut map) = map.try_borrow_mut() {
                    map.remove(&id);
                }
            });
        }
    }
}

/// A reclamation domain: the safe owner of a [`RecordManager`].
///
/// A `Domain` is what a data structure stores instead of a bare
/// `Arc<RecordManager<...>>`.  It adds automatic per-thread slot leasing — any thread may
/// call [`pin`](Domain::pin) (or take a [`handle`](Domain::handle)) at any time, and slot
/// `tid` bookkeeping happens behind the scenes with recycling — plus the guard-based
/// operation protocol.  Cloning a `Domain` is cheap and yields a handle to the *same*
/// domain (same slots, same records).
///
/// The reclamation scheme is still a compile-time choice: swapping `R` (or `P`, `A`)
/// remains the one-line change that is the paper's headline claim, and every guard-layer
/// call monomorphizes down to the scheme-specific code with no dynamic dispatch.
pub struct Domain<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    manager: Arc<RecordManager<T, R, P, A>>,
    id: u64,
}

impl<T, R, P, A> Domain<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Creates a domain for up to `max_threads` concurrently active threads, constructing
    /// the Record Manager components with their default configurations.
    pub fn new(max_threads: usize) -> Self {
        Self::with_manager(Arc::new(RecordManager::new(max_threads)))
    }

    /// Wraps an already-composed Record Manager in a domain.
    pub fn with_manager(manager: Arc<RecordManager<T, R, P, A>>) -> Self {
        Domain { manager, id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed) }
    }

    /// The underlying Record Manager (for statistics and teardown).
    pub fn manager(&self) -> &Arc<RecordManager<T, R, P, A>> {
        &self.manager
    }

    /// Maximum number of threads that can hold leases concurrently.
    pub fn max_threads(&self) -> usize {
        self.manager.max_threads()
    }

    /// Returns (creating if necessary) the calling thread's lease for this domain.
    fn lease(&self) -> Result<LeaseRef<T, R, P, A>, RegistrationError> {
        LEASES.with(|map| {
            let mut map = map.borrow_mut();
            if let Some(entry) = map.get(&self.id) {
                let lease = Rc::clone(entry)
                    .downcast::<Lease<T, R, P, A>>()
                    .expect("lease registry entry has the domain's type");
                return Ok(LeaseRef { lease: ManuallyDrop::new(lease), domain_id: self.id });
            }
            // First use on this thread: lease the lowest free slot.  Slots freed by
            // dropped handles (or exited threads) are reused — see `LeaseRef::drop` and
            // the reclaimers' handle `Drop` impls.
            let handle = self.manager.register_auto()?;
            let lease = Rc::new(Lease {
                handle: UnsafeCell::new(handle),
                pin_depth: Cell::new(0),
                shield_slots: Cell::new(0),
                recovery_active: Cell::new(false),
                #[cfg(debug_assertions)]
                borrowed: Cell::new(false),
            });
            map.insert(self.id, Rc::clone(&lease) as Rc<dyn Any>);
            Ok(LeaseRef { lease: ManuallyDrop::new(lease), domain_id: self.id })
        })
    }

    /// Leases a per-thread handle, registering the calling thread on first use.
    ///
    /// Hold the handle for the duration of a thread's involvement with the structure:
    /// pinning through a handle is a few nanoseconds, while a bare [`Domain::pin`] after
    /// the thread's last handle/guard was dropped has to re-register a slot.  Under
    /// classic EBR, though, a registered handle that sits idle holds back reclamation for
    /// every thread (the thread's announcement stays in place until it pins again or
    /// drops its last handle), so drop a handle a thread will not use for a while.
    ///
    /// # Errors
    ///
    /// Fails with [`RegistrationError::Exhausted`] when `max_threads` other threads
    /// currently hold leases.
    pub fn try_handle(&self) -> Result<DomainHandle<T, R, P, A>, RegistrationError> {
        Ok(DomainHandle { lease: self.lease()? })
    }

    /// Leases a per-thread handle; panics when the domain's thread capacity is exhausted.
    /// See [`Domain::try_handle`], including why an idle handle stalls classic EBR.
    pub fn handle(&self) -> DomainHandle<T, R, P, A> {
        self.try_handle().expect("domain thread capacity exhausted")
    }

    /// Pins the current thread: announces the start of a data structure operation and
    /// returns the guard that ends it when dropped.
    ///
    /// Panics when the domain's thread capacity is exhausted (use [`Domain::try_handle`]
    /// to detect that case).
    pub fn pin(&self) -> Guard<T, R, P, A> {
        Guard::enter(self.lease().expect("domain thread capacity exhausted"))
    }

    /// Runs one whole data structure operation: pins, calls `body`, and — if the body
    /// asks for a [`Restart`] — performs the DEBRA+ recovery protocol (release restricted
    /// hazard pointers, acknowledge the neutralization) and retries until the body
    /// completes.
    pub fn run<Out>(
        &self,
        mut body: impl FnMut(&Guard<T, R, P, A>) -> Result<Out, Restart>,
    ) -> Out {
        let handle = self.handle();
        handle.run(&mut body)
    }

    /// Frees every record in the chain starting at `root`, following `next_of`.
    ///
    /// Teardown helper for `Drop` implementations: walks `root`, `next_of(root)`, … until
    /// null, returning each record's memory to the allocator.  Tag bits must already be
    /// stripped (as [`Atomic::load_ptr`] does).
    ///
    /// # Contract (not checked by the type system)
    ///
    /// Teardown only: the caller must have exclusive access to every record in the chain
    /// (no concurrent operation can reach them — in practice, the structure is being
    /// dropped, which `&mut self` of the `Drop` impl witnesses), each record must have
    /// been allocated through this domain's Record Manager family, and the chain must
    /// not alias records freed elsewhere.  Violations are use-after-free/double-free
    /// bugs; see [`Guard::retire`] for the discussion of the safe layer's documented
    /// holes.
    pub fn free_reachable(&self, root: *mut T, next_of: impl Fn(&T) -> *mut T) {
        let mut alloc = self.manager.teardown_allocator();
        let mut cursor = root;
        while let Some(record) = NonNull::new(cursor) {
            #[cfg(feature = "smr_sanitize")]
            smr_check::shadow::on_teardown_free(record.as_ptr() as usize);
            // SAFETY: exclusive access per the documented teardown contract; each record
            // is freed exactly once (a chain visits every node once).
            unsafe {
                cursor = next_of(record.as_ref());
                alloc.deallocate(record);
            }
        }
    }

    /// Frees every record reachable from `root` through `children_of`, deduplicating by
    /// address — the graph-shaped sibling of [`free_reachable`](Self::free_reachable)
    /// for structures whose records can be referenced more than once (the external BST's
    /// delete descriptors are referenced by up to two internal nodes).
    ///
    /// `children_of` receives each visited record and pushes the records it references
    /// into the provided stack; null pointers and already-visited records are skipped.
    ///
    /// # Contract (not checked by the type system)
    ///
    /// As for [`free_reachable`](Self::free_reachable): teardown only, exclusive access
    /// to every reachable record, all records allocated through this domain's family.
    pub fn free_graph(&self, root: *mut T, mut children_of: impl FnMut(&T, &mut Vec<*mut T>)) {
        let mut alloc = self.manager.teardown_allocator();
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut children = Vec::new();
        while let Some(cursor) = stack.pop() {
            let Some(record) = NonNull::new(cursor) else { continue };
            if !visited.insert(cursor as usize) {
                continue;
            }
            #[cfg(feature = "smr_sanitize")]
            smr_check::shadow::on_teardown_free(record.as_ptr() as usize);
            // SAFETY: exclusive access per the documented teardown contract; the visited
            // set guarantees each record is read and freed exactly once, and children are
            // collected *before* the record's memory is returned.
            unsafe {
                children_of(record.as_ref(), &mut children);
                stack.append(&mut children);
                alloc.deallocate(record);
            }
        }
    }
}

impl<T, R, P, A> Clone for Domain<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn clone(&self) -> Self {
        Domain { manager: Arc::clone(&self.manager), id: self.id }
    }
}

impl<T, R, P, A> fmt::Debug for Domain<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain").field("id", &self.id).field("manager", &self.manager).finish()
    }
}

/// A thread's lease on a [`Domain`]: the cheap, reusable source of [`Guard`]s.
///
/// Obtained with [`Domain::handle`] on the thread that will use it; not sendable to other
/// threads.  Dropping a thread's last handle (with no live guards) releases the leased
/// Record Manager slot for reuse by other threads.
#[must_use = "a DomainHandle holds this thread's slot lease; drop it to release the slot"]
pub struct DomainHandle<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    lease: LeaseRef<T, R, P, A>,
}

impl<T, R, P, A> DomainHandle<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Pins the current thread through this handle (no registry lookup).
    #[inline]
    pub fn pin(&self) -> Guard<T, R, P, A> {
        Guard::enter(self.lease.clone_ref())
    }

    /// Runs one whole operation with restart-on-[`Restart`] recovery; see
    /// [`Domain::run`].
    pub fn run<Out>(
        &self,
        mut body: impl FnMut(&Guard<T, R, P, A>) -> Result<Out, Restart>,
    ) -> Out {
        loop {
            let guard = self.pin();
            match body(&guard) {
                Ok(out) => return out,
                Err(Restart) => guard.recover(),
            }
        }
    }

    /// The Record Manager thread slot this handle leases (diagnostics).
    pub fn tid(&self) -> usize {
        self.lease.lease().with_handle(|h| h.tid())
    }

    /// Opens a [`Recovery`] scope on this thread (see [`Recovery`]).  Opened from the
    /// handle — rather than from a guard — when the restricted protections must survive
    /// neutralization-induced restarts of the operation body, i.e. span several guards
    /// (the skip list's resumable insert completion).
    pub fn recovery(&self) -> Recovery<T, R, P, A> {
        Recovery::open(self.lease.clone_ref())
    }

    /// `true` if the chosen reclaimer supports crash recovery / neutralization (DEBRA+);
    /// constant after monomorphization.  Structures use it to skip opening [`Recovery`]
    /// scopes entirely under schemes where they would be pure bookkeeping.
    #[inline]
    pub fn supports_crash_recovery(&self) -> bool {
        <R::Thread as ReclaimerThread<T>>::SUPPORTS_CRASH_RECOVERY
    }
}

impl<T, R, P, A> fmt::Debug for DomainHandle<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainHandle").field("tid", &self.tid()).finish()
    }
}

/// The RAII witness of one data structure operation (the paper's
/// `leaveQstate`/`enterQstate` bracket, plus neutralization checkpoints as typed errors).
///
/// Created by [`Domain::pin`] or [`DomainHandle::pin`]; ends the operation when dropped.
/// Guards are reentrant: pinning while pinned is just a depth increment, and the
/// operation ends when the outermost guard drops.
#[must_use = "the operation lasts exactly as long as the Guard; dropping it immediately ends the operation"]
pub struct Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    lease: LeaseRef<T, R, P, A>,
    /// Cached pointer to the lease's handle cell: the protect hot path runs once per
    /// traversal step, and resolving it through `LeaseRef -> Rc -> Lease` each time
    /// costs pointer chases the raw protocol never paid.  Valid for the guard's
    /// lifetime because the guard's `lease` keeps the `Lease` alive.
    handle: NonNull<RecordManagerThread<T, R, P, A>>,
}

impl<T, R, P, A> Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    #[inline]
    fn enter(lease: LeaseRef<T, R, P, A>) -> Self {
        let handle = {
            let l = lease.lease();
            let depth = l.pin_depth.get();
            if depth == 0 {
                let _ = l.with_handle(|h| h.leave_qstate());
            }
            l.pin_depth.set(depth + 1);
            // SAFETY: the cell pointer is non-null; see the field docs for validity.
            unsafe { NonNull::new_unchecked(l.handle.get()) }
        };
        Guard { lease, handle }
    }

    #[inline]
    fn lease(&self) -> &Lease<T, R, P, A> {
        self.lease.lease()
    }

    /// Checkpoint: fails with [`Restart`] if this thread has been neutralized (DEBRA+)
    /// or its snapshot has gone stale (VBR).  A no-op that always succeeds under every
    /// other scheme (compiled out).
    #[inline]
    pub fn check(&self) -> Result<(), Restart> {
        // SAFETY: shared read access to the thread-local handle; no `&mut` outstanding
        // (guard methods never hold one across user code).
        let handle = unsafe { self.handle.as_ref() };
        handle.check().map_err(Restart::from)
    }

    /// `false` if a CAS this operation has just won may have landed on a recycled record.
    ///
    /// A validating scheme (VBR) vouches for the operation's reads only while its
    /// snapshot is fresh, and a checkpoint just before a CAS leaves a window: a thread
    /// preempted between the two can resume after the record it read was retired,
    /// recycled and re-initialized to the expected word.  Asked right *after* a decision
    /// CAS, `true` proves the CAS landed on the record the operation read (recycling
    /// takes two clock ticks, and the snapshot saw fewer).  Always `true` under every
    /// other scheme — their protection covers the whole operation; constant after
    /// monomorphization.
    #[inline]
    pub fn reads_still_valid(&self) -> bool {
        !matches!(<R::Thread as ReclaimerThread<T>>::READ_PROTECTION, ReadProtection::Validate)
            || self.check().is_ok()
    }

    /// Leases a protection slot as a [`Shield`].
    ///
    /// Panics if more than 32 shields are alive at once on this thread (protection-based
    /// schemes offer far fewer slots; the list/hash map traversals use two).
    #[inline]
    pub fn shield(&self) -> Shield<'_, T, R, P, A> {
        Shield { guard: self, slot: self.claim_slot() }
    }

    /// Leases `N` protection slots at once as a [`ShieldSet`] — the multi-role
    /// generalization of a pair of shields, for traversals whose protection window spans
    /// more than two records (the BST's grandparent/parent/leaf window plus its
    /// descriptor slots; the skip list's per-level predecessor/current pair).
    ///
    /// Panics if the total number of live shield slots on this thread would exceed 32
    /// (protection-based schemes offer far fewer; the BST uses a set of six).
    #[inline]
    pub fn shield_set<const N: usize>(&self) -> ShieldSet<'_, N, T, R, P, A> {
        // Capacity is checked up front: a panic mid-claim would leak the slots already
        // claimed (the set is never constructed, so its Drop never releases them).
        let taken = self.lease().shield_slots.get().count_ones() as usize;
        assert!(taken + N <= 32, "too many live Shields on this thread");
        ShieldSet { guard: self, slots: std::array::from_fn(|_| self.claim_slot()) }
    }

    #[inline]
    fn claim_slot(&self) -> usize {
        let slots = self.lease().shield_slots.get();
        let slot = slots.trailing_ones() as usize;
        assert!(slot < 32, "too many live Shields on this thread");
        self.lease().shield_slots.set(slots | (1 << slot));
        slot
    }

    /// Opens a [`Recovery`] scope on this thread: the RAII bracket of DEBRA+'s
    /// restricted hazard pointers (see [`Recovery`]).  Equivalent to
    /// [`DomainHandle::recovery`]; offered on the guard so an operation body can open a
    /// per-attempt scope without plumbing the handle through.
    pub fn recovery(&self) -> Recovery<T, R, P, A> {
        Recovery::open(self.lease.clone_ref())
    }

    /// Allocates a record (recycling from the pool when possible) as a private
    /// [`Owned`] value, ready to be published with
    /// [`Atomic::compare_exchange_owned`](crate::Atomic::compare_exchange_owned).
    pub fn alloc(&self, value: T) -> Owned<T> {
        Owned::from_ptr(self.lease().with_handle(|h| h.allocate(value)))
    }

    /// Returns a never-published record to the pool (e.g. the node of an insert that
    /// lost its CAS).  Safe because an [`Owned`] is by construction unreachable and
    /// uniquely held.
    pub fn discard(&self, record: Owned<T>) {
        let ptr = record.into_ptr();
        // SAFETY: `Owned` records are allocated by this domain's manager, unpublished
        // and uniquely held, so immediate deallocation is sound.
        self.lease().with_handle(|h| unsafe { h.deallocate(ptr) });
    }

    /// Hands a record that has been removed from the data structure to the reclaimer
    /// (the paper's `retire(tid, rec)`, with the tag stripped from `record`).
    ///
    /// # Contract (not checked by the type system)
    ///
    /// `record` must have been made unreachable from the structure's entry points for
    /// operations that start after this call, must be retired at most once per
    /// allocation, and must be non-null (checked).  In every structure in this
    /// repository the obligation is discharged by a unique CAS winner — the thread whose
    /// unlink (or descriptor hand-off) CAS succeeded owns the retirement — which is an
    /// *algorithmic* linearization argument the type system cannot see.  This is the
    /// safe layer's second documented hole (the first is [`Shared::as_ref`] on an
    /// unvalidated load): a structure that retires a still-reachable record, or retires
    /// twice, has a use-after-free/double-free bug even though no `unsafe` block marks
    /// the site.  The localized rule of thumb: call `retire` only immediately after the
    /// CAS that made you the unique unlinker.
    pub fn retire(&self, record: Shared<'_, T>) {
        let ptr = NonNull::new(record.as_ptr()).expect("cannot retire a null pointer");
        // SAFETY: the documented contract above — unreachable for later operations,
        // retired exactly once by the unique unlink-CAS winner.
        self.lease().with_handle(|h| unsafe { h.retire(ptr) });
    }

    /// Performs the recovery protocol after a [`Restart`]: acknowledges a pending
    /// neutralization (a no-op outside DEBRA+).  [`Domain::run`]/[`DomainHandle::run`]
    /// call this automatically.
    ///
    /// Restricted hazard pointers are deliberately *not* released here: they belong to
    /// the [`Recovery`] scope that announced them, which may span several restarts (an
    /// insert whose decision CAS already succeeded keeps its published record protected
    /// across the recovery gap until its completion phase finishes — the DEBRA+
    /// completion-phase protocol).  Unwinding drops the scope, and the drop releases.
    pub(crate) fn recover(&self) {
        self.lease().with_handle(|h| h.begin_recovery());
    }

    /// The safe helping-policy hook: `true` when the reclamation scheme permits
    /// *helping* another thread's operation to completion.
    ///
    /// Helping dereferences the helpee's records (reached through its descriptor
    /// fields), which the helper holds no per-access protection for and which admit no
    /// validating read (there is no link word to re-validate against).  That is safe
    /// exactly when the scheme's protection is operation-wide — epoch-style schemes,
    /// whose non-quiescent announcement pins every record retired during the operation
    /// — and unsafe under schemes whose safety argument is tied to their own validated
    /// accesses: hazard pointers and ThreadScan (per-slot announcements), and IBR
    /// (interval reservations cover the records reached through its validating reads).
    /// Version-based schemes (VBR) refuse it too: a helper's CAS cannot be covered by a
    /// version re-check on a link it never read.  Under those schemes structures must
    /// back off and let the operation's owner finish instead (the restriction of the
    /// paper's Section 3).  `true` exactly for [`ReadProtection::Pin`] schemes; constant
    /// after monomorphization, so the non-helping branch compiles out.
    #[inline]
    pub fn helping_allowed(&self) -> bool {
        matches!(<R::Thread as ReclaimerThread<T>>::READ_PROTECTION, ReadProtection::Pin)
    }

    /// `true` if the chosen reclaimer supports crash recovery / neutralization (DEBRA+);
    /// the paper's `supportsCrashRecovery` predicate, constant after monomorphization.
    #[inline]
    pub fn supports_crash_recovery(&self) -> bool {
        <R::Thread as ReclaimerThread<T>>::SUPPORTS_CRASH_RECOVERY
    }

    /// The Record Manager thread slot backing this guard (diagnostics).
    pub fn tid(&self) -> usize {
        self.lease().with_handle(|h| h.tid())
    }

    /// The traversal hot path: one handle fetch, the neutralization checkpoint, and the
    /// announce-then-validate protocol, all in one inlined unit so that epoch-based
    /// schemes (whose `check` and `protect` are no-ops) compile it down to the raw
    /// protocol's plain loads.
    ///
    /// `allow_tagged` is `false` for the Harris/Michael link discipline (a tagged word
    /// means the *source* node is logically deleted, so the target may already be retired
    /// and the traversal must restart) and `true` for packed descriptor words whose tag
    /// bits carry an operation state (the EFRB `update` word), where a flagged word is
    /// precisely the state being validated.  `extra` is conjoined with the link
    /// re-validation — structures use it for invariants the link equality alone cannot
    /// express (e.g. "the parent is not marked"); for the common case it is `|| true`
    /// and monomorphizes away.
    #[inline(always)]
    pub(crate) fn protect_in_slot(
        &self,
        slot: usize,
        link: &Atomic<T>,
        expected: Option<usize>,
        allow_tagged: bool,
        mut extra: impl FnMut() -> bool,
    ) -> Result<Shared<'_, T>, Restart> {
        // SAFETY: thread-local handle, no `&mut` outstanding (see `Lease::with_handle`);
        // the validate closure below only loads `Atomic`s of the data structure, never
        // re-enters the guard layer.
        let handle = unsafe { &mut *self.handle.as_ptr() };
        // Validate-on-read schemes (VBR) re-run the exact same staleness probe inside
        // `protect` below — a leading `check` would load the same clock word twice per
        // traversal step for nothing.  For every other scheme `check` is the DEBRA+
        // neutralization checkpoint (or a no-op) and stays.  Constant after
        // monomorphization, so the branch compiles out either way.
        if !matches!(<R::Thread as ReclaimerThread<T>>::READ_PROTECTION, ReadProtection::Validate) {
            handle.check()?;
        }
        let word = match expected {
            // The caller already read the link (the traversal's previous `next` load):
            // no redundant re-read on the hot path — exactly the raw protocol's load
            // count.  The validating re-read below still compares against the link.
            Some(word) => word,
            None => link.load_word(std::sync::atomic::Ordering::Acquire),
        };
        let loaded = Shared::<T>::from_word(word);
        if !allow_tagged && loaded.tag() != 0 {
            // See the method docs: under the link discipline a tagged word must not
            // validate (the use-after-free window the raw implementations had to
            // re-check by hand).
            return Err(Restart);
        }
        let Some(record) = NonNull::new(loaded.as_ptr()) else {
            return Ok(loaded);
        };
        // Announce-then-validate (Michael's protocol): the protection is published, then
        // the link is re-read; if it still holds the exact word we followed (tag
        // included), the record cannot have been retired before the announcement became
        // visible.  Epoch-based schemes compile all of this down to `true`.
        let valid = handle.protect(slot, record, || {
            link.load_word(std::sync::atomic::Ordering::SeqCst) == word && extra()
        });
        if valid {
            Ok(loaded)
        } else {
            Err(Restart)
        }
    }

    /// The anchored variant of the protect hot path: announces `record` and validates by
    /// re-reading `anchor` — a *different* link than the one `record` was loaded from —
    /// against `expected`.  See [`Shield::protect_anchored`] for the protocol and its
    /// soundness contract.
    #[inline(always)]
    pub(crate) fn protect_anchored_in_slot(
        &self,
        slot: usize,
        record_word: usize,
        anchor: &Atomic<T>,
        expected_word: usize,
    ) -> Result<Shared<'_, T>, Restart> {
        // SAFETY: as in `protect_in_slot` — thread-local handle, no `&mut` outstanding,
        // and the validate closure only loads an `Atomic` of the data structure.
        let handle = unsafe { &mut *self.handle.as_ptr() };
        handle.check()?;
        let loaded = Shared::<T>::from_word(record_word);
        let Some(record) = NonNull::new(loaded.as_ptr()) else {
            return Ok(loaded);
        };
        let valid = handle.protect(slot, record, || {
            anchor.load_word(std::sync::atomic::Ordering::SeqCst) == expected_word
        });
        if valid {
            Ok(loaded)
        } else {
            Err(Restart)
        }
    }

    #[inline]
    fn release_slot(&self, slot: usize) {
        self.lease().with_handle(|h| h.unprotect(slot));
        let slots = self.lease().shield_slots.get();
        self.lease().shield_slots.set(slots & !(1 << slot));
    }
}

impl<T, R, P, A> Sealed for Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
}

impl<T, R, P, A> Pinned for Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
}

impl<T, R, P, A> Drop for Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    #[inline]
    fn drop(&mut self) {
        let l = self.lease.lease();
        let depth = l.pin_depth.get();
        l.pin_depth.set(depth - 1);
        if depth == 1 {
            l.with_handle(|h| h.enter_qstate());
        }
    }
}

impl<T, R, P, A> fmt::Debug for Guard<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").field("depth", &self.lease.lease().pin_depth.get()).finish()
    }
}

/// A leased protection slot: the typed rendition of one hazard pointer / reference slot.
///
/// Create one per pointer the traversal must keep protected (two suffice for the
/// Harris–Michael protocol: predecessor and current).  [`Shield::protect`] performs the
/// validated announcement; advancing a traversal is `std::mem::swap` of two shields
/// (which moves the *roles* without touching the announcements).  The slot is released
/// when the shield drops.
#[must_use = "a Shield protects records only while it is alive"]
pub struct Shield<'g, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    guard: &'g Guard<T, R, P, A>,
    slot: usize,
}

impl<'g, T, R, P, A> Shield<'g, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Reads `link` and protects the record it points to, validating that `link` still
    /// holds the same word afterwards (the announce-then-revalidate protocol required by
    /// HP / ThreadScan / IBR; compiled to a plain load under epoch schemes).
    ///
    /// Returns the protected pointer on success (null passes through unprotected — there
    /// is nothing to protect).  The returned [`Shared`] is dereferenceable for as long as
    /// the guard lives and this shield keeps protecting it.
    ///
    /// # Errors
    ///
    /// [`Restart`] when the thread was neutralized (DEBRA+), when the link changed under
    /// us, or when the link word carries a non-zero tag — in the Harris/Michael
    /// discipline a tagged link means the *source* node is logically deleted, so its
    /// successor may already be retired.  In every case the record may no longer be safe
    /// and the traversal must restart from a root.
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect(&mut self, link: &Atomic<T>) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slot, link, None, false, || true)
            .map(|s| Shared::from_word(s.word()))
    }

    /// Like [`protect`](Self::protect), but for a link whose current word the traversal
    /// has already read (`loaded`, typically the previous node's `next` load): skips the
    /// initial re-read — keeping the hot path at the raw protocol's exact load count —
    /// while still performing the validating re-read of `link` after the announcement.
    ///
    /// # Errors
    ///
    /// As for [`protect`](Self::protect); additionally restarts when `loaded` is tagged.
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect_loaded(
        &mut self,
        link: &Atomic<T>,
        loaded: Shared<'_, T>,
    ) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slot, link, Some(loaded.word()), false, || true)
            .map(|s| Shared::from_word(s.word()))
    }

    /// Protects `record` — already loaded by the caller — validating that the *anchor*
    /// link still holds exactly `expected` after the announcement, where `anchor` is a
    /// **different** link than the one `record` was read from.
    ///
    /// This is the protection shape of Michael–Scott-style queues, which
    /// [`protect`](Self::protect)/[`protect_loaded`](Self::protect_loaded) cannot
    /// express: the dequeuer reads `next = head.next`, but validating `head.next` would
    /// be worthless — `next` links are written once at link-in and never change, so the
    /// re-read still matches long after the successor has been dequeued and retired.
    /// The sound validation (Michael's 2004 hazard-pointer queue protocol) is that the
    /// **head link itself** has not moved: as long as `head` still points at the node we
    /// protect with the other shield, its successor cannot yet have been retired
    /// (retirement of the successor requires the head to first advance onto it).
    ///
    /// # Contract (not checked by the type system)
    ///
    /// The caller must guarantee two algorithmic invariants, on pain of a
    /// use-after-free: (a) `anchor == expected` must imply that `record` has not been
    /// retired (for the queue: the head must advance past a node before that node's
    /// successor can be retired), and (b) the record `expected` points to must itself be
    /// continuously protected by another shield of this guard for the whole call — that
    /// is what rules out an ABA re-installation of the same `expected` word while we
    /// announce (the anchored node cannot be freed and recycled while protected).
    ///
    /// # Errors
    ///
    /// [`Restart`] when the thread was neutralized (DEBRA+) or `anchor` no longer holds
    /// `expected` — the record may already be retired and the operation must restart.
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect_anchored(
        &mut self,
        record: Shared<'_, T>,
        anchor: &Atomic<T>,
        expected: Shared<'_, T>,
    ) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_anchored_in_slot(self.slot, record.word(), anchor, expected.word())
            .map(|s| Shared::from_word(s.word()))
    }

    /// Swaps the protection *roles* of two shields (e.g. "predecessor" and "current"
    /// while advancing a traversal) without touching the announcements: the record each
    /// slot protects stays protected, no stores are issued.
    ///
    /// Panics if the shields belong to different guards — swapping slot indices across
    /// guards would corrupt both sides' slot bookkeeping (two shields of one guard could
    /// end up sharing a slot, silently dropping a protection).
    #[inline]
    pub fn swap_roles(&mut self, other: &mut Shield<'g, T, R, P, A>) {
        assert!(
            std::ptr::eq(self.guard, other.guard),
            "swap_roles requires shields of the same guard"
        );
        std::mem::swap(&mut self.slot, &mut other.slot);
    }

    /// Releases the protection announcement (keeping the slot leased for reuse).
    pub fn release(&mut self) {
        self.guard.lease().with_handle(|h| h.unprotect(self.slot));
    }
}

impl<'g, T, R, P, A> Drop for Shield<'g, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        self.guard.release_slot(self.slot);
    }
}

impl<'g, T, R, P, A> fmt::Debug for Shield<'g, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shield").field("slot", &self.slot).finish()
    }
}

/// A set of `N` leased protection slots addressed by *role* index, with store-free role
/// rotation — the generalization of two [`Shield`]s and their
/// [`swap_roles`](Shield::swap_roles) to traversals whose protection window spans more
/// records.
///
/// The motivating windows (see the structures in `lockfree-ds`):
///
/// * the external BST descends with a grandparent → parent → leaf window plus three
///   descriptor roles; shifting the window down one level is `rotate([GP, P, L])` — no
///   announcement is re-issued for records that stay protected, so the hazard-pointer
///   hot path keeps the raw protocol's exact load/store count;
/// * the skip list traverses each level with a predecessor/current pair;
///   `rotate([PRED, CURR])` is exactly the two-shield role swap.
///
/// Roles are plain `usize` indices `< N`, so structures can name them with `const`s.
/// All slots are released when the set drops.  Like [`Shared`], a `ShieldSet` cannot
/// outlive the guard it was leased from:
///
/// ```compile_fail
/// use debra::{Debra, Domain};
/// use smr_alloc::{SystemAllocator, ThreadPool};
///
/// type D = Domain<u64, Debra<u64>, ThreadPool<u64>, SystemAllocator<u64>>;
/// let domain: D = Domain::new(1);
/// let guard = domain.pin();
/// let set = guard.shield_set::<3>();
/// drop(guard); // ERROR: `guard` is still borrowed by `set`
/// let _ = &set;
/// ```
#[must_use = "a ShieldSet protects records only while it is alive"]
pub struct ShieldSet<'g, const N: usize, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    guard: &'g Guard<T, R, P, A>,
    /// Role index -> leased slot index.  Rotation permutes this mapping; the slots (and
    /// the announcements they hold) never move.
    slots: [usize; N],
}

impl<'g, const N: usize, T, R, P, A> ShieldSet<'g, N, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Reads `link` and protects the record it points to in `role`, validating that
    /// `link` still holds the same word afterwards; see [`Shield::protect`].
    ///
    /// # Errors
    ///
    /// As for [`Shield::protect`] (neutralized, link changed, or tagged link word).
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect(&mut self, role: usize, link: &Atomic<T>) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slots[role], link, None, false, || true)
            .map(|s| Shared::from_word(s.word()))
    }

    /// Like [`protect`](Self::protect) for a link word the traversal has already read;
    /// see [`Shield::protect_loaded`].
    ///
    /// # Errors
    ///
    /// As for [`Shield::protect_loaded`].
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect_loaded(
        &mut self,
        role: usize,
        link: &Atomic<T>,
        loaded: Shared<'_, T>,
    ) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slots[role], link, Some(loaded.word()), false, || true)
            .map(|s| Shared::from_word(s.word()))
    }

    /// Like [`protect_loaded`](Self::protect_loaded), with one extra validation
    /// conjoined to the link re-read: `watch`'s tag must not equal `banned_tag` — for
    /// protection invariants the link equality alone cannot express (the BST re-checks
    /// that the parent it descends from is not marked, since a removed parent keeps its
    /// frozen child links).  The extra condition is expressed as data rather than a
    /// caller closure on purpose: the validation runs while the guard layer holds
    /// exclusive access to the per-thread handle, where re-entering the guard API from
    /// a closure would alias it.
    ///
    /// # Errors
    ///
    /// As for [`protect_loaded`](Self::protect_loaded); additionally restarts when
    /// `watch` carries `banned_tag`.
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect_loaded_unless(
        &mut self,
        role: usize,
        link: &Atomic<T>,
        loaded: Shared<'_, T>,
        watch: &Atomic<T>,
        banned_tag: usize,
    ) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slots[role], link, Some(loaded.word()), false, || {
                Shared::<T>::from_word(watch.load_word(std::sync::atomic::Ordering::SeqCst)).tag()
                    != banned_tag
            })
            .map(|s| Shared::from_word(s.word()))
    }

    /// Protects the record referenced by a *packed, possibly tagged* word in `role`:
    /// announces the word's pointer part and validates that `link` still holds exactly
    /// `expected` (tag included).
    ///
    /// This is the descriptor discipline of flag-word structures (the EFRB BST's
    /// `update` word packs `descriptor pointer | state`): a flagged word is a *valid*
    /// state there — unlike the Harris/Michael link discipline, where
    /// [`protect`](Self::protect) refuses tagged words — and "the word is still
    /// installed" proves the descriptor has not yet been handed off for retirement.
    ///
    /// # Errors
    ///
    /// [`Restart`] when the thread was neutralized or `link` no longer holds `expected`.
    #[inline]
    #[must_use = "an unchecked protect result may hand out an unprotected pointer"]
    pub fn protect_word(
        &mut self,
        role: usize,
        link: &Atomic<T>,
        expected: Shared<'_, T>,
    ) -> Result<Shared<'g, T>, Restart> {
        self.guard
            .protect_in_slot(self.slots[role], link, Some(expected.word()), true, || true)
            .map(|s| Shared::from_word(s.word()))
    }

    /// Rotates the protection roles: `roles[i]` takes over the slot (and therefore the
    /// live announcement) of `roles[i + 1]`, and the last role receives the first role's
    /// old slot, whose stale announcement is overwritten by that role's next protect.
    ///
    /// No stores are issued and no pointer is re-announced — every record that stays in
    /// the window stays continuously protected, which is both the safety argument (no
    /// moment of unprotection during a window shift, the property the raw BST maintained
    /// by carefully ordered re-announcements) and the performance one (the HP hot path
    /// keeps the raw protocol's exact load count).  `rotate([A, B])` on a two-role set
    /// is exactly [`Shield::swap_roles`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `roles` contains duplicates; out-of-range roles panic
    /// via the slot indexing.
    #[inline]
    pub fn rotate<const K: usize>(&mut self, roles: [usize; K]) {
        debug_assert!(
            (0..K).all(|i| (i + 1..K).all(|j| roles[i] != roles[j])),
            "rotate roles must be distinct"
        );
        if K == 0 {
            return;
        }
        let first = self.slots[roles[0]];
        for i in 0..K - 1 {
            self.slots[roles[i]] = self.slots[roles[i + 1]];
        }
        self.slots[roles[K - 1]] = first;
    }

    /// Announces protection of a *private* (not yet published) record in `role`, with no
    /// validation.
    ///
    /// Unconditionally sound: an `Owned` record cannot be retired before it is published
    /// (publication is what transfers it to the structure), and the announcement becomes
    /// visible before any publication CAS the caller performs afterwards — so no
    /// reclamation scan can miss it once retirement becomes possible.  This is how an
    /// insert keeps its new record dereferenceable under per-access schemes through a
    /// completion phase that runs *after* the publication point (the skip list's
    /// upper-level linking), where a concurrent remove may already retire the record.
    pub fn protect_private(&mut self, role: usize, record: &Owned<T>) {
        let slot = self.slots[role];
        let ptr = NonNull::new(record.shared().as_ptr()).expect("Owned records are non-null");
        self.guard.lease().with_handle(|h| {
            let _ = h.protect(slot, ptr, || true);
        });
    }

    /// Copies the announcement of `record` — which must currently be protected by
    /// `from`'s slot — into `to`'s slot.
    ///
    /// Sound without re-validation: an announcement duplicated while the original still
    /// stands cannot be missed by a concurrent reclamation scan (the record was
    /// continuously protected throughout).  This is how a traversal pins a record
    /// *beyond* the rotating window — e.g. the skip list keeps the target level's
    /// predecessor protected for the caller while the descent reuses the window roles
    /// on the levels below.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the scheme announces records one by one (HP,
    /// ThreadScan) and this thread does not announce `record` (see
    /// [`ReclaimerThread::is_protected`]).  Under the other schemes there is nothing to
    /// check.
    pub fn duplicate(&mut self, from: usize, to: usize, record: Shared<'_, T>) {
        debug_assert_ne!(from, to, "duplicate requires two distinct roles");
        let Some(ptr) = NonNull::new(record.as_ptr()) else { return };
        let slot = self.slots[to];
        self.guard.lease().with_handle(|h| {
            debug_assert!(
                h.is_protected(ptr),
                "duplicate requires the record to be protected by the source role"
            );
            let _ = h.protect(slot, ptr, || true);
        });
    }

    /// Releases `role`'s protection announcement (keeping the slot leased for reuse).
    pub fn release(&mut self, role: usize) {
        let slot = self.slots[role];
        self.guard.lease().with_handle(|h| h.unprotect(slot));
    }
}

impl<'g, const N: usize, T, R, P, A> Drop for ShieldSet<'g, N, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        for &slot in &self.slots {
            self.guard.release_slot(slot);
        }
    }
}

impl<'g, const N: usize, T, R, P, A> fmt::Debug for ShieldSet<'g, N, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShieldSet").field("slots", &&self.slots[..]).finish()
    }
}

/// The RAII bracket of DEBRA+'s restricted hazard pointers (the paper's
/// `RProtect`/`RUnprotectAll`): records announced with [`protect`](Recovery::protect)
/// stay protected — visible to every other thread's reclamation scan — until the scope
/// is dropped, which releases them all.
///
/// This replaces the manually paired `r_protect` … `r_unprotect_all` calls of the raw
/// protocol.  Two opening points, chosen by how long the protections must live:
///
/// * [`Guard::recovery`] — a per-attempt scope: the protections announced before an
///   update's decision CAS are released when the attempt returns *or unwinds with
///   [`Restart`]* (the BST's insert/delete attempts);
/// * [`DomainHandle::recovery`] — a scope that outlives individual guards, for
///   completion phases that must survive neutralization-induced restarts of the
///   operation body (the skip list insert keeps its freshly published node protected
///   across the recovery gap until the completion phase finishes).
///
/// Everything is a no-op under schemes without crash recovery and compiles out.
///
/// # Panics
///
/// Opening a second scope while one is alive on the same thread panics:
/// `RUnprotectAll` is all-or-nothing, so a dropped inner scope would silently release an
/// outer scope's protections.
#[must_use = "restricted hazard pointers live exactly as long as the Recovery scope"]
pub struct Recovery<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    lease: LeaseRef<T, R, P, A>,
}

impl<T, R, P, A> Recovery<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn open(lease: LeaseRef<T, R, P, A>) -> Self {
        assert!(
            !lease.lease().recovery_active.replace(true),
            "Recovery scopes must not nest (RUnprotectAll is all-or-nothing)"
        );
        Recovery { lease }
    }

    /// Announces a restricted hazard pointer for `record` (the paper's `RProtect`) and
    /// returns a [`Protected`] token that can re-derive a usable pointer in a later
    /// guard.  Idempotent per record; a no-op (token included) outside DEBRA+.
    ///
    /// # Panics
    ///
    /// Panics when `record` is null.
    pub fn protect<'r>(&'r self, record: Shared<'_, T>) -> Protected<'r, T> {
        let ptr = NonNull::new(record.as_ptr()).expect("cannot RProtect a null pointer");
        self.lease.lease().with_handle(|h| h.r_protect(ptr));
        Protected { ptr, _scope: std::marker::PhantomData }
    }

    /// Releases every restricted protection announced in this scope (the paper's
    /// `RUnprotectAll`), keeping the scope open.
    ///
    /// For attempt-failure paths of operations whose scope spans retries: when a
    /// decision CAS fails (or a pre-decision checkpoint restarts the attempt), nothing
    /// the scope announced is needed anymore, and clearing keeps the bounded `RProtect`
    /// array from accumulating one stale entry per retried attempt.  Tokens handed out
    /// by [`protect`](Self::protect) before the clear no longer carry protection and
    /// must be discarded with the failed attempt.
    pub fn clear(&self) {
        self.lease.lease().with_handle(|h| h.r_unprotect_all());
    }

    /// `true` if this thread currently holds a restricted hazard pointer to `record`
    /// (the paper's `isRProtected`; always `false` outside DEBRA+).  Diagnostics.
    pub fn is_protected(&self, record: Shared<'_, T>) -> bool {
        match NonNull::new(record.as_ptr()) {
            Some(ptr) => self.lease.lease().with_handle(|h| h.is_r_protected(ptr)),
            None => false,
        }
    }
}

impl<T, R, P, A> Drop for Recovery<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        let lease = self.lease.lease();
        lease.recovery_active.set(false);
        lease.with_handle(|h| h.r_unprotect_all());
    }
}

impl<T, R, P, A> fmt::Debug for Recovery<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recovery").finish()
    }
}

/// A token for a record announced in a [`Recovery`] scope: re-derives a [`Shared`] for
/// the record inside a later guard with [`get`](Protected::get), which is how a
/// completion phase resumed after a neutralization regains its published record.
///
/// The token borrows the scope, so it cannot outlive the restricted protection that
/// keeps the record's memory valid across the recovery gap.  Under schemes without
/// crash recovery the protection is a no-op — and also never needed, because without
/// neutralization an operation body never restarts past its decision point, so a token
/// is only ever `get` within the attempt that created it.
///
/// # Contract (not checked by the type system)
///
/// That usage pattern is a *documented contract*, like [`Guard::retire`]'s: nothing
/// stops safe code under a no-op scheme from stashing a token, dropping its guard, and
/// `get`ting the record after another thread has freed it.  Call `get` only from the
/// operation that created the token, or from its crash-recovery resumption — the two
/// places where the record is provably covered (own protection, or the restricted
/// hazard pointer).
pub struct Protected<'r, T> {
    ptr: NonNull<T>,
    _scope: std::marker::PhantomData<&'r ()>,
}

impl<'r, T> Clone for Protected<'r, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'r, T> Copy for Protected<'r, T> {}

impl<'r, T: Send + 'static> Protected<'r, T> {
    /// The protected record as a [`Shared`] valid under `guard`.
    #[inline]
    pub fn get<'g, G: Pinned>(&self, _guard: &'g G) -> Shared<'g, T> {
        Shared::from_word(self.ptr.as_ptr() as usize)
    }
}

impl<'r, T> fmt::Debug for Protected<'r, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Protected").field("ptr", &self.ptr).finish()
    }
}
