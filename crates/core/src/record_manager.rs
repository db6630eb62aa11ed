//! The Record Manager: compile-time composition of a reclaimer, a pool and an allocator
//! (paper, Section 6).

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

use neutralize::Neutralized;

#[cfg(feature = "smr_sanitize")]
use crate::traits::ReadProtection;
use crate::traits::{
    Allocator, AllocatorRequirement, AllocatorThread, Pool, PoolThread, Reclaimer, ReclaimerThread,
    RegistrationError,
};

/// Shared state of a Record Manager: one reclaimer, one pool and one allocator, chosen at
/// compile time.
///
/// A data structure is written once against [`RecordManagerThread`]; swapping the
/// reclamation scheme (or the pool, or the allocator) is a one-line change of the type
/// parameters, with no runtime dispatch — the compiler monomorphizes and inlines the
/// scheme-specific calls, exactly like the C++ template parameters used in the paper.
///
/// # Example
///
/// ```text
/// // One line decides the whole memory management strategy of the data structure
/// // (the pool and allocator types live in the sibling `smr-alloc` crate):
/// type Manager = RecordManager<Node, Debra<Node>, ThreadPool<Node>, SystemAllocator<Node>>;
/// ```
/// See the workspace examples (`examples/reclaimer_swap.rs`) for the full picture.
pub struct RecordManager<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    reclaimer: Arc<R>,
    pool: Arc<P>,
    alloc: Arc<A>,
    /// This manager's id in the smr-check shadow table.
    #[cfg(feature = "smr_sanitize")]
    shadow_mgr: u64,
    _marker: PhantomData<fn(T)>,
}

impl<T, R, P, A> RecordManager<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// Creates a Record Manager for up to `max_threads` threads, constructing each
    /// component with its default configuration.
    pub fn new(max_threads: usize) -> Self {
        Self::from_parts(
            Arc::new(R::new(max_threads)),
            Arc::new(P::new(max_threads)),
            Arc::new(A::new(max_threads)),
        )
    }

    /// Composes a Record Manager from already-constructed (possibly custom-configured)
    /// components.  All components must have been created for the same number of threads.
    pub fn from_parts(reclaimer: Arc<R>, pool: Arc<P>, alloc: Arc<A>) -> Self {
        // Scheme/allocator compatibility gate: a version-based scheme over a non
        // type-stable allocator is not a performance bug, it is unsound (a stale
        // optimistic read could land on unmapped or re-typed memory).  Both sides of the
        // condition are associated constants, so for every legal pairing the branch
        // compiles out entirely.
        if matches!(R::ALLOCATOR_REQUIREMENT, AllocatorRequirement::TypeStable) && !A::TYPE_STABLE {
            panic!(
                "{} requires ALLOCATOR=pagepool: its optimistic reads are machine-safe only \
                 over type-stable, never-unmapping record pages, and allocator `{}` does not \
                 guarantee type stability",
                R::name(),
                A::name()
            );
        }
        #[cfg(feature = "smr_sanitize")]
        let shadow_mgr = {
            let r = Arc::clone(&reclaimer);
            let probe = Arc::clone(&reclaimer);
            smr_check::shadow::register_manager(
                R::name(),
                Box::new(move || format!("{:?}", r.stats())),
                Box::new(move |tid| probe.is_thread_neutralized(tid)),
                matches!(
                    <R::Thread as ReclaimerThread<T>>::READ_PROTECTION,
                    ReadProtection::Validate
                ),
            )
        };
        RecordManager {
            reclaimer,
            pool,
            alloc,
            #[cfg(feature = "smr_sanitize")]
            shadow_mgr,
            _marker: PhantomData,
        }
    }

    /// Registers thread slot `tid` and returns its per-thread handle.
    ///
    /// Must be called on the thread that will use the handle (some reclaimers — DEBRA+ —
    /// bind the handle to the calling OS thread for signal delivery).
    ///
    /// # Errors
    ///
    /// Fails if `tid` is out of range or already registered with the reclaimer.
    pub fn register(
        self: &Arc<Self>,
        tid: usize,
    ) -> Result<RecordManagerThread<T, R, P, A>, RegistrationError> {
        let reclaimer = R::register(&self.reclaimer, tid)?;
        let pool = P::register(&self.pool, tid);
        let alloc = A::register(&self.alloc, tid);
        Ok(RecordManagerThread {
            reclaimer,
            pool,
            alloc,
            tid,
            #[cfg(feature = "smr_sanitize")]
            shadow_mgr: self.shadow_mgr,
        })
    }

    /// Registers the lowest currently-free thread slot and returns its per-thread handle
    /// (no manual `tid` bookkeeping; slots freed by dropped handles are reused).
    ///
    /// Like [`register`](Self::register), must be called on the thread that will use the
    /// handle.  The safe layer's [`Domain`](crate::Domain) adds thread-local caching on
    /// top of this.
    ///
    /// # Errors
    ///
    /// Fails with [`RegistrationError::Exhausted`] when all slots are taken.
    pub fn register_auto(
        self: &Arc<Self>,
    ) -> Result<RecordManagerThread<T, R, P, A>, RegistrationError> {
        let max_threads = self.max_threads();
        for tid in 0..max_threads {
            match self.register(tid) {
                Ok(handle) => return Ok(handle),
                Err(RegistrationError::AlreadyRegistered { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(RegistrationError::Exhausted { max_threads })
    }

    /// The shared reclaimer instance.
    pub fn reclaimer(&self) -> &Arc<R> {
        &self.reclaimer
    }

    /// The shared pool instance.
    pub fn pool(&self) -> &Arc<P> {
        &self.pool
    }

    /// The shared allocator instance.
    pub fn allocator(&self) -> &Arc<A> {
        &self.alloc
    }

    /// Maximum number of threads this manager supports.
    pub fn max_threads(&self) -> usize {
        self.reclaimer.max_threads()
    }

    /// Returns an allocator handle suitable for teardown work (freeing the records still
    /// reachable from a data structure when it is dropped).  May be called from any thread;
    /// the caller must guarantee that no other thread is still operating on the records it
    /// frees.
    pub fn teardown_allocator(&self) -> A::Thread {
        A::register(&self.alloc, 0)
    }

    /// Frees every record still cached in the pool's shared structures or parked in the
    /// reclaimer's orphan list.
    ///
    /// Called automatically when the Record Manager is dropped; it may also be called
    /// explicitly at a point where the caller knows that no thread is operating on any data
    /// structure using this manager (e.g. between benchmark trials).
    pub fn reclaim_stragglers(&self) {
        let mut alloc = A::register(&self.alloc, 0);
        for record in self.reclaimer.drain_orphans() {
            #[cfg(feature = "smr_sanitize")]
            smr_check::shadow::on_teardown_free(record.as_ptr() as usize);
            // SAFETY: teardown — the caller guarantees no thread can reach these records.
            unsafe { alloc.deallocate(record) };
        }
        for record in self.pool.drain_shared() {
            #[cfg(feature = "smr_sanitize")]
            smr_check::shadow::on_teardown_free(record.as_ptr() as usize);
            // SAFETY: as above.
            unsafe { alloc.deallocate(record) };
        }
    }

    /// This manager's id in the smr-check shadow table (sanitized builds only).
    #[cfg(feature = "smr_sanitize")]
    pub fn shadow_mgr(&self) -> u64 {
        self.shadow_mgr
    }
}

impl<T, R, P, A> Drop for RecordManager<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        self.reclaim_stragglers();
        // Tear down this manager's shadow state, reporting never-freed records.
        #[cfg(feature = "smr_sanitize")]
        let _ = smr_check::shadow::unregister_manager(self.shadow_mgr);
    }
}

impl<T, R, P, A> fmt::Debug for RecordManager<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordManager")
            .field("reclaimer", &R::name())
            .field("pool", &P::name())
            .field("allocator", &A::name())
            .field("max_threads", &self.max_threads())
            .finish()
    }
}

/// Per-thread handle of a [`RecordManager`]: the single object through which a data
/// structure allocates, retires and protects records.
pub struct RecordManagerThread<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    reclaimer: R::Thread,
    pool: P::Thread,
    alloc: A::Thread,
    tid: usize,
    #[cfg(feature = "smr_sanitize")]
    shadow_mgr: u64,
}

impl<T, R, P, A> RecordManagerThread<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    /// The thread slot this handle was registered with.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Allocates a record containing `value`, recycling one from the pool when possible.
    pub fn allocate(&mut self, value: T) -> NonNull<T> {
        let record = self.pool.allocate(value, &mut self.alloc);
        // Interval-based schemes tag the record's birth era here; a no-op elsewhere.
        self.reclaimer.record_allocated(record);
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::on_alloc(
            self.shadow_mgr,
            self.tid,
            record.as_ptr() as usize,
            std::any::type_name::<T>(),
        );
        record
    }

    /// Immediately returns a record to the pool / allocator.
    ///
    /// Use this only for records that were never published in the data structure (e.g. a
    /// node allocated for an insert that lost its CAS); published records must go through
    /// [`retire`](Self::retire) instead.
    ///
    /// # Safety
    ///
    /// The record must have been allocated through this Record Manager family, must not be
    /// reachable by any thread, and must not be used again.
    pub unsafe fn deallocate(&mut self, record: NonNull<T>) {
        #[cfg(feature = "smr_sanitize")]
        if !smr_check::shadow::on_dealloc(self.shadow_mgr, self.tid, record.as_ptr() as usize) {
            // Shadow table vetoed the deallocation (double free / published record):
            // leak the record instead of compounding the bug.
            return;
        }
        self.pool.deallocate(record, &mut self.alloc);
    }

    /// Hands a record that has been removed from the data structure to the reclaimer; it
    /// will be recycled or freed once no thread can still hold a pointer to it.
    ///
    /// # Safety
    ///
    /// See [`ReclaimerThread::retire`].
    pub unsafe fn retire(&mut self, record: NonNull<T>) {
        #[cfg(feature = "smr_sanitize")]
        {
            if !smr_check::shadow::on_retire(self.shadow_mgr, self.tid, record.as_ptr() as usize) {
                // Double/late retire: suppress the dangerous second retire so record
                // mode stays memory-safe (the violation has been reported).
                return;
            }
            let mut sink =
                SanitizedSink { inner: &mut self.pool, mgr: self.shadow_mgr, tid: self.tid };
            self.reclaimer.retire(record, &mut sink)
        }
        #[cfg(not(feature = "smr_sanitize"))]
        self.reclaimer.retire(record, &mut self.pool);
    }

    /// Announces the start of a data structure operation.
    #[must_use = "the return value reports whether the epoch announcement changed"]
    pub fn leave_qstate(&mut self) -> bool {
        #[cfg(feature = "smr_sanitize")]
        {
            // Per-record protection is expected only of announcing schemes: pin schemes
            // reserve by epoch, validate schemes by version check — neither announces.
            smr_check::shadow::on_pin(
                self.shadow_mgr,
                self.tid,
                matches!(
                    <R::Thread as ReclaimerThread<T>>::READ_PROTECTION,
                    ReadProtection::Announce
                ),
            );
            let mut sink =
                SanitizedSink { inner: &mut self.pool, mgr: self.shadow_mgr, tid: self.tid };
            self.reclaimer.leave_qstate(&mut sink)
        }
        #[cfg(not(feature = "smr_sanitize"))]
        self.reclaimer.leave_qstate(&mut self.pool)
    }

    /// Announces the end of the current data structure operation.
    pub fn enter_qstate(&mut self) {
        self.reclaimer.enter_qstate();
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::on_unpin(self.shadow_mgr);
    }

    /// Returns `true` if this thread is between operations.
    pub fn is_quiescent(&self) -> bool {
        self.reclaimer.is_quiescent()
    }

    /// Starts an operation and returns a guard that ends it when dropped.
    ///
    /// The guard dereferences to the thread handle so that the operation body can keep
    /// allocating, retiring and protecting records through it.
    pub fn guard(&mut self) -> OpGuard<'_, T, R, P, A> {
        let _ = self.leave_qstate();
        OpGuard { thread: self }
    }

    /// Attempts to protect `record` (hazard-pointer semantics); see
    /// [`ReclaimerThread::protect`].
    #[must_use = "a false result means the record may already be retired and must not be accessed"]
    pub fn protect<F: FnMut() -> bool>(
        &mut self,
        slot: usize,
        record: NonNull<T>,
        validate: F,
    ) -> bool {
        // Shadow ordering contract: the old slot protection is cleared *before* the real
        // announcement is overwritten, and the new one registered only *after* the real
        // protect validated (see smr-check's shadow module docs).  Only announcing
        // schemes make a per-record promise worth tracking: pin schemes implement
        // `protect` as a validated no-op (the pin is the reservation) and validate
        // schemes as a version check (nothing is ever reserved) — registering a
        // per-record protection those schemes never promised would produce
        // free-while-protected false positives (e.g. under DEBRA+ neutralization,
        // which voids the epoch reservation).
        #[cfg(feature = "smr_sanitize")]
        let track =
            matches!(<R::Thread as ReclaimerThread<T>>::READ_PROTECTION, ReadProtection::Announce);
        #[cfg(feature = "smr_sanitize")]
        if track {
            smr_check::shadow::on_protect_begin(self.shadow_mgr, self.tid, slot);
        }
        let ok = self.reclaimer.protect(slot, record, validate);
        #[cfg(feature = "smr_sanitize")]
        if track && ok {
            smr_check::shadow::on_protect_commit(
                self.shadow_mgr,
                self.tid,
                slot,
                record.as_ptr() as usize,
            );
        }
        ok
    }

    /// Releases protection slot `slot`.
    pub fn unprotect(&mut self, slot: usize) {
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::on_unprotect(self.shadow_mgr, self.tid, slot);
        self.reclaimer.unprotect(slot);
    }

    /// Returns `true` unless the chosen reclaimer announces records one by one and this
    /// thread's announcements leave `record` out (see [`ReclaimerThread::is_protected`]).
    pub fn is_protected(&self, record: NonNull<T>) -> bool {
        self.reclaimer.is_protected(record)
    }

    /// Checkpoint: fails with [`Neutralized`] if this thread has been neutralized.
    #[inline]
    #[must_use = "ignoring a Neutralized result defeats the DEBRA+ recovery protocol"]
    pub fn check(&self) -> Result<(), Neutralized> {
        self.reclaimer.check()
    }

    /// Acknowledges a pending neutralization, if any, before running recovery code.
    pub fn begin_recovery(&mut self) {
        self.reclaimer.begin_recovery();
    }

    /// Announces a restricted hazard pointer for recovery code (DEBRA+'s `RProtect`).
    pub fn r_protect(&mut self, record: NonNull<T>) {
        self.reclaimer.r_protect(record);
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::on_rprotect(self.shadow_mgr, self.tid, record.as_ptr() as usize);
    }

    /// Releases all restricted hazard pointers (DEBRA+'s `RUnprotectAll`).
    pub fn r_unprotect_all(&mut self) {
        #[cfg(feature = "smr_sanitize")]
        smr_check::shadow::on_runprotect_all(self.shadow_mgr, self.tid);
        self.reclaimer.r_unprotect_all();
    }

    /// Returns `true` if this thread holds a restricted hazard pointer to `record`.
    pub fn is_r_protected(&self, record: NonNull<T>) -> bool {
        self.reclaimer.is_r_protected(record)
    }
}

impl<T, R, P, A> Drop for RecordManagerThread<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        // Locally cached pool records must survive the thread: push them to the shared
        // pool so other threads (or teardown) can reuse or free them.
        self.pool.flush_to_shared();
    }
}

impl<T, R, P, A> fmt::Debug for RecordManagerThread<T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordManagerThread")
            .field("tid", &self.tid)
            .field("reclaimer", &R::name())
            .finish()
    }
}

/// RAII guard for one data structure operation; created by [`RecordManagerThread::guard`].
///
/// Dereferences to the underlying [`RecordManagerThread`]; calls
/// [`enter_qstate`](RecordManagerThread::enter_qstate) when dropped.
#[must_use = "the operation lasts exactly as long as the OpGuard; dropping it immediately ends the operation"]
pub struct OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    thread: &'a mut RecordManagerThread<T, R, P, A>,
}

impl<'a, T, R, P, A> Deref for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    type Target = RecordManagerThread<T, R, P, A>;

    fn deref(&self) -> &Self::Target {
        self.thread
    }
}

impl<'a, T, R, P, A> DerefMut for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.thread
    }
}

impl<'a, T, R, P, A> Drop for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn drop(&mut self) {
        self.thread.enter_qstate();
    }
}

impl<'a, T, R, P, A> fmt::Debug for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpGuard").field("tid", &self.thread.tid).finish()
    }
}

impl<'a, T, R, P, A> crate::atomic::private::Sealed for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
}

/// An `OpGuard` witnesses that the thread is non-quiescent (it called `leave_qstate` on
/// construction and holds the thread handle exclusively until drop), which is exactly the
/// [`Pinned`](crate::Pinned) contract — so raw-layer code can use the typed
/// [`Atomic`](crate::Atomic)/[`Shared`](crate::Shared) pointers too.
impl<'a, T, R, P, A> crate::atomic::Pinned for OpGuard<'a, T, R, P, A>
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
}

/// A [`ReclaimSink`](crate::traits::ReclaimSink) wrapper that validates every record
/// through the shadow table before handing it to the real sink (the pool).  Records the
/// shadow table vetoes (double free, free under a live announcement) are leaked instead
/// of forwarded, keeping flagged runs memory-safe.
///
/// The block fast-path is deliberately not overridden: the default `accept_block` drains
/// into `accept`, which is where the per-record check lives.  Sanitized builds trade the
/// O(1) block hand-off for per-record checking by design.
#[cfg(feature = "smr_sanitize")]
struct SanitizedSink<'a, S> {
    inner: &'a mut S,
    mgr: u64,
    tid: usize,
}

#[cfg(feature = "smr_sanitize")]
impl<'a, T, S: crate::traits::ReclaimSink<T>> crate::traits::ReclaimSink<T>
    for SanitizedSink<'a, S>
{
    fn accept(&mut self, record: NonNull<T>) {
        if smr_check::shadow::on_free(self.mgr, self.tid, record.as_ptr() as usize) {
            self.inner.accept(record);
        }
    }
}
