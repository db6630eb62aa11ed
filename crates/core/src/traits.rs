//! The Record Manager trait family: `Reclaimer`, `Pool`, `Allocator` and the glue between
//! them.
//!
//! These traits are the Rust rendition of the paper's Record Manager abstraction
//! (Section 6): a data structure is written once against
//! [`RecordManagerThread`](crate::RecordManagerThread) and the concrete reclamation,
//! pooling and allocation schemes are chosen by filling in type parameters — the compiler
//! monomorphizes the calls, so a scheme whose `protect` is a no-op (like DEBRA) costs
//! nothing, exactly as with the paper's C++ templates.

use std::ptr::NonNull;
use std::sync::Arc;

use blockbag::Block;
use neutralize::Neutralized;

use crate::properties::SchemeProperties;
use crate::stats::{PoolStats, ReclaimerStats};

/// Error returned when registering a thread with a shared component fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationError {
    /// The requested thread id is `>= max_threads`.
    ThreadIdOutOfRange {
        /// The requested thread id.
        tid: usize,
        /// The maximum number of threads the component was created for.
        max_threads: usize,
    },
    /// The requested thread id is already registered.
    AlreadyRegistered {
        /// The requested thread id.
        tid: usize,
    },
    /// Every thread slot is currently leased (returned by the automatic slot leasing of
    /// [`Domain`](crate::Domain) when `max_threads` threads are already active).
    Exhausted {
        /// The maximum number of threads the component was created for.
        max_threads: usize,
    },
}

impl std::fmt::Display for RegistrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrationError::ThreadIdOutOfRange { tid, max_threads } => {
                write!(f, "thread id {tid} out of range (max_threads = {max_threads})")
            }
            RegistrationError::AlreadyRegistered { tid } => {
                write!(f, "thread id {tid} is already registered")
            }
            RegistrationError::Exhausted { max_threads } => {
                write!(f, "all {max_threads} thread slots are currently leased")
            }
        }
    }
}

impl std::error::Error for RegistrationError {}

/// How a scheme lets readers dereference shared records.  Only `Pin` schemes permit
/// unprotected traversal, and with it helping (`Guard::helping_allowed`).
///
/// | variant    | reader cost per access        | schemes                              |
/// |------------|-------------------------------|--------------------------------------|
/// | `Announce` | shared store + validation     | HP, ThreadScan, IBR                  |
/// | `Pin`      | none (epoch pin per op)       | none (leak), EBR, DEBRA, DEBRA+      |
/// | `Validate` | local version check           | VBR                                  |
///
/// `Announce` schemes publish a per-record (or per-interval) reservation before every
/// dereference and re-validate reachability afterwards.  `Pin` schemes announce once per
/// operation; while the thread stays non-quiescent nothing retired after the pin is freed,
/// so unvalidated traversal — and helping — is sound.  `Validate` schemes (version-based
/// reclamation) announce *nothing*: readers snapshot a global version clock when the
/// operation starts and every checkpoint merely compares the clock against the snapshot,
/// restarting the operation (typed [`Restart`](crate::Restart)) once enough ticks have
/// passed that retired records may have been recycled.  Dereferencing is kept machine-safe
/// not by protection but by *type stability* of the allocator (see
/// [`Allocator::TYPE_STABLE`]), which is why `Validate` schemes must also declare
/// [`AllocatorRequirement::TypeStable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadProtection {
    /// Per-access announcement (hazard-pointer style): `protect` publishes a reservation
    /// and runs the validation closure.
    Announce,
    /// Per-operation epoch pin: `protect` is a validated no-op; unprotected traversal and
    /// helping are sound while the thread is non-quiescent.
    Pin,
    /// No announcement at all: `protect`/`check` compile to a version-clock comparison
    /// that fails the operation (restart) instead of blocking reclamation.
    Validate,
}

/// What a reclamation scheme demands of the allocator underneath it.
///
/// Most schemes guarantee that a record handed to the sink is unreachable, so any
/// allocator — including ones that unmap pages or re-type memory — is sound.  Version
/// based schemes ([`ReadProtection::Validate`]) tolerate transient stale dereferences and
/// are only machine-safe when record memory is *type stable*: never unmapped and never
/// reused for a different type ([`Allocator::TYPE_STABLE`]).  The pairing is checked once
/// at Record Manager construction (see `RecordManager::from_parts`), turning a latent
/// unsoundness into an immediate, explainable panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorRequirement {
    /// Any allocator is sound.
    Any,
    /// Only type-stable, never-unmapping allocators are sound (`ALLOCATOR=pagepool`).
    TypeStable,
}

/// A destination for records that have become safe to reuse or free.
///
/// Reclaimers do not free records themselves; they hand them to a sink — normally the
/// [`PoolThread`] of the same Record Manager, which either caches them for reuse or passes
/// them on to the [`AllocatorThread`].  Accepting whole [`Block`]s mirrors the paper's
/// `pool->moveFullBlocks(bag)` and keeps the per-record reclamation cost at O(1).
pub trait ReclaimSink<T> {
    /// Accepts a single reclaimed record.
    fn accept(&mut self, record: NonNull<T>);

    /// Accepts a whole block of reclaimed records.
    ///
    /// The default implementation drains the block into [`accept`](Self::accept);
    /// block-aware sinks (pool bags) override it to move the block in O(1).
    // The box is the point: the whole allocation changes owner (see `BlockBag`).
    #[allow(clippy::boxed_local)]
    fn accept_block(&mut self, mut block: Box<Block<T>>) {
        let records: Vec<NonNull<T>> = block.drain().collect();
        for r in records {
            self.accept(r);
        }
    }
}

/// A sink that counts (and otherwise discards) reclaimed records.  Useful in tests and for
/// reclaimers whose caller manages memory elsewhere.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of records accepted so far.
    pub accepted: usize,
}

impl<T> ReclaimSink<T> for CountingSink {
    fn accept(&mut self, _record: NonNull<T>) {
        self.accepted += 1;
    }
}

/// Shared (global) state of a safe memory reclamation scheme.
///
/// One value of this type is shared by all threads operating on one (or more) data
/// structures; each participating thread registers to obtain a [`ReclaimerThread`] handle.
///
/// # Safety contract
///
/// Implementations must guarantee that a record handed to a [`ReclaimSink`] can no longer
/// be reached by any thread that follows the scheme's usage protocol (the protocol itself —
/// which calls must be made and when — is described per scheme).
pub trait Reclaimer<T: Send>: Send + Sync + Sized + 'static {
    /// Per-thread handle type.
    type Thread: ReclaimerThread<T> + 'static;

    /// Creates shared state for up to `max_threads` threads with default configuration.
    fn new(max_threads: usize) -> Self;

    /// Registers thread slot `tid` (`0 <= tid < max_threads`) and returns its handle.
    ///
    /// # Errors
    ///
    /// Fails if `tid` is out of range or already registered.
    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError>;

    /// Maximum number of threads this instance supports.
    fn max_threads(&self) -> usize;

    /// Short human-readable name of the scheme (e.g. `"DEBRA+"`).
    fn name() -> &'static str;

    /// Qualitative properties of the scheme (used to regenerate the paper's Figure 2).
    fn properties() -> SchemeProperties;

    /// Aggregated statistics across all threads.
    fn stats(&self) -> ReclaimerStats;

    /// Retired records handed back by threads that have exited before the records became
    /// safe to free.  Called during teardown, when the caller guarantees that no thread is
    /// still accessing the data structure.
    fn drain_orphans(&self) -> Vec<NonNull<T>> {
        Vec::new()
    }

    /// What this scheme demands of the allocator it is paired with.  Checked once at
    /// Record Manager construction; the default (`Any`) matches every scheme in the
    /// paper.  Version-based schemes override this with
    /// [`AllocatorRequirement::TypeStable`] because their optimistic reads are only
    /// machine-safe over never-unmapping, type-pure record pages.
    const ALLOCATOR_REQUIREMENT: AllocatorRequirement = AllocatorRequirement::Any;

    /// `true` if thread `tid` is currently neutralized (signalled by the crash-recovery
    /// protocol and not yet past its next checkpoint).  Always `false` for schemes
    /// without neutralization.  Must be safe to call from any thread — diagnostic
    /// tooling (the smr-check sanitizer) probes it to excuse the one-load-wide window
    /// where a just-neutralized thread dereferences a record the reclaimer already
    /// reclaimed (the operation is doomed to restart at its next checkpoint, so the
    /// stale read is never acted upon).
    fn is_thread_neutralized(&self, _tid: usize) -> bool {
        false
    }
}

/// Per-thread handle of a [`Reclaimer`].
///
/// The handle is intentionally not `Send`: it encapsulates thread-local state such as limbo
/// bags and hazard pointer slots.
///
/// # Usage protocol
///
/// * Call [`leave_qstate`](Self::leave_qstate) at the start and
///   [`enter_qstate`](Self::enter_qstate) at the end of every data structure operation,
///   and do not hold pointers to records across operations.
/// * Call [`retire`](Self::retire) exactly once for each record removed from the data
///   structure, while non-quiescent.
/// * For schemes that require per-access protection (hazard pointers), call
///   [`protect`](Self::protect) before reading a record's fields and only proceed if it
///   returns `true`.
/// * For schemes with crash recovery (DEBRA+), consult [`check`](Self::check) at every
///   checkpoint and run the recovery protocol when it reports [`Neutralized`].
pub trait ReclaimerThread<T: Send> {
    /// `true` if this scheme supports crash recovery / neutralization (DEBRA+).
    const SUPPORTS_CRASH_RECOVERY: bool = false;

    /// How this scheme protects readers — see [`ReadProtection`].  The default is the
    /// safe choice (`Announce`: per-access validated protection, no helping);
    /// epoch-style schemes opt into `Pin`, version-based schemes into `Validate`.
    const READ_PROTECTION: ReadProtection = ReadProtection::Announce;

    /// The thread slot this handle was registered with.
    fn tid(&self) -> usize;

    /// Announces that a data structure operation is starting (the thread leaves its
    /// quiescent state).  Reclaimed records, if any, are handed to `sink`.
    ///
    /// Returns `true` if the thread's epoch announcement changed (which is when limbo bags
    /// are rotated) — mirroring the paper's `leaveQstate` return value.
    #[must_use = "the return value reports whether the epoch announcement changed"]
    fn leave_qstate<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> bool;

    /// Announces that the current data structure operation has finished (the thread enters
    /// its quiescent state).  O(1).
    fn enter_qstate(&mut self);

    /// Returns `true` if the thread is currently quiescent.
    fn is_quiescent(&self) -> bool;

    /// Informs the reclaimer that `record` was just handed out by the allocator/pool.
    ///
    /// Interval-based schemes use this to tag the record's *birth era*; every other scheme
    /// leaves the default no-op (which the compiler removes after monomorphization, so the
    /// hook costs nothing where it is unused).  Called by
    /// [`RecordManagerThread::allocate`](crate::RecordManagerThread::allocate) for both
    /// fresh and pool-recycled records.
    fn record_allocated(&mut self, _record: NonNull<T>) {}

    /// Hands a record that has been removed from the data structure to the reclaimer.
    ///
    /// O(1) in the worst case for DEBRA/DEBRA+.  The record will eventually be passed to a
    /// [`ReclaimSink`] once no thread can hold a pointer to it.
    ///
    /// # Safety
    ///
    /// * `record` must have been removed from the data structure (unreachable from its
    ///   entry points for operations that start after this call);
    /// * `record` must not be retired more than once per allocation;
    /// * the calling thread must be non-quiescent.
    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, sink: &mut S);

    /// Attempts to protect `record` so that its fields may be read (hazard-pointer
    /// semantics).  `validate` must return `true` iff the record is still reachable in the
    /// data structure; it is called *after* the protection has been announced.
    ///
    /// Epoch-based schemes implement this as a no-op that returns `true` (and the compiler
    /// removes the call entirely after monomorphization).
    #[must_use = "a false result means the record may already be retired and must not be accessed"]
    fn protect<F: FnMut() -> bool>(
        &mut self,
        _slot: usize,
        _record: NonNull<T>,
        mut _validate: F,
    ) -> bool {
        true
    }

    /// Releases the protection slot `slot`.
    fn unprotect(&mut self, _slot: usize) {}

    /// Returns `true` if this thread currently protects `record`.
    fn is_protected(&self, _record: NonNull<T>) -> bool {
        false
    }

    /// Number of per-thread protection slots offered by this scheme (0 for epoch-based
    /// schemes).
    fn protection_slots(&self) -> usize {
        0
    }

    // ---- crash recovery (DEBRA+) ------------------------------------------------------

    /// Announces a *restricted* hazard pointer for use by recovery code
    /// (the paper's `RProtect`).  No-op for schemes without crash recovery.
    fn r_protect(&mut self, _record: NonNull<T>) {}

    /// Releases every restricted hazard pointer (the paper's `RUnprotectAll`).
    fn r_unprotect_all(&mut self) {}

    /// Returns `true` if this thread holds a restricted hazard pointer to `record`
    /// (the paper's `isRProtected`).
    fn is_r_protected(&self, _record: NonNull<T>) -> bool {
        false
    }

    /// Checkpoint: returns `Err(Neutralized)` if this thread has been neutralized since it
    /// last left a quiescent state.  Wait-free, O(1).  Data structure operation bodies call
    /// this before dereferencing shared records and before performing CAS steps.
    #[must_use = "ignoring a Neutralized result defeats the DEBRA+ recovery protocol"]
    fn check(&self) -> Result<(), Neutralized> {
        Ok(())
    }

    /// Returns `true` if this thread has been neutralized and has not yet begun recovery.
    fn is_neutralized(&self) -> bool {
        false
    }

    /// Acknowledges a neutralization: clears the neutralized flag so the thread can run its
    /// recovery code and restart the operation.  The thread stays quiescent until its next
    /// [`leave_qstate`](Self::leave_qstate).
    fn begin_recovery(&mut self) {}
}

/// Shared (global) state of a memory allocator.
///
/// The allocator is the component that actually obtains memory for records and returns it
/// to the operating system; it is also the source of the *allocated bytes* metric used by
/// the paper's memory-footprint experiment (Figure 9, right).
pub trait Allocator<T>: Send + Sync + Sized + 'static {
    /// Per-thread handle type.
    type Thread: AllocatorThread<T> + 'static;

    /// `true` iff record memory is *type stable*: once a page has held records of type
    /// `T` it is never unmapped and never reused for another type for the lifetime of
    /// the process.  This is the property version-based reclamation needs to make its
    /// optimistic (possibly stale) reads machine-safe — a racing load through a recycled
    /// pointer still lands on a valid, aligned record of the same type and cannot fault.
    /// Only the page-store allocator (`smr-pagepool`) provides it; the default is the
    /// honest `false`.
    const TYPE_STABLE: bool = false;

    /// Creates shared allocator state for up to `max_threads` threads.
    fn new(max_threads: usize) -> Self;

    /// Creates a per-thread handle.  Unlike reclaimer registration this never fails and may
    /// be called several times for the same `tid` (e.g. for teardown handles).
    fn register(this: &Arc<Self>, tid: usize) -> Self::Thread;

    /// Short human-readable name (e.g. `"bump"`).
    fn name() -> &'static str;

    /// Total bytes of record memory ever requested from this allocator.
    fn allocated_bytes(&self) -> u64;

    /// Total number of records ever allocated from this allocator.
    fn allocated_records(&self) -> u64;
}

/// Per-thread handle of an [`Allocator`].
pub trait AllocatorThread<T> {
    /// Allocates memory for one record and moves `value` into it.
    fn allocate(&mut self, value: T) -> NonNull<T>;

    /// Releases a record's memory back to the allocator, dropping its value if the concrete
    /// allocator supports individual deallocation (see each allocator's documentation).
    ///
    /// # Safety
    ///
    /// * `record` must have been allocated by an allocator of the same family (same global
    ///   instance);
    /// * the caller must have exclusive access to the record (no concurrent readers);
    /// * the record must not be used after this call.
    unsafe fn deallocate(&mut self, record: NonNull<T>);
}

/// Shared (global) state of an object pool.
///
/// The pool sits between the reclaimer and the allocator: reclaimed records are cached and
/// preferentially reused by subsequent allocations, which shrinks the memory footprint and
/// improves cache behaviour (this is how DEBRA sometimes *beats* performing no reclamation
/// at all in the paper's Experiment 2).
pub trait Pool<T>: Send + Sync + Sized + 'static {
    /// Per-thread handle type.
    type Thread: PoolThread<T> + 'static;

    /// Creates shared pool state for up to `max_threads` threads.
    fn new(max_threads: usize) -> Self;

    /// Creates the per-thread handle for slot `tid`.
    fn register(this: &Arc<Self>, tid: usize) -> Self::Thread;

    /// Short human-readable name (e.g. `"thread-pool"`).
    fn name() -> &'static str;

    /// Removes and returns every record currently cached in shared pool structures.
    /// Called during teardown so the Record Manager can free them.
    fn drain_shared(&self) -> Vec<NonNull<T>>;

    /// Aggregated allocation-pipeline statistics (magazine hits/misses, page store
    /// gauges).  Pools that do not keep counters return the all-zero default.
    fn stats(&self) -> PoolStats {
        PoolStats::default()
    }
}

/// Per-thread handle of a [`Pool`].
///
/// A pool thread handle is also a [`ReclaimSink`]: reclaimers push reclaimed records (or
/// whole blocks of them) straight into the pool.
pub trait PoolThread<T>: ReclaimSink<T> {
    /// Takes a recycled record out of the pool, if one is available.  The record's previous
    /// value is still in place; the caller is responsible for replacing it.
    fn try_take(&mut self) -> Option<NonNull<T>>;

    /// Allocates a record containing `value`, preferring to recycle one from the pool and
    /// falling back to `alloc`.
    fn allocate<A: AllocatorThread<T>>(&mut self, value: T, alloc: &mut A) -> NonNull<T> {
        match self.try_take() {
            Some(record) => {
                // SAFETY: a record in the pool is reachable by no thread (the reclaimer
                // established that before handing it to the sink), still holds the valid
                // value it had when it was retired, and we have exclusive access to it.
                unsafe {
                    std::ptr::drop_in_place(record.as_ptr());
                    std::ptr::write(record.as_ptr(), value);
                }
                record
            }
            None => alloc.allocate(value),
        }
    }

    /// Gives a record (with a valid value, no longer reachable by anyone) to the pool.
    /// Depending on the pool's policy it is cached for reuse or freed through `alloc`.
    ///
    /// # Safety
    ///
    /// Same conditions as [`AllocatorThread::deallocate`].
    unsafe fn deallocate<A: AllocatorThread<T>>(&mut self, record: NonNull<T>, alloc: &mut A);

    /// Number of records currently cached by this thread's local pool bag.
    fn cached(&self) -> usize;

    /// Moves locally cached records to the pool's shared structures (called when the thread
    /// handle is dropped so that no record is lost).
    fn flush_to_shared(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_records_and_blocks() {
        let mut sink = CountingSink::default();
        let mut b: Box<Block<u64>> = Block::with_capacity(4);
        for i in 0..4usize {
            b.push(NonNull::new((i * 8 + 8) as *mut u64).unwrap());
        }
        ReclaimSink::<u64>::accept(&mut sink, NonNull::new(1024 as *mut u64).unwrap());
        ReclaimSink::<u64>::accept_block(&mut sink, b);
        assert_eq!(sink.accepted, 5);
    }

    #[test]
    fn registration_error_display() {
        let e = RegistrationError::ThreadIdOutOfRange { tid: 9, max_threads: 4 };
        assert!(e.to_string().contains('9'));
        let e = RegistrationError::AlreadyRegistered { tid: 3 };
        assert!(e.to_string().contains('3'));
    }
}
