//! Version-based reclamation (VBR): announcement-free optimistic reads over a
//! type-stable page pool.
//!
//! Every scheme in this repo so far pays a *store* on the read path: EBR-family
//! schemes publish an epoch announcement per operation, hazard-pointer-family
//! schemes publish a per-record reservation per step, and IBR publishes an era
//! interval.  VBR pays none.  A reader begins an operation by *loading* the
//! global version clock into a private, thread-local `op_version` — no shared
//! store, no fence — and thereafter validates instead of announcing:
//!
//! * **Clock.**  A single global version counter ([`Vbr::current_version`]),
//!   advanced by retiring threads (every [`VbrConfig::epoch_freq`] retires) and
//!   time-throttled ([`VbrConfig::min_tick_nanos`]) so validation failures are
//!   bounded in frequency, not just in count.
//! * **Birth versions.**  [`ReclaimerThread::record_allocated`] stamps each
//!   record's birth version into the `birth` word of its record header
//!   ([`debra::header_of`], [`Vbr::birth_version`]).  A checkpoint that
//!   observes a clock tick distrusts any record born after its snapshot.
//! * **Retire versions.**  [`ReclaimerThread::retire`] tags the record with the
//!   current clock value and parks it in a version-keyed limbo batch.  A batch
//!   retired at version `r` is handed to the sink only once the clock reaches
//!   `r + 2`: every reader that could still reach the record (snapshot `v <= r`)
//!   has become stale by then, and stale readers fail their next checkpoint.
//! * **Checkpoints.**  [`ReclaimerThread::check`] and
//!   [`ReclaimerThread::protect`] compare the clock against `op_version`.  Same
//!   version: nothing was retired-and-recycled since the snapshot, the read is
//!   trivially consistent and costs one shared load.  One tick elapsed: the
//!   link word is re-validated and the record's birth version is required to
//!   not postdate the snapshot; a refusal there spends the snapshot, so the
//!   next `check` fails as if stale.  Two ticks: the reader is *stale* —
//!   `protect` refuses and `check` returns [`Neutralized`], which the guard
//!   layer turns into a typed [`Restart`](debra::Restart); the operation
//!   re-pins with a fresh snapshot and retries.
//!
//! # Why this needs a type-stable allocator
//!
//! Between two checkpoints a stale reader may dereference a record that has
//! already been recycled.  That is *machine-safe* only because recycling under
//! VBR returns the slot to a never-unmapping, never-re-typing page pool
//! ([`smr-pagepool`]): the load hits valid memory of the right type and the
//! next checkpoint discards the operation before the stale value can be acted
//! on.  The scheme therefore declares
//! [`AllocatorRequirement::TypeStable`] and [`RecordManager`] registration
//! panics for any allocator without [`Allocator::TYPE_STABLE`].  (Full VBR as
//! published by Sheffi, Herlihy and Petrank closes the remaining
//! checkpoint-to-CAS window with versioned wide CAS on every link; this
//! reproduction keeps the paper's record-manager API — plain word-sized links —
//! and instead bounds the window by time-throttling the clock, documents it,
//! and lets the sanitizer's validation-aware shadow model audit it.)
//!
//! [`smr-pagepool`]: ../smr_pagepool/index.html
//! [`AllocatorRequirement::TypeStable`]: debra::AllocatorRequirement
//! [`Allocator::TYPE_STABLE`]: debra::Allocator::TYPE_STABLE
//! [`RecordManager`]: debra::RecordManager
//! [`Neutralized`]: neutralize::Neutralized

use std::collections::VecDeque;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam_utils::CachePadded;
use debra::{
    header_of, AllocatorRequirement, CodeModifications, ReadProtection, ReclaimSink, Reclaimer,
    ReclaimerStats, ReclaimerThread, RegistrationError, SchemeProperties, Termination,
    ThreadStatsSlot, TimingAssumptions,
};
use neutralize::Neutralized;

/// Tuning knobs for [`Vbr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VbrConfig {
    /// Attempt a clock tick every this many retires on a thread (and on every
    /// operation start while the thread has limbo batches waiting for the clock).
    pub epoch_freq: usize,
    /// Minimum nanoseconds between clock ticks.  The throttle bounds how often a
    /// long-running reader can be forced to restart: going stale takes two ticks,
    /// i.e. at least `2 * min_tick_nanos` of wall-clock time.  `0` disables the
    /// throttle (used by tests for determinism).
    pub min_tick_nanos: u64,
    /// The clock value threads start from.  Version 0 is reserved as "born
    /// before any operation", so the clock starts at 1.
    pub initial_version: u64,
    /// Probe the time throttle (a `clock_gettime` call) only every this many
    /// pins while limbo is waiting.  Keeps the per-operation pin at one shared
    /// load on the common path; at default op rates the probe still fires many
    /// times per `min_tick_nanos` window, so reclamation latency is unchanged.
    pub pin_probe_period: u32,
}

impl Default for VbrConfig {
    fn default() -> Self {
        VbrConfig {
            epoch_freq: 32,
            min_tick_nanos: 100_000, // 100µs: stale restarts need >= 200µs of delay
            initial_version: 1,
            pin_probe_period: 64,
        }
    }
}

impl VbrConfig {
    /// A deterministic configuration for tests: every retire attempts a tick,
    /// every pin probes, and the throttle is off, so the clock is driven purely
    /// by retire counts and explicit [`Vbr::advance_version`] calls.
    pub fn tiny() -> Self {
        VbrConfig { epoch_freq: 1, min_tick_nanos: 0, pin_probe_period: 1, ..VbrConfig::default() }
    }
}

/// One version-keyed batch of retired records.
struct Batch<T> {
    /// Clock value at retire time; the batch is reclaimable once the clock
    /// reaches `version + 2`.
    version: u64,
    records: Vec<NonNull<T>>,
}

/// Shared state of the VBR scheme: the global version clock and per-thread
/// bookkeeping.  Birth versions live in each record's header.
pub struct Vbr<T> {
    /// The global version clock.  Monotonic; saturates at `u64::MAX` (at which
    /// point reclamation of new garbage stops but safety is preserved, mirroring
    /// IBR's era saturation).
    clock: CachePadded<AtomicU64>,
    /// Throttle state: nanoseconds (since `tick_origin`) of the last clock tick.
    last_tick_nanos: CachePadded<AtomicU64>,
    tick_origin: Instant,
    stats: Box<[CachePadded<ThreadStatsSlot>]>,
    registered: Box<[AtomicBool]>,
    /// Limbo batches handed back by exiting threads; adopted by `drain_orphans`.
    orphans: Mutex<Vec<NonNull<T>>>,
    config: VbrConfig,
    max_threads: usize,
}

impl<T> Vbr<T> {
    /// Current value of the global version clock.
    pub fn current_version(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Forces a clock tick, bypassing the retire-count and time throttles.
    /// Exposed for tests (deterministic staleness) and the sanitizer harness.
    pub fn advance_version(&self) -> u64 {
        let cur = self.clock.load(Ordering::SeqCst);
        if cur == u64::MAX {
            return cur;
        }
        match self.clock.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => cur + 1,
            Err(now) => now,
        }
    }

    /// The birth version stamped into `record`'s header by its last allocation
    /// (`0` for a slot never allocated under VBR).
    ///
    /// # Safety
    ///
    /// `record` must come from the Record Manager's allocator (see
    /// [`debra::header_of`]); any slot of the type-stable page store qualifies,
    /// recycled or not.
    pub unsafe fn birth_version(&self, record: NonNull<T>) -> u64 {
        // SAFETY: forwarded to the caller.
        unsafe { header_of(record) }.birth.load(Ordering::Acquire)
    }

    /// Attempts one clock tick, subject to the time throttle.  Returns `true`
    /// if this call advanced the clock.
    fn try_tick(&self, tid: usize) -> bool {
        if self.config.min_tick_nanos > 0 {
            let now = self.tick_origin.elapsed().as_nanos() as u64;
            let last = self.last_tick_nanos.load(Ordering::Relaxed);
            if now.saturating_sub(last) < self.config.min_tick_nanos {
                return false;
            }
            if self
                .last_tick_nanos
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                return false; // another thread owns this throttle window
            }
        }
        let cur = self.clock.load(Ordering::SeqCst);
        if cur == u64::MAX {
            return false;
        }
        let advanced =
            self.clock.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok();
        if advanced {
            self.stats[tid].epochs_advanced.fetch_add(1, Ordering::Relaxed);
        }
        advanced
    }

    /// Hands back records stranded in the orphan list by exited threads.
    /// Caller takes ownership; records are already past their grace period or
    /// the pool is being torn down.
    pub fn drain_orphans(&self) -> Vec<NonNull<T>> {
        std::mem::take(&mut *self.orphans.lock().unwrap())
    }
}

// SAFETY: the shared state is all atomics, a mutex, and immutable configuration;
// the raw record pointers in `orphans` are owned retired records (no aliasing
// mutable access) and `T: Send` lets them migrate threads.
unsafe impl<T: Send> Send for Vbr<T> {}
unsafe impl<T: Send> Sync for Vbr<T> {}

impl<T: Send + 'static> Reclaimer<T> for Vbr<T> {
    type Thread = VbrThread<T>;

    // Stale readers dereference recycled slots between checkpoints; only a
    // never-unmapping, never-re-typing allocator makes that machine-safe.
    const ALLOCATOR_REQUIREMENT: AllocatorRequirement = AllocatorRequirement::TypeStable;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, VbrConfig::default())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        if tid >= this.max_threads {
            return Err(RegistrationError::ThreadIdOutOfRange {
                tid,
                max_threads: this.max_threads,
            });
        }
        if this.registered[tid]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(RegistrationError::AlreadyRegistered { tid });
        }
        Ok(VbrThread {
            global: Arc::clone(this),
            tid,
            op_version: this.config.initial_version,
            refused: false,
            quiescent: true,
            limbo: VecDeque::new(),
            limbo_len: 0,
            retires_since_tick: 0,
            pins_since_probe: 0,
            ops_pending: 0,
        })
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    fn name() -> &'static str {
        "VBR"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "VBR",
            code_modifications: CodeModifications {
                per_accessed_record: false, // no per-record announcements: the win
                per_operation: true,        // one clock load into a private snapshot
                per_retired_record: true,   // version tag + limbo batching
                other: "requires a type-stable allocator; stale readers restart (typed Restart)",
            },
            timing_assumptions: TimingAssumptions::None,
            fault_tolerant: true, // a crashed reader publishes nothing, blocks nothing
            termination: Termination::WaitFree,
            can_traverse_retired_to_retired: true,
        }
    }

    fn stats(&self) -> ReclaimerStats {
        let mut agg = ReclaimerStats::default();
        for s in self.stats.iter() {
            s.snapshot_into(&mut agg);
        }
        agg
    }
}

impl<T: Send + 'static> Vbr<T> {
    /// Creates the shared state with an explicit configuration.
    pub fn with_config(max_threads: usize, config: VbrConfig) -> Self {
        assert!(max_threads > 0);
        assert!(config.epoch_freq > 0, "epoch_freq must be positive");
        assert!(config.pin_probe_period > 0, "pin_probe_period must be positive");
        Vbr {
            clock: CachePadded::new(AtomicU64::new(config.initial_version)),
            last_tick_nanos: CachePadded::new(AtomicU64::new(0)),
            tick_origin: Instant::now(),
            stats: (0..max_threads).map(|_| CachePadded::new(ThreadStatsSlot::default())).collect(),
            registered: (0..max_threads).map(|_| AtomicBool::new(false)).collect(),
            orphans: Mutex::new(Vec::new()),
            config,
            max_threads,
        }
    }
}

impl<T> fmt::Debug for Vbr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vbr")
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .field("max_threads", &self.max_threads)
            .field("config", &self.config)
            .finish()
    }
}

/// Per-thread handle of [`Vbr`].
pub struct VbrThread<T> {
    global: Arc<Vbr<T>>,
    tid: usize,
    /// Private snapshot of the clock, taken at `leave_qstate`.  Never published.
    op_version: u64,
    /// A `protect` was refused on the one-tick validate path since the snapshot was
    /// taken; the next `check` restarts the operation.  See [`Self::protect_cold`].
    refused: bool,
    quiescent: bool,
    /// Version-keyed limbo batches, oldest first.  A batch is reclaimable when
    /// `clock - batch.version >= 2`.
    limbo: VecDeque<Batch<T>>,
    limbo_len: usize,
    retires_since_tick: usize,
    /// Pins since the last time-throttle probe; see [`VbrConfig::pin_probe_period`].
    pins_since_probe: u32,
    /// Locally batched operation count, flushed to the shared stats slot every
    /// [`OPS_FLUSH_PERIOD`] pins and on drop — an RMW on the shared slot every
    /// pin would put back the kind of per-operation shared write this scheme
    /// exists to avoid.
    ops_pending: u64,
}

/// Flush period for the locally batched operation counter.
const OPS_FLUSH_PERIOD: u64 = 64;

impl<T> VbrThread<T> {
    /// The clock snapshot the current operation is running against.
    pub fn op_version(&self) -> u64 {
        self.op_version
    }

    fn stats(&self) -> &ThreadStatsSlot {
        &self.global.stats[self.tid]
    }

    /// `clock - op_version`: 0 = fresh, 1 = validate, >= 2 = stale.  The clock
    /// is monotonic and `op_version` was loaded from it, so plain subtraction
    /// cannot underflow — and saturation at `u64::MAX` falls out naturally
    /// (a reader pinned at `MAX` or `MAX - 1` can never see age >= 2, matching
    /// the fact that batches retired at `MAX - 1` or later are never recycled).
    fn age(&self, clock: u64) -> u64 {
        clock - self.op_version
    }

    /// `clock` is a value of the global clock the caller already loaded; a
    /// slightly stale value only delays a batch to the next drain, never frees
    /// one early (the clock is monotonic).
    fn drain_reclaimable<S: ReclaimSink<T>>(&mut self, clock: u64, sink: &mut S) {
        let mut reclaimed = 0u64;
        while let Some(front) = self.limbo.front() {
            if clock - front.version < 2 {
                break;
            }
            let batch = self.limbo.pop_front().expect("front() was Some");
            self.limbo_len -= batch.records.len();
            reclaimed += batch.records.len() as u64;
            // The batch was retired at `batch.version` and the clock has since
            // advanced by >= 2, so every thread whose snapshot could reach these
            // records is stale and will be refused at its next checkpoint before
            // trusting any value read from them.
            for record in batch.records {
                sink.accept(record);
            }
        }
        if reclaimed > 0 {
            let stats = self.stats();
            ThreadStatsSlot::bump(&stats.reclaimed, reclaimed);
            stats.publish_limbo(self.limbo_len as u64, std::mem::size_of::<T>() as u64);
        }
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for VbrThread<T> {
    // Reads are neither announced nor covered by a pin: they are validated at
    // checkpoints against the version clock, and stale readers restart.
    const READ_PROTECTION: ReadProtection = ReadProtection::Validate;

    fn tid(&self) -> usize {
        self.tid
    }

    fn leave_qstate<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> bool {
        self.quiescent = false;
        self.ops_pending += 1;
        if self.ops_pending >= OPS_FLUSH_PERIOD {
            ThreadStatsSlot::bump(&self.stats().operations, self.ops_pending);
            self.ops_pending = 0;
        }
        let mut v = self.global.clock.load(Ordering::SeqCst);
        if !self.limbo.is_empty() {
            // Retire-driven ticking starves a thread that retired a few records
            // and then went read-only; nudge the clock from the operation path
            // while this thread still has limbo waiting on it.  Probing the time
            // throttle costs a `clock_gettime`, so only every
            // `pin_probe_period`-th pin pays it — at per-op rates far above
            // `min_tick_nanos` the probe still lands many times per window.
            self.pins_since_probe += 1;
            if self.pins_since_probe >= self.global.config.pin_probe_period {
                self.pins_since_probe = 0;
                if self.global.try_tick(self.tid) {
                    v = self.global.clock.load(Ordering::SeqCst);
                }
            }
            if self.limbo.front().is_some_and(|front| v - front.version >= 2) {
                self.drain_reclaimable(v, sink);
            }
        }
        let changed = v != self.op_version;
        self.op_version = v;
        self.refused = false;
        changed
    }

    fn enter_qstate(&mut self) {
        self.quiescent = true;
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    fn record_allocated(&mut self, record: NonNull<T>) {
        // Stamp the birth version into the record's own header: one store, no
        // other record shares the word.  Release pairs with `protect_cold`'s
        // Acquire load.
        let clock = self.global.clock.load(Ordering::SeqCst);
        // SAFETY: the Record Manager hands this hook records its allocator just
        // produced.
        unsafe { header_of(record) }.birth.store(clock, Ordering::Release);
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, sink: &mut S) {
        debug_assert!(!self.quiescent, "retire requires a non-quiescent thread");
        let mut clock = self.global.clock.load(Ordering::SeqCst);
        match self.limbo.back_mut() {
            Some(batch) if batch.version == clock => batch.records.push(record),
            _ => self.limbo.push_back(Batch { version: clock, records: vec![record] }),
        }
        self.limbo_len += 1;
        let stats = self.stats();
        ThreadStatsSlot::bump(&stats.retired, 1);
        stats.publish_limbo(self.limbo_len as u64, std::mem::size_of::<T>() as u64);
        self.retires_since_tick += 1;
        if self.retires_since_tick >= self.global.config.epoch_freq {
            self.retires_since_tick = 0;
            if self.global.try_tick(self.tid) {
                clock = self.global.clock.load(Ordering::SeqCst);
            }
        }
        if self.limbo.front().is_some_and(|front| clock - front.version >= 2) {
            self.drain_reclaimable(clock, sink);
        }
    }

    fn protect<F: FnMut() -> bool>(
        &mut self,
        _slot: usize,
        record: NonNull<T>,
        validate: F,
    ) -> bool {
        let clock = self.global.clock.load(Ordering::Acquire);
        if self.age(clock) == 0 {
            // Fast path — the overwhelmingly common one with a throttled clock:
            // no tick since the snapshot means nothing retired after the
            // snapshot has been recycled, so any record this operation can
            // reach is intact.  One shared load, no store, no validate call.
            // The non-zero tail is outlined so traversal loops inline only
            // this load-compare-branch (the tail would otherwise widen every
            // protect site by the validate closure and the stats bump).
            return true;
        }
        self.protect_cold(clock, record, validate)
    }

    fn check(&self) -> Result<(), Neutralized> {
        if self.refused || self.age(self.global.clock.load(Ordering::Acquire)) >= 2 {
            self.check_cold();
            return Err(Neutralized);
        }
        Ok(())
    }
}

impl<T: Send + 'static> VbrThread<T> {
    /// The non-fresh tail of [`ReclaimerThread::protect`], kept out of the
    /// inlined hot path.  `clock` is the value the fast path already loaded.
    #[cold]
    #[inline(never)]
    fn protect_cold<F: FnMut() -> bool>(
        &mut self,
        clock: u64,
        record: NonNull<T>,
        mut validate: F,
    ) -> bool {
        if self.age(clock) >= 2 {
            // Stale: some batch retired after our snapshot may already be
            // recycled.  Refuse; the guard layer converts this into a typed
            // Restart and the operation re-pins.
            self.stats().epoch_stalls.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Exactly one tick elapsed.  Nothing is recycled yet (that takes two),
        // but re-establish consistency before the window can close mid-read:
        // the link word must still lead here, the record must not have been
        // born after our snapshot (a recycled slot re-allocated since), and
        // the clock must still be within the window after both checks.
        // SAFETY: `record` was reached through the structure, so it is a slot of
        // the type-stable page store this scheme requires — mapped forever, even
        // if it has been recycled since.
        let valid = validate()
            && unsafe { self.global.birth_version(record) } <= self.op_version
            && self.age(self.global.clock.load(Ordering::Acquire)) < 2;
        // A refusal here does not go away by retrying under the same snapshot: a
        // record born after it stays distrusted until the clock ticks once more, and
        // only retires tick the clock — a thread whose peers have stopped would spin
        // on it forever.  So the snapshot is spent: the next checkpoint restarts the
        // operation, and the re-pin takes a fresh one.
        self.refused |= !valid;
        valid
    }

    /// Stats bump for a failed [`ReclaimerThread::check`] (stale, or a spent
    /// snapshot after a refused one-tick `protect`), outlined like
    /// [`Self::protect_cold`].
    #[cold]
    #[inline(never)]
    fn check_cold(&self) {
        self.stats().epoch_stalls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T> Drop for VbrThread<T> {
    fn drop(&mut self) {
        if self.ops_pending > 0 {
            ThreadStatsSlot::bump(&self.stats().operations, self.ops_pending);
            self.ops_pending = 0;
        }
        // Hand unreclaimed limbo to the global orphan list (the pool adopts it
        // at teardown) and free the registration slot.
        let mut leftover: Vec<NonNull<T>> = Vec::with_capacity(self.limbo_len);
        for batch in self.limbo.drain(..) {
            leftover.extend(batch.records);
        }
        if !leftover.is_empty() {
            self.global.orphans.lock().unwrap().extend(leftover);
        }
        self.stats().publish_limbo(0, std::mem::size_of::<T>() as u64);
        self.global.registered[self.tid].store(false, Ordering::SeqCst);
    }
}

impl<T> fmt::Debug for VbrThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VbrThread")
            .field("tid", &self.tid)
            .field("op_version", &self.op_version)
            .field("limbo_len", &self.limbo_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::{CountingSink, Headed};

    fn leak(v: u64) -> NonNull<u64> {
        Headed::boxed(v)
    }

    fn free(record: NonNull<u64>) {
        unsafe { Headed::drop_boxed(record) };
    }

    /// A sink that frees what it accepts (test records come from `leak`).
    #[derive(Default)]
    struct FreeingSink {
        accepted: usize,
    }
    impl ReclaimSink<u64> for FreeingSink {
        fn accept(&mut self, record: NonNull<u64>) {
            self.accepted += 1;
            free(record);
        }
    }

    fn vbr(threads: usize) -> Arc<Vbr<u64>> {
        Arc::new(Vbr::with_config(threads, VbrConfig::tiny()))
    }

    fn free_orphans(v: &Vbr<u64>) {
        for r in v.drain_orphans() {
            free(r);
        }
    }

    #[test]
    fn reclaims_after_two_ticks() {
        let v = vbr(1);
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = FreeingSink::default();
        let _ = t.leave_qstate(&mut sink);
        let r = leak(1);
        unsafe { t.retire(r, &mut sink) }; // epoch_freq=1: the retire itself ticks once
        assert_eq!(sink.accepted, 0, "one tick is not enough");
        v.advance_version();
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert_eq!(sink.accepted, 1, "clock reached retire version + 2");
        let stats = v.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn stale_reader_fails_checkpoints() {
        let v = vbr(1);
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let _ = t.leave_qstate(&mut sink);
        let r = leak(7);
        assert!(t.check().is_ok());
        assert!(t.protect(0, r, || true), "fresh snapshot: fast path");
        v.advance_version();
        // One tick: protect falls back to validation, check still passes.
        assert!(t.check().is_ok());
        assert!(t.protect(0, r, || true), "one tick: validated read passes");
        assert!(!t.protect(0, r, || false), "one tick: failed link validation refuses");
        v.advance_version();
        // Two ticks: stale, every checkpoint refuses.
        assert!(t.check().is_err(), "stale reader is neutralized at check()");
        assert!(!t.protect(0, r, || true), "stale reader cannot protect");
        assert!(v.stats().epoch_stalls >= 2);
        // Re-pinning clears staleness.
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert!(t.check().is_ok());
        assert!(t.protect(0, r, || true));
        free(r);
    }

    #[test]
    fn one_tick_rejects_records_born_after_snapshot() {
        let v = vbr(1);
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let _ = t.leave_qstate(&mut sink);
        let pinned_at = t.op_version();
        v.advance_version();
        let fresh = leak(9);
        t.record_allocated(fresh); // born at pinned_at + 1
        assert!(unsafe { v.birth_version(fresh) } > pinned_at);
        assert!(
            !t.protect(0, fresh, || true),
            "a record born after the snapshot is distrusted on the validate path"
        );
        free(fresh);
    }

    /// Regression for a single-thread livelock: a record born after the snapshot stays
    /// unprotectable until the clock ticks again, and a reader whose peers have stopped
    /// retiring never sees that tick.  The refusal must make the next checkpoint restart
    /// the operation, and the re-pin's fresh snapshot must then trust the record.
    #[test]
    fn a_refused_one_tick_protect_restarts_at_the_next_check() {
        let v = vbr(1);
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let _ = t.leave_qstate(&mut sink);
        v.advance_version();
        let fresh = leak(9);
        t.record_allocated(fresh);
        assert!(t.check().is_ok(), "one tick alone does not restart");
        assert!(!t.protect(0, fresh, || true));
        assert!(t.check().is_err(), "the refused snapshot is spent");
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert!(t.check().is_ok(), "re-pinning takes a fresh snapshot");
        assert!(t.protect(0, fresh, || true));
        free(fresh);
    }

    #[test]
    fn birth_versions_are_monotone_per_slot() {
        let v = vbr(1);
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let _ = t.leave_qstate(&mut sink);
        let r = leak(3);
        t.record_allocated(r);
        let first = unsafe { v.birth_version(r) };
        assert!(first >= 1);
        v.advance_version();
        v.advance_version();
        // Same slot "re-allocated" later must carry a later (or equal) birth.
        t.record_allocated(r);
        let second = unsafe { v.birth_version(r) };
        assert!(second > first, "rebirth advances the birth version ({first} -> {second})");
        // Birth precedes retire version.
        unsafe { t.retire(r, &mut sink) };
        assert!(second <= v.current_version());
    }

    #[test]
    fn retire_batches_are_keyed_by_version() {
        // Throttle out every autonomous tick so `advance_version` alone drives
        // the clock and the drain points are deterministic.
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(
            1,
            VbrConfig { epoch_freq: 1000, min_tick_nanos: u64::MAX / 4, ..VbrConfig::default() },
        ));
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = FreeingSink::default();
        let _ = t.leave_qstate(&mut sink);
        unsafe { t.retire(leak(1), &mut sink) };
        unsafe { t.retire(leak(2), &mut sink) }; // same version: same batch
        v.advance_version();
        unsafe { t.retire(leak(3), &mut sink) }; // new version: new batch
        assert_eq!(t.limbo.len(), 2, "two version-keyed batches");
        v.advance_version();
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert_eq!(sink.accepted, 2, "only the first batch is two ticks old");
        v.advance_version();
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert_eq!(sink.accepted, 3);
    }

    #[test]
    fn clock_saturates_and_stops_reclaiming_new_garbage() {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(
            1,
            VbrConfig { initial_version: u64::MAX - 1, ..VbrConfig::tiny() },
        ));
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        assert_eq!(v.advance_version(), u64::MAX);
        assert_eq!(v.advance_version(), u64::MAX, "clock saturates");
        let _ = t.leave_qstate(&mut sink);
        let r = leak(4);
        unsafe { t.retire(r, &mut sink) };
        t.enter_qstate();
        let _ = t.leave_qstate(&mut sink);
        assert_eq!(sink.accepted, 0, "garbage retired at MAX is never recycled");
        assert!(t.check().is_ok(), "a reader pinned at MAX can never go stale");
        drop(t);
        free_orphans(&v);
    }

    #[test]
    fn time_throttle_bounds_tick_rate() {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(
            1,
            VbrConfig { epoch_freq: 1, min_tick_nanos: u64::MAX / 4, ..VbrConfig::default() },
        ));
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let start = v.current_version();
        let _ = t.leave_qstate(&mut sink);
        for i in 0..64 {
            unsafe { t.retire(leak(i), &mut sink) };
        }
        assert_eq!(v.current_version(), start, "throttle held the clock still");
        drop(t);
        free_orphans(&v);
    }

    #[test]
    fn concurrent_retirers_keep_clock_monotone() {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(4, VbrConfig::tiny()));
        let start = v.current_version();
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    let mut t = Vbr::register(&v, tid).unwrap();
                    let mut sink = FreeingSink::default();
                    let mut last = v.current_version();
                    for i in 0..500u64 {
                        let _ = t.leave_qstate(&mut sink);
                        unsafe { t.retire(leak(i), &mut sink) };
                        let now = v.current_version();
                        assert!(now >= last, "clock went backwards: {last} -> {now}");
                        last = now;
                        t.enter_qstate();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(v.current_version() > start);
        free_orphans(&v);
        let stats = v.stats();
        assert_eq!(stats.retired, 2000);
        assert!(stats.epochs_advanced > 0);
    }

    #[test]
    fn registration_lifecycle_and_properties() {
        let v = vbr(2);
        let t0 = Vbr::register(&v, 0).unwrap();
        assert!(matches!(
            Vbr::register(&v, 0),
            Err(RegistrationError::AlreadyRegistered { tid: 0 })
        ));
        assert!(matches!(
            Vbr::register(&v, 9),
            Err(RegistrationError::ThreadIdOutOfRange { tid: 9, .. })
        ));
        drop(t0);
        assert!(Vbr::register(&v, 0).is_ok());

        let p = <Vbr<u64> as Reclaimer<u64>>::properties();
        assert!(!p.code_modifications.per_accessed_record, "announcement-free reads");
        assert!(p.fault_tolerant);
        assert!(matches!(
            <Vbr<u64> as Reclaimer<u64>>::ALLOCATOR_REQUIREMENT,
            AllocatorRequirement::TypeStable
        ));
        assert!(matches!(
            <VbrThread<u64> as ReclaimerThread<u64>>::READ_PROTECTION,
            ReadProtection::Validate
        ));
    }

    #[test]
    fn orphans_are_handed_back_on_thread_exit() {
        let v: Arc<Vbr<u64>> = Arc::new(Vbr::with_config(
            1,
            VbrConfig { epoch_freq: 1000, min_tick_nanos: 0, ..VbrConfig::default() },
        ));
        let mut t = Vbr::register(&v, 0).unwrap();
        let mut sink = CountingSink::default();
        let _ = t.leave_qstate(&mut sink);
        for i in 0..5 {
            unsafe { t.retire(leak(i), &mut sink) };
        }
        drop(t);
        let orphans = v.drain_orphans();
        assert_eq!(orphans.len(), 5, "unreclaimed limbo is orphaned, not leaked");
        for r in orphans {
            free(r);
        }
        assert_eq!(v.stats().pending, 0, "limbo gauge cleared on exit");
    }
}
