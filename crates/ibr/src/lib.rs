//! Interval-based reclamation (IBR) for the Record Manager trait family.
//!
//! This crate implements a 2GEIBR-style scheme in the spirit of Wen, Izraelevitz, Wang,
//! Jones & Scott, *"Interval-Based Memory Reclamation"* (PPoPP 2018) — the tagged-epoch
//! family that also underlies VBR (Sheffi, Herlihy & Petrank, 2021) and Cohen's robust
//! reclamation line — adapted to the [`Reclaimer`]/[`ReclaimerThread`] traits of the
//! `debra` crate so it can be swapped into any data structure by changing one type
//! parameter:
//!
//! * A **global era clock** advances every [`IbrConfig::era_freq`] allocations/retirements.
//! * Every record carries a **birth era** (stamped on allocation, via the Record Manager's
//!   [`record_allocated`](ReclaimerThread::record_allocated) hook) and a **retire era**
//!   (stamped on [`retire`](ReclaimerThread::retire)); together they form the record's
//!   *lifetime interval* `[birth, retire]`.
//! * Every thread publishes a **reservation interval** `[lower, upper]`:
//!   [`leave_qstate`](ReclaimerThread::leave_qstate) sets both bounds to the current era,
//!   and each [`check`](ReclaimerThread::check) / [`protect`](ReclaimerThread::protect)
//!   checkpoint extends `upper` to the era observed there.
//! * A retired record is handed to the [`ReclaimSink`] only when its lifetime interval is
//!   **disjoint from every active reservation** — the 2GEIBR test — and then at once:
//!   full blocks whole and the rest one record at a time, exactly like DEBRA's rotation.
//!
//! The decisive property over plain EBR/DEBRA: a **stalled thread only pins records whose
//! lifetime overlaps its reservation**.  Records born after the straggler's reservation
//! are reclaimed immediately, so garbage stays bounded under stalls *without* the OS
//! signals DEBRA+ needs (fault tolerance by interval arithmetic rather than
//! neutralization).
//!
//! # Why `check()` is the read checkpoint
//!
//! The data structures in `lockfree-ds` call [`check`](ReclaimerThread::check) before
//! every shared-record dereference (that is the DEBRA+ checkpoint discipline).  IBR
//! piggybacks on exactly those checkpoints to extend the reservation's upper bound, which
//! is the per-read tag update the IBR papers require ("per accessed record" in the
//! Figure 2 taxonomy) — no additional data structure modifications are needed beyond what
//! DEBRA+ already demanded.
//!
//! # Safety argument (sketch)
//!
//! A thread `T` can only dereference a record `R` it reached from a data structure entry
//! point during its current operation, and the structures announce each such step through
//! [`protect`](ReclaimerThread::protect) with a link-revalidation closure.  IBR's
//! `protect` is the 2GEIBR *validating read*: it publishes `upper ≥ era`, re-validates
//! the link, and retries unless the era was stable across the validation.  A successful
//! protect at stable era `e` therefore proves `R` was still linked — hence unretired —
//! at a moment when `T`'s published reservation already covered every birth era up to
//! `e ≥ birth(R)`.  Retirement happens strictly after unlinking, so `retire(R) ≥ e ≥
//! T.lower`.  Hence `[birth, retire]` intersects `[T.lower, T.upper]` from before `R`
//! could be freed until `T`'s operation ends, and the scan will not free it.  (Torn reads
//! of a reservation being *opened* are benign: a record freed during that window was
//! already unlinked, so the opening thread cannot reach it; reads of a reservation being
//! *closed* only make the scan more conservative.)
//!
//! # The scan re-tests only what can have become free
//!
//! A thread's retired records sit in one of three places:
//!
//! * **limbo** — retired since the last scan, not yet tested;
//! * **held** — survivors of a scan, filed under the reservation that pinned them:
//!   group `u` holds records whose interval overlapped thread `u`'s reservation while its
//!   lower bound was the group's `lower`;
//! * **ready** — records a scan found disjoint from every reservation, gathered into
//!   blocks; the scan hands all of them to the sink before it returns.
//!
//! Every [`IbrConfig::scan_freq`] retires, a scan snapshots the reservations into a
//! buffer the thread allocated at registration, tests the limbo records, and re-tests a
//! held group only if its reservation has closed or re-opened at another lower bound.
//! That is sound because a reservation whose lower bound is unchanged can only have
//! widened: `leave_qstate` re-opening at the same `lower` means the era has not moved
//! past `lower` since, so the old `upper` was `lower` too.  A group whose reservation
//! still stands therefore still overlaps every record in it, and testing it again could
//! free nothing.  A survivor is filed under the overlapping reservation with the smallest
//! lower bound — the oldest, so the one likeliest to stay open — and under another
//! thread's rather than this thread's own on a tie.
//!
//! Under a stalled reader the scan's work is thus proportional to the records retired
//! since the last scan, not to the backlog the laggard pins; the backlog is re-tested
//! once, when the laggard's operation ends.
//!
//! # Era wraparound
//!
//! Eras are 64-bit and advance at most once per `era_freq` record operations, so physical
//! wraparound would take centuries.  Defensively, the clock **saturates** at `u64::MAX`
//! instead of wrapping: reclamation stops making progress past that point (every interval
//! then intersects every reservation) but safety is preserved.  See
//! `era_saturates_instead_of_wrapping` in the test module.
//!
//! # Implementation note: the era words live in the record header
//!
//! Birth and retire eras are the two words of the [`RecordHeader`](debra::RecordHeader)
//! every allocator of the workspace places in front of a record ([`header_of`]), as
//! production IBR and the VBR paper keep them in the node itself.  Stamping is one atomic
//! store and the scan's test one pair of loads: no table, no hashing, no lock, so no
//! thread can block another inside `record_allocated`, `retire` or a scan.  A header
//! nobody has stamped reads `birth = 0, retire = u64::MAX`, the interval that overlaps
//! every reservation; `record_allocated` stamps `birth` on every allocation, fresh or
//! recycled, and the retire word is read only after `retire` has stamped it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockbag::BlockBag;
use crossbeam_utils::CachePadded;
use debra::{
    header_of, to_sink, CodeModifications, ReclaimSink, Reclaimer, ReclaimerThread,
    RegistrationError, SchemeProperties, Termination, ThreadStatsSlot, ThreadTable,
    TimingAssumptions,
};

/// Reservation slot value meaning "no active reservation" (lower bound).
const INACTIVE_LOWER: u64 = u64::MAX;
/// Reservation slot value meaning "no active reservation" (upper bound).
const INACTIVE_UPPER: u64 = 0;

/// Configuration for [`Ibr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbrConfig {
    /// Advance the global era once per this many allocations + retirements (per thread).
    /// Smaller values tighten the garbage bound at the cost of more clock traffic.
    pub era_freq: usize,
    /// Number of newly retired records that triggers a disjointness scan.  A scan tests
    /// those records (and the held groups whose reservation moved), so its amortized cost
    /// is O(1) per retired record for any value; smaller values trade more reservation
    /// snapshots for less untested garbage.
    pub scan_freq: usize,
    /// Block capacity of the per-thread limbo bags (and of the blocks handed to the sink).
    pub block_capacity: usize,
    /// Starting value of the global era clock (useful for wraparound tests).
    pub initial_era: u64,
}

impl Default for IbrConfig {
    fn default() -> Self {
        IbrConfig {
            era_freq: 32,
            scan_freq: 64,
            block_capacity: blockbag::DEFAULT_BLOCK_CAPACITY,
            initial_era: 1,
        }
    }
}

/// One thread's published reservation interval.
#[derive(Debug)]
struct Reservation {
    lower: AtomicU64,
    upper: AtomicU64,
}

impl Reservation {
    fn inactive() -> Self {
        Reservation { lower: AtomicU64::new(INACTIVE_LOWER), upper: AtomicU64::new(INACTIVE_UPPER) }
    }
}

/// An active reservation as a scan's snapshot saw it.
#[derive(Debug, Clone, Copy)]
struct Pin {
    tid: usize,
    lower: u64,
    upper: u64,
}

impl Pin {
    fn overlaps(&self, birth: u64, retire: u64) -> bool {
        birth <= self.upper && retire >= self.lower
    }
}

/// The reservation a record with lifetime `[birth, retire]` is filed under, if any
/// overlaps it: the one with the smallest lower bound, another thread's before
/// `self_tid`'s own on a tie.
fn pinner(pins: &[Pin], self_tid: usize, birth: u64, retire: u64) -> Option<Pin> {
    let mut best: Option<Pin> = None;
    for &pin in pins {
        if pin.overlaps(birth, retire)
            && best
                .is_none_or(|b| pin.lower < b.lower || (pin.lower == b.lower && b.tid == self_tid))
        {
            best = Some(pin);
        }
    }
    best
}

/// Shared (global) state of the interval-based reclaimer.
pub struct Ibr<T> {
    era: CachePadded<AtomicU64>,
    reservations: Box<[CachePadded<Reservation>]>,
    threads: ThreadTable<T>,
    config: IbrConfig,
}

impl<T: Send + 'static> Ibr<T> {
    /// Creates shared state with a custom configuration.
    pub fn with_config(max_threads: usize, config: IbrConfig) -> Self {
        assert!(config.era_freq > 0 && config.scan_freq > 0);
        Ibr {
            era: CachePadded::new(AtomicU64::new(config.initial_era)),
            threads: ThreadTable::new(max_threads),
            reservations: (0..max_threads)
                .map(|_| CachePadded::new(Reservation::inactive()))
                .collect(),
            config,
        }
    }

    /// Current value of the global era clock.
    pub fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Advances the era clock by one, saturating at `u64::MAX` (see the module docs on
    /// wraparound).  Returns `true` if this thread's CAS moved the clock.
    fn advance_era(&self, tid: usize) -> bool {
        let current = self.era.load(Ordering::SeqCst);
        if current == u64::MAX {
            return false;
        }
        if self
            .era
            .compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            ThreadStatsSlot::bump(&self.threads.stats(tid).epochs_advanced, 1);
            true
        } else {
            // Another thread advanced it; that serves the same purpose.
            false
        }
    }

    /// Writes every active reservation into `out` (cleared first; callers keep one
    /// buffer sized at registration, so a scan does not allocate).
    fn snapshot_reservations(&self, out: &mut Vec<Pin>) {
        out.clear();
        for (tid, r) in self.reservations.iter().enumerate() {
            let lower = r.lower.load(Ordering::SeqCst);
            let upper = r.upper.load(Ordering::SeqCst);
            if lower <= upper {
                out.push(Pin { tid, lower, upper });
            }
        }
    }
}

impl<T: Send + 'static> Reclaimer<T> for Ibr<T> {
    type Thread = IbrThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, IbrConfig::default())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.threads.claim(tid)?;
        this.reservations[tid].lower.store(INACTIVE_LOWER, Ordering::SeqCst);
        this.reservations[tid].upper.store(INACTIVE_UPPER, Ordering::SeqCst);
        let cap = this.config.block_capacity;
        let max_threads = this.threads.max_threads();
        Ok(IbrThread {
            global: Arc::clone(this),
            tid,
            limbo: BlockBag::with_block_capacity(cap),
            ready: BlockBag::with_block_capacity(cap),
            held: (0..max_threads)
                .map(|_| Held { lower: INACTIVE_LOWER, records: Vec::new() })
                .collect(),
            held_len: 0,
            pins: Vec::with_capacity(max_threads),
            retest: Vec::new(),
            ops_since_advance: 0,
            #[cfg(test)]
            header_reads: 0,
        })
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "IBR"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties {
            name: "IBR",
            code_modifications: CodeModifications {
                per_accessed_record: true, // reservation upper bound extends per checkpoint
                per_operation: true,
                per_retired_record: true,
                other: "records carry birth/retire era tags",
            },
            timing_assumptions: TimingAssumptions::None,
            // The interval test bounds the garbage a stalled thread can pin to records
            // whose lifetime overlaps its reservation — without OS signals.
            fault_tolerant: true,
            termination: Termination::WaitFree,
            can_traverse_retired_to_retired: true,
        }
    }
}

impl<T> fmt::Debug for Ibr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ibr")
            .field("era", &self.era.load(Ordering::Relaxed))
            .field("max_threads", &self.threads.max_threads())
            .field("config", &self.config)
            .finish()
    }
}

/// Survivors of earlier scans, all pinned by one thread's reservation.
struct Held<T> {
    /// That reservation's lower bound when the records were filed (`INACTIVE_LOWER`
    /// while the group is empty and the thread quiescent).
    lower: u64,
    records: Vec<NonNull<T>>,
}

/// Per-thread handle of [`Ibr`].
pub struct IbrThread<T: Send + 'static> {
    global: Arc<Ibr<T>>,
    tid: usize,
    /// Records retired since the last scan.
    limbo: BlockBag<T>,
    /// Records a scan found free, gathered into blocks for the sink (empty between scans).
    ready: BlockBag<T>,
    /// `held[u]`: records pinned by thread `u`'s reservation (see the module docs).
    held: Box<[Held<T>]>,
    held_len: usize,
    /// The scan's reservation snapshot, sized at registration.
    pins: Vec<Pin>,
    /// Held records a scan tests again; kept to reuse its capacity.
    retest: Vec<NonNull<T>>,
    ops_since_advance: usize,
    /// Record headers the scans have read.
    #[cfg(test)]
    header_reads: usize,
}

impl<T: Send + 'static> IbrThread<T> {
    /// The shared IBR instance this handle belongs to.
    pub fn global(&self) -> &Arc<Ibr<T>> {
        &self.global
    }

    /// Number of records this thread has retired and not yet handed to the sink.
    pub fn limbo_len(&self) -> usize {
        self.limbo.len() + self.ready.len() + self.held_len
    }

    /// This thread's published reservation, or `None` when quiescent.
    pub fn reservation(&self) -> Option<(u64, u64)> {
        let r = &self.global.reservations[self.tid];
        let lower = r.lower.load(Ordering::SeqCst);
        let upper = r.upper.load(Ordering::SeqCst);
        (lower <= upper).then_some((lower, upper))
    }

    #[inline]
    fn extend_upper(&self) {
        let era = self.global.era.load(Ordering::SeqCst);
        let upper = &self.global.reservations[self.tid].upper;
        if upper.load(Ordering::SeqCst) < era {
            upper.store(era, Ordering::SeqCst);
        }
    }

    fn publish_pending(&self) {
        self.global.threads.publish_limbo(self.tid, self.limbo_len() as u64);
    }

    fn maybe_advance_era(&mut self) {
        self.ops_since_advance += 1;
        if self.ops_since_advance >= self.global.config.era_freq {
            self.ops_since_advance = 0;
            self.global.advance_era(self.tid);
        }
    }

    /// The 2GEIBR scan over the records retired since the last scan and the held groups
    /// whose reservation moved (see the module docs); hands every free record to `sink`.
    fn scan<S: ReclaimSink<T>>(&mut self, sink: &mut S) {
        self.global.snapshot_reservations(&mut self.pins);
        // A held group stays filed while its reservation is open at the same lower
        // bound; a group whose reservation closed or moved is tested again.
        for (tid, group) in self.held.iter_mut().enumerate() {
            let lower = self.pins.iter().find(|p| p.tid == tid).map_or(INACTIVE_LOWER, |p| p.lower);
            if group.lower != lower {
                self.retest.append(&mut group.records);
                group.lower = lower;
            }
        }
        self.held_len -= self.retest.len();

        let mut found_free = false;
        let mut file = |record: NonNull<T>| {
            // SAFETY: a retired record stays allocated until this thread hands it to the
            // sink, and the Record Manager's allocators put a header in front of it.
            let header = unsafe { header_of(record) };
            let birth = header.birth.load(Ordering::Acquire);
            let retire = header.retire.load(Ordering::Relaxed);
            #[cfg(test)]
            {
                self.header_reads += 1;
            }
            match pinner(&self.pins, self.tid, birth, retire) {
                Some(pin) => {
                    self.held[pin.tid].records.push(record);
                    self.held_len += 1;
                }
                None => {
                    self.ready.push(record);
                    found_free = true;
                }
            }
        };
        for record in self.limbo.drain() {
            file(record);
        }
        for record in self.retest.drain(..) {
            file(record);
        }

        let stats = self.global.threads.stats(self.tid);
        let reclaimed = self.ready.hand_over(to_sink(sink)) as u64;
        if reclaimed > 0 {
            ThreadStatsSlot::bump(&stats.reclaimed, reclaimed);
        }
        if !found_free && self.held_len > 0 {
            // Every tested record overlaps some active reservation — IBR's version of an
            // epoch stall.
            ThreadStatsSlot::bump(&stats.epoch_stalls, 1);
        }
        self.publish_pending();
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for IbrThread<T> {
    fn leave_qstate<S: ReclaimSink<T>>(&mut self, _sink: &mut S) -> bool {
        let era = self.global.era.load(Ordering::SeqCst);
        let r = &self.global.reservations[self.tid];
        // Store order is irrelevant for safety (see the module docs on torn reads of an
        // opening reservation), but both stores must precede the operation body, which
        // the SeqCst stores guarantee.
        r.upper.store(era, Ordering::SeqCst);
        r.lower.store(era, Ordering::SeqCst);
        ThreadStatsSlot::bump(&self.global.threads.stats(self.tid).operations, 1);
        self.maybe_advance_era();
        // Scans run from `retire`, the only place the limbo grows.
        false
    }

    fn enter_qstate(&mut self) {
        let r = &self.global.reservations[self.tid];
        // Close the interval: lower first, so a torn read can only look *wider*, never
        // narrower, than the true reservation.
        r.lower.store(INACTIVE_LOWER, Ordering::SeqCst);
        r.upper.store(INACTIVE_UPPER, Ordering::SeqCst);
    }

    fn is_quiescent(&self) -> bool {
        let r = &self.global.reservations[self.tid];
        r.lower.load(Ordering::SeqCst) > r.upper.load(Ordering::SeqCst)
    }

    fn record_allocated(&mut self, record: NonNull<T>) {
        let era = self.global.era.load(Ordering::SeqCst);
        // SAFETY: the Record Manager calls this hook with a record its allocator has just
        // handed out, header in front.
        unsafe { header_of(record) }.birth.store(era, Ordering::Release);
        // Our own allocation must be covered by our reservation, and allocations also
        // drive the era clock (as in the IBR papers).
        self.extend_upper();
        self.maybe_advance_era();
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, sink: &mut S) {
        let era = self.global.era.load(Ordering::SeqCst);
        // SAFETY: the caller retires a record of this Record Manager, still allocated.
        // Only this thread's scan reads the word back.
        unsafe { header_of(record) }.retire.store(era, Ordering::Relaxed);
        self.limbo.push(record);
        ThreadStatsSlot::bump(&self.global.threads.stats(self.tid).retired, 1);
        self.maybe_advance_era();
        if self.limbo.len() >= self.global.config.scan_freq {
            self.scan(sink);
        } else {
            self.publish_pending();
        }
    }

    /// The 2GEIBR *validating read*: publish an upper bound covering the current era,
    /// re-validate the link through `validate`, and only succeed if the era did not move
    /// while validating.  The era-stability check is what closes the race in which a
    /// record born after the last published upper bound is retired and freed before the
    /// reader's next checkpoint lands: if the era was `e` both before and after a
    /// successful validation, the record was still linked (hence unretired) at a moment
    /// when our published reservation already covered every birth era up to `e`.
    fn protect<F: FnMut() -> bool>(
        &mut self,
        _slot: usize,
        _record: NonNull<T>,
        mut validate: F,
    ) -> bool {
        loop {
            let era = self.global.era.load(Ordering::SeqCst);
            let upper = &self.global.reservations[self.tid].upper;
            if upper.load(Ordering::SeqCst) < era {
                upper.store(era, Ordering::SeqCst);
            }
            if !validate() {
                return false;
            }
            if self.global.era.load(Ordering::SeqCst) == era {
                return true;
            }
            // The era advanced while validating: the record may have been born after the
            // bound we published.  Re-extend and re-validate.
        }
    }

    /// Reservation extension checkpoint: cheap best-effort widening of the upper bound at
    /// the DEBRA+-style checkpoints.  The *load-bearing* coverage of a record first
    /// reached through a link is [`protect`](Self::protect)'s validating read; `check`
    /// keeps the bound fresh between protects and covers this thread's own allocations.
    fn check(&self) -> Result<(), neutralize::Neutralized> {
        self.extend_upper();
        Ok(())
    }
}

impl<T: Send + 'static> Drop for IbrThread<T> {
    fn drop(&mut self) {
        self.enter_qstate();
        let held = self.held.iter_mut().flat_map(|group| group.records.drain(..));
        let threads = &self.global.threads;
        // SAFETY: the slot and the records are this handle's; its announcement is withdrawn.
        unsafe {
            threads.orphan(self.tid, self.limbo.drain().chain(self.ready.drain()).chain(held));
            threads.release(self.tid);
        }
    }
}

impl<T: Send + 'static> fmt::Debug for IbrThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IbrThread")
            .field("tid", &self.tid)
            .field("limbo", &self.limbo_len())
            .field("reservation", &self.reservation())
            .finish()
    }
}

/// A loom model of the reservation slots, exercising the open/extend/close store orders
/// against a concurrent scanner snapshot.  Gated behind `--cfg loom` because the `loom`
/// crate is not vendored in this offline workspace; vendor it and run
/// `RUSTFLAGS="--cfg loom" cargo test -p smr-ibr` to execute the model.
#[cfg(loom)]
mod loom_model {
    #[test]
    fn reservation_never_appears_narrower_than_reality() {
        loom::model(|| {
            let lower = loom::sync::Arc::new(loom::sync::atomic::AtomicU64::new(u64::MAX));
            let upper = loom::sync::Arc::new(loom::sync::atomic::AtomicU64::new(0));
            let (l2, u2) = (lower.clone(), upper.clone());
            // Opener: era 5 reservation.
            let t = loom::thread::spawn(move || {
                u2.store(5, loom::sync::atomic::Ordering::SeqCst);
                l2.store(5, loom::sync::atomic::Ordering::SeqCst);
            });
            // Scanner: any snapshot must be either inactive or cover era 5 once open.
            let lo = lower.load(loom::sync::atomic::Ordering::SeqCst);
            let hi = upper.load(loom::sync::atomic::Ordering::SeqCst);
            if lo <= hi {
                assert!(lo <= 5 && 5 <= hi);
            }
            t.join().unwrap();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::{CountingSink, Headed};
    use std::sync::atomic::AtomicBool;

    /// A record with a header in front, as the Record Manager's allocators lay it out.
    fn leak(v: u64) -> NonNull<u64> {
        Headed::boxed(v)
    }

    fn free(record: NonNull<u64>) {
        // SAFETY: test records come from `leak` and are freed exactly once.
        unsafe { Headed::drop_boxed(record) };
    }

    struct FreeingSink {
        freed: Vec<usize>,
    }
    impl ReclaimSink<u64> for FreeingSink {
        fn accept(&mut self, record: NonNull<u64>) {
            self.freed.push(record.as_ptr() as usize);
            free(record);
        }
    }

    fn tiny() -> IbrConfig {
        IbrConfig { era_freq: 1, scan_freq: 4, block_capacity: 2, initial_era: 1 }
    }

    fn drain_orphans(ibr: &Arc<Ibr<u64>>) {
        for r in ibr.drain_orphans() {
            free(r);
        }
    }

    /// Allocate-tag + retire a leaked record, like the Record Manager would.
    fn alloc_and_retire<S: ReclaimSink<u64>>(t: &mut IbrThread<u64>, v: u64, sink: &mut S) {
        let r = leak(v);
        t.record_allocated(r);
        unsafe { t.retire(r, sink) };
    }

    #[test]
    fn single_thread_reclaims() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(1, tiny()));
        let mut t = Ibr::register(&ibr, 0).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        for i in 0..100u64 {
            let _ = t.leave_qstate(&mut sink);
            alloc_and_retire(&mut t, i, &mut sink);
            t.enter_qstate();
        }
        assert!(!sink.freed.is_empty(), "records must be reclaimed");
        let stats = ibr.stats();
        assert_eq!(stats.retired, 100);
        assert!(stats.reclaimed > 0);
        assert!(stats.epochs_advanced > 0);
        assert_eq!(stats.reclaimed + stats.pending, stats.retired);
        drop(t);
        drain_orphans(&ibr);
    }

    #[test]
    fn a_scan_hands_over_every_record_it_proves_free() {
        // Default config: a scan runs every 64 retires, a quarter of a block, so what it
        // proves free never fills a block; all of it must reach the sink at once.
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::new(1));
        let mut t = Ibr::register(&ibr, 0).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let scan_freq = ibr.config.scan_freq as u64;
        for i in 0..scan_freq {
            let _ = t.leave_qstate(&mut sink);
            alloc_and_retire(&mut t, i, &mut sink);
            t.enter_qstate();
        }
        // The last retire ran the scan; the records still pinned by this thread's own
        // reservation are the only ones it kept.
        let freed = sink.freed.len();
        assert!(freed > 0 && freed < ibr.config.block_capacity, "freed {freed}");
        assert_eq!(t.ready.len(), 0, "no free record waits for a block to fill");
        assert_eq!((t.limbo.len(), freed + t.held_len), (0, scan_freq as usize));
        assert_eq!(ibr.stats().reclaimed, freed as u64);
        drop(t);
        drain_orphans(&ibr);
    }

    #[test]
    fn active_reservation_protects_overlapping_lifetimes() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, tiny()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        // A record born *before* B's reservation opens and retired during it overlaps
        // B's reservation — it must survive every scan while B is stalled.
        let overlapping = leak(7);
        a.record_allocated(overlapping);

        // B opens a reservation and stalls inside its operation.
        let _ = b.leave_qstate(&mut b_sink);
        let b_reservation = b.reservation().unwrap();

        let _ = a.leave_qstate(&mut sink);
        unsafe { a.retire(overlapping, &mut sink) };
        a.enter_qstate();
        for i in 0..200u64 {
            let _ = a.leave_qstate(&mut sink);
            alloc_and_retire(&mut a, i, &mut sink);
            a.enter_qstate();
        }
        assert!(
            !sink.freed.contains(&(overlapping.as_ptr() as usize)),
            "a record whose lifetime overlaps an active reservation must not be freed \
             (reservation {b_reservation:?})"
        );

        // Once B quiesces, the record becomes reclaimable.
        b.enter_qstate();
        for i in 0..50u64 {
            let _ = a.leave_qstate(&mut sink);
            alloc_and_retire(&mut a, 1000 + i, &mut sink);
            a.enter_qstate();
        }
        assert!(sink.freed.contains(&(overlapping.as_ptr() as usize)));

        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }

    #[test]
    fn stalled_reader_does_not_block_new_garbage() {
        // The decisive IBR property: a stalled thread pins only records whose lifetime
        // overlaps its reservation.  Records born *after* the stall keep being reclaimed
        // and the limbo population stays bounded — no signals needed (contrast with
        // classic EBR, where this scenario pins everything forever).
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, tiny()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        // B stalls inside an operation, holding a reservation at the current era.
        let _ = b.leave_qstate(&mut b_sink);

        let mut max_pending = 0u64;
        for i in 0..20_000u64 {
            let _ = a.leave_qstate(&mut sink);
            alloc_and_retire(&mut a, i, &mut sink);
            a.enter_qstate();
            max_pending = max_pending.max(ibr.stats().pending);
        }
        assert!(
            sink.freed.len() > 15_000,
            "new garbage must keep flowing despite the stalled reader (freed {})",
            sink.freed.len()
        );
        assert!(
            max_pending < 1_000,
            "garbage must stay bounded under a stalled reader, got {max_pending}"
        );

        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }

    #[test]
    fn era_saturates_instead_of_wrapping() {
        // Start the clock at the end of its range: advancing must saturate at u64::MAX
        // (never wrap to small values, which would make old reservations look disjoint
        // from new records — a use-after-free).  Reclamation degrades to "nothing
        // overlapping an active reservation is freed" but stays safe and non-panicking.
        let config = IbrConfig { initial_era: u64::MAX - 2, ..tiny() };
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, config));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        let guarded = leak(42);
        a.record_allocated(guarded);
        let _ = b.leave_qstate(&mut b_sink); // reservation at ~u64::MAX
        let _ = a.leave_qstate(&mut sink);
        unsafe { a.retire(guarded, &mut sink) };
        a.enter_qstate();
        for i in 0..500u64 {
            let _ = a.leave_qstate(&mut sink);
            alloc_and_retire(&mut a, i, &mut sink);
            a.enter_qstate();
        }
        assert_eq!(ibr.current_era(), u64::MAX, "the era clock must saturate, not wrap");
        assert!(
            !sink.freed.contains(&(guarded.as_ptr() as usize)),
            "saturation must never free a record overlapping an active reservation"
        );

        // The documented degradation: records retired at the saturated era intersect
        // every active reservation (including the scanning thread's own), so reclamation
        // of *new* garbage stops — but everything stays functional and safe.  Records
        // whose retire era predates the saturation point remain reclaimable.
        b.enter_qstate();
        for i in 0..100u64 {
            let _ = a.leave_qstate(&mut sink);
            alloc_and_retire(&mut a, 1000 + i, &mut sink);
            a.enter_qstate();
        }
        let stats = ibr.stats();
        assert_eq!(stats.retired, 601);
        assert_eq!(stats.reclaimed + stats.pending, stats.retired);
        assert_eq!(ibr.current_era(), u64::MAX);

        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }

    #[test]
    fn checkpoints_extend_the_reservation_upper_bound() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, tiny()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = CountingSink::default();

        let _ = a.leave_qstate(&mut sink);
        let (lower, upper) = a.reservation().unwrap();
        assert_eq!(lower, upper);

        // B drives the era forward; A's checkpoint must extend its upper bound so records
        // born later are still covered while A dereferences them.
        for _ in 0..50 {
            let _ = b.leave_qstate(&mut sink);
            b.enter_qstate();
        }
        assert!(ibr.current_era() > upper);
        assert!(a.check().is_ok());
        let (lower2, upper2) = a.reservation().unwrap();
        assert_eq!(lower2, lower, "the lower bound must not move mid-operation");
        assert_eq!(upper2, ibr.current_era(), "check() must extend the upper bound");

        // protect() is the validating read: it extends the upper bound before running the
        // validation and reports the validation's verdict so the caller can restart.
        for _ in 0..50 {
            let _ = b.leave_qstate(&mut sink);
            b.enter_qstate();
        }
        let mut rec = Box::new(5u64);
        assert!(a.protect(0, NonNull::from(&mut *rec), || true));
        assert_eq!(a.reservation().unwrap().1, ibr.current_era());
        assert!(
            !a.protect(0, NonNull::from(&mut *rec), || false),
            "a failed link validation must propagate so the traversal restarts"
        );

        a.enter_qstate();
        assert!(a.is_quiescent());
    }

    /// Miri-compatible smoke test for the reservation slots: a worker races
    /// open/extend/close transitions against a scanner taking snapshots.  Small iteration
    /// counts so `cargo miri test -p smr-ibr reservation_slots_smoke` finishes quickly
    /// when miri is available.
    #[test]
    fn reservation_slots_smoke() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(3, tiny()));
        let stop = Arc::new(AtomicBool::new(false));

        let worker = {
            let ibr = Arc::clone(&ibr);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut t = Ibr::register(&ibr, 1).unwrap();
                let mut sink = CountingSink::default();
                while !stop.load(Ordering::Acquire) {
                    let _ = t.leave_qstate(&mut sink);
                    let _ = t.check();
                    let (lower, upper) = t.reservation().expect("active inside op");
                    assert!(lower <= upper);
                    t.enter_qstate();
                }
            })
        };

        let mut driver = Ibr::register(&ibr, 0).unwrap();
        let mut sink = CountingSink::default();
        let mut pins = Vec::with_capacity(3);
        for _ in 0..200 {
            let _ = driver.leave_qstate(&mut sink);
            driver.enter_qstate();
            // Scanner view: every snapshot is a well-formed interval.
            ibr.snapshot_reservations(&mut pins);
            for pin in &pins {
                assert!(pin.lower <= pin.upper);
            }
        }
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
    }

    #[test]
    fn registration_lifecycle_and_properties() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::new(2));
        let t0 = Ibr::register(&ibr, 0).unwrap();
        assert!(matches!(
            Ibr::register(&ibr, 0),
            Err(RegistrationError::AlreadyRegistered { tid: 0 })
        ));
        assert!(matches!(
            Ibr::register(&ibr, 9),
            Err(RegistrationError::ThreadIdOutOfRange { tid: 9, .. })
        ));
        drop(t0);
        assert!(Ibr::register(&ibr, 0).is_ok());

        let p = <Ibr<u64> as Reclaimer<u64>>::properties();
        assert_eq!(p.name, "IBR");
        assert!(p.fault_tolerant);
        assert!(p.can_traverse_retired_to_retired);
        assert!(p.code_modifications.per_accessed_record);
        assert_eq!(p.termination, Termination::WaitFree);
        assert_eq!(p.timing_assumptions, TimingAssumptions::None);
        assert_eq!(<Ibr<u64> as Reclaimer<u64>>::name(), "IBR");
    }

    #[test]
    fn orphans_are_handed_back_on_thread_exit() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, tiny()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut a_sink = CountingSink::default();
        let mut b_sink = CountingSink::default();

        // B's reservation pins A's retired records; A then exits with a loaded limbo bag.
        let _ = b.leave_qstate(&mut b_sink);
        let _ = a.leave_qstate(&mut a_sink);
        for i in 0..10u64 {
            let r = leak(i);
            a.record_allocated(r);
            unsafe { a.retire(r, &mut a_sink) };
        }
        a.enter_qstate();
        drop(a);
        b.enter_qstate();
        drop(b);
        let reclaimed_via_sink = a_sink.accepted as u64;
        let orphans = ibr.drain_orphans();
        assert_eq!(orphans.len() as u64 + reclaimed_via_sink, 10);
        for r in orphans {
            free(r);
        }
    }

    /// An era clock that never moves on its own, so a test decides every era.
    fn frozen() -> IbrConfig {
        IbrConfig { era_freq: usize::MAX, ..tiny() }
    }

    /// Retires `records` from inside one operation of `t`.
    fn retire_all<S: ReclaimSink<u64>>(
        t: &mut IbrThread<u64>,
        records: &[NonNull<u64>],
        sink: &mut S,
    ) {
        let _ = t.leave_qstate(sink);
        for &r in records {
            unsafe { t.retire(r, sink) };
        }
        t.enter_qstate();
    }

    #[test]
    fn reader_reopening_at_the_same_era_keeps_its_held_records() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, frozen()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        // Everything happens at era 1: every record overlaps B's reservation [1, 1].
        let first: Vec<_> = (0..8).map(leak).collect();
        for &r in &first {
            a.record_allocated(r);
        }
        let _ = b.leave_qstate(&mut b_sink);
        retire_all(&mut a, &first, &mut sink);
        assert_eq!(a.held[1].records.len(), 8, "filed under B's reservation, not A's own");
        assert_eq!(a.held_len, 8);

        // B ends its operation and opens the next one at the same era.
        b.enter_qstate();
        let _ = b.leave_qstate(&mut b_sink);
        let second: Vec<_> = (100..104).map(leak).collect();
        for &r in &second {
            a.record_allocated(r);
        }
        retire_all(&mut a, &second, &mut sink);
        assert!(sink.freed.is_empty(), "nothing overlapping B's reservation is freed");
        assert_eq!(a.held[1].records.len(), 12, "B's group kept its records and grew");

        b.enter_qstate();
        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }

    #[test]
    fn reader_reopening_at_a_later_era_releases_its_held_records_within_one_scan() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, frozen()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = FreeingSink { freed: Vec::new() };
        let mut b_sink = CountingSink::default();

        let pinned: Vec<_> = (0..8).map(leak).collect();
        for &r in &pinned {
            a.record_allocated(r);
        }
        let _ = b.leave_qstate(&mut b_sink);
        retire_all(&mut a, &pinned, &mut sink);
        assert_eq!(a.held_len, 8);
        assert!(sink.freed.is_empty());

        // The era moves on; B's next operation starts past every pinned record.
        assert!(ibr.advance_era(0));
        b.enter_qstate();
        let _ = b.leave_qstate(&mut b_sink);
        let fresh: Vec<_> = (100..104).map(leak).collect();
        for &r in &fresh {
            a.record_allocated(r);
        }
        retire_all(&mut a, &fresh, &mut sink);
        for r in &pinned {
            assert!(
                sink.freed.contains(&(r.as_ptr() as usize)),
                "B's moved reservation releases its whole group in the next scan"
            );
        }
        assert_eq!(a.held_len, 4, "the fresh records overlap both new reservations");

        b.enter_qstate();
        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }

    #[test]
    fn scan_under_an_unchanged_pin_reads_only_new_headers() {
        let ibr: Arc<Ibr<u64>> = Arc::new(Ibr::with_config(2, frozen()));
        let mut a = Ibr::register(&ibr, 0).unwrap();
        let mut b = Ibr::register(&ibr, 1).unwrap();
        let mut sink = CountingSink::default();
        let mut b_sink = CountingSink::default();

        // B's reservation stays open at era 1 and pins every record A retires.
        let _ = b.leave_qstate(&mut b_sink);
        let scan_freq = ibr.config.scan_freq;
        let mut records = Vec::new();
        let _ = a.leave_qstate(&mut sink);
        for round in 1..=20 {
            let before = a.header_reads;
            for i in 0..scan_freq as u64 {
                let r = leak(i);
                a.record_allocated(r);
                unsafe { a.retire(r, &mut sink) };
                records.push(r);
            }
            assert_eq!(
                a.header_reads - before,
                scan_freq,
                "round {round}: the scan read the new records' headers and no held one"
            );
            assert_eq!(a.held_len, round * scan_freq);
        }
        assert_eq!(sink.accepted, 0);
        a.enter_qstate();
        b.enter_qstate();
        drop(a);
        drop(b);
        drain_orphans(&ibr);
    }
}
