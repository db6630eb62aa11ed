//! DEBRA: distributed epoch based reclamation (paper, Section 4).

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blockbag::{BlockBag, Taken};
use crossbeam_utils::CachePadded;
use neutralize::{AnnounceWord, NeutralizeSlot};

use crate::config::DebraConfig;
use crate::properties::SchemeProperties;
use crate::stats::ThreadStatsSlot;
use crate::threads::ThreadTable;
use crate::traits::{ReadProtection, ReclaimSink, Reclaimer, ReclaimerThread, RegistrationError};

/// Raw epoch increment: the least significant bit of announcement words is the quiescent
/// bit, so epochs advance by 2.
pub(crate) const EPOCH_INCREMENT: u64 = 2;

/// Shared state of the DEBRA reclaimer.
///
/// DEBRA is a *distributed* variant of epoch based reclamation:
///
/// * each thread keeps **three private limbo bags** instead of shared ones, and rotation /
///   reclamation proceed independently per thread;
/// * the cost of checking other threads' epoch announcements is **amortized** over many
///   operations — each `leave_qstate` checks at most one announcement;
/// * a thread's announcement carries a **quiescent bit**, so a thread that is *between*
///   operations (or has crashed between operations) does not prevent others from advancing
///   the epoch and reclaiming memory.
///
/// Every operation start/end and every retired record costs O(1) steps in the worst case.
///
/// See [`DebraPlus`](crate::DebraPlus) for the fault tolerant extension.
pub struct Debra<T> {
    pub(crate) epoch: CachePadded<AtomicU64>,
    pub(crate) slots: Box<[Arc<NeutralizeSlot>]>,
    pub(crate) threads: ThreadTable<T>,
    pub(crate) config: DebraConfig,
}

impl<T: Send> Debra<T> {
    /// Creates DEBRA shared state for `max_threads` threads with a custom configuration.
    pub fn with_config(max_threads: usize, config: DebraConfig) -> Self {
        Debra {
            epoch: CachePadded::new(AtomicU64::new(0)),
            threads: ThreadTable::new(max_threads),
            slots: (0..max_threads).map(|_| Arc::new(NeutralizeSlot::new())).collect(),
            config,
        }
    }

    /// The current global epoch (epoch bits only; advances by 2 internally).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The per-thread announcement slot for `tid` (used by DEBRA+ and by tests).
    pub(crate) fn slot(&self, tid: usize) -> &NeutralizeSlot {
        &self.slots[tid]
    }

    /// A clonable handle to the announcement slot for `tid` (cached by the thread's handle
    /// at registration, and used by DEBRA+ to register the owning thread with the signal
    /// driver).
    pub(crate) fn slot_arc(&self, tid: usize) -> Arc<NeutralizeSlot> {
        Arc::clone(&self.slots[tid])
    }

    pub(crate) fn do_register(&self, tid: usize) -> Result<(), RegistrationError> {
        self.threads.claim(tid)?;
        // A (re-)registered thread starts quiescent at the current epoch.
        self.slots[tid].store_announce(
            AnnounceWord::pack(AnnounceWord::epoch(self.epoch.load(Ordering::SeqCst)), true),
            Ordering::SeqCst,
        );
        self.slots[tid].clear_neutralized();
        Ok(())
    }
}

impl<T: Send> Reclaimer<T> for Debra<T>
where
    T: 'static,
{
    type Thread = DebraThread<T>;

    fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, DebraConfig::default())
    }

    fn register(this: &Arc<Self>, tid: usize) -> Result<Self::Thread, RegistrationError> {
        this.do_register(tid)?;
        Ok(DebraThread::new(Arc::clone(this), tid))
    }

    fn threads(&self) -> &ThreadTable<T> {
        &self.threads
    }

    fn name() -> &'static str {
        "DEBRA"
    }

    fn properties() -> SchemeProperties {
        SchemeProperties::debra()
    }
}

impl<T> fmt::Debug for Debra<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Debra")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("max_threads", &self.threads.max_threads())
            .field("config", &self.config)
            .finish()
    }
}

/// The three limbo bags of one thread (the paper's `bags[0..2]` and `index`), shared by
/// every epoch scheme here: DEBRA, DEBRA+ and classic EBR.
///
/// Kept apart from the rest of [`DebraThread`] so that DEBRA+'s rotation and suspicion
/// hooks can borrow the bags mutably while the shared state stays borrowed — no `Arc`
/// clone on the per-operation path.
#[derive(Debug)]
pub struct LimboBags<T> {
    bags: [BlockBag<T>; 3],
    /// Index (into `bags`) of the limbo bag for the current epoch.
    current: usize,
}

impl<T> LimboBags<T> {
    /// Three empty bags of `block_capacity`-record blocks.
    pub fn new(block_capacity: usize) -> Self {
        LimboBags {
            bags: std::array::from_fn(|_| BlockBag::with_block_capacity(block_capacity)),
            current: 0,
        }
    }

    /// Adds a retired record to the limbo bag of the current epoch.
    pub fn push(&mut self, record: NonNull<T>) {
        self.bags[self.current].push(record);
    }

    /// Number of records in the three bags.
    pub fn len(&self) -> usize {
        self.bags.iter().map(BlockBag::len).sum()
    }

    /// `true` if no record is in limbo.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every record out of the bags (a thread's limbo when it exits).
    pub fn drain(&mut self) -> impl Iterator<Item = NonNull<T>> + '_ {
        self.bags.iter_mut().flat_map(BlockBag::drain)
    }

    /// Number of blocks in the limbo bag of the current epoch (DEBRA+'s neutralization
    /// heuristic).
    pub(crate) fn current_bag_blocks(&self) -> usize {
        self.bags[self.current].size_in_blocks()
    }

    /// Number of blocks in the *oldest* limbo bag — the bag that will become the current
    /// bag (and be reclaimed) on the next rotation.  Used by DEBRA+ to decide whether it is
    /// worth scanning the restricted hazard pointers.
    pub(crate) fn oldest_bag_blocks(&self) -> usize {
        self.bags[(self.current + 1) % 3].size_in_blocks()
    }

    /// Makes the oldest limbo bag the current one without freeing anything.
    pub(crate) fn rotate(&mut self) -> &mut BlockBag<T> {
        self.current = (self.current + 1) % 3;
        &mut self.bags[self.current]
    }

    /// Rotates the limbo bags and hands every record retired two epochs ago to the sink
    /// (the paper's `rotateAndReclaim`): full blocks whole, the head block's records one at
    /// a time, so the bag starts the new epoch empty.  Returns the number of records
    /// handed to `sink`.
    pub fn rotate_and_reclaim<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> u64 {
        self.rotate().hand_over(to_sink(sink)) as u64
    }

    /// DEBRA+'s variant of `rotateAndReclaim` (paper, Figure 6) for a non-empty set of
    /// restricted hazard pointers: records for which `keep` returns `true` stay in the
    /// bag and every other record goes to the sink.  With a `keep` that is never `true`
    /// this hands over exactly the blocks and records, in the same order,
    /// [`rotate_and_reclaim`](Self::rotate_and_reclaim) does.
    pub(crate) fn rotate_and_reclaim_filtered<S: ReclaimSink<T>>(
        &mut self,
        sink: &mut S,
        keep: impl FnMut(NonNull<T>) -> bool,
    ) -> u64 {
        self.rotate().partition_and_hand_over(keep, to_sink(sink)) as u64
    }
}

/// Passes what a [`BlockBag`] hands over on to `sink`: full blocks whole through
/// [`ReclaimSink::accept_block`], single records through [`ReclaimSink::accept`].  Every
/// scheme that keeps its limbo in blocks reclaims through this.
pub fn to_sink<T, S: ReclaimSink<T>>(sink: &mut S) -> impl FnMut(Taken<T>) + '_ {
    move |taken| match taken {
        Taken::Block(block) => sink.accept_block(block),
        Taken::Record(record) => sink.accept(record),
    }
}

/// Per-thread handle of [`Debra`].
pub struct DebraThread<T: Send + 'static> {
    global: Arc<Debra<T>>,
    /// This thread's own announcement slot (`global.slots[tid]`), cached at registration:
    /// every pin, unpin and DEBRA+ checkpoint reaches it in one load.
    slot: Arc<NeutralizeSlot>,
    tid: usize,
    limbo: LimboBags<T>,
    /// Number of announcements seen equal-or-quiescent in the current epoch; the next
    /// thread to check while it is below `max_threads`.
    check_next: usize,
    /// Number of `leave_qstate` calls since another thread's announcement was last checked.
    ops_since_check: usize,
    /// Number of announcement checks made in the current epoch, including those a laggard
    /// blocked (DEBRA+ advances on this count; see `leave_qstate_impl`).
    checks: usize,
}

impl<T: Send + 'static> DebraThread<T> {
    pub(crate) fn new(global: Arc<Debra<T>>, tid: usize) -> Self {
        let limbo = LimboBags::new(global.config.block_capacity);
        let slot = global.slot_arc(tid);
        DebraThread { global, slot, tid, limbo, check_next: 0, ops_since_check: 0, checks: 0 }
    }

    /// The shared DEBRA instance this handle belongs to.
    pub fn global(&self) -> &Arc<Debra<T>> {
        &self.global
    }

    /// The thread slot this handle was registered with.
    pub(crate) fn tid(&self) -> usize {
        self.tid
    }

    /// This thread's own announcement slot.
    pub(crate) fn slot(&self) -> &NeutralizeSlot {
        &self.slot
    }

    /// Total number of records currently waiting in this thread's limbo bags.
    pub fn limbo_len(&self) -> usize {
        self.limbo.len()
    }

    /// Number of blocks in the limbo bag of the current epoch (used by DEBRA+'s
    /// neutralization heuristic and exposed for tests).
    pub fn current_bag_blocks(&self) -> usize {
        self.limbo.current_bag_blocks()
    }

    /// Core of `leave_qstate`, shared between DEBRA and DEBRA+.
    ///
    /// `rotate` is called when this thread announces a new epoch; it rotates the limbo
    /// bags and returns how many records it handed to the sink.
    ///
    /// `suspect` is called for a thread that is non-quiescent and has not announced the
    /// current epoch, with the announcement word read from it; it returns `true` if the
    /// thread may nevertheless be treated as quiescent (DEBRA+ neutralizes it; plain DEBRA
    /// always returns `false`).
    ///
    /// Once every announcement has been seen, the epoch advances after
    /// `increment_threshold` checks.  DEBRA counts only the checks that passed (the
    /// paper's Figure 5: `checkNext`).  With `count_blocked_checks`, DEBRA+ also counts
    /// those a laggard blocked, so a bag that grew while the epoch was held back is not
    /// made to grow by another `increment_threshold` operations once the laggard is
    /// seen; without a laggard both counts are the same.
    pub(crate) fn leave_qstate_impl<S, F, R>(
        &mut self,
        sink: &mut S,
        count_blocked_checks: bool,
        mut rotate: R,
        mut suspect: F,
    ) -> bool
    where
        S: ReclaimSink<T>,
        F: FnMut(&LimboBags<T>, usize, u64) -> bool,
        R: FnMut(&mut LimboBags<T>, &mut S) -> u64,
    {
        let DebraThread { global, slot, tid, limbo, check_next, ops_since_check, checks } = self;
        let global: &Debra<T> = global;
        let tid = *tid;
        let stats = global.threads.stats(tid);
        let n = global.slots.len();
        let config = &global.config;
        let read_epoch = global.epoch.load(Ordering::SeqCst);
        let my_announce = slot.load_announce(Ordering::SeqCst);

        let mut result = false;
        if !AnnounceWord::epoch_matches(read_epoch, my_announce) {
            // We are announcing a new epoch: everything retired two epochs ago is safe.
            *ops_since_check = 0;
            *check_next = 0;
            *checks = 0;
            let reclaimed = rotate(limbo, sink);
            if reclaimed > 0 {
                ThreadStatsSlot::bump(&stats.reclaimed, reclaimed);
                global.threads.publish_limbo(tid, limbo.len() as u64);
            }
            result = true;
        }

        // Incrementally scan announcements: one (or fewer) per leave_qstate call.
        *ops_since_check += 1;
        if *ops_since_check >= config.check_threshold {
            *ops_since_check = 0;
            *checks += 1;
            // Once `check_next` reaches `n`, every announcement has been seen equal to
            // `read_epoch` or quiescent since this thread announced it — all Figure 5's
            // argument needs, and it stays true until the epoch changes (a thread can only
            // announce this epoch or a later one).  The pins left until
            // `increment_threshold` therefore only count; they touch no peer's line.
            let other = *check_next;
            let other_ok = other >= n || other == tid || {
                let other_word = global.slots[other].load_announce(Ordering::SeqCst);
                AnnounceWord::epoch_matches(read_epoch, other_word)
                    || AnnounceWord::is_quiescent(other_word)
                    || suspect(limbo, other, other_word)
            };
            if other_ok {
                *check_next += 1;
                let c = *check_next;
                let counted = if count_blocked_checks { *checks } else { c };
                if c >= n && counted >= config.increment_threshold {
                    if global
                        .epoch
                        .compare_exchange(
                            read_epoch,
                            read_epoch + EPOCH_INCREMENT,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        ThreadStatsSlot::bump(&stats.epochs_advanced, 1);
                    }
                    *check_next = 0;
                }
            } else {
                // A non-quiescent thread still on the old epoch blocks the advance —
                // the oversubscription stall of the paper's Figure 9.
                ThreadStatsSlot::bump(&stats.epoch_stalls, 1);
            }
        }

        // Announce the epoch we read, with the quiescent bit cleared.
        slot.store_announce(
            AnnounceWord::pack(AnnounceWord::epoch(read_epoch), false),
            Ordering::SeqCst,
        );
        ThreadStatsSlot::bump(&stats.operations, 1);
        result
    }

    pub(crate) fn retire_impl(&mut self, record: NonNull<T>) {
        // Note: no quiescence assertion here.  Plain DEBRA asserts in its `retire` wrapper;
        // under DEBRA+ a neutralization signal sets the quiescent bit *mid-operation*, and a
        // thread whose decision CAS already succeeded legitimately retires records while its
        // announcement reads quiescent (the completion phase of a decided operation).
        self.limbo.push(record);
        let threads = &self.global.threads;
        ThreadStatsSlot::bump(&threads.stats(self.tid).retired, 1);
        threads.publish_limbo(self.tid, self.limbo.len() as u64);
    }

    pub(crate) fn enter_qstate_impl(&mut self) {
        self.slot.set_quiescent();
    }

    pub(crate) fn is_quiescent_impl(&self) -> bool {
        self.slot.is_quiescent()
    }
}

impl<T: Send + 'static> ReclaimerThread<T> for DebraThread<T> {
    // Epoch-style: records retired after an operation begins outlive the operation, so
    // unvalidated traversal (and therefore helping) is sound.
    const READ_PROTECTION: ReadProtection = ReadProtection::Pin;

    fn leave_qstate<S: ReclaimSink<T>>(&mut self, sink: &mut S) -> bool {
        self.leave_qstate_impl(sink, false, LimboBags::rotate_and_reclaim, |_, _, _| false)
    }

    fn enter_qstate(&mut self) {
        self.enter_qstate_impl();
    }

    fn is_quiescent(&self) -> bool {
        self.is_quiescent_impl()
    }

    unsafe fn retire<S: ReclaimSink<T>>(&mut self, record: NonNull<T>, _sink: &mut S) {
        debug_assert!(
            !self.is_quiescent(),
            "retire must be called while non-quiescent (inside a data structure operation)"
        );
        self.retire_impl(record);
    }
}

impl<T: Send + 'static> Drop for DebraThread<T> {
    fn drop(&mut self) {
        // An exited thread no longer holds back the epoch.  Records still in limbo bags
        // are not yet safe to free: the table keeps them for teardown.
        self.slot.set_quiescent();
        let threads = &self.global.threads;
        // SAFETY: the slot and the records are this handle's; its announcement is withdrawn.
        unsafe {
            threads.orphan(self.tid, self.limbo.drain());
            threads.release(self.tid);
        }
    }
}

impl<T: Send + 'static> fmt::Debug for DebraThread<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebraThread")
            .field("tid", &self.tid)
            .field("limbo_len", &self.limbo_len())
            .field("current", &self.limbo.current)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::CountingSink;

    fn tiny_config() -> DebraConfig {
        DebraConfig { check_threshold: 1, increment_threshold: 1, block_capacity: 4 }
    }

    fn leak(v: u64) -> NonNull<u64> {
        NonNull::from(Box::leak(Box::new(v)))
    }

    /// Frees reclaimed test records (which are leaked boxes) and records how many.
    struct FreeingSink {
        freed: usize,
    }
    impl ReclaimSink<u64> for FreeingSink {
        fn accept(&mut self, record: NonNull<u64>) {
            // SAFETY: test records are leaked boxes reclaimed exactly once.
            unsafe { drop(Box::from_raw(record.as_ptr())) };
            self.freed += 1;
        }
    }

    #[test]
    fn single_thread_reclaims_after_epoch_advances() {
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(1, tiny_config()));
        let mut t = Debra::register(&debra, 0).unwrap();
        let mut sink = FreeingSink { freed: 0 };

        // Retire a bunch of records across operations; with increment_threshold = 1 and a
        // single thread the epoch advances every operation, so records flow to the sink
        // after at most a few operations.
        for i in 0..200u64 {
            let _ = t.leave_qstate(&mut sink);
            unsafe { t.retire(leak(i), &mut sink) };
            t.enter_qstate();
        }
        assert!(sink.freed > 0, "records must eventually be reclaimed");
        let stats = debra.stats();
        assert_eq!(stats.retired, 200);
        assert!(stats.reclaimed > 0);
        assert!(stats.epochs_advanced > 0);
        // Everything not reclaimed is still pending in limbo bags.
        assert_eq!(stats.reclaimed + stats.pending, stats.retired);

        // Drain the rest on teardown so the test does not leak.
        drop(t);
        for r in debra.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn a_lone_thread_keeps_at_most_three_records_in_limbo() {
        // One retire per operation and an epoch per operation: each bag holds one record,
        // and a rotation hands it over, not only once a block fills.
        let config = DebraConfig { increment_threshold: 1, ..DebraConfig::default() };
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(1, config));
        let mut t = Debra::register(&debra, 0).unwrap();
        let mut sink = FreeingSink { freed: 0 };
        for i in 0..600u64 {
            let _ = t.leave_qstate(&mut sink);
            unsafe { t.retire(leak(i), &mut sink) };
            t.enter_qstate();
        }
        let stats = debra.stats();
        assert!(stats.pending <= 3, "pending {}", stats.pending);
        assert_eq!(sink.freed as u64 + stats.pending, 600);
        drop(t);
        for r in debra.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn non_quiescent_thread_blocks_reclamation() {
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(2, tiny_config()));
        let mut a = Debra::register(&debra, 0).unwrap();
        let mut b = Debra::register(&debra, 1).unwrap();
        let mut sink = CountingSink::default();

        // Thread B starts an operation and never finishes it.
        let _ = b.leave_qstate(&mut sink);
        let b_records: Vec<NonNull<u64>> = (0..10).map(leak).collect();
        let _ = &b_records;

        // Thread A retires many records; because B is non-quiescent and stuck at an old
        // epoch, the epoch can never advance twice, so nothing is reclaimed.
        let mut retained: Vec<NonNull<u64>> = Vec::new();
        for i in 0..500u64 {
            let _ = a.leave_qstate(&mut sink);
            let r = leak(i);
            retained.push(r);
            unsafe { a.retire(r, &mut sink) };
            a.enter_qstate();
        }
        assert_eq!(sink.accepted, 0, "no reclamation while a thread is stuck non-quiescent");

        // Once B finishes its operation, A can advance the epoch and reclaim.
        b.enter_qstate();
        for _ in 0..50 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert!(sink.accepted > 0, "reclamation resumes after the stuck thread finishes");

        // Cleanup: free all leaked test records.
        drop(a);
        drop(b);
        for r in debra.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
        for r in retained {
            // Records accepted by CountingSink were not freed; free every allocation here.
            // (Records still in orphan bags were freed just above; the sets are disjoint
            // because CountingSink does not free and orphans were drained first.)
            let _ = r; // freed via orphans when still in bags; the rest leak-checked below
        }
        for r in b_records {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn quiescent_thread_does_not_block_reclamation() {
        // DEBRA's partial fault tolerance: a registered thread that is *between* operations
        // (quiescent) never prevents others from reclaiming.
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(2, tiny_config()));
        let mut a = Debra::register(&debra, 0).unwrap();
        let _b = Debra::register(&debra, 1).unwrap(); // never performs an operation

        let mut sink = FreeingSink { freed: 0 };
        for i in 0..200u64 {
            let _ = a.leave_qstate(&mut sink);
            unsafe { a.retire(leak(i), &mut sink) };
            a.enter_qstate();
        }
        assert!(sink.freed > 0, "an idle (quiescent) thread must not block reclamation");

        drop(a);
        for r in debra.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn grace_period_spans_two_epoch_changes() {
        // Drive two handles deterministically from one OS thread and check that a record
        // retired while another thread is non-quiescent is not reclaimed until that thread
        // has passed through a quiescent state.  Block capacity 1 so that even a single
        // record forms a full (reclaimable) block.
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(
            2,
            DebraConfig { check_threshold: 1, increment_threshold: 1, block_capacity: 1 },
        ));
        let mut a = Debra::register(&debra, 0).unwrap();
        let mut b = Debra::register(&debra, 1).unwrap();
        let mut sink = CountingSink::default();

        // B is inside an operation when A retires the record.
        let _ = b.leave_qstate(&mut sink);
        let _ = a.leave_qstate(&mut sink);
        let record = leak(7);
        unsafe { a.retire(record, &mut sink) };
        a.enter_qstate();

        // A performs many operations; B stays inside its operation: no reclamation.
        for _ in 0..100 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert_eq!(sink.accepted, 0);

        // B finishes; after A performs more operations the record is reclaimed.
        b.enter_qstate();
        for _ in 0..100 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert!(sink.accepted >= 1);

        unsafe { drop(Box::from_raw(record.as_ptr())) };
        drop(a);
        drop(b);
        for r in debra.drain_orphans() {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }

    #[test]
    fn epoch_advance_cadence_with_default_config() {
        // Two handles driven from one OS thread with the paper's constants (scan one
        // announcement per pin, advance after max(n, 100) of them).  The pin counts below
        // are the cadence of the incremental scan; skipping the announcement reads after a
        // full pass must not move any of them.
        fn pins_until_epoch_moves(t: &mut DebraThread<u64>, sink: &mut CountingSink) -> usize {
            let before = t.global().current_epoch();
            let mut pins = 0;
            while t.global().current_epoch() == before {
                assert!(pins < 10_000, "the epoch never advanced");
                let _ = t.leave_qstate(sink);
                t.enter_qstate();
                pins += 1;
            }
            pins
        }

        let debra: Arc<Debra<u64>> = Arc::new(Debra::new(2));
        assert_eq!(debra.config, DebraConfig::default());
        let mut a = Debra::register(&debra, 0).unwrap();
        let mut b = Debra::register(&debra, 1).unwrap();
        let mut sink = CountingSink::default();

        // B idle (quiescent): A alone advances the epoch every 100 pins, and keeps doing so.
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 100);
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 100);
        assert_eq!(debra.stats().epoch_stalls, 0);

        // B starts an operation on the current epoch and stays in it: A can advance once
        // more (B has announced that epoch), after which B is a non-quiescent thread on the
        // old epoch.
        let _ = b.leave_qstate(&mut sink);
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 100);
        let stuck_at = debra.current_epoch();
        for _ in 0..500 {
            let _ = a.leave_qstate(&mut sink);
            a.enter_qstate();
        }
        assert_eq!(debra.current_epoch(), stuck_at, "B on the old epoch blocks the advance");
        // The first of those pins passes A's own slot; each of the other 499 finds B.
        assert_eq!(debra.stats().epoch_stalls, 499);
        assert_eq!(debra.stats().epochs_advanced, 3);

        // B finishes: the scan resumes where it stopped (one announcement already seen).
        b.enter_qstate();
        assert_eq!(pins_until_epoch_moves(&mut a, &mut sink), 99);
        assert_eq!(debra.stats().epoch_stalls, 499);
        assert_eq!(debra.stats().operations, 100 + 100 + 1 + 100 + 500 + 99);
    }

    #[test]
    fn registration_errors() {
        let debra: Arc<Debra<u64>> = Arc::new(Debra::new(2));
        let t0 = Debra::register(&debra, 0).unwrap();
        assert!(matches!(
            Debra::register(&debra, 0),
            Err(RegistrationError::AlreadyRegistered { tid: 0 })
        ));
        assert!(matches!(
            Debra::register(&debra, 5),
            Err(RegistrationError::ThreadIdOutOfRange { tid: 5, .. })
        ));
        drop(t0);
        // After dropping the handle the slot can be reused.
        assert!(Debra::register(&debra, 0).is_ok());
    }

    #[test]
    fn multithreaded_stress_every_record_accounted_for() {
        use std::sync::atomic::AtomicUsize;

        // Every reclaimed record is freed through the sink; afterwards every retired record
        // must have been handed out exactly once — either to a sink or to the orphan list.
        // (Freeing through `Box::from_raw` means any double reclamation would be a double
        // free, caught by the allocator / sanitizers; the count conservation check below
        // catches lost records.)
        struct TrackingSink {
            freed: Arc<AtomicUsize>,
        }
        impl ReclaimSink<u64> for TrackingSink {
            fn accept(&mut self, record: NonNull<u64>) {
                self.freed.fetch_add(1, Ordering::Relaxed);
                // SAFETY: each record is a leaked box reclaimed exactly once.
                unsafe { drop(Box::from_raw(record.as_ptr())) };
            }
        }

        let threads = 4;
        let per_thread_ops = 3_000u64;
        let debra: Arc<Debra<u64>> = Arc::new(Debra::with_config(
            threads,
            DebraConfig { check_threshold: 1, increment_threshold: 2, block_capacity: 16 },
        ));
        let freed = Arc::new(AtomicUsize::new(0));

        let mut joins = Vec::new();
        for tid in 0..threads {
            let debra = Arc::clone(&debra);
            let freed = Arc::clone(&freed);
            joins.push(std::thread::spawn(move || {
                let mut t = Debra::register(&debra, tid).unwrap();
                let mut sink = TrackingSink { freed };
                for i in 0..per_thread_ops {
                    let _ = t.leave_qstate(&mut sink);
                    unsafe { t.retire(leak(i), &mut sink) };
                    t.enter_qstate();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        let stats = debra.stats();
        assert_eq!(stats.retired, threads as u64 * per_thread_ops);
        assert!(stats.reclaimed > 0, "some reclamation must have happened");

        let orphans = debra.drain_orphans();
        assert_eq!(
            freed.load(Ordering::Relaxed) + orphans.len(),
            (threads as u64 * per_thread_ops) as usize,
            "every retired record is accounted for exactly once"
        );
        assert_eq!(freed.load(Ordering::Relaxed) as u64, stats.reclaimed);
        for r in orphans {
            unsafe { drop(Box::from_raw(r.as_ptr())) };
        }
    }
}
