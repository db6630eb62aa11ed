//! The structures under test, each behind the four calls a cell needs: register a
//! thread, prefill, apply one generated operation, and count what is left for the oracle.
//! Everything here goes through the program's public API (`in_domain`, `ConcurrentMap`,
//! `ConcurrentBag`); the tallies the oracles compare against are kept on this side.

use debra::{Allocator, Domain, DomainHandle, Pool, Reclaimer};
use lockfree_ds::{ConcurrentBag, ConcurrentMap};
use smr_queue::{MsQueue, QueueNode};

use crate::ops::{Op, OpKind, Rng};
use crate::spec::QUEUE_PREFILL;

/// What one thread did to the structure, as the oracle needs it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Elements this thread put in before the start gate.
    pub prefilled: u64,
    /// Successful inserts / pushes.
    pub added: u64,
    /// Successful removes / non-empty pops.
    pub removed: u64,
    /// Ring only: the next sequence number this thread pushes.
    pub next_seq: u64,
    /// Ring only: elements popped and not yet passed on.
    pub hand: u64,
    /// Ring only: the last sequence number this thread popped, per producer.
    pub last_seen: [u64; 2],
    /// Ring only: pops that did not exceed the previous pop from the same producer.
    pub order_violations: u64,
}

/// Ring values: the producer in the top bit, its sequence number (from 1) below.
const PRODUCER_SHIFT: u32 = 63;

impl Tally {
    /// Checks a popped value against FIFO order: each consumer sees each producer's
    /// sequence numbers strictly increasing.
    #[inline(always)]
    fn observe(&mut self, value: u64) {
        let (producer, seq) = ((value >> PRODUCER_SHIFT) as usize, value & !(1 << PRODUCER_SHIFT));
        self.order_violations += (seq <= self.last_seen[producer]) as u64;
        self.last_seen[producer] = seq;
    }
}

pub trait Subject: Sync {
    /// The per-thread handle; leased on the thread that uses it.
    type Handle;

    fn register(&self) -> Self::Handle;

    /// Worker `tid`'s share of the prefill, put in before the start gate; returns how many
    /// elements that was.  The shares of all `workers` make up the whole prefill.
    fn prefill(&self, handle: &mut Self::Handle, tid: usize, workers: usize, seed: u64) -> u64;

    fn new_tally(&self) -> Tally;

    /// Runs one operation of worker `tid` and returns its span kind: 0 insert / push,
    /// 1 remove / pop, 2 search / empty pop.
    fn apply(&self, handle: &mut Self::Handle, tid: usize, op: Op, tally: &mut Tally) -> usize;

    /// Whether an operation of this kind counts towards throughput and latency.
    #[inline(always)]
    fn counted(_kind: usize) -> bool {
        true
    }

    /// An insert-then-remove that leaves the contents alone but allocates and retires, so
    /// reclamation keeps moving while the caller waits for workers to leave their last op.
    fn nudge(&self, handle: &mut Self::Handle);

    /// Single-threaded, after the workers joined: the number of elements now held.
    /// The ring drains its queues and keeps checking each consumer's order.
    fn count(&self, handle: &mut Self::Handle, tallies: &mut [Tally]) -> u64;
}

pub struct MapSubject<M> {
    pub map: M,
    pub key_range: u64,
}

impl<M: ConcurrentMap<u64, u64>> Subject for MapSubject<M> {
    type Handle = M::Handle;

    fn register(&self) -> M::Handle {
        self.map.register().expect("a thread slot for every benchmark thread")
    }

    /// Uniform keys until the shares add up to half the range.
    fn prefill(&self, handle: &mut M::Handle, tid: usize, workers: usize, seed: u64) -> u64 {
        let half = self.key_range / 2;
        let share = half / workers as u64 + if tid == 0 { half % workers as u64 } else { 0 };
        let mut rng = Rng::new(seed ^ (0x5EED_F111 + tid as u64));
        let mut held = 0;
        while held < share {
            let key = rng.below(self.key_range);
            held += self.map.insert(handle, key, key) as u64;
        }
        held
    }

    fn new_tally(&self) -> Tally {
        Tally::default()
    }

    #[inline(always)]
    fn apply(&self, handle: &mut M::Handle, _tid: usize, op: Op, tally: &mut Tally) -> usize {
        match op.kind {
            OpKind::Insert => tally.added += self.map.insert(handle, op.key, op.key) as u64,
            OpKind::Remove => tally.removed += self.map.remove(handle, &op.key) as u64,
            OpKind::Search => {
                std::hint::black_box(self.map.contains(handle, &op.key));
            }
        }
        op.kind as usize
    }

    fn nudge(&self, handle: &mut M::Handle) {
        // One key past the generated range: no worker ever touches it.
        self.map.insert(handle, self.key_range, 0);
        self.map.remove(handle, &self.key_range);
    }

    fn count(&self, handle: &mut M::Handle, _tallies: &mut [Tally]) -> u64 {
        (0..self.key_range).filter(|key| self.map.contains(handle, key)).count() as u64
    }
}

/// Two queues in one domain.  Thread `t` pushes to queue `t` and pops from queue `1 - t`,
/// so each queue has one producer and one consumer and every node is freed by the thread
/// that did not allocate it.  Values carry their producer and its sequence number.
///
/// The ring conserves its elements: a thread pushes only what it has popped, holding at
/// most [`HAND_CAP`] in hand.  The seeded stream picks push or pop 50/50; with an empty
/// hand a push becomes a pop, with a full hand a pop becomes a push.  Without this the
/// faster thread's queue grew by ~0.7 M nodes/s (HP) while the other ran empty, and
/// throughput drifted 20 % over four trials.  Conserved, the faster thread instead meets
/// an empty queue; those empty pops are cheap and their number follows the speed
/// difference, so they are reported (kind 2) but not counted as throughput.
pub struct RingSubject<R, P, A>
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    queues: [OwnLines<MsQueue<u64, R, P, A>>; 2],
    /// Same domain, touched only by `nudge`.
    scratch: OwnLines<MsQueue<u64, R, P, A>>,
    /// Reproduction hook only: both workers push to and pop from queue 0, and pushes do
    /// not wait for a popped element.
    shared: bool,
}

pub const HAND_CAP: u64 = 8;

/// Keeps a queue's `head` and `tail` words on cache lines no other queue touches.  Packed
/// side by side (24 bytes each), the two queues' four hot words shared one line or
/// straddled two depending on where the array landed: sharing the benchmark had made, not
/// the program (HP read 7.8–10.6 Mops from process to process packed, 9.3–10.3 apart).
#[repr(align(128))]
struct OwnLines<T>(T);

impl<R, P, A> RingSubject<R, P, A>
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    pub fn in_domain(domain: &Domain<QueueNode<u64>, R, P, A>, shared: bool) -> Self {
        let queue = || OwnLines(MsQueue::in_domain(domain.clone()));
        RingSubject { queues: [queue(), queue()], scratch: queue(), shared }
    }
}

impl<R, P, A> Subject for RingSubject<R, P, A>
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    type Handle = DomainHandle<QueueNode<u64>, R, P, A>;

    fn register(&self) -> Self::Handle {
        self.queues[0].0.register().expect("a thread slot for every benchmark thread")
    }

    /// Each producer fills its own queue.
    fn prefill(&self, handle: &mut Self::Handle, tid: usize, _workers: usize, _seed: u64) -> u64 {
        let out = if self.shared { 0 } else { tid };
        (1..=QUEUE_PREFILL)
            .for_each(|seq| self.queues[out].0.push(handle, (tid as u64) << PRODUCER_SHIFT | seq));
        QUEUE_PREFILL
    }

    fn new_tally(&self) -> Tally {
        Tally { next_seq: QUEUE_PREFILL + 1, ..Tally::default() }
    }

    #[inline(always)]
    fn apply(&self, handle: &mut Self::Handle, tid: usize, op: Op, tally: &mut Tally) -> usize {
        let wants_push = op.kind == OpKind::Insert;
        let (push, out, source) = if self.shared {
            tally.hand += wants_push as u64;
            (wants_push, 0, 0)
        } else {
            (if wants_push { tally.hand > 0 } else { tally.hand >= HAND_CAP }, tid, 1 - tid)
        };
        if push {
            self.queues[out].0.push(handle, (tid as u64) << PRODUCER_SHIFT | tally.next_seq);
            tally.next_seq += 1;
            tally.hand -= 1;
            tally.added += 1;
            return 0;
        }
        match self.queues[source].0.pop(handle) {
            Some(value) => {
                tally.observe(value);
                tally.hand += 1;
                tally.removed += 1;
                1
            }
            None => 2,
        }
    }

    #[inline(always)]
    fn counted(kind: usize) -> bool {
        kind != 2
    }

    fn nudge(&self, handle: &mut Self::Handle) {
        self.scratch.0.push(handle, 0);
        self.scratch.0.pop(handle);
    }

    fn count(&self, handle: &mut Self::Handle, tallies: &mut [Tally]) -> u64 {
        let mut left = 0;
        for (q, queue) in self.queues.iter().enumerate() {
            let consumer = &mut tallies[1 - q];
            while let Some(value) = queue.0.pop(handle) {
                consumer.observe(value);
                left += 1;
            }
        }
        left
    }
}
