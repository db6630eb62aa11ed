//! One (workload, scheme) cell, run in a child process of the benchmark binary.
//!
//! The child builds the domain and structure, prefills, then drives closed-loop workers
//! through a warm-up and the timed trials on the same structure.  After each trial it
//! prints one `T {json}` line, and after the oracles one `C {json}` line; the parent keeps
//! whatever arrived if it has to kill the child.  With `--setup-only` the child instead
//! times set-up cycles on throwaway instances and prints one `S [seconds, …]` line.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use debra::{
    Allocator, Debra, DebraPlus, Domain, Pool, Reclaimer, RecordManager, RecordManagerThread,
};
use lockfree_ds::{BstNode, ExternalBst, SkipList, SkipNode};
use smr_alloc::{SystemAllocator, ThreadPool};
use smr_baselines::{ClassicEbr, HazardPointers, NoReclaim, ThreadScanLite};
use smr_hashmap::{HashMapNode, LockFreeHashMap};
use smr_ibr::Ibr;
use smr_pagepool::{PageAllocator, PagePool};
use smr_queue::QueueNode;
use smr_vbr::Vbr;

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::json::Json;
use crate::ops::{OpStream, Rng, KIND_NAMES};
use crate::spec::{Scheme, Structure, Workload, HASHMAP_BUCKETS};
use crate::subject::{MapSubject, RingSubject, Subject, Tally};

/// Latency is sampled on one op in 64 on average, chosen before the op runs: two clock
/// reads per op would be a fifth of a 100 ns operation.  The gap to the next sample is
/// drawn uniformly from 1..=127: a fixed stride of 64 beats against anything the program
/// does periodically (DEBRA rotates every 100th op, and depending on the prefill's length
/// the stride saw either none of those ops or four times their share).
const SAMPLE_GAP_MASK: u64 = 127;
/// Spans kept per worker in a traced trial (the first ones); the per-kind sums the
/// metrics use cover every op.
const SPAN_CAP: usize = 16_384;
/// Build + prefill + teardown cycles are timed until there are at least `SETUP_MIN_REPS`
/// of them and they have taken `SETUP_BUDGET` together (a 50 µs queue set-up needs many to
/// give a steady median, an 80 ms skip list prefill does not), but never more than
/// `SETUP_MAX_REPS`.  The cell's set-up time is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_millis(60);
/// Phase 0 is the warm-up, 1..=trials the timed trials, trials+1 the traced trial.
const DRAIN: u32 = u32::MAX;

/// How long a worker may take to notice a phase change before the cell says so on stderr.
const OVERDUE: Duration = Duration::from_secs(2);

const LAGGARD_WINDOW: Duration = Duration::from_millis(20);
const LAGGARD_SLICE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone)]
pub struct CellArgs {
    pub workload: &'static Workload,
    pub scheme: Scheme,
    pub seed: u64,
    pub trials: u32,
    pub trial_ms: u64,
    pub warmup_ms: u64,
    /// Only time build + prefill + teardown cycles on throwaway instances and print them
    /// (`S [seconds, …]`).  A process of its own: one that had done this first ran the
    /// trials differently (ThreadScan on `queue_ring` a quarter slower), so a run's first
    /// pass read unlike its other two.
    pub setup_only: bool,
    /// Add one traced trial and write its spans here.
    pub trace_file: Option<PathBuf>,
    /// Test hook (`BENCH_HOOK=hang:…`): stop responding after the first trial line.
    pub hook_hang: bool,
    /// Reproduction hook (`BENCH_HOOK=livelock`): the configuration the VBR x MsQueue
    /// livelock was found in — one queue shared by both workers, elements not conserved,
    /// and nobody keeping reclamation moving while the last worker finishes.
    pub hook_livelock: bool,
}

/// The public counters read at trial boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    fields: [u64; 11],
}

const SNAPSHOT_FIELDS: [&str; 11] = [
    "retired",
    "reclaimed",
    "pending",
    "operations",
    "signals_sent",
    "neutralized",
    "limbo_bytes_hwm",
    "epoch_stalls",
    "pool_hits",
    "pool_misses",
    "fresh_records",
];

impl Snapshot {
    fn take<T, R, P, A>(manager: &RecordManager<T, R, P, A>) -> Self
    where
        T: Send + 'static,
        R: Reclaimer<T>,
        P: Pool<T>,
        A: Allocator<T>,
    {
        let r = manager.reclaimer().stats();
        let p = manager.pool().stats();
        Snapshot {
            fields: [
                r.retired,
                r.reclaimed,
                r.pending,
                r.operations,
                r.signals_sent,
                r.neutralized,
                r.limbo_bytes_hwm,
                r.epoch_stalls,
                p.magazine_hits,
                p.magazine_misses,
                manager.allocator().allocated_records(),
            ],
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.fields[SNAPSHOT_FIELDS.iter().position(|f| *f == name).expect("a snapshot field")]
    }

    /// Counters as the change since `earlier`; the two gauges (`pending`,
    /// `limbo_bytes_hwm`) as they stand now.
    fn since(&self, earlier: &Snapshot) -> Json {
        Json::obj(SNAPSHOT_FIELDS.iter().enumerate().map(|(i, name)| {
            let gauge = matches!(*name, "pending" | "limbo_bytes_hwm");
            let v = if gauge {
                self.fields[i]
            } else {
                self.fields[i].saturating_sub(earlier.fields[i])
            };
            (*name, Json::Num(v as f64))
        }))
    }
}

struct Control {
    ready: AtomicUsize,
    start: AtomicBool,
    phase: AtomicU32,
    /// Set once the final counters are read; threads drop their handles after it.
    release: AtomicBool,
}

#[derive(Clone, Copy)]
struct RawSpan {
    start: u64,
    end: u64,
    kind: u8,
}

/// What one worker did in one phase.
struct PhaseReport {
    phase: u32,
    kinds: [u64; 3],
    hist: Histogram,
    /// Traced phase only: summed span time per kind (clock ticks) and the kept spans.
    span_ticks: [u64; 3],
    spans: Vec<RawSpan>,
}

/// One worker thread's state: its handle on the structure, its operation stream and the
/// tallies the oracle needs.
struct Worker<'a, S: Subject> {
    subject: &'a S,
    handle: S::Handle,
    tid: usize,
    stream: OpStream,
    tally: Tally,
    ctl: &'a Control,
    clock: &'a Clock,
}

impl<S: Subject> Worker<'_, S> {
    /// Runs operations until the controller leaves `rep.phase`; returns the new phase.
    #[inline(never)]
    fn untraced_loop(&mut self, rep: &mut PhaseReport) -> u32 {
        let mut gaps = Rng::new(rep.phase as u64 ^ (self.tid as u64) << 32 ^ 0x5A3D_1E57);
        let mut countdown = (gaps.next_u64() & SAMPLE_GAP_MASK).max(1);
        loop {
            let phase = self.ctl.phase.load(Ordering::Relaxed);
            if phase != rep.phase {
                return phase;
            }
            let op = self.stream.next_op();
            countdown -= 1;
            let sampled = countdown == 0;
            if sampled {
                countdown = (gaps.next_u64() & SAMPLE_GAP_MASK).max(1);
            }
            let t0 = if sampled { self.clock.raw() } else { 0 };
            let kind = self.subject.apply(&mut self.handle, self.tid, op, &mut self.tally);
            if sampled && S::counted(kind) {
                rep.hist.record(self.clock.ns_between(t0, self.clock.raw()));
            }
            rep.kinds[kind] += 1;
        }
    }

    /// The traced twin: every structure call is one span.  Kept apart so the untraced
    /// loop carries no tracing code at all.
    #[inline(never)]
    fn traced_loop(&mut self, rep: &mut PhaseReport) -> u32 {
        loop {
            let phase = self.ctl.phase.load(Ordering::Relaxed);
            if phase != rep.phase {
                return phase;
            }
            let op = self.stream.next_op();
            let start = self.clock.raw();
            let kind = self.subject.apply(&mut self.handle, self.tid, op, &mut self.tally);
            let end = self.clock.raw();
            rep.kinds[kind] += 1;
            rep.span_ticks[kind] += end.saturating_sub(start);
            if rep.spans.len() < SPAN_CAP {
                rep.spans.push(RawSpan { start, end, kind: kind as u8 });
            }
        }
    }
}

/// A worker thread's life: register, prefill its share, run every phase, wait for release.
fn worker<S: Subject>(
    subject: &S,
    tid: usize,
    args: &CellArgs,
    ctl: &Control,
    clock: &Clock,
    reports: mpsc::Sender<PhaseReport>,
) -> Tally {
    let w = args.workload;
    let mut me = Worker {
        subject,
        handle: subject.register(),
        tid,
        stream: OpStream::new(args.seed, tid, w.mix, w.key_range),
        tally: subject.new_tally(),
        ctl,
        clock,
    };
    me.tally.prefilled = subject.prefill(&mut me.handle, tid, w.workers, args.seed);
    let traced_phase = args.trace_file.as_ref().map(|_| args.trials + 1);
    // Everything the timed loops write into is allocated here, before the start gate.
    let mut blanks: Vec<PhaseReport> = (0..=traced_phase.unwrap_or(args.trials))
        .rev()
        .map(|phase| PhaseReport {
            phase,
            kinds: [0; 3],
            hist: Histogram::new(),
            span_ticks: [0; 3],
            spans: Vec::with_capacity(if Some(phase) == traced_phase { SPAN_CAP } else { 0 }),
        })
        .collect();
    ctl.ready.fetch_add(1, Ordering::SeqCst);
    while !ctl.start.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let mut phase = ctl.phase.load(Ordering::Relaxed);
    while phase != DRAIN {
        // The controller only moves forward, one phase at a time.
        let mut rep = blanks.pop().expect("one blank report per phase");
        debug_assert_eq!(rep.phase, phase);
        phase = if Some(phase) == traced_phase {
            me.traced_loop(&mut rep)
        } else {
            me.untraced_loop(&mut rep)
        };
        reports.send(rep).expect("the controller outlives the workers");
    }
    while !ctl.release.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(200));
    }
    me.tally
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct LaggardReport {
    pub windows: u64,
    pub slices: u64,
    pub recoveries: u64,
}

/// The benchmark-owned stalled process: leaves the quiescent state, then only sleeps in
/// 1 ms slices for a 20 ms window — checking for neutralization after each slice and
/// recovering (acknowledge, re-enter) when signalled — and rests quiescent for 1 ms
/// between windows.  It never spins and never touches the structure.
pub fn laggard<T, R, P, A>(
    thread: &mut RecordManagerThread<T, R, P, A>,
    stop: &AtomicBool,
) -> LaggardReport
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
{
    let mut report = LaggardReport::default();
    while !stop.load(Ordering::Acquire) {
        let _ = thread.leave_qstate();
        report.windows += 1;
        let window = Instant::now();
        while window.elapsed() < LAGGARD_WINDOW && !stop.load(Ordering::Acquire) {
            std::thread::sleep(LAGGARD_SLICE);
            report.slices += 1;
            if thread.check().is_err() {
                thread.begin_recovery();
                let _ = thread.leave_qstate();
                report.recoveries += 1;
            }
        }
        thread.enter_qstate();
        std::thread::sleep(LAGGARD_SLICE);
    }
    report
}

/// Sleeps to a deadline in short slices.  One long `sleep` restarts after every signal
/// with the time left rounded up, and a signalling scheme (ThreadScan, DEBRA+) sends
/// thousands a second: a 1 s sleep was measured to take 2 s.
fn sleep_until(deadline: Instant) {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
}

fn emit(tag: char, line: Json) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{tag} {line}").and_then(|_| out.flush()).expect("the parent reads our stdout");
}

fn write_spans(
    path: &Path,
    clock: &Clock,
    trial_start: u64,
    trial_end: u64,
    per_worker: &[Vec<RawSpan>],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let root_end = clock.ns_between(trial_start, trial_end);
    writeln!(
        out,
        "{{\"id\":0,\"parent\":null,\"name\":\"trial\",\"tid\":\"main\",\"start\":0,\"end\":{root_end}}}"
    )?;
    let mut id = 0usize;
    for (tid, spans) in per_worker.iter().enumerate() {
        for s in spans {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":0,\"name\":\"op.{}\",\"tid\":{tid},\"start\":{},\"end\":{}}}",
                KIND_NAMES[s.kind as usize],
                clock.ns_between(trial_start, s.start),
                clock.ns_between(trial_start, s.end),
            )?;
        }
    }
    out.flush()?;
    Ok(id + 1)
}

/// Runs the cell for one composition of reclaimer, pool and allocator.  `make` builds a
/// fresh domain (sized for `threads`) and the structure in it.
fn run_cell<T, R, P, A, S>(args: &CellArgs, make: impl Fn(usize) -> (Domain<T, R, P, A>, S))
where
    T: Send + 'static,
    R: Reclaimer<T>,
    P: Pool<T>,
    A: Allocator<T>,
    S: Subject,
{
    let w = args.workload;
    // One slot for the controller (prefill, shutdown nudge, oracle); the last is the laggard's.
    let threads = 1 + w.workers + w.laggard as usize;
    if args.setup_only {
        // Set-up cost, on throwaway instances: construct, prefill, tear down.
        let setup_begin = Instant::now();
        let mut setup_reps: Vec<f64> = Vec::new();
        while setup_reps.len() < SETUP_MIN_REPS
            || (setup_reps.len() < SETUP_MAX_REPS && setup_begin.elapsed() < SETUP_BUDGET)
        {
            let begin = Instant::now();
            let (domain, subject) = make(threads);
            let mut handle = subject.register();
            (0..w.workers).for_each(|tid| {
                subject.prefill(&mut handle, tid, w.workers, args.seed);
            });
            drop(handle);
            drop(subject);
            drop(domain);
            setup_reps.push(begin.elapsed().as_secs_f64());
        }
        emit('S', Json::Arr(setup_reps.into_iter().map(Json::Num).collect()));
        return;
    }

    let clock = Clock::calibrate();
    let (domain, subject) = make(threads);
    let manager: Arc<RecordManager<T, R, P, A>> = Arc::clone(domain.manager());
    // Each worker prefills its share before the start gate.  The controller leases a thread
    // slot only for the shutdown nudge and the oracle: idle but registered it would stall
    // every scheme that waits for all registered threads (classic EBR reclaimed nothing
    // at all next to it), and a handle dropped after a prefill would orphan its limbo.
    let mut main_handle: Option<S::Handle> = None;

    let ctl = Control {
        ready: AtomicUsize::new(0),
        start: AtomicBool::new(false),
        phase: AtomicU32::new(0),
        release: AtomicBool::new(false),
    };
    let (tx, rx) = mpsc::channel::<PhaseReport>();
    let last_phase = args.trials + args.trace_file.is_some() as u32;

    let (mut tallies, laggard_report, end_snapshot) = std::thread::scope(|scope| {
        let laggard_thread = w.laggard.then(|| {
            let (manager, ctl) = (&manager, &ctl);
            scope.spawn(move || {
                // Registered on the laggard's own thread: DEBRA+ signals the registrant.
                let mut thread = manager.register(threads - 1).expect("the laggard's slot");
                ctl.ready.fetch_add(1, Ordering::SeqCst);
                laggard(&mut thread, &ctl.release)
            })
        });
        let worker_threads: Vec<_> = (0..w.workers)
            .map(|tid| {
                let (subject, ctl, clock, tx) = (&subject, &ctl, &clock, tx.clone());
                scope.spawn(move || worker(subject, tid, args, ctl, clock, tx))
            })
            .collect();
        while ctl.ready.load(Ordering::SeqCst) < w.workers + w.laggard as usize {
            std::thread::yield_now();
        }

        let mut boundary = (Instant::now(), clock.raw(), Snapshot::take(&manager));
        ctl.start.store(true, Ordering::Release);
        for phase in 0..=last_phase {
            let nominal = if phase == 0 { args.warmup_ms } else { args.trial_ms };
            sleep_until(boundary.0 + Duration::from_millis(nominal));
            let next = if phase == last_phase { DRAIN } else { phase + 1 };
            let (now, now_raw) = (Instant::now(), clock.raw());
            ctl.phase.store(next, Ordering::Relaxed);
            let now = (now, now_raw, Snapshot::take(&manager));
            let (begin, begin_raw, before) = std::mem::replace(&mut boundary, now);
            // Workers report as soon as they return from the operation the phase ended
            // in.  After the last phase nobody else is left running, and a scheme that
            // only advances when somebody retires would leave a worker that is still
            // inside an operation spinning for good (README, "Known livelock"); so while
            // the last reports are out, the controller keeps reclamation moving.
            let mut reports: Vec<PhaseReport> = Vec::with_capacity(w.workers);
            let mut complain_after = OVERDUE;
            while reports.len() < w.workers {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(report) => reports.push(report),
                    Err(_) => {
                        if next == DRAIN && !args.hook_livelock {
                            let handle = main_handle.get_or_insert_with(|| subject.register());
                            (0..64).for_each(|_| subject.nudge(handle));
                        }
                        if boundary.0.elapsed() >= complain_after {
                            // Say what is known and keep waiting; the parent's watchdog decides.
                            eprintln!(
                                "cell {}/{}: phase {phase} ended {:.1?} ago, {} of {} workers reported; \
                                 counters now: {}",
                                w.name,
                                args.scheme.name(),
                                boundary.0.elapsed(),
                                reports.len(),
                                w.workers,
                                Snapshot::take(&manager).since(&Snapshot::default()),
                            );
                            complain_after += OVERDUE;
                        }
                    }
                }
            }
            if phase == 0 {
                continue; // the warm-up is discarded
            }
            let traced = phase > args.trials;
            let mut hist = Histogram::new();
            let mut kinds = [0u64; 3];
            let mut span_ticks = [0u64; 3];
            for rep in &reports {
                assert_eq!(rep.phase, phase);
                hist.merge(&rep.hist);
                for k in 0..3 {
                    kinds[k] += rep.kinds[k];
                    span_ticks[k] += rep.span_ticks[k];
                }
            }
            let counted_ops: u64 = (0..3).filter(|&k| S::counted(k)).map(|k| kinds[k]).sum();
            let mut line = vec![
                ("trial", Json::Num(phase as f64)),
                ("traced", Json::Bool(traced)),
                ("secs", Json::Num((boundary.0 - begin).as_secs_f64())),
                ("ops", Json::Num(counted_ops as f64)),
                ("kinds", Json::Arr(kinds.iter().map(|&k| Json::Num(k as f64)).collect())),
                ("stats", boundary.2.since(&before)),
            ];
            if traced {
                let span_ns = span_ticks.iter().map(|&t| Json::Num(clock.ns_between(0, t) as f64));
                line.push(("span_ns", Json::Arr(span_ns.collect())));
                let spans: Vec<Vec<RawSpan>> = reports.into_iter().map(|r| r.spans).collect();
                let path = args.trace_file.as_ref().expect("a traced phase has a trace file");
                let written = write_spans(path, &clock, begin_raw, boundary.1, &spans)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                line.push(("spans_written", Json::Num(written as f64)));
            } else {
                line.push(("hist", hist.to_json()));
            }
            emit('T', Json::obj(line));
            if args.hook_hang {
                loop {
                    std::thread::sleep(Duration::from_secs(1));
                }
            }
        }

        // Read with every handle still leased: a dropped handle hands its limbo over
        // and zeroes its `pending` gauge.
        let end_snapshot = Snapshot::take(&manager);
        ctl.release.store(true, Ordering::Release);
        let tallies: Vec<Tally> =
            worker_threads.into_iter().map(|t| t.join().expect("a worker panicked")).collect();
        let laggard_report = laggard_thread.map(|t| t.join().expect("the laggard panicked"));
        (tallies, laggard_report, end_snapshot)
    });

    // Output oracles, single-threaded.
    let added: u64 = tallies.iter().map(|t| t.added).sum();
    let removed: u64 = tallies.iter().map(|t| t.removed).sum();
    let mut main_handle = main_handle.unwrap_or_else(|| subject.register());
    let held = subject.count(&mut main_handle, &mut tallies);
    let order_violations: u64 = tallies.iter().map(|t| t.order_violations).sum();
    let prefilled: u64 = tallies.iter().map(|t| t.prefilled).sum();
    let (retired, reclaimed, pending) =
        (end_snapshot.get("retired"), end_snapshot.get("reclaimed"), end_snapshot.get("pending"));
    let mut failures = Vec::new();
    if prefilled + added != removed + held {
        failures.push(format!(
            "contents: prefill {prefilled} + added {added} != removed {removed} + held {held}"
        ));
    }
    if order_violations > 0 {
        failures.push(format!("order: {order_violations} pops out of producer order"));
    }
    if retired < reclaimed || retired - reclaimed != pending {
        failures.push(format!(
            "accounting: retired {retired}, reclaimed {reclaimed}, pending {pending}"
        ));
    }
    drop(main_handle);
    drop(subject);
    drop(domain);

    let laggard_json = laggard_report.map_or(Json::Null, |l| {
        Json::obj([
            ("windows", Json::Num(l.windows as f64)),
            ("slices", Json::Num(l.slices as f64)),
            ("recoveries", Json::Num(l.recoveries as f64)),
        ])
    });
    emit(
        'C',
        Json::obj([
            ("reclaimer", Json::str(R::name())),
            ("pool", Json::str(P::name())),
            ("allocator", Json::str(A::name())),
            ("oracle_ok", Json::Bool(failures.is_empty())),
            ("oracle_failures", Json::Arr(failures.into_iter().map(Json::Str).collect())),
            ("laggard", laggard_json),
        ]),
    );
}

/// Expands `$body` once per scheme with `R`, `P`, `A` bound to the composition the
/// workload prescribes: `$pool`/`$alloc` for every scheme but VBR, which only runs over
/// the type-stable page pool.
macro_rules! for_scheme {
    ($scheme:expr, $node:ty, $pool:ident, $alloc:ident, $call:ident ( $($arg:expr),* )) => {{
        type N = $node;
        match $scheme {
            Scheme::None => $call::<NoReclaim<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::Debra => $call::<Debra<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::DebraPlus => $call::<DebraPlus<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::Hp => $call::<HazardPointers<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::Ebr => $call::<ClassicEbr<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::ThreadScan => $call::<ThreadScanLite<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::Ibr => $call::<Ibr<N>, $pool<N>, $alloc<N>>($($arg),*),
            Scheme::Vbr => $call::<Vbr<N>, PagePool<N>, PageAllocator<N>>($($arg),*),
        }
    }};
}
pub(crate) use for_scheme;

fn bst_cell<R, P, A>(args: &CellArgs)
where
    R: Reclaimer<BstNode<u64, u64>>,
    P: Pool<BstNode<u64, u64>>,
    A: Allocator<BstNode<u64, u64>>,
{
    run_cell(args, |threads| {
        let domain = Domain::<_, R, P, A>::new(threads);
        let map = ExternalBst::in_domain(domain.clone());
        (domain, MapSubject { map, key_range: args.workload.key_range })
    });
}

fn skiplist_cell<R, P, A>(args: &CellArgs)
where
    R: Reclaimer<SkipNode<u64, u64>>,
    P: Pool<SkipNode<u64, u64>>,
    A: Allocator<SkipNode<u64, u64>>,
{
    run_cell(args, |threads| {
        let domain = Domain::<_, R, P, A>::new(threads);
        let map = SkipList::in_domain(domain.clone());
        (domain, MapSubject { map, key_range: args.workload.key_range })
    });
}

fn hashmap_cell<R, P, A>(args: &CellArgs)
where
    R: Reclaimer<HashMapNode<u64, u64>>,
    P: Pool<HashMapNode<u64, u64>>,
    A: Allocator<HashMapNode<u64, u64>>,
{
    run_cell(args, |threads| {
        let domain = Domain::<_, R, P, A>::new(threads);
        let map = LockFreeHashMap::in_domain(domain.clone(), HASHMAP_BUCKETS);
        (domain, MapSubject { map, key_range: args.workload.key_range })
    });
}

fn ring_cell<R, P, A>(args: &CellArgs)
where
    R: Reclaimer<QueueNode<u64>>,
    P: Pool<QueueNode<u64>>,
    A: Allocator<QueueNode<u64>>,
{
    run_cell(args, |threads| {
        let domain = Domain::<_, R, P, A>::new(threads);
        let ring = RingSubject::in_domain(&domain, args.hook_livelock);
        (domain, ring)
    });
}

pub fn run(args: &CellArgs) {
    let s = args.scheme;
    match args.workload.structure {
        Structure::Bst => {
            for_scheme!(s, BstNode<u64, u64>, ThreadPool, SystemAllocator, bst_cell(args))
        }
        Structure::SkipList => {
            for_scheme!(s, SkipNode<u64, u64>, PagePool, PageAllocator, skiplist_cell(args))
        }
        Structure::QueueRing => {
            for_scheme!(s, QueueNode<u64>, PagePool, PageAllocator, ring_cell(args))
        }
        Structure::HashMap => {
            for_scheme!(s, HashMapNode<u64, u64>, ThreadPool, SystemAllocator, hashmap_cell(args))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debra::Atomic;

    type Plus = DebraPlus<u64>;
    type D = Domain<u64, Plus, ThreadPool<u64>, SystemAllocator<u64>>;

    /// The laggard holds its operation open (non-quiescent) while it sleeps, and after
    /// DEBRA+ neutralizes it, it acknowledges, re-enters and goes on holding.
    #[test]
    fn laggard_holds_sleeps_and_recovers_from_neutralization() {
        let domain: D = Domain::new(2);
        let manager = Arc::clone(domain.manager());
        let stop = AtomicBool::new(false);
        let in_window = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let lag = scope.spawn(|| {
                let mut thread = manager.register(1).unwrap();
                let _ = thread.leave_qstate();
                assert!(!thread.is_quiescent(), "leave_qstate opens the operation");
                thread.enter_qstate();
                in_window.store(true, Ordering::SeqCst);
                laggard(&mut thread, &stop)
            });
            while !in_window.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Retire until the laggard's stale announcement makes DEBRA+ signal it.
            let handle = domain.handle();
            let link: Atomic<u64> = Atomic::null();
            let deadline = Instant::now() + Duration::from_secs(20);
            while manager.reclaimer().stats().neutralized == 0 && Instant::now() < deadline {
                for _ in 0..1000 {
                    let guard = handle.pin();
                    let null = link.load(Ordering::Acquire, &guard);
                    let node = guard.alloc(7);
                    let published = link
                        .compare_exchange_owned(
                            null,
                            node,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            &guard,
                        )
                        .unwrap();
                    link.compare_exchange(
                        published,
                        null,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        &guard,
                    )
                    .unwrap();
                    guard.retire(published);
                }
            }
            // Let it run a little past the recovery, then stop it.
            std::thread::sleep(3 * LAGGARD_WINDOW);
            stop.store(true, Ordering::Release);
            lag.join().unwrap()
        });
        let stats = manager.reclaimer().stats();
        assert!(stats.neutralized >= 1 && stats.signals_sent >= 1, "{stats:?}");
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(report.windows >= 2, "it went on opening windows: {report:?}");
        // It slept its windows away: about one slice per millisecond held, never a spin.
        assert!(report.slices >= 20 && report.slices <= 40 * report.windows, "{report:?}");
    }
}
