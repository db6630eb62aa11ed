//! The shadow lifecycle table and its hook functions.
//!
//! One process-global table maps record addresses to shadow cells. Hooks build
//! a possible [`Violation`] while holding the table lock, release the lock,
//! then hand it to the report sink (`report::emit`) — so panic mode never
//! poisons the table and never fires under a held lock.
//!
//! Hook ordering contracts (they matter for soundness — see DESIGN.md §9):
//!
//! * `on_protect_begin` runs *before* the real announcement overwrites a slot
//!   (clearing the old shadow protection early can at worst hide a real
//!   violation for one race window, never invent one), and
//!   `on_protect_commit` runs *after* the real protect validated (the real
//!   announcement is already visible, so the scheme cannot free the record
//!   between validation and shadow registration).
//! * `on_unprotect` / `on_runprotect_all` run *before* the real clear, for the
//!   same one-sided reason.
//! * `on_retire` / free checks run *before* the real action so record mode can
//!   suppress the dangerous transition (returning `false`), keeping flagged
//!   runs memory-safe.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::report::{self, Violation, ViolationKind};

/// Shadow lifecycle states. `Freed` also covers never-published records that
/// were discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Handed out by the allocator, not yet CAS'd into a shared location.
    Allocated,
    /// Snapshotted into another (possibly still-private) record's link
    /// (`Atomic::from_shared`): the record becomes reachable *transitively*
    /// the moment its holder is published, which the shadow table cannot
    /// observe — so `Linked` records may be retired without a publish event
    /// (the EFRB BST's new-subtree pattern: children are linked into a
    /// descriptor privately and published by the descriptor's one CAS).
    Linked,
    /// Reachable through the data structure (published at least once).
    Published,
    /// Unlinked and handed to `retire`; awaiting the scheme's grace period.
    Retired,
    /// Handed back to the pool/allocator; dereferencing is use-after-free.
    Freed,
    /// Re-allocated over a `Retired` record *without* an intervening per-record free
    /// event.  Legal only for managers whose scheme validates reads against a version
    /// clock (`validate_reads`): version-based reclamation may recycle a retired slot
    /// straight from limbo once the clock has advanced far enough, and type stability
    /// keeps the transition machine-safe.  Behaves like `Allocated` for the rest of the
    /// lifecycle; under any other scheme the same reuse is an `AllocOverLive` violation.
    Revived,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct ProtKey {
    mgr: u64,
    tid: usize,
    slot: usize,
    restricted: bool,
}

struct Cell {
    mgr: u64,
    state: State,
    type_name: &'static str,
    /// Shadow-clock stamp of the retire (0 while not retired).
    retired_at: u64,
    retire_tid: usize,
    retire_stack: Option<Arc<str>>,
    /// Announcements currently covering this record (shield slots and
    /// restricted hazards). Tiny in practice.
    protectors: Vec<ProtKey>,
}

struct ManagerInfo {
    scheme: &'static str,
    /// Renders the scheme's live `ReclaimerStats`/epoch state for violation
    /// reports. Must not call back into this module.
    state_provider: Box<dyn Fn() -> String + Send + Sync>,
    /// `true` if the scheme has currently neutralized thread `tid` (DEBRA+ crash
    /// recovery).  A neutralized thread's operation is doomed to restart at its next
    /// checkpoint, so derefs it issues on already-reclaimed records inside that window
    /// are the scheme's documented tolerance, not protocol violations.  Must not call
    /// back into this module.
    neutralized_probe: Box<dyn Fn(usize) -> bool + Send + Sync>,
    /// `true` for schemes with `ReadProtection::Validate` (version-based reclamation):
    /// readers announce nothing, so a record may be retired — or even recycled — while
    /// an optimistic read is in flight.  The scheme's contract is that such a read is
    /// discarded at the next version checkpoint and the dereference itself is
    /// machine-safe by type stability; the shadow model therefore excuses stale deref
    /// reports and admits the [`State::Revived`] reuse transition for these managers.
    validate_reads: bool,
}

struct PageRange {
    base: usize,
    len: usize,
    type_name: &'static str,
}

#[derive(Default)]
struct Table {
    cells: HashMap<usize, Cell>,
    /// (mgr, tid, slot) → protected address, for shield-slot announcements.
    slots: HashMap<(u64, usize, usize), usize>,
    /// (mgr, tid) → addresses under restricted (DEBRA+) protection.
    rprot: HashMap<(u64, usize), Vec<usize>>,
    managers: HashMap<u64, ManagerInfo>,
    /// Typed page ranges reported by the page pool, sorted by base.
    pages: Vec<PageRange>,
}

fn lock() -> MutexGuard<'static, Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Default::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Global shadow clock: one total order over pins and retires.
static CLOCK: AtomicU64 = AtomicU64::new(1);
static NEXT_MGR: AtomicU64 = AtomicU64::new(1);

fn tick() -> u64 {
    CLOCK.fetch_add(1, Ordering::SeqCst)
}

/// Per-(thread, manager) operation context: pin depth and the shadow-clock
/// stamp of the outermost pin.
struct PinCtx {
    tid: usize,
    depth: usize,
    pinned_at: u64,
    requires_protection: bool,
}

thread_local! {
    static PINS: RefCell<HashMap<u64, PinCtx>> = RefCell::new(HashMap::new());
}

fn build(t: &Table, kind: ViolationKind, addr: usize, mgr: u64, detail: String) -> Violation {
    let (type_name, retire_stack) = match t.cells.get(&addr) {
        Some(c) => (c.type_name, c.retire_stack.clone()),
        None => ("<untracked>", None),
    };
    let (scheme, scheme_state) = match t.managers.get(&mgr) {
        Some(m) => (m.scheme, (m.state_provider)()),
        None => ("<unknown>", String::from("<manager gone>")),
    };
    Violation {
        kind,
        addr,
        type_name,
        scheme,
        detail,
        scheme_state,
        retire_stack,
        site_stack: report::capture_site_stack(),
    }
}

/// Registers a `RecordManager` instance; the returned id keys all its hooks.
/// `state_provider` renders the scheme's live stats for violation reports;
/// `neutralized_probe` reports whether a given thread is currently neutralized
/// (always `false` for schemes without crash recovery); `validate_reads` is
/// `true` for version-validating schemes (`ReadProtection::Validate`), whose
/// optimistic-read tolerance the shadow model must honour (see
/// [`State::Revived`]).
pub fn register_manager(
    scheme: &'static str,
    state_provider: Box<dyn Fn() -> String + Send + Sync>,
    neutralized_probe: Box<dyn Fn(usize) -> bool + Send + Sync>,
    validate_reads: bool,
) -> u64 {
    let id = NEXT_MGR.fetch_add(1, Ordering::SeqCst);
    lock()
        .managers
        .insert(id, ManagerInfo { scheme, state_provider, neutralized_probe, validate_reads });
    id
}

/// `true` if `mgr` was registered as a version-validating (`Validate`) scheme.
fn validates_reads(t: &Table, mgr: u64) -> bool {
    t.managers.get(&mgr).is_some_and(|m| m.validate_reads)
}

/// Tears down a manager's shadow state after its stragglers were reclaimed.
/// Any cell still not `Freed` is a leak: counted, summarized on stderr, and
/// added to [`leaked_records`](crate::leaked_records). Returns the leak count.
pub fn unregister_manager(mgr: u64) -> usize {
    let (leaked, scheme) = {
        let mut t = lock();
        let scheme = t.managers.remove(&mgr).map(|m| m.scheme).unwrap_or("?");
        let mut leaked: Vec<(usize, &'static str, State)> = Vec::new();
        t.cells.retain(|addr, c| {
            if c.mgr != mgr {
                return true;
            }
            if c.state != State::Freed {
                leaked.push((*addr, c.type_name, c.state));
            }
            false
        });
        t.slots.retain(|k, _| k.0 != mgr);
        t.rprot.retain(|k, _| k.0 != mgr);
        (leaked, scheme)
    };
    if !leaked.is_empty() {
        report::note_leaked(leaked.len() as u64);
        eprintln!(
            "[smr-check] manager teardown (scheme {scheme}): {} record(s) never freed",
            leaked.len()
        );
        for (addr, ty, st) in leaked.iter().take(8) {
            eprintln!("[smr-check]   leaked {addr:#x} ({ty}) in state {st:?}");
        }
        if leaked.len() > 8 {
            eprintln!("[smr-check]   ... and {} more", leaked.len() - 8);
        }
    }
    leaked.len()
}

/// Registers a typed page mapped by the page pool; `on_alloc` checks the
/// type-stability contract against these ranges.
pub fn note_typed_page(type_name: &'static str, base: usize, len: usize) {
    let mut t = lock();
    let idx = t.pages.partition_point(|p| p.base < base);
    t.pages.insert(idx, PageRange { base, len, type_name });
}

fn page_type(t: &Table, addr: usize) -> Option<&'static str> {
    let idx = t.pages.partition_point(|p| p.base <= addr);
    let p = t.pages.get(idx.checked_sub(1)?)?;
    (addr < p.base + p.len).then_some(p.type_name)
}

/// Allocator handed out `addr` for a new record of `type_name`.
pub fn on_alloc(mgr: u64, tid: usize, addr: usize, type_name: &'static str) {
    let v = {
        let mut t = lock();
        let mut v = None;
        if let Some(page_ty) = page_type(&t, addr) {
            if page_ty != type_name {
                v = Some(build(
                    &t,
                    ViolationKind::TypeMismatch,
                    addr,
                    mgr,
                    format!(
                        "page typed for {page_ty} recycled as {type_name} by thread {tid} \
                         (type-stability contract broken)"
                    ),
                ));
            }
        }
        let mut revived = false;
        if v.is_none() {
            if let Some(c) = t.cells.get(&addr) {
                if c.mgr == mgr && c.state != State::Freed {
                    if c.state == State::Retired && validates_reads(&t, mgr) {
                        // Version-validating schemes may recycle a retired slot without
                        // a per-record free event: readers that could still see it are
                        // fenced off by the version clock, not by the free.  Record the
                        // legal `Revived` transition instead of `AllocOverLive`.
                        revived = true;
                    } else {
                        v = Some(build(
                            &t,
                            ViolationKind::AllocOverLive,
                            addr,
                            mgr,
                            format!(
                                "allocator handed thread {tid} an address whose previous record \
                                 is still {:?}",
                                c.state
                            ),
                        ));
                    }
                }
            }
        }
        t.cells.insert(
            addr,
            Cell {
                mgr,
                state: if revived { State::Revived } else { State::Allocated },
                type_name,
                retired_at: 0,
                retire_tid: usize::MAX,
                retire_stack: None,
                protectors: Vec::new(),
            },
        );
        v
    };
    if let Some(v) = v {
        report::emit(v);
    }
}

/// Direct deallocation of a never-published record (`discard`). Returns
/// whether the real deallocation should proceed.
pub fn on_dealloc(mgr: u64, tid: usize, addr: usize) -> bool {
    let (v, proceed) = {
        let mut t = lock();
        match t.cells.get_mut(&addr) {
            None => (None, true),
            Some(c) => match c.state {
                // `Linked` may be discarded: the holder of the link snapshot was
                // never published (a lost insert discards the whole private subtree).
                State::Allocated | State::Linked | State::Revived => {
                    c.state = State::Freed;
                    (None, true)
                }
                State::Freed => (
                    Some(build(
                        &t,
                        ViolationKind::DoubleFree,
                        addr,
                        mgr,
                        format!("thread {tid} discarded an already-freed record"),
                    )),
                    false,
                ),
                st => (
                    Some(build(
                        &t,
                        ViolationKind::FreeUnretired,
                        addr,
                        mgr,
                        format!("thread {tid} discarded a record in state {st:?} (published records must be retired, not discarded)"),
                    )),
                    false,
                ),
            },
        }
    };
    if let Some(v) = v {
        report::emit(v);
    }
    proceed
}

/// A private link snapshot now points at `addr` (`Atomic::from_shared`):
/// the record may become reachable transitively when its holder is
/// published, so it graduates from `Allocated` to `Linked`.  Already
/// published (or null/untracked) targets are left alone.
pub fn on_link(addr: usize) {
    let mut t = lock();
    if let Some(c) = t.cells.get_mut(&addr) {
        if matches!(c.state, State::Allocated | State::Revived) {
            c.state = State::Linked;
        }
    }
}

/// A record became reachable (owned CAS publication or construction-time
/// store). Untracked addresses are ignored.
///
/// For CAS publication this runs *before* the real CAS (with
/// [`on_publish_revert`] undoing it on failure): were it recorded after, a
/// concurrent thread could legally pop and retire the just-published record
/// inside the hook lag and be misreported as retiring an unpublished one.
/// Pre-recording is safe because the record is still private — no other
/// thread can act on it until the real CAS succeeds.
pub fn on_publish(addr: usize) {
    let v = {
        let mut t = lock();
        match t.cells.get_mut(&addr) {
            None => None,
            Some(c) => match c.state {
                State::Allocated | State::Linked | State::Revived => {
                    c.state = State::Published;
                    None
                }
                State::Published => None,
                st => {
                    let mgr = c.mgr;
                    Some(build(
                        &t,
                        ViolationKind::PublishAfterRetire,
                        addr,
                        mgr,
                        format!("record in state {st:?} was published into a shared location"),
                    ))
                }
            },
        }
    };
    if let Some(v) = v {
        report::emit(v);
    }
}

/// Undoes a pre-recorded [`on_publish`] after the real publication CAS
/// failed.  The record is still private to the calling thread, so the
/// sequential revert cannot race anything.
pub fn on_publish_revert(addr: usize) {
    let mut t = lock();
    if let Some(c) = t.cells.get_mut(&addr) {
        if c.state == State::Published {
            c.state = State::Allocated;
        }
    }
}

/// Pre-retire check. Returns whether the real retire should proceed (record
/// mode suppresses double/late retires to keep the run memory-safe).
pub fn on_retire(mgr: u64, tid: usize, addr: usize) -> bool {
    let (v, proceed) = {
        let mut t = lock();
        match t.cells.get_mut(&addr) {
            None => (None, true),
            Some(c) => match c.state {
                State::Published | State::Linked | State::Allocated | State::Revived => {
                    // `Linked` retires silently: the record was snapshotted into
                    // another record's link and may well be reachable (transitive
                    // publication, invisible to the shadow table).
                    let was_unpublished = matches!(c.state, State::Allocated | State::Revived);
                    c.state = State::Retired;
                    c.retired_at = tick();
                    c.retire_tid = tid;
                    c.retire_stack = if report::capture_retire_stacks() {
                        report::capture_site_stack().map(Arc::from)
                    } else {
                        None
                    };
                    let v = was_unpublished.then(|| {
                        build(
                            &t,
                            ViolationKind::RetireUnpublished,
                            addr,
                            mgr,
                            format!(
                                "thread {tid} retired a record that was never published \
                                 (use discard for unpublished records)"
                            ),
                        )
                    });
                    (v, true)
                }
                State::Retired => {
                    let (first_tid, at) = (c.retire_tid, c.retired_at);
                    (
                        Some(build(
                            &t,
                            ViolationKind::DoubleRetire,
                            addr,
                            mgr,
                            format!(
                                "thread {tid} retired a record already retired by thread \
                                 {first_tid} at shadow time {at}"
                            ),
                        )),
                        false,
                    )
                }
                State::Freed => (
                    Some(build(
                        &t,
                        ViolationKind::RetireAfterFree,
                        addr,
                        mgr,
                        format!("thread {tid} retired an already-freed record"),
                    )),
                    false,
                ),
            },
        }
    };
    if let Some(v) = v {
        report::emit(v);
    }
    proceed
}

/// The reclaimer decided `addr` is safe to hand to the pool/allocator.
/// Returns whether the real free should proceed.
pub fn on_free(mgr: u64, tid: usize, addr: usize) -> bool {
    let (v, proceed) = {
        let mut t = lock();
        match t.cells.get_mut(&addr) {
            None => (None, true),
            Some(c) => match c.state {
                State::Retired => {
                    if let Some(p) = c.protectors.first().copied() {
                        (
                            Some(build(
                                &t,
                                ViolationKind::FreeWhileProtected,
                                addr,
                                mgr,
                                format!(
                                    "thread {tid} freed a record still covered by a live \
                                     announcement (thread {}, {} slot {})",
                                    p.tid,
                                    if p.restricted { "restricted" } else { "shield" },
                                    p.slot
                                ),
                            )),
                            false,
                        )
                    } else {
                        c.state = State::Freed;
                        (None, true)
                    }
                }
                State::Freed => (
                    Some(build(
                        &t,
                        ViolationKind::DoubleFree,
                        addr,
                        mgr,
                        format!("thread {tid}: reclaimer freed the same record twice"),
                    )),
                    false,
                ),
                st => (
                    Some(build(
                        &t,
                        ViolationKind::FreeUnretired,
                        addr,
                        mgr,
                        format!("thread {tid}: reclaimer freed a record in state {st:?}"),
                    )),
                    false,
                ),
            },
        }
    };
    if let Some(v) = v {
        report::emit(v);
    }
    proceed
}

/// Unconditional transition to `Freed` for teardown paths (straggler
/// reclamation, `Domain::free_reachable`/`free_graph`), which legitimately
/// free records in any state once the domain is quiescent.
pub fn on_teardown_free(addr: usize) {
    let mut t = lock();
    if let Some(c) = t.cells.get_mut(&addr) {
        c.state = State::Freed;
        c.protectors.clear();
    }
}

/// Thread `tid` entered an operation on `mgr` (`leave_qstate`).
/// `requires_protection` is `true` for `ReadProtection::Announce` schemes, whose
/// `protect` is a real per-record announcement.
pub fn on_pin(mgr: u64, tid: usize, requires_protection: bool) {
    PINS.with(|p| {
        let mut pins = p.borrow_mut();
        let ctx =
            pins.entry(mgr).or_insert(PinCtx { tid, depth: 0, pinned_at: 0, requires_protection });
        ctx.tid = tid;
        if ctx.depth == 0 {
            ctx.pinned_at = tick();
        }
        ctx.depth += 1;
    });
}

/// Thread left an operation on `mgr` (`enter_qstate`).
pub fn on_unpin(mgr: u64) {
    PINS.with(|p| {
        let mut pins = p.borrow_mut();
        if let Some(ctx) = pins.get_mut(&mgr) {
            ctx.depth = ctx.depth.saturating_sub(1);
            if ctx.depth == 0 {
                pins.remove(&mgr);
            }
        }
    });
}

fn clear_slot(t: &mut Table, mgr: u64, tid: usize, slot: usize) {
    if let Some(addr) = t.slots.remove(&(mgr, tid, slot)) {
        if let Some(c) = t.cells.get_mut(&addr) {
            c.protectors
                .retain(|p| !(p.mgr == mgr && p.tid == tid && p.slot == slot && !p.restricted));
        }
    }
}

/// Called *before* the real protect overwrites slot `slot`'s announcement:
/// drops the previous shadow protection so a concurrent free of the old
/// record is not misreported.
pub fn on_protect_begin(mgr: u64, tid: usize, slot: usize) {
    clear_slot(&mut lock(), mgr, tid, slot);
}

/// Called *after* a protect validated: the real announcement already keeps
/// the scheme from freeing `addr`, so registration cannot race a legal free.
pub fn on_protect_commit(mgr: u64, tid: usize, slot: usize, addr: usize) {
    let mut t = lock();
    if t.cells.contains_key(&addr) {
        t.slots.insert((mgr, tid, slot), addr);
        let key = ProtKey { mgr, tid, slot, restricted: false };
        let c = t.cells.get_mut(&addr).expect("checked above");
        if !c.protectors.contains(&key) {
            c.protectors.push(key);
        }
    }
}

/// Called *before* the real unprotect clears slot `slot`.
pub fn on_unprotect(mgr: u64, tid: usize, slot: usize) {
    clear_slot(&mut lock(), mgr, tid, slot);
}

/// Called *after* a restricted (DEBRA+) protection of `addr` succeeded.
pub fn on_rprotect(mgr: u64, tid: usize, addr: usize) {
    let mut t = lock();
    if t.cells.contains_key(&addr) {
        let list = t.rprot.entry((mgr, tid)).or_default();
        if !list.contains(&addr) {
            list.push(addr);
        }
        let slot = t.rprot[&(mgr, tid)].len() - 1;
        let key = ProtKey { mgr, tid, slot, restricted: true };
        let c = t.cells.get_mut(&addr).expect("checked above");
        if !c.protectors.contains(&key) {
            c.protectors.push(key);
        }
    }
}

/// Called *before* the real `r_unprotect_all` clears the restricted slots.
pub fn on_runprotect_all(mgr: u64, tid: usize) {
    let mut t = lock();
    if let Some(addrs) = t.rprot.remove(&(mgr, tid)) {
        for addr in addrs {
            if let Some(c) = t.cells.get_mut(&addr) {
                c.protectors.retain(|p| !(p.mgr == mgr && p.tid == tid && p.restricted));
            }
        }
    }
}

/// Validates a `Shared::as_ref` of `addr`. Untracked addresses (records not
/// managed by any live manager, e.g. static sentinels) are ignored.
pub fn on_deref(addr: usize) {
    let v = {
        let t = lock();
        let Some(c) = t.cells.get(&addr) else {
            return;
        };
        // A thread the crash-recovery protocol has neutralized mid-operation may issue
        // one more deref on a record it loaded before the signal landed — the reclaimer
        // treats it as quiescent from the instant the handler acknowledges, so the
        // record can already be retired or even freed.  The operation is doomed to
        // restart at its next checkpoint (every fallible guard step re-checks), so the
        // stale read is never acted upon; the scheme documents this tolerance and the
        // shadow model excuses it rather than reporting a violation.
        let neutralized = |mgr: u64| {
            PINS.with(|p| {
                p.borrow().get(&mgr).is_some_and(|ctx| {
                    t.managers.get(&mgr).is_some_and(|m| (m.neutralized_probe)(ctx.tid))
                })
            })
        };
        // Version-validating schemes announce nothing per record, so an optimistic read
        // can legally land on a record that was retired — or already recycled — after
        // the reader snapshotted the version clock.  Type stability makes the load
        // machine-safe and the reader's next checkpoint discards the result, so for
        // these managers a stale deref is the scheme working as specified, not a
        // violation.  (Lifecycle misuse — double retire, free-unretired, type-unstable
        // reuse — is still reported for them by the other hooks.)
        let validates = validates_reads(&t, c.mgr);
        match c.state {
            State::Allocated | State::Linked | State::Published | State::Revived => None,
            State::Freed => {
                let mgr = c.mgr;
                if neutralized(mgr) || validates {
                    None
                } else {
                    Some(build(
                        &t,
                        ViolationKind::UseAfterFree,
                        addr,
                        mgr,
                        "dereference of a record the reclamation pipeline already freed".into(),
                    ))
                }
            }
            State::Retired => {
                let mgr = c.mgr;
                if neutralized(mgr) || validates {
                    return;
                }
                let (retired_at, retire_tid) = (c.retired_at, c.retire_tid);
                PINS.with(|p| {
                    let pins = p.borrow();
                    match pins.get(&mgr) {
                        None => Some(build(
                            &t,
                            ViolationKind::DerefOutsideOperation,
                            addr,
                            mgr,
                            format!(
                                "retired (by thread {retire_tid}) record dereferenced outside \
                                 any operation on its manager"
                            ),
                        )),
                        Some(ctx) => {
                            let covered =
                                c.protectors.iter().any(|pk| pk.mgr == mgr && pk.tid == ctx.tid);
                            if covered {
                                None
                            } else if ctx.requires_protection {
                                Some(build(
                                    &t,
                                    ViolationKind::DerefRetiredUnprotected,
                                    addr,
                                    mgr,
                                    format!(
                                        "thread {} dereferenced a retired record with no \
                                         covering announcement under a scheme that requires \
                                         protection",
                                        ctx.tid
                                    ),
                                ))
                            } else if retired_at < ctx.pinned_at {
                                Some(build(
                                    &t,
                                    ViolationKind::DerefRetiredStale,
                                    addr,
                                    mgr,
                                    format!(
                                        "thread {} (pinned at shadow time {}) dereferenced a \
                                         record retired earlier (shadow time {retired_at}) — \
                                         reclaimable on another interleaving",
                                        ctx.tid, ctx.pinned_at
                                    ),
                                ))
                            } else {
                                None
                            }
                        }
                    }
                })
            }
        }
    };
    if let Some(v) = v {
        report::emit(v);
    }
}

/// Test-only helper: current shadow state of `addr`, if tracked.
pub fn state_of(addr: usize) -> Option<State> {
    lock().cells.get(&addr).map(|c| c.state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationKind as K;
    use std::sync::Mutex as StdMutex;

    // The shadow table is process-global; serialize unit tests touching it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn mgr() -> u64 {
        register_manager("test", Box::new(|| "state".into()), Box::new(|_| false), false)
    }

    fn validating_mgr() -> u64 {
        register_manager("test-vbr", Box::new(|| "state".into()), Box::new(|_| false), true)
    }

    #[test]
    fn lifecycle_happy_path_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let before = report::total_violations();
        let m = mgr();
        on_alloc(m, 0, 0x1000, "Node");
        on_publish(0x1000);
        on_pin(m, 0, false);
        on_deref(0x1000);
        assert!(on_retire(m, 0, 0x1000));
        on_deref(0x1000); // retired after our pin: legal under epoch schemes
        on_unpin(m);
        assert!(on_free(m, 0, 0x1000));
        assert_eq!(state_of(0x1000), Some(State::Freed));
        assert_eq!(unregister_manager(m), 0);
        assert_eq!(report::total_violations(), before);
    }

    #[test]
    fn double_retire_and_double_free_are_flagged_and_suppressed() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        let dr = report::count(K::DoubleRetire);
        on_alloc(m, 0, 0x2000, "Node");
        on_publish(0x2000);
        assert!(on_retire(m, 0, 0x2000));
        assert!(!on_retire(m, 1, 0x2000), "second retire must be suppressed");
        assert_eq!(report::count(K::DoubleRetire), dr + 1);
        let df = report::count(K::DoubleFree);
        assert!(on_free(m, 0, 0x2000));
        assert!(!on_free(m, 0, 0x2000));
        assert_eq!(report::count(K::DoubleFree), df + 1);
        unregister_manager(m);
    }

    #[test]
    fn use_after_free_deref_is_flagged() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        let uaf = report::count(K::UseAfterFree);
        on_alloc(m, 0, 0x3000, "Node");
        on_publish(0x3000);
        on_retire(m, 0, 0x3000);
        on_free(m, 0, 0x3000);
        on_pin(m, 0, true);
        on_deref(0x3000);
        on_unpin(m);
        assert_eq!(report::count(K::UseAfterFree), uaf + 1);
        unregister_manager(m);
    }

    #[test]
    fn protection_blocks_free_and_permits_deref() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        on_alloc(m, 7, 0x4000, "Node");
        on_publish(0x4000);
        on_pin(m, 7, true);
        on_protect_begin(m, 7, 3);
        on_protect_commit(m, 7, 3, 0x4000);
        let before = report::total_violations();
        on_retire(m, 1, 0x4000);
        on_deref(0x4000); // covered by our slot-3 announcement: clean
        assert_eq!(report::total_violations(), before);
        let fwp = report::count(K::FreeWhileProtected);
        assert!(!on_free(m, 1, 0x4000), "free under live announcement");
        assert_eq!(report::count(K::FreeWhileProtected), fwp + 1);
        on_unprotect(m, 7, 3);
        assert!(on_free(m, 1, 0x4000));
        on_unpin(m);
        unregister_manager(m);
    }

    #[test]
    fn stale_epoch_deref_is_flagged_only_when_retired_before_pin() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        on_alloc(m, 0, 0x5000, "Node");
        on_publish(0x5000);
        on_retire(m, 1, 0x5000);
        let stale = report::count(K::DerefRetiredStale);
        on_pin(m, 0, false); // pinned after the retire
        on_deref(0x5000);
        on_unpin(m);
        assert_eq!(report::count(K::DerefRetiredStale), stale + 1);
        on_teardown_free(0x5000);
        unregister_manager(m);
    }

    #[test]
    fn teardown_reports_leaks() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        let leaked = report::leaked_records();
        on_alloc(m, 0, 0x6000, "Node");
        on_publish(0x6000);
        assert_eq!(unregister_manager(m), 1);
        assert_eq!(report::leaked_records(), leaked + 1);
    }

    #[test]
    fn revived_reuse_is_legal_only_under_validation() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Validate-capable manager: alloc over a retired (never freed) slot is the
        // legal Revived transition, and the record continues a normal lifecycle.
        let m = validating_mgr();
        let before = report::total_violations();
        on_alloc(m, 0, 0x7000, "Node");
        on_publish(0x7000);
        assert!(on_retire(m, 0, 0x7000));
        on_alloc(m, 1, 0x7000, "Node"); // reuse straight from limbo
        assert_eq!(state_of(0x7000), Some(State::Revived));
        on_publish(0x7000);
        assert_eq!(state_of(0x7000), Some(State::Published));
        assert!(on_retire(m, 1, 0x7000));
        assert!(on_free(m, 1, 0x7000));
        assert_eq!(report::total_violations(), before);
        unregister_manager(m);

        // The same reuse under a non-validating manager is AllocOverLive.
        let m = mgr();
        let aol = report::count(K::AllocOverLive);
        on_alloc(m, 0, 0x7100, "Node");
        on_publish(0x7100);
        assert!(on_retire(m, 0, 0x7100));
        on_alloc(m, 1, 0x7100, "Node");
        assert_eq!(report::count(K::AllocOverLive), aol + 1);
        assert_eq!(state_of(0x7100), Some(State::Allocated));
        on_dealloc(m, 1, 0x7100);
        unregister_manager(m);
    }

    #[test]
    fn stale_deref_is_excused_for_validating_managers() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = validating_mgr();
        let before = report::total_violations();
        on_alloc(m, 0, 0x7200, "Node");
        on_publish(0x7200);
        on_retire(m, 1, 0x7200);
        on_pin(m, 0, false); // pinned after the retire: stale under pin schemes
        on_deref(0x7200); // retired deref: excused (version checkpoint discards it)
        on_free(m, 1, 0x7200);
        on_deref(0x7200); // freed deref: the optimistic-read window, also excused
        on_unpin(m);
        assert_eq!(report::total_violations(), before);
        unregister_manager(m);
    }

    #[test]
    fn typed_page_mismatch_is_flagged() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let m = mgr();
        note_typed_page("Big", 0x10_0000, 0x1000);
        let tm = report::count(K::TypeMismatch);
        on_alloc(m, 0, 0x10_0040, "Small");
        assert_eq!(report::count(K::TypeMismatch), tm + 1);
        on_dealloc(m, 0, 0x10_0040);
        unregister_manager(m);
    }
}
