//! Violation reporting: per-kind counters, a retained violation log, and the
//! panic-before-danger mode used by mutation tests.

use std::backtrace::Backtrace;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The classes of protocol violation the shadow table can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ViolationKind {
    /// A `Shared::as_ref` on a record the reclamation pipeline already freed.
    UseAfterFree = 0,
    /// Deref of a retired record with no covering announcement, under a scheme
    /// that does not support unprotected traversal (HP / ThreadScan / IBR).
    DerefRetiredUnprotected = 1,
    /// Deref of a record retired *before* the current operation's pin, under an
    /// epoch scheme — reachable only through a stale link, and already
    /// reclaimable on another interleaving.
    DerefRetiredStale = 2,
    /// Deref of a retired record from a thread that is not inside any
    /// operation on the owning manager (no `leave_qstate` in effect).
    DerefOutsideOperation = 3,
    /// The same record retired twice — the skiplist double-free bug class.
    DoubleRetire = 4,
    /// Retire of a record that was never published into a shared location
    /// (should have been `discard`ed instead).
    RetireUnpublished = 5,
    /// Retire of a record the pipeline already freed.
    RetireAfterFree = 6,
    /// The reclaimer handed a record to the free path without it ever being
    /// retired.
    FreeUnretired = 7,
    /// The reclaimer freed the same record twice.
    DoubleFree = 8,
    /// The reclaimer freed a record while a shadow-registered announcement
    /// (shield slot or restricted hazard) still covered it — the HP
    /// mark-stripping bug class.
    FreeWhileProtected = 9,
    /// The allocator handed out an address whose previous record (same
    /// manager) was never freed.
    AllocOverLive = 10,
    /// A record was published (CAS'd into a shared location) after it had
    /// already been retired or freed — the BST helping-resurrection bug class.
    PublishAfterRetire = 11,
    /// A page-pool address was recycled for a different record type,
    /// violating the type-stability contract.
    TypeMismatch = 12,
}

pub(crate) const KIND_COUNT: usize = 13;

const KIND_NAMES: [&str; KIND_COUNT] = [
    "use-after-free",
    "deref-retired-unprotected",
    "deref-retired-stale",
    "deref-outside-operation",
    "double-retire",
    "retire-unpublished",
    "retire-after-free",
    "free-unretired",
    "double-free",
    "free-while-protected",
    "alloc-over-live",
    "publish-after-retire",
    "type-mismatch",
];

impl ViolationKind {
    /// Every kind, in discriminant order (the order of the names [`Self::name`] returns):
    /// a report that sweeps this array cannot miss a kind.
    pub const ALL: [ViolationKind; KIND_COUNT] = [
        ViolationKind::UseAfterFree,
        ViolationKind::DerefRetiredUnprotected,
        ViolationKind::DerefRetiredStale,
        ViolationKind::DerefOutsideOperation,
        ViolationKind::DoubleRetire,
        ViolationKind::RetireUnpublished,
        ViolationKind::RetireAfterFree,
        ViolationKind::FreeUnretired,
        ViolationKind::DoubleFree,
        ViolationKind::FreeWhileProtected,
        ViolationKind::AllocOverLive,
        ViolationKind::PublishAfterRetire,
        ViolationKind::TypeMismatch,
    ];

    /// Stable kebab-case name (used in reports and the DESIGN.md catalogue).
    pub fn name(self) -> &'static str {
        KIND_NAMES[self as usize]
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected protocol violation, with enough context to debug it: both
/// stacks (violation site, and retire site when capture is enabled), the
/// owning scheme's live stats, and a human-readable detail line.
#[derive(Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Address of the record involved.
    pub addr: usize,
    /// `type_name` of the record as registered at allocation.
    pub type_name: &'static str,
    /// Reclamation scheme of the owning manager (`"debra"`, `"hp"`, …).
    pub scheme: &'static str,
    /// Human-readable description of the exact transition that failed.
    pub detail: String,
    /// The owning scheme's `ReclaimerStats` (and epoch state) at detection
    /// time, rendered by the manager's state provider.
    pub scheme_state: String,
    /// Stack captured at the retire site, if retire-stack capture was enabled
    /// (`set_capture_retire_stacks` / `SMR_SANITIZE_RETIRE_STACKS=1`).
    pub retire_stack: Option<Arc<str>>,
    /// Stack captured at the violation site.
    pub site_stack: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[smr-check] {} @ {:#x} ({}, scheme {}): {} | scheme state: {}",
            self.kind, self.addr, self.type_name, self.scheme, self.detail, self.scheme_state
        )?;
        if let Some(rs) = &self.retire_stack {
            write!(f, "\n--- retire site ---\n{rs}")?;
        }
        if let Some(ss) = &self.site_stack {
            write!(f, "\n--- violation site ---\n{ss}")?;
        }
        Ok(())
    }
}

static COUNTS: [AtomicU64; KIND_COUNT] = [const { AtomicU64::new(0) }; KIND_COUNT];
static TOTAL: AtomicU64 = AtomicU64::new(0);
static LEAKED: AtomicU64 = AtomicU64::new(0);

fn log() -> &'static Mutex<Vec<Violation>> {
    static LOG: OnceLock<Mutex<Vec<Violation>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

// Tri-state runtime switches: 0 = unset (fall back to the environment
// variable), 1 = off, 2 = on.
static PANIC_MODE: AtomicU8 = AtomicU8::new(0);
static RETIRE_STACKS: AtomicU8 = AtomicU8::new(0);

fn tristate(flag: &AtomicU8, env: &str) -> bool {
    match flag.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var_os(env).is_some_and(|v| v == "1"),
    }
}

/// Panic at the violation site *before* the dangerous action executes.
/// Mutation tests use this to observe re-injected bugs without real UB.
/// Overrides the `SMR_SANITIZE_PANIC` environment variable.
pub fn set_panic_on_violation(on: bool) {
    PANIC_MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

pub(crate) fn panic_on_violation() -> bool {
    tristate(&PANIC_MODE, "SMR_SANITIZE_PANIC")
}

/// Capture a backtrace at every `retire` so violations can show the retire
/// site. Costly (one `Backtrace::force_capture` per retire) — off by default;
/// overrides the `SMR_SANITIZE_RETIRE_STACKS` environment variable.
pub fn set_capture_retire_stacks(on: bool) {
    RETIRE_STACKS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

pub(crate) fn capture_retire_stacks() -> bool {
    tristate(&RETIRE_STACKS, "SMR_SANITIZE_RETIRE_STACKS")
}

pub(crate) fn capture_site_stack() -> Option<String> {
    Some(Backtrace::force_capture().to_string())
}

/// Records `v` (counter + retained log + one line on stderr), then panics if
/// panic mode is on. Callers invoke this *after* releasing shadow-table locks
/// and *before* performing the action the violation describes.
pub(crate) fn emit(v: Violation) {
    COUNTS[v.kind as usize].fetch_add(1, Ordering::Relaxed);
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let line = format!("{v}");
    eprintln!("{line}");
    log().lock().unwrap_or_else(PoisonError::into_inner).push(v);
    if panic_on_violation() {
        panic!("smr-check violation: {line}");
    }
}

pub(crate) fn note_leaked(n: u64) {
    LEAKED.fetch_add(n, Ordering::Relaxed);
}

/// Total violations recorded since the last [`reset`].
pub fn total_violations() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Violations of one kind since the last [`reset`].
pub fn count(kind: ViolationKind) -> u64 {
    COUNTS[kind as usize].load(Ordering::Relaxed)
}

/// Records reported as never-freed at manager teardown since the last
/// [`reset`].
pub fn leaked_records() -> u64 {
    LEAKED.load(Ordering::Relaxed)
}

/// Drains and returns the retained violation log (counters are untouched).
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut *log().lock().unwrap_or_else(PoisonError::into_inner))
}

/// Clears the retained log, all per-kind counters, and the leak gauge.
pub fn reset() {
    log().lock().unwrap_or_else(PoisonError::into_inner).clear();
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    TOTAL.store(0, Ordering::Relaxed);
    LEAKED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_kind_in_discriminant_order() {
        for (i, kind) in ViolationKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind} is out of place in ViolationKind::ALL");
        }
    }
}
