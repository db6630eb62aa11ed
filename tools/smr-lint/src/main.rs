//! `smr-lint` — the static half of the workspace's correctness tooling (the dynamic half
//! is `crates/check`, the pointer-race sanitizer).
//!
//! A hand-rolled, dependency-free token-level scanner that enforces the workspace's SMR
//! discipline rules:
//!
//! * **forbid-unsafe** — every structure crate's `lib.rs` carries
//!   `#![forbid(unsafe_code)]` (this replaces the old `grep` gate in ci.yml).
//! * **unprotected-deref** — in structure crates, no function both loads a link
//!   (`.load(`) and dereferences (`.as_ref()`) without an interposed protection
//!   (`protect`) or neutralization checkpoint (`.check(`).
//! * **hot-path-blocking** — no `std::sync::Mutex` / `thread::sleep` in hot-path crates
//!   (reclaimers, pools, allocators, structures); cold-path exceptions are documented in
//!   the allowlist.
//! * **hot-path-refcount** — no `Arc::clone(` (or `.clone()` on an `Arc` field) inside the
//!   per-operation functions of hot-path crates (`leave_qstate*`, `enter_qstate*`,
//!   `retire*`, `protect*`, `record_allocated`, `check`): a refcount bump there is a
//!   lock-prefixed write to a line every thread shares.
//! * **hot-path-lock** — no `.lock()` inside those same functions: a thread preempted
//!   while holding the lock blocks every other thread's operation, which is not
//!   lock-free.  The allowlist cannot waive this rule.
//! * **must-use-guards** — RAII guard types in `crates/core` are `#[must_use]`, and
//!   protection/checkpoint functions returning a result that must be consulted are too.
//!
//! Documented exceptions live in `tools/smr-lint/allowlist.txt`; see that file for the
//! format.  An entry that waives no finding is reported as a stale waiver.  Usage:
//!
//! ```text
//! cargo run -p smr-lint              # report findings, exit 0
//! cargo run -p smr-lint -- --gate    # exit 1 on a finding or a stale waiver (CI gate)
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose sources must stay free of `unsafe` and follow the protect-before-deref
/// discipline (the structure crates written against the safe API).
const STRUCTURE_CRATES: &[&str] = &["crates/datastructures", "crates/hashmap", "crates/queue"];

/// Crates on the retire→free hot path: no blocking mutexes, no sleeps.
const HOT_PATH_CRATES: &[&str] = &[
    "crates/alloc",
    "crates/baselines",
    "crates/blockbag",
    "crates/core",
    "crates/datastructures",
    "crates/hashmap",
    "crates/ibr",
    "crates/neutralize",
    "crates/pagepool",
    "crates/queue",
    "crates/vbr",
];

/// Name prefixes of the functions every operation runs: once per pin, per allocated,
/// accessed or retired record (`check` is matched whole, see [`is_per_operation_fn`]).
const PER_OPERATION_FN_PREFIXES: &[&str] =
    &["leave_qstate", "enter_qstate", "retire", "protect", "record_allocated"];

/// Rules whose findings no allowlist entry suppresses.
const UNWAIVABLE_RULES: &[&str] = &["hot-path-lock"];

/// RAII guard types of the safe layer that must be `#[must_use]`.
const GUARD_TYPES: &[&str] =
    &["Guard", "Shield", "ShieldSet", "Recovery", "OpGuard", "Owned", "DomainHandle"];

#[derive(Debug)]
struct Finding {
    rule: &'static str,
    path: String,
    line: usize,
    line_text: String,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// One allowlist entry: `rule path-substring [content-substring]  # comment`.
struct Allow {
    /// 1-based line of the entry in the allowlist file.
    line: usize,
    rule: String,
    path_sub: String,
    content_sub: Option<String>,
}

fn parse_allowlist(text: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path_sub)) = (parts.next(), parts.next()) else { continue };
        let rest: Vec<&str> = parts.collect();
        out.push(Allow {
            line: i + 1,
            rule: rule.to_string(),
            path_sub: path_sub.to_string(),
            content_sub: if rest.is_empty() { None } else { Some(rest.join(" ")) },
        });
    }
    out
}

fn waives(a: &Allow, f: &Finding) -> bool {
    !UNWAIVABLE_RULES.contains(&f.rule)
        && a.rule == f.rule
        && f.path.contains(&a.path_sub)
        && a.content_sub.as_ref().is_none_or(|c| f.line_text.contains(c))
}

fn suppressed(f: &Finding, allows: &[Allow]) -> bool {
    allows.iter().any(|a| waives(a, f))
}

/// Allowlist entries that waive none of `findings`.  A stale entry — one whose function
/// was deleted or renamed — would silently waive any later finding that happens to
/// match it, so the gate fails on it.
fn dead_entries<'a>(allows: &'a [Allow], findings: &[Finding]) -> Vec<&'a Allow> {
    allows.iter().filter(|a| !findings.iter().any(|f| waives(a, f))).collect()
}

/// Blanks out comments, string literals and char literals (to spaces, preserving
/// newlines and byte offsets) so token scans cannot match inside them.  Handles nested
/// block comments, raw strings (`r"…"`, `r#"…"#`, `br#"…"#`) and the lifetime-vs-char
/// ambiguity of `'`.
fn clean_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in out.iter_mut().take(to).skip(from) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j + 1 < b.len() && depth > 0 {
                    if b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, i + 1, j.saturating_sub(1).max(i + 1));
                i = j;
            }
            b'r' | b'b' if raw_string_end(b, i).is_some() => {
                // Raw (and raw-byte) string literals: r"…", r#"…"#, br"…", …
                let (body_start, body_end, end) = raw_string_end(b, i).expect("guard checked Some");
                blank(&mut out, body_start, body_end);
                i = end;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`): a lifetime's identifier is not
                // followed by a closing quote.
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    && (i + 2 >= b.len() || b[i + 2] != b'\'');
                if is_lifetime {
                    i += 1;
                } else {
                    let mut j = i + 1;
                    if j < b.len() && b[j] == b'\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    j = (j + 1).min(b.len());
                    blank(&mut out, i + 1, j.saturating_sub(1).max(i + 1));
                    i = j;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8 (ASCII replacements only)")
}

/// If a raw (or raw-byte) string literal starts at `i`, returns
/// `(body_start, body_end, literal_end)`; body bytes are the ones to blank.
fn raw_string_end(b: &[u8], i: usize) -> Option<(usize, usize, usize)> {
    let mut k = i;
    if b[k] == b'b' {
        k += 1;
        if k >= b.len() || b[k] != b'r' {
            return None;
        }
    }
    if b[k] != b'r' {
        return None;
    }
    k += 1;
    let hashes = b[k..].iter().take_while(|&&c| c == b'#').count();
    let open = k + hashes;
    if open >= b.len() || b[open] != b'"' {
        return None;
    }
    let closer: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    let body_start = open + 1;
    let end = b[body_start..]
        .windows(closer.len())
        .position(|w| w == closer.as_slice())
        .map_or(b.len(), |p| body_start + p + closer.len());
    Some((body_start, end.saturating_sub(closer.len()).max(body_start), end))
}

/// Byte offset → 1-based line number.
fn line_of(src: &str, off: usize) -> usize {
    src.as_bytes().iter().take(off).filter(|&&c| c == b'\n').count() + 1
}

fn line_text(src: &str, line: usize) -> String {
    src.lines().nth(line.saturating_sub(1)).unwrap_or("").trim().to_string()
}

/// Finds the matching `}` for the `{` at `open` (cleaned source, so braces in strings
/// and comments cannot confuse the count).
fn match_brace(clean: &str, open: usize) -> usize {
    let b = clean.as_bytes();
    let mut depth = 0;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    clean.len()
}

/// Blanks every `#[cfg(test)] mod … { … }` region so lint rules only see shipped code.
fn strip_test_modules(clean: &str) -> String {
    let mut out = clean.to_string();
    let mut search = 0;
    while let Some(pos) = out[search..].find("#[cfg(test)]") {
        let attr = search + pos;
        let after = attr + "#[cfg(test)]".len();
        // Only blank module bodies (items under the attr without `mod` — a test-only
        // fn/impl — are rare and harmless to keep).
        let window_end = (after + 200).min(out.len());
        let Some(modpos) = out[after..window_end].find("mod ") else {
            search = after;
            continue;
        };
        let Some(bracepos) = out[after + modpos..].find('{') else {
            search = after;
            continue;
        };
        let open = after + modpos + bracepos;
        let close = match_brace(&out, open);
        let bytes = unsafe { out.as_bytes_mut() };
        for c in bytes.iter_mut().take(close).skip(open + 1) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        search = close.min(out.len());
    }
    out
}

/// Extracts `(name, header_offset, body_range)` for every `fn` in the cleaned source.
fn functions(clean: &str) -> Vec<(String, usize, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let b = clean.as_bytes();
    let mut i = 0;
    while let Some(pos) = clean[i..].find("fn ") {
        let at = i + pos;
        // Must be a keyword: preceded by start, whitespace, or `(` (closure params).
        let ok_prefix = at == 0 || matches!(b[at - 1], b' ' | b'\n' | b'\t' | b'(');
        if !ok_prefix {
            i = at + 3;
            continue;
        }
        let name_start = at + 3;
        let name_end = clean[name_start..]
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(clean.len(), |p| name_start + p);
        let name = clean[name_start..name_end].to_string();
        if name.is_empty() {
            i = at + 3;
            continue;
        }
        // Body opens at the first `{` before the next `;` (a `;` first means a trait
        // method declaration with no body).
        let semi = clean[name_end..].find(';').map_or(clean.len(), |p| name_end + p);
        match clean[name_end..].find('{') {
            Some(p) if name_end + p < semi => {
                let open = name_end + p;
                let close = match_brace(clean, open);
                out.push((name, at, open..close));
                i = open + 1;
            }
            _ => i = name_end,
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    out.sort();
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).display().to_string().replace('\\', "/")
}

// ---------------------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------------------

fn rule_forbid_unsafe(root: &Path, findings: &mut Vec<Finding>) {
    for krate in STRUCTURE_CRATES {
        let lib = root.join(krate).join("src/lib.rs");
        let path = rel(root, &lib);
        match std::fs::read_to_string(&lib) {
            Ok(src) if src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") => {}
            Ok(_) => findings.push(Finding {
                rule: "forbid-unsafe",
                path,
                line: 1,
                line_text: String::new(),
                message: "structure crate must carry #![forbid(unsafe_code)] at the top of lib.rs"
                    .into(),
            }),
            Err(e) => findings.push(Finding {
                rule: "forbid-unsafe",
                path,
                line: 1,
                line_text: String::new(),
                message: format!("cannot read structure crate lib.rs: {e}"),
            }),
        }
    }
}

fn rule_unprotected_deref(root: &Path, findings: &mut Vec<Finding>) {
    for krate in STRUCTURE_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else { continue };
            let clean = strip_test_modules(&clean_source(&src));
            for (name, hdr, body) in functions(&clean) {
                let body_text = &clean[body.clone()];
                let loads = body_text.contains(".load(");
                let derefs = body_text.contains(".as_ref()");
                // A deref is interposed when the body protects the pointer
                // (announcement/pin schemes), hits an explicit checkpoint, or
                // carries a validation hook — the validate-after-read idiom of
                // version-based schemes (VBR), where staleness is detected by
                // re-checking the clock window instead of pre-announcing.
                let interposed = body_text.contains("protect")
                    || body_text.contains(".check(")
                    || body_text.contains("check()")
                    || body_text.contains("validate");
                if loads && derefs && !interposed {
                    let line = line_of(&clean, hdr);
                    findings.push(Finding {
                        rule: "unprotected-deref",
                        path: rel(root, &file),
                        line,
                        line_text: line_text(&src, line),
                        message: format!(
                            "fn `{name}` loads a link and dereferences without an interposed \
                             protect/check; validate the access or allowlist it with the \
                             quiescence contract documented"
                        ),
                    });
                }
            }
        }
    }
}

fn rule_hot_path_blocking(root: &Path, findings: &mut Vec<Finding>) {
    const BLOCKING_ITEMS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];
    for krate in HOT_PATH_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else { continue };
            let clean = strip_test_modules(&clean_source(&src));
            let mut flag = |line: usize, what: &str| {
                findings.push(Finding {
                    rule: "hot-path-blocking",
                    path: rel(root, &file),
                    line,
                    line_text: line_text(&src, line),
                    message: format!(
                        "{what}; move it off the hot path or allowlist the documented \
                         cold-path use"
                    ),
                });
            };
            // Imports of blocking primitives from std::sync, including brace-grouped
            // forms like `use std::sync::{Arc, Mutex};`.
            let mut from = 0;
            while let Some(p) = clean[from..].find("use ") {
                let start = from + p;
                let end = clean[start..].find(';').map_or(clean.len(), |s| start + s);
                let stmt = &clean[start..end];
                if stmt.contains("std::sync")
                    && BLOCKING_ITEMS.iter().any(|item| stmt.contains(item))
                {
                    flag(
                        line_of(&clean, start),
                        "blocking std::sync primitive imported on a hot-path crate",
                    );
                }
                from = end.max(start + 4);
            }
            // Fully-qualified inline uses outside `use` statements, and sleeps.
            for (needle, what) in [
                ("std::sync::Mutex", "blocking std mutex on a hot-path crate"),
                ("std::sync::RwLock", "blocking std rwlock on a hot-path crate"),
                ("thread::sleep", "sleep on a hot-path crate"),
            ] {
                let mut from = 0;
                while let Some(p) = clean[from..].find(needle) {
                    let off = from + p;
                    let line = line_of(&clean, off);
                    if !line_text(&src, line).trim_start().starts_with("use ") {
                        flag(line, what);
                    }
                    from = off + needle.len();
                }
            }
        }
    }
}

fn is_per_operation_fn(name: &str) -> bool {
    name == "check" || PER_OPERATION_FN_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Names declared as `name: Arc<…>` (struct fields, mostly) in the cleaned source.
fn arc_fields(clean: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in clean.match_indices(": Arc<") {
        let name_start =
            clean[..at].rfind(|c: char| !(c.is_alphanumeric() || c == '_')).map_or(0, |p| p + 1);
        if name_start < at {
            out.push(&clean[name_start..at]);
        }
    }
    out
}

/// The `hot-path-refcount` findings of one file (`path` relative to the workspace root).
fn refcount_findings(path: &str, src: &str) -> Vec<Finding> {
    let clean = strip_test_modules(&clean_source(src));
    let mut needles = vec!["Arc::clone(".to_string()];
    needles.extend(arc_fields(&clean).iter().map(|field| format!(".{field}.clone()")));
    let mut findings = Vec::new();
    for (name, _, body) in functions(&clean) {
        if !is_per_operation_fn(&name) {
            continue;
        }
        for needle in &needles {
            for (p, _) in clean[body.clone()].match_indices(needle.as_str()) {
                let line = line_of(&clean, body.start + p);
                findings.push(Finding {
                    rule: "hot-path-refcount",
                    path: path.to_string(),
                    line,
                    line_text: line_text(src, line),
                    message: format!(
                        "fn `{name}` runs on every operation and bumps an Arc refcount \
                         (`{needle}`): a lock-prefixed write to a line all threads share; \
                         borrow the Arc's target instead"
                    ),
                });
            }
        }
    }
    findings
}

fn rule_hot_path_refcount(root: &Path, findings: &mut Vec<Finding>) {
    for krate in HOT_PATH_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else { continue };
            findings.extend(refcount_findings(&rel(root, &file), &src));
        }
    }
}

/// The `hot-path-lock` findings of one file (`path` relative to the workspace root).
fn lock_findings(path: &str, src: &str) -> Vec<Finding> {
    let clean = strip_test_modules(&clean_source(src));
    let mut findings = Vec::new();
    for (name, _, body) in functions(&clean) {
        if !is_per_operation_fn(&name) {
            continue;
        }
        for (p, _) in clean[body.clone()].match_indices(".lock()") {
            let line = line_of(&clean, body.start + p);
            findings.push(Finding {
                rule: "hot-path-lock",
                path: path.to_string(),
                line,
                line_text: line_text(src, line),
                message: format!(
                    "fn `{name}` runs on every operation and takes a lock: a thread \
                     preempted while holding it blocks every other thread, which is not \
                     lock-free; this rule has no allowlist waiver"
                ),
            });
        }
    }
    findings
}

fn rule_hot_path_lock(root: &Path, findings: &mut Vec<Finding>) {
    for krate in HOT_PATH_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else { continue };
            findings.extend(lock_findings(&rel(root, &file), &src));
        }
    }
}

fn rule_must_use_guards(root: &Path, findings: &mut Vec<Finding>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    for file in files {
        let Ok(src) = std::fs::read_to_string(&file) else { continue };
        let clean = strip_test_modules(&clean_source(&src));
        for ty in GUARD_TYPES {
            let needle = format!("pub struct {ty}");
            let mut from = 0;
            while let Some(p) = clean[from..].find(&needle) {
                let off = from + p;
                from = off + needle.len();
                // The next char must end the identifier (avoid `Guarded` matching `Guard`).
                let next = clean.as_bytes().get(off + needle.len()).copied().unwrap_or(b' ');
                if next.is_ascii_alphanumeric() || next == b'_' {
                    continue;
                }
                let line = line_of(&clean, off);
                // Scan the preceding attribute block (up to 40 lines of attrs / docs,
                // which are blanked in `clean` — so look at the raw source).
                let preceding: Vec<&str> = src.lines().take(line.saturating_sub(1)).collect();
                let has_must_use = preceding
                    .iter()
                    .rev()
                    .take(40)
                    .take_while(|l| {
                        let t = l.trim();
                        t.starts_with("#[")
                            || t.starts_with("///")
                            || t.is_empty()
                            || t.starts_with("//")
                    })
                    .any(|l| l.trim().starts_with("#[must_use"));
                if !has_must_use {
                    findings.push(Finding {
                        rule: "must-use-guards",
                        path: rel(root, &file),
                        line,
                        line_text: line_text(&src, line),
                        message: format!(
                            "RAII guard type `{ty}` must be #[must_use] (dropping it \
                             silently ends the protection it represents)"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut allow_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                if let Some(v) = it.next() {
                    root = PathBuf::from(v);
                }
            }
            "--allow" => allow_path = it.next().map(PathBuf::from),
            "--gate" => {}
            other => {
                eprintln!("smr-lint: unknown argument `{other}`");
                eprintln!("usage: smr-lint [--gate] [--root DIR] [--allow FILE]");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.canonicalize().unwrap_or(root);
    let allow_path = allow_path.unwrap_or_else(|| root.join("tools/smr-lint/allowlist.txt"));
    let allows =
        std::fs::read_to_string(&allow_path).map(|t| parse_allowlist(&t)).unwrap_or_default();

    let mut findings = Vec::new();
    rule_forbid_unsafe(&root, &mut findings);
    rule_unprotected_deref(&root, &mut findings);
    rule_hot_path_blocking(&root, &mut findings);
    rule_hot_path_refcount(&root, &mut findings);
    rule_hot_path_lock(&root, &mut findings);
    rule_must_use_guards(&root, &mut findings);

    let allow_file = rel(&root, &allow_path);
    let dead = dead_entries(&allows, &findings);
    let (kept, waived): (Vec<_>, Vec<_>) =
        findings.into_iter().partition(|f| !suppressed(f, &allows));
    if !waived.is_empty() {
        println!("smr-lint: {} finding(s) waived by {allow_file}", waived.len());
    }
    for f in &kept {
        println!("{f}");
    }
    for a in &dead {
        let content = a.content_sub.as_deref().unwrap_or_default();
        println!(
            "stale-waiver: {allow_file}:{}: `{} {} {content}` waives no finding; delete it",
            a.line, a.rule, a.path_sub
        );
    }
    if kept.is_empty() && dead.is_empty() {
        println!("smr-lint: clean ({} rule families)", 6);
        ExitCode::SUCCESS
    } else {
        println!("smr-lint: {} finding(s), {} stale waiver(s)", kept.len(), dead.len());
        if gate {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_blanks_comments_strings_and_chars_but_keeps_lifetimes() {
        let src = r##"fn f<'a>(x: &'a str) { // protect in a comment
            let s = "protect in a string";
            let c = 'p';
            let r = r#"protect raw"#;
            real_protect();
        }"##;
        let clean = clean_source(src);
        assert_eq!(clean.matches("protect").count(), 1, "only the real call survives");
        assert!(clean.contains("'a"), "lifetimes are not char literals");
        assert_eq!(clean.len(), src.len(), "byte offsets preserved");
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let clean = clean_source("a /* x /* y */ z */ b");
        assert!(clean.contains('a') && clean.contains('b'));
        assert!(!clean.contains('y') && !clean.contains('z'));
    }

    #[test]
    fn function_extraction_matches_braces() {
        let src = "fn outer() { if x { y(); } }\nfn other() -> bool { true }";
        let fns = functions(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].0, "outer");
        assert_eq!(fns[1].0, "other");
    }

    #[test]
    fn test_modules_are_stripped() {
        let src = "fn shipped() {}\n#[cfg(test)]\nmod tests { fn helper() { bad(); } }";
        let out = strip_test_modules(&clean_source(src));
        assert!(out.contains("shipped"));
        assert!(!out.contains("bad()"));
    }

    #[test]
    fn refcount_rule_flags_the_clone_debra_used_to_take_on_every_pin() {
        let path = "crates/core/src/debra.rs";
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
        let shipped = std::fs::read_to_string(file).expect("the linter runs inside the workspace");
        assert!(refcount_findings(path, &shipped).is_empty(), "the shipped file is clean");

        // Re-inject the per-pin clone `leave_qstate_impl` opened with before it borrowed.
        let borrow = "let global: &Debra<T> = global;";
        assert_eq!(shipped.matches(borrow).count(), 1);
        let mutated = shipped.replace(borrow, "let global = Arc::clone(&self.global);");
        let findings = refcount_findings(path, &mutated);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hot-path-refcount");
        assert!(findings[0].message.contains("leave_qstate_impl"));
        assert!(findings[0].line_text.contains("Arc::clone(&self.global)"));
    }

    #[test]
    fn refcount_rule_sees_arc_field_clones_only_in_per_operation_fns() {
        let src = "struct H { global: Arc<G>, key: K }\n\
                   impl H {\n\
                   fn register(&self) -> Arc<G> { Arc::clone(&self.global) }\n\
                   fn retire_impl(&self) { let g = self.global.clone(); let k = self.key.clone(); }\n\
                   fn check(&self) { let _ = Arc::clone(&self.global); }\n\
                   fn checkpoint(&self) { let _ = Arc::clone(&self.global); }\n\
                   }";
        let findings = refcount_findings("x.rs", src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5], "{findings:?}");
    }

    #[test]
    fn lock_rule_flags_the_interval_shard_lock_ibr_used_to_take_on_every_retire() {
        let path = "crates/ibr/src/lib.rs";
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
        let shipped = std::fs::read_to_string(file).expect("the linter runs inside the workspace");
        assert!(lock_findings(path, &shipped).is_empty(), "the shipped file is clean");

        // Re-inject the shard lock `tag_retire` took where `retire` now stamps the header.
        let stamp = "unsafe { header_of(record) }.retire.store(era, Ordering::Relaxed);";
        assert_eq!(shipped.matches(stamp).count(), 1);
        let mutated = shipped.replace(
            stamp,
            "let mut shard = self.global.intervals.shard(record.as_ptr() as usize)\n\
             .lock().expect(\"interval shard poisoned\");",
        );
        let findings = lock_findings(path, &mutated);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hot-path-lock");
        assert!(findings[0].message.contains("fn `retire`"));

        // No allowlist entry waives it, however broad.
        let allows = parse_allowlist("hot-path-lock crates/ibr # would be a waiver\n");
        assert_eq!(allows.len(), 1);
        assert!(!suppressed(&findings[0], &allows));
    }

    #[test]
    fn lock_rule_covers_every_per_operation_fn_and_nothing_else() {
        let src = "impl H {\n\
                   fn record_allocated(&self) { self.m.lock(); }\n\
                   fn leave_qstate_impl(&self) { self.m.lock(); }\n\
                   fn check(&self) { self.m.lock(); }\n\
                   fn drain_orphans(&self) { self.m.lock(); }\n\
                   fn drop(&mut self) { self.m.lock(); }\n\
                   }";
        let lines: Vec<usize> = lock_findings("x.rs", src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 4]);
    }

    #[test]
    fn allowlist_matches_rule_path_and_content() {
        let allows = parse_allowlist(
            "hot-path-blocking pagepool/src/store.rs Mutex # cold path\n# comment line\n",
        );
        assert_eq!(allows.len(), 1);
        let f = Finding {
            rule: "hot-path-blocking",
            path: "crates/pagepool/src/store.rs".into(),
            line: 44,
            line_text: "pages: Mutex<Vec<PageMeta>>,".into(),
            message: String::new(),
        };
        assert!(suppressed(&f, &allows));
        let other = Finding {
            rule: "hot-path-blocking",
            path: "crates/core/src/guard.rs".into(),
            line: 1,
            line_text: "Mutex".into(),
            message: String::new(),
        };
        assert!(!suppressed(&other, &allows));
    }

    #[test]
    fn a_waiver_that_waives_nothing_is_reported_with_its_line() {
        let allows = parse_allowlist(
            "# header\n\
             unprotected-deref crates/queue/src/lib.rs pub fn len # live\n\
             unprotected-deref crates/hashmap/src/lib.rs fn get_body # dead\n",
        );
        let live = Finding {
            rule: "unprotected-deref",
            path: "crates/queue/src/lib.rs".into(),
            line: 120,
            line_text: "    pub fn len(&self, handle: &mut Handle) -> usize {".into(),
            message: String::new(),
        };
        let dead = dead_entries(&allows, &[live]);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].line, 3);
        assert_eq!(dead[0].path_sub, "crates/hashmap/src/lib.rs");
    }
}
