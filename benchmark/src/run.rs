//! The parent side: runs each (workload, scheme) cell and each probe in a fresh child
//! process, one at a time, under a watchdog; pools the trial lines into metrics; prints
//! them and writes the result file.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::json::Json;
use crate::spec::{end_to_end_metrics, per_layer_metrics, MetricDef, Scheme, Workload, WORKLOADS};

/// A cell may overrun its nominal time by this much before the parent kills it.
const WATCHDOG_GRACE: Duration = Duration::from_secs(10);
/// Ops charged per second of a lost trial when the cell delivered no trial to go by.
const NOMINAL_OPS_PER_S: f64 = 1.0e6;

#[derive(Debug, Clone)]
pub struct Plan {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// How one run's `--seconds` are spent on each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub warmup_ms: u64,
    pub trial_ms: u64,
    /// Passes over the schemes.  Each pass runs every cell once, in a fresh process, so a
    /// slow spell of the host falls on all schemes alike and on a third of each one's
    /// trials, and a process that came up slow (page placement) is one of three.
    pub rounds: u32,
    /// Untraced timed trials per process.
    pub trials: u32,
}

impl Shape {
    /// Untraced run: the seven reclaiming cells share `seconds` in half-second trials,
    /// split over three rounds when there are at least six.  Traced run: one round of one
    /// untraced and one traced trial per cell.
    pub fn of(seconds: u64, traced: bool, smoke: bool) -> Shape {
        if smoke {
            return Shape { warmup_ms: 50, trial_ms: 100, rounds: 1, trials: 1 };
        }
        if traced {
            let trial_ms = (seconds * 1000 / 16).clamp(250, 1000);
            return Shape { warmup_ms: 200, trial_ms, rounds: 1, trials: 1 };
        }
        let per_cell_ms = seconds * 1000 / 7;
        if per_cell_ms < 1000 {
            return Shape { warmup_ms: 200, trial_ms: per_cell_ms.max(100), rounds: 1, trials: 1 };
        }
        let trials = (per_cell_ms / 500) as u32;
        let rounds = if trials >= 6 { 3 } else { 1 };
        Shape { warmup_ms: 200, trial_ms: 500, rounds, trials: trials / rounds }
    }
}

/// Where the benchmark package lives: trace files and result files go to `out/` in it.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

#[derive(Debug)]
enum ChildEnd {
    Exited(Option<i32>),
    Killed,
}

/// Runs the benchmark binary with `args`, collecting stdout lines until it exits or
/// `limit` passes; a child past the limit is killed and reaped.
fn run_child(args: &[String], limit: Duration) -> (Vec<String>, ChildEnd) {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning a child of the benchmark binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    // The limit is counted in slices of running time, each capped: when the whole VM is
    // paused (a host snapshot) the monotonic clock jumps on resume, and a plain deadline
    // would kill a child that never had the time.
    const SLICE: Duration = Duration::from_millis(100);
    let mut left = limit;
    let mut lines = Vec::new();
    let end = loop {
        let slice_begin = Instant::now();
        match rx.recv_timeout(SLICE.min(left)) {
            Ok(line) => lines.push(line),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break ChildEnd::Exited(child.wait().expect("reaping the child").code());
            }
            Err(mpsc::RecvTimeoutError::Timeout) if left.is_zero() => {
                let _ = child.kill();
                let _ = child.wait();
                break ChildEnd::Killed;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        left = left.saturating_sub(slice_begin.elapsed().min(2 * SLICE));
    };
    drop(rx);
    reader.join().expect("the reader thread does not panic");
    (lines, end)
}

#[derive(Debug, Clone)]
pub struct Trial {
    pub traced: bool,
    pub secs: f64,
    pub ops: f64,
    pub kinds: [f64; 3],
    pub span_ns: [f64; 3],
    pub hist: Histogram,
    pub stats: Json,
}

impl Trial {
    fn from_json(j: &Json) -> Option<Trial> {
        let triple = |key: &str| -> Option<[f64; 3]> {
            let a = j.get(key)?.as_arr()?;
            Some([a.first()?.as_f64()?, a.get(1)?.as_f64()?, a.get(2)?.as_f64()?])
        };
        Some(Trial {
            traced: j.get("traced")?.as_bool()?,
            secs: j.get("secs")?.as_f64()?,
            ops: j.get("ops")?.as_f64()?,
            kinds: triple("kinds")?,
            span_ns: triple("span_ns").unwrap_or([0.0; 3]),
            hist: j.get("hist").and_then(Histogram::from_json).unwrap_or_default(),
            stats: j.get("stats")?.clone(),
        })
    }

    pub fn mops(&self) -> f64 {
        self.ops / self.secs / 1e6
    }

    pub fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Everything one cell delivered, and what it lost.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scheme: Scheme,
    pub trials: Vec<Trial>,
    /// Seconds each timed build + prefill + teardown cycle took (untraced runs, in a
    /// process of its own).
    pub setup_reps: Vec<f64>,
    pub summary: Option<Json>,
    pub trials_killed: u64,
    pub ops_failed: f64,
    pub note: Option<String>,
}

impl Cell {
    pub fn untraced(&self) -> impl Iterator<Item = &Trial> {
        self.trials.iter().filter(|t| !t.traced)
    }

    pub fn traced(&self) -> Option<&Trial> {
        self.trials.iter().find(|t| t.traced)
    }

    /// Throughput: the median over the untraced trials.  A trial that a neighbour on the
    /// host slowed down moves a pooled mean; it does not move the median.
    pub fn mops(&self) -> Option<f64> {
        median(self.untraced().map(Trial::mops).collect())
    }

    /// Sampled-latency median: the median of the per-trial values, and the samples behind it.
    pub fn p50(&self) -> (Option<f64>, u64) {
        let sampled = || self.untraced().filter(|t| t.hist.count() > 0);
        (
            median(sampled().map(|t| t.hist.quantile(0.5)).collect()),
            sampled().map(|t| t.hist.count()).sum(),
        )
    }

    fn summary(&self, key: &str) -> Option<&Json> {
        self.summary.as_ref()?.get(key)
    }

    pub fn ops_done(&self) -> f64 {
        self.trials.iter().map(|t| t.ops).sum()
    }

    /// Adds a later round's process to this cell.
    fn absorb(&mut self, later: Cell) {
        self.trials.extend(later.trials);
        self.trials_killed += later.trials_killed;
        self.ops_failed += later.ops_failed;
        self.note = self.note.take().or(later.note);
    }
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => None,
        n if n % 2 == 1 => Some(values[mid]),
        _ => Some((values[mid - 1] + values[mid]) / 2.0),
    }
}

fn band(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    values.fold(None, |b, v| match b {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

/// Times the cell's set-up cycles in a child process of their own; empty if it failed.
fn time_setup(plan: &Plan, w: &Workload, scheme: Scheme) -> Vec<f64> {
    let mut args = vec!["cell".to_string(), "--setup-only".to_string()];
    for (flag, value) in [
        ("--workload", w.name.to_string()),
        ("--scheme", scheme.name().to_string()),
        ("--seed", plan.seed.to_string()),
    ] {
        args.extend([flag.to_string(), value]);
    }
    let (lines, end) = run_child(&args, Duration::from_secs(5) + WATCHDOG_GRACE);
    let reps: Vec<f64> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("S "))
        .filter_map(|body| Json::parse(body).ok())
        .flat_map(|j| j.as_arr().map(<[_]>::to_vec).unwrap_or_default())
        .filter_map(|v| v.as_f64())
        .collect();
    if reps.is_empty() {
        println!("!! set-up of {}/{}: no result ({end:?})", w.name, scheme.name());
    }
    reps
}

/// Runs one cell once, in a child process.
fn run_cell(plan: &Plan, shape: Shape, w: &Workload, scheme: Scheme) -> Cell {
    let expected = shape.trials as u64 + plan.traced as u64;
    let mut args = vec!["cell".to_string()];
    for (flag, value) in [
        ("--workload", w.name.to_string()),
        ("--scheme", scheme.name().to_string()),
        ("--seed", plan.seed.to_string()),
        ("--trials", shape.trials.to_string()),
        ("--trial-ms", shape.trial_ms.to_string()),
        ("--warmup-ms", shape.warmup_ms.to_string()),
    ] {
        args.extend([flag.to_string(), value]);
    }
    if plan.traced {
        let file =
            package_dir().join("out").join(format!("trace.{}.{}.jsonl", w.name, scheme.name()));
        args.extend(["--trace-file".to_string(), file.display().to_string()]);
    }
    let nominal = Duration::from_millis(shape.warmup_ms + expected * shape.trial_ms);
    let (lines, end) = run_child(&args, nominal + WATCHDOG_GRACE);

    let mut cell = Cell {
        scheme,
        trials: Vec::new(),
        setup_reps: Vec::new(),
        summary: None,
        trials_killed: 0,
        ops_failed: 0.0,
        note: None,
    };
    for line in &lines {
        match line.split_once(' ') {
            Some(("T", body)) => match Json::parse(body).ok().as_ref().and_then(Trial::from_json) {
                Some(t) => cell.trials.push(t),
                None => cell.note = Some(format!("unreadable trial line: {line}")),
            },
            Some(("C", body)) => cell.summary = Json::parse(body).ok(),
            _ => {}
        }
    }
    // Failure accounting: every trial that did not arrive is charged at the rate of
    // those that did; a cell whose outputs could not be checked is charged in full.
    let lost = expected.saturating_sub(cell.trials.len() as u64);
    if lost > 0 {
        let per_trial = match cell.trials.len() {
            0 => NOMINAL_OPS_PER_S * shape.trial_ms as f64 / 1000.0,
            n => cell.ops_done() / n as f64,
        };
        cell.trials_killed = lost;
        cell.ops_failed = lost as f64 * per_trial;
    }
    let oracle_ok = cell.summary("oracle_ok").and_then(Json::as_bool);
    let clean_exit = matches!(end, ChildEnd::Exited(Some(0)));
    if lost > 0 || !clean_exit || oracle_ok != Some(true) {
        if lost == 0 {
            cell.ops_failed = cell.ops_done();
        }
        let why = match (&end, oracle_ok) {
            (ChildEnd::Killed, _) => {
                format!("killed by the watchdog after {:?}", nominal + WATCHDOG_GRACE)
            }
            (ChildEnd::Exited(code), None) => {
                format!("child ended with {code:?} before its summary")
            }
            (_, Some(false)) => format!(
                "oracle failed: {}",
                cell.summary("oracle_failures").map(Json::to_string).unwrap_or_default()
            ),
            (ChildEnd::Exited(code), Some(true)) => format!("child ended with {code:?}"),
        };
        println!(
            "!! cell {}/{}: {why}; {} of {expected} trials kept, {} lost, {:.0} ops failed",
            w.name,
            scheme.name(),
            cell.trials.len(),
            lost,
            cell.ops_failed
        );
        cell.note = Some(why);
    }
    cell
}

fn run_probe(what: &str, quick: bool) -> Vec<(String, f64)> {
    let mut args = vec!["cell".to_string(), "--probe".to_string(), what.to_string()];
    if quick {
        args.push("--quick".to_string());
    }
    let (lines, end) = run_child(&args, Duration::from_secs(20) + WATCHDOG_GRACE);
    let metrics: Vec<(String, f64)> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("P "))
        .filter_map(|body| Json::parse(body).ok())
        .flat_map(|j| j.as_obj().map(<[_]>::to_vec).unwrap_or_default())
        .filter_map(|(k, v)| Some((k, v.as_f64()?)))
        .collect();
    if metrics.is_empty() {
        println!("!! probe {what}: no result ({end:?})");
    }
    metrics
}

/// One reported metric: value, unit and (where trials give one) the min–max noise band.
#[derive(Debug, Clone)]
pub struct Reported {
    pub def: MetricDef,
    pub value: Option<f64>,
    pub band: Option<(f64, f64)>,
    pub samples: Option<u64>,
}

fn end_to_end(cells: &[Cell]) -> Vec<Reported> {
    let cell = |s: Scheme| cells.iter().find(|c| c.scheme == s).expect("one cell per scheme");
    end_to_end_metrics()
        .into_iter()
        .map(|def| {
            let (family, scheme) = def.name.split_once('.').unwrap_or((def.name.as_str(), ""));
            let scheme = Scheme::parse(scheme);
            let (value, band, samples) = match (family, scheme) {
                ("mops", Some(s)) => {
                    (cell(s).mops(), band(cell(s).untraced().map(Trial::mops)), None)
                }
                ("op_p50_ns", Some(s)) => {
                    let (p50, samples) = cell(s).p50();
                    let per_trial = cell(s).untraced().map(|t| t.hist.quantile(0.5));
                    (p50, band(per_trial), Some(samples))
                }
                ("limbo_peak_kib", Some(s)) => {
                    let kib = || cell(s).untraced().map(|t| t.stat("limbo_bytes_hwm") / 1024.0);
                    (kib().reduce(f64::max), band(kib()), None)
                }
                ("setup_s", None) => {
                    // Per reclaiming cell: the median, minimum and maximum of its timed
                    // set-up cycles; the metric and its band are their sums.
                    let sum_of = |pick: fn(Vec<f64>) -> Option<f64>| -> Option<f64> {
                        Scheme::reclaiming().map(|s| pick(cell(s).setup_reps.clone())).sum()
                    };
                    let lo = sum_of(|reps| reps.into_iter().reduce(f64::min));
                    let hi = sum_of(|reps| reps.into_iter().reduce(f64::max));
                    (sum_of(median), lo.zip(hi), None)
                }
                _ => unreachable!("every end-to-end metric has a rule: {}", def.name),
            };
            Reported { def, value, band, samples }
        })
        .collect()
}

/// The value of one per-layer metric: a probe's result by name, else a figure from the
/// scheme's traced (`x`) or untraced (`u`) trial.
fn layer_value(name: &str, cells: &[Cell], probes: &[(String, f64)]) -> Option<f64> {
    let cell = |s: Scheme| cells.iter().find(|c| c.scheme == s).expect("one cell per scheme");
    let probe = |name: &str| probes.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    if let Some(v) = probe(name) {
        return Some(v);
    }
    let (family, scheme) = name.rsplit_once('.')?;
    let Some(s) = Scheme::parse(scheme) else {
        let x = cell(Scheme::DebraPlus).traced()?;
        return match name {
            "neutralize.signals_per_s" => Some(x.stat("signals_sent") / x.secs),
            "neutralize.restarts_per_s" => Some(x.stat("neutralized") / x.secs),
            _ => None,
        };
    };
    let u = cell(s).untraced().next();
    match family {
        "floor.mops" => return u.map(Trial::mops),
        "lat.op_p50_ns" => return u.map(|u| u.hist.quantile(0.5)),
        "lat.op_p99_ns" => return u.map(|u| u.hist.quantile(0.99)),
        _ => {}
    }
    let x = cell(s).traced()?;
    let per_op = |stat: &str| ratio(x.stat(stat), x.ops);
    Some(match family {
        "trace.overhead_pct" => 100.0 * (1.0 - x.mops() / u?.mops()),
        "ds.insert_ns" => ratio(x.span_ns[0], x.kinds[0]),
        "ds.remove_ns" => ratio(x.span_ns[1], x.kinds[1]),
        "ds.search_ns" => ratio(x.span_ns[2], x.kinds[2]),
        "guard.pins_per_op" => per_op("operations"),
        "reclaim.retired_per_op" => per_op("retired"),
        "reclaim.reclaimed_pct" => 100.0 * ratio(x.stat("reclaimed"), x.stat("retired")),
        "reclaim.limbo_peak_kib" => x.stat("limbo_bytes_hwm") / 1024.0,
        "pagepool.hit_pct" => {
            let (hits, misses) = (x.stat("pool_hits"), x.stat("pool_misses"));
            100.0 * ratio(hits, hits + misses)
        }
        "alloc.fresh_per_kop" => 1000.0 * per_op("fresh_records"),
        // Traversal + protect + CAS: the op's span less the pins and the retire cycles
        // it contained, priced by the probes.
        "ds.self_ns" => {
            ratio(x.span_ns.iter().sum(), x.ops)
                - probe(&format!("guard.pin_ns.{scheme}"))? * per_op("operations")
                - probe(&format!("guard.retire_ns.{scheme}"))? * per_op("retired")
        }
        _ => return None,
    })
}

fn per_layer(cells: &[Cell], probes: &[(String, f64)]) -> Vec<Reported> {
    per_layer_metrics()
        .into_iter()
        .map(|def| {
            let value = layer_value(&def.name, cells, probes);
            Reported { def, value, band: None, samples: None }
        })
        .collect()
}

/// One workload's outcome.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub cells: Vec<Cell>,
    pub metrics: Vec<Reported>,
}

impl WorkloadResult {
    pub fn ops_failed(&self) -> f64 {
        self.cells.iter().map(|c| c.ops_failed).sum()
    }

    /// Completed ops plus the ops charged for lost trials.
    pub fn ops_attempted(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.ops_done() + if c.trials_killed > 0 { c.ops_failed } else { 0.0 })
            .sum()
    }

    pub fn trials_killed(&self) -> u64 {
        self.cells.iter().map(|c| c.trials_killed).sum()
    }

    /// Outputs checked and right: every oracle passed, nothing was lost, and every
    /// metric has a value.
    pub fn correct(&self) -> bool {
        self.cells.iter().all(|c| c.note.is_none())
            && self.metrics.iter().all(|m| m.value.is_some())
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", m.value.map_or(Json::Null, Json::Num)),
                ("unit", Json::str(m.def.unit)),
                ("better", Json::str(if m.def.higher_is_better { "higher" } else { "lower" })),
            ];
            if let Some(bound) = m.def.bound {
                fields.push(("bound", Json::Num(bound)));
            }
            if let Some((lo, hi)) = m.band {
                fields.push(("band", Json::Arr(vec![Json::Num(lo), Json::Num(hi)])));
            }
            if let Some(n) = m.samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            (m.def.name.clone(), Json::obj(fields))
        });
        let cells = self.cells.iter().map(|c| {
            let trials = c.trials.iter().map(|t| {
                Json::obj([
                    ("traced", Json::Bool(t.traced)),
                    ("secs", Json::Num(t.secs)),
                    ("ops", Json::Num(t.ops)),
                    ("mops", Json::Num(t.mops())),
                    ("p50_ns", Json::Num(t.hist.quantile(0.5))),
                    ("p90_ns", Json::Num(t.hist.quantile(0.9))),
                    ("p95_ns", Json::Num(t.hist.quantile(0.95))),
                    ("p98_ns", Json::Num(t.hist.quantile(0.98))),
                    ("p99_ns", Json::Num(t.hist.quantile(0.99))),
                    ("p995_ns", Json::Num(t.hist.quantile(0.995))),
                    ("p999_ns", Json::Num(t.hist.quantile(0.999))),
                    ("latency_samples", Json::Num(t.hist.count() as f64)),
                    ("kinds", Json::Arr(t.kinds.iter().map(|&k| Json::Num(k)).collect())),
                    ("stats", t.stats.clone()),
                ])
            });
            let fields = [
                ("trials", Json::Arr(trials.collect())),
                ("setup_reps", Json::Arr(c.setup_reps.iter().map(|&r| Json::Num(r)).collect())),
                ("summary", c.summary.clone().unwrap_or(Json::Null)),
                ("trials_killed", Json::Num(c.trials_killed as f64)),
                ("ops_failed", Json::Num(c.ops_failed)),
                ("note", c.note.clone().map_or(Json::Null, Json::Str)),
            ];
            (c.scheme.name(), Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.ops_attempted())),
            ("ops_failed", Json::Num(self.ops_failed())),
            ("trials_killed", Json::Num(self.trials_killed() as f64)),
            ("metrics", Json::obj(metrics)),
            ("cells", Json::obj(cells)),
        ])
    }

    fn print(&self, traced: bool) {
        println!("\n== {} ==", self.workload.name);
        for m in &self.metrics {
            let value = m.value.map_or("missing".to_string(), |v| format!("{v:.4}"));
            let band =
                m.band.map_or(String::new(), |(lo, hi)| format!("  trials {lo:.4}..{hi:.4}"));
            let samples = m.samples.map_or(String::new(), |n| format!("  {n} samples"));
            println!("{:<34} {:>14} {:<7}{band}{samples}", m.def.name, value, m.def.unit);
        }
        if !traced {
            // Printed for orientation, never gated: `none` leaks, and its throughput
            // falls as its heap grows.
            let mops = |s: Scheme| self.cells.iter().find(|c| c.scheme == s).and_then(Cell::mops);
            if let Some(floor) = mops(Scheme::None) {
                println!("{:<34} {:>14.4} Mops/s (ungated)", "floor.mops.none", floor);
                for s in Scheme::reclaiming() {
                    if let Some(m) = mops(s) {
                        let name = format!("overhead_pct.{}", s.name());
                        println!("{name:<34} {:>14.2} %      (ungated)", 100.0 * (1.0 - m / floor));
                    }
                }
            }
        }
        println!("{:<34} {:>14.0} count", "ops_attempted", self.ops_attempted());
        println!("{:<34} {:>14.0} count", "ops_failed", self.ops_failed());
        println!("{:<34} {:>14} count", "trials_killed", self.trials_killed());
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The machine and build a result was measured on.
fn environment(plan: &Plan, nproc: usize, load1: Option<f64>) -> Json {
    let unknown = || "unknown".to_string();
    let cpu = read_trimmed("/proc/cpuinfo").and_then(|info| {
        let line = info.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    let dir = package_dir();
    let git = command_line("git", &["-C", &dir.display().to_string(), "rev-parse", "HEAD"]);
    Json::obj([
        ("git_head", Json::Str(git.unwrap_or_else(unknown))),
        ("rustc", Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu.unwrap_or_else(unknown))),
        ("kernel", Json::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown))),
        ("load1_at_start", load1.map_or(Json::Null, Json::Num)),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds as f64)),
        ("traced", Json::Bool(plan.traced)),
        ("smoke", Json::Bool(plan.smoke)),
    ])
}

pub fn run_workload(plan: &Plan, shape: Shape, w: &'static Workload) -> WorkloadResult {
    let mut cells: Vec<Cell> = Vec::new();
    for round in 0..shape.rounds {
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            // `none` never frees: its heap grows by ~180 MB/s and its throughput falls from
            // trial to trial, so one process is all it gets.  It is reported, not gated.
            if scheme == Scheme::None && round > 0 {
                continue;
            }
            let mut cell = run_cell(plan, shape, w, scheme);
            if round == 0 && !plan.traced && scheme != Scheme::None {
                cell.setup_reps = time_setup(plan, w, scheme);
            }
            match cells.get_mut(i) {
                Some(first) => first.absorb(cell),
                None => cells.push(cell),
            }
        }
    }
    for cell in &cells {
        let mops = cell.mops().map_or("-".to_string(), |m| format!("{m:.3}"));
        eprintln!(
            "   {}/{}: {mops} Mops/s over {} trials",
            w.name,
            cell.scheme.name(),
            cell.trials.len()
        );
    }
    let metrics = if plan.traced {
        let mut probes = Vec::new();
        for what in Scheme::ALL.iter().map(|s| s.name()).chain(["alloc"]) {
            probes.extend(run_probe(what, plan.smoke));
        }
        per_layer(&cells, &probes)
    } else {
        end_to_end(&cells)
    };
    WorkloadResult { workload: w, cells, metrics }
}

/// Runs the plan; returns the process exit code.
pub fn run(plan: &Plan) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!(
            "smr-benchmark: refusing to run on {nproc} CPU: every workload keeps two threads busy, \
             and time-sliced onto one CPU the numbers measure the scheduler (README, \"Machine\")"
        );
        return 2;
    }
    let load1 = read_trimmed("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next().and_then(|f| f.parse::<f64>().ok()));
    if let Some(load) = load1.filter(|l| *l > 0.5) {
        eprintln!(
            "smr-benchmark: warning: 1-minute load average is {load:.2}; a stray process on one of \
             {nproc} CPUs moved queue numbers 2.5x during sizing"
        );
    }
    let shape = Shape::of(plan.seconds, plan.traced, plan.smoke);
    let results: Vec<WorkloadResult> =
        plan.workloads.iter().map(|w| run_workload(plan, shape, w)).collect();
    for r in &results {
        r.print(plan.traced);
    }

    let file = Json::obj([
        ("env", environment(plan, nproc, load1)),
        ("workloads", Json::obj(results.iter().map(|r| (r.workload.name, r.to_json())))),
    ]);
    let default_name = || {
        let which = if results.len() == 1 { results[0].workload.name } else { "all" };
        package_dir().join("out").join(format!("result.{which}.trace{}.json", plan.traced as u8))
    };
    let path = plan.out.clone().unwrap_or_else(default_name);
    if let Err(e) = write_file(&path, &file.pretty()) {
        eprintln!("smr-benchmark: cannot write {}: {e}", path.display());
        return 1;
    }
    eprintln!("smr-benchmark: result written to {}", path.display());

    // The driver's line: one workload's metrics by name; with several workloads, by
    // `workload:name`.
    let single = results.len() == 1;
    let metrics = results.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            let name = if single {
                m.def.name.clone()
            } else {
                format!("{}:{}", r.workload.name, m.def.name)
            };
            let fields =
                [("value", Json::Num(m.value.unwrap_or(0.0))), ("unit", Json::str(m.def.unit))];
            (name, Json::obj(fields))
        })
    });
    let line = Json::obj([
        ("correct", Json::Bool(results.iter().all(WorkloadResult::correct))),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.ops_attempted()).sum::<f64>().round().max(1.0)),
        ),
        ("failed", Json::Num(results.iter().map(|r| r.ops_failed()).sum::<f64>().round())),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    0
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

pub fn all_workloads() -> Vec<&'static Workload> {
    WORKLOADS.iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_run_shape_follows_the_seconds() {
        let shape = |trial_ms, rounds, trials| Shape { warmup_ms: 200, trial_ms, rounds, trials };
        assert_eq!(Shape::of(22, false, false), shape(500, 3, 2));
        assert_eq!(Shape::of(60, false, false), shape(500, 3, 5));
        assert_eq!(Shape::of(7, false, false), shape(500, 1, 2));
        assert_eq!(Shape::of(2, false, false), shape(285, 1, 1));
        assert_eq!(Shape::of(22, true, false), shape(1000, 1, 1));
        assert_eq!(Shape::of(22, false, true).trial_ms, 100);
    }

    fn trial(traced: bool, ops: f64, secs: f64, latencies: &[u64]) -> Trial {
        let mut hist = Histogram::new();
        latencies.iter().for_each(|&l| hist.record(l));
        let stats = Json::obj([
            ("limbo_bytes_hwm", Json::Num(20480.0)),
            ("operations", Json::Num(ops * 1.5)),
        ]);
        Trial {
            traced,
            secs,
            ops,
            kinds: [ops / 2.0, ops / 2.0, 0.0],
            span_ns: [ops * 50.0, ops * 150.0, 0.0],
            hist,
            stats,
        }
    }

    /// A result file written and read back says the same thing, metric by metric.
    #[test]
    fn result_json_round_trips() {
        let summary = Json::obj([("oracle_ok", Json::Bool(true))]);
        let cells: Vec<Cell> = Scheme::ALL
            .into_iter()
            .map(|scheme| Cell {
                scheme,
                trials: vec![
                    trial(false, 4.0e6, 1.0, &[100, 200, 300]),
                    trial(false, 5.0e6, 1.0, &[150, 900]),
                ],
                setup_reps: vec![0.009, 0.01, 0.02],
                summary: Some(summary.clone()),
                trials_killed: 0,
                ops_failed: 0.0,
                note: None,
            })
            .collect();
        let metrics = end_to_end(&cells);
        let mops = metrics.iter().find(|m| m.def.name == "mops.hp").unwrap();
        assert_eq!(mops.value, Some(4.5));
        assert_eq!(mops.band, Some((4.0, 5.0)));
        let setup = metrics.iter().find(|m| m.def.name == "setup_s").unwrap();
        assert!((setup.value.unwrap() - 0.07).abs() < 1e-12);
        let result = WorkloadResult { workload: &WORKLOADS[0], cells, metrics };
        assert!(result.correct());
        let json = result.to_json();
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back, json);
        let limbo = back.get("metrics").unwrap().get("limbo_peak_kib.debra_plus").unwrap();
        assert_eq!(limbo.get("value").unwrap().as_f64(), Some(20.0));
        assert_eq!(limbo.get("unit"), Some(&Json::str("KiB")));
        assert_eq!(back.get("ops_attempted").unwrap().as_f64(), Some(8.0 * 9.0e6));
    }

    #[test]
    fn per_layer_metrics_come_from_the_traced_trial_and_the_probes() {
        let cells: Vec<Cell> = Scheme::ALL
            .into_iter()
            .map(|scheme| Cell {
                scheme,
                trials: vec![trial(false, 4.0e6, 1.0, &[100, 200]), trial(true, 3.0e6, 1.0, &[])],
                setup_reps: Vec::new(),
                summary: None,
                trials_killed: 0,
                ops_failed: 0.0,
                note: None,
            })
            .collect();
        let probes =
            vec![("guard.pin_ns.ebr".to_string(), 10.0), ("guard.retire_ns.ebr".to_string(), 30.0)];
        let m = per_layer(&cells, &probes);
        let get = |name: &str| m.iter().find(|r| r.def.name == name).unwrap().value;
        assert_eq!(get("guard.pin_ns.ebr"), Some(10.0));
        assert_eq!(
            get("guard.pin_ns.hp"),
            None,
            "a probe that did not report is missing, not zero"
        );
        assert_eq!(get("ds.insert_ns.ebr"), Some(100.0));
        assert_eq!(get("ds.search_ns.ebr"), Some(0.0));
        assert_eq!(get("guard.pins_per_op.ebr"), Some(1.5));
        assert_eq!(get("trace.overhead_pct.ebr"), Some(25.0));
        assert_eq!(get("floor.mops.none"), Some(4.0));
        // mean op 200 ns - 1.5 pins x 10 ns - 0 retires
        assert_eq!(get("ds.self_ns.ebr"), Some(185.0));
        assert_eq!(get("neutralize.signals_per_s"), Some(0.0));
    }
}
