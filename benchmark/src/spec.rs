//! What the benchmark measures: the schemes, the four workloads and every metric name.
//! `/BENCHMARK.json` lists the same names; `tests/cli.rs` checks the two against each other.

use crate::json::Json;
use crate::ops::Mix;

/// `run_seconds`: the time one run spends measuring, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    None,
    Debra,
    DebraPlus,
    Hp,
    Ebr,
    ThreadScan,
    Ibr,
    Vbr,
}

impl Scheme {
    pub const ALL: [Scheme; 8] = [
        Scheme::None,
        Scheme::Debra,
        Scheme::DebraPlus,
        Scheme::Hp,
        Scheme::Ebr,
        Scheme::ThreadScan,
        Scheme::Ibr,
        Scheme::Vbr,
    ];

    /// The seven schemes that reclaim; `None` leaks and is reported but never gated.
    pub fn reclaiming() -> impl Iterator<Item = Scheme> {
        Scheme::ALL.into_iter().filter(|s| *s != Scheme::None)
    }

    pub fn name(self) -> &'static str {
        match self {
            Scheme::None => "none",
            Scheme::Debra => "debra",
            Scheme::DebraPlus => "debra_plus",
            Scheme::Hp => "hp",
            Scheme::Ebr => "ebr",
            Scheme::ThreadScan => "threadscan",
            Scheme::Ibr => "ibr",
            Scheme::Vbr => "vbr",
        }
    }

    pub fn parse(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    Bst,
    SkipList,
    QueueRing,
    HashMap,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub structure: Structure,
    pub mix: Mix,
    pub key_range: u64,
    /// Closed-loop worker threads, each issuing its next op when the previous returns.
    pub workers: usize,
    /// A benchmark-owned thread that holds an operation open in 20 ms windows.
    pub laggard: bool,
}

pub const HASHMAP_BUCKETS: usize = 256;
pub const QUEUE_PREFILL: u64 = 128;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bst_update",
        why: "ExternalBst, 2 threads, 50% insert / 50% delete over 2^14 keys on malloc: every op allocates, retires and walks ~14 links, so protect, limbo, reclaim scan and malloc+pool are all busy",
        structure: Structure::Bst,
        mix: Mix { insert_pct: 50, remove_pct: 50 },
        key_range: 1 << 14,
        workers: 2,
        laggard: false,
    },
    Workload {
        name: "skiplist_read",
        why: "SkipList, 2 threads, 90% search over 2^17 keys (~5x L2) on pagepool: the protect/validate read path dominates and retires are rare; allocator or retire changes should not move it",
        structure: Structure::SkipList,
        mix: Mix { insert_pct: 5, remove_pct: 5 },
        key_range: 1 << 17,
        workers: 2,
        laggard: false,
    },
    Workload {
        name: "queue_ring",
        why: "two MsQueues in one Domain, thread t pushes to queue t and pops queue 1-t: no traversal, retire rate = throughput, every node is freed by the other thread, so record_manager and pagepool dominate",
        structure: Structure::QueueRing,
        mix: Mix { insert_pct: 50, remove_pct: 50 },
        key_range: 1 << 16,
        workers: 2,
        laggard: false,
    },
    Workload {
        name: "hashmap_stall",
        why: "LockFreeHashMap, 1 worker + 1 laggard holding an op open for 20 ms windows: the paper's bounded-garbage claim; the only workload that exercises neutralize signals and DEBRA+ recovery",
        structure: Structure::HashMap,
        mix: Mix { insert_pct: 50, remove_pct: 50 },
        key_range: 4096,
        workers: 1,
        laggard: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; `None` for per-layer
    /// metrics, which are never gated.
    pub bound: Option<f64>,
}

fn def(name: String, unit: &'static str, higher_is_better: bool, bound: Option<f64>) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound }
}

pub const MOPS: &str = "Mops/s";

/// Bounds follow the run-to-run spread measured on the 2-vCPU sandbox (README, "Noise"):
/// over 10-seed sets the interquartile spread of `mops.*` was 1–10 % in quiet spells and
/// up to 14.5 % when a neighbour on the host was busy, of `op_p50_ns.*` 1–6 %, of the limbo
/// peak at most 2.1 %.  A bound has to be about three times the spread to hold, and the
/// contract caps it at 25 %.  The gated latency is the median: every tail percentile sits
/// on a step of some cell's distribution and spread past the cap (README, "Why the tail
/// is not gated"), so `lat.op_p99_ns.*` is per-layer.
pub fn end_to_end_metrics() -> Vec<MetricDef> {
    let mut m: Vec<MetricDef> = Scheme::reclaiming()
        .map(|s| def(format!("mops.{}", s.name()), MOPS, true, Some(0.25)))
        .collect();
    m.push(def("op_p50_ns.debra".into(), "ns", false, Some(0.25)));
    m.push(def("op_p50_ns.debra_plus".into(), "ns", false, Some(0.25)));
    m.push(def("limbo_peak_kib.debra_plus".into(), "KiB", false, Some(0.1)));
    m.push(def("setup_s".into(), "s", false, Some(0.25)));
    m
}

pub fn per_layer_metrics() -> Vec<MetricDef> {
    let mut m = Vec::new();
    let mut family = |prefix: &str, schemes: &[Scheme], unit: &'static str, higher: bool| {
        for s in schemes {
            m.push(def(format!("{prefix}.{}", s.name()), unit, higher, None));
        }
    };
    let s8 = Scheme::ALL;
    let s7: Vec<Scheme> = Scheme::reclaiming().collect();
    // The DEBRA+ limbo peak and the DEBRA / DEBRA+ median latency are end-to-end metrics.
    let s6: Vec<Scheme> = s7.iter().copied().filter(|s| *s != Scheme::DebraPlus).collect();
    let s5: Vec<Scheme> = s6.iter().copied().filter(|s| *s != Scheme::Debra).collect();
    // Probes: the layer's public functions called from one thread.
    family("guard.pin_ns", &s8, "ns", false);
    family("guard.protect_ns", &s8, "ns", false);
    family("guard.retire_ns", &s8, "ns", false);
    family("guard.retire_p999_ns", &s7, "ns", false);
    // Traced run: spans around every structure call, counters at trial boundaries.
    family("ds.insert_ns", &s7, "ns", false);
    family("ds.remove_ns", &s7, "ns", false);
    family("ds.search_ns", &s7, "ns", false);
    family("guard.pins_per_op", &s7, "count", false);
    family("reclaim.retired_per_op", &s7, "count", false);
    family("reclaim.reclaimed_pct", &s7, "%", true);
    family("reclaim.limbo_peak_kib", &s6, "KiB", false);
    family("pagepool.hit_pct", &s7, "%", true);
    family("alloc.fresh_per_kop", &s7, "count", false);
    family("ds.self_ns", &s7, "ns", false);
    family("lat.op_p50_ns", &s5, "ns", false);
    family("lat.op_p99_ns", &s7, "ns", false);
    family("trace.overhead_pct", &s7, "%", false);
    for (name, unit, higher) in [
        ("alloc.hit_ns.malloc_pool", "ns", false),
        ("alloc.hit_ns.pagepool", "ns", false),
        ("alloc.miss_ns.malloc_pool", "ns", false),
        ("alloc.miss_ns.pagepool", "ns", false),
        ("neutralize.signals_per_s", "1/s", false),
        ("neutralize.restarts_per_s", "1/s", false),
        ("floor.mops.none", MOPS, true),
    ] {
        m.push(def(name.into(), unit, higher, None));
    }
    m
}

/// The contents of `/BENCHMARK.json` (`smr-benchmark describe` prints it).
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(m.name.clone())),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(if m.higher_is_better { "higher" } else { "lower" })),
        ];
        fields.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.into_iter().map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end_metrics().iter().map(metric).collect())),
        ("per_layer", Json::Arr(per_layer_metrics().iter().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_metric_lists_have_the_agreed_sizes_and_unique_names() {
        let (e2e, layers) = (end_to_end_metrics(), per_layer_metrics());
        assert_eq!(e2e.len(), 11);
        assert_eq!(layers.len(), 126);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 137);
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert_eq!(Scheme::parse("debra_plus"), Some(Scheme::DebraPlus));
        assert!(workload("queue_ring").is_some() && workload("nope").is_none());
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
