//! Drives the built binary the way the driver and a developer do.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smr_benchmark::json::Json;
use smr_benchmark::spec::{self, Scheme, WORKLOADS};

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One process generates load at a time, here too: the tests assert on wall-clock time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn bench(args: &[&str], hook: Option<&str>) -> (Output, Duration) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let begin = Instant::now();
    let mut command = Command::new(env!("CARGO_BIN_EXE_smr-benchmark"));
    command.args(args).env_remove("BENCH_HOOK");
    if let Some(hook) = hook {
        command.env("BENCH_HOOK", hook);
    }
    (command.output().expect("running the benchmark binary"), begin.elapsed())
}

/// The driver's line: the last line of stdout.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("some output")).expect("the last line is JSON")
}

fn names(metrics: &Json) -> Vec<String> {
    metrics.as_obj().expect("metrics by name").iter().map(|(k, _)| k.clone()).collect()
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("a result file")).expect("valid JSON")
}

#[test]
fn smoke_runs_all_four_workloads_checks_them_and_compares_clean() {
    let out_file = tmp("smoke.json");
    let (out, took) =
        bench(&["--smoke", "--seed", "11", "--out", out_file.to_str().unwrap()], None);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(took < Duration::from_secs(30), "smoke mode took {took:?}");

    let line = result_line(&out);
    let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
    assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let expected: Vec<String> = WORKLOADS
        .iter()
        .flat_map(|w| {
            spec::end_to_end_metrics().into_iter().map(move |m| format!("{}:{}", w.name, m.name))
        })
        .collect();
    assert_eq!(names(line.get("metrics").unwrap()), expected);

    // The result file carries the machine, the build and the seed.
    let file = load(&out_file);
    let env = file.get("env").unwrap();
    for key in ["git_head", "rustc", "nproc", "cpu_model", "kernel", "seed"] {
        assert!(env.get(key).is_some(), "env.{key}");
    }
    assert_eq!(env.get("seed").unwrap().as_f64(), Some(11.0));
    for w in &WORKLOADS {
        let cells = file.get("workloads").unwrap().get(w.name).unwrap().get("cells").unwrap();
        for s in Scheme::ALL {
            let summary = cells.get(s.name()).unwrap().get("summary").unwrap();
            assert_eq!(
                summary.get("oracle_ok"),
                Some(&Json::Bool(true)),
                "{}/{}",
                w.name,
                s.name()
            );
        }
    }

    // A file compared with itself has nothing regressed.
    let path = out_file.to_str().unwrap();
    let (cmp, _) = bench(&["compare", path, path], None);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("44 pairs compared, 0 regressed"), "{table}");
    assert!(!bench(&["compare", path], None).0.status.success());
}

#[test]
fn compare_exits_non_zero_on_a_regression() {
    let metric = |value: f64| {
        Json::obj([
            ("value", Json::Num(value)),
            ("band", Json::Arr(vec![Json::Num(value), Json::Num(value)])),
        ])
    };
    let file = |mops: f64| {
        let metrics = spec::end_to_end_metrics().into_iter().map(|m| {
            let v = if m.name == "mops.hp" { mops } else { 1.0 };
            (m.name, metric(v))
        });
        let workload = Json::obj([("metrics", Json::obj(metrics))]);
        Json::obj([
            ("env", Json::obj([("seed", Json::Num(1.0))])),
            ("workloads", Json::obj([("bst_update", workload)])),
        ])
    };
    let (a, b) = (tmp("cmp_a.json"), tmp("cmp_b.json"));
    std::fs::write(&a, file(10.0).pretty()).unwrap();
    std::fs::write(&b, file(5.0).pretty()).unwrap();
    let (out, _) = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()], None);
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{table}");
    assert!(table.lines().any(|l| l.contains("mops.hp") && l.contains("regressed")), "{table}");
    assert!(table.contains("11 pairs compared, 1 regressed"), "{table}");
    // The other way round it is an improvement.
    let (out, _) = bench(&["compare", b.to_str().unwrap(), a.to_str().unwrap()], None);
    assert!(out.status.success());
}

#[test]
fn traced_smoke_run_prints_every_per_layer_metric_and_writes_the_spans() {
    let out_file = tmp("traced.json");
    let args = [
        "--smoke",
        "--trace",
        "1",
        "--workload",
        "hashmap_stall",
        "--out",
        out_file.to_str().unwrap(),
    ];
    let (out, _) = bench(&args, None);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let line = result_line(&out);
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let expected: Vec<String> = spec::per_layer_metrics().into_iter().map(|m| m.name).collect();
    assert_eq!(names(line.get("metrics").unwrap()), expected);
    assert_eq!(expected.len(), 126);

    let spans =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace.hashmap_stall.debra_plus.jsonl");
    let text = std::fs::read_to_string(&spans).expect("the span file of the DEBRA+ cell");
    let mut lines = text.lines().map(|l| Json::parse(l).expect("one JSON span per line"));
    let root = lines.next().unwrap();
    assert_eq!(root.get("name"), Some(&Json::str("trial")));
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let child = lines.next().expect("at least one op span");
    assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
    assert!(child.get("end").unwrap().as_f64() >= child.get("start").unwrap().as_f64());
    for key in ["id", "parent", "name", "tid", "start", "end"] {
        assert!(child.get(key).is_some(), "span.{key}");
    }
}

/// A child that stops responding is killed after its grace; the trial it had already
/// streamed is kept, the one it lost is counted, and every other cell still reports.
#[test]
fn a_hung_cell_is_killed_counted_and_the_rest_still_reported() {
    let out_file = tmp("hung.json");
    // 7 s: two half-second trials per cell, so the hung cell loses its second.
    let args = ["--workload", "queue_ring", "--seconds", "7", "--out", out_file.to_str().unwrap()];
    let (out, took) = bench(&args, Some("hang:queue_ring:ebr"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "the run itself finishes: {stdout}");
    assert!(took > Duration::from_secs(10), "the watchdog waits out its grace: {took:?}");
    assert!(stdout.contains("!! cell queue_ring/ebr: killed by the watchdog"), "{stdout}");

    let line = result_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").unwrap().as_f64().unwrap() > 0.0);
    let w = load(&out_file);
    let w = w.get("workloads").unwrap().get("queue_ring").unwrap();
    assert_eq!(w.get("trials_killed").unwrap().as_f64(), Some(1.0));
    let cells = w.get("cells").unwrap();
    let ebr = cells.get("ebr").unwrap();
    assert_eq!(ebr.get("trials").unwrap().as_arr().unwrap().len(), 1, "the streamed trial is kept");
    assert!(ebr.get("ops_failed").unwrap().as_f64().unwrap() > 0.0);
    for s in Scheme::ALL.into_iter().filter(|s| *s != Scheme::Ebr) {
        let cell = cells.get(s.name()).unwrap();
        assert_eq!(cell.get("note"), Some(&Json::Null), "{}", s.name());
        assert!(!cell.get("trials").unwrap().as_arr().unwrap().is_empty(), "{}", s.name());
    }
}

/// `/BENCHMARK.json` is what `describe` prints: the same workloads, metrics and bounds.
#[test]
fn the_committed_benchmark_json_matches_the_code() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(load(&committed), spec::benchmark_json());
    let (out, _) = bench(&["describe"], None);
    assert_eq!(Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap(), spec::benchmark_json());
}

#[test]
fn bad_arguments_are_refused_with_a_message() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--seed"],
        &["stray"],
    ] {
        let (out, _) = bench(args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("smr-benchmark:"), "{args:?}");
        assert!(out.stdout.is_empty(), "no result is printed: {args:?}");
    }
}
