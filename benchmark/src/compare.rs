//! `compare A.json B.json`: every (end-to-end metric, workload) pair of two result files
//! side by side, judged against the metric's bound.

use crate::json::Json;
use crate::spec::{end_to_end_metrics, MetricDef, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The cells' own trial-to-trial bands are wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub band: Option<(f64, f64)>,
}

impl Side {
    fn from_json(metric: &Json) -> Option<Side> {
        let band = metric
            .get("band")
            .and_then(Json::as_arr)
            .and_then(|b| Some((b.first()?.as_f64()?, b.get(1)?.as_f64()?)));
        Some(Side { value: metric.get("value")?.as_f64()?, band })
    }

    fn band_or_value(&self) -> (f64, f64) {
        self.band.unwrap_or((self.value, self.value))
    }
}

/// Absolute slack on top of the relative bound, for metrics that are small on some
/// workloads: a 20 KiB limbo peak moves in whole 4 KiB blocks, a 5 ms set-up by a page fault.
fn absolute_slack(name: &str) -> f64 {
    match name {
        "limbo_peak_kib.debra_plus" => 4.0,
        "setup_s" => 0.1,
        _ => 0.0,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    if a != 0.0 {
        delta / a.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        delta.signum() * f64::INFINITY
    }
}

pub fn judge(def: &MetricDef, a: Side, b: Side) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let allowed = (bound * a.value.abs()).max(absolute_slack(&def.name));
    let worse_by = if def.higher_is_better { a.value - b.value } else { b.value - a.value };
    let (a_lo, a_hi) = a.band_or_value();
    let (b_lo, b_hi) = b.band_or_value();
    let noisy = (a_hi - a_lo).max(b_hi - b_lo) > allowed;
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    match (worse_by > allowed, noisy && overlap) {
        (_, true) => Verdict::Unresolved,
        (true, false) => Verdict::Regressed,
        (false, false) => Verdict::Ok,
    }
}

/// Prints the table; returns the process exit code (non-zero on any `regressed`).
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    for (label, file) in [("A", &a), ("B", &b)] {
        let env = |key: &str| file.get("env").and_then(|e| e.get(key)).map(Json::to_string);
        println!(
            "{label}: git {} seed {} {}",
            env("git_head").unwrap_or_default(),
            env("seed").unwrap_or_default(),
            env("cpu_model").unwrap_or_default()
        );
    }
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let (mut compared, mut regressed) = (0, 0);
    for w in &WORKLOADS {
        let metrics = |file: &Json| file.get("workloads")?.get(w.name)?.get("metrics").cloned();
        let (Some(ma), Some(mb)) = (metrics(&a), metrics(&b)) else { continue };
        for def in end_to_end_metrics() {
            let side = |m: &Json| m.get(&def.name).and_then(Side::from_json);
            let (Some(sa), Some(sb)) = (side(&ma), side(&mb)) else {
                println!("{:<14} {:<26} missing on one side", w.name, def.name);
                regressed += 1;
                continue;
            };
            let verdict = judge(&def, sa, sb);
            compared += 1;
            regressed += (verdict == Verdict::Regressed) as i32;
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {}",
                w.name,
                def.name,
                sa.value,
                sb.value,
                100.0 * worsening(&def, sa.value, sb.value),
                100.0 * def.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if compared == 0 {
        eprintln!("compare: the two files share no workload with end-to-end metrics");
        return 2;
    }
    println!("{compared} pairs compared, {regressed} regressed");
    (regressed > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher: bool) -> MetricDef {
        end_to_end_metrics()
            .into_iter()
            .find(|m| m.name == name && m.higher_is_better == higher)
            .unwrap()
    }

    fn side(value: f64, band: Option<(f64, f64)>) -> Side {
        Side { value, band }
    }

    #[test]
    fn verdicts_follow_bound_band_and_direction() {
        let mops = def("mops.debra", true);
        let bound = mops.bound.unwrap();
        let tight = |v: f64| side(v, Some((v * 0.99, v * 1.01)));
        assert_eq!(judge(&mops, tight(10.0), tight(10.0 * (1.0 - bound / 2.0))), Verdict::Ok);
        assert_eq!(
            judge(&mops, tight(10.0), tight(10.0 * (1.0 - 2.0 * bound))),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&mops, tight(10.0), tight(20.0)),
            Verdict::Ok,
            "faster is never a regression"
        );
        // Trials that spread wider than the bound and overlap cannot be told apart.
        let wide = |v: f64| side(v, Some((v * (1.0 - bound), v * (1.0 + bound))));
        assert_eq!(judge(&mops, wide(10.0), wide(10.0 * (1.0 - bound))), Verdict::Unresolved);
        // ... unless every trial of one side is beyond every trial of the other.
        assert_eq!(judge(&mops, wide(10.0), wide(5.0)), Verdict::Regressed);

        let p50 = def("op_p50_ns.debra", false);
        assert_eq!(judge(&p50, side(1000.0, None), side(1600.0, None)), Verdict::Regressed);
        assert_eq!(judge(&p50, side(1000.0, None), side(700.0, None)), Verdict::Ok);
        assert!(worsening(&p50, 1000.0, 1100.0) > 0.0 && worsening(&mops, 10.0, 11.0) < 0.0);
    }

    #[test]
    fn small_absolute_moves_are_inside_the_slack() {
        let limbo = def("limbo_peak_kib.debra_plus", false);
        assert_eq!(judge(&limbo, side(20.0, None), side(24.0, None)), Verdict::Ok);
        assert_eq!(judge(&limbo, side(20.0, None), side(40.0, None)), Verdict::Regressed);
        let setup = def("setup_s", false);
        assert_eq!(judge(&setup, side(0.004, None), side(0.05, None)), Verdict::Ok);
        assert_eq!(judge(&setup, side(0.5, None), side(0.9, None)), Verdict::Regressed);
    }
}
