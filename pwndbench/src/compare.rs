//! `pwndbench compare BASE... --vs NEW...`: two sets of result files,
//! one verdict per workload and end-to-end metric, then the per-layer
//! deltas sorted by size so a regression names its layer.
//!
//! A result file is what a run prints: a `{"pwndbench_meta": ...}`
//! line followed by the result line. Files holding several such pairs
//! (an `--workload all` run) are fine.

use crate::report::{self, MetricSpec};
use crate::stats;
use pwnd::telemetry::json::Json;
use std::collections::BTreeMap;
use std::io;

/// One run read back from a result file.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub traced: bool,
    /// The run's `host` metadata, compared across records.
    pub host: Json,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse every (meta, result) pair in `text`.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let mut meta: Option<Json> = None;
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let Ok(doc) = Json::parse(line) else { continue };
        if let Some(m) = doc.get("pwndbench_meta") {
            meta = Some(m.clone());
            continue;
        }
        let (Some(m), Some(metrics)) = (meta.take(), doc.get("metrics")) else {
            continue;
        };
        let Json::Obj(fields) = metrics else {
            return Err("result line: metrics is not an object".to_string());
        };
        out.push(Record {
            workload: m
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            traced: m.get("trace").and_then(Json::as_u64) == Some(1),
            host: m.get("host").cloned().unwrap_or(Json::Null),
            metrics: fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(out)
}

/// A comparison verdict for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides steady enough to say so.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

/// How much worse `new` is than `base`, as a share of `base`
/// (negative is better).
pub fn worsening(base: f64, new: f64, better: &str) -> f64 {
    let change = (new - base) / base.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Judge `new` against `base` with `bound`: regressed when the median
/// worsened by more than the bound; unresolved when either side spreads
/// wider than the bound, unless every run of one side beats every run of
/// the other.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, better: &str) -> Verdict {
    let worse = worsening(stats::median(base), stats::median(new), better);
    let steady = |xs: &[f64]| stats::spread(xs).is_none_or(|s| s <= bound);
    let lower_is_better = better != "higher";
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (new_all_worse, new_all_better) = if lower_is_better {
        (min(new) > max(base), max(new) < min(base))
    } else {
        (max(new) < min(base), min(new) > max(base))
    };
    let steady = steady(base) && steady(new);
    if worse > bound {
        if steady || new_all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if steady || new_all_better {
        Verdict::WithinBound
    } else {
        Verdict::Unresolved
    }
}

fn fmt_side(xs: &[f64]) -> String {
    match stats::quartiles(xs) {
        Some([q1, _, q3]) => format!("{:.4} [{:.4}, {:.4}]", stats::median(xs), q1, q3),
        None => format!("{:.4} [n={}]", stats::median(xs), xs.len()),
    }
}

/// Group values by (workload, metric).
fn collect(records: &[Record], traced: bool) -> BTreeMap<(String, String), Vec<f64>> {
    let mut m: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.traced == traced) {
        for (k, &v) in &r.metrics {
            m.entry((r.workload.clone(), k.clone()))
                .or_default()
                .push(v);
        }
    }
    m
}

/// Refuse to compare results from different hosts or builds.
pub fn host_mismatch(base: &[Record], new: &[Record]) -> Option<String> {
    let first = base.iter().chain(new).next()?;
    base.iter()
        .chain(new)
        .find(|r| r.host != first.host)
        .map(|r| {
            format!(
                "host or build differs:\n  {}\n  {}",
                first.host.compact(),
                r.host.compact()
            )
        })
}

/// Render the comparison; the flag says whether anything regressed.
pub fn render(base: &[Record], new: &[Record], e2e: &[MetricSpec]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let (b, n) = (collect(base, false), collect(new, false));
    out.push_str(&format!(
        "{:<16} {:<17} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "worse", "bound"
    ));
    for ((workload, name), bv) in &b {
        let Some(spec) = e2e.iter().find(|s| &s.name == name) else {
            continue;
        };
        let Some(nv) = n.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let bound = spec.bound.unwrap_or(0.0);
        let v = verdict(bv, nv, bound, &spec.better);
        regressed |= v == Verdict::Regressed;
        out.push_str(&format!(
            "{:<16} {:<17} {:>34} {:>34} {:>7.1}% {:>5.0}%  {}\n",
            workload,
            format!("{name} ({})", spec.unit),
            fmt_side(bv),
            fmt_side(nv),
            worsening(stats::median(bv), stats::median(nv), &spec.better) * 100.0,
            bound * 100.0,
            match v {
                Verdict::WithinBound => "within bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            }
        ));
    }

    let (b, n) = (collect(base, true), collect(new, true));
    let mut deltas: Vec<(f64, String)> = Vec::new();
    for (key, bv) in &b {
        let Some(nv) = n.get(key) else { continue };
        let (bm, nm) = (stats::median(bv), stats::median(nv));
        if bm == nm {
            continue;
        }
        let rel = if bm == 0.0 {
            f64::INFINITY
        } else {
            (nm - bm) / bm.abs()
        };
        deltas.push((
            rel.abs(),
            format!(
                "{:<16} {:<28} {:>14.4} {:>14.4} {:>+14.4} {:>+9.1}%\n",
                key.0,
                key.1,
                bm,
                nm,
                nm - bm,
                rel * 100.0
            ),
        ));
    }
    if !deltas.is_empty() {
        deltas.sort_by(|a, b| b.0.total_cmp(&a.0));
        out.push_str(&format!(
            "\nper-layer deltas, largest relative change first (traced runs)\n{:<16} {:<28} {:>14} {:>14} {:>14} {:>10}\n",
            "workload", "metric", "base median", "new median", "change", "change %"
        ));
        for (_, line) in deltas {
            out.push_str(&line);
        }
    }
    (out, regressed)
}

/// The `compare` subcommand. Exit code 0: nothing regressed; 1: a
/// regression; 2: bad input or a host mismatch without `--force`.
pub fn main(args: &[String]) -> i32 {
    let mut force = false;
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side_new = false;
    for a in args {
        match a.as_str() {
            "--force" => force = true,
            "--vs" => side_new = true,
            path if side_new => new.push(path.to_string()),
            path => base.push(path.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        eprintln!("usage: pwndbench compare [--force] BASE_FILE... --vs NEW_FILE...");
        return 2;
    }
    let read = |paths: &[String]| -> io::Result<Vec<Record>> {
        let mut out = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p)?;
            out.extend(parse_records(&text).map_err(io::Error::other)?);
        }
        Ok(out)
    };
    let (base, new) = match (read(&base), read(&new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pwndbench compare: {e}");
            return 2;
        }
    };
    if let Some(why) = host_mismatch(&base, &new) {
        if !force {
            eprintln!(
                "pwndbench compare: refusing to compare: {why}\n(pass --force to compare anyway)"
            );
            return 2;
        }
        println!("warning (forced): {why}");
    }
    let (text, regressed) = render(&base, &new, &report::spec().end_to_end);
    print!("{text}");
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3% slower with a 10% bound: fine.
        let new = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(verdict(&base, &new, 0.10, "lower"), Verdict::WithinBound);
        // 20% slower: regressed.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slow, 0.10, "lower"), Verdict::Regressed);
        // The same numbers on a higher-is-better metric are a gain.
        assert_eq!(verdict(&base, &slow, 0.10, "higher"), Verdict::WithinBound);
        assert_eq!(verdict(&slow, &base, 0.10, "higher"), Verdict::Regressed);
        // Wildly spread runs with overlapping ranges: no claim.
        let noisy = [60.0, 150.0, 90.0, 200.0, 115.0];
        assert_eq!(verdict(&base, &noisy, 0.10, "lower"), Verdict::Unresolved);
        // Spread but every new run worse than every base run: regressed.
        let noisy_slow = [130.0, 190.0, 150.0, 260.0, 140.0];
        assert_eq!(
            verdict(&base, &noisy_slow, 0.10, "lower"),
            Verdict::Regressed
        );
    }

    fn result(workload: &str, trace: u8, host_jobs: u8, v: f64) -> String {
        format!(
            "noise\n{{\"pwndbench_meta\":{{\"workload\":\"{workload}\",\"trace\":{trace},\"host\":{{\"jobs\":{host_jobs}}}}}}}\n{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"op_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn records_round_trip_and_hosts_must_match() {
        let text = result("paper_run", 0, 2, 1.5) + &result("fleet_store", 1, 2, 2.5);
        let recs = parse_records(&text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].workload, "paper_run");
        assert!(!recs[0].traced && recs[1].traced);
        assert_eq!(recs[0].metrics["op_p50_ms"], 1.5);
        assert!(host_mismatch(&recs, &recs).is_none());
        let other = parse_records(&result("paper_run", 0, 4, 1.5)).unwrap();
        assert!(host_mismatch(&recs, &other).is_some());
    }

    #[test]
    fn render_flags_a_regression_and_names_the_layer() {
        let spec = vec![MetricSpec {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        }];
        let base: Vec<Record> = [1.0, 1.01, 0.99]
            .iter()
            .flat_map(|&v| parse_records(&result("paper_run", 0, 2, v)).unwrap())
            .collect();
        let new: Vec<Record> = [1.5, 1.51, 1.49]
            .iter()
            .flat_map(|&v| parse_records(&result("paper_run", 0, 2, v)).unwrap())
            .collect();
        let (text, regressed) = render(&base, &new, &spec);
        assert!(regressed, "{text}");
        assert!(text.contains("REGRESSED"));
        let (_, regressed) = render(&base, &base, &spec);
        assert!(!regressed);
        // Traced records produce the per-layer delta list.
        let tb = parse_records(&result("paper_run", 1, 2, 3.0)).unwrap();
        let tn = parse_records(&result("paper_run", 1, 2, 6.0)).unwrap();
        let (text, _) = render(&tb, &tn, &spec);
        assert!(text.contains("per-layer deltas"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
    }
}
