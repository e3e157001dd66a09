//! Reading result files back: the A/A spread report the bounds are set
//! from, and the parent-versus-change comparison later changes state their
//! claims with.
//!
//! A result file is the concatenated standard output of benchmark runs: each
//! run prints a provenance line and then its result line.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// One run read back from a result file.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name from the provenance line.
    pub workload: String,
    /// Whether the run passed its correctness checks.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses every run in `text`, in file order.
pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let mut workload = None;
    let mut runs = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        if let Some(provenance) = value.get("provenance") {
            workload = provenance.get("workload").and_then(Json::as_str).map(str::to_string);
            continue;
        }
        let Some(metrics) = value.get("metrics").and_then(Json::as_object) else {
            continue;
        };
        let workload = workload
            .take()
            .ok_or_else(|| format!("line {}: result without a provenance line", number + 1))?;
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let v = m.get("value").and_then(Json::as_f64);
                v.map(|v| (name.clone(), v)).ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect::<Result<_, String>>()?;
        let correct = value.get("correct") == Some(&Json::Bool(true));
        runs.push(RunResult { workload, correct, metrics });
    }
    Ok(runs)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end metrics and their bounds from `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let spec = json::parse(text)?;
    let list = spec.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Values of `metric` over the runs of `workload`, in file order.
fn series(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn workloads(runs: &[RunResult]) -> Vec<String> {
    let mut names: Vec<String> = runs.iter().map(|r| r.workload.clone()).collect();
    names.sort();
    names.dedup();
    names
}

/// Median, quartiles and relative spread of one series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 - q1) / |median|`.
    pub spread: f64,
}

/// Summarises `values`; `None` with fewer than two values.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    let spread = if mid == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / mid.abs()
    };
    Some(Summary { n: values.len(), median: mid, q1, q3, spread })
}

/// The A/A spread report: per workload and end-to-end metric, the spread of
/// its values over the runs, and per metric the bound that spread implies.
pub fn spread_report(runs: &[RunResult], bounds: &[Bound]) -> String {
    let mut rows = Vec::new();
    let mut widest: BTreeMap<&str, f64> = BTreeMap::new();
    for workload in workloads(runs) {
        let mut cells = Vec::new();
        for b in bounds {
            let Some(s) = summarize(&series(runs, &workload, &b.name)) else { continue };
            let entry = widest.entry(&b.name).or_insert(0.0);
            *entry = entry.max(s.spread);
            cells.push(format!(
                "      {}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}}}",
                json::quote(&b.name),
                s.n,
                json::number(s.median),
                json::number(s.q1),
                json::number(s.q3),
                json::number(s.spread)
            ));
        }
        rows.push(format!("    {}: {{\n{}\n    }}", json::quote(&workload), cells.join(",\n")));
    }
    let implied = widest
        .iter()
        .map(|(name, spread)| {
            format!(
                "    {}: {{\"widest_spread\": {}, \"implied_bound\": {}}}",
                json::quote(name),
                json::number(*spread),
                json::number(implied_bound(*spread))
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"rule\": {},\n  \"spreads\": {{\n{}\n  }},\n  \"bounds\": {{\n{implied}\n  }}\n}}",
        json::quote(BOUND_RULE),
        rows.join(",\n")
    )
}

/// How a bound follows from the widest A/A spread of its metric.
pub const BOUND_RULE: &str = "bound = min(0.25, max(0.01, 3 x widest spread over workloads)), \
     rounded up to 0.01; spread = (q3 - q1) / median over runs with distinct seeds";

/// The bound [`BOUND_RULE`] gives for a widest spread.
pub fn implied_bound(spread: f64) -> f64 {
    ((3.0 * spread).max(0.01) * 100.0).ceil().min(25.0) / 100.0
}

/// The verdict on one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine tenths of the pairs and moved the median
    /// by more than the parent's own quartile spread.
    Improved,
    /// The change's median is within the bound of the parent's.
    Unchanged,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound, so the data cannot
    /// tell, and not every change run beat every parent run.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares change runs against parent runs of one metric. Runs pair up in
/// file order, so record them interleaved (parent, change, parent, ...).
pub fn verdict(parent: &[f64], change: &[f64], bound: &Bound) -> Option<(Verdict, f64)> {
    let p = summarize(parent)?;
    let c = summarize(change)?;
    let better = |a: f64, b: f64| if bound.higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let won = wins as f64 / pairs.max(1) as f64;
    let moved = (c.median - p.median).abs() > p.q3 - p.q1;
    let worse_by = if bound.higher_is_better { p.median - c.median } else { c.median - p.median }
        / p.median.abs().max(f64::MIN_POSITIVE);
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if won >= 0.9 && moved && better(c.median, p.median) {
        Verdict::Improved
    } else if p.spread > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some((verdict, won))
}

/// The comparison table for every workload and end-to-end metric.
pub fn compare_report(parent: &[RunResult], change: &[RunResult], bounds: &[Bound]) -> String {
    let mut out = format!(
        "{:<13} {:<14} {:>13} {:>25} {:>13} {:>25} {:>6} {}\n",
        "workload",
        "metric",
        "parent_med",
        "parent_q1..q3",
        "change_med",
        "change_q1..q3",
        "won",
        "verdict"
    );
    for workload in workloads(parent) {
        let incorrect = parent.iter().chain(change).any(|r| r.workload == workload && !r.correct);
        for b in bounds {
            let p = series(parent, &workload, &b.name);
            let c = series(change, &workload, &b.name);
            let (Some(ps), Some(cs), Some((verdict, won))) =
                (summarize(&p), summarize(&c), verdict(&p, &c, b))
            else {
                continue;
            };
            out.push_str(&format!(
                "{:<13} {:<14} {:>13.6} {:>12.6}..{:<12.6} {:>13.6} {:>12.6}..{:<12.6} {:>6.2} {}{}\n",
                workload,
                b.name,
                ps.median,
                ps.q1,
                ps.q3,
                cs.median,
                cs.q1,
                cs.q3,
                won,
                verdict.name(),
                if incorrect { " (a run failed its correctness check)" } else { "" }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, bound: f64) -> Bound {
        Bound { name: "m".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn verdicts_follow_the_pairs_and_bounds() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let b = bound(true, 0.1);
        assert_eq!(verdict(&parent, &faster, &b).map(|v| v.0), Some(Verdict::Improved));
        assert_eq!(verdict(&parent, &slower, &b).map(|v| v.0), Some(Verdict::Regressed));
        assert_eq!(verdict(&parent, &same, &b).map(|v| v.0), Some(Verdict::Unchanged));
        // A parent spread wider than the bound cannot resolve a small shift.
        let noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 0.97).collect();
        assert_eq!(verdict(&noisy, &shifted, &b).map(|v| v.0), Some(Verdict::Unresolved));
    }

    #[test]
    fn implied_bounds_round_up_and_clamp() {
        assert_eq!(implied_bound(0.0), 0.01);
        assert_eq!(implied_bound(0.021), 0.07);
        assert_eq!(implied_bound(0.5), 0.25);
    }
}
