//! The metric catalogue and the run that produces it: end-to-end metrics
//! from untraced passes, per-layer metrics from traced ones.

use std::time::Duration;

use netshed_monitor::RunDigest;
use netshed_queries::QueryKind;

use crate::json;
use crate::probe::{Probes, SpanKind};
use crate::run::{self, Pass};
use crate::stats::{median, percentile};
use crate::verify::{self, Verification};
use crate::workload::{Input, Workload};

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better }
}

/// The end-to-end metrics, as `--trace 0` prints them.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("pkts_per_s", "packets/s", "higher"),
        def("bin_p50_us", "us", "lower"),
        def("bin_p99_us", "us", "lower"),
        def("accuracy_mean", "ratio", "higher"),
        def("accuracy_min", "ratio", "higher"),
        def("captured_frac", "ratio", "higher"),
        def("overrun_p99", "ratio", "lower"),
        def("ok_frac", "ratio", "higher"),
        def("setup_s", "s", "lower"),
        def("heap_peak_mb", "MiB", "lower"),
    ]
}

/// Query kinds whose per-packet cost the traced run reports: every kind any
/// workload registers.
pub const PROBED_KINDS: [QueryKind; 4] = crate::workload::TENANT_KINDS;

/// The per-layer metrics, as `--trace 1` prints them.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("trace.decode_us_per_bin", "us", "lower"),
        def("trace.decode_bytes_per_bin", "bytes", "lower"),
        def("trace.shed_us_per_bin", "us", "lower"),
        def("trace.split_us_per_bin", "us", "lower"),
        def("features.extract_us_per_bin", "us", "lower"),
        def("predict.predict_us_per_query", "us", "lower"),
        def("predict.observe_us_per_query", "us", "lower"),
        def("predict.err_p50", "ratio", "lower"),
        def("fairness.alloc_us_per_bin", "us", "lower"),
    ];
    for kind in PROBED_KINDS {
        defs.push(def(&format!("queries.{}.ns_per_pkt", kind.name()), "ns", "lower"));
    }
    defs.extend([
        def("queries.cycles_share", "ratio", "higher"),
        def("monitor.process_us_per_bin", "us", "lower"),
        def("monitor.unattributed_share", "ratio", "lower"),
        def("monitor.allocs_per_bin", "count", "lower"),
        def("monitor.alloc_bytes_per_bin", "bytes", "lower"),
        def("monitor.sampling_rate_mean", "ratio", "higher"),
        def("monitor.delivered_frac", "ratio", "higher"),
        def("monitor.overload_bins_frac", "ratio", "lower"),
        def("monitor.overrun_mean", "ratio", "lower"),
        def("monitor.prediction_cycles_share", "ratio", "lower"),
        def("monitor.shedding_cycles_share", "ratio", "lower"),
        def("monitor.exec.seq_us_per_bin", "us", "lower"),
        def("monitor.exec.task_us_per_bin", "us", "lower"),
        def("monitor.exec.parallel_fraction", "ratio", "higher"),
        def("monitor.sharded.process_us_per_bin", "us", "lower"),
        def("monitor.sharded.lane_budget_skew", "ratio", "lower"),
        def("service.tick_us", "us", "lower"),
        def("service.ctl_apply_us", "us", "lower"),
        def("service.ckpt_ms", "ms", "lower"),
        def("service.ckpt_bytes", "bytes", "lower"),
        def("service.restore_ms", "ms", "lower"),
        def("traced.coverage", "ratio", "higher"),
        def("traced.overhead", "ratio", "lower"),
    ]);
    defs
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated input.
    pub seed: u64,
    /// How long to keep repeating passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Bins per pass (`None`: the workload's default).
    pub bins: Option<usize>,
}

/// The outcome of a run: the result line's fields plus provenance.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every pass reproduced the verification digest (and, for
    /// `tenant-churn`, every restore finished on the uninterrupted digest).
    pub correct: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// System calls and control commands attempted.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// Metric values in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Provenance as JSON members (`"key": value` pairs, value pre-encoded).
    pub provenance: Vec<(String, String)>,
}

/// Set-up samples a run takes at least, for a steady median.
const SETUP_SAMPLES: usize = 41;
/// Share of a run's time spent taking set-up samples between passes.
const SETUP_SHARE: f64 = 0.03;
/// Seconds one set-up sample should last at least.
const SETUP_SAMPLE_S: f64 = 0.002;

/// Runs the benchmark.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let bins = args.bins.unwrap_or(crate::workload::BINS);
    let input = Input::generate(workload, args.seed, bins)?;
    let verification = verify::verify(&input)?;
    let budget = Duration::from_secs_f64(args.seconds);

    // Every pass, traced or not, is checked for correctness.
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut setups = Vec::new();
    if args.trace {
        // Alternate untraced and traced passes so both see the same
        // conditions; the untraced ones are the overhead baseline.
        let start = std::time::Instant::now();
        loop {
            let pass = run::pass(&input, None)?;
            untraced_walls.push(pass.wall_s);
            passes.push(pass);
            let reader = netshed_trace::SharedTraceReader::new(input.container.clone())
                .map_err(|e| e.to_string())?;
            let config = input.config();
            let mut probes =
                Probes::new(&verification, reader, run::probe_lanes(workload), &config);
            let pass = run::pass(&input, Some(&mut probes))?;
            traced.push(layer_metrics(&input, &verification, &pass, &probes));
            passes.push(pass);
            if start.elapsed() >= budget {
                break;
            }
        }
    } else {
        // Set-up samples are taken between passes in proportion to the time
        // run so far, so their median sees the same mix of host conditions
        // as the passes do.
        let first = run::time_setup(&input, 1)?;
        let k = ((SETUP_SAMPLE_S / first).ceil() as usize).clamp(1, 256);
        let start = std::time::Instant::now();
        let mut sampling = Duration::ZERO;
        loop {
            passes.push(run::pass(&input, None)?);
            while sampling.as_secs_f64() < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let sample = std::time::Instant::now();
                setups.push(run::time_setup(&input, k)?);
                sampling += sample.elapsed();
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        while setups.len() < SETUP_SAMPLES {
            setups.push(run::time_setup(&input, k)?);
        }
    }

    let problems = check(workload, &verification.digest, &passes);
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let (metrics, samples) = if args.trace {
        let untraced_wall = median(&untraced_walls);
        let metrics = per_layer()
            .into_iter()
            .map(|d| {
                let values: Vec<f64> = traced
                    .iter()
                    .map(|(m, wall): &(Vec<(String, f64)>, f64)| {
                        if d.name == "traced.overhead" {
                            wall / untraced_wall - 1.0
                        } else {
                            m.iter().find(|(n, _)| *n == d.name).map_or(0.0, |(_, v)| *v)
                        }
                    })
                    .collect();
                (d, median(&values))
            })
            .collect();
        (metrics, vec![("traced_passes".to_string(), traced.len())])
    } else {
        // Every pass repeats the same deterministic work bin for bin, and
        // host contention only ever adds time. So each bin is timed by its
        // fastest repeat over the run's passes (the min-of-repeats rule of
        // `timeit`), and the percentiles and the throughput are taken over
        // those per-bin times. Memory contention from other tenants of a
        // shared host comes in spells of a second to a minute: a mean over
        // the run keeps whatever share of it the run happened to meet, while
        // a bin's fastest repeat needs one uncontended moment.
        let bins_per_pass = passes.iter().map(|p| p.call_ns.len()).min().unwrap_or(0);
        let fastest = |times: fn(&Pass) -> &[u64]| -> Vec<f64> {
            (0..bins_per_pass)
                .map(|i| passes.iter().map(|p| times(p)[i]).min().unwrap_or(0) as f64)
                .collect()
        };
        let call_us: Vec<f64> =
            fastest(|p| p.call_ns.as_slice()).iter().map(|ns| ns / 1e3).collect();
        let loop_s = fastest(|p| p.step_ns.as_slice()).iter().sum::<f64>() / 1e9;
        let heaps: Vec<f64> =
            passes.iter().map(|p| p.heap_peak_bytes as f64 / (1024.0 * 1024.0)).collect();
        let values = [
            input.packets as f64 / loop_s,
            percentile(&call_us, 50.0),
            percentile(&call_us, 99.0),
            verification.accuracy_mean(),
            verification.accuracy_min(),
            verification.captured_frac(),
            verification.overrun_p99(),
            1.0 - failed as f64 / (attempted as f64).max(1.0),
            median(&setups),
            median(&heaps),
        ];
        let samples = vec![
            ("repeats_per_bin".to_string(), passes.len()),
            ("bin_samples".to_string(), bins_per_pass),
            ("bin_p99_beyond".to_string(), bins_per_pass / 100),
            ("setup_s".to_string(), setups.len()),
            ("heap_peak_mb".to_string(), heaps.len()),
            ("accuracy_intervals".to_string(), verification.records.len()),
        ];
        (end_to_end().into_iter().zip(values).collect(), samples)
    };

    let provenance = provenance(args, &input, bins, passes.len(), &samples);
    Ok(Outcome { correct: problems.is_empty(), problems, attempted, failed, metrics, provenance })
}

/// The correctness checks of a run: every pass finished on `expected`, and
/// on `tenant-churn` every pass restored its last checkpoint and finished on
/// its own digest again. Returns one line per failed check.
pub fn check(workload: Workload, expected: &RunDigest, passes: &[Pass]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        if pass.digest != *expected {
            problems.push(format!(
                "pass {i}: digest {} differs from the verification pass's {expected}",
                pass.digest
            ));
        }
        match &pass.restored {
            Some(restored) if *restored != pass.digest => problems.push(format!(
                "pass {i}: restored daemon finished on {restored}, not {}",
                pass.digest
            )),
            None if workload == Workload::TenantChurn => {
                problems.push(format!("pass {i}: took no checkpoint to restore"));
            }
            _ => {}
        }
    }
    problems
}

fn provenance(
    args: &Args,
    input: &Input,
    bins: usize,
    passes: usize,
    samples: &[(String, usize)],
) -> Vec<(String, String)> {
    let samples = samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json::quote(name)))
        .collect::<Vec<_>>()
        .join(", ");
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("workload".into(), json::quote(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json::number(args.seconds)),
        ("bins_per_pass".into(), bins.to_string()),
        ("passes".into(), passes.to_string()),
        ("packets_per_pass".into(), input.packets.to_string()),
        ("capacity_cycles_per_bin".into(), json::number(input.capacity)),
        ("trace".into(), args.trace.to_string()),
        ("loop".into(), json::quote("closed, 1 driver thread")),
        ("system_threads".into(), "1".to_string()),
        ("samples".into(), format!("{{{samples}}}")),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), json::quote(&command_line("rustc", &["--version"]))),
        ("commit".into(), json::quote(&command_line("git", &["rev-parse", "HEAD"]))),
    ]
}

/// First line of a tool's output, or `"unknown"` when it cannot run (the
/// benchmark may run from a checkout that is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The per-layer metrics of one traced pass, and its loop wall time.
fn layer_metrics(
    input: &Input,
    verification: &Verification,
    pass: &Pass,
    probes: &Probes<'_>,
) -> (Vec<(String, f64)>, f64) {
    let workload = input.workload;
    let totals = probes.tracer.totals();
    let bins = pass.call_ns.len().max(1) as f64;
    let total = |kind: SpanKind| {
        totals
            .get(&kind)
            .map_or((0.0, 0.0, 0.0), |&(ns, n, items)| (ns as f64, n as f64, items as f64))
    };
    let us_per_bin = |kind| total(kind).0 / bins / 1e3;
    let us_per_span = |kind| {
        let (ns, n, _) = total(kind);
        ns / n.max(1.0) / 1e3
    };
    let call_ns = total(SpanKind::Call).0;
    let probed = [
        SpanKind::Shed,
        SpanKind::Extract,
        SpanKind::Predict,
        SpanKind::Observe,
        SpanKind::Allocate,
    ];
    let mut attributed = probed.into_iter().map(|k| total(k).0).sum::<f64>();
    attributed += PROBED_KINDS.iter().map(|k| total(SpanKind::Query(k.name())).0).sum::<f64>();
    match workload {
        // The fleet splits inside its call; the daemon decodes inside its tick.
        Workload::FleetFlood => attributed += total(SpanKind::Split).0,
        Workload::TenantChurn => attributed += total(SpanKind::Decode).0,
        _ => {}
    }
    let covered: f64 =
        totals.iter().filter(|(k, _)| **k != SpanKind::Bin).map(|(_, t)| t.0 as f64).sum();
    let exec_bins = pass.exec.bins.max(1) as f64;
    let only = |w: Workload, value: f64| if workload == w { value } else { 0.0 };
    let mean = |values: &[u64]| values.iter().sum::<u64>() as f64 / values.len().max(1) as f64;

    let mut m: Vec<(String, f64)> = vec![
        ("trace.decode_us_per_bin".into(), us_per_bin(SpanKind::Decode)),
        ("trace.decode_bytes_per_bin".into(), input.container.len() as f64 / bins),
        ("trace.shed_us_per_bin".into(), us_per_bin(SpanKind::Shed)),
        ("trace.split_us_per_bin".into(), us_per_bin(SpanKind::Split)),
        ("features.extract_us_per_bin".into(), us_per_bin(SpanKind::Extract)),
        ("predict.predict_us_per_query".into(), us_per_span(SpanKind::Predict)),
        ("predict.observe_us_per_query".into(), us_per_span(SpanKind::Observe)),
        ("predict.err_p50".into(), verification.prediction_err_p50()),
        ("fairness.alloc_us_per_bin".into(), us_per_bin(SpanKind::Allocate)),
    ];
    for kind in PROBED_KINDS {
        let (ns, _, packets) = total(SpanKind::Query(kind.name()));
        let value = if packets > 0.0 { ns / packets } else { 0.0 };
        m.push((format!("queries.{}.ns_per_pkt", kind.name()), value));
    }
    m.extend([
        ("queries.cycles_share".into(), verification.cycles_share(|r| r.query_cycles)),
        ("monitor.process_us_per_bin".into(), call_ns / bins / 1e3),
        ("monitor.unattributed_share".into(), 1.0 - attributed / call_ns),
        ("monitor.allocs_per_bin".into(), pass.call_allocs as f64 / bins),
        ("monitor.alloc_bytes_per_bin".into(), pass.call_alloc_bytes as f64 / bins),
        ("monitor.sampling_rate_mean".into(), verification.sampling_rate_mean()),
        ("monitor.delivered_frac".into(), verification.delivered_frac()),
        ("monitor.overload_bins_frac".into(), verification.overload_bins_frac()),
        ("monitor.overrun_mean".into(), verification.overrun_mean()),
        (
            "monitor.prediction_cycles_share".into(),
            verification.cycles_share(|r| r.prediction_cycles),
        ),
        ("monitor.shedding_cycles_share".into(), verification.cycles_share(|r| r.shedding_cycles)),
        ("monitor.exec.seq_us_per_bin".into(), pass.exec.sequential_ns as f64 / exec_bins / 1e3),
        ("monitor.exec.task_us_per_bin".into(), pass.exec.task_ns as f64 / exec_bins / 1e3),
        ("monitor.exec.parallel_fraction".into(), pass.exec.parallel_fraction()),
        (
            "monitor.sharded.process_us_per_bin".into(),
            only(Workload::FleetFlood, call_ns / bins / 1e3),
        ),
        (
            "monitor.sharded.lane_budget_skew".into(),
            only(Workload::FleetFlood, pass.lane_budget_skew),
        ),
        ("service.tick_us".into(), only(Workload::TenantChurn, call_ns / bins / 1e3)),
        ("service.ctl_apply_us".into(), mean(&probes.ctl_apply_ns) / 1e3),
        ("service.ckpt_ms".into(), us_per_span(SpanKind::Checkpoint) / 1e3),
        ("service.ckpt_bytes".into(), mean(&probes.checkpoint_bytes)),
        ("service.restore_ms".into(), mean(&probes.restore_ns) / 1e6),
        ("traced.coverage".into(), covered / (pass.wall_s * 1e9)),
    ]);
    (m, pass.wall_s)
}

/// The provenance line printed before the result.
pub fn provenance_line(outcome: &Outcome) -> String {
    let members = outcome
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"provenance\": {{{members}}}}}")
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&d.name),
                json::number(*v),
                json::quote(d.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}
