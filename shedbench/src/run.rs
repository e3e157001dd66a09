//! Timed and traced passes over a workload's input, and the run that repeats
//! them for the requested time and turns them into metrics.
//!
//! A pass is one closed loop over the whole input: a single driver thread
//! hands the system the next bin only when the previous call returned. Set-up
//! (open the reader, build the system, register the initial queries) is
//! timed separately from the loop.

use std::time::Instant;

use netshed_monitor::{
    DigestObserver, ExecStats, Monitor, QueryId, RunDigest, RunObserver, ShardedMonitor,
    DEFAULT_SHARD_LANES,
};
use netshed_service::{ControlChannel, Daemon, MonitorEngine, Pending, TickStatus};
use netshed_trace::{PacketSource, SharedTraceReader};

use crate::alloc;
use crate::probe::{Probes, SpanKind};
use crate::workload::{ChurnDriver, Command, Input, Workload};

/// The system under test, set up and ready for bin 0.
enum System {
    Solo(Monitor, SharedTraceReader),
    Fleet(ShardedMonitor, SharedTraceReader),
    Daemon(Daemon<SharedTraceReader>, ControlChannel, ChurnDriver),
}

fn setup(input: &Input) -> Result<System, String> {
    let workload = input.workload;
    let reader = SharedTraceReader::new(input.container.clone()).map_err(|e| e.to_string())?;
    Ok(match workload {
        Workload::HeaderFlood => System::Solo(input.monitor()?, reader),
        Workload::FleetFlood => System::Fleet(input.fleet()?, reader),
        Workload::TenantChurn => {
            let monitor = input.monitor()?;
            let driver = ChurnDriver::new(monitor.query_handles());
            let (daemon, control) = Daemon::new(monitor, reader);
            System::Daemon(daemon.with_bins_per_tick(1), control, driver)
        }
    })
}

/// Times `k` back-to-back set-ups of `input`'s system, all kept alive until
/// the clock stops; returns seconds per set-up.
pub fn time_setup(input: &Input, k: usize) -> Result<f64, String> {
    let mut systems = Vec::with_capacity(k);
    let start = Instant::now();
    for _ in 0..k {
        systems.push(setup(input)?);
    }
    let seconds = start.elapsed().as_secs_f64() / k as f64;
    drop(systems);
    Ok(seconds)
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the closed loop in seconds.
    pub wall_s: f64,
    /// Nanoseconds of each per-bin system call.
    pub call_ns: Vec<u64>,
    /// Nanoseconds of each bin's whole step: reading the bin (or sending its
    /// control commands), the system call, and collecting command replies.
    pub step_ns: Vec<u64>,
    /// System calls and control commands attempted.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// The digest the pass finished on.
    pub digest: RunDigest,
    /// For `tenant-churn`: the digest a daemon restored from the last
    /// checkpoint finished on.
    pub restored: Option<RunDigest>,
    /// Peak live heap during set-up and the loop, above what was live before.
    pub heap_peak_bytes: usize,
    /// Allocations made inside the system calls.
    pub call_allocs: u64,
    /// Bytes those allocations requested.
    pub call_alloc_bytes: u64,
    /// The system's execution-plane telemetry at the end of the loop.
    pub exec: ExecStats,
    /// Mean over bins of max ÷ min lane budget (fleet only, else 0).
    pub lane_budget_skew: f64,
}

/// Per-pass counters the loops fill in.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    call_allocs: u64,
    call_alloc_bytes: u64,
    call_ns: Vec<u64>,
    step_ns: Vec<u64>,
    skew_sum: f64,
}

impl Counts {
    /// Times one system call, counting its allocations and outcome.
    fn call<T, E>(
        &mut self,
        probes: &mut Option<&mut Probes<'_>>,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let before = alloc::snapshot();
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        let after = alloc::snapshot();
        if let Some(probes) = probes.as_deref_mut() {
            probes.tracer.record(SpanKind::Call, start, 0);
        }
        self.call_ns.push(ns);
        self.call_allocs += after.allocs - before.allocs;
        self.call_alloc_bytes += after.bytes - before.bytes;
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result.ok()
    }
}

/// Runs one pass over `input`. With `probes`, the pass is traced: spans
/// around every call and the layer probes after each bin.
pub fn pass(input: &Input, mut probes: Option<&mut Probes<'_>>) -> Result<Pass, String> {
    let baseline = alloc::live_bytes();
    alloc::reset_peak();
    let system = setup(input)?;

    let mut counts = Counts {
        call_ns: Vec::with_capacity(input.bins as usize),
        step_ns: Vec::with_capacity(input.bins as usize),
        ..Counts::default()
    };
    let loop_start = Instant::now();
    let mut last_checkpoint = None;
    let (digest, exec) = match system {
        System::Solo(mut monitor, mut reader) => {
            let digest =
                drive_engine(&mut monitor, &mut reader, &mut counts, &mut probes, |_| 0.0)?;
            (digest, monitor.exec_stats())
        }
        System::Fleet(mut fleet, mut reader) => {
            let skew = |fleet: &ShardedMonitor| {
                let budgets = fleet.lane_capacities();
                let max = budgets.iter().copied().fold(0.0, f64::max);
                max / budgets.iter().copied().fold(f64::INFINITY, f64::min)
            };
            let digest = drive_engine(&mut fleet, &mut reader, &mut counts, &mut probes, skew)?;
            (digest, fleet.exec_stats())
        }
        System::Daemon(mut daemon, control, mut driver) => {
            last_checkpoint = drive_daemon(
                &mut daemon,
                &control,
                &mut driver,
                0,
                input.bins,
                &mut counts,
                &mut probes,
            );
            (daemon.digest(), daemon.monitor().exec_stats())
        }
    };
    let wall_s = loop_start.elapsed().as_secs_f64();
    let heap_peak_bytes = alloc::peak_bytes().saturating_sub(baseline);

    let restored = match last_checkpoint {
        Some(checkpoint) => Some(restore(input, checkpoint, probes)?),
        None => None,
    };
    let bins = counts.call_ns.len().max(1) as f64;
    Ok(Pass {
        wall_s,
        step_ns: counts.step_ns,
        attempted: counts.attempted,
        failed: counts.failed,
        digest,
        restored,
        heap_peak_bytes,
        call_allocs: counts.call_allocs,
        call_alloc_bytes: counts.call_alloc_bytes,
        exec,
        lane_budget_skew: counts.skew_sum / bins,
        call_ns: counts.call_ns,
    })
}

/// Reads the next non-empty bin, spanned as [`SpanKind::Decode`] when traced.
fn next_bin(
    reader: &mut SharedTraceReader,
    probes: &mut Option<&mut Probes<'_>>,
) -> Option<netshed_trace::Batch> {
    loop {
        let start = Instant::now();
        let batch = reader.next_batch()?;
        if let Some(probes) = probes.as_deref_mut() {
            probes.tracer.record(SpanKind::Decode, start, 0);
        }
        if !batch.is_empty() {
            return Some(batch);
        }
    }
}

/// Drives a solo monitor or a fleet over the reader. `lane_skew` reads the
/// engine's lane budget skew after each bin (0 for a solo monitor).
fn drive_engine<M: MonitorEngine>(
    engine: &mut M,
    reader: &mut SharedTraceReader,
    counts: &mut Counts,
    probes: &mut Option<&mut Probes<'_>>,
    lane_skew: impl Fn(&M) -> f64,
) -> Result<RunDigest, String> {
    let mut digest = DigestObserver::new();
    let mut position = 0;
    let mut bin_start = probes.as_deref_mut().map(|p| p.tracer.begin_bin(0));
    loop {
        let step = Instant::now();
        let Some(batch) = next_bin(reader, probes) else { break };
        counts.call(probes, || engine.ingest(&batch, &mut digest));
        counts.step_ns.push(step.elapsed().as_nanos() as u64);
        counts.skew_sum += lane_skew(engine);
        if let Some(probes) = probes.as_deref_mut() {
            if let Some(fresh) = probes.decode(false) {
                probes.probe_bin(position, &fresh, crate::workload::POLICY);
            }
        }
        position += 1;
        bin_start = next_root(probes, bin_start, position);
    }
    close_root(probes, bin_start);
    if engine.interval_open() {
        digest.on_interval(&engine.finish_interval());
    }
    if let Some(error) = reader.error() {
        return Err(format!("decode: {error}"));
    }
    Ok(digest.digest())
}

/// Closes the current bin's root span and opens the next one.
fn next_root(
    probes: &mut Option<&mut Probes<'_>>,
    open: Option<Instant>,
    position: u64,
) -> Option<Instant> {
    close_root(probes, open);
    Some(probes.as_deref_mut()?.tracer.begin_bin(position))
}

fn close_root(probes: &mut Option<&mut Probes<'_>>, open: Option<Instant>) {
    if let (Some(probes), Some(start)) = (probes.as_deref_mut(), open) {
        probes.tracer.end_bin(start);
    }
}

/// A checkpoint the daemon answered, with the schedule to resume from.
struct Checkpoint {
    bytes: Vec<u8>,
    driver: ChurnDriver,
    position: u64,
}

enum Reply {
    Registered(Pending<QueryId>),
    Done(Pending<()>),
    Swapped(Pending<String>),
    Checkpointed(Pending<Vec<u8>>, ChurnDriver),
}

/// Drives a daemon over the schedule from bin position `from` until its
/// source is exhausted; returns the last checkpoint it answered.
fn drive_daemon(
    daemon: &mut Daemon<SharedTraceReader>,
    control: &ControlChannel,
    driver: &mut ChurnDriver,
    from: u64,
    bins: u64,
    counts: &mut Counts,
    probes: &mut Option<&mut Probes<'_>>,
) -> Option<Checkpoint> {
    let mut last_checkpoint = None;
    let mut replies: Vec<(Reply, Instant)> = Vec::new();
    let mut position = from;
    loop {
        let bin_start = probes.as_deref_mut().map(|p| p.tracer.begin_bin(position));
        let step = Instant::now();
        if position < bins {
            for command in driver.commands(position) {
                let sent = Instant::now();
                let reply = match command {
                    Command::Checkpoint(resume) => {
                        if let Some(probes) = probes.as_deref_mut() {
                            // The direct call answers from the same state the
                            // queued command will (nothing runs in between).
                            let start = Instant::now();
                            let bytes = daemon.checkpoint();
                            probes.tracer.record(SpanKind::Checkpoint, start, 0);
                            if let Ok(bytes) = bytes {
                                probes.checkpoint_bytes.push(bytes.len() as u64);
                            }
                        }
                        Reply::Checkpointed(control.checkpoint(), *resume)
                    }
                    Command::Deregister(id) => Reply::Done(control.deregister_query(id)),
                    Command::Register(spec) => Reply::Registered(control.register_query(spec)),
                    Command::Swap(strategy) => Reply::Swapped(control.swap_policy(strategy)),
                };
                replies.push((reply, sent));
            }
        }
        let fresh = probes.as_deref_mut().and_then(|p| p.decode(true));
        let status = counts.call(probes, || daemon.tick());
        for (reply, sent) in replies.drain(..) {
            counts.attempted += 1;
            let answered = match reply {
                Reply::Registered(pending) => {
                    pending.poll().map(|r| r.map(|id| driver.registered(id)))
                }
                Reply::Done(pending) => pending.poll(),
                Reply::Swapped(pending) => pending.poll().map(|r| r.map(drop)),
                Reply::Checkpointed(pending, resume) => pending.poll().map(|r| {
                    r.map(|bytes| {
                        last_checkpoint = Some(Checkpoint { bytes, driver: resume, position });
                    })
                }),
            };
            match answered {
                Some(Ok(())) => {
                    if let Some(probes) = probes.as_deref_mut() {
                        probes.ctl_apply_ns.push(sent.elapsed().as_nanos() as u64);
                    }
                }
                _ => counts.failed += 1,
            }
        }
        match status {
            Some(TickStatus::Progressed { .. }) => {
                counts.step_ns.push(step.elapsed().as_nanos() as u64);
                if let (Some(probes), Some(fresh)) = (probes.as_deref_mut(), fresh) {
                    probes.probe_bin(position, &fresh, driver.policy());
                }
                position += 1;
            }
            // The last tick found the source exhausted and flushed the open
            // interval: it was a call, but not a bin.
            Some(_) => {
                counts.call_ns.pop();
                close_root(probes, bin_start);
                return last_checkpoint;
            }
            None => return last_checkpoint,
        }
        close_root(probes, bin_start);
    }
}

/// Restores a daemon from `checkpoint` over a fresh reader and replays the
/// rest of the schedule; returns the digest it finished on.
fn restore(
    input: &Input,
    checkpoint: Checkpoint,
    probes: Option<&mut Probes<'_>>,
) -> Result<RunDigest, String> {
    let reader = SharedTraceReader::new(input.container.clone()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (daemon, control) = Daemon::restore(input.config(), reader, &checkpoint.bytes)
        .map_err(|e| format!("restore: {e}"))?;
    if let Some(probes) = probes {
        probes.restore_ns.push(start.elapsed().as_nanos() as u64);
    }
    let mut daemon = daemon.with_bins_per_tick(1);
    let mut driver = checkpoint.driver;
    let mut counts = Counts::default();
    drive_daemon(
        &mut daemon,
        &control,
        &mut driver,
        checkpoint.position,
        input.bins,
        &mut counts,
        &mut None,
    );
    if counts.failed > 0 {
        return Err(format!("{} commands or ticks failed after the restore", counts.failed));
    }
    Ok(daemon.digest())
}

/// Lanes a probe run must mirror for `workload`.
pub fn probe_lanes(workload: Workload) -> usize {
    match workload {
        Workload::FleetFlood => DEFAULT_SHARD_LANES,
        _ => 1,
    }
}
