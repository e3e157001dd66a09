//! The untimed verification pass: one run of the workload at 1 worker and 1
//! shard thread, recording the digest every timed pass must reproduce, the
//! per-bin records the traced probes replay, and accuracy against an
//! unconstrained reference execution.

use std::collections::BTreeMap;

use netshed_monitor::{
    BinRecord, ControlDecision, DigestObserver, ReferenceRunner, RunDigest, RunObserver, RunSummary,
};
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_service::MonitorEngine;
use netshed_trace::{Batch, PacketSource, SharedTraceReader};

use crate::workload::{ChurnDriver, Command, Input, Workload};

/// What the verification pass established.
pub struct Verification {
    /// The digest every timed pass must reproduce.
    pub digest: RunDigest,
    /// Per non-empty bin, the bin records (one per fleet lane that saw
    /// traffic; exactly one for a solo monitor).
    pub records: Vec<Vec<BinRecord>>,
    /// Mean accuracy of each query that stayed registered for the whole
    /// run, by label.
    pub accuracy: BTreeMap<String, f64>,
    /// Every query registered during the run, by label.
    pub specs: BTreeMap<String, QuerySpec>,
    /// The configured capacity the records are judged against.
    pub capacity: f64,
}

/// Per-query accuracy against a [`ReferenceRunner`], paired by label so
/// queries that come and go (and are absent from the reference) are skipped.
struct LabelAccuracy {
    reference: ReferenceRunner,
    pending: Option<Vec<(String, QueryOutput)>>,
    sums: BTreeMap<String, (f64, u64)>,
}

impl RunObserver for LabelAccuracy {
    fn on_batch(&mut self, batch: &Batch) {
        if let Some(truths) = self.reference.process_batch(batch) {
            self.pending = Some(truths);
        }
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        // Mid-run intervals pair with the truth the reference closed on the
        // same batch; the final flush closes the reference's last interval.
        let truths = self.pending.take().unwrap_or_else(|| self.reference.finish_interval());
        for (label, truth) in &truths {
            if let Some((_, output)) = outputs.iter().find(|(name, _)| name == label) {
                let entry = self.sums.entry(label.clone()).or_insert((0.0, 0));
                entry.0 += 1.0 - output.error_against(truth);
                entry.1 += 1;
            }
        }
    }
}

struct Recorder {
    digest: DigestObserver,
    accuracy: LabelAccuracy,
    records: Vec<Vec<BinRecord>>,
}

impl RunObserver for Recorder {
    fn on_batch(&mut self, batch: &Batch) {
        self.digest.on_batch(batch);
        self.accuracy.on_batch(batch);
        self.records.push(Vec::new());
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.digest.on_decision(bin_index, decision);
    }

    fn on_bin(&mut self, record: &BinRecord) {
        self.digest.on_bin(record);
        if let Some(bin) = self.records.last_mut() {
            bin.push(record.clone());
        }
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.digest.on_interval(outputs);
        self.accuracy.on_interval(outputs);
    }

    fn on_end(&mut self, summary: &RunSummary) {
        self.digest.on_end(summary);
    }
}

/// Runs the verification pass of `input`.
pub fn verify(input: &Input) -> Result<Verification, String> {
    let initial = input.workload.initial_specs();
    let stable: Vec<QuerySpec> = initial
        .iter()
        .filter(|spec| !spec.resolved_label().starts_with("churn"))
        .cloned()
        .collect();
    let mut specs: BTreeMap<String, QuerySpec> =
        initial.into_iter().map(|spec| (spec.resolved_label(), spec)).collect();
    let config = input.config();
    let mut recorder = Recorder {
        digest: DigestObserver::new(),
        accuracy: LabelAccuracy {
            reference: ReferenceRunner::new(&stable, config.measurement_interval_us),
            pending: None,
            sums: BTreeMap::new(),
        },
        records: Vec::new(),
    };
    let mut reader = SharedTraceReader::new(input.container.clone()).map_err(|e| e.to_string())?;
    match input.workload {
        Workload::HeaderFlood => {
            input.monitor()?.run(&mut reader, &mut recorder).map_err(|e| e.to_string())?;
        }
        Workload::FleetFlood => {
            input.fleet()?.run(&mut reader, &mut recorder).map_err(|e| e.to_string())?;
        }
        Workload::TenantChurn => {
            // The same schedule the daemon replays, applied directly to a
            // monitor at the same bin boundaries.
            let mut monitor = input.monitor()?;
            let mut driver = ChurnDriver::new(monitor.query_handles());
            let mut position = 0;
            while let Some(batch) = reader.next_batch() {
                if batch.is_empty() {
                    continue;
                }
                for command in driver.commands(position) {
                    match command {
                        Command::Checkpoint(_) => {}
                        Command::Deregister(id) => {
                            monitor.deregister(id).map_err(|e| e.to_string())?;
                        }
                        Command::Register(spec) => {
                            let id = monitor.register(&spec).map_err(|e| e.to_string())?;
                            driver.registered(id);
                            specs.insert(spec.resolved_label(), spec);
                        }
                        Command::Swap(strategy) => {
                            MonitorEngine::set_strategy(&mut monitor, strategy)
                        }
                    }
                }
                MonitorEngine::ingest(&mut monitor, &batch, &mut recorder)
                    .map_err(|e| e.to_string())?;
                position += 1;
            }
            if monitor.interval_open() {
                recorder.on_interval(&monitor.finish_interval());
            }
        }
    }
    if let Some(error) = reader.error() {
        return Err(format!("verification decode: {error}"));
    }
    let accuracy = recorder
        .accuracy
        .sums
        .into_iter()
        .map(|(label, (sum, n))| (label, sum / n.max(1) as f64))
        .collect();
    Ok(Verification {
        digest: recorder.digest.digest(),
        records: recorder.records,
        accuracy,
        specs,
        capacity: input.capacity,
    })
}

impl Verification {
    fn lane_records(&self) -> impl Iterator<Item = &BinRecord> {
        self.records.iter().flatten()
    }

    /// Mean over queries of their mean accuracy.
    pub fn accuracy_mean(&self) -> f64 {
        self.accuracy.values().sum::<f64>() / self.accuracy.len().max(1) as f64
    }

    /// The worst query's mean accuracy.
    pub fn accuracy_min(&self) -> f64 {
        self.accuracy.values().copied().fold(f64::INFINITY, f64::min)
    }

    /// Share of offered packets the capture buffer did not drop.
    pub fn captured_frac(&self) -> f64 {
        let offered: u64 = self.lane_records().map(|r| r.incoming_packets).sum();
        let dropped: u64 = self.lane_records().map(|r| r.uncontrolled_drops).sum();
        1.0 - dropped as f64 / offered.max(1) as f64
    }

    /// Modelled cycles of each bin (summed over lanes) over the capacity.
    fn load(&self) -> impl Iterator<Item = f64> + '_ {
        self.records
            .iter()
            .map(|bin| bin.iter().map(BinRecord::total_cycles).sum::<f64>() / self.capacity)
    }

    /// Per bin, how far the modelled cycles overran the capacity.
    fn overruns(&self) -> Vec<f64> {
        self.load().map(|load| (load - 1.0).max(0.0)).collect()
    }

    /// Mean over bins of how far the modelled cycles overran the capacity.
    pub fn overrun_mean(&self) -> f64 {
        let overruns = self.overruns();
        overruns.iter().sum::<f64>() / overruns.len().max(1) as f64
    }

    /// 99th percentile over bins of how far the modelled cycles overran the
    /// capacity.
    pub fn overrun_p99(&self) -> f64 {
        crate::stats::percentile(&self.overruns(), 99.0)
    }

    /// Share of bins whose modelled cycles exceeded the capacity.
    pub fn overload_bins_frac(&self) -> f64 {
        self.load().filter(|&load| load > 1.0).count() as f64 / self.records.len().max(1) as f64
    }

    /// Median relative error of the aggregate prediction, per lane record
    /// (the samples `RunSummary::prediction_errors` holds).
    pub fn prediction_err_p50(&self) -> f64 {
        let errors: Vec<f64> = self
            .lane_records()
            .filter(|r| r.query_cycles > 0.0)
            .map(|r| (1.0 - r.predicted_cycles / r.query_cycles).abs())
            .collect();
        crate::stats::median(&errors)
    }

    /// Share of all modelled cycles selected by `part`.
    pub fn cycles_share(&self, part: impl Fn(&BinRecord) -> f64) -> f64 {
        let total: f64 = self.lane_records().map(BinRecord::total_cycles).sum();
        self.lane_records().map(part).sum::<f64>() / total
    }

    /// Mean over lane records of the mean sampling rate.
    pub fn sampling_rate_mean(&self) -> f64 {
        let (sum, n) =
            self.lane_records().fold((0.0, 0u64), |(s, n), r| (s + r.mean_sampling_rate(), n + 1));
        sum / n.max(1) as f64
    }

    /// Packets delivered to queries over packets the queries could have
    /// been given (captured packets times registered queries): the useful
    /// share of shedding's work.
    pub fn delivered_frac(&self) -> f64 {
        let mut delivered = 0u64;
        let mut possible = 0u64;
        for record in self.lane_records() {
            delivered += record.queries.iter().map(|q| q.delivered_packets).sum::<u64>();
            possible +=
                (record.incoming_packets - record.uncontrolled_drops) * record.queries.len() as u64;
        }
        delivered as f64 / possible.max(1) as f64
    }
}
