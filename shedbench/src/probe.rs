//! The traced run's instruments: spans kept in memory around every call the
//! benchmark makes into a layer, and probes that re-run one layer's public
//! functions on the bin the system just processed, so each layer's cost can
//! be read on its own.
//!
//! Probes replay the verification pass's bin records (the determinism
//! contract makes them identical to the timed pass's): each query's decided
//! rate, predicted and measured cycles, and the allocator's budget.

use std::collections::BTreeMap;
use std::time::Instant;

use netshed_fairness::{mmfs_cpu, mmfs_pkt, QueryDemand};
use netshed_features::{ExtractorConfig, FeatureExtractor};
use netshed_monitor::{
    flow_sample, packet_sample, AllocationPolicy, BinRecord, MonitorConfig, QueryId, Strategy,
};
use netshed_predict::{MlrConfig, MlrPredictor, Predictor};
use netshed_queries::{build_query_from_spec, CycleMeter, Query, SheddingMethod};
use netshed_sketch::H3Hasher;
use netshed_trace::{Batch, PacketSource, SharedTraceReader};
use rand::{rngs::StdRng, SeedableRng};

use crate::verify::Verification;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One whole bin of the traced loop; the parent of every other span.
    Bin,
    /// `PacketSource::next_batch` on a `.nstr` reader.
    Decode,
    /// The system's per-bin call (`process_batch`, `process_bin`, `tick`).
    Call,
    /// A direct `Daemon::checkpoint`.
    Checkpoint,
    /// `Batch::split_shards`.
    Split,
    /// `FeatureExtractor::extract`.
    Extract,
    /// `packet_sample` / `flow_sample` at one query's decided rate.
    Shed,
    /// `Predictor::predict` for one query.
    Predict,
    /// `Predictor::observe` for one query.
    Observe,
    /// `mmfs_pkt` / `mmfs_cpu` over the bin's demands.
    Allocate,
    /// One query's `process_batch` on its shed view, by query kind name.
    Query(&'static str),
}

/// One timed interval. Spans of one bin share `bin`; `parent` indexes the
/// bin's [`SpanKind::Bin`] span (itself for that span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Position of the bin the span belongs to.
    pub bin: u32,
    /// Index of the span that caused it.
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Work items the span covered (packets for query spans).
    pub items: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: u32,
    bin: u32,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), root: 0, bin: 0 }
    }

    /// Opens the root span of bin `bin`; close it with [`Tracer::end_bin`].
    pub fn begin_bin(&mut self, bin: u64) -> Instant {
        self.bin = u32::try_from(bin).unwrap_or(u32::MAX);
        self.root = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let start = Instant::now();
        self.record(SpanKind::Bin, start, 0);
        start
    }

    /// Closes the root span opened at `start`.
    pub fn end_bin(&mut self, start: Instant) {
        let dur = start.elapsed().as_nanos() as u64;
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.dur_ns = dur;
        }
    }

    /// Records a span of `kind` from `start` until now, under the current bin.
    pub fn record(&mut self, kind: SpanKind, start: Instant, items: u64) {
        let end = Instant::now();
        self.spans.push(Span {
            kind,
            bin: self.bin,
            parent: self.root,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            items,
        });
    }

    /// Total duration, span count and items per kind.
    pub fn totals(&self) -> BTreeMap<SpanKind, (u64, u64, u64)> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.kind).or_insert((0, 0, 0));
            entry.0 += span.dur_ns;
            entry.1 += 1;
            entry.2 += span.items;
        }
        totals
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

struct ProbeQuery {
    kind: &'static str,
    min_rate: f64,
    query: Box<dyn Query>,
    predictor: MlrPredictor,
    shedding: SheddingMethod,
}

/// The probes of one traced pass.
pub struct Probes<'a> {
    verification: &'a Verification,
    /// A second reader kept in lockstep with the system, so probes work on a
    /// fresh decode of each bin (hash caches cold, as the system sees them).
    reader: SharedTraceReader,
    lanes: usize,
    mlr: MlrConfig,
    demands: Vec<QueryDemand>,
    extractors: Vec<FeatureExtractor>,
    queries: Vec<BTreeMap<QueryId, ProbeQuery>>,
    rng: StdRng,
    hasher: H3Hasher,
    /// The spans of the pass.
    pub tracer: Tracer,
    /// Nanoseconds from sending each control command to its reply.
    pub ctl_apply_ns: Vec<u64>,
    /// Nanoseconds of each direct `Daemon::restore`.
    pub restore_ns: Vec<u64>,
    /// Size of each checkpoint taken.
    pub checkpoint_bytes: Vec<u64>,
}

impl<'a> Probes<'a> {
    /// Probes over `reader` (a fresh reader of the same input), replaying
    /// `verification`'s records; `lanes` is 1 for a solo monitor. `config`
    /// is the monitored system's, so probes use the same predictor settings
    /// and measurement interval.
    pub fn new(
        verification: &'a Verification,
        reader: SharedTraceReader,
        lanes: usize,
        config: &MonitorConfig,
    ) -> Self {
        let extractor = || {
            FeatureExtractor::new(ExtractorConfig {
                measurement_interval_us: config.measurement_interval_us,
                ..ExtractorConfig::default()
            })
        };
        Self {
            verification,
            reader,
            lanes,
            mlr: config.mlr,
            demands: Vec::new(),
            extractors: (0..lanes).map(|_| extractor()).collect(),
            queries: (0..lanes).map(|_| BTreeMap::new()).collect(),
            rng: StdRng::seed_from_u64(0x5eed),
            hasher: H3Hasher::new(13, 0x5eed),
            tracer: Tracer::new(),
            ctl_apply_ns: Vec::new(),
            restore_ns: Vec::new(),
            checkpoint_bytes: Vec::new(),
        }
    }

    /// Decodes the next non-empty bin from the probe reader, recorded as a
    /// [`SpanKind::Decode`] span when `traced` (the system decodes inside its
    /// call, so the benchmark cannot span the system's own decode).
    pub fn decode(&mut self, traced: bool) -> Option<Batch> {
        loop {
            let start = Instant::now();
            let batch = self.reader.next_batch()?;
            if traced {
                self.tracer.record(SpanKind::Decode, start, 0);
            }
            if !batch.is_empty() {
                return Some(batch);
            }
        }
    }

    /// Runs every layer probe on the bin at `position`, freshly decoded as
    /// `batch`, under the control policy `policy`.
    pub fn probe_bin(&mut self, position: u64, batch: &Batch, policy: Strategy) {
        let verification = self.verification;
        let Some(records) = verification.records.get(position as usize) else {
            return;
        };
        if self.lanes == 1 {
            if let Some(record) = records.first() {
                self.probe_lane(0, batch, record, policy);
            }
            // Split last, so its pass over the tuples does not warm the
            // other probes' caches; a solo monitor never splits, but the
            // number shows what a fleet's front end would cost here.
            let start = Instant::now();
            std::hint::black_box(batch.split_shards(netshed_monitor::DEFAULT_SHARD_LANES));
            self.tracer.record(SpanKind::Split, start, 0);
        } else {
            let start = Instant::now();
            let lanes = batch.split_shards(self.lanes);
            self.tracer.record(SpanKind::Split, start, 0);
            // Lanes without traffic produce no record; records come in lane
            // order.
            let busy = lanes.iter().enumerate().filter(|(_, b)| !b.is_empty());
            for ((lane, sub), record) in busy.zip(records) {
                self.probe_lane(lane, sub, record, policy);
            }
        }
    }

    fn probe_lane(&mut self, lane: usize, batch: &Batch, record: &BinRecord, policy: Strategy) {
        let specs = &self.verification.specs;
        let queries = &mut self.queries[lane];
        if record.interval_outputs.is_some() {
            for probe in queries.values_mut() {
                probe.query.end_interval();
            }
        }
        if queries.len() != record.queries.len() {
            queries.retain(|id, _| record.queries.iter().any(|q| q.id == *id));
        }

        let start = Instant::now();
        let (features, _) = self.extractors[lane].extract(batch);
        self.tracer.record(SpanKind::Extract, start, batch.len() as u64);

        let full = batch.view();
        self.demands.clear();
        for q in &record.queries {
            let probe = queries.entry(q.id).or_insert_with(|| {
                let spec = &specs[&q.name];
                let query = build_query_from_spec(spec);
                ProbeQuery {
                    kind: spec.kind.name(),
                    min_rate: spec.min_sampling_rate.unwrap_or_else(|| query.min_sampling_rate()),
                    shedding: query.preferred_shedding(),
                    query,
                    predictor: MlrPredictor::new(self.mlr),
                }
            });
            let start = Instant::now();
            std::hint::black_box(probe.predictor.predict(&features));
            self.tracer.record(SpanKind::Predict, start, 1);

            if q.sampling_rate > 0.0 {
                let start = Instant::now();
                let view = match probe.shedding {
                    SheddingMethod::PacketSampling => {
                        packet_sample(&full, q.sampling_rate, &mut self.rng).0
                    }
                    SheddingMethod::FlowSampling => {
                        flow_sample(&full, q.sampling_rate, &self.hasher).0
                    }
                    SheddingMethod::Custom => full.clone(),
                };
                self.tracer.record(SpanKind::Shed, start, 1);

                let start = Instant::now();
                let mut meter = CycleMeter::new();
                probe.query.process_batch(&view, q.sampling_rate, &mut meter);
                self.tracer.record(SpanKind::Query(probe.kind), start, view.len() as u64);
            }

            let start = Instant::now();
            probe.predictor.observe(&features, q.measured_cycles);
            self.tracer.record(SpanKind::Observe, start, 1);
            self.demands.push(QueryDemand::new(q.predicted_cycles, probe.min_rate));
        }

        let budget = record.decision.budget.unwrap_or(record.available_cycles);
        let start = Instant::now();
        let allocation = match policy {
            Strategy::Predictive(AllocationPolicy::MmfsCpu)
            | Strategy::Reactive(AllocationPolicy::MmfsCpu) => mmfs_cpu(&self.demands, budget),
            _ => mmfs_pkt(&self.demands, budget),
        };
        self.tracer.record(SpanKind::Allocate, start, 0);
        std::hint::black_box(allocation);
    }
}
