//! Observer composition: sinks must round-trip the records they stream,
//! tuple composition must deliver every event, in document order, to both
//! members, and every driver — `Monitor::run`, `ShardedMonitor::run` and a
//! daemon run to exhaustion — reports in that same documented order.

use netshed::monitor::driver::{self, BinEngine, BinOutcome};
use netshed::prelude::*;
use netshed_service::{Daemon, MonitorEngine, ServiceError, Snapshot, TickStatus};
use std::cell::RefCell;
use std::rc::Rc;

fn builder() -> MonitorBuilder {
    Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .seed(2)
        .queries(vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)])
}

fn source(batches: usize) -> impl PacketSource {
    TraceGenerator::new(TraceConfig::default().with_seed(6).with_mean_packets_per_batch(70.0))
        .take_batches(batches)
}

fn run_with<O: RunObserver>(observer: &mut O, batches: usize) -> RunSummary {
    let mut monitor = builder().build().expect("build");
    monitor.run(&mut source(batches), observer).expect("run")
}

/// Captures the records the sink saw, for field-level comparison.
#[derive(Default)]
struct Records(Vec<BinRecord>);

impl RunObserver for Records {
    fn on_bin(&mut self, record: &BinRecord) {
        self.0.push(record.clone());
    }
}

#[test]
fn csv_rows_round_trip_to_the_emitted_records() {
    let mut pair = (Records::default(), RecordSink::csv(Vec::new()));
    run_with(&mut pair, 12);
    let (records, sink) = pair;
    assert!(sink.error().is_none());
    let written = String::from_utf8(sink.into_inner()).expect("utf8");
    let mut lines = written.lines();
    let header: Vec<&str> = lines.next().expect("header row").split(',').collect();
    assert_eq!(header[0], "bin_index");
    assert_eq!(header.len(), 10, "one column per documented field");

    let rows: Vec<Vec<String>> =
        lines.map(|l| l.split(',').map(str::to_string).collect()).collect();
    assert_eq!(rows.len(), records.0.len(), "one CSV row per emitted record");
    for (row, record) in rows.iter().zip(&records.0) {
        // Parse back and compare against the record, using the sink's own
        // precision so the check is exact, not epsilon-sloppy.
        assert_eq!(row[0], record.bin_index.to_string());
        assert_eq!(row[1], record.incoming_packets.to_string());
        assert_eq!(row[2], record.uncontrolled_drops.to_string());
        assert_eq!(row[3], record.unsampled_packets.to_string());
        assert_eq!(row[4], format!("{:.1}", record.available_cycles));
        assert_eq!(row[5], format!("{:.1}", record.predicted_cycles));
        assert_eq!(row[6], format!("{:.1}", record.query_cycles));
        assert_eq!(row[7], format!("{:.1}", record.total_cycles()));
        assert_eq!(row[8], format!("{:.4}", record.buffer_occupation));
        assert_eq!(row[9], format!("{:.4}", record.mean_sampling_rate()));
        // And the parsed numbers identify the record semantically.
        let parsed_rate: f64 = row[9].parse().expect("numeric rate");
        assert!((parsed_rate - record.mean_sampling_rate()).abs() < 5e-5);
    }
}

/// Minimal NDJSON field extractor for the flat objects the sink emits.
fn json_field(line: &str, key: &str) -> String {
    let marker = format!("\"{key}\":");
    let start =
        line.find(&marker).unwrap_or_else(|| panic!("{key} missing in {line}")) + marker.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).expect("terminated value");
    rest[..end].to_string()
}

#[test]
fn ndjson_objects_round_trip_to_the_emitted_records() {
    let mut pair = (Records::default(), RecordSink::json(Vec::new()));
    run_with(&mut pair, 12);
    let (records, sink) = pair;
    assert!(sink.error().is_none());
    let written = String::from_utf8(sink.into_inner()).expect("utf8");
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(lines.len(), records.0.len(), "one object per emitted record");
    for (line, record) in lines.iter().zip(&records.0) {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(json_field(line, "bin_index"), record.bin_index.to_string());
        assert_eq!(json_field(line, "incoming_packets"), record.incoming_packets.to_string());
        assert_eq!(json_field(line, "available_cycles"), format!("{:.1}", record.available_cycles));
        assert_eq!(json_field(line, "query_cycles"), format!("{:.1}", record.query_cycles));
        assert_eq!(json_field(line, "total_cycles"), format!("{:.1}", record.total_cycles()));
        assert_eq!(
            json_field(line, "buffer_occupation"),
            format!("{:.4}", record.buffer_occupation)
        );
        assert_eq!(
            json_field(line, "mean_sampling_rate"),
            format!("{:.4}", record.mean_sampling_rate())
        );
    }
}

/// An observer that appends `(tag, event)` markers to a shared log.
struct Tagged {
    tag: &'static str,
    log: Rc<RefCell<Vec<(&'static str, String)>>>,
}

impl RunObserver for Tagged {
    fn on_batch(&mut self, batch: &Batch) {
        self.log.borrow_mut().push((self.tag, format!("batch:{}", batch.bin_index)));
    }

    fn on_decision(&mut self, bin_index: u64, _decision: &ControlDecision) {
        self.log.borrow_mut().push((self.tag, format!("decision:{bin_index}")));
    }

    fn on_bin(&mut self, record: &BinRecord) {
        self.log.borrow_mut().push((self.tag, format!("bin:{}", record.bin_index)));
    }

    fn on_interval(&mut self, _outputs: &[(String, QueryOutput)]) {
        self.log.borrow_mut().push((self.tag, "interval".to_string()));
    }

    fn on_end(&mut self, _summary: &RunSummary) {
        self.log.borrow_mut().push((self.tag, "end".to_string()));
    }
}

#[test]
fn tuple_observers_see_every_event_in_document_order() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut pair = (
        Tagged { tag: "first", log: Rc::clone(&log) },
        Tagged { tag: "second", log: Rc::clone(&log) },
    );
    // 15 batches closes one mid-run interval (10 bins per interval) and
    // flushes a second at the end of the run.
    let summary = run_with(&mut pair, 15);
    assert_eq!(summary.bins, 15);
    let log = log.borrow();

    // Both members saw the identical event sequence, pairwise interleaved
    // with the first tuple member always first.
    let events = |tag: &str| -> Vec<String> {
        log.iter().filter(|(t, _)| *t == tag).map(|(_, e)| e.clone()).collect()
    };
    let first = events("first");
    let second = events("second");
    assert_eq!(first, second, "both tuple members must see the same events");
    for pair in log.chunks(2) {
        assert_eq!(pair[0].0, "first", "tuple order is member order");
        assert_eq!(pair[1].0, "second");
        assert_eq!(pair[0].1, pair[1].1);
    }

    // The per-batch order is the documented one: on_batch → (on_interval on
    // closing bins) → on_decision → on_bin, then a final interval flush and
    // on_end.
    assert_eq!(first[0], "batch:0");
    assert_eq!(first[1], "decision:0");
    assert_eq!(first[2], "bin:0");
    // Bin 10 belongs to the next measurement interval, so processing it
    // closes interval 0: its outputs are delivered between that batch's
    // on_batch and on_decision.
    let bin10 = first.iter().position(|e| e == "batch:10").expect("bin 10 seen");
    assert_eq!(first[bin10 + 1], "interval");
    assert_eq!(first[bin10 + 2], "decision:10");
    assert_eq!(first[bin10 + 3], "bin:10");
    assert_eq!(first[first.len() - 2], "interval", "the final flush precedes on_end");
    assert_eq!(first[first.len() - 1], "end");
    assert_eq!(first.iter().filter(|e| *e == "interval").count(), 2);
    assert_eq!(assert_documented_order(&first, &[10], 1..=1), summary.bins);
}

type Log = Rc<RefCell<Vec<(&'static str, String)>>>;

/// The events one tag logged, in order.
fn events_of(log: &Log, tag: &str) -> Vec<String> {
    log.borrow().iter().filter(|(t, _)| *t == tag).map(|(_, e)| e.clone()).collect()
}

/// Asserts the documented order over a whole run's event log: per bin
/// `batch:N`, then `interval` exactly on the bins in `closing`, then one
/// `decision:N` per record followed by one `bin:N` per record (all
/// decisions before any bin record; `records` bounds the records per bin),
/// and finally the flushed interval and `end`. Returns the bins seen.
fn assert_documented_order(
    events: &[String],
    closing: &[u64],
    records: std::ops::RangeInclusive<usize>,
) -> u64 {
    let mut at = 0;
    let mut bins = 0;
    while let Some(bin) = events[at].strip_prefix("batch:") {
        let index: u64 = bin.parse().expect("bin index");
        at += 1;
        if closing.contains(&index) {
            assert_eq!(events[at], "interval", "bin {index} closes an interval");
            at += 1;
        }
        let decision = format!("decision:{bin}");
        let decisions = events[at..].iter().take_while(|e| **e == decision).count();
        assert!(records.contains(&decisions), "bin {index}: {decisions} decisions");
        at += decisions;
        for _ in 0..decisions {
            assert_eq!(events[at], format!("bin:{bin}"), "bin {index}: records follow decisions");
            at += 1;
        }
        bins += 1;
    }
    assert_eq!(events[at..], ["interval", "end"], "the final flush precedes on_end");
    bins
}

#[test]
fn sharded_run_reports_in_the_documented_order() {
    let lanes = 4;
    let mut fleet = builder().with_shard_lanes(lanes).build_sharded().expect("fleet");
    let log = Log::default();
    let mut observer = Tagged { tag: "fleet", log: Rc::clone(&log) };
    let summary = fleet.run(&mut source(15), &mut observer).expect("run");
    let events = events_of(&log, "fleet");
    let bins = assert_documented_order(&events, &[10], 1..=lanes);
    assert_eq!(bins, summary.bins);
    assert!(
        events.iter().filter(|e| e.starts_with("bin:")).count() as u64 > summary.bins,
        "the traffic must reach several lanes per bin"
    );
}

/// Forwards every event to the daemon's own observer and logs it.
struct Tee<'a> {
    log: &'a Log,
    inner: &'a mut dyn RunObserver,
}

impl RunObserver for Tee<'_> {
    fn on_batch(&mut self, batch: &Batch) {
        self.log.borrow_mut().push(("daemon", format!("batch:{}", batch.bin_index)));
        self.inner.on_batch(batch);
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.log.borrow_mut().push(("daemon", format!("decision:{bin_index}")));
        self.inner.on_decision(bin_index, decision);
    }

    fn on_bin(&mut self, record: &BinRecord) {
        self.log.borrow_mut().push(("daemon", format!("bin:{}", record.bin_index)));
        self.inner.on_bin(record);
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.log.borrow_mut().push(("daemon", "interval".to_string()));
        self.inner.on_interval(outputs);
    }

    fn on_end(&mut self, summary: &RunSummary) {
        self.log.borrow_mut().push(("daemon", "end".to_string()));
        self.inner.on_end(summary);
    }
}

/// A monitor engine that logs every event the daemon reports through it.
struct Tapped {
    monitor: Monitor,
    log: Log,
}

impl BinEngine for Tapped {
    fn process_bin(&mut self, batch: &Batch) -> Result<BinOutcome, NetshedError> {
        self.monitor.process_bin(batch)
    }

    fn interval_open(&self) -> bool {
        self.monitor.interval_open()
    }

    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.monitor.finish_interval()
    }
}

impl MonitorEngine for Tapped {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        Ok(Self { monitor: Monitor::from_config(config)?, log: Log::default() })
    }

    fn config(&self) -> &MonitorConfig {
        self.monitor.config()
    }

    fn policy_name(&self) -> String {
        self.monitor.policy_name()
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        self.monitor.register(spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        self.monitor.deregister(id)
    }

    fn set_strategy(&mut self, strategy: Strategy) {
        MonitorEngine::set_strategy(&mut self.monitor, strategy);
    }

    fn ingest(
        &mut self,
        batch: &Batch,
        observer: &mut dyn RunObserver,
    ) -> Result<Option<BinOutcome>, NetshedError> {
        let log = Rc::clone(&self.log);
        driver::drive_bin(self, batch, &mut Tee { log: &log, inner: observer })
    }

    fn end_run(&mut self, observer: &mut dyn RunObserver, summary: &RunSummary) {
        let log = Rc::clone(&self.log);
        driver::end_run(self, &mut Tee { log: &log, inner: observer }, summary);
    }

    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        self.monitor.save_sections(snapshot)
    }

    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        self.monitor.load_sections(snapshot)
    }
}

#[test]
fn a_daemon_run_to_exhaustion_reports_in_the_documented_order() {
    let log = Log::default();
    let engine = Tapped { monitor: builder().build().expect("build"), log: Rc::clone(&log) };
    let (daemon, _control) = Daemon::new(engine, source(15));
    let mut daemon = daemon.with_bins_per_tick(4);
    assert!(matches!(daemon.run_to_exhaustion().expect("run"), TickStatus::SourceExhausted));
    // A tick after exhaustion ends nothing twice.
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::SourceExhausted));
    let bins = assert_documented_order(&events_of(&log, "daemon"), &[10], 1..=1);
    assert_eq!(bins, 15);

    // The same events a batch run reports, in the same order.
    let reference = Log::default();
    run_with(&mut Tagged { tag: "daemon", log: Rc::clone(&reference) }, 15);
    assert_eq!(events_of(&log, "daemon"), events_of(&reference, "daemon"));
}
