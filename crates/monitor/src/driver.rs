//! The bin driver: Algorithm 1's per-bin loop, written once.
//!
//! Every way netshed runs — [`Monitor::run`],
//! [`ShardedMonitor::run`](crate::ShardedMonitor::run) and the service-plane
//! daemon — steps an engine over bins with the same observer protocol:
//!
//! 1. empty bins are skipped (a quiet bin carries no work);
//! 2. `on_batch` with the undivided batch, before any processing;
//! 3. `on_interval` when the bin closed a measurement interval;
//! 4. `on_decision` for every record of the bin, then `on_bin` for every
//!    record (one record for a solo monitor, one per busy lane for a fleet);
//! 5. when the run ends, the open interval is flushed to `on_interval` and
//!    `on_end` receives the summary.
//!
//! [`drive_bin`] implements steps 1–4 and [`end_run`] step 5; [`run`] loops
//! them over a [`PacketSource`].

use crate::error::NetshedError;
use crate::monitor::Monitor;
use crate::observer::RunObserver;
use crate::report::{BinRecord, RunSummary};
use netshed_queries::QueryOutput;
use netshed_trace::{Batch, PacketSource};

/// What an engine produced for one non-empty bin.
#[derive(Debug, Clone, PartialEq)]
pub enum BinOutcome {
    /// A solo monitor's record; the outputs of the interval it closed ride
    /// on the record.
    Solo(BinRecord),
    /// A fleet's records in lane order (idle lanes contribute none), plus
    /// the lane-merged outputs of the interval the bin closed.
    Lanes {
        /// Merged outputs of the closed interval, if the bin closed one.
        interval: Option<Vec<(String, QueryOutput)>>,
        /// Per-lane records in lane order.
        records: Vec<BinRecord>,
    },
}

impl BinOutcome {
    /// Outputs of the measurement interval this bin closed, if any.
    pub fn interval_outputs(&self) -> Option<&[(String, QueryOutput)]> {
        match self {
            BinOutcome::Solo(record) => record.interval_outputs.as_deref(),
            BinOutcome::Lanes { interval, .. } => interval.as_deref(),
        }
    }

    /// The bin's records.
    pub fn records(&self) -> &[BinRecord] {
        match self {
            BinOutcome::Solo(record) => std::slice::from_ref(record),
            BinOutcome::Lanes { records, .. } => records,
        }
    }
}

/// A computation the bin driver can step: a [`Monitor`] or a
/// [`ShardedMonitor`](crate::ShardedMonitor) fleet.
pub trait BinEngine {
    /// Processes one non-empty bin without reporting anything.
    fn process_bin(&mut self, batch: &Batch) -> Result<BinOutcome, NetshedError>;

    /// Whether a measurement interval is currently open.
    fn interval_open(&self) -> bool;

    /// Closes the open measurement interval and returns its outputs.
    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)>;

    /// Closes the open measurement interval, returning its outputs; `None`
    /// when no interval is open.
    fn flush_interval(&mut self) -> Option<Vec<(String, QueryOutput)>> {
        self.interval_open().then(|| self.finish_interval())
    }
}

impl BinEngine for Monitor {
    fn process_bin(&mut self, batch: &Batch) -> Result<BinOutcome, NetshedError> {
        self.process_batch(batch).map(BinOutcome::Solo)
    }

    fn interval_open(&self) -> bool {
        Monitor::interval_open(self)
    }

    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        Monitor::finish_interval(self)
    }
}

/// Steps `engine` over one bin pulled from a source, reporting to
/// `observer` (steps 1–4 of the module protocol). Returns `None` for an
/// empty bin, which is skipped without any event.
pub fn drive_bin<E, O>(
    engine: &mut E,
    batch: &Batch,
    observer: &mut O,
) -> Result<Option<BinOutcome>, NetshedError>
where
    E: BinEngine + ?Sized,
    O: RunObserver + ?Sized,
{
    if batch.is_empty() {
        return Ok(None);
    }
    observer.on_batch(batch);
    let outcome = engine.process_bin(batch)?;
    if let Some(outputs) = outcome.interval_outputs() {
        observer.on_interval(outputs);
    }
    for record in outcome.records() {
        observer.on_decision(record.bin_index, &record.decision);
    }
    for record in outcome.records() {
        observer.on_bin(record);
    }
    Ok(Some(outcome))
}

/// Ends a run (step 5 of the module protocol): flushes the open interval to
/// `on_interval`, then hands `summary` to `on_end`.
pub fn end_run<E, O>(engine: &mut E, observer: &mut O, summary: &RunSummary)
where
    E: BinEngine + ?Sized,
    O: RunObserver + ?Sized,
{
    if let Some(outputs) = engine.flush_interval() {
        observer.on_interval(&outputs);
    }
    observer.on_end(summary);
}

/// Drives `engine` over `source` until it is exhausted, folding every bin
/// into the returned [`RunSummary`].
pub fn run<E, S, O>(
    engine: &mut E,
    source: &mut S,
    observer: &mut O,
) -> Result<RunSummary, NetshedError>
where
    E: BinEngine + ?Sized,
    S: PacketSource + ?Sized,
    O: RunObserver + ?Sized,
{
    let mut summary = RunSummary::default();
    while let Some(batch) = source.next_batch() {
        match drive_bin(engine, &batch, observer)? {
            Some(outcome) => summary.fold_bin(outcome.records()),
            None => summary.empty_bins += 1,
        }
    }
    end_run(engine, observer, &summary);
    Ok(summary)
}
