//! The engine abstraction: what a [`Daemon`](crate::Daemon) needs from the
//! computation it hosts.
//!
//! The service loop — command windows at bin boundaries, digest maintenance,
//! `.nsck` checkpoint/restore — is the same whether one [`Monitor`] or a
//! [`ShardedMonitor`] fleet does the computing. [`MonitorEngine`] is that
//! seam: the daemon drives `ingest` per non-empty bin and delegates
//! registration, policy swaps and state (de)serialisation; its supertrait
//! [`BinEngine`] supplies bin processing and the interval primitives
//! (`interval_open`, `finish_interval`).
//!
//! The per-bin observer protocol is not the engine's to implement: `ingest`
//! and `end_run` are provided methods over the shared bin driver
//! ([`netshed_monitor::driver`]) — the same loop `Monitor::run` and
//! `ShardedMonitor::run` use — so a daemon reports exactly what a batch run
//! reports. The checkpoint sections capture essential state only, so a
//! restored engine continues bit-identically at any worker or shard-thread
//! count.

use netshed_monitor::driver::{self, BinEngine, BinOutcome};
use netshed_monitor::{
    Monitor, MonitorConfig, NetshedError, QueryId, RunObserver, RunSummary, ShardedMonitor,
    Strategy,
};
use netshed_queries::QuerySpec;
use netshed_sketch::{StateReader, StateWriter};
use netshed_trace::Batch;

use crate::daemon::ServiceError;
use crate::snapshot::Snapshot;

/// A computation the service plane can host: ingest bins, answer the control
/// channel, serialise into named `.nsck` sections.
pub trait MonitorEngine: BinEngine {
    /// Rebuilds a fresh engine from the run's configuration (the restore
    /// path; state is loaded separately through
    /// [`load_sections`](MonitorEngine::load_sections)).
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError>
    where
        Self: Sized;

    /// The configuration of the hosted run. For a sharded engine this is the
    /// *global* configuration — checkpoint cross-checks compare against it
    /// bit for bit, and per-lane budgets are coordinator state, not config.
    fn config(&self) -> &MonitorConfig;

    /// Name of the active control policy.
    fn policy_name(&self) -> String;

    /// Registers a query (fleet-wide for a sharded engine).
    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError>;

    /// Deregisters a query by handle.
    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError>;

    /// Swaps the control policy to a built-in strategy.
    fn set_strategy(&mut self, strategy: Strategy);

    /// Processes one bin through the bin driver, reporting every event to
    /// `observer` in the canonical order (starting with `on_batch` for the
    /// undivided batch). An empty bin is skipped and yields `None`.
    fn ingest(
        &mut self,
        batch: &Batch,
        observer: &mut dyn RunObserver,
    ) -> Result<Option<BinOutcome>, NetshedError> {
        driver::drive_bin(self, batch, observer)
    }

    /// Ends the run through the bin driver: flushes the open interval to
    /// `observer`, then hands it `summary`.
    fn end_run(&mut self, observer: &mut dyn RunObserver, summary: &RunSummary) {
        driver::end_run(self, observer, summary);
    }

    /// Appends the engine's state sections to a checkpoint under way.
    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError>;

    /// Restores the engine's state from its checkpoint sections. The caller
    /// has already installed the snapshot's policy (via
    /// [`set_strategy`](MonitorEngine::set_strategy)), so shadow
    /// reconstruction follows the right policy.
    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError>;
}

/// Checkpoint section holding a solo monitor's state.
const SECTION_MONITOR: &str = "monitor";
/// Checkpoint section prefix for one lane of a sharded fleet.
const SECTION_SHARD_PREFIX: &str = "shard.";
/// Checkpoint section holding the cross-shard coordinator's state.
const SECTION_SHARDED: &str = "sharded";

impl MonitorEngine for Monitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        config.validate()?;
        Ok(Monitor::new(config))
    }

    fn config(&self) -> &MonitorConfig {
        Monitor::config(self)
    }

    fn policy_name(&self) -> String {
        Monitor::policy_name(self)
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        Monitor::register(self, spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        Monitor::deregister(self, id)
    }

    fn set_strategy(&mut self, strategy: Strategy) {
        self.set_policy(strategy.control_policy());
    }

    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        let mut section = StateWriter::new();
        self.save_state(&mut section)?;
        snapshot.push(SECTION_MONITOR, section.into_bytes())?;
        Ok(())
    }

    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        let mut section = StateReader::new(snapshot.section(SECTION_MONITOR)?);
        self.load_state(&mut section)?;
        section.finish()?;
        Ok(())
    }
}

impl MonitorEngine for ShardedMonitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        ShardedMonitor::new(config)
    }

    fn config(&self) -> &MonitorConfig {
        ShardedMonitor::config(self)
    }

    fn policy_name(&self) -> String {
        ShardedMonitor::policy_name(self)
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        ShardedMonitor::register(self, spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        ShardedMonitor::deregister(self, id)
    }

    fn set_strategy(&mut self, strategy: Strategy) {
        ShardedMonitor::set_strategy(self, strategy);
    }

    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        for lane in 0..self.lane_count() {
            let mut section = StateWriter::new();
            self.save_lane_state(lane, &mut section)?;
            snapshot.push(&format!("{SECTION_SHARD_PREFIX}{lane}"), section.into_bytes())?;
        }
        let mut section = StateWriter::new();
        self.save_coordinator_state(&mut section)?;
        snapshot.push(SECTION_SHARDED, section.into_bytes())?;
        Ok(())
    }

    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        for lane in 0..self.lane_count() {
            let mut section =
                StateReader::new(snapshot.section(&format!("{SECTION_SHARD_PREFIX}{lane}"))?);
            self.load_lane_state(lane, &mut section)?;
            section.finish()?;
        }
        // After the lanes: a lane load resets its config capacity to the
        // checkpointed value, and the coordinator re-applies its budgets.
        let mut section = StateReader::new(snapshot.section(SECTION_SHARDED)?);
        self.load_coordinator_state(&mut section)?;
        section.finish()?;
        Ok(())
    }
}
