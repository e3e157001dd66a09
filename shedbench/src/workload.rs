//! The four workloads: how each one's input is generated from a seed, which
//! queries it runs, how its system under test is built, and (for
//! `tenant-churn`) the administration schedule it replays.
//!
//! Every workload runs at the paper's 2x overload: capacity is
//! `OVERLOAD_K` times the total demand measured on a prefix of the input.

use std::collections::VecDeque;

use netshed_monitor::{
    reference::measure_total_demand, AllocationPolicy, Monitor, MonitorBuilder, MonitorConfig,
    QueryId, ShardedMonitor, Strategy,
};
use netshed_queries::{QueryKind, QuerySpec};
use netshed_trace::{
    AnomalyEvent, Batch, Bytes, PacketSource, PacketSourceExt, Phase, Scenario, SharedTraceReader,
    TraceGenerator, TraceProfile, TraceWriter, DEFAULT_TIME_BIN_US,
};

/// Capacity as a share of the measured demand (0.5 = 2x overload).
const OVERLOAD_K: f64 = 0.5;
/// Bins at the start of the input the demand is measured on.
const DEMAND_PREFIX_BINS: usize = 300;
/// Bins in one pass over every input: 1000, so the per-pass latency
/// distribution has 10 samples beyond its 99th percentile.
pub const BINS: usize = 1000;
/// Tenant queries the `tenant-churn` daemon starts with: few enough that a
/// pass takes about 3 s on a 2-vCPU host, so a run repeats every bin about
/// 15 times.
const TENANTS: usize = 50;
/// The four cheap kinds the tenants cycle through; the other workloads run
/// the first three.
pub const TENANT_KINDS: [QueryKind; 4] =
    [QueryKind::Counter, QueryKind::Flows, QueryKind::HighWatermark, QueryKind::Application];
/// Initial tenants that may be replaced; the rest stay for the whole run and
/// are the ones accuracy is computed over.
const CHURN_POOL: usize = 16;
/// A deregister plus a fresh register every this many bins.
const CHURN_EVERY: u64 = 50;
/// A checkpoint and a policy swap every this many bins.
const CHECKPOINT_EVERY: u64 = 120;
/// The policy every workload starts with: the paper's predictive scheme with
/// max-min fairness in packet access.
pub const POLICY: Strategy = Strategy::Predictive(AllocationPolicy::MmfsPkt);
/// The policy `tenant-churn` swaps to and back from.
const SWAPPED_POLICY: Strategy = Strategy::Predictive(AllocationPolicy::MmfsCpu);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ABILENE-like header flood with a DDoS, three cheap queries.
    HeaderFlood,
    /// A daemon with 50 tenants under churn, swaps and checkpoints.
    TenantChurn,
    /// The `header-flood` input through a 4-lane fleet.
    FleetFlood,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] =
        [Workload::HeaderFlood, Workload::TenantChurn, Workload::FleetFlood];

    /// The workloads `BENCHMARK.json` lists. `header-flood` stays runnable
    /// by hand, as the monolith `fleet-flood` is compared with, but is not
    /// listed: two workloads leave room for runs long enough to outlast
    /// the minute-long spells of memory contention on a shared host, and
    /// these two between them reach every layer.
    pub const BENCHMARKED: [Workload; 2] = [Workload::TenantChurn, Workload::FleetFlood];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeaderFlood => "header-flood",
            Workload::TenantChurn => "tenant-churn",
            Workload::FleetFlood => "fleet-flood",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The queries registered before bin 0.
    pub fn initial_specs(self) -> Vec<QuerySpec> {
        match self {
            Workload::HeaderFlood | Workload::FleetFlood => {
                TENANT_KINDS[..3].iter().copied().map(QuerySpec::new).collect()
            }
            Workload::TenantChurn => (0..TENANTS)
                .map(|i| {
                    let kind = TENANT_KINDS[i % TENANT_KINDS.len()];
                    let role = if i < CHURN_POOL { "churn" } else { "tenant" };
                    QuerySpec::new(kind).with_label(format!("{role}{i}-{}", kind.name()))
                })
                .collect(),
        }
    }

    /// The workload's traffic: `bins` bins generated from `seed`.
    fn traffic(self, seed: u64, bins: usize) -> Result<Box<dyn PacketSource>, String> {
        let generator = |profile: TraceProfile, scale| {
            Box::new(TraceGenerator::new(profile.config(seed, scale)).take_batches(bins))
        };
        Ok(match self {
            Workload::TenantChurn => generator(TraceProfile::CescaI, 0.5),
            Workload::HeaderFlood | Workload::FleetFlood => {
                let bins = bins as u64;
                let third = (bins / 3).max(1);
                let flood = Phase::new("flood", bins)
                    .profile(TraceProfile::Abilene)
                    .scale(3.6)
                    .anomaly(AnomalyEvent::ddos(0x0a00_0001).over(third, third).intensity(1500));
                let scenario = Scenario::new("header-flood").seed(seed).phase(flood);
                Box::new(scenario.compile().map_err(|e| format!("header-flood scenario: {e}"))?)
            }
        })
    }
}

/// One workload's input, generated from a seed and held encoded in memory.
pub struct Input {
    /// The workload this input belongs to.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// The input as an in-memory `.nstr` container.
    pub container: Bytes,
    /// Non-empty bins in the input.
    pub bins: u64,
    /// Packets offered over the whole input.
    pub packets: u64,
    /// Cycles per bin the system may spend.
    pub capacity: f64,
}

impl Input {
    /// Generates the input of `workload` with `bins` bins from `seed`,
    /// encoding bin by bin so the decoded traffic is never held whole.
    pub fn generate(workload: Workload, seed: u64, bins: usize) -> Result<Input, String> {
        let mut source = workload.traffic(seed, bins.max(3))?;
        let mut writer =
            TraceWriter::new(Vec::new(), DEFAULT_TIME_BIN_US).map_err(|e| e.to_string())?;
        let (mut busy_bins, mut packets) = (0, 0);
        while let Some(batch) = source.next_batch() {
            writer.write_batch(&batch).map_err(|e| e.to_string())?;
            busy_bins += u64::from(!batch.is_empty());
            packets += batch.len() as u64;
        }
        let container = Bytes::from(writer.finish().map_err(|e| e.to_string())?);
        // Decoded from the container, the prefix shares its payload bytes.
        let mut reader = SharedTraceReader::new(container.clone()).map_err(|e| e.to_string())?;
        let prefix: Vec<Batch> =
            (0..DEMAND_PREFIX_BINS).map_while(|_| reader.next_batch()).collect();
        let demand =
            measure_total_demand(&workload.initial_specs(), &prefix).map_err(|e| e.to_string())?;
        Ok(Input {
            workload,
            seed,
            container,
            bins: busy_bins,
            packets,
            capacity: OVERLOAD_K * demand,
        })
    }

    /// The builder of this input's system. Every system runs on the driver
    /// thread alone (1 execution-plane worker, 1 shard thread): on a 2-vCPU
    /// host a second thread was never faster, and whole runs lost up to half
    /// their throughput whenever the host took the second vCPU.
    pub fn builder(&self) -> MonitorBuilder {
        Monitor::builder()
            .capacity(self.capacity)
            .strategy(POLICY)
            .seed(self.seed)
            .with_workers(1)
            .with_shards(1)
            .queries(self.workload.initial_specs())
    }

    /// The configuration of this input's solo system (what a restore checks).
    pub fn config(&self) -> MonitorConfig {
        self.builder().config().clone()
    }

    /// Builds a solo monitor.
    pub fn monitor(&self) -> Result<Monitor, String> {
        self.builder().build().map_err(|e| e.to_string())
    }

    /// Builds a fleet.
    pub fn fleet(&self) -> Result<ShardedMonitor, String> {
        self.builder().build_sharded().map_err(|e| e.to_string())
    }
}

/// One administrative command of the `tenant-churn` schedule.
#[derive(Debug, Clone)]
pub enum Command {
    /// Take a `.nsck` checkpoint. It is always first in its bin's window,
    /// so the snapshot holds the state before that window's other commands;
    /// it carries the schedule as it stood then, to resume from.
    Checkpoint(Box<ChurnDriver>),
    /// Deregister a churnable tenant.
    Deregister(QueryId),
    /// Register a fresh tenant.
    Register(QuerySpec),
    /// Swap the control policy.
    Swap(Strategy),
}

/// The `tenant-churn` schedule as a function of the bin position: which
/// tenant leaves, which joins, which policy is next. Cloned at a checkpoint,
/// it replays the remainder of the schedule after a restore.
#[derive(Debug, Clone)]
pub struct ChurnDriver {
    churnable: VecDeque<QueryId>,
    fresh: usize,
    swapped: bool,
}

impl ChurnDriver {
    /// A driver for a system whose registered queries are `handles`.
    pub fn new<'a>(handles: impl IntoIterator<Item = (QueryId, &'a str)>) -> Self {
        let churnable =
            handles.into_iter().filter(|(_, label)| label.starts_with("churn")).map(|h| h.0);
        Self { churnable: churnable.collect(), fresh: 0, swapped: false }
    }

    /// The commands to apply before the bin at position `bin` (0-based count
    /// of non-empty bins processed so far).
    pub fn commands(&mut self, bin: u64) -> Vec<Command> {
        let mut commands = Vec::new();
        if bin == 0 {
            return commands;
        }
        if bin.is_multiple_of(CHECKPOINT_EVERY) {
            commands.push(Command::Checkpoint(Box::new(self.clone())));
        }
        if bin.is_multiple_of(CHURN_EVERY) {
            if let Some(id) = self.churnable.pop_front() {
                commands.push(Command::Deregister(id));
            }
            let kind = TENANT_KINDS[self.fresh % TENANT_KINDS.len()];
            let label = format!("churn-fresh{}-{}", self.fresh, kind.name());
            self.fresh += 1;
            commands.push(Command::Register(QuerySpec::new(kind).with_label(label)));
        }
        if bin.is_multiple_of(CHECKPOINT_EVERY) {
            self.swapped = !self.swapped;
            commands.push(Command::Swap(self.policy()));
        }
        commands
    }

    /// Records the handle a [`Command::Register`] resolved to.
    pub fn registered(&mut self, id: QueryId) {
        self.churnable.push_back(id);
    }

    /// The policy the schedule has installed so far.
    pub fn policy(&self) -> Strategy {
        if self.swapped {
            SWAPPED_POLICY
        } else {
            POLICY
        }
    }
}
