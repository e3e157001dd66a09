//! `shedbench`: the end-to-end and per-layer benchmark of the netshed load
//! shedder. See `README.md` in this directory for the workloads, the metrics
//! and how to run, trace and compare.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod verify;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
