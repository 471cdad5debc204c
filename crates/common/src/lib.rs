//! Shared primitives for the Hurricane reproduction.
//!
//! This crate hosts the small, dependency-light building blocks that every
//! other crate in the workspace uses:
//!
//! * [`id`] — strongly-typed identifiers for nodes, tasks, bags, and workers.
//! * [`rng`] — deterministic, seedable random number generation. Every
//!   randomized decision in the system (chunk placement permutations, batch
//!   sampling, workload synthesis, simulation) flows through these
//!   generators so that runs are reproducible bit-for-bit.
//! * [`units`] — decimal byte-unit constants and the paper's runtime
//!   formatting.
//! * [`metrics`] — counters and time series used by the runtime, the
//!   simulator, and the benchmark harness (e.g. the throughput timelines of
//!   Figures 9 and 11 in the paper).
//!
//! The crate deliberately has no knowledge of chunks, bags, or tasks beyond
//! their identifiers; those concepts live in `hurricane-format`,
//! `hurricane-storage`, and `hurricane-core`.

pub mod id;
pub mod metrics;
pub mod rng;
pub mod units;

pub use id::{
    AppId, BagId, CloneId, ComputeNodeId, StorageNodeId, TaskId, TaskInstanceId, WorkerId,
};
pub use rng::{DetRng, SplitMix64};
