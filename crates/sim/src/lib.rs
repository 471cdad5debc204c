//! Deterministic cluster simulator for the paper-scale evaluation.
//!
//! The real Hurricane runtime in `hurricane-core` executes on threads at
//! laptop scale; the paper's evaluation, however, spans 32 machines and
//! up to 3.2 TB of input. This crate reproduces that scale by simulating
//! time instead of burning it:
//!
//! * [`spec`] — the testbed model ([`spec::ClusterSpec::paper`] encodes
//!   the paper's 32×16-core, 330 MB/s-RAID, 40 GigE cluster), application
//!   DAGs with byte volumes and rates, and fault/GC injection plans.
//! * [`alloc`] — max–min fair storage-bandwidth allocation.
//! * [`engine`] — the fluid event-driven Hurricane simulator. It executes
//!   the *same* policy code as the runtime: Eq. 2 clone decisions from
//!   `hurricane_core::heuristic` and Eq. 1 utilization from
//!   `hurricane_storage::batch`.
//! * [`apps`] — calibrated cost models of ClickLog, HashJoin, and
//!   PageRank.
//! * [`baselines`] — structural models of Spark, Hadoop, and GraphX
//!   (static partitions, sort-based shuffle, task-memory OOM, spill).
//!
//! Every experiment of `hurricane-bench` drives these pieces.

pub mod alloc;
pub mod apps;
pub mod baselines;
pub mod engine;
pub mod spec;

pub use engine::{simulate, SimResult};
pub use spec::{ClusterSpec, HurricaneOpts, SimApp, SimTask};
