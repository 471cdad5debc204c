//! The Hurricane runtime: adaptive work partitioning via task cloning.
//!
//! This crate implements the core contribution of *Rock You like a
//! Hurricane: Taming Skew in Large Scale Analytics* (EuroSys '18):
//! a dataflow engine where an overloaded task can be **cloned** at any
//! point during its execution, with each clone pulling disjoint chunks
//! from the same shared input bag, and an application-specified **merge**
//! reconciling the clones' partial outputs into the output an uncloned
//! run would have produced.
//!
//! Module map:
//!
//! * [`graph`] — application graphs: tasks, bags, and their wiring.
//! * [`task`] — the worker-facing API: [`TaskCtx`], [`task::BagReader`],
//!   [`task::BagWriter`], cancellation, clone pings.
//! * [`merges`] — the library of standard merge procedures.
//! * [`heuristic`] — the Eq. 2 cloning heuristic (pure, shared with the
//!   simulator crate).
//! * [`master`] — the application master: scheduling, clone arbitration,
//!   merge injection, failure recovery, crash recovery from work bags.
//! * [`manager`] — compute-node task managers claiming descriptors from
//!   the decentralized ready bag.
//! * [`app`] — deployment and the run lifecycle.
//!
//! See the crate-level example on [`HurricaneApp`].

pub mod app;
pub mod config;
pub mod descriptor;
pub mod error;
pub mod graph;
pub mod heuristic;
mod keyed_table;
pub mod manager;
pub mod master;
pub mod merges;
pub mod task;

pub use app::{AppReport, HurricaneApp, RunningApp};
pub use config::HurricaneConfig;
pub use error::EngineError;
pub use graph::{AppGraph, GraphBag, GraphBuilder, GraphTask};
pub use master::{CloneLogEntry, CloneVerdict};
pub use task::{MergeLogic, TaskCtx, TaskLogic};
