//! Deterministic fault injection for the storage RPC protocol.
//!
//! This crate runs the *real* protocol stack — [`RpcPort`]'s coalescer
//! and replica fan-out, `NodeConnection`'s correlation slab and its one
//! retransmission rule (a request whose reply is later than the request
//! timeout is sent again, same envelope, up to 8 attempts), the
//! prefetcher pipeline, and the server-side dedup window —
//! over a simulated wire that drops, duplicates, delays, reorders, and
//! partitions messages on a virtual clock, all reproducible from one
//! `u64` seed.
//!
//! # Why a simulated wire
//!
//! Replicated writes, failover rerouting, and exactly-once delivery are
//! distributed-systems claims; exercising them over well-behaved
//! in-process channels tests the happy path only. The simulator makes
//! the unhappy paths *schedulable*: "partition node 2 mid-insert-burst",
//! "crash the primary between the backup ack and the primary write",
//! "duplicate every envelope" become one-line scenario scripts whose
//! end-state invariants are checked against the actual node logs.
//!
//! # Virtual clock and seed discipline
//!
//! See [`net`] for the full model. In short: virtual time advances only
//! when an endpoint waits, wire faults are drawn from per-link
//! [`DetRng`](hurricane_common::DetRng) forks of the root seed, and
//! wait budgets are quantized so real-clock jitter cannot perturb the
//! schedule. A **single-threaded** scenario (one client thread driving
//! ports) is fully deterministic: same seed, same config, same call
//! sequence ⇒ byte-identical [`net::TraceEvent`] traces, which the
//! replay test asserts. Scenarios that drive the prefetcher pipeline
//! remain seed-reproducible in their *fault schedule* but not in event
//! interleaving (a polled probe's attempt timeout,
//! `NodeConnection::try_poll`, runs on the real clock); they assert
//! invariants, not traces.
//!
//! Scenario clients set nothing but the net's request timeout
//! ([`FaultSim::client`]), exactly like the engine's: every scenario
//! exercises the retransmission rule every deployment runs.
//!
//! # Reproducing a CI failure
//!
//! The CI `faultsim` job sweeps seeds and every scenario prints its
//! seed (`faultsim: seed = …`) before running. To reproduce the failing
//! case locally:
//!
//! ```text
//! FAULTSIM_SEED=<seed from the log> cargo test -p hurricane-faultsim <test_name> -- --nocapture
//! ```
//!
//! Proptest cases print their own case seed and inputs on failure; the
//! schedule parameters in the panic message are the repro.
//!
//! [`RpcPort`]: hurricane_storage::RpcPort

pub mod net;
pub mod scenario;
pub mod store;

pub use net::{FaultAction, SimConfig, SimNet, SimTransport, TraceEvent};
pub use scenario::{
    assert_exactly_once, chunk_of, drain_all, scenario_seed, sweep_seeds, value_of, FaultSim,
};
pub use store::{DiskFaultConfig, DiskFaultCounts, DiskFaults, FaultyStore};
