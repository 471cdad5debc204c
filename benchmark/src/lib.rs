//! End-to-end job benchmark for the Hurricane reproduction.
//!
//! Six workloads, four end-to-end metrics each, and a traced mode that
//! attributes a job's time to the layers (crates) it passes through —
//! all measured from outside, through the crates' public functions and
//! counters. `README.md` in this directory is the manual.

pub mod harness;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
