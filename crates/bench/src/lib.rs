//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! Each `src/bin/*.rs` binary reproduces one artifact and prints the
//! paper's reported rows next to this reproduction's measured values.
//! The heavy lifting lives here so the binaries stay thin and the
//! regression tests can call the same experiment functions.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — ClickLog runtime vs input size (uniform) |
//! | `table2` | Table 2 — ClickLog vs Spark vs Hadoop (uniform) |
//! | `table3` | Table 3 — HashJoin vs Spark |
//! | `table4` | Table 4 — PageRank vs GraphX |
//! | `fig5`   | Figure 5 — ClickLog slowdown vs skew × size |
//! | `fig6`   | Figure 6 — Hurricane vs HurricaneNC vs partition count |
//! | `fig7_8` | Figures 7/8 — cloning × placement ablation |
//! | `fig9`   | Figure 9 — throughput over time (cloning ramp) |
//! | `fig10`  | Figure 10 — batch-sampling factor sweep |
//! | `fig11`  | Figure 11 — throughput under crashes |
//! | `fig12`  | Figure 12 — skew slowdown, three systems |
//! | `storage_scaling` | §5.2 — storage bandwidth scaling 1→32 nodes |
//! | `utilization` | Eq. 1 — analytic vs Monte-Carlo utilization |
//! | `ablation_clone_interval` | extension — clone-interval sensitivity |

pub mod experiments;
pub mod output;
