//! Experiment implementations, one function per paper artifact.
//!
//! All cluster-scale experiments run on the deterministic simulator with
//! the paper's testbed parameters ([`ClusterSpec::paper`]); laptop-scale
//! experiments run the real threaded engine. Functions return their data
//! so the regression tests in `tests/` can assert the paper's qualitative
//! shapes, and print the paper-vs-measured comparison.

use crate::output;
use hurricane_sim::apps::{
    clicklog_app, clicklog_app_with, clicklog_fig6_app, hashjoin_app, pagerank_app,
    storage_scaling_bandwidth,
};
use hurricane_sim::baselines::{
    best_static_run, indivisible_partitions, weighted_partitions, StaticEngineSpec, StaticOutcome,
    StaticPhase,
};
use hurricane_sim::engine::simulate;
use hurricane_sim::spec::{
    ClusterSpec, CrashEvent, DataPlacement, GcModel, HurricaneOpts, MasterCrashEvent,
};
use hurricane_storage::batch;
use hurricane_workloads::{RegionWeights, ZipfSampler};

/// GB in bytes as f64.
const GB: f64 = 1e9;

/// The Table 1 / Figure 5 input sizes (total bytes; the paper quotes
/// per-machine sizes of 10 MB … 100 GB on 32 machines).
pub const SIZES: [(&str, f64); 5] = [
    ("320MB", 0.32 * GB),
    ("3.2GB", 3.2 * GB),
    ("32GB", 32.0 * GB),
    ("320GB", 320.0 * GB),
    ("3.2TB", 3200.0 * GB),
];

/// Paper Table 1 runtimes (seconds) for the sizes above.
pub const PAPER_TABLE1: [f64; 5] = [5.7, 8.9, 22.8, 90.0, 959.0];

/// The skew parameters swept throughout §5.
pub const SKEWS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

/// Number of ClickLog regions in every experiment.
pub const REGIONS: usize = 32;

fn ladder(s: f64) -> RegionWeights {
    RegionWeights::paper_ladder(REGIONS, s)
}

/// Peak GC throughput loss for the ≥100 GB/machine points (paper §5.1:
/// "half of this overhead is due to desynchronized garbage collection
/// pauses at storage nodes"; calibrated so the s = 1, 100 GB/machine
/// point lands near the paper's 2.4×). Desynchronized pauses hurt in
/// proportion to how much the run leans on peak tail throughput, so the
/// loss is scaled by the skew parameter.
pub const GC_PEAK_LOSS: f64 = 0.45;

fn opts_for(input_bytes: f64, skew: f64) -> HurricaneOpts {
    let mut o = HurricaneOpts::default();
    if skew > 0.0 && input_bytes >= 3000.0 * GB {
        o.gc = Some(GcModel {
            throughput_loss: GC_PEAK_LOSS * skew,
            only_when_spilling: true,
        });
    }
    o
}

// ----------------------------------------------------------------------
// Table 1
// ----------------------------------------------------------------------

/// Table 1: ClickLog runtime over uniform input, 320 MB → 3.2 TB.
pub fn table1() -> Vec<(String, f64)> {
    let cluster = ClusterSpec::paper();
    let uniform = RegionWeights::uniform(REGIONS);
    let mut rows = Vec::new();
    output::banner(
        "Table 1",
        "ClickLog runtime over a uniform input (32 machines)",
    );
    output::row(&["input".into(), "paper".into(), "measured".into()]);
    for (i, &(label, bytes)) in SIZES.iter().enumerate() {
        let r = simulate(
            &clicklog_app(bytes, &uniform),
            &cluster,
            &HurricaneOpts::default(),
        );
        output::row(&[
            label.into(),
            output::secs(PAPER_TABLE1[i]),
            output::secs(r.total_secs),
        ]);
        rows.push((label.to_string(), r.total_secs));
    }
    rows
}

// ----------------------------------------------------------------------
// Figure 5
// ----------------------------------------------------------------------

/// Figure 5: ClickLog slowdown (normalized to uniform) vs skew × size.
/// Returns `[size][skew] -> normalized runtime`.
pub fn fig5() -> Vec<Vec<f64>> {
    let cluster = ClusterSpec::paper();
    let uniform = RegionWeights::uniform(REGIONS);
    let mut matrix = Vec::new();
    output::banner(
        "Figure 5",
        "ClickLog runtime with increasing skew, normalized to uniform (paper: ≤2.4x)",
    );
    let mut header = vec!["input/machine".to_string()];
    header.extend(SKEWS.iter().map(|s| format!("s={s}")));
    output::row(&header);
    for &(label, bytes) in &SIZES {
        let base = simulate(
            &clicklog_app(bytes, &uniform),
            &cluster,
            &opts_for(bytes, 0.0),
        )
        .total_secs;
        let mut row_vals = Vec::new();
        let mut cols = vec![label.to_string()];
        for &s in &SKEWS {
            let w = if s == 0.0 { uniform.clone() } else { ladder(s) };
            let r = simulate(&clicklog_app(bytes, &w), &cluster, &opts_for(bytes, s));
            let norm = r.total_secs / base;
            cols.push(format!("{norm:.2}x"));
            row_vals.push(norm);
        }
        output::row(&cols);
        matrix.push(row_vals);
    }
    println!("(paper reference: worst case 2.4x at 100GB/machine, s=1; 1.24x at 1GB/machine)");
    matrix
}

// ----------------------------------------------------------------------
// Figure 6
// ----------------------------------------------------------------------

/// One Figure 6 data point.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Phase-2 partition count.
    pub partitions: usize,
    /// Hurricane total runtime (s).
    pub hurricane: f64,
    /// HurricaneNC (no cloning) total runtime (s).
    pub nc: f64,
}

/// Figure 6: Hurricane vs HurricaneNC with increasing partition count
/// (32 GB input, s = 1), plus the Amdahl best-case slowdown reference.
pub fn fig6() -> Vec<Fig6Point> {
    let cluster = ClusterSpec::paper();
    let num_keys = 1 << 20;
    output::banner(
        "Figure 6",
        "Hurricane vs HurricaneNC, 32GB input, s=1, partitions 32..4096",
    );
    output::row(&[
        "partitions".into(),
        "Hurricane".into(),
        "HurricaneNC".into(),
        "Amdahl-bound".into(),
    ]);
    let mut points = Vec::new();
    for parts in [32usize, 64, 128, 256, 512, 1024, 2048, 4096] {
        let app = clicklog_fig6_app(32.0 * GB, num_keys, 1.0, parts);
        let h = simulate(&app, &cluster, &HurricaneOpts::default());
        let nc = simulate(&app, &cluster, &HurricaneOpts::no_cloning());
        let masses = hurricane_workloads::zipf::region_masses(num_keys, parts, 1.0);
        let amdahl = hurricane_workloads::zipf::amdahl_slowdown(
            hurricane_workloads::zipf::largest_fraction(&masses),
            cluster.machines,
        );
        output::row(&[
            parts.to_string(),
            output::secs(h.total_secs),
            output::secs(nc.total_secs),
            format!("{amdahl:.1}x"),
        ]);
        points.push(Fig6Point {
            partitions: parts,
            hurricane: h.total_secs,
            nc: nc.total_secs,
        });
    }
    points
}

// ----------------------------------------------------------------------
// Figures 7 & 8
// ----------------------------------------------------------------------

/// One configuration's per-phase runtimes for Figures 7 and 8.
#[derive(Debug, Clone)]
pub struct ConfigPoint {
    /// Configuration label (e.g. "c=on,spread").
    pub config: &'static str,
    /// Phase 1 runtime per skew value (s).
    pub phase1: Vec<f64>,
    /// Phase 2 runtime per skew value (s).
    pub phase2: Vec<f64>,
}

/// Figures 7/8: cloning {off,on} × data {local,spread} on 8 machines with
/// 80 GB of input, per-phase runtimes across the skew sweep.
pub fn fig7_8() -> Vec<ConfigPoint> {
    let cluster = ClusterSpec::paper_scaled(8);
    output::banner(
        "Figures 7 & 8",
        "ClickLog phase runtimes by configuration (8 machines, 80GB)",
    );
    let configs: [(&'static str, bool, DataPlacement); 4] = [
        ("c=off,local", false, DataPlacement::Local),
        ("c=off,spread", false, DataPlacement::Spread),
        ("c=on,local", true, DataPlacement::Local),
        ("c=on,spread", true, DataPlacement::Spread),
    ];
    let mut out = Vec::new();
    for (name, cloning, placement) in configs {
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        for &s in &SKEWS {
            let w = if s == 0.0 {
                RegionWeights::uniform(REGIONS)
            } else {
                ladder(s)
            };
            let app = clicklog_app_with(80.0 * GB, &w, placement, true);
            let opts = if cloning {
                HurricaneOpts::default()
            } else {
                HurricaneOpts::no_cloning()
            };
            let r = simulate(&app, &cluster, &opts);
            p1.push(r.phase_secs.get("phase1").copied().unwrap_or(0.0));
            p2.push(r.phase_secs.get("phase2").copied().unwrap_or(0.0));
        }
        let fmt_vec = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join("/")
        };
        output::row(&[
            name.into(),
            format!("phase1[{}]s", fmt_vec(&p1)),
            format!("phase2[{}]s", fmt_vec(&p2)),
        ]);
        out.push(ConfigPoint {
            config: name,
            phase1: p1,
            phase2: p2,
        });
    }
    println!("(columns are skews 0 / 0.2 / 0.5 / 0.8 / 1.0)");
    out
}

// ----------------------------------------------------------------------
// Figure 9 / Figure 11
// ----------------------------------------------------------------------

/// Figure 9: aggregate throughput over time, 320 GB, s = 1.
pub fn fig9() -> hurricane_sim::SimResult {
    let cluster = ClusterSpec::paper();
    let app = clicklog_app(320.0 * GB, &ladder(1.0));
    let r = simulate(&app, &cluster, &HurricaneOpts::default());
    output::banner(
        "Figure 9",
        "ClickLog aggregate throughput over time, 320GB, s=1 (cloning ramp)",
    );
    output::strip_chart(&r.timeline.bucketize(5.0), 48);
    println!(
        "clones created: {}  peak concurrent workers: {}  peak single-task instances: {}",
        r.total_clones, r.peak_workers, r.peak_task_instances
    );
    println!("(paper: ramp to 32 clones in phase 1, 26 clones in the last region, merge tail)");
    r
}

/// Figure 11: throughput with two compute-node crashes and two master
/// crashes (paper: master recovery < 1 s, node crash costs a partial
/// restart).
pub fn fig11() -> hurricane_sim::SimResult {
    let cluster = ClusterSpec::paper();
    let app = clicklog_app(320.0 * GB, &RegionWeights::uniform(REGIONS));
    let opts = HurricaneOpts {
        crashes: vec![
            CrashEvent {
                at: 20.0,
                node: 3,
                back_at: Some(25.0),
            },
            CrashEvent {
                at: 80.0,
                node: 7,
                back_at: Some(85.0),
            },
        ],
        master_crashes: vec![
            MasterCrashEvent {
                at: 45.0,
                recovery_secs: 1.0,
            },
            MasterCrashEvent {
                at: 105.0,
                recovery_secs: 1.0,
            },
        ],
        ..HurricaneOpts::default()
    };
    let r = simulate(&app, &cluster, &opts);
    output::banner(
        "Figure 11",
        "Throughput with node crashes (t=20s, 80s) and master crashes (t=45s, 105s)",
    );
    output::strip_chart(&r.timeline.bucketize(5.0), 48);
    println!(
        "total runtime: {} (fault-free: see Table 1's 320GB row)",
        output::secs(r.total_secs)
    );
    r
}

// ----------------------------------------------------------------------
// Figure 10 / storage scaling / Eq. 1
// ----------------------------------------------------------------------

/// Figure 10: ClickLog phase-1 runtime vs batching factor, normalized to
/// b = 1. Returns `(b, normalized_runtime)` pairs.
pub fn fig10() -> Vec<(u32, f64)> {
    let cluster = ClusterSpec::paper();
    let uniform = RegionWeights::uniform(REGIONS);
    output::banner(
        "Figure 10",
        "Phase 1 runtime vs batching factor b, normalized to b=1 (paper: b=10 ≈ 33% faster)",
    );
    let mut base = None;
    let mut rows = Vec::new();
    output::row(&["b".into(), "phase1".into(), "normalized".into()]);
    for b in [1u32, 2, 3, 5, 10, 16, 32] {
        let opts = HurricaneOpts {
            batch_factor: b,
            ..HurricaneOpts::default()
        };
        let r = simulate(&clicklog_app(320.0 * GB, &uniform), &cluster, &opts);
        let p1 = r.phase_secs.get("phase1").copied().unwrap_or(r.total_secs);
        let base_v = *base.get_or_insert(p1);
        output::row(&[
            format!("b={b}"),
            output::secs(p1),
            format!("{:.2}", p1 / base_v),
        ]);
        rows.push((b, p1 / base_v));
    }
    rows
}

/// §5.2 storage scaling: aggregate read/write bandwidth for 1..32 nodes
/// (paper: 330 MB/s → 10.53 GB/s read, 31.9× for 32× nodes).
pub fn storage_scaling() -> Vec<(u32, f64)> {
    output::banner(
        "Storage scaling (§5.2)",
        "Aggregate storage bandwidth vs node count (b=10)",
    );
    output::row(&["nodes".into(), "bandwidth".into(), "speedup".into()]);
    let mut rows = Vec::new();
    let single = storage_scaling_bandwidth(330e6, 1, 10);
    let mut nodes = 1u32;
    while nodes <= 32 {
        let bw = storage_scaling_bandwidth(330e6, nodes, 10);
        output::row(&[
            nodes.to_string(),
            format!("{:.2}GB/s", bw / 1e9),
            format!("{:.1}x", bw / single),
        ]);
        rows.push((nodes, bw));
        nodes *= 2;
    }
    println!("(paper: 10.53GB/s read and 10.39GB/s write at 32 nodes, 31.9x / 31.7x)");
    rows
}

/// Eq. 1: analytic utilization vs Monte-Carlo simulation.
pub fn utilization_table() -> Vec<(u32, u32, f64, f64)> {
    output::banner(
        "Eq. 1",
        "Storage utilization ρ(b,m) = 1 − (1 − 1/m)^(bm): analytic vs Monte-Carlo",
    );
    output::row(&[
        "b".into(),
        "m".into(),
        "analytic".into(),
        "simulated".into(),
    ]);
    let mut rng = hurricane_common::DetRng::new(0xE91);
    let mut rows = Vec::new();
    for &m in &[8u32, 32, 128, 1000] {
        for &b in &[1u32, 2, 3, 10] {
            let a = batch::utilization(b, m);
            let s = batch::simulate_utilization(b, m, 300, &mut rng);
            output::row(&[
                b.to_string(),
                m.to_string(),
                format!("{a:.3}"),
                format!("{s:.3}"),
            ]);
            rows.push((b, m, a, s));
        }
    }
    println!("(paper: 63% at b=1, 86% at b=2, 95% at b=3, >99% at b=10)");
    rows
}

// ----------------------------------------------------------------------
// Tables 2–4 and Figure 12 (system comparisons)
// ----------------------------------------------------------------------

/// ClickLog as a two-stage static job: divisible map over the raw input,
/// then one *indivisible* reduce partition per region (a region's
/// distinct-count must be computed by one task in a static engine).
pub fn clicklog_static_phases(total: f64, weights: &RegionWeights, n: usize) -> Vec<StaticPhase> {
    vec![
        StaticPhase {
            partitions: weighted_partitions(total, &[1.0], n),
            cpu_rate: 400e6,
            shuffled: true,
        },
        StaticPhase {
            partitions: weights.weights().iter().map(|&w| w * total).collect(),
            cpu_rate: 800e6,
            shuffled: false,
        },
    ]
}

/// Table 2: ClickLog on uniform input — Hurricane vs Spark vs Hadoop.
pub fn table2() -> Vec<(String, f64, StaticOutcome, StaticOutcome)> {
    let cluster = ClusterSpec::paper();
    let uniform = RegionWeights::uniform(REGIONS);
    output::banner(
        "Table 2",
        "ClickLog over uniform input: Hurricane vs Spark vs Hadoop",
    );
    output::row(&[
        "input".into(),
        "Hurricane".into(),
        "Spark".into(),
        "Hadoop".into(),
        "paper(H/S/Hd)".into(),
    ]);
    let paper = [(5.7, 8.2, 37.1), (22.8, 32.4, 50.3)];
    let mut rows = Vec::new();
    for (i, &(label, bytes)) in [("320MB", 0.32 * GB), ("32GB", 32.0 * GB)]
        .iter()
        .enumerate()
    {
        let h = simulate(
            &clicklog_app(bytes, &uniform),
            &cluster,
            &HurricaneOpts::default(),
        );
        let spark = best_static_run(
            |n| clicklog_static_phases(bytes, &uniform, n),
            &cluster,
            &StaticEngineSpec::spark(),
            3600.0,
        );
        let hadoop = best_static_run(
            |n| clicklog_static_phases(bytes, &uniform, n),
            &cluster,
            &StaticEngineSpec::hadoop(),
            3600.0,
        );
        output::row(&[
            label.to_string(),
            output::secs(h.total_secs),
            output::outcome(&spark),
            output::outcome(&hadoop),
            format!("{}/{}/{}", paper[i].0, paper[i].1, paper[i].2),
        ]);
        rows.push((label.to_string(), h.total_secs, spark, hadoop));
    }
    rows
}

/// One Figure 12 cell: a system's runtime normalized to its own uniform
/// runtime, or a crash/timeout marker.
#[derive(Debug, Clone)]
pub enum Fig12Cell {
    /// Finished; slowdown relative to that system's uniform runtime.
    Slowdown(f64),
    /// The run crashed (paper: negative bars).
    Crashed,
    /// The run exceeded one hour (paper: full bars).
    TimedOut,
}

/// Figure 12: skew slowdown for Hurricane / Spark / Hadoop at 320 MB and
/// 32 GB. Returns `[size][skew] -> (hurricane, spark, hadoop)`.
pub fn fig12() -> Vec<Vec<(f64, Fig12Cell, Fig12Cell)>> {
    let cluster = ClusterSpec::paper();
    let uniform = RegionWeights::uniform(REGIONS);
    output::banner(
        "Figure 12",
        "Slowdown vs own uniform runtime (paper: Spark crashes at high skew on 32GB)",
    );
    let mut out = Vec::new();
    for &(label, bytes) in &[("320MB", 0.32 * GB), ("32GB", 32.0 * GB)] {
        let h_base = simulate(
            &clicklog_app(bytes, &uniform),
            &cluster,
            &HurricaneOpts::default(),
        )
        .total_secs;
        let sp_base = best_static_run(
            |n| clicklog_static_phases(bytes, &uniform, n),
            &cluster,
            &StaticEngineSpec::spark(),
            3600.0,
        )
        .secs()
        .expect("uniform Spark finishes");
        let hd_base = best_static_run(
            |n| clicklog_static_phases(bytes, &uniform, n),
            &cluster,
            &StaticEngineSpec::hadoop(),
            3600.0,
        )
        .secs()
        .expect("uniform Hadoop finishes");
        let mut size_rows = Vec::new();
        for &s in &SKEWS {
            let w = if s == 0.0 { uniform.clone() } else { ladder(s) };
            let h = simulate(
                &clicklog_app(bytes, &w),
                &cluster,
                &HurricaneOpts::default(),
            )
            .total_secs
                / h_base;
            let cell = |o: StaticOutcome, base: f64| match o {
                StaticOutcome::Finished(v) => Fig12Cell::Slowdown(v / base),
                StaticOutcome::OutOfMemory => Fig12Cell::Crashed,
                StaticOutcome::TimedOut(_) => Fig12Cell::TimedOut,
            };
            let sp = cell(
                best_static_run(
                    |n| clicklog_static_phases(bytes, &w, n),
                    &cluster,
                    &StaticEngineSpec::spark(),
                    3600.0,
                ),
                sp_base,
            );
            let hd = cell(
                best_static_run(
                    |n| clicklog_static_phases(bytes, &w, n),
                    &cluster,
                    &StaticEngineSpec::hadoop(),
                    3600.0,
                ),
                hd_base,
            );
            let show = |c: &Fig12Cell| match c {
                Fig12Cell::Slowdown(v) => format!("{v:.1}x"),
                Fig12Cell::Crashed => "crash".into(),
                Fig12Cell::TimedOut => ">1h".into(),
            };
            output::row(&[
                format!("{label} s={s}"),
                format!("H={h:.2}x"),
                format!("Spark={}", show(&sp)),
                format!("Hadoop={}", show(&hd)),
            ]);
            size_rows.push((h, sp, hd));
        }
        out.push(size_rows);
    }
    out
}

/// Table 3: HashJoin — Hurricane vs Spark, two size pairs × two skews.
pub fn table3() -> Vec<(String, f64, StaticOutcome)> {
    let cluster = ClusterSpec::paper();
    output::banner(
        "Table 3",
        "HashJoin runtime (paper: H 56/89/519/1216s, Spark 81/1615/920/>12h)",
    );
    output::row(&[
        "join".into(),
        "skew".into(),
        "Hurricane".into(),
        "Spark".into(),
    ]);
    let num_keys = 1 << 14;
    let key_masses: Vec<Vec<f64>> = [0.0, 1.0]
        .iter()
        .map(|&s| {
            let z = ZipfSampler::new(num_keys, s);
            (0..num_keys).map(|k| z.pmf(k)).collect()
        })
        .collect();
    let mut rows = Vec::new();
    for &(small, large) in &[(3.2 * GB, 32.0 * GB), (32.0 * GB, 320.0 * GB)] {
        for (si, &s) in [0.0f64, 1.0].iter().enumerate() {
            let w = RegionWeights::zipf(1 << 16, REGIONS, s);
            let h = simulate(
                &hashjoin_app(small, large, &w),
                &cluster,
                &HurricaneOpts::default(),
            );
            let keys = &key_masses[si];
            let spark = best_static_run(
                |n| {
                    vec![
                        StaticPhase {
                            partitions: weighted_partitions(small + large, &[1.0], n),
                            cpu_rate: 300e6,
                            shuffled: true,
                        },
                        StaticPhase {
                            partitions: indivisible_partitions(large * 2.0, keys, n),
                            cpu_rate: 400e6,
                            shuffled: false,
                        },
                    ]
                },
                &cluster,
                &StaticEngineSpec::spark_join(),
                12.0 * 3600.0,
            );
            let label = format!("{:.1}GB ⋈ {:.0}GB", small / GB, large / GB);
            output::row(&[
                label.clone(),
                format!("s={s}"),
                output::secs(h.total_secs),
                output::outcome(&spark),
            ]);
            rows.push((format!("{label} s={s}"), h.total_secs, spark));
        }
    }
    rows
}

/// Table 4: PageRank (5 iterations) — Hurricane vs GraphX on RMAT graphs.
pub fn table4() -> Vec<(u32, f64, StaticOutcome)> {
    let cluster = ClusterSpec::paper();
    output::banner(
        "Table 4",
        "PageRank x5 iterations (paper: H 38/225/688s, GraphX 189/3007/>12h)",
    );
    output::row(&["graph".into(), "Hurricane".into(), "GraphX".into()]);
    let mut rows = Vec::new();
    for scale in [24u32, 27, 30] {
        let h = simulate(
            &pagerank_app(scale, 5, REGIONS),
            &cluster,
            &HurricaneOpts::default(),
        );
        let total = (hurricane_workloads::rmat::EDGE_FACTOR << scale) as f64 * 12.0;
        let gx = best_static_run(
            |n| {
                let parts = (n.next_power_of_two() / 2).clamp(128, 2048);
                let wts = hurricane_workloads::rmat::partition_edge_weights(scale, parts);
                (0..5)
                    .map(|_| StaticPhase {
                        partitions: wts.iter().map(|&w| w * total).collect(),
                        cpu_rate: 60e6,
                        shuffled: true,
                    })
                    .collect()
            },
            &cluster,
            &StaticEngineSpec::graphx(),
            12.0 * 3600.0,
        );
        output::row(&[
            format!("RMAT-{scale}"),
            output::secs(h.total_secs),
            output::outcome(&gx),
        ]);
        rows.push((scale, h.total_secs, gx));
    }
    rows
}

// ----------------------------------------------------------------------
// Ablations beyond the paper
// ----------------------------------------------------------------------

/// Clone-interval sensitivity (the paper fixes 2 s): 32 GB, s = 1.
pub fn ablation_clone_interval() -> Vec<(f64, f64)> {
    let cluster = ClusterSpec::paper();
    output::banner(
        "Ablation",
        "Clone-interval sensitivity, 32GB s=1 (paper fixes 2s)",
    );
    output::row(&["interval".into(), "runtime".into()]);
    let mut rows = Vec::new();
    for interval in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let opts = HurricaneOpts {
            clone_interval: interval,
            ..HurricaneOpts::default()
        };
        let r = simulate(&clicklog_app(32.0 * GB, &ladder(1.0)), &cluster, &opts);
        output::row(&[format!("{interval}s"), output::secs(r.total_secs)]);
        rows.push((interval, r.total_secs));
    }
    rows
}

/// Heuristic ablation: Eq. 2 vs an instance cap of 1 vs unbounded
/// cloning pressure (max instances = machines), on 32 GB s = 1.
pub fn ablation_instance_cap() -> Vec<(usize, f64)> {
    let cluster = ClusterSpec::paper();
    output::banner(
        "Ablation",
        "Max-instances cap, 32GB s=1 (paper clones up to one per machine)",
    );
    output::row(&["cap".into(), "runtime".into()]);
    let mut rows = Vec::new();
    for cap in [1usize, 2, 4, 8, 16, 32] {
        let opts = HurricaneOpts {
            max_instances: Some(cap),
            ..HurricaneOpts::default()
        };
        let r = simulate(&clicklog_app(32.0 * GB, &ladder(1.0)), &cluster, &opts);
        output::row(&[cap.to_string(), output::secs(r.total_secs)]);
        rows.push((cap, r.total_secs));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1();
        // Monotone growth, and within 2x of every paper point.
        for (i, (label, secs)) in rows.iter().enumerate() {
            let ratio = secs / PAPER_TABLE1[i];
            assert!(
                (0.5..2.0).contains(&ratio),
                "{label}: measured {secs:.1}s vs paper {} ({ratio:.2}x)",
                PAPER_TABLE1[i]
            );
            if i > 0 {
                assert!(secs > &rows[i - 1].1, "runtime must grow with input");
            }
        }
    }

    #[test]
    fn fig5_bounded_like_paper() {
        let m = fig5();
        for row in &m {
            for (j, &v) in row.iter().enumerate() {
                assert!(v >= 0.95, "slowdown below 1 at skew {}", SKEWS[j]);
                assert!(v < 2.8, "paper's worst case is 2.4x; got {v:.2}");
            }
            // Monotone-ish in skew: s=1 within each size is the worst.
            let max = row.iter().cloned().fold(0.0f64, f64::max);
            assert!((row[4] - max).abs() < 0.15 * max);
        }
    }

    #[test]
    fn fig6_cloning_beats_static_partitioning() {
        let pts = fig6();
        for p in &pts {
            assert!(
                p.hurricane <= p.nc * 1.05,
                "cloning should not lose at P={}",
                p.partitions
            );
        }
        // At coarse partitioning the gap is big.
        assert!(pts[0].nc > pts[0].hurricane * 1.2);
    }

    #[test]
    fn fig10_batch_sampling_helps_then_plateaus() {
        let rows = fig10();
        let b1 = rows[0].1;
        let b10 = rows.iter().find(|r| r.0 == 10).expect("b=10 row").1;
        assert!((b1 - 1.0).abs() < 1e-9);
        assert!(
            b10 < 0.8,
            "b=10 should be much faster than b=1 (paper: 33%), got {b10:.2}"
        );
        let b32 = rows.last().expect("rows").1;
        assert!((b32 - b10).abs() < 0.05, "plateau after b=10");
    }
}
