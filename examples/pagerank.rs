//! PageRank over an RMAT power-law graph on the Hurricane runtime.
//!
//! Five unrolled iterations over a 65536-vertex RMAT graph. The init task
//! decodes the varint edge list once, re-encodes it as fixed-width
//! `(FixedU32, FixedU32)` pairs and splats each chunk of those to the five
//! iterations' edge copies, so no iteration decodes a varint; each copy is
//! collected once its iteration completes. The skewed degree distribution
//! concentrates edge traffic in a few vertex ranges, so busy tasks ask
//! for clones; the printed clone log shows what Eq. 2 made of each
//! request (an iteration's clone would have to repay a rank-snapshot
//! fold and a keyed contribution-sum merge, which streams the clones'
//! ascending partials in one pass).
//!
//! Run with: `cargo run --release --example pagerank`

use hurricane_apps::pagerank::PageRankJob;
use hurricane_core::HurricaneConfig;
use hurricane_storage::{ClusterConfig, StorageCluster};
use hurricane_workloads::rmat::{RmatGen, RmatSpec};
use std::time::Duration;

fn main() {
    let vertices = 1u32 << 16;
    let spec = RmatSpec {
        scale: 16,
        edges: 16 * (1 << 16),
        seed: 0x9A9E,
    };
    let edges: Vec<(u32, u32)> = RmatGen::new(spec)
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    let job = PageRankJob {
        vertices,
        iterations: 5,
    };
    let config = HurricaneConfig {
        compute_nodes: 4,
        worker_slots: 2,
        chunk_size: 32 * 1024,
        clone_interval: Duration::from_millis(5),
        master_poll: Duration::from_millis(1),
        ..Default::default()
    };
    println!(
        "PageRank: RMAT-16 ({} vertices, {} edges), 5 iterations",
        vertices,
        edges.len()
    );
    let expected = job.reference(&edges);
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (ranks, report) = job.run(cluster, config, &edges).expect("pagerank run");
    let max_err = ranks
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let mut top: Vec<(usize, f64)> = ranks.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "elapsed {:?}  clones {}  merges {}  max error vs reference {max_err:.2e}",
        report.elapsed, report.total_clones, report.merges_run
    );
    println!("clone requests ({} refused):", report.clone_rejections);
    for entry in &report.clone_log {
        println!("  {entry}");
    }
    println!("top-5 vertices by rank:");
    for (v, r) in top.iter().take(5) {
        println!("  v{v:<6} {r:.6}");
    }
    assert!(max_err < 1e-9, "engine must match the reference iteration");
}
