//! ClickLog under skew: the paper's running example, end to end.
//!
//! Generates Zipf-skewed click logs at several skew levels, runs the
//! three-phase ClickLog application on the real threaded runtime, and
//! shows how task cloning reacts: the heavy region attracts clones while
//! results stay exactly equal to the serial reference.
//!
//! Run with: `cargo run --release --example clicklog_skew`

use hurricane_apps::clicklog::ClickLogJob;
use hurricane_core::HurricaneConfig;
use hurricane_storage::{ClusterConfig, StorageCluster};
use hurricane_workloads::clicklog::{ClickLogGen, ClickLogSpec};
use std::time::Duration;

fn main() {
    let job = ClickLogJob {
        regions: 8,
        num_ips: 1 << 16,
    };
    let config = HurricaneConfig {
        compute_nodes: 4,
        worker_slots: 2,
        chunk_size: 32 * 1024,
        clone_interval: Duration::from_millis(5),
        master_poll: Duration::from_millis(1),
        ..Default::default()
    };
    println!("ClickLog: 4M records, 8 regions, 4 compute nodes x 2 slots");
    for skew in [0.0, 0.5, 1.0] {
        let records: Vec<u32> = ClickLogGen::new(ClickLogSpec {
            num_ips: job.num_ips,
            regions: job.regions,
            skew,
            records: 4_000_000,
            seed: 0xCAFE,
        })
        .collect();
        let expected = job.reference(records.iter().copied());
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (counts, report) = job
            .run(cluster, config.clone(), records.iter().copied())
            .expect("clicklog run");
        assert_eq!(counts, expected, "engine must match serial reference");
        let imbalance = {
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap().max(&1) as f64;
            max / min
        };
        println!(
            "s={skew}: elapsed {:>7.1?}  distinct-count imbalance {:>6.1}x  clones {:>2}  merges {:>2}",
            report.elapsed, imbalance, report.total_clones, report.merges_run
        );
        println!("   per-region distinct counts: {counts:?}");
        for entry in &report.clone_log {
            println!("   {entry}");
        }
    }
    println!("(results verified against the single-threaded reference at every skew)");
}
