//! An integer-tuple task under the whole engine at chunk sizes where the
//! run decoder's edge cases are the common case (PageRank's own test at
//! these sizes is beside its others, in `pagerank.rs`): with 24- and
//! 64-byte chunks a chunk holds a handful of records and much of it lies
//! inside the eight-byte tail guard (`hurricane_format::varint`) — with
//! cloning on, so clones split those chunks.

use hurricane_core::graph::GraphBuilder;
use hurricane_core::task::TaskCtx;
use hurricane_core::{HurricaneApp, HurricaneConfig};
use hurricane_storage::{ClusterConfig, StorageCluster};
use std::time::Duration;

#[test]
fn a_three_field_tuple_task_folds_to_the_sequential_sum() {
    // Mixed widths and a signed field, one to ten bytes each.
    let records: Vec<(u64, u32, i32)> = (0..4096u64)
        .map(|i| {
            let x = hurricane_common::SplitMix64::mix(i);
            (
                x >> (i % 64),
                (x >> 32) as u32 >> (i % 32),
                x as i32 >> (i % 31),
            )
        })
        .collect();
    // Wrapping addition commutes, so partial sums combine in any order.
    let fold = |sum: u64, (a, b, c): (u64, u32, i32)| {
        sum.wrapping_add(a)
            .wrapping_add(b as u64)
            .wrapping_add(c as u64)
    };
    let expected = records.iter().fold(0, |sum, &r| fold(sum, r));

    for chunk_size in [24, 64] {
        let mut g = GraphBuilder::new();
        let input = g.source("records");
        let partials = g.bag("partials");
        // Each clone sums the chunks it claimed; the default merge
        // concatenates the partial sums.
        g.task("sum", &[input], &[partials], move |ctx: &mut TaskCtx| {
            let mut sum = 0;
            ctx.for_each_record::<(u64, u32, i32), _>(0, |r| sum = fold(sum, r))?;
            ctx.write_record(0, &sum)
        });
        let graph = g.build().expect("graph is well-formed");
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let config = HurricaneConfig {
            compute_nodes: 4,
            worker_slots: 2,
            chunk_size,
            // A ping on every chunk: clones are requested from the start.
            clone_interval: Duration::ZERO,
            master_poll: Duration::from_millis(1),
            ..Default::default()
        };
        let mut app = HurricaneApp::deploy(graph, cluster, config).expect("deploy");
        app.fill_source(input, records.iter().copied())
            .expect("fill");
        app.run().expect("run");
        let got = app
            .read_records::<u64>(partials)
            .expect("read partials")
            .into_iter()
            .fold(0u64, u64::wrapping_add);
        assert_eq!(got, expected, "chunk_size {chunk_size}");
    }
}
