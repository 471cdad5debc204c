//! Quickstart: build a two-task Hurricane application from scratch.
//!
//! A word-frequency pipeline: task `tokenize` maps lines to words, task
//! `count` aggregates per-word counts with a keyed merge so that clones
//! of the counting task reconcile automatically.
//!
//! Run with: `cargo run --example quickstart`

use hurricane_core::graph::GraphBuilder;
use hurricane_core::merges::KeyedMerge;
use hurricane_core::task::TaskCtx;
use hurricane_core::{HurricaneApp, HurricaneConfig};
use hurricane_storage::{ClusterConfig, StorageCluster};

fn main() {
    // 1. Declare the dataflow graph: bags are circles of data, tasks are
    //    the code between them (paper §2.1).
    let mut g = GraphBuilder::new();
    let lines = g.source("lines");
    let words = g.bag("words");
    let counts = g.bag("counts");

    g.task("tokenize", &[lines], &[words], |ctx: &mut TaskCtx| {
        while let Some(batch) = ctx.next_records::<String>(0)? {
            for line in batch {
                for word in line.split_whitespace() {
                    ctx.write_record(0, &word.to_lowercase())?;
                }
            }
        }
        Ok(())
    });

    // The counting task declares a merge: if Hurricane clones it under
    // load, each clone's partial counts are reconciled by summing values
    // of equal keys — no sorting, no shuffling (paper §2.3).
    g.task_with_merge(
        "count",
        &[words],
        &[counts],
        |ctx: &mut TaskCtx| {
            let mut table = std::collections::HashMap::<String, u64>::new();
            while let Some(batch) = ctx.next_records::<String>(0)? {
                for word in batch {
                    *table.entry(word).or_insert(0) += 1;
                }
            }
            for (word, n) in table {
                ctx.write_record(0, &(word, n))?;
            }
            Ok(())
        },
        KeyedMerge::<String, u64, _>::new(|a, b| a + b),
    );

    // 2. Deploy on a storage cluster (4 in-process storage nodes) and
    //    fill the source bag.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, HurricaneConfig::default())
        .expect("deploy");
    let corpus = [
        "the quick brown fox jumps over the lazy dog",
        "the dog barks",
        "a quick dog",
    ];
    app.fill_source(lines, corpus.iter().map(|s| s.to_string()))
        .expect("fill");

    // 3. Run and read the sink.
    let report = app.run().expect("run");
    let mut result: Vec<(String, u64)> = app.read_records(counts).expect("read");
    result.sort();
    println!(
        "word counts ({} clones, {:?}):",
        report.total_clones, report.elapsed
    );
    for (word, n) in &result {
        println!("  {word:<8} {n}");
    }
    let mut expected = std::collections::BTreeMap::<String, u64>::new();
    for word in corpus.iter().flat_map(|line| line.split_whitespace()) {
        *expected.entry(word.to_lowercase()).or_insert(0) += 1;
    }
    assert_eq!(result, expected.into_iter().collect::<Vec<_>>());
    println!("OK: every count equals a sequential count of the corpus");
}
