//! Property pin for the streaming keyed merge (`merges` module doc): a
//! [`KeyedMerge`] whose partials all strictly ascend streams them in one
//! k-way pass, and every other merge takes the table path; both must
//! write the bytes an owned reference writes when it folds every record
//! in the order the readers deliver them.
//!
//! The fold concatenates `Vec`s, which is associative but not
//! commutative, so a path that folds a key's values in any order but
//! delivery order (partial by partial, each partial's chunks as its
//! reader hands them over) writes different bytes. The partials are
//! spread over 1 and 3 storage nodes: on 3, a partial's chunks come back
//! in storage order, not in the order they were written.

use hurricane_common::BagId;
use hurricane_core::merges::KeyedMerge;
use hurricane_core::task::{BagReader, BagWriter, SpillSink};
use hurricane_core::{EngineError, MergeLogic};
use hurricane_format::{decode_all, SeqView};
use hurricane_storage::{BagClient, ClusterConfig, RpcPort, StorageCluster};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Rec = (u32, Vec<u32>);

/// Spill sink over the partials' cluster: runs pinned to node 0 so their
/// chunks read back in insertion order.
struct PinnedSink {
    cluster: Arc<StorageCluster>,
    chunk_size: usize,
    seed: u64,
}

impl SpillSink for PinnedSink {
    fn create_run(&mut self) -> Result<BagWriter, EngineError> {
        let bag = self.cluster.create_bag();
        self.seed += 1;
        let client = BagClient::new(self.cluster.clone(), bag, self.seed).with_pinned_node(0);
        Ok(BagWriter::open_batched_client(client, self.chunk_size, 1))
    }

    fn open_run(&mut self, bag: BagId) -> Result<BagReader, EngineError> {
        self.cluster.seal_bag(bag)?;
        self.seed += 1;
        Ok(BagReader::open(
            self.cluster.clone(),
            bag,
            self.seed,
            1,
            None,
        ))
    }

    fn release_run(&mut self, bag: BagId) -> Result<(), EngineError> {
        RpcPort::inline(self.cluster.clone()).collect_bag(bag)?;
        Ok(())
    }
}

/// How one run reconciles the partials.
#[derive(Debug, Clone, Copy)]
enum How {
    /// `KeyedMerge::merge_bounded` at this budget.
    Keyed(u64),
    /// The owned reference: every record decoded and folded into a
    /// `BTreeMap` in delivery order, then written in key order.
    Reference,
}

/// The partial shapes a merge meets.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Each partial a strictly ascending subset of the keys.
    Ascending,
    /// Partial `p` holds the keys at positions `≡ p` modulo the partial
    /// count: interleaved across partials, disjoint between them.
    Interleaved,
    /// Overlapping windows of the key range, each ascending.
    Overlapping,
    /// Ascending, but the first partial repeats one key: not strictly
    /// ascending, so the table path.
    Duplicated,
    /// Each partial's keys in descending order: the table path.
    Descending,
}

const SHAPES: [Shape; 5] = [
    Shape::Ascending,
    Shape::Interleaved,
    Shape::Overlapping,
    Shape::Duplicated,
    Shape::Descending,
];

/// Builds `parts` partials of `shape` over `keys` (sorted, distinct).
/// Every record's value is one element naming the record, so the output
/// shows the order each key's values were folded in.
fn shaped(shape: Shape, parts: usize, keys: &[u32], mask: &[u8]) -> Vec<Vec<Rec>> {
    let n = keys.len();
    let picked = |p: usize| -> Vec<u32> {
        match shape {
            Shape::Interleaved => keys.iter().copied().skip(p).step_by(parts).collect(),
            Shape::Overlapping => {
                let (lo, hi) = (p * n / (parts + 1), ((p + 2) * n).div_ceil(parts + 1));
                keys[lo..hi.min(n)].to_vec()
            }
            _ => keys
                .iter()
                .zip(mask.iter().cycle())
                .filter(|&(_, m)| m >> p & 1 == 1)
                .map(|(&k, _)| k)
                .collect(),
        }
    };
    (0..parts)
        .map(|p| {
            let mut ks = picked(p);
            match shape {
                Shape::Duplicated if p == 0 && !ks.is_empty() => {
                    let mid = ks.len() / 2;
                    ks.insert(mid, ks[mid]);
                }
                Shape::Descending => ks.reverse(),
                _ => {}
            }
            ks.into_iter()
                .enumerate()
                .map(|(i, k)| (k, vec![(p * 100_000 + i) as u32]))
                .collect()
        })
        .collect()
}

fn concat(acc: &mut Vec<u32>, v: SeqView<'_, u32>) {
    acc.extend(v.iter());
}

/// Writes `parts` into sealed bags on `nodes` storage nodes and runs
/// `how` over them into a bag on a one-node cluster, which reads back in
/// write order. Returns the output's chunks and the partials' bytes.
/// Every run draws the same seeds, so its readers deliver the chunks in
/// the same order.
fn run(nodes: usize, chunk_size: usize, parts: &[Vec<Rec>], how: How) -> (Vec<Vec<u8>>, u64) {
    let cluster = StorageCluster::new(nodes, ClusterConfig::default());
    let mut held = 0;
    let mut readers: Vec<BagReader> = parts
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open(cluster.clone(), bag, i as u64, chunk_size);
            for rec in recs {
                w.write_record(rec).unwrap();
            }
            w.flush().unwrap();
            held += w.bytes_written();
            cluster.seal_bag(bag).unwrap();
            BagReader::open(cluster.clone(), bag, 1000 + i as u64, 4, None)
        })
        .collect();
    let sink_cluster = StorageCluster::new(1, ClusterConfig::default());
    let out_bag = sink_cluster.create_bag();
    // Merged records outgrow the input's (their values concatenate).
    let mut out = BagWriter::open(sink_cluster.clone(), out_bag, 77, chunk_size.max(128));
    match how {
        How::Keyed(budget) => {
            let mut sink = PinnedSink {
                cluster: cluster.clone(),
                chunk_size,
                seed: 9000,
            };
            KeyedMerge::<u32, Vec<u32>, _>::folding(concat)
                .merge_bounded(0, &mut readers, &mut out, budget, &mut sink)
                .unwrap();
        }
        How::Reference => {
            let mut table: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for r in &mut readers {
                while let Some(chunk) = r.next_chunk().unwrap() {
                    for (k, v) in decode_all::<Rec>(&chunk).unwrap() {
                        table.entry(k).or_default().extend(v);
                    }
                }
            }
            for rec in table {
                out.write_record(&rec).unwrap();
            }
        }
    }
    out.flush().unwrap();
    sink_cluster.seal_bag(out_bag).unwrap();
    let chunks = RpcPort::inline(sink_cluster)
        .snapshot_bag(out_bag)
        .unwrap()
        .iter()
        .map(|c| c.bytes().to_vec())
        .collect();
    (chunks, held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_merge_agrees_with_table_path(
        keys in prop::collection::vec(0u32..20_000, 1..160),
        mask in prop::collection::vec(1u8..8, 1..64),
        parts in 1usize..4,
    ) {
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        for shape in SHAPES {
            let partials = shaped(shape, parts, &keys, &mask);
            for nodes in [1, 3] {
                for chunk_size in [24, 64, 200, 4096] {
                    let (want, held) = run(nodes, chunk_size, &partials, How::Reference);
                    // The default budget (streams every ascending shape),
                    // one byte below the held partials (the table path,
                    // entered at the last chunk), and nothing (the table
                    // path from the first chunk, spilling every chunk).
                    for budget in [u64::MAX, held.saturating_sub(1), 0] {
                        let (got, _) = run(nodes, chunk_size, &partials, How::Keyed(budget));
                        prop_assert_eq!(
                            &got,
                            &want,
                            "{:?} over {} nodes, chunk {}, budget {}",
                            shape,
                            nodes,
                            chunk_size,
                            budget
                        );
                    }
                }
            }
        }
    }
}
