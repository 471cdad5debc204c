//! Property pin for the merge spill contract (`merges` module doc):
//! a bounded [`KeyedMerge`] must produce an output chunk stream
//! byte-identical to the unbounded in-memory path at *any* memory budget
//! — including budget 0, which spills after every input chunk — for any
//! chunk size and any skew of keys across partials.

use hurricane_common::BagId;
use hurricane_core::merges::KeyedMerge;
use hurricane_core::task::{BagReader, BagWriter, SpillSink};
use hurricane_core::{EngineError, MergeLogic};
use hurricane_storage::{BagClient, ClusterConfig, RpcPort, StorageCluster};
use proptest::prelude::*;
use std::sync::Arc;

/// Minimal spill sink over the test cluster: runs pinned to node 0 so
/// their chunks read back in insertion order.
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

/// Writes each partial's records into a sealed bag and returns readers.
fn build_partials(cluster: &Arc<StorageCluster>, parts: &[Vec<(u32, u64)>]) -> Vec<BagReader> {
    parts
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open(cluster.clone(), bag, i as u64, 256);
            for rec in recs {
                w.write_record(rec).unwrap();
            }
            w.flush().unwrap();
            cluster.seal_bag(bag).unwrap();
            BagReader::open(cluster.clone(), bag, 1000 + i as u64, 4, None)
        })
        .collect()
}

/// Runs `merge` unbounded and bounded over identical inputs; asserts the
/// output chunk streams are byte-equal.
fn assert_spill_agrees<M: MergeLogic>(
    merge: &M,
    parts: &[Vec<(u32, u64)>],
    budget: u64,
    chunk_size: usize,
) -> Result<(), proptest::TestCaseError> {
    let cluster = StorageCluster::new(2, ClusterConfig::default());
    let chunks_of = |bag| -> Vec<Vec<u8>> {
        cluster.seal_bag(bag).unwrap();
        RpcPort::inline(cluster.clone())
            .snapshot_bag(bag)
            .unwrap()
            .iter()
            .map(|c| c.bytes().to_vec())
            .collect()
    };

    let mut readers = build_partials(&cluster, parts);
    let plain_bag = cluster.create_bag();
    let mut out = BagWriter::open(cluster.clone(), plain_bag, 77, chunk_size);
    merge.merge(0, &mut readers, &mut out).unwrap();
    out.flush().unwrap();

    let mut readers = build_partials(&cluster, parts);
    let bounded_bag = cluster.create_bag();
    let mut out = BagWriter::open(cluster.clone(), bounded_bag, 77, chunk_size);
    let mut sink = PinnedSink {
        cluster: cluster.clone(),
        chunk_size,
        seed: 9000,
    };
    merge
        .merge_bounded(0, &mut readers, &mut out, budget, &mut sink)
        .unwrap();
    out.flush().unwrap();

    prop_assert_eq!(
        chunks_of(plain_bag),
        chunks_of(bounded_bag),
        "budget {} chunk_size {} diverged",
        budget,
        chunk_size
    );
    Ok(())
}

/// A budget between two growth steps of the table's byte account
/// (arena + entries + index) for `(u32 < 64, u64)` records: 16 one-byte
/// keys with 24-byte entries under a 32-slot index are 656 bytes, and
/// the 17th key doubles the index, to 937 — so this budget is crossed by
/// an index step alone, not by the entry that caused it.
const INDEX_STEP_BUDGET: u64 = 800;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spilled_merge_agrees_with_in_memory(
        parts in prop::collection::vec(
            prop::collection::vec((0u32..64, any::<u64>()), 0..160),
            1..4,
        ),
        budget in 0u64..1500,
        chunk_size in 48usize..320,
        folding in prop::bool::ANY,
    ) {
        // Both keyed merge logics — the owned combiner and the in-place
        // borrowed fold — under the same associative operation, at the
        // drawn budget and at one between two growth steps of the
        // table's byte account.
        for budget in [budget, INDEX_STEP_BUDGET] {
            if folding {
                let merge = KeyedMerge::<u32, u64, _>::folding(|acc, v: u64| {
                    *acc = acc.wrapping_add(v)
                });
                assert_spill_agrees(&merge, &parts, budget, chunk_size)?;
            } else {
                let merge =
                    KeyedMerge::<u32, u64, _>::new(|a: u64, b: u64| a.wrapping_add(b));
                assert_spill_agrees(&merge, &parts, budget, chunk_size)?;
            }
        }
    }

    #[test]
    fn descending_partials_still_emit_ascending(
        keys in prop::collection::vec(0u32..5000, 1..300),
        parts in 1usize..4,
        budget in 0u64..20_000,
        chunk_size in 48usize..320,
    ) {
        // Every partial written in *descending* key order — the opposite
        // of the ascending runs ordered task state produces, which the
        // emit's already-sorted shortcut must not mistake for one — with
        // keys wide enough (two-byte varints) that byte order and key
        // order differ. The unbounded output itself is held against an
        // owned reference, not only against the bounded path.
        let mut keys = keys;
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.dedup();
        let parts: Vec<Vec<(u32, u64)>> = (0..parts as u64)
            .map(|p| keys.iter().map(|&k| (k, p + 1)).collect())
            .collect();
        let merge = KeyedMerge::<u32, u64, _>::new(|a: u64, b: u64| a.wrapping_add(b));
        assert_spill_agrees(&merge, &parts, budget, chunk_size)?;

        // One storage node: a bag is FIFO per node, so the snapshot
        // below reads the output chunks in the order they were written.
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let mut readers = build_partials(&cluster, &parts);
        let out_bag = cluster.create_bag();
        let mut out = BagWriter::open(cluster.clone(), out_bag, 77, chunk_size);
        merge.merge(0, &mut readers, &mut out).unwrap();
        out.flush().unwrap();
        cluster.seal_bag(out_bag).unwrap();
        let got: Vec<(u32, u64)> = RpcPort::inline(cluster)
            .snapshot_bag(out_bag)
            .unwrap()
            .iter()
            .flat_map(|c| hurricane_format::decode_all::<(u32, u64)>(c).unwrap())
            .collect();
        let sum: u64 = (1..=parts.len() as u64).sum();
        let want: Vec<(u32, u64)> = keys.iter().rev().map(|&k| (k, sum)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn spill_every_record_still_agrees(
        parts in prop::collection::vec(
            prop::collection::vec((0u32..16, any::<u64>()), 1..80),
            1..3,
        ),
        chunk_size in 48usize..128,
    ) {
        // Budget 0: the table drains after every chunk — the worst case
        // the ISSUE calls "spill every record".
        let merge = KeyedMerge::<u32, u64, _>::new(|a: u64, b: u64| a.wrapping_add(b));
        assert_spill_agrees(&merge, &parts, 0, chunk_size)?;
    }
}
