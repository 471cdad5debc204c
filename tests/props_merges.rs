//! Property tests for the merge library: the clone-reconciliation
//! contract. For any way of splitting a record multiset across clone
//! partials, merging must produce what a single uncloned task would have.

use hurricane_core::merges::{ConcatMerge, KeyedMerge, ReduceMerge};
use hurricane_core::task::{BagReader, BagWriter, MergeLogic};
use hurricane_core::EngineError;
use hurricane_format::{decode_all, Record, SeqView};
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Splits `records` into `parts` partials per `assignment`, runs `merge`,
/// and returns the decoded output.
fn run_merge<T, M>(records: &[T], assignment: &[usize], parts: usize, merge: M) -> Vec<T>
where
    T: Record + Clone,
    M: MergeLogic,
{
    run_merge_chunked(records, assignment, parts, 256, merge)
}

/// [`run_merge`] with an explicit chunk capacity, so properties can vary
/// where chunk boundaries fall between records.
fn run_merge_chunked<T, M>(
    records: &[T],
    assignment: &[usize],
    parts: usize,
    chunk_size: usize,
    merge: M,
) -> Vec<T>
where
    T: Record + Clone,
    M: MergeLogic,
{
    run_merge_on(1, records, assignment, parts, chunk_size, merge)
}

/// [`run_merge_chunked`] with the partials spread over `nodes` storage
/// nodes. The output bag is on a one-node cluster of its own: bags are
/// unordered *across* nodes (chunks spread cyclically), so record order
/// in a multi-node bag is not observable, and a single node preserves
/// FIFO order, letting the sorted-output property be asserted exactly.
/// On more than one node a partial's chunks reach the merge in storage
/// order, not in the order they were written.
fn run_merge_on<T, M>(
    nodes: usize,
    records: &[T],
    assignment: &[usize],
    parts: usize,
    chunk_size: usize,
    merge: M,
) -> Vec<T>
where
    T: Record + Clone,
    M: MergeLogic,
{
    let cluster = StorageCluster::new(nodes, ClusterConfig::default());
    let mut writers: Vec<BagWriter> = (0..parts)
        .map(|i| {
            let bag = cluster.create_bag();
            BagWriter::open(cluster.clone(), bag, i as u64, chunk_size)
        })
        .collect();
    let bags: Vec<_> = writers.iter().map(|w| w.bag_id()).collect();
    for (i, rec) in records.iter().enumerate() {
        writers[assignment[i % assignment.len()] % parts]
            .write_record(rec)
            .unwrap();
    }
    for w in &mut writers {
        w.flush().unwrap();
    }
    for &b in &bags {
        cluster.seal_bag(b).unwrap();
    }
    let mut readers: Vec<BagReader> = bags
        .iter()
        .enumerate()
        .map(|(i, &b)| BagReader::open(cluster.clone(), b, 100 + i as u64, 4, None))
        .collect();
    let out_cluster = StorageCluster::new(1, ClusterConfig::default());
    let out_bag = out_cluster.create_bag();
    // The output capacity is generous: a merged record (e.g. a keyed
    // accumulator that concatenated many values) can be larger than any
    // input record, and output chunk boundaries are not under test.
    let mut out = BagWriter::open(out_cluster.clone(), out_bag, 999, 1 << 16);
    merge.merge(0, &mut readers, &mut out).unwrap();
    out.flush().unwrap();
    let chunks = RpcPort::inline(out_cluster).snapshot_bag(out_bag).unwrap();
    chunks
        .iter()
        .flat_map(|c| decode_all::<T>(c).unwrap())
        .collect()
}

/// A whole-partial merge written as a closure: collect every record
/// owned, then apply `finish` to produce the output stream.
fn collecting_closure_merge<T>(
    finish: impl Fn(Vec<T>) -> Vec<T> + Send + Sync + 'static,
) -> impl MergeLogic
where
    T: Record + Send + Sync + 'static,
{
    move |_out_idx: usize,
          partials: &mut [BagReader],
          out: &mut BagWriter|
          -> Result<(), EngineError> {
        let mut all = Vec::new();
        for p in partials {
            while let Some(chunk) = p.next_chunk()? {
                all.extend(decode_all::<T>(&chunk)?);
            }
        }
        for rec in finish(all) {
            out.write_record(&rec)?;
        }
        out.flush()?;
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ReduceMerge with `+` over any partition equals the full sum.
    #[test]
    fn reduce_sum_partition_invariant(
        records in prop::collection::vec(0u64..1_000_000, 1..100),
        assignment in prop::collection::vec(0usize..4, 1..32),
        parts in 1usize..5,
    ) {
        let got: Vec<u64> = run_merge(
            &records,
            &assignment,
            parts,
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        prop_assert_eq!(got, vec![records.iter().sum::<u64>()]);
    }

    /// Paper §2.3: a merge need not be commutative or associative,
    /// because it sees whole partial outputs. A closure merge that sorts
    /// every record equals the sorted input, and a closure median equals
    /// the median of the whole input, however the records are split.
    #[test]
    fn whole_partial_closure_merges_partition_invariant(
        records in prop::collection::vec(any::<u32>(), 0..150),
        assignment in prop::collection::vec(0usize..4, 1..32),
        parts in 1usize..5,
    ) {
        let mut sorted = records.clone();
        sorted.sort_unstable();
        let got: Vec<u32> = run_merge(
            &records,
            &assignment,
            parts,
            collecting_closure_merge::<u32>(|mut all| {
                all.sort_unstable();
                all
            }),
        );
        prop_assert_eq!(got, sorted.clone());

        let got: Vec<u32> = run_merge(
            &records,
            &assignment,
            parts,
            collecting_closure_merge::<u32>(|mut all| {
                if all.is_empty() {
                    return all;
                }
                let mid = (all.len() - 1) / 2;
                vec![*all.select_nth_unstable(mid).1]
            }),
        );
        let median = match sorted.len() {
            0 => vec![],
            n => vec![sorted[(n - 1) / 2]],
        };
        prop_assert_eq!(got, median);
    }

    /// KeyedMerge with `+` equals a hash-aggregation of all records.
    #[test]
    fn keyed_merge_partition_invariant(
        records in prop::collection::vec((0u32..20, 0u64..1000), 1..150),
        assignment in prop::collection::vec(0usize..4, 1..32),
        parts in 1usize..5,
    ) {
        let got: Vec<(u32, u64)> = run_merge(
            &records,
            &assignment,
            parts,
            KeyedMerge::<u32, u64, _>::new(|a, b| a + b),
        );
        let mut expect = std::collections::BTreeMap::<u32, u64>::new();
        for &(k, v) in &records {
            *expect.entry(k).or_insert(0) += v;
        }
        let expect: Vec<(u32, u64)> = expect.into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    /// ConcatMerge preserves the record multiset.
    #[test]
    fn concat_partition_invariant(
        records in prop::collection::vec(any::<u64>(), 0..150),
        assignment in prop::collection::vec(0usize..4, 1..32),
        parts in 1usize..5,
    ) {
        let mut got: Vec<u64> = run_merge(&records, &assignment, parts, ConcatMerge);
        let mut expect = records.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// Borrowed merges vs owned-decode references.
//
// The live merges fold borrowed `RecordView`s straight out of chunk
// bytes (owning only accumulators / survivors). Each reference below is
// the textbook owned implementation: decode every chunk with
// `decode_all` into owned records, then apply the merge semantics on
// owned values. For every way of assigning records to partials and
// every chunk-boundary placement, the two must produce identical
// output streams (multiset-identical for ConcatMerge, the one unordered
// merge).
// ---------------------------------------------------------------------

/// Owned-decode reference for `KeyedMerge`: the pre-borrowed-plane
/// implementation — BTreeMap keyed on decoded keys, owned combiner,
/// emitted in key order.
fn owned_keyed_reference<K, V>(
    combine: impl Fn(V, V) -> V + Send + Sync + 'static,
) -> impl MergeLogic
where
    K: Record + Ord + Send + Sync + 'static,
    V: Record + Send + Sync + 'static,
{
    move |_out_idx: usize,
          partials: &mut [BagReader],
          out: &mut BagWriter|
          -> Result<(), EngineError> {
        let mut table: BTreeMap<K, V> = BTreeMap::new();
        for p in partials {
            while let Some(chunk) = p.next_chunk()? {
                for (k, v) in decode_all::<(K, V)>(&chunk)? {
                    match table.remove(&k) {
                        None => {
                            table.insert(k, v);
                        }
                        Some(prev) => {
                            table.insert(k, combine(prev, v));
                        }
                    }
                }
            }
        }
        for (k, v) in table {
            out.write_record(&(k, v))?;
        }
        out.flush()?;
        Ok(())
    }
}

/// Owned-decode reference for `ReduceMerge`.
fn owned_reduce_reference<T>(combine: impl Fn(T, T) -> T + Send + Sync + 'static) -> impl MergeLogic
where
    T: Record + Send + Sync + 'static,
{
    move |_out_idx: usize,
          partials: &mut [BagReader],
          out: &mut BagWriter|
          -> Result<(), EngineError> {
        let mut acc: Option<T> = None;
        for p in partials {
            while let Some(chunk) = p.next_chunk()? {
                for rec in decode_all::<T>(&chunk)? {
                    acc = Some(match acc.take() {
                        None => rec,
                        Some(a) => combine(a, rec),
                    });
                }
            }
        }
        if let Some(a) = acc {
            out.write_record(&a)?;
            out.flush()?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every `MergeLogic` impl on the borrowed plane produces the same
    /// output stream as its owned-decode reference, across arbitrary
    /// partial assignments and chunk-boundary placements (records land
    /// at different offsets within different chunks as `chunk_size`
    /// varies; boundary cases include single-record chunks).
    #[test]
    fn borrowed_merge_agrees_with_owned(
        records in prop::collection::vec(
            (
                "[a-e]{0,3}",                               // String key (heap, duplicates likely)
                (0u64..1000, prop::collection::vec(0u32..99, 0..5)),
            ),
            1..80,
        ),
        nums in prop::collection::vec(0u64..10_000, 1..80),
        bitsets in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..6),      // bitset words (SeqView fold)
            1..40,
        ),
        assignment in prop::collection::vec(0usize..4, 1..32),
        parts in 1usize..5,
        chunk_size in 96usize..512,
    ) {
        type Key = String;
        type Val = (u64, Vec<u32>);
        let keyed_records: Vec<(Key, Val)> = records
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();

        // KeyedMerge: sum the counters, concatenate the vectors — an
        // accumulator with a heap field, folded in place on the live
        // path. Fold and owned combine encode the same semantics.
        fn keyed_fold(acc: &mut (u64, Vec<u32>), v: (u64, SeqView<'_, u32>)) {
            acc.0 += v.0;
            acc.1.extend(v.1.iter());
        }
        // On one node and on two: on two, each partial's chunks arrive
        // in storage order, and both merges must fold them in the order
        // they arrive — the concatenation shows any other order.
        for nodes in [1, 2] {
            let live = KeyedMerge::<Key, Val, _>::folding(keyed_fold);
            let got: Vec<(Key, Val)> =
                run_merge_on(nodes, &keyed_records, &assignment, parts, chunk_size, live);
            let want: Vec<(Key, Val)> = run_merge_on(
                nodes,
                &keyed_records,
                &assignment,
                parts,
                chunk_size,
                owned_keyed_reference::<Key, Val>(|mut a, b| {
                    a.0 += b.0;
                    a.1.extend(b.1);
                    a
                }),
            );
            prop_assert_eq!(got, want, "KeyedMerge borrowed vs owned on {} nodes", nodes);
        }

        // ReduceMerge over bitset words: the SeqView fold ORs borrowed
        // word views into the accumulator in place.
        fn or_into(acc: &mut Vec<u64>, words: SeqView<'_, u64>) {
            if words.len() > acc.len() {
                acc.resize(words.len(), 0);
            }
            for (slot, w) in acc.iter_mut().zip(words.iter()) {
                *slot |= w;
            }
        }
        let got: Vec<Vec<u64>> = run_merge_chunked(
            &bitsets, &assignment, parts, chunk_size, ReduceMerge::folding(or_into),
        );
        let want: Vec<Vec<u64>> = run_merge_chunked(
            &bitsets,
            &assignment,
            parts,
            chunk_size,
            owned_reduce_reference::<Vec<u64>>(|a, b| {
                let (mut long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                for (i, w) in short.into_iter().enumerate() {
                    long[i] |= w;
                }
                long
            }),
        );
        prop_assert_eq!(got, want, "ReduceMerge borrowed vs owned");

        // ConcatMerge is the unordered one: multiset identity.
        let mut got: Vec<u64> = run_merge_chunked(
            &nums, &assignment, parts, chunk_size, ConcatMerge,
        );
        let mut want = nums.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want, "ConcatMerge multiset");
    }
}
