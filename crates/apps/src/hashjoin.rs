//! Partitioned hash join on the Hurricane runtime (paper §5.3).
//!
//! The paper's join "splits the smaller relation into 32 equal-sized
//! partitions, and sorts them in memory. It then creates 32 corresponding
//! partitions in the larger relation, and finally streams the larger
//! partitions, while the smaller partition is in memory, outputting
//! matching keys."
//!
//! Here the in-memory build structure is a hash table (same role as the
//! paper's sorted array: an in-memory index over the small partition).
//! The crucial skew property is how cloning composes with the two-sided
//! input: every clone of a probe task *snapshots* the build side in full
//! (non-destructive concurrent scan) while the probe side's chunks are
//! removed exactly-once — so clones split the probe work for a hot
//! partition with zero repartitioning, and the output needs no merge
//! (concatenation of match tuples is already correct).
//!
//! Hot-path mechanics: the partitioned relations travel as
//! [`FixedTuple`] — `(FixedU32, FixedU64)`, a constant 12-byte stride —
//! so every partition-bag chunk is a flat array of tuples. The probe
//! loop types each chunk with [`hurricane_format::stride_records`],
//! gathers its key column with one strided kernel, and reads a tuple by
//! slicing its 12 bytes out of the chunk only on a match: no per-record
//! varint loop, no validation pass, no `Vec`.

use hurricane_core::graph::{AppGraph, GraphBag, GraphBuilder};
use hurricane_core::task::TaskCtx;
use hurricane_core::{AppReport, EngineError, HurricaneApp, HurricaneConfig};
use hurricane_format::{stride_records, FixedU32, FixedU64};
use hurricane_storage::StorageCluster;
use hurricane_workloads::join::Tuple;
use std::collections::HashMap;
use std::sync::Arc;

/// One joined output row: `(key, r_payload, s_payload)`.
pub type JoinRow = (u32, u64, u64);

/// The partitioned wire form of one relation tuple: fixed-stride ints
/// (12 bytes), giving partition-bag chunks O(1) random access and
/// branch-free iteration.
pub type FixedTuple = (FixedU32, FixedU64);

/// Static parameters of a join job.
#[derive(Debug, Clone, Copy)]
pub struct HashJoinJob {
    /// Number of key-hash partitions.
    pub partitions: usize,
}

impl Default for HashJoinJob {
    fn default() -> Self {
        Self { partitions: 8 }
    }
}

/// A built join graph plus its notable bags.
pub struct HashJoinPlan {
    /// The validated graph.
    pub graph: AppGraph,
    /// Small (build) relation source: fill with [`Tuple`]s.
    pub r_input: GraphBag,
    /// Large (probe) relation source: fill with [`Tuple`]s.
    pub s_input: GraphBag,
    /// Join output bags, one per partition; records are
    /// `(key, r_payload, s_payload)`.
    pub outputs: Vec<GraphBag>,
}

fn partition_of(key: u32, partitions: usize) -> usize {
    (hurricane_common::SplitMix64::mix(key as u64) % partitions as u64) as usize
}

impl HashJoinJob {
    /// Builds the two-stage join graph: partition both relations, then
    /// probe each partition pair.
    pub fn plan(&self) -> HashJoinPlan {
        let parts = self.partitions;
        let mut g = GraphBuilder::new();
        let r_input = g.source("relation.r");
        let s_input = g.source("relation.s");
        let r_parts: Vec<GraphBag> = (0..parts).map(|p| g.bag(format!("r.{p}"))).collect();
        let s_parts: Vec<GraphBag> = (0..parts).map(|p| g.bag(format!("s.{p}"))).collect();
        let all_outs: Vec<GraphBag> = r_parts.iter().chain(&s_parts).copied().collect();
        g.task(
            "partition",
            &[r_input, s_input],
            &all_outs,
            move |ctx: &mut TaskCtx| {
                // Route both relations by key hash, streaming borrowed
                // views per chunk (Tuple's view is itself: two ints) and
                // re-emitting in the fixed-stride partition wire form.
                while let Some(chunk) = ctx.next_chunk(0)? {
                    hurricane_format::try_for_each_view::<Tuple, EngineError, _>(&chunk, |t| {
                        let fixed: FixedTuple = (FixedU32(t.0), FixedU64(t.1));
                        ctx.write_record(partition_of(t.0, parts), &fixed)
                    })?;
                }
                while let Some(chunk) = ctx.next_chunk(1)? {
                    hurricane_format::try_for_each_view::<Tuple, EngineError, _>(&chunk, |t| {
                        let fixed: FixedTuple = (FixedU32(t.0), FixedU64(t.1));
                        ctx.write_record(parts + partition_of(t.0, parts), &fixed)
                    })?;
                }
                Ok(())
            },
        );
        let mut outputs = Vec::with_capacity(parts);
        for p in 0..parts {
            let out = g.bag(format!("joined.{p}"));
            g.task(
                format!("probe.{p}"),
                &[r_parts[p], s_parts[p]],
                &[out],
                move |ctx: &mut TaskCtx| {
                    // Build side: full non-destructive scan (every clone
                    // holds the whole table, paper §4.3's concurrent read).
                    let build: Vec<FixedTuple> = ctx.snapshot_input(0)?;
                    let mut table: HashMap<u32, Vec<u64>> = HashMap::new();
                    for (FixedU32(k), FixedU64(payload)) in build {
                        table.entry(k).or_default().push(payload);
                    }
                    // Probe side: exactly-once chunks shared across clones.
                    // Every chunk is a flat array of 12-byte tuples. The
                    // key column is gathered out of the interleaved run
                    // into a dense vector first (the strided-gather
                    // kernel; the buffer is reused across chunks), so the
                    // table-probe loop scans contiguous keys and decodes
                    // a tuple's payload only on a match (`get` slices out
                    // tuple `i`'s 12 bytes and decodes them, checked).
                    let mut keys: Vec<u32> = Vec::new();
                    while let Some(chunk) = ctx.next_chunk(1)? {
                        let tuples = stride_records::<FixedTuple>(&chunk)?;
                        keys.clear();
                        tuples.gather_prefix_u32_into(&mut keys);
                        for (i, &k) in keys.iter().enumerate() {
                            if let Some(rs) = table.get(&k) {
                                let (_, FixedU64(s_payload)) = tuples.get(i);
                                for &r_payload in rs {
                                    ctx.write_record(0, &(k, r_payload, s_payload))?;
                                }
                            }
                        }
                    }
                    Ok(())
                },
            );
            outputs.push(out);
        }
        HashJoinPlan {
            graph: g.build().expect("join graph is well-formed"),
            r_input,
            s_input,
            outputs,
        }
    }

    /// Runs the join and returns all output tuples plus the run report.
    pub fn run(
        &self,
        cluster: Arc<StorageCluster>,
        config: HurricaneConfig,
        r: &[Tuple],
        s: &[Tuple],
    ) -> Result<(Vec<JoinRow>, AppReport), EngineError> {
        let plan = self.plan();
        let mut app = HurricaneApp::deploy(plan.graph, cluster, config)?;
        app.fill_source(plan.r_input, r.iter().copied())?;
        app.fill_source(plan.s_input, s.iter().copied())?;
        let report = app.run()?;
        let mut out = Vec::new();
        for &bag in &plan.outputs {
            out.extend(app.read_records::<(u32, u64, u64)>(bag)?);
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_storage::ClusterConfig;
    use hurricane_workloads::join::{large_relation, reference_join, small_relation, JoinSpec};
    use std::time::Duration;

    fn config() -> HurricaneConfig {
        HurricaneConfig {
            compute_nodes: 4,
            worker_slots: 2,
            chunk_size: 16 * 1024,
            clone_interval: Duration::from_millis(10),
            master_poll: Duration::from_millis(1),
            ..Default::default()
        }
    }

    fn check_join(skew: f64) {
        let spec = JoinSpec {
            num_keys: 512,
            small_tuples: 3_000,
            large_tuples: 12_000,
            skew,
            seed: 0xBEEF,
        };
        let r = small_relation(&spec);
        let s = large_relation(&spec);
        let mut expected = reference_join(&r, &s);
        expected.sort_unstable();
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (mut got, _report) = HashJoinJob { partitions: 8 }
            .run(cluster, config(), &r, &s)
            .expect("join run");
        got.sort_unstable();
        assert_eq!(got.len(), expected.len(), "join cardinality");
        assert_eq!(got, expected, "join result must match nested-loop oracle");
    }

    #[test]
    fn uniform_join_matches_reference() {
        check_join(0.0);
    }

    #[test]
    fn skewed_join_matches_reference() {
        check_join(1.0);
    }

    #[test]
    fn empty_relations_yield_empty_join() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let (out, _) = HashJoinJob { partitions: 4 }
            .run(cluster, config(), &[], &[(1, 1)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn partition_function_covers_all_partitions() {
        let parts = 8;
        let mut seen = vec![false; parts];
        for k in 0..1000u32 {
            seen[partition_of(k, parts)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
