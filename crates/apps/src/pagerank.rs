//! PageRank on the Hurricane runtime (paper §5.3).
//!
//! "PageRank is essentially a scatter of vertex values performed by
//! joining vertex identifiers with outgoing edge source vertex
//! identifiers, followed by a groupby aggregation on vertex identifiers."
//! Iterations are unrolled into the application graph (the paper's
//! "long multi-phase application graphs").
//!
//! State representation: a *rank bag* holds `(vertex, contribution, deg)`
//! records, where the effective rank is `0.15/N + 0.85 · contribution`.
//! Each iteration's scatter task snapshots the full rank bag (every clone
//! needs the whole vector) and consumes its private copy of the edge bag
//! chunk-by-chunk — so clones split edge traversal, the skewed part of
//! the work on power-law graphs. Clone partials merge by keyed
//! contribution sums.
//!
//! Hot-path mechanics: the edge list is varint-decoded once per job. The
//! init task views every edge of its input to count degrees, and in the
//! same pass re-encodes it as a fixed-width `(FixedU32, FixedU32)` pair
//! ([`Edge`]) into chunks of the configured chunk size
//! ([`TaskCtx::chunk_size`]). Each sealed fixed-width chunk goes to all
//! `iters` edge copies by **chunk splatting** (`TaskCtx::splat_chunk`,
//! one refcount bump per copy), and every iteration drains its copy as
//! fixed-width pairs, which decode with no varint work. The rank
//! snapshot (`TaskCtx::for_each_snapshot_record`, folded straight into
//! the rank and degree vectors) and the per-iteration edge traversal
//! (`TaskCtx::for_each_record`) stream **borrowed views**, so no
//! iteration owns a copy of the rank table or allocates per record.
//! Every task writes its rank records `for v in 0..n`, so every clone
//! partial ascends, and clone partials reconcile through the *streaming*
//! keyed merge ([`KeyedMerge::folding`]): the partials' chunks, put back
//! in key order, are merged in one pass that folds `(vertex, (contrib,
//! deg))` views out of the chunk bytes and owns one accumulator at a
//! time.

use hurricane_core::graph::{AppGraph, GraphBag, GraphBuilder};
use hurricane_core::merges::{ConcatMerge, KeyedMerge};
use hurricane_core::task::{BagReader, BagWriter, MergeLogic, TaskCtx};
use hurricane_core::{AppReport, EngineError, HurricaneApp, HurricaneConfig, TaskLogic};
use hurricane_format::{ChunkWriter, FixedU32};
use hurricane_storage::StorageCluster;
use std::sync::Arc;

/// PageRank damping factor.
pub const DAMPING: f64 = 0.85;

/// One rank record on the wire: `(vertex, contribution, out_degree)`.
pub type RankRecord = (u32, f64, u32);

/// One edge of an iteration's private edge copy: `(src, dst)`, eight
/// bytes on the wire.
pub type Edge = (FixedU32, FixedU32);

/// Static parameters of a PageRank job.
#[derive(Debug, Clone, Copy)]
pub struct PageRankJob {
    /// Number of vertices (ids `0..n`).
    pub vertices: u32,
    /// Number of iterations (the paper runs 5).
    pub iterations: usize,
}

impl Default for PageRankJob {
    fn default() -> Self {
        Self {
            vertices: 1 << 10,
            iterations: 5,
        }
    }
}

/// Init-task merge: output 0 (the rank/degree table) merges by keyed
/// degree sum; outputs ≥ 1 (per-iteration edge copies) concatenate.
struct InitMerge;

impl MergeLogic for InitMerge {
    fn merge(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        if output_index == 0 {
            // Partial records are (v, (contrib, partial_deg)): every
            // partial carries the same initial contribution (1/N), and
            // the per-clone partial degrees sum to the true out-degree.
            // The fold runs over borrowed views; only the per-vertex
            // accumulator is owned.
            let keyed =
                KeyedMerge::<u32, (f64, u32), _>::folding(|acc: &mut (f64, u32), b: (f64, u32)| {
                    acc.1 += b.1
                });
            keyed.merge(0, partials, out)
        } else {
            ConcatMerge.merge(output_index, partials, out)
        }
    }
}

/// The init task over `n` vertices and `iters` iterations: counts
/// out-degrees, writes the initial rank records to output 0, and fans
/// the edge list out into one private copy per iteration (outputs
/// `1..=iters`; bags are consumed destructively, and each iteration needs
/// its own).
///
/// The edge copies are re-encoded once, in the degree count's pass over
/// the varint input: each edge is pushed as a fixed-width [`Edge`] into
/// chunks of the configured size, and each sealed chunk is forwarded to
/// every copy as refcount bumps, so no iteration decodes a varint.
fn init_task(n: u32, iters: usize) -> impl TaskLogic {
    move |ctx: &mut TaskCtx| {
        let copy_outs: Vec<usize> = (1..=iters).collect();
        let mut deg = vec![0u32; n as usize];
        let mut copies = ChunkWriter::<Edge>::new(ctx.chunk_size());
        while let Some(chunk) = ctx.next_chunk(0)? {
            hurricane_format::try_for_each_view::<(u32, u32), EngineError, _>(&chunk, |(u, v)| {
                deg[u as usize] += 1;
                if let Some(sealed) = copies.push(&(FixedU32(u), FixedU32(v)))? {
                    ctx.splat_chunk(&copy_outs, &sealed)?;
                }
                Ok(())
            })?;
        }
        if let Some(last) = copies.finish() {
            ctx.splat_chunk(&copy_outs, &last)?;
        }
        for v in 0..n {
            // (vertex, (contribution, partial degree)) — keyed merge
            // reconciles degrees across clones.
            ctx.write_record(0, &(v, (1.0 / n as f64, deg[v as usize])))?;
        }
        Ok(())
    }
}

impl PageRankJob {
    /// Builds the unrolled iteration graph.
    pub fn plan(&self) -> PageRankPlan {
        let n = self.vertices;
        let iters = self.iterations;
        let mut g = GraphBuilder::new();
        let edges_src = g.source("edges");
        let ranks0 = g.bag("ranks.0");
        let edge_copies: Vec<GraphBag> = (0..iters).map(|i| g.bag(format!("edges.{i}"))).collect();
        let mut init_outs = vec![ranks0];
        init_outs.extend(&edge_copies);
        g.task_with_merge(
            "init",
            &[edges_src],
            &init_outs,
            init_task(n, iters),
            InitMerge,
        );
        let mut prev_ranks = ranks0;
        for (i, &edges_i) in edge_copies.iter().enumerate() {
            let next_ranks = g.bag(format!("ranks.{}", i + 1));
            g.task_with_merge(
                format!("iter.{i}"),
                &[prev_ranks, edges_i],
                &[next_ranks],
                move |ctx: &mut TaskCtx| {
                    // Full rank/degree table: every clone needs all of
                    // it, folded straight from the snapshot's views.
                    let mut rank = vec![0.0f64; n as usize];
                    let mut deg = vec![0u32; n as usize];
                    ctx.for_each_snapshot_record::<(u32, (f64, u32)), _>(
                        0,
                        |(v, (contrib, d))| {
                            rank[v as usize] = 0.15 / n as f64 + DAMPING * contrib;
                            deg[v as usize] = d;
                        },
                    )?;
                    // Edge chunks: exactly-once across clones — this is
                    // where skewed work splits. Fixed-width pairs decode
                    // with no varint work.
                    let mut acc = vec![0.0f64; n as usize];
                    ctx.for_each_record::<Edge, _>(1, |(FixedU32(u), FixedU32(v))| {
                        let d = deg[u as usize];
                        if d > 0 {
                            acc[v as usize] += rank[u as usize] / d as f64;
                        }
                    })?;
                    for v in 0..n {
                        ctx.write_record(0, &(v, (acc[v as usize], deg[v as usize])))?;
                    }
                    Ok(())
                },
                // Per-vertex contribution sums fold in place over
                // borrowed views (rank combine on the borrowed plane).
                KeyedMerge::<u32, (f64, u32), _>::folding(|acc: &mut (f64, u32), b: (f64, u32)| {
                    acc.0 += b.0;
                    acc.1 = acc.1.max(b.1);
                }),
            );
            prev_ranks = next_ranks;
        }
        PageRankPlan {
            graph: g.build().expect("pagerank graph is well-formed"),
            edges: edges_src,
            final_ranks: prev_ranks,
            vertices: n,
        }
    }

    /// Runs the job and returns the final rank vector plus the report.
    pub fn run(
        &self,
        cluster: Arc<StorageCluster>,
        config: HurricaneConfig,
        edges: &[(u32, u32)],
    ) -> Result<(Vec<f64>, AppReport), EngineError> {
        let plan = self.plan();
        let mut app = HurricaneApp::deploy(plan.graph, cluster, config)?;
        app.fill_source(plan.edges, edges.iter().copied())?;
        let report = app.run()?;
        let records: Vec<(u32, (f64, u32))> = app.read_records(plan.final_ranks)?;
        let n = plan.vertices as usize;
        let mut ranks = vec![0.0f64; n];
        for (v, (contrib, _)) in records {
            ranks[v as usize] = 0.15 / n as f64 + DAMPING * contrib;
        }
        Ok((ranks, report))
    }

    /// Single-threaded reference PageRank (same damping, same iteration
    /// structure).
    pub fn reference(&self, edges: &[(u32, u32)]) -> Vec<f64> {
        let n = self.vertices as usize;
        let mut deg = vec![0u32; n];
        for &(u, _) in edges {
            deg[u as usize] += 1;
        }
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..self.iterations {
            let mut acc = vec![0.0f64; n];
            for &(u, v) in edges {
                if deg[u as usize] > 0 {
                    acc[v as usize] += rank[u as usize] / deg[u as usize] as f64;
                }
            }
            for v in 0..n {
                rank[v] = 0.15 / n as f64 + DAMPING * acc[v];
            }
        }
        rank
    }
}

/// A built PageRank graph plus its notable bags.
pub struct PageRankPlan {
    /// The validated graph.
    pub graph: AppGraph,
    /// Edge-list source (fill with `(src, dst)` pairs).
    pub edges: GraphBag,
    /// The final rank bag (records are [`RankRecord`]-shaped keyed pairs).
    pub final_ranks: GraphBag,
    /// Vertex count.
    pub vertices: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_core::CloneVerdict;
    use hurricane_storage::ClusterConfig;
    use hurricane_workloads::rmat::{RmatGen, RmatSpec};
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

    fn check(edges: &[(u32, u32)], vertices: u32, iterations: usize) {
        check_with(config(), edges, vertices, iterations);
    }

    fn check_with(config: HurricaneConfig, edges: &[(u32, u32)], vertices: u32, iterations: usize) {
        let job = PageRankJob {
            vertices,
            iterations,
        };
        let expected = job.reference(edges);
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (got, _report) = job.run(cluster, config, edges).expect("pagerank run");
        assert_eq!(got.len(), expected.len());
        for (v, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert!((g - e).abs() < 1e-9, "vertex {v}: got {g}, expected {e}");
        }
    }

    #[test]
    fn tiny_cycle_graph() {
        // 0 -> 1 -> 2 -> 0: symmetric, all ranks equal.
        check(&[(0, 1), (1, 2), (2, 0)], 3, 5);
    }

    #[test]
    fn star_graph_concentrates_rank() {
        let edges: Vec<(u32, u32)> = (1..16u32).map(|v| (v, 0)).collect();
        let job = PageRankJob {
            vertices: 16,
            iterations: 5,
        };
        let expected = job.reference(&edges);
        assert!(expected[0] > expected[1] * 5.0, "hub must dominate");
        check(&edges, 16, 5);
    }

    /// The 256-vertex R-MAT graph.
    fn rmat_256() -> Vec<(u32, u32)> {
        let spec = RmatSpec {
            scale: 8,
            edges: 2048,
            seed: 11,
        };
        RmatGen::new(spec)
            .map(|(u, v)| (u as u32, v as u32))
            .collect()
    }

    #[test]
    fn rmat_graph_matches_reference() {
        check(&rmat_256(), 256, 5);
    }

    #[test]
    fn rmat_graph_matches_reference_at_tail_guard_chunk_sizes() {
        // A chunk is a handful of records and an odd number of words, and
        // much of it lies inside the varint decoder's eight-byte tail
        // guard: the edge run decoder's word path, per-byte path and the
        // hand-over between them run on every chunk, and a clone request
        // on every chunk splits them among clones.
        for chunk_size in [24, 64] {
            let config = HurricaneConfig {
                chunk_size,
                clone_interval: Duration::ZERO,
                ..config()
            };
            check_with(config, &rmat_256(), 256, 5);
        }
    }

    #[test]
    fn every_granted_clone_satisfied_eq2_on_its_own_measurements() {
        // A ping on every chunk: each task files requests from its first
        // chunk to its last, so the log holds unmeasured, early and late
        // requests whatever the host's timing.
        let spec = RmatSpec {
            scale: 10,
            edges: 16 * 1024,
            seed: 23,
        };
        let edges: Vec<(u32, u32)> = RmatGen::new(spec)
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let job = PageRankJob {
            vertices: 1024,
            iterations: 3,
        };
        let config = HurricaneConfig {
            chunk_size: 1024,
            clone_interval: Duration::ZERO,
            ..config()
        };
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (got, report) = job.run(cluster, config, &edges).expect("pagerank run");
        for (v, (g, e)) in got.iter().zip(&job.reference(&edges)).enumerate() {
            assert!((g - e).abs() < 1e-9, "vertex {v}: got {g}, expected {e}");
        }
        assert_eq!(report.clone_log.len() as u64, report.clone_requests);
        assert!(report.clone_requests > 0, "every first chunk pings");
        let granted: Vec<_> = report
            .clone_log
            .iter()
            .filter(|e| e.verdict == CloneVerdict::Granted)
            .collect();
        assert_eq!(granted.len() as u32, report.total_clones);
        for e in granted {
            let bar = (e.instances as f64 + 1.0) * (e.startup_s + e.reconcile_s);
            assert!(e.remaining_s.is_finite() && e.remaining_s > bar, "{e}");
        }
    }

    #[test]
    fn clones_of_init_and_of_the_iterations_keep_ranks_exact() {
        // A ping on every chunk and a slot for every instance: init and
        // the iterations are cloned while they run, so init's edge copies
        // come from several instances and the iterations drain them
        // concurrently.
        let spec = RmatSpec {
            scale: 8,
            edges: 256 * 1024,
            seed: 31,
        };
        let edges: Vec<(u32, u32)> = RmatGen::new(spec)
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let job = PageRankJob {
            vertices: 1 << 8,
            iterations: 5,
        };
        let config = HurricaneConfig {
            chunk_size: 1024,
            clone_interval: Duration::ZERO,
            ..config()
        };
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (got, report) = job.run(cluster, config, &edges).expect("pagerank run");
        for (v, (g, e)) in got.iter().zip(&job.reference(&edges)).enumerate() {
            assert!((g - e).abs() < 1e-9, "vertex {v}: got {g}, expected {e}");
        }
        let clones = |task: u32| report.clones_per_task.get(&task).copied().unwrap_or(0);
        assert!(
            clones(0) > 0,
            "init was not cloned: {:?}",
            report.clones_per_task
        );
        assert!(
            (1..=5).any(|t| clones(t) > 0),
            "no iteration was cloned: {:?}",
            report.clones_per_task
        );
    }

    #[test]
    fn init_copies_hold_the_source_edges_in_fixed_width_chunks() {
        // The init task alone, so its three edge copies are sinks that
        // can be read after the run; a ping on every chunk lets clones
        // write some of them.
        let mut g = GraphBuilder::new();
        let source = g.source("edges");
        let ranks = g.bag("ranks.0");
        let copies: Vec<GraphBag> = (0..3).map(|i| g.bag(format!("edges.{i}"))).collect();
        let mut outs = vec![ranks];
        outs.extend(&copies);
        g.task_with_merge("init", &[source], &outs, init_task(256, 3), InitMerge);
        let chunk_size = 100;
        let config = HurricaneConfig {
            chunk_size,
            clone_interval: Duration::ZERO,
            ..config()
        };
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
        let mut edges = rmat_256();
        app.fill_source(source, edges.iter().copied()).unwrap();
        app.run().unwrap();
        edges.sort_unstable();
        for copy in copies {
            let mut got = Vec::new();
            for chunk in app.read_chunks(copy).unwrap() {
                // 96 bytes: the most whole eight-byte edges under 100.
                assert!(chunk.len() <= 96 && chunk.len() % 8 == 0, "{}", chunk.len());
                for (FixedU32(u), FixedU32(v)) in
                    hurricane_format::decode_all::<Edge>(&chunk).unwrap()
                {
                    got.push((u, v));
                }
            }
            got.sort_unstable();
            assert_eq!(got, edges);
        }
    }

    #[test]
    fn single_iteration_works() {
        check(&[(0, 1), (0, 2), (1, 2)], 3, 1);
    }
}
