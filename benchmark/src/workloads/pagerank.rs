//! `pagerank_rmat`: five unrolled PageRank iterations on an R-MAT graph.

use super::{fold_checksum, Scale};
use crate::harness::{engine_job, EngineEnv, JobSample, SetupFacts, Variant, Workload};
use crate::replay;
use crate::report::Metrics;
use crate::trace::Tracer;
use hurricane_apps::pagerank::{PageRankJob, DAMPING};
use hurricane_core::merges::KeyedMerge;
use hurricane_workloads::rmat::{RmatGen, RmatSpec};
use std::time::Instant;

/// log2 of the vertex count (edge factor 16): RMAT-17, and RMAT-10 for
/// the smoke run (1/128 of the edges).
const RMAT_SCALE: u32 = 17;
const RMAT_SCALE_SMOKE: u32 = 10;
/// Ranks may differ from the reference by floating-point reassociation
/// across clones, not by more.
const RANK_TOLERANCE: f64 = 1e-9;
/// Equal source-vertex ranges the edge skew is reported over.
const VERTEX_RANGES: usize = 8;

/// The PageRank workload set up from a seed.
pub struct PageRank {
    job: PageRankJob,
    edges: Vec<(u32, u32)>,
    reference: Vec<f64>,
    facts: SetupFacts,
    env: EngineEnv,
}

impl PageRank {
    /// Generates the graph and computes `PageRankJob::reference`.
    pub fn setup(seed: u64, scale: Scale, env: EngineEnv) -> Self {
        let rmat_scale = match scale {
            Scale::Full => RMAT_SCALE,
            Scale::Smoke => RMAT_SCALE_SMOKE,
        };
        let job = PageRankJob {
            vertices: 1 << rmat_scale,
            iterations: 5,
        };
        let t = Instant::now();
        let edges: Vec<(u32, u32)> = RmatGen::new(RmatSpec::with_edge_factor(rmat_scale, seed))
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reference = job.reference(&edges);
        let reference_s = t.elapsed().as_secs_f64();

        let mut per_range = [0u64; VERTEX_RANGES];
        for &(u, _) in &edges {
            per_range[u as usize * VERTEX_RANGES / job.vertices as usize] += 1;
        }
        let largest = per_range.iter().copied().max().unwrap_or(0);
        let facts = SetupFacts {
            gen_s,
            reference_s,
            records: edges.len() as u64,
            largest_partition_share: largest as f64 / edges.len().max(1) as f64,
            input_checksum: fold_checksum(
                edges
                    .iter()
                    .map(|&(u, v)| u64::from(u) << 32 | u64::from(v)),
            ),
        };
        Self {
            job,
            edges,
            reference,
            facts,
            env,
        }
    }

    /// Runs one job and returns its rank vector, unchecked.
    pub fn execute(
        &self,
        variant: Variant,
        tr: &mut Tracer,
    ) -> Result<(Vec<f64>, JobSample), String> {
        let plan = self.job.plan();
        let edges: &[(u32, u32)] = match variant {
            Variant::EmptyInput => &[],
            _ => &self.edges,
        };
        let n = plan.vertices as usize;
        let (source, sink) = (plan.edges, plan.final_ranks);
        engine_job(
            tr,
            &self.env,
            variant,
            plan.graph,
            |app| app.fill_source(source, edges.iter().copied()),
            |app| {
                // The rank bag holds (vertex, (contribution, degree)), as
                // `PageRankJob::run` reads it.
                let mut ranks = vec![0.0f64; n];
                for (v, (contrib, _)) in app.read_records::<(u32, (f64, u32))>(sink)? {
                    ranks[v as usize] = 0.15 / n as f64 + DAMPING * contrib;
                }
                Ok(ranks)
            },
        )
    }

    /// Checks ranks against `PageRankJob::reference` within 1e-9.
    pub fn check(&self, variant: Variant, ranks: &[f64]) -> Result<(), String> {
        let empty_reference;
        let want = match variant {
            Variant::EmptyInput => {
                empty_reference = self.job.reference(&[]);
                &empty_reference
            }
            _ => &self.reference,
        };
        if ranks.len() != want.len() {
            return Err(format!(
                "{} ranks, reference has {}",
                ranks.len(),
                want.len()
            ));
        }
        match ranks
            .iter()
            .zip(want)
            .position(|(g, w)| (g - w).abs() > RANK_TOLERANCE || g.is_nan())
        {
            None => Ok(()),
            Some(v) => Err(format!(
                "vertex {v}: rank {} differs from reference {}",
                ranks[v], want[v]
            )),
        }
    }
}

impl Workload for PageRank {
    fn run_job(&self, variant: Variant, tr: &mut Tracer) -> Result<JobSample, String> {
        let (ranks, sample) = self.execute(variant, tr)?;
        self.check(variant, &ranks)?;
        Ok(sample)
    }

    fn facts(&self) -> SetupFacts {
        self.facts
    }

    fn replay(&self, m: &mut Metrics) -> Result<(), String> {
        let chunks = replay::format_replay(m, self.edges.iter().copied())?;
        replay::storage_replay(m, &replay::engine_endpoint(None)?, &chunks)?;
        drop(chunks);

        // An iteration's merge: two clones' partial rank tables, one
        // (vertex, (contribution, degree)) record per vertex each, folded
        // with the iteration tasks' combiner.
        let merge =
            KeyedMerge::<u32, (f64, u32), _>::folding(|acc: &mut (f64, u32), b: (f64, u32)| {
                acc.0 += b.0;
                acc.1 = acc.1.max(b.1);
            });
        let n = self.job.vertices;
        replay::merge_replay(m, &merge, 2, |clone, w| {
            for v in 0..n {
                let half = self.reference[v as usize] / 2.0;
                w.write_record(&(v, (half, clone as u32)))?;
            }
            Ok(u64::from(n))
        })
    }
}
