//! ClickLog on the Hurricane runtime (paper §2.1, Figures 1–3).
//!
//! Three phases over a log of clicks:
//!
//! 1. **Phase 1** maps each IP to its geographic region (simulated
//!    geolocation = equal adjacent key ranges) and routes it to the
//!    region's bag. Clones need no merge: their outputs concatenate.
//! 2. **Phase 2** (per region) builds the distinct-IP bitset. Clones each
//!    build a partial bitset from the chunks they happened to remove;
//!    the merge ORs the partials (`output.insert(partial1 | partial2)`).
//! 3. **Phase 3** (per region) counts the bits; its merge sums counts.
//!
//! Hot-path mechanics: bitsets travel as `Vec<FixedU64>` — fixed-stride
//! eight-byte words rather than varints (a populated word is a dense bit
//! pattern that costs 9–10 varint bytes and a data-dependent decode
//! loop). Phase 3's bit count and Phase 2's OR-merge
//! ([`hurricane_core::merges::ReduceMerge::folding`]) both run over
//! *borrowed* word views read straight out of the chunk by the batch
//! kernels (popcount, word OR) — the partial bitsets are never
//! materialized as owned vectors on the merge path; only the single
//! surviving accumulator is.

use crate::bitset::BitSet;
use hurricane_core::graph::{AppGraph, GraphBag, GraphBuilder};
use hurricane_core::merges::ReduceMerge;
use hurricane_core::task::TaskCtx;
use hurricane_core::{AppReport, EngineError, HurricaneApp, HurricaneConfig};
use hurricane_storage::StorageCluster;
use hurricane_workloads::clicklog::region_of;
use std::sync::Arc;

/// Static parameters of a ClickLog job.
#[derive(Debug, Clone, Copy)]
pub struct ClickLogJob {
    /// Number of geographic regions.
    pub regions: usize,
    /// Size of the IP key space.
    pub num_ips: usize,
}

impl Default for ClickLogJob {
    fn default() -> Self {
        Self {
            regions: 8,
            num_ips: 1 << 16,
        }
    }
}

/// A built ClickLog application graph plus its notable bags.
pub struct ClickLogPlan {
    /// The validated graph.
    pub graph: AppGraph,
    /// The click-record source bag (fill with `u32` IP keys).
    pub input: GraphBag,
    /// Per-region distinct-count sink bags (each holds one `u64`).
    pub counts: Vec<GraphBag>,
}

impl ClickLogJob {
    /// Builds the three-phase application graph of Figure 1.
    pub fn plan(&self) -> ClickLogPlan {
        let regions = self.regions;
        let num_ips = self.num_ips;
        let mut g = GraphBuilder::new();
        let input = g.source("clicklog");
        let region_bags: Vec<GraphBag> =
            (0..regions).map(|r| g.bag(format!("region.{r}"))).collect();
        let outs: Vec<GraphBag> = region_bags.clone();
        // Phase 1 is the record-routing hot loop: stream each chunk's
        // records as borrowed views and re-emit per region. Holding the
        // chunk locally lets the closure write through `ctx` while the
        // views borrow the chunk.
        g.task("phase1", &[input], &outs, move |ctx: &mut TaskCtx| {
            while let Some(chunk) = ctx.next_chunk(0)? {
                hurricane_format::try_for_each_view::<u32, EngineError, _>(&chunk, |ip| {
                    let r = region_of(ip, num_ips, regions) as usize;
                    ctx.write_record(r, &ip)
                })?;
            }
            Ok(())
        });
        let mut counts = Vec::with_capacity(regions);
        for (r, &bag) in region_bags.iter().enumerate() {
            let distinct = g.bag(format!("distinct.{r}"));
            g.task_with_merge(
                format!("phase2.{r}"),
                &[bag],
                &[distinct],
                |ctx: &mut TaskCtx| {
                    let mut bits = BitSet::new();
                    ctx.for_each_record::<u32, _>(0, |ip| bits.set(ip))?;
                    ctx.write_record(0, &bits.into_fixed_words())?;
                    Ok(())
                },
                // Partial bitsets OR into the accumulator as borrowed
                // fixed-word views — the merge owns one bitset total.
                ReduceMerge::folding(BitSet::or_fixed_words_into),
            );
            let count = g.bag(format!("count.{r}"));
            g.task_with_merge(
                format!("phase3.{r}"),
                &[distinct],
                &[count],
                |ctx: &mut TaskCtx| {
                    // Count bits straight off the borrowed fixed-stride
                    // word views — no Vec is materialized per record.
                    let total = ctx.fold_records::<Vec<hurricane_format::FixedU64>, u64, _>(
                        0,
                        0,
                        |acc, words| acc + BitSet::count_fixed_words(words),
                    )?;
                    ctx.write_record(0, &total)?;
                    Ok(())
                },
                ReduceMerge::new(|a: u64, b: u64| a + b),
            );
            counts.push(count);
        }
        ClickLogPlan {
            graph: g.build().expect("clicklog graph is well-formed"),
            input,
            counts,
        }
    }

    /// Runs the job end-to-end on `cluster` and returns per-region
    /// distinct counts plus the run report.
    pub fn run(
        &self,
        cluster: Arc<StorageCluster>,
        config: HurricaneConfig,
        records: impl IntoIterator<Item = u32>,
    ) -> Result<(Vec<u64>, AppReport), EngineError> {
        let plan = self.plan();
        let mut app = HurricaneApp::deploy(plan.graph, cluster, config)?;
        app.fill_source(plan.input, records)?;
        let report = app.run()?;
        let mut counts = Vec::with_capacity(plan.counts.len());
        for &bag in &plan.counts {
            let vals: Vec<u64> = app.read_records(bag)?;
            counts.push(vals.into_iter().sum());
        }
        Ok((counts, report))
    }

    /// Single-threaded reference: distinct IPs per region.
    pub fn reference(&self, records: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let mut sets = vec![BitSet::new(); self.regions];
        for ip in records {
            let r = region_of(ip, self.num_ips, self.regions) as usize;
            sets[r].set(ip);
        }
        sets.into_iter().map(|s| s.count()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_storage::ClusterConfig;
    use hurricane_workloads::clicklog::{ClickLogGen, ClickLogSpec};
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

    fn run_and_check(skew: f64, records: u64) {
        let job = ClickLogJob {
            regions: 8,
            num_ips: 1 << 14,
        };
        let gen = ClickLogGen::new(ClickLogSpec {
            num_ips: job.num_ips,
            regions: job.regions,
            skew,
            records,
            seed: 0xFEED,
        });
        let data: Vec<u32> = gen.collect();
        let expected = job.reference(data.iter().copied());
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (counts, report) = job
            .run(cluster, config(), data.iter().copied())
            .expect("clicklog run");
        assert_eq!(counts, expected, "distinct counts must match reference");
        assert!(report.merges_run >= job.regions as u32 * 2 - 2);
    }

    #[test]
    fn uniform_clicklog_is_exact() {
        run_and_check(0.0, 30_000);
    }

    #[test]
    fn skewed_clicklog_is_exact() {
        run_and_check(1.0, 30_000);
    }

    #[test]
    fn reference_counts_distinct() {
        let job = ClickLogJob {
            regions: 2,
            num_ips: 100,
        };
        // Keys 0..49 => region 0, 50..99 => region 1 (with duplicates).
        let counts = job.reference(vec![0, 1, 1, 49, 50, 50, 99]);
        assert_eq!(counts, vec![3, 2]);
    }

    #[test]
    fn empty_input_gives_zero_counts() {
        let job = ClickLogJob {
            regions: 4,
            num_ips: 1 << 10,
        };
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let (counts, _) = job.run(cluster, config(), Vec::<u32>::new()).unwrap();
        assert_eq!(counts, vec![0, 0, 0, 0]);
    }
}
