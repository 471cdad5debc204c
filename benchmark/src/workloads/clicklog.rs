//! `clicklog_uniform`, `clicklog_skew`, `clicklog_skew_rpc_durable`:
//! the paper's ClickLog job on generated click records.

use super::{fold_checksum, Scale};
use crate::harness::{engine_job, EngineEnv, JobSample, SetupFacts, Variant, Workload};
use crate::replay;
use crate::report::Metrics;
use crate::trace::Tracer;
use hurricane_apps::clicklog::ClickLogJob;
use hurricane_apps::BitSet;
use hurricane_baseline::{mapreduce, split_input};
use hurricane_core::merges::ReduceMerge;
use hurricane_format::FixedU64;
use hurricane_workloads::clicklog::{region_of, ClickLogGen, ClickLogSpec};
use std::time::Instant;

/// Click records of a full-size input.
const RECORDS: u64 = 10_000_000;
/// Workers of the static-partitioning baseline: the machine's two cores.
const BASELINE_WORKERS: usize = 2;

/// A ClickLog workload set up from a seed.
pub struct ClickLog {
    job: ClickLogJob,
    input: Vec<u32>,
    reference: Vec<u64>,
    facts: SetupFacts,
    /// The region holding the most clicks.
    hot_region: u32,
    env: EngineEnv,
}

impl ClickLog {
    /// Generates `RECORDS / scale` clicks at Zipf parameter `skew` and
    /// computes the reference counts.
    pub fn setup(seed: u64, skew: f64, scale: Scale, env: EngineEnv) -> Self {
        // `num_ips` must stay at or below 2^18: a region's bitset is one
        // record and has to fit a 64 KB chunk (2^20 fails with
        // `RecordTooLarge`).
        let job = ClickLogJob {
            regions: 8,
            num_ips: 1 << 18,
        };
        let t = Instant::now();
        let input: Vec<u32> = ClickLogGen::new(ClickLogSpec {
            num_ips: job.num_ips,
            regions: job.regions,
            skew,
            records: scale.of(RECORDS),
            seed,
        })
        .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reference = job.reference(input.iter().copied());
        let reference_s = t.elapsed().as_secs_f64();

        let mut per_region = vec![0u64; job.regions];
        for &ip in &input {
            per_region[region_of(ip, job.num_ips, job.regions) as usize] += 1;
        }
        let hot_region = (0..job.regions)
            .max_by_key(|&r| per_region[r])
            .expect("at least one region");
        let largest = per_region[hot_region];
        let facts = SetupFacts {
            gen_s,
            reference_s,
            records: input.len() as u64,
            largest_partition_share: largest as f64 / input.len().max(1) as f64,
            input_checksum: fold_checksum(input.iter().map(|&ip| u64::from(ip))),
        };
        Self {
            job,
            input,
            reference,
            facts,
            hot_region: hot_region as u32,
            env,
        }
    }

    /// Runs one job and returns its per-region counts, unchecked.
    pub fn execute(
        &self,
        variant: Variant,
        tr: &mut Tracer,
    ) -> Result<(Vec<u64>, JobSample), String> {
        let plan = self.job.plan();
        let input: &[u32] = match variant {
            Variant::EmptyInput => &[],
            _ => &self.input,
        };
        let (source, sinks) = (plan.input, plan.counts);
        engine_job(
            tr,
            &self.env,
            variant,
            plan.graph,
            |app| app.fill_source(source, input.iter().copied()),
            |app| {
                sinks
                    .iter()
                    .map(|&bag| Ok(app.read_records::<u64>(bag)?.into_iter().sum()))
                    .collect()
            },
        )
    }

    /// Checks per-region counts against `ClickLogJob::reference`.
    pub fn check(&self, variant: Variant, counts: &[u64]) -> Result<(), String> {
        let zeros = vec![0; self.job.regions];
        let want = match variant {
            Variant::EmptyInput => &zeros,
            _ => &self.reference,
        };
        if counts == want.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "distinct counts {counts:?} differ from reference {want:?}"
            ))
        }
    }

    fn region(&self, ip: u32) -> u32 {
        region_of(ip, self.job.num_ips, self.job.regions)
    }
}

impl Workload for ClickLog {
    fn run_job(&self, variant: Variant, tr: &mut Tracer) -> Result<JobSample, String> {
        let (counts, sample) = self.execute(variant, tr)?;
        self.check(variant, &counts)?;
        Ok(sample)
    }

    fn facts(&self) -> SetupFacts {
        self.facts
    }

    fn replay(&self, m: &mut Metrics) -> Result<(), String> {
        let chunks = replay::format_replay(m, self.input.iter().copied())?;
        let replay_dir = self.env.rpc_durable_root.as_ref().map(|r| r.join("replay"));
        let endpoint = replay::engine_endpoint(replay_dir.as_deref())?;
        replay::storage_replay(m, &endpoint, &chunks)?;
        drop((endpoint, chunks));
        if let Some(dir) = replay_dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }

        // Phase 2's merge on the hottest region: two clones' partial
        // bitsets (each saw every other click), OR-ed into one.
        let hot = self.hot_region;
        let merge = ReduceMerge::<Vec<FixedU64>, _>::folding(BitSet::or_fixed_words_into);
        replay::merge_replay(m, &merge, 2, |clone, w| {
            let mut bits = BitSet::new();
            let mine = self.input.iter().skip(clone).step_by(2);
            mine.filter(|&&ip| self.region(ip) == hot)
                .for_each(|&ip| bits.set(ip));
            w.write_record(&bits.into_fixed_words())?;
            Ok(1)
        })?;

        // The paper's comparison: the same job on a static map/reduce
        // engine with one reducer per region and no cloning.
        let (num_ips, regions) = (self.job.num_ips, self.job.regions);
        let (results, report) = mapreduce(
            split_input(self.input.clone(), BASELINE_WORKERS),
            regions,
            BASELINE_WORKERS,
            move |ip: u32, emit: &mut dyn FnMut(u32, u32)| {
                emit(region_of(ip, num_ips, regions), ip)
            },
            |region: &u32, ips: Vec<u32>| {
                let mut set = BitSet::new();
                ips.into_iter().for_each(|ip| set.set(ip));
                (*region, set.count())
            },
        );
        let mut counts = vec![0u64; regions];
        for (region, count) in results.into_iter().flatten() {
            counts[region as usize] = count;
        }
        self.check(Variant::Normal, &counts)
            .map_err(|e| format!("static baseline: {e}"))?;
        m.set("baseline.static_makespan_s", report.elapsed.as_secs_f64());
        m.set("baseline.reduce_imbalance", report.reduce_imbalance);
        Ok(())
    }
}
