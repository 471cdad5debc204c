//! `hashjoin_skew`: partitioned hash join with a Zipf-skewed build side.

use super::{fold_checksum, Scale};
use crate::harness::{engine_job, EngineEnv, JobSample, SetupFacts, Variant, Workload};
use crate::replay;
use crate::report::Metrics;
use crate::trace::Tracer;
use hurricane_apps::hashjoin::{HashJoinJob, JoinRow};
use hurricane_common::SplitMix64;
use hurricane_workloads::join::{large_relation, reference_join, small_relation, JoinSpec, Tuple};
use std::time::Instant;

/// Build-side tuples, probe-side tuples and distinct keys at full size.
const SMALL_TUPLES: u64 = 1_000_000;
const LARGE_TUPLES: u64 = 10_000_000;
const NUM_KEYS: u64 = 1 << 21;

/// Row count plus an order-independent 64-bit checksum: what a join
/// output is compared by, so that no job sorts 4.6M rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinDigest {
    /// Output rows.
    pub rows: u64,
    /// Wrapping sum of a per-row hash.
    pub checksum: u64,
}

impl JoinDigest {
    /// Digests `rows` in any order.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a JoinRow>) -> Self {
        let mut d = Self::default();
        for &(key, r_payload, s_payload) in rows {
            let h = u64::from(key) ^ SplitMix64::mix(r_payload) ^ SplitMix64::mix(!s_payload);
            d.rows += 1;
            d.checksum = d.checksum.wrapping_add(SplitMix64::mix(h));
        }
        d
    }
}

/// The join workload set up from a seed.
pub struct HashJoin {
    job: HashJoinJob,
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    reference: JoinDigest,
    facts: SetupFacts,
    env: EngineEnv,
}

impl HashJoin {
    /// Generates both relations and digests `reference_join`.
    pub fn setup(seed: u64, scale: Scale, env: EngineEnv) -> Self {
        let spec = JoinSpec {
            num_keys: scale.of(NUM_KEYS) as usize,
            small_tuples: scale.of(SMALL_TUPLES),
            large_tuples: scale.of(LARGE_TUPLES),
            skew: 1.0,
            seed,
        };
        let t = Instant::now();
        let r = small_relation(&spec);
        let s = large_relation(&spec);
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reference = JoinDigest::of(&reference_join(&r, &s));
        let reference_s = t.elapsed().as_secs_f64();
        let facts = SetupFacts {
            gen_s,
            reference_s,
            records: (r.len() + s.len()) as u64,
            largest_partition_share: 0.0,
            input_checksum: fold_checksum(r.iter().chain(&s).map(|&(k, p)| u64::from(k) ^ p << 32)),
        };
        Self {
            job: HashJoinJob { partitions: 8 },
            r,
            s,
            reference,
            facts,
            env,
        }
    }

    /// Runs one job and returns its output rows per partition, unchecked.
    pub fn execute(
        &self,
        variant: Variant,
        tr: &mut Tracer,
    ) -> Result<(Vec<Vec<JoinRow>>, JobSample), String> {
        let plan = self.job.plan();
        let (r, s): (&[Tuple], &[Tuple]) = match variant {
            Variant::EmptyInput => (&[], &[]),
            _ => (&self.r, &self.s),
        };
        let (r_source, s_source, sinks) = (plan.r_input, plan.s_input, plan.outputs);
        engine_job(
            tr,
            &self.env,
            variant,
            plan.graph,
            |app| {
                Ok(app.fill_source(r_source, r.iter().copied())?
                    + app.fill_source(s_source, s.iter().copied())?)
            },
            |app| {
                sinks
                    .iter()
                    .map(|&bag| app.read_records::<JoinRow>(bag))
                    .collect()
            },
        )
    }

    /// Checks the output against `reference_join` by digest.
    pub fn check(&self, variant: Variant, partitions: &[Vec<JoinRow>]) -> Result<(), String> {
        let got = JoinDigest::of(partitions.iter().flatten());
        let want = match variant {
            Variant::EmptyInput => JoinDigest::default(),
            _ => self.reference,
        };
        if got != want {
            return Err(format!(
                "join output {got:?} differs from reference {want:?}"
            ));
        }
        Ok(())
    }
}

impl Workload for HashJoin {
    fn run_job(&self, variant: Variant, tr: &mut Tracer) -> Result<JobSample, String> {
        let (partitions, mut sample) = self.execute(variant, tr)?;
        self.check(variant, &partitions)?;
        // The partition skew, read from outside: the share of the output
        // rows in the fullest `joined.p` bag.
        let rows: usize = partitions.iter().map(Vec::len).sum();
        let fullest = partitions.iter().map(Vec::len).max().unwrap_or(0);
        sample.largest_partition_share = Some(fullest as f64 / rows.max(1) as f64);
        Ok(sample)
    }

    fn facts(&self) -> SetupFacts {
        self.facts
    }

    fn replay(&self, m: &mut Metrics) -> Result<(), String> {
        // The source-side encoding (varint tuples) of the probe relation;
        // the partitioned fixed-stride form is internal to the app. The
        // join has no merge, so `core.merge_*` stay 0.
        let chunks = replay::format_replay(m, self.s.iter().copied())?;
        replay::storage_replay(m, &replay::engine_endpoint(None)?, &chunks)
    }
}
