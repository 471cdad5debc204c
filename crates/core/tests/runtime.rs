//! End-to-end tests of the Hurricane runtime: correctness under cloning,
//! merge reconciliation, and fault injection.

use hurricane_common::BagId;
use hurricane_core::graph::GraphBuilder;
use hurricane_core::merges::{KeyedMerge, ReduceMerge};
use hurricane_core::task::TaskCtx;
use hurricane_core::{EngineError, GraphBag, HurricaneApp, HurricaneConfig};
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A per-chunk artificial compute cost that makes tasks long enough to
/// clone (and to kill mid-flight) at laptop scale.
fn busy_work(micros: u64) {
    let t = std::time::Instant::now();
    while t.elapsed() < Duration::from_micros(micros) {
        std::hint::spin_loop();
    }
}

fn test_config() -> HurricaneConfig {
    // `with_env_overrides` lets CI's low-memory leg re-run this whole
    // suite under a tiny merge budget / spill threshold without a
    // second copy of the tests.
    HurricaneConfig {
        compute_nodes: 4,
        worker_slots: 2,
        chunk_size: 1024,
        clone_interval: Duration::from_millis(10),
        master_poll: Duration::from_millis(1),
        ..Default::default()
    }
    .with_env_overrides()
}

/// Builds the two-stage "sum per key" pipeline used by several tests:
/// phase 1 maps (key, value) to per-key totals held locally per clone,
/// phase 2 reduces clone partials with a merge. Returns (app, input bag,
/// sum bag).
fn sum_pipeline(
    cluster: Arc<StorageCluster>,
    config: HurricaneConfig,
    work_per_chunk_us: u64,
) -> (
    HurricaneApp,
    hurricane_core::GraphBag,
    hurricane_core::GraphBag,
) {
    let mut g = GraphBuilder::new();
    let input = g.source("values");
    let summed = g.bag("summed");
    g.task_with_merge(
        "sum",
        &[input],
        &[summed],
        move |ctx: &mut TaskCtx| {
            let mut total = 0u64;
            while let Some(recs) = ctx.next_records::<u64>(0)? {
                busy_work(work_per_chunk_us);
                total += recs.iter().sum::<u64>();
            }
            ctx.write_record(0, &total)?;
            Ok(())
        },
        ReduceMerge::new(|a: u64, b: u64| a + b),
    );
    let app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    (app, input, summed)
}

#[test]
fn sum_with_merge_is_exact() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (mut app, input, summed) = sum_pipeline(cluster, test_config(), 0);
    let n = 10_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out.len(), 1, "merge must produce a single total");
    assert_eq!(out[0], n * (n - 1) / 2);
    assert!(report.merges_run >= 1);
}

#[test]
fn cloning_kicks_in_on_long_tasks() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let config = HurricaneConfig {
        chunk_size: 256,
        ..test_config()
    };
    let (mut app, input, summed) = sum_pipeline(cluster, config, 500);
    let n = 40_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2], "cloned run must stay exact");
    assert!(
        report.total_clones >= 1,
        "a CPU-bound task should have been cloned: {report:?}"
    );
}

#[test]
fn sum_with_merge_is_exact_over_storage_rpc() {
    // The same pipeline on the channel plane: workers' probes are
    // genuinely outstanding together and writers flush through per-node
    // server loops. The result must be bit-identical to the inline
    // plane's.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (mut app, input, summed) = sum_pipeline(cluster, test_config().with_storage_rpc(), 0);
    let n = 10_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
    assert!(report.merges_run >= 1);
}

#[test]
fn durable_spilling_storage_completes_a_full_run() {
    // The whole pipeline on disk-backed storage nodes (`SEGMENT.md`)
    // with a resident budget far below the data volume: the job must
    // stay exact while every node's in-memory footprint remains bounded
    // by the spill threshold (plus one insert batch of slack — spilling
    // runs after each batch lands).
    let dir =
        std::env::temp_dir().join(format!("hurricane-runtime-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = HurricaneConfig {
        spill_threshold_bytes: 32 * 1024,
        ..test_config()
    }
    .with_env_overrides() // the CI low-memory leg shrinks the budget here
    .with_data_dir(&dir);
    let threshold = config.spill_threshold_bytes;
    let slack = (config.chunk_size * config.batch_factor) as u64;

    let mut g = GraphBuilder::new();
    let input = g.source("values");
    let summed = g.bag("summed");
    g.task_with_merge(
        "sum",
        &[input],
        &[summed],
        |ctx: &mut TaskCtx| {
            let mut total = 0u64;
            while let Some(recs) = ctx.next_records::<u64>(0)? {
                total += recs.iter().sum::<u64>();
            }
            ctx.write_record(0, &total)?;
            Ok(())
        },
        ReduceMerge::new(|a: u64, b: u64| a + b),
    );
    let mut app =
        HurricaneApp::deploy_with_storage(g.build().unwrap(), 4, ClusterConfig::default(), config)
            .unwrap();

    let n = 40_000u64; // 320 KB of records, 10x the resident budget.
    app.fill_source(input, 0..n).unwrap();
    let cluster = app.cluster().clone();
    for i in 0..cluster.num_nodes() {
        let node = cluster.node(i);
        assert!(node.is_durable(), "config.data_dir ignored");
        assert!(
            node.resident_bytes() <= threshold + slack,
            "node {i} resident {} exceeds budget after fill",
            node.resident_bytes()
        );
    }

    let report = app.run().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2], "spilled run lost exactness");
    assert!(report.merges_run >= 1);
    for i in 0..cluster.num_nodes() {
        assert!(
            cluster.node(i).resident_bytes() <= threshold + slack,
            "node {i} resident {} exceeds budget after run",
            cluster.node(i).resident_bytes()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What a durable job leaves behind, counted: a ClickLog-shaped graph
/// (one router fanning a source out to eight region bags, then two
/// merged stages per region — 25 graph bags plus the engine's work and
/// partial bags) on two storage nodes. Every bag journals to one flat
/// `bag-<id>.log` per node that holds any of it, created by its first
/// frame: no directory below `node-<i>/`, no second file per bag, and
/// nothing for a bag a node only ever probed. The per-stream layout
/// this replaced made a directory, a meta log and a log per origin for
/// each (bag, node), touched or not: 88 directories and 168 files (30
/// of them never written) for this very job, where this makes 88 files.
#[test]
fn durable_job_creates_one_flat_log_per_bag_per_node() {
    const REGIONS: usize = 8;
    const STORAGE_NODES: usize = 2;
    let dir = std::env::temp_dir().join(format!("hurricane-runtime-files-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = HurricaneConfig {
        compute_nodes: 2,
        worker_slots: 1,
        ..test_config()
    }
    .without_cloning() // a clone adds bags: keep the count a constant
    .with_storage_rpc()
    .with_data_dir(&dir);

    let mut g = GraphBuilder::new();
    let input = g.source("clicks");
    let regions: Vec<_> = (0..REGIONS).map(|r| g.bag(format!("region.{r}"))).collect();
    g.task("route", &[input], &regions, |ctx: &mut TaskCtx| {
        while let Some(recs) = ctx.next_records::<u64>(0)? {
            for v in recs {
                ctx.write_record(v as usize % REGIONS, &v)?;
            }
        }
        Ok(())
    });
    let sum_stage = |ctx: &mut TaskCtx| {
        let mut total = 0u64;
        while let Some(recs) = ctx.next_records::<u64>(0)? {
            total += recs.iter().sum::<u64>();
        }
        ctx.write_record(0, &total)?;
        Ok(())
    };
    let mut totals = Vec::new();
    for (r, &region) in regions.iter().enumerate() {
        let partial = g.bag(format!("partial.{r}"));
        let total = g.bag(format!("total.{r}"));
        let add = || ReduceMerge::new(|a: u64, b: u64| a + b);
        g.task_with_merge(format!("sum.{r}"), &[region], &[partial], sum_stage, add());
        g.task_with_merge(format!("fold.{r}"), &[partial], &[total], sum_stage, add());
        totals.push(total);
    }
    let mut app = HurricaneApp::deploy_with_storage(
        g.build().unwrap(),
        STORAGE_NODES,
        ClusterConfig::default(),
        config,
    )
    .unwrap();
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    app.run().unwrap();
    let mut sum = 0;
    for &total in &totals {
        sum += app.read_records::<u64>(total).unwrap().iter().sum::<u64>();
    }
    assert_eq!(sum, n * (n - 1) / 2, "durable run lost exactness");

    // Bag ids are dense from 0, so the next one is how many were made.
    let bags = app.cluster().create_bag().0;
    let mut roots: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    roots.sort();
    assert_eq!(roots, ["node-0", "node-1"]);
    let mut files = 0u64;
    for root in roots {
        let mut seen = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(dir.join(&root)).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                entry.file_type().unwrap().is_file(),
                "{root}/{name} is not a plain file"
            );
            let id: u64 = name
                .strip_prefix("bag-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{root}/{name} is not a bag log"));
            assert!(id < bags, "{root}/{name} names a bag nobody created");
            assert!(seen.insert(id), "{root} holds two logs for bag {id}");
            files += 1;
        }
    }
    assert!(files > 0, "a durable job journaled nothing");
    assert!(
        files <= bags * STORAGE_NODES as u64 && files <= 90,
        "{files} files for {bags} bags on {STORAGE_NODES} nodes"
    );
    drop(app);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rpc_run_survives_compute_node_failure() {
    // Fault recovery (cancel, rewind, restart at a bumped generation)
    // exercised end to end with every bag access flowing over RPC.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (app, input, summed) = sum_pipeline(cluster, test_config().with_storage_rpc(), 200);
    let n = 15_000u64;
    app.fill_source(input, 0..n).unwrap();
    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    running.kill_compute_node(1);
    running.wait().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
}

#[test]
fn hurricane_nc_never_clones() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (mut app, input, summed) = sum_pipeline(cluster, test_config().without_cloning(), 300);
    let n = 5_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    assert_eq!(report.total_clones, 0);
    assert_eq!(report.clone_requests, 0, "workers should not even ping");
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
}

#[test]
fn multi_stage_pipeline_with_concat_stage() {
    // phase1: route evens/odds into two bags (default concat merge —
    // clones write straight into the shared outputs). phase2: sum each.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let mut g = GraphBuilder::new();
    let input = g.source("numbers");
    let evens = g.bag("evens");
    let odds = g.bag("odds");
    g.task("route", &[input], &[evens, odds], |ctx: &mut TaskCtx| {
        while let Some(recs) = ctx.next_records::<u64>(0)? {
            for r in recs {
                ctx.write_record((r % 2) as usize, &r)?;
            }
        }
        Ok(())
    });
    let mut sums = Vec::new();
    for (name, bag) in [("sum-evens", evens), ("sum-odds", odds)] {
        let out = g.bag(format!("{name}.out"));
        g.task_with_merge(
            name,
            &[bag],
            &[out],
            |ctx: &mut TaskCtx| {
                let mut total = 0u64;
                while let Some(recs) = ctx.next_records::<u64>(0)? {
                    total += recs.iter().sum::<u64>();
                }
                ctx.write_record(0, &total)?;
                Ok(())
            },
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        sums.push(out);
    }
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, test_config()).unwrap();
    let n = 10_000u64;
    app.fill_source(input, 0..n).unwrap();
    app.run().unwrap();
    let even_sum: Vec<u64> = app.read_records(sums[0]).unwrap();
    let odd_sum: Vec<u64> = app.read_records(sums[1]).unwrap();
    let expect_even: u64 = (0..n).filter(|x| x % 2 == 0).sum();
    let expect_odd: u64 = (0..n).filter(|x| x % 2 == 1).sum();
    assert_eq!(even_sum, vec![expect_even]);
    assert_eq!(odd_sum, vec![expect_odd]);
}

#[test]
fn a_chain_of_merged_stages_hands_off_without_waiting_for_the_poll() {
    // Five stages, each a task with a merge that reads the stage before
    // it: ten handoffs (a task's instances to its merge, a merge to the
    // next stage), each of which the master makes. The master polls
    // every 5 s; a handoff that waited for the poll would hold the job
    // past 5 s, so each one has to come from a worker's wake-up.
    const STAGES: u64 = 5;
    let config = HurricaneConfig {
        master_poll: Duration::from_secs(5),
        ..test_config()
    };
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let mut g = GraphBuilder::new();
    let input = g.source("values");
    let mut bag = input;
    for stage in 0..STAGES {
        let next = g.bag(format!("stage.{stage}"));
        // Σ (x + 1): one more per record, whichever clone reads it.
        g.task_with_merge(
            format!("add.{stage}"),
            &[bag],
            &[next],
            |ctx: &mut TaskCtx| {
                let mut total = 0u64;
                while let Some(recs) = ctx.next_records::<u64>(0)? {
                    total += recs.iter().map(|x| x + 1).sum::<u64>();
                }
                ctx.write_record(0, &total)?;
                Ok(())
            },
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        bag = next;
    }
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    let n = 1_000u64;
    app.fill_source(input, 0..n).unwrap();
    let t = Instant::now();
    let report = app.run().unwrap();
    let took = t.elapsed();
    // Stage 0 sums x + 1 over the input; each later stage adds one to
    // the single total of the one before.
    let out: Vec<u64> = app.read_records(bag).unwrap();
    assert_eq!(out, vec![n * (n + 1) / 2 + STAGES - 1]);
    assert_eq!(u64::from(report.merges_run), STAGES);
    assert!(
        took < Duration::from_secs(2),
        "{took:?} for {STAGES} stages"
    );
}

#[test]
fn compute_node_failure_recovers_exactly() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (app, input, summed) = sum_pipeline(cluster, test_config(), 200);
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(60));
    running.kill_compute_node(1);
    let report = running.wait().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(
        out,
        vec![n * (n - 1) / 2],
        "restarted task must produce the exact result (exactly-once reads)"
    );
    // The killed node either hosted work (restart observed) or happened to
    // be idle; both are legal, but the run must have completed regardless.
    assert!(report.restarts <= 4);
}

#[test]
fn parallel_merge_outputs_survive_compute_node_failure() {
    // A four-output task whose merge phase dispatches output indices
    // across a worker pool (merge_parallelism > 1), with a compute node
    // killed mid-run: per-output totals must still be exact.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let config = HurricaneConfig {
        merge_parallelism: 4,
        ..test_config()
    };
    let mut g = GraphBuilder::new();
    let input = g.source("values");
    let outs: Vec<_> = (0..4).map(|i| g.bag(format!("residue.{i}"))).collect();
    g.task_with_merge(
        "scatter-sum",
        &[input],
        &outs,
        move |ctx: &mut TaskCtx| {
            let mut totals = [0u64; 4];
            while let Some(recs) = ctx.next_records::<u64>(0)? {
                busy_work(200);
                for v in recs {
                    totals[(v % 4) as usize] += v;
                }
            }
            for (j, t) in totals.iter().enumerate() {
                ctx.write_record(j, t)?;
            }
            Ok(())
        },
        ReduceMerge::new(|a: u64, b: u64| a + b),
    );
    let app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(60));
    running.kill_compute_node(2);
    running.wait().unwrap();
    for (j, &out_bag) in outs.iter().enumerate() {
        let got: Vec<u64> = app.read_records(out_bag).unwrap();
        let expect: u64 = (0..n).filter(|v| v % 4 == j as u64).sum();
        assert_eq!(got, vec![expect], "output {j} total");
    }
}

#[test]
fn node_failure_then_restart_rejoins() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (app, input, summed) = sum_pipeline(cluster, test_config(), 200);
    let n = 10_000u64;
    app.fill_source(input, 0..n).unwrap();
    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(40));
    running.kill_compute_node(0);
    std::thread::sleep(Duration::from_millis(40));
    running.restart_compute_node(0);
    running.wait().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
}

#[test]
fn master_crash_and_recovery_mid_run() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (app, input, summed) = sum_pipeline(cluster, test_config(), 200);
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    let mut running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    running.crash_and_recover_master().unwrap();
    let report = running.wait().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
    assert!(report.master_recoveries <= 1);
}

#[test]
fn master_crash_recovery_twice() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let (app, input, summed) = sum_pipeline(cluster, test_config(), 150);
    let n = 15_000u64;
    app.fill_source(input, 0..n).unwrap();
    let mut running = app.start().unwrap();
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(30));
        running.crash_and_recover_master().unwrap();
    }
    running.wait().unwrap();
    let out: Vec<u64> = app.read_records(summed).unwrap();
    assert_eq!(out, vec![n * (n - 1) / 2]);
}

/// Builds a fan-out pipeline whose task splats every input chunk
/// verbatim to `k` outputs via `TaskCtx::splat_chunk`, with per-chunk
/// busy work so the run is long enough to clone and to kill into.
/// Returns (app, input bag, output bags).
fn splat_pipeline(
    cluster: Arc<StorageCluster>,
    config: HurricaneConfig,
    k: usize,
    work_per_chunk_us: u64,
) -> (
    HurricaneApp,
    hurricane_core::GraphBag,
    Vec<hurricane_core::GraphBag>,
) {
    let mut g = GraphBuilder::new();
    let input = g.source("values");
    let outs: Vec<hurricane_core::GraphBag> = (0..k).map(|i| g.bag(format!("copy.{i}"))).collect();
    let out_indices: Vec<usize> = (0..k).collect();
    g.task("fanout", &[input], &outs, move |ctx: &mut TaskCtx| {
        while let Some(chunk) = ctx.next_chunk(0)? {
            busy_work(work_per_chunk_us);
            ctx.splat_chunk(&out_indices, &chunk)?;
        }
        Ok(())
    });
    let app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    (app, input, outs)
}

fn read_sorted(app: &HurricaneApp, bag: hurricane_core::GraphBag) -> Vec<u64> {
    let mut v: Vec<u64> = app.read_records(bag).unwrap();
    v.sort_unstable();
    v
}

#[test]
fn chunk_splatting_delivers_identical_copies_to_all_outputs() {
    // Exactly-once delivery through the splat path: every output bag must
    // hold exactly the input multiset, even with clones racing over the
    // shared input.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let config = HurricaneConfig {
        chunk_size: 256,
        ..test_config()
    };
    let (mut app, input, outs) = splat_pipeline(cluster, config, 3, 300);
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    let expect: Vec<u64> = (0..n).collect();
    for (i, &bag) in outs.iter().enumerate() {
        assert_eq!(
            read_sorted(&app, bag),
            expect,
            "output {i} must hold exactly the input multiset"
        );
    }
    // The splatted copies must be chunk-identical across outputs, not
    // just record-identical: collect each bag's chunk payloads as a
    // multiset and compare.
    let mut chunk_sets: Vec<Vec<Vec<u8>>> = outs
        .iter()
        .map(|&b| {
            let mut chunks: Vec<Vec<u8>> = app
                .read_chunks(b)
                .unwrap()
                .iter()
                .map(|c| c.bytes().to_vec())
                .collect();
            chunks.sort();
            chunks
        })
        .collect();
    let first = chunk_sets.remove(0);
    for (i, set) in chunk_sets.iter().enumerate() {
        assert_eq!(&first, set, "output {} chunks differ from output 0", i + 1);
    }
    let _ = report;
}

#[test]
fn chunk_splatting_survives_compute_node_failure() {
    // Kill a node mid-run: the restarted task's rewind must not
    // duplicate or drop any splatted chunk in any of the k outputs.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let config = HurricaneConfig {
        chunk_size: 256,
        ..test_config()
    };
    let (app, input, outs) = splat_pipeline(cluster, config, 3, 300);
    let n = 20_000u64;
    app.fill_source(input, 0..n).unwrap();
    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    running.kill_compute_node(1);
    running.wait().unwrap();
    let expect: Vec<u64> = (0..n).collect();
    for (i, &bag) in outs.iter().enumerate() {
        assert_eq!(
            read_sorted(&app, bag),
            expect,
            "output {i} must survive the failure with exactly-once contents"
        );
    }
}

#[test]
fn task_error_aborts_run() {
    let cluster = StorageCluster::new(2, ClusterConfig::default());
    let mut g = GraphBuilder::new();
    let input = g.source("in");
    let out = g.bag("out");
    g.task("explode", &[input], &[out], |ctx: &mut TaskCtx| {
        let _ = ctx.next_chunk(0)?;
        Err(EngineError::TaskFailed {
            task: ctx.instance().task,
            message: "deliberate".into(),
        })
    });
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, test_config()).unwrap();
    app.fill_source(input, 0..10u64).unwrap();
    let err = app.run().unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed { .. }), "{err}");
}

#[test]
fn a_panicking_task_fails_the_job_instead_of_hanging_it() {
    let cluster = StorageCluster::new(2, ClusterConfig::default());
    let mut g = GraphBuilder::new();
    let input = g.source("in");
    let out = g.bag("out");
    g.task("explode", &[input], &[out], |ctx: &mut TaskCtx| {
        let _ = ctx.next_chunk(0)?;
        panic!("deliberate panic on the first chunk");
    });
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, test_config()).unwrap();
    app.fill_source(input, 0..10u64).unwrap();
    // On a helper thread, so a hang fails this test instead of stalling
    // the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(app.run()));
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a panicking task hung the job");
    match result {
        Err(EngineError::TaskFailed { message, .. }) => assert!(
            message.contains("deliberate panic on the first chunk"),
            "{message}"
        ),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn an_input_read_only_by_snapshot_is_never_removed_from() {
    // PageRank's `iter` shape: input 0 is read whole, input 1 drained.
    // The master collects both once `iter` completes, so each instance
    // samples them itself, after it has seen the drained input end:
    // by then every chunk of `work` has been removed and no instance
    // can remove from `state` any more.
    for config in [test_config(), test_config().with_storage_rpc()] {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let mut g = GraphBuilder::new();
        let state = g.source("state");
        let work = g.source("work");
        let out = g.bag("out");
        let bags: Arc<OnceLock<[BagId; 2]>> = Arc::default();
        let (seen, sampled) = (bags.clone(), cluster.clone());
        g.task("iter", &[state, work], &[out], move |ctx: &mut TaskCtx| {
            let state: Vec<u64> = ctx.snapshot_input(0)?;
            let mut n = 0u64;
            while let Some(recs) = ctx.next_records::<u64>(1)? {
                busy_work(50);
                n += recs.len() as u64;
            }
            let mut port = RpcPort::inline(sampled.clone());
            let [state_bag, work_bag] = *seen.get().expect("set before the run");
            let state_removed = port.sample_bag(state_bag)?.removed_chunks;
            let work = port.sample_bag(work_bag)?;
            let work_left = work.total_chunks - work.removed_chunks;
            ctx.write_record(0, &(state.len() as u64, n, state_removed, work_left))?;
            Ok(())
        });
        let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
        bags.set([app.physical_bag(state), app.physical_bag(work)])
            .unwrap();
        app.fill_source(state, 0..5_000u64).unwrap();
        app.fill_source(work, 0..5_000u64).unwrap();
        app.run().unwrap();
        let outputs: Vec<(u64, u64, u64, u64)> = app.read_records(out).unwrap();
        assert!(!outputs.is_empty());
        for &(state_len, _, state_removed, work_left) in &outputs {
            assert_eq!(state_len, 5_000, "a snapshot reads all of `state`");
            assert_eq!(state_removed, 0, "`state` is never removed from");
            assert_eq!(work_left, 0, "`work` is removed in full");
        }
        assert_eq!(outputs.iter().map(|o| o.1).sum::<u64>(), 5_000);
    }
}

/// A three-stage pipeline over the source `values`: `route` splits it
/// into `even` and `odd` (no merge: its instances write the shared
/// outputs), `sum.even` and `sum.odd` sum each half with busy work per
/// chunk and a merge over their clone partials, and `total` reads
/// `half.even` by snapshot and drains `half.odd` into the one sink,
/// `total`, which holds `(even sum, odd sum)`. `total` starts reading
/// only once `gate` is set. Returns the app, the source, the bags a
/// completed task read (the source first) and the sink.
fn collection_pipeline(
    cluster: Arc<StorageCluster>,
    config: HurricaneConfig,
    gate: Arc<AtomicBool>,
) -> (HurricaneApp, GraphBag, Vec<GraphBag>, GraphBag) {
    let mut g = GraphBuilder::new();
    let values = g.source("values");
    let halves = [g.bag("even"), g.bag("odd")];
    g.task("route", &[values], &halves, |ctx: &mut TaskCtx| {
        while let Some(recs) = ctx.next_records::<u64>(0)? {
            for r in recs {
                ctx.write_record((r % 2) as usize, &r)?;
            }
        }
        Ok(())
    });
    let mut sums = Vec::new();
    for (name, half) in ["even", "odd"].into_iter().zip(halves) {
        let sum = g.bag(format!("half.{name}"));
        g.task_with_merge(
            format!("sum.{name}"),
            &[half],
            &[sum],
            |ctx: &mut TaskCtx| {
                let mut total = 0u64;
                while let Some(recs) = ctx.next_records::<u64>(0)? {
                    busy_work(300);
                    total += recs.iter().sum::<u64>();
                }
                ctx.write_record(0, &total)
            },
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        sums.push(sum);
    }
    let total = g.bag("total");
    g.task("total", &sums, &[total], move |ctx: &mut TaskCtx| {
        while !gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let even: u64 = ctx.snapshot_input::<u64>(0)?.iter().sum();
        let odd = ctx.fold_records::<u64, _, _>(1, 0u64, |acc, v| acc + v)?;
        ctx.write_record(0, &(even, odd))
    });
    let app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    let read = vec![values, halves[0], halves[1], sums[0], sums[1]];
    (app, values, read, total)
}

/// The sums `collection_pipeline` writes to its sink for `0..n`.
fn even_odd_sums(n: u64) -> (u64, u64) {
    let even = (0..n).filter(|v| v % 2 == 0).sum();
    (even, n * (n - 1) / 2 - even)
}

/// Every bag `cluster` has made, by id (ids are dense from 0): `None`
/// for a collected bag, else the bytes its nodes hold of it.
fn every_bag(cluster: &Arc<StorageCluster>) -> Vec<Option<u64>> {
    let made = cluster.create_bag().0;
    let mut port = RpcPort::inline(cluster.clone());
    (0..made)
        .map(|id| match port.sample_bag(BagId(id)) {
            Ok(sample) => Some(sample.resident_bytes),
            Err(StorageError::BagCollected(_)) => None,
            Err(e) => panic!("sampling bag {id}: {e}"),
        })
        .collect()
}

#[test]
fn every_bag_a_completed_task_read_is_collected() {
    for config in [test_config(), test_config().with_storage_rpc()] {
        let inline = !config.storage_rpc;
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let gate = Arc::new(AtomicBool::new(true));
        let (mut app, values, read, total) = collection_pipeline(cluster.clone(), config, gate);
        // Every id below this one was made at deploy: the graph's bags
        // and the ready, running and done bags. Clone partials and spill
        // runs come after it.
        let deployed = cluster.create_bag().0 as usize;
        let n = 100_000u64;
        app.fill_source(values, 0..n).unwrap();
        app.run().unwrap();
        let sink: Vec<(u64, u64)> = app.read_records(total).unwrap();
        assert_eq!(sink, [even_odd_sums(n)], "inline {inline}");

        let bags = every_bag(&cluster);
        for &b in &read {
            let name = &app.graph().bag(b).name;
            assert_eq!(
                bags[app.physical_bag(b).0 as usize],
                None,
                "{name}, inline {inline}"
            );
        }
        let partials = &bags[deployed + 1..];
        assert!(
            partials.len() >= 2,
            "one partial per merge-bearing task at least"
        );
        assert!(
            partials.iter().all(Option::is_none),
            "a clone partial outlived its merge, inline {inline}: {partials:?}"
        );
        if inline {
            // Nothing but the sink and the three work bags holds a byte.
            let graph: Vec<usize> = (0..app.graph().num_bags())
                .map(|b| app.physical_bag(GraphBag(b)).0 as usize)
                .collect();
            let work: Vec<u64> = (0..deployed)
                .filter(|id| !graph.contains(id))
                .map(|id| bags[id].expect("a work bag is never collected"))
                .collect();
            assert_eq!(work.len(), 3, "ready, running and done");
            let sink = bags[app.physical_bag(total).0 as usize].expect("the sink stays");
            assert!(sink > 0);
            let resident: u64 = (0..cluster.num_nodes())
                .map(|i| cluster.node(i).resident_bytes())
                .sum();
            assert_eq!(resident, sink + work.iter().sum::<u64>());
        }
    }
}

#[test]
fn a_master_recovered_after_two_stages_completed_finishes_exactly() {
    // The recovered master replays the completions of `route` and both
    // `sum` tasks: it seals their outputs and collects their inputs and
    // partials again, though the crashed master had collected them.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let gate = Arc::new(AtomicBool::new(false));
    let (app, values, read, total) =
        collection_pipeline(cluster.clone(), test_config(), gate.clone());
    let n = 100_000u64;
    app.fill_source(values, 0..n).unwrap();
    let mut running = app.start().unwrap();
    // Both `sum` tasks have completed once their inputs are collected;
    // `total` is held at its gate meanwhile.
    let halves = [app.physical_bag(read[1]), app.physical_bag(read[2])];
    let mut port = RpcPort::inline(cluster.clone());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !halves
        .iter()
        .all(|&b| port.sample_bag(b) == Err(StorageError::BagCollected(b)))
    {
        if Instant::now() > deadline {
            gate.store(true, Ordering::Release);
            panic!("the first two stages never had their inputs collected");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    running.crash_and_recover_master().unwrap();
    gate.store(true, Ordering::Release);
    let report = running.wait().unwrap();
    assert_eq!(report.master_recoveries, 1);
    let sink: Vec<(u64, u64)> = app.read_records(total).unwrap();
    assert_eq!(sink, [even_odd_sums(n)]);
    for &b in &read {
        let bag = app.physical_bag(b);
        assert_eq!(port.sample_bag(bag), Err(StorageError::BagCollected(bag)));
    }
}

#[test]
fn skewed_two_region_pipeline_clones_the_heavy_region() {
    // A miniature of the paper's central claim: two downstream tasks, one
    // with 50x the data. With cloning, the heavy task should attract
    // clones while the light one completes on a single worker. Cloning
    // can only move work still in the bag (late binding, paper §2.2), so
    // this is also the check that readers do not claim the heavy bag
    // into their prefetch queues ahead of the master's sample — on
    // either transport.
    for config in [test_config(), test_config().with_storage_rpc()] {
        skewed_two_region_pipeline(config);
    }
}

fn skewed_two_region_pipeline(config: HurricaneConfig) {
    let storage_rpc = config.storage_rpc;
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let mut g = GraphBuilder::new();
    let input = g.source("records");
    let heavy = g.bag("region.heavy");
    let light = g.bag("region.light");
    g.task("split", &[input], &[heavy, light], |ctx: &mut TaskCtx| {
        while let Some(recs) = ctx.next_records::<u64>(0)? {
            for r in recs {
                ctx.write_record(if r % 51 == 0 { 1 } else { 0 }, &r)?;
            }
        }
        Ok(())
    });
    let mut outs = Vec::new();
    for (name, bag) in [("heavy-sum", heavy), ("light-sum", light)] {
        let out = g.bag(format!("{name}.out"));
        g.task_with_merge(
            name,
            &[bag],
            &[out],
            |ctx: &mut TaskCtx| {
                let mut total = 0u64;
                while let Some(recs) = ctx.next_records::<u64>(0)? {
                    busy_work(400);
                    total += recs.iter().sum::<u64>();
                }
                ctx.write_record(0, &total)?;
                Ok(())
            },
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        outs.push(out);
    }
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    let n = 30_000u64;
    app.fill_source(input, 0..n).unwrap();
    let report = app.run().unwrap();
    let heavy_sum: Vec<u64> = app.read_records(outs[0]).unwrap();
    let light_sum: Vec<u64> = app.read_records(outs[1]).unwrap();
    let expect_light: u64 = (0..n).filter(|x| x % 51 == 0).sum();
    let expect_heavy: u64 = (0..n).filter(|x| x % 51 != 0).sum();
    assert_eq!(heavy_sum, vec![expect_heavy]);
    assert_eq!(light_sum, vec![expect_light]);
    let heavy_task = app.graph().task_by_name("heavy-sum").unwrap();
    let heavy_clones = report
        .clones_per_task
        .get(&heavy_task.0)
        .copied()
        .unwrap_or(0);
    assert!(
        heavy_clones >= 1,
        "the heavy region should attract clones (storage_rpc = {storage_rpc}): {report:?}"
    );
}

#[test]
fn bounded_merge_zipf_groupby_survives_compute_node_kill() {
    // The spill tentpole end to end: a Zipf-skewed group-by whose
    // distinct-key merge state (~500 keys) dwarfs `merge_memory_budget`
    // (a few table entries), with a compute node killed mid-run. The
    // keyed merge must spill to scratch runs, re-fold them, and still
    // produce exact per-key counts in sorted chunks — and the retried
    // merge's scratch and outputs from the killed attempt must not leak
    // extra records into the output.
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let config = HurricaneConfig {
        merge_memory_budget: 512,
        ..test_config()
    };
    let mut g = GraphBuilder::new();
    let input = g.source("events");
    let counts = g.bag("counts");
    g.task_with_merge(
        "count-by-key",
        &[input],
        &[counts],
        |ctx: &mut TaskCtx| {
            let mut local: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
            while let Some(recs) = ctx.next_records::<u32>(0)? {
                busy_work(800);
                for k in recs {
                    *local.entry(k).or_insert(0) += 1;
                }
            }
            let mut sorted: Vec<(u32, u64)> = local.into_iter().collect();
            sorted.sort_unstable();
            for rec in &sorted {
                ctx.write_record(0, rec)?;
            }
            Ok(())
        },
        KeyedMerge::<u32, u64, _>::new(|a, b| a + b),
    );
    let app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();

    // Deterministic Zipf(1.1) sampler over 500 keys (inverse CDF over
    // SplitMix64 draws).
    let keys = 500usize;
    let weights: Vec<f64> = (1..=keys).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(keys);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = 30_000;
    let mut expect: std::collections::BTreeMap<u32, u64> = Default::default();
    let sample: Vec<u32> = (0..n)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let k = cdf.partition_point(|&c| c < u) as u32;
            *expect.entry(k).or_insert(0) += 1;
            k
        })
        .collect();
    app.fill_source(input, sample).unwrap();

    let running = app.start().unwrap();
    std::thread::sleep(Duration::from_millis(30));
    running.kill_compute_node(1);
    running.wait().unwrap();

    // Each output chunk must be internally ascending (the keyed merge
    // emits sorted output), but chunk order across storage nodes is not
    // part of the bag contract: bags are FIFO per node and unordered
    // across nodes, and a restarted merge's writer draws a fresh
    // placement permutation, so the chunks may read back transposed.
    // Global byte-identity of the spilled fold is pinned where ordering
    // is defined — the merge-layer proptests in `props_merge.rs`.
    for c in &app.read_chunks(counts).unwrap() {
        let recs: Vec<(u32, u64)> = hurricane_format::decode_all(c).unwrap();
        assert!(
            recs.windows(2).all(|w| w[0].0 < w[1].0),
            "keyed merge chunk must be in ascending key order"
        );
    }
    let mut got: Vec<(u32, u64)> = app.read_records(counts).unwrap();
    got.sort_unstable();
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "duplicate key in merge output: the retried merge leaked records"
    );
    let expect: Vec<(u32, u64)> = expect.into_iter().collect();
    assert_eq!(got, expect, "spilled group-by lost exactness");
}
