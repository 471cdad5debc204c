//! Criterion microbenchmarks of the substrates: serialization, bag
//! operations, placement, workload generation — and the contended
//! storage-node benchmarks of the sharded hot path on each plane.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hurricane_common::{BagId, DetRng};
use hurricane_core::task::{BagReader, BagWriter, SpillSink};
use hurricane_core::EngineError;
use hurricane_format::{decode_all, encode_all};
use hurricane_storage::bag::{BagClient, BatchRemoveResult};
use hurricane_storage::placement::CyclicPlacement;
use hurricane_storage::prefetch::Prefetcher;
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageEndpoint};
use hurricane_workloads::clicklog::{ClickLogGen, ClickLogSpec};
use hurricane_workloads::rmat::{RmatGen, RmatSpec};
use hurricane_workloads::ZipfSampler;
use std::sync::Arc;

fn bench_codec(c: &mut Criterion) {
    let records: Vec<(u64, String)> = (0..10_000).map(|i| (i, format!("payload-{i}"))).collect();
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("encode_10k_records", |b| {
        b.iter(|| encode_all(records.iter().cloned(), 64 * 1024).unwrap())
    });
    let chunks = encode_all(records.iter().cloned(), 64 * 1024).unwrap();
    g.bench_function("decode_10k_records", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for chunk in &chunks {
                n += decode_all::<(u64, String)>(chunk).unwrap().len();
            }
            n
        })
    });
    g.finish();
}

/// The compute-side record hot path (PR 4): owned vs borrowed decode,
/// single-pass encode, and the fan-out spectrum — re-encode per output
/// vs encode-once (`push_encoded`) vs chunk splatting.
fn bench_compute_path(c: &mut Criterion) {
    use hurricane_format::{Chunk, ChunkReader, ChunkWriter, Record};

    const RECS: u64 = 10_000;
    const CHUNK: usize = 64 * 1024;
    const FAN_OUT: usize = 4;

    let records: Vec<(u64, String)> = (0..RECS).map(|i| (i, format!("payload-{i}"))).collect();
    let chunks = encode_all(records.iter().cloned(), CHUNK).unwrap();

    let mut g = c.benchmark_group("compute_path");
    g.throughput(Throughput::Elements(RECS));

    // Decode-heavy loop: sum of name lengths over every record. The owned
    // path pays a String allocation per record plus a Vec per chunk; the
    // borrowed path reads `&str` views straight out of the chunk.
    g.bench_function("decode/owned_vec", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for chunk in &chunks {
                for (_, s) in decode_all::<(u64, String)>(chunk).unwrap() {
                    bytes += s.len();
                }
            }
            bytes
        })
    });
    g.bench_function("decode/borrowed_view", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for chunk in &chunks {
                ChunkReader::<(u64, String)>::new(chunk)
                    .for_each(|(_, s)| bytes += s.len())
                    .unwrap();
            }
            bytes
        })
    });

    // Encode: the live single-pass push, on flat records and on nested
    // records (whose sizing pass would walk the whole vector).
    g.bench_function("encode/single_pass", |b| {
        b.iter(|| {
            let mut w = ChunkWriter::<(u64, String)>::new(CHUNK);
            let mut n = 0usize;
            for r in &records {
                n += w.push(r).unwrap().is_some() as usize;
            }
            n + w.finish().is_some() as usize
        })
    });
    // Nested records: one record = 16 (id, name) pairs. Throughput stays
    // per-leaf-element so the numbers compare against the flat encode.
    type Nested = (u64, Vec<(u32, String)>);
    let nested: Vec<Nested> = (0..RECS / 16)
        .map(|i| {
            (
                i,
                (0..16u32).map(|j| (j, format!("field-{i}-{j}"))).collect(),
            )
        })
        .collect();
    g.bench_function("encode_nested/single_pass", |b| {
        b.iter(|| {
            let mut w = ChunkWriter::<Nested>::new(CHUNK);
            let mut n = 0usize;
            for r in &nested {
                n += w.push(r).unwrap().is_some() as usize;
            }
            n + w.finish().is_some() as usize
        })
    });

    // Fan-out: the same stream delivered to FAN_OUT outputs. Throughput
    // stays per-input-record, so elems/sec across the three variants
    // reads directly as "cost of fanning one record out k ways".
    g.bench_function(format!("fanout_k{FAN_OUT}/reencode_per_output"), |b| {
        b.iter(|| {
            let mut ws: Vec<ChunkWriter<(u64, String)>> =
                (0..FAN_OUT).map(|_| ChunkWriter::new(CHUNK)).collect();
            let mut n = 0usize;
            for r in &records {
                for w in &mut ws {
                    n += w.push(r).unwrap().is_some() as usize;
                }
            }
            n
        })
    });
    g.bench_function(format!("fanout_k{FAN_OUT}/encode_once"), |b| {
        b.iter(|| {
            let mut ws: Vec<ChunkWriter<(u64, String)>> =
                (0..FAN_OUT).map(|_| ChunkWriter::new(CHUNK)).collect();
            let mut scratch = Vec::new();
            let mut n = 0usize;
            for r in &records {
                scratch.clear();
                r.encode(&mut scratch);
                for w in &mut ws {
                    n += w.push_encoded(&scratch).unwrap().is_some() as usize;
                }
            }
            n
        })
    });
    g.bench_function(format!("fanout_k{FAN_OUT}/chunk_splat"), |b| {
        b.iter(|| {
            let mut sinks: Vec<Vec<Chunk>> = (0..FAN_OUT).map(|_| Vec::new()).collect();
            for chunk in &chunks {
                for sink in &mut sinks {
                    sink.push(chunk.clone());
                }
            }
            sinks.iter().map(Vec::len).sum::<usize>()
        })
    });
    g.finish();
}

/// The merge plane: the borrowed keyed fold, the checked second
/// pass over a validated sequence, and fixed-stride random access vs
/// sequential checked decoding.
fn bench_merge_path(c: &mut Criterion) {
    use hurricane_common::SplitMix64;
    use hurricane_core::merges::KeyedMerge;
    use hurricane_core::task::MergeLogic;
    use hurricane_format::{FixedU64, Record, RecordView, SeqView};

    const RECS: u64 = 40_000;
    const KEYS: u64 = 1024;
    const PARTIALS: u64 = 2;
    const MERGE_CHUNK: usize = 64 * 1024;

    /// Two sealed partial bags on `nodes` storage nodes, each written by
    /// `fill(partial, writer)`, plus an output writer — the unit a keyed
    /// merge consumes per call.
    fn merge_setup(
        nodes: usize,
        fill: impl Fn(u64, &mut BagWriter),
    ) -> (Vec<BagReader>, BagWriter) {
        let cluster = StorageCluster::new(nodes, ClusterConfig::default());
        let mut readers = Vec::new();
        for part in 0..PARTIALS {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open(cluster.clone(), bag, part, MERGE_CHUNK);
            fill(part, &mut w);
            w.flush().unwrap();
            cluster.seal_bag(bag).unwrap();
            readers.push(BagReader::open(cluster.clone(), bag, 100 + part, 4, None));
        }
        let out_bag = cluster.create_bag();
        let out = BagWriter::open(cluster, out_bag, 999, MERGE_CHUNK);
        (readers, out)
    }

    /// (key, count) records over 1,024 distinct keys.
    fn keyed_setup() -> (Vec<BagReader>, BagWriter) {
        merge_setup(1, |part, w| {
            for i in 0..RECS / PARTIALS {
                let key = SplitMix64::mix(part * 1_000_003 + i) % KEYS;
                w.write_record(&(key, 1u64)).unwrap();
            }
        })
    }

    let mut g = c.benchmark_group("merge_path");
    g.sample_size(10);
    g.throughput(Throughput::Elements(RECS));
    g.bench_function("keyed_fold/borrowed", |b| {
        let live = KeyedMerge::<u64, u64, _>::new(|a, b| a + b);
        b.iter_batched(
            keyed_setup,
            |(mut readers, mut out)| {
                live.merge(0, &mut readers, &mut out).unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    // The regime a cloned job's merge is in: every key distinct within a
    // partial, each partial written `for v in 0..n` from ordered task
    // state, over the whole key range. The 1,024-key case above never
    // grows its table and hides the per-key cost. On one storage node a
    // bag reads back in write order, so the partials arrive ascending;
    // on two (the benchmark's PageRank merge replay and its engine) their
    // chunks arrive in storage order, and the merge must first put them
    // back in key order.
    const HC_KEYS: u32 = 131_072;
    fn distinct_setup(nodes: usize) -> (Vec<BagReader>, BagWriter) {
        merge_setup(nodes, |part, w| {
            for v in 0..HC_KEYS {
                let contrib = 1.0 / f64::from(v + 1);
                w.write_record(&(v, (contrib, part as u32))).unwrap();
            }
        })
    }
    g.throughput(Throughput::Elements(PARTIALS * u64::from(HC_KEYS)));
    for (id, nodes) in [
        ("keyed_fold_128k_keys/borrowed", 1),
        ("keyed_fold_128k_keys_2_nodes/borrowed", 2),
    ] {
        g.bench_function(id, |b| {
            let live =
                KeyedMerge::<u32, (f64, u32), _>::folding(|acc: &mut (f64, u32), v: (f64, u32)| {
                    acc.0 += v.0;
                    acc.1 = acc.1.max(v.1);
                });
            b.iter_batched(
                || distinct_setup(nodes),
                |(mut readers, mut out)| {
                    live.merge(0, &mut readers, &mut out).unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }

    // Sequence iteration: records holding (id, name) element lists —
    // the shape where the second pass re-pays the most (UTF-8
    // revalidation, length checks, Result plumbing per element), the
    // same loop `SeqView::iter` runs. The views are validated once
    // outside the measurement, mirroring a merge fold that constructs
    // the record view and then walks the sequence — the measured pass is
    // only the per-element re-read.
    const SEQ_RECORDS: usize = 256;
    const ELEMS_PER: usize = 16;
    let seq_recs: Vec<Vec<(u32, String)>> = (0..SEQ_RECORDS)
        .map(|i| {
            (0..ELEMS_PER)
                .map(|j| (j as u32, format!("member-{i}-{j}")))
                .collect()
        })
        .collect();
    let mut seq_buf = Vec::new();
    for r in &seq_recs {
        r.encode(&mut seq_buf);
    }
    let mut views: Vec<SeqView<(u32, String)>> = Vec::new();
    let mut rest = seq_buf.as_slice();
    while !rest.is_empty() {
        views.push(Vec::<(u32, String)>::decode_view(&mut rest).unwrap());
    }
    g.throughput(Throughput::Elements((SEQ_RECORDS * ELEMS_PER) as u64));
    g.bench_function("seq_iter/validating", |b| {
        b.iter(|| {
            // Re-decode each element with the checked decoder.
            let mut bytes = 0usize;
            for v in &views {
                let mut rest = v.payload();
                for _ in 0..v.len() {
                    let (id, name) = <(u32, String)>::decode_view(&mut rest).unwrap();
                    bytes += id as usize + name.len();
                }
            }
            bytes
        })
    });

    // Fixed stride: bitset-style dense words in the constant-width wire
    // form, summing every 8th word (the sparse-batch pattern random
    // access exists for). `get` touches exactly the words it needs; the
    // baseline has no stride, so reaching element i means sequentially
    // decoding elements 0..i — the whole sequence, checked.
    const WORD_RECORDS: usize = 256;
    const WORDS_PER: usize = 64;
    const GATHER_STEP: usize = 8;
    let fixed_recs: Vec<Vec<FixedU64>> = (0..WORD_RECORDS)
        .map(|i| {
            (0..WORDS_PER)
                .map(|j| FixedU64(SplitMix64::mix((i * WORDS_PER + j) as u64)))
                .collect()
        })
        .collect();
    let mut fixed_buf = Vec::new();
    for r in &fixed_recs {
        r.encode(&mut fixed_buf);
    }
    let mut fixed_views: Vec<SeqView<FixedU64>> = Vec::new();
    let mut rest = fixed_buf.as_slice();
    while !rest.is_empty() {
        fixed_views.push(Vec::<FixedU64>::decode_view(&mut rest).unwrap());
    }
    let gathered = (WORD_RECORDS * WORDS_PER / GATHER_STEP) as u64;
    g.throughput(Throughput::Elements(gathered));
    g.bench_function("fixed_stride/gather_8th/sequential_decode", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for v in &fixed_views {
                let mut rest = v.payload();
                for i in 0..v.len() {
                    let w = FixedU64::decode_view(&mut rest).unwrap().0;
                    if i % GATHER_STEP == 0 {
                        sum = sum.wrapping_add(w);
                    }
                }
            }
            sum
        })
    });
    g.bench_function("fixed_stride/gather_8th/get", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for v in &fixed_views {
                let mut i = 0;
                while i < v.len() {
                    sum = sum.wrapping_add(v.get(i).0);
                    i += GATHER_STEP;
                }
            }
            sum
        })
    });
    g.finish();
}

/// The checked varint decoder (`varint::decode`, the word path with its
/// per-byte fallback) over a dense `Vec<u64>`-style word run, lengths
/// 1..=10 bytes in no learnable pattern. The row keeps the id it had
/// when it timed a separate unchecked decoder for re-reads, which the
/// checked one replaced, so the committed bench-gate baseline still
/// gates it.
fn bench_decode_swar(c: &mut Criterion) {
    use hurricane_common::SplitMix64;
    use hurricane_format::varint;

    const WORDS: u64 = 40_000;
    // Dense word run: pseudorandom full-entropy words right-shifted by a
    // data-dependent amount, so encoded lengths span 1..=10 bytes with
    // no pattern a branch predictor can learn.
    let words: Vec<u64> = (0..WORDS)
        .map(|i| {
            let w = SplitMix64::mix(i);
            w >> (SplitMix64::mix(i ^ 0x5ca1ab1e) % 64)
        })
        .collect();
    let mut buf = Vec::new();
    for &w in &words {
        varint::encode(w, &mut buf);
    }
    let expect: u64 = words.iter().fold(0, |a, &w| a.wrapping_add(w));

    let mut g = c.benchmark_group("decode_swar");
    g.throughput(Throughput::Elements(WORDS));
    g.bench_function("trusted_swar_40k", |b| {
        b.iter(|| {
            let mut at = buf.as_slice();
            let mut sum = 0u64;
            for _ in 0..WORDS {
                sum = sum.wrapping_add(varint::decode(&mut at).expect("encoded above"));
            }
            assert_eq!(sum, expect);
            sum
        })
    });
    g.finish();
}

/// The record codec, `ChunkWriter::push` and `for_each_view` (the
/// word-at-a-time varint paths), on the benchmark's three length mixes:
/// uniform and Zipf s = 1.0 `u32` keys below 2^18 (`clicklog_uniform`,
/// 94% three-byte, 2.94 B/record; `clicklog_skew`, 1.80 B/record) and
/// R-MAT-17 `(u32, u32)` edges (`pagerank_rmat`, 4.99 B/record; their
/// `decode_word` row is the integer-tuple run decoder). The edges also
/// get a `scan` row: PageRank's iteration body (`acc[v] += rank[u] /
/// deg[u]`) over the same chunks, which is what a job paid before its
/// init task re-encoded the edges — the accumulate's random loads
/// overlap the next record's decode. `decode_fixed` and `scan_fixed` are
/// the same two loops over the edges as `(FixedU32, FixedU32)` pairs,
/// which is what each iteration pays now.
fn bench_varint(c: &mut Criterion) {
    use hurricane_format::{for_each_view, Chunk, ChunkWriter, FixedU32};

    const VALUES: usize = 1_000_000;
    const CHUNK: usize = 64 * 1024;
    const KEYS: usize = 1 << 18;
    let mut rng = DetRng::new(0x5eed);
    let uniform: Vec<u32> = (0..VALUES)
        .map(|_| rng.gen_range(KEYS as u64) as u32)
        .collect();
    let zipf_keys = ZipfSampler::new(KEYS, 1.0);
    let zipf: Vec<u32> = (0..VALUES)
        .map(|_| zipf_keys.sample(&mut rng) as u32)
        .collect();
    let rmat: Vec<(u32, u32)> = RmatGen::new(RmatSpec {
        scale: 17,
        edges: VALUES as u64,
        seed: 5,
    })
    .map(|(u, v)| (u as u32, v as u32))
    .collect();

    /// Benches one mix of records; returns its chunks.
    fn mix<T: hurricane_format::RecordView>(
        c: &mut Criterion,
        name: &str,
        records: &[T],
    ) -> Vec<Chunk> {
        let mut writer = ChunkWriter::<T>::new(CHUNK);
        let mut chunks: Vec<Chunk> = Vec::new();
        for r in records {
            chunks.extend(writer.push(r).unwrap());
        }
        chunks.extend(writer.finish());

        let mut g = c.benchmark_group(format!("varint/{name}"));
        g.throughput(Throughput::Elements(records.len() as u64));
        g.bench_function("encode_word", |b| {
            b.iter(|| {
                let mut w = ChunkWriter::<T>::new(CHUNK);
                let mut sealed = 0usize;
                for r in records {
                    sealed += w.push(r).unwrap().is_some() as usize;
                }
                sealed
            })
        });
        g.bench_function("decode_word", |b| {
            b.iter(|| {
                let mut n = 0u64;
                for chunk in &chunks {
                    n += for_each_view::<T, _>(chunk, |v| {
                        criterion::black_box(v);
                    })
                    .unwrap();
                }
                n
            })
        });
        g.finish();
        chunks
    }

    mix(c, "uniform_keys", &uniform);
    mix(c, "zipf_keys", &zipf);
    let chunks = mix(c, "rmat17_pairs", &rmat);

    let n = 1usize << 17;
    let mut deg = vec![0u32; n];
    for &(u, _) in &rmat {
        deg[u as usize] += 1;
    }
    let rank: Vec<f64> = (0..n).map(|v| 1.0 / (v + 1) as f64).collect();
    let mut g = c.benchmark_group("varint/rmat17_pairs");
    g.throughput(Throughput::Elements(rmat.len() as u64));
    g.bench_function("scan", |b| {
        let mut acc = vec![0.0f64; n];
        b.iter(|| {
            for chunk in &chunks {
                for_each_view::<(u32, u32), _>(chunk, |(u, v)| {
                    let d = deg[u as usize];
                    if d > 0 {
                        acc[v as usize] += rank[u as usize] / d as f64;
                    }
                })
                .unwrap();
            }
            acc[0]
        })
    });
    // The same edges as PageRank's iterations read them since the init
    // task re-encodes its input: `(FixedU32, FixedU32)` pairs in chunks
    // of the same size.
    let mut writer = ChunkWriter::<(FixedU32, FixedU32)>::new(CHUNK);
    let mut fixed: Vec<Chunk> = Vec::new();
    for &(u, v) in &rmat {
        fixed.extend(writer.push(&(FixedU32(u), FixedU32(v))).unwrap());
    }
    fixed.extend(writer.finish());
    g.bench_function("decode_fixed", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for chunk in &fixed {
                n += for_each_view::<(FixedU32, FixedU32), _>(chunk, |v| {
                    criterion::black_box(v);
                })
                .unwrap();
            }
            n
        })
    });
    g.bench_function("scan_fixed", |b| {
        let mut acc = vec![0.0f64; n];
        b.iter(|| {
            for chunk in &fixed {
                for_each_view::<(FixedU32, FixedU32), _>(chunk, |(FixedU32(u), FixedU32(v))| {
                    let d = deg[u as usize];
                    if d > 0 {
                        acc[v as usize] += rank[u as usize] / d as f64;
                    }
                })
                .unwrap();
            }
            acc[0]
        })
    });
    g.finish();
}

/// Writing a chunk stream of 1M uniform `u32` keys over 2^18 (the
/// `clicklog_uniform` source's shape) into 64 KB chunks: one `encode` +
/// `commit` per record against `ChunkBuf::push_run`'s word-store loop,
/// then `HurricaneApp::fill_source` on one lane and on two (the
/// benchmark's 2 × 1 worker slots; one lane on a one-core host).
fn bench_record_write(c: &mut Criterion) {
    use hurricane_core::{AppGraph, HurricaneApp, HurricaneConfig, TaskCtx};
    use hurricane_format::{ChunkBuf, Record};

    const VALUES: usize = 1_000_000;
    const CHUNK: usize = 64 * 1024;
    let mut rng = DetRng::new(0x5eed);
    let keys: Vec<u32> = (0..VALUES).map(|_| rng.gen_range(1 << 18) as u32).collect();

    let mut g = c.benchmark_group("record_write/u32_1m");
    g.throughput(Throughput::Elements(VALUES as u64));
    g.bench_function("per_record", |b| {
        b.iter(|| {
            let (mut body, mut sealed) = (ChunkBuf::new(CHUNK), 0usize);
            for k in &keys {
                let start = body.len();
                k.encode(body.encode_buf());
                // Branch on the sealed chunk, as `BagWriter::write_record`
                // does. Folding `commit(..).unwrap().is_some()` into the
                // count instead makes the loop store the result on the
                // stack and read it back with a wider load that straddles
                // the store, which stalls store forwarding on every record
                // and made this row about 2.7 times the writer's loop.
                if let Some(_chunk) = body.commit(start).unwrap() {
                    sealed += 1;
                }
            }
            sealed + body.take().is_some() as usize
        })
    });
    g.bench_function("run", |b| {
        b.iter(|| {
            let (mut body, mut sealed, mut rest) = (ChunkBuf::new(CHUNK), 0usize, &keys[..]);
            while !rest.is_empty() {
                let (taken, chunk) = body.push_run(rest).unwrap();
                sealed += chunk.is_some() as usize;
                rest = &rest[taken..];
            }
            sealed + body.take().is_some() as usize
        })
    });
    g.finish();

    let mut g = c.benchmark_group("fill_source/u32_1m");
    g.throughput(Throughput::Elements(VALUES as u64));
    for (name, compute_nodes) in [("1_lane", 1), ("2_lanes", 2)] {
        let deploy = || {
            let mut graph = AppGraph::builder();
            let source = graph.source("keys");
            let out = graph.bag("out");
            graph.task("drop", &[source], &[out], |_: &mut TaskCtx| Ok(()));
            let config = HurricaneConfig {
                compute_nodes,
                worker_slots: 1,
                chunk_size: CHUNK,
                ..Default::default()
            };
            let cluster = StorageCluster::new(2, ClusterConfig::default());
            let app = HurricaneApp::deploy(graph.build().unwrap(), cluster, config).unwrap();
            (app, source)
        };
        g.bench_function(name, |b| {
            b.iter_batched(
                deploy,
                |(app, source)| app.fill_source(source, keys.iter().copied()).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// The manager's scratch-run protocol in miniature: runs are bags
/// pinned to one node, written and read at batch factor 1 so they hold
/// their sorted order, collected once folded.
struct BenchSink {
    cluster: Arc<StorageCluster>,
    chunk_size: usize,
    seed: u64,
}

impl BenchSink {
    /// A factory minting one sink per merge output over `cluster`, as
    /// `merges::merge_outputs` takes it.
    fn factory(
        cluster: &Arc<StorageCluster>,
        chunk_size: usize,
    ) -> impl Fn() -> Box<dyn SpillSink> + Sync + '_ {
        move || {
            Box::new(BenchSink {
                cluster: cluster.clone(),
                chunk_size,
                seed: 9000,
            })
        }
    }
}

impl SpillSink for BenchSink {
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

/// One merge phase's independent output indices dispatched through
/// `merges::merge_outputs` at parallelism 1 (the sequential baseline)
/// vs the worker pool — keyed merges over skewed partials, the
/// tentpole's wall-clock claim.
fn bench_merge_parallel(c: &mut Criterion) {
    use hurricane_common::SplitMix64;
    use hurricane_core::merges::{merge_outputs, KeyedMerge};

    const OUTPUTS: usize = 8;
    const INSTANCES: usize = 2;
    const RECS_PER_PARTIAL: u64 = 4_000;
    const KEYS: u64 = 512;
    const MERGE_CHUNK: usize = 64 * 1024;

    /// An `INSTANCES x OUTPUTS` grid of sealed keyed partials plus one
    /// writer per output — everything `run_merge` hands the dispatcher —
    /// and the cluster they live on.
    #[allow(clippy::type_complexity)]
    fn grid_setup() -> (Arc<StorageCluster>, Vec<(usize, Vec<BagReader>, BagWriter)>) {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let jobs = (0..OUTPUTS)
            .map(|out_idx| {
                let readers: Vec<BagReader> = (0..INSTANCES)
                    .map(|inst| {
                        let bag = cluster.create_bag();
                        let seed = (out_idx * INSTANCES + inst) as u64;
                        let mut w = BagWriter::open(cluster.clone(), bag, seed, MERGE_CHUNK);
                        for i in 0..RECS_PER_PARTIAL {
                            let key = SplitMix64::mix(seed * 1_000_003 + i) % KEYS;
                            w.write_record(&(key, 1u64)).unwrap();
                        }
                        w.flush().unwrap();
                        cluster.seal_bag(bag).unwrap();
                        BagReader::open(cluster.clone(), bag, 100 + seed, 4, None)
                    })
                    .collect();
                let out_bag = cluster.create_bag();
                let out = BagWriter::open(cluster.clone(), out_bag, 999, MERGE_CHUNK);
                (out_idx, readers, out)
            })
            .collect();
        (cluster, jobs)
    }

    let mut g = c.benchmark_group("merge_parallel");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        OUTPUTS as u64 * INSTANCES as u64 * RECS_PER_PARTIAL,
    ));
    let merge = KeyedMerge::<u64, u64, _>::new(|a, b| a + b);
    for par in [1usize, 4] {
        g.bench_function(format!("keyed_8_outputs/par{par}"), |b| {
            b.iter_batched(
                grid_setup,
                |(cluster, jobs)| {
                    let make_sink = BenchSink::factory(&cluster, MERGE_CHUNK);
                    merge_outputs(&merge, par, jobs, u64::MAX, &make_sink).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_merge_spill(c: &mut Criterion) {
    use hurricane_common::SplitMix64;
    use hurricane_core::merges::{merge_outputs, KeyedMerge};

    const INSTANCES: usize = 2;
    const RECS_PER_PARTIAL: u64 = 8_000;
    const KEYS: u64 = 2_048;
    const MERGE_CHUNK: usize = 16 * 1024;

    /// One keyed-merge job (2 sealed partials, 2 048 distinct keys) plus
    /// the cluster its scratch runs spill into.
    #[allow(clippy::type_complexity)]
    fn job_setup() -> (Arc<StorageCluster>, Vec<(usize, Vec<BagReader>, BagWriter)>) {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let readers: Vec<BagReader> = (0..INSTANCES)
            .map(|inst| {
                let bag = cluster.create_bag();
                let seed = inst as u64;
                let mut w = BagWriter::open(cluster.clone(), bag, seed, MERGE_CHUNK);
                let mut recs: Vec<(u64, u64)> = (0..RECS_PER_PARTIAL)
                    .map(|i| (SplitMix64::mix(seed * 1_000_003 + i) % KEYS, 1u64))
                    .collect();
                recs.sort_unstable();
                for rec in &recs {
                    w.write_record(rec).unwrap();
                }
                w.flush().unwrap();
                cluster.seal_bag(bag).unwrap();
                BagReader::open(cluster.clone(), bag, 100 + seed, 4, None)
            })
            .collect();
        let out_bag = cluster.create_bag();
        let out = BagWriter::open(cluster.clone(), out_bag, 999, MERGE_CHUNK);
        (cluster, vec![(0usize, readers, out)])
    }

    // The spill-vs-resident overhead, honestly: identical inputs and
    // outputs through the one driver, only the accumulator budget
    // varies. `resident` runs at `u64::MAX` and never spills; the
    // budgets force one or more drain/re-fold rounds through scratch
    // bags on the storage tier.
    let mut g = c.benchmark_group("merge_spill");
    g.sample_size(10);
    g.throughput(Throughput::Elements(INSTANCES as u64 * RECS_PER_PARTIAL));
    let merge = KeyedMerge::<u64, u64, _>::new(|a, b| a + b);
    g.bench_function("keyed_2k_keys/resident", |b| {
        b.iter_batched(
            job_setup,
            |(cluster, jobs)| {
                let make_sink = BenchSink::factory(&cluster, MERGE_CHUNK);
                merge_outputs(&merge, 1, jobs, u64::MAX, &make_sink).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    for budget in [64 * 1024u64, 4 * 1024] {
        g.bench_function(format!("keyed_2k_keys/budget{}k", budget / 1024), |b| {
            b.iter_batched(
                job_setup,
                |(cluster, jobs)| {
                    let make_sink = BenchSink::factory(&cluster, MERGE_CHUNK);
                    merge_outputs(&merge, 1, jobs, budget, &make_sink).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The durable write path (`SEGMENT.md`) in its three parts, each on the
/// in-memory virtual disk and on a real directory: the frame checksum
/// (byte-table loop against the carry-less-multiply kernel, GB/s),
/// journaling one insert run of ten 64 KB chunks — the benchmark's chunk
/// size — into an emptied bag (chunks/s; `mem` is encode + CRC + copy,
/// `disk` adds the `pwrite`), and the life of a bag that never holds a
/// chunk (first touch, seal, probe, collect; bags/s), which on `disk` is
/// the cost of creating whatever files the layout gives a bag.
fn bench_journal(c: &mut Criterion) {
    use hurricane_common::StorageNodeId;
    use hurricane_format::Chunk;
    use hurricane_storage::{segment, SegmentStore, StorageNode};

    const CHUNK: usize = 64 * 1024;
    const RUN: usize = 10;
    const BAGS_PER_ITER: u64 = 16;

    let payload: Vec<u8> = (0..CHUNK as u64)
        .map(|i| hurricane_common::SplitMix64::mix(i) as u8)
        .collect();
    let mut g = c.benchmark_group("journal/crc32/64k");
    g.throughput(Throughput::Bytes(CHUNK as u64));
    g.bench_function("table", |b| b.iter(|| segment::crc32_table(&payload)));
    g.bench_function("kernel", |b| b.iter(|| segment::crc32(&payload)));
    g.finish();

    let root = std::env::temp_dir().join(format!("hurricane-bench-journal-{}", std::process::id()));
    // A durable node over an empty store of each medium.
    let mem = || SegmentStore::mem();
    let disk = || {
        let _ = std::fs::remove_dir_all(&root);
        SegmentStore::disk(&root).expect("bench data dir")
    };
    let media: [(&str, &dyn Fn() -> SegmentStore); 2] = [("mem", &mem), ("disk", &disk)];
    let node = |store: SegmentStore| {
        StorageNode::durable(StorageNodeId(0), store, u64::MAX).expect("empty store")
    };

    let run: Vec<Chunk> = (0..RUN).map(|_| Chunk::from_vec(payload.clone())).collect();
    let mut g = c.benchmark_group("journal/insert_run/10x64k");
    g.throughput(Throughput::Elements(RUN as u64));
    for (medium, store) in media {
        let node = node(store());
        let bag = BagId(0);
        let mut run_id = 0;
        g.bench_function(medium, |b| {
            b.iter_batched(
                || {
                    // Untimed: empty the bag (and its log) again, so the
                    // node holds one run however long the bench runs.
                    node.discard(bag).unwrap();
                    run_id += 1;
                    run_id
                },
                |run_id| node.insert_run(bag, &run, 0, run_id).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();

    let mut g = c.benchmark_group("journal/bag_lifecycle");
    g.throughput(Throughput::Elements(BAGS_PER_ITER));
    for (medium, store) in media {
        g.bench_function(medium, |b| {
            b.iter_batched(
                // Untimed: a fresh store per iteration, so the timed
                // creates never land in a directory the bench itself
                // has filled.
                || node(store()),
                |node| {
                    for bag in (0..BAGS_PER_ITER).map(BagId) {
                        node.sample(bag).unwrap();
                        node.seal(bag).unwrap();
                        assert!(node.remove_from_batch(bag, 0, 8).unwrap().eof);
                        node.collect(bag).unwrap();
                    }
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_bags(c: &mut Criterion) {
    let mut g = c.benchmark_group("bags");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("insert_1k_chunks_8_nodes", |b| {
        b.iter_batched(
            || {
                let cluster = StorageCluster::new(8, ClusterConfig::default());
                let bag = cluster.create_bag();
                let client = BagClient::new(cluster, bag, 7);
                let chunk = hurricane_format::Chunk::from_vec(vec![0u8; 1024]);
                (client, chunk)
            },
            |(mut client, chunk)| {
                for _ in 0..1000 {
                    client.insert(chunk.clone()).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("remove_1k_chunks_8_nodes", |b| {
        b.iter_batched(
            || {
                let cluster = StorageCluster::new(8, ClusterConfig::default());
                let bag = cluster.create_bag();
                let mut client = BagClient::new(cluster.clone(), bag, 7);
                let chunk = hurricane_format::Chunk::from_vec(vec![0u8; 1024]);
                for _ in 0..1000 {
                    client.insert(chunk.clone()).unwrap();
                }
                cluster.seal_bag(bag).unwrap();
                BagClient::new(cluster, bag, 8)
            },
            |mut client| {
                let mut n = 0;
                while let BatchRemoveResult::Chunks(_) = client.try_remove_batch(1).unwrap() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

const CONTENDED_NODES: usize = 8;
const OPS_PER_CLIENT: u64 = 4_000;
const CONTENDED_CHUNK: usize = 256;
const BATCH: usize = 64;
/// Coalesce window for the RPC insert benches: eight 64-chunk batches
/// merge into one envelope per node, an 8x envelope amortization.
const COALESCE_WINDOW: usize = 8 * BATCH;

/// One shared template payload: per-op "data" is a refcount clone, so the
/// measurement isolates storage-path cost rather than allocator cost.
fn contended_chunk() -> hurricane_format::Chunk {
    thread_local! {
        static TEMPLATE: hurricane_format::Chunk =
            hurricane_format::Chunk::from_vec(vec![0u8; CONTENDED_CHUNK]);
    }
    TEMPLATE.with(|c| c.clone())
}

/// Spawns `clients` threads, runs `per_client` on each, waits for all.
fn run_clients(clients: usize, per_client: impl Fn(u64) + Sync) {
    std::thread::scope(|s| {
        for t in 0..clients as u64 {
            let f = &per_client;
            s.spawn(move || f(t));
        }
    });
}

/// Contended insert/remove: N clients hammer ONE bag on 8 nodes — the
/// traffic pattern task cloning creates — on the live data plane (an
/// `RpcPort` per client): `sharded` one chunk per request on the inline
/// plane, `rpc_inline*` batched on the inline plane (what a
/// default-configuration engine run does), `rpc_batch` batched on the
/// channel plane.
fn bench_contended(c: &mut Criterion) {
    for &clients in &[1usize, 4, 8] {
        let total_ops = clients as u64 * OPS_PER_CLIENT;
        let mut g = c.benchmark_group(format!("contended_{clients}c_8n"));
        g.throughput(Throughput::Elements(total_ops));
        g.sample_size(10);

        g.bench_function("insert/sharded", |b| {
            b.iter_batched(
                || StorageCluster::new(CONTENDED_NODES, ClusterConfig::default()),
                |cluster| {
                    let bag = cluster.create_bag();
                    run_clients(clients, |t| {
                        let mut cl = BagClient::new(cluster.clone(), bag, 7 + t);
                        for _ in 0..OPS_PER_CLIENT {
                            cl.insert(contended_chunk()).unwrap();
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
        // The batched insert paths run with the cross-batch coalescer on
        // (a window of 8 batches), as the engine's writers do;
        // `rpc_inline_eager` keeps the uncoalesced number for the
        // before/after record in BENCH_storage.json.
        g.bench_function("insert/rpc_inline", |b| {
            b.iter_batched(
                || StorageCluster::new(CONTENDED_NODES, ClusterConfig::default()),
                |cluster| {
                    let bag = cluster.create_bag();
                    run_clients(clients, |t| {
                        let mut cl = StorageEndpoint::inline(cluster.clone())
                            .client(bag, 7 + t)
                            .with_coalescing(COALESCE_WINDOW);
                        let chunks: Vec<_> =
                            (0..OPS_PER_CLIENT).map(|_| contended_chunk()).collect();
                        for batch in chunks.chunks(BATCH) {
                            cl.insert_batch(batch).unwrap();
                        }
                        cl.flush().unwrap();
                    });
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function("insert/rpc_inline_eager", |b| {
            b.iter_batched(
                || StorageCluster::new(CONTENDED_NODES, ClusterConfig::default()),
                |cluster| {
                    let bag = cluster.create_bag();
                    run_clients(clients, |t| {
                        let mut cl = StorageEndpoint::inline(cluster.clone()).client(bag, 7 + t);
                        let chunks: Vec<_> =
                            (0..OPS_PER_CLIENT).map(|_| contended_chunk()).collect();
                        for batch in chunks.chunks(BATCH) {
                            cl.insert_batch(batch).unwrap();
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function("insert/rpc_batch", |b| {
            b.iter_batched(
                || {
                    let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                    let endpoint = StorageEndpoint::channel(cluster.clone());
                    let _ = endpoint.port();
                    (cluster, endpoint)
                },
                |(cluster, endpoint)| {
                    let bag = cluster.create_bag();
                    run_clients(clients, |t| {
                        let mut cl = endpoint.client(bag, 7 + t).with_coalescing(COALESCE_WINDOW);
                        let chunks: Vec<_> =
                            (0..OPS_PER_CLIENT).map(|_| contended_chunk()).collect();
                        for batch in chunks.chunks(BATCH) {
                            cl.insert_batch(batch).unwrap();
                        }
                        cl.flush().unwrap();
                    });
                },
                BatchSize::SmallInput,
            )
        });

        g.bench_function("remove/sharded", |b| {
            b.iter_batched(
                || {
                    let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                    let bag = cluster.create_bag();
                    let mut cl = BagClient::new(cluster.clone(), bag, 3);
                    let chunks: Vec<_> = (0..total_ops).map(|_| contended_chunk()).collect();
                    cl.insert_batch(&chunks).unwrap();
                    cluster.seal_bag(bag).unwrap();
                    (cluster, bag)
                },
                |(cluster, bag)| {
                    run_clients(clients, |t| {
                        let mut cl = BagClient::new(cluster.clone(), bag, 11 + t);
                        for _ in 0..OPS_PER_CLIENT {
                            let _ = cl.try_remove_batch(1).unwrap();
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function("remove/rpc_inline", |b| {
            b.iter_batched(
                || {
                    let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                    let bag = cluster.create_bag();
                    let mut cl = BagClient::new(cluster.clone(), bag, 3);
                    let chunks: Vec<_> = (0..total_ops).map(|_| contended_chunk()).collect();
                    cl.insert_batch(&chunks).unwrap();
                    cluster.seal_bag(bag).unwrap();
                    (cluster, bag)
                },
                |(cluster, bag)| {
                    run_clients(clients, |t| {
                        let mut cl = StorageEndpoint::inline(cluster.clone()).client(bag, 11 + t);
                        let mut left = OPS_PER_CLIENT as usize;
                        while left > 0 {
                            match cl.try_remove_batch(left.min(BATCH)).unwrap() {
                                BatchRemoveResult::Chunks(chunks) => left -= chunks.len(),
                                _ => break,
                            }
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function("remove/rpc_batch", |b| {
            b.iter_batched(
                || {
                    let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                    let endpoint = StorageEndpoint::channel(cluster.clone());
                    let _ = endpoint.port();
                    let bag = cluster.create_bag();
                    let mut cl = BagClient::new(cluster.clone(), bag, 3);
                    let chunks: Vec<_> = (0..total_ops).map(|_| contended_chunk()).collect();
                    cl.insert_batch(&chunks).unwrap();
                    cluster.seal_bag(bag).unwrap();
                    (endpoint, bag)
                },
                |(endpoint, bag)| {
                    run_clients(clients, |t| {
                        let mut cl = endpoint.client(bag, 11 + t);
                        let mut left = OPS_PER_CLIENT as usize;
                        while left > 0 {
                            match cl.try_remove_batch(left.min(BATCH)).unwrap() {
                                BatchRemoveResult::Chunks(chunks) => left -= chunks.len(),
                                _ => break,
                            }
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

/// The consumer-side prefetcher draining one bag with `b = 10`: the one
/// fetch loop on the inline plane (each probe answered on the fetcher's
/// thread as it is submitted) vs the channel plane (probes genuinely in
/// flight against distinct nodes' server threads).
fn bench_prefetch(c: &mut Criterion) {
    const CHUNKS: u64 = 8_000;
    let mut g = c.benchmark_group("prefetch_8n");
    g.throughput(Throughput::Elements(CHUNKS));
    g.sample_size(10);
    g.bench_function("inline", |b| {
        b.iter_batched(
            || {
                let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                let bag = cluster.create_bag();
                let mut cl = BagClient::new(cluster.clone(), bag, 5);
                let chunks: Vec<_> = (0..CHUNKS).map(|_| contended_chunk()).collect();
                cl.insert_batch(&chunks).unwrap();
                cluster.seal_bag(bag).unwrap();
                (cluster, bag)
            },
            |(cluster, bag)| {
                let mut pf = Prefetcher::new(BagClient::new(cluster, bag, 6), 10);
                let mut n = 0u64;
                while pf.recv().unwrap().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("rpc_pipelined", |b| {
        b.iter_batched(
            || {
                let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                let endpoint = StorageEndpoint::channel(cluster.clone());
                let _ = endpoint.port();
                let bag = cluster.create_bag();
                let mut cl = BagClient::new(cluster.clone(), bag, 5);
                let chunks: Vec<_> = (0..CHUNKS).map(|_| contended_chunk()).collect();
                cl.insert_batch(&chunks).unwrap();
                cluster.seal_bag(bag).unwrap();
                (endpoint, bag)
            },
            |(endpoint, bag)| {
                let mut pf = Prefetcher::new(endpoint.client(bag, 6), 10);
                let mut n = 0u64;
                while pf.recv().unwrap().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Writer flow control on a healthy server: the per-connection credit
/// bound must cost ~nothing when replies flow (the blocking acquire
/// pumps them), even at a credit far below the request rate.
fn bench_flow_control(c: &mut Criterion) {
    const CHUNKS: u64 = 8_000;
    let mut g = c.benchmark_group("rpc_credit_8n");
    g.throughput(Throughput::Elements(CHUNKS));
    g.sample_size(10);
    for &credit in &[4usize, 64] {
        g.bench_function(format!("insert_credit_{credit}"), |b| {
            b.iter_batched(
                || {
                    let cluster = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
                    let endpoint = StorageEndpoint::channel(cluster.clone());
                    let _ = endpoint.port();
                    (cluster, endpoint)
                },
                |(cluster, endpoint)| {
                    let bag = cluster.create_bag();
                    let mut cl = endpoint.client(bag, 5);
                    cl.set_writer_credit(credit);
                    let chunks: Vec<_> = (0..CHUNKS).map(|_| contended_chunk()).collect();
                    for batch in chunks.chunks(BATCH) {
                        cl.insert_batch(batch).unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// A replicated insert call in the shape `bag_pump_tcp` makes: 10 × 64 KB
/// chunks per `BagClient::insert_batch` on the channel plane, 2 nodes,
/// replication 2, so each call lands two runs, each on a backup and a
/// primary. The bag is discarded (untimed) before every call so its
/// streams stay short.
fn bench_replicated_insert(c: &mut Criterion) {
    const CALL: usize = 10;
    let mut g = c.benchmark_group("replicated_insert_2n");
    g.throughput(Throughput::Elements(CALL as u64));
    let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
    let endpoint = StorageEndpoint::channel(cluster.clone());
    let bag = cluster.create_bag();
    let mut client = endpoint.client(bag, 5);
    let mut control = endpoint.port();
    let chunks: Vec<_> = (0..CALL as u8)
        .map(|i| hurricane_format::Chunk::from_vec(vec![i; 64 * 1024]))
        .collect();
    g.bench_function("channel_r2_10x64k", |b| {
        b.iter_batched(
            || control.discard_bag(bag).unwrap(),
            |()| client.insert_batch(&chunks).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
    endpoint.shutdown();
}

/// Endless in-memory byte stream: each `read` copies as much of `bytes`
/// as fits, wrapping around, the way a socket delivers a stream of
/// identical frames.
struct Replay<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl std::io::Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos = (self.pos + n) % self.bytes.len();
        Ok(n)
    }
}

/// One TCP hop of a 10 x 64 KB frame, per chunk, without a socket: a
/// request (`InsertBatch`) and a reply (`Removed`) each encoded and
/// written into an in-memory sink, and each read and decoded from an
/// in-memory stream of such frames by one long-lived frame reader. The
/// sink's and the stream's copies stand in for the kernel's. The
/// `one_copy_floor` row copies each chunk once into a fresh exact-size
/// buffer that is kept until the iteration ends: what a hop cannot go
/// below while every received chunk owns its bytes.
fn bench_tcp_frame(c: &mut Criterion) {
    use hurricane_format::Chunk;
    use hurricane_storage::wire::{self, FrameReader, FrameWriter};
    use hurricane_storage::{
        ChunkRun, NodeRemoveBatch, ReplyEnvelope, RequestEnvelope, StorageRequest, StorageResponse,
        TagSegment,
    };

    const CHUNKS: usize = 10;
    const CHUNK: usize = 64 * 1024;
    let chunks: Vec<Chunk> = (0..CHUNKS as u64)
        .map(|c| {
            Chunk::from_vec(
                (0..CHUNK as u64)
                    .map(|i| hurricane_common::SplitMix64::mix(c << 32 | i) as u8)
                    .collect(),
            )
        })
        .collect();
    let request = RequestEnvelope {
        id: 1,
        client: 2,
        seq: 3,
        request: StorageRequest::InsertBatch {
            bag: hurricane_common::BagId(4),
            origin: 0,
            run: 5,
            chunks: ChunkRun::new(chunks.clone()),
        },
    };
    let reply = ReplyEnvelope {
        id: 1,
        result: Ok(StorageResponse::Removed(NodeRemoveBatch {
            chunks: chunks.clone(),
            tags: vec![TagSegment {
                run: 5,
                start: 0,
                len: CHUNKS as u32,
            }],
            exhausted: false,
            eof: false,
        })),
    };
    let framed = |encode: &dyn Fn(&mut Vec<u8>)| {
        let (mut payload, mut out) = (Vec::new(), Vec::new());
        encode(&mut payload);
        wire::frame(&payload, &mut out);
        out
    };
    let request_frame = framed(&|out| wire::encode_request(&request, out));
    let reply_frame = framed(&|out| wire::encode_reply(&reply, out));

    let mut g = c.benchmark_group("tcp_frame/10x64k");
    g.throughput(Throughput::Elements(CHUNKS as u64));
    let mut frames = FrameWriter::new();
    let mut sink = Vec::with_capacity(request_frame.len());
    g.bench_function("request/write", |b| {
        b.iter(|| {
            sink.clear();
            frames.write_request(&mut sink, &request).unwrap();
            sink.len()
        })
    });
    g.bench_function("reply/write", |b| {
        b.iter(|| {
            sink.clear();
            frames.write_reply(&mut sink, &reply).unwrap();
            sink.len()
        })
    });
    let mut r = FrameReader::new(Replay {
        bytes: &request_frame,
        pos: 0,
    });
    g.bench_function("request/read", |b| {
        b.iter(|| {
            let mut payload = r.next_frame().unwrap().unwrap();
            wire::decode_request(&mut payload).unwrap()
        })
    });
    let mut r = FrameReader::new(Replay {
        bytes: &reply_frame,
        pos: 0,
    });
    g.bench_function("reply/read", |b| {
        b.iter(|| {
            let mut payload = r.next_frame().unwrap().unwrap();
            wire::decode_reply(&mut payload).unwrap()
        })
    });
    g.bench_function("one_copy_floor", |b| {
        b.iter(|| {
            chunks
                .iter()
                .map(|c| c.bytes().to_vec())
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

/// `BagSample` polling: the master samples input bags through its
/// control port ([`RpcPort::sample_bag`], inline plane) on every clone
/// request. Sampling is O(1) per node (running counters), whatever the
/// bag holds — here a half-consumed 10k-chunk bag.
fn bench_sample(c: &mut Criterion) {
    const CHUNKS: u64 = 10_000;
    let mut g = c.benchmark_group("sample_10k_chunks_8n");

    let sharded = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
    let sharded_bag = sharded.create_bag();
    {
        let mut cl = BagClient::new(sharded.clone(), sharded_bag, 5);
        let chunks: Vec<_> = (0..CHUNKS).map(|_| contended_chunk()).collect();
        cl.insert_batch(&chunks).unwrap();
        for _ in 0..CHUNKS / 2 {
            let _ = cl.try_remove_batch(1).unwrap();
        }
    }
    let mut port = RpcPort::inline(sharded);
    g.bench_function("sharded_o1", |b| {
        b.iter(|| port.sample_bag(sharded_bag).unwrap())
    });

    // Polling while the data plane is hot: 4 writers keep inserting while
    // the master samples — the realistic heuristic-tick mix. Writers run
    // until stopped; writer 0 periodically discards the bag because the
    // append-only streams retain removed chunks, and an unbounded run
    // would otherwise grow node memory for the whole window. (Discard is
    // a normal control-plane call; racing it against the sampler is part
    // of the point.)
    let live = StorageCluster::new(CONTENDED_NODES, ClusterConfig::default());
    let live_bag = live.create_bag();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let live = live.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut control = RpcPort::inline(live.clone());
                let mut cl = BagClient::new(live, live_bag, 40 + t);
                let chunks: Vec<_> = (0..64).map(|_| contended_chunk()).collect();
                let mut rounds = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if cl.insert_batch(&chunks).is_err() {
                        // Lost a race with a concurrent discard; retry.
                        continue;
                    }
                    let _ = cl.try_remove_batch(64);
                    rounds += 1;
                    if t == 0 && rounds.is_multiple_of(1_000) {
                        let _ = control.discard_bag(live_bag);
                    }
                }
            })
        })
        .collect();
    let mut port = RpcPort::inline(live);
    g.bench_function("sharded_o1_under_write_load", |b| {
        b.iter(|| port.sample_bag(live_bag).unwrap())
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        let _ = w.join();
    }
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    c.bench_function("placement/cycle_of_32", |b| {
        let mut rng = DetRng::new(1);
        let mut p = CyclicPlacement::new(32, &mut rng);
        b.iter(|| p.next_node())
    });
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("zipf_sample_100k", |b| {
        let z = ZipfSampler::new(1 << 16, 1.0);
        let mut rng = DetRng::new(3);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        })
    });
    // The benchmark's shape: 2^18 keys at s = 0, where draws land all
    // over the CDF (the row above sits near the head of a smaller table).
    g.bench_function("zipf_sample_100k_n18_s0", |b| {
        let z = ZipfSampler::new(1 << 18, 0.0);
        let mut rng = DetRng::new(3);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        })
    });
    g.bench_function("clicklog_gen_100k", |b| {
        b.iter(|| {
            ClickLogGen::new(ClickLogSpec {
                records: 100_000,
                skew: 0.8,
                ..Default::default()
            })
            .fold(0u64, |acc, ip| acc.wrapping_add(ip as u64))
        })
    });
    g.bench_function("rmat_gen_100k_edges", |b| {
        b.iter(|| {
            RmatGen::new(RmatSpec {
                scale: 18,
                edges: 100_000,
                seed: 5,
            })
            .fold(0u64, |acc, (s, d)| acc.wrapping_add(s ^ d))
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use hurricane_sim::apps::clicklog_app;
    use hurricane_sim::spec::{ClusterSpec, HurricaneOpts};
    use hurricane_workloads::RegionWeights;
    c.bench_function("sim/clicklog_32gb_s1", |b| {
        let cluster = ClusterSpec::paper();
        let w = RegionWeights::paper_ladder(32, 1.0);
        let app = clicklog_app(32e9, &w);
        b.iter(|| hurricane_sim::engine::simulate(&app, &cluster, &HurricaneOpts::default()))
    });
}

criterion_group!(
    benches,
    bench_codec,
    bench_compute_path,
    bench_merge_path,
    bench_decode_swar,
    bench_varint,
    bench_record_write,
    bench_merge_parallel,
    bench_merge_spill,
    bench_journal,
    bench_bags,
    bench_contended,
    bench_prefetch,
    bench_flow_control,
    bench_replicated_insert,
    bench_tcp_frame,
    bench_sample,
    bench_placement,
    bench_workloads,
    bench_simulator
);
criterion_main!(benches);
