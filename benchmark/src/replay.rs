//! Single-layer replays of a traced run: one layer's public functions
//! driven with the workload's own data, on the harness thread alone, so
//! that the layer's cost is known apart from the job it is part of.

use crate::harness::{set_port_metrics, CHUNK_SIZE, STORAGE_NODES};
use crate::report::Metrics;
use crate::stats::ratio;
use hurricane_core::task::{BagReader, BagWriter};
use hurricane_core::{EngineError, HurricaneConfig, MergeLogic};
use hurricane_format::{for_each_view, Chunk, ChunkWriter, RecordView};
use hurricane_storage::{
    BatchRemoveResult, ClusterConfig, StorageCluster, StorageEndpoint, StorageError,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn batch_factor() -> usize {
    HurricaneConfig::default().batch_factor
}

/// `format`: encodes `records` with `ChunkWriter::push`, then decodes
/// the chunks with `for_each_view`. Returns the chunks.
pub fn format_replay<T: RecordView>(
    m: &mut Metrics,
    records: impl Iterator<Item = T>,
) -> Result<Vec<Chunk>, String> {
    let mut writer = ChunkWriter::<T>::new(CHUNK_SIZE);
    let mut chunks = Vec::new();
    let t = Instant::now();
    for r in records {
        chunks.extend(writer.push(&r).map_err(|e| format!("encode: {e}"))?);
    }
    let records = writer.records_written();
    chunks.extend(writer.finish());
    let encode_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut decoded = 0;
    for c in &chunks {
        decoded += for_each_view::<T, _>(c, |v| {
            black_box(v);
        })
        .map_err(|e| format!("decode: {e}"))?;
    }
    let decode_s = t.elapsed().as_secs_f64();
    if decoded != records {
        return Err(format!(
            "format replay decoded {decoded} of {records} records"
        ));
    }
    let bytes: usize = chunks.iter().map(Chunk::len).sum();
    m.set(
        "format.encode_ns_per_record",
        ratio(encode_s * 1e9, records as f64),
    );
    m.set(
        "format.decode_ns_per_record",
        ratio(decode_s * 1e9, records as f64),
    );
    m.set(
        "format.bytes_per_record",
        ratio(bytes as f64, records as f64),
    );
    m.set("format.chunks", chunks.len() as f64);
    Ok(chunks)
}

/// The endpoint an engine workload's plane corresponds to: direct calls
/// on an in-memory cluster, or the channel RPC plane over a cluster
/// journaling under `data_dir`.
pub fn engine_endpoint(data_dir: Option<&Path>) -> Result<StorageEndpoint, String> {
    let Some(dir) = data_dir else {
        let cluster = StorageCluster::new(STORAGE_NODES, ClusterConfig::default());
        return Ok(StorageEndpoint::direct(cluster));
    };
    let durability = HurricaneConfig::default()
        .with_data_dir(dir)
        .durability()
        .map_err(|e| format!("segment store under {}: {e}", dir.display()))?
        .expect("data_dir was just set");
    let cluster = StorageCluster::new_durable(STORAGE_NODES, ClusterConfig::default(), durability);
    Ok(StorageEndpoint::channel(cluster))
}

/// `storage`: `chunks` through one client of `endpoint` — `insert_batch`
/// at the engine's batch factor, seal, `try_remove_batch` until drained.
pub fn storage_replay(
    m: &mut Metrics,
    endpoint: &StorageEndpoint,
    chunks: &[Chunk],
) -> Result<(), String> {
    let result = storage_roundtrip(m, endpoint, chunks);
    endpoint.shutdown();
    result.map_err(|e| format!("storage replay: {e}"))
}

fn storage_roundtrip(
    m: &mut Metrics,
    endpoint: &StorageEndpoint,
    chunks: &[Chunk],
) -> Result<(), StorageError> {
    let b = batch_factor();
    let bag = endpoint.cluster().create_bag();
    let mut client = endpoint.client(bag, 7);
    let t = Instant::now();
    for batch in chunks.chunks(b) {
        client.insert_batch(batch)?;
    }
    client.flush()?;
    let insert_s = t.elapsed().as_secs_f64();
    endpoint.cluster().seal_bag(bag)?;

    let t = Instant::now();
    let mut removed = 0;
    loop {
        match client.try_remove_batch(b)? {
            BatchRemoveResult::Chunks(got) => removed += black_box(got).len(),
            BatchRemoveResult::Pending => std::thread::yield_now(),
            BatchRemoveResult::Drained => break,
        }
    }
    let remove_s = t.elapsed().as_secs_f64();
    assert_eq!(removed, chunks.len(), "a sealed bag drains exactly once");
    let n = chunks.len() as f64;
    m.set("storage.insert_us_per_chunk", ratio(insert_s * 1e6, n));
    m.set("storage.remove_us_per_chunk", ratio(remove_s * 1e6, n));
    if let Some(port) = client.port_stats() {
        set_port_metrics(m, &port, n);
    }
    Ok(())
}

/// `core` merges: writes `partials` partial outputs with `write_partial`
/// (which returns the records it wrote), then times `logic.merge` over
/// them through `BagReader`/`BagWriter`, as a merge task would run it.
pub fn merge_replay(
    m: &mut Metrics,
    logic: &dyn MergeLogic,
    partials: usize,
    write_partial: impl Fn(usize, &mut BagWriter) -> Result<u64, EngineError>,
) -> Result<(), String> {
    let run = || -> Result<(f64, u64), EngineError> {
        let b = batch_factor();
        let cluster = StorageCluster::new(STORAGE_NODES, ClusterConfig::default());
        let mut records = 0;
        let mut readers = Vec::with_capacity(partials);
        for i in 0..partials {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open_batched(cluster.clone(), bag, i as u64, CHUNK_SIZE, b);
            records += write_partial(i, &mut w)?;
            w.flush()?;
            cluster.seal_bag(bag)?;
            readers.push(BagReader::open(cluster.clone(), bag, i as u64, b, None));
        }
        let out_bag = cluster.create_bag();
        let mut out = BagWriter::open_batched(cluster.clone(), out_bag, 99, CHUNK_SIZE, b);
        let t = Instant::now();
        logic.merge(0, &mut readers, &mut out)?;
        out.flush()?;
        Ok((t.elapsed().as_secs_f64(), records))
    };
    let (merge_s, records) = run().map_err(|e| format!("merge replay: {e}"))?;
    m.set("core.merge_s", merge_s);
    m.set("core.merge_records", records as f64);
    Ok(())
}
