//! Disk-backed durability integration tests (`SEGMENT.md`): a storage
//! node restarted from its segment-log directory recovers bag contents,
//! counters, consumed pointers, and lifecycle state; a spill threshold
//! below the data volume bounds resident memory while the whole volume
//! still round-trips byte-exactly through the logs.

use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
use hurricane_storage::{next_run_id, SegmentStore, StorageNode, TagSegment};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A fresh per-test temp dir, removed on drop so reruns start clean.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "hurricane-durability-{}-{}",
            std::process::id(),
            name
        ));
        std::fs::remove_dir_all(&path).ok();
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn chunk(v: u64) -> Chunk {
    Chunk::from_vec(v.to_le_bytes().to_vec())
}

fn value(c: &Chunk) -> u64 {
    u64::from_le_bytes(c.bytes()[..8].try_into().expect("test chunk"))
}

fn open(dir: &TempDir) -> StorageNode {
    let store = SegmentStore::disk(&dir.0).expect("open segment store");
    StorageNode::durable(StorageNodeId(0), store, u64::MAX).expect("recover node")
}

/// Drains `bag` to eof through the batch path, returning every value.
fn drain(node: &StorageNode, bag: BagId) -> Vec<u64> {
    let mut out = Vec::new();
    loop {
        let batch = node.remove_from_batch(bag, 0, 8).expect("remove batch");
        out.extend(batch.chunks.iter().map(value));
        if batch.eof {
            return out;
        }
        assert!(
            !batch.chunks.is_empty() || batch.exhausted,
            "non-eof batch made no progress"
        );
        if batch.exhausted {
            // Exhausted but unsealed would spin forever — the tests seal
            // before draining.
            panic!("exhausted without eof on a sealed bag");
        }
    }
}

#[test]
fn restart_from_disk_recovers_contents_counters_and_pointer() {
    let dir = TempDir::new("roundtrip");
    let bag = BagId(7);
    const N: u64 = 40;
    const CONSUMED: usize = 15;

    let mut before = Vec::new();
    {
        let node = open(&dir);
        for v in 0..N {
            // Own-origin stream: the one `remove_batch` serves and the
            // sample counters track (mirrored streams are covered by
            // the node's unit tests).
            node.insert_run(bag, &[chunk(v)], 0, next_run_id()).unwrap();
        }
        for _ in 0..CONSUMED {
            let batch = node.remove_from_batch(bag, 0, 1).expect("consume");
            assert_eq!(batch.chunks.len(), 1, "unsealed bag served short");
            before.push(value(&batch.chunks[0]));
        }
        node.seal(bag).unwrap();
        node.sync_all().unwrap();
        // Dropped without any shutdown beyond the fsync: everything the
        // restart sees comes off the on-disk logs.
    }

    let node = open(&dir);
    let s = node.sample(bag).expect("recovered sample");
    assert_eq!(s.total_chunks, N);
    assert_eq!(s.removed_chunks, CONSUMED as u64);
    assert_eq!(s.remaining_chunks, N - CONSUMED as u64);
    assert_eq!(s.total_bytes, N * 8);
    assert!(s.sealed, "seal lost across restart");
    assert_eq!(s.resident_bytes, 0, "recovered chunks must start spilled");

    // The consumed pointer survived: the drain returns exactly the
    // values not removed before the restart, each exactly once.
    let mut after = drain(&node, bag);
    after.sort_unstable();
    let mut expect: Vec<u64> = (0..N).filter(|v| !before.contains(v)).collect();
    expect.sort_unstable();
    assert_eq!(after, expect, "recovered pointer re-served or lost chunks");
}

#[test]
fn rewind_and_discard_survive_disk_restart() {
    let dir = TempDir::new("lifecycle");
    let rewound = BagId(1);
    let dropped = BagId(2);

    {
        let node = open(&dir);
        for v in 0..10u64 {
            node.insert_run(rewound, &[chunk(v)], 0, next_run_id())
                .unwrap();
            node.insert_run(dropped, &[chunk(100 + v)], 0, next_run_id())
                .unwrap();
        }
        // Consume over half, then rewind: the pointer reset must be the
        // durable fact, not the consumes that preceded it.
        for _ in 0..6 {
            node.remove_from_batch(rewound, 0, 1).unwrap();
        }
        node.rewind(rewound).unwrap();
        node.seal(rewound).unwrap();
        node.discard(dropped).unwrap();
        node.sync_all().unwrap();
    }

    let node = open(&dir);
    let mut got = drain(&node, rewound);
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<_>>(), "rewind lost on restart");

    let s = node.sample(dropped).expect("discarded bag sample");
    assert_eq!(s.total_chunks, 0, "discard lost on restart");
    assert_eq!(s.total_bytes, 0);
}

#[test]
fn claimed_identities_survive_restart_and_consume_late_inserts() {
    let dir = TempDir::new("claim");
    let bag = BagId(9);
    let run = 777;
    let seg = TagSegment {
        run,
        start: 0,
        len: 1,
    };

    {
        let node = open(&dir);
        // Claim an identity this log has never recorded: another replica
        // served the chunk and the reader reconciled here before
        // delivering, while this node's replicated copy was in flight.
        let already = node.claim_consumed(bag, 0, &[seg]).unwrap();
        assert!(already.is_empty(), "unknown identity echoed as served");
        node.sync_all().unwrap();
        // Crash before the insert lands.
    }

    let node = open(&dir);
    // The replicated insert finally arrives after the restart: the
    // recovered claim must still swallow it, or the chunk would be
    // delivered a second time.
    node.insert_run(bag, &[chunk(1)], 0, run).unwrap();
    let s = node.sample(bag).unwrap();
    assert_eq!(
        (s.total_chunks, s.removed_chunks),
        (1, 1),
        "claim forgotten across restart"
    );
    assert_eq!(s.remaining_bytes, 0);
    node.seal(bag).unwrap();
    let batch = node.remove_from_batch(bag, 0, 8).expect("drain");
    assert!(
        batch.chunks.is_empty() && batch.eof,
        "claimed chunk re-served after restart"
    );
}

#[test]
fn spill_threshold_bounds_resident_memory_through_a_full_run() {
    let dir = TempDir::new("spill");
    const THRESHOLD: u64 = 64 * 1024;
    const CHUNK: usize = 4 * 1024;
    const N: usize = 512; // 2 MB total, 32x the resident budget.

    let store = SegmentStore::disk(&dir.0).expect("open segment store");
    let node = StorageNode::durable(StorageNodeId(0), store, THRESHOLD).expect("node");
    let bag = BagId(3);

    let mut payloads = BTreeMap::new();
    for i in 0..N {
        let mut body = vec![0u8; CHUNK];
        body[..8].copy_from_slice(&(i as u64).to_le_bytes());
        body[8..16].copy_from_slice(&(!(i as u64)).to_le_bytes());
        payloads.insert(i as u64, body.clone());
        node.insert_run(bag, &[Chunk::from_vec(body)], 0, next_run_id())
            .unwrap();
        assert!(
            node.resident_bytes() <= THRESHOLD + CHUNK as u64,
            "resident {} exceeds threshold {} after insert {}",
            node.resident_bytes(),
            THRESHOLD,
            i
        );
    }
    let s = node.sample(bag).unwrap();
    assert_eq!(s.total_bytes, (N * CHUNK) as u64, "spilled bytes uncounted");
    assert!(s.resident_bytes <= THRESHOLD + CHUNK as u64);

    // Drain everything back: every chunk re-read from the log must be
    // byte-exact, and serving from disk must not re-inflate residency.
    node.seal(bag).unwrap();
    let mut seen = 0;
    loop {
        let batch = node.remove_from_batch(bag, 0, 8).expect("remove");
        for c in &batch.chunks {
            let id = u64::from_le_bytes(c.bytes()[..8].try_into().unwrap());
            let expect = payloads
                .remove(&id)
                .expect("chunk served twice or invented");
            assert_eq!(c.bytes(), &expect[..], "spilled chunk corrupted");
            seen += 1;
        }
        assert!(
            node.resident_bytes() <= THRESHOLD + CHUNK as u64,
            "drain re-inflated residency to {}",
            node.resident_bytes()
        );
        if batch.eof {
            break;
        }
    }
    assert_eq!(seen, N, "drain lost chunks");
    assert!(payloads.is_empty());
}
