//! The multi-process cluster smoke test (mirrored by the CI
//! `cluster-smoke` job): three durable `hurricane-node` processes plus a
//! driver on localhost run a ClickLog insert/drain job over real TCP,
//! one node is SIGKILLed mid-job (replica failover across process
//! boundaries), a fourth node joins mid-job through the driver's join
//! listener and receives placements, the killed node is restarted from
//! its `--data-dir` and serves its recovered placements into the drain,
//! and the drained result is exactly-once with byte-perfect payloads.
//! A second test covers the graceful path: SIGTERM flushes the segment
//! logs, exits 0, and a restart recovers every chunk.

use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
use hurricane_storage::bag::BatchRemoveResult;
use hurricane_storage::rpc::{RequestEnvelope, StorageRequest, StorageResponse};
use hurricane_storage::{ClusterConfig, RpcPort, StorageEndpoint, TcpTransport, Transport};
use hurricane_workloads::clicklog::{region_of, ClickLogGen, ClickLogSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills every spawned node process on drop, so a failing assertion
/// doesn't strand orphans holding the test harness's output pipes open.
struct Reaper(Vec<Option<Child>>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in self.0.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `hurricane-node` with `args` and scrapes the
/// `LISTENING <addr> NODE <id>` line it prints once serving.
fn spawn_node(args: &[&str]) -> (Child, String, u32) {
    // A restart reclaiming a just-killed node's address can briefly lose
    // the bind race against the kernel reaping the old sockets.
    for _ in 0..20 {
        match try_spawn_node(args) {
            Some(spawned) => return spawned,
            None => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    panic!("hurricane-node {args:?} failed to start");
}

fn try_spawn_node(args: &[&str]) -> Option<(Child, String, u32)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hurricane-node"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hurricane-node");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING line");
    let mut words = line.split_whitespace();
    if words.next() != Some("LISTENING") {
        let _ = child.kill();
        let _ = child.wait();
        return None;
    }
    let addr = words.next().expect("data addr").to_string();
    assert_eq!(words.next(), Some("NODE"), "unexpected banner: {line:?}");
    let id: u32 = words.next().expect("node id").parse().expect("numeric id");
    Some((child, addr, id))
}

/// A fresh per-test data dir for one node, as a CLI-ready string.
fn temp_data_dir(name: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("hurricane-smoke-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&path).ok();
    path.to_str().expect("utf-8 temp path").to_string()
}

/// Asks a node directly over its own socket how many chunks of `bag` it
/// holds — proof of placements landing (or having been recovered) there.
fn probe_chunks(addr: &str, node: u32, bag: BagId) -> u64 {
    let mut probe = TcpTransport::dial(addr, Some(StorageNodeId(node))).expect("dial probe");
    probe
        .send(RequestEnvelope {
            id: 1,
            client: 990 + node as u64,
            seq: 1,
            request: StorageRequest::Sample { bag },
        })
        .expect("probe send");
    let reply = probe
        .recv_timeout(Duration::from_secs(5))
        .expect("probe reply");
    match reply.result {
        Ok(StorageResponse::Sampled(s)) => s.total_chunks,
        other => panic!("unexpected probe reply: {other:?}"),
    }
}

/// One test chunk: `[seq: u64 le][n: u32 le][ip: u32 le]*n`. The seq is
/// the exactly-once identity; the ips are the ClickLog payload.
fn chunk_of(seq: u64, ips: &[u32]) -> Chunk {
    let mut bytes = Vec::with_capacity(12 + ips.len() * 4);
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(ips.len() as u32).to_le_bytes());
    for ip in ips {
        bytes.extend_from_slice(&ip.to_le_bytes());
    }
    Chunk::from_vec(bytes)
}

fn decode_chunk(c: &Chunk) -> (u64, Vec<u32>) {
    let b = c.bytes();
    let seq = u64::from_le_bytes(b[..8].try_into().unwrap());
    let n = u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize;
    let ips = (0..n)
        .map(|i| u32::from_le_bytes(b[12 + i * 4..16 + i * 4].try_into().unwrap()))
        .collect();
    (seq, ips)
}

/// The sequence numbers a wire snapshot of `bag` holds.
fn snapshot_seqs(port: &mut RpcPort, bag: BagId) -> BTreeSet<u64> {
    let chunks = port.snapshot_bag(bag).expect("snapshot");
    chunks.iter().map(|c| decode_chunk(c).0).collect()
}

/// Counts distinct ips per region — the ClickLog answer (paper §5.1).
fn region_counts(batches: &BTreeMap<u64, Vec<u32>>, spec: &ClickLogSpec) -> BTreeMap<u32, usize> {
    let mut per_region: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for ips in batches.values() {
        for &ip in ips {
            per_region
                .entry(region_of(ip, spec.num_ips, spec.regions))
                .or_default()
                .insert(ip);
        }
    }
    per_region.into_iter().map(|(r, s)| (r, s.len())).collect()
}

#[test]
fn three_process_clicklog_survives_kill_restart_and_join() {
    // --- boot: three durable static nodes + the TCP endpoint ----------
    let mut children = Reaper(Vec::new());
    let mut addrs = Vec::new();
    let dirs: Vec<String> = (0..3).map(|i| temp_data_dir(&format!("node{i}"))).collect();
    for i in 0..3u32 {
        let id = i.to_string();
        let (child, addr, got) = spawn_node(&[
            "--listen",
            "127.0.0.1:0",
            "--id",
            &id,
            "--data-dir",
            &dirs[i as usize],
        ]);
        assert_eq!(got, i);
        children.0.push(Some(child));
        addrs.push(addr);
    }

    let endpoint = StorageEndpoint::tcp(addrs.clone(), ClusterConfig { replication: 2 })
        .with_request_timeout(Duration::from_secs(2));
    let bag = endpoint.cluster().create_bag();
    let mut writer = endpoint.client(bag, 1);

    // --- the ClickLog input, chunked 50 records at a time -------------
    let spec = ClickLogSpec {
        num_ips: 4096,
        regions: 16,
        skew: 1.0,
        records: 3_000,
        seed: 0x51_0C,
    };
    let ips: Vec<u32> = ClickLogGen::new(spec.clone()).collect();
    let batches: Vec<(u64, &[u32])> = ips
        .chunks(50)
        .enumerate()
        .map(|(i, b)| (i as u64, b))
        .collect();
    let third = batches.len() / 3;

    let mut attempted = BTreeSet::new();
    let mut acked = BTreeSet::new();
    let mut insert = |writer: &mut hurricane_storage::BagClient, span: &[(u64, &[u32])]| {
        for &(seq, ips) in span {
            attempted.insert(seq);
            if writer.insert(chunk_of(seq, ips)).is_ok() {
                acked.insert(seq);
            }
        }
    };

    // Phase 1: healthy cluster.
    insert(&mut writer, &batches[..third]);

    // Phase 2: SIGKILL node 1 mid-job. Replication 2 means every acked
    // chunk has a live replica; inserts reroute around the dead process.
    let mut victim = children.0[1].take().unwrap();
    victim.kill().expect("SIGKILL node 1");
    victim.wait().expect("reap node 1");
    insert(&mut writer, &batches[third..2 * third]);

    // Phase 3: a fourth process joins through the driver's join
    // listener, mid-job, and starts taking placements.
    let join_addr = endpoint.serve_joins("127.0.0.1:0").expect("join listener");
    let (child3, addr3, id3) =
        spawn_node(&["--listen", "127.0.0.1:0", "--join", &join_addr.to_string()]);
    children.0.push(Some(child3));
    assert_eq!(id3, 3, "driver assigned the next node id");
    assert_eq!(endpoint.membership().len(), 4, "join grew the membership");
    writer.refresh_membership();
    insert(&mut writer, &batches[2 * third..]);

    // The joined process really received placements: ask it directly
    // over its own socket.
    assert!(
        probe_chunks(&addr3, 3, bag) > 0,
        "joined node never received a placement"
    );

    // While node 1 is down, a wire snapshot reads its stream from the
    // backup: every acked sequence, and only attempted ones.
    let snapshot = snapshot_seqs(&mut endpoint.port(), bag);
    assert!(acked.is_subset(&snapshot), "snapshot misses an acked chunk");
    assert!(
        snapshot.is_subset(&attempted),
        "snapshot holds a chunk never inserted"
    );

    // Phase 4: restart the killed node from its --data-dir at its
    // original (advertised) address. `StorageNode::durable` replays the
    // segment logs before serving, so every placement it acked before
    // the SIGKILL is back — recovered from disk, not from replicas.
    let (child1, addr1, got) =
        spawn_node(&["--listen", &addrs[1], "--id", "1", "--data-dir", &dirs[1]]);
    children.0.push(Some(child1));
    assert_eq!(got, 1);
    assert_eq!(
        addr1, addrs[1],
        "restart must reclaim the advertised address"
    );
    assert!(
        probe_chunks(&addr1, 1, bag) > 0,
        "restarted node recovered no placements from its data dir"
    );

    // --- drain and judge ----------------------------------------------
    // A fresh reader dials every member anew, so the drain routes
    // through the restarted process too: its recovered chunks must
    // serve, and a replica whose log ran ahead during the outage must
    // not be masked by the restarted primary's shorter one.
    let mut control = endpoint.port();
    control.seal_bag(bag).expect("seal");
    // Only attempted sequences. Not every acked one: each origin is read
    // from its first live replica, and the restarted node 1 is live again
    // with a log that lacks the runs acked at its backup while it was
    // down (the removes below reconcile them; the snapshot cannot).
    assert!(
        snapshot_seqs(&mut control, bag).is_subset(&attempted),
        "snapshot holds a chunk never inserted"
    );
    let mut reader = endpoint.client(bag, 2);
    let mut drained: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut pending_budget = 10_000u32;
    loop {
        match reader.try_remove_batch(8).expect("remove") {
            BatchRemoveResult::Chunks(chunks) => {
                pending_budget = 10_000;
                for c in &chunks {
                    let (seq, ips) = decode_chunk(c);
                    assert!(
                        drained.insert(seq, ips).is_none(),
                        "chunk {seq} drained twice"
                    );
                }
            }
            BatchRemoveResult::Pending => {
                pending_budget -= 1;
                assert!(pending_budget > 0, "sealed bag stayed pending: data lost?");
                std::thread::sleep(Duration::from_millis(1));
            }
            BatchRemoveResult::Drained => break,
        }
    }

    // Exactly-once: every acked chunk survived the kill, nothing
    // materialized that was never sent, nothing came out twice (the
    // BTreeMap insert above), and payloads crossed the wire intact.
    for seq in &acked {
        assert!(drained.contains_key(seq), "acked chunk {seq} was lost");
    }
    for (seq, got) in &drained {
        assert!(attempted.contains(seq), "chunk {seq} never inserted");
        let want = &batches[*seq as usize];
        assert_eq!(got, want.1, "chunk {seq} payload corrupted in flight");
    }

    // And the job's actual answer: distinct ips per region over the
    // drained records matches the generator's ground truth for the same
    // chunk set.
    let expected: BTreeMap<u64, Vec<u32>> = drained
        .keys()
        .map(|&seq| (seq, batches[seq as usize].1.to_vec()))
        .collect();
    assert_eq!(
        region_counts(&drained, &spec),
        region_counts(&expected, &spec),
        "ClickLog region histogram diverged"
    );

    endpoint.shutdown();
    drop(children);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn sigterm_flushes_segment_logs_and_restart_recovers() {
    let dir = temp_data_dir("sigterm");
    let (child, addr, _) =
        spawn_node(&["--listen", "127.0.0.1:0", "--id", "0", "--data-dir", &dir]);
    let mut children = Reaper(vec![Some(child)]);

    let endpoint = StorageEndpoint::tcp([addr], ClusterConfig::default())
        .with_request_timeout(Duration::from_secs(2));
    let bag = endpoint.cluster().create_bag();
    let mut writer = endpoint.client(bag, 1);
    const N: u64 = 20;
    for seq in 0..N {
        writer
            .insert(chunk_of(seq, &[seq as u32]))
            .expect("insert to single durable node");
    }
    endpoint.shutdown();

    // Graceful shutdown: SIGTERM makes the node flush and fsync its open
    // segment logs and exit 0 (a SIGKILL would skip both).
    let mut child = children.0[0].take().unwrap();
    let sent = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(sent.success(), "kill -TERM failed");
    let exit = child.wait().expect("reap node");
    assert!(exit.success(), "SIGTERM exit was {exit:?}, want 0");

    // Restart from the same data dir: every insert is back.
    let (child2, addr2, _) =
        spawn_node(&["--listen", "127.0.0.1:0", "--id", "0", "--data-dir", &dir]);
    children.0.push(Some(child2));
    assert_eq!(
        probe_chunks(&addr2, 0, bag),
        N,
        "restart after graceful shutdown lost chunks"
    );

    drop(children);
    std::fs::remove_dir_all(&dir).ok();
}
