//! `hurricane-node` — a standalone storage node process.
//!
//! Serves one [`StorageNode`] over the TCP RPC plane (`WIRE.md`). Two
//! ways to start:
//!
//! * **Static member**: `hurricane-node --listen 127.0.0.1:4100 --id 2`
//!   serves node 2; the driver lists this address at the matching
//!   position of [`StorageEndpoint::tcp`]'s address list.
//! * **Elastic join**: `hurricane-node --listen 127.0.0.1:0 --join
//!   127.0.0.1:4000` binds the data listener first, announces its bound
//!   address to the driver's join listener
//!   ([`StorageEndpoint::serve_joins`]), and serves under the node id
//!   the driver assigns. Live clients pick the node up on their next
//!   membership refresh.
//!
//! Once serving, the process prints one machine-readable line to stdout:
//!
//! ```text
//! LISTENING <data-addr> NODE <id>
//! ```
//!
//! and then runs until stopped. Storage is in-memory by default (the
//! paper's nodes are, too — bags live for one job); pass `--data-dir DIR`
//! to journal every bag into append-only segment logs under `DIR`
//! (`SEGMENT.md`) instead. A durable node recovers its full bag contents
//! — chunks, consumed pointers, seal state — by log scan on startup, so
//! restarting a killed process from the same `--data-dir` resumes where
//! the logs end. `--spill-threshold BYTES` bounds resident memory: cold
//! bags spill back to their logs and re-read on demand.
//!
//! The other memory bound — `merge_memory_budget`, which makes keyed
//! merges spill their accumulator tables into scratch bags on these
//! nodes — is a *driver*-process knob: merges run in the engine's task
//! managers, not here. Drivers set the `HurricaneConfig` field or the
//! `HURRICANE_MERGE_MEMORY_BUDGET` environment override; a storage
//! node only sees the resulting scratch-bag traffic (`SEGMENT.md`,
//! "Error handling").
//!
//! On `SIGTERM` the process shuts down gracefully: open segment logs are
//! flushed and fsynced, and the process exits 0. `SIGKILL` skips the
//! flush; recovery then replays whatever reached the logs (every *acked*
//! write has).
//!
//! [`StorageNode`]: hurricane_storage::StorageNode
//! [`StorageEndpoint::tcp`]: hurricane_storage::StorageEndpoint::tcp
//! [`StorageEndpoint::serve_joins`]: hurricane_storage::StorageEndpoint::serve_joins

use hurricane_common::StorageNodeId;
use hurricane_storage::{join_cluster, SegmentStore, StorageNode, TcpNodeServer};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: hurricane-node [--listen ADDR] (--id N | --join DRIVER_ADDR)
                      [--data-dir DIR] [--spill-threshold BYTES]

  --listen ADDR          data-plane listen address (default 127.0.0.1:0)
  --id N                 serve as statically-configured node N
  --join ADDR            dial the driver's join listener at ADDR, announce
                         the bound data address, and serve under the
                         assigned id
  --data-dir DIR         journal bags into segment logs under DIR and
                         recover them on startup (default: in-memory only)
  --spill-threshold BYTES
                         resident-memory budget; cold bags spill to their
                         segment logs past this (needs --data-dir;
                         default: unbounded)
";

struct Args {
    listen: String,
    id: Option<u32>,
    join: Option<String>,
    data_dir: Option<String>,
    spill_threshold: u64,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        id: None,
        join: None,
        data_dir: None,
        spill_threshold: u64::MAX,
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--id" => {
                let v = value("--id")?;
                args.id = Some(v.parse().map_err(|_| format!("bad --id {v:?}"))?);
            }
            "--join" => args.join = Some(value("--join")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--spill-threshold" => {
                let v = value("--spill-threshold")?;
                args.spill_threshold = v
                    .parse()
                    .map_err(|_| format!("bad --spill-threshold {v:?}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.data_dir.is_none() && args.spill_threshold != u64::MAX {
        return Err("--spill-threshold needs --data-dir".into());
    }
    match (&args.id, &args.join) {
        (Some(_), Some(_)) => Err("--id and --join are mutually exclusive".into()),
        (None, None) => Err("one of --id or --join is required".into()),
        _ => Ok(args),
    }
}

/// Set by the `SIGTERM` handler; the serve loop polls it.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs `on_term` as the `SIGTERM` handler via the libc `signal`
/// symbol (always present in the C runtime Rust links on unix); the
/// handler only stores to an atomic, which is async-signal-safe.
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

fn run(args: Args) -> Result<(), String> {
    // Bind before anything else: the address we announce (join flow) or
    // that the operator configured (static flow) is reserved from here on.
    let listener =
        TcpListener::bind(&args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    let data_addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let id = match (&args.id, &args.join) {
        (Some(id), None) => StorageNodeId(*id),
        (None, Some(driver)) => join_cluster(driver, &data_addr.to_string())
            .map_err(|e| format!("join via {driver}: {e}"))?,
        _ => unreachable!("validated by parse_args"),
    };

    // Recover-on-start happens inside `StorageNode::durable`: the node
    // scans every segment log under the data dir before serving a byte.
    let node = Arc::new(match &args.data_dir {
        None => StorageNode::new(id),
        Some(dir) => {
            let store = SegmentStore::disk(dir).map_err(|e| format!("open {dir}: {e}"))?;
            StorageNode::durable(id, store, args.spill_threshold)
                .map_err(|e| format!("recover from {dir}: {e}"))?
        }
    });

    install_sigterm_handler();

    let server = TcpNodeServer::serve_on(node.clone(), listener)
        .map_err(|e| format!("serve {data_addr}: {e}"))?;

    // The one line drivers and test harnesses scrape; flushed so a piped
    // stdout delivers it immediately.
    println!("LISTENING {} NODE {}", server.local_addr(), id.0);
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Serve until stopped: the accept loop and service threads do the
    // work; this thread polls for SIGTERM so a graceful stop can flush
    // the segment logs before exiting.
    while !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    node.sync_all().map_err(|e| format!("final sync: {e}"))?;
    // Stdout may be a pipe whose reader is long gone (harnesses scrape
    // only the banner) — a failed farewell must not fail the shutdown.
    let _ = writeln!(std::io::stdout(), "TERMINATED NODE {}", id.0);
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args()) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hurricane-node: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if !e.is_empty() {
                eprintln!("hurricane-node: {e}\n");
            }
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
