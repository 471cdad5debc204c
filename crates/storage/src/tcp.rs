//! Real TCP transport for the storage RPC plane.
//!
//! Everything above this module is transport-agnostic: [`crate::rpc::RpcPort`] talks
//! to a [`Transport`], servers are [`crate::rpc::serve_deduped`] behind a
//! request stream. This module supplies the socket implementations:
//!
//! * [`TcpTransport`] — a client connection: a writer thread owns the
//!   socket's write half (so [`Transport::send`] enqueues and returns, as
//!   the trait demands) and writes each request with one vectored write
//!   ([`crate::wire::FrameWriter`]); a reader thread reads each reply
//!   frame into one reused buffer ([`crate::wire::FrameReader`]) and
//!   buffers the decoded replies. Any socket failure latches the
//!   connection dead; subsequent operations report
//!   [`StorageError::Disconnected`], which the replica failover and
//!   retry layers already handle.
//! * [`TcpNodeServer`] — serves one [`StorageNode`] on a listener: accept
//!   loop, per-connection service threads, one shared [`ServerDedup`] so
//!   retransmissions are recognized across reconnects.
//! * [`TcpConnector`] — the [`Connect`] factory a [`Membership`] entry
//!   carries for a TCP member.
//! * [`JoinServer`] + [`join_cluster`] — the control plane: a
//!   `hurricane-node` process dials the driver's join listener, announces
//!   its data address, and is appended to the driver's membership; the
//!   driver replies with the assigned node id.
//!
//! Wire layout is defined in [`crate::wire`] and documented in `WIRE.md`.
//! A chunk's bytes are copied in user space once per hop: sent from the
//! chunk's own buffer, read into the connection's frame buffer by the
//! kernel, and copied from there into the decoded chunk.
//! Each data connection opens with a server-first handshake — magic,
//! version, serving node id — so a client immediately detects version
//! skew or a connection to the wrong node.

use crate::error::StorageError;
use crate::membership::{Connect, Membership};
use crate::node::StorageNode;
use crate::rpc::{serve_deduped, ReplyEnvelope, RequestEnvelope, ServerDedup, Transport};
use crate::wire::{self, FrameReader, FrameWriter};
use crossbeam::channel::{unbounded, Receiver, Sender};
use hurricane_common::StorageNodeId;
use hurricane_format::varint;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// First bytes of every data connection, server → client.
pub const DATA_MAGIC: [u8; 4] = *b"HURW";
/// First bytes of every join connection, node → driver.
pub const JOIN_MAGIC: [u8; 4] = *b"HURJ";
/// Wire protocol version; bumped on any layout change (see `WIRE.md`).
/// Version 2 added `resident_bytes` to the `Sampled` payload and the
/// `ClaimConsumed` request / `Claimed` response pair. Version 3 retired
/// request tags 2, 4 and 5 and response tags 2 and 4 (the mirror, the
/// indexed read and the all-origin snapshot): the pointer mirror is a
/// `ClaimConsumed`, and every snapshot reads one origin with
/// `SnapshotFrom`. Version 4 retired request tags 11 and 12 and response
/// tag 7 (`Drain`, `IsDrained`, `Drained`), which no client sent.
pub const WIRE_VERSION: u8 = 4;

/// Poll interval of non-blocking accept loops.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one varint byte-at-a-time from a stream (handshake fields only;
/// framed traffic never does per-byte reads).
fn read_varint(stream: &mut TcpStream) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(varint::MAX_VARINT_LEN);
    let mut byte = [0u8; 1];
    loop {
        stream.read_exact(&mut byte)?;
        buf.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            let mut slice = buf.as_slice();
            return varint::decode(&mut slice).map_err(|_| proto_err("invalid varint"));
        }
        if buf.len() >= varint::MAX_VARINT_LEN {
            return Err(proto_err("overlong varint"));
        }
    }
}

// ---------------------------------------------------------------------------
// Client side: TcpTransport + TcpConnector.
// ---------------------------------------------------------------------------

/// A [`Transport`] over one TCP connection to one storage node.
pub struct TcpTransport {
    node: StorageNodeId,
    /// Feeds the writer thread; unbounded, so `send` never blocks on the
    /// socket (the connection layer's credit gate bounds what enters).
    req_tx: Option<Sender<RequestEnvelope>>,
    reply_rx: Receiver<ReplyEnvelope>,
    dead: Arc<AtomicBool>,
    /// Kept to force-close the socket on drop, unblocking both threads.
    stream: TcpStream,
}

impl TcpTransport {
    /// Dials `addr`, performs the handshake, and spawns the reader and
    /// writer threads. When `expect` is given, a handshake announcing a
    /// different node id fails the dial — the guard against a membership
    /// entry pointing at the wrong process.
    pub fn dial(addr: &str, expect: Option<StorageNodeId>) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;

        let mut head = [0u8; 5];
        stream.read_exact(&mut head)?;
        if head[..4] != DATA_MAGIC {
            return Err(proto_err("bad handshake magic"));
        }
        if head[4] != WIRE_VERSION {
            return Err(proto_err("wire version mismatch"));
        }
        let node = StorageNodeId(
            u32::try_from(read_varint(&mut stream)?).map_err(|_| proto_err("bad node id"))?,
        );
        if let Some(want) = expect {
            if node != want {
                return Err(proto_err("connected to the wrong node"));
            }
        }

        let dead = Arc::new(AtomicBool::new(false));
        let (req_tx, req_rx) = unbounded::<RequestEnvelope>();
        let (reply_tx, reply_rx) = unbounded::<ReplyEnvelope>();

        let writer = stream.try_clone()?;
        let wdead = dead.clone();
        std::thread::Builder::new()
            .name(format!("hurricane-tcp-w-{}", node.0))
            .spawn(move || writer_loop(writer, req_rx, wdead))?;

        let reader = stream.try_clone()?;
        let rdead = dead.clone();
        std::thread::Builder::new()
            .name(format!("hurricane-tcp-r-{}", node.0))
            .spawn(move || reader_loop(reader, reply_tx, rdead))?;

        Ok(Self {
            node,
            req_tx: Some(req_tx),
            reply_rx,
            dead,
            stream,
        })
    }
}

fn writer_loop(mut stream: TcpStream, req_rx: Receiver<RequestEnvelope>, dead: Arc<AtomicBool>) {
    let mut frames = FrameWriter::new();
    while let Ok(env) = req_rx.recv() {
        if frames.write_request(&mut stream, &env).is_err() {
            dead.store(true, Ordering::Release);
            return;
        }
    }
    // Sender dropped: transport is going away. Close the write half so
    // the server sees EOF and tears the connection down.
    let _ = stream.shutdown(Shutdown::Both);
}

fn reader_loop(stream: TcpStream, reply_tx: Sender<ReplyEnvelope>, dead: Arc<AtomicBool>) {
    let mut frames = FrameReader::new(&stream);
    // Until the stream ends or fails, or a frame is garbled: frame
    // boundaries can no longer be trusted, so the connection dies.
    while let Ok(Some(mut payload)) = frames.next_frame() {
        let reply = match wire::decode_reply(&mut payload) {
            Ok(r) if payload.is_empty() => r,
            _ => break,
        };
        if reply_tx.send(reply).is_err() {
            return;
        }
    }
    dead.store(true, Ordering::Release);
    let _ = stream.shutdown(Shutdown::Both);
}

impl Transport for TcpTransport {
    fn node(&self) -> StorageNodeId {
        self.node
    }

    fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(StorageError::Disconnected(self.node));
        }
        match &self.req_tx {
            Some(tx) if tx.send(env).is_ok() => Ok(()),
            _ => Err(StorageError::Disconnected(self.node)),
        }
    }

    fn try_recv(&mut self) -> Option<ReplyEnvelope> {
        self.reply_rx.try_recv().ok()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<ReplyEnvelope> {
        self.reply_rx.recv_timeout(timeout).ok()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Dropping the sender stops the writer thread; closing the socket
        // unblocks the reader even if the server never speaks again.
        self.req_tx = None;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("node", &self.node)
            .field("dead", &self.dead.load(Ordering::Relaxed))
            .finish()
    }
}

/// [`Connect`] factory for a TCP member: dials the node's data address
/// and verifies the handshake announces the expected id.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    /// Node id the membership slot stands for.
    pub node: StorageNodeId,
    /// The node's data listen address (`host:port`).
    pub addr: String,
}

impl Connect for TcpConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
        match TcpTransport::dial(&self.addr, Some(self.node)) {
            Ok(t) => Ok(Box::new(t)),
            Err(_) => Err(StorageError::Disconnected(self.node)),
        }
    }
}

// ---------------------------------------------------------------------------
// Server side: TcpNodeServer.
// ---------------------------------------------------------------------------

/// Serves one [`StorageNode`] on a TCP listener.
///
/// Each accepted connection gets a service thread: handshake, then a
/// read-dispatch-write loop over framed envelopes. All connections share
/// one [`ServerDedup`], so a retransmission arriving on a *reconnected*
/// socket still replays the original outcome instead of re-executing.
pub struct TcpNodeServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<parking_lot::Mutex<Vec<TcpStream>>>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpNodeServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// accept loop.
    pub fn bind(node: Arc<StorageNode>, addr: &str) -> io::Result<Self> {
        Self::serve_on(node, TcpListener::bind(addr)?)
    }

    /// Starts the accept loop on an already-bound listener.
    ///
    /// This is the joining-node path: `hurricane-node --join` binds its
    /// data listener first (so the address it announces is already
    /// reserved), learns its node id from the driver, and only then has
    /// the [`StorageNode`] to serve — no bind/announce race.
    pub fn serve_on(node: Arc<StorageNode>, listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let dedup = Arc::new(ServerDedup::new());

        let tstop = stop.clone();
        let tconns = conns.clone();
        let accept = std::thread::Builder::new()
            .name(format!("hurricane-tcp-accept-{}", node.id().0))
            .spawn(move || {
                while !tstop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if let Ok(clone) = stream.try_clone() {
                                tconns.lock().push(clone);
                            }
                            let node = node.clone();
                            let dedup = dedup.clone();
                            let _ = std::thread::Builder::new()
                                .name("hurricane-tcp-serve".into())
                                .spawn(move || {
                                    let _ = serve_connection(&node, &dedup, stream);
                                });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })?;

        Ok(Self {
            local,
            stop,
            conns,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting, closes every open connection, and joins the
    /// accept loop. Service threads exit as their sockets die.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::Release);
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpNodeServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for TcpNodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNodeServer")
            .field("local", &self.local)
            .finish()
    }
}

/// One connection's service loop. Any protocol violation returns and
/// drops the connection; a healthy client sees EOF and fails over.
fn serve_connection(
    node: &StorageNode,
    dedup: &ServerDedup,
    mut stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(5 + varint::MAX_VARINT_LEN);
    hello.extend_from_slice(&DATA_MAGIC);
    hello.push(WIRE_VERSION);
    varint::encode(node.id().0 as u64, &mut hello);
    stream.write_all(&hello)?;

    let mut frames = FrameReader::new(&stream);
    let mut replies = FrameWriter::new();
    while let Some(mut payload) = frames.next_frame()? {
        let env = match wire::decode_request(&mut payload) {
            Ok(env) if payload.is_empty() => env,
            _ => return Err(proto_err("bad request payload")),
        };
        if let Some(reply) = serve_deduped(node, dedup, env) {
            replies.write_reply(&mut &stream, &reply)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Control plane: join protocol.
// ---------------------------------------------------------------------------

/// The driver-side membership listener.
///
/// A starting `hurricane-node` dials this, announces its data address,
/// and the driver appends a [`TcpConnector`] member to its
/// [`Membership`], the one node list its ports and placement read. Live
/// ports pick the node up on their next `refresh_membership`.
pub struct JoinServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl JoinServer {
    /// Binds the join listener and starts admitting nodes.
    pub fn bind(membership: Membership, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let tstop = stop.clone();
        let accept = std::thread::Builder::new()
            .name("hurricane-join".into())
            .spawn(move || {
                while !tstop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = admit(&membership, stream);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })?;

        Ok(Self {
            local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops admitting joins.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for JoinServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for JoinServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinServer")
            .field("local", &self.local)
            .finish()
    }
}

/// Serves one join request: reads the announcement, appends the member,
/// replies with its assigned id.
fn admit(membership: &Membership, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut head = [0u8; 5];
    stream.read_exact(&mut head)?;
    if head[..4] != JOIN_MAGIC {
        return Err(proto_err("bad join magic"));
    }
    if head[4] != WIRE_VERSION {
        return Err(proto_err("join version mismatch"));
    }
    let len = usize::try_from(read_varint(&mut stream)?).map_err(|_| proto_err("bad addr len"))?;
    if len > 256 {
        return Err(proto_err("join address too long"));
    }
    let mut addr = vec![0u8; len];
    stream.read_exact(&mut addr)?;
    let addr = String::from_utf8(addr).map_err(|_| proto_err("join address not utf-8"))?;

    let node = membership.join_with(|node| Arc::new(TcpConnector { node, addr }));

    let mut reply = Vec::with_capacity(varint::MAX_VARINT_LEN);
    varint::encode(node.0 as u64, &mut reply);
    stream.write_all(&reply)
}

/// Node-side half of the join protocol: announces `data_addr` to the
/// driver's [`JoinServer`] at `driver_addr` and returns the node id the
/// driver assigned.
pub fn join_cluster(driver_addr: &str, data_addr: &str) -> io::Result<StorageNodeId> {
    let mut stream = TcpStream::connect(driver_addr)?;
    stream.set_nodelay(true)?;
    let mut msg = Vec::with_capacity(5 + varint::MAX_VARINT_LEN + data_addr.len());
    msg.extend_from_slice(&JOIN_MAGIC);
    msg.push(WIRE_VERSION);
    varint::encode(data_addr.len() as u64, &mut msg);
    msg.extend_from_slice(data_addr.as_bytes());
    stream.write_all(&msg)?;
    let id = read_varint(&mut stream)?;
    Ok(StorageNodeId(
        u32::try_from(id).map_err(|_| proto_err("bad assigned id"))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{StorageRequest, StorageResponse};
    use hurricane_common::BagId;
    use hurricane_format::Chunk;

    fn call(t: &mut dyn Transport, id: u64, seq: u64, request: StorageRequest) -> ReplyEnvelope {
        t.send(RequestEnvelope {
            id,
            client: 1,
            seq,
            request,
        })
        .unwrap();
        t.recv_timeout(Duration::from_secs(5)).expect("reply")
    }

    #[test]
    fn tcp_roundtrip_serves_requests() {
        let node = Arc::new(StorageNode::new(StorageNodeId(0)));
        let server = TcpNodeServer::bind(node, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut t = TcpTransport::dial(&addr, Some(StorageNodeId(0))).unwrap();
        assert_eq!(t.node(), StorageNodeId(0));

        let bag = BagId(1);
        let reply = call(
            &mut t,
            1,
            1,
            StorageRequest::InsertBatch {
                bag,
                origin: 0,
                run: crate::node::next_run_id(),
                chunks: crate::rpc::ChunkRun::new(vec![Chunk::from_vec(vec![1, 2, 3])]),
            },
        );
        assert_eq!(reply.result, Ok(StorageResponse::Inserted));

        let reply = call(&mut t, 2, 2, StorageRequest::Sample { bag });
        match reply.result {
            Ok(StorageResponse::Sampled(s)) => assert_eq!(s.total_chunks, 1),
            other => panic!("unexpected: {other:?}"),
        }

        let reply = call(
            &mut t,
            3,
            3,
            StorageRequest::RemoveBatch {
                bag,
                origin: 0,
                max_n: 4,
            },
        );
        match reply.result {
            Ok(StorageResponse::Removed(b)) => {
                assert_eq!(b.chunks.len(), 1);
                assert_eq!(b.chunks[0].bytes(), &[1, 2, 3]);
                assert!(b.exhausted);
            }
            other => panic!("unexpected: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn frames_of_more_slices_than_one_write_takes_cross_the_socket() {
        // 1,500 chunks of which every third is empty: the request and
        // the snapshot reply each need more than IOV_MAX (1,024) slices.
        let node = Arc::new(StorageNode::new(StorageNodeId(0)));
        let server = TcpNodeServer::bind(node, "127.0.0.1:0").unwrap();
        let mut t = TcpTransport::dial(&server.local_addr().to_string(), None).unwrap();
        let chunks: Vec<Chunk> = (0..1500u32)
            .map(|i| Chunk::from_vec(vec![i as u8; (i % 3) as usize * 700]))
            .collect();
        let bag = BagId(1);
        let insert = StorageRequest::InsertBatch {
            bag,
            origin: 0,
            run: crate::node::next_run_id(),
            chunks: crate::rpc::ChunkRun::new(chunks.clone()),
        };
        assert_eq!(
            call(&mut t, 1, 1, insert).result,
            Ok(StorageResponse::Inserted)
        );
        let reply = call(
            &mut t,
            2,
            2,
            StorageRequest::SnapshotFrom { bag, origin: 0 },
        );
        assert_eq!(reply.result, Ok(StorageResponse::Chunks(chunks)));
        server.shutdown();
    }

    #[test]
    fn handshake_rejects_wrong_node() {
        let node = Arc::new(StorageNode::new(StorageNodeId(7)));
        let server = TcpNodeServer::bind(node, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        assert!(TcpTransport::dial(&addr, Some(StorageNodeId(0))).is_err());
        assert!(TcpTransport::dial(&addr, Some(StorageNodeId(7))).is_ok());
        server.shutdown();
    }

    /// A listener that answers one connection with a data hello
    /// announcing wire version `version` and node 0.
    fn hello_server(version: u8) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = DATA_MAGIC.to_vec();
            hello.extend([version, 0]);
            stream.write_all(&hello).unwrap();
            // Hold the socket open until the client hangs up.
            let _ = stream.read(&mut [0u8; 1]);
        });
        (addr, server)
    }

    #[test]
    fn dial_refuses_a_server_speaking_wire_version_2() {
        for old in [2, 3] {
            let (addr, server) = hello_server(old);
            let Err(err) = TcpTransport::dial(&addr, None) else {
                panic!("a version {old} hello was accepted");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("wire version"), "{err}");
            server.join().unwrap();
        }
        // The same hello at the current version dials.
        let (addr, server) = hello_server(WIRE_VERSION);
        drop(TcpTransport::dial(&addr, Some(StorageNodeId(0))).unwrap());
        server.join().unwrap();
    }

    #[test]
    fn wire_md_documents_the_current_version() {
        let title = include_str!("../../../WIRE.md").lines().next().unwrap();
        assert_eq!(
            title,
            format!("# Hurricane wire protocol (`WIRE_VERSION = {WIRE_VERSION}`)")
        );
    }

    #[test]
    fn dead_server_reports_disconnected() {
        let node = Arc::new(StorageNode::new(StorageNodeId(0)));
        let server = TcpNodeServer::bind(node, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut t = TcpTransport::dial(&addr, None).unwrap();
        server.shutdown();
        // The writer may still accept a request into its queue, but the
        // connection latches dead once the socket fails.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let res = t.send(RequestEnvelope {
                id: 1,
                client: 1,
                seq: 1,
                request: StorageRequest::Ping,
            });
            if res.is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "send never observed the dead connection"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn join_server_admits_nodes_in_order() {
        // One pre-known node, as the TCP endpoint seeds the membership;
        // each join takes the next id.
        let membership = Membership::new();
        membership.join(Arc::new(TcpConnector {
            node: StorageNodeId(0),
            addr: "127.0.0.1:9000".into(),
        }));
        let join = JoinServer::bind(membership.clone(), "127.0.0.1:0").unwrap();
        let driver = join.local_addr().to_string();

        let a = join_cluster(&driver, "127.0.0.1:9001").unwrap();
        let b = join_cluster(&driver, "127.0.0.1:9002").unwrap();
        assert_eq!((a, b), (StorageNodeId(1), StorageNodeId(2)));
        assert_eq!(membership.len(), 3);
        let nodes: Vec<_> = membership.members().iter().map(|m| m.node).collect();
        assert_eq!(nodes, [0, 1, 2].map(StorageNodeId));
        join.shutdown();
    }
}
