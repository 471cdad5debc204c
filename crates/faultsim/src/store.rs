//! Disk fault injection behind the segment-store backend traits.
//!
//! [`FaultyStore`] wraps a real [`SegmentStore`] (typically the
//! in-memory virtual disk, [`SegmentStore::mem`]) through the
//! [`StoreBackend`]/[`LogBackend`] hooks, so every byte a storage node
//! journals or reads back passes through a seeded fault roll. The
//! faults model the ways real disks betray a log:
//!
//! * **ENOSPC** — an append fails with `No space left on device`
//!   (`raw_os_error == 28`), which the node surfaces as the
//!   non-retryable [`StorageError::DiskFull`] clients route around.
//! * **EIO** — an append fails with a transient I/O error, surfaced as
//!   the retryable [`StorageError::DiskIo`].
//! * **Short write** — an append writes only a *prefix* of the frame
//!   before failing: torn bytes stay in the log, exactly what a crash
//!   mid-`write(2)` leaves. The node's bag-log poisoning must refuse
//!   later appends so the torn frame is never buried where the
//!   recovery scan's torn-tail cut cannot reach it (`SEGMENT.md`).
//! * **fsync failure** — [`SegmentLog::sync`] fails; callers must treat
//!   the durability of every frame since the last successful sync as
//!   unknown.
//! * **Read corruption** — a positioned read returns the stored bytes
//!   with one bit flipped. Spilled-frame reads CRC-check what they
//!   decode, so corruption must surface as a typed error, never as
//!   silently wrong chunk bytes.
//!
//! Faults are **per-node armable**: the shared [`DiskFaults`]
//! controller knows which storage node's disk is currently misbehaving
//! (see [`FaultAction::DiskFault`](crate::net::FaultAction::DiskFault)),
//! and every roll is drawn from a [`DetRng`] fork of the scenario seed,
//! so a sweep failure replays from its seed alone.
//!
//! [`StorageError::DiskFull`]: hurricane_storage::StorageError::DiskFull
//! [`StorageError::DiskIo`]: hurricane_storage::StorageError::DiskIo

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hurricane_common::DetRng;
use hurricane_storage::segment::{LogBackend, SegmentLog, SegmentStore, StoreBackend};
use parking_lot::Mutex;

/// Per-operation fault rates, in per-mille (0..=1000).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskFaultConfig {
    /// An append fails with ENOSPC (nothing written).
    pub enospc_per_mille: u32,
    /// An append fails with a transient EIO (nothing written).
    pub eio_per_mille: u32,
    /// An append writes a prefix of the frame, then fails (torn bytes
    /// remain in the log).
    pub short_write_per_mille: u32,
    /// A sync (fsync) call fails.
    pub sync_fail_per_mille: u32,
    /// A positioned read returns the stored bytes with one bit flipped.
    pub corrupt_read_per_mille: u32,
}

impl DiskFaultConfig {
    /// No faults — the baseline every node starts from until armed.
    pub fn off() -> Self {
        Self::default()
    }

    /// A moderately hostile disk: every fault class enabled at rates
    /// that fire several times over a few hundred operations without
    /// drowning the run.
    pub fn hostile() -> Self {
        Self {
            enospc_per_mille: 30,
            eio_per_mille: 30,
            short_write_per_mille: 15,
            sync_fail_per_mille: 15,
            corrupt_read_per_mille: 10,
        }
    }
}

/// Running totals of injected faults, proving a scenario's fault window
/// actually intersected the I/O it meant to disturb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultCounts {
    /// Appends failed with ENOSPC.
    pub enospc: u64,
    /// Appends failed with EIO.
    pub eio: u64,
    /// Appends torn mid-frame.
    pub short_writes: u64,
    /// Syncs failed.
    pub sync_fails: u64,
    /// Reads returned corrupted bytes.
    pub corrupt_reads: u64,
}

impl DiskFaultCounts {
    /// Total faults injected across every class.
    pub fn total(&self) -> u64 {
        self.enospc + self.eio + self.short_writes + self.sync_fails + self.corrupt_reads
    }
}

/// Shared controller for one cluster's disk faults: the seeded
/// randomness, the per-node armed flags, and the injection counters.
/// Held by the scenario (and by [`SimNet`](crate::net::SimNet) when
/// attached) on one side and by every [`FaultyStore`]-wrapped log on
/// the other.
pub struct DiskFaults {
    cfg: Mutex<DiskFaultConfig>,
    rng: Mutex<DetRng>,
    /// Indexed by storage-node index; absent entries are unarmed.
    armed: Mutex<Vec<bool>>,
    enospc: AtomicU64,
    eio: AtomicU64,
    short_writes: AtomicU64,
    sync_fails: AtomicU64,
    corrupt_reads: AtomicU64,
}

impl DiskFaults {
    /// A controller rolling faults at `cfg` rates from a fork of
    /// `seed`. All nodes start unarmed: wrap first, arm when the
    /// scenario's fault window opens.
    pub fn new(seed: u64, cfg: DiskFaultConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg: Mutex::new(cfg),
            rng: Mutex::new(DetRng::new(seed).fork(0xD15C)),
            armed: Mutex::new(Vec::new()),
            enospc: AtomicU64::new(0),
            eio: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            sync_fails: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
        })
    }

    /// Starts injecting faults on `node`'s disk.
    pub fn arm(&self, node: usize) {
        let mut armed = self.armed.lock();
        if armed.len() <= node {
            armed.resize(node + 1, false);
        }
        armed[node] = true;
    }

    /// Stops injecting faults on `node`'s disk (already-torn bytes and
    /// already-returned corrupt reads stay — a healed disk does not
    /// unhappen its past).
    pub fn disarm(&self, node: usize) {
        let mut armed = self.armed.lock();
        if node < armed.len() {
            armed[node] = false;
        }
    }

    /// Disarms every node — part of a scenario's `heal_all`.
    pub fn disarm_all(&self) {
        self.armed.lock().iter_mut().for_each(|a| *a = false);
    }

    /// Whether `node`'s disk is currently injecting faults.
    pub fn is_armed(&self, node: usize) -> bool {
        self.armed.lock().get(node).copied().unwrap_or(false)
    }

    /// Replaces the fault rates mid-run.
    pub fn set_config(&self, cfg: DiskFaultConfig) {
        *self.cfg.lock() = cfg;
    }

    /// Snapshot of the injection counters.
    pub fn counts(&self) -> DiskFaultCounts {
        DiskFaultCounts {
            enospc: self.enospc.load(Ordering::Relaxed),
            eio: self.eio.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            sync_fails: self.sync_fails.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
        }
    }

    /// One fault roll for `node`. Unarmed nodes (and zero rates) draw
    /// nothing, so healthy phases do not consume randomness.
    fn roll(&self, node: Option<usize>, per_mille: u32) -> bool {
        let Some(node) = node else { return false };
        if per_mille == 0 || !self.is_armed(node) {
            return false;
        }
        self.rng.lock().gen_range(1000) < u64::from(per_mille)
    }

    /// A draw in `0..n` for fault shaping (torn-prefix length, flipped
    /// bit position).
    fn draw(&self, n: u64) -> u64 {
        self.rng.lock().gen_range(n)
    }
}

impl std::fmt::Debug for DiskFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskFaults")
            .field("cfg", &*self.cfg.lock())
            .field("armed", &*self.armed.lock())
            .field("counts", &self.counts())
            .finish()
    }
}

/// A [`StoreBackend`] wrapping a real store with per-node disk-fault
/// injection. The store a cluster is built over is the *root*; each
/// node's `node-<i>` subdir view inherits that node index, and only
/// node-scoped logs ever inject (the root itself holds no logs).
pub struct FaultyStore {
    inner: SegmentStore,
    faults: Arc<DiskFaults>,
    /// The storage-node index this view is scoped to (`None` at root).
    node: Option<usize>,
}

impl FaultyStore {
    /// Wraps `inner` so every log opened under a `node-<i>` subdir
    /// rolls faults against `faults`. Hand the result to
    /// [`DurabilityConfig`](hurricane_storage::DurabilityConfig) as the
    /// cluster's store.
    pub fn wrap(inner: SegmentStore, faults: Arc<DiskFaults>) -> SegmentStore {
        SegmentStore::custom(Arc::new(Self {
            inner,
            faults,
            node: None,
        }))
    }
}

impl StoreBackend for FaultyStore {
    fn open_log(&self, name: &str) -> io::Result<SegmentLog> {
        let inner = self.inner.open_log(name)?;
        Ok(SegmentLog::custom(Arc::new(FaultyLog {
            inner,
            faults: self.faults.clone(),
            node: self.node,
        })))
    }

    fn list_logs(&self) -> io::Result<Vec<String>> {
        self.inner.list_logs()
    }

    fn subdir(&self, name: &str) -> io::Result<SegmentStore> {
        // The cluster namespaces each node as `node-<i>`; deeper
        // subdirs (if any) keep their node's scope.
        let node = name
            .strip_prefix("node-")
            .and_then(|s| s.parse().ok())
            .or(self.node);
        Ok(SegmentStore::custom(Arc::new(Self {
            inner: self.inner.subdir(name)?,
            faults: self.faults.clone(),
            node,
        })))
    }
}

/// A [`LogBackend`] injecting the faults of its node's [`DiskFaults`]
/// into one log.
struct FaultyLog {
    inner: SegmentLog,
    faults: Arc<DiskFaults>,
    node: Option<usize>,
}

impl LogBackend for FaultyLog {
    fn append(&self, frame: &[u8]) -> io::Result<u64> {
        let f = &self.faults;
        if f.roll(self.node, f.cfg.lock().enospc_per_mille) {
            f.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(28)); // ENOSPC
        }
        if f.roll(self.node, f.cfg.lock().eio_per_mille) {
            f.eio.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(5)); // EIO
        }
        if frame.len() >= 2 && f.roll(self.node, f.cfg.lock().short_write_per_mille) {
            f.short_writes.fetch_add(1, Ordering::Relaxed);
            // Tear the frame: a nonempty strict prefix lands, then the
            // write dies. The torn bytes stay — the caller must poison
            // the bag's log so no later append buries them beyond the
            // recovery scan's torn-tail cut.
            let torn = 1 + f.draw(frame.len() as u64 - 1) as usize;
            let _ = self.inner.append(&frame[..torn]);
            return Err(io::Error::from_raw_os_error(5));
        }
        self.inner.append(frame)
    }

    fn read(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = self.inner.read(offset, len)?;
        let f = &self.faults;
        if !buf.is_empty() && f.roll(self.node, f.cfg.lock().corrupt_read_per_mille) {
            f.corrupt_reads.fetch_add(1, Ordering::Relaxed);
            let pos = f.draw(buf.len() as u64) as usize;
            let bit = f.draw(8) as u32;
            buf[pos] ^= 1 << bit;
        }
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        // Recovery scans read the whole log; corruption there is the
        // torn-tail / bad-frame case the scan already models, so the
        // full read passes through untouched. Positioned reads (the hot
        // spilled-frame path) are where bit rot is injected.
        self.inner.read_all()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn sync(&self) -> io::Result<()> {
        let f = &self.faults;
        if f.roll(self.node, f.cfg.lock().sync_fail_per_mille) {
            f.sync_fails.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(5));
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(seed: u64, cfg: DiskFaultConfig) -> (SegmentStore, Arc<DiskFaults>) {
        let faults = DiskFaults::new(seed, cfg);
        faults.arm(0);
        let store = FaultyStore::wrap(SegmentStore::mem(), faults.clone());
        (store.subdir("node-0").unwrap(), faults)
    }

    #[test]
    fn unarmed_store_is_transparent() {
        let faults = DiskFaults::new(7, DiskFaultConfig::hostile());
        let store = FaultyStore::wrap(SegmentStore::mem(), faults.clone());
        let log = store
            .subdir("node-0")
            .unwrap()
            .open_log("bag-0.log")
            .unwrap();
        for _ in 0..200 {
            log.append(b"frame").unwrap();
            log.sync().unwrap();
        }
        assert_eq!(log.read(0, 5).unwrap(), b"frame");
        assert_eq!(faults.counts().total(), 0);
    }

    #[test]
    fn enospc_appends_nothing_and_counts() {
        let (store, faults) = armed(
            11,
            DiskFaultConfig {
                enospc_per_mille: 1000,
                ..DiskFaultConfig::off()
            },
        );
        let log = store.open_log("bag-0.log").unwrap();
        let err = log.append(b"payload").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(log.len(), 0, "ENOSPC must not leave bytes behind");
        assert_eq!(faults.counts().enospc, 1);
    }

    #[test]
    fn short_write_tears_the_frame() {
        let (store, faults) = armed(
            13,
            DiskFaultConfig {
                short_write_per_mille: 1000,
                ..DiskFaultConfig::off()
            },
        );
        let log = store.open_log("bag-0.log").unwrap();
        let frame = vec![0xAB; 64];
        log.append(&frame).unwrap_err();
        let torn = log.len();
        assert!(
            torn > 0 && torn < 64,
            "a torn append must leave a nonempty strict prefix, left {torn}"
        );
        assert_eq!(faults.counts().short_writes, 1);
    }

    #[test]
    fn corrupt_read_flips_exactly_one_bit() {
        let (store, faults) = armed(
            17,
            DiskFaultConfig {
                corrupt_read_per_mille: 1000,
                ..DiskFaultConfig::off()
            },
        );
        let log = store.open_log("bag-0.log").unwrap();
        let frame = vec![0u8; 32];
        log.append(&frame).unwrap();
        let read = log.read(0, 32).unwrap();
        let flipped: u32 = read.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert_eq!(faults.counts().corrupt_reads, 1);
        // The log itself is intact: disarm and re-read.
        faults.disarm(0);
        assert_eq!(log.read(0, 32).unwrap(), frame);
    }

    #[test]
    fn sync_failure_counts_and_passes_after_disarm() {
        let (store, faults) = armed(
            19,
            DiskFaultConfig {
                sync_fail_per_mille: 1000,
                ..DiskFaultConfig::off()
            },
        );
        let log = store.open_log("bag-0.log").unwrap();
        log.sync().unwrap_err();
        assert_eq!(faults.counts().sync_fails, 1);
        faults.disarm_all();
        log.sync().unwrap();
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let schedule = |seed| {
            let (store, _faults) = armed(
                seed,
                DiskFaultConfig {
                    eio_per_mille: 300,
                    ..DiskFaultConfig::off()
                },
            );
            let log = store.open_log("bag-0.log").unwrap();
            (0..64)
                .map(|_| log.append(b"x").is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(42), schedule(42), "same-seed schedules diverged");
        assert_ne!(
            schedule(42),
            schedule(43),
            "different seeds drew identical 64-roll schedules (suspicious)"
        );
    }
}
