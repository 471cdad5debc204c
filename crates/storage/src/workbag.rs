//! Work bags: bags of task descriptors (paper §4.1).
//!
//! "Work bags are similar to data bags and expose the same interface,
//! except they contain tasks, not chunks." Each application keeps three:
//! *ready* (tasks available for any compute node to claim), *running*
//! (tasks currently executing, scanned on compute-node failure), and
//! *done* (completed task ids, replayed on master recovery).
//!
//! Each item is encoded as a single-record chunk, making the chunk's
//! exactly-once removal guarantee an exactly-once *task claim* guarantee:
//! two task managers pulling from the ready bag can never start the same
//! task instance twice.

use crate::bag::{BagClient, BatchRemoveResult};
use crate::error::StorageError;
use hurricane_common::BagId;
use hurricane_format::{decode_all, Chunk, Record};
use std::marker::PhantomData;

/// A typed bag of items, one record per chunk.
pub struct WorkBag<T: Record> {
    client: BagClient,
    _marker: PhantomData<fn(&T)>,
}

impl<T: Record> WorkBag<T> {
    /// Wraps a bag client (one minted by
    /// [`crate::StorageEndpoint::client`], on any plane, or
    /// [`BagClient::new`] for the inline one) as a typed work bag.
    pub fn with_client(client: BagClient) -> Self {
        Self {
            client,
            _marker: PhantomData,
        }
    }

    /// The underlying bag id.
    pub fn bag_id(&self) -> BagId {
        self.client.bag_id()
    }

    /// Inserts one item.
    pub fn insert(&mut self, item: &T) -> Result<(), StorageError> {
        let mut buf = Vec::new();
        item.encode(&mut buf);
        self.client.insert(Chunk::from_vec(buf))
    }

    /// Inserts many items with batched storage calls — one placement
    /// pass and at most one storage round-trip per node for the whole
    /// run, instead of one per item.
    pub fn insert_batch(&mut self, items: &[T]) -> Result<(), StorageError> {
        let chunks: Vec<Chunk> = items
            .iter()
            .map(|item| {
                let mut buf = Vec::new();
                item.encode(&mut buf);
                Chunk::from_vec(buf)
            })
            .collect();
        self.client.insert_batch(&chunks)
    }

    /// Claims up to `max_n` items in one batched storage pass (one item is
    /// `max_n = 1`). `Ok` with an empty vector means nothing is available
    /// *right now*; work bags are long-lived, so unlike data bags the
    /// common idle case is "empty but more tasks will arrive". Each item
    /// is claimed exactly once across every taker.
    pub fn try_take_batch(&mut self, max_n: usize) -> Result<Vec<T>, StorageError> {
        match self.client.try_remove_batch(max_n)? {
            BatchRemoveResult::Chunks(chunks) => {
                let mut items = Vec::with_capacity(chunks.len());
                for c in &chunks {
                    let mut bytes = c.bytes();
                    items.push(T::decode(&mut bytes).map_err(StorageError::from)?);
                }
                Ok(items)
            }
            BatchRemoveResult::Pending | BatchRemoveResult::Drained => Ok(Vec::new()),
        }
    }

    /// Non-destructively reads every item ever inserted — including items
    /// already claimed. This is the scan the master uses to replay the
    /// done bag after a crash and to find a failed node's running tasks
    /// (paper §4.4). Goes through the client's port, so it reads the
    /// nodes the client writes to, on any plane.
    pub fn scan_all(&mut self) -> Result<Vec<T>, StorageError> {
        let chunks = self.client.port.snapshot_bag(self.client.bag)?;
        let mut items = Vec::with_capacity(chunks.len());
        for c in &chunks {
            items.extend(decode_all::<T>(c).map_err(StorageError::from)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, StorageCluster};
    use std::collections::HashSet;
    use std::sync::Arc;

    type Descriptor = (u64, String);

    fn setup() -> (Arc<StorageCluster>, BagId) {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        (cluster, bag)
    }

    #[test]
    fn insert_take_roundtrip() {
        let (cluster, bag) = setup();
        let mut wb = WorkBag::<Descriptor>::with_client(BagClient::new(cluster, bag, 1));
        wb.insert(&(7, "phase1".into())).unwrap();
        let item = wb.try_take_batch(1).unwrap().pop().unwrap();
        assert_eq!(item, (7, "phase1".into()));
        assert_eq!(wb.try_take_batch(1).unwrap().pop(), None);
    }

    #[test]
    fn claims_are_exactly_once_across_managers() {
        let (cluster, bag) = setup();
        let mut producer =
            WorkBag::<(u64, u64)>::with_client(BagClient::new(cluster.clone(), bag, 2));
        for i in 0..64 {
            producer.insert(&(i, i * 10)).unwrap();
        }
        let mut claimed = HashSet::new();
        let mut a = WorkBag::<(u64, u64)>::with_client(BagClient::new(cluster.clone(), bag, 3));
        let mut b = WorkBag::<(u64, u64)>::with_client(BagClient::new(cluster.clone(), bag, 4));
        loop {
            let mut progressed = false;
            if let Some(t) = a.try_take_batch(1).unwrap().pop() {
                assert!(claimed.insert(t.0), "double claim {t:?}");
                progressed = true;
            }
            if let Some(t) = b.try_take_batch(1).unwrap().pop() {
                assert!(claimed.insert(t.0), "double claim {t:?}");
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(claimed.len(), 64);
    }

    #[test]
    fn scan_sees_claimed_items() {
        let (cluster, bag) = setup();
        let mut wb = WorkBag::<u64>::with_client(BagClient::new(cluster, bag, 5));
        for i in 0..10 {
            wb.insert(&i).unwrap();
        }
        for _ in 0..5 {
            wb.try_take_batch(1).unwrap().pop().unwrap();
        }
        // The done-bag replay semantics: claimed or not, history is intact.
        let all = wb.scan_all().unwrap();
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn batch_insert_and_take_roundtrip() {
        let (cluster, bag) = setup();
        let mut wb = WorkBag::<u64>::with_client(BagClient::new(cluster.clone(), bag, 7));
        let items: Vec<u64> = (0..50).collect();
        wb.insert_batch(&items).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = wb.try_take_batch(16).unwrap();
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        got.sort_unstable();
        assert_eq!(got, items, "every item claimed exactly once");
    }

    #[test]
    fn items_survive_and_spread_across_nodes() {
        let (cluster, bag) = setup();
        let mut wb = WorkBag::<u64>::with_client(BagClient::new(cluster.clone(), bag, 6));
        for i in 0..40 {
            wb.insert(&i).unwrap();
        }
        // Work bag items are spread like data chunks (decentralized
        // scheduling; no single point of control, paper §4.1).
        for idx in 0..4 {
            assert_eq!(cluster.node(idx).sample(bag).unwrap().total_chunks, 10);
        }
    }
}
