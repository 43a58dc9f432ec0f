//! A single metadata provider: an in-memory, write-once key/value store with
//! a failure switch used by the fault-injection experiments.

use blobseer_types::{BlobError, MetaNodeId, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One node of the metadata DHT.
///
/// Values are held behind [`Arc`] so that the replicas of one key across
/// several nodes share a single allocation: a replicated put clones the
/// `Arc`, never the value.
pub struct DhtNode<K, V> {
    id: MetaNodeId,
    entries: RwLock<HashMap<K, Arc<V>>>,
    alive: AtomicBool,
}

impl<K, V> DhtNode<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone + PartialEq,
{
    /// Creates an empty, live node.
    pub fn new(id: MetaNodeId) -> Self {
        DhtNode {
            id,
            entries: RwLock::new(HashMap::new()),
            alive: AtomicBool::new(true),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> MetaNodeId {
        self.id
    }

    /// Whether the node is currently serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Flips the node's availability (used by failure injection).
    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::Release);
    }

    /// Stores `value` under `key`.
    ///
    /// Entries are write-once: writing a different value under an existing
    /// key is an error, writing an identical value again succeeds silently.
    pub fn put(&self, key: K, value: V) -> Result<()> {
        self.put_shared(key, Arc::new(value))
    }

    /// Stores an already-shared value under `key` (used by replicated puts:
    /// every replica holds the same `Arc`, so the value is allocated once no
    /// matter the replication factor).
    pub fn put_shared(&self, key: K, value: Arc<V>) -> Result<()> {
        let mut entries = self.entries.write();
        match entries.get(&key) {
            Some(existing) if **existing != *value => Err(BlobError::Internal(format!(
                "conflicting write-once put on metadata node {}",
                self.id
            ))),
            Some(_) => Ok(()),
            None => {
                entries.insert(key, value);
                Ok(())
            }
        }
    }

    /// Fetches the value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_shared(key).map(|v| (*v).clone())
    }

    /// Fetches the shared handle stored under `key`, if any (no value
    /// clone).
    pub fn get_shared(&self, key: &K) -> Option<Arc<V>> {
        self.entries.read().get(key).cloned()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the node stores no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// A copy of every entry (used by rebalancing). The values are shared
    /// handles, so the copy is cheap regardless of the value sizes.
    pub fn snapshot(&self) -> Vec<(K, Arc<V>)> {
        self.entries
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Removes the entry stored under `key`, returning its shared handle if
    /// it was present. Removing an absent key is a harmless no-op (garbage
    /// sweeps are idempotent and may race each other).
    pub fn remove(&self, key: &K) -> Option<Arc<V>> {
        self.entries.write().remove(key)
    }

    /// Removes and returns every entry (used when the node leaves the ring).
    pub fn drain(&self) -> Vec<(K, Arc<V>)> {
        self.entries.write().drain().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_stats() {
        let n: DhtNode<&str, u32> = DhtNode::new(MetaNodeId(1));
        assert!(n.is_empty());
        n.put("a", 1).unwrap();
        n.put("b", 2).unwrap();
        assert_eq!(n.get(&"a"), Some(1));
        assert_eq!(n.get(&"missing"), None);
        assert_eq!(n.len(), 2);
        assert_eq!(n.get(&"b"), Some(2));
    }

    #[test]
    fn write_once_semantics() {
        let n: DhtNode<&str, u32> = DhtNode::new(MetaNodeId(1));
        n.put("a", 1).unwrap();
        n.put("a", 1).unwrap();
        assert!(n.put("a", 2).is_err());
        assert_eq!(n.get(&"a"), Some(1));
        // The idempotent re-put stores no second entry.
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn alive_flag_toggles() {
        let n: DhtNode<&str, u32> = DhtNode::new(MetaNodeId(3));
        assert!(n.is_alive());
        n.set_alive(false);
        assert!(!n.is_alive());
        n.set_alive(true);
        assert!(n.is_alive());
    }

    #[test]
    fn snapshot_and_drain() {
        let n: DhtNode<String, u32> = DhtNode::new(MetaNodeId(0));
        n.put("x".into(), 10).unwrap();
        n.put("y".into(), 20).unwrap();
        let mut snap: Vec<(String, u32)> = n.snapshot().into_iter().map(|(k, v)| (k, *v)).collect();
        snap.sort();
        assert_eq!(snap, vec![("x".into(), 10), ("y".into(), 20)]);
        assert_eq!(n.len(), 2);
        let drained = n.drain();
        assert_eq!(drained.len(), 2);
        assert!(n.is_empty());
    }

    #[test]
    fn shared_puts_store_one_allocation_across_nodes() {
        let a: DhtNode<&str, String> = DhtNode::new(MetaNodeId(0));
        let b: DhtNode<&str, String> = DhtNode::new(MetaNodeId(1));
        let v = Arc::new("payload".to_string());
        a.put_shared("k", Arc::clone(&v)).unwrap();
        b.put_shared("k", Arc::clone(&v)).unwrap();
        assert!(Arc::ptr_eq(
            &a.get_shared(&"k").unwrap(),
            &b.get_shared(&"k").unwrap()
        ));
        // Conflicting shared puts are still rejected.
        assert!(a.put_shared("k", Arc::new("other".to_string())).is_err());
    }

    #[test]
    fn concurrent_puts_of_distinct_keys() {
        use std::sync::Arc;
        let n: Arc<DhtNode<u64, u64>> = Arc::new(DhtNode::new(MetaNodeId(9)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let n = Arc::clone(&n);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    n.put(t * 1_000 + i, i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.len(), 4_000);
        for t in 0..8u64 {
            assert_eq!(n.get(&(t * 1_000 + 499)), Some(499));
        }
    }
}
