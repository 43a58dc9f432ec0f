//! A consistent-hashing DHT (Distributed Hash Table) used by the BlobSeer
//! metadata providers.
//!
//! The paper stores metadata tree nodes "in a fine-grain manner among the
//! metadata providers, which form a DHT". This crate provides that
//! substrate:
//!
//! * [`ring::HashRing`] — a consistent-hashing ring with virtual nodes, so
//!   that keys spread evenly and membership changes move little data;
//! * [`node::DhtNode`] — one metadata provider: an in-memory key/value store
//!   with per-node statistics and a failure switch;
//! * [`Dht`] — the client-side view tying the two together, with replicated
//!   `put`/`get`, batch operations that route each key once and can report
//!   the round-trips they made ([`Trip`]), and membership management.
//!
//! Values are write-once (metadata in BlobSeer is immutable): `put` of an
//! existing key is accepted only if idempotent, which is exactly the
//! behaviour concurrent writers rely on.

pub mod node;
pub mod ring;

use blobseer_types::{BlobError, MetaNodeId, Result};
use node::DhtNode;
use parking_lot::RwLock;
use ring::HashRing;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A replicated, consistent-hashed key/value store spread over a set of
/// metadata providers.
///
/// The table is generic over the key and value types; BlobSeer-RS
/// instantiates it with segment-tree node keys and node bodies, keeping the
/// hot path free of serialisation.
///
/// Besides per-key `put`/`get`, the table offers [`Dht::put_batch`] and
/// [`Dht::get_batch`]: the keys of a batch are grouped by owning node so
/// that one *round-trip* per owning node moves the whole group, instead of
/// one round-trip per key. The accumulated round-trip count is exposed via
/// [`Dht::round_trips`] — the unit the paper's metadata-path costs are
/// measured in — and the `_traced` variants report each batch's own trips.
pub struct Dht<K, V> {
    ring: RwLock<HashRing>,
    nodes: RwLock<HashMap<MetaNodeId, Arc<DhtNode<K, V>>>>,
    replication: usize,
    virtual_nodes: usize,
    /// Logical request/response exchanges with individual nodes: one per
    /// node contacted by a `get`/`put`, one per owning node per batch.
    round_trips: AtomicU64,
}

/// One round-trip a batch operation made: a request to the metadata
/// provider `owner` carrying the batch items at positions `items`. An item
/// appears once per live replica the operation asked — a put's entry on
/// every replica it reached, a get's key on each replica tried until one
/// held it — so with replication 1 the trips of a batch partition it by
/// owner.
#[derive(Debug, Clone)]
pub struct Trip {
    /// The node the request went to.
    pub owner: MetaNodeId,
    /// Positions, in the batch, of the items the request carried.
    pub items: Vec<usize>,
}

impl<K, V> Dht<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone + PartialEq,
{
    /// Creates a DHT over `node_count` metadata providers with ids `0..n`,
    /// `virtual_nodes` ring positions per provider and the given replication
    /// factor.
    pub fn new(node_count: usize, virtual_nodes: usize, replication: usize) -> Result<Self> {
        if node_count == 0 {
            return Err(BlobError::InvalidConfig(
                "a DHT needs at least one node".into(),
            ));
        }
        if replication == 0 || replication > node_count {
            return Err(BlobError::InvalidConfig(format!(
                "DHT replication must be in 1..={node_count}"
            )));
        }
        if virtual_nodes == 0 {
            return Err(BlobError::InvalidConfig(
                "a DHT needs at least one virtual node per provider".into(),
            ));
        }
        let ids: Vec<MetaNodeId> = (0..node_count as u32).map(MetaNodeId).collect();
        let ring = HashRing::new(&ids, virtual_nodes);
        let nodes = ids
            .iter()
            .map(|&id| (id, Arc::new(DhtNode::new(id))))
            .collect();
        Ok(Dht {
            ring: RwLock::new(ring),
            nodes: RwLock::new(nodes),
            replication,
            virtual_nodes,
            round_trips: AtomicU64::new(0),
        })
    }

    /// Number of metadata providers currently part of the table.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// The replication factor used for every key.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Identifiers of all member nodes, in id order.
    pub fn node_ids(&self) -> Vec<MetaNodeId> {
        let mut ids: Vec<MetaNodeId> = self.nodes.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// The nodes responsible for `key`, primary first.
    pub fn route(&self, key: &K) -> Vec<MetaNodeId> {
        let hash = ring::hash_key(key);
        self.ring.read().successors(hash, self.replication)
    }

    /// Number of logical node round-trips issued since the table was
    /// created: one per node contacted by a `put`/`get`, one per owning node
    /// per batch operation. This is the unit in which the paper measures the
    /// metadata path — a batched read of a whole tree level costs at most
    /// one round-trip per metadata provider, however many nodes the level
    /// has.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Stores `value` under `key` on every replica responsible for it.
    ///
    /// Metadata in BlobSeer is immutable: storing a *different* value under
    /// an existing key is rejected; storing the same value again is a no-op
    /// (concurrent writers may legitimately race to persist identical tree
    /// nodes).
    pub fn put(&self, key: K, value: V) -> Result<()> {
        self.put_shared(key, Arc::new(value))
    }

    fn put_shared(&self, key: K, value: Arc<V>) -> Result<()> {
        let replicas = self.route(&key);
        let nodes = self.nodes.read();
        let mut stored_on = 0usize;
        for id in &replicas {
            let node = nodes.get(id).ok_or(BlobError::Internal(format!(
                "ring references unknown node {id}"
            )))?;
            if !node.is_alive() {
                continue;
            }
            self.round_trips.fetch_add(1, Ordering::Relaxed);
            node.put_shared(key.clone(), Arc::clone(&value))?;
            stored_on += 1;
        }
        if stored_on == 0 {
            return Err(BlobError::InsufficientProviders {
                needed: 1,
                available: 0,
            });
        }
        Ok(())
    }

    /// Stores a whole batch of entries, grouping them by owning node: one
    /// round-trip per owning node per replica rank (`replication × nodes`
    /// in the worst case; with the common replication factor of 1, exactly
    /// one per owning node), however many entries the batch has. The value
    /// of each entry is allocated once and shared across its replicas.
    ///
    /// Write-once semantics are per entry, exactly as for [`Dht::put`] —
    /// replicas are visited in routing order (all primaries first), so a
    /// conflicting entry fails at its primary before its value spreads to
    /// any other replica, and every *other* entry of the batch still
    /// reaches its full replica set; the first error is reported after the
    /// batch completes. Every entry must reach at least one live replica.
    pub fn put_batch(&self, entries: Vec<(K, V)>) -> Result<()> {
        self.put_batch_traced(entries, &mut Vec::new())
    }

    /// [`Dht::put_batch`], appending every round-trip it made to `trips`.
    pub fn put_batch_traced(&self, entries: Vec<(K, V)>, trips: &mut Vec<Trip>) -> Result<()> {
        let entries: Vec<(K, Arc<V>)> =
            entries.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let mut stored_on = vec![0usize; entries.len()];
        let mut first_error = None;
        // An entry rejected as conflicting at its primary (the same replica
        // a per-key put would hit first) is never pushed onto later ranks,
        // which would permanently diverge the write-once replicas.
        self.batch(entries.iter().map(|(key, _)| key), trips, |node, index| {
            let (key, value) = &entries[index];
            match node.put_shared(key.clone(), Arc::clone(value)) {
                Ok(()) => {
                    stored_on[index] += 1;
                    true
                }
                Err(err) => {
                    first_error.get_or_insert(err);
                    false
                }
            }
        });
        if let Some(err) = first_error {
            return Err(err);
        }
        if stored_on.contains(&0) {
            return Err(BlobError::InsufficientProviders {
                needed: 1,
                available: 0,
            });
        }
        Ok(())
    }

    /// Removes a whole batch of keys from every replica responsible for
    /// them, grouped by owning node: one round-trip per owning node per
    /// replica rank, however many keys the batch holds. Returns the number
    /// of keys that were present on at least one live replica.
    ///
    /// Absent keys and dead replicas are skipped silently — the lifecycle
    /// sweeps issuing these removals are idempotent, and a replica that was
    /// down merely keeps an unreachable (harmless) copy.
    pub fn remove_batch(&self, keys: &[K]) -> usize {
        let mut removed = vec![false; keys.len()];
        self.batch(keys, &mut Vec::new(), |node, index| {
            removed[index] |= node.remove(&keys[index]).is_some();
            true
        });
        removed.into_iter().filter(|r| *r).count()
    }

    /// Fetches the value stored under `key`, trying replicas in routing
    /// order and skipping failed nodes.
    pub fn get(&self, key: &K) -> Option<V> {
        let replicas = self.route(key);
        let nodes = self.nodes.read();
        for id in &replicas {
            if let Some(node) = nodes.get(id) {
                if !node.is_alive() {
                    continue;
                }
                self.round_trips.fetch_add(1, Ordering::Relaxed);
                if let Some(v) = node.get(key) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Fetches a whole batch of keys, contacting every owning node once per
    /// replica rank: the common case (every key present on its primary)
    /// costs one round-trip per *distinct primary node*, however many keys
    /// the batch has. Keys a node turns out not to hold, and keys whose
    /// replica is down, fall through to the next replica in routing order,
    /// one extra grouped round per rank.
    pub fn get_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        self.get_batch_traced(keys, &mut Vec::new())
    }

    /// [`Dht::get_batch`], appending every round-trip it made to `trips`.
    pub fn get_batch_traced(&self, keys: &[K], trips: &mut Vec<Trip>) -> Vec<Option<V>> {
        let mut out: Vec<Option<V>> = keys.iter().map(|_| None).collect();
        self.batch(keys, trips, |node, index| match node.get(&keys[index]) {
            Some(v) => {
                out[index] = Some(v);
                false
            }
            None => true,
        });
        out
    }

    /// The one routing decision behind every batch operation: one wave per
    /// replica rank, each wave grouping the batch's pending items by the
    /// node that owns them at that rank, and one round-trip per live owner.
    /// `visit` serves one item (by its position in `keys`) on its owner and
    /// says whether the item goes on to its next replica; the items of a
    /// dead owner go on untouched. Every round-trip is appended to `trips`.
    fn batch<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k K>,
        trips: &mut Vec<Trip>,
        mut visit: impl FnMut(&DhtNode<K, V>, usize) -> bool,
    ) where
        K: 'k,
    {
        // Routing under the membership lock keeps every route pointing at
        // a member node.
        let nodes = self.nodes.read();
        let routes: Vec<Vec<MetaNodeId>> = keys.into_iter().map(|key| self.route(key)).collect();
        let mut pending: Vec<usize> = (0..routes.len()).collect();
        for rank in 0..self.replication {
            let mut groups: HashMap<MetaNodeId, Vec<usize>> = HashMap::new();
            for index in pending.drain(..) {
                if let Some(owner) = routes[index].get(rank) {
                    groups.entry(*owner).or_default().push(index);
                }
            }
            for (owner, items) in groups {
                match nodes.get(&owner) {
                    Some(node) if node.is_alive() => {
                        self.round_trips.fetch_add(1, Ordering::Relaxed);
                        pending.extend(items.iter().copied().filter(|&index| visit(node, index)));
                        trips.push(Trip { owner, items });
                    }
                    _ => pending.extend(items),
                }
            }
        }
    }

    /// Returns whether any live replica currently stores `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Marks a node failed: it stops serving reads and writes until
    /// [`Dht::recover_node`] is called.
    pub fn fail_node(&self, id: MetaNodeId) -> Result<()> {
        let nodes = self.nodes.read();
        let node = nodes.get(&id).ok_or(BlobError::Internal(format!(
            "cannot fail unknown DHT node {id}"
        )))?;
        node.set_alive(false);
        Ok(())
    }

    /// Brings a previously failed node back.
    pub fn recover_node(&self, id: MetaNodeId) -> Result<()> {
        let nodes = self.nodes.read();
        let node = nodes.get(&id).ok_or(BlobError::Internal(format!(
            "cannot recover unknown DHT node {id}"
        )))?;
        node.set_alive(true);
        Ok(())
    }

    /// Adds a new (empty) metadata provider and rebalances: every key whose
    /// replica set now includes the new node is copied onto it.
    pub fn join(&self, id: MetaNodeId) -> Result<()> {
        {
            let mut nodes = self.nodes.write();
            if nodes.contains_key(&id) {
                return Err(BlobError::AlreadyExists(format!("DHT node {id}")));
            }
            nodes.insert(id, Arc::new(DhtNode::new(id)));
            self.ring.write().add_node(id, self.virtual_nodes);
        }
        self.rebalance();
        Ok(())
    }

    /// Removes a metadata provider permanently, copying every key it was the
    /// only live holder of onto the new replica set first.
    pub fn leave(&self, id: MetaNodeId) -> Result<()> {
        let departing = {
            let nodes = self.nodes.read();
            nodes.get(&id).cloned().ok_or(BlobError::Internal(format!(
                "cannot remove unknown DHT node {id}"
            )))?
        };
        // Take the node off the ring first so that `route` no longer points
        // at it, then re-insert all of its entries through the normal path.
        {
            let mut nodes = self.nodes.write();
            if nodes.len() == 1 {
                return Err(BlobError::InvalidConfig(
                    "cannot remove the last DHT node".into(),
                ));
            }
            self.ring.write().remove_node(id);
            nodes.remove(&id);
        }
        for (k, v) in departing.drain() {
            // Ignore immutability conflicts: replicas already hold the value.
            let _ = self.put_shared(k, v);
        }
        Ok(())
    }

    /// Copies every entry onto the nodes currently responsible for it.
    /// Called after membership changes; also usable as an anti-entropy pass.
    pub fn rebalance(&self) {
        let nodes: Vec<Arc<DhtNode<K, V>>> = self.nodes.read().values().cloned().collect();
        for node in nodes {
            for (k, v) in node.snapshot() {
                let _ = self.put_shared(k, v);
            }
        }
    }

    /// Per-node entry counts, useful to verify load balance.
    pub fn load_distribution(&self) -> HashMap<MetaNodeId, usize> {
        self.nodes
            .read()
            .iter()
            .map(|(id, n)| (*id, n.len()))
            .collect()
    }

    /// Per-node operation statistics (puts, gets) accumulated since start.
    pub fn stats(&self) -> HashMap<MetaNodeId, node::NodeStats> {
        self.nodes
            .read()
            .iter()
            .map(|(id, n)| (*id, n.stats()))
            .collect()
    }

    /// Total number of entries stored across all nodes (replicas counted
    /// once per node that holds them).
    pub fn total_entries(&self) -> usize {
        self.nodes.read().values().map(|n| n.len()).sum()
    }

    /// Every distinct entry in the table (replicas deduplicated, dead nodes
    /// included — their data still exists, they are just not serving).
    /// Metadata checkpointing uses this to write a compacted image of the
    /// live node set; it walks every node, so it is not a hot-path call.
    pub fn export_entries(&self) -> Vec<(K, V)> {
        let mut seen: HashMap<K, V> = HashMap::new();
        for node in self.nodes.read().values() {
            for (key, value) in node.snapshot() {
                seen.entry(key).or_insert_with(|| (*value).clone());
            }
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dht(nodes: usize, replication: usize) -> Dht<String, u64> {
        Dht::new(nodes, 32, replication).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let d = dht(4, 1);
        d.put("alpha".to_string(), 1).unwrap();
        d.put("beta".to_string(), 2).unwrap();
        assert_eq!(d.get(&"alpha".to_string()), Some(1));
        assert_eq!(d.get(&"beta".to_string()), Some(2));
        assert_eq!(d.get(&"gamma".to_string()), None);
    }

    #[test]
    fn batch_put_get_roundtrip() {
        let d = dht(6, 2);
        let entries: Vec<(String, u64)> = (0..200u64).map(|i| (format!("key-{i}"), i)).collect();
        d.put_batch(entries).unwrap();
        let keys: Vec<String> = (0..200u64).map(|i| format!("key-{i}")).collect();
        let values = d.get_batch(&keys);
        assert_eq!(values.len(), 200);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, Some(i as u64), "key-{i}");
        }
        // Unknown keys come back as None, in position.
        let mixed = d.get_batch(&["key-3".to_string(), "ghost".to_string()]);
        assert_eq!(mixed, vec![Some(3), None]);
        // Empty batches are free.
        let before = d.round_trips();
        d.put_batch(Vec::new()).unwrap();
        assert!(d.get_batch(&[]).is_empty());
        assert_eq!(d.round_trips(), before);
    }

    #[test]
    fn batches_cost_one_round_trip_per_owning_node() {
        let d = dht(4, 1);
        let entries: Vec<(String, u64)> = (0..500u64).map(|i| (format!("key-{i}"), i)).collect();
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        let before = d.round_trips();
        d.put_batch(entries).unwrap();
        let put_trips = d.round_trips() - before;
        assert!(
            put_trips <= 4,
            "a batched put contacts each owning node once, got {put_trips} trips"
        );
        let before = d.round_trips();
        let values = d.get_batch(&keys);
        let get_trips = d.round_trips() - before;
        assert!(values.iter().all(Option::is_some));
        assert!(
            get_trips <= 4,
            "a batched get contacts each primary once, got {get_trips} trips"
        );
        // Per-key access costs one trip per key instead.
        let before = d.round_trips();
        for key in keys.iter().take(50) {
            assert!(d.get(key).is_some());
        }
        assert!(d.round_trips() - before >= 50);
    }

    /// Every item of a batch, by the owners its trips went to, in trip
    /// order.
    fn owners_by_item(trips: &[Trip], len: usize) -> Vec<Vec<MetaNodeId>> {
        let mut owners = vec![Vec::new(); len];
        for trip in trips {
            for &index in &trip.items {
                owners[index].push(trip.owner);
            }
        }
        owners
    }

    #[test]
    fn batches_report_trips_that_partition_them_by_owner() {
        let d = dht(4, 1);
        let entries: Vec<(String, u64)> = (0..200u64).map(|i| (format!("key-{i}"), i)).collect();
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        let mut trips = Vec::new();
        let before = d.round_trips();
        d.put_batch_traced(entries, &mut trips).unwrap();
        assert_eq!(trips.len() as u64, d.round_trips() - before);
        let put_trips = std::mem::take(&mut trips);

        let before = d.round_trips();
        let values = d.get_batch_traced(&keys, &mut trips);
        assert!(values.iter().all(Option::is_some));
        assert_eq!(trips.len() as u64, d.round_trips() - before);
        for report in [&put_trips, &trips] {
            // One trip per owner, together carrying every item exactly
            // once, each on the node the ring routes it to.
            assert_eq!(report.len(), 4);
            let owners = owners_by_item(report, keys.len());
            for (key, owners) in keys.iter().zip(owners) {
                assert_eq!(owners, d.route(key), "{key}");
            }
        }
    }

    #[test]
    fn a_get_reports_the_fall_through_trip_past_a_failed_primary() {
        let d = dht(4, 2);
        let entries: Vec<(String, u64)> = (0..100u64).map(|i| (format!("key-{i}"), i)).collect();
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        d.put_batch(entries).unwrap();
        d.fail_node(MetaNodeId(2)).unwrap();
        let mut trips = Vec::new();
        let before = d.round_trips();
        let values = d.get_batch_traced(&keys, &mut trips);
        assert_eq!(trips.len() as u64, d.round_trips() - before);
        let owners = owners_by_item(&trips, keys.len());
        let mut fell_through = 0;
        for (i, (key, owners)) in keys.iter().zip(owners).enumerate() {
            assert_eq!(values[i], Some(i as u64), "{key}");
            let route = d.route(key);
            if route[0] == MetaNodeId(2) {
                // The dead primary costs no trip; the next replica serves.
                assert_eq!(owners, vec![route[1]], "{key}");
                fell_through += 1;
            } else {
                assert_eq!(owners, vec![route[0]], "{key}");
            }
        }
        assert!(fell_through > 0, "no key had the failed node as primary");
    }

    #[test]
    fn batch_get_falls_back_to_replicas_of_failed_primaries() {
        let d = dht(5, 3);
        let entries: Vec<(String, u64)> = (0..300u64).map(|i| (format!("key-{i}"), i)).collect();
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        d.put_batch(entries).unwrap();
        d.fail_node(MetaNodeId(1)).unwrap();
        d.fail_node(MetaNodeId(4)).unwrap();
        let values = d.get_batch(&keys);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, Some(i as u64), "key-{i} lost behind failed primary");
        }
    }

    #[test]
    fn batch_put_rejects_conflicts_and_all_dead_nodes() {
        let d = dht(3, 1);
        d.put("k".to_string(), 1).unwrap();
        // Conflicting value inside a batch is rejected...
        assert!(d
            .put_batch(vec![("k".to_string(), 2), ("fresh".to_string(), 9)])
            .is_err());
        // ...but the other entries of the batch still store fully.
        assert_eq!(d.get(&"fresh".to_string()), Some(9));
        // Idempotent batch re-put is fine.
        d.put_batch(vec![("k".to_string(), 1)]).unwrap();
        for i in 0..3u32 {
            d.fail_node(MetaNodeId(i)).unwrap();
        }
        assert!(matches!(
            d.put_batch(vec![("x".to_string(), 1)]),
            Err(BlobError::InsufficientProviders { .. })
        ));
    }

    #[test]
    fn immutable_puts_reject_conflicting_values() {
        let d = dht(4, 1);
        d.put("k".to_string(), 1).unwrap();
        // Idempotent re-put is fine.
        d.put("k".to_string(), 1).unwrap();
        // Conflicting value is rejected.
        assert!(d.put("k".to_string(), 2).is_err());
        assert_eq!(d.get(&"k".to_string()), Some(1));
    }

    #[test]
    fn keys_spread_over_nodes() {
        let d = dht(8, 1);
        for i in 0..2_000u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        let dist = d.load_distribution();
        assert_eq!(dist.len(), 8);
        let total: usize = dist.values().sum();
        assert_eq!(total, 2_000);
        // Every node should hold a non-trivial share (load balance).
        for (&id, &count) in &dist {
            assert!(count > 50, "node {id} only holds {count} of 2000 keys");
        }
    }

    #[test]
    fn replicated_get_survives_primary_failure() {
        let d = dht(5, 3);
        for i in 0..200u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        // Fail two arbitrary nodes: with replication 3 every key still has a
        // live replica.
        d.fail_node(MetaNodeId(0)).unwrap();
        d.fail_node(MetaNodeId(3)).unwrap();
        for i in 0..200u64 {
            assert_eq!(d.get(&format!("key-{i}")), Some(i), "key-{i} lost");
        }
        d.recover_node(MetaNodeId(0)).unwrap();
        d.recover_node(MetaNodeId(3)).unwrap();
    }

    #[test]
    fn unreplicated_put_fails_when_all_replicas_down() {
        let d = dht(1, 1);
        d.fail_node(MetaNodeId(0)).unwrap();
        assert!(matches!(
            d.put("k".to_string(), 1),
            Err(BlobError::InsufficientProviders { .. })
        ));
    }

    #[test]
    fn join_rebalances_and_keeps_all_keys_readable() {
        let d = dht(3, 2);
        for i in 0..500u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        d.join(MetaNodeId(100)).unwrap();
        assert_eq!(d.node_count(), 4);
        for i in 0..500u64 {
            assert_eq!(d.get(&format!("key-{i}")), Some(i));
        }
        // The new node picked up a share of the keys.
        let dist = d.load_distribution();
        assert!(dist[&MetaNodeId(100)] > 0);
    }

    #[test]
    fn leave_preserves_all_keys() {
        let d = dht(4, 2);
        for i in 0..500u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        d.leave(MetaNodeId(2)).unwrap();
        assert_eq!(d.node_count(), 3);
        for i in 0..500u64 {
            assert_eq!(
                d.get(&format!("key-{i}")),
                Some(i),
                "key-{i} lost after leave"
            );
        }
    }

    #[test]
    fn join_of_existing_node_is_rejected() {
        let d = dht(2, 1);
        assert!(d.join(MetaNodeId(0)).is_err());
    }

    #[test]
    fn route_is_deterministic_and_distinct() {
        let d = dht(6, 3);
        let a = d.route(&"some key".to_string());
        let b = d.route(&"some key".to_string());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "replicas must be distinct nodes");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Dht::<String, u64>::new(0, 8, 1).is_err());
        assert!(Dht::<String, u64>::new(4, 0, 1).is_err());
        assert!(Dht::<String, u64>::new(4, 8, 0).is_err());
        assert!(Dht::<String, u64>::new(4, 8, 5).is_err());
    }

    #[test]
    fn rebalance_restores_replication_after_an_outage() {
        let d = dht(4, 2);
        // Write while node 0 is down: every key routed to it is stored on
        // fewer live replicas than configured.
        d.fail_node(MetaNodeId(0)).unwrap();
        for i in 0..300u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        d.recover_node(MetaNodeId(0)).unwrap();
        assert_eq!(
            d.load_distribution()[&MetaNodeId(0)],
            0,
            "the recovered node comes back empty"
        );

        // Anti-entropy pass: the recovered node picks its share back up...
        d.rebalance();
        assert!(d.load_distribution()[&MetaNodeId(0)] > 0);
        // ...so keys survive losing the replica that covered the outage.
        for other in 1..4u32 {
            d.fail_node(MetaNodeId(other)).unwrap();
        }
        let served_by_zero = (0..300u64)
            .filter(|i| d.get(&format!("key-{i}")) == Some(*i))
            .count();
        assert!(
            served_by_zero > 0,
            "node 0 must serve its share alone after rebalance"
        );
        for other in 1..4u32 {
            d.recover_node(MetaNodeId(other)).unwrap();
        }
        for i in 0..300u64 {
            assert_eq!(d.get(&format!("key-{i}")), Some(i));
        }
    }

    #[test]
    fn join_leave_churn_preserves_every_key() {
        let d = dht(3, 2);
        for i in 0..400u64 {
            d.put(format!("key-{i}"), i).unwrap();
        }
        // Membership churn: two joins, two leaves (one of them a founding
        // member), with full availability throughout.
        d.join(MetaNodeId(50)).unwrap();
        d.join(MetaNodeId(51)).unwrap();
        d.leave(MetaNodeId(1)).unwrap();
        d.leave(MetaNodeId(50)).unwrap();
        assert_eq!(d.node_count(), 3);
        for i in 0..400u64 {
            assert_eq!(d.get(&format!("key-{i}")), Some(i), "key-{i} lost in churn");
        }
        // New writes land on the post-churn membership.
        d.put("fresh".to_string(), 9).unwrap();
        assert_eq!(d.get(&"fresh".to_string()), Some(9));
    }

    #[test]
    fn leave_of_unknown_or_last_node_is_rejected() {
        let d = dht(1, 1);
        assert!(d.leave(MetaNodeId(7)).is_err());
        d.put("k".to_string(), 1).unwrap();
        assert!(
            d.leave(MetaNodeId(0)).is_err(),
            "cannot remove the last node"
        );
        // The rejected leave must not have torn the node down.
        assert_eq!(d.node_count(), 1);
        assert_eq!(d.get(&"k".to_string()), Some(1));
    }

    #[test]
    fn stats_count_operations() {
        let d = dht(2, 1);
        d.put("a".to_string(), 1).unwrap();
        d.put("b".to_string(), 2).unwrap();
        let _ = d.get(&"a".to_string());
        let stats = d.stats();
        let puts: u64 = stats.values().map(|s| s.puts).sum();
        let gets: u64 = stats.values().map(|s| s.gets).sum();
        assert_eq!(puts, 2);
        assert!(gets >= 1);
    }
}
