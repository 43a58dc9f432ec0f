//! The client-side chunk cache: a byte-budget, sharded LRU over immutable
//! chunk payloads.
//!
//! Versioning with immutable snapshots means a chunk, once published under a
//! [`ChunkId`], can never change — so a cached copy is correct *forever* and
//! the cache needs no invalidation protocol at all. Entries only ever leave
//! by LRU eviction when the byte budget is exceeded. The cache is consulted
//! by both read schedules before any fetch is submitted to the transfer
//! scheduler, and the write path populates it write-through, which makes
//! read-your-writes round-trip-free.
//!
//! Hits hand back the *same* [`Bytes`] the cache holds (a reference-count
//! bump, no copy); the caller slices what it needs zero-copy. Every entry
//! is charged the whole allocation it pins, so the budget bounds real
//! memory; only a payload that pins more than twice its length (a small
//! view of a large buffer) pays one bounded compaction memcpy (see
//! [`ChunkCache::insert`]).
//!
//! The map is sharded so concurrent readers sharing a client (or a future
//! node-local cache shared by many clients) do not serialise on one lock:
//! each shard owns a hash map plus an LRU order keyed by a per-shard tick.
//!
//! The discrete-event simulator (`blobseer-sim`) runs this same cache for
//! every simulated client, filled with zero payloads of the chunks' lengths
//! that pin what the real payloads pin, so its hits, misses and admission
//! decisions are the real ones.

use blobseer_types::ChunkId;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards. The per-entry admission limit
/// is derived from it: an entry larger than `budget / SHARDS` is not
/// cached.
const SHARDS: usize = 16;

/// Counters describing the cache's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Chunks inserted (fetch fills and write-through).
    pub insertions: u64,
    /// Chunks evicted to stay within the byte budget.
    pub evictions: u64,
    /// Payload bytes memcpy'd to compact zero-copy views on insert (see
    /// [`ChunkCache::insert`]): the cost of caching a chunk that was a
    /// small sub-slice of a larger buffer. Zero when every inserted payload
    /// pins at most twice its length.
    pub bytes_compacted: u64,
    /// Bytes currently charged against the budget: the allocations the
    /// held entries pin (see [`ChunkCache::insert`]).
    pub bytes: u64,
    /// Chunks currently held.
    pub entries: u64,
}

#[derive(Default)]
struct Shard {
    /// Chunk payloads plus the LRU tick of their last touch.
    entries: HashMap<ChunkId, (Bytes, u64)>,
    /// LRU order: tick of last touch → chunk. Ticks are unique per shard.
    order: BTreeMap<u64, ChunkId>,
    bytes: u64,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, id: ChunkId, old_tick: u64) {
        self.tick += 1;
        let tick = self.tick;
        self.order.remove(&old_tick);
        self.order.insert(tick, id);
        if let Some((_, t)) = self.entries.get_mut(&id) {
            *t = tick;
        }
    }
}

/// A sharded, byte-budgeted LRU cache of immutable chunk payloads.
pub struct ChunkCache {
    shards: Vec<Mutex<Shard>>,
    /// Budget of each shard (the total budget split evenly).
    shard_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bytes_compacted: AtomicU64,
}

impl ChunkCache {
    /// Creates a cache holding at most `budget_bytes` of chunk payload.
    #[must_use]
    pub fn new(budget_bytes: u64) -> Self {
        ChunkCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes.div_ceil(SHARDS as u64),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_compacted: AtomicU64::new(0),
        }
    }

    /// Whether [`ChunkCache::insert`] compacts a payload of `len` bytes
    /// that pins `pinned` bytes of allocation: when it pins more than twice
    /// its length.
    #[must_use]
    pub fn compacts(len: u64, pinned: u64) -> bool {
        pinned > 2 * len
    }

    /// Total byte budget (the per-shard budgets summed).
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.shard_budget * SHARDS as u64
    }

    fn shard(&self, id: &ChunkId) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up a chunk, refreshing its LRU position. The returned [`Bytes`]
    /// is the cached buffer itself — a reference-count bump, never a copy.
    pub fn get(&self, id: &ChunkId) -> Option<Bytes> {
        let mut shard = self.shard(id).lock();
        let Some((data, tick)) = shard.entries.get(id).map(|(d, t)| (d.clone(), *t)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        shard.touch(*id, tick);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(data)
    }

    /// Inserts a chunk payload, evicting least-recently-used entries until
    /// the shard fits its budget again. Re-inserting an existing chunk only
    /// refreshes its LRU position — immutability guarantees the payload is
    /// identical.
    ///
    /// An entry is charged the whole allocation it pins
    /// ([`Bytes::pinned_len`]), not its length: a view keeps its backing
    /// buffer alive, so charging the view's length would let a megabyte
    /// budget pin gigabytes. A payload that pins more than twice its length
    /// is *compacted* first (one memcpy, bounded by the chunk size, counted
    /// in [`ChunkCacheStats::bytes_compacted`]) and charged its length. One
    /// that pins at most twice its length — a received `PUT` payload is a
    /// view of its frame body, a few dozen header bytes longer — is cached
    /// by reference, without a copy. An entry whose charge exceeds a whole
    /// shard's budget is not cached (it would evict everything for one
    /// entry that is itself evicted next).
    pub fn insert(&self, id: ChunkId, data: Bytes) {
        let len = data.len() as u64;
        if len == 0 || len > self.shard_budget {
            return;
        }
        let mut shard = self.shard(&id).lock();
        // Duplicate insert (write-through of an already-read chunk, racing
        // fetch fills): refresh the LRU position before paying any copy.
        if let Some(&(_, tick)) = shard.entries.get(&id) {
            shard.touch(id, tick);
            return;
        }
        let data = if Self::compacts(len, data.pinned_len() as u64) {
            // Compacting under the shard lock is deliberate: the copy is
            // chunk-bounded and doing it outside would let two racing
            // inserters both pay it.
            self.bytes_compacted.fetch_add(len, Ordering::Relaxed);
            Bytes::copy_from_slice(&data)
        } else {
            data
        };
        let charge = data.pinned_len() as u64;
        if charge > self.shard_budget {
            return;
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.insert(id, (data, tick));
        shard.order.insert(tick, id);
        shard.bytes += charge;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while shard.bytes > self.shard_budget {
            let (&oldest, &victim) = shard
                .order
                .iter()
                .next()
                .expect("bytes > 0 implies entries");
            shard.order.remove(&oldest);
            let (evicted, _) = shard.entries.remove(&victim).expect("order and map agree");
            shard.bytes -= evicted.pinned_len() as u64;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops a chunk from the cache, if present. Chunk ids are never
    /// reused, so this is pure hygiene: a server-side cache evicts chunks
    /// the lifecycle sweeper reclaimed instead of letting dead entries age
    /// out of the budget.
    pub fn remove(&self, id: &ChunkId) {
        let mut shard = self.shard(id).lock();
        if let Some((data, tick)) = shard.entries.remove(id) {
            shard.order.remove(&tick);
            shard.bytes -= data.pinned_len() as u64;
        }
    }

    /// Lifetime counters plus the current occupancy.
    pub fn stats(&self) -> ChunkCacheStats {
        let mut bytes = 0;
        let mut entries = 0;
        for shard in &self.shards {
            let shard = shard.lock();
            bytes += shard.bytes;
            entries += shard.entries.len() as u64;
        }
        ChunkCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_compacted: self.bytes_compacted.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("budget_bytes", &self.budget_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::BlobId;

    fn cid(slot: u64) -> ChunkId {
        ChunkId {
            blob: BlobId(1),
            write_tag: 7,
            slot,
        }
    }

    fn payload(len: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    #[test]
    fn hits_return_the_cached_buffer_without_copying() {
        let cache = ChunkCache::new(1 << 20);
        assert!(cache.get(&cid(0)).is_none());
        cache.insert(cid(0), payload(100, 3));
        let hit = cache.get(&cid(0)).unwrap();
        assert_eq!(hit, payload(100, 3));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bytes, 100);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn eviction_respects_the_byte_budget_in_lru_order() {
        // One shard's worth of traffic: same blob/tag, slots hashed apart —
        // use a budget small enough that evictions must happen regardless of
        // shard spread.
        let cache = ChunkCache::new(SHARDS as u64 * 256);
        for slot in 0..64 {
            cache.insert(cid(slot), payload(128, slot as u8));
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "64 * 128 bytes cannot fit the budget");
        assert!(stats.bytes <= cache.budget_bytes());
        assert_eq!(stats.bytes, stats.entries * 128);
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        // Everything lands in one shard? Not guaranteed — instead verify the
        // LRU property within however entries are spread: insert two, touch
        // the first, then flood; the flooded shard evicts its oldest first.
        let cache = ChunkCache::new(SHARDS as u64 * 300);
        cache.insert(cid(0), payload(100, 1));
        cache.insert(cid(1), payload(100, 2));
        assert!(cache.get(&cid(0)).is_some()); // refresh slot 0
        for slot in 2..200 {
            cache.insert(cid(slot), payload(100, 9));
        }
        // Slot 0 was the most recently used of the first two; if its shard
        // evicted anything, slot 1 (same shard or not) is at least as likely
        // gone. The hard property: occupancy never exceeds the budget.
        assert!(cache.stats().bytes <= cache.budget_bytes());
    }

    #[test]
    fn oversized_and_empty_payloads_are_not_cached() {
        let cache = ChunkCache::new(SHARDS as u64 * 64);
        cache.insert(cid(0), payload(65, 1)); // larger than one shard budget
        cache.insert(cid(1), Bytes::new());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(&cid(0)).is_none());
    }

    #[test]
    fn views_are_compacted_so_the_budget_bounds_real_memory() {
        let cache = ChunkCache::new(1 << 20);
        // A 100-byte slice of a 1 MiB buffer: caching the view verbatim
        // would pin the whole megabyte against a 100-byte account.
        let big = payload(1 << 20, 9);
        let view = big.slice(500..600);
        assert!(!view.is_compact());
        cache.insert(cid(0), view.clone());
        let cached = cache.get(&cid(0)).unwrap();
        assert_eq!(cached, view);
        assert!(cached.is_compact(), "the cache must hold a compact copy");
        assert_eq!(cache.stats().bytes, 100);
    }

    #[test]
    fn near_whole_views_are_cached_by_reference_and_charged_what_they_pin() {
        let cache = ChunkCache::new(16 << 20);
        // A PUT payload: the 64 KiB chunk behind a 64-byte frame header.
        let body = payload((64 << 10) + 64, 5);
        let view = body.slice(64..);
        cache.insert(cid(0), view.clone());
        let cached = cache.get(&cid(0)).unwrap();
        assert_eq!(cached.as_ptr(), view.as_ptr(), "cached by reference");
        let stats = cache.stats();
        assert_eq!(stats.bytes_compacted, 0);
        assert_eq!(stats.bytes, (64 << 10) + 64, "charged the whole body");
    }

    #[test]
    fn reinsertion_refreshes_instead_of_duplicating() {
        let cache = ChunkCache::new(1 << 20);
        cache.insert(cid(0), payload(100, 1));
        cache.insert(cid(0), payload(100, 1));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 100);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn concurrent_clients_share_the_cache_safely() {
        let cache = std::sync::Arc::new(ChunkCache::new(1 << 20));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100 {
                        let id = cid(t * 100 + i);
                        cache.insert(id, payload(64, t as u8));
                        assert_eq!(cache.get(&id).unwrap(), payload(64, t as u8));
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 800);
    }
}
