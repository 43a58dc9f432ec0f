//! The provider manager.
//!
//! The provider manager "decides which chunks are stored on which data
//! providers when writes or appends are issued by the clients". It keeps a
//! registry of providers with the chunks it has assigned to each and their
//! quality-of-service score, and answers placement requests according to a
//! configurable [`PlacementPolicy`].

use blobseer_types::{BlobError, PlacementPolicy, ProviderId, Result};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// What the manager knows about one registered provider.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderStatus {
    /// The provider's identifier.
    pub id: ProviderId,
    /// Whether the provider is believed to be alive.
    pub alive: bool,
    /// Chunk replicas the manager has assigned to this provider since it
    /// registered: the load the least-loaded policy balances.
    pub assigned_chunks: u64,
    /// Quality-of-service score in `[0, 1]`; 1 means healthy. Updated by the
    /// QoS / behaviour-modelling layer, consumed by the QoS-aware policy.
    pub qos_score: f64,
}

impl ProviderStatus {
    fn new(id: ProviderId) -> Self {
        ProviderStatus {
            id,
            alive: true,
            assigned_chunks: 0,
            qos_score: 1.0,
        }
    }
}

/// A placement request issued by a client about to write or append.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRequest {
    /// Number of chunks the write is split into.
    pub chunk_count: usize,
    /// Number of distinct providers each chunk must be stored on.
    pub replication: usize,
}

/// The provider manager service.
pub struct ProviderManager {
    inner: Mutex<ManagerInner>,
    policy: PlacementPolicy,
}

struct ManagerInner {
    providers: HashMap<ProviderId, ProviderStatus>,
    /// Registration order, used by the round-robin policy.
    order: Vec<ProviderId>,
    /// Round-robin cursor.
    cursor: usize,
    /// Deterministic RNG for the random policy (seeded so that simulator
    /// runs are reproducible).
    rng: rand::rngs::StdRng,
}

impl ProviderManager {
    /// Creates a manager with the given placement policy and no providers.
    #[must_use]
    pub fn new(policy: PlacementPolicy) -> Self {
        ProviderManager {
            inner: Mutex::new(ManagerInner {
                providers: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                rng: rand::rngs::StdRng::seed_from_u64(0xb10b_5eed),
            }),
            policy,
        }
    }

    /// Creates a manager and immediately registers providers `0..count`.
    #[must_use]
    pub fn with_providers(policy: PlacementPolicy, count: usize) -> Self {
        let mgr = ProviderManager::new(policy);
        for i in 0..count {
            mgr.register(ProviderId(i as u32));
        }
        mgr
    }

    /// The placement policy this manager applies.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Registers a provider (idempotent).
    pub fn register(&self, id: ProviderId) {
        let mut inner = self.inner.lock();
        if let std::collections::hash_map::Entry::Vacant(e) = inner.providers.entry(id) {
            e.insert(ProviderStatus::new(id));
            inner.order.push(id);
        }
    }

    /// Removes a provider permanently.
    pub fn deregister(&self, id: ProviderId) {
        let mut inner = self.inner.lock();
        inner.providers.remove(&id);
        inner.order.retain(|p| *p != id);
        if inner.cursor >= inner.order.len() {
            inner.cursor = 0;
        }
    }

    /// Marks a provider dead (placement skips it) or alive again.
    pub fn set_alive(&self, id: ProviderId, alive: bool) -> Result<()> {
        let mut inner = self.inner.lock();
        let status = inner
            .providers
            .get_mut(&id)
            .ok_or(BlobError::UnknownProvider(id))?;
        status.alive = alive;
        Ok(())
    }

    /// Updates the QoS score of a provider (from the behaviour-modelling
    /// feedback loop). Scores are clamped to `[0, 1]`.
    pub fn set_qos_score(&self, id: ProviderId, score: f64) -> Result<()> {
        let mut inner = self.inner.lock();
        let status = inner
            .providers
            .get_mut(&id)
            .ok_or(BlobError::UnknownProvider(id))?;
        status.qos_score = score.clamp(0.0, 1.0);
        Ok(())
    }

    /// The manager's view of one provider.
    pub fn status(&self, id: ProviderId) -> Option<ProviderStatus> {
        self.inner.lock().providers.get(&id).cloned()
    }

    /// All registered providers (dead or alive), in registration order.
    pub fn all_statuses(&self) -> Vec<ProviderStatus> {
        let inner = self.inner.lock();
        inner
            .order
            .iter()
            .filter_map(|id| inner.providers.get(id).cloned())
            .collect()
    }

    /// Identifiers of providers currently believed alive, in registration
    /// order.
    pub fn live_providers(&self) -> Vec<ProviderId> {
        let inner = self.inner.lock();
        inner
            .order
            .iter()
            .filter(|id| inner.providers.get(id).map(|s| s.alive).unwrap_or(false))
            .copied()
            .collect()
    }

    /// Total number of registered providers.
    pub fn provider_count(&self) -> usize {
        self.inner.lock().providers.len()
    }

    /// Answers a placement request: for each of the `chunk_count` chunks,
    /// returns the `replication` distinct providers that should store it,
    /// chosen according to the manager's policy.
    pub fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>> {
        if request.chunk_count == 0 {
            return Ok(Vec::new());
        }
        if request.replication == 0 {
            return Err(BlobError::InvalidConfig(
                "replication factor must be at least 1".into(),
            ));
        }
        let mut inner = self.inner.lock();
        let live: Vec<ProviderId> = inner
            .order
            .iter()
            .filter(|id| inner.providers.get(id).map(|s| s.alive).unwrap_or(false))
            .copied()
            .collect();
        if live.len() < request.replication {
            return Err(BlobError::InsufficientProviders {
                needed: request.replication,
                available: live.len(),
            });
        }

        // Replicas this request has placed on each provider so far: the
        // load policies balance them first, so a provider whose lifetime
        // count lags (revived or newly added) takes at most one chunk per
        // round of a request instead of every stripe of it.
        let mut placed: HashMap<ProviderId, u64> = HashMap::new();
        let mut placement = Vec::with_capacity(request.chunk_count);
        for _ in 0..request.chunk_count {
            let replicas = match self.policy {
                PlacementPolicy::RoundRobin => {
                    Self::pick_round_robin(&mut inner, &live, request.replication)
                }
                PlacementPolicy::Random => {
                    Self::pick_random(&mut inner, &live, request.replication)
                }
                PlacementPolicy::LeastLoaded => {
                    Self::pick_least_loaded(&inner, &live, &placed, request.replication)
                }
                PlacementPolicy::QosAware => {
                    Self::pick_qos_aware(&inner, &live, &placed, request.replication)
                }
            };
            for id in &replicas {
                if let Some(status) = inner.providers.get_mut(id) {
                    status.assigned_chunks += 1;
                }
                *placed.entry(*id).or_default() += 1;
            }
            placement.push(replicas);
        }
        Ok(placement)
    }

    fn pick_round_robin(
        inner: &mut ManagerInner,
        live: &[ProviderId],
        replication: usize,
    ) -> Vec<ProviderId> {
        let mut replicas = Vec::with_capacity(replication);
        let n = live.len();
        let start = inner.cursor % n;
        for k in 0..replication {
            replicas.push(live[(start + k) % n]);
        }
        inner.cursor = (start + 1) % n;
        replicas
    }

    fn pick_random(
        inner: &mut ManagerInner,
        live: &[ProviderId],
        replication: usize,
    ) -> Vec<ProviderId> {
        let mut pool: Vec<ProviderId> = live.to_vec();
        pool.shuffle(&mut inner.rng);
        pool.truncate(replication);
        pool
    }

    /// The load order of a provider: replicas this request already placed
    /// on it, then its lifetime assigned count, then its id (total and
    /// deterministic).
    fn load_key(status: &ProviderStatus, placed: &HashMap<ProviderId, u64>) -> (u64, u64, u32) {
        let this_request = placed.get(&status.id).copied().unwrap_or(0);
        (this_request, status.assigned_chunks, status.id.0)
    }

    fn pick_least_loaded(
        inner: &ManagerInner,
        live: &[ProviderId],
        placed: &HashMap<ProviderId, u64>,
        replication: usize,
    ) -> Vec<ProviderId> {
        let mut candidates: Vec<&ProviderStatus> = live
            .iter()
            .filter_map(|id| inner.providers.get(id))
            .collect();
        candidates.sort_by_key(|s| Self::load_key(s, placed));
        candidates.iter().take(replication).map(|s| s.id).collect()
    }

    fn pick_qos_aware(
        inner: &ManagerInner,
        live: &[ProviderId],
        placed: &HashMap<ProviderId, u64>,
        replication: usize,
    ) -> Vec<ProviderId> {
        let mut candidates: Vec<&ProviderStatus> = live
            .iter()
            .filter_map(|id| inner.providers.get(id))
            .collect();
        // Highest QoS score first; break ties by load.
        candidates.sort_by(|a, b| {
            b.qos_score
                .partial_cmp(&a.qos_score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(Self::load_key(a, placed).cmp(&Self::load_key(b, placed)))
        });
        candidates.iter().take(replication).map(|s| s.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(policy: PlacementPolicy, providers: usize) -> ProviderManager {
        ProviderManager::with_providers(policy, providers)
    }

    #[test]
    fn round_robin_cycles_through_providers() {
        let m = manager(PlacementPolicy::RoundRobin, 4);
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 8,
                replication: 1,
            })
            .unwrap();
        let ids: Vec<u32> = placement.iter().map(|r| r[0].0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_replicas_are_distinct_neighbours() {
        let m = manager(PlacementPolicy::RoundRobin, 4);
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 2,
                replication: 3,
            })
            .unwrap();
        for replicas in &placement {
            let mut d = replicas.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas must be distinct providers");
        }
        assert_eq!(
            placement[0],
            vec![ProviderId(0), ProviderId(1), ProviderId(2)]
        );
        assert_eq!(
            placement[1],
            vec![ProviderId(1), ProviderId(2), ProviderId(3)]
        );
    }

    #[test]
    fn random_placement_uses_every_provider_eventually() {
        let m = manager(PlacementPolicy::Random, 8);
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 200,
                replication: 2,
            })
            .unwrap();
        let mut seen: Vec<ProviderId> = placement.into_iter().flatten().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            8,
            "200 random placements should touch all 8 providers"
        );
    }

    #[test]
    fn least_loaded_prefers_empty_providers() {
        let m = manager(PlacementPolicy::LeastLoaded, 3);
        // Load providers 0 and 1 while provider 2 is down: 0, 1, 0.
        m.set_alive(ProviderId(2), false).unwrap();
        m.allocate(PlacementRequest {
            chunk_count: 3,
            replication: 1,
        })
        .unwrap();
        m.set_alive(ProviderId(2), true).unwrap();
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 1,
                replication: 2,
            })
            .unwrap();
        // Provider 2 (empty) first, then provider 1 (lighter of the loaded).
        assert_eq!(placement[0], vec![ProviderId(2), ProviderId(1)]);
        let assigned: Vec<u64> = m.all_statuses().iter().map(|s| s.assigned_chunks).collect();
        assert_eq!(assigned, vec![2, 2, 1]);
    }

    #[test]
    fn a_revived_provider_takes_one_chunk_per_round_of_a_request() {
        let m = manager(PlacementPolicy::LeastLoaded, 3);
        m.set_alive(ProviderId(2), false).unwrap();
        m.allocate(PlacementRequest {
            chunk_count: 30,
            replication: 1,
        })
        .unwrap();
        m.set_alive(ProviderId(2), true).unwrap();
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 3,
                replication: 1,
            })
            .unwrap();
        // The revived provider still comes first, but its low lifetime
        // count no longer pulls every stripe of the write onto it.
        let ids: Vec<u32> = placement.iter().map(|r| r[0].0).collect();
        assert_eq!(ids, vec![2, 0, 1]);
    }

    #[test]
    fn least_loaded_accounts_for_in_flight_chunks() {
        let m = manager(PlacementPolicy::LeastLoaded, 2);
        // Ten single-chunk allocations alternate because assigned chunks count.
        let mut counts = HashMap::new();
        for _ in 0..10 {
            let p = m
                .allocate(PlacementRequest {
                    chunk_count: 1,
                    replication: 1,
                })
                .unwrap()[0][0];
            *counts.entry(p).or_insert(0u32) += 1;
        }
        assert_eq!(counts[&ProviderId(0)], 5);
        assert_eq!(counts[&ProviderId(1)], 5);
    }

    #[test]
    fn qos_aware_avoids_low_scored_providers() {
        let m = manager(PlacementPolicy::QosAware, 3);
        m.set_qos_score(ProviderId(1), 0.1).unwrap();
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 4,
                replication: 1,
            })
            .unwrap();
        for replicas in &placement {
            assert_ne!(
                replicas[0],
                ProviderId(1),
                "low-QoS provider must be avoided"
            );
        }
    }

    #[test]
    fn qos_scores_are_clamped() {
        let m = manager(PlacementPolicy::QosAware, 1);
        m.set_qos_score(ProviderId(0), 7.5).unwrap();
        assert_eq!(m.status(ProviderId(0)).unwrap().qos_score, 1.0);
        m.set_qos_score(ProviderId(0), -3.0).unwrap();
        assert_eq!(m.status(ProviderId(0)).unwrap().qos_score, 0.0);
    }

    #[test]
    fn dead_providers_are_skipped() {
        let m = manager(PlacementPolicy::RoundRobin, 3);
        m.set_alive(ProviderId(1), false).unwrap();
        let placement = m
            .allocate(PlacementRequest {
                chunk_count: 6,
                replication: 1,
            })
            .unwrap();
        for replicas in &placement {
            assert_ne!(replicas[0], ProviderId(1));
        }
        assert_eq!(m.live_providers(), vec![ProviderId(0), ProviderId(2)]);
    }

    #[test]
    fn insufficient_providers_is_reported() {
        let m = manager(PlacementPolicy::RoundRobin, 2);
        let err = m
            .allocate(PlacementRequest {
                chunk_count: 1,
                replication: 3,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            BlobError::InsufficientProviders {
                needed: 3,
                available: 2
            }
        ));
    }

    #[test]
    fn empty_request_allocates_nothing() {
        let m = manager(PlacementPolicy::RoundRobin, 2);
        assert!(m
            .allocate(PlacementRequest {
                chunk_count: 0,
                replication: 1,
            })
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_provider_operations_fail() {
        let m = manager(PlacementPolicy::RoundRobin, 1);
        assert!(m.set_alive(ProviderId(9), false).is_err());
        assert!(m.set_qos_score(ProviderId(9), 0.5).is_err());
        assert!(m.status(ProviderId(9)).is_none());
    }

    #[test]
    fn register_is_idempotent_and_deregister_removes() {
        let m = ProviderManager::new(PlacementPolicy::RoundRobin);
        m.register(ProviderId(5));
        m.register(ProviderId(5));
        assert_eq!(m.provider_count(), 1);
        m.deregister(ProviderId(5));
        assert_eq!(m.provider_count(), 0);
        assert!(m
            .allocate(PlacementRequest {
                chunk_count: 1,
                replication: 1,
            })
            .is_err());
    }
}
