//! The version lifecycle engine: snapshot flattening plus concurrent chunk
//! and metadata garbage collection.
//!
//! BlobSeer's versioning never mutates data or metadata, which is what makes
//! readers wait-free — and also what makes memory grow without bound: every
//! write adds tree nodes and chunks that stay referenced forever. This
//! module closes the loop for deployments that do not need every historical
//! version:
//!
//! * **Retention** — [`VersionManager::evict_versions`] caps how many
//!   published versions of a blob stay readable; evicted versions answer
//!   [`blobseer_types::BlobError::VersionRetired`] cleanly instead of
//!   serving torn reads.
//! * **Flattening** — an aged blob's latest snapshot is materialised as a
//!   *flat* version: every chunk slot gets a leaf at that version (chunks
//!   are re-referenced, never copied), published in one batched tree write.
//!   Readers of a flat snapshot address its leaves directly — one metadata
//!   batch, independent of tree depth — so aged blobs read flat.
//! * **Sweeping** — the version manager's per-range reference chains say
//!   exactly which tree nodes and chunks became unreachable once old
//!   versions were evicted; the sweeper deletes them through the ordinary
//!   service interfaces, *without holding any version-manager lock*, and
//!   never touches anything a pinned in-flight reader or writer can reach.
//!   A sweep therefore runs fully concurrently with reads: the worst it can
//!   do to a reader is defer some garbage to the next pass.
//!
//! The engine is deployment-agnostic: it drives the same [`ChunkService`]
//! and [`MetadataService`] trait objects the clients use, so the in-process
//! cluster and the networked deployment reclaim through the exact same code
//! path (the networked one via the `REMOVE_CHUNKS`/`META_DELETE` RPCs).
//!
//! The engine owns no thread. A pass is one call to
//! [`LifecycleEngine::run_once`]; a deployment that wants a cadence calls
//! it from its housekeeping tick (`Cluster::run_maintenance`, which the
//! serving daemon's maintenance loop runs).

use crate::services::{ChunkService, MetadataService};
use crate::version_manager::{CollectableSet, FlattenTicket, NodeArtifact, VersionManager};
use blobseer_meta::{
    build_flat_metadata, build_repair_metadata, publish_metadata, ReferenceChain, WriteSummary,
};
use blobseer_types::{chunk_span, BlobId, ByteRange, ChunkId, ProviderId, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters accumulated by one lifecycle engine since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Flat snapshots successfully published.
    pub flattens: u64,
    /// Flatten attempts that failed and were repaired/aborted.
    pub flatten_failures: u64,
    /// Metadata tree nodes deleted by sweeps.
    pub reclaimed_nodes: u64,
    /// Chunks reclaimed by sweeps (counted once per chunk, not per replica).
    pub reclaimed_chunks: u64,
    /// Physical bytes freed on the providers by sweeps, summed over
    /// replicas (what the data plane's memory actually got back).
    pub reclaimed_bytes: u64,
    /// Delete calls that failed (provider down, metadata plane unreachable).
    /// The affected entries are requeued with the version manager and
    /// retried by later passes — they never double-free and, since the
    /// requeue fix, never leak either.
    pub sweep_errors: u64,
    /// Nodes and chunk replicas handed back to the version manager after a
    /// failed delete, awaiting a retry by a later sweep.
    pub requeued_entries: u64,
}

/// The lifecycle engine. One per deployment, driven one pass at a time by
/// [`LifecycleEngine::run_once`] — from the cluster's maintenance tick, or
/// directly by benchmarks and tests.
pub struct LifecycleEngine {
    vm: Arc<VersionManager>,
    metadata: Arc<dyn MetadataService>,
    chunks: Arc<dyn ChunkService>,
    /// Versions to keep readable per blob (0 = retention off).
    retained_versions: usize,
    /// Flatten once this many non-flat versions piled up since the last
    /// flat snapshot (0 = flattening off).
    flatten_threshold: usize,
    flattens: AtomicU64,
    flatten_failures: AtomicU64,
    reclaimed_nodes: AtomicU64,
    reclaimed_chunks: AtomicU64,
    reclaimed_bytes: AtomicU64,
    sweep_errors: AtomicU64,
    requeued_entries: AtomicU64,
}

impl LifecycleEngine {
    /// Builds an engine over the deployment's service handles.
    #[must_use]
    pub fn new(
        vm: Arc<VersionManager>,
        metadata: Arc<dyn MetadataService>,
        chunks: Arc<dyn ChunkService>,
        retained_versions: usize,
        flatten_threshold: usize,
    ) -> Self {
        LifecycleEngine {
            vm,
            metadata,
            chunks,
            retained_versions,
            flatten_threshold,
            flattens: AtomicU64::new(0),
            flatten_failures: AtomicU64::new(0),
            reclaimed_nodes: AtomicU64::new(0),
            reclaimed_chunks: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            sweep_errors: AtomicU64::new(0),
            requeued_entries: AtomicU64::new(0),
        }
    }

    /// Runs one full lifecycle pass over every blob: flatten where due,
    /// apply retention, sweep whatever became unreachable. Per-blob and
    /// per-delete failures are counted and tolerated — a pass never gives
    /// up halfway because one provider is down.
    pub fn run_once(&self) {
        for blob in self.vm.blob_ids() {
            self.run_blob(blob);
        }
    }

    /// One lifecycle pass for a single blob.
    pub fn run_blob(&self, blob: BlobId) {
        if self.flatten_threshold > 0 {
            let due = self
                .vm
                .writes_since_flatten(blob)
                .map(|n| n >= self.flatten_threshold as u64)
                .unwrap_or(false);
            if due {
                let _ = self.flatten_now(blob);
            }
        }
        if self.retained_versions > 0 {
            let _ = self.vm.evict_versions(blob, self.retained_versions);
        }
        let _ = self.sweep(blob);
    }

    /// Flattens the blob's latest published snapshot right now, regardless
    /// of the threshold. Returns `Ok(false)` when there is nothing to do
    /// (writes in flight, empty blob, already flat — retry later).
    pub fn flatten_now(&self, blob: BlobId) -> Result<bool> {
        let Some(ticket) = self.vm.begin_flatten(blob)? else {
            return Ok(false);
        };
        let woven =
            build_flat_metadata(self.metadata.as_ref(), blob, &ticket.source, ticket.version)
                .and_then(|meta| {
                    let artifacts = NodeArtifact::from_metadata(&meta);
                    publish_metadata(self.metadata.as_ref(), meta)?;
                    Ok(artifacts)
                });
        match woven {
            Ok(artifacts) => {
                self.vm
                    .complete_write_with_artifacts(blob, ticket.version, Some(artifacts))?;
                self.flattens.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(err) => {
                // Same protocol as a dying writer: weave repair metadata
                // for the claimed (full-range) region so concurrent writers
                // that linked against the flatten version stay correct,
                // then publish the version as a no-op.
                let artifacts = self.repair_flatten(&ticket).ok();
                let _ = self
                    .vm
                    .abort_write_with_artifacts(blob, ticket.version, artifacts);
                self.flatten_failures.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    fn repair_flatten(&self, ticket: &FlattenTicket) -> Result<Vec<NodeArtifact>> {
        let chunk_size = ticket.source.chunk_size;
        let slots = chunk_span(ByteRange::new(0, ticket.source.size), chunk_size);
        let first = slots.first().expect("flatten tickets cover bytes");
        let summary = WriteSummary {
            version: ticket.version,
            written_slots: ByteRange::new(
                first.index * chunk_size,
                slots.len() as u64 * chunk_size,
            ),
            size: ticket.source.size,
            chunk_size,
        };
        // The flatten was assigned at a quiescent point: its chain is the
        // source snapshot with no pending predecessors.
        let chain = ReferenceChain {
            base: ticket.source,
            pending: Vec::new(),
        };
        let repair = build_repair_metadata(self.metadata.as_ref(), ticket.blob, &chain, &summary)?;
        let artifacts = NodeArtifact::from_metadata(&repair);
        publish_metadata(self.metadata.as_ref(), repair)?;
        Ok(artifacts)
    }

    /// Sweeps everything currently collectable for one blob: takes the
    /// unreachable node keys and chunks from the version manager (a short
    /// lock), then deletes them through the services with no lock held.
    /// Returns the number of (nodes, chunks) reclaimed.
    pub fn sweep(&self, blob: BlobId) -> Result<(u64, u64)> {
        let set = self.vm.take_collectable(blob)?;
        if set.is_empty() {
            return Ok((0, 0));
        }
        let mut failed = CollectableSet::default();
        let mut nodes = 0u64;
        match self.metadata.delete_nodes(&set.nodes) {
            Ok(deleted) => {
                nodes = deleted as u64;
                self.reclaimed_nodes.fetch_add(nodes, Ordering::Relaxed);
            }
            Err(_) => {
                // Metadata plane unreachable: hand the keys back so a later
                // pass retries the whole batch. Never fatal, never
                // double-freed — deleting a write-once node twice is a no-op.
                failed.nodes = set.nodes.clone();
                self.sweep_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Group chunk removals per provider so each provider gets one
        // batched call (one RPC on a networked transport).
        let mut per_provider: HashMap<ProviderId, Vec<ChunkId>> = HashMap::new();
        for (chunk, providers) in &set.chunks {
            for provider in providers {
                per_provider.entry(*provider).or_default().push(*chunk);
            }
        }
        let mut failed_replicas: HashMap<ChunkId, Vec<ProviderId>> = HashMap::new();
        for (provider, ids) in per_provider {
            match self.chunks.remove_chunks(provider, &ids) {
                Ok(freed) => {
                    self.reclaimed_bytes.fetch_add(freed, Ordering::Relaxed);
                }
                Err(_) => {
                    // Provider down (or killed) mid-sweep: requeue exactly
                    // the replicas it still holds, so the next pass retries
                    // them once the endpoint is back — eventual reclaim
                    // instead of a permanent leak.
                    for id in ids {
                        failed_replicas.entry(id).or_default().push(provider);
                    }
                    self.sweep_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut chunks = 0u64;
        for (chunk, _) in set.chunks {
            match failed_replicas.remove(&chunk) {
                Some(providers) => failed.chunks.push((chunk, providers)),
                None => chunks += 1,
            }
        }
        self.reclaimed_chunks.fetch_add(chunks, Ordering::Relaxed);
        if !failed.is_empty() {
            let requeued = (failed.nodes.len() + failed.chunks.len()) as u64;
            if self.vm.requeue_collectable(blob, failed).is_ok() {
                self.requeued_entries.fetch_add(requeued, Ordering::Relaxed);
            }
        }
        Ok((nodes, chunks))
    }

    /// Counters accumulated since the engine was built.
    pub fn stats(&self) -> LifecycleStats {
        LifecycleStats {
            flattens: self.flattens.load(Ordering::Relaxed),
            flatten_failures: self.flatten_failures.load(Ordering::Relaxed),
            reclaimed_nodes: self.reclaimed_nodes.load(Ordering::Relaxed),
            reclaimed_chunks: self.reclaimed_chunks.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            sweep_errors: self.sweep_errors.load(Ordering::Relaxed),
            requeued_entries: self.requeued_entries.load(Ordering::Relaxed),
        }
    }
}
