//! The in-process OctopusFS cluster: a master plus workers with real
//! storage, wired together exactly as the networked deployment would be
//! (heartbeats, block reports, replication tasks), but over function calls.

use parking_lot::RwLock;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use octopus_common::{
    ClientLocation, ClusterConfig, FsError, MediaId, RackId, Result, TierId, WorkerId,
};
use octopus_master::{AutoTierConfig, Master, MigrationDecision, ReplicationTask};
use octopus_policies::TierClassifier;
use octopus_storage::{BlockStore, FileStore, Media, MemoryStore, SimStore};

use crate::client::Client;
use crate::worker::Worker;

/// How workers back their storage media.
#[derive(Debug, Clone)]
pub enum StorageMode {
    /// Every medium is heap-backed (fast; default for tests/examples).
    InMemory,
    /// Volatile tiers are heap-backed; persistent tiers are directories
    /// under the given root (`<root>/worker_<w>/media_<m>/`).
    OnDisk(PathBuf),
    /// Metadata-only stores (for harnesses that never read payloads).
    Simulated,
}

/// Shared data-plane state the [`Client`] uses to reach workers.
pub(crate) struct DataPlane {
    pub(crate) workers: Vec<Arc<Worker>>,
    pub(crate) dead: RwLock<HashSet<WorkerId>>,
}

impl DataPlane {
    pub(crate) fn worker(&self, id: WorkerId) -> Result<&Arc<Worker>> {
        if self.dead.read().contains(&id) {
            return Err(FsError::UnknownWorker(format!("{id} is down")));
        }
        self.workers.get(id.0 as usize).ok_or_else(|| FsError::UnknownWorker(id.to_string()))
    }
}

/// Builds one worker of a configuration (daemon deployments, where each
/// process hosts a single worker). Media ids follow the same global
/// assignment as [`Cluster`]/[`crate::NetCluster`], so mixed deployments agree.
pub fn build_single_worker(
    config: &ClusterConfig,
    id: WorkerId,
    mode: &StorageMode,
) -> Result<Arc<Worker>> {
    let mut all = build_workers_for(config, mode)?;
    let idx = id.0 as usize;
    if idx >= all.len() {
        return Err(FsError::Config(format!(
            "worker {id} out of range (config has {})",
            all.len()
        )));
    }
    Ok(all.swap_remove(idx))
}

/// Builds the worker set described by a configuration, assigning global
/// media ids in declaration order (worker 0's media first).
pub(crate) fn build_workers_for(
    config: &ClusterConfig,
    mode: &StorageMode,
) -> Result<Vec<Arc<Worker>>> {
    let mut workers = Vec::with_capacity(config.workers.len());
    let mut next_media = 0u32;
    for (wi, wc) in config.workers.iter().enumerate() {
        let worker_id = WorkerId(wi as u32);
        let mut media = Vec::with_capacity(wc.media.len());
        for mc in &wc.media {
            let tier_info = config.tiers.by_name(&mc.tier)?;
            let store: Arc<dyn BlockStore> = match mode {
                StorageMode::InMemory => Arc::new(MemoryStore::new(mc.capacity)),
                StorageMode::Simulated => Arc::new(SimStore::new(mc.capacity)),
                StorageMode::OnDisk(root) => {
                    if tier_info.volatile {
                        Arc::new(MemoryStore::new(mc.capacity))
                    } else {
                        let dir =
                            root.join(format!("worker_{wi}")).join(format!("media_{next_media}"));
                        Arc::new(FileStore::open(dir, mc.capacity)?)
                    }
                }
            };
            media.push(Arc::new(Media::new(
                MediaId(next_media),
                tier_info.id,
                store,
                mc.write_bps,
                mc.read_bps,
            )));
            next_media += 1;
        }
        workers.push(Arc::new(Worker::new(worker_id, RackId(wc.rack), media, wc.net_bps)));
    }
    Ok(workers)
}

/// Scans one master for replication work and executes the copy/delete
/// tasks against the shared data plane (used by [`Cluster`] and
/// [`crate::Federation`]).
pub(crate) fn execute_replication_tasks(master: &Master, plane: &DataPlane) -> Result<usize> {
    let tasks = master.replication_scan();
    let n = tasks.len();
    for task in tasks {
        match task {
            ReplicationTask::Copy { block, sources, target } => {
                let mut copied = false;
                for src in &sources {
                    let Ok(sw) = plane.worker(src.worker) else { continue };
                    let Ok(_src_io) = sw.media_io(src.media) else { continue };
                    let Ok(data) = sw.read_block(src.media, block.id) else { continue };
                    // A failing target fails this task, not the round: the
                    // abort below releases its reservation, as in
                    // `net::monitor`.
                    copied = plane
                        .worker(target.worker)
                        .and_then(|tw| {
                            let _dst_io = tw.media_io(target.media)?;
                            tw.write_block(target.media, block, &data)?;
                            master.commit_replica(block, target)
                        })
                        .is_ok();
                    break;
                }
                if !copied {
                    master.abort_replica(block, target);
                }
            }
            ReplicationTask::Delete { block, location } => {
                // Same contract as the networked monitor: the scan already
                // dropped the location, so a failed delete must reinstate
                // the replica or the bytes leak until the next block report.
                let deleted = plane
                    .worker(location.worker)
                    .and_then(|w| w.delete_block(location.media, block.id))
                    .is_ok();
                if !deleted {
                    master.reinstate_replica(block, location);
                }
            }
        }
    }
    Ok(n)
}

/// A running in-process cluster.
pub struct Cluster {
    master: Arc<Master>,
    plane: Arc<DataPlane>,
    clock_ms: AtomicU64,
}

impl Cluster {
    /// Starts a cluster with in-memory storage.
    pub fn start(config: ClusterConfig) -> Result<Self> {
        Self::start_with_mode(config, StorageMode::InMemory)
    }

    /// Starts a cluster with the chosen storage mode. Workers register and
    /// send their first heartbeats before this returns, so the cluster is
    /// immediately usable.
    pub fn start_with_mode(config: ClusterConfig, mode: StorageMode) -> Result<Self> {
        Self::start_with_log(config, mode, octopus_master::EditLog::in_memory())
    }

    /// Starts a cluster whose master replays (and writes through to) the
    /// given edit log — the persistent-deployment path: pair it with
    /// [`StorageMode::OnDisk`] and a file-backed log, send block reports,
    /// and a previous instance's namespace and data come back.
    pub fn start_with_log(
        config: ClusterConfig,
        mode: StorageMode,
        log: octopus_master::EditLog,
    ) -> Result<Self> {
        config.validate()?;
        let workers = Self::build_workers(&config, &mode)?;
        let master = Arc::new(Master::with_log(config, log)?);
        let cluster = Self {
            master,
            plane: Arc::new(DataPlane { workers, dead: RwLock::new(HashSet::new()) }),
            clock_ms: AtomicU64::new(0),
        };
        for w in &cluster.plane.workers {
            cluster.master.register_worker(w.id(), w.rack(), w.net_bps(), 0);
        }
        cluster.pump_heartbeats();
        Ok(cluster)
    }

    fn build_workers(config: &ClusterConfig, mode: &StorageMode) -> Result<Vec<Arc<Worker>>> {
        build_workers_for(config, mode)
    }

    /// The master.
    pub fn master(&self) -> &Arc<Master> {
        &self.master
    }

    /// All workers (including downed ones, for inspection).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.plane.workers
    }

    /// One worker.
    pub fn worker(&self, id: WorkerId) -> Result<&Arc<Worker>> {
        self.plane.workers.get(id.0 as usize).ok_or_else(|| FsError::UnknownWorker(id.to_string()))
    }

    /// A client at the given location.
    pub fn client(&self, location: ClientLocation) -> Client {
        Client::new(Arc::clone(&self.master), Arc::clone(&self.plane), location)
    }

    /// Logical cluster time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::Relaxed)
    }

    /// Advances the logical clock by one heartbeat interval and delivers
    /// heartbeats from every live worker.
    pub fn pump_heartbeats(&self) {
        let now = self.clock_ms.fetch_add(self.master.config().heartbeat_ms, Ordering::Relaxed)
            + self.master.config().heartbeat_ms;
        let dead = self.plane.dead.read().clone();
        for w in &self.plane.workers {
            if dead.contains(&w.id()) {
                continue;
            }
            let (stats, net_conn) = w.heartbeat_stats();
            let _ = self.master.heartbeat(w.id(), stats, net_conn, now);
        }
        self.master.tick(now);
    }

    /// Advances the logical clock without heartbeats (to let the failure
    /// detector fire). Returns workers newly declared dead.
    pub fn advance_time(&self, ms: u64) -> Vec<WorkerId> {
        let now = self.clock_ms.fetch_add(ms, Ordering::Relaxed) + ms;
        self.master.tick(now)
    }

    /// Sends full block reports from every live worker, applying any
    /// invalidations the master returns.
    pub fn send_block_reports(&self) -> Result<()> {
        let dead = self.plane.dead.read().clone();
        for w in &self.plane.workers {
            if dead.contains(&w.id()) {
                continue;
            }
            // Heartbeat first, as a networked worker does: the master only
            // trusts a report to prove replicas missing that were committed
            // before the worker's latest heartbeat.
            let (stats, net_conn) = w.heartbeat_stats();
            self.master.heartbeat(w.id(), stats, net_conn, self.now_ms())?;
            let report = w.block_report();
            let invalidate = self.master.block_report(w.id(), &report)?;
            for bid in invalidate {
                if let Ok((media, _)) = w.read_block_any(bid) {
                    let _ = w.delete_block(media, bid);
                }
            }
        }
        Ok(())
    }

    /// Takes a worker down: data-plane access fails and the master drops
    /// its replicas (as if heartbeats had stopped).
    pub fn kill_worker(&self, id: WorkerId) {
        self.plane.dead.write().insert(id);
        self.master.kill_worker(id);
    }

    /// Brings a downed worker back; its blocks re-register via a block
    /// report.
    pub fn revive_worker(&self, id: WorkerId) -> Result<()> {
        self.plane.dead.write().remove(&id);
        let w = self.worker(id)?.clone();
        self.master.register_worker(w.id(), w.rack(), w.net_bps(), self.now_ms());
        let (stats, net_conn) = w.heartbeat_stats();
        self.master.heartbeat(w.id(), stats, net_conn, self.now_ms())?;
        let report = w.block_report();
        self.master.block_report(w.id(), &report)?;
        Ok(())
    }

    /// Runs one replication round: scans for under/over-replication and
    /// executes the resulting copy/delete tasks through the workers.
    /// Returns the number of tasks executed.
    pub fn run_replication_round(&self) -> Result<usize> {
        let n = execute_replication_tasks(&self.master, &self.plane)?;
        self.pump_heartbeats();
        Ok(n)
    }

    /// The tier of a medium, resolved through the owning worker.
    pub fn tier_of(&self, worker: WorkerId, media: MediaId) -> Result<TierId> {
        self.worker(worker)?.tier_of(media)
    }

    /// Runs one balancer round (see [`Master::balancer_scan`]): executes
    /// the proposed copies, then a replication round to trim the
    /// now-over-replicated sources. Returns the number of moves made.
    pub fn run_balancer_round(&self, threshold: f64, max_moves: usize) -> Result<usize> {
        let tasks = self.master.balancer_scan(threshold, max_moves);
        let n = tasks.len();
        for task in tasks {
            if let ReplicationTask::Copy { block, sources, target } = task {
                let mut copied = false;
                for src in &sources {
                    let Ok(sw) = self.plane.worker(src.worker) else { continue };
                    let Ok(_src_io) = sw.media_io(src.media) else { continue };
                    let Ok(data) = sw.read_block(src.media, block.id) else { continue };
                    let tw = self.plane.worker(target.worker)?;
                    let _dst_io = tw.media_io(target.media)?;
                    tw.write_block(target.media, block, &data)?;
                    self.master.commit_replica(block, target)?;
                    copied = true;
                    break;
                }
                if !copied {
                    self.master.abort_replica(block, target);
                }
            }
        }
        self.pump_heartbeats();
        // Trim the over-replicated (overloaded) sources.
        self.run_replication_round()?;
        Ok(n)
    }

    /// Runs one auto-tiering round: classifies every file's temperature
    /// through `classifier`, installs the planned replication-vector
    /// edits (see [`Master::autotier_scan`]), and runs a replication
    /// round so the §5 monitor realizes the moves. Returns the planned
    /// migrations. Deterministic and unpaced — the networked
    /// [`crate::NetCluster::run_migration_round`] adds the bandwidth
    /// bound.
    pub fn run_autotier_round(
        &self,
        classifier: &dyn TierClassifier,
        cfg: &AutoTierConfig,
    ) -> Result<Vec<MigrationDecision>> {
        let decisions = self.master.autotier_scan(classifier, cfg);
        self.run_replication_round()?;
        Ok(decisions)
    }

    /// Runs one scrub round: every live worker verifies its block
    /// checksums; corrupt replicas are reported to the master and deleted
    /// locally (§5's corruption-detection path). Returns the number of
    /// corrupt replicas found. Call [`Cluster::run_replication_round`]
    /// afterwards to restore replication.
    pub fn run_scrub_round(&self) -> Result<usize> {
        let dead = self.plane.dead.read().clone();
        let mut found = 0;
        for w in &self.plane.workers {
            if dead.contains(&w.id()) {
                continue;
            }
            for (block, media) in w.scrub() {
                let tier = w.tier_of(media)?;
                self.master.report_corrupt(
                    block,
                    octopus_common::Location { worker: w.id(), media, tier },
                );
                let _ = w.delete_block(media, block);
                found += 1;
            }
        }
        Ok(found)
    }

    /// Drains a worker: no new replicas land on it and its data is
    /// re-replicated elsewhere across replication rounds. Returns once the
    /// drain is complete and the worker has been retired.
    pub fn decommission_worker(&self, id: WorkerId) -> Result<()> {
        self.master.start_decommission(id);
        // Drive replication rounds until every affected block is safe.
        for _ in 0..64 {
            self.run_replication_round()?;
            if self.master.decommission_complete(id) {
                self.master.finalize_decommission(id);
                self.plane.dead.write().insert(id);
                return Ok(());
            }
        }
        Err(FsError::Internal(format!("decommission of {id} did not converge within 64 rounds")))
    }
}
