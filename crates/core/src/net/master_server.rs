//! The master's RPC server: a multiplexed [`super::server::ServerCore`]
//! dispatching [`MasterRequest`]s onto an [`octopus_master::Master`].

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;

use octopus_common::metrics::Labels;
use octopus_common::trace::{self, TraceContext};
use octopus_common::wire::{Wire, WireReader};
use octopus_common::{Result, ServerConfig, WorkerId};
use octopus_master::{ClientId, Master};

use super::proto::{encode_master_result_frame, MasterRequest, MasterResponse};
use super::server::{Handler, ServerCore};

/// Server-side state: the master plus the registry of worker data-server
/// addresses (populated by `RegisterWorker`, served by `WorkerAddresses`).
pub struct MasterState {
    /// The master.
    pub master: Arc<Master>,
    /// Worker data-server addresses. Mutate through RPC registration (or
    /// [`MasterState::invalidate_resolved`] after a direct edit) so the
    /// resolution cache stays coherent.
    pub addrs: Arc<RwLock<HashMap<WorkerId, String>>>,
    /// Cached DNS resolution of `addrs`, invalidated on (re-)registration.
    /// The replication monitor calls [`MasterState::resolved_addrs`] every
    /// round; without the cache each round re-ran a resolver query per
    /// worker even though registrations change rarely.
    resolved: Mutex<Option<super::monitor::Addrs>>,
}

impl MasterState {
    /// Fresh state around a master.
    pub fn new(master: Arc<Master>) -> Self {
        Self { master, addrs: Arc::new(RwLock::new(HashMap::new())), resolved: Mutex::new(None) }
    }

    /// The registered worker addresses as socket addresses, resolving (and
    /// counting a `master_addr_resolutions_total` increment) only when the
    /// cache is cold; registration invalidates it.
    pub fn resolved_addrs(&self) -> super::monitor::Addrs {
        if let Some(cached) = self.resolved.lock().unwrap().as_ref() {
            return cached.clone();
        }
        self.master.metrics().inc("master_addr_resolutions_total", Labels::NONE);
        let mut out = HashMap::new();
        for (w, a) in self.addrs.read().iter() {
            if let Ok(mut it) = a.as_str().to_socket_addrs() {
                if let Some(sa) = it.next() {
                    out.insert(*w, sa);
                }
            }
        }
        *self.resolved.lock().unwrap() = Some(out.clone());
        out
    }

    /// Drops the cached resolution (a worker registered or an address was
    /// edited directly); the next [`MasterState::resolved_addrs`] call
    /// re-resolves.
    pub fn invalidate_resolved(&self) {
        *self.resolved.lock().unwrap() = None;
    }
}

/// A running master RPC server.
pub struct MasterServer {
    core: ServerCore,
    state: Arc<MasterState>,
}

impl MasterServer {
    /// Binds to `127.0.0.1:0` and starts serving `master`.
    pub fn spawn(master: Arc<Master>) -> Result<Self> {
        Self::spawn_on(master, "127.0.0.1:0")
    }

    /// Binds to an explicit address (daemon deployments).
    pub fn spawn_on(master: Arc<Master>, bind: impl ToSocketAddrs) -> Result<Self> {
        Self::spawn_with(master, bind, ServerConfig::default())
    }

    /// Binds with an explicit server configuration (tests tune the pool,
    /// connection caps, and idle-reap horizon).
    pub fn spawn_with(
        master: Arc<Master>,
        bind: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> Result<Self> {
        let state = Arc::new(MasterState::new(master));
        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |frame: bytes::Bytes| {
            let result = (|| {
                let (ctx, body) = trace::unwrap_envelope(&frame)?;
                let offset = frame.len() - body.len();
                let mut r = WireReader::new_shared(&frame, offset);
                let req = MasterRequest::get(&mut r)?;
                r.expect_finished()?;
                dispatch_traced(&handler_state, req, ctx)
            })();
            encode_master_result_frame(&result)
        });
        // Master requests never issue nested worker/master RPCs: all
        // dispatch is class 0.
        let core = ServerCore::spawn(bind, "octopus-master", cfg, Arc::new(|_| 0), handler)?;
        Ok(Self { core, state })
    }

    /// The server's shared state (master + worker-address registry).
    pub fn state(&self) -> &Arc<MasterState> {
        &self.state
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Stops accepting connections and severs open ones so in-flight
    /// callers fail fast.
    pub fn shutdown(&mut self) {
        self.core.shutdown();
    }
}

/// Maps one request onto the master API, recording per-request-type op
/// counts and latency into the master's registry.
pub fn dispatch(state: &MasterState, req: MasterRequest) -> Result<MasterResponse> {
    dispatch_traced(state, req, None)
}

/// [`dispatch`] continuing a propagated trace context: traced requests
/// record a `master.<Name>` span into the master's collector.
pub fn dispatch_traced(
    state: &MasterState,
    req: MasterRequest,
    ctx: Option<TraceContext>,
) -> Result<MasterResponse> {
    let mut span = ctx.map(|c| state.master.trace().child_of(format!("master.{}", req.name()), c));
    let labels = octopus_common::metrics::Labels::req(req.name());
    state.master.metrics().inc("master_requests_total", labels);
    let start = std::time::Instant::now();
    let out = dispatch_inner(state, req);
    state.master.metrics().observe_since("master_request_us", labels, start);
    if out.is_err() {
        state.master.metrics().inc("master_request_failures_total", labels);
        if let (Some(s), Err(e)) = (span.as_mut(), &out) {
            s.annotate("error", e);
        }
    }
    out
}

fn dispatch_inner(state: &MasterState, req: MasterRequest) -> Result<MasterResponse> {
    use MasterRequest as Q;
    use MasterResponse as A;
    let master = &*state.master;
    Ok(match req {
        Q::Mkdir(path) => {
            master.mkdir(&path)?;
            A::Unit
        }
        Q::CreateFile(path, rv, bs, holder) => {
            A::Status(master.create_file_as(&path, rv, bs, ClientId(holder))?)
        }
        Q::AddBlock(path, len, client, holder, excluded) => {
            let (block, pipeline) =
                master.add_block_excluding(&path, len, client, ClientId(holder), &excluded)?;
            A::Allocated(block, pipeline)
        }
        Q::AbandonBlock(path, block, holder) => {
            master.abandon_block_as(&path, block, ClientId(holder))?;
            A::Unit
        }
        Q::ReassignBlock(path, block, client, holder, excluded) => {
            let pipeline =
                master.reassign_block_as(&path, block, client, ClientId(holder), &excluded)?;
            A::Allocated(block, pipeline)
        }
        Q::CommitReplica(block, loc) => {
            master.commit_replica(block, loc)?;
            A::Unit
        }
        Q::AbortReplica(block, loc) => {
            master.abort_replica(block, loc);
            A::Unit
        }
        Q::CompleteFile(path, holder) => {
            master.complete_file_as(&path, ClientId(holder))?;
            A::Unit
        }
        Q::AppendFile(path, holder) => A::Status(master.append_file_as(&path, ClientId(holder))?),
        Q::GetBlockLocations(path, start, len, client) => {
            A::Located(master.get_file_block_locations(&path, start, len, client)?)
        }
        Q::SetReplication(path, rv) => A::Vector(master.set_replication(&path, rv)?),
        Q::Delete(path, recursive) => A::Dropped(master.delete(&path, recursive)?),
        Q::Rename(src, dst) => {
            master.rename(&src, &dst)?;
            A::Unit
        }
        Q::List(path) => A::Entries(master.list(&path)?),
        Q::Status(path) => A::Status(master.status(&path)?),
        Q::TierReports => A::Reports(master.get_storage_tier_reports()),
        Q::RegisterWorker(worker, rack, net_bps, now_ms, addr) => {
            master.register_worker(worker, rack, net_bps, now_ms);
            state.addrs.write().insert(worker, addr);
            // A (re-)registration may carry a new address: drop the DNS
            // resolution cache so the monitor sees it next round.
            state.invalidate_resolved();
            A::Unit
        }
        Q::Heartbeat(worker, media, nr_conn, now_ms, touches) => {
            master.heartbeat_with_heat(worker, media, nr_conn, now_ms, &touches)?;
            master.tick(now_ms);
            A::Unit
        }
        Q::BlockReport(worker, blocks) => A::Invalidate(master.block_report(worker, &blocks)?),
        Q::ReportCorrupt(block, loc) => {
            master.report_corrupt(block, loc);
            A::Unit
        }
        Q::EditsSince(from) => A::Edits(master.edit_records_since(from as usize).into()),
        Q::WorkerAddresses => {
            A::Addresses(state.addrs.read().iter().map(|(w, a)| (*w, a.clone())).collect())
        }
        Q::Metrics => {
            master.stamp_scrape_metrics();
            A::Metrics(master.metrics().snapshot())
        }
        Q::Trace => A::Trace(master.trace().snapshot()),
        Q::Heat(path) => A::Heat(master.file_heat(&path)?),
        Q::ExplainPlacement(block) => A::Decisions(master.explain(block)),
        Q::ClusterStatus => A::ClusterStatus(master.cluster_status(10)),
        Q::HotFiles(k) => A::HotFiles(master.hot_files(k as usize)),
        Q::Series => A::Series(master.series_points()),
        Q::Migrations(n) => A::Decisions(master.recent_migrations(n as usize)),
    })
}
