//! The traced run's per-layer table. Layer time comes from two sources
//! only: the benchmark's own spans around calls into each layer, and
//! before/after deltas of the counters and histograms the program already
//! exports. Probes time a layer's public functions on the workload's own
//! inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use octopus_common::checksum::crc32;
use octopus_common::metrics::{HistogramSample, MetricsSnapshot, OwnedLabels};
use octopus_common::trace::{SpanRecord, TraceSnapshot};
use octopus_common::wire::{decode, encode, Wire, WireReader};
use octopus_common::{Block, BlockData, BlockId, ClientLocation, GenStamp, RpcConfig, TierId};
use octopus_core::net::master_server::{dispatch, MasterState};
use octopus_core::net::proto::{
    decode_result_bytes, encode_result, encode_worker_frame, encode_worker_result_frame,
    MasterRequest, MasterResponse, WorkerRequest, WorkerResponse,
};
use octopus_core::net::RpcClient;
use octopus_master::Master;
use octopus_storage::{BlockStore, MemoryStore};

use crate::gen::{preload_dir, preload_file, rf3, Class, Generator, MetaGen, Op};
use crate::stats::{median, quantile, Record};
use crate::workload::{Prepared, Scale, Workload};

const MIB: f64 = 1048576.0;

/// The master requests the workloads send, with their `master_meta_op_us`
/// op labels.
pub const MASTER_OPS: [(&str, &str); 9] = [
    ("CreateFile", "create"),
    ("CompleteFile", "complete"),
    ("AddBlock", "add_block"),
    ("GetBlockLocations", "get_block_locations"),
    ("Status", "stat"),
    ("List", "list"),
    ("Rename", "rename"),
    ("Delete", "delete"),
    ("Mkdir", "mkdir"),
];

const TIERS: [&str; 3] = ["mem", "ssd", "hdd"];

/// Every per-layer metric name, with its unit, in report order.
pub fn metric_units() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("client.self_us_per_op".into(), "us"),
        ("client.rpcs_per_op".into(), "count"),
        ("client.recoveries".into(), "count"),
        ("client.checksum_ms_per_mib".into(), "ms/MiB"),
        ("checksum.mib_s".into(), "MiB/s"),
        ("wire.encode_ms_per_mib".into(), "ms/MiB"),
        ("wire.decode_ms_per_mib".into(), "ms/MiB"),
        ("wire.meta_encode_ns".into(), "ns"),
        ("wire.meta_decode_ns".into(), "ns"),
        ("wire.bytes_per_payload_byte".into(), "ratio"),
        ("rpc.null_rtt_us_p50".into(), "us"),
        ("rpc.null_rtt_us_p99".into(), "us"),
    ];
    for (req, _) in MASTER_OPS {
        v.push((format!("rpc.overhead_us.{req}"), "us"));
    }
    v.push(("rpc.overhead_us.WriteBlock".into(), "us"));
    v.push(("rpc.overhead_us.ReadBlock".into(), "us"));
    for m in ["rpc.retries", "rpc.timeouts", "rpc.failures"] {
        v.push((m.into(), "count"));
    }
    for (req, _) in MASTER_OPS {
        v.push((format!("master.op_us.{req}"), "us"));
    }
    for (req, _) in MASTER_OPS {
        v.push((format!("master.op_p99_us.{req}"), "us"));
    }
    for m in [
        "master.lock_wait_share",
        "master.work_share",
        "master.log_share",
        "master.contended_ratio",
    ] {
        v.push((m.into(), "ratio"));
    }
    v.push(("master.inproc_ops_s".into(), "1/s"));
    for kind in ["replica_share", "read_share"] {
        for t in TIERS {
            v.push((format!("policies.{kind}.{t}"), "ratio"));
        }
    }
    v.push(("worker.request_us.WriteBlock".into(), "us"));
    v.push(("worker.request_us.ReadBlock".into(), "us"));
    for kind in ["store_us_per_mib", "read_us_per_mib"] {
        for t in TIERS {
            v.push((format!("worker.{kind}.{t}"), "us/MiB"));
        }
    }
    v.push(("worker.forward_us".into(), "us"));
    v.push(("worker.pacing_share".into(), "ratio"));
    v.push(("storage.put_mib_s".into(), "MiB/s"));
    v.push(("storage.get_mib_s".into(), "MiB/s"));
    v.push(("storage.bytes_per_user_byte".into(), "ratio"));
    v.push(("host.cpu_util".into(), "ratio"));
    v.push(("host.cpu_ms_per_mib".into(), "ms/MiB"));
    v.push(("host.cpu_us_per_op".into(), "us"));
    v.push(("trace.overhead".into(), "ratio"));
    v.push(("trace.attribution".into(), "ratio"));
    v
}

/// Before/after scrapes around the traced window.
pub struct Scrapes {
    /// `NetCluster::metrics_snapshot`: master, workers and the shared
    /// server-side RPC client (pipeline forwards, commits).
    pub cluster: (MetricsSnapshot, MetricsSnapshot),
    /// The benchmark clients' own `RemoteFs::metrics_snapshot`s, merged.
    pub clients: (MetricsSnapshot, MetricsSnapshot),
}

pub fn client_snapshot(p: &Prepared) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    for c in &p.clients {
        s.merge(c.metrics_snapshot());
    }
    s
}

/// Counter and histogram deltas over one pair of snapshots.
struct Delta<'a>(&'a MetricsSnapshot, &'a MetricsSnapshot);

impl Delta<'_> {
    fn counter(&self, name: &str, pred: impl Fn(&OwnedLabels) -> bool) -> f64 {
        let a = self.1.counter_where(name, &pred);
        let b = self.0.counter_where(name, &pred);
        a.saturating_sub(b) as f64
    }

    /// The merged delta histogram of every label set `pred` accepts.
    fn hist(&self, name: &str, pred: impl Fn(&OwnedLabels) -> bool) -> HistogramSample {
        let sum = |s: &MetricsSnapshot| {
            let mut out: Option<HistogramSample> = None;
            for h in s.histograms.iter().filter(|h| h.name == name && pred(&h.labels)) {
                match &mut out {
                    None => out = Some(h.clone()),
                    Some(o) => {
                        for (x, y) in o.buckets.iter_mut().zip(&h.buckets) {
                            *x += y;
                        }
                        o.sum += h.sum;
                        o.count += h.count;
                    }
                }
            }
            out
        };
        let Some(mut a) = sum(self.1) else {
            return HistogramSample {
                name: name.into(),
                labels: OwnedLabels::default(),
                buckets: Vec::new(),
                sum: 0,
                count: 0,
            };
        };
        if let Some(b) = sum(self.0) {
            for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                *x = x.saturating_sub(*y);
            }
            a.sum = a.sum.saturating_sub(b.sum);
            a.count = a.count.saturating_sub(b.count);
        }
        a
    }

    fn mean(&self, name: &str, pred: impl Fn(&OwnedLabels) -> bool) -> (f64, f64) {
        let h = self.hist(name, pred);
        (h.sum as f64, h.count as f64)
    }
}

fn req(r: &'static str) -> impl Fn(&OwnedLabels) -> bool {
    move |l: &OwnedLabels| l.request_type.as_deref() == Some(r)
}

fn op(o: &'static str) -> impl Fn(&OwnedLabels) -> bool {
    move |l: &OwnedLabels| l.op.as_deref() == Some(o)
}

fn tier(t: usize) -> impl Fn(&OwnedLabels) -> bool {
    move |l: &OwnedLabels| l.tier == Some(TierId(t as u8))
}

fn any(_: &OwnedLabels) -> bool {
    true
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Which layer a critical-path segment belongs to, by span name. `None`
/// marks time no program span explains: the benchmark root's own time
/// and the gaps inside the client's top-level read/write spans.
fn layer_of(segment: &str) -> Option<&'static str> {
    let unexplained = segment.starts_with("bench.")
        || segment == "client.read_file (self)"
        || segment == "client.write_file (self)";
    if unexplained {
        return None;
    }
    Some(match segment.split('.').next().unwrap_or("") {
        "client" if segment.starts_with("client.checksum") => "checksum",
        "client" => "client",
        "rpc" => "rpc",
        "master" => "master",
        "worker" => "worker",
        _ => "other",
    })
}

/// Critical-path totals over every traced benchmark call.
#[derive(Debug, Default)]
pub struct PathTotals {
    pub calls: usize,
    pub total_us: f64,
    pub by_layer: BTreeMap<&'static str, f64>,
    pub unexplained_us: f64,
}

pub fn critical_paths(spans: &[SpanRecord]) -> PathTotals {
    let snap = TraceSnapshot { spans: spans.to_vec() };
    let mut t = PathTotals::default();
    for tr in snap.traces() {
        if !tr.root().name.starts_with("bench.") {
            continue;
        }
        let cp = tr.critical_path();
        t.calls += 1;
        t.total_us += cp.total_us as f64;
        for s in &cp.segments {
            let d = s.dur_us as f64;
            match layer_of(&s.name) {
                None => t.unexplained_us += d,
                Some(l) => *t.by_layer.entry(l).or_default() += d,
            }
        }
    }
    t
}

/// Probe results: layer functions timed on the workload's own inputs.
#[derive(Debug, Default)]
pub struct Probes {
    pub crc_mib_s: f64,
    pub wire_encode_ms_per_mib: f64,
    pub wire_decode_ms_per_mib: f64,
    pub wire_bytes_per_payload_byte: f64,
    pub meta_encode_ns: f64,
    pub meta_decode_ns: f64,
    pub null_rtt_p50: f64,
    pub null_rtt_p99: f64,
    pub inproc_ops_s: f64,
    pub put_mib_s: f64,
    pub get_mib_s: f64,
}

/// Runs `f` at least once and until `min_s` seconds have passed; returns
/// (elapsed seconds, rounds).
fn timed_rounds(min_s: f64, mut f: impl FnMut()) -> (f64, usize) {
    let t = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || t.elapsed().as_secs_f64() < min_s {
        f();
        rounds += 1;
    }
    (t.elapsed().as_secs_f64(), rounds)
}

/// The workload's blocks: its payloads cut at the cluster block size.
fn blocks_of(p: &Prepared) -> Vec<Bytes> {
    let bs = p.config.block_size as usize;
    p.pool
        .items
        .iter()
        .flat_map(|b| {
            (0..b.len()).step_by(bs.max(1)).map(move |o| b.slice(o..(o + bs).min(b.len())))
        })
        .filter(|b| !b.is_empty())
        .take(64)
        .collect()
}

pub fn run_probes(p: &Prepared, scale: &Scale, seed: u64) -> Probes {
    let mut out = Probes::default();
    let blocks = blocks_of(p);
    let mib: f64 = blocks.iter().map(|b| b.len() as f64).sum::<f64>() / MIB;

    // checksum: crc32 over the workload's blocks.
    let (s, r) = timed_rounds(0.3, || {
        for b in &blocks {
            black_box(crc32(black_box(b)));
        }
    });
    out.crc_mib_s = mib * r as f64 / s;

    // wire: the data-path messages carrying the workload's blocks.
    let reqs: Vec<WorkerRequest> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            WorkerRequest::WriteBlock(
                Block { id: BlockId(i as u64), gen: GenStamp(1), len: b.len() as u64 },
                octopus_common::MediaId(0),
                Vec::new(),
                BlockData::Real(b.clone()),
            )
        })
        .collect();
    let resps: Vec<octopus_common::Result<WorkerResponse>> = blocks
        .iter()
        .map(|b| Ok(WorkerResponse::Data(BlockData::Real(b.clone()), crc32(b))))
        .collect();
    let (s, r) = timed_rounds(0.2, || {
        for q in &reqs {
            black_box(encode_worker_frame(black_box(q)));
        }
        for a in &resps {
            black_box(encode_worker_result_frame(black_box(a)));
        }
    });
    out.wire_encode_ms_per_mib = s * 1e3 / (r as f64 * 2.0 * mib);
    let req_frames: Vec<Bytes> =
        reqs.iter().map(|q| Bytes::from(encode_worker_frame(q).concat())).collect();
    let resp_frames: Vec<Bytes> =
        resps.iter().map(|a| Bytes::from(encode_worker_result_frame(a).concat())).collect();
    let (s, r) = timed_rounds(0.2, || {
        for f in &req_frames {
            let mut rd = WireReader::new_shared(f, 0);
            black_box(WorkerRequest::get(&mut rd).expect("probe frame decodes"));
        }
        for f in &resp_frames {
            black_box(decode_result_bytes::<WorkerResponse>(f).expect("probe frame decodes"));
        }
    });
    out.wire_decode_ms_per_mib = s * 1e3 / (r as f64 * 2.0 * mib);
    // Mux framing adds `[u32 len][u64 id]` to every message.
    let framed: usize = req_frames.iter().chain(&resp_frames).map(|f| f.len() + 12).sum();
    out.wire_bytes_per_payload_byte = framed as f64 / (2.0 * mib * MIB);

    // storage: MemoryStore put/get of the workload's blocks.
    let (mut put_s, mut get_s, mut rounds) = (0.0, 0.0, 0usize);
    while put_s + get_s < 0.3 || rounds == 0 {
        let store = MemoryStore::new(u64::MAX);
        let t = Instant::now();
        for (i, b) in blocks.iter().enumerate() {
            let blk = Block { id: BlockId(i as u64), gen: GenStamp(1), len: b.len() as u64 };
            store.put(blk, &BlockData::Real(b.clone())).expect("probe store has room");
        }
        put_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for i in 0..blocks.len() {
            black_box(store.get(BlockId(i as u64)).expect("probe block present"));
        }
        get_s += t.elapsed().as_secs_f64();
        rounds += 1;
    }
    out.put_mib_s = mib * rounds as f64 / put_s;
    out.get_mib_s = mib * rounds as f64 / get_s;

    // rpc: the cheapest master request over the wire, minus in-process.
    let state = MasterState::new(Arc::clone(p.cluster.master()));
    let status_root = || MasterRequest::Status("/".into());
    let mut local = Vec::new();
    for _ in 0..2000 {
        let t = Instant::now();
        black_box(dispatch(&state, status_root()).expect("status / succeeds"));
        local.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let rpc = RpcClient::new(RpcConfig::default());
    let addr = p.cluster.master_addr();
    let mut remote = Vec::new();
    for i in 0..2200 {
        let t = Instant::now();
        black_box(rpc.call_master(addr, &status_root()).expect("status / succeeds"));
        if i >= 200 {
            remote.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let base = median(&local);
    let mut d: Vec<f64> = remote.iter().map(|r| r - base).collect();
    d.sort_by(f64::total_cmp);
    out.null_rtt_p50 = quantile(&d, 0.5);
    out.null_rtt_p99 = quantile(&d, 0.99);

    // master: the meta_churn stream replayed through the master's own
    // dispatch on a fresh, identically preloaded in-process master; the
    // replies are the metadata messages the wire probe encodes.
    let (ops_s, pairs) = replay_meta(scale, seed);
    out.inproc_ops_s = ops_s;
    let (s, r) = timed_rounds(0.2, || {
        for (q, a) in &pairs {
            black_box(encode(black_box(q)));
            black_box(encode_result(black_box(a)));
        }
    });
    out.meta_encode_ns = s * 1e9 / (r * pairs.len() * 2) as f64;
    let encoded: Vec<(Vec<u8>, Bytes)> =
        pairs.iter().map(|(q, a)| (encode(q), Bytes::from(encode_result(a)))).collect();
    let (s, r) = timed_rounds(0.2, || {
        for (q, a) in &encoded {
            black_box(decode::<MasterRequest>(q).expect("probe request decodes"));
            let _ = black_box(decode_result_bytes::<MasterResponse>(a));
        }
    });
    out.meta_decode_ns = s * 1e9 / (r * encoded.len() * 2) as f64;
    out
}

/// Replays the first `n` namespace ops of both `meta_churn` client
/// streams (interleaved) through `dispatch` on an in-process master.
fn replay_meta(
    scale: &Scale,
    seed: u64,
) -> (f64, Vec<(MasterRequest, octopus_common::Result<MasterResponse>)>) {
    const N: usize = 40_000;
    let shape = scale.meta;
    let cfg = octopus_common::ClusterConfig::test_cluster(
        4,
        1024 * octopus_common::MB,
        octopus_common::MB,
    );
    let master = Arc::new(Master::new(cfg).expect("test_cluster config is valid"));
    for d in 0..shape.dirs {
        master.mkdir(&preload_dir(d)).expect("preload mkdir");
        for f in 0..shape.files_per_dir {
            let p = preload_file(d, f);
            master.create_file(&p, rf3(), None).expect("preload create");
            master.complete_file(&p).expect("preload complete");
        }
    }
    let clients = Workload::MetaChurn.clients();
    for c in 0..clients {
        master.mkdir(&format!("/meta/c{c}")).expect("client dir");
    }
    let mut gens: Vec<MetaGen> =
        (0..clients).map(|c| MetaGen::new(seed, c, clients, shape, 1)).collect();
    let mut reqs = Vec::with_capacity(N);
    'fill: loop {
        for g in &mut gens {
            if let Some(r) = as_master_request(&g.next_op()) {
                reqs.extend(r);
            }
            if reqs.len() >= N {
                break 'fill;
            }
        }
    }
    let state = MasterState::new(master);
    let mut pairs = Vec::with_capacity(reqs.len());
    let t = Instant::now();
    for q in reqs {
        let a = dispatch(&state, q.clone());
        pairs.push((q, a));
    }
    let ops_s = pairs.len() as f64 / t.elapsed().as_secs_f64();
    pairs.truncate(4000);
    (ops_s, pairs)
}

/// The master requests a namespace op sends (`create` is create +
/// complete); data ops are skipped.
fn as_master_request(op: &Op) -> Option<Vec<MasterRequest>> {
    const HOLDER: u64 = 1 << 40;
    Some(match op {
        Op::Mkdir { path } => vec![MasterRequest::Mkdir(path.clone())],
        Op::Create { path, rv } => vec![
            MasterRequest::CreateFile(path.clone(), *rv, None, HOLDER),
            MasterRequest::CompleteFile(path.clone(), HOLDER),
        ],
        Op::Open { path, .. } => vec![MasterRequest::GetBlockLocations(
            path.clone(),
            0,
            u64::MAX,
            ClientLocation::OffCluster,
        )],
        Op::List { path, .. } => vec![MasterRequest::List(path.clone())],
        Op::Rename { src, dst } => vec![MasterRequest::Rename(src.clone(), dst.clone())],
        Op::Delete { path } => vec![MasterRequest::Delete(path.clone(), false)],
        Op::Status { path, .. } => vec![MasterRequest::Status(path.clone())],
        Op::Write { .. } | Op::Read { .. } => return None,
    })
}

/// Everything the per-layer table is computed from.
pub struct LayerInputs<'a> {
    pub p: &'a Prepared,
    pub scrapes: &'a Scrapes,
    pub traced: &'a Record,
    pub traced_wall_s: f64,
    pub untraced: &'a Record,
    pub spans: &'a [SpanRecord],
    pub paths: &'a PathTotals,
    pub cpu_s: f64,
    pub nproc: usize,
    pub probes: &'a Probes,
}

pub fn compute(i: &LayerInputs) -> Vec<(String, f64)> {
    let cl = Delta(&i.scrapes.clients.0, &i.scrapes.clients.1);
    let cs = Delta(&i.scrapes.cluster.0, &i.scrapes.cluster.1);
    let ops = i.traced.completed() as f64;
    let read_bytes = i.traced.bytes(Class::Read) as f64;
    let written_bytes = i.traced.bytes(Class::Write) as f64;
    let user_bytes = read_bytes + written_bytes;
    let paths = i.paths;
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));

    // Client-side time on the critical path: the benchmark span's and the
    // client spans' own time, i.e. the call minus the RPCs and checksums
    // it waited on.
    let client_us = paths.unexplained_us + paths.by_layer.get("client").copied().unwrap_or(0.0);
    put("client.self_us_per_op", ratio(client_us, paths.calls as f64));
    put("client.rpcs_per_op", ratio(cl.counter("rpc_client_requests_total", any), ops));
    let recoveries = [
        "client_pipeline_recoveries_total",
        "client_checksum_failovers_total",
        "client_replica_failovers_total",
    ]
    .iter()
    .map(|n| cl.counter(n, any))
    .sum();
    put("client.recoveries", recoveries);
    let checksum_us: f64 =
        i.spans.iter().filter(|s| s.name == "client.checksum").map(|s| s.dur_us as f64).sum();
    put("client.checksum_ms_per_mib", ratio(checksum_us / 1e3, read_bytes / MIB));
    put("checksum.mib_s", i.probes.crc_mib_s);
    put("wire.encode_ms_per_mib", i.probes.wire_encode_ms_per_mib);
    put("wire.decode_ms_per_mib", i.probes.wire_decode_ms_per_mib);
    put("wire.meta_encode_ns", i.probes.meta_encode_ns);
    put("wire.meta_decode_ns", i.probes.meta_decode_ns);
    put("wire.bytes_per_payload_byte", i.probes.wire_bytes_per_payload_byte);
    put("rpc.null_rtt_us_p50", i.probes.null_rtt_p50);
    put("rpc.null_rtt_us_p99", i.probes.null_rtt_p99);
    for (name, _) in MASTER_OPS {
        let (c_sum, c_n) = cl.mean("rpc_client_request_us", req(name));
        let (s_sum, s_n) = cs.mean("master_request_us", req(name));
        put(&format!("rpc.overhead_us.{name}"), ratio(c_sum, c_n) - ratio(s_sum, s_n));
    }
    // A pipelined write is one client call plus a forward per extra hop;
    // every hop's server time is nested in its caller's client time, so
    // the sums telescope to the transport cost of all hops.
    let (wc, wn) = cl.mean("rpc_client_request_us", req("WriteBlock"));
    let (fc, fn_) = cs.mean("rpc_client_request_us", req("WriteBlock"));
    let (ws, _) = cs.mean("worker_request_us", req("WriteBlock"));
    put("rpc.overhead_us.WriteBlock", ratio(wc + fc - ws, wn + fn_));
    let (rc, rn) = cl.mean("rpc_client_request_us", req("ReadBlock"));
    let (rs, _) = cs.mean("worker_request_us", req("ReadBlock"));
    put("rpc.overhead_us.ReadBlock", ratio(rc - rs, rn));
    for (metric, series) in [
        ("rpc.retries", "rpc_client_retries_total"),
        ("rpc.timeouts", "rpc_client_timeouts_total"),
        ("rpc.failures", "rpc_client_failures_total"),
    ] {
        put(metric, cl.counter(series, any) + cs.counter(series, any));
    }
    for (name, label) in MASTER_OPS {
        let (s, n) = cs.mean("master_meta_op_us", op(label));
        put(&format!("master.op_us.{name}"), ratio(s, n));
    }
    for (name, label) in MASTER_OPS {
        let h = cs.hist("master_meta_op_us", op(label));
        put(&format!("master.op_p99_us.{name}"), h.quantile_us(0.99) as f64);
    }
    let (total, _) = cs.mean("master_meta_op_us", any);
    for (metric, series) in [
        ("master.lock_wait_share", "master_meta_op_lock_wait_us"),
        ("master.work_share", "master_meta_op_work_us"),
        ("master.log_share", "master_meta_op_log_us"),
    ] {
        put(metric, ratio(cs.mean(series, any).0, total));
    }
    let master_lock = |l: &OwnedLabels| l.op.as_deref().is_some_and(|o| o.starts_with("master."));
    put(
        "master.contended_ratio",
        ratio(
            cs.counter("lock_contended_total", master_lock),
            cs.counter("lock_acquire_total", master_lock),
        ),
    );
    put("master.inproc_ops_s", i.probes.inproc_ops_s);
    for (kind, series) in
        [("replica_share", "worker_write_bytes_total"), ("read_share", "worker_read_bytes_total")]
    {
        let all = cs.counter(series, any);
        for (t, name) in TIERS.iter().enumerate() {
            put(&format!("policies.{kind}.{name}"), ratio(cs.counter(series, tier(t)), all));
        }
    }
    for r in ["WriteBlock", "ReadBlock"] {
        let (s, n) = cs.mean("worker_request_us", req(r));
        put(&format!("worker.request_us.{r}"), ratio(s, n));
    }
    for (kind, hist, bytes) in [
        ("store_us_per_mib", "worker_write_us", "worker_write_bytes_total"),
        ("read_us_per_mib", "worker_read_us", "worker_read_bytes_total"),
    ] {
        for (t, name) in TIERS.iter().enumerate() {
            let us = cs.mean(hist, tier(t)).0;
            put(&format!("worker.{kind}.{name}"), ratio(us, cs.counter(bytes, tier(t)) / MIB));
        }
    }
    let (fwd_sum, fwd_n) = cs.mean("worker_pipeline_forward_us", any);
    put("worker.forward_us", ratio(fwd_sum, fwd_n));
    // Paced seconds (bytes over the tier's device rate) over the workers'
    // own request time (request time minus the forwards nested in it).
    let paced_s = if i.p.config.emulate_media_bps {
        let media = &i.p.config.workers[0].media;
        (0..TIERS.len())
            .map(|t| {
                cs.counter("worker_write_bytes_total", tier(t)) / media[t].write_bps
                    + cs.counter("worker_read_bytes_total", tier(t)) / media[t].read_bps
            })
            .sum()
    } else {
        0.0
    };
    let own_us = ws + rs - fwd_sum;
    put("worker.pacing_share", ratio(paced_s * 1e6, own_us));
    put("storage.put_mib_s", i.probes.put_mib_s);
    put("storage.get_mib_s", i.probes.get_mib_s);
    put(
        "storage.bytes_per_user_byte",
        ratio(cs.counter("worker_write_bytes_total", any), written_bytes),
    );
    put("host.cpu_util", ratio(i.cpu_s, i.traced_wall_s * i.nproc as f64));
    put("host.cpu_ms_per_mib", ratio(i.cpu_s * 1e3, user_bytes / MIB));
    put("host.cpu_us_per_op", ratio(i.cpu_s * 1e6, ops));
    put("trace.overhead", ratio(i.traced.mean_us(), i.untraced.mean_us()));
    put("trace.attribution", ratio(paths.total_us - paths.unexplained_us, paths.total_us));
    m
}

/// The table written next to the spans: layer metrics plus the critical
/// path split by layer.
pub fn render(metrics: &[(String, f64)], units: &[(String, &str)], p: &PathTotals) -> String {
    let unit: BTreeMap<&str, &str> = units.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    let mut out = String::new();
    for (k, v) in metrics {
        out.push_str(&format!("{k:<34} {v:>14.4} {}\n", unit.get(k.as_str()).unwrap_or(&"")));
    }
    out.push_str(&format!(
        "\ncritical path over {} traced calls ({:.0} us):\n",
        p.calls, p.total_us
    ));
    for (layer, us) in &p.by_layer {
        out.push_str(&format!("  {layer:<10} {:>6.1}%\n", 100.0 * ratio(*us, p.total_us)));
    }
    out.push_str(&format!(
        "  {:<10} {:>6.1}%\n",
        "unexplained",
        100.0 * ratio(p.unexplained_us, p.total_us)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_named_once() {
        let units = metric_units();
        let mut names: Vec<&String> = units.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), units.len());
        assert!(units.len() <= 128);
    }

    #[test]
    fn segments_map_to_layers() {
        assert_eq!(layer_of("rpc.Status (self)"), Some("rpc"));
        assert_eq!(layer_of("master.Status"), Some("master"));
        assert_eq!(layer_of("client.checksum"), Some("checksum"));
        assert_eq!(layer_of("client.read_block (self)"), Some("client"));
        assert_eq!(layer_of("client.read_file (self)"), None);
        assert_eq!(layer_of("bench.list (self)"), None);
    }
}
