//! The three workloads: cluster set-up, the closed-loop timed window, and
//! the correctness oracle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use octopus_common::trace::{SpanRecord, TraceCollector};
use octopus_common::{
    ClientLocation, ClusterConfig, FsError, LocatedBlock, ReplicationVector, RpcConfig, TierId, MB,
};
use octopus_core::net::{NetCluster, RemoteFs};

use crate::gen::{
    preload_dir, preload_file, rf3, tiered_population, BulkGen, Generator, LiveFile, MetaGen,
    MetaShape, Op, PayloadPool, TieredGen,
};
use crate::stats::Record;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkRw,
    MetaChurn,
    TieredHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BulkRw, Workload::MetaChurn, Workload::TieredHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkRw => "bulk_rw",
            Workload::MetaChurn => "meta_churn",
            Workload::TieredHot => "tiered_hot",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop client threads (at most `nproc` = 2 on the reference
    /// host).
    pub fn clients(self) -> usize {
        match self {
            Workload::BulkRw => 1,
            Workload::MetaChurn | Workload::TieredHot => 2,
        }
    }

    /// Device pacing at the `test_cluster` Table-2 rates.
    pub fn pacing(self) -> bool {
        self == Workload::TieredHot
    }

    /// In the traced window, one call in `trace_every` gets a span tree:
    /// enough calls to fill every layer, few enough that the servers'
    /// span rings never overflow between drains.
    pub fn trace_every(self) -> usize {
        match self {
            Workload::MetaChurn => 4,
            Workload::BulkRw | Workload::TieredHot => 1,
        }
    }
}

/// Input sizes. `full()` is the benchmark; `smoke()` shrinks every input
/// so tests can run each workload end to end in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub bulk_block: u64,
    pub bulk_blocks: u64,
    pub meta: MetaShape,
    pub hot_files: usize,
    pub hot_len: u64,
    /// Set-ups per run: at least `setups`, more while they add up to under
    /// a second (a cheap boot is timed many times); `setup_s` is their
    /// median.
    pub setups: usize,
    pub warmup: Duration,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            bulk_block: 4 * MB,
            bulk_blocks: 16,
            meta: MetaShape {
                dirs: 1000,
                files_per_dir: 100,
                data_every: 64,
                data_len: 4096,
                data_live: 32,
            },
            hot_files: 96,
            hot_len: MB,
            setups: 3,
            warmup: Duration::from_millis(1500),
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        Scale {
            bulk_block: MB,
            bulk_blocks: 4,
            meta: MetaShape {
                dirs: 20,
                files_per_dir: 10,
                data_every: 8,
                data_len: 4096,
                data_live: 4,
            },
            hot_files: 12,
            hot_len: 256 * 1024,
            setups: 1,
            warmup: Duration::from_millis(50),
        }
    }
}

/// A booted, populated cluster with its clients, generators and payloads.
pub struct Prepared {
    pub cluster: NetCluster,
    pub clients: Vec<RemoteFs>,
    pub gens: Vec<Box<dyn Generator>>,
    pub pool: PayloadPool,
    /// Files written during set-up that must survive the run.
    pub fixed: Vec<LiveFile>,
    pub setup_s: Vec<f64>,
    pub config: ClusterConfig,
}

fn config(w: Workload, scale: &Scale) -> ClusterConfig {
    let block = match w {
        Workload::BulkRw => scale.bulk_block,
        Workload::MetaChurn => MB,
        Workload::TieredHot => scale.hot_len,
    };
    let mut c = ClusterConfig::test_cluster(4, 1024 * MB, block);
    c.emulate_media_bps = w.pacing();
    c
}

/// A client with its own transport, so its `rpc_client_*` series hold
/// exactly this client's calls.
fn client(cluster: &NetCluster) -> RemoteFs {
    cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::default())
}

fn io<T>(r: octopus_common::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Boots the cluster and loads the workload's initial namespace: the
/// timed part of set-up.
fn boot(
    w: Workload,
    scale: &Scale,
    seed: u64,
    pool: &PayloadPool,
) -> Result<(NetCluster, Vec<LiveFile>), String> {
    let cluster = io(NetCluster::start(config(w, scale)))?;
    let fs = client(&cluster);
    let mut fixed = Vec::new();
    match w {
        Workload::BulkRw => io(fs.mkdir("/bulk/c0"))?,
        Workload::MetaChurn => {
            // The preload goes through the in-process master: set-up, not
            // the RPC path under test.
            let m = cluster.master();
            let shape = scale.meta;
            for d in 0..shape.dirs {
                io(m.mkdir(&preload_dir(d)))?;
                for f in 0..shape.files_per_dir {
                    let p = preload_file(d, f);
                    io(m.create_file(&p, rf3(), None))?;
                    io(m.complete_file(&p))?;
                }
            }
            for c in 0..w.clients() {
                io(m.mkdir(&format!("/meta/c{c}")))?;
                io(m.mkdir(&format!("/meta/data{c}")))?;
            }
        }
        Workload::TieredHot => {
            let set = tiered_population(seed, scale.hot_files, scale.hot_len);
            for c in 0..w.clients() {
                io(fs.mkdir(&format!("/hot/w{c}")))?;
            }
            // Two writers, matching the workload's client count.
            let chunks: Vec<&[LiveFile]> = set.files.chunks(set.files.len().div_ceil(2)).collect();
            let out: Mutex<Result<(), String>> = Mutex::new(Ok(()));
            std::thread::scope(|s| {
                for (i, chunk) in chunks.iter().enumerate() {
                    let fs = fs.clone();
                    let out = &out;
                    let base = i * set.files.len().div_ceil(2);
                    s.spawn(move || {
                        for (j, f) in chunk.iter().enumerate() {
                            let r = io(fs.write_file(&f.path, &pool.items[base + j], f.rv));
                            if let Err(e) = r {
                                *out.lock().expect("population result lock") = Err(e);
                                return;
                            }
                        }
                    });
                }
            });
            out.into_inner().expect("population result lock")?;
            fixed = set.files;
        }
    }
    Ok((cluster, fixed))
}

/// Generates inputs, then boots and populates the cluster several times,
/// keeping the last one.
pub fn prepare(w: Workload, scale: &Scale, seed: u64) -> Result<Prepared, String> {
    let pool = match w {
        Workload::BulkRw => {
            PayloadPool::new(seed, 1, 2, (scale.bulk_block * scale.bulk_blocks) as usize)
        }
        Workload::MetaChurn => PayloadPool::new(seed, 2, 16, scale.meta.data_len),
        Workload::TieredHot => {
            PayloadPool::new(seed, 3, scale.hot_files + 8, scale.hot_len as usize)
        }
    };
    let mut setup_s = Vec::new();
    let mut last = None;
    while setup_s.len() < scale.setups.max(1)
        || (setup_s.iter().sum::<f64>() < 1.0 && setup_s.len() < 25)
    {
        // Tear the previous cluster down before timing the next boot.
        drop(last.take());
        let t = Instant::now();
        let booted = boot(w, scale, seed, &pool)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(booted);
    }
    let (cluster, fixed) = last.expect("at least one set-up ran");
    let clients: Vec<RemoteFs> = (0..w.clients()).map(|_| client(&cluster)).collect();
    let set = tiered_population(seed, scale.hot_files, scale.hot_len);
    let gens: Vec<Box<dyn Generator>> = (0..w.clients())
        .map(|c| -> Box<dyn Generator> {
            match w {
                Workload::BulkRw => Box::new(BulkGen::new(
                    c,
                    scale.bulk_block * scale.bulk_blocks,
                    scale.bulk_block,
                    2,
                )),
                Workload::MetaChurn => {
                    Box::new(MetaGen::new(seed, c, w.clients(), scale.meta, pool.items.len()))
                }
                Workload::TieredHot => Box::new(TieredGen::new(seed, c, &set, 8)),
            }
        })
        .collect();
    Ok(Prepared { config: config(w, scale), cluster, clients, gens, pool, fixed, setup_s })
}

/// Runs one call and checks its reply against the model. Returns the
/// call's latency (µs, the `RemoteFs` call alone) and the user bytes it
/// moved.
pub fn exec(fs: &RemoteFs, op: &Op, pool: &PayloadPool) -> (f64, Result<u64, String>) {
    let t = Instant::now();
    let what = |e: FsError| format!("{} {op:?}: {e}", op.name());
    let (us, out) = match op {
        Op::Mkdir { path } => {
            let r = fs.mkdir(path);
            (t.elapsed(), r.map(|_| 0).map_err(what))
        }
        Op::Create { path, rv } => {
            let r = fs.write_file(path, &[], *rv);
            (t.elapsed(), r.map(|_| 0).map_err(what))
        }
        Op::Open { path, blocks, rv } => {
            let r = fs.get_file_block_locations(path, 0, u64::MAX);
            let us = t.elapsed();
            let out = r.map_err(what).and_then(|l| {
                check(l.len() == *blocks, || {
                    format!("open {path}: {} blocks, want {blocks}", l.len())
                })?;
                replicas_match(path, &l, *rv).map(|_| 0)
            });
            (us, out)
        }
        Op::List { path, expect } => {
            let r = fs.list(path);
            let us = t.elapsed();
            (
                us,
                r.map_err(what).and_then(|entries| {
                    let mut names: Vec<String> = entries.into_iter().map(|e| e.name).collect();
                    names.sort();
                    check(&names == expect, || {
                        format!("list {path}: {} entries, model has {}", names.len(), expect.len())
                    })
                }),
            )
        }
        Op::Rename { src, dst } => {
            let r = fs.rename(src, dst);
            (t.elapsed(), r.map(|_| 0).map_err(what))
        }
        Op::Delete { path } => {
            let r = fs.delete(path, false);
            (t.elapsed(), r.map(|_| 0).map_err(what))
        }
        Op::Status { path, expect } => {
            let r = fs.status(path);
            let us = t.elapsed();
            let out = match (r, expect) {
                (Ok(s), Some(len)) => check(s.len == *len && s.complete && !s.is_dir, || {
                    format!("status {path}: {s:?}, want len {len}")
                }),
                (Err(FsError::NotFound(_)), None) => Ok(0),
                (Ok(s), None) => Err(format!("status {path}: still present after delete: {s:?}")),
                (Err(e), _) => Err(what(e)),
            };
            (us, out)
        }
        Op::Write { path, payload, rv } => {
            let data = &pool.items[*payload];
            let r = fs.write_file(path, data, *rv);
            (t.elapsed(), r.map(|_| data.len() as u64).map_err(what))
        }
        Op::Read { path, payload } => {
            let r = fs.read_file(path);
            let us = t.elapsed();
            let want = &pool.items[*payload];
            (
                us,
                r.map_err(what).and_then(|got| {
                    check(got[..] == want[..], || {
                        format!("read {path}: {} bytes differ from what was written", got.len())
                    })
                    .map(|_| got.len() as u64)
                }),
            )
        }
    };
    (us.as_secs_f64() * 1e6, out)
}

fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<u64, String> {
    if ok {
        Ok(0)
    } else {
        Err(msg())
    }
}

/// What a timed window produced.
pub struct Window {
    pub record: Record,
    pub wall_s: f64,
    /// Every span recorded during a traced window (empty otherwise).
    pub spans: Vec<SpanRecord>,
}

/// Tracing for one window: the benchmark's own root spans go to
/// `bench`; the program's collectors are drained on a timer so none of
/// their rings overflow.
pub struct Tracing {
    pub bench: TraceCollector,
    pub every: usize,
}

/// Runs every client closed-loop until `dur` has passed. Each client
/// finishes the cycle in progress, so no work is cut in half; the window
/// closes when the last client returns.
pub fn run_window(p: &mut Prepared, dur: Duration, tracing: Option<&Tracing>) -> Window {
    let barrier = Barrier::new(p.clients.len() + 1);
    let stop_drain = AtomicBool::new(false);
    let drained: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
    if tracing.is_some() {
        // Only spans of this window count.
        collect_program_spans(&p.cluster, &p.clients);
    }
    let mut start = Instant::now();
    let mut records = Vec::new();
    let pool = &p.pool;
    let cluster = &p.cluster;
    let clients = &p.clients;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (fs, gen) in clients.iter().zip(p.gens.iter_mut()) {
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                let mut rec = Record::default();
                barrier.wait();
                let opened = Instant::now();
                let deadline = opened + dur;
                let mut i = 0usize;
                while Instant::now() < deadline || !gen.cycle_done() {
                    let op = gen.next_op();
                    let root = tracing
                        .filter(|t| i.is_multiple_of(t.every))
                        .map(|t| t.bench.root(format!("bench.{}", op.name())));
                    let (us, out) = exec(fs, &op, pool);
                    drop(root);
                    rec.call(op.class(), opened.elapsed().as_secs_f64(), us, out);
                    i += 1;
                }
                rec
            }));
        }
        if tracing.is_some() {
            let (stop, drained) = (&stop_drain, &drained);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let spans = collect_program_spans(cluster, clients);
                    drained.lock().expect("drain lock").extend(spans);
                }
            });
        }
        barrier.wait();
        start = Instant::now();
        for h in handles {
            records.push(h.join().expect("client thread panicked"));
        }
        stop_drain.store(true, Ordering::Relaxed);
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut record = Record::default();
    for r in records {
        record.merge(r);
    }
    let mut spans = drained.into_inner().expect("drain lock");
    if let Some(t) = tracing {
        spans.extend(collect_program_spans(&p.cluster, &p.clients));
        spans.extend(t.bench.drain().spans);
    }
    Window { record, wall_s, spans }
}

/// Drains every span ring of the program: master, workers, the shared
/// server-side RPC client and each benchmark client.
fn collect_program_spans(cluster: &NetCluster, clients: &[RemoteFs]) -> Vec<SpanRecord> {
    let mut out = cluster.master().trace().drain().spans;
    for w in cluster.workers() {
        out.extend(w.trace().drain().spans);
    }
    out.extend(octopus_core::net::rpc::shared().trace().drain().spans);
    for c in clients {
        out.extend(c.trace().drain().spans);
    }
    out
}

/// The oracle's final sweep, from outside over RPC: every directory the
/// model knows lists exactly its model contents, and every live file has
/// its length, its blocks, and per block the replica count per tier its
/// vector asks for. Returns one message per mismatch.
pub fn sweep(p: &Prepared) -> Vec<String> {
    let fs = client(&p.cluster);
    let mut bad = Vec::new();
    let mut files: Vec<LiveFile> = p.fixed.clone();
    // Directories with no expected entries are checked through their
    // parent's listing (one call instead of thousands).
    let mut empty_by_parent: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for g in &p.gens {
        files.extend(g.live_files());
        for (dir, names) in g.dirs() {
            if names.is_empty() {
                let (parent, leaf) = dir.rsplit_once('/').unwrap_or(("", &dir));
                empty_by_parent.entry(parent.to_string()).or_default().push(leaf.to_string());
            } else {
                list_equals(&fs, &dir, &names, &mut bad);
            }
        }
    }
    for (parent, leaves) in empty_by_parent {
        match fs.list(&parent) {
            Ok(entries) => {
                let present: std::collections::HashMap<&str, bool> =
                    entries.iter().map(|e| (e.name.as_str(), e.is_dir)).collect();
                for leaf in leaves {
                    let dir = format!("{parent}/{leaf}");
                    if present.get(leaf.as_str()) != Some(&true) {
                        bad.push(format!("sweep: directory {dir} missing"));
                    }
                }
            }
            Err(e) => bad.push(format!("sweep: list {parent}: {e}")),
        }
    }
    for f in &files {
        check_replicas(&fs, f, p.config.block_size, &mut bad);
    }
    bad
}

fn list_equals(fs: &RemoteFs, dir: &str, names: &[String], bad: &mut Vec<String>) {
    match fs.list(dir) {
        Ok(entries) => {
            let mut got: Vec<String> = entries.into_iter().map(|e| e.name).collect();
            got.sort();
            if got != names {
                bad.push(format!(
                    "sweep: {dir} lists {} entries, model has {}",
                    got.len(),
                    names.len()
                ));
            }
        }
        Err(e) => bad.push(format!("sweep: list {dir}: {e}")),
    }
}

fn check_replicas(fs: &RemoteFs, f: &LiveFile, block_size: u64, bad: &mut Vec<String>) {
    match fs.status(&f.path) {
        Ok(s) if s.len == f.len && s.rv == f.rv && s.complete => {}
        Ok(s) => {
            bad.push(format!("sweep: {} status {s:?}, want len {} rv {:?}", f.path, f.len, f.rv))
        }
        Err(e) => bad.push(format!("sweep: status {}: {e}", f.path)),
    }
    let blocks = match fs.get_file_block_locations(&f.path, 0, u64::MAX) {
        Ok(b) => b,
        Err(e) => return bad.push(format!("sweep: locations {}: {e}", f.path)),
    };
    let want_blocks = f.len.div_ceil(block_size) as usize;
    let total: u64 = blocks.iter().map(|b| b.block.len).sum();
    if blocks.len() != want_blocks || total != f.len {
        bad.push(format!(
            "sweep: {} has {} blocks / {total} bytes, want {want_blocks} / {}",
            f.path,
            blocks.len(),
            f.len
        ));
    }
    if let Err(e) = replicas_match(&f.path, &blocks, f.rv) {
        bad.push(format!("sweep: {e}"));
    }
}

/// Every block has the replica count per tier that `rv` asks for: exactly
/// the specified counts, with unspecified (`U`) replicas free to land on
/// any tier on top of them.
fn replicas_match(
    path: &str,
    blocks: &[LocatedBlock],
    rv: ReplicationVector,
) -> Result<(), String> {
    for b in blocks {
        let mut per_tier = [0u32; 3];
        for l in &b.locations {
            if let Some(c) = per_tier.get_mut(l.tier.0 as usize) {
                *c += 1;
            }
        }
        let want = |t: usize| u32::from(rv.tier(TierId(t as u8)));
        let tiers_ok = (0..3).all(|t| {
            if rv.unspecified() > 0 {
                per_tier[t] >= want(t)
            } else {
                per_tier[t] == want(t)
            }
        });
        if b.locations.len() as u32 != rv.total() || !tiers_ok {
            return Err(format!(
                "{path} block {} replicas per tier {per_tier:?}, vector {rv:?}",
                b.block.id
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::critical_paths;

    fn smoke(w: Workload, tracing: Option<&Tracing>) -> (Prepared, Window) {
        let mut p = prepare(w, &Scale::smoke(), 5).expect("smoke set-up");
        let win = run_window(&mut p, Duration::from_millis(300), tracing);
        assert!(win.record.completed() > 0, "{} completed nothing", w.name());
        assert_eq!(win.record.failed, 0, "{}: {:?}", w.name(), win.record.errors);
        assert_eq!(sweep(&p), Vec::<String>::new(), "{} sweep", w.name());
        (p, win)
    }

    #[test]
    fn bulk_rw_smoke_passes_the_oracle() {
        smoke(Workload::BulkRw, None);
    }

    #[test]
    fn meta_churn_smoke_passes_the_oracle_traced() {
        let tracing = Tracing { bench: TraceCollector::with_capacity("bench", 1 << 20), every: 1 };
        let (_, win) = smoke(Workload::MetaChurn, Some(&tracing));
        let paths = critical_paths(&win.spans);
        assert!(paths.calls > 0);
        assert!(paths.by_layer.get("master").copied().unwrap_or(0.0) > 0.0);
        assert!(paths.by_layer.get("rpc").copied().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn tiered_hot_smoke_passes_the_oracle() {
        smoke(Workload::TieredHot, None);
    }

    #[test]
    fn sweep_catches_a_file_missing_behind_the_models_back() {
        let (p, _) = smoke(Workload::TieredHot, None);
        let victim = p.fixed[0].path.clone();
        p.clients[0].delete(&victim, false).expect("delete");
        let bad = sweep(&p);
        assert!(bad.iter().any(|e| e.contains(&victim)), "{bad:?}");
    }
}
