//! Seeded input generators. Every workload's operation stream is a pure
//! function of `(seed, client)`: the generator is also the oracle's model
//! of the namespace, so each [`Op`] carries the reply it must produce.

use std::collections::BTreeSet;

use bytes::Bytes;
use octopus_common::{BlockData, ReplicationVector};

/// splitmix64: a tiny, dependency-free, well-mixed PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream independent of every other `(seed, stream)` pair.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 hottest), sampled by inverting the
/// cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Deterministic payloads: payload `i` of a pool is
/// `BlockData::generate_real(len, seed, i)`, so a reader can verify any
/// file byte-for-byte against the pool entry it was written from.
pub struct PayloadPool {
    pub items: Vec<Bytes>,
}

impl PayloadPool {
    pub fn new(seed: u64, tag: u64, count: usize, len: usize) -> Self {
        let items = (0..count)
            .map(|i| match BlockData::generate_real(len, mix(seed, tag, i as u64)) {
                BlockData::Real(b) => b,
                BlockData::Synthetic { .. } => unreachable!("generate_real returns real bytes"),
            })
            .collect();
        PayloadPool { items }
    }
}

fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    Rng::derive(seed ^ tag.rotate_left(32), i).next_u64()
}

/// Which latency population a call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Calls that move file bytes (`write_file`/`read_file` with data).
    Write,
    Read,
    /// Namespace-only calls.
    Meta,
}

/// One client call plus the reply the model expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Mkdir {
        path: String,
    },
    /// A zero-byte file: `CreateFile` + `CompleteFile`.
    Create {
        path: String,
        rv: ReplicationVector,
    },
    /// `get_file_block_locations`: the file must have `blocks` blocks,
    /// each with the replica count per tier that `rv` asks for.
    Open {
        path: String,
        blocks: usize,
        rv: ReplicationVector,
    },
    /// The listing must hold exactly `expect` (sorted names).
    List {
        path: String,
        expect: Vec<String>,
    },
    Rename {
        src: String,
        dst: String,
    },
    Delete {
        path: String,
    },
    /// `status`: `Some(len)` must exist with that length, `None` must be gone.
    Status {
        path: String,
        expect: Option<u64>,
    },
    /// Write pool payload `payload` to a fresh file.
    Write {
        path: String,
        payload: usize,
        rv: ReplicationVector,
    },
    /// Read a file back; it must equal pool payload `payload`.
    Read {
        path: String,
        payload: usize,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Write { .. } => Class::Write,
            Op::Read { .. } => Class::Read,
            _ => Class::Meta,
        }
    }

    /// Short name, used in failure messages and span names.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Mkdir { .. } => "mkdir",
            Op::Create { .. } => "create",
            Op::Open { .. } => "open",
            Op::List { .. } => "list",
            Op::Rename { .. } => "rename",
            Op::Delete { .. } => "delete",
            Op::Status { .. } => "status",
            Op::Write { .. } => "write",
            Op::Read { .. } => "read",
        }
    }
}

/// A live file the final sweep checks: path, replication vector, length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveFile {
    pub path: String,
    pub rv: ReplicationVector,
    pub len: u64,
}

/// A per-client operation stream that is also the model of everything
/// that client owns in the namespace.
pub trait Generator: Send {
    fn next_op(&mut self) -> Op;
    /// Files that must exist after the run, with their vectors.
    fn live_files(&self) -> Vec<LiveFile>;
    /// Directories whose exact contents the sweep lists and compares.
    fn dirs(&self) -> Vec<(String, Vec<String>)>;
    /// Whether the stream sits between two cycles of its mix. A window
    /// ends only there, so every window holds whole cycles and the ratio
    /// of reads to writes never depends on where the clock ran out.
    fn cycle_done(&self) -> bool {
        true
    }
}

/// The paper's default replication factor (HDFS compatibility, `U = 3`).
pub fn rf3() -> ReplicationVector {
    ReplicationVector::from_replication_factor(3)
}

// ---------------------------------------------------------------- bulk_rw

/// `bulk_rw`: write a large file, check its status, block locations and
/// directory listing, read it back, delete it, check it is gone —
/// repeatedly.
pub struct BulkGen {
    dir: String,
    file_len: u64,
    blocks: usize,
    pool_len: usize,
    n: usize,
    step: usize,
}

impl BulkGen {
    pub fn new(client: usize, file_len: u64, block_size: u64, pool_len: usize) -> Self {
        let blocks = file_len.div_ceil(block_size) as usize;
        BulkGen { dir: format!("/bulk/c{client}"), file_len, blocks, pool_len, n: 0, step: 0 }
    }

    fn path(&self) -> String {
        format!("{}/f{}", self.dir, self.n)
    }
}

impl Generator for BulkGen {
    fn next_op(&mut self) -> Op {
        let path = self.path();
        let payload = self.n % self.pool_len;
        let op = match self.step {
            0 => Op::Write { path, payload, rv: rf3() },
            1 => Op::Status { path, expect: Some(self.file_len) },
            2 => Op::Open { path, blocks: self.blocks, rv: rf3() },
            3 => Op::List { path: self.dir.clone(), expect: vec![leaf(&path)] },
            4 => Op::Read { path, payload },
            5 => Op::Delete { path },
            _ => Op::Status { path, expect: None },
        };
        self.step += 1;
        if self.step == 7 {
            self.step = 0;
            self.n += 1;
        }
        op
    }

    fn cycle_done(&self) -> bool {
        self.step == 0
    }

    fn live_files(&self) -> Vec<LiveFile> {
        // Alive between its write (step 0) and its delete (step 5).
        if (1..=5).contains(&self.step) {
            vec![LiveFile { path: self.path(), rv: rf3(), len: self.file_len }]
        } else {
            Vec::new()
        }
    }

    fn dirs(&self) -> Vec<(String, Vec<String>)> {
        let names = self.live_files().iter().map(|f| leaf(&f.path)).collect();
        vec![(self.dir.clone(), names)]
    }
}

// ------------------------------------------------------------- meta_churn

/// Shape of the `meta_churn` namespace.
#[derive(Debug, Clone, Copy)]
pub struct MetaShape {
    /// Preloaded directories, split between the clients by index parity.
    pub dirs: usize,
    pub files_per_dir: usize,
    /// One op in `data_every` writes a small file, one reads one back.
    pub data_every: usize,
    pub data_len: usize,
    /// Small data files kept alive per client (older ones are deleted).
    pub data_live: usize,
}

pub fn preload_dir(d: usize) -> String {
    format!("/meta/p{d}")
}

pub fn preload_file(d: usize, f: usize) -> String {
    format!("{}/f{f}", preload_dir(d))
}

struct MetaDir {
    path: String,
    names: BTreeSet<String>,
}

/// `meta_churn`: the S-Live Table-3 mix (mkdir, create, open, list,
/// rename, delete) over zero-byte files, with a small fixed share of
/// small-file writes and reads.
pub struct MetaGen {
    client: usize,
    shape: MetaShape,
    rng: Rng,
    dirs: Vec<MetaDir>,
    /// Every zero-byte file this client owns: (dir index, name).
    files: Vec<(usize, String)>,
    data_dir: String,
    /// Live small data files, oldest first: (name, payload).
    data: std::collections::VecDeque<(String, usize)>,
    pool_len: usize,
    pending_delete: Option<String>,
    i: usize,
    fresh: usize,
}

impl MetaGen {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        shape: MetaShape,
        pool_len: usize,
    ) -> Self {
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        for d in (client..shape.dirs).step_by(clients) {
            let idx = dirs.len();
            let names: BTreeSet<String> =
                (0..shape.files_per_dir).map(|f| format!("f{f}")).collect();
            files.extend(names.iter().map(|n| (idx, n.clone())));
            dirs.push(MetaDir { path: preload_dir(d), names });
        }
        MetaGen {
            client,
            shape,
            rng: Rng::derive(seed, 0x4D45_5441 + client as u64),
            dirs,
            files,
            data_dir: format!("/meta/data{client}"),
            data: Default::default(),
            pool_len,
            pending_delete: None,
            i: 0,
            fresh: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}_{}", self.client, self.fresh)
    }

    fn meta_op(&mut self) -> Op {
        let kind = self.rng.below(6);
        // Ops that need an existing file fall back to create when the
        // client owns none.
        let kind = if self.files.is_empty() && matches!(kind, 2 | 4 | 5) { 1 } else { kind };
        match kind {
            0 => {
                let name = self.fresh_name("d");
                let path = format!("/meta/c{}/{name}", self.client);
                self.dirs.push(MetaDir { path: path.clone(), names: BTreeSet::new() });
                Op::Mkdir { path }
            }
            1 => {
                let d = self.rng.below(self.dirs.len());
                let name = self.fresh_name("n");
                let path = format!("{}/{name}", self.dirs[d].path);
                self.dirs[d].names.insert(name.clone());
                self.files.push((d, name));
                Op::Create { path, rv: rf3() }
            }
            2 => {
                let (d, name) = &self.files[self.rng.below(self.files.len())];
                Op::Open { path: format!("{}/{name}", self.dirs[*d].path), blocks: 0, rv: rf3() }
            }
            3 => {
                let d = &self.dirs[self.rng.below(self.dirs.len())];
                Op::List { path: d.path.clone(), expect: d.names.iter().cloned().collect() }
            }
            4 => {
                let k = self.rng.below(self.files.len());
                let (d, old) = self.files[k].clone();
                let new = self.fresh_name("r");
                let dir = &mut self.dirs[d];
                dir.names.remove(&old);
                dir.names.insert(new.clone());
                let op = Op::Rename {
                    src: format!("{}/{old}", dir.path),
                    dst: format!("{}/{new}", dir.path),
                };
                self.files[k].1 = new;
                op
            }
            _ => {
                let k = self.rng.below(self.files.len());
                let (d, name) = self.files.swap_remove(k);
                self.dirs[d].names.remove(&name);
                Op::Delete { path: format!("{}/{name}", self.dirs[d].path) }
            }
        }
    }
}

impl Generator for MetaGen {
    fn cycle_done(&self) -> bool {
        self.pending_delete.is_none()
    }

    fn next_op(&mut self) -> Op {
        if let Some(path) = self.pending_delete.take() {
            return Op::Delete { path };
        }
        self.i += 1;
        let every = self.shape.data_every;
        if self.i % every == every / 4 {
            let name = self.fresh_name("w");
            let payload = self.rng.below(self.pool_len);
            self.data.push_back((name.clone(), payload));
            if self.data.len() > self.shape.data_live {
                let (old, _) = self.data.pop_front().expect("data queue is non-empty");
                self.pending_delete = Some(format!("{}/{old}", self.data_dir));
            }
            return Op::Write { path: format!("{}/{name}", self.data_dir), payload, rv: rf3() };
        }
        if self.i % every == 3 * every / 4 && !self.data.is_empty() {
            let (name, payload) = &self.data[self.rng.below(self.data.len())];
            return Op::Read { path: format!("{}/{name}", self.data_dir), payload: *payload };
        }
        self.meta_op()
    }

    fn live_files(&self) -> Vec<LiveFile> {
        self.data
            .iter()
            .map(|(name, _)| LiveFile {
                path: format!("{}/{name}", self.data_dir),
                rv: rf3(),
                len: self.shape.data_len as u64,
            })
            .collect()
    }

    fn dirs(&self) -> Vec<(String, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>)> =
            self.dirs.iter().map(|d| (d.path.clone(), d.names.iter().cloned().collect())).collect();
        let mut data: Vec<String> = self.data.iter().map(|(n, _)| n.clone()).collect();
        data.sort();
        out.push((self.data_dir.clone(), data));
        out
    }
}

// ------------------------------------------------------------- tiered_hot

/// The paper's Figure-2 vectors plus the default `U = 3`.
pub fn tiered_vectors() -> [ReplicationVector; 4] {
    [
        ReplicationVector::msh(1, 1, 1),
        ReplicationVector::msh(1, 0, 2),
        ReplicationVector::msh(0, 1, 2),
        rf3(),
    ]
}

/// The hot set: file `k` holds population payload `k`; `rank[k]` is its
/// Zipf rank. Vectors follow rank (`rank % 4`), so every seed reads the
/// same mix of tiers, while which file is hot follows the seed.
pub struct HotSet {
    pub files: Vec<LiveFile>,
    /// `by_rank[r]` = index of the file with Zipf rank `r`.
    pub by_rank: Vec<usize>,
}

pub fn tiered_population(seed: u64, n: usize, len: u64) -> HotSet {
    let by_rank = Rng::derive(seed, 0x0048_4F54).permutation(n);
    let vectors = tiered_vectors();
    let mut files: Vec<LiveFile> =
        (0..n).map(|k| LiveFile { path: format!("/hot/f{k}"), rv: rf3(), len }).collect();
    for (r, &k) in by_rank.iter().enumerate() {
        files[k].rv = vectors[r % vectors.len()];
    }
    HotSet { files, by_rank }
}

/// `tiered_hot`: nine Zipf reads, then one fresh write, the oracle's
/// `status` and block-location checks of it, and the delete of that
/// client's previous fresh file.
pub struct TieredGen {
    client: usize,
    rng: Rng,
    zipf: Zipf,
    by_rank: Vec<usize>,
    file_len: u64,
    fresh_pool: usize,
    /// Payload index of fresh writes starts after the population's.
    population: usize,
    vec_order: Vec<usize>,
    live: Option<(String, ReplicationVector, usize)>,
    /// The oracle checks and the delete that follow a fresh write.
    pending: std::collections::VecDeque<Op>,
    i: usize,
    writes: usize,
}

impl TieredGen {
    pub fn new(seed: u64, client: usize, set: &HotSet, fresh_pool: usize) -> Self {
        TieredGen {
            client,
            rng: Rng::derive(seed, 0x5449_4552 + client as u64),
            zipf: Zipf::new(set.files.len(), 0.99),
            by_rank: set.by_rank.clone(),
            file_len: set.files.first().map_or(0, |f| f.len),
            fresh_pool,
            population: set.files.len(),
            vec_order: Vec::new(),
            live: None,
            pending: Default::default(),
            i: 0,
            writes: 0,
        }
    }
}

impl Generator for TieredGen {
    fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        self.i += 1;
        if self.i.is_multiple_of(10) {
            // Fresh writes cycle through the four vectors in a seeded
            // order, so every ten writes hold each vector 2-3 times.
            if self.vec_order.is_empty() {
                self.vec_order = self.rng.permutation(tiered_vectors().len());
            }
            let rv = tiered_vectors()[self.vec_order.pop().expect("refilled above")];
            let payload = self.population + self.rng.below(self.fresh_pool);
            self.writes += 1;
            let path = format!("/hot/w{}/f{}", self.client, self.writes);
            self.pending.push_back(Op::Status { path: path.clone(), expect: Some(self.file_len) });
            self.pending.push_back(Op::Open { path: path.clone(), blocks: 1, rv });
            if let Some((old, _, _)) = self.live.replace((path.clone(), rv, payload)) {
                self.pending.push_back(Op::Delete { path: old });
            }
            return Op::Write { path, payload, rv };
        }
        let k = self.by_rank[self.zipf.sample(&mut self.rng)];
        Op::Read { path: format!("/hot/f{k}"), payload: k }
    }

    fn cycle_done(&self) -> bool {
        self.i.is_multiple_of(10) && self.pending.is_empty()
    }

    fn live_files(&self) -> Vec<LiveFile> {
        self.live
            .iter()
            .map(|(path, rv, _)| LiveFile { path: path.clone(), rv: *rv, len: self.file_len })
            .collect()
    }

    fn dirs(&self) -> Vec<(String, Vec<String>)> {
        let names = self.live_files().iter().map(|f| leaf(&f.path)).collect();
        vec![(format!("/hot/w{}", self.client), names)]
    }
}

pub fn leaf(path: &str) -> String {
    path.rsplit('/').next().unwrap_or(path).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MetaShape {
        MetaShape { dirs: 20, files_per_dir: 10, data_every: 16, data_len: 64, data_live: 4 }
    }

    fn stream(g: &mut dyn Generator, n: usize) -> Vec<Op> {
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let set = tiered_population(7, 32, 1024);
        let a = stream(&mut MetaGen::new(7, 0, 2, shape(), 8), 2000);
        let b = stream(&mut MetaGen::new(7, 0, 2, shape(), 8), 2000);
        let c = stream(&mut MetaGen::new(8, 0, 2, shape(), 8), 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let a = stream(&mut TieredGen::new(7, 1, &set, 4), 500);
        let b = stream(&mut TieredGen::new(7, 1, &set, 4), 500);
        let other = tiered_population(8, 32, 1024);
        let c = stream(&mut TieredGen::new(8, 1, &other, 4), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(tiered_population(7, 32, 1).by_rank, other.by_rank);
        assert_eq!(PayloadPool::new(7, 1, 2, 100).items, PayloadPool::new(7, 1, 2, 100).items);
        assert_ne!(PayloadPool::new(7, 1, 2, 100).items, PayloadPool::new(8, 1, 2, 100).items);
    }

    #[test]
    fn clients_own_disjoint_paths() {
        let mut a = MetaGen::new(3, 0, 2, shape(), 8);
        let mut b = MetaGen::new(3, 1, 2, shape(), 8);
        let dirs_a: BTreeSet<String> = a.dirs().into_iter().map(|d| d.0).collect();
        let dirs_b: BTreeSet<String> = b.dirs().into_iter().map(|d| d.0).collect();
        assert!(dirs_a.is_disjoint(&dirs_b));
        stream(&mut a, 1000);
        stream(&mut b, 1000);
        let dirs_a: BTreeSet<String> = a.dirs().into_iter().map(|d| d.0).collect();
        let dirs_b: BTreeSet<String> = b.dirs().into_iter().map(|d| d.0).collect();
        assert!(dirs_a.is_disjoint(&dirs_b));
    }

    #[test]
    fn meta_mix_has_every_op_and_a_fixed_data_share() {
        let ops = stream(&mut MetaGen::new(1, 0, 2, shape(), 8), 3200);
        for name in ["mkdir", "create", "open", "list", "rename", "delete", "write", "read"] {
            assert!(ops.iter().any(|o| o.name() == name), "{name} missing");
        }
        let writes = ops.iter().filter(|o| o.class() == Class::Write).count();
        let reads = ops.iter().filter(|o| o.class() == Class::Read).count();
        // Each write past the fourth live one is followed by a delete of
        // the oldest, outside the count of mix steps.
        let steps = ops.len() - (writes - 4);
        assert!(writes.abs_diff(steps / 16) <= 1, "{writes} writes in {steps} steps");
        assert!(reads.abs_diff(writes) <= 1, "{reads} reads, {writes} writes");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(100, 0.99);
        let mut rng = Rng::derive(1, 0);
        let mut hits = [0usize; 100];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[99]);
        // Rank 0 of Zipf(0.99) over 100 ranks draws about 19%.
        assert!((17_000..21_000).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn tiered_vectors_follow_rank() {
        let set = tiered_population(5, 16, 1);
        let v = tiered_vectors();
        for (r, &k) in set.by_rank.iter().enumerate() {
            assert_eq!(set.files[k].rv, v[r % 4]);
        }
    }
}
