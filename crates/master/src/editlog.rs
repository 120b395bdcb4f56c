//! The edit log: a durable record of namespace mutations, and the
//! checkpoint ("fsimage") machinery built on it.
//!
//! Every mutation the master applies is first recorded as an [`EditOp`].
//! Ops use a compact self-describing binary encoding (hand-rolled — a DFS
//! edit log wants a stable on-disk format, not a generic serializer), each
//! record protected by a CRC-32. A checkpoint is simply the namespace
//! re-expressed as the minimal op sequence that recreates it, so restore =
//! replay(checkpoint) + replay(tail of the log) — exactly the HDFS
//! fsimage/edits model the paper inherits (§2.1).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use octopus_common::checksum::crc32;
use octopus_common::{BlockId, FsError, ReplicationVector, Result, MAX_TIERS};
use parking_lot::Mutex;
use std::sync::{Condvar, PoisonError};

use crate::namespace::{Namespace, TierQuota};

/// One namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// `mkdir -p path`.
    Mkdir {
        /// Directory path.
        path: String,
    },
    /// Create an empty file open for writing.
    CreateFile {
        /// File path.
        path: String,
        /// Replication vector (64-bit encoding).
        rv: ReplicationVector,
        /// Block size.
        block_size: u64,
    },
    /// Append a block to an open file.
    AddBlock {
        /// File path.
        path: String,
        /// Block id.
        block: BlockId,
        /// Generation stamp.
        gen: u64,
        /// Block length.
        len: u64,
    },
    /// Close (complete) a file.
    CloseFile {
        /// File path.
        path: String,
    },
    /// Reopen a complete file for append.
    AppendFile {
        /// File path.
        path: String,
    },
    /// Rename a file or directory.
    Rename {
        /// Source path.
        src: String,
        /// Destination path.
        dst: String,
    },
    /// Delete a file or directory subtree.
    Delete {
        /// Path to delete.
        path: String,
    },
    /// Replace a file's replication vector.
    SetReplication {
        /// File path.
        path: String,
        /// The new vector.
        rv: ReplicationVector,
    },
    /// Set a directory's per-tier quota.
    SetQuota {
        /// Directory path.
        path: String,
        /// The quota.
        quota: TierQuota,
    },
    /// Remove the last (uncommitted) block of an open file — pipeline
    /// recovery abandoned it after a write failure.
    AbandonBlock {
        /// File path.
        path: String,
        /// The abandoned block.
        block: BlockId,
        /// Its length (for the quota refund on replay).
        len: u64,
    },
}

const TAG_MKDIR: u8 = 1;
const TAG_CREATE: u8 = 2;
const TAG_ADD_BLOCK: u8 = 3;
const TAG_CLOSE: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_SET_REP: u8 = 7;
const TAG_SET_QUOTA: u8 = 8;
const TAG_APPEND: u8 = 9;
const TAG_ABANDON_BLOCK: u8 = 10;

const NO_QUOTA: u64 = u64::MAX;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(FsError::Io("truncated edit record".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| FsError::Io(e.to_string()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl EditOp {
    /// Encodes the op body (without record framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            EditOp::Mkdir { path } => {
                b.push(TAG_MKDIR);
                put_str(&mut b, path);
            }
            EditOp::CreateFile { path, rv, block_size } => {
                b.push(TAG_CREATE);
                put_str(&mut b, path);
                put_u64(&mut b, rv.to_bits());
                put_u64(&mut b, *block_size);
            }
            EditOp::AddBlock { path, block, gen, len } => {
                b.push(TAG_ADD_BLOCK);
                put_str(&mut b, path);
                put_u64(&mut b, block.0);
                put_u64(&mut b, *gen);
                put_u64(&mut b, *len);
            }
            EditOp::CloseFile { path } => {
                b.push(TAG_CLOSE);
                put_str(&mut b, path);
            }
            EditOp::AppendFile { path } => {
                b.push(TAG_APPEND);
                put_str(&mut b, path);
            }
            EditOp::Rename { src, dst } => {
                b.push(TAG_RENAME);
                put_str(&mut b, src);
                put_str(&mut b, dst);
            }
            EditOp::Delete { path } => {
                b.push(TAG_DELETE);
                put_str(&mut b, path);
            }
            EditOp::SetReplication { path, rv } => {
                b.push(TAG_SET_REP);
                put_str(&mut b, path);
                put_u64(&mut b, rv.to_bits());
            }
            EditOp::SetQuota { path, quota } => {
                b.push(TAG_SET_QUOTA);
                put_str(&mut b, path);
                for t in 0..MAX_TIERS {
                    put_u64(&mut b, quota.per_tier[t].unwrap_or(NO_QUOTA));
                }
            }
            EditOp::AbandonBlock { path, block, len } => {
                b.push(TAG_ABANDON_BLOCK);
                put_str(&mut b, path);
                put_u64(&mut b, block.0);
                put_u64(&mut b, *len);
            }
        }
        b
    }

    /// Decodes one op body.
    pub fn decode(buf: &[u8]) -> Result<EditOp> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let op = match tag {
            TAG_MKDIR => EditOp::Mkdir { path: r.str()? },
            TAG_CREATE => EditOp::CreateFile {
                path: r.str()?,
                rv: ReplicationVector::from_bits(r.u64()?),
                block_size: r.u64()?,
            },
            TAG_ADD_BLOCK => EditOp::AddBlock {
                path: r.str()?,
                block: BlockId(r.u64()?),
                gen: r.u64()?,
                len: r.u64()?,
            },
            TAG_CLOSE => EditOp::CloseFile { path: r.str()? },
            TAG_APPEND => EditOp::AppendFile { path: r.str()? },
            TAG_RENAME => EditOp::Rename { src: r.str()?, dst: r.str()? },
            TAG_DELETE => EditOp::Delete { path: r.str()? },
            TAG_SET_REP => EditOp::SetReplication {
                path: r.str()?,
                rv: ReplicationVector::from_bits(r.u64()?),
            },
            TAG_SET_QUOTA => {
                let path = r.str()?;
                let mut quota = TierQuota::unlimited();
                for t in 0..MAX_TIERS {
                    let v = r.u64()?;
                    quota.per_tier[t] = if v == NO_QUOTA { None } else { Some(v) };
                }
                EditOp::SetQuota { path, quota }
            }
            TAG_ABANDON_BLOCK => {
                EditOp::AbandonBlock { path: r.str()?, block: BlockId(r.u64()?), len: r.u64()? }
            }
            t => return Err(FsError::Io(format!("unknown edit op tag {t}"))),
        };
        if !r.done() {
            return Err(FsError::Io("trailing bytes in edit record".into()));
        }
        Ok(op)
    }

    /// Applies the op to a namespace (used for replay and by the backup
    /// master).
    pub fn apply(&self, ns: &mut Namespace) -> Result<()> {
        match self {
            EditOp::Mkdir { path } => {
                ns.mkdir(path, true)?;
            }
            EditOp::CreateFile { path, rv, block_size } => {
                ns.create_file(path, *rv, *block_size)?;
            }
            EditOp::AddBlock { path, block, len, .. } => {
                let id = ns.resolve(path)?;
                ns.add_block(id, *block, *len)?;
            }
            EditOp::CloseFile { path } => {
                let id = ns.resolve(path)?;
                ns.finalize_file(id)?;
            }
            EditOp::AppendFile { path } => {
                let id = ns.resolve(path)?;
                ns.reopen_file(id)?;
            }
            EditOp::Rename { src, dst } => {
                ns.rename(src, dst)?;
            }
            EditOp::Delete { path } => {
                ns.delete(path, true)?;
            }
            EditOp::SetReplication { path, rv } => {
                ns.set_replication(path, *rv)?;
            }
            EditOp::SetQuota { path, quota } => {
                ns.set_quota(path, *quota)?;
            }
            EditOp::AbandonBlock { path, block, len } => {
                let id = ns.resolve(path)?;
                ns.remove_last_block(id, *block, *len)?;
            }
        }
        Ok(())
    }
}

/// Bytes of a record's `[len u32][crc u32]` header.
const RECORD_HEADER: usize = 8;

/// Appends `op` to `buf` as one `[len u32][crc u32][body]` record.
fn frame_into(buf: &mut Vec<u8>, op: &EditOp) {
    let body = op.encode();
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&body).to_le_bytes());
    buf.extend_from_slice(&body);
}

/// The bodies of the complete framed records at the front of `buf`, each
/// CRC-checked. Stops cleanly at a truncated tail (a crash mid-append);
/// a complete record whose CRC does not match yields an error and ends
/// the iteration.
fn records(mut buf: &[u8]) -> impl Iterator<Item = Result<&[u8]>> {
    std::iter::from_fn(move || {
        if buf.len() < RECORD_HEADER {
            return None;
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let body = buf.get(RECORD_HEADER..RECORD_HEADER + len)?; // truncated tail
        if crc32(body) != crc {
            buf = &[];
            return Some(Err(FsError::Io("edit record CRC mismatch".into())));
        }
        buf = &buf[RECORD_HEADER + len..];
        Some(Ok(body))
    })
}

/// Decodes a stream of framed records. Stops cleanly at a truncated tail
/// (a crash mid-append), erroring only on corruption of complete records.
pub fn decode_stream(buf: &[u8]) -> Result<Vec<EditOp>> {
    records(buf).map(|body| EditOp::decode(body?)).collect()
}

/// Capacity of one segment of a log's retained records.
const SEGMENT: usize = 1 << 20;

/// The edit log, optionally write-through to a file. It holds the ops as
/// the same `[len][crc][body]` records the file and `EditsSince` carry,
/// and decodes them on demand: a retained op costs its encoded bytes, not
/// an enum with heap strings. The records sit in segments of about
/// [`SEGMENT`] bytes, so a growing log adds a segment instead of
/// reallocating (and for a moment holding twice) everything it retains.
pub struct EditLog {
    /// The framed records, in order. A record never spans two segments;
    /// a file-backed log's concatenated segments equal the file.
    segments: Vec<Vec<u8>>,
    /// Index of the first op of each segment.
    first_op: Vec<usize>,
    /// Number of ops.
    len: usize,
    file: Option<File>,
}

impl EditLog {
    /// An in-memory log (tests, simulations).
    pub fn in_memory() -> Self {
        Self { segments: Vec::new(), first_op: Vec::new(), len: 0, file: None }
    }

    /// Opens (or creates) a file-backed log, loading existing records. A
    /// torn last record (a crash mid-append) is cut off the file and the
    /// cut is synced before anything is appended, so new records never
    /// land behind a torn header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut existing = Vec::new();
        if path.exists() {
            File::open(path)?.read_to_end(&mut existing)?;
        }
        let (mut len, mut end) = (0, 0);
        for body in records(&existing) {
            let body = body?;
            EditOp::decode(body)?;
            len += 1;
            end += RECORD_HEADER + body.len();
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if end < existing.len() {
            file.set_len(end as u64)?;
            file.sync_data()?;
            existing.truncate(end);
        }
        let mut log = Self::in_memory();
        if len > 0 {
            // The loaded records are the first segment, as read.
            log.segments.push(existing);
            log.first_op.push(0);
            log.len = len;
        }
        log.file = Some(file);
        Ok(log)
    }

    /// Appends an op (write-through when file-backed).
    pub fn append(&mut self, op: EditOp) -> Result<()> {
        self.append_records(std::slice::from_ref(&op), false)
    }

    /// Appends a batch of ops with one coalesced write and a single
    /// `fsync` — the durability half of group commit. Records only become
    /// part of the log once the whole batch is on stable storage, so
    /// tailing readers (the backup master) never see an op that a crash
    /// could take back.
    pub fn append_batch(&mut self, ops: Vec<EditOp>) -> Result<()> {
        self.append_records(&ops, true)
    }

    /// Frames `ops`, writes them through, and only then retains them.
    fn append_records(&mut self, ops: &[EditOp], sync: bool) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        let mut ends = Vec::with_capacity(ops.len());
        for op in ops {
            frame_into(&mut buf, op);
            ends.push(buf.len());
        }
        if let Some(f) = &mut self.file {
            f.write_all(&buf)?;
            if sync {
                f.sync_data()?;
            }
        }
        let mut start = 0;
        for end in ends {
            self.retain(&buf[start..end]);
            start = end;
        }
        Ok(())
    }

    /// Copies one record onto the end of the last segment, or into a new
    /// segment when it does not fit.
    fn retain(&mut self, record: &[u8]) {
        match self.segments.last_mut() {
            Some(seg) if seg.capacity() - seg.len() >= record.len() => {
                seg.extend_from_slice(record)
            }
            _ => {
                let mut seg = Vec::with_capacity(SEGMENT.max(record.len()));
                seg.extend_from_slice(record);
                self.segments.push(seg);
                self.first_op.push(self.len);
            }
        }
        self.len += 1;
    }

    /// All recorded ops, decoded.
    pub fn ops(&self) -> Vec<EditOp> {
        self.since(0)
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A copy of the framed records of the ops at or after index `from`:
    /// the bytes `EditsSince` serves, and [`decode_stream`] reads back.
    pub fn records_since(&self, from: usize) -> Vec<u8> {
        if from >= self.len {
            return Vec::new();
        }
        // The segment holding op `from`, then `from`'s offset in it,
        // hopping over the record headers before it.
        let s = self.first_op.partition_point(|&first| first <= from) - 1;
        let seg = &self.segments[s];
        let mut at = 0;
        for _ in self.first_op[s]..from {
            let len = u32::from_le_bytes(seg[at..at + 4].try_into().expect("4-byte length"));
            at += RECORD_HEADER + len as usize;
        }
        let mut out = seg[at..].to_vec();
        for seg in &self.segments[s + 1..] {
            out.extend_from_slice(seg);
        }
        out
    }

    /// Ops recorded at or after index `from`, decoded (for incremental
    /// tailing by the backup master).
    pub fn since(&self, from: usize) -> Vec<EditOp> {
        decode_stream(&self.records_since(from)).expect("the log holds only records it validated")
    }

    /// Replays the whole log onto a namespace.
    pub fn replay(&self, ns: &mut Namespace) -> Result<()> {
        for body in self.segments.iter().flat_map(|seg| records(seg)) {
            EditOp::decode(body?)?.apply(ns)?;
        }
        Ok(())
    }

    /// Truncates the log (after its ops are folded into a checkpoint).
    /// File-backed logs are rewritten empty.
    pub fn truncate(&mut self) -> Result<()> {
        self.segments.clear();
        self.first_op.clear();
        self.len = 0;
        if let Some(f) = &mut self.file {
            f.set_len(0)?;
        }
        Ok(())
    }
}

/// Staging state of the group-commit batcher: ops accepted but not yet on
/// stable storage, plus the sequence bookkeeping that tells a waiter when
/// its op became durable.
struct GroupState {
    /// Ops staged since the last committed batch, in sequence order.
    staged: Vec<EditOp>,
    /// Sequence number the next staged op receives.
    next_seq: u64,
    /// All ops with sequence `< resolved_seq` have been resolved —
    /// committed durably, or failed with [`GroupState::poisoned`] set.
    resolved_seq: u64,
    /// Whether a committer is currently flushing a batch.
    committing: bool,
    /// Threads parked on the condvar. The committer wakes them only when
    /// there are any: a wake-up is a system call even with no waiter.
    waiters: u32,
    /// A batch write failed; the log refuses further durability claims
    /// (matching the usual journal discipline: an fsync failure means the
    /// tail of the log is unknowable).
    poisoned: Option<String>,
}

/// A group-commit edit log: writers *stage* ops (cheap, done while still
/// holding the namespace lock so the log order is a valid
/// linearization), then *wait* for durability after releasing the
/// namespace lock. The first waiter that finds no committer running becomes the
/// committer: it takes the whole staged batch, writes and fsyncs it as one
/// coalesced record run, and wakes every waiter the batch covered. Log
/// latency thus amortizes across all concurrently-staging writers instead
/// of serializing behind per-op fsyncs under a lock.
pub struct GroupCommitLog {
    state: Mutex<GroupState>,
    /// The durable log. Separate from `state` so stagers are never blocked
    /// behind an in-progress fsync; only the single active committer and
    /// snapshot readers take this lock.
    log: Mutex<EditLog>,
    cond: Condvar,
}

impl GroupCommitLog {
    /// Wraps an edit log (file-backed or in-memory) in the batcher. Ops
    /// already in the log count as resolved.
    pub fn new(log: EditLog) -> Self {
        let existing = log.len() as u64;
        Self {
            state: Mutex::new(GroupState {
                staged: Vec::new(),
                next_seq: existing,
                resolved_seq: existing,
                committing: false,
                waiters: 0,
                poisoned: None,
            }),
            log: Mutex::new(log),
            cond: Condvar::new(),
        }
    }

    /// Stages an op for the next batch and returns its sequence number.
    /// Call while holding the lock that ordered the op (the namespace
    /// lock); the assigned sequence then agrees with every dependency.
    pub fn stage(&self, op: EditOp) -> u64 {
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.staged.push(op);
        seq
    }

    /// Blocks until the op with sequence `seq` is durable (or the log is
    /// poisoned by an I/O failure). Acked-to-client therefore implies
    /// fsynced. The first waiter to arrive while no batch is in flight
    /// commits the entire staged batch itself.
    pub fn wait_durable(&self, seq: u64) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.poisoned {
                return Err(FsError::Io(format!("edit log poisoned: {e}")));
            }
            if seq < st.resolved_seq {
                return Ok(());
            }
            if !st.committing {
                st.committing = true;
                let batch = std::mem::take(&mut st.staged);
                let n = batch.len() as u64;
                drop(st);
                let res = self.log.lock().append_batch(batch);
                st = self.state.lock();
                st.resolved_seq += n;
                st.committing = false;
                if let Err(e) = res {
                    st.poisoned = Some(e.to_string());
                }
                if st.waiters > 0 {
                    self.cond.notify_all();
                }
            } else {
                st.waiters += 1;
                st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.waiters -= 1;
            }
        }
    }

    /// Stages an op and waits for its durability — the synchronous path
    /// used by internal callers (auto-tiering, lease recovery) that roll
    /// back namespace state when the log rejects an op.
    pub fn append_sync(&self, op: EditOp) -> Result<()> {
        let seq = self.stage(op);
        self.wait_durable(seq)
    }

    /// Number of durable ops.
    pub fn durable_len(&self) -> usize {
        self.log.lock().len()
    }

    /// The durable ops recorded at or after index `from`, decoded (for
    /// incremental tailing by the backup master). Staged-but-unflushed ops
    /// are invisible here by design.
    pub fn since(&self, from: usize) -> Vec<EditOp> {
        decode_stream(&self.records_since(from)).expect("the log holds only records it validated")
    }

    /// A copy of the framed records of the durable ops at or after index
    /// `from`, as the log file holds them.
    pub fn records_since(&self, from: usize) -> Vec<u8> {
        self.log.lock().records_since(from)
    }

    /// Forces every staged op to stable storage.
    pub fn flush(&self) -> Result<()> {
        let latest = {
            let st = self.state.lock();
            st.next_seq
        };
        if latest == 0 {
            return Ok(());
        }
        self.wait_durable(latest - 1)
    }
}

/// Expresses a namespace as the minimal op sequence recreating it
/// (a checkpoint image).
pub fn namespace_to_ops(ns: &Namespace) -> Vec<EditOp> {
    let mut ops = Vec::new();
    for (path, quota) in ns.iter_dirs() {
        if path != "/" {
            ops.push(EditOp::Mkdir { path: path.clone() });
        }
        if quota != TierQuota::unlimited() {
            ops.push(EditOp::SetQuota { path, quota });
        }
    }
    let mut files = ns.iter_files();
    files.sort_by(|a, b| a.1.cmp(&b.1));
    for (_, path, meta) in files {
        ops.push(EditOp::CreateFile {
            path: path.clone(),
            rv: meta.rv,
            block_size: meta.block_size,
        });
        let blocks = meta.blocks.clone();
        let n = blocks.len() as u64;
        for (i, b) in blocks.iter().enumerate() {
            // Per-block lengths are not kept in the namespace (only the
            // total); reconstruct: all but the last block are full.
            let len = if i as u64 + 1 < n {
                meta.block_size
            } else {
                meta.len - meta.block_size * (n.saturating_sub(1))
            };
            ops.push(EditOp::AddBlock { path: path.clone(), block: *b, gen: 0, len });
        }
        if meta.complete {
            ops.push(EditOp::CloseFile { path: path.clone() });
        }
    }
    ops
}

/// Serializes a checkpoint image to bytes.
pub fn encode_image(ns: &Namespace) -> Vec<u8> {
    let mut out = Vec::new();
    for op in namespace_to_ops(ns) {
        frame_into(&mut out, &op);
    }
    out
}

/// Restores a namespace from a checkpoint image.
pub fn decode_image(image: &[u8]) -> Result<Namespace> {
    let mut ns = Namespace::new();
    for op in decode_stream(image)? {
        op.apply(&mut ns)?;
    }
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<EditOp> {
        vec![
            EditOp::Mkdir { path: "/a/b".into() },
            EditOp::CreateFile {
                path: "/a/b/f".into(),
                rv: ReplicationVector::msh(1, 0, 2),
                block_size: 128,
            },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(5), gen: 3, len: 128 },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(9), gen: 3, len: 32 },
            EditOp::AbandonBlock { path: "/a/b/f".into(), block: BlockId(9), len: 32 },
            EditOp::AddBlock { path: "/a/b/f".into(), block: BlockId(6), gen: 3, len: 64 },
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::AppendFile { path: "/a/b/f".into() },
            EditOp::CloseFile { path: "/a/b/f".into() },
            EditOp::SetReplication { path: "/a/b/f".into(), rv: ReplicationVector::msh(0, 1, 2) },
            EditOp::Rename { src: "/a/b/f".into(), dst: "/a/g".into() },
            EditOp::SetQuota { path: "/a".into(), quota: TierQuota::limit_tier(0, 1 << 20) },
            EditOp::Delete { path: "/a/b".into() },
        ]
    }

    #[test]
    fn ops_encode_decode_round_trip() {
        for op in sample_ops() {
            let enc = op.encode();
            let dec = EditOp::decode(&enc).unwrap();
            assert_eq!(dec, op);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EditOp::decode(&[99, 0, 0]).is_err());
        // Trailing bytes rejected.
        let mut enc = EditOp::Mkdir { path: "/x".into() }.encode();
        enc.push(0);
        assert!(EditOp::decode(&enc).is_err());
    }

    #[test]
    fn stream_survives_truncated_tail_but_not_corruption() {
        let mut buf = Vec::new();
        for op in sample_ops() {
            frame_into(&mut buf, &op);
        }
        let full = decode_stream(&buf).unwrap();
        assert_eq!(full.len(), sample_ops().len());
        // Truncate mid-record: decodes the complete prefix.
        let cut = decode_stream(&buf[..buf.len() - 3]).unwrap();
        assert_eq!(cut.len(), sample_ops().len() - 1);
        // Flip a body byte: CRC error.
        let mut bad = buf.clone();
        bad[10] ^= 0xFF;
        assert!(decode_stream(&bad).is_err());
    }

    #[test]
    fn replay_reconstructs_namespace() {
        let mut log = EditLog::in_memory();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        let mut ns = Namespace::new();
        log.replay(&mut ns).unwrap();
        // After the sample sequence: /a exists with quota, /a/g is the
        // renamed file, /a/b was deleted.
        let st = ns.status("/a/g").unwrap();
        assert_eq!(st.len, 192);
        assert_eq!(st.rv, ReplicationVector::msh(0, 1, 2));
        assert!(ns.resolve("/a/b").is_err());
        let (q, _) = ns.quota_usage("/a").unwrap();
        assert_eq!(q, TierQuota::limit_tier(0, 1 << 20));
    }

    /// A fresh directory for one file-backed log test.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "octopus_editlog_{name}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_backed_log_persists() {
        let dir = temp_dir("persist");
        let path = dir.join("edits.log");
        {
            let mut log = EditLog::open(&path).unwrap();
            for op in sample_ops() {
                log.append(op).unwrap();
            }
        }
        let log2 = EditLog::open(&path).unwrap();
        assert_eq!(log2.ops(), sample_ops());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retained_records_equal_the_file() {
        let dir = temp_dir("retained");
        let path = dir.join("edits.log");
        let mut log = EditLog::open(&path).unwrap();
        let ops = sample_ops();
        let (single, batch) = ops.split_at(5);
        for op in single {
            log.append(op.clone()).unwrap();
        }
        assert_eq!(log.records_since(0), std::fs::read(&path).unwrap());
        log.append_batch(batch.to_vec()).unwrap();
        assert_eq!(log.records_since(0), std::fs::read(&path).unwrap());
        assert_eq!(log.ops(), sample_ops());
        assert_eq!(decode_stream(&log.records_since(7)).unwrap(), log.since(7));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn since_reads_across_segments() {
        let ops: Vec<EditOp> =
            (0..50_000).map(|i| EditOp::Mkdir { path: format!("/dir/{i:08}") }).collect();
        let mut log = EditLog::in_memory();
        for chunk in ops.chunks(1000) {
            log.append_batch(chunk.to_vec()).unwrap();
        }
        assert!(log.segments.len() >= 2, "the test must span segments");
        let mut all = Vec::new();
        for op in &ops {
            frame_into(&mut all, op);
        }
        assert_eq!(log.records_since(0), all);
        let boundary = log.first_op[1];
        for k in [1, boundary - 1, boundary, boundary + 1, ops.len() - 1, ops.len()] {
            assert_eq!(log.since(k), ops[k..], "since({k})");
        }
    }

    #[test]
    fn reopen_after_torn_tail_then_append_replays() {
        let dir = temp_dir("torn");
        let path = dir.join("edits.log");
        {
            let mut log = EditLog::open(&path).unwrap();
            log.append(EditOp::Mkdir { path: "/a".into() }).unwrap();
            log.append(EditOp::Mkdir { path: "/b".into() }).unwrap();
        }
        // A crash mid-append tears the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        {
            let mut log = EditLog::open(&path).unwrap();
            assert_eq!(log.len(), 1);
            log.append(EditOp::Mkdir { path: "/c".into() }).unwrap();
        }
        let log = EditLog::open(&path).unwrap();
        assert_eq!(
            log.ops(),
            vec![EditOp::Mkdir { path: "/a".into() }, EditOp::Mkdir { path: "/c".into() }]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn since_returns_incremental_tail() {
        let mut log = EditLog::in_memory();
        for op in sample_ops() {
            log.append(op).unwrap();
        }
        assert_eq!(log.since(0).len(), log.len());
        assert_eq!(log.since(7).len(), sample_ops().len() - 7);
        assert!(log.since(100).is_empty());
    }

    #[test]
    fn image_round_trip() {
        let mut ns = Namespace::new();
        ns.mkdir("/data/warm", true).unwrap();
        ns.set_quota("/data", TierQuota::limit_tier(1, 1 << 30)).unwrap();
        let f = ns.create_file("/data/f", ReplicationVector::msh(0, 1, 2), 100).unwrap();
        ns.add_block(f, BlockId(1), 100).unwrap();
        ns.add_block(f, BlockId(2), 40).unwrap();
        ns.finalize_file(f).unwrap();
        ns.create_file("/data/warm/open", ReplicationVector::from_replication_factor(2), 100)
            .unwrap();

        let image = encode_image(&ns);
        let restored = decode_image(&image).unwrap();
        let st = restored.status("/data/f").unwrap();
        assert_eq!(st.len, 140);
        assert_eq!(st.rv, ReplicationVector::msh(0, 1, 2));
        assert!(st.complete);
        let meta = restored.file_meta(restored.resolve("/data/f").unwrap()).unwrap();
        assert_eq!(meta.blocks, vec![BlockId(1), BlockId(2)]);
        let open = restored.status("/data/warm/open").unwrap();
        assert!(!open.complete);
        let (q, usage) = restored.quota_usage("/data").unwrap();
        assert_eq!(q, TierQuota::limit_tier(1, 1 << 30));
        assert_eq!(usage[1], 140); // SSD×1 charge re-derived on replay
        assert_eq!(usage[2], 280);
    }

    #[test]
    fn truncate_clears_log() {
        let mut log = EditLog::in_memory();
        log.append(EditOp::Mkdir { path: "/x".into() }).unwrap();
        log.truncate().unwrap();
        assert!(log.is_empty());
    }
}
