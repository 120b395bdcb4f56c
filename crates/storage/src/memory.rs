//! Heap-backed block store (the "Memory" tier).

use parking_lot::RwLock;
use std::collections::HashMap;

use bytes::Bytes;
use octopus_common::{Block, BlockData, BlockId, FsError, Result};

use crate::store::{BlockStore, StoredBlockInfo};

struct Entry {
    block: Block,
    data: BlockData,
    checksum: u32,
}

struct Inner {
    entries: HashMap<BlockId, Entry>,
    used: u64,
}

/// An in-memory block store with capacity accounting.
///
/// Also the store used by most tests; it offers [`MemoryStore::corrupt`] to
/// inject bit-rot for failure-handling tests.
pub struct MemoryStore {
    capacity: u64,
    inner: RwLock<Inner>,
}

impl MemoryStore {
    /// Creates a store with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, inner: RwLock::new(Inner { entries: HashMap::new(), used: 0 }) }
    }

    /// Test hook: flips a byte of a stored real payload (or perturbs the
    /// recorded checksum of a synthetic one) so subsequent reads fail
    /// verification, simulating silent corruption.
    pub fn corrupt(&self, id: BlockId) -> Result<()> {
        let mut g = self.inner.write();
        let e = g.entries.get_mut(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        match &e.data {
            BlockData::Real(b) => {
                let mut v = b.to_vec();
                if v.is_empty() {
                    e.checksum ^= 0xFFFF_FFFF;
                } else {
                    v[0] ^= 0xFF;
                    e.data = BlockData::Real(Bytes::from(v));
                }
            }
            BlockData::Synthetic { .. } => {
                e.checksum ^= 0xFFFF_FFFF;
            }
        }
        Ok(())
    }
}

impl BlockStore for MemoryStore {
    fn put(&self, block: Block, data: &BlockData) -> Result<()> {
        if data.len() != block.len {
            return Err(FsError::InvalidArgument(format!(
                "block {} declares {} bytes but payload has {}",
                block.id,
                block.len,
                data.len()
            )));
        }
        let mut g = self.inner.write();
        if g.entries.contains_key(&block.id) {
            return Err(FsError::AlreadyExists(block.id.to_string()));
        }
        if g.used + block.len > self.capacity {
            return Err(FsError::OutOfCapacity(format!(
                "memory store: {} + {} > {}",
                g.used, block.len, self.capacity
            )));
        }
        // The store owns its bytes. A payload received over RPC is a view
        // into the whole received frame; keeping that view would pin the
        // frame's allocation until the block is deleted, and such frames,
        // freed in random order, fragment the heap (perfbench tiered_hot
        // on 2 vCPUs: peak RSS +12–29% with the allocator's in-use bytes
        // unchanged).
        let data = match data {
            BlockData::Real(b) => BlockData::Real(Bytes::copy_from_slice(b)),
            synthetic => synthetic.clone(),
        };
        let checksum = data.checksum();
        g.used += block.len;
        g.entries.insert(block.id, Entry { block, data, checksum });
        Ok(())
    }

    fn get(&self, id: BlockId) -> Result<BlockData> {
        let g = self.inner.read();
        let e = g.entries.get(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        let actual = e.data.checksum();
        if actual != e.checksum {
            return Err(FsError::ChecksumMismatch { expected: e.checksum, actual });
        }
        Ok(e.data.clone())
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let mut g = self.inner.write();
        let e = g.entries.remove(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        g.used -= e.block.len;
        Ok(())
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.read().entries.contains_key(&id)
    }

    fn blocks(&self) -> Vec<StoredBlockInfo> {
        self.inner
            .read()
            .entries
            .values()
            .map(|e| StoredBlockInfo { block: e.block, checksum: e.checksum })
            .collect()
    }

    fn used(&self) -> u64 {
        self.inner.read().used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn verify(&self, id: BlockId) -> Result<u32> {
        let g = self.inner.read();
        let e = g.entries.get(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        let actual = e.data.checksum();
        if actual != e.checksum {
            Err(FsError::ChecksumMismatch { expected: e.checksum, actual })
        } else {
            Ok(e.checksum)
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::GenStamp;

    fn blk(id: u64, len: u64) -> Block {
        Block { id: BlockId(id), gen: GenStamp(1), len }
    }

    #[test]
    fn put_get_delete_round_trip() {
        let s = MemoryStore::new(1000);
        let data = BlockData::generate_real(100, 7);
        s.put(blk(1, 100), &data).unwrap();
        assert!(s.contains(BlockId(1)));
        assert_eq!(s.get(BlockId(1)).unwrap(), data);
        assert_eq!(s.used(), 100);
        assert_eq!(s.remaining(), 900);
        s.delete(BlockId(1)).unwrap();
        assert!(!s.contains(BlockId(1)));
        assert_eq!(s.used(), 0);
        assert!(matches!(s.get(BlockId(1)), Err(FsError::NotFound(_))));
    }

    #[test]
    fn rejects_duplicate_and_overflow() {
        let s = MemoryStore::new(150);
        let d = BlockData::generate_real(100, 1);
        s.put(blk(1, 100), &d).unwrap();
        assert!(matches!(s.put(blk(1, 100), &d), Err(FsError::AlreadyExists(_))));
        let d2 = BlockData::generate_real(100, 2);
        assert!(matches!(s.put(blk(2, 100), &d2), Err(FsError::OutOfCapacity(_))));
        // A smaller block still fits.
        let d3 = BlockData::generate_real(50, 3);
        s.put(blk(3, 50), &d3).unwrap();
    }

    #[test]
    fn rejects_length_mismatch() {
        let s = MemoryStore::new(1000);
        let d = BlockData::generate_real(100, 1);
        assert!(matches!(s.put(blk(1, 99), &d), Err(FsError::InvalidArgument(_))));
    }

    #[test]
    fn corruption_detected_on_get_and_verify() {
        let s = MemoryStore::new(1000);
        s.put(blk(1, 100), &BlockData::generate_real(100, 1)).unwrap();
        s.verify(BlockId(1)).unwrap();
        s.corrupt(BlockId(1)).unwrap();
        assert!(matches!(s.get(BlockId(1)), Err(FsError::ChecksumMismatch { .. })));
        assert!(matches!(s.verify(BlockId(1)), Err(FsError::ChecksumMismatch { .. })));
    }

    #[test]
    fn synthetic_blocks_supported() {
        let s = MemoryStore::new(u64::MAX);
        let d = BlockData::Synthetic { len: 1 << 30, seed: 9 };
        s.put(blk(1, 1 << 30), &d).unwrap();
        assert_eq!(s.get(BlockId(1)).unwrap(), d);
        assert_eq!(s.used(), 1 << 30);
        s.corrupt(BlockId(1)).unwrap();
        assert!(s.get(BlockId(1)).is_err());
    }

    #[test]
    fn block_report_lists_all() {
        let s = MemoryStore::new(1000);
        for i in 0..5u64 {
            s.put(blk(i, 10), &BlockData::generate_real(10, i)).unwrap();
        }
        let mut ids: Vec<u64> = s.blocks().iter().map(|b| b.block.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
