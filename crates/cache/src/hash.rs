//! The cache's one hash function: a fixed multiply-xor mix.
//!
//! [`mix`] picks a [`ChunkId`](agar_ec::ChunkId)'s shard in the sharded
//! cache and, folded word by word through [`MixHasher`], keys the entry
//! and policy maps inside each shard. It replaces `HashMap`'s default
//! SipHash, which costs several times more per probe and is randomly
//! keyed per process. The keys are internal chunk ids, not
//! attacker-chosen input, so there is no flooding surface to defend.

use std::hash::{BuildHasherDefault, Hasher};

/// Mixes two words into one well-spread `u64`.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut h = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xA24B_AED4_963E_E407));
    h ^= h >> 32;
    h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A [`Hasher`] that folds every written word into its state with
/// [`mix`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MixHasher {
    state: u64,
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.state = mix(self.state, i);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The `BuildHasher` of every map inside the cache.
pub(crate) type MixState = BuildHasherDefault<MixHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{ChunkId, ObjectId};
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_fixed_across_builders() {
        let id = ChunkId::new(ObjectId::new(7), 3);
        assert_eq!(
            MixState::default().hash_one(id),
            MixState::default().hash_one(id)
        );
    }

    #[test]
    fn chunk_ids_spread_over_buckets() {
        // 300 objects × 12 chunks: no two ids may collide in 64 bits,
        // and the low 7 bits (a small table's bucket) must all be used.
        let state = MixState::default();
        let mut full = HashSet::new();
        let mut low = HashSet::new();
        for object in 0..300 {
            for index in 0..12u8 {
                let h = state.hash_one(ChunkId::new(ObjectId::new(object), index));
                assert!(full.insert(h), "collision at ({object}, {index})");
                low.insert(h & 0x7F);
            }
        }
        assert_eq!(low.len(), 128);
    }
}
