//! Least Recently Used eviction.
//!
//! The recency order is a doubly linked list threaded through a `Vec`
//! slab by index: the head is the least recently used key, the tail the
//! most recent. A key map finds a key's slot, so insert, access,
//! removal and eviction are each one hash probe plus a few index
//! writes, `O(1)`. Freed slots form a free list reused by later
//! inserts, so the slab never grows past the peak number of keys.

use crate::hash::MixState;
use crate::policy::EvictionPolicy;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// The end-of-list marker for slab links.
const NIL: usize = usize::MAX;

/// One slab slot: a tracked key with its neighbours in recency order,
/// or a free slot whose `next` links the free list (its key is stale
/// until the slot is reused).
#[derive(Clone, Debug)]
struct Slot<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// Least Recently Used policy state.
#[derive(Clone, Debug)]
pub struct Lru<K> {
    slots: Vec<Slot<K>>,
    /// Least recently used slot.
    head: usize,
    /// Most recently used slot.
    tail: usize,
    /// First free slot.
    free: usize,
    by_key: HashMap<K, usize, MixState>,
}

impl<K: Eq + Hash + Clone> Default for Lru<K> {
    fn default() -> Self {
        Lru::new()
    }
}

impl<K: Eq + Hash + Clone> Lru<K> {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Lru {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            by_key: HashMap::default(),
        }
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Appends a detached `slot` as the most recently used.
    fn push_back(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t].next = slot,
        }
        self.tail = slot;
    }

    /// Stores `key` in a free slot (or a new one) and returns it,
    /// detached.
    fn alloc(&mut self, key: K) -> usize {
        match self.free {
            NIL => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
            slot => {
                self.free = self.slots[slot].next;
                self.slots[slot].key = key;
                slot
            }
        }
    }

    /// Unlinks `slot` and returns it to the free list.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        self.slots[slot].next = self.free;
        self.free = slot;
    }

    fn touch(&mut self, key: &K) {
        match self.by_key.get(key) {
            Some(&slot) => {
                if slot != self.tail {
                    self.unlink(slot);
                    self.push_back(slot);
                }
            }
            None => {
                let slot = self.alloc(key.clone());
                self.push_back(slot);
                self.by_key.insert(key.clone(), slot);
            }
        }
    }

    /// The current least recently used key, if any (does not remove it).
    pub fn peek_lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.slots[self.head].key)
    }

    /// Keys from least to most recently used (test/diagnostic helper).
    pub fn iter_lru_order(&self) -> impl Iterator<Item = &K> {
        let first = (self.head != NIL).then_some(self.head);
        std::iter::successors(first, |&slot| {
            let next = self.slots[slot].next;
            (next != NIL).then_some(next)
        })
        .map(|slot| &self.slots[slot].key)
    }
}

impl<K: Eq + Hash + Clone + Debug> EvictionPolicy<K> for Lru<K> {
    fn on_insert(&mut self, key: &K) {
        self.touch(key);
    }

    fn on_access(&mut self, key: &K) {
        debug_assert!(
            self.by_key.contains_key(key),
            "access to untracked key {key:?}"
        );
        self.touch(key);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(slot) = self.by_key.remove(key) {
            self.release(slot);
        }
    }

    fn evict_candidate(&mut self) -> Option<K> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        self.release(slot);
        // The map hands back its own copy of the key.
        self.by_key
            .remove_entry(&self.slots[slot].key)
            .map(|(key, _)| key)
    }

    fn tracked(&self) -> usize {
        self.by_key.len()
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// The previous `BTreeMap`-ordered LRU, kept as the oracle for the
/// differential test: every insert or access takes a fresh sequence
/// number, and the smallest live sequence is the victim.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, HashMap};
    use std::hash::Hash;

    #[derive(Debug, Default)]
    pub(super) struct Lru<K> {
        seq: u64,
        by_seq: BTreeMap<u64, K>,
        by_key: HashMap<K, u64>,
    }

    impl<K: Eq + Hash + Clone> Lru<K> {
        pub(super) fn new() -> Self {
            Lru {
                seq: 0,
                by_seq: BTreeMap::new(),
                by_key: HashMap::new(),
            }
        }

        pub(super) fn touch(&mut self, key: &K) {
            if let Some(old) = self.by_key.get(key).copied() {
                self.by_seq.remove(&old);
            }
            let seq = self.seq;
            self.seq += 1;
            self.by_seq.insert(seq, key.clone());
            self.by_key.insert(key.clone(), seq);
        }

        pub(super) fn contains(&self, key: &K) -> bool {
            self.by_key.contains_key(key)
        }

        pub(super) fn remove(&mut self, key: &K) {
            if let Some(seq) = self.by_key.remove(key) {
                self.by_seq.remove(&seq);
            }
        }

        pub(super) fn evict(&mut self) -> Option<K> {
            let (&seq, _) = self.by_seq.iter().next()?;
            let key = self.by_seq.remove(&seq).expect("peeked entry exists");
            self.by_key.remove(&key);
            Some(key)
        }

        pub(super) fn peek_lru(&self) -> Option<&K> {
            self.by_seq.values().next()
        }

        pub(super) fn iter_lru_order(&self) -> impl Iterator<Item = &K> {
            self.by_seq.values()
        }

        pub(super) fn tracked(&self) -> usize {
            self.by_key.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        for k in 1..=3u32 {
            lru.on_insert(&k);
        }
        assert_eq!(lru.evict_candidate(), Some(1));
        assert_eq!(lru.evict_candidate(), Some(2));
        assert_eq!(lru.evict_candidate(), Some(3));
        assert_eq!(lru.evict_candidate(), None);
    }

    #[test]
    fn access_refreshes_recency() {
        let mut lru = Lru::new();
        for k in 1..=3u32 {
            lru.on_insert(&k);
        }
        lru.on_access(&1); // 1 becomes most recent
        assert_eq!(lru.evict_candidate(), Some(2));
        assert_eq!(lru.evict_candidate(), Some(3));
        assert_eq!(lru.evict_candidate(), Some(1));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut lru = Lru::new();
        lru.on_insert(&1u32);
        lru.on_insert(&2);
        lru.on_insert(&1); // refresh, not duplicate
        assert_eq!(lru.tracked(), 2);
        assert_eq!(lru.evict_candidate(), Some(2));
    }

    #[test]
    fn remove_untracks() {
        let mut lru = Lru::new();
        lru.on_insert(&1u32);
        lru.on_insert(&2);
        lru.on_remove(&1);
        assert_eq!(lru.tracked(), 1);
        assert_eq!(lru.evict_candidate(), Some(2));
        // Removing an unknown key is a no-op.
        lru.on_remove(&99);
        assert_eq!(lru.tracked(), 0);
    }

    #[test]
    fn peek_and_order_iteration() {
        let mut lru = Lru::new();
        for k in [10u32, 20, 30] {
            lru.on_insert(&k);
        }
        lru.on_access(&10);
        assert_eq!(lru.peek_lru(), Some(&20));
        let order: Vec<u32> = lru.iter_lru_order().copied().collect();
        assert_eq!(order, vec![20, 30, 10]);
    }

    /// SplitMix64: a seeded operation stream for the differential test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn slab_list_matches_the_btreemap_reference() {
        // Miri checks the slab's index arithmetic on a shorter stream.
        let (seeds, steps) = if cfg!(miri) { (4, 300) } else { (64, 2_000) };
        for seed in 0..seeds {
            let mut state = seed;
            let mut lru = Lru::new();
            let mut oracle = reference::Lru::new();
            // A small key space makes re-inserts, accesses of live keys
            // and removals of unknown keys all frequent.
            let keys = 2 + seed % 24;
            for step in 0..steps {
                let key = next(&mut state) % keys;
                match next(&mut state) % 10 {
                    // Insert, or re-insert of a live key.
                    0..=2 => {
                        lru.on_insert(&key);
                        oracle.touch(&key);
                    }
                    // Access (only of tracked keys, as the cache does).
                    3..=5 => {
                        if oracle.contains(&key) {
                            lru.on_access(&key);
                            oracle.touch(&key);
                        }
                    }
                    // Remove, possibly of an unknown key.
                    6 | 7 => {
                        lru.on_remove(&key);
                        oracle.remove(&key);
                    }
                    // Evict, possibly from an empty policy.
                    _ => {
                        assert_eq!(
                            lru.evict_candidate(),
                            oracle.evict(),
                            "seed {seed} step {step}"
                        );
                    }
                }
                assert_eq!(lru.tracked(), oracle.tracked(), "seed {seed} step {step}");
                assert_eq!(lru.peek_lru(), oracle.peek_lru(), "seed {seed} step {step}");
                assert!(
                    lru.iter_lru_order().eq(oracle.iter_lru_order()),
                    "seed {seed} step {step}"
                );
            }
            // Draining yields the same victim sequence to the end.
            loop {
                let victim = lru.evict_candidate();
                assert_eq!(victim, oracle.evict(), "seed {seed} drain");
                if victim.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut lru = Lru::new();
        for round in 0..100u32 {
            for k in 0..4 {
                lru.on_insert(&(round * 4 + k));
            }
            while lru.evict_candidate().is_some() {}
        }
        assert_eq!(lru.slots.len(), 4);
    }
}
