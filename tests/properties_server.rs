//! Property test for the server's artifact cache: [`LruCache`] must
//! behave exactly like a recency-ordered `Vec` reference model — the
//! same `get` results, the same evicted entry from every `insert`, and
//! never more than `capacity` entries — for any interleaving of inserts
//! and lookups.

use dcnr_server::LruCache;
use proptest::prelude::*;

/// One cache operation over a small key universe (small on purpose:
/// collisions, re-inserts, and evictions all happen constantly).
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u16),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..2, 0u8..16, any::<u16>()).prop_map(|(tag, k, v)| {
        if tag == 0 {
            Op::Insert(k, v)
        } else {
            Op::Get(k)
        }
    })
}

/// The reference model: entries ordered least- to most-recently used.
struct Model {
    capacity: usize,
    entries: Vec<(u8, u16)>,
}

impl Model {
    /// Moves `k` to the most-recent end and returns its value.
    fn get(&mut self, k: u8) -> Option<u16> {
        let i = self.entries.iter().position(|&(key, _)| key == k)?;
        let entry = self.entries.remove(i);
        self.entries.push(entry);
        Some(entry.1)
    }

    /// Stores `k` as the most-recent entry; a new `k` in a full model
    /// first evicts the least-recent one, and hands it back.
    fn insert(&mut self, k: u8, v: u16) -> Option<(u8, u16)> {
        let evicted = match self.entries.iter().position(|&(key, _)| key == k) {
            Some(i) => {
                self.entries.remove(i);
                None
            }
            None if self.entries.len() >= self.capacity => Some(self.entries.remove(0)),
            None => None,
        };
        self.entries.push((k, v));
        evicted
    }
}

proptest! {
    #[test]
    fn lru_cache_matches_a_recency_ordered_reference_model(
        capacity in 1usize..8,
        ops in proptest::collection::vec(op_strategy(), 0..200)
    ) {
        let mut cache: LruCache<u8, u16> = LruCache::new(capacity);
        let mut model = Model { capacity, entries: Vec::new() };
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(cache.insert(k, v), model.insert(k, v)),
                Op::Get(k) => prop_assert_eq!(cache.get(&k).copied(), model.get(k)),
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.entries.len());
        }
    }
}
