//! A small least-recently-used map for the rendered-artifact cache.
//!
//! Deliberately simple: a `HashMap` plus a logical access clock, with an
//! O(capacity) scan on eviction. The server caches at most a few hundred
//! rendered reports (each worth seconds of simulation), so eviction cost
//! is noise next to a single miss; in exchange there is no unsafe code
//! and no intrusive list to get wrong.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(t, v)| {
            *t = tick;
            &*v
        })
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry
    /// if the cache is at capacity and `key` is new. Returns the evicted
    /// key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        let mut evicted = None;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                evicted = Some(oldest);
            }
        }
        self.entries.insert(key, (self.tick, value));
        evicted
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.insert("a", 1), None);
        assert_eq!(cache.insert("b", 2), None);
        assert_eq!(cache.get("a"), Some(&1)); // refresh a; b is now LRU
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(&1));
        assert_eq!(cache.get("c"), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a"), Some(&10));
        assert_eq!(cache.get("b"), Some(&2));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, "x");
        cache.insert(2, "y");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&2), Some(&"y"));
    }
}
