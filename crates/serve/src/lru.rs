//! The bounded least-recently-used map behind the service's two
//! admission caches: verified MVP programs (`service.rs`) and compiled
//! AP pattern sets (`session.rs`).

use std::collections::HashMap;
use std::hash::Hash;

/// A map of at most `CAP` entries. Every hit and every insert stamps
/// its entry with a logical clock; inserting a new key into a full map
/// evicts the entry with the oldest stamp. A lookup never allocates.
#[derive(Debug)]
pub(crate) struct Lru<K, V, const CAP: usize> {
    entries: HashMap<K, (u64, V)>,
    clock: u64,
}

impl<K, V, const CAP: usize> Default for Lru<K, V, CAP> {
    fn default() -> Self {
        Self { entries: HashMap::new(), clock: 0 }
    }
}

impl<K: Eq + Hash + Clone, V, const CAP: usize> Lru<K, V, CAP> {
    /// The value under `key`, now marked most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(stamp, value)| {
            *stamp = clock;
            &*value
        })
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// first evicting the least recently used one if `key` is new and
    /// the map is full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.entries.len() >= CAP && !self.entries.contains_key(&key) {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_map_evicts_the_least_recently_used_entry() {
        let mut lru: Lru<u32, &str, 3> = Lru::default();
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(3, "c");
        assert_eq!(lru.get(&1), Some(&"a"), "a hit refreshes entry 1");

        lru.insert(4, "d");
        assert_eq!(lru.get(&2), None, "entry 2 was the least recently used");
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
        assert_eq!(lru.get(&4), Some(&"d"));

        // Overwriting a present key at capacity evicts nothing.
        lru.insert(3, "c2");
        assert_eq!(lru.entries.len(), 3);
        assert_eq!(lru.get(&3), Some(&"c2"));
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&4), Some(&"d"));

        // Entry 3 is now the oldest stamp.
        lru.insert(5, "e");
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.entries.len(), 3);
    }
}
