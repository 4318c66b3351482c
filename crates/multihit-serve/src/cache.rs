//! LRU result cache keyed by a sample's packed bit-signature.
//!
//! Two requests naming the same mutated-gene set against the same panel are
//! the same computation, and real mutation profiles repeat heavily (a few
//! driver genes dominate), so the serving layer short-circuits repeats. The
//! key is the *packed* signature — the `Vec<u64>` bitset over the panel's
//! gene universe — not the raw gene-name list, so permuted or duplicated
//! gene lists hit the same entry.
//!
//! Recency is a doubly linked list threaded through a slot vector by index:
//! the map points each key at its slot, the head is the most recent entry
//! and the tail the least. A hit moves its slot to the head, and an insert
//! at capacity overwrites the tail slot, so every operation but `retain` is
//! O(1). A miss at the serving tier's default capacity of 4,096 used to
//! scan the whole map for the oldest entry, which cost more than scoring
//! the request. `retain` (the hot-swap purge) rebuilds the list in recency
//! order in O(n); it runs once per registry swap, never per request. Each
//! key is held twice, once by the map and once by its slot.

use std::collections::HashMap;
use std::hash::Hash;

/// Index of no slot: the `prev` of the head, the `next` of the tail.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.
pub struct LruCache<K, V> {
    cap: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next to be evicted.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `cap` entries; `cap == 0` disables caching
    /// (every lookup misses, inserts are dropped).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            map: HashMap::with_capacity(cap.min(4096)),
            slots: Vec::with_capacity(cap.min(4096)),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Put slot `i` (not in the list) at its head.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Make slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Look up `key`, refreshing its recency on hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let Some(&i) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(i);
        Some(self.slots[i].value.clone())
    }

    /// Insert `key → value`, evicting the least-recently-used entry when
    /// at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() < self.cap {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let i = self.tail;
            self.unlink(i);
            let old = std::mem::replace(&mut self.slots[i].key, key.clone());
            self.map.remove(&old);
            self.slots[i].value = value;
            self.evictions += 1;
            i
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Drop every entry whose key fails `keep`; returns how many entries
    /// were removed. Used by the serving shards to purge dead-generation
    /// entries after a registry hot swap — without this, retired verdicts
    /// squat in the map until LRU pressure happens to reach them, silently
    /// shrinking the cache's effective capacity during rollouts.
    pub fn retain(&mut self, keep: impl Fn(&K) -> bool) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, _| keep(k));
        // Lay the survivors out afresh, most recent first.
        let mut old: Vec<Option<Slot<K, V>>> = self.slots.drain(..).map(Some).collect();
        let mut i = self.head;
        while i != NIL {
            let slot = old[i].take().expect("each slot is linked once");
            i = slot.next;
            if let Some(at) = self.map.get_mut(&slot.key) {
                *at = self.slots.len();
                self.slots.push(slot);
            }
        }
        let n = self.slots.len();
        for (j, slot) in self.slots.iter_mut().enumerate() {
            slot.prev = if j == 0 { NIL } else { j - 1 };
            slot.next = if j + 1 == n { NIL } else { j + 1 };
        }
        (self.head, self.tail) = if n == 0 { (NIL, NIL) } else { (0, n - 1) };
        (before - n) as u64
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // a is now most recent
        c.insert("c", 3); // evicts b, not a
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // same key: no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn retain_drops_only_matching_keys() {
        let mut c = LruCache::new(8);
        for g in 1u64..=3 {
            c.insert((g, 7u32), g);
        }
        let removed = c.retain(|k| k.0 >= 2);
        assert_eq!(removed, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&(1, 7)), None);
        assert_eq!(c.get(&(2, 7)), Some(2));
        // Survivors keep working through later inserts and evictions.
        c.insert((4, 7), 4);
        assert_eq!(c.get(&(4, 7)), Some(4));
    }

    #[test]
    fn eviction_count_tracks_overflow() {
        let mut c = LruCache::new(1);
        c.insert(1u32, ());
        c.insert(2u32, ());
        c.insert(3u32, ());
        assert_eq!(c.stats().2, 2);
        assert_eq!(c.len(), 1);
    }

    /// The cache as it was before the recency list: a tick per entry and a
    /// scan for the oldest on overflow. Slow, but plainly exact LRU.
    struct TickLru<K, V> {
        cap: usize,
        tick: u64,
        map: HashMap<K, (V, u64)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl<K: Eq + Hash + Clone, V: Clone> TickLru<K, V> {
        fn new(cap: usize) -> Self {
            TickLru {
                cap,
                tick: 0,
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, key: &K) -> Option<V> {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some((v, t)) => {
                    *t = self.tick;
                    self.hits += 1;
                    Some(v.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: K, value: V) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, t))| *t)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    self.map.remove(&oldest);
                    self.evictions += 1;
                }
            }
            self.map.insert(key, (value, self.tick));
        }

        fn retain(&mut self, keep: impl Fn(&K) -> bool) -> u64 {
            let before = self.map.len();
            self.map.retain(|k, _| keep(k));
            (before - self.map.len()) as u64
        }

        fn stats(&self) -> (u64, u64, u64) {
            (self.hits, self.misses, self.evictions)
        }
    }

    /// `(op, key, value)`: op 0–4 is a get, 5–8 an insert, 9 a retain of
    /// the keys whose residue mod 3 differs from `value`'s. Keys come from
    /// a pool a little larger than the largest capacity, so hits, misses
    /// and evictions all happen.
    fn ops() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
        prop::collection::vec((0u32..10, 0u32..24, 0u32..3), 0..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_the_tick_scan_model(ops in ops()) {
            for cap in [0usize, 1, 2, 3, 17] {
                let mut lru = LruCache::new(cap);
                let mut model = TickLru::new(cap);
                for (step, &(op, key, value)) in ops.iter().enumerate() {
                    match op {
                        0..=4 => prop_assert_eq!(lru.get(&key), model.get(&key)),
                        5..=8 => {
                            lru.insert(key, value);
                            model.insert(key, value);
                        }
                        _ => {
                            let keep = |k: &u32| k % 3 != value;
                            prop_assert_eq!(lru.retain(keep), model.retain(keep));
                        }
                    }
                    prop_assert!(
                        lru.len() == model.map.len() && lru.stats() == model.stats(),
                        "cap {cap}, step {step}: len {} vs {}, stats {:?} vs {:?}",
                        lru.len(),
                        model.map.len(),
                        lru.stats(),
                        model.stats()
                    );
                }
            }
        }
    }
}
