//! Deterministic hot-query result cache.
//!
//! Keys are *quantized* query vectors: each coordinate is bucketed by
//! `quant_step`, so numerically-close repeats of a hot query share an
//! entry. Eviction is exact LRU driven by a monotonic touch counter — no
//! hash-iteration order, no clocks — so the hit/miss/eviction sequence is
//! a pure function of the probe sequence and replays bit-identically.
//! Storage is a flat vector with linear probes: serving caches are small
//! (tens to hundreds of entries) and a scan keeps the structure trivially
//! deterministic.

use dataset::set::PointId;

/// Conversion of a query vector into a quantized cache key. The `Point`
/// trait is storage-agnostic (no coordinate access), so cacheable element
/// types opt in here.
pub trait QuantizeKey {
    /// The key: one bucket index per coordinate.
    fn quantize(&self, step: f32) -> Vec<i64>;
}

impl QuantizeKey for Vec<f32> {
    fn quantize(&self, step: f32) -> Vec<i64> {
        self.iter().map(|&x| (x / step).round() as i64).collect()
    }
}

impl QuantizeKey for Vec<u8> {
    /// Byte vectors are already discrete; `step` scales the bucket width
    /// (>= 1 merges adjacent codes).
    fn quantize(&self, step: f32) -> Vec<i64> {
        self.iter()
            .map(|&x| (x as f32 / step.max(1.0)).round() as i64)
            .collect()
    }
}

struct Entry {
    key: Vec<i64>,
    ids: Vec<PointId>,
    last_touch: u64,
}

/// Fixed-capacity LRU result cache over quantized keys.
pub struct ResultCache {
    entries: Vec<Entry>,
    capacity: usize,
    touch: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results (0 disables).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            touch: 0,
            evictions: 0,
        }
    }

    /// Look up `key`; a hit refreshes its LRU position and returns the
    /// cached result ids.
    pub fn get(&mut self, key: &[i64]) -> Option<Vec<PointId>> {
        self.touch += 1;
        let e = self.entries.iter_mut().find(|e| e.key == key)?;
        e.last_touch = self.touch;
        Some(e.ids.clone())
    }

    /// Insert (or refresh) `key -> ids`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn insert(&mut self, key: Vec<i64>, ids: Vec<PointId>) {
        if self.capacity == 0 {
            return;
        }
        self.touch += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.ids = ids;
            e.last_touch = self.touch;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Touch counters are unique, so the minimum is unambiguous.
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(i, _)| i)
                .expect("capacity > 0 implies at least one entry");
            self.entries.swap_remove(victim);
            self.evictions += 1;
        }
        self.entries.push(Entry {
            key,
            ids,
            last_touch: self.touch,
        });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_merges_close_queries() {
        let a = vec![0.10004f32, -1.0];
        let b = vec![0.09996f32, -1.0];
        let c = vec![0.2f32, -1.0];
        assert_eq!(a.quantize(1e-3), b.quantize(1e-3));
        assert_ne!(a.quantize(1e-3), c.quantize(1e-3));
        // u8 vectors quantize exactly at step 1.
        let u: Vec<u8> = vec![3, 200];
        assert_eq!(u.quantize(1.0), vec![3, 200]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(vec![1], vec![10]);
        c.insert(vec![2], vec![20]);
        assert_eq!(c.get(&[1]), Some(vec![10])); // refresh 1
        c.insert(vec![3], vec![30]); // evicts 2
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&[2]), None);
        assert_eq!(c.get(&[1]), Some(vec![10]));
        assert_eq!(c.get(&[3]), Some(vec![30]));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = ResultCache::new(2);
        c.insert(vec![1], vec![10]);
        c.insert(vec![2], vec![20]);
        c.insert(vec![1], vec![11]); // refresh, no eviction
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&[1]), Some(vec![11]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(vec![1], vec![10]);
        assert!(c.is_empty());
        assert_eq!(c.get(&[1]), None);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn probe_sequence_is_deterministic() {
        // Identical probe/insert sequences leave identical caches.
        let run = || {
            let mut c = ResultCache::new(3);
            let mut probes = Vec::new();
            for i in 0..50i64 {
                let key = vec![i % 7];
                let hit = c.get(&key);
                if hit.is_none() {
                    c.insert(key, vec![i as u32]);
                }
                probes.push(hit);
            }
            (probes, c.evictions(), c.len())
        };
        assert_eq!(run(), run());
    }
}
