//! LRU memoization of per-column WordPiece tokenization.
//!
//! Tokenizing a column is pure — the token ids depend only on the column's
//! text, the token budget, and the metadata flag — so serving can trade a
//! hash lookup for a full WordPiece pass whenever the same column comes
//! back. Real table corpora repeat columns constantly (shared dimension
//! tables, re-annotated tables, enum-like value sets), which is the same
//! amortize-shared-work lever the enumeration-under-compression literature
//! applies to repeated query structure.

use std::collections::HashMap;
use std::sync::Arc;

/// Snapshot of a [`TokenCache`]'s counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to tokenize.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries before eviction.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`0.0` when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    tokens: Arc<Vec<u32>>,
    /// Logical timestamp of the last touch; smallest = least recent.
    stamp: u64,
}

/// A least-recently-used map from serialized column text to token ids.
///
/// Values are `Arc`-shared so hits hand out the cached buffer without
/// copying. Eviction scans for the minimum stamp, which is `O(len)` but
/// only runs on insertion past capacity — cheap next to the WordPiece pass
/// it replaces at the capacities serving uses (thousands of entries).
pub struct TokenCache {
    map: HashMap<String, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl TokenCache {
    /// Creates a cache that holds at most `capacity` columns (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TokenCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the tokens for `key`, computing and caching them via
    /// `tokenize` on a miss. The least recently used entry is evicted when
    /// the cache is full, and hands its buffers on: the new key is written
    /// into the evicted key's `String`, the new tokens into the evicted
    /// vector (unless a caller still holds it, or it is too small). A scan
    /// of more columns than the cache holds misses on every lookup, and a
    /// free and an allocation of two small blocks per miss left the process
    /// heap in a different shape after every call.
    pub fn get_or_insert_with(
        &mut self,
        key: &str,
        tokenize: impl FnOnce() -> Vec<u32>,
    ) -> Arc<Vec<u32>> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(key) {
            e.stamp = self.clock;
            self.hits += 1;
            return Arc::clone(&e.tokens);
        }
        self.misses += 1;
        let fresh = tokenize();
        let evicted = if self.map.len() >= self.capacity {
            let oldest = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone());
            oldest.and_then(|k| self.map.remove_entry(&k))
        } else {
            None
        };
        let (key, tokens) = match evicted {
            Some((mut k, mut e)) => {
                k.clear();
                k.push_str(key);
                match Arc::get_mut(&mut e.tokens).filter(|v| v.capacity() >= fresh.len()) {
                    Some(v) => {
                        v.clear();
                        v.extend_from_slice(&fresh);
                    }
                    None => e.tokens = Arc::new(fresh),
                }
                (k, e.tokens)
            }
            None => (key.to_string(), Arc::new(fresh)),
        };
        self.map.insert(key, Entry { tokens: Arc::clone(&tokens), stamp: self.clock });
        tokens
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lookup_misses_second_hits() {
        let mut c = TokenCache::new(8);
        let a = c.get_or_insert_with("col-a", || vec![1, 2, 3]);
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 1, len: 1, capacity: 8 });
        let b = c.get_or_insert_with("col-a", || panic!("must not retokenize on a hit"));
        assert_eq!(*a, *b);
        assert_eq!(c.stats().hits, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut c = TokenCache::new(8);
        c.get_or_insert_with("x", || vec![1]);
        let y = c.get_or_insert_with("y", || vec![2]);
        assert_eq!(*y, vec![2]);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = TokenCache::new(2);
        c.get_or_insert_with("a", || vec![1]);
        c.get_or_insert_with("b", || vec![2]);
        // Touch "a" so "b" becomes the LRU entry.
        c.get_or_insert_with("a", || panic!("hit expected"));
        c.get_or_insert_with("c", || vec![3]);
        assert_eq!(c.stats().len, 2);
        // "a" survived, "b" was evicted.
        c.get_or_insert_with("a", || panic!("a must have survived eviction"));
        let before = c.stats().misses;
        c.get_or_insert_with("b", || vec![2]);
        assert_eq!(c.stats().misses, before + 1, "b must have been evicted");
    }

    #[test]
    fn eviction_hands_its_buffers_on() {
        let mut c = TokenCache::new(1);
        let a = Arc::as_ptr(&c.get_or_insert_with("a", || vec![1, 2, 3]));
        // Nobody holds the evicted vector and it is large enough: the new
        // entry is written into it.
        let b = c.get_or_insert_with("b", || vec![4, 5]);
        assert_eq!((Arc::as_ptr(&b), b.as_slice()), (a, &[4, 5][..]));
        // A caller still holds `b`: it keeps what it was given, and the new
        // entry gets a vector of its own.
        let d = c.get_or_insert_with("d", || vec![6]);
        assert_eq!((b.as_slice(), d.as_slice()), (&[4, 5][..], &[6][..]));
        assert_ne!(Arc::as_ptr(&d), Arc::as_ptr(&b));
        // Too small for the new tokens: replaced, not grown in place.
        drop(d);
        let e = c.get_or_insert_with("e", || vec![7; 64]);
        assert_eq!(e.as_slice(), [7; 64]);
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 4, len: 1, capacity: 1 });
        c.get_or_insert_with("e", || panic!("the newest entry must be resident"));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut c = TokenCache::new(0);
        c.get_or_insert_with("a", || vec![1]);
        assert_eq!(c.stats().capacity, 1);
        assert_eq!(c.stats().len, 1);
    }
}
