//! A pipeline-owned memo for the expensive pairwise distances (Formulas
//! 4–7 all reduce to record-pair distances, and the same pairs recur
//! across MRE verification, refinement, granularity repair, grouping and
//! family validation).
//!
//! Keys are interned *content encodings*: a record is keyed by a `u32`
//! word sequence holding the (type, position, attrs) of its lines and the
//! preorder tag-symbol walk of its tag forest — the exact inputs of `Drec`
//! ([`record_key`](crate::features::record_key)) — so two records with
//! identical rendered content share one entry even across pages. Line
//! attribute sets are interned by value into ids inside those words.
//! Looking up a key that is already interned allocates nothing. A few
//! cross-page inputs (grouping's forest keys, DSE's line texts) are keyed
//! by content strings instead; both kinds draw ids from one counter, so
//! they never share a memo slot. The memo itself is symmetric (`(a, b)`
//! and `(b, a)` hit the same slot) and safe to share across the worker
//! threads of one build (`RwLock` tables, atomic hit/miss counters).
//!
//! A cache instance is only valid for one [`MseConfig`](crate::MseConfig):
//! the memoized values bake in the distance weights, which the keys do not
//! encode. The pipeline creates one cache per build and drops it with the
//! build, which enforces this by construction.

use mse_render::LineAttrs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// What is known about a pair's distance.
#[derive(Clone, Copy, Debug)]
enum Memo {
    /// The exact distance.
    Exact(f64),
    /// Only that the distance exceeds this bound (stored when a bounded
    /// computation cut out early).
    GreaterThan(f64),
}

/// The key interning tables.
#[derive(Debug, Default)]
struct Keys {
    /// Content-string keys.
    strs: HashMap<String, u32>,
    /// Word-sequence keys (records).
    words: HashMap<Box<[u32]>, u32>,
    /// The next key id, shared by `strs` and `words`.
    next: u32,
    /// Line attribute sets → ids used inside word keys.
    attrs: HashMap<LineAttrs, u32>,
}

/// Symmetric pair-distance memo with interned content keys.
#[derive(Debug)]
pub struct DistanceCache {
    enabled: bool,
    keys: RwLock<Keys>,
    pairs: RwLock<HashMap<(u32, u32), Memo>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DistanceCache {
    pub fn new(enabled: bool) -> DistanceCache {
        DistanceCache {
            enabled,
            keys: RwLock::new(Keys::default()),
            pairs: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that memoizes nothing (every lookup recomputes).
    pub fn disabled() -> DistanceCache {
        DistanceCache::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a content key, returning its stable (within this cache) id.
    ///
    /// Lock poisoning is recovered from rather than propagated: the memo
    /// only caches pure distance computations, so a writer that panicked
    /// mid-insert leaves at worst a missing entry, never a wrong one.
    pub fn intern(&self, key: &str) -> u32 {
        if let Some(&id) = self.read_keys().strs.get(key) {
            return id;
        }
        let mut keys = self.write_keys();
        let Keys { strs, next, .. } = &mut *keys;
        *strs.entry(key.to_string()).or_insert_with(|| take_id(next))
    }

    /// Intern a word-sequence key (see
    /// [`record_key`](crate::features::record_key)); ids share one space
    /// with [`intern`](DistanceCache::intern)'s. A key already present
    /// costs one read-locked lookup and no allocation.
    pub fn intern_words(&self, key: &[u32]) -> u32 {
        if let Some(&id) = self.read_keys().words.get(key) {
            return id;
        }
        let mut keys = self.write_keys();
        let Keys { words, next, .. } = &mut *keys;
        *words.entry(key.into()).or_insert_with(|| take_id(next))
    }

    /// The id of a line attribute set, by value: equal sets get equal ids.
    pub fn attrs_id(&self, attrs: &LineAttrs) -> u32 {
        if let Some(&id) = self.read_keys().attrs.get(attrs) {
            return id;
        }
        let mut keys = self.write_keys();
        let next = keys.attrs.len() as u32;
        *keys.attrs.entry(attrs.clone()).or_insert(next)
    }

    /// Forget every key and memoized distance, keeping the tables'
    /// capacity: a long-lived owner (a serving worker) clears between
    /// requests so the memo's memory stays bounded by one page's records.
    /// The hit/miss counters keep counting. Ids handed out before a clear
    /// mean nothing after it, so clear only between uses (no live
    /// [`Features`](crate::Features) borrowing this cache).
    pub fn clear(&self) {
        // `HashMap::clear(..)`, not `.clear()`: srclint's call graph links
        // a bare `.clear()` to every workspace `clear`, this one included,
        // and would report a recursion.
        let mut keys = self.write_keys();
        HashMap::clear(&mut keys.strs);
        HashMap::clear(&mut keys.words);
        HashMap::clear(&mut keys.attrs);
        keys.next = 0;
        drop(keys);
        HashMap::clear(&mut self.pairs.write().unwrap_or_else(|p| p.into_inner()));
    }

    fn read_keys(&self) -> std::sync::RwLockReadGuard<'_, Keys> {
        self.keys.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_keys(&self) -> std::sync::RwLockWriteGuard<'_, Keys> {
        self.keys.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Memoized exact distance for an unordered pair.
    pub fn pair<F: FnOnce() -> f64>(&self, a: u32, b: u32, compute: F) -> f64 {
        self.pair_bounded(a, b, f64::INFINITY, |_| compute())
    }

    /// Memoized *bounded* distance for an unordered pair. `compute(bound)`
    /// must return the exact distance when it is `<= bound` and
    /// `f64::INFINITY` otherwise; this method has the same contract. A
    /// previous early-cutout at a lower bound never shadows a later query
    /// with a higher one (the pair is recomputed and upgraded to exact).
    pub fn pair_bounded<F: FnOnce(f64) -> f64>(
        &self,
        a: u32,
        b: u32,
        bound: f64,
        compute: F,
    ) -> f64 {
        if !self.enabled {
            return compute(bound);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        match self
            .pairs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
        {
            Some(Memo::Exact(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return if *v <= bound { *v } else { f64::INFINITY };
            }
            Some(Memo::GreaterThan(g)) if *g >= bound => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return f64::INFINITY;
            }
            _ => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute(bound);
        let mut pairs = self.pairs.write().unwrap_or_else(|p| p.into_inner());
        if v.is_finite() {
            pairs.insert(key, Memo::Exact(v));
        } else {
            match pairs.get(&key) {
                // Never downgrade: keep an exact value or a higher bound.
                Some(Memo::Exact(_)) => {}
                Some(Memo::GreaterThan(g)) if *g >= bound => {}
                _ => {
                    pairs.insert(key, Memo::GreaterThan(bound));
                }
            }
        }
        v
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the memo (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Hand out the next key id.
fn take_id(next: &mut u32) -> u32 {
    let id = *next;
    *next += 1;
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let c = DistanceCache::new(true);
        let a = c.intern("alpha");
        let b = c.intern("beta");
        assert_ne!(a, b);
        assert_eq!(c.intern("alpha"), a);
        assert_eq!(c.intern("beta"), b);
    }

    #[test]
    fn string_and_word_keys_share_one_id_space() {
        let c = DistanceCache::new(true);
        let s = c.intern("alpha");
        let w = c.intern_words(&[1, 2, 3]);
        assert_ne!(s, w);
        assert_eq!(c.intern_words(&[1, 2, 3]), w);
        assert_ne!(c.intern_words(&[1, 2]), w);
        assert_ne!(c.intern_words(&[]), w);
        assert_eq!(c.intern("alpha"), s);
    }

    #[test]
    fn attrs_are_interned_by_value() {
        use mse_render::TextAttr;
        let c = DistanceCache::new(true);
        let plain: LineAttrs = [TextAttr::default()].into_iter().collect();
        let bold: LineAttrs = [TextAttr {
            style: mse_render::FontStyle {
                bold: true,
                italic: false,
            },
            ..TextAttr::default()
        }]
        .into_iter()
        .collect();
        let a = c.attrs_id(&plain);
        assert_eq!(c.attrs_id(&plain.clone()), a);
        assert_ne!(c.attrs_id(&bold), a);
        assert_ne!(c.attrs_id(&LineAttrs::new()), a);
    }

    #[test]
    fn clear_forgets_keys_and_distances() {
        let c = DistanceCache::new(true);
        let k = c.intern_words(&[7]);
        c.pair(k, k, || 0.5);
        c.clear();
        let mut calls = 0;
        let k2 = c.intern_words(&[8]);
        assert_eq!(k2, k, "ids restart after clear");
        let v = c.pair(k2, k2, || {
            calls += 1;
            0.25
        });
        assert_eq!((v, calls), (0.25, 1), "memo survived clear");
    }

    #[test]
    fn pair_memo_is_symmetric_and_counts() {
        let c = DistanceCache::new(true);
        let mut calls = 0;
        let v1 = c.pair(1, 2, || {
            calls += 1;
            0.25
        });
        let v2 = c.pair(2, 1, || {
            calls += 1;
            99.0 // must not be called
        });
        assert_eq!(v1, 0.25);
        assert_eq!(v2, 0.25);
        assert_eq!(calls, 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_memo_upgrades() {
        let c = DistanceCache::new(true);
        // True distance 0.5, first asked with bound 0.2 → cut out.
        let v = c.pair_bounded(7, 8, 0.2, |b| if 0.5 <= b { 0.5 } else { f64::INFINITY });
        assert!(v.is_infinite());
        // Lower bound answered from memo.
        let v = c.pair_bounded(8, 7, 0.1, |_| unreachable!());
        assert!(v.is_infinite());
        // Higher bound recomputes and upgrades to exact.
        let v = c.pair_bounded(7, 8, 0.9, |b| if 0.5 <= b { 0.5 } else { f64::INFINITY });
        assert_eq!(v, 0.5);
        // Now even a low-bound query is answered (as INFINITY) from memo.
        let v = c.pair_bounded(7, 8, 0.2, |_| unreachable!());
        assert!(v.is_infinite());
        let v = c.pair(7, 8, || unreachable!());
        assert_eq!(v, 0.5);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let c = DistanceCache::disabled();
        let mut calls = 0;
        for _ in 0..3 {
            c.pair(1, 2, || {
                calls += 1;
                1.0
            });
        }
        assert_eq!(calls, 3);
        assert_eq!(c.hits() + c.misses(), 0);
    }
}
