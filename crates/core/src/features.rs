//! The paper's §4.3/§4.4 measures: record distance (Formula 4),
//! inter-record distance (5), record diversity (6) and section cohesion
//! (7), computed over line ranges of a [`Page`].

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::page::Page;
use mse_dom::intern::Symbol;
use mse_dom::{Dom, NodeId};
use mse_render::block::{dbp, dbs, dbt, dbta};
use mse_treedit::{forest_distance, forest_distance_bounded, TagTree, MAX_TREE_DEPTH};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A record: a half-open range of content lines on one page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rec {
    pub start: usize,
    pub end: usize,
}

impl Rec {
    pub fn new(start: usize, end: usize) -> Rec {
        debug_assert!(start < end, "empty record {start}..{end}");
        Rec { start, end }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    pub fn contains_line(&self, line: usize) -> bool {
        (self.start..self.end).contains(&line)
    }
}

/// Reusable buffers for [`record_key`].
#[derive(Default)]
pub struct KeyScratch {
    words: Vec<u32>,
    nodes: Vec<NodeId>,
}

/// The word closing a tree in a record key. Tag symbols never take this
/// value ([`Symbol::NONE`]).
const CLOSE: u32 = Symbol::NONE.0;

/// Intern record `r`'s memo key in `cache` and return its id. The key is
/// the exact input of `Drec`, encoded as words: the line count, then per
/// line its type code, position and attribute-set id, then the tag forest
/// as a preorder walk of tag symbols, each tree closed by [`CLOSE`] — the
/// trees [`Page::forest`] would lift (same node filter, same depth cap),
/// without building them. Equal keys ⇔ equal forests (labels and shape)
/// and equal line encodings. Once the record's key and attribute sets
/// are interned, this allocates nothing (given warmed `scratch`).
pub fn record_key(cache: &DistanceCache, page: &Page, r: Rec, scratch: &mut KeyScratch) -> u32 {
    let rp = &page.rp;
    let lines = rp.lines.get(r.start..r.end).unwrap_or(&[]);
    let words = &mut scratch.words;
    words.clear();
    words.push(lines.len() as u32);
    for l in lines {
        words.push(u32::from(l.ltype.code()));
        words.push(l.pos as u32);
        words.push(cache.attrs_id(&l.attrs));
    }
    rp.forest_of_range_into(r.start, r.end, &mut scratch.nodes);
    let labels = &rp.sigs.labels;
    for &n in &scratch.nodes {
        if labels.get(n.index()).is_some_and(|l| !l.is_none()) {
            encode_tree(&rp.dom, labels, n, 0, words);
        }
    }
    cache.intern_words(words)
}

/// Append the preorder open/close walk of the tag tree at `n`, as
/// [`TagTree::from_dom`] builds it: children are the element and
/// non-whitespace text nodes (exactly those with a label), and nodes at
/// the depth cap become leaves.
fn encode_tree(dom: &Dom, labels: &[Symbol], n: NodeId, depth: usize, out: &mut Vec<u32>) {
    out.push(labels.get(n.index()).map_or(CLOSE, |l| l.0));
    if depth < MAX_TREE_DEPTH {
        for c in dom.children(n) {
            if labels.get(c.index()).is_some_and(|l| !l.is_none()) {
                encode_tree(dom, labels, c, depth + 1, out);
            }
        }
    }
    out.push(CLOSE);
}

/// Feature calculator with a per-page tag-forest cache (forest lifting is
/// the expensive part of `Drec`) and an optional shared [`DistanceCache`]
/// memoizing record-pair distances across pages and `Features` instances.
pub struct Features<'a> {
    pub page: &'a Page,
    pub cfg: &'a MseConfig,
    cache: Option<&'a DistanceCache>,
    forests: HashMap<(usize, usize), Vec<TagTree>>,
    keys: HashMap<(usize, usize), u32>,
    key_scratch: KeyScratch,
    divs: HashMap<(usize, usize), f64>,
}

impl<'a> Features<'a> {
    pub fn new(page: &'a Page, cfg: &'a MseConfig) -> Features<'a> {
        Features {
            page,
            cfg,
            cache: None,
            forests: HashMap::new(),
            keys: HashMap::new(),
            key_scratch: KeyScratch::default(),
            divs: HashMap::new(),
        }
    }

    /// A calculator backed by a build-owned pair memo: `Drec` values for
    /// content-identical record pairs are computed once per cache lifetime
    /// instead of once per `Features` instance.
    pub fn with_cache(
        page: &'a Page,
        cfg: &'a MseConfig,
        cache: &'a DistanceCache,
    ) -> Features<'a> {
        Features {
            cache: Some(cache),
            ..Features::new(page, cfg)
        }
    }

    fn ensure_forest(&mut self, r: Rec) {
        if !self.forests.contains_key(&(r.start, r.end)) {
            let f = self.page.forest(r.start, r.end);
            self.forests.insert((r.start, r.end), f);
        }
    }

    /// The record's interned content key ([`record_key`]) — exactly the
    /// inputs of `Drec`, so equal keys imply equal distances. Tag trees
    /// are lifted only when a pair misses the memo.
    fn rec_key(&mut self, cache: &DistanceCache, r: Rec) -> u32 {
        if let Some(&k) = self.keys.get(&(r.start, r.end)) {
            return k;
        }
        let k = record_key(cache, self.page, r, &mut self.key_scratch);
        self.keys.insert((r.start, r.end), k);
        k
    }

    /// Record distance `Drec` (Formula 4):
    /// `v1·Dtf + v2·Dbt + v3·Dbs + v4·Dbp + v5·Dbta`.
    pub fn drec(&mut self, a: Rec, b: Rec) -> f64 {
        self.drec_bounded(a, b, f64::INFINITY)
    }

    /// Bounded record distance: the exact `Drec` when it is `<= bound`,
    /// `f64::INFINITY` otherwise (computed with the banded edit distance,
    /// so a hopeless pair costs little). Values `<= bound` are bit-exact
    /// equal to the unbounded result.
    ///
    /// Without an enabled cache this runs the *reference* engine — the
    /// full unbounded `Drec` compared against `bound` afterwards — so
    /// benchmarks can A/B the optimized distance engine against the
    /// textbook evaluation. Both modes return identical values. Builds,
    /// `extract_batch` and the serving daemon pass an enabled cache; the
    /// one-shot entry points (`extract_with_query`, `extract_page`,
    /// `try_extract`) and the reference matcher pass
    /// [`DistanceCache::disabled`] and so stay on the reference engine.
    pub fn drec_bounded(&mut self, a: Rec, b: Rec, bound: f64) -> f64 {
        match self.cache {
            Some(cache) if cache.enabled() => {
                let ka = self.rec_key(cache, a);
                let kb = self.rec_key(cache, b);
                cache.pair_bounded(ka, kb, bound, |bd| self.drec_raw(a, b, bd))
            }
            _ => {
                let d = self.drec_raw(a, b, f64::INFINITY);
                if d > bound {
                    f64::INFINITY
                } else {
                    d
                }
            }
        }
    }

    fn drec_raw(&mut self, a: Rec, b: Rec, bound: f64) -> f64 {
        let v = self.cfg.v;
        let la = &self.page.rp.lines[a.start..a.end];
        let lb = &self.page.rp.lines[b.start..b.end];
        let cheap = v.1 * dbt(la, lb) + v.2 * dbs(la, lb) + v.3 * dbp(la, lb) + v.4 * dbta(la, lb);
        if cheap > bound {
            return f64::INFINITY; // Dtf >= 0 cannot bring the sum back down
        }
        self.ensure_forest(a);
        self.ensure_forest(b);
        let fa = &self.forests[&(a.start, a.end)];
        let fb = &self.forests[&(b.start, b.end)];
        let dtf = if bound.is_finite() && v.0 > 0.0 {
            forest_distance_bounded(fa, fb, (bound - cheap) / v.0)
        } else {
            forest_distance(fa, fb)
        };
        if !dtf.is_finite() {
            return f64::INFINITY;
        }
        let d = v.0 * dtf + cheap;
        if d > bound {
            f64::INFINITY
        } else {
            d
        }
    }

    /// Inter-record distance `Dinr` (Formula 5): mean pairwise `Drec` over
    /// the records of a section. Zero for fewer than two records.
    pub fn dinr(&mut self, records: &[Rec]) -> f64 {
        let n = records.len();
        if n < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                sum += self.drec(records[i], records[j]);
            }
        }
        sum / (n * (n - 1) / 2) as f64
    }

    /// `Dinr(records) > threshold`, with early exit: as soon as the
    /// accumulated pair distances already force the mean over the
    /// threshold, the remaining pairs are skipped, and each pair itself
    /// runs under a bound (distances are non-negative, so a partial sum
    /// exceeding `threshold × pairs` settles the comparison).
    pub fn dinr_exceeds(&mut self, records: &[Rec], threshold: f64) -> bool {
        let n = records.len();
        if n < 2 {
            return 0.0 > threshold;
        }
        let budget = threshold * (n * (n - 1) / 2) as f64;
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                let d = self.drec_bounded(records[i], records[j], budget - sum);
                if !d.is_finite() {
                    return true;
                }
                sum += d;
            }
        }
        sum > budget
    }

    /// `Dinr` under a bound: returns the exact mean pairwise distance when
    /// it is ≤ `bound`, and `f64::INFINITY` as soon as the accumulated
    /// pair distances force the mean over `bound` (remaining pairs are
    /// skipped; each pair itself runs under the leftover budget).
    pub fn dinr_bounded(&mut self, records: &[Rec], bound: f64) -> f64 {
        let n = records.len();
        if n < 2 {
            return if 0.0 > bound { f64::INFINITY } else { 0.0 };
        }
        let pairs = (n * (n - 1) / 2) as f64;
        let budget = bound * pairs;
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                let d = self.drec_bounded(records[i], records[j], budget - sum);
                if !d.is_finite() {
                    return f64::INFINITY;
                }
                sum += d;
            }
        }
        if sum > budget {
            f64::INFINITY
        } else {
            sum / pairs
        }
    }

    /// Record diversity `Div` (Formula 6): mean pairwise line distance
    /// within one record. Zero for single-line records.
    pub fn div(&mut self, r: Rec) -> f64 {
        if let Some(&d) = self.divs.get(&(r.start, r.end)) {
            return d;
        }
        let lines = &self.page.rp.lines[r.start..r.end];
        let m = lines.len();
        if m < 2 {
            self.divs.insert((r.start, r.end), 0.0);
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..m - 1 {
            for j in i + 1..m {
                sum += lines[i].distance(&lines[j], self.cfg.u);
            }
        }
        let d = sum / (m * (m - 1) / 2) as f64;
        self.divs.insert((r.start, r.end), d);
        d
    }

    /// Section cohesion `Cohs` (Formula 7):
    /// `(Σ Div(rᵢ) / n) / (1 + Dinr(S))`.
    pub fn cohesion(&mut self, records: &[Rec]) -> f64 {
        let n = records.len();
        if n == 0 {
            return 0.0;
        }
        let avg_div = records.iter().map(|&r| self.div(r)).sum::<f64>() / n as f64;
        avg_div / (1.0 + self.dinr(records))
    }

    /// Average record distance between one record and a set (`Davgrs`,
    /// §5.3/§5.5).
    pub fn davgrs(&mut self, r: Rec, set: &[Rec]) -> f64 {
        if set.is_empty() {
            return f64::INFINITY;
        }
        set.iter().map(|&o| self.drec(r, o)).sum::<f64>() / set.len() as f64
    }

    /// `Davgrs(r, set) > threshold` with the same early-exit scheme as
    /// [`dinr_exceeds`](Self::dinr_exceeds). An empty set is infinitely
    /// far (exceeds any finite threshold).
    pub fn davgrs_exceeds(&mut self, r: Rec, set: &[Rec], threshold: f64) -> bool {
        if set.is_empty() {
            return threshold.is_finite();
        }
        let budget = threshold * set.len() as f64;
        let mut sum = 0.0;
        for &o in set {
            let d = self.drec_bounded(r, o, budget - sum);
            if !d.is_finite() {
                return true;
            }
            sum += d;
        }
        sum > budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(html: &str) -> Page {
        Page::from_html(html, None)
    }

    fn recs(bounds: &[(usize, usize)]) -> Vec<Rec> {
        bounds.iter().map(|&(s, e)| Rec::new(s, e)).collect()
    }

    /// Three same-format records: title link + snippet, in divs.
    fn uniform_section() -> Page {
        page(concat!(
            "<body><div class=r><a href=1>Alpha result one</a><br>first snippet text</div>",
            "<div class=r><a href=2>Beta result two</a><br>second snippet body</div>",
            "<div class=r><a href=3>Gamma result three</a><br>third snippet words</div></body>"
        ))
    }

    #[test]
    fn drec_zero_for_identical_format() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let d = f.drec(Rec::new(0, 2), Rec::new(2, 4));
        assert!(d < 0.05, "d = {d}");
    }

    #[test]
    fn drec_large_for_different_format() {
        let p = page(concat!(
            "<body><div><a href=1>t</a><br>s</div>",
            "<table><tr><td>1.</td><td>x</td><td><input type=submit></td></tr></table></body>"
        ));
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let d = f.drec(Rec::new(0, 2), Rec::new(2, 5));
        assert!(d > 0.3, "d = {d}");
    }

    #[test]
    fn dinr_mean_of_pairs() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let rs = recs(&[(0, 2), (2, 4), (4, 6)]);
        let d = f.dinr(&rs);
        assert!((0.0..0.05).contains(&d), "dinr = {d}");
        assert_eq!(f.dinr(&rs[..1]), 0.0);
        assert_eq!(f.dinr(&[]), 0.0);
    }

    #[test]
    fn div_measures_within_record_dissimilarity() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        // link line vs text line within a record → diverse
        let d = f.div(Rec::new(0, 2));
        assert!(d > 0.2, "div = {d}");
        // single line → 0
        assert_eq!(f.div(Rec::new(0, 1)), 0.0);
    }

    #[test]
    fn cohesion_prefers_correct_partition() {
        // The §4.4 claim: the correct per-record partition has higher
        // cohesion than both the everything-in-one-record partition and the
        // one-line-per-record partition.
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let correct = recs(&[(0, 2), (2, 4), (4, 6)]);
        let merged = recs(&[(0, 6)]);
        let shredded = recs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let c_correct = f.cohesion(&correct);
        let c_merged = f.cohesion(&merged);
        let c_shredded = f.cohesion(&shredded);
        assert!(
            c_correct > c_merged && c_correct > c_shredded,
            "correct={c_correct} merged={c_merged} shredded={c_shredded}"
        );
    }

    #[test]
    fn davgrs_foreign_record_far() {
        let p = page(concat!(
            "<body><div class=r><a href=1>Alpha one</a><br>first snippet</div>",
            "<div class=r><a href=2>Beta two</a><br>second snippet</div>",
            "<div class=r><a href=3>Gamma three</a><br>third snippet</div>",
            "<h3>Header line</h3></body>"
        ));
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let section = recs(&[(0, 2), (2, 4), (4, 6)]);
        let header = Rec::new(6, 7);
        let d_foreign = f.davgrs(header, &section);
        let d_member = f.davgrs(section[0], &section[1..]);
        assert!(
            d_foreign > 3.0 * d_member.max(0.01),
            "foreign={d_foreign} member={d_member}"
        );
        assert_eq!(f.davgrs(header, &[]), f64::INFINITY);
    }
}
