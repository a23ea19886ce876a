//! Compiled wrappers: the allocation-free matcher, and the only one
//! production code runs.
//!
//! [`apply_wrapper`](crate::wrapper::apply_wrapper) states the matching
//! rule for clarity: every candidate container re-derives child start
//! chains as heap `String`s, compares separators by string equality, and
//! maps node groups to line ranges by scanning the page. Once a wrapper is
//! learned, though, it is applied to *every* subsequent result page of its
//! engine — the paper's §6 steps 8–9 — so this module compiles a
//! [`SectionWrapperSet`] into an integer-only form keyed by the global
//! tag interner ([`mse_dom::intern`]):
//!
//! * tag-path steps become [`Symbol`] comparisons ([`CompiledStep`]),
//! * separator start chains become fixed-width `[Symbol; 3]` triples
//!   matched against the per-node chains precomputed at render time
//!   ([`mse_render::PageSigs`]),
//! * record line spans come from the render-time per-node span table
//!   instead of page scans,
//! * all intermediate state lives in a reusable [`ExtractScratch`] arena,
//!   so steady-state *matching* performs zero heap allocation per page.
//!   Two steps allocate, and only for pages that actually match:
//!   materializing the final [`Extraction`] (owned strings), and the
//!   family Dinr check. The latter builds a per-page [`Features`] (its
//!   range-keyed maps), interns first-seen record keys and line attribute
//!   sets into the [`DistanceCache`], and lifts `TagTree`s for record
//!   pairs the memo misses — or for every pair when the cache is
//!   disabled, as on the one-shot entry points. Encoding and looking up
//!   an already-interned record key allocates nothing.
//!
//! Every extraction entry point runs it, and so does wrapper build's
//! self-validation step (one wrapper at a time, through a build-owned
//! scratch). The string matcher
//! ([`SectionWrapperSet::extract_page_legacy_cached`]) stays only as the
//! reference: symbol equality is string equality (the interner is
//! injective), chain triples are injective images of chain strings (labels
//! never contain `>`), and the candidate enumeration / tie-breaking order
//! mirrors the reference line for line. The differential test in `tests/`
//! and the `serve` benchmark's `identical_extractions` check both hold the
//! two to byte-identical output.

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::error::{Diagnostic, Stage};
use crate::family::FamilyWrapper;
use crate::features::{Features, Rec};
use crate::page::Page;
use crate::pipeline::{
    ExtractedRecord, ExtractedSection, Extraction, SchemaId, SectionWrapperSet, StageClock,
};
use crate::wrapper::SectionWrapper;
use mse_dom::intern::{self, Symbol};
use mse_dom::{Dom, NodeId};
use mse_render::PageSigs;

/// Depth of a start chain (`tr>td>a`), fixed by the wrapper grammar.
pub const CHAIN_DEPTH: usize = 3;

/// A start chain as a fixed-width symbol triple, [`Symbol::NONE`]-padded.
/// Triple equality ⇔ chain-string equality: labels are tag names, `#text`
/// or `#node`, none of which contain the `>` join character.
pub type ChainSig = [Symbol; CHAIN_DEPTH];

/// One merged-tag-path step with its tag interned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledStep {
    pub tag: Symbol,
    pub min_s: usize,
    pub max_s: usize,
}

/// The integer form of a [`SectionWrapper`]: interned container path and
/// sorted separator triples. Marker texts stay on the borrowed legacy
/// wrapper (they are compared rarely — once per candidate boundary — and
/// against per-page cleaned strings that exist anyway).
#[derive(Clone, Debug)]
pub struct CompiledWrapper {
    pub pref: Vec<CompiledStep>,
    /// Sorted for binary-search membership. Separators longer than
    /// [`CHAIN_DEPTH`] segments are dropped at compile time: a page chain
    /// never has more than [`CHAIN_DEPTH`] labels, so such a separator can
    /// never match (legacy agrees — string equality fails).
    pub seps: Vec<ChainSig>,
}

/// The integer form of a [`FamilyWrapper`].
#[derive(Clone, Debug)]
pub struct CompiledFamily {
    /// Type 1: interned merged path. Type 2: `None`, prefix/suffix used.
    pub pref: Option<Vec<CompiledStep>>,
    pub prefix: Vec<Symbol>,
    pub suffix: Vec<Symbol>,
    pub seps: Vec<ChainSig>,
}

/// A wrapper set compiled against the global interner, borrowing the
/// legacy set for configuration, marker texts and attribute tables.
#[derive(Clone, Debug)]
pub struct CompiledWrapperSet<'w> {
    pub set: &'w SectionWrapperSet,
    pub wrappers: Vec<CompiledWrapper>,
    pub families: Vec<CompiledFamily>,
}

/// The owned half of a compiled set: the integer-form wrappers and
/// families without the borrow of their source [`SectionWrapperSet`].
///
/// This is the piece a long-lived server caches per worker: the source
/// set lives behind an `Arc` in its registry, the parts live in the
/// worker's cache, and [`CompiledParts::bind`] reunites them into a
/// [`CompiledRef`] per request without allocating. Parts are only valid
/// against the exact set they were compiled from (and the interner state
/// at compile time) — rebinding them to a different set is a logic error,
/// which is why server caches key them by registry epoch.
#[derive(Clone, Debug, Default)]
pub struct CompiledParts {
    pub wrappers: Vec<CompiledWrapper>,
    pub families: Vec<CompiledFamily>,
}

impl CompiledParts {
    /// Reunite these parts with the set they were compiled from.
    pub fn bind<'a>(&'a self, set: &'a SectionWrapperSet) -> CompiledRef<'a> {
        CompiledRef {
            set,
            wrappers: &self.wrappers,
            families: &self.families,
        }
    }
}

/// A borrowed view of a compiled wrapper set — the form every extraction
/// method actually runs on. [`CompiledWrapperSet`] delegates here;
/// servers build one per request from cached [`CompiledParts`].
#[derive(Clone, Copy, Debug)]
pub struct CompiledRef<'a> {
    pub set: &'a SectionWrapperSet,
    pub wrappers: &'a [CompiledWrapper],
    pub families: &'a [CompiledFamily],
}

/// Incremental consumer of one page's extraction output. The streaming
/// serving path ([`CompiledRef::extract_stream_scratch`]) drives a sink
/// instead of materializing a whole [`Extraction`], so large responses
/// can be encoded and flushed record by record. Call order per page:
/// diagnostics may arrive at any point; sections arrive in document
/// order as `section_start`, then each `record` in order, then
/// `section_end`.
pub trait RecordSink {
    fn diagnostic(&mut self, d: Diagnostic);
    fn section_start(&mut self, schema: SchemaId, start: usize, end: usize);
    fn record(&mut self, rec: ExtractedRecord);
    fn section_end(&mut self);
}

/// The collecting [`RecordSink`]: reassembles the stream into an owned
/// [`Extraction`]. [`CompiledRef::extract_page_scratch`] is exactly
/// stream-then-collect, which keeps the streaming and materializing
/// paths byte-identical by construction.
#[derive(Debug, Default)]
pub struct CollectSink {
    sections: Vec<ExtractedSection>,
    diagnostics: Vec<Diagnostic>,
    cur: Option<ExtractedSection>,
}

impl CollectSink {
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    pub fn into_extraction(self) -> Extraction {
        Extraction {
            sections: self.sections,
            diagnostics: self.diagnostics,
        }
    }
}

impl RecordSink for CollectSink {
    fn diagnostic(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    fn section_start(&mut self, schema: SchemaId, start: usize, end: usize) {
        self.cur = Some(ExtractedSection {
            schema,
            start,
            end,
            records: Vec::new(),
        });
    }

    fn record(&mut self, rec: ExtractedRecord) {
        if let Some(sec) = &mut self.cur {
            sec.records.push(rec);
        }
    }

    fn section_end(&mut self) {
        if let Some(sec) = self.cur.take() {
            self.sections.push(sec);
        }
    }
}

/// Compile a separator chain string (`tr>td>a`) to its symbol triple.
/// Returns `None` for chains that can never match a page chain (more than
/// [`CHAIN_DEPTH`] segments).
pub fn compile_chain(chain: &str) -> Option<ChainSig> {
    let mut sig = [Symbol::NONE; CHAIN_DEPTH];
    for (i, seg) in chain.split('>').enumerate() {
        if i >= CHAIN_DEPTH {
            return None;
        }
        sig[i] = intern::intern(seg);
    }
    Some(sig)
}

fn compile_steps(steps: &[mse_dom::MergedStep]) -> Vec<CompiledStep> {
    steps
        .iter()
        .map(|s| CompiledStep {
            tag: intern::intern(&s.tag),
            min_s: s.min_s,
            max_s: s.max_s,
        })
        .collect()
}

fn compile_seps(seps: &[String]) -> Vec<ChainSig> {
    let mut out: Vec<ChainSig> = seps.iter().filter_map(|s| compile_chain(s)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

pub(crate) fn compile_wrapper(w: &SectionWrapper) -> CompiledWrapper {
    CompiledWrapper {
        pref: compile_steps(&w.pref.steps),
        seps: compile_seps(&w.seps),
    }
}

fn compile_family(f: &FamilyWrapper) -> CompiledFamily {
    CompiledFamily {
        pref: f.pref.as_ref().map(|p| compile_steps(&p.steps)),
        prefix: f.prefix_tags.iter().map(|t| intern::intern(t)).collect(),
        suffix: f.suffix_tags.iter().map(|t| intern::intern(t)).collect(),
        seps: compile_seps(&f.seps),
    }
}

impl SectionWrapperSet {
    /// Compile this set for the serving path. Cheap (a few symbol interns
    /// per wrapper); compile once and reuse across pages for the
    /// allocation-free batch path.
    pub fn compile(&self) -> CompiledWrapperSet<'_> {
        CompiledWrapperSet {
            set: self,
            wrappers: self.wrappers.iter().map(compile_wrapper).collect(),
            families: self.families.iter().map(compile_family).collect(),
        }
    }

    /// Compile into owned [`CompiledParts`] that carry no borrow of this
    /// set. Long-lived servers cache the parts per worker (keyed by
    /// registry epoch) and [`CompiledParts::bind`] them back to the
    /// `Arc`-held set on each request.
    pub fn compile_parts(&self) -> CompiledParts {
        CompiledParts {
            wrappers: self.wrappers.iter().map(compile_wrapper).collect(),
            families: self.families.iter().map(compile_family).collect(),
        }
    }
}

/// One candidate section held in the scratch arena: records are a range
/// into [`ExtractScratch::all_records`] instead of an owned `Vec`.
#[derive(Clone, Copy, Debug)]
struct FoundSec {
    schema: SchemaId,
    start: usize,
    end: usize,
    /// Range into `ExtractScratch::all_records`.
    recs: (usize, usize),
    /// Insertion sequence — makes the candidate sort a total order equal
    /// to the legacy *stable* sort by `(end, start)` while letting us use
    /// the non-allocating unstable sort.
    seq: usize,
}

impl FoundSec {
    fn n_records(&self) -> usize {
        self.recs.1 - self.recs.0
    }
}

/// Reusable per-thread extraction arena. All buffers are `clear()`ed, not
/// dropped, between pages, so steady-state matching reuses their
/// capacity: after the first few pages a worker performs no heap
/// allocation while matching wrappers.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    // resolve_all working set
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    // candidate containers
    candidates: Vec<NodeId>,
    fam_candidates: Vec<NodeId>,
    fam_outer: Vec<NodeId>,
    // Type-2 family path probe
    path_syms: Vec<Symbol>,
    // per-candidate partition output and current best
    cand_records: Vec<Rec>,
    best_records: Vec<Rec>,
    // accepted candidates
    all_records: Vec<Rec>,
    found: Vec<FoundSec>,
    seen_nodes: Vec<NodeId>,
    // weighted-interval-scheduling state
    dp: Vec<(usize, usize)>,
    take: Vec<bool>,
    prev: Vec<usize>,
    chosen: Vec<usize>,
}

impl ExtractScratch {
    pub fn new() -> ExtractScratch {
        ExtractScratch::default()
    }

    fn reset_page(&mut self) {
        self.all_records.clear();
        self.found.clear();
        self.seen_nodes.clear();
    }
}

/// Resolve a compiled merged path against a page: document-order frontier
/// walk identical to [`mse_dom::MergedTagPath::resolve_all`], but with
/// symbol compares and scratch-owned frontiers. Results land in
/// `scratch.frontier`.
// mse:hot begin(resolve-path)
fn resolve_all_compiled(
    dom: &Dom,
    sigs: &PageSigs,
    steps: &[CompiledStep],
    slack: usize,
    scratch: &mut ExtractScratch,
) {
    scratch.frontier.clear();
    scratch.frontier.push(dom.root());
    for step in steps {
        scratch.next.clear();
        for &node in &scratch.frontier {
            let mut seen = 0usize;
            for child in dom.children(node) {
                // mse:allow(index): child comes from this DOM's own child list
                if !dom[child].is_element() {
                    continue;
                }
                if sigs.labels.get(child.index()) == Some(&step.tag)
                    && seen + slack >= step.min_s
                    && seen <= step.max_s + slack
                {
                    scratch.next.push(child);
                }
                seen += 1;
            }
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        if scratch.frontier.is_empty() {
            break;
        }
    }
}
// mse:hot end(resolve-path)

/// Compiled [`partition_by_seps`](crate::wrapper::partition_by_seps):
/// group the container's viewable children into records on separator
/// chains, using the render-time chains and spans. Output (document-order
/// record ranges, deduplicated, overlap-cleaned) is identical to the
/// legacy function.
// mse:hot begin(partition-records)
fn partition_compiled(
    dom: &Dom,
    sigs: &PageSigs,
    container: NodeId,
    seps: &[ChainSig],
    out: &mut Vec<Rec>,
) {
    out.clear();
    // `cur`: span of the currently open group (`None` while no group is
    // open; `Some(None)` for an open group covering no lines yet).
    let mut cur: Option<Option<(usize, usize)>> = None;
    for child in dom.children(container) {
        let idx = child.index();
        if sigs.labels.get(idx).copied().unwrap_or(Symbol::NONE) == Symbol::NONE {
            continue; // not a viewable child
        }
        let is_sep = sigs
            .chains
            .get(idx)
            .map(|c| seps.binary_search(c).is_ok())
            .unwrap_or(false);
        let span = sigs.span(child);
        if cur.is_none() || is_sep {
            if let Some(Some((lo, hi))) = cur {
                out.push(Rec::new(lo, hi));
            }
            cur = Some(span);
        } else if let Some((lo, hi)) = span {
            match cur {
                Some(Some(ref mut g)) => {
                    g.0 = g.0.min(lo);
                    g.1 = g.1.max(hi);
                }
                Some(None) => cur = Some(Some((lo, hi))),
                None => {}
            }
        }
    }
    if let Some(Some((lo, hi))) = cur {
        out.push(Rec::new(lo, hi));
    }
    // Same defensive cleanup as the legacy path: drop consecutive
    // duplicates, then overlapping ranges, in place.
    out.dedup();
    let mut w = 0usize;
    for i in 0..out.len() {
        // mse:allow(index): i ranges over out, w <= i is the write head
        if w == 0 || out[i].start >= out[w - 1].end {
            // mse:allow(index): w <= i < out.len()
            out[w] = out[i];
            w += 1;
        }
    }
    out.truncate(w);
}
// mse:hot end(partition-records)

// mse:hot begin(apply-wrapper)
fn marker_matches(page: &Page, line: Option<usize>, expected: &[String]) -> bool {
    match line {
        // mse:allow(index): callers pass a line index inside the rendered page
        Some(l) if !expected.is_empty() => expected.iter().any(|t| *t == page.cleaned[l]),
        _ => false,
    }
}

/// Compiled [`apply_wrapper`](crate::wrapper::apply_wrapper). On success
/// the best candidate's records sit in `scratch.best_records` and the
/// return value is `(container, section_start, section_end)`.
fn apply_wrapper_compiled(
    page: &Page,
    cfg: &MseConfig,
    w: &SectionWrapper,
    cw: &CompiledWrapper,
    scratch: &mut ExtractScratch,
) -> Option<(NodeId, usize, usize)> {
    let dom = &page.rp.dom;
    let sigs = &page.rp.sigs;
    // Resolve with increasing slack; prefer exact positions. Mirrors the
    // legacy candidate order: slack-0 nodes first, first-seen kept.
    scratch.candidates.clear();
    for slack in [0usize, cfg.pref_slack] {
        resolve_all_compiled(dom, sigs, &cw.pref, slack, scratch);
        // Split borrows: frontier is read, candidates written.
        let (cands, frontier, seen) = (
            &mut scratch.candidates,
            &scratch.frontier,
            &scratch.seen_nodes,
        );
        for &n in frontier {
            if !cands.contains(&n) && !seen.contains(&n) {
                cands.push(n);
            }
        }
        if !cands.is_empty() && slack == 0 {
            break;
        }
    }
    let mut best: Option<(f64, NodeId, usize, usize)> = None;
    for ci in 0..scratch.candidates.len() {
        // mse:allow(index): ci < candidates.len() by the loop bound
        let cand = scratch.candidates[ci];
        // Partition into scratch.cand_records, then trim boundary marker
        // "records" by narrowing [lo, hi) — same order as legacy: RBM side
        // first, then LBM side.
        let (records, rest) = {
            let ExtractScratch {
                cand_records,
                best_records,
                ..
            } = scratch;
            (cand_records, best_records)
        };
        partition_compiled(dom, sigs, cand, &cw.seps, records);
        let mut lo = 0usize;
        let mut hi = records.len();
        while hi > lo {
            // mse:allow(index): hi > lo >= 0, so hi - 1 < records.len()
            let last = records[hi - 1];
            // mse:allow(index): record spans index the rendered page lines
            if last.len() == 1 && w.rbms.contains(&page.cleaned[last.start]) {
                hi -= 1;
            } else {
                break;
            }
        }
        while lo < hi {
            // mse:allow(index): lo < hi <= records.len()
            let first = records[lo];
            // mse:allow(index): record spans index the rendered page lines
            if first.len() == 1 && w.lbms.contains(&page.cleaned[first.start]) {
                lo += 1;
            } else {
                break;
            }
        }
        if lo >= hi {
            continue;
        }
        // mse:allow(index): lo < hi <= records.len() checked above
        let (start, end) = (records[lo].start, records[hi - 1].end);
        // Marker agreement score.
        let lbm_ok = marker_matches(page, start.checked_sub(1), &w.lbms);
        let rbm_ok = marker_matches(page, (end < page.n_lines()).then_some(end), &w.rbms);
        let mut score = 0.0;
        if w.lbms.is_empty() || lbm_ok {
            score += 1.0;
        }
        if w.rbms.is_empty() || rbm_ok {
            score += 0.5;
        }
        if best.as_ref().map(|(bs, ..)| score > *bs).unwrap_or(true) {
            rest.clear();
            // mse:allow(index): lo < hi <= records.len() checked above
            rest.extend_from_slice(&records[lo..hi]);
            best = Some((score, cand, start, end));
        }
    }
    // Require at least the LBM-side agreement when the wrapper has LBMs.
    let (score, node, start, end) = best?;
    if !w.lbms.is_empty() && score < 1.0 {
        return None;
    }
    Some((node, start, end))
}
// mse:hot end(apply-wrapper)

/// Build-time self-validation probe: one wrapper applied on its own, no
/// containers claimed by other schemas. Returns the section's line span
/// and record count.
pub(crate) fn probe_wrapper(
    page: &Page,
    cfg: &MseConfig,
    w: &SectionWrapper,
    cw: &CompiledWrapper,
    scratch: &mut ExtractScratch,
) -> Option<(usize, usize, usize)> {
    scratch.reset_page();
    let (_, start, end) = apply_wrapper_compiled(page, cfg, w, cw, scratch)?;
    Some((start, end, scratch.best_records.len()))
}

/// Does this node's element-path tag sequence match the Type-2 family
/// prefix/suffix pattern? Symbol-compare equivalent of the legacy
/// `CompactTagPath::to_node` + `starts_with`/`ends_with` probe.
// mse:hot begin(type2-path-probe)
fn type2_path_matches(
    dom: &Dom,
    sigs: &PageSigs,
    n: NodeId,
    fam: &CompiledFamily,
    path_syms: &mut Vec<Symbol>,
) -> bool {
    let min_len = fam.prefix.len() + fam.suffix.len();
    path_syms.clear();
    let mut cur = Some(n);
    while let Some(node) = cur {
        // mse:allow(index): node walks this DOM's own parent chain
        if dom[node].is_element() {
            if let Some(&sym) = sigs.labels.get(node.index()) {
                path_syms.push(sym);
            }
        }
        // mse:allow(index): node walks this DOM's own parent chain
        cur = dom[node].parent;
    }
    path_syms.reverse(); // root-first, target-last — CompactTagPath order
    path_syms.len() >= min_len
        && path_syms.len() <= min_len + 5
        && path_syms.starts_with(&fam.prefix)
        && path_syms.ends_with(&fam.suffix)
}
// mse:hot end(type2-path-probe)

impl CompiledWrapperSet<'_> {
    /// Borrow this compiled set as the [`CompiledRef`] view all
    /// extraction methods run on.
    pub fn view(&self) -> CompiledRef<'_> {
        CompiledRef {
            set: self.set,
            wrappers: &self.wrappers,
            families: &self.families,
        }
    }
}

impl CompiledRef<'_> {
    /// Extraction over an already-rendered page with a fresh scratch.
    pub fn extract_page(&self, page: &Page) -> Extraction {
        self.extract_page_cached(page, &DistanceCache::disabled())
    }

    /// [`extract_page`](CompiledRef::extract_page) with a shared distance
    /// memo.
    pub fn extract_page_cached(&self, page: &Page, cache: &DistanceCache) -> Extraction {
        let mut scratch = ExtractScratch::new();
        self.extract_page_scratch(page, cache, &mut scratch)
    }

    /// The materializing serving-path entry point: extraction with a
    /// caller-owned scratch arena (reuse it across pages — see
    /// [`ExtractScratch`]). Implemented as stream-then-collect over
    /// [`extract_stream_scratch`](CompiledRef::extract_stream_scratch),
    /// so the streaming and batch paths cannot diverge. Output is
    /// byte-identical to
    /// [`SectionWrapperSet::extract_page_legacy_cached`].
    pub fn extract_page_scratch(
        &self,
        page: &Page,
        cache: &DistanceCache,
        scratch: &mut ExtractScratch,
    ) -> Extraction {
        let mut collect = CollectSink::new();
        self.extract_stream_scratch(page, cache, scratch, &mut collect);
        collect.into_extraction()
    }

    /// The streaming serving-path workhorse: run candidate proposal and
    /// maximum-weight section selection, then emit the chosen sections to
    /// `sink` in document order, record by record, instead of
    /// materializing a whole [`Extraction`]. Records beyond
    /// `budget.max_records_per_section` are never materialized — the sink
    /// receives a truncation diagnostic instead.
    pub fn extract_stream_scratch<S: RecordSink>(
        &self,
        page: &Page,
        cache: &DistanceCache,
        scratch: &mut ExtractScratch,
        sink: &mut S,
    ) {
        let cfg = &self.set.cfg;
        let clock = StageClock::new(cfg.budget.stage_deadline_ms);
        scratch.reset_page();

        let mut expired = false;
        for (i, w) in self.set.wrappers.iter().enumerate() {
            if self.set.absorbed.contains(&i) {
                continue;
            }
            if clock.expired() {
                expired = true;
                break;
            }
            if let Some((node, start, end)) =
                apply_wrapper_compiled(page, cfg, w, &self.wrappers[i], scratch)
            {
                scratch.seen_nodes.push(node);
                let rec_lo = scratch.all_records.len();
                scratch.all_records.extend_from_slice(&scratch.best_records);
                let seq = scratch.found.len();
                scratch.found.push(FoundSec {
                    schema: SchemaId::Wrapper(i),
                    start,
                    end,
                    recs: (rec_lo, scratch.all_records.len()),
                    seq,
                });
            }
        }
        // mse:allow(call): lazy feature context, allocates on miss only
        let mut feats = Features::with_cache(page, cfg, cache);
        for (k, fam) in self.set.families.iter().enumerate() {
            if expired || clock.expired() {
                expired = true;
                break;
            }
            self.apply_family_compiled(&mut feats, k, fam, &self.families[k], scratch);
        }
        if expired {
            sink.diagnostic(Diagnostic::new(
                Stage::Extract,
                // mse:allow(alloc): once-per-deadline-expiry message
                format!(
                    "stage deadline expired while applying wrappers; \
                     extracted from {} candidate sections found so far",
                    scratch.found.len()
                ),
            ));
        }

        // Maximum-weight non-overlapping selection, weight = record count
        // (ties toward more, finer sections). The `seq` tiebreaker makes
        // the unstable sort reproduce the legacy stable sort by
        // `(end, start)` without the stable sort's temp allocation.
        scratch
            .found
            .sort_unstable_by_key(|f| (f.end, f.start, f.seq));
        let n = scratch.found.len();
        scratch.dp.clear();
        scratch.dp.resize(n + 1, (0, 0));
        scratch.take.clear();
        scratch.take.resize(n, false);
        scratch.prev.clear();
        scratch.prev.resize(n, 0);
        for i in 0..n {
            let s = scratch.found[i];
            let p = scratch.found[..i]
                .iter()
                .rposition(|o| o.end <= s.start)
                .map(|j| j + 1)
                .unwrap_or(0);
            scratch.prev[i] = p;
            let with = (scratch.dp[p].0 + s.n_records(), scratch.dp[p].1 + 1);
            if with > scratch.dp[i] {
                scratch.dp[i + 1] = with;
                scratch.take[i] = true;
            } else {
                scratch.dp[i + 1] = scratch.dp[i];
            }
        }
        scratch.chosen.clear();
        let mut i = n;
        while i > 0 {
            if scratch.take[i - 1] {
                scratch.chosen.push(i - 1);
                i = scratch.prev[i - 1];
            } else {
                i -= 1;
            }
        }
        scratch.chosen.reverse();

        // Emission — the one inherently allocating step (record texts are
        // owned by whatever the sink builds). Chosen sections are
        // non-overlapping and non-empty, so emitting them in `(end,
        // start)` candidate order is document (start) order — identical
        // to the legacy path's stable sort by `start`.
        let cap = cfg.budget.max_records_per_section;
        for ci in 0..scratch.chosen.len() {
            let f = scratch.found[scratch.chosen[ci]];
            // Sink dispatch: the daemon streams through FrameSink (no
            // buffering); CollectSink is the one-shot/CLI collector and
            // owns its output by design.
            // mse:allow(call): collector sinks own their output
            sink.section_start(f.schema, f.start, f.end);
            let n = f.n_records();
            let take = n.min(cap);
            for r in &scratch.all_records[f.recs.0..f.recs.0 + take] {
                sink.record(ExtractedRecord {
                    start: r.start,
                    end: r.end,
                    // Record materialization: the output lines are owned
                    // by the response by design.
                    // mse:allow(call): response-owned, record-cap bounded
                    lines: page.line_texts(r.start, r.end),
                });
            }
            if n > cap {
                let dropped = n - cap;
                sink.diagnostic(Diagnostic::new(
                    Stage::Extract,
                    // mse:allow(alloc): once-per-truncated-section message
                    format!(
                        "section at lines {}..{} truncated to {cap} records \
                         ({dropped} dropped by budget)",
                        f.start, f.end
                    ),
                ));
            }
            sink.section_end();
        }
    }

    /// Match-only probe for benchmarks: run candidate proposal + selection
    /// but skip materialization. Returns `(sections, records)` counts.
    /// This is the steady-state zero-allocation path on a warmed scratch
    /// (when the set has no families — the family Dinr check allocates,
    /// see the module doc).
    pub fn match_page_scratch(
        &self,
        page: &Page,
        cache: &DistanceCache,
        scratch: &mut ExtractScratch,
    ) -> (usize, usize) {
        let cfg = &self.set.cfg;
        scratch.reset_page();
        for (i, w) in self.set.wrappers.iter().enumerate() {
            if self.set.absorbed.contains(&i) {
                continue;
            }
            if let Some((node, start, end)) =
                apply_wrapper_compiled(page, cfg, w, &self.wrappers[i], scratch)
            {
                scratch.seen_nodes.push(node);
                let rec_lo = scratch.all_records.len();
                scratch.all_records.extend_from_slice(&scratch.best_records);
                let seq = scratch.found.len();
                scratch.found.push(FoundSec {
                    schema: SchemaId::Wrapper(i),
                    start,
                    end,
                    recs: (rec_lo, scratch.all_records.len()),
                    seq,
                });
            }
        }
        if !self.set.families.is_empty() {
            // mse:allow(call): lazy feature context, allocates on miss only
            let mut feats = Features::with_cache(page, cfg, cache);
            for (k, fam) in self.set.families.iter().enumerate() {
                self.apply_family_compiled(&mut feats, k, fam, &self.families[k], scratch);
            }
        }
        let sections = scratch.found.len();
        let records = scratch.all_records.len();
        (sections, records)
    }

    /// Compiled [`apply_family_with`](crate::family) — candidates matching
    /// this family become `FoundSec`s directly. `claimed` semantics match
    /// the legacy pipeline: candidates are filtered against the nodes seen
    /// *before* this family ran, and accepted nodes are appended after.
    fn apply_family_compiled(
        &self,
        feats: &mut Features<'_>,
        k: usize,
        fam: &FamilyWrapper,
        cf: &CompiledFamily,
        scratch: &mut ExtractScratch,
    ) {
        let page = feats.page;
        let cfg = feats.cfg;
        let dom = &page.rp.dom;
        let sigs = &page.rp.sigs;
        let seen_len = scratch.seen_nodes.len();

        scratch.fam_candidates.clear();
        match &cf.pref {
            Some(steps) => {
                resolve_all_compiled(dom, sigs, steps, cfg.family_slack, scratch);
                let (cands, frontier) = (&mut scratch.fam_candidates, &scratch.frontier);
                cands.extend_from_slice(frontier);
            }
            None => {
                // Type 2: preorder scan for elements whose path tags carry
                // the prefix and suffix with a small middle gap.
                let (cands, path_syms) = (&mut scratch.fam_candidates, &mut scratch.path_syms);
                for n in dom.preorder(dom.root()) {
                    if dom[n].is_element() && type2_path_matches(dom, sigs, n, cf, path_syms) {
                        cands.push(n);
                    }
                }
            }
        }
        // Keep only outermost candidates, then drop exact duplicates of
        // already-proposed containers.
        scratch.fam_outer.clear();
        for i in 0..scratch.fam_candidates.len() {
            let c = scratch.fam_candidates[i];
            let nested = scratch
                .fam_candidates
                .iter()
                .any(|&o| o != c && dom.is_ancestor(o, c));
            if !nested && !scratch.seen_nodes[..seen_len].contains(&c) {
                scratch.fam_outer.push(c);
            }
        }

        'cand: for ci in 0..scratch.fam_outer.len() {
            let cand = scratch.fam_outer[ci];
            let (records, rest) = {
                let ExtractScratch {
                    cand_records,
                    best_records,
                    ..
                } = scratch;
                (cand_records, best_records)
            };
            partition_compiled(dom, sigs, cand, &cf.seps, records);
            let mut lo = 0usize;
            let mut hi = records.len();
            // Trim boundary "records" whose line-type shape was never seen
            // at build time.
            if !fam.record_type_seqs.is_empty() {
                let shape_known = |r: &Rec| {
                    sigs.line_types
                        .get(r.start..r.end)
                        .map(|seq| fam.record_type_seqs.iter().any(|s| s[..] == *seq))
                        .unwrap_or(false)
                };
                while hi > lo && !shape_known(&records[hi - 1]) {
                    hi -= 1;
                }
                while lo < hi && !shape_known(&records[lo]) {
                    lo += 1;
                }
            }
            if lo >= hi {
                continue;
            }
            let (start, end) = (records[lo].start, records[hi - 1].end);
            // The line before the section must look like a family header.
            let lbm_line = match start.checked_sub(1) {
                Some(l) => l,
                None => continue,
            };
            let lbm_attr = &page.rp.lines[lbm_line].attrs;
            let known = fam.lbm_attrs.contains(lbm_attr);
            let distinct_from_records =
                !lbm_attr.is_empty() && !fam.record_attrs.contains(lbm_attr);
            if !known && !distinct_from_records {
                continue;
            }
            for r in &records[lo..hi] {
                for l in r.start..r.end {
                    if page.rp.lines[l].attrs == *lbm_attr {
                        continue 'cand;
                    }
                }
            }
            // Every candidate record must have a line-type shape seen at
            // build time.
            if !fam.record_type_seqs.is_empty() {
                let all_known = records[lo..hi].iter().all(|r| {
                    sigs.line_types
                        .get(r.start..r.end)
                        .map(|seq| fam.record_type_seqs.iter().any(|s| s[..] == *seq))
                        .unwrap_or(false)
                });
                if !all_known {
                    continue;
                }
            }
            // Records of one section must be mutually similar. (Stash the
            // trimmed slice first — the Dinr check needs `&mut feats`, so
            // `records`' borrow of scratch must end.)
            rest.clear();
            rest.extend_from_slice(&records[lo..hi]);
            let n_recs = hi - lo;
            // The DINR re-check memoizes record distances and forests in
            // the page-keyed caches; only first-seen keys allocate,
            // bounded by the admission budget's page caps.
            // mse:allow(call): cache-miss-only allocation, budget-bounded
            if n_recs >= 2 && feats.dinr_exceeds(&scratch.best_records, cfg.mre_sim_threshold) {
                continue;
            }
            scratch.seen_nodes.push(cand);
            let rec_lo = scratch.all_records.len();
            scratch.all_records.extend_from_slice(&scratch.best_records);
            let seq = scratch.found.len();
            scratch.found.push(FoundSec {
                schema: SchemaId::Family(k),
                start,
                end,
                recs: (rec_lo, scratch.all_records.len()),
                seq,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_compile_round_trip() {
        let sig = compile_chain("tr>td>a").unwrap();
        assert_eq!(sig[0], intern::intern("tr"));
        assert_eq!(sig[1], intern::intern("td"));
        assert_eq!(sig[2], intern::intern("a"));
        let short = compile_chain("dt>#text").unwrap();
        assert_eq!(short[2], Symbol::NONE);
        // Injective: distinct chains → distinct sigs.
        assert_ne!(
            compile_chain("tr>td").unwrap(),
            compile_chain("tr").unwrap()
        );
        // Over-deep separators can never match a page chain.
        assert_eq!(compile_chain("a>b>c>d"), None);
    }

    #[test]
    fn page_chains_match_start_chain_strings() {
        let page = Page::from_html(
            "<body><table><tr><td><a href=1>x</a></td></tr></table>\
             <div class=r><a href=2><b>y</b></a></div>\
             <dl><dt>plain</dt></dl></body>",
            None,
        );
        let dom = &page.rp.dom;
        for tag in ["tr", "div", "dt"] {
            let n = dom.find_tag(tag).unwrap();
            let legacy = crate::wrapper::start_chain(dom, n);
            let compiled = page.rp.sigs.chains[n.index()];
            assert_eq!(
                compile_chain(&legacy).unwrap(),
                compiled,
                "chain mismatch at <{tag}>: legacy {legacy:?}"
            );
        }
    }

    #[test]
    fn compiled_partition_matches_legacy() {
        let page = Page::from_html(
            "<body><div id=c><h4>head</h4><div class=r><a href=1>a</a><br>s1</div>\
             <div class=r><a href=2>b</a><br>s2</div></div></body>",
            None,
        );
        let container = page.rp.dom.find_tag("div").unwrap();
        let seps = vec!["div>a>#text".to_string()];
        let legacy = crate::wrapper::partition_by_seps(&page, container, &seps);
        let compiled_seps = compile_seps(&seps);
        let mut out = Vec::new();
        partition_compiled(
            &page.rp.dom,
            &page.rp.sigs,
            container,
            &compiled_seps,
            &mut out,
        );
        assert_eq!(out, legacy);
    }
}
