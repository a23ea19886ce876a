//! The MSE pipeline (paper §3, steps 1–9): wrapper construction from
//! sample pages and extraction from new pages.

use crate::cache::DistanceCache;
use crate::compiled::{compile_wrapper, probe_wrapper, ExtractScratch};
use crate::config::MseConfig;
use crate::dse::{csbm_flags_cached, identify_dss};
use crate::error::{Diagnostic, ExtractError, Stage};
use crate::family::{apply_family_with, build_families, FamilyWrapper};
use crate::granularity::granularity_with;
use crate::grouping::group_instances_cached;
use crate::mre::mre_cached;
use crate::page::Page;
use crate::refine::refine_with;
use crate::section::SectionInst;
use crate::wrapper::{apply_wrapper, build_wrapper, SectionWrapper};
use mse_dom::NodeId;
use serde::{Deserialize, Serialize};
use std::time::Instant;

// Construction failures live in `crate::error`; re-exported here because
// this was their original home.
pub use crate::error::BuildError;

/// Which learned rule produced an extracted section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemaId {
    /// Concrete section wrapper (index into [`SectionWrapperSet::wrappers`]).
    Wrapper(usize),
    /// Section family (index into [`SectionWrapperSet::families`]).
    Family(usize),
}

/// One record extracted from a page.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedRecord {
    /// Content-line range on the page.
    pub start: usize,
    pub end: usize,
    /// The record's line texts (Hr/Image placeholders normalized).
    pub lines: Vec<String>,
}

/// One extracted section, records in document order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedSection {
    pub schema: SchemaId,
    pub start: usize,
    pub end: usize,
    pub records: Vec<ExtractedRecord>,
}

/// The extraction result for one page: sections in document order — the
/// section→record relationship the paper insists on preserving.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extraction {
    pub sections: Vec<ExtractedSection>,
    /// Non-fatal degradations hit while producing this result (resource
    /// budget trips, deadline expiries). Empty on well-formed pages —
    /// and skipped in JSON, so output stays byte-identical to builds
    /// that predate the field.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub diagnostics: Vec<Diagnostic>,
}

impl Extraction {
    pub fn total_records(&self) -> usize {
        self.sections.iter().map(|s| s.records.len()).sum()
    }

    /// An empty extraction carrying the reason the page produced nothing.
    pub fn degraded(err: &ExtractError) -> Extraction {
        Extraction {
            sections: vec![],
            diagnostics: vec![Diagnostic::new(err.stage(), err.to_string())],
        }
    }
}

/// Per-stage wall-clock guard: [`ResourceBudget::stage_deadline_ms`]
/// restarts at each stage boundary; the check is polled, so a stage may
/// overshoot before the trip is noticed.
///
/// [`ResourceBudget::stage_deadline_ms`]: crate::config::ResourceBudget
pub(crate) struct StageClock {
    deadline_ms: Option<u64>,
    start: Instant,
}

impl StageClock {
    pub(crate) fn new(deadline_ms: Option<u64>) -> StageClock {
        StageClock {
            deadline_ms,
            start: Instant::now(),
        }
    }

    /// Begin the next stage (resets the clock).
    fn next_stage(&mut self) {
        if self.deadline_ms.is_some() {
            self.start = Instant::now();
        }
    }

    pub(crate) fn expired(&self) -> bool {
        match self.deadline_ms {
            Some(ms) => self.start.elapsed().as_millis() as u64 > ms,
            None => false,
        }
    }

    fn check(&self, stage: Stage) -> Result<(), BuildError> {
        if self.expired() {
            Err(BuildError::Deadline { stage })
        } else {
            Ok(())
        }
    }
}

/// The MSE wrapper builder.
#[derive(Clone, Debug, Default)]
pub struct Mse {
    cfg: MseConfig,
}

impl Mse {
    pub fn new(cfg: MseConfig) -> Mse {
        Mse { cfg }
    }

    pub fn config(&self) -> &MseConfig {
        &self.cfg
    }

    /// Build a wrapper set from sample result pages (HTML only; queries
    /// unknown — `clean_line` then only strips numbers).
    pub fn build(&self, pages_html: &[&str]) -> Result<SectionWrapperSet, BuildError> {
        let inputs: Vec<(&str, Option<&str>)> = pages_html.iter().map(|h| (*h, None)).collect();
        self.build_with_queries(&inputs)
    }

    /// Build from (HTML, query) sample pairs — the paper's full protocol,
    /// where the queries that produced each page are known to the caller
    /// and their terms are removed as dynamic components (§5.2).
    pub fn build_with_queries(
        &self,
        inputs: &[(&str, Option<&str>)],
    ) -> Result<SectionWrapperSet, BuildError> {
        let cache = DistanceCache::new(self.cfg.enable_distance_cache);
        self.build_with_queries_cached(inputs, &cache)
    }

    /// [`build_with_queries`] against a caller-owned [`DistanceCache`] —
    /// lets benchmarks and diagnostics read the hit/miss counters after
    /// the build. The cache must be fresh or previously used only with
    /// this builder's config (memoized values bake the weights in).
    pub fn build_with_queries_cached(
        &self,
        inputs: &[(&str, Option<&str>)],
        cache: &DistanceCache,
    ) -> Result<SectionWrapperSet, BuildError> {
        self.cfg.validate().map_err(BuildError::InvalidConfig)?;
        if inputs.len() < 2 {
            return Err(BuildError::TooFewPages(inputs.len()));
        }
        // Build is strict: a sample page that trips a resource budget is
        // a hard error naming the input — a wrapper learned from a
        // truncated sample would be silently wrong.
        let budget = self.cfg.budget;
        let mut clock = StageClock::new(budget.stage_deadline_ms);
        let parsed: Vec<Result<Page, ExtractError>> =
            crate::par::par_map(inputs, self.cfg.effective_threads(), |_, (html, q)| {
                Page::try_from_html_strict(html, *q, &budget)
            });
        let mut pages: Vec<Page> = Vec::with_capacity(parsed.len());
        for (index, page) in parsed.into_iter().enumerate() {
            pages.push(page.map_err(|source| BuildError::Page { index, source })?);
        }
        clock.check(Stage::Parse)?;

        clock.next_stage();
        let sections = analyze_pages_cached(&pages, &self.cfg, cache);
        clock.check(Stage::Analyze)?;

        clock.next_stage();
        let groups = group_instances_cached(&pages, &sections, &self.cfg, cache);
        let mut wrappers: Vec<SectionWrapper> = groups
            .iter()
            .filter_map(|g| build_wrapper(&pages, &sections, g))
            .collect();
        if wrappers.is_empty() {
            return Err(BuildError::NoSections);
        }
        // Drop wrappers whose container resolved to the page scaffolding:
        // a real section container is always an element inside <body>;
        // body-level containers only arise when every instance in a group
        // was ambiguous (one record covering its whole container).
        wrappers.retain(|w| {
            w.pref
                .steps
                .last()
                .map(|s| s.tag != "body" && s.tag != "html")
                .unwrap_or(false)
        });
        if wrappers.is_empty() {
            return Err(BuildError::NoSections);
        }

        // Merge duplicate wrappers (same pref tag sequence and seps): the
        // clique step can fragment one schema's instances into several
        // groups when pairwise scores straddle the threshold.
        let mut merged: Vec<SectionWrapper> = Vec::new();
        for w in wrappers {
            if let Some(m) = merged.iter_mut().find(|m| {
                // Same record structure, same container shape, and the SAME
                // boundary-marker text — two same-style schemas (different
                // headers) must stay separate wrappers.
                m.seps == w.seps
                    && (m.lbms.iter().any(|t| w.lbms.contains(t))
                        || (m.lbms.is_empty() && w.lbms.is_empty()))
                    && m.pref.steps.len() == w.pref.steps.len()
                    && m.pref.steps.iter().zip(&w.pref.steps).all(|(a, b)| {
                        // Require genuine range overlap: two same-format
                        // schemas sit at disjoint sibling positions and
                        // must not fuse.
                        a.tag == b.tag && a.min_s <= b.max_s && b.min_s <= a.max_s
                    })
            }) {
                for (a, b) in m.pref.steps.iter_mut().zip(&w.pref.steps) {
                    a.min_s = a.min_s.min(b.min_s);
                    a.max_s = a.max_s.max(b.max_s);
                }
                for t in w.lbms {
                    if !m.lbms.contains(&t) {
                        m.lbms.push(t);
                    }
                }
                for t in w.rbms {
                    if !m.rbms.contains(&t) {
                        m.rbms.push(t);
                    }
                }
                for a in w.lbm_attrs {
                    if !m.lbm_attrs.contains(&a) {
                        m.lbm_attrs.push(a);
                    }
                }
                for a in w.rbm_attrs {
                    if !m.rbm_attrs.contains(&a) {
                        m.rbm_attrs.push(a);
                    }
                }
                for a in w.record_attrs {
                    if !m.record_attrs.contains(&a) {
                        m.record_attrs.push(a);
                    }
                }
                for t in w.record_type_seqs {
                    if !m.record_type_seqs.contains(&t) {
                        m.record_type_seqs.push(t);
                    }
                }
                m.min_records_seen = m.min_records_seen.min(w.min_records_seen);
                m.max_records_seen = m.max_records_seen.max(w.max_records_seen);
                m.n_instances += w.n_instances;
            } else {
                merged.push(w);
            }
        }
        let wrappers = merged;

        // Drop wrappers whose container path extends another wrapper's
        // (a section nested inside another section's container is a
        // grouping artifact); keep the one built from more instances.
        let mut drop = vec![false; wrappers.len()];
        for i in 0..wrappers.len() {
            for j in 0..wrappers.len() {
                if i == j || drop[i] || drop[j] {
                    continue;
                }
                let (wi, wj) = (&wrappers[i], &wrappers[j]);
                let nested = wi.pref.steps.len() > wj.pref.steps.len()
                    && wi
                        .pref
                        .steps
                        .iter()
                        .zip(&wj.pref.steps)
                        .all(|(a, b)| a.tag == b.tag);
                if nested && wi.n_instances <= wj.n_instances {
                    drop[i] = true;
                }
            }
        }
        let mut wrappers: Vec<SectionWrapper> = wrappers
            .into_iter()
            .zip(drop)
            .filter(|(_, d)| !d)
            .map(|(w, _)| w)
            .collect();

        // Self-validation (the ViNTs wrapper-verification step): re-apply
        // each wrapper to the sample pages with the serving matcher; it
        // must reproduce an analyzed section instance (≥ half of the
        // records with exact boundaries) on at least two pages. Umbrella
        // wrappers built from junk instances partition whole content
        // areas and fail this.
        let mut scratch = ExtractScratch::new();
        wrappers.retain(|w| {
            let cw = compile_wrapper(w);
            let agreeing = pages.iter().zip(&sections).filter(|(page, insts)| {
                let Some((start, end, n_records)) =
                    probe_wrapper(page, &self.cfg, w, &cw, &mut scratch)
                else {
                    return false;
                };
                insts.iter().any(|inst| {
                    let overlap = inst.overlap(start, end);
                    let smaller = inst.len_lines().min(end - start).max(1);
                    let spans_match = overlap * 10 >= smaller * 7;
                    let counts_sane =
                        n_records * 2 >= inst.records.len() && inst.records.len() * 2 >= n_records;
                    spans_match && counts_sane
                })
            });
            agreeing.count() >= 2
        });
        if wrappers.is_empty() {
            return Err(BuildError::NoSections);
        }

        // Order wrappers by their earliest appearance (section order on the
        // result page schema, §2).
        wrappers.sort_by_key(|w| {
            w.pref
                .steps
                .iter()
                .map(|s| s.min_s)
                .fold(0usize, |acc, s| acc * 64 + s.min(63))
        });

        let (families, absorbed) = if self.cfg.enable_families {
            build_families(&wrappers)
        } else {
            (vec![], vec![])
        };
        clock.check(Stage::Build)?;
        Ok(SectionWrapperSet {
            cfg: self.cfg.clone(),
            wrappers,
            absorbed,
            families,
        })
    }
}

/// Run pipeline steps 2–6 on a set of pages: MRE, DSE, refinement and
/// granularity repair. Returns per-page section instances.
pub fn analyze_pages(pages: &[Page], cfg: &MseConfig) -> Vec<Vec<SectionInst>> {
    let cache = DistanceCache::new(cfg.enable_distance_cache);
    analyze_pages_cached(pages, cfg, &cache)
}

/// [`analyze_pages`] with a shared distance memo. The per-page MRE and
/// refinement/granularity passes fan out over `cfg.threads` workers;
/// outputs keep page order, so the result is identical to the serial run.
pub fn analyze_pages_cached(
    pages: &[Page],
    cfg: &MseConfig,
    cache: &DistanceCache,
) -> Vec<Vec<SectionInst>> {
    let threads = cfg.effective_threads();
    let mrs: Vec<Vec<SectionInst>> =
        crate::par::par_map(pages, threads, |_, p| mre_cached(p, cfg, cache));
    let flags = csbm_flags_cached(pages, &mrs, cfg, cache);
    crate::par::par_map(pages, threads, |i, page| {
        // One Features calculator per page: refinement, granularity and all
        // their mining calls share the page's tag forests and record keys.
        let mut feats = crate::features::Features::with_cache(page, cfg, cache);
        let dss = identify_dss(page, &flags[i]);
        let secs = if cfg.enable_refine {
            refine_with(&mut feats, &mrs[i], &dss, &flags[i])
        } else {
            // Ablation A1: no MR/DS cross-validation — keep every MR
            // (static traps included) and mine every MR-free DS.
            let mut secs = mrs[i].clone();
            for ds in &dss {
                if !mrs[i].iter().any(|m| m.overlap(ds.start, ds.end) > 0) {
                    let recs = crate::mining::mine_records_with(&mut feats, ds.start, ds.end);
                    if !recs.is_empty() {
                        secs.push(SectionInst::from_records(recs));
                    }
                }
            }
            secs.sort_by_key(|s| s.start);
            secs
        };
        let mut secs = if cfg.enable_granularity {
            granularity_with(&mut feats, secs)
        } else {
            secs
        };
        // Granularity can move section boundaries (merging slivers
        // created by false CSBMs); re-derive every section's markers
        // from the final spans so stale in-section pointers cannot
        // poison the wrapper marker vote.
        for sec in &mut secs {
            sec.lbm = (0..sec.start).rev().find(|&l| flags[i][l]);
            sec.rbm = (sec.end..page.n_lines()).find(|&l| flags[i][l]);
        }
        secs
    })
}

/// A built wrapper set: concrete wrappers, families, and the config they
/// were built with.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SectionWrapperSet {
    pub cfg: MseConfig,
    pub wrappers: Vec<SectionWrapper>,
    /// Indices of wrappers absorbed into families (not applied directly).
    pub absorbed: Vec<usize>,
    pub families: Vec<FamilyWrapper>,
}

impl SectionWrapperSet {
    /// Extract all dynamic sections and their records from a new page.
    pub fn extract(&self, html: &str) -> Extraction {
        self.extract_with_query(html, None)
    }

    /// Extraction with the page's query known (mirrors build-time
    /// cleaning; only affects boundary-marker text comparison).
    ///
    /// Infallible by design: a page rejected by the parse budget yields
    /// an empty [`Extraction`] whose `diagnostics` name the trip, and a
    /// page truncated by the line budget yields a *partial* extraction
    /// over the rendered prefix plus a diagnostic. Use
    /// [`try_extract_with_query`](SectionWrapperSet::try_extract_with_query)
    /// for typed errors instead.
    ///
    /// Runs family Dinr checks on the reference distance engine (no
    /// memo, unbounded `Drec`), unlike `extract_batch` and the serving
    /// daemon, which pass an enabled [`DistanceCache`]. That keeps this
    /// one-shot path an independent cross-check of the memoized engine:
    /// the daemon's byte-identity gates compare against it.
    pub fn extract_with_query(&self, html: &str, query: Option<&str>) -> Extraction {
        match Page::try_from_html(html, query, &self.cfg.budget) {
            Ok((page, diags)) => {
                let mut ex = self.extract_page(&page);
                ex.diagnostics.splice(0..0, diags);
                ex
            }
            Err(e) => Extraction::degraded(&e),
        }
    }

    /// Strict single-page extraction: a resource-budget trip during
    /// ingestion (parse or render) is a typed [`ExtractError`] instead of
    /// a degraded result. In-extraction degradations (record-count caps,
    /// deadline expiry while applying wrappers) still surface as
    /// `diagnostics` on the `Ok` value.
    pub fn try_extract(&self, html: &str) -> Result<Extraction, ExtractError> {
        self.try_extract_with_query(html, None)
    }

    /// [`try_extract`](SectionWrapperSet::try_extract) with the page's
    /// query known.
    pub fn try_extract_with_query(
        &self,
        html: &str,
        query: Option<&str>,
    ) -> Result<Extraction, ExtractError> {
        let page = Page::try_from_html_strict(html, query, &self.cfg.budget)?;
        Ok(self.extract_page(&page))
    }

    /// Extraction over an already-rendered page.
    ///
    /// Every wrapper and family proposes candidate sections independently;
    /// the final result is the maximum-total-records set of non-overlapping
    /// candidates (weighted interval scheduling). This keeps a sloppy
    /// wrapper — one whose container swallows several sections — from
    /// shadowing the precise ones.
    pub fn extract_page(&self, page: &Page) -> Extraction {
        self.extract_page_cached(page, &DistanceCache::disabled())
    }

    /// [`extract_page`] with a shared distance memo (see [`DistanceCache`]).
    ///
    /// Runs on the compiled serving path (see [`crate::compiled`]). For
    /// many pages, compile once yourself and reuse the
    /// [`CompiledWrapperSet`](crate::compiled::CompiledWrapperSet) plus an
    /// [`ExtractScratch`](crate::compiled::ExtractScratch) — this
    /// convenience wrapper re-compiles per call.
    pub fn extract_page_cached(&self, page: &Page, cache: &DistanceCache) -> Extraction {
        self.compile().view().extract_page_cached(page, cache)
    }

    /// The string-comparing reference matcher: string start-chains,
    /// per-candidate page scans. No production path runs it; the compiled
    /// matcher ([`extract_page_cached`](SectionWrapperSet::extract_page_cached))
    /// must produce byte-identical output, which the differential tests
    /// and the `serve` bench's `identical_extractions` gate check.
    pub fn extract_page_legacy_cached(&self, page: &Page, cache: &DistanceCache) -> Extraction {
        let clock = StageClock::new(self.cfg.budget.stage_deadline_ms);
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut seen_nodes: Vec<NodeId> = Vec::new();
        let mut found: Vec<(SchemaId, SectionInst)> = Vec::new();

        // Deadline checks between schema applications: on expiry, stop
        // proposing candidates and extract from what was found so far —
        // a partial result with a diagnostic, never an abort.
        let mut expired = false;
        for (i, w) in self.wrappers.iter().enumerate() {
            if self.absorbed.contains(&i) {
                continue;
            }
            if clock.expired() {
                expired = true;
                break;
            }
            if let Some((node, sec)) = apply_wrapper(page, &self.cfg, w, &seen_nodes) {
                seen_nodes.push(node);
                found.push((SchemaId::Wrapper(i), sec));
            }
        }
        let mut feats = crate::features::Features::with_cache(page, &self.cfg, cache);
        for (k, fam) in self.families.iter().enumerate() {
            if expired || clock.expired() {
                expired = true;
                break;
            }
            for (node, sec) in apply_family_with(&mut feats, fam, &seen_nodes) {
                seen_nodes.push(node);
                found.push((SchemaId::Family(k), sec));
            }
        }
        if expired {
            diagnostics.push(Diagnostic::new(
                Stage::Extract,
                format!(
                    "stage deadline expired while applying wrappers; \
                     extracted from {} candidate sections found so far",
                    found.len()
                ),
            ));
        }

        // Maximum-weight non-overlapping selection, weight = record count
        // (ties toward more, finer sections).
        found.sort_by_key(|(_, s)| (s.end, s.start));
        let n = found.len();
        // dp[i] = (records, sections) best using candidates [0, i).
        let mut dp: Vec<(usize, usize)> = vec![(0, 0); n + 1];
        let mut take: Vec<bool> = vec![false; n];
        let mut prev: Vec<usize> = vec![0; n];
        for i in 0..n {
            let s = &found[i].1;
            // Last candidate ending at or before s.start.
            let p = found[..i]
                .iter()
                .rposition(|(_, o)| o.end <= s.start)
                .map(|j| j + 1)
                .unwrap_or(0);
            prev[i] = p;
            let with = (dp[p].0 + s.records.len(), dp[p].1 + 1);
            if with > dp[i] {
                dp[i + 1] = with;
                take[i] = true;
            } else {
                dp[i + 1] = dp[i];
            }
        }
        let mut chosen: Vec<usize> = Vec::new();
        let mut i = n;
        while i > 0 {
            if take[i - 1] {
                chosen.push(i - 1);
                i = prev[i - 1];
            } else {
                i -= 1;
            }
        }
        chosen.reverse();

        let mut sections: Vec<ExtractedSection> = chosen
            .into_iter()
            .map(|i| {
                let (schema, sec) = &found[i];
                ExtractedSection {
                    schema: *schema,
                    start: sec.start,
                    end: sec.end,
                    records: sec
                        .records
                        .iter()
                        .map(|r| ExtractedRecord {
                            start: r.start,
                            end: r.end,
                            lines: page.line_texts(r.start, r.end),
                        })
                        .collect(),
                }
            })
            .collect();
        sections.sort_by_key(|s| s.start);
        // Record-count budget: cap each section's reported records,
        // noting what was dropped.
        let cap = self.cfg.budget.max_records_per_section;
        for sec in &mut sections {
            if sec.records.len() > cap {
                let dropped = sec.records.len() - cap;
                sec.records.truncate(cap);
                diagnostics.push(Diagnostic::new(
                    Stage::Extract,
                    format!(
                        "section at lines {}..{} truncated to {cap} records \
                         ({dropped} dropped by budget)",
                        sec.start, sec.end
                    ),
                ));
            }
        }
        Extraction {
            sections,
            diagnostics,
        }
    }

    /// Batch extraction: parse and extract every `(html, query)` input,
    /// fanning pages out over `cfg.threads` workers and sharing one
    /// distance memo. Results keep input order and are byte-identical to
    /// calling [`SectionWrapperSet::extract_with_query`] per page.
    pub fn extract_batch(&self, inputs: &[(&str, Option<&str>)]) -> Vec<Extraction> {
        let cache = DistanceCache::new(self.cfg.enable_distance_cache);
        self.extract_batch_cached(inputs, &cache)
    }

    /// [`extract_batch`] against a caller-owned [`DistanceCache`].
    ///
    /// Graceful per page: a budget trip on one input degrades that
    /// page's [`Extraction`] (empty or partial, with diagnostics) and
    /// never aborts the rest of the batch.
    ///
    /// Compiles the wrapper set once, then fans pages out over
    /// work-stealing workers (see [`crate::par::par_map_with`]) with one
    /// reused [`crate::compiled::ExtractScratch`] arena and one
    /// [`crate::ingest::IngestScratch`] per worker: pages are ingested on
    /// the fused zero-copy path ([`Page::try_from_html_fast`]) and their
    /// buffers recycled after extraction.
    pub fn extract_batch_cached(
        &self,
        inputs: &[(&str, Option<&str>)],
        cache: &DistanceCache,
    ) -> Vec<Extraction> {
        let compiled = self.compile();
        let cw = compiled.view();
        crate::par::par_map_with(
            inputs,
            self.cfg.effective_threads(),
            || {
                (
                    crate::compiled::ExtractScratch::new(),
                    crate::ingest::IngestScratch::new(),
                )
            },
            |(scratch, ingest), _, (html, q)| {
                let ingested = Page::try_from_html_fast(html, *q, &self.cfg.budget, ingest);
                match ingested {
                    Ok((page, diags)) => {
                        let mut ex = cw.extract_page_scratch(&page, cache, scratch);
                        ex.diagnostics.splice(0..0, diags);
                        ingest.recycle(page);
                        ex
                    }
                    Err(e) => Extraction::degraded(&e),
                }
            },
        )
    }
}

/// Test/bench helper: parse+render pages and run steps 2–6.
#[doc(hidden)]
pub fn sections_of_pages(
    htmls: &[String],
    queries: &[&str],
    cfg: &MseConfig,
) -> (Vec<Page>, Vec<Vec<SectionInst>>) {
    let pages: Vec<Page> = htmls
        .iter()
        .zip(queries)
        .map(|(h, q)| Page::from_html(h, Some(q)))
        .collect();
    let sections = analyze_pages(&pages, cfg);
    (pages, sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small two-schema engine fixture.
    fn serp(main: &[&str], news: Option<&[&str]>, query: &str, count: usize) -> String {
        let mut html = format!(
            "<body><h1>PipeSeek</h1>\
             <form action=/s><input type=text name=q value=\"{query}\"><input type=submit value=Search></form>\
             <p>Your search for <b>{query}</b> returned {count} matches.</p>\
             <h3>Web Results</h3><table class=results>"
        );
        for (i, w) in main.iter().enumerate() {
            html.push_str(&format!(
                "<tr><td><a href=/d{i}>{w} page title</a><br>{w} page snippet</td></tr>"
            ));
        }
        html.push_str("</table>");
        if let Some(items) = news {
            html.push_str("<h3>News Items</h3><ul>");
            for (i, w) in items.iter().enumerate() {
                html.push_str(&format!(
                    "<li><a href=/n{i}>{w} headline</a> - {w} brief</li>"
                ));
            }
            html.push_str("</ul>");
        }
        html.push_str("<hr><p>Copyright 2006 PipeSeek Inc.</p></body>");
        html
    }

    fn build() -> SectionWrapperSet {
        let samples = [
            (
                serp(
                    &["alpha", "beta", "gamma", "delta"],
                    Some(&["sun", "moon", "fog"]),
                    "knee injury",
                    41,
                ),
                "knee injury",
            ),
            (
                serp(
                    &["red", "green", "blue"],
                    Some(&["rain", "wind"]),
                    "digital camera",
                    99,
                ),
                "digital camera",
            ),
            (
                serp(
                    &["one", "two", "three", "four", "five"],
                    Some(&["hill", "lake", "dune", "reef"]),
                    "jazz festival",
                    7,
                ),
                "jazz festival",
            ),
        ];
        let inputs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|(h, q)| (h.as_str(), Some(*q)))
            .collect();
        Mse::new(MseConfig::default())
            .build_with_queries(&inputs)
            .expect("wrapper build")
    }

    #[test]
    fn builds_two_wrappers() {
        let ws = build();
        assert_eq!(ws.wrappers.len(), 2, "{:?}", ws.wrappers);
        assert!(ws.absorbed.len() <= ws.wrappers.len());
    }

    #[test]
    fn extracts_sample_and_test_pages() {
        let ws = build();
        // An unseen page with both sections.
        let html = serp(
            &["mercury", "venus", "earth", "mars"],
            Some(&["comet", "meteor", "aurora"]),
            "ocean climate",
            3,
        );
        let ex = ws.extract_with_query(&html, Some("ocean climate"));
        assert_eq!(ex.sections.len(), 2, "{ex:?}");
        assert_eq!(ex.sections[0].records.len(), 4);
        assert_eq!(ex.sections[1].records.len(), 3);
        assert_eq!(
            ex.sections[0].records[0].lines,
            vec!["mercury page title", "mercury page snippet"]
        );
        assert_eq!(
            ex.sections[1].records[2].lines,
            vec!["aurora headline - aurora brief"]
        );
    }

    #[test]
    fn extraction_preserves_section_record_relationship() {
        let ws = build();
        let html = serp(&["solo"], Some(&["single"]), "ocean climate", 1);
        let ex = ws.extract_with_query(&html, Some("ocean climate"));
        // Both 1-record sections must come back as separate sections —
        // the paper's headline capability (no ≥2-records-per-section
        // constraint at extraction time).
        assert_eq!(ex.sections.len(), 2, "{ex:?}");
        assert!(ex.sections.iter().all(|s| s.records.len() == 1));
    }

    #[test]
    fn absent_section_not_hallucinated() {
        let ws = build();
        let html = serp(&["mercury", "venus"], None, "ocean climate", 5);
        let ex = ws.extract_with_query(&html, Some("ocean climate"));
        assert_eq!(ex.sections.len(), 1, "{ex:?}");
        assert_eq!(ex.sections[0].records.len(), 2);
    }

    #[test]
    fn build_errors() {
        let mse = Mse::new(MseConfig::default());
        assert!(matches!(
            mse.build(&["<body><p>x</p></body>"]),
            Err(BuildError::TooFewPages(1))
        ));
        let bad = MseConfig {
            u: (1.0, 1.0, 1.0),
            ..MseConfig::default()
        };
        assert!(matches!(
            Mse::new(bad).build(&["<body></body>", "<body></body>"]),
            Err(BuildError::InvalidConfig(_))
        ));
        // Pages with nothing dynamic in common → NoSections.
        assert!(matches!(
            mse.build(&["<body><p>alpha</p></body>", "<body><p>alpha</p></body>"]),
            Err(BuildError::NoSections)
        ));
    }

    #[test]
    fn wrapper_set_serializes() {
        let ws = build();
        let json = serde_json::to_string(&ws).unwrap();
        let back: SectionWrapperSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.wrappers.len(), ws.wrappers.len());
        let html = serp(&["mercury", "venus", "earth"], None, "ocean climate", 2);
        assert_eq!(
            back.extract_with_query(&html, Some("ocean climate")),
            ws.extract_with_query(&html, Some("ocean climate"))
        );
    }
}
