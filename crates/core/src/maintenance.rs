//! Wrapper maintenance — drift detection and shadow re-learning for
//! deployed wrapper sets.
//!
//! The paper motivates MSE with "automatic construction and *maintenance*
//! of metasearch engines" (§1): search engines redesign their result
//! pages, and a deployed wrapper must notice that it no longer fits
//! before it silently harvests garbage. This module provides both halves
//! of that loop:
//!
//! * **Batch health checks** ([`SectionWrapperSet::health_check`]) — run a
//!   wrapper set over freshly fetched pages and report per-wrapper
//!   health. Pages are ingested through the same budgeted path as
//!   production extraction ([`Page::try_from_html_fast`] with an
//!   [`IngestScratch`]), so a hostile fetched page can
//!   trip the [`ResourceBudget`](crate::config::ResourceBudget) instead
//!   of blowing past it; a page that fails ingest counts as unhealthy and
//!   never aborts the batch.
//! * **Rolling drift detection** ([`DriftTracker`]) — consume the
//!   extraction `diagnostics` stream in production, page by page, and
//!   keep per-engine rolling counters of empty pages, partial
//!   extractions, family-fallback sections and anomaly-flagged wrappers.
//!   The tracker condenses the window into a [`DriftVerdict`]
//!   (Stable / Degrading / Broken) — no truth labels required.
//! * **Shadow re-learning** ([`shadow_relearn`]) — when a verdict crosses
//!   Degrading, re-induce a candidate wrapper set from the tracker's
//!   ring buffer of recent pages, gate it through a static-verification
//!   closure (`mse-analyze`'s promotion gate in production), and
//!   differentially compare old vs. new on a holdout split. The caller
//!   promotes the candidate (e.g. into `mse-store`) only on a win.
//!
//! The adaptation-loop shape follows "Design of Automatically Adaptable
//! Web Wrappers" (Ferrara & Baumgartner): detect from serving signals,
//! re-learn from recent inputs, validate before swapping.

use crate::error::BuildError;
use crate::ingest::IngestScratch;
use crate::page::Page;
use crate::pipeline::{Extraction, Mse, SchemaId, SectionWrapperSet};
use crate::wrapper::SectionWrapper;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Health of one concrete wrapper across a batch of pages.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WrapperStatus {
    /// Fired on most pages with plausible record counts.
    Healthy { hits: usize },
    /// Fired on some pages, or fired with implausible record counts.
    Degraded { hits: usize, anomalies: usize },
    /// Never fired on the batch.
    Dead,
}

/// The condensed lifecycle state of a deployed wrapper set.
///
/// Ordered: `Stable < Degrading < Broken`, so callers can compare against
/// a trigger level (`verdict >= DriftVerdict::Degrading`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DriftVerdict {
    /// Serving signals look like they did at build time.
    Stable,
    /// Rising miss / partial / family-fallback / anomaly rates: the
    /// engine's template is moving. Shadow re-learning is advisable.
    Degrading,
    /// The wrapper set no longer fits the engine; most pages yield no
    /// concrete-wrapper sections (or implausible ones). Rebuild required.
    Broken,
}

/// Batch health report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HealthReport {
    pub pages_checked: usize,
    /// Status per wrapper, indexed like [`SectionWrapperSet::wrappers`].
    /// Absorbed wrappers get a status when their absorbing family served
    /// sections attributed to them on this batch, `None` otherwise (an
    /// absorbed hidden schema that simply did not appear is not evidence
    /// of drift).
    pub wrappers: Vec<Option<WrapperStatus>>,
    /// Sections contributed by families across the batch.
    pub family_sections: usize,
    /// Pages from which nothing at all was extracted (ingest failures
    /// included).
    pub empty_pages: usize,
    /// Pages rejected by the ingest resource budget. Counted as
    /// unhealthy (they are also in `empty_pages`) — a page the budget
    /// refuses is a page the wrapper cannot be trusted on — but an
    /// ingest failure never aborts the rest of the batch.
    #[serde(default)]
    pub ingest_failures: usize,
}

impl HealthReport {
    /// Condense the batch into a [`DriftVerdict`]: `Broken` when any
    /// wrapper is dead or most pages came back empty, `Degrading` when
    /// any wrapper is degraded or any page was empty or refused by the
    /// ingest budget, `Stable` otherwise.
    pub fn verdict(&self) -> DriftVerdict {
        let dead = self
            .wrappers
            .iter()
            .flatten()
            .any(|s| matches!(s, WrapperStatus::Dead));
        if dead || self.empty_pages * 2 > self.pages_checked {
            return DriftVerdict::Broken;
        }
        let degraded = self
            .wrappers
            .iter()
            .flatten()
            .any(|s| matches!(s, WrapperStatus::Degraded { .. }));
        if degraded || self.empty_pages > 0 || self.ingest_failures > 0 {
            return DriftVerdict::Degrading;
        }
        DriftVerdict::Stable
    }

    /// A rebuild is mandatory when the batch verdict is [`Broken`]
    /// (kept for callers of the pre-verdict API).
    ///
    /// [`Broken`]: DriftVerdict::Broken
    pub fn needs_rebuild(&self) -> bool {
        self.verdict() == DriftVerdict::Broken
    }

    /// Fraction of wrappers (with a status) that are healthy.
    pub fn healthy_fraction(&self) -> f64 {
        let total = self.wrappers.iter().flatten().count();
        if total == 0 {
            return 0.0;
        }
        let healthy = self
            .wrappers
            .iter()
            .flatten()
            .filter(|s| matches!(s, WrapperStatus::Healthy { .. }))
            .count();
        healthy as f64 / total as f64
    }
}

/// Implausible record count: far outside anything seen at build time, on
/// either side. The high side (`> max*3 + 3`) catches a wrapper that
/// starts swallowing page chrome as records; the low side (`< min/3`)
/// catches the silent-garbage mode where a redesigned section is mashed
/// into one or two giant "records" — the count collapses far below
/// anything the build ever saw. Wrappers built from 1–2-record sections
/// (hidden schemas) have no low side, so legitimately small sections
/// never flag.
fn record_count_anomalous(w: &SectionWrapper, n_records: usize) -> bool {
    n_records > w.max_records_seen.saturating_mul(3).saturating_add(3)
        || n_records.saturating_mul(3) < w.min_records_seen
}

impl SectionWrapperSet {
    /// The wrapper index a family-extracted section is attributed to: the
    /// member of family `k` whose build-time record-count range sits
    /// closest to `n_records`. Absorbed siblings usually share one record
    /// shape, so distance alone ties; `ordinal` — which of the page's
    /// family-`k` sections this is, in document order — breaks the tie,
    /// matching the order the members were absorbed in. `None` for
    /// unknown families or families with no (valid) members.
    fn attribute_family_hit(&self, k: usize, ordinal: usize, n_records: usize) -> Option<usize> {
        let fam = self.families.get(k)?;
        let dist = |m: usize| {
            let w = &self.wrappers[m];
            if n_records < w.min_records_seen {
                w.min_records_seen - n_records
            } else {
                n_records.saturating_sub(w.max_records_seen)
            }
        };
        let valid: Vec<usize> = fam
            .members
            .iter()
            .copied()
            .filter(|&m| m < self.wrappers.len())
            .collect();
        let best = valid.iter().copied().map(dist).min()?;
        let ties: Vec<usize> = valid.into_iter().filter(|&m| dist(m) == best).collect();
        ties.get(ordinal % ties.len()).copied()
    }

    /// Check this wrapper set against freshly fetched pages.
    ///
    /// Pages are ingested through the budgeted fused ingest with scratch
    /// reuse, as in batch extraction: a page that trips the
    /// [`ResourceBudget`](crate::config::ResourceBudget) is counted as
    /// unhealthy ([`HealthReport::ingest_failures`]) and skipped — it
    /// never aborts the batch and never bypasses the limits the budget
    /// enforces everywhere else.
    ///
    /// Sections extracted by a *family* are attributed to the absorbed
    /// member wrapper whose build-time record shape they match, so a
    /// wrapper served through its absorbing family is not misreported as
    /// dead and its anomaly tally is computed against its own
    /// `max_records_seen` threshold rather than skewing a surviving
    /// wrapper's.
    pub fn health_check(&self, pages: &[(&str, Option<&str>)]) -> HealthReport {
        let n_wrappers = self.wrappers.len();
        let mut hits = vec![0usize; n_wrappers];
        let mut anomalies = vec![0usize; n_wrappers];
        let mut family_hits = vec![0usize; n_wrappers];
        let mut family_sections = 0usize;
        let mut empty_pages = 0usize;
        let mut ingest_failures = 0usize;
        let mut scratch = IngestScratch::new();

        for (html, query) in pages {
            let ingested = Page::try_from_html_fast(html, *query, &self.cfg.budget, &mut scratch);
            let (page, _diags) = match ingested {
                Ok(ok) => ok,
                Err(_) => {
                    // The budget refused the page: unhealthy, not fatal.
                    ingest_failures += 1;
                    empty_pages += 1;
                    continue;
                }
            };
            let ex = self.extract_page(&page);
            if ex.sections.is_empty() {
                empty_pages += 1;
            }
            let mut fam_ordinal = vec![0usize; self.families.len()];
            for sec in &ex.sections {
                match sec.schema {
                    SchemaId::Wrapper(i) if i < n_wrappers => {
                        hits[i] += 1;
                        if record_count_anomalous(&self.wrappers[i], sec.records.len()) {
                            anomalies[i] += 1;
                        }
                    }
                    SchemaId::Wrapper(_) => {}
                    SchemaId::Family(k) => {
                        family_sections += 1;
                        let ord = fam_ordinal.get(k).copied().unwrap_or(0);
                        if let Some(m) = self.attribute_family_hit(k, ord, sec.records.len()) {
                            family_hits[m] += 1;
                            if record_count_anomalous(&self.wrappers[m], sec.records.len()) {
                                anomalies[m] += 1;
                            }
                        }
                        if let Some(o) = fam_ordinal.get_mut(k) {
                            *o += 1;
                        }
                    }
                }
            }
            scratch.recycle(page);
        }

        let wrappers = (0..n_wrappers)
            .map(|i| {
                if self.absorbed.contains(&i) {
                    // Absorbed wrappers only serve through their family.
                    // Attributed hits give them a real status; zero hits
                    // stay `None` (a hidden schema legitimately absent
                    // from the batch is not drift evidence). Coverage is
                    // not required — hidden sections appear on few pages.
                    let fh = family_hits[i];
                    if fh == 0 {
                        return None;
                    }
                    let status = if anomalies[i] > 0 {
                        WrapperStatus::Degraded {
                            hits: fh,
                            anomalies: anomalies[i],
                        }
                    } else {
                        WrapperStatus::Healthy { hits: fh }
                    };
                    return Some(status);
                }
                // Concrete wrappers also get credit for sections their
                // generalization family served on their behalf.
                let total_hits = hits[i] + family_hits[i];
                let status = if total_hits == 0 {
                    WrapperStatus::Dead
                } else if anomalies[i] > 0 || total_hits * 2 < pages.len() {
                    WrapperStatus::Degraded {
                        hits: total_hits,
                        anomalies: anomalies[i],
                    }
                } else {
                    WrapperStatus::Healthy { hits: total_hits }
                };
                Some(status)
            })
            .collect();

        HealthReport {
            pages_checked: pages.len(),
            wrappers,
            family_sections,
            empty_pages,
            ingest_failures,
        }
    }
}

/// Thresholds for the rolling drift verdict. All fractions are over the
/// tracker's observation window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct DriftThresholds {
    /// Rolling window size (pages).
    pub window: usize,
    /// Observations required before a non-Stable verdict may be issued
    /// (an unobserved wrapper is presumed stable, not broken).
    pub min_observations: usize,
    /// Recent raw pages kept for shadow re-learning.
    pub ring_capacity: usize,
    /// Degrading when the fraction of pages with no concrete-wrapper
    /// section (empty or family-fallback) reaches this.
    pub degrading_miss: f64,
    /// Broken when the concrete-miss fraction reaches this.
    pub broken_miss: f64,
    /// Degrading when the fraction of partial extractions (non-empty
    /// diagnostics) reaches this.
    pub degrading_partial: f64,
    /// Degrading when the fraction of family-fallback pages (family
    /// sections but no concrete-wrapper section) reaches this.
    pub degrading_family: f64,
    /// Degrading / Broken when the fraction of pages with an
    /// anomaly-flagged wrapper section reaches these.
    pub degrading_anomaly: f64,
    pub broken_anomaly: f64,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        DriftThresholds {
            window: 32,
            min_observations: 8,
            ring_capacity: 16,
            degrading_miss: 0.25,
            broken_miss: 0.60,
            degrading_partial: 0.30,
            degrading_family: 0.35,
            degrading_anomaly: 0.20,
            broken_anomaly: 0.50,
        }
    }
}

impl DriftThresholds {
    /// Validate sanity constraints; returns an error message on the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("drift window must be positive".into());
        }
        if self.min_observations == 0 || self.min_observations > self.window {
            return Err("drift min_observations must be in 1..=window".into());
        }
        if self.ring_capacity == 0 {
            return Err("drift ring_capacity must be positive".into());
        }
        for (name, f) in [
            ("degrading_miss", self.degrading_miss),
            ("broken_miss", self.broken_miss),
            ("degrading_partial", self.degrading_partial),
            ("degrading_family", self.degrading_family),
            ("degrading_anomaly", self.degrading_anomaly),
            ("broken_anomaly", self.broken_anomaly),
        ] {
            if !(0.0..=1.0).contains(&f) || f == 0.0 {
                return Err(format!("drift threshold {name} must be in (0, 1]"));
            }
        }
        if self.broken_miss < self.degrading_miss {
            return Err("drift broken_miss must be >= degrading_miss".into());
        }
        if self.broken_anomaly < self.degrading_anomaly {
            return Err("drift broken_anomaly must be >= degrading_anomaly".into());
        }
        Ok(())
    }
}

/// Per-page serving signals, derived from the extraction result alone.
#[derive(Clone, Copy, Debug, Default)]
struct PageSignal {
    /// At least one concrete-wrapper section was extracted.
    concrete: bool,
    /// Nothing was extracted at all.
    empty: bool,
    /// Family sections only — the generalized fallback fired where the
    /// concrete wrappers did not.
    family_only: bool,
    /// The extraction carried diagnostics (budget trip, deadline, ...).
    partial: bool,
    /// Some wrapper section had an implausible record count.
    anomaly: bool,
}

/// Rolling drift counters over the current observation window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftCounters {
    /// Pages currently in the window.
    pub window: usize,
    /// Pages observed over the tracker's lifetime.
    pub total_pages: u64,
    /// Window pages with at least one concrete-wrapper section.
    pub concrete_pages: usize,
    /// Window pages with no sections at all.
    pub empty_pages: usize,
    /// Window pages served only by family fallback.
    pub family_fallback_pages: usize,
    /// Window pages whose extraction carried diagnostics.
    pub partial_pages: usize,
    /// Window pages with an anomaly-flagged wrapper section.
    pub anomalous_pages: usize,
}

/// Per-engine rolling drift detector.
///
/// Feed every production extraction through [`DriftTracker::observe`];
/// read the current [`DriftVerdict`] back (also returned by `observe`).
/// The tracker additionally keeps a bounded ring of recent raw pages so
/// that a Degrading verdict can trigger [`shadow_relearn`] without a
/// separate fetch pass.
#[derive(Default)]
pub struct DriftTracker {
    thresholds: DriftThresholds,
    window: VecDeque<PageSignal>,
    ring: VecDeque<(String, Option<String>)>,
    total_pages: u64,
}

impl DriftTracker {
    pub fn new(thresholds: DriftThresholds) -> DriftTracker {
        DriftTracker {
            thresholds,
            window: VecDeque::with_capacity(thresholds.window),
            ring: VecDeque::with_capacity(thresholds.ring_capacity),
            total_pages: 0,
        }
    }

    pub fn thresholds(&self) -> &DriftThresholds {
        &self.thresholds
    }

    /// Observe one served page: derive its signals from the extraction
    /// result (no truth labels), slide the window, remember the raw page
    /// in the re-learn ring, and return the updated verdict.
    pub fn observe(
        &mut self,
        set: &SectionWrapperSet,
        html: &str,
        query: Option<&str>,
        ex: &Extraction,
    ) -> DriftVerdict {
        let mut sig = PageSignal {
            empty: ex.sections.is_empty(),
            partial: !ex.diagnostics.is_empty(),
            ..PageSignal::default()
        };
        let mut family = false;
        for sec in &ex.sections {
            match sec.schema {
                SchemaId::Wrapper(i) => {
                    if let Some(w) = set.wrappers.get(i) {
                        if record_count_anomalous(w, sec.records.len()) {
                            // An implausible section is not a real hit:
                            // a redesign mashed into one garbage record
                            // must read as drift, not as health.
                            sig.anomaly = true;
                        } else {
                            sig.concrete = true;
                        }
                    } else {
                        sig.concrete = true;
                    }
                }
                SchemaId::Family(_) => family = true,
            }
        }
        sig.family_only = family && !sig.concrete;

        if self.window.len() == self.thresholds.window {
            self.window.pop_front();
        }
        self.window.push_back(sig);
        if self.ring.len() == self.thresholds.ring_capacity {
            self.ring.pop_front();
        }
        self.ring
            .push_back((html.to_string(), query.map(str::to_string)));
        self.total_pages += 1;
        self.verdict()
    }

    /// The rolling counters behind the verdict.
    pub fn counters(&self) -> DriftCounters {
        let mut c = DriftCounters {
            window: self.window.len(),
            total_pages: self.total_pages,
            ..DriftCounters::default()
        };
        for s in &self.window {
            c.concrete_pages += s.concrete as usize;
            c.empty_pages += s.empty as usize;
            c.family_fallback_pages += s.family_only as usize;
            c.partial_pages += s.partial as usize;
            c.anomalous_pages += s.anomaly as usize;
        }
        c
    }

    /// The current verdict over the rolling window.
    pub fn verdict(&self) -> DriftVerdict {
        let c = self.counters();
        let n = c.window;
        if n < self.thresholds.min_observations {
            return DriftVerdict::Stable;
        }
        let frac = |x: usize| x as f64 / n as f64;
        let miss = frac(n - c.concrete_pages);
        let t = &self.thresholds;
        if miss >= t.broken_miss || frac(c.anomalous_pages) >= t.broken_anomaly {
            return DriftVerdict::Broken;
        }
        if miss >= t.degrading_miss
            || frac(c.partial_pages) >= t.degrading_partial
            || frac(c.family_fallback_pages) >= t.degrading_family
            || frac(c.anomalous_pages) >= t.degrading_anomaly
        {
            return DriftVerdict::Degrading;
        }
        DriftVerdict::Stable
    }

    /// The ring buffer of recent raw pages, oldest first — the input to
    /// [`shadow_relearn`].
    pub fn recent_pages(&self) -> Vec<(String, Option<String>)> {
        self.ring.iter().cloned().collect()
    }
}

/// Label-free quality of a wrapper set on a holdout page split. Compared
/// lexicographically: pages that produced anything at all, then pages
/// with a *plausibly* served section (record count inside the serving
/// wrapper's plausibility window — a stale wrapper mashing a redesign
/// into one garbage record is productive but not plausible), then total
/// records, then fewer diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoldoutScore {
    pub pages: usize,
    /// Pages with at least one extracted section.
    pub productive_pages: usize,
    /// Pages with at least one plausibly served section: a concrete
    /// wrapper section with a sane record count, or a family section
    /// whose attributed member finds the count sane. Family service is
    /// first-class here — absorbed members only ever serve through their
    /// family, and must not score below a stale concrete match.
    pub plausible_pages: usize,
    pub records: usize,
    pub diagnostics: usize,
}

impl HoldoutScore {
    /// Strictly better on the lexicographic key — ties do NOT win, so a
    /// candidate that merely matches the incumbent is not promoted.
    pub fn beats(&self, other: &HoldoutScore) -> bool {
        (
            self.productive_pages,
            self.plausible_pages,
            self.records,
            other.diagnostics,
        ) > (
            other.productive_pages,
            other.plausible_pages,
            other.records,
            self.diagnostics,
        )
    }
}

/// Score a wrapper set on holdout pages (see [`HoldoutScore`]).
pub fn score_on_holdout(set: &SectionWrapperSet, pages: &[(&str, Option<&str>)]) -> HoldoutScore {
    let mut score = HoldoutScore {
        pages: pages.len(),
        ..HoldoutScore::default()
    };
    for ex in set.extract_batch(pages) {
        if !ex.sections.is_empty() {
            score.productive_pages += 1;
        }
        let mut fam_ordinal = vec![0usize; set.families.len()];
        let plausible = ex.sections.iter().any(|s| match s.schema {
            SchemaId::Wrapper(i) => set
                .wrappers
                .get(i)
                .map(|w| !record_count_anomalous(w, s.records.len()))
                .unwrap_or(false),
            SchemaId::Family(k) => {
                let ord = fam_ordinal.get(k).copied().unwrap_or(0);
                if let Some(o) = fam_ordinal.get_mut(k) {
                    *o += 1;
                }
                match set.attribute_family_hit(k, ord, s.records.len()) {
                    Some(m) => !record_count_anomalous(&set.wrappers[m], s.records.len()),
                    // No member to attribute to: the family
                    // generalization is serving on its own; trust it.
                    None => true,
                }
            }
        });
        if plausible {
            score.plausible_pages += 1;
        }
        score.records += ex.total_records();
        score.diagnostics += ex.diagnostics.len();
    }
    score
}

/// Why shadow re-learning produced no candidate.
#[derive(Debug)]
pub enum RelearnError {
    /// The ring held too few pages to split into train + holdout.
    TooFewPages(usize),
    /// Re-induction from the recent pages failed.
    Build(BuildError),
    /// The candidate failed the static-verification gate.
    Verification(String),
}

impl std::fmt::Display for RelearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelearnError::TooFewPages(n) => {
                write!(f, "shadow re-learn needs at least 3 recent pages, got {n}")
            }
            RelearnError::Build(e) => write!(f, "shadow re-learn build failed: {e}"),
            RelearnError::Verification(msg) => {
                write!(f, "candidate failed the verification gate: {msg}")
            }
        }
    }
}

impl std::error::Error for RelearnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelearnError::Build(e) => Some(e),
            _ => None,
        }
    }
}

/// The result of one shadow re-learn round.
#[derive(Clone, Debug)]
pub struct RelearnOutcome {
    /// The re-induced, verification-gated candidate.
    pub candidate: SectionWrapperSet,
    /// The incumbent's holdout score.
    pub old_score: HoldoutScore,
    /// The candidate's holdout score.
    pub new_score: HoldoutScore,
    /// Whether the candidate strictly beat the incumbent — the caller
    /// should promote only when this is set.
    pub promote: bool,
}

/// Re-induce a candidate wrapper set from recent pages and compare it
/// against the incumbent on a holdout split.
///
/// `recent` (oldest first, typically [`DriftTracker::recent_pages`]) is
/// split deterministically: even indices train, odd indices hold out, so
/// both halves sample the same recency mix. The candidate is built with
/// the incumbent's config, then passed through `verify_gate` — in
/// production, `mse-analyze`'s promotion gate (`|ws|
/// mse_analyze::promotion_gate(ws).map(|_| ())`); the closure keeps this
/// crate free of a dependency cycle on the analyzer. Promotion itself is
/// the caller's move (see `mse-store`), and only on `promote == true`.
pub fn shadow_relearn<F>(
    old: &SectionWrapperSet,
    recent: &[(String, Option<String>)],
    verify_gate: F,
) -> Result<RelearnOutcome, RelearnError>
where
    F: FnOnce(&SectionWrapperSet) -> Result<(), String>,
{
    if recent.len() < 3 {
        return Err(RelearnError::TooFewPages(recent.len()));
    }
    fn as_ref(pq: &(String, Option<String>)) -> (&str, Option<&str>) {
        (pq.0.as_str(), pq.1.as_deref())
    }
    let train: Vec<(&str, Option<&str>)> = recent.iter().step_by(2).map(as_ref).collect();
    let holdout: Vec<(&str, Option<&str>)> = recent.iter().skip(1).step_by(2).map(as_ref).collect();
    let candidate = Mse::new(old.cfg.clone())
        .build_with_queries(&train)
        .map_err(RelearnError::Build)?;
    verify_gate(&candidate).map_err(RelearnError::Verification)?;
    let old_score = score_on_holdout(old, &holdout);
    let new_score = score_on_holdout(&candidate, &holdout);
    let promote = new_score.beats(&old_score);
    Ok(RelearnOutcome {
        candidate,
        old_score,
        new_score,
        promote,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourceBudget;
    use crate::{Mse, MseConfig};

    fn serp(words: &[&str], query: &str) -> String {
        let mut html = format!(
            "<body><h1>Seek</h1><p>Results for <b>{query}</b>: 31 found</p>\
             <h3>Web Results</h3><div class=results>"
        );
        for (i, w) in words.iter().enumerate() {
            html.push_str(&format!(
                "<div class=r><a href=/d{i}>{w} title</a><br>{w} snippet text</div>"
            ));
        }
        html.push_str("</div><hr><p>Copyright Seek Inc.</p></body>");
        html
    }

    fn build() -> crate::SectionWrapperSet {
        let samples = [
            (
                serp(&["alpha", "beta", "gamma", "delta"], "knee injury"),
                "knee injury",
            ),
            (
                serp(&["red", "green", "blue"], "digital camera"),
                "digital camera",
            ),
            (
                serp(&["one", "two", "three", "four"], "jazz festival"),
                "jazz festival",
            ),
        ];
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|(h, q)| (h.as_str(), Some(*q)))
            .collect();
        Mse::new(MseConfig::default())
            .build_with_queries(&refs)
            .unwrap()
    }

    #[test]
    fn healthy_on_same_template() {
        let ws = build();
        let pages = [
            (
                serp(&["mercury", "venus"], "ocean climate"),
                "ocean climate",
            ),
            (
                serp(&["earth", "mars", "saturn"], "ancient history"),
                "ancient history",
            ),
        ];
        let refs: Vec<(&str, Option<&str>)> =
            pages.iter().map(|(h, q)| (h.as_str(), Some(*q))).collect();
        let report = ws.health_check(&refs);
        assert!(!report.needs_rebuild(), "{report:?}");
        assert_eq!(report.verdict(), DriftVerdict::Stable);
        assert_eq!(report.healthy_fraction(), 1.0);
        assert_eq!(report.empty_pages, 0);
        assert_eq!(report.ingest_failures, 0);
    }

    #[test]
    fn dead_after_site_redesign() {
        let ws = build();
        // The "redesigned" site: tables instead of divs, new chrome.
        let redesigned = "<body><div id=newhdr>Seek 2.0</div><table class=new>\
            <tr><td><a href=/x>thing one</a></td></tr>\
            <tr><td><a href=/y>thing two</a></td></tr></table></body>";
        let report = ws.health_check(&[(redesigned, None), (redesigned, None)]);
        assert!(report.needs_rebuild(), "{report:?}");
        assert_eq!(report.verdict(), DriftVerdict::Broken);
        assert!(report
            .wrappers
            .iter()
            .flatten()
            .any(|s| matches!(s, WrapperStatus::Dead)));
    }

    #[test]
    fn empty_batch_is_not_healthy() {
        let ws = build();
        let report = ws.health_check(&[]);
        assert_eq!(report.pages_checked, 0);
        assert!(
            report.needs_rebuild(),
            "an unchecked wrapper is not known-good"
        );
    }

    #[test]
    fn hostile_page_trips_budget_without_aborting_batch() {
        let mut ws = build();
        // A budget any healthy page passes but a node bomb cannot.
        ws.cfg.budget = ResourceBudget {
            max_dom_nodes: 500,
            ..ResourceBudget::default()
        };
        let bomb = format!("<body>{}</body>", "<div><p>x</p>".repeat(2_000));
        let good = serp(&["mercury", "venus"], "ocean climate");
        let pages: Vec<(&str, Option<&str>)> = vec![
            (bomb.as_str(), None),
            (good.as_str(), Some("ocean climate")),
        ];
        let report = ws.health_check(&pages);
        assert_eq!(report.pages_checked, 2, "{report:?}");
        assert_eq!(report.ingest_failures, 1);
        assert_eq!(report.empty_pages, 1);
        // The good page still produced a healthy hit.
        assert!(report.wrappers.iter().flatten().any(|s| matches!(
            s,
            WrapperStatus::Healthy { .. } | WrapperStatus::Degraded { .. }
        )));
    }

    #[test]
    fn drift_tracker_progresses_stable_degrading_broken() {
        let ws = build();
        let t = DriftThresholds {
            window: 6,
            min_observations: 3,
            ring_capacity: 8,
            ..DriftThresholds::default()
        };
        let mut tracker = DriftTracker::new(t);
        let good: Vec<String> = (0..6)
            .map(|i| serp(&["mercury", "venus", "earth"], &format!("query {i}")))
            .collect();
        let broken = "<body><div id=newhdr>Seek 2.0</div><table class=new>\
            <tr><td><a href=/x>thing one</a></td></tr></table></body>";
        let mut verdicts = Vec::new();
        for h in &good {
            let ex = ws.extract_with_query(h, None);
            verdicts.push(tracker.observe(&ws, h, None, &ex));
        }
        assert_eq!(*verdicts.last().unwrap(), DriftVerdict::Stable);
        assert_eq!(tracker.counters().concrete_pages, 6);
        // Mixed phase: every third page is the new template.
        for (i, g) in good.iter().enumerate() {
            let h = if i % 3 == 0 { broken } else { g.as_str() };
            let ex = ws.extract_with_query(h, None);
            verdicts.push(tracker.observe(&ws, h, None, &ex));
        }
        assert_eq!(*verdicts.last().unwrap(), DriftVerdict::Degrading);
        // Full redesign: window floods with misses.
        for _ in 0..6 {
            let ex = ws.extract_with_query(broken, None);
            verdicts.push(tracker.observe(&ws, broken, None, &ex));
        }
        assert_eq!(*verdicts.last().unwrap(), DriftVerdict::Broken);
        // Monotone progression: Stable before Degrading before Broken.
        let first_deg = verdicts
            .iter()
            .position(|v| *v == DriftVerdict::Degrading)
            .unwrap();
        let first_broken = verdicts
            .iter()
            .position(|v| *v == DriftVerdict::Broken)
            .unwrap();
        assert!(first_deg < first_broken);
        assert!(verdicts[..first_deg]
            .iter()
            .all(|v| *v == DriftVerdict::Stable));
        // The ring keeps only the most recent pages.
        let ring = tracker.recent_pages();
        assert_eq!(ring.len(), 8);
        assert!(ring.iter().all(|(h, _)| h == broken || h.contains("query")));
        assert_eq!(tracker.counters().total_pages, 18);
    }

    #[test]
    fn verdict_stable_until_min_observations() {
        let ws = build();
        let mut tracker = DriftTracker::new(DriftThresholds::default());
        let broken = "<body><p>nothing here</p></body>";
        let ex = ws.extract_with_query(broken, None);
        for _ in 0..DriftThresholds::default().min_observations - 1 {
            assert_eq!(
                tracker.observe(&ws, broken, None, &ex),
                DriftVerdict::Stable
            );
        }
        assert_eq!(
            tracker.observe(&ws, broken, None, &ex),
            DriftVerdict::Broken
        );
    }

    #[test]
    fn shadow_relearn_promotes_on_template_change() {
        let ws = build();
        // Ring of redesigned-template pages (div grid -> list items).
        let redesigned = |words: &[&str], query: &str| {
            let mut html = format!(
                "<body><div id=newhdr>Seek 2.0</div><p>Matches for <b>{query}</b>: 9</p>\
                 <h2>Results</h2><ul class=rl>"
            );
            for (i, w) in words.iter().enumerate() {
                html.push_str(&format!("<li><a href=/n{i}>{w} item</a> - {w} blurb</li>"));
            }
            html.push_str("</ul><hr><p>Copyright Seek 2.0</p></body>");
            html
        };
        let ring: Vec<(String, Option<String>)> = [
            (&["alpha", "beta", "gamma"][..], "knee injury"),
            (&["red", "green", "blue", "cyan"][..], "digital camera"),
            (&["one", "two", "three"][..], "jazz festival"),
            (&["hill", "lake", "dune", "reef"][..], "ocean climate"),
            (&["sun", "moon", "fog"][..], "ancient history"),
            (&["mercury", "venus", "earth"][..], "solar flares"),
        ]
        .iter()
        .map(|(ws_, q)| (redesigned(ws_, q), Some(q.to_string())))
        .collect();
        let outcome = shadow_relearn(&ws, &ring, |_| Ok(())).expect("relearn");
        assert!(outcome.promote, "{outcome:?}");
        assert!(outcome.new_score.beats(&outcome.old_score));
        assert_eq!(outcome.old_score.productive_pages, 0);
        assert_eq!(outcome.new_score.productive_pages, 3);
        // The candidate extracts from an unseen redesigned page.
        let test = redesigned(&["comet", "meteor"], "night sky");
        let ex = outcome
            .candidate
            .extract_with_query(&test, Some("night sky"));
        assert_eq!(ex.total_records(), 2, "{ex:?}");
    }

    #[test]
    fn shadow_relearn_rejects_no_better_candidate() {
        let ws = build();
        // Ring of same-template pages: the candidate can at best tie the
        // incumbent on holdout, and ties are not promoted.
        let ring: Vec<(String, Option<String>)> = [
            (&["alpha", "beta", "gamma"][..], "knee injury"),
            (&["red", "green", "blue", "cyan"][..], "digital camera"),
            (&["one", "two", "three"][..], "jazz festival"),
            (&["hill", "lake", "dune", "reef"][..], "ocean climate"),
            (&["sun", "moon", "fog"][..], "ancient history"),
            (&["mercury", "venus", "earth"][..], "solar flares"),
        ]
        .iter()
        .map(|(ws_, q)| (serp(ws_, q), Some(q.to_string())))
        .collect();
        let outcome = shadow_relearn(&ws, &ring, |_| Ok(())).expect("relearn");
        assert!(!outcome.promote, "{outcome:?}");
    }

    #[test]
    fn shadow_relearn_honors_verification_gate() {
        let ws = build();
        let pools = [
            &["alpha", "beta", "gamma"][..],
            &["red", "green", "blue", "cyan"][..],
            &["one", "two", "three"][..],
            &["hill", "lake", "dune"][..],
        ];
        let ring: Vec<(String, Option<String>)> = pools
            .iter()
            .enumerate()
            .map(|(i, words)| (serp(words, &format!("query {i}")), None))
            .collect();
        let err = shadow_relearn(&ws, &ring, |_| Err("rigged gate".into())).unwrap_err();
        assert!(matches!(err, RelearnError::Verification(_)), "{err:?}");
        let err = shadow_relearn(&ws, &ring[..2], |_| Ok(())).unwrap_err();
        assert!(matches!(err, RelearnError::TooFewPages(2)), "{err:?}");
    }

    #[test]
    fn drift_thresholds_validate() {
        assert!(DriftThresholds::default().validate().is_ok());
        let bad = DriftThresholds {
            window: 0,
            ..DriftThresholds::default()
        };
        assert!(bad.validate().is_err());
        let bad = DriftThresholds {
            min_observations: 99,
            window: 8,
            ..DriftThresholds::default()
        };
        assert!(bad.validate().is_err());
        let bad = DriftThresholds {
            broken_miss: 0.1,
            degrading_miss: 0.5,
            ..DriftThresholds::default()
        };
        assert!(bad.validate().is_err());
        let bad = DriftThresholds {
            degrading_partial: 1.5,
            ..DriftThresholds::default()
        };
        assert!(bad.validate().is_err());
    }
}
