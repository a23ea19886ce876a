//! Compiled-path equivalence guarantee: the compiled serving path
//! (interned tag-paths, render-time signatures, scratch arena) is a pure
//! performance feature. For every page, its output must be byte-identical
//! to the string-comparing reference matcher
//! ([`SectionWrapperSet::extract_page_legacy_cached`]) — same sections,
//! same records, same diagnostics, same JSON — and the public entry
//! points must agree with the full reference pipeline (owned-string
//! ingest, string matcher).

use mse::core::ingest::reference_ingest;
use mse::core::{
    DistanceCache, ExtractScratch, Extraction, Mse, MseConfig, Page, SectionWrapperSet,
};
use mse::testbed::EngineSpec;

fn build(engine: &EngineSpec, samples: usize) -> SectionWrapperSet {
    let pages: Vec<_> = (0..samples).map(|q| engine.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = pages
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("wrapper build")
}

#[test]
fn compiled_matches_legacy_over_testbed_corpus() {
    let cache = DistanceCache::disabled();
    let mut scratch = ExtractScratch::new();
    let mut pages_checked = 0usize;
    let mut records_seen = 0usize;
    for engine_id in 0..4 {
        let engine = EngineSpec::generate(2006, engine_id);
        let ws = build(&engine, 6);
        let compiled_set = ws.compile();
        let cw = compiled_set.view();
        // Test pages beyond the sample range too (unseen queries).
        for q in 0..10 {
            let gp = engine.page(q);
            let page = Page::from_html(&gp.html, Some(&gp.query));
            let legacy = ws.extract_page_legacy_cached(&page, &cache);
            let compiled = cw.extract_page_scratch(&page, &cache, &mut scratch);
            assert_eq!(
                serde_json::to_string(&legacy).expect("legacy json"),
                serde_json::to_string(&compiled).expect("compiled json"),
                "engine {engine_id} page {q}: compiled output differs from legacy"
            );
            pages_checked += 1;
            records_seen += compiled
                .sections
                .iter()
                .map(|s| s.records.len())
                .sum::<usize>();
        }
    }
    assert_eq!(pages_checked, 40);
    // The corpus must actually exercise extraction, or equality is vacuous.
    assert!(
        records_seen > 100,
        "differential corpus extracted too few records ({records_seen})"
    );
}

/// The full reference pipeline: owned-string ingest, string matcher.
fn reference_extract(ws: &SectionWrapperSet, html: &str, query: Option<&str>) -> Extraction {
    match reference_ingest(html, query, &ws.cfg.budget) {
        Ok((page, diags)) => {
            let mut ex = ws.extract_page_legacy_cached(&page, &DistanceCache::disabled());
            ex.diagnostics.splice(0..0, diags);
            ex
        }
        Err(e) => Extraction::degraded(&e),
    }
}

#[test]
fn public_entry_points_agree_end_to_end() {
    // extract_with_query (fused ingest, compiled matcher) vs the reference
    // pipeline, full HTML in.
    let engine = EngineSpec::generate(7, 1);
    let ws = build(&engine, 5);
    for q in 0..6 {
        let gp = engine.page(q);
        let a: Extraction = ws.extract_with_query(&gp.html, Some(&gp.query));
        let b: Extraction = reference_extract(&ws, &gp.html, Some(&gp.query));
        assert_eq!(
            a, b,
            "page {q}: extract_with_query differs from the reference"
        );
    }
}

#[test]
fn batch_matches_single_page_compiled() {
    // The work-stealing batch path must agree with per-page extraction.
    let engine = EngineSpec::generate(2006, 2);
    let ws = build(&engine, 5);
    let pages: Vec<_> = (0..8).map(|q| engine.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = pages
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    for threads in [1, 3] {
        let mut tws = ws.clone();
        tws.cfg.threads = threads;
        let batch = tws.extract_batch(&refs);
        let single: Vec<Extraction> = pages
            .iter()
            .map(|p| ws.extract_with_query(&p.html, Some(&p.query)))
            .collect();
        assert_eq!(batch, single, "threads={threads}");
    }
}
