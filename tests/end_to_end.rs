//! Cross-crate integration: generate a corpus, learn wrappers, extract,
//! and score — the full §6 protocol on a reduced corpus, with quality
//! floors that fail loudly if the pipeline regresses.

use mse::core::{Mse, MseConfig};
use mse::eval::{run_corpus, score_engine};
use mse::testbed::{Corpus, CorpusConfig};

#[test]
fn small_corpus_quality_floor() {
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let cfg = MseConfig::default();
    let score = run_corpus(&corpus, &cfg, 4);
    let (_, _, total) = score.all();
    // Floors sit well below observed values (recall ~0.77+, precision
    // ~0.9+ on this 12-engine corpus, which includes paired-div and
    // rare-schema engines) and exist to catch regressions.
    assert!(
        total.sections.recall_total() > 0.65,
        "section recall collapsed: {total:?}"
    );
    assert!(
        total.sections.precision_total() > 0.80,
        "section precision collapsed: {total:?}"
    );
    assert!(
        total.records.recall() > 0.90,
        "record recall collapsed: {total:?}"
    );
}

#[test]
fn wrapper_build_is_deterministic() {
    let corpus = Corpus::generate(CorpusConfig::small(5));
    let engine = &corpus.engines[0];
    let samples: Vec<(String, String)> = corpus
        .sample_pages(engine)
        .into_iter()
        .map(|p| (p.html, p.query))
        .collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|(h, q)| (h.as_str(), Some(q.as_str())))
        .collect();
    let a = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .unwrap();
    let b = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .unwrap();
    let page = engine.page(9);
    assert_eq!(
        a.extract_with_query(&page.html, Some(&page.query)),
        b.extract_with_query(&page.html, Some(&page.query)),
    );
}

#[test]
fn wrapper_set_round_trips_through_json() {
    let corpus = Corpus::generate(CorpusConfig::small(5));
    let engine = &corpus.engines[1];
    let samples: Vec<(String, String)> = corpus
        .sample_pages(engine)
        .into_iter()
        .map(|p| (p.html, p.query))
        .collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|(h, q)| (h.as_str(), Some(q.as_str())))
        .collect();
    let ws = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .unwrap();
    let json = serde_json::to_string(&ws).unwrap();
    // Files saved before the ingest selector was retired carry a
    // `legacy_ingest` member in the config; either value must still load
    // and extract as the current set does.
    let anchor = "\"strict_verify\":false,";
    assert!(json.contains(anchor), "config layout changed: {json}");
    let saved: Vec<String> = ["", "\"legacy_ingest\":true,", "\"legacy_ingest\":false,"]
        .iter()
        .map(|member| json.replacen(anchor, &format!("{anchor}{member}"), 1))
        .collect();
    for text in &saved {
        let back: mse::core::SectionWrapperSet = serde_json::from_str(text).unwrap();
        for q in 5..10 {
            let page = engine.page(q);
            assert_eq!(
                ws.extract_with_query(&page.html, Some(&page.query)),
                back.extract_with_query(&page.html, Some(&page.query)),
                "page {q} extraction differs after serde round-trip"
            );
        }
    }
}

#[test]
fn sample_vs_test_split_is_respected() {
    // Scoring must attribute 5 pages to each split.
    let corpus = Corpus::generate(CorpusConfig::small(8));
    let cfg = MseConfig::default();
    let engine = &corpus.engines[5];
    let outcome = score_engine(&corpus, engine, &cfg);
    let s = outcome.score.sample.sections;
    let t = outcome.score.test.sections;
    let gt_sample: usize = corpus
        .sample_pages(engine)
        .iter()
        .map(|p| p.truth.sections.len())
        .sum();
    let gt_test: usize = corpus
        .test_pages(engine)
        .iter()
        .map(|p| p.truth.sections.len())
        .sum();
    assert_eq!(s.actual, gt_sample);
    assert_eq!(t.actual, gt_test);
}

#[test]
fn extraction_preserves_document_order_and_disjointness() {
    let corpus = Corpus::generate(CorpusConfig::small(12));
    let cfg = MseConfig::default();
    for engine in corpus.engines.iter().take(4) {
        let samples: Vec<(String, String)> = corpus
            .sample_pages(engine)
            .into_iter()
            .map(|p| (p.html, p.query))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|(h, q)| (h.as_str(), Some(q.as_str())))
            .collect();
        let Ok(ws) = Mse::new(cfg.clone()).build_with_queries(&refs) else {
            continue;
        };
        for q in 0..10 {
            let page = engine.page(q);
            let ex = ws.extract_with_query(&page.html, Some(&page.query));
            let mut cursor = 0usize;
            for sec in &ex.sections {
                assert!(sec.start >= cursor, "sections overlap or out of order");
                assert!(sec.start < sec.end);
                cursor = sec.end;
                let mut rcursor = sec.start;
                for r in &sec.records {
                    assert!(
                        r.start >= rcursor && r.end <= sec.end,
                        "record outside section"
                    );
                    rcursor = r.end;
                }
            }
        }
    }
}
