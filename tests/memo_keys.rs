//! The distance memo's record keys ([`record_key`]) against the string
//! keys they replaced: the tag-forest signature strings plus the `Debug`
//! encoding of each line's (type, position, attrs). Over testbed builds
//! both keys must split records into the same classes, so the memo
//! answers exactly the same lookups; with tag names that contain the
//! signature's own parentheses, the string key merged records with
//! different forests, and the word key keeps them apart.

use mse::core::features::{record_key, KeyScratch};
use mse::core::{DistanceCache, Features, Mse, MseConfig, Page, Rec};
use mse::dom::{intern, Dom, NodeKind};
use mse::render::{render_lines, RenderedPage};
use mse::testbed::{Corpus, CorpusConfig};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The string key the memo used before word keys.
fn string_key(page: &Page, r: Rec) -> String {
    let mut s = String::from("R|");
    for t in &page.forest(r.start, r.end) {
        s.push_str(&t.signature());
    }
    for l in &page.rp.lines[r.start..r.end] {
        let _ = write!(s, "|{:?},{},{:?}", l.ltype, l.pos, l.attrs);
    }
    s
}

#[test]
fn word_keys_partition_records_like_string_keys() {
    // Every line range of every sample page of a build — a superset of
    // the records any `Drec` of that build compares — keyed both ways in
    // one cache per build, as the build keys them. Every fourth engine of
    // the seed-2006 testbed keeps the debug-build run short.
    let corpus = Corpus::generate(CorpusConfig::default());
    let mut records = 0usize;
    for spec in corpus.engines.iter().step_by(4) {
        let cache = DistanceCache::new(true);
        let mut scratch = KeyScratch::default();
        let mut by_string: HashMap<String, u32> = HashMap::new();
        let mut by_word: HashMap<u32, String> = HashMap::new();
        for p in corpus.sample_pages(spec) {
            let page = Page::from_html(&p.html, Some(&p.query));
            let n = page.n_lines();
            for start in 0..n {
                for end in start + 1..=n {
                    let r = Rec::new(start, end);
                    let s = string_key(&page, r);
                    let w = record_key(&cache, &page, r, &mut scratch);
                    let w_seen = *by_string.entry(s.clone()).or_insert(w);
                    assert_eq!(
                        w_seen, w,
                        "engine {}: equal string keys, different word keys",
                        spec.id
                    );
                    let s_seen = by_word.entry(w).or_insert_with(|| s.clone());
                    assert_eq!(
                        *s_seen, s,
                        "engine {}: equal word keys, different string keys",
                        spec.id
                    );
                    records += 1;
                }
            }
        }
    }
    assert!(records > 10_000, "only {records} records compared");
}

#[test]
fn build_memo_lookups_match_string_keyed_builds() {
    // Hits and misses of every seed-2006 build (single-threaded, so the
    // counts are deterministic) as the string-keyed memo recorded them:
    // the word keys answer the same lookups from the memo.
    let mse = Mse::new(MseConfig {
        threads: 1,
        ..MseConfig::default()
    });
    let corpus = Corpus::generate(CorpusConfig::default());
    let (mut hits, mut misses) = (0u64, 0u64);
    for spec in &corpus.engines {
        let samples = corpus.sample_pages(spec);
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        let cache = DistanceCache::new(true);
        let _ = mse.build_with_queries_cached(&refs, &cache);
        hits += cache.hits();
        misses += cache.misses();
    }
    assert_eq!((hits, misses), (120_481, 6_816));
}

/// A page from a hand-built DOM: `<body>` holding one `<div>` per entry
/// of `divs`, each a list of (tag, text) children (`None` = empty).
fn hand_built_page(divs: &[&[(&str, Option<&str>)]]) -> Page {
    let mut dom = Dom::new();
    let el = |dom: &mut Dom, tag: &str| {
        dom.alloc(NodeKind::Element {
            tag: intern::intern_pair(tag).1,
            attrs: Vec::new(),
        })
    };
    let html = el(&mut dom, "html");
    dom.append(dom.root(), html);
    let body = el(&mut dom, "body");
    dom.append(html, body);
    for children in divs {
        let div = el(&mut dom, "div");
        dom.append(body, div);
        for &(tag, text) in children.iter() {
            let child = el(&mut dom, tag);
            dom.append(div, child);
            if let Some(t) = text {
                let t = dom.alloc(NodeKind::Text(t.to_string()));
                dom.append(child, t);
            }
        }
    }
    let lines = render_lines(&dom);
    let cleaned = vec![String::new(); lines.len()];
    Page {
        rp: RenderedPage::assemble(dom, lines),
        query: None,
        cleaned,
    }
}

#[test]
fn parenthesised_tag_names_do_not_collide() {
    // The HTML tokenizer only reads `[A-Za-z0-9:-]` tag names, but a DOM
    // built through the `Dom` API can name a tag `p)(p`. Lines 0 and 1
    // then lift to `div[p, p[#text]]` and `div[p)(p[#text]]`: different
    // forests whose signatures are both "(div(p)(p(#text)))", on lines
    // with equal type, position and attrs.
    let page = hand_built_page(&[
        &[("p", None), ("p", Some("t"))],
        &[("p)(p", Some("t"))],
        &[("b", Some("u"))],
    ]);
    assert_eq!(page.n_lines(), 3);
    let (a, b, c) = (Rec::new(0, 1), Rec::new(1, 2), Rec::new(2, 3));
    assert_ne!(page.forest(0, 1), page.forest(1, 2));
    assert_eq!(string_key(&page, a), string_key(&page, b));

    let cache = DistanceCache::new(true);
    let mut scratch = KeyScratch::default();
    let ka = record_key(&cache, &page, a, &mut scratch);
    let kb = record_key(&cache, &page, b, &mut scratch);
    assert_ne!(ka, kb);

    // The memoized distances equal the reference engine's. (Keyed by
    // the string, the memo answered `Drec(b, c)` with `Drec(a, c)`.)
    let cfg = MseConfig::default();
    let mut reference = Features::new(&page, &cfg);
    let (d_ac, d_bc) = (reference.drec(a, c), reference.drec(b, c));
    assert_ne!(d_ac, d_bc);
    let mut memo = Features::with_cache(&page, &cfg, &cache);
    assert_eq!(memo.drec(a, c), d_ac);
    assert_eq!(memo.drec(b, c), d_bc);
}

#[test]
fn forest_shape_is_part_of_the_key() {
    // Same preorder labels (div b b #text), different shapes: the
    // string keys differ, so the word keys must too.
    let page = Page::from_html(
        "<body><div><b></b><b>t</b></div><div><b><b>t</b></b></div></body>",
        None,
    );
    assert_eq!(page.n_lines(), 2);
    let (a, b) = (Rec::new(0, 1), Rec::new(1, 2));
    assert_ne!(string_key(&page, a), string_key(&page, b));
    let cache = DistanceCache::new(true);
    let mut scratch = KeyScratch::default();
    assert_ne!(
        record_key(&cache, &page, a, &mut scratch),
        record_key(&cache, &page, b, &mut scratch)
    );
}
