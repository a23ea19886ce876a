//! The distance memo's key path allocates nothing once warm: encoding a
//! record's key ([`record_key`]: line encodings plus the tag-symbol walk
//! of its cover-table forest) and looking it up in a [`DistanceCache`]
//! that already holds it touches no heap.
//!
//! Registers [`mse_bench::alloc::CountingAlloc`] as this test binary's
//! global allocator. The counters are process-global, so this file holds
//! a **single** `#[test]`.

use mse_bench::alloc::{counting, CountingAlloc};
use mse_core::features::{record_key, KeyScratch};
use mse_core::{DistanceCache, ExtractScratch, Mse, MseConfig, Page, Rec};
use mse_testbed::EngineSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn memo_key_path_is_allocation_free() {
    // Engine 0's family never reaches its Dinr check on these pages;
    // engine 28's does on most of them, so its records reach the memo
    // through the production path.
    let cache = DistanceCache::new(true);
    let mut pages: Vec<Page> = Vec::new();
    let mut recs: Vec<Vec<Rec>> = Vec::new();
    for id in [0, 28] {
        let engine = EngineSpec::generate(2006, id);
        let samples: Vec<_> = (0..5).map(|q| engine.page(q)).collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        let ws = Mse::new(MseConfig::default())
            .build_with_queries(&refs)
            .expect("testbed engine must build");
        assert!(!ws.families.is_empty(), "engine {id} learns no family");
        let compiled = ws.compile();
        let view = compiled.view();
        let mut ext = ExtractScratch::new();
        // Warm-up: extraction with families kept keys the family Dinr
        // check's records in the memo; below, every extracted record and
        // every short line range is keyed once more, growing the scratch
        // buffers.
        for q in 0..12 {
            let p = engine.page(q);
            let page = Page::from_html(&p.html, Some(&p.query));
            let ex = view.extract_page_scratch(&page, &cache, &mut ext);
            let mut rs: Vec<Rec> = ex
                .sections
                .iter()
                .flat_map(|s| s.records.iter().map(|r| Rec::new(r.start, r.end)))
                .collect();
            let n = page.n_lines();
            for start in 0..n {
                for end in start + 1..=n.min(start + 4) {
                    rs.push(Rec::new(start, end));
                }
            }
            pages.push(page);
            recs.push(rs);
        }
    }
    assert!(
        cache.hits() + cache.misses() > 0,
        "probe is vacuous: no family Dinr check consulted the memo"
    );
    let mut scratch = KeyScratch::default();
    let warm: Vec<u32> = pages
        .iter()
        .zip(&recs)
        .flat_map(|(page, rs)| rs.iter().map(|&r| (page, r)).collect::<Vec<_>>())
        .map(|(page, r)| record_key(&cache, page, r, &mut scratch))
        .collect();

    // Steady state: every key again, with no heap allocation.
    let mut again = Vec::with_capacity(warm.len());
    let ((), allocs, bytes) = counting(|| {
        for (page, rs) in pages.iter().zip(&recs) {
            for &r in rs {
                again.push(record_key(&cache, page, r, &mut scratch));
            }
        }
    });
    assert_eq!(again, warm, "keys moved between passes");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "keying {} warm records allocated {allocs} time(s) / {bytes} byte(s)",
        warm.len()
    );
}
