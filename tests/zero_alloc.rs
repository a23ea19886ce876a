//! The "0 allocs/page" serving invariant, asserted as a test instead of
//! only as a bench-time probe.
//!
//! Registers [`mse_bench::alloc::CountingAlloc`] as this test binary's
//! global allocator and drives the compiled match path
//! ([`match_page_scratch`]) over testbed pages with a warmed scratch
//! arena. The counters are process-global, so this file deliberately
//! holds a **single** `#[test]`: a sibling test allocating concurrently
//! would charge its allocations to the measured window.
//!
//! [`match_page_scratch`]: mse_core::CompiledRef::match_page_scratch

use mse_bench::alloc::{counting, CountingAlloc};
use mse_core::{DistanceCache, ExtractScratch, Mse, MseConfig, Page};
use mse_testbed::EngineSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn compiled_match_path_is_allocation_free() {
    let seed = 2006;
    let engine = EngineSpec::generate(seed, 0);
    let samples: Vec<_> = (0..8).map(|q| engine.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    let ws = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("testbed engine 0 must build");

    // Families are stripped for the probe: the family Dinr check builds
    // tag forests, which allocate by design (serve.rs measures the same
    // wrapper-only configuration).
    let mut wrapper_only = ws.clone();
    wrapper_only.families.clear();
    wrapper_only.absorbed.clear();
    let compiled_set = wrapper_only.compile();
    let compiled = compiled_set.view();

    let pages: Vec<Page> = (0..12)
        .map(|q| {
            let p = engine.page(q);
            Page::from_html(&p.html, Some(&p.query))
        })
        .collect();
    let cache = DistanceCache::disabled();
    let mut scratch = ExtractScratch::new();

    // Warm-up: grow the scratch arena and the interner to steady state.
    let mut warm_sections = 0usize;
    for page in &pages {
        let (s, _r) = compiled.match_page_scratch(page, &cache, &mut scratch);
        warm_sections += s;
    }
    assert!(
        warm_sections > 0,
        "probe is vacuous: no page matched any wrapper"
    );

    // Steady state: zero heap allocation across the whole batch.
    let (matched, allocs, bytes) = counting(|| {
        let mut total = 0usize;
        for page in &pages {
            let (s, r) = compiled.match_page_scratch(page, &cache, &mut scratch);
            total += s + r;
        }
        total
    });
    assert!(matched > 0);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "compiled match path allocated {allocs} time(s) / {bytes} byte(s) \
         per {} warmed pages",
        pages.len()
    );
}
