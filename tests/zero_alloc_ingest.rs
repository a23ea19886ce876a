//! Steady-state allocation invariant for the fused zero-copy ingest
//! (DESIGN.md §13), companion to `zero_alloc.rs` for the match path.
//!
//! Registers [`mse_bench::alloc::CountingAlloc`] as this test binary's
//! global allocator and drives [`Page::try_from_html_fast`] over testbed
//! pages with a warmed [`IngestScratch`]. Ingest is not literally
//! zero-alloc — page text sizes vary, so some buffers regrow — but at
//! steady state it must (a) keep its pools at a fixed point instead of
//! growing without bound, and (b) allocate several times less than the
//! owned-string reference ingest on the same corpus.
//!
//! The counters are process-global, so this file deliberately holds a
//! **single** `#[test]`: a sibling test allocating concurrently would
//! charge its allocations to the measured window.

use mse_bench::alloc::{counting, CountingAlloc};
use mse_core::ingest::reference_ingest;
use mse_core::{IngestScratch, Page, ResourceBudget};
use mse_testbed::EngineSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn fast_ingest_reaches_allocation_steady_state() {
    let seed = 2006;
    let engine = EngineSpec::generate(seed, 0);
    let samples: Vec<_> = (0..12).map(|q| engine.page(q)).collect();
    let budget = ResourceBudget::default();
    let mut scratch = IngestScratch::new();

    // Warm-up rep: grow the node arena and the attr/text/line pools to
    // their steady state for this corpus.
    for s in &samples {
        let (p, _d) = Page::try_from_html_fast(&s.html, Some(&s.query), &budget, &mut scratch)
            .expect("testbed page must ingest");
        scratch.recycle(p);
    }
    let warmed = scratch.pool_sizes();

    // Measured rep: same corpus through the warmed scratch.
    let (_, fast_allocs, _) = counting(|| {
        for s in &samples {
            let (p, _d) = Page::try_from_html_fast(&s.html, Some(&s.query), &budget, &mut scratch)
                .expect("testbed page must ingest");
            scratch.recycle(p);
        }
    });
    assert_eq!(
        scratch.pool_sizes(),
        warmed,
        "scratch pools must reach a fixed point, not grow per rep"
    );

    // Reference: the owned-string reference ingest on the identical corpus.
    let (_, reference_allocs, _) = counting(|| {
        for s in &samples {
            let _ = reference_ingest(&s.html, Some(&s.query), &budget)
                .expect("testbed page must ingest");
        }
    });

    let n = samples.len() as u64;
    assert!(
        fast_allocs * 4 < reference_allocs,
        "fast ingest allocated {fast_allocs} vs reference {reference_allocs} over {n} pages; \
         expected at least a 4x reduction (bench shows ~17x)"
    );
    assert!(
        fast_allocs / n <= 128,
        "fast ingest averaged {} allocs/page at steady state (bound: 128)",
        fast_allocs / n
    );
}
