//! Serving-path benchmark: measures what the compiled-wrapper work
//! (interned tag-paths, render-time signatures, reusable scratch arena)
//! and the zero-copy fused ingest (DESIGN.md §13) buy over the
//! owned-string reference path (reference ingest, string matcher), which
//! no production code runs any more.
//!
//! Experiments, all on wrapper sets built once from testbed samples:
//!
//! 1. **Single-thread match**: legacy [`apply_wrapper`] loop vs compiled
//!    [`match_page_scratch`] on a families-stripped set (candidate
//!    proposal only — the hot inner path, and the steady-state
//!    zero-allocation probe). This is `match_speedup`.
//! 2. **Single-thread extraction**: [`extract_page_legacy_cached`] vs
//!    [`extract_page_scratch`] end to end (materialization included),
//!    with a byte-identity check on the JSON output. Allocation counts
//!    are recorded on the **last** warm rep, so they measure the
//!    steady-state serving window only — not first-rep warm-up growth.
//! 3. **Per-stage ingest timings**: the zero-copy lexer driven to
//!    exhaustion (`tokenize_ms`), the fused serving parse with scratch
//!    recycling (`parse_ms`), content-line layout over prebuilt DOMs with
//!    donor-pool recycling (`render_ms`), and the compiled match probe
//!    (`match_ms`, same figure as experiment 1).
//! 4. **Fast vs reference ingest**: [`Page::try_from_html_fast`] with a
//!    recycled [`IngestScratch`] vs [`reference_ingest`], html → `Page`.
//!    `ingest_speedup` is the tentpole target (>= 2x). The headline
//!    `pages_per_sec` is the full fused pipeline — html → ingest →
//!    compiled extraction — on one thread.
//! 5. **Skewed parallel batch**: the page list sorted by descending cost
//!    fanned out with the old fixed-chunk scheduler vs the work-stealing
//!    scheduler + per-worker scratch.
//!
//! `identical_extractions` covers both identity gates: compiled vs legacy
//! extraction on pre-rendered pages, and production batch extraction
//! ([`SectionWrapperSet::extract_batch`]: fused ingest, compiled matcher)
//! vs the full reference pipeline ([`reference_ingest`], then
//! [`extract_page_legacy_cached`]) on every page. Exits nonzero if either
//! differs (the CI bench-smoke job relies on this).
//!
//! Usage: `serve [--engines N] [--pages N] [--samples N] [--seed N]
//!         [--reps N] [--threads N] [--out FILE] [--check-baseline FILE]`
//!
//! With `--check-baseline`, the committed report is read back and the run
//! also fails if the fresh `pages_per_sec` regressed more than 10% below
//! the baseline's.
//!
//! [`apply_wrapper`]: mse_core::wrapper::apply_wrapper
//! [`match_page_scratch`]: mse_core::CompiledRef::match_page_scratch
//! [`extract_page_legacy_cached`]: mse_core::SectionWrapperSet::extract_page_legacy_cached
//! [`extract_page_scratch`]: mse_core::CompiledRef::extract_page_scratch
//! [`reference_ingest`]: mse_core::ingest::reference_ingest
//! [`SectionWrapperSet::extract_batch`]: mse_core::SectionWrapperSet::extract_batch

use mse_bench::alloc::{counting, CountingAlloc};
use mse_core::ingest::reference_ingest;
use mse_core::wrapper::apply_wrapper;
use mse_core::{
    DistanceCache, ExtractScratch, Extraction, IngestScratch, Mse, MseConfig, Page,
    SectionWrapperSet,
};
use mse_testbed::EngineSpec;
use serde::Serialize;
use std::time::Instant;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct SingleThread {
    /// Candidate proposal only (wrapper-only sets): legacy `apply_wrapper`
    /// loop vs compiled `match_page_scratch`.
    match_legacy_ms: f64,
    match_compiled_ms: f64,
    /// The compiled-matcher target: >= 3x.
    match_speedup: f64,
    /// Full extraction (materialization included): legacy vs compiled.
    extract_legacy_ms: f64,
    extract_compiled_ms: f64,
    extract_speedup: f64,
    legacy_pages_per_sec: f64,
    compiled_pages_per_sec: f64,
}

/// Where one fused-pipeline pass spends its time, stage by stage, over
/// the whole corpus on one thread.
#[derive(Serialize)]
struct Stages {
    /// Zero-copy lexer ([`mse_dom::Lexer`]) driven to exhaustion.
    tokenize_ms: f64,
    /// Fused serving parse (`parse_serving`): lexer + arena build +
    /// signature labels, node storage recycled between pages.
    parse_ms: f64,
    /// Content-line layout over prebuilt DOMs, donor-pool recycled.
    render_ms: f64,
    /// Compiled wrapper match probe (same figure as `match_compiled_ms`).
    match_ms: f64,
}

/// html → [`Page`] ingest comparison (no wrapper matching).
#[derive(Serialize)]
struct Ingest {
    /// Owned-string reference path: `mse_core::ingest::reference_ingest`.
    legacy_ingest_ms: f64,
    /// Fused zero-copy path with a recycled `IngestScratch`.
    fast_ingest_ms: f64,
    /// The tentpole target: >= 2x.
    ingest_speedup: f64,
}

#[derive(Serialize)]
struct Allocations {
    /// Steady-state allocations per page on the warmed match probe
    /// (families stripped) — the "allocation-free serving path" figure.
    match_allocs_per_page: f64,
    match_bytes_per_page: f64,
    /// Full compiled extraction on pre-rendered pages (Extraction
    /// materialization allocates by design — it owns its record texts).
    /// Recorded on the last warm rep: serving-only, no warm-up growth.
    extract_allocs_per_page: f64,
    legacy_allocs_per_page: f64,
    /// Steady-state fused ingest (parse + render + signatures + cleaned
    /// lines) with scratch recycling, recorded on the last warm rep.
    parse_allocs_per_page: f64,
    /// Same window on the owned-string reference ingest, for contrast.
    legacy_ingest_allocs_per_page: f64,
}

/// One width of the parallel-batch thread sweep: chunked vs
/// work-stealing at a fixed worker count. On a single-core host the
/// sweep is flat — total work is the bottleneck at every width — and the
/// figures say so honestly rather than extrapolating a speedup.
#[derive(Serialize)]
struct ParallelPoint {
    threads: usize,
    /// Old scheduler: contiguous fixed chunks, fresh scratch per page.
    chunked_ms: f64,
    /// New scheduler: atomic-counter work-stealing, per-worker scratch.
    stealing_ms: f64,
    stealing_speedup: f64,
    /// Work-stealing throughput at this width (pre-rendered pages).
    pages_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    engines: usize,
    pages_per_engine: usize,
    samples_per_engine: usize,
    total_pages: usize,
    reps: usize,
    available_parallelism: usize,
    /// Headline: full fused pipeline (html → zero-copy ingest → compiled
    /// extraction) on one thread.
    pages_per_sec: f64,
    single_thread: SingleThread,
    stages: Stages,
    ingest: Ingest,
    allocations: Allocations,
    /// Thread sweep, ascending width.
    parallel: Vec<ParallelPoint>,
    /// Both identity gates: compiled-vs-legacy extraction on pre-rendered
    /// pages AND fast-vs-legacy ingest batch extraction, byte-for-byte.
    identical_extractions: bool,
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One engine's serving state: the built set, a wrapper-only clone for the
/// match probe, its raw test inputs, and their pre-rendered pages.
struct EngineRun {
    ws: SectionWrapperSet,
    /// `ws` with families stripped and absorption undone — every wrapper
    /// applies directly, which is exactly what the legacy match loop below
    /// does, so the two probes do identical logical work.
    wrapper_only: SectionWrapperSet,
    /// (html, query) pairs — the ingest experiments re-parse these.
    inputs: Vec<(String, String)>,
    pages: Vec<Page>,
}

/// Legacy match probe: the pre-compilation candidate-proposal loop.
fn legacy_match(run: &EngineRun, page: &Page) -> usize {
    let mut seen: Vec<mse_dom::NodeId> = Vec::new();
    let mut found = 0usize;
    for w in &run.wrapper_only.wrappers {
        if let Some((node, sec)) = apply_wrapper(page, &run.wrapper_only.cfg, w, &seen) {
            seen.push(node);
            found += sec.records.len();
        }
    }
    found
}

fn map_get<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, x)| x)
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Float(x) => Some(*x),
        serde::Value::UInt(n) => Some(*n as f64),
        serde::Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// `--check-baseline`: fail if this run's `pages_per_sec` fell more than
/// 10% below the committed report's. Baselines that predate the field
/// fall back to `single_thread.compiled_pages_per_sec` (the old headline)
/// so the gate still bites on old checkouts.
fn check_baseline(path: &str, fresh_pps: f64) -> Result<(), String> {
    let txt =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let v: serde::Value =
        serde_json::from_str(&txt).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
    let base = map_get(&v, "pages_per_sec")
        .and_then(as_f64)
        .or_else(|| {
            map_get(&v, "single_thread")
                .and_then(|s| map_get(s, "compiled_pages_per_sec"))
                .and_then(as_f64)
        })
        .ok_or_else(|| format!("baseline {path} has no pages_per_sec figure"))?;
    if map_get(&v, "identical_extractions") != Some(&serde::Value::Bool(true)) {
        return Err(format!("baseline {path} has identical_extractions != true"));
    }
    if fresh_pps < base * 0.9 {
        return Err(format!(
            "pages_per_sec regression: {fresh_pps:.0} is more than 10% below baseline {base:.0}"
        ));
    }
    eprintln!("baseline check: {fresh_pps:.0} pages/s vs baseline {base:.0} — ok");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_engines: usize = arg(&args, "--engines", 4);
    let pages_per_engine: usize = arg(&args, "--pages", 16);
    let samples_per_engine: usize = arg(&args, "--samples", 8);
    let seed: u64 = arg(&args, "--seed", 2006);
    let reps: usize = arg(&args, "--reps", 3).max(1);
    let threads: usize = arg(&args, "--threads", 0);
    let out_path = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let baseline_path = arg_str(&args, "--check-baseline");

    let cfg = MseConfig::default();
    let cache = DistanceCache::disabled();
    let budget = cfg.budget;

    // Build each engine's wrapper set once, pre-render its test pages.
    let mut runs: Vec<EngineRun> = Vec::new();
    for id in 0..n_engines {
        let engine = EngineSpec::generate(seed, id);
        let samples: Vec<_> = (0..samples_per_engine).map(|q| engine.page(q)).collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        let Ok(ws) = Mse::new(cfg.clone()).build_with_queries(&refs) else {
            eprintln!("serve: engine {id} failed to build, skipping");
            continue;
        };
        let mut wrapper_only = ws.clone();
        wrapper_only.families.clear();
        wrapper_only.absorbed.clear();
        let inputs: Vec<(String, String)> = (0..pages_per_engine)
            .map(|q| {
                let p = engine.page(q);
                (p.html, p.query)
            })
            .collect();
        let pages: Vec<Page> = inputs
            .iter()
            .map(|(html, q)| Page::from_html(html, Some(q)))
            .collect();
        runs.push(EngineRun {
            ws,
            wrapper_only,
            inputs,
            pages,
        });
    }
    let total_pages: usize = runs.iter().map(|r| r.pages.len()).sum();
    assert!(total_pages > 0, "no engine built a wrapper set");
    eprintln!(
        "serve: {} engines x {pages_per_engine} pages = {total_pages} pages, seed {seed}",
        runs.len()
    );

    let compiled_sets: Vec<_> = runs.iter().map(|r| r.ws.compile()).collect();
    let compiled: Vec<_> = compiled_sets.iter().map(|c| c.view()).collect();
    let wrapper_only_sets: Vec<_> = runs.iter().map(|r| r.wrapper_only.compile()).collect();
    let compiled_wrapper_only: Vec<_> = wrapper_only_sets.iter().map(|c| c.view()).collect();

    // ---- 1. Single-thread match probe (apply-wrapper speedup) ----
    let mut scratch = ExtractScratch::new();
    // Warm-up: grow scratch + interner to steady state.
    for (e, run) in runs.iter().enumerate() {
        for page in &run.pages {
            legacy_match(run, page);
            compiled_wrapper_only[e].match_page_scratch(page, &cache, &mut scratch);
        }
    }
    let mut match_legacy_ms = f64::MAX;
    let mut match_compiled_ms = f64::MAX;
    let mut sink = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        for run in &runs {
            for page in &run.pages {
                sink = sink.wrapping_add(legacy_match(run, page));
            }
        }
        match_legacy_ms = match_legacy_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for (e, run) in runs.iter().enumerate() {
            for page in &run.pages {
                let (_, r) =
                    compiled_wrapper_only[e].match_page_scratch(page, &cache, &mut scratch);
                sink = sink.wrapping_add(r);
            }
        }
        match_compiled_ms = match_compiled_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    // Steady-state allocation counts (one full corpus pass each).
    let ((), match_allocs, match_bytes) = counting(|| {
        for (e, run) in runs.iter().enumerate() {
            for page in &run.pages {
                compiled_wrapper_only[e].match_page_scratch(page, &cache, &mut scratch);
            }
        }
    });

    // ---- 2. Single-thread full extraction + byte-identity ----
    // Allocation figures are taken on the LAST rep: the first rep still
    // grows scratch/interner state, so recording it would overstate the
    // steady-state serving cost (the old rep-0 accounting bug).
    let mut extract_legacy_ms = f64::MAX;
    let mut extract_compiled_ms = f64::MAX;
    let mut legacy_out: Vec<Extraction> = Vec::new();
    let mut compiled_out: Vec<Extraction> = Vec::new();
    let mut legacy_allocs = 0u64;
    let mut extract_allocs = 0u64;
    for rep in 0..reps {
        legacy_out.clear();
        let (t, a, _) = {
            let t = Instant::now();
            let ((), a, b) = counting(|| {
                for run in &runs {
                    for page in &run.pages {
                        legacy_out.push(run.ws.extract_page_legacy_cached(page, &cache));
                    }
                }
            });
            (t.elapsed().as_secs_f64() * 1e3, a, b)
        };
        extract_legacy_ms = extract_legacy_ms.min(t);
        compiled_out.clear();
        let (t2, a2, _) = {
            let t = Instant::now();
            let ((), a, b) = counting(|| {
                for (e, run) in runs.iter().enumerate() {
                    for page in &run.pages {
                        compiled_out.push(compiled[e].extract_page_scratch(
                            page,
                            &cache,
                            &mut scratch,
                        ));
                    }
                }
            });
            (t.elapsed().as_secs_f64() * 1e3, a, b)
        };
        extract_compiled_ms = extract_compiled_ms.min(t2);
        if rep + 1 == reps {
            legacy_allocs = a;
            extract_allocs = a2;
        }
    }
    let identical_compiled = match (
        serde_json::to_string(&legacy_out),
        serde_json::to_string(&compiled_out),
    ) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };

    // ---- 3. Per-stage ingest timings ----
    // Tokenize: the zero-copy lexer driven to exhaustion over raw HTML.
    let mut tokenize_ms = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for run in &runs {
            for (html, _) in &run.inputs {
                let mut lx = mse_dom::Lexer::new(html);
                while let Some(ev) = lx.next_event() {
                    sink = sink.wrapping_add(match ev {
                        mse_dom::Event::Text(s) => s.len(),
                        _ => 1,
                    });
                }
            }
        }
        tokenize_ms = tokenize_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    // Parse: fused serving parse, node storage recycled between pages.
    // One extra pass each below (0..=reps): the first grows the recycled
    // storage to steady state before any timing can win the min.
    let limits = budget.parse_limits();
    let mut parse_scratch = mse_dom::ParseScratch::new();
    let mut parse_ms = f64::MAX;
    for _ in 0..=reps {
        let t = Instant::now();
        for run in &runs {
            for (html, _) in &run.inputs {
                let (dom, labels) = mse_dom::parse_serving(html, &limits, &mut parse_scratch)
                    .expect("testbed page within budget");
                sink = sink.wrapping_add(dom.len());
                parse_scratch.recycle(dom, labels);
            }
        }
        parse_ms = parse_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    // Render: content-line layout over prebuilt DOMs, donor-pool recycled.
    let doms: Vec<mse_dom::Dom> = runs
        .iter()
        .flat_map(|run| run.inputs.iter())
        .map(|(html, _)| {
            let (dom, _) = mse_dom::parse_serving(html, &limits, &mut parse_scratch)
                .expect("testbed page within budget");
            dom
        })
        .collect();
    let mut line_scratch = mse_render::LineScratch::new();
    let mut render_ms = f64::MAX;
    for _ in 0..=reps {
        let t = Instant::now();
        for dom in &doms {
            let (lines, _) = mse_render::render_lines_capped_scratch(
                dom,
                budget.max_content_lines,
                &mut line_scratch,
            );
            sink = sink.wrapping_add(lines.len());
            line_scratch.recycle(lines);
        }
        render_ms = render_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(doms);

    // ---- 4. Fast vs reference ingest (html → Page) + headline ----
    let mut ingest_scratch = IngestScratch::new();
    let mut legacy_ingest_ms = f64::MAX;
    let mut fast_ingest_ms = f64::MAX;
    let mut legacy_ingest_allocs = 0u64;
    let mut parse_allocs = 0u64;
    for rep in 0..=reps {
        let (t, a, _) = {
            let t = Instant::now();
            let ((), a, b) = counting(|| {
                for run in &runs {
                    for (html, q) in &run.inputs {
                        let (page, _) = reference_ingest(html, Some(q), &budget)
                            .expect("testbed page within budget");
                        sink = sink.wrapping_add(page.rp.lines.len());
                    }
                }
            });
            (t.elapsed().as_secs_f64() * 1e3, a, b)
        };
        legacy_ingest_ms = legacy_ingest_ms.min(t);
        let (t2, a2, _) = {
            let t = Instant::now();
            let ((), a, b) = counting(|| {
                for run in &runs {
                    for (html, q) in &run.inputs {
                        let (page, _) =
                            Page::try_from_html_fast(html, Some(q), &budget, &mut ingest_scratch)
                                .expect("testbed page within budget");
                        sink = sink.wrapping_add(page.rp.lines.len());
                        ingest_scratch.recycle(page);
                    }
                }
            });
            (t.elapsed().as_secs_f64() * 1e3, a, b)
        };
        fast_ingest_ms = fast_ingest_ms.min(t2);
        if rep == reps {
            legacy_ingest_allocs = a;
            parse_allocs = a2;
        }
    }

    // Headline: the full fused pipeline, html → Page → compiled
    // extraction, one thread, scratch recycled throughout.
    let mut e2e_ms = f64::MAX;
    for _ in 0..=reps {
        let t = Instant::now();
        for (e, run) in runs.iter().enumerate() {
            for (html, q) in &run.inputs {
                let (page, _) =
                    Page::try_from_html_fast(html, Some(q), &budget, &mut ingest_scratch)
                        .expect("testbed page within budget");
                let ex = compiled[e].extract_page_scratch(&page, &cache, &mut scratch);
                sink = sink.wrapping_add(ex.total_records());
                ingest_scratch.recycle(page);
            }
        }
        e2e_ms = e2e_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let pages_per_sec = total_pages as f64 / (e2e_ms / 1e3);

    // Identity gate for the production path: batch extraction (fused
    // ingest, compiled matcher) must produce the JSON of the reference
    // pipeline (owned-string ingest, string matcher) on every page.
    let mut identical_ingest = true;
    for run in &runs {
        let refs: Vec<(&str, Option<&str>)> = run
            .inputs
            .iter()
            .map(|(h, q)| (h.as_str(), Some(q.as_str())))
            .collect();
        let fast = run.ws.extract_batch(&refs);
        let legacy: Vec<Extraction> = refs
            .iter()
            .map(
                |(html, q)| match reference_ingest(html, *q, &run.ws.cfg.budget) {
                    Ok((page, diags)) => {
                        let mut ex = run.ws.extract_page_legacy_cached(&page, &cache);
                        ex.diagnostics.splice(0..0, diags);
                        ex
                    }
                    Err(e) => Extraction::degraded(&e),
                },
            )
            .collect();
        let same = match (serde_json::to_string(&fast), serde_json::to_string(&legacy)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if !same {
            identical_ingest = false;
        }
    }

    // ---- 5. Skewed parallel batch: chunked vs work-stealing ----
    // Items sorted by descending single-thread cost: the heavy pages form
    // one contiguous cluster, so fixed chunking hands them all to the
    // first worker while the rest idle.
    let mut items: Vec<(usize, usize, f64)> = Vec::new();
    for (e, run) in runs.iter().enumerate() {
        for (p, page) in run.pages.iter().enumerate() {
            let t = Instant::now();
            compiled[e].extract_page_scratch(page, &cache, &mut scratch);
            items.push((e, p, t.elapsed().as_secs_f64()));
        }
    }
    items.sort_by(|a, b| b.2.total_cmp(&a.2));
    let items: Vec<(usize, usize)> = items.into_iter().map(|(e, p, _)| (e, p)).collect();
    // Sweep 1/2/4 workers (plus the requested/available width if it is
    // not already in the list) so the report shows how the two schedulers
    // scale, not a single point. Width 1 is the no-contention reference;
    // the threads>1 scheduling paths are exercised at every other width.
    let mut widths: Vec<usize> = vec![1, 2, 4];
    widths.push(mse_core::par::effective_threads(threads));
    widths.sort_unstable();
    widths.dedup();
    let mut parallel: Vec<ParallelPoint> = Vec::new();
    for &width in &widths {
        let par_threads = width.min(items.len()).max(1);
        let mut chunked_ms = f64::MAX;
        let mut stealing_ms = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            let a = mse_core::par::par_map_chunked(&items, par_threads, |_, &(e, p)| {
                compiled[e].extract_page_cached(&runs[e].pages[p], &cache)
            });
            chunked_ms = chunked_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let b = mse_core::par::par_map_with(
                &items,
                par_threads,
                ExtractScratch::new,
                |scratch, _, &(e, p)| {
                    compiled[e].extract_page_scratch(&runs[e].pages[p], &cache, scratch)
                },
            );
            stealing_ms = stealing_ms.min(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(a, b, "schedulers disagree on extraction output");
        }
        parallel.push(ParallelPoint {
            threads: par_threads,
            chunked_ms,
            stealing_ms,
            stealing_speedup: chunked_ms / stealing_ms,
            pages_per_sec: total_pages as f64 / (stealing_ms / 1e3),
        });
    }

    let identical = identical_compiled && identical_ingest;
    let report = Report {
        seed,
        engines: runs.len(),
        pages_per_engine,
        samples_per_engine,
        total_pages,
        reps,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        pages_per_sec,
        single_thread: SingleThread {
            match_legacy_ms,
            match_compiled_ms,
            match_speedup: match_legacy_ms / match_compiled_ms,
            extract_legacy_ms,
            extract_compiled_ms,
            extract_speedup: extract_legacy_ms / extract_compiled_ms,
            legacy_pages_per_sec: total_pages as f64 / (extract_legacy_ms / 1e3),
            compiled_pages_per_sec: total_pages as f64 / (extract_compiled_ms / 1e3),
        },
        stages: Stages {
            tokenize_ms,
            parse_ms,
            render_ms,
            match_ms: match_compiled_ms,
        },
        ingest: Ingest {
            legacy_ingest_ms,
            fast_ingest_ms,
            ingest_speedup: legacy_ingest_ms / fast_ingest_ms,
        },
        allocations: Allocations {
            match_allocs_per_page: match_allocs as f64 / total_pages as f64,
            match_bytes_per_page: match_bytes as f64 / total_pages as f64,
            extract_allocs_per_page: extract_allocs as f64 / total_pages as f64,
            legacy_allocs_per_page: legacy_allocs as f64 / total_pages as f64,
            parse_allocs_per_page: parse_allocs as f64 / total_pages as f64,
            legacy_ingest_allocs_per_page: legacy_ingest_allocs as f64 / total_pages as f64,
        },
        parallel,
        identical_extractions: identical,
    };
    eprintln!(
        "match: {:.1} ms -> {:.1} ms ({:.2}x)   extract: {:.1} ms -> {:.1} ms ({:.2}x)   \
         ingest: {:.1} ms -> {:.1} ms ({:.2}x)   stages tok/parse/render/match: \
         {:.1}/{:.1}/{:.1}/{:.1} ms   e2e {:.0} pages/s   \
         allocs/page: match {:.2}, extract {:.1} (legacy {:.1}), ingest {:.1} (legacy {:.1})   \
         sink {sink}",
        report.single_thread.match_legacy_ms,
        report.single_thread.match_compiled_ms,
        report.single_thread.match_speedup,
        report.single_thread.extract_legacy_ms,
        report.single_thread.extract_compiled_ms,
        report.single_thread.extract_speedup,
        report.ingest.legacy_ingest_ms,
        report.ingest.fast_ingest_ms,
        report.ingest.ingest_speedup,
        report.stages.tokenize_ms,
        report.stages.parse_ms,
        report.stages.render_ms,
        report.stages.match_ms,
        report.pages_per_sec,
        report.allocations.match_allocs_per_page,
        report.allocations.extract_allocs_per_page,
        report.allocations.legacy_allocs_per_page,
        report.allocations.parse_allocs_per_page,
        report.allocations.legacy_ingest_allocs_per_page,
    );
    for p in &report.parallel {
        eprintln!(
            "parallel x{}: chunked {:.1} ms -> stealing {:.1} ms ({:.2}x, {:.0} pages/s)",
            p.threads, p.chunked_ms, p.stealing_ms, p.stealing_speedup, p.pages_per_sec
        );
    }
    if !identical_compiled {
        eprintln!("ERROR: compiled extractions differ from legacy");
    }
    if !identical_ingest {
        eprintln!("ERROR: fast-ingest extractions differ from legacy ingest");
    }
    if !identical {
        std::process::exit(1);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("wrote {out_path}");
    if let Some(base) = baseline_path {
        if let Err(e) = check_baseline(&base, report.pages_per_sec) {
            eprintln!("ERROR: {e}");
            std::process::exit(1);
        }
    }
}
