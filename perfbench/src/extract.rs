//! `extract-batch`: `SectionWrapperSet::extract_batch` over fresh test
//! pages of every engine that built, threads = cores, in a closed loop —
//! the html → `Page` → `Extraction` path with the `core.par` scheduler
//! and no daemon in front.

use std::path::Path;
use std::time::Instant;

use mse_bench::alloc::counting;
use mse_core::{CollectSink, DistanceCache, ExtractScratch, Extraction, IngestScratch, Page};
use mse_core::{MseConfig, SectionWrapperSet};
use mse_render::{render_lines_capped_scratch, LineScratch, RenderedPage, SigScratch};
use mse_store::Store;

use crate::prep::{self, FIRST_TEST_PAGE};
use crate::util::{
    cpu_seconds, fnv64, mean, median, quantile, sorted, Outcome, PeakWindow, Spans,
};
use crate::Args;

/// Store loads timed for `setup_s` (median reported): this many before
/// the timed part and as many after it, so the samples do not all fall
/// in one stretch of a shared host.
const SETUP_LOADS_EACH_SIDE: usize = 21;
/// Test pages per engine; one `extract_batch` call covers one engine.
const PAGES_PER_ENGINE: usize = 16;

struct Batch {
    set: SectionWrapperSet,
    pages: Vec<(String, String)>,
    /// Verified reference output, one per page.
    expect: Vec<Extraction>,
}

impl Batch {
    fn inputs(&self) -> Vec<(&str, Option<&str>)> {
        self.pages
            .iter()
            .map(|(h, q)| (h.as_str(), Some(q.as_str())))
            .collect()
    }
}

fn degraded(ex: &Extraction) -> bool {
    !ex.diagnostics.is_empty()
}

/// Set-up: load every learned set back from the store, `n` times.
/// Returns the last load and appends each load's time to `setups`.
fn load_sets(
    store_dir: &Path,
    engines: &[prep::Engine],
    n: usize,
    setups: &mut Vec<f64>,
) -> Result<Vec<SectionWrapperSet>, String> {
    let mut loaded = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        let sets: Result<Vec<_>, _> = Store::open(store_dir).and_then(|store| {
            engines
                .iter()
                .map(|e| store.load_active(&e.name).map(|(_, set, _)| set))
                .collect()
        });
        setups.push(t.elapsed().as_secs_f64());
        loaded = sets.map_err(|e| format!("cannot load learned sets: {e}"))?;
    }
    Ok(loaded)
}

pub fn run(args: &Args, out: &mut Outcome, spans: &mut Spans) {
    let store_dir = args.work_dir.join("store");
    let Some(engines) = prep::learn_and_store(args.seed, &store_dir, out) else {
        return;
    };

    // ---- set-up: load every learned set back from the store ----
    let mut setups = Vec::new();
    let loaded = match load_sets(&store_dir, &engines, SETUP_LOADS_EACH_SIDE, &mut setups) {
        Ok(l) => l,
        Err(e) => {
            out.mismatch(e);
            return;
        }
    };

    // ---- inputs and their verified one-shot references (untimed) ----
    let mut batches: Vec<Batch> = Vec::new();
    let mut page_bytes = 0usize;
    for (e, set) in engines.iter().zip(loaded) {
        let pages: Vec<(String, String)> = (0..PAGES_PER_ENGINE)
            .map(|q| {
                let p = e.spec.page(FIRST_TEST_PAGE + q);
                (p.html, p.query)
            })
            .collect();
        page_bytes += pages.iter().map(|(h, _)| h.len()).sum::<usize>();
        let expect: Vec<Extraction> = pages
            .iter()
            .map(|(h, q)| prep::one_shot(&set, h, q))
            .collect();
        batches.push(Batch { set, pages, expect });
    }
    let n_pages = batches.len() * PAGES_PER_ENGINE;
    let threads = MseConfig::default().effective_threads();
    out.note(format!(
        "inputs: {} engines x {PAGES_PER_ENGINE} test pages, mean page {:.0} bytes, threads {threads}",
        batches.len(),
        page_bytes as f64 / n_pages.max(1) as f64
    ));
    out.metric(
        "page_bytes",
        page_bytes as f64 / n_pages.max(1) as f64,
        "bytes",
        n_pages,
    );
    out.note(format!(
        "closed loop in-process: no generator or daemon threads, extract_batch threads \
         {threads} (= cores), oversubscribed false"
    ));

    // Byte-identity of the batch path against one-shot, every page.
    let mut mismatched = 0usize;
    for (bi, b) in batches.iter().enumerate() {
        let got = b.set.extract_batch(&b.inputs());
        for (pi, (g, want)) in got.iter().zip(&b.expect).enumerate() {
            let mut g_json = prep::to_json(g);
            if args.corrupt && bi == 0 && pi == 0 {
                g_json.push(' ');
            }
            if g_json != prep::to_json(want) {
                mismatched += 1;
            }
        }
    }
    if mismatched > 0 {
        out.mismatch(format!(
            "{mismatched} batch extractions differ from one-shot extract_with_query"
        ));
        return;
    }
    let digest = batches
        .iter()
        .flat_map(|b| b.expect.iter())
        .fold(0u64, |h, ex| {
            h.rotate_left(5) ^ fnv64(prep::to_json(ex).as_bytes())
        });
    out.note(format!("extraction digest fnv64={digest:016x}"));

    if args.trace {
        trace(&batches, threads, out, spans);
    } else {
        timed(args, &batches, out);
    }
    // The other half of the set-up samples, after the timed part.
    match load_sets(&store_dir, &engines, SETUP_LOADS_EACH_SIDE, &mut setups) {
        Ok(_) => crate::util::setup_metric(out, &setups),
        Err(e) => out.mismatch(e),
    }
}

/// The timed closed loop over every batch, at least one pass.
fn timed(args: &Args, batches: &[Batch], out: &mut Outcome) {

    let mut lat_ms = Vec::new();
    let mut busy_s = 0.0f64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatched = 0usize;
    let peak = match PeakWindow::start("self") {
        Ok(p) => p,
        Err(e) => {
            out.mismatch(e);
            return;
        }
    };
    let wall = Instant::now();
    let cpu0 = cpu_seconds("self");
    let mut i = 0usize;
    while wall.elapsed().as_secs_f64() < args.seconds || i < batches.len() {
        let b = &batches[i % batches.len()];
        i += 1;
        let inputs = b.inputs();
        let t = Instant::now();
        let got = b.set.extract_batch(&inputs);
        let dt = t.elapsed().as_secs_f64();
        busy_s += dt;
        lat_ms.push(dt * 1e3);
        attempted += got.len() as u64;
        // Outside the per-call timer, inside the CPU window (a small,
        // constant share): every output must equal the verified reference.
        for (g, want) in got.iter().zip(&b.expect) {
            if degraded(g) {
                failed += 1;
            }
            if g != want {
                mismatched += 1;
            }
        }
    }
    if let (Some(a), Some(b)) = (cpu0, cpu_seconds("self")) {
        out.metric("throughput_per_cpu_s", attempted as f64 / (b - a), "1/s", i);
    }
    peak.finish(
        out,
        "the benchmark process over the timed loop (the system runs in it; the inputs and \
         references the benchmark holds are resident from the start)",
    );
    if mismatched > 0 {
        out.mismatch(format!(
            "{mismatched} timed batch extractions differ from the verified reference"
        ));
    }
    out.attempted = attempted;
    out.failed = failed;
    let lat = sorted(lat_ms);
    let rate = attempted as f64 / busy_s;
    out.metric("throughput_per_s", rate, "1/s", lat.len());
    out.metric("batch_p50_ms", quantile(&lat, 0.5), "ms", lat.len());
    out.metric("batch_p99_ms", quantile(&lat, 0.99), "ms", lat.len());
    out.metric("extract_pages_per_s", rate, "1/s", lat.len());
    out.note(format!(
        "batch_p*_ms: latency of one extract_batch call ({PAGES_PER_ENGINE} pages of one engine)"
    ));
}

#[derive(Default)]
pub struct PageTimes {
    ingest: Vec<f64>,
    matching: Vec<f64>,
    dom: Vec<f64>,
    lines: Vec<f64>,
    assemble: Vec<f64>,
    nodes: Vec<f64>,
    n_lines: Vec<f64>,
    ingest_allocs: Vec<f64>,
    match_allocs: Vec<f64>,
    records: Vec<f64>,
    /// Per-page ingest + match without spans or allocation counting.
    plain: Vec<f64>,
    /// The same inside spans, with allocation counting.
    traced: Vec<f64>,
    pub failed: u64,
    /// Pages whose traced extraction differs from the expected one.
    pub mismatched: usize,
    pub dist_hits: u64,
    pub dist_misses: u64,
}

/// Every page through the serving-path layers one public call at a
/// time, each call inside a span: `Page::try_from_html_fast` and
/// `extract_stream_scratch`, then the ingest front ends `parse_serving`,
/// `render_lines_capped_scratch` and `RenderedPage::assemble_fused` on
/// the same page. `pages` holds (set index, html, query, expected
/// output); with `dist_memo` each set gets an enabled DistanceCache, as
/// in `extract_batch`, otherwise a disabled one, as in the daemon.
pub fn probe_pages(
    sets: &[&SectionWrapperSet],
    pages: &[(usize, &str, &str, Option<&Extraction>)],
    dist_memo: bool,
    spans: &mut Spans,
) -> PageTimes {
    let mut pt = PageTimes::default();
    let compiled: Vec<_> = sets.iter().map(|s| s.compile()).collect();
    let caches: Vec<DistanceCache> = sets
        .iter()
        .map(|s| DistanceCache::new(dist_memo && s.cfg.enable_distance_cache))
        .collect();
    let mut ing = IngestScratch::new();
    let mut ext = ExtractScratch::new();
    let mut parse = mse_dom::ParseScratch::new();
    let mut line_scratch = LineScratch::new();
    let mut sig_scratch = SigScratch::new();
    for (k, &(si, html, q, want)) in pages.iter().enumerate() {
        spans.op(k as u64);
        let cref = compiled[si].view();
        let dcache = &caches[si];
        let budget = sets[si].cfg.budget;
        // The same page without spans or allocation counting, for the
        // overhead figure; before the traced calls on every other page
        // and after them on the rest, so warm caches favour neither.
        let mut plain = |ing: &mut IngestScratch, ext: &mut ExtractScratch| {
            let t = Instant::now();
            if let Ok((page, _)) = Page::try_from_html_fast(html, Some(q), &budget, ing) {
                let mut sink = CollectSink::new();
                cref.extract_stream_scratch(&page, dcache, ext, &mut sink);
                std::hint::black_box(sink.into_extraction());
                ing.recycle(page);
            }
            pt.plain.push(t.elapsed().as_secs_f64() * 1e6);
        };
        if k % 2 == 0 {
            plain(&mut ing, &mut ext);
        }

        let ((r, ia, _), ingest_us) = spans.time("ingest", || {
            counting(|| Page::try_from_html_fast(html, Some(q), &budget, &mut ing))
        });
        let Ok((page, diags)) = r else {
            pt.failed += 1;
            continue;
        };
        let ((ex, ma, _), match_us) = spans.time("match", || {
            counting(|| {
                let mut sink = CollectSink::new();
                cref.extract_stream_scratch(&page, dcache, &mut ext, &mut sink);
                sink.into_extraction()
            })
        });
        ing.recycle(page);
        if k % 2 == 1 {
            plain(&mut ing, &mut ext);
        }
        pt.traced.push(ingest_us + match_us);
        let mut ex = ex;
        ex.diagnostics.splice(0..0, diags);
        if degraded(&ex) {
            pt.failed += 1;
        }
        if want.is_some_and(|w| w != &ex) {
            pt.mismatched += 1;
        }
        pt.ingest.push(ingest_us);
        pt.matching.push(match_us);
        pt.ingest_allocs.push(ia as f64);
        pt.match_allocs.push(ma as f64);
        pt.records.push(ex.total_records() as f64);

        let limits = budget.parse_limits();
        let (parsed, dom_us) = spans.time("dom.parse_serving", || {
            mse_dom::parse_serving(html, &limits, &mut parse)
        });
        let Ok((dom, labels)) = parsed else {
            continue;
        };
        pt.nodes.push(dom.len() as f64);
        let ((lines, _), lines_us) = spans.time("render.lines", || {
            render_lines_capped_scratch(&dom, budget.max_content_lines, &mut line_scratch)
        });
        pt.n_lines.push(lines.len() as f64);
        let (rp, asm_us) = spans.time("render.assemble", || {
            RenderedPage::assemble_fused(dom, lines, labels, &mut sig_scratch)
        });
        let RenderedPage { dom, lines, sigs } = rp;
        let labels = sig_scratch.recycle(sigs);
        parse.recycle(dom, labels);
        line_scratch.recycle(lines);
        pt.dom.push(dom_us);
        pt.lines.push(lines_us);
        pt.assemble.push(asm_us);
    }
    for c in &caches {
        pt.dist_hits += c.hits();
        pt.dist_misses += c.misses();
    }
    pt
}

/// The dom / render / ingest / match metrics of a probe; returns the
/// mean ingest + match time per page.
pub fn report_probe(pt: &PageTimes, out: &mut Outcome) -> f64 {
    let n = pt.ingest.len();
    let dom = mean(&pt.dom);
    let lines = mean(&pt.lines);
    let assemble = mean(&pt.assemble);
    let ingest = mean(&pt.ingest);
    let matching = mean(&pt.matching);
    out.metric("dom.parse_serving_us", dom, "us", pt.dom.len());
    out.metric(
        "dom.nodes_per_page",
        mean(&pt.nodes),
        "count",
        pt.nodes.len(),
    );
    out.metric("render.lines_us", lines, "us", pt.lines.len());
    out.metric("render.assemble_us", assemble, "us", pt.assemble.len());
    out.metric(
        "render.lines_per_page",
        mean(&pt.n_lines),
        "count",
        pt.n_lines.len(),
    );
    out.metric("ingest.us", ingest, "us", n);
    out.metric("ingest.self_us", ingest - dom - lines - assemble, "us", n);
    out.metric(
        "ingest.allocs_per_page",
        mean(&pt.ingest_allocs),
        "count",
        n,
    );
    out.metric("match.us", matching, "us", n);
    out.metric("match.allocs_per_page", mean(&pt.match_allocs), "count", n);
    out.metric("match.records_per_page", mean(&pt.records), "count", n);
    out.note(format!(
        "layer self times per page: dom {dom:.1} + render.lines {lines:.1} + render.assemble \
         {assemble:.1} + ingest.self {:.1} + match {matching:.1} us",
        ingest - dom - lines - assemble
    ));
    ingest + matching
}

/// Traced run: the page layers probed one call at a time, then the
/// traced end-to-end time per page and the scheduler's efficiency.
fn trace(batches: &[Batch], threads: usize, out: &mut Outcome, spans: &mut Spans) {
    let sets: Vec<&SectionWrapperSet> = batches.iter().map(|b| &b.set).collect();
    let pages: Vec<(usize, &str, &str, Option<&Extraction>)> = batches
        .iter()
        .enumerate()
        .flat_map(|(si, b)| {
            b.pages
                .iter()
                .zip(&b.expect)
                .map(move |((h, q), want)| (si, h.as_str(), q.as_str(), Some(want)))
        })
        .collect();
    let pt = probe_pages(&sets, &pages, true, spans);
    let attempted = pages.len() as u64;
    if pt.mismatched > 0 {
        out.mismatch(format!(
            "{} traced extractions differ from the verified reference",
            pt.mismatched
        ));
    }

    // End-to-end per page in this traced run: extract_batch on one
    // thread, and the same pages at threads = cores for par.efficiency.
    let mut single_s = 0.0;
    let mut multi_s = 0.0;
    for b in batches {
        let mut one = b.set.clone();
        one.cfg.threads = 1;
        let inputs = b.inputs();
        let t = Instant::now();
        std::hint::black_box(one.extract_batch(&inputs));
        single_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(b.set.extract_batch(&inputs));
        multi_s += t.elapsed().as_secs_f64();
    }
    let e2e_us = single_s * 1e6 / pages.len() as f64;

    out.attempted = attempted;
    out.failed = pt.failed;
    let n = pt.ingest.len();
    let covered = report_probe(&pt, out);
    out.metric(
        "par.efficiency",
        single_s / (threads as f64 * multi_s),
        "ratio",
        batches.len(),
    );
    let lookups = (pt.dist_hits + pt.dist_misses).max(1) as f64;
    out.metric(
        "distcache.hit_rate",
        pt.dist_hits as f64 / lookups,
        "ratio",
        n,
    );
    out.metric(
        "distcache.misses",
        pt.dist_misses as f64 / n.max(1) as f64,
        "count",
        n,
    );
    out.metric("unattributed_share", 1.0 - covered / e2e_us, "ratio", n);
    out.metric(
        "trace.overhead_share",
        median(&pt.traced) / median(&pt.plain) - 1.0,
        "ratio",
        n,
    );
    out.note(format!(
        "traced e2e per page {e2e_us:.1} us (extract_batch, threads=1) vs layer sum {covered:.1} us"
    ));
}
