//! `build`: learn a wrapper set from 5 sample pages each (paper steps
//! 2–9) for the engines of the run's 119-engine testbeds, in a closed
//! loop. An untimed reference pass builds every engine once first; the
//! engines that fail to build there are reported and not timed.

use std::path::Path;
use std::time::Instant;

use mse_core::dse::{csbm_flags_cached, identify_dss};
use mse_core::family::build_families;
use mse_core::granularity::granularity_cached;
use mse_core::grouping::group_instances_cached;
use mse_core::mre::mre_cached;
use mse_core::refine::refine_cached;
use mse_core::wrapper::build_wrapper;
use mse_core::{DistanceCache, Mse, MseConfig, Page, SectionWrapperSet};

use crate::prep;
use crate::util::{
    cpu_seconds, fnv64, mean, ms_since, quantile, sorted, Fnv, Outcome, PeakWindow,
    Spans,
};
use crate::Args;

struct Job {
    sub_seed: u64,
    engine: usize,
    /// (html, query) sample pairs.
    samples: Vec<(String, String)>,
}

fn refs(job: &Job) -> Vec<(&str, Option<&str>)> {
    job.samples
        .iter()
        .map(|(h, q)| (h.as_str(), Some(q.as_str())))
        .collect()
}

fn set_digest(set: &SectionWrapperSet) -> u64 {
    fnv64(serde_json::to_string(set).unwrap_or_default().as_bytes())
}

/// Write every sample page of `jobs` under `dir`, one file per page.
fn write_samples(dir: &Path, jobs: &[&Job]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for j in jobs {
        for (k, (html, _)) in j.samples.iter().enumerate() {
            std::fs::write(dir.join(format!("e{}-{k}.html", j.engine)), html)?;
        }
    }
    Ok(())
}

/// A set-up sample is taken before every `SETUP_EVERY`th engine of the
/// reference pass: 17 per testbed.
const SETUP_EVERY: usize = 7;

/// Set-up: what a learning job does before its first build — read the
/// sample pages from disk and construct a validated builder.
fn setup_once(dir: &Path, jobs: &[&Job]) -> f64 {
    let t = Instant::now();
    let mut bytes = 0usize;
    for j in jobs {
        for k in 0..j.samples.len() {
            let html = std::fs::read_to_string(dir.join(format!("e{}-{k}.html", j.engine)))
                .unwrap_or_default();
            bytes += html.len();
        }
    }
    let mse = Mse::new(MseConfig::default());
    let valid = mse.config().validate().is_ok();
    std::hint::black_box((bytes, valid));
    t.elapsed().as_secs_f64()
}

pub fn run(args: &Args, out: &mut Outcome, spans: &mut Spans) {
    let mut jobs: Vec<Job> = Vec::new();
    for corpus in prep::testbeds(args.seed) {
        let sub_seed = corpus.config.seed;
        for spec in &corpus.engines {
            jobs.push(Job {
                sub_seed,
                engine: spec.id,
                samples: corpus
                    .sample_pages(spec)
                    .into_iter()
                    .map(|p| (p.html, p.query))
                    .collect(),
            });
        }
    }
    let page_bytes: usize = jobs
        .iter()
        .flat_map(|j| j.samples.iter().map(|(h, _)| h.len()))
        .sum();
    let pages = jobs.len() * 5;
    out.note(format!(
        "inputs: {} engines x 5 samples over testbed seeds {}..{} (mean page {:.0} bytes)",
        jobs.len(),
        args.seed,
        args.seed + prep::TESTBEDS - 1,
        page_bytes as f64 / pages as f64
    ));

    // ---- reference pass (untimed): every engine built once ----
    // It records what each engine learns, which engines fail to build
    // and which sets the verifier rejects. Set-up samples are taken
    // throughout it, so their median does not hang on one instant of a
    // shared host.
    let mse = Mse::new(MseConfig::default());
    let dir = args.work_dir.join("samples");
    let mut setups = Vec::new();
    // Per job: the digest of its learned set (None = build error) and
    // that set, kept for verification.
    let mut first: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut learned: Vec<Option<SectionWrapperSet>> = vec![None; jobs.len()];
    for s in 0..prep::TESTBEDS {
        let sub_seed = args.seed.wrapping_add(s);
        let subset: Vec<usize> = (0..jobs.len())
            .filter(|&k| jobs[k].sub_seed == sub_seed)
            .collect();
        let sdir = dir.join(sub_seed.to_string());
        let subset_jobs: Vec<&Job> = subset.iter().map(|&k| &jobs[k]).collect();
        if let Err(e) = write_samples(&sdir, &subset_jobs) {
            out.mismatch(format!("cannot write sample pages: {e}"));
            return;
        }
        for (i, &k) in subset.iter().enumerate() {
            if i % SETUP_EVERY == 0 {
                setups.push(setup_once(&sdir, &subset_jobs));
            }
            let cache = DistanceCache::new(mse.config().enable_distance_cache);
            let res = mse.build_with_queries_cached(&refs(&jobs[k]), &cache);
            first[k] = res.as_ref().ok().map(set_digest);
            learned[k] = res.ok();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    crate::util::setup_metric(out, &setups);

    // A set the verifier rejects would never pass the promotion gate: it
    // counts as a build failure, like a build error.
    let mut rejected = vec![false; jobs.len()];
    for (k, set) in learned.iter().enumerate() {
        if let Some(set) = set {
            let rep = mse_analyze::verify(set);
            if rep.errors > 0 {
                rejected[k] = true;
                let first = rep
                    .findings
                    .first()
                    .map(|f| f.to_string())
                    .unwrap_or_default();
                out.note(format!(
                    "verify: testbed seed {} engine {}: {} errors ({first}); counted as a build failure",
                    jobs[k].sub_seed, jobs[k].engine, rep.errors
                ));
            }
        }
    }
    drop(learned);
    let mut build_failures = 0usize;
    for s in 0..prep::TESTBEDS {
        let sub_seed = args.seed.wrapping_add(s);
        let mut h = Fnv::new();
        let mut failed_ids = Vec::new();
        for (k, j) in jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.sub_seed == sub_seed)
        {
            if let Some(d) = first[k] {
                h.bytes(&d.to_le_bytes());
            }
            if first[k].is_none() || rejected[k] {
                failed_ids.push(j.engine);
            }
        }
        build_failures += failed_ids.len();
        out.note(format!(
            "testbed seed {sub_seed}: learned-set digest fnv64={:016x}, build failures {failed_ids:?}",
            h.0
        ));
    }
    // The timed builds are the engines that build: an operation that
    // fails is no measure of speed. The failures are reported here, from
    // the reference pass, and are not timed.
    let timed: Vec<usize> = (0..jobs.len())
        .filter(|&k| first[k].is_some() && !rejected[k])
        .collect();
    out.metric(
        "reference_failed_share",
        build_failures as f64 / jobs.len() as f64,
        "ratio",
        jobs.len(),
    );
    out.note(format!(
        "reference pass: {build_failures} of {} engines fail to build or are rejected by verify; \
         the timed loop builds the other {}",
        jobs.len(),
        timed.len()
    ));
    if timed.is_empty() {
        out.mismatch("no engine of the run's testbeds builds");
        return;
    }

    if args.trace {
        let timed_jobs: Vec<&Job> = timed.iter().map(|&k| &jobs[k]).collect();
        trace(args, &timed_jobs, out, spans);
        return;
    }

    // ---- timed closed loop over the engines that build ----
    out.note(format!(
        "closed loop in-process: no generator or daemon threads, pipeline threads {} \
         (default config = cores), oversubscribed false",
        mse.config().effective_threads()
    ));
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut busy_s = 0.0f64;
    // Every rebuild must learn the set of the reference pass; rebuilt
    // sets are digested and dropped, so memory does not grow with the
    // number of builds.
    let mut repeat_mismatch = 0usize;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let peak = match PeakWindow::start("self") {
        Ok(p) => p,
        Err(e) => {
            out.mismatch(e);
            return;
        }
    };
    let wall = Instant::now();
    let cpu0 = cpu_seconds("self");
    while wall.elapsed().as_secs_f64() < args.seconds || attempted < timed.len() as u64 {
        let k = timed[attempted as usize % timed.len()];
        let r = refs(&jobs[k]);
        let cache = DistanceCache::new(mse.config().enable_distance_cache);
        let t = Instant::now();
        let res = mse.build_with_queries_cached(&r, &cache);
        let dt = t.elapsed().as_secs_f64();
        busy_s += dt;
        lat_ms.push(dt * 1e3);
        attempted += 1;
        let digest = match &res {
            Ok(set) => Some(set_digest(set)),
            Err(_) => {
                failed += 1;
                None
            }
        };
        if digest != first[k] {
            repeat_mismatch += 1;
        }
    }
    let cpu_s = cpu_seconds("self").zip(cpu0).map(|(b, a)| b - a);
    peak.finish(
        out,
        "the benchmark process over the timed loop (the system runs in it)",
    );
    if args.corrupt {
        repeat_mismatch += 1;
    }
    if repeat_mismatch > 0 {
        out.mismatch(format!(
            "{repeat_mismatch} rebuilds did not learn the set of the reference pass"
        ));
    }
    out.attempted = attempted;
    out.failed = failed;

    let lat = sorted(lat_ms);
    let n = lat.len();
    let rate = attempted as f64 / busy_s;
    out.metric("throughput_per_s", rate, "1/s", n);
    out.metric("build_p50_ms", quantile(&lat, 0.5), "ms", n);
    out.metric("build_p99_ms", quantile(&lat, 0.99), "ms", n);
    out.metric("build_engines_per_s", rate, "1/s", n);
    if let Some(c) = cpu_s {
        out.metric("throughput_per_cpu_s", attempted as f64 / c, "1/s", n);
    }
    out.note(format!(
        "wall {:.2} s, {} builds over {} distinct engines",
        ms_since(wall) / 1e3,
        attempted,
        timed.len()
    ));
}

#[derive(Default)]
struct Steps {
    ingest: Vec<f64>,
    mre: Vec<f64>,
    dse: Vec<f64>,
    analyze_self: Vec<f64>,
    grouping: Vec<f64>,
    wrapper: Vec<f64>,
    family: Vec<f64>,
    assembly: Vec<f64>,
    hit_rate: Vec<f64>,
    misses: Vec<f64>,
    traced_total: Vec<f64>,
    untraced_total: Vec<f64>,
}

/// Traced run: per engine, the build decomposed into the public step
/// functions (single-threaded, fresh DistanceCache), plus one whole
/// build for the residual `assembly` (merge, nesting, self-validation).
fn trace(args: &Args, jobs: &[&Job], out: &mut Outcome, spans: &mut Spans) {
    let cfg = MseConfig {
        threads: 1,
        ..MseConfig::default()
    };
    let mse = Mse::new(cfg.clone());
    let mut st = Steps::default();
    let wall = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (k, job) in jobs.iter().enumerate() {
        if wall.elapsed().as_secs_f64() > args.seconds && attempted > 0 {
            break;
        }
        attempted += 1;
        spans.op(k as u64);
        let r = refs(job);
        // Untraced whole build, then the same call inside a span: their
        // difference is what recording costs.
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let t = Instant::now();
        let untraced = mse.build_with_queries_cached(&r, &cache);
        let untraced_ms = ms_since(t);
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let (whole, whole_us) =
            spans.time("build.total", || mse.build_with_queries_cached(&r, &cache));
        if whole.is_err() || untraced.is_err() {
            failed += 1;
            continue;
        }
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let (pages, ingest_us) = spans.time("build.ingest", || {
            r.iter()
                .map(|(h, q)| Page::try_from_html_strict(h, *q, &cfg.budget))
                .collect::<Result<Vec<Page>, _>>()
        });
        let Ok(pages) = pages else {
            failed += 1;
            continue;
        };
        let (mrs, mre_us) = spans.time("build.mre", || {
            pages
                .iter()
                .map(|p| mre_cached(p, &cfg, &cache))
                .collect::<Vec<_>>()
        });
        let ((flags, dss), dse_us) = spans.time("build.dse", || {
            let flags = csbm_flags_cached(&pages, &mrs, &cfg, &cache);
            let dss: Vec<_> = pages
                .iter()
                .zip(&flags)
                .map(|(p, f)| identify_dss(p, f))
                .collect();
            (flags, dss)
        });
        let (sections, analyze_us) = spans.time("build.analyze_self", || {
            pages
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let secs = refine_cached(p, &cfg, &mrs[i], &dss[i], &flags[i], &cache);
                    let mut secs = granularity_cached(p, &cfg, secs, &cache);
                    for sec in &mut secs {
                        sec.lbm = (0..sec.start).rev().find(|&l| flags[i][l]);
                        sec.rbm = (sec.end..p.n_lines()).find(|&l| flags[i][l]);
                    }
                    secs
                })
                .collect::<Vec<_>>()
        });
        let (groups, grouping_us) = spans.time("build.grouping", || {
            group_instances_cached(&pages, &sections, &cfg, &cache)
        });
        let (wrappers, wrapper_us) = spans.time("build.wrapper", || {
            groups
                .iter()
                .filter_map(|g| build_wrapper(&pages, &sections, g))
                .collect::<Vec<_>>()
        });
        let (_, family_us) = spans.time("build.family", || build_families(&wrappers));
        let steps_us =
            ingest_us + mre_us + dse_us + analyze_us + grouping_us + wrapper_us + family_us;
        st.ingest.push(ingest_us / 1e3);
        st.mre.push(mre_us / 1e3);
        st.dse.push(dse_us / 1e3);
        st.analyze_self.push(analyze_us / 1e3);
        st.grouping.push(grouping_us / 1e3);
        st.wrapper.push(wrapper_us / 1e3);
        st.family.push(family_us / 1e3);
        st.assembly.push((whole_us - steps_us) / 1e3);
        st.hit_rate.push(cache.hit_rate());
        st.misses.push(cache.misses() as f64);
        st.traced_total.push(whole_us / 1e3);
        st.untraced_total.push(untraced_ms);
    }
    out.attempted = attempted;
    out.failed = failed;
    let n = st.ingest.len();
    out.metric("build.ingest_ms", mean(&st.ingest), "ms", n);
    out.metric("build.mre_ms", mean(&st.mre), "ms", n);
    out.metric("build.dse_ms", mean(&st.dse), "ms", n);
    out.metric("build.analyze_self_ms", mean(&st.analyze_self), "ms", n);
    out.metric("build.grouping_ms", mean(&st.grouping), "ms", n);
    out.metric("build.wrapper_ms", mean(&st.wrapper), "ms", n);
    out.metric("build.family_ms", mean(&st.family), "ms", n);
    out.metric("build.assembly_ms", mean(&st.assembly), "ms", n);
    out.metric("distcache.hit_rate", mean(&st.hit_rate), "ratio", n);
    out.metric("distcache.misses", mean(&st.misses), "count", n);
    let traced = mean(&st.traced_total);
    let untraced = mean(&st.untraced_total);
    out.metric("trace.overhead_share", traced / untraced - 1.0, "ratio", n);
    out.note(format!(
        "per engine (threads=1): whole build {traced:.3} ms traced, {untraced:.3} ms untraced"
    ));
}
