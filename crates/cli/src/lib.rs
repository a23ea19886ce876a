//! # mse-cli
//!
//! The `mse` command-line tool:
//!
//! ```text
//! mse gen     --seed 2006 --engine 3 --pages 10 --out dir/   generate synthetic result pages
//! mse build   --out wrapper.json page0.html:query0 page1.html:query1 ...
//! mse extract --wrapper wrapper.json [--query q] [--annotate] page.html
//! mse extract --wrapper wrapper.json [--threads N] [--json] page0.html page1.html ...
//! mse eval    [--small] [--seed 2006] [--threads N]          run the Table-1 evaluation
//! mse lint    [--deny-warnings] WRAPPER.json...              statically verify wrapper sets
//! mse lint    --concurrency [--root DIR]                     whole-workspace source analysis
//! ```
//!
//! Passing several pages to `extract` switches to batch mode: the pages
//! fan out over `--threads` workers (default: all cores) sharing one
//! distance memo, and the output is one result per page in input order —
//! byte-identical to extracting each page alone.
//!
//! Sample-page arguments take the form `path[:query]`; passing the query
//! lets the builder strip its terms as dynamic components (paper §5.2).

// Panic-free policy: the library target must not unwrap/expect/panic on
// any input — failures surface as `CliError` with a meaningful exit code.
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mse_annotate::annotate_extraction;
use mse_core::{Mse, MseConfig, SectionWrapperSet};
use mse_eval::{run_corpus, section_table};
use mse_testbed::{Corpus, CorpusConfig, EngineSpec};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// CLI error: message for the user plus the process exit code
/// (sysexits-inspired, see the constructors).
#[derive(Debug)]
pub struct CliError {
    pub message: String,
    /// `2` usage, `65` bad input data (build/extract/wrapper failures),
    /// `66` cannot read an input file, `70` internal, `73` cannot write
    /// an output file.
    pub code: i32,
}

impl CliError {
    /// Bad command line (unknown command, missing/invalid flag). Exit 2.
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    /// Input files exist but their content is unusable (wrapper
    /// construction failed, malformed wrapper JSON). Exit 65 (EX_DATAERR).
    pub fn data(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 65,
        }
    }

    /// An input file cannot be read. Exit 66 (EX_NOINPUT).
    pub fn no_input(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 66,
        }
    }

    /// A bug-shaped failure (serialization of our own data, formatting).
    /// Exit 70 (EX_SOFTWARE).
    pub fn internal(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 70,
        }
    }

    /// An output file cannot be created or written. Exit 73 (EX_CANTCREAT).
    pub fn cant_create(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 73,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::usage(msg))
}

/// `writeln!` into a `String` cannot fail, but the library target bans
/// `unwrap`; route the impossible error into a typed one instead.
fn fmt_err(e: std::fmt::Error) -> CliError {
    CliError::internal(format!("report formatting failed: {e}"))
}

/// Entry point; returns the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("extract") => cmd_extract(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("drift") => cmd_drift(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => Ok(usage()),
        Some(other) => err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

pub fn usage() -> String {
    "mse — multiple section extraction from search engine result pages\n\
     \n\
     USAGE:\n\
     \x20 mse gen     --seed N --engine ID [--pages N] --out DIR\n\
     \x20 mse build   --out WRAPPER.json PAGE[:QUERY]...\n\
     \x20 mse extract --wrapper WRAPPER.json [--query Q] [--annotate] [--json] PAGE\n\
     \x20 mse extract --wrapper WRAPPER.json [--threads N] [--json] PAGE...\n\
     \x20 mse eval    [--small] [--seed N] [--threads N]\n\
     \x20 mse lint    [--deny-warnings] WRAPPER.json...\n\
     \x20 mse lint    --concurrency [--root DIR]\n\
     \x20 mse drift   --wrapper WRAPPER.json [--window N] [--json]\n\
     \x20             [--store DIR --engine NAME --relearn [--note S]] PAGE[:QUERY]...\n\
     \x20 mse store   list     --store DIR [--engine NAME]\n\
     \x20 mse store   show     --store DIR --engine NAME [--version N]\n\
     \x20 mse store   save     --store DIR --engine NAME --wrapper W.json [--note S]\n\
     \x20 mse store   promote  --store DIR --engine NAME --version N\n\
     \x20 mse store   rollback --store DIR --engine NAME\n\
     \x20 mse serve   --store DIR [--socket PATH] [--tcp ADDR] [--workers N]\n\
     \x20             [--queue N] [--cache-entries N] [--cache-bytes N]\n\
     \x20             [--reload-interval-ms MS] [--max-requests N]\n\
     \n\
     `lint` prints a JSON report of static-verification findings per\n\
     wrapper file and exits 65 when any error-level finding exists\n\
     (with --deny-warnings, when any finding exists at all).\n\
     `extract --strict` refuses wrapper sets with error-level findings.\n\
     `drift` replays pages through the wrapper set's rolling drift\n\
     detector and reports the Stable/Degrading/Broken verdict; with\n\
     --relearn it shadow re-learns on a non-Stable verdict and promotes\n\
     into the store only when the candidate wins the holdout comparison.\n\
     `store` manages the versioned wrapper registry (provenance-tracked\n\
     versions, atomic promote, parent-chain rollback).\n\
     `serve` runs the persistent extraction daemon over a Unix socket\n\
     (and, with --tcp ADDR, the same multiplexed framed protocol on a\n\
     TCP listener): every promoted engine in the store is served,\n\
     promotions are hot reloaded (polled every --reload-interval-ms,\n\
     default 500), requests queue per engine (--queue N is the\n\
     per-engine cap; a full lane rejects with a retry hint instead of\n\
     buffering, without blocking other engines), repeat pages are\n\
     answered from a bounded response cache (--cache-entries /\n\
     --cache-bytes, 0 disables; invalidated exactly on promotion), and\n\
     --max-requests N exits with a summary after N served requests\n\
     (omit it to serve until killed).\n"
        .to_string()
}

/// Parsed options (`--flag value` pairs) and positional arguments.
type ParsedArgs = (Vec<(String, String)>, Vec<String>);

/// Parse `--flag value` style options; returns (options, positional).
fn parse_opts(args: &[String]) -> Result<ParsedArgs, CliError> {
    let mut opts = Vec::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            // boolean flags
            if matches!(
                name,
                "small"
                    | "annotate"
                    | "json"
                    | "strict"
                    | "deny-warnings"
                    | "relearn"
                    | "concurrency"
            ) {
                opts.push((name.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return err(format!("--{name} needs a value"));
            };
            opts.push((name.to_string(), value.clone()));
            i += 2;
        } else {
            pos.push(a.clone());
            i += 1;
        }
    }
    Ok((opts, pos))
}

fn opt<'a>(opts: &'a [(String, String)], name: &str) -> Option<&'a str> {
    opts.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let (opts, _) = parse_opts(args)?;
    let seed: u64 = opt(&opts, "seed")
        .unwrap_or("2006")
        .parse()
        .map_err(|_| CliError::usage("bad --seed"))?;
    let engine_id: usize = opt(&opts, "engine")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::usage("bad --engine"))?;
    let pages: usize = opt(&opts, "pages")
        .unwrap_or("10")
        .parse()
        .map_err(|_| CliError::usage("bad --pages"))?;
    let Some(out) = opt(&opts, "out") else {
        return err("gen requires --out DIR");
    };
    fs::create_dir_all(out)
        .map_err(|e| CliError::cant_create(format!("cannot create {out}: {e}")))?;
    let engine = EngineSpec::generate(seed, engine_id);
    let mut report = format!(
        "engine {} ({}, {} schema(s))\n",
        engine.id,
        engine.name,
        engine.sections.len()
    );
    for q in 0..pages {
        let page = engine.page(q);
        let html_path = Path::new(out).join(format!("page{q}.html"));
        let truth_path = Path::new(out).join(format!("page{q}.truth.json"));
        fs::write(&html_path, &page.html).map_err(|e| CliError::cant_create(e.to_string()))?;
        let truth = serde_json::to_string_pretty(&page.truth)
            .map_err(|e| CliError::internal(e.to_string()))?;
        fs::write(&truth_path, truth).map_err(|e| CliError::cant_create(e.to_string()))?;
        writeln!(
            report,
            "  wrote {} (query {:?}, {} sections, {} records)",
            html_path.display(),
            page.query,
            page.truth.sections.len(),
            page.truth.total_records()
        )
        .map_err(fmt_err)?;
    }
    Ok(report)
}

/// Read `PAGE[:QUERY]` arguments into (html, query) pairs.
fn read_page_specs(specs: &[String]) -> Result<Vec<(String, Option<String>)>, CliError> {
    let mut pages = Vec::new();
    for spec in specs {
        let (path, query) = match spec.rsplit_once(':') {
            // Windows-style "C:\..." false positives are not a concern here;
            // a query never contains a path separator.
            Some((p, q)) if !q.contains('/') && !q.contains('\\') && !p.is_empty() => {
                (p, Some(q.to_string()))
            }
            _ => (spec.as_str(), None),
        };
        let html = fs::read_to_string(path)
            .map_err(|e| CliError::no_input(format!("cannot read {path}: {e}")))?;
        pages.push((html, query));
    }
    Ok(pages)
}

fn cmd_build(args: &[String]) -> Result<String, CliError> {
    let (opts, pos) = parse_opts(args)?;
    let Some(out) = opt(&opts, "out") else {
        return err("build requires --out WRAPPER.json");
    };
    if pos.len() < 2 {
        return err("build needs at least 2 sample pages (PAGE[:QUERY]...)");
    }
    let samples = read_page_specs(&pos)?;
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|(h, q)| (h.as_str(), q.as_deref()))
        .collect();
    let ws = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .map_err(|e| CliError::data(format!("wrapper construction failed: {e}")))?;
    let json = serde_json::to_string_pretty(&ws).map_err(|e| CliError::internal(e.to_string()))?;
    fs::write(out, json).map_err(|e| CliError::cant_create(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "wrote {out}: {} wrapper(s), {} family(ies), built from {} sample pages\n",
        ws.wrappers.len(),
        ws.families.len(),
        samples.len()
    ))
}

fn cmd_extract(args: &[String]) -> Result<String, CliError> {
    let (opts, pos) = parse_opts(args)?;
    const KNOWN: [&str; 6] = ["wrapper", "query", "annotate", "json", "threads", "strict"];
    if let Some((name, _)) = opts.iter().find(|(n, _)| !KNOWN.contains(&n.as_str())) {
        return err(format!("extract: unknown option --{name}"));
    }
    let Some(wrapper_path) = opt(&opts, "wrapper") else {
        return err("extract requires --wrapper WRAPPER.json");
    };
    if pos.is_empty() {
        return err("extract needs at least one PAGE argument");
    }
    let mut ws: SectionWrapperSet = serde_json::from_str(
        &fs::read_to_string(wrapper_path)
            .map_err(|e| CliError::no_input(format!("cannot read {wrapper_path}: {e}")))?,
    )
    .map_err(|e| CliError::data(format!("bad wrapper file: {e}")))?;
    if let Some(t) = opt(&opts, "threads") {
        ws.cfg.threads = t.parse().map_err(|_| CliError::usage("bad --threads"))?;
    }
    // Pre-serve verification gate: honored when the wrapper set was built
    // with `strict_verify` or the operator passes --strict here. A set
    // with error-level findings is refused before any page is touched.
    if opt(&opts, "strict").is_some() {
        ws.cfg.strict_verify = true;
    }
    mse_analyze::preserve_gate(&ws)
        .map_err(|e| CliError::data(format!("wrapper set refused: {e}")))?;
    if pos.len() > 1 {
        return cmd_extract_batch(&opts, &pos, &ws);
    }
    let page_path = &pos[0];
    let html = fs::read_to_string(page_path)
        .map_err(|e| CliError::no_input(format!("cannot read {page_path}: {e}")))?;
    let ex = ws.extract_with_query(&html, opt(&opts, "query"));

    if opt(&opts, "json").is_some() {
        return serde_json::to_string_pretty(&ex).map_err(|e| CliError::internal(e.to_string()));
    }
    let mut out = String::new();
    let annotated = opt(&opts, "annotate").map(|_| annotate_extraction(&ex).1);
    for d in &ex.diagnostics {
        writeln!(out, "note: {d}").map_err(fmt_err)?;
    }
    for (i, sec) in ex.sections.iter().enumerate() {
        writeln!(
            out,
            "section {} ({:?}) — {} record(s)",
            i + 1,
            sec.schema,
            sec.records.len()
        )
        .map_err(fmt_err)?;
        for (j, rec) in sec.records.iter().enumerate() {
            match &annotated {
                Some(ann) => {
                    for (text, role) in &ann[i][j].lines {
                        writeln!(out, "  [{role:?}] {text}").map_err(fmt_err)?;
                    }
                }
                None => writeln!(out, "  • {}", rec.lines.join(" ⏎ ")).map_err(fmt_err)?,
            }
            if annotated.is_some() {
                writeln!(out).map_err(fmt_err)?;
            }
        }
    }
    writeln!(
        out,
        "{} section(s), {} record(s)",
        ex.sections.len(),
        ex.total_records()
    )
    .map_err(fmt_err)?;
    Ok(out)
}

/// Batch extraction over several pages: fan out over `cfg.threads`
/// workers with one shared distance memo, results in input order.
fn cmd_extract_batch(
    opts: &[(String, String)],
    pages: &[String],
    ws: &SectionWrapperSet,
) -> Result<String, CliError> {
    let query = opt(opts, "query");
    let htmls: Vec<String> = pages
        .iter()
        .map(|p| {
            fs::read_to_string(p).map_err(|e| CliError::no_input(format!("cannot read {p}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let inputs: Vec<(&str, Option<&str>)> = htmls.iter().map(|h| (h.as_str(), query)).collect();
    let extractions = ws.extract_batch(&inputs);
    if opt(opts, "json").is_some() {
        return serde_json::to_string_pretty(&extractions)
            .map_err(|e| CliError::internal(e.to_string()));
    }
    let mut out = String::new();
    for (path, ex) in pages.iter().zip(&extractions) {
        writeln!(
            out,
            "{path}: {} section(s), {} record(s)",
            ex.sections.len(),
            ex.total_records()
        )
        .map_err(fmt_err)?;
    }
    Ok(out)
}

fn cmd_eval(args: &[String]) -> Result<String, CliError> {
    let (opts, _) = parse_opts(args)?;
    let seed: u64 = opt(&opts, "seed")
        .unwrap_or("2006")
        .parse()
        .map_err(|_| CliError::usage("bad --seed"))?;
    let threads: usize = opt(&opts, "threads")
        .map(|t| t.parse().map_err(|_| CliError::usage("bad --threads")))
        .transpose()?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let config = if opt(&opts, "small").is_some() {
        CorpusConfig::small(seed)
    } else {
        CorpusConfig {
            seed,
            ..CorpusConfig::default()
        }
    };
    let corpus = Corpus::generate(config);
    let score = run_corpus(&corpus, &MseConfig::default(), threads);
    let (s, t, total) = score.all();
    Ok(section_table(
        &format!("Section extraction on {} engines", corpus.engines.len()),
        &[("S pgs", s), ("T pgs", t), ("Total", total)],
    ))
}

/// One `lint` result entry: the wrapper file plus its verification report.
#[derive(serde::Serialize)]
struct LintEntry {
    file: String,
    report: mse_analyze::Report,
}

/// `mse lint [--deny-warnings] WRAPPER.json...` — run the static wrapper
/// verifier over each file and print one JSON report per file. Exit 0
/// when every set is acceptable; exit 65 (EX_DATAERR) when any file has
/// error-level findings (or, with `--deny-warnings`, any findings at
/// all), with the same JSON report as the error message.
///
/// `mse lint --concurrency [--root DIR]` instead runs the whole-workspace
/// source analysis (the same passes as `srclint` with no file arguments):
/// hot-region rules, call-graph panic/alloc reachability from the serving
/// entry points, and the lock/atomic concurrency discipline over the
/// daemon crates. One JSON report for the workspace; exit 65 on findings.
fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let (opts, pos) = parse_opts(args)?;
    if opt(&opts, "concurrency").is_some() {
        let root = opt(&opts, "root").unwrap_or(".");
        let report = mse_analyze::analyze_workspace(
            std::path::Path::new(root),
            &mse_analyze::WorkspaceOptions::default(),
        )
        .map_err(|e| CliError::no_input(format!("workspace analysis: {e}")))?;
        let mut json =
            serde_json::to_string_pretty(&report).map_err(|e| CliError::internal(e.to_string()))?;
        json.push('\n');
        return if report.has_errors() {
            Err(CliError::data(json))
        } else {
            Ok(json)
        };
    }
    if pos.is_empty() {
        return err("lint needs at least one WRAPPER.json argument");
    }
    let deny_warnings = opt(&opts, "deny-warnings").is_some();
    let mut entries: Vec<LintEntry> = Vec::new();
    let mut failed = false;
    for path in &pos {
        let ws: SectionWrapperSet = serde_json::from_str(
            &fs::read_to_string(path)
                .map_err(|e| CliError::no_input(format!("cannot read {path}: {e}")))?,
        )
        .map_err(|e| CliError::data(format!("bad wrapper file {path}: {e}")))?;
        let compiled = ws.compile();
        let report = mse_analyze::verify_compiled(&compiled);
        failed |= report.has_errors() || (deny_warnings && !report.is_clean());
        entries.push(LintEntry {
            file: path.clone(),
            report,
        });
    }
    let mut json =
        serde_json::to_string_pretty(&entries).map_err(|e| CliError::internal(e.to_string()))?;
    json.push('\n');
    if failed {
        Err(CliError::data(json))
    } else {
        Ok(json)
    }
}

/// Map store failures onto the CLI's sysexits scheme.
fn store_err(e: mse_store::StoreError) -> CliError {
    use mse_store::StoreError as E;
    match e {
        E::Io(_) => CliError::cant_create(e.to_string()),
        E::InvalidEngine(_) => CliError::usage(e.to_string()),
        _ => CliError::data(e.to_string()),
    }
}

/// JSON shape of one `mse drift` run.
#[derive(serde::Serialize)]
struct DriftReport {
    verdicts: Vec<mse_core::DriftVerdict>,
    counters: mse_core::DriftCounters,
    verdict: mse_core::DriftVerdict,
    relearn: Option<DriftRelearn>,
}

#[derive(serde::Serialize)]
struct DriftRelearn {
    old_score: mse_core::HoldoutScore,
    new_score: mse_core::HoldoutScore,
    promoted_version: Option<u32>,
}

/// `mse drift` — replay fetched pages through a wrapper set's rolling
/// drift detector (extraction diagnostics only, no truth labels) and
/// report the lifecycle verdict. With `--relearn --store --engine`, a
/// non-Stable verdict triggers a shadow re-learn from the replayed ring;
/// the candidate is verification-gated and promoted into the store only
/// when it strictly wins the holdout comparison.
fn cmd_drift(args: &[String]) -> Result<String, CliError> {
    let (opts, pos) = parse_opts(args)?;
    let Some(wrapper_path) = opt(&opts, "wrapper") else {
        return err("drift requires --wrapper WRAPPER.json");
    };
    if pos.is_empty() {
        return err("drift needs at least one PAGE[:QUERY] argument");
    }
    let relearn = opt(&opts, "relearn").is_some();
    if relearn && (opt(&opts, "store").is_none() || opt(&opts, "engine").is_none()) {
        return err("drift --relearn requires --store DIR and --engine NAME");
    }
    let ws: SectionWrapperSet = serde_json::from_str(
        &fs::read_to_string(wrapper_path)
            .map_err(|e| CliError::no_input(format!("cannot read {wrapper_path}: {e}")))?,
    )
    .map_err(|e| CliError::data(format!("bad wrapper file: {e}")))?;
    let mut thresholds = ws.cfg.drift;
    if let Some(w) = opt(&opts, "window") {
        thresholds.window = w.parse().map_err(|_| CliError::usage("bad --window"))?;
        thresholds.min_observations = thresholds.min_observations.min(thresholds.window);
        thresholds
            .validate()
            .map_err(|e| CliError::usage(format!("bad --window: {e}")))?;
    }
    let pages = read_page_specs(&pos)?;
    let mut tracker = mse_core::DriftTracker::new(thresholds);
    let mut verdicts = Vec::with_capacity(pages.len());
    for (html, query) in &pages {
        let ex = ws.extract_with_query(html, query.as_deref());
        verdicts.push(tracker.observe(&ws, html, query.as_deref(), &ex));
    }
    let verdict = tracker.verdict();
    let counters = tracker.counters();

    let mut relearn_result = None;
    if relearn && verdict > mse_core::DriftVerdict::Stable {
        // Flag presence is checked above; missing values were rejected.
        let store_dir = opt(&opts, "store").unwrap_or_default();
        let engine = opt(&opts, "engine").unwrap_or_default();
        let store = mse_store::Store::open(store_dir).map_err(store_err)?;
        let note = opt(&opts, "note").unwrap_or("mse drift --relearn");
        let ring = tracker.recent_pages();
        let outcome = mse_store::relearn_into_store(&store, engine, &ws, &ring, note)
            .map_err(|e| CliError::data(format!("shadow re-learn failed: {e}")))?;
        relearn_result = Some(DriftRelearn {
            old_score: outcome.relearn.old_score,
            new_score: outcome.relearn.new_score,
            promoted_version: outcome.saved_version,
        });
    }

    if opt(&opts, "json").is_some() {
        let report = DriftReport {
            verdicts,
            counters,
            verdict,
            relearn: relearn_result,
        };
        return serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::internal(e.to_string()));
    }
    let mut out = String::new();
    writeln!(
        out,
        "observed {} page(s): {} concrete, {} empty, {} family-fallback, {} partial, {} anomalous (window {})",
        counters.total_pages,
        counters.concrete_pages,
        counters.empty_pages,
        counters.family_fallback_pages,
        counters.partial_pages,
        counters.anomalous_pages,
        counters.window,
    )
    .map_err(fmt_err)?;
    writeln!(out, "verdict: {verdict:?}").map_err(fmt_err)?;
    match relearn_result {
        Some(DriftRelearn {
            old_score,
            new_score,
            promoted_version: Some(v),
        }) => writeln!(
            out,
            "shadow re-learn: candidate won holdout ({} vs {} productive pages) — promoted as v{v}",
            new_score.productive_pages, old_score.productive_pages
        )
        .map_err(fmt_err)?,
        Some(DriftRelearn {
            old_score,
            new_score,
            promoted_version: None,
        }) => writeln!(
            out,
            "shadow re-learn: candidate did not beat incumbent ({} vs {} productive pages) — store unchanged",
            new_score.productive_pages, old_score.productive_pages
        )
        .map_err(fmt_err)?,
        None if relearn => {
            writeln!(out, "no re-learn: verdict is Stable").map_err(fmt_err)?
        }
        None => {}
    }
    Ok(out)
}

/// `mse store` — manage the versioned wrapper registry.
fn cmd_store(args: &[String]) -> Result<String, CliError> {
    let (opts, pos) = parse_opts(args)?;
    let Some(sub) = pos.first().map(String::as_str) else {
        return err("store needs a subcommand: list | show | save | promote | rollback");
    };
    let Some(store_dir) = opt(&opts, "store") else {
        return err("store requires --store DIR");
    };
    let store = mse_store::Store::open(store_dir).map_err(store_err)?;
    let engine_opt = opt(&opts, "engine");
    let need_engine =
        || engine_opt.ok_or_else(|| CliError::usage(format!("store {sub} requires --engine NAME")));
    match sub {
        "list" => {
            let mut out = String::new();
            let engines = match engine_opt {
                Some(e) => vec![e.to_string()],
                None => store.engines().map_err(store_err)?,
            };
            if engines.is_empty() {
                return Ok("store is empty\n".to_string());
            }
            for engine in engines {
                let versions = store.versions(&engine).map_err(store_err)?;
                let active = store.active_version(&engine).map_err(store_err)?;
                let rendered: Vec<String> = versions
                    .iter()
                    .map(|v| {
                        if Some(*v) == active {
                            format!("v{v}*")
                        } else {
                            format!("v{v}")
                        }
                    })
                    .collect();
                writeln!(
                    out,
                    "{engine}: {} (* = active)",
                    if rendered.is_empty() {
                        "no versions".to_string()
                    } else {
                        rendered.join(" ")
                    }
                )
                .map_err(fmt_err)?;
            }
            Ok(out)
        }
        "show" => {
            let engine = need_engine()?;
            let version = match opt(&opts, "version") {
                Some(v) => v.parse().map_err(|_| CliError::usage("bad --version"))?,
                None => store
                    .active_version(engine)
                    .map_err(store_err)?
                    .ok_or_else(|| {
                        CliError::data(format!("engine {engine} has no active version"))
                    })?,
            };
            let (_, record) = store.load(engine, version).map_err(store_err)?;
            let mut json = serde_json::to_string_pretty(&record.provenance)
                .map_err(|e| CliError::internal(e.to_string()))?;
            json.push('\n');
            Ok(json)
        }
        "save" => {
            let engine = need_engine()?;
            let Some(wrapper_path) = opt(&opts, "wrapper") else {
                return err("store save requires --wrapper WRAPPER.json");
            };
            let ws: SectionWrapperSet = serde_json::from_str(
                &fs::read_to_string(wrapper_path)
                    .map_err(|e| CliError::no_input(format!("cannot read {wrapper_path}: {e}")))?,
            )
            .map_err(|e| CliError::data(format!("bad wrapper file: {e}")))?;
            let no_samples: [&str; 0] = [];
            let mut provenance = mse_store::Provenance::from_samples(
                &no_samples,
                &ws.cfg,
                opt(&opts, "note").unwrap_or("mse store save"),
            );
            provenance.parent = match store.active_version(engine) {
                Ok(active) => active,
                Err(mse_store::StoreError::NoSuchEngine(_)) => None,
                Err(e) => return Err(store_err(e)),
            };
            let v = store.save(engine, &ws, provenance).map_err(store_err)?;
            Ok(format!(
                "saved {engine} v{v} (not active; promote to serve)\n"
            ))
        }
        "promote" => {
            let engine = need_engine()?;
            let version: u32 = opt(&opts, "version")
                .ok_or_else(|| CliError::usage("store promote requires --version N"))?
                .parse()
                .map_err(|_| CliError::usage("bad --version"))?;
            store.promote(engine, version).map_err(store_err)?;
            Ok(format!("{engine}: v{version} is now active\n"))
        }
        "rollback" => {
            let engine = need_engine()?;
            let v = store.rollback(engine).map_err(store_err)?;
            Ok(format!("{engine}: rolled back, v{v} is now active\n"))
        }
        other => err(format!(
            "unknown store subcommand {other:?} (list | show | save | promote | rollback)"
        )),
    }
}

/// `mse serve`: the persistent extraction daemon. Loads every promoted
/// engine from the store, listens on a Unix socket, polls the store for
/// promotions (hot reload), and drains gracefully on exit.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    let (opts, pos) = parse_opts(args)?;
    if !pos.is_empty() {
        return err("serve takes no positional arguments");
    }
    let Some(store_dir) = opt(&opts, "store") else {
        return err("serve requires --store DIR");
    };
    let socket = opt(&opts, "socket")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new(store_dir).join("serve.sock"));
    let workers: usize = opt(&opts, "workers")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::usage("bad --workers"))?;
    let queue_capacity: usize = opt(&opts, "queue")
        .unwrap_or("64")
        .parse()
        .map_err(|_| CliError::usage("bad --queue"))?;
    let reload_interval_ms: u64 = opt(&opts, "reload-interval-ms")
        .unwrap_or("500")
        .parse()
        .map_err(|_| CliError::usage("bad --reload-interval-ms"))?;
    let max_requests: Option<u64> = match opt(&opts, "max-requests") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::usage("bad --max-requests"))?,
        ),
        None => None,
    };
    let tcp = opt(&opts, "tcp").map(str::to_string);
    let defaults = mse_serve::ServerConfig::default();
    let cache_entries: usize = match opt(&opts, "cache-entries") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage("bad --cache-entries"))?,
        None => defaults.cache_entries,
    };
    let cache_bytes: usize = match opt(&opts, "cache-bytes") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage("bad --cache-bytes"))?,
        None => defaults.cache_bytes,
    };

    let (registry, _events) =
        mse_serve::Registry::open(store_dir).map_err(|e| CliError::data(e.to_string()))?;
    let engines = registry.engines();
    if engines.is_empty() {
        return Err(CliError::no_input(format!(
            "store {store_dir} has no promoted engine versions to serve"
        )));
    }
    let registry = Arc::new(registry);
    let server = Arc::new(mse_serve::Server::start(
        Arc::clone(&registry),
        mse_serve::ServerConfig {
            workers,
            queue_capacity,
            cache_entries,
            cache_bytes,
            ..mse_serve::ServerConfig::default()
        },
    ));
    let handle = mse_serve::proto::serve_unix(Arc::clone(&server), &socket)
        .map_err(|e| CliError::cant_create(format!("cannot bind {}: {e}", socket.display())))?;
    // Optional TCP front: the same framed protocol on a network address,
    // alongside the Unix socket.
    let tcp_handle = match &tcp {
        Some(addr) => Some(
            mse_serve::proto::serve_tcp(Arc::clone(&server), addr)
                .map_err(|e| CliError::cant_create(format!("cannot bind tcp {addr}: {e}")))?,
        ),
        None => None,
    };

    // Hot-reload poller: promotions via `mse store promote` reach the
    // running server within one interval.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(reload_interval_ms.max(10)));
                let _ = registry.reload();
            }
        })
    };

    // Serve until --max-requests is reached (or forever without it).
    loop {
        if let Some(max) = max_requests {
            if server.stats().served.load(Ordering::Relaxed) >= max {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    stop.store(true, Ordering::Release);
    let _ = poller.join();
    handle.stop();
    if let Some(h) = tcp_handle {
        h.stop();
    }
    let stats = server.stats();
    let cache_line = match server.cache_stats() {
        Some(cs) => format!(
            ", cache hits {} misses {} evictions {} ({} entries, {} bytes)",
            cs.hits, cs.misses, cs.evictions, cs.entries, cs.bytes
        ),
        None => ", cache off".to_string(),
    };
    let summary = format!(
        "served {} requests for {} engines on {}{} \
         (busy-rejected {}, other-rejected {}, queue high-water {}/{} per partition{})\n",
        stats.served.load(Ordering::Relaxed),
        engines.len(),
        socket.display(),
        tcp.as_deref()
            .map(|a| format!(" + tcp {a}"))
            .unwrap_or_default(),
        stats.rejected_busy.load(Ordering::Relaxed),
        stats.rejected_other.load(Ordering::Relaxed),
        server.queue_high_water(),
        queue_capacity,
        cache_line,
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn usage_on_no_args_and_help() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&s(&["bogus"])).is_err());
    }

    #[test]
    fn parse_opts_mix() {
        let (opts, pos) = parse_opts(&s(&["--seed", "7", "a.html", "--small", "b.html"])).unwrap();
        assert_eq!(opt(&opts, "seed"), Some("7"));
        assert_eq!(opt(&opts, "small"), Some("true"));
        assert_eq!(pos, vec!["a.html", "b.html"]);
        assert!(parse_opts(&s(&["--seed"])).is_err());
    }

    #[test]
    fn gen_build_extract_round_trip() {
        let dir = std::env::temp_dir().join(format!("mse-cli-test-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        // gen
        let report = run(&s(&[
            "gen", "--seed", "2006", "--engine", "4", "--pages", "6", "--out", &dir_s,
        ]))
        .expect("gen");
        assert!(report.contains("wrote"));
        // build from the first 5 pages (queries come from the test bed's
        // fixed pool, matching EngineSpec::page()).
        let queries = mse_testbed::words::QUERIES;
        let mut args = s(&["build", "--out"]);
        args.push(format!("{dir_s}/wrapper.json"));
        for (q, query) in queries.iter().enumerate().take(5) {
            args.push(format!("{dir_s}/page{q}.html:{query}"));
        }
        let report = run(&args).expect("build");
        assert!(report.contains("wrapper(s)"), "{report}");
        // extract from the held-out page
        let out = run(&s(&[
            "extract",
            "--wrapper",
            &format!("{dir_s}/wrapper.json"),
            "--query",
            queries[5],
            &format!("{dir_s}/page5.html"),
        ]))
        .expect("extract");
        assert!(out.contains("section 1"), "{out}");
        // annotated form
        let out = run(&s(&[
            "extract",
            "--wrapper",
            &format!("{dir_s}/wrapper.json"),
            "--annotate",
            &format!("{dir_s}/page5.html"),
        ]))
        .expect("extract --annotate");
        assert!(out.contains("[Title]"), "{out}");
        // json form parses back
        let out = run(&s(&[
            "extract",
            "--wrapper",
            &format!("{dir_s}/wrapper.json"),
            "--json",
            &format!("{dir_s}/page5.html"),
        ]))
        .expect("extract --json");
        let _: mse_core::Extraction = serde_json::from_str(&out).expect("json output parses");
        // There is one extraction path; the old path selector is refused.
        let refused = run(&s(&[
            "extract",
            "--wrapper",
            &format!("{dir_s}/wrapper.json"),
            "--legacy",
            &format!("{dir_s}/page5.html"),
        ]))
        .expect_err("extract --legacy");
        assert_eq!(refused.code, 2, "{}", refused.message);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_extract_matches_single() {
        let dir = std::env::temp_dir().join(format!("mse-cli-batch-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "--seed", "2006", "--engine", "4", "--pages", "8", "--out", &dir_s,
        ]))
        .expect("gen");
        let queries = mse_testbed::words::QUERIES;
        let mut args = s(&["build", "--out"]);
        args.push(format!("{dir_s}/wrapper.json"));
        for (q, query) in queries.iter().enumerate().take(5) {
            args.push(format!("{dir_s}/page{q}.html:{query}"));
        }
        run(&args).expect("build");
        // Batch over the held-out pages, 1 vs 4 workers: identical output.
        let mut batch = s(&[
            "extract",
            "--wrapper",
            &format!("{dir_s}/wrapper.json"),
            "--json",
            "--threads",
            "1",
        ]);
        for q in 5..8 {
            batch.push(format!("{dir_s}/page{q}.html"));
        }
        let serial = run(&batch).expect("batch --threads 1");
        batch[5] = "4".to_string();
        let parallel = run(&batch).expect("batch --threads 4");
        assert_eq!(serial, parallel);
        let exs: Vec<mse_core::Extraction> = serde_json::from_str(&serial).expect("json array");
        assert_eq!(exs.len(), 3);
        // Each batch result equals the single-page extraction.
        for (q, ex) in (5..8).zip(&exs) {
            let single = run(&s(&[
                "extract",
                "--wrapper",
                &format!("{dir_s}/wrapper.json"),
                "--json",
                &format!("{dir_s}/page{q}.html"),
            ]))
            .expect("single extract");
            let single: mse_core::Extraction = serde_json::from_str(&single).unwrap();
            assert_eq!(&single, ex);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_learned_wrapper_clean_and_corrupted_flagged() {
        let dir = std::env::temp_dir().join(format!("mse-cli-lint-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        run(&s(&[
            "gen", "--seed", "2006", "--engine", "4", "--pages", "6", "--out", &dir_s,
        ]))
        .expect("gen");
        let queries = mse_testbed::words::QUERIES;
        let wpath = format!("{dir_s}/wrapper.json");
        let mut args = s(&["build", "--out"]);
        args.push(wpath.clone());
        for (q, query) in queries.iter().enumerate().take(5) {
            args.push(format!("{dir_s}/page{q}.html:{query}"));
        }
        run(&args).expect("build");
        // A learned wrapper set lints clean, even with --deny-warnings.
        let out = run(&s(&["lint", "--deny-warnings", &wpath])).expect("lint clean");
        assert!(out.contains("\"errors\": 0"), "{out}");
        // Corrupt it: strip every separator from every wrapper.
        let mut ws: SectionWrapperSet =
            serde_json::from_str(&fs::read_to_string(&wpath).unwrap()).unwrap();
        for w in &mut ws.wrappers {
            w.seps.clear();
        }
        let bad_path = format!("{dir_s}/bad.json");
        fs::write(&bad_path, serde_json::to_string(&ws).unwrap()).unwrap();
        let e = run(&s(&["lint", &bad_path])).unwrap_err();
        assert_eq!(e.code, 65);
        assert!(e.message.contains("sep-empty-set"), "{}", e.message);
        // The strict gate refuses the corrupted set at extract time...
        let e = run(&s(&[
            "extract",
            "--wrapper",
            &bad_path,
            "--strict",
            &format!("{dir_s}/page5.html"),
        ]))
        .unwrap_err();
        assert_eq!(e.code, 65);
        assert!(e.message.contains("static verification"), "{}", e.message);
        // ...but serves it (degraded) without --strict, by design.
        run(&s(&[
            "extract",
            "--wrapper",
            &bad_path,
            &format!("{dir_s}/page5.html"),
        ]))
        .expect("non-strict extract still serves");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_small_runs() {
        let out = run(&s(&["eval", "--small", "--seed", "3", "--threads", "4"])).expect("eval");
        assert!(out.contains("Total"));
    }

    #[test]
    fn missing_files_reported() {
        assert!(run(&s(&[
            "build",
            "--out",
            "/tmp/x.json",
            "nope.html",
            "nope2.html"
        ]))
        .is_err());
        assert!(run(&s(&["extract", "--wrapper", "nope.json", "p.html"])).is_err());
    }

    #[test]
    fn exit_codes_distinguish_failure_kinds() {
        // Unknown command and bad flag values are usage errors (2).
        assert_eq!(run(&s(&["bogus"])).unwrap_err().code, 2);
        assert_eq!(run(&s(&["gen", "--seed", "xyz"])).unwrap_err().code, 2);
        // A missing input file is EX_NOINPUT (66).
        let e = run(&s(&["extract", "--wrapper", "nope.json", "p.html"])).unwrap_err();
        assert_eq!(e.code, 66);
        // A wrapper file with unusable content is EX_DATAERR (65).
        let dir = std::env::temp_dir().join(format!("mse-cli-codes-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let wpath = dir.join("bad.json");
        fs::write(&wpath, "not json at all").unwrap();
        let e = run(&s(&[
            "extract",
            "--wrapper",
            wpath.to_str().unwrap(),
            "p.html",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 65, "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// gen + build a wrapper for engine 4 into `dir`; returns the wrapper
    /// path. Shared by the store/drift round-trip tests.
    fn gen_and_build(dir_s: &str, pages: usize) -> String {
        run(&s(&[
            "gen",
            "--seed",
            "2006",
            "--engine",
            "4",
            "--pages",
            &pages.to_string(),
            "--out",
            dir_s,
        ]))
        .expect("gen");
        let queries = mse_testbed::words::QUERIES;
        let wpath = format!("{dir_s}/wrapper.json");
        let mut args = s(&["build", "--out"]);
        args.push(wpath.clone());
        for (q, query) in queries.iter().enumerate().take(5) {
            args.push(format!("{dir_s}/page{q}.html:{query}"));
        }
        run(&args).expect("build");
        wpath
    }

    #[test]
    fn store_save_promote_rollback_round_trip() {
        let dir = std::env::temp_dir().join(format!("mse-cli-store-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let wpath = gen_and_build(&dir_s, 6);
        let store_dir = format!("{dir_s}/store");

        // save v1 and promote it
        let out = run(&s(&[
            "store",
            "save",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--wrapper",
            &wpath,
            "--note",
            "initial build",
        ]))
        .expect("store save");
        assert!(out.contains("saved engine4 v1"), "{out}");
        run(&s(&[
            "store",
            "promote",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--version",
            "1",
        ]))
        .expect("store promote");
        // save v2 (parent = active v1) and promote
        run(&s(&[
            "store",
            "save",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--wrapper",
            &wpath,
        ]))
        .expect("store save v2");
        run(&s(&[
            "store",
            "promote",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--version",
            "2",
        ]))
        .expect("promote v2");
        let out = run(&s(&["store", "list", "--store", &store_dir])).expect("list");
        assert!(out.contains("engine4: v1 v2*"), "{out}");
        // show reports provenance of the active version
        let out = run(&s(&[
            "store", "show", "--store", &store_dir, "--engine", "engine4",
        ]))
        .expect("show");
        assert!(out.contains("\"parent\": 1"), "{out}");
        // rollback returns to v1
        let out = run(&s(&[
            "store", "rollback", "--store", &store_dir, "--engine", "engine4",
        ]))
        .expect("rollback");
        assert!(out.contains("v1 is now active"), "{out}");
        let out = run(&s(&["store", "list", "--store", &store_dir])).expect("list");
        assert!(out.contains("engine4: v1* v2"), "{out}");
        // a second rollback has no parent to follow
        let e = run(&s(&[
            "store", "rollback", "--store", &store_dir, "--engine", "engine4",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 65, "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_usage_errors() {
        let e = run(&s(&["store"])).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run(&s(&["store", "list"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        let e = run(&s(&["store", "frobnicate", "--store", "/tmp/x"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
    }

    #[test]
    fn drift_stable_on_same_template_broken_on_redesign() {
        let dir = std::env::temp_dir().join(format!("mse-cli-drift-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let wpath = gen_and_build(&dir_s, 17);
        let queries = mse_testbed::words::QUERIES;
        // Held-out pages of the SAME engine: Stable.
        let mut args = s(&["drift", "--wrapper", &wpath, "--window", "12", "--json"]);
        for q in 5..17 {
            args.push(format!(
                "{dir_s}/page{q}.html:{}",
                queries[q % queries.len()]
            ));
        }
        let out = run(&args).expect("drift same-template");
        assert!(out.contains("\"verdict\": \"Stable\""), "{out}");
        // Pages from a DIFFERENT engine (a stand-in for a full redesign):
        // the wrapper misses everywhere, verdict Broken.
        let other_dir = format!("{dir_s}/other");
        run(&s(&[
            "gen", "--seed", "2006", "--engine", "7", "--pages", "12", "--out", &other_dir,
        ]))
        .expect("gen other");
        let mut args = s(&["drift", "--wrapper", &wpath, "--window", "12"]);
        for q in 0..12 {
            args.push(format!("{other_dir}/page{q}.html"));
        }
        let out = run(&args).expect("drift redesign");
        assert!(out.contains("verdict: Broken"), "{out}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_usage_errors() {
        let e = run(&s(&["drift", "p.html"])).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run(&s(&["drift", "--wrapper", "w.json", "--relearn", "p.html"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
    }

    #[test]
    fn serve_usage_errors() {
        let e = run(&s(&["serve"])).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run(&s(&["serve", "--store", "/tmp/x", "extra.html"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        let e = run(&s(&["serve", "--store", "/tmp/x", "--workers", "many"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
    }

    /// End-to-end through the CLI: build + store + promote, run `mse
    /// serve --max-requests`, extract over the socket, compare against
    /// `mse extract` on the same page.
    #[test]
    fn serve_round_trip_matches_extract() {
        let dir = std::env::temp_dir().join(format!("mse-cli-serve-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let wpath = gen_and_build(&dir_s, 8);
        let store_dir = format!("{dir_s}/store");
        run(&s(&[
            "store",
            "save",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--wrapper",
            &wpath,
        ]))
        .expect("store save");
        run(&s(&[
            "store",
            "promote",
            "--store",
            &store_dir,
            "--engine",
            "engine4",
            "--version",
            "1",
        ]))
        .expect("store promote");

        let sock = format!("{dir_s}/serve.sock");
        let daemon = {
            let args = s(&[
                "serve",
                "--store",
                &store_dir,
                "--socket",
                &sock,
                "--workers",
                "1",
                "--max-requests",
                "2",
            ]);
            std::thread::spawn(move || run(&args))
        };
        // Wait for the socket to appear, then extract twice.
        let mut client = None;
        for _ in 0..200 {
            if let Ok(c) = mse_serve::proto::Client::connect(&sock) {
                client = Some(c);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut client = client.expect("daemon socket never came up");
        let queries = mse_testbed::words::QUERIES;
        for q in [6usize, 7] {
            let html = fs::read_to_string(format!("{dir_s}/page{q}.html")).expect("page html");
            let served = client
                .extract("engine4", &html, Some(queries[q % queries.len()]))
                .expect("socket extract");
            let one_shot = run(&s(&[
                "extract",
                "--json",
                "--wrapper",
                &wpath,
                "--query",
                queries[q % queries.len()],
                &format!("{dir_s}/page{q}.html"),
            ]))
            .expect("one-shot extract");
            let served_json = serde_json::to_string_pretty(&served).expect("serialize");
            assert_eq!(
                served_json.trim(),
                one_shot.trim(),
                "serve diverged on q={q}"
            );
        }
        drop(client);
        let summary = daemon.join().expect("daemon thread").expect("daemon run");
        assert!(summary.contains("served 2 requests"), "{summary}");
        let _ = fs::remove_dir_all(&dir);
    }
}
