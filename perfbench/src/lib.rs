//! The repository benchmark. One binary, four workloads:
//!
//! * `build` — wrapper induction for every testbed engine (steps 2–9);
//! * `extract-batch` — `extract_batch` over fresh pages, no daemon;
//! * `serve-unique` — open-loop traffic to a separate `mse serve`, every
//!   page distinct (response cache misses only);
//! * `serve-zipf` — the same daemon, Zipf-skewed repeats (cache hits).
//!
//! Two binaries share this library: `perfbench` runs `--trace 0` on the
//! system allocator, as `mse` itself runs; `perfbench-traced` registers
//! the counting allocator of `mse-bench` (for the per-layer allocation
//! counts) and runs `--trace 1`. Each refuses the other's `--trace`.
//! `run.sh` picks the binary.
//!
//! Usage: `perfbench --workload NAME|all --seed N --seconds S --trace 0`
//!        `perfbench-traced --workload NAME|all --seed N --seconds S --trace 1`
//!        (either takes `[--mse-bin PATH] [--corrupt-one]`)
//!
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own.
//! With `--trace 0` the last stdout line is the end-to-end result, with
//! `--trace 1` the per-layer result of a traced run, whose spans are
//! written to `.perfbench/spans-<workload>-<seed>.jsonl` at exit. Any
//! output mismatch exits non-zero without a result line.
//! `--corrupt-one` corrupts one response before the identity check; the
//! smoke test uses it to prove the check fails.

mod build;
mod extract;
mod prep;
mod serve;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use util::{Host, Outcome, Spans};

/// End-to-end metrics every workload reports with `--trace 0`.
/// `throughput_per_cpu_s` is operations per CPU-second of the system
/// under test: unlike wall-clock throughput (printed, not gated) it
/// leaves out time the hypervisor steals from a shared host.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_cpu_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer
/// that is not on a workload's path reports 0 and is listed as such.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dom.parse_serving_us", "us"),
    ("dom.nodes_per_page", "count"),
    ("render.lines_us", "us"),
    ("render.assemble_us", "us"),
    ("render.lines_per_page", "count"),
    ("ingest.us", "us"),
    ("ingest.self_us", "us"),
    ("ingest.allocs_per_page", "count"),
    ("match.us", "us"),
    ("match.allocs_per_page", "count"),
    ("match.records_per_page", "count"),
    ("par.efficiency", "ratio"),
    ("build.ingest_ms", "ms"),
    ("build.mre_ms", "ms"),
    ("build.dse_ms", "ms"),
    ("build.analyze_self_ms", "ms"),
    ("build.grouping_ms", "ms"),
    ("build.wrapper_ms", "ms"),
    ("build.family_ms", "ms"),
    ("build.assembly_ms", "ms"),
    ("distcache.hit_rate", "ratio"),
    ("distcache.misses", "count"),
    ("serve.admit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.lane_high_water", "count"),
    ("serve.busy_rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.frames_per_request", "count"),
    ("proto.bytes_per_request", "bytes"),
    ("registry.open_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Largest share of the traced per-page end-to-end time the layer self
/// times may leave unexplained (the layer-sum check of traced runs on
/// `extract-batch` and `serve-unique`).
pub const LAYER_SUM_TOLERANCE: f64 = 0.35;

pub const WORKLOADS: &[&str] = &["build", "extract-batch", "serve-unique", "serve-zipf"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mse_bin: PathBuf,
    pub corrupt: bool,
    /// Scratch directory for stores, sample files and the socket.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let val = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = val("--workload").ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = val("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = val("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match val("--trace").as_deref() {
        Some("1") => true,
        Some("0") | None => false,
        Some(t) => return Err(format!("bad --trace {t}")),
    };
    let mse_bin = val("--mse-bin")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/release/mse"));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(0.1),
        trace,
        mse_bin,
        corrupt: argv.iter().any(|a| a == "--corrupt-one"),
        work_dir: PathBuf::from(format!(".perfbench/run-{}", std::process::id())),
    })
}

/// Entry point of both binaries. `counting_alloc` says whether the
/// calling binary registered the counting allocator: only traced runs
/// may use it, and traced runs need it.
pub fn main(counting_alloc: bool) {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace != counting_alloc {
        eprintln!(
            "perfbench: --trace {} runs in {}",
            u8::from(args.trace),
            if args.trace { "perfbench-traced" } else { "perfbench" }
        );
        std::process::exit(2);
    }
    if args.workload == "all" {
        std::process::exit(run_all());
    }
    let host = Host::probe();
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    match args.workload.as_str() {
        "build" => build::run(&args, &mut out, &mut spans),
        "extract-batch" => extract::run(&args, &mut out, &mut spans),
        "serve-unique" => serve::run(&args, &host, false, &mut out, &mut spans),
        _ => serve::run(&args, &host, true, &mut out, &mut spans),
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if args.trace {
        let path = PathBuf::from(format!(
            ".perfbench/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match spans.write(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                spans.spans.len(),
                path.display()
            )),
            Err(e) => out.mismatch(format!("cannot write spans: {e}")),
        }
    }
    std::process::exit(report(&args, &host, &out, started));
}

/// `--workload all`: every workload in turn, each in a process of its
/// own (so peak memory stays per workload), with the same arguments.
/// Exits non-zero if any of them does.
fn run_all() -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return 2;
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut code = 0;
    for w in WORKLOADS {
        let mut args = argv.clone();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = (*w).to_string();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(st) if st.success() => {}
            Ok(st) => {
                eprintln!("perfbench: workload {w} failed: {st}");
                code = 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Print the human-readable report and, if every check passed, the
/// result line. Returns the exit code.
fn report(args: &Args, host: &Host, out: &Outcome, started: Instant) -> i32 {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} available_parallelism={}",
        host.nproc, host.available_parallelism
    );
    for n in &out.notes {
        println!("  {n}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  attempted={} failed={} failed_share={failed_share:.6}",
        out.attempted, out.failed
    );
    for (name, m) in &out.metrics {
        println!(
            "  metric {name} = {:.6} {} (n={})",
            m.value, m.unit, m.samples
        );
    }
    println!("  wall {:.2} s", started.elapsed().as_secs_f64());
    if !out.mismatches.is_empty() {
        for m in &out.mismatches {
            eprintln!("perfbench: CHECK FAILED: {m}");
        }
        return 1;
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match out.metrics.get(*name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => {
                eprintln!("perfbench: metric {name} is not finite ({})", m.value);
                return 1;
            }
            None if args.trace => {
                println!(
                    "  metric {name}: layer not on the {} path, reported as 0",
                    args.workload
                );
                0.0
            }
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                return 1;
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace && matches!(args.workload.as_str(), "extract-batch" | "serve-unique") {
        let u = out
            .metrics
            .get("unattributed_share")
            .map_or(1.0, |m| m.value);
        if u.abs() > LAYER_SUM_TOLERANCE {
            eprintln!(
                "perfbench: layer-sum check failed: unattributed_share {u:.3} exceeds {LAYER_SUM_TOLERANCE}"
            );
            return 1;
        }
        println!(
            "  layer-sum check: |unattributed_share| {:.3} <= {LAYER_SUM_TOLERANCE}",
            u.abs()
        );
    }
    if out.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return 1;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    0
}
