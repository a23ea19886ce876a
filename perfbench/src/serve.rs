//! `serve-unique` and `serve-zipf`: traffic from one generator (a sender
//! and a receiver thread on one Unix-socket connection, speaking the
//! `proto` framing functions directly) to a separate `mse serve` process
//! with its default configuration.
//!
//! Set-up launches the daemon [`SETUP_LAUNCHES_EACH_SIDE`] times before
//! the traffic (time to first reply, memory of the loaded daemon) and as
//! many times after it (time to first reply). After a warm-up, a run has
//! three parts: a closed-loop saturation step that keeps [`SAT_WINDOW`]
//! requests in flight (the throughput figure, and the daemon's memory
//! under traffic); open-loop Poisson steps at the two fixed rates [`RATE_LOW`]
//! and [`RATE_HIGH`]; and the `max_rps` ladder. Open-loop requests are
//! timed from the moment they were *due*, so a late generator shows up
//! as latency, and a step whose generator lagged more than
//! [`GEN_LAG_LIMIT_MS`] at p99 is invalid.
//!
//! Responses are reduced to an FNV-64 digest of their frame bytes while
//! the clock runs. Afterwards each digest is compared with the frame
//! stream the serving path produces in-process, and that stream,
//! reassembled, with one-shot `extract_with_query` — so every response is
//! checked against the one-shot output without keeping the responses.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mse_core::{
    CompiledParts, Diagnostic, ExtractScratch, ExtractedRecord, IngestScratch, Page, RecordSink,
    SchemaId, Stage,
};
use mse_serve::proto::{read_msg_into, write_msg_buf, WireRequest, MAX_WIRE_BYTES};
use mse_serve::{collect_frames, Frame, Registry, Request, Server, ServerConfig, TaggedFrame};

use crate::prep::{self, Engine, FIRST_TEST_PAGE};
use crate::util::{
    cpu_seconds, median, quantile, sorted, Fnv, Host, Outcome, PeakWindow, Rng, Spans,
};
use crate::Args;

/// The two fixed offered rates (requests/s), calibrated once on a 2-core
/// host at about one-third and two-thirds of `serve-unique`'s saturation
/// rate (about 4500/s there), and shared by both serve workloads.
pub const RATE_LOW: f64 = 1500.0;
pub const RATE_HIGH: f64 = 3000.0;
/// Latency limit of the `max_rps` ladder: p99 round trip, in ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Geometric step between ladder rungs.
pub const LADDER_STEP: f64 = 1.05;
/// An open-loop step whose generator sent its p99 request later than
/// this after its due time is invalid.
pub const GEN_LAG_LIMIT_MS: f64 = 10.0;
/// Distinct pages behind `serve-zipf`: twice the daemon's default cache
/// entry budget (4096), drawn with Zipf exponent [`ZIPF_S`].
pub const ZIPF_DISTINCT: usize = 8192;
pub const ZIPF_S: f64 = 1.0;
/// Daemon launches timed for `setup_s` (median reported): this many
/// before the traffic and as many after it, so the samples do not all
/// fall in one stretch of a shared host.
const SETUP_LAUNCHES_EACH_SIDE: usize = 13;
/// Requests kept in flight by the closed-loop saturation step.
pub const SAT_WINDOW: usize = 32;
/// Requests of the memory step: twice the default cache entry budget, so
/// the response cache fills and turns over once. A fixed count, so the
/// daemon's peak does not depend on how fast it ran. Under unique pages
/// the daemon's memory keeps growing with requests served (allocator
/// arenas), and that growth varies from run to run, so the step stops
/// soon after the cache is full. It stops early only at 25% of
/// `--seconds`.
const MEM_REQUESTS: usize = 8192;
/// Requests the saturation step sends (the CPU-throughput figure). It
/// stops early only at 45% of `--seconds`. About 4.5 s of `serve-zipf`
/// on a 2-vCPU host: five runs of one seed spread over 1.5% of the
/// figure, against 15% with a 1.5 s step of 22 000 requests.
const SAT_REQUESTS: usize = 66_000;
/// Window over which the saturation step's completion rate is sampled.
const SAT_SUBWINDOW_S: f64 = 0.25;
/// Length of one ladder rung.
const RUNG_S: f64 = 0.3;
/// Step labels of the ladder passes (at most this many passes).
const LADDER_PASSES: [&str; 2] = ["ladder1", "ladder2"];
/// Generator threads: one sender, one receiver.
const GEN_THREADS: usize = 2;
/// How long the receiver waits for stragglers after a step's end.
const DRAIN_S: f64 = 2.0;

/// One servable page: testbed engine index and page index.
#[derive(Clone, Copy)]
struct Item {
    engine: usize,
    q: usize,
}

/// Per-request record of one step.
#[derive(Clone, Copy, Default)]
struct Got {
    done_s: f64,
    digest: u64,
    frames: u32,
    bytes: u64,
    answered: bool,
    rejected: bool,
    /// The response carried a `Diagnostic` frame: served, but degraded.
    degraded: bool,
}

struct Step {
    label: &'static str,
    /// Offered rate; 0 for a closed-loop step.
    rate: f64,
    /// Requests kept in flight by a closed-loop step; 0 for open loop.
    window: usize,
    /// (due offset s, item index) per request. Closed-loop requests are
    /// due when they are sent.
    schedule: Vec<(f64, usize)>,
    sent_s: Vec<f64>,
    got: Vec<Got>,
    /// Wall length of the sending window.
    window_s: f64,
    /// Request bytes on the wire.
    req_bytes: u64,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

impl Step {
    /// Round trips in ms from due time; failed requests are infinite.
    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.schedule
                .iter()
                .zip(&self.got)
                .map(|((due, _), g)| {
                    if g.answered && !g.rejected {
                        (g.done_s - due) * 1e3
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
        )
    }

    fn lag_p99_ms(&self) -> f64 {
        let lag: Vec<f64> = self
            .schedule
            .iter()
            .zip(&self.sent_s)
            .map(|((due, _), s)| (s - due) * 1e3)
            .collect();
        quantile(&sorted(lag), 0.99)
    }

    /// Unanswered, rejected and degraded requests, as `extract-batch`
    /// counts degraded extractions.
    fn failed(&self) -> u64 {
        self.got
            .iter()
            .filter(|g| !g.answered || g.rejected || g.degraded)
            .count() as u64
    }

    /// Successful replies per second of the sending window.
    fn completed_rate(&self) -> f64 {
        (self.got.len() as u64 - self.failed()) as f64 / self.window_s.max(1e-9)
    }

    /// Successful replies per second in consecutive windows of `w`
    /// seconds that fit inside the sending window.
    fn window_rates(&self, w: f64) -> Vec<f64> {
        let n = (self.window_s / w).floor() as usize;
        let mut counts = vec![0usize; n];
        for g in self.got.iter().filter(|g| g.answered && !g.rejected) {
            if let Some(c) = counts.get_mut((g.done_s / w) as usize) {
                *c += 1;
            }
        }
        counts.into_iter().map(|c| c as f64 / w).collect()
    }

    /// Requests sent but not answered when the sending window closed.
    fn backlog_at_end(&self) -> usize {
        self.got
            .iter()
            .filter(|g| !g.answered || g.done_s > self.window_s)
            .count()
    }

    /// Ladder criterion: p99 within the latency limit, a generator that
    /// kept to its schedule, and no backlog left at the end.
    fn passes(&self) -> bool {
        quantile(&self.latencies_ms(), 0.99) <= LATENCY_LIMIT_MS
            && self.lag_p99_ms() <= GEN_LAG_LIMIT_MS
            && self.backlog_at_end() <= 16.max(self.got.len() / 100)
    }

    /// Clearly past saturation: a tenth of the step still queued at its
    /// end, the median request beyond the latency limit, or a generator
    /// that could not keep to the schedule.
    fn overloaded(&self) -> bool {
        self.backlog_at_end() * 10 > self.got.len()
            || quantile(&self.latencies_ms(), 0.5) > LATENCY_LIMIT_MS
            || self.lag_p99_ms() > GEN_LAG_LIMIT_MS
    }
}

/// Zipf sampler over ranks 0..n by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The part of a tagged frame's JSON after its id: what the digest of a
/// response folds in, frame by frame.
fn frame_part(payload: &[u8]) -> &[u8] {
    const KEY: &[u8] = b"\"frame\":";
    payload
        .windows(KEY.len())
        .position(|w| w == KEY)
        .map_or(payload, |p| &payload[p + KEY.len()..])
}

fn parse_id(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// JSON prefix identifying a frame variant, e.g. `{"Done"`.
fn variant_prefix(frame: &Frame) -> Vec<u8> {
    let s = serde_json::to_string(frame).unwrap_or_default();
    let end = s.find(':').unwrap_or(s.len());
    s.as_bytes()[..end].to_vec()
}

/// Collects the frames of one request exactly as the daemon's worker
/// emits them.
struct FrameCollect {
    frames: Vec<Frame>,
    sections: usize,
    records: usize,
}

impl RecordSink for FrameCollect {
    fn diagnostic(&mut self, d: Diagnostic) {
        self.frames.push(Frame::Diagnostic(d));
    }
    fn section_start(&mut self, schema: SchemaId, start: usize, end: usize) {
        self.sections += 1;
        self.frames.push(Frame::SectionStart { schema, start, end });
    }
    fn record(&mut self, rec: ExtractedRecord) {
        self.records += 1;
        self.frames.push(Frame::Record(rec));
    }
    fn section_end(&mut self) {
        self.frames.push(Frame::SectionEnd);
    }
}

/// The frame stream the serving path produces for a page, in-process:
/// ingest diagnostics, the streamed sections, then `Done`.
fn reference_frames(
    e: &Engine,
    parts: &CompiledParts,
    html: &str,
    query: &str,
    ing: &mut IngestScratch,
    ext: &mut ExtractScratch,
) -> Vec<Frame> {
    let set = &e.set;
    let dcache = mse_core::DistanceCache::disabled();
    match Page::try_from_html_fast(html, Some(query), &set.cfg.budget, ing) {
        Ok((page, diags)) => {
            let mut sink = FrameCollect {
                frames: diags.into_iter().map(Frame::Diagnostic).collect(),
                sections: 0,
                records: 0,
            };
            parts
                .bind(set)
                .extract_stream_scratch(&page, &dcache, ext, &mut sink);
            ing.recycle(page);
            sink.frames.push(Frame::Done {
                sections: sink.sections,
                records: sink.records,
            });
            sink.frames
        }
        Err(err) => vec![
            Frame::Diagnostic(Diagnostic::new(err.stage(), err.to_string())),
            Frame::Done {
                sections: 0,
                records: 0,
            },
        ],
    }
}

fn frames_digest(frames: &[Frame]) -> u64 {
    let mut h = Fnv::new();
    for f in frames {
        let tf = TaggedFrame {
            id: 1,
            frame: f.clone(),
        };
        let s = serde_json::to_string(&tf).unwrap_or_default();
        h.bytes(frame_part(s.as_bytes()));
    }
    h.0
}

/// Reference digest per item in `which`, after checking the reassembled
/// reference stream against one-shot `extract_with_query` byte for byte;
/// `None` where that check failed. Runs on `threads` threads.
fn reference_digests(
    engines: &[Engine],
    items: &[Item],
    which: &[usize],
    threads: usize,
) -> Vec<Option<u64>> {
    let chunk = which.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<CompiledParts> = engines.iter().map(|e| e.set.compile_parts()).collect();
    let parts = &parts;
    std::thread::scope(|s| {
        let handles: Vec<_> = which
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut ing = IngestScratch::new();
                    let mut ext = ExtractScratch::new();
                    part.iter()
                        .map(|&i| {
                            let e = &engines[items[i].engine];
                            let p = e.spec.page(items[i].q);
                            let frames = reference_frames(
                                e,
                                &parts[items[i].engine],
                                &p.html,
                                &p.query,
                                &mut ing,
                                &mut ext,
                            );
                            let digest = frames_digest(&frames);
                            let streamed = prep::to_json(&collect_frames(frames));
                            let one_shot =
                                prep::to_json(&prep::one_shot(&e.set, &p.html, &p.query));
                            (streamed == one_shot).then_some(digest)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// A running `mse serve` child; killed and reaped on drop.
/// A running `mse serve`, started under a small `bash` watchdog that
/// kills the daemon as soon as its stdin closes: when this handle drops,
/// and also when the benchmark process dies without running drops.
struct Daemon {
    watchdog: Child,
    /// The daemon's own pid, printed by the watchdog.
    pid: String,
}

impl Daemon {
    fn start(args: &Args, store: &Path, sock: &Path) -> Result<Daemon, String> {
        let mut watchdog = Command::new("bash")
            .arg("-c")
            .arg(r#""$0" "$@" </dev/null & echo $!; read -r _; kill $! 2>/dev/null; wait"#)
            .arg(&args.mse_bin)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(sock)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.mse_bin.display()))?;
        let mut line = String::new();
        if let Some(out) = watchdog.stdout.take() {
            let _ = std::io::BufRead::read_line(&mut BufReader::new(out), &mut line);
        }
        let pid = line.trim().to_string();
        let daemon = Daemon { watchdog, pid };
        if daemon.pid.is_empty() {
            return Err("the mse serve watchdog did not report a pid".into());
        }
        Ok(daemon)
    }

    /// Gone, or a zombie the watchdog has not reaped yet.
    fn exited(&mut self) -> bool {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid));
        let zombie = stat
            .as_deref()
            .ok()
            .and_then(|s| s.rsplit_once(')'))
            .is_none_or(|(_, rest)| rest.trim_start().starts_with('Z'));
        zombie || matches!(self.watchdog.try_wait(), Ok(Some(_)))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Closing the watchdog's stdin makes it kill and reap the daemon.
        drop(self.watchdog.stdin.take());
        let _ = self.watchdog.wait();
    }
}

/// Launch `mse serve` with its default configuration and time it until
/// the first reply arrives: store load, the verification gate and
/// compile are all inside.
fn launch(
    args: &Args,
    store: &Path,
    sock: &Path,
    first: &Request,
) -> Result<(Daemon, UnixStream, f64), String> {
    let _ = std::fs::remove_file(sock);
    let t = Instant::now();
    let mut daemon = Daemon::start(args, store, sock)?;
    let stream = loop {
        match UnixStream::connect(sock) {
            Ok(s) => break s,
            Err(_) if t.elapsed() < Duration::from_secs(60) => {
                if daemon.exited() {
                    return Err("mse serve exited early".into());
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) => return Err(format!("mse serve never accepted: {e}")),
        }
    };
    let io = |e: std::io::Error| format!("first request: {e}");
    let mut w = BufWriter::new(stream.try_clone().map_err(io)?);
    let wreq = WireRequest {
        id: 1,
        req: first.clone(),
    };
    write_msg_buf(&mut w, &wreq, &mut String::new()).map_err(io)?;
    w.flush().map_err(io)?;
    let mut r = BufReader::new(stream.try_clone().map_err(io)?);
    let mut buf = Vec::new();
    let done = variant_prefix(&Frame::Done {
        sections: 0,
        records: 0,
    });
    loop {
        match read_msg_into(&mut r, &mut buf) {
            Ok(true) if frame_part(&buf).starts_with(&done) => break,
            Ok(true) => {}
            Ok(false) => return Err("mse serve closed the first connection".into()),
            Err(e) => return Err(io(e)),
        }
    }
    let secs = t.elapsed().as_secs_f64();
    Ok((daemon, stream, secs))
}

/// The receiving end of the connection, kept for its whole life: a
/// message that is still arriving when a read times out stays buffered
/// for the next read, in this step or the next, so a stall in the middle
/// of a frame loses no bytes. Each whole message goes through
/// `read_msg_into`.
struct FrameReader {
    stream: UnixStream,
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    fn new(stream: UnixStream) -> std::io::Result<FrameReader> {
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(FrameReader {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    /// The next whole message into `out`: `Ok(true)` when one arrived,
    /// `Ok(false)` when a read timed out first.
    fn next(&mut self, out: &mut Vec<u8>) -> std::io::Result<bool> {
        loop {
            let avail = &self.buf[self.start..];
            if let Some(len) = avail
                .get(..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            {
                if len > MAX_WIRE_BYTES {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "bad frame length",
                    ));
                }
                let whole = 4 + len as usize;
                if avail.len() >= whole {
                    read_msg_into(&mut &avail[..whole], out)?;
                    self.start += whole;
                    return Ok(true);
                }
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let old = self.buf.len();
            self.buf.resize(old + (1 << 16), 0);
            let got = self.stream.read(&mut self.buf[old..]);
            self.buf.truncate(old + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// How a step paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Send each request at its due time.
    Open,
    /// Keep this many requests in flight for `secs` seconds.
    Closed { window: usize, secs: f64 },
}

/// Run one step on `stream`: the sender on this thread, the receiver on
/// a second one. Request ids are `base_id + index`.
#[allow(clippy::too_many_arguments)]
fn run_step(
    stream: &UnixStream,
    reader: Option<FrameReader>,
    label: &'static str,
    rate: f64,
    reqs: Vec<Request>,
    mut schedule: Vec<(f64, usize)>,
    base_id: u64,
    pace: Pace,
    trace: bool,
) -> (Step, Option<FrameReader>) {
    let n = schedule.len();
    let origin = Instant::now();
    let done_prefix = variant_prefix(&Frame::Done {
        sections: 0,
        records: 0,
    });
    let rejected_prefix = variant_prefix(&Frame::Rejected {
        reason: String::new(),
        retry_after_ms: None,
    });
    let diagnostic_prefix =
        variant_prefix(&Frame::Diagnostic(Diagnostic::new(Stage::Parse, "")));
    let end_s = match pace {
        Pace::Open => schedule.last().map_or(0.0, |s| s.0),
        Pace::Closed { secs, .. } => secs,
    };
    // The sender publishes how many requests it sent once it is done.
    let sent_total = Arc::new(AtomicUsize::new(usize::MAX));
    let (tok_tx, tok_rx) = mpsc::channel::<()>();
    let receiver = {
        let sent_total = Arc::clone(&sent_total);
        let tok_tx = matches!(pace, Pace::Closed { .. }).then_some(tok_tx);
        std::thread::spawn(move || {
            let mut got = vec![Got::default(); n];
            let mut decode_us = vec![0.0f64; if trace { n } else { 0 }];
            let Some(mut r) = reader else {
                return (got, decode_us, None);
            };
            let mut buf = Vec::new();
            let mut answered = 0usize;
            while answered < sent_total.load(Ordering::Acquire).min(n) {
                match r.next(&mut buf) {
                    Ok(true) => {
                        let now = origin.elapsed().as_secs_f64();
                        let Some(k) = parse_id(&buf)
                            .and_then(|id| id.checked_sub(base_id))
                            .map(|k| k as usize)
                            .filter(|&k| k < n && !got[k].answered)
                        else {
                            continue;
                        };
                        if trace {
                            let t = Instant::now();
                            let parsed: Result<TaggedFrame, _> =
                                serde_json::from_str(&String::from_utf8_lossy(&buf));
                            std::hint::black_box(parsed.is_ok());
                            decode_us[k] += t.elapsed().as_secs_f64() * 1e6;
                        }
                        let part = frame_part(&buf);
                        let g = &mut got[k];
                        let mut h = if g.frames == 0 {
                            Fnv::new()
                        } else {
                            Fnv(g.digest)
                        };
                        h.bytes(part);
                        g.digest = h.0;
                        g.frames += 1;
                        g.bytes += buf.len() as u64 + 4;
                        if part.starts_with(&diagnostic_prefix) {
                            g.degraded = true;
                        }
                        let rejected = part.starts_with(&rejected_prefix);
                        if part.starts_with(&done_prefix) || rejected {
                            g.answered = true;
                            g.rejected = rejected;
                            g.done_s = now;
                            answered += 1;
                            if let Some(tx) = &tok_tx {
                                let _ = tx.send(());
                            }
                        }
                    }
                    Ok(false) => {
                        if origin.elapsed().as_secs_f64() > end_s + DRAIN_S {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            (got, decode_us, Some(r))
        })
    };

    let mut sent_s = Vec::with_capacity(n);
    let mut encode_us = Vec::new();
    let mut req_bytes = 0u64;
    if let Ok(ws) = stream.try_clone() {
        let mut w = BufWriter::with_capacity(1 << 16, ws);
        let mut scratch = String::new();
        for (i, req) in reqs.into_iter().enumerate() {
            match pace {
                Pace::Open => {
                    let wait = schedule[i].0 - origin.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                }
                Pace::Closed { window, secs } => {
                    if i >= window && tok_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                        break;
                    }
                    if origin.elapsed().as_secs_f64() >= secs {
                        break;
                    }
                }
            }
            let wreq = WireRequest {
                id: base_id + i as u64,
                req,
            };
            let t = Instant::now();
            if write_msg_buf(&mut w, &wreq, &mut scratch).is_err() {
                break;
            }
            if trace {
                encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            req_bytes += scratch.len() as u64 + 4;
            let now = origin.elapsed().as_secs_f64();
            sent_s.push(now);
            // Open loop: flush unless the next request is already due.
            let next_due = match pace {
                Pace::Open => schedule.get(i + 1).map_or(f64::INFINITY, |s| s.0),
                Pace::Closed { .. } => f64::INFINITY,
            };
            if next_due > now && w.flush().is_err() {
                break;
            }
        }
        let _ = w.flush();
    }
    sent_total.store(sent_s.len(), Ordering::Release);
    let (mut got, mut decode_us, reader) = receiver
        .join()
        .unwrap_or_else(|_| (vec![Got::default(); n], Vec::new(), None));
    let sent = sent_s.len();
    let window_s = match pace {
        Pace::Open => end_s,
        Pace::Closed { .. } => sent_s.last().copied().unwrap_or(0.0),
    };
    if let Pace::Closed { .. } = pace {
        schedule.truncate(sent);
        got.truncate(sent);
        decode_us.truncate(sent);
        for (s, t) in schedule.iter_mut().zip(&sent_s) {
            s.0 = *t;
        }
    }
    sent_s.resize(schedule.len(), f64::INFINITY);
    let step = Step {
        label,
        rate,
        window: match pace {
            Pace::Open => 0,
            Pace::Closed { window, .. } => window,
        },
        schedule,
        sent_s,
        got,
        window_s,
        req_bytes,
        encode_us,
        decode_us,
    };
    (step, reader)
}

/// The generator's state across steps: the page universe, the seeded
/// draws and the one connection.
struct Traffic<'a> {
    engines: &'a [Engine],
    items: Vec<Item>,
    /// Next unused page index per engine.
    next_q: Vec<usize>,
    rng: Rng,
    /// `serve-zipf`: the sampler, rank → item, and the pool's requests.
    zipf: Option<(Zipf, Vec<usize>, Vec<Request>)>,
    stream: UnixStream,
    /// Taken by each step's receiver and handed back when it ends.
    reader: Option<FrameReader>,
    next_id: u64,
    steps: Vec<Step>,
}

impl Traffic<'_> {
    /// The request for `item`: from the Zipf pool when the item is in it
    /// (pool slots below the pool's first item are empty placeholders),
    /// otherwise generated from the testbed.
    fn request(&self, item: usize) -> Request {
        if let Some((_, _, pool)) = &self.zipf {
            if let Some(r) = pool.get(item).filter(|r| !r.engine.is_empty()) {
                return r.clone();
            }
        }
        let it = self.items[item];
        let e = &self.engines[it.engine];
        let p = e.spec.page(it.q);
        Request {
            engine: e.name.clone(),
            html: p.html,
            query: Some(p.query),
            budget: None,
        }
    }

    /// A page never served before, of a random engine.
    fn fresh(&mut self) -> usize {
        let e = (self.rng.next_u64() % self.engines.len() as u64) as usize;
        self.items.push(Item {
            engine: e,
            q: self.next_q[e],
        });
        self.next_q[e] += 1;
        self.items.len() - 1
    }

    fn pick(&mut self) -> usize {
        match &self.zipf {
            Some((z, rank_to_item, _)) => rank_to_item[z.sample(&mut self.rng)],
            None => self.fresh(),
        }
    }

    fn run(
        &mut self,
        label: &'static str,
        rate: f64,
        sched: Vec<(f64, usize)>,
        pace: Pace,
        trace: bool,
    ) -> &Step {
        let reqs: Vec<Request> = sched.iter().map(|&(_, i)| self.request(i)).collect();
        let base = self.next_id;
        self.next_id += sched.len() as u64;
        let reader = self.reader.take();
        let (st, reader) = run_step(
            &self.stream,
            reader,
            label,
            rate,
            reqs,
            sched,
            base,
            pace,
            trace,
        );
        self.reader = reader;
        self.steps.push(st);
        self.steps.last().expect("step just pushed")
    }

    /// Open-loop Poisson step at `rate` for `secs`.
    fn open(&mut self, label: &'static str, rate: f64, secs: f64, trace: bool) -> &Step {
        let mut sched = Vec::new();
        let mut t = 0.0;
        loop {
            t += self.rng.exp_gap_s(rate);
            if t > secs {
                break;
            }
            let i = self.pick();
            sched.push((t, i));
        }
        self.run(label, rate, sched, Pace::Open, trace)
    }

    /// Closed-loop step keeping `window` requests in flight for `secs`,
    /// drawing at most `budget` requests.
    fn closed(
        &mut self,
        label: &'static str,
        window: usize,
        secs: f64,
        budget: usize,
        trace: bool,
    ) -> &Step {
        let sched: Vec<(f64, usize)> = (0..budget).map(|_| (0.0, self.pick())).collect();
        self.run(label, 0.0, sched, Pace::Closed { window, secs }, trace)
    }

    /// The `max_rps` ladder, rungs RATE_HIGH * LADDER_STEP^k, searched in
    /// passes. A pass climbs 4 rungs at a time until a rung is clearly
    /// overloaded, then tries the rungs between its best pass and that
    /// ceiling one by one. A scheduling stall can fail a rung below the
    /// knee, but nothing passes far above it, so a pass yields its
    /// highest passing rung. The second pass starts 4 rungs below the
    /// first one's result.
    fn ladder(&mut self, budget_s: f64) {
        let t0 = Instant::now();
        let time_left = |t0: Instant| t0.elapsed().as_secs_f64() + RUNG_S <= budget_s;
        let mut start = 0;
        for (pass, label) in LADDER_PASSES.into_iter().enumerate() {
            let mut best: Option<i32> = None;
            let mut ceiling = None;
            let mut k = start;
            while time_left(t0) && k > -40 {
                let st = self.open(label, RATE_HIGH * LADDER_STEP.powi(k), RUNG_S, false);
                let (ok, over) = (st.passes(), st.overloaded());
                if ok {
                    best = Some(best.map_or(k, |b: i32| b.max(k)));
                }
                if over {
                    ceiling = Some(k);
                    if best.is_some() {
                        break;
                    }
                    k -= 4;
                } else {
                    k += 4;
                }
            }
            if let (Some(b), Some(c)) = (best, ceiling) {
                let mut k = b + 1;
                while k < c && time_left(t0) {
                    let st = self.open(label, RATE_HIGH * LADDER_STEP.powi(k), RUNG_S, false);
                    if st.overloaded() {
                        break;
                    }
                    k += 1;
                }
            }
            if pass == 0 {
                start = best.map_or(0, |b| b - 4);
            }
        }
    }
}

pub fn run(args: &Args, host: &Host, zipf: bool, out: &mut Outcome, spans: &mut Spans) {
    let store_dir = args.work_dir.join("store");
    let Some(engines) = prep::learn_and_store(args.seed, &store_dir, out) else {
        return;
    };
    if engines.is_empty() {
        out.mismatch("no engine built");
        return;
    }
    let ne = engines.len();
    // Page indices from FIRST_TEST_PAGE: two warm-up pages per engine,
    // then pages the workload draws; none is used twice in `serve-unique`.
    let mut items: Vec<Item> = (0..2)
        .flat_map(|q| {
            (0..ne).map(move |e| Item {
                engine: e,
                q: FIRST_TEST_PAGE + q,
            })
        })
        .collect();
    let mut next_q = vec![FIRST_TEST_PAGE + 2; ne];
    let mut rng = Rng::new(args.seed);
    let zipf_state = zipf.then(|| {
        let base = items.len();
        let mut pool = vec![
            Request {
                engine: String::new(),
                html: String::new(),
                query: None,
                budget: None,
            };
            base
        ];
        for k in 0..ZIPF_DISTINCT {
            let e = k % ne;
            items.push(Item {
                engine: e,
                q: next_q[e],
            });
            let p = engines[e].spec.page(next_q[e]);
            pool.push(Request {
                engine: engines[e].name.clone(),
                html: p.html,
                query: Some(p.query),
                budget: None,
            });
            next_q[e] += 1;
        }
        let mut rank_to_item: Vec<usize> = (base..base + ZIPF_DISTINCT).collect();
        for i in (1..rank_to_item.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            rank_to_item.swap(i, j);
        }
        (Zipf::new(ZIPF_DISTINCT, ZIPF_S), rank_to_item, pool)
    });

    // ---- set-up: launch to first reply, SETUP_LAUNCHES_EACH_SIDE launches ----
    let sock = PathBuf::from(format!(".perfbench/s{}.sock", std::process::id()));
    let first = {
        let p = engines[0].spec.page(FIRST_TEST_PAGE);
        Request {
            engine: engines[0].name.clone(),
            html: p.html,
            query: Some(p.query),
            budget: None,
        }
    };
    let mut setups = Vec::new();
    let mut loaded_rss = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_LAUNCHES_EACH_SIDE {
        // The previous daemon is stopped before the next one starts.
        drop(live.take());
        match launch(args, &store_dir, &sock, &first) {
            Ok((d, s, secs)) => {
                setups.push(secs);
                if let Some(mb) = crate::util::peak_rss_mb(&d.pid) {
                    loaded_rss.push(mb);
                }
                live = Some((d, s));
            }
            Err(e) => {
                out.mismatch(e);
                return;
            }
        }
    }
    let Some((daemon, stream)) = live else { return };
    let reader = match stream.try_clone().and_then(FrameReader::new) {
        Ok(r) => Some(r),
        Err(e) => {
            out.mismatch(format!("cannot read from the daemon: {e}"));
            return;
        }
    };
    // The daemon's own footprint once loaded: every learned set loaded,
    // verified and compiled, one request served (printed, not gated).
    out.metric(
        "peak_rss_loaded_mb",
        median(&loaded_rss),
        "MB",
        loaded_rss.len(),
    );
    let daemon_workers = host.available_parallelism;
    out.note(format!(
        "generator threads {GEN_THREADS}, daemon workers {daemon_workers} (mse serve default), \
         oversubscribed {}",
        GEN_THREADS + daemon_workers > host.nproc
    ));

    let mut tr = Traffic {
        engines: &engines,
        items,
        next_q,
        rng,
        zipf: zipf_state,
        reader,
        stream,
        next_id: 2,
        steps: Vec::new(),
    };
    // Warm-up (untimed): every engine compiled in the workers; for zipf,
    // the response cache filled to its steady state.
    let warm: Vec<(f64, usize)> = (0..2 * ne).map(|i| (i as f64 / RATE_LOW, i)).collect();
    tr.run("warm", RATE_LOW, warm, Pace::Open, false);
    if zipf {
        tr.open("warm", RATE_HIGH, 2.0, false);
    }

    // The memory step comes first: the daemon's peak is reset after the
    // warm-up and read right after MEM_REQUESTS closed-loop requests, so
    // it covers the response cache at its entry budget, the queues and
    // per-request memory under this workload's traffic.
    let pid = daemon.pid.clone();
    let peak = match PeakWindow::start(&pid) {
        Ok(p) => p,
        Err(e) => {
            out.mismatch(e);
            return;
        }
    };
    tr.closed(
        "memory",
        SAT_WINDOW,
        args.seconds * 0.25,
        MEM_REQUESTS,
        false,
    );
    peak.finish(
        out,
        &format!("the daemon over {MEM_REQUESTS} requests after the warm-up"),
    );
    let cpu0 = cpu_seconds(&pid);
    let done = tr
        .closed(
            "saturation",
            SAT_WINDOW,
            args.seconds * 0.45,
            SAT_REQUESTS,
            false,
        )
        .got
        .iter()
        .filter(|g| g.answered && !g.rejected)
        .count();
    if let (Some(a), Some(b)) = (cpu0, cpu_seconds(&pid)) {
        out.metric("throughput_per_cpu_s", done as f64 / (b - a), "1/s", done);
    }
    let fixed_s = args.seconds * 0.15;
    tr.open("low", RATE_LOW, fixed_s, false);
    if args.trace {
        // Untraced then traced at the same rate: the overhead figure.
        tr.open("low-traced", RATE_LOW, fixed_s, true);
    }
    tr.open("high", RATE_HIGH, fixed_s, false);
    if args.trace {
        // One request in flight: the unloaded round trip the layer self
        // times are summed against.
        let ping_s = args.seconds * 0.1;
        tr.closed("ping", 1, ping_s, (ping_s * 10_000.0) as usize, true);
    } else {
        tr.ladder(args.seconds * 0.15);
    }
    let Traffic {
        items,
        steps,
        stream,
        ..
    } = tr;
    drop(stream);
    drop(daemon);
    // The other half of the set-up samples, after the traffic.
    for _ in 0..SETUP_LAUNCHES_EACH_SIDE {
        match launch(args, &store_dir, &sock, &first) {
            Ok((_, _, secs)) => setups.push(secs),
            Err(e) => {
                out.mismatch(e);
                return;
            }
        }
    }
    crate::util::setup_metric(out, &setups);
    let _ = std::fs::remove_file(&sock);

    let t = Instant::now();
    check_identity(args, host, &engines, &items, &steps, out);
    out.note(format!(
        "identity check took {:.2} s",
        t.elapsed().as_secs_f64()
    ));
    report_steps(&steps, out);
    if args.trace {
        trace(&engines, &items, &steps, &store_dir, out, spans);
        return;
    }

    // Throughput: the closed-loop saturation step, as the median of its
    // per-window completion rates (robust to a short stall).
    if let Some(sat) = steps.iter().find(|s| s.label == "saturation") {
        let windows = sat.window_rates(SAT_SUBWINDOW_S);
        let rate = median(&windows);
        out.metric("throughput_per_s", rate, "1/s", windows.len());
        out.metric("sat_rps", rate, "1/s", windows.len());
        out.note(format!(
            "saturation: {:.0}/s over the whole step, {rate:.0}/s median of {} windows {:.0?}",
            sat.completed_rate(),
            windows.len(),
            windows
        ));
    }
    // max_rps: per ladder pass, the completed rate of its highest
    // passing rung; the median over passes.
    let per_pass: Vec<f64> = LADDER_PASSES
        .iter()
        .filter_map(|label| {
            steps
                .iter()
                .filter(|s| s.label == *label && s.passes())
                .max_by(|a, b| a.rate.total_cmp(&b.rate))
                .map(Step::completed_rate)
        })
        .collect();
    if per_pass.is_empty() {
        out.note(format!(
            "max_rps: no ladder rung met p99 <= {LATENCY_LIMIT_MS} ms without backlog or lag"
        ));
    } else {
        out.note(format!("max_rps per ladder pass: {per_pass:.0?}"));
        out.metric("max_rps", median(&per_pass), "1/s", per_pass.len());
    }
}

/// Every response of every step against the one-shot reference.
fn check_identity(
    args: &Args,
    host: &Host,
    engines: &[Engine],
    items: &[Item],
    steps: &[Step],
    out: &mut Outcome,
) {
    let mut used: Vec<usize> = steps
        .iter()
        .flat_map(|s| s.schedule.iter().map(|x| x.1))
        .collect();
    used.sort_unstable();
    used.dedup();
    let refs = reference_digests(engines, items, &used, host.available_parallelism);
    let mut want = vec![None; items.len()];
    let mut bad_ref = 0usize;
    for (&i, d) in used.iter().zip(refs) {
        bad_ref += usize::from(d.is_none());
        want[i] = d;
    }
    if bad_ref > 0 {
        out.mismatch(format!(
            "{bad_ref} pages: the serving-path stream differs from one-shot extract_with_query"
        ));
    }
    let mut mismatched = 0usize;
    let mut corrupt = args.corrupt;
    for st in steps {
        for ((_, item), g) in st.schedule.iter().zip(&st.got) {
            if !g.answered || g.rejected {
                continue;
            }
            let mut digest = g.digest;
            if corrupt {
                digest ^= 1;
                corrupt = false;
            }
            if Some(digest) != want[*item] {
                mismatched += 1;
            }
        }
    }
    if mismatched > 0 {
        out.mismatch(format!(
            "{mismatched} served responses differ from one-shot extract_with_query"
        ));
    }
    let requests: usize = steps.iter().map(|s| s.got.len()).sum();
    out.note(format!(
        "identity check: {requests} responses over {} distinct pages",
        used.len()
    ));
}

/// Step lines, counts and the fixed-rate latency metrics.
fn report_steps(steps: &[Step], out: &mut Outcome) {
    let timed: Vec<&Step> = steps.iter().filter(|s| s.label != "warm").collect();
    out.attempted = timed.iter().map(|s| s.got.len() as u64).sum();
    out.failed = timed.iter().map(|s| s.failed()).sum();
    let mut lag: f64 = 0.0;
    for s in &timed {
        let lat = s.latencies_ms();
        let open = s.rate > 0.0;
        if open {
            lag = lag.max(s.lag_p99_ms());
        }
        out.note(format!(
            "step {}: offered {}, completed {:.0}/s, p50 {:.3} ms, p99 {:.3} ms, \
             generator lag p99 {}, backlog at end {}, failed {}{}",
            s.label,
            if open {
                format!("{:.0}/s", s.rate)
            } else {
                format!("closed loop x{}", s.window)
            },
            s.completed_rate(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.99),
            if open {
                format!("{:.3} ms", s.lag_p99_ms())
            } else {
                "-".into()
            },
            s.backlog_at_end(),
            s.failed(),
            match (s.label.starts_with("ladder"), s.passes()) {
                (true, true) => " [pass]",
                (true, false) => " [miss]",
                _ => "",
            }
        ));
    }
    out.metric("gen.lag_p99_ms", lag, "ms", timed.len());
    for label in ["low", "high"] {
        let Some(s) = timed.iter().find(|s| s.label == label) else {
            out.mismatch(format!("the {label}-rate step is missing"));
            continue;
        };
        if s.lag_p99_ms() > GEN_LAG_LIMIT_MS {
            out.note(format!(
                "rtt_p50_ms.{label}, rtt_p99_ms.{label}: invalid, generator lag p99 {:.3} ms \
                 above {GEN_LAG_LIMIT_MS} ms",
                s.lag_p99_ms()
            ));
            continue;
        }
        let lat = s.latencies_ms();
        out.metric(
            &format!("rtt_p50_ms.{label}"),
            quantile(&lat, 0.5),
            "ms",
            lat.len(),
        );
        out.metric(
            &format!("rtt_p99_ms.{label}"),
            quantile(&lat, 0.99),
            "ms",
            lat.len(),
        );
    }
}

/// Traced run: proto costs from the traced generator step, and the
/// admission / queue / service / cache layers from an in-process
/// `Server` replaying the traced step's schedule. Per-request figures
/// are medians, like the round trip they are summed against.
fn trace(
    engines: &[Engine],
    items: &[Item],
    steps: &[Step],
    store_dir: &Path,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    let find = |label: &str| steps.iter().find(|s| s.label == label);
    let (Some(plain), Some(traced), Some(ping)) = (find("low"), find("low-traced"), find("ping"))
    else {
        return;
    };
    let page = |i: usize| {
        let it = items[i];
        (it.engine, engines[it.engine].spec.page(it.q))
    };
    let request = |i: usize| {
        let (e, p) = page(i);
        Request {
            engine: engines[e].name.clone(),
            html: p.html,
            query: Some(p.query),
            budget: None,
        }
    };

    // proto: request encode and frame decode as the traced generator did
    // them on the wire with one request in flight, plus the daemon's side
    // of the same framing (request decode, frame encode) timed from
    // outside on the same requests.
    let n = ping.got.len().max(1);
    let frames: u64 = ping.got.iter().map(|g| u64::from(g.frames)).sum();
    let resp_bytes: u64 = ping.got.iter().map(|g| g.bytes).sum();
    let mut server_decode = Vec::new();
    let mut server_encode = Vec::new();
    let mut ing = IngestScratch::new();
    let mut ext = ExtractScratch::new();
    let mut scratch = String::new();
    for &(_, i) in ping.schedule.iter().take(500) {
        spans.op(i as u64);
        let wreq = WireRequest {
            id: 7,
            req: request(i),
        };
        let wire = serde_json::to_string(&wreq).unwrap_or_default();
        let (_, us) = spans.time("proto.decode", || {
            std::hint::black_box(serde_json::from_str::<WireRequest>(&wire).is_ok())
        });
        server_decode.push(us);
        let (e, p) = page(i);
        let parts = engines[e].set.compile_parts();
        let fr = reference_frames(&engines[e], &parts, &p.html, &p.query, &mut ing, &mut ext);
        let mut sink = std::io::sink();
        let (_, us) = spans.time("proto.encode", || {
            for f in fr {
                let _ = write_msg_buf(&mut sink, &TaggedFrame { id: 7, frame: f }, &mut scratch);
            }
        });
        server_encode.push(us);
    }
    let encode_us = median(&ping.encode_us) + median(&server_encode);
    let decode_us = median(&ping.decode_us) + median(&server_decode);
    out.metric("proto.encode_us", encode_us, "us", n);
    out.metric("proto.decode_us", decode_us, "us", n);
    out.metric(
        "proto.frames_per_request",
        frames as f64 / n as f64,
        "count",
        n,
    );
    out.metric(
        "proto.bytes_per_request",
        (ping.req_bytes + resp_bytes) as f64 / n as f64,
        "bytes",
        n,
    );
    let rtt_plain = quantile(&plain.latencies_ms(), 0.5);
    let rtt_traced = quantile(&traced.latencies_ms(), 0.5);
    out.metric(
        "trace.overhead_share",
        rtt_traced / rtt_plain - 1.0,
        "ratio",
        traced.got.len(),
    );

    // registry: open the store in-process.
    let mut opens = Vec::new();
    let mut registry = None;
    for _ in 0..3 {
        let (r, us) = spans.time("registry.open", || Registry::open(store_dir));
        opens.push(us / 1e3);
        if let Ok((reg, _)) = r {
            registry = Some(reg);
        }
    }
    out.metric("registry.open_ms", median(&opens), "ms", opens.len());
    let Some(registry) = registry else {
        out.mismatch("Registry::open failed in the traced run");
        return;
    };

    // In-process server, default config: warm it as the socket run was
    // warmed, time a miss with nothing queued (service), then replay the
    // traced step's schedule with its due times.
    let server = Server::start(Arc::new(registry), ServerConfig::default());
    for st in steps.iter().filter(|s| s.label == "warm") {
        for &(_, i) in &st.schedule {
            let _ = server.extract(request(i));
        }
    }
    // Admission and service of a miss with nothing queued ahead of it.
    let mut admit_idle = Vec::new();
    let mut service = Vec::new();
    for (e, eng) in engines.iter().enumerate() {
        spans.op(e as u64);
        let p = eng.spec.page(1_000_000 + e);
        let req = Request {
            engine: eng.name.clone(),
            html: p.html,
            query: Some(p.query),
            budget: None,
        };
        let (rx, admit) = spans.time("serve.admit", || server.submit(req));
        let Ok(rx) = rx else { continue };
        let (_, us) = spans.time("serve.service", || {
            rx.iter().any(|f| matches!(f, Frame::Done { .. }))
        });
        admit_idle.push(admit);
        service.push(us);
    }
    let service_us = median(&service);
    let before = server.cache_stats();
    let hits = || server.stats().cache_hits.load(Ordering::Relaxed);
    let n_req = traced.schedule.len();
    let reqs: Vec<Request> = traced.schedule.iter().map(|&(_, i)| request(i)).collect();
    let (tx, rx) = mpsc::channel::<TaggedFrame>();
    let origin = Instant::now();
    let collector = std::thread::spawn(move || {
        let mut done = vec![f64::NAN; n_req];
        let mut open = n_req;
        while open > 0 {
            let Ok(tf) = rx.recv_timeout(Duration::from_secs(5)) else {
                break;
            };
            if matches!(tf.frame, Frame::Done { .. } | Frame::Rejected { .. }) {
                if let Some(d) = done.get_mut(tf.id as usize) {
                    *d = origin.elapsed().as_secs_f64();
                    open -= 1;
                }
            }
        }
        done
    });
    let mut admit_miss = Vec::new();
    let mut admit_hit = Vec::new();
    let mut submitted = vec![f64::NAN; n_req];
    let mut was_hit = vec![false; n_req];
    let mut prev_hits = hits();
    for (k, (req, &(due, _))) in reqs.into_iter().zip(&traced.schedule).enumerate() {
        spans.op(k as u64);
        let wait = due - origin.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        submitted[k] = origin.elapsed().as_secs_f64();
        let (res, us) = spans.time("serve.admit", || {
            server.submit_mux(req, k as u64, tx.clone())
        });
        let now_hits = hits();
        if res.is_ok() && now_hits > prev_hits {
            admit_hit.push(us);
            was_hit[k] = true;
        } else {
            admit_miss.push(us);
        }
        prev_hits = now_hits;
    }
    drop(tx);
    let done = collector.join().unwrap_or_default();
    let sojourn_miss: Vec<f64> = (0..n_req)
        .filter(|&k| !was_hit[k] && done.get(k).is_some_and(|d| d.is_finite()))
        .map(|k| (done[k] - submitted[k]) * 1e6)
        .collect();
    let queue_wait = if sojourn_miss.is_empty() {
        0.0
    } else {
        (median(&sojourn_miss) - median(&admit_idle) - service_us).max(0.0)
    };
    let admit_us = median(&admit_miss);
    out.metric("serve.admit_us", admit_us, "us", admit_miss.len());
    out.metric("serve.service_us", service_us, "us", service.len());
    out.metric("serve.queue_wait_us", queue_wait, "us", sojourn_miss.len());
    let lane_hw = server
        .partitions()
        .iter()
        .map(|p| p.high_water)
        .max()
        .unwrap_or(0);
    out.metric("serve.lane_high_water", lane_hw as f64, "count", 1);
    out.metric(
        "serve.busy_rejected",
        server.stats().rejected_busy.load(Ordering::Relaxed) as f64,
        "count",
        1,
    );
    if let (Some(b), Some(a)) = (before, server.cache_stats()) {
        let (h, m) = (a.hits - b.hits, a.misses - b.misses);
        let lookups = (h + m) as usize;
        out.metric(
            "cache.hit_ratio",
            h as f64 / lookups.max(1) as f64,
            "ratio",
            lookups,
        );
        out.metric(
            "cache.evictions",
            (a.evictions - b.evictions) as f64,
            "count",
            1,
        );
        out.metric("cache.bytes", a.bytes as f64, "bytes", 1);
    }
    let hit_us = if admit_hit.is_empty() {
        0.0
    } else {
        median(&admit_hit)
    };
    out.metric("cache.hit_us", hit_us, "us", admit_hit.len());
    server.shutdown();

    // The ingest and match layers on the same pages, one call at a time.
    let probe_pages: Vec<(usize, mse_testbed::GeneratedPage)> = traced
        .schedule
        .iter()
        .take(1500)
        .map(|&(_, i)| page(i))
        .collect();
    let probe: Vec<(usize, &str, &str, Option<&mse_core::Extraction>)> = probe_pages
        .iter()
        .map(|(e, p)| (*e, p.html.as_str(), p.query.as_str(), None))
        .collect();
    let sets: Vec<&mse_core::SectionWrapperSet> = engines.iter().map(|e| &e.set).collect();
    let pt = crate::extract::probe_pages(&sets, &probe, false, spans);
    crate::extract::report_probe(&pt, out);

    // Layer sum: the traced median round trip with one request in flight
    // against the self times of the layers on its path (nothing queues,
    // so queue wait is not part of it).
    let rtt_us = quantile(&ping.latencies_ms(), 0.5) * 1e3;
    let admit_idle_us = median(&admit_idle);
    let sum = encode_us + decode_us + admit_idle_us + service_us;
    out.metric("unattributed_share", 1.0 - sum / rtt_us, "ratio", n);
    out.note(format!(
        "layer sum per request, one in flight: proto.encode {encode_us:.1} + proto.decode \
         {decode_us:.1} + serve.admit {admit_idle_us:.1} + serve.service {service_us:.1} = \
         {sum:.1} us vs traced round trip p50 {rtt_us:.1} us; under the low rate the \
         replay adds serve.queue_wait {queue_wait:.1} us (admission {admit_us:.1} us)"
    ));
}
