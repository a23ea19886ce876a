//! The serving core: admission control in front of a worker pool with
//! streaming responses, per-engine queue partitions, and a response
//! cache for repeat traffic.
//!
//! Request lifecycle:
//!
//! 1. **Admission** ([`Server::submit`] / [`Server::submit_mux`]) —
//!    resolve the engine's current [`EngineState`] (unknown engine ⇒
//!    typed rejection), bind the per-request [`ResourceBudget`] (request
//!    override or the engine set's own), reject oversized input *before*
//!    it occupies queue memory. Requests under the default budget then
//!    probe the [`ResponseCache`]: a hit replays the cached frame
//!    sequence into the response sink immediately — no queue, no worker,
//!    no ingest — and the request is done at memory speed. A miss is
//!    `try_push`ed onto **that engine's** queue partition. A full
//!    partition is a [`SubmitError::Busy`] with a retry hint — explicit
//!    per-engine backpressure; other engines' partitions are unaffected,
//!    so one flooded engine cannot head-of-line-block the rest.
//! 2. **Service** — a worker pops the next job from the round-robin
//!    partition dispatcher, binds its cached [`CompiledParts`]
//!    (recompiling only when the state's epoch moved), ingests on the
//!    zero-copy fast path ([`Page::try_from_html_fast`]) under the
//!    request budget, and streams the extraction through a
//!    [`RecordSink`] that forwards each section/record as a [`Frame`]
//!    the moment it is selected. Cacheable responses are teed into a
//!    fill buffer and inserted into the response cache at completion,
//!    keyed by `(engine, epoch, fnv(html ‖ query))` — the epoch in the
//!    key makes hot reload the exact invalidation edge. Page buffers are
//!    recycled into the worker's [`IngestScratch`].
//! 3. **Completion** — a final [`Frame::Done`] carries section/record
//!    totals. Ingest failures (budget trips on hostile pages) degrade
//!    that one request to a diagnostic frame + `Done`, mirroring the
//!    one-shot path's [`Extraction::degraded`]; the worker and every
//!    other request are unaffected.
//!
//! Responses flow through a [`JobTx`]: either a plain per-request
//! channel ([`Server::submit`], the in-process API) or a shared
//! per-connection channel with a client-assigned request id stamped on
//! every frame ([`Server::submit_mux`], the multiplexed socket front —
//! many in-flight requests ride one connection and their frames
//! interleave, routed client-side by id).
//!
//! Shutdown is a graceful drain: the queue closes (new submits are
//! rejected), workers finish every admitted job, then exit.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use crate::sync::{AtomicU64, Ordering};

use mse_core::{
    CompiledParts, Diagnostic, ExtractScratch, ExtractedRecord, Extraction, IngestScratch, Page,
    RecordSink, ResourceBudget, SchemaId,
};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, CacheStats, ResponseCache};
use crate::queue::{PartitionStat, PartitionedQueue, PushError};
use crate::registry::{EngineState, Registry};

/// One unit of the streaming response. A successful request is
/// `Diagnostic* (SectionStart Record* Diagnostic* SectionEnd)* Done`;
/// the socket protocol adds `Rejected` for admission failures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    Diagnostic(Diagnostic),
    SectionStart {
        schema: SchemaId,
        start: usize,
        end: usize,
    },
    Record(ExtractedRecord),
    SectionEnd,
    Done {
        sections: usize,
        records: usize,
    },
    Rejected {
        reason: String,
        /// Present on backpressure rejections: retry after this long.
        retry_after_ms: Option<u64>,
    },
}

/// A [`Frame`] stamped with the client-assigned request id it belongs
/// to — the multiplexing unit: frames of different in-flight requests
/// interleave freely on one connection and are routed by `id`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaggedFrame {
    pub id: u64,
    pub frame: Frame,
}

/// One extraction request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    pub engine: String,
    pub html: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub query: Option<String>,
    /// Per-request ingest budget; defaults to the engine set's own.
    /// Requests with an override bypass the response cache in both
    /// directions (their responses are budget-dependent).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget: Option<ResourceBudget>,
}

/// Typed admission failure — the request never reached the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    UnknownEngine(String),
    /// This engine's queue partition is full: backpressure. Retry after
    /// the hinted delay. Other engines are unaffected.
    Busy {
        retry_after_ms: u64,
    },
    /// Input larger than the effective budget's `max_input_bytes`.
    InputTooLarge {
        bytes: usize,
        max: usize,
    },
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownEngine(e) => write!(f, "unknown engine '{e}'"),
            SubmitError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms}ms")
            }
            SubmitError::InputTooLarge { bytes, max } => {
                write!(
                    f,
                    "input of {bytes} bytes exceeds budget max_input_bytes={max}"
                )
            }
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads; 0 ⇒ available parallelism.
    pub workers: usize,
    /// Request-queue capacity **per engine partition**.
    pub queue_capacity: usize,
    /// Retry hint handed out on backpressure rejections.
    pub retry_after_ms: u64,
    /// Response-cache entry budget across all shards; 0 disables the
    /// cache entirely.
    pub cache_entries: usize,
    /// Response-cache byte budget (approximate owned frame bytes) across
    /// all shards; 0 disables the cache entirely.
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            retry_after_ms: 10,
            cache_entries: 4096,
            cache_bytes: 32 << 20,
        }
    }
}

/// Monotone serving counters (all relaxed; read for reporting only).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub admitted: AtomicU64,
    pub served: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub rejected_other: AtomicU64,
    /// Requests answered straight from the response cache at admission
    /// (these also count in `admitted` and `served`).
    pub cache_hits: AtomicU64,
}

/// Response sink for one job: a dedicated per-request channel (the
/// in-process API) or the connection-shared tagged channel (the
/// multiplexed socket front).
enum JobTx {
    Plain(Sender<Frame>),
    Tagged { id: u64, tx: Sender<TaggedFrame> },
}

impl JobTx {
    /// Send errors mean the client hung up — frames are dropped on the
    /// floor and serving continues (an extraction cannot be cancelled
    /// mid-page, and the scratch state must be wound forward anyway).
    fn send(&self, frame: Frame) {
        match self {
            JobTx::Plain(tx) => {
                let _ = tx.send(frame);
            }
            JobTx::Tagged { id, tx } => {
                let _ = tx.send(TaggedFrame { id: *id, frame });
            }
        }
    }
}

struct Job {
    state: Arc<EngineState>,
    html: String,
    query: Option<String>,
    budget: ResourceBudget,
    /// Present iff this response should be inserted into the cache on
    /// completion (cache enabled, default budget).
    cache_key: Option<CacheKey>,
    tx: JobTx,
}

/// The in-process daemon: admission + worker pool. The socket protocol
/// ([`crate::proto`]) and the CLI both drive this same API.
pub struct Server {
    registry: Arc<Registry>,
    queue: Arc<PartitionedQueue<Job>>,
    cache: Option<Arc<ResponseCache>>,
    workers: Vec<JoinHandle<()>>,
    cfg: ServerConfig,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Start the worker pool. The registry stays shared — installs and
    /// reloads on it are picked up by workers per-request.
    pub fn start(registry: Arc<Registry>, cfg: ServerConfig) -> Server {
        let queue = Arc::new(PartitionedQueue::new(cfg.queue_capacity));
        let cache = (cfg.cache_entries > 0 && cfg.cache_bytes > 0)
            .then(|| Arc::new(ResponseCache::new(cfg.cache_entries, cfg.cache_bytes)));
        let stats = Arc::new(ServerStats::default());
        let n = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let workers = (0..n)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let cache = cache.clone();
                std::thread::spawn(move || worker_loop(&queue, &stats, cache.as_deref()))
            })
            .collect();
        Server {
            registry,
            queue,
            cache,
            workers,
            cfg,
            stats,
        }
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Response-cache counters, `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Deepest the request queue ever got, summed across partitions.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Per-engine partition depth stats, in partition-creation order.
    pub fn partitions(&self) -> Vec<PartitionStat> {
        self.queue.partitions()
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Admit one request. On success the returned channel yields the
    /// streaming [`Frame`]s, ending with [`Frame::Done`].
    pub fn submit(&self, req: Request) -> Result<Receiver<Frame>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.admit(req, JobTx::Plain(tx))?;
        Ok(rx)
    }

    /// Admit one request on the multiplexed path: frames are stamped
    /// with `id` and sent down the shared `tx` (one per connection),
    /// interleaving with every other in-flight request on it. The
    /// submit-side contract is unchanged — a returned error means the
    /// request never entered the system and no frame will carry its id.
    pub fn submit_mux(
        &self,
        req: Request,
        id: u64,
        tx: Sender<TaggedFrame>,
    ) -> Result<(), SubmitError> {
        self.admit(req, JobTx::Tagged { id, tx })
    }

    fn admit(&self, req: Request, tx: JobTx) -> Result<(), SubmitError> {
        let state = self.registry.get(&req.engine).ok_or_else(|| {
            // mse:atomic: reporting-only monotone counter, no ordering consumer
            self.stats.rejected_other.fetch_add(1, Ordering::Relaxed);
            SubmitError::UnknownEngine(req.engine.clone())
        })?;
        let budget = req.budget.unwrap_or(state.set.cfg.budget);
        if req.html.len() > budget.max_input_bytes {
            // mse:atomic: reporting-only monotone counter, no ordering consumer
            self.stats.rejected_other.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::InputTooLarge {
                bytes: req.html.len(),
                max: budget.max_input_bytes,
            });
        }
        // Cache probe: only default-budget requests are cacheable (an
        // override changes what the correct response even is).
        let cache_key = match (&self.cache, req.budget.is_none()) {
            (Some(_), true) => Some(ResponseCache::key(
                &req.engine,
                state.epoch,
                &req.html,
                req.query.as_deref(),
            )),
            _ => None,
        };
        if let (Some(cache), Some(key)) = (&self.cache, &cache_key) {
            if let Some(frames) = cache.lookup(key, &req.engine) {
                // Hit: replay the cached frame sequence straight into the
                // sink — no queue, no worker, no ingest. Counted as both
                // admitted and served so the drain invariant
                // (admitted == served) holds unchanged.
                // mse:atomic: drain-time consistency via worker joins
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                // mse:atomic: reporting-only monotone counter
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                for f in frames.iter() {
                    tx.send(f.clone());
                }
                // mse:atomic: reporting-only monotone counter
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let engine_key = Arc::clone(&state);
        let job = Job {
            state,
            html: req.html,
            query: req.query,
            budget,
            cache_key,
            tx,
        };
        match self.queue.try_push(engine_key.engine.as_str(), job) {
            Ok(()) => {
                // admitted/served only have to agree at drain, where the
                // worker joins order every count before the read.
                // mse:atomic: drain-time consistency via worker joins
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                // mse:atomic: reporting-only monotone counter, no ordering consumer
                self.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Busy {
                    retry_after_ms: self.cfg.retry_after_ms,
                })
            }
            Err(PushError::Closed(_)) => {
                // mse:atomic: reporting-only monotone counter, no ordering consumer
                self.stats.rejected_other.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Convenience: submit and reassemble the stream into an owned
    /// [`Extraction`] — the non-streaming view used by tests and the
    /// identity gate against the one-shot path.
    pub fn extract(&self, req: Request) -> Result<Extraction, SubmitError> {
        let rx = self.submit(req)?;
        Ok(collect_frames(rx.iter()))
    }

    /// Graceful drain: stop admitting, serve every queued job, join the
    /// workers.
    pub fn shutdown(mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Reassemble a frame stream into an [`Extraction`] (admission
/// rejections become diagnostics). Arrival order matches the one-shot
/// path's diagnostic order: ingest diagnostics first, then extraction
/// diagnostics in section order.
pub fn collect_frames<I: IntoIterator<Item = Frame>>(frames: I) -> Extraction {
    let mut ex = Extraction::default();
    for frame in frames {
        match frame {
            Frame::Diagnostic(d) => ex.diagnostics.push(d),
            Frame::SectionStart { schema, start, end } => {
                ex.sections.push(mse_core::ExtractedSection {
                    schema,
                    start,
                    end,
                    records: Vec::new(),
                })
            }
            Frame::Record(rec) => {
                if let Some(sec) = ex.sections.last_mut() {
                    sec.records.push(rec);
                }
            }
            Frame::SectionEnd | Frame::Done { .. } => {}
            Frame::Rejected { reason, .. } => ex.diagnostics.push(Diagnostic::new(
                mse_core::Stage::Extract,
                format!("request rejected: {reason}"),
            )),
        }
    }
    ex
}

/// Per-worker compiled-set cache: engine name → (epoch, parts). The
/// epoch key is load-bearing — see the module docs of
/// [`crate::registry`] and the stale-set regression test.
type CompiledCache = HashMap<String, (u64, CompiledParts)>;

/// Forwards the streaming extraction to the response sink, counting as
/// it goes, and tees cacheable responses into a fill buffer for the
/// response cache. Send errors mean the client hung up — frames are
/// dropped on the floor and extraction continues.
struct FrameSink<'a> {
    tx: &'a JobTx,
    /// Present iff this response will be inserted into the cache.
    fill: Option<&'a mut Vec<Frame>>,
    sections: usize,
    records: usize,
}

impl FrameSink<'_> {
    fn emit(&mut self, frame: Frame) {
        if let Some(buf) = self.fill.as_deref_mut() {
            // mse:allow(alloc): cache-fill tee, response-owned payload
            buf.push(frame.clone());
        }
        self.tx.send(frame);
    }
}

impl RecordSink for FrameSink<'_> {
    fn diagnostic(&mut self, d: Diagnostic) {
        self.emit(Frame::Diagnostic(d));
    }

    fn section_start(&mut self, schema: SchemaId, start: usize, end: usize) {
        self.sections += 1;
        self.emit(Frame::SectionStart { schema, start, end });
    }

    fn record(&mut self, rec: ExtractedRecord) {
        self.records += 1;
        self.emit(Frame::Record(rec));
    }

    fn section_end(&mut self) {
        self.emit(Frame::SectionEnd);
    }
}

fn worker_loop(queue: &PartitionedQueue<Job>, stats: &ServerStats, cache: Option<&ResponseCache>) {
    let mut ext = ExtractScratch::new();
    let mut ing = IngestScratch::new();
    let mut compiled: CompiledCache = HashMap::new();
    // One distance memo per worker, cleared before each request: family
    // Dinr checks run the memoized bounded engine, and the memo never
    // holds more than one page's records.
    let dcache = mse_core::DistanceCache::new(true);
    // mse:hot begin(worker-loop)
    while let Some(job) = queue.pop() {
        serve_one(
            job,
            stats,
            cache,
            &mut ext,
            &mut ing,
            &mut compiled,
            &dcache,
        );
    }
    // mse:hot end(worker-loop)
}

/// Rebuild one worker's cache slot for a new engine state. Cold path:
/// runs once per worker per installed wrapper version, never per page.
fn refresh_cache<'c>(
    cache: &'c mut CompiledCache,
    state: &EngineState,
) -> &'c mut (u64, CompiledParts) {
    let slot = cache.entry(state.engine.clone()).or_default();
    slot.0 = state.epoch;
    slot.1 = state.set.compile_parts();
    slot
}

// The steady-state serve path: scratch reuse, zero-copy ingest, streaming
// emit. Allocation here is confined to what the response itself owns
// (record texts, frame payloads, the cache-fill tee) plus the cold
// cache-refresh call.
// mse:hot begin(serve-one)
fn serve_one(
    job: Job,
    stats: &ServerStats,
    rcache: Option<&ResponseCache>,
    ext: &mut ExtractScratch,
    ing: &mut IngestScratch,
    cache: &mut CompiledCache,
    dcache: &mse_core::DistanceCache,
) {
    let state = &job.state;
    let hit = cache
        .get(state.engine.as_str())
        .is_some_and(|(epoch, _)| *epoch == state.epoch);
    if !hit {
        // mse:allow(call): compile-on-epoch-miss cold path, never per page
        refresh_cache(cache, state);
    }
    let Some((_, parts)) = cache.get(state.engine.as_str()) else {
        return; // unreachable: refresh_cache just inserted the slot
    };
    let cref = parts.bind(&state.set);
    // Tee buffer for the response cache: filled alongside the stream,
    // inserted at completion. Only present on cacheable misses.
    let mut fill: Option<Vec<Frame>> = match (&rcache, &job.cache_key) {
        // mse:allow(alloc): cache-fill buffer, response-owned
        (Some(_), Some(_)) => Some(Vec::new()),
        _ => None,
    };
    // Page-ingest boundary: the arena build allocates once per request
    // into recycled IngestScratch, bounded by the parse limits; the
    // zero-alloc guarantee starts after ingest, at extraction.
    // mse:allow(call): per-request arena build, bounded and recycled
    match Page::try_from_html_fast(&job.html, job.query.as_deref(), &job.budget, ing) {
        Ok((page, diags)) => {
            let mut sink = FrameSink {
                tx: &job.tx,
                fill: fill.as_mut(),
                sections: 0,
                records: 0,
            };
            for d in diags {
                sink.diagnostic(d);
            }
            dcache.clear();
            cref.extract_stream_scratch(&page, dcache, ext, &mut sink);
            let done = Frame::Done {
                sections: sink.sections,
                records: sink.records,
            };
            ing.recycle(page);
            // Counted before the Done frame goes out: a client that has
            // observed Done must observe the served count too (the channel
            // send is the ordering edge).
            // mse:atomic: ordering piggybacks on the Done-frame channel send
            stats.served.fetch_add(1, Ordering::Relaxed);
            finish(&job, rcache, fill, done);
        }
        Err(e) => {
            // Hostile/oversized page: degrade this one request, exactly
            // like the one-shot path's `Extraction::degraded`.
            // mse:allow(alloc): degraded-path diagnostic text
            let diag = Frame::Diagnostic(Diagnostic::new(e.stage(), e.to_string()));
            if let Some(buf) = fill.as_mut() {
                // mse:allow(alloc): cache-fill tee, degraded path
                buf.push(diag.clone());
            }
            job.tx.send(diag);
            // mse:atomic: ordering piggybacks on the Done-frame channel send
            stats.served.fetch_add(1, Ordering::Relaxed);
            finish(
                &job,
                rcache,
                fill,
                Frame::Done {
                    sections: 0,
                    records: 0,
                },
            );
        }
    }
}
// mse:hot end(serve-one)

/// Send the final `Done` frame and, for cacheable responses, insert the
/// completed frame sequence into the response cache. The cached copy
/// includes the `Done`, so a hit replays the entire stream verbatim.
fn finish(job: &Job, rcache: Option<&ResponseCache>, fill: Option<Vec<Frame>>, done: Frame) {
    let fill = match fill {
        Some(mut buf) => {
            // mse:allow(alloc): cache-fill tee, response-owned payload
            buf.push(done.clone());
            Some(buf)
        }
        None => None,
    };
    job.tx.send(done);
    if let (Some(rc), Some(key), Some(buf)) = (rcache, &job.cache_key, fill) {
        rc.insert(key, &job.state.engine, Arc::new(buf));
    }
}
