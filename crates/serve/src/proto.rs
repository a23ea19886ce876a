//! Length-prefixed JSON protocol with tagged-frame multiplexing, over a
//! Unix domain socket or TCP.
//!
//! Wire format, both directions: a 4-byte little-endian payload length,
//! then that many bytes of JSON. Client → server messages are
//! [`WireRequest`]s — a client-assigned nonzero request `id` plus the
//! [`Request`] body. Server → client messages are [`TaggedFrame`]s —
//! every response frame carries the id of the request it belongs to, so
//! **any number of requests can be in flight on one connection** and
//! their frame streams interleave freely; the client routes frames by
//! id. A request's stream ends at [`Frame::Done`] (success) or
//! [`Frame::Rejected`] (admission failure — on backpressure it carries
//! the retry hint). Id `0` is reserved for connection-level errors
//! (malformed request bodies that name no id at all).
//!
//! Each accepted connection is served by a **reader/writer pair**: the
//! reader thread parses requests and hands them straight to the shared
//! worker pool ([`Server::submit_mux`]); the writer thread drains a
//! channel fed by all of that connection's in-flight jobs, batching
//! writes and flushing at quiescence. Connections no longer serialize
//! their requests behind one blocking loop, and a connection costs two
//! threads regardless of how many requests it pipelines.
//!
//! The framing is deliberately dumb: no negotiation, no versioning
//! beyond the JSON field names, 64 MiB max payload as an anti-abuse
//! backstop (admission control re-checks the real per-request budget).
//! A body that is not valid JSON — invalid UTF-8 and nesting deeper than
//! `serde_json::MAX_DEPTH` included — is answered with an id-0
//! `Rejected` frame and the connection keeps being served. Both
//! transports speak exactly the same bytes — [`serve_unix`] and
//! [`serve_tcp`] differ only in the listener.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{AtomicBool, Ordering};

use mse_core::Extraction;
use serde::{Deserialize, Serialize};

use crate::server::{collect_frames, Frame, Request, Server, SubmitError, TaggedFrame};

/// Anti-abuse cap on a single wire payload (requests re-check the real
/// per-request budget at admission).
pub const MAX_WIRE_BYTES: u32 = 64 << 20;

/// Client → server message: a client-assigned request id (nonzero; `0`
/// is reserved for connection-level errors) and the request body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireRequest {
    pub id: u64,
    pub req: Request,
}

fn too_large(len: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        // mse:allow(alloc): error path — an oversized frame aborts the stream
        format!("wire payload of {len} bytes exceeds {MAX_WIRE_BYTES}"),
    )
}

/// Write one length-prefixed JSON message through a caller-owned encode
/// buffer — the steady-state path: zero allocation per frame once the
/// scratch has grown to the connection's working size.
// Response encoding: one serialize into reused scratch + two writes per
// frame; the scratch amortizes to zero allocations per frame.
// mse:hot begin(frame-encode)
pub fn write_msg_buf<W: Write, T: serde::Serialize>(
    w: &mut W,
    msg: &T,
    scratch: &mut String,
) -> io::Result<()> {
    serde_json::to_string_into(msg, scratch)
        // mse:allow(alloc): error-path message, never taken per-frame
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let len = scratch.len() as u32;
    if len > MAX_WIRE_BYTES {
        return Err(too_large(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(scratch.as_bytes())
}
// mse:hot end(frame-encode)

/// Write one length-prefixed JSON message with a throwaway buffer.
/// Convenience for one-shot senders; per-connection loops use
/// [`write_msg_buf`] with reused scratch.
pub fn write_msg<W: Write, T: serde::Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let mut scratch = String::new();
    write_msg_buf(w, msg, &mut scratch)
}

/// Read one length-prefixed message body into a caller-owned buffer
/// (cleared, then filled). `Ok(false)` on clean EOF at a message
/// boundary — the reused buffer is the per-connection read scratch.
pub fn read_msg_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut lenb = [0u8; 4];
    match r.read_exact(&mut lenb) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(lenb);
    if len > MAX_WIRE_BYTES {
        return Err(too_large(len));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Read one length-prefixed message body into a fresh allocation.
/// `Ok(None)` on clean EOF. Convenience for one-shot readers.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::new();
    Ok(read_msg_into(r, &mut buf)?.then_some(buf))
}

fn submit_error_frame(e: &SubmitError) -> Frame {
    Frame::Rejected {
        reason: e.to_string(),
        retry_after_ms: match e {
            SubmitError::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        },
    }
}

/// The writer half of a connection: drain the tagged-frame channel fed
/// by every in-flight request, batching consecutive ready frames into
/// one flush. Exits when the last sender drops (reader gone **and** all
/// in-flight jobs finished) or the peer stops reading.
fn writer_loop<W: Write>(mut w: io::BufWriter<W>, rx: mpsc::Receiver<TaggedFrame>) {
    let mut scratch = String::new();
    while let Ok(tf) = rx.recv() {
        if write_msg_buf(&mut w, &tf, &mut scratch).is_err() {
            return; // peer hung up: drain-and-drop until senders close
        }
        // Opportunistic batch: everything already queued goes out in this
        // flush; the stream still progresses frame-by-frame under light
        // load because an empty channel flushes immediately.
        loop {
            match rx.try_recv() {
                Ok(tf) => {
                    if write_msg_buf(&mut w, &tf, &mut scratch).is_err() {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        if w.flush().is_err() {
            return;
        }
    }
    let _ = w.flush();
}

/// Serve one accepted connection on the multiplexed protocol: this
/// thread reads [`WireRequest`]s and admits them to the shared worker
/// pool without waiting for earlier responses; a paired writer thread
/// interleaves all in-flight frame streams back onto the socket.
fn handle_conn<R: Read, W: Write + Send + 'static>(server: &Server, r: R, w: W) -> io::Result<()> {
    let mut reader = io::BufReader::new(r);
    let (tx, rx) = mpsc::channel::<TaggedFrame>();
    let writer = std::thread::spawn(move || writer_loop(io::BufWriter::new(w), rx));
    let mut body = Vec::new();
    let result = loop {
        match read_msg_into(&mut reader, &mut body) {
            Ok(false) => break Ok(()),
            Err(e) => break Err(e),
            Ok(true) => {}
        }
        // Invalid UTF-8 is malformed like any other bad body: decoding it
        // lossily would extract (and cache) text the client never sent.
        let wreq: WireRequest = match serde_json::from_slice(&body) {
            Ok(wreq) => wreq,
            Err(e) => {
                // Connection-level error: the body named no usable id.
                let _ = tx.send(TaggedFrame {
                    id: 0,
                    frame: Frame::Rejected {
                        reason: format!("malformed request: {e}"),
                        retry_after_ms: None,
                    },
                });
                continue;
            }
        };
        let id = wreq.id;
        if let Err(e) = server.submit_mux(wreq.req, id, tx.clone()) {
            // Admission failure: the error frame is the whole stream for
            // this id, delivered in channel order with everything else.
            let _ = tx.send(TaggedFrame {
                id,
                frame: submit_error_frame(&e),
            });
        }
    };
    // Drop the reader's sender; the writer exits once the in-flight
    // jobs' senders drop too, having flushed every remaining frame.
    drop(tx);
    let _ = writer.join();
    result
}

/// Handle to a running Unix-socket listener; [`ServeHandle::stop`]
/// unbinds it. Dropping without `stop` leaves the acceptor running until
/// the process exits.
pub struct ServeHandle {
    path: PathBuf,
    running: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServeHandle {
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop accepting. In-flight connections finish their current
    /// request via the server's graceful drain (the `Server` outlives
    /// this handle).
    pub fn stop(mut self) {
        self.running.store(false, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Bind `path` and accept connections, each served by a reader/writer
/// thread pair against the shared `server`. Returns immediately.
pub fn serve_unix(server: Arc<Server>, path: impl AsRef<Path>) -> io::Result<ServeHandle> {
    let path = path.as_ref().to_path_buf();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let running = Arc::new(AtomicBool::new(true));
    let acceptor = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if !running.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(rstream) = stream.try_clone() else {
                    continue;
                };
                let server = Arc::clone(&server);
                // Detached: a connection's reader lives exactly as long
                // as its client stays connected; joining here would make
                // `stop` wait on clients that never hang up.
                std::thread::spawn(move || {
                    let _ = handle_conn(&server, rstream, stream);
                });
            }
        })
    };
    Ok(ServeHandle {
        path,
        running,
        acceptor: Some(acceptor),
    })
}

/// Handle to a running TCP listener; [`TcpServeHandle::stop`] unbinds
/// it. [`TcpServeHandle::addr`] reports the bound address — bind to
/// port 0 to let the OS pick.
pub struct TcpServeHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpServeHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting; in-flight connections drain as for the Unix
    /// front.
    pub fn stop(mut self) {
        self.running.store(false, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Bind a TCP address and accept connections on the same framed
/// protocol as [`serve_unix`] — clients need not be co-located with the
/// daemon. Returns immediately; the handle reports the resolved address.
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> io::Result<TcpServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let running = Arc::new(AtomicBool::new(true));
    let acceptor = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if !running.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Frames are small and latency-sensitive; the writer
                // already batches, so Nagle only adds delay.
                let _ = stream.set_nodelay(true);
                let Ok(rstream) = stream.try_clone() else {
                    continue;
                };
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = handle_conn(&server, rstream, stream);
                });
            }
        })
    };
    Ok(TcpServeHandle {
        addr,
        running,
        acceptor: Some(acceptor),
    })
}

/// Blocking multiplexing client for the framed protocol — used by the
/// CLI, the load bench, and tests. Works over either transport.
///
/// Supports **pipelined in-flight requests**: [`Client::send`] assigns
/// an id and returns without reading; [`Client::recv`] collects the
/// frame stream for one id, parking frames of other in-flight requests
/// as they interleave. [`Client::request`] is the sequential
/// send-then-recv convenience.
pub struct Client {
    reader: io::BufReader<Box<dyn Read + Send>>,
    writer: io::BufWriter<Box<dyn Write + Send>>,
    next_id: u64,
    /// Frame streams still accumulating, keyed by request id.
    partial: HashMap<u64, Vec<Frame>>,
    /// Completed streams not yet claimed by a `recv`.
    finished: HashMap<u64, Vec<Frame>>,
    read_buf: Vec<u8>,
    write_scratch: String,
}

impl Client {
    fn new(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Client {
        Client {
            reader: io::BufReader::new(reader),
            writer: io::BufWriter::new(writer),
            next_id: 1,
            partial: HashMap::new(),
            finished: HashMap::new(),
            read_buf: Vec::new(),
            write_scratch: String::new(),
        }
    }

    /// Connect over the Unix-socket transport.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let rstream = stream.try_clone()?;
        Ok(Client::new(Box::new(rstream), Box::new(stream)))
    }

    /// Connect over the TCP transport.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let rstream = stream.try_clone()?;
        Ok(Client::new(Box::new(rstream), Box::new(stream)))
    }

    /// Send one request without waiting for its response; returns the
    /// id to pass to [`Client::recv`]. Any number of sends may be
    /// outstanding — responses interleave on the wire and are routed
    /// back by id.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let wreq = WireRequest {
            id,
            // mse:allow(alloc): client-side framing, one copy per request
            req: req.clone(),
        };
        write_msg_buf(&mut self.writer, &wreq, &mut self.write_scratch)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Collect the complete frame stream for request `id` (ends at
    /// `Done` or `Rejected`). Frames belonging to other in-flight
    /// requests are parked and returned by their own `recv` calls, in
    /// any order.
    pub fn recv(&mut self, id: u64) -> io::Result<Vec<Frame>> {
        loop {
            if let Some(frames) = self.finished.remove(&id) {
                return Ok(frames);
            }
            if !read_msg_into(&mut self.reader, &mut self.read_buf)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            let tf: TaggedFrame = serde_json::from_slice(&self.read_buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if tf.id == 0 {
                // Connection-level rejection: the server could not even
                // attribute the failure to a request id.
                let reason = match tf.frame {
                    Frame::Rejected { reason, .. } => reason,
                    other => format!("unexpected connection-level frame: {other:?}"),
                };
                return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
            }
            let last = matches!(tf.frame, Frame::Done { .. } | Frame::Rejected { .. });
            self.partial.entry(tf.id).or_default().push(tf.frame);
            if last {
                let frames = self.partial.remove(&tf.id).unwrap_or_default();
                self.finished.insert(tf.id, frames);
            }
        }
    }

    /// Send one request and collect the full frame stream (ends at
    /// `Done` or `Rejected`).
    pub fn request(&mut self, req: &Request) -> io::Result<Vec<Frame>> {
        let id = self.send(req)?;
        self.recv(id)
    }

    /// Request + reassemble into an [`Extraction`] (rejections surface
    /// as diagnostics — see [`collect_frames`]).
    pub fn extract(
        &mut self,
        engine: &str,
        html: &str,
        query: Option<&str>,
    ) -> io::Result<Extraction> {
        let frames = self.request(&Request {
            engine: engine.to_string(),
            html: html.to_string(),
            query: query.map(str::to_string),
            budget: None,
        })?;
        Ok(collect_frames(frames))
    }
}
