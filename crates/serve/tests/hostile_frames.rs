//! Hostile request bodies on the socket front: each one fails its own
//! request with the connection-level (id 0) `Rejected` frame, and the
//! daemon keeps serving.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mse_core::{Mse, MseConfig, SectionWrapperSet};
use mse_serve::proto::{read_msg, serve_unix, Client, ServeHandle};
use mse_serve::{Frame, Registry, Server, ServerConfig, TaggedFrame};
use mse_testbed::EngineSpec;

struct Daemon {
    spec: EngineSpec,
    set: SectionWrapperSet,
    server: Arc<Server>,
    handle: ServeHandle,
}

/// A daemon serving testbed engine 6 as `e6` on a fresh Unix socket.
fn start(tag: &str) -> Daemon {
    let spec = EngineSpec::generate(2006, 6);
    let samples: Vec<_> = (0..5).map(|q| spec.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    let set = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("wrapper induction from samples");
    let registry = Arc::new(Registry::new());
    registry.install("e6", set.clone(), None).expect("install");
    let server = Arc::new(Server::start(registry, ServerConfig::default()));
    let sock = std::env::temp_dir().join(format!("mse-hostile-{tag}-{}.sock", std::process::id()));
    let handle = serve_unix(Arc::clone(&server), &sock).expect("bind");
    Daemon {
        spec,
        set,
        server,
        handle,
    }
}

/// Send `body` as one raw frame and read the single reply frame.
fn send_raw(conn: &mut UnixStream, body: &[u8]) -> TaggedFrame {
    let len = u32::try_from(body.len()).expect("test body fits the length prefix");
    conn.write_all(&len.to_le_bytes()).expect("write length");
    conn.write_all(body).expect("write body");
    let reply = read_msg(conn)
        .expect("read reply")
        .expect("daemon answered before closing");
    serde_json::from_slice(&reply).expect("reply is a tagged frame")
}

/// The reply must be the connection-level rejection; returns its reason.
fn assert_malformed(tf: &TaggedFrame) -> &str {
    assert_eq!(tf.id, 0, "a body that does not parse names no id: {tf:?}");
    match &tf.frame {
        Frame::Rejected { reason, .. } => {
            assert!(reason.starts_with("malformed request"), "{reason}");
            reason
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
}

/// A well-formed request on a new connection is still served exactly.
fn assert_serves(d: &Daemon) {
    let mut client = Client::connect(d.handle.path()).expect("second connection");
    let page = d.spec.page(9);
    let served = client
        .extract("e6", &page.html, Some(&page.query))
        .expect("socket extract");
    assert_eq!(
        served,
        d.set.extract_with_query(&page.html, Some(&page.query))
    );
}

#[test]
fn deeply_nested_request_is_rejected_and_daemon_keeps_serving() {
    let d = start("deep");
    let mut conn = UnixStream::connect(d.handle.path()).expect("connect");
    // ~1 MB each, far under the wire cap, nested a million levels deep:
    // where a `Request` belongs, and in a field the decoder skips.
    for prefix in [
        &br#"{"id":1,"req":"#[..],
        &br#"{"id":1,"req":{"engine":"e6","html":"","x":"#[..],
    ] {
        let mut body = prefix.to_vec();
        body.resize(body.len() + 1_000_000, b'[');
        assert_malformed(&send_raw(&mut conn, &body));
    }
    let mut body = br#"{"id":1,"req":{"engine":"e6","html":"","x":"#.to_vec();
    body.resize(body.len() + 1_000, b'[');
    let reply = send_raw(&mut conn, &body);
    let reason = assert_malformed(&reply);
    assert!(reason.contains("nesting deeper than"), "{reason}");

    // The offending connection is still read, and another one is served.
    let reply = send_raw(&mut conn, br#"{"id":2,"req":{"engine":"ghost","html":""}}"#);
    assert_eq!(reply.id, 2);
    assert!(matches!(reply.frame, Frame::Rejected { .. }), "{reply:?}");
    assert_serves(&d);
    d.handle.stop();
}

#[test]
fn invalid_utf8_request_is_rejected_not_rewritten() {
    let d = start("utf8");
    let page = d.spec.page(9);
    let mut body = br#"{"id":1,"req":{"engine":"e6","html":""#.to_vec();
    body.extend_from_slice(page.html.replace('"', "'").as_bytes());
    body.extend_from_slice(b"\xff\xfe\"}}");
    let mut conn = UnixStream::connect(d.handle.path()).expect("connect");
    assert_malformed(&send_raw(&mut conn, &body));
    assert_eq!(
        d.server.stats().admitted.load(Ordering::Relaxed),
        0,
        "the page must not reach extraction (or the cache)"
    );
    assert_serves(&d);
    d.handle.stop();
}
