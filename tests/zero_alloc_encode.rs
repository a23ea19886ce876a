//! The "zero allocation per frame" claim for the daemon's response
//! encoder, asserted as a test: [`write_msg_buf`] of real tagged frames
//! into a warmed scratch `String` must not touch the heap.
//!
//! Registers [`mse_bench::alloc::CountingAlloc`] as this test binary's
//! global allocator. The counters are process-global, so this file holds
//! a **single** `#[test]`, and the server that produced the frames is shut
//! down (its workers joined) before the measured window opens.

use std::sync::Arc;

use mse_bench::alloc::{counting, CountingAlloc};
use mse_core::{Mse, MseConfig};
use mse_serve::proto::write_msg_buf;
use mse_serve::{Frame, Registry, Request, Server, ServerConfig, TaggedFrame};
use mse_testbed::EngineSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn frame_encode_is_allocation_free() {
    let engine = EngineSpec::generate(2006, 6);
    let samples: Vec<_> = (0..5).map(|q| engine.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    let set = Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("testbed engine 6 must build");
    let registry = Arc::new(Registry::new());
    registry.install("e6", set, None).expect("install");
    let server = Server::start(registry, ServerConfig::default());

    // The daemon's own frame streams for a handful of test pages.
    let mut frames = Vec::new();
    for q in 5..13 {
        let page = engine.page(q);
        let rx = server
            .submit(Request {
                engine: "e6".to_string(),
                html: page.html,
                query: Some(page.query),
                budget: None,
            })
            .expect("admitted");
        frames.extend(rx.iter().map(|frame| TaggedFrame {
            id: q as u64,
            frame,
        }));
    }
    server.shutdown();
    for (what, present) in [
        (
            "Record",
            frames.iter().any(|t| matches!(t.frame, Frame::Record(_))),
        ),
        (
            "SectionStart",
            frames
                .iter()
                .any(|t| matches!(t.frame, Frame::SectionStart { .. })),
        ),
        (
            "SectionEnd",
            frames.iter().any(|t| matches!(t.frame, Frame::SectionEnd)),
        ),
        (
            "Done",
            frames.iter().any(|t| matches!(t.frame, Frame::Done { .. })),
        ),
    ] {
        assert!(present, "probe is vacuous: no {what} frame was produced");
    }

    // Warm-up: grow the scratch to the largest frame's size.
    let mut scratch = String::new();
    let mut sink = std::io::sink();
    for tf in &frames {
        write_msg_buf(&mut sink, tf, &mut scratch).expect("encode");
    }

    let (bytes_out, allocs, bytes) = counting(|| {
        let mut total = 0usize;
        for tf in &frames {
            write_msg_buf(&mut sink, tf, &mut scratch).expect("encode");
            total += scratch.len();
        }
        total
    });
    assert!(bytes_out > 0);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "encoding {} warmed frames allocated {allocs} time(s) / {bytes} byte(s)",
        frames.len()
    );
}
