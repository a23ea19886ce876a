//! # mse-render
//!
//! Deterministic layout simulator standing in for the browser-rendering
//! step of the paper (step 1 of MSE, from ViNTs \[29\]). It turns a
//! [`mse_dom::Dom`] into the paper's visual vocabulary:
//!
//! * [`ContentLine`]s with *type codes* (8 line types), *position codes*
//!   (left-most x) and *line text attributes* (sets of ⟨font, size, style,
//!   color⟩ quaternions),
//! * [`block`] distances `Dbt`/`Dbs`/`Dbp`/`Dbta` over blocks of lines,
//! * the line-level distances `Dtl`, `Dpl` and `Dtal` (Formula 2).
//!
//! See DESIGN.md §3 for why a simulator preserves the behaviour MSE needs:
//! the algorithm only consumes relative visual signals (which text shares a
//! line, left contours, type/font equality), never absolute pixels.
//!
//! Rendering is **panic-free by policy** (pages are untrusted input):
//! traversal depth is guarded, and [`render_lines_capped`] bounds the
//! number of emitted lines.

// Panic-free ingestion gate: untrusted HTML must never be able to abort
// the process. Tests keep their unwraps (they run on trusted fixtures).
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod block;
pub mod error;
pub mod layout;
pub mod line;
pub mod page;
pub mod style;

pub use error::RenderError;
pub use layout::{render_lines, render_lines_capped, render_lines_capped_scratch, LineScratch};
pub use line::{dpl, dtl, ContentLine, LineType, POSITION_K};
pub use page::{PageSigs, RenderedPage, SigScratch};
pub use style::{dtal, FontStyle, LineAttrs, TextAttr};
