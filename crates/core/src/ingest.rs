//! Fused zero-copy ingest: HTML → [`Page`] with every per-page buffer
//! drawn from a reusable [`IngestScratch`] (DESIGN.md §13). It is the only
//! ingest production code runs: build, one-shot and batch extraction,
//! health checks and the daemon all reach [`Page::try_from_html_fast`]
//! (directly, or through [`Page::try_from_html`] and
//! [`Page::from_html`] with a fresh scratch). It chains the zero-copy
//! front ends:
//!
//! * [`mse_dom::parse_serving`] — borrow-the-input lexer, clear-don't-drop
//!   node arena, per-node signature labels tracked during construction;
//! * [`mse_render::render_lines_capped_scratch`] — content lines built by
//!   overwriting recycled line buffers;
//! * [`mse_render::RenderedPage::assemble_fused`] — signatures filled into
//!   recycled vectors, reusing the parser's label table;
//! * pooled cleaned-line strings via `clean_line_into`.
//!
//! [`reference_ingest`] keeps the owned-string front end (tokenizer →
//! owned DOM → fresh render buffers → separate labeling pass) as the
//! oracle. The contract, enforced by `tests/parse_differential.rs` and the
//! `serve` bench's `identical_extractions` gate: for any input, the fused
//! path produces a [`Page`] whose extraction output is byte-identical to
//! the reference's.

use crate::config::ResourceBudget;
use crate::error::{Diagnostic, ExtractError, Stage};
use crate::page::{clean_line_into, Page, HR_TEXT, IMG_TEXT};
use mse_dom::ParseScratch;
use mse_render::{
    render_lines_capped, render_lines_capped_scratch, LineScratch, LineType, RenderedPage,
    SigScratch,
};

/// Clear-don't-drop state for repeated page ingestion; one per worker in
/// batch extraction (mirroring [`crate::compiled::ExtractScratch`]).
///
/// Lifecycle: [`Page::try_from_html_fast`] draws buffers out, and
/// [`IngestScratch::recycle`] takes a consumed [`Page`] apart to put them
/// back. Skipping `recycle` is always correct — the next page merely
/// allocates fresh buffers.
#[derive(Default)]
pub struct IngestScratch {
    parse: ParseScratch,
    lines: LineScratch,
    sigs: SigScratch,
    /// Donor pool for cleaned-line strings.
    cleaned_donor: Vec<String>,
    /// Outer storage for the next page's cleaned-line vector.
    cleaned: Vec<String>,
    /// Per-token scratch for `clean_line_into`.
    token_buf: String,
}

impl IngestScratch {
    pub fn new() -> IngestScratch {
        IngestScratch::default()
    }

    /// Steady-state probe: (node arena capacity, pooled attr vectors,
    /// pooled text buffers). Stable values across repeated
    /// ingest/recycle cycles over the same corpus mean the pools have
    /// reached a fixed point instead of growing without bound; the root
    /// `zero_alloc_ingest` test asserts exactly that.
    pub fn pool_sizes(&self) -> (usize, usize, usize) {
        (
            self.parse.node_capacity(),
            self.parse.attr_pool_len(),
            self.parse.text_pool_len(),
        )
    }

    /// Take a consumed page apart and pool its buffers for the next
    /// ingest: DOM node arena and label table back to the parse scratch,
    /// content lines to the render donor pool, signature vectors to the
    /// signature scratch, cleaned strings to their pool.
    pub fn recycle(&mut self, page: Page) {
        let Page {
            rp, mut cleaned, ..
        } = page;
        let RenderedPage { dom, lines, sigs } = rp;
        let labels = self.sigs.recycle(sigs);
        self.parse.recycle(dom, labels);
        self.lines.recycle(lines);
        self.cleaned_donor.append(&mut cleaned);
        self.cleaned = cleaned;
    }
}

impl Page {
    /// The ingest every production path runs: [`mse_dom::parse_serving`],
    /// [`render_lines_capped_scratch`] and
    /// [`RenderedPage::assemble_fused`], with all per-page buffers drawn
    /// from `scratch`. Parse-stage budget trips are hard errors; render
    /// truncation degrades with a [`Diagnostic`] (see
    /// [`Page::try_from_html`]).
    pub fn try_from_html_fast(
        html: &str,
        query: Option<&str>,
        budget: &ResourceBudget,
        scratch: &mut IngestScratch,
    ) -> Result<(Page, Vec<Diagnostic>), ExtractError> {
        let (dom, labels) =
            mse_dom::parse_serving(html, &budget.parse_limits(), &mut scratch.parse)?;
        let (lines, truncated) =
            render_lines_capped_scratch(&dom, budget.max_content_lines, &mut scratch.lines);
        let rp = RenderedPage::assemble_fused(dom, lines, labels, &mut scratch.sigs);
        Ok((
            Page::with_cleaned(rp, query, scratch),
            truncation_diagnostics(truncated, budget),
        ))
    }

    /// Attach the cleaned text of every content line (§5.2 lines 1–2),
    /// the strings drawn from `scratch`'s pool.
    pub(crate) fn with_cleaned(
        rp: RenderedPage,
        query: Option<&str>,
        scratch: &mut IngestScratch,
    ) -> Page {
        let mut cleaned = std::mem::take(&mut scratch.cleaned);
        cleaned.clear();
        for l in &rp.lines {
            let mut out = scratch.cleaned_donor.pop().unwrap_or_default();
            out.clear();
            match l.ltype {
                LineType::Hr => out.push_str(HR_TEXT),
                LineType::Image if l.text.is_empty() => out.push_str(IMG_TEXT),
                _ => clean_line_into(&l.text, query, &mut scratch.token_buf, &mut out),
            }
            cleaned.push(out);
        }
        Page {
            rp,
            query: query.map(str::to_string),
            cleaned,
        }
    }
}

/// The render-stage diagnostic of a page truncated at the line budget.
fn truncation_diagnostics(truncated: bool, budget: &ResourceBudget) -> Vec<Diagnostic> {
    if !truncated {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Stage::Render,
        format!(
            "page truncated at the {}-content-line budget",
            budget.max_content_lines
        ),
    )]
}

/// The owned-string reference ingest: [`mse_dom::parse_with_limits`]
/// (owned token stream, comment nodes kept), a fresh render and a
/// separate signature pass ([`RenderedPage::assemble`]). No production
/// path runs it; the differential tests and the `serve` bench hold
/// [`Page::try_from_html_fast`] to byte-identical extractions against it.
#[doc(hidden)]
pub fn reference_ingest(
    html: &str,
    query: Option<&str>,
    budget: &ResourceBudget,
) -> Result<(Page, Vec<Diagnostic>), ExtractError> {
    let dom = mse_dom::parse_with_limits(html, &budget.parse_limits())?;
    let (lines, truncated) = render_lines_capped(&dom, budget.max_content_lines);
    let rp = RenderedPage::assemble(dom, lines);
    Ok((
        Page::with_cleaned(rp, query, &mut IngestScratch::new()),
        truncation_diagnostics(truncated, budget),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: &[&str] = &[
        "",
        "<body><p>Hello <b>world</b></p><p>second</p></body>",
        "<body><table><tr><td><a href=/r1>Result 99 title</a><br>\
         <font size=-1>Snippet text here</font></td></tr>\
         <tr><td><a href=/r2>Other title</a><br>More snippet</td></tr></table></body>",
        "<body><p>a<!-- hidden -->b</p><hr><p><img src=x></p></body>",
        "<body><ul><li>R&amp;D 12 items</li><li>Q&uuml;ery</li></ul></body>",
        "<div>unclosed <p>soup <td>cell",
        "<body><form><input type=hidden name=q><input value=\"Go 7\"></form></body>",
    ];

    /// Line-level equality. NodeId-bearing data (leaves, per-node sig
    /// tables) is *not* compared: the fast DOM omits comment nodes, so
    /// node indices legitimately shift — extraction output, which is what
    /// the byte-identity contract covers, never exposes NodeIds.
    fn pages_equal(a: &Page, b: &Page) {
        assert_eq!(a.cleaned, b.cleaned);
        assert_eq!(a.query, b.query);
        assert_eq!(a.rp.lines.len(), b.rp.lines.len());
        for (la, lb) in a.rp.lines.iter().zip(&b.rp.lines) {
            assert_eq!(la.number, lb.number);
            assert_eq!(la.text, lb.text);
            assert_eq!(la.ltype, lb.ltype);
            assert_eq!(la.pos, lb.pos);
            assert_eq!(la.attrs, lb.attrs);
            let ta: Vec<&str> = la.path.steps.iter().map(|s| s.tag.as_str()).collect();
            let tb: Vec<&str> = lb.path.steps.iter().map(|s| s.tag.as_str()).collect();
            assert_eq!(ta, tb, "path tags differ");
        }
        assert_eq!(a.rp.sigs.line_types, b.rp.sigs.line_types);
    }

    #[test]
    fn fast_ingest_matches_reference_with_scratch_reuse() {
        let budget = ResourceBudget::default();
        let mut scratch = IngestScratch::new();
        // Reuse one scratch across all cases — recycling must not leak
        // state between pages.
        for _ in 0..2 {
            for html in CASES {
                let (fast, fd) =
                    Page::try_from_html_fast(html, Some("title"), &budget, &mut scratch)
                        .expect("fast ingest");
                let (legacy, ld) =
                    reference_ingest(html, Some("title"), &budget).expect("reference ingest");
                assert_eq!(fd.len(), ld.len());
                pages_equal(&fast, &legacy);
                scratch.recycle(fast);
            }
        }
    }

    #[test]
    fn fast_ingest_budget_trips_match_reference() {
        let tight = ResourceBudget {
            max_dom_nodes: 8,
            ..ResourceBudget::default()
        };
        let mut scratch = IngestScratch::new();
        let html = "<body><div><p>a</p><p>b</p><p>c</p><p>d</p></div></body>";
        let fast = Page::try_from_html_fast(html, None, &tight, &mut scratch);
        let legacy = reference_ingest(html, None, &tight);
        assert!(fast.is_err() && legacy.is_err());
    }

    #[test]
    fn fast_ingest_truncation_diagnostic_matches_reference() {
        let tight = ResourceBudget {
            max_content_lines: 1,
            ..ResourceBudget::default()
        };
        let mut scratch = IngestScratch::new();
        let html = "<body><p>one</p><p>two</p></body>";
        let (fast, fd) = Page::try_from_html_fast(html, None, &tight, &mut scratch).unwrap();
        let (legacy, ld) = reference_ingest(html, None, &tight).unwrap();
        assert_eq!(fd.len(), 1);
        assert_eq!(fd.len(), ld.len());
        pages_equal(&fast, &legacy);
    }
}
