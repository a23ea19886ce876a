//! Pipeline-side page wrapper: rendered page + cleaned lines + cached
//! per-line record features.

use crate::config::{MseConfig, ResourceBudget};
use crate::error::{Diagnostic, ExtractError};
use crate::ingest::IngestScratch;
use mse_render::{LineType, RenderedPage};
use mse_treedit::{forest_of, TagTree};

/// Cleaned-text placeholder for an `<hr>` line (matches testbed's marker).
pub const HR_TEXT: &str = "[HR]";
/// Cleaned-text placeholder for an image-only line.
pub const IMG_TEXT: &str = "[IMG]";

/// A sample (or test) page as the pipeline sees it.
#[derive(Clone, Debug)]
pub struct Page {
    pub rp: RenderedPage,
    /// The query that produced the page, if known — used by `clean_line`.
    pub query: Option<String>,
    /// Per-line cleaned text (dynamic components removed, §5.2 lines 1–2).
    pub cleaned: Vec<String>,
}

impl Page {
    /// Parse and render a trusted page with no resource limits (depth
    /// still clamps), on the fused front ends with fresh scratch
    /// ([`RenderedPage::from_html`]); tests, benches and diagnostics use
    /// it.
    pub fn from_html(html: &str, query: Option<&str>) -> Page {
        Page::with_cleaned(
            RenderedPage::from_html(html),
            query,
            &mut IngestScratch::new(),
        )
    }

    /// Budget-aware ingestion of an untrusted page. Parse-stage budget
    /// trips (input size, node count) are hard errors — there is no
    /// meaningful partial DOM. A render-stage trip (line budget) degrades:
    /// the page is truncated at the budget and the truncation is reported
    /// as a [`Diagnostic`] so callers can surface a *partial* extraction.
    ///
    /// [`Page::try_from_html_fast`] with a fresh scratch; callers that
    /// ingest many pages should hold an [`IngestScratch`] and call that.
    pub fn try_from_html(
        html: &str,
        query: Option<&str>,
        budget: &ResourceBudget,
    ) -> Result<(Page, Vec<Diagnostic>), ExtractError> {
        Page::try_from_html_fast(html, query, budget, &mut IngestScratch::new())
    }

    /// [`try_from_html`](Page::try_from_html) with render truncation
    /// promoted to a hard error — used by the build path, where a wrapper
    /// learned from a truncated sample would be silently wrong.
    pub fn try_from_html_strict(
        html: &str,
        query: Option<&str>,
        budget: &ResourceBudget,
    ) -> Result<Page, ExtractError> {
        let (page, diags) = Page::try_from_html(html, query, budget)?;
        if diags.is_empty() {
            Ok(page)
        } else {
            Err(ExtractError::Render(
                mse_render::RenderError::LineBudgetExceeded {
                    max: budget.max_content_lines,
                },
            ))
        }
    }

    #[inline]
    pub fn n_lines(&self) -> usize {
        self.rp.lines.len()
    }

    /// Tag forest (as owned [`TagTree`]s) for a line range.
    pub fn forest(&self, start: usize, end: usize) -> Vec<TagTree> {
        let nodes = self.rp.forest_of_range(start, end);
        forest_of(&self.rp.dom, &nodes)
    }

    /// The record's visible line texts with Hr/Image placeholders — the
    /// form ground truth and extraction results are compared in.
    pub fn line_texts(&self, start: usize, end: usize) -> Vec<String> {
        self.rp.lines[start..end]
            .iter()
            .map(|l| match l.ltype {
                LineType::Hr => HR_TEXT.to_string(),
                LineType::Image if l.text.is_empty() => IMG_TEXT.to_string(),
                _ => l.text.clone(),
            })
            .collect()
    }
}

/// Remove the dynamic components of a content line (paper §5.2, lines 1–2
/// of Algorithm DSE): all numbers and all query terms, so that
/// "Your search returned 578 matches" matches "Your search returned 89
/// matches" across pages.
pub fn clean_line(text: &str, query: Option<&str>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut buf = String::new();
    clean_line_into(text, query, &mut buf, &mut out);
    out
}

/// [`clean_line`] writing into caller-owned buffers: `buf` is per-token
/// scratch, `out` receives the cleaned line (cleared first). The serving
/// ingest path calls this with pooled strings so steady-state cleaning
/// performs no heap allocation.
pub(crate) fn clean_line_into(text: &str, query: Option<&str>, buf: &mut String, out: &mut String) {
    out.clear();
    for token in text.split_whitespace() {
        // Strip digits from the token; drop it entirely if it was all
        // digits/punctuation around digits.
        buf.clear();
        buf.extend(token.chars().filter(|c| !c.is_ascii_digit()));
        if buf.is_empty() {
            continue;
        }
        // Query-term removal (case-insensitive, word-level). Equivalent to
        // comparing `normalize_word` outputs — both sides are trimmed of
        // non-alphanumerics and compared ASCII-case-insensitively — but
        // without materializing the normalized strings.
        if let Some(q) = query {
            let word = buf.trim_matches(|c: char| !c.is_alphanumeric());
            if !word.is_empty()
                && q.split_whitespace().any(|qt| {
                    qt.trim_matches(|c: char| !c.is_alphanumeric())
                        .eq_ignore_ascii_case(word)
                })
            {
                continue;
            }
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(buf);
    }
}

/// The content-line span covered by a DOM node's leaves, if any. Answered
/// from the render-time [`mse_render::PageSigs`] in O(1) — the span of a
/// node is the min/max line of the viewable leaves at or below it, exactly
/// what the old per-call page scan computed.
pub fn node_line_span(page: &Page, node: mse_dom::NodeId) -> Option<(usize, usize)> {
    page.rp.sigs.span(node)
}

/// `Dinr` with the configured floor applied — the denominator-side use of
/// Formula 5 in the `W × Dinr` tests. Kept here so every caller floors the
/// same way.
pub fn floored(dinr: f64, cfg: &MseConfig) -> f64 {
    dinr.max(cfg.min_dinr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_removes_numbers() {
        assert_eq!(
            clean_line("Your search returned 578 matches.", None),
            "Your search returned matches."
        );
        assert_eq!(clean_line("12/25/2004", None), "//");
        assert_eq!(clean_line("42", None), "");
    }

    #[test]
    fn clean_removes_query_terms() {
        assert_eq!(
            clean_line(
                "Your search for knee injury returned 5 matches.",
                Some("knee injury")
            ),
            "Your search for returned matches."
        );
        // Case-insensitive, punctuation-tolerant.
        assert_eq!(clean_line("Knee, injury!", Some("knee injury")), "");
    }

    #[test]
    fn clean_without_query_keeps_words() {
        assert_eq!(clean_line("knee injury guide", None), "knee injury guide");
    }

    #[test]
    fn page_cleaned_lines_align() {
        let p = Page::from_html(
            "<body><p>Results for cats: 99 found</p><hr><p><img src=x></p></body>",
            Some("cats"),
        );
        assert_eq!(p.cleaned.len(), p.n_lines());
        assert_eq!(p.cleaned[0], "Results for found"); // "cats:" is a query token
        assert_eq!(p.cleaned[1], HR_TEXT);
        assert_eq!(p.cleaned[2], IMG_TEXT);
    }

    #[test]
    fn forest_and_texts() {
        let p = Page::from_html("<body><div><a href=x>t</a><br>s</div></body>", None);
        let f = p.forest(0, 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].root_label(), "div");
        assert_eq!(p.line_texts(0, 2), vec!["t", "s"]);
    }
}
