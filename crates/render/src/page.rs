//! A rendered page: the DOM plus its content-line sequence, and the
//! leaf-cover → tag-forest lifting used to attach tag structure to blocks.

use crate::layout::render_lines;
use crate::line::ContentLine;
use mse_dom::intern::{self, Symbol};
use mse_dom::{Dom, NodeId, NodeKind, ParseLimits, ParseScratch};
use std::collections::HashSet;

/// Precomputed per-node / per-line signatures for the extraction serving
/// path (see DESIGN.md §11).
///
/// Applying a compiled wrapper to a page needs, per DOM node, its interned
/// tag label, its record *start chain* (tag + first-viewable-child chain,
/// depth 3) and the content-line span its leaves cover. All three are
/// derivable from the DOM, but deriving them inside the wrapper-matching
/// loop costs a `String` allocation per child (start chains) and a full
/// page scan per record (line spans). Computing them once at render time
/// makes wrapper application allocation-free integer work.
#[derive(Clone, Debug, Default)]
pub struct PageSigs {
    /// Per node: interned start-chain label — the element's tag, `#text`
    /// for a non-whitespace text node, [`Symbol::NONE`] for anything that
    /// can never start a record (whitespace text, comments, the document
    /// root). `labels[n] != NONE` is exactly the "viewable child" test.
    pub labels: Vec<Symbol>,
    /// Per node: the start chain (depth 3, padded with [`Symbol::NONE`]).
    /// Equal chains ⇔ equal `start_chain` strings.
    pub chains: Vec<[Symbol; 3]>,
    /// Per node: half-open content-line span covered by the node's
    /// viewable leaves (`(u32::MAX, 0)` when it covers none).
    pub spans: Vec<(u32, u32)>,
    /// Per line: the [`LineType`](crate::LineType) code — record shapes
    /// compare against these without materializing a `Vec<u8>` per record.
    pub line_types: Vec<u8>,
}

/// Reusable buffers for building [`PageSigs`] (DESIGN.md §13): internal
/// traversal state plus the signature vectors themselves, which
/// [`SigScratch::recycle`] takes back from a consumed page so steady-state
/// serving re-fills them instead of reallocating.
#[derive(Default)]
pub struct SigScratch {
    first_viewable: Vec<Option<NodeId>>,
    stack: Vec<(NodeId, bool)>,
    labels: Vec<Symbol>,
    chains: Vec<[Symbol; 3]>,
    spans: Vec<(u32, u32)>,
    line_types: Vec<u8>,
}

impl SigScratch {
    pub fn new() -> SigScratch {
        SigScratch::default()
    }

    /// Take back the vectors inside a consumed [`PageSigs`]. Returns the
    /// label table so the caller can hand it to the parse-side scratch
    /// (labels are produced by the serving parser, not by this module).
    pub fn recycle(&mut self, sigs: PageSigs) -> Vec<Symbol> {
        self.chains = sigs.chains;
        self.spans = sigs.spans;
        self.line_types = sigs.line_types;
        sigs.labels
    }
}

impl PageSigs {
    /// The sentinel span of a node covering no content line.
    pub const NO_SPAN: (u32, u32) = (u32::MAX, 0);

    /// Compute all signatures for a rendered page. `O(nodes + lines)`.
    pub fn build(dom: &Dom, lines: &[ContentLine]) -> PageSigs {
        let mut scratch = SigScratch::default();
        let labels = Self::compute_labels(dom, &mut scratch);
        Self::build_with_labels(dom, lines, labels, &mut scratch)
    }

    /// The per-node start-chain label table (see [`PageSigs::labels`]).
    /// The serving parser produces an identical table during tree
    /// construction; this is the from-scratch equivalent.
    fn compute_labels(dom: &Dom, scratch: &mut SigScratch) -> Vec<Symbol> {
        let n = dom.len();
        let text_sym = intern::intern(intern::TEXT_LABEL);
        let mut labels = std::mem::take(&mut scratch.labels);
        labels.clear();
        labels.resize(n, Symbol::NONE);
        // mse:hot begin(sig-labels)
        for (id, label) in labels.iter_mut().enumerate() {
            // mse:allow(index): id < dom.len() by construction
            *label = match &dom[NodeId(id as u32)].kind {
                NodeKind::Element { tag, .. } => intern::intern(tag),
                NodeKind::Text(t) if !t.trim().is_empty() => text_sym,
                _ => Symbol::NONE,
            };
        }
        // mse:hot end(sig-labels)
        labels
    }

    /// [`PageSigs::build`] with a precomputed label table (the serving
    /// parser tracks labels during tree construction) and reusable
    /// buffers. `labels[n]` must follow the exact rule of
    /// [`PageSigs::labels`]; debug builds assert table length.
    pub fn build_with_labels(
        dom: &Dom,
        lines: &[ContentLine],
        labels: Vec<Symbol>,
        scratch: &mut SigScratch,
    ) -> PageSigs {
        let n = dom.len();
        debug_assert_eq!(labels.len(), n);
        // First viewable child per node (the next link of a start chain).
        let first_viewable = &mut scratch.first_viewable;
        first_viewable.clear();
        first_viewable.resize(n, None);
        for (id, slot) in first_viewable.iter_mut().enumerate() {
            *slot = dom
                .children(NodeId(id as u32))
                .find(|&c| labels.get(c.index()).is_some_and(|&l| l != Symbol::NONE));
        }
        let mut chains = std::mem::take(&mut scratch.chains);
        chains.clear();
        chains.resize(n, [Symbol::NONE; 3]);
        // mse:hot begin(sig-chains)
        for (id, chain) in chains.iter_mut().enumerate() {
            let mut cur = Some(NodeId(id as u32));
            for slot in chain.iter_mut() {
                let Some(c) = cur else { break };
                // mse:allow(index): c is a node of this DOM, both tables are len n
                *slot = labels[c.index()];
                // mse:allow(index): c is a node of this DOM, both tables are len n
                cur = first_viewable[c.index()];
            }
        }
        // mse:hot end(sig-chains)
        // Leaf lines, then one post-order pass lifting spans to ancestors.
        let mut spans = std::mem::take(&mut scratch.spans);
        spans.clear();
        spans.resize(n, Self::NO_SPAN);
        // mse:hot begin(sig-span-lift)
        for (idx, line) in lines.iter().enumerate() {
            for &leaf in &line.leaves {
                // mse:allow(index): line leaves are nodes of this DOM, table is len n
                let s = &mut spans[leaf.index()];
                s.0 = s.0.min(idx as u32);
                s.1 = s.1.max(idx as u32 + 1);
            }
        }
        // Iterative post-order: a node pops after all its descendants have
        // merged into it, then merges itself into its parent. (Iterative,
        // not recursive: adversarially deep DOMs must not grow the call
        // stack — the traversal stack lives in the reusable scratch.)
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push((dom.root(), false));
        while let Some((node, processed)) = stack.pop() {
            if processed {
                // mse:allow(index): node/parent are nodes of this DOM
                if let Some(parent) = dom[node].parent {
                    // mse:allow(index): node is a node of this DOM, table is len n
                    let child = spans[node.index()];
                    // mse:allow(index): node/parent are nodes of this DOM
                    let s = &mut spans[parent.index()];
                    s.0 = s.0.min(child.0);
                    s.1 = s.1.max(child.1);
                }
            } else {
                stack.push((node, true));
                for c in dom.children(node) {
                    stack.push((c, false));
                }
            }
        }
        // mse:hot end(sig-span-lift)
        let mut line_types = std::mem::take(&mut scratch.line_types);
        line_types.clear();
        line_types.extend(lines.iter().map(|l| l.ltype.code()));
        PageSigs {
            labels,
            chains,
            spans,
            line_types,
        }
    }

    /// The line span of a node as `Option<(lo, hi)>`.
    #[inline]
    pub fn span(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.spans.get(node.index()) {
            Some(&s) if s != Self::NO_SPAN => Some((s.0 as usize, s.1 as usize)),
            _ => None,
        }
    }
}

/// A parsed and rendered result page.
#[derive(Clone, Debug)]
pub struct RenderedPage {
    pub dom: Dom,
    pub lines: Vec<ContentLine>,
    /// Serving-path signatures (see [`PageSigs`]), computed once here so
    /// extraction never re-derives them per wrapper application.
    pub sigs: PageSigs,
}

impl RenderedPage {
    /// Assemble a page from a DOM and its rendered lines, computing the
    /// serving-path signatures.
    pub fn assemble(dom: Dom, lines: Vec<ContentLine>) -> RenderedPage {
        let sigs = PageSigs::build(&dom, &lines);
        RenderedPage { dom, lines, sigs }
    }

    /// Fused-ingest assembly: signatures are built from the label table the
    /// serving parser tracked during tree construction, with buffers drawn
    /// from `scratch`. Produces a page identical to [`RenderedPage::assemble`].
    pub fn assemble_fused(
        dom: Dom,
        lines: Vec<ContentLine>,
        labels: Vec<Symbol>,
        scratch: &mut SigScratch,
    ) -> RenderedPage {
        let sigs = PageSigs::build_with_labels(&dom, &lines, labels, scratch);
        RenderedPage { dom, lines, sigs }
    }

    /// Parse + render trusted HTML source with no limits (depth still
    /// clamps): the fused front ends ([`mse_dom::parse_serving`],
    /// [`RenderedPage::assemble_fused`]) with fresh scratch.
    pub fn from_html(html: &str) -> RenderedPage {
        let parsed =
            mse_dom::parse_serving(html, &ParseLimits::unbounded(), &mut ParseScratch::new());
        // Unbounded limits never trip; an empty document keeps this total.
        let (dom, labels) = parsed.unwrap_or_else(|_| (Dom::new(), vec![Symbol::NONE]));
        let lines = render_lines(&dom);
        RenderedPage::assemble_fused(dom, lines, labels, &mut SigScratch::new())
    }

    /// All viewable leaves covered by the line range `[start, end)`.
    pub fn leaves_of_range(&self, start: usize, end: usize) -> Vec<NodeId> {
        self.lines[start..end]
            .iter()
            .flat_map(|l| l.leaves.iter().copied())
            .collect()
    }

    /// The tag forest (maximal covered DOM nodes) for the line range
    /// `[start, end)` — the record's "underneath tag structure" (paper §4.1).
    pub fn forest_of_range(&self, start: usize, end: usize) -> Vec<NodeId> {
        cover_forest(&self.dom, &self.leaves_of_range(start, end))
    }
}

/// Is this node a viewable leaf (the units content lines are made of)?
fn is_viewable_leaf(dom: &Dom, n: NodeId) -> bool {
    match &dom[n].kind {
        NodeKind::Text(t) => !t.trim().is_empty(),
        NodeKind::Element { tag, .. } => matches!(
            *tag,
            "img" | "input" | "select" | "textarea" | "button" | "hr"
        ),
        _ => false,
    }
}

/// Given a set of viewable leaves, compute the *cover forest*: the maximal
/// DOM nodes all of whose viewable leaves belong to the set (and that
/// contain at least one). This is how a block of content lines is lifted to
/// the sub-forest the paper manipulates (records are sub-forests of the
/// section's minimum subtree, §4.1).
pub fn cover_forest(dom: &Dom, leaves: &[NodeId]) -> Vec<NodeId> {
    let set: HashSet<NodeId> = leaves.iter().copied().collect();
    if set.is_empty() {
        return vec![];
    }
    let mut out = Vec::new();
    collect_cover(dom, dom.root(), &set, &mut out, 0);
    out
}

/// Recursion guard matching [`crate::layout`]'s: parsed DOMs are
/// depth-clamped, so this only protects against hand-built deep trees.
const MAX_COVER_DEPTH: usize = 1024;

/// Returns (covered, has_leaf): `covered` = every viewable leaf in this
/// subtree is in the set; `has_leaf` = the subtree has at least one
/// viewable leaf. Appends maximal covered nodes to `out` in document order.
fn cover_info(dom: &Dom, n: NodeId, set: &HashSet<NodeId>, depth: usize) -> (bool, bool) {
    if is_viewable_leaf(dom, n) {
        return (set.contains(&n), true);
    }
    if depth > MAX_COVER_DEPTH {
        // Content below the guard is invisible to layout too; treat it as
        // leafless rather than overflowing the stack.
        return (true, false);
    }
    let mut covered = true;
    let mut has_leaf = false;
    for c in dom.children(n) {
        let (cc, cl) = cover_info(dom, c, set, depth + 1);
        covered &= cc || !cl;
        has_leaf |= cl;
    }
    (covered, has_leaf)
}

fn collect_cover(dom: &Dom, n: NodeId, set: &HashSet<NodeId>, out: &mut Vec<NodeId>, depth: usize) {
    if depth > MAX_COVER_DEPTH {
        return;
    }
    // The document scaffolding can never be a forest member — a record is
    // always strictly inside <body>.
    let scaffolding = matches!(&dom[n].kind, NodeKind::Document)
        || matches!(dom[n].tag(), Some("html") | Some("head") | Some("body"));
    if !scaffolding {
        let (covered, has_leaf) = cover_info(dom, n, set, depth);
        if covered && has_leaf {
            out.push(n);
            return;
        }
        if !has_leaf {
            return;
        }
    }
    for c in dom.children(n).collect::<Vec<_>>() {
        collect_cover(dom, c, set, out, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_html_end_to_end() {
        let p = RenderedPage::from_html("<body><p>a</p><p>b</p></body>");
        assert_eq!(p.lines.len(), 2);
    }

    #[test]
    fn cover_forest_lifts_to_containers() {
        let p = RenderedPage::from_html(
            "<body><div><a href=1>t</a><br>snip</div><div>other</div></body>",
        );
        // Lines 0-1 are the first record: its cover forest is the first div.
        let forest = p.forest_of_range(0, 2);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("div"));
        assert_eq!(p.dom.text_of(forest[0]), "tsnip");
    }

    #[test]
    fn cover_forest_partial_container_returns_leaves() {
        let p = RenderedPage::from_html("<body><div>a<br>b<br>c</div></body>");
        // Only the first line: div is NOT fully covered → forest is the text leaf.
        let forest = p.forest_of_range(0, 1);
        assert_eq!(forest.len(), 1);
        assert!(p.dom[forest[0]].is_text());
    }

    #[test]
    fn cover_forest_multiple_siblings() {
        let p = RenderedPage::from_html(
            "<body><ul><li>a</li><li>b</li><li>c</li></ul><p>after</p></body>",
        );
        // Lines of the three <li>: forest = the whole <ul>.
        let forest = p.forest_of_range(0, 3);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("ul"));
        // Lines of the first two <li> only: forest = those two li nodes.
        let forest = p.forest_of_range(0, 2);
        assert_eq!(forest.len(), 2);
        assert!(forest.iter().all(|&n| p.dom[n].tag() == Some("li")));
    }

    #[test]
    fn cover_forest_empty() {
        let p = RenderedPage::from_html("<body><p>x</p></body>");
        assert!(cover_forest(&p.dom, &[]).is_empty());
    }

    #[test]
    fn empty_containers_do_not_block_cover() {
        // An empty <td> between records must not prevent the row from being
        // covered.
        let p = RenderedPage::from_html(
            "<body><table><tr><td>a</td><td></td><td>b</td></tr></table></body>",
        );
        let n = p.lines.len();
        let forest = p.forest_of_range(0, n);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("table"));
    }
}
