//! A rendered page: the DOM plus its content-line sequence, and the
//! leaf-cover → tag-forest lifting used to attach tag structure to blocks.

use crate::layout::render_lines;
use crate::line::ContentLine;
use mse_dom::intern::{self, Symbol};
use mse_dom::{Dom, NodeData, NodeId, NodeKind, ParseLimits, ParseScratch};
use std::sync::OnceLock;

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
    /// Per node: half-open content-line span covered by the line leaves
    /// at or below the node (`(u32::MAX, 0)` when it covers none).
    pub spans: Vec<(u32, u32)>,
    /// Per node: the cover table entry behind
    /// [`RenderedPage::forest_of_range`] — the half-open line hull of the
    /// node's *cover leaves* (the viewable leaves at or below it, not
    /// descending below a viewable element such as `<button>`).
    /// [`PageSigs::NO_SPAN`] when it has no cover leaf; `hi ==`
    /// [`PageSigs::ORPHAN`] when some cover leaf sits on no line (line
    /// budget truncation, content that does not render).
    pub covers: Vec<(u32, u32)>,
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
    stack: Vec<Visit>,
    labels: Vec<Symbol>,
    chains: Vec<[Symbol; 3]>,
    spans: Vec<(u32, u32)>,
    covers: Vec<(u32, u32)>,
    line_types: Vec<u8>,
}

/// One step of the post-order span pass: a node, its depth below the
/// document root, whether its cover entry merges into its parent's, and
/// whether its subtree is done.
#[derive(Clone, Copy)]
struct Visit {
    node: NodeId,
    depth: u32,
    merge_up: bool,
    done: bool,
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
        self.covers = sigs.covers;
        self.line_types = sigs.line_types;
        sigs.labels
    }
}

impl PageSigs {
    /// The sentinel span of a node covering no content line.
    pub const NO_SPAN: (u32, u32) = (u32::MAX, 0);
    /// The `hi` of a [`PageSigs::covers`] entry with an orphan cover leaf.
    /// No line range ends there, so such a node is never inside one.
    pub const ORPHAN: u32 = u32::MAX;

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
        // Leaf lines, then one post-order pass lifting spans to ancestors
        // and building the cover table.
        let mut spans = std::mem::take(&mut scratch.spans);
        spans.clear();
        spans.resize(n, Self::NO_SPAN);
        let mut covers = std::mem::take(&mut scratch.covers);
        covers.clear();
        covers.resize(n, Self::NO_SPAN);
        let leaf_syms = leaf_syms();
        // mse:hot begin(sig-span-lift)
        for (idx, line) in lines.iter().enumerate() {
            for &leaf in &line.leaves {
                widen(&mut spans, leaf, (idx as u32, idx as u32 + 1));
            }
        }
        // Iterative post-order: a node pops after all its descendants have
        // merged into it, then merges itself into its parent. (Iterative,
        // not recursive: adversarially deep DOMs must not grow the call
        // stack — the traversal stack lives in the reusable scratch.)
        //
        // Cover entries (see `forest_of_range`): a viewable leaf's entry
        // is its own line, or an orphan mark, whatever lies below it; any
        // other node merges its children's entries unless it sits deeper
        // than the cover depth guard. When a node is first visited its
        // span holds only its own line, as no child has merged yet.
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(Visit {
            node: dom.root(),
            depth: 0,
            merge_up: false,
            done: false,
        });
        while let Some(v) = stack.pop() {
            let i = v.node.index();
            // mse:allow(index): stack entries are nodes of this DOM
            let data = &dom[v.node];
            if !v.done {
                let label = labels.get(i).copied().unwrap_or(Symbol::NONE);
                let leaf = leaf_syms.is_viewable_leaf(data, label);
                if leaf {
                    let own = spans.get(i).copied().unwrap_or(Self::NO_SPAN);
                    if let Some(c) = covers.get_mut(i) {
                        *c = if own == Self::NO_SPAN {
                            (u32::MAX, Self::ORPHAN)
                        } else {
                            own
                        };
                    }
                }
                if data.first_child.is_some() {
                    stack.push(Visit { done: true, ..v });
                    let merge_up = !leaf && (v.depth as usize) <= MAX_COVER_DEPTH;
                    for c in dom.children(v.node) {
                        stack.push(Visit {
                            node: c,
                            depth: v.depth.saturating_add(1),
                            merge_up,
                            done: false,
                        });
                    }
                    continue;
                }
            }
            // The subtree is done: merge it into the parent.
            if let Some(parent) = data.parent {
                let child = spans.get(i).copied().unwrap_or(Self::NO_SPAN);
                widen(&mut spans, parent, child);
                if v.merge_up {
                    let child = covers.get(i).copied().unwrap_or(Self::NO_SPAN);
                    widen(&mut covers, parent, child);
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
            covers,
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

    /// The tag forest (maximal covered DOM nodes) for the line range
    /// `[start, end)` — the record's "underneath tag structure" (paper §4.1).
    ///
    /// A node is *covered* when it has at least one viewable leaf and
    /// every viewable leaf below it (not descending below a viewable
    /// element) sits on a line in the range; the forest is the maximal
    /// covered nodes strictly inside the document scaffolding, in
    /// document order. Answered from the render-time cover table
    /// ([`PageSigs::covers`]) in time proportional to the nodes on the
    /// paths down to the forest, not to the page. (The table assumes each
    /// leaf sits on at most one line, which [`render_lines`] guarantees.)
    pub fn forest_of_range(&self, start: usize, end: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.forest_of_range_into(start, end, &mut out);
        out
    }

    /// [`forest_of_range`](RenderedPage::forest_of_range) into a caller
    /// buffer (cleared first); allocates only to grow `out`.
    pub fn forest_of_range_into(&self, start: usize, end: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let end = end.min(self.lines.len());
        if start < end {
            cover_walk(&self.dom, &self.sigs, self.dom.root(), 0, (start, end), out);
        }
    }
}

/// Recursion guard for the cover walk, matching [`crate::layout`]'s:
/// parsed DOMs are depth-clamped, so this only matters for hand-built
/// deep trees. Nodes deeper than this are never forest members, and
/// below it only viewable leaves count as cover leaves.
const MAX_COVER_DEPTH: usize = 1024;

/// The labels [`PageSigs::labels`] gives viewable leaves — the units
/// content lines are made of: non-whitespace text, and the
/// `img`/`input`/`select`/`textarea`/`button`/`hr` elements.
struct LeafSyms {
    text: Symbol,
    elements: [Symbol; 6],
    /// Bit `s` set for each element symbol `s < 64`: the pre-seeded
    /// interner gives these tags small ids, so the test is one shift.
    mask: u64,
}

impl LeafSyms {
    /// Is the node `data`, whose start-chain label is `label`, a
    /// viewable leaf? (An element literally named `#text` shares the text
    /// label, so that label also checks the node kind.)
    #[inline]
    fn is_viewable_leaf(&self, data: &NodeData, label: Symbol) -> bool {
        if label == self.text {
            data.is_text()
        } else if label.0 < 64 {
            self.mask >> label.0 & 1 == 1
        } else {
            self.elements.contains(&label)
        }
    }
}

fn leaf_syms() -> &'static LeafSyms {
    static SYMS: OnceLock<LeafSyms> = OnceLock::new();
    SYMS.get_or_init(|| {
        let elements = ["img", "input", "select", "textarea", "button", "hr"].map(intern::intern);
        let mask = elements
            .iter()
            .filter(|s| s.0 < 64)
            .fold(0u64, |m, s| m | 1 << s.0);
        LeafSyms {
            text: intern::intern(intern::TEXT_LABEL),
            elements,
            mask,
        }
    })
}

/// Widen the half-open span at `node` to include `by`.
#[inline]
fn widen(table: &mut [(u32, u32)], node: NodeId, by: (u32, u32)) {
    if let Some(s) = table.get_mut(node.index()) {
        s.0 = s.0.min(by.0);
        s.1 = s.1.max(by.1);
    }
}

/// Push the maximal covered nodes at or below `n` (at `depth` below the
/// root) for the line range `[lo, hi)`. A subtree none of whose line
/// leaves falls in the range holds no covered node and is skipped whole.
fn cover_walk(
    dom: &Dom,
    sigs: &PageSigs,
    n: NodeId,
    depth: usize,
    (lo, hi): (usize, usize),
    out: &mut Vec<NodeId>,
) {
    if depth > MAX_COVER_DEPTH {
        return;
    }
    let i = n.index();
    match sigs.spans.get(i) {
        Some(&(a, b)) if (a as usize) < hi && (b as usize) > lo => {}
        _ => return,
    }
    // The document scaffolding can never be a forest member — a record is
    // always strictly inside <body>.
    let scaffolding = matches!(&dom[n].kind, NodeKind::Document)
        || matches!(dom[n].tag(), Some("html") | Some("head") | Some("body"));
    if !scaffolding {
        let cover = sigs.covers.get(i).copied().unwrap_or(PageSigs::NO_SPAN);
        if cover == PageSigs::NO_SPAN {
            return; // no viewable leaf below
        }
        if cover.0 as usize >= lo && cover.1 as usize <= hi {
            out.push(n);
            return;
        }
    }
    for c in dom.children(n) {
        cover_walk(dom, sigs, c, depth + 1, (lo, hi), out);
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
        assert!(p.forest_of_range(0, 0).is_empty());
        assert!(p.forest_of_range(1, 1).is_empty());
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
