//! Pragmatic tag-soup tree builder.
//!
//! Mirrors the parts of browser parsing that matter for the paper's tag
//! paths (its Figure 2 and §4.1 example): implied `<html>/<head>/<body>`,
//! implied `<tbody>` under `<table>` (the paper's example path contains
//! `{TABLE}C{TBODY}` even though 2006 HTML rarely wrote `<tbody>`),
//! auto-closing of `p`/`li`/`dt`/`dd`/`tr`/`td`/`th`/`option`, void
//! elements, and recovery from unmatched end tags.
//!
//! One [`Builder`] serves two front ends:
//!
//! * [`parse`] / [`parse_with_limits`] — the reference parser: the owned
//!   [`Token`] stream from [`tokenize`], comments materialized as nodes.
//!   No production path runs it; differential tests and the `serve` bench
//!   hold the serving parse to it.
//! * [`parse_serving`] — the zero-copy parse every production path runs
//!   (wrapper build, one-shot and batch extraction, the daemon): the
//!   streaming [`Lexer`], node/label/stack buffers recycled through a
//!   [`ParseScratch`], comment nodes *skipped* (they are invisible to
//!   layout, tag paths count only element siblings, and tag forests drop
//!   them), and per-node start-chain labels computed inline so the
//!   signature pass downstream does not re-derive them.
//!
//! Skipping comments must not change anything observable, so the builder
//! (a) blocks text-node merging exactly where the reference comment node
//! would sit between two text runs ([`Builder::merge_block`]) and
//! (b) counts skipped nodes toward the node budget so
//! [`ParseLimits::max_nodes`] trips at identical points on both paths.

use crate::error::{DomError, ParseLimits};
use crate::intern::{self, Symbol};
use crate::node::{Attr, Dom, NodeData, NodeId, NodeKind};
use crate::tokenizer::{tokenize, Event, Lexer, Token};
use std::borrow::Cow;

/// Elements that never have children.
pub fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "br" | "hr"
            | "img"
            | "input"
            | "meta"
            | "link"
            | "base"
            | "area"
            | "col"
            | "param"
            | "embed"
            | "wbr"
            | "spacer"
    )
}

/// Elements that belong in `<head>`.
fn is_head_only(tag: &str) -> bool {
    matches!(tag, "title" | "meta" | "link" | "base")
}

/// Tags that an incoming start tag implicitly closes (popped from the open
/// stack before insertion). The pop stops at the first non-member, so nested
/// tables are safe: an inner `<tr>` never closes an outer `<td>`.
fn closes(incoming: &str) -> &'static [&'static str] {
    match incoming {
        "p" => &["p"],
        "li" => &["li", "p"],
        "dt" | "dd" => &["dt", "dd", "p"],
        "tr" => &["tr", "td", "th"],
        "td" | "th" => &["td", "th"],
        "option" => &["option"],
        "optgroup" => &["option", "optgroup"],
        "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => &["p"],
        "table" | "div" | "ul" | "ol" | "dl" | "blockquote" | "pre" | "form" => &["p"],
        "thead" | "tbody" | "tfoot" => &["tr", "td", "th", "thead", "tbody", "tfoot"],
        _ => &[],
    }
}

/// Parse an HTML document into a [`Dom`].
///
/// Total on arbitrary input: never panics, and nesting depth is clamped at
/// [`crate::error::DEFAULT_MAX_DEPTH`] so every downstream tree traversal
/// is stack-safe. Byte/node budgets are only enforced by
/// [`parse_with_limits`].
pub fn parse(input: &str) -> Dom {
    // Unbounded limits cannot produce a hard error; the fallback is the
    // bare scaffolding and exists only to keep this entry point total.
    parse_with_limits(input, &ParseLimits::unbounded())
        .unwrap_or_else(|_| Builder::new(ParseLimits::unbounded().max_depth).finish())
}

/// [`parse`] under explicit [`ParseLimits`]: rejects oversized input and
/// node-budget blowouts with a typed [`DomError`]; clamps nesting at
/// `limits.max_depth` (flattening, like browsers, rather than failing).
pub fn parse_with_limits(input: &str, limits: &ParseLimits) -> Result<Dom, DomError> {
    if input.len() > limits.max_input_bytes {
        return Err(DomError::InputTooLarge {
            len: input.len(),
            max: limits.max_input_bytes,
        });
    }
    let tokens = tokenize(input);
    let mut b = Builder::new(limits.max_depth);
    for tok in tokens {
        match tok {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                let (sym, tag) = intern::intern_pair(&name);
                b.start_tag(tag, sym, attrs, self_closing);
            }
            Token::EndTag { name } => b.end_tag(&name),
            Token::Text(t) => b.text(Cow::Owned(t)),
            Token::Comment(c) => b.comment(c),
            Token::Doctype(_) => {}
        }
        if b.node_count() > limits.max_nodes {
            return Err(DomError::TooManyNodes {
                max: limits.max_nodes,
            });
        }
    }
    // `finish` materializes any implied html/head/body scaffolding, so the
    // budget must hold on the final arena too.
    let dom = b.finish();
    if dom.len() > limits.max_nodes {
        return Err(DomError::TooManyNodes {
            max: limits.max_nodes,
        });
    }
    Ok(dom)
}

/// Clear-don't-drop scratch buffers for [`parse_serving`] (the parse-side
/// sibling of `mse-core`'s `ExtractScratch`).
///
/// Holds the node arena, the label table and the open-element stack of the
/// *previous* page so the next parse reuses their capacity instead of
/// growing fresh vectors. Thread one instance through each batch worker;
/// after the page's extraction is done, feed its `Dom` and labels back via
/// [`ParseScratch::recycle`].
#[derive(Default)]
pub struct ParseScratch {
    nodes: Vec<NodeData>,
    labels: Vec<Symbol>,
    stack: Vec<NodeId>,
    /// Recycled per-element attribute vectors. Stale `Attr` entries are
    /// kept on purpose: the lexer overwrites their name/value strings in
    /// place, so their heap capacity is what makes the next parse cheap.
    attrs: Vec<Vec<Attr>>,
    /// Recycled text-node strings, refilled in place by the builder.
    texts: Vec<String>,
}

/// Upper bound on pooled attr vectors / text strings, so one giant page
/// cannot pin its whole DOM's string storage in the scratch forever.
const POOL_CAP: usize = 4096;

impl ParseScratch {
    pub fn new() -> ParseScratch {
        ParseScratch::default()
    }

    /// Reclaim the storage of a finished page's DOM (and its label table)
    /// for the next parse: the node arena keeps its capacity, and each
    /// node's attribute vector / text string is harvested into the attr
    /// and text pools instead of being dropped.
    pub fn recycle(&mut self, dom: Dom, labels: Vec<Symbol>) {
        let mut nodes = dom.take_storage();
        for nd in nodes.drain(..) {
            match nd.kind {
                NodeKind::Element { attrs, .. }
                    if attrs.capacity() > 0 && self.attrs.len() < POOL_CAP =>
                {
                    self.attrs.push(attrs);
                }
                NodeKind::Text(s) if s.capacity() > 0 && self.texts.len() < POOL_CAP => {
                    self.texts.push(s);
                }
                _ => {}
            }
        }
        self.nodes = nodes;
        self.labels = labels;
    }

    /// Capacity of the recycled node arena (steady-state reuse probe).
    pub fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Number of pooled attribute vectors (steady-state reuse probe).
    pub fn attr_pool_len(&self) -> usize {
        self.attrs.len()
    }

    /// Number of pooled text strings (steady-state reuse probe).
    pub fn text_pool_len(&self) -> usize {
        self.texts.len()
    }
}

/// Zero-copy serving parse: [`Lexer`] events straight into the tree
/// builder, buffers recycled through `scratch`, comments skipped, and the
/// per-node start-chain labels (the same values `PageSigs` computes:
/// element tag symbol, `#text` for non-whitespace text, `NONE` otherwise)
/// returned alongside the DOM.
///
/// Produces a DOM identical to [`parse_with_limits`]'s except that comment
/// nodes are absent — a difference invisible to layout, tag paths and tag
/// forests, and therefore to extraction (`tests/parse_differential.rs`
/// holds the two paths to byte-identical extractions).
pub fn parse_serving(
    input: &str,
    limits: &ParseLimits,
    scratch: &mut ParseScratch,
) -> Result<(Dom, Vec<Symbol>), DomError> {
    if input.len() > limits.max_input_bytes {
        return Err(DomError::InputTooLarge {
            len: input.len(),
            max: limits.max_input_bytes,
        });
    }
    let mut b = Builder::serving(limits.max_depth, scratch);
    let mut lx = Lexer::new(input);
    lx.set_attr_pool(std::mem::take(&mut scratch.attrs));
    let mut buf = [0u8; intern::TAG_BUF];
    let mut over_budget = false;
    while let Some(ev) = lx.next_event() {
        match ev {
            Event::Start {
                name,
                attrs,
                self_closing,
            } => {
                let (sym, tag) = intern::intern_tag_lower(name);
                b.start_tag(tag, sym, attrs, self_closing);
            }
            Event::End { name } => match intern::lower_inline(name, &mut buf) {
                Some(lower) => b.end_tag(lower),
                // Oversized names: cold heap fallback, same as the interner's.
                None => b.end_tag(&name.to_ascii_lowercase()),
            },
            Event::Text(raw) => b.text_raw(raw),
            Event::Comment(_) => b.skip_comment(),
            Event::Doctype(_) => {}
        }
        if b.node_count() > limits.max_nodes {
            // Break (not return) so the pools below survive the error path.
            over_budget = true;
            break;
        }
    }
    // Unconsumed pool entries go back to the scratch even on failure.
    scratch.attrs = lx.take_attr_pool();
    let (dom, labels, stack, texts, skipped) = b.finish_serving();
    scratch.stack = stack;
    scratch.texts = texts;
    if over_budget || dom.len() + skipped > limits.max_nodes {
        // The storage of this failed page is dropped; the scratch simply
        // regrows on the next one. Budget trips are the rare path.
        return Err(DomError::TooManyNodes {
            max: limits.max_nodes,
        });
    }
    Ok((dom, labels))
}

struct Builder {
    dom: Dom,
    /// Open-element stack; `stack[0]` is the document root.
    stack: Vec<NodeId>,
    /// Open-stack depth cap: elements opened at the cap are appended to the
    /// tree but not pushed, so their children flatten onto the capped level.
    max_depth: usize,
    html: Option<NodeId>,
    head: Option<NodeId>,
    body: Option<NodeId>,
    /// Serving mode: maintain `labels` in lockstep with the arena.
    track_labels: bool,
    /// Per-node start-chain labels (see `PageSigs::labels`); only filled
    /// when `track_labels`.
    labels: Vec<Symbol>,
    text_sym: Symbol,
    /// Parent under which a comment was just skipped: text-node merging is
    /// blocked there, exactly where the legacy comment node would sit
    /// between two text runs. Cleared by the next append anywhere (the
    /// legacy adjacency is then broken by a real node again).
    merge_block: Option<NodeId>,
    /// Comment nodes the legacy path would have materialized; counted into
    /// [`Builder::node_count`] so budgets trip at identical points.
    skipped_nodes: usize,
    /// Recycled text-node strings ([`ParseScratch::texts`]); popped and
    /// refilled in place when a borrowed text run needs owning.
    text_pool: Vec<String>,
}

impl Builder {
    fn new(max_depth: usize) -> Self {
        Builder::assemble(
            Dom::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            false,
            max_depth,
        )
    }

    /// A serving-mode builder on recycled scratch storage.
    fn serving(max_depth: usize, scratch: &mut ParseScratch) -> Self {
        let dom = Dom::with_storage(std::mem::take(&mut scratch.nodes));
        let mut labels = std::mem::take(&mut scratch.labels);
        labels.clear();
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        let texts = std::mem::take(&mut scratch.texts);
        Builder::assemble(dom, labels, stack, texts, true, max_depth)
    }

    fn assemble(
        dom: Dom,
        mut labels: Vec<Symbol>,
        mut stack: Vec<NodeId>,
        text_pool: Vec<String>,
        track_labels: bool,
        max_depth: usize,
    ) -> Self {
        let root = dom.root();
        stack.push(root);
        let text_sym = if track_labels {
            intern::intern(intern::TEXT_LABEL)
        } else {
            Symbol::NONE
        };
        if track_labels {
            labels.push(Symbol::NONE); // the document root
        }
        Builder {
            dom,
            stack,
            // Room for root/html/body plus at least one content level.
            max_depth: max_depth.max(4),
            html: None,
            head: None,
            body: None,
            track_labels,
            labels,
            text_sym,
            merge_block: None,
            skipped_nodes: 0,
            text_pool,
        }
    }

    /// Nodes this parse accounts for: the arena plus skipped comments.
    fn node_count(&self) -> usize {
        self.dom.len() + self.skipped_nodes
    }

    /// Allocate + append an element, maintaining labels and merge blocking.
    fn new_element(
        &mut self,
        parent: NodeId,
        tag: &'static str,
        sym: Symbol,
        attrs: Vec<Attr>,
    ) -> NodeId {
        let el = self.dom.alloc(NodeKind::Element { tag, attrs });
        if self.track_labels {
            self.labels.push(sym);
        }
        self.merge_block = None;
        self.dom.append(parent, el);
        el
    }

    fn top_tag(&self) -> Option<&str> {
        let &top = self.stack.last()?;
        self.dom[top].tag()
    }

    fn ensure_html(&mut self) -> NodeId {
        if let Some(h) = self.html {
            return h;
        }
        let (sym, tag) = intern::intern_pair("html");
        let root = self.dom.root();
        let h = self.new_element(root, tag, sym, vec![]);
        self.html = Some(h);
        h
    }

    fn ensure_head(&mut self) -> NodeId {
        if let Some(h) = self.head {
            return h;
        }
        let html = self.ensure_html();
        let (sym, tag) = intern::intern_pair("head");
        let h = self.new_element(html, tag, sym, vec![]);
        self.head = Some(h);
        h
    }

    fn ensure_body(&mut self) -> NodeId {
        if let Some(b) = self.body {
            return b;
        }
        // <head> must precede <body> so that paths look like the paper's
        // "{HTML}C{HEAD}S{BODY}".
        self.ensure_head();
        let html = self.ensure_html();
        let (sym, tag) = intern::intern_pair("body");
        let b = self.new_element(html, tag, sym, vec![]);
        self.body = Some(b);
        // Content insertion happens inside <body> from now on. Clear +
        // extend (not a fresh vec) so recycled stack capacity survives.
        let root = self.dom.root();
        self.stack.clear();
        self.stack.extend([root, html, b]);
        b
    }

    /// True while we have not yet opened `<body>` content.
    fn in_document_top(&self) -> bool {
        self.body.is_none()
    }

    fn insertion_parent(&mut self) -> NodeId {
        // The stack is never empty (`stack[0]` is the root and `end_tag`
        // never pops below its floor), but the invariant is enforced here
        // by recovery rather than assumed: anything short of an open
        // element below the root re-anchors insertion at <body>.
        if self.stack.len() > 1 {
            if let Some(&top) = self.stack.last() {
                return top;
            }
        }
        self.ensure_body()
    }

    fn start_tag(&mut self, tag: &'static str, sym: Symbol, attrs: Vec<Attr>, self_closing: bool) {
        match tag {
            "html" => {
                if self.html.is_none() {
                    let root = self.dom.root();
                    let h = self.new_element(root, tag, sym, attrs);
                    self.html = Some(h);
                }
                return;
            }
            "head" => {
                self.ensure_head();
                return;
            }
            "body" => {
                if self.body.is_none() {
                    self.ensure_head();
                    let html = self.ensure_html();
                    let b = self.new_element(html, tag, sym, attrs);
                    self.body = Some(b);
                    let root = self.dom.root();
                    self.stack.clear();
                    self.stack.extend([root, html, b]);
                }
                return;
            }
            _ => {}
        }

        if self.in_document_top() && is_head_only(tag) {
            let head = self.ensure_head();
            self.new_element(head, tag, sym, attrs);
            return;
        }
        if self.in_document_top() && matches!(tag, "script" | "style") {
            // Head-position script/style: attach under head, content was
            // already dropped by the tokenizer.
            let head = self.ensure_head();
            self.new_element(head, tag, sym, attrs);
            return;
        }

        self.ensure_body();

        // Implicit closes.
        let close_set = closes(tag);
        while let Some(top) = self.top_tag() {
            if close_set.contains(&top) {
                self.stack.pop();
            } else {
                break;
            }
        }

        // Table fix-ups mirroring browser DOMs.
        if tag == "tr" {
            if self.top_tag() == Some("table") {
                self.push_implied("tbody");
            }
        } else if matches!(tag, "td" | "th") {
            if self.top_tag() == Some("table") {
                self.push_implied("tbody");
            }
            if matches!(
                self.top_tag(),
                Some("tbody") | Some("thead") | Some("tfoot")
            ) {
                self.push_implied("tr");
            }
        } else if matches!(tag, "thead" | "tbody" | "tfoot") {
            // fine as-is
        }

        let parent = self.insertion_parent();
        let el = self.new_element(parent, tag, sym, attrs);
        if !is_void(tag) && !self_closing && self.stack.len() < self.max_depth {
            self.stack.push(el);
        }
    }

    /// Open an implied element (`tbody`/`tr` table fix-ups).
    fn push_implied(&mut self, tag: &'static str) {
        let (sym, tag) = intern::intern_pair(tag);
        let parent = self.insertion_parent();
        let el = self.new_element(parent, tag, sym, vec![]);
        if self.stack.len() < self.max_depth {
            self.stack.push(el);
        }
    }

    fn end_tag(&mut self, name: &str) {
        if is_void(name) {
            return;
        }
        if matches!(name, "html" | "body" | "head") {
            return; // handled implicitly at finish
        }
        // Find the nearest matching open element (never pop the first three
        // stack slots: root/html/body).
        let floor = if self.body.is_some() { 3 } else { 1 };
        let pos = self.stack[floor.min(self.stack.len())..]
            .iter()
            .rposition(|&id| self.dom[id].tag() == Some(name));
        if let Some(rel) = pos {
            let abs = floor.min(self.stack.len()) + rel;
            self.stack.truncate(abs);
        }
        // Unmatched end tag: ignored (browser recovery).
    }

    fn text(&mut self, t: Cow<'_, str>) {
        if self.in_document_top() && t.trim().is_empty() {
            return; // inter-element whitespace before <body>
        }
        self.ensure_body();
        let parent = self.insertion_parent();
        // Merge adjacent text nodes so that one visual run is one leaf —
        // unless a skipped comment sits between them (`merge_block`), where
        // the legacy path would have two separate leaves.
        if self.merge_block != Some(parent) {
            if let Some(last) = self.dom[parent].last_child {
                let nodes = crate::node::dom_nodes_mut(&mut self.dom);
                if let NodeKind::Text(prev) = &mut nodes[last.index()].kind {
                    prev.push_str(&t);
                    // Merging can flip a whitespace-only run to viewable.
                    let non_ws = !prev.trim().is_empty();
                    if self.track_labels {
                        self.labels[last.index()] =
                            if non_ws { self.text_sym } else { Symbol::NONE };
                    }
                    return;
                }
            }
        }
        let non_ws = !t.trim().is_empty();
        let owned = match t {
            Cow::Owned(s) => s,
            Cow::Borrowed(s) => match self.text_pool.pop() {
                Some(mut buf) => {
                    buf.clear();
                    buf.push_str(s);
                    buf
                }
                None => s.to_string(),
            },
        };
        let node = self.dom.alloc(NodeKind::Text(owned));
        if self.track_labels {
            self.labels
                .push(if non_ws { self.text_sym } else { Symbol::NONE });
        }
        self.merge_block = None;
        self.dom.append(parent, node);
    }

    /// Serving-mode text: decode entity references from the raw slice
    /// straight into the merge target or a pooled string slot, skipping
    /// [`Builder::text`]'s intermediate owned string. Output is identical
    /// to `self.text(decode_entities_cow(raw))`.
    fn text_raw(&mut self, raw: &str) {
        if self.in_document_top() {
            // Cold path: the pre-<body> whitespace check needs the decoded
            // text (e.g. `&nbsp;` decodes to non-whitespace U+00A0... which
            // `trim` does strip — but `&#65;` does not).
            return self.text(crate::entity::decode_entities_cow(raw));
        }
        let parent = self.insertion_parent();
        if self.merge_block != Some(parent) {
            if let Some(last) = self.dom[parent].last_child {
                let nodes = crate::node::dom_nodes_mut(&mut self.dom);
                if let NodeKind::Text(prev) = &mut nodes[last.index()].kind {
                    crate::entity::decode_entities_into(raw, prev);
                    let non_ws = !prev.trim().is_empty();
                    if self.track_labels {
                        self.labels[last.index()] =
                            if non_ws { self.text_sym } else { Symbol::NONE };
                    }
                    return;
                }
            }
        }
        let mut buf = self.text_pool.pop().unwrap_or_default();
        buf.clear();
        crate::entity::decode_entities_into(raw, &mut buf);
        let non_ws = !buf.trim().is_empty();
        let node = self.dom.alloc(NodeKind::Text(buf));
        if self.track_labels {
            self.labels
                .push(if non_ws { self.text_sym } else { Symbol::NONE });
        }
        self.merge_block = None;
        self.dom.append(parent, node);
    }

    fn comment(&mut self, c: String) {
        if self.in_document_top() {
            return; // comments before <body> carry no layout information
        }
        let parent = self.insertion_parent();
        let node = self.dom.alloc(NodeKind::Comment(c));
        if self.track_labels {
            self.labels.push(Symbol::NONE);
        }
        self.merge_block = None;
        self.dom.append(parent, node);
    }

    /// Serving-mode comment: account for the node the legacy path would
    /// create, and block text merging across the gap it leaves.
    fn skip_comment(&mut self) {
        if self.in_document_top() {
            return; // dropped on both paths
        }
        let parent = self.insertion_parent();
        self.skipped_nodes += 1;
        self.merge_block = Some(parent);
    }

    fn finish(mut self) -> Dom {
        self.ensure_body();
        self.dom
    }

    /// Serving-mode finish: the DOM, its label table, the stack and text
    /// pool storage (handed back to the scratch) and the skipped-node
    /// count for the final budget check.
    fn finish_serving(mut self) -> (Dom, Vec<Symbol>, Vec<NodeId>, Vec<String>, usize) {
        self.ensure_body();
        debug_assert_eq!(self.labels.len(), self.dom.len());
        self.stack.clear();
        (
            self.dom,
            self.labels,
            self.stack,
            self.text_pool,
            self.skipped_nodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags_under(dom: &Dom, id: NodeId) -> Vec<String> {
        dom.children(id)
            .filter_map(|c| dom[c].tag().map(str::to_string))
            .collect()
    }

    fn body(dom: &Dom) -> NodeId {
        dom.find_tag("body").unwrap()
    }

    #[test]
    fn implied_html_head_body() {
        let dom = parse("hello");
        let html = dom.find_tag("html").unwrap();
        assert_eq!(tags_under(&dom, html), vec!["head", "body"]);
        assert_eq!(dom.text_of(body(&dom)), "hello");
    }

    #[test]
    fn head_elements_go_to_head() {
        let dom = parse("<title>T</title><p>x</p>");
        let head = dom.find_tag("head").unwrap();
        assert_eq!(tags_under(&dom, head), vec!["title"]);
        assert_eq!(tags_under(&dom, body(&dom)), vec!["p"]);
    }

    #[test]
    fn p_auto_closes() {
        let dom = parse("<body><p>a<p>b</body>");
        assert_eq!(tags_under(&dom, body(&dom)), vec!["p", "p"]);
    }

    #[test]
    fn li_auto_closes() {
        let dom = parse("<ul><li>a<li>b<li>c</ul>");
        let ul = dom.find_tag("ul").unwrap();
        assert_eq!(tags_under(&dom, ul), vec!["li", "li", "li"]);
    }

    #[test]
    fn implied_tbody_and_tr() {
        let dom = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        let table = dom.find_tag("table").unwrap();
        assert_eq!(tags_under(&dom, table), vec!["tbody"]);
        let tbody = dom.find_tag("tbody").unwrap();
        assert_eq!(tags_under(&dom, tbody), vec!["tr", "tr"]);
        let first_tr = dom.children(tbody).next().unwrap();
        assert_eq!(tags_under(&dom, first_tr), vec!["td", "td"]);
    }

    #[test]
    fn nested_tables_do_not_cross_close() {
        let dom = parse(
            "<table><tr><td><table><tr><td>inner</td></tr></table></td><td>outer</td></tr></table>",
        );
        let outer = dom.find_tag("table").unwrap();
        let outer_tbody = dom.children(outer).next().unwrap();
        let outer_tr = dom.children(outer_tbody).next().unwrap();
        let tds: Vec<_> = dom.children(outer_tr).collect();
        assert_eq!(tds.len(), 2);
        assert_eq!(dom.text_of(tds[0]), "inner");
        assert_eq!(dom.text_of(tds[1]), "outer");
    }

    #[test]
    fn unmatched_end_tags_ignored() {
        let dom = parse("<body></div><p>x</p></span></body>");
        assert_eq!(tags_under(&dom, body(&dom)), vec!["p"]);
        assert_eq!(dom.text_of(body(&dom)), "x");
    }

    #[test]
    fn void_elements_have_no_children() {
        let dom = parse("<body>a<br>b<hr>c</body>");
        let b = body(&dom);
        let kinds: Vec<_> = dom
            .children(b)
            .map(|c| match &dom[c].kind {
                NodeKind::Element { tag, .. } => tag.to_string(),
                NodeKind::Text(t) => format!("#{t}"),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(kinds, vec!["#a", "br", "#b", "hr", "#c"]);
    }

    #[test]
    fn adjacent_text_merged() {
        // The tokenizer merges "1 < 2" style splits; the builder merges
        // nodes split by dropped markup (comments are kept, so use a stray).
        let dom = parse("<p>a&amp;b</p>");
        let p = dom.find_tag("p").unwrap();
        let kids: Vec<_> = dom.children(p).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(dom.text_of(p), "a&b");
    }

    #[test]
    fn font_and_inline_preserved() {
        let dom = parse("<p><font color=\"red\" size=\"2\"><b>hot</b></font></p>");
        let font = dom.find_tag("font").unwrap();
        assert_eq!(dom[font].attr("color"), Some("red"));
        let b = dom.find_tag("b").unwrap();
        assert_eq!(dom.text_of(b), "hot");
    }

    #[test]
    fn stray_document_end_tags_before_content() {
        // Regression: a page starting with </html></body> must not disturb
        // the open-element stack (it used to rely on the stack being
        // non-empty below the floor).
        let dom = parse("</html></body><p>x</p>");
        assert_eq!(tags_under(&dom, body(&dom)), vec!["p"]);
        assert_eq!(dom.text_of(body(&dom)), "x");
        // Stray close of scaffolding amid content is equally harmless.
        let dom = parse("<div>a</body></html><p>b</p></div>");
        assert_eq!(dom.text_of(body(&dom)), "ab");
    }

    #[test]
    fn nesting_depth_clamped() {
        let depth = 100_000;
        let mut html = String::with_capacity(depth * 5 + 16);
        for _ in 0..depth {
            html.push_str("<div>");
        }
        html.push('x');
        let dom = parse(&html);
        // All opened elements exist, but tree depth is capped.
        let max_depth = dom
            .preorder(dom.root())
            .map(|n| dom.depth(n))
            .max()
            .unwrap();
        assert!(max_depth <= crate::error::DEFAULT_MAX_DEPTH, "{max_depth}");
        assert_eq!(dom.text_of(dom.root()), "x");
    }

    #[test]
    fn limits_reject_oversized_input() {
        let limits = ParseLimits {
            max_input_bytes: 10,
            ..ParseLimits::default()
        };
        assert!(matches!(
            parse_with_limits("<p>0123456789</p>", &limits),
            Err(DomError::InputTooLarge { len: 17, max: 10 })
        ));
        assert!(parse_with_limits("<p>ok</p>", &limits).is_ok());
    }

    #[test]
    fn limits_reject_node_blowout() {
        let limits = ParseLimits {
            max_nodes: 50,
            ..ParseLimits::default()
        };
        let html = "<p>x</p>".repeat(100);
        assert!(matches!(
            parse_with_limits(&html, &limits),
            Err(DomError::TooManyNodes { max: 50 })
        ));
    }

    #[test]
    fn real_world_serp_snippet() {
        let dom = parse(concat!(
            "<html><head><title>Results</title></head><body>",
            "<table width=100%><tr><td><a href=\"/r1\">Result one</a><br>",
            "snippet one</td></tr><tr><td><a href=\"/r2\">Result two</a><br>",
            "snippet two</td></tr></table></body></html>"
        ));
        let tbody = dom.find_tag("tbody").unwrap();
        assert_eq!(dom.children(tbody).count(), 2);
        assert!(dom.text_of(dom.root()).contains("snippet two"));
    }

    // ---- serving-path (zero-copy + scratch) tests ----

    /// Flatten a DOM to comparable preorder descriptors, dropping comment
    /// nodes (the one deliberate serving-path difference).
    fn flat_sans_comments(dom: &Dom) -> Vec<String> {
        dom.preorder(dom.root())
            .filter_map(|n| match &dom[n].kind {
                NodeKind::Document => Some("#doc".to_string()),
                NodeKind::Element { tag, attrs } => Some(format!("<{tag} {attrs:?}>")),
                NodeKind::Text(t) => Some(format!("#{t}")),
                NodeKind::Comment(_) => None,
            })
            .collect()
    }

    const SERVING_CASES: &[&str] = &[
        "hello",
        "<title>T</title><p>x</p>",
        "<body><p>a<p>b</body>",
        "<table><tr><td>a<td>b<tr><td>c</table>",
        "<body>a<br>b<hr>c</body>",
        "<p>a&amp;b</p>",
        "<p>a<!-- c -->b</p>",
        "<p>a<!--c1--><!--c2-->b</p>",
        "<p>a<!--c-->b< x</p>",
        "<div>a<!--c--><b>x</b>more</div>",
        "<!-- before body --><p>x</p>",
        "<UL><LI>A<LI>B</UL>",
        "<p><font color=\"red\" size=\"2\"><b>hot</b></font></p>",
        "</html></body><p>x</p>",
        "<script>var a = '<td>';</script><p>after</p>",
        "1 < 2 and 3 > 2",
        "<p>&#65;&bogus;&amp;</p>",
        "",
        "   \n\t  ",
    ];

    #[test]
    fn serving_parse_matches_legacy_modulo_comments() {
        let mut scratch = ParseScratch::new();
        for html in SERVING_CASES {
            let legacy = parse(html);
            let (dom, labels) = parse_serving(html, &ParseLimits::unbounded(), &mut scratch)
                .expect("unbounded serving parse cannot fail");
            assert_eq!(
                flat_sans_comments(&dom),
                flat_sans_comments(&legacy),
                "tree mismatch on {html:?}"
            );
            assert_eq!(labels.len(), dom.len(), "label table length on {html:?}");
            // Labels must be exactly the PageSigs rule.
            let text_sym = intern::intern(intern::TEXT_LABEL);
            for (i, &label) in labels.iter().enumerate() {
                let expect = match &dom[NodeId(i as u32)].kind {
                    NodeKind::Element { tag, .. } => intern::intern(tag),
                    NodeKind::Text(t) if !t.trim().is_empty() => text_sym,
                    _ => Symbol::NONE,
                };
                assert_eq!(label, expect, "label of node {i} on {html:?}");
            }
            scratch.recycle(dom, labels);
        }
    }

    #[test]
    fn serving_comment_blocks_text_merge() {
        // Legacy keeps "a" and "b" as separate leaves (a comment node sits
        // between them); serving must too, despite skipping the comment.
        let mut scratch = ParseScratch::new();
        let (dom, _) = parse_serving(
            "<p>a<!-- c -->b</p>",
            &ParseLimits::unbounded(),
            &mut scratch,
        )
        .unwrap();
        let p = dom.find_tag("p").unwrap();
        let texts: Vec<String> = dom
            .children(p)
            .filter_map(|c| match &dom[c].kind {
                NodeKind::Text(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["a", "b"]);
        // ...while lexer-fragmented text away from comments still merges.
        let (dom, _) =
            parse_serving("<p>1 < 2 ok</p>", &ParseLimits::unbounded(), &mut scratch).unwrap();
        let p = dom.find_tag("p").unwrap();
        assert_eq!(dom.children(p).count(), 1);
        assert_eq!(dom.text_of(p), "1 < 2 ok");
    }

    #[test]
    fn serving_budget_counts_skipped_comments() {
        // Node budgets must trip identically whether comments materialize
        // or not.
        let html = format!("<body>x{}", "<!--c-->".repeat(40));
        let limits = ParseLimits {
            max_nodes: 20,
            ..ParseLimits::default()
        };
        let legacy = parse_with_limits(&html, &limits);
        let mut scratch = ParseScratch::new();
        let serving = parse_serving(&html, &limits, &mut scratch);
        assert!(matches!(legacy, Err(DomError::TooManyNodes { max: 20 })));
        assert!(matches!(serving, Err(DomError::TooManyNodes { max: 20 })));
    }

    #[test]
    fn serving_scratch_capacity_is_reused() {
        let html = "<body><table>".to_string()
            + &"<tr><td>cell one</td><td>cell two</td></tr>".repeat(50)
            + "</table></body>";
        let mut scratch = ParseScratch::new();
        let (dom, labels) = parse_serving(&html, &ParseLimits::unbounded(), &mut scratch).unwrap();
        scratch.recycle(dom, labels);
        let cap = scratch.node_capacity();
        assert!(cap > 0);
        for _ in 0..3 {
            let (dom, labels) =
                parse_serving(&html, &ParseLimits::unbounded(), &mut scratch).unwrap();
            scratch.recycle(dom, labels);
            assert_eq!(
                scratch.node_capacity(),
                cap,
                "arena capacity must be stable"
            );
        }
    }
}
