//! The layout simulator: DOM → content lines.
//!
//! This replaces the paper's browser-rendering step (its step 1, taken from
//! ViNTs \[29\]). We do not chase pixel fidelity — MSE only consumes
//! *relative* visual signals (which content shares a line, left contours,
//! line types, font attributes), so a deterministic flow model suffices:
//!
//! * inline content accumulates into the current line; block elements,
//!   `<br>` and table cells flush it;
//! * the position code is the x offset accumulated from indentation
//!   contexts (lists, blockquotes, table-cell offsets);
//! * text attributes cascade per [`crate::style`].

use crate::line::{ContentLine, LineType};
use crate::style::{LineAttrs, TextAttr};
use mse_dom::{CompactTagPath, Dom, NodeId, NodeKind};

/// Horizontal indent added by `<ul>/<ol>/<blockquote>/<dd>/<dl>`.
const LIST_INDENT: i32 = 40;
/// Default estimated width of a table cell without a `width` attribute.
const DEFAULT_CELL_WIDTH: i32 = 120;
/// Assumed canvas width for percentage cell widths.
const CANVAS_WIDTH: i32 = 760;
/// Small inset applied inside tables (cell padding/border).
const TABLE_INSET: i32 = 3;

/// Recursion guard for the layout walk. Parsed DOMs are depth-clamped at
/// [`mse_dom::DEFAULT_MAX_DEPTH`], so this only matters for hand-built
/// trees; content deeper than this is skipped rather than overflowing the
/// stack.
const MAX_VISIT_DEPTH: usize = 1024;

/// Render a parsed document into its content-line sequence.
pub fn render_lines(dom: &Dom) -> Vec<ContentLine> {
    render_lines_capped(dom, usize::MAX).0
}

/// Clear-don't-drop buffers for repeated layout runs.
///
/// Finished line vectors from a previous page are handed back via
/// [`LineScratch::recycle`]; the next render then *harvests* their inner
/// allocations (line text `String`s, leaf `Vec`s, the outer line vector)
/// instead of allocating fresh ones. In steady-state batch serving the
/// layout pass performs no per-line heap allocations beyond tag-path
/// construction and attribute-set nodes.
#[derive(Default)]
pub struct LineScratch {
    /// Donor pool: previous pages' finished lines whose buffers get reused.
    donor: Vec<ContentLine>,
    /// Outer storage for the next render's line vector.
    lines: Vec<ContentLine>,
}

impl LineScratch {
    pub fn new() -> LineScratch {
        LineScratch::default()
    }

    /// Return a finished line vector to the pool. The elements become
    /// donors for future lines; the vector itself backs the next render's
    /// output.
    pub fn recycle(&mut self, mut lines: Vec<ContentLine>) {
        self.donor.append(&mut lines);
        self.lines = lines;
    }

    /// Donor-pool size (diagnostics/tests).
    pub fn donor_len(&self) -> usize {
        self.donor.len()
    }
}

/// [`render_lines`] under a content-line budget: layout stops once
/// `max_lines` lines exist and the second return value reports whether
/// anything was dropped. The produced prefix is identical to the first
/// `max_lines` lines of the unbudgeted render.
pub fn render_lines_capped(dom: &Dom, max_lines: usize) -> (Vec<ContentLine>, bool) {
    let mut scratch = LineScratch::default();
    render_lines_capped_scratch(dom, max_lines, &mut scratch)
}

/// [`render_lines_capped`] drawing line storage from `scratch` (see
/// [`LineScratch`]). Output is identical to the scratch-free entry point.
pub fn render_lines_capped_scratch(
    dom: &Dom,
    max_lines: usize,
    scratch: &mut LineScratch,
) -> (Vec<ContentLine>, bool) {
    let mut lines = std::mem::take(&mut scratch.lines);
    lines.clear();
    let mut l = Layouter {
        dom,
        lines,
        donor: std::mem::take(&mut scratch.donor),
        cur: Current::default(),
        max_lines,
        truncated: false,
    };
    let body = dom.find_tag("body").unwrap_or_else(|| dom.root());
    l.visit(
        body,
        &Ctx {
            attr: TextAttr::default(),
            x: 0,
            in_link: false,
            in_heading: false,
        },
        0,
    );
    l.flush();
    // Assign 1-based line numbers.
    for (i, line) in l.lines.iter_mut().enumerate() {
        line.number = i + 1;
    }
    // Unconsumed donors stay pooled for the next page.
    scratch.donor = l.donor;
    (l.lines, l.truncated)
}

#[derive(Clone)]
struct Ctx {
    attr: TextAttr,
    x: i32,
    in_link: bool,
    in_heading: bool,
}

#[derive(Default)]
struct Current {
    text: String,
    attrs: LineAttrs,
    leaves: Vec<NodeId>,
    has_link_text: bool,
    has_plain_text: bool,
    has_image: bool,
    has_form: bool,
    heading: bool,
    x: i32,
    started: bool,
}

struct Layouter<'a> {
    dom: &'a Dom,
    lines: Vec<ContentLine>,
    /// Recycled lines whose inner buffers are harvested by `flush`.
    donor: Vec<ContentLine>,
    cur: Current,
    /// Line budget; flushes past it set `truncated` and drop the line.
    max_lines: usize,
    truncated: bool,
}

/// Block-level elements that force a line break before and after.
fn is_block(tag: &str) -> bool {
    matches!(
        tag,
        "p" | "div"
            | "table"
            | "tr"
            | "td"
            | "th"
            | "ul"
            | "ol"
            | "li"
            | "dl"
            | "dt"
            | "dd"
            | "blockquote"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "form"
            | "center"
            | "pre"
            | "tbody"
            | "thead"
            | "tfoot"
            | "caption"
            | "fieldset"
            | "address"
    )
}

fn parse_width(v: &str) -> Option<i32> {
    let v = v.trim();
    if let Some(pct) = v.strip_suffix('%') {
        let p: f64 = pct.trim().parse().ok()?;
        return Some((p / 100.0 * CANVAS_WIDTH as f64) as i32);
    }
    let px: f64 = v.trim_end_matches("px").trim().parse().ok()?;
    Some(px as i32)
}

impl<'a> Layouter<'a> {
    fn ensure_started(&mut self, x: i32, leaf: NodeId) {
        if !self.cur.started {
            self.cur.started = true;
            self.cur.x = x;
        }
        self.cur.leaves.push(leaf);
    }

    /// Reset the accumulator in place, keeping its buffer capacities.
    fn reset_cur(&mut self) {
        self.cur.text.clear();
        self.cur.attrs.clear();
        self.cur.leaves.clear();
        self.cur.has_link_text = false;
        self.cur.has_plain_text = false;
        self.cur.has_image = false;
        self.cur.has_form = false;
        self.cur.heading = false;
        self.cur.x = 0;
        self.cur.started = false;
    }

    /// Pop a donor line (or allocate a fresh one) ready for overwriting.
    fn blank_line(&mut self) -> ContentLine {
        // mse:hot begin(layout-blank-line)
        match self.donor.pop() {
            Some(mut line) => {
                line.number = 0;
                line.text.clear();
                line.attrs.clear();
                line.leaves.clear();
                line
            }
            None => ContentLine {
                number: 0,
                // mse:allow(alloc): cold path — donor pool exhausted.
                text: String::new(),
                ltype: LineType::Blank,
                pos: 0,
                // mse:allow(call): cold path — donor pool exhausted.
                attrs: LineAttrs::new(),
                path: CompactTagPath::default(),
                // mse:allow(alloc): cold path — donor pool exhausted.
                leaves: Vec::new(),
            },
        }
        // mse:hot end(layout-blank-line)
    }

    fn flush(&mut self) {
        // mse:hot begin(layout-flush)
        if !self.cur.started {
            self.reset_cur();
            return;
        }
        if self.lines.len() >= self.max_lines {
            self.truncated = true;
            self.reset_cur();
            return;
        }
        let has_text = !self.cur.text.trim().is_empty();
        let ltype = if self.cur.has_form {
            LineType::Form
        } else if self.cur.heading && has_text {
            LineType::Heading
        } else if has_text {
            match (self.cur.has_link_text, self.cur.has_plain_text) {
                (true, true) => LineType::LinkText,
                (true, false) => LineType::Link,
                _ => LineType::Text,
            }
        } else if self.cur.has_image {
            LineType::Image
        } else {
            // A line with no visible content: drop it.
            self.reset_cur();
            return;
        };
        let first_leaf = self.cur.leaves.first().copied();
        let mut line = self.blank_line();
        // Overwrite the donor's path in place (reusing its step strings)
        // rather than assigning a freshly built one.
        match first_leaf {
            Some(leaf) => CompactTagPath::to_node_into(self.dom, leaf, &mut line.path),
            None => line.path.steps.clear(),
        }
        // Swap the accumulator's buffers into the line; the donor's old
        // (cleared) buffers land in `cur` and are reused next line.
        std::mem::swap(&mut line.text, &mut self.cur.text);
        std::mem::swap(&mut line.attrs, &mut self.cur.attrs);
        std::mem::swap(&mut line.leaves, &mut self.cur.leaves);
        // In-place trim (legacy did `trim().to_string()`).
        let end = line.text.trim_end().len();
        line.text.truncate(end);
        let lead = line.text.len() - line.text.trim_start().len();
        if lead > 0 {
            line.text.drain(..lead);
        }
        line.ltype = ltype;
        line.pos = self.cur.x;
        self.lines.push(line);
        self.reset_cur();
        // mse:hot end(layout-flush)
    }

    fn emit_hr(&mut self, node: NodeId, x: i32) {
        self.flush();
        if self.lines.len() >= self.max_lines {
            self.truncated = true;
            return;
        }
        let mut line = self.blank_line();
        line.ltype = LineType::Hr;
        line.pos = x;
        CompactTagPath::to_node_into(self.dom, node, &mut line.path);
        line.leaves.push(node);
        self.lines.push(line);
    }

    fn add_text(&mut self, node: NodeId, t: &str, ctx: &Ctx) {
        // mse:hot begin(layout-add-text)
        // Whitespace-collapse `t` directly into the accumulator (the legacy
        // path built an intermediate `Vec` + joined `String` per text node).
        let mut words = t.split_whitespace();
        let Some(first) = words.next() else {
            return;
        };
        self.ensure_started(ctx.x, node);
        if !self.cur.text.is_empty() && !self.cur.text.ends_with(' ') {
            // Preserve a word boundary when the source had surrounding space.
            if t.starts_with(char::is_whitespace) {
                self.cur.text.push(' ');
            }
        }
        self.cur.text.push_str(first);
        for w in words {
            self.cur.text.push(' ');
            self.cur.text.push_str(w);
        }
        if t.ends_with(char::is_whitespace) {
            self.cur.text.push(' ');
        }
        // Most text nodes on a line share one attr context: probe before
        // cloning so the common case costs no `TextAttr` string clones.
        if !self.cur.attrs.contains(&ctx.attr) {
            // mse:allow(alloc): BTreeSet node insert — line attr sets are tiny.
            self.cur.attrs.insert(ctx.attr.clone());
        }
        if ctx.in_link {
            self.cur.has_link_text = true;
        } else {
            self.cur.has_plain_text = true;
        }
        if ctx.in_heading {
            self.cur.heading = true;
        }
        // mse:hot end(layout-add-text)
    }

    fn visit(&mut self, node: NodeId, ctx: &Ctx, depth: usize) {
        // Budget short-circuit (no more lines will be kept) and recursion
        // guard (hand-built DOMs may be deeper than the parser's clamp).
        if self.truncated || depth > MAX_VISIT_DEPTH {
            return;
        }
        let dom = self.dom;
        match &dom[node].kind {
            NodeKind::Text(t) => self.add_text(node, t, ctx),
            NodeKind::Comment(_) | NodeKind::Document => {
                let mut c = dom[node].first_child;
                while let Some(id) = c {
                    c = dom[id].next_sibling;
                    // mse:allow(call): recursion capped by MAX_VISIT_DEPTH
                    self.visit(id, ctx, depth + 1);
                }
            }
            NodeKind::Element { tag, .. } => self.visit_element(node, tag, ctx, depth),
        }
    }

    fn visit_element(&mut self, node: NodeId, tag: &'static str, ctx: &Ctx, depth: usize) {
        let dom = self.dom;
        let data = &dom[node];
        match tag {
            "script" | "style" | "head" | "title" | "meta" | "link" | "base" => return,
            "hr" => {
                self.emit_hr(node, ctx.x);
                return;
            }
            "br" => {
                self.flush();
                return;
            }
            "img" => {
                self.ensure_started(ctx.x, node);
                self.cur.has_image = true;
                self.cur.attrs.insert(ctx.attr.clone());
                return;
            }
            "input" | "select" | "textarea" | "button" | "option" => {
                // <input type=hidden> renders nothing.
                if tag == "input"
                    && data
                        .attr("type")
                        .map(|t| t.eq_ignore_ascii_case("hidden"))
                        .unwrap_or(false)
                {
                    return;
                }
                self.ensure_started(ctx.x, node);
                self.cur.has_form = true;
                self.cur.attrs.insert(ctx.attr.clone());
                // Render the control's visible label: option/button inner
                // text, or an <input>'s value (browsers display both).
                if matches!(tag, "option" | "button") {
                    let label = dom.text_of(node);
                    let label = label.trim();
                    if !label.is_empty() {
                        self.cur.text.push_str(label);
                        self.cur.text.push(' ');
                    }
                } else if tag == "input" {
                    let label = data.attr("value").unwrap_or("").trim();
                    if !label.is_empty() {
                        self.cur.text.push_str(label);
                        self.cur.text.push(' ');
                    }
                }
                return;
            }
            _ => {}
        }

        let mut child_ctx = Ctx {
            attr: ctx.attr.apply_element(data),
            x: ctx.x,
            in_link: ctx.in_link || (tag == "a" && data.attr("href").is_some()),
            in_heading: ctx.in_heading || matches!(tag, "h1" | "h2" | "h3" | "h4" | "h5" | "h6"),
        };

        match tag {
            "ul" | "ol" | "blockquote" | "dd" => child_ctx.x += LIST_INDENT,
            "table" => child_ctx.x += TABLE_INSET,
            _ => {}
        }

        if tag == "tr" {
            // Lay out cells left-to-right with accumulated x offsets.
            self.flush();
            let mut cell_x = child_ctx.x;
            let mut next_cell = dom[node].first_child;
            while let Some(cell) = next_cell {
                next_cell = dom[cell].next_sibling;
                if !dom[cell].is_element() {
                    continue;
                }
                let cell_tag = dom[cell].tag().unwrap_or("");
                if !matches!(cell_tag, "td" | "th") {
                    continue;
                }
                let mut cctx = child_ctx.clone();
                cctx.x = cell_x;
                cctx.attr = child_ctx.attr.apply_element(&dom[cell]);
                self.flush();
                let mut c = dom[cell].first_child;
                while let Some(id) = c {
                    c = dom[id].next_sibling;
                    // mse:allow(call): recursion capped by MAX_VISIT_DEPTH
                    self.visit(id, &cctx, depth + 2);
                }
                self.flush();
                let w = dom[cell]
                    .attr("width")
                    .and_then(parse_width)
                    .unwrap_or(DEFAULT_CELL_WIDTH);
                cell_x += w;
            }
            return;
        }

        let block = is_block(tag);
        if block {
            self.flush();
        }
        let mut c = dom[node].first_child;
        while let Some(id) = c {
            c = dom[id].next_sibling;
            // mse:allow(call): recursion capped by MAX_VISIT_DEPTH
            self.visit(id, &child_ctx, depth + 1);
        }
        if block {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mse_dom::parse;

    fn lines(html: &str) -> Vec<ContentLine> {
        render_lines(&parse(html))
    }

    #[test]
    fn inline_accumulates_block_flushes() {
        let ls = lines("<body><p>Hello <b>world</b></p><p>second</p></body>");
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].text, "Hello world");
        assert_eq!(ls[1].text, "second");
        assert_eq!(ls[0].number, 1);
        assert_eq!(ls[1].number, 2);
    }

    #[test]
    fn br_splits_lines() {
        let ls = lines("<body><p>one<br>two</p></body>");
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].text, "one");
        assert_eq!(ls[1].text, "two");
    }

    #[test]
    fn line_types() {
        let ls = lines(concat!(
            "<body>",
            "<p>plain</p>",
            "<p><a href=x>all link</a></p>",
            "<p><a href=x>link</a> then text</p>",
            "<p><img src=i></p>",
            "<hr>",
            "<h2>header</h2>",
            "<form><input type=text></form>",
            "</body>"
        ));
        let types: Vec<LineType> = ls.iter().map(|l| l.ltype).collect();
        assert_eq!(
            types,
            vec![
                LineType::Text,
                LineType::Link,
                LineType::LinkText,
                LineType::Image,
                LineType::Hr,
                LineType::Heading,
                LineType::Form,
            ]
        );
    }

    #[test]
    fn list_indentation() {
        let ls = lines("<body><p>top</p><ul><li>item</li></ul></body>");
        assert_eq!(ls[0].pos, 0);
        assert_eq!(ls[1].pos, LIST_INDENT);
    }

    #[test]
    fn nested_list_indentation_accumulates() {
        let ls = lines("<body><ul><li>a<ul><li>b</li></ul></li></ul></body>");
        assert_eq!(ls[0].pos, LIST_INDENT);
        assert_eq!(ls[1].pos, 2 * LIST_INDENT);
    }

    #[test]
    fn table_cells_get_column_offsets() {
        let ls = lines("<body><table><tr><td>c1</td><td>c2</td><td>c3</td></tr></table></body>");
        assert_eq!(ls.len(), 3);
        assert_eq!(ls[0].pos, TABLE_INSET);
        assert_eq!(ls[1].pos, TABLE_INSET + DEFAULT_CELL_WIDTH);
        assert_eq!(ls[2].pos, TABLE_INSET + 2 * DEFAULT_CELL_WIDTH);
    }

    #[test]
    fn cell_width_attr_honored() {
        let ls = lines("<body><table><tr><td width=\"200\">a</td><td>b</td></tr></table></body>");
        assert_eq!(ls[1].pos - ls[0].pos, 200);
        let ls = lines("<body><table><tr><td width=\"50%\">a</td><td>b</td></tr></table></body>");
        assert_eq!(ls[1].pos - ls[0].pos, CANVAS_WIDTH / 2);
    }

    #[test]
    fn whitespace_collapsed() {
        let ls = lines("<body><p>  a\n\n   b\t c  </p></body>");
        assert_eq!(ls[0].text, "a b c");
    }

    #[test]
    fn hidden_input_not_rendered() {
        let ls = lines("<body><form><input type=hidden name=q></form></body>");
        assert!(ls.is_empty());
    }

    #[test]
    fn attrs_collected_per_line() {
        let ls = lines("<body><p>plain <b>bold</b></p></body>");
        assert_eq!(ls[0].attrs.len(), 2);
        let bolds: Vec<bool> = ls[0].attrs.iter().map(|a| a.style.bold).collect();
        assert!(bolds.contains(&true) && bolds.contains(&false));
    }

    #[test]
    fn leaves_recorded_in_order() {
        let ls = lines("<body><p>a <img src=x> b</p></body>");
        assert_eq!(ls[0].leaves.len(), 3);
    }

    #[test]
    fn tag_path_points_at_first_leaf() {
        let ls = lines("<body><div><p>x</p></div></body>");
        let tags: Vec<&str> = ls[0].path.steps.iter().map(|s| s.tag.as_str()).collect();
        assert_eq!(tags, vec!["html", "body", "div", "p"]);
    }

    #[test]
    fn empty_elements_emit_nothing() {
        let ls = lines("<body><div></div><p>   </p><span></span></body>");
        assert!(ls.is_empty());
    }

    #[test]
    fn serp_like_record_renders_as_two_lines() {
        let ls = lines(concat!(
            "<body><table><tr><td>",
            "<a href=\"/r1\">Result title</a><br>",
            "<font size=\"-1\">Snippet text here</font>",
            "</td></tr></table></body>"
        ));
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].ltype, LineType::Link);
        assert_eq!(ls[1].ltype, LineType::Text);
        assert_eq!(ls[0].pos, ls[1].pos);
    }
}
