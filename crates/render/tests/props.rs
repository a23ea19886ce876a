//! Property tests: the layouter is total and its outputs satisfy the
//! invariants the pipeline depends on; the cover-table forest lifting
//! agrees with the direct leaf-set definition (`cover_forest` below).

#[allow(unused_imports)]
use mse_dom::parse;
use mse_dom::{Dom, NodeId, NodeKind};
use mse_render::{render_lines, render_lines_capped, LineType, RenderedPage};
use proptest::prelude::*;
use std::collections::HashSet;

/// The reference definition of a record's tag forest, kept as the oracle
/// for [`RenderedPage::forest_of_range`]: given the viewable leaves of a
/// line range, the maximal DOM nodes all of whose viewable leaves belong
/// to the set (and that contain at least one), strictly inside the
/// document scaffolding, in document order. Re-derives every subtree's
/// leaf set from scratch at every node on the way down.
fn cover_forest(dom: &Dom, leaves: &[NodeId]) -> Vec<NodeId> {
    let set: HashSet<NodeId> = leaves.iter().copied().collect();
    if set.is_empty() {
        return vec![];
    }
    let mut out = Vec::new();
    collect_cover(dom, dom.root(), &set, &mut out, 0);
    out
}

/// The oracle's recursion guard (the layouter's, 1024).
const MAX_COVER_DEPTH: usize = 1024;

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

/// (covered, has_leaf) of the subtree at `n`.
fn cover_info(dom: &Dom, n: NodeId, set: &HashSet<NodeId>, depth: usize) -> (bool, bool) {
    if is_viewable_leaf(dom, n) {
        return (set.contains(&n), true);
    }
    if depth > MAX_COVER_DEPTH {
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

/// The oracle's forest for lines `[start, end)` of `page`.
fn oracle_forest(page: &RenderedPage, start: usize, end: usize) -> Vec<NodeId> {
    let leaves: Vec<NodeId> = page.lines[start..end]
        .iter()
        .flat_map(|l| l.leaves.iter().copied())
        .collect();
    cover_forest(&page.dom, &leaves)
}

/// Compare the cover table with the oracle on every line range whose
/// length is at most `max_len`; returns the first disagreement.
fn forest_mismatch(page: &RenderedPage, max_len: usize) -> Option<String> {
    let n = page.lines.len();
    for start in 0..=n {
        for end in start..=n.min(start.saturating_add(max_len)) {
            let got = page.forest_of_range(start, end);
            let want = oracle_forest(page, start, end);
            if got != want {
                return Some(format!(
                    "lines {start}..{end}: table {got:?}, oracle {want:?}"
                ));
            }
        }
    }
    None
}

fn html_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("<div>".to_string()),
        Just("</div>".to_string()),
        Just("<table><tr><td width=80>".to_string()),
        Just("</td><td>".to_string()),
        Just("</td></tr></table>".to_string()),
        Just("<ul><li>".to_string()),
        Just("</li></ul>".to_string()),
        Just("<a href=/x>".to_string()),
        Just("</a>".to_string()),
        Just("<br>".to_string()),
        Just("<hr>".to_string()),
        Just("<img src=i>".to_string()),
        Just("<h3>".to_string()),
        Just("</h3>".to_string()),
        Just("<form><input type=text value=q>".to_string()),
        Just("</form>".to_string()),
        Just("<font size=-1 color=green>".to_string()),
        Just("</font>".to_string()),
        "[a-z ]{0,10}",
    ]
}

/// [`html_fragment`] plus the shapes the cover table treats specially:
/// viewable elements with children, whitespace, comments and content
/// that does not render.
fn cover_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        html_fragment(),
        html_fragment(),
        html_fragment(),
        html_fragment(),
        Just("<button>x</button>".to_string()),
        Just("<button><b>y</b> z</button>".to_string()),
        Just("<select><option>a</option><option>b</option></select>".to_string()),
        Just("<option>loose</option>".to_string()),
        Just("<textarea>t</textarea>".to_string()),
        Just("<input type=hidden value=h>".to_string()),
        Just("   \n  ".to_string()),
        Just("<!-- c -->".to_string()),
        Just("<p>".to_string()),
        Just("<span>".to_string()),
        Just("</span>".to_string()),
        Just("<script>s</script>".to_string()),
        Just("<tr><td>stray</td></tr>".to_string()),
    ]
}

fn cover_doc() -> impl Strategy<Value = String> {
    proptest::collection::vec(cover_fragment(), 0..32).prop_map(|v| v.concat())
}

fn html_doc() -> impl Strategy<Value = String> {
    proptest::collection::vec(html_fragment(), 0..28).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendering never panics; line numbers are 1..n; every line carries
    /// either text, an image, a rule, or a form control.
    #[test]
    fn render_invariants(doc in html_doc()) {
        let page = RenderedPage::from_html(&doc);
        for (i, line) in page.lines.iter().enumerate() {
            prop_assert_eq!(line.number, i + 1);
            let has_content = !line.text.is_empty()
                || matches!(line.ltype, LineType::Hr | LineType::Image | LineType::Form);
            prop_assert!(has_content, "line {i} has no content: {line:?}");
            prop_assert!(!line.leaves.is_empty(), "line {i} has no leaves");
        }
    }

    /// Leaves across lines appear in document (preorder) order and no leaf
    /// belongs to two lines.
    #[test]
    fn leaves_partition_in_document_order(doc in html_doc()) {
        let page = RenderedPage::from_html(&doc);
        let order: std::collections::HashMap<_, _> = page
            .dom
            .preorder(page.dom.root())
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        let mut last = 0usize;
        let mut seen = std::collections::HashSet::new();
        for line in &page.lines {
            for &leaf in &line.leaves {
                prop_assert!(seen.insert(leaf), "leaf in two lines");
                let o = order[&leaf];
                prop_assert!(o >= last, "leaves out of document order");
                last = o;
            }
        }
    }

    /// Nothing visible is dropped: every non-whitespace character of body
    /// text appears at least as often in the rendered lines. (Form
    /// controls additionally render value-attribute text, and <title> /
    /// form-control inner text is intentionally not body content, so the
    /// comparison is ⊆ on character counts, excluding those subtrees.)
    #[test]
    fn no_text_lost(doc in html_doc()) {
        let dom = parse(&doc);
        let counts = |text: &str| {
            let mut m = std::collections::HashMap::new();
            for c in text.chars().filter(|c| !c.is_whitespace()) {
                *m.entry(c).or_insert(0usize) += 1;
            }
            m
        };
        // Visible body text: all text except control/title subtrees.
        let skip: Vec<_> = dom
            .preorder(dom.root())
            .filter(|&n| {
                matches!(
                    dom[n].tag(),
                    Some("title") | Some("option") | Some("select") | Some("textarea") | Some("button")
                )
            })
            .collect();
        let mut dom_text = String::new();
        for n in dom.preorder(dom.root()) {
            if let mse_dom::NodeKind::Text(t) = &dom[n].kind {
                if !skip.iter().any(|&s| dom.is_ancestor(s, n)) {
                    dom_text.push_str(t);
                }
            }
        }
        let rendered: String = render_lines(&dom).iter().map(|l| l.text.clone()).collect();
        let want = counts(&dom_text);
        let have = counts(&rendered);
        for (c, n) in want {
            prop_assert!(
                have.get(&c).copied().unwrap_or(0) >= n,
                "char {c:?} lost in rendering ({} < {n})",
                have.get(&c).copied().unwrap_or(0)
            );
        }
    }

    /// forest_of_range always returns nodes covering exactly the requested
    /// lines' leaves.
    #[test]
    fn forest_covers_range(doc in html_doc()) {
        let page = RenderedPage::from_html(&doc);
        let n = page.lines.len();
        if n == 0 {
            return Ok(());
        }
        let forest = page.forest_of_range(0, n);
        for line in &page.lines {
            for &leaf in &line.leaves {
                prop_assert!(
                    forest.iter().any(|&f| f == leaf || page.dom.is_ancestor(f, leaf)),
                    "leaf not covered by forest"
                );
            }
        }
    }

    /// The cover table agrees with the oracle on every line range of a
    /// random page, rendered in full and truncated by a line budget (the
    /// budget leaves viewable leaves on no line).
    #[test]
    fn forest_of_range_matches_cover_forest(doc in cover_doc(), cap in 0usize..40) {
        let full = RenderedPage::from_html(&doc);
        prop_assert_eq!(forest_mismatch(&full, usize::MAX), None);
        let dom = parse(&doc);
        let (lines, _) = render_lines_capped(&dom, cap);
        let truncated = RenderedPage::assemble(dom, lines);
        prop_assert_eq!(forest_mismatch(&truncated, usize::MAX), None);
    }
}

/// A hand-built chain `body > div > div > …` of `chain` divs, with a text
/// leaf, a `<button>` holding text, and an `<img>` hung off each of the
/// last few levels: the leaves straddle both the layouter's and the cover
/// walk's depth guards.
fn deep_dom(chain: usize) -> Dom {
    let mut dom = Dom::new();
    let el = |dom: &mut Dom, tag: &'static str| {
        dom.alloc(NodeKind::Element {
            tag,
            attrs: Vec::new(),
        })
    };
    let html = el(&mut dom, "html");
    dom.append(dom.root(), html);
    let body = el(&mut dom, "body");
    dom.append(html, body);
    let mut cur = body;
    for level in 0..chain {
        let div = el(&mut dom, "div");
        dom.append(cur, div);
        if level + 6 >= chain {
            let t = dom.alloc(NodeKind::Text(format!("t{level}")));
            dom.append(div, t);
            let button = el(&mut dom, "button");
            dom.append(div, button);
            let label = dom.alloc(NodeKind::Text("press".into()));
            dom.append(button, label);
            let img = el(&mut dom, "img");
            dom.append(div, img);
            let ws = dom.alloc(NodeKind::Text("  ".into()));
            dom.append(div, ws);
            let br = el(&mut dom, "br");
            dom.append(div, br);
        }
        cur = div;
    }
    dom
}

#[test]
fn forest_of_range_matches_cover_forest_at_depth_guards() {
    // Document → html → body is depth 2; a chain of `c` divs ends at
    // depth c + 2, so these straddle the 1024 guards on both sides.
    let mut lines_seen = 0;
    for chain in [1018, 1021, 1024, 1027] {
        let dom = deep_dom(chain);
        let lines = render_lines(&dom);
        let page = RenderedPage::assemble(dom, lines);
        lines_seen += page.lines.len();
        assert_eq!(forest_mismatch(&page, usize::MAX), None, "chain {chain}");
    }
    assert!(lines_seen > 0);
}

#[test]
fn forest_of_range_matches_cover_forest_at_parser_clamp() {
    // Nesting past the parser's depth clamp is flattened: the levels past
    // it all land at the clamp.
    let mut html = String::from("<body>");
    for i in 0..280 {
        html.push_str(&format!("<div>l{i}<button>b</button><br>"));
    }
    html.push_str("</body>");
    let page = RenderedPage::from_html(&html);
    let n = page.lines.len();
    assert!(n > 250);
    for start in (0..n).step_by(13) {
        for end in start..=n.min(start + 3) {
            assert_eq!(
                page.forest_of_range(start, end),
                oracle_forest(&page, start, end)
            );
        }
    }
    for k in (0..n).step_by(41) {
        assert_eq!(page.forest_of_range(0, k), oracle_forest(&page, 0, k));
        assert_eq!(page.forest_of_range(k, n), oracle_forest(&page, k, n));
    }
}

#[test]
fn forest_of_range_matches_cover_forest_on_testbed_pages() {
    // Every page of the 119-engine seed-2006 testbed. The oracle costs
    // O(page × depth) per range, so each page checks two ranges per start
    // line — one line, and 2–5 lines cycling with the start (record
    // sizes) — plus prefixes and suffixes (section-sized ranges).
    for e in 0..119 {
        let spec = mse_testbed::EngineSpec::generate(2006, e);
        for q in 0..10 {
            let page = RenderedPage::from_html(&spec.page(q).html);
            let n = page.lines.len();
            for start in 0..n {
                for len in [1, 2 + start % 4] {
                    let end = n.min(start + len);
                    assert_eq!(
                        page.forest_of_range(start, end),
                        oracle_forest(&page, start, end),
                        "engine {e} page {q} lines {start}..{end}"
                    );
                }
            }
            for k in (0..=n).step_by(8) {
                assert_eq!(page.forest_of_range(0, k), oracle_forest(&page, 0, k));
                assert_eq!(page.forest_of_range(k, n), oracle_forest(&page, k, n));
            }
        }
    }
}
