//! Differential property test for the fused zero-copy ingest
//! (DESIGN.md §13): on *adversarial* HTML — tag soup, unterminated
//! quotes, null bytes, giant and malformed character references, deep
//! unclosed nesting, comments spliced between text runs —
//! [`Page::try_from_html_fast`] must produce extraction-level output
//! byte-identical to the owned-string reference ingest
//! ([`reference_ingest`]).
//!
//! Equality is asserted at the *extraction* level only: cleaned lines,
//! line text/type/position/attributes, tag paths, and per-line
//! signature types. NodeId-bearing data is deliberately excluded — the
//! fast DOM omits comment nodes, so raw node indices legitimately
//! shift between the two paths while extraction output stays
//! identical.

use mse_core::ingest::reference_ingest;
use mse_core::{IngestScratch, Page, ResourceBudget};
use proptest::prelude::*;

const OPENERS: &[&str] = &[
    "<p>",
    "<b>",
    "<i>",
    "<div>",
    "<td>",
    "<tr>",
    "<table>",
    "<ul>",
    "<li>",
    "<h2>",
    "<span>",
    "<form>",
    "<center>",
    "<ol>",
    "<a href=/r1>",
];
const CLOSERS: &[&str] = &[
    "</p>", "</b>", "</i>", "</div>", "</td>", "</tr>", "</table>", "</ul>", "</li>", "</h2>",
    "</a>", "</font>", "</nope>",
];
const VOIDS: &[&str] = &[
    "<br>",
    "<hr>",
    "<img src=x>",
    "<img alt=\"pic 3\">",
    "<input value=\"Go 7\">",
    "<input type=hidden name=q>",
];
const ATTRED: &[&str] = &[
    "<a href=\"/r?q=1&amp;x=2\">",
    "<font size=-1 color=red>",
    "<font color=\"#00C\" face=\"arial, sans-serif\">",
    "<td colspan=2 align=right>",
    // Unterminated quote: swallows the rest of the tag.
    "<a href=\"unterminated>",
    // Null byte inside an attribute value.
    "<div class=\u{0}weird>",
    "<p =junk =more>",
];
const ENTITIES: &[&str] = &[
    "&amp;",
    "&lt;not-a-tag&gt;",
    "&uuml;",
    "&#65;",
    "&#x41;",
    // Out-of-range and malformed references.
    "&#99999999;",
    "&#xFFFFFFFFFF;",
    "&notathing;",
    "& loose",
    "&#;",
    "&",
];
const JUNK: &[&str] = &[
    "<!-- hidden 42 -->",
    "<!--->",
    "<!doctype html>",
    "<>",
    "< notatag",
    "\u{0}",
    "<![CDATA[x]]>",
    "<script>var a = '<td>';</script>",
    "<style>p { color: red }</style>",
];

fn pick(table: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..table.len()).prop_map(move |i| table[i].to_string())
}

fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(OPENERS),
        pick(CLOSERS),
        pick(VOIDS),
        pick(ATTRED),
        pick(ENTITIES),
        pick(JUNK),
        // Visible text, sometimes with digits for clean_line to strip.
        "[ a-zA-Z0-9,.]{0,12}",
        // A giant character reference: hundreds of digits, no overflow.
        (50usize..300).prop_map(|n| {
            let mut s = String::from("&#");
            for _ in 0..n {
                s.push('9');
            }
            s.push(';');
            s
        }),
    ]
}

fn adversarial_html() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(fragment(), 0..40),
        0usize..24, // nesting depth prefix
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(frags, depth, body, close)| {
            let mut html = String::new();
            if body {
                html.push_str("<body>");
            }
            for _ in 0..depth {
                html.push_str("<div>");
            }
            for f in &frags {
                html.push_str(f);
            }
            // Half the time the nesting is left unclosed: tag soup.
            if close {
                for _ in 0..depth {
                    html.push_str("</div>");
                }
            }
            html
        })
}

/// Extraction-level equality (see module docs for why NodeIds are out).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fast and reference ingest agree on every adversarial page — both in
    /// output and in budget behavior — and recycling the scratch between
    /// pages never changes the result.
    #[test]
    fn fast_ingest_is_byte_identical(html in adversarial_html(), q in "[a-z]{0,6}") {
        let budget = ResourceBudget::default();
        let query = if q.is_empty() { None } else { Some(q.as_str()) };
        let reference = reference_ingest(&html, query, &budget);
        let mut scratch = IngestScratch::new();
        // Twice through one scratch: cold pools, then recycled pools.
        for rep in 0..2 {
            let fast = Page::try_from_html_fast(&html, query, &budget, &mut scratch);
            match (&reference, fast) {
                (Ok((lp, ld)), Ok((fp, fd))) => {
                    prop_assert_eq!(ld.len(), fd.len(), "diagnostic count (rep {})", rep);
                    pages_equal(&fp, lp);
                    scratch.recycle(fp);
                }
                (Err(_), Err(_)) => {}
                (l, f) => prop_assert!(
                    false,
                    "budget divergence (rep {}): reference ok={} fast ok={}",
                    rep, l.is_ok(), f.is_ok()
                ),
            }
        }
    }
}
