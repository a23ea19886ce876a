//! Text attributes and the style cascade.
//!
//! The paper (§4.2) attaches to every piece of rendered text a *text
//! attribute* quaternion ⟨font, size, style, color⟩. We cascade these down
//! the DOM from a browser-default root style, honoring the presentational
//! markup 2006-era result pages actually used (`<font>`, `<b>`, `<i>`,
//! `<h1>`–`<h6>`, `<big>`/`<small>`, links) plus the font-related subset of
//! inline `style=""` attributes.

use mse_dom::NodeData;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Font style flags. Ordered so `TextAttr` can live in a `BTreeSet`.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FontStyle {
    pub bold: bool,
    pub italic: bool,
}

/// A shared style string (font family / color name).
///
/// The layout cascade copies a [`TextAttr`] for every element it enters and
/// every content line it closes; with plain `String` fields those copies
/// dominated the render pass's heap traffic. `StyleStr` is an `Arc<str>`,
/// so a clone is a refcount bump — while comparison, ordering, hashing and
/// serialization all go through the string content, keeping set semantics,
/// `dtal` and the persisted wrapper JSON identical to the owned-`String`
/// representation.
#[derive(Clone, Debug)]
pub struct StyleStr(Arc<str>);

impl StyleStr {
    pub fn new(s: &str) -> StyleStr {
        StyleStr(Arc::from(s))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for StyleStr {
    fn from(s: &str) -> StyleStr {
        StyleStr::new(s)
    }
}

impl From<String> for StyleStr {
    fn from(s: String) -> StyleStr {
        StyleStr(Arc::from(s))
    }
}

impl PartialEq for StyleStr {
    fn eq(&self, other: &StyleStr) -> bool {
        // Pointer fast path: shared defaults hit this on every compare.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for StyleStr {}

impl PartialEq<&str> for StyleStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<str> for StyleStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialOrd for StyleStr {
    fn partial_cmp(&self, other: &StyleStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StyleStr {
    fn cmp(&self, other: &StyleStr) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for StyleStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl std::fmt::Display for StyleStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for StyleStr {
    fn serialize<S: serde::Serializer + ?Sized>(&self, s: &mut S) {
        s.str(&self.0)
    }
}

impl Deserialize for StyleStr {
    fn deserialize<D: serde::Deserializer + ?Sized>(d: &mut D) -> Result<StyleStr, serde::Error> {
        match d.peek()? {
            serde::Kind::Str => Ok(StyleStr::new(d.str()?)),
            _ => Err(serde::Error::msg("expected string for StyleStr")),
        }
    }
}

/// Shared instances of the style strings the cascade itself introduces, so
/// entering `<a href>`/`<tt>`/default contexts never allocates.
fn shared(cell: &'static OnceLock<StyleStr>, s: &str) -> StyleStr {
    cell.get_or_init(|| StyleStr::new(s)).clone()
}

fn default_font() -> StyleStr {
    static S: OnceLock<StyleStr> = OnceLock::new();
    shared(&S, "times")
}

fn default_color() -> StyleStr {
    static S: OnceLock<StyleStr> = OnceLock::new();
    shared(&S, "black")
}

fn link_color() -> StyleStr {
    static S: OnceLock<StyleStr> = OnceLock::new();
    shared(&S, "blue")
}

fn mono_font() -> StyleStr {
    static S: OnceLock<StyleStr> = OnceLock::new();
    shared(&S, "courier")
}

/// The paper's text attribute quaternion ⟨f, w, s, c⟩.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TextAttr {
    /// Font family, lower-cased first family name.
    pub font: StyleStr,
    /// HTML font size 1–7 (3 is the default).
    pub size: u8,
    pub style: FontStyle,
    /// Color keyword or `#rrggbb`, lower-cased.
    pub color: StyleStr,
}

impl Default for TextAttr {
    fn default() -> Self {
        TextAttr {
            font: default_font(),
            size: 3,
            style: FontStyle::default(),
            color: default_color(),
        }
    }
}

/// The set of text attributes appearing on one content line — the paper's
/// *line text attribute* `la`.
///
/// A sorted-`Vec` set rather than a `BTreeSet`: line sets hold one or two
/// entries, and a `Vec` keeps its capacity through `clear`, so the layout
/// donor pool recycles the storage instead of re-allocating a tree node on
/// every line (a `BTreeSet` frees its node on `clear` unconditionally).
/// Iteration order, equality and the serialized form (a sorted sequence)
/// are identical to the `BTreeSet<TextAttr>` this replaces.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAttrs(Vec<TextAttr>);

impl LineAttrs {
    pub fn new() -> LineAttrs {
        LineAttrs(Vec::new())
    }

    /// Insert `a`, keeping the backing vector sorted and duplicate-free.
    /// Returns whether the set changed (the `BTreeSet::insert` contract).
    pub fn insert(&mut self, a: TextAttr) -> bool {
        match self.0.binary_search(&a) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, a);
                true
            }
        }
    }

    pub fn contains(&self, a: &TextAttr) -> bool {
        self.0.binary_search(a).is_ok()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, TextAttr> {
        self.0.iter()
    }

    /// Empty the set, keeping the backing vector's capacity.
    pub fn clear(&mut self) {
        self.0.clear()
    }
}

impl<'a> IntoIterator for &'a LineAttrs {
    type Item = &'a TextAttr;
    type IntoIter = std::slice::Iter<'a, TextAttr>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<TextAttr> for LineAttrs {
    fn from_iter<I: IntoIterator<Item = TextAttr>>(iter: I) -> LineAttrs {
        let mut out = LineAttrs::new();
        for a in iter {
            out.insert(a);
        }
        out
    }
}

impl Serialize for LineAttrs {
    fn serialize<S: serde::Serializer + ?Sized>(&self, s: &mut S) {
        self.0.serialize(s)
    }
}

impl Deserialize for LineAttrs {
    fn deserialize<D: serde::Deserializer + ?Sized>(d: &mut D) -> Result<LineAttrs, serde::Error> {
        let items = Vec::<TextAttr>::deserialize(d)?;
        // Re-establish the sorted-set invariant whatever the input order.
        Ok(items.into_iter().collect())
    }
}

/// Line text attribute distance `Dtal` (paper Formula 2):
/// `1 − |la1 ∩ la2| / max(|la1|, |la2|)`.
pub fn dtal(la1: &LineAttrs, la2: &LineAttrs) -> f64 {
    let m = la1.len().max(la2.len());
    if m == 0 {
        return 0.0;
    }
    // Sorted-merge intersection count over the two sorted backing vectors.
    let (a, b) = (&la1.0, &la2.0);
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    1.0 - inter as f64 / m as f64
}

impl TextAttr {
    /// Apply the effect of entering `element` to a copy of `self`.
    pub fn apply_element(&self, element: &NodeData) -> TextAttr {
        let mut out = self.clone();
        let tag = match element.tag() {
            Some(t) => t,
            None => return out,
        };
        match tag {
            "b" | "strong" | "th" => out.style.bold = true,
            "i" | "em" | "cite" | "var" | "address" => out.style.italic = true,
            "h1" => {
                out.size = 6;
                out.style.bold = true;
            }
            "h2" => {
                out.size = 5;
                out.style.bold = true;
            }
            "h3" => {
                out.size = 4;
                out.style.bold = true;
            }
            "h4" => {
                out.size = 3;
                out.style.bold = true;
            }
            "h5" => {
                out.size = 2;
                out.style.bold = true;
            }
            "h6" => {
                out.size = 1;
                out.style.bold = true;
            }
            "big" => out.size = (out.size + 1).min(7),
            "small" => out.size = out.size.saturating_sub(1).max(1),
            "a" if element.attr("href").is_some() => {
                out.color = link_color();
            }
            "tt" | "code" | "pre" | "kbd" | "samp" => out.font = mono_font(),
            "font" => {
                if let Some(c) = element.attr("color") {
                    out.color = normalize_color(c);
                }
                if let Some(f) = element.attr("face") {
                    out.font = first_family(f);
                }
                if let Some(s) = element.attr("size") {
                    out.size = parse_font_size(s, out.size);
                }
            }
            _ => {}
        }
        if let Some(style) = element.attr("style") {
            apply_inline_style(&mut out, style);
        }
        out
    }
}

/// Parse HTML `<font size>`: absolute "1".."7" or relative "+2"/"-1".
fn parse_font_size(s: &str, current: u8) -> u8 {
    let s = s.trim();
    let v = if let Some(rel) = s.strip_prefix('+') {
        current as i32 + rel.parse::<i32>().unwrap_or(0)
    } else if let Some(rel) = s.strip_prefix('-') {
        current as i32 - rel.parse::<i32>().unwrap_or(0)
    } else {
        s.parse::<i32>().unwrap_or(current as i32)
    };
    v.clamp(1, 7) as u8
}

/// Per-thread memo for normalized style values: result pages repeat a
/// handful of presentational colors/faces thousands of times, so the
/// trim/lowercase/first-family work (and its allocations) runs once per
/// distinct raw value instead of once per element. Capped and cleared so
/// adversarial pages with unbounded distinct values cannot grow it.
const STYLE_CACHE_CAP: usize = 256;

fn cached_style(
    cache: &'static std::thread::LocalKey<std::cell::RefCell<HashMap<Box<str>, StyleStr>>>,
    raw: &str,
    normalize: fn(&str) -> StyleStr,
) -> StyleStr {
    cache.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(v) = c.get(raw) {
            return v.clone();
        }
        let v = normalize(raw);
        if c.len() >= STYLE_CACHE_CAP {
            c.clear();
        }
        c.insert(raw.into(), v.clone());
        v
    })
}

thread_local! {
    static COLOR_CACHE: std::cell::RefCell<HashMap<Box<str>, StyleStr>> =
        std::cell::RefCell::new(HashMap::new());
    static FAMILY_CACHE: std::cell::RefCell<HashMap<Box<str>, StyleStr>> =
        std::cell::RefCell::new(HashMap::new());
}

fn first_family(f: &str) -> StyleStr {
    cached_style(&FAMILY_CACHE, f, |f| {
        f.split(',')
            .next()
            .unwrap_or(f)
            .trim()
            .trim_matches(['"', '\''])
            .to_ascii_lowercase()
            .into()
    })
}

fn normalize_color(c: &str) -> StyleStr {
    cached_style(&COLOR_CACHE, c, |c| c.trim().to_ascii_lowercase().into())
}

/// Map a CSS font-size to the 1–7 HTML scale.
fn css_font_size(v: &str, current: u8) -> u8 {
    let v = v.trim().to_ascii_lowercase();
    if let Some(px) = v.strip_suffix("px") {
        let px: f64 = px.trim().parse().unwrap_or(16.0);
        return match px as i32 {
            ..=9 => 1,
            10..=11 => 2,
            12..=14 => 3,
            15..=17 => 4,
            18..=23 => 5,
            24..=31 => 6,
            _ => 7,
        };
    }
    match v.as_str() {
        "xx-small" => 1,
        "x-small" => 2,
        "small" => 2,
        "medium" => 3,
        "large" => 4,
        "x-large" => 5,
        "xx-large" => 6,
        "smaller" => current.saturating_sub(1).max(1),
        "larger" => (current + 1).min(7),
        _ => current,
    }
}

/// Honor the font-related subset of an inline `style=""` attribute.
/// Property names are matched case-insensitively in place (no lowercased
/// copies — this runs for every styled element the layouter enters).
fn apply_inline_style(attr: &mut TextAttr, style: &str) {
    for decl in style.split(';') {
        let mut parts = decl.splitn(2, ':');
        let prop = parts.next().unwrap_or("").trim();
        let val = parts.next().unwrap_or("").trim();
        if val.is_empty() {
            continue;
        }
        if prop.eq_ignore_ascii_case("color") {
            attr.color = normalize_color(val);
        } else if prop.eq_ignore_ascii_case("font-family") {
            attr.font = first_family(val);
        } else if prop.eq_ignore_ascii_case("font-size") {
            attr.size = css_font_size(val, attr.size);
        } else if prop.eq_ignore_ascii_case("font-weight") {
            attr.style.bold = val.eq_ignore_ascii_case("bold")
                || val.eq_ignore_ascii_case("bolder")
                || val.parse::<u32>().map(|n| n >= 600).unwrap_or(false);
        } else if prop.eq_ignore_ascii_case("font-style") {
            attr.style.italic =
                val.eq_ignore_ascii_case("italic") || val.eq_ignore_ascii_case("oblique");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mse_dom::parse;

    fn attr_of(html: &str, tag: &str) -> TextAttr {
        let dom = parse(html);
        let mut cur = TextAttr::default();
        // Cascade along the ancestry of the *innermost* matching element.
        let node = dom
            .preorder(dom.root())
            .filter(|&n| dom[n].tag() == Some(tag))
            .last()
            .unwrap();
        for anc in dom.ancestry(node) {
            if dom[anc].is_element() {
                cur = cur.apply_element(&dom[anc]);
            }
        }
        cur
    }

    #[test]
    fn defaults() {
        let a = TextAttr::default();
        assert_eq!(a.font, "times");
        assert_eq!(a.size, 3);
        assert!(!a.style.bold && !a.style.italic);
    }

    #[test]
    fn bold_italic_nesting() {
        let a = attr_of("<body><b><i>x</i></b></body>", "i");
        assert!(a.style.bold && a.style.italic);
    }

    #[test]
    fn headings_set_size_and_bold() {
        let a = attr_of("<body><h1>x</h1></body>", "h1");
        assert_eq!(a.size, 6);
        assert!(a.style.bold);
        let a = attr_of("<body><h3>x</h3></body>", "h3");
        assert_eq!(a.size, 4);
    }

    #[test]
    fn font_tag_attrs() {
        let a = attr_of(
            "<body><font color=\"Red\" face=\"Arial, sans\" size=\"+2\">x</font></body>",
            "font",
        );
        assert_eq!(a.color, "red");
        assert_eq!(a.font, "arial");
        assert_eq!(a.size, 5);
    }

    #[test]
    fn link_color() {
        let a = attr_of("<body><a href=\"/x\">x</a></body>", "a");
        assert_eq!(a.color, "blue");
        // anchor without href keeps inherited color
        let a = attr_of("<body><a name=\"t\">x</a></body>", "a");
        assert_eq!(a.color, "black");
    }

    #[test]
    fn inline_style_parsing() {
        let a = attr_of(
            "<body><span style=\"color: #FF0000; font-weight:bold; font-size: 18px; font-family: 'Verdana', arial\">x</span></body>",
            "span",
        );
        assert_eq!(a.color, "#ff0000");
        assert!(a.style.bold);
        assert_eq!(a.size, 5);
        assert_eq!(a.font, "verdana");
    }

    #[test]
    fn big_small_clamped() {
        let a = attr_of(
            "<body><small><small><small>x</small></small></small></body>",
            "small",
        );
        assert!(a.size >= 1);
        let a = attr_of(
            "<body><big><big><big><big><big>x</big></big></big></big></big></body>",
            "big",
        );
        assert_eq!(a.size, 7);
    }

    #[test]
    fn dtal_formula() {
        let mut la1 = LineAttrs::new();
        la1.insert(TextAttr::default());
        let mut la2 = la1.clone();
        assert_eq!(dtal(&la1, &la2), 0.0);
        let red = TextAttr {
            color: "red".into(),
            ..Default::default()
        };
        la2.insert(red);
        // |∩|=1, max=2 → 0.5
        assert!((dtal(&la1, &la2) - 0.5).abs() < 1e-12);
        assert_eq!(dtal(&LineAttrs::new(), &LineAttrs::new()), 0.0);
        // Disjoint sets → 1.0
        let mut la3 = LineAttrs::new();
        let green = TextAttr {
            color: "green".into(),
            ..Default::default()
        };
        la3.insert(green);
        assert_eq!(dtal(&la1, &la3), 1.0);
    }

    #[test]
    fn css_relative_sizes() {
        assert_eq!(css_font_size("smaller", 3), 2);
        assert_eq!(css_font_size("larger", 7), 7);
        assert_eq!(css_font_size("12px", 3), 3);
        assert_eq!(css_font_size("garbage", 4), 4);
    }
}
