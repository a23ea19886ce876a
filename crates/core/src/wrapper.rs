//! Section wrappers (paper §5.7): construction from instance groups and
//! application to new pages.
//!
//! A wrapper is the paper's quaternion ⟨pref, seps, LBMs, RBMs⟩: `pref` is
//! the merged compact tag path to the minimum subtree holding all records,
//! `seps` the separator set that partitions the subtree's forest into
//! records, and the boundary-marker sets carry majority-voted cleaned
//! texts (plus line text attributes, which §5.8's families need).
//!
//! Separators are *start chains* — the tag of a record's first forest root
//! plus its first-child tag chain (depth 3), e.g. `tr>td>a`. A bare tag
//! would mis-split records that span several same-tag siblings (a classic
//! 2006 layout is a title `<tr>` followed by a snippet `<tr>` forming ONE
//! record: both rows are `tr`, but only the title row matches `tr>td>a`).
//! The boundary-marker texts also serve extraction: a spurious first/last
//! "record" whose text is exactly a known marker ("Click Here for More…"
//! rendered inside the container) is trimmed off.

use crate::config::MseConfig;
use crate::features::Rec;
use crate::grouping::InstanceRef;
use crate::page::Page;
use crate::section::SectionInst;
use mse_dom::{CompactTagPath, MergedTagPath, NodeId, NodeKind};
use mse_render::LineAttrs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A learned section wrapper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SectionWrapper {
    /// Merged tag path to the section container.
    pub pref: MergedTagPath,
    /// Start chains (tag>first-child>… depth 3) whose occurrence as a
    /// container child starts a new record.
    pub seps: Vec<String>,
    /// Majority-voted cleaned LBM texts (usually one).
    pub lbms: Vec<String>,
    pub rbms: Vec<String>,
    /// Line text attributes of the LBM/RBM lines (for section families).
    pub lbm_attrs: Vec<LineAttrs>,
    pub rbm_attrs: Vec<LineAttrs>,
    /// Text attributes observed on record lines (family condition: marker
    /// attrs must differ from record attrs).
    pub record_attrs: Vec<LineAttrs>,
    /// Records per instance seen at build time (sanity bounds).
    pub min_records_seen: usize,
    pub max_records_seen: usize,
    /// Number of sample-page instances this wrapper was built from.
    pub n_instances: usize,
    /// Line-type-code sequences of the records seen at build time (e.g.
    /// `[Link, Text]`); used by families to reject candidates whose
    /// records have shapes never observed for this structure.
    pub record_type_seqs: Vec<Vec<u8>>,
}

/// Build one wrapper from a group of matching section instances.
pub fn build_wrapper(
    pages: &[Page],
    sections: &[Vec<SectionInst>],
    group: &[InstanceRef],
) -> Option<SectionWrapper> {
    let mut insts: Vec<(&Page, &SectionInst)> = group
        .iter()
        .map(|r| (&pages[r.page], &sections[r.page][r.idx]))
        .collect();

    // Container per instance. A one-record instance is ambiguous — its
    // record covers the whole container, so the cover forest lifts one
    // level too high. Reconcile against the deepest (most specific) path
    // in the group: re-resolve it on the ambiguous instance's page and
    // accept the node whose line span covers the instance.
    let mut containers: Vec<Option<mse_dom::NodeId>> = insts
        .iter()
        .map(|(p, s)| crate::grouping::section_container(p, s))
        .collect();
    let mut paths: Vec<Option<CompactTagPath>> = insts
        .iter()
        .zip(&containers)
        .map(|((p, _), c)| c.map(|c| CompactTagPath::to_node(&p.rp.dom, c)))
        .collect();
    let mut deepest: CompactTagPath = paths
        .iter()
        .flatten()
        .max_by_key(|p| p.steps.len())
        .cloned()?;
    // If even the deepest container is page scaffolding, every instance in
    // the group over-lifted (all are single-record sections covering their
    // containers exactly); re-derive containers by drilling down through
    // single-child chains.
    if matches!(
        deepest.steps.last().map(|s| s.tag.as_str()),
        Some("body") | Some("html") | None
    ) {
        for i in 0..insts.len() {
            let (page, sec) = insts[i];
            if sec.records.len() == 1 {
                if let Some(c) = crate::grouping::record_parent_drilled(page, sec.records[0]) {
                    containers[i] = Some(c);
                    paths[i] = Some(CompactTagPath::to_node(&page.rp.dom, c));
                }
            }
        }
        deepest = paths
            .iter()
            .flatten()
            .max_by_key(|p| p.steps.len())
            .cloned()?;
    }
    let reference = MergedTagPath::merge(std::slice::from_ref(&deepest))?;
    for i in 0..insts.len() {
        let compatible = paths[i]
            .as_ref()
            .map(|p| p.compatible(&deepest))
            .unwrap_or(false);
        if compatible {
            continue;
        }
        let (page, sec) = insts[i];
        let fixed = reference
            .resolve_all(&page.rp.dom, 4)
            .into_iter()
            .filter(|&n| {
                crate::page::node_line_span(page, n)
                    .map(|(lo, hi)| lo <= sec.start && hi >= sec.end)
                    .unwrap_or(false)
            })
            .min_by_key(|&n| {
                crate::page::node_line_span(page, n)
                    .map(|(lo, hi)| hi - lo)
                    .unwrap_or(usize::MAX)
            });
        match fixed {
            Some(n) => {
                containers[i] = Some(n);
                paths[i] = Some(CompactTagPath::to_node(&page.rp.dom, n));
            }
            None => {
                containers[i] = None;
                paths[i] = None;
            }
        }
    }
    // Drop unreconcilable instances; require at least two left.
    let keep: Vec<usize> = (0..insts.len()).filter(|&i| paths[i].is_some()).collect();
    if keep.len() < 2 {
        return None;
    }
    insts = keep.iter().map(|&i| insts[i]).collect();
    // `keep` selects exactly the indices where both are Some.
    let containers: Vec<mse_dom::NodeId> = keep.iter().filter_map(|&i| containers[i]).collect();
    let paths: Vec<CompactTagPath> = keep.iter().filter_map(|&i| paths[i].clone()).collect();
    let pref = MergedTagPath::merge(&paths)?;

    // seps: start chains of the container children that open each record,
    // frequency-voted — a couple of boundary-glitched instances must not
    // smuggle a mid-record chain (e.g. the snippet row of a two-row
    // record) into the separator set.
    let mut chain_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_records = 0usize;
    for ((p, s), &container) in insts.iter().zip(&containers) {
        for r in &s.records {
            let Some(&leaf) = p.rp.lines[r.start].leaves.first() else {
                continue;
            };
            // The child of `container` on the leaf's ancestor chain.
            let child =
                p.rp.dom
                    .ancestry(leaf)
                    .into_iter()
                    .find(|&a| p.rp.dom[a].parent == Some(container));
            if let Some(child) = child {
                *chain_counts
                    .entry(start_chain(&p.rp.dom, child))
                    .or_insert(0) += 1;
                total_records += 1;
            }
        }
    }
    let need = ((total_records as f64) * 0.2).ceil().max(1.0) as usize;
    let mut seps: Vec<String> = chain_counts
        .iter()
        .filter(|(_, &c)| c >= need)
        .map(|(t, _)| t.clone())
        .collect();
    if seps.is_empty() {
        // Degenerate fallback: keep the most common chain.
        seps = chain_counts
            .into_iter()
            .max_by_key(|(_, c)| *c)
            .map(|(t, _)| vec![t])
            .unwrap_or_default();
    }
    if seps.is_empty() {
        return None;
    }
    seps.sort();

    // Majority-voted boundary marker texts + attrs.
    let vote = |marker: fn(&SectionInst) -> Option<usize>| -> (Vec<String>, Vec<LineAttrs>) {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut attrs: Vec<LineAttrs> = Vec::new();
        for (p, s) in &insts {
            if let Some(line) = marker(s) {
                let text = p.cleaned[line].clone();
                if !text.is_empty() {
                    *counts.entry(text).or_insert(0) += 1;
                }
                let la = p.rp.lines[line].attrs.clone();
                if !attrs.contains(&la) {
                    attrs.push(la);
                }
            }
        }
        let majority = insts.len().div_ceil(2);
        let texts: Vec<String> = counts
            .into_iter()
            .filter(|(_, c)| *c >= majority)
            .map(|(t, _)| t)
            .collect();
        (texts, attrs)
    };
    let (lbms, lbm_attrs) = vote(|s| s.lbm);
    let (rbms, rbm_attrs) = vote(|s| s.rbm);

    // Record-line attributes and type-code sequences (for family checks).
    let mut record_attrs: Vec<LineAttrs> = Vec::new();
    let mut record_type_seqs: Vec<Vec<u8>> = Vec::new();
    for (p, s) in &insts {
        for r in &s.records {
            let seq: Vec<u8> = (r.start..r.end)
                .map(|l| p.rp.lines[l].ltype.code())
                .collect();
            if !record_type_seqs.contains(&seq) {
                record_type_seqs.push(seq);
            }
            for l in r.start..r.end {
                let la = p.rp.lines[l].attrs.clone();
                if !record_attrs.contains(&la) {
                    record_attrs.push(la);
                }
            }
        }
    }

    let counts: Vec<usize> = insts.iter().map(|(_, s)| s.records.len()).collect();
    Some(SectionWrapper {
        pref,
        seps,
        lbms,
        rbms,
        lbm_attrs,
        rbm_attrs,
        record_attrs,
        min_records_seen: counts.iter().copied().min().unwrap_or(1),
        max_records_seen: counts.iter().copied().max().unwrap_or(1),
        n_instances: insts.len(),
        record_type_seqs,
    })
}

/// The start chain of a node: its tag followed by the first-child tag
/// chain, depth-limited (e.g. `tr>td>a`). Text leaves contribute `#text`.
pub fn start_chain(dom: &mse_dom::Dom, node: NodeId) -> String {
    let mut out = String::new();
    let mut cur = Some(node);
    for depth in 0..3 {
        let n = match cur {
            Some(n) => n,
            None => break,
        };
        let label = match &dom[n].kind {
            NodeKind::Element { tag, .. } => *tag,
            NodeKind::Text(_) => "#text",
            _ => "#node",
        };
        if depth > 0 {
            out.push('>');
        }
        out.push_str(label);
        cur = dom.children(n).find(|&c| match &dom[c].kind {
            NodeKind::Element { .. } => true,
            NodeKind::Text(t) => !t.trim().is_empty(),
            _ => false,
        });
    }
    out
}

/// Partition a container node's children into records by separator start
/// chains; returns record line ranges in document order.
///
/// Per-container work (child start chains, child line spans) is hoisted in
/// front of the grouping loop: the old shape re-scanned every page line
/// once per *group* (`lines_of_nodes`), making wrapper application
/// O(groups × lines × depth); one pass over the lines now computes every
/// child's span, and a group's span is a min/max merge of its members'.
pub fn partition_by_seps(page: &Page, container: NodeId, seps: &[String]) -> Vec<Rec> {
    let dom = &page.rp.dom;
    // Children that carry viewable content.
    let kids: Vec<NodeId> = dom
        .children(container)
        .filter(|&c| match &dom[c].kind {
            NodeKind::Element { .. } => true,
            NodeKind::Text(t) => !t.trim().is_empty(),
            _ => false,
        })
        .collect();
    if kids.is_empty() {
        return vec![];
    }
    // Hoisted span pass: each viewable leaf belongs to at most one child of
    // `container` (its unique ancestor-or-self whose parent is the
    // container), so one climb per leaf attributes every line to its kid.
    let kid_index: std::collections::HashMap<NodeId, usize> =
        kids.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut kid_spans: Vec<Option<(usize, usize)>> = vec![None; kids.len()];
    for (idx, line) in page.rp.lines.iter().enumerate() {
        for &leaf in &line.leaves {
            let mut cur = Some(leaf);
            while let Some(n) = cur {
                if dom[n].parent == Some(container) {
                    if let Some(&ki) = kid_index.get(&n) {
                        let span = kid_spans[ki].get_or_insert((idx, idx + 1));
                        span.0 = span.0.min(idx);
                        span.1 = span.1.max(idx + 1);
                    }
                    break;
                }
                cur = dom[n].parent;
            }
        }
    }
    // Group children (a child whose start chain is a separator opens a new
    // group), merging the precomputed spans as we go.
    let mut out: Vec<Option<(usize, usize)>> = Vec::new();
    for (ki, &k) in kids.iter().enumerate() {
        let chain = start_chain(dom, k);
        let is_sep = seps.contains(&chain);
        let span = kid_spans[ki];
        match out.last_mut() {
            Some(g) if !is_sep => {
                if let Some((lo, hi)) = span {
                    let merged = g.get_or_insert((lo, hi));
                    merged.0 = merged.0.min(lo);
                    merged.1 = merged.1.max(hi);
                }
            }
            _ => out.push(span),
        }
    }
    let out: Vec<Rec> = out
        .into_iter()
        .flatten()
        .map(|(lo, hi)| Rec::new(lo, hi))
        .collect();
    // Drop overlapping/degenerate ranges defensively (nested containers can
    // map two groups to one line).
    let mut deduped = out;
    deduped.dedup();
    let mut clean: Vec<Rec> = Vec::new();
    for r in deduped {
        if clean.last().map(|p| r.start >= p.end).unwrap_or(true) {
            clean.push(r);
        }
    }
    clean
}

/// One wrapper application attempt on a page: the best-matching container
/// instance, if any. The string-comparing statement of the matching rule;
/// production runs its compiled form (see [`crate::compiled`]), and this
/// stays as the reference the differential tests compare against.
pub fn apply_wrapper(
    page: &Page,
    cfg: &MseConfig,
    w: &SectionWrapper,
    claimed: &[NodeId],
) -> Option<(NodeId, SectionInst)> {
    // Resolve with increasing slack; prefer exact positions.
    let mut candidates: Vec<NodeId> = Vec::new();
    for slack in [0usize, cfg.pref_slack] {
        for n in w.pref.resolve_all(&page.rp.dom, slack) {
            if !candidates.contains(&n) && !claimed.contains(&n) {
                candidates.push(n);
            }
        }
        if !candidates.is_empty() && slack == 0 {
            break;
        }
    }
    let mut best: Option<(f64, NodeId, SectionInst)> = None;
    for cand in candidates {
        let mut records = partition_by_seps(page, cand, &w.seps);
        // Trim spurious boundary "records" that are really markers rendered
        // inside the container (e.g. a final "Click Here for More…" row).
        while let Some(last) = records.last() {
            if last.len() == 1 && w.rbms.contains(&page.cleaned[last.start]) {
                records.pop();
            } else {
                break;
            }
        }
        while let Some(first) = records.first() {
            if first.len() == 1 && w.lbms.contains(&page.cleaned[first.start]) {
                records.remove(0);
            } else {
                break;
            }
        }
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            continue;
        };
        let (start, end) = (first.start, last.end);
        // Marker agreement score.
        let lbm_ok = marker_matches(page, start.checked_sub(1), &w.lbms);
        let rbm_ok = marker_matches(page, (end < page.n_lines()).then_some(end), &w.rbms);
        let mut score = 0.0;
        if w.lbms.is_empty() || lbm_ok {
            score += 1.0;
        }
        if w.rbms.is_empty() || rbm_ok {
            score += 0.5;
        }
        if best.as_ref().map(|(bs, _, _)| score > *bs).unwrap_or(true) {
            let sec = SectionInst {
                start,
                end,
                records,
                lbm: start.checked_sub(1),
                rbm: (end < page.n_lines()).then_some(end),
            };
            best = Some((score, cand, sec));
        }
    }
    // Require at least the LBM-side agreement when the wrapper has LBMs.
    let (score, node, sec) = best?;
    if !w.lbms.is_empty() && score < 1.0 {
        return None;
    }
    let _ = cfg;
    Some((node, sec))
}

fn marker_matches(page: &Page, line: Option<usize>, expected: &[String]) -> bool {
    match line {
        Some(l) if !expected.is_empty() => expected.iter().any(|t| *t == page.cleaned[l]),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_instances;
    use crate::pipeline_steps_for_tests::sections_of_pages;

    fn serp(words: &[&str], query: &str) -> String {
        let mut html = format!(
            "<body><h1>Seek</h1><p>Results for <b>{query}</b>: 42 found</p><h3>Web Results</h3><table class=results>"
        );
        for (i, w) in words.iter().enumerate() {
            html.push_str(&format!(
                "<tr><td><a href=/d{i}>{w} title</a><br>{w} snippet body</td></tr>"
            ));
        }
        html.push_str("</table><p><a href=/more>Click Here for More</a></p><hr><p>Copyright 2006 Seek Inc.</p></body>");
        html
    }

    fn build_from(htmls: &[String], queries: &[&str]) -> (Vec<Page>, SectionWrapper) {
        let cfg = MseConfig::default();
        let (pages, sections) = sections_of_pages(htmls, queries, &cfg);
        let groups = group_instances(&pages, &sections, &cfg);
        assert_eq!(groups.len(), 1, "{groups:?}");
        let w = build_wrapper(&pages, &sections, &groups[0]).expect("wrapper");
        (pages, w)
    }

    #[test]
    fn wrapper_captures_structure_and_markers() {
        let htmls = [
            serp(&["alpha", "beta", "gamma", "delta"], "knee injury"),
            serp(&["red", "green", "blue"], "digital camera"),
            serp(&["one", "two", "three", "four"], "jazz festival"),
        ];
        let (_, w) = build_from(&htmls, &["knee injury", "digital camera", "jazz festival"]);
        assert_eq!(w.seps, vec!["tr>td>a"]);
        assert_eq!(w.lbms, vec!["Web Results"]);
        assert_eq!(w.rbms, vec!["Click Here for More"]);
        let tags: Vec<&str> = w.pref.steps.iter().map(|s| s.tag.as_str()).collect();
        assert_eq!(tags, vec!["html", "body", "table", "tbody"]);
        assert_eq!(w.min_records_seen, 3);
        assert_eq!(w.max_records_seen, 4);
    }

    #[test]
    fn wrapper_extracts_unseen_page() {
        let htmls = [
            serp(&["alpha", "beta", "gamma", "delta"], "knee injury"),
            serp(&["red", "green", "blue"], "digital camera"),
            serp(&["one", "two", "three", "four"], "jazz festival"),
        ];
        let (_, w) = build_from(&htmls, &["knee injury", "digital camera", "jazz festival"]);
        // A brand-new page with 6 records.
        let test = serp(
            &["mercury", "venus", "earth", "mars", "jupiter", "saturn"],
            "ocean climate",
        );
        let page = Page::from_html(&test, Some("ocean climate"));
        let cfg = MseConfig::default();
        let (_, sec) = apply_wrapper(&page, &cfg, &w, &[]).expect("extraction");
        assert_eq!(sec.records.len(), 6);
        let first = page.line_texts(sec.records[0].start, sec.records[0].end);
        assert_eq!(first, vec!["mercury title", "mercury snippet body"]);
    }

    #[test]
    fn wrapper_rejects_page_without_section() {
        let htmls = [
            serp(&["alpha", "beta", "gamma"], "knee injury"),
            serp(&["red", "green", "blue"], "digital camera"),
        ];
        let (_, w) = build_from(&htmls, &["knee injury", "digital camera"]);
        // A page whose table exists at a different place with a different
        // header: the LBM check must reject.
        let other = "<body><h1>Seek</h1><h3>Totally Different</h3><table class=results>\
            <tr><td><a href=/x>thing</a><br>stuff</td></tr></table></body>";
        let page = Page::from_html(other, None);
        let cfg = MseConfig::default();
        assert!(apply_wrapper(&page, &cfg, &w, &[]).is_none());
    }

    #[test]
    fn partition_by_seps_groups_children() {
        let page = Page::from_html(
            "<body><div id=c><h4>head</h4><div class=r><a href=1>a</a><br>s1</div><div class=r><a href=2>b</a><br>s2</div></div></body>",
            None,
        );
        let container = page.rp.dom.find_tag("div").unwrap();
        // Separator div: h4 (non-sep leading child) joins the first group.
        let recs = partition_by_seps(&page, container, &["div>a>#text".to_string()]);
        assert_eq!(recs.len(), 3); // [h4], [div r1], [div r2] — h4 starts its own group since groups was empty
    }
}

#[cfg(test)]
mod marker_trim_tests {
    use super::*;
    use crate::grouping::group_instances;
    use crate::pipeline_steps_for_tests::sections_of_pages;

    /// A "Click Here for More" row rendered INSIDE the results table must
    /// be trimmed off at extraction because its text matches the learned
    /// RBM set.
    #[test]
    fn in_container_more_row_trimmed() {
        let serp = |words: &[&str], query: &str| {
            let mut html = format!(
                "<body><h1>TrimSeek</h1><p>Results for <b>{query}</b>: 9 found</p>\
                 <h3>Web Results</h3><table class=results>"
            );
            for (i, w) in words.iter().enumerate() {
                html.push_str(&format!(
                    "<tr><td><a href=/d{i}>{w} page title</a><br>{w} page snippet</td></tr>"
                ));
            }
            html.push_str(
                "<tr><td align=center><a href=/more>Click Here for More</a></td></tr>\
                 </table><hr><p>Copyright TrimSeek Inc.</p></body>",
            );
            html
        };
        let htmls = [
            serp(&["alpha", "beta", "gamma", "delta"], "knee injury"),
            serp(&["red", "green", "blue"], "digital camera"),
            serp(&["one", "two", "three", "four"], "jazz festival"),
        ];
        let cfg = MseConfig::default();
        let (pages, sections) = sections_of_pages(
            &htmls,
            &["knee injury", "digital camera", "jazz festival"],
            &cfg,
        );
        let groups = group_instances(&pages, &sections, &cfg);
        let w = groups
            .iter()
            .filter_map(|g| build_wrapper(&pages, &sections, g))
            .next()
            .expect("wrapper");
        assert!(
            w.rbms.iter().any(|t| t.contains("Click Here for More")),
            "RBM text not learned: {:?}",
            w.rbms
        );
        // Fresh page: the trailing more-row must not come back as a record.
        let test = serp(
            &["mercury", "venus", "earth", "mars", "saturn"],
            "ocean climate",
        );
        let page = Page::from_html(&test, Some("ocean climate"));
        let (_, sec) = apply_wrapper(&page, &cfg, &w, &[]).expect("extraction");
        assert_eq!(sec.records.len(), 5, "{sec:?}");
        for r in &sec.records {
            let text = page.line_texts(r.start, r.end).join(" ");
            assert!(!text.contains("Click Here"), "more-row leaked: {text}");
        }
    }

    /// start_chain depth-limits and label shapes.
    #[test]
    fn start_chain_shapes() {
        let page = Page::from_html(
            "<body><table><tr><td><a href=1>x</a></td></tr></table>\
             <div class=r><a href=2><b>y</b></a></div>\
             <dl><dt>plain</dt></dl></body>",
            None,
        );
        let dom = &page.rp.dom;
        let tr = dom.find_tag("tr").unwrap();
        assert_eq!(start_chain(dom, tr), "tr>td>a");
        let div = dom.find_tag("div").unwrap();
        assert_eq!(start_chain(dom, div), "div>a>b");
        let dt = dom.find_tag("dt").unwrap();
        assert_eq!(start_chain(dom, dt), "dt>#text");
    }
}
