//! Section families (paper §5.8) — the answer to the *hidden section
//! extraction problem*.
//!
//! Wrappers only cover section schemas seen on ≥ 2 sample pages. A
//! *section family* generalizes a set of wrappers that share record
//! structure: same separator set, and container paths that are either the
//! same tag sequence (Type 1 — position generalized) or share a common
//! prefix and suffix (Type 2 — one schema sits deeper/shallower). The
//! family additionally requires the members' boundary markers to share a
//! line text attribute that differs from every record line attribute —
//! that attribute is what identifies an *unseen* section's header at
//! extraction time, when its text has never been observed.
//!
//! Following the paper, wrappers absorbed into a family are dropped from
//! the concrete set ("the original section wrappers … are deleted") and
//! the family extracts all instances, seen or hidden.

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::features::Features;
use crate::page::Page;
use crate::section::SectionInst;
use crate::wrapper::{partition_by_seps, SectionWrapper};
use mse_dom::{CompactTagPath, MergedStep, MergedTagPath, NodeId};
use mse_render::LineAttrs;
use serde::{Deserialize, Serialize};

/// A section wrapper family.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FamilyWrapper {
    /// Type 1: widened merged path (same tag sequence for all members).
    /// Type 2: `None`; prefix/suffix tags are used instead.
    pub pref: Option<MergedTagPath>,
    /// Type 2 prefix/suffix tag sequences (set iff `pref` is None).
    pub prefix_tags: Vec<String>,
    pub suffix_tags: Vec<String>,
    pub seps: Vec<String>,
    /// The shared boundary-marker text attributes (aLBMs/aRBMs).
    pub lbm_attrs: Vec<LineAttrs>,
    pub record_attrs: Vec<LineAttrs>,
    /// Record line-type-code sequences observed across members; candidate
    /// records must match one of them.
    pub record_type_seqs: Vec<Vec<u8>>,
    /// Indices (into the pre-family wrapper list) of the absorbed members.
    pub members: Vec<usize>,
}

/// Build families from a wrapper list; returns the families and the set of
/// wrapper indices they absorbed.
pub fn build_families(wrappers: &[SectionWrapper]) -> (Vec<FamilyWrapper>, Vec<usize>) {
    let mut families = Vec::new();
    let mut absorbed: Vec<usize> = Vec::new();
    let n = wrappers.len();
    let mut used = vec![false; n];

    for i in 0..n {
        if used[i] {
            continue;
        }
        let mut members = vec![i];
        for j in i + 1..n {
            if used[j] || wrappers[j].seps != wrappers[i].seps {
                continue;
            }
            members.push(j);
        }
        if members.len() < 2 {
            continue;
        }
        // Marker attributes known to the family: the union over members'
        // LBM/RBM attributes, minus any that also appear on record lines
        // (the paper's condition — the marker attribute must be "different
        // from the line text attribute of any content line in any record").
        let record_attrs: Vec<LineAttrs> = members
            .iter()
            .flat_map(|&m| wrappers[m].record_attrs.iter().cloned())
            .collect();
        let record_type_seqs: Vec<Vec<u8>> = {
            let mut out: Vec<Vec<u8>> = Vec::new();
            for &m in &members {
                for t in &wrappers[m].record_type_seqs {
                    if !out.contains(t) {
                        out.push(t.clone());
                    }
                }
            }
            out
        };
        let shared = marker_attrs(wrappers, &members, &record_attrs);
        if shared.is_empty() {
            continue;
        }

        // Type 1: identical tag sequences → widen ranges.
        fn tags_of(w: &SectionWrapper) -> Vec<&str> {
            w.pref.steps.iter().map(|s| s.tag.as_str()).collect()
        }
        let first_tags = tags_of(&wrappers[i]);
        let type1 = members.iter().all(|&m| tags_of(&wrappers[m]) == first_tags);

        let fam = if type1 {
            let steps = (0..first_tags.len())
                .map(|lvl| MergedStep {
                    tag: first_tags[lvl].to_string(),
                    // `members` always holds at least wrapper `i`, so the
                    // min/max run over a non-empty iterator.
                    min_s: members
                        .iter()
                        .map(|&m| wrappers[m].pref.steps[lvl].min_s)
                        .min()
                        .unwrap_or(0),
                    max_s: members
                        .iter()
                        .map(|&m| wrappers[m].pref.steps[lvl].max_s)
                        .max()
                        .unwrap_or(0),
                })
                .collect();
            FamilyWrapper {
                pref: Some(MergedTagPath { steps }),
                prefix_tags: vec![],
                suffix_tags: vec![],
                seps: wrappers[i].seps.clone(),
                lbm_attrs: shared,
                record_attrs,
                record_type_seqs: record_type_seqs.clone(),
                members: members.clone(),
            }
        } else {
            // Type 2: common prefix + suffix across all members.
            let mut plen = usize::MAX;
            let mut slen = usize::MAX;
            for &m in &members[1..] {
                plen = plen.min(wrappers[i].pref.common_prefix_len(&wrappers[m].pref));
                slen = slen.min(wrappers[i].pref.common_suffix_len(&wrappers[m].pref));
            }
            let min_len = members
                .iter()
                .map(|&m| wrappers[m].pref.steps.len())
                .min()
                .unwrap_or(0);
            if plen == 0 || slen == 0 || plen + slen > min_len {
                continue;
            }
            FamilyWrapper {
                pref: None,
                prefix_tags: first_tags[..plen].iter().map(|s| s.to_string()).collect(),
                suffix_tags: first_tags[first_tags.len() - slen..]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                seps: wrappers[i].seps.clone(),
                lbm_attrs: shared,
                record_attrs,
                record_type_seqs,
                members: members.clone(),
            }
        };
        for &m in &members {
            used[m] = true;
        }
        absorbed.extend(members);
        families.push(fam);
    }
    // Extension (documented in DESIGN.md): single-member *generalization*
    // families. A hidden schema most often shares its record structure
    // with exactly ONE seen schema; a family built from that one wrapper
    // (widened sibling ranges, marker-attribute matching) can still
    // recognize it. These families do NOT absorb their member — the
    // concrete wrapper keeps its stronger text-based marker check and the
    // family only contributes extra candidates.
    for (i, w) in wrappers.iter().enumerate() {
        if used[i] {
            continue;
        }
        let record_attrs = w.record_attrs.clone();
        let shared = marker_attrs(wrappers, &[i], &record_attrs);
        if shared.is_empty() {
            continue;
        }
        families.push(FamilyWrapper {
            pref: Some(w.pref.clone()),
            prefix_tags: vec![],
            suffix_tags: vec![],
            seps: w.seps.clone(),
            lbm_attrs: shared,
            record_attrs,
            record_type_seqs: w.record_type_seqs.clone(),
            members: vec![i],
        });
    }
    absorbed.sort();
    (families, absorbed)
}

/// The boundary-marker attributes a family recognizes: every attribute a
/// member's LBM/RBM exhibited, excluding attributes that also occur on
/// record lines (those cannot identify a boundary).
fn marker_attrs(
    wrappers: &[SectionWrapper],
    members: &[usize],
    record_attrs: &[LineAttrs],
) -> Vec<LineAttrs> {
    let mut out: Vec<LineAttrs> = Vec::new();
    for &m in members {
        let w = &wrappers[m];
        for a in w.lbm_attrs.iter().chain(w.rbm_attrs.iter()) {
            if !a.is_empty() && !out.contains(a) && !record_attrs.contains(a) {
                out.push(a.clone());
            }
        }
    }
    out
}

/// Apply a family to a page: every validated candidate container becomes a
/// section instance. The string-comparing reference of the compiled
/// family matcher (see [`crate::compiled`]); no production path runs it.
pub fn apply_family(
    page: &Page,
    cfg: &MseConfig,
    fam: &FamilyWrapper,
    claimed: &[NodeId],
) -> Vec<(NodeId, SectionInst)> {
    let cache = DistanceCache::disabled();
    apply_family_with(&mut Features::with_cache(page, cfg, &cache), fam, claimed)
}

/// [`apply_family`] against a caller-owned [`Features`] calculator (one per
/// page, shared across all of a wrapper set's families).
pub(crate) fn apply_family_with(
    feats: &mut Features,
    fam: &FamilyWrapper,
    claimed: &[NodeId],
) -> Vec<(NodeId, SectionInst)> {
    let (page, cfg) = (feats.page, feats.cfg);
    let dom = &page.rp.dom;
    let candidates: Vec<NodeId> = match &fam.pref {
        Some(pref) => pref.resolve_all(dom, cfg.family_slack),
        None => {
            // Type 2: scan elements whose path tags carry the prefix and
            // suffix with a small middle gap.
            let min_len = fam.prefix_tags.len() + fam.suffix_tags.len();
            dom.preorder(dom.root())
                .filter(|&n| dom[n].is_element())
                .filter(|&n| {
                    let p = CompactTagPath::to_node(dom, n);
                    let tags: Vec<&str> = p.steps.iter().map(|s| s.tag.as_str()).collect();
                    tags.len() >= min_len
                        && tags.len() <= min_len + 5
                        && tags.starts_with(
                            &fam.prefix_tags
                                .iter()
                                .map(String::as_str)
                                .collect::<Vec<_>>()[..],
                        )
                        && tags.ends_with(
                            &fam.suffix_tags
                                .iter()
                                .map(String::as_str)
                                .collect::<Vec<_>>()[..],
                        )
                })
                .collect()
        }
    };
    // A record container nested inside another candidate is the record, not
    // the section — keep only outermost candidates.
    let outer: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&c| !candidates.iter().any(|&o| o != c && dom.is_ancestor(o, c)))
        .collect();
    let mut candidates = outer;
    // Skip only exact duplicates of already-proposed containers; overlap
    // between competing candidates is resolved globally by the extraction
    // selection step (weighted interval scheduling in the pipeline).
    candidates.retain(|&c| !claimed.contains(&c));

    let mut out = Vec::new();
    'cand: for cand in candidates {
        let mut records = partition_by_seps(page, cand, &fam.seps);
        // Trim boundary "records" whose line-type shape was never seen at
        // build time — these are markers rendered inside the container
        // (the family-level analogue of the wrapper's LBM/RBM text trim).
        if !fam.record_type_seqs.is_empty() {
            let shape_known = |r: &crate::features::Rec| {
                let seq: Vec<u8> = (r.start..r.end)
                    .map(|l| page.rp.lines[l].ltype.code())
                    .collect();
                fam.record_type_seqs.contains(&seq)
            };
            while records.last().map(|r| !shape_known(r)).unwrap_or(false) {
                records.pop();
            }
            while records.first().map(|r| !shape_known(r)).unwrap_or(false) {
                records.remove(0);
            }
        }
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            continue;
        };
        let (start, end) = (first.start, last.end);
        // The line before the section must look like a family header: its
        // attrs match the family marker attrs and no record line shares
        // them.
        let lbm_line = match start.checked_sub(1) {
            Some(l) => l,
            None => continue,
        };
        let lbm_attr = &page.rp.lines[lbm_line].attrs;
        // Accept a known marker style, or (hidden sections can carry header
        // styles never seen at build time) any style that is distinct from
        // every record-line style — the paper's defining condition for the
        // family marker attribute.
        let known = fam.lbm_attrs.contains(lbm_attr);
        let distinct_from_records = !lbm_attr.is_empty() && !fam.record_attrs.contains(lbm_attr);
        if !known && !distinct_from_records {
            continue;
        }
        for r in &records {
            for l in r.start..r.end {
                if page.rp.lines[l].attrs == *lbm_attr {
                    continue 'cand;
                }
            }
        }
        // Every candidate record must have a line-type shape seen at build
        // time (navigation menus and chrome blocks fail this even when
        // their container structure matches).
        if !fam.record_type_seqs.is_empty() {
            let all_shapes_known = records.iter().all(|r| {
                let seq: Vec<u8> = (r.start..r.end)
                    .map(|l| page.rp.lines[l].ltype.code())
                    .collect();
                fam.record_type_seqs.contains(&seq)
            });
            if !all_shapes_known {
                continue;
            }
        }
        // Records of one section must be mutually similar.
        if records.len() >= 2 && feats.dinr_exceeds(&records, cfg.mre_sim_threshold) {
            continue;
        }
        out.push((
            cand,
            SectionInst {
                start,
                end,
                records,
                lbm: Some(lbm_line),
                rbm: (end < page.n_lines()).then_some(end),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_instances;
    use crate::pipeline_steps_for_tests::sections_of_pages;
    use crate::wrapper::build_wrapper;

    /// Engine with two same-format div sections (Books, Videos) and a
    /// possible hidden third (Images).
    fn serp(books: &[&str], videos: &[&str], images: Option<&[&str]>, query: &str) -> String {
        let mut html = format!("<body><h1>Seek</h1><p>Results for <b>{query}</b>: 7 found</p>");
        let mut emit = |name: &str, words: &[&str]| {
            html.push_str(&format!(
                "<p><b><font color=\"#003366\">{name}</font></b></p><div class=results>"
            ));
            for (i, w) in words.iter().enumerate() {
                html.push_str(&format!(
                    "<div class=r><a href=\"/{name}/{i}\">{w} title</a><br>{w} snippet text</div>"
                ));
            }
            html.push_str("</div>");
        };
        emit("Books", books);
        emit("Videos", videos);
        if let Some(words) = images {
            emit("Images", words);
        }
        html.push_str("<hr><p>Copyright 2006 Seek Inc.</p></body>");
        html
    }

    fn wrappers_for(htmls: &[String], queries: &[&str]) -> (Vec<SectionWrapper>, MseConfig) {
        let cfg = MseConfig::default();
        let (pages, sections) = sections_of_pages(htmls, queries, &cfg);
        let groups = group_instances(&pages, &sections, &cfg);
        let ws: Vec<SectionWrapper> = groups
            .iter()
            .filter_map(|g| build_wrapper(&pages, &sections, g))
            .collect();
        (ws, cfg)
    }

    #[test]
    fn same_format_sections_form_type1_family() {
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                &["sun", "moon", "star"],
                None,
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                &["rain", "wind", "snow"],
                None,
                "digital camera",
            ),
            serp(
                &["one", "two", "three"],
                &["hill", "lake", "cave"],
                None,
                "jazz festival",
            ),
        ];
        let (ws, _) = wrappers_for(&htmls, &["knee injury", "digital camera", "jazz festival"]);
        assert_eq!(ws.len(), 2, "expected Books + Videos wrappers");
        let (fams, absorbed) = build_families(&ws);
        assert_eq!(fams.len(), 1, "{fams:?}");
        assert_eq!(absorbed, vec![0, 1]);
        assert!(fams[0].pref.is_some(), "same tag sequence → Type 1");
        assert_eq!(fams[0].seps, vec!["div>a>#text"]);
    }

    #[test]
    fn family_extracts_hidden_section() {
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                &["sun", "moon", "star"],
                None,
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                &["rain", "wind", "snow"],
                None,
                "digital camera",
            ),
            serp(
                &["one", "two", "three"],
                &["hill", "lake", "cave"],
                None,
                "jazz festival",
            ),
        ];
        let (ws, cfg) = wrappers_for(&htmls, &["knee injury", "digital camera", "jazz festival"]);
        let (fams, _) = build_families(&ws);
        assert_eq!(fams.len(), 1);
        // Test page includes the never-seen Images section.
        let test = serp(
            &["mercury", "venus"],
            &["comet", "meteor"],
            Some(&["nebula", "quasar", "pulsar"]),
            "ocean climate",
        );
        let page = Page::from_html(&test, Some("ocean climate"));
        let found = apply_family(&page, &cfg, &fams[0], &[]);
        assert_eq!(found.len(), 3, "Books + Videos + hidden Images: {found:?}");
        let images = &found[2].1;
        assert_eq!(images.records.len(), 3);
        let first = page.line_texts(images.records[0].start, images.records[0].end);
        assert_eq!(first, vec!["nebula title", "nebula snippet text"]);
    }

    #[test]
    fn family_rejects_nav_like_container() {
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                &["sun", "moon", "star"],
                None,
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                &["rain", "wind", "snow"],
                None,
                "digital camera",
            ),
        ];
        let (ws, cfg) = wrappers_for(&htmls, &["knee injury", "digital camera"]);
        let (fams, _) = build_families(&ws);
        assert_eq!(fams.len(), 1);
        // A page with a nav div whose preceding line is plain text — the
        // family's marker-attribute check must reject it.
        let page = Page::from_html(
            "<body><h1>Seek</h1><p>plain intro line</p><div class=nav>\
             <div><a href=/c1>Health</a></div><div><a href=/c2>Tech</a></div></div></body>",
            None,
        );
        let found = apply_family(&page, &cfg, &fams[0], &[]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn different_depth_schemas_form_type2_family() {
        // Section A's records live in a div directly under body; section
        // B's identical-format records live one table-cell deeper. Same
        // seps, same marker style, different tag-sequence prefs sharing a
        // prefix and a suffix → Type 2 family.
        let mk = |a_words: &[&str], b_words: &[&str], query: &str| {
            let mut html = format!("<body><h1>Seek</h1><p>Results for <b>{query}</b>: 5 found</p>");
            html.push_str("<p><b><font color=\"#003366\">Books</font></b></p><div class=results>");
            for (i, w) in a_words.iter().enumerate() {
                html.push_str(&format!(
                    "<div class=r><a href=\"/a{i}\">{w} title</a><br>{w} snippet text</div>"
                ));
            }
            html.push_str("</div>");
            html.push_str("<p><b><font color=\"#003366\">Videos</font></b></p><table><tr><td><div class=results2>");
            for (i, w) in b_words.iter().enumerate() {
                html.push_str(&format!(
                    "<div class=r><a href=\"/b{i}\">{w} title</a><br>{w} snippet text</div>"
                ));
            }
            html.push_str("</div></td></tr></table>");
            html.push_str("<hr><p>Copyright 2006 Seek Inc.</p></body>");
            html
        };
        let htmls = [
            mk(
                &["alpha", "beta", "gamma"],
                &["sun", "moon", "star"],
                "knee injury",
            ),
            mk(
                &["red", "green", "blue"],
                &["rain", "wind", "snow"],
                "digital camera",
            ),
            mk(
                &["one", "two", "three"],
                &["hill", "lake", "cave"],
                "jazz festival",
            ),
        ];
        let (ws, cfg) = wrappers_for(&htmls, &["knee injury", "digital camera", "jazz festival"]);
        assert_eq!(ws.len(), 2, "{ws:?}");
        let (fams, absorbed) = build_families(&ws);
        let type2 = fams
            .iter()
            .find(|f| f.pref.is_none())
            .expect("a Type 2 family");
        assert_eq!(absorbed, vec![0, 1]);
        assert_eq!(type2.prefix_tags, vec!["html", "body"]);
        assert_eq!(type2.suffix_tags, vec!["div"]);
        // Application on an unseen page finds BOTH sections through the
        // prefix/suffix scan.
        let test = mk(&["mercury", "venus"], &["comet", "meteor"], "ocean climate");
        let page = Page::from_html(&test, Some("ocean climate"));
        let found = apply_family(&page, &cfg, type2, &[]);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|(_, s)| s.records.len() == 2));
    }

    #[test]
    fn no_family_without_marker_attrs() {
        // If no member carries a usable boundary-marker attribute (or every
        // marker attribute also occurs on record lines), no family forms.
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                &["sun", "moon", "star"],
                None,
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                &["rain", "wind", "snow"],
                None,
                "digital camera",
            ),
        ];
        let (mut ws, _) = wrappers_for(&htmls, &["knee injury", "digital camera"]);
        assert_eq!(ws.len(), 2);
        for w in &mut ws {
            w.lbm_attrs.clear();
            w.rbm_attrs.clear();
        }
        let (fams, absorbed) = build_families(&ws);
        assert!(fams.is_empty(), "{fams:?}");
        assert!(absorbed.is_empty());
    }
}
