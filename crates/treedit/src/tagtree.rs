//! Owned tag trees lifted out of a [`mse_dom::Dom`], plus the normalized
//! tree / forest distances of paper §4.1.

use crate::sed::string_edit_distance_norm;
use crate::zs::tree_edit_distance;
use mse_dom::{Dom, NodeId, NodeKind};

/// An owned, ordered, labeled tree. Labels are tag names; text leaves are
/// represented with the pseudo-label `"#text"` so that a `<td>snippet</td>`
/// and an empty `<td>` differ structurally (the paper's tag structures are
/// what lies "underneath" viewable content, so the presence of content
/// matters, its characters do not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagTree {
    /// Nodes in the order they were built; `nodes[0]` is the root.
    pub labels: Vec<String>,
    pub children: Vec<Vec<usize>>,
}

impl TagTree {
    /// Single-node tree.
    pub fn leaf(label: impl Into<String>) -> TagTree {
        TagTree {
            labels: vec![label.into()],
            children: vec![vec![]],
        }
    }

    /// Build from a DOM subtree. Comments are skipped; pure-whitespace text
    /// is skipped (it does not render).
    pub fn from_dom(dom: &Dom, root: NodeId) -> TagTree {
        let mut t = TagTree {
            labels: Vec::new(),
            children: Vec::new(),
        };
        t.build(dom, root);
        t
    }

    fn build(&mut self, dom: &Dom, node: NodeId) -> usize {
        self.build_capped(dom, node, 0)
    }

    fn build_capped(&mut self, dom: &Dom, node: NodeId, depth: usize) -> usize {
        let label = match &dom[node].kind {
            NodeKind::Element { tag, .. } => tag.to_string(),
            NodeKind::Text(_) => "#text".to_string(),
            _ => "#doc".to_string(),
        };
        let idx = self.labels.len();
        self.labels.push(label);
        self.children.push(Vec::new());
        // Recursion guard: parsed DOMs are depth-clamped, so this only
        // protects against hand-built deep trees. Nodes at the cap become
        // leaves.
        if depth >= MAX_TREE_DEPTH {
            return idx;
        }
        for child in dom.children(node) {
            let keep = match &dom[child].kind {
                NodeKind::Element { .. } => true,
                NodeKind::Text(t) => !t.trim().is_empty(),
                _ => false,
            };
            if keep {
                let c = self.build_capped(dom, child, depth + 1);
                self.children[idx].push(c);
            }
        }
        idx
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// Root label.
    pub fn root_label(&self) -> &str {
        &self.labels[0]
    }

    /// Depth-first "shape signature" — handy for hashing / grouping.
    /// Iterative (explicit stack) so arbitrarily deep trees cannot
    /// overflow the call stack.
    pub fn signature(&self) -> String {
        enum Step {
            Open(usize),
            Close,
        }
        let mut out = String::new();
        let mut stack = vec![Step::Open(0)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Open(idx) => {
                    out.push('(');
                    out.push_str(&self.labels[idx]);
                    stack.push(Step::Close);
                    for &c in self.children[idx].iter().rev() {
                        stack.push(Step::Open(c));
                    }
                }
                Step::Close => out.push(')'),
            }
        }
        out
    }
}

/// Depth cap for [`TagTree::from_dom`]; nodes at the cap become leaves.
pub const MAX_TREE_DEPTH: usize = 1024;

/// Normalized tree edit distance `Dtt ∈ [0, 1]`: Zhang–Shasha distance with
/// unit costs, divided by the size of the larger tree and clamped (the raw
/// distance can reach `n1 + n2` when the trees are disjoint).
pub fn norm_tree_distance(a: &TagTree, b: &TagTree) -> f64 {
    let m = a.size().max(b.size());
    if m == 0 {
        return 0.0;
    }
    let d = tree_edit_distance(a, b);
    (d as f64 / m as f64).min(1.0)
}

/// Normalized tag-forest distance `Dtf ∈ [0, 1]` (paper §4.1): a forest is
/// an ordered list of tag trees compared by string edit distance whose
/// substitution cost is `Dtt`, normalized by the longer list.
pub fn forest_distance(a: &[TagTree], b: &[TagTree]) -> f64 {
    string_edit_distance_norm(a, b, norm_tree_distance)
}

/// Bounded variant of [`forest_distance`]: returns the exact value when it
/// is `<= bound`, and `f64::INFINITY` otherwise — typically without filling
/// the whole alignment table (see
/// [`string_edit_distance_bounded`](crate::sed::string_edit_distance_bounded)).
/// `bound` is in normalized units (`[0, 1]` like the result).
pub fn forest_distance_bounded(a: &[TagTree], b: &[TagTree], bound: f64) -> f64 {
    let m = a.len().max(b.len());
    if m == 0 {
        return 0.0;
    }
    let raw =
        crate::sed::string_edit_distance_bounded(a, b, norm_tree_distance, 1.0, bound * m as f64);
    if raw.is_finite() {
        raw / m as f64
    } else {
        f64::INFINITY
    }
}

/// Build the tag forest for a consecutive run of DOM nodes (e.g. a record's
/// top-level nodes). Skips whitespace-only text and comments.
pub fn forest_of(dom: &Dom, nodes: &[NodeId]) -> Vec<TagTree> {
    nodes
        .iter()
        .filter(|&&n| match &dom[n].kind {
            NodeKind::Element { .. } => true,
            NodeKind::Text(t) => !t.trim().is_empty(),
            _ => false,
        })
        .map(|&n| TagTree::from_dom(dom, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mse_dom::parse;

    fn tree_of(html: &str, tag: &str) -> TagTree {
        let dom = parse(html);
        let n = dom.find_tag(tag).unwrap();
        TagTree::from_dom(&dom, n)
    }

    #[test]
    fn from_dom_includes_text_leaves() {
        let t = tree_of("<body><td><a href=x>t</a><br>s</td></body>", "td");
        assert_eq!(t.root_label(), "td");
        assert_eq!(t.signature(), "(td(a(#text))(br)(#text))");
    }

    #[test]
    fn whitespace_text_skipped() {
        let t = tree_of("<body><div>  \n  <p>x</p>  </div></body>", "div");
        assert_eq!(t.signature(), "(div(p(#text)))");
    }

    #[test]
    fn identical_trees_distance_zero() {
        let a = tree_of("<body><td><a>x</a></td></body>", "td");
        let b = tree_of("<body><td><a>y</a></td></body>", "td");
        assert_eq!(norm_tree_distance(&a, &b), 0.0);
    }

    #[test]
    fn similar_records_small_distance() {
        // Same record shape, one with an extra snippet line.
        let a = tree_of("<body><td><a>t</a><br>snippet</td></body>", "td");
        let b = tree_of("<body><td><a>t</a></td></body>", "td");
        let d = norm_tree_distance(&a, &b);
        assert!(d > 0.0 && d < 0.5, "d = {d}");
    }

    #[test]
    fn different_structures_large_distance() {
        let a = tree_of("<body><td><a>t</a><br>s</td></body>", "td");
        let b = tree_of(
            "<body><div><ul><li>1</li><li>2</li><li>3</li><li>4</li></ul></div></body>",
            "div",
        );
        let d = norm_tree_distance(&a, &b);
        assert!(d > 0.5, "d = {d}");
    }

    #[test]
    fn forest_distance_basics() {
        let a = vec![tree_of("<body><p>x</p></body>", "p")];
        let b = vec![tree_of("<body><p>y</p></body>", "p")];
        assert_eq!(forest_distance(&a, &b), 0.0);
        assert_eq!(forest_distance(&[], &[]), 0.0);
        // One list empty → distance 1 per missing tree, normalized.
        assert_eq!(forest_distance(&a, &[]), 1.0);
    }

    #[test]
    fn forest_distance_order_sensitive() {
        let p = tree_of("<body><p>x</p></body>", "p");
        let d = tree_of("<body><div><span>z</span></div></body>", "div");
        let f1 = vec![p.clone(), d.clone()];
        let f2 = vec![d, p];
        assert!(forest_distance(&f1, &f2) > 0.0);
    }

    #[test]
    fn forest_of_skips_whitespace() {
        let dom = parse("<body><p>a</p>   <p>b</p></body>");
        let body = dom.find_tag("body").unwrap();
        let kids: Vec<_> = dom.children(body).collect();
        let f = forest_of(&dom, &kids);
        assert_eq!(f.len(), 2);
    }
}
