//! # mse-treedit
//!
//! Edit distances used throughout the MSE pipeline (paper §4.1):
//!
//! * [`string_edit_distance`] — classic Levenshtein with pluggable
//!   substitution cost, used for tag-forest distance, block shape / type /
//!   text-attribute distances (\[24\] in the paper),
//! * [`tree_edit_distance`] — Zhang–Shasha ordered tree edit distance \[9\]
//!   over tag labels,
//! * [`TagTree`] + [`norm_tree_distance`] / [`forest_distance`] — the
//!   normalized tag-tree distance `Dtt` and tag-forest distance `Dtf`:
//!   a tag forest is "a string (ordered list) of tag trees", compared with
//!   string edit distance whose substitution cost is the normalized tree
//!   distance, normalized by the longer list.

// Panic-free and unsafe-free gates (see DESIGN.md §12): untrusted input
// must never abort the process, and the counting allocator in `mse-bench`
// is the workspace's only unsafe carve-out. Tests keep their unwraps.
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod sed;
pub mod tagtree;
pub mod zs;

pub use sed::{
    levenshtein, string_edit_distance, string_edit_distance_bounded, string_edit_distance_norm,
    string_edit_distance_norm_with, string_edit_distance_with,
};
pub use tagtree::{
    forest_distance, forest_distance_bounded, forest_of, norm_tree_distance, TagTree,
    MAX_TREE_DEPTH,
};
pub use zs::tree_edit_distance;
