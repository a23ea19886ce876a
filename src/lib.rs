//! # mse — Multiple Section Extraction
//!
//! Façade crate for the reproduction of *"Automatic Extraction of Dynamic
//! Record Sections From Search Engine Result Pages"* (Zhao, Meng, Yu —
//! VLDB 2006). It re-exports the public API of every workspace crate so
//! that downstream users can depend on a single crate:
//!
//! ```
//! use mse::prelude::*;
//!
//! // Generate a tiny synthetic search engine and learn its wrapper.
//! let engine = EngineSpec::generate(42, 7);
//! let pages: Vec<String> = (0..5).map(|q| engine.result_page_html(q)).collect();
//! let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
//! let wrappers = Mse::new(MseConfig::default()).build(&refs).unwrap();
//! let extraction = wrappers.extract(&engine.result_page_html(99));
//! assert!(!extraction.sections.is_empty());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper→module map and `EXPERIMENTS.md` for the reproduced evaluation.

// Panic-free and unsafe-free gates (see DESIGN.md §12): untrusted input
// must never abort the process, and the counting allocator in `mse-bench`
// is the workspace's only unsafe carve-out. Tests keep their unwraps.
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use mse_algos as algos;
pub use mse_analyze as analyze;
pub use mse_annotate as annotate;
pub use mse_baselines as baselines;
pub use mse_core as core;
pub use mse_dom as dom;
pub use mse_eval as eval;
pub use mse_render as render;
pub use mse_serve as serve;
pub use mse_store as store;
pub use mse_testbed as testbed;
pub use mse_treedit as treedit;

/// Convenient glob import for applications.
pub mod prelude {
    pub use mse_annotate::{annotate_extraction, AnnotationModel, Role};
    pub use mse_core::{
        shadow_relearn, DriftThresholds, DriftTracker, DriftVerdict, HealthReport, RelearnOutcome,
    };
    pub use mse_core::{
        BuildError, Diagnostic, ExtractError, ExtractedSection, Extraction, Mse, MseConfig,
        MseError, ResourceBudget, SectionWrapperSet, Stage,
    };
    pub use mse_dom::{parse, parse_with_limits, Dom, DomError, ParseLimits};
    pub use mse_eval::{score_engine, CorpusScore};
    pub use mse_render::{RenderError, RenderedPage};
    pub use mse_serve::{Frame, Registry, Request, Server, ServerConfig};
    pub use mse_store::{relearn_into_store, Provenance, Store};
    pub use mse_testbed::{Corpus, CorpusConfig, DriftScenario, EngineSpec};
}
