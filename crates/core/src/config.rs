//! All tunable constants of the MSE pipeline in one place.
//!
//! The paper names three constants explicitly: the position-distance
//! constant K = 0.127 (§4.3, lives in `mse-render`), the refinement /
//! granularity threshold W = 1.8 (§5.3, §5.5), and the ≥3-repetition
//! requirement of MRE (§5.1). The remaining weights and thresholds are
//! acknowledged by the paper only as "non-negative real numbers summing to
//! 1" or deferred to ViNTs \[29\]; their defaults here were tuned on *sample*
//! pages of the synthetic corpus only, mirroring the paper's §6 protocol
//! ("only the sample pages are used for wrapper construction and
//! parameter/threshold tuning").

use serde::{Deserialize, Serialize};

/// Record-mining strategy (§5.4). `Cohesion` is the paper's method;
/// `NaiveFirstSeparator` is the ablation baseline (A4 in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MiningMode {
    /// Enumerate candidate tag-forest separators, keep the partition with
    /// the highest section cohesion (Formula 7).
    Cohesion,
    /// Take the first structural separator found, no cohesion scoring.
    NaiveFirstSeparator,
}

/// Resource limits for ingesting one untrusted result page.
///
/// Each limit bounds one stage of the ingestion path (parse → render →
/// extract). During **build** a trip is a hard, typed error
/// ([`BuildError::Page`](crate::error::BuildError)); during **extraction**
/// parse-stage trips yield an empty result with a diagnostic and
/// render/extract-stage trips yield a *partial* result with a diagnostic
/// (see [`crate::error`]). Defaults are generous: any realistic result
/// page fits with two orders of magnitude to spare, so well-formed
/// corpora produce byte-identical output with or without the budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct ResourceBudget {
    /// Maximum HTML input size in bytes.
    pub max_input_bytes: usize,
    /// Maximum DOM nodes a page may parse into.
    pub max_dom_nodes: usize,
    /// Nesting depth at which the parser flattens (it never errors on
    /// depth — matching browser behaviour on pathological nesting).
    pub max_depth: usize,
    /// Maximum content lines a page may render into.
    pub max_content_lines: usize,
    /// Maximum records reported per extracted section; extra records are
    /// dropped with a diagnostic.
    pub max_records_per_section: usize,
    /// Optional wall-clock deadline per pipeline stage, in milliseconds.
    /// `None` = unlimited. Checked at stage boundaries, so a stage may
    /// overshoot before the trip is noticed.
    pub stage_deadline_ms: Option<u64>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_input_bytes: 8 << 20, // 8 MiB
            max_dom_nodes: 1_000_000,
            max_depth: mse_dom::DEFAULT_MAX_DEPTH,
            max_content_lines: 20_000,
            max_records_per_section: 5_000,
            stage_deadline_ms: None,
        }
    }
}

impl ResourceBudget {
    /// A budget that disables every limit (depth still clamps — the
    /// parser always flattens to keep downstream recursion bounded).
    pub fn unbounded() -> ResourceBudget {
        ResourceBudget {
            max_input_bytes: usize::MAX,
            max_dom_nodes: usize::MAX,
            max_depth: mse_dom::DEFAULT_MAX_DEPTH,
            max_content_lines: usize::MAX,
            max_records_per_section: usize::MAX,
            stage_deadline_ms: None,
        }
    }

    /// The parser-side slice of the budget.
    pub fn parse_limits(&self) -> mse_dom::ParseLimits {
        mse_dom::ParseLimits {
            max_input_bytes: self.max_input_bytes,
            max_nodes: self.max_dom_nodes,
            max_depth: self.max_depth,
        }
    }

    /// Validate sanity constraints; returns an error message on the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_input_bytes == 0 {
            return Err("budget max_input_bytes must be positive".into());
        }
        if self.max_dom_nodes == 0 {
            return Err("budget max_dom_nodes must be positive".into());
        }
        if self.max_depth < 4 {
            return Err("budget max_depth must be at least 4".into());
        }
        if self.max_content_lines == 0 {
            return Err("budget max_content_lines must be positive".into());
        }
        if self.max_records_per_section == 0 {
            return Err("budget max_records_per_section must be positive".into());
        }
        if self.stage_deadline_ms == Some(0) {
            return Err("budget stage_deadline_ms must be positive when set".into());
        }
        Ok(())
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MseConfig {
    /// Line-distance weights (u₁, u₂, u₃) for type / position / text-attr
    /// components (Formula 3). Must sum to 1.
    pub u: (f64, f64, f64),
    /// Record-distance weights (v₁..v₅) for tag-forest / block-type /
    /// block-shape / block-position / block-text-attr (Formula 4).
    /// Must sum to 1.
    pub v: (f64, f64, f64, f64, f64),
    /// The paper's W = 1.8: a record is foreign to a section when its
    /// average distance to the section's records exceeds `W × Dinr`.
    pub w_threshold: f64,
    /// Floor for the inter-record distance in `W × Dinr` tests — a section
    /// of identical records would otherwise have a zero threshold and
    /// reject everything.
    pub min_dinr: f64,
    /// MRE: minimum occurrences of a line pattern to seed a section (§5.1:
    /// "patterns that occur more than two times").
    pub min_pattern_repeat: usize,
    /// MRE: maximum content lines a single record may span.
    pub max_record_lines: usize,
    /// MRE: maximum average consecutive-record distance for a candidate MR
    /// to pass visual-similarity verification.
    pub mre_sim_threshold: f64,
    /// MRE: overlap fraction (of the smaller span) above which two
    /// tentative MRs are merged into one group.
    pub mr_overlap_merge: f64,
    /// DSE: fraction of page pairs that must agree for a line to be a CSBM
    /// (the paper runs DSE pairwise and leaves aggregation open).
    pub csbm_vote_frac: f64,
    /// Mining: partitions within this cohesion margin of the best are tied;
    /// ties break toward MORE records (separator evidence). Sized so that
    /// benign record-length variance (optional snippet lines inflate Dinr
    /// and favor the merged partition by a few hundredths) cannot beat the
    /// separator-indicated partition.
    pub cohesion_tie_eps: f64,
    /// Granularity (§5.5): a coarser re-merged partition is adopted only
    /// if its cohesion beats the current one by MORE than this margin —
    /// the mirror image of the mining tie-break, biasing toward finer
    /// records as the paper's similarity assumptions do.
    pub granularity_merge_margin: f64,
    /// Grouping: stable-marriage score threshold below which two section
    /// instances never match (§5.6 "below a threshold").
    pub section_match_threshold: f64,
    /// Grouping: weights for tag-path / SBM / format similarity in the
    /// section matching score.
    pub match_weights: (f64, f64, f64),
    /// Extraction: sibling-count slack when resolving a wrapper's merged
    /// tag path on a new page.
    pub pref_slack: usize,
    /// Extraction: slack for section-family paths (families generalize
    /// over sibling positions, §5.8).
    pub family_slack: usize,
    /// Ablation switches (DESIGN.md A1–A3).
    pub enable_refine: bool,
    pub enable_granularity: bool,
    pub enable_families: bool,
    pub mining: MiningMode,
    /// Worker threads for page-level fan-out (analysis, batch extraction)
    /// and pairwise distance loops. `0` = use all available cores, `1` =
    /// serial (no threads spawned). Results are identical for every
    /// setting — parallelism only changes wall-clock time.
    pub threads: usize,
    /// Use the memoized bounded distance engine: record-pair distances go
    /// through a build-owned [`DistanceCache`](crate::DistanceCache) so
    /// Formula 4–7 evaluations never recompute a seen pair, threshold
    /// tests use banded early-exit edit distances, and DSE matches lines
    /// through a text index. Disabling reverts every evaluation to the
    /// reference implementation (exact, unbounded, no memo) — results are
    /// identical either way; only wall-clock time changes.
    pub enable_distance_cache: bool,
    /// Resource limits for untrusted page ingestion. `#[serde(default)]`
    /// so configs saved before this field existed still deserialize.
    #[serde(default)]
    pub budget: ResourceBudget,
    /// Opt-in pre-serve verification gate: when set, serving surfaces
    /// (the CLI, `mse-analyze`'s gate) refuse to apply a wrapper set
    /// whose static verification reports error-level findings
    /// ([`BuildError::Verification`](crate::error::BuildError)). The
    /// analyses themselves live in the `mse-analyze` crate; this flag
    /// only records the operator's intent alongside the wrapper set.
    /// `#[serde(default)]` keeps wrapper files from before this field
    /// loading (gate off).
    #[serde(default)]
    pub strict_verify: bool,
    /// Thresholds for the rolling drift verdict and the shadow re-learn
    /// ring (see [`crate::maintenance`]). `#[serde(default)]` so configs
    /// saved before the lifecycle existed still deserialize.
    #[serde(default)]
    pub drift: crate::maintenance::DriftThresholds,
}

impl Default for MseConfig {
    fn default() -> Self {
        MseConfig {
            u: (0.40, 0.30, 0.30),
            v: (0.35, 0.25, 0.10, 0.05, 0.25),
            w_threshold: 1.8,
            min_dinr: 0.05,
            min_pattern_repeat: 3,
            max_record_lines: 10,
            mre_sim_threshold: 0.35,
            mr_overlap_merge: 0.5,
            csbm_vote_frac: 0.5,
            cohesion_tie_eps: 0.06,
            granularity_merge_margin: 0.10,
            section_match_threshold: 0.55,
            match_weights: (0.40, 0.30, 0.30),
            pref_slack: 2,
            family_slack: 6,
            enable_refine: true,
            enable_granularity: true,
            enable_families: true,
            mining: MiningMode::Cohesion,
            threads: 0,
            enable_distance_cache: true,
            budget: ResourceBudget::default(),
            strict_verify: false,
            drift: crate::maintenance::DriftThresholds::default(),
        }
    }
}

impl MseConfig {
    /// Validate weight simplex constraints; returns an error message on the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let su = self.u.0 + self.u.1 + self.u.2;
        if (su - 1.0).abs() > 1e-9 {
            return Err(format!("line-distance weights u must sum to 1 (got {su})"));
        }
        let sv = self.v.0 + self.v.1 + self.v.2 + self.v.3 + self.v.4;
        if (sv - 1.0).abs() > 1e-9 {
            return Err(format!(
                "record-distance weights v must sum to 1 (got {sv})"
            ));
        }
        for (name, w) in [
            ("u1", self.u.0),
            ("u2", self.u.1),
            ("u3", self.u.2),
            ("v1", self.v.0),
            ("v2", self.v.1),
            ("v3", self.v.2),
            ("v4", self.v.3),
            ("v5", self.v.4),
        ] {
            if w < 0.0 {
                return Err(format!("weight {name} must be non-negative"));
            }
        }
        if self.w_threshold <= 0.0 {
            return Err("W threshold must be positive".into());
        }
        if self.min_pattern_repeat < 2 {
            return Err("min_pattern_repeat must be at least 2".into());
        }
        self.budget.validate()?;
        self.drift.validate()?;
        Ok(())
    }

    /// The concrete worker count the `threads` knob resolves to.
    pub fn effective_threads(&self) -> usize {
        crate::par::effective_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MseConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_weights() {
        let c = MseConfig {
            u: (0.5, 0.5, 0.5),
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MseConfig {
            v: (1.0, 0.2, -0.2, 0.0, 0.0),
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_scalars() {
        let c = MseConfig {
            w_threshold: 0.0,
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MseConfig {
            min_pattern_repeat: 1,
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_budget() {
        let c = MseConfig {
            budget: ResourceBudget {
                max_content_lines: 0,
                ..ResourceBudget::default()
            },
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MseConfig {
            budget: ResourceBudget {
                stage_deadline_ms: Some(0),
                ..ResourceBudget::default()
            },
            ..MseConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(ResourceBudget::unbounded().validate().is_ok());
    }

    #[test]
    fn budget_defaults_when_missing_from_json() {
        // Configs serialized before the budget field existed must still
        // deserialize (serde(default) on the field and the struct).
        let mut v = serde::Serialize::to_value(&MseConfig::default());
        if let serde::Value::Map(m) = &mut v {
            m.retain(|(k, _)| k != "budget");
        } else {
            panic!("config serializes to a map");
        }
        let c: MseConfig = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(c.budget, ResourceBudget::default());
        // Partial budgets fill in the rest.
        let b: ResourceBudget = serde_json::from_str(r#"{"max_input_bytes": 1024}"#).unwrap();
        assert_eq!(b.max_input_bytes, 1024);
        assert_eq!(b.max_dom_nodes, ResourceBudget::default().max_dom_nodes);
    }

    #[test]
    fn paper_constants() {
        let c = MseConfig::default();
        assert!((c.w_threshold - 1.8).abs() < 1e-12);
        assert_eq!(c.min_pattern_repeat, 3);
    }
}
