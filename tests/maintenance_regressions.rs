//! Regression tests for the ISSUE 7 health-check bugfixes, wired into
//! the default `cargo test` tier:
//!
//! 1. `health_check` must ingest untrusted pages through the budgeted,
//!    config-aware path — a hostile page trips the `ResourceBudget`
//!    (counted unhealthy) instead of blowing past the limits, and never
//!    aborts the rest of the batch.
//! 2. Sections served by an absorbing *family* must be attributed to the
//!    absorbed member wrappers — not dropped (which misreported absorbed
//!    wrappers as unobserved and concrete wrappers as dead), and their
//!    anomaly tallies must use the member's own threshold.

use mse::core::{DriftVerdict, Mse, MseConfig, ResourceBudget, SectionWrapperSet, WrapperStatus};
use mse::testbed::EngineSpec;

fn build_engine_set(engine_id: usize) -> SectionWrapperSet {
    let spec = EngineSpec::generate(2006, engine_id);
    let pages: Vec<_> = (0..5).map(|q| spec.page(q)).collect();
    let refs: Vec<(&str, Option<&str>)> = pages
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("wrapper induction")
}

/// Two same-format sections (Books, Videos) that the family builder
/// absorbs into one family — the `absorbed = [0, 1]` fixture from
/// `mse-core`'s family tests, driven through the full pipeline.
fn absorbed_serp(books: &[&str], videos: &[&str], query: &str) -> String {
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
    html.push_str("<hr><p>Copyright 2006 Seek Inc.</p></body>");
    html
}

fn build_absorbed_set() -> SectionWrapperSet {
    let htmls = [
        absorbed_serp(
            &["alpha", "beta", "gamma"],
            &["sun", "moon", "star"],
            "knee injury",
        ),
        absorbed_serp(
            &["red", "green", "blue"],
            &["rain", "wind", "snow"],
            "digital camera",
        ),
        absorbed_serp(
            &["one", "two", "three"],
            &["hill", "lake", "cave"],
            "jazz festival",
        ),
    ];
    let refs: Vec<(&str, Option<&str>)> = htmls
        .iter()
        .zip(["knee injury", "digital camera", "jazz festival"])
        .map(|(h, q)| (h.as_str(), Some(q)))
        .collect();
    Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("wrapper induction")
}

#[test]
fn health_check_budgets_hostile_pages_without_aborting() {
    let mut ws = build_engine_set(4);
    // A budget every healthy page passes comfortably but a node bomb
    // cannot. Before the fix, health_check used the infallible unbudgeted
    // parse and this page sailed through the limits.
    ws.cfg.budget = ResourceBudget {
        max_dom_nodes: 4_000,
        ..ResourceBudget::default()
    };
    let bomb = format!("<body>{}</body>", "<div><p>filler</p>".repeat(20_000));
    let spec = EngineSpec::generate(2006, 4);
    let good = spec.page(7);
    let pages: Vec<(&str, Option<&str>)> = vec![
        (bomb.as_str(), None),
        (good.html.as_str(), Some(good.query.as_str())),
    ];
    let report = ws.health_check(&pages);
    assert_eq!(report.pages_checked, 2);
    assert_eq!(report.ingest_failures, 1, "{report:?}");
    assert_eq!(report.empty_pages, 1);
    // The batch continued: the good page still registered a hit.
    assert!(
        report
            .wrappers
            .iter()
            .flatten()
            .any(|s| !matches!(s, WrapperStatus::Dead)),
        "{report:?}"
    );
    // An ingest failure is unhealthy (Degrading), not a batch abort and
    // not a rebuild order.
    assert_eq!(report.verdict(), DriftVerdict::Degrading);
    assert!(!report.needs_rebuild());
}

#[test]
fn health_check_attributes_family_sections_to_absorbed_members() {
    let ws = build_absorbed_set();
    assert_eq!(
        ws.absorbed,
        vec![0, 1],
        "fixture must produce an absorbing family; got families={:?}",
        ws.families.len()
    );
    let fresh = [
        absorbed_serp(&["mercury", "venus"], &["comet", "meteor"], "ocean climate"),
        absorbed_serp(
            &["earth", "mars", "saturn"],
            &["fog", "mist", "haze"],
            "ancient history",
        ),
    ];
    let pages: Vec<(&str, Option<&str>)> = fresh
        .iter()
        .zip(["ocean climate", "ancient history"])
        .map(|(h, q)| (h.as_str(), Some(q)))
        .collect();
    let report = ws.health_check(&pages);
    assert!(report.family_sections >= 4, "{report:?}");
    // Before the fix every wrapper slot reported None (absorbed discarded
    // at report time) and healthy_fraction was 0 on a perfectly healthy
    // batch. Attribution gives both absorbed members their hits back.
    let statuses: Vec<_> = report.wrappers.iter().flatten().collect();
    assert_eq!(statuses.len(), 2, "{report:?}");
    assert!(
        statuses
            .iter()
            .all(|s| matches!(s, WrapperStatus::Healthy { hits } if *hits > 0)),
        "{report:?}"
    );
    assert_eq!(report.healthy_fraction(), 1.0);
    assert_eq!(report.verdict(), DriftVerdict::Stable);
    assert!(!report.needs_rebuild());
    // Plausible family record counts must not raise anomaly flags under
    // any member's threshold.
    assert!(
        report
            .wrappers
            .iter()
            .flatten()
            .all(|s| !matches!(s, WrapperStatus::Degraded { .. })),
        "{report:?}"
    );
}
