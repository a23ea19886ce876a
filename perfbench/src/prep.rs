//! Untimed preparation shared by `extract-batch` and the serve
//! workloads: learn a wrapper set for every engine of the seed's testbed
//! and save + promote each into a wrapper store, the way `mse store`
//! does before `mse serve` loads it.

use std::path::Path;

use mse_core::{Extraction, Mse, MseConfig, SectionWrapperSet};
use mse_store::{Provenance, Store};
use mse_testbed::corpus::{Corpus, CorpusConfig};
use mse_testbed::EngineSpec;

use crate::util::Outcome;

/// First page index used for served / extracted pages; indices below it
/// are the 5 training samples.
pub const FIRST_TEST_PAGE: usize = 5;

pub struct Engine {
    pub name: String,
    pub spec: EngineSpec,
    pub set: SectionWrapperSet,
}

/// Testbeds per run: `--seed`, `--seed + 1`, `--seed + 2`. Per-page
/// and per-engine costs differ between testbeds, so a run averages over
/// three of them.
pub const TESTBEDS: u64 = 3;

/// The testbeds of a run.
pub fn testbeds(seed: u64) -> Vec<Corpus> {
    (0..TESTBEDS)
        .map(|k| {
            Corpus::generate(CorpusConfig {
                seed: seed.wrapping_add(k),
                ..CorpusConfig::default()
            })
        })
        .collect()
}

/// Learn every engine of the run's testbeds and publish the ones that
/// built into a fresh store at `store_dir`.
pub fn learn_and_store(seed: u64, store_dir: &Path, out: &mut Outcome) -> Option<Vec<Engine>> {
    let cfg = MseConfig::default();
    let mse = Mse::new(cfg.clone());
    let _ = std::fs::remove_dir_all(store_dir);
    let store = match Store::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            out.mismatch(format!("cannot open wrapper store: {e}"));
            return None;
        }
    };
    let mut engines = Vec::new();
    for corpus in testbeds(seed) {
        let tb = corpus.config.seed;
        let mut failed_ids = Vec::new();
        for spec in &corpus.engines {
            let samples = corpus.sample_pages(spec);
            let refs: Vec<(&str, Option<&str>)> = samples
                .iter()
                .map(|p| (p.html.as_str(), Some(p.query.as_str())))
                .collect();
            let Ok(set) = mse.build_with_queries(&refs) else {
                failed_ids.push(spec.id);
                continue;
            };
            // The daemon's registry refuses a set that fails this gate;
            // the batch workload serves the same engines as the daemon.
            if let Err(e) = mse_analyze::promotion_gate(&set) {
                out.note(format!(
                    "testbed {tb} engine {} learned a set the promotion gate rejects: {e}",
                    spec.id
                ));
                failed_ids.push(spec.id);
                continue;
            }
            let name = format!("t{tb}e{}", spec.id);
            let prov = Provenance::from_samples::<&str>(&[], &cfg, "perfbench");
            let saved = store
                .save(&name, &set, prov)
                .and_then(|v| store.promote(&name, v));
            if let Err(e) = saved {
                out.mismatch(format!("cannot save {name}: {e}"));
                return None;
            }
            engines.push(Engine {
                name,
                spec: spec.clone(),
                set,
            });
        }
        out.note(format!(
            "testbed seed {tb}: {} of {} engines built and pass the promotion gate \
             (left out: {failed_ids:?})",
            corpus.engines.len() - failed_ids.len(),
            corpus.engines.len()
        ));
    }
    Some(engines)
}

/// The one-shot reference every served or batch-extracted page must be
/// byte-identical to.
pub fn one_shot(set: &SectionWrapperSet, html: &str, query: &str) -> Extraction {
    set.extract_with_query(html, Some(query))
}

pub fn to_json(ex: &Extraction) -> String {
    serde_json::to_string(ex).unwrap_or_default()
}
