//! Golden output digests over the full 119-engine testbed (seed 2006):
//! every learned wrapper set and every one-shot extraction of a test page,
//! hashed to one FNV-1a-64 value each. Any change to the ingest front
//! end, the build steps or the matcher that moves a single byte of output
//! moves one of these constants.
//!
//! The digests cover the learned wrappers and families but not the
//! config a set was built with, so adding or removing a config field does
//! not move them.

use mse::core::{Mse, MseConfig};
use mse::testbed::EngineSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[test]
fn testbed_sets_and_extractions_match_recorded_digests() {
    let (mut sets, mut extractions) = (FNV_OFFSET, FNV_OFFSET);
    let mut failed = Vec::new();
    for e in 0..119 {
        let spec = EngineSpec::generate(2006, e);
        let samples: Vec<_> = (0..5).map(|q| spec.page(q)).collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        let Ok(set) = Mse::new(MseConfig::default()).build_with_queries(&refs) else {
            failed.push(e);
            continue;
        };
        fnv(
            &mut sets,
            serde_json::to_string(&set.wrappers).unwrap().as_bytes(),
        );
        fnv(
            &mut sets,
            serde_json::to_string(&set.families).unwrap().as_bytes(),
        );
        for q in 5..10 {
            let page = spec.page(q);
            let ex = set.extract_with_query(&page.html, Some(&page.query));
            fnv(
                &mut extractions,
                serde_json::to_string(&ex).unwrap().as_bytes(),
            );
        }
    }
    assert_eq!(failed, vec![41, 83], "engines whose build fails moved");
    assert_eq!(sets, 0x0301_4138_95fe_e115, "learned-set digest moved");
    assert_eq!(
        extractions, 0x2bf1_9b70_04bd_be64,
        "extraction digest moved"
    );
}
