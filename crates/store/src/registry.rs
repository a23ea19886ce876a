//! The on-disk registry: versioned wrapper files, content-addressed
//! interner snapshots, and an atomically flipped `active` pointer.

use crate::provenance::{hash_hex, Provenance};
use mse_core::SectionWrapperSet;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Store failures. IO and JSON errors keep their sources; the rest are
/// registry-level conditions a CLI can message directly.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Json(serde_json::Error),
    /// Engine names become directory names: no separators, no dot-dot,
    /// not empty.
    InvalidEngine(String),
    NoSuchEngine(String),
    NoSuchVersion(String, u32),
    /// The engine has no active version to roll back or load.
    NoActive(String),
    /// The active version has no parent recorded — first versions cannot
    /// roll back.
    NothingToRollback(String, u32),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Json(e) => write!(f, "store json error: {e}"),
            StoreError::InvalidEngine(n) => write!(f, "invalid engine name: {n:?}"),
            StoreError::NoSuchEngine(n) => write!(f, "no such engine in store: {n}"),
            StoreError::NoSuchVersion(n, v) => {
                write!(f, "engine {n} has no version {v}")
            }
            StoreError::NoActive(n) => write!(f, "engine {n} has no active version"),
            StoreError::NothingToRollback(n, v) => write!(
                f,
                "engine {n} active version {v} has no parent to roll back to"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> StoreError {
        StoreError::Json(e)
    }
}

/// One immutable stored version: the wrapper set plus its provenance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VersionRecord {
    pub provenance: Provenance,
    pub wrappers: SectionWrapperSet,
}

/// Per-engine registry file: which versions exist, which one serves.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Registry {
    active: Option<u32>,
    versions: Vec<u32>,
}

/// A wrapper store rooted at one directory.
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("interner"))?;
        Ok(Store { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn engine_dir(&self, engine: &str) -> Result<PathBuf, StoreError> {
        let ok = !engine.is_empty()
            && engine != "interner"
            && engine
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            && !engine.contains("..");
        if !ok {
            return Err(StoreError::InvalidEngine(engine.to_string()));
        }
        Ok(self.root.join(engine))
    }

    fn version_path(dir: &Path, version: u32) -> PathBuf {
        dir.join(format!("v{version:05}.json"))
    }

    fn read_registry(dir: &Path) -> Result<Registry, StoreError> {
        let path = dir.join("registry.json");
        if !path.exists() {
            return Ok(Registry::default());
        }
        Ok(serde_json::from_str(&fs::read_to_string(path)?)?)
    }

    /// Engines present in the store, sorted.
    pub fn engines(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if name != "interner" {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Stored versions for `engine`, ascending.
    pub fn versions(&self, engine: &str) -> Result<Vec<u32>, StoreError> {
        let dir = self.engine_dir(engine)?;
        if !dir.exists() {
            return Err(StoreError::NoSuchEngine(engine.to_string()));
        }
        Ok(Self::read_registry(&dir)?.versions)
    }

    /// The currently serving version for `engine`, if any was promoted.
    pub fn active_version(&self, engine: &str) -> Result<Option<u32>, StoreError> {
        let dir = self.engine_dir(engine)?;
        if !dir.exists() {
            return Err(StoreError::NoSuchEngine(engine.to_string()));
        }
        Ok(Self::read_registry(&dir)?.active)
    }

    /// Save a wrapper set as the next version of `engine` (without
    /// activating it — see [`Store::promote`]). Snapshots the global tag
    /// interner content-addressed beside it and fills
    /// [`Provenance::interner_hash`]. Returns the new version number.
    pub fn save(
        &self,
        engine: &str,
        set: &SectionWrapperSet,
        mut provenance: Provenance,
    ) -> Result<u32, StoreError> {
        let dir = self.engine_dir(engine)?;
        fs::create_dir_all(&dir)?;
        let mut registry = Self::read_registry(&dir)?;
        let version = registry.versions.iter().copied().max().unwrap_or(0) + 1;

        // Interner snapshot first: the version record references its hash.
        let names = mse_dom::intern::snapshot();
        let names_json = serde_json::to_string(&names)?;
        let hash = hash_hex(names_json.as_bytes());
        let snap_path = self.root.join("interner").join(format!("{hash}.json"));
        if !snap_path.exists() {
            write_atomic(&snap_path, names_json.as_bytes())?;
        }
        provenance.interner_hash = hash;

        let record = VersionRecord {
            provenance,
            wrappers: set.clone(),
        };
        write_atomic(
            &Self::version_path(&dir, version),
            serde_json::to_string_pretty(&record)?.as_bytes(),
        )?;

        registry.versions.push(version);
        write_atomic(
            &dir.join("registry.json"),
            serde_json::to_string_pretty(&registry)?.as_bytes(),
        )?;
        Ok(version)
    }

    /// Atomically make `version` the serving version for `engine`.
    pub fn promote(&self, engine: &str, version: u32) -> Result<(), StoreError> {
        let dir = self.engine_dir(engine)?;
        if !dir.exists() {
            return Err(StoreError::NoSuchEngine(engine.to_string()));
        }
        let mut registry = Self::read_registry(&dir)?;
        if !registry.versions.contains(&version) {
            return Err(StoreError::NoSuchVersion(engine.to_string(), version));
        }
        registry.active = Some(version);
        write_atomic(
            &dir.join("registry.json"),
            serde_json::to_string_pretty(&registry)?.as_bytes(),
        )?;
        Ok(())
    }

    /// Roll the active pointer back to the active version's recorded
    /// parent. Returns the version now serving.
    pub fn rollback(&self, engine: &str) -> Result<u32, StoreError> {
        let dir = self.engine_dir(engine)?;
        if !dir.exists() {
            return Err(StoreError::NoSuchEngine(engine.to_string()));
        }
        let registry = Self::read_registry(&dir)?;
        let active = registry
            .active
            .ok_or_else(|| StoreError::NoActive(engine.to_string()))?;
        let (_, record) = self.load(engine, active)?;
        let parent = record
            .provenance
            .parent
            .ok_or(StoreError::NothingToRollback(engine.to_string(), active))?;
        self.promote(engine, parent)?;
        Ok(parent)
    }

    /// Load one stored version. Warms the global interner from the
    /// version's snapshot *before* returning, so a fresh process compiles
    /// the set under the same `Symbol` assignment it was saved (and
    /// verified) with.
    pub fn load(
        &self,
        engine: &str,
        version: u32,
    ) -> Result<(SectionWrapperSet, VersionRecord), StoreError> {
        let dir = self.engine_dir(engine)?;
        let path = Self::version_path(&dir, version);
        if !path.exists() {
            return Err(StoreError::NoSuchVersion(engine.to_string(), version));
        }
        let record: VersionRecord = serde_json::from_str(&fs::read_to_string(path)?)?;
        let snap_path = self
            .root
            .join("interner")
            .join(format!("{}.json", record.provenance.interner_hash));
        if snap_path.exists() {
            let names: Vec<String> = serde_json::from_str(&fs::read_to_string(snap_path)?)?;
            mse_dom::intern::warm(&names);
        }
        Ok((record.wrappers.clone(), record))
    }

    /// Load the active version for `engine`.
    pub fn load_active(
        &self,
        engine: &str,
    ) -> Result<(u32, SectionWrapperSet, VersionRecord), StoreError> {
        let active = self
            .active_version(engine)?
            .ok_or_else(|| StoreError::NoActive(engine.to_string()))?;
        let (set, record) = self.load(engine, active)?;
        Ok((active, set, record))
    }
}

/// Write-to-temp + rename so readers never observe a half-written file
/// and a crash mid-write leaves the previous contents serving.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use mse_core::{Mse, MseConfig};
    use mse_testbed::EngineSpec;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("mse-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn build_set() -> SectionWrapperSet {
        let spec = EngineSpec::generate(2006, 4);
        let pages: Vec<_> = (0..5).map(|q| spec.page(q)).collect();
        let refs: Vec<(&str, Option<&str>)> = pages
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        Mse::new(MseConfig::default())
            .build_with_queries(&refs)
            .unwrap()
    }

    #[test]
    fn save_promote_load_round_trip() {
        let store = temp_store("roundtrip");
        let set = build_set();
        let prov = Provenance::from_samples(&["page-a", "page-b"], &set.cfg, "initial");
        let v = store.save("engine4", &set, prov).unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.versions("engine4").unwrap(), vec![1]);
        assert_eq!(store.active_version("engine4").unwrap(), None);
        store.promote("engine4", 1).unwrap();
        assert_eq!(store.active_version("engine4").unwrap(), Some(1));

        let (active, loaded, record) = store.load_active("engine4").unwrap();
        assert_eq!(active, 1);
        assert_eq!(record.provenance.sample_hashes.len(), 2);
        assert!(!record.provenance.interner_hash.is_empty());
        // Byte-identical extraction after the round trip.
        let spec = EngineSpec::generate(2006, 4);
        let page = spec.page(7);
        let a = set.extract_with_query(&page.html, Some(&page.query));
        let b = loaded.extract_with_query(&page.html, Some(&page.query));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn versions_are_immutable_and_monotonic() {
        let store = temp_store("monotonic");
        let set = build_set();
        let p = |n: &str| Provenance::from_samples(&["x"], &set.cfg, n);
        assert_eq!(store.save("e", &set, p("one")).unwrap(), 1);
        assert_eq!(store.save("e", &set, p("two")).unwrap(), 2);
        assert_eq!(store.save("e", &set, p("three")).unwrap(), 3);
        assert_eq!(store.versions("e").unwrap(), vec![1, 2, 3]);
        let (_, r1) = store.load("e", 1).unwrap();
        assert_eq!(r1.provenance.note, "one");
    }

    #[test]
    fn rollback_follows_parent_chain() {
        let store = temp_store("rollback");
        let set = build_set();
        let v1 = store
            .save(
                "e",
                &set,
                Provenance::from_samples(&["x"], &set.cfg, "initial"),
            )
            .unwrap();
        store.promote("e", v1).unwrap();
        let mut p2 = Provenance::from_samples(&["y"], &set.cfg, "relearn");
        p2.parent = Some(v1);
        let v2 = store.save("e", &set, p2).unwrap();
        store.promote("e", v2).unwrap();
        assert_eq!(store.active_version("e").unwrap(), Some(2));
        assert_eq!(store.rollback("e").unwrap(), 1);
        assert_eq!(store.active_version("e").unwrap(), Some(1));
        // v1 has no parent: nothing further to roll back to.
        assert!(matches!(
            store.rollback("e"),
            Err(StoreError::NothingToRollback(_, 1))
        ));
    }

    #[test]
    fn store_level_errors_are_typed() {
        let store = temp_store("errors");
        assert!(matches!(
            store.versions("ghost"),
            Err(StoreError::NoSuchEngine(_))
        ));
        assert!(matches!(
            store.engine_dir("../evil"),
            Err(StoreError::InvalidEngine(_))
        ));
        assert!(matches!(
            store.engine_dir("interner"),
            Err(StoreError::InvalidEngine(_))
        ));
        let set = build_set();
        store
            .save("e", &set, Provenance::from_samples(&["x"], &set.cfg, ""))
            .unwrap();
        assert!(matches!(
            store.promote("e", 9),
            Err(StoreError::NoSuchVersion(_, 9))
        ));
        assert!(matches!(
            store.load_active("e"),
            Err(StoreError::NoActive(_))
        ));
        assert_eq!(store.engines().unwrap(), vec!["e".to_string()]);

        // A hostile version file nested a million levels deep is a JSON
        // error, not a stack overflow.
        let mut deep = br#"{"unknown":"#.to_vec();
        deep.resize(deep.len() + 1_000_000, b'[');
        let path = Store::version_path(&store.engine_dir("e").unwrap(), 1);
        fs::write(path, deep).unwrap();
        match store.load("e", 1) {
            Err(StoreError::Json(e)) => assert!(e.to_string().contains("nesting"), "{e}"),
            other => panic!("expected a JSON error, got {other:?}"),
        }
    }

    #[test]
    fn interner_snapshots_are_content_addressed() {
        let store = temp_store("interner");
        let set = build_set();
        let p = |n: &str| Provenance::from_samples(&["x"], &set.cfg, n);
        store.save("e", &set, p("one")).unwrap();
        store.save("e", &set, p("two")).unwrap();
        let (_, r1) = store.load("e", 1).unwrap();
        let (_, r2) = store.load("e", 2).unwrap();
        // Same interner state at both saves -> one shared snapshot file.
        assert_eq!(r1.provenance.interner_hash, r2.provenance.interner_hash);
        let snaps: Vec<_> = fs::read_dir(store.root().join("interner"))
            .unwrap()
            .collect();
        assert_eq!(snaps.len(), 1);
    }
}
