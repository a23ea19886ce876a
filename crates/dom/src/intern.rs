//! Global tag-name interner.
//!
//! The extraction *serving* path (applying a learned wrapper to a fresh
//! result page) compares tag names, tag paths and record start-chains
//! millions of times per second. Comparing heap `String`s there is pure
//! overhead: the universe of distinct tag names in any corpus is tiny and
//! fixed. This module maps each distinct name to a [`Symbol`] — a `u32`
//! stable for the lifetime of the process — so every hot-path comparison
//! becomes one integer compare, and compiled wrappers can store tag paths
//! as flat `u32` arrays.
//!
//! Properties:
//!
//! * **Injective**: two calls to [`intern`] return the same `Symbol` iff
//!   the names are byte-identical, so symbol equality is exactly string
//!   equality (the compiled wrapper path relies on this for byte-identical
//!   output with the legacy string path).
//! * **Global and append-only**: symbols never move or expire. The common
//!   HTML vocabulary is pre-seeded at first use, so steady-state interning
//!   of real pages is a read-lock lookup that never takes the write lock.
//! * **Thread-safe**: any thread may intern/resolve concurrently.
//!
//! Memory: one copy of each distinct name is kept forever (names are
//! leaked into `&'static str`s so [`resolve`] can hand out references
//! without locking callers into a guard). Growth is bounded by the number
//! of *distinct* tag names ever seen, which per-page input budgets keep
//! per-request-bounded; a hostile tenant feeding endless invented tags
//! grows the table slowly (one small allocation per new name), which is
//! the standard global-interner trade-off and is called out in DESIGN.md
//! §11.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned tag name. `Symbol`s are plain `u32` indices: `Copy`,
/// `Eq`/`Ord`/`Hash` by value, and equal iff the interned strings are
/// equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Sentinel for "no tag here" (non-element nodes, padding in
    /// fixed-width chains). Never returned by [`intern`], never equal to
    /// any interned symbol.
    pub const NONE: Symbol = Symbol(u32::MAX);

    #[inline]
    pub fn is_none(self) -> bool {
        self == Symbol::NONE
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "sym(∅)")
        } else {
            match resolve(*self) {
                Some(name) => write!(f, "sym({name})"),
                None => write!(f, "sym#{}", self.0),
            }
        }
    }
}

/// Start-chain label of a text leaf (see `start_chain` in `mse-core`).
pub const TEXT_LABEL: &str = "#text";
/// Start-chain label of a non-element, non-text node.
pub const NODE_LABEL: &str = "#node";

struct Interner {
    map: RwLock<HashMap<&'static str, Symbol>>,
    names: RwLock<Vec<&'static str>>,
}

/// The common 2006-era HTML vocabulary, pre-seeded so that interning
/// ordinary pages never takes the write lock.
const SEED_TAGS: &[&str] = &[
    TEXT_LABEL,
    NODE_LABEL,
    "html",
    "head",
    "body",
    "title",
    "meta",
    "link",
    "script",
    "style",
    "table",
    "tbody",
    "thead",
    "tfoot",
    "tr",
    "td",
    "th",
    "div",
    "span",
    "p",
    "a",
    "b",
    "i",
    "u",
    "em",
    "strong",
    "font",
    "big",
    "small",
    "br",
    "hr",
    "img",
    "ul",
    "ol",
    "li",
    "dl",
    "dt",
    "dd",
    "h1",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "form",
    "input",
    "select",
    "option",
    "textarea",
    "button",
    "center",
    "blockquote",
    "pre",
    "code",
    "nobr",
    "sup",
    "sub",
];

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        // mse:allow(alloc): one-time global table seeding behind OnceLock
        let mut map = HashMap::with_capacity(SEED_TAGS.len() * 2);
        // mse:allow(alloc): one-time global table seeding behind OnceLock
        let mut names = Vec::with_capacity(SEED_TAGS.len() * 2);
        for &tag in SEED_TAGS {
            // Seed list entries are distinct; insert preserves first-wins
            // ids either way.
            map.entry(tag).or_insert_with(|| {
                let sym = Symbol(names.len() as u32);
                names.push(tag);
                sym
            });
        }
        Interner {
            map: RwLock::new(map),
            names: RwLock::new(names),
        }
    })
}

/// Intern a name, returning its process-stable [`Symbol`]. Lock poisoning
/// is recovered from (the tables are append-only; a panicked writer leaves
/// at worst a fully-inserted entry).
pub fn intern(name: &str) -> Symbol {
    intern_pair(name).0
}

/// Intern a name and hand back both its [`Symbol`] and the interner's
/// `&'static str` copy. The zero-copy parse path stores the static name in
/// [`crate::NodeData`] directly, so building an element node allocates
/// nothing once its tag has been seen.
pub fn intern_pair(name: &str) -> (Symbol, &'static str) {
    let int = interner();
    // mse:hot begin(intern-fast-path)
    // Steady-state interning of a seeded vocabulary never leaves this
    // read-lock probe; the write path below is cold (first sight of a
    // name) and is deliberately *outside* the hot region — it allocates
    // the leaked name by design.
    if let Some((&stored, &sym)) = int
        .map
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .get_key_value(name)
    {
        return (sym, stored);
    }
    // mse:hot end(intern-fast-path)
    let mut map = int.map.write().unwrap_or_else(|p| p.into_inner());
    // Double-check: another thread may have interned between the locks.
    if let Some((&stored, &sym)) = map.get_key_value(name) {
        return (sym, stored);
    }
    let mut names = int.names.write().unwrap_or_else(|p| p.into_inner());
    // mse:allow(alloc): first sighting of a new name leaks one owned copy
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let sym = Symbol(names.len() as u32);
    names.push(leaked);
    map.insert(leaked, sym);
    (sym, leaked)
}

/// Longest tag name the stack-buffer lowercase path handles; raw names
/// past this length fall back to a heap lowercase (they are pathological —
/// no real HTML vocabulary comes close).
pub(crate) const TAG_BUF: usize = 64;

/// Lowercase `raw` into `buf` without allocating, returning the borrowed
/// lowercase string, or `None` when `raw` does not fit.
#[inline]
pub(crate) fn lower_inline<'b>(raw: &str, buf: &'b mut [u8; TAG_BUF]) -> Option<&'b str> {
    let bytes = raw.as_bytes();
    if bytes.len() > TAG_BUF {
        return None;
    }
    for (dst, &src) in buf.iter_mut().zip(bytes) {
        *dst = src.to_ascii_lowercase();
    }
    // ASCII-lowercasing never breaks UTF-8 (non-ASCII bytes pass through),
    // so this cannot fail; the graceful fallback honors the crate's
    // panic-free policy anyway.
    std::str::from_utf8(buf.get(..bytes.len())?).ok()
}

// mse:hot begin(intern-tag-lower)
/// Intern the ASCII-lowercase of a raw tag name without allocating in the
/// steady state: the name is lowercased into a stack buffer and probed
/// against the interner directly.
pub fn intern_tag_lower(raw: &str) -> (Symbol, &'static str) {
    let mut buf = [0u8; TAG_BUF];
    match lower_inline(raw, &mut buf) {
        Some(lower) => intern_pair(lower),
        // Oversized (> 64-byte) tag names take a cold heap-lowercase
        // fallback; real vocabularies never reach it.
        None => intern_pair(&raw.to_ascii_lowercase()),
    }
}
// mse:hot end(intern-tag-lower)

/// Look a name up without inserting it.
pub fn lookup(name: &str) -> Option<Symbol> {
    interner()
        .map
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .get(name)
        .copied()
}

/// The string a symbol was interned from (`None` for [`Symbol::NONE`] or a
/// symbol from a different process).
// mse:hot begin(resolve)
pub fn resolve(sym: Symbol) -> Option<&'static str> {
    if sym.is_none() {
        return None;
    }
    interner()
        .names
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .get(sym.0 as usize)
        .copied()
}
// mse:hot end(resolve)

/// Snapshot of the interner contents in symbol order (seed vocabulary
/// included). Because the table is append-only, a snapshot taken at time T
/// is a prefix of any snapshot taken later in the same process — which is
/// what lets a persisted wrapper store re-warm a fresh process's interner
/// by re-interning a saved snapshot in order (see `mse-store`).
pub fn snapshot() -> Vec<&'static str> {
    interner()
        .names
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Re-intern a saved [`snapshot`]'s names in order. Idempotent: names
/// already present keep their symbols (append-only table), so warming is
/// safe at any point in the process lifetime.
pub fn warm<S: AsRef<str>>(names: &[S]) {
    for n in names {
        intern(n.as_ref());
    }
}

/// Number of distinct names interned so far (seed vocabulary included).
pub fn interned_count() -> usize {
    interner()
        .names
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The interner is process-global and these tests count its entries,
    /// so they run one at a time: a sibling interning a new name between
    /// one test's count and its check would move the count.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn symbols_are_stable_and_injective() {
        let _serial = serial();
        let a = intern("table");
        let b = intern("weird-custom-tag");
        assert_ne!(a, b);
        assert_eq!(intern("table"), a);
        assert_eq!(intern("weird-custom-tag"), b);
        assert_ne!(intern("tr"), intern("td"));
        assert!(!a.is_none());
        assert!(Symbol::NONE.is_none());
    }

    #[test]
    fn resolve_round_trips() {
        let _serial = serial();
        for name in ["html", "td", "#text", "another-odd-tag-xyz"] {
            let sym = intern(name);
            assert_eq!(resolve(sym), Some(name));
        }
        assert_eq!(resolve(Symbol::NONE), None);
        assert_eq!(resolve(Symbol(u32::MAX - 1)), None);
    }

    #[test]
    fn lookup_does_not_insert() {
        let _serial = serial();
        let before = interned_count();
        assert_eq!(lookup("never-interned-lookup-only-tag"), None);
        assert_eq!(interned_count(), before);
        let sym = intern("now-interned-tag");
        assert_eq!(lookup("now-interned-tag"), Some(sym));
    }

    #[test]
    fn seed_vocabulary_present() {
        let _serial = serial();
        for &tag in SEED_TAGS {
            assert!(lookup(tag).is_some(), "seed tag {tag} missing");
        }
    }

    #[test]
    fn intern_pair_returns_interned_storage() {
        let _serial = serial();
        let (sym, name) = intern_pair("table");
        assert_eq!(sym, intern("table"));
        assert_eq!(name, "table");
        assert_eq!(resolve(sym), Some(name));
    }

    #[test]
    fn intern_tag_lower_folds_case() {
        let _serial = serial();
        assert_eq!(intern_tag_lower("DIV"), intern_pair("div"));
        assert_eq!(intern_tag_lower("TaBlE"), intern_pair("table"));
        assert_eq!(intern_tag_lower("div"), intern_pair("div"));
        // Oversized names take the heap fallback but still fold case.
        let long = "X".repeat(100);
        assert_eq!(intern_tag_lower(&long), intern_pair(&long.to_lowercase()));
    }

    #[test]
    fn lower_inline_bounds() {
        let _serial = serial();
        let mut buf = [0u8; TAG_BUF];
        assert_eq!(lower_inline("BR", &mut buf), Some("br"));
        assert_eq!(lower_inline("", &mut buf), Some(""));
        assert_eq!(lower_inline(&"y".repeat(TAG_BUF + 1), &mut buf), None);
        // Non-ASCII passes through untouched.
        assert_eq!(lower_inline("Dérive", &mut buf), Some("dérive"));
    }

    #[test]
    fn snapshot_is_prefix_stable_and_warm_is_idempotent() {
        let _serial = serial();
        let before = snapshot();
        assert!(before.len() >= SEED_TAGS.len());
        let sym = intern("snapshot-only-tag");
        let after = snapshot();
        assert!(after.len() > before.len());
        assert_eq!(&after[..before.len()], &before[..], "append-only prefix");
        assert_eq!(after[sym.0 as usize], "snapshot-only-tag");
        // Warming with an existing snapshot changes nothing.
        let count = interned_count();
        warm(&after);
        assert_eq!(interned_count(), count);
        assert_eq!(intern("snapshot-only-tag"), sym);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let _serial = serial();
        let names: Vec<String> = (0..64).map(|i| format!("race-tag-{i}")).collect();
        let results: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let names = &names;
                    scope.spawn(move || names.iter().map(|n| intern(n)).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "threads disagree on symbols");
        }
        // And every symbol resolves back to its name.
        for (name, &sym) in names.iter().zip(&results[0]) {
            assert_eq!(resolve(sym), Some(name.as_str()));
        }
    }
}
