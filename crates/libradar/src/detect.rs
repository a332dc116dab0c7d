//! Library detection by package-subtree fingerprinting.
//!
//! LibRadar recognizes a library inside an app by hashing structural
//! features of a package subtree — features that survive package
//! renaming but differ for unrelated code. The reproduction fingerprints
//! a subtree as the SHA-256 of its *package-stripped* method structure:
//! for every method under the prefix, the class-local part of its
//! signature plus an opcode summary of its body, sorted. Two apps
//! bundling the same library version therefore produce identical
//! fingerprints, while first-party code (unique structure per app) never
//! matches the database.

use std::collections::{BTreeSet, HashMap};

use spector_dex::model::{DexFile, Instruction, MethodDef, MethodRef};
use spector_dex::sha256::{Digest, Sha256};

use crate::category::LibCategory;
use crate::index::PackageIndex;

/// A structural fingerprint of a package subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibraryFingerprint(pub Digest);

/// A library found in an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedLibrary {
    /// Canonical library package name from the database (which may
    /// differ from the in-app package when the copy was renamed).
    pub name: String,
    /// Package prefix the library occupies inside this app.
    pub in_app_prefix: String,
    /// Category from the database, if known.
    pub category: LibCategory,
}

/// The fingerprint database built from known libraries.
#[derive(Debug, Clone, Default)]
pub struct LibraryDb {
    by_fingerprint: HashMap<LibraryFingerprint, (String, LibCategory)>,
    /// Byte length of every registered library's fingerprint stream. A
    /// subtree whose stream has another length cannot hash to a
    /// registered fingerprint, so it is never hashed.
    stream_lens: BTreeSet<usize>,
}

impl LibraryDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a known library: `name` is its canonical package
    /// prefix, `dex` contains (at least) the library's methods under
    /// that prefix.
    pub fn add_library(&mut self, name: &str, category: LibCategory, dex: &DexFile) {
        let mut features = subtree_features(dex, name);
        if features.is_empty() {
            return;
        }
        self.stream_lens
            .insert(features.iter().map(|f| f.len() + 1).sum());
        let fp = hash_features(&mut features);
        self.by_fingerprint.insert(fp, (name.to_owned(), category));
    }

    /// Number of registered fingerprints.
    pub fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Returns `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.by_fingerprint.is_empty()
    }

    /// Looks up a fingerprint.
    pub fn lookup(&self, fp: &LibraryFingerprint) -> Option<(&str, LibCategory)> {
        self.by_fingerprint
            .get(fp)
            .map(|(name, cat)| (name.as_str(), *cat))
    }

    /// Detects all known libraries in `dex`.
    ///
    /// Every package prefix present in the app is fingerprinted and
    /// matched; when nested prefixes both match (a library plus one of
    /// its sub-packages registered separately), both are reported, which
    /// mirrors LibRadar's output granularity in Listing 2. Results are
    /// sorted by in-app prefix.
    pub fn detect(&self, dex: &DexFile) -> Vec<DetectedLibrary> {
        self.detect_in(&PackageIndex::build(dex))
    }

    /// [`detect`](Self::detect) over an already-built index of the app.
    pub fn detect_in(&self, index: &PackageIndex) -> Vec<DetectedLibrary> {
        index
            .prefixes()
            .iter()
            .filter(|prefix| self.stream_lens.contains(&prefix.stream_len))
            .filter_map(|prefix| {
                let (name, category) = self.lookup(&index.fingerprint(prefix))?;
                Some(DetectedLibrary {
                    name: name.to_owned(),
                    in_app_prefix: prefix.name.clone(),
                    category,
                })
            })
            .collect()
    }
}

/// All distinct package prefixes (every hierarchy level) of the app's
/// defined methods, sorted.
pub fn package_prefixes(dex: &DexFile) -> BTreeSet<String> {
    let mut prefixes = BTreeSet::new();
    for method in &dex.methods {
        let pkg = method.sig.package();
        if pkg.is_empty() {
            continue;
        }
        let parts: Vec<&str> = pkg.split('.').collect();
        for level in 1..=parts.len() {
            prefixes.insert(parts[..level].join("."));
        }
    }
    prefixes
}

/// Fingerprints the subtree of methods whose package equals `prefix` or
/// lies beneath it. Returns `None` when no methods are in the subtree.
///
/// This walks every method of the dex; [`LibraryDb::detect`] fingerprints
/// all prefixes of an app from one [`PackageIndex`] pass instead.
pub fn fingerprint_subtree(dex: &DexFile, prefix: &str) -> Option<LibraryFingerprint> {
    let mut features = subtree_features(dex, prefix);
    if features.is_empty() {
        return None;
    }
    Some(hash_features(&mut features))
}

/// The unsorted feature strings of `prefix`'s subtree.
fn subtree_features(dex: &DexFile, prefix: &str) -> Vec<String> {
    let mut features: Vec<String> = Vec::new();
    for method in &dex.methods {
        let pkg = method.sig.package();
        if !(pkg == prefix
            || pkg.starts_with(prefix) && pkg.as_bytes().get(prefix.len()) == Some(&b'.'))
        {
            continue;
        }
        // Package-stripped structure: the sub-package path *relative to
        // the prefix* plus class/method/descriptor, plus an opcode
        // string. Renaming the root package leaves all of this intact.
        let relative = &pkg[prefix.len().min(pkg.len())..];
        features.push(format!("{relative}{}", exact_tail(method)));
    }
    features
}

/// The prefix-independent part of a method's exact feature:
/// `|class|method|descriptor|opcodes`.
pub(crate) fn exact_tail(method: &MethodDef) -> String {
    let opcodes: String = method
        .code
        .instructions
        .iter()
        .map(|inst| match inst {
            Instruction::Nop => 'n',
            Instruction::Const(_) => 'c',
            Instruction::Invoke(MethodRef::Internal(_)) => 'i',
            Instruction::Invoke(MethodRef::External(_)) => 'e',
            Instruction::InvokeAsync { .. } => 'a',
            Instruction::Network(_) => 'w',
            Instruction::Return => 'r',
        })
        .collect();
    format!(
        "|{}|{}|{}|{opcodes}",
        method.sig.class_name(),
        method.sig.method_name(),
        method.sig.descriptor(),
    )
}

/// SHA-256 over the sorted, `\n`-terminated feature strings.
pub(crate) fn hash_features(features: &mut [String]) -> LibraryFingerprint {
    features.sort_unstable();
    let mut hasher = Sha256::new();
    for feature in features.iter() {
        hasher.update(feature.as_bytes());
        hasher.update(b"\n");
    }
    LibraryFingerprint(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{CodeItem, MethodDef};
    use spector_dex::sig::MethodSig;

    /// Builds a dex whose methods live under `root`.
    fn lib_dex(root: &str) -> DexFile {
        let methods = vec![
            MethodDef {
                sig: MethodSig::new(root, "Loader", "init", "()V"),
                code: CodeItem {
                    instructions: vec![Instruction::Const(1), Instruction::Return],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.cache"), "Store", "put", "(I)V"),
                code: CodeItem {
                    instructions: vec![Instruction::Nop, Instruction::Return],
                },
            },
        ];
        DexFile {
            methods,
            classes: vec![],
        }
    }

    fn merge(dexes: &[DexFile]) -> DexFile {
        let mut out = DexFile::new();
        for dex in dexes {
            out.methods.extend(dex.methods.iter().cloned());
        }
        out
    }

    #[test]
    fn fingerprint_survives_package_rename() {
        let original = fingerprint_subtree(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let renamed = fingerprint_subtree(&lib_dex("obf.a.b"), "obf.a.b").unwrap();
        assert_eq!(original, renamed);
    }

    #[test]
    fn fingerprint_differs_for_different_structure() {
        let a = fingerprint_subtree(&lib_dex("com.vendor.sdk"), "com.vendor.sdk").unwrap();
        let mut other = lib_dex("com.vendor.sdk");
        other.methods[0].code.instructions.push(Instruction::Nop);
        let b = fingerprint_subtree(&other, "com.vendor.sdk").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_none_for_empty_subtree() {
        assert!(fingerprint_subtree(&lib_dex("com.a"), "org.missing").is_none());
    }

    #[test]
    fn sibling_package_not_included_in_subtree() {
        // com.vendor.sdkextra must not be folded into com.vendor.sdk.
        let mut dex = lib_dex("com.vendor.sdk");
        let with_sibling = {
            let mut d = lib_dex("com.vendor.sdk");
            d.methods.push(MethodDef {
                sig: MethodSig::new("com.vendor.sdkextra", "X", "y", "()V"),
                code: CodeItem::default(),
            });
            d
        };
        let a = fingerprint_subtree(&dex, "com.vendor.sdk").unwrap();
        let b = fingerprint_subtree(&with_sibling, "com.vendor.sdk").unwrap();
        assert_eq!(a, b);
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.vendor.sdk.net", "Z", "w", "()V"),
            code: CodeItem::default(),
        });
        let c = fingerprint_subtree(&dex, "com.vendor.sdk").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn detect_finds_known_library_even_renamed() {
        let mut db = LibraryDb::new();
        db.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());

        // App bundles a renamed copy plus first-party code.
        let mut app = lib_dex("x.y"); // renamed copy of the ad sdk
        app.methods.push(MethodDef {
            sig: MethodSig::new("com.myapp", "Main", "onCreate", "()V"),
            code: CodeItem {
                instructions: vec![Instruction::Return],
            },
        });
        let detected = db.detect(&app);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].name, "com.adnet.sdk");
        assert_eq!(detected[0].in_app_prefix, "x.y");
        assert_eq!(detected[0].category, LibCategory::Advertisement);
    }

    #[test]
    fn first_party_code_not_detected() {
        let mut db = LibraryDb::new();
        db.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        let app = lib_dex("com.firstparty.app");
        // Same shape but different class names? lib_dex generates
        // identical structure, so it *will* match — mutate to make it
        // genuinely first-party.
        let mut app = app;
        app.methods[0]
            .code
            .instructions
            .insert(0, Instruction::Const(9));
        assert!(db.detect(&app).is_empty());
    }

    #[test]
    fn detect_reports_multiple_libraries() {
        let mut db = LibraryDb::new();
        db.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk"),
        );
        let analytics = {
            let mut d = lib_dex("io.metrics");
            d.methods[1].code.instructions.push(Instruction::Nop);
            d
        };
        db.add_library("io.metrics", LibCategory::MobileAnalytics, &analytics);
        let app = merge(&[lib_dex("com.adnet.sdk"), analytics.clone()]);
        let detected = db.detect(&app);
        let names: Vec<&str> = detected.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"com.adnet.sdk"));
        assert!(names.contains(&"io.metrics"));
    }

    #[test]
    fn package_prefixes_enumerates_all_levels() {
        let dex = lib_dex("com.vendor.sdk");
        let prefixes = package_prefixes(&dex);
        assert!(prefixes.contains("com"));
        assert!(prefixes.contains("com.vendor"));
        assert!(prefixes.contains("com.vendor.sdk"));
        assert!(prefixes.contains("com.vendor.sdk.cache"));
        assert_eq!(prefixes.len(), 4);
    }
}
