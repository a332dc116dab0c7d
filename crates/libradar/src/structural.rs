//! The obfuscation-resistant detection tier: a signature index over
//! structural subtree profiles.
//!
//! The exact [`crate::LibraryDb`] fingerprint requires a byte-identical
//! identifier structure; one mangled class name and the SHA-256 never
//! matches again. This tier matches on [`StructuralProfile`]s instead —
//! multisets of hashed rename-invariant features (see
//! `spector_dex::features`) — scored by exact multiset Jaccard
//! similarity against every known library sharing at least one feature
//! bucket. An unmodified (but arbitrarily renamed, mangled, reordered,
//! junk-padded) library copy scores 1.0; unrelated code shares only
//! generic features and stays far below the match threshold.
//!
//! The three tiers compose into a cascade, recorded per lookup as a
//! [`DetectTier`]: `LibTrie` prefix (fast path, dies on package rename)
//! → exact fingerprint (survives rename, dies on identifier mangling)
//! → structural match (survives all simulated tiers) → miss.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use spector_dex::features::{subtree_profile, StructuralProfile};
use spector_dex::model::DexFile;

use crate::category::LibCategory;
use crate::index::PackageIndex;

/// Which cascade tier attributed a library lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DetectTier {
    /// `LibTrie` longest-prefix / majority vote on the raw package name.
    Trie,
    /// Exact `LibraryDb` subtree fingerprint bridged a renamed prefix.
    ExactFingerprint,
    /// Structural profile similarity bridged a mangled prefix.
    Structural,
    /// No tier produced a verdict (first-party or unknown code).
    Miss,
}

impl DetectTier {
    /// All tiers in cascade order.
    pub const ALL: [DetectTier; 4] = [
        DetectTier::Trie,
        DetectTier::ExactFingerprint,
        DetectTier::Structural,
        DetectTier::Miss,
    ];

    /// Stable snake_case label (telemetry/stat key spelling).
    pub fn label(self) -> &'static str {
        match self {
            DetectTier::Trie => "trie_hit",
            DetectTier::ExactFingerprint => "exact_fp_hit",
            DetectTier::Structural => "structural_hit",
            DetectTier::Miss => "miss",
        }
    }
}

/// Minimum multiset cardinality before a query subtree is even scored:
/// tiny subtrees (a class or two of generic glue) carry too little
/// evidence to claim a library match.
pub const MIN_MATCH_FEATURES: u64 = 10;

/// Similarity a best match must reach. A true library copy scores 1.0
/// under every obfuscation tier (features are invariant by design), so
/// the threshold's only job is rejecting partial overlaps: parent
/// prefixes that bundle a library beside other code, and coincidental
/// filler resemblance. Both empirically land well below 0.8.
pub const MATCH_THRESHOLD: f64 = 0.8;

/// A library recognized by structural similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralMatch {
    /// Canonical library package from the index.
    pub name: String,
    /// Package prefix the copy occupies inside the app.
    pub in_app_prefix: String,
    /// Category from the index.
    pub category: LibCategory,
    /// Multiset Jaccard similarity in `[threshold, 1.0]`.
    pub score: f64,
}

/// Signature index over structural profiles: feature hash → posting list
/// of `(library, multiplicity)`, scored by exact multiset Jaccard.
#[derive(Debug, Clone, Default)]
pub struct StructuralIndex {
    libs: Vec<(String, LibCategory, u64)>,
    buckets: HashMap<u64, Vec<(u32, u32)>>,
    /// Distinct profile totals of `libs`, sorted.
    totals: Vec<u64>,
}

impl StructuralIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a known library from its dex (methods under `name`).
    pub fn add_library(&mut self, name: &str, category: LibCategory, dex: &DexFile) {
        self.add_profile(name, category, &subtree_profile(dex, name));
    }

    /// Registers a known library from a precomputed profile.
    pub fn add_profile(&mut self, name: &str, category: LibCategory, profile: &StructuralProfile) {
        if profile.is_empty() {
            return;
        }
        let id = self.libs.len() as u32;
        let total = profile.total();
        if let Err(at) = self.totals.binary_search(&total) {
            self.totals.insert(at, total);
        }
        self.libs.push((name.to_owned(), category, total));
        for &(hash, count) in &profile.features {
            self.buckets.entry(hash).or_default().push((id, count));
        }
    }

    /// Number of indexed libraries.
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// Returns `true` when no libraries are indexed.
    pub fn is_empty(&self) -> bool {
        self.libs.is_empty()
    }

    /// Scores `profile` against the index and returns the best library at
    /// or above [`MATCH_THRESHOLD`], if any.
    ///
    /// Multiset Jaccard: `Σ min(q, l) / (Σq + Σl − Σ min(q, l))`,
    /// accumulated through the shared-bucket posting lists so only
    /// libraries with overlap are touched.
    pub fn best_match(&self, profile: &StructuralProfile) -> Option<StructuralMatch> {
        let q_total = profile.total();
        if !self.may_match(q_total) {
            return None;
        }
        let mut min_sum: HashMap<u32, u64> = HashMap::new();
        for &(hash, q_count) in &profile.features {
            if let Some(postings) = self.buckets.get(&hash) {
                for &(lib, l_count) in postings {
                    *min_sum.entry(lib).or_insert(0) += u64::from(q_count.min(l_count));
                }
            }
        }
        let mut best: Option<(u32, f64)> = None;
        for (lib, overlap) in min_sum {
            let (_, _, l_total) = self.libs[lib as usize];
            let union = q_total + l_total - overlap;
            let score = overlap as f64 / union as f64;
            // Deterministic tie-break: lower library id wins.
            let better = match best {
                None => true,
                Some((b_lib, b_score)) => score > b_score || (score == b_score && lib < b_lib),
            };
            if better {
                best = Some((lib, score));
            }
        }
        let (lib, score) = best?;
        if score < MATCH_THRESHOLD {
            return None;
        }
        let (name, category, _) = &self.libs[lib as usize];
        Some(StructuralMatch {
            name: name.clone(),
            in_app_prefix: String::new(),
            category: *category,
            score,
        })
    }

    /// Whether a profile of cardinality `q_total` can reach
    /// [`MATCH_THRESHOLD`] against any indexed library.
    ///
    /// The multiset overlap is at most `min(q, l)`, so the union is at
    /// least `max(q, l)` and the Jaccard score at most `min / max`.
    /// Correctly rounded division is monotone, so the ceiling computed
    /// with the score's own f64 arithmetic bounds every score exactly.
    /// `min / max` peaks at the nearest total on either side of `q`,
    /// so only those two are checked.
    fn may_match(&self, q_total: u64) -> bool {
        if q_total < MIN_MATCH_FEATURES {
            return false;
        }
        let at = self.totals.partition_point(|&l| l < q_total);
        let below = at.checked_sub(1).map(|i| self.totals[i]);
        let above = self.totals.get(at).copied();
        below.into_iter().chain(above).any(|l| {
            let ceiling = q_total.min(l) as f64 / q_total.max(l) as f64;
            ceiling >= MATCH_THRESHOLD
        })
    }

    /// Detects indexed libraries in `dex`: every package prefix is
    /// profiled and scored; prefixes whose best match clears the
    /// threshold are reported, sorted by in-app prefix.
    ///
    /// Only the actual root of a bundled copy scores near 1.0: parent
    /// prefixes shift every depth-sensitive feature and dilute the
    /// union, child prefixes lose the root's features — both fall below
    /// the threshold by construction.
    pub fn detect(&self, dex: &DexFile) -> Vec<StructuralMatch> {
        self.detect_in(&PackageIndex::build(dex))
    }

    /// [`detect`](Self::detect) over an already-built index of the app.
    /// A prefix whose profile size rules out every match is never
    /// profiled.
    pub fn detect_in(&self, index: &PackageIndex) -> Vec<StructuralMatch> {
        index
            .profiles(|total| self.may_match(total))
            .filter_map(|(prefix, profile)| {
                let mut m = self.best_match(&profile)?;
                m.in_app_prefix = prefix.name.clone();
                Some(m)
            })
            .collect()
    }
}

/// In-app prefix → canonical library package aliases, learned from
/// corpus-wide detection. `resolve` bridges an obfuscated origin package
/// back to canonical space so the existing verdict machinery (trie,
/// lists) can run on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixAliases {
    map: BTreeMap<String, String>,
}

impl PrefixAliases {
    /// Creates an empty alias table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `prefix` (as seen in an app) as an alias of `canonical`.
    /// Identity aliases are skipped: an un-renamed library needs no
    /// bridging and must not perturb the fast path.
    pub fn insert(&mut self, prefix: &str, canonical: &str) {
        if prefix != canonical {
            self.map.insert(prefix.to_owned(), canonical.to_owned());
        }
    }

    /// Number of recorded aliases.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no aliases are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rewrites `origin` onto canonical space via its longest aliased
    /// dotted prefix; `None` when no alias applies.
    pub fn resolve(&self, origin: &str) -> Option<String> {
        let mut end = origin.len();
        loop {
            let prefix = &origin[..end];
            if let Some(canonical) = self.map.get(prefix) {
                return Some(format!("{canonical}{}", &origin[end..]));
            }
            end = origin[..end].rfind('.')?;
        }
    }

    /// Linear-scan twin of [`PrefixAliases::resolve`] for the oracle
    /// pipeline: identical answers, no early exit structure shared.
    pub fn resolve_oracle(&self, origin: &str) -> Option<String> {
        let mut best: Option<(&str, &str)> = None;
        for (prefix, canonical) in &self.map {
            let applies = origin == prefix
                || (origin.starts_with(prefix.as_str())
                    && origin.as_bytes().get(prefix.len()) == Some(&b'.'));
            if applies && best.is_none_or(|(b, _)| prefix.len() > b.len()) {
                best = Some((prefix, canonical));
            }
        }
        best.map(|(prefix, canonical)| format!("{canonical}{}", &origin[prefix.len()..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{CodeItem, Instruction, MethodDef, MethodRef, NetworkOp};
    use spector_dex::sig::MethodSig;

    /// Two-class library with an internal call and a network op; `salt`
    /// varies the structure so different libraries stay distinct.
    fn lib_dex(root: &str, salt: usize) -> DexFile {
        let mut methods = vec![
            MethodDef {
                sig: MethodSig::new(root, "Sdk", "init", "(Landroid/content/Context;)V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Const(1),
                        Instruction::Invoke(MethodRef::Internal(1)),
                        Instruction::Return,
                    ],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.net"), "Fetcher", "run", "()V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Network(NetworkOp {
                            domain: "x.example".into(),
                            port: 443,
                            send_bytes: 1,
                            recv_bytes: 2,
                            connector: spector_dex::model::Connector::AndroidOkHttp,
                            shape: spector_dex::model::WireShape::Plain,
                        }),
                        Instruction::Return,
                    ],
                },
            },
        ];
        for i in 0..(4 + salt % 3) {
            methods.push(MethodDef {
                sig: MethodSig::new(
                    root,
                    &format!("C{i}"),
                    "m",
                    if i % 2 == salt % 2 { "(I)V" } else { "()V" },
                ),
                code: CodeItem {
                    instructions: vec![Instruction::Const(i as u32), Instruction::Return],
                },
            });
        }
        DexFile {
            methods,
            classes: vec![],
        }
    }

    fn index() -> StructuralIndex {
        let mut idx = StructuralIndex::new();
        idx.add_library(
            "com.adnet.sdk",
            LibCategory::Advertisement,
            &lib_dex("com.adnet.sdk", 0),
        );
        idx.add_library(
            "io.metrics",
            LibCategory::MobileAnalytics,
            &lib_dex("io.metrics", 1),
        );
        idx
    }

    #[test]
    fn identical_copy_scores_one() {
        let idx = index();
        let profile = subtree_profile(&lib_dex("com.adnet.sdk", 0), "com.adnet.sdk");
        let m = idx.best_match(&profile).expect("match");
        assert_eq!(m.name, "com.adnet.sdk");
        assert_eq!(m.category, LibCategory::Advertisement);
        assert!((m.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renamed_and_mangled_copy_still_matches() {
        let idx = index();
        // Same structure under a fresh root with mangled identifiers.
        let mut copy = lib_dex("qx.ab", 0);
        for (i, m) in copy.methods.iter_mut().enumerate() {
            m.sig = MethodSig::new(&m.sig.package(), &format!("k{i}"), "a", m.sig.descriptor());
        }
        let detected = idx.detect(&copy);
        assert!(detected
            .iter()
            .any(|m| m.name == "com.adnet.sdk" && m.in_app_prefix == "qx.ab"));
    }

    #[test]
    fn parent_and_child_prefixes_do_not_match() {
        let idx = index();
        // App dex: renamed lib under qx.ab plus unrelated sibling code
        // under qx.other — the parent prefix "qx" must not match.
        let mut app = lib_dex("qx.ab", 0);
        for i in 0..6 {
            app.methods.push(MethodDef {
                sig: MethodSig::new("qx.other", &format!("O{i}"), "f", "(J)V"),
                code: CodeItem {
                    instructions: vec![Instruction::Nop, Instruction::Return],
                },
            });
        }
        let matches = idx.detect(&app);
        assert!(matches.iter().all(|m| m.in_app_prefix != "qx"));
        assert!(matches.iter().any(|m| m.in_app_prefix == "qx.ab"));
        // The child prefix qx.ab.net alone lacks the root's features.
        assert!(matches.iter().all(|m| m.in_app_prefix != "qx.ab.net"));
    }

    #[test]
    fn unrelated_code_stays_below_threshold() {
        let idx = index();
        let mut first_party = DexFile::new();
        for i in 0..20 {
            first_party.methods.push(MethodDef {
                sig: MethodSig::new(
                    "com.myapp.data",
                    &format!("F{}", i / 4),
                    &format!("f{i}"),
                    "()V",
                ),
                code: CodeItem {
                    instructions: vec![Instruction::Const(i as u32), Instruction::Return],
                },
            });
        }
        assert!(idx.detect(&first_party).is_empty());
    }

    #[test]
    fn tiny_subtrees_are_not_scored() {
        let idx = index();
        let mut dex = DexFile::new();
        dex.methods.push(MethodDef {
            sig: MethodSig::new("a.b", "C", "m", "()V"),
            code: CodeItem {
                instructions: vec![Instruction::Return],
            },
        });
        let profile = subtree_profile(&dex, "a.b");
        assert!(profile.total() < MIN_MATCH_FEATURES);
        assert!(idx.best_match(&profile).is_none());
    }

    #[test]
    fn size_bound_admits_exactly_the_reachable_totals() {
        let idx = index();
        for q_total in 0..200 {
            let reachable = q_total >= MIN_MATCH_FEATURES
                && idx.libs.iter().any(|&(_, _, l)| {
                    q_total.min(l) as f64 / q_total.max(l) as f64 >= MATCH_THRESHOLD
                });
            assert_eq!(idx.may_match(q_total), reachable, "q_total {q_total}");
        }
    }

    #[test]
    fn alias_resolution_rewrites_longest_prefix() {
        let mut aliases = PrefixAliases::new();
        aliases.insert("qx.ab", "com.adnet.sdk");
        aliases.insert("qx.ab.net", "io.metrics");
        aliases.insert("com.adnet.sdk", "com.adnet.sdk"); // identity: dropped
        assert_eq!(aliases.len(), 2);
        assert_eq!(
            aliases.resolve("qx.ab.cache").as_deref(),
            Some("com.adnet.sdk.cache")
        );
        assert_eq!(aliases.resolve("qx.ab").as_deref(), Some("com.adnet.sdk"));
        assert_eq!(
            aliases.resolve("qx.ab.net.deep").as_deref(),
            Some("io.metrics.deep")
        );
        assert_eq!(aliases.resolve("qx.abc"), None);
        assert_eq!(aliases.resolve("com.other"), None);
        for origin in [
            "qx.ab.cache",
            "qx.ab",
            "qx.ab.net.deep",
            "qx.abc",
            "com.other",
            "qx",
        ] {
            assert_eq!(aliases.resolve(origin), aliases.resolve_oracle(origin));
        }
    }

    #[test]
    fn tier_labels_are_stable() {
        let labels: Vec<&str> = DetectTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            ["trie_hit", "exact_fp_hit", "structural_hit", "miss"]
        );
    }
}
