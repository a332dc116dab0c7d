//! Seeded synthetic obfuscator: the ground-truth generator for the
//! obfuscation-resistant detection tier.
//!
//! Real obfuscators (ProGuard/R8, DexGuard, Allatori) attack exactly the
//! evidence the fast detection paths rely on: the package name the
//! `LibTrie` prefix-matches, and the identifier strings the exact
//! `LibraryDb` fingerprint hashes. This module reproduces those attacks
//! on generated apps, in cumulative tiers, while *keeping the app
//! runnable* (first-party code and manifest entry points untouched,
//! internal references fixed up) and emitting the canonical-root →
//! obfuscated-root mapping as ground truth for the precision/recall
//! harness.
//!
//! Tier semantics (each includes the previous):
//!
//! * [`ObfuscationTier::Rename`] — every instantiated library subtree is
//!   re-rooted under a fresh two-component package (`com.unity3d.ads` →
//!   `qx.ab`). Kills the trie; the exact fingerprint survives because
//!   identifiers *below* the root are unchanged.
//! * [`ObfuscationTier::Mangle`] — class and method identifiers inside
//!   library subtrees are replaced by sequential single letters. Kills
//!   the exact fingerprint; structural profiles survive because no
//!   identifier reaches their hashes.
//! * [`ObfuscationTier::Junk`] — the method table is permuted
//!   (references fixed up) and `Nop`/`Const` filler is injected into
//!   library method bodies. Structural profiles still survive: degrees
//!   are identity-based and filler opcodes are uncounted.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spector_dex::model::{DexFile, Instruction, MethodRef};
use spector_dex::sig::MethodSig;
use spector_dex::Apk;

use crate::appgen::GeneratedApp;
use crate::libraries::{fnv1a, LIBRARY_TEMPLATES};
use crate::Corpus;

/// Cumulative obfuscation levels, weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObfuscationTier {
    /// Identity transform (the unobfuscated baseline).
    None,
    /// Library package roots renamed to fresh two-component packages.
    Rename,
    /// Rename + class/method identifiers mangled to sequential letters.
    Mangle,
    /// Mangle + method-table reordering and junk no-op injection.
    Junk,
}

impl ObfuscationTier {
    /// All tiers, weakest to strongest.
    pub const ALL: [ObfuscationTier; 4] = [
        ObfuscationTier::None,
        ObfuscationTier::Rename,
        ObfuscationTier::Mangle,
        ObfuscationTier::Junk,
    ];

    /// Stable lowercase label (CLI/CI spelling).
    pub fn label(self) -> &'static str {
        match self {
            ObfuscationTier::None => "none",
            ObfuscationTier::Rename => "rename",
            ObfuscationTier::Mangle => "mangle",
            ObfuscationTier::Junk => "junk",
        }
    }
}

impl fmt::Display for ObfuscationTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ObfuscationTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ObfuscationTier::ALL
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| format!("unknown obfuscation tier {s:?} (none|rename|mangle|junk)"))
    }
}

/// Per-app ground truth: canonical library root → root as it appears in
/// the obfuscated dex (identity below [`ObfuscationTier::Rename`]).
pub type LibraryMapping = BTreeMap<String, String>;

/// First package components an obfuscated root must avoid: the builtin
/// filter's namespaces plus every first component used by templates or
/// generated first-party code, so a fresh root can never sit inside an
/// existing subtree or get skipped as a framework frame.
const BLOCKED_FIRST: &[&str] = &[
    "com", "org", "net", "io", "uk", "java", "javax", "sun", "android", "dalvik", "junit",
];

/// Canonical template roots instantiated in `dex` (component-aligned
/// subtree membership; templates are prefix-free so matches are unique).
pub fn library_roots(dex: &DexFile) -> Vec<&'static str> {
    let mut roots = Vec::new();
    for template in LIBRARY_TEMPLATES {
        let present = dex
            .methods
            .iter()
            .any(|m| in_subtree(&m.sig.package(), template.package));
        if present {
            roots.push(template.package);
        }
    }
    roots
}

fn in_subtree(pkg: &str, prefix: &str) -> bool {
    pkg == prefix || (pkg.starts_with(prefix) && pkg.as_bytes().get(prefix.len()) == Some(&b'.'))
}

/// Rewrites dotted `pkg` through the root `mapping` (longest — i.e. only,
/// since roots are disjoint — matching root wins).
pub fn map_package(pkg: &str, mapping: &LibraryMapping) -> String {
    for (root, obf) in mapping {
        if in_subtree(pkg, root) {
            return format!("{obf}{}", &pkg[root.len()..]);
        }
    }
    pkg.to_owned()
}

fn base26(mut n: usize) -> String {
    let mut out = String::new();
    loop {
        out.insert(0, (b'a' + (n % 26) as u8) as char);
        n /= 26;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    out
}

/// Obfuscates `dex` in place at `tier`, treating `roots` as the library
/// subtrees. Returns the canonical-root → final-root mapping (empty at
/// [`ObfuscationTier::None`], identity values at tiers that do not
/// rename). Deterministic in `(tier, seed)`.
pub fn obfuscate_dex(
    dex: &mut DexFile,
    roots: &[&str],
    tier: ObfuscationTier,
    seed: u64,
) -> LibraryMapping {
    let mut mapping = LibraryMapping::new();
    if tier == ObfuscationTier::None {
        return mapping;
    }

    // --- Rename: re-root each library subtree -----------------------------
    let mut used_first: std::collections::BTreeSet<String> = dex
        .methods
        .iter()
        .filter_map(|m| {
            let pkg = m.sig.package();
            pkg.split('.').next().map(str::to_owned)
        })
        .chain(BLOCKED_FIRST.iter().map(|s| (*s).to_owned()))
        .collect();
    for root in roots {
        let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a(root));
        let obf = loop {
            let comp = |rng: &mut SmallRng| {
                let len = rng.gen_range(2..=4usize);
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect::<String>()
            };
            let first = comp(&mut rng);
            if used_first.contains(&first) {
                continue;
            }
            used_first.insert(first.clone());
            break format!("{first}.{}", comp(&mut rng));
        };
        mapping.insert((*root).to_owned(), obf);
    }
    for m in &mut dex.methods {
        let pkg = m.sig.package();
        let mapped = map_package(&pkg, &mapping);
        if mapped != pkg {
            m.sig = MethodSig::new(
                &mapped,
                m.sig.class_name(),
                m.sig.method_name(),
                m.sig.descriptor(),
            );
        }
    }
    for class in &mut dex.classes {
        if let Some((pkg, name)) = class.dotted_name.rsplit_once('.') {
            let mapped = map_package(pkg, &mapping);
            if mapped != pkg {
                class.dotted_name = format!("{mapped}.{name}");
            }
        }
    }

    // --- Mangle: sequential class/method identifiers ----------------------
    if tier >= ObfuscationTier::Mangle {
        // Injective per package: each distinct original class gets the
        // next letter; each method within a (package, class) likewise.
        let mut class_names: BTreeMap<(String, String), String> = BTreeMap::new();
        let mut classes_in: BTreeMap<String, usize> = BTreeMap::new();
        let mut methods_in: BTreeMap<(String, String), usize> = BTreeMap::new();
        let in_lib =
            |pkg: &str, mapping: &LibraryMapping| mapping.values().any(|obf| in_subtree(pkg, obf));
        for m in &mut dex.methods {
            let pkg = m.sig.package();
            if !in_lib(&pkg, &mapping) {
                continue;
            }
            let class = class_names
                .entry((pkg.clone(), m.sig.class_name().to_owned()))
                .or_insert_with(|| {
                    let n = classes_in.entry(pkg.clone()).or_insert(0);
                    let name = base26(*n);
                    *n += 1;
                    name
                })
                .clone();
            let mi = methods_in.entry((pkg.clone(), class.clone())).or_insert(0);
            let method = base26(*mi);
            *mi += 1;
            m.sig = MethodSig::new(&pkg, &class, &method, m.sig.descriptor());
        }
        for class in &mut dex.classes {
            if let Some((pkg, name)) = class.dotted_name.rsplit_once('.') {
                if let Some(new) = class_names.get(&(pkg.to_owned(), name.to_owned())) {
                    class.dotted_name = format!("{pkg}.{new}");
                }
            }
        }
    }

    // --- Junk: reorder the method table, inject filler ---------------------
    if tier >= ObfuscationTier::Junk {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a75_6e6b);
        let n = dex.methods.len();
        // `perm[new] = old` by Fisher–Yates; then fix every reference.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut new_of = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            new_of[old as usize] = new as u32;
        }
        let mut reordered = Vec::with_capacity(n);
        for &old in &perm {
            reordered.push(dex.methods[old as usize].clone());
        }
        dex.methods = reordered;
        for m in &mut dex.methods {
            for inst in &mut m.code.instructions {
                match inst {
                    Instruction::Invoke(MethodRef::Internal(t))
                    | Instruction::InvokeAsync {
                        target: MethodRef::Internal(t),
                        ..
                    } => *t = new_of[*t as usize],
                    _ => {}
                }
            }
        }
        for class in &mut dex.classes {
            for idx in &mut class.method_indices {
                *idx = new_of[*idx as usize];
            }
        }
        // Junk filler in library bodies, before the trailing return.
        for m in &mut dex.methods {
            if !mapping
                .values()
                .any(|obf| in_subtree(&m.sig.package(), obf))
            {
                continue;
            }
            let at = match m.code.instructions.last() {
                Some(Instruction::Return) => m.code.instructions.len() - 1,
                _ => m.code.instructions.len(),
            };
            for _ in 0..rng.gen_range(1..=3usize) {
                let junk = if rng.gen_bool(0.5) {
                    Instruction::Nop
                } else {
                    Instruction::Const(rng.gen())
                };
                m.code.instructions.insert(at, junk);
            }
        }
    }

    mapping
}

/// Obfuscates one generated app in place: rewrites the dex, rebuilds the
/// apk (manifest and extra entries preserved), and rewrites the flow
/// ground truth through the package mapping. Returns the mapping.
pub fn obfuscate_app(app: &mut GeneratedApp, tier: ObfuscationTier, seed: u64) -> LibraryMapping {
    if tier == ObfuscationTier::None {
        return LibraryMapping::new();
    }
    let mut dex = app.apk.dex().expect("generated apk has a valid dex");
    let manifest = app.apk.manifest().expect("generated apk has a manifest");
    let roots = library_roots(&dex);
    let mapping = obfuscate_dex(&mut dex, &roots, tier, seed);
    debug_assert_eq!(dex.validate(), Ok(()));
    for t in &mut app.truth {
        t.owner_package = map_package(&t.owner_package, &mapping);
        if let Some(origin) = &mut t.expected_origin {
            *origin = map_package(origin, &mapping);
        }
    }
    let extras: Vec<_> = app
        .apk
        .entries()
        .iter()
        .filter(|e| e.name != "AndroidManifest.json" && e.name != "classes.dex")
        .cloned()
        .collect();
    app.apk = Apk::build(&manifest, &dex, extras);
    mapping
}

/// Obfuscates every app in `corpus` at `tier`. Returns one mapping per
/// app, in corpus order. The library knowledge bases (`library_db`,
/// `structural_index`, `lists`) are left canonical — that asymmetry is
/// the point: detection must bridge obfuscated apps back to canonical
/// knowledge.
pub fn obfuscate_corpus(
    corpus: &mut Corpus,
    tier: ObfuscationTier,
    seed: u64,
) -> Vec<LibraryMapping> {
    corpus
        .apps
        .iter_mut()
        .map(|app| obfuscate_app(app, tier, seed ^ fnv1a(&app.package)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppGenConfig, CorpusConfig, OpStyle};

    fn small_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            apps: 8,
            seed: 21,
            appgen: AppGenConfig {
                method_scale: 0.004,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in ObfuscationTier::ALL {
            assert_eq!(tier.label().parse::<ObfuscationTier>().unwrap(), tier);
        }
        assert!("proguard".parse::<ObfuscationTier>().is_err());
    }

    #[test]
    fn none_tier_is_identity() {
        let mut corpus = small_corpus();
        let before: Vec<_> = corpus.apps.iter().map(|a| a.apk.sha256()).collect();
        let mappings = obfuscate_corpus(&mut corpus, ObfuscationTier::None, 1);
        assert!(mappings.iter().all(BTreeMap::is_empty));
        let after: Vec<_> = corpus.apps.iter().map(|a| a.apk.sha256()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn rename_moves_every_library_root_and_spares_first_party() {
        let mut corpus = small_corpus();
        let canonical_roots: Vec<Vec<&'static str>> = corpus
            .apps
            .iter()
            .map(|a| library_roots(&a.apk.dex().unwrap()))
            .collect();
        let mappings = obfuscate_corpus(&mut corpus, ObfuscationTier::Rename, 2);
        let mut saw_lib = false;
        for ((app, mapping), roots) in corpus.apps.iter().zip(&mappings).zip(&canonical_roots) {
            assert_eq!(mapping.len(), roots.len());
            let dex = app.apk.dex().unwrap();
            assert_eq!(dex.validate(), Ok(()));
            for root in roots {
                saw_lib = true;
                let obf = &mapping[*root];
                // No method remains under the canonical root; the
                // obfuscated root exists and dodges blocked namespaces.
                assert!(!dex
                    .methods
                    .iter()
                    .any(|m| in_subtree(&m.sig.package(), root)));
                assert!(dex
                    .methods
                    .iter()
                    .any(|m| in_subtree(&m.sig.package(), obf)));
                let first = obf.split('.').next().unwrap();
                assert!(!BLOCKED_FIRST.contains(&first), "blocked root {obf}");
            }
            // First-party entry points still resolve.
            let manifest = app.apk.manifest().unwrap();
            for sig in &manifest.application_on_create {
                assert!(dex.find_method(sig).is_some());
            }
            // Library truth was rewritten onto obfuscated roots.
            for t in app.truth.iter().filter(|t| t.is_ant || t.is_common) {
                if t.style == OpStyle::System {
                    continue;
                }
                assert!(
                    !roots.iter().any(|r| in_subtree(&t.owner_package, r)),
                    "stale truth package {}",
                    t.owner_package
                );
            }
        }
        assert!(saw_lib, "corpus must instantiate at least one library");
    }

    #[test]
    fn exact_fingerprint_survives_rename_but_not_mangle() {
        let (db, _) = crate::libraries::build_detectors();
        for (tier, survives) in [
            (ObfuscationTier::Rename, true),
            (ObfuscationTier::Mangle, false),
        ] {
            let mut corpus = small_corpus();
            let mappings = obfuscate_corpus(&mut corpus, tier, 3);
            let mut checked = false;
            for (app, mapping) in corpus.apps.iter().zip(&mappings) {
                let detected = db.detect(&app.apk.dex().unwrap());
                for (root, obf) in mapping {
                    checked = true;
                    let hit = detected
                        .iter()
                        .any(|d| d.name == *root && d.in_app_prefix == *obf);
                    assert_eq!(hit, survives, "{root} -> {obf} at {tier}");
                }
            }
            assert!(checked);
        }
    }

    #[test]
    fn junk_keeps_dex_valid_and_truth_stable() {
        let mut corpus = small_corpus();
        let truth_before: Vec<Vec<_>> = corpus
            .apps
            .iter()
            .map(|a| a.truth.iter().map(|t| t.domain.clone()).collect())
            .collect();
        obfuscate_corpus(&mut corpus, ObfuscationTier::Junk, 4);
        for (app, domains) in corpus.apps.iter().zip(&truth_before) {
            let dex = app.apk.dex().unwrap();
            assert_eq!(dex.validate(), Ok(()));
            let after: Vec<_> = app.truth.iter().map(|t| t.domain.clone()).collect();
            assert_eq!(&after, domains, "junk must not touch network operands");
        }
    }

    #[test]
    fn structural_profile_is_invariant_across_all_tiers() {
        let corpus = small_corpus();
        for tier in [
            ObfuscationTier::Rename,
            ObfuscationTier::Mangle,
            ObfuscationTier::Junk,
        ] {
            let mut obf = small_corpus();
            let mappings = obfuscate_corpus(&mut obf, tier, 5);
            let mut compared = false;
            for ((orig, obf_app), mapping) in corpus.apps.iter().zip(&obf.apps).zip(&mappings) {
                let odex = orig.apk.dex().unwrap();
                let xdex = obf_app.apk.dex().unwrap();
                for (root, new_root) in mapping {
                    compared = true;
                    assert_eq!(
                        spector_dex::features::subtree_profile(&odex, root),
                        spector_dex::features::subtree_profile(&xdex, new_root),
                        "profile moved for {root} at {tier}"
                    );
                }
            }
            assert!(compared);
        }
    }

    #[test]
    fn obfuscation_is_deterministic_in_seed() {
        let mut a = small_corpus();
        let mut b = small_corpus();
        let ma = obfuscate_corpus(&mut a, ObfuscationTier::Junk, 9);
        let mb = obfuscate_corpus(&mut b, ObfuscationTier::Junk, 9);
        assert_eq!(ma, mb);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.apk.sha256(), y.apk.sha256());
        }
        let mut c = small_corpus();
        let mc = obfuscate_corpus(&mut c, ObfuscationTier::Junk, 10);
        assert_ne!(ma, mc, "different seed should pick different roots");
    }

    #[test]
    fn base26_is_injective_over_a_useful_range() {
        let names: std::collections::BTreeSet<String> = (0..1000).map(base26).collect();
        assert_eq!(names.len(), 1000);
        assert_eq!(base26(0), "a");
        assert_eq!(base26(25), "z");
        assert_eq!(base26(26), "aa");
    }
}
