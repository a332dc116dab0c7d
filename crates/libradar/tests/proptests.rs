//! Property tests for library detection and the categorization
//! heuristics.

use proptest::prelude::*;
use proptest::TestCaseError;
use spector_dex::model::{CodeItem, DexFile, Dispatcher, Instruction, MethodDef, MethodRef};
use spector_dex::sig::MethodSig;
use spector_dex::subtree_profile;
use spector_libradar::detect::{fingerprint_subtree, package_prefixes};
use spector_libradar::{
    detect, AggregatedLibraries, DetectedLibrary, LibCategory, LibraryDb, LibraryLists,
    PackageIndex, StructuralIndex, StructuralMatch,
};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,5}"
}

fn package() -> impl Strategy<Value = String> {
    proptest::collection::vec(ident(), 1..4).prop_map(|parts| parts.join("."))
}

fn category() -> impl Strategy<Value = LibCategory> {
    prop::sample::select(LibCategory::ALL.to_vec())
}

/// A deterministic little library body rooted at `root`.
fn library_dex(root: &str, salt: u8) -> DexFile {
    let methods = (0..4 + usize::from(salt % 3))
        .map(|i| MethodDef {
            sig: MethodSig::new(
                &format!("{root}{}", if i % 2 == 0 { "" } else { ".inner" }),
                &format!("C{i}"),
                &format!("m{i}"),
                "()V",
            ),
            code: CodeItem {
                instructions: vec![
                    Instruction::Const(u32::from(salt) + i as u32),
                    Instruction::Return,
                ],
            },
        })
        .collect();
    DexFile {
        methods,
        classes: vec![],
    }
}

proptest! {
    #[test]
    fn fingerprint_is_rename_invariant(a in package(), b in package(), salt in any::<u8>()) {
        prop_assume!(a != b);
        let fp_a = detect::fingerprint_subtree(&library_dex(&a, salt), &a);
        let fp_b = detect::fingerprint_subtree(&library_dex(&b, salt), &b);
        prop_assert_eq!(fp_a, fp_b);
    }

    #[test]
    fn fingerprint_tracks_structure_not_operands(root in package(), s1 in any::<u8>(), s2 in any::<u8>()) {
        // Structure differs only via the method count (salt % 3): same
        // count ⇒ same fingerprint (operand values are invisible, like
        // LibRadar's obfuscation-resilient features), different count ⇒
        // different fingerprint.
        let fp1 = detect::fingerprint_subtree(&library_dex(&root, s1), &root);
        let fp2 = detect::fingerprint_subtree(&library_dex(&root, s2), &root);
        if s1 % 3 == s2 % 3 {
            prop_assert_eq!(fp1, fp2);
        } else {
            prop_assert_ne!(fp1, fp2);
        }
    }

    #[test]
    fn detection_finds_registered_library_under_any_name(
        canonical in package(),
        in_app in package(),
        salt in any::<u8>(),
        cat in category(),
    ) {
        let mut db = LibraryDb::new();
        db.add_library(&canonical, cat, &library_dex(&canonical, salt));
        let app = library_dex(&in_app, salt);
        let detected = db.detect(&app);
        prop_assert!(
            detected.iter().any(|d| d.name == canonical && d.in_app_prefix == in_app),
            "library not recognized under {in_app}"
        );
    }

    #[test]
    fn longest_prefix_is_a_real_prefix(names in proptest::collection::btree_set(package(), 1..12),
                                       query in package()) {
        let mut agg = AggregatedLibraries::new();
        for name in &names {
            agg.record(name, LibCategory::Utility);
        }
        if let Some(found) = agg.longest_matching_prefix(&query) {
            prop_assert!(names.contains(found));
            let dotted = format!("{}.", found);
            let is_prefix = query == found || query.starts_with(&dotted);
            prop_assert!(is_prefix);
            // No longer candidate exists.
            for name in &names {
                let name_dotted = format!("{}.", name);
                if query == *name || query.starts_with(&name_dotted) {
                    prop_assert!(name.len() <= found.len());
                }
            }
        } else {
            for name in &names {
                let name_dotted = format!("{}.", name);
                let unrelated = query != *name && !query.starts_with(&name_dotted);
                prop_assert!(unrelated);
            }
        }
    }

    #[test]
    fn predict_category_never_panics_and_is_deterministic(
        entries in proptest::collection::vec((package(), category()), 0..12),
        query in package(),
    ) {
        let mut agg = AggregatedLibraries::new();
        for (name, cat) in &entries {
            agg.record(name, *cat);
        }
        let a = agg.predict_category(&query);
        let b = agg.predict_category(&query);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn enclosing_known_library_dominates_prediction(root in package(), suffix in ident(), cat in category()) {
        prop_assume!(cat != LibCategory::Unknown);
        let mut agg = AggregatedLibraries::new();
        agg.record(&root, cat);
        let sub = format!("{}.{}", root, suffix);
        prop_assert_eq!(agg.predict_category(&sub), cat);
    }

    #[test]
    fn trie_agrees_with_linear_oracle(
        entries in proptest::collection::vec((package(), category()), 0..16),
        queries in proptest::collection::vec(package(), 1..8),
    ) {
        let mut agg = AggregatedLibraries::new();
        for (name, cat) in &entries {
            agg.record(name, *cat);
        }
        // Arbitrary queries, the recorded names themselves, and dotted
        // extensions of recorded names (deep trie walks) must all agree
        // with the retired linear implementation.
        for query in queries.iter().chain(entries.iter().map(|(name, _)| name)) {
            prop_assert_eq!(
                agg.longest_matching_prefix(query),
                agg.longest_matching_prefix_oracle(query),
                "longest prefix diverged for {}", query
            );
            prop_assert_eq!(
                agg.predict_category(query),
                agg.predict_category_oracle(query),
                "prediction diverged for {}", query
            );
        }
        for (name, _) in &entries {
            let ext = format!("{name}.zz9.aa");
            prop_assert_eq!(
                agg.longest_matching_prefix(&ext),
                agg.longest_matching_prefix_oracle(&ext),
                "longest prefix diverged for extension {}", ext
            );
            prop_assert_eq!(
                agg.predict_category(&ext),
                agg.predict_category_oracle(&ext),
                "prediction diverged for extension {}", ext
            );
        }
    }

    #[test]
    fn list_membership_respects_component_boundaries(prefix in package(), extra in ident()) {
        let lists = LibraryLists::from_prefixes([prefix.clone()], Vec::<String>::new());
        prop_assert!(lists.is_ant(&prefix));
        let child = format!("{}.{}", prefix, extra);
        let lookalike = format!("{}{}x", prefix, extra);
        prop_assert!(lists.is_ant(&child));
        prop_assert!(!lists.is_ant(&lookalike));
    }
}

// Obfuscator-backed properties: each case generates a small corpus and
// runs the real synthetic obfuscator over it, so the case count is kept
// low — the corpus itself already varies per seed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Structural profiles are the cascade's last line of defense: they
    /// must be bit-identical across every obfuscation tier, per library
    /// subtree, through the canonical→obfuscated root mapping.
    #[test]
    fn structural_profile_is_invariant_under_every_obfuscation_tier(
        seed in 0u64..1_000,
        obf_seed in 0u64..1_000,
    ) {
        use spector_corpus::obfuscate::{library_roots, obfuscate_dex};
        use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
        use spector_dex::subtree_profile;

        let corpus = Corpus::generate(&CorpusConfig {
            apps: 2,
            seed,
            appgen: AppGenConfig { method_scale: 0.004, ..Default::default() },
            ..Default::default()
        });
        for app in &corpus.apps {
            let original = app.apk.dex().unwrap();
            let roots = library_roots(&original);
            prop_assume!(!roots.is_empty());
            for tier in [ObfuscationTier::Rename, ObfuscationTier::Mangle, ObfuscationTier::Junk] {
                let mut obfuscated = original.clone();
                let mapping = obfuscate_dex(&mut obfuscated, &roots, tier, obf_seed);
                for root in &roots {
                    let renamed = mapping.get(*root).map(String::as_str).unwrap_or(root);
                    prop_assert_eq!(
                        subtree_profile(&original, root),
                        subtree_profile(&obfuscated, renamed),
                        "profile of {} drifted at {:?}", root, tier
                    );
                }
            }
        }
    }

    /// Zero false positives by construction: whatever the structural
    /// index matches in a fully-obfuscated app must be a library the
    /// app really instantiates — first-party subtrees never cross the
    /// match threshold.
    #[test]
    fn first_party_code_never_crosses_the_structural_threshold(
        seed in 0u64..1_000,
        obf_seed in 0u64..1_000,
    ) {
        use spector_corpus::obfuscate::{library_roots, obfuscate_app};
        use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};

        let mut corpus = Corpus::generate(&CorpusConfig {
            apps: 2,
            seed,
            appgen: AppGenConfig { method_scale: 0.004, ..Default::default() },
            ..Default::default()
        });
        for app in &mut corpus.apps {
            let truth: std::collections::BTreeSet<&str> =
                library_roots(&app.apk.dex().unwrap()).into_iter().collect();
            obfuscate_app(app, ObfuscationTier::Junk, obf_seed);
            let dex = app.apk.dex().unwrap();
            for matched in corpus.structural_index.detect(&dex) {
                prop_assert!(
                    truth.contains(matched.name.as_str()),
                    "structural tier claimed {} (score {:.3}) which {} does not instantiate",
                    matched.name, matched.score, app.package
                );
            }
        }
    }
}

// The indexed detectors against a per-prefix oracle: every package
// prefix fingerprinted and profiled from the raw dex, one at a time.

fn oracle_exact(db: &LibraryDb, dex: &DexFile) -> Vec<DetectedLibrary> {
    package_prefixes(dex)
        .into_iter()
        .filter_map(|prefix| {
            let fp = fingerprint_subtree(dex, &prefix)?;
            let (name, category) = db.lookup(&fp)?;
            Some(DetectedLibrary {
                name: name.to_owned(),
                in_app_prefix: prefix,
                category,
            })
        })
        .collect()
}

fn oracle_structural(index: &StructuralIndex, dex: &DexFile) -> Vec<StructuralMatch> {
    package_prefixes(dex)
        .into_iter()
        .filter_map(|prefix| {
            let mut matched = index.best_match(&subtree_profile(dex, &prefix))?;
            matched.in_app_prefix = prefix;
            Some(matched)
        })
        .collect()
}

fn assert_indexed_equals_oracle(
    db: &LibraryDb,
    index: &StructuralIndex,
    dex: &DexFile,
) -> Result<(), TestCaseError> {
    let exact = db.detect(dex);
    let structural = index.detect(dex);
    prop_assert_eq!(&exact, &oracle_exact(db, dex));
    prop_assert_eq!(&structural, &oracle_structural(index, dex));
    let shared = PackageIndex::build(dex);
    prop_assert_eq!(db.detect_in(&shared), exact);
    prop_assert_eq!(index.detect_in(&shared), structural);
    Ok(())
}

/// Packages that trap a string-range subtree test: siblings that share
/// `com.foo` as a string prefix (`-` and `$` sort below `.`), the
/// default package, and a leading-dot package whose first level is the
/// empty prefix.
const TRAP_PACKAGES: [&str; 9] = [
    "",
    ".lead",
    "com",
    "com.foo",
    "com.foo.net",
    "com.foobar",
    "com.foo-x",
    "com.foo$x",
    "com.foo$x.deep",
];

/// A random method: a trap or generated package, a small class/name
/// pool, and a body whose internal invoke targets may lie past the end
/// of the method table.
fn method(targets: u32) -> impl Strategy<Value = MethodDef> {
    let package = prop_oneof![
        prop::sample::select(TRAP_PACKAGES.to_vec()).prop_map(str::to_owned),
        package(),
    ];
    let instruction = prop_oneof![
        Just(Instruction::Nop),
        (0u32..4).prop_map(Instruction::Const),
        (0..targets).prop_map(|t| Instruction::Invoke(MethodRef::Internal(t))),
        (0..targets).prop_map(|t| Instruction::InvokeAsync {
            dispatcher: Dispatcher::Thread,
            target: MethodRef::Internal(t),
        }),
        Just(Instruction::Invoke(MethodRef::External(MethodSig::new(
            "android.util",
            "Log",
            "d",
            "()V"
        )))),
    ];
    (
        package,
        0u8..3,
        0u8..3,
        prop::sample::select(vec!["()V", "(I)V", "(Ljava/lang/String;)Z", "([B)V"]),
        proptest::collection::vec(instruction, 0..4),
    )
        .prop_map(|(package, class, name, descriptor, mut instructions)| {
            instructions.push(Instruction::Return);
            MethodDef {
                sig: MethodSig::new(
                    &package,
                    &format!("C{class}"),
                    &format!("m{name}"),
                    descriptor,
                ),
                code: CodeItem { instructions },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random dexes over the trap packages, with registered libraries
    /// copied in under sibling-trap names so that both tiers match.
    #[test]
    fn indexed_detection_equals_the_per_prefix_oracle(
        methods in proptest::collection::vec(method(48), 0..40),
        salts in (any::<u8>(), any::<u8>()),
        copy_roots in (
            prop::sample::select(TRAP_PACKAGES[3..].to_vec()),
            prop::sample::select(TRAP_PACKAGES[3..].to_vec()),
        ),
    ) {
        let mut db = LibraryDb::new();
        let mut index = StructuralIndex::new();
        for (root, salt, category) in [
            ("io.lib.one", salts.0, LibCategory::Advertisement),
            ("io.lib.two", salts.1, LibCategory::MobileAnalytics),
        ] {
            let lib = library_dex(root, salt);
            db.add_library(root, category, &lib);
            index.add_library(root, category, &lib);
        }
        let mut dex = DexFile { methods, classes: vec![] };
        dex.methods.extend(library_dex(copy_roots.0, salts.0).methods);
        dex.methods.extend(library_dex(copy_roots.1, salts.1).methods);
        assert_indexed_equals_oracle(&db, &index, &dex)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated apps under every obfuscation tier (renamed, mangled and
    /// junk-padded template copies), with trap packages and
    /// out-of-range internal targets added, against the corpus'
    /// real knowledge bases.
    #[test]
    fn indexed_detection_equals_the_oracle_on_obfuscated_apps(
        seed in 0u64..1_000,
        obf_seed in 0u64..1_000,
        tier in prop::sample::select(spector_corpus::ObfuscationTier::ALL.to_vec()),
        extra in proptest::collection::vec(method(4_000), 0..24),
    ) {
        use spector_corpus::obfuscate::{library_roots, obfuscate_dex};
        use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};

        let corpus = Corpus::generate(&CorpusConfig {
            apps: 1,
            seed,
            appgen: AppGenConfig { method_scale: 0.004, ..Default::default() },
            ..Default::default()
        });
        let mut dex = corpus.apps[0].apk.dex().unwrap();
        let roots = library_roots(&dex);
        obfuscate_dex(&mut dex, &roots, tier, obf_seed);
        dex.methods.extend(extra);
        assert_indexed_equals_oracle(&corpus.library_db, &corpus.structural_index, &dex)?;
    }
}
