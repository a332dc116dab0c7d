//! Corpus-level knowledge the offline pipeline consumes.
//!
//! Before analyzing any traffic, the paper runs LibRadar over every
//! collected apk and aggregates the detected libraries with their
//! categories (§III-D), collects Li et al.'s AnT/common lists, and
//! fetches VirusTotal category labels for every observed domain
//! (§III-F). `Knowledge` bundles those inputs; [`Knowledge::from_corpus`]
//! performs the aggregation scan over a generated corpus.
//!
//! Two memoization layers keep the per-flow hot path off the expensive
//! machinery:
//!
//! * domain categories are precomputed once per campaign (the Table I
//!   regex tokenizer runs once per *domain*, not once per *flow*) into
//!   [`Knowledge::domain_categories`];
//! * origin-library verdicts — predicted category plus AnT/common list
//!   membership — are cached per origin-library in a concurrent map
//!   shared by all dispatch workers ([`Knowledge::library_verdict`]).

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use parking_lot::RwLock;
use spector_corpus::domains::Domain;
use spector_libradar::{
    AggregatedLibraries, DetectTier, LibCategory, LibraryLists, PackageIndex, PrefixAliases,
};
use spector_vtcat::{DomainCategory, Tokenizer};

use crate::attribution::BuiltinFilter;

/// Memoized per-origin-library verdict: predicted category, AnT list
/// membership, common-library list membership.
pub type LibraryVerdict = (LibCategory, bool, bool);

/// Everything the per-app analysis needs beyond the app's own run data.
#[derive(Debug)]
pub struct Knowledge {
    /// Libraries detected across the corpus, with categories.
    pub aggregated: AggregatedLibraries,
    /// AnT / common-library prefix lists.
    pub lists: LibraryLists,
    /// Precomputed domain → generic category table: every observed
    /// domain's vendor labels are tokenized exactly once per campaign.
    pub domain_categories: HashMap<String, DomainCategory>,
    /// The Table I tokenizer.
    pub tokenizer: Tokenizer,
    /// Compiled footnote 2 filter.
    pub builtin: BuiltinFilter,
    /// Renamed in-app prefixes bridged to canonical library packages by
    /// the exact `LibraryDb` fingerprint during the corpus scan. Empty
    /// on unobfuscated corpora (identity aliases are never recorded).
    pub exact_aliases: PrefixAliases,
    /// Prefixes only the structural-profile tier could bridge (mangled
    /// copies the exact fingerprint no longer recognizes).
    pub structural_aliases: PrefixAliases,
    /// Concurrent per-campaign cache of origin-library verdicts (with
    /// the cascade tier that produced each), shared by all analysis
    /// workers.
    library_verdicts: RwLock<HashMap<String, (LibraryVerdict, DetectTier)>>,
}

impl Clone for Knowledge {
    fn clone(&self) -> Self {
        Knowledge {
            aggregated: self.aggregated.clone(),
            lists: self.lists.clone(),
            domain_categories: self.domain_categories.clone(),
            tokenizer: self.tokenizer.clone(),
            builtin: self.builtin.clone(),
            exact_aliases: self.exact_aliases.clone(),
            structural_aliases: self.structural_aliases.clone(),
            library_verdicts: RwLock::new(self.library_verdicts.read().clone()),
        }
    }
}

impl Knowledge {
    /// Builds knowledge from explicit parts, tokenizing every domain's
    /// vendor labels once up front.
    pub fn new(
        aggregated: AggregatedLibraries,
        lists: LibraryLists,
        domain_labels: HashMap<String, Vec<String>>,
    ) -> Self {
        let tokenizer = Tokenizer::new();
        let domain_categories = domain_labels
            .into_iter()
            .map(|(domain, labels)| {
                let category = tokenizer.classify(&labels);
                (domain, category)
            })
            .collect();
        Knowledge::with_domain_categories(aggregated, lists, domain_categories)
    }

    /// Builds knowledge from an already-classified domain table (the
    /// path [`from_corpus`](Self::from_corpus) takes, which never
    /// materializes an intermediate label map).
    pub fn with_domain_categories(
        aggregated: AggregatedLibraries,
        lists: LibraryLists,
        domain_categories: HashMap<String, DomainCategory>,
    ) -> Self {
        Knowledge {
            aggregated,
            lists,
            domain_categories,
            tokenizer: Tokenizer::new(),
            builtin: BuiltinFilter::new(),
            exact_aliases: PrefixAliases::new(),
            structural_aliases: PrefixAliases::new(),
            library_verdicts: RwLock::new(HashMap::new()),
        }
    }

    /// The §III-D aggregation scan over a generated corpus: run the
    /// LibRadar-style detector on every apk, merge the results, and
    /// classify every domain in the universe from its vendor labels
    /// directly (no intermediate per-domain label clone).
    ///
    /// Both detection knowledge bases run per apk. The exact fingerprint
    /// recognizes renamed library copies; the structural index also
    /// recognizes mangled ones. Every detection records the *canonical*
    /// name into the aggregate (so the trie and the Listing 2 vote see
    /// canonical packages even when no app ships them verbatim), and
    /// every non-identity `in_app_prefix` becomes an alias the verdict
    /// cascade can resolve obfuscated origins through.
    ///
    /// Apps are scanned on one scoped worker per available core; the
    /// result does not depend on the worker count.
    pub fn from_corpus(corpus: &spector_corpus::Corpus) -> Self {
        let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Knowledge::scan(corpus, workers)
    }

    /// [`from_corpus`](Self::from_corpus) on `workers` threads.
    ///
    /// Each app's dex is parsed, indexed once for both detectors, and
    /// dropped by the worker that claimed it, so at most `workers`
    /// parsed apps are alive at a time. The per-app detections are then
    /// merged serially in corpus order: aggregate categories and alias
    /// last-writer-wins come out exactly as a serial scan leaves them.
    fn scan(corpus: &spector_corpus::Corpus, workers: usize) -> Self {
        let (aggregated, exact_aliases, structural_aliases) = scan_libraries(corpus, workers);
        let domain_categories = classify_domains(corpus.domains.domains(), workers);
        let mut knowledge =
            Knowledge::with_domain_categories(aggregated, corpus.lists.clone(), domain_categories);
        knowledge.exact_aliases = exact_aliases;
        knowledge.structural_aliases = structural_aliases;
        knowledge
    }

    /// Generic category of a domain, from the precomputed table; unseen
    /// domains are `unknown`.
    pub fn domain_category(&self, domain: &str) -> DomainCategory {
        self.domain_categories
            .get(domain)
            .copied()
            .unwrap_or(DomainCategory::Unknown)
    }

    /// Category of an origin-library package: longest matching known
    /// library prefix, then majority vote over the shared-prefix family
    /// (Listing 2). Packages with no relation to any known library are
    /// `Unknown` — typically first-party code.
    pub fn library_category(&self, origin_library: &str) -> LibCategory {
        self.library_verdict(origin_library).0
    }

    /// Memoized `(category, is_ant, is_common)` verdict for an
    /// origin-library. The first query per distinct origin pays the
    /// cascade walk; every repeat across the whole campaign is one
    /// concurrent hash lookup.
    pub fn library_verdict(&self, origin_library: &str) -> LibraryVerdict {
        self.library_verdict_tiered(origin_library).0
    }

    /// The three-tier detection cascade, memoized: the verdict plus the
    /// tier that produced it.
    ///
    /// 1. **Trie** — longest-prefix / Listing 2 vote on the raw origin
    ///    package. Any non-`Unknown` category is a hit: this is the
    ///    paper's own path and stays byte-identical when no aliases
    ///    exist (every unobfuscated corpus).
    /// 2. **Exact fingerprint** — the origin sits under a renamed prefix
    ///    the `LibraryDb` scan bridged; the verdict is recomputed on the
    ///    canonical rewrite.
    /// 3. **Structural** — same, for prefixes only the structural
    ///    profile index could bridge (mangled copies).
    /// 4. **Miss** — the plain tier-1 verdict (typically first-party:
    ///    `Unknown`, off both lists).
    pub fn library_verdict_tiered(&self, origin_library: &str) -> (LibraryVerdict, DetectTier) {
        if let Some(entry) = self.library_verdicts.read().get(origin_library) {
            return *entry;
        }
        let base = (
            self.aggregated.predict_category(origin_library),
            self.lists.is_ant(origin_library),
            self.lists.is_common(origin_library),
        );
        let entry = if base.0 != LibCategory::Unknown {
            (base, DetectTier::Trie)
        } else if let Some(canonical) = self.exact_aliases.resolve(origin_library) {
            (
                self.canonical_verdict(&canonical),
                DetectTier::ExactFingerprint,
            )
        } else if let Some(canonical) = self.structural_aliases.resolve(origin_library) {
            (self.canonical_verdict(&canonical), DetectTier::Structural)
        } else {
            (base, DetectTier::Miss)
        };
        self.library_verdicts
            .write()
            .insert(origin_library.to_owned(), entry);
        entry
    }

    /// Verdict for an alias-rewritten canonical origin (not memoized:
    /// the obfuscated origin's cache entry covers the repeat traffic).
    fn canonical_verdict(&self, canonical: &str) -> LibraryVerdict {
        (
            self.aggregated.predict_category(canonical),
            self.lists.is_ant(canonical),
            self.lists.is_common(canonical),
        )
    }

    /// Linear-scan twin of [`Knowledge::library_verdict_tiered`] for the
    /// oracle pipeline: same cascade, oracle prefix prediction and alias
    /// resolution, no memoization.
    pub fn library_verdict_tiered_oracle(
        &self,
        origin_library: &str,
    ) -> (LibraryVerdict, DetectTier) {
        let base = (
            self.aggregated.predict_category_oracle(origin_library),
            self.lists.is_ant(origin_library),
            self.lists.is_common(origin_library),
        );
        if base.0 != LibCategory::Unknown {
            (base, DetectTier::Trie)
        } else if let Some(canonical) = self.exact_aliases.resolve_oracle(origin_library) {
            (
                (
                    self.aggregated.predict_category_oracle(&canonical),
                    self.lists.is_ant(&canonical),
                    self.lists.is_common(&canonical),
                ),
                DetectTier::ExactFingerprint,
            )
        } else if let Some(canonical) = self.structural_aliases.resolve_oracle(origin_library) {
            (
                (
                    self.aggregated.predict_category_oracle(&canonical),
                    self.lists.is_ant(&canonical),
                    self.lists.is_common(&canonical),
                ),
                DetectTier::Structural,
            )
        } else {
            (base, DetectTier::Miss)
        }
    }

    /// Number of distinct origin-libraries currently memoized.
    pub fn cached_verdicts(&self) -> usize {
        self.library_verdicts.read().len()
    }
}

/// The library half of the corpus scan: the aggregate plus the exact and
/// structural alias tables.
type LibraryScan = (AggregatedLibraries, PrefixAliases, PrefixAliases);

/// Detects libraries in every app on `workers` threads and merges the
/// detections in corpus order. Every detection records its canonical
/// name into the aggregate and its in-app prefix as an alias of it.
fn scan_libraries(corpus: &spector_corpus::Corpus, workers: usize) -> LibraryScan {
    let detections = parallel_map(&corpus.apps, workers, |app| {
        let Ok(dex) = app.apk.dex() else {
            return (Vec::new(), Vec::new());
        };
        let index = PackageIndex::build(&dex);
        drop(dex);
        (
            corpus.library_db.detect_in(&index),
            corpus.structural_index.detect_in(&index),
        )
    });
    let mut aggregated = AggregatedLibraries::new();
    let mut exact_aliases = PrefixAliases::new();
    let mut structural_aliases = PrefixAliases::new();
    for (exact, structural) in detections {
        for detected in exact {
            aggregated.record(&detected.name, detected.category);
            exact_aliases.insert(&detected.in_app_prefix, &detected.name);
        }
        for matched in structural {
            aggregated.record(&matched.name, matched.category);
            structural_aliases.insert(&matched.in_app_prefix, &matched.name);
        }
    }
    (aggregated, exact_aliases, structural_aliases)
}

/// Classifies every domain from its vendor labels on `workers` threads.
fn classify_domains(domains: &[Domain], workers: usize) -> HashMap<String, DomainCategory> {
    let tokenizer = Tokenizer::new();
    // Four chunks per worker, so one slow chunk does not idle the rest.
    let chunks: Vec<&[Domain]> = domains
        .chunks(domains.len().div_ceil(4 * workers.max(1)).max(1))
        .collect();
    let categories = parallel_map(&chunks, workers, |chunk| {
        chunk
            .iter()
            .map(|domain| tokenizer.classify(&domain.vendor_labels))
            .collect::<Vec<_>>()
    });
    let mut table = HashMap::with_capacity(domains.len());
    for (domain, category) in domains.iter().zip(categories.into_iter().flatten()) {
        table.insert(domain.name.clone(), category);
    }
    table
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in item order. Each worker claims the next unclaimed item,
/// so uneven item costs balance across workers.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    // The counter only hands out indices; results reach this thread
    // through the joins, which synchronize on their own.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(at) else { break };
                        done.push((at, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().expect("knowledge scan worker panicked");
            for (at, result) in done {
                slots[at] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is claimed by exactly one worker"))
        .collect()
}

// The corpus dependency is dev-facing: Knowledge::from_corpus is the
// bridge used by experiments, examples, and benches.

#[cfg(test)]
mod tests {
    use super::*;
    use spector_corpus::{Corpus, CorpusConfig};

    fn knowledge() -> (Knowledge, Corpus) {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 12,
            seed: 3,
            ..Default::default()
        });
        (Knowledge::from_corpus(&corpus), corpus)
    }

    #[test]
    fn corpus_scan_aggregates_libraries() {
        let (knowledge, corpus) = knowledge();
        assert!(!knowledge.aggregated.is_empty());
        // Every library origin package in the ground truth must resolve
        // to its true category via longest-prefix + majority vote,
        // because the enclosing library was detected in the same scan.
        let mut checked = 0;
        for app in &corpus.apps {
            for truth in &app.truth {
                if truth.lib_category == LibCategory::Unknown {
                    continue;
                }
                let origin = truth.expected_origin.as_deref().unwrap();
                assert_eq!(
                    knowledge.library_category(origin),
                    truth.lib_category,
                    "origin {origin}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn first_party_packages_are_unknown() {
        let (knowledge, _) = knowledge();
        assert_eq!(
            knowledge.library_category("com.dev7.app3.net"),
            LibCategory::Unknown
        );
    }

    #[test]
    fn domain_categories_recovered_from_labels() {
        let (knowledge, corpus) = knowledge();
        let mut correct = 0usize;
        let mut total = 0usize;
        for domain in corpus.domains.domains() {
            if domain.true_category == DomainCategory::Unknown {
                assert_eq!(
                    knowledge.domain_category(&domain.name),
                    DomainCategory::Unknown
                );
                continue;
            }
            total += 1;
            if knowledge.domain_category(&domain.name) == domain.true_category {
                correct += 1;
            }
        }
        assert!(total > 0);
        assert!(correct * 100 / total >= 55, "{correct}/{total}");
    }

    #[test]
    fn precomputed_table_matches_tokenizer() {
        let (knowledge, corpus) = knowledge();
        // The memoized table must agree with classifying the raw labels
        // directly — the pre-memoization behavior.
        for domain in corpus.domains.domains() {
            assert_eq!(
                knowledge.domain_category(&domain.name),
                knowledge.tokenizer.classify(&domain.vendor_labels),
                "{}",
                domain.name
            );
        }
    }

    #[test]
    fn unseen_domain_is_unknown() {
        let (knowledge, _) = knowledge();
        assert_eq!(
            knowledge.domain_category("never.observed.example"),
            DomainCategory::Unknown
        );
    }

    /// The serial per-prefix library scan the indexed parallel one
    /// replaces: every prefix of every app fingerprinted and profiled
    /// from the raw dex.
    fn oracle_library_scan(corpus: &Corpus) -> LibraryScan {
        use spector_dex::subtree_profile;
        use spector_libradar::detect::{fingerprint_subtree, package_prefixes};

        let mut aggregated = AggregatedLibraries::new();
        let mut exact_aliases = PrefixAliases::new();
        let mut structural_aliases = PrefixAliases::new();
        for app in &corpus.apps {
            let Ok(dex) = app.apk.dex() else { continue };
            let prefixes = package_prefixes(&dex);
            for prefix in &prefixes {
                let fp = fingerprint_subtree(&dex, prefix).expect("a prefix has members");
                if let Some((name, category)) = corpus.library_db.lookup(&fp) {
                    aggregated.record(name, category);
                    exact_aliases.insert(prefix, name);
                }
            }
            for prefix in &prefixes {
                let profile = subtree_profile(&dex, prefix);
                if let Some(matched) = corpus.structural_index.best_match(&profile) {
                    aggregated.record(&matched.name, matched.category);
                    structural_aliases.insert(prefix, &matched.name);
                }
            }
        }
        (aggregated, exact_aliases, structural_aliases)
    }

    fn scan_corpus(tier: spector_corpus::ObfuscationTier) -> Corpus {
        let mut corpus = Corpus::generate(&CorpusConfig {
            apps: 400,
            seed: 42,
            appgen: spector_corpus::AppGenConfig {
                method_scale: 0.001,
                ..Default::default()
            },
            ..Default::default()
        });
        spector_corpus::obfuscate_corpus(&mut corpus, tier, 7);
        corpus
    }

    /// The indexed parallel scan equals the serial per-prefix oracle on
    /// clean, renamed, mangled and junk-padded 400-app corpora, at one
    /// worker and at more workers than cores. The domain table does not
    /// depend on the tier, so the whole `Knowledge` is compared on the
    /// clean corpus only. The tiers run concurrently to keep the
    /// debug-build test short.
    #[test]
    fn indexed_parallel_scan_equals_the_serial_oracle() {
        use spector_corpus::ObfuscationTier;

        std::thread::scope(|scope| {
            for tier in ObfuscationTier::ALL {
                scope.spawn(move || {
                    let corpus = scan_corpus(tier);
                    let (aggregated, exact, structural) = oracle_library_scan(&corpus);
                    assert!(!aggregated.is_empty());
                    if tier != ObfuscationTier::None {
                        assert!(!exact.is_empty() || !structural.is_empty());
                    }
                    for workers in [1, 3] {
                        let scanned = scan_libraries(&corpus, workers);
                        let context = format!("{} corpus, {workers} worker(s)", tier.label());
                        assert_eq!(scanned.0, aggregated, "aggregate: {context}");
                        assert_eq!(scanned.1, exact, "exact aliases: {context}");
                        assert_eq!(scanned.2, structural, "structural aliases: {context}");
                    }
                    if tier == ObfuscationTier::None {
                        let tokenizer = Tokenizer::new();
                        let mut domain_categories = HashMap::new();
                        for domain in corpus.domains.domains() {
                            domain_categories.insert(
                                domain.name.clone(),
                                tokenizer.classify(&domain.vendor_labels),
                            );
                        }
                        let scanned = Knowledge::scan(&corpus, 3);
                        assert_eq!(scanned.aggregated, aggregated);
                        assert_eq!(scanned.exact_aliases, exact);
                        assert_eq!(scanned.structural_aliases, structural);
                        assert_eq!(scanned.domain_categories, domain_categories);
                        assert_eq!(
                            classify_domains(corpus.domains.domains(), 1),
                            domain_categories
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn library_verdict_is_memoized_and_consistent() {
        let (knowledge, corpus) = knowledge();
        assert_eq!(knowledge.cached_verdicts(), 0);
        let mut checked = 0;
        for app in &corpus.apps {
            for truth in &app.truth {
                let Some(origin) = truth.expected_origin.as_deref() else {
                    continue;
                };
                let first = knowledge.library_verdict(origin);
                let second = knowledge.library_verdict(origin);
                assert_eq!(first, second);
                assert_eq!(
                    first,
                    (
                        knowledge.aggregated.predict_category(origin),
                        knowledge.lists.is_ant(origin),
                        knowledge.lists.is_common(origin),
                    ),
                    "origin {origin}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
        let cached = knowledge.cached_verdicts();
        assert!(cached > 0);
        // A clone starts from the same cache contents.
        let cloned = knowledge.clone();
        assert_eq!(cloned.cached_verdicts(), cached);
    }
}
