//! Property tests: every aggregation must conserve bytes and produce
//! well-formed fractions for arbitrary campaigns.

use libspector::coverage::CoverageReport;
use libspector::pipeline::{AnalyzedFlow, AppAnalysis};
use libspector::OriginKind;
use proptest::prelude::*;
use proptest::TestCaseError;
use spector_analysis::FullReport;
use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

fn lib_category() -> impl Strategy<Value = LibCategory> {
    prop::sample::select(LibCategory::ALL.to_vec())
}

fn domain_category() -> impl Strategy<Value = DomainCategory> {
    prop::sample::select(DomainCategory::ALL.to_vec())
}

fn flow() -> impl Strategy<Value = AnalyzedFlow> {
    (
        proptest::option::of("[a-z]{1,8}\\.[a-z]{2,3}"),
        domain_category(),
        proptest::option::of("[a-z]{1,6}\\.[a-z]{1,6}(\\.[a-z]{1,6})?"),
        lib_category(),
        any::<bool>(),
        any::<bool>(),
        0u64..100_000,
        0u64..1_000_000,
    )
        .prop_map(
            |(domain, domain_cat, origin, lib_category, is_ant, is_common, sent, recv)| {
                AnalyzedFlow {
                    domain,
                    domain_category: domain_cat,
                    origin: match origin {
                        Some(pkg) => OriginKind::Library {
                            two_level: spector_dex::sig::prefix_levels(&pkg, 2),
                            origin_library: pkg,
                        },
                        None => OriginKind::Builtin,
                    },
                    lib_category,
                    is_ant,
                    is_common,
                    sent_bytes: sent,
                    recv_bytes: recv,
                    sent_payload: sent / 2,
                    recv_payload: recv / 2,
                    start_micros: 0,
                    http_user_agent: None,
                    family: Default::default(),
                    shape: Default::default(),
                    stream: None,
                }
            },
        )
}

fn analysis() -> impl Strategy<Value = AppAnalysis> {
    (
        "[a-z]{2,6}",
        prop::sample::select(vec!["TOOLS", "GAME_ACTION", "FINANCE", "SPORTS"]),
        proptest::collection::vec(flow(), 0..12),
        (1usize..50_000, 0usize..2_000),
    )
        .prop_map(
            |(package, category, flows, (total, executed))| AppAnalysis {
                package: format!("com.{package}"),
                app_category: category.to_owned(),
                flows,
                unattributed_flows: 0,
                reports_without_flow: 0,
                coverage: CoverageReport {
                    total_methods: total,
                    executed_methods: executed.min(total),
                    external_methods: 3,
                },
                dns_packets: 1,
                report_packets: 1,
                integrity: Default::default(),
                detect: Default::default(),
                sampling: Default::default(),
            },
        )
}

fn check_byte_conservation(analyses: &[AppAnalysis]) -> Result<(), TestCaseError> {
    let report = FullReport::build(analyses);
    let direct: u64 = analyses
        .iter()
        .flat_map(|a| a.flows.iter())
        .map(|f| f.sent_bytes + f.recv_bytes)
        .sum();
    prop_assert_eq!(report.headline.total_bytes, direct);
    prop_assert_eq!(
        report.headline.sent_bytes + report.headline.recv_bytes,
        direct
    );
    prop_assert_eq!(report.fig9.total, direct);
    let fig2_total: u64 = report.fig2.bytes.values().flat_map(|m| m.values()).sum();
    prop_assert_eq!(fig2_total, direct);
    let fig3_total: u64 = report
        .fig3
        .top_origin_libraries
        .iter()
        .map(|(_, b)| b)
        .sum();
    prop_assert_eq!(fig3_total, direct);
    let fig3_two_level: u64 = report.fig3.top_two_level.iter().map(|(_, b)| b).sum();
    prop_assert_eq!(fig3_two_level, direct);
    // Headline shares sum to ~100% when any traffic exists.
    if direct > 0 {
        let share_sum: f64 = report.headline.category_share_percent.values().sum();
        prop_assert!(
            (share_sum - 100.0).abs() < 1e-6,
            "shares sum to {share_sum}"
        );
    }
    Ok(())
}

fn check_fractions(analyses: &[AppAnalysis]) -> Result<(), TestCaseError> {
    let report = FullReport::build(analyses);
    let f6 = &report.fig6;
    for fraction in [
        f6.ant_only_fraction,
        f6.some_ant_fraction,
        f6.ant_free_fraction,
        report.fig10.above_mean_fraction,
        report.fig10.above_mean_methods_fraction,
        report.fig3.top25_two_level_share,
    ] {
        prop_assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
    }
    // AnT-only implies some-AnT; AnT-free is the complement of
    // some-AnT (over apps with app-attributable traffic).
    prop_assert!(f6.ant_only_fraction <= f6.some_ant_fraction + 1e-9);
    prop_assert!(
        (f6.some_ant_fraction + f6.ant_free_fraction - 1.0).abs() < 1e-9
            || (f6.some_ant_fraction == 0.0 && f6.ant_free_fraction == 0.0)
    );
    // RQ2 percentages are percentages.
    prop_assert!((0.0..=100.0).contains(&report.rq.rq2.misclassified_percent));
    prop_assert!((0.0..=100.0).contains(&report.rq.rq2.known_origin_cdn_percent));
    Ok(())
}

fn check_render(analyses: &[AppAnalysis]) -> Result<(), TestCaseError> {
    let report = FullReport::build(analyses);
    let text = report.render();
    prop_assert!(text.contains("Headline"));
    Ok(())
}

fn check_json_roundtrip(analyses: &[AppAnalysis]) -> Result<(), TestCaseError> {
    let report = FullReport::build(analyses);
    let json = serde_json::to_string(&report).expect("serializes");
    let back: FullReport = serde_json::from_str(&json).expect("deserializes");
    prop_assert_eq!(back.headline.total_bytes, report.headline.total_bytes);
    prop_assert_eq!(back.fig9.total, report.fig9.total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_conservation_across_all_views(analyses in proptest::collection::vec(analysis(), 0..10)) {
        check_byte_conservation(&analyses)?;
    }

    #[test]
    fn fractions_are_well_formed(analyses in proptest::collection::vec(analysis(), 0..10)) {
        check_fractions(&analyses)?;
    }

    #[test]
    fn render_never_panics(analyses in proptest::collection::vec(analysis(), 0..6)) {
        check_render(&analyses)?;
    }

    #[test]
    fn report_roundtrips_through_json(analyses in proptest::collection::vec(analysis(), 0..4)) {
        check_json_roundtrip(&analyses)?;
    }
}

/// A shrunk failure case once recorded for these properties: one app
/// whose only flow is a zero-byte `Builtin` flow labelled `Adult` /
/// `Advertisement`. Every property runs on it.
#[test]
fn recorded_zero_byte_builtin_case_satisfies_every_property() {
    let analyses = vec![AppAnalysis {
        package: "com.aa".to_owned(),
        app_category: "TOOLS".to_owned(),
        flows: vec![AnalyzedFlow {
            domain: None,
            domain_category: DomainCategory::Adult,
            origin: OriginKind::Builtin,
            lib_category: LibCategory::Advertisement,
            is_ant: false,
            is_common: false,
            sent_bytes: 0,
            recv_bytes: 0,
            sent_payload: 0,
            recv_payload: 0,
            start_micros: 0,
            http_user_agent: None,
            family: Default::default(),
            shape: Default::default(),
            stream: None,
        }],
        unattributed_flows: 0,
        reports_without_flow: 0,
        coverage: CoverageReport {
            total_methods: 1,
            executed_methods: 0,
            external_methods: 3,
        },
        dns_packets: 1,
        report_packets: 1,
        integrity: Default::default(),
        detect: Default::default(),
        sampling: Default::default(),
    }];
    for check in [
        check_byte_conservation,
        check_fractions,
        check_render,
        check_json_roundtrip,
    ] {
        if let Err(failure) = check(&analyses) {
            panic!("recorded case fails: {failure:?}");
        }
    }
}
