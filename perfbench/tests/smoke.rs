//! Toy-size smoke test of the benchmark binary and its gates.
//!
//! Runs every workload at `--scale toy`, untraced and traced, and
//! checks that the last output line carries every metric
//! `BENCHMARK.json` names, with its unit, and that the workload-specific
//! metrics are printed above it. Then feeds each correctness gate a
//! deliberately mismatched expectation and checks that it trips.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::gates::{self, ScanTotals};
use serde::Deserialize;
use spector_live::{LiveSummary, LiveVolume};
use spector_store::{StoreErrorKind, StoreIntegrity};

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Deserialize)]
struct Measured {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

fn benchmark() -> Benchmark {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> (String, RunResult) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "toy"])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("output").to_owned();
    let result: RunResult = serde_json::from_str(&last).expect("last line is JSON");
    (stdout, result)
}

fn check_metrics(workload: &str, result: &RunResult, expected: &[MetricDef]) {
    assert!(result.correct, "{workload}");
    assert!(result.attempted >= 1, "{workload}");
    assert_eq!(result.failed, 0, "{workload}");
    assert_eq!(result.metrics.len(), expected.len(), "{workload}");
    for metric in expected {
        let got = result
            .metrics
            .get(&metric.name)
            .unwrap_or_else(|| panic!("{workload}: {} missing", metric.name));
        assert_eq!(got.unit, metric.unit, "{workload}: {}", metric.name);
        assert!(got.value.is_finite(), "{workload}: {}", metric.name);
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark();
    let detail = [
        (
            "campaign",
            &[
                "apps_per_s 1/s",
                "store_bytes_per_app B",
                "report_p50_ms ms",
            ][..],
            &["dispatch.busy_share ratio", "store.seal_s s"][..],
        ),
        (
            "live_ingest",
            &[
                "frames_per_s 1/s",
                "snapshot_p50_ms ms",
                "snapshot_p90_ms ms",
            ][..],
            &[
                "live.client_send_s s",
                "live.snapshot_s s",
                "live.drain_s s",
                "live.inproc_frames_per_s 1/s",
                "live.events count",
                "live.dropped_events count",
                "live.batches count",
                "live.decode_errors count",
            ][..],
        ),
        (
            "store_history",
            &[
                "ingest_apps_per_s 1/s",
                "report_p50_ms ms",
                "report_p90_ms ms",
                "scan_p50_ms ms",
                "store_bytes_per_app B",
            ][..],
            &[
                "store.append_p50_ms ms",
                "store.open_p50_ms ms",
                "storeq.compute_s s",
                "storeq.report_from_store_s s",
                "store.records_scanned count",
            ][..],
        ),
    ];
    for (workload, untraced_detail, traced_detail) in detail {
        let (stdout, result) = run(workload, 0);
        check_metrics(workload, &result, &bench.end_to_end);
        let (traced_stdout, traced) = run(workload, 1);
        check_metrics(workload, &traced, &bench.per_layer);
        for (text, names) in [(&stdout, untraced_detail), (&traced_stdout, traced_detail)] {
            for name_unit in names {
                let (name, unit) = name_unit.split_once(' ').unwrap();
                let line = text
                    .lines()
                    .find(|l| l.split_whitespace().nth(1) == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert_eq!(line.split_whitespace().nth(3), Some(unit), "{line}");
            }
        }
        assert!(traced_stdout.contains("unattributed"), "{traced_stdout}");
    }
}

#[test]
fn report_gate_trips_on_a_different_report() {
    assert!(gates::same_report("== Table I ==\nads 3\n", "== Table I ==\nads 3\n").is_ok());
    assert!(gates::same_report("== Table I ==\nads 3\n", "== Table I ==\nads 4\n").is_err());
    assert!(gates::same_report("a\n", "a\nb\n").is_err());
}

#[test]
fn distinct_gate_trips_on_campaigns_that_render_alike() {
    assert!(gates::distinct_reports(&["apps 400\n", "apps 399\n"]).is_ok());
    assert!(gates::distinct_reports(&["apps 400\n", "apps 399\n", "apps 400\n"]).is_err());
}

#[test]
fn integrity_gate_trips_on_a_rejected_segment() {
    let mut integrity = StoreIntegrity {
        segments_ok: 3,
        ..Default::default()
    };
    assert!(gates::integrity_clean(&integrity).is_ok());
    integrity.rejected.push((
        "c0001-s0002.seg".to_owned(),
        StoreErrorKind::FingerprintMismatch,
    ));
    assert!(gates::integrity_clean(&integrity).is_err());
}

#[test]
fn failure_gate_trips_on_any_failed_operation() {
    assert!(gates::no_failures(0, 400).is_ok());
    assert!(gates::no_failures(1, 400).is_err());
}

#[test]
fn delivery_gate_trips_on_lost_or_dropped_frames() {
    let summary = LiveSummary {
        events: 1_000,
        ..Default::default()
    };
    assert!(gates::all_frames_delivered(&summary, 1_000).is_ok());
    assert!(gates::all_frames_delivered(&summary, 1_001).is_err());
    let dropped = LiveSummary {
        dropped_events: 1,
        ..summary
    };
    assert!(gates::all_frames_delivered(&dropped, 1_000).is_err());
}

#[test]
fn offline_gate_trips_on_a_diverging_summary() {
    let mut offline = LiveSummary {
        flows: 10,
        total_sent: 4_096,
        ..Default::default()
    };
    offline.per_library.insert(
        "com.adnet".to_owned(),
        LiveVolume {
            flows: 10,
            sent_bytes: 4_096,
            recv_bytes: 0,
        },
    );
    assert!(gates::live_matches_offline(&offline.clone(), &offline).is_ok());
    let fewer_flows = LiveSummary {
        flows: 9,
        ..offline.clone()
    };
    assert!(gates::live_matches_offline(&fewer_flows, &offline).is_err());
    let mut other_library = offline.clone();
    other_library.per_library.clear();
    assert!(gates::live_matches_offline(&other_library, &offline).is_err());
}

#[test]
fn scan_gate_trips_on_different_totals() {
    let expected = ScanTotals {
        campaigns: 12,
        apps: 4_800,
        flows: 180_000,
        bytes: 6_000_000_000,
    };
    assert!(gates::scan_matches(expected, expected).is_ok());
    let missing_campaign = ScanTotals {
        campaigns: 11,
        ..expected
    };
    assert!(gates::scan_matches(missing_campaign, expected).is_err());
    let short_bytes = ScanTotals {
        bytes: expected.bytes - 1,
        ..expected
    };
    assert!(gates::scan_matches(short_bytes, expected).is_err());
}
