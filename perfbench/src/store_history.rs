//! `store_history`: historical queries with writes beside reads.
//!
//! Set-up runs one campaign through the program's experiment and
//! pipeline and grows a store of several campaigns from its analyses.
//! Campaign `k` of the store holds those analyses without their first
//! `k` apps, so no two campaigns render the same report.
//! Each timed iteration starts from a copy of that store and follows a
//! fixed, seeded schedule of three operations:
//!
//! * append: one more campaign through `StoreWriter`, fsync'd and
//!   sealed;
//! * point query: what a fresh `libspector query --report` pays —
//!   `StoreReader::open`, `report_from_store` for one campaign, render;
//! * full-history scan: `StoreReader::open`, `storeq::compute` over all
//!   campaigns, render.

use std::path::Path;
use std::time::Instant;

use libspector::pipeline::AppAnalysis;
use spector_analysis::{storeq, FullReport};
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreTelemetry,
    StoreWriter,
};
use spector_telemetry::Telemetry;

use crate::common::{
    build_corpus, common_layers, dir_bytes, push, push_sampled, record_runs, scan_knowledge,
    LayerInputs, Outcome, RunArgs,
};
use crate::gates::ScanTotals;
use crate::stats::SplitMix;
use crate::{alloc, gates, stats, trace};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Append,
    Point,
    Scan,
}

/// The seeded operation schedule of one iteration: per round, one
/// append, `queries` point queries and one scan, in a seeded order.
fn schedule(seed: u64, rounds: usize, queries: usize) -> Vec<Op> {
    let mut rng = SplitMix::new(seed ^ 0x5707_e41d_0000_0001);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        let mut round = vec![Op::Append, Op::Scan];
        round.extend(std::iter::repeat_n(Op::Point, queries));
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        ops.extend(round);
    }
    ops
}

#[derive(Default)]
struct Iteration {
    total_s: f64,
    peak_mb: f64,
    point_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    scan_apps: Vec<f64>,
    append_ms: Vec<f64>,
    append_apps: Vec<f64>,
    bytes_per_app: f64,
    ops: u64,
    failed: u64,
    root: Option<u64>,
    metrics: spector_telemetry::MetricsSnapshot,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = &args.scale;
    trace::set_run(0);
    let started = Instant::now();
    let corpus = build_corpus(scale, 0.0);
    let (knowledge, detections) = scan_knowledge(&corpus);
    let recorded = record_runs(&corpus, &knowledge, scale, args.seed, false);
    drop(corpus);
    drop(knowledge);
    let base = args.work_dir.join("history-base");
    for k in 0..scale.history_campaigns {
        append_campaign(
            &base,
            &recorded.analyses,
            k,
            args.seed,
            &Telemetry::disabled(),
        )?;
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut outcome = Outcome::default();
    outcome.gate(
        "store_history.recorded_every_app",
        gates::no_failures(recorded.failures as u64, scale.apps as u64),
    );
    // What every campaign the store can hold during an iteration must
    // read back as.
    let expected: Vec<Expected> = (0..scale.history_campaigns + scale.history_rounds)
        .map(|k| Expected::of(campaign_apps(&recorded.analyses, k)))
        .collect();
    let reports: Vec<&str> = expected.iter().map(|e| e.report.as_str()).collect();
    outcome.gate(
        "store_history.campaigns_distinct",
        gates::distinct_reports(&reports),
    );
    let ops = schedule(args.seed, scale.history_rounds, scale.history_queries);

    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    let window = Instant::now();
    while args.another(iterations.len(), window.elapsed()) {
        let index = iterations.len();
        let traced = args.traced_iteration(index);
        let dir = args.work_dir.join(format!("history-{index}"));
        copy_dir(&base, &dir).map_err(|e| format!("copying the base store: {e}"))?;
        trace::set_active(traced);
        trace::set_run(index as u32 + 1);
        let mut context = Context {
            dir: &dir,
            analyses: &recorded.analyses,
            expected: &expected,
            campaigns: scale.history_campaigns as u64,
            rng: SplitMix::new(args.seed.wrapping_add(index as u64)),
            seed: args.seed,
            outcome: &mut outcome,
        };
        let iteration = iterate(&mut context, &ops, traced)?;
        let _ = std::fs::remove_dir_all(&dir);
        iterations.push((traced, iteration));
    }
    trace::set_active(args.trace);

    let untraced: Vec<&Iteration> = iterations
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, i)| i)
        .collect();
    outcome.attempted = iterations.iter().map(|(_, i)| i.ops).sum();
    outcome.failed = iterations.iter().map(|(_, i)| i.failed).sum();
    let total_s = stats::mean(&untraced.iter().map(|i| i.total_s).collect::<Vec<_>>());
    // Median over every append: each one writes and seals a campaign.
    let append_ms: Vec<f64> = untraced.iter().flat_map(|i| i.append_ms.clone()).collect();
    let append_rates: Vec<f64> = untraced
        .iter()
        .flat_map(|i| i.append_apps.iter().zip(&i.append_ms))
        .map(|(apps, ms)| apps * 1e3 / ms)
        .collect();
    let ingest = stats::median(&append_rates);
    let point_ms: Vec<f64> = untraced.iter().flat_map(|i| i.point_ms.clone()).collect();
    let scan_ms: Vec<f64> = untraced.iter().flat_map(|i| i.scan_ms.clone()).collect();
    // Queries are CPU-bound; appends wait on fsync, whose latency on a
    // shared disk swings by a factor of three between runs, so the
    // bounded throughput is the scan side's.
    let scanned_apps: f64 = untraced.iter().flat_map(|i| &i.scan_apps).sum();
    let scanned_apps_per_s = scanned_apps * 1e3 / scan_ms.iter().sum::<f64>();
    let p50 = stats::quantile(&point_ms, 0.5).unwrap_or(0.0);
    let peak_mb = stats::median(&untraced.iter().map(|i| i.peak_mb).collect::<Vec<_>>());

    let e2e = &mut outcome.end_to_end;
    push_sampled(e2e, "setup_s", setup_s, "s", 1);
    push_sampled(e2e, "total_s", total_s, "s", untraced.len());
    push_sampled(
        e2e,
        "throughput_per_s",
        scanned_apps_per_s,
        "1/s",
        scan_ms.len(),
    );
    push_sampled(e2e, "peak_heap_mb", peak_mb, "MB", untraced.len());

    let detail = &mut outcome.detail;
    push_sampled(detail, "ingest_apps_per_s", ingest, "1/s", append_ms.len());
    push_sampled(
        detail,
        "scan_apps_per_s",
        scanned_apps_per_s,
        "1/s",
        scan_ms.len(),
    );
    push_sampled(detail, "report_p50_ms", p50, "ms", point_ms.len());
    push_sampled(
        detail,
        "report_p90_ms",
        stats::quantile(&point_ms, 0.9).unwrap_or(0.0),
        "ms",
        point_ms.len(),
    );
    push_sampled(
        detail,
        "scan_p50_ms",
        stats::quantile(&scan_ms, 0.5).unwrap_or(0.0),
        "ms",
        scan_ms.len(),
    );
    push(
        detail,
        "store_bytes_per_app",
        stats::median(&untraced.iter().map(|i| i.bytes_per_app).collect::<Vec<_>>()),
        "B",
    );

    if args.trace {
        let traced: Vec<&Iteration> = iterations
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, i)| i)
            .collect();
        let last = traced.last().expect("a traced run has a traced iteration");
        let traced_s = stats::mean(&traced.iter().map(|i| i.total_s).collect::<Vec<_>>());
        let roots: Vec<u64> = traced.iter().filter_map(|i| i.root).collect();
        common_layers(
            &mut outcome,
            &LayerInputs {
                detections,
                run_app_s: &recorded.run_app_s,
                frames: recorded.frames,
                reports: recorded
                    .analyses
                    .iter()
                    .map(|a| a.report_packets as u64)
                    .sum(),
                pipeline: &recorded.pipeline,
                untraced_s: total_s,
                traced_s,
            },
            &roots,
        );
        let median_of = |layer, name| stats::median(&trace::samples(layer, name));
        let counter = |name: &str| last.metrics.counter(name) as f64;
        let detail = &mut outcome.detail;
        push_sampled(
            detail,
            "store.append_p50_ms",
            stats::median(&last.append_ms),
            "ms",
            last.append_ms.len(),
        );
        push(detail, "store.seal_s", median_of("store", "seal"), "s");
        push(
            detail,
            "store.segments_written",
            counter("spector_store_segments_written_total"),
            "count",
        );
        push(
            detail,
            "store.bytes_written",
            counter("spector_store_bytes_written_total"),
            "B",
        );
        push(
            detail,
            "store.open_p50_ms",
            median_of("store", "open") * 1e3,
            "ms",
        );
        push(
            detail,
            "storeq.compute_s",
            median_of("storeq", "compute"),
            "s",
        );
        push(
            detail,
            "storeq.report_from_store_s",
            median_of("storeq", "report_from_store"),
            "s",
        );
        push(
            detail,
            "store.records_scanned",
            counter("spector_store_records_scanned_total"),
            "count",
        );
    }
    Ok(outcome)
}

/// What one stored campaign must read back as.
struct Expected {
    /// The in-memory render of its analyses.
    report: String,
    /// Its scan totals.
    totals: ScanTotals,
}

impl Expected {
    fn of(analyses: &[AppAnalysis]) -> Expected {
        Expected {
            report: FullReport::build(analyses).render(),
            totals: ScanTotals {
                campaigns: 1,
                apps: analyses.len() as u64,
                flows: analyses.iter().map(|a| a.flows.len() as u64).sum(),
                bytes: analyses
                    .iter()
                    .map(|a| a.total_sent() + a.total_recv())
                    .sum(),
            },
        }
    }
}

/// The analyses campaign `k` of the store holds: all but the first `k`
/// (modulo the campaign size).
fn campaign_apps(analyses: &[AppAnalysis], k: usize) -> &[AppAnalysis] {
    &analyses[k % analyses.len().max(1)..]
}

/// Scan totals of the first `campaigns` campaigns.
fn scan_totals(expected: &[Expected], campaigns: u64) -> ScanTotals {
    let mut sum = ScanTotals {
        campaigns,
        apps: 0,
        flows: 0,
        bytes: 0,
    };
    for e in &expected[..campaigns as usize] {
        sum.apps += e.totals.apps;
        sum.flows += e.totals.flows;
        sum.bytes += e.totals.bytes;
    }
    sum
}

struct Context<'a> {
    dir: &'a Path,
    analyses: &'a [AppAnalysis],
    expected: &'a [Expected],
    campaigns: u64,
    rng: SplitMix,
    seed: u64,
    outcome: &'a mut Outcome,
}

fn iterate(cx: &mut Context<'_>, ops: &[Op], traced: bool) -> Result<Iteration, String> {
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut it = Iteration::default();
    alloc::reset_peak();
    let started = Instant::now();
    let root = trace::span("workload", "store_history");
    for op in ops {
        it.ops += 1;
        let op_started = Instant::now();
        match op {
            Op::Append => {
                let k = cx.campaigns as usize;
                let result = append_campaign(cx.dir, cx.analyses, k, cx.seed, &telemetry);
                let elapsed = op_started.elapsed().as_secs_f64();
                if let Err(error) = result {
                    it.failed += 1;
                    cx.outcome.gate("store_history.append", Err(error));
                    continue;
                }
                cx.campaigns += 1;
                it.append_ms.push(elapsed * 1e3);
                it.append_apps
                    .push(campaign_apps(cx.analyses, k).len() as f64);
            }
            Op::Point => {
                let id = cx.rng.below(cx.campaigns as usize);
                let result = point_query(cx.dir, id as u32, &telemetry);
                it.point_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
                let expected = &cx.expected[id].report;
                let check = result.and_then(|report| gates::same_report(expected, &report));
                if check.is_err() {
                    it.failed += 1;
                    cx.outcome.gate("store_history.point_query", check);
                }
            }
            Op::Scan => {
                let result = scan(cx.dir, &telemetry);
                let elapsed = op_started.elapsed().as_secs_f64();
                let expected = scan_totals(cx.expected, cx.campaigns);
                it.scan_ms.push(elapsed * 1e3);
                it.scan_apps.push(expected.apps as f64);
                let check = result.and_then(|totals| gates::scan_matches(totals, expected));
                if check.is_err() {
                    it.failed += 1;
                    cx.outcome.gate("store_history.scan", check);
                }
            }
        }
    }
    it.root = root.id();
    drop(root);
    it.total_s = started.elapsed().as_secs_f64();
    it.peak_mb = alloc::peak_mb();
    let stored_apps = scan_totals(cx.expected, cx.campaigns).apps;
    it.bytes_per_app = dir_bytes(cx.dir) as f64 / stored_apps as f64;
    it.metrics = telemetry.snapshot();
    let integrity = StoreReader::open(cx.dir)
        .map_err(|e| format!("opening store: {e}"))
        .and_then(|reader| gates::integrity_clean(reader.integrity()));
    cx.outcome.gate("store_history.store_integrity", integrity);
    cx.outcome.gate(
        "store_history.no_failed_ops",
        gates::no_failures(it.failed, it.ops),
    );
    Ok(it)
}

/// Appends campaign `k` of `analyses` (see [`campaign_apps`]) to the
/// store at `dir` and seals it.
fn append_campaign(
    dir: &Path,
    analyses: &[AppAnalysis],
    k: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let _append = trace::span("store", "append_campaign");
    let campaign = campaign_apps(analyses, k);
    let first = analyses.len() - campaign.len();
    let analyses = campaign;
    let meta = CampaignMeta {
        seed,
        apps: analyses.len(),
        monkey_events: 0,
        kind: CampaignKind::Run,
    };
    let mut writer = StoreWriter::create(
        dir,
        &meta,
        StoreOptions {
            telemetry: StoreTelemetry::new(telemetry),
            ..Default::default()
        },
    )
    .map_err(|e| format!("creating campaign: {e}"))?;
    for (index, analysis) in (first..).zip(analyses) {
        writer
            .append_analysis(index as u32, analysis)
            .map_err(|e| format!("appending app {index}: {e}"))?;
    }
    let seal = CampaignSealRecord {
        seed,
        apps: analyses.len(),
        monkey_events: 0,
        failures: Vec::new(),
    };
    trace::timed("store", "seal", || writer.finish(&seal)).map_err(|e| format!("sealing: {e}"))
}

fn open(dir: &Path, telemetry: &Telemetry) -> Result<StoreReader, String> {
    trace::timed("store", "open", || {
        StoreReader::open_with(dir, StoreTelemetry::new(telemetry))
    })
    .map_err(|e| format!("opening store: {e}"))
}

/// `libspector query --report --campaign id`, from a fresh open.
fn point_query(dir: &Path, id: u32, telemetry: &Telemetry) -> Result<String, String> {
    let _query = trace::span("storeq", "point_query");
    let reader = open(dir, telemetry)?;
    let id = reader
        .campaigns()
        .get(id as usize)
        .map(|c| c.id)
        .ok_or_else(|| format!("campaign #{id} missing"))?;
    let report = trace::timed("storeq", "report_from_store", || {
        storeq::report_from_store(&reader, id)
    });
    Ok(trace::timed("analysis", "render", || report.render()))
}

/// `libspector query` over every campaign, from a fresh open.
fn scan(dir: &Path, telemetry: &Telemetry) -> Result<ScanTotals, String> {
    let _scan = trace::span("storeq", "scan");
    let reader = open(dir, telemetry)?;
    let stats = trace::timed("storeq", "compute", || storeq::compute(&reader, None));
    let rendered = trace::timed("analysis", "render", || storeq::render(&stats, 20));
    std::hint::black_box(rendered);
    gates::integrity_clean(&stats.integrity)?;
    Ok(ScanTotals {
        campaigns: stats.campaigns.len() as u64,
        apps: stats.apps,
        flows: stats.flows,
        bytes: stats.total.total(),
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_complete() {
        let ops = schedule(7, 3, 4);
        assert_eq!(ops, schedule(7, 3, 4));
        assert_eq!(ops.iter().filter(|o| **o == Op::Append).count(), 3);
        assert_eq!(ops.iter().filter(|o| **o == Op::Scan).count(), 3);
        assert_eq!(ops.iter().filter(|o| **o == Op::Point).count(), 12);
    }
}
