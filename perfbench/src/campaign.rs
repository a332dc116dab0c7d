//! `campaign`: a closed-loop batch job with the inputs of
//! `libspector run --store` at CLI defaults — the paper's §IV scale.
//!
//! Set-up generates the corpus (the program's input). A full iteration
//! is what a user of `run` waits for: the knowledge scan, the campaign
//! through the dispatcher into a `StoreWriter`, the seal, and the
//! rendered report. Window time left after the full iterations goes to
//! repeats of the campaign phase and render alone, on a fresh copy of
//! the scanned knowledge. `total_s` adds the mean scan, campaign phase
//! and render times, so every sample in the window counts. After every
//! iteration or repeat the corpus is generated again, so `setup_s`
//! samples the host across the window as `total_s` does.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use libspector::knowledge::Knowledge;
use spector_analysis::FullReport;
use spector_corpus::Corpus;
use spector_dispatch::{run_campaign_stored, CampaignConfig, CampaignOutcome, DispatchConfig};
use spector_store::{
    CampaignKind, CampaignMeta, CampaignSealRecord, StoreOptions, StoreReader, StoreTelemetry,
    StoreWriter, StoredFailure,
};
use spector_telemetry::{MetricsSnapshot, Telemetry};

use crate::common::{
    build_corpus, common_layers, dir_bytes, experiment_config, push, push_sampled, record_runs,
    scan_knowledge, stage_total, LayerInputs, Outcome, RunArgs, Scale,
};
use crate::{alloc, gates, stats, trace};

/// One campaign phase: `run_campaign_stored` into a fresh store plus
/// the seal.
struct Phase {
    seconds: f64,
    result: CampaignOutcome,
    dispatch_span: Option<u64>,
}

/// One full iteration's measurements.
struct Iteration {
    traced: bool,
    total_s: f64,
    peak_mb: f64,
    scan_s: f64,
    render_s: f64,
    root: Option<u64>,
    detections: u64,
    metrics: MetricsSnapshot,
    reports: u64,
    /// The scanned knowledge, for the repeats and the per-app probe.
    knowledge: Knowledge,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = &args.scale;
    let mut setup_s = Vec::new();
    let mut corpus = generate(scale, &mut setup_s);

    let mut outcome = Outcome::default();
    let mut iterations: Vec<Iteration> = Vec::new();
    // Seconds of every untraced campaign phase and render.
    let mut phase_s = Vec::new();
    let mut render_s = Vec::new();
    let mut query_ms = Vec::new();
    let mut bytes_per_app = Vec::new();
    let window = Instant::now();
    // At least two full iterations, so the knowledge scan, three
    // quarters of `total_s`, is sampled at both ends of the window.
    while iterations.len() < 2 || args.another(iterations.len(), window.elapsed()) {
        let index = iterations.len();
        let traced = args.traced_iteration(index);
        trace::set_active(traced);
        trace::set_run(index as u32 + 1);
        let dir = args.work_dir.join(format!("campaign-{index}"));
        let (iteration, phase, rendered) = iterate(&corpus, args, &dir, traced)?;
        let (queries, bytes) = check(args, &dir, &phase, &rendered, &mut outcome)?;
        if !traced {
            phase_s.push(phase.seconds);
            render_s.push(iteration.render_s);
            query_ms.extend(queries);
            bytes_per_app.push(bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
        iterations.push(iteration);
        drop(corpus);
        corpus = generate(scale, &mut setup_s);
    }
    // Fill the rest of an untraced window with campaign phases and
    // renders alone, each expected to take as long as the last one.
    let mut per_repeat = stats::mean(&phase_s) + stats::mean(&render_s);
    for repeat in 0.. {
        if args.trace || window.elapsed().as_secs_f64() + per_repeat > args.seconds {
            break;
        }
        let step = Instant::now();
        let knowledge = cold_copy(&iterations[0].knowledge);
        let dir = args.work_dir.join(format!("campaign-repeat-{repeat}"));
        let phase = campaign_phase(&corpus, &knowledge, args, &dir, &Telemetry::disabled())?;
        let started = Instant::now();
        let rendered = FullReport::build(&phase.result.analyses).render();
        render_s.push(started.elapsed().as_secs_f64());
        let (queries, bytes) = check(args, &dir, &phase, &rendered, &mut outcome)?;
        phase_s.push(phase.seconds);
        query_ms.extend(queries);
        bytes_per_app.push(bytes);
        let _ = std::fs::remove_dir_all(&dir);
        drop(corpus);
        corpus = generate(scale, &mut setup_s);
        per_repeat = step.elapsed().as_secs_f64();
    }
    trace::set_active(args.trace);

    let untraced: Vec<&Iteration> = iterations.iter().filter(|i| !i.traced).collect();
    let traced_count = iterations.len() - untraced.len();
    outcome.attempted = ((phase_s.len() + traced_count) * scale.apps) as u64;

    let scan_s: Vec<f64> = untraced.iter().map(|i| i.scan_s).collect();
    let total_s = stats::mean(&scan_s) + stats::mean(&phase_s) + stats::mean(&render_s);
    let apps_per_s = (phase_s.len() * scale.apps) as f64 / phase_s.iter().sum::<f64>();
    let peak_mb = stats::median(&untraced.iter().map(|i| i.peak_mb).collect::<Vec<_>>());
    let query_p50 = stats::median(&query_ms);

    let e2e = &mut outcome.end_to_end;
    push_sampled(e2e, "setup_s", stats::median(&setup_s), "s", setup_s.len());
    push_sampled(e2e, "total_s", total_s, "s", phase_s.len());
    push_sampled(e2e, "throughput_per_s", apps_per_s, "1/s", phase_s.len());
    push_sampled(e2e, "peak_heap_mb", peak_mb, "MB", untraced.len());

    let detail = &mut outcome.detail;
    push_sampled(detail, "apps_per_s", apps_per_s, "1/s", phase_s.len());
    push_sampled(detail, "scan_s", stats::mean(&scan_s), "s", scan_s.len());
    push(
        detail,
        "store_bytes_per_app",
        stats::median(&bytes_per_app),
        "B",
    );
    push_sampled(detail, "report_p50_ms", query_p50, "ms", query_ms.len());

    if args.trace {
        let untraced_s = stats::mean(&untraced.iter().map(|i| i.total_s).collect::<Vec<_>>());
        traced_layers(args, &corpus, &iterations, untraced_s, &mut outcome);
    }
    Ok(outcome)
}

/// Per-layer metrics from the traced iterations, plus raw per-app
/// `run_app` samples: every app's experiment replayed outside the
/// dispatcher, whose telemetry keeps only decade buckets.
fn traced_layers(
    args: &RunArgs,
    corpus: &Corpus,
    iterations: &[Iteration],
    untraced_s: f64,
    outcome: &mut Outcome,
) {
    let scale = &args.scale;
    let traced: Vec<&Iteration> = iterations.iter().filter(|i| i.traced).collect();
    let last = traced.last().expect("a traced run has a traced iteration");
    trace::set_run(0);
    let probe = record_runs(corpus, &cold_copy(&last.knowledge), scale, args.seed, false);
    let roots: Vec<u64> = traced.iter().filter_map(|i| i.root).collect();
    let traced_s = stats::mean(&traced.iter().map(|i| i.total_s).collect::<Vec<_>>());
    let run_app = stage_total(&last.metrics, "experiment/run_app");
    common_layers(
        outcome,
        &LayerInputs {
            detections: last.detections,
            run_app_s: &probe.run_app_s,
            frames: probe.frames,
            reports: last.reports,
            pipeline: &last.metrics,
            untraced_s,
            traced_s,
        },
        &roots,
    );
    let dispatch_s = stats::median(&trace::samples("dispatch", "run_campaign_stored"));
    let analyze = outcome
        .per_layer
        .iter()
        .find(|m| m.name == "pipeline.analyze_s")
        .map_or(0.0, |m| m.value);
    let counter = |name: &str| last.metrics.counter(name) as f64;
    let detail = &mut outcome.detail;
    push(
        detail,
        "dispatch.busy_share",
        (run_app.0 + analyze) / (scale.workers as f64 * dispatch_s),
        "ratio",
    );
    push(detail, "dispatch.run_app_total_s", run_app.0, "s");
    push(
        detail,
        "store.seal_s",
        stats::median(&trace::samples("store", "seal")),
        "s",
    );
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
}

/// Generates the corpus and records how long that took.
fn generate(scale: &Scale, setup_s: &mut Vec<f64>) -> Corpus {
    let started = Instant::now();
    let corpus = build_corpus(scale, 0.0);
    setup_s.push(started.elapsed().as_secs_f64());
    corpus
}

/// A copy of `knowledge` with an empty verdict cache: what
/// `Knowledge::from_corpus` returns, without scanning again.
fn cold_copy(knowledge: &Knowledge) -> Knowledge {
    let mut copy = Knowledge::with_domain_categories(
        knowledge.aggregated.clone(),
        knowledge.lists.clone(),
        knowledge.domain_categories.clone(),
    );
    copy.exact_aliases = knowledge.exact_aliases.clone();
    copy.structural_aliases = knowledge.structural_aliases.clone();
    copy
}

/// The campaign phase: `run_campaign_stored` into a new store at `dir`
/// and the seal, as `libspector run --store` does them.
fn campaign_phase(
    corpus: &Corpus,
    knowledge: &Knowledge,
    args: &RunArgs,
    dir: &Path,
    telemetry: &Telemetry,
) -> Result<Phase, String> {
    let scale = &args.scale;
    let mut dispatch = DispatchConfig {
        workers: scale.workers,
        ..Default::default()
    };
    dispatch.experiment = experiment_config(scale, args.seed);
    let config = CampaignConfig {
        dispatch,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let meta = CampaignMeta {
        seed: args.seed,
        apps: scale.apps,
        monkey_events: scale.events as usize,
        kind: CampaignKind::Run,
    };
    let started = Instant::now();
    let writer = trace::timed("store", "create", || {
        StoreWriter::create(
            dir,
            &meta,
            StoreOptions {
                telemetry: StoreTelemetry::new(telemetry),
                ..Default::default()
            },
        )
    })
    .map_err(|e| format!("creating store: {e}"))?;
    let writer = Mutex::new(writer);
    let span = trace::span("dispatch", "run_campaign_stored");
    let result = run_campaign_stored(corpus, knowledge, &config, None, None, Some(&writer))
        .map_err(|e| format!("campaign store i/o: {e}"))?;
    let dispatch_span = span.id();
    drop(span);
    let seal = CampaignSealRecord {
        seed: args.seed,
        apps: scale.apps,
        monkey_events: scale.events as usize,
        failures: result
            .failures
            .iter()
            .map(|f| StoredFailure {
                index: f.index,
                package: f.package.clone(),
                error: f.error.clone(),
                attempts: f.attempts,
            })
            .collect(),
    };
    trace::timed("store", "seal", || {
        writer
            .into_inner()
            .expect("store writer poisoned")
            .finish(&seal)
    })
    .map_err(|e| format!("sealing store: {e}"))?;
    Ok(Phase {
        seconds: started.elapsed().as_secs_f64(),
        result,
        dispatch_span,
    })
}

/// One full iteration: scan, campaign phase and render, timed as a
/// whole.
fn iterate(
    corpus: &Corpus,
    args: &RunArgs,
    dir: &Path,
    traced: bool,
) -> Result<(Iteration, Phase, String), String> {
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    alloc::reset_peak();
    let started = Instant::now();
    let root = trace::span("workload", "campaign");
    let (knowledge, detections) = scan_knowledge(corpus);
    let scan_s = started.elapsed().as_secs_f64();
    let phase = campaign_phase(corpus, &knowledge, args, dir, &telemetry)?;
    let render_started = Instant::now();
    let rendered = trace::timed("analysis", "render", || {
        FullReport::build(&phase.result.analyses).render()
    });
    let render_s = render_started.elapsed().as_secs_f64();
    let root_id = root.id();
    drop(root);
    let total_s = started.elapsed().as_secs_f64();
    let peak_mb = alloc::peak_mb();

    let metrics = telemetry.snapshot();
    if traced {
        let (run_app_s, run_app_calls) = stage_total(&metrics, "experiment/run_app");
        let (analyze_s, analyze_calls) = [
            "pipeline/capture_decode",
            "pipeline/report_decode",
            "pipeline/flow_join",
            "pipeline/coverage",
        ]
        .iter()
        .map(|path| stage_total(&metrics, path))
        .fold((0.0, 0), |(s, n), (a, b)| (s + a, n.max(b)));
        let lanes = args.scale.workers as f64;
        let parent = phase.dispatch_span;
        trace::aggregate(parent, "experiment", run_app_s, lanes, run_app_calls);
        trace::aggregate(parent, "pipeline", analyze_s, lanes, analyze_calls);
    }
    let iteration = Iteration {
        traced,
        total_s,
        peak_mb,
        scan_s,
        render_s,
        root: root_id,
        detections,
        metrics,
        reports: phase
            .result
            .analyses
            .iter()
            .map(|a| a.report_packets as u64)
            .sum(),
        knowledge,
    };
    Ok((iteration, phase, rendered))
}

/// Correctness, untimed: the stored campaign must render exactly the
/// report the in-memory run printed, as `query --report` would. Also
/// times those point queries. Returns their latencies (ms) and the
/// bytes on disk per stored app.
fn check(
    args: &RunArgs,
    dir: &Path,
    phase: &Phase,
    rendered: &str,
    outcome: &mut Outcome,
) -> Result<(Vec<f64>, f64), String> {
    let mut query_ms = Vec::new();
    let mut from_store = String::new();
    let mut integrity = Ok(());
    for _ in 0..args.scale.campaign_queries.max(1) {
        let started = Instant::now();
        let _query = trace::span("storeq", "point_query");
        let reader = StoreReader::open(dir).map_err(|e| format!("opening store: {e}"))?;
        let id = reader.campaigns().first().map_or(0, |c| c.id);
        from_store = spector_analysis::storeq::report_from_store(&reader, id).render();
        query_ms.push(started.elapsed().as_secs_f64() * 1e3);
        integrity = gates::integrity_clean(reader.integrity());
    }
    let failed = phase.result.failures.len() as u64;
    outcome.failed += failed;
    outcome.gate(
        "campaign.report_roundtrip",
        gates::same_report(rendered, &from_store),
    );
    outcome.gate("campaign.store_integrity", integrity);
    outcome.gate(
        "campaign.no_failed_apps",
        gates::no_failures(failed, args.scale.apps as u64),
    );
    let stored = phase.result.analyses.len().max(1) as f64;
    Ok((query_ms, dir_bytes(dir) as f64 / stored))
}
