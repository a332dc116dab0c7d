//! `live_ingest`: the streaming service path.
//!
//! Set-up records a corpus's runs (half the apps on the modern wire:
//! IPv6, TLS-like, CONNECT and pooled frames) and computes the offline
//! summary they must produce. The timed phase replays the runs through
//! an `IngestServer` into a sharded `LiveEngine`: one generator thread
//! sends over one TCP connection as fast as backpressure allows and
//! takes a `snapshot()` every few runs.

use std::sync::Arc;
use std::time::Instant;

use libspector::experiment::RawRun;
use spector_live::{IngestClient, IngestConfig, IngestServer, LiveConfig, LiveEngine, LiveSummary};
use spector_telemetry::{MetricsSnapshot, Telemetry};

use crate::common::{
    build_corpus, common_layers, push, push_sampled, record_runs, scan_knowledge, LayerInputs,
    Outcome, RunArgs,
};
use crate::{alloc, gates, stats, trace};

struct Iteration {
    total_s: f64,
    stream_s: f64,
    send_s: f64,
    drain_s: f64,
    peak_mb: f64,
    snapshot_ms: Vec<f64>,
    summary: LiveSummary,
    metrics: MetricsSnapshot,
    root: Option<u64>,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = &args.scale;
    trace::set_run(0);
    let started = Instant::now();
    let corpus = build_corpus(scale, scale.live_modern_fraction);
    let (knowledge, detections) = scan_knowledge(&corpus);
    let recorded = record_runs(&corpus, &knowledge, scale, args.seed, true);
    let offline = LiveSummary::from_analyses(&recorded.analyses);
    drop(corpus);
    let setup_s = started.elapsed().as_secs_f64();
    let knowledge = Arc::new(knowledge);
    let raws = &recorded.raws;
    let frames = recorded.frames;

    let mut outcome = Outcome::default();
    outcome.gate(
        "live_ingest.recorded_every_app",
        gates::no_failures(recorded.failures as u64, scale.apps as u64),
    );
    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    let window = Instant::now();
    while args.another(iterations.len(), window.elapsed()) {
        let index = iterations.len();
        let traced = args.traced_iteration(index);
        trace::set_active(traced);
        trace::set_run(index as u32 + 1);
        let iteration = iterate(
            &knowledge,
            raws,
            scale.workers,
            scale.snapshot_every,
            traced,
        )?;
        outcome.gate(
            "live_ingest.all_frames_delivered",
            gates::all_frames_delivered(&iteration.summary, frames),
        );
        outcome.gate(
            "live_ingest.matches_offline",
            gates::live_matches_offline(&iteration.summary, &offline),
        );
        iterations.push((traced, iteration));
    }
    trace::set_active(args.trace);

    let untraced: Vec<&Iteration> = iterations
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, i)| i)
        .collect();
    outcome.attempted = frames * iterations.len() as u64;
    outcome.failed = iterations
        .iter()
        .map(|(_, i)| frames.saturating_sub(i.summary.events) + i.summary.dropped_events)
        .sum();
    let total_s = stats::mean(&untraced.iter().map(|i| i.total_s).collect::<Vec<_>>());
    let frames_per_s =
        (frames * untraced.len() as u64) as f64 / untraced.iter().map(|i| i.stream_s).sum::<f64>();
    let snapshot_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|i| i.snapshot_ms.clone())
        .collect();
    let p50 = stats::quantile(&snapshot_ms, 0.5).unwrap_or(0.0);
    let p90 = stats::quantile(&snapshot_ms, 0.9).unwrap_or(0.0);
    let peak_mb = stats::median(&untraced.iter().map(|i| i.peak_mb).collect::<Vec<_>>());

    let e2e = &mut outcome.end_to_end;
    push_sampled(e2e, "setup_s", setup_s, "s", 1);
    push_sampled(e2e, "total_s", total_s, "s", untraced.len());
    push_sampled(e2e, "throughput_per_s", frames_per_s, "1/s", untraced.len());
    push_sampled(e2e, "peak_heap_mb", peak_mb, "MB", untraced.len());

    let detail = &mut outcome.detail;
    push_sampled(detail, "frames_per_s", frames_per_s, "1/s", untraced.len());
    push_sampled(detail, "snapshot_p50_ms", p50, "ms", snapshot_ms.len());
    push_sampled(detail, "snapshot_p90_ms", p90, "ms", snapshot_ms.len());
    push(detail, "frames_per_run", frames as f64, "count");

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
                frames,
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
        // The same frames through `LiveEngine::push_run`, without the
        // socket hop.
        trace::set_active(false);
        let inproc_s = push_in_process(&knowledge, raws, scale.workers)?;
        trace::set_active(true);
        let counter = |name: &str| last.metrics.counter(name) as f64;
        let decode_errors = counter("spector_live_ingress_frames_truncated_total")
            + counter("spector_live_ingress_frames_malformed_total")
            + counter("spector_live_ingress_frames_bad_checksum_total")
            + counter("spector_live_ingress_reports_truncated_total")
            + counter("spector_live_ingress_reports_malformed_total");
        let detail = &mut outcome.detail;
        push(detail, "live.client_send_s", last.send_s, "s");
        push(
            detail,
            "live.snapshot_s",
            last.snapshot_ms.iter().sum::<f64>() / 1e3,
            "s",
        );
        push(detail, "live.drain_s", last.drain_s, "s");
        push(
            detail,
            "live.inproc_frames_per_s",
            frames as f64 / inproc_s,
            "1/s",
        );
        push(
            detail,
            "live.events",
            counter("spector_live_events_total"),
            "count",
        );
        push(
            detail,
            "live.dropped_events",
            counter("spector_live_dropped_events_total"),
            "count",
        );
        push(
            detail,
            "live.batches",
            counter("spector_live_batches_total"),
            "count",
        );
        push(detail, "live.decode_errors", decode_errors, "count");
    }
    Ok(outcome)
}

fn iterate(
    knowledge: &Arc<libspector::knowledge::Knowledge>,
    raws: &[RawRun],
    shards: usize,
    snapshot_every: usize,
    traced: bool,
) -> Result<Iteration, String> {
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    alloc::reset_peak();
    let started = Instant::now();
    let root = trace::span("workload", "live_ingest");
    let server = trace::timed("live", "start", || {
        let engine = LiveEngine::start(
            Arc::clone(knowledge),
            LiveConfig {
                shards,
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        );
        IngestServer::start(engine, IngestConfig::default())
    })
    .map_err(|e| format!("starting ingest server: {e}"))?;
    let stream_started = Instant::now();
    let mut client = IngestClient::connect(server.tcp_addr())
        .map_err(|e| format!("connecting to ingest server: {e}"))?;
    let mut snapshot_ms = Vec::new();
    let mut send_s = 0.0;
    for (run, raw) in raws.iter().enumerate() {
        let sent = Instant::now();
        trace::timed("live", "client_send", || {
            client.send_run(run as u32, &raw.capture)
        })
        .map_err(|e| format!("sending run {run}: {e}"))?;
        send_s += sent.elapsed().as_secs_f64();
        if (run + 1) % snapshot_every.max(1) == 0 {
            let asked = Instant::now();
            let snapshot = trace::timed("live", "snapshot", || server.snapshot());
            snapshot_ms.push(asked.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(snapshot);
        }
    }
    let drain_started = Instant::now();
    let (summary, metrics) = trace::timed("live", "drain", || {
        client.finish()?;
        Ok::<_, std::io::Error>(server.shutdown().finish_with_metrics())
    })
    .map_err(|e| format!("draining ingest server: {e}"))?;
    let stream_s = stream_started.elapsed().as_secs_f64();
    let drain_s = drain_started.elapsed().as_secs_f64();
    let rendered = trace::timed("analysis", "render", || {
        spector_analysis::live::render(&summary)
    });
    std::hint::black_box(rendered);
    let root_id = root.id();
    drop(root);
    let total_s = started.elapsed().as_secs_f64();
    Ok(Iteration {
        total_s,
        stream_s,
        send_s,
        drain_s,
        peak_mb: alloc::peak_mb(),
        snapshot_ms,
        summary,
        metrics,
        root: root_id,
    })
}

/// Seconds to push every run through an in-process engine and finish.
fn push_in_process(
    knowledge: &Arc<libspector::knowledge::Knowledge>,
    raws: &[RawRun],
    shards: usize,
) -> Result<f64, String> {
    let started = Instant::now();
    let engine = LiveEngine::start(
        Arc::clone(knowledge),
        LiveConfig {
            shards,
            ..Default::default()
        },
    );
    for (run, raw) in raws.iter().enumerate() {
        engine.push_run(run as u32, &raw.capture);
    }
    let summary = engine.finish();
    let frames: u64 = raws.iter().map(|r| r.capture.len() as u64).sum();
    gates::all_frames_delivered(&summary, frames)?;
    Ok(started.elapsed().as_secs_f64())
}
