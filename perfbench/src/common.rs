//! Inputs, set-up helpers and result types shared by the workloads.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use libspector::experiment::{resolver_for, run_app, RawRun};
use libspector::knowledge::Knowledge;
use libspector::pipeline::{analyze_run_instrumented, AppAnalysis, PipelineTelemetry};
use libspector::ExperimentConfig;
use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
use spector_libradar::{AggregatedLibraries, PrefixAliases};
use spector_telemetry::{MetricsSnapshot, Telemetry};
use spector_vtcat::Tokenizer;

use crate::trace;

/// Input sizes of every workload. [`Scale::full`] is the benchmark;
/// [`Scale::toy`] runs in a second or two for the smoke test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Apps per corpus (the paper's §IV campaign has 400).
    pub apps: usize,
    /// Monkey events per app.
    pub events: u32,
    /// Dex method-count scale.
    pub method_scale: f64,
    /// Dispatch workers, recording threads and live shards.
    pub workers: usize,
    /// Share of apps on the modern wire in `live_ingest`.
    pub live_modern_fraction: f64,
    /// `live_ingest` takes a snapshot after every this many runs.
    pub snapshot_every: usize,
    /// Point queries of the stored campaign after each `campaign`
    /// iteration.
    pub campaign_queries: usize,
    /// Campaigns in the `store_history` store before the timed phase.
    pub history_campaigns: usize,
    /// Rounds per `store_history` iteration; each round is one append,
    /// `history_queries` point queries and one full scan.
    pub history_rounds: usize,
    /// Point queries per `store_history` round.
    pub history_queries: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            apps: 400,
            events: 1_000,
            method_scale: 0.02,
            workers: 2,
            live_modern_fraction: 0.5,
            snapshot_every: 4,
            campaign_queries: 3,
            history_campaigns: 12,
            history_rounds: 4,
            history_queries: 10,
        }
    }

    /// Toy sizes for the smoke test.
    pub fn toy() -> Scale {
        Scale {
            apps: 8,
            events: 60,
            method_scale: 0.005,
            workers: 2,
            live_modern_fraction: 0.5,
            snapshot_every: 2,
            campaign_queries: 2,
            history_campaigns: 2,
            history_rounds: 2,
            history_queries: 2,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: the monkey event streams (so every capture,
    /// flow and report) and `store_history`'s operation schedule derive
    /// from it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for stores; removed by the caller.
    pub work_dir: PathBuf,
}

impl RunArgs {
    /// Whether another iteration should start, `done` iterations and
    /// `elapsed` into the measurement window: only if it is expected to
    /// end inside the window. A traced run makes at least one untraced
    /// and one traced iteration.
    pub fn another(&self, done: usize, elapsed: Duration) -> bool {
        let minimum = if self.trace { 2 } else { 1 };
        let elapsed = elapsed.as_secs_f64();
        let expected_end = elapsed + elapsed / done.max(1) as f64;
        done < minimum || expected_end <= self.seconds
    }

    /// Whether iteration `index` (0-based) of a traced run is traced:
    /// traced runs alternate untraced and traced iterations, so the
    /// tracing overhead is measured on the same inputs.
    pub fn traced_iteration(&self, index: usize) -> bool {
        self.trace && index % 2 == 1
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// Raw samples behind the value, when it is a quantile or median.
    pub samples: Option<usize>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted (apps run, frames sent, store operations).
    pub attempted: u64,
    /// Operations that failed (failed apps, undelivered or dropped
    /// frames, store errors).
    pub failed: u64,
    /// End-to-end metrics the last output line carries.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics the last output line carries in a traced run.
    pub per_layer: Vec<Metric>,
    /// Workload-specific metrics printed by name above the last line.
    pub detail: Vec<Metric>,
    /// Gate results in order: name and failure message.
    pub gates: Vec<(String, Result<(), String>)>,
    /// Per-layer self-time table of a traced run.
    pub layers: Vec<(String, f64, u64)>,
}

impl Outcome {
    /// Records a gate result.
    pub fn gate(&mut self, name: &str, result: Result<(), String>) {
        self.gates.push((name.to_owned(), result));
    }
}

/// Appends a metric to a list.
pub fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: None,
    });
}

/// Appends a metric computed from `samples` raw samples.
pub fn push_sampled(
    list: &mut Vec<Metric>,
    name: &str,
    value: f64,
    unit: &'static str,
    samples: usize,
) {
    list.push(Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: Some(samples),
    });
}

/// The corpus seed: the app store under study, the one `libspector run`
/// generates by default. It is fixed, like the paper's fixed app set,
/// because 400-app corpora of different seeds differ in total work by
/// about a fifth, and that spread would swamp every bound. `--seed`
/// varies the monkey streams and schedules over this corpus.
pub const CORPUS_SEED: u64 = 42;

/// Generates the workload's corpus: the program's input.
pub fn build_corpus(scale: &Scale, modern_fraction: f64) -> Corpus {
    trace::timed("corpus", "generate", || {
        Corpus::generate(&CorpusConfig {
            apps: scale.apps,
            seed: CORPUS_SEED,
            appgen: AppGenConfig {
                method_scale: scale.method_scale,
                modern_fraction,
                ..Default::default()
            },
            ..Default::default()
        })
    })
}

/// The corpus knowledge scan. Untraced it is exactly
/// `Knowledge::from_corpus`; traced, the same loop is replayed through
/// the public calls it makes so each step gets its own span.
pub fn scan_knowledge(corpus: &Corpus) -> (Knowledge, u64) {
    let _scan = trace::span("knowledge", "scan");
    if !trace::enabled() {
        return (Knowledge::from_corpus(corpus), 0);
    }
    let mut aggregated = AggregatedLibraries::new();
    let mut exact_aliases = PrefixAliases::new();
    let mut structural_aliases = PrefixAliases::new();
    let mut detections = 0u64;
    for app in &corpus.apps {
        let dex = trace::timed("knowledge", "dex_parse", || app.apk.dex());
        if let Ok(dex) = dex {
            let exact = trace::timed("knowledge", "exact_detect", || {
                corpus.library_db.detect(&dex)
            });
            for detected in exact {
                aggregated.record(&detected.name, detected.category);
                exact_aliases.insert(&detected.in_app_prefix, &detected.name);
                detections += 1;
            }
            let structural = trace::timed("knowledge", "structural_detect", || {
                corpus.structural_index.detect(&dex)
            });
            for matched in structural {
                aggregated.record(&matched.name, matched.category);
                structural_aliases.insert(&matched.in_app_prefix, &matched.name);
                detections += 1;
            }
        }
    }
    let domain_categories = trace::timed("knowledge", "domain_classify", || {
        let tokenizer = Tokenizer::new();
        let domains = corpus.domains.domains();
        let mut table = HashMap::with_capacity(domains.len());
        for domain in domains {
            table.insert(
                domain.name.clone(),
                tokenizer.classify(&domain.vendor_labels),
            );
        }
        table
    });
    let mut knowledge =
        Knowledge::with_domain_categories(aggregated, corpus.lists.clone(), domain_categories);
    knowledge.exact_aliases = exact_aliases;
    knowledge.structural_aliases = structural_aliases;
    (knowledge, detections)
}

/// The experiment settings `libspector run` derives from its flags.
pub fn experiment_config(scale: &Scale, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    config.monkey.events = scale.events;
    config.monkey.seed = seed;
    config
}

/// Runs recorded by [`record_runs`].
pub struct Recorded {
    /// Raw runs in app order (empty unless asked to keep them).
    pub raws: Vec<RawRun>,
    /// Per-app analyses in app order.
    pub analyses: Vec<AppAnalysis>,
    /// Apps whose experiment failed.
    pub failures: usize,
    /// Frames captured across all runs.
    pub frames: u64,
    /// Wall time of each `run_app` call, seconds.
    pub run_app_s: Vec<f64>,
    /// The pipeline telemetry recorded while analyzing (empty when
    /// tracing is off).
    pub pipeline: MetricsSnapshot,
}

/// Runs every app of `corpus` through `experiment::run_app` and
/// `pipeline::analyze_run` on `scale.workers` threads, with the same
/// per-app monkey seeds the dispatcher derives.
pub fn record_runs(
    corpus: &Corpus,
    knowledge: &Knowledge,
    scale: &Scale,
    seed: u64,
    keep_raws: bool,
) -> Recorded {
    let _record = trace::span("experiment", "record");
    let parent = trace::current();
    let telemetry = if trace::enabled() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let pipeline = PipelineTelemetry::new(&telemetry);
    let base = experiment_config(scale, seed);
    let resolver = resolver_for(&corpus.domains);
    let next = AtomicUsize::new(0);
    type Slot = Option<(Option<RawRun>, Option<AppAnalysis>, u64, f64)>;
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..corpus.apps.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..scale.workers.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(app) = corpus.apps.get(index) else {
                    break;
                };
                let mut experiment = base.clone();
                experiment.monkey.seed ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let system: Vec<_> = app
                    .system_ops
                    .iter()
                    .map(|s| (s.op.clone(), s.dispatcher))
                    .collect();
                let started = Instant::now();
                let raw = {
                    let _run = trace::span_under(parent, "experiment", "run_app");
                    run_app(&app.apk, &resolver, &system, &experiment)
                };
                let run_s = started.elapsed().as_secs_f64();
                let slot = match raw {
                    Ok(raw) => {
                        let analysis = {
                            let _analyze = trace::span_under(parent, "pipeline", "analyze");
                            analyze_run_instrumented(
                                &raw,
                                knowledge,
                                experiment.supervisor.collector_port,
                                &pipeline,
                            )
                        };
                        let frames = raw.capture.len() as u64;
                        (keep_raws.then_some(raw), Some(analysis), frames, run_s)
                    }
                    Err(_) => (None, None, 0, run_s),
                };
                slots.lock().expect("slots poisoned")[index] = Some(slot);
            });
        }
    });
    let mut recorded = Recorded {
        raws: Vec::new(),
        analyses: Vec::new(),
        failures: 0,
        frames: 0,
        run_app_s: Vec::new(),
        pipeline: telemetry.snapshot(),
    };
    for slot in slots
        .into_inner()
        .expect("slots poisoned")
        .into_iter()
        .flatten()
    {
        let (raw, analysis, frames, run_s) = slot;
        recorded.raws.extend(raw);
        match analysis {
            Some(analysis) => recorded.analyses.push(analysis),
            None => recorded.failures += 1,
        }
        recorded.frames += frames;
        recorded.run_app_s.push(run_s);
    }
    recorded
}

/// Total recorded microseconds and calls of telemetry stage `path`.
pub fn stage_total(metrics: &MetricsSnapshot, path: &str) -> (f64, u64) {
    let id = format!("{}{{stage=\"{path}\"}}", spector_telemetry::STAGE_MICROS);
    let calls_id = format!(
        "{}{}{{stage=\"{path}\"}}",
        spector_telemetry::STAGE_MICROS,
        spector_telemetry::STAGE_CALLS_SUFFIX
    );
    let micros = metrics.histograms.get(&id).map_or(0, |h| h.sum);
    (micros as f64 / 1e6, metrics.counter(&calls_id))
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Per-layer metrics every traced workload reports: the knowledge
/// scan split, the experiment and pipeline totals, rendering, and the
/// tracing overhead and unattributed share.
pub struct LayerInputs<'a> {
    /// Detections the traced scan recorded.
    pub detections: u64,
    /// `run_app` wall times, seconds.
    pub run_app_s: &'a [f64],
    /// Frames captured by those runs.
    pub frames: u64,
    /// Supervisor report datagrams those runs produced.
    pub reports: u64,
    /// Pipeline telemetry of the analyses.
    pub pipeline: &'a MetricsSnapshot,
    /// Median untraced and traced iteration wall times, seconds.
    pub untraced_s: f64,
    /// See `untraced_s`.
    pub traced_s: f64,
}

/// Fills `outcome.per_layer` with the metrics every workload shares
/// and `outcome.layers` with the self-time table of the traced roots.
pub fn common_layers(outcome: &mut Outcome, inputs: &LayerInputs<'_>, roots: &[u64]) {
    let list = &mut outcome.per_layer;
    // Mean per call: a traced run may scan and render more than once.
    let mean = |layer, name| {
        let (sum, calls) = trace::total(layer, name);
        sum / calls.max(1) as f64
    };
    let scans = trace::total("knowledge", "scan").1.max(1) as f64;
    let per_scan = |name| trace::total("knowledge", name).0 / scans;
    push(list, "corpus.generate_s", mean("corpus", "generate"), "s");
    push(list, "knowledge.scan_s", mean("knowledge", "scan"), "s");
    push(list, "knowledge.dex_parse_s", per_scan("dex_parse"), "s");
    push(
        list,
        "knowledge.exact_detect_s",
        per_scan("exact_detect"),
        "s",
    );
    push(
        list,
        "knowledge.structural_detect_s",
        per_scan("structural_detect"),
        "s",
    );
    push(
        list,
        "knowledge.domain_classify_s",
        per_scan("domain_classify"),
        "s",
    );
    push(
        list,
        "knowledge.detections",
        inputs.detections as f64,
        "count",
    );
    let run_ms: Vec<f64> = inputs.run_app_s.iter().map(|s| s * 1e3).collect();
    push(
        list,
        "experiment.run_app_s",
        inputs.run_app_s.iter().sum(),
        "s",
    );
    push_sampled(
        list,
        "experiment.run_app_p50_ms",
        crate::stats::quantile(&run_ms, 0.5).unwrap_or(0.0),
        "ms",
        run_ms.len(),
    );
    push_sampled(
        list,
        "experiment.run_app_p90_ms",
        crate::stats::quantile(&run_ms, 0.9).unwrap_or(0.0),
        "ms",
        run_ms.len(),
    );
    push(list, "experiment.frames", inputs.frames as f64, "count");
    push(list, "experiment.reports", inputs.reports as f64, "count");
    let stage = |path| stage_total(inputs.pipeline, path).0;
    let analyze = stage("pipeline/capture_decode")
        + stage("pipeline/report_decode")
        + stage("pipeline/flow_join")
        + stage("pipeline/coverage");
    let flows = inputs
        .pipeline
        .counter("spector_pipeline_flows_attributed_total");
    let attribute = stage("pipeline/flow_join/attribute");
    push(list, "pipeline.analyze_s", analyze, "s");
    push(
        list,
        "pipeline.capture_decode_s",
        stage("pipeline/capture_decode"),
        "s",
    );
    push(
        list,
        "pipeline.flow_join_s",
        stage("pipeline/flow_join"),
        "s",
    );
    push(list, "pipeline.attribute_s", attribute, "s");
    let attribute_calls = stage_total(inputs.pipeline, "pipeline/flow_join/attribute").1;
    push(
        list,
        "pipeline.attribute_us_per_flow",
        attribute * 1e6 / attribute_calls.max(1) as f64,
        "us",
    );
    push(list, "pipeline.flows", flows as f64, "count");
    push(list, "analysis.render_s", mean("analysis", "render"), "s");
    push(
        list,
        "telemetry.overhead_pct",
        (inputs.traced_s / inputs.untraced_s - 1.0) * 100.0,
        "%",
    );
    let table = trace::layer_table(roots);
    let wall: f64 = table.values().map(|row| row.self_s).sum();
    let unattributed = table.get("unattributed").map_or(0.0, |row| row.self_s);
    push(
        list,
        "telemetry.unattributed_pct",
        unattributed * 100.0 / wall.max(f64::MIN_POSITIVE),
        "%",
    );
    outcome.layers = table
        .into_iter()
        .map(|(layer, row)| (layer.to_owned(), row.self_s, row.count))
        .collect();
}
