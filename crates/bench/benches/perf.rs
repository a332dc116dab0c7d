//! Performance benchmarks for the measurement system itself (§II-B3):
//!
//! * per-connection instrumentation overhead (the paper measured a
//!   0.5 ms / 9.75 % worst-case per-request delay on-device);
//! * the per-app offline analysis (the paper: < 5 s per app);
//! * the 400-app corpus knowledge scan (`Knowledge::from_corpus`);
//! * the hot substrate paths: frame encode/decode, SHA-256, dex
//!   disassembly, builtin-filter regex matching, report codec.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use libspector::attribution::{attribute, BuiltinFilter};
use libspector::experiment::{resolver_for, run_app, ExperimentConfig};
use libspector::pipeline::{analyze_run, analyze_run_oracle};
use spector_bench::{corpus, knowledge, throughput_fixture};
use spector_dex::sha256::Sha256;
use spector_dex::{parse_dex, write_dex};
use spector_hooks::report::SocketReport;
use spector_netsim::clock::Clock;
use spector_netsim::packet::{decode_frame, encode_tcp, tcp_flags, SocketPair};
use spector_netsim::stack::NetStack;

fn bench_hook_overhead(c: &mut Criterion) {
    // Time to connect+report with the supervisor attached vs the bare
    // connect, isolating the instrumentation cost the paper quantifies.
    use spector_dex::model::SigIndex;
    use spector_dex::DexFile;
    use spector_hooks::supervisor::{SocketSupervisor, SupervisorConfig};
    use spector_runtime::stack::{CallStack, Frame};
    use spector_runtime::{HookContext, RuntimeHook};

    let mut group = c.benchmark_group("perf/hook");
    group.bench_function("connect_bare", |b| {
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        b.iter(|| {
            let sock = net.tcp_connect(Ipv4Addr::new(198, 18, 0, 1), 443);
            std::hint::black_box(sock)
        });
    });
    group.bench_function("connect_hooked", |b| {
        let mut net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut supervisor = SocketSupervisor::new(
            Sha256::digest(b"bench-apk"),
            SigIndex::build(&DexFile::new()),
            SupervisorConfig::default(),
        );
        let mut stack = CallStack::new();
        for i in 0..14 {
            stack.push(Frame::new(format!("com.bench.pkg.C{i}.m{i}")));
        }
        b.iter(|| {
            let sock = net.tcp_connect(Ipv4Addr::new(198, 18, 0, 1), 443);
            let mut ctx = HookContext {
                stack: &stack,
                net: &mut net,
            };
            supervisor.after_socket_connect(&mut ctx, sock);
            std::hint::black_box(sock)
        });
    });
    group.finish();
}

fn bench_per_app_pipeline(c: &mut Criterion) {
    let corpus = corpus();
    let knowledge = knowledge();
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let mut config = ExperimentConfig::default();
    config.monkey.events = 120;
    let system: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    let raw = run_app(&app.apk, &resolver, &system, &config).unwrap();

    let mut group = c.benchmark_group("perf/pipeline");
    group.sample_size(20);
    group.bench_function("experiment_one_app", |b| {
        b.iter(|| std::hint::black_box(run_app(&app.apk, &resolver, &system, &config).unwrap()));
    });
    // The paper's "<5 s offline analysis per app" path.
    group.bench_function("offline_analysis_one_app", |b| {
        b.iter(|| {
            std::hint::black_box(analyze_run(
                &raw,
                knowledge,
                config.supervisor.collector_port,
            ))
        });
    });
    group.finish();
}

/// Offline attribution throughput at the paper's campaign scale: the
/// whole §IV store (400 raw runs) through `analyze_run` per iteration.
/// Criterion's `elem/s` readout is apps/sec for the `*_apps` benches
/// and flows/sec for the `*_flows` benches (same loop, flow-weighted).
/// `oracle` is the retired three-pass/uncached pipeline, kept so the
/// speedup of the single-pass + trie + memoized path stays measured —
/// numbers are recorded in `BENCH_pipeline.json` at the repo root.
fn bench_analysis_throughput(c: &mut Criterion) {
    let (knowledge, raws, port) = throughput_fixture();
    let port = *port;
    let total_flows: u64 = raws
        .iter()
        .map(|raw| analyze_run(raw, knowledge, port).flows.len() as u64)
        .sum();

    let mut group = c.benchmark_group("perf/throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("analyze_run_apps", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.bench_function("analyze_run_oracle_apps", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run_oracle(raw, knowledge, port));
            }
        });
    });
    group.throughput(Throughput::Elements(total_flows));
    group.bench_function("analyze_run_flows", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.finish();
}

/// Cost of the fault-injection layer when it is armed but rolls no
/// faults — the price every chaos-enabled campaign pays on its happy
/// path. `perturb_*` isolates the wire-perturbation pass over the 400
/// recorded captures (a zero-fault plan must fast-return; `light` pays
/// per-packet dice); `campaign_*` compares a full `run_campaign` with
/// no chaos against one threading a zero-fault plan + retry policy
/// through every worker. Numbers land in `BENCH_pipeline.json`.
fn bench_chaos_overhead(c: &mut Criterion) {
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
    use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig, RetryPolicy};
    use spector_faults::{perturb_capture, FaultPlan, FaultProfile};

    let (_, raws, port) = throughput_fixture();
    let port = *port;
    let noop = FaultPlan::new(7_779, FaultProfile::none());
    let light = FaultPlan::new(7_779, FaultProfile::light());

    let mut group = c.benchmark_group("perf/chaos_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("perturb_zero_fault_plan", |b| {
        b.iter(|| {
            for (index, raw) in raws.iter().enumerate() {
                std::hint::black_box(perturb_capture(&noop, index, 0, raw.capture.clone(), port));
            }
        });
    });
    group.bench_function("perturb_light_plan", |b| {
        b.iter(|| {
            for (index, raw) in raws.iter().enumerate() {
                std::hint::black_box(perturb_capture(&light, index, 0, raw.capture.clone(), port));
            }
        });
    });

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 8,
        seed: 7_780,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = libspector::knowledge::Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 40;
    dispatch.experiment.monkey.seed = 7_780;
    dispatch.workers = 1;
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("campaign_plain", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.bench_function("campaign_zero_fault_plan", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            chaos: Some(noop),
            retry: RetryPolicy::default(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.finish();
}

/// Cost of the telemetry layer — the zero-overhead-when-disabled
/// contract, measured. `analyze_*` isolates the offline pipeline:
/// plain `analyze_run` vs the instrumented path with a disabled handle
/// (must be within noise — every touch point is one `Option` branch)
/// vs a fully enabled registry (atomics + virtual-clock spans, the
/// `--metrics` price). `campaign_*` measures the same at campaign
/// granularity. Numbers land in `BENCH_pipeline.json`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use libspector::pipeline::{analyze_run_instrumented, PipelineTelemetry};
    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
    use spector_dispatch::{run_campaign, CampaignConfig, DispatchConfig};
    use spector_telemetry::Telemetry;

    let (knowledge, raws, port) = throughput_fixture();
    let port = *port;

    let mut group = c.benchmark_group("perf/telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raws.len() as u64));
    group.bench_function("analyze_plain", |b| {
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run(raw, knowledge, port));
            }
        });
    });
    group.bench_function("analyze_instrumented_disabled", |b| {
        let pt = PipelineTelemetry::disabled_ref();
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run_instrumented(raw, knowledge, port, pt));
            }
        });
    });
    group.bench_function("analyze_instrumented_enabled", |b| {
        let telemetry = Telemetry::enabled();
        let pt = PipelineTelemetry::new(&telemetry);
        b.iter(|| {
            for raw in raws {
                std::hint::black_box(analyze_run_instrumented(raw, knowledge, port, &pt));
            }
        });
    });

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 8,
        seed: 7_780,
        appgen: AppGenConfig {
            method_scale: 0.004,
            ..Default::default()
        },
        ..Default::default()
    });
    let knowledge = libspector::knowledge::Knowledge::from_corpus(&corpus);
    let mut dispatch = DispatchConfig::default();
    dispatch.experiment.monkey.events = 40;
    dispatch.experiment.monkey.seed = 7_780;
    dispatch.workers = 1;
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("campaign_telemetry_disabled", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.bench_function("campaign_telemetry_enabled", |b| {
        let config = CampaignConfig {
            dispatch: dispatch.clone(),
            telemetry: Telemetry::enabled(),
            ..Default::default()
        };
        b.iter(|| {
            std::hint::black_box(run_campaign(&corpus, &knowledge, &config, None, None).unwrap())
        });
    });
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let pair = SocketPair::new(
        Ipv4Addr::new(10, 0, 2, 15),
        40_000,
        Ipv4Addr::new(198, 18, 0, 1),
        443,
    );
    let payload = vec![0xa5u8; 1_400];
    let frame = encode_tcp(&pair, 1, 1, tcp_flags::PSH | tcp_flags::ACK, &payload);

    let mut group = c.benchmark_group("perf/substrate");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("tcp_frame_encode", |b| {
        b.iter(|| {
            std::hint::black_box(encode_tcp(
                &pair,
                1,
                1,
                tcp_flags::PSH | tcp_flags::ACK,
                &payload,
            ))
        });
    });
    group.bench_function("tcp_frame_decode", |b| {
        b.iter(|| std::hint::black_box(decode_frame(&frame).unwrap()));
    });
    let blob = vec![7u8; 64 * 1024];
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("sha256_64k", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(&blob)));
    });
    group.finish();

    // Dex disassembly (the Method Monitor's startup step).
    let dex = corpus().apps[0].apk.dex().unwrap();
    let bytes = write_dex(&dex);
    let mut group = c.benchmark_group("perf/dex");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("disassemble", |b| {
        b.iter(|| std::hint::black_box(parse_dex(&bytes).unwrap()));
    });
    group.finish();

    // Builtin-filter attribution over a Listing 1-shaped stack.
    let filter = BuiltinFilter::new();
    let frames: Vec<String> = [
        "java.net.Socket.connect",
        "com.android.okhttp.internal.Platform.connectSocket",
        "com.android.okhttp.Connection.connect",
        "com.android.okhttp.internal.http.HttpEngine.sendRequest",
        "com.unity3d.ads.android.cache.b.a",
        "com.unity3d.ads.android.cache.b.doInBackground",
        "android.os.AsyncTask$2.call",
        "java.util.concurrent.FutureTask.run",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let mut group = c.benchmark_group("perf/attribution");
    group.bench_function("attribute_stack", |b| {
        b.iter(|| std::hint::black_box(attribute(&frames, &filter)));
    });
    group.finish();

    // Report codec.
    let report = SocketReport {
        stream: None,
        apk_sha256: Sha256::digest(b"x"),
        pair,
        timestamp_micros: 123,
        frames,
    };
    let encoded = report.encode();
    let mut group = c.benchmark_group("perf/report");
    group.bench_function("encode", |b| {
        b.iter(|| std::hint::black_box(report.encode()))
    });
    group.bench_function("decode", |b| {
        b.iter(|| std::hint::black_box(SocketReport::decode(&encoded).unwrap()))
    });
    group.finish();

    let _ = HashMap::<u8, u8>::new(); // keep HashMap import meaningful under cfg tweaks
}

/// Cost of the sampled-tracing layer on the per-app experiment:
/// `exact` (rate 1.0, no budget) takes the wire-identical fast path
/// and must sit within noise of the pre-sampling pipeline numbers in
/// `BENCH_pipeline.json`; `sampled`/`budgeted` pay one SplitMix64 draw
/// (plus a window check) per socket. The bare inclusion decision is
/// timed on its own at the bottom.
fn bench_sampling_overhead(c: &mut Criterion) {
    use spector_sampling::{sample_draw, SamplingConfig, TraceBudget};

    let corpus = corpus();
    let resolver = resolver_for(&corpus.domains);
    let app = &corpus.apps[0];
    let system: Vec<_> = app
        .system_ops
        .iter()
        .map(|s| (s.op.clone(), s.dispatcher))
        .collect();
    let mut group = c.benchmark_group("perf/sampling_overhead");
    group.sample_size(20);
    let cases = [
        ("experiment_exact", 1.0, None),
        ("experiment_rate_0.5", 0.5, None),
        (
            "experiment_budget_64",
            1.0,
            Some(TraceBudget {
                max_reports: 64,
                window_micros: 50_000,
            }),
        ),
    ];
    for (label, rate, budget) in cases {
        let mut config = ExperimentConfig::default();
        config.monkey.events = 120;
        config.supervisor.sampling = SamplingConfig {
            rate,
            seed: 7,
            budget,
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                std::hint::black_box(run_app(&app.apk, &resolver, &system, &config).unwrap())
            });
        });
    }
    let digest = [0xa5u8; 32];
    let pair = [10u8, 0, 2, 15, 0x9c, 0x40, 198, 18, 0, 1, 1, 0xbb];
    group.bench_function("inclusion_draw", |b| {
        b.iter(|| std::hint::black_box(sample_draw(7, &digest, &pair)));
    });
    group.finish();
}

/// The §III-D knowledge scan at `libspector run` defaults: 400 apps
/// (corpus seed 42, method scale 0.02), both detectors over every app,
/// plus the domain table. Scan-time records land in
/// `BENCH_pipeline.json` under `knowledge_scan`.
fn bench_knowledge_scan(c: &mut Criterion) {
    use libspector::knowledge::Knowledge;
    use spector_corpus::{Corpus, CorpusConfig};

    let corpus = Corpus::generate(&CorpusConfig {
        apps: 400,
        seed: 42,
        ..Default::default()
    });
    let mut group = c.benchmark_group("perf/knowledge_scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(corpus.apps.len() as u64));
    group.bench_function("from_corpus_400_apps", |b| {
        b.iter(|| Knowledge::from_corpus(&corpus));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_knowledge_scan,
    bench_hook_overhead,
    bench_per_app_pipeline,
    bench_analysis_throughput,
    bench_chaos_overhead,
    bench_telemetry_overhead,
    bench_substrates,
    bench_sampling_overhead
);
criterion_main!(benches);
