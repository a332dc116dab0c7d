//! `perfbench --workload <campaign|live_ingest|store_history|all>
//! --seed N --seconds S --trace 0|1 [--scale full|toy]`
//!
//! Runs one workload (or all three, one after the other), prints its
//! metrics with units, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when a correctness gate fails or the run errors.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::{output, run_workload, trace, RunArgs, Scale, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Scratch stores live here, under the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench_work";
/// Span dumps of traced runs.
const TRACE_DIR: &str = ".perfbench_out";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for {name}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness gate failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload NAME")?;
    let seed: u64 = parse(args, "--seed", 1)?;
    let seconds: f64 = parse(args, "--seconds", 10.0)?;
    let traced = match parse::<u8>(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let scale = match flag(args, "--scale").as_deref() {
        None | Some("full") => Scale::full(),
        Some("toy") => Scale::toy(),
        Some(other) => return Err(format!("unknown --scale {other:?}")),
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    if traced {
        trace::enable(&workload);
    }
    println!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={} nproc={}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let work_dir = PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    let run_args = RunArgs {
        seed,
        seconds,
        trace: traced,
        scale,
        work_dir: work_dir.clone(),
    };
    let mut results = Vec::new();
    for name in &names {
        let result = run_workload(name, &run_args);
        if let Ok(outcome) = &result {
            print!("{}", output::human(name, outcome, traced));
        }
        results.push((*name, result));
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    if traced {
        let path = PathBuf::from(TRACE_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
        trace::write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let mut outcomes = Vec::new();
    for (name, result) in results {
        outcomes.push((name, result.map_err(|e| format!("{name}: {e}"))?));
    }
    let combined = if let [(_, only)] = outcomes.as_slice() {
        output::json_line(only, traced)
    } else {
        output::json_all(&outcomes, traced)
    };
    println!("{combined}");
    Ok(outcomes.iter().all(|(_, o)| o.correct))
}
