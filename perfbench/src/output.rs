//! What a run prints: human-readable lines, then one JSON object as
//! the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::common::{Metric, Outcome};

/// Gate names with how often each was checked and its first failure.
fn gate_summary(outcome: &Outcome) -> BTreeMap<&str, (usize, Option<&str>)> {
    let mut gates: BTreeMap<&str, (usize, Option<&str>)> = BTreeMap::new();
    for (name, result) in &outcome.gates {
        let entry = gates.entry(name.as_str()).or_default();
        entry.0 += 1;
        if let (None, Err(message)) = (entry.1, result) {
            entry.1 = Some(message.as_str());
        }
    }
    gates
}

fn metric_line(out: &mut String, kind: &str, metric: &Metric) {
    let samples = metric
        .samples
        .map_or(String::new(), |n| format!("  (n={n})"));
    let _ = writeln!(
        out,
        "{kind:<7} {:<32} {:>16.4} {}{samples}",
        metric.name, metric.value, metric.unit
    );
}

/// The human-readable report of one workload run.
pub fn human(workload: &str, outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {workload} ==");
    for (name, (checks, failure)) in gate_summary(outcome) {
        match failure {
            None => {
                let _ = writeln!(out, "gate    {name}: ok ({checks} check(s))");
            }
            Some(message) => {
                let _ = writeln!(out, "gate    {name}: FAILED: {message}");
            }
        }
    }
    let _ = writeln!(
        out,
        "ops     attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for metric in &outcome.end_to_end {
        metric_line(&mut out, "metric", metric);
    }
    for metric in &outcome.detail {
        metric_line(&mut out, "detail", metric);
    }
    if traced {
        for metric in &outcome.per_layer {
            metric_line(&mut out, "layer", metric);
        }
        let wall: f64 = outcome.layers.iter().map(|(_, s, _)| s).sum();
        let _ = writeln!(
            out,
            "self time by layer (traced iterations, {wall:.3} s wall):"
        );
        let mut rows = outcome.layers.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (layer, self_s, count) in rows {
            let _ = writeln!(
                out,
                "  {layer:<14} {self_s:>10.4} s {:>6.2} %  {count:>8} span(s)",
                self_s * 100.0 / wall.max(f64::MIN_POSITIVE)
            );
        }
    }
    out
}

/// The result object: `correct`, `attempted`, `failed` and the
/// end-to-end (untraced) or per-layer (traced) metrics.
pub fn json_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a non-finite value prints as 0.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The result object of `--workload all`: counts summed, metrics
/// prefixed with their workload (`campaign.total_s`).
pub fn json_all(outcomes: &[(&str, Outcome)], traced: bool) -> String {
    let mut merged = Outcome {
        correct: outcomes.iter().all(|(_, o)| o.correct),
        ..Outcome::default()
    };
    for (name, outcome) in outcomes {
        merged.attempted += outcome.attempted;
        merged.failed += outcome.failed;
        let metrics = if traced {
            &outcome.per_layer
        } else {
            &outcome.end_to_end
        };
        merged.end_to_end.extend(metrics.iter().map(|m| Metric {
            name: format!("{name}.{}", m.name),
            ..m.clone()
        }));
    }
    json_line(&merged, false)
}
