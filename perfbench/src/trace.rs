//! Opt-in span tracing at layer boundaries.
//!
//! The benchmark opens a span around each of its own calls into a
//! layer's public functions. Spans stay in memory and are written out
//! as JSON lines when the run ends. When tracing is off (the untraced
//! runs that produce end-to-end metrics) opening a span costs one
//! relaxed atomic load and records nothing.
//!
//! Work that runs inside the program on its own threads (dispatch
//! workers) cannot be spanned from outside; the program's telemetry
//! totals for it are attached to the enclosing span as *aggregates*:
//! busy time spread over a number of lanes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RUN: AtomicU32 = AtomicU32::new(0);
static WORKLOAD: OnceLock<String> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static AGGREGATES: Mutex<Vec<Aggregate>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer (crate) the call went into.
    pub layer: &'static str,
    /// Operation within the layer.
    pub name: &'static str,
    /// Start, seconds since tracing was enabled.
    pub start: f64,
    /// End, seconds since tracing was enabled.
    pub end: f64,
    /// Iteration of the workload the span belongs to (0 = set-up).
    pub run: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Busy time the program reported for work inside a span, spread over
/// `lanes` parallel workers.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The span the work ran under.
    pub parent: u64,
    /// Layer the work belongs to.
    pub layer: &'static str,
    /// Summed busy seconds across lanes.
    pub busy: f64,
    /// Parallel lanes the busy time was spread over.
    pub lanes: f64,
    /// Calls the program counted.
    pub calls: u64,
}

/// Names the workload spans are tagged with and turns recording on.
pub fn enable(workload: &str) {
    let _ = WORKLOAD.set(workload.to_owned());
    EPOCH.get_or_init(Instant::now);
    set_active(true);
}

/// Pauses (`false`) or resumes span recording — traced runs pause it
/// for their untraced iterations.
pub fn set_active(active: bool) {
    ENABLED.store(active, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened from now on with iteration `run`.
pub fn set_run(run: u32) {
    RUN.store(run, Ordering::Relaxed);
}

fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// An open span; recorded when dropped.
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    start: f64,
}

impl Guard {
    /// The span's id (`None` when tracing is off).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|open| open.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = now();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        SPANS.lock().expect("span store poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            layer: open.layer,
            name: open.name,
            start: open.start,
            end,
            run: RUN.load(Ordering::Relaxed),
        });
    }
}

fn open(parent: Option<u64>, layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| stack.borrow_mut().push(id));
    Guard(Some(Open {
        id,
        parent,
        layer,
        name,
        start: now(),
    }))
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    let parent = STACK.with(|stack| stack.borrow().last().copied());
    open(parent, layer, name)
}

/// Opens a span under an explicit parent — for work handed to another
/// thread.
pub fn span_under(parent: Option<u64>, layer: &'static str, name: &'static str) -> Guard {
    open(parent, layer, name)
}

/// Runs `f` inside a span.
pub fn timed<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(layer, name);
    f()
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().copied())
}

/// Attaches program-reported busy time to span `parent`.
pub fn aggregate(parent: Option<u64>, layer: &'static str, busy: f64, lanes: f64, calls: u64) {
    if let Some(parent) = parent.filter(|_| enabled()) {
        AGGREGATES
            .lock()
            .expect("aggregate store poisoned")
            .push(Aggregate {
                parent,
                layer,
                busy,
                lanes: lanes.max(1.0),
                calls,
            });
    }
}

/// Every span closed so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

fn aggregates() -> Vec<Aggregate> {
    AGGREGATES.lock().expect("aggregate store poisoned").clone()
}

/// Sum of durations and count of the spans named `layer`/`name`.
pub fn total(layer: &str, name: &str) -> (f64, u64) {
    spans()
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0.0, 0), |(sum, n), s| (sum + s.seconds(), n + 1))
}

/// Durations (seconds) of the spans named `layer`/`name`.
pub fn samples(layer: &str, name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::seconds)
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Wall seconds attributed to the layer itself (its spans minus
    /// their children).
    pub self_s: f64,
    /// Spans (plus program-counted calls) in the layer.
    pub count: u64,
}

/// Splits the wall time of the root spans `roots` among layers.
///
/// A span's interval goes to its children where they cover it and to
/// the span itself elsewhere. Parallel children (on other threads)
/// share the covered part in proportion to their durations, and
/// aggregates cover `busy / lanes` of the rest, so the rows always sum
/// to the roots' wall time. The roots' own share is returned under
/// `unattributed`.
pub fn layer_table(roots: &[u64]) -> BTreeMap<&'static str, LayerRow> {
    layer_table_of(&spans(), &aggregates(), roots)
}

/// [`layer_table`] over explicit spans and aggregates.
pub fn layer_table_of(
    spans: &[Span],
    aggregates: &[Aggregate],
    roots: &[u64],
) -> BTreeMap<&'static str, LayerRow> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    let mut aggs: BTreeMap<u64, Vec<&Aggregate>> = BTreeMap::new();
    for agg in aggregates {
        aggs.entry(agg.parent).or_default().push(agg);
    }
    let mut out = BTreeMap::new();
    for root in spans.iter().filter(|s| roots.contains(&s.id)) {
        attribute(root, root.seconds(), true, &children, &aggs, &mut out);
    }
    out
}

fn attribute(
    span: &Span,
    share: f64,
    is_root: bool,
    children: &BTreeMap<u64, Vec<&Span>>,
    aggs: &BTreeMap<u64, Vec<&Aggregate>>,
    out: &mut BTreeMap<&'static str, LayerRow>,
) {
    let layer = if is_root { "unattributed" } else { span.layer };
    let duration = span.seconds();
    let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
    let agg_list = aggs.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
    let row = out.entry(layer).or_default();
    if !is_root {
        row.count += 1;
    }
    if duration <= 0.0 {
        row.self_s += share;
        return;
    }
    let covered = union_within(span, kids);
    let busy: f64 = agg_list.iter().map(|a| a.busy / a.lanes).sum();
    let agg_covered = busy.min(duration - covered).max(0.0);
    row.self_s += share * (duration - covered - agg_covered) / duration;
    let kid_total: f64 = kids.iter().map(|k| k.seconds()).sum();
    if kid_total > 0.0 {
        for kid in kids {
            let kid_share = share * (covered / duration) * (kid.seconds() / kid_total);
            attribute(kid, kid_share, false, children, aggs, out);
        }
    }
    if busy > 0.0 {
        for agg in agg_list {
            let agg_row = out.entry(agg.layer).or_default();
            agg_row.self_s += share * (agg_covered / duration) * (agg.busy / agg.lanes) / busy;
            agg_row.count += agg.calls;
        }
    }
}

/// Length of the union of `kids`' intervals, clipped to `span`.
fn union_within(span: &Span, kids: &[&Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = kids
        .iter()
        .map(|k| (k.start.max(span.start), k.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    covered
}

/// Writes every span and aggregate as JSON lines.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let workload = WORKLOAD.get().map(String::as_str).unwrap_or("");
    let mut text = String::new();
    for s in spans() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"workload\":\"{workload}\",\"run\":{}}}",
            s.id, s.layer, s.name, s.start, s.end, s.run
        );
    }
    for a in aggregates() {
        let _ = writeln!(
            text,
            "{{\"aggregate\":true,\"parent\":{},\"layer\":\"{}\",\"busy_s\":{},\"lanes\":{},\"calls\":{},\"workload\":\"{workload}\"}}",
            a.parent, a.layer, a.busy, a.lanes, a.calls
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "op",
            start,
            end,
            run: 1,
        }
    }

    #[test]
    fn rows_sum_to_root_wall() {
        let spans = vec![
            span(1, None, "root", 0.0, 10.0),
            span(2, Some(1), "knowledge", 0.0, 4.0),
            span(3, Some(1), "dispatch", 4.0, 9.0),
            // Two parallel children on other threads.
            span(4, Some(2), "dex", 0.0, 3.0),
            span(5, Some(2), "dex", 1.0, 4.0),
        ];
        let aggs = vec![Aggregate {
            parent: 3,
            layer: "experiment",
            busy: 6.0,
            lanes: 2.0,
            calls: 7,
        }];
        let table = layer_table_of(&spans, &aggs, &[1]);
        let sum: f64 = table.values().map(|r| r.self_s).sum();
        assert!((sum - 10.0).abs() < 1e-9, "{table:?}");
        assert!((table["unattributed"].self_s - 1.0).abs() < 1e-9);
        assert!((table["knowledge"].self_s - 0.0).abs() < 1e-9);
        assert!((table["dex"].self_s - 4.0).abs() < 1e-9);
        assert!((table["experiment"].self_s - 3.0).abs() < 1e-9);
        assert!((table["dispatch"].self_s - 2.0).abs() < 1e-9);
        assert_eq!(table["experiment"].count, 7);
    }
}
