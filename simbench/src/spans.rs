//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in [`span`]. When tracing is off the wrapper is one relaxed
//! atomic load; when it is on, each call records its name, layer, start,
//! end, parent span and op id. Spans stay in memory until the run ends,
//! then feed the per-layer table ([`layer_table`]) and the Chrome
//! trace-event export ([`chrome_json`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use peakperf_sim::timing::ChromeTraceWriter;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the called function belongs to (`sass`, `sim::timing`, ...).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The benchmark op this call belongs to.
    pub op: u64,
    /// Recording thread.
    pub tid: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `layer`/`name` for op `op`.
pub fn span<T>(layer: &'static str, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let tid = TID.with(|t| *t);
    let idx = {
        let mut all = spans();
        all.push(Span {
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op,
            tid,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    spans()[idx].end_ns = now_ns();
    out
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    /// Calls recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Total minus the time of direct child spans.
    pub self_ns: u64,
}

/// Aggregate spans per `(layer, name)`.
pub fn layer_table(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut table: BTreeMap<(&'static str, &'static str), NameStats> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = table.entry((s.layer, s.name)).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child);
    }
    table
}

/// Render spans as Chrome trace-event JSON (Perfetto / `chrome://tracing`),
/// one track per recording thread, timestamps in microseconds.
pub fn chrome_json(spans: &[Span], workload: &str, seed: u64) -> String {
    let mut writer = ChromeTraceWriter::new();
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        writer.thread_name(0, tid, &format!("simbench thread {tid}"));
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writer.complete(
            s.name,
            s.layer,
            s.start_ns / 1_000,
            (s.dur_ns() / 1_000).max(1),
            s.tid,
            &format!("{{\"span\":{i},\"parent\":{parent},\"op\":{}}}", s.op),
        );
    }
    writer.finish(&[
        ("producer", "\"simbench\"".to_owned()),
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("unit", "\"us\"".to_owned()),
    ])
}
