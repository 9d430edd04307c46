//! In-memory span recording around calls into the workspace's layers,
//! per-layer self time, and Chrome trace-event output.
//!
//! Spans are recorded by the benchmark, outside the program: each op gets
//! a root span named [`ROOT`] and one child span per layer call, named by
//! the layer's metric prefix (for example `workload.io.parse`). A span's
//! self time is its duration minus the part of it that its children
//! cover; the root's self time is the op time no layer span covers
//! (`unattributed_ms`). Summed over all spans, self times add up to the
//! roots' total duration exactly.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of every op's root span.
pub const ROOT: &str = "op";

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, `None` for an op's root.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub op: u64,
    /// The client thread that ran it (0 for single-threaded workloads).
    pub tid: u64,
    /// Layer name (the metric prefix) or [`ROOT`].
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn id(&self) -> u64 {
        // A counter only: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking client")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span buffer poisoned by a panicking client")
    }
}

/// The spans of one op. With no tracer it records nothing and adds no
/// clock reads, so untraced ops run the layer calls bare.
pub struct OpScope<'a> {
    tracer: Option<&'a Tracer>,
    op: u64,
    tid: u64,
    root: u64,
    start: Option<Instant>,
}

impl<'a> OpScope<'a> {
    /// Opens the root span of op `op` on client `tid`.
    pub fn begin(tracer: Option<&'a Tracer>, op: u64, tid: u64) -> OpScope<'a> {
        OpScope {
            tracer,
            op,
            tid,
            root: tracer.map_or(0, Tracer::id),
            start: tracer.map(|_| Instant::now()),
        }
    }

    /// Whether this op records spans.
    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f` inside a child span named `name`.
    pub fn layer<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(t) = self.tracer else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        t.push(Span {
            id: t.id(),
            parent: Some(self.root),
            op: self.op,
            tid: self.tid,
            name,
            start_ns: t.ns(start),
            end_ns: t.ns(end),
        });
        out
    }

    /// Closes the root span.
    pub fn end(self) {
        if let (Some(t), Some(start)) = (self.tracer, self.start) {
            let end = Instant::now();
            t.push(Span {
                id: self.root,
                parent: None,
                op: self.op,
                tid: self.tid,
                name: ROOT,
                start_ns: t.ns(start),
                end_ns: t.ns(end),
            });
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Total self time per span name, in ns. The [`ROOT`] entry is the op
/// time no layer span covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// The spans as Chrome trace-event JSON (complete `X` events, µs times),
/// loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.op,
            s.id,
            parent,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            tid: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_leaves_the_gaps_unattributed() {
        // op [0,100): parse [10,30), execute [30,80) with a nested kernel
        // span [40,70), serialize [85,95). Gaps: [0,10), [80,85), [95,100).
        let spans = vec![
            span(1, None, ROOT, 0, 100),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "execute", 30, 80),
            span(4, Some(3), "kernel", 40, 70),
            span(5, Some(1), "serialize", 85, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parse"], 20);
        assert_eq!(t["execute"], 20);
        assert_eq!(t["kernel"], 30);
        assert_eq!(t["serialize"], 10);
        assert_eq!(t[ROOT], 20);
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children [10,60) and [40,90) cover [10,90).
        let spans = vec![
            span(1, None, ROOT, 0, 100),
            span(2, Some(1), "a", 10, 60),
            span(3, Some(1), "b", 40, 90),
        ];
        assert_eq!(self_times(&spans)[ROOT], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, ROOT, 10, 20), span(2, Some(1), "a", 0, 15)];
        let t = self_times(&spans);
        assert_eq!(t[ROOT], 5);
        assert_eq!(t["a"], 15);
    }

    #[test]
    fn scopes_record_a_root_and_its_layers() {
        let tracer = Tracer::new();
        let scope = OpScope::begin(Some(&tracer), 7, 1);
        let v = scope.layer("layer.a", || 41 + 1);
        scope.end();
        assert_eq!(v, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == ROOT).unwrap();
        let child = spans.iter().find(|s| s.name == "layer.a").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(chrome_json(&spans).contains("\"name\":\"layer.a\""));
    }

    #[test]
    fn untraced_scopes_record_nothing() {
        let scope = OpScope::begin(None, 0, 0);
        assert_eq!(scope.layer("x", || 3), 3);
        scope.end();
    }
}
