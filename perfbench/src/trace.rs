//! In-memory spans recorded around calls into the program's public
//! functions, with self-time aggregation and a Chrome trace export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one run.
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.search`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Shared by every span of one serving request (also sent as the
    /// request's wire trace ID).
    pub request: Option<u64>,
    /// Recording thread (one [`Tracer`] per thread).
    pub thread: u32,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Ids are made unique across
/// threads by reserving the high bits for the thread number, so each
/// tracer of a run needs its own: 0 for set-up, 1 for the measuring
/// thread, 2 and up for load-generator connections.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    next: u64,
    open: Vec<Span>,
    done: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            next: 0,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) {
        let id = (u64::from(self.thread) << 40) | self.next;
        self.next += 1;
        let span = Span {
            id,
            parent: self.open.last().map(|s| s.id),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            request,
            thread: self.thread,
        };
        self.open.push(span);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open, which is a bug in the caller.
    pub fn end(&mut self) {
        let mut span = self.open.pop().expect("end() without a matching begin()");
        span.end_ns = self.now_ns();
        self.done.push(span);
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, None);
        let out = f();
        self.end();
        out
    }

    /// The closed spans, in the order they ended.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "spans left open");
        self.done
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals of duration and self time, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_s: f64,
    /// Summed self times.
    pub self_s: f64,
}

/// Sums durations and self times by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.duration_ns() as f64 / 1e9;
        t.self_s += selfs[&s.id] as f64 / 1e9;
    }
    out
}

/// Renders spans as Chrome `trace_event` JSON (complete events).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            request: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 80),
            span(4, Some(3), 55, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 25);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Children from two threads overlap each other and one runs
        // past its parent's end.
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 110, 150),
            span(3, Some(1), 140, 170),
            span(4, Some(1), 190, 260),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60 - 10);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span(7, None, 5, 25)];
        assert_eq!(self_times(&spans)[&7], 20);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.begin("outer", Some(9));
        let v = t.time("inner", || 42);
        t.end();
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.request, Some(9));
        assert_eq!(outer.id >> 40, 3);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["outer"].count, 1);
        let o = totals["outer"];
        let i = totals["inner"];
        assert!((o.self_s + i.total_s - o.total_s).abs() < 1e-12);
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"inner\""));
        assert!(json.contains("\"request\":9"));
    }
}
