//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The spans are recorded by the benchmark's own driver, never inside the
//! crates: what a call does internally shows only as that call's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// At most this many spans are written to a trace file; the summary always
/// covers every span recorded.
const MAX_SPANS_WRITTEN: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The id of the root span this one descends from: spans of one
    /// request, update or solve share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Disabled, every call is a single branch, so
/// the untraced and the traced run execute the same driver code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `lane` keeps the ids of concurrently recording tracers apart; tracers
    /// that are later merged share one `epoch`.
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> Self {
        Self {
            enabled,
            epoch,
            id_base: lane << 40,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread: same switch, same clock, its own ids.
    pub fn fork(&self, lane: u64) -> Self {
        Self::new(self.enabled, self.epoch, lane)
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.id_base + self.spans.len() as u64 + 1;
        let (parent, request) = match self.open.last() {
            Some(&at) => (self.spans[at].id, self.spans[at].request),
            None => (0, id),
        };
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let at = self.open.pop().expect("end() without a matching begin()");
        self.spans[at].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn scope<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name);
        let out = body(self);
        self.end();
        out
    }

    /// Takes over the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "tracer has open spans");
        &self.spans
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans. Children of one span are
    /// recorded by one thread and never overlap, so their cover is their sum.
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_cover.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let covered = child_cover.get(&span.id).copied().unwrap_or(0);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Renders `trace-<workload>.json`: the summary over every span, then the
/// first [`MAX_SPANS_WRITTEN`] spans.
pub fn render(workload: &str, spans: &[Span]) -> String {
    let summary = summarize(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workload\": \"{workload}\",");
    let _ = writeln!(out, "  \"spans_total\": {},", spans.len());
    let written = spans.len().min(MAX_SPANS_WRITTEN);
    let _ = writeln!(out, "  \"spans_written\": {written},");
    let _ = writeln!(out, "  \"summary\": {{");
    for (i, (name, s)) in summary.iter().enumerate() {
        let comma = if i + 1 < summary.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
            s.count, s.total_ns, s.self_ns
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"spans\": [");
    for (i, s) in spans[..written].iter().enumerate() {
        let comma = if i + 1 < written { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "decode", 10, 30),
            span(3, 1, "apply", 30, 90),
            span(4, 3, "io", 40, 50),
            span(5, 0, "request", 200, 260),
        ];
        let summary = summarize(&spans);
        assert_eq!(
            summary["request"],
            NameSummary {
                count: 2,
                total_ns: 160,
                self_ns: 20 + 60
            }
        );
        assert_eq!(summary["apply"].self_ns, 50);
        assert_eq!(summary["decode"].self_ns, 20);
        assert_eq!(summary["io"].self_ns, 10);
        // self times of a tree add up to its root's duration
        let self_total: u64 = summary.values().map(|s| s.self_ns).sum();
        assert_eq!(self_total, 160);
        assert_eq!(summary.values().map(|s| s.count).sum::<u64>(), 5);
    }

    #[test]
    fn tracer_nests_and_shares_the_request_id() {
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        tracer.scope("request", |t| {
            t.scope("child", |t| t.scope("grandchild", |_| ()));
            t.scope("child", |_| ());
        });
        tracer.scope("request", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[0].id);
        assert!(spans[..4].iter().all(|s| s.request == spans[0].id));
        assert_eq!(spans[4].request, spans[4].id);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut other = tracer.fork(1);
        other.scope("elsewhere", |_| ());
        assert!(other.spans()[0].id > 1 << 40);
        tracer.absorb(other);
        assert_eq!(tracer.spans().len(), 6);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tracer.scope("anything", |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn rendered_trace_accounts_for_every_span() {
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        for _ in 0..3 {
            tracer.scope("a", |t| t.scope("b", |_| ()));
        }
        let text = render("w", tracer.spans());
        assert!(text.contains("\"spans_total\": 6"));
        assert!(text.contains("\"spans_written\": 6"));
        assert!(text.contains("\"a\": {\"count\": 3"));
    }
}
