//! Spans recorded by the harness around calls into a layer's public
//! functions. Kept in memory; written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the span that was open when this one
/// started; counts recorded at the same boundary ride along.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer runs the closure and nothing else, so
/// the untraced repetitions pay one branch per layer call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span called `name` (`layer.function`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's duration minus the part of it its direct children cover.
/// Children never overlap (the harness opens spans from one thread), so the
/// covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Total duration, seconds, of every span called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum();
    ns as f64 / 1e9
}

/// JSON-lines text: one object per span, in start order.
pub fn to_json_lines(spans: &[Span], workload: &str) -> String {
    let own = self_times_ns(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
            s.name, s.start_ns, s.end_ns, own[i]
        )
        .expect("write to String");
        for (k, v) in &s.counts {
            write!(out, ",\"{k}\":{v}").expect("write to String");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100) ─ setup [5,35) ─ parse [10,20), parse [20,30)
        //             └ timed [40,95) ─ scan [50,90) ─ rebuild [60,70)
        let spans = vec![
            span("rep", 0, 100, None),
            span("setup", 5, 35, Some(0)),
            span("data.parse_maf", 10, 20, Some(1)),
            span("data.parse_maf", 20, 30, Some(1)),
            span("timed", 40, 95, Some(0)),
            span("greedy.scan", 50, 90, Some(4)),
            span("bitmat.rebuild", 60, 70, Some(5)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 10, 10, 10, 15, 30, 10]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
        assert_eq!(total_s(&spans, "data.parse_maf"), 20e-9);
    }

    #[test]
    fn tracer_links_parents_and_keeps_counts() {
        let mut tr = Tracer::new(true);
        let got = tr.span("outer", |tr| {
            tr.span("inner", |tr| tr.count("items", 3));
            tr.span("inner", |_| ());
            7
        });
        assert_eq!(got, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(s[1].counts, vec![("items", 3)]);
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        let text = to_json_lines(s, "w");
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"parent\":0") && text.contains("\"items\":3"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 1)), 1);
        tr.count("ignored", 1);
        assert!(tr.spans().is_empty());
    }
}
