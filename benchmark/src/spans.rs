//! The benchmark's own spans, recorded around calls into each layer.
//! They are kept in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `sat/step`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one) and return its duration
    /// in milliseconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span; returns its result and duration in ms.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.begin(name);
        let out = f();
        (out, self.end(idx))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_fit_inside_parents() {
        let mut s = Spans::new();
        let root = s.begin("root");
        let (_, child_ms) = s.time("child", || std::hint::black_box(1 + 1));
        let root_ms = s.end(root);
        assert!(child_ms <= root_ms);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[0].parent, None);
        assert!(s.spans()[1].start_ns >= s.spans()[0].start_ns);
        assert!(s.spans()[1].end_ns <= s.spans()[0].end_ns);
        assert!(s.to_json().contains("\"parent\": 0"));
    }
}
