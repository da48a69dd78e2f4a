//! Spans around the harness's calls into each layer, kept in memory and
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the span that was open when this
/// one started, so self time is the duration minus the children's.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder. It is always present; the untraced pass simply
/// never opens a span inside a timed region.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> (T, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = end;
        (out, (end - self.spans[idx].start_ns) as f64 / 1e9)
    }

    /// Self time of every span name: duration minus direct children,
    /// summed over the spans of that name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
            text.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}
