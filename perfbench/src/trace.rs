//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around calls into the simulator's public functions), kept in memory,
//! and written once at exit as Chrome trace-event JSON, which Perfetto
//! and `chrome://tracing` open. Spans of one cell share the cell's id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The layer the span measures (`workloads`, `manycore`, `campaign`, …).
    pub layer: &'static str,
    /// The cell the span belongs to (0 for spans outside any cell).
    pub cell: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Extra key/value pairs, already JSON-encoded values.
    pub args: Vec<(&'static str, String)>,
}

/// Span recorder; one per traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` into the tracer's time base.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that ends at [`close`](Self::close); returns its index.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        cell: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name: name.into(),
            layer,
            cell,
            parent,
            start_ns,
            dur_ns: 0,
            args: Vec::new(),
        })
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Attaches an argument to span `idx`.
    pub fn arg(&mut self, idx: usize, key: &'static str, value: impl std::fmt::Display) {
        self.spans[idx].args.push((key, value.to_string()));
    }

    /// Records a finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns;
            }
        }
        let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = by_name
                .entry(format!("{}:{}", span.layer, span.name))
                .or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns.saturating_sub(children);
        }
        by_name
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond times).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                json_string(&span.name),
                span.layer,
                span.cell,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            );
            if let Some(p) = span.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &span.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Encodes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let parent = t.push(Span {
            name: "cell".into(),
            layer: "bench",
            cell: 1,
            parent: None,
            start_ns: 0,
            dur_ns: 100,
            args: Vec::new(),
        });
        t.push(Span {
            name: "tick".into(),
            layer: "manycore",
            cell: 1,
            parent: Some(parent),
            start_ns: 10,
            dur_ns: 60,
            args: vec![("idle", "true".into())],
        });
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["bench:cell"], (1, 40));
        assert_eq!(by_name["manycore:tick"], (1, 60));
        let json = t.to_chrome_json();
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"idle\":true"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
