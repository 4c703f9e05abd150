//! In-memory spans around the public calls the benchmark makes into
//! each layer, written out when the run ends.
//!
//! A span records its name (`<layer>.<call>`), start, end, the span that
//! was open when it began (its parent) and the id of the query, edit or
//! cycle it belongs to. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    op: u64,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// What an operation id stands for (e.g. a query's iQL text).
    labels: BTreeMap<u64, String>,
}

/// Totals of all spans sharing one name.
#[derive(Default, Clone, Copy)]
pub struct NameStats {
    pub count: u64,
    pub total: Duration,
    /// Duration minus the part covered by child spans.
    pub self_time: Duration,
}

impl NameStats {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        match self.count {
            0 => 0.0,
            n => self.self_time.as_secs_f64() * 1e6 / n as f64,
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    /// Records what operation `op` stands for.
    pub fn label(&mut self, op: u64, text: &str) {
        if self.enabled {
            self.labels.insert(op, text.to_owned());
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end = self.origin.elapsed();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Per-name totals with self time (duration minus child coverage).
    pub fn summary(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let duration = span.end - span.start;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total += duration;
            entry.self_time += duration.saturating_sub(child[i]);
        }
        out
    }

    /// Self time summed per layer (the name's prefix before the dot).
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (name, stats) in self.summary() {
            let layer = name.split_once('.').map_or(name, |(layer, _)| layer);
            *out.entry(layer).or_insert(Duration::ZERO) += stats.self_time;
        }
        out
    }

    /// Writes the spans, their labels and summaries as one JSON document.
    pub fn write(&self, path: &Path, meta: &str) -> io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(out, "{{\"meta\":{meta},\"summary\":{{");
        for (i, (name, s)) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3}}}",
                s.count,
                s.total.as_secs_f64() * 1e6,
                s.self_time.as_secs_f64() * 1e6
            );
        }
        out.push_str("},\"layer_self_us\":{");
        for (i, (layer, d)) in self.layer_self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{layer}\":{:.3}", d.as_secs_f64() * 1e6);
        }
        out.push_str("},\"names\":[");
        out.push_str(
            &names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("],\"labels\":{");
        for (i, (op, text)) in self.labels.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{op}\":{}", crate::json_string(text));
        }
        out.push_str(
            "},\"spans_fields\":[\"name\",\"op\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}[{},{},{},{},{parent}]",
                index[s.name],
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
