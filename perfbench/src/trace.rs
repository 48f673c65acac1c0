//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer's public functions. Each span keeps its name, start, end,
//! parent span and the id of the op it belongs to; nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new op id; spans opened from now on share it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of each span: its duration minus the time its children
    /// cover (children of one span never overlap: the benchmark calls
    /// one layer at a time).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Writes the span tree plus the given counters as JSON to `path`.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
        counters: &[(String, u64)],
    ) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let e = totals.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"schema\":\"perfbench-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":{{"
        );
        for (i, (name, (count, total, self_ns))) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                j,
                "{sep}\"{name}\":{{\"count\":{count},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
                *total as f64 / 1e6,
                *self_ns as f64 / 1e6
            );
        }
        j.push_str("},\"counters\":{");
        for (i, (name, v)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(j, "{sep}\"{name}\":{v}");
        }
        j.push_str("},\"spans\":[\n");
        for (i, (s, &self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                j,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            );
        }
        j.push_str("\n]}\n");
        std::fs::write(path, j)
    }
}
