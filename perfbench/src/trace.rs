//! In-memory span recorder for the traced run, plus the order statistics
//! every report uses.
//!
//! A span is one timed call into a layer of the program: its name, its
//! start and end on a monotonic clock, the span that caused it and how many
//! units of work it covered (1 for a single call, N for a batch of N
//! identical calls timed together). Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends, so writing
//! never perturbs the timed work.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Span store with interned names.
pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Interns a span name. Look names up once, outside the timed loop.
    pub fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Closes a span that covered `count` units of work.
    pub fn close(&mut self, id: SpanId, count: u64) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
    }

    /// Records a span timed elsewhere, e.g. on another thread.
    pub fn record(
        &mut self,
        name: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span of one unit of work.
    pub fn span<T>(&mut self, name: u32, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Durations in nanoseconds of every closed span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let Some(&id) = self.ids.get(name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name == id)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total nanoseconds and total work units over spans with this name.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let Some(&id) = self.ids.get(name) else {
            return (0.0, 0);
        };
        self.spans
            .iter()
            .filter(|s| s.name == id)
            .fold((0.0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns) as f64, n + s.count)
            })
    }

    /// Mean nanoseconds per work unit over spans with this name.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        ns / n.max(1) as f64
    }

    /// Every span as one JSON object per line, after a header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + header.len() + 1);
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// Wall nanoseconds one span costs the run: an open/close pair on a
/// scratch tracer, averaged over many pairs.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 50_000;
    let mut t = Tracer::default();
    let id = t.name("span_cost");
    let start = Instant::now();
    for _ in 0..PAIRS {
        let s = t.open(id, None);
        t.close(s, 1);
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Tracing overhead of work that took `wall_ns` and adds nothing to the
/// trace but `spans` spans: their cost over the wall time.
pub fn overhead_share(spans: usize, wall_ns: f64) -> f64 {
    spans as f64 * span_cost_ns() / wall_ns
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
