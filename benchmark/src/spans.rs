//! Spans recorded by the benchmark's own code around its calls into each
//! layer. They live in memory and are written out once, at exit. A span
//! covers a batch of calls, never one call: a per-call span would time the
//! clock instead of the layer.

use std::time::Instant;

use crate::json::Json;

/// Calls one batch span covers at most.
pub const BATCH: usize = 1024;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer this span covers (0 for grouping spans).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            calls: 0,
        });
        self.open.push(id);
        // Read the clock last, so that recording the span is outside it.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32, calls: u64) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id, 0);
        out
    }

    /// Runs `op` once per item, one span per [`BATCH`] items, and returns
    /// what those spans add up to.
    pub fn batches<T>(&mut self, name: &str, items: &[T], mut op: impl FnMut(&T)) -> Timing {
        let mut total = Timing::default();
        for chunk in items.chunks(BATCH) {
            let id = self.enter(name);
            for item in chunk {
                op(item);
            }
            self.exit(id, chunk.len() as u64);
            total.calls += chunk.len() as u64;
            total.nanos += self.spans[id as usize].duration_ns();
        }
        total
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in the order the spans were opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("calls", Json::Num(s.calls as f64)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// Calls made and time spent, summed over batch spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    pub calls: u64,
    pub nanos: u64,
}

impl Timing {
    pub fn ns_per_call(&self) -> f64 {
        self.nanos as f64 / self.calls.max(1) as f64
    }

    pub fn add(&mut self, other: Timing) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one span never overlap here (one thread opens and
/// closes them in order), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Cost of opening and closing one empty span, nanoseconds (median of
/// several bursts) — what a batch span adds to the time it reports.
pub fn clock_cost_ns() -> f64 {
    let mut costs = Vec::new();
    for _ in 0..9 {
        let mut t = Tracer::new();
        let n = 2000u32;
        let started = Instant::now();
        for _ in 0..n {
            let id = t.enter("clock");
            t.exit(id, 0);
        }
        costs.push(started.elapsed().as_nanos() as f64 / f64::from(n));
        std::hint::black_box(t.spans().len());
    }
    crate::stats::median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            calls: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100; layer 10..70 under root; two batches under layer.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 70),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 35, 65),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 20, 30]);
    }

    #[test]
    fn batches_split_and_nest() {
        let mut t = Tracer::new();
        let items: Vec<u32> = (0..2500).collect();
        let mut seen = 0u64;
        let timing = t.scope("layer", |t| t.batches("op", &items, |_| seen += 1));
        assert_eq!(seen, 2500);
        assert_eq!(timing.calls, 2500);
        let spans = t.spans();
        assert_eq!(spans.len(), 4, "one layer span and three batches");
        assert_eq!(spans[0].parent, None);
        let calls: Vec<u64> = spans[1..].iter().map(|s| s.calls).collect();
        assert_eq!(calls, vec![1024, 1024, 452]);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans[1..].iter().all(|s| s.start_ns <= s.end_ns));
        assert_eq!(
            timing.nanos,
            spans[1..].iter().map(Span::duration_ns).sum::<u64>()
        );
        let lines: Vec<Json> = t
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[3].get("calls").unwrap().as_f64(), Some(452.0));
    }
}
