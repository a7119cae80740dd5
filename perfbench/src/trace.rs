//! Host-time spans recorded around calls into the program's public API,
//! kept in memory and written out once at the end as Chrome trace-event
//! JSON (viewable in Perfetto or profiler.firefox.com).

use std::collections::BTreeMap;
use std::time::Instant;
use unimem_sim::Json;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-name totals over every span of that name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Calls, total and self seconds per span name. A span's self time is
    /// its duration minus the time its child spans cover (children never
    /// overlap: every span here is opened on one thread).
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.calls += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// its parent's index in `args`, plus `meta` under `otherData`.
    pub fn to_chrome(&self, meta: Json) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj();
                args.push("id", i);
                args.push("parent", s.parent.map_or(Json::Null, Json::from));
                let mut e = Json::obj();
                e.push("name", s.name.as_str())
                    .push("cat", s.name.split('.').next().unwrap_or(""))
                    .push("ph", "X")
                    .push("ts", s.start_ns as f64 / 1e3)
                    .push("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .push("pid", 1u64)
                    .push("tid", 1u64)
                    .push("args", args);
                e
            })
            .collect::<Vec<_>>();
        let mut o = Json::obj();
        o.push("traceEvents", events)
            .push("displayTimeUnit", "ms")
            .push("otherData", meta);
        o
    }
}
