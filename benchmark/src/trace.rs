//! The benchmark-side tracer: spans recorded around every call into a
//! layer's public functions, kept in a preallocated buffer and written
//! out when the workload ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover (children on other threads may overlap each
//! other, so coverage is an interval union, not a sum).

use crate::json::obj;
use serde_json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept per workload; later ones are counted in `dropped`.
pub const SPAN_CAP: usize = 200_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer and function: `shard.coordinator.run`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request (chain, window, batch, destination) share it.
    pub req: u64,
}

/// Handle of an open span; inert when tracing is off or the buffer is
/// full.
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing: the untraced pass.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(SPAN_CAP),
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return NO_PARENT;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() as u32 - 1
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let now = self.ns(Instant::now());
        let id = self.push(name, req, now, now);
        if id != NO_PARENT {
            self.open.push(id);
        }
        Open(id)
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn exit(&mut self, span: Open) {
        if span.0 == NO_PARENT {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans must nest");
        self.spans[span.0 as usize].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let s = self.enter(name, req);
        let out = f(self);
        self.exit(s);
        out
    }

    /// Add a span timed elsewhere (another thread, or a loop that cannot
    /// hold `&mut Tracer`) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, req, s, e);
        }
    }

    /// Count work at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds the first span called `name` took; 0 if there is none.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Seconds of every span called `name`.
    pub fn all_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Write spans, counts and the per-layer summary as JSON.
    pub fn write(&self, path: &std::path::Path, workload: &str) -> Result<(), String> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let rows: Vec<JsonValue> = self
            .spans
            .iter()
            .map(|s| {
                let id = *index.entry(s.name).or_insert_with(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let parent = if s.parent == NO_PARENT {
                    -1.0
                } else {
                    s.parent as f64
                };
                JsonValue::Arr(
                    [
                        id as f64,
                        s.start_ns as f64,
                        s.end_ns as f64,
                        parent,
                        s.req as f64,
                    ]
                    .into_iter()
                    .map(JsonValue::Num)
                    .collect(),
                )
            })
            .collect();
        let layers: BTreeMap<String, JsonValue> = by_layer(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                let row = [
                    ("calls", t.calls),
                    ("total_ns", t.total_ns),
                    ("self_ns", t.self_ns),
                ];
                (
                    name.to_string(),
                    obj(row.map(|(k, v)| (k, JsonValue::Num(v as f64)))),
                )
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::Num(*v as f64)))
            .collect();
        let doc = obj([
            ("workload", JsonValue::Str(workload.to_string())),
            (
                "span_columns",
                JsonValue::Str("name,start_ns,end_ns,parent,request".to_string()),
            ),
            (
                "names",
                JsonValue::Arr(
                    names
                        .iter()
                        .map(|n| JsonValue::Str(n.to_string()))
                        .collect(),
                ),
            ),
            ("spans", JsonValue::Arr(rows)),
            ("dropped_spans", JsonValue::Num(self.dropped as f64)),
            ("counts", JsonValue::Obj(counts)),
            ("layers", JsonValue::Obj(layers)),
        ]);
        let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// How much of each span its children cover, in nanoseconds.
fn covered(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    kids.into_iter()
        .map(|mut iv| {
            iv.sort_unstable();
            let (mut total, mut reach) = (0u64, 0u64);
            for (a, b) in iv {
                if b > reach {
                    total += b - a.max(reach);
                    reach = b;
                }
            }
            total
        })
        .collect()
}

/// Self time of every span: duration minus child coverage.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    covered(spans)
        .iter()
        .zip(spans)
        .map(|(c, s)| (s.end_ns - s.start_ns).saturating_sub(*c))
        .collect()
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Calls, total and self time summed per span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("chain", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps `a` (another thread)
            span("c", 90, 130, 0), // runs past its parent: clipped
            span("a.inner", 12, 20, 1),
        ];
        // Children cover 10..60 and 90..100 of the chain.
        assert_eq!(self_times(&spans), vec![40, 22, 30, 40, 8]);
        assert_eq!(covered(&spans)[0], 60);
        let layers = by_layer(&spans);
        assert_eq!(
            layers["a"],
            LayerTime {
                calls: 1,
                total_ns: 30,
                self_ns: 22
            }
        );
    }

    #[test]
    fn tracer_nests_records_and_caps() {
        let mut tr = Tracer::on();
        let outer = tr.enter("outer", 7);
        tr.span("inner", 7, |tr| tr.count("things", 3));
        let t = Instant::now();
        tr.record("elsewhere", 7, t, t);
        tr.exit(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        assert_eq!(tr.counts["things"], 3);

        for _ in 0..SPAN_CAP + 5 {
            tr.span("fill", 0, |_| ());
        }
        assert_eq!(tr.spans().len(), SPAN_CAP);
        assert_eq!(tr.dropped, 8);

        let mut off = Tracer::off();
        off.span("nothing", 0, |tr| tr.count("x", 1));
        assert!(off.spans().is_empty() && off.counts.is_empty());
    }

    #[test]
    fn trace_file_round_trips_through_the_json_shim() {
        let mut tr = Tracer::on();
        tr.span("layer.call", 9, |tr| tr.count("ops", 2));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        tr.write(&path, "unit").unwrap();
        let doc: JsonValue =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let JsonValue::Obj(map) = doc else {
            panic!("not an object")
        };
        assert_eq!(map["workload"], JsonValue::Str("unit".into()));
        assert_eq!(
            map["names"],
            JsonValue::Arr(vec![JsonValue::Str("layer.call".into())])
        );
        let JsonValue::Arr(spans) = &map["spans"] else {
            panic!("spans")
        };
        assert_eq!(spans.len(), 1);
        let JsonValue::Obj(counts) = &map["counts"] else {
            panic!("counts")
        };
        assert_eq!(counts["ops"], JsonValue::Num(2.0));
    }
}
