//! The benchmark's own spans: one per call into a layer, with name, start,
//! end, parent span and the id of the operation (cell or request) it serves.
//! Kept in memory and written once when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;
use tempo_serve::json::JsonValue;

pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let end = self.now();
        self.spans[idx].end_ns = end;
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span and returns its result and the span's seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let idx = self.enter(name, op);
        let out = f(self);
        self.exit(idx);
        (out, self.spans[idx].secs())
    }

    /// Appends another thread's spans (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children of one span never overlap: they run on its
    /// thread, one after another).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.secs() - children).max(0.0);
        }
        out
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    JsonValue::Array(vec![
                        id.into(),
                        s.parent.map_or(JsonValue::Null, JsonValue::from),
                        s.op.into(),
                        s.name.into(),
                        s.start_ns.into(),
                        s.end_ns.into(),
                    ])
                })
                .collect(),
        )
    }
}
