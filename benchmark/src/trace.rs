//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the harness, around its calls into each layer's
//! public functions — nothing inside the engines is instrumented, so the
//! guest and the cycle model see exactly what they see untraced.  Spans
//! live in memory and are written out once, when the workload ends.

use crate::json::{obj, Value};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Index of the program the span belongs to (spans of one program share
    /// it); `None` for the workload-level span.
    pub program: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts and derived times measured at this boundary.
    pub counters: Vec<(String, f64)>,
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn start(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        program: Option<usize>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            program,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: u64) -> u64 {
        let now = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.end_ns - s.start_ns
    }

    /// Attaches a counter to span `id`.
    pub fn counter(&mut self, id: u64, key: &str, value: f64) {
        self.spans[id as usize]
            .counters
            .push((key.to_string(), value));
    }

    /// Times `f` as a child span.
    pub fn scope<R>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        program: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.start(name, parent, program);
        let r = f();
        (r, self.end(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// A span's self time: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: u64) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The trace file's contents.
    pub fn to_json(&self, workload: &str, seed: u64, programs: &[&str]) -> Value {
        obj(vec![
            ("workload", workload.into()),
            ("seed", seed.into()),
            (
                "programs",
                Value::Arr(programs.iter().map(|p| (*p).into()).collect()),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("id", s.id.into()),
                                ("parent", s.parent.map_or(Value::Null, Value::U64)),
                                (
                                    "program",
                                    s.program.map_or(Value::Null, |p| Value::U64(p as u64)),
                                ),
                                ("name", s.name.as_str().into()),
                                ("start_ns", s.start_ns.into()),
                                ("end_ns", s.end_ns.into()),
                                ("self_ns", self.self_ns(s.id).into()),
                                (
                                    "counters",
                                    Value::Obj(
                                        s.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Value::F64(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
