//! Spans recorded from the benchmark's own code, around calls into each
//! crate's public functions. Kept in memory and written out when the run
//! ends. With recording off (`--trace 0`) the same call sites only read the
//! clock, so traced and untraced runs share one code path and their
//! difference is the tracing overhead.

use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Run `f` inside a span named `name`; returns its result and its wall
    /// seconds. `f` gets the tracer back so callees can open child spans.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_s: start.duration_since(self.origin).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = id {
            self.spans[id].end_s = self.spans[id].start_s + secs;
            self.open.pop();
        }
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span with its self time, tagged with the workload they belong
    /// to: the content of `out/trace-<workload>.json`.
    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_s)| {
                    Value::obj(vec![
                        ("name", Value::str(&s.name)),
                        ("workload", Value::str(workload)),
                        ("start_s", Value::Num(s.start_s)),
                        ("end_s", Value::Num(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_s", Value::Num(self_s)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time is its duration minus the part of it that its child
/// spans cover. Children of one parent never overlap here (one thread opens
/// and closes them in order), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.end_s - s.start_s;
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("workload", 0.0, 10.0, None),
            span("setup", 0.0, 3.0, Some(0)),
            span("grid.model_build", 0.5, 1.5, Some(1)),
            span("core.solver_build", 1.5, 2.75, Some(1)),
            span("op", 4.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 0.75, 1.0, 1.25, 5.0]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.time("outer", |tr| {
            tr.time("a", |_| ());
            tr.time("b", |tr| {
                tr.time("c", |_| ());
            });
        });
        let names: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        let total = tr.spans()[0].end_s - tr.spans()[0].start_s;
        assert!((total - outer).abs() < 1e-9);
        assert!(self_times(tr.spans()).iter().all(|&s| s >= -1e-9));
    }

    #[test]
    fn recording_off_keeps_no_spans_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
