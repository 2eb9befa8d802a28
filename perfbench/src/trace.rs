//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the workspace crates is
//! instrumented. The nesting is workload → point/job → build, compile,
//! tick, jump, functional or protocol. A per-cycle loop makes millions
//! of `step_bounded` calls, so tick and jump spans are *aggregates*:
//! one span per point and kind, carrying the call count and the summed
//! duration of its calls. Spans stay in memory and are written once, when
//! the run ends.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use bench::json::Value;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`point`, `build`, `tick`, ...).
    pub name: &'static str,
    /// The point or job the span belongs to.
    pub id: String,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Calls folded into this span (1 unless aggregated).
    pub calls: u64,
    /// Time the calls took: `end - start` for a plain span, the sum of
    /// the call durations for an aggregate.
    pub busy: Duration,
}

/// Collects spans for one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        self.push(Span {
            name,
            id: id.into(),
            parent,
            start: now,
            end: now,
            calls: 1,
            busy: Duration::ZERO,
        })
    }

    /// Closes `span` now.
    pub fn close(&mut self, span: SpanId) {
        let now = self.origin.elapsed();
        let s = &mut self.spans[span];
        s.end = now;
        s.busy = now.saturating_sub(s.start);
    }

    /// Records a finished span whose interval the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start = start.saturating_duration_since(self.origin);
        let end = end.saturating_duration_since(self.origin);
        self.push(Span {
            name,
            id: id.into(),
            parent,
            start,
            end,
            calls: 1,
            busy: end.saturating_sub(start),
        })
    }

    /// Records an aggregate of `calls` calls made between `start` and
    /// `end`, which together took `busy`. Nothing is recorded for zero
    /// calls.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        calls: u64,
        busy: Duration,
    ) {
        if calls == 0 {
            return;
        }
        self.push(Span {
            name,
            id: id.into(),
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            calls,
            busy,
        });
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its busy time minus the busy time of
    /// its direct children.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child_busy = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy;
            }
        }
        self.spans
            .iter()
            .zip(child_busy)
            .map(|(s, c)| s.busy.saturating_sub(c))
            .collect()
    }

    /// Number of spans recorded so far (the id the next span gets).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Summed self time and call count per span name, over every span.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        self.by_name_in(0..self.spans.len())
    }

    /// Summed self time and call count per span name, over the spans
    /// with ids in `range` (one pass's subtree, as spans are appended in
    /// order).
    pub fn by_name_in(&self, range: Range<SpanId>) -> BTreeMap<&'static str, (Duration, u64)> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for i in range {
            let e = out.entry(self.spans[i].name).or_default();
            e.0 += own[i];
            e.1 += self.spans[i].calls;
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error as a string.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times())
            .map(|(s, own)| {
                let mut o = Value::obj();
                o.push("name", Value::Str(s.name.into()))
                    .push("id", Value::Str(s.id.clone()))
                    .push(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    )
                    .push("start_ns", Value::UInt(s.start.as_nanos() as u64))
                    .push("end_ns", Value::UInt(s.end.as_nanos() as u64))
                    .push("calls", Value::UInt(s.calls))
                    .push("busy_ns", Value::UInt(s.busy.as_nanos() as u64))
                    .push("self_ns", Value::UInt(own.as_nanos() as u64));
                o
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, Value::Arr(spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let point = r.record("point", "p", None, t0, t0 + ms(10));
        r.record("build", "p", Some(point), t0, t0 + ms(3));
        r.aggregate("tick", "p", Some(point), t0 + ms(3), t0 + ms(10), 5, ms(6));
        r.aggregate("jump", "p", Some(point), t0, t0, 0, ms(1));
        let by = r.by_name();
        assert_eq!(by["point"], (ms(1), 1));
        assert_eq!(by["build"], (ms(3), 1));
        assert_eq!(by["tick"], (ms(6), 5));
        assert!(
            !by.contains_key("jump"),
            "zero-call aggregates are not recorded"
        );
    }
}
