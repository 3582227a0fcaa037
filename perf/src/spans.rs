//! In-memory trace spans, written as JSONL when the benchmark ends.
//!
//! Spans mark coarse boundaries only — a DES run, a largen sweep, each
//! serve stage of a request — so recording them costs nothing the
//! per-layer numbers would notice. Per-call layers (QDisc calls, Newton
//! evaluations) are aggregated in counters and histograms instead.

use greednet_runtime::{BenchJson, ScopedTimer};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the recorder, starting at 1.
    pub id: u64,
    /// What ran, e.g. `des.run.fs` or `serve.compute.nash`.
    pub name: String,
    /// Start, in ns since the recorder started.
    pub start_ns: u64,
    /// End, in ns since the recorder started.
    pub end_ns: u64,
    /// The enclosing span's id (0 for a root span).
    pub parent: u64,
    /// The service request the span belongs to, if any.
    pub request: Option<String>,
}

/// A span recorder; a disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    clock: ScopedTimer,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            clock: ScopedTimer::start("spans"),
            spans: Vec::new(),
        }
    }

    /// The recorder's clock, for timestamps taken on other threads.
    #[must_use]
    pub fn clock(&self) -> &ScopedTimer {
        &self.clock
    }

    /// Nanoseconds since the recorder started.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        nanos(&self.clock)
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: u64,
        request: Option<&str>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: request.map(str::to_string),
        });
        id
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` and, for service stages, `request`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let mut line = BenchJson::new();
            line.uint("id", span.id)
                .str("name", span.name.as_str())
                .uint("start_ns", span.start_ns)
                .uint("end_ns", span.end_ns)
                .uint("parent", span.parent);
            if let Some(request) = &span.request {
                line.str("request", request.as_str());
            }
            out.push_str(&crate::compact(&line));
            out.push('\n');
        }
        out
    }
}

/// Nanoseconds elapsed on `clock`, saturating at `u64::MAX`.
#[must_use]
pub fn nanos(clock: &ScopedTimer) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_as_jsonl_with_parent_links() {
        let mut spans = Spans::new(true);
        let root = spans.record("des.pass", 0, None, 0, 10);
        spans.record("serve.parse", root, Some("p0c0r1"), 2, 4);
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            r#"{"id": 2,"name": "serve.parse","start_ns": 2,"end_ns": 4,"parent": 1,"request": "p0c0r1"}"#
        );
        let mut off = Spans::new(false);
        assert_eq!(off.record("x", 0, None, 0, 1), 0);
        assert!(off.spans().is_empty());
    }
}
