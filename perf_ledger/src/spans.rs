//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's side of each call into a layer — the program itself
//! is not instrumented — kept in memory, and written out when the run
//! ends as a Chrome trace-event file plus a self-time table.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one operation (batch, shape or request).
    pub op_id: u64,
    /// Chrome-trace thread lane; overlapping operations get their own.
    lane: u32,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A disabled recorder still times (callers use the durations) but
    /// stores nothing: that is the untraced run.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open; returns `f`'s value and its duration in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        op_id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                op_id,
                lane: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        let value = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = end_ns;
        }
        (value, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Records a span from timestamps taken elsewhere (a server report,
    /// already shifted onto the recorder's clock). Returns its index for
    /// use as a parent.
    pub fn add(
        &mut self,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        op_id: u64,
        lane: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            let total = s.end_ns - s.start_ns;
            let row = table.entry(s.name.clone()).or_default();
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total - covered;
        }
        table
    }

    /// The spans as a Chrome trace-event JSON document (load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"op_id\":{}}}}}",
                crate::report::json_string(&s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_operation() {
        let mut rec = Recorder::new(true);
        let (v, ms) = rec.span("op", 7, |rec| {
            rec.span("build", 7, |_| ());
            rec.span("forward", 7, |_| 41).0 + 1
        });
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "build", "forward"]);
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[2].parent, Some(0));
        assert!(rec.spans().iter().all(|s| s.op_id == 7));
        assert!(rec.spans()[0].start_ns <= rec.spans()[1].start_ns);
        assert!(rec.spans()[2].end_ns <= rec.spans()[0].end_ns);
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let (v, ms) = rec.span("op", 1, |rec| rec.span("inner", 1, |_| 5).0);
        assert_eq!(v, 5);
        assert!(ms >= 0.0);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.add("late", (0, 10), None, 1, 0), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(true);
        let root = rec.add("request", (0, 100), None, 1, 1);
        rec.add("wait", (0, 40), root, 1, 1);
        // Overlaps `wait` by 10 and sticks out of the parent by 20.
        rec.add("service", (30, 120), root, 1, 1);
        let t = rec.self_times();
        // Children cover [0, 100) entirely.
        assert_eq!(t["request"].self_ns, 0);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["wait"].self_ns, 40);
        assert_eq!(t["service"].total_ns, 90);

        let mut rec = Recorder::new(true);
        let root = rec.add("op", (0, 100), None, 2, 0);
        rec.add("a", (10, 30), root, 2, 0);
        rec.add("a", (50, 60), root, 2, 0);
        let t = rec.self_times();
        assert_eq!(t["op"].self_ns, 70);
        assert_eq!(
            t["a"],
            SelfTime {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut rec = Recorder::new(true);
        let root = rec.add("a \"quoted\" name", (1_000, 3_000), None, 9, 2);
        rec.add("child", (1_500, 2_000), root, 9, 2);
        let doc = rec.chrome_trace();
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"name\":\"a \\\"quoted\\\" name\""));
        assert!(doc.contains("\"ts\":1.000,\"dur\":2.000"));
        assert!(doc.contains("\"parent\":0,\"op_id\":9"));
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
    }
}
