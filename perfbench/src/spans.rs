//! In-memory spans for the traced run, recorded around the calls the
//! benchmark makes into each layer and written out as Chrome-trace JSON
//! (the format `sycl_sim::trace` emits) when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Spans beyond this many are counted but not kept.
const MAX_SPANS: usize = 200_000;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id when kept.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let end = self.ns(Instant::now());
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval its children cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                if let Some(c) = children.get_mut(p) {
                    c.push((span.start_ns, span.end_ns));
                }
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            *out.entry(span.name).or_insert(0) += total.saturating_sub(covered(kids, span));
        }
        out
    }

    /// Chrome-trace JSON: one complete ("X") event per span, timestamps
    /// in microseconds, the parent id and request id in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = format!("\"id\":{i}");
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(r) = s.request {
                args.push_str(&format!(",\"request\":{r}"));
            }
            out.push_str(&format!(
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{{args}}}}}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Length of the union of `intervals` clipped to `span`.
fn covered(intervals: &mut [(u64, u64)], span: &Span) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(span.end_ns));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |us: u64| o + Duration::from_micros(us);
        let parent = t.record("sched.serve", at(0), at(100), None, None);
        t.record("resilient.launch", at(10), at(40), parent, Some(1));
        // Overlapping children are counted once.
        t.record("resilient.launch", at(30), at(60), parent, Some(2));
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name["sched.serve"], 50_000);
        assert_eq!(by_name["resilient.launch"], 60_000);
        let json = t.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":2"));
    }
}
