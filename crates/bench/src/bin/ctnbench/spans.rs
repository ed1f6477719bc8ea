//! In-memory spans recorded by the benchmark around calls into each
//! layer, written out as a Chrome trace when the traced pass ends.

use simnet::obs::{json, TraceBuilder};
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    /// Viewer row: 0 for the in-process replay, one per client otherwise.
    track: u64,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    /// Free-form label shown in the viewer (`scenario n=… m=…`).
    detail: String,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, detail: &str) -> SpanId {
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            track: 0,
            start_us: now,
            end_us: now,
            parent,
            detail: detail.to_string(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Records a span around `f` and hands back its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, "");
        let out = f();
        self.end(id);
        out
    }

    /// Records a span from instants taken elsewhere (a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        track: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            track,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            detail: String::new(),
        });
        self.spans.len() - 1
    }

    pub fn duration_us(&self, id: SpanId) -> f64 {
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// Every span's self time: its duration minus the part of it its
    /// child spans cover (children may overlap one another and are clipped
    /// to the parent). One pass over the log, whatever its length.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut covered: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let clipped = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
                if clipped.1 > clipped.0 {
                    covered[p].push(clipped);
                }
            }
        }
        covered
            .into_iter()
            .enumerate()
            .map(|(id, mut children)| {
                children.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut busy = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in children {
                    if b > reach {
                        busy += b - a.max(reach);
                        reach = b;
                    }
                }
                self.duration_us(id) - busy
            })
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            // A fold from 0.0, not `sum()`, which yields -0.0 for no spans.
            .fold(0.0, |total, s| total + (s.end_us - s.start_us))
            * 1e-6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The Chrome trace-event document (load it in ui.perfetto.dev).
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, process);
        let mut tracks: Vec<u64> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            let label = if t == 0 {
                "in-process".to_string()
            } else {
                format!("client {t}")
            };
            trace.thread_name(1, t, &label);
        }
        let self_times = self.self_times_us();
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id", id.to_string()),
                ("self_us", json::number(self_times[id])),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", p.to_string()));
            }
            if !s.detail.is_empty() {
                args.push(("detail", json::string(&s.detail)));
            }
            let layer = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            trace.span(
                1,
                s.track,
                s.name,
                layer,
                s.start_us,
                s.end_us - s.start_us,
                &args,
            );
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        for &(name, parent, start, end) in spans {
            log.record(
                name,
                parent,
                0,
                t0 + Duration::from_micros(start),
                t0 + Duration::from_micros(end),
            );
        }
        log
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let log = log_with(&[
            ("op", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("a.inner", Some(1), 15, 35),
            ("b", Some(0), 50, 70),
        ]);
        let own = log.self_times_us();
        assert!(close(own[0], 50.0), "grandchildren do not count");
        assert!(close(own[1], 10.0));
        assert!(close(own[2], 20.0));
        assert!(close(own[3], 20.0));
        assert!(close(log.total_secs("a"), 30e-6));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let log = log_with(&[
            ("op", None, 100, 200),
            ("x", Some(0), 110, 150),
            ("y", Some(0), 140, 160),
            ("z", Some(0), 120, 130),
            ("late", Some(0), 190, 250),
            ("early", Some(0), 50, 105),
        ]);
        // Covered: [100,105] + [110,160] + [190,200] = 65 of 100.
        let own = log.self_times_us();
        assert!(close(own[0], 35.0), "{}", own[0]);
    }

    #[test]
    fn the_trace_document_carries_every_span() {
        let log = log_with(&[("op", None, 0, 10), ("simnet.fluid.solve", Some(0), 2, 8)]);
        let doc = log.chrome_trace("ctnbench test");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"name\":\"simnet.fluid.solve\",\"cat\":\"simnet.fluid\""));
        assert!(doc.contains("\"parent\":0"));
        assert_eq!(log.len(), 2);
    }
}
