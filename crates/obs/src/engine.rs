//! The recording [`Recorder`] implementation and its harvested snapshot.

use crate::hist::Log2Hist;
use crate::sample::{RingSampler, Sample};
use crate::Recorder;

/// Time-series tick length in nanoseconds: 250 µs, fine enough to see a
/// retransmit stall, coarse enough that a one-second cell is 4000 ticks.
const SAMPLE_INTERVAL_NS: u64 = 250_000;
/// Samples retained per link; older ticks roll out of the ring.
const SAMPLES_PER_LINK: usize = 256;
/// Event marks retained across all connections; older marks roll out.
/// With [`SAMPLES_PER_LINK`] this keeps per-cell state bounded (a few
/// hundred KiB on a large fabric) however long the simulation runs.
const MARKS_CAPACITY: usize = 4096;

/// What happened at an event mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// Tail drop at a transmitter (`id` is the transmitter).
    Drop,
    /// Fast retransmit entered (`id` is the connection).
    FastRetransmit,
    /// RTO fired and retransmitted (`id` is the connection).
    Timeout,
    /// Segments re-injected after loss (`id` is the connection, `value`
    /// the segment count).
    Retransmit,
    /// Congestion window changed (`id` is the connection, `value` the new
    /// window in bytes).
    Cwnd,
}

impl MarkKind {
    /// Stable lowercase name for export.
    pub fn as_str(self) -> &'static str {
        match self {
            MarkKind::Drop => "drop",
            MarkKind::FastRetransmit => "fast_retransmit",
            MarkKind::Timeout => "timeout",
            MarkKind::Retransmit => "retransmit",
            MarkKind::Cwnd => "cwnd",
        }
    }
}

/// One point event on the simulation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Simulation timestamp, nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: MarkKind,
    /// Subject id (transmitter for drops, connection otherwise).
    pub id: u32,
    /// Kind-specific payload (see [`MarkKind`]).
    pub value: u64,
}

/// Per-link accumulator state.
#[derive(Debug, Clone)]
struct LinkState {
    /// Busy nanoseconds inside the current tick.
    busy_tick_ns: u64,
    /// Busy nanoseconds over the whole run.
    busy_total_ns: u64,
    queue_bytes: u64,
    max_queue_bytes: u64,
    drops: u64,
    ring: RingSampler,
}

impl LinkState {
    fn new() -> Self {
        Self {
            busy_tick_ns: 0,
            busy_total_ns: 0,
            queue_bytes: 0,
            max_queue_bytes: 0,
            drops: 0,
            ring: RingSampler::new(SAMPLES_PER_LINK),
        }
    }
}

/// A recording [`Recorder`]: integrates link busy time into fixed-interval
/// utilization/queue-depth rings, collects bounded event marks, and counts
/// event-loop throughput. One instance observes one simulator.
#[derive(Debug, Default)]
pub struct EngineRecorder {
    events: u64,
    pushes: u64,
    pop_hist: Log2Hist,
    push_hist: Log2Hist,
    first_ns: Option<u64>,
    last_ns: u64,
    /// Span of the busy intervals seen while no event was popped: the
    /// span of a run whose engine pops none (the fluid tier).
    busy_span: Option<(u64, u64)>,
    next_tick_ns: u64,
    links: Vec<LinkState>,
    marks: Vec<Mark>,
    marks_start: usize,
    marks_seen: u64,
    /// Last cwnd recorded per connection: cwnd marks are emitted only on
    /// change, so a steady-state ACK clock does not flood the mark ring.
    last_cwnd: Vec<u64>,
}

impl EngineRecorder {
    #[inline]
    fn link(&mut self, tx: u32) -> &mut LinkState {
        let idx = tx as usize;
        if idx >= self.links.len() {
            self.links.resize_with(idx + 1, LinkState::new);
        }
        &mut self.links[idx]
    }

    fn mark(&mut self, m: Mark) {
        if self.marks.len() < MARKS_CAPACITY {
            self.marks.push(m);
        } else {
            self.marks[self.marks_start] = m;
            self.marks_start = (self.marks_start + 1) % self.marks.len();
        }
        self.marks_seen += 1;
    }

    /// Closes the sampling ticks in `[next_tick, now]`.
    #[inline]
    fn advance_ticks(&mut self, now_ns: u64) {
        while self.next_tick_ns <= now_ns {
            let t = self.next_tick_ns;
            for link in &mut self.links {
                let busy = link.busy_tick_ns.min(SAMPLE_INTERVAL_NS);
                link.ring.push(Sample {
                    t_ns: t,
                    util_permille: ((busy * 1000) / SAMPLE_INTERVAL_NS) as u16,
                    queue_bytes: link.queue_bytes,
                });
                link.busy_tick_ns = 0;
            }
            self.next_tick_ns = t + SAMPLE_INTERVAL_NS;
        }
    }

    /// Drains the accumulated state into a snapshot, leaving the recorder
    /// empty (reusable for another run).
    pub fn take_telemetry(&mut self) -> EngineTelemetry {
        // Close the trailing partial tick so short runs export a series
        // (its utilization is still computed against a full interval, so
        // the last point underestimates slightly).
        if self.first_ns.is_some() {
            let end = self.next_tick_ns;
            self.advance_ticks(end);
        }
        let done = std::mem::take(self);
        let mut marks = done.marks;
        marks.rotate_left(done.marks_start);
        let (first_event_ns, last_event_ns) = done
            .first_ns
            .map(|first| (first, done.last_ns))
            .or(done.busy_span)
            .unwrap_or((0, 0));
        EngineTelemetry {
            sample_interval_ns: SAMPLE_INTERVAL_NS,
            events: done.events,
            pushes: done.pushes,
            first_event_ns,
            last_event_ns,
            pop_queue_hist: done.pop_hist.buckets(),
            push_queue_hist: done.push_hist.buckets(),
            links: done
                .links
                .into_iter()
                .enumerate()
                .map(|(tx, l)| LinkTelemetry {
                    tx: tx as u32,
                    busy_ns: l.busy_total_ns,
                    max_queue_bytes: l.max_queue_bytes,
                    drops: l.drops,
                    samples_dropped: l.ring.dropped(),
                    samples: l.ring.into_vec(),
                })
                .collect(),
            marks_dropped: done.marks_seen - marks.len() as u64,
            marks,
        }
    }
}

impl Recorder for EngineRecorder {
    #[inline]
    fn on_event_pop(&mut self, now_ns: u64, queue_len: usize) {
        self.events += 1;
        self.pop_hist.record(queue_len as u64);
        if self.first_ns.is_none() {
            self.first_ns = Some(now_ns);
            self.next_tick_ns = now_ns + SAMPLE_INTERVAL_NS;
        }
        self.last_ns = now_ns;
        if now_ns >= self.next_tick_ns {
            self.advance_ticks(now_ns);
        }
    }

    #[inline]
    fn on_event_push(&mut self, queue_len: usize) {
        self.pushes += 1;
        self.push_hist.record(queue_len as u64);
    }

    #[inline]
    fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, _wire_bytes: u64) {
        if self.first_ns.is_none() {
            let span = self.busy_span.get_or_insert((from_ns, until_ns));
            span.0 = span.0.min(from_ns);
            span.1 = span.1.max(until_ns);
        }
        let link = self.link(tx);
        let busy = until_ns - from_ns;
        link.busy_tick_ns += busy;
        link.busy_total_ns += busy;
    }

    #[inline]
    fn on_queue_enqueue(&mut self, tx: u32, wire_bytes: u64) {
        let link = self.link(tx);
        link.queue_bytes += wire_bytes;
        if link.queue_bytes > link.max_queue_bytes {
            link.max_queue_bytes = link.queue_bytes;
        }
    }

    #[inline]
    fn on_queue_dequeue(&mut self, tx: u32, wire_bytes: u64) {
        let link = self.link(tx);
        link.queue_bytes = link.queue_bytes.saturating_sub(wire_bytes);
    }

    fn on_drop(&mut self, tx: u32, now_ns: u64) {
        self.link(tx).drops += 1;
        self.mark(Mark {
            t_ns: now_ns,
            kind: MarkKind::Drop,
            id: tx,
            value: 0,
        });
    }

    fn on_fast_retransmit(&mut self, conn: u32, now_ns: u64) {
        self.mark(Mark {
            t_ns: now_ns,
            kind: MarkKind::FastRetransmit,
            id: conn,
            value: 0,
        });
    }

    fn on_timeout(&mut self, conn: u32, now_ns: u64) {
        self.mark(Mark {
            t_ns: now_ns,
            kind: MarkKind::Timeout,
            id: conn,
            value: 0,
        });
    }

    fn on_retransmit(&mut self, conn: u32, now_ns: u64, count: u32) {
        self.mark(Mark {
            t_ns: now_ns,
            kind: MarkKind::Retransmit,
            id: conn,
            value: count as u64,
        });
    }

    #[inline]
    fn on_cwnd(&mut self, conn: u32, now_ns: u64, cwnd_bytes: u64) {
        let idx = conn as usize;
        if idx >= self.last_cwnd.len() {
            self.last_cwnd.resize(idx + 1, 0);
        }
        if self.last_cwnd[idx] != cwnd_bytes {
            self.last_cwnd[idx] = cwnd_bytes;
            self.mark(Mark {
                t_ns: now_ns,
                kind: MarkKind::Cwnd,
                id: conn,
                value: cwnd_bytes,
            });
        }
    }
}

/// Snapshot harvested from an [`EngineRecorder`] after a run.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// Tick length the series below were sampled at.
    pub sample_interval_ns: u64,
    /// Events popped from the queue.
    pub events: u64,
    /// Events pushed onto the queue.
    pub pushes: u64,
    /// Timestamp of the first event, nanoseconds; in a run that popped
    /// none (the fluid tier), the start of its first busy interval.
    pub first_event_ns: u64,
    /// Timestamp of the last event, nanoseconds; in a run that popped
    /// none, the end of its last busy interval.
    pub last_event_ns: u64,
    /// Log2 histogram of queue depth at pop (see [`Log2Hist::buckets`]).
    pub pop_queue_hist: Vec<u64>,
    /// Log2 histogram of queue depth at push.
    pub push_queue_hist: Vec<u64>,
    /// Per-transmitter series and totals (indexed by dense tx id; only
    /// transmitters that saw traffic appear).
    pub links: Vec<LinkTelemetry>,
    /// Event marks in chronological order (bounded window).
    pub marks: Vec<Mark>,
    /// Marks evicted from the bounded window.
    pub marks_dropped: u64,
}

impl EngineTelemetry {
    /// Simulated span covered by this run, in seconds.
    pub fn sim_span_secs(&self) -> f64 {
        (self.last_event_ns.saturating_sub(self.first_event_ns)) as f64 * 1e-9
    }
}

/// Per-link slice of an [`EngineTelemetry`].
#[derive(Debug, Clone)]
pub struct LinkTelemetry {
    /// Dense transmitter id.
    pub tx: u32,
    /// Total busy (serializing) nanoseconds.
    pub busy_ns: u64,
    /// Peak queued bytes observed at this transmitter.
    pub max_queue_bytes: u64,
    /// Tail drops at this transmitter.
    pub drops: u64,
    /// Retained utilization/queue-depth window, chronological.
    pub samples: Vec<Sample>,
    /// Older samples evicted from the ring.
    pub samples_dropped: u64,
}

impl LinkTelemetry {
    /// Merges consecutive samples at or above `threshold_permille`
    /// utilization into `(start_ns, end_ns)` saturation intervals. Each
    /// sample covers the `interval` nanoseconds ending at its timestamp.
    pub fn saturated_intervals(
        &self,
        threshold_permille: u16,
        interval_ns: u64,
    ) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for s in &self.samples {
            if s.util_permille < threshold_permille {
                continue;
            }
            let start = s.t_ns.saturating_sub(interval_ns);
            match out.last_mut() {
                Some((_, end)) if *end >= start => *end = s.t_ns,
                _ => out.push((start, s.t_ns)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_integrates_busy_time_per_tick() {
        let mut r = EngineRecorder::default();
        r.on_event_pop(0, 1);
        // Link 0 busy for half of the first tick.
        let half = SAMPLE_INTERVAL_NS / 2;
        r.on_tx_busy(0, 100, 100 + half, 64);
        r.on_event_pop(SAMPLE_INTERVAL_NS, 1); // closes the first tick
        let t = r.take_telemetry();
        assert_eq!(t.links.len(), 1);
        let s = &t.links[0].samples;
        assert_eq!(s[0].t_ns, SAMPLE_INTERVAL_NS);
        assert_eq!(s[0].util_permille, 500);
        assert_eq!(t.links[0].busy_ns, half);
        assert_eq!(t.events, 2);
    }

    #[test]
    fn queue_depth_tracks_enqueue_dequeue_and_peak() {
        let mut r = EngineRecorder::default();
        r.on_event_pop(0, 1);
        r.on_queue_enqueue(2, 1500);
        r.on_queue_enqueue(2, 1500);
        r.on_queue_dequeue(2, 1500);
        r.on_event_pop(SAMPLE_INTERVAL_NS, 1);
        let t = r.take_telemetry();
        let link = t.links.iter().find(|l| l.tx == 2).unwrap();
        assert_eq!(link.max_queue_bytes, 3000);
        assert_eq!(link.samples[0].queue_bytes, 1500);
    }

    #[test]
    fn mark_ring_rolls_over_keeping_newest() {
        let mut r = EngineRecorder::default();
        let seen = MARKS_CAPACITY as u64 + 2;
        for i in 0..seen {
            r.on_timeout(7, i * 10);
        }
        let t = r.take_telemetry();
        assert_eq!(t.marks.len(), MARKS_CAPACITY);
        assert_eq!(t.marks_dropped, 2);
        let ts: Vec<u64> = t.marks.iter().map(|m| m.t_ns).collect();
        assert_eq!(ts, (2..seen).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn cwnd_marks_dedupe_unchanged_windows() {
        let mut r = EngineRecorder::default();
        r.on_cwnd(0, 10, 2920);
        r.on_cwnd(0, 20, 2920); // unchanged: no mark
        r.on_cwnd(0, 30, 5840);
        r.on_cwnd(1, 40, 2920);
        let t = r.take_telemetry();
        assert_eq!(t.marks.len(), 3);
        assert_eq!(t.marks[1].value, 5840);
    }

    #[test]
    fn saturated_intervals_merge_adjacent_ticks() {
        let link = LinkTelemetry {
            tx: 0,
            busy_ns: 0,
            max_queue_bytes: 0,
            drops: 0,
            samples: vec![
                Sample {
                    t_ns: 1000,
                    util_permille: 990,
                    queue_bytes: 0,
                },
                Sample {
                    t_ns: 2000,
                    util_permille: 1000,
                    queue_bytes: 0,
                },
                Sample {
                    t_ns: 3000,
                    util_permille: 100,
                    queue_bytes: 0,
                },
                Sample {
                    t_ns: 4000,
                    util_permille: 960,
                    queue_bytes: 0,
                },
            ],
            samples_dropped: 0,
        };
        assert_eq!(
            link.saturated_intervals(950, 1000),
            vec![(0, 2000), (3000, 4000)]
        );
    }

    #[test]
    fn a_run_without_events_spans_its_busy_intervals() {
        let mut r = EngineRecorder::default();
        r.on_tx_busy(0, 200, 700, 64);
        r.on_tx_busy(1, 100, 900, 64);
        r.on_tx_busy(0, 700, 800, 64);
        let t = r.take_telemetry();
        assert_eq!((t.events, t.first_event_ns, t.last_event_ns), (0, 100, 900));
        let span = t.last_event_ns - t.first_event_ns;
        assert!(t.links.iter().all(|l| l.busy_ns > 0 && l.busy_ns <= span));
        // Once events are popped they define the span, as before.
        r.on_event_pop(50, 1);
        r.on_tx_busy(0, 60, 5_000, 64);
        r.on_event_pop(70, 1);
        let t = r.take_telemetry();
        assert_eq!((t.first_event_ns, t.last_event_ns), (50, 70));
    }

    #[test]
    fn recorder_is_reusable_after_take() {
        let mut r = EngineRecorder::default();
        r.on_event_pop(0, 1);
        let first = r.take_telemetry();
        assert_eq!(first.events, 1);
        r.on_event_pop(5, 2);
        r.on_event_pop(6, 2);
        let second = r.take_telemetry();
        assert_eq!(second.events, 2);
    }
}
