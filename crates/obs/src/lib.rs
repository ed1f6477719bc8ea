//! # contention-obs — telemetry substrate for the contention simulator
//!
//! The engine's hot loop processes roughly a million events per second, so
//! observability has to be opt-in at *compile time*: the [`Recorder`] trait
//! below is threaded through `simnet::Simulator` as a type parameter whose
//! default, [`NoopRecorder`], advertises `ENABLED = false`. Every hook call
//! site in the engine is guarded by `if R::ENABLED { … }`, which the
//! compiler folds away entirely for the no-op instantiation — the default
//! build is byte-for-byte the uninstrumented engine, and the byte-identity
//! goldens verify exactly that.
//!
//! With a recording implementation ([`EngineRecorder`]) attached, the hooks
//! capture:
//!
//! * per-link utilization and queue-depth **time series** (fixed-interval
//!   ring sampling that keeps the most recent window, see [`RingSampler`]);
//! * per-connection **event marks** — drops, fast retransmits, RTO
//!   timeouts, cwnd changes — in a bounded ring;
//! * event-loop **throughput**: pop/push counts and log2 queue-depth
//!   histograms ([`Log2Hist`]).
//!
//! The harvested [`EngineTelemetry`] is a plain-old-data snapshot the
//! scenario layer aggregates into its per-run metrics document. Export
//! helpers live in [`json`] (the workspace's one hand-rolled JSON module:
//! emitters and parser) and [`trace`] (Chrome trace-event / Perfetto
//! timelines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod engine;
pub mod hist;
pub mod json;
pub mod sample;
pub mod trace;

pub use counters::CounterSet;
pub use engine::{EngineRecorder, EngineTelemetry, LinkTelemetry, Mark, MarkKind};
pub use hist::Log2Hist;
pub use sample::{RingSampler, Sample};
pub use trace::TraceBuilder;

/// Compile-time-gated sink for engine events.
///
/// Hook arguments are primitives (nanosecond timestamps, dense ids, byte
/// counts) so the trait has no dependency on the simulator's types and the
/// engine computes nothing it would not compute anyway. Implementations
/// must be cheap: a hook runs up to once per simulated event.
///
/// `ENABLED` gates every call site: the engine wraps each hook invocation
/// in `if R::ENABLED`, so an implementation advertising `false` (the
/// [`NoopRecorder`]) compiles to the uninstrumented engine with no branch,
/// no call, and no argument computation left behind.
pub trait Recorder {
    /// Whether the engine should invoke hooks at all. `false` removes the
    /// instrumentation at compile time.
    const ENABLED: bool = true;

    /// An event was popped from the queue at `now_ns`; `queue_len` is the
    /// number of events still pending after the pop.
    fn on_event_pop(&mut self, now_ns: u64, queue_len: usize) {
        let _ = (now_ns, queue_len);
    }

    /// An event was pushed; `queue_len` counts pending events after the
    /// push.
    fn on_event_push(&mut self, queue_len: usize) {
        let _ = queue_len;
    }

    /// Transmitter `tx` serializes `wire_bytes` from `from_ns` until
    /// `until_ns` — the link-busy interval utilization is integrated from.
    fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, wire_bytes: u64) {
        let _ = (tx, from_ns, until_ns, wire_bytes);
    }

    /// `wire_bytes` were admitted to transmitter `tx`'s output queue.
    fn on_queue_enqueue(&mut self, tx: u32, wire_bytes: u64) {
        let _ = (tx, wire_bytes);
    }

    /// `wire_bytes` left transmitter `tx`'s output queue (departure).
    fn on_queue_dequeue(&mut self, tx: u32, wire_bytes: u64) {
        let _ = (tx, wire_bytes);
    }

    /// A packet was tail-dropped at transmitter `tx`.
    fn on_drop(&mut self, tx: u32, now_ns: u64) {
        let _ = (tx, now_ns);
    }

    /// Connection `conn` entered fast retransmit (triple duplicate ACK).
    fn on_fast_retransmit(&mut self, conn: u32, now_ns: u64) {
        let _ = (conn, now_ns);
    }

    /// Connection `conn` fired a retransmission timeout.
    fn on_timeout(&mut self, conn: u32, now_ns: u64) {
        let _ = (conn, now_ns);
    }

    /// Connection `conn` re-injected `count` segments after loss detection.
    fn on_retransmit(&mut self, conn: u32, now_ns: u64, count: u32) {
        let _ = (conn, now_ns, count);
    }

    /// Connection `conn`'s congestion window is `cwnd_bytes` after an ACK.
    fn on_cwnd(&mut self, conn: u32, now_ns: u64, cwnd_bytes: u64) {
        let _ = (conn, now_ns, cwnd_bytes);
    }

    /// The fluid solver ran with `active_flows` in flight and re-solved
    /// `resolved_flows` of them (all of them after a flow start, only the
    /// flows whose rate could change after a finish wave).
    fn on_fluid_solve(&mut self, active_flows: usize, resolved_flows: usize) {
        let _ = (active_flows, resolved_flows);
    }
}

/// The default recorder: records nothing, costs nothing. `ENABLED = false`
/// lets the engine compile out every hook call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder that counts hook invocations — used here to prove the
    /// default methods are callable, and by engine tests as a minimal
    /// recording implementation.
    #[derive(Default)]
    struct Counter {
        pops: u64,
    }

    impl Recorder for Counter {
        fn on_event_pop(&mut self, _now_ns: u64, _queue_len: usize) {
            self.pops += 1;
        }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        const { assert!(!NoopRecorder::ENABLED) }
    }

    #[test]
    fn custom_recorders_default_to_enabled() {
        const { assert!(Counter::ENABLED) }
        let mut c = Counter::default();
        c.on_event_pop(0, 1);
        c.on_event_push(2); // default body: ignored
        assert_eq!(c.pops, 1);
    }
}
