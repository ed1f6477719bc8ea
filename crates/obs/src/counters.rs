//! Ordered scalar counters rendered as one JSON object — the export
//! format for a service's own operational metrics (request counts, queue
//! depths, hit rates).
//!
//! The simulator's per-run telemetry has a rich schema
//! ([`EngineTelemetry`](crate::EngineTelemetry), the scenario layer's
//! metrics document); a *daemon's* counters are deliberately flat:
//! insertion-ordered `name → scalar` pairs, so the rendered document is
//! stable across runs (no hash-map ordering) and trivially diffable.
//! Emission reuses [`json`]'s escaping and number rules —
//! non-finite gauges render as `null`, never as bare `NaN`.

use crate::json;

/// One scalar a [`CounterSet`] holds.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    /// A monotonic or point-in-time integer (requests served, queue
    /// depth).
    Count(u64),
    /// A floating-point gauge (hit rate, uptime seconds).
    Gauge(f64),
    /// A boolean state flag (draining).
    Flag(bool),
}

/// An insertion-ordered set of named scalars with JSON emission.
///
/// Setting a name that already exists replaces its value **in place**
/// (the original position is kept), so a set that is rebuilt every
/// scrape and one that is updated incrementally render identically.
///
/// ```
/// use contention_obs::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.count("requests_total", 17);
/// c.gauge("cache_hit_rate", 0.75);
/// c.flag("draining", false);
/// assert_eq!(
///     c.render_json(),
///     "{\"requests_total\": 17, \"cache_hit_rate\": 0.75, \"draining\": false}"
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSet {
    entries: Vec<(String, Scalar)>,
}

impl CounterSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn set(&mut self, name: &str, value: Scalar) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Sets an integer counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, Scalar::Count(value));
    }

    /// Sets a floating-point gauge (non-finite values render as `null`).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.set(name, Scalar::Gauge(value));
    }

    /// Sets a boolean flag.
    pub fn flag(&mut self, name: &str, value: bool) {
        self.set(name, Scalar::Flag(value));
    }

    /// Renders the set as a single-line JSON object in insertion order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json::string(name));
            out.push_str(": ");
            match value {
                Scalar::Count(v) => out.push_str(&v.to_string()),
                Scalar::Gauge(v) => out.push_str(&json::number(*v)),
                Scalar::Flag(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_insertion_order() {
        let mut c = CounterSet::new();
        c.count("b", 2);
        c.count("a", 1);
        c.flag("draining", true);
        assert_eq!(c.render_json(), "{\"b\": 2, \"a\": 1, \"draining\": true}");
    }

    #[test]
    fn replacement_keeps_position() {
        let mut c = CounterSet::new();
        c.count("x", 1);
        c.count("y", 2);
        c.count("x", 10);
        assert_eq!(c.render_json(), "{\"x\": 10, \"y\": 2}");
    }

    #[test]
    fn escapes_names_and_nulls_non_finite_gauges() {
        let mut c = CounterSet::new();
        c.gauge("rate\"q", f64::NAN);
        c.gauge("inf", f64::INFINITY);
        c.gauge("ok", 0.5);
        assert_eq!(
            c.render_json(),
            "{\"rate\\\"q\": null, \"inf\": null, \"ok\": 0.5}"
        );
    }

    #[test]
    fn empty_set_is_an_empty_object() {
        assert_eq!(CounterSet::new().render_json(), "{}");
    }
}
