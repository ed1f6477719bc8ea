//! Run supervision: preemption limits checked inside the event loops.
//!
//! A [`RunGuard`] carries the limits a supervised run must respect — a
//! wall-clock deadline, a simulated-time horizon, an event (or, in the
//! fluid tier, rate-recompute) budget, and a shared cancellation flag.
//! The engines ([`Simulator`](crate::engine::Simulator) and
//! [`FluidSim`](crate::fluid::FluidSim)) poll the installed guard at
//! cheap preemption points — every [`GUARD_CHECK_INTERVAL`] events in the
//! packet engine, once per advance iteration in the fluid engine — and
//! stop with a [`GuardStop`] reason instead of running on. An unlimited
//! guard (the default) costs one branch per event and changes no
//! behavior, which is what keeps every unsupervised run byte-identical.
//! Both engines hold the guard as a crate-private `InstalledGuard`, the
//! one owner of the install origin and the latched stop; an engine only
//! supplies its progress count and decides when to check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events between guard checks in the packet engine (a power of two so
/// the check is a mask test on the event counter). Cancellation latency
/// is bounded by this many events.
pub const GUARD_CHECK_INTERVAL: u64 = 4096;

/// Why a supervised run stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardStop {
    /// The wall-clock deadline passed.
    Deadline,
    /// Simulated time crossed the configured horizon.
    Horizon {
        /// The horizon that was crossed, in simulated nanoseconds past
        /// the instant the guard was installed.
        horizon_ns: u64,
    },
    /// The event budget (packet tier) or rate-recompute budget (fluid
    /// tier) ran out.
    Budget {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The shared cancellation flag was raised.
    Cancelled,
}

impl std::fmt::Display for GuardStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardStop::Deadline => write!(f, "wall-clock deadline exceeded"),
            GuardStop::Horizon { horizon_ns } => {
                write!(f, "simulated-time horizon exceeded ({horizon_ns} ns)")
            }
            GuardStop::Budget { budget } => write!(f, "event budget exhausted ({budget} events)"),
            GuardStop::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Supervision limits for one run. All limits default to *unlimited*;
/// an unlimited guard never trips and adds no observable behavior.
///
/// Budgets and the horizon are measured from the instant the guard is
/// installed (`set_guard`), so one installation spans a whole cell —
/// warmup and every repetition included. The deadline is an absolute
/// [`Instant`].
#[derive(Debug, Clone, Default)]
pub struct RunGuard {
    pub(crate) deadline: Option<Instant>,
    pub(crate) horizon_ns: Option<u64>,
    pub(crate) event_budget: Option<u64>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
}

impl RunGuard {
    /// A guard with no limits: never trips, costs one branch per event.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Stops the run once wall-clock time reaches `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the run once simulated time advances `horizon_ns` past the
    /// installation instant.
    pub fn with_horizon_ns(mut self, horizon_ns: u64) -> Self {
        self.horizon_ns = Some(horizon_ns);
        self
    }

    /// Stops the run after `budget` processed events (packet tier) or
    /// rate recomputations (fluid tier).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// Stops the run once `flag` reads true (a shared cancellation
    /// token; the engine only ever reads it).
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no limit is set: the engines skip all checking.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.horizon_ns.is_none()
            && self.event_budget.is_none()
            && self.cancel.is_none()
    }

    /// Evaluates every limit against the caller's progress counters.
    /// `events_used` is events (or recomputes) consumed since the guard
    /// was installed; `sim_elapsed_ns` is simulated time elapsed since
    /// installation. Check order is fixed — cancellation, deadline,
    /// budget, horizon — so a run that trips several limits at once
    /// reports deterministically.
    pub(crate) fn check(&self, events_used: u64, sim_elapsed_ns: u64) -> Option<GuardStop> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(GuardStop::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(GuardStop::Deadline);
            }
        }
        if let Some(budget) = self.event_budget {
            if events_used >= budget {
                return Some(GuardStop::Budget { budget });
            }
        }
        if let Some(horizon_ns) = self.horizon_ns {
            if sim_elapsed_ns >= horizon_ns {
                return Some(GuardStop::Horizon { horizon_ns });
            }
        }
        None
    }
}

/// A [`RunGuard`] as an engine holds it: the progress count and
/// simulated instant its budget and horizon count from, and the first
/// stop it trips, latched until the next [`InstalledGuard::install`].
#[derive(Debug, Default)]
pub(crate) struct InstalledGuard {
    guard: RunGuard,
    /// False for an unlimited guard: the engines' one fast-path branch.
    active: bool,
    origin_progress: u64,
    origin_ns: f64,
    stop: Option<GuardStop>,
}

impl InstalledGuard {
    /// Replaces the guard and clears the latch; the budget and horizon
    /// count from `progress` and `now_ns`.
    pub(crate) fn install(&mut self, guard: RunGuard, progress: u64, now_ns: f64) {
        *self = Self {
            active: !guard.is_unlimited(),
            guard,
            origin_progress: progress,
            origin_ns: now_ns,
            stop: None,
        };
    }

    /// True unless the installed guard is unlimited.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// The latched stop.
    pub(crate) fn stop(&self) -> Option<GuardStop> {
        self.stop
    }

    /// Evaluates the limits at `progress` and `now_ns` unless a stop is
    /// latched already; returns the latched stop.
    pub(crate) fn check(&mut self, progress: u64, now_ns: f64) -> Option<GuardStop> {
        if self.active && self.stop.is_none() {
            let elapsed_ns = (now_ns - self.origin_ns).max(0.0) as u64;
            self.stop = self
                .guard
                .check(progress - self.origin_progress, elapsed_ns);
        }
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = RunGuard::unlimited();
        assert!(g.is_unlimited());
        assert_eq!(g.check(u64::MAX, u64::MAX), None);
        let mut installed = InstalledGuard::default();
        installed.install(g, 7, 3.0);
        assert!(!installed.is_active());
        assert_eq!(installed.check(u64::MAX, f64::MAX), None);
        assert_eq!(installed.stop(), None);
    }

    #[test]
    fn budget_and_horizon_count_from_installation() {
        let mut g = InstalledGuard::default();
        g.install(RunGuard::unlimited().with_event_budget(10), 100, 0.0);
        assert_eq!(g.check(109, 0.0), None);
        assert_eq!(g.check(110, 0.0), Some(GuardStop::Budget { budget: 10 }));

        g.install(RunGuard::unlimited().with_horizon_ns(500), 0, 1_000.0);
        assert_eq!(g.check(0, 1_499.0), None);
        assert_eq!(
            g.check(0, 1_500.0),
            Some(GuardStop::Horizon { horizon_ns: 500 })
        );
        // An instant before the origin counts as no time elapsed.
        g.install(RunGuard::unlimited().with_horizon_ns(1), 0, 1_000.0);
        assert_eq!(g.check(0, 0.0), None);
    }

    #[test]
    fn a_stop_stays_latched_until_reinstalled() {
        let flag = Arc::new(AtomicBool::new(true));
        let mut g = InstalledGuard::default();
        g.install(
            RunGuard::unlimited()
                .with_event_budget(5)
                .with_cancel_flag(Arc::clone(&flag)),
            0,
            0.0,
        );
        assert_eq!(g.check(0, 0.0), Some(GuardStop::Cancelled));
        // Lowering the flag does not unlatch; nor does a later check that
        // would trip another limit replace the reason.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(g.check(0, 0.0), Some(GuardStop::Cancelled));
        assert_eq!(g.check(99, 0.0), Some(GuardStop::Cancelled));
        assert_eq!(g.stop(), Some(GuardStop::Cancelled));
        g.install(RunGuard::unlimited().with_cancel_flag(flag), 99, 0.0);
        assert_eq!(g.stop(), None);
        assert_eq!(g.check(1_000, 0.0), None);
    }

    #[test]
    fn each_limit_trips_with_its_own_reason() {
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(
            RunGuard::unlimited().with_deadline(past).check(0, 0),
            Some(GuardStop::Deadline)
        );
        assert_eq!(
            RunGuard::unlimited().with_event_budget(10).check(10, 0),
            Some(GuardStop::Budget { budget: 10 })
        );
        assert_eq!(
            RunGuard::unlimited().with_event_budget(10).check(9, 0),
            None
        );
        assert_eq!(
            RunGuard::unlimited().with_horizon_ns(500).check(0, 500),
            Some(GuardStop::Horizon { horizon_ns: 500 })
        );
        let flag = Arc::new(AtomicBool::new(false));
        let g = RunGuard::unlimited().with_cancel_flag(Arc::clone(&flag));
        assert_eq!(g.check(0, 0), None);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(g.check(0, 0), Some(GuardStop::Cancelled));
    }

    #[test]
    fn cancellation_outranks_other_tripped_limits() {
        let flag = Arc::new(AtomicBool::new(true));
        let g = RunGuard::unlimited()
            .with_event_budget(1)
            .with_cancel_flag(flag);
        assert_eq!(g.check(100, 0), Some(GuardStop::Cancelled));
    }
}
