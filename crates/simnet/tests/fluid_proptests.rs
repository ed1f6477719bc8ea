//! Property-based tests of the fluid max-min fair-sharing engine:
//!
//! * on a randomized single-bottleneck topology (an incast star), the
//!   simulated completion instants must equal the analytic water-filling
//!   schedule of max-min fair shares;
//! * under a randomized flow start/finish churn sequence, simulated time
//!   must advance monotonically and every serializer slot must conserve
//!   capacity (sum of flow rates ≤ link capacity at all times), audited
//!   through the `on_tx_busy` recorder samples the fluid drain emits;
//! * on multi-bottleneck fabrics, under random interleavings of starts,
//!   partial advances and exact or windowed finishes, the level-restart
//!   solver's rates must equal a naive from-scratch water-filling after
//!   every step;
//! * on the star and those fabrics, under random churn with extra
//!   intermediate advance targets, the finish-ordered waves must complete
//!   the same flows at the same instants, after the same number of rate
//!   solves, as a reference that drains every flow on every advance.

use proptest::prelude::*;
use simnet::fluid::FluidSim;
use simnet::generate::{fat_tree, two_level_tree, FatTreeParams, TreeParams};
use simnet::obs::Recorder;
use simnet::prelude::*;

/// `n` hosts around one switch, every link at `bandwidth` bytes/sec.
fn star(n: usize, bandwidth: f64) -> (Topology, Vec<HostId>) {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n);
    let sw = b.add_switch(SwitchConfig::commodity_ethernet());
    for &h in &hosts {
        b.link_host(
            h,
            sw,
            LinkConfig {
                bandwidth_bytes_per_sec: bandwidth,
                latency_ns: 1_000,
            },
        );
    }
    (b.build().expect("star builds"), hosts)
}

/// Recorder that audits capacity conservation: every utilization sample
/// must fit under its transmitter's line rate (with rounding slack for
/// the integer-nanosecond sample edges).
struct CapacityAudit {
    /// Bytes/sec per transmitter.
    cap: Vec<f64>,
    violations: Vec<String>,
}

impl Recorder for CapacityAudit {
    fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, wire_bytes: u64) {
        let dt_ns = until_ns.saturating_sub(from_ns) as f64;
        let limit = self.cap[tx as usize] * (dt_ns + 2.0) / 1e9 + 1.0;
        if wire_bytes as f64 > limit {
            self.violations.push(format!(
                "tx {tx}: {wire_bytes} bytes in [{from_ns}, {until_ns}]ns exceeds {limit:.1}"
            ));
        }
    }
}

/// A 3:1 oversubscribed two-level tree (12 hosts) or a 4-ary fat-tree (16
/// hosts): several bottleneck levels, multi-hop routes, ECMP collisions.
fn multi_bottleneck_fabric(fat: bool) -> (Topology, Vec<HostId>) {
    let (link, switch) = (
        LinkConfig::gigabit_ethernet(),
        SwitchConfig::lossless_fabric(),
    );
    let g = if fat {
        fat_tree(&FatTreeParams {
            k: 4,
            hosts_per_edge: 2,
            link,
            switch,
        })
    } else {
        two_level_tree(&TreeParams {
            leaves: 3,
            hosts_per_leaf: 4,
            edge_link: link,
            uplinks_per_leaf: 1,
            oversubscription: 3.0,
            uplink_latency_ns: 1_000,
            edge_switch: switch,
            core_switch: switch,
        })
    };
    let topo = g.builder.build().expect("fabric builds");
    (topo, g.hosts)
}

/// The serializer slots a `src → dst` flow occupies, deduplicated.
fn route_slots(topo: &Topology, src: HostId, dst: HostId) -> Vec<usize> {
    let mut slots: Vec<usize> = topo
        .route(src, dst)
        .map(|tx| topo.tx_params[tx.index()].serializer as usize)
        .collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Reference max-min allocation: naive water-filling from scratch, every
/// level rescanning every flow. Returns each flow's rate, in order.
fn water_filling(capacity: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
    let mut residual = capacity.to_vec();
    let mut rate = vec![f64::NAN; flows.len()];
    while rate.iter().any(|r| r.is_nan()) {
        let mut unfrozen = vec![0usize; capacity.len()];
        for (slots, r) in flows.iter().zip(&rate) {
            if r.is_nan() {
                slots.iter().for_each(|&s| unfrozen[s] += 1);
            }
        }
        let (bottleneck, share) = (0..capacity.len())
            .filter(|&s| unfrozen[s] > 0)
            .map(|s| (s, residual[s] / unfrozen[s] as f64))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("an unfrozen flow crosses some slot");
        for (slots, r) in flows.iter().zip(&mut rate) {
            if r.is_nan() && slots.contains(&bottleneck) {
                *r = share;
                slots.iter().for_each(|&s| residual[s] -= share);
            }
        }
    }
    rate
}

/// Reference stepper: every advance drains every flow's bytes at its
/// rate and completes those within a byte of done, in scan order, with
/// `water_filling` re-run from scratch at the first query after any start
/// or finish. The engine's finish-ordered waves must agree with it.
struct DrainStepper {
    capacity: Vec<f64>,
    /// `(tag, slots, bytes left, rate)` of each flow in flight.
    flows: Vec<(u64, Vec<usize>, f64, f64)>,
    now_ns: f64,
    window: f64,
    anchor_ns: f64,
    dirty: bool,
    recomputes: u64,
}

impl DrainStepper {
    fn start(&mut self, tag: u64, slots: Vec<usize>, bytes: u64) {
        self.flows.push((tag, slots, bytes as f64, 0.0));
        self.dirty = true;
        self.anchor_ns = self.now_ns;
    }

    fn next_finish_ns(&mut self) -> Option<f64> {
        if std::mem::take(&mut self.dirty) && !self.flows.is_empty() {
            self.recomputes += 1;
            let slots: Vec<Vec<usize>> = self.flows.iter().map(|f| f.1.clone()).collect();
            let rates = water_filling(&self.capacity, &slots);
            for (f, rate) in self.flows.iter_mut().zip(rates) {
                f.3 = rate;
            }
        }
        let next = self.flows.iter().map(|f| (f.2 / f.3) * 1e9);
        next.min_by(f64::total_cmp).map(|dt| self.now_ns + dt)
    }

    fn window_end(&self, t_ns: f64) -> f64 {
        self.anchor_ns + (t_ns - self.anchor_ns) * (1.0 + self.window)
    }

    /// `(tag, stamp)` of every completion through `target_ns`.
    fn advance_to(&mut self, target_ns: f64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        loop {
            let next = self.next_finish_ns().filter(|&t| t <= target_ns);
            let stop_ns = next.map_or(target_ns, |t| self.window_end(t).min(target_ns));
            let (from_ns, dt) = (self.now_ns, (stop_ns - self.now_ns) / 1e9);
            self.now_ns = stop_ns;
            let mut i = 0;
            while i < self.flows.len() {
                let f = &mut self.flows[i];
                let before = f.2;
                f.2 -= f.3 * dt;
                if next.is_none() || f.2 > 1.0 {
                    i += 1;
                    continue;
                }
                let finish_ns = from_ns + (before / f.3) * 1e9;
                done.push((f.0, finish_ns.min(stop_ns).round() as u64));
                self.flows.swap_remove(i);
                self.dirty = true;
            }
            if next.is_none() {
                return done;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test of the level-restart solver: whatever mix of
    /// starts (restart from level 0), partial advances (no solve) and
    /// finish waves (restart from the lowest finished level; a wide window
    /// finishes flows of several levels at once) came before, the rates in
    /// force must be the max-min allocation of the flows now in flight.
    #[test]
    fn restarted_rates_equal_a_from_scratch_water_filling(
        fat in any::<bool>(),
        window in prop::sample::select(vec![0.0, 1e-2, 0.5]),
        steps in prop::collection::vec(
            (0u8..8, 0usize..16, 0usize..16, 1u64..2_048, 1u32..100),
            12..60,
        ),
    ) {
        let (topo, hosts) = multi_bottleneck_fabric(fat);
        let capacity: Vec<f64> = topo.serializers.iter().map(|slot| slot.capacity).collect();
        let mut sim = FluidSim::new(&topo);
        sim.set_finish_window(window);
        let mut in_flight: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut done = Vec::new();
        for (step, &(kind, src, dst_off, kib, percent)) in steps.iter().enumerate() {
            match sim.next_finish_ns() {
                Some(t) if step >= 12 && kind != 0 => {
                    let now = sim.now_ns();
                    let to = match kind {
                        // Part of the way to the next finish: drains,
                        // never solves.
                        1 => now + (t - now) * f64::from(percent) / 100.0,
                        // Exactly to the next finish ...
                        2..=4 => t,
                        // ... or through its whole window.
                        _ => t * (1.0 + window),
                    };
                    sim.advance_to(to, &mut done);
                }
                // An opening burst, then one step in eight (and any step
                // with nothing in flight) starts a flow.
                _ => {
                    let n = hosts.len();
                    let (src, dst) = (src % n, (src + 1 + dst_off % (n - 1)) % n);
                    sim.start_flow(hosts[src], hosts[dst], kib * 1024, step as u64);
                    in_flight.push((step as u64, route_slots(&topo, hosts[src], hosts[dst])));
                }
            }
            for c in done.drain(..) {
                in_flight.retain(|(tag, _)| *tag != c.tag);
            }

            let rates: Vec<(u64, f64)> = sim.rates().collect();
            prop_assert_eq!(rates.len(), in_flight.len());
            let slots: Vec<Vec<usize>> = rates
                .iter()
                .map(|(tag, _)| in_flight.iter().find(|f| f.0 == *tag).unwrap().1.clone())
                .collect();
            let reference = water_filling(&capacity, &slots);
            let mut load = vec![0.0; capacity.len()];
            for ((&(tag, rate), want), slots) in rates.iter().zip(&reference).zip(&slots) {
                prop_assert!(
                    (rate - want).abs() <= 1e-9 * want,
                    "step {}: flow {} runs at {} B/s, from scratch {} B/s",
                    step, tag, rate, want
                );
                slots.iter().for_each(|&s| load[s] += rate);
            }
            for (s, (&l, &c)) in load.iter().zip(&capacity).enumerate() {
                prop_assert!(l <= c * (1.0 + 1e-9), "slot {}: {} B/s over capacity {}", s, l, c);
            }
            let shares = sim.level_shares();
            for pair in shares.windows(2) {
                prop_assert!(
                    pair[1] >= pair[0] * (1.0 - 1e-9),
                    "level shares decrease: {:?}",
                    shares
                );
            }
        }
    }

    /// Incast onto one host: the receiver's downlink is the single
    /// bottleneck, so max-min fair sharing degenerates to the analytic
    /// water-filling schedule — k active flows each get C/k, and each
    /// finish lifts the survivors' share. The simulated completion of
    /// every flow must match that closed form.
    #[test]
    fn single_bottleneck_shares_equal_the_analytic_fair_share(
        sizes_kib in proptest::collection::vec(1u64..16_384, 1..9),
        cap_mb in 1u64..100,
    ) {
        let capacity = cap_mb as f64 * 1e6;
        let senders = sizes_kib.len();
        let (topo, hosts) = star(senders + 1, capacity);
        let mut sim = FluidSim::new(&topo);
        for (i, &kib) in sizes_kib.iter().enumerate() {
            sim.start_flow(hosts[i + 1], hosts[0], kib * 1024, i as u64);
        }
        let completions = sim.run_to_completion();
        prop_assert_eq!(completions.len(), senders);

        // Analytic water-filling over the sorted sizes: the j-th finisher
        // (0-based, b_0 ≤ b_1 ≤ …) completes at
        //   t_j = t_{j-1} + (b_j − b_{j-1}) · (k − j) / C.
        let mut sorted: Vec<(usize, u64)> = sizes_kib
            .iter()
            .map(|&k| k * 1024)
            .enumerate()
            .collect();
        sorted.sort_by_key(|&(i, b)| (b, i));
        let mut analytic_ns = vec![0.0f64; senders];
        let mut t = 0.0f64;
        let mut prev_bytes = 0.0f64;
        for (j, &(flow, bytes)) in sorted.iter().enumerate() {
            let active = (senders - j) as f64;
            t += (bytes as f64 - prev_bytes) * active / capacity * 1e9;
            prev_bytes = bytes as f64;
            analytic_ns[flow] = t;
        }
        for c in &completions {
            let expect = analytic_ns[c.tag as usize];
            let got = c.at.0 as f64;
            // Slack: one nanosecond of clock rounding plus the 1-byte
            // finish-coalescing tolerance at the fair share.
            let slack = 2.0 + (senders as f64 / capacity) * 1e9 + expect * 1e-9;
            prop_assert!(
                (got - expect).abs() <= slack,
                "flow {}: simulated {got}ns vs analytic {expect}ns (slack {slack}ns)",
                c.tag
            );
        }
    }

    /// A randomized churn sequence (staggered starts, interleaved
    /// finishes, random src→dst pairs): the clock never moves backwards,
    /// completions are reported in non-decreasing stamp order, every flow
    /// finishes, and no serializer slot ever carries more than its
    /// capacity (conservation of the max-min shares).
    #[test]
    fn churn_keeps_time_monotone_and_conserves_capacity(
        flows in proptest::collection::vec(
            (0usize..6, 1usize..6, 1u64..4_096, 0u64..2_000_000),
            1..12,
        ),
        cap_mb in 1u64..100,
    ) {
        let capacity = cap_mb as f64 * 1e6;
        let n = 7;
        let (topo, hosts) = star(n, capacity);
        let audit = CapacityAudit {
            cap: topo.tx_params.iter().map(|tx| 1e9 / tx.ns_per_byte).collect(),
            violations: Vec::new(),
        };
        let mut sim = FluidSim::with_recorder(&topo, audit);

        // Cumulative gaps give a sorted start schedule by construction.
        let mut at_ns = 0.0f64;
        let mut started = 0usize;
        let mut finished = 0usize;
        let mut last_completion = 0.0f64;
        let mut buf = Vec::new();
        for (tag, &(src, dst_off, kib, gap_ns)) in flows.iter().enumerate() {
            at_ns += gap_ns as f64;
            let before = sim.now_ns();
            sim.advance_to(at_ns, &mut buf);
            prop_assert!(sim.now_ns() >= before, "clock moved backwards");
            prop_assert!(sim.now_ns() <= at_ns + 1e-6);
            for c in buf.drain(..) {
                let t = c.at.0 as f64;
                prop_assert!(
                    t >= last_completion,
                    "completion at {t}ns after one at {last_completion}ns"
                );
                last_completion = t;
                finished += 1;
            }
            let dst = (src + dst_off) % n;
            sim.start_flow(hosts[src], hosts[dst], kib * 1024, tag as u64);
            started += 1;
        }
        for c in sim.run_to_completion() {
            let t = c.at.0 as f64;
            prop_assert!(t >= last_completion, "completion at {t}ns after one at {last_completion}ns");
            last_completion = t;
            finished += 1;
        }
        prop_assert_eq!(finished, started, "every flow completes exactly once");
        prop_assert_eq!(sim.active_flows(), 0);
        let audit = sim.into_recorder();
        prop_assert!(
            audit.violations.is_empty(),
            "capacity conservation violated: {:?}",
            audit.violations
        );
    }
}

proptest! {
    // A flow within a byte of done but short of its finish at a wave's
    // stop turns up in about one case in a hundred.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential test of the finish-ordered waves: under random churn —
    /// starts, advances partway to the next finish, exactly to it, through
    /// its window, or across many waves at once — every advance completes
    /// the same flows as the drain-every-flow reference, stamped within
    /// 1 ns and in time order, after the same number of rate solves.
    #[test]
    fn finish_ordered_waves_match_a_drain_every_flow_reference(
        fabric in 0u8..3,
        window in prop::sample::select(vec![0.0, 1e-2, 0.5]),
        steps in prop::collection::vec(
            (0u8..8, 0usize..16, 0usize..16, 1u64..2_048, 1u32..400),
            12..60,
        ),
    ) {
        let (topo, hosts) = match fabric {
            0 => star(8, 125e6),
            f => multi_bottleneck_fabric(f == 2),
        };
        let capacity: Vec<f64> = topo.serializers.iter().map(|slot| slot.capacity).collect();
        let mut sim = FluidSim::new(&topo);
        sim.set_finish_window(window);
        let mut reference = DrainStepper {
            capacity,
            flows: Vec::new(),
            now_ns: 0.0,
            window,
            anchor_ns: 0.0,
            dirty: false,
            recomputes: 0,
        };
        let mut done = Vec::new();
        for (step, &(kind, src, dst_off, kib, percent)) in steps.iter().enumerate() {
            let next = sim.next_finish_ns();
            let want_next = reference.next_finish_ns();
            prop_assert_eq!(next.is_some(), want_next.is_some());
            match (next, want_next) {
                (Some(t), Some(want_t)) if step >= 12 && kind != 0 => {
                    prop_assert!((t - want_t).abs() <= 1.0, "step {}: next finish {} vs {}", step, t, want_t);
                    let now = sim.now_ns();
                    // A target on a finish instant is each side's own
                    // projection of it, since they may differ in the last
                    // bit; any other target is off every finish (the half
                    // keeps 100 % and 1× off the next one).
                    let part = |scale: f64| now + (t - now) * (f64::from(percent) + 0.5) * scale;
                    let (to, want_to) = match kind {
                        // A fraction of the way to the next finish, or up
                        // to four times as far.
                        1 | 2 => (part(0.01), part(0.01)),
                        3 | 4 => (t, want_t),
                        // An empty window may end an ulp short of `t`.
                        5 | 6 => (
                            sim.window_end(t).max(t),
                            reference.window_end(want_t).max(want_t),
                        ),
                        // Across many waves in one advance.
                        _ => (part(1.0), part(1.0)),
                    };
                    sim.advance_to(to, &mut done);
                    let want = reference.advance_to(want_to);
                    prop_assert!(
                        done.windows(2).all(|w| w[0].at <= w[1].at),
                        "step {}: completions out of time order: {:?}", step, done
                    );
                    let mut got: Vec<(u64, u64)> = done.drain(..).map(|c| (c.tag, c.at.0)).collect();
                    let mut want = want;
                    got.sort_unstable();
                    want.sort_unstable();
                    let same = got.len() == want.len()
                        && got.iter().zip(&want).all(|(g, w)| g.0 == w.0 && g.1.abs_diff(w.1) <= 1);
                    prop_assert!(same, "step {}: completed {:?}, reference {:?}", step, got, want);
                }
                _ => {
                    let n = hosts.len();
                    let (src, dst) = (src % n, (src + 1 + dst_off % (n - 1)) % n);
                    sim.start_flow(hosts[src], hosts[dst], kib * 1024, step as u64);
                    reference.start(step as u64, route_slots(&topo, hosts[src], hosts[dst]), kib * 1024);
                }
            }
            prop_assert_eq!(sim.recomputes(), reference.recomputes, "step {}: rate solves", step);
            prop_assert_eq!(sim.active_flows(), reference.flows.len());
        }
    }
}
