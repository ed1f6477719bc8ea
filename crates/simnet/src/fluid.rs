//! Flow-level (fluid) network model: max-min fair bandwidth sharing.
//!
//! The packet engine reproduces *mechanistic* contention — drops, timeouts,
//! stragglers. This module is its idealized counterpart, in the style of
//! SimGrid's and dslab's flow models: every transfer is a fluid flow across
//! capacitated serializers, rates follow max-min fairness (progressive
//! filling), and the only events are flow starts and finishes. A million
//! simultaneous flows advance in a handful of rate recomputations instead
//! of billions of per-packet events, which is what makes 1k–4k-host
//! fabrics simulable at all.
//!
//! The entry point is [`FluidSim`], the churn-capable event engine behind
//! the scenario layer's `backend = "fluid"` tier: flows start and finish at
//! arbitrary instants, rates are recomputed on every churn event
//! (bottleneck-link saturation order), and an attached [`Recorder`]
//! receives link-utilization samples integrated from the fluid rates.
//!
//! Uses:
//!
//! * **cross-validation** — a fluid completion time is a lower bound on the
//!   packet engine's result for the same traffic (no loss, no protocol
//!   overhead, perfect fairness); tests time both engines through their
//!   MPI worlds and assert the packet engine never beats the fluid one by
//!   more than protocol-overhead margins;
//! * **scale** — `simmpi::FluidWorld` drives this engine for the scenario
//!   layer's `backend = "fluid"` cells, including the thousand-host
//!   builtins the packet engine cannot run;
//! * **contention accounting** — the gap between fluid and the Proposition
//!   1 bound isolates *topological* contention (shared trunks, half-duplex
//!   buses) from *protocol* contention (TCP loss recovery).
//!
//! # The sharing algorithm
//!
//! Rates are max-min fair: no flow can gain bandwidth without taking it
//! from a flow that already has less. [`FluidSim`] computes the allocation
//! by progressive filling in bottleneck-saturation order — repeatedly find
//! the serializer slot with the smallest fair share `residual / unfrozen`,
//! freeze every unfrozen flow crossing it at that share (one *level*),
//! subtract the frozen bandwidth, and continue until every flow is frozen.
//! Level shares come out non-decreasing. The solver keeps each flow's level,
//! each level's share and each slot's residual between solves, so a solve
//! can *restart* from a level instead of from zero.
//!
//! **Restart invariant.** A flow frozen at level `L` crosses no slot that
//! saturated below `L` (it would have frozen there). Removing it changes no
//! residual at any level below `L` and only lowers the unfrozen count of
//! its own slots, whose shares can then only rise: each level below `L`
//! keeps its arg-min slot, its share and the rate of every flow frozen
//! there. So after a finish wave only the *tail* — the survivors frozen at
//! or above the lowest finished level — is re-solved, over residuals that
//! got the finished and the tail rates added back; a flow start restarts
//! from level 0, the from-scratch solve. Per-slot flow lists (a CSR index
//! over the tail) make a full solve `O(total hops + levels × active slots)`
//! and any other `O(flows + slots + tail hops)`. Same-size flows started
//! together finish from the top levels down, so an all-to-all's waves leave
//! a tail that is empty or tiny. Per-level live counts give the tail's size
//! before any flow is read, so a solve whose tail is empty costs
//! `O(levels)`: it still counts in [`FluidSim::recomputes`], in the
//! guard's budget and in the recorder's `on_fluid_solve`, but changes
//! nothing.
//!
//! # Finish order
//!
//! A flow's rate changes only at a solve, so the solve that assigns it
//! also fixes the instant the flow finishes at that rate, and the clock
//! never touches the flow again until the next solve that re-solves it,
//! which takes its bytes back as `(finish − now) · rate`. After any solve
//! that re-solved flows, the flow vectors are reordered in place by
//! descending finish instant (one sort of packed finish/index keys in a
//! vector the solve frees before it returns, which first gathers the flows,
//! so no per-flow vector is copied); removing a suffix, or a solve that re-solves nobody, keeps
//! that order. The next finish is then the last flow's, a finish wave
//! binary-searches and pops the suffix that finishes by its stop — plus
//! any flow within a byte of done, which it finds among the few finishing
//! no later than one byte past the stop at the slowest live rate — and
//! completions reach the caller in time order. An advance that stops
//! short of every finish touches no flow and a finish wave only its own
//! flows, past an `O(levels + log flows)` search; only a solve that
//! re-solves a flow scans and reorders them all.
//!
//! Per flow in flight the engine holds 28 bytes besides its route's slots
//! in the arena: the 16-byte `FlowState` (arena span and tag), the 8-byte
//! `Progress` (finish instant), the only per-flow bytes a wave's search
//! reads, and the 4-byte level. The flow's rate is its level's share,
//! stored once per level: waves, [`FluidSim::rates`] and a restart's
//! add-backs all read it there, so a restart reads the shares of the
//! levels it re-solves before it cuts them. A slot's load, Σrate over the
//! flows crossing it, is stored nowhere either: it is the capacity less
//! the slot's residual, which solves and waves keep, and the utilization
//! samples read it there without walking a flow. The route's
//! latency is not stored per flow either: the wave that completes a flow
//! sums it from the topology's slot table ([`Topology::serializers`], which
//! also holds each slot's capacity), in the loop that gives the flow's
//! bandwidth back, into its [`FluidCompletion`].

use crate::guard::{GuardStop, InstalledGuard, RunGuard};
use crate::ids::HostId;
use crate::time::SimTime;
use crate::topology::Topology;
use contention_obs::{NoopRecorder, Recorder};
use std::cmp::Reverse;

/// Finished-flow tolerance: anything within a byte of done is done.
const DONE_TOLERANCE_BYTES: f64 = 1.0;

/// Relative rounding a slot's residual may carry: a solve may leave it
/// this far below 0 (then clamps it), and a load this far above 0 is idle.
const CONSERVATION_SLACK: f64 = 1e-9;

/// A completed fluid transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidCompletion {
    /// Caller-supplied tag.
    pub tag: u64,
    /// Completion instant.
    pub at: SimTime,
    /// One-way wire latency of the flow's route in nanoseconds: summed
    /// over the flow's slots by the finish wave that gives their bandwidth
    /// back, so neither the engine nor a caller holds a per-flow copy of it.
    pub latency_ns: u64,
}

/// One fluid flow in flight: what only solves and finishes read. Its
/// [`Progress`] and its level sit at the same index of parallel vectors,
/// and all three are in descending finish order whenever no solve is
/// pending. Its rate is its level's share, stored nowhere else.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Span into the slot arena: the serializer slot of each hop, in route
    /// order. A shortest path crosses no slot twice (the only shared slot
    /// is one host's two bus directions), so no slot is double-counted.
    span_start: u32,
    span_len: u32,
    tag: u64,
}

/// What a finish wave's search reads of a flow in flight: it
/// binary-searches these 8 bytes per flow, and of the flows it pops reads
/// their level's share as the rate.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// Projected finish instant in nanoseconds at the flow's level's share,
    /// set by the solve that froze it there. From the flow's start to its
    /// first solve, and inside a solve that re-solves it, the bytes it has
    /// left instead.
    finish_ns: f64,
}

impl FlowState {
    /// The flow as one `u128`, to sit in a sort key's slot.
    fn to_bits(self) -> u128 {
        u128::from(self.tag) << 64 | u128::from(self.span_start) << 32 | u128::from(self.span_len)
    }

    fn from_bits(bits: u128) -> Self {
        Self {
            span_start: (bits >> 32) as u32,
            span_len: bits as u32,
            tag: (bits >> 64) as u64,
        }
    }
}

const _: () = assert!(
    std::mem::size_of::<FlowState>() == 16 && std::mem::size_of::<Progress>() == 8,
    "a large all-to-all holds ~n² flows; each pass over them reads one of these"
);

/// No level: a flow no solve has frozen yet; no restart pending.
const NO_LEVEL: u32 = u32::MAX;

/// Churn-capable max-min fair flow-level simulator over a built
/// [`Topology`].
///
/// Flows may start and finish at arbitrary simulated instants: the caller
/// interleaves [`FluidSim::start_flow`] with
/// [`FluidSim::advance_to`] / [`FluidSim::next_finish_ns`], and rates are
/// lazily recomputed whenever the flow set changed. Simulated time is a
/// monotone `f64` nanosecond clock; completions are reported with rounded
/// [`SimTime`] stamps.
///
/// The `R` parameter is the telemetry recorder: when `R::ENABLED`, every
/// advance interval with flows in flight emits one `on_tx_busy` sample per
/// busy serializer slot with the bytes that flowed through it at the
/// current rates, busy for those bytes' serializing time. A slot's load is
/// its capacity less the residual the solver keeps, so recording walks the
/// slots once per interval and never the flows. The default
/// [`NoopRecorder`] compiles all of it away.
pub struct FluidSim<'a, R: Recorder = NoopRecorder> {
    topo: &'a Topology,
    flows: Vec<FlowState>,
    /// Finish instant of each flow (parallel to `flows`).
    progress: Vec<Progress>,
    /// Bottleneck level each flow froze at in the last solve (parallel to
    /// `flows`, so the tail scan reads 4 bytes per flow, not 16); its
    /// share is the flow's rate.
    flow_level: Vec<u32>,
    /// Fair share of each bottleneck level of the last solve.
    levels: Vec<f64>,
    /// Flows in flight frozen at each level (parallel to `levels`).
    level_flows: Vec<u32>,
    /// Capacity each slot has left under the current rates: the capacity
    /// less it is the slot's load, Σrate over the flows crossing it.
    residual: Vec<f64>,
    /// Backing store for flow slot lists (grows monotonically; spans of
    /// finished flows are not reclaimed, which is fine for the bounded
    /// programs the scenario layer runs).
    slot_arena: Vec<u32>,
    now_ns: f64,
    /// Lowest level whose flow set changed since the last solve (0 after
    /// a start), [`NO_LEVEL`] when none did.
    restart_level: u32,
    /// Relative finish-coalescing window (see [`FluidSim::set_finish_window`]).
    finish_window_rel: f64,
    /// `now_ns` at the most recent [`FluidSim::start_flow`]: the instant
    /// the finish window is measured from.
    window_anchor_ns: f64,
    /// Lifetime counts of rate solves and of the flows they re-solved.
    recomputes: u64,
    flows_resolved: u64,
    /// Supervision limits polled once per advance iteration; the event
    /// budget counts rate recomputations here (the fluid tier's unit of
    /// solver effort).
    guard: InstalledGuard,
    recorder: R,
    // Per-slot scratch reused across recomputations. The per-flow and
    // per-hop scratch of a solve (its CSR, a level's spans, its sort keys) is
    // allocated by the solve and freed before it returns: on a big run it
    // outweighs everything else the engine holds between solves.
    scratch_count: Vec<u32>,
    scratch_offsets: Vec<u32>,
    scratch_active: Vec<u32>,
}

impl<'a> FluidSim<'a, NoopRecorder> {
    /// Creates an empty fluid simulation over `topo` with no telemetry.
    pub fn new(topo: &'a Topology) -> Self {
        Self::with_recorder(topo, NoopRecorder)
    }
}

impl<'a, R: Recorder> FluidSim<'a, R> {
    /// Creates an empty fluid simulation over `topo` with `recorder`
    /// attached.
    pub fn with_recorder(topo: &'a Topology, recorder: R) -> Self {
        Self {
            topo,
            residual: topo.serializers.iter().map(|slot| slot.capacity).collect(),
            flows: Vec::new(),
            progress: Vec::new(),
            flow_level: Vec::new(),
            levels: Vec::new(),
            level_flows: Vec::new(),
            slot_arena: Vec::new(),
            now_ns: 0.0,
            restart_level: NO_LEVEL,
            finish_window_rel: 0.0,
            window_anchor_ns: 0.0,
            recomputes: 0,
            flows_resolved: 0,
            guard: InstalledGuard::default(),
            recorder,
            scratch_count: Vec::new(),
            scratch_offsets: Vec::new(),
            scratch_active: Vec::new(),
        }
    }

    /// Sets the relative finish-coalescing window (the fluid analogue of
    /// SimGrid's `maxmin` precision knob). Default `0.0` — exact mode.
    ///
    /// With a window `rel > 0`, an advance that reaches the earliest flow
    /// finish at instant `t` keeps draining at the *current* rates through
    /// [`FluidSim::window_end`]`(t)` = `a + (t − a)·(1 + rel)`, `a` being
    /// the latest flow start, and completes every flow finishing inside
    /// that span in one batch: **one** rate recomputation per wave cluster
    /// instead of one per distinct finish instant. Completed flows are
    /// stamped at their exact projected finishes; only the redistribution
    /// of freed bandwidth, and any flow a driver starts inside the window,
    /// is deferred — each by at most `rel` of the time since the flows it
    /// competes with started, so the lateness does not compound over
    /// dependent rounds. A 1e-2 window bounds it at 1 %, below the
    /// packet-vs-fluid error bands, while collapsing the `O(hosts)` finish
    /// waves of a large all-to-all (ECMP collision classes) into
    /// `O(log(spread)/rel)` recomputations.
    ///
    /// # Panics
    /// Panics if `rel` is negative or not finite.
    pub fn set_finish_window(&mut self, rel: f64) {
        assert!(rel.is_finite() && rel >= 0.0, "bad finish window {rel}");
        self.finish_window_rel = rel;
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// End of the finish window opened by a flow finish at `t_ns`: `t_ns`
    /// plus `rel` of the time since the most recent flow start (see
    /// [`FluidSim::set_finish_window`]); `t_ns`, to rounding, in exact
    /// mode, and exactly `t_ns·(1 + rel)` while every flow started at 0.
    pub fn window_end(&self, t_ns: f64) -> f64 {
        let a = self.window_anchor_ns;
        a + (t_ns - a) * (1.0 + self.finish_window_rel)
    }

    /// Number of flows still in flight.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Makes room for `flows` more flows in flight, so a driver that knows
    /// its message count sizes the per-flow vectors once instead of
    /// growing them by doubling.
    pub fn reserve(&mut self, flows: usize) {
        self.flows.reserve(flows);
        self.progress.reserve(flows);
        self.flow_level.reserve(flows);
    }

    /// Number of max-min rate solves performed so far, full or restarted.
    /// Exposed so benches and telemetry can report solver effort alongside
    /// wall time; the guard's event budget counts these.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Lifetime sum, over those solves, of the flows each one re-solved
    /// (its tail): the solver's actual work, `recomputes × flows` at worst.
    pub fn flows_resolved(&self) -> u64 {
        self.flows_resolved
    }

    /// Fair share (bytes/second) of each bottleneck level of the last
    /// solve, in saturation order.
    pub fn level_shares(&self) -> &[f64] {
        &self.levels
    }

    /// `(tag, rate)` of every flow in flight at the current max-min rates,
    /// in no particular order.
    pub fn rates(&mut self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.ensure_rates();
        self.flows
            .iter()
            .zip(&self.flow_level)
            .map(|(f, &level)| (f.tag, self.levels[level as usize]))
    }

    /// Installs supervision limits, replacing any previous guard and
    /// clearing a tripped stop. The budget (counting rate recomputations
    /// here) and the simulated-time horizon are measured from this
    /// instant; the wall-clock deadline is absolute.
    pub fn set_guard(&mut self, guard: RunGuard) {
        self.guard.install(guard, self.recomputes, self.now_ns);
    }

    /// Checks the installed guard now and returns the stop reason if any
    /// limit has tripped (now or during an earlier advance; the stop
    /// stays latched until the next [`FluidSim::set_guard`]). Drivers
    /// poll this between advances so pure-event phases with no fluid in
    /// flight still honor deadlines and cancellation.
    pub fn guard_stop(&mut self) -> Option<GuardStop> {
        self.guard.check(self.recomputes, self.now_ns)
    }

    /// Consumes the simulation, returning the recorder for harvest.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Starts a flow of `bytes` from `src` to `dst` at the current time,
    /// copying its route's serializer slots; its [`FluidCompletion`]
    /// carries the route's latency.
    ///
    /// # Panics
    /// Panics if `src == dst` or `bytes == 0` (zero-byte transfers carry
    /// no fluid and must be completed by the caller directly).
    pub fn start_flow(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        assert!(bytes > 0, "empty fluid flow");
        let topo = self.topo;
        let span_start = self.slot_arena.len() as u32;
        self.slot_arena.extend(
            topo.route(src, dst)
                .map(|tx| topo.tx_params[tx.index()].serializer),
        );
        self.flows.push(FlowState {
            span_start,
            span_len: self.slot_arena.len() as u32 - span_start,
            tag,
        });
        // Bytes left until the solve this start forces sets the finish.
        self.progress.push(Progress {
            finish_ns: bytes as f64,
        });
        self.flow_level.push(NO_LEVEL);
        self.restart_level = 0;
        self.window_anchor_ns = self.now_ns;
    }

    fn flow_slots(flow: &FlowState) -> std::ops::Range<usize> {
        flow.span_start as usize..(flow.span_start + flow.span_len) as usize
    }

    /// Progressive filling in bottleneck-saturation order, restarted from
    /// `restart_level`: levels below it stand, the flows frozen at or above
    /// it (the tail — every flow when it is 0) are re-solved. `O(levels)`
    /// when the tail is empty; otherwise a scan of every flow, `O(tail
    /// hops)` for freezing plus one active-slot scan per new level, and the
    /// reorder by finish instant.
    fn recompute_rates(&mut self) {
        self.recomputes += 1;
        let from = self.restart_level;
        // A start restarts from 0 and so re-solves every flow, fresh ones
        // included; a finish wave leaves only frozen flows behind.
        let tail_len = if from == 0 {
            self.flows.len()
        } else {
            self.level_flows[from as usize..].iter().sum::<u32>() as usize
        };
        self.flows_resolved += tail_len as u64;
        if R::ENABLED {
            self.recorder.on_fluid_solve(self.flows.len(), tail_len);
        }
        if tail_len == 0 {
            // Every rate, finish instant and the finish order stand.
            self.levels.truncate(from as usize);
            self.level_flows.truncate(from as usize);
            return;
        }
        let now = self.now_ns;
        let slots = &self.topo.serializers;
        let n_slots = slots.len();
        self.scratch_count.clear();
        self.scratch_count.resize(n_slots, 0);
        // The tail gives its bandwidth back at its level's share (so the
        // shares are read before the levels are cut back), turns its finish
        // instants back into bytes left (a fresh flow holds its bytes
        // already), is counted per slot and marked unfrozen.
        let mut marked = 0;
        for (fi, level) in self.flow_level.iter_mut().enumerate() {
            if *level < from {
                continue;
            }
            marked += 1;
            let mut rate = 0.0;
            if *level != NO_LEVEL {
                rate = self.levels[*level as usize];
                let p = &mut self.progress[fi];
                p.finish_ns = (p.finish_ns - now) * rate / 1e9;
            }
            *level = NO_LEVEL;
            for &s in &self.slot_arena[Self::flow_slots(&self.flows[fi])] {
                self.scratch_count[s as usize] += 1;
                self.residual[s as usize] += rate;
            }
        }
        debug_assert_eq!(marked, tail_len, "per-level live counts");
        self.levels.truncate(from as usize);
        self.level_flows.truncate(from as usize);
        if from == 0 {
            // From scratch: shed the rounding the add-backs accumulated.
            self.residual.clear();
            self.residual.extend(slots.iter().map(|slot| slot.capacity));
        }
        // CSR: per-slot list of tail flow indices, in index order.
        // `offsets[s + 1]` starts as slot `s`'s fill cursor and so ends as
        // its end offset.
        self.scratch_offsets.clear();
        self.scratch_offsets.resize(n_slots + 2, 0);
        for s in 0..n_slots {
            self.scratch_offsets[s + 2] = self.scratch_offsets[s + 1] + self.scratch_count[s];
        }
        let mut csr = vec![0u32; self.scratch_offsets[n_slots + 1] as usize];
        let flows = self.flows.iter().zip(&self.flow_level).enumerate();
        for (fi, (flow, _)) in flows.filter(|(_, (_, &level))| level == NO_LEVEL) {
            for &s in &self.slot_arena[Self::flow_slots(flow)] {
                let cursor = &mut self.scratch_offsets[s as usize + 1];
                csr[*cursor as usize] = fi as u32;
                *cursor += 1;
            }
        }
        self.scratch_active.clear();
        self.scratch_active
            .extend((0..n_slots as u32).filter(|&s| self.scratch_count[s as usize] > 0));

        // The slot spans of the flows one level freezes.
        let mut spans = Vec::new();
        let mut remaining_flows = tail_len;
        while remaining_flows > 0 {
            // Find the bottleneck slot: smallest fair share among slots
            // still carrying unfrozen flows.
            let mut best_share = f64::INFINITY;
            let mut best_slot = usize::MAX;
            for &s in &self.scratch_active {
                let s = s as usize;
                if self.scratch_count[s] > 0 {
                    let share = self.residual[s] / self.scratch_count[s] as f64;
                    if share < best_share {
                        best_share = share;
                        best_slot = s;
                    }
                }
            }
            assert!(best_slot != usize::MAX, "active flow without a bottleneck");
            let below = self.levels.last().copied().unwrap_or(0.0);
            debug_assert!(best_share >= below * (1.0 - 1e-9), "level shares fell");
            let level = self.levels.len() as u32;
            self.levels.push(best_share);
            // Freeze every unfrozen flow crossing the bottleneck at the
            // bottleneck's fair share, gathering their slot spans; then take
            // that share off each of their slots. Every flow of the level
            // takes the same share, so walking the spans after the flows
            // leaves each slot's residual as one pass would.
            let (lo, hi) = (
                self.scratch_offsets[best_slot] as usize,
                self.scratch_offsets[best_slot + 1] as usize,
            );
            spans.clear();
            for &fi in &csr[lo..hi] {
                let fi = fi as usize;
                if self.flow_level[fi] != NO_LEVEL {
                    continue;
                }
                self.flow_level[fi] = level;
                let p = &mut self.progress[fi];
                p.finish_ns = now + (p.finish_ns / best_share) * 1e9;
                spans.push(Self::flow_slots(&self.flows[fi]));
            }
            for span in &spans {
                for &s in &self.slot_arena[span.clone()] {
                    let s = s as usize;
                    self.residual[s] -= best_share;
                    // Conservation: Σ rates on a slot ≤ its capacity.
                    debug_assert!(self.residual[s] >= -CONSERVATION_SLACK * slots[s].capacity);
                    // Numerical guard: residuals may dip epsilon-negative.
                    if self.residual[s] < 0.0 {
                        self.residual[s] = 0.0;
                    }
                    self.scratch_count[s] -= 1;
                }
            }
            let frozen = spans.len();
            remaining_flows -= frozen;
            self.level_flows.push(frozen as u32);
        }
        drop((csr, spans));
        self.order_by_finish();
    }

    /// Reorders the flow vectors by descending finish instant, ties by
    /// descending index, so a wave pops the earliest finishes (ties in
    /// index order) off the end.
    ///
    /// One key per flow packs its finish bits above its index above its
    /// level. The bits of a non-negative `f64` order as the value does and
    /// the index is unique, so descending keys are exactly that order, and
    /// the sort reads nothing else. A sorted key holds its flow's finish
    /// and level; the flow itself is gathered into the key's slot, so no
    /// per-flow vector is copied and no load waits on the one before it, as
    /// a cycle walk's would.
    fn order_by_finish(&mut self) {
        let mut keys: Vec<u128> = self
            .progress
            .iter()
            .zip(&self.flow_level)
            .enumerate()
            .map(|(i, (p, &level))| {
                debug_assert!(p.finish_ns.is_sign_positive(), "negative finish");
                u128::from(p.finish_ns.to_bits()) << 64 | (i as u128) << 32 | u128::from(level)
            })
            .collect();
        keys.sort_unstable_by_key(|&key| Reverse(key));
        for (i, key) in keys.iter_mut().enumerate() {
            self.progress[i] = Progress {
                finish_ns: f64::from_bits((*key >> 64) as u64),
            };
            self.flow_level[i] = *key as u32;
            *key = self.flows[(*key >> 32) as u32 as usize].to_bits();
        }
        for (flow, &bits) in self.flows.iter_mut().zip(keys.iter()) {
            *flow = FlowState::from_bits(bits);
        }
    }

    /// Debug builds check, after every solve and every finish wave, what
    /// waves rely on: the flows are in descending finish order and each
    /// level's live count is the number of flows frozen there.
    fn check_finish_order(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            self.progress
                .windows(2)
                .all(|w| w[0].finish_ns >= w[1].finish_ns),
            "flows out of finish order"
        );
        let mut live = vec![0; self.level_flows.len()];
        for &level in &self.flow_level {
            live[level as usize] += 1;
        }
        assert_eq!(live, self.level_flows, "per-level live counts");
    }

    /// Solves the rates if a start or a finish wave has changed the flow
    /// set since the last solve; the residuals then hold every slot's load.
    fn ensure_rates(&mut self) {
        if self.restart_level != NO_LEVEL {
            if !self.flows.is_empty() {
                self.recompute_rates();
                self.check_finish_order();
            }
            self.restart_level = NO_LEVEL;
        }
    }

    /// The simulated instant (nanoseconds) the earliest active flow
    /// finishes at current rates, or `None` when no flow is in flight.
    pub fn next_finish_ns(&mut self) -> Option<f64> {
        self.ensure_rates();
        self.progress.last().map(|p| p.finish_ns)
    }

    /// Emits one utilization sample per busy slot for `dt_secs` of fluid
    /// at current rates, labelled by the slot's first transmitter. A slot's
    /// load is what the solver took off it, capacity − residual = Σrate,
    /// and a saturated slot's is its capacity (the solver clamps residuals
    /// at 0); a load of at most [`CONSERVATION_SLACK`] · capacity is
    /// rounding left in the residual, not traffic. A slot counts as busy
    /// for its serializing time, bytes ÷ capacity (the packet engine's
    /// meaning): from `from_ns` for the interval's share `load / capacity`.
    /// Max-min leaves some slot saturated in every advance, so the busiest
    /// one spans the interval. Walks the slots only.
    fn record_busy(&mut self, dt_secs: f64, from_ns: f64, to_ns: f64) {
        for (slot, &residual) in self.topo.serializers.iter().zip(&self.residual) {
            let load = slot.capacity - residual;
            if load > CONSERVATION_SLACK * slot.capacity {
                self.recorder.on_tx_busy(
                    slot.first_tx.index() as u32,
                    from_ns.round() as u64,
                    (from_ns + (to_ns - from_ns) * (load / slot.capacity)).round() as u64,
                    (load * dt_secs).round() as u64,
                );
            }
        }
    }

    /// Advances simulated time to exactly `target_ns`, appending every
    /// flow completion at or before it (stamped at its own finish time) to
    /// `completions` in non-decreasing stamp order. Finishes within
    /// `DONE_TOLERANCE_BYTES` of the same instant coalesce onto that
    /// instant, so a symmetric all-to-all's wave of identical flows costs
    /// one churn event, not thousands.
    ///
    /// A tripped [`RunGuard`] limit (see [`FluidSim::set_guard`]) makes
    /// the advance return early, short of `target_ns`; check
    /// [`FluidSim::guard_stop`] to distinguish that from a completed
    /// advance.
    ///
    /// # Panics
    /// Panics if `target_ns` is behind the current time.
    pub fn advance_to(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>) {
        assert!(
            target_ns >= self.now_ns,
            "fluid time must advance monotonically"
        );
        loop {
            if self.guard_stop().is_some() {
                return;
            }
            // Short of the target, run through the earliest finish and its
            // whole coalescing window (empty in exact mode) at the current
            // rates, and complete every flow finishing inside it, stamped
            // at its exact projected finish. Otherwise only the clock moves.
            let next_ns = self.next_finish_ns().filter(|&t| t <= target_ns);
            let stop_ns = next_ns.map_or(target_ns, |t| self.window_end(t).min(target_ns));
            let from_ns = self.now_ns;
            if R::ENABLED && stop_ns > from_ns && !self.flows.is_empty() {
                self.record_busy((stop_ns - from_ns) / 1e9, from_ns, stop_ns);
            }
            self.now_ns = stop_ns;
            if next_ns.is_none() {
                return;
            }
            self.finish_wave(stop_ns, completions);
        }
    }

    /// Completes, in finish order, every flow a byte or less short of done
    /// at `stop_ns`: the suffix finishing by then, and any flow finishing
    /// within the time its last byte takes. That byte lasts longest at the
    /// slowest live rate, which bounds the candidates past the stop.
    fn finish_wave(&mut self, stop_ns: f64, completions: &mut Vec<FluidCompletion>) {
        let slowest = self
            .levels
            .iter()
            .zip(&self.level_flows)
            .filter(|&(_, &live)| live > 0)
            .fold(f64::INFINITY, |min, (&share, _)| min.min(share));
        let horizon_ns = stop_ns + DONE_TOLERANCE_BYTES / slowest * 1e9;
        let lo = self.progress.partition_point(|p| p.finish_ns > horizon_ns);
        let first = completions.len();
        let mut kept = lo;
        for i in lo..self.flows.len() {
            let finish_ns = self.progress[i].finish_ns;
            let level = self.flow_level[i];
            let rate = self.levels[level as usize];
            if (finish_ns - stop_ns) * rate / 1e9 > DONE_TOLERANCE_BYTES {
                // Not done: moves up past the done ones, order kept.
                self.flows.swap(kept, i);
                self.progress.swap(kept, i);
                self.flow_level.swap(kept, i);
                kept += 1;
                continue;
            }
            // The freed bandwidth goes back, and the route's latency is
            // summed on the way; the next solve restarts no higher than the
            // level this flow was frozen at.
            let flow = self.flows[i];
            let mut latency_ns = 0;
            for &s in &self.slot_arena[Self::flow_slots(&flow)] {
                self.residual[s as usize] += rate;
                latency_ns += self.topo.serializers[s as usize].latency_ns;
            }
            completions.push(FluidCompletion {
                tag: flow.tag,
                at: SimTime(finish_ns.min(stop_ns).round() as u64),
                latency_ns,
            });
            self.level_flows[level as usize] -= 1;
            self.restart_level = self.restart_level.min(level);
        }
        self.flows.truncate(kept);
        self.progress.truncate(kept);
        self.flow_level.truncate(kept);
        // The candidates ran latest finish first.
        completions[first..].reverse();
        self.check_finish_order();
    }

    /// Runs every in-flight flow to completion, returning completions in
    /// time order.
    pub fn run_to_completion(&mut self) -> Vec<FluidCompletion> {
        let mut completions = Vec::with_capacity(self.flows.len());
        while let Some(t) = self.next_finish_ns() {
            // Give a windowed advance room to coalesce the wave cluster;
            // exact mode stops at `t` either way.
            self.advance_to(self.window_end(t), &mut completions);
            if self.guard.stop().is_some() {
                break;
            }
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, SwitchConfig};
    use crate::topology::TopologyBuilder;

    fn star(n: usize) -> (Topology, Vec<HostId>) {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::lossless_fabric());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        (b.build().unwrap(), hosts)
    }

    /// Completion time (seconds) of a uniform all-to-all of `m` bytes per
    /// ordered pair among `hosts`, every flow started at time zero.
    fn alltoall_secs(topo: &Topology, hosts: &[HostId], m: u64) -> f64 {
        let mut sim = FluidSim::new(topo);
        for (i, &a) in hosts.iter().enumerate() {
            for (j, &b) in hosts.iter().enumerate() {
                if a != b {
                    sim.start_flow(a, b, m, (i * hosts.len() + j) as u64);
                }
            }
        }
        sim.run_to_completion()
            .last()
            .map_or(0.0, |c| c.at.as_secs_f64())
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let (topo, hosts) = star(2);
        let mut net = FluidSim::new(&topo);
        net.start_flow(hosts[0], hosts[1], 125_000_000, 1);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        // 125 MB at 125 MB/s = 1 s.
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_into_one_sink_halve() {
        let (topo, hosts) = star(3);
        let mut net = FluidSim::new(&topo);
        net.start_flow(hosts[0], hosts[2], 125_000_000, 1);
        net.start_flow(hosts[1], hosts[2], 125_000_000, 2);
        let done = net.run_to_completion();
        // Shared sink downlink: both at 62.5 MB/s → 2 s each.
        for c in &done {
            assert!((c.at.as_secs_f64() - 2.0).abs() < 1e-6, "{c:?}");
        }
    }

    #[test]
    fn short_flow_releases_bandwidth_to_long_flow() {
        let (topo, hosts) = star(3);
        let mut sim = FluidSim::new(&topo);
        sim.start_flow(hosts[0], hosts[2], 125_000_000, 1); // long
        sim.start_flow(hosts[1], hosts[2], 62_500_000, 2); // half the size
        let done = sim.run_to_completion();
        let short = done.iter().find(|c| c.tag == 2).unwrap();
        let long = done.iter().find(|c| c.tag == 1).unwrap();
        // Short: 62.5 MB at 62.5 MB/s = 1 s. Long: 62.5 MB in that first
        // second, then the remaining 62.5 MB at full 125 MB/s = 0.5 s.
        assert!((short.at.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((long.at.as_secs_f64() - 1.5).abs() < 1e-6);
        // Both froze at the one level, so the finish restarts from level 0:
        // a full re-solve of the survivor.
        assert_eq!((sim.recomputes(), sim.flows_resolved()), (2, 2 + 1));
    }

    #[test]
    fn max_min_protects_disjoint_flows() {
        let (topo, hosts) = star(4);
        let mut net = FluidSim::new(&topo);
        net.start_flow(hosts[0], hosts[1], 125_000_000, 1);
        net.start_flow(hosts[2], hosts[3], 125_000_000, 2);
        let done = net.run_to_completion();
        for c in &done {
            assert!(
                (c.at.as_secs_f64() - 1.0).abs() < 1e-6,
                "disjoint flows at line rate"
            );
        }
    }

    #[test]
    fn alltoall_estimate_matches_receiver_bottleneck() {
        let (topo, hosts) = star(8);
        let m = 1_000_000u64;
        let t = alltoall_secs(&topo, &hosts, m);
        // Every host receives 7 MB through a 125 MB/s downlink: 56 ms.
        let ideal = 7.0 * m as f64 / 125e6;
        assert!((t - ideal).abs() < ideal * 0.01, "{t} vs {ideal}");
    }

    #[test]
    fn oversubscribed_trunk_shows_in_the_estimate() {
        // Two 4-host edge switches joined by ONE gigabit trunk.
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(8);
        let e0 = b.add_switch(SwitchConfig::lossless_fabric());
        let e1 = b.add_switch(SwitchConfig::lossless_fabric());
        for (i, &h) in hosts.iter().enumerate() {
            b.link_host(
                h,
                if i < 4 { e0 } else { e1 },
                LinkConfig::gigabit_ethernet(),
            );
        }
        b.link_switches(e0, e1, LinkConfig::gigabit_ethernet());
        let topo = b.build().unwrap();
        let m = 1_000_000u64;
        let t = alltoall_secs(&topo, &hosts, m);
        // Cross traffic: 4×4 MB each way over one 125 MB/s trunk = 128 ms
        // per direction — far above the 56 ms receiver bound.
        let trunk_bound = 16.0 * m as f64 / 125e6;
        assert!(t >= trunk_bound * 0.99, "{t} vs {trunk_bound}");
    }

    #[test]
    fn half_duplex_bus_doubles_alltoall_cost() {
        let build = |bus: bool| {
            let mut b = TopologyBuilder::new();
            let hosts = b.add_hosts(4);
            let sw = b.add_switch(SwitchConfig::lossless_fabric());
            for &h in &hosts {
                b.link_host(h, sw, LinkConfig::myrinet_2000());
            }
            if bus {
                b.host_io_bus(250e6, 500);
            }
            (b.build().unwrap(), hosts)
        };
        let (t0, h0) = build(false);
        let (t1, h1) = build(true);
        let m = 1_000_000;
        let duplex = alltoall_secs(&t0, &h0, m);
        let half = alltoall_secs(&t1, &h1, m);
        let ratio = half / duplex;
        assert!((ratio - 2.0).abs() < 0.05, "bus ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "empty fluid flow")]
    fn zero_byte_flow_rejected() {
        let (topo, hosts) = star(2);
        let mut net = FluidSim::new(&topo);
        net.start_flow(hosts[0], hosts[1], 0, 1);
    }

    #[test]
    fn churn_late_flow_shares_from_its_start_instant() {
        // Hosts 3 and 4 sit on double-rate links, so a flow between them
        // freezes at a level of its own above the gigabit one.
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(5);
        let sw = b.add_switch(SwitchConfig::lossless_fabric());
        for (i, &h) in hosts.iter().enumerate() {
            let mut link = LinkConfig::gigabit_ethernet();
            link.bandwidth_bytes_per_sec *= if i >= 3 { 2.0 } else { 1.0 };
            b.link_host(h, sw, link);
        }
        let topo = b.build().unwrap();
        let mut sim = FluidSim::new(&topo);
        let mut done = Vec::new();
        // 125 MB alone for 0.4 s (50 MB through), then a second flow into
        // the same sink: remaining 75 MB at 62.5 MB/s = 1.2 s more.
        sim.start_flow(hosts[0], hosts[2], 125_000_000, 1);
        // A bystander on the fast links finishes at 0.2 s: its level is the
        // top one, so that solve restarts above flow 1 and re-solves nobody.
        sim.start_flow(hosts[3], hosts[4], 50_000_000, 3);
        sim.advance_to(0.4e9, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 3);
        assert!((done[0].at.as_secs_f64() - 0.2).abs() < 1e-6);
        assert_eq!((sim.recomputes(), sim.flows_resolved()), (2, 2));
        // A start after that incremental solve resets to level 0: both
        // flows in flight are re-solved.
        sim.start_flow(hosts[1], hosts[2], 125_000_000, 2);
        let mut halved: Vec<_> = sim.rates().collect();
        halved.sort_by_key(|r| r.0);
        assert_eq!(halved, vec![(1, 62.5e6), (2, 62.5e6)]);
        assert_eq!((sim.recomputes(), sim.flows_resolved()), (3, 2 + 2));
        while let Some(t) = sim.next_finish_ns() {
            sim.advance_to(t, &mut done);
        }
        let first = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(
            (first.at.as_secs_f64() - 1.6).abs() < 1e-6,
            "{:?}",
            first.at
        );
        // Late flow: 75 MB at 62.5 MB/s while sharing (through t=1.6),
        // then its last 50 MB at line rate → finishes at 2.0 s.
        let second = done.iter().find(|c| c.tag == 2).unwrap();
        assert!(
            (second.at.as_secs_f64() - 2.0).abs() < 1e-6,
            "{:?}",
            second.at
        );
    }

    #[test]
    fn finish_above_a_kept_level_lowers_a_third_flows_rate() {
        let (topo, hosts) = star(10);
        let start_survivors = |sim: &mut FluidSim| {
            // Level 0, kept throughout: four flows into host 5 at C/4.
            for (i, &h) in hosts[6..].iter().enumerate() {
                sim.start_flow(h, hosts[5], 100_000_000, 10 + i as u64);
            }
            // Level 1: A, A' and B share host 3's downlink at C/3. Level 2:
            // C shares host 1's uplink with B and takes the 2C/3 B leaves.
            sim.start_flow(hosts[2], hosts[3], 100_000_000, 2); // A'
            sim.start_flow(hosts[1], hosts[3], 100_000_000, 3); // B
            sim.start_flow(hosts[1], hosts[4], 100_000_000, 4); // C
        };
        let mut sim = FluidSim::new(&topo);
        start_survivors(&mut sim);
        sim.start_flow(hosts[0], hosts[3], 1_000_000, 1); // A, finishes first
        let c = 125e6;
        let rate_of = |sim: &mut FluidSim, tag| sim.rates().find(|r| r.0 == tag).unwrap().1;
        assert!((rate_of(&mut sim, 4) - 2.0 * c / 3.0).abs() < 1e-3);
        assert_eq!(sim.level_shares().len(), 3);
        let mut done = Vec::new();
        let t = sim.next_finish_ns().unwrap();
        sim.advance_to(t, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        // With A gone B rises to C/2 on both its links, which *lowers* C to
        // C/2. The restart re-solved A', B and C only (8 flows, then 3) and
        // lands on what a from-scratch solve of the survivors gives.
        let mut incremental: Vec<_> = sim.rates().collect();
        assert_eq!((sim.recomputes(), sim.flows_resolved()), (2, 8 + 3));
        assert!((rate_of(&mut sim, 4) - c / 2.0).abs() < 1e-3);
        assert!((rate_of(&mut sim, 10) - c / 4.0).abs() < 1e-3);
        let mut fresh = FluidSim::new(&topo);
        start_survivors(&mut fresh);
        let mut scratch: Vec<_> = fresh.rates().collect();
        incremental.sort_by_key(|r| r.0);
        scratch.sort_by_key(|r| r.0);
        for (a, b) in incremental.iter().zip(&scratch) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() <= 1e-12 * b.1, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn recorder_sees_one_full_solve_then_tail_sized_ones() {
        #[derive(Default)]
        struct SolveLog(Vec<(usize, usize)>);
        impl Recorder for SolveLog {
            fn on_fluid_solve(&mut self, active_flows: usize, resolved_flows: usize) {
                self.0.push((active_flows, resolved_flows));
            }
        }
        // Star all-to-all whose message size shrinks with the source:
        // every link runs at C/3 throughout, and each source's three flows
        // finish together, one wave per source.
        let (topo, hosts) = star(4);
        let mut sim = FluidSim::with_recorder(&topo, SolveLog::default());
        for (s, &src) in hosts.iter().enumerate() {
            for (d, &dst) in hosts.iter().enumerate() {
                if s != d {
                    sim.start_flow(src, dst, (4 - s as u64) * 1_000_000, (4 * s + d) as u64);
                }
            }
        }
        assert_eq!(sim.run_to_completion().len(), 12);
        let (recomputes, resolved) = (sim.recomputes(), sim.flows_resolved());
        let log = sim.into_recorder().0;
        // One full solve, then one per finish wave over the survivors whose
        // level is not below the finished flows' — fewer than all of them.
        assert_eq!(log[0], (12, 12));
        assert_eq!(log.iter().map(|l| l.0).collect::<Vec<_>>(), [12, 9, 6, 3]);
        assert!(log[1..].iter().map(|l| l.1).sum::<usize>() < 9 + 6 + 3);
        assert_eq!(log.len() as u64, recomputes);
        assert_eq!(log.iter().map(|l| l.1 as u64).sum::<u64>(), resolved);
    }

    #[test]
    fn advance_emits_utilization_samples_when_recording() {
        #[derive(Default)]
        struct BusyLog {
            samples: Vec<(u32, u64, u64, u64)>,
        }
        impl Recorder for BusyLog {
            fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, wire_bytes: u64) {
                self.samples.push((tx, from_ns, until_ns, wire_bytes));
            }
        }
        let (topo, hosts) = star(2);
        let mut sim = FluidSim::with_recorder(&topo, BusyLog::default());
        sim.start_flow(hosts[0], hosts[1], 125_000_000, 7);
        let mut done = Vec::new();
        let t = sim.next_finish_ns().unwrap();
        sim.advance_to(t, &mut done);
        assert_eq!(done.len(), 1);
        // On past the finish with nothing in flight: the residuals the
        // flow gave back are no load, so nothing more is recorded.
        sim.advance_to(2.0 * t, &mut done);
        assert_eq!(done.len(), 1);
        let log = sim.into_recorder();
        // The route crosses two serializers (host uplink, sink downlink);
        // each gets one full-interval sample carrying every byte.
        assert_eq!(log.samples.len(), 2);
        for &(_, from, until, bytes) in &log.samples {
            assert_eq!(from, 0);
            assert!((until as f64 - 1e9).abs() < 2.0);
            assert!((bytes as f64 - 125e6).abs() < 2.0);
        }
    }

    #[test]
    fn busy_time_is_serializing_time() {
        #[derive(Default)]
        struct BusyLog(Vec<(u32, u64, u64)>);
        impl Recorder for BusyLog {
            fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, _wire_bytes: u64) {
                self.0.push((tx, from_ns, until_ns));
            }
        }
        // Two flows into one sink: each source uplink carries half its
        // capacity, the sink downlink all of it.
        let (topo, hosts) = star(3);
        let mut sim = FluidSim::with_recorder(&topo, BusyLog::default());
        sim.start_flow(hosts[0], hosts[2], 125_000_000, 0);
        sim.start_flow(hosts[1], hosts[2], 125_000_000, 1);
        assert_eq!(sim.run_to_completion().len(), 2);
        let end = sim.now_ns().round() as u64;
        let mut log = sim.into_recorder().0;
        assert_eq!(log.len(), 3, "two uplinks and the sink downlink");
        log.sort_by_key(|&(_, from, until)| until - from);
        for &(_, from, until) in &log[..2] {
            assert_eq!(from, 0);
            assert!(until.abs_diff(end / 2) <= 1, "{until} vs {end}/2");
        }
        assert_eq!((log[2].1, log[2].2), (0, end));
    }

    #[test]
    fn coalesced_finishes_report_one_instant() {
        let (topo, hosts) = star(5);
        let mut sim = FluidSim::new(&topo);
        // Four identical flows into one sink: all finish together.
        for (i, &h) in hosts[..4].iter().enumerate() {
            sim.start_flow(h, hosts[4], 1_000_000, i as u64);
        }
        let done = sim.run_to_completion();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.at == done[0].at));
    }
}
