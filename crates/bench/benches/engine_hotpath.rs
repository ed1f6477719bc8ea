//! The criterion groups `ctnbench` has no equivalent for, all driving
//! `simnet::Simulator` (or the fluid solver, or an in-process `ctnd`)
//! directly, below the scenario layer's `Session` facade:
//!
//! * `recorder_overhead` / `guard_overhead` — the telemetry and
//!   supervision taxes as pairs on one event-dense case
//!   (`hotpath::gate_case`), the pairs `overhead_gate` gates in CI;
//! * `daemon_overhead` — one small cell through a `Session` and through
//!   an in-process daemon;
//! * `fluid_vs_packet` — fluid solver vs packet engine on the same
//!   all-to-all, in packet-engine event-equivalents.
//!
//! There is no packet-engine throughput grid here: what the engine costs
//! per event is `simnet.engine.ns_per_event` on `ctnbench`'s
//! `paper_presets` / `multihop_mix`, measured on runs a user waits on
//! (the synthetic rows this file used to carry started every connection
//! at once and read parity while the product moved 13–17 %).
//!
//! The ids live in `contention_bench::hotpath` so the snapshot-freshness
//! test can hold `BENCH_engine.json` at the repo root to exactly the
//! benchmarks defined here. Regenerate it with (the bench binary runs
//! with the package as its working directory, hence the `../..`):
//!
//! ```text
//! cargo bench -p contention-bench --bench engine_hotpath -- --save-json ../../BENCH_engine.json
//! ```
//!
//! Ratios are comparable only inside one run on one box.

use contention_bench::hotpath::{
    build_alltoall, build_fabric, drive_alltoall, drive_fluid, event_equivalents, fluid_cases,
    gate_case, Case, Fabric, DAEMON_OVERHEAD_BENCHES, FLUID_VS_PACKET_BASELINE,
    GUARD_OVERHEAD_BENCHES, RECORDER_OVERHEAD_BENCHES,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use simnet::obs::EngineRecorder;
use simnet::prelude::*;

/// The fluid-vs-packet throughput gap, measured in packet-engine
/// event-equivalents (`hotpath::event_equivalents`: MTU-sized packets ×
/// route hops + delivery — acks and timers excluded, so every ratio read
/// off this group understates the real speedup). The star-32 pair is
/// like-for-like: same fabric, same 992 × 64 KiB all-to-all, same
/// denominator, packet engine vs max-min fluid solver. The fat-tree row
/// is the capacity-planning scale only the fluid tier reaches — 1024
/// hosts, 1 046 529 concurrent flows — where the packet engine would need
/// hours per run. Topologies are built once outside the timing loop; each
/// sample times a fresh solver over the prebuilt fabric, matching what a
/// `ctnsim run --backend fluid` cell pays after topology construction.
fn bench_fluid_vs_packet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_vs_packet");

    let baseline = Case {
        name: FLUID_VS_PACKET_BASELINE,
        hosts: 32,
        message_bytes: 64 * 1024,
        transport: TransportKind::Tcp(TcpConfig::default()),
    };
    let (topo, hosts) = build_fabric(Fabric::Star, baseline.hosts);
    let equiv = event_equivalents(
        &topo,
        &hosts,
        baseline.transport.mtu() as u64,
        baseline.message_bytes,
    );
    drop(topo);
    group.sample_size(10);
    group.throughput(Throughput::Elements(equiv));
    group.bench_function(baseline.name, |b| {
        b.iter_batched(
            || build_alltoall(&baseline, NoopRecorder),
            |(mut sim, conns)| drive_alltoall(&baseline, &mut sim, &conns),
            BatchSize::SmallInput,
        )
    });

    for case in fluid_cases() {
        let (topo, hosts) = build_fabric(case.fabric, case.hosts);
        let equiv = event_equivalents(&topo, &hosts, case.mtu, case.message_bytes);
        group.sample_size(case.sample_size);
        group.throughput(Throughput::Elements(equiv));
        group.bench_function(case.name, |b| {
            b.iter(|| drive_fluid(&case, &topo, &hosts, NoopRecorder))
        });
    }
    group.finish();
}

/// The telemetry tax, measured: the gate case with the default no-op
/// recorder and with a recording `EngineRecorder`. The `overhead_gate`
/// binary enforces the ratio in CI; the snapshot keeps its trajectory.
fn bench_recorder_overhead(c: &mut Criterion) {
    let case = &gate_case();
    let mtu = case.transport.mtu() as u64;
    let data_packets = (case.hosts * (case.hosts - 1)) as u64 * case.message_bytes.div_ceil(mtu);
    let mut group = c.benchmark_group("recorder_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data_packets));
    group.bench_function(RECORDER_OVERHEAD_BENCHES[0], |b| {
        b.iter_batched(
            || build_alltoall(case, NoopRecorder),
            |(mut sim, conns)| drive_alltoall(case, &mut sim, &conns),
            BatchSize::SmallInput,
        )
    });
    group.bench_function(RECORDER_OVERHEAD_BENCHES[1], |b| {
        b.iter_batched(
            || build_alltoall(case, EngineRecorder::default()),
            |(mut sim, conns)| drive_alltoall(case, &mut sim, &conns),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The supervision tax, measured: the gate case with no guard installed
/// and with the guard every `Session` cell runs under by default — a
/// cancel-flag-only `RunGuard`, which makes the engine poll its
/// preemption point every `GUARD_CHECK_INTERVAL` events. The
/// `overhead_gate` binary holds the pair within 2% in CI; the snapshot
/// keeps their trajectory.
fn bench_guard_overhead(c: &mut Criterion) {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let case = &gate_case();
    let mtu = case.transport.mtu() as u64;
    let data_packets = (case.hosts * (case.hosts - 1)) as u64 * case.message_bytes.div_ceil(mtu);
    let mut group = c.benchmark_group("guard_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data_packets));
    group.bench_function(GUARD_OVERHEAD_BENCHES[0], |b| {
        b.iter_batched(
            || build_alltoall(case, NoopRecorder),
            |(mut sim, conns)| drive_alltoall(case, &mut sim, &conns),
            BatchSize::SmallInput,
        )
    });
    group.bench_function(GUARD_OVERHEAD_BENCHES[1], |b| {
        b.iter_batched(
            || {
                let (mut sim, conns) = build_alltoall(case, NoopRecorder);
                sim.set_guard(
                    RunGuard::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(false))),
                );
                (sim, conns)
            },
            |(mut sim, conns)| drive_alltoall(case, &mut sim, &conns),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The daemon's serving tax, measured: one trimmed incast cell (4
/// hosts, 16 KiB) run directly through a `Session`, and the same cell
/// round-tripped through an in-process `ctnd` daemon — HTTP submit,
/// event-stream follow, report fetch. Both sides share a pre-warmed
/// calibration cache (the daemon's own, warmed by a submission before
/// the timing loop), so the difference is queueing + HTTP framing +
/// registry bookkeeping, not model fitting. `BENCH_engine.json` keeps
/// the pair's trajectory so the tax cannot creep silently.
fn bench_daemon_overhead(c: &mut Criterion) {
    use contention_scenario::prelude::{
        CalibrationCache, LinkConfig, ScenarioBuilder, Session, SwitchConfig,
    };
    use std::sync::Arc;

    let spec = ScenarioBuilder::new("bench-daemon-overhead")
        .single_switch(
            4,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .incast(1)
        .nodes([4])
        .message_bytes([16 * 1024])
        .reps(1)
        .warmup(0)
        .build()
        .expect("valid bench spec");
    let spec_toml = spec.to_toml_string();

    let mut group = c.benchmark_group("daemon_overhead");
    group.sample_size(10);

    let cache = Arc::new(CalibrationCache::new());
    Session::builder()
        .workers(2)
        .shared_cache(Arc::clone(&cache))
        .build()
        .expect("warm-up session")
        .run(&spec)
        .expect("warm-up run");
    group.bench_function(DAEMON_OVERHEAD_BENCHES[0], |b| {
        b.iter(|| {
            let session = Session::builder()
                .workers(2)
                .shared_cache(Arc::clone(&cache))
                .build()
                .expect("session");
            let report = session.run(&spec).expect("direct run");
            report.render(contention_scenario::prelude::ReportFormat::Json)
        })
    });

    let daemon = ctnd::Daemon::spawn(ctnd::DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        run_workers: 1,
        session_workers: 2,
        ..ctnd::DaemonConfig::default()
    })
    .expect("daemon binds");
    let addr = daemon.addr();
    let submit = |toml: &str| -> String {
        let resp = ctnd::client::request(
            addr,
            "POST",
            "/v1/runs",
            Some("application/toml"),
            toml.as_bytes(),
        )
        .expect("POST /v1/runs");
        assert_eq!(resp.status, 202, "{}", resp.body);
        let start = resp.body.find("\"run_id\": \"").expect("run_id") + 11;
        let end = resp.body[start..].find('"').expect("run_id close") + start;
        resp.body[start..end].to_string()
    };
    // Warm the daemon's shared cache before timing.
    let warm_id = submit(&spec_toml);
    let _ = ctnd::client::request(
        addr,
        "GET",
        &format!("/v1/runs/{warm_id}/events"),
        None,
        b"",
    );
    group.bench_function(DAEMON_OVERHEAD_BENCHES[1], |b| {
        b.iter(|| {
            let id = submit(&spec_toml);
            // The events stream blocks until the run finishes.
            ctnd::client::request(addr, "GET", &format!("/v1/runs/{id}/events"), None, b"")
                .expect("GET events");
            let report =
                ctnd::client::request(addr, "GET", &format!("/v1/runs/{id}/report"), None, b"")
                    .expect("GET report");
            assert_eq!(report.status, 200, "{}", report.body);
            report.body
        })
    });
    group.finish();
    daemon.shutdown();
}

criterion_group!(
    benches,
    bench_recorder_overhead,
    bench_guard_overhead,
    bench_daemon_overhead,
    bench_fluid_vs_packet
);
criterion_main!(benches);
