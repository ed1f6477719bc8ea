//! Batch-executor scaling: the same small scenario grid at 1/2/4/8
//! workers, so executor-parallelism regressions show up as a flat
//! (non-decreasing) curve here. Cost-aware scheduling and the calibration
//! cache both land in this number. A torus and a dragonfly grid ride
//! along so the non-tree generators and placement policies stay on the
//! measured path.
//!
//! The harness drives the library the way embedders do: specs come from
//! the fluent `ScenarioBuilder`, execution goes through a `Session` per
//! worker count, and all sessions share one `CalibrationCache`, so the
//! measured loop is pure executor — fits happen once, outside the timer.

use contention_scenario::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

/// A grid of eight quick cells (4–6 ranks, 16–64 KiB) on a small star —
/// enough work for sharding to matter, small enough for CI.
fn small_grid() -> ScenarioSpec {
    ScenarioBuilder::new("bench-small-grid")
        .description("executor scaling benchmark")
        .single_switch(
            8,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .uniform("direct")
        .nodes([4, 5, 6, 8])
        .message_bytes([16 * 1024, 64 * 1024])
        .reps(1)
        .build()
        .expect("bench spec is valid")
}

/// The small grid's shape on a packed 3×3 torus (dimension-ordered
/// routing on the batch path).
fn torus_grid() -> ScenarioSpec {
    ScenarioBuilder::new("bench-torus-grid")
        .description("executor scaling benchmark, torus fabric")
        .torus_2d(
            3,
            3,
            1,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .placement(Placement::Pack)
        .uniform("direct")
        .nodes([4, 6, 8])
        .message_bytes([16 * 1024, 64 * 1024])
        .reps(1)
        .build()
        .expect("bench spec is valid")
}

/// The small grid's shape on a packed dragonfly (global-link funneling on
/// the batch path).
fn dragonfly_grid() -> ScenarioSpec {
    ScenarioBuilder::new("bench-dragonfly-grid")
        .description("executor scaling benchmark, dragonfly fabric")
        .topology(TopologySpec::Dragonfly(DragonflyParams {
            groups: 3,
            routers_per_group: 3,
            hosts_per_router: 1,
            host_link: LinkConfig::gigabit_ethernet(),
            local_link: LinkConfig::gigabit_ethernet(),
            global_link: LinkConfig::gigabit_ethernet(),
            switch: SwitchConfig::commodity_ethernet(),
        }))
        .placement(Placement::Pack)
        .uniform("direct")
        .nodes([4, 6, 8])
        .message_bytes([16 * 1024, 64 * 1024])
        .reps(1)
        .build()
        .expect("bench spec is valid")
}

fn bench_worker_scaling(c: &mut Criterion) {
    let cache = Arc::new(CalibrationCache::new());
    for spec in [small_grid(), torus_grid(), dragonfly_grid()] {
        let fabric = spec.topology.kind();
        let mut group = c.benchmark_group("scenario_batch");
        group.sample_size(10);
        for workers in [1usize, 2, 4, 8] {
            let session = Session::builder()
                .workers(workers)
                .base_seed(42)
                .shared_cache(Arc::clone(&cache))
                .build()
                .expect("session builds");
            group.bench_with_input(
                BenchmarkId::new(fabric, workers),
                &workers,
                |b, &_workers| {
                    b.iter(|| session.run(&spec).expect("benchmark scenario runs"));
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_worker_scaling);
criterion_main!(benches);
