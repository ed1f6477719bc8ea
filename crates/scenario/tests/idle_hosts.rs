//! Metamorphic relations: hosts no rank is placed on change nothing, and
//! neither does which hosts they are. On a single switch, appending idle
//! hosts after the placed ones adds links no route crosses and a routing
//! table no placed pair reads, so under each placement the fluid
//! completion times must stay bit-identical and the packet report rows
//! byte-identical. Every host hangs off the one switch by an identical
//! link, so the fluid completion times must also be bit-identical across
//! placements.

use contention_scenario::prelude::*;

/// Hosts the grid's largest cell places ranks on.
const PLACED: usize = 6;

fn spec(
    idle: usize,
    placement: Placement,
    backend: Backend,
    workload: &WorkloadSpec,
) -> ScenarioSpec {
    ScenarioBuilder::new("idle-hosts")
        .single_switch(
            PLACED + idle,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .placement(placement)
        .backend(backend)
        .workload(workload.clone())
        .nodes([4, PLACED])
        .message_bytes([16 * 1024, 256 * 1024])
        .reps(1)
        .warmup(0)
        .build()
        .expect("spec validates")
}

fn run(spec: &ScenarioSpec) -> Report {
    Session::builder()
        .workers(1)
        .base_seed(42)
        .build()
        .expect("session builds")
        .run(spec)
        .expect("run completes")
}

/// Bits of each cell's fluid mean completion time.
fn mean_bits(report: &Report) -> Vec<u64> {
    report.batches[0]
        .cells
        .iter()
        .map(|c| c.mean_secs.to_bits())
        .collect()
}

#[test]
fn hosts_no_rank_is_placed_on_change_nothing() {
    let workloads = [
        WorkloadSpec::Uniform {
            algorithm: AllToAllAlgorithm::DirectExchange,
        },
        WorkloadSpec::Permutation,
        WorkloadSpec::Incast { receivers: 1 },
    ];
    for backend in [Backend::Packet, Backend::Fluid] {
        for workload in &workloads {
            let mut fluid_bits = None;
            for placement in Placement::all() {
                let base = run(&spec(0, placement, backend, workload));
                assert_eq!(base.cell_count(), 4);
                let rows = base.render(ReportFormat::Csv);
                let what = format!("{backend:?} {} {}", workload.kind(), placement.name());
                if backend == Backend::Fluid {
                    let first = fluid_bits.get_or_insert_with(|| mean_bits(&base));
                    assert_eq!(&mean_bits(&base), first, "{what} against scatter");
                }
                for idle in 1..=3 {
                    let with_idle = run(&spec(idle, placement, backend, workload));
                    let what = format!("{what} with {idle} idle");
                    if backend == Backend::Fluid {
                        assert_eq!(mean_bits(&with_idle), mean_bits(&base), "{what}");
                    }
                    assert_eq!(with_idle.render(ReportFormat::Csv), rows, "{what}");
                }
            }
        }
    }
}
