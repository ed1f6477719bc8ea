//! Metamorphic relation: hosts no rank is placed on change nothing. On a
//! single switch, appending idle hosts after the placed ones adds links
//! no route crosses and a routing table no placed pair reads, so the
//! fluid completion times must stay bit-identical and the packet report
//! rows byte-identical.

use contention_scenario::prelude::*;

/// Hosts the grid's largest cell places ranks on.
const PLACED: usize = 6;

fn spec(idle: usize, backend: Backend, workload: &WorkloadSpec) -> ScenarioSpec {
    ScenarioBuilder::new("idle-hosts")
        .single_switch(
            PLACED + idle,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .placement(Placement::Pack)
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
            let base = run(&spec(0, backend, workload));
            assert_eq!(base.cell_count(), 4);
            let rows = base.render(ReportFormat::Csv);
            for idle in 1..=3 {
                let with_idle = run(&spec(idle, backend, workload));
                let what = format!("{backend:?} {} with {idle} idle", workload.kind());
                if backend == Backend::Fluid {
                    let bits = |r: &Report| -> Vec<u64> {
                        r.batches[0]
                            .cells
                            .iter()
                            .map(|c| c.mean_secs.to_bits())
                            .collect()
                    };
                    assert_eq!(bits(&with_idle), bits(&base), "{what}");
                }
                assert_eq!(with_idle.render(ReportFormat::Csv), rows, "{what}");
            }
        }
    }
}
