//! Golden-file coverage of the TOML round-trip: a checked-in document must
//! decode to exactly the expected spec, re-encode, and decode back equal.

use contention_scenario::spec::{
    Backend, MpiSpec, ScenarioSpec, SweepSpec, TopologySpec, TransportSpec, WorkloadSpec,
};
use simnet::config::{LinkConfig, SwitchConfig};
use simnet::generate::{Placement, TreeParams};

const GOLDEN: &str = include_str!("golden/oversubscribed_tree.toml");

fn expected() -> ScenarioSpec {
    ScenarioSpec {
        name: "golden-oversubscribed-tree".into(),
        description: "Skewed exchange over a 4:1 oversubscribed tree (golden file)".into(),
        topology: TopologySpec::Tree(TreeParams {
            leaves: 4,
            hosts_per_leaf: 6,
            edge_link: LinkConfig {
                bandwidth_bytes_per_sec: 125e6,
                latency_ns: 20_000,
            },
            oversubscription: 4.0,
            uplinks_per_leaf: 2,
            uplink_latency_ns: 10_000,
            edge_switch: SwitchConfig {
                shared_buffer_bytes: 262_144,
                per_port_cap_bytes: 65_536,
            },
            core_switch: SwitchConfig {
                shared_buffer_bytes: 1_048_576,
                per_port_cap_bytes: 131_072,
            },
        }),
        placement: Placement::Scatter,
        transport: TransportSpec::Tcp {
            window_bytes: 65_536,
        },
        mpi: MpiSpec {
            eager_threshold: Some(8192),
            hiccup_probability: Some(0.01),
            ..MpiSpec::default()
        },
        workload: WorkloadSpec::Phases {
            phases: vec![
                WorkloadSpec::Skewed {
                    hot_ranks: 2,
                    factor: 4.0,
                    nonblocking: true,
                },
                WorkloadSpec::Uniform {
                    algorithm: "direct".into(),
                },
            ],
        },
        sweep: SweepSpec {
            nodes: vec![8, 16],
            message_bytes: vec![65_536, 262_144],
            warmup: 1,
            reps: 2,
        },
        backend: Backend::Packet,
    }
}

#[test]
fn golden_file_decodes_to_expected_spec() {
    let parsed = ScenarioSpec::from_toml_str(GOLDEN).expect("golden file parses");
    assert_eq!(parsed, expected());
}

#[test]
fn golden_spec_round_trips_through_serializer() {
    let spec = expected();
    let text = spec.to_toml_string();
    let reparsed = ScenarioSpec::from_toml_str(&text)
        .unwrap_or_else(|e| panic!("serialized golden spec failed to reparse: {e}\n{text}"));
    assert_eq!(spec, reparsed);
}

#[test]
fn golden_spec_is_runnable() {
    let mut spec = ScenarioSpec::from_toml_str(GOLDEN).expect("golden file parses");
    // Shrink the grid so the smoke run stays fast.
    spec.sweep = SweepSpec {
        nodes: vec![4],
        message_bytes: vec![16 * 1024],
        warmup: 0,
        reps: 1,
    };
    let session = contention_scenario::session::Session::builder()
        .workers(2)
        .base_seed(5)
        .build()
        .expect("session builds");
    let report = session.run(&spec).expect("golden scenario runs");
    assert_eq!(report.batches[0].cells.len(), 1);
    assert!(report.batches[0].cells[0].mean_secs > 0.0);
}
