//! Turns a [`WorkloadSpec`] into per-rank programs and into the MED the
//! model bound is computed from, both in one walk over the cell's phases
//! (`traffic`), so the two cannot drift and a cell derives its traffic
//! once.
//!
//! Every other pattern is a per-pair byte table (the paper's §5 weighted
//! total-exchange digraph, the uniform All-to-All being its constant
//! case), run by one of Algorithm 1's two schedule shapes and scored by
//! the MED built from the same table, so the Claims 1–3 lower bound
//! applies uniformly: the executor's `model_secs` column is the MED time
//! bound under the scenario's measured Hockney parameters, and
//! `error_percent` is the paper's `(measured/estimated − 1)·100 %`.

use crate::spec::WorkloadSpec;
use contention_model::hockney::HockneyParams;
use contention_model::med::Med;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simmpi::alltoall::{post_all, rotated_rounds};
use simmpi::Op;

/// The per-pair byte table of one table-shaped phase (everything except
/// `Uniform`, which runs its algorithm directly, and `Phases`): `rows[i][j]`
/// bytes flow from rank `i` to rank `j`, zero meaning no message. The
/// diagonal is zero.
fn phase_rows(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Vec<Vec<u64>> {
    match w {
        WorkloadSpec::Uniform { .. } | WorkloadSpec::Phases { .. } => {
            unreachable!("not a table-shaped phase")
        }
        WorkloadSpec::Skewed {
            hot_ranks, factor, ..
        } => {
            let hot = (*factor * m as f64).round().max(1.0) as u64;
            (0..n)
                .map(|i| {
                    let row_m = if i < *hot_ranks { hot } else { m };
                    (0..n).map(|j| if i == j { 0 } else { row_m }).collect()
                })
                .collect()
        }
        WorkloadSpec::Sparse { density, .. } => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
            let mut rows: Vec<Vec<u64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            if i != j && rng.gen_bool(*density) {
                                m
                            } else {
                                0
                            }
                        })
                        .collect()
                })
                .collect();
            // Keep every rank participating so no program is empty: give
            // rank i a guaranteed message to its right neighbour.
            for (i, row) in rows.iter_mut().enumerate() {
                let j = (i + 1) % n;
                if row[j] == 0 {
                    row[j] = m;
                }
            }
            rows
        }
        WorkloadSpec::Permutation => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0EE7_ABCD);
            let perm = derangement(n, &mut rng);
            (0..n)
                .map(|i| (0..n).map(|j| if perm[i] == j { m } else { 0 }).collect())
                .collect()
        }
        WorkloadSpec::Incast { receivers } => (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        // Senders are the non-sink ranks; each sends to
                        // one sink, round-robin.
                        if i >= *receivers && j == (i - receivers) % *receivers {
                            m
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect(),
        WorkloadSpec::Outcast { senders } => (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i < *senders && j != i { m } else { 0 })
                    .collect()
            })
            .collect(),
    }
}

/// A random permutation with no fixed point (so every rank both sends and
/// receives exactly once).
fn derangement(n: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(n >= 2);
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        perm.shuffle(rng);
        if (0..n).all(|i| perm[i] != i) {
            return perm;
        }
    }
}

/// One phase's programs and MED. A uniform phase is scored against the
/// uniform All-to-All's MED whatever its algorithm.
fn phase_traffic(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> (Vec<Vec<Op>>, Med) {
    let nonblocking = match w {
        WorkloadSpec::Uniform { algorithm } => {
            return (algorithm.programs(n, m), Med::uniform_alltoall(n, m))
        }
        WorkloadSpec::Phases { .. } => unreachable!("phases cannot nest"),
        WorkloadSpec::Skewed { nonblocking, .. } | WorkloadSpec::Sparse { nonblocking, .. } => {
            *nonblocking
        }
        // One message per rank (permutation) or pure fan-in/out: posting
        // order is irrelevant, use the post-all schedule.
        _ => true,
    };
    let rows = phase_rows(w, n, m, seed);
    let bytes = |i: usize, j: usize| rows[i][j];
    let programs = if nonblocking {
        post_all(n, bytes)
    } else {
        rotated_rounds(n, bytes)
    };
    (programs, Med::from_bytes(n, bytes))
}

/// One cell's traffic, derived once: the per-rank programs and the MED of
/// each phase, in phase order.
pub(crate) struct Traffic {
    programs: Vec<Vec<Op>>,
    meds: Vec<Med>,
}

impl Traffic {
    /// The programs and the cell's MED lower bound (Claims 1–3) under
    /// `params`; the MEDs are dropped here, before anything simulates.
    /// Phases are separated by barriers, so their bounds add.
    pub(crate) fn scored(self, params: &HockneyParams) -> (Vec<Vec<Op>>, f64) {
        let bound = self
            .meds
            .iter()
            .map(|med| med.time_lower_bound(params))
            .sum();
        (self.programs, bound)
    }
}

/// The one walk over a cell's phases: `n` ranks, `m` bytes per pair
/// (interpretation is per-pattern), each phase drawing its patterns from
/// its own stream derived from `seed` (the first phase's is `seed`).
/// Multi-phase workloads are separated by barriers so phases do not
/// overlap.
pub(crate) fn traffic(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Traffic {
    let phases = match w {
        WorkloadSpec::Phases { phases } => phases.as_slice(),
        single => std::slice::from_ref(single),
    };
    let mut traffic = Traffic {
        programs: Vec::new(),
        meds: Vec::with_capacity(phases.len()),
    };
    for (idx, phase) in phases.iter().enumerate() {
        let phase_seed = seed.wrapping_add(0x9E37 * idx as u64);
        let (programs, med) = phase_traffic(phase, n, m, phase_seed);
        if idx == 0 {
            traffic.programs = programs;
        } else {
            for (prog, mut next) in traffic.programs.iter_mut().zip(programs) {
                prog.push(Op::Barrier);
                prog.append(&mut next);
            }
        }
        traffic.meds.push(med);
    }
    traffic
}

/// The per-rank programs of one cell.
pub fn programs(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Vec<Vec<Op>> {
    traffic(w, n, m, seed).programs
}

/// The MED lower bound (Claims 1–3) of one cell under `params`; the
/// bounds of barrier-separated phases add.
pub fn model_bound(w: &WorkloadSpec, n: usize, m: u64, seed: u64, params: &HockneyParams) -> f64 {
    traffic(w, n, m, seed).scored(params).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::alltoall::AllToAllAlgorithm;

    fn check_balanced(progs: &[Vec<Op>]) {
        // Every send has a matching posted receive.
        let n = progs.len();
        let mut sent = vec![vec![0u64; n]; n];
        let mut recvd = vec![vec![0u64; n]; n];
        for (i, prog) in progs.iter().enumerate() {
            for op in prog {
                if let Op::Transfer { sends, recvs } = op {
                    for &(to, _) in sends {
                        sent[i][to] += 1;
                    }
                    for &from in recvs {
                        recvd[from][i] += 1;
                    }
                }
            }
        }
        assert_eq!(sent, recvd);
    }

    #[test]
    fn every_pattern_produces_matched_programs() {
        let specs = [
            WorkloadSpec::Uniform {
                algorithm: AllToAllAlgorithm::DirectExchange,
            },
            WorkloadSpec::Skewed {
                hot_ranks: 2,
                factor: 4.0,
                nonblocking: true,
            },
            WorkloadSpec::Sparse {
                density: 0.4,
                nonblocking: false,
            },
            WorkloadSpec::Permutation,
            WorkloadSpec::Incast { receivers: 2 },
            WorkloadSpec::Outcast { senders: 1 },
        ];
        for w in &specs {
            let progs = programs(w, 6, 10_000, 42);
            assert_eq!(progs.len(), 6, "{}", w.kind());
            check_balanced(&progs);
        }
    }

    #[test]
    fn permutation_is_a_derangement_and_seed_dependent() {
        let m1 = phase_rows(&WorkloadSpec::Permutation, 8, 100, 1);
        let m2 = phase_rows(&WorkloadSpec::Permutation, 8, 100, 1);
        assert_eq!(m1, m2, "same seed, same pattern");
        for i in 0..8 {
            assert_eq!(m1[i].iter().sum::<u64>(), 100);
            assert_eq!(m1.iter().map(|row| row[i]).sum::<u64>(), 100);
            assert_eq!(m1[i][i], 0);
        }
        let m3 = phase_rows(&WorkloadSpec::Permutation, 8, 100, 2);
        assert_ne!(m1, m3, "different seed, different permutation");
    }

    #[test]
    fn skewed_hot_ranks_send_more() {
        let w = WorkloadSpec::Skewed {
            hot_ranks: 1,
            factor: 3.0,
            nonblocking: true,
        };
        let m = phase_rows(&w, 4, 1000, 0);
        assert_eq!(m[0].iter().sum::<u64>(), 9000);
        assert_eq!(m[1].iter().sum::<u64>(), 3000);
    }

    #[test]
    fn phases_join_with_barriers() {
        let w = WorkloadSpec::Phases {
            phases: vec![
                WorkloadSpec::Permutation,
                WorkloadSpec::Uniform {
                    algorithm: AllToAllAlgorithm::DirectExchange,
                },
            ],
        };
        let progs = programs(&w, 4, 1000, 9);
        for prog in &progs {
            assert_eq!(
                prog.iter().filter(|op| matches!(op, Op::Barrier)).count(),
                1
            );
        }
    }

    /// Whether every phase sends each message straight to its destination
    /// (nothing forwarded, nothing combined), so its sends are its MED.
    fn forwards_nothing(w: &WorkloadSpec) -> bool {
        match w {
            WorkloadSpec::Uniform { algorithm } => matches!(
                algorithm,
                AllToAllAlgorithm::DirectExchange | AllToAllAlgorithm::DirectExchangeNonblocking
            ),
            WorkloadSpec::Phases { phases } => phases.iter().all(forwards_nothing),
            _ => true,
        }
    }

    #[test]
    fn a_forwarding_free_schedule_sends_exactly_its_med() {
        let params = HockneyParams::new(50e-6, 8e-9);
        let mut checked = 0;
        for spec in crate::registry::builtin() {
            if spec.backend != crate::spec::Backend::Packet || !forwards_nothing(&spec.workload) {
                continue;
            }
            // The builtin's trimmed cell, seeded as a seed-42 run seeds it.
            let n = *spec.sweep.nodes.iter().min().unwrap();
            let m = spec.sweep.message_bytes[0];
            let seed = crate::executor::cell_seed(&spec.name, 42, n, m);
            let Traffic { programs, meds } = traffic(&spec.workload, n, m, seed);
            // Phases are barrier-separated: one rebuilt MED per phase.
            let mut rebuilt: Vec<Med> = meds.iter().map(|_| Med::new(n)).collect();
            for (i, prog) in programs.iter().enumerate() {
                let mut phase = 0;
                for op in prog {
                    match op {
                        Op::Barrier => phase += 1,
                        Op::Transfer { sends, .. } => {
                            for &(j, bytes) in sends {
                                rebuilt[phase].add_message(i, j, bytes);
                            }
                        }
                    }
                }
            }
            for (phase, (sent, med)) in rebuilt.iter().zip(&meds).enumerate() {
                let at = format!("{} phase {phase}", spec.name);
                for i in 0..n {
                    assert_eq!(sent.out_degree(i), med.out_degree(i), "{at} rank {i}");
                    assert_eq!(sent.in_degree(i), med.in_degree(i), "{at} rank {i}");
                }
                assert_eq!(sent.send_time_bound(1.0), med.send_time_bound(1.0), "{at}");
                assert_eq!(sent.recv_time_bound(1.0), med.recv_time_bound(1.0), "{at}");
            }
            let bound: f64 = rebuilt
                .iter()
                .map(|med| med.time_lower_bound(&params))
                .sum();
            assert_eq!(
                bound,
                model_bound(&spec.workload, n, m, seed, &params),
                "{}",
                spec.name
            );
            checked += 1;
        }
        assert_eq!(checked, 12, "every packet builtin but the ring one");
    }

    #[test]
    fn model_bound_positive_and_monotone_in_size() {
        let params = HockneyParams::new(50e-6, 8e-9);
        for w in [
            WorkloadSpec::Uniform {
                algorithm: AllToAllAlgorithm::DirectExchange,
            },
            WorkloadSpec::Incast { receivers: 1 },
            WorkloadSpec::Permutation,
        ] {
            let small = model_bound(&w, 6, 10_000, 3, &params);
            let large = model_bound(&w, 6, 1_000_000, 3, &params);
            assert!(small > 0.0, "{}", w.kind());
            assert!(large > small, "{}", w.kind());
        }
    }
}
