//! The paper's own results per testbed: what figures 4 and 6–14 and
//! `params` compare our measurements against. The testbeds themselves,
//! n′ included, are [`simmpi::presets`].

use simmpi::presets::NetworkKind;

/// What the paper reports for one testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTestbed {
    /// Fitted γ (§8).
    pub gamma: f64,
    /// Fitted δ in seconds (§8).
    pub delta_secs: f64,
    /// Cutoff `M` in bytes (`None` for "no affine term").
    pub cutoff: Option<u64>,
    /// Largest node count of the prediction surface (Figs. 7/10/13).
    pub surface_max_nodes: usize,
    /// §6's stress-test gaps, measured on Gigabit Ethernet only.
    pub stress: Option<PaperStress>,
}

/// §6's throughput-under-contention constants, in seconds per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperStress {
    /// Contention-free gap βF.
    pub beta_free: f64,
    /// Contended gap βC.
    pub beta_contended: f64,
    /// Synthetic β at ρ = 0.5.
    pub synthetic_beta: f64,
}

/// The paper's results on `network`.
pub fn testbed(network: NetworkKind) -> PaperTestbed {
    match network {
        NetworkKind::FastEthernet => PaperTestbed {
            gamma: 1.0195,
            delta_secs: 8.23e-3,
            cutoff: Some(2 * 1024),
            surface_max_nodes: 40,
            stress: None,
        },
        NetworkKind::GigabitEthernet => PaperTestbed {
            gamma: 4.3628,
            delta_secs: 4.93e-3,
            cutoff: Some(8 * 1024),
            surface_max_nodes: 48,
            stress: Some(PaperStress {
                beta_free: 8.502e-9,
                beta_contended: 8.498e-8,
                synthetic_beta: 4.674e-8,
            }),
        },
        NetworkKind::Myrinet => PaperTestbed {
            gamma: 2.49754,
            delta_secs: 1e-6,
            cutoff: None,
            surface_max_nodes: 48,
            stress: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_the_text() {
        let fe = testbed(NetworkKind::FastEthernet);
        assert_eq!(
            (fe.gamma, fe.delta_secs, fe.cutoff),
            (1.0195, 8.23e-3, Some(2048))
        );
        assert!(fe.stress.is_none());
        let ge = testbed(NetworkKind::GigabitEthernet);
        assert_eq!(
            (ge.gamma, ge.delta_secs, ge.cutoff),
            (4.3628, 4.93e-3, Some(8192))
        );
        let s = ge.stress.expect("§6 measured Gigabit Ethernet");
        assert_eq!(
            (s.beta_free, s.beta_contended, s.synthetic_beta),
            (8.502e-9, 8.498e-8, 4.674e-8)
        );
        // The synthetic β is eq. 3 at ρ = 0.5, to the paper's four digits.
        assert!((0.5 * (s.beta_free + s.beta_contended) - s.synthetic_beta).abs() < 1e-11);
        let my = testbed(NetworkKind::Myrinet);
        assert_eq!((my.gamma, my.delta_secs, my.cutoff), (2.49754, 1e-6, None));
        assert!(my.stress.is_none());
    }
}
