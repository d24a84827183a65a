//! Calibration validation: every quantitative claim the model is fitted
//! to (or predicts), checked in one place.
//!
//! `mpf-bench`'s `figures paper_stats` prints this table; the test suite
//! asserts every row, so a cost-model change that breaks an anchor fails
//! loudly with the offending row.

use crate::costs::CostModel;
use crate::machine::MachineConfig;
use crate::workloads;

/// One paper-vs-model comparison row.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// What is being compared.
    pub name: &'static str,
    /// The paper's value (bytes/second unless noted).
    pub paper: f64,
    /// The model's value.
    pub model: f64,
    /// Accepted multiplicative band (model within `paper/tol ..= paper*tol`).
    pub tolerance: f64,
}

impl Anchor {
    /// Whether the model value lands in the accepted band.
    pub fn holds(&self) -> bool {
        self.model >= self.paper / self.tolerance && self.model <= self.paper * self.tolerance
    }
}

/// Computes every calibration anchor on the given machine.
pub fn anchors(machine: &MachineConfig, costs: &CostModel) -> Vec<Anchor> {
    vec![
        Anchor {
            name: "Fig3 base asymptote, 2 KB loop-back",
            paper: 25_000.0,
            model: workloads::run_base(machine, costs, 2048, 100).send_throughput(),
            tolerance: 1.3,
        },
        Anchor {
            name: "Fig3 base mid-curve, 1 KB loop-back",
            paper: 21_000.0,
            model: workloads::run_base(machine, costs, 1024, 100).send_throughput(),
            tolerance: 1.4,
        },
        Anchor {
            name: "Fig4 fcfs plateau, 1 KB x 16 receivers",
            paper: 43_000.0,
            model: workloads::run_fcfs(machine, costs, 1024, 16, 200).send_throughput(),
            tolerance: 1.5,
        },
        Anchor {
            name: "Fig5 broadcast peak, 1 KB x 16 receivers",
            paper: 687_245.0,
            model: workloads::run_broadcast(machine, costs, 1024, 16, 200).delivered_throughput(),
            tolerance: 2.0,
        },
    ]
}

/// Renders the anchor table.
pub fn render(rows: &[Anchor]) -> String {
    let mut out = String::from(
        "anchor                                            paper        model   band   ok\n",
    );
    for a in rows {
        out.push_str(&format!(
            "{:<48} {:>9.0} {:>12.0}   {:>3.1}x   {}\n",
            a.name,
            a.paper,
            a.model,
            a.tolerance,
            if a.holds() { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_anchor_holds() {
        let m = MachineConfig::balance21000();
        let c = CostModel::calibrated(&m);
        let rows = anchors(&m, &c);
        assert_eq!(rows.len(), 4);
        for a in &rows {
            assert!(
                a.holds(),
                "calibration anchor broken: {} (paper {:.0}, model {:.0}, band {:.1}x)",
                a.name,
                a.paper,
                a.model,
                a.tolerance
            );
        }
    }

    #[test]
    fn render_flags_misses() {
        let rows = vec![Anchor {
            name: "synthetic",
            paper: 100.0,
            model: 500.0,
            tolerance: 2.0,
        }];
        assert!(!rows[0].holds());
        assert!(render(&rows).contains("NO"));
    }
}
