//! One module per paper table/figure, plus the ablations and extension
//! studies.
//!
//! Every experiment follows the same pattern: a `run(scale)` function
//! returning structured results, a `render(results)` function producing
//! its text table, and a `report(scale)` function returning the complete
//! text report — title, table and trailing checks.  [`ALL`] is the one
//! table of reports: `rh <name>` prints one entry, `rh all` every entry,
//! and `results/<name>.txt` holds each entry's paper-scale output.

use crate::config::ExperimentScale;

pub mod ablation;
pub mod aggressor_sweep;
pub mod blast_radius;
pub mod extensions;
pub mod fig4;
pub mod flooding;
pub mod latency;
pub mod redteam;
pub mod refresh_policies;
pub mod reliability;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trace_stats;
pub mod vulnerability;
pub mod weak_dram;

/// One entry of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `rh` subcommand, and the stem of its `results/` file.
    pub name: &'static str,
    /// The one-line description `rh list` prints.
    pub about: &'static str,
    /// The experiment's complete text report at a scale.
    pub report: fn(&ExperimentScale) -> String,
}

/// Every experiment `rh` runs, in `rh all` order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table I — simulated system specification",
        report: table1::report,
    },
    Experiment {
        name: "table2",
        about: "Table II — FSM clock cycles (exact)",
        report: table2::report,
    },
    Experiment {
        name: "fig4",
        about: "Fig. 4 — table size vs activation overhead",
        report: fig4::report,
    },
    Experiment {
        name: "table3",
        about: "Table III — LUTs, vulnerability, overhead, FPR",
        report: table3::report,
    },
    Experiment {
        name: "reliability",
        about: "§IV — no attack succeeds under any technique",
        report: reliability::report,
    },
    Experiment {
        name: "refresh-policies",
        about: "§IV — four refresh-order policies",
        report: refresh_policies::report,
    },
    Experiment {
        name: "flooding",
        about: "§IV — flooding first-trigger points",
        report: flooding::report,
    },
    Experiment {
        name: "vulnerability",
        about: "Table III 'Vulnerable' column evidence",
        report: vulnerability::report,
    },
    Experiment {
        name: "ablation",
        about: "design-choice sweeps",
        report: ablation::report,
    },
    Experiment {
        name: "weak-dram",
        about: "extension: weak-DRAM threshold sweep",
        report: weak_dram::report,
    },
    Experiment {
        name: "blast-radius",
        about: "extension: distance-2 coupling",
        report: blast_radius::report,
    },
    Experiment {
        name: "latency",
        about: "extension: demand latency through the controller",
        report: latency::report,
    },
    Experiment {
        name: "aggressor-sweep",
        about: "extension: fixed aggressor counts",
        report: aggressor_sweep::report,
    },
    Experiment {
        name: "extensions",
        about: "extension: CAT/Graphene + cache-workload validation",
        report: extensions::report,
    },
    Experiment {
        name: "trace-stats",
        about: "synthetic trace calibration vs Table I",
        report: trace_stats::report,
    },
];
